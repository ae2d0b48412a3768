import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from contrace import cli
from contrace.cli import (EXIT_CONFIG, EXIT_EMPTY, EXIT_ERROR, EXIT_OK,
                          EXIT_PRIVILEGE)
from contrace.records import (Hop, PathRuns, PingRecord, RecordStore, StoreQuery,
                              TracerouteRun)
from conftest import MIXED_NDJSON, MIXED_NDJSON_REJECTED, path_runs
from oracles import serialize_line

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def write_config(tmp_path, store_path, **overrides):
    """Config pointing at the shipped enrichment fixtures."""
    doc = f"""
sources:
  - {{label: SUNET, address: 10.16.1.10}}
destinations:
  - {{label: Uninett, address: 10.22.2.10}}
schedule:
  ping_interval_s: 1
  traceroute_interval_s: 300
  traceroute_rounds: 3
  max_ttl: 16
  reply_timeout_s: 2.0
store: {store_path}
enrichment:
  as_prefixes: {FIXTURES / 'as_prefixes.csv'}
  as_names: {FIXTURES / 'as_names.csv'}
  geo_fixtures: {FIXTURES / 'geo.csv'}
"""
    path = tmp_path / "config.yaml"
    path.write_text(doc)
    return path


def sim_run(config, duration, seed):
    """sim-run of neighbor.yaml with endpoints, schedule and store from config."""
    return cli.main(["sim-run", "--topology", str(FIXTURES / "neighbor.yaml"),
                     "--config", str(config), "--duration", str(duration),
                     "--seed", str(seed)])


@pytest.fixture(scope="module")
def sim_store(tmp_path_factory):
    """One 20-minute simulated campaign on the neighbor fixture."""
    root = tmp_path_factory.mktemp("simstore")
    store_path = root / "store"
    config = write_config(root, store_path)
    assert sim_run(config, 1200, 7) == EXIT_OK
    return root, config, store_path


class TestSimRunConfig:
    def test_deterministic_store_contents(self, tmp_path, capsys):
        outputs = []
        for name in ("a", "b"):
            store = tmp_path / name
            config = write_config(tmp_path, store)
            assert sim_run(config, 120, 3) == EXIT_OK
            dump = io.StringIO()
            RecordStore(store).export(dump)
            outputs.append(dump.getvalue())
        assert outputs[0] == outputs[1]

    def test_ping_count_matches_schedule(self, sim_store):
        _, _, store_path = sim_store
        store = RecordStore(store_path)
        assert store.count("ping") == 1200  # 1 relation x 1200 s x 1/s
        # 4 cycles x 3 rounds in 1200 s
        assert store.count("traceroute") == 12

    def test_statuses_within_model(self, sim_store):
        _, _, store_path = sim_store
        store = RecordStore(store_path)
        for run in store.query(StoreQuery("traceroute")):
            statuses = [h.status for h in run.hops]
            assert set(statuses) <= {0, 1, 255}
            assert statuses[-1] == 255
            assert 255 not in statuses[:-1]

    def test_missing_topology_is_config_error(self, tmp_path, capsys):
        config = write_config(tmp_path, tmp_path / "s")
        with pytest.raises(SystemExit) as info:
            cli.main(["sim-run", "--config", str(config)])
        assert info.value.code == EXIT_CONFIG

    def test_address_not_in_topology_is_config_error(self, tmp_path):
        config = tmp_path / "config.yaml"
        config.write_text(
            "sources: [{label: X, address: 192.0.2.1}]\n"
            "destinations: [{label: Y, address: 192.0.2.2}]\n"
            "store: s\n")
        assert sim_run(config, 10, 0) == EXIT_CONFIG

    def test_bad_config_rejected(self, tmp_path):
        config = tmp_path / "config.yaml"
        config.write_text("sources: []\ndestinations: []\n")
        assert cli.main(["measure", "--config", str(config)]) == EXIT_CONFIG
        assert sim_run(config, 10, 0) == EXIT_CONFIG

    def test_config_replaces_the_measurement_section(self, tmp_path, capsys):
        """The config's endpoints, schedule and store, not the section's."""
        config = tmp_path / "config.yaml"
        config.write_text(
            "sources: [{label: CERNET, address: 10.80.1.10}]\n"
            "destinations: [{label: Uninett, address: 10.22.2.10}]\n"
            "schedule: {ping_interval_s: 2, traceroute_interval_s: 3600}\n"
            "store: s\n")
        assert cli.main(["sim-run", "--topology", str(FIXTURES / "inter_continental.yaml"),
                         "--config", str(config), "--duration", "60"]) == EXIT_OK
        store = RecordStore(tmp_path / "s")
        assert store.count("ping") == 30
        assert {r.source for r in store.query(StoreQuery("ping"))} == {"10.80.1.10"}

    def test_measure_has_no_sim_mode(self, tmp_path, capsys):
        config = write_config(tmp_path, tmp_path / "s")
        with pytest.raises(SystemExit) as info:
            cli.main(["measure", "--config", str(config), "--mode", "sim",
                      "--topology", str(FIXTURES / "neighbor.yaml")])
        assert info.value.code == EXIT_CONFIG
        assert "unrecognized arguments: --mode sim --topology" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()


_SOURCES = "sources: [{label: SUNET, address: 10.16.1.10}]\n"
_DESTINATIONS = "destinations: [{label: Uninett, address: 10.22.2.10}]\n"


@pytest.mark.parametrize("command", ["analyze", "measure", "sim-run"])
@pytest.mark.parametrize("document", [
    "sources: [\n", "sources: 5\n" + _DESTINATIONS,
    _SOURCES + _DESTINATIONS + "enrichment: 5\n",
    _SOURCES + _DESTINATIONS + "enrichment: {as_prefixes: 5}\n",
    _SOURCES.replace("}", ", family: v5}") + _DESTINATIONS,
], ids=["malformed-yaml", "sources-not-a-list", "enrichment-not-a-mapping",
        "enrichment-path-not-a-string", "unknown-family"])
def test_bad_config_is_one_error_line(tmp_path, capsys, command, document):
    """A config that is not YAML, or whose section has the wrong type, is a
    configuration error for every command that reads --config: exit 2 and
    one error line, no traceback, and no store is made."""
    config = tmp_path / "config.yaml"
    config.write_text(document + f"store: {tmp_path / 's'}\n")
    argv = [command, "--config", str(config)]
    argv += {"analyze": ["--artifact", "hops"], "measure": ["--duration", "1"],
             "sim-run": ["--topology", str(FIXTURES / "neighbor.yaml")]}[command]
    assert cli.main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "s").exists()


def test_a_schedule_the_engine_cannot_run_is_one_config_error(tmp_path, capsys):
    """sim-run of a fractional max_ttl stops before it probes: exit 2, one
    error line that names the field, and no store is made."""
    config = write_config(tmp_path, tmp_path / "s")
    config.write_text(config.read_text().replace("max_ttl: 16", "max_ttl: 3.5"))
    assert sim_run(config, 600, 1) == EXIT_CONFIG
    assert capsys.readouterr().err == \
        "error: bad schedule: max_ttl must be an integer, got 3.5\n"
    assert not (tmp_path / "s").exists()


def test_malformed_topology_is_a_topology_error(tmp_path):
    from contrace import sim
    topology = tmp_path / "topology.yaml"
    topology.write_text("routers: {a: [\n")
    with pytest.raises(sim.TopologyError, match=r"^.*topology\.yaml: malformed YAML: line"):
        sim.load_topology(topology)
    topology.write_text("routers: {}\nmeasurement: 5\n")
    with pytest.raises(sim.TopologyError, match="measurement must be a mapping"):
        sim.load_topology(topology)


def test_a_malformed_topology_entry_is_one_config_error(tmp_path, capsys):
    """sim-run of a topology whose link lacks a field: exit 2 and one error
    line that names the link, no traceback, and no store is made."""
    topology = tmp_path / "topology.yaml"
    topology.write_text("routers: {a: {address: 10.0.0.1}}\nlinks: [{from: a, latency_us: 9}]\n")
    assert cli.main(["sim-run", "--topology", str(topology), "--store",
                     str(tmp_path / "s")]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: link 1 needs from, to, latency_us\n"
    assert not (tmp_path / "s").exists()


def test_a_router_address_that_is_not_an_ip_is_one_config_error(tmp_path, capsys):
    """sim-run of a topology whose transit router's address is not an IP
    address: exit 2 and one error line that names the router, before any
    record is stored, so no segment file is written."""
    topology = tmp_path / "topology.yaml"
    topology.write_text(
        "routers:\n"
        "  src: {address: 10.0.0.1}\n"
        "  mid: {address: nonsense}\n"
        "  dst: {address: 10.0.0.3}\n"
        "links:\n"
        "  - {from: src, to: mid, latency_us: 100}\n"
        "  - {from: mid, to: dst, latency_us: 100}\n"
        "measurement:\n"
        "  sources: [{label: A, address: 10.0.0.1}]\n"
        "  destinations: [{label: B, address: 10.0.0.3}]\n"
        "  schedule: {ping_interval_s: 1, traceroute_interval_s: 5}\n")
    store = tmp_path / "s"
    assert cli.main(["sim-run", "--topology", str(topology), "--duration", "20",
                     "--store", str(store)]) == EXIT_CONFIG
    assert capsys.readouterr().err == \
        "error: router mid: address must be an IP address, got 'nonsense'\n"
    assert not list(store.glob("*.ndjson")) + list(store.glob("*.col"))


def test_an_event_that_names_an_unknown_router_is_one_config_error(tmp_path, capsys):
    """sim-run of a topology whose events remove r->b and add r->ghost, a
    router the topology does not have: exit 2 and one error line that names
    the link, before any record is stored, so no segment file is written."""
    topology = tmp_path / "topology.yaml"
    topology.write_text(
        "routers:\n"
        "  s: {address: 10.0.0.1}\n"
        "  r: {address: 10.0.0.2}\n"
        "  b: {address: 10.0.0.3}\n"
        "links:\n"
        "  - {from: s, to: r, latency_us: 100}\n"
        "  - {from: r, to: b, latency_us: 100}\n"
        "events:\n"
        "  - {at: 10, action: remove_link, from: r, to: b}\n"
        "  - {at: 10, action: add_link, from: r, to: ghost, latency_us: 100}\n"
        "measurement:\n"
        "  sources: [{label: A, address: 10.0.0.1}]\n"
        "  destinations: [{label: B, address: 10.0.0.3}]\n"
        "  schedule: {ping_interval_s: 1, traceroute_interval_s: 5}\n")
    store = tmp_path / "s"
    assert cli.main(["sim-run", "--topology", str(topology), "--duration", "20",
                     "--store", str(store)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: link r->ghost references unknown router\n"
    assert not list(store.glob("*.ndjson")) + list(store.glob("*.col"))


@pytest.mark.parametrize("command", ["measure", "sim-run"])
@pytest.mark.parametrize("value", ["inf", "nan", "-5", "1e308", "x"])
def test_bad_duration_is_one_usage_error(tmp_path, capsys, command, value):
    """--duration takes a finite number of seconds, at least 0; any other
    value stops the command before it runs, with argparse's one line."""
    config = write_config(tmp_path, tmp_path / "s")
    argv = [command, "--config", str(config), f"--duration={value}"]
    if command == "sim-run":
        argv += ["--topology", str(FIXTURES / "neighbor.yaml")]
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == (f"contrace {command}: error: argument --duration: must be a "
                       f"finite number of seconds >= 0, got {value!r}")
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("artifact", ["cdf", "hops"])
@pytest.mark.parametrize("start, end", [(5, 5), (6, 5)])
def test_an_empty_time_range_is_one_usage_error(tmp_path, capsys, artifact, start, end):
    """analyze --start S --end E with S >= E stops before the store is
    read, with one error line and exit 2: the store here holds a file of an
    older store, which would fail any read with exit 1."""
    store = tmp_path / "s"
    store.mkdir()
    (store / "ping-5-9.ndjson").write_text("")
    config = write_config(tmp_path, store)
    assert cli.main(["analyze", "--config", str(config), "--artifact", artifact,
                     "--start", str(start), "--end", str(end)]) == EXIT_CONFIG
    assert capsys.readouterr().err == \
        f"error: --start must be less than --end, got {start} and {end}\n"


@pytest.mark.parametrize("artifact, fmt, formats", [
    ("inter-as", "jsn", "text|csv"), ("hops", "dot", "text|csv"),
    ("graph", "text", "dot|geojson|csv"), ("rtt-series", "text", "csv"),
    ("cdf", "", "csv")])
def test_a_format_the_artifact_does_not_write_is_one_usage_error(
        tmp_path, capsys, artifact, fmt, formats):
    """analyze --format names one of the formats its artifact writes; any
    other stops the command before the store is read or --out is written,
    with one error line and exit 2."""
    store = tmp_path / "s"
    store.mkdir()
    (store / "ping-5-9.ndjson").write_text("")
    config = write_config(tmp_path, store)
    out = tmp_path / "out"
    assert cli.main(["analyze", "--config", str(config), "--artifact", artifact,
                     "--relation", "v4:SUNET:Uninett", "--format", fmt,
                     "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == \
        f"error: --artifact {artifact} writes --format {formats}, got {fmt!r}\n"
    assert not out.exists()


def test_a_threshold_is_a_finite_percentage(tmp_path, capsys):
    """analyze --threshold takes a finite percentage from 0 to 100; any
    other value stops the command before the store is read, with
    argparse's one line and exit 2."""
    config = write_config(tmp_path, tmp_path / "s")
    argv = ["analyze", "--config", str(config), "--artifact", "inter-as", "--threshold"]
    for value in ["nan", "inf", "-5", "200", "x"]:
        with pytest.raises(SystemExit) as info:
            cli.main([*argv, value])
        assert info.value.code == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == ("contrace analyze: error: argument --threshold: must be a "
                           f"percentage from 0 to 100, got {value!r}")
    assert not (tmp_path / "s").exists()
    for value in ["0", "2.5", "100"]:
        assert cli.build_parser().parse_args([*argv, value]).threshold == float(value)


def test_zero_duration_is_accepted():
    """measure --duration 0 runs until SIGINT or SIGTERM; sim-run's
    simulates nothing."""
    for command in (["measure"], ["sim-run", "--topology", "t.yaml"]):
        args = cli.build_parser().parse_args([*command, "--config", "c.yaml",
                                              "--duration", "0"])
        assert args.duration == 0


class TestSimRun:
    def test_uses_measurement_section(self, tmp_path, capsys):
        store = tmp_path / "store"
        code = cli.main(["sim-run", "--topology", str(FIXTURES / "neighbor.yaml"),
                         "--duration", "60", "--store", str(store)])
        assert code == EXIT_OK
        assert RecordStore(store).count("ping") == 60

    def test_other_fixtures_smoke(self, tmp_path):
        for name in ("intra_continental.yaml", "inter_continental.yaml"):
            store = tmp_path / name.replace(".yaml", "")
            # cycle k starts at k*300s plus up to 15s jitter; 320s covers two
            code = cli.main(["sim-run", "--topology", str(FIXTURES / name),
                             "--duration", "320", "--store", str(store)])
            assert code == EXIT_OK
            s = RecordStore(store)
            assert s.count("ping") == 320
            assert s.count("traceroute") == 6  # 2 cycles x 3 rounds

    def test_topology_without_measurement_rejected(self, tmp_path, capsys):
        topo = tmp_path / "bare.yaml"
        topo.write_text(
            "routers:\n  a: {address: 10.0.0.1}\n  b: {address: 10.0.0.2}\n"
            "links:\n  - {from: a, to: b, latency_us: 10}\n")
        assert cli.main(["sim-run", "--topology", str(topo)]) == EXIT_CONFIG
        assert capsys.readouterr().err == \
            "error: topology has no measurement section; give --config\n"

    def test_summary_counts_only_this_run_in_a_filled_store(self, tmp_path, capsys):
        store = tmp_path / "store"
        with RecordStore(store) as filled:
            for ts in range(1, 6):
                filled.append(PingRecord(ts, "10.16.1.10", "10.22.2.10", 0))
                filled.append(TracerouteRun(ts, "10.16.1.10", "10.22.2.10", 0,
                                            (Hop(1, 0),)))
        code = cli.main(["sim-run", "--topology", str(FIXTURES / "neighbor.yaml"),
                         "--duration", "600", "--store", str(store)])
        assert code == EXIT_OK
        assert capsys.readouterr().out == \
            f"simulated 600 s: 600 ping, 6 traceroute records -> {store}\n"
        reopened = RecordStore(store)
        assert (reopened.count("ping"), reopened.count("traceroute")) == (605, 11)

    def test_summary_counts_the_runs_writes_after_a_crashed_writer(self, tmp_path, capsys):
        """A crashed writer left a segment whose last line is a whole record
        without its newline; the summary counts only the run's own writes,
        not the records the store held before or its recovery kept."""
        store = tmp_path / "store"
        argv = ["sim-run", "--topology", str(FIXTURES / "neighbor.yaml"),
                "--duration", "60", "--seed", "1", "--store", str(store)]
        assert cli.main(argv) == EXIT_OK
        assert capsys.readouterr().out.startswith("simulated 60 s: 60 ping, ")
        lines = [serialize_line(PingRecord(ts, "10.16.1.10", "10.22.2.10", 0)) for ts in (1, 2)]
        (store / "ping-3.ndjson").write_text(lines[0] + lines[1].rstrip("\n"))
        assert cli.main(argv) == EXIT_OK
        assert capsys.readouterr().out.startswith("simulated 60 s: 60 ping, ")
        assert RecordStore(store).count("ping") == 122

    def test_two_campaigns_into_one_store_keep_every_record(self, tmp_path, capsys):
        store = tmp_path / "store"
        for name in ("neighbor.yaml", "intra_continental.yaml"):
            assert cli.main(["sim-run", "--topology", str(FIXTURES / name),
                             "--duration", "600", "--seed", "1",
                             "--store", str(store)]) == EXIT_OK
        assert capsys.readouterr().out.count("simulated 600 s: 600 ping") == 2
        reopened = RecordStore(store)
        assert (reopened.count("ping"), reopened.count("traceroute")) == (1200, 12)
        assert len(reopened.query(StoreQuery("ping"))) == 1200


class TestImportExport:
    def test_round_trip_equal_stores(self, sim_store, tmp_path, capsys):
        _, _, store_path = sim_store
        out1 = tmp_path / "dump1.ndjson"
        assert cli.main(["export", "--store", str(store_path),
                         "--out", str(out1)]) == EXIT_OK
        second = tmp_path / "second"
        assert cli.main(["import", "--store", str(second), str(out1)]) == EXIT_OK
        out2 = tmp_path / "dump2.ndjson"
        assert cli.main(["export", "--store", str(second),
                         "--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_failed_export_leaves_the_out_file_as_it_was(self, sim_store, tmp_path,
                                                           capsys):
        """export --out FILE writes a file beside FILE and renames it onto
        FILE only when the export succeeds, keeping FILE's mode; a failed
        export leaves FILE's bytes and no other file."""
        _, _, store_path = sim_store
        broken = tmp_path / "broken"
        shutil.copytree(store_path, broken)
        with open(broken / "ping-1.col", "ab") as fp:
            fp.write(b"x")
        out = tmp_path / "dump.ndjson"
        out.write_bytes(b"previous\n")
        out.chmod(0o640)
        assert cli.main(["export", "--store", str(broken), "--out", str(out)]) == EXIT_ERROR
        assert capsys.readouterr().err.endswith("ping-1.col: bytes after the columns\n")
        assert out.read_bytes() == b"previous\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["broken", "dump.ndjson"]
        assert cli.main(["export", "--store", str(store_path)]) == EXIT_OK
        expected = capsys.readouterr().out
        assert cli.main(["export", "--store", str(store_path), "--out", str(out)]) == EXIT_OK
        assert out.read_text() == expected
        assert out.stat().st_mode & 0o777 == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == ["broken", "dump.ndjson"]

    def test_corrupt_line_counts_rejected(self, tmp_path, capsys):
        source = tmp_path / "in.ndjson"
        source.write_text('{"timestamp": 1, "source": "10.0.0.1", '
                          '"destination": "10.0.0.2", "status": 0}\n'
                          "{broken\n")
        code = cli.main(["import", "--store", str(tmp_path / "s"), str(source)])
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert "1 accepted, 1 rejected" in captured.out
        assert "rejected" in captured.err

    @pytest.mark.parametrize("from_stdin", [False, True], ids=["file", "stdin"])
    def test_streamed_import_reports_whole_input_indexes(self, tmp_path, capsys,
                                                         monkeypatch, from_stdin):
        source = tmp_path / "in.ndjson"
        source.write_bytes(MIXED_NDJSON.encode())
        name = str(source)
        if from_stdin:
            name = "-"
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
                io.BytesIO(MIXED_NDJSON.encode()), encoding="utf-8"))
        store = tmp_path / "s"
        assert cli.main(["import", "--store", str(store), name]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == f"{name}: 6 accepted, 2 rejected\n"
        assert [line.split(": rejected: ")[0] for line in captured.err.splitlines()] \
            == [f"{name}:{i + 1}" for i in MIXED_NDJSON_REJECTED]
        assert [r.timestamp for r in RecordStore(store).query(StoreQuery("ping"))] \
            == [1, 2, 3, 4, 5, 6]

    @pytest.mark.parametrize("from_stdin", [False, True], ids=["file", "stdin"])
    def test_line_that_is_not_utf8_is_rejected_by_its_number(self, tmp_path, capsys,
                                                             monkeypatch, from_stdin):
        lines = [serialize_line(PingRecord(ts, "10.0.0.1", "10.0.0.2", 0))
                 for ts in range(1, 302)]
        data = "".join(lines[:300]).encode() + b'{"timestamp": \xff}\n' + \
            lines[300].encode()
        source = tmp_path / "in.ndjson"
        source.write_bytes(data)
        name = str(source)
        if from_stdin:
            name = "-"
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data),
                                                              encoding="utf-8"))
        store = tmp_path / "s"
        assert cli.main(["import", "--store", str(store), name]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == f"{name}: 301 accepted, 1 rejected\n"
        assert captured.err == f"{name}:301: rejected: not UTF-8\n"
        assert [r.timestamp for r in RecordStore(store).query(StoreQuery("ping"))] \
            == list(range(1, 302))

    def test_strict_mode_nonzero_exit(self, tmp_path, capsys):
        source = tmp_path / "in.ndjson"
        source.write_text("{broken\n")
        code = cli.main(["import", "--store", str(tmp_path / "s"),
                         "--strict", str(source)])
        assert code == EXIT_ERROR


class TestAnalyze:
    def test_inter_as_table(self, sim_store, capsys):
        root, config, store_path = sim_store
        code = cli.main(["analyze", "--config", str(config),
                         "--store", str(store_path), "--artifact", "inter-as",
                         "--threshold", "0.1", "--format", "csv"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "IP,From ISP,To ISP,From,To,Mean,Q10%,Q90%,%"
        assert any("1653: SUNET,2603: NORDUNET" in line for line in lines)
        assert any("2603: NORDUNET,224: UNINETT" in line for line in lines)

    def test_inter_country_table(self, sim_store, capsys):
        root, config, store_path = sim_store
        code = cli.main(["analyze", "--config", str(config),
                         "--store", str(store_path), "--artifact", "inter-country",
                         "--format", "csv"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert any(",SE,DK," in line for line in out.splitlines())
        assert any(",SE,NO," in line or ",DK,NO," in line
                   for line in out.splitlines())

    def test_only_crossing_tables_gather_rtts(self, sim_store, capsys, monkeypatch):
        """Grouping by path reads no RTT: hops and graph gather none; only
        the crossing tables of inter-as and inter-country do."""
        _, config, store_path = sim_store
        gathered = []
        rtt_column = PathRuns.rtt_column
        monkeypatch.setattr(PathRuns, "rtt_column", lambda runs, path, position: (
            gathered.append((path, position)) or rtt_column(runs, path, position)))
        calls = {}
        for artifact in ("hops", "graph", "inter-as", "inter-country"):
            assert cli.main(["analyze", "--config", str(config), "--store", str(store_path),
                             "--artifact", artifact]) == EXIT_OK
            calls[artifact], gathered[:] = len(gathered), []
        capsys.readouterr()
        assert calls["hops"] == calls["graph"] == 0
        assert calls["inter-as"] and calls["inter-country"]

    def test_hops_table(self, sim_store, capsys):
        root, config, store_path = sim_store
        code = cli.main(["analyze", "--config", str(config),
                         "--store", str(store_path), "--artifact", "hops",
                         "--format", "csv"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "IP,From ISP,To ISP,Min,Q10%,Mean,Median,Q90%"
        # both route variants of the neighbor fixture are 7 hops long
        assert lines[1] == "IPv4,SUNET,Uninett,7,7.00,7.00,7.00,7.00"

    def test_rtt_series_and_cdf(self, sim_store, capsys):
        root, config, store_path = sim_store
        assert cli.main(["analyze", "--config", str(config),
                         "--store", str(store_path), "--artifact", "rtt-series",
                         "--relation", "v4:SUNET:Uninett"]) == EXIT_OK
        series = capsys.readouterr().out.splitlines()
        assert series[0] == "bucket_start_us,count,mean_ms,min_ms,q10_ms,q90_ms"
        assert len(series) == 2  # 1200 s fits one UTC hour bucket
        assert cli.main(["analyze", "--config", str(config),
                         "--store", str(store_path), "--artifact", "cdf",
                         "--relation", "v4:SUNET:Uninett"]) == EXIT_OK
        cdf = capsys.readouterr().out.splitlines()
        assert cdf[0] == "year,mean_rtt_ms,fraction"
        assert cdf[1].startswith("2021,")

    def test_graph_dot_and_threshold(self, sim_store, tmp_path, capsys):
        root, config, store_path = sim_store
        out = tmp_path / "graph.dot"
        code = cli.main(["analyze", "--config", str(config),
                         "--store", str(store_path), "--artifact", "graph",
                         "--threshold", "0.1", "--format", "dot",
                         "--out", str(out)])
        assert code == EXIT_OK
        doc = out.read_text()
        assert doc.startswith("digraph routes {")
        assert "style=dashed" in doc and "style=solid" in doc

    def test_graph_edges_match_share_oracle(self, sim_store, tmp_path):
        from contrace import analytics
        from contrace.cli import build_enricher, load_config
        root, config_path, store_path = sim_store
        config = load_config(config_path)
        store = RecordStore(store_path)
        relation = config.relations[0]
        runs = store.query(StoreQuery("traceroute",
                                      source=relation.source_address,
                                      destination=relation.destination_address))
        observations = analytics.link_shares(path_runs(runs), relation,
                                             build_enricher(config).enrich)
        for threshold in (2.5, 20.0):
            expected = sum(1 for o in observations if o.share >= threshold)
            export = analytics.export_route_graph(observations, threshold, "csv")
            assert len(export.document.splitlines()) - 1 == expected
        # the ECMP split means the two thresholds select different edge sets
        assert sum(o.share >= 2.5 for o in observations) > \
            sum(o.share >= 20.0 for o in observations) or \
            all(o.share >= 20.0 for o in observations)

    def test_idempotent_output(self, sim_store, tmp_path):
        root, config, store_path = sim_store
        outs = []
        for name in ("x", "y"):
            out = tmp_path / name
            assert cli.main(["analyze", "--config", str(config),
                             "--store", str(store_path), "--artifact", "inter-as",
                             "--format", "csv", "--out", str(out)]) == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("artifact, kind", [("inter-as", "traceroute"),
                                                ("rtt-series", "ping"), ("cdf", "ping")])
    def test_empty_selection_exit(self, sim_store, capsys, artifact, kind):
        root, config, store_path = sim_store
        code = cli.main(["analyze", "--config", str(config),
                         "--store", str(store_path), "--artifact", artifact,
                         "--end", "2"])
        assert code == EXIT_EMPTY
        assert capsys.readouterr() == ("", f"error: no {kind} records match the selection\n")

    @pytest.mark.parametrize("statuses", [(0, 1), (0, 1, 255)], ids=["no-reply", "replies"])
    def test_rtt_series_and_cdf_read_open_and_sealed_segments_alike(self, tmp_path, capsys,
                                                                     statuses):
        """A writer's open NDJSON segment gives the output its sealed
        columnar file gives; pings with no echo reply give the header line
        alone, and exit 0."""
        config = tmp_path / "config.yaml"
        config.write_text('sources:\n  - {label: A, address: "10.0.0.1"}\n'
                          'destinations:\n  - {label: B, address: "10.0.0.2"}\n'
                          f"store: {tmp_path / 'store'}\n")
        outputs = []

        def analyze():
            for artifact in ("rtt-series", "cdf"):
                code = cli.main(["analyze", "--config", str(config), "--artifact", artifact,
                                 "--relation", "v4:A:B"])
                outputs.append((code, capsys.readouterr()))

        with RecordStore(tmp_path / "store") as writer:
            for i in range(600):
                status = statuses[i % len(statuses)]
                writer.append(PingRecord(1_609_459_200_000_000 + i * 15_000_000, "10.0.0.1",
                                         "10.0.0.2", status,
                                         1000 + i % 97 if status == 255 else None))
            analyze()
        assert not list((tmp_path / "store").glob("*.ndjson"))
        analyze()
        assert outputs[:2] == outputs[2:]
        assert all(code == EXIT_OK and captured.err == "" for code, captured in outputs)
        series, cdf = (captured.out.splitlines() for _, captured in outputs[:2])
        if 255 in statuses:
            assert len(series) == 4 and len(cdf) == 4  # three hours, three means
        else:
            assert series == ["bucket_start_us,count,mean_ms,min_ms,q10_ms,q90_ms"]
            assert cdf == ["year,mean_rtt_ms,fraction"]

    def test_corrupt_ping_segment_fails_only_commands_that_read_pings(
            self, sim_store, tmp_path, capsys):
        _, config, store_path = sim_store
        store = tmp_path / "store"
        shutil.copytree(store_path, store)
        [segment] = store.glob("ping-*.col")
        with segment.open("a") as fp:
            fp.write("{not json}\n")
        assert cli.main(["analyze", "--config", str(config), "--store", str(store),
                         "--artifact", "inter-as", "--out",
                         str(tmp_path / "inter-as.txt")]) == EXIT_OK
        for argv in (["analyze", "--config", str(config), "--store", str(store),
                      "--artifact", "rtt-series", "--relation", "v4:SUNET:Uninett"],
                     ["export", "--store", str(store), "--out",
                      str(tmp_path / "dump.ndjson")]):
            assert cli.main(argv) == EXIT_ERROR
            err = capsys.readouterr().err
            assert err.startswith(f"error: {segment}: bytes after the columns")

    @pytest.mark.parametrize("fixture, row", [("as_prefixes.csv", "10.0.0.0/8"),
                                              ("geo.csv", "10.22.2.10,1.0")])
    def test_malformed_enrichment_row_is_one_error_line(self, sim_store, tmp_path,
                                                        capsys, fixture, row):
        _, config, store_path = sim_store
        bad = tmp_path / fixture
        bad.write_text((FIXTURES / fixture).read_text() + row + "\n")
        line = len(bad.read_text().splitlines())
        bad_config = tmp_path / "config.yaml"
        bad_config.write_text(config.read_text().replace(str(FIXTURES / fixture), str(bad)))
        code = cli.main(["analyze", "--config", str(bad_config),
                         "--store", str(store_path), "--artifact", "inter-as"])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}:{line}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("fixture", ["as_prefixes.csv", "geo.csv"])
    def test_enrichment_row_not_utf8_is_one_error_line(self, sim_store, tmp_path,
                                                       capsys, fixture):
        """A second line that starts with the bytes ff fe names its file
        and line, as any malformed row does; hops reads no enrichment file,
        so it still runs."""
        _, config, store_path = sim_store
        first, *rest = (FIXTURES / fixture).read_bytes().splitlines(True)
        bad = tmp_path / fixture
        bad.write_bytes(first + b"\xff\xfe" + b"".join(rest))
        bad_config = tmp_path / "config.yaml"
        bad_config.write_text(config.read_text().replace(str(FIXTURES / fixture), str(bad)))
        for artifact in ("inter-as", "graph"):
            code = cli.main(["analyze", "--config", str(bad_config),
                             "--store", str(store_path), "--artifact", artifact])
            assert code == EXIT_ERROR
            assert capsys.readouterr().err == f"error: {bad}:2: not UTF-8\n"
        assert cli.main(["analyze", "--config", str(bad_config), "--store",
                         str(store_path), "--artifact", "hops"]) == EXIT_OK

    def test_two_labels_for_one_address_each_get_their_rows(self, sim_store,
                                                             tmp_path, capsys):
        """Both relations of one (source, destination) pair are analysed in
        full, though each relation's runs are freed once it is linked."""
        _, config, store_path = sim_store
        sunet = "  - {label: SUNET, address: 10.16.1.10}\n"
        two_labels = tmp_path / "two-labels.yaml"
        two_labels.write_text(config.read_text().replace(
            sunet, sunet + sunet.replace("SUNET", "KAU")))
        for artifact in ("inter-as", "hops"):
            outputs = []
            for path in (config, two_labels):
                assert cli.main(["analyze", "--config", str(path), "--store",
                                 str(store_path), "--artifact", artifact,
                                 "--format", "csv"]) == EXIT_OK
                outputs.append(capsys.readouterr().out.splitlines())
            (header, *rows), got = outputs
            kau = [row.replace(",SUNET,", ",KAU,") for row in rows]
            assert rows and kau != rows
            # crossing rows sort by label, hop rows keep the relation order
            expected = kau + rows if artifact == "inter-as" else rows + kau
            assert got == [header] + expected

    @pytest.mark.parametrize("source, destination", [
        ("2001:DB8::1", "2001:db8:0:0::2"), ("2001:0db8::1", "2001:DB8::0002")])
    def test_non_canonical_config_addresses_match_stored_records(
            self, tmp_path, capsys, source, destination):
        with RecordStore(tmp_path / "store") as store:
            for i in range(3):
                ts = 1_609_459_200_000_000 + i * 300_000_000
                store.append(PingRecord(ts, "2001:db8::1", "2001:db8::2", 255, 1000 + i))
                store.append(TracerouteRun(ts, "2001:db8::1", "2001:db8::2", 0, (
                    Hop(1, 1, "2001:db8::9", 400), Hop(2, 255, "2001:db8::2", 900 + i))))
        outputs = {}
        for spelling, (src, dst) in (("canonical", ("2001:db8::1", "2001:db8::2")),
                                     ("other", (source, destination))):
            config = tmp_path / f"{spelling}.yaml"
            config.write_text(f'sources:\n  - {{label: A, address: "{src}"}}\n'
                              f'destinations:\n  - {{label: B, address: "{dst}"}}\n'
                              f"store: {tmp_path / 'store'}\n")
            for artifact in ("rtt-series", "cdf", "hops", "inter-as"):
                code = cli.main(["analyze", "--config", str(config), "--artifact",
                                 artifact, "--relation", "v6:A:B"])
                outputs[spelling, artifact] = code, capsys.readouterr()
        for artifact in ("rtt-series", "cdf", "hops", "inter-as"):
            assert outputs["other", artifact] == outputs["canonical", artifact]
            assert outputs["other", artifact][0] == EXIT_OK
        assert outputs["other", "hops"][1].out.splitlines()[1].split()[:4] == \
            ["IPv6", "A", "B", "2"]

    def test_unknown_relation_is_config_error(self, sim_store):
        root, config, store_path = sim_store
        assert cli.main(["analyze", "--config", str(config),
                         "--store", str(store_path), "--artifact", "hops",
                         "--relation", "v6:A:B"]) == EXIT_CONFIG


class TestLivePrivileges:
    def test_privilege_error_exit_code(self, tmp_path, capsys):
        def denied(address, clock):
            raise PermissionError("raw socket forbidden")

        class Args:
            config = write_config(tmp_path, tmp_path / "s")
            store = None
            duration = 1.0
            seed = 0

        code = cli.cmd_measure(Args(), transport_factory=denied)
        assert code == EXIT_PRIVILEGE
        assert not (tmp_path / "s").exists() or \
            RecordStore(tmp_path / "s").count() == 0  # no partial corruption


class TestNordicFixtureShares:
    def test_dk_branch_minority_matches_hash_distribution(self, sent_probes):
        """The Copenhagen candidate holds 1 of 4 ECMP slots, so the DK branch
        should appear in exactly the runs whose pinned prefix lands on it."""
        from contrace import sim as simmod
        from contrace.icmp import Family
        from contrace.probe import ProbeSchedule, RelationKey
        topo = simmod.load_topology(FIXTURES / "neighbor.yaml")
        relation = RelationKey(Family.V4, "SUNET", "Uninett",
                               "10.16.1.10", "10.22.2.10")
        schedule = ProbeSchedule(ping_interval_s=3600.0,
                                 traceroute_interval_s=300.0,
                                 traceroute_rounds=3, max_ttl=16,
                                 reply_timeout_s=2.0)
        produced = []
        simmod.run_scenario(topo, [relation], schedule, 3600, seed=11,
                            sink=produced)
        runs = [r for r in produced if hasattr(r, "hops")]
        assert len(runs) == 36  # 12 cycles x 3 rounds

        via_dk = [r for r in runs
                  if any(h.address == "10.26.2.1" for h in r.hops)]
        # derive the expectation from the actual pinned checksums
        traceroute_probes = [data for _, ttl, data in sent_probes if ttl == 1]
        assert len(traceroute_probes) == 36
        expected_dk = sum(
            1 for data in traceroute_probes
            if int.from_bytes(data[:4], "big") % 4 == 3)
        assert len(via_dk) == expected_dk
        assert 0 < len(via_dk) < len(runs) / 2  # minority share


def test_relation_filter_parsing():
    with pytest.raises(cli.ConfigError):
        cli._parse_relation_filter("v4:only-two")
    with pytest.raises(cli.ConfigError):
        cli._parse_relation_filter("v5:a:b")
    assert cli._parse_relation_filter("v6:A:B")[0].value == "v6"


def test_importing_the_cli_leaves_the_command_modules_unloaded():
    """probe, sim, analytics, enrich, legacy and yaml are imported by the
    commands that use them, so a command that does not pays nothing for
    them."""
    deferred = ("contrace.sim", "contrace.analytics", "contrace.enrich", "yaml",
                "contrace.probe", "socket", "select", "contrace.legacy")
    code = f"import sys, contrace.cli; print([m for m in {deferred!r} if m in sys.modules])"
    src = Path(cli.__file__).resolve().parents[1]
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert result.stdout == "[]\n"


def test_store_commands_import_no_probing_code(sim_store, tmp_path):
    """analyze, export and import never load the probe engine, its sockets,
    icmp, dataclasses or logging, rtt-series (as cdf) and hops never load
    enrichment, and no command here loads legacy. Each command runs in a
    process of its own and counts the modules it adds to those loaded
    before `from contrace import cli`, so a module that site preloads
    cannot fail the check. inter-as, export-stray and sim-run show that
    the check sees enrich and each module it rules out but dataclasses,
    which no module imports (test_no_module_imports_dataclasses); a module
    preloaded before the snapshot fails them instead of hiding a
    regression."""
    _, config, store_path = sim_store
    dumped = tmp_path / "dump.ndjson"
    (tmp_path / "stray").mkdir()
    (tmp_path / "stray" / "notes.col").write_bytes(b"")
    commands = {
        "rtt-series": ["analyze", "--config", str(config), "--store", str(store_path),
                       "--artifact", "rtt-series", "--relation", "v4:SUNET:Uninett",
                       "--out", str(tmp_path / "series.csv")],
        "inter-as": ["analyze", "--config", str(config), "--store", str(store_path),
                     "--artifact", "inter-as", "--out", str(tmp_path / "inter-as.txt")],
        "hops": ["analyze", "--config", str(config), "--store", str(store_path),
                 "--artifact", "hops", "--out", str(tmp_path / "hops.txt")],
        "export": ["export", "--store", str(store_path), "--out", str(dumped)],
        "import": ["import", "--store", str(tmp_path / "imported"), str(dumped)],
        "export-stray": ["export", "--store", str(tmp_path / "stray"),
                         "--out", str(tmp_path / "stray.ndjson")],
        "sim-run": ["sim-run", "--topology", str(FIXTURES / "neighbor.yaml"),
                    "--config", str(config), "--duration", "60",
                    "--store", str(tmp_path / "simulated")],
    }
    code = ("import json, sys\nbefore = set(sys.modules)\nfrom contrace import cli\n"
            "code = cli.main(sys.argv[1:])\n"
            "print(json.dumps([code, sorted(set(sys.modules) - before)]))")
    src = Path(cli.__file__).resolve().parents[1]
    added = {}
    for name, argv in commands.items():
        result = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                                text=True, env={**os.environ, "PYTHONPATH": str(src)},
                                check=True)
        exit_code, loaded = json.loads(result.stdout.splitlines()[-1])
        assert exit_code == EXIT_OK, (name, result.stderr)
        added[name] = set(loaded)
    probing = {"contrace.probe", "contrace.sim", "contrace.icmp", "socket", "select"}
    for name in ("rtt-series", "inter-as", "hops", "export", "import"):
        assert not (probing | {"dataclasses", "logging"}) & added[name], name
    for name, loaded in added.items():
        assert "contrace.legacy" not in loaded, name
    assert "contrace.enrich" not in added["rtt-series"]
    assert "contrace.enrich" not in added["hops"]
    assert "contrace.enrich" in added["inter-as"]
    assert "logging" in added["export-stray"]
    assert probing <= added["sim-run"]


def test_no_module_imports_dataclasses():
    """Value types are NamedTuples and mutable state is a plain __slots__
    class: dataclasses costs every command its import and the code it
    generates per class."""
    import ast
    package = Path(cli.__file__).resolve().parent
    importers = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.partition(".")[0] == "dataclasses" for name in names):
                importers.append(path.name)
    assert len(list(package.glob("*.py"))) > 5
    assert importers == []


def test_lazy_logging_still_warns_where_nothing_configured_it(tmp_path):
    """logging is imported at the first warning. A writer that recovers a
    segment with a torn last line still prints the warning on stderr, by
    logging's last-resort handler, in a process where nothing has
    configured logging."""
    store = tmp_path / "store"
    store.mkdir()
    kept, added = (serialize_line(PingRecord(ts, "10.0.0.1", "10.0.0.2", 0)) for ts in (5, 6))
    (store / "ping-1.ndjson").write_text(kept + added[:30])
    src = Path(cli.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", "import sys; from contrace import cli; "
         "sys.exit(cli.main(sys.argv[1:]))", "import", "--store", str(store), "-"],
        input=added, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert result.stderr == f"{store / 'ping-1.ndjson'}: dropped a torn last line of 30 bytes\n"
    dump = io.StringIO()
    RecordStore(store).export(dump)
    assert dump.getvalue() == kept + added


def test_config_and_topology_yaml_parse_alike_with_and_without_libyaml(tmp_path):
    """load_yaml takes libyaml's CSafeLoader when PyYAML has it; every
    shipped YAML file and a generated config parse to the same document
    under it and under the pure-Python SafeLoader."""
    import yaml

    from contrace.config import load_yaml
    texts = {path.name: path.read_text(encoding="utf-8")
             for path in sorted(FIXTURES.glob("*.yaml"))}
    texts["generated"] = write_config(tmp_path, tmp_path / "store").read_text()
    assert len(texts) > 5
    loaders = [yaml.SafeLoader] + ([yaml.CSafeLoader] if hasattr(yaml, "CSafeLoader")
                                   else [])
    for name, text in texts.items():
        documents = [yaml.load(text, Loader=loader) for loader in loaders]
        assert all(document == documents[0] for document in documents), name
        assert load_yaml(text) == documents[0], name
        with (FIXTURES / name).open(encoding="utf-8") if name != "generated" \
                else io.StringIO(text) as fp:
            assert load_yaml(fp) == documents[0], name
