import io
import json
import shutil
from pathlib import Path

import pytest

from contrace import cli
from contrace.cli import (EXIT_CONFIG, EXIT_EMPTY, EXIT_ERROR, EXIT_OK,
                          EXIT_PRIVILEGE)
from contrace.records import (Hop, PingRecord, RecordStore, StoreQuery,
                              TracerouteRun, serialize_line)
from conftest import MIXED_NDJSON, MIXED_NDJSON_REJECTED

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


@pytest.fixture(scope="module")
def sim_store(tmp_path_factory):
    """One 20-minute simulated campaign on the neighbor fixture."""
    root = tmp_path_factory.mktemp("simstore")
    store_path = root / "store"
    config = write_config(root, store_path)
    code = cli.main(["measure", "--config", str(config), "--mode", "sim",
                     "--topology", str(FIXTURES / "neighbor.yaml"),
                     "--duration", "1200", "--seed", "7"])
    assert code == EXIT_OK
    return root, config, store_path


class TestMeasureSim:
    def test_deterministic_store_contents(self, tmp_path, capsys):
        outputs = []
        for name in ("a", "b"):
            store = tmp_path / name
            config = write_config(tmp_path, store)
            code = cli.main(["measure", "--config", str(config), "--mode", "sim",
                             "--topology", str(FIXTURES / "neighbor.yaml"),
                             "--duration", "120", "--seed", "3"])
            assert code == EXIT_OK
            with RecordStore(store) as s:
                lines = []
                for record in s.iter_canonical():
                    lines.append(serialize_line(record))
            outputs.append("".join(lines))
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
        assert cli.main(["measure", "--config", str(config), "--mode", "sim"]) \
            == EXIT_CONFIG

    def test_address_not_in_topology_is_config_error(self, tmp_path):
        config = tmp_path / "config.yaml"
        config.write_text(
            "sources: [{label: X, address: 192.0.2.1}]\n"
            "destinations: [{label: Y, address: 192.0.2.2}]\n"
            "store: s\n")
        assert cli.main(["measure", "--config", str(config), "--mode", "sim",
                         "--topology", str(FIXTURES / "neighbor.yaml"),
                         "--duration", "10"]) == EXIT_CONFIG

    def test_bad_config_rejected(self, tmp_path):
        config = tmp_path / "config.yaml"
        config.write_text("sources: []\ndestinations: []\n")
        assert cli.main(["measure", "--config", str(config)]) == EXIT_CONFIG


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

    def test_topology_without_measurement_rejected(self, tmp_path):
        topo = tmp_path / "bare.yaml"
        topo.write_text(
            "routers:\n  a: {address: 10.0.0.1}\n  b: {address: 10.0.0.2}\n"
            "links:\n  - {from: a, to: b, latency_us: 10}\n")
        assert cli.main(["sim-run", "--topology", str(topo)]) == EXIT_CONFIG

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
        observations = analytics.link_shares(runs, relation,
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

    def test_empty_selection_exit(self, sim_store, capsys):
        root, config, store_path = sim_store
        code = cli.main(["analyze", "--config", str(config),
                         "--store", str(store_path), "--artifact", "inter-as",
                         "--end", "2"])
        assert code == EXIT_EMPTY

    def test_corrupt_ping_segment_fails_only_commands_that_read_pings(
            self, sim_store, tmp_path, capsys):
        _, config, store_path = sim_store
        store = tmp_path / "store"
        shutil.copytree(store_path, store)
        [segment] = store.glob("ping-*.ndjson")
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
            assert err.startswith(f"error: {segment}:1201: invalid JSON")

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
        config = cli.load_config(write_config(tmp_path, tmp_path / "s"))

        def denied(address, clock):
            raise PermissionError("raw socket forbidden")

        class Args:
            duration = 1.0
            seed = 0

        code = cli._measure_live(config, Args(), transport_factory=denied)
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
