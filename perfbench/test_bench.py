"""Self-tests of the benchmark: input determinism, checks, metric names.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import dumpgen  # noqa: E402
import netgen  # noqa: E402
import run  # noqa: E402
from contrace import cli  # noqa: E402


def _generated(seed: int, directory: Path) -> dict[str, bytes]:
    campaign = netgen.build_network(seed, **run.Campaign.SHAPE)
    netgen.write_inputs(campaign, directory / "campaign",
                        schedule=run.Campaign.SCHEDULE)
    archive_net = netgen.build_network(seed, **run.Archive.SHAPE)
    netgen.write_inputs(archive_net, directory / "archive")
    for cls in (run.ArchiveNarrow, run.ArchiveFull):
        text = dumpgen.generate(archive_net, cls.SPEC, seed).text
        (directory / f"{cls.name}.ndjson").write_text(text)
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path):
    first = _generated(7, tmp_path / "a")
    again = _generated(7, tmp_path / "b")
    other = _generated(8, tmp_path / "c")
    assert first == again
    assert first.keys() == other.keys()
    for name in ("campaign/topology.yaml", "campaign/geo.csv", "archive/geo.csv",
                 "archive-narrow.ndjson", "archive-full.ndjson"):
        assert first[name] != other[name], name


# -- checks against real program output, then corrupted ------------------------

SMALL_SHAPE = dict(sources=2, destinations=2, ecmp_width=3, core_length=4)
SMALL_SPEC = dumpgen.ArchiveSpec(start_us=1_640_991_600_000_000,  # 23:00 UTC
                                 pings_per_relation=400, ping_interval_s=20,
                                 cycles=24, cycle_interval_s=300)


class SmallNarrow(run.ArchiveNarrow):
    SHAPE, SPEC = SMALL_SHAPE, SMALL_SPEC


class SmallFull(run.ArchiveFull):
    SHAPE, SPEC = SMALL_SHAPE, SMALL_SPEC


def _cli(*args) -> None:
    assert cli.main([str(a) for a in args]) == 0


@pytest.fixture(scope="module")
def archive_outputs(tmp_path_factory):
    """Real program outputs for the analyses both archive workloads run on a
    small archive, each with the workload's own check: {file: (text, check)}."""
    work = tmp_path_factory.mktemp("archive")
    h = run.Harness(work)
    narrow, full = SmallNarrow(h, 3), SmallFull(h, 3)  # same network and dump
    _cli("import", "--store", full.store, full.dump)
    outputs = {}
    for workload in (narrow, full):
        for artifact, extra, check in workload.analyses():
            out = work / f"{workload.name}-{artifact}.csv"
            _cli("analyze", "--config", work / "config.yaml", "--store",
                 workload.store, "--artifact", artifact, *extra, "--out", out)
            outputs[out.name] = (out.read_text(), check)
    _cli("export", "--store", full.store, "--out", work / "export.ndjson")
    return work, full.archive, outputs


def _change_digit(text: str) -> str:
    """Bump the last digit of the last data line."""
    lines = text.splitlines(keepends=True)
    line = lines[-1]
    i = max(m.start() for m in re.finditer(r"\d", line))
    lines[-1] = line[:i] + str((int(line[i]) + 1) % 10) + line[i + 1:]
    return "".join(lines)


def _drop_line(text: str) -> str:
    lines = text.splitlines(keepends=True)
    return "".join(lines[:1] + lines[2:])


def test_archive_checks_pass_then_catch_corruption(archive_outputs):
    _work, _archive, outputs = archive_outputs
    assert len(outputs) == 7
    for name, (text, check) in outputs.items():
        assert len(text.splitlines()) > 2, name
        assert check(text) == [], name
        assert check(_change_digit(text)), name
        assert check(_drop_line(text)), name


def test_export_check_catches_corruption(archive_outputs):
    work, archive, _outputs = archive_outputs
    exported = (work / "export.ndjson").read_text()
    assert checks.check_export(exported, archive.text) == []
    for corrupt in (_change_digit(exported), _drop_line(exported)):
        assert checks.check_export(corrupt, archive.text)


def test_tolerance_accepts_either_rounding_of_a_tie():
    tie = Fraction(1015, 1000)
    assert checks._close("1.01", tie, 2) and checks._close("1.02", tie, 2)
    assert not checks._close("1.03", tie, 2)
    assert not checks._close("1.0", Fraction(1), 2)


def test_campaign_checks_pass_then_catch_corruption(tmp_path):
    shape = dict(sources=2, destinations=2, ecmp_width=2, core_length=4)
    net = netgen.build_network(4, **shape)
    netgen.write_inputs(net, tmp_path, schedule=run.Campaign.SCHEDULE)
    store, export = tmp_path / "store", tmp_path / "export.ndjson"
    _cli("sim-run", "--topology", tmp_path / "topology.yaml", "--duration", 600,
         "--seed", 4, "--store", store)
    _cli("export", "--store", store, "--out", export)
    text = export.read_text()

    def check(ndjson: str):
        pings, runs = checks.parse_export(ndjson)
        return checks.check_campaign(pings, runs, net, 600, 1, 2, 3)

    assert check(text) == []
    first_ping = next(i for i, line in enumerate(text.splitlines())
                      if '"hops"' not in line)
    lines = text.splitlines(keepends=True)
    lines[first_ping] = _change_digit(lines[first_ping])
    assert check("".join(lines))
    assert check(_drop_line(text))
    assert checks.sim_run_counts(
        "simulated 60 s: 1920 ping, 96 traceroute records -> store") == (1920, 96)


def test_peak_rss_is_the_commands_own(tmp_path):
    """A command's peak RSS must not carry this process's peak, as the
    ru_maxrss of wait4 would."""
    ballast = bytearray(120 * 1024 * 1024)
    for i in range(0, len(ballast), 4096):
        ballast[i] = 1
    proc = run.Harness(tmp_path).command("help", ["--help"])
    assert proc.ok and 5 < proc.rss_mb < 60, proc.rss_mb


def test_command_time_is_scaled_by_the_adjacent_calibrations(tmp_path, monkeypatch):
    h = run.Harness(tmp_path)
    calibrations = iter([0.2, 0.4, 0.6])
    monkeypatch.setattr(h, "python", lambda label, args: next(calibrations))
    monkeypatch.setattr(h, "_spawn", lambda cmd, out, err: (1.5, 0))
    first, second = h.command("a", ["--help"]), h.command("b", ["--help"])
    assert h.calibrations == [0.2, 0.4, 0.6]
    assert first.wall_s == second.wall_s == 1.5
    assert first.ref_s == pytest.approx(1.5 * run.CALIBRATION_REF_S / 0.3)
    assert second.ref_s == pytest.approx(1.5 * run.CALIBRATION_REF_S / 0.5)


# -- metric names -----------------------------------------------------------------

def _declared(kind: str) -> dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


def test_declared_metrics_match_the_code():
    assert run.END_TO_END == _declared("end_to_end")
    assert run.PER_LAYER == _declared("per_layer")
    workloads = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert {w["name"] for w in workloads} == set(run.WORKLOADS)


def _copied_benchmark(tmp_path: Path) -> Path:
    """The benchmark copied into tmp_path, so runs leave the real work
    directory alone."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_the_declared_ones(trace, kind, tmp_path):
    root = _copied_benchmark(tmp_path)
    (root / "src").symlink_to(ROOT / "src")
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=170, check=True)
    doc = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == _declared(kind)
    for name in _declared(kind):
        assert f"{name} " in result.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=_copied_benchmark(tmp_path), capture_output=True, text=True,
        timeout=170)
    assert result.returncode != 0
    assert '"metrics"' not in result.stdout
