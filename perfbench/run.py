"""contrace benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; --workload all (the default) runs the three
workloads in turn. Every program command runs in a process of its own,
`python3 perfbench/launch.py ...` with PYTHONPATH=src, which calls the
`contrace` entry point as an operator's `contrace` does and records the
process's peak RSS; commands run one at a time. All inputs are generated from
--seed in .perfbench-work/; the program receives only the generated files.
Every output is checked against ground truth (checks.py). The last line of
stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`; it is also written to the work directory as result.json.

Workloads (why each exists is in BENCHMARK.json):

  campaign        timed: `sim-run` of an 8 x 4 relation topology for 10
                  simulated minutes into a fresh store, then `analyze hops`
                  and `export` of that store. Set-up: a 60 s smoke sim-run.
  archive-narrow  set-up: `import` of a ping-dense dump (16 relations, 100
                  pings per traceroute run). Timed: `analyze rtt-series`,
                  `cdf`, and `inter-as` in a --start/--end window, all for
                  one relation, then `export`.
  archive-full    set-up: `import` of a traceroute-dense dump (16 relations,
                  a day of 5-minute cycles of 3 rounds, sparse pings).
                  Timed: `analyze --relation all` for inter-as,
                  inter-country, hops and graph, then `export` twice.

One repetition is the workload's timed command sequence. Repetitions run
while another fits in --seconds, and each end-to-end metric is the median
over repetitions (set-up metrics: over three set-ups).

Command times are wall times at a reference machine speed. The host is
shared, and its speed drifts by tens of percent over seconds and minutes,
so a fixed piece of Python work (calib.py) runs in its own process before
and after each command. A command's time is its wall time times
CALIBRATION_REF_S over the mean wall time of those two calibrations. The
printed `command` lines show both times.

Every workload reports every metric, so each has one meaning on all three:

  setup_s                 time of the set-up command (import, or the smoke
                          sim-run)
  setup_peak_rss_mb       its peak RSS
  records_per_s           campaign: records sim-run wrote per second of its
                          time; archive-*: store records per second of timed
                          command time (each command reads the whole store
                          today)
  analyze_s               summed time of the analyze commands
  export_records_per_s    records written by export per second of its time
  peak_rss_mb             largest peak RSS among the commands the workload
                          is about: sim-run on campaign (its in-memory
                          records and send log), the analyze commands on
                          archive-* (store open and query); export has
                          export_records_per_s
  store_bytes_per_record  bytes in the store directory per record

failed_share (failed / attempted commands) is printed with the metrics and
carried by the `attempted` and `failed` fields. It is not a metric, because
it is 0 on a correct program.

With --trace 1, untraced repetitions alternate with repetitions whose
commands run under tracer.py. The untraced ones give the per-artifact
times, and the difference of the two medians is the tracing overhead.
Per-layer counts and times describe one set-up plus one repetition (traced
repetitions are averaged). A layer a workload never calls reports 0.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import checks
import dumpgen
import netgen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
LAUNCH = Path(__file__).resolve().parent / "launch.py"
TRACER = Path(__file__).resolve().parent / "tracer.py"
CALIB = Path(__file__).resolve().parent / "calib.py"

SETUP_REPEATS = 3
STARTUP_PROBES = 5
COMMAND_TIMEOUT_S = 150
# Median wall time of calib.py on the 2-vCPU shared host the benchmark was
# tuned on; command times are reported at this calibration speed.
CALIBRATION_REF_S = 0.33

Check = Callable[[str], list[str]]  # output text -> problems found

END_TO_END = {
    "setup_s": "s",
    "setup_peak_rss_mb": "MB",
    "records_per_s": "records/s",
    "analyze_s": "s",
    "export_records_per_s": "records/s",
    "peak_rss_mb": "MB",
    "store_bytes_per_record": "B/record",
}

ARTIFACTS = ("rtt-series", "cdf", "inter-as", "inter-country", "hops", "graph")

PER_LAYER = {
    "icmp.make_request_bytes.calls": "count",
    "icmp.make_request_bytes.us_per_call": "us",
    "icmp.decode_message.calls": "count",
    "icmp.decode_message.us_per_call": "us",
    "icmp.reply_encode.us_per_call": "us",
    "sim.forward.calls": "count",
    "sim.forward.us_per_call": "us",
    "sim.forward.hops_per_call": "hops",
    "sim.response_for.us_per_call": "us",
    "sim.drive_workers.self_s": "s",
    "sim.polls_per_event": "ratio",
    "probe.on_packet.calls": "count",
    "probe.on_wakeup.calls": "count",
    "probe.self_s": "s",
    "probe.probes_per_record": "ratio",
    "records.append.calls": "count",
    "records.append.us_per_call": "us",
    "records.import.records_per_s": "records/s",
    "records.open.s": "s",
    "records.open.us_per_record": "us/record",
    "records.open.bytes_per_record": "B/record",
    "records.query.calls": "count",
    "records.query.us_per_call": "us",
    "records.query.returned": "count",
    "records.query.held_per_returned": "ratio",
    "records.export.records_per_s": "records/s",
    "records.segments": "count",
    "enrich.calls": "count",
    "enrich.distinct": "count",
    "enrich.hit_ratio": "ratio",
    "enrich.asn_lookup.calls": "count",
    "enrich.geo_resolve.calls": "count",
    "enrich.us_per_miss": "us",
    "analytics.link_shares.s": "s",
    "analytics.link_shares.us_per_run": "us/run",
    "analytics.crossing_table.s": "s",
    "analytics.hop_count_stats.s": "s",
    "analytics.export_route_graph.s": "s",
    "analytics.bucket_rtt_series.s": "s",
    "analytics.bucket_rtt_series.us_per_record": "us/record",
    "analytics.mean_rtt_cdf.s": "s",
    "analytics.format.s": "s",
    "cli.startup_s": "s",
    "cli.load_config.s": "s",
    "cli.build_enricher.s": "s",
    "cli.cmd_analyze.self_s": "s",
    **{f"cli.analyze.{artifact}.s": "s" for artifact in ARTIFACTS},
    "trace.overhead_s": "s",
}


# -- running program commands -------------------------------------------------

@dataclass(slots=True)
class Proc:
    label: str
    wall_s: float
    ref_s: float  # wall_s at the reference calibration speed
    rss_mb: float
    stdout: Path
    stderr: Path
    trace: Path | None
    failed: bool = False

    @property
    def ok(self) -> bool:
        return not self.failed


class Harness:
    """Runs program commands, times them and keeps the failure count."""

    def __init__(self, work: Path):
        self.work = work
        self.logs = work / "logs"
        self.logs.mkdir(parents=True)
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._traces = 0
        self._verdicts: dict[tuple[str, str], list[str]] = {}
        self.calibrations: list[float] = []  # wall s of each calib.py run

    def _spawn(self, cmd: list[str], stdout: Path, stderr: Path) -> tuple[float, int]:
        """(wall s, exit code) of one child process."""
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env,
                                    cwd=self.work)
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status = os.waitpid(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        return wall, code

    def calibrate(self) -> float:
        self.calibrations.append(self.python("calibrate", [str(CALIB)]))
        return self.calibrations[-1]

    def command(self, label: str, args: list[str], *, traced: bool = False) -> Proc:
        """Run `contrace ARGS`; a non-zero exit counts as a failure.

        calib.py runs just before and just after the command (the one after
        also serves the next command). The shared host's speed drifts by
        tens of percent over seconds and minutes, alike for both; ref_s is
        the command's wall time times CALIBRATION_REF_S over the mean of the
        two calibrations, which cancels that drift.
        """
        self.attempted += 1
        rss_out = self.logs / f"{label}.rss"
        rss_out.unlink(missing_ok=True)
        cmd = [sys.executable, str(LAUNCH), str(rss_out)]
        trace = None
        if traced:
            self._traces += 1
            trace = self.work / f"trace-{self._traces}.json"
            cmd += ["--trace", str(trace)]
        stdout, stderr = self.logs / f"{label}.out", self.logs / f"{label}.err"
        before = self.calibrations[-1] if self.calibrations else self.calibrate()
        wall, code = self._spawn([*cmd, "--", *args], stdout, stderr)
        after = self.calibrate()
        rss = int(rss_out.read_text()) / 1024.0 if rss_out.exists() else 0.0
        proc = Proc(label, wall, wall * CALIBRATION_REF_S * 2 / (before + after),
                    rss, stdout, stderr, trace)
        print(f"command {label:<22} {wall:9.4f} s wall {proc.ref_s:9.4f} s ref "
              f"(calibration {before:.4f} {after:.4f} s) {rss:8.1f} MB exit {code}",
              flush=True)
        if code != 0:
            tail = stderr.read_text(errors="replace").strip().splitlines()[-3:]
            self.fail(proc, [f"exit code {code}: {' | '.join(tail)}"])
        return proc

    def python(self, label: str, args: list[str]) -> float:
        """Wall time of a helper Python process (not a program command)."""
        wall, code = self._spawn([sys.executable, *args],
                                 self.logs / f"{label}.out",
                                 self.logs / f"{label}.err")
        if code != 0:
            raise RuntimeError(f"{label} exited {code}")
        return wall

    def fail(self, proc: Proc, problems: list[str]) -> None:
        if not problems:
            return
        if not proc.failed:
            proc.failed = True
            self.failed += 1
        self.problems += [f"{proc.label}: {p}" for p in problems]

    def verify(self, proc: Proc, output: Path, check) -> None:
        """Apply check(text) to the output of a command that exited cleanly.

        The program is deterministic, so output identical to an earlier
        repetition's gets that verdict again without recomputing it.
        """
        if not proc.ok:
            return
        text = output.read_text(encoding="utf-8")
        key = (proc.label, text)
        if key not in self._verdicts:
            try:
                self._verdicts[key] = check(text)
            except Exception as exc:  # malformed output must not stop the run
                self._verdicts[key] = [f"check raised {exc!r}"]
        self.fail(proc, self._verdicts[key])


def store_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def line_count(path: Path) -> int:
    with open(path, "rb") as fp:
        return sum(1 for _ in fp)


@dataclass(slots=True)
class Rep:
    procs: list[Proc]
    records: int
    store_bytes: int
    records_per_s: float
    exported: int
    rss_mb: float  # the workload's peak_rss_mb

    def walls(self, prefix: str) -> float:
        """Summed ref_s of the commands whose label starts with prefix."""
        return sum(p.ref_s for p in self.procs if p.label.startswith(prefix))

    @property
    def export_records_per_s(self) -> float:
        exports = sum(p.label == "export" for p in self.procs)
        return self.exported * exports / self.walls("export")


# -- workloads ------------------------------------------------------------------

class Workload:
    name = ""
    store = Path()

    def __init__(self, h: Harness, seed: int):
        self.h = h
        self.seed = seed

    def setup(self, traced: bool) -> Proc:
        raise NotImplementedError

    def rep(self, traced: bool) -> Rep:
        raise NotImplementedError

    def analyze(self, artifact: str, *extra: str, traced: bool) -> tuple[Proc, Path]:
        out = self.h.work / f"{artifact}.csv"
        proc = self.h.command(
            f"analyze-{artifact}",
            ["analyze", "--config", "config.yaml", "--store", str(self.store),
             "--artifact", artifact, *extra, "--out", str(out)], traced=traced)
        return proc, out

    def export(self, traced: bool) -> tuple[Proc, Path, int]:
        out = self.h.work / "export.ndjson"
        proc = self.h.command("export", ["export", "--store", str(self.store),
                                         "--out", str(out)], traced=traced)
        return proc, out, (line_count(out) if proc.ok else 0)

    def relations(self, runs_of) -> list[tuple]:
        """Check input: (ip, from label, to label, runs) in config order."""
        net = self.net
        return [("IPv4", net.source_label(i), net.destination_label(j), runs_of(n))
                for n, (i, j) in enumerate(net.relations())]


class Campaign(Workload):
    name = "campaign"
    SHAPE = dict(sources=8, destinations=4, ecmp_width=2, core_length=4)
    DURATION_S = 600
    SMOKE_S = 60
    SCHEDULE = {"ping_interval_s": 1, "traceroute_interval_s": 300,
                "traceroute_rounds": 3, "max_ttl": 24, "reply_timeout_s": 3.0}

    def __init__(self, h: Harness, seed: int):
        super().__init__(h, seed)
        self.net = netgen.build_network(seed, **self.SHAPE)
        netgen.write_inputs(self.net, h.work, schedule=self.SCHEDULE)
        self.store = h.work / "store"
        address = {n: r.address for n, r in self.net.routers.items()}
        self.pairs = [(address[self.net.sources[i]], address[self.net.destinations[j]])
                      for i, j in self.net.relations()]

    def _expected_counts(self, duration_s: int) -> tuple[int, int]:
        relations = len(self.net.relations())
        cycles = -(-duration_s // self.SCHEDULE["traceroute_interval_s"])
        return (relations * duration_s // self.SCHEDULE["ping_interval_s"],
                relations * cycles * self.SCHEDULE["traceroute_rounds"])

    def _sim_run(self, label: str, store: Path, duration_s: int, traced: bool) -> Proc:
        shutil.rmtree(store, ignore_errors=True)
        proc = self.h.command(label, ["sim-run", "--topology", "topology.yaml",
                                      "--duration", str(duration_s), "--seed",
                                      str(self.seed), "--store", str(store)],
                              traced=traced)
        want = self._expected_counts(duration_s)
        self.h.verify(proc, proc.stdout, lambda text: [] if checks.sim_run_counts(
            text) == want else [f"summary {text.strip()!r}, expected {want}"])
        return proc

    def _check_export(self, text: str) -> list[str]:
        """Campaign checks; keeps the exported runs for the hops check."""
        pings, runs = checks.parse_export(text)
        self._runs = {}
        for doc in runs:
            self._runs.setdefault((doc["source"], doc["destination"]),
                                  []).append(checks.run_hops(doc))
        schedule = self.SCHEDULE
        return checks.check_campaign(
            pings, runs, self.net, self.DURATION_S, schedule["ping_interval_s"],
            self.DURATION_S // schedule["traceroute_interval_s"],
            schedule["traceroute_rounds"])

    def setup(self, traced: bool) -> Proc:
        return self._sim_run("setup-sim-run", self.h.work / "smoke-store",
                             self.SMOKE_S, traced)

    def rep(self, traced: bool) -> Rep:
        sim_run = self._sim_run("sim-run", self.store, self.DURATION_S, traced)
        hops, hops_out = self.analyze("hops", "--format", "csv", traced=traced)
        export, export_out, exported = self.export(traced)
        self.h.verify(export, export_out, self._check_export)
        if export.ok:  # the hops check reads the exported runs
            self.h.verify(hops, hops_out, lambda text: checks.check_hops(
                text, self.relations(lambda n: self._runs.get(self.pairs[n], []))))
        # A failed export is already counted; the schedule's count stands in.
        records = exported or sum(self._expected_counts(self.DURATION_S))
        return Rep([sim_run, hops, export], records, store_bytes(self.store),
                   records / sim_run.ref_s, exported, sim_run.rss_mb)


class Archive(Workload):
    SHAPE = dict(sources=4, destinations=4, ecmp_width=3, core_length=4)
    SPEC: dumpgen.ArchiveSpec
    EXPORTS = 1  # export commands per repetition

    def __init__(self, h: Harness, seed: int):
        super().__init__(h, seed)
        self.net = netgen.build_network(seed, **self.SHAPE)
        netgen.write_inputs(self.net, h.work)
        self.archive = dumpgen.generate(self.net, self.SPEC, seed)
        self.dump = h.work / "dump.ndjson"
        self.dump.write_text(self.archive.text, encoding="utf-8")
        self.records = len(self.archive.pings) + len(self.archive.runs)
        self.store = h.work / "store"
        self._routers = {r.address: r for r in self.net.routers.values()}

    def setup(self, traced: bool) -> Proc:
        shutil.rmtree(self.store, ignore_errors=True)
        proc = self.h.command("setup-import", ["import", "--store", str(self.store),
                                               str(self.dump)], traced=traced)
        want = f"{self.dump}: {self.records} accepted, 0 rejected"
        self.h.verify(proc, proc.stdout, lambda text: [] if text.strip() == want
                      else [f"summary {text.strip()!r}, expected {want!r}"])
        return proc

    def analyses(self) -> list[tuple[str, tuple[str, ...], Check]]:
        """(artifact, further analyze arguments, check of its output) for
        each timed analyze command, in order."""
        raise NotImplementedError

    def rep(self, traced: bool) -> Rep:
        procs = []
        for artifact, extra, check in self.analyses():
            proc, out = self.analyze(artifact, *extra, traced=traced)
            self.h.verify(proc, out, check)
            procs.append(proc)
        rss_mb = max(p.rss_mb for p in procs)
        for _ in range(self.EXPORTS):
            export, out, exported = self.export(traced)
            self.h.verify(export, out,
                          lambda text: checks.check_export(text, self.archive.text))
            procs.append(export)
        return Rep(procs, self.records, store_bytes(self.store),
                   self.records * len(procs) / sum(p.ref_s for p in procs),
                   exported, rss_mb)

    def runs(self, relation: int, start=None, end=None) -> list[tuple]:
        return [tuple((h.hop, h.address, h.status, h.rtt) for h in run.hops)
                for run in self.archive.relation_runs(relation, start, end)]

    def as_group(self, address: str) -> str | None:
        return self.net.as_group(self._routers[address].name)

    def asn(self, address: str) -> int | None:
        return self._routers[address].asn

    def country(self, address: str) -> str | None:
        return self._routers[address].located_country


class ArchiveNarrow(Archive):
    name = "archive-narrow"
    # 2021-12-31T20:00Z: the 8.3 h span crosses a year, so the CDF has two.
    SPEC = dumpgen.ArchiveSpec(start_us=1_640_980_800_000_000,
                               pings_per_relation=3000, ping_interval_s=10,
                               cycles=10, cycle_interval_s=3000)

    def __init__(self, h: Harness, seed: int):
        super().__init__(h, seed)
        relations = self.net.relations()
        self.relation = random.Random(f"perfbench-narrow:{seed}").randrange(
            len(relations))
        i, j = relations[self.relation]
        self.selector = (f"v4:{self.net.source_label(i)}:"
                     f"{self.net.destination_label(j)}")
        stamps = [r.timestamp for r in self.archive.relation_runs(self.relation)]
        span = stamps[-1] - stamps[0]
        self.window = (stamps[0] + span // 4, stamps[0] + 3 * span // 4)

    def analyses(self):
        pings = [(p.timestamp, p.status, p.rtt)
                 for p in self.archive.relation_pings(self.relation)]
        start, end = self.window
        i, j = self.net.relations()[self.relation]
        selected = [("IPv4", self.net.source_label(i), self.net.destination_label(j),
                     self.runs(self.relation, start, end))]
        relation = ("--relation", self.selector)
        return [
            ("rtt-series", relation,
             lambda text: checks.check_rtt_series(text, pings)),
            ("cdf", relation, lambda text: checks.check_cdf(text, pings)),
            ("inter-as", (*relation, "--start", str(start), "--end", str(end),
                          "--format", "csv"),
             lambda text: checks.check_crossings("inter-as", text, selected,
                                                 self.as_group)),
        ]


class ArchiveFull(Archive):
    name = "archive-full"
    SPEC = dumpgen.ArchiveSpec(start_us=netgen.START_US, pings_per_relation=288,
                               ping_interval_s=300, cycles=288, cycle_interval_s=300)
    GRAPH_THRESHOLD = "2.5"
    # A repetition takes about 10 s, so a run holds two or three; a second
    # export per repetition halves the noise of export_records_per_s.
    EXPORTS = 2

    def __init__(self, h: Harness, seed: int):
        super().__init__(h, seed)
        self.all_relations = self.relations(self.runs)

    def analyses(self):
        relations = self.all_relations
        csv = ("--format", "csv")
        return [
            ("inter-as", csv, lambda text: checks.check_crossings(
                "inter-as", text, relations, self.as_group)),
            ("inter-country", csv, lambda text: checks.check_crossings(
                "inter-country", text, relations, self.country)),
            ("hops", csv, lambda text: checks.check_hops(text, relations)),
            ("graph", ("--threshold", self.GRAPH_THRESHOLD, *csv),
             lambda text: checks.check_graph(text, relations, self.asn, self.as_group,
                                             Fraction(self.GRAPH_THRESHOLD))),
        ]


WORKLOADS = {w.name: w for w in (Campaign, ArchiveNarrow, ArchiveFull)}


# -- metrics ---------------------------------------------------------------------

def end_to_end(setups: list[Proc], reps: list[Rep]) -> dict:
    med = statistics.median
    return {
        "setup_s": med(s.ref_s for s in setups),
        "setup_peak_rss_mb": med(s.rss_mb for s in setups),
        "records_per_s": med(r.records_per_s for r in reps),
        "analyze_s": med(r.walls("analyze") for r in reps),
        "export_records_per_s": med(r.export_records_per_s for r in reps),
        "peak_rss_mb": med(r.rss_mb for r in reps),
        "store_bytes_per_record": med(r.store_bytes / r.records for r in reps),
    }


class Trace:
    """Span aggregates of traced commands: set-up once plus the mean rep."""

    def __init__(self):
        self.by_name: dict[str, list[float]] = {}
        self.counts: dict[str, float] = {}
        self.addresses: set[str] = set()

    def add(self, procs: list[Proc], scale: float) -> None:
        for proc in procs:
            if proc.trace is None or not proc.trace.exists():
                continue
            doc = json.loads(proc.trace.read_text())
            for name, values in doc["by_name"].items():
                agg = self.by_name.setdefault(name, [0.0, 0.0, 0.0])
                for k, v in enumerate(values):
                    agg[k] += v * scale
            for name, value in doc["counts"].items():
                self.counts[name] = self.counts.get(name, 0.0) + value * scale
            self.addresses.update(doc["distinct_addresses"])

    def calls(self, name: str) -> float:
        return self.by_name.get(name, [0.0])[0]

    def total_s(self, name: str) -> float:
        return self.by_name.get(name, [0.0, 0.0])[1] / 1e9

    def self_s(self, name: str) -> float:
        return self.by_name.get(name, [0.0, 0.0, 0.0])[2] / 1e9

    def count(self, name: str) -> float:
        return self.counts.get(name, 0.0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(t: Trace, *, startup_s: float, open_bytes: dict, segments: int,
              artifact_walls: dict[str, float], overhead_s: float) -> dict:
    def us_per_call(name):
        return _ratio(t.total_s(name) * 1e6, t.calls(name))

    probe_spans = ("probe.on_packet", "probe.on_wakeup", "probe.next_wakeup")
    misses = t.count("enrich.misses")
    return {
        "icmp.make_request_bytes.calls": t.calls("icmp.make_request_bytes"),
        "icmp.make_request_bytes.us_per_call": us_per_call("icmp.make_request_bytes"),
        "icmp.decode_message.calls": t.calls("icmp.decode_message"),
        "icmp.decode_message.us_per_call": us_per_call("icmp.decode_message"),
        "icmp.reply_encode.us_per_call": us_per_call("icmp.reply_encode"),
        "sim.forward.calls": t.calls("sim.forward"),
        "sim.forward.us_per_call": us_per_call("sim.forward"),
        "sim.forward.hops_per_call": _ratio(t.count("sim.forward.hops"),
                                            t.calls("sim.forward")),
        "sim.response_for.us_per_call": us_per_call("sim.response_for"),
        "sim.drive_workers.self_s": t.self_s("sim.drive_workers"),
        "sim.polls_per_event": _ratio(
            t.calls("probe.next_wakeup"),
            t.calls("probe.on_packet") + t.calls("probe.on_wakeup")),
        "probe.on_packet.calls": t.calls("probe.on_packet"),
        "probe.on_wakeup.calls": t.calls("probe.on_wakeup"),
        "probe.self_s": sum(t.self_s(n) for n in probe_spans),
        "probe.probes_per_record": _ratio(t.calls("sim.forward"),
                                          t.calls("records.append")),
        "records.append.calls": t.calls("records.append"),
        "records.append.us_per_call": us_per_call("records.append"),
        "records.import.records_per_s": _ratio(t.count("records.import.accepted"),
                                               t.total_s("records.import")),
        "records.open.s": t.total_s("records.open"),
        "records.open.us_per_record": _ratio(t.total_s("records.open") * 1e6,
                                             t.count("records.open.records")),
        "records.open.bytes_per_record": _ratio(open_bytes["peak_bytes"],
                                                open_bytes["records"]),
        "records.query.calls": t.calls("records.query"),
        "records.query.us_per_call": us_per_call("records.query"),
        "records.query.returned": t.count("records.query.returned"),
        "records.query.held_per_returned": _ratio(t.count("records.query.held"),
                                                  t.count("records.query.returned")),
        "records.export.records_per_s": _ratio(t.count("records.export.records"),
                                               t.total_s("records.export")),
        "records.segments": segments,
        "enrich.calls": t.calls("enrich"),
        "enrich.distinct": len(t.addresses),
        "enrich.hit_ratio": 1.0 - _ratio(misses, t.calls("enrich")),
        "enrich.asn_lookup.calls": t.calls("enrich.asn_lookup"),
        "enrich.geo_resolve.calls": t.calls("enrich.geo_resolve"),
        "enrich.us_per_miss": _ratio(t.count("enrich.miss_ns") / 1e3, misses),
        "analytics.link_shares.s": t.total_s("analytics.link_shares"),
        "analytics.link_shares.us_per_run": _ratio(
            t.total_s("analytics.link_shares") * 1e6,
            t.count("analytics.link_shares.runs")),
        "analytics.crossing_table.s": t.total_s("analytics.crossing_table"),
        "analytics.hop_count_stats.s": t.total_s("analytics.hop_count_stats"),
        "analytics.export_route_graph.s": t.total_s("analytics.export_route_graph"),
        "analytics.bucket_rtt_series.s": t.total_s("analytics.bucket_rtt_series"),
        "analytics.bucket_rtt_series.us_per_record": _ratio(
            t.total_s("analytics.bucket_rtt_series") * 1e6,
            t.count("analytics.bucket_rtt_series.records")),
        "analytics.mean_rtt_cdf.s": t.total_s("analytics.mean_rtt_cdf"),
        "analytics.format.s": t.total_s("analytics.format"),
        "cli.startup_s": startup_s,
        "cli.load_config.s": t.total_s("cli.load_config"),
        "cli.build_enricher.s": t.total_s("cli.build_enricher"),
        "cli.cmd_analyze.self_s": t.self_s("cli.cmd_analyze"),
        **{f"cli.analyze.{a}.s": artifact_walls[a] for a in ARTIFACTS},
        "trace.overhead_s": overhead_s,
    }


# -- running a workload ------------------------------------------------------------

def repeat(fn, seconds: float) -> list:
    """Call fn at least once, and again while another call fits in `seconds`."""
    results, start = [], time.monotonic()
    while True:
        results.append(fn())
        elapsed = time.monotonic() - start
        if elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def run_untraced(workload: Workload, seconds: float) -> dict:
    setups = [workload.setup(traced=False) for _ in range(SETUP_REPEATS)]
    reps = repeat(lambda: workload.rep(traced=False), seconds)
    return end_to_end(setups, reps)


def run_traced(workload: Workload, seconds: float) -> dict:
    """Per-layer metrics; untraced and traced repetitions alternate."""
    h = workload.h
    med = statistics.median
    setup = workload.setup(traced=True)
    startup_s = med(h.python("startup", ["-c", "import contrace.cli"])
                    for _ in range(STARTUP_PROBES))
    pairs = repeat(lambda: (workload.rep(traced=False), workload.rep(traced=True)),
                   seconds)
    plain, traced = [p for p, _ in pairs], [t for _, t in pairs]
    probe_out = h.work / "open-bytes.json"
    h.python("open-bytes", [str(TRACER), "--open-bytes", str(workload.store),
                            str(probe_out)])
    trace = Trace()
    trace.add([setup], 1.0)
    for rep in traced:
        trace.add(rep.procs, 1.0 / len(traced))
    artifact_walls = {a: med(r.walls(f"analyze-{a}") for r in plain)
                      for a in ARTIFACTS}
    return per_layer(
        trace, startup_s=startup_s,
        open_bytes=json.loads(probe_out.read_text()),
        segments=len(list(workload.store.glob("*.ndjson"))),
        artifact_walls=artifact_walls,
        overhead_s=med(r.walls("") for r in traced) - med(r.walls("") for r in plain))


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload, print its metrics and return the result object,
    which is also written to .perfbench-work/<workload>-trace<n>/result.json."""
    work = WORK / f"{name}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    h = Harness(work)
    h.python("warmup", ["-c", "import contrace.cli"])  # byte-compile once
    workload = WORKLOADS[name](h, seed)
    started = time.monotonic()
    if trace:
        metrics, units = run_traced(workload, seconds), PER_LAYER
    else:
        metrics, units = run_untraced(workload, seconds), END_TO_END

    for problem in h.problems:
        print(f"CHECK FAILED {problem}")
    print(f"# {name} seed={seed} trace={trace} "
          f"wall={time.monotonic() - started:.1f}s calibration median "
          f"{statistics.median(h.calibrations):.4f} s (reference "
          f"{CALIBRATION_REF_S} s) over {len(h.calibrations)} runs")
    for metric, value in metrics.items():
        print(f"{metric:<45} {value:>16.6f} {units[metric]}")
    print(f"{'failed_share':<45} {h.failed / h.attempted:>16.6f} ratio "
          f"({h.failed} of {h.attempted} commands)")
    result = {"correct": h.failed == 0, "attempted": h.attempted,
              "failed": h.failed,
              "metrics": {metric: {"value": value, "unit": units[metric]}
                          for metric, value in metrics.items()}}
    (work / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *sorted(WORKLOADS)])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "contrace" / "cli.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    # One CPU for this process and every child it starts, so a command and
    # the calibrations around it gauge the same CPU's speed.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
