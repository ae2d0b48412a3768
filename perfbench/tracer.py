"""Spans at layer boundaries of one `contrace` command, and the open probe.

traced_main(OUT, argv), which `launch.py --trace OUT` calls, wraps the
public entry points of each module from outside the package (nothing under
src/ changes), runs `contrace.cli.main`, and at exit writes OUT with
per-span-name calls, total and self time plus the counters the per-layer
metrics need; the raw spans (name id, parent index, start ns, end ns) go to
OUT.spans as native int64 words. Self time is a span's duration minus the
time its child spans cover.

    python3 perfbench/tracer.py --open-bytes STORE OUT.json

measures the tracemalloc peak while `RecordStore(STORE)` opens, in a
process of its own so allocation tracing never slows a timed span.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc
from array import array
from collections import Counter


class Tracer:
    """In-memory span recorder with per-name aggregates kept on the fly."""

    def __init__(self):
        self.spans = array("q")
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.total_ns: list[int] = []
        self.self_ns: list[int] = []
        self.stack: list[list[int]] = []  # [span index, child ns]
        self.counts: Counter = Counter()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_ns.append(0)
            self.self_ns.append(0)
        return self._ids[name]

    def wrap(self, owner, attr: str, name: str, after=None, before=None) -> None:
        """Replace owner.attr by a spanning wrapper.

        before(args) runs ahead of the call and its value is handed to
        after(args, result, before_value, duration_ns), which runs once the
        span has closed.
        """
        original = getattr(owner, attr)
        nid = self.name_id(name)
        spans, stack = self.spans, self.stack
        calls, total_ns, self_ns = self.calls, self.total_ns, self.self_ns
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            pre = before(args) if before is not None else None
            index = len(spans) >> 2
            frame = [index, 0]
            spans.extend((nid, stack[-1][0] if stack else -1, 0, 0))
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                spans[4 * index + 2] = start
                spans[4 * index + 3] = end
                calls[nid] += 1
                total_ns[nid] += duration
                self_ns[nid] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if after is not None:
                after(args, result, pre, duration)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)

    def summary(self) -> dict:
        return {"spans": len(self.spans) // 4, "names": self.names,
                "by_name": {n: [self.calls[i], self.total_ns[i], self.self_ns[i]]
                            for i, n in enumerate(self.names)},
                "counts": dict(self.counts)}


def install(tracer: Tracer) -> dict[int, set[str]]:
    """Wrap the entry points of icmp, sim, probe, records, enrich,
    analytics and cli; returns the addresses enriched, per Enricher."""
    from contrace import analytics, cli, enrich, icmp, probe, records, sim

    counts = tracer.counts
    w = tracer.wrap

    w(icmp, "make_request_bytes", "icmp.make_request_bytes")
    w(icmp, "decode_message", "icmp.decode_message")
    w(icmp, "reply_bytes_for_request", "icmp.reply_encode")
    w(icmp, "encode_time_exceeded", "icmp.reply_encode")

    def count_hops(args, outcome, _pre, _ns):
        counts["sim.forward.hops"] += len(outcome.path)

    w(sim.SimNetwork, "forward", "sim.forward", after=count_hops)
    w(sim.SimNetwork, "response_for", "sim.response_for")
    w(sim, "drive_workers", "sim.drive_workers")

    w(probe.SourceWorker, "on_packet", "probe.on_packet")
    w(probe.SourceWorker, "on_wakeup", "probe.on_wakeup")
    w(probe.SourceWorker, "next_wakeup", "probe.next_wakeup")

    store_cls = records.RecordStore

    def count_open(args, _result, _pre, _ns):
        counts["records.open.records"] += args[0].count()

    def count_query(args, result, _pre, _ns):
        counts["records.query.returned"] += len(result)
        counts["records.query.held"] += args[0].count(args[1].kind)

    def count_import(args, result, _pre, _ns):
        counts["records.import.accepted"] += result[0]

    def count_export(args, result, _pre, _ns):
        counts["records.export.records"] += result

    w(store_cls, "__init__", "records.open", after=count_open)
    w(store_cls, "append", "records.append")
    w(store_cls, "query", "records.query", after=count_query)
    w(store_cls, "import_json", "records.import", after=count_import)
    w(store_cls, "export", "records.export", after=count_export)

    # An Enricher caches every address for its lifetime, so the first call
    # per address and instance is the miss.
    seen: dict[int, set[str]] = {}

    def enrich_before(args):
        per_instance = seen.setdefault(id(args[0]), set())
        miss = args[1] not in per_instance
        per_instance.add(args[1])
        return miss

    def enrich_after(args, _result, miss, duration):
        if miss:
            counts["enrich.misses"] += 1
            counts["enrich.miss_ns"] += duration

    w(enrich.Enricher, "enrich", "enrich", after=enrich_after, before=enrich_before)
    w(enrich.AsnTable, "lookup", "enrich.asn_lookup")
    w(enrich.GeoResolver, "resolve", "enrich.geo_resolve")

    def count_runs(args, _result, _pre, _ns):
        counts["analytics.link_shares.runs"] += len(args[0])

    def count_pings(args, _result, _pre, _ns):
        counts["analytics.bucket_rtt_series.records"] += len(args[0])

    w(analytics, "link_shares", "analytics.link_shares", after=count_runs)
    w(analytics, "crossing_table", "analytics.crossing_table")
    w(analytics, "hop_count_stats", "analytics.hop_count_stats")
    w(analytics, "export_route_graph", "analytics.export_route_graph")
    w(analytics, "bucket_rtt_series", "analytics.bucket_rtt_series",
      after=count_pings)
    w(analytics, "mean_rtt_cdf", "analytics.mean_rtt_cdf")
    for name in ("format_crossing_table", "format_hop_stats",
                 "format_bucket_series", "format_cdf"):
        w(analytics, name, "analytics.format")

    w(cli, "load_config", "cli.load_config")
    w(cli, "build_enricher", "cli.build_enricher")
    w(cli, "cmd_analyze", "cli.cmd_analyze")
    return seen


def traced_main(out: str, argv: list[str]) -> int:
    tracer = Tracer()
    enriched = install(tracer)
    from contrace import cli
    try:
        return cli.main(argv)
    finally:
        summary = tracer.summary()
        summary["distinct_addresses"] = sorted(
            set().union(*enriched.values()))
        with open(out, "w", encoding="utf-8") as fp:
            json.dump(summary, fp)
        with open(out + ".spans", "wb") as fp:
            tracer.spans.tofile(fp)


def _open_bytes(store: str, out: str) -> int:
    from contrace.records import RecordStore
    tracemalloc.start()
    opened = RecordStore(store)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    with open(out, "w", encoding="utf-8") as fp:
        json.dump({"records": opened.count(), "peak_bytes": peak}, fp)
    return 0


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--open-bytes":
        return _open_bytes(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
