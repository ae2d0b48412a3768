"""Output checks: the program's outputs against values recomputed here.

Every expected value is recomputed from ground truth with exact integer
and Fraction arithmetic; nothing is imported from the package. Integer
quantities must match exactly. A rendered mean or share must lie within
half a unit of its last printed digit, which accepts either rounding of an
exact tie: the benchmark neither fails on nor hides the rendering rule.

Each check returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import json
import math
from datetime import datetime, timezone
from fractions import Fraction

HOUR_US = 3_600_000_000
STATUS_TIMEOUT = 0
STATUS_TIME_EXCEEDED = 1
STATUS_ECHO_REPLY = 255

CROSSING_HEADER = "IP,From ISP,To ISP,From,To,Mean,Q10%,Q90%,%"
HOPS_HEADER = "IP,From ISP,To ISP,Min,Q10%,Mean,Median,Q90%"
GRAPH_HEADER = "from,to,share_percent,inter_as,from_as,to_as"
SERIES_HEADER = "bucket_start_us,count,mean_ms,min_ms,q10_ms,q90_ms"
CDF_HEADER = "year,mean_rtt_ms,fraction"


def nearest_rank(values, num: int, den: int):
    ordered = sorted(values)
    return ordered[max(math.ceil(Fraction(num, den) * len(ordered)), 1) - 1]


def _close(text: str, exact: Fraction, decimals: int) -> bool:
    """True when text renders exact to `decimals` places, either tie rounding."""
    try:
        shown = Fraction(text)
    except ValueError:
        return False
    if len(text.partition(".")[2]) != decimals:
        return False
    return abs(shown - exact) * 2 * 10 ** decimals <= 1


def _compare_rows(what: str, lines: list[str], header: str,
                  expected: list[tuple], decimals: int) -> list[str]:
    """Rows of strings (exact) and Fractions (rendered within tolerance)."""
    if not lines or lines[0] != header:
        return [f"{what}: header {lines[:1]!r} != {header!r}"]
    rows = lines[1:]
    problems = []
    if len(rows) != len(expected):
        problems.append(f"{what}: {len(rows)} rows, expected {len(expected)}")
    for n, (line, want) in enumerate(zip(rows, expected), start=2):
        cells = line.split(",")
        if len(cells) != len(want):
            problems.append(f"{what} line {n}: {len(cells)} cells in {line!r}")
            continue
        for cell, value in zip(cells, want):
            ok = (_close(cell, value, decimals) if isinstance(value, Fraction)
                  else cell == value)
            if not ok:
                problems.append(f"{what} line {n}: {cell!r} where "
                                f"{_show(value)} expected in {line!r}")
                break
    return problems[:5]


def _show(value) -> str:
    return f"{float(value):.6f}" if isinstance(value, Fraction) else repr(value)


# -- ping artifacts -------------------------------------------------------------

def _hour_buckets(pings) -> dict[int, list[int]]:
    """pings: (timestamp, status, rtt) triples."""
    buckets: dict[int, list[int]] = {}
    for ts, status, rtt in pings:
        if status == STATUS_ECHO_REPLY:
            buckets.setdefault(ts // HOUR_US * HOUR_US, []).append(rtt)
    return buckets


def check_rtt_series(text: str, pings) -> list[str]:
    expected = []
    for start, rtts in sorted(_hour_buckets(pings).items()):
        expected.append((str(start), str(len(rtts)),
                         Fraction(sum(rtts), 1000 * len(rtts)),
                         Fraction(min(rtts), 1000),
                         Fraction(nearest_rank(rtts, 1, 10), 1000),
                         Fraction(nearest_rank(rtts, 9, 10), 1000)))
    return _compare_rows("rtt-series", text.splitlines(), SERIES_HEADER, expected, 2)


def check_cdf(text: str, pings) -> list[str]:
    by_year: dict[int, list[Fraction]] = {}
    for start, rtts in _hour_buckets(pings).items():
        year = datetime.fromtimestamp(start // 1_000_000, timezone.utc).year
        by_year.setdefault(year, []).append(Fraction(sum(rtts), 1000 * len(rtts)))
    expected = []
    for year in sorted(by_year):
        means = sorted(by_year[year])
        for i, value in enumerate(means):
            if i + 1 < len(means) and means[i + 1] == value:
                continue
            expected.append((str(year), value, Fraction(i + 1, len(means))))
    return _compare_rows("cdf", text.splitlines(), CDF_HEADER, expected, 6)


# -- traceroute artifacts ---------------------------------------------------------
#
# A relation is (ip, from label, to label, runs); a run is a sequence of
# (hop, address, status, rtt) tuples.

def _links(hops):
    for a, b in zip(hops, hops[1:]):
        if a[2] != STATUS_TIMEOUT and b[2] != STATUS_TIMEOUT:
            yield a[1], b[1], b[0], b[3]


def expected_crossings(relations, group_of, threshold: Fraction) -> list[tuple]:
    rows = []
    for ip, src, dst, runs in relations:
        crossings: dict[tuple[str, str], dict[int, tuple[int, int]]] = {}
        for index, hops in enumerate(runs):
            for frm, to, hop, rtt in _links(hops):
                gf, gt = group_of(frm), group_of(to)
                if gf is None or gt is None or gf == gt:
                    continue
                per_run = crossings.setdefault((gf, gt), {})
                if index not in per_run or hop < per_run[index][0]:
                    per_run[index] = (hop, rtt)
        for (gf, gt), per_run in crossings.items():
            share = Fraction(100 * len(per_run), len(runs))
            if share < threshold:
                continue
            rtts = [rtt for _hop, rtt in per_run.values()]
            rows.append(((ip, src, dst, -share, gf, gt),
                         (ip, src, dst, gf, gt,
                          Fraction(sum(rtts), 1000 * len(rtts)),
                          Fraction(nearest_rank(rtts, 1, 10), 1000),
                          Fraction(nearest_rank(rtts, 9, 10), 1000), share)))
    rows.sort(key=lambda row: row[0])
    return [cells for _key, cells in rows]


def check_crossings(what: str, text: str, relations, group_of,
                    threshold: Fraction = Fraction(1, 10)) -> list[str]:
    expected = expected_crossings(relations, group_of, threshold)
    return _compare_rows(what, text.splitlines(), CROSSING_HEADER, expected, 2)


def check_hops(text: str, relations) -> list[str]:
    expected = []
    for ip, src, dst, runs in relations:
        counts = [next(h[0] for h in hops if h[2] == STATUS_ECHO_REPLY)
                  for hops in runs if any(h[2] == STATUS_ECHO_REPLY for h in hops)]
        if not counts:
            continue
        expected.append((ip, src, dst, str(min(counts)),
                         Fraction(nearest_rank(counts, 1, 10)),
                         Fraction(sum(counts), len(counts)),
                         Fraction(nearest_rank(counts, 1, 2)),
                         Fraction(nearest_rank(counts, 9, 10))))
    return _compare_rows("hops", text.splitlines(), HOPS_HEADER, expected, 2)


def check_graph(text: str, relations, asn_of, as_group_of,
                threshold: Fraction) -> list[str]:
    """Edges are the per-relation links whose share reaches the threshold."""
    edges = []
    for _ip, _src, _dst, runs in relations:
        seen: dict[tuple[str, str], set[int]] = {}
        for index, hops in enumerate(runs):
            for frm, to, _hop, _rtt in _links(hops):
                seen.setdefault((frm, to), set()).add(index)
        for (frm, to), indices in sorted(seen.items()):
            share = Fraction(100 * len(indices), len(runs))
            if share >= threshold:
                edges.append((frm, to, share,
                              "true" if asn_of(frm) != asn_of(to) else "false",
                              as_group_of(frm) or "", as_group_of(to) or ""))
    edges.sort(key=lambda e: (e[0], e[1]))
    return _compare_rows("graph", text.splitlines(), GRAPH_HEADER, edges, 2)


def check_export(exported: str, dump: str) -> list[str]:
    if exported == dump:
        return []
    got, want = exported.splitlines(), dump.splitlines()
    for n, (a, b) in enumerate(zip(got, want), start=1):
        if a != b:
            return [f"export line {n} differs from the dump: {a[:120]!r}"]
    return [f"export has {len(got)} lines, the dump {len(want)}"]


# -- simulator campaign ---------------------------------------------------------

def parse_export(text: str) -> tuple[list[dict], list[dict]]:
    pings, runs = [], []
    for line in text.splitlines():
        doc = json.loads(line)
        (runs if "hops" in doc else pings).append(doc)
    return pings, runs


def run_hops(doc: dict) -> tuple:
    return tuple((h["hop"], h.get("address"), h["status"], h.get("rtt"))
                 for h in doc["hops"])


def check_campaign(pings: list[dict], runs: list[dict], net, duration_s: int,
                   ping_interval_s: int, cycles: int, rounds: int) -> list[str]:
    """Schedule arithmetic, ping RTTs and single-branch traceroute runs.

    With crafting on, every probe of a run carries one checksum, so the
    responsive hops of a run must all lie on one ECMP branch, each at its
    exact simulated RTT; only the rate-limited router may stay silent.
    """
    problems = []
    address_of = {name: r.address for name, r in net.routers.items()}
    branches = range(len(net.branches))
    by_pair_pings: dict[tuple[str, str], list[dict]] = {}
    by_pair_runs: dict[tuple[str, str], list[dict]] = {}
    for doc in pings:
        by_pair_pings.setdefault((doc["source"], doc["destination"]), []).append(doc)
    for doc in runs:
        by_pair_runs.setdefault((doc["source"], doc["destination"]), []).append(doc)
    for i, j in net.relations():
        pair = (address_of[net.sources[i]], address_of[net.destinations[j]])
        paths = [[(address_of[n], n, cum) for n, cum in net.path(i, j, b)]
                 for b in branches]
        rel_pings = by_pair_pings.get(pair, [])
        if len(rel_pings) != duration_s // ping_interval_s:
            problems.append(f"{pair}: {len(rel_pings)} pings, expected "
                            f"{duration_s // ping_interval_s}")
        rtts = {2 * path[-1][2] for path in paths}
        bad = [p for p in rel_pings
               if p["status"] != STATUS_ECHO_REPLY or p.get("rtt") not in rtts]
        if bad:
            problems.append(f"{pair}: {len(bad)} pings off every branch RTT, "
                            f"first {bad[0]}")
        rel_runs = by_pair_runs.get(pair, [])
        if sorted(r["round"] for r in rel_runs) != sorted(list(range(rounds)) * cycles):
            problems.append(f"{pair}: rounds {sorted(r['round'] for r in rel_runs)} "
                            f"do not make {cycles} cycles of {rounds}")
        for doc in rel_runs:
            if not any(_on_branch(run_hops(doc), path, net.rate_limited)
                       for path in paths):
                problems.append(f"{pair}: run at {doc['timestamp']} is on no "
                                f"single branch: {doc['hops']}")
                break
    return problems[:10]


def _on_branch(hops, path, rate_limited: str) -> bool:
    if len(hops) != len(path):
        return False
    for (hop, address, status, rtt), (want, node, cum) in zip(hops, path):
        terminal = hop == len(path)
        if status == STATUS_TIMEOUT:
            if node != rate_limited:
                return False
        elif (address != want or rtt != 2 * cum
              or status != (STATUS_ECHO_REPLY if terminal else STATUS_TIME_EXCEEDED)):
            return False
    return True


def sim_run_counts(stdout: str) -> tuple[int, int] | None:
    """(pings, traceroute runs) from sim-run's summary line."""
    words = stdout.split()
    try:
        return (int(words[words.index("ping,") - 1]),
                int(words[words.index("traceroute") - 1]))
    except (ValueError, IndexError):
        return None
