"""Statistics over measurement records: RTT series, CDFs, crossings, graphs.

They read columns, never a record per row: RTT series and CDFs bucket
PingColumns' (timestamp, rtt) pairs by UTC hour; traceroute analytics read
PathRuns.

Quantiles are nearest-rank throughout: the sorted sample at 1-based index
ceil(p*n), computed in exact integer arithmetic so results match brute-force
oracles bit for bit. RTT outputs are milliseconds (mean = integer microsecond
sum divided once); table renderings round half-even to two decimals.
"""

from __future__ import annotations

import ipaddress
import json
import math
from datetime import datetime, timezone
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from .records import STATUS_ECHO_REPLY, STATUS_TIMEOUT, PathRuns, PingColumns

if TYPE_CHECKING:  # annotations only: rtt-series and cdf never load enrich
    from .config import RelationKey
    from .enrich import EnrichedHop

HOUR_US = 3_600_000_000

GROUP_BY_AS = "as"
GROUP_BY_COUNTRY = "country"


def nearest_rank(ordered: Sequence, num: int, den: int):
    """Nearest-rank quantile p = num/den of an already sorted sample.

    Index arithmetic stays in integers: ceil(p*n) = ceil(num*n / den).
    """
    n = len(ordered)
    if n == 0:
        raise ValueError("quantile of an empty sample")
    idx = -(-num * n // den)  # ceil for positive integers
    return ordered[max(idx, 1) - 1]


def _stats_ms(samples_us: Sequence[int]) -> tuple[float, float, float]:
    """(mean, q10, q90) of integer microsecond samples, in milliseconds."""
    ordered = sorted(samples_us)
    mean = (sum(ordered) / len(ordered)) / 1000.0
    q10 = nearest_rank(ordered, 1, 10) / 1000.0
    q90 = nearest_rank(ordered, 9, 10) / 1000.0
    return mean, q10, q90


class RttBucketStats(NamedTuple):
    bucket_start_us: int
    count: int
    mean_ms: float
    min_ms: float
    q10_ms: float
    q90_ms: float


def bucket_rtt_series(pings: PingColumns) -> list[RttBucketStats]:
    """Per-hour RTT statistics over the echo replies among pings, the
    pings with an rtt (>= 0).

    Buckets align to UTC hour boundaries, multiples of HOUR_US since the
    epoch; empty buckets produce no entry.
    """
    buckets: dict[int, list[int]] = {}
    for times, rtts in pings.blocks:
        for timestamp, rtt in zip(times, rtts):
            if rtt >= 0:
                buckets.setdefault(timestamp // HOUR_US * HOUR_US, []).append(rtt)
    series = []
    for start in sorted(buckets):
        samples = buckets[start]
        mean, q10, q90 = _stats_ms(samples)
        series.append(RttBucketStats(start, len(samples), mean,
                                     min(samples) / 1000.0, q10, q90))
    return series


def _year_of(us: int) -> int:
    return datetime.fromtimestamp(us // 1_000_000, timezone.utc).year


def mean_rtt_cdf(pings: PingColumns) -> dict[int, list[tuple[float, float]]]:
    """Per-calendar-year empirical CDF over hourly-bucket mean RTTs, each
    from an exact integer RTT sum and count, the hour's only state.

    Steps are (x in ms, fraction of bucket means <= x); y rises to 1.0.
    """
    sums: dict[int, int] = {}
    counts: dict[int, int] = {}
    for times, rtts in pings.blocks:
        for timestamp, rtt in zip(times, rtts):
            if rtt >= 0:
                hour = timestamp // HOUR_US
                sums[hour] = sums.get(hour, 0) + rtt
                counts[hour] = counts.get(hour, 0) + 1
    by_year: dict[int, list[float]] = {}
    for hour, total in sums.items():
        by_year.setdefault(_year_of(hour * HOUR_US), []).append(total / counts[hour] / 1000.0)
    out: dict[int, list[tuple[float, float]]] = {}
    for year in sorted(by_year):
        means = sorted(by_year[year])
        n = len(means)  # a step at each distinct mean, its last rank
        out[year] = [(value, (i + 1) / n) for i, value in enumerate(means)
                     if i + 1 == n or means[i + 1] != value]
    return out


class LinkObservation:
    """One directed router-level link of one relation, and the runs whose
    path holds it; a link seen twice in one run counts once, keeping shares
    per-run observation fractions.

    positions maps each such path (an index into runs.paths) to the
    position, among the path's responsive hops, of the link's
    destination-side router at the link's earliest occurrence, so
    runs.rtt_column(path, position) gathers that router's RTTs in those
    runs. Only crossing_table gathers them; a link itself holds no RTT.
    """

    __slots__ = ("relation", "from_hop", "to_hop", "runs", "runs_observed", "positions")

    def __init__(self, relation: RelationKey, from_hop: EnrichedHop, to_hop: EnrichedHop,
                 runs: PathRuns):
        self.relation = relation
        self.from_hop = from_hop
        self.to_hop = to_hop
        self.runs = runs
        self.runs_observed = 0
        self.positions: dict[int, int] = {}

    @property
    def runs_total(self) -> int:
        return len(self.runs)

    @property
    def share(self) -> float:
        return 100.0 * self.runs_observed / self.runs_total


def _path_links(path) -> list[tuple[str, str, int]]:
    """(from, to, position of to among the responsive hops) for each pair
    of consecutive responsive hops of a path. An unresponsive hop breaks
    the chain: no link is inferred across it."""
    links = []
    previous = None
    position = -1
    for _hop, status, address in path:
        if status == STATUS_TIMEOUT:
            previous = None
            continue
        position += 1
        if previous is not None:
            links.append((previous, address, position))
        previous = address
    return links


def link_shares(runs: PathRuns, relation: RelationKey,
                enricher: Callable[[str], EnrichedHop]) -> list[LinkObservation]:
    """Directed link observations for one relation's runs, worked out once
    per distinct path: a link's runs_observed is the sum of the run counts
    of the paths that hold it.

    runs_total counts every run, including fully unresponsive ones, so the
    published shares are lower bounds.
    """
    observations: dict[tuple[str, str], LinkObservation] = {}
    for index, (path, count) in enumerate(zip(runs.paths, runs.counts)):
        for frm, to, position in _path_links(path):
            obs = observations.get((frm, to))
            if obs is None:
                obs = LinkObservation(relation, enricher(frm), enricher(to), runs)
                observations[(frm, to)] = obs
            if index not in obs.positions:  # positions rise along a path
                obs.positions[index] = position
                obs.runs_observed += count
    return [observations[key] for key in sorted(observations)]


class CrossingRow(NamedTuple):
    ip_version: str
    from_isp: str
    to_isp: str
    from_group: str
    to_group: str
    mean_rtt_ms: float
    q10_rtt_ms: float
    q90_rtt_ms: float
    share: float


def _group_key(hop: EnrichedHop, group_by: str) -> str | None:
    if group_by == GROUP_BY_AS:
        return hop.as_group
    if group_by == GROUP_BY_COUNTRY:
        return hop.country
    raise ValueError(f"unknown grouping {group_by!r}")


def crossing_table(observations: Sequence[LinkObservation], group_by: str,
                   threshold_percent: float = 0.1) -> list[CrossingRow]:
    """Inter-group crossings (AS or country) with destination-side RTTs.

    A run observes a crossing when any of its links leaves one group for
    another; per run the RTT sample is taken at the earliest hop entering
    the destination group. That hop is found once per path, and each run of
    the path gives one RTT lookup. Hops the grouping cannot attribute
    contribute nothing. Rows under the share threshold are dropped;
    ordering is relation, then share descending.
    """
    merged: dict[tuple, tuple[LinkObservation, dict[int, int]]] = {}
    for obs in observations:
        from_group = _group_key(obs.from_hop, group_by)
        to_group = _group_key(obs.to_hop, group_by)
        if from_group is None or to_group is None or from_group == to_group:
            continue
        key = (obs.relation, from_group, to_group)
        first, earliest = merged.setdefault(key, (obs, {}))
        for path, position in obs.positions.items():
            known = earliest.get(path)
            if known is None or position < known:
                earliest[path] = position
    rows = []
    for (relation, from_group, to_group), (first, earliest) in merged.items():
        samples = []
        for path, position in earliest.items():
            samples += first.runs.rtt_column(path, position)
        share = 100.0 * len(samples) / first.runs_total
        if share < threshold_percent:
            continue
        mean, q10, q90 = _stats_ms(samples)
        rows.append(CrossingRow(relation.ip_version.display, relation.source_id,
                                relation.destination_id, from_group, to_group,
                                mean, q10, q90, share))
    rows.sort(key=lambda r: (r.ip_version, r.from_isp, r.to_isp, -r.share,
                             r.from_group, r.to_group))
    return rows


class HopCountStats(NamedTuple):
    ip_version: str
    from_isp: str
    to_isp: str
    min: int
    q10: float
    mean: float
    median: float
    q90: float


def _weighted_nearest_rank(ordered: Sequence[tuple[int, int]], n: int,
                           num: int, den: int) -> int:
    """nearest_rank of the sample holding each value of ordered (sorted
    (value, weight) pairs, n weights in all) weight times."""
    rank = max(-(-num * n // den), 1)
    for value, weight in ordered:
        rank -= weight
        if rank <= 0:
            return value
    raise ValueError("quantile of an empty sample")


def hop_count_stats(runs: PathRuns, relation: RelationKey) -> HopCountStats | None:
    """Path-length statistics over runs that reached the destination: runs
    whose last hop is the echo reply (a valid run has at most one, last).
    Each path's terminal hop counts once per run of the path."""
    weights: dict[int, int] = {}
    for path, count in zip(runs.paths, runs.counts):
        hop, status, _address = path[-1]
        if status == STATUS_ECHO_REPLY:
            weights[hop] = weights.get(hop, 0) + count
    if not weights:
        return None
    ordered = sorted(weights.items())
    n = sum(weights.values())
    return HopCountStats(
        relation.ip_version.display, relation.source_id, relation.destination_id,
        ordered[0][0],
        float(_weighted_nearest_rank(ordered, n, 1, 10)),
        sum(hop * count for hop, count in ordered) / n,
        float(_weighted_nearest_rank(ordered, n, 1, 2)),
        float(_weighted_nearest_rank(ordered, n, 9, 10)),
    )


# -- rendering ---------------------------------------------------------------

CROSSING_HEADER = ("IP", "From ISP", "To ISP", "From", "To",
                   "Mean", "Q10%", "Q90%", "%")
HOPS_HEADER = ("IP", "From ISP", "To ISP", "Min", "Q10%", "Mean", "Median", "Q90%")


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _crossing_cells(row: CrossingRow) -> tuple[str, ...]:
    return (row.ip_version, row.from_isp, row.to_isp, row.from_group, row.to_group,
            _fmt(row.mean_rtt_ms), _fmt(row.q10_rtt_ms), _fmt(row.q90_rtt_ms),
            _fmt(row.share))


def _hops_cells(row: HopCountStats) -> tuple[str, ...]:
    return (row.ip_version, row.from_isp, row.to_isp, str(row.min),
            _fmt(row.q10), _fmt(row.mean), _fmt(row.median), _fmt(row.q90))


def _render_table(header: tuple[str, ...], rows: list[tuple[str, ...]],
                  fmt: str) -> str:
    if fmt == "csv":
        lines = [",".join(header)]
        lines += [",".join(cells) for cells in rows]
        return "\n".join(lines) + "\n"
    if fmt == "text":
        widths = [len(h) for h in header]
        for cells in rows:
            widths = [max(w, len(c)) for w, c in zip(widths, cells)]
        lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
        lines += ["  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
                  for cells in rows]
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown table format {fmt!r}")


def format_crossing_table(rows: Sequence[CrossingRow], fmt: str = "text") -> str:
    return _render_table(CROSSING_HEADER, [_crossing_cells(r) for r in rows], fmt)


def format_hop_stats(rows: Sequence[HopCountStats], fmt: str = "text") -> str:
    return _render_table(HOPS_HEADER, [_hops_cells(r) for r in rows], fmt)


def format_bucket_series(series: Sequence[RttBucketStats]) -> str:
    lines = ["bucket_start_us,count,mean_ms,min_ms,q10_ms,q90_ms"]
    for b in series:
        lines.append(f"{b.bucket_start_us},{b.count},{_fmt(b.mean_ms)},"
                     f"{_fmt(b.min_ms)},{_fmt(b.q10_ms)},{_fmt(b.q90_ms)}")
    return "\n".join(lines) + "\n"


def format_cdf(cdf: dict[int, list[tuple[float, float]]]) -> str:
    lines = ["year,mean_rtt_ms,fraction"]
    for year in sorted(cdf):
        for x, y in cdf[year]:
            lines.append(f"{year},{x:.6f},{y:.6f}")
    return "\n".join(lines) + "\n"


# -- route graph export ------------------------------------------------------

_PALETTE = ("#e41a1c", "#377eb8", "#4daf4a", "#984ea3", "#ff7f00", "#a65628",
            "#f781bf", "#17becf", "#bcbd22", "#8c564b", "#1b9e77", "#7570b3")
_NO_AS_COLOR = "#999999"


class GraphExport(NamedTuple):
    document: str
    unlocatable: tuple[str, ...]


def edge_thickness(share: float) -> float:
    """Pen width over the 0.1..100 % observation-share range (log scale)."""
    return 1.0 + math.log10(max(share, 0.1) / 0.1)


def _address_sort_key(hop: EnrichedHop):
    parsed = ipaddress.ip_address(hop.address)
    return parsed.version, int(parsed)


def export_route_graph(observations: Sequence[LinkObservation],
                       threshold_percent: float = 0.1, fmt: str = "dot", *,
                       dashed_inter_as: bool = True) -> GraphExport:
    """Route graph of links at or above the share threshold.

    Nodes carry coordinates (when located) and AS labels; edges carry the
    observation share, a color keyed on the source AS, an inter/intra-AS
    style flag and a log-scaled thickness. Output ordering is fully sorted,
    so identical input yields byte-identical documents. Nodes without a
    location are reported in the sidecar list, never silently dropped.
    """
    edges = sorted((o for o in observations if o.share >= threshold_percent),
                   key=lambda o: (o.from_hop.address, o.to_hop.address))
    nodes: dict[str, EnrichedHop] = {}
    for obs in edges:
        nodes.setdefault(obs.from_hop.address, obs.from_hop)
        nodes.setdefault(obs.to_hop.address, obs.to_hop)
    ordered_nodes = sorted(nodes.values(), key=_address_sort_key)
    unlocatable = tuple(h.address for h in ordered_nodes if h.geo is None)

    as_keys = sorted({h.as_group for h in ordered_nodes if h.as_group is not None})
    colors = {key: _PALETTE[i % len(_PALETTE)] for i, key in enumerate(as_keys)}

    def color_of(hop: EnrichedHop) -> str:
        return colors.get(hop.as_group, _NO_AS_COLOR)

    def is_inter_as(obs: LinkObservation) -> bool:
        return obs.from_hop.asn != obs.to_hop.asn

    if fmt == "dot":
        lines = ["digraph routes {", "  node [shape=ellipse];"]
        for hop in ordered_nodes:
            label = hop.address if hop.as_group is None \
                else f"{hop.address}\\n{hop.as_group}"
            attrs = [f'label="{label}"', f'color="{color_of(hop)}"']
            if hop.geo is not None:
                attrs.append(f'pos="{hop.geo.longitude:.4f},{hop.geo.latitude:.4f}!"')
            lines.append(f'  "{hop.address}" [{", ".join(attrs)}];')
        for obs in edges:
            inter = is_inter_as(obs)
            style = ("dashed" if inter else "solid") if dashed_inter_as \
                else ("solid" if inter else "dashed")
            lines.append(
                f'  "{obs.from_hop.address}" -> "{obs.to_hop.address}" '
                f'[penwidth={edge_thickness(obs.share):.3f}, style={style}, '
                f'color="{color_of(obs.from_hop)}", label="{obs.share:.2f}%"];')
        lines.append("}")
        return GraphExport("\n".join(lines) + "\n", unlocatable)

    if fmt == "geojson":
        features = []
        for hop in ordered_nodes:
            if hop.geo is None:
                continue
            features.append({
                "type": "Feature",
                "geometry": {"type": "Point",
                             "coordinates": [hop.geo.longitude, hop.geo.latitude]},
                "properties": {"address": hop.address, "as": hop.as_group,
                               "country": hop.geo.country},
            })
        for obs in edges:
            a, b = obs.from_hop, obs.to_hop
            if a.geo is None or b.geo is None:
                continue
            features.append({
                "type": "Feature",
                "geometry": {"type": "LineString",
                             "coordinates": [[a.geo.longitude, a.geo.latitude],
                                             [b.geo.longitude, b.geo.latitude]]},
                "properties": {"from": a.address, "to": b.address,
                               "share_percent": round(obs.share, 4),
                               "inter_as": is_inter_as(obs),
                               "color": color_of(a),
                               "thickness": round(edge_thickness(obs.share), 3)},
            })
        doc = json.dumps({"type": "FeatureCollection", "features": features},
                         indent=1, sort_keys=True)
        return GraphExport(doc + "\n", unlocatable)

    if fmt == "csv":
        lines = ["from,to,share_percent,inter_as,from_as,to_as"]
        for obs in edges:
            lines.append(",".join([
                obs.from_hop.address, obs.to_hop.address, _fmt(obs.share),
                str(is_inter_as(obs)).lower(),
                obs.from_hop.as_group or "", obs.to_hop.as_group or ""]))
        return GraphExport("\n".join(lines) + "\n", unlocatable)

    raise ValueError(f"unknown graph format {fmt!r}")
