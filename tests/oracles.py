"""Independent brute-force references the test suite checks the package against.

Everything here is deliberately naive: byte-at-a-time loops, full sorts,
dict counting and one pass per step. None of it shares code with the
package beyond the record classes, the simulator's Outcome and hop cap,
and exceptions; rewrite_store_as_v1, rewrite_store_as_v2 and
rename_store_to_old_names, which turn a store into one of an old format or
with old names, read it through RecordStore or columnar.Segment; and
EngineTransport is the simulator's own transport with its table left out.
"""

from __future__ import annotations

import ipaddress
import json
import math
import shutil
import sys
import tempfile
import zlib
from array import array
from fractions import Fraction
from pathlib import Path

from contrace.probe import TransportFailure
from contrace.records import (Hop, InvalidRecord, MalformedJson, PingRecord,
                              TracerouteRun)
from contrace.sim import MAX_PATH_HOPS, Outcome, SimTransport, share_table


def checksum_reference(data: bytes) -> int:
    """RFC-1071-style checksum with an explicit 32-bit accumulator loop."""
    total = 0
    if len(data) & 1:
        total = data[-1] << 8  # odd tail padded with a zero byte
        data = data[:-1]
    for hi, lo in zip(data[::2], data[1::2]):
        total += (hi << 8) | lo
    while (total >> 16) > 0:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def pseudo_header_reference(source: str, destination: str, length: int) -> bytes:
    """The ICMPv6 pseudo-header a checksum covers: both addresses, the
    message length and the next header, 58."""
    return (ipaddress.IPv6Address(source).packed + ipaddress.IPv6Address(destination).packed
            + length.to_bytes(4, "big") + bytes(3) + bytes([58]))


def echo_reply_reference(request: bytes, family: str, source: str | None = None,
                         destination: str | None = None) -> bytes:
    """The echo reply of a request by a full sum: type 0 (v4) or 129 (v6),
    code 0, then the request's bytes after its checksum, its checksum summed
    over every word, for v6 after the pseudo-header from source (the
    responder) to destination."""
    message = bytes([0 if family == "v4" else 129, 0, 0, 0]) + request[4:]
    prefix = b"" if family == "v4" else pseudo_header_reference(source, destination,
                                                                len(message))
    checksum = checksum_reference(prefix + message)
    return message[:2] + checksum.to_bytes(2, "big") + message[4:]


def nearest_rank_reference(values, p_num: int, p_den: int):
    """Nearest-rank quantile via exact Fraction arithmetic and a full sort."""
    ordered = sorted(values)
    n = len(ordered)
    idx = math.ceil(Fraction(p_num, p_den) * n)
    if idx < 1:
        idx = 1
    return ordered[idx - 1]


def mean_ms_reference(samples_us) -> float:
    """Mean in milliseconds, exact integer sum divided last."""
    samples = list(samples_us)
    return (sum(samples) / len(samples)) / 1000.0


def bucket_series_reference(ping_records, bucket_us: int):
    """Brute-force per-bucket stats over status-255 records.

    Returns {bucket_start_us: (count, mean_ms, min_ms, q10_ms, q90_ms)}.
    """
    buckets: dict[int, list[int]] = {}
    for rec in ping_records:
        if rec.status != 255:
            continue
        start = (rec.timestamp // bucket_us) * bucket_us
        buckets.setdefault(start, []).append(rec.rtt)
    out = {}
    for start, samples in buckets.items():
        out[start] = (
            len(samples),
            mean_ms_reference(samples),
            min(samples) / 1000.0,
            nearest_rank_reference(samples, 1, 10) / 1000.0,
            nearest_rank_reference(samples, 9, 10) / 1000.0,
        )
    return out


def ecdf_reference(values):
    """Empirical CDF as (x, fraction <= x) steps over distinct sorted values."""
    ordered = sorted(values)
    n = len(ordered)
    steps = []
    for i, v in enumerate(ordered):
        if i + 1 < n and ordered[i + 1] == v:
            continue
        steps.append((v, (i + 1) / n))
    return steps


def run_links_reference(run):
    """Directed links between consecutive responsive hops of one run."""
    links = []
    hops = run.hops
    for a, b in zip(hops, hops[1:]):
        if a.status != 0 and b.status != 0 and a.address and b.address:
            links.append((a.address, b.address, b.hop, b.rtt))
    return links


def link_share_reference(runs):
    """{(from, to): set of run indices observing the link} plus total runs."""
    seen: dict[tuple[str, str], set[int]] = {}
    for idx, run in enumerate(runs):
        for frm, to, _hop, _rtt in run_links_reference(run):
            seen.setdefault((frm, to), set()).add(idx)
    return seen, len(runs)


def crossing_reference(runs, group_of):
    """Brute-force group crossings.

    group_of maps an address to a group key or None. Returns
    {(from_group, to_group): {run_index: rtt_us of the earliest
    destination-side hop}} counting each crossing once per run.
    """
    crossings: dict[tuple, dict[int, tuple[int, int]]] = {}
    for idx, run in enumerate(runs):
        for frm, to, hop_no, rtt in run_links_reference(run):
            gf, gt = group_of(frm), group_of(to)
            if gf is None or gt is None or gf == gt:
                continue
            per_run = crossings.setdefault((gf, gt), {})
            if idx not in per_run or hop_no < per_run[idx][0]:
                per_run[idx] = (hop_no, rtt)
    return {
        key: {idx: rtt for idx, (_h, rtt) in per_run.items()}
        for key, per_run in crossings.items()
    }


def hop_count_reference(runs):
    """Hop counts of destination-reaching runs: min/q10/mean/median/q90."""
    counts = []
    for run in runs:
        for hop in run.hops:
            if hop.status == 255:
                counts.append(hop.hop)
                break
    if not counts:
        return None
    return (
        min(counts),
        float(nearest_rank_reference(counts, 1, 10)),
        sum(counts) / len(counts),
        float(nearest_rank_reference(counts, 1, 2)),
        float(nearest_rank_reference(counts, 9, 10)),
    )


def great_circle_reference(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Spherical law of cosines distance in km (independent of haversine)."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dlon = math.radians(lon2 - lon1)
    cosine = (math.sin(phi1) * math.sin(phi2)
              + math.cos(phi1) * math.cos(phi2) * math.cos(dlon))
    cosine = max(-1.0, min(1.0, cosine))
    return 6371.0 * math.acos(cosine)


# -- record decoding ------------------------------------------------------------
#
# The reference decoder maps a parsed JSON document onto a record without
# checking its values, validates the record, then canonicalizes its
# addresses: three separate passes, against which the package's one-pass
# decoder (records.from_json_obj) and RecordStore.append are compared. It
# canonicalizes with ipaddress directly.

STATUSES = (0, 1, 255)
PING_KEYS = {"timestamp", "source", "destination", "status", "rtt"}
TRACEROUTE_KEYS = {"timestamp", "source", "destination", "round", "hops"}
HOP_KEYS = {"hop", "address", "status", "rtt"}


def reference_map(obj):
    """The record a document maps onto, its values unchecked; MalformedJson
    for a document that is not an object, has unknown fields, or whose hops
    are not a list of objects."""
    if not isinstance(obj, dict):
        raise MalformedJson(f"expected a JSON object, got {type(obj).__name__}")
    if "hops" in obj:
        unknown = set(obj) - TRACEROUTE_KEYS
        if unknown:
            raise MalformedJson(f"unknown traceroute fields: {sorted(unknown)}")
        hops_obj = obj.get("hops")
        if not isinstance(hops_obj, list):
            raise MalformedJson("hops: expected a list")
        hops = []
        for i, h in enumerate(hops_obj):
            if not isinstance(h, dict):
                raise MalformedJson(f"hops[{i}]: expected an object")
            unknown = set(h) - HOP_KEYS
            if unknown:
                raise MalformedJson(f"hops[{i}]: unknown fields: {sorted(unknown)}")
            hops.append(Hop(h.get("hop"), h.get("status"), h.get("address"), h.get("rtt")))
        return TracerouteRun(obj.get("timestamp"), obj.get("source"),
                             obj.get("destination"), obj.get("round"), tuple(hops))
    unknown = set(obj) - PING_KEYS
    if unknown:
        raise MalformedJson(f"unknown ping fields: {sorted(unknown)}")
    return PingRecord(obj.get("timestamp"), obj.get("source"),
                      obj.get("destination"), obj.get("status"), obj.get("rtt"))


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _check_int(value, field, problems, minimum):
    if not _is_int(value):
        problems.append(f"{field}: expected integer, got {type(value).__name__}")
    elif value < minimum:
        problems.append(f"{field}: must be >= {minimum}, got {value}")


def _check_address(value, field, problems):
    """The address's IP version, or None with a problem."""
    if not isinstance(value, str):
        problems.append(f"{field}: expected string address, got {type(value).__name__}")
        return None
    try:
        return ipaddress.ip_address(value).version
    except ValueError:
        problems.append(f"{field}: not a valid IP address: {value!r}")
        return None


def _check_endpoints(record, problems):
    _check_int(record.timestamp, "timestamp", problems, 1)
    src = _check_address(record.source, "source", problems)
    dst = _check_address(record.destination, "destination", problems)
    if src is not None and dst is not None and src != dst:
        problems.append("source and destination are of different IP families")


def reference_validate(record):
    """InvalidRecord listing every rule the record breaks, in field order."""
    problems = []
    if isinstance(record, PingRecord):
        _check_endpoints(record, problems)
        if not (_is_int(record.status) and record.status in STATUSES):
            problems.append(f"status: must be one of {STATUSES}, got {record.status!r}")
        if record.status == 255:
            if record.rtt is None:
                problems.append("rtt: required when status is 255")
            else:
                _check_int(record.rtt, "rtt", problems, 0)
        elif record.rtt is not None:
            problems.append(f"rtt: must be absent when status is {record.status}")
    elif isinstance(record, TracerouteRun):
        _check_endpoints(record, problems)
        _check_int(record.round, "round", problems, 0)
        if not record.hops:
            problems.append("hops: must contain at least one hop")
        reply_seen = False
        for i, hop in enumerate(record.hops):
            where = f"hops[{i}]"
            if not _is_int(hop.hop) or hop.hop != i + 1:
                problems.append(f"{where}.hop: expected {i + 1}, got {hop.hop!r}")
            if not (_is_int(hop.status) and hop.status in STATUSES):
                problems.append(f"{where}.status: must be one of {STATUSES}")
                continue
            if reply_seen:
                problems.append(f"{where}: hops after an echo-reply hop are not allowed")
            if hop.status == 0:
                if hop.address is not None:
                    problems.append(f"{where}.address: must be absent when status is 0")
                if hop.rtt is not None:
                    problems.append(f"{where}.rtt: must be absent when status is 0")
            else:
                if hop.address is None:
                    problems.append(
                        f"{where}.address: required when status is {hop.status}")
                else:
                    _check_address(hop.address, f"{where}.address", problems)
                if hop.rtt is None:
                    problems.append(f"{where}.rtt: required when status is {hop.status}")
                else:
                    _check_int(hop.rtt, f"{where}.rtt", problems, 0)
            if hop.status == 255:
                reply_seen = True
    else:
        problems.append(f"unsupported record type {type(record).__name__}")
    if problems:
        raise InvalidRecord(problems)


def reference_normalize(record):
    """The record with every address in canonical form."""
    def canonical(address):
        return str(ipaddress.ip_address(address))
    if isinstance(record, PingRecord):
        return PingRecord(record.timestamp, canonical(record.source),
                          canonical(record.destination), record.status, record.rtt)
    hops = tuple(h if h.address is None else h._replace(address=canonical(h.address))
                 for h in record.hops)
    return TracerouteRun(record.timestamp, canonical(record.source),
                         canonical(record.destination), record.round, hops)


def reference_decode(obj):
    """Map, validate, then canonicalize a parsed JSON document."""
    record = reference_map(obj)
    reference_validate(record)
    return reference_normalize(record)


# -- store reads ----------------------------------------------------------------


def serialize_line(record) -> str:
    """The canonical NDJSON line of a record, built field by field: the
    schema's key order, absent optional fields left out, no spaces."""
    if isinstance(record, PingRecord):
        doc = {"timestamp": record.timestamp, "source": record.source,
               "destination": record.destination, "status": record.status}
        if record.rtt is not None:
            doc["rtt"] = record.rtt
    else:
        hops = []
        for hop in record.hops:
            entry = {"hop": hop.hop}
            if hop.address is not None:
                entry["address"] = hop.address
            entry["status"] = hop.status
            if hop.rtt is not None:
                entry["rtt"] = hop.rtt
            hops.append(entry)
        doc = {"timestamp": record.timestamp, "source": record.source,
               "destination": record.destination, "round": record.round, "hops": hops}
    return json.dumps(doc, separators=(",", ":")) + "\n"


def matches(q, record) -> bool:
    """Whether the StoreQuery q selects record: a timestamp in [start, end),
    then the source and destination, each unset field matching anything."""
    return ((q.start is None or record.timestamp >= q.start)
            and (q.end is None or record.timestamp < q.end)
            and (q.source is None or record.source == q.source)
            and (q.destination is None or record.destination == q.destination))


# -- version 1 and 2 columnar files ---------------------------------------------------

MAGIC = b"contrace columns\n"  # how every columnar file begins


def _v1_column(values):
    """(typecode, bytes) of a column: the narrowest of b, h, i and q that
    holds every value, else a JSON array."""
    for code in "bhiq":
        bits = 8 * array(code).itemsize - 1
        if all(-2**bits <= v < 2**bits for v in values):
            return code, array(code, values).tobytes()
    return "json", json.dumps(values, separators=(",", ":")).encode()


def write_v1(path, kind, records) -> None:
    """Write records, in row order, as a version 1 columnar segment, the
    format sealed segments had before their rows were clustered per pair:
    one CRC32 over the header length, header and columns; a pair column
    that indexes the pair dictionary; no tie column."""
    pairs, paths, columns = {}, {}, [[] for _ in range(4 if kind == "ping" else 5)]
    for record in records:
        pair = (record.source, record.destination)
        columns[0].append(record.timestamp)
        columns[1].append(pairs.setdefault(pair, len(pairs)))
        if kind == "ping":
            columns[2].append(record.status)
            columns[3].append(-1 if record.rtt is None else record.rtt)
        else:
            hops = tuple((hop.hop, hop.status, hop.address) for hop in record.hops)
            columns[2].append(record.round)
            columns[3].append(paths.setdefault(hops, len(paths)))
            columns[4] += [hop.rtt for hop in record.hops if hop.status != 0]
    names = ["timestamp", "pair", "status", "rtt"] if kind == "ping" else \
        ["timestamp", "pair", "round", "path", "rtt"]
    encoded = [_v1_column(values) for values in columns]
    times = columns[0]
    header = {"version": 1, "kind": kind, "byteorder": sys.byteorder,
              "count": len(times), "min": min(times), "max": max(times),
              "sorted": times == sorted(times),
              "pairs": [[*pair, columns[1].count(i)] for pair, i in pairs.items()],
              "columns": [[name, code, len(body)]
                          for name, (code, body) in zip(names, encoded)]}
    if kind == "traceroute":
        header["paths"] = [list(map(list, hops)) for hops in paths]
    head = json.dumps(header, separators=(",", ":")).encode()
    rest = len(head).to_bytes(4, "little") + head + b"".join(body for _, body in encoded)
    with open(path, "wb") as fp:
        fp.write(MAGIC + zlib.crc32(rest).to_bytes(4, "little") + rest)


def rewrite_store_as_v1(store) -> None:
    """Rewrite every columnar file of the store at path store as version 1,
    its rows in export order: by timestamp, then row order, which is row
    order wherever a segment's timestamps never decrease."""
    from contrace.records import RecordStore, StoreQuery
    for path in sorted(Path(store).glob("*.col")):
        kind = path.name.split("-")[0]
        with tempfile.TemporaryDirectory() as alone:
            shutil.copy(path, alone)
            records = RecordStore(alone).query(StoreQuery(kind))
        write_v1(path, kind, records)


V2_COLUMNS = {"ping": ("timestamp", "tie", "status", "rtt"),
              "traceroute": ("timestamp", "tie", "round", "path", "rtt")}


def write_v2(path, segment) -> None:
    """Write a columnar.Segment whose blocks' columns are all held (filled
    by add() or loaded and checked) as a version 2 columnar segment, the
    format sealed segments had before their columns were compressed: each
    column array.tobytes() or a JSON array, its spec [typecode, bytes], each
    block's CRC32 over those bytes; the tie column (index 1) only where
    some timestamp repeats."""
    names = [name for i, name in enumerate(V2_COLUMNS[segment.kind])
             if segment.ties or i != 1]
    entries, bodies = [], []
    for block in segment.blocks:
        specs, crc = [], 0
        for i, values in enumerate(block.columns):
            if i == 1 and not segment.ties:
                continue
            if type(values) is list:
                code, values = "json", json.dumps(values, separators=(",", ":")).encode()
            else:
                code = values.typecode
            specs.append([code, memoryview(values).nbytes])
            crc = zlib.crc32(values, crc)
            bodies.append(values)
        entries.append([*block.pair, block.count, block.min, block.max, block.sorted,
                        specs, crc])
    header = {"version": 2, "kind": segment.kind, "byteorder": sys.byteorder,
              "columns": names, "blocks": entries}
    if segment.kind == "traceroute":
        header["paths"] = [list(zip(range(1, len(statuses) + 1), statuses, addresses))
                           for statuses, addresses in segment.keys]
    head = json.dumps(header, separators=(",", ":")).encode()
    sized = len(head).to_bytes(4, "little") + head
    with open(path, "wb") as fp:
        fp.write(MAGIC + zlib.crc32(sized).to_bytes(4, "little") + sized)
        for body in bodies:
            fp.write(body)


def rewrite_store_as_v2(store) -> None:
    """Rewrite every columnar file of the store at path store as version 2,
    with the blocks, rows and tie ranks it holds."""
    from contrace.columnar import Segment
    for path in sorted(Path(store).glob("*.col")):
        segment = Segment.load(path, path.name.split("-")[0])
        segment.check()
        write_v2(path, segment)


def rename_store_to_old_names(store) -> None:
    """Rename every columnar file <kind>-<id>.col of the store at path
    store, in id order, to a name stores gave before ids:
    <kind>-<min>-<max>.col by its timestamps, with the first free -<n>
    suffix where that name is taken. The old writer named a segment by its
    first and last timestamps, which are its min and max wherever they
    never decrease."""
    from contrace.records import RecordStore, StoreQuery
    for path in sorted(Path(store).glob("*.col"), key=lambda p: int(p.stem.split("-")[1])):
        kind = path.name.split("-")[0]
        with tempfile.TemporaryDirectory() as alone:
            shutil.copy(path, alone)
            times = [r.timestamp for r in RecordStore(alone).query(StoreQuery(kind))]
        stem, n = f"{kind}-{min(times)}-{max(times)}", 0
        while (path.parent / f"{stem}{f'-{n}' if n else ''}.col").exists():
            n += 1
        path.rename(path.parent / f"{stem}{f'-{n}' if n else ''}.col")


# -- simulator --------------------------------------------------------------------


def links_at_reference(topology, t_us: int) -> dict:
    """The links at t_us: the topology's links with every event at or before
    t_us applied in order (events are sorted and none precedes the start)."""
    links = dict(topology.links)
    for event in topology.events:
        if event.at_us > t_us:
            break
        if event.action in ("add_link", "set_latency"):
            u, v, latency = event.params
            links[(u, v)] = latency
        elif event.action == "remove_link":
            links.pop(event.params, None)
    return links


def forward_reference(topology, data: bytes, ttl: int, ingress: str,
                      dest_node: str, t_us: int) -> Outcome:
    """Hop-by-hop forwarding that looks the links up again at every hop.

    The ECMP next hop is group[prefix mod group size], prefix being the
    big-endian value of the first 4 bytes; a router without a group uses its
    only outgoing link. Each hop decrements the TTL and a TTL that reaches
    zero expires at that router, so a TTL of 0 or below never expires.
    """
    if ingress not in topology.routers:
        raise TransportFailure(f"unknown ingress node {ingress}")
    if ingress == dest_node:
        return Outcome("delivered", dest_node, t_us, 0, path=(ingress,))
    prefix_value = int.from_bytes(data[:4], "big")
    current, now, latency = ingress, t_us, 0
    path = [ingress]
    for _ in range(MAX_PATH_HOPS):
        links = links_at_reference(topology, now)
        groups = topology.ecmp.get(current) or {}
        group = groups.get(dest_node) or groups.get("default")
        if group:
            nxt = group[prefix_value % len(group)]
        else:
            neighbors = sorted(v for (u, v) in links if u == current)
            nxt = neighbors[0] if len(neighbors) == 1 else None
        if nxt is None:
            return Outcome("dropped", None, now, latency,
                           reason=f"no route from {current}", path=tuple(path))
        if (current, nxt) not in links:
            return Outcome("dropped", None, now, latency,
                           reason=f"link {current}->{nxt} is down", path=tuple(path))
        now += links[(current, nxt)]
        latency += links[(current, nxt)]
        path.append(nxt)
        if nxt == dest_node:
            return Outcome("delivered", dest_node, now, latency, path=tuple(path))
        ttl -= 1
        if ttl == 0:
            return Outcome("time_exceeded", nxt, now, latency, path=tuple(path))
        current = nxt
    return Outcome("dropped", None, now, latency, reason="routing loop",
                   path=tuple(path))


def drive_workers_reference(workers, transports, clock) -> None:
    """The scenario event loop that polls every worker at every step.

    The clock jumps to the earliest pending arrival or wakeup. At that
    instant every worker, in construction order, first gets the replies due
    by then; then every worker whose wakeup is due runs once, in the same
    order. A reply sent to arrive at the current instant waits for the next
    step. The loop ends when no worker has a wakeup left. The records of
    the table (share_table) go to their workers' sinks by pop_table's rule,
    each at its arrival.
    """
    table = share_table(transports)

    def hand_over(below):  # read by field, so the heap's order plays no part
        def key(entry):
            return entry.arrival, entry.index, entry.counter

        due = sorted((entry for entry in table if key(entry) < below), key=key)
        table[:] = [entry for entry in table if key(entry) >= below]
        for entry in due:
            clock.advance_to(max(entry.arrival, clock.now_us()))
            workers[entry.index].sink.append(entry.record)

    wakeups = [worker.next_wakeup() for worker in workers]
    while any(wakeup is not None for wakeup in wakeups):
        pending = [*wakeups, *(transport.peek_arrival() for transport in transports)]
        next_time = min(t for t in pending if t is not None)
        hand_over((next_time,))
        clock.advance_to(max(next_time, clock.now_us()))
        now = clock.now_us()
        for i, (worker, transport) in enumerate(zip(workers, transports)):
            packets = transport.pop_due(now)
            for arrival, counter, data, responder in packets:
                hand_over((arrival, i, counter))
                worker.on_packet(data, responder, arrival)
            if packets:
                wakeups[i] = worker.next_wakeup()
        hand_over((now, math.inf))
        for i, worker in enumerate(workers):
            if wakeups[i] is not None and wakeups[i] <= now:
                worker.on_wakeup(now)
                wakeups[i] = worker.next_wakeup()
    hand_over((math.inf,))


class EngineTransport(SimTransport):
    """A SimTransport whose pings never take a record from the table: its
    table answers none, so each is built and sent by send, as any probe,
    and gets its reply bytes, decode_message and the worker's match, as
    every ping did before the table. Patched in for sim.SimTransport, it
    runs a whole sim-run so."""

    def ping(self, prefix: int, destination: str, timeout_us: int) -> None:
        return None
