"""Independent brute-force references the test suite checks the package against.

Everything here is deliberately naive: byte-at-a-time loops, full sorts,
dict counting and one pass per step. None of it shares code with the
package beyond the record classes and exceptions.
"""

from __future__ import annotations

import ipaddress
import math
from fractions import Fraction

from contrace.records import (Hop, InvalidRecord, MalformedJson, PingRecord,
                              TracerouteRun)


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
