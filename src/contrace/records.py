"""Measurement record model, its JSON codec, and the read forms of the store.

Canonical interchange schema (one JSON document per line):

  ping        {"timestamp": µs, "source": ip, "destination": ip,
               "status": 0|1|255, "rtt": µs}           rtt only when status 255
  traceroute  {"timestamp": µs, "source": ip, "destination": ip, "round": n,
               "hops": [{"hop": k, "address": ip, "status": s, "rtt": µs}]}
               address and rtt omitted when a hop's status is 0

Addresses are rendered canonically (compressed lower-case for v6). One
set of checks over field values (_ping, _run) validates and canonicalizes
records: the decoder from_json_obj runs them over a document's fields for
store reads and import, validated over a record's fields for append, and
columnar over the pair and path dictionaries of its segments. In memory,
records are immutable named tuples, and unpacking follows the field order
of the classes below, not the JSON order: PingRecord(timestamp, source,
destination, status, rtt), Hop(hop, status, address, rtt) and
TracerouteRun(timestamp, source, destination, round, hops). Analysis reads
two column forms instead of records. PathRuns holds one pair's traceroute
runs grouped by distinct path: per path its run count and where its runs'
RTTs are in the store's columns (columnar.Segment.group fills it).
PingColumns holds the selected pings' columns (Segment.pings fills it).

The append-only store, RecordStore, is defined in contrace.store (segment
files) and contrace.columnar (segments as columns, the form every read
takes), and is importable from here.
"""

from __future__ import annotations

import ipaddress
import json
import sys
from array import array
from functools import lru_cache
from itertools import compress, repeat
from operator import eq, is_, itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

STATUS_TIMEOUT = 0
STATUS_TIME_EXCEEDED = 1
STATUS_ECHO_REPLY = 255
VALID_STATUSES = (STATUS_TIMEOUT, STATUS_TIME_EXCEEDED, STATUS_ECHO_REPLY)

KIND_PING = "ping"
KIND_TRACEROUTE = "traceroute"


class StoreError(Exception):
    """Base class for record store failures."""


class InvalidRecord(StoreError):
    """Record violates the model invariants; carries field diagnostics."""

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


class MalformedJson(StoreError):
    """A document could not be parsed or mapped onto the schema."""


class PingRecord(NamedTuple):
    timestamp: int
    source: str
    destination: str
    status: int
    rtt: int | None = None


class Hop(NamedTuple):
    hop: int
    status: int
    address: str | None = None
    rtt: int | None = None


class TracerouteRun(NamedTuple):
    timestamp: int
    source: str
    destination: str
    round: int
    hops: tuple[Hop, ...]


Record = PingRecord | TracerouteRun

# Builds a record from a tuple of its already checked fields without the
# generated __new__'s argument handling; only the decoders use it.
_new = tuple.__new__


@lru_cache(maxsize=65536)
def _address_info(address: str) -> tuple[int, str]:
    """(family version, canonical form) of an address string; ValueError
    for anything else. Cached, addresses repeat heavily. The canonical form
    is interned, so every spelling of one address yields one string object."""
    if not isinstance(address, str):
        raise ValueError(f"not an address string: {address!r}")
    parsed = ipaddress.ip_address(address)
    return parsed.version, sys.intern(str(parsed))


def canonical_address(address: str) -> str:
    return _address_info(address)[1]


def _check_address(value, field: str, problems: list[str]) -> tuple:
    """_address_info(value), or (None, None) with the reject message."""
    try:
        return _address_info(value)
    except (TypeError, ValueError):
        problems.append(f"{field}: not a valid IP address: {value!r}"
                        if isinstance(value, str) else
                        f"{field}: expected string address, got {type(value).__name__}")
        return None, None


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_int(value, field: str, problems: list[str], minimum: int) -> None:
    if not _is_int(value):
        problems.append(f"{field}: expected integer, got {type(value).__name__}")
    elif value < minimum:
        problems.append(f"{field}: must be >= {minimum}, got {value}")


def to_json_obj(record: Record) -> dict:
    if isinstance(record, PingRecord):
        obj = {"timestamp": record.timestamp, "source": record.source,
               "destination": record.destination, "status": record.status}
        if record.rtt is not None:
            obj["rtt"] = record.rtt
        return obj
    hops = []
    for hop in record.hops:
        h: dict = {"hop": hop.hop}
        if hop.address is not None:
            h["address"] = hop.address
        h["status"] = hop.status
        if hop.rtt is not None:
            h["rtt"] = hop.rtt
        hops.append(h)
    return {"timestamp": record.timestamp, "source": record.source,
            "destination": record.destination, "round": record.round, "hops": hops}


_ENCODE = json.JSONEncoder(separators=(",", ":")).encode


_PING_KEYS = {"timestamp", "source", "destination", "status", "rtt"}
_TRACEROUTE_KEYS = {"timestamp", "source", "destination", "round", "hops"}
_HOP_KEYS = {"hop", "address", "status", "rtt"}


def _reject(obj: dict, problems: list[str]) -> None:
    """Raise the first shape fault of obj as MalformedJson: unknown
    top-level fields, hops not a list, then per hop not an object or
    unknown fields. Else raise InvalidRecord(problems) if there are any.
    Returns only for a well-shaped document without problems, one whose
    optional fields are explicitly null."""
    is_run = "hops" in obj
    unknown = obj.keys() - (_TRACEROUTE_KEYS if is_run else _PING_KEYS)
    if unknown:
        raise MalformedJson(f"unknown {'traceroute' if is_run else 'ping'} fields: "
                            f"{sorted(unknown)}")
    if is_run:
        if not isinstance(obj["hops"], list):
            raise MalformedJson("hops: expected a list")
        for i, h in enumerate(obj["hops"]):
            if not isinstance(h, dict):
                raise MalformedJson(f"hops[{i}]: expected an object")
            unknown = h.keys() - _HOP_KEYS
            if unknown:
                raise MalformedJson(f"hops[{i}]: unknown fields: {sorted(unknown)}")
    if problems:
        raise InvalidRecord(problems)


# The checks run over field values, a document's or a record's. A fast check
# (type(...) is int, a cached address) passes only what the check that
# formats the message accepts, which runs only when the fast one fails. With
# every required field present and not null, the field count rules out
# unknown fields, so _reject runs only on a failure or an unexpected count.

def _header(timestamp, source, destination, problems: list[str]) -> tuple[int, str, str]:
    """The timestamp and the canonical source and destination of either kind."""
    if type(timestamp) is not int or timestamp < 1:
        _check_int(timestamp, "timestamp", problems, 1)
    try:
        src_version, source = _address_info(source)
    except (TypeError, ValueError):
        src_version, source = _check_address(source, "source", problems)
    try:
        dst_version, destination = _address_info(destination)
    except (TypeError, ValueError):
        dst_version, destination = _check_address(destination, "destination", problems)
    if src_version and dst_version and src_version != dst_version:
        problems.append("source and destination are of different IP families")
    return timestamp, source, destination


def _ping(timestamp, source, destination, status, rtt, problems: list[str]) -> PingRecord:
    """The ping of these field values, canonical; valid if no problem was added."""
    timestamp, source, destination = _header(timestamp, source, destination, problems)
    if type(status) is not int and not _is_int(status) or status not in VALID_STATUSES:
        problems.append(f"status: must be one of {VALID_STATUSES}, got {status!r}")
    if status == STATUS_ECHO_REPLY:
        if rtt is None:
            problems.append("rtt: required when status is 255")
        elif type(rtt) is not int or rtt < 0:
            _check_int(rtt, "rtt", problems, 0)
    elif rtt is not None:
        problems.append(f"rtt: must be absent when status is {status}")
    return _new(PingRecord, (timestamp, source, destination, status, rtt))


def _run(timestamp, source, destination, round_, hops, problems: list[str]) -> TracerouteRun:
    """As _ping, for a run; hops holds (hop, status, address, rtt) tuples."""
    timestamp, source, destination = _header(timestamp, source, destination, problems)
    if type(round_) is not int or round_ < 0:
        _check_int(round_, "round", problems, 0)
    if not hops:
        problems.append("hops: must contain at least one hop")
    checked = []
    replied = False
    for i, (hop, status, address, rtt) in enumerate(hops):
        if hop != i + 1 or type(hop) is not int and not _is_int(hop):
            problems.append(f"hops[{i}].hop: expected {i + 1}, got {hop!r}")
        if type(status) is not int and not _is_int(status) or status not in VALID_STATUSES:
            problems.append(f"hops[{i}].status: must be one of {VALID_STATUSES}")
            continue
        if replied:
            problems.append(f"hops[{i}]: hops after an echo-reply hop are not allowed")
        if status == STATUS_TIMEOUT:
            if address is not None:
                problems.append(f"hops[{i}].address: must be absent when status is 0")
            if rtt is not None:
                problems.append(f"hops[{i}].rtt: must be absent when status is 0")
        else:
            if address is None:
                problems.append(f"hops[{i}].address: required when status is {status}")
            else:
                try:
                    address = _address_info(address)[1]
                except (TypeError, ValueError):
                    _, address = _check_address(address, f"hops[{i}].address", problems)
            if rtt is None:
                problems.append(f"hops[{i}].rtt: required when status is {status}")
            elif type(rtt) is not int or rtt < 0:
                _check_int(rtt, f"hops[{i}].rtt", problems, 0)
            if status == STATUS_ECHO_REPLY:
                replied = True
        checked.append(_new(Hop, (hop, status, address, rtt)))
    return _new(TracerouteRun, (timestamp, source, destination, round_, tuple(checked)))


def _ping_record(obj: dict) -> PingRecord:
    problems: list[str] = []
    record = _ping(obj.get("timestamp"), obj.get("source"), obj.get("destination"),
                   obj.get("status"), obj.get("rtt"), problems)
    if problems or len(obj) != (4 if record.rtt is None else 5):
        _reject(obj, problems)
    return record


def _traceroute_run(obj: dict) -> TracerouteRun:
    hops = obj.get("hops")
    if not isinstance(hops, list) or not all(isinstance(h, dict) for h in hops):
        _reject(obj, [])  # raises, as hops is not a list or a hop not an object
    problems: list[str] = []
    run = _run(obj.get("timestamp"), obj.get("source"), obj.get("destination"),
               obj.get("round"), [(h.get("hop"), h.get("status"), h.get("address"),
                                   h.get("rtt")) for h in hops], problems)
    if problems or len(obj) + sum(map(len, hops)) != 5 + sum(  # a valid hop: 2 or 4
            2 if hop.address is None else 4 for hop in run.hops):
        _reject(obj, problems)
    return run


def from_json_obj(obj) -> Record:
    """Map a parsed JSON document onto a validated record with canonical
    addresses, in one pass: the one decoder that store reads and import
    use. Raises MalformedJson for a document of the wrong shape and
    InvalidRecord, with per-field reasons, for values that break the model.
    Equal addresses share one string from the _address_info cache."""
    if isinstance(obj, dict):
        return _traceroute_run(obj) if "hops" in obj else _ping_record(obj)
    raise MalformedJson(f"expected a JSON object, got {type(obj).__name__}")


def validated(record: Record) -> Record:
    """from_json_obj(to_json_obj(record)), by the same checks run over the
    record's fields, with no document built. A record that fails them, or is
    not exactly a PingRecord or a TracerouteRun with a tuple of Hop, goes
    the document's way, so it raises what its document raises."""
    problems: list[str] = []
    if type(record) is PingRecord:
        checked = _ping(*record, problems)
    elif type(record) is TracerouteRun and type(record.hops) is tuple \
            and all(type(hop) is Hop for hop in record.hops):
        checked = _run(*record, problems)
    else:
        checked = None
    return checked if checked and not problems else from_json_obj(to_json_obj(record))


def checked_pings(pings: Sequence[PingRecord]) -> tuple | None:
    """The columns (pairs, timestamps, statuses, rtts) of pings, each
    exactly a PingRecord, if a fast check over whole columns finds that
    validated returns each unchanged; else None, and each must go through
    validated. It passes only timestamps of type int of at least 1,
    statuses of type int among VALID_STATUSES, rtts of type int of at least
    0 where the status is 255 and None elsewhere, and addresses already in
    canonical form, each pair of one family. The pairs hold the canonical
    strings validated gives (_canonical_pair)."""
    timestamps, sources, destinations, statuses, rtts = zip(*pings)
    if {*map(type, timestamps), *map(type, statuses)} != {int} or min(timestamps) < 1 \
            or not {*statuses} <= {*VALID_STATUSES}:
        return None
    replied = list(compress(rtts, map(eq, statuses, repeat(STATUS_ECHO_REPLY))))
    if replied and ({*map(type, replied)} != {int} or min(replied) < 0) \
            or sum(map(is_, rtts, repeat(None))) != len(rtts) - len(replied):
        return None
    pairs = list(zip(sources, destinations))
    try:
        canonical = {pair: _canonical_pair(*pair) for pair in set(pairs)}
    except TypeError:  # unhashable
        return None
    if None in canonical.values():
        return None
    return list(map(canonical.__getitem__, pairs)), timestamps, statuses, rtts


@lru_cache(maxsize=65536)
def _canonical_pair(source, destination) -> tuple[str, str] | None:
    """(source, destination) as the canonical strings of _address_info, if
    they are canonical addresses of one family already; else None."""
    try:
        (src_version, canonical_source), (dst_version, canonical_destination) = \
            _address_info(source), _address_info(destination)
    except (TypeError, ValueError):
        return None
    if src_version != dst_version or (canonical_source, canonical_destination) \
            != (source, destination):
        return None
    return canonical_source, canonical_destination


def _loads(line: str):
    try:
        return json.loads(line)
    except (ValueError, RecursionError) as exc:  # also too many digits or too deep
        raise MalformedJson(f"invalid JSON: {exc}") from None


def parse_line(line: str) -> Record:
    return from_json_obj(_loads(line))


class _QueryFields(NamedTuple):
    kind: str
    start: int | None = None
    end: int | None = None
    source: str | None = None
    destination: str | None = None


class StoreQuery(_QueryFields):
    """Filter for store reads; time_range is [start, end) in microseconds.

    source and destination match any spelling of an address: they are kept
    in canonical form, as stored records are."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.kind not in (KIND_PING, KIND_TRACEROUTE):
            raise ValueError(f"unknown record kind {self.kind!r}")
        if self.start is not None and self.end is not None and self.start >= self.end:
            raise ValueError("time range start must be < end")
        source, destination = (None if address is None else canonical_address(address)
                               for address in (self.source, self.destination))
        return self._replace(source=source, destination=destination)

    def matches_pair(self, source: str, destination: str) -> bool:
        return ((self.source is None or source == self.source)
                and (self.destination is None or destination == self.destination))


# -- traceroute runs grouped by path ---------------------------------------------

class PathRuns:
    """One (source, destination) pair's traceroute runs, grouped by the
    distinct path they took, the paths in order of first use. A path is a
    tuple of (hop, status, address), one per hop, and counts[i] runs took
    path i. len() is the number of runs.

    No RTT is copied: pieces[i] holds, per block with runs of path i and in
    block order, (rtts, starts): that block's rtt column, and where in it
    each of those runs' RTTs start, in row order. rtt_column() gathers the
    values it is asked for. So work per hop is done once per path, and the
    RTTs of a run are read only where an analysis reads them."""

    __slots__ = ("paths", "counts", "pieces", "_index")

    def __init__(self):
        self.paths: list[tuple[tuple[int, int, str | None], ...]] = []
        self.counts: list[int] = []
        self.pieces: list[list[tuple[Sequence[int], array]]] = []
        self._index: dict[tuple, int] = {}

    def __len__(self) -> int:
        return sum(self.counts)

    def add(self, statuses: tuple, addresses: tuple, rtts: Sequence[int],
            starts: array) -> None:
        """Add the runs of the path with these hop statuses and addresses
        whose RTTs start at starts in rtts, a block's rtt column."""
        key = (statuses, addresses)
        i = self._index.get(key)
        if i is None:
            i = self._index[key] = len(self.paths)
            self.paths.append(tuple(zip(range(1, len(statuses) + 1), statuses, addresses)))
            self.counts.append(0)
            self.pieces.append([])
        self.counts[i] += len(starts)
        self.pieces[i].append((rtts, starts))

    def rtt_column(self, path: int, position: int) -> list[int]:
        """RTTs of the path's responsive hop at position (0-based, among
        the responsive hops), one per run of the path in row order. They
        are gathered from the blocks' rtt columns on each call."""
        values: list[int] = []
        for rtts, starts in self.pieces[path]:
            # the values at starts of the column from position on; the
            # slice of an array's memoryview copies nothing
            column = memoryview(rtts)[position:] if type(rtts) is array else rtts[position:]
            if len(starts) == 1:
                values.append(column[starts[0]])
            else:
                values += itemgetter(*starts)(column)
        return values


class PingColumns:
    """Pings as rtt-series and cdf read them: per block with rows a read
    selects, (timestamps, rtts) cut to those rows, an rtt being -1 where
    the status is not 255 (no echo reply). len() is the number of pings."""

    __slots__ = ("blocks",)

    def __init__(self):
        self.blocks: list[tuple[Sequence[int], Sequence[int]]] = []

    def __len__(self) -> int:
        return sum(len(times) for times, _ in self.blocks)


def _line_batches(chunks: Iterable[str]) -> Iterator[list[str]]:
    """The lines of str.splitlines(True) over the concatenation of chunks,
    in batches: after each chunk, the lines it completed, if any. A chunk's
    last line is held back unless it ends in "\\n": the next chunk may
    continue it, or turn its "\\r" into "\\r\\n"."""
    rest = ""
    for chunk in chunks:
        lines = (rest + chunk).splitlines(True)
        rest = "" if not lines or lines[-1].endswith("\n") else lines.pop()
        if lines:
            yield lines
    if rest:
        yield [rest]


def __getattr__(name: str):
    # RecordStore is defined in .store, which imports this module.
    if name == "RecordStore":
        from .store import RecordStore
        return RecordStore
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
