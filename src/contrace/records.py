"""Measurement record model and the append-only NDJSON record store.

Canonical interchange schema (one JSON document per line):

  ping        {"timestamp": µs, "source": ip, "destination": ip,
               "status": 0|1|255, "rtt": µs}           rtt only when status 255
  traceroute  {"timestamp": µs, "source": ip, "destination": ip, "round": n,
               "hops": [{"hop": k, "address": ip, "status": s, "rtt": µs}]}
               address and rtt omitted when a hop's status is 0

Addresses are rendered canonically (compressed lower-case for v6). The store
keeps records in segment files named by the time range they cover and is
strictly append-only.
"""

from __future__ import annotations

import heapq
import ipaddress
import json
import logging
import re
import threading
from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter
from pathlib import Path
from typing import IO, Iterable, Iterator

STATUS_TIMEOUT = 0
STATUS_TIME_EXCEEDED = 1
STATUS_ECHO_REPLY = 255
VALID_STATUSES = (STATUS_TIMEOUT, STATUS_TIME_EXCEEDED, STATUS_ECHO_REPLY)

KIND_PING = "ping"
KIND_TRACEROUTE = "traceroute"

log = logging.getLogger(__name__)


class StoreError(Exception):
    """Base class for record store failures."""


class InvalidRecord(StoreError):
    """Record violates the model invariants; carries field diagnostics."""

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


class MalformedJson(StoreError):
    """A document could not be parsed or mapped onto the schema."""


@dataclass(frozen=True, slots=True)
class PingRecord:
    timestamp: int
    source: str
    destination: str
    status: int
    rtt: int | None = None


@dataclass(frozen=True, slots=True)
class Hop:
    hop: int
    status: int
    address: str | None = None
    rtt: int | None = None


@dataclass(frozen=True, slots=True)
class TracerouteRun:
    timestamp: int
    source: str
    destination: str
    round: int
    hops: tuple[Hop, ...]


Record = PingRecord | TracerouteRun


@lru_cache(maxsize=65536)
def _address_info(address: str) -> tuple[int, str]:
    """(family version, canonical form); cached, addresses repeat heavily."""
    parsed = ipaddress.ip_address(address)
    return parsed.version, str(parsed)


def canonical_address(address: str) -> str:
    return _address_info(address)[1]


def _check_address(value, field: str, problems: list[str]) -> int | None:
    if not isinstance(value, str):
        problems.append(f"{field}: expected string address, got {type(value).__name__}")
        return None
    try:
        return _address_info(value)[0]
    except ValueError:
        problems.append(f"{field}: not a valid IP address: {value!r}")
        return None


def _check_int(value, field: str, problems: list[str], minimum: int | None = None):
    if not isinstance(value, int) or isinstance(value, bool):
        problems.append(f"{field}: expected integer, got {type(value).__name__}")
        return None
    if minimum is not None and value < minimum:
        problems.append(f"{field}: must be >= {minimum}, got {value}")
        return None
    return value


def validate_ping(record: PingRecord) -> None:
    problems: list[str] = []
    _check_int(record.timestamp, "timestamp", problems, minimum=1)
    src = _check_address(record.source, "source", problems)
    dst = _check_address(record.destination, "destination", problems)
    if src is not None and dst is not None and src != dst:
        problems.append("source and destination are of different IP families")
    if record.status not in VALID_STATUSES:
        problems.append(f"status: must be one of {VALID_STATUSES}, got {record.status!r}")
    if record.status == STATUS_ECHO_REPLY:
        if record.rtt is None:
            problems.append("rtt: required when status is 255")
        else:
            _check_int(record.rtt, "rtt", problems, minimum=0)
    elif record.rtt is not None:
        problems.append(f"rtt: must be absent when status is {record.status}")
    if problems:
        raise InvalidRecord(problems)


def validate_traceroute(record: TracerouteRun) -> None:
    problems: list[str] = []
    _check_int(record.timestamp, "timestamp", problems, minimum=1)
    src = _check_address(record.source, "source", problems)
    dst = _check_address(record.destination, "destination", problems)
    if src is not None and dst is not None and src != dst:
        problems.append("source and destination are of different IP families")
    _check_int(record.round, "round", problems, minimum=0)
    if not record.hops:
        problems.append("hops: must contain at least one hop")
    reply_seen = False
    for i, hop in enumerate(record.hops):
        where = f"hops[{i}]"
        if hop.hop != i + 1:
            problems.append(f"{where}.hop: expected {i + 1}, got {hop.hop!r}")
        if hop.status not in VALID_STATUSES:
            problems.append(f"{where}.status: must be one of {VALID_STATUSES}")
            continue
        if reply_seen:
            problems.append(f"{where}: hops after an echo-reply hop are not allowed")
        if hop.status == STATUS_TIMEOUT:
            if hop.address is not None:
                problems.append(f"{where}.address: must be absent when status is 0")
            if hop.rtt is not None:
                problems.append(f"{where}.rtt: must be absent when status is 0")
        else:
            if hop.address is None:
                problems.append(f"{where}.address: required when status is {hop.status}")
            else:
                _check_address(hop.address, f"{where}.address", problems)
            if hop.rtt is None:
                problems.append(f"{where}.rtt: required when status is {hop.status}")
            else:
                _check_int(hop.rtt, f"{where}.rtt", problems, minimum=0)
        if hop.status == STATUS_ECHO_REPLY:
            reply_seen = True
    if problems:
        raise InvalidRecord(problems)


def validate_record(record: Record) -> None:
    if isinstance(record, PingRecord):
        validate_ping(record)
    elif isinstance(record, TracerouteRun):
        validate_traceroute(record)
    else:
        raise InvalidRecord([f"unsupported record type {type(record).__name__}"])


def _normalized(record: Record) -> Record:
    """Record with all addresses in canonical string form."""
    if isinstance(record, PingRecord):
        src, dst = canonical_address(record.source), canonical_address(record.destination)
        if src == record.source and dst == record.destination:
            return record
        return PingRecord(record.timestamp, src, dst, record.status, record.rtt)
    src, dst = canonical_address(record.source), canonical_address(record.destination)
    hops = tuple(
        h if h.address is None or canonical_address(h.address) == h.address
        else Hop(h.hop, h.status, canonical_address(h.address), h.rtt)
        for h in record.hops)
    if src == record.source and dst == record.destination and hops == record.hops:
        return record
    return TracerouteRun(record.timestamp, src, dst, record.round, hops)


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


def serialize_line(record: Record) -> str:
    return json.dumps(to_json_obj(record), separators=(",", ":")) + "\n"


_PING_KEYS = {"timestamp", "source", "destination", "status", "rtt"}
_TRACEROUTE_KEYS = {"timestamp", "source", "destination", "round", "hops"}
_HOP_KEYS = {"hop", "address", "status", "rtt"}


def _map_json_obj(obj) -> Record:
    """Map a parsed JSON document onto a record without validating its
    values; raises MalformedJson for unknown fields and wrong shapes."""
    if not isinstance(obj, dict):
        raise MalformedJson(f"expected a JSON object, got {type(obj).__name__}")
    if "hops" in obj:
        unknown = set(obj) - _TRACEROUTE_KEYS
        if unknown:
            raise MalformedJson(f"unknown traceroute fields: {sorted(unknown)}")
        hops_obj = obj.get("hops")
        if not isinstance(hops_obj, list):
            raise MalformedJson("hops: expected a list")
        hops = []
        for i, h in enumerate(hops_obj):
            if not isinstance(h, dict):
                raise MalformedJson(f"hops[{i}]: expected an object")
            unknown = set(h) - _HOP_KEYS
            if unknown:
                raise MalformedJson(f"hops[{i}]: unknown fields: {sorted(unknown)}")
            hops.append(Hop(h.get("hop"), h.get("status"),
                            h.get("address"), h.get("rtt")))
        return TracerouteRun(obj.get("timestamp"), obj.get("source"),
                             obj.get("destination"), obj.get("round"), tuple(hops))
    unknown = set(obj) - _PING_KEYS
    if unknown:
        raise MalformedJson(f"unknown ping fields: {sorted(unknown)}")
    return PingRecord(obj.get("timestamp"), obj.get("source"),
                      obj.get("destination"), obj.get("status"), obj.get("rtt"))


def from_json_obj(obj) -> Record:
    """Map a parsed JSON document onto a validated, normalized record;
    raises MalformedJson or InvalidRecord (with per-field reasons)."""
    record = _map_json_obj(obj)
    validate_record(record)
    return _normalized(record)


def _loads(line: str):
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise MalformedJson(f"invalid JSON: {exc}") from None


def parse_line(line: str) -> Record:
    return from_json_obj(_loads(line))


@dataclass(frozen=True, slots=True)
class StoreQuery:
    """Filter for store reads; time_range is [start, end) in microseconds."""

    kind: str
    start: int | None = None
    end: int | None = None
    source: str | None = None
    destination: str | None = None

    def __post_init__(self):
        if self.kind not in (KIND_PING, KIND_TRACEROUTE):
            raise ValueError(f"unknown record kind {self.kind!r}")
        if self.start is not None and self.end is not None and self.start >= self.end:
            raise ValueError("time range start must be < end")

    def matches(self, record: Record) -> bool:
        if self.start is not None and record.timestamp < self.start:
            return False
        if self.end is not None and record.timestamp >= self.end:
            return False
        if self.source is not None and record.source != self.source:
            return False
        if self.destination is not None and record.destination != self.destination:
            return False
        return True


_SEGMENT_NAME = re.compile(
    rf"({KIND_PING}|{KIND_TRACEROUTE})-[0-9]+-([0-9]+|open)\.ndjson")


_TIMESTAMP = attrgetter("timestamp")


def _kind_of(record: Record) -> str:
    return KIND_PING if isinstance(record, PingRecord) else KIND_TRACEROUTE


class RecordStore:
    """Append-only store over NDJSON segment files with an in-memory index.

    The index holds one list of records per kind in load, then append
    order; the first query or export after opening or after an older record
    sorts it by timestamp with a stable sort, so equal timestamps keep that
    order (segments load by first timestamp, then by file name). Concurrent
    appends are serialized by a lock; queries take a snapshot and never
    observe a torn record. Segment files are named
    <kind>-<first>-<last>.ndjson by the timestamps they cover (the active
    segment carries the suffix "open" until it is rolled or closed).
    """

    def __init__(self, path: str | Path, *, segment_records: int = 100_000):
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.segment_records = segment_records
        self._lock = threading.Lock()
        self._records: dict[str, list[Record]] = {KIND_PING: [], KIND_TRACEROUTE: []}
        self._sorted = {KIND_PING: False, KIND_TRACEROUTE: False}
        self._active: dict[str, dict] = {}
        self._load()

    def _segment_files(self) -> list[Path]:
        segments = []
        for path in self.path.glob("*.ndjson"):
            if _SEGMENT_NAME.fullmatch(path.name):
                segments.append(path)
            else:
                log.warning("ignoring %s: not a <kind>-<first>-<last|open>.ndjson "
                            "segment", path)
        return sorted(segments, key=lambda p: (p.name.split("-")[0],
                                               int(p.name.split("-")[1]), p.name))

    def _load(self) -> None:
        for path in self._segment_files():
            with path.open("r", encoding="utf-8") as fp:
                last_ts = None
                for line in fp:
                    if not line.strip():
                        continue
                    record = parse_line(line)
                    self._records[_kind_of(record)].append(record)
                    last_ts = record.timestamp
            # Recovery: seal any segment left open by a previous process.
            if path.name.endswith("-open.ndjson") and last_ts is not None:
                first = path.name.split("-")[1]
                kind = path.name.split("-")[0]
                path.rename(self.path / f"{kind}-{first}-{last_ts}.ndjson")
            elif path.name.endswith("-open.ndjson"):
                path.unlink()

    def _open_segment(self, kind: str, first_ts: int) -> dict:
        path = self.path / f"{kind}-{first_ts}-open.ndjson"
        return {"path": path, "fp": path.open("a", encoding="utf-8"),
                "count": 0, "first": first_ts, "last": first_ts}

    def _seal(self, kind: str) -> None:
        seg = self._active.pop(kind, None)
        if seg is None:
            return
        seg["fp"].close()
        final = self.path / f"{kind}-{seg['first']}-{seg['last']}.ndjson"
        seg["path"].rename(final)

    def append(self, record: Record) -> None:
        """Validate, persist and index one record.

        The line is flushed to the operating system before return but not
        fsynced: it survives a crash of this process, not of the machine.
        """
        validate_record(record)
        record = _normalized(record)
        kind = _kind_of(record)
        line = serialize_line(record)
        with self._lock:
            seg = self._active.get(kind)
            if seg is None:
                seg = self._open_segment(kind, record.timestamp)
                self._active[kind] = seg
            seg["fp"].write(line)
            seg["fp"].flush()
            seg["count"] += 1
            seg["last"] = record.timestamp
            entries = self._records[kind]
            if entries and entries[-1].timestamp > record.timestamp:
                self._sorted[kind] = False
            entries.append(record)
            if seg["count"] >= self.segment_records:
                self._seal(kind)

    def close(self) -> None:
        with self._lock:
            for kind in list(self._active):
                self._seal(kind)

    def __enter__(self) -> "RecordStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def count(self, kind: str | None = None) -> int:
        with self._lock:
            if kind is None:
                return sum(len(v) for v in self._records.values())
            return len(self._records[kind])

    def _snapshot(self, kind: str) -> list[Record]:
        with self._lock:
            if not self._sorted[kind]:
                self._records[kind].sort(key=_TIMESTAMP)
                self._sorted[kind] = True
            return list(self._records[kind])

    def query(self, q: StoreQuery) -> list[Record]:
        """Matching records ordered by timestamp (stable across calls)."""
        return [rec for rec in self._snapshot(q.kind) if q.matches(rec)]

    def iter_canonical(self) -> Iterator[Record]:
        """All records in export order: by timestamp; at equal timestamps
        pings before traceroute runs, then each kind's index order."""
        return heapq.merge(self._snapshot(KIND_PING),
                           self._snapshot(KIND_TRACEROUTE), key=_TIMESTAMP)

    def export(self, fp: IO[str]) -> int:
        """Write the canonical NDJSON stream; returns the record count."""
        n = 0
        for record in self.iter_canonical():
            fp.write(serialize_line(record))
            n += 1
        return n

    def import_json(self, stream: IO[str] | Iterable[str]) -> tuple[int, list[tuple[int, str]]]:
        """Ingest newline-delimited or array-wrapped JSON documents.

        Returns (accepted count, [(document index, reason), ...]); rejected
        documents are reported, never silently skipped. Each document is
        mapped onto the schema here and validated once, by append.
        """
        if hasattr(stream, "read"):
            text = stream.read()
        else:
            text = "".join(stream)
        is_array = text.lstrip().startswith("[")
        if is_array:
            try:
                documents = enumerate(json.loads(text))
            except json.JSONDecodeError as exc:
                return 0, [(0, f"invalid JSON array: {exc}")]
        else:
            documents = ((i, line) for i, line in enumerate(text.splitlines())
                         if line.strip())
        rejects: list[tuple[int, str]] = []
        accepted = 0
        for i, document in documents:
            try:
                self.append(_map_json_obj(document if is_array else _loads(document)))
                accepted += 1
            except (MalformedJson, InvalidRecord) as exc:
                rejects.append((i, str(exc)))
        return accepted, rejects
