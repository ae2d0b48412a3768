"""Measurement record model and the append-only NDJSON record store.

Canonical interchange schema (one JSON document per line):

  ping        {"timestamp": µs, "source": ip, "destination": ip,
               "status": 0|1|255, "rtt": µs}           rtt only when status 255
  traceroute  {"timestamp": µs, "source": ip, "destination": ip, "round": n,
               "hops": [{"hop": k, "address": ip, "status": s, "rtt": µs}]}
               address and rtt omitted when a hop's status is 0

Addresses are rendered canonically (compressed lower-case for v6). In
memory, records are immutable named tuples, and unpacking follows the field
order of the classes below, not the JSON order: PingRecord(timestamp,
source, destination, status, rtt), Hop(hop, status, address, rtt) and
TracerouteRun(timestamp, source, destination, round, hops). The store keeps
records in segment files named by the time range they cover and is strictly
append-only.
"""

from __future__ import annotations

import bisect
import heapq
import ipaddress
import itertools
import json
import logging
import math
import os
import re
import sys
import threading
from contextlib import closing
from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple

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
# generated __new__'s argument handling; only the single-pass decoders use it.
_new = tuple.__new__


@lru_cache(maxsize=65536)
def _address_info(address: str) -> tuple[int, str]:
    """(family version, canonical form); cached, addresses repeat heavily.
    The canonical form is interned, so every spelling of one address
    yields one string object."""
    parsed = ipaddress.ip_address(address)
    return parsed.version, sys.intern(str(parsed))


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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_status(value) -> bool:
    return _is_int(value) and value in VALID_STATUSES


def _check_int(value, field: str, problems: list[str], minimum: int | None = None):
    if not _is_int(value):
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
    if not _is_status(record.status):
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
        if not _is_int(hop.hop) or hop.hop != i + 1:
            problems.append(f"{where}.hop: expected {i + 1}, got {hop.hop!r}")
        if not _is_status(hop.status):
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


# The single-pass decoders below return None for any document they do not
# accept; from_json_obj then takes the slow path. Once the required fields
# are present and not null, the field count rules out unknown keys. They
# build each record with _new from fields they have checked.

def _decode_endpoints(source, destination) -> tuple[str, str] | None:
    if type(source) is not str or type(destination) is not str:
        return None
    try:
        src, dst = _address_info(source), _address_info(destination)
    except ValueError:
        return None
    return (src[1], dst[1]) if src[0] == dst[0] else None


def _decode_ping(obj: dict) -> PingRecord | None:
    timestamp, status, rtt = obj.get("timestamp"), obj.get("status"), obj.get("rtt")
    if type(timestamp) is not int or timestamp < 1 or type(status) is not int:
        return None
    if status == STATUS_ECHO_REPLY:
        if type(rtt) is not int or rtt < 0 or len(obj) != 5:
            return None
    elif status != STATUS_TIMEOUT and status != STATUS_TIME_EXCEEDED or len(obj) != 4:
        return None
    endpoints = _decode_endpoints(obj.get("source"), obj.get("destination"))
    if endpoints is None:
        return None
    return _new(PingRecord, (timestamp, *endpoints, status, rtt))


def _decode_run(obj: dict) -> TracerouteRun | None:
    timestamp, round_, hops_obj = obj.get("timestamp"), obj.get("round"), obj.get("hops")
    if (len(obj) != 5 or type(timestamp) is not int or timestamp < 1
            or type(round_) is not int or round_ < 0 or type(hops_obj) is not list
            or not hops_obj):
        return None
    endpoints = _decode_endpoints(obj.get("source"), obj.get("destination"))
    if endpoints is None:
        return None
    hops = []
    replied = False
    for number, h in enumerate(hops_obj, 1):
        if replied or type(h) is not dict:
            return None
        hop, status = h.get("hop"), h.get("status")
        if type(hop) is not int or hop != number or type(status) is not int:
            return None
        if status == STATUS_TIMEOUT:
            if len(h) != 2:
                return None
            hops.append(_new(Hop, (number, status, None, None)))
            continue
        address, rtt = h.get("address"), h.get("rtt")
        if (status != STATUS_TIME_EXCEEDED and status != STATUS_ECHO_REPLY
                or len(h) != 4 or type(address) is not str or type(rtt) is not int
                or rtt < 0):
            return None
        try:
            address = _address_info(address)[1]
        except ValueError:
            return None
        hops.append(_new(Hop, (number, status, address, rtt)))
        replied = status == STATUS_ECHO_REPLY
    return _new(TracerouteRun, (timestamp, *endpoints, round_, tuple(hops)))


def from_json_obj(obj) -> Record:
    """Map a parsed JSON document onto a validated, normalized record;
    raises MalformedJson or InvalidRecord (with per-field reasons).

    One pass maps, validates and canonicalizes a well-formed document, with
    addresses from the _address_info cache, so equal addresses share one
    string. A document that pass does not accept goes through
    _map_json_obj, validate_record and _normalized, which decide whether it
    is rejected and with which message; for every document both give the
    same record.
    """
    if type(obj) is dict:
        record = _decode_run(obj) if "hops" in obj else _decode_ping(obj)
        if record is not None:
            return record
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


def _is_json(line: bytes) -> bool:
    try:
        json.loads(line)
    except ValueError:
        return False
    return True


@dataclass(frozen=True, slots=True)
class StoreQuery:
    """Filter for store reads; time_range is [start, end) in microseconds.

    source and destination match any spelling of an address: they are kept
    in canonical form, as stored records are."""

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
        for name in ("source", "destination"):
            address = getattr(self, name)
            if address is not None:
                object.__setattr__(self, name, canonical_address(address))

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
    rf"(?P<kind>{KIND_PING}|{KIND_TRACEROUTE})-(?P<first>[0-9]+)-"
    rf"(?:(?P<last>[0-9]+)(?:-(?P<n>[1-9][0-9]*))?|open)\.ndjson")


_TIMESTAMP = attrgetter("timestamp")
_LOAD_KEY = itemgetter(0)


def _kind_of(record: Record) -> str:
    return KIND_PING if isinstance(record, PingRecord) else KIND_TRACEROUTE


def _load_key(match: re.Match) -> tuple[int, str, int]:
    """Segments of one kind load by first timestamp, then by name, then by
    collision suffix, so a suffixed segment loads after the one it
    collided with."""
    stem = f"{match['kind']}-{match['first']}-{match['last'] or 'open'}"
    return int(match["first"]), stem, int(match["n"] or 0)


def _segment_record(line: bytes, kind: str, path: Path, where: int | str) -> Record:
    """Decode and validate one line of a segment of the given kind; the
    StoreError raised for a bad line names the file and the line."""
    try:
        record = parse_line(line.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise StoreError(f"{path}:{where}: not UTF-8: {exc}") from None
    except StoreError as exc:
        raise StoreError(f"{path}:{where}: {exc}") from exc
    if _kind_of(record) != kind:
        raise StoreError(f"{path}:{where}: a {_kind_of(record)} record in a "
                         f"{kind} segment")
    return record


def _last_line(fp: IO[bytes], end: int) -> tuple[int, bytes]:
    """(offset, bytes) of the last line of fp[:end]; only that line is read."""
    data = b""
    pos = end
    while pos > 0:
        step = min(4096, pos)
        pos -= step
        fp.seek(pos)
        data = fp.read(step) + data
        cut = data.rfind(b"\n", 0, len(data) - 1)
        if cut >= 0:
            return pos + cut + 1, data[cut + 1:]
    return 0, data


def _splitlines(chunks: Iterable[str]) -> Iterator[str]:
    """The lines of str.splitlines over the concatenation of chunks, each
    yielded once it is complete. A chunk's last line is held back unless it
    ends in "\\n": the next chunk may continue it, or turn its "\\r" into
    "\\r\\n"."""
    rest = ""
    for chunk in chunks:
        lines = (rest + chunk).splitlines(True)
        rest = "" if not lines or lines[-1].endswith("\n") else lines.pop()
        for line in lines:
            yield line[:-2] if line.endswith("\r\n") else line[:-1]
    yield from rest.splitlines()


def _lines_within(fp: IO[bytes], size: int) -> Iterator[bytes]:
    """The lines of fp's first size bytes, never reading past them."""
    while size > 0:
        line = fp.readline(size)
        if not line:
            return
        size -= len(line)
        yield line


class RecordStore:
    """Append-only store over NDJSON segment files, one record kind each.

    Segment files are named <kind>-<first>-<last>.ndjson by the timestamps
    of their first and last lines; the active segment carries the suffix
    "open" until it is rolled or closed, and a name already taken gets a
    -<n> suffix instead of replacing the file. Opening lists the segments
    and reads no records: it only seals segments an earlier process left
    open, reading their last line. Every read (query, count, export) reads
    the segments of the kinds it needs, line by line, and query and export
    validate every line they read. Records with equal timestamps keep the
    load order: segments by first timestamp, then by name, then by suffix,
    lines in file order. The active segment takes the place its sealed name
    will give it, so this order is the same within a process and after a
    reopen. Concurrent appends are serialized by a lock; a read sees the
    active segment as it was when the read started and never a torn record.
    """

    def __init__(self, path: str | Path, *, segment_records: int = 100_000):
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.segment_records = segment_records
        self._lock = threading.Lock()
        self._sealed: dict[str, list[tuple[tuple, Path]]] = {
            KIND_PING: [], KIND_TRACEROUTE: []}
        self._active: dict[str, dict] = {}
        left_open = []
        for path in list(self.path.glob("*.ndjson")):
            match = _SEGMENT_NAME.fullmatch(path.name)
            if match is None:
                log.warning("ignoring %s: not a <kind>-<first>-<last|open>.ndjson "
                            "segment", path)
            elif match["last"] is None:
                left_open.append((_load_key(match), match["kind"], path))
            else:
                self._sealed[match["kind"]].append((_load_key(match), path))
        for segments in self._sealed.values():
            segments.sort(key=_LOAD_KEY)
        for (first, _, _), kind, path in sorted(left_open, key=_LOAD_KEY):
            self._recover(path, kind, first)

    def _recover(self, path: Path, kind: str, first: int) -> None:
        """Seal a segment an earlier process left open, named by the
        timestamp of its last line; a torn last line (no newline, not JSON)
        is truncated away first, and an empty segment is deleted."""
        last = None
        with path.open("r+b") as fp:
            end = fp.seek(0, os.SEEK_END)
            while end > 0 and last is None:
                start, line = _last_line(fp, end)
                if line.isspace():
                    pass
                elif not line.endswith(b"\n") and not _is_json(line):
                    fp.truncate(start)
                    log.warning("%s: dropped a torn last line of %d bytes",
                                path, end - start)
                else:
                    last = _segment_record(line, kind, path, "last line").timestamp
                end = start
        if last is None:
            path.unlink()
        else:
            self._seal_file(path, kind, first, last)

    def _open_segment(self, kind: str, first_ts: int) -> dict:
        path = self.path / f"{kind}-{first_ts}-open.ndjson"
        return {"path": path, "fp": path.open("ab"), "count": 0, "size": 0,
                "first": first_ts, "last": first_ts}

    def _seal_file(self, path: Path, kind: str, first: int, last: int) -> None:
        """Move a finished segment to its final name without replacing an
        existing file: a taken name gets the first free -<n> suffix.

        The move links the final name, then unlinks the old one. A name
        that is already a link to this file is a move an earlier process
        did not finish; that name was listed at open, so only the unlink is
        left to do. Where the file
        system has no hard links, the move is a rename to a name that does
        not exist yet."""
        stem = f"{kind}-{first}-{last}"
        n = 0
        while True:
            final = self.path / (f"{stem}-{n}.ndjson" if n else f"{stem}.ndjson")
            try:
                os.link(path, final)
            except FileExistsError:
                if os.path.samefile(path, final):
                    path.unlink()
                    return
            except OSError:
                if not final.exists():
                    path.rename(final)
                    break
            else:
                path.unlink()
                break
            n += 1
        bisect.insort(self._sealed[kind], ((first, stem, n), final), key=_LOAD_KEY)

    def _seal(self, kind: str) -> None:
        seg = self._active.pop(kind, None)
        if seg is None:
            return
        seg["fp"].close()
        self._seal_file(seg["path"], kind, seg["first"], seg["last"])

    def append(self, record: Record) -> None:
        """Validate and persist one record.

        The line is flushed to the operating system before return but not
        fsynced: it survives a crash of this process, not of the machine.
        """
        validate_record(record)
        record = _normalized(record)
        kind = _kind_of(record)
        line = serialize_line(record).encode()
        with self._lock:
            seg = self._active.get(kind)
            if seg is None:
                seg = self._open_segment(kind, record.timestamp)
                self._active[kind] = seg
            seg["fp"].write(line)
            seg["fp"].flush()
            seg["count"] += 1
            seg["size"] += len(line)
            seg["last"] = record.timestamp
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

    def _segment_lines(self, kind: str) -> Iterator[tuple[Path, Iterable[bytes]]]:
        """(segment, its lines) for each of kind's segments in load order;
        of the active segment, only the bytes appended before this started."""
        with self._lock:
            segments = [(key, path, None) for key, path in self._sealed[kind]]
            seg = self._active.get(kind)
            if seg is not None:
                active = seg["path"].open("rb")
                key = (seg["first"], f"{kind}-{seg['first']}-{seg['last']}", math.inf)
                bisect.insort(segments, (key, seg["path"], (active, seg["size"])),
                              key=_LOAD_KEY)
        try:
            for _, path, written in segments:
                if written is None:
                    with path.open("rb") as fp:
                        yield path, fp
                else:
                    yield path, _lines_within(*written)
        finally:
            if seg is not None:
                active.close()

    def _read(self, kind: str, keep=None) -> list[Record]:
        """Records of one kind that keep accepts, each line validated,
        stable-sorted by timestamp from load order."""
        records = []
        with closing(self._segment_lines(kind)) as segments:
            for path, lines in segments:
                for number, line in enumerate(lines, 1):
                    if line.isspace():
                        continue
                    record = _segment_record(line, kind, path, number)
                    if keep is None or keep(record):
                        records.append(record)
        records.sort(key=_TIMESTAMP)
        return records

    def count(self, kind: str | None = None) -> int:
        """Non-blank lines in the segments of kind (of both kinds for
        None), counted without decoding them."""
        if kind is None:
            return self.count(KIND_PING) + self.count(KIND_TRACEROUTE)
        with closing(self._segment_lines(kind)) as segments:
            return sum(not line.isspace() for _, lines in segments for line in lines)

    def query(self, q: StoreQuery) -> list[Record]:
        """Matching records ordered by timestamp, then load order; reads and
        validates every line of q.kind's segments and no other segment."""
        return self._read(q.kind, q.matches)

    def iter_canonical(self) -> Iterator[Record]:
        """All records in export order: by timestamp; at equal timestamps
        pings before traceroute runs, then each kind's load order."""
        return heapq.merge(self._read(KIND_PING), self._read(KIND_TRACEROUTE),
                           key=_TIMESTAMP)

    def export(self, fp: IO[str]) -> int:
        """Write the canonical NDJSON stream; returns the record count.

        Reads and validates every line of both kinds' segments; a bad line
        fails the export before anything is written."""
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

        Newline-delimited input is read, and each document stored, one line
        at a time; only input whose first non-blank character is "[" is read
        whole. An array's documents are indexed by position; otherwise the
        documents and their indexes are the lines of str.splitlines over
        the whole input, blank lines counted.
        """
        chunks = iter(stream)
        head = []
        for chunk in chunks:
            head.append(chunk)
            if chunk.strip():
                break
        head = "".join(head)
        is_array = head.lstrip().startswith("[")
        if is_array:
            text = head + (stream.read() if hasattr(stream, "read") else "".join(chunks))
            try:
                documents = enumerate(json.loads(text))
            except json.JSONDecodeError as exc:
                return 0, [(0, f"invalid JSON array: {exc}")]
        else:
            documents = ((i, line) for i, line in
                         enumerate(_splitlines(itertools.chain((head,), chunks)))
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
