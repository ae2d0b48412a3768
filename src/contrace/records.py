"""Measurement record model and the append-only NDJSON record store.

Canonical interchange schema (one JSON document per line):

  ping        {"timestamp": µs, "source": ip, "destination": ip,
               "status": 0|1|255, "rtt": µs}           rtt only when status 255
  traceroute  {"timestamp": µs, "source": ip, "destination": ip, "round": n,
               "hops": [{"hop": k, "address": ip, "status": s, "rtt": µs}]}
               address and rtt omitted when a hop's status is 0

Addresses are rendered canonically (compressed lower-case for v6). One
decoder, from_json_obj, maps, validates and canonicalizes a document for
store reads, import and append alike. In memory, records are immutable
named tuples, and unpacking follows the field order of the classes below,
not the JSON order: PingRecord(timestamp, source, destination, status,
rtt), Hop(hop, status, address, rtt) and TracerouteRun(timestamp, source,
destination, round, hops). The store keeps records in segment files named
by the time range they cover and is strictly append-only.
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


def serialize_line(record: Record) -> str:
    return _ENCODE(to_json_obj(record)) + "\n"


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


# The decoders check each field as they read it; a fast check (type(...) is
# int, a cached address) passes only what the check that formats the
# message accepts, and that check runs only when the fast one fails. With
# every required field present and not null, the field count rules out
# unknown fields, so _reject runs only on a failure or an unexpected count.

def _header(obj: dict, problems: list[str]) -> tuple[int, str, str]:
    """The timestamp and the canonical source and destination of either kind."""
    timestamp, source, destination = (obj.get("timestamp"), obj.get("source"),
                                      obj.get("destination"))
    if type(timestamp) is not int or timestamp < 1:
        _check_int(timestamp, "timestamp", problems, 1)
    src_version, source = _check_address(source, "source", problems)
    dst_version, destination = _check_address(destination, "destination", problems)
    if src_version and dst_version and src_version != dst_version:
        problems.append("source and destination are of different IP families")
    return timestamp, source, destination


def _ping_record(obj: dict) -> PingRecord:
    problems: list[str] = []
    timestamp, source, destination = _header(obj, problems)
    status, rtt = obj.get("status"), obj.get("rtt")
    if type(status) is not int and not _is_int(status) or status not in VALID_STATUSES:
        problems.append(f"status: must be one of {VALID_STATUSES}, got {status!r}")
    if status == STATUS_ECHO_REPLY:
        if rtt is None:
            problems.append("rtt: required when status is 255")
        elif type(rtt) is not int or rtt < 0:
            _check_int(rtt, "rtt", problems, 0)
    elif rtt is not None:
        problems.append(f"rtt: must be absent when status is {status}")
    if problems or len(obj) != (4 if rtt is None else 5):
        _reject(obj, problems)
    return _new(PingRecord, (timestamp, source, destination, status, rtt))


def _traceroute_run(obj: dict) -> TracerouteRun:
    problems: list[str] = []
    timestamp, source, destination = _header(obj, problems)
    round_, hops_obj = obj.get("round"), obj.get("hops")
    if type(round_) is not int or round_ < 0:
        _check_int(round_, "round", problems, 0)
    if not isinstance(hops_obj, list):
        _reject(obj, problems)  # raises, as hops is not a list
    if not hops_obj:
        problems.append("hops: must contain at least one hop")
    extra_fields = len(obj) - 5
    hops = []
    replied = False
    for i, h in enumerate(hops_obj):
        if type(h) is not dict and not isinstance(h, dict):
            _reject(obj, problems)  # raises, as this hop is not an object
        hop, status = h.get("hop"), h.get("status")
        address, rtt = h.get("address"), h.get("rtt")
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
        extra_fields += len(h) - (2 if address is None else 4)
        hops.append(_new(Hop, (hop, status, address, rtt)))
    if problems or extra_fields:
        _reject(obj, problems)
    return _new(TracerouteRun, (timestamp, source, destination, round_, tuple(hops)))


def from_json_obj(obj) -> Record:
    """Map a parsed JSON document onto a validated record with canonical
    addresses, in one pass: the one decoder that store reads, import and
    append use. Raises MalformedJson for a document of the wrong shape and
    InvalidRecord, with per-field reasons, for values that break the model.
    Equal addresses share one string from the _address_info cache."""
    if isinstance(obj, dict):
        return _traceroute_run(obj) if "hops" in obj else _ping_record(obj)
    raise MalformedJson(f"expected a JSON object, got {type(obj).__name__}")


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
        """Validate and persist one record as from_json_obj decodes
        to_json_obj(record): with the checks and messages of a JSON document,
        and canonical addresses. The line is flushed to the operating system
        but not fsynced: it survives a crash of this process, not of the
        machine."""
        if not isinstance(record, (PingRecord, TracerouteRun)):
            raise InvalidRecord([f"unsupported record type {type(record).__name__}"])
        self._write(from_json_obj(to_json_obj(record)))

    def _write(self, record: Record) -> None:
        """Persist one record that from_json_obj returned."""
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
        decoded once, by from_json_obj, and written as decoded.

        Newline-delimited input is read, and each document stored, one line
        at a time; only input whose first non-blank character is "[" is read
        whole. An array's documents are indexed by position; otherwise the
        documents and their indexes are the lines of str.splitlines over
        the whole input, blank lines counted. A line holding a lone
        surrogate, which reading bytes that are not UTF-8 with
        errors="surrogateescape" leaves, is rejected as "not UTF-8"; an
        array holding one is rejected whole, at index 0.
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
                text.encode()  # raises for a byte that was not UTF-8
                documents = enumerate(json.loads(text))
            except UnicodeEncodeError:
                return 0, [(0, "not UTF-8")]
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
                if not is_array:
                    document.encode()  # raises for a byte that was not UTF-8
                    document = _loads(document)
                self._write(from_json_obj(document))
                accepted += 1
            except UnicodeEncodeError:
                rejects.append((i, "not UTF-8"))
            except (MalformedJson, InvalidRecord) as exc:
                rejects.append((i, str(exc)))
        return accepted, rejects
