"""Segments as columns: the form every read takes, the columnar file format,
its writer, and its checked reader.

A sealed segment <stem>.col holds its records as columns:

  magic   b"contrace columns\n"
  crc     uint32, little-endian: CRC32 of every byte after it
  size    uint32, little-endian: byte length of the header
  header  JSON: format version, kind, byte order of the columns, record
          count, min and max timestamp, whether the timestamps are sorted,
          the pair dictionary [[source, destination, records], ...], for
          traceroutes the path dictionary [[[hop, status, address], ...],
          ...], and per column [name, typecode, bytes]
  body    the columns in order: array.tobytes() of typecode b, h, i or q,
          the narrowest that holds every value, or a JSON array of
          integers when none does

Pings have the columns timestamp, pair, status and rtt (-1 where the
status is not 255). Traceroute runs have timestamp, pair, round, path and
rtt: the RTT of each responsive hop of each run's path, in row and hop
order, so a row's RTTs start where the previous rows' paths end.

An NDJSON segment is read in the same form: its decoded records are added
to a Segment held in memory.
"""

from __future__ import annotations

import heapq
import json
import os
import struct
import sys
import zlib
from array import array
from collections import Counter
from functools import partial
from itertools import accumulate, compress, islice
from operator import itemgetter, le
from pathlib import Path
from typing import Callable, Iterator, Sequence

from .records import (KIND_PING, KIND_TRACEROUTE, STATUS_ECHO_REPLY, STATUS_TIMEOUT,
                      VALID_STATUSES, Hop, PathRuns, PingRecord, Record, StoreError,
                      StoreQuery, TracerouteRun, _ENCODE, _new, _put, from_json_obj)

_MAGIC = b"contrace columns\n"
_PREFIX = struct.Struct("<II")
_FORMAT_VERSION = 1
SUFFIX = ".col"
TEMP_SUFFIX = ".col.tmp"
_COLUMN_NAMES = {KIND_PING: ("timestamp", "pair", "status", "rtt"),
                 KIND_TRACEROUTE: ("timestamp", "pair", "round", "path", "rtt")}
_FIRST = itemgetter(0)
_HEADER_KEYS = {"version", "kind", "byteorder", "count", "min", "max", "sorted",
                "pairs", "columns"}
_TYPECODES = ("b", "h", "i", "q")
_JSON_COLUMN = "json"


def _json_literal(text: str) -> str:
    """text as a JSON string, escaped for use in a %-format."""
    return _ENCODE(text).replace("%", "%%")


# Canonical lines, the form export writes, are built from %-formats, one per
# pair and ping status or per pair and path, so a line costs one % operation.

def _pair_prefix(source: str, destination: str) -> str:
    """%-format of the start of a canonical line; takes the timestamp."""
    return (f'{{"timestamp":%d,"source":{_json_literal(source)},'
            f'"destination":{_json_literal(destination)}')


def _ping_format(prefix: str, status: int) -> str:
    """%-format of a ping's canonical line: prefix's timestamp, then the
    rtt if status is 255."""
    if status == STATUS_ECHO_REPLY:
        return prefix + ',"status":%d,"rtt":%%d}\n' % status
    return prefix + ',"status":%d}\n' % status


def _run_format(prefix: str, statuses: Sequence[int],
                addresses: Sequence[str | None]) -> str:
    """%-format of a traceroute run's canonical line: prefix's timestamp,
    the round, then the rtt of each responsive hop."""
    hops = ",".join(
        '{"hop":%d,"status":%d}' % (hop, status) if status == STATUS_TIMEOUT else
        '{"hop":%d,"address":%s,"status":%d,"rtt":%%d}' % (hop, _json_literal(address),
                                                          status)
        for hop, (status, address) in enumerate(zip(statuses, addresses), 1))
    return prefix + ',"round":%d,"hops":[' + hops + ']}\n'


def write(path: Path, segment: Segment) -> None:
    """Write segment to path as a columnar file and fsync it."""
    specs, bodies = [], []
    for name, values in zip(_COLUMN_NAMES[segment.kind], segment.columns()):
        if type(values) is list:
            code, body = _JSON_COLUMN, _ENCODE(values).encode()
        else:
            code, body = values.typecode, values
        specs.append([name, code, memoryview(body).nbytes])
        bodies.append(body)
    header = {"version": _FORMAT_VERSION, "kind": segment.kind, "byteorder": sys.byteorder,
              "count": segment.count, "min": segment.min, "max": segment.max,
              "sorted": segment.sorted,
              "pairs": [[source, destination, segment.pair_counts[i]]
                        for i, (source, destination) in enumerate(segment.pairs)],
              "columns": specs}
    if segment.kind == KIND_TRACEROUTE:
        header["paths"] = [list(zip(range(1, len(statuses) + 1), statuses, addresses))
                           for statuses, addresses in segment.keys]
    head = _ENCODE(header).encode()
    crc = zlib.crc32(head, zlib.crc32(struct.pack("<I", len(head))))
    for body in bodies:
        crc = zlib.crc32(body, crc)
    with open(path, "wb") as fp:
        fp.write(_MAGIC + _PREFIX.pack(crc, len(head)) + head)
        for body in bodies:
            fp.write(body)
        fp.flush()
        os.fsync(fp.fileno())


class _Corrupt(Exception):
    """A columnar segment breaks a rule of its format."""


def _require(condition, problem: str) -> None:
    if not condition:
        raise _Corrupt(problem)


def _count_at_least(value, minimum: int) -> bool:
    return type(value) is int and value >= minimum


def _decoded(document: dict, what: str) -> Record:
    try:
        return from_json_obj(document)
    except StoreError as exc:
        raise _Corrupt(f"{what}: {exc}") from None


def _checked_pair(entry) -> tuple[str, str]:
    """(source, destination) of a pair dictionary entry, checked as a
    document's source and destination are."""
    _require(type(entry) is list and len(entry) == 3 and _count_at_least(entry[2], 1),
             f"pair {entry!r}: expected [source, destination, records]")
    source, destination, _ = entry
    record = _decoded({"timestamp": 1, "source": source, "destination": destination,
                       "status": STATUS_TIMEOUT}, f"pair {entry!r}")
    _require((record.source, record.destination) == (source, destination),
             f"pair {entry!r}: addresses not canonical")
    return source, destination


def _checked_path(entry) -> tuple[tuple[int, ...], tuple[str | None, ...]]:
    """The (statuses, addresses) of a path dictionary entry, checked as the
    hops of a document are."""
    _require(type(entry) is list and all(type(h) is list and len(h) == 3 for h in entry),
             f"path {entry!r}: expected [[hop, status, address], ...]")
    hops = []
    for number, status, address in entry:
        hop = {"hop": number, "status": status}
        if address is not None:
            hop["address"] = address
        if status != STATUS_TIMEOUT:
            hop["rtt"] = 0
        hops.append(hop)
    run = _decoded({"timestamp": 1, "source": "0.0.0.1", "destination": "0.0.0.1",
                    "round": 0, "hops": hops}, f"path {entry!r}")
    path = tuple(hop[:3] for hop in run.hops)
    _require(path == tuple(map(tuple, entry)), f"path {entry!r}: addresses not canonical")
    return tuple(zip(*path))[1:]


class Segment:
    """One segment of one kind as columns, with the facts a read prunes by:
    count, min and max timestamp (None with no rows), sorted, the pairs and
    their counts, and for traceroutes each path's key (statuses, addresses)
    and width (responsive hops). Segment(kind) is empty; add() appends a
    validated record, widening a column only as its values demand.
    Segment.load(path, kind) opens a columnar file and checks its CRC, its
    header, and each pair and path with the rules of from_json_obj;
    columns() checks every value. Any fault is a StoreError naming the
    file."""

    def __init__(self, kind: str):
        self.kind, self.path = kind, None
        self.count, self.min, self.max, self.sorted = 0, None, None, True
        self.pairs: list[tuple[str, str]] = []
        self.pair_counts: list[int] = []
        self.keys: list[tuple[tuple, tuple]] = []
        self.widths: list[int] = []
        self._columns: list | None = [array("b") for _ in _COLUMN_NAMES[kind]]
        self._pair_ids: dict[tuple[str, str], int] = {}
        self._path_ids: dict[tuple[tuple, tuple], int] = {}
        self._formats: dict[tuple, str] = {}

    @classmethod
    def load(cls, path: Path, kind: str) -> Segment:
        segment = cls(kind)
        segment.path, segment._columns = path, None
        try:
            with open(path, "rb") as fp:
                segment._read(fp)
        except _Corrupt as exc:
            raise StoreError(f"{path}: {exc}") from None
        return segment

    def line(self, record: Record) -> str:
        """The canonical line of record, from a %-format kept per pair and
        ping status or per pair and path."""
        pair = (record.source, record.destination)
        if self.kind == KIND_PING:
            key = (pair, record.status)
            line = self._formats.get(key)
            if line is None:
                line = self._formats[key] = _ping_format(_pair_prefix(*pair), record.status)
            if record.rtt is None:
                return line % record.timestamp
            return line % (record.timestamp, record.rtt)
        _, statuses, addresses, rtts = zip(*record.hops)
        key = (pair, statuses, addresses)
        line = self._formats.get(key)
        if line is None:
            line = self._formats[key] = _run_format(_pair_prefix(*pair), statuses, addresses)
        return line % (record.timestamp, record.round, *compress(rtts, statuses))

    def add(self, record: Record) -> None:
        """Append record's row, keeping count, min, max, sorted and the
        pair counts current."""
        pair = (record.source, record.destination)
        pair_id = self._pair_ids.get(pair)
        if pair_id is None:
            pair_id = self._pair_ids[pair] = len(self.pairs)
            self.pairs.append(pair)
            self.pair_counts.append(0)
        timestamp = record.timestamp
        if self.kind == KIND_PING:
            rtt = record.rtt
            row = (timestamp, pair_id, record.status, -1 if rtt is None else rtt)
            rtts = ()
        else:
            _, statuses, addresses, hop_rtts = zip(*record.hops)
            key = (statuses, addresses)
            path_id = self._path_ids.get(key)
            if path_id is None:
                path_id = self._path_ids[key] = len(self.keys)
                self.keys.append(key)
                self.widths.append(len(statuses) - statuses.count(STATUS_TIMEOUT))
            row = (timestamp, pair_id, record.round, path_id)
            rtts = list(compress(hop_rtts, statuses))  # a hop has an rtt iff status > 0
        columns = self._columns
        n, rtts_before = self.count, len(columns[-1])
        try:
            columns[0].append(row[0])
            columns[1].append(row[1])
            columns[2].append(row[2])
            columns[3].append(row[3])
            columns[-1].extend(rtts)
        except OverflowError:
            for column in columns[:-1]:
                del column[n:]
            del columns[-1][rtts_before:]
            for i, value in enumerate(row):
                _put(columns, i, (value,))
            _put(columns, -1, rtts)
        self.pair_counts[pair_id] += 1
        self.count = n + 1
        if n and timestamp < columns[0][n - 1]:
            self.sorted = False
        self.min = timestamp if n == 0 or timestamp < self.min else self.min
        self.max = timestamp if n == 0 or timestamp > self.max else self.max

    def _read(self, fp) -> None:
        """Read the header and the columns, each column straight into its
        array; check the CRC over both, then the header."""
        prefix = fp.read(len(_MAGIC) + _PREFIX.size)
        _require(prefix.startswith(_MAGIC) and len(prefix) == len(_MAGIC) + _PREFIX.size,
                 "not a columnar segment")
        crc, size = _PREFIX.unpack_from(prefix, len(_MAGIC))
        head = fp.read(size)
        try:
            header = json.loads(head)
        except ValueError as exc:
            raise _Corrupt(f"header: {exc}") from None
        keys = _HEADER_KEYS | ({"paths"} if self.kind == KIND_TRACEROUTE else set())
        _require(type(header) is dict and header.keys() == keys, "header: wrong fields")
        specs = header["columns"]
        _require(type(specs) is list and len(specs) == len(_COLUMN_NAMES[self.kind])
                 and all(type(spec) is list and len(spec) == 3 and spec[0] == name
                         and (spec[1] == _JSON_COLUMN or spec[1] in _TYPECODES)
                         and _count_at_least(spec[2], 0)
                         for spec, name in zip(specs, _COLUMN_NAMES[self.kind])),
                 "header: bad column list")
        check = zlib.crc32(head, zlib.crc32(prefix[-4:]))
        self._raw = []
        for name, code, size in specs:
            if code == _JSON_COLUMN:
                values = fp.read(size)
                read = len(values)
            else:
                itemsize = array(code).itemsize
                _require(size % itemsize == 0, f"column {name}: partial item")
                values = array(code, [0]) * (size // itemsize)
                read = fp.readinto(values)
            _require(read == size, f"column {name}: truncated")
            check = zlib.crc32(values, check)
            self._raw.append(values)
        rest = fp.read()
        _require(zlib.crc32(rest, check) == crc, "CRC mismatch")
        _require(not rest, "bytes after the columns")
        _require(_count_at_least(header["version"], 0)
                 and header["version"] == _FORMAT_VERSION,
                 f"format version {header['version']!r} is not {_FORMAT_VERSION}")
        _require(header["kind"] == self.kind, f"a {header['kind']!r} segment")
        _require(header["byteorder"] in ("little", "big"), "header: unknown byte order")
        self._swap = header["byteorder"] != sys.byteorder
        self.count, self.min, self.max = header["count"], header["min"], header["max"]
        _require(_count_at_least(self.count, 1) and _count_at_least(self.min, 1)
                 and _count_at_least(self.max, self.min), "header: bad count, min or max")
        self.sorted = header["sorted"]
        _require(type(self.sorted) is bool, "header: sorted is not a boolean")
        _require(type(header["pairs"]) is list and header["pairs"], "header: no pairs")
        self.pairs = [_checked_pair(entry) for entry in header["pairs"]]
        self.pair_counts = [entry[2] for entry in header["pairs"]]
        _require(sum(self.pair_counts) == self.count,
                 "header: pair counts do not add up to the count")
        if self.kind == KIND_TRACEROUTE:
            _require(type(header["paths"]) is list and header["paths"], "header: no paths")
            self.keys = [_checked_path(entry) for entry in header["paths"]]
            self.widths = [len(statuses) - statuses.count(STATUS_TIMEOUT)
                           for statuses, _ in self.keys]

    def opener(self) -> Callable[[], Segment]:
        """A function that gives this segment to a later read: a file is
        opened again, so its columns are not held until then; a segment
        held in memory is given as it is."""
        if self.path is None:
            return lambda: self
        return partial(Segment.load, self.path, self.kind)

    def columns(self) -> list:
        if self._columns is None:
            try:
                self._columns = self._decode()
            except _Corrupt as exc:
                raise StoreError(f"{self.path}: {exc}") from None
        return self._columns

    def _decode(self) -> list:
        columns = []
        for name, values in zip(_COLUMN_NAMES[self.kind], self._raw):
            if type(values) is bytes:
                try:
                    values = json.loads(values)
                except ValueError:
                    values = None
                _require(type(values) is list and all(type(v) is int for v in values),
                         f"column {name}: not a JSON array of integers")
            elif self._swap:
                values.byteswap()
            columns.append(values)
        self._raw = None
        *rows, rtts = columns
        if self.kind == KIND_PING:
            rows.append(rtts)
        _require(all(len(column) == self.count for column in rows),
                 "columns: length differs from the count")
        times, pair_ids = columns[0], columns[1]
        _require(min(times) == self.min and max(times) == self.max,
                 "timestamp: min or max differs from the header")
        _require(not self.sorted or all(map(le, times, islice(times, 1, None))),
                 "timestamp: not sorted")
        _require(Counter(pair_ids) == dict(enumerate(self.pair_counts)),
                 "pair: ids out of range or counts differ from the header")
        if self.kind == KIND_PING:
            statuses = columns[2]
            _require(set(statuses) <= set(VALID_STATUSES), "status: not 0, 1 or 255")
            _require(min(compress(rtts, map(STATUS_ECHO_REPLY.__eq__, statuses)),
                         default=0) >= 0, "rtt: negative")
            _require(set(compress(rtts, map(STATUS_ECHO_REPLY.__ne__, statuses))) <= {-1},
                     "rtt: present where the status is not 255")
        else:
            rounds, path_ids = columns[2], columns[3]
            _require(min(rounds) >= 0, "round: negative")
            _require(min(path_ids) >= 0 and max(path_ids) < len(self.keys),
                     "path: id out of range")
            _require(len(rtts) == sum(map(self.widths.__getitem__, path_ids)),
                     "rtt: length differs from the paths' responsive hops")
            _require(min(rtts, default=0) >= 0, "rtt: negative")
        return columns

    def _offsets(self) -> list[int]:
        """Where each run's RTTs start in the rtt column, plus the end."""
        return list(accumulate(map(self.widths.__getitem__, self.columns()[3]),
                               initial=0))

    def rows(self, q: StoreQuery) -> Sequence[int]:
        """Indexes of the rows q selects. The column values are checked
        only if the pair dictionary and the time range leave any rows."""
        wanted = [i for i, (source, destination) in enumerate(self.pairs)
                  if q.matches_pair(source, destination)]
        if not wanted:  # also for a segment with no rows, which has no pairs
            return ()
        start = self.min if q.start is None else q.start
        end = self.max + 1 if q.end is None else q.end
        if start > self.max or end <= self.min:
            return ()
        times, pair_ids = self.columns()[:2]
        if len(wanted) < len(self.pairs):
            wanted = set(wanted)
            return [i for i, (timestamp, pair) in enumerate(zip(times, pair_ids))
                    if pair in wanted and start <= timestamp < end]
        if start <= self.min and end > self.max:
            return range(self.count)
        return [i for i, timestamp in enumerate(times) if start <= timestamp < end]

    def records(self, q: StoreQuery) -> list[Record]:
        """The records of the rows q selects, in row order."""
        rows = self.rows(q)
        if not rows:
            return []
        pairs = self.pairs
        if self.kind == KIND_PING:
            times, pair_ids, statuses, rtts = self.columns()
            return [_new(PingRecord, (times[i], *pairs[pair_ids[i]], statuses[i],
                                      rtts[i] if statuses[i] == STATUS_ECHO_REPLY
                                      else None))
                    for i in rows]
        times, pair_ids, rounds, path_ids, rtts = self.columns()
        offsets = self._offsets()
        runs = []
        for i in rows:
            k = offsets[i]
            statuses, addresses = self.keys[path_ids[i]]
            hops = []
            for number, (status, address) in enumerate(zip(statuses, addresses), 1):
                if status == STATUS_TIMEOUT:
                    hops.append(_new(Hop, (number, status, None, None)))
                else:
                    hops.append(_new(Hop, (number, status, address, rtts[k])))
                    k += 1
            runs.append(_new(TracerouteRun, (times[i], *pairs[pair_ids[i]], rounds[i],
                                             tuple(hops))))
        return runs

    def group(self, q: StoreQuery, grouped: dict[tuple[str, str], PathRuns]) -> None:
        """Add the runs of the rows q selects to grouped, per pair."""
        rows = self.rows(q)
        if not rows:
            return
        _, pair_ids, _, path_ids, rtts = self.columns()
        if type(rtts) is array and rtts.typecode != "q":
            rtts = array("q", rtts)
        offsets = self._offsets()
        slots: dict[tuple[int, int], tuple[PathRuns, int]] = {}
        for i in rows:
            slot = slots.get((pair_ids[i], path_ids[i]))
            if slot is None:
                pair = self.pairs[pair_ids[i]]
                runs = grouped.get(pair)
                if runs is None:
                    runs = grouped[pair] = PathRuns()
                slot = slots[pair_ids[i], path_ids[i]] = \
                    (runs, runs.path_index(*self.keys[path_ids[i]]))
            runs, index = slot
            runs.counts[index] += 1
            _put(runs.rtts, index, rtts[offsets[i]:offsets[i + 1]])

    def lines(self, rank: int) -> Iterator[tuple[int, int, str]]:
        """(timestamp, rank, canonical line) of every row, by timestamp and
        then row order."""
        columns = self.columns()
        times = columns[0]
        order = range(self.count) if self.sorted else \
            sorted(range(self.count), key=times.__getitem__)
        prefixes = [_pair_prefix(*pair) for pair in self.pairs]
        formats: dict[tuple[int, int], str] = {}
        if self.kind == KIND_PING:
            _, pair_ids, statuses, rtts = columns
            for i in order:
                key = (pair_ids[i], statuses[i])
                line = formats.get(key)
                if line is None:
                    line = formats[key] = _ping_format(prefixes[key[0]], key[1])
                if key[1] == STATUS_ECHO_REPLY:
                    yield times[i], rank, line % (times[i], rtts[i])
                else:
                    yield times[i], rank, line % times[i]
            return
        _, pair_ids, rounds, path_ids, rtts = columns
        offsets = self._offsets()
        for i in order:
            key = (pair_ids[i], path_ids[i])
            line = formats.get(key)
            if line is None:
                line = formats[key] = _run_format(prefixes[key[0]], *self.keys[key[1]])
            yield times[i], rank, line % (times[i], rounds[i],
                                          *rtts[offsets[i]:offsets[i + 1]])


def line_streams(segments: list[tuple]) -> list[Iterator]:
    """Line streams over segments, given as (min, max, rank, opener), where
    opener() gives the Segment: segments whose time ranges do not overlap
    share a stream, which opens them one after another, so a merge of the
    streams holds one segment per stream."""
    chains: list[list[tuple]] = []
    ends: list[tuple[int, int]] = []  # (last max timestamp, chain index)
    for segment in sorted(segments, key=_FIRST):
        if ends and ends[0][0] < segment[0]:
            _, i = heapq.heappop(ends)
            chains[i].append(segment)
        else:
            i = len(chains)
            chains.append([segment])
        heapq.heappush(ends, (segment[1], i))
    return [_chain_lines(chain) for chain in chains]


def _chain_lines(chain: list[tuple]) -> Iterator[tuple[int, int, str]]:
    for _, _, rank, opener in chain:
        yield from opener().lines(rank)
