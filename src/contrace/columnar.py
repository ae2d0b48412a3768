"""Segments as columns, one block of rows per (source, destination) pair:
the form every read takes, the columnar file format, its writer, and its
checked reader.

A Segment keeps its rows in one block per pair, the blocks in the order of
their pair's first row. A block keeps its rows in append order; it is
sorted when its timestamps never decrease. Every row also has a tie rank:
its rank among the segment's rows with the same timestamp, in row order.
So ordering a segment's rows by (timestamp, tie rank) orders them by
timestamp and then by row order, though the blocks no longer interleave
the pairs: export and query read a segment in that order. Each read has
one mode. lines, the one row renderer, gives every row of a segment as
canonical lines, in slabs of at most SLAB_ROWS rows, each rendered in
bulk; merge interleaves the slabs of several segments by cutting them at
timestamps (bisect), so export and query handle a run of rows at a time,
not a row. Only group (runs grouped by path) and pings (timestamp and rtt
columns) select rows, by pair and time range; neither builds a record.

A sealed segment <stem>.col, format version 3:

  magic   b"contrace columns\n"
  crc     uint32, little-endian: CRC32 of size and header
  size    uint32, little-endian: byte length of the header
  header  JSON: format version, kind, byte order of the columns, the column
          names, for traceroutes the path dictionary [[[hop, status,
          address], ...], ...], and the blocks [[source, destination,
          records, min, max, sorted, [[typecode, stored bytes, items] per
          column], CRC32 of its stored columns], ...]
  body    each block's stored columns in order, block after block

A column's values are array.tobytes() of typecode b, h, i or q, the
narrowest that holds every value, or, when none does, the JSON array of its
integers, whose items are its bytes. They are stored as
zlib.compress(shuffle(values), 1): shuffle gives byte k of every item, for
k in order (the shuffle filter of Blosc and HDF5), so the like bytes of
neighbouring values meet and compress. A column of one value per row
declares as many items as its block has records.

Pings have the columns timestamp, tie, status and rtt (-1 where the status
is not 255). Traceroute runs have timestamp, tie, round, path and rtt: the
RTT of each responsive hop of each run's path, in row and hop order, so a
row's RTTs start where the previous rows' paths end. The tie column is
written only when some timestamp repeats in the segment; without it every
tie rank is 0.

A read checks the CRC and header of each file it lists. A block it selects
by pair and time range costs one seek and one read, after which its CRC,
pair, paths and every value are checked; in a sorted block a time range is
found by bisection. The CRC covers the stored bytes, so it is checked
before any is inflated. A column is inflated to at most its declared items
(max_length), and one whose stream does not end exactly there, or leaves
bytes over, is a fault: a damaged spec cannot make a read allocate beyond
what the header declares. A block read again, after release() dropped its
columns, is checked by its CRC alone. A file whose blocks are all ruled out
costs its header alone, and so does count().

Files of format version 2 (the blocks of version 3, uncompressed) fail
every read, and a writer's recovery, with a StoreError (refused) that says
to run `contrace upgrade`, which rewrites them as version 3 (see legacy).
Files of version 1 (one CRC over the whole file and a pair column instead
of blocks) fail them, and upgrade too: nothing converts them any more.

An NDJSON segment is read in the same form: its lines are added to a
Segment held in memory, with no JSON decode where they have a known shape.
"""

from __future__ import annotations

import heapq
import json
import os
import re
import struct
import sys
import zlib
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import accumulate, chain, compress, islice, repeat
from operator import add, le, mod, mul
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .records import (KIND_PING, KIND_TRACEROUTE, STATUS_ECHO_REPLY, STATUS_TIME_EXCEEDED,
                      STATUS_TIMEOUT, VALID_STATUSES, PathRuns, PingColumns, Record,
                      StoreError, StoreQuery, _ENCODE, _ping, _run, canonical_address)

_MAGIC = b"contrace columns\n"
_PREFIX = struct.Struct("<II")
_FORMAT_VERSION = 3
SUFFIX = ".col"
TEMP_SUFFIX = ".col.tmp"
_COLUMN_NAMES = {KIND_PING: ("timestamp", "tie", "status", "rtt"),
                 KIND_TRACEROUTE: ("timestamp", "tie", "round", "path", "rtt")}
_TIE = 1  # index of the tie column among a block's columns
_HEADER_KEYS = {"version", "kind", "byteorder", "columns", "blocks"}
# how every version 1 and version 2 header begins, by version
_OLD_HEADS = {1: b'{"version":1,', 2: b'{"version":2,'}
_TYPECODES = ("b", "h", "i", "q")
_ITEMSIZES = {code: array(code).itemsize for code in _TYPECODES}
_JSON_COLUMN = "json"
# items of a column inflated, or read for a check, at a time
_CHUNK = 1 << 13
_WIDER = {"b": "h", "h": "i", "i": "q"}
SLAB_ROWS = 1024  # the most rows a slab of Segment.lines holds
NO_RTT = "%.0s"  # ends a ping's %-format that has no rtt: takes it and prints nothing
# bytes.translate tables: a top byte to 1 if its item is negative, else 0;
# a status's low byte to 1 if the status is not 255, else 0
_NEGATIVE = bytes(byte >> 7 for byte in range(256))
_NOT_ECHO = bytes(int(byte != STATUS_ECHO_REPLY) for byte in range(256))


def _json_literal(text: str) -> str:
    """text as a JSON string, escaped for use in a %-format."""
    return _ENCODE(text).replace("%", "%%")


# Canonical lines, the form export writes, are built from %-formats, one per
# pair and ping status or per pair and path, so a line costs one % operation.
# A format is a pair's prefix and a ping status's or a path's tail.

def _pair_prefix(source: str, destination: str) -> str:
    """%-format of the start of a canonical line; takes the timestamp."""
    return (f'{{"timestamp":%d,"source":{_json_literal(source)},'
            f'"destination":{_json_literal(destination)}')


def _ping_tail(status: int) -> str:
    """%-format of the rest of a ping's canonical line: the rtt if status
    is 255."""
    if status == STATUS_ECHO_REPLY:
        return ',"status":%d,"rtt":%%d}\n' % status
    return ',"status":%d}\n' % status


def _run_tail(statuses: Sequence[int], addresses: Sequence[str | None]) -> str:
    """%-format of the rest of a traceroute run's canonical line: the
    round, then the rtt of each responsive hop."""
    hops = ",".join(
        '{"hop":%d,"status":%d}' % (hop, status) if status == STATUS_TIMEOUT else
        '{"hop":%d,"address":%s,"status":%d,"rtt":%%d}' % (hop, _json_literal(address),
                                                          status)
        for hop, (status, address) in enumerate(zip(statuses, addresses), 1))
    return ',"round":%d,"hops":[' + hops + ']}\n'


_split_numbers = None  # compiled at the first shape(), so a read compiles nothing


def shape(line: str) -> tuple[str, list[str]]:
    """(shape, parts): line with the digits of each timestamp, round and rtt
    replaced by %d, as in a %-format above, and line split around them
    (parts[1::2]). Only 1 to 18 digits with no leading zero, or a 0 but for
    a timestamp, followed by "," or "}", count: others stay in the shape."""
    global _split_numbers
    if _split_numbers is None:
        _split_numbers = re.compile(
            r'":(?:(?<=mp":)(?!0)|(?<=nd":|tt":))(0|[1-9][0-9]{0,17})(?=[,}])').split
    parts = _split_numbers(line)
    return '":%d'.join(parts[::2]), parts


def _compressed(column: bytes | array) -> bytes:
    """zlib.compress(shuffle(raw), 1) of the bytes raw of column, whose
    items are column.itemsize bytes (bytes: 1), where shuffle(raw) is byte
    k of every item, for k in order: each k's bytes are copied out of the
    column at C speed (_bytes_of's slice) and fed to one compressor, so
    neither the shuffled column nor a copy of raw is ever held whole."""
    deflate = zlib.compressobj(1)
    size = column.itemsize if type(column) is array else 1
    if size == 1:
        parts = [deflate.compress(column)]
    else:
        view = memoryview(column).cast("B")
        parts = [deflate.compress(view[k::size].tobytes()) for k in range(size)]
    parts.append(deflate.flush())
    return b"".join(parts)


def write(path: Path, segment: Segment) -> None:
    """Write segment to path as a version 3 columnar file and fsync it.
    Every block's columns must be held, as they are in a segment filled by
    add_rows() or loaded and checked."""
    names = [name for i, name in enumerate(_COLUMN_NAMES[segment.kind])
             if segment.ties or i != _TIE]
    entries, bodies = [], []
    for block in segment.blocks:
        specs, crc = [], 0
        for i, values in enumerate(block.columns):
            if i == _TIE and not segment.ties:
                continue
            if type(values) is list:
                code, values = _JSON_COLUMN, _ENCODE(values).encode()
            else:
                code = values.typecode
            stored = _compressed(values)
            specs.append([code, len(stored), len(values)])
            crc = zlib.crc32(stored, crc)
            bodies.append(stored)
        entries.append([*block.pair, block.count, block.min, block.max, block.sorted,
                        specs, crc])
    header = {"version": _FORMAT_VERSION, "kind": segment.kind,
              "byteorder": sys.byteorder, "columns": names, "blocks": entries}
    if segment.kind == KIND_TRACEROUTE:
        header["paths"] = [list(zip(range(1, len(statuses) + 1), statuses, addresses))
                           for statuses, addresses in segment.keys]
    head = _ENCODE(header).encode()
    crc = zlib.crc32(head, zlib.crc32(struct.pack("<I", len(head))))
    with open(path, "wb") as fp:
        fp.write(_MAGIC + _PREFIX.pack(crc, len(head)) + head)
        for body in bodies:
            fp.write(body)
        fp.flush()
        os.fsync(fp.fileno())


def refused(path: Path, version: int | None) -> StoreError:
    """The error of a read, a writer or upgrade that meets path, a file of an
    older store: of format version 2, which `contrace upgrade` rewrites as
    version 3; or of version 1 or not named <kind>-<id> (None), as stores
    were before ids, which nothing converts any more."""
    problem = "not named <kind>-<id>" if version is None else f"columnar format version {version}"
    if version == 2:
        return StoreError(f"{path}: {problem}; run contrace upgrade --store {path.parent}")
    return StoreError(f"{path}: {problem}, as in a store written before ids; "
                      f"contrace no longer reads or converts such a store")


def _old_version(head: bytes) -> int | None:
    """1 or 2 where a header, or its start, begins as one of that format
    version does, else None."""
    for version, start in _OLD_HEADS.items():
        if head.startswith(start):
            return version
    return None


def old_version(path: Path) -> int | None:
    """The format version, 1 or 2, that the columnar file at path begins
    as, by a peek at its start; None for any other file."""
    with open(path, "rb") as fp:
        start = fp.read(len(_MAGIC) + _PREFIX.size + len(_OLD_HEADS[1]))
    return _old_version(start[len(_MAGIC) + _PREFIX.size:]) if start.startswith(_MAGIC) else None


class _Corrupt(Exception):
    """A columnar segment breaks a rule of its format."""


def _require(condition, problem: str) -> None:
    if not condition:
        raise _Corrupt(problem)


def _checked(check, what: str, *fields) -> Record:
    """check(*fields), for _ping or _run; a problem is a _Corrupt of what."""
    problems: list[str] = []
    record = check(*fields, problems)
    _require(not problems, f"{what}: {'; '.join(problems)}")
    return record


def _check_pair(source, destination) -> None:
    """Check a block's pair as a document's source and destination are."""
    what = f"pair {[source, destination]!r}"
    record = _checked(_ping, what, 1, source, destination, STATUS_TIMEOUT, None)
    _require((record.source, record.destination) == (source, destination),
             f"{what}: addresses not canonical")


def _checked_path(entry) -> tuple[tuple[int, ...], tuple[str | None, ...]]:
    """The (statuses, addresses) of a path dictionary entry, checked as the
    hops of a document are, over its [hop, status, address] triples: hops
    numbered 1, 2, ...; each status 0, 1 or 255, and 255 only last; no
    address where the status is 0, a canonical one elsewhere. An entry that
    fails is checked again as a run's hops (_checked_run_path), which gives
    the message."""
    if type(entry) is list and entry:
        statuses, addresses = [], []
        for number, hop in enumerate(entry, 1):
            if type(hop) is not list or len(hop) != 3:
                break
            hop_number, status, address = hop
            if type(hop_number) is not int or hop_number != number or type(status) is not int:
                break
            if status != STATUS_TIMEOUT:
                if not (status == STATUS_TIME_EXCEEDED
                        or status == STATUS_ECHO_REPLY and number == len(entry)) \
                        or type(address) is not str:
                    break
                try:
                    canonical = canonical_address(address)
                except ValueError:
                    break
                if canonical != address:
                    break
                address = canonical  # interned
            elif address is not None:
                break
            statuses.append(status)
            addresses.append(address)
        else:
            return tuple(statuses), tuple(addresses)
    return _checked_run_path(entry)


def _checked_run_path(entry) -> tuple[tuple[int, ...], tuple[str | None, ...]]:
    """_checked_path(entry) by way of a TracerouteRun of the entry's hops,
    checked by _run: a fault raises a _Corrupt that names its problems."""
    _require(type(entry) is list and all(type(h) is list and len(h) == 3 for h in entry),
             f"path {entry!r}: expected [[hop, status, address], ...]")
    run = _checked(_run, f"path {entry!r}", 1, "0.0.0.1", "0.0.0.1", 0,
                   [(number, status, address, None if status == STATUS_TIMEOUT else 0)
                    for number, status, address in entry])
    path = tuple(hop[:3] for hop in run.hops)
    _require(path == tuple(map(tuple, entry)), f"path {entry!r}: addresses not canonical")
    return tuple(zip(*path))[1:]


def _bytes_of(column: array, top: bool) -> Iterator[bytes]:
    """The most (top) or else the least significant byte of each item of
    column, in order, _CHUNK items at a time."""
    size = column.itemsize
    at = size - 1 if (sys.byteorder == "little") == top else 0
    with memoryview(column) as view, view.cast("B") as raw:
        for start in range(at, len(raw), _CHUNK * size):
            yield raw[start:start + _CHUNK * size:size].tobytes()


def _nonnegative(column) -> bool:
    """Whether no value of column is negative; for an array, whether no
    item's sign bit is set, read a byte per item at C speed."""
    if type(column) is list:
        return min(column, default=0) >= 0
    return all(part.isascii() for part in _bytes_of(column, top=True))


def _put(columns: list, index: int, values) -> None:
    """Extend columns[index] by values, widening the column until it holds
    them: an array to the next wider typecode, a q array to a list."""
    while True:
        column = columns[index]
        n = len(column)
        try:
            column.extend(values)
            return
        except OverflowError:
            del column[n:]
            code = _WIDER.get(column.typecode)
            columns[index] = array(code, column) if code else column.tolist()


def _joined(columns: list):
    """The values of columns one after another, as one column of the
    widest typecode among them, or a list if any of them is one."""
    if len(columns) == 1:
        return columns[0]
    if any(type(column) is list for column in columns):
        return list(chain.from_iterable(columns))
    code = max((column.typecode for column in columns), key=_TYPECODES.index)
    joined = array(code)
    for column in columns:
        joined += column if column.typecode == code else array(code, column)
    return joined


class Block:
    """One pair's rows of a segment: count, min and max timestamp (None
    with no rows), sorted, and columns, the list of its columns in the
    order of the kind's column names, or None while a file's block is not
    read. The tie column is None where the segment has none. A file's block
    also records where its columns are: their (typecode, stored bytes,
    items) specs, their offset and size in the file, and their CRC, and
    whether its pair and values were checked once read (checked)."""

    __slots__ = ("pair", "count", "min", "max", "sorted", "columns", "specs", "offset",
                 "size", "crc", "checked")

    def __init__(self, pair: tuple[str, str], columns: list | None = None):
        self.pair, self.columns = pair, columns
        self.count, self.min, self.max, self.sorted = 0, None, None, True
        self.specs, self.offset, self.size, self.crc = (), 0, 0, 0
        self.checked = False

    def rows(self, start: int, end: int) -> Sequence[int]:
        """Indexes of the rows with start <= timestamp < end, in row order;
        a range in a sorted block."""
        if start <= self.min and end > self.max:
            return range(self.count)
        times = self.columns[0]
        if self.sorted:
            return range(bisect_left(times, start), bisect_left(times, end))
        return [i for i, timestamp in enumerate(times) if start <= timestamp < end]


class Segment:
    """One segment of one kind as blocks of columns, with the facts a read
    prunes by: count, min and max timestamp (None with no rows), each
    block's pair and facts, whether some timestamp repeats (ties), and for
    traceroutes each path's key (statuses, addresses) and width
    (responsive hops). Segment(kind) is empty; add_rows() appends
    validated records' rows to their pairs' blocks, widening a column only
    as its values demand. Segment.load(path, kind) opens a columnar file
    and checks its header; a read then reads the blocks it selects and
    checks each one's CRC, values, and pair and paths (by the checks of
    records). Any fault is a StoreError naming the file."""

    # export holds the header of every columnar segment it writes, so a
    # segment has no per-object dict, and a loaded one holds none of the
    # indexes only add_rows() and encode() use
    __slots__ = ("kind", "path", "count", "min", "max", "last", "ties", "blocks", "keys",
                 "widths", "_paths", "_blocks", "_path_ids", "_formats", "_shapes", "_tie",
                 "_tie_counts", "_swap")
    version = _FORMAT_VERSION  # the format version load() reads
    _SPEC_FIELDS = 3  # [typecode, stored bytes, items]

    def __init__(self, kind: str):
        self.kind, self.path = kind, None
        self.count, self.min, self.max = 0, None, None
        self.last = None  # timestamp of the row added last
        self.ties = False
        self.blocks: list[Block] = []
        runs = kind == KIND_TRACEROUTE  # pings have no paths
        self.keys: list[tuple[tuple, tuple]] = [] if runs else ()
        self.widths: list[int] = [] if runs else ()
        self._blocks: dict[tuple[str, str], Block] = {}  # filled by add_rows()
        # made by the first add_rows() of a run, and the first encode()
        self._path_ids: dict[tuple[tuple, tuple], int] | None = None
        self._formats: dict[tuple, str] | None = None
        self._shapes: dict[str, tuple] | None = None  # format -> its _formats key
        self._tie = 0  # tie rank of the row added last, while timestamps never decrease
        self._tie_counts: Counter | None = None  # rows per timestamp, once they do
        self._swap = False

    @classmethod
    def load(cls, path: Path, kind: str) -> Segment:
        segment = cls(kind)
        segment.path = path
        try:
            with open(path, "rb") as fp:
                segment._read(fp)
        except _Corrupt as exc:
            raise StoreError(f"{path}: {exc}") from None
        return segment

    def row(self, shape: str, parts: list[str]) -> tuple | None:
        """The add_rows row of a line of shape() (shape, parts) that is a
        format of this segment, filled in with integers from_json_obj
        accepts: the canonical line of a valid record. Else None; the parts
        count rules out a "%d" in the line's own text."""
        key = self._shapes.get(shape) if self._shapes else None
        if key is None:
            return None
        if self.kind == KIND_PING:
            pair, status = key
            if status != STATUS_ECHO_REPLY:
                return (pair, int(parts[1]), status, -1, ()) if len(parts) == 3 else None
            return (pair, int(parts[1]), status, int(parts[3]), ()) if len(parts) == 5 else None
        pair, statuses, addresses = key
        if len(parts) != 5 + 2 * (len(statuses) - statuses.count(STATUS_TIMEOUT)):
            return None
        timestamp, round_, *rtts = map(int, parts[1::2])
        return pair, timestamp, round_, (statuses, addresses), rtts

    def encode(self, record: Record) -> tuple[str, tuple]:
        """(line, row): a valid record's canonical line, from its %-format
        (format), and its add_rows row, which is not added."""
        pair, timestamp = (record.source, record.destination), record.timestamp
        if self.kind == KIND_PING:
            key, rtt = (pair, record.status), record.rtt
            ints = (timestamp,) if rtt is None else (timestamp, rtt)
            row = (pair, timestamp, record.status, -1 if rtt is None else rtt, ())
        else:  # a hop has an rtt iff its status is not 0
            _, statuses, addresses, rtts = zip(*record.hops)
            key, rtts = (pair, statuses, addresses), list(compress(rtts, statuses))
            ints = (timestamp, record.round, *rtts)
            row = (pair, timestamp, record.round, key[1:], rtts)
        return self.format(key) % ints, row

    def format(self, key: tuple) -> str:
        """The %-format of key's canonical lines, key being a pair and a
        ping status or a path, kept per key from its first use. A new
        format is also a shape (row) unless an address holds a "%": its
        "%%" would match a line's "%%"."""
        if self._formats is None:
            self._formats, self._shapes = {}, {}
        line = self._formats.get(key)
        if line is None:
            tail = _ping_tail if self.kind == KIND_PING else _run_tail
            line = self._formats[key] = _pair_prefix(*key[0]) + tail(*key[1:])
            if "%%" not in line:
                self._shapes[line] = key
        return line

    def add_rows(self, rows: Sequence[tuple]) -> None:
        """Append valid records' rows in order, each to its pair's block: a
        ping's (pair, timestamp, status, rtt (-1 for none), ()), or a run's
        (pair, timestamp, round, path key (statuses, addresses), responsive
        hops' rtts), as row() gives them. One call keeps the counts, minima,
        maxima, sorted and tie ranks current as adding the rows one at a
        time would, and widens a column only as its values demand."""
        runs = self.kind == KIND_TRACEROUTE
        if runs and self._path_ids is None:
            self._path_ids = {}
        blocks = self._blocks
        last, tie, counts = self.last, self._tie, self._tie_counts
        low, high = self.min, self.max
        for pair, timestamp, third, fourth, rtts in rows:
            # the tie rank: a running count while timestamps never decrease;
            # from the first that does, a count per timestamp of the rows so far
            if counts is None:
                if last is None or timestamp > last:
                    tie = 0
                elif timestamp == last:
                    tie += 1
                    self.ties = True
                else:
                    counts = Counter(chain.from_iterable(
                        block.columns[0] for block in self.blocks))
            if counts is not None:
                tie = counts[timestamp]
                counts[timestamp] = tie + 1
                if tie:
                    self.ties = True
            last = timestamp
            if runs:  # fourth is the path key: store its id
                key, fourth = fourth, self._path_ids.get(fourth)
                if fourth is None:
                    fourth = self._path_ids[key] = len(self.keys)
                    self.keys.append(key)
                    self.widths.append(len(key[0]) - key[0].count(STATUS_TIMEOUT))
            block = blocks.get(pair)
            if block is None:
                block = blocks[pair] = Block(pair, [array("b")
                                                    for _ in _COLUMN_NAMES[self.kind]])
                self.blocks.append(block)
            columns, n = block.columns, block.count
            try:
                columns[0].append(timestamp)
                columns[1].append(tie)
                columns[2].append(third)
                columns[3].append(fourth)
            except OverflowError:
                for column in columns[:4]:
                    del column[n:]
                for i, value in enumerate((timestamp, tie, third, fourth)):
                    _put(columns, i, (value,))
            if runs:
                _put(columns, 4, rtts)
            block.count = n + 1
            if n == 0:
                block.min = block.max = timestamp
            elif timestamp < block.max:
                block.sorted = False
                if timestamp < block.min:
                    block.min = timestamp
            else:
                block.max = timestamp
            if low is None or timestamp < low:
                low = timestamp
            if high is None or timestamp > high:
                high = timestamp
        self.count += len(rows)
        self.min, self.max, self.last, self._tie, self._tie_counts = low, high, last, tie, counts

    # -- reading files ---------------------------------------------------------

    def _read(self, fp) -> None:
        """Read and check the header."""
        prefix = fp.read(len(_MAGIC) + _PREFIX.size)
        _require(prefix.startswith(_MAGIC) and len(prefix) == len(_MAGIC) + _PREFIX.size,
                 "not a columnar segment")
        crc, size = _PREFIX.unpack_from(prefix, len(_MAGIC))
        head = fp.read(size)
        old = _old_version(head)
        if old is not None and old != self.version:
            raise refused(self.path, old)
        _require(zlib.crc32(head, zlib.crc32(prefix[-4:])) == crc, "header: CRC mismatch")
        try:
            header = json.loads(head)
        except ValueError as exc:
            raise _Corrupt(f"header: {exc}") from None
        keys = _HEADER_KEYS | ({"paths"} if self.kind == KIND_TRACEROUTE else set())
        _require(type(header) is dict and header.keys() == keys, "header: wrong fields")
        version = header["version"]
        _require(type(version) is int and version == self.version,
                 f"format version {version!r} is not {self.version}")
        _require(header["kind"] == self.kind, f"a {header['kind']!r} segment")
        _require(header["byteorder"] in ("little", "big"), "header: unknown byte order")
        self._swap = header["byteorder"] != sys.byteorder
        names = header["columns"]
        _require(type(names) is list and names in (
            list(_COLUMN_NAMES[self.kind]),
            [name for i, name in enumerate(_COLUMN_NAMES[self.kind]) if i != _TIE]),
            "header: bad column list")
        self.ties = len(names) == len(_COLUMN_NAMES[self.kind])
        if self.kind == KIND_TRACEROUTE:  # a path is checked when a block that uses it is read
            self._paths = header["paths"]
            _require(type(self._paths) is list and self._paths, "header: no paths")
            self.keys = [None] * len(self._paths)
            self.widths = [None] * len(self._paths)
        entries = header["blocks"]
        _require(type(entries) is list and entries, "header: no blocks")
        offset, pairs = len(prefix) + size, set()
        for entry in entries:
            block = self._block(entry, names, pairs)
            block.offset = offset
            offset += block.size
        end = os.fstat(fp.fileno()).st_size
        _require(end >= offset, "columns: truncated")
        _require(end == offset, "bytes after the columns")
        self.count = sum(block.count for block in self.blocks)
        self.min = min(block.min for block in self.blocks)
        self.max = max(block.max for block in self.blocks)

    def _block(self, entry, names: list[str], pairs: set) -> Block:
        """The Block of a header's block entry, its fields checked, and
        added; pairs holds the pairs of the entries before it. Its pair is
        checked when the block is read. A header may hold many blocks, so
        each message is formatted only for a fault."""
        if not (type(entry) is list and len(entry) == 8):
            raise _Corrupt(f"block {entry!r}: expected [source, destination, records, "
                           f"min, max, sorted, columns, crc]")
        source, destination, count, low, high, is_sorted, specs, crc = entry
        if not (type(source) is str and type(destination) is str):
            raise _Corrupt(f"block {entry[:2]!r}: pair is not two addresses")
        pair = (sys.intern(source), sys.intern(destination))
        if pair in pairs:
            raise _Corrupt(f"block {entry[:2]!r}: pair listed twice")
        if not (type(count) is int and type(low) is int and type(high) is int
                and count >= 1 and high >= low >= 1):
            raise _Corrupt(f"block {entry[:2]!r}: bad count, min or max")
        if type(is_sorted) is not bool:
            raise _Corrupt(f"block {entry[:2]!r}: sorted is not a boolean")
        if not (type(crc) is int and 0 <= crc < 1 << 32):
            raise _Corrupt(f"block {entry[:2]!r}: bad CRC")
        if not (type(specs) is list and len(specs) == len(names)):
            raise _Corrupt(f"block {entry[:2]!r}: bad column list")
        size = 0
        for name, spec in zip(names, specs):
            if not (type(spec) is list and len(spec) == self._SPEC_FIELDS
                    and all(type(field) is int and field >= 0 for field in spec[1:])
                    and (spec[0] == _JSON_COLUMN or spec[0] in _TYPECODES)):
                raise _Corrupt(f"block {entry[:2]!r}: bad column list")
            self._check_spec(name, spec, count)
            size += spec[1]
        pairs.add(pair)
        block = Block(pair)
        block.count, block.min, block.max, block.sorted = count, low, high, is_sorted
        block.specs, block.size, block.crc = tuple(map(tuple, specs)), size, crc
        self.blocks.append(block)
        return block

    def _check_spec(self, name: str, spec: list, count: int) -> None:
        """Check a column's [typecode, stored bytes, items] against its
        block's count: a column of one value per row, but a JSON one, has
        as many items as the block has records."""
        if (spec[2] != count and spec[0] != _JSON_COLUMN
                and (self.kind == KIND_PING or name != "rtt")):
            raise _Corrupt("columns: length differs from the count")

    def _values(self, name: str, spec: tuple, stored):
        """A column's values from its stored bytes. The stream holds byte
        plane k, byte k of every item, for k in order (_compressed). Each
        plane is inflated in pieces of _CHUNK items, to at most the items
        the spec declares; then piece j of every plane is interleaved into
        items that the values take, and the pieces are dropped as they go.
        So the pieces and the values together hold the column's bytes
        about once, never the whole inflated stream and an unshuffled copy
        of it beside the values. A JSON column is one plane, the bytes of
        its array. A stream that does not end there, leaves bytes over, or
        gives a partial item or another count of them is a fault."""
        code, _, items = spec
        size = 1 if code == _JSON_COLUMN else _ITEMSIZES[code]
        inflate, pieces, got = zlib.decompressobj(), [], 0
        try:
            if not items:  # max_length 0 would be no limit
                got = len(inflate.decompress(stored, 1))
            while got < items * size:
                piece = inflate.decompress(stored, min(items - got % items, _CHUNK))
                if not piece:
                    break
                stored = inflate.unconsumed_tail
                pieces.append(piece)
                got += len(piece)
        except zlib.error as exc:
            raise _Corrupt(f"column {name}: {exc}") from None
        _require(inflate.eof and not inflate.unconsumed_tail and not inflate.unused_data,
                 f"column {name}: not one zlib stream of {items} items")
        _require(got % size == 0, f"column {name}: partial item")
        _require(got == items * size, f"column {name}: {got // size} items, not {items}")
        if code == _JSON_COLUMN:
            return self._column(name, code, b"".join(pieces))
        values, per_plane = array(code), len(pieces) // size
        for j in range(per_plane):
            part = bytearray(len(pieces[j]) * size)
            for k in range(size):  # piece j of plane k
                part[k::size] = pieces[k * per_plane + j]
                pieces[k * per_plane + j] = None
            values.frombytes(part)
        if self._swap:
            values.byteswap()
        return values

    def _column(self, name: str, code: str, raw):
        """A column's values from its bytes, unshuffled and not compressed."""
        if code == _JSON_COLUMN:
            try:
                values = json.loads(bytes(raw))
            except ValueError:
                values = None
            _require(type(values) is list and all(type(v) is int for v in values),
                     f"column {name}: not a JSON array of integers")
            return values
        values = array(code)
        values.frombytes(raw)
        if self._swap:
            values.byteswap()
        return values

    def _fill(self, blocks: list[Block]) -> None:
        """Read and check the columns of the given blocks not held: per
        block one seek and one read. A block read before, whose columns
        release() dropped, is checked by its CRC alone: bytes with the CRC
        its values passed with hold those values."""
        wanted = [block for block in blocks if block.columns is None]
        if not wanted:
            return
        names = [name for i, name in enumerate(_COLUMN_NAMES[self.kind])
                 if self.ties or i != _TIE]
        try:
            with open(self.path, "rb") as fp:
                for block in wanted:
                    if not block.checked:
                        _check_pair(*block.pair)
                    fp.seek(block.offset)
                    data = memoryview(fp.read(block.size))
                    _require(len(data) == block.size, "columns: truncated")
                    _require(zlib.crc32(data) == block.crc,
                             f"block {list(block.pair)!r}: CRC mismatch")
                    columns, at = [], 0
                    for name, spec in zip(names, block.specs):
                        stored = data[at:at + spec[1]]
                        columns.append(self._values(name, spec, stored))
                        at += spec[1]
                    if not self.ties:
                        columns.insert(_TIE, None)
                    if not block.checked:
                        self._check_block(block, columns)
                        block.checked = True
                    block.columns = columns
        except _Corrupt as exc:
            raise StoreError(f"{self.path}: {exc}") from None

    def _check_block(self, block: Block, columns: list) -> None:
        """Check a block's columns against its facts, and every value, with
        one scan of each column: a sorted block's min and max are its first
        and last timestamps once its order is checked, and the path ids are
        counted once for their range, their paths and the RTT count."""
        times, ties, rtts = columns[0], columns[_TIE], columns[-1]
        rows = [column for column in columns[:-1] if column is not None]
        if self.kind == KIND_PING:
            rows.append(rtts)
        _require(all(len(column) == block.count for column in rows),
                 "columns: length differs from the count")
        in_order = not block.sorted or all(map(le, times, islice(times, 1, None)))
        if block.sorted and in_order:
            low, high = times[0], times[-1]
        else:
            low, high = min(times), max(times)
        _require(low == block.min and high == block.max,
                 "timestamp: min or max differs from the header")
        _require(in_order, "timestamp: not sorted")
        _require(ties is None or _nonnegative(ties), "tie: negative")
        if self.kind == KIND_PING:
            statuses = columns[2]
            _require(set(statuses) <= set(VALID_STATUSES), "status: not 0, 1 or 255")
            # rtt >= 0 where the status is 255 and -1 elsewhere, at C speed for
            # arrays: each rtt's sign is that of its status's low byte not being
            # 255, and the -1s are as many as those statuses. Else a scan
            # finds the rule that is broken.
            if (type(statuses) is list or type(rtts) is list
                    or not all(signs.translate(_NEGATIVE) == lows.translate(_NOT_ECHO)
                               for signs, lows in zip(_bytes_of(rtts, top=True),
                                                      _bytes_of(statuses, top=False)))
                    or rtts.count(-1) != len(rtts) - statuses.count(STATUS_ECHO_REPLY)):
                _require(min(compress(rtts, map(STATUS_ECHO_REPLY.__eq__, statuses)),
                             default=0) >= 0, "rtt: negative")
                _require(set(compress(rtts, map(STATUS_ECHO_REPLY.__ne__, statuses))) <= {-1},
                         "rtt: present where the status is not 255")
            return
        rounds, path_counts = columns[2], Counter(columns[3])
        _require(_nonnegative(rounds), "round: negative")
        _require(min(path_counts) >= 0 and max(path_counts) < len(self.keys),
                 "path: id out of range")
        for path_id in set(path_counts):  # the order set(path_ids) gives the bad paths
            if self.keys[path_id] is None:
                statuses, _ = self.keys[path_id] = _checked_path(self._paths[path_id])
                self.widths[path_id] = len(statuses) - statuses.count(STATUS_TIMEOUT)
        _require(len(rtts) == sum(map(mul, map(self.widths.__getitem__, path_counts),
                                      path_counts.values())),
                 "rtt: length differs from the paths' responsive hops")
        _require(_nonnegative(rtts), "rtt: negative")

    # -- reads -----------------------------------------------------------------

    def check(self) -> None:
        """Read and check every block."""
        self._fill(self.blocks)

    def release(self) -> None:
        """Drop the columns read from the segment's file, keeping the header,
        so a later read reads them again (_fill). Columns no file gave, those
        of an NDJSON segment, are kept."""
        for block in self.blocks:
            if block.specs:
                block.columns = None

    def _select(self, q: StoreQuery) -> list[tuple[Block, Sequence[int]]]:
        """(block, indexes of its rows) for each block with rows q selects.
        Only those blocks are read: the pairs and time ranges of the others
        rule them out."""
        if not self.blocks:
            return []
        start = self.min if q.start is None else q.start
        end = self.max + 1 if q.end is None else q.end
        blocks = [block for block in self.blocks if q.matches_pair(*block.pair)
                  and start <= block.max and end > block.min]
        self._fill(blocks)
        selected = [(block, block.rows(start, end)) for block in blocks]
        return [(block, rows) for block, rows in selected if rows]

    def pings(self, q: StoreQuery, columns: PingColumns) -> None:
        """Add the timestamp and rtt columns of each block with rows q
        selects to columns, cut to those rows (_take): a block selected
        whole is not copied, a range of rows is a slice."""
        for block, rows in self._select(q):
            columns.blocks.append((_take(block.columns[0], rows), _take(block.columns[-1], rows)))

    def group(self, q: StoreQuery, grouped: dict[tuple[str, str], PathRuns]) -> None:
        """Add the runs of the rows q selects to grouped, per pair, in row
        order: one pass over a block's rows finds, per path, where its runs'
        RTTs start in the block's rtt column. No RTT is read or copied."""
        for block, rows in self._select(q):
            runs = grouped.get(block.pair)
            if runs is None:
                runs = grouped[block.pair] = PathRuns()
            path_ids, rtts = block.columns[3:]
            offsets = list(accumulate(map(self.widths.__getitem__, path_ids), initial=0))
            code = "i" if len(rtts) <= 0x7FFFFFFF else "q"
            starts: dict[int, array] = {}  # path id -> starts, in order of first use
            for i in rows:
                path_id = path_ids[i]
                at = starts.get(path_id)
                if at is None:
                    at = starts[path_id] = array(code)
                at.append(offsets[i])
            for path_id, at in starts.items():
                runs.add(*self.keys[path_id], rtts, at)

    def lines(self, rank: int) -> Iterator[tuple[int, Sequence[int], list[str]]]:
        """Slabs (rank, timestamps, canonical lines) of every row, by
        timestamp and then tie rank: one sort of the rows, then at most
        SLAB_ROWS rows at a time, gathered from the columns and rendered by
        one % a line from a %-format made once per pair and ping status or
        path. Every block is read and checked (check)."""
        self.check()
        blocks, rows = self.blocks, range(self.count)
        if not blocks:
            return
        pings = self.kind == KIND_PING
        columns = [_joined([block.columns[i] for block in blocks])
                   for i in range(len(_COLUMN_NAMES[self.kind])) if i != _TIE]
        if len(blocks) == 1 and blocks[0].sorted:
            order = rows
        else:  # the rows are sorted, then gathered one by one, which is faster
            # from lists: the per-row columns, all but a run's rtt column
            columns[:3] = [column if type(column) is list else column.tolist()
                           for column in columns[:3]]
            if self.ties:
                ties = _joined([block.columns[_TIE] for block in blocks])
                keys = list(map(add, map(mul, columns[0], repeat(max(ties) + 1)), ties))
                order = sorted(rows, key=keys.__getitem__)
            else:
                order = sorted(rows, key=columns[0].__getitem__)
        times = columns[0]
        # each row's %-format, in block order, by its pair and the column
        # before the last (status or path id): every ping's takes (timestamp,
        # rtt), as NO_RTT takes the -1 of a ping with no rtt
        tails = {value: _ping_tail(value) + ("" if value == STATUS_ECHO_REPLY else NO_RTT)
                 if pings else _run_tail(*self.keys[value]) for value in set(columns[-2])}
        formats: list[str] = []
        for block in blocks:
            prefix, values = _pair_prefix(*block.pair), block.columns[-2]
            made = {value: prefix + tails[value] for value in set(values)}
            formats += map(made.__getitem__, values)
        if pings:
            rtts = columns[2]
        else:
            _, rounds, path_ids, rtts = columns
            offsets = list(accumulate(map(self.widths.__getitem__, path_ids), initial=0))
        for at in range(0, len(order), SLAB_ROWS):
            slab = order[at:at + SLAB_ROWS]
            stamps = _take(times, slab)
            if pings:
                lines = list(map(mod, _take(formats, slab), zip(stamps, _take(rtts, slab))))
            else:
                lines = [formats[i] % (times[i], rounds[i], *rtts[offsets[i]:offsets[i + 1]])
                         for i in slab]
            yield rank, stamps, lines


def _take(column: Sequence[int], rows: Sequence[int]) -> Sequence[int]:
    """column's values at rows, in order: a slice where rows is a range,
    column itself where that range is the whole column."""
    if type(rows) is range:
        return column if len(rows) == len(column) else column[rows.start:rows.stop]
    return list(map(column.__getitem__, rows))


def chains(segments: list[Segment]) -> list[list[tuple[int, Segment]]]:
    """Segments, each with its rank in the given order, in chains: segments
    whose time ranges do not overlap share a chain, which reads them one
    after another, so a merge of the chains' lines holds one segment's
    columns per chain."""
    chained: list[list[tuple[int, Segment]]] = []
    ends: list[tuple[int, int]] = []  # (last max timestamp, chain index)
    for rank, segment in sorted(enumerate(segments), key=lambda ranked: ranked[1].min):
        if ends and ends[0][0] < segment.min:
            _, i = heapq.heappop(ends)
            chained[i].append((rank, segment))
        else:
            i = len(chained)
            chained.append([(rank, segment)])
        heapq.heappush(ends, (segment.max, i))
    return chained


def check_chains(chained: list[list[tuple[int, Segment]]]) -> None:
    """Read and check every segment of the chains. A segment that shares
    its chain then drops the columns it read from its file; one alone in
    its chain keeps them, so its lines are read once: the merge would hold
    it from its start anyway."""
    for chain in chained:
        for _, segment in chain:
            segment.check()
            if len(chain) > 1:
                segment.release()


def chain_lines(chain: list[tuple[int, Segment]]
                ) -> Iterator[tuple[int, Sequence[int], list[str]]]:
    """The slabs (Segment.lines) of a chain's segments, one after another;
    each segment drops the columns it read once its slabs are taken."""
    for rank, segment in chain:
        yield from segment.lines(rank)
        segment.release()


def merge(streams: Iterable[Iterator[tuple[int, Sequence[int], list[str]]]]
          ) -> Iterator[Sequence[str]]:
    """The lines of slab streams, each in (timestamp, rank) order, merged
    into (timestamp, rank) order and given as runs of consecutive lines:
    the stream with the smallest head gives its rows up to a cut at the
    smallest other head, found by bisection in the slab's timestamps; rows
    at that head's timestamp go first if their rank is lower. A stream's
    current slabs hold a rank no other stream's current slab holds, as a
    chain's segments do (chains)."""
    heads: list[tuple[int, int, int]] = []  # (next row's timestamp, rank, stream)
    current: list[list] = []  # per stream: its slabs, timestamps, lines, next row
    for slabs in map(iter, streams):
        for rank, stamps, lines in slabs:
            heads.append((stamps[0], rank, len(current)))
            current.append([slabs, stamps, lines, 0])
            break
    heapq.heapify(heads)
    while heads:
        _, rank, i = heads[0]
        state = current[i]
        slabs, stamps, lines, at = state
        if len(heads) == 1:
            cut = len(lines)
        else:
            stamp, other, _ = min(heads[1:3])
            cut = (bisect_right if rank < other else bisect_left)(stamps, stamp, at)
        yield lines if at == 0 and cut == len(lines) else lines[at:cut]
        if cut < len(lines):
            state[3] = cut
            heapq.heapreplace(heads, (stamps[cut], rank, i))
            continue
        for rank, stamps, lines in slabs:
            state[1:] = stamps, lines, 0
            heapq.heapreplace(heads, (stamps[0], rank, i))
            break
        else:
            heapq.heappop(heads)
