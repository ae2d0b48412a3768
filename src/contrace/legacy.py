"""Reading version 1 columnar files, imported only when one is met.

A version 1 file has the layout of version 2 (see columnar) up to its
header, but its CRC covers the header and every column, and its rows are
not clustered: the header holds the count, min and max timestamp and
sorted of the whole segment and the pair dictionary [[source, destination,
records], ...], and the columns are timestamp, pair (an index into that
dictionary), then those of version 2 but the tie rank. The file is read and
checked whole, then partitioned by pair into the blocks of a Segment,
keeping row order and giving each row its tie rank.
"""

from __future__ import annotations

import zlib
from array import array
from collections import Counter
from itertools import chain, compress, islice, repeat
from operator import eq, le

from .columnar import (_COLUMN_NAMES, _ITEMSIZES, _JSON_COLUMN, _TIE, _TYPECODES, Block,
                       Segment, _checked_pair, _count_at_least, _require)
from .records import KIND_PING, KIND_TRACEROUTE, _put

_HEADER_KEYS = {"version", "kind", "byteorder", "count", "min", "max", "sorted", "pairs",
                "columns"}


def read_version_1(segment: Segment, fp, header: dict, check: int, crc: int) -> None:
    """Read the rest of a version 1 file into segment, whose header has been
    read and whose CRC so far is check: the CRC first, then the header and
    every value."""
    rest = fp.read()
    _require(zlib.crc32(rest, check) == crc, "CRC mismatch")
    kind = segment.kind
    keys = _HEADER_KEYS | ({"paths"} if kind == KIND_TRACEROUTE else set())
    _require(header.keys() == keys, "header: wrong fields")
    names = ("timestamp", "pair", *_COLUMN_NAMES[kind][2:])
    specs = header["columns"]
    _require(type(specs) is list and len(specs) == len(names)
             and all(type(spec) is list and len(spec) == 3 and spec[0] == name
                     and (spec[1] == _JSON_COLUMN or spec[1] in _TYPECODES)
                     and _count_at_least(spec[2], 0) for spec, name in zip(specs, names)),
             "header: bad column list")
    segment._check_identity(header, 1)
    count, low, high, is_sorted = (header[key] for key in ("count", "min", "max", "sorted"))
    _require(_count_at_least(count, 1) and _count_at_least(low, 1)
             and _count_at_least(high, low), "header: bad count, min or max")
    _require(type(is_sorted) is bool, "header: sorted is not a boolean")
    entries = header["pairs"]
    _require(type(entries) is list and entries, "header: no pairs")
    _require(all(type(entry) is list and len(entry) == 3 and _count_at_least(entry[2], 1)
                 for entry in entries), "header: expected pairs [source, destination, records]")
    pairs = [_checked_pair(*entry[:2]) for entry in entries]
    _require(sum(entry[2] for entry in entries) == count,
             "header: pair counts do not add up to the count")
    segment._read_paths(header)
    columns, at = [], 0
    for name, code, size in specs:
        _require(code == _JSON_COLUMN or size % _ITEMSIZES[code] == 0,
                 f"column {name}: partial item")
        _require(at + size <= len(rest), f"column {name}: truncated")
        columns.append(segment._column(name, code, rest[at:at + size]))
        at += size
    _require(at == len(rest), "bytes after the columns")
    times, pair_ids, rtts = columns[0], columns[1], columns[-1]
    _require(all(len(column) == count for column in
                 columns[:-1] + ([rtts] if kind == KIND_PING else [])),
             "columns: length differs from the count")
    _require(min(times) == low and max(times) == high,
             "timestamp: min or max differs from the header")
    _require(not is_sorted or all(map(le, times, islice(times, 1, None))),
             "timestamp: not sorted")
    _require(Counter(pair_ids) == {i: entry[2] for i, entry in enumerate(entries)},
             "pair: ids out of range or counts differ from the header")
    segment._check_values(columns)
    for path_id, key in enumerate(segment.keys):  # a rewrite writes every path
        if key is None:
            segment._path(path_id)
    columns[_TIE] = _tie_ranks(times, is_sorted)
    segment.ties = columns[_TIE] is not None
    if kind == KIND_TRACEROUTE:
        row_widths = array("q", map(segment.widths.__getitem__, columns[3]))
    for pair_id, (pair, entry) in enumerate(zip(pairs, entries)):
        keep = bytes(map(pair_id.__eq__, pair_ids))
        block = Block(pair, [None if column is None else _kept(column, keep)
                             for column in columns[:-1]])
        if kind == KIND_TRACEROUTE:  # the RTTs of the kept rows
            keep = bytes(chain.from_iterable(map(repeat, keep, row_widths)))
        block.columns.append(_kept(rtts, keep))
        block_times = block.columns[0]
        block.count, block.min, block.max = entry[2], min(block_times), max(block_times)
        block.sorted = is_sorted or all(map(le, block_times, islice(block_times, 1, None)))
        segment.blocks.append(block)
    segment.count, segment.min, segment.max = count, low, high


def _tie_ranks(times, is_sorted: bool) -> array | None:
    """The tie rank of each row, in row order, or None if no timestamp
    repeats: a running count where the timestamps never decrease, else a
    count per timestamp."""
    if is_sorted and not any(map(eq, times, islice(times, 1, None))):
        return None
    ties, counts, previous, tie = [array("b")], {}, None, 0
    for timestamp in times:
        if is_sorted:
            tie = tie + 1 if timestamp == previous else 0
            previous = timestamp
        else:
            tie = counts.get(timestamp, 0)
            counts[timestamp] = tie + 1
        _put(ties, 0, (tie,))
    return ties[0] if max(ties[0]) else None


def _kept(column, keep: bytes):
    """The values of column whose byte in keep is not 0, in the column's form."""
    if type(column) is list:
        return list(compress(column, keep))
    return array(column.typecode, compress(column, keep))
