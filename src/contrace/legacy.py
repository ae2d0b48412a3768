"""upgrade: convert a store written before <kind>-<id> names and columnar
format version 3, once. Only `contrace upgrade` imports this module.

Before ids, a sealed segment was <kind>-<first>-<last>[-<n>], ending by
the strict rule (its last line counts, JSON or not), and one left open
<kind>-<first>-open.ndjson, which a cut seal could leave as a second name
of the sealed file. Old sealed segments loaded first, by first timestamp,
name and suffix, then those left open, then ids. A version 1 columnar file
has one CRC over all that follows it and a pair column instead of blocks.
A version 2 file has the blocks of version 3 (see columnar), but each
column is stored as it is, array.tobytes() or JSON, and its spec is
[typecode, bytes]; it is read by the checks of version 3.

upgrade holds the writer lock and works in two phases; a rerun completes
either if it is cut. 1. In place: unlink each second name; give each old
sealed NDJSON segment, and each segment with a columnar twin, its columnar
file; rewrite each version 1 or 2 file as version 3. A file that fails its
checks stops the upgrade before anything is renamed. 2. Only if an old
name is left: rename every segment to an id above the largest present, in
load order, the last one first, so the renamed ones are a suffix of it.
"""

from __future__ import annotations

import json
import os
import re
import sys
import zlib
from operator import itemgetter
from pathlib import Path

from .columnar import (_ITEMSIZES, _JSON_COLUMN, _MAGIC, _PREFIX, SUFFIX, TEMP_SUFFIX, Segment,
                       _Corrupt, _require, old_version)
from .records import (KIND_PING, KIND_TRACEROUTE, Hop, PingRecord, StoreError, TracerouteRun,
                      validated)
from .store import _NDJSON, _OLDER, _decode, _lines_within, _lock, _write_columns

_ANY_NAME = re.compile(
    rf"(?P<stem>(?P<kind>{KIND_PING}|{KIND_TRACEROUTE})-(?:(?P<id>[1-9][0-9]*)"
    rf"|(?P<first>[0-9]+)-(?:(?P<last>[0-9]+)(?:-(?P<n>[1-9][0-9]*))?|open(?=\.ndjson))))"
    rf"(?P<suffix>\.ndjson|\.col)")
_V1_COLUMNS = {KIND_PING: ["timestamp", "pair", "status", "rtt"],
               KIND_TRACEROUTE: ["timestamp", "pair", "round", "path", "rtt"]}
_SEALED, _LEFT_OPEN = (0, False), (0, True)  # how the load key of an old name begins


def _scan(path: Path) -> dict[str, list[tuple[tuple, str, dict[str, Path]]]]:
    """Per kind its segments in load order, each as (load key, stem, suffix
    -> path); an id's load key is (1, id)."""
    found = {KIND_PING: {}, KIND_TRACEROUTE: {}}
    for name in os.listdir(path):
        match = _ANY_NAME.fullmatch(name)
        if match is None:
            if _OLDER.match(name) and name.endswith((_NDJSON, SUFFIX)):
                raise StoreError(f"{path / name}: no store format names a segment so; "
                                 f"move it out of the store")
            continue
        key = (1, int(match["id"])) if match["id"] else (
            0, match["last"] is None, int(match["first"]),
            f"{match['kind']}-{match['first']}-{match['last'] or 'open'}", int(match["n"] or 0))
        stem = found[match["kind"]].setdefault(match["stem"], (key, match["stem"], {}))
        stem[2][match["suffix"]] = path / name
    return {kind: sorted(stems.values(), key=itemgetter(0)) for kind, stems in found.items()}


class _Version2(Segment):
    """A version 2 file, read as Segment reads version 3: only a column's
    spec and its stored bytes differ."""

    __slots__ = ()
    version = 2
    _SPEC_FIELDS = 2  # [typecode, bytes]

    def _check_spec(self, name: str, spec: list, count: int) -> None:
        if spec[0] != _JSON_COLUMN and spec[1] % _ITEMSIZES[spec[0]]:
            raise _Corrupt(f"column {name}: partial item")

    def _values(self, name: str, spec: tuple, stored):
        return self._column(name, spec[0], stored)


def _load(path: Path, kind: str) -> Segment:
    """The columnar file at path, of any version, read and checked whole.
    A version 1 file's rows are validated as records and added in row
    order, which gives each row its block and its tie rank."""
    version = old_version(path)
    if version != 1:
        segment = (Segment if version is None else _Version2).load(path, kind)
        segment.check()
        if None in segment.keys:
            raise StoreError(f"{path}: path {segment.keys.index(None)}: no block uses it")
        return segment
    data, segment = memoryview(path.read_bytes()), Segment(kind)
    crc, size = _PREFIX.unpack_from(data, len(_MAGIC))
    if zlib.crc32(data[len(_MAGIC) + 4:]) != crc:
        raise StoreError(f"{path}: CRC mismatch")
    try:
        at = len(_MAGIC) + _PREFIX.size
        header = json.loads(bytes(data[at:at + size]))
        _require(header["kind"] == kind, f"a {header['kind']!r} segment")
        _require([spec[0] for spec in header["columns"]] == _V1_COLUMNS[kind],
                 "header: bad column list")
        segment._swap = header["byteorder"] != sys.byteorder
        columns, at = [], at + size
        for name, code, nbytes in header["columns"]:
            columns.append(segment._column(name, code, data[at:at + nbytes]))
            at += nbytes
        _require(at == len(data), "bytes after the columns")
        times, pair_ids, thirds, fourths, rtts = columns + [None] * (5 - len(columns))
        pairs, k = [entry[:2] for entry in header["pairs"]], 0
        for timestamp, pair, third, fourth in zip(times, pair_ids, thirds, fourths):
            if kind == KIND_PING:
                rtt = None if fourth == -1 else fourth
                record = PingRecord(timestamp, *pairs[pair], third, rtt)
            else:
                hops = []
                for number, status, address in header["paths"][fourth]:
                    hops.append(Hop(number, status, address, rtts[k] if status else None))
                    k += bool(status)
                record = TracerouteRun(timestamp, *pairs[pair], third, tuple(hops))
            segment.add(validated(record))
        _require(len(times) == header["count"] == segment.count
                 and all(map(len(times).__eq__, map(len, columns[:4])))
                 and (kind == KIND_PING or k == len(rtts)),
                 "columns: length differs from the count")
    except (_Corrupt, StoreError, LookupError, TypeError, ValueError) as exc:
        raise StoreError(f"{path}: {exc}") from None
    return segment


def upgrade(path: str | Path) -> str:
    """Convert the store at path as the module docstring says, and say what
    changed. A store of ids and version 3 files alone is left as it is."""
    path = Path(path)
    if not path.is_dir():
        raise StoreError(f"{path}: no store there")
    with _lock(path):
        for temp in path.glob("*" + TEMP_SUFFIX):
            temp.unlink()
        unlinked = sealed = rewritten = 0
        for stems in _scan(path).values():
            files = [paths[_NDJSON] for key, _, paths in stems
                     if key[:2] == _SEALED and _NDJSON in paths]
            for key, _, paths in stems:
                if key[:2] == _LEFT_OPEN and any(map(paths[_NDJSON].samefile, files)):
                    paths[_NDJSON].unlink()
                    unlinked += 1
        for kind, stems in _scan(path).items():
            for key, stem, paths in stems:
                if _NDJSON in paths and (SUFFIX in paths or key[:2] == _SEALED):
                    _give_columns(path, stem, paths, kind, strict=key[:2] == _SEALED)
                    sealed += 1
        for kind, stems in _scan(path).items():
            for _, stem, paths in stems:
                if SUFFIX in paths and old_version(paths[SUFFIX]) is not None:
                    _write_columns(path, stem, _load(paths[SUFFIX], kind))
                    rewritten += 1
        order = [(kind, stem) for kind, stems in _scan(path).items() for stem in stems]
        if all(key[0] for _, (key, _, _) in order):
            order = []  # no old name is left
        top = max((key[1] for _, (key, _, _) in order if key[0]), default=0)
        for new_id, (kind, (_, _, paths)) in reversed(list(enumerate(order, top + 1))):
            for suffix, file in paths.items():
                os.rename(file, path / f"{kind}-{new_id}{suffix}")
    return (f"upgraded {path}: segments renamed {len(order)}, version 1 and 2 files "
            f"rewritten {rewritten}, NDJSON segments sealed {sealed}, second names unlinked "
            f"{unlinked}")


def _give_columns(path: Path, stem: str, paths: dict[str, Path], kind: str,
                  strict: bool) -> None:
    """Seal a segment that still has NDJSON, as a writer's recovery does: if
    its columnar twin checks, unlink the NDJSON; else write its columns from
    the NDJSON, read by its end rule, then unlink it. A bad line raises."""
    if SUFFIX in paths:
        try:
            _load(paths[SUFFIX], kind)
        except StoreError:
            pass
        else:
            paths[_NDJSON].unlink()
            return
    with open(paths[_NDJSON], "rb") as fp:
        lines = fp if strict else _lines_within(fp, os.fstat(fp.fileno()).st_size)
        segment = _decode(lines, kind, paths[_NDJSON])
    if segment.count:
        _write_columns(path, stem, segment)
    paths[_NDJSON].unlink()
