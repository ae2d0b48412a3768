"""The record store: append-only segment files of one record kind each.

The active segment is NDJSON; sealing turns a segment into a columnar file
(see columnar). Every read takes each segment as a columnar.Segment: a
columnar file is loaded as one, reading its header and then only the
blocks the read selects, and an NDJSON segment's lines are decoded into
one held in memory. RecordStore is also importable from
contrace.records.
"""

from __future__ import annotations

import fcntl
import heapq
import itertools
import json
import logging
import math
import os
import re
import threading
from contextlib import ExitStack, contextmanager
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple

from . import columnar
from .records import (KIND_PING, KIND_TRACEROUTE, InvalidRecord, MalformedJson, PathRuns,
                      PingRecord, Record, StoreError, StoreQuery, TracerouteRun, _loads,
                      _splitlines, from_json_obj, parse_line, to_json_obj)

log = logging.getLogger(__name__)

# -- segment files -------------------------------------------------------------

_SEGMENT_NAME = re.compile(
    rf"(?P<kind>{KIND_PING}|{KIND_TRACEROUTE})-(?P<first>[0-9]+)-"
    rf"(?:(?P<last>[0-9]+)(?:-(?P<n>[1-9][0-9]*))?(?P<suffix>\.ndjson|\.col)"
    rf"|open\.ndjson)")


_NDJSON = ".ndjson"
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


def _segment_record(line: bytes, kind: str, path: Path, where: int) -> Record:
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


def _decode(lines: Iterable[bytes], kind: str, path: Path) -> columnar.Segment:
    """A Segment of an NDJSON segment's lines, each decoded and validated;
    blank lines are skipped, but counted in the line numbers errors name."""
    segment = columnar.Segment(kind)
    for number, line in enumerate(lines, 1):
        if not line.isspace():
            segment.add(_segment_record(line, kind, path, number))
    return segment


def _is_json(line: bytes) -> bool:
    try:
        json.loads(line)
    except ValueError:
        return False
    return True


def _lines_within(fp: IO[bytes], size: int, left_open: bool) -> Iterator[bytes]:
    """The lines of fp's first size bytes, never reading past them. The end
    rule of a segment left open: a last line without a newline counts if
    it is JSON; otherwise it is a torn tail, which is not read, and fp is
    left at its start."""
    while size > 0:
        line = fp.readline(size)
        if not line:
            return
        if left_open and not line.endswith(b"\n") and not _is_json(line):
            fp.seek(-len(line), os.SEEK_CUR)
            return
        size -= len(line)
        yield line


class _Listed(NamedTuple):
    """One segment file as a read lists it."""

    key: tuple
    path: Path
    kind: str
    fp: IO[bytes] | None = None  # an NDJSON segment, opened when listed
    size: int = 0  # its bytes to read
    left_open: bool = False  # named -open: read by the end rule of _lines_within

    def open(self) -> columnar.Segment:
        """The segment as columns: a columnar file is loaded; an NDJSON
        segment's lines are decoded."""
        if self.fp is None:
            return columnar.Segment.load(self.path, self.kind)
        return _decode(_lines_within(self.fp, self.size, self.left_open), self.kind, self.path)


class _Active(NamedTuple):
    """The segment a writer appends to, and its records so far."""

    path: Path
    fp: IO[bytes]
    first: int
    segment: columnar.Segment


class RecordStore:
    """Append-only store of segment files, one record kind each.

    The active segment is NDJSON, <kind>-<first>-open.ndjson. Sealing
    names it <kind>-<first>-<last>.ndjson by the timestamps of its first
    and last lines (a name already taken, with either suffix, gets a -<n>
    suffix instead of replacing a file), writes the segment's columns to
    <stem>.col.tmp from memory, renames that to <stem>.col and unlinks the
    NDJSON. A stem with both files is read from its columnar file.

    Readers never write. A writer takes an exclusive flock on <store>/.lock
    at its first write, and only then recovers: it deletes temp files, seals
    segments an earlier process left open (truncating a torn tail),
    unlinks an NDJSON whose columnar twin is valid, converts a stem that
    has only NDJSON, and rewrites version 1 columnar files as version 2.
    A second writer gets a StoreError.

    Every read lists the segments of the kinds it needs and validates what
    it reads: every line of an NDJSON segment; the header of a columnar
    one, and the CRC and every column value of each block it reads.
    Records with equal timestamps keep the load order: segments by first
    timestamp, then by name, then by suffix, then rows in append order
    (tie rank). The active segment takes the place its
    sealed name will give it, so this order is the same within a process
    and after a reopen. A segment another process left open loads after
    the sealed segments of its first timestamp. Reads and recovery end an
    -open segment, the active one too, by one rule (_lines_within), so a
    crashed writer's store reads the same before and after recovery. Each
    line is written and flushed under a lock, and a read takes each file's
    size under it, so it sees the active segment as it was when the read
    started and never a torn record.
    """

    def __init__(self, path: str | Path, *, segment_records: int = 100_000):
        self.path = Path(path)
        self.segment_records = segment_records
        self._lock = threading.Lock()
        self._active: dict[str, _Active] = {}
        self._writer: IO[bytes] | None = None  # the locked .lock file
        self._warned: set[str] = set()
        self.written = {KIND_PING: 0, KIND_TRACEROUTE: 0}  # records this object stored

    # -- segment files ------------------------------------------------------

    def _scan(self, kind: str | None = None) -> dict[str, tuple[dict, list]]:
        """Per kind (sealed, left_open): sealed maps the stem of each sealed
        segment to (load key, {suffix: path}); left_open lists (load key,
        path) of the segments named -open. Given a kind, the other kind's
        are left out."""
        found = {KIND_PING: ({}, []), KIND_TRACEROUTE: ({}, [])}
        try:
            names = os.listdir(self.path)
        except FileNotFoundError:
            return found
        for name in names:
            if not name.endswith((_NDJSON, columnar.SUFFIX)):
                continue
            match = _SEGMENT_NAME.fullmatch(name)
            if match is None:
                if name not in self._warned:
                    self._warned.add(name)
                    log.warning("ignoring %s: not a <kind>-<first>-<last|open> "
                                "segment", self.path / name)
                continue
            if kind is not None and match["kind"] != kind:
                continue
            sealed, left_open = found[match["kind"]]
            if match["last"] is None:
                left_open.append((_load_key(match), self.path / name))
            else:
                stem = name[:-len(match["suffix"])]
                sealed.setdefault(stem, (_load_key(match), {}))[1][match["suffix"]] = \
                    self.path / name
        return found

    @contextmanager
    def _segments(self, kind: str) -> Iterator[list[_Listed]]:
        """kind's segments in load order, as one read sees them. NDJSON
        segments are opened here, under the lock, so the read sees them as
        they were listed; they are closed on exit."""
        with ExitStack() as files:
            with self._lock:
                segments = self._list(kind, files)
            yield segments

    def _list(self, kind: str, files: ExitStack) -> list[_Listed]:
        sealed, left_open = self._scan(kind)[kind]
        segments, sealed_files = [], set()
        for stem, (key, paths) in sealed.items():
            if columnar.SUFFIX not in paths:
                try:
                    fp = files.enter_context(paths[_NDJSON].open("rb"))
                except FileNotFoundError:  # a writer has converted it since
                    paths[columnar.SUFFIX] = self.path / (stem + columnar.SUFFIX)
                else:
                    stat = os.fstat(fp.fileno())
                    sealed_files.add((stat.st_dev, stat.st_ino))
                    segments.append(_Listed(key, paths[_NDJSON], kind, fp, stat.st_size))
                    continue
            segments.append(_Listed(key, paths[columnar.SUFFIX], kind))
        active = self._active.get(kind)
        for key, path in left_open:
            try:
                fp = files.enter_context(path.open("rb"))
            except FileNotFoundError:
                raise StoreError(f"{path}: sealed by another process during this "
                                 f"read; read again") from None
            stat = os.fstat(fp.fileno())
            if active is not None and path == active.path:
                last = active.segment.last
                key = (active.first, f"{kind}-{active.first}-{last}", math.inf)
            elif (stat.st_dev, stat.st_ino) in sealed_files:
                # a sealed segment's second name: a seal cut between linking
                # the sealed name and unlinking this one
                continue
            segments.append(_Listed(key, path, kind, fp, stat.st_size, True))
        segments.sort(key=_LOAD_KEY)
        return segments

    # -- writing ------------------------------------------------------------

    def _become_writer(self) -> None:
        """Take the store's writer lock, then recover."""
        self.path.mkdir(parents=True, exist_ok=True)
        lock = open(self.path / ".lock", "ab")
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            lock.close()
            raise StoreError(f"{self.path}: another writer holds "
                             f"{self.path / '.lock'}") from None
        try:
            self._recover()
        except BaseException:
            lock.close()
            raise
        self._writer = lock

    def _recover(self) -> None:
        """Bring the files to the state sealing leaves: delete temp files
        of a cut seal, seal the segments an earlier process left open, give
        every sealed segment its columnar file, and rewrite version 1
        columnar files as version 2."""
        for temp in self.path.glob("*" + columnar.TEMP_SUFFIX):
            temp.unlink()
        for kind, (_, left_open) in self._scan().items():
            for (first, _, _), path in sorted(left_open, key=_LOAD_KEY):
                self._recover_open(path, kind, first)
        for kind, (sealed, _) in self._scan().items():
            for stem, (_, paths) in sealed.items():
                if _NDJSON in paths:
                    self._give_columns(stem, kind, paths)
                elif columnar.is_version_1(paths[columnar.SUFFIX]):
                    self._upgrade(stem, kind, paths[columnar.SUFFIX])

    def _recover_open(self, path: Path, kind: str, first: int) -> None:
        """Seal a segment an earlier process left open, named by the
        timestamp of its last line. It is read forward by the end rule reads
        use and truncated where that read ended, so only a torn tail goes;
        a segment with no record is deleted."""
        last = None
        with path.open("r+b") as fp:
            end = fp.seek(0, os.SEEK_END)
            fp.seek(0)
            for number, line in enumerate(_lines_within(fp, end, True), 1):
                if not line.isspace():
                    last = number, line
            if fp.tell() < end:
                log.warning("%s: dropped a torn last line of %d bytes", path,
                            end - fp.tell())
                fp.truncate(fp.tell())
        if last is None:
            path.unlink()
        else:
            number, line = last
            self._seal_file(path, kind, first,
                            _segment_record(line, kind, path, number).timestamp)

    def _give_columns(self, stem: str, kind: str, paths: dict[str, Path]) -> None:
        """Unlink a sealed NDJSON segment whose columnar twin is valid, or
        else write its columns. A segment with a bad line stays NDJSON, so
        it fails the reads of its kind as before."""
        ndjson = paths[_NDJSON]
        if columnar.SUFFIX in paths:
            try:
                columnar.Segment.load(paths[columnar.SUFFIX], kind).check()
            except StoreError as exc:
                log.warning("rebuilding %s from %s: %s", paths[columnar.SUFFIX], ndjson,
                            exc)
            else:
                ndjson.unlink()
                return
        try:
            with ndjson.open("rb") as fp:
                segment = _decode(fp, kind, ndjson)
        except StoreError as exc:
            log.warning("%s stays NDJSON: %s", ndjson, exc)
            return
        if segment.count:
            self._write_columns(stem, segment)
            os.unlink(ndjson)

    def _upgrade(self, stem: str, kind: str, path: Path) -> None:
        """Rewrite a version 1 columnar file as version 2. A file that
        fails its checks stays as it is, so it fails the reads of its kind
        as before."""
        try:
            segment = columnar.Segment.load(path, kind)
        except StoreError as exc:
            log.warning("%s stays version 1: %s", path, exc)
            return
        self._write_columns(stem, segment)

    def _write_columns(self, stem: str, segment: columnar.Segment) -> None:
        temp = self.path / (stem + columnar.TEMP_SUFFIX)
        columnar.write(temp, segment)
        os.replace(temp, self.path / (stem + columnar.SUFFIX))

    def _seal_file(self, path: Path, kind: str, first: int, last: int) -> str:
        """Move a finished NDJSON segment to its sealed name without
        replacing an existing file, and return its stem: a stem taken by
        either suffix gets the first free -<n> suffix.

        The move links the sealed name, then unlinks the old one. A name
        that is already a link to this file is a move an earlier process
        did not finish, so only the unlink is left to do. Where the file
        system has no hard links, the move is a rename to a name that does
        not exist yet."""
        base = f"{kind}-{first}-{last}"
        n = 0
        while True:
            stem = f"{base}-{n}" if n else base
            final = self.path / (stem + _NDJSON)
            if not (self.path / (stem + columnar.SUFFIX)).exists():
                try:
                    os.link(path, final)
                except FileExistsError:
                    if os.path.samefile(path, final):
                        path.unlink()
                        return stem
                except OSError:
                    if not final.exists():
                        path.rename(final)
                        return stem
                else:
                    path.unlink()
                    return stem
            n += 1

    def _seal(self, kind: str) -> None:
        seg = self._active.pop(kind, None)
        if seg is None:
            return
        seg.fp.close()
        if seg.segment.count:  # else its first write failed: recovery deletes the file
            stem = self._seal_file(seg.path, kind, seg.first, seg.segment.last)
            self._write_columns(stem, seg.segment)
            os.unlink(self.path / (stem + _NDJSON))

    def append(self, record: Record) -> None:
        """Validate and persist one record as from_json_obj decodes
        to_json_obj(record): with the checks and messages of a JSON document,
        and canonical addresses. The line is written from a %-format kept
        per pair and path, not JSON-encoded, and flushed to the operating
        system but not fsynced: it survives a crash of this process, not of
        the machine. A sealed segment's columnar file is fsynced."""
        if not isinstance(record, (PingRecord, TracerouteRun)):
            raise InvalidRecord([f"unsupported record type {type(record).__name__}"])
        self._write(from_json_obj(to_json_obj(record)))

    def _write(self, record: Record) -> None:
        """Persist one record that from_json_obj returned."""
        kind = _kind_of(record)
        with self._lock:
            if self._writer is None:
                self._become_writer()
            seg = self._active.get(kind)
            if seg is None:
                path = self.path / f"{kind}-{record.timestamp}-open.ndjson"
                seg = self._active[kind] = _Active(path, path.open("ab"), record.timestamp,
                                                   columnar.Segment(kind))
            seg.fp.write(seg.segment.line(record).encode())
            seg.fp.flush()
            seg.segment.add(record)
            self.written[kind] += 1
            if seg.segment.count >= self.segment_records:
                self._seal(kind)

    def close(self) -> None:
        """Seal the active segments and release the writer lock."""
        with self._lock:
            try:
                for kind in list(self._active):
                    self._seal(kind)
            finally:
                if self._writer is not None:
                    self._writer.close()
                    self._writer = None

    def __enter__(self) -> "RecordStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- reading ------------------------------------------------------------

    def count(self, kind: str | None = None) -> int:
        """Records of kind (of both kinds for None): a columnar segment's
        count comes from its header alone, once its CRC and fields check;
        an NDJSON segment is decoded."""
        if kind is None:
            return self.count(KIND_PING) + self.count(KIND_TRACEROUTE)
        with self._segments(kind) as segments:
            return sum(segment.open().count for segment in segments)

    def query(self, q: StoreQuery) -> list[Record]:
        """Matching records ordered by timestamp, then load order (within
        a segment, tie rank). Reads only q.kind's segments, and of a
        columnar file only the header and the blocks of the pairs and time
        range q selects; records are built only for the rows selected."""
        records = []
        with self._segments(q.kind) as segments:
            for segment in segments:
                records += segment.open().records(q)
        records.sort(key=_TIMESTAMP)
        return records

    def path_runs(self, q: StoreQuery) -> dict[tuple[str, str], PathRuns]:
        """The traceroute runs q selects, as a PathRuns per (source,
        destination) pair; read as query reads them."""
        if q.kind != KIND_TRACEROUTE:
            raise ValueError("path_runs reads traceroute runs")
        grouped: dict[tuple[str, str], PathRuns] = {}
        with self._segments(KIND_TRACEROUTE) as segments:
            for segment in segments:
                segment.open().group(q, grouped)
        return grouped

    def export(self, fp: IO[str]) -> int:
        """Write the canonical NDJSON stream; returns the record count.

        Records are ordered by timestamp; at equal timestamps pings come
        before traceroute runs, then each kind's load order, then the tie
        rank within a segment. Every segment is validated before anything
        is written. The segments are then merged in chains: segments whose
        time ranges do not overlap are read one after another, so memory
        holds about one columnar file per overlap, plus the columns of the
        NDJSON segments. A segment alone in its chain is read once: it
        keeps the columns its validation read."""
        with self._segments(KIND_PING) as pings, \
                self._segments(KIND_TRACEROUTE) as runs:
            segments = []
            for rank, listed in enumerate(pings + runs):
                segment = listed.open()
                if segment.count:
                    segments.append((segment.min, segment.max, rank, segment.opener()))
            chains = columnar.chains(segments)
            columnar.check_chains(chains)
            n = 0
            for _, _, line in heapq.merge(*map(columnar.chain_lines, chains)):
                fp.write(line)
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
