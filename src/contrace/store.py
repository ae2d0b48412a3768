"""The record store: append-only segment files of one record kind each.

Every segment is named <kind>-<id> by one counter over the store, so a
kind's segments load in the order they were begun. The active segment is
NDJSON; sealing turns a segment into a columnar file (see columnar). Every
read takes each segment as a columnar.Segment: a columnar file is loaded
as one, reading its header and then only the blocks the read selects, and
an NDJSON segment's lines are added to one held in memory, each by shape
or decoded, by the step import uses too (_line_row). Only query builds
records: it parses the lines export writes of every segment of its kind
and keeps those it matches. Every record reaches a file in a run of
whole lines bound for one segment, by one os.write under the lock, in
input order; each line joins its run by _Run.add, whose one rule says
where a run ends. Import has one mode: an array's documents are stored as
NDJSON of their compact lines. So a read never sees a torn record, a
killed import keeps a prefix of its input, and a failed write ends its
segment as a crash does. Reads and writers know only <kind>-<id> names
and columnar format version 3; a file of an older store fails them with a
StoreError that names it (columnar.refused): a version 2 file needs
`contrace upgrade` (see legacy), and nothing converts a version 1 file or
a name given before ids. RecordStore is also importable from
contrace.records.
"""

from __future__ import annotations

import fcntl
import itertools
import json
import os
import re
import threading
from contextlib import ExitStack, contextmanager, suppress
from operator import itemgetter, mod
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, NamedTuple, Sequence

from . import columnar
from .records import (KIND_PING, KIND_TRACEROUTE, STATUS_ECHO_REPLY, InvalidRecord,
                      MalformedJson, PathRuns, PingColumns, PingRecord, Record, StoreError,
                      StoreQuery, TracerouteRun, _ENCODE, _line_batches, checked_pings,
                      parse_line, validated)


def _warn(message: str, *args) -> None:
    """A warning on this module's logger. logging is imported at the first
    one, so a read that meets nothing to report never loads it."""
    import logging
    logging.getLogger(__name__).warning(message, *args, stacklevel=2)


# -- segment files -------------------------------------------------------------

_SEGMENT_NAME = re.compile(
    rf"(?P<stem>(?P<kind>{KIND_PING}|{KIND_TRACEROUTE})-(?P<id>[1-9][0-9]*))"
    rf"(?P<suffix>\.ndjson|\.col)")
# a segment file that is not <kind>-<id>: one of a store written before ids
_OLDER = re.compile(rf"(?:{KIND_PING}|{KIND_TRACEROUTE})-[0-9]")


_NDJSON = ".ndjson"
_CHUNK = 1 << 13  # characters of newline-delimited input import reads at a time
_ID = itemgetter(0)


def _kind_of(record: Record) -> str:
    return KIND_PING if isinstance(record, PingRecord) else KIND_TRACEROUTE


class _Stem(NamedTuple):
    """The files of one segment: <stem>.ndjson, <stem>.col or both."""

    id: int  # its kind's segments load by id
    stem: str
    paths: dict[str, Path]  # suffix -> path


def _lock(path: Path) -> IO[bytes]:
    """<path>/.lock, flocked: the store's writer lock, held by one process."""
    path.mkdir(parents=True, exist_ok=True)
    lock = open(path / ".lock", "ab")
    try:
        fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        lock.close()
        raise StoreError(f"{path}: another writer holds {path / '.lock'}") from None
    return lock


def _write_columns(path: Path, stem: str, segment: columnar.Segment) -> None:
    """Write segment as <path>/<stem>.col, by way of a fsynced temp file."""
    temp = path / (stem + columnar.TEMP_SUFFIX)
    columnar.write(temp, segment)
    os.replace(temp, path / (stem + columnar.SUFFIX))


def _line_row(line: str, segment: columnar.Segment | None, others: Iterable[_Active],
              segment_for: Callable[[str], columnar.Segment]
              ) -> tuple[columnar.Segment, str, tuple]:
    """(segment, line, row) of one line of NDJSON that is not blank: by
    shape (Segment.row) if segment, else one of the others' segments, knows
    it, as it is; else decoded once (parse_line) and encoded (Segment.encode)
    as its canonical line, for segment if the record is of its kind, else
    for the segment segment_for gives the record's kind. What is decoded
    is the line without its line break if str.splitlines sees one piece,
    else the whole line, so a segment line holding another break (a
    "\x0b", a U+2028) is not cut there. Raises MalformedJson or
    InvalidRecord, and UnicodeEncodeError for a lone surrogate, which
    reading bytes that are not UTF-8 with errors="surrogateescape" leaves."""
    shape, parts = columnar.shape(line)
    row = None if segment is None else segment.row(shape, parts)
    if row is not None:
        return segment, line, row
    for other in others:
        row = other.segment.row(shape, parts)
        if row is not None:
            return other.segment, line, row
    pieces = line.splitlines()
    document = pieces[0] if len(pieces) == 1 else line
    document.encode()  # raises for a byte that was not UTF-8
    record = parse_line(document)
    if segment is None or segment.kind != _kind_of(record):
        segment = segment_for(_kind_of(record))
    return (segment, *segment.encode(record))


def _decode(lines: Iterable[bytes], kind: str, path: Path) -> columnar.Segment:
    """A Segment of an NDJSON segment's lines, each validated, by shape or
    decoded (_line_row); blank lines, those of ASCII whitespace only, are
    skipped, but counted in the line numbers errors name. The StoreError
    raised names file and line."""
    segment = columnar.Segment(kind)

    def segment_for(found: str) -> columnar.Segment:  # a record not of kind
        raise StoreError(f"a {found} record in a {kind} segment")

    for number, line in enumerate(lines, 1):
        if line.isspace():
            continue
        try:
            found = _line_row(line.decode("utf-8"), segment, (), segment_for)
        except UnicodeDecodeError as exc:
            raise StoreError(f"{path}:{number}: not UTF-8: {exc}") from None
        except StoreError as exc:
            raise StoreError(f"{path}:{number}: {exc}") from exc
        segment.add_rows((found[2],))
    return segment


def _lines_within(fp: IO[bytes], size: int) -> Iterator[bytes]:
    """The lines of fp's first size bytes, never reading past them, by the
    end rule of every NDJSON segment: a last line without a newline counts
    if it is JSON; otherwise it is a torn tail, which is not read, and fp
    is left at its start."""
    while size > 0:
        line = fp.readline(size)
        if not line:
            return
        if not line.endswith(b"\n"):
            try:
                json.loads(line)
            except (ValueError, RecursionError):  # a torn tail
                fp.seek(-len(line), os.SEEK_CUR)
                return
        size -= len(line)
        yield line


class _Listed(NamedTuple):
    """One segment file as a read lists it."""

    path: Path
    kind: str
    fp: IO[bytes] | None = None  # an NDJSON segment, opened when listed
    size: int = 0  # its bytes to read

    def open(self) -> columnar.Segment:
        """The segment as columns: a columnar file is loaded; an NDJSON
        segment's lines are decoded."""
        if self.fp is None:
            return columnar.Segment.load(self.path, self.kind)
        return _decode(_lines_within(self.fp, self.size), self.kind, self.path)


class _Active(NamedTuple):
    """The segment a writer appends to, and its records so far."""

    path: Path
    fd: int
    segment: columnar.Segment


RUN_RECORDS = 256  # records a Runs sink holds before it stores them


class Runs:
    """A record sink that holds up to size records and then stores them
    by store.extend, in runs (_Run): what sim-run gives its workers. So
    its pings, which come in long runs, are checked and encoded a column
    at a time, with no validated or encode per record. A process killed
    with records held loses them, as it loses those it had yet to make."""

    def __init__(self, store: RecordStore, size: int):
        self._store, self._size, self._held = store, size, []

    def append(self, record: Record) -> None:
        held = self._held
        held.append(record)
        if len(held) >= self._size:
            self.flush()

    def flush(self) -> None:
        """Store the held records; they are let go first, so a failed
        write cannot store them twice."""
        held, self._held = self._held, []
        self._store.extend(held)


def _encode_pings(segment: columnar.Segment, pairs: list, timestamps: tuple, statuses: tuple,
                  rtts: tuple) -> tuple[list[str], list[tuple]]:
    """segment.encode's lines and rows of valid pings given as columns
    (checked_pings), as two lists: the lines from the same %-formats
    (Segment.format) by one map(mod, ...), as Segment.lines renders them."""
    keys = list(zip(pairs, statuses))
    made = {key: segment.format(key) + ("" if key[1] == STATUS_ECHO_REPLY else columnar.NO_RTT)
            for key in set(keys)}
    return (list(map(mod, map(made.__getitem__, keys), zip(timestamps, rtts))),
            list(zip(pairs, timestamps, statuses, map({None: -1}.get, rtts, rtts),
                     itertools.repeat(()))))


class _Run:
    """The run a writer builds during one hold of the store's lock: whole
    lines bound for one segment, written by one _write (end). Every line
    joins by add, which takes lines a group at a time (a record's, a run of
    pings encoded by the column, an import's lines bound for one segment),
    and is the one place a run is cut: before lines bound for another
    segment, where its segment reaches segment_records, and at exit, also
    an exit by an error. So seals fall on the lines they fall on when lines
    are stored one at a time, and the lines before an error are written
    before it propagates."""

    def __init__(self, store: RecordStore):
        self._store, self.segment, self._lines, self._rows = store, None, [], []

    def __enter__(self) -> _Run:
        return self

    def __exit__(self, *exc) -> None:
        self.end()

    def segment_for(self, kind: str) -> columnar.Segment:
        """The segment a record of kind goes to: the run's, else kind's
        active segment, else a new one, which its first _write begins."""
        segment = self.segment
        if segment is None or segment.kind != kind:
            active = self._store._active.get(kind)
            segment = columnar.Segment(kind) if active is None else active.segment
        return segment

    def add(self, segment: columnar.Segment, lines: Sequence[str],
            rows: Sequence[tuple]) -> None:
        """Add lines, the canonical lines of rows, bound for segment: the
        one place rows join a run, and where a run is cut. Where segment
        fills, the rest go on to the segment after it."""
        at = 0
        while at < len(rows):
            if segment is not self.segment:
                self.end()
                self.segment = segment
            end = at + self._store.segment_records - segment.count - len(self._rows)
            self._lines += lines[at:end]
            self._rows += rows[at:end]
            if end <= len(rows):
                self.end()  # and seals
                segment = self.segment_for(segment.kind)
            at = end

    def add_pings(self, pings: list[PingRecord]) -> None:
        """Add pings, bound for the ping segment: one at a time
        (add_records) if they fail checked_pings' fast check, else encoded
        a column at a time (_encode_pings) and added at once."""
        columns = checked_pings(pings) if pings else None
        if columns is None:
            self.add_records(pings)
            return
        segment = self.segment_for(KIND_PING)
        self.add(segment, *_encode_pings(segment, *columns))

    def add_records(self, records: Iterable[Record]) -> None:
        """Add records one at a time, each checked by validated, so an
        invalid one raises InvalidRecord after the records before it."""
        for record in records:
            if not isinstance(record, (PingRecord, TracerouteRun)):
                raise InvalidRecord([f"unsupported record type {type(record).__name__}"])
            record = validated(record)  # exactly a PingRecord or a TracerouteRun
            segment = self.segment_for(_kind_of(record))
            line, row = segment.encode(record)
            self.add(segment, (line,), (row,))

    def end(self) -> None:
        """Write the run, if it holds a line. It is let go first, as
        Runs.flush lets go of its records, so a failed write cannot store
        it twice."""
        segment, lines, rows = self.segment, self._lines, self._rows
        if segment is not None:
            self.segment, self._lines, self._rows = None, [], []
            self._store._write(segment, "".join(lines), rows)


class RecordStore:
    """Append-only store of segment files, one record kind each.

    Every segment is named <kind>-<id>, id being one more than the largest
    in the store when it is begun. The active segment is <kind>-<id>.ndjson,
    created only if no such file exists. Sealing writes the segment's
    columns to <kind>-<id>.col.tmp from memory and fsyncs it, renames that
    to <kind>-<id>.col and unlinks the NDJSON. A stem with both files is
    read from its columnar file.

    Readers never write. A writer takes an exclusive flock on <store>/.lock
    at its first write, and only then recovers: it deletes temp files and
    seals every segment that still has NDJSON (_give_columns). A second
    writer gets a StoreError.

    Every read lists the segments of the kinds it needs and validates what
    it reads: every line of an NDJSON segment; the header of a columnar
    one, and the CRC and every column value of each block it reads.
    Records with equal timestamps keep the load order: a kind's segments by
    id, rows in append order (tie rank). That is the order of
    appending, within a process and after a reopen. Reads and recovery end
    an NDJSON segment, the active one too, by one rule (_lines_within), so
    a crashed writer's store reads the same before and after recovery.
    Whole lines are passed to the operating system by one os.write under a
    lock, in runs bound for one segment, which extend (append's and a Runs
    sink's too) and import_json build alike (_Run). A read takes
    each file's size under the lock, so it sees the active segment as it was
    when the read started and never a torn record. A failed write ends its
    segment, which stays NDJSON until the next writer recovers it.

    A store written before ids or columnar format version 3 fails every
    read and writer, changing no file, with a StoreError that names an old
    file (columnar.refused); only version 2 files can be converted, by
    `contrace upgrade --store DIR` (legacy.upgrade).
    """

    def __init__(self, path: str | Path, *, segment_records: int = 100_000):
        self.path = Path(path)
        self.segment_records = segment_records
        self._lock = threading.Lock()
        self._active: dict[str, _Active] = {}
        self._writer: IO[bytes] | None = None  # the locked .lock file
        self._next_id = 0  # the id of the next segment, once a writer
        self._warned: set[str] = set()
        self.written = {KIND_PING: 0, KIND_TRACEROUTE: 0}  # records this object stored

    # -- segment files ------------------------------------------------------

    def _scan(self, kind: str | None = None) -> dict[str, list[_Stem]]:
        """Per kind its segments in load order. Given a kind, the other
        kind's are left out; a file of an older store fails either way."""
        found = {KIND_PING: {}, KIND_TRACEROUTE: {}}
        try:
            names = os.listdir(self.path)
        except FileNotFoundError:
            names = []
        for name in names:
            if not name.endswith((_NDJSON, columnar.SUFFIX)):
                continue
            match = _SEGMENT_NAME.fullmatch(name)
            if match is None:
                if _OLDER.match(name):
                    raise columnar.refused(self.path / name, None)
                if name not in self._warned:
                    self._warned.add(name)
                    _warn("ignoring %s: not a <kind>-<id>.ndjson or <kind>-<id>.col "
                          "segment", self.path / name)
                continue
            if kind is not None and match["kind"] != kind:
                continue
            stems = found[match["kind"]]
            stem = stems.get(match["stem"])
            if stem is None:
                stem = stems[match["stem"]] = _Stem(int(match["id"]), match["stem"], {})
            stem.paths[match["suffix"]] = self.path / name
        return {kind: sorted(stems.values(), key=_ID) for kind, stems in found.items()}

    @contextmanager
    def _segments(self, kind: str) -> Iterator[list[_Listed]]:
        """kind's segments in load order, as one read sees them. NDJSON
        segments are opened here, under the lock, so the read sees them as
        they were listed; they are closed on exit."""
        segments = []
        with ExitStack() as files:
            with self._lock:
                for stem in self._scan(kind)[kind]:
                    path = stem.paths.get(columnar.SUFFIX)
                    if path is None:
                        try:
                            fp = files.enter_context(stem.paths[_NDJSON].open("rb"))
                        except FileNotFoundError:  # a writer sealed it
                            path = self.path / (stem.stem + columnar.SUFFIX)
                        else:
                            segments.append(_Listed(stem.paths[_NDJSON], kind, fp,
                                                    os.fstat(fp.fileno()).st_size))
                            continue
                    segments.append(_Listed(path, kind))
            yield segments

    # -- writing ------------------------------------------------------------

    def _become_writer(self) -> None:
        """Take the store's writer lock, then recover."""
        lock = _lock(self.path)
        try:
            self._recover()
        except BaseException:
            lock.close()
            raise
        self._writer = lock

    def _recover(self) -> None:
        """Bring the files to the state sealing leaves, and work out the
        next id: delete temp files of a cut seal and give every segment
        that still has NDJSON its columnar file. First a file of an older
        store is refused: an old name by the scan, format version 1 or 2
        by a peek."""
        found = [(kind, stem) for kind, stems in self._scan().items() for stem in stems]
        for _, stem in found:
            path = stem.paths.get(columnar.SUFFIX)
            version = path and columnar.old_version(path)
            if version:
                raise columnar.refused(path, version)
        for temp in self.path.glob("*" + columnar.TEMP_SUFFIX):
            temp.unlink()
        self._next_id = 1 + max((stem.id for _, stem in found), default=0)
        for kind, stem in found:
            if _NDJSON in stem.paths:
                self._give_columns(stem, kind)

    def _give_columns(self, stem: _Stem, kind: str) -> None:
        """Seal a segment that still has NDJSON. If its columnar twin
        checks, the NDJSON is unlinked. Otherwise the NDJSON is read by the
        end rule reads use and truncated where that read ended, so only a
        torn tail goes; a file that holds no record is deleted, and the
        columns of one that does are written. A segment with a bad line
        stays NDJSON, so it fails the reads of its kind as before."""
        ndjson, twin = stem.paths[_NDJSON], stem.paths.get(columnar.SUFFIX)
        if twin is not None:
            try:
                columnar.Segment.load(twin, kind).check()
            except StoreError as exc:
                _warn("rebuilding %s from %s: %s", twin, ndjson, exc)
            else:
                ndjson.unlink()
                return
        with ndjson.open("r+b") as fp:
            end = fp.seek(0, os.SEEK_END)
            fp.seek(0)
            try:
                segment = _decode(_lines_within(fp, end), kind, ndjson)
            except StoreError as exc:
                _warn("%s stays NDJSON: %s", ndjson, exc)
                return
            if fp.tell() < end:
                _warn("%s: dropped a torn last line of %d bytes", ndjson, end - fp.tell())
                fp.truncate(fp.tell())
        if segment.count:
            _write_columns(self.path, stem.stem, segment)
        ndjson.unlink()

    def _seal(self, kind: str) -> None:
        seg = self._active.pop(kind)
        os.close(seg.fd)
        _write_columns(self.path, seg.path.stem, seg.segment)
        os.unlink(seg.path)

    def _write(self, segment: columnar.Segment, lines: str, rows: Sequence[tuple]) -> None:
        """The one way records reach a file, a run's (_Run.end): write
        lines, the canonical lines of rows, to segment's file by one
        os.write, add rows to it, and seal it if it is full; the lock is
        held. A segment not active is begun, its file created, after
        _become_writer at the first.
        If anything fails on the way, the segment ends as a crash ends it:
        it leaves _active, its file descriptor is closed even if that
        fails, and the error is raised, an OSError with the segment's path
        as its filename if it had none (os.write's). Its file stays NDJSON,
        read by the end rule (_lines_within) until the next writer recovers
        it, and a later write begins a new segment: nothing follows torn
        bytes."""
        kind = segment.kind
        try:
            seg = self._active.get(kind)
            if seg is None:
                if self._writer is None:
                    self._become_writer()
                path = self.path / f"{kind}-{self._next_id}{_NDJSON}"
                self._next_id += 1
                fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                seg = self._active[kind] = _Active(path, fd, segment)
            data, written = lines.encode(), 0
            while written < len(data):  # after a short write, again for the rest
                written += os.write(seg.fd, data[written:])
            segment.add_rows(rows)
        except BaseException as exc:
            seg = self._active.pop(kind, None)  # None: it was not begun
            if seg is not None:
                with suppress(OSError):
                    os.close(seg.fd)
                if isinstance(exc, OSError) and exc.filename is None:
                    exc.filename = str(seg.path)
            raise
        self.written[kind] += len(rows)
        if segment.count >= self.segment_records:
            self._seal(kind)

    def append(self, record: Record) -> None:
        """Validate and persist one record: extend((record,)), a run of one
        line, one os.write. measure appends each record as it is made."""
        self.extend((record,))

    def extend(self, records: Iterable[Record]) -> None:
        """Validate and persist records in order, each as from_json_obj
        decodes to_json_obj(record), by the same checks over its fields
        (validated). Each maximal run of PingRecords is checked and encoded
        a column at a time when it passes checked_pings' fast check, and
        one record at a time when it does not, as is every other record
        (_Run.add_pings). Either way the lines are stored in runs cut by
        one rule (_Run.add), each run by one os.write to the operating
        system, not fsynced, so they survive a crash of this process, not
        of the machine; sealed segments are fsynced. The files and seals
        are those of appending the records one at a time. An invalid
        record raises InvalidRecord once the records before it are written."""
        with self._lock, _Run(self) as run:
            pings: list[PingRecord] = []
            try:
                for record in records:
                    if type(record) is PingRecord:
                        pings.append(record)
                    else:
                        held, pings = pings, []
                        run.add_pings(held)
                        run.add_records((record,))
            finally:  # also the pings taken before records raised
                run.add_pings(pings)

    @contextmanager
    def runs(self, size: int = RUN_RECORDS) -> Iterator[Runs]:
        """A sink (Runs) that stores the records appended to it in runs of
        size by extend, and the rest on exit."""
        sink = Runs(self, size)
        try:
            yield sink
        finally:
            sink.flush()

    def _import_lines(self, batches: Iterable[list[str]]) -> tuple[int, list[tuple[int, str]]]:
        """Store newline-delimited input, given in batches of the complete
        lines of one read chunk, the documents 0, 1, ... in order; returns
        (accepted count, rejects). The lock is taken once a batch. Each line
        is taken by shape or decoded (_line_row), trying first the segment
        of the line before it, then the active ones; blank lines are
        skipped. Each group of consecutive lines bound for one segment joins
        a run at once (_Run.add) and is written before the lines after it
        are taken, so they find its segment active."""
        accepted, first, rejects = 0, 0, []
        active = self._active.values()
        for lines in batches:
            with self._lock, _Run(self) as run:
                # the group: lines taken, and their rows, bound for segment
                segment_for, segment, taken, rows = run.segment_for, None, [], []
                for i, line in enumerate(lines, first):
                    try:
                        found, line, row = _line_row(line, segment, active, segment_for)
                    except (UnicodeEncodeError, MalformedJson, InvalidRecord) as exc:
                        if not line.isspace():  # a blank line is skipped
                            rejects.append((i, str(exc) if isinstance(exc, StoreError)
                                            else "not UTF-8"))
                        continue
                    if found is not segment:
                        run.add(segment, taken, rows)
                        run.end()
                        segment, taken, rows = found, [], []
                    taken.append(line)
                    rows.append(row)
                    accepted += 1
                run.add(segment, taken, rows)
            first += len(lines)
        return accepted, rejects

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
        a segment, tie rank): q.kind's segments read whole, as export reads
        them, and each line parsed and kept if q's pair and [start, end)
        match it."""
        with self._segments(q.kind) as segments:
            chains = columnar.chains([segment for segment in map(_Listed.open, segments)
                                      if segment.count])
            runs = columnar.merge(map(columnar.chain_lines, chains))
            return [record for record in map(parse_line, itertools.chain.from_iterable(runs))
                    if q.matches_pair(record.source, record.destination)
                    and (q.start is None or record.timestamp >= q.start)
                    and (q.end is None or record.timestamp < q.end)]

    def ping_columns(self, q: StoreQuery) -> PingColumns:
        """The timestamp and rtt columns of the pings q selects, block by
        block (Segment.pings), reading only the blocks q selects."""
        if q.kind != KIND_PING:
            raise ValueError("ping_columns reads pings")
        columns = PingColumns()
        with self._segments(KIND_PING) as segments:
            for segment in segments:
                segment.open().pings(q, columns)
        return columns

    def path_runs(self, q: StoreQuery) -> dict[tuple[str, str], PathRuns]:
        """The traceroute runs q selects, as a PathRuns per (source,
        destination) pair (Segment.group); read as ping_columns reads."""
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
        keeps the columns its validation read; one that shares its chain
        reads its blocks again, checked by their CRC alone. Each segment
        gives its lines in slabs of at most columnar.SLAB_ROWS rows, and
        the merge cuts the chains' slabs at timestamps into runs of lines,
        each written by one write."""
        with self._segments(KIND_PING) as pings, \
                self._segments(KIND_TRACEROUTE) as runs:
            segments = [segment for segment in map(_Listed.open, pings + runs)
                        if segment.count]
            chains = columnar.chains(segments)
            columnar.check_chains(chains)
            n = 0
            for run in columnar.merge(map(columnar.chain_lines, chains)):
                fp.write("".join(run))
                n += len(run)
        return n

    def import_json(self, stream: IO[str] | Iterable[str]) -> tuple[int, list[tuple[int, str]]]:
        """Ingest newline-delimited or array-wrapped JSON documents.

        Returns (accepted count, [(document index, reason), ...]); rejected
        documents are reported, never silently skipped. Both forms are
        stored one way: as lines of NDJSON, in batches (_import_lines),
        each line written as it is if its shape is an active segment's,
        else decoded once and written as its canonical line.

        Newline-delimited input is read in chunks of _CHUNK characters, and
        each batch is the complete lines of one chunk; its documents and
        their indexes are the lines of str.splitlines over the whole input,
        blank lines counted. Only input whose first non-blank character is
        "[" is read whole, as one JSON array; its documents, each encoded
        as one compact line and indexed by position, are one batch. Each
        run of a batch's lines bound for one segment is one os.write of
        whole lines under the lock, so a read never sees a torn record, and
        the files are written in input order, so a killed import keeps a
        prefix of its input. A line holding a lone surrogate, which reading
        bytes that are not UTF-8 with errors="surrogateescape" leaves, is
        rejected as "not UTF-8"; an array holding one is rejected whole, at
        index 0.
        """
        chunks = iter(lambda: stream.read(_CHUNK), "") if hasattr(stream, "read") \
            else iter(stream)
        head = []
        for chunk in chunks:
            head.append(chunk)
            if chunk.strip():
                break
        head = "".join(head)
        if head.lstrip().startswith("["):
            text = head + "".join(chunks)
            try:
                text.encode()  # raises for a byte that was not UTF-8
                documents = json.loads(text)
            except UnicodeEncodeError:
                return 0, [(0, "not UTF-8")]
            except (ValueError, RecursionError) as exc:  # also too many digits or too deep
                return 0, [(0, f"invalid JSON array: {exc}")]
            batches = [[_ENCODE(document) + "\n" for document in documents]]
        else:
            batches = _line_batches(itertools.chain((head,), chunks))
        return self._import_lines(batches)
