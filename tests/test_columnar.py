"""Columnar sealed segments, the writer lock, and seals cut by a crash.

The format is read and rewritten here from its description in the columnar
module (magic, CRC32 of the header length and header, header length, JSON
header with one entry per pair's block, each block's columns byte-shuffled
and zlib-compressed with its own CRC32 over the stored bytes),
independently of the code that writes it.
"""

import io
import json
import os
import random
import re
import sys
import tempfile
import tracemalloc
import zlib
from array import array
from collections import Counter
from itertools import chain, repeat
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from contrace import cli, columnar, legacy
from contrace.analytics import HOUR_US, bucket_rtt_series
from contrace.records import (Hop, PingColumns, PingRecord, RecordStore, StoreError,
                              StoreQuery, TracerouteRun, from_json_obj, to_json_obj)
from conftest import add_record, path_runs, ping_columns
from oracles import serialize_line

MAGIC = b"contrace columns\n"


def ping(ts, rtt=None, src="10.0.0.1", dst="10.1.0.1"):
    return PingRecord(ts, src, dst, 0 if rtt is None else 255, rtt)


def run(ts, variant=0, rnd=0, src="10.0.0.1", dst="10.1.0.1", rtt=9_000):
    middle = (Hop(2, 0),) if variant == 0 else (Hop(2, 1, "10.0.1.254", 700 + ts),)
    return TracerouteRun(ts, src, dst, rnd, (Hop(1, 1, "10.0.0.254", 500 + ts),) + middle
                         + (Hop(3, 255, dst, rtt + ts),))


def _itemsize(code):
    return 1 if code == "json" else array(code).itemsize


def _shuffle(raw, size):
    """Byte k of every item, for k in order."""
    return bytes(raw[i + k] for k in range(size) for i in range(0, len(raw), size))


def _unshuffle(data, size):
    n = len(data) // size
    return bytes(data[k * n + i] for i in range(n) for k in range(size))


def stored_columns(path):
    """(header, [[stored column bytes] per block]) of a version 3 file, as
    its specs cut them; nothing is checked."""
    data = path.read_bytes()
    start = len(MAGIC) + 8
    size = int.from_bytes(data[len(MAGIC) + 4:start], "little")
    header = json.loads(data[start:start + size])
    blocks, offset = [], start + size
    for *_, specs, _ in header["blocks"]:
        blocks.append([])
        for _, nbytes, _ in specs:
            blocks[-1].append(data[offset:offset + nbytes])
            offset += nbytes
    return header, blocks


def read_columnar(path):
    """(header, [[column bytes] per block]) of a version 3 columnar segment
    file, its CRCs checked and its columns inflated and unshuffled, each to
    the items its spec declares."""
    data = path.read_bytes()
    assert data.startswith(MAGIC)
    start = len(MAGIC) + 8
    size = int.from_bytes(data[len(MAGIC) + 4:start], "little")
    assert zlib.crc32(data[len(MAGIC) + 4:start + size]) == \
        int.from_bytes(data[len(MAGIC):len(MAGIC) + 4], "little")
    header, stored = stored_columns(path)
    assert start + size + sum(map(len, chain.from_iterable(stored))) == len(data)
    blocks = []
    for entry, columns in zip(header["blocks"], stored):
        assert zlib.crc32(b"".join(columns)) == entry[7]
        blocks.append([])
        for (code, _, items), column in zip(entry[6], columns):
            raw = zlib.decompress(column)
            assert len(raw) == items * _itemsize(code)
            blocks[-1].append(_unshuffle(raw, _itemsize(code)))
    return header, blocks


def write_stored(path, header, blocks):
    """Write header, its specs as they are, and the stored columns of its
    blocks, each block's CRC and the header's CRC made to fit."""
    for entry, stored in zip(header["blocks"], blocks):
        entry[7] = zlib.crc32(b"".join(stored))
    head = json.dumps(header, separators=(",", ":")).encode()
    sized = len(head).to_bytes(4, "little") + head
    path.write_bytes(MAGIC + zlib.crc32(sized).to_bytes(4, "little") + sized
                     + b"".join(chain.from_iterable(blocks)))


def write_columnar(path, header, blocks):
    """Write header and the blocks' columns as a version 3 file, each
    column shuffled and compressed, the blocks' column specs and CRCs and
    the header's CRC made to fit. A column that ends in a partial item
    declares one item more and is stored unshuffled."""
    stored = []
    for entry, columns in zip(header["blocks"], blocks):
        specs = []
        stored.append([])
        for (code, *_), raw in zip(entry[6], columns):
            size = _itemsize(code)
            stored[-1].append(zlib.compress(raw if len(raw) % size else _shuffle(raw, size)))
            specs.append([code, len(stored[-1][-1]), -(-len(raw) // size)])
        entry[6] = specs
    write_stored(path, header, stored)


def dump(store):
    out = io.StringIO()
    store.export(out)
    return out.getvalue()


def canonical(records_):
    """The export of records_: by timestamp, pings first, stable."""
    ordered = sorted(records_, key=lambda r: (r.timestamp, isinstance(r, TracerouteRun)))
    return "".join(serialize_line(r) for r in ordered)


def names(directory, pattern="*"):
    return sorted(p.name for p in directory.glob(pattern))


def small_store(path):
    """One sealed segment of each kind: replies, timeouts and two paths."""
    pings = [ping(5, 1200), ping(6), ping(7, 1300, dst="10.1.0.2")]
    runs = [run(5), run(6, variant=1), run(7, rnd=2), run(8, dst="10.1.0.2")]
    with RecordStore(path) as store:
        for record in pings + runs:
            store.append(record)
    return pings, runs


class TestFormat:
    def test_sealed_segments_are_columnar_and_read_back_exactly(self, tmp_path):
        pings, runs = small_store(tmp_path)
        assert names(tmp_path, "*-*") == ["ping-1.col", "traceroute-2.col"]
        header, _ = read_columnar(tmp_path / "traceroute-2.col")
        assert header["kind"] == "traceroute" and header["version"] == 3
        assert header["columns"] == ["timestamp", "round", "path", "rtt"]  # no tie
        assert [entry[:6] for entry in header["blocks"]] == [
            ["10.0.0.1", "10.1.0.1", 3, 5, 7, True], ["10.0.0.1", "10.1.0.2", 1, 8, 8, True]]
        assert header["paths"][0] == [[1, 1, "10.0.0.254"], [2, 0, None],
                                      [3, 255, "10.1.0.1"]]
        store = RecordStore(tmp_path)
        assert store.query(StoreQuery("ping")) == pings
        assert store.query(StoreQuery("traceroute")) == runs
        assert store.count() == 7
        assert dump(store) == canonical(pings + runs)

    def test_sealing_holds_less_than_a_copy_of_a_column(self, tmp_path):
        """write takes each byte plane of a column from the column itself,
        so sealing 200,000 pings peaks below the 1.6 MB of their timestamp
        column, not a second copy of it above that."""
        segment = columnar.Segment("ping")
        segment.add_rows([(("10.0.0.1", "10.1.0.1"), 1_600_000_000_000_000 + 1_000_000 * i,
                           255, 10_000 + i % 997, ()) for i in range(200_000)])
        timestamps = segment.blocks[0].columns[0]
        assert timestamps.typecode == "q"
        tracemalloc.start()
        try:
            columnar.write(tmp_path / "ping-1.col", segment)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(timestamps) * timestamps.itemsize
        assert columnar.Segment.load(tmp_path / "ping-1.col", "ping").count == 200_000

    def test_reading_holds_little_beyond_the_columns_it_keeps(self, tmp_path):
        """A read inflates each column's byte planes in pieces that its
        values take as they come, so loading 200,000 pings and reading them
        peaks less than 0.5 MB above what the read keeps: neither the whole
        inflated 1.6 MB timestamp column nor an unshuffled copy of it is
        held beside its values."""
        segment = columnar.Segment("ping")
        segment.add_rows([(("10.0.0.1", "10.1.0.1"), 1_600_000_000_000_000 + 1_000_000 * i,
                           255, 10_000 + i % 997, ()) for i in range(200_000)])
        columnar.write(tmp_path / "ping-1.col", segment)
        del segment
        tracemalloc.start()
        try:
            loaded = columnar.Segment.load(tmp_path / "ping-1.col", "ping")
            columns = PingColumns()
            loaded.pings(StoreQuery("ping"), columns)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        [(timestamps, rtts)] = columns.blocks
        assert timestamps.typecode == "q" and len(timestamps) == 200_000
        assert list(rtts[:3]) == [10_000, 10_001, 10_002]
        assert peak - kept < 500_000

    def test_query_prunes_and_filters_on_the_columns(self, tmp_path):
        pings, runs = small_store(tmp_path)
        store = RecordStore(tmp_path)
        assert store.query(StoreQuery("ping", destination="10.1.0.2")) == [pings[2]]
        assert store.query(StoreQuery("traceroute", start=6, end=8)) == runs[1:3]
        assert store.query(StoreQuery("traceroute", start=9)) == []
        assert store.query(StoreQuery("ping", source="10.9.9.9")) == []

    def test_path_runs_group_each_pair_by_path(self, tmp_path):
        _, runs = small_store(tmp_path)
        grouped = RecordStore(tmp_path).path_runs(StoreQuery("traceroute", end=8))
        [pair] = grouped
        assert pair == ("10.0.0.1", "10.1.0.1")
        paths = grouped[pair]
        assert len(paths) == 3 and paths.counts == [2, 1]
        assert _rtt_rows(paths, 0) == [(505, 9005), (507, 9007)]
        assert list(paths.rtt_column(1, 1)) == [706]
        assert path_runs(runs[:3]).paths == paths.paths

    def test_path_runs_read_every_kind_of_segment_alike(self, tmp_path):
        def by_path(grouped):
            return {pair: {path: sorted(_rtt_rows(runs, i))
                           for i, path in enumerate(runs.paths)}
                    for pair, runs in grouped.items()}

        stored = [run(ts, variant=ts % 3 == 0, dst=f"10.1.0.{ts % 2 + 1}")
                  for ts in range(1, 12)]
        with RecordStore(tmp_path, segment_records=4) as store:
            for record in stored:
                store.append(record)  # two columnar segments, one active NDJSON
            # a segment another process left open
            (tmp_path / "traceroute-20.ndjson").write_text(
                serialize_line(run(20)) + serialize_line(run(21, variant=1)))
            assert names(tmp_path, "traceroute-*.ndjson") == [
                "traceroute-20.ndjson", "traceroute-3.ndjson"]
            for q in (StoreQuery("traceroute"), StoreQuery("traceroute", start=3, end=21),
                      StoreQuery("traceroute", destination="10.1.0.2")):
                expected = {}
                for record in store.query(q):
                    expected.setdefault((record.source, record.destination), []).append(record)
                assert by_path(store.path_runs(q)) == \
                    by_path({pair: path_runs(runs) for pair, runs in expected.items()})

    def test_foreign_byte_order_is_swapped(self, tmp_path):
        pings, runs = small_store(tmp_path)
        for segment in tmp_path.glob("*.col"):
            header, blocks = read_columnar(segment)
            swapped = []
            for entry, columns in zip(header["blocks"], blocks):
                swapped.append([])
                for (code, *_), raw in zip(entry[6], columns):
                    values = array(code)
                    values.frombytes(raw)
                    values.byteswap()
                    swapped[-1].append(values.tobytes())
            header["byteorder"] = "big" if sys.byteorder == "little" else "little"
            write_columnar(segment, header, swapped)
        store = RecordStore(tmp_path)
        assert store.query(StoreQuery("ping")) == pings
        assert store.query(StoreQuery("traceroute")) == runs
        assert dump(store) == canonical(pings + runs)

    def test_values_beyond_64_bits_fall_back_to_json_columns(self, tmp_path):
        huge = 2**70
        stored = [ping(huge, 5), ping(7, huge), run(6, rtt=huge), run(huge), run(5)]
        with RecordStore(tmp_path) as store:
            for record in stored:
                store.append(record)
        header, _ = read_columnar(tmp_path / "ping-1.col")
        [entry] = header["blocks"]
        assert [code for code, *_ in entry[6]] == ["json", "h", "json"]
        header, _ = read_columnar(tmp_path / "traceroute-2.col")
        [entry] = header["blocks"]
        assert [code for code, *_ in entry[6]] == ["json", "b", "b", "json"]
        store = RecordStore(tmp_path)
        assert store.query(StoreQuery("ping")) == [stored[1], stored[0]]
        assert store.query(StoreQuery("traceroute")) == [stored[4], stored[2], stored[3]]
        assert entry[5] is False  # the block is not sorted
        assert dump(store) == canonical(stored)
        [(pair, paths)] = store.path_runs(StoreQuery("traceroute")).items()
        assert sorted(chain.from_iterable(_rtt_rows(paths, 0))) == [
            505, 506, 5 + 9_000, 6 + huge, 500 + huge, 9_000 + huge]

    def test_written_values_round_trip_through_import_and_export(self, tmp_path):
        rng = random.Random(3)
        stored = []
        for i in range(300):
            ts = rng.randrange(1, 2**62)
            if rng.random() < 0.5:
                stored.append(ping(ts, rng.choice([None, rng.randrange(2**40)]),
                                   dst=rng.choice(["10.1.0.1", "10.1.0.2"])))
            else:
                stored.append(run(ts, variant=rng.randrange(2), rnd=rng.randrange(4),
                                  rtt=rng.randrange(2**40)))
        with RecordStore(tmp_path / "a", segment_records=64) as store:
            for record in stored:
                store.append(record)
        text = dump(RecordStore(tmp_path / "a"))
        assert text == canonical(stored)
        with RecordStore(tmp_path / "b", segment_records=50) as other:
            assert other.import_json(io.StringIO(text)) == (300, [])
        assert dump(RecordStore(tmp_path / "b")) == text
        assert not list((tmp_path / "b").glob("*.ndjson"))


def _grouped_reference(runs, q):
    """path_runs by brute force: q's runs in load order, per pair a list of
    (path, [responsive-hop RTTs of each run]) in order of first use."""
    grouped = {}
    for record in runs:
        if oracles.matches(q, record):
            paths = grouped.setdefault((record.source, record.destination), {})
            path = tuple((h.hop, h.status, h.address) for h in record.hops)
            paths.setdefault(path, []).append(tuple(h.rtt for h in record.hops if h.status))
    return {pair: list(paths.items()) for pair, paths in grouped.items()}


def _responsive(path):
    """The number of responsive hops of a PathRuns path."""
    return sum(status != 0 for _, status, _ in path)


def _rtt_rows(runs, path):
    """The responsive-hop RTTs of each run of a PathRuns path, run by
    run, gathered through rtt_column."""
    columns = [runs.rtt_column(path, position)
               for position in range(_responsive(runs.paths[path]))]
    return list(zip(*columns)) if columns else [()] * runs.counts[path]


def _grouped(path_runs_):
    return {pair: [(path, _rtt_rows(runs, i)) for i, path in enumerate(runs.paths)]
            for pair, runs in path_runs_.items()}


class TestSegmentForms:
    """One set of records spread over every form a segment takes: sealed
    columnar, NDJSON that a writer's recovery seals, a crashed writer's NDJSON
    with a torn tail, and the writer's own active segment. Every read
    equals a brute-force reference over the records in load order."""

    PAIRS = [("10.0.0.1", "10.1.0.1"), ("10.0.0.1", "10.1.0.2"), ("10.0.0.2", "10.1.0.1")]

    def chunk(self, rng, first, kind):
        """A segment's records: the first at its first timestamp, the rest
        at 5-15, so timestamps repeat within and across segments."""
        chunk = []
        for ts in [first] + [rng.randrange(5, 16) for _ in range(rng.randrange(8, 20))]:
            src, dst = rng.choice(self.PAIRS)
            chunk.append(ping(ts, rng.choice([None, rng.randrange(1, 5000)]), src, dst)
                         if kind == "ping" else
                         run(ts, rng.randrange(2), rng.randrange(3), src, dst,
                             rng.randrange(1, 5000)))
        return chunk

    def test_reads_of_every_form_equal_the_reference(self, tmp_path):
        rng = random.Random(8)
        forms = {kind: [self.chunk(rng, first, kind) for first in (1, 2, 3, 4)]
                 for kind in ("ping", "traceroute")}
        for segment_id, (kind, (_, sealed, _, _)) in enumerate(forms.items(), 1):
            lines = [serialize_line(r) for r in sealed]  # 2: NDJSON a writer seals
            (tmp_path / f"{kind}-{segment_id}.ndjson").write_text(
                "".join(lines[:3]) + "\n" + "".join(lines[3:]))
        # the first writer's recovery seals those, so they load before its own
        with RecordStore(tmp_path) as first_writer:  # 1: sealed columnar, ids 3 and 4
            for kind in forms:
                for record in forms[kind][0]:
                    first_writer.append(record)
        assert names(tmp_path, "*-*") == [
            "ping-1.col", "ping-3.col", "traceroute-2.col", "traceroute-4.col"]
        with RecordStore(tmp_path) as writer:
            for kind in forms:  # 4: the writer's active segment, ids 5 and 6
                for record in forms[kind][3]:
                    writer.append(record)
            for crashed, (kind, (_, _, left_open, _)) in enumerate(forms.items(), 7):
                lines = [serialize_line(r) for r in left_open]  # 3: a torn tail
                (tmp_path / f"{kind}-{crashed}.ndjson").write_text(
                    "".join(lines) + lines[0][:25])
            # left open with no whole line: only a partial one, or only blank lines
            (tmp_path / "ping-9.ndjson").write_text(serialize_line(ping(6))[:30])
            (tmp_path / "traceroute-10.ndjson").write_text("\n  \n")
            assert names(tmp_path, "*-*") == [
                "ping-1.col", "ping-3.col", "ping-5.ndjson", "ping-7.ndjson",
                "ping-9.ndjson", "traceroute-10.ndjson", "traceroute-2.col",
                "traceroute-4.col", "traceroute-6.ndjson", "traceroute-8.ndjson"]
            in_load_order = {kind: [r for i in (1, 0, 3, 2) for r in chunks[i]]
                             for kind, chunks in forms.items()}
            expected_export = canonical(in_load_order["ping"] + in_load_order["traceroute"])
            pair = self.PAIRS[0]
            for store in (writer, RecordStore(tmp_path)):
                assert dump(store) == expected_export
                assert store.count() == sum(map(len, in_load_order.values()))
                for kind, stored in in_load_order.items():
                    for q in (StoreQuery(kind), StoreQuery(kind, None, None, *pair),
                              StoreQuery(kind, start=6, end=11),
                              StoreQuery(kind, 3, 12, *pair),
                              StoreQuery(kind, source=pair[0]),
                              StoreQuery(kind, start=16)):
                        assert store.count(kind) == len(stored)
                        assert store.query(q) == sorted(
                            (r for r in stored if oracles.matches(q, r)),
                            key=lambda r: r.timestamp)
                        if kind == "traceroute":
                            assert _grouped(store.path_runs(q)) == \
                                _grouped_reference(stored, q)
        # a writer's recovery seals what was left open and drops the torn tails
        with RecordStore(tmp_path) as writer:
            writer.append(ping(100))
        assert not list(tmp_path.glob("*.ndjson"))
        assert dump(RecordStore(tmp_path)) == expected_export + serialize_line(ping(100))

    @pytest.mark.parametrize("kind", ["ping", "traceroute"])
    def test_a_segment_of_no_rows_reads_as_empty(self, kind):
        segment = columnar.Segment(kind)
        assert (segment.count, segment.min, segment.max) == (0, None, None)
        for q in (StoreQuery(kind), StoreQuery(kind, start=1, end=2),
                  StoreQuery(kind, source="10.0.0.1")):
            if kind == "ping":
                assert _ping_state(segment, q) == []
            else:
                assert _group_state(segment, q) == {}
        assert list(segment.lines(0)) == []


# Small values, equal ones among them, and one that needs each wider
# column: h, i, q, and beyond 2**63 only a JSON column holds a value.
_VALUES = st.one_of(st.integers(1, 40), st.sampled_from([300, 70_000, 2**40, 2**64 + 1]))


@st.composite
def _segment_records(draw):
    """(kind, records) for one segment, in append order, timestamps unsorted."""
    kind = draw(st.sampled_from(["ping", "traceroute"]))
    records_ = []
    for _ in range(draw(st.integers(1, 12))):
        timestamp, (source, destination) = draw(_VALUES), draw(
            st.sampled_from(TestSegmentForms.PAIRS))
        if kind == "ping":
            status = draw(st.sampled_from([0, 1, 255]))
            record = PingRecord(timestamp, source, destination, status,
                                draw(_VALUES) if status == 255 else None)
        else:
            n = draw(st.integers(1, 3))
            hops = []
            for number in range(1, n + 1):
                status = draw(st.sampled_from([0, 1, 255] if number == n else [0, 1]))
                hops.append(Hop(number, status) if status == 0 else
                            Hop(number, status, draw(st.sampled_from(["10.0.0.254",
                                                                     destination])),
                                draw(_VALUES)))
            record = TracerouteRun(timestamp, source, destination, draw(_VALUES), tuple(hops))
        records_.append(from_json_obj(to_json_obj(record)))
    return kind, records_


def _facts(segment):
    return (segment.count, segment.min, segment.max, segment.ties,
            [(block.pair, block.count, block.min, block.max, block.sorted)
             for block in segment.blocks], segment.keys, segment.widths)


def _group_state(segment, q):
    grouped = {}
    segment.group(q, grouped)
    return {pair: (runs.paths, runs.counts,
                   [_rtt_rows(runs, i) for i in range(len(runs.paths))])
            for pair, runs in grouped.items()}


def _ping_state(segment, q):
    columns = PingColumns()
    segment.pings(q, columns)
    return [(list(times), list(rtts)) for times, rtts in columns.blocks]


def _ping_reference(pings, q):
    """Segment.pings by brute force: per pair, in the order of the pairs'
    first pings, the (timestamps, rtts) of q's pings in append order, an
    rtt being -1 where the ping has none; a pair q selects none of is left
    out."""
    blocks = {(r.source, r.destination): ([], []) for r in pings}
    for record in pings:
        if oracles.matches(q, record):
            times, rtts = blocks[record.source, record.destination]
            times.append(record.timestamp)
            rtts.append(-1 if record.rtt is None else record.rtt)
    return [block for block in blocks.values() if block[0]]


def _by_time(records_):
    return sorted(records_, key=lambda r: r.timestamp)


def _lines(slabs):
    """The canonical lines of Segment.lines' slabs, in their order."""
    return [line for _, _, lines in slabs for line in lines]


@settings(max_examples=150, deadline=None)
@given(drawn=_segment_records())
def test_a_segment_filled_by_add_reads_alike_once_written_and_loaded(drawn):
    kind, records_ = drawn
    memory = columnar.Segment(kind)
    for record in records_:
        add_record(memory, record)
    times = [r.timestamp for r in records_]
    blocks, ties, seen = {}, {}, Counter()
    for r in records_:  # per pair its timestamps, and each row's rank among equal ones
        pair = (r.source, r.destination)
        blocks.setdefault(pair, []).append(r.timestamp)
        ties.setdefault(pair, []).append(seen[r.timestamp])
        seen[r.timestamp] += 1
    assert _facts(memory)[:5] == (
        len(records_), min(times), max(times), len(set(times)) < len(times),
        [(pair, len(ts), min(ts), max(ts), ts == sorted(ts)) for pair, ts in blocks.items()])
    assert {block.pair: list(block.columns[1]) for block in memory.blocks} == ties
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / f"{kind}-1-1.col"
        columnar.write(path, memory)
        loaded = columnar.Segment.load(path, kind)
        assert _facts(loaded)[:5] == _facts(memory)[:5]
        loaded.check()  # reads every block, checking the paths they use
        assert _facts(loaded) == _facts(memory)
        middle = sorted(times)[len(times) // 2]
        source, destination = records_[0].source, records_[0].destination
        for q in (StoreQuery(kind), StoreQuery(kind, start=middle),
                  StoreQuery(kind, end=middle),
                  StoreQuery(kind, min(times), middle + 1, source, destination),
                  StoreQuery(kind, source=source), StoreQuery(kind, destination="10.9.9.9")):
            if kind == "ping":
                assert _ping_state(loaded, q) == _ping_state(memory, q) == \
                    _ping_reference(records_, q)
            else:
                assert _group_state(loaded, q) == _group_state(memory, q)
                grouped = {}
                loaded.group(q, grouped)
                assert _grouped(grouped) == _grouped_reference(records_, q)
        assert _lines(loaded.lines(0)) == _lines(memory.lines(0))
    assert "".join(_lines(memory.lines(0))) == canonical(records_)


@st.composite
def _stored_runs(draw):
    """(runs, segment_records, split): traceroute runs in append order, of
    the pairs of TestSegmentForms, their timestamps unsorted and repeating
    and their RTTs among _VALUES; a writer's segment size; and how many of
    the runs a writer appends, the rest left in a crashed writer's segment."""
    runs = []
    for _ in range(draw(st.integers(1, 24))):
        source, destination = draw(st.sampled_from(TestSegmentForms.PAIRS))
        n = draw(st.integers(1, 3))
        hops = []
        for number in range(1, n + 1):
            status = draw(st.sampled_from([0, 1, 255] if number == n else [0, 1]))
            hops.append(Hop(number, status) if status == 0 else
                        Hop(number, status, draw(st.sampled_from(["10.0.0.254", destination])),
                            draw(_VALUES)))
        runs.append(TracerouteRun(draw(st.integers(1, 12)), source, destination,
                                  draw(st.integers(0, 2)), tuple(hops)))
    return runs, draw(st.integers(2, 5)), draw(st.integers(0, len(runs)))


@settings(max_examples=60, deadline=None)
@given(drawn=_stored_runs(), window=st.tuples(st.integers(1, 12), st.integers(1, 12)))
def test_path_runs_equal_the_reference_over_every_form_of_segment(drawn, window):
    """A writer's sealed segments and its active NDJSON one, then a crashed
    writer's NDJSON segment with a torn tail: per pair, the paths in order
    of first use, their run counts, and each rtt_column() equal the
    reference, read by the writer and by a reader, whole and under a time
    window and a pair."""
    runs, segment_records, split = drawn
    start, end = sorted(window)
    pair = TestSegmentForms.PAIRS[0]
    queries = [StoreQuery("traceroute"), StoreQuery("traceroute", start, end + 1),
               StoreQuery("traceroute", start, end + 1, *pair)]
    with tempfile.TemporaryDirectory() as directory:
        directory = Path(directory)
        with RecordStore(directory, segment_records=segment_records) as writer:
            for record in runs[:split]:
                writer.append(record)
            lines = [serialize_line(record) for record in runs[split:]]
            (directory / "traceroute-1000.ndjson").write_text(
                "".join(lines) + (lines[0][:25] if lines else ""))
            for store in (writer, RecordStore(directory)):
                for q in queries:
                    expected = {pair: [(path, len(rows), [list(column) for column in
                                                          zip(*rows)] if rows[0] else [])
                                       for path, rows in paths]
                                for pair, paths in _grouped_reference(runs, q).items()}
                    got = {pair: [(path, count, [grouped.rtt_column(i, position)
                                                 for position in range(_responsive(path))])
                                  for i, (path, count) in enumerate(
                                      zip(grouped.paths, grouped.counts))]
                           for pair, grouped in store.path_runs(q).items()}
                    assert got == expected


_STEP = HOUR_US // 3  # pings three to an hour bucket


@st.composite
def _stored_pings(draw):
    """(pings, segment_records, split) as _stored_runs gives runs: pings of
    the pairs of TestSegmentForms at whole _STEPs, their timestamps unsorted
    and repeating, their statuses any and the RTTs of echo replies among
    _VALUES, so some need a JSON column."""
    pings = []
    for _ in range(draw(st.integers(1, 24))):
        status = draw(st.sampled_from([0, 1, 255]))
        pings.append(PingRecord(draw(st.integers(1, 12)) * _STEP,
                                *draw(st.sampled_from(TestSegmentForms.PAIRS)), status,
                                draw(_VALUES) if status == 255 else None))
    return pings, draw(st.integers(2, 5)), draw(st.integers(0, len(pings)))


@settings(max_examples=60, deadline=None)
@given(drawn=_stored_pings(), window=st.tuples(st.integers(1, 12), st.integers(1, 12)),
       pair=st.sampled_from(TestSegmentForms.PAIRS + [(None, None)]))
def test_ping_columns_bucket_as_the_records_they_hold(drawn, window, pair):
    """Sealed segments, a writer's active NDJSON one and a crashed writer's
    NDJSON segment with a torn tail: the hourly series of the pings a read
    selects as columns equals the series of the selected records, built
    into columns by the reference and by the oracle, read by the writer and
    by a reader, whole and under a time window and a pair."""
    pings, segment_records, split = drawn
    start, end = sorted(window)
    queries = [StoreQuery("ping"), StoreQuery("ping", start * _STEP, end * _STEP + 1, *pair)]
    with tempfile.TemporaryDirectory() as directory:
        directory = Path(directory)
        with RecordStore(directory, segment_records=segment_records) as writer:
            for record in pings[:split]:
                writer.append(record)
            lines = [serialize_line(record) for record in pings[split:]]
            (directory / "ping-1000.ndjson").write_text(
                "".join(lines) + (lines[0][:25] if lines else ""))
            for store in (writer, RecordStore(directory)):
                for q in queries:
                    selected = [r for r in pings if oracles.matches(q, r)]
                    columns = store.ping_columns(q)
                    series = bucket_rtt_series(columns)
                    assert len(columns) == len(selected)
                    assert series == bucket_rtt_series(ping_columns(selected))
                    assert {b.bucket_start_us: tuple(b[1:]) for b in series} == \
                        oracles.bucket_series_reference(selected, HOUR_US)


def _reads(store, kind):
    reads = [lambda: store.count(kind), lambda: store.query(StoreQuery(kind)),
             lambda: dump(store)]
    if kind == "traceroute":
        reads.append(lambda: store.path_runs(StoreQuery(kind)))
    else:
        reads.append(lambda: store.ping_columns(StoreQuery(kind)))
    return reads


class TestValidation:
    @pytest.mark.parametrize("kind", ["ping", "traceroute"])
    def test_every_single_byte_flip_fails_every_read_of_its_kind(self, tmp_path, kind):
        """A read that takes every row fails for a flip anywhere; count(),
        which reads headers alone, fails for a flip up to the header's end."""
        pings, runs = small_store(tmp_path)
        [segment] = tmp_path.glob(f"{kind}-*.col")
        other = "traceroute" if kind == "ping" else "ping"
        original = segment.read_bytes()
        header_end = len(MAGIC) + 8 + int.from_bytes(original[len(MAGIC) + 4:
                                                              len(MAGIC) + 8], "little")
        store = RecordStore(tmp_path)
        for i in range(len(original)):
            flipped = bytearray(original)
            flipped[i] ^= 0xFF
            segment.write_bytes(bytes(flipped))
            reads = _reads(store, kind)
            if i >= header_end:
                assert reads.pop(0)() == len(pings if kind == "ping" else runs)
            for read in reads:
                with pytest.raises(StoreError, match="^" + re.escape(f"{segment}: ")):
                    read()
            assert store.query(StoreQuery(other)) == (runs if kind == "ping" else pings)
        segment.write_bytes(original)
        assert store.count(kind) == len(pings if kind == "ping" else runs)

    @pytest.mark.parametrize("kind", ["ping", "traceroute"])
    def test_truncated_or_extended_segments_fail(self, tmp_path, kind):
        small_store(tmp_path)
        [segment] = tmp_path.glob(f"{kind}-*.col")
        original = segment.read_bytes()
        for damaged in (original[:-1], original[:10], b"", original + b"\n"):
            segment.write_bytes(damaged)
            for read in _reads(RecordStore(tmp_path), kind):
                with pytest.raises(StoreError, match="^" + re.escape(f"{segment}: ")):
                    read()

    # Blocks of small_store: pings (10.0.0.1, 10.1.0.1) at 5 (reply) and 6
    # (timeout), then (10.0.0.1, 10.1.0.2) at 7; columns timestamp, status,
    # rtt. Runs (10.0.0.1, 10.1.0.1) at 5, 6, 7, then (10.0.0.1, 10.1.0.2)
    # at 8; columns timestamp, round, path, rtt.
    @pytest.mark.parametrize("kind, change, problem", [
        ("ping", lambda h, b: _set(h, b, 0, 2, {0: -5}), "rtt: negative"),
        ("ping", lambda h, b: _set(h, b, 0, 2, {1: 7}),
         "rtt: present where the status is not 255"),
        ("ping", lambda h, b: _set(h, b, 0, 1, {1: 3}), "status"),
        ("ping", lambda h, b: h["blocks"][0].__setitem__(1, "10.1.0.01"), "pair"),
        ("ping", lambda h, b: h["blocks"][1].__setitem__(1, "10.1.0.1"),
         "pair listed twice"),
        ("ping", lambda h, b: h["blocks"][0].__setitem__(3, 4), "timestamp: min or max"),
        ("ping", lambda h, b: _set(h, b, 0, 0, {0: 6, 1: 5}), "timestamp: not sorted"),
        ("ping", lambda h, b: h["blocks"][0].__setitem__(2, 3),
         "length differs from the count"),
        ("ping", lambda h, b: h["blocks"][0].__setitem__(5, 1), "sorted is not a boolean"),
        ("ping", lambda h, b: h.__setitem__("kind", "traceroute"),
         "a 'traceroute' segment"),
        ("ping", lambda h, b: h.__setitem__("version", 2),
         "columnar format version 2; run contrace upgrade --store "),
        ("ping", lambda h, b: h.__setitem__("version", 4), "format version 4 is not 3"),
        ("ping", lambda h, b: h["columns"].insert(1, "pair"), "bad column list"),
        ("traceroute", lambda h, b: h["paths"][0][2].__setitem__(2, "2001:DB8::1"),
         "path"),
        ("traceroute", lambda h, b: h["paths"][0].append([4, 1, "10.9.9.9"]), "path"),
        ("traceroute", lambda h, b: h["paths"][0][1].__setitem__(1, 1), "path"),
        ("traceroute", lambda h, b: _set(h, b, 0, 2, {0: 9}), "path: id out of range"),
        ("traceroute", lambda h, b: _set(h, b, 0, 1, {0: -1}), "round: negative"),
        ("traceroute", lambda h, b: b[0].__setitem__(3, b[0][3][:-1]), "partial item"),
        ("traceroute", lambda h, b: b[0].__setitem__(3, b[0][3][:-2]),
         "rtt: length differs from the paths' responsive hops"),
    ])
    def test_content_that_breaks_a_record_rule_fails_under_a_valid_crc(
            self, tmp_path, kind, change, problem):
        small_store(tmp_path)
        [segment] = tmp_path.glob(f"{kind}-*.col")
        header, blocks = read_columnar(segment)
        change(header, blocks)
        write_columnar(segment, header, blocks)
        for read in _reads(RecordStore(tmp_path), kind)[1:]:
            with pytest.raises(StoreError) as exc:
                read()
            assert str(exc.value).startswith(f"{segment}: ")
            assert problem in str(exc.value)

    # A spec is [typecode, stored bytes, items]: block 0 of the pings holds 2
    # rows and columns timestamp, status and rtt; block 0 of the runs holds
    # 3 rows of 2, 3 and 2 responsive hops, so 7 rtts.
    @pytest.mark.parametrize("kind, change, problem, header_only", [
        ("ping", lambda specs: specs[0].__setitem__(2, 3),
         "columns: length differs from the count", True),
        ("ping", lambda specs: specs[2].__setitem__(2, 1),
         "columns: length differs from the count", True),
        ("traceroute", lambda specs: specs[3].__setitem__(2, 8), "column rtt: 7 items, not 8",
         False),
        ("traceroute", lambda specs: specs[3].__setitem__(2, 0),
         "column rtt: not one zlib stream of 0 items", False),
        ("ping", lambda specs: (specs[0].__setitem__(1, specs[0][1] - 2),
                                specs[1].__setitem__(1, specs[1][1] + 2)),
         "column timestamp: not one zlib stream of 2 items", False),
        ("ping", lambda specs: (specs[0].__setitem__(1, specs[0][1] + 2),
                                specs[1].__setitem__(1, specs[1][1] - 2)),
         "column timestamp: not one zlib stream of 2 items", False),
    ], ids=["row-items-above-count", "row-items-below-count", "rtt-items-above",
            "rtt-items-zero", "stream-cut", "bytes-after-stream"])
    def test_a_damaged_spec_fails_every_read_under_valid_crcs(
            self, tmp_path, kind, change, problem, header_only):
        """A spec whose items or stored bytes do not fit its column fails
        every read of the block's rows with a StoreError that names the
        file; a row column's items are checked in the header, so count()
        fails too."""
        small_store(tmp_path)
        [segment] = tmp_path.glob(f"{kind}-*.col")
        header, blocks = stored_columns(segment)
        change(header["blocks"][0][6])
        write_stored(segment, header, blocks)
        for read in _reads(RecordStore(tmp_path), kind)[0 if header_only else 1:]:
            with pytest.raises(StoreError) as exc:
                read()
            assert str(exc.value).startswith(f"{segment}: ")
            assert problem in str(exc.value)

    def test_a_column_that_inflates_beyond_its_spec_fails_within_the_declared_size(
            self, tmp_path):
        """A stored column that would inflate to 16 MiB, under a spec of 2
        items, fails every read having allocated about its declared size:
        the stream is inflated to at most its spec's items."""
        small_store(tmp_path)
        segment = tmp_path / "ping-1.col"
        header, blocks = stored_columns(segment)
        blocks[0][0] = zlib.compress(bytes(1 << 24), 1)
        header["blocks"][0][6][0][1] = len(blocks[0][0])
        write_stored(segment, header, blocks)
        store = RecordStore(tmp_path)
        for read in _reads(store, "ping")[1:]:
            tracemalloc.start()
            try:
                with pytest.raises(StoreError, match=re.escape(
                        f"{segment}: column timestamp: not one zlib stream of 2 items")):
                    read()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20

    def test_a_repeated_timestamp_gets_a_tie_column_whose_ranks_are_checked(self, tmp_path):
        stored = [ping(5, 10), ping(5, 11, dst="10.1.0.2"), ping(5, 12), ping(6)]
        with RecordStore(tmp_path) as store:
            for record in stored:
                store.append(record)
        segment = tmp_path / "ping-1.col"
        header, blocks = read_columnar(segment)
        assert header["columns"] == ["timestamp", "tie", "status", "rtt"]
        assert [_values(entry, columns, 1) for entry, columns in
                zip(header["blocks"], blocks)] == [[0, 2, 0], [1]]
        assert dump(RecordStore(tmp_path)) == canonical(stored)
        _set(header, blocks, 0, 1, {1: -1})
        write_columnar(segment, header, blocks)
        with pytest.raises(StoreError, match="tie: negative"):
            RecordStore(tmp_path).query(StoreQuery("ping"))


@st.composite
def _path_entries(draw):
    """Path dictionary entries: a valid path of 1-5 hops, which may lose
    its last hop or gain one, then have up to two of its fields replaced
    by odd values, a hop by something that is not a triple, or the entry
    by something that is not a list."""
    statuses = draw(st.lists(st.sampled_from([0, 1]), max_size=4)) + \
        draw(st.sampled_from([[0], [1], [255]]))
    entry = [[number, status, None if status == 0 else draw(st.sampled_from(
        ["10.0.0.1", "192.0.2.7", "2001:db8::1", "fe80::1%eth0"]))]
        for number, status in enumerate(statuses, 1)]
    if draw(st.booleans()):
        entry = entry[:-1] if draw(st.booleans()) else entry + [[len(entry) + 1, 1, "10.9.9.9"]]
    odd = [None, 0, 1, 2, 255, -1, True, 1.0, "1", "10.0.0.1", "10.0.0.01", "2001:DB8::1",
           "::ffff:10.0.0.1", "fe80::1%", "x", [], [1, 1]]
    for _ in range(draw(st.integers(0, 2))):
        if not entry:
            break
        hop = draw(st.integers(0, len(entry) - 1))
        if type(entry[hop]) is not list or len(entry[hop]) != 3:
            continue
        if draw(st.integers(0, 5)):
            field = draw(st.integers(0, 2))
            number = hop + 1  # odd hop numbers near the right one, 1 and True among them
            near = [number - 1, number + 1, float(number), str(number), number == 1]
            entry[hop][field] = draw(st.sampled_from(near + odd if field == 0 else odd))
        else:
            entry[hop] = draw(st.sampled_from([(hop + 1, 1, "10.0.0.1"), entry[hop][:2],
                                               entry[hop] + [0], "hop", None]))
    return draw(st.sampled_from([entry] * 9 + [tuple(entry), {"hops": entry}, None]))


def _path_check(check, entry):
    """check(entry), or the message of the fault it raises."""
    try:
        return check(entry)
    except columnar._Corrupt as exc:
        return f"fault: {exc}"


@settings(max_examples=500, deadline=None)
@given(entry=_path_entries())
def test_the_path_check_over_triples_agrees_with_the_check_of_a_run(entry):
    """_checked_path checks an entry's triples directly; it accepts the
    entries the check by way of a TracerouteRun accepts, with the same
    (statuses, addresses), and fails the others with its message."""
    assert _path_check(columnar._checked_path, entry) == \
        _path_check(columnar._checked_run_path, entry)


def _breaks_sorted_min(segment):
    segment.blocks[0].min = 2


def _breaks_sorted_order(segment):
    times = segment.blocks[0].columns[0]
    times[1], times[2] = times[2], times[1]


def _breaks_sorted_order_and_max(segment):
    _breaks_sorted_order(segment)
    segment.blocks[0].max = 5


def _path_id(value):
    def change(segment):
        segment.blocks[0].columns[3][1] = len(segment.keys) if value is None else value
    return change


def _drops_an_rtt(segment):
    del segment.blocks[0].columns[4][-1]


@pytest.mark.parametrize("change, problem", [
    (_breaks_sorted_min, "timestamp: min or max differs from the header"),
    (_breaks_sorted_order, "timestamp: not sorted"),
    (_breaks_sorted_order_and_max, "timestamp: min or max differs from the header"),
    (_path_id(None), "path: id out of range"),
    (_path_id(-1), "path: id out of range"),
    (_drops_an_rtt, "rtt: length differs from the paths' responsive hops"),
])
def test_a_written_block_that_breaks_its_facts_fails_its_check(tmp_path, change, problem):
    """A file columnar.write makes of a segment whose block facts or
    columns were changed, so its CRCs hold: the block check names the first
    rule broken. The block is sorted, of timestamps 1 to 4 and two paths."""
    segment = columnar.Segment("traceroute")
    for timestamp in range(1, 5):
        add_record(segment, run(timestamp, variant=timestamp % 2))
    [block] = segment.blocks
    assert (block.sorted, block.min, block.max, len(segment.keys)) == (True, 1, 4, 2)
    change(segment)
    path = tmp_path / "traceroute-1.col"
    columnar.write(path, segment)
    loaded = columnar.Segment.load(path, "traceroute")
    with pytest.raises(StoreError) as exc:
        loaded.check()
    assert str(exc.value) == f"{path}: {problem}"


def _values(entry, columns, index):
    """The values of column index of a block, given its header entry and
    its column bytes."""
    values = array(entry[6][index][0])
    values.frombytes(columns[index])
    return values.tolist()


def _set(header, blocks, block, index, changes):
    """Replace values of column index of a block, by row."""
    values = array(header["blocks"][block][6][index][0], _values(header["blocks"][block],
                                                                blocks[block], index))
    for row, value in changes.items():
        values[row] = value
    blocks[block][index] = values.tobytes()


def _recoded(segment, codes, changes=None, swapped=False):
    """Rewrite columns of the first block of the file segment: column i in
    typecode codes[i], its values changed by row as changes[i] says; then
    the whole file in the other byte order if swapped."""
    header, blocks = read_columnar(segment)
    entry, columns = header["blocks"][0], blocks[0]
    for index, code in codes.items():
        values = array(code, _values(entry, columns, index))
        for row, value in (changes or {}).get(index, {}).items():
            values[row] = value
        columns[index] = values.tobytes()
        entry[6][index][0] = code
    if swapped:
        for entry, columns in zip(header["blocks"], blocks):
            for index, (code, *_) in enumerate(entry[6]):
                values = array(code)
                values.frombytes(columns[index])
                values.byteswap()
                columns[index] = values.tobytes()
        header["byteorder"] = "big" if sys.byteorder == "little" else "little"
    write_columnar(segment, header, blocks)


def _sign_store(path, kind):
    """One segment of kind: one block of three rows at one timestamp, so it
    has a tie column, the first and the last a ping's echo reply, and
    every value small enough for typecode b."""
    hops = (Hop(1, 1, "10.0.0.254", 3), Hop(2, 0), Hop(3, 255, "10.1.0.1", 9))
    stored = ([ping(5, 10), ping(5), ping(5, 12)] if kind == "ping" else
              [TracerouteRun(5, "10.0.0.1", "10.1.0.1", rnd, hops) for rnd in (0, 1, 2)])
    with RecordStore(path) as store:
        for record in stored:
            store.append(record)
    return next(path.glob(f"{kind}-*.col")), stored


@pytest.mark.parametrize("swapped", [False, True])
@pytest.mark.parametrize("code", ["b", "h", "i", "q"])
@pytest.mark.parametrize("kind, index, problem", [
    ("ping", 1, "tie: negative"), ("ping", 3, "rtt: negative"),
    ("traceroute", 1, "tie: negative"), ("traceroute", 2, "round: negative"),
    ("traceroute", 4, "rtt: negative")])
@pytest.mark.parametrize("row", [None, 0, -1])
def test_a_negative_value_fails_first_or_last_in_each_typecode_and_byte_order(
        tmp_path, swapped, code, kind, index, problem, row):
    """The sign checks read each item's top byte: a negative value as the
    first or the last of a column of typecode b, h, i or q, in either byte
    order, fails every read of its rows with the message a scan of the
    values gives; with none (row None) the reads give the records. The
    value is -256 but in b, so only its top byte is negative."""
    segment, stored = _sign_store(tmp_path, kind)
    negative = -1 if code == "b" else -256
    _recoded(segment, {index: code}, {} if row is None else {index: {row: negative}}, swapped)
    store = RecordStore(tmp_path)
    if row is None:
        assert store.query(StoreQuery(kind)) == stored
        assert dump(store) == canonical(stored)
        return
    for read in _reads(store, kind)[1:]:
        with pytest.raises(StoreError, match=re.escape(f"{segment}: {problem}")):
            read()


@pytest.mark.parametrize("swapped", [False, True])
@pytest.mark.parametrize("code", ["h", "i", "q"])  # a status of 255 needs h or wider
@pytest.mark.parametrize("rtts, problem", [
    ({}, None),
    ({1: -2}, "rtt: present where the status is not 255"),
    ({1: 7}, "rtt: present where the status is not 255"),
    ({1: 0}, "rtt: present where the status is not 255"),
    ({0: -1, 1: 10}, "rtt: negative"),
    ({2: -1}, "rtt: negative")])
def test_the_ping_rtt_rule_is_checked_alike_in_each_typecode_and_byte_order(
        tmp_path, monkeypatch, swapped, code, rtts, problem):
    """A ping's rtt is >= 0 where its status is 255 and -1 elsewhere: the
    check that compares the rtts' signs with the statuses byte by byte
    accepts a valid block without a scan of its values, and fails another
    with the message that scan gives, the status and rtt columns of any
    typecode, in either byte order."""
    segment, stored = _sign_store(tmp_path, "ping")
    _recoded(segment, {2: code, 3: code}, {3: rtts}, swapped)
    store = RecordStore(tmp_path)
    if problem is None:
        def scan(*args):
            raise AssertionError("a valid block was scanned")
        monkeypatch.setattr(columnar, "compress", scan)
        assert store.query(StoreQuery("ping")) == stored
        return
    for read in _reads(store, "ping")[1:]:
        with pytest.raises(StoreError, match=re.escape(f"{segment}: {problem}")):
            read()


class TestWriterLock:
    def test_a_reader_leaves_a_live_writers_files_alone(self, tmp_path):
        with RecordStore(tmp_path) as writer:
            writer.append(ping(10, 100))
            reader = RecordStore(tmp_path)
            assert reader.query(StoreQuery("ping")) == [ping(10, 100)]
            assert reader.count() == 1
            assert dump(reader) == serialize_line(ping(10, 100))
            assert names(tmp_path, "*.*") == [".lock", "ping-1.ndjson"]
            writer.append(ping(11, 110))
        assert RecordStore(tmp_path).query(StoreQuery("ping")) == \
            [ping(10, 100), ping(11, 110)]

    def test_a_reader_skips_the_partial_last_line_of_a_live_segment(self, tmp_path):
        line = serialize_line(ping(10, 100))
        (tmp_path / "ping-1.ndjson").write_text(line + line[:20])
        reader = RecordStore(tmp_path)
        assert reader.query(StoreQuery("ping")) == [ping(10, 100)]
        assert reader.count("ping") == 1
        assert (tmp_path / "ping-1.ndjson").read_text() == line + line[:20]

    def test_a_second_writer_is_refused(self, tmp_path):
        with RecordStore(tmp_path) as first:
            first.append(ping(10))
            second = RecordStore(tmp_path)
            with pytest.raises(StoreError, match="another writer holds"):
                second.append(ping(11))
            second.close()
            first.append(ping(12))
        with RecordStore(tmp_path) as second:  # free once the first has closed
            second.append(ping(11))
        assert [r.timestamp for r in RecordStore(tmp_path).query(StoreQuery("ping"))] == \
            [10, 11, 12]

    def test_cli_refuses_a_second_writer_with_an_error_line(self, tmp_path, capsys):
        source = tmp_path / "in.ndjson"
        source.write_text(serialize_line(ping(11)))
        with RecordStore(tmp_path / "store") as first:
            first.append(ping(10))
            code = cli.main(["import", "--store", str(tmp_path / "store"), str(source)])
        assert code == cli.EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "another writer holds" in err
        assert RecordStore(tmp_path / "store").count() == 1


class Crash(Exception):
    pass


@pytest.mark.parametrize("step", ["temp written", "renamed", "ndjson unlink"])
def test_a_seal_cut_after_each_step_loses_and_repeats_nothing(tmp_path, monkeypatch, step):
    replace, unlink = os.replace, os.unlink

    def cut_replace(source, target):
        if step == "renamed":
            replace(source, target)
        raise Crash

    def cut_unlink(path, *args, **kwargs):
        if str(path).endswith("ping-1.ndjson"):
            raise Crash
        unlink(path, *args, **kwargs)

    expected = [ping(1, 10), run(2), ping(3, 30), run(4)]
    store = RecordStore(tmp_path, segment_records=2)
    with monkeypatch.context() as patch:
        if step == "ndjson unlink":
            patch.setattr(os, "unlink", cut_unlink)
        else:
            patch.setattr(os, "replace", cut_replace)
        with pytest.raises(Crash):
            for record in expected:
                store.append(record)
    store.close()  # releases the lock and seals the traceroute segment
    left = {"temp written": ["ping-1.col.tmp", "ping-1.ndjson"],
            "renamed": ["ping-1.col", "ping-1.ndjson"],
            "ndjson unlink": ["ping-1.col", "ping-1.ndjson"]}[step]
    assert names(tmp_path, "ping-*") == left
    reader = RecordStore(tmp_path)
    assert reader.count() == 3
    assert reader.query(StoreQuery("ping")) == [expected[0], expected[2]]
    assert dump(reader) == canonical(expected[:3])
    assert names(tmp_path, "ping-*") == left
    with RecordStore(tmp_path) as writer:
        writer.append(ping(5))
    assert names(tmp_path, "ping-*") == ["ping-1.col", "ping-3.col"]
    assert dump(RecordStore(tmp_path)) == canonical(expected[:3] + [ping(5)])


def test_a_writer_rebuilds_an_invalid_columnar_twin_from_its_ndjson(tmp_path):
    expected = [ping(1, 10), ping(2)]
    (tmp_path / "ping-1.ndjson").write_text("".join(map(serialize_line, expected)))
    (tmp_path / "ping-1.col").write_bytes(b"contrace columns\n garbage")
    with pytest.raises(StoreError, match="ping-1.col: "):
        RecordStore(tmp_path).query(StoreQuery("ping"))
    with RecordStore(tmp_path) as writer:
        writer.append(run(3))
    assert names(tmp_path, "ping-*") == ["ping-1.col"]
    assert RecordStore(tmp_path).query(StoreQuery("ping")) == expected


class _Discard:
    def write(self, text):
        return len(text)


def test_export_of_a_many_segment_store_holds_about_one_segment(tmp_path, monkeypatch):
    """Twenty sealed segments whose time ranges do not overlap form one
    chain, so export holds the columns of one of them at a time: after
    each read of a segment's columns, no other segment holds any."""
    with RecordStore(tmp_path, segment_records=2000) as store:
        store.import_json(serialize_line(ping(ts, 1000 + ts % 977))
                          for ts in range(1, 40_001))
    assert len(list(tmp_path.glob("*.col"))) == 20
    loaded, held = [], []
    load, fill = columnar.Segment.load.__func__, columnar.Segment._fill

    def counted_load(cls, path, kind):
        loaded.append(load(cls, path, kind))
        return loaded[-1]

    def counted_fill(segment, blocks):
        fill(segment, blocks)
        held.append(sum(any(block.columns is not None for block in each.blocks)
                        for each in loaded))

    monkeypatch.setattr(columnar.Segment, "load", classmethod(counted_load))
    monkeypatch.setattr(columnar.Segment, "_fill", counted_fill)
    assert RecordStore(tmp_path).export(_Discard()) == 40_000
    assert len(loaded) == 20 and held and max(held) == 1, held


# -- slabs and their merge ---------------------------------------------------------

@st.composite
def _slab_streams(draw):
    """Streams of slabs as chain_lines gives them, and the rows they hold.
    Each stream holds segments of ranks no other stream holds, whose time
    ranges rise and do not overlap; a segment's rows are sorted with
    repeats, and cut into slabs of 1-3 rows. Rows are (timestamp, rank,
    line), the line naming the row."""
    ranks = draw(st.permutations(range(draw(st.integers(1, 8)))))
    cuts = sorted(draw(st.lists(st.integers(0, len(ranks)), max_size=3)))
    streams, rows = [], []
    for first, last in zip([0, *cuts], [*cuts, len(ranks)]):
        slabs, low = [], 1
        for rank in ranks[first:last]:
            stamps = sorted(draw(st.lists(st.integers(low, low + 3), min_size=1, max_size=8)))
            low = stamps[-1] + draw(st.integers(1, 2))
            lines = [f"{stamp} {rank} {i}\n" for i, stamp in enumerate(stamps)]
            rows += zip(stamps, repeat(rank), lines)
            at = 0
            while at < len(stamps):
                size = draw(st.integers(1, 3))
                slabs.append((rank, stamps[at:at + size], lines[at:at + size]))
                at += size
        streams.append(slabs)
    return streams, rows


@settings(max_examples=300, deadline=None)
@given(drawn=_slab_streams())
def test_merge_orders_the_rows_of_slab_streams_by_timestamp_and_rank(drawn):
    """merge gives every row once, in (timestamp, rank, row) order, as runs
    that are never empty."""
    streams, rows = drawn
    runs = list(columnar.merge(map(iter, streams)))
    assert all(runs)
    assert list(chain.from_iterable(runs)) == [line for *_, line in sorted(rows)]


@st.composite
def _merge_stores(draw):
    """(segment_records, slab rows, records in append order): pings and runs
    of two pairs, at timestamps that rise, so chains of segments form, or
    that are drawn from a few, so segments overlap; ties within a segment,
    across segments and across kinds either way."""
    rising = draw(st.booleans())
    appended, at = [], 1
    for _ in range(draw(st.integers(1, 30))):
        at += draw(st.integers(0, 2))
        ts = at if rising else draw(st.integers(1, 6))
        dst = draw(st.sampled_from(["10.1.0.1", "10.1.0.2"]))
        if draw(st.booleans()):
            appended.append(ping(ts, draw(st.sampled_from([None, 0, 1200])), dst=dst))
        else:
            appended.append(run(ts, draw(st.integers(0, 1)), draw(st.integers(0, 2)), dst=dst))
    return (draw(st.integers(1, 4)), draw(st.sampled_from([1, 2, 3, columnar.SLAB_ROWS])),
            appended)


@settings(max_examples=150, deadline=None)
@given(drawn=_merge_stores())
def test_export_and_query_match_records_sorted_by_time_kind_and_append_order(drawn):
    """With slabs of 1, 2, 3 or SLAB_ROWS rows, export and query give the
    records sorted by timestamp, then pings first, then load and append
    order (one writer: both are append order): from a writer whose last
    segment is open NDJSON, from a reader of its files then, and once all
    are sealed."""
    segment_records, slab_rows, appended = drawn
    queries = [StoreQuery(kind, *window) for kind in ("ping", "traceroute")
               for window in ((), (2, 5), (None, None, None, "10.1.0.2"))]
    expected = [canonical(appended)] + [
        sorted((r for r in appended if isinstance(r, TracerouteRun) == (q.kind == "traceroute")
                and oracles.matches(q, r)), key=lambda r: r.timestamp)
        for q in queries]

    def reads(store):
        return [dump(store)] + [store.query(q) for q in queries]

    with mock.patch.object(columnar, "SLAB_ROWS", slab_rows), \
            tempfile.TemporaryDirectory() as directory:
        with RecordStore(directory, segment_records=segment_records) as writer:
            for record in appended:
                writer.append(record)
            assert reads(writer) == reads(RecordStore(directory)) == expected
        assert reads(RecordStore(directory)) == expected


# -- one segment in every form, and version 2 files ------------------------------

@st.composite
def _interleaved(draw):
    """(kind, 1-40 records of that kind in row order) interleaving three
    pairs, at 1 and then at 5-15, so timestamps repeat within and across
    pairs and do not always increase."""
    kind = draw(st.sampled_from(["ping", "traceroute"]))
    chunk = TestSegmentForms().chunk(random.Random(draw(st.integers(0, 2**32))), 1, kind)
    n = draw(st.integers(1, 40))
    return kind, (chunk * (n // len(chunk) + 1))[:n]


def _store_reads(store, kind, queries):
    reads = [store.count(), dump(store)]
    for q in queries:
        reads.append(store.query(q))
        if kind == "traceroute":
            reads.append(_grouped(store.path_runs(q)))
    return reads


def _queries(kind, records_, rng):
    times = sorted(r.timestamp for r in records_)
    queries = [StoreQuery(kind)]
    for _ in range(4):
        start, end = sorted(rng.sample(range(times[0], times[-1] + 2), 2))
        pair = rng.choice(TestSegmentForms.PAIRS + [(None, None)])
        queries.append(StoreQuery(kind, rng.choice([start, None]), end, *pair))
    return queries


def _reference_reads(kind, records_, queries):
    reads = [len(records_), canonical(records_)]
    for q in queries:
        reads.append(_by_time(r for r in records_ if oracles.matches(q, r)))
        if kind == "traceroute":
            reads.append(_grouped_reference(records_, q))
    return reads


@settings(max_examples=60, deadline=None)
@given(drawn=_interleaved(), seed=st.integers(0, 2**32))
def test_an_interleaved_segment_round_trips_in_both_formats(drawn, seed):
    """One segment of records that interleave pairs, repeat timestamps and
    go back in time reads as the oracles say, whether the writer sealed
    it, upgrade rewrote its version 2 twin or it is still NDJSON, and
    through windows."""
    kind, records_ = drawn
    queries = _queries(kind, records_, random.Random(seed))
    expected = _reference_reads(kind, records_, queries)
    with tempfile.TemporaryDirectory() as directory:
        written = Path(directory) / "written"
        with RecordStore(written) as store:
            for record in records_:
                store.append(record)
        [name] = names(written, "*.col")
        assert _store_reads(RecordStore(written), kind, queries) == expected
        old = Path(directory) / "v2"
        old.mkdir()
        _write_v2(old / name, kind, records_)
        legacy.upgrade(old)
        assert _store_reads(RecordStore(old), kind, queries) == expected
        left_open = Path(directory) / "ndjson"
        left_open.mkdir()
        (left_open / name).with_suffix(".ndjson").write_text(
            "".join(map(serialize_line, records_)))
        assert _store_reads(RecordStore(left_open), kind, queries) == expected


def _write_v2(path, kind, records_):
    """Write records_ as a columnar file of format version 2."""
    segment = columnar.Segment(kind)
    for record in records_:
        add_record(segment, record)
    oracles.write_v2(path, segment)


def test_a_version_2_store_reads_as_its_twin_once_upgraded(tmp_path):
    """Sealed segments of version 2, whose columns are not compressed, fail
    every read until upgrade rewrites them as version 3; then they read as
    the same segments sealed today."""
    rng = random.Random(21)
    chunks = {kind: [TestSegmentForms().chunk(rng, first, kind) for first in (1, 20, 40)]
              for kind in ("ping", "traceroute")}
    twin, old = tmp_path / "twin", tmp_path / "old"
    old.mkdir()
    segment_ids = iter(range(1, 7))
    for kind, kind_chunks in chunks.items():
        for chunk in kind_chunks:
            with RecordStore(twin, segment_records=len(chunk)) as store:
                for record in chunk:
                    store.append(record)
            _write_v2(old / f"{kind}-{next(segment_ids)}.col", kind, chunk)
    assert names(old, "*.col") == names(twin, "*.col")
    assert all(columnar.old_version(path) == 2 for path in old.glob("*.col"))
    for read in _reads(RecordStore(old), "traceroute"):
        with pytest.raises(StoreError, match=r"-[14]\.col: columnar format version 2; "
                                             r"run contrace upgrade --store "
                                             + re.escape(str(old))):
            read()
    assert legacy.upgrade(old) == f"upgraded {old}: version 2 files rewritten 6"
    assert not any(columnar.old_version(path) for path in old.glob("*.col"))
    for kind in chunks:
        stored = [r for chunk in chunks[kind] for r in chunk]
        queries = _queries(kind, stored, rng)
        assert _store_reads(RecordStore(old), kind, queries) == \
            _store_reads(RecordStore(twin), kind, queries)
    expected = dump(RecordStore(twin))
    with RecordStore(old) as writer:
        writer.append(ping(100))
    assert dump(RecordStore(old)) == expected + serialize_line(ping(100))
    upgraded, sealed = RecordStore(old), RecordStore(twin)
    for q in (StoreQuery("traceroute"),
              StoreQuery("traceroute", 5, 30, *TestSegmentForms.PAIRS[1])):
        assert upgraded.query(q) == sealed.query(q)
        assert _grouped(upgraded.path_runs(q)) == _grouped(sealed.path_runs(q))


def test_export_reads_each_block_once_where_segments_overlap(tmp_path, monkeypatch):
    """Export loads each columnar file once, and checks the values of each
    block once. A ping and a traceroute segment over the same time range
    are each alone in their chain of the export merge, so each of their
    blocks is read once. Two ping segments whose time ranges do not overlap
    share a chain: their blocks are read twice, once to check them and once
    to write them, and the second read checks their CRC alone."""
    pings, runs = small_store(tmp_path)  # ping-1 (5-7) and traceroute-2 (5-8)
    later = [ping(10, 1400), ping(11, dst="10.1.0.2")]
    with RecordStore(tmp_path) as writer:  # ping-3 (10-11)
        for record in later:
            writer.append(record)
    loads, reads = Counter(), Counter()
    load, check_block = columnar.Segment.load.__func__, columnar.Segment._check_block

    def counted_load(cls, path, kind):
        loads[path.name] += 1
        return load(cls, path, kind)

    def counted(segment, block, columns):
        reads[segment.path.name, block.pair] += 1
        check_block(segment, block, columns)

    monkeypatch.setattr(columnar.Segment, "load", classmethod(counted_load))
    monkeypatch.setattr(columnar.Segment, "_check_block", counted)
    assert dump(RecordStore(tmp_path)) == canonical(pings + runs + later)
    assert loads == {"ping-1.col": 1, "traceroute-2.col": 1, "ping-3.col": 1}
    assert reads == {(name, pair): 1
                     for name in ("ping-1.col", "traceroute-2.col", "ping-3.col")
                     for pair in [("10.0.0.1", "10.1.0.1"), ("10.0.0.1", "10.1.0.2")]}


def test_a_block_changed_after_its_check_fails_the_export_by_its_crc(tmp_path, monkeypatch):
    """A segment that shares its chain reads its blocks again to write them,
    checked by their CRC alone: bytes changed after its values were checked
    fail the export with the CRC mismatch."""
    small_store(tmp_path)  # ping-1 (5-7) and traceroute-2 (5-8)
    with RecordStore(tmp_path) as writer:  # ping-3 (10-11), in ping-1's chain
        for record in [ping(10, 1400), ping(11, dst="10.1.0.2")]:
            writer.append(record)
    target, release, changed = tmp_path / "ping-1.col", columnar.Segment.release, []

    def changing(segment):
        release(segment)
        if segment.path == target and not changed:  # after the check, before the write
            data = bytearray(target.read_bytes())
            data[-1] ^= 1  # in the columns of its last block
            target.write_bytes(data)
            changed.append(segment)

    monkeypatch.setattr(columnar.Segment, "release", changing)
    with pytest.raises(StoreError, match=r"ping-1\.col: block \['10\.0\.0\.1', "
                                         r"'10\.1\.0\.2'\]: CRC mismatch"):
        dump(RecordStore(tmp_path))
    assert changed


def test_a_selective_read_reads_only_the_blocks_it_selects(tmp_path, monkeypatch):
    """ping_columns and path_runs read, of each columnar file, only the
    blocks of the pairs and time range they select, each once; query, which
    reads its kind whole, returns the same records."""
    pings, runs = small_store(tmp_path)  # ping-1 (5-7) and traceroute-2 (5-8)
    later = [ping(10, 1400), ping(11, dst="10.1.0.2")]
    with RecordStore(tmp_path) as writer:  # ping-3 (10-11)
        for record in later:
            writer.append(record)
    reads, check_block = Counter(), columnar.Segment._check_block

    def counted(segment, block, columns):
        reads[segment.path.name, block.pair[1]] += 1
        check_block(segment, block, columns)

    monkeypatch.setattr(columnar.Segment, "_check_block", counted)
    store = RecordStore(tmp_path)
    for q, blocks in ((StoreQuery("ping", destination="10.1.0.2"),
                       {("ping-1.col", "10.1.0.2"): 1, ("ping-3.col", "10.1.0.2"): 1}),
                      (StoreQuery("ping", 10, 12), {("ping-3.col", "10.1.0.1"): 1,
                                                    ("ping-3.col", "10.1.0.2"): 1}),
                      (StoreQuery("ping", 6, 7, "10.0.0.1", "10.1.0.1"),
                       {("ping-1.col", "10.1.0.1"): 1}),
                      (StoreQuery("traceroute", destination="10.1.0.2"),
                       {("traceroute-2.col", "10.1.0.2"): 1}),
                      (StoreQuery("traceroute", 5, 8), {("traceroute-2.col", "10.1.0.1"): 1}),
                      (StoreQuery("traceroute", 9), {})):
        stored = pings + later if q.kind == "ping" else runs
        selected = [r for r in stored if oracles.matches(q, r)]
        reads.clear()
        if q.kind == "ping":
            assert len(store.ping_columns(q)) == len(selected)
        else:
            assert _grouped(store.path_runs(q)) == _grouped_reference(runs, q)
        assert reads == blocks
        assert store.query(q) == _by_time(selected)
