"""`contrace upgrade`: a store written before <kind>-<id> names and columnar
format version 3 fails every read and writer until it is upgraded, and an
upgrade that is cut at any rename or replace completes when run again."""

import os
import re
import tempfile
from pathlib import Path

import pytest

import oracles
from contrace import cli, columnar, legacy
from contrace.records import RecordStore, StoreError, StoreQuery
from oracles import serialize_line
from test_columnar import canonical, dump, ping, run


class Crash(Exception):
    pass


def _columns(kind, records_):
    """The bytes of the columnar file a writer seals records_ into."""
    with tempfile.TemporaryDirectory() as directory:
        with RecordStore(directory) as writer:
            for record in records_:
                writer.append(record)
        [path] = Path(directory).glob("*.col")
        return path.read_bytes()


def _ndjson(records_, tail=""):
    return "".join(map(serialize_line, records_)) + tail


def _snapshot(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


# -- a store of one old form is refused -------------------------------------------

def _old_name_col(path):
    (path / "ping-1.col").rename(path / "ping-5-5.col")
    return path / "ping-5-5.col"


def _old_name_ndjson(path):
    (path / "ping-3-4.ndjson").write_text(_ndjson([ping(3, 7), ping(4)]))
    return path / "ping-3-4.ndjson"


def _open_ndjson(path):
    (path / "ping-3-open.ndjson").write_text(_ndjson([ping(3, 7)], '{"timest'))
    return path / "ping-3-open.ndjson"


def _version_1(path):
    oracles.write_v1(path / "traceroute-2.col", "traceroute", [run(5), run(6, variant=1)])
    return path / "traceroute-2.col"


def _version_2(path):
    segment = columnar.Segment.load(path / "traceroute-2.col", "traceroute")
    segment.check()
    oracles.write_v2(path / "traceroute-2.col", segment)
    return path / "traceroute-2.col"


@pytest.mark.parametrize("make_old, upgraded", [
    (_old_name_col, 4), (_old_name_ndjson, 6), (_open_ndjson, 5), (_version_1, 4),
    (_version_2, 4)],
    ids=["sealed-col", "sealed-ndjson", "open-ndjson", "version-1", "version-2"])
def test_every_read_and_a_writer_refuse_an_old_file_and_change_nothing(
        tmp_path, capsys, make_old, upgraded):
    """An old file is refused, never skipped as a stray file is: skipping
    it would drop its records. The pings' old names fail the traceroute
    reads too."""
    store = tmp_path / "store"
    with RecordStore(store) as writer:  # ping-1.col and traceroute-2.col
        for record in (ping(5, 10), ping(6), run(5), run(6, variant=1)):
            writer.append(record)
    old = make_old(store)
    before = _snapshot(store)
    refused = re.escape(f"{old}: ") + r"[^;]+; " + re.escape(
        f"run contrace upgrade --store {store}") + "$"
    reader = RecordStore(store)
    for read in (reader.count, lambda: reader.query(StoreQuery("traceroute")),
                 lambda: reader.path_runs(StoreQuery("traceroute")), lambda: dump(reader)):
        with pytest.raises(StoreError, match=refused):
            read()
    with RecordStore(store) as writer:
        with pytest.raises(StoreError, match=refused):
            writer.append(ping(7))
    assert _snapshot(store) == before
    capsys.readouterr()
    source = tmp_path / "in.ndjson"
    source.write_text(serialize_line(ping(7)))
    for argv in (["export", "--store", str(store), "--out", str(tmp_path / "out.ndjson")],
                 ["import", "--store", str(store), str(source)]):
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert re.fullmatch("error: " + refused[:-1] + "\n", err), err
    assert _snapshot(store) == before
    assert cli.main(["upgrade", "--store", str(store)]) == 0
    assert capsys.readouterr().out.startswith(f"upgraded {store}: ")
    assert RecordStore(store).count() == upgraded


# -- a cut upgrade runs again to the same store ------------------------------------

def _mixed_store(path):
    """A store of every form upgrade converts, and its records per kind in
    the load order reads gave it before ids: old sealed segments by first
    timestamp, then those left open, then ids. Timestamp 5 is in every
    segment, so the export shows the order of each kind's ties."""
    path.mkdir()
    with RecordStore(path) as writer:  # ping-1.col, and traceroute-2.col made version 1
        writer.append(ping(5, 1))
        writer.append(run(5, rtt=1))
    oracles.write_v1(path / "traceroute-2.col", "traceroute", [run(5, rtt=1), run(3)])
    # old sealed columnar, version 2 and version 1
    (path / "ping-3-6.col").write_bytes(_columns("ping", [ping(5, 10), ping(6, 11)]))
    oracles.write_v1(path / "traceroute-1-5.col", "traceroute",
                     [run(5, rtt=10), run(1, variant=1, rtt=11)])
    # old sealed NDJSON with a columnar twin (a seal cut before the unlink), and
    # one with a second name (a seal cut between link and unlink)
    twin = [ping(5, 20), ping(8)]
    (path / "ping-7-8.ndjson").write_text(_ndjson(twin))
    (path / "ping-7-8.col").write_bytes(_columns("ping", twin))
    linked = [run(5, rtt=20), run(6, variant=1, rtt=21)]
    (path / "traceroute-3-6.ndjson").write_text(_ndjson(linked, "\n"))
    os.link(path / "traceroute-3-6.ndjson", path / "traceroute-3-open.ndjson")
    # left open under an old name, with a torn tail
    left_open = [ping(5, 30), ping(9, 31)]
    (path / "ping-2-open.ndjson").write_text(_ndjson(left_open, serialize_line(ping(5))[:25]))
    # by id: a seal cut before its unlink, and a crashed writer's torn segment
    cut = [ping(5, 40)]
    (path / "ping-9.ndjson").write_text(_ndjson(cut))
    (path / "ping-9.col").write_bytes(_columns("ping", cut))
    crashed = [ping(5, 50), ping(4, 51)]
    (path / "ping-10.ndjson").write_text(_ndjson(crashed, '{"timestamp":5,'))
    pings = [ping(5, 10), ping(6, 11), *twin, *left_open, ping(5, 1), *cut, *crashed]
    runs = [run(5, rtt=10), run(1, variant=1, rtt=11), *linked, run(5, rtt=1), run(3)]
    return canonical(pings + runs)


class _Cut:
    """os.rename and os.replace, patched to count their calls; the call
    numbered at raises Crash."""

    def __init__(self, patch, at=0):
        self.calls, self.at = 0, at
        for name in ("rename", "replace"):
            patch.setattr(os, name, self._counted(getattr(os, name)))

    def _counted(self, move):
        def moved(*args, **kwargs):
            self.calls += 1
            if self.calls == self.at:
                raise Crash
            return move(*args, **kwargs)
        return moved


def test_an_upgrade_cut_at_any_rename_or_replace_completes_when_run_again(
        tmp_path, monkeypatch):
    whole = tmp_path / "whole"
    expected = _mixed_store(whole)
    with monkeypatch.context() as patch:
        counted = _Cut(patch)
        assert legacy.upgrade(whole) == (
            f"upgraded {whole}: segments renamed 9, version 1 and 2 files rewritten 2, "
            f"NDJSON segments sealed 3, second names unlinked 1")
    assert counted.calls == 12  # 3 columnar files written, 9 segments renamed
    assert dump(RecordStore(whole)) == expected
    assert [p.name for p in sorted(whole.iterdir())] == [
        ".lock", "ping-11.col", "ping-12.col", "ping-13.ndjson", "ping-14.col",
        "ping-15.col", "ping-16.ndjson", "traceroute-17.col", "traceroute-18.col",
        "traceroute-19.col"]
    upgraded = _snapshot(whole)
    legacy.upgrade(whole)
    assert _snapshot(whole) == upgraded
    for k in range(1, counted.calls + 1):
        store = tmp_path / f"cut-{k}"
        _mixed_store(store)
        with monkeypatch.context() as patch:
            _Cut(patch, k)
            with pytest.raises(Crash):
                legacy.upgrade(store)
        legacy.upgrade(store)
        assert dump(RecordStore(store)) == expected, k
        again = _snapshot(store)
        legacy.upgrade(store)
        assert _snapshot(store) == again, k


def test_an_upgrade_of_version_2_files_cut_at_any_replace_completes_when_run_again(
        tmp_path, monkeypatch):
    """Each version 2 file is rewritten as version 3 by one os.replace. An
    upgrade cut at any of them leaves a store that reads still refuse, and
    that a rerun completes; the store then exports what it did before it
    was rewritten as version 2, and a third run changes no byte."""
    whole = tmp_path / "whole"
    with RecordStore(whole, segment_records=3) as writer:
        for record in (ping(5, 10), run(5), ping(5), run(6, variant=1), ping(6, 11),
                       ping(4, 12, dst="10.1.0.2"), run(7, rnd=2), run(5, dst="10.1.0.2"),
                       ping(8), ping(9, 2**40), run(9, rtt=2**40), run(2**70)):
            writer.append(record)
    expected = dump(RecordStore(whole))
    oracles.rewrite_store_as_v2(whole)
    old = _snapshot(whole)
    assert sorted(name for name in old if name.endswith(".col")) == [
        "ping-1.col", "ping-3.col", "traceroute-2.col", "traceroute-4.col"]
    with monkeypatch.context() as patch:
        counted = _Cut(patch)
        assert legacy.upgrade(whole) == (
            f"upgraded {whole}: segments renamed 0, version 1 and 2 files rewritten 4, "
            f"NDJSON segments sealed 0, second names unlinked 0")
    assert counted.calls == 4
    assert dump(RecordStore(whole)) == expected
    for k in range(1, counted.calls + 1):
        store = tmp_path / f"cut-{k}"
        store.mkdir()
        for name, data in old.items():
            (store / name).write_bytes(data)
        with monkeypatch.context() as patch:
            _Cut(patch, k)
            with pytest.raises(Crash):
                legacy.upgrade(store)
        with pytest.raises(StoreError, match="columnar format version 2; run contrace upgrade"):
            dump(RecordStore(store))
        legacy.upgrade(store)
        assert dump(RecordStore(store)) == expected, k
        again = _snapshot(store)
        legacy.upgrade(store)
        assert _snapshot(store) == again, k


def test_upgrade_stops_at_a_version_2_path_that_no_block_uses(tmp_path):
    """A version 3 file holds only the paths its blocks use, so a version 2
    file with another one fails the upgrade, which changes no file."""
    with RecordStore(tmp_path) as writer:
        writer.append(run(5))
    segment = columnar.Segment.load(tmp_path / "traceroute-1.col", "traceroute")
    segment.check()
    segment.keys.append(((255,), ("10.9.9.9",)))
    oracles.write_v2(tmp_path / "traceroute-1.col", segment)
    before = _snapshot(tmp_path)
    with pytest.raises(StoreError, match=re.escape(
            f"{tmp_path / 'traceroute-1.col'}: path 1: no block uses it")):
        legacy.upgrade(tmp_path)
    assert _snapshot(tmp_path) == before


def test_upgrade_of_a_missing_store_fails_and_makes_none(tmp_path, capsys):
    assert cli.main(["upgrade", "--store", str(tmp_path / "none")]) == 1
    assert capsys.readouterr().err == f"error: {tmp_path / 'none'}: no store there\n"
    assert not (tmp_path / "none").exists()
    with RecordStore(tmp_path / "fresh") as writer:
        writer.append(ping(5))
    fresh = _snapshot(tmp_path / "fresh")
    assert legacy.upgrade(tmp_path / "fresh") == (
        f"upgraded {tmp_path / 'fresh'}: segments renamed 0, version 1 and 2 files rewritten 0, "
        f"NDJSON segments sealed 0, second names unlinked 0")
    assert _snapshot(tmp_path / "fresh") == fresh
    assert dump(RecordStore(tmp_path / "fresh")) == serialize_line(ping(5))
