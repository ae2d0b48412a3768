"""`contrace upgrade`: a store of columnar format version 2 files fails
every read and writer until upgrade rewrites them as version 3, and an
upgrade that is cut at any replace completes when run again. A store
written before <kind>-<id> names or of version 1 files fails every read,
writer and upgrade, which change no file."""

import os
import re
import tempfile
from pathlib import Path

import pytest

import oracles
from contrace import cli, columnar, legacy
from contrace.records import RecordStore, StoreError, StoreQuery
from conftest import add_record
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


_NO_LONGER = "; contrace no longer reads or converts such a store"


@pytest.mark.parametrize("make_old, upgraded", [
    (_old_name_col, None), (_old_name_ndjson, None), (_open_ndjson, None), (_version_1, None),
    (_version_2, 4)],
    ids=["sealed-col", "sealed-ndjson", "open-ndjson", "version-1", "version-2"])
def test_every_read_and_a_writer_refuse_an_old_file_and_change_nothing(
        tmp_path, capsys, make_old, upgraded):
    """An old file is refused, never skipped as a stray file is: skipping
    it would drop its records. The pings' old names fail the traceroute
    reads too. upgrade converts a version 2 file; a file of a store written
    before ids fails it too, and it changes no file."""
    store = tmp_path / "store"
    with RecordStore(store) as writer:  # ping-1.col and traceroute-2.col
        for record in (ping(5, 10), ping(6), run(5), run(6, variant=1)):
            writer.append(record)
    old = make_old(store)
    before = _snapshot(store)
    refused = re.escape(f"{old}: ") + r"[^;]+" + re.escape(
        f"; run contrace upgrade --store {store}" if upgraded else _NO_LONGER) + "$"
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
    if upgraded:
        assert cli.main(["upgrade", "--store", str(store)]) == 0
        assert capsys.readouterr().out == f"upgraded {store}: version 2 files rewritten 1\n"
        assert RecordStore(store).count() == upgraded
        return
    assert cli.main(["upgrade", "--store", str(store)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and re.fullmatch("error: " + refused[:-1] + "\n", err), err
    assert "contrace upgrade" not in err
    assert _snapshot(store) == before


# -- a cut upgrade runs again to the same store ------------------------------------

def _v2(path, kind, records_):
    """Write records_ as a version 2 columnar file at path."""
    segment = columnar.Segment(kind)
    for record in records_:
        add_record(segment, record)
    oracles.write_v2(path, segment)


def _version_2_store(path):
    """A store of every state a store of version 2 files can hold, and its
    export: version 2 files of both kinds, one beside its NDJSON (a seal
    cut before its unlink), a crashed writer's NDJSON with a torn tail,
    and a temp file a cut seal left. Timestamp 5 is in every segment, so
    the export shows the order of each kind's ties."""
    path.mkdir()
    sealed = [ping(5, 10), ping(6, 11)]
    _v2(path / "ping-1.col", "ping", sealed)
    runs = [run(5, rtt=10), run(1, variant=1, rtt=11)]
    _v2(path / "traceroute-2.col", "traceroute", runs)
    twin = [ping(5, 20), ping(8)]
    (path / "ping-3.ndjson").write_text(_ndjson(twin))
    _v2(path / "ping-3.col", "ping", twin)
    later_runs = [run(5, rtt=20), run(6, variant=1, rtt=21)]
    _v2(path / "traceroute-4.col", "traceroute", later_runs)
    crashed = [ping(5, 50), ping(4, 51)]
    (path / "ping-5.ndjson").write_text(_ndjson(crashed, '{"timestamp":5,'))
    (path / "ping-5.col.tmp").write_bytes(_columns("ping", crashed)[:40])
    return canonical(sealed + twin + crashed + runs + later_runs)


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


def test_an_upgrade_cut_at_any_replace_completes_when_run_again(tmp_path, monkeypatch):
    """upgrade rewrites each version 2 file by one os.replace and leaves
    NDJSON and temp files to the next writer. Cut at any replace, a rerun
    completes it; the store then exports what it held, a third run changes
    no byte, and a writer's recovery keeps that export."""
    whole = tmp_path / "whole"
    expected = _version_2_store(whole)
    with monkeypatch.context() as patch:
        counted = _Cut(patch)
        assert legacy.upgrade(whole) == f"upgraded {whole}: version 2 files rewritten 4"
    assert counted.calls == 4
    assert [p.name for p in sorted(whole.iterdir())] == [
        ".lock", "ping-1.col", "ping-3.col", "ping-3.ndjson", "ping-5.col.tmp", "ping-5.ndjson",
        "traceroute-2.col", "traceroute-4.col"]
    assert not any(map(columnar.old_version, whole.glob("*.col")))
    assert dump(RecordStore(whole)) == expected
    upgraded = _snapshot(whole)
    for k in range(1, counted.calls + 1):
        store = tmp_path / f"cut-{k}"
        _version_2_store(store)
        with monkeypatch.context() as patch:
            _Cut(patch, k)
            with pytest.raises(Crash):
                legacy.upgrade(store)
        legacy.upgrade(store)
        assert dump(RecordStore(store)) == expected, k
        assert _snapshot(store) == upgraded, k
        legacy.upgrade(store)
        assert _snapshot(store) == upgraded, k
        with RecordStore(store) as writer:
            writer.append(ping(100))
        assert dump(RecordStore(store)) == expected + serialize_line(ping(100)), k
        assert [p.name for p in sorted(store.iterdir())] == [
            ".lock", "ping-1.col", "ping-3.col", "ping-5.col", "ping-6.col",
            "traceroute-2.col", "traceroute-4.col"], k


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
        assert legacy.upgrade(whole) == f"upgraded {whole}: version 2 files rewritten 4"
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
    assert legacy.upgrade(tmp_path / "fresh") == \
        f"upgraded {tmp_path / 'fresh'}: version 2 files rewritten 0"
    assert _snapshot(tmp_path / "fresh") == fresh
    assert dump(RecordStore(tmp_path / "fresh")) == serialize_line(ping(5))
