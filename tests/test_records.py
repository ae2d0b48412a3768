import io
import json
import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contrace import records
from contrace.records import (Hop, InvalidRecord, MalformedJson, PingRecord,
                              RecordStore, StoreQuery, TracerouteRun)


def ping(ts=1_600_000_000_000_000, src="10.0.0.1", dst="10.1.0.1", status=255, rtt=10_000):
    if status != 255:
        rtt = None
    return PingRecord(ts, src, dst, status, rtt)


def run(ts=1_600_000_000_000_000, src="10.0.0.1", dst="10.1.0.1", rnd=0):
    return TracerouteRun(ts, src, dst, rnd, (
        Hop(1, 1, "10.0.0.254", 500),
        Hop(2, 0),
        Hop(3, 255, dst, 9_000),
    ))


class TestValidation:
    def test_valid_ping_round_trips(self, tmp_path):
        store = RecordStore(tmp_path)
        rec = ping()
        store.append(rec)
        got = store.query(StoreQuery("ping"))
        assert got == [rec]

    def test_rtt_with_timeout_status_rejected(self):
        with pytest.raises(InvalidRecord) as exc:
            records.validate_ping(PingRecord(1, "10.0.0.1", "10.0.0.2", 0, 5))
        assert any("rtt" in p for p in exc.value.problems)

    def test_mixed_families_rejected(self):
        with pytest.raises(InvalidRecord):
            records.validate_ping(PingRecord(1, "10.0.0.1", "2001:db8::1", 0))

    def test_missing_rtt_on_reply_rejected(self):
        with pytest.raises(InvalidRecord):
            records.validate_ping(PingRecord(1, "10.0.0.1", "10.0.0.2", 255))

    def test_bad_status_rejected(self):
        with pytest.raises(InvalidRecord):
            records.validate_ping(PingRecord(1, "10.0.0.1", "10.0.0.2", 7))

    def test_hop_numbering_must_be_consecutive(self):
        bad = TracerouteRun(1, "10.0.0.1", "10.0.0.2", 0,
                            (Hop(1, 0), Hop(3, 0)))
        with pytest.raises(InvalidRecord):
            records.validate_traceroute(bad)

    def test_reply_hop_must_be_last(self):
        bad = TracerouteRun(1, "10.0.0.1", "10.0.0.2", 0,
                            (Hop(1, 255, "10.0.0.2", 10), Hop(2, 1, "10.0.0.3", 5)))
        with pytest.raises(InvalidRecord):
            records.validate_traceroute(bad)

    def test_silent_hop_must_have_no_address(self):
        bad = TracerouteRun(1, "10.0.0.1", "10.0.0.2", 0,
                            (Hop(1, 0, "10.0.0.9"),))
        with pytest.raises(InvalidRecord):
            records.validate_traceroute(bad)

    def test_v6_addresses_canonicalized(self, tmp_path):
        store = RecordStore(tmp_path)
        store.append(PingRecord(1, "2001:DB8:0:0::1", "2001:db8::2", 0))
        got = store.query(StoreQuery("ping"))[0]
        assert got.source == "2001:db8::1"


class TestSerialization:
    def test_canonical_key_order_and_omissions(self):
        line = records.serialize_line(ping())
        obj = json.loads(line)
        assert list(obj) == ["timestamp", "source", "destination", "status", "rtt"]
        line0 = records.serialize_line(ping(status=0))
        assert "rtt" not in json.loads(line0)

    def test_traceroute_hop_omissions(self):
        obj = records.to_json_obj(run())
        assert list(obj) == ["timestamp", "source", "destination", "round", "hops"]
        assert obj["hops"][1] == {"hop": 2, "status": 0}

    def test_parse_serialize_idempotent(self):
        for rec in (ping(), ping(status=0), run()):
            line = records.serialize_line(rec)
            again = records.serialize_line(records.parse_line(line))
            assert line == again

    def test_string_rtt_rejected_with_type_diagnostic(self):
        doc = json.dumps({"timestamp": 1, "source": "10.0.0.1",
                          "destination": "10.0.0.2", "status": 255, "rtt": "12.5"})
        with pytest.raises(InvalidRecord) as exc:
            records.parse_line(doc)
        assert any("rtt" in p and "integer" in p for p in exc.value.problems)

    def test_unknown_field_rejected(self):
        with pytest.raises(MalformedJson):
            records.from_json_obj({"timestamp": 1, "source": "10.0.0.1",
                                   "destination": "10.0.0.2", "status": 0,
                                   "color": "red"})

    @settings(max_examples=200)
    @given(ts=st.integers(1, 2**60), status=st.sampled_from([0, 1, 255]),
           rtt=st.integers(0, 10**9))
    def test_ping_round_trip_property(self, ts, status, rtt):
        rec = PingRecord(ts, "192.0.2.7", "192.0.2.9", status,
                         rtt if status == 255 else None)
        assert records.parse_line(records.serialize_line(rec)) == rec


class TestStore:
    def test_import_counts(self, tmp_path):
        lines = [records.serialize_line(ping(ts=i + 1)) for i in range(100)]
        store = RecordStore(tmp_path)
        accepted, rejects = store.import_json(io.StringIO("".join(lines)))
        assert (accepted, rejects) == (100, [])

    def test_import_reports_rejects(self, tmp_path):
        text = records.serialize_line(ping()) + "{not json}\n" + \
            records.serialize_line(ping(ts=2))
        store = RecordStore(tmp_path)
        accepted, rejects = store.import_json(io.StringIO(text))
        assert accepted == 2
        assert len(rejects) == 1 and rejects[0][0] == 1

    @pytest.mark.parametrize("array", [False, True])
    def test_import_validates_each_record_once(self, tmp_path, monkeypatch, array):
        calls = []
        validate = records.validate_record

        def counting_validate(record):
            calls.append(record)
            validate(record)

        monkeypatch.setattr(records, "validate_record", counting_validate)
        docs = [records.to_json_obj(ping(ts=i + 1)) for i in range(50)]
        text = json.dumps(docs) if array else \
            "".join(json.dumps(d) + "\n" for d in docs)
        store = RecordStore(tmp_path)
        assert store.import_json(io.StringIO(text)) == (50, [])
        assert len(calls) == 50

    def test_import_array_wrapped(self, tmp_path):
        docs = [records.to_json_obj(ping(ts=i + 1)) for i in range(5)]
        store = RecordStore(tmp_path)
        accepted, rejects = store.import_json(io.StringIO(json.dumps(docs)))
        assert (accepted, rejects) == (5, [])

    def test_export_import_round_trip(self, tmp_path):
        rng = random.Random(7)
        store = RecordStore(tmp_path / "a")
        for i in range(200):
            if rng.random() < 0.5:
                store.append(ping(ts=rng.randrange(1, 10**15),
                                  status=rng.choice([0, 255]),
                                  rtt=rng.randrange(0, 10**6)))
            else:
                store.append(run(ts=rng.randrange(1, 10**15), rnd=rng.randrange(3)))
        out1 = io.StringIO()
        store.export(out1)
        other = RecordStore(tmp_path / "b")
        accepted, rejects = other.import_json(io.StringIO(out1.getvalue()))
        assert rejects == []
        out2 = io.StringIO()
        other.export(out2)
        assert out1.getvalue() == out2.getvalue()

    def test_query_time_range_and_relation(self, tmp_path):
        store = RecordStore(tmp_path)
        hour = 3_600_000_000
        for i in range(10):
            store.append(ping(ts=1 + i * hour))
        store.append(ping(ts=1 + hour, src="10.9.9.9"))
        got = store.query(StoreQuery("ping", start=hour, end=2 * hour,
                                     source="10.0.0.1"))
        assert len(got) == 1 and got[0].timestamp == 1 + hour

    def test_empty_range(self, tmp_path):
        store = RecordStore(tmp_path)
        store.append(ping())
        assert store.query(StoreQuery("ping", start=1, end=2)) == []

    def test_relation_filter_excludes_other_relations(self, tmp_path):
        store = RecordStore(tmp_path)
        store.append(ping(src="10.0.0.1"))
        store.append(ping(src="10.0.0.2"))
        got = store.query(StoreQuery("ping", source="10.0.0.2"))
        assert {r.source for r in got} == {"10.0.0.2"}

    def test_results_sorted_by_timestamp(self, tmp_path):
        store = RecordStore(tmp_path)
        for ts in (5, 3, 9, 1):
            store.append(ping(ts=ts * 1000))
        got = store.query(StoreQuery("ping"))
        assert [r.timestamp for r in got] == sorted(r.timestamp for r in got)

    def test_export_order_survives_reopen(self, tmp_path):
        store = RecordStore(tmp_path)
        store.append(run(ts=1_000_000))
        store.append(ping(ts=1_000_000))
        before = io.StringIO()
        store.export(before)
        store.close()
        after = io.StringIO()
        RecordStore(tmp_path).export(after)
        assert before.getvalue() == after.getvalue()
        assert json.loads(before.getvalue().splitlines()[0]) == \
            records.to_json_obj(ping(ts=1_000_000))

    def test_out_of_order_appends_query_as_stable_sort(self, tmp_path):
        store = RecordStore(tmp_path)
        rng = random.Random(5)
        appended = [ping(ts=rng.randrange(1, 20), rtt=i) for i in range(400)]
        for rec in appended:
            store.append(rec)
        reference = sorted(appended, key=lambda r: r.timestamp)
        assert store.query(StoreQuery("ping")) == reference

    def test_import_of_concatenated_and_reversed_dumps(self, tmp_path):
        first = [ping(ts=t, rtt=t) for t in range(100, 200)]
        second = [ping(ts=t, rtt=t + 1) for t in range(150, 250)]
        imported = first + second + second[::-1]
        text = "".join(records.serialize_line(r) for r in imported)
        store = RecordStore(tmp_path, segment_records=64)
        assert store.import_json(io.StringIO(text)) == (len(imported), [])
        reference = sorted(imported, key=lambda r: r.timestamp)
        assert store.query(StoreQuery("ping")) == reference
        out = io.StringIO()
        store.export(out)
        assert out.getvalue() == "".join(records.serialize_line(r) for r in reference)

    def test_query_partition_consistency(self, tmp_path):
        store = RecordStore(tmp_path)
        rng = random.Random(13)
        for _ in range(500):
            store.append(ping(ts=rng.randrange(1, 1000)))
        whole = store.query(StoreQuery("ping", start=1, end=1000))
        split = store.query(StoreQuery("ping", start=1, end=400)) + \
            store.query(StoreQuery("ping", start=400, end=1000))
        assert whole == split

    def test_segments_roll_and_survive_reopen(self, tmp_path):
        store = RecordStore(tmp_path, segment_records=10)
        for i in range(25):
            store.append(ping(ts=i + 1))
        store.close()
        sealed = sorted(p.name for p in tmp_path.glob("*.ndjson"))
        assert len(sealed) == 3
        assert not any(n.endswith("-open.ndjson") for n in sealed)
        again = RecordStore(tmp_path, segment_records=10)
        assert again.count("ping") == 25

    def test_reopen_recovers_open_segment(self, tmp_path):
        store = RecordStore(tmp_path, segment_records=1000)
        store.append(ping(ts=42))
        # no close: simulates a crashed process leaving the open segment
        again = RecordStore(tmp_path)
        assert again.count("ping") == 1
        assert not list(tmp_path.glob("*-open.ndjson"))

    def test_non_segment_files_are_ignored_with_a_warning(self, tmp_path, caplog):
        (tmp_path / "notes.ndjson").write_text("not a record\n")
        (tmp_path / "ping-x-open.ndjson").write_text("")
        with caplog.at_level("WARNING", logger="contrace.records"):
            assert RecordStore(tmp_path).count() == 0
        warned = caplog.text
        assert "notes.ndjson" in warned and "ping-x-open.ndjson" in warned
        with RecordStore(tmp_path) as store:
            store.append(ping(ts=42))
        assert RecordStore(tmp_path).count("ping") == 1
        assert (tmp_path / "notes.ndjson").read_text() == "not a record\n"

    def test_concurrent_appends(self, tmp_path):
        store = RecordStore(tmp_path)

        def work(base):
            for i in range(200):
                store.append(ping(ts=base + i))

        threads = [threading.Thread(target=work, args=(1 + k * 1000,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert store.count("ping") == 800

    def test_bulk_append_one_million(self, tmp_path):
        store = RecordStore(tmp_path, segment_records=500_000)
        rec = ping()
        for i in range(1_000_000):
            store.append(rec)
        assert store.count("ping") == 1_000_000


def test_store_query_validates_range():
    with pytest.raises(ValueError):
        StoreQuery("ping", start=5, end=5)
    with pytest.raises(ValueError):
        StoreQuery("bogus")
