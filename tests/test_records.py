import copy
import io
import json
import os
import random
import re
import sys
import tempfile
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contrace import records
from contrace.records import (Hop, InvalidRecord, MalformedJson, PingRecord,
                              RecordStore, StoreError, StoreQuery, TracerouteRun)
from conftest import MIXED_NDJSON, MIXED_NDJSON_REJECTED
import oracles


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
        with RecordStore(tmp_path) as store:
            rec = ping()
            store.append(rec)
            got = store.query(StoreQuery("ping"))
        assert got == [rec]

    @staticmethod
    def _append_problems(tmp_path, record):
        with RecordStore(tmp_path) as store:
            with pytest.raises(InvalidRecord) as exc:
                store.append(record)
        assert RecordStore(tmp_path).count() == 0
        return exc.value.problems

    def test_rtt_with_timeout_status_rejected(self, tmp_path):
        record = PingRecord(1, "10.0.0.1", "10.0.0.2", 0, 5)
        assert self._append_problems(tmp_path, record) == \
            ["rtt: must be absent when status is 0"]

    def test_mixed_families_rejected(self, tmp_path):
        record = PingRecord(1, "10.0.0.1", "2001:db8::1", 0)
        assert self._append_problems(tmp_path, record) == \
            ["source and destination are of different IP families"]

    def test_missing_rtt_on_reply_rejected(self, tmp_path):
        record = PingRecord(1, "10.0.0.1", "10.0.0.2", 255)
        assert self._append_problems(tmp_path, record) == \
            ["rtt: required when status is 255"]

    def test_bad_status_rejected(self, tmp_path):
        record = PingRecord(1, "10.0.0.1", "10.0.0.2", 7)
        assert self._append_problems(tmp_path, record) == \
            ["status: must be one of (0, 1, 255), got 7"]

    def test_hop_numbering_must_be_consecutive(self, tmp_path):
        bad = TracerouteRun(1, "10.0.0.1", "10.0.0.2", 0,
                            (Hop(1, 0), Hop(3, 0)))
        assert self._append_problems(tmp_path, bad) == \
            ["hops[1].hop: expected 2, got 3"]

    def test_reply_hop_must_be_last(self, tmp_path):
        bad = TracerouteRun(1, "10.0.0.1", "10.0.0.2", 0,
                            (Hop(1, 255, "10.0.0.2", 10), Hop(2, 1, "10.0.0.3", 5)))
        assert self._append_problems(tmp_path, bad) == \
            ["hops[1]: hops after an echo-reply hop are not allowed"]

    def test_silent_hop_must_have_no_address(self, tmp_path):
        bad = TracerouteRun(1, "10.0.0.1", "10.0.0.2", 0,
                            (Hop(1, 0, "10.0.0.9"),))
        assert self._append_problems(tmp_path, bad) == \
            ["hops[0].address: must be absent when status is 0"]

    def test_non_record_rejected(self, tmp_path):
        assert self._append_problems(tmp_path, "10.0.0.1") == \
            ["unsupported record type str"]

    @pytest.mark.parametrize("doc", [
        {"timestamp": 1, "source": "10.0.0.1", "destination": "10.0.0.2",
         "status": True},
        {"timestamp": 1, "source": "10.0.0.1", "destination": "10.0.0.2",
         "status": 255.0, "rtt": 5},
        {"timestamp": 1, "source": "10.0.0.1", "destination": "10.0.0.2",
         "round": 0, "hops": [{"hop": 1, "status": 0}, {"hop": 2.0, "status": 0}]},
        {"timestamp": 1, "source": "10.0.0.1", "destination": "10.0.0.2",
         "round": 0, "hops": [{"hop": 1, "address": "10.0.0.9", "status": True,
                               "rtt": 5}]},
    ], ids=["ping-status-bool", "ping-status-float", "hop-float", "hop-status-bool"])
    def test_statuses_and_hop_numbers_must_be_integers(self, tmp_path, doc):
        with pytest.raises(InvalidRecord):
            records.from_json_obj(doc)
        with RecordStore(tmp_path) as store:
            accepted, rejects = store.import_json(io.StringIO(json.dumps(doc)))
        assert (accepted, len(rejects)) == (0, 1)
        assert RecordStore(tmp_path).count() == 0

    def test_v6_addresses_canonicalized(self, tmp_path):
        with RecordStore(tmp_path) as store:
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


V4_ADDRESSES = ["10.0.0.1", "192.0.2.9", "10.22.2.10"]
V6_ADDRESSES = ["2001:db8::1", "2001:DB8::1", "2001:db8:0:0::2", "2001:0db8::0002",
                "::ffff:10.0.0.1", "fe80::1%eth0"]
BAD_ADDRESSES = ["", "10.0.0.256", "not-an-ip", "2001:db8::g", " 10.0.0.1", 17]
ODD_VALUES = [True, False, 0, 1, 2, 3, 255, 256, -1, 1.0, 2.0, 255.0, "1", None,
              [], 10**20]


@st.composite
def valid_documents(draw):
    addresses = draw(st.sampled_from([V4_ADDRESSES, V6_ADDRESSES]))
    doc = {"timestamp": draw(st.integers(1, 2**62)),
           "source": draw(st.sampled_from(addresses)),
           "destination": draw(st.sampled_from(addresses))}
    if draw(st.booleans()):
        doc["status"] = draw(st.sampled_from([0, 1, 255]))
        if doc["status"] == 255:
            doc["rtt"] = draw(st.integers(0, 10**9))
        return doc
    doc["round"] = draw(st.integers(0, 5))
    n = draw(st.integers(1, 6))
    doc["hops"] = []
    for number in range(1, n + 1):
        status = draw(st.sampled_from([0, 1, 255] if number == n else [0, 1]))
        hop = {"hop": number, "status": status}
        if status:
            hop["address"] = draw(st.sampled_from(V4_ADDRESSES + V6_ADDRESSES))
            hop["rtt"] = draw(st.integers(0, 10**7))
        doc["hops"].append(hop)
    return doc


@st.composite
def mutated_documents(draw):
    """Valid documents with up to three mutations: odd field values,
    integers at the bounds, missing and unknown keys, non-canonical or
    invalid addresses, a hop after the reply hop, a wrong hops shape, or
    no object at all. Drawn values are deep-copied: ODD_VALUES holds a list,
    and a later mutation (hop_after_reply) appends to doc["hops"], which
    must never be that shared list."""
    doc = draw(valid_documents())
    for _ in range(draw(st.integers(0, 3))):
        hops = doc.get("hops")
        target = draw(st.sampled_from(
            [doc] + [h for h in hops if isinstance(h, dict)]
            if isinstance(hops, list) else [doc]))
        mutation = draw(st.sampled_from(["set"] * 4 + ["bound"] * 2 + [
            "delete", "unknown", "address", "hop_after_reply", "hops"]))
        if mutation == "set":
            key = draw(st.sampled_from(sorted(target) + ["status", "hop", "rtt"]))
            target[key] = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
        elif mutation == "bound":
            key = draw(st.sampled_from(
                ["timestamp", "round", "hop", "status", "rtt"]))
            target[key] = draw(st.sampled_from([-1, 0, 2, 256]))
        elif mutation == "delete" and target:
            del target[draw(st.sampled_from(sorted(target)))]
        elif mutation == "unknown":
            target["color"] = "red"
        elif mutation == "address":
            key = draw(st.sampled_from(["source", "destination", "address"]))
            target[key] = draw(st.sampled_from(
                V4_ADDRESSES + V6_ADDRESSES + BAD_ADDRESSES))
        elif mutation == "hop_after_reply" and isinstance(doc.get("hops"), list):
            doc["hops"].append({"hop": len(doc["hops"]) + 1, "status": 1,
                                "address": "10.0.0.9", "rtt": 5})
        elif mutation == "hops":
            doc["hops"] = copy.deepcopy(
                draw(st.sampled_from([[], None, "hops", [1], [[]]])))
    if draw(st.integers(0, 19)) == 0:
        return draw(st.sampled_from([[doc], json.dumps(doc), None, 3]))
    return doc


def _outcome(decode, obj):
    try:
        return repr(decode(copy.deepcopy(obj)))
    except Exception as exc:
        return type(exc), str(exc)


def _single_mutations(doc):
    """Every document one mutation away from doc: each field of the
    document or of one hop set to each odd value or address, or deleted,
    an unknown field, or a hop after the last one."""
    keys = sorted(oracles.PING_KEYS | oracles.TRACEROUTE_KEYS | oracles.HOP_KEYS)
    values = ODD_VALUES + V4_ADDRESSES + V6_ADDRESSES + BAD_ADDRESSES
    for index in range(-1, len(doc.get("hops", []))):
        def target(copied):
            return copied if index < 0 else copied["hops"][index]
        for key in keys:
            for value in values:
                mutated = copy.deepcopy(doc)
                target(mutated)[key] = value
                yield mutated
            mutated = copy.deepcopy(doc)
            if target(mutated).pop(key, None) is not None:
                yield mutated
        mutated = copy.deepcopy(doc)
        target(mutated)["color"] = "red"
        yield mutated
    if "hops" in doc:
        mutated = copy.deepcopy(doc)
        mutated["hops"].append({"hop": len(doc["hops"]) + 1, "status": 0})
        yield mutated


SINGLE_MUTATION_BASES = [
    {"timestamp": 7, "source": "10.0.0.1", "destination": "10.0.0.2", "status": 0},
    {"timestamp": 7, "source": "10.0.0.1", "destination": "10.0.0.2", "status": 1},
    {"timestamp": 7, "source": "2001:db8::1", "destination": "2001:db8::2",
     "status": 255, "rtt": 9},
    {"timestamp": 7, "source": "10.0.0.1", "destination": "10.0.0.2", "round": 1,
     "hops": [{"hop": 1, "address": "10.0.0.9", "status": 1, "rtt": 3},
              {"hop": 2, "status": 0},
              {"hop": 3, "address": "10.0.0.2", "status": 255, "rtt": 5}]},
    {"timestamp": 7, "source": "2001:db8::1", "destination": "2001:db8::2", "round": 0,
     "hops": [{"hop": 1, "status": 0},
              {"hop": 2, "address": "2001:db8::9", "status": 1, "rtt": 3}]},
]


class TestSinglePassDecode:
    @pytest.mark.parametrize("base", SINGLE_MUTATION_BASES)
    def test_every_single_mutation_matches_map_validate_normalize(self, base):
        for doc in _single_mutations(base):
            assert _outcome(records.from_json_obj, doc) == \
                _outcome(oracles.reference_decode, doc), doc

    @settings(max_examples=1000, deadline=None)
    @given(doc=mutated_documents())
    def test_matches_map_validate_normalize(self, doc):
        assert _outcome(records.from_json_obj, doc) == \
            _outcome(oracles.reference_decode, doc)

    @settings(max_examples=1000, deadline=None)
    @given(doc=mutated_documents())
    def test_append_matches_validate_normalize(self, doc):
        """append of a record mapped from a mutated document raises the
        reference's exact exception, or stores the reference's record."""
        try:
            record = oracles.reference_map(copy.deepcopy(doc))
        except MalformedJson:
            return
        with tempfile.TemporaryDirectory() as path:
            with RecordStore(path) as store:
                def append_and_read(record):
                    store.append(record)
                    kind = "ping" if isinstance(record, PingRecord) else "traceroute"
                    return store.query(StoreQuery(kind))[0]
                outcome = _outcome(append_and_read, record)

        def validate_normalize(record):
            oracles.reference_validate(record)
            return oracles.reference_normalize(record)
        assert outcome == _outcome(validate_normalize, record)

    @settings(max_examples=300, deadline=None)
    @given(doc=valid_documents())
    def test_valid_documents_take_the_single_pass(self, doc):
        """Valid documents never reach the failure branch."""
        expected = oracles.reference_decode(copy.deepcopy(doc))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(records, "_reject", None)  # any call would fail
            assert repr(records.from_json_obj(doc)) == repr(expected)

    def test_equal_addresses_share_one_string(self):
        first = records.parse_line('{"timestamp":1,"source":"2001:DB8::1",'
                                   '"destination":"2001:db8::2","status":0}')
        second = records.parse_line('{"timestamp":2,"source":"2001:db8:0::1",'
                                    '"destination":"2001:db8::2","status":0}')
        assert first.source == "2001:db8::1"
        assert first.source is second.source
        assert first.destination is second.destination


class TestRecordTuples:
    """Records are immutable, hashable named tuples; unpacking follows the
    class field order (Hop(hop, status, address, rtt)), not the JSON order."""

    @pytest.mark.parametrize("record", [ping(), ping(status=0), run(), run().hops[0]],
                             ids=["reply", "timeout", "run", "hop"])
    def test_attribute_assignment_is_rejected(self, record):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], 5)
        with pytest.raises(AttributeError):
            record.color = "red"

    @pytest.mark.parametrize("record", [ping(), ping(status=0), run()],
                             ids=["reply", "timeout", "run"])
    def test_hash_and_round_trip_through_parse_line(self, record):
        again = records.parse_line(records.serialize_line(record))
        assert again == record
        assert hash(again) == hash(record)
        assert repr(again) == repr(record)
        assert {record, again} == {record}

    def test_field_order_and_defaults(self):
        assert PingRecord._fields == ("timestamp", "source", "destination", "status", "rtt")
        assert Hop._fields == ("hop", "status", "address", "rtt")
        assert TracerouteRun._fields == ("timestamp", "source", "destination", "round", "hops")
        hop, status, address, rtt = Hop(3, 255, "10.0.0.2", 9)
        assert (hop, status, address, rtt) == (3, 255, "10.0.0.2", 9)
        assert Hop(2, 0) == Hop(2, 0, None, None)
        assert PingRecord(1, "10.0.0.1", "10.0.0.2", 0).rtt is None
        assert repr(Hop(2, 0)) == "Hop(hop=2, status=0, address=None, rtt=None)"

    @pytest.mark.parametrize("source", ["10.0.0.1", "2001:DB8::1"],
                             ids=["single-pass", "slow-path"])
    def test_decoded_records_are_exactly_the_record_classes(self, source, tmp_path):
        family_dst = "10.1.0.1" if "." in source else "2001:db8::2"
        lines = [records.serialize_line(ping(src=source, dst=family_dst)),
                 records.serialize_line(run(src=source, dst=family_dst))]
        decoded = [records.parse_line(line) for line in lines]
        with RecordStore(tmp_path) as store:
            store.import_json(io.StringIO("".join(lines)))
            decoded += store.query(StoreQuery("ping"))
            decoded += store.query(StoreQuery("traceroute"))
        assert [type(r) for r in decoded] == [PingRecord, TracerouteRun] * 2
        for run_ in decoded[1::2]:
            assert type(run_.hops) is tuple
            assert all(type(h) is Hop for h in run_.hops)


class TestStore:
    def test_import_counts(self, tmp_path):
        lines = [records.serialize_line(ping(ts=i + 1)) for i in range(100)]
        with RecordStore(tmp_path) as store:
            accepted, rejects = store.import_json(io.StringIO("".join(lines)))
        assert (accepted, rejects) == (100, [])

    def test_import_reports_rejects(self, tmp_path):
        text = records.serialize_line(ping()) + "{not json}\n" + \
            records.serialize_line(ping(ts=2))
        with RecordStore(tmp_path) as store:
            accepted, rejects = store.import_json(io.StringIO(text))
        assert accepted == 2
        assert len(rejects) == 1 and rejects[0][0] == 1

    @pytest.mark.parametrize("array", [False, True])
    def test_import_validates_each_record_once(self, tmp_path, monkeypatch, array):
        calls = []
        decode = records._ping_record

        def counting_decode(obj):
            calls.append(obj)
            return decode(obj)

        monkeypatch.setattr(records, "_ping_record", counting_decode)
        docs = [records.to_json_obj(ping(ts=i + 1)) for i in range(50)]
        text = json.dumps(docs) if array else \
            "".join(json.dumps(d) + "\n" for d in docs)
        with RecordStore(tmp_path) as store:
            assert store.import_json(io.StringIO(text)) == (50, [])
        assert len(calls) == 50

    def test_import_streams_lines_with_whole_input_indexes(self, tmp_path):
        """Streamed import gives each document the index it has in
        str.splitlines of the whole input, however the input is chunked."""
        expected_ts = [1, 2, 3, 4, 5, 6]
        for k, chunks in enumerate([io.StringIO(MIXED_NDJSON), [MIXED_NDJSON],
                                    list(MIXED_NDJSON),
                                    [MIXED_NDJSON[:30], MIXED_NDJSON[30:70],
                                     MIXED_NDJSON[70:]]]):
            with RecordStore(tmp_path / str(k)) as store:
                accepted, rejects = store.import_json(chunks)
                assert [r.timestamp for r in store.query(StoreQuery("ping"))] == \
                    expected_ts
            assert accepted == 6
            assert [i for i, _ in rejects] == MIXED_NDJSON_REJECTED
            assert rejects[1][1] == ("invalid JSON: Expecting property name "
                                     "enclosed in double quotes: line 1 column 17 "
                                     "(char 16)")

    def test_splitlines_of_any_two_chunks_equals_str_splitlines(self):
        for text in (MIXED_NDJSON, "a\r", "a\r\n\rb\n\n", "\r\n", ""):
            for cut in range(len(text) + 1):
                assert list(records._splitlines([text[:cut], text[cut:]])) == \
                    text.splitlines(), (text, cut)

    def test_import_reads_array_input_whole(self, tmp_path):
        docs = [records.to_json_obj(ping(ts=i + 1)) for i in range(3)]
        text = "\n \r\n" + json.dumps(docs, indent=1) + "\n"
        with RecordStore(tmp_path / "a") as store:
            assert store.import_json(io.StringIO(text)) == (3, [])
            assert store.import_json(iter(text)) == (3, [])
        with RecordStore(tmp_path / "b") as store:
            assert store.import_json(io.StringIO("\n[{},\n]")) == \
                (0, [(0, "invalid JSON array: Expecting value: line 3 column 1 "
                         "(char 6)")])
            not_utf8 = json.dumps(docs).encode().replace(b"10.0.0.1", b"10.0.0.\xff")
            assert store.import_json(io.StringIO(not_utf8.decode(
                errors="surrogateescape"))) == (0, [(0, "not UTF-8")])
            assert store.count() == 0

    def test_import_array_wrapped(self, tmp_path):
        docs = [records.to_json_obj(ping(ts=i + 1)) for i in range(5)]
        with RecordStore(tmp_path) as store:
            accepted, rejects = store.import_json(io.StringIO(json.dumps(docs)))
        assert (accepted, rejects) == (5, [])

    def test_export_import_round_trip(self, tmp_path):
        rng = random.Random(7)
        with RecordStore(tmp_path / "a") as store:
            for i in range(200):
                if rng.random() < 0.5:
                    store.append(ping(ts=rng.randrange(1, 10**15),
                                      status=rng.choice([0, 255]),
                                      rtt=rng.randrange(0, 10**6)))
                else:
                    store.append(run(ts=rng.randrange(1, 10**15), rnd=rng.randrange(3)))
            out1 = io.StringIO()
            store.export(out1)
        with RecordStore(tmp_path / "b") as other:
            accepted, rejects = other.import_json(io.StringIO(out1.getvalue()))
            assert rejects == []
            out2 = io.StringIO()
            other.export(out2)
        assert out1.getvalue() == out2.getvalue()

    def test_query_time_range_and_relation(self, tmp_path):
        hour = 3_600_000_000
        with RecordStore(tmp_path) as store:
            for i in range(10):
                store.append(ping(ts=1 + i * hour))
            store.append(ping(ts=1 + hour, src="10.9.9.9"))
            got = store.query(StoreQuery("ping", start=hour, end=2 * hour,
                                         source="10.0.0.1"))
        assert len(got) == 1 and got[0].timestamp == 1 + hour

    def test_empty_range(self, tmp_path):
        with RecordStore(tmp_path) as store:
            store.append(ping())
            assert store.query(StoreQuery("ping", start=1, end=2)) == []

    def test_relation_filter_excludes_other_relations(self, tmp_path):
        with RecordStore(tmp_path) as store:
            store.append(ping(src="10.0.0.1"))
            store.append(ping(src="10.0.0.2"))
            got = store.query(StoreQuery("ping", source="10.0.0.2"))
        assert {r.source for r in got} == {"10.0.0.2"}

    def test_results_sorted_by_timestamp(self, tmp_path):
        with RecordStore(tmp_path) as store:
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
        rng = random.Random(5)
        appended = [ping(ts=rng.randrange(1, 20), rtt=i) for i in range(400)]
        reference = sorted(appended, key=lambda r: r.timestamp)
        with RecordStore(tmp_path) as store:
            for rec in appended:
                store.append(rec)
            assert store.query(StoreQuery("ping")) == reference
        assert RecordStore(tmp_path).query(StoreQuery("ping")) == reference

    def test_import_of_concatenated_and_reversed_dumps(self, tmp_path):
        first = [ping(ts=t, rtt=t) for t in range(100, 200)]
        second = [ping(ts=t, rtt=t + 1) for t in range(150, 250)]
        imported = first + second + second[::-1]
        text = "".join(records.serialize_line(r) for r in imported)
        reference = sorted(imported, key=lambda r: r.timestamp)
        with RecordStore(tmp_path, segment_records=64) as store:
            assert store.import_json(io.StringIO(text)) == (len(imported), [])
            assert store.query(StoreQuery("ping")) == reference
            out = io.StringIO()
            store.export(out)
        assert out.getvalue() == "".join(records.serialize_line(r) for r in reference)

    def test_query_partition_consistency(self, tmp_path):
        rng = random.Random(13)
        with RecordStore(tmp_path) as store:
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

    # The first store is never closed, as after a crash; its segment file
    # object is left for the garbage collector.
    @pytest.mark.filterwarnings("ignore::ResourceWarning",
                                "ignore::pytest.PytestUnraisableExceptionWarning")
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
        with RecordStore(tmp_path) as store:

            def work(base):
                for i in range(200):
                    store.append(ping(ts=base + i))

            threads = [threading.Thread(target=work, args=(1 + k * 1000,))
                       for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert store.count("ping") == 800

    def test_bulk_append_one_million(self, tmp_path):
        with RecordStore(tmp_path, segment_records=500_000) as store:
            rec = ping()
            for i in range(1_000_000):
                store.append(rec)
            assert store.count("ping") == 1_000_000


class TestSegments:
    def test_segments_with_equal_names_are_all_kept(self, tmp_path):
        with RecordStore(tmp_path, segment_records=1000) as store:
            for i in range(3000):
                store.append(ping(ts=42, rtt=i))
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "ping-42-42-1.ndjson", "ping-42-42-2.ndjson", "ping-42-42.ndjson"]
        reopened = RecordStore(tmp_path)
        assert reopened.count("ping") == 3000
        assert [r.rtt for r in reopened.query(StoreQuery("ping"))] == list(range(3000))

    def test_without_hard_links_sealing_still_never_replaces(self, tmp_path, monkeypatch):
        def no_links(src, dst):
            raise PermissionError(1, "Operation not permitted")

        monkeypatch.setattr(records.os, "link", no_links)
        with RecordStore(tmp_path, segment_records=1000) as store:
            for i in range(3000):
                store.append(ping(ts=42, rtt=i))
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "ping-42-42-1.ndjson", "ping-42-42-2.ndjson", "ping-42-42.ndjson"]
        reopened = RecordStore(tmp_path)
        assert [r.rtt for r in reopened.query(StoreQuery("ping"))] == list(range(3000))

    def test_recovery_finishes_a_seal_cut_between_link_and_unlink(self, tmp_path):
        with RecordStore(tmp_path) as store:
            for ts in range(5, 10):
                store.append(ping(ts=ts))
        # the state a crash after os.link and before unlink leaves behind
        os.link(tmp_path / "ping-5-9.ndjson", tmp_path / "ping-5-open.ndjson")
        reopened = RecordStore(tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["ping-5-9.ndjson"]
        assert reopened.count("ping") == 5
        assert reopened.query(StoreQuery("ping")) == [ping(ts=ts) for ts in range(5, 10)]

    def test_dump_imported_twice_is_held_twice(self, tmp_path):
        lines = [records.serialize_line(ping(ts=t, rtt=t)) for t in range(1, 101)]
        for _ in range(2):
            with RecordStore(tmp_path) as store:
                assert store.import_json(io.StringIO("".join(lines))) == (100, [])
        out = io.StringIO()
        assert RecordStore(tmp_path).export(out) == 200
        assert out.getvalue() == "".join(line * 2 for line in lines)

    def test_tie_order_is_the_same_within_a_process_and_after_reopen(self, tmp_path):
        with RecordStore(tmp_path, segment_records=2) as store:
            for ts, rtt in ((10, 1), (20, 2), (5, 3), (10, 4), (10, 5)):
                store.append(ping(ts=ts, rtt=rtt))
            within = store.query(StoreQuery("ping"))
        # segments ping-5-10, ping-10-10 (open until close), ping-10-20
        assert [r.rtt for r in within] == [3, 4, 5, 1, 2]
        assert RecordStore(tmp_path).query(StoreQuery("ping")) == within

    @pytest.mark.parametrize("cut", [30, -1], ids=["torn", "no-newline"])
    def test_recovery_truncates_a_torn_last_line(self, tmp_path, caplog, cut):
        kept = records.serialize_line(ping(ts=5)) + records.serialize_line(ping(ts=6))
        last = records.serialize_line(ping(ts=7))[:cut]
        (tmp_path / "ping-5-open.ndjson").write_text(kept + last)
        with caplog.at_level("WARNING", logger="contrace.records"):
            store = RecordStore(tmp_path)
        if cut == -1:  # a whole record without its newline is kept
            assert [p.name for p in tmp_path.iterdir()] == ["ping-5-7.ndjson"]
            assert store.count("ping") == 3
            assert "torn" not in caplog.text
        else:
            assert [p.name for p in tmp_path.iterdir()] == ["ping-5-6.ndjson"]
            assert (tmp_path / "ping-5-6.ndjson").read_text() == kept
            assert f"dropped a torn last line of {len(last)} bytes" in caplog.text
            assert store.query(StoreQuery("ping")) == [ping(ts=5), ping(ts=6)]

    def test_ping_line_in_a_traceroute_segment_fails_traceroute_reads(self, tmp_path):
        with RecordStore(tmp_path) as store:
            store.append(run(ts=5))
            store.append(ping(ts=6))
        [segment] = tmp_path.glob("traceroute-*.ndjson")
        with segment.open("a") as fp:
            fp.write(records.serialize_line(ping(ts=7)))
        store = RecordStore(tmp_path)
        with pytest.raises(StoreError, match=re.escape(
                f"{segment}:2: a ping record in a traceroute segment")):
            store.query(StoreQuery("traceroute"))
        assert store.query(StoreQuery("ping")) == [ping(ts=6)]

    def test_corrupt_ping_line_fails_only_reads_of_pings(self, tmp_path):
        with RecordStore(tmp_path) as store:
            store.append(ping(ts=5))
            store.append(run(ts=6))
        [segment] = tmp_path.glob("ping-*.ndjson")
        with segment.open("a") as fp:
            fp.write("\n{not json}\n")
        store = RecordStore(tmp_path)  # opening reads no records
        assert store.count("ping") == 2  # non-blank lines, not decoded
        assert store.query(StoreQuery("traceroute")) == [run(ts=6)]
        for read in (lambda: store.query(StoreQuery("ping")),
                     lambda: store.export(io.StringIO())):
            with pytest.raises(StoreError, match=re.escape(f"{segment}:3: invalid JSON")):
                read()

    def test_reader_sees_whole_records_while_writers_roll_segments(self, tmp_path):
        errors, sizes = [], []
        done = threading.Event()
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with RecordStore(tmp_path, segment_records=7) as store:
                def write(k):
                    for i in range(250):
                        store.append(ping(ts=1 + i, src=f"10.0.{k}.1", rtt=i))

                def read():
                    try:
                        while not done.is_set():
                            got = store.query(StoreQuery("ping"))
                            assert all(r.rtt == r.timestamp - 1 for r in got)
                            sizes.append(len(got))
                    except Exception as exc:
                        errors.append(exc)

                reader = threading.Thread(target=read)
                writers = [threading.Thread(target=write, args=(k,)) for k in range(4)]
                reader.start()
                for writer in writers:
                    writer.start()
                for writer in writers:
                    writer.join(timeout=120)
                done.set()
                reader.join(timeout=120)
                assert not reader.is_alive()
                assert not any(writer.is_alive() for writer in writers)
                final = store.query(StoreQuery("ping"))
        finally:
            sys.setswitchinterval(switch)
        assert errors == []
        assert len(sizes) > 1 and sizes == sorted(sizes)
        assert len(final) == 1000
        assert RecordStore(tmp_path).query(StoreQuery("ping")) == final

def test_store_query_validates_range():
    with pytest.raises(ValueError):
        StoreQuery("ping", start=5, end=5)
    with pytest.raises(ValueError):
        StoreQuery("bogus")
