import copy
import errno
import io
import itertools
import json
import os
import random
import re
import shutil
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from contrace import columnar, records
from contrace import store as store_module
from contrace.records import (Hop, InvalidRecord, MalformedJson, PingRecord,
                              RecordStore, StoreError, StoreQuery, TracerouteRun)
from conftest import MIXED_NDJSON, MIXED_NDJSON_REJECTED
import oracles
from oracles import serialize_line


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


def write_old_segment(path, records_):
    """records_ as an NDJSON segment file at path, one canonical line each:
    a segment a crashed writer left, or one an old store sealed."""
    path.write_text("".join(serialize_line(r) for r in records_))


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
        line = serialize_line(ping())
        obj = json.loads(line)
        assert list(obj) == ["timestamp", "source", "destination", "status", "rtt"]
        line0 = serialize_line(ping(status=0))
        assert "rtt" not in json.loads(line0)

    def test_traceroute_hop_omissions(self):
        obj = records.to_json_obj(run())
        assert list(obj) == ["timestamp", "source", "destination", "round", "hops"]
        assert obj["hops"][1] == {"hop": 2, "status": 0}

    def test_parse_serialize_idempotent(self):
        for rec in (ping(), ping(status=0), run()):
            line = serialize_line(rec)
            again = serialize_line(records.parse_line(line))
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
        assert records.parse_line(serialize_line(rec)) == rec


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

    @settings(max_examples=1000, deadline=None)
    @given(doc=mutated_documents())
    def test_a_record_is_checked_as_its_document(self, doc):
        """validated(record) returns or raises what decoding
        to_json_obj(record) does, for records of odd field values."""
        if not isinstance(doc, dict):
            return
        fields = (doc.get("timestamp"), doc.get("source"), doc.get("destination"))
        if "hops" in doc:
            hops = doc["hops"]
            if isinstance(hops, list):
                hops = tuple(Hop(h.get("hop"), h.get("status"), h.get("address"),
                                 h.get("rtt")) if isinstance(h, dict) else h for h in hops)
            record = TracerouteRun(*fields, doc.get("round"), hops)
        else:
            record = PingRecord(*fields, doc.get("status"), doc.get("rtt"))
        assert _outcome(records.validated, record) == _outcome(
            lambda r: records.from_json_obj(records.to_json_obj(r)), record)

    @settings(max_examples=300, deadline=None)
    @given(doc=valid_documents())
    def test_written_line_is_the_canonical_line(self, doc):
        record = records.from_json_obj(doc)
        segment = columnar.Segment("ping" if isinstance(record, PingRecord) else "traceroute")
        lines = []
        for _ in range(2):  # the %-format is built, then reused
            lines.append(segment.encode(record)[0])
        assert lines == [serialize_line(record)] * 2

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
        again = records.parse_line(serialize_line(record))
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
        lines = [serialize_line(ping(src=source, dst=family_dst)),
                 serialize_line(run(src=source, dst=family_dst))]
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
        lines = [serialize_line(ping(ts=i + 1)) for i in range(100)]
        with RecordStore(tmp_path) as store:
            accepted, rejects = store.import_json(io.StringIO("".join(lines)))
        assert (accepted, rejects) == (100, [])

    def test_import_reports_rejects(self, tmp_path):
        text = serialize_line(ping()) + "{not json}\n" + \
            serialize_line(ping(ts=2))
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
        # an array's documents become compact lines, which are canonical
        # here: after the first, each is stored by its shape, with no decode
        assert len(calls) == (1 if array else 50)

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
                batches = list(records._line_batches([text[:cut], text[cut:]]))
                assert all(batches) and len(batches) <= 3, (text, cut)
                assert list(itertools.chain.from_iterable(batches)) == \
                    text.splitlines(True), (text, cut)

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
        text = "".join(serialize_line(r) for r in imported)
        reference = sorted(imported, key=lambda r: r.timestamp)
        with RecordStore(tmp_path, segment_records=64) as store:
            assert store.import_json(io.StringIO(text)) == (len(imported), [])
            assert store.query(StoreQuery("ping")) == reference
            out = io.StringIO()
            store.export(out)
        assert out.getvalue() == "".join(serialize_line(r) for r in reference)

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
        sealed = sorted(p.name for p in tmp_path.glob("ping-*"))
        assert len(sealed) == 3
        assert all(n.endswith(".col") for n in sealed)
        again = RecordStore(tmp_path, segment_records=10)
        assert again.count("ping") == 25

    def test_reopen_recovers_open_segment(self, tmp_path):
        crashed = tmp_path / "crashed"
        with RecordStore(tmp_path / "live", segment_records=1000) as store:
            store.append(ping(ts=42))
            # the files a process that crashed now would leave behind
            shutil.copytree(tmp_path / "live", crashed)
        assert RecordStore(crashed).count("ping") == 1  # a reader leaves them be
        assert [p.name for p in crashed.glob("*.ndjson")] == ["ping-1.ndjson"]
        with RecordStore(crashed) as writer:
            writer.append(run(ts=43))  # a writer recovers at its first write
        again = RecordStore(crashed)
        assert again.count("ping") == 1
        assert not list(crashed.glob("*.ndjson"))
        assert [p.name for p in crashed.glob("ping-*")] == ["ping-1.col"]

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

    def test_append_builds_no_dict(self, tmp_path, monkeypatch):
        """append checks a record's fields as they are: it neither builds
        the record's document nor decodes one."""
        def no_document(_):
            raise AssertionError("append built or decoded a document")

        for module in (records, store_module):
            for name in ("to_json_obj", "from_json_obj"):
                monkeypatch.setattr(module, name, no_document, raising=False)
        appended = [ping(ts=1), ping(ts=2, status=0), run(ts=3),
                    ping(ts=4, src="2001:DB8::1", dst="2001:db8::2")]
        with RecordStore(tmp_path) as store:
            for record in appended:
                store.append(record)
            lines = b"".join(p.read_bytes() for p in sorted(tmp_path.glob("*.ndjson")))
        monkeypatch.undo()
        stored = RecordStore(tmp_path).query(StoreQuery("ping"))
        assert stored[2].source == "2001:db8::1"
        assert lines.decode() == "".join(map(serialize_line, stored)) + \
            serialize_line(run(ts=3))

    @pytest.mark.parametrize("record", [
        ping(ts=0),
        PingRecord(1, "10.0.0.1", "10.0.0.2", 255, True),
        PingRecord(1, "10.0.0.1", "2001:db8::1", 0),
        PingRecord(1, "10.0.0.1", "10.0.0.2", 7),
        PingRecord(1, "10.0.0.1", "10.0.0.2", 0, 5),
        TracerouteRun(1, "10.0.0.1", "10.0.0.2", 0,
                      (Hop(1, 255, "10.0.0.2", 10), Hop(2, 1, "10.0.0.3", 5))),
        PingRecord(1, "2001:DB8::1", "10.0.0.2", 0),
        PingRecord(1, "2001:DB8::1", "2001:db8::2", 255, 3),
        TracerouteRun(1, "10.0.0.1", "10.0.0.2", 0, [Hop(1, 1, "10.0.0.9", 5)]),
        TracerouteRun(1, "10.0.0.1", "10.0.0.2", 0, ((1, 0, None, None),)),
        TracerouteRun(1, "10.0.0.1", "10.0.0.2", 0, None),
        TracerouteRun(1, "10.0.0.1", "10.0.0.2", 0, ()),
    ], ids=["timestamp-0", "rtt-bool", "mixed-families", "unknown-status",
            "rtt-on-timeout", "hop-after-reply", "upper-case-v6-mixed",
            "upper-case-v6", "hops-a-list", "hop-a-tuple", "hops-none", "no-hops"])
    def test_append_fails_or_stores_as_the_document_does(self, tmp_path, record):
        """append raises the exception class and message that decoding
        to_json_obj(record) raises, or stores the record it decodes."""
        expected = _outcome(lambda r: records.from_json_obj(records.to_json_obj(r)), record)
        with RecordStore(tmp_path) as store:
            try:
                store.append(record)
            except Exception as exc:
                outcome = type(exc), str(exc)
            else:
                outcome = repr(store.query(StoreQuery(store_module._kind_of(record)))[0])
        assert outcome == expected

    def test_extend_writes_the_files_of_appending_one_at_a_time(self, tmp_path):
        """extend writes a run per kind in a row, cut where a segment fills,
        so its files and seals are those of one append per record."""
        stored = [ping(ts=5), ping(ts=1), run(ts=2), ping(ts=3), ping(ts=4), ping(ts=4),
                  run(ts=6), run(ts=6), run(ts=7), ping(ts=8, status=0, rtt=None)]
        with RecordStore(tmp_path / "extended", segment_records=3) as store:
            store.extend(stored)
            assert store.written == {"ping": 6, "traceroute": 4}
        with RecordStore(tmp_path / "appended", segment_records=3) as store:
            for record in stored:
                store.append(record)

        def files(path):
            return {name.name: name.read_bytes() for name in path.glob("*-*")}

        assert len(files(tmp_path / "extended")) == 4  # two of each kind
        assert files(tmp_path / "extended") == files(tmp_path / "appended")

    def test_extend_stores_the_records_before_an_invalid_one(self, tmp_path):
        with RecordStore(tmp_path) as store:
            with pytest.raises(InvalidRecord, match="unsupported record type str"):
                store.extend([ping(ts=1), run(ts=2), ping(ts=3), "not a record", ping(ts=4)])
        assert [r.timestamp for r in RecordStore(tmp_path).query(StoreQuery("ping"))] == [1, 3]
        assert RecordStore(tmp_path).count("traceroute") == 1

    def test_a_runs_sink_stores_what_it_holds_at_exit(self, tmp_path):
        """A Runs sink stores its records by the run, and on leaving its
        context, also one left by an exception, the records it holds."""
        with RecordStore(tmp_path) as store:
            with pytest.raises(RuntimeError):
                with store.runs(2) as sink:
                    for ts in (1, 2, 3):
                        sink.append(ping(ts=ts))
                    assert store.written["ping"] == 2
                    raise RuntimeError("the simulation failed")
            assert store.written["ping"] == 3
        assert RecordStore(tmp_path).count("ping") == 3

    def test_bulk_append_one_million(self, tmp_path):
        with RecordStore(tmp_path, segment_records=500_000) as store:
            rec = ping()
            for i in range(1_000_000):
                store.append(rec)
            assert store.count("ping") == 1_000_000


# Lines json.loads fails on with a ValueError or RecursionError of its own,
# not a JSONDecodeError: an integer too long for int() under Python's default
# limit of 4300 digits (in the shape of a canonical line), and deep nesting.
HUGE_RTT = ('{"timestamp":5,"source":"10.0.0.1","destination":"10.1.0.1","status":255,'
            '"rtt":' + "4" * 5000 + '}\n')
DEEP = "[" * 100_000 + "\n"
UNPARSED = [pytest.param(HUGE_RTT, "Exceeds the limit", id="huge-integer",
                         marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                                  reason="no int() digit limit")),
            pytest.param(DEEP, "maximum recursion depth exceeded", id="deep-nesting")]
NUMBER_SPELLINGS = ["0{}", "-1", "1.0", "1e3", "9" * 19, "1" + "0" * 18, "0", "%d", "",
                    "{} ", "{}0"]


@st.composite
def shaped_lines(draw):
    """Canonical lines of a few drawn records, then lines of their shapes:
    canonical lines of other timestamps, some tied, and mutated lines. A
    mutation spells a timestamp, round or rtt otherwise (a leading zero,
    -1, 1.0, 1e3, 19 digits, 0, a literal %d, no value), adds a field,
    swaps two keys, adds a space, writes a v6 address in upper case, ends
    the line in a carriage return, or doubles a "%"."""
    bases = [records.from_json_obj(doc)
             for doc in draw(st.lists(valid_documents(), min_size=1, max_size=4))]
    lines = [serialize_line(record) for record in bases]
    for _ in range(draw(st.integers(1, 12))):
        record = draw(st.sampled_from(bases))
        line = serialize_line(record._replace(timestamp=draw(st.sampled_from([1, 7, 10**17]))))
        mutation = draw(st.sampled_from([None, None, "number", "number", "field", "swap",
                                         "space", "upper", "cr", "percent"]))
        if mutation == "number":
            number = draw(st.sampled_from(list(re.finditer(
                r'"(?:timestamp|round|rtt)":([0-9]+)', line))))
            spelled = draw(st.sampled_from(NUMBER_SPELLINGS)).format(number[1])
            line = line[:number.start(1)] + spelled + line[number.end(1):]
        elif mutation == "field":
            line = line[:-2] + ',"color":"red"}\n'
        elif mutation == "swap":
            line = re.sub(r'("source":"[^"]*"),("destination":"[^"]*")', r"\2,\1", line)
        elif mutation == "space":
            separator = draw(st.sampled_from(["{", ",", ":"]))
            line = line.replace(separator, separator + " ", 1)
        elif mutation == "upper":
            line = line.replace("db8", "DB8").replace("ffff", "FFFF")
        elif mutation == "cr":
            line = line[:-1] + draw(st.sampled_from(["\r", "\r\n"]))
        elif mutation == "percent":
            line = line.replace("%", "%%")
        lines.append(line)
    return lines


def _reference_import(text: str):
    """(accepted, rejects), the export and the records in input order of
    importing text, each line decoded on its own by json.loads and the
    reference decoder."""
    stored, rejects = [], []
    for i, line in enumerate(text.splitlines()):
        if not line.strip():
            continue
        try:
            document = json.loads(line)
        except ValueError as exc:
            rejects.append((i, f"invalid JSON: {exc}"))
            continue
        try:
            stored.append(oracles.reference_decode(document))
        except (MalformedJson, InvalidRecord) as exc:
            rejects.append((i, str(exc)))
    exported = sorted(stored, key=lambda record: (record.timestamp,
                                                  isinstance(record, TracerouteRun)))
    return (len(stored), rejects), "".join(map(serialize_line, exported)), stored


def _reference_array_import(text: str):
    """(array, (accepted, rejects)): the lines of text that json.loads
    accepts, as one JSON array, and the outcome of importing it, each
    document decoded by the reference decoder and indexed by position."""
    kept, stored, rejects = [], 0, []
    for line in text.splitlines():
        try:
            document = json.loads(line)
        except ValueError:
            continue
        try:
            oracles.reference_decode(document)
            stored += 1
        except (MalformedJson, InvalidRecord) as exc:
            rejects.append((len(kept), str(exc)))
        kept.append(line)
    return "[" + ",\n".join(kept) + "]", (stored, rejects)


def _segment_files(path: Path) -> dict[str, bytes]:
    """Each segment file's name and bytes."""
    return {file.name: file.read_bytes() for file in path.iterdir() if file.name != ".lock"}


class TestImportByShape:
    """import adds a canonical line whose shape its segment has seen as a
    row, with no JSON decode; every other line is decoded as before."""

    @staticmethod
    def _import_matches_the_reference(lines, segment_records):
        """With few records to a segment, shapes are learned again after
        each seal, and a seal can fall inside a batch; the export while the
        writer is open reads the NDJSON segments by shape too. The sealed
        files are those of appending the decoded records in input order,
        of storing them by one extend, and of importing the lines that are
        JSON as an array."""
        text = "".join(lines)
        expected, exported, decoded = _reference_import(text)
        array, array_expected = _reference_array_import(text)
        with tempfile.TemporaryDirectory() as path, \
                tempfile.TemporaryDirectory() as appended, \
                tempfile.TemporaryDirectory() as extended, \
                tempfile.TemporaryDirectory() as imported_array:
            with RecordStore(path, segment_records=segment_records) as store:
                assert store.import_json(io.StringIO(text)) == expected
                dump = io.StringIO()
                store.export(dump)
                assert dump.getvalue() == exported
            dump = io.StringIO()
            RecordStore(path).export(dump)
            with RecordStore(appended, segment_records=segment_records) as store:
                for record in decoded:
                    store.append(record)
            with RecordStore(extended, segment_records=segment_records) as store:
                store.extend(decoded)
            with RecordStore(imported_array, segment_records=segment_records) as store:
                assert store.import_json(io.StringIO(array)) == array_expected
            assert _segment_files(Path(path)) == _segment_files(Path(appended)) == \
                _segment_files(Path(extended)) == _segment_files(Path(imported_array))
        assert dump.getvalue() == exported

    @settings(max_examples=150, deadline=None)
    @given(lines=shaped_lines(), segment_records=st.sampled_from([100_000, 3]))
    def test_import_matches_decoding_each_line_on_its_own(self, lines, segment_records):
        self._import_matches_the_reference(lines, segment_records)

    @pytest.mark.parametrize("base", [ping(), ping(status=0), run(rnd=2),
                                      run(src="2001:db8::1", dst="2001:db8::2")],
                             ids=["reply", "timeout", "run", "run-v6"])
    @pytest.mark.parametrize("segment_records", [100_000, 2])
    def test_every_respelled_integer_matches_decoding_each_line(self, base, segment_records):
        """Each timestamp, round and rtt of a canonical line spelled each
        other way, every line after a canonical one of its shape."""
        line = serialize_line(base)
        lines = []
        for number in re.finditer(r'"(?:timestamp|round|rtt)":([0-9]+)', line):
            for spelled in NUMBER_SPELLINGS:
                lines += [line, line[:number.start(1)] + spelled.format(number[1])
                          + line[number.end(1):]]
        self._import_matches_the_reference(lines, segment_records)

    @pytest.mark.parametrize("segment_records", [100_000, 7])
    def test_canonical_lines_are_decoded_once_per_shape_per_segment(
            self, tmp_path, monkeypatch, segment_records):
        calls = []
        for name in ("_ping_record", "_traceroute_run"):
            def counting_decode(obj, decode=getattr(records, name)):
                calls.append(obj)
                return decode(obj)
            monkeypatch.setattr(records, name, counting_decode)
        rng = random.Random(3)
        appended = [ping(ts=i + 1, src=rng.choice(["10.0.0.1", "10.0.0.2"]),
                         status=rng.choice([0, 255]), rtt=rng.randrange(10**6))
                    if rng.random() < 0.5 else
                    run(ts=i + 1, dst=rng.choice(["10.1.0.1", "10.1.0.2"]), rnd=rng.randrange(3))
                    for i in range(100)]
        decodes = 0  # distinct shapes per segment: per pair and ping status or path
        for kind in (PingRecord, TracerouteRun):
            shapes = [(r.source, r.destination, r.status if kind is PingRecord else
                       tuple(hop[1:3] for hop in r.hops)) for r in appended if type(r) is kind]
            decodes += sum(len(set(shapes[i:i + segment_records]))
                           for i in range(0, len(shapes), segment_records))
        with RecordStore(tmp_path, segment_records=segment_records) as store:
            assert store.import_json(io.StringIO("".join(map(serialize_line, appended)))) == \
                (100, [])
            assert len(calls) == decodes < 100
        assert RecordStore(tmp_path).query(StoreQuery("ping")) + \
            RecordStore(tmp_path).query(StoreQuery("traceroute")) == \
            [r for kind in (PingRecord, TracerouteRun) for r in appended if type(r) is kind]

    def test_a_run_of_one_segments_lines_is_one_write(self, tmp_path, monkeypatch):
        """A decoded line joins the run of its segment's lines, and so do
        canonical lines after it; blank and rejected lines do not end the
        run, and a line of the other kind does. extend of the five records
        the lines hold writes the same runs."""
        lines = [serialize_line(ping(ts=1)), json.dumps(records.to_json_obj(ping(ts=2))) + "\n",
                 "\n", "{bad}\n", serialize_line(ping(ts=3)), serialize_line(run(ts=4)),
                 serialize_line(ping(ts=5))]
        write, writes = os.write, []

        def counting_write(fd, data):
            writes.append(data.count(b"\n"))
            return write(fd, data)

        with RecordStore(tmp_path) as store, RecordStore(tmp_path / "extended") as extended:
            with monkeypatch.context() as patch:
                patch.setattr(os, "write", counting_write)
                accepted, rejects = store.import_json(io.StringIO("".join(lines)))
                extended.extend([ping(ts=1), ping(ts=2), ping(ts=3), run(ts=4), ping(ts=5)])
        assert (accepted, [i for i, _ in rejects]) == (5, [3])
        assert writes == [3, 1, 1] * 2
        for path in (tmp_path, tmp_path / "extended"):
            assert RecordStore(path).query(StoreQuery("ping")) == \
                [ping(ts=ts) for ts in (1, 2, 3, 5)]

    def test_a_doubled_percent_does_not_match_a_scoped_address(self, tmp_path):
        """A format holding an address with a scope id has "%%" where the
        canonical line has "%"; a line with "%%" there is rejected."""
        line = serialize_line(ping(src="fe80::1%eth0", dst="fe80::2"))
        with RecordStore(tmp_path) as store:
            accepted, rejects = store.import_json(io.StringIO(line * 2 + line.replace("%", "%%")))
        assert (accepted, [i for i, _ in rejects]) == (2, [2])
        assert RecordStore(tmp_path).query(StoreQuery("ping")) == \
            [ping(src="fe80::1%eth0", dst="fe80::2")] * 2

    @pytest.mark.parametrize("line, reason", UNPARSED)
    def test_a_line_json_loads_cannot_parse_is_rejected(self, tmp_path, line, reason):
        text = serialize_line(ping(ts=1)) + line + serialize_line(ping(ts=2))
        with RecordStore(tmp_path) as store:
            accepted, rejects = store.import_json(io.StringIO(text))
        assert (accepted, [i for i, _ in rejects]) == (2, [1])
        assert rejects[0][1].startswith(f"invalid JSON: {reason}")
        assert [r.timestamp for r in RecordStore(tmp_path).query(StoreQuery("ping"))] == [1, 2]

    @pytest.mark.parametrize("line, reason", UNPARSED)
    def test_an_array_json_loads_cannot_parse_is_rejected_whole(self, tmp_path, line, reason):
        with RecordStore(tmp_path) as store:
            accepted, rejects = store.import_json(io.StringIO(
                "[" + serialize_line(ping(ts=1)) + "," + line + "]"))
        assert (accepted, [i for i, _ in rejects]) == (0, [0])
        assert rejects[0][1].startswith(f"invalid JSON array: {reason}")
        assert RecordStore(tmp_path).count() == 0

    @pytest.mark.parametrize("line, reason", UNPARSED)
    def test_a_line_json_loads_cannot_parse_fails_reads_of_its_segment(self, tmp_path, line,
                                                                      reason):
        segment = tmp_path / "ping-1.ndjson"
        segment.write_text(serialize_line(ping(ts=1)) + line)
        for read in _reads_of_pings(RecordStore(tmp_path)):
            with pytest.raises(StoreError, match=re.escape(
                    f"{segment}:2: invalid JSON: {reason}")):
                read()


def _reads_of_pings(store):
    return (lambda: store.count("ping"), lambda: store.query(StoreQuery("ping")),
            lambda: store.export(io.StringIO()))


def _one_timestamp_in_three_segments(path):
    """3000 pings at one timestamp, sealed 1000 to a segment."""
    with RecordStore(path, segment_records=1000) as store:
        for i in range(3000):
            store.append(ping(ts=42, rtt=i))
    assert sorted(p.name for p in path.iterdir()) == [
        ".lock", "ping-1.col", "ping-2.col", "ping-3.col"]
    reopened = RecordStore(path)
    assert reopened.count("ping") == 3000
    assert [r.rtt for r in reopened.query(StoreQuery("ping"))] == list(range(3000))
    dump = io.StringIO()
    reopened.export(dump)
    assert dump.getvalue() == "".join(serialize_line(ping(ts=42, rtt=i)) for i in range(3000))


class TestSegments:
    def test_segments_with_equal_names_are_all_kept(self, tmp_path):
        _one_timestamp_in_three_segments(tmp_path)

    def test_without_hard_links_sealing_still_never_replaces(self, tmp_path, monkeypatch):
        def no_links(src, dst):
            raise PermissionError(1, "Operation not permitted")

        monkeypatch.setattr(os, "link", no_links)
        _one_timestamp_in_three_segments(tmp_path)

    def test_dump_imported_twice_is_held_twice(self, tmp_path):
        lines = [serialize_line(ping(ts=t, rtt=t)) for t in range(1, 101)]
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
        # segments ping-1 (10, 20), ping-2 (5, 10), ping-3 (10, open until close)
        assert [r.rtt for r in within] == [3, 1, 4, 5, 2]
        assert RecordStore(tmp_path).query(StoreQuery("ping")) == within

    def test_ties_across_segments_export_in_append_order(self, tmp_path):
        appended = [ping(ts=ts, rtt=i) for i, ts in enumerate((10, 20, 5, 10))]
        expected = "".join(serialize_line(appended[i]) for i in (2, 0, 3, 1))
        with RecordStore(tmp_path, segment_records=2) as store:
            for record in appended:
                store.append(record)
            within = io.StringIO()
            store.export(within)
        after = io.StringIO()
        RecordStore(tmp_path).export(after)
        assert within.getvalue() == after.getvalue() == expected

    def test_a_reader_whose_listed_ndjson_is_gone_reads_its_columnar_twin(
            self, tmp_path, monkeypatch):
        writer = RecordStore(tmp_path)
        for ts in (5, 6):
            writer.append(ping(ts=ts))
        reader = RecordStore(tmp_path)
        scan = reader._scan

        def scan_then_seal(kind=None):
            listed = scan(kind)
            writer.close()  # writes ping-1.col and unlinks ping-1.ndjson
            return listed

        monkeypatch.setattr(reader, "_scan", scan_then_seal)
        assert [p.name for p in tmp_path.glob("ping-*")] == ["ping-1.ndjson"]
        assert reader.query(StoreQuery("ping")) == [ping(ts=5), ping(ts=6)]
        assert [p.name for p in tmp_path.glob("ping-*")] == ["ping-1.col"]

    @pytest.mark.parametrize("cut", [30, -1], ids=["torn", "no-newline"])
    def test_recovery_truncates_a_torn_last_line(self, tmp_path, caplog, cut):
        kept = serialize_line(ping(ts=5)) + serialize_line(ping(ts=6))
        last = serialize_line(ping(ts=7))[:cut]
        (tmp_path / "ping-1.ndjson").write_text(kept + last)
        # a reader reads what recovery keeps and leaves the file as it is
        assert RecordStore(tmp_path).query(StoreQuery("ping")) == \
            [ping(ts=5), ping(ts=6)] + ([ping(ts=7)] if cut == -1 else [])
        assert (tmp_path / "ping-1.ndjson").read_text() == kept + last
        with caplog.at_level("WARNING", logger="contrace.records"):
            with RecordStore(tmp_path) as writer:
                writer.append(run(ts=100))
        store = RecordStore(tmp_path)
        dump = io.StringIO()
        store.export(dump)
        if cut == -1:  # a whole record without its newline is kept
            assert [p.name for p in tmp_path.glob("ping-*")] == ["ping-1.col"]
            assert store.count("ping") == 3
            assert "torn" not in caplog.text
            assert dump.getvalue() == \
                kept + last + "\n" + serialize_line(run(ts=100))
        else:
            assert [p.name for p in tmp_path.glob("ping-*")] == ["ping-1.col"]
            assert dump.getvalue() == kept + serialize_line(run(ts=100))
            assert f"dropped a torn last line of {len(last)} bytes" in caplog.text
            assert store.query(StoreQuery("ping")) == [ping(ts=5), ping(ts=6)]

    WHOLE = serialize_line(ping(ts=7)).rstrip("\n")  # a record without its newline

    @pytest.mark.parametrize("tail, sealed, held", [
        ("", False, 2), (WHOLE[:30], False, 2), (WHOLE, False, 3), ("   ", False, 2),
        ("\n\n \n", False, 2), (WHOLE, True, 3)],
        ids=["none", "torn", "no-newline", "spaces", "blank-lines", "columnar-twin"])
    def test_a_crashed_writers_segment_reads_the_same_before_and_after_recovery(
            self, tmp_path, tail, sealed, held):
        """Reads and a writer's recovery end an open segment by one rule, so
        export and count do not change when a writer recovers the store.
        columnar-twin: a seal cut between renaming the columnar file and
        unlinking the NDJSON."""
        segment = tmp_path / "ping-1.ndjson"
        segment.write_text(serialize_line(ping(ts=5)) + serialize_line(ping(ts=6)) + tail)
        if sealed:
            with RecordStore(tmp_path / "twin") as twin:
                for ts in (5, 6, 7):
                    twin.append(ping(ts=ts))
            os.rename(tmp_path / "twin" / "ping-1.col", tmp_path / "ping-1.col")
            shutil.rmtree(tmp_path / "twin")
        before = RecordStore(tmp_path)
        exported, count = io.StringIO(), before.count()
        before.export(exported)
        assert count == held
        with RecordStore(tmp_path) as writer:
            writer.append(run(ts=100))
        assert not list(tmp_path.glob("*.ndjson"))
        after = RecordStore(tmp_path)
        dump, run_line = io.StringIO(), serialize_line(run(ts=100))
        after.export(dump)
        assert dump.getvalue() == exported.getvalue() + run_line
        assert after.count("ping") == count

    TWO = serialize_line(ping(ts=5)) + serialize_line(ping(ts=6))

    @pytest.mark.parametrize("text, bad", [
        (TWO + "{not json}\n", 3), (TWO + '{"timestamp":7}', 3),
        (serialize_line(ping(ts=5)) + "{not json}\n" + serialize_line(ping(ts=6)), 2),
        (TWO.replace("\n", "\x0b", 1), 1), ("\x1c" + TWO, 1),
        (TWO.replace("\n", "\u2028", 1), 1), (TWO + "\xa0\n", 3)],
        ids=["last-not-json", "last-json-without-newline", "earlier-not-json",
             "two-records-split-by-a-vertical-tab", "a-record-after-a-file-separator",
             "two-records-split-by-a-line-separator", "last-a-no-break-space"])
    def test_a_bad_line_of_an_open_segment_fails_reads_and_stays_ndjson(
            self, tmp_path, caplog, text, bad):
        """A bad line, the last one or not, fails every read of its kind. A
        writer's recovery leaves the segment NDJSON with a warning, and goes
        on."""
        segment = tmp_path / "ping-1.ndjson"
        segment.write_text(text)
        store = RecordStore(tmp_path)
        for read in _reads_of_pings(store):
            with pytest.raises(StoreError, match=re.escape(f"{segment}:{bad}: ")):
                read()
        with caplog.at_level("WARNING"):
            with RecordStore(tmp_path) as writer:
                writer.append(run(ts=100))
        kept = tmp_path / "ping-1.ndjson"
        assert f"{kept} stays NDJSON" in caplog.text
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            ".lock", kept.name, "traceroute-2.col"]
        assert kept.read_text() == text
        assert store.query(StoreQuery("traceroute")) == [run(ts=100)]
        for read in _reads_of_pings(store):
            with pytest.raises(StoreError, match=re.escape(f"{kept}:{bad}: ")):
                read()

    @pytest.mark.parametrize("text", [
        "\r" + TWO, TWO.replace("\n", "\r\n"), "\n \t\x0b\x0c\r\n" + TWO],
        ids=["a-leading-carriage-return", "crlf-lines", "blank-lines-of-ascii-whitespace"])
    def test_a_segment_line_is_decoded_whole(self, tmp_path, text):
        """A segment line is the text up to a "\\n": JSON whitespace around
        its record is read with it, and a line of ASCII whitespace only is
        blank. A writer's recovery seals the segment with both records."""
        (tmp_path / "ping-1.ndjson").write_text(text)
        store = RecordStore(tmp_path)
        assert store.query(StoreQuery("ping")) == [ping(ts=5), ping(ts=6)]
        with RecordStore(tmp_path) as writer:
            writer.append(run(ts=100))
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            ".lock", "ping-1.col", "traceroute-2.col"]
        assert store.query(StoreQuery("ping")) == [ping(ts=5), ping(ts=6)]

    @pytest.mark.parametrize("writer", ["append", "import_json", "extend"])
    def test_close_after_a_failed_first_write_leaves_the_store_readable(
            self, tmp_path, monkeypatch, writer):
        """The first write of an append, of an import whose five lines go in
        one batch, or of an extend of those five records and a traceroute
        run, writes half its data and fails. extend fails at the switch to
        the traceroute run, and its run was let go before the write, so no
        record is stored twice and the traceroute run is not stored. A
        reader before close(), the store after close(), and a writer that
        recovers a copy of the files taken before close() all read the
        records whose lines reached the file whole: the half line is a torn
        tail. So they do when the store writes once more before close(), by
        append or by import_json, and read that record as well: a failed
        write ends its segment, so the next line is never glued to the torn
        bytes."""
        write = os.write

        def disk_full(fd, data):
            write(fd, data[:len(data) // 2])
            raise OSError(28, "No space left on device")

        def failed(path):
            """A store at path whose write failed, and the records whose
            lines reached the file."""
            store = RecordStore(path)
            if writer == "append":
                stored = []
                fail = lambda: store.append(ping(ts=5))
            else:
                store.append(ping(ts=1))  # the lines' shape is known: they are one batch
                stored = [ping(ts=1), ping(ts=2), ping(ts=3)]  # and half of ts=4
                text = "".join(serialize_line(ping(ts=ts)) for ts in range(2, 7))
                fail = lambda: store.import_json(io.StringIO(text)) if writer == "import_json" \
                    else store.extend([ping(ts=ts) for ts in range(2, 7)] + [run(ts=7)])
            with monkeypatch.context() as patch:
                patch.setattr(os, "write", disk_full)
                with pytest.raises(OSError, match="No space left"):
                    fail()
            return store, stored

        path, crashed = tmp_path / "store", tmp_path / "crashed"
        store, stored = failed(path)
        assert RecordStore(path).query(StoreQuery("ping")) == stored
        shutil.copytree(path, crashed)
        store.close()
        assert RecordStore(path).query(StoreQuery("ping")) == stored
        for directory in (path, crashed):
            with RecordStore(directory) as later:
                later.append(ping(ts=7))
            assert RecordStore(directory).query(StoreQuery("ping")) == stored + [ping(ts=7)]
        assert _segment_files(crashed) == _segment_files(path)
        assert sorted(_segment_files(path)) == ["ping-1.col"] * bool(stored) + ["ping-2.col"]

        for again in ("append", "import_json"):
            path, crashed = tmp_path / again, tmp_path / f"{again}-crashed"
            store, stored = failed(path)
            if again == "append":
                store.append(ping(ts=8))
            else:
                assert store.import_json(io.StringIO(serialize_line(ping(ts=8)))) == (1, [])
            stored.append(ping(ts=8))
            assert RecordStore(path).query(StoreQuery("ping")) == stored
            shutil.copytree(path, crashed)
            store.close()
            assert RecordStore(path).query(StoreQuery("ping")) == stored
            for directory in (path, crashed):
                with RecordStore(directory) as later:  # recovers the files
                    later.append(ping(ts=9))
                assert RecordStore(directory).query(StoreQuery("ping")) == stored + [ping(ts=9)]
            assert _segment_files(crashed) == _segment_files(path)
            assert sorted(_segment_files(path)) == (
                ["ping-1.col"] * (len(stored) > 1) + ["ping-2.col", "ping-3.col"])

    @pytest.mark.parametrize("writer", ["append", "extend", "import_json"])
    def test_a_failed_write_names_its_segment_file(self, tmp_path, monkeypatch, writer):
        """An os.write that fails with EFBIG, whose OSError names no file,
        is raised again naming the segment's file, with the same errno and
        so the same OSError class."""
        def too_large(fd, data):
            raise OSError(errno.EFBIG, os.strerror(errno.EFBIG))

        store = RecordStore(tmp_path)
        write = {"append": lambda: store.append(ping(ts=1)),
                 "extend": lambda: store.extend([ping(ts=1), ping(ts=2)]),
                 "import_json": lambda: store.import_json([serialize_line(ping(ts=1))])}
        with monkeypatch.context() as patch:
            patch.setattr(os, "write", too_large)
            with pytest.raises(OSError) as info:
                write[writer]()
        store.close()
        segment = tmp_path / "ping-1.ndjson"
        assert type(info.value) is OSError and info.value.errno == errno.EFBIG
        assert info.value.filename == str(segment)
        assert str(info.value) == f"[Errno {errno.EFBIG}] File too large: {str(segment)!r}"

    def test_ping_line_in_a_traceroute_segment_fails_traceroute_reads(self, tmp_path):
        segment = tmp_path / "traceroute-1.ndjson"
        write_old_segment(segment, [run(ts=5), ping(ts=7)])
        write_old_segment(tmp_path / "ping-2.ndjson", [ping(ts=6)])
        store = RecordStore(tmp_path)
        with pytest.raises(StoreError, match=re.escape(
                f"{segment}:2: a ping record in a traceroute segment")):
            store.query(StoreQuery("traceroute"))
        assert store.query(StoreQuery("ping")) == [ping(ts=6)]
        with RecordStore(tmp_path) as writer:  # converts only the good segment
            writer.append(ping(ts=8))
        with pytest.raises(StoreError, match=re.escape(
                f"{segment}:2: a ping record in a traceroute segment")):
            store.query(StoreQuery("traceroute"))
        assert store.query(StoreQuery("ping")) == [ping(ts=6), ping(ts=8)]

    def test_corrupt_ping_line_fails_only_reads_of_pings(self, tmp_path):
        with RecordStore(tmp_path) as store:
            store.append(run(ts=6))
        segment = tmp_path / "ping-2.ndjson"
        write_old_segment(segment, [ping(ts=5)])
        with segment.open("a") as fp:
            fp.write("\n{not json}\n")
        store = RecordStore(tmp_path)  # opening reads no records
        assert store.query(StoreQuery("traceroute")) == [run(ts=6)]
        for read in _reads_of_pings(store):
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

@st.composite
def _appends(draw):
    """(segment_records, records in append order): pings and runs of two
    pairs at a few timestamps, so ties cross segments both ways."""
    records_ = []
    for i in range(draw(st.integers(1, 16))):
        ts, dst = draw(st.integers(1, 3)), draw(st.sampled_from(["10.1.0.1", "10.1.0.2"]))
        records_.append(ping(ts=ts, dst=dst, rtt=i) if draw(st.booleans())
                        else run(ts=ts, dst=dst, rnd=i))
    return draw(st.integers(1, 4)), records_


def _export(path):
    out = io.StringIO()
    RecordStore(path).export(out)
    return out.getvalue()


@settings(max_examples=100, deadline=None)
@given(drawn=_appends())
def test_export_keeps_append_order_among_equal_timestamps(drawn):
    """Records export by timestamp, pings first, then in append order:
    within the writing process, after a reopen, and from a copy taken while
    the writer is open, before and after a writer recovers that copy."""
    segment_records, appended = drawn
    expected = "".join(map(serialize_line, sorted(
        appended, key=lambda r: (r.timestamp, isinstance(r, TracerouteRun)))))
    later = ping(ts=4)
    with tempfile.TemporaryDirectory() as directory:
        store, copy = Path(directory) / "store", Path(directory) / "copy"
        with RecordStore(store, segment_records=segment_records) as writer:
            for record in appended:
                writer.append(record)
            within = io.StringIO()
            writer.export(within)
            shutil.copytree(store, copy)
        assert within.getvalue() == _export(store) == _export(copy) == expected
        with RecordStore(copy, segment_records=segment_records) as recovering:
            recovering.append(later)
        assert not list(copy.glob("*.ndjson"))
        assert _export(copy) == expected + serialize_line(later)


# pairs of one family, canonical and not
_PAIRS = [("10.0.0.1", "10.1.0.1"), ("10.0.0.2", "10.1.0.1"), ("2001:db8::1", "2001:db8::2"),
          ("2001:DB8::1", "2001:db8:0::2")]
_MIXED = ("10.0.0.1", "2001:db8::2")
_INVALID_PINGS = {
    "bool-timestamp": PingRecord(True, "10.0.0.1", "10.1.0.1", 255, 5),
    "float-timestamp": PingRecord(1.0, "10.0.0.1", "10.1.0.1", 255, 5),
    "zero-timestamp": PingRecord(0, "10.0.0.1", "10.1.0.1", 255, 5),
    "rtt-on-timeout": PingRecord(1, "10.0.0.1", "10.1.0.1", 0, 5),
    "no-rtt-on-reply": PingRecord(1, "10.0.0.1", "10.1.0.1", 255, None),
    "mixed-families": PingRecord(1, *_MIXED, 0, None),
    "unknown-status": PingRecord(1, "10.0.0.1", "10.1.0.1", 7, None),
    "bool-rtt": PingRecord(1, "10.0.0.1", "10.1.0.1", 255, True),
    "negative-rtt": PingRecord(1, "10.0.0.1", "10.1.0.1", 255, -1),
    "bad-address": PingRecord(1, "010.0.0.1", "10.1.0.1", 0, None),
}


@st.composite
def _mixed_records(draw):
    """(segment_records, records): valid pings of statuses 0, 1 and 255,
    v4 and v6, canonical and not, mixed with invalid pings and traceroute
    runs, at timestamps that tie and go back."""
    records_ = []
    for i in range(draw(st.integers(0, 40))):
        ts = draw(st.integers(1, 6))
        choice = draw(st.integers(0, 9))
        if choice < 7:
            status = draw(st.sampled_from([0, 1, 255]))
            records_.append(PingRecord(ts, *draw(st.sampled_from(_PAIRS)), status,
                                       draw(st.integers(0, 2**40)) if status == 255 else None))
        elif choice == 7:
            records_.append(draw(st.sampled_from(list(_INVALID_PINGS.values()))))
        else:
            records_.append(run(ts=ts, dst=draw(st.sampled_from(["10.1.0.1", "10.1.0.2"])),
                                rnd=i))
    return draw(st.sampled_from([1, 2, 3, 5, 64])), records_


@settings(max_examples=200, deadline=None)
@given(drawn=_mixed_records())
def test_extend_of_ping_runs_by_column_equals_appending_one_at_a_time(drawn):
    """extend, which checks and encodes each maximal run of valid pings a
    column at a time, leaves the files, the written counts and the error
    (class and message) of appending the records one at a time, so also the
    records before the error and the seals. The fast check passes a run of
    pings only if validated returns each of them unchanged."""
    segment_records, records_ = drawn
    for is_ping, group in itertools.groupby(records_, lambda r: type(r) is PingRecord):
        pings = list(group)
        if is_ping and records.checked_pings(pings) is not None:
            assert list(map(records.validated, pings)) == pings
    outcomes = []
    with tempfile.TemporaryDirectory() as directory:
        for way in ("extend", "append"):
            path = Path(directory) / way
            with RecordStore(path, segment_records=segment_records) as store:
                try:
                    if way == "extend":
                        store.extend(records_)
                    else:
                        for record in records_:
                            store.append(record)
                except InvalidRecord as exc:
                    error = str(exc)
                else:
                    error = None
                written = dict(store.written)
            outcomes.append((error, written, _segment_files(path) if path.exists() else {}))
    assert outcomes[0] == outcomes[1]


@st.composite
def _import_documents(draw):
    """Documents valid, invalid and not objects (mutated_documents), and
    non-canonical ones: valid, with their keys reversed. Each is a line of
    NDJSON, compact or spaced as json.dumps spaces it."""
    documents = draw(st.lists(st.one_of(
        valid_documents(), mutated_documents(),
        valid_documents().map(lambda doc: dict(reversed(doc.items())))), max_size=30))
    spacings = draw(st.lists(st.sampled_from([(",", ":"), None]), min_size=len(documents),
                             max_size=len(documents)))
    return documents, "".join(json.dumps(document, separators=spacing) + "\n"
                              for document, spacing in zip(documents, spacings))


@settings(max_examples=150, deadline=None)
@given(drawn=_import_documents(), segment_records=st.sampled_from([1, 2, 3, 64]))
def test_array_import_equals_ndjson_import_of_the_same_documents(drawn, segment_records):
    """An array's documents are stored as the NDJSON lines of its compact
    documents are: the same (accepted, rejects), indexed by position, and
    byte-identical segment files. (Input whose first line is an array is
    read as one array, so it is no NDJSON of its documents.)"""
    documents, ndjson = drawn
    assume(not ndjson.startswith("["))
    outcomes = []
    with tempfile.TemporaryDirectory() as directory:
        for way, text in (("ndjson", ndjson), ("array", json.dumps(documents))):
            path = Path(directory) / way
            with RecordStore(path, segment_records=segment_records) as store:
                outcome = store.import_json(io.StringIO(text))
            outcomes.append((outcome, _segment_files(path) if path.exists() else {}))
    assert outcomes[0] == outcomes[1]


def test_only_a_run_writes_and_only_add_grows_a_run():
    """In the package, RecordStore._write is called only by _Run.end, and
    a run's _rows is appended to or extended only by _Run.add, the one
    place a row joins a run and a run is cut at segment_records. A name
    bound to a _rows counts as that _rows."""
    import ast
    package = Path(records.__file__).resolve().parent
    writers, growers = set(), set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [(f"{path.stem}.{node.name}", node) for node in tree.body
                     if isinstance(node, ast.FunctionDef)]
        functions += [(f"{path.stem}.{cls.name}.{node.name}", node) for cls in tree.body
                      if isinstance(cls, ast.ClassDef) for node in cls.body
                      if isinstance(node, ast.FunctionDef)]
        for name, function in functions:
            aliases = set()
            for node in ast.walk(function):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        pairs = zip(target.elts, node.value.elts) \
                            if isinstance(target, ast.Tuple) \
                            and isinstance(node.value, ast.Tuple) else [(target, node.value)]
                        aliases.update(t.id for t, value in pairs if isinstance(t, ast.Name)
                                       and getattr(value, "attr", None) == "_rows")

            def is_rows(node):
                return getattr(node, "attr", None) == "_rows" or \
                    isinstance(node, ast.Name) and node.id in aliases

            for node in ast.walk(function):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    if node.func.attr == "_write":
                        writers.add(name)
                    if node.func.attr in ("append", "extend", "insert") \
                            and is_rows(node.func.value):
                        growers.add(name)
                elif isinstance(node, ast.AugAssign) and is_rows(node.target):
                    growers.add(name)
    assert writers == {"store._Run.end"}
    assert growers == {"store._Run.add"}


def test_the_fast_ping_check_passes_valid_canonical_pings_alone():
    """checked_pings passes runs of valid pings with canonical addresses,
    of either family and every status, and nothing else. Its pairs hold
    the canonical strings that validated gives, whatever string type and
    object the records hold."""
    address = type("Address", (str,), {})
    valid = [ping(ts=1), ping(ts=2, status=0), ping(ts=3, status=1),
             ping(ts=4, src="2001:db8::1", dst="2001:db8::2", rtt=0),
             ping(ts=5, src=address("10.0.0.1"), dst="".join(["10.1", ".0.1"]))]
    pairs, *columns = records.checked_pings(valid)
    assert (pairs, *columns) == (
        [(p.source, p.destination) for p in valid], (1, 2, 3, 4, 5), (255, 0, 1, 255, 255),
        (10_000, None, None, 0, 10_000))
    assert [tuple(map(type, pair)) for pair in pairs] == [(str, str)] * 5
    assert all(x is y for pair, p in zip(pairs, valid)
               for x, y in zip(pair, records.validated(p)[1:3]))
    others = {**_INVALID_PINGS,
              "non-canonical": ping(src="2001:DB8::1", dst="2001:db8::2"),
              "not-a-string": ping(src=167772161),
              "unhashable": ping(src=["10.0.0.1"])}
    for name, record in others.items():
        assert records.checked_pings(valid + [record]) is None, name


def test_store_query_validates_range():
    with pytest.raises(ValueError):
        StoreQuery("ping", start=5, end=5)
    with pytest.raises(ValueError):
        StoreQuery("bogus")
