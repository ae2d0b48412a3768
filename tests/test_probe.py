import heapq
import math
import re

import pytest

from contrace import icmp
from contrace.icmp import Family
from contrace.probe import (PING_TTL, ProbeSchedule, RelationKey, SourceWorker,
                            TransportFailure, run_relation_worker)
from contrace.records import PingRecord, TracerouteRun
from contrace.sim import (SimNetwork, SimTransport, VirtualClock, drive_workers,
                          run_scenario, topology_from_dict)

from conftest import (START_US, BlockingSimTransport, ecmp4_topology, linear_topology,
                      ping_once, relation_for, traceroute_once)


def _setup(topology, source="10.0.0.1"):
    net = SimNetwork(topology)
    clock = VirtualClock(topology.start_us)
    return net, clock, BlockingSimTransport(net, clock, source)


class TestRunPingOnce:
    def test_rtt_is_twice_one_way_latency(self):
        # one-way 5000 us -> rtt exactly 10000 us on the virtual clock
        topo = linear_topology(2, [1500, 2000, 1500])
        record, _ = ping_once(topo, relation_for(topo))
        assert record.status == 255
        assert record.rtt == 10_000

    def test_silent_destination_times_out(self):
        topo = linear_topology(2, policies={"dst": "silent"})
        record, clock = ping_once(topo, relation_for(topo), reply_timeout_s=1.0)
        assert record.status == 0
        assert record.rtt is None
        assert clock.now_us() == START_US + 1_000_000

    def test_normal_reply_status_255(self):
        topo = linear_topology(1)
        record, _ = ping_once(topo, relation_for(topo))
        assert record.status == 255

    def test_ttl_too_small_reports_time_exceeded(self):
        # pings go out with PING_TTL, so the chain must be longer than that
        topo = linear_topology(PING_TTL + 1)
        record, _ = ping_once(topo, relation_for(topo))
        assert record.status == 1
        assert record.rtt is None


class TestRunTraceroute:
    def test_five_hop_path_statuses(self):
        topo = linear_topology(4)  # 4 routers + destination = 5 hops
        net, clock, transport = _setup(topo)
        schedule = ProbeSchedule(max_ttl=20, reply_timeout_s=2.0)
        run = traceroute_once(relation_for(topo), schedule, transport, clock)
        assert [h.status for h in run.hops] == [1, 1, 1, 1, 255]
        assert [h.hop for h in run.hops] == [1, 2, 3, 4, 5]
        assert run.hops[-1].address == topo.routers["dst"].address

    def test_rate_limited_router_leaves_gap(self):
        topo = linear_topology(4, policies={"r3": {"rate_limit": 0}})
        net, clock, transport = _setup(topo)
        schedule = ProbeSchedule(max_ttl=20, reply_timeout_s=2.0)
        run = traceroute_once(relation_for(topo), schedule, transport, clock)
        assert [h.status for h in run.hops] == [1, 1, 0, 1, 255]
        assert run.hops[2].address is None

    def test_unreachable_destination_records_all_ttls(self):
        topo = linear_topology(2, policies={"dst": "silent"})
        net, clock, transport = _setup(topo)
        schedule = ProbeSchedule(max_ttl=6, reply_timeout_s=1.0)
        run = traceroute_once(relation_for(topo), schedule, transport, clock)
        assert len(run.hops) == 6
        assert [h.status for h in run.hops] == [1, 1, 0, 0, 0, 0]

    def test_hop_rtts_accumulate(self):
        topo = linear_topology(2, [1000, 2000, 3000])
        net, clock, transport = _setup(topo)
        schedule = ProbeSchedule(max_ttl=5, reply_timeout_s=2.0)
        run = traceroute_once(relation_for(topo), schedule, transport, clock)
        assert [h.rtt for h in run.hops] == [2000, 6000, 12000]

    def test_burst_send_timestamps_do_not_wait(self, sent_probes):
        topo = linear_topology(2)
        net, clock, transport = _setup(topo)
        schedule = ProbeSchedule(max_ttl=10, reply_timeout_s=2.0)
        traceroute_once(relation_for(topo), schedule, transport, clock)
        times = [t_us for t_us, _, _ in sent_probes]
        assert len(times) == 10
        assert max(times) - min(times) < schedule.reply_timeout_us

    def test_crafted_run_shares_prefix(self, sent_probes):
        topo = ecmp4_topology()
        net, clock, transport = _setup(topo)
        schedule = ProbeSchedule(max_ttl=10, reply_timeout_s=2.0)
        traceroute_once(relation_for(topo), schedule, transport, clock)
        prefixes = {data[:4] for _, _, data in sent_probes}
        assert len(sent_probes) == 10
        assert len(prefixes) == 1


def _branches(run):
    """Branch ids of the ECMP fixture hops (addresses 10.3.<branch>.<pos>)."""
    out = set()
    for hop in run.hops:
        if hop.address and hop.address.startswith("10.3."):
            out.add(int(hop.address.split(".")[2]))
    return out


class TestEcmpPathInvariance:
    def test_crafted_runs_take_single_paths(self):
        topo = ecmp4_topology()
        relation = relation_for(topo)
        schedule = ProbeSchedule(traceroute_interval_s=10.0, traceroute_rounds=1,
                                 max_ttl=10, reply_timeout_s=1.0)
        records = []
        run_scenario(topo, [relation], schedule, 1000, seed=42, sink=records)
        runs = [r for r in records if isinstance(r, TracerouteRun)]
        assert len(runs) == 100
        assert all(len(_branches(r)) == 1 for r in runs)
        # different runs do spread over branches
        assert len(set(frozenset(_branches(r)) for r in runs)) >= 2

    def test_uncrafted_runs_mix_paths(self):
        topo = ecmp4_topology()
        relation = relation_for(topo)
        schedule = ProbeSchedule(traceroute_interval_s=10.0, traceroute_rounds=1,
                                 max_ttl=10, reply_timeout_s=1.0,
                                 craft_constant_checksum=False)
        records = []
        run_scenario(topo, [relation], schedule, 1000, seed=42, sink=records)
        runs = [r for r in records if isinstance(r, TracerouteRun)]
        assert len(runs) == 100
        assert any(len(_branches(r)) > 1 for r in runs)


class TestSourceWorker:
    def test_ping_bursts_every_interval(self):
        # 2 destinations, 10 simulated seconds -> 20 ping records in bursts
        doc = {
            "start_time": START_US,
            "routers": {
                "src": {"address": "10.0.0.1"},
                "d1": {"address": "10.1.0.1"},
                "d2": {"address": "10.2.0.1"},
            },
            "links": [
                {"from": "src", "to": "d1", "latency_us": 1000},
                {"from": "src", "to": "d2", "latency_us": 2000},
            ],
            "ecmp": {"src": {"d1": ["d1"], "d2": ["d2"]}},
        }
        topo = topology_from_dict(doc)
        relations = [
            RelationKey(Family.V4, "S", "D1", "10.0.0.1", "10.1.0.1"),
            RelationKey(Family.V4, "S", "D2", "10.0.0.1", "10.2.0.1"),
        ]
        schedule = ProbeSchedule(traceroute_interval_s=3600.0)
        records = []
        run_scenario(topo, relations, schedule, 10, seed=1, sink=records)
        pings = [r for r in records if isinstance(r, PingRecord)]
        assert len(pings) == 20
        ticks = sorted({p.timestamp for p in pings})
        assert ticks == [START_US + k * 1_000_000 for k in range(10)]
        for tick in ticks:
            assert {p.destination for p in pings if p.timestamp == tick} == \
                {"10.1.0.1", "10.2.0.1"}

    def test_traceroute_destinations_probed_sequentially(self):
        doc = {
            "start_time": START_US,
            "routers": {
                "src": {"address": "10.0.0.1"},
                "r": {"address": "10.9.0.1"},
                "d1": {"address": "10.1.0.1"},
                "d2": {"address": "10.2.0.1"},
            },
            "links": [
                {"from": "src", "to": "r", "latency_us": 1000},
                {"from": "r", "to": "d1", "latency_us": 1000},
                {"from": "r", "to": "d2", "latency_us": 1000},
            ],
            "ecmp": {"r": {"d1": ["d1"], "d2": ["d2"]}},
        }
        topo = topology_from_dict(doc)
        relations = [
            RelationKey(Family.V4, "S", "D1", "10.0.0.1", "10.1.0.1"),
            RelationKey(Family.V4, "S", "D2", "10.0.0.1", "10.2.0.1"),
        ]
        schedule = ProbeSchedule(ping_interval_s=3600.0, traceroute_interval_s=300.0,
                                 traceroute_rounds=3, max_ttl=5, reply_timeout_s=1.0)
        records = []
        run_scenario(topo, relations, schedule, 290, seed=3, sink=records)
        runs = [r for r in records if isinstance(r, TracerouteRun)]
        assert len(runs) == 6  # one cycle, 3 rounds x 2 destinations
        d1_runs = [r for r in runs if r.destination == "10.1.0.1"]
        d2_runs = [r for r in runs if r.destination == "10.2.0.1"]
        assert [r.round for r in d1_runs] == [0, 1, 2]
        # destination 2's first burst starts only after destination 1 finished
        assert min(r.timestamp for r in d2_runs) > max(r.timestamp for r in d1_runs)

    def test_workers_independent_under_stall(self):
        doc = {
            "start_time": START_US,
            "routers": {
                "s1": {"address": "10.0.1.1"},
                "s2": {"address": "10.0.2.1"},
                "d": {"address": "10.9.0.1"},
            },
            "links": [
                {"from": "s1", "to": "d", "latency_us": 1000},
                {"from": "s2", "to": "d", "latency_us": 1000},
            ],
        }
        topo = topology_from_dict(doc)
        net = SimNetwork(topo)
        clock = VirtualClock(START_US)
        schedule = ProbeSchedule(traceroute_interval_s=3600.0, reply_timeout_s=0.5)
        sink1, sink2 = [], []
        t1 = SimTransport(net, clock, "10.0.1.1")
        t2 = SimTransport(net, clock, "10.0.2.1")
        failures_left = [3]

        def failing_depart(ttl, destination):  # every probe departs, table pings too
            if failures_left[0]:  # stall worker 1 at startup
                failures_left[0] -= 1
                raise TransportFailure("injected send failure")

        t1.depart = failing_depart
        end = START_US + 10_000_000
        w1 = SourceWorker([RelationKey(Family.V4, "A", "D", "10.0.1.1", "10.9.0.1")],
                          schedule, lambda: t1, sink1,
                          start_us=START_US, end_us=end, seed=1)
        w2 = SourceWorker([RelationKey(Family.V4, "B", "D", "10.0.2.1", "10.9.0.1")],
                          schedule, lambda: t2, sink2,
                          start_us=START_US, end_us=end, seed=1)
        drive_workers([w1, w2], [t1, t2], clock)
        # worker 2 ran its full schedule despite worker 1's stall
        assert len(sink2) == 10
        assert all(r.status == 255 for r in sink2)
        # worker 1 recovered after backoff and produced some records
        assert 0 < len(sink1) < 10

    def test_duplicate_replies_update_nothing(self):
        topo = linear_topology(2)
        net = SimNetwork(topo)
        clock = VirtualClock(START_US)

        class DuplicatingTransport(SimTransport):
            def ping(self, prefix, destination, timeout_us):  # by reply bytes, duplicated
                return None

            def send(self, data, ttl, destination):
                t = super().send(data, ttl, destination)
                if self._inbox:
                    arrival, _, payload, responder = self._inbox[0]
                    heapq.heappush(self._inbox,
                                   (arrival, next(self._counter), payload, responder))
                return t

        transport = DuplicatingTransport(net, clock, "10.0.0.1")
        relation = relation_for(topo)
        schedule = ProbeSchedule(traceroute_interval_s=3600.0)
        sink = []
        end = START_US + 5_000_000
        worker = SourceWorker([relation], schedule, lambda: transport,
                              sink, start_us=START_US, end_us=end, seed=2)
        drive_workers([worker], [transport], clock)
        assert len(sink) == 5  # one record per tick despite duplicated replies

    def test_worker_requires_single_source(self):
        schedule = ProbeSchedule()
        relations = [
            RelationKey(Family.V4, "A", "D", "10.0.1.1", "10.9.0.1"),
            RelationKey(Family.V4, "B", "D", "10.0.2.1", "10.9.0.1"),
        ]
        with pytest.raises(ValueError):
            SourceWorker(relations, schedule, lambda: None, [],
                         start_us=0, end_us=1)


class TestIpv6EndToEnd:
    def test_v6_ping_and_traceroute(self, sent_probes):
        doc = {
            "start_time": START_US,
            "routers": {
                "src": {"address": "fd00:1::10"},
                "r1": {"address": "fd00:2::1"},
                "dst": {"address": "fd00:3::10"},
            },
            "links": [
                {"from": "src", "to": "r1", "latency_us": 1000},
                {"from": "r1", "to": "dst", "latency_us": 2000},
            ],
        }
        topo = topology_from_dict(doc)
        relation = RelationKey(Family.V6, "A", "B", "fd00:1::10", "fd00:3::10")
        record, _ = ping_once(topo, relation)
        assert record.status == 255
        assert record.rtt == 2 * 3000
        del sent_probes[:]
        net, clock, transport = _setup(topo, "fd00:1::10")
        schedule = ProbeSchedule(max_ttl=6, reply_timeout_s=1.0)
        run = traceroute_once(relation, schedule, transport, clock)
        assert [h.status for h in run.hops] == [1, 255]
        assert run.hops[0].address == "fd00:2::1"
        # the v6 run is checksum-pinned too: one constant 4-byte prefix
        assert len(sent_probes) == 6
        assert len({data[:4] for _, _, data in sent_probes}) == 1


class TestBlockingDriver:
    def test_run_relation_worker_single_source(self):
        topo = linear_topology(2)
        net = SimNetwork(topo)
        clock = VirtualClock(START_US)
        sink = []
        transport = BlockingSimTransport(net, clock, "10.0.0.1", sink)
        relation = relation_for(topo)
        schedule = ProbeSchedule(traceroute_interval_s=3600.0)
        worker = SourceWorker([relation], schedule, lambda: transport,
                              sink, start_us=START_US,
                              end_us=START_US + 3_000_000, seed=0)
        run_relation_worker(worker, clock)
        transport.hand_over()
        assert len([r for r in sink if isinstance(r, PingRecord)]) == 3

    def test_sim_transport_blocking_receive(self):
        topo = linear_topology(2, [1000, 2000, 2000])
        net = SimNetwork(topo)
        clock = VirtualClock(START_US)
        transport = BlockingSimTransport(net, clock, "10.0.0.1")
        data = icmp.make_request_bytes(Family.V4, 1, 1, START_US)
        transport.send(data, 10, topo.routers["dst"].address)
        got = transport.receive(START_US + 60_000_000)
        assert got is not None
        payload, responder, t_us = got
        assert t_us == START_US + 2 * 5000
        assert clock.now_us() == t_us

    def test_receive_timeout_advances_clock(self):
        topo = linear_topology(2)
        net = SimNetwork(topo)
        clock = VirtualClock(START_US)
        transport = BlockingSimTransport(net, clock, "10.0.0.1")
        assert transport.receive(START_US + 777) is None
        assert clock.now_us() == START_US + 777


class TestScheduleValidation:
    def test_bad_intervals(self):
        with pytest.raises(ValueError):
            ProbeSchedule(ping_interval_s=0)
        with pytest.raises(ValueError):
            ProbeSchedule(traceroute_rounds=0)
        with pytest.raises(ValueError):
            ProbeSchedule(max_ttl=0)
        with pytest.raises(ValueError):
            ProbeSchedule(max_ttl=256)

    @pytest.mark.parametrize("field, value, message", [
        ("ping_interval_s", 1e-9, "ping_interval_s must be at least 1 us"),
        ("traceroute_interval_s", 1e-9, "traceroute_interval_s must be at least 1 us"),
        ("reply_timeout_s", 4e-7, "reply_timeout_s must be at least 1 us"),
        ("traceroute_rounds", 2.5, "traceroute_rounds must be an integer, got 2.5"),
        ("max_ttl", 3.5, "max_ttl must be an integer, got 3.5"),
        ("max_ttl", True, "max_ttl must be an integer, got True"),
        ("reply_timeout_s", math.inf, "reply_timeout_s must be a finite number, got inf"),
        ("ping_interval_s", math.nan, "ping_interval_s must be a finite number, got nan"),
        ("jitter_fraction", math.nan, "jitter_fraction must be a finite number, got nan"),
        ("ping_interval_s", "1", "ping_interval_s must be a finite number, got '1'"),
        ("craft_constant_checksum", "false",
         "craft_constant_checksum must be true or false, got 'false'"),
    ])
    def test_a_schedule_the_engine_cannot_run_is_refused(self, field, value, message):
        """Durations are finite numbers that round to at least 1 us (0 us
        would never advance the clock), counts are integers and the
        checksum flag is a boolean; each fault names its field."""
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ProbeSchedule(**{field: value})

    def test_a_schedule_of_whole_numbers_and_one_microsecond_is_accepted(self):
        schedule = ProbeSchedule(ping_interval_s=1e-6, traceroute_interval_s=1,
                                 reply_timeout_s=6e-7, craft_constant_checksum=False)
        assert (schedule.ping_interval_us, schedule.traceroute_interval_us,
                schedule.reply_timeout_us) == (1, 1_000_000, 1)

    def test_relation_family_consistency(self):
        with pytest.raises(ValueError):
            RelationKey(Family.V4, "a", "b", "10.0.0.1", "2001:db8::1")
        with pytest.raises(ValueError):
            RelationKey(Family.V6, "a", "b", "10.0.0.1", "10.0.0.2")


def test_per_probe_tuples_are_exactly_their_classes(quick_schedule):
    """The per-probe path builds Outcome, DecodedMessage, _PendingPing and
    PingRecord by tuple.__new__, skipping the generated __new__; each is
    still exactly its class, with the fields, equality, hash and repr of the
    twin that its class builds from the same values."""
    from contrace.icmp import DecodedMessage
    from contrace.probe import _PendingPing
    from contrace.sim import Outcome

    def assert_twin(value, cls):
        assert type(value) is cls
        twin = cls(*value)
        assert twin._asdict() == value._asdict()
        assert twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)

    topology = linear_topology(2, policies={"dst": "silent"})
    network = SimNetwork(topology)
    request = icmp.make_request_bytes(Family.V4, 7, 1, START_US)
    outcomes = [network.forward(request, ttl, "src", "dst", START_US) for ttl in (1, 64)]
    outcomes.append(network.forward(request, 64, "dst", "src", START_US))
    assert [o.kind for o in outcomes] == ["time_exceeded", "delivered", "dropped"]
    for outcome in outcomes:
        assert_twin(outcome, Outcome)
    replies = [icmp.reply_bytes_for_request(request, Family.V4),
               icmp.encode_time_exceeded(request, Family.V4), bytes([3]) + bytes(7)]
    messages = [icmp.decode_message(reply, Family.V4) for reply in replies]
    assert [m.kind for m in messages] == [icmp.ECHO_REPLY, icmp.TIME_EXCEEDED, icmp.OTHER]
    for message in messages:
        assert_twin(message, DecodedMessage)

    # r2 answers pings from the table, which leaves no pending entry or
    # deadline; r1, rate-limited, by reply bytes that the worker matches;
    # the silent dst lets them time out
    network = SimNetwork(linear_topology(2, policies={"dst": "silent",
                                                      "r1": {"rate_limit": 1000}}))
    clock = VirtualClock(START_US)
    transport = SimTransport(network, clock, "10.0.0.1")
    produced = []
    worker = SourceWorker([relation_for(topology, "src", "r1"), relation_for(topology),
                           relation_for(topology, "src", "r2")],
                          quick_schedule, lambda: transport, produced,
                          start_us=START_US, end_us=START_US + 5_000_000)
    worker.on_wakeup(START_US)
    assert len(worker._pending) == 2 and len(worker._deadlines) == 2
    for pending in worker._pending.values():
        assert_twin(pending, _PendingPing)
    drive_workers([worker], [transport], clock)
    pings = [r for r in produced if type(r) is not TracerouteRun]
    assert {p.status for p in pings} == {0, 255} and len(pings) == 15
    for ping in pings:
        assert_twin(ping, PingRecord)
