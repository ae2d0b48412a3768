import io
import random

import pytest

from contrace import icmp, records
from contrace.icmp import Family
from contrace.probe import ProbeSchedule
from contrace.sim import (SimNetwork, SimTransport, TopologyError, VirtualClock,
                          load_topology, run_scenario, topology_from_dict)

from conftest import START_US, ecmp4_topology, linear_topology, relation_for
from oracles import serialize_line


def _probe_bytes(checksum_target=0x1234, seq=1):
    return icmp.make_request_bytes(Family.V4, 7, seq, START_US,
                                   target_checksum=checksum_target)


class TestForward:
    def test_ttl_expires_at_counted_router(self):
        net = SimNetwork(linear_topology(3))
        outcome = net.forward(_probe_bytes(), 2, "src", "dst", START_US)
        assert outcome.kind == "time_exceeded"
        assert outcome.node == "r2"

    def test_delivery_beyond_routers(self):
        net = SimNetwork(linear_topology(3))
        outcome = net.forward(_probe_bytes(), 4, "src", "dst", START_US)
        assert outcome.kind == "delivered"
        assert outcome.node == "dst"

    def test_latency_accumulates(self):
        topo = linear_topology(2, [100, 250, 400])
        net = SimNetwork(topo)
        outcome = net.forward(_probe_bytes(), 10, "src", "dst", START_US)
        assert outcome.latency_us == 750
        assert outcome.at_us == START_US + 750

    def test_identical_prefixes_identical_paths(self):
        net = SimNetwork(ecmp4_topology())
        a = net.forward(_probe_bytes(0xAAAA, seq=1), 30, "src", "dst", START_US)
        b = net.forward(_probe_bytes(0xAAAA, seq=200), 30, "src", "dst", START_US)
        assert a.path == b.path

    def test_ecmp_index_is_prefix_mod_group_size(self):
        net = SimNetwork(ecmp4_topology())
        for checksum in range(0, 0xFFFF, 257):
            data = _probe_bytes(checksum)
            outcome = net.forward(data, 30, "src", "dst", START_US)
            expected_branch = int.from_bytes(data[:4], "big") % 4
            assert outcome.path[2] == f"b{expected_branch}p1"

    def test_checksum_variation_spreads_over_paths(self):
        net = SimNetwork(ecmp4_topology())
        rng = random.Random(4)
        paths = set()
        for _ in range(256):
            outcome = net.forward(_probe_bytes(rng.randrange(0, 0xFFFF)), 30,
                                  "src", "dst", START_US)
            paths.add(outcome.path)
        assert len(paths) >= 2

    def test_no_route_drops(self):
        topo = topology_from_dict({
            "routers": {"a": {"address": "10.0.0.1"}, "b": {"address": "10.0.0.2"},
                        "c": {"address": "10.0.0.3"}},
            "links": [{"from": "a", "to": "b", "latency_us": 10},
                      {"from": "a", "to": "c", "latency_us": 10}],
        })
        net = SimNetwork(topo)
        outcome = net.forward(_probe_bytes(), 5, "a", "b", START_US)
        # two outgoing links and no ecmp group: ambiguous, hence no route
        assert outcome.kind == "dropped"

    def test_routing_loop_drops(self):
        topo = topology_from_dict({
            "routers": {"a": {"address": "10.0.0.1"}, "b": {"address": "10.0.0.2"},
                        "d": {"address": "10.0.0.9"}},
            "links": [{"from": "a", "to": "b", "latency_us": 10},
                      {"from": "b", "to": "a", "latency_us": 10}],
        })
        net = SimNetwork(topo)
        # TTL far above the hop cap exercises the loop guard.
        outcome = net.forward(_probe_bytes(), 100_000, "a", "d", START_US)
        assert outcome.kind == "dropped"

    def test_conservation_every_probe_one_outcome(self):
        net = SimNetwork(ecmp4_topology())
        rng = random.Random(11)
        for _ in range(100):
            out = net.forward(_probe_bytes(rng.randrange(0xFFFF)),
                              rng.randrange(1, 10), "src", "dst", START_US)
            assert out.kind in ("delivered", "time_exceeded", "dropped")


class TestPoliciesAndEvents:
    def test_silent_router_gives_no_response(self):
        topo = linear_topology(3, policies={"r2": "silent"})
        net = SimNetwork(topo)
        outcome = net.forward(_probe_bytes(), 2, "src", "dst", START_US)
        assert net.response_for(outcome, _probe_bytes(), Family.V4, "10.0.0.1") is None

    def test_rate_limit_zero_never_responds(self):
        topo = linear_topology(3, policies={"r2": {"rate_limit": 0}})
        net = SimNetwork(topo)
        outcome = net.forward(_probe_bytes(), 2, "src", "dst", START_US)
        assert net.response_for(outcome, _probe_bytes(), Family.V4, "10.0.0.1") is None

    def test_rate_limit_bucket_refills(self):
        topo = linear_topology(3, policies={"r1": {"rate_limit": 1}})
        net = SimNetwork(topo)

        def respond(at_us):
            outcome = net.forward(_probe_bytes(), 1, "src", "dst", at_us)
            return net.response_for(outcome, _probe_bytes(), Family.V4,
                                    "10.0.0.1") is not None

        assert respond(START_US)
        assert not respond(START_US + 100)          # bucket drained
        assert respond(START_US + 1_100_000)        # one second refills one token

    def test_set_latency_event_applies_at_time(self):
        topo = linear_topology(
            2, [100, 200, 300],
            events=[{"at": 10.0, "action": "set_latency",
                     "from": "r1", "to": "r2", "latency_us": 5000}])
        net = SimNetwork(topo)
        before = net.forward(_probe_bytes(), 9, "src", "dst", START_US)
        after = net.forward(_probe_bytes(), 9, "src", "dst", START_US + 10_000_000)
        assert before.latency_us == 600
        assert after.latency_us == 100 + 5000 + 300

    def test_remove_link_event(self):
        topo = linear_topology(
            2, events=[{"at": 5.0, "action": "remove_link", "from": "r1", "to": "r2"}])
        net = SimNetwork(topo)
        before = net.forward(_probe_bytes(), 9, "src", "dst", START_US)
        after = net.forward(_probe_bytes(), 9, "src", "dst", START_US + 5_000_000)
        assert before.kind == "delivered"
        assert after.kind == "dropped"

    def test_response_reply_decodes(self):
        net = SimNetwork(linear_topology(2))
        request = icmp.make_request_bytes(Family.V4, 3, 9, START_US)
        outcome = net.forward(request, 10, "src", "dst", START_US)
        arrival, data, responder = net.response_for(outcome, request, Family.V4,
                                                    "10.0.0.1")
        assert responder == net.address_of("dst")
        assert arrival == outcome.at_us + outcome.latency_us
        decoded = icmp.decode_message(data, Family.V4)
        assert decoded.kind is icmp.Kind.ECHO_REPLY
        assert decoded.match_key == (3, 9)


class TestTopologyValidation:
    def test_unknown_router_in_link(self):
        with pytest.raises(TopologyError):
            topology_from_dict({
                "routers": {"a": {"address": "10.0.0.1"}},
                "links": [{"from": "a", "to": "ghost", "latency_us": 10}],
            })

    def test_nonpositive_latency(self):
        with pytest.raises(TopologyError):
            topology_from_dict({
                "routers": {"a": {"address": "10.0.0.1"},
                            "b": {"address": "10.0.0.2"}},
                "links": [{"from": "a", "to": "b", "latency_us": 0}],
            })

    def test_empty_ecmp_group(self):
        with pytest.raises(TopologyError):
            topology_from_dict({
                "routers": {"a": {"address": "10.0.0.1"}},
                "links": [],
                "ecmp": {"a": {"default": []}},
            })

    def test_duplicate_addresses(self):
        with pytest.raises(TopologyError):
            topology_from_dict({
                "routers": {"a": {"address": "10.0.0.1"},
                            "b": {"address": "10.0.0.1"}},
            })


class TestVirtualClock:
    def test_advance_only_forward(self):
        clock = VirtualClock(100)
        clock.advance_to(150)
        assert clock.now_us() == 150
        with pytest.raises(ValueError):
            clock.advance_to(149)


class TestScenario:
    def test_determinism_byte_identical(self):
        topo = ecmp4_topology()
        relation = relation_for(topo)
        schedule = ProbeSchedule(max_ttl=12, reply_timeout_s=1.0)

        def render(produced):
            return "".join(serialize_line(r) for r in produced)

        a, b = [], []
        run_scenario(topo, [relation], schedule, 30, seed=5, sink=a)
        run_scenario(topo, [relation], schedule, 30, seed=5, sink=b)
        assert render(a) == render(b)
        assert len(a) > 0

    def test_route_change_mixes_link_shares(self):
        # Two parallel branches, switched by a policy-free latency topology
        # event: before t=600 all traffic goes via mid1, afterwards via mid2.
        doc = {
            "start_time": START_US,
            "routers": {
                "src": {"address": "10.0.0.1"},
                "gw": {"address": "10.0.1.1"},
                "mid1": {"address": "10.0.2.1"},
                "mid2": {"address": "10.0.3.1"},
                "dst": {"address": "10.0.4.1"},
            },
            "links": [
                {"from": "src", "to": "gw", "latency_us": 100},
                {"from": "gw", "to": "mid1", "latency_us": 100},
                {"from": "mid1", "to": "dst", "latency_us": 100},
                {"from": "mid2", "to": "dst", "latency_us": 100},
            ],
            "ecmp": {"gw": {"default": ["mid1"]}},
            "events": [
                {"at": 600.0, "action": "add_link",
                 "from": "gw", "to": "mid2", "latency_us": 100},
                {"at": 600.0, "action": "remove_link", "from": "gw", "to": "mid1"},
            ],
        }
        # ecmp pins gw->mid1; after removal the packet drops there unless the
        # group is re-derived, so route via adjacency: drop the ecmp entry.
        doc["ecmp"] = {}
        topo = topology_from_dict(doc)
        relation = relation_for(topo)
        schedule = ProbeSchedule(traceroute_interval_s=60.0, traceroute_rounds=1,
                                 max_ttl=8, reply_timeout_s=1.0)
        produced = []
        run_scenario(topo, [relation], schedule, 1200, seed=9, sink=produced)
        runs = [r for r in produced if isinstance(r, records.TracerouteRun)]
        assert runs
        half = START_US + 600 * 1_000_000
        before = [r for r in runs if r.timestamp < half]
        after = [r for r in runs if r.timestamp >= half]

        def via(run, address):
            return any(h.address == address for h in run.hops)

        assert all(via(r, "10.0.2.1") for r in before)
        assert all(via(r, "10.0.3.1") for r in after)
        # aggregate share equals the time-weighted mix of the two epochs
        share_mid1 = sum(via(r, "10.0.2.1") for r in runs) / len(runs)
        assert share_mid1 == len(before) / len(runs)

    def test_sim_transport_blocking_receive(self):
        topo = linear_topology(2, [1000, 2000, 2000])
        net = SimNetwork(topo)
        clock = VirtualClock(START_US)
        transport = SimTransport(net, clock, "10.0.0.1")
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
        transport = SimTransport(net, clock, "10.0.0.1")
        assert transport.receive(START_US + 777) is None
        assert clock.now_us() == START_US + 777


def test_load_topology_yaml(tmp_path):
    path = tmp_path / "t.yaml"
    path.write_text(
        "start_time: 1609459200000000\n"
        "routers:\n"
        "  a: {address: 10.0.0.1}\n"
        "  b: {address: 10.0.0.2}\n"
        "links:\n"
        "  - {from: a, to: b, latency_us: 42}\n")
    topo = load_topology(path)
    assert topo.links[("a", "b")] == 42
