import io
import random
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contrace import cli, icmp, probe, records, sim
from contrace.icmp import Family
from contrace.probe import ProbeSchedule, SourceWorker, TransportFailure
from contrace.sim import (SimNetwork, SimTransport, TopologyError, VirtualClock,
                          load_topology, run_scenario, topology_from_dict)
from contrace.store import RecordStore

from conftest import START_US, ecmp4_topology, linear_topology, relation_for
from oracles import (EngineTransport, drive_workers_reference, forward_reference,
                     serialize_line)


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


@st.composite
def forwarding_cases(draw):
    """A random topology with events a few hundred microseconds after its
    start, probes (ingress, destination, ttl, prefix) and their send times.

    Links may be missing or down, ECMP groups of 1 to 5 next hops may name
    any router (itself, an unlinked one, one that leads back), and a router
    without a group falls back to its only outgoing link.
    """
    names = [f"n{i}" for i in range(draw(st.integers(2, 6)))]
    pairs = [(u, v) for u in names for v in names if u != v]
    latency = st.integers(1, 40)
    linked = draw(st.lists(st.sampled_from(pairs), unique=True))
    links = [{"from": u, "to": v, "latency_us": draw(latency)} for u, v in linked]
    # most events change a link that exists, so that walks notice them
    event_pair = st.sampled_from(linked) | st.sampled_from(pairs) if linked \
        else st.sampled_from(pairs)
    groups = st.lists(st.sampled_from(names), min_size=1, max_size=5)
    ecmp = {router: draw(st.dictionaries(st.sampled_from(["default", *names]),
                                         groups, min_size=1, max_size=2))
            for router in draw(st.lists(st.sampled_from(names), unique=True))}
    events = []
    for offset_us in draw(st.lists(st.integers(0, 400), max_size=4)):
        u, v = draw(event_pair)
        action = draw(st.sampled_from(["set_latency", "add_link", "remove_link",
                                       "set_policy"]))
        event = {"at": offset_us / 1_000_000, "action": action}
        if action == "set_policy":
            event.update(router=u, policy="silent")
        else:
            event.update({"from": u, "to": v})
            if action != "remove_link":
                event["latency_us"] = draw(latency)
        events.append(event)
    topology = topology_from_dict({
        "start_time": START_US,
        "routers": {name: {"address": f"10.0.0.{i + 1}"}
                    for i, name in enumerate(names)},
        "links": links, "ecmp": ecmp, "events": events})
    # Send times just before, at and after each event, in any order: a walk
    # cached by one send is offered to sends that cross an event, and a
    # send that crosses one may come first in its epoch.
    times = {START_US - 1, START_US, *draw(st.lists(st.integers(START_US, START_US + 600),
                                                    max_size=3))}
    for event in topology.events:
        times.update(event.at_us + delta for delta in (-60, -20, -5, -1, 0, 1))
    send_times = draw(st.permutations(sorted(times)))
    probes = draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names),
                                     st.integers(0, 70), st.integers(0, 2**32 - 1)),
                           min_size=1, max_size=4))
    return topology, probes, send_times


class TestForwardMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(forwarding_cases())
    def test_every_outcome_field_matches(self, case):
        # One network answers every probe, so later probes hit walks that
        # earlier ones cached, at other send times of the same epoch.
        topology, probes, send_times = case
        net = SimNetwork(topology)
        for t_us in send_times:
            for ingress, dest, ttl, prefix in probes:
                data = prefix.to_bytes(4, "big") + bytes(12)
                assert net.forward(data, ttl, ingress, dest, t_us) \
                    == forward_reference(topology, data, ttl, ingress, dest, t_us)

    def test_walk_crossing_an_event_is_routed_hop_by_hop(self):
        # a -> b -> c -> d at 10 us per link; c->d goes down 95 us in. The
        # walk sent at 0 ends at 30 us, inside the first epoch, so a send
        # at 60 us reuses it. A send at 80 us is in the same epoch and has
        # the same cache key, but reaches c at 100 us, after the event.
        topo = topology_from_dict({
            "start_time": START_US,
            "routers": {n: {"address": f"10.0.0.{i + 1}"}
                        for i, n in enumerate("abcd")},
            "links": [{"from": u, "to": v, "latency_us": 10}
                      for u, v in ("ab", "bc", "cd")],
            "events": [{"at": 95 / 1_000_000, "action": "remove_link",
                        "from": "c", "to": "d"}]})
        net = SimNetwork(topo)

        def forward(offset_us):
            out = net.forward(_probe_bytes(), 9, "a", "d", START_US + offset_us)
            return out.kind, out.at_us - START_US, out.reason, out.path

        delivered = ("a", "b", "c", "d")
        assert forward(0) == ("delivered", 30, "", delivered)
        assert forward(60) == ("delivered", 90, "", delivered)
        assert forward(80) == ("dropped", 100, "no route from c", ("a", "b", "c"))
        assert forward(64) == ("delivered", 94, "", delivered)
        assert forward(95) == ("dropped", 115, "no route from c", ("a", "b", "c"))
        # The first send of an epoch may cross the event; its walk is not
        # cached for the sends that come after it.
        net = SimNetwork(topo)
        assert forward(80) == ("dropped", 100, "no route from c", ("a", "b", "c"))
        assert forward(0) == ("delivered", 30, "", delivered)

    def test_unknown_ingress_fails(self):
        net = SimNetwork(linear_topology(1))
        with pytest.raises(TransportFailure):
            net.forward(_probe_bytes(), 5, "ghost", "dst", START_US)


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
        assert responder == net.topology.routers["dst"].address
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

    def test_addresses_that_differ_only_in_form_are_duplicates(self):
        """Uniqueness compares canonical forms; each address is kept as
        given."""
        routers = {"a": {"address": "2001:db8::1"}, "b": {"address": "2001:DB8::1"}}
        with pytest.raises(TopologyError, match="^router addresses must be unique$"):
            topology_from_dict({"routers": routers})
        routers["b"]["address"] = "2001:DB8::2"
        topology = topology_from_dict({"routers": routers})
        assert topology.routers["b"].address == "2001:DB8::2"


    @pytest.mark.parametrize("doc, message", [
        ({"routers": [1, 2]}, "routers must be a mapping"),
        ({"links": 5}, "links must be a list"),
        ({"links": [{"from": "a", "latency_us": 10}]}, "link 1 needs from, to, latency_us"),
        ({"links": [{"from": "a", "to": "b", "latency_us": "10"}]},
         "link 1: latency_us must be an integer, got '10'"),
        ({"links": [{"from": "a", "to": "b", "latency_us": 2.5}]},
         "link 1: latency_us must be an integer, got 2.5"),
        ({"ecmp": {"a": 5}}, "ecmp entry for a must be a list or a mapping of lists"),
        ({"ecmp": {"a": {"b": 5}}}, "ecmp entry for a must be a list or a mapping of lists"),
        ({"policies": {"a": {"rate_limit": "x"}}},
         "policy of a: rate_limit must be an integer, got 'x'"),
        ({"start_time": "x"}, "start_time must be an integer, got 'x'"),
        ({"events": [{"at": 1, "action": "remove_link", "to": "b"}]}, "event 1 needs from, to"),
        ({"events": [{"at": 1, "action": "add_link", "from": "a", "to": "b",
                      "latency_us": True}]}, "event 1: latency_us must be an integer, got True"),
        ({"events": [{"at": 1, "action": "set_policy", "router": "a",
                      "policy": {"rate_limit": 1.5}}]},
         "event 1: rate_limit must be an integer, got 1.5"),
        ({"events": [{"at": "soon", "action": "remove_link", "from": "a", "to": "b"}]},
         "event 1: at must be a finite number of seconds, got 'soon'"),
        ({"routers": {"a": {"address": "10.0.0.1"}, "b": {"address": "nonsense"}}},
         "router b: address must be an IP address, got 'nonsense'"),
        ({"links": [{"from": "a", "to": "ghost", "latency_us": 10}]},
         "link a->ghost references unknown router"),
        ({"links": [{"from": "a", "to": "b", "latency_us": -1}]},
         "link a->b latency must be positive"),
        ({"ecmp": {"ghost": ["a"]}}, "ecmp entry for unknown router ghost"),
        ({"ecmp": {"a": {"b": []}}}, "empty ecmp group at a for b"),
        ({"ecmp": {"a": ["b", "ghost"]}}, "ecmp group at a references unknown router ghost"),
        ({"policies": {"ghost": "silent"}}, "policy for unknown router ghost"),
        ({"policies": {"a": "loud"}}, "unknown policy 'loud'"),
        ({"policies": {"a": {"rate_limit": -1}}}, "rate_limit must be >= 0"),
        ({"events": [{"at": 1, "action": "add_link", "from": "a", "to": "ghost",
                      "latency_us": 10}]}, "link a->ghost references unknown router"),
        ({"events": [{"at": 1, "action": "set_latency", "from": "a", "to": "b",
                      "latency_us": 0}]}, "link a->b latency must be positive"),
        ({"events": [{"at": 1, "action": "set_latency", "from": "a", "to": "b",
                      "latency_us": -5000}]}, "link a->b latency must be positive"),
        ({"events": [{"at": 1, "action": "set_policy", "router": "ghost",
                      "policy": "silent"}]}, "policy for unknown router ghost"),
        ({"events": [{"at": 1, "action": "remove_link", "from": "ghost", "to": "b"}]},
         "link ghost->b references unknown router"),
    ], ids=["routers-a-list", "links-a-number", "link-without-to", "latency-a-string",
            "latency-a-fraction", "ecmp-a-number", "ecmp-group-a-number",
            "rate-limit-a-string", "start-time-a-string",
            "event-without-from", "event-latency-a-bool", "event-rate-limit-a-fraction",
            "event-at-a-string", "address-not-an-ip",
            "link-to-an-unknown-router", "latency-negative", "ecmp-of-an-unknown-router",
            "ecmp-group-empty", "ecmp-group-with-an-unknown-router",
            "policy-of-an-unknown-router", "policy-unknown", "rate-limit-negative",
            "event-add-link-to-an-unknown-router", "event-set-latency-zero",
            "event-set-latency-negative", "event-set-policy-of-an-unknown-router",
            "event-remove-link-of-an-unknown-router"])
    def test_a_malformed_entry_is_a_topology_error_that_names_it(self, doc, message):
        routers = {"a": {"address": "10.0.0.1"}, "b": {"address": "10.0.0.2"}}
        with pytest.raises(TopologyError, match=f"^{re.escape(message)}$"):
            topology_from_dict({"routers": routers, **doc})


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

    @pytest.mark.parametrize("jitter", [0.0, 0.05])
    def test_driver_order_matches_reference(self, monkeypatch, jitter):
        # Three sources reach dst through hub; both routers answer once a
        # second, so whichever worker sends first takes the token. dst is
        # exactly 0.5 s from s2, so s2's replies land on the whole seconds
        # where every worker's pings and deadlines fall, and with no jitter
        # the traceroute cycles start on them too. One relation pings its
        # own source, whose replies are due at the instant they are sent.
        topo = topology_from_dict({
            "start_time": START_US,
            "routers": {"hub": {"address": "10.9.0.1"}, "dst": {"address": "10.9.9.1"},
                        **{f"s{i}": {"address": f"10.9.{i + 1}.1"} for i in range(3)}},
            "links": [*({"from": f"s{i}", "to": "hub", "latency_us": 100 * (i + 1)}
                        for i in range(3)),
                      {"from": "hub", "to": "dst", "latency_us": 500_000 - 300}],
            "policies": {"hub": {"rate_limit": 1}, "dst": {"rate_limit": 1}},
        })
        relations = [relation_for(topo, f"s{i}", "dst", f"S{i}") for i in range(3)]
        relations.append(relation_for(topo, "s0", "s0", "S0", "S0"))
        schedule = ProbeSchedule(ping_interval_s=1.0, traceroute_interval_s=20.0,
                                 traceroute_rounds=3, max_ttl=4,
                                 reply_timeout_s=2.0, craft_constant_checksum=False,
                                 jitter_fraction=jitter)

        def appended():
            produced = []
            run_scenario(topo, relations, schedule, 240, seed=3, sink=produced)
            return produced

        fast = appended()
        monkeypatch.setattr(sim, "drive_workers", drive_workers_reference)
        assert fast == appended()
        hub_hops = [r.hops[0] for r in fast if isinstance(r, records.TracerouteRun)
                    and r.destination == "10.9.9.1"]
        assert {hop.status for hop in hub_hops} == {0, 1}  # the hub ran dry
        assert any(isinstance(r, records.PingRecord) and r.rtt == 0 for r in fast)

    @pytest.mark.parametrize("jitter", [0.0, 0.05])
    def test_eight_workers_match_reference(self, jitter):
        # As many workers as the campaign benchmark runs, driven directly so
        # each can end at its own time. dst answers in 1 s; far answers in
        # 3 s, after the 2 s reply timeout, so every worker that pings far
        # gets replies after its last wakeup. Worker 3's first sends fail,
        # so it backs off; worker 0 also pings its own address.
        topo = topology_from_dict({
            "start_time": START_US,
            "routers": {"hub": {"address": "10.9.0.1"}, "dst": {"address": "10.9.9.1"},
                        "far": {"address": "10.9.99.1"},
                        **{f"s{i}": {"address": f"10.9.{i + 1}.1"} for i in range(8)}},
            "links": [*({"from": f"s{i}", "to": "hub", "latency_us": 100 * (i + 1)}
                        for i in range(8)),
                      {"from": "hub", "to": "dst", "latency_us": 500_000 - 300},
                      {"from": "hub", "to": "far", "latency_us": 1_500_000}],
            "ecmp": {"hub": {"dst": ["dst"], "far": ["far"]}},
            "policies": {"hub": {"rate_limit": 2}, "dst": {"rate_limit": 1}},
        })
        schedule = ProbeSchedule(ping_interval_s=1.0, traceroute_interval_s=20.0,
                                 traceroute_rounds=2, max_ttl=4,
                                 reply_timeout_s=2.0, craft_constant_checksum=False,
                                 jitter_fraction=jitter)

        class Transport(SimTransport):
            failures = strays = 0

            def depart(self, ttl, destination):
                if self.failures:
                    self.failures -= 1
                    raise TransportFailure("injected send failure")

            def pop_due(self, now_us):
                packets = super().pop_due(now_us)
                if self.worker.next_wakeup() is None:
                    self.strays += len(packets)
                return packets

        def run(driver):
            network = SimNetwork(topo)
            clock = VirtualClock(START_US)
            produced, workers, transports = [], [], []
            for i in range(8):
                transport = Transport(network, clock, topo.routers[f"s{i}"].address)
                transport.failures = 4 if i == 3 else 0
                relations = [relation_for(topo, f"s{i}", "dst", f"S{i}", "D")]
                if i % 2 == 0:
                    relations.append(relation_for(topo, f"s{i}", "far", f"S{i}", "F"))
                if i == 0:
                    relations.append(relation_for(topo, "s0", "s0", "S0", "S0"))
                transport.worker = SourceWorker(
                    relations, schedule, lambda t=transport: t, produced,
                    start_us=START_US, end_us=START_US + (30 + 10 * i) * 1_000_000,
                    seed=5)
                workers.append(transport.worker)
                transports.append(transport)
            driver(workers, transports, clock)
            return produced, transports

        fast, transports = run(sim.drive_workers)
        assert fast == run(drive_workers_reference)[0]
        assert all(transports[i].strays for i in range(0, 8, 2))
        assert transports[3].failures == 0
        assert any(r.source == "10.9.4.1" for r in fast)
        assert any(isinstance(r, records.PingRecord) and r.rtt == 0 for r in fast)


class _FlakyTransport(SimTransport):
    """A SimTransport whose probes numbered in fail (1, 2, ... per
    transport, as they depart, by send or from the table) raise
    TransportFailure, as does its factory's rebuild at the calls numbered
    in fail_rebuild; the factory hands back this transport, the one the
    driver watches."""

    def __init__(self, network, clock, address, fail, fail_rebuild):
        super().__init__(network, clock, address)
        self.fail, self.fail_rebuild = fail, fail_rebuild
        self.sends = self.rebuilds = 0

    def depart(self, ttl, destination):
        self.sends += 1
        if self.sends in self.fail:
            raise TransportFailure("injected send failure")

    def rebuild(self):
        self.rebuilds += 1
        if self.rebuilds in self.fail_rebuild:
            raise TransportFailure("injected rebuild failure")
        return self


_POLICIES = st.sampled_from([sim.Policy(), sim.Policy(sim.POLICY_SILENT),
                             sim.Policy(sim.POLICY_RATE_LIMIT, 0),
                             sim.Policy(sim.POLICY_RATE_LIMIT, 1),
                             sim.Policy(sim.POLICY_RATE_LIMIT, 3)])


def _hub_topology(source_links, destination_links, policies, events=()):
    """Sources s0, s1, ... behind one hub that fans out to destinations d0,
    d1, ..., at the given link latencies. Built as is: validate() would
    refuse the links of latency 0."""
    routers = {"hub": sim.RouterSpec("hub", "10.9.0.1")}
    routers.update({f"s{i}": sim.RouterSpec(f"s{i}", f"10.9.{i + 1}.1")
                    for i in range(len(source_links))})
    routers.update({f"d{j}": sim.RouterSpec(f"d{j}", f"10.9.{100 + j}.1")
                    for j in range(len(destination_links))})
    links = {(f"s{i}", "hub"): latency for i, latency in enumerate(source_links)}
    links.update({("hub", f"d{j}"): latency for j, latency in enumerate(destination_links)})
    ecmp = {"hub": {f"d{j}": (f"d{j}",) for j in range(len(destination_links))}}
    return sim.SimTopology(routers, links, ecmp, policies, list(events), START_US)


def _aligned_campaign():
    """One source that pings three destinations every I = 999,999 us, with
    a reply timeout T = 2I. From the third tick on, each tick meets the
    pings sent two ticks back: the reply of the destination at I arrives,
    then the ping to the destination beyond T times out; 1 us later the
    destination at (I + 1) / 2 answers the last tick's ping. So a driver
    that hands a reply to its worker 1 us early records it before that
    timeout."""
    interval_us = 999_999
    topology = _hub_topology([0], [(interval_us + 1) // 2, interval_us, 2_500_000],
                             {name: sim.Policy() for name in ("hub", "d0", "d1", "d2")})
    schedule = ProbeSchedule(ping_interval_s=interval_us / 1e6, traceroute_interval_s=20.0,
                             traceroute_rounds=1, max_ttl=3,
                             reply_timeout_s=2 * interval_us / 1e6, jitter_fraction=0.0)
    relations = [relation_for(topology, "s0", f"d{j}", "S0", f"D{j}") for j in range(3)]
    return topology, schedule, [dict(relations=relations, end_us=START_US + 10_000_000,
                                     fail=set(), fail_rebuild=set())]


def _boundary_campaign():
    """One source that pings, every second with a reply timeout T of 2 s,
    destinations whose RTTs are 2 us under, at and 2 us over T (d0, d1,
    d2) and one rate-limited to silence (d3); d1 turns silent 5.5 s in,
    which the ping sent to it at 5 s meets on its way out."""
    timeout_us = 2_000_000
    responsive = sim.Policy()
    policies = {"hub": responsive, "d0": responsive, "d1": responsive, "d2": responsive,
                "d3": sim.Policy(sim.POLICY_RATE_LIMIT, 0)}
    topology = _hub_topology(
        [0], [timeout_us // 2 - 1, timeout_us // 2, timeout_us // 2 + 1, 250], policies,
        [sim.SimEvent(START_US + 5_500_000, "set_policy", ("d1", sim.Policy(sim.POLICY_SILENT)))])
    schedule = ProbeSchedule(ping_interval_s=1.0, traceroute_interval_s=20.0,
                             traceroute_rounds=1, max_ttl=3, reply_timeout_s=timeout_us / 1e6,
                             jitter_fraction=0.0)
    relations = [relation_for(topology, "s0", f"d{j}", "S0", f"D{j}") for j in range(4)]
    return topology, schedule, [dict(relations=relations, end_us=START_US + 10_000_000,
                                     fail=set(), fail_rebuild=set())]


def _merge_campaign():
    """Three sources that ping, every second with a reply timeout of 2 s,
    destinations 1 s away over equal links: d0 and d2 answer from the
    table; d1, rate-limited, by reply bytes; d3, silent, not at all; d4
    answers 700 us after each tick. So at every tick from the second on,
    the table records of workers 0 and 1 land at the instant of worker 2's
    reply from d1; worker 2's own records from d0 and d2 land then too,
    queued before and after that reply; and worker 0's wakeup records the
    timeout of its ping to d3 and queues the record of a ping to its own
    address (RTT 0)."""
    one_way = 500_000 - 100
    policies = {"hub": sim.Policy(), "d0": sim.Policy(), "d2": sim.Policy(),
                "d1": sim.Policy(sim.POLICY_RATE_LIMIT, 5), "d3": sim.Policy(sim.POLICY_SILENT),
                "d4": sim.Policy()}
    topology = _hub_topology([100] * 3, [one_way] * 4 + [250], policies)
    schedule = ProbeSchedule(ping_interval_s=1.0, traceroute_interval_s=20.0,
                             traceroute_rounds=1, max_ttl=2, reply_timeout_s=2.0,
                             jitter_fraction=0.0)
    targets = [("d3", "d0", "d2", "s0"), ("d0", "d4"), ("d0", "d1", "d2")]
    return topology, schedule, [
        dict(relations=[relation_for(topology, f"s{i}", name, f"S{i}", name.upper())
                        for name in names],
             end_us=START_US + 10_000_000, fail=set(), fail_rebuild=set())
        for i, names in enumerate(targets)]


@st.composite
def _campaigns(draw):
    """A random small campaign: 1-8 sources behind one hub that fans out to
    1-3 destinations, link latencies from 0 (replies at the sending
    instant) to beyond the reply timeout (replies after a worker's last
    wakeup), shared router policies and scripted changes to them, and per
    source its own end time and injected send and rebuild failures.

    Replies also land 1 us after a wakeup and around a deadline. An RTT is
    twice a one-way sum, so a destination's link is mostly drawn to make
    the sum from a source that pings it, over that source's own link, one
    of these: (I + 1) / 2 answers each ping 1 us after the next tick, which
    takes an odd ping interval I, as most are; I answers exactly at the
    tick after next; and T / 2 - 1, T / 2 and T / 2 + 1 answer 2 us
    before, at and 2 us after the ping's deadline T, which is a tick if
    T = 2I. Such replies count where a destination answers and a source
    runs for a while, so most destinations are responsive and most
    sources run the whole 20 s."""
    sources = draw(st.integers(1, 8))
    destinations = draw(st.integers(1, 3))
    interval_s = draw(st.sampled_from([0.999_999, 0.499_999, 1.999_999, 1.0]))
    timeout_s = draw(st.sampled_from([2 * interval_s, 0.5, 2.0, 3.0]))
    interval_us, timeout_us = round(interval_s * 1e6), round(timeout_s * 1e6)
    latency = st.sampled_from([0, 0, 1, 250, 400_000, 1_200_000, 2_500_000])
    source_links = [draw(latency) for _ in range(sources)]
    targets = [draw(st.lists(st.integers(0, destinations), min_size=1, max_size=3,
                             unique=True))  # destinations, else s{i} itself
               for _ in range(sources)]
    sums = ((interval_us + 1) // 2, timeout_us // 2 + 1, interval_us,
            timeout_us // 2 - 1, (interval_us + 1) // 2, timeout_us // 2)
    destination_links = []
    for j in range(destinations):
        pingers = [i for i in range(sources) if j in targets[i]] or range(sources)
        base = source_links[draw(st.sampled_from(pingers))]
        near = [one_way - base for one_way in sums if one_way >= base] or [0]
        destination_links.append(draw(st.one_of(st.sampled_from(near), st.sampled_from(near),
                                                latency)))
    policies = {"hub": draw(_POLICIES)}
    policies.update((f"d{j}", draw(st.one_of(st.just(sim.Policy()), _POLICIES)))
                    for j in range(destinations))
    change = st.one_of(
        st.tuples(st.just("set_policy"), st.tuples(st.sampled_from(sorted(policies)),
                                                   _POLICIES)),
        st.tuples(st.just("set_latency"), st.tuples(st.just("hub"), st.just("d0"), latency)))
    events = sorted((sim.SimEvent(START_US + draw(st.integers(0, 20_000_000)), action, params)
                     for action, params in draw(st.lists(change, max_size=3))),
                    key=lambda event: event.at_us)
    topology = _hub_topology(source_links, destination_links, policies, events)
    schedule = ProbeSchedule(
        ping_interval_s=interval_s,
        traceroute_interval_s=draw(st.sampled_from([3.0, 7.0, 20.0])),
        traceroute_rounds=draw(st.integers(1, 2)), max_ttl=draw(st.integers(1, 3)),
        reply_timeout_s=timeout_s,
        craft_constant_checksum=draw(st.booleans()),
        jitter_fraction=draw(st.sampled_from([0.0, 0.05])))
    workers = []
    for i in range(sources):
        workers.append(dict(
            relations=[relation_for(topology, f"s{i}", f"d{j}" if j < destinations
                                    else f"s{i}", f"S{i}", f"D{j}") for j in targets[i]],
            end_us=START_US + draw(st.one_of(st.just(20), st.integers(0, 20))) * 1_000_000,
            fail=set(draw(st.lists(st.integers(1, 40), max_size=3))),
            fail_rebuild=set(draw(st.lists(st.integers(2, 4), max_size=2)))))
    return topology, schedule, workers


class _Timed(list):
    """The records appended, each with the simulated time it came at."""

    def __init__(self, clock):
        super().__init__()
        self.clock = clock

    def append(self, record):
        super().append((self.clock.now_us(), record))


@settings(max_examples=100, deadline=None)
@given(_campaigns())
@example(_aligned_campaign())
@example(_merge_campaign())
def test_drive_workers_matches_the_reference_on_random_campaigns(campaign):
    """sim.drive_workers produces the records of the reference driver, which
    polls every worker at every step, in the same order and at the same
    simulated times, and leaves the clock at the same time: on random
    campaigns; on one whose ticks each meet a reply, a deadline and, 1 us
    later, another reply; and on one whose ticks each meet the table
    records of three workers, a reply between them and a timeout."""
    topology, schedule, specs = campaign

    def run(driver):
        network = SimNetwork(topology)
        clock = VirtualClock(START_US)
        produced, workers, transports = _Timed(clock), [], []
        for i, spec in enumerate(specs):
            transport = _FlakyTransport(network, clock, topology.routers[f"s{i}"].address,
                                        spec["fail"], spec["fail_rebuild"])
            workers.append(SourceWorker(spec["relations"], schedule, transport.rebuild,
                                        produced, start_us=START_US,
                                        end_us=spec["end_us"], seed=9))
            transports.append(transport)
        driver(workers, transports, clock)
        return produced, clock.now_us()

    assert run(sim.drive_workers) == run(drive_workers_reference)


class _FlakyEngine(_FlakyTransport, EngineTransport):
    """A _FlakyTransport whose pings never take a record from the table."""


class _Tee(list):
    """The records appended, each also appended to sink."""

    def __init__(self, sink):
        super().__init__()
        self.sink = sink

    def append(self, record):
        super().append(record)
        self.sink.append(record)


@settings(max_examples=60, deadline=None)
@given(_campaigns(), st.sampled_from([17, 64, 1000]), st.integers(1, 40))
@example(_aligned_campaign(), 17, 7)
@example(_boundary_campaign(), 17, 7)
def test_pings_from_the_table_give_the_engines_records_and_store_files(
        campaign, segment_records, run_records):
    """A campaign whose pings take their records from the table where
    they can gives the records, in the same order, that it gives with
    every ping through the engine (EngineTransport). Stored by a Runs
    sink of run_records records into segments of segment_records, they
    make the files that appending the engine's records one at a time
    makes."""
    topology, schedule, specs = campaign

    def run(transport_class, sink):
        network = SimNetwork(topology)
        clock = VirtualClock(START_US)
        produced, workers, transports = _Tee(sink), [], []
        for i, spec in enumerate(specs):
            transport = transport_class(network, clock, topology.routers[f"s{i}"].address,
                                        spec["fail"], spec["fail_rebuild"])
            workers.append(SourceWorker(spec["relations"], schedule, transport.rebuild,
                                        produced, start_us=START_US,
                                        end_us=spec["end_us"], seed=9))
            transports.append(transport)
        sim.drive_workers(workers, transports, clock)
        return produced

    def files(path):  # the segment files; none, nor the store, if no record came
        return {name.name: name.read_bytes() for name in path.glob("*-*")}

    with tempfile.TemporaryDirectory() as tmp:
        table, engine = Path(tmp) / "table", Path(tmp) / "engine"
        with RecordStore(table, segment_records=segment_records) as store, \
                store.runs(run_records) as sink:
            produced = run(_FlakyTransport, sink)
        with RecordStore(engine, segment_records=segment_records) as store:
            assert produced == run(_FlakyEngine, store)
        assert files(table) == files(engine)


def test_a_sim_run_makes_reply_bytes_for_traceroute_probes_alone(tmp_path, monkeypatch):
    """A 60 s sim-run of the benchmark's campaign topology, seed 7, makes
    reply bytes at most once per traceroute probe it sends: its pings, all
    answered, take their records from the table, not one reply each. A
    worker gets a packet only for reply bytes made, at most once each, and
    keeps a ping's deadline only while the ping is pending."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import netgen
    from run import Campaign
    netgen.write_inputs(netgen.build_network(7, **Campaign.SHAPE), tmp_path,
                        schedule=Campaign.SCHEDULE)
    assert Campaign.SCHEDULE["max_ttl"] < probe.PING_TTL  # a TTL tells pings apart
    counts = {"replies": 0, "pings": 0, "traceroute probes": 0, "responses": 0,
              "packets": 0, "packets not bytes": 0, "deadlines not pending": 0}
    reply_bytes, depart = icmp.reply_bytes_for_request, SimTransport.depart
    response_for = SimNetwork.response_for
    on_packet, on_wakeup = SourceWorker.on_packet, SourceWorker.on_wakeup

    def counted_reply_bytes(request, family):
        counts["replies"] += 1
        return reply_bytes(request, family)

    def counted_depart(self, ttl, destination):
        counts["pings" if ttl == probe.PING_TTL else "traceroute probes"] += 1
        return depart(self, ttl, destination)

    def counted_response_for(self, *args):
        response = response_for(self, *args)
        counts["responses"] += response is not None
        return response

    def counted_on_packet(self, data, source, t_us):
        counts["packets"] += 1
        counts["packets not bytes"] += type(data) is not bytes
        return on_packet(self, data, source, t_us)

    def checked_on_wakeup(self, now_us):
        on_wakeup(self, now_us)
        counts["deadlines not pending"] += sum(seq not in self._pending
                                               for _, seq in self._deadlines)

    monkeypatch.setattr(icmp, "reply_bytes_for_request", counted_reply_bytes)
    monkeypatch.setattr(SimTransport, "depart", counted_depart)
    monkeypatch.setattr(SimNetwork, "response_for", counted_response_for)
    monkeypatch.setattr(SourceWorker, "on_packet", counted_on_packet)
    monkeypatch.setattr(SourceWorker, "on_wakeup", checked_on_wakeup)
    assert cli.main(["sim-run", "--topology", str(tmp_path / "topology.yaml"),
                     "--duration", "60", "--seed", "7", "--store", str(tmp_path / "store")]) == 0
    assert counts["pings"] == 32 * 60
    assert 0 < counts["replies"] <= counts["traceroute probes"]
    assert 0 < counts["packets"] <= counts["responses"]
    assert counts["packets not bytes"] == 0
    assert counts["deadlines not pending"] == 0


@pytest.mark.parametrize("fixture", ["neighbor.yaml", "route_events.yaml"])
def test_a_ping_the_table_answers_builds_no_request_bytes(tmp_path, monkeypatch, fixture):
    """A sim-run builds request bytes (make_request_bytes) once for each
    probe that goes through the engine (SimNetwork.forward), and hands
    forward exactly those bytes; a ping that the table answers builds none."""
    counts = {"requests": 0, "forwarded": 0, "table pings": 0}
    made = set()
    make_request_bytes, forward, ping = (icmp.make_request_bytes, SimNetwork.forward,
                                         SimTransport.ping)

    def counted_make_request_bytes(*args, **kwargs):
        counts["requests"] += 1
        data = make_request_bytes(*args, **kwargs)
        made.add(data)
        return data

    def counted_forward(self, data, *args):
        counts["forwarded"] += 1
        assert data in made
        return forward(self, data, *args)

    def counted_ping(self, *args):
        sent = ping(self, *args)
        counts["table pings"] += sent is not None
        return sent

    monkeypatch.setattr(icmp, "make_request_bytes", counted_make_request_bytes)
    monkeypatch.setattr(SimNetwork, "forward", counted_forward)
    monkeypatch.setattr(SimTransport, "ping", counted_ping)
    topology = Path(__file__).resolve().parents[1] / "fixtures" / fixture
    assert cli.main(["sim-run", "--topology", str(topology), "--duration", "600",
                     "--seed", "3", "--store", str(tmp_path / "store")]) == 0
    assert counts["table pings"] > 0 and counts["forwarded"] > 0
    assert counts["requests"] == counts["forwarded"]


def test_a_probe_to_an_address_no_node_has_fails_before_anything_is_queued():
    """A ping the table would answer and a probe sent by its bytes both
    raise TransportFailure for a destination that no node has, before they
    depart and before anything is queued."""
    departed = []

    class Watched(SimTransport):
        def depart(self, ttl, destination):
            departed.append(destination)

    transport = Watched(SimNetwork(linear_topology(2)), VirtualClock(START_US), "10.0.0.1")
    for send in (lambda: transport.ping(icmp.request_prefix(Family.V4, 1, 1, START_US),
                                        "10.99.0.1", 3_000_000),
                 lambda: transport.send(icmp.make_request_bytes(Family.V4, 1, 1, START_US),
                                        probe.PING_TTL, "10.99.0.1")):
        with pytest.raises(TransportFailure, match="no simulated node has address 10.99.0.1"):
            send()
    assert (transport.table, transport.peek_arrival(), departed) == ([], None, [])


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


def test_one_builder_makes_workers_and_only_drive_workers_moves_the_clock():
    """In the package, SourceWorker is built only by probe.campaign_workers
    and VirtualClock.advance_to is called only by sim.drive_workers; a
    SimTransport cannot wait, as it has no receive."""
    import ast
    package = Path(sim.__file__).resolve().parent
    callers = {"SourceWorker": set(), "advance_to": set()}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if not isinstance(function, ast.FunctionDef):
                continue
            for node in ast.walk(function):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "attr", getattr(node.func, "id", None))
                    if name in callers:
                        callers[name].add(f"{path.stem}.{function.name}")
    assert callers == {"SourceWorker": {"probe.campaign_workers"},
                       "advance_to": {"sim.drive_workers"}}
    assert not hasattr(SimTransport, "receive")
