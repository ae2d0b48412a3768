"""Shared fixtures: a time limit on every test, small topologies, relation
builders and probe drivers."""

import faulthandler
import heapq
import math
import os
import signal
import sys

import pytest

from contrace import icmp
from contrace.columnar import Segment
from contrace.icmp import Family
from contrace.probe import (ProbeSchedule, RelationKey, SourceWorker,
                            TracerouteProbeRun, run_relation_worker)
from contrace.records import (KIND_PING, KIND_TRACEROUTE, PathRuns, PingColumns, PingRecord,
                              StoreQuery)
from contrace.sim import SimNetwork, SimTransport, VirtualClock, pop_table, topology_from_dict

START_US = 1_609_459_200_000_000  # 2021-01-01T00:00:00Z
TIME_LIMIT_S = 60  # per test; the slowest takes under 10 s


_stderr = None  # the run's stderr, as a descriptor that output capture leaves alone


def pytest_configure(config):
    global _stderr
    _stderr = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(_stderr)


class TimeLimitExceeded(BaseException):
    """A test ran longer than TIME_LIMIT_S. Not an Exception, so Hypothesis
    does not take it for a failing example and run the test again."""


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that runs longer than TIME_LIMIT_S, so a loop that never
    ends fails the suite instead of hanging it: a SIGALRM raises
    TimeLimitExceeded in the test. A signal's handler runs only between
    bytecodes, so should the test be stuck in C, faulthandler prints every
    thread's stack and ends the run TIME_LIMIT_S later."""
    def expired(signum, frame):
        raise TimeLimitExceeded(f"the test ran longer than {TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    faulthandler.dump_traceback_later(2 * TIME_LIMIT_S, exit=True, file=_stderr)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def add_record(segment: Segment, record) -> None:
    """Append a valid record's row to segment (Segment.add_rows), learning
    its shape (Segment.encode)."""
    segment.add_rows((segment.encode(record)[1],))


def path_runs(runs) -> PathRuns:
    """runs grouped by path as a store read groups them, through
    add_record and Segment.group; as in a PathRuns, the pair of each run
    is not kept."""
    segment = Segment(KIND_TRACEROUTE)
    for run in runs:
        add_record(segment, run._replace(source="", destination=""))
    grouped = {}
    segment.group(StoreQuery(KIND_TRACEROUTE), grouped)
    return grouped.get(("", ""), PathRuns())


def ping_columns(pings) -> PingColumns:
    """pings as columns as a store read gives them, through add_record
    and Segment.pings; as in a PingColumns, the pair of each ping is not
    kept."""
    segment = Segment(KIND_PING)
    for ping in pings:
        add_record(segment, ping._replace(source="", destination=""))
    columns = PingColumns()
    segment.pings(StoreQuery(KIND_PING), columns)
    return columns


def linear_topology(n_routers: int, latencies=None, *, policies=None, events=None):
    """src -> r1 .. rN -> dst chain; latencies per link in order."""
    n_links = n_routers + 1
    latencies = latencies or [1000] * n_links
    assert len(latencies) == n_links
    names = ["src"] + [f"r{i}" for i in range(1, n_routers + 1)] + ["dst"]
    routers = {name: {"address": f"10.0.{i}.1"} for i, name in enumerate(names)}
    links = [{"from": a, "to": b, "latency_us": lat}
             for a, b, lat in zip(names, names[1:], latencies)]
    doc = {"start_time": START_US, "routers": routers, "links": links}
    if policies:
        doc["policies"] = policies
    if events:
        doc["events"] = events
    return topology_from_dict(doc)


def ecmp4_topology(branch_hops: int = 2):
    """src -> lb -> one of 4 parallel branches -> join -> dst.

    Branch routers carry addresses 10.3.<branch>.<position> so tests can
    recover which branch a hop belongs to.
    """
    routers = {
        "src": {"address": "10.0.0.1"},
        "lb": {"address": "10.1.0.1"},
        "join": {"address": "10.4.0.1"},
        "dst": {"address": "10.5.0.1"},
    }
    links = [{"from": "src", "to": "lb", "latency_us": 500}]
    branch_heads = []
    for b in range(4):
        prev = None
        for pos in range(1, branch_hops + 1):
            name = f"b{b}p{pos}"
            routers[name] = {"address": f"10.3.{b}.{pos}"}
            if pos == 1:
                branch_heads.append(name)
                links.append({"from": "lb", "to": name, "latency_us": 600})
            else:
                links.append({"from": prev, "to": name, "latency_us": 700})
            prev = name
        links.append({"from": prev, "to": "join", "latency_us": 900})
    links.append({"from": "join", "to": "dst", "latency_us": 400})
    return topology_from_dict({
        "start_time": START_US,
        "routers": routers,
        "links": links,
        "ecmp": {"lb": {"default": branch_heads}},
    })


def relation_for(topology, src_node="src", dst_node="dst",
                 src_label="SrcISP", dst_label="DstISP"):
    src = topology.routers[src_node].address
    dst = topology.routers[dst_node].address
    return RelationKey(Family.V4, src_label, dst_label, src, dst)


@pytest.fixture
def quick_schedule():
    return ProbeSchedule(ping_interval_s=1.0, traceroute_interval_s=300.0,
                         traceroute_rounds=3, max_ttl=20, reply_timeout_s=3.0)


class BlockingSimTransport(SimTransport):
    """A SimTransport with the receive of a live transport, which waits: it
    moves the virtual clock to the next arrival, or to the deadline if none
    comes before it. The table records due by then go to sink first, at
    their arrival, by pop_table's rule with one reply a pass; the driver
    hands over the rest when its loop ends. Drives one worker by
    run_relation_worker, or one TracerouteProbeRun; a campaign's clock is
    moved by drive_workers."""

    def __init__(self, network, clock, source_address, sink=None):
        super().__init__(network, clock, source_address)
        self.sink = sink

    def hand_over(self, key=(math.inf,)):
        """Hand the table records below key to sink, each at its arrival;
        by default all that are left."""
        for arrival, _, record in pop_table(self.table, key):
            if arrival > self.clock.now_us():
                self.clock.advance_to(arrival)
            self.sink.append(record)

    def receive(self, deadline_us):
        if self._inbox and self._inbox[0][0] <= deadline_us:
            arrival, counter, data, responder = heapq.heappop(self._inbox)
            self.hand_over((arrival, self.index, counter))
            if arrival > self.clock.now_us():
                self.clock.advance_to(arrival)
            return data, responder, arrival
        self.hand_over((deadline_us, math.inf))
        if deadline_us > self.clock.now_us():
            self.clock.advance_to(deadline_us)
        return None


def ping_once(topology, relation, *, reply_timeout_s=3.0, seed=0):
    """The record of one ping tick, matched by the production worker.

    A SourceWorker whose run ends right after its first tick is driven by
    run_relation_worker over a BlockingSimTransport. Returns (record, clock).
    """
    clock = VirtualClock(topology.start_us)
    sink = []
    transport = BlockingSimTransport(SimNetwork(topology), clock,
                                     relation.source_address, sink)
    schedule = ProbeSchedule(reply_timeout_s=reply_timeout_s)
    worker = SourceWorker([relation], schedule, lambda: transport, sink,
                          start_us=topology.start_us,
                          end_us=topology.start_us + 1, seed=seed)
    run_relation_worker(worker, clock)
    transport.hand_over()
    pings = [r for r in sink if isinstance(r, PingRecord)]
    assert len(pings) == 1
    return pings[0], clock


def traceroute_once(relation, schedule, transport, clock):
    """One TracerouteProbeRun taken to completion over a BlockingSimTransport."""
    run = TracerouteProbeRun(relation, schedule, identifier=1, seq_base=0,
                             round_index=0, transport=transport,
                             now_us=clock.now_us())
    while not run.completed(clock.now_us()):
        packet = transport.receive(run.deadline)
        if packet is not None:
            data, source, t_us = packet
            run.on_packet(icmp.decode_message(data, relation.ip_version, source=source,
                                              destination=relation.source_address),
                          source, t_us)
    return run.result()


@pytest.fixture
def sent_probes(monkeypatch):
    """Every probe a SimTransport sends by its bytes (send) during the
    test, as (t_us, ttl, data): not a ping that the table answers."""
    sent = []
    send = SimTransport.send

    def logged_send(self, data, ttl, destination):
        t_us = send(self, data, ttl, destination)
        sent.append((t_us, ttl, data))
        return t_us

    monkeypatch.setattr(SimTransport, "send", logged_send)
    return sent


def _reply_doc(ts):
    return ('{"timestamp": %d, "source": "10.0.0.1", "destination": "10.0.0.2", '
            '"status": 255, "rtt": %d}' % (ts, ts))


# NDJSON with every kind of line boundary str.splitlines knows: a leading
# blank line, CRLF, a blank and a whitespace-only line, two documents joined
# by a raw U+2028, a bare CR, a form feed, and a last line without newline.
# Lines 4 ({broken) and 11 (cut document) are rejected; six pings are stored.
MIXED_NDJSON = ("\n" + _reply_doc(1) + "\r\n\n  \t\n{broken\r\n" + _reply_doc(2)
                + "\u2028" + _reply_doc(3) + "\n\n" + _reply_doc(4) + "\r"
                + _reply_doc(5) + "\x0c\n" + '{"timestamp": 7,\n' + _reply_doc(6))
MIXED_NDJSON_REJECTED = [4, 11]
