"""Deterministic in-process network simulator: the probe engine's test bed.

Models TTL decrement, ECMP next-hop selection keyed on the first 4 bytes of
the transport header, per-router ICMP response policies (responsive, silent,
token-bucket rate limit) and scripted topology changes on a virtual
microsecond clock, which drive_workers alone moves. Replies travel back
over the reverse of the forward path with the same accumulated latency, so
ping RTTs are exactly twice the one-way link latency sum. A ping whose
fate its send fixes takes its record from the table, keyed by the value of
its first four bytes, with no request or reply bytes made
(SimTransport.ping). run_scenario streams every record into the
caller's sink as it is produced and keeps no record or packet itself.

Topology files are YAML; see fixtures/ for the documented schema.
"""

from __future__ import annotations

import heapq
import ipaddress
import itertools
import math
from bisect import bisect_right
from pathlib import Path
from typing import Iterator, NamedTuple

from . import icmp, probe
from .config import (MalformedYaml, ProbeSchedule, RelationKey, TransportFailure,
                     load_yaml)
from .icmp import Family
from .records import STATUS_ECHO_REPLY, PingRecord

MAX_PATH_HOPS = 512

POLICY_RESPONSIVE = "responsive"
POLICY_SILENT = "silent"
POLICY_RATE_LIMIT = "rate_limit"

# Builds a named tuple from the tuple of all its fields without the
# generated __new__'s argument handling: once per probe, that adds up.
_new = tuple.__new__


class TopologyError(Exception):
    """Invalid topology definition."""


class RouterSpec(NamedTuple):
    name: str
    address: str


class Policy(NamedTuple):
    kind: str = POLICY_RESPONSIVE
    rate: int = 0  # responses per simulated second, rate_limit only


class SimEvent(NamedTuple):
    at_us: int
    action: str
    params: tuple


class SimTopology(NamedTuple):
    routers: dict[str, RouterSpec]
    links: dict[tuple[str, str], int]
    ecmp: dict[str, dict[str, tuple[str, ...]]]
    policies: dict[str, Policy]
    events: list[SimEvent]
    start_us: int = 1_609_459_200_000_000  # 2021-01-01T00:00:00Z
    measurement: dict | None = None

    def validate(self) -> None:
        for (u, v), latency in self.links.items():
            if u not in self.routers or v not in self.routers:
                raise TopologyError(f"link {u}->{v} references unknown router")
            if latency <= 0:
                raise TopologyError(f"link {u}->{v} latency must be positive")
        for router, groups in self.ecmp.items():
            if router not in self.routers:
                raise TopologyError(f"ecmp entry for unknown router {router}")
            for dest, group in groups.items():
                if not group:
                    raise TopologyError(f"empty ecmp group at {router} for {dest}")
                for hop in group:
                    if hop not in self.routers:
                        raise TopologyError(
                            f"ecmp group at {router} references unknown router {hop}")
        for router in self.policies:
            if router not in self.routers:
                raise TopologyError(f"policy for unknown router {router}")
        addresses = set()
        for router in self.routers.values():
            try:
                addresses.add(ipaddress.ip_address(router.address))
            except ValueError:
                raise TopologyError(f"router {router.name}: address must be an IP address, "
                                    f"got {router.address!r}") from None
        if len(addresses) != len(self.routers):
            raise TopologyError("router addresses must be unique")


def _parse_policy(raw, where: str) -> Policy:
    if raw in (None, POLICY_RESPONSIVE):
        return Policy(POLICY_RESPONSIVE)
    if raw == POLICY_SILENT:
        return Policy(POLICY_SILENT)
    if isinstance(raw, dict) and POLICY_RATE_LIMIT in raw:
        rate = _fields(raw, where, POLICY_RATE_LIMIT, integers=1)[0]
        if rate < 0:
            raise TopologyError("rate_limit must be >= 0")
        return Policy(POLICY_RATE_LIMIT, rate)
    raise TopologyError(f"unknown policy {raw!r}")


def _fields(entry, where: str, *names: str, integers: int = 0) -> tuple:
    """The values of names in entry, the last integers of them ints, not
    bools; else a TopologyError naming where."""
    if not isinstance(entry, dict) or not all(name in entry for name in names):
        raise TopologyError(f"{where} needs {', '.join(names)}")
    for name in names[len(names) - integers:]:
        if type(entry[name]) is not int:
            raise TopologyError(f"{where}: {name} must be an integer, got {entry[name]!r}")
    return tuple(entry[name] for name in names)


def _section(doc: dict, name: str, kind: type):
    section = doc.get(name) or kind()
    if not isinstance(section, kind):
        raise TopologyError(f"{name} must be a {'mapping' if kind is dict else 'list'}")
    return section


def topology_from_dict(doc: dict) -> SimTopology:
    routers = {}
    for name, spec in _section(doc, "routers", dict).items():
        if not isinstance(spec, dict) or "address" not in spec:
            raise TopologyError(f"router {name} needs an address")
        routers[name] = RouterSpec(name, str(spec["address"]))
    links = {}
    for number, entry in enumerate(_section(doc, "links", list), 1):
        u, v, latency = _fields(entry, f"link {number}", "from", "to", "latency_us", integers=1)
        links[(u, v)] = latency
    ecmp: dict[str, dict[str, tuple[str, ...]]] = {}
    for router, groups in _section(doc, "ecmp", dict).items():
        groups = {"default": groups} if isinstance(groups, list) else groups
        if not isinstance(groups, dict) or not all(type(g) is list for g in groups.values()):
            raise TopologyError(f"ecmp entry for {router} must be a list or a mapping of lists")
        ecmp[router] = {dest: tuple(group) for dest, group in groups.items()}
    policies = {router: _parse_policy(raw, f"policy of {router}")
                for router, raw in _section(doc, "policies", dict).items()}
    start_us = doc.get("start_time", 1_609_459_200_000_000)
    if type(start_us) is not int:
        raise TopologyError(f"start_time must be an integer, got {start_us!r}")
    events = []
    for number, entry in enumerate(_section(doc, "events", list), 1):
        where = f"event {number}"
        at, action = _fields(entry, where, "at", "action")
        if type(at) not in (int, float) or not -math.inf < at < math.inf:
            raise TopologyError(f"{where}: at must be a finite number of seconds, got {at!r}")
        if action in ("add_link", "set_latency"):
            params = _fields(entry, where, "from", "to", "latency_us", integers=1)
        elif action == "remove_link":
            params = _fields(entry, where, "from", "to")
        elif action == "set_policy":
            router, raw = _fields(entry, where, "router", "policy")
            params = (router, _parse_policy(raw, where))
        else:
            raise TopologyError(f"unknown event action {action!r}")
        events.append(SimEvent(start_us + int(round(at * 1_000_000)), action, params))
    events.sort(key=lambda e: e.at_us)
    measurement = doc.get("measurement")
    if measurement is not None and not isinstance(measurement, dict):
        raise TopologyError("measurement must be a mapping")
    topo = SimTopology(routers=routers, links=links, ecmp=ecmp,
                       policies=policies, events=events, start_us=start_us,
                       measurement=measurement)
    topo.validate()
    return topo


def load_topology(path: str | Path) -> SimTopology:
    """The validated topology of a YAML file; TopologyError if it is not
    YAML or breaks the schema, OSError if it cannot be read."""
    with open(path, "r", encoding="utf-8") as fp:
        try:
            doc = load_yaml(fp)
        except MalformedYaml as exc:
            raise TopologyError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise TopologyError(f"{path}: topology must be a mapping")
    return topology_from_dict(doc)


class VirtualClock:
    """Monotone integer-microsecond clock; drive_workers moves it by advance_to."""

    def __init__(self, start_us: int):
        self._now = start_us

    def now_us(self) -> int:
        return self._now

    def advance_to(self, t_us: int) -> None:
        if t_us < self._now:
            raise ValueError(f"clock cannot move backwards ({t_us} < {self._now})")
        self._now = t_us


class Outcome(NamedTuple):
    """Fate of one forwarded packet (exactly one per probe)."""

    kind: str  # delivered | time_exceeded | dropped
    node: str | None
    at_us: int
    latency_us: int
    reason: str = ""
    path: tuple[str, ...] = ()


class _EpochState:
    """Immutable topology view for one interval between events."""

    __slots__ = ("links", "policies", "adjacency")

    def __init__(self, links, policies):
        self.links = dict(links)
        self.policies = dict(policies)
        self.adjacency: dict[str, list[str]] = {}
        for (u, v) in links:
            self.adjacency.setdefault(u, []).append(v)
        for targets in self.adjacency.values():
            targets.sort()


class _Walk:
    """A packet's whole route from its ingress, regardless of TTL.

    path[i] is the router reached after i hops and latencies[i] the latency
    accumulated there; the walk ends delivered (path[-1] is the destination)
    or dropped for reason at path[-1]. A TTL t with 0 < t < expires_before
    expires at path[t]; any other TTL sees the walk's own end. echo_rtt is
    the table's entry: set only on a kept walk that is delivered to a
    destination whose policy in the walk's epoch is absent or responsive,
    the RTT of the echo reply that any probe it carries to its end gets.
    """

    __slots__ = ("path", "latencies", "kind", "node", "reason", "latency",
                 "expires_before", "echo_rtt")

    def __init__(self, path: tuple[str, ...], latencies: tuple[int, ...],
                 kind: str, reason: str = ""):
        self.path = path
        self.latencies = latencies
        self.kind = kind
        self.node = path[-1] if kind == "delivered" else None
        self.reason = reason
        self.latency = latencies[-1]
        # the destination answers a probe that reaches it with TTL to spare
        self.expires_before = len(path) - 1 if kind == "delivered" else len(path)
        self.echo_rtt: int | None = None


class _TokenBucket:
    __slots__ = ("tokens", "last_us")

    def __init__(self, capacity: float, now_us: int):
        self.tokens = capacity
        self.last_us = now_us

    def allow(self, now_us: int, rate: int) -> bool:
        if rate <= 0:
            return False
        capacity = float(rate)
        self.tokens = min(capacity,
                          self.tokens + (now_us - self.last_us) * rate / 1e6)
        self.last_us = now_us
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class SimNetwork:
    """Topology plus scripted events, evaluated at any virtual time.

    Routing depends only on the epoch (the interval between two events),
    the ingress, the destination and the probe's prefix modulo the lcm of
    the ECMP group sizes, so each such walk is computed once and reused by
    every probe that it carries from send to end within its epoch. Those
    kept walks are the table: per epoch, ingress, destination and prefix,
    the RTT of an echo reply fixed at send (echo_rtt).
    """

    def __init__(self, topology: SimTopology):
        self.topology = topology
        self._by_address = {r.address: r.name for r in topology.routers.values()}
        self._addresses = {r.name: r.address for r in topology.routers.values()}
        self._ecmp = {r: dict(g) for r, g in topology.ecmp.items()}
        # group[prefix % len(group)] == group[(prefix % period) % len(group)]
        # for every group, because every group size divides the period.
        self._ecmp_period = math.lcm(*(len(group) for groups in self._ecmp.values()
                                       for group in groups.values()))
        links, policies = dict(topology.links), dict(topology.policies)
        self._epoch_times = [topology.start_us]
        self._epochs = [_EpochState(links, policies)]
        for event in topology.events:
            if event.action in ("add_link", "set_latency"):
                u, v, latency = event.params
                links[(u, v)] = latency
            elif event.action == "remove_link":
                links.pop(event.params, None)
            elif event.action == "set_policy":
                router, policy = event.params
                policies[router] = policy
            self._epoch_times.append(event.at_us)
            self._epochs.append(_EpochState(links, policies))
        self._last_event_us = self._epoch_times[-1]  # the last epoch begins there
        self._walks: dict[tuple[int, str, str, int], _Walk] = {}
        self._buckets: dict[str, _TokenBucket] = {}

    def node_by_address(self, address: str) -> str:
        try:
            return self._by_address[address]
        except KeyError:
            raise TransportFailure(f"no simulated node has address {address}") from None

    def state_at(self, t_us: int) -> _EpochState:
        if t_us >= self._last_event_us:  # no bisect once the events are over
            return self._epochs[-1]
        idx = bisect_right(self._epoch_times, t_us) - 1
        return self._epochs[max(idx, 0)]

    def _next_hop(self, state: _EpochState, router: str, dest_node: str,
                  prefix_value: int) -> str | None:
        groups = self._ecmp.get(router)
        if groups:
            group = groups.get(dest_node) or groups.get("default")
            if group:
                return group[prefix_value % len(group)]
        neighbors = state.adjacency.get(router, [])
        if len(neighbors) == 1:
            return neighbors[0]
        return None

    def _walk(self, ingress: str, dest_node: str, prefix_value: int,
              t_us: int) -> _Walk:
        """Route a packet sent at t_us hop by hop, ignoring TTL, until it is
        delivered or dropped or MAX_PATH_HOPS hops are taken; each router
        decides by the topology of the moment the packet reaches it."""
        if ingress == dest_node:
            return _Walk((ingress,), (0,), "delivered")
        current, latency = ingress, 0
        path, latencies = [ingress], [0]
        for _ in range(MAX_PATH_HOPS):
            state = self.state_at(t_us + latency)
            nxt = self._next_hop(state, current, dest_node, prefix_value)
            if nxt is None:
                return _Walk(tuple(path), tuple(latencies), "dropped",
                             f"no route from {current}")
            link = state.links.get((current, nxt))
            if link is None:
                return _Walk(tuple(path), tuple(latencies), "dropped",
                             f"link {current}->{nxt} is down")
            latency += link
            path.append(nxt)
            latencies.append(latency)
            if nxt == dest_node:
                return _Walk(tuple(path), tuple(latencies), "delivered")
            current = nxt
        return _Walk(tuple(path), tuple(latencies), "dropped", "routing loop")

    def _walk_at(self, prefix: int, ingress: str, dest_node: str, t_us: int) -> _Walk:
        """The walk of a packet sent at t_us whose first icmp.PREFIX_LEN
        bytes have the big-endian value prefix: the kept one of its key if
        it ends in its send time's epoch, else a fresh one, kept if it does.
        A walk is kept with its echo_rtt."""
        residue = prefix % self._ecmp_period
        # The epoch is counted by bisect_right, which never decreases as
        # time grows: a walk that ends in its send time's epoch stayed there.
        # A packet sent in the last epoch stays in it, and needs no bisect.
        times = self._epoch_times
        last = t_us >= self._last_event_us
        epoch = len(times) if last else bisect_right(times, t_us)
        key = (epoch, ingress, dest_node, residue)
        walk = self._walks.get(key)
        if walk is None or not last and bisect_right(times, t_us + walk.latency) != epoch:
            walk = self._walk(ingress, dest_node, residue, t_us)
            if last or bisect_right(times, t_us + walk.latency) == epoch:
                self._walks[key] = walk
                if walk.kind == "delivered":
                    policy = self._epochs[max(epoch - 1, 0)].policies.get(walk.node)
                    if policy is None or policy.kind == POLICY_RESPONSIVE:
                        walk.echo_rtt = 2 * walk.latency
        return walk

    def echo_rtt(self, prefix: int, ttl: int, ingress: str, dest_node: str,
                 t_us: int) -> int | None:
        """The RTT of the echo reply to a probe sent at t_us whose first
        icmp.PREFIX_LEN bytes have the value prefix (icmp.request_prefix),
        if its send fixes it: the probe reaches a responsive destination,
        with TTL to spare, before the next event. Else None, and forward
        and response_for decide its fate. response_for would answer such a
        probe and charge no token bucket, and a reply's way back meets no
        event or policy, so only the way out must stay in one epoch."""
        walk = self._walk_at(prefix, ingress, dest_node, t_us)
        if 0 < ttl < walk.expires_before:
            return None
        return walk.echo_rtt

    def forward(self, data: bytes, ttl: int, ingress: str, dest_node: str,
                t_us: int) -> Outcome:
        """The packet's walk, cut at the router where its TTL runs out.

        Each forwarding router decrements the TTL; at zero the packet is
        dropped and a time-exceeded error originates from that router (so a
        TTL below 1 never expires). The ECMP next hop is group[prefix mod group
        size] where prefix is the big-endian value of the packet's first 4
        bytes: path choice depends on nothing else. A cached walk serves
        only a packet that it carries to its end before the next event;
        any other packet is walked afresh and that walk is not kept.
        """
        if ingress not in self._addresses:
            raise TransportFailure(f"unknown ingress node {ingress}")
        walk = self._walk_at(int.from_bytes(data[:icmp.PREFIX_LEN], "big"), ingress,
                             dest_node, t_us)
        path = walk.path
        if 0 < ttl < walk.expires_before:
            latency = walk.latencies[ttl]
            return _new(Outcome, ("time_exceeded", path[ttl], t_us + latency, latency, "",
                                  path[:ttl + 1]))
        return _new(Outcome, (walk.kind, walk.node, t_us + walk.latency, walk.latency,
                              walk.reason, path))

    def _policy_allows(self, node: str, t_us: int) -> bool:
        policy = self.state_at(t_us).policies.get(node)
        if policy is None:
            return True
        if policy.kind == POLICY_SILENT:
            return False
        if policy.kind == POLICY_RATE_LIMIT:
            bucket = self._buckets.get(node)
            if bucket is None:
                bucket = self._buckets[node] = _TokenBucket(float(max(policy.rate, 1)),
                                                            t_us)
            return bucket.allow(t_us, policy.rate)
        return True

    def response_for(self, outcome: Outcome, request: bytes, family: Family,
                     source_address: str) -> tuple[int, bytes, str] | None:
        """(arrival time at source, response bytes, responder address) or None.

        Responses retrace the forward path, so the return leg adds the same
        accumulated latency; response transit is not subject to policies.
        """
        kind, node, at_us, latency_us, _, _ = outcome
        if kind == "dropped":
            return None
        responder = self._addresses[node]
        if not self._policy_allows(node, at_us):
            return None
        if kind == "delivered":
            data = icmp.reply_bytes_for_request(request, family)
        else:
            data = icmp.encode_time_exceeded(request, family, source=responder,
                                             destination=source_address)
        return at_us + latency_us, data, responder


class TableEntry(NamedTuple):
    """The record of a ping that the table answered (SimTransport.ping),
    queued until its arrival: a heap of them is ordered by (arrival, index,
    counter)."""

    arrival: int
    index: int  # of the transport, and its worker, in the driver's lists
    counter: int  # the transport's, shared with its inbox entries
    record: PingRecord


class SimTransport:
    """probe.Transport bound to one simulated source node; replies wait in
    its inbox until a driver delivers them, and the records of pings that
    the table answered (ping) wait in its table until a driver hands them
    to the worker's sink.

    An inbox entry is (arrival, counter, data, responder): reply bytes from
    responder. A TableEntry takes a counter from the same count, so a driver
    can tell a record from the replies that came before and after it at
    its arrival (pop_table). The table is the transport's own heap, index
    0, until share_table joins it to a campaign's."""

    def __init__(self, network: SimNetwork, clock: VirtualClock, source_address: str):
        self.network = network
        self.clock = clock
        self.source_address = source_address
        self.source_node = network.node_by_address(source_address)
        self.family = icmp.family_of(source_address)
        self._inbox: list[tuple[int, int, bytes, str]] = []
        self._counter = itertools.count()
        self.table: list[TableEntry] = []
        self.index = 0

    def depart(self, ttl: int, destination: str) -> None:
        """Called for every probe as it leaves, by send and by ping alike,
        once its destination is known to be a node's and before anything
        is queued for it: a subclass overrides it to see each probe, or to
        fail one by raising TransportFailure."""

    def ping(self, prefix: int, destination: str, timeout_us: int) -> int | None:
        """Send a ping from the table if its send fixes an echo reply
        (SimNetwork.echo_rtt) no later than timeout_us after it: an echo
        request of TTL probe.PING_TTL whose first icmp.PREFIX_LEN bytes
        have the value prefix (icmp.request_prefix). It departs, and its
        record (sent, source, destination, echo reply, RTT) is queued in
        the table, due at the reply's arrival; no bytes are made. Returns
        the send time: the caller keeps neither a pending entry nor a
        deadline for the ping, as its driver hands the record to the
        worker's sink. Else returns None, having sent nothing, and the
        caller sends the ping's bytes by send. A destination that no node
        has raises TransportFailure."""
        now = self.clock.now_us()
        rtt = self.network.echo_rtt(prefix, probe.PING_TTL, self.source_node,
                                    self.network.node_by_address(destination), now)
        if rtt is None or rtt > timeout_us:
            return None
        self.depart(probe.PING_TTL, destination)
        record = _new(PingRecord, (now, self.source_address, destination,
                                   STATUS_ECHO_REPLY, rtt))
        heapq.heappush(self.table, _new(TableEntry, (
            now + rtt, self.index, next(self._counter), record)))
        return now

    def send(self, data: bytes, ttl: int, destination: str) -> int:
        """Send a probe's bytes through forward and response_for, queueing
        the reply they make, if any, in the inbox."""
        now = self.clock.now_us()
        dest_node = self.network.node_by_address(destination)
        self.depart(ttl, destination)
        outcome = self.network.forward(data, ttl, self.source_node, dest_node, now)
        response = self.network.response_for(outcome, data, self.family,
                                             self.source_address)
        if response is not None:
            arrival, payload, responder = response
            heapq.heappush(self._inbox,
                           (arrival, next(self._counter), payload, responder))
        return now

    def peek_arrival(self) -> int | None:
        return self._inbox[0][0] if self._inbox else None

    def pop_due(self, now_us: int) -> list[tuple[int, int, bytes, str]]:
        """The inbox entries due by now_us, (arrival, counter, data,
        responder), in that order."""
        inbox, out = self._inbox, []
        while inbox and inbox[0][0] <= now_us:
            out.append(heapq.heappop(inbox))
        return out


def share_table(transports: list[SimTransport]) -> list[TableEntry]:
    """One table for transports: each transport queues its records there
    under its index in transports, and the records it queued before move
    there."""
    table = []
    for index, transport in enumerate(transports):
        table.extend(entry._replace(index=index) for entry in transport.table)
        transport.table, transport.index = table, index
    heapq.heapify(table)
    return table


def pop_table(table: list[TableEntry], key: tuple) -> Iterator[tuple[int, int, PingRecord]]:
    """Pop the entries of a table below key, in key order, as (arrival,
    index, record).

    Every driver hands the records over by one rule, the order the
    replies' bytes would have given them: before a pass at instant t, the
    records due before t, key (t,); within the pass, before worker i's due
    reply of counter c, those below it, key (t, i, c); the rest of instant
    t, key (t, math.inf), after the replies and before any wakeup; and all
    that is left when the loop ends, key (math.inf,). The clock is moved
    to each record's arrival before its worker's sink takes it."""
    while table and table[0] < key:
        arrival, index, _, record = heapq.heappop(table)
        yield arrival, index, record


def drive_workers(workers: list[probe.SourceWorker], transports: list[SimTransport],
                  clock: VirtualClock) -> None:
    """Single-threaded event loop interleaving workers on the virtual clock.

    The clock jumps to the earliest pending arrival or worker wakeup. At
    that instant every due worker first gets its due arrivals, worker by
    worker in construction order; then the due wakeups run in that order.
    A reply that lands at the current instant waits for the next pass. Runs
    are reproducible, and the order matters: rate-limit token buckets are
    shared by all workers. The loop ends when no worker has a wakeup left
    (live counts those that do); arrivals still queued then are stray.

    The records that pings took from the table are no arrivals: they wait
    in one table for all transports (share_table), and each is handed to
    its worker's sink at its arrival by pop_table's rule, so a table
    record costs no pass of its own. The clock ends at the last wakeup or
    record.

    nexts[i] is the earlier of worker i's next wakeup and its earliest
    arrival (arrivals[i]). All three change only when that worker acts, so
    after a pass only the due workers' entries are recomputed. A pass
    costs the due workers' work plus a min and a count over nexts, done in
    C; only a pass at which several workers are due runs a comprehension
    over nexts. pop_due is called only for a worker whose earliest arrival
    is due.
    """
    inf = math.inf
    table = share_table(transports)
    sinks = [worker.sink for worker in workers]
    wakeups = [worker.next_wakeup() for worker in workers]
    arrivals = [transport.peek_arrival() for transport in transports]
    live = len(wakeups) - wakeups.count(None)
    now = clock.now_us()
    nexts = [now] * len(workers)  # the first pass, at the clock's time, sets them
    while live:
        first = min(nexts)
        if table and table[0][0] < first:
            for arrival, i, record in pop_table(table, (first,)):
                if arrival > now:
                    now = arrival
                    clock.advance_to(now)
                sinks[i].append(record)
        if first > now:
            now = first
            clock.advance_to(now)
        if first == now and nexts.count(now) == 1:
            due = (nexts.index(now),)
        else:
            due = [i for i, t in enumerate(nexts) if t <= now]
        for i in due:
            arrival = arrivals[i]
            if arrival is not None and arrival <= now:
                worker = workers[i]
                for arrival, counter, data, responder in transports[i].pop_due(now):
                    if table and table[0][0] <= arrival:
                        for _, j, record in pop_table(table, (arrival, i, counter)):
                            sinks[j].append(record)
                    worker.on_packet(data, responder, arrival)
                wakeup = worker.next_wakeup()
                if (wakeup is None) is not (wakeups[i] is None):
                    live += 1 if wakeup is not None else -1
                wakeups[i] = wakeup
        if table and table[0][0] <= now:
            for _, j, record in pop_table(table, (now, inf)):
                sinks[j].append(record)
        # a worker's wakeup and sends touch only its own entries, so each
        # due worker's next time is final once its wakeup has run
        for i in due:
            wakeup = wakeups[i]
            if wakeup is not None and wakeup <= now:
                worker = workers[i]
                worker.on_wakeup(now)
                wakeup = wakeups[i] = worker.next_wakeup()
                if wakeup is None:
                    live -= 1
            arrival = arrivals[i] = transports[i].peek_arrival()
            if arrival is None:
                nexts[i] = inf if wakeup is None else wakeup
            else:
                nexts[i] = arrival if wakeup is None or arrival < wakeup else wakeup
    for arrival, i, record in pop_table(table, (inf,)):
        if arrival > now:
            now = arrival
            clock.advance_to(now)
        sinks[i].append(record)


def run_scenario(topology: SimTopology, relations: list[RelationKey],
                 schedule: ProbeSchedule, duration_s: float, *, seed: int,
                 sink: probe.RecordSink) -> None:
    """Drive the probe engine against the simulator for a virtual duration.

    Every record goes to sink as it is produced (a RecordStore, or a plain
    list); nothing else is kept, so memory stays flat over long runs.
    Deterministic: equal (topology, relations, schedule, duration, seed)
    produce identical record sequences. Workers interleave on the shared
    virtual clock exactly as their wakeups and packet arrivals dictate.
    """
    network = SimNetwork(topology)
    clock = VirtualClock(topology.start_us)
    transports: dict[str, SimTransport] = {}
    # one per source: a worker that rebuilds its transport gets the same one
    workers = probe.campaign_workers(
        relations, schedule,
        lambda address: transports.setdefault(address, SimTransport(network, clock, address)),
        sink, start_us=topology.start_us,
        end_us=topology.start_us + int(round(duration_s * 1_000_000)), seed=seed)
    drive_workers(workers, [transports[w.source_address] for w in workers], clock)
