"""Ping and traceroute probe engine over injected transport and clock.

One worker handles all relations of one source address; workers never share
state beyond the record sink, so they can run as threads against raw
sockets or single-threaded against the simulator's virtual clock;
campaign_workers builds them for either. A traceroute run is a small state
machine (TracerouteProbeRun) that the worker drives; run_relation_worker
is the blocking driver for one worker on a live transport.
"""

from __future__ import annotations

import heapq
import random
import select
import socket
import time
from typing import Callable, NamedTuple, Protocol

from . import icmp
from .config import ProbeSchedule, RelationKey, TransportFailure
from .icmp import ECHO_REPLY, TIME_EXCEEDED, Family
from .records import (STATUS_ECHO_REPLY, STATUS_TIME_EXCEEDED, STATUS_TIMEOUT,
                      Hop, PingRecord, TracerouteRun)


def _warn(message: str, *args) -> None:
    """A warning on this module's logger. logging is imported at the first
    one, so a run that meets nothing to report never loads it."""
    import logging
    logging.getLogger(__name__).warning(message, *args, stacklevel=2)


PING_TTL = 64
SEQUENCE_SPACE = 0x10000

# Builds a named tuple from the tuple of all its fields without the
# generated __new__'s argument handling: once per probe, that adds up.
_new = tuple.__new__


class Transport(Protocol):
    """A transport may also have ping(prefix, destination, timeout_us) ->
    send time or None, a table that answers a ping by the value of its
    request's first icmp.PREFIX_LEN bytes (icmp.request_prefix) alone
    (sim.SimTransport.ping). A worker asks it first, when there: a ping it
    answers costs no request bytes, no pending entry and no deadline, as
    the driver hands its record to the worker's sink; a ping it does not
    answer (None) is built by icmp.make_request_bytes and sent by send."""

    def send(self, data: bytes, ttl: int, destination: str) -> int:
        """Send one probe; returns the send timestamp in microseconds."""

    def receive(self, deadline_us: int) -> tuple[bytes, str, int] | None:
        """Next (data, source address, timestamp) no later than deadline,
        waiting for it; only live transports have it, for run_relation_worker."""


class Clock(Protocol):
    def now_us(self) -> int: ...


def _status_of(kind: icmp.Kind) -> int | None:
    return (STATUS_ECHO_REPLY if kind is ECHO_REPLY
            else STATUS_TIME_EXCEEDED if kind is TIME_EXCEEDED else None)


class TracerouteProbeRun:
    """State of one traceroute run: a TTL burst and its outstanding probes.

    All requests go out back to back; with crafting enabled they share one
    checksum and therefore one 4-byte header prefix, so ECMP load balancers
    keep the whole run on a single path.
    """

    def __init__(self, relation: RelationKey, schedule: ProbeSchedule,
                 identifier: int, seq_base: int, round_index: int,
                 transport: Transport, now_us: int):
        self.relation = relation
        self.schedule = schedule
        self.identifier = identifier
        self.round_index = round_index
        self.start_us = now_us
        self.deadline = now_us + schedule.reply_timeout_us
        self._pending: dict[tuple[int, int], int] = {}
        self._send_time: dict[int, int] = {}
        self._resolved: dict[int, tuple[int, str | None, int | None]] = {}

        # The first request goes out unpinned; its checksum pins the rest.
        target = None
        for ttl in range(1, schedule.max_ttl + 1):
            seq = (seq_base + ttl - 1) & 0xFFFF
            data = icmp.make_request_bytes(
                relation.ip_version, identifier, seq, now_us,
                target_checksum=target, source=relation.source_address,
                destination=relation.destination_address)
            if ttl == 1 and schedule.craft_constant_checksum:
                target = int.from_bytes(data[2:4], "big")
            sent = transport.send(data, ttl, relation.destination_address)
            self._send_time[ttl] = sent
            self._pending[(identifier, seq)] = ttl

    def on_packet(self, decoded: icmp.DecodedMessage, source: str, t_us: int) -> bool:
        """Attribute a reply, decoded for this run's source address, to its
        probe; returns True when consumed."""
        key = decoded.match_key
        if key is None or key not in self._pending:
            return False
        status = _status_of(decoded.kind)
        if status is None:
            return False
        ttl = self._pending.pop(key)
        if not decoded.checksum_ok:
            _warn("checksum mismatch on %s reply from %s (kept)",
                  self.relation.destination_address, source)
        self._resolved[ttl] = (status, source, t_us - self._send_time[ttl])
        return True

    def _terminal_ttl(self) -> int | None:
        replies = [ttl for ttl, (status, _, _) in self._resolved.items()
                   if status == STATUS_ECHO_REPLY]
        return min(replies) if replies else None

    def completed(self, now_us: int) -> bool:
        if now_us >= self.deadline or not self._pending:
            return True
        terminal = self._terminal_ttl()
        if terminal is not None:
            return all(ttl in self._resolved for ttl in range(1, terminal))
        return False

    def result(self) -> TracerouteRun:
        """Run record: hops up to the first echo reply, or all TTLs if none."""
        terminal = self._terminal_ttl()
        cut = terminal if terminal is not None else self.schedule.max_ttl
        hops = []
        for ttl in range(1, cut + 1):
            status, address, rtt = self._resolved.get(ttl, (STATUS_TIMEOUT, None, None))
            hops.append(Hop(ttl, status, address, rtt))
        return TracerouteRun(self.start_us, self.relation.source_address,
                             self.relation.destination_address,
                             self.round_index, tuple(hops))


class _PendingPing(NamedTuple):
    destination: str
    sent_us: int


class RecordSink(Protocol):
    def append(self, record) -> None: ...


_BACKOFF_INITIAL_US = 1_000_000
_BACKOFF_CAP_US = 30_000_000


class SourceWorker:
    """All measurement scheduling for one source address.

    Ping bursts fire every ping interval to all destinations at once;
    traceroute cycles start on a jittered interval grid and probe each
    destination sequentially with the configured number of rounds. Driven
    by next_wakeup()/on_wakeup()/on_packet(): run_relation_worker drives
    it on a live transport, sim.drive_workers on the virtual clock.
    """

    def __init__(self, relations: list[RelationKey], schedule: ProbeSchedule,
                 transport_factory: Callable[[], Transport], sink: RecordSink, *,
                 start_us: int, end_us: int, seed: int = 0):
        if not relations:
            raise ValueError("worker needs at least one relation")
        sources = {r.source_address for r in relations}
        if len(sources) != 1:
            raise ValueError("one worker handles exactly one source address")
        self.source_address = relations[0].source_address
        self.relations = list(relations)
        self._family = relations[0].ip_version
        self.schedule = schedule
        self._reply_timeout_us = schedule.reply_timeout_us
        self._ping_interval_us = schedule.ping_interval_us
        self.sink = sink
        self.start_us = start_us
        self.end_us = end_us
        self._factory = transport_factory
        self.transport = transport_factory()

        rng = random.Random(f"{seed}:{self.source_address}")
        self.identifier = rng.randrange(1, SEQUENCE_SPACE)
        self._jitter_rng = random.Random(f"{seed}:{self.source_address}:jitter")

        self._block = SEQUENCE_SPACE // len(self.relations)
        self._counters = [0] * len(self.relations)

        self._next_ping_us = start_us
        self._cycle_index = 0
        self._next_cycle_us = self._cycle_start(0)

        self._pending: dict[int, _PendingPing] = {}
        self._deadlines: list[tuple[int, int]] = []
        self._cycle_queue: list[tuple[int, int]] = []
        self._active: TracerouteProbeRun | None = None
        self._backoff_until: int | None = None
        self._backoff_us = _BACKOFF_INITIAL_US

    # -- sequence allocation: each relation owns a block of the 16-bit space

    def _alloc(self, relation_idx: int, count: int = 1) -> int:
        block, counter = self._block, self._counters[relation_idx]
        if (counter % block) + count > block:
            counter += block - (counter % block)
        start = relation_idx * block + (counter % block)
        self._counters[relation_idx] = counter + count
        return start

    def _cycle_start(self, index: int) -> int:
        # Jitter is one-sided so exactly duration/interval cycles fit into a
        # run, while workers still desynchronize.
        interval = self.schedule.traceroute_interval_us
        jitter = self._jitter_rng.uniform(0.0, self.schedule.jitter_fraction)
        return self.start_us + index * interval + int(jitter * interval)

    # -- scheduling surface -------------------------------------------------

    def next_wakeup(self) -> int | None:
        """The earliest of the back-off's end, or else of the next ping tick
        and the next cycle before end_us, or the active run's deadline in
        place of the cycle; and of the earliest ping deadline. None when
        nothing is left. Plain comparisons, no list: the drivers ask after
        every event."""
        if self._backoff_until is not None:
            wakeup = self._backoff_until
        elif self._active is None:
            wakeup = self._next_ping_us
            if self._next_cycle_us < wakeup:
                wakeup = self._next_cycle_us
            if wakeup >= self.end_us:
                wakeup = None
        else:
            wakeup = self._active.deadline
            if self._next_ping_us < self.end_us and self._next_ping_us < wakeup:
                wakeup = self._next_ping_us
        if self._deadlines:
            deadline = self._deadlines[0][0]
            if wakeup is None or deadline < wakeup:
                wakeup = deadline
        return wakeup

    def on_wakeup(self, now_us: int) -> None:
        self._expire_pings(now_us)
        if self._backoff_until is not None:
            if now_us >= self._backoff_until:
                self._resume_transport(now_us)
            return
        if self._active is not None and self._active.completed(now_us):
            self._finish_active(now_us)
        if (self._active is None  # then the queue is empty
                and self._next_cycle_us <= now_us and self._next_cycle_us < self.end_us):
            self._begin_cycle(now_us)
        while self._next_ping_us <= now_us and self._next_ping_us < self.end_us:
            tick = self._next_ping_us
            self._next_ping_us += self._ping_interval_us
            self._ping_burst(tick, now_us)

    def on_packet(self, data: bytes, source: str, t_us: int) -> None:
        """Decode a reply once, then give it to the active traceroute run,
        or else match it to a pending ping."""
        try:
            decoded = icmp.decode_message(data, self._family, source=source,
                                          destination=self.source_address)
        except icmp.Truncated:
            return
        if self._active is not None and self._active.on_packet(decoded, source, t_us):
            if self._active.completed(t_us):
                self._finish_active(t_us)
            return
        self._match_ping(decoded, t_us)

    # -- ping ---------------------------------------------------------------

    def _ping_burst(self, tick_us: int, now_us: int) -> None:
        transport, timeout, identifier = self.transport, self._reply_timeout_us, self.identifier
        ping = getattr(transport, "ping", None)
        for idx, relation in enumerate(self.relations):
            seq = self._alloc(idx)
            family, source = relation.ip_version, relation.source_address
            destination = relation.destination_address
            try:
                if ping is not None and ping(icmp.request_prefix(
                        family, identifier, seq, now_us, source=source,
                        destination=destination), destination, timeout) is not None:
                    continue  # the table answered: the driver hands its record to the sink
                sent = transport.send(icmp.make_request_bytes(
                    family, identifier, seq, now_us, source=source,
                    destination=destination), PING_TTL, destination)
            except TransportFailure as exc:
                self._enter_backoff(now_us, exc)
                return
            self._pending[seq] = _new(_PendingPing, (destination, sent))
            heapq.heappush(self._deadlines, (sent + timeout, seq))

    def _match_ping(self, decoded: icmp.DecodedMessage, t_us: int) -> None:
        kind, _, identifier, sequence, _, _ = decoded
        if identifier != self.identifier or sequence is None:
            return  # no match key, or another worker's
        status = _status_of(kind)
        if status is None:
            return  # leaves the ping pending
        pending = self._pending.pop(sequence, None)
        if pending is None:
            return  # duplicate or late reply: the first resolution stands
        destination, sent = pending
        self.sink.append(_new(PingRecord, (
            sent, self.source_address, destination, status,
            t_us - sent if status == STATUS_ECHO_REPLY else None)))

    def _expire_pings(self, now_us: int) -> None:
        while self._deadlines and self._deadlines[0][0] <= now_us:
            _, seq = heapq.heappop(self._deadlines)
            pending = self._pending.pop(seq, None)
            if pending is None:
                continue  # already answered
            destination, sent = pending
            self.sink.append(_new(PingRecord, (sent, self.source_address, destination,
                                               STATUS_TIMEOUT, None)))

    # -- traceroute cycles --------------------------------------------------

    def _begin_cycle(self, now_us: int) -> None:
        self._cycle_index += 1
        self._next_cycle_us = self._cycle_start(self._cycle_index)
        self._cycle_queue = [(idx, rnd)
                             for idx in range(len(self.relations))
                             for rnd in range(self.schedule.traceroute_rounds)]
        self._start_next_run(now_us)

    def _start_next_run(self, now_us: int) -> None:
        """Start the queue's next run. It cannot be complete as it starts:
        it has max_ttl >= 1 probes pending and a deadline after now_us."""
        idx, rnd = self._cycle_queue.pop(0)
        seq_base = self._alloc(idx, self.schedule.max_ttl)
        try:
            self._active = TracerouteProbeRun(self.relations[idx], self.schedule,
                                              self.identifier, seq_base, rnd,
                                              self.transport, now_us)
        except TransportFailure as exc:
            self._enter_backoff(now_us, exc)

    def _finish_active(self, now_us: int) -> None:
        self.sink.append(self._active.result())
        self._active = None
        if self._cycle_queue:
            self._start_next_run(now_us)

    # -- failure handling ---------------------------------------------------

    def _enter_backoff(self, now_us: int, exc: Exception) -> None:
        _warn("transport failure on %s: %s; backing off %.1f s",
              self.source_address, exc, self._backoff_us / 1e6)
        if self._active is not None:
            # Partial run: probes beyond the failure were never sent, so a
            # record would fabricate timeouts. Drop it loudly.
            _warn("discarding interrupted traceroute run to %s",
                  self._active.relation.destination_address)
            self._active = None
        self._cycle_queue = []
        self._backoff_until = now_us + self._backoff_us
        self._backoff_us = min(self._backoff_us * 2, _BACKOFF_CAP_US)

    def _resume_transport(self, now_us: int) -> None:
        try:
            self.transport = self._factory()
        except TransportFailure as exc:
            self._backoff_until = now_us + self._backoff_us
            self._backoff_us = min(self._backoff_us * 2, _BACKOFF_CAP_US)
            _warn("transport rebuild failed on %s: %s", self.source_address, exc)
            return
        self._backoff_until = None
        self._backoff_us = _BACKOFF_INITIAL_US
        # Skip ticks missed while down; fabricating them would lie.
        interval = self._ping_interval_us
        if self._next_ping_us <= now_us:
            missed = (now_us - self._next_ping_us) // interval + 1
            self._next_ping_us += missed * interval
        while self._next_cycle_us <= now_us:
            self._cycle_index += 1
            self._next_cycle_us = self._cycle_start(self._cycle_index)


def campaign_workers(relations: list[RelationKey], schedule: ProbeSchedule,
                     transport_for: Callable[[str], Transport], sink: RecordSink, *,
                     start_us: int, end_us: int, seed: int) -> list[SourceWorker]:
    """A SourceWorker per source address, in sorted order; transport_for(address)
    makes its transport, at construction and after a transport failure."""
    by_source: dict[str, list[RelationKey]] = {}
    for relation in relations:
        by_source.setdefault(relation.source_address, []).append(relation)
    return [SourceWorker(by_source[address], schedule,
                         lambda a=address: transport_for(a), sink,
                         start_us=start_us, end_us=end_us, seed=seed)
            for address in sorted(by_source)]


class LiveClock:
    """Epoch-anchored monotonic clock: wall-clock timestamps, no backsteps."""

    def __init__(self):
        self._offset = time.time_ns() // 1000 - time.monotonic_ns() // 1000

    def now_us(self) -> int:
        return time.monotonic_ns() // 1000 + self._offset


class RawIcmpTransport:
    """probe.Transport over a raw ICMP/ICMPv6 socket (needs privileges).

    Raw v4 sockets deliver the full IP packet; the header is stripped before
    hand-off so both families present bare ICMP messages. PermissionError
    propagates so callers can distinguish privilege problems from transport
    failures.
    """

    def __init__(self, source_address: str, clock: Clock | None = None):
        self.source_address = source_address
        self.family = icmp.family_of(source_address)
        self.clock = clock or LiveClock()
        if self.family is Family.V4:
            self._sock = socket.socket(socket.AF_INET, socket.SOCK_RAW,
                                       socket.IPPROTO_ICMP)
        else:
            self._sock = socket.socket(socket.AF_INET6, socket.SOCK_RAW,
                                       socket.getprotobyname("ipv6-icmp"))
        try:
            self._sock.bind((source_address, 0))
        except OSError as exc:
            self._sock.close()
            raise TransportFailure(f"cannot bind {source_address}: {exc}") from exc
        self._sock.setblocking(False)

    def send(self, data: bytes, ttl: int, destination: str) -> int:
        try:
            if self.family is Family.V4:
                self._sock.setsockopt(socket.IPPROTO_IP, socket.IP_TTL, ttl)
            else:
                self._sock.setsockopt(socket.IPPROTO_IPV6,
                                      socket.IPV6_UNICAST_HOPS, ttl)
            self._sock.sendto(data, (destination, 0))
        except OSError as exc:
            raise TransportFailure(str(exc)) from exc
        return self.clock.now_us()

    def receive(self, deadline_us: int) -> tuple[bytes, str, int] | None:
        while True:
            now = self.clock.now_us()
            if now >= deadline_us:
                return None
            readable, _, _ = select.select([self._sock], [], [],
                                           (deadline_us - now) / 1e6)
            if not readable:
                return None
            try:
                data, addr = self._sock.recvfrom(65535)
            except OSError as exc:
                raise TransportFailure(str(exc)) from exc
            if self.family is Family.V4 and data and (data[0] >> 4) == 4:
                data = data[(data[0] & 0x0F) * 4:]
            return data, addr[0], self.clock.now_us()

    def close(self) -> None:
        self._sock.close()


def run_relation_worker(worker: SourceWorker, clock: Clock,
                        should_stop: Callable[[], bool] = lambda: False) -> None:
    """Blocking driver: runs one worker against a live transport."""
    while not should_stop():
        wakeup = worker.next_wakeup()
        if wakeup is None:
            return
        # Cap the wait so should_stop() is polled even on an idle network.
        deadline = min(wakeup, clock.now_us() + 250_000)
        packet = worker.transport.receive(deadline)
        if packet is not None:
            worker.on_packet(*packet)
        if clock.now_us() >= wakeup:
            worker.on_wakeup(clock.now_us())
