"""Canonical NDJSON archive dumps with their ground truth.

The dump follows the record schema in the README: one document per line,
keys in canonical order, records in timestamp order. Every timestamp is
unique (pings sit at 0-499 µs past a millisecond, traceroute runs at
600-999 µs), so `export` of a store that imported the dump must reproduce
it byte for byte. Like tests/oracles.py this module shares no code with the
package: both commits under comparison get identical input.

The ground truth keeps, for every run, the ECMP branch it took, which hops
were silent and every RTT, and for every ping its status and RTT.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from netgen import Network

STATUS_TIMEOUT = 0
STATUS_TIME_EXCEEDED = 1
STATUS_ECHO_REPLY = 255

ROUNDS = 3  # traceroute rounds per cycle
MAX_TTL = 24
# One weight per ECMP branch; the third branch is rare, so some links fall
# below a graph threshold of a few percent.
BRANCH_WEIGHTS = (0.6, 0.385, 0.015)
PING_TIMEOUT_P = 0.004
PING_TIME_EXCEEDED_P = 0.001
RATE_LIMITED_SILENT_P = 0.3
HOP_SILENT_P = 0.005
UNREACHED_P = 0.01


@dataclass(frozen=True, slots=True)
class ArchiveSpec:
    """Schedule and span of one archive."""

    start_us: int
    pings_per_relation: int
    ping_interval_s: int
    cycles: int
    cycle_interval_s: int


@dataclass(frozen=True, slots=True)
class Hop:
    hop: int
    address: str | None
    status: int
    rtt: int | None


@dataclass(frozen=True, slots=True)
class Ping:
    timestamp: int
    relation: int
    status: int
    rtt: int | None
    branch: int


@dataclass(frozen=True, slots=True)
class Run:
    timestamp: int
    relation: int
    round: int
    branch: int
    hops: tuple[Hop, ...]


@dataclass(slots=True)
class Archive:
    pings: list[Ping]
    runs: list[Run]
    text: str  # the dump

    def relation_pings(self, relation: int) -> list[Ping]:
        return [p for p in self.pings if p.relation == relation]

    def relation_runs(self, relation: int, start: int | None = None,
                      end: int | None = None) -> list[Run]:
        return [r for r in self.runs if r.relation == relation
                and (start is None or r.timestamp >= start)
                and (end is None or r.timestamp < end)]


def _ping_line(src: str, dst: str, ping: Ping) -> str:
    rtt = "" if ping.rtt is None else f',"rtt":{ping.rtt}'
    return (f'{{"timestamp":{ping.timestamp},"source":"{src}",'
            f'"destination":"{dst}","status":{ping.status}{rtt}}}\n')


def _run_line(src: str, dst: str, run: Run) -> str:
    hops = []
    for h in run.hops:
        if h.status == STATUS_TIMEOUT:
            hops.append(f'{{"hop":{h.hop},"status":0}}')
        else:
            hops.append(f'{{"hop":{h.hop},"address":"{h.address}",'
                        f'"status":{h.status},"rtt":{h.rtt}}}')
    return (f'{{"timestamp":{run.timestamp},"source":"{src}",'
            f'"destination":"{dst}","round":{run.round},'
            f'"hops":[{",".join(hops)}]}}\n')


def generate(net: Network, spec: ArchiveSpec, seed: int) -> Archive:
    rng = random.Random(f"perfbench-dump:{seed}:{spec}")
    relations = net.relations()
    branches = range(len(net.branches))
    if len(branches) != len(BRANCH_WEIGHTS):
        raise ValueError(f"archives need an ECMP width of {len(BRANCH_WEIGHTS)}")
    paths = {(r, b): net.path(i, j, b)
             for r, (i, j) in enumerate(relations) for b in branches}

    def branch():
        return rng.choices(branches, BRANCH_WEIGHTS)[0]

    pings = []
    ping_us = spec.ping_interval_s * 1_000_000
    for n in range(spec.pings_per_relation):
        for r in range(len(relations)):
            ts = spec.start_us + n * ping_us + r * 2_000 + rng.randrange(500)
            b = branch()
            u = rng.random()
            if u < PING_TIMEOUT_P:
                pings.append(Ping(ts, r, STATUS_TIMEOUT, None, b))
            elif u < PING_TIMEOUT_P + PING_TIME_EXCEEDED_P:
                pings.append(Ping(ts, r, STATUS_TIME_EXCEEDED, None, b))
            else:
                rtt = 2 * paths[r, b][-1][1] + rng.randrange(4_000)
                pings.append(Ping(ts, r, STATUS_ECHO_REPLY, rtt, b))

    runs = []
    cycle_us = spec.cycle_interval_s * 1_000_000
    slot_us = cycle_us // (len(relations) * ROUNDS + 1) // 1000 * 1000
    for c in range(spec.cycles):
        for r in range(len(relations)):
            for k in range(ROUNDS):
                ts = (spec.start_us + c * cycle_us
                      + slot_us * (r * ROUNDS + k) + 600 + rng.randrange(400))
                b = branch()
                reached = rng.random() >= UNREACHED_P
                hops = []
                for hop_no, (router, cum) in enumerate(paths[r, b], start=1):
                    address = net.routers[router].address
                    if router == net.destinations[relations[r][1]]:
                        if reached:
                            hops.append(Hop(hop_no, address, STATUS_ECHO_REPLY,
                                            2 * cum + rng.randrange(2_000)))
                        break
                    silent_p = (RATE_LIMITED_SILENT_P
                                if router == net.rate_limited else HOP_SILENT_P)
                    if rng.random() < silent_p:
                        hops.append(Hop(hop_no, None, STATUS_TIMEOUT, None))
                    else:
                        hops.append(Hop(hop_no, address, STATUS_TIME_EXCEEDED,
                                        2 * cum + rng.randrange(2_000)))
                if not reached:
                    hops += [Hop(n, None, STATUS_TIMEOUT, None)
                             for n in range(len(hops) + 1, MAX_TTL + 1)]
                runs.append(Run(ts, r, k, b, tuple(hops)))

    addresses = [(net.routers[net.sources[i]].address,
                  net.routers[net.destinations[j]].address) for i, j in relations]
    lines = [(p.timestamp, _ping_line(*addresses[p.relation], p)) for p in pings]
    lines += [(run.timestamp, _run_line(*addresses[run.relation], run))
              for run in runs]
    lines.sort()
    if len({ts for ts, _ in lines}) != len(lines):
        raise AssertionError("dump timestamps must be unique")
    pings.sort(key=lambda p: p.timestamp)
    runs.sort(key=lambda r: r.timestamp)
    return Archive(pings, runs, "".join(line for _, line in lines))
