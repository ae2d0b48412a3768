"""Calibration: a fixed piece of work whose wall time gauges machine speed.

    python3 perfbench/calib.py

The benchmark runs this in a fresh process before and after every program
command (see Harness.command in run.py). Its work resembles the program's
and is the same on every commit: build traceroute-like documents, write and
parse them as NDJSON, aggregate per (source, hop), pack and unpack ICMP-like
headers, sort and format the totals. It reads and writes no file. On a
shared host, neighbours slow every process for seconds at a time; the
benchmark divides each command's wall time by the mean of its two adjacent
calibrations, so that slowdown cancels while the program's own cost stays.
"""

from __future__ import annotations

import json
import struct

DOCUMENTS = 8_000
HEADERS = 30_000


def work() -> int:
    docs = []
    for i in range(DOCUMENTS):
        hops = [{"hop": h, "address": f"10.{h}.{i % 251}.1",
                 "rtt": (i * 7919 + h * 104_729) % 89_000 + 1000}
                for h in range(1, 4)]
        docs.append({"timestamp": 1_600_000_000_000_000 + i * 1000,
                     "kind": "traceroute", "source": f"192.0.2.{i % 8}",
                     "destination": f"198.51.100.{i % 4}", "hops": hops})
    text = "\n".join(json.dumps(d, separators=(",", ":")) for d in docs)
    totals: dict[tuple[str, str], int] = {}
    for line in text.splitlines():
        doc = json.loads(line)
        for hop in doc["hops"]:
            key = (doc["source"], hop["address"])
            totals[key] = totals.get(key, 0) + hop["rtt"]
    header = struct.Struct("!BBHHH")
    packed = [header.pack(8, 0, 0, i & 0xFFFF, (i * 7) & 0xFFFF)
              for i in range(HEADERS)]
    identifiers = sum(header.unpack(p)[3] for p in packed)
    rows = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
    out = "\n".join(f"{src},{hop},{total / 3:.3f}" for (src, hop), total in rows)
    return len(out) + identifiers


if __name__ == "__main__":
    work()
