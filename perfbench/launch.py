"""Runs one `contrace` command in this process and records its peak RSS.

    python3 perfbench/launch.py RSS_OUT [--trace TRACE_OUT] -- <contrace arguments>

The command runs through `contrace.cli.main`, the function the installed
`contrace` script calls. At exit RSS_OUT gets this process's VmHWM in KiB:
the peak resident set of the address space that exec created. The
ru_maxrss that wait4 reports is no substitute: Linux carries the parent's
peak into it at fork and exec, so every command would read at least the
benchmark harness's own peak.

With --trace, the command runs under tracer.py's spans and TRACE_OUT gets
their summary (see tracer.py).
"""

from __future__ import annotations

import re
import sys


def peak_rss_kib() -> int:
    with open("/proc/self/status", encoding="ascii") as fp:
        return int(re.search(r"^VmHWM:\s+(\d+) kB", fp.read(), re.M).group(1))


def main(argv: list[str]) -> int:
    rss_out, *rest = argv or [""]
    trace_out = None
    if rest[:1] == ["--trace"] and len(rest) >= 2:
        trace_out, rest = rest[1], rest[2:]
    if not rss_out or rest[:1] != ["--"]:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        if trace_out is None:
            from contrace import cli
            return cli.main(rest[1:])
        import tracer
        return tracer.traced_main(trace_out, rest[1:])
    finally:
        with open(rss_out, "w", encoding="ascii") as fp:
            fp.write(f"{peak_rss_kib()}\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
