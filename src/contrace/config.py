"""What a measurement campaign is configured with: its relations, its probe
schedule, and the YAML that configuration and topology files are written in.

These live apart from the probe engine, so that the commands that only read
the store (import, export, analyze) do not import the probing code and its
sockets. Family is here, not in icmp, for the same reason. TransportFailure
is here because the command line maps it to an exit code, and MalformedYaml
because load_yaml reads both configuration and topology files. probe
re-exports the three classes, and icmp re-exports Family and family_of.
"""

from __future__ import annotations

import ipaddress
import math
from enum import Enum
from typing import NamedTuple


class Family(str, Enum):
    """IP protocol family of an address or probe."""

    V4 = "v4"
    V6 = "v6"

    @property
    def display(self) -> str:
        return "IPv4" if self is Family.V4 else "IPv6"


def family_of(address: str) -> Family:
    """Family of an IP address string; raises ValueError for junk."""
    return Family.V4 if ipaddress.ip_address(address).version == 4 else Family.V6


class TransportFailure(Exception):
    """Socket-level failure; distinct from a timeout, which yields a record."""


class _RelationFields(NamedTuple):
    ip_version: Family
    source_id: str
    destination_id: str
    source_address: str
    destination_address: str


class RelationKey(_RelationFields):
    """Measurement identity: IP version plus source and destination ISP."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for address in (self.source_address, self.destination_address):
            if family_of(address) is not self.ip_version:
                raise ValueError(
                    f"address {address} does not match family {self.ip_version.value}")
        return self


class _ScheduleFields(NamedTuple):
    ping_interval_s: float = 1.0
    traceroute_interval_s: float = 300.0
    traceroute_rounds: int = 3
    max_ttl: int = 35
    reply_timeout_s: float = 3.0
    craft_constant_checksum: bool = True
    jitter_fraction: float = 0.05


class ProbeSchedule(_ScheduleFields):
    """Cadence and limits for one measurement campaign."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, value in self._asdict().items():
            if name in ("traceroute_rounds", "max_ttl"):
                ok, wanted = type(value) is int, "an integer"
            elif name == "craft_constant_checksum":
                ok, wanted = type(value) is bool, "true or false"
            else:  # a duration or a fraction; -inf < nan fails too
                ok = type(value) in (int, float) and -math.inf < value < math.inf
                wanted = "a finite number"
            if not ok:
                raise ValueError(f"{name} must be {wanted}, got {value!r}")
        for name in ("ping_interval", "traceroute_interval", "reply_timeout"):
            if getattr(self, name + "_us") < 1:
                raise ValueError(f"{name}_s must be at least 1 us")
        if self.traceroute_rounds < 1:
            raise ValueError("traceroute_rounds must be >= 1")
        if not 1 <= self.max_ttl <= 255:
            raise ValueError("max_ttl must be in 1..255")
        if not 0 <= self.jitter_fraction < 1:
            raise ValueError("jitter_fraction must be in [0, 1)")
        return self

    @property
    def ping_interval_us(self) -> int:
        return int(round(self.ping_interval_s * 1_000_000))

    @property
    def traceroute_interval_us(self) -> int:
        return int(round(self.traceroute_interval_s * 1_000_000))

    @property
    def reply_timeout_us(self) -> int:
        return int(round(self.reply_timeout_s * 1_000_000))


class MalformedYaml(ValueError):
    """A configuration or topology file that is not YAML; one line, with
    where the parser stopped when it knows."""


def load_yaml(stream):
    """The document of a YAML string or file, parsed safely: by libyaml
    (CSafeLoader) when PyYAML was built with it, else by SafeLoader. Either
    one's yaml.YAMLError for malformed input is raised as MalformedYaml, so
    callers need not import yaml to catch it."""
    import yaml
    try:
        return yaml.load(stream, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        mark, problem = getattr(exc, "problem_mark", None), getattr(exc, "problem", None)
        detail = (f"line {mark.line + 1}, column {mark.column + 1}: {problem}"
                  if mark is not None and problem else " ".join(str(exc).split()))
        raise MalformedYaml(f"malformed YAML: {detail}") from None
