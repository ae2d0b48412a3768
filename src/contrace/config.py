"""What a measurement campaign is configured with: its relations, its probe
schedule, and the YAML that configuration and topology files are written in.

These live apart from the probe engine, so that the commands that only read
the store (import, export, analyze) do not import the probing code and its
sockets. TransportFailure is here because the command line maps it to an
exit code. probe re-exports all three classes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .icmp import Family, family_of


class TransportFailure(Exception):
    """Socket-level failure; distinct from a timeout, which yields a record."""


@dataclass(frozen=True, slots=True)
class RelationKey:
    """Measurement identity: IP version plus source and destination ISP."""

    ip_version: Family
    source_id: str
    destination_id: str
    source_address: str
    destination_address: str

    def __post_init__(self):
        for address in (self.source_address, self.destination_address):
            if family_of(address) is not self.ip_version:
                raise ValueError(
                    f"address {address} does not match family {self.ip_version.value}")


@dataclass(slots=True)
class ProbeSchedule:
    """Cadence and limits for one measurement campaign."""

    ping_interval_s: float = 1.0
    traceroute_interval_s: float = 300.0
    traceroute_rounds: int = 3
    max_ttl: int = 35
    reply_timeout_s: float = 3.0
    craft_constant_checksum: bool = True
    jitter_fraction: float = 0.05

    def __post_init__(self):
        if self.ping_interval_s <= 0 or self.traceroute_interval_s <= 0:
            raise ValueError("intervals must be positive")
        if self.traceroute_rounds < 1:
            raise ValueError("traceroute_rounds must be >= 1")
        if not 1 <= self.max_ttl <= 255:
            raise ValueError("max_ttl must be in 1..255")
        if self.reply_timeout_s <= 0:
            raise ValueError("reply_timeout_s must be positive")
        if not 0 <= self.jitter_fraction < 1:
            raise ValueError("jitter_fraction must be in [0, 1)")

    @property
    def ping_interval_us(self) -> int:
        return int(round(self.ping_interval_s * 1_000_000))

    @property
    def traceroute_interval_us(self) -> int:
        return int(round(self.traceroute_interval_s * 1_000_000))

    @property
    def reply_timeout_us(self) -> int:
        return int(round(self.reply_timeout_s * 1_000_000))


def load_yaml(stream):
    """The document of a YAML string or file, parsed safely: by libyaml
    (CSafeLoader) when PyYAML was built with it, else by SafeLoader. Both
    raise yaml.YAMLError for malformed input."""
    import yaml
    return yaml.load(stream, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
