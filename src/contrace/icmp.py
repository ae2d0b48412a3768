"""ICMP/ICMPv6 echo codec and checksum-pinning payload crafting.

Per-packet load balancers hash the first four bytes of the transport
header; for ICMP echo these are the type, code and checksum fields. Keeping
the checksum constant across a traceroute run therefore keeps all probes of
the run on one forwarding path.

Payload layout: bytes 0-7 hold the send timestamp (microseconds, unsigned
big-endian), bytes 8-9 hold the compensation word that pins the checksum,
remaining bytes are zero.
"""

from __future__ import annotations

import ipaddress
import struct
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

from .config import Family, family_of  # noqa: F401 -- both stay importable from here

ICMP_HEADER = struct.Struct("!BBHHH")  # type, code, checksum, identifier, sequence
HEADER_LEN = ICMP_HEADER.size

DEFAULT_PAYLOAD_LEN = 16  # header + payload + IP header = 44 B (v4) / 64 B (v6)
MIN_PAYLOAD_LEN = 10      # timestamp (8 B) + compensation word (2 B)
PREFIX_LEN = 4            # the bytes load balancers hash on

ICMPV6_PROTOCOL = 58


class Kind(Enum):
    ECHO_REQUEST = "echo_request"
    ECHO_REPLY = "echo_reply"
    TIME_EXCEEDED = "time_exceeded"
    OTHER = "other"


ECHO_REQUEST_TYPE = {Family.V4: 8, Family.V6: 128}
ECHO_REPLY_TYPE = {Family.V4: 0, Family.V6: 129}
TIME_EXCEEDED_TYPE = {Family.V4: 11, Family.V6: 3}

_KIND_BY_TYPE = {
    (Family.V4, 8): Kind.ECHO_REQUEST,
    (Family.V4, 0): Kind.ECHO_REPLY,
    (Family.V4, 11): Kind.TIME_EXCEEDED,
    (Family.V6, 128): Kind.ECHO_REQUEST,
    (Family.V6, 129): Kind.ECHO_REPLY,
    (Family.V6, 3): Kind.TIME_EXCEEDED,
}


class CodecError(Exception):
    """Base class for codec failures."""


class Truncated(CodecError):
    """Message shorter than the minimal ICMP header."""


class PayloadTooSmall(CodecError):
    """Payload cannot hold the timestamp plus the compensation word."""


class MissingPseudoHeader(CodecError):
    """ICMPv6 checksums cover the pseudo-header; addresses are required."""


class DecodedMessage(NamedTuple):
    """Result of decode_message; checksum_ok is a soft flag, never fatal."""

    kind: Kind
    checksum: int
    identifier: int | None
    sequence: int | None
    payload: bytes
    checksum_ok: bool

    @property
    def match_key(self) -> tuple[int, int] | None:
        if self.identifier is None or self.sequence is None:
            return None
        return (self.identifier, self.sequence)


@lru_cache(maxsize=128)
def _word_struct(n: int) -> struct.Struct:
    return struct.Struct(f"!{n}H")


@lru_cache(maxsize=128)
def _request_struct(payload_len: int) -> struct.Struct:
    """Echo request: header, timestamp, compensation word, zero tail."""
    return struct.Struct(f"!BBHHHQH{payload_len - MIN_PAYLOAD_LEN}x")


def _word_sum(data: bytes) -> int:
    """Sum of big-endian 16-bit words, zero-padded to even length."""
    if len(data) & 1:
        data = data + b"\x00"
    return sum(_word_struct(len(data) >> 1).unpack(data))


def _fold(total: int) -> int:
    """End-around-carry reduction of a word sum into 16 bits."""
    while total > 0xFFFF:
        total = (total & 0xFFFF) + (total >> 16)
    return total


def internet_checksum(data: bytes) -> int:
    """One's-complement of the one's-complement sum of 16-bit words."""
    return ~_fold(_word_sum(data)) & 0xFFFF


def _pseudo_word_sum(family: Family, source: str | None, destination: str | None,
                     message_len: int) -> int:
    """Word sum of the checksum prefix: 0 for v4, the ICMPv6 pseudo-header for v6."""
    if family is Family.V4:
        return 0
    return _v6_pseudo_word_sum(source, destination, message_len)


@lru_cache(maxsize=4096)
def _v6_pseudo_word_sum(source: str | None, destination: str | None,
                        message_len: int) -> int:
    if not source or not destination:
        raise MissingPseudoHeader("ICMPv6 checksum needs source and destination addresses")
    src = ipaddress.IPv6Address(source).packed
    dst = ipaddress.IPv6Address(destination).packed
    return _word_sum(src + dst + struct.pack("!I3xB", message_len, ICMPV6_PROTOCOL))


def _compensation(base_sum: int, target: int) -> int:
    # Solvability: the checksum is ~fold(S), and fold maps any S > 0 onto
    # 1..0xFFFF by its residue mod 0xFFFF (end-around carry). The fold we
    # need is C = ~target. Any target that is itself the checksum of a
    # message with at least one nonzero word has C >= 1, because C = 0
    # (target 0xFFFF) is only produced by the all-zero message. Adding
    # w = (C - S0) mod 0xFFFF makes the total congruent to C, and with
    # S0 + w > 0 the fold lands exactly on C. The one degenerate case,
    # S0 == 0 with C == 0xFFFF, is fixed by the other representative
    # w = 0xFFFF, which still fits 16 bits. No carry can escape: fold is
    # applied to the final sum, so intermediate carries are absorbed.
    c = (~target) & 0xFFFF
    if c == 0:
        raise CodecError("target checksum 0xffff is not the checksum of any nonzero message")
    w = (c - base_sum) % 0xFFFF
    if _fold(base_sum + w) != c:
        w = 0xFFFF
    return w


def make_request_bytes(family: Family, identifier: int, sequence: int,
                       timestamp_us: int, *, target_checksum: int | None = None,
                       payload_len: int = DEFAULT_PAYLOAD_LEN,
                       source: str | None = None,
                       destination: str | None = None) -> bytes:
    """Assemble a ready-to-send echo request, optionally checksum-pinned.

    Only the header and timestamp words contribute to the base sum: the
    compensation slot and tail are zero, and zero words never change a
    one's-complement sum. Without a target the compensation word stays zero;
    with one it makes the checksum equal target_checksum. For v6 the
    checksum covers the pseudo-header, so source and destination addresses
    take part in the compensation.
    """
    if payload_len < MIN_PAYLOAD_LEN:
        raise PayloadTooSmall(
            f"payload of {payload_len} B cannot hold timestamp and compensation word")
    if target_checksum is not None and not 0 <= target_checksum <= 0xFFFF:
        raise ValueError("target checksum must be a 16-bit value")
    icmp_type = ECHO_REQUEST_TYPE[family]
    ts = timestamp_us & 0xFFFFFFFFFFFFFFFF
    # The words of type|code, identifier, sequence and the four timestamp
    # words, summed without packing; the pack below range-checks the fields.
    base_sum = ((icmp_type << 8) + identifier + sequence + (ts >> 48)
                + (ts >> 32 & 0xFFFF) + (ts >> 16 & 0xFFFF) + (ts & 0xFFFF))
    base_sum += _pseudo_word_sum(family, source, destination, HEADER_LEN + payload_len)
    if target_checksum is None:
        cksum, comp = ~_fold(base_sum) & 0xFFFF, 0
    else:
        # the compensation lands the fold exactly on the target
        cksum, comp = target_checksum, _compensation(base_sum, target_checksum)
    return _request_struct(payload_len).pack(icmp_type, 0, cksum, identifier, sequence,
                                             ts, comp)


def _encode(family: Family, icmp_type: int, field1: int, field2: int, body: bytes,
            source: str | None, destination: str | None) -> bytes:
    """ICMP message with code 0, its checksum computed once over all words."""
    total = _word_sum(ICMP_HEADER.pack(icmp_type, 0, 0, field1, field2) + body)
    total += _pseudo_word_sum(family, source, destination, HEADER_LEN + len(body))
    return ICMP_HEADER.pack(icmp_type, 0, ~_fold(total) & 0xFFFF, field1, field2) + body


def reply_bytes_for_request(request: bytes, family: Family, *,
                            source: str | None = None,
                            destination: str | None = None) -> bytes:
    """Echo reply mirroring a request's identifier, sequence and payload."""
    if len(request) < HEADER_LEN:
        raise Truncated(f"{len(request)}-byte request below minimal header")
    _, _, _, identifier, sequence = ICMP_HEADER.unpack_from(request)
    return _encode(family, ECHO_REPLY_TYPE[family], identifier, sequence,
                   request[HEADER_LEN:], source, destination)


def encode_time_exceeded(original: bytes, family: Family, *,
                         source: str | None = None,
                         destination: str | None = None) -> bytes:
    """Time-exceeded error quoting the expired message after 4 unused bytes."""
    return _encode(family, TIME_EXCEEDED_TYPE[family], 0, 0, original,
                   source, destination)


def _parse_quoted_request(quote: bytes, family: Family) -> tuple[int, int] | None:
    """(identifier, sequence) of the packet quoted by a time-exceeded error.

    Live captures quote the full invoking packet including its IP header;
    the simulator quotes the bare ICMP message. Both are accepted.
    """
    rest = quote
    if rest:
        version = rest[0] >> 4
        if family is Family.V4 and version == 4 and len(rest) >= 20:
            rest = rest[(rest[0] & 0x0F) * 4:]
        elif family is Family.V6 and version == 6 and len(rest) >= 40:
            rest = rest[40:]
    if len(rest) < HEADER_LEN:
        return None
    _, _, _, identifier, sequence = ICMP_HEADER.unpack_from(rest)
    return identifier, sequence


def decode_message(data: bytes, family: Family, *, source: str | None = None,
                   destination: str | None = None) -> DecodedMessage:
    """Classify a received ICMP message and extract its matching key.

    Checksum mismatches are reported through checksum_ok, not raised:
    middleboxes rewrite packets and the message is still usable for
    topology. For v6 without addresses the checksum is unverifiable and
    reported as ok.
    """
    if len(data) < HEADER_LEN:
        raise Truncated(f"{len(data)}-byte message below minimal header")
    icmp_type, _, cksum, field1, field2 = ICMP_HEADER.unpack_from(data)
    kind = _KIND_BY_TYPE.get((family, icmp_type), Kind.OTHER)
    if family is Family.V4:
        checksum_ok = internet_checksum(data) == 0
    elif source and destination:
        total = _word_sum(data) + _pseudo_word_sum(family, source, destination, len(data))
        checksum_ok = (~_fold(total) & 0xFFFF) == 0
    else:
        checksum_ok = True
    payload = data[HEADER_LEN:]
    if kind is Kind.TIME_EXCEEDED:
        identifier, sequence = _parse_quoted_request(payload, family) or (None, None)
        return DecodedMessage(kind, cksum, identifier, sequence, payload, checksum_ok)
    if kind in (Kind.ECHO_REQUEST, Kind.ECHO_REPLY):
        return DecodedMessage(kind, cksum, field1, field2, payload, checksum_ok)
    return DecodedMessage(Kind.OTHER, cksum, None, None, payload, checksum_ok)
