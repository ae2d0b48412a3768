"""ICMP/ICMPv6 echo codec and checksum-pinning payload crafting.

Per-packet load balancers hash the first four bytes of the transport
header; for ICMP echo these are the type, code and checksum fields. Keeping
the checksum constant across a traceroute run therefore keeps all probes of
the run on one forwarding path.

Payload layout: bytes 0-7 hold the send timestamp (microseconds, unsigned
big-endian), bytes 8-9 hold the compensation word that pins the checksum,
remaining bytes are zero.

An echo reply differs from its request only in its type and code, so its
checksum is the request's updated for that word (RFC 1624), not summed
again. The ICMPv6 pseudo-header sum needs no update: it is symmetric in the
two addresses, and an echo reply comes from its request's destination.
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

# Builds a named tuple from the tuple of all its fields without the
# generated __new__'s argument handling: once per reply, that adds up.
_new = tuple.__new__


class Kind(Enum):
    ECHO_REQUEST = "echo_request"
    ECHO_REPLY = "echo_reply"
    TIME_EXCEEDED = "time_exceeded"
    OTHER = "other"


# Compared by identity: on Python 3.11 a Kind.X or Family.X, or a hash of one, is slow.
ECHO_REQUEST, ECHO_REPLY, TIME_EXCEEDED, OTHER = Kind
_V4 = Family.V4

_KIND_V4 = {8: ECHO_REQUEST, 0: ECHO_REPLY, 11: TIME_EXCEEDED}
_KIND_V6 = {128: ECHO_REQUEST, 129: ECHO_REPLY, 3: TIME_EXCEEDED}


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
def _request_struct(payload_len: int) -> struct.Struct:
    """Echo request: header, timestamp, compensation word, zero tail."""
    return struct.Struct(f"!BBHHHQH{payload_len - MIN_PAYLOAD_LEN}x")


def _word_sum(data: bytes) -> int:
    """data as one big-endian integer, zero-padded to even length: as
    2**16 is 1 mod 0xFFFF, congruent to the sum of its 16-bit words, and
    zero exactly when that sum is, which is all _fold needs."""
    total = int.from_bytes(data, "big")
    return total << 8 if len(data) & 1 else total


def _fold(total: int) -> int:
    """End-around-carry reduction of a word sum (or a _word_sum) into 16
    bits: 0 for 0, else its residue mod 0xFFFF in 1..0xFFFF."""
    return total % 0xFFFF or (0xFFFF if total else 0)


def internet_checksum(data: bytes) -> int:
    """One's-complement of the one's-complement sum of 16-bit words."""
    return ~_fold(_word_sum(data)) & 0xFFFF


@lru_cache(maxsize=4096)
def _v6_pseudo_word_sum(source: str | None, destination: str | None,
                        message_len: int) -> int:
    """Folded word sum of the ICMPv6 pseudo-header, the checksum's prefix."""
    if not source or not destination:
        raise MissingPseudoHeader("ICMPv6 checksum needs source and destination addresses")
    src = ipaddress.IPv6Address(source).packed
    dst = ipaddress.IPv6Address(destination).packed
    return _fold(_word_sum(src + dst + struct.pack("!I3xB", message_len, ICMPV6_PROTOCOL)))


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


def _request_words(family: Family, identifier: int, sequence: int, ts: int,
                   target_checksum: int | None, payload_len: int,
                   source: str | None, destination: str | None) -> tuple[int, int, int]:
    """(type, checksum, compensation word) of an echo request whose
    timestamp is ts, 64 bits: the arithmetic of make_request_bytes and
    request_prefix.

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
    icmp_type = 8 if family is _V4 else 128
    # The words of type|code, identifier and sequence, summed without
    # packing, plus ts as one integer: as in _word_sum, it is congruent to
    # the sum of its four words, and the type word makes the total nonzero,
    # so _fold and _compensation give what the word sum gives.
    base_sum = (icmp_type << 8) + identifier + sequence + ts
    if family is not _V4:
        base_sum += _v6_pseudo_word_sum(source, destination, HEADER_LEN + payload_len)
    if target_checksum is None:
        return icmp_type, ~_fold(base_sum) & 0xFFFF, 0
    if not 0 <= target_checksum <= 0xFFFF:
        raise ValueError("target checksum must be a 16-bit value")
    # the compensation lands the fold exactly on the target
    return icmp_type, target_checksum, _compensation(base_sum, target_checksum)


def make_request_bytes(family: Family, identifier: int, sequence: int,
                       timestamp_us: int, *, target_checksum: int | None = None,
                       payload_len: int = DEFAULT_PAYLOAD_LEN,
                       source: str | None = None,
                       destination: str | None = None) -> bytes:
    """Assemble a ready-to-send echo request, optionally checksum-pinned
    (_request_words); the pack range-checks the fields."""
    ts = timestamp_us & 0xFFFFFFFFFFFFFFFF
    icmp_type, cksum, comp = _request_words(family, identifier, sequence, ts,
                                            target_checksum, payload_len, source,
                                            destination)
    return _request_struct(payload_len).pack(icmp_type, 0, cksum, identifier, sequence,
                                             ts, comp)


def request_prefix(family: Family, identifier: int, sequence: int,
                   timestamp_us: int, *, target_checksum: int | None = None,
                   payload_len: int = DEFAULT_PAYLOAD_LEN,
                   source: str | None = None, destination: str | None = None) -> int:
    """The first PREFIX_LEN bytes (type, code and checksum) of the request
    make_request_bytes assembles from these fields, as a big-endian
    integer, with no bytes built: the ECMP key of the probe. For fields
    that make_request_bytes accepts; it raises what that raises but for
    the pack's range checks."""
    icmp_type, cksum, _ = _request_words(family, identifier, sequence,
                                         timestamp_us & 0xFFFFFFFFFFFFFFFF,
                                         target_checksum, payload_len, source, destination)
    return icmp_type << 24 | cksum


_FIRST_WORDS = struct.Struct("!HH")  # type and code, checksum


def reply_bytes_for_request(request: bytes, family: Family) -> bytes:
    """Echo reply mirroring a request's identifier, sequence and payload,
    with code 0, its checksum the request's HC updated for the first word m
    to m' as HC' = ~(~HC + ~m + m') (RFC 1624): for a right HC, what a full
    sum gives, but for a v4 reply of all-zero words, which gets 0xFFFF (not
    0). A request with a bad checksum gets a reply with a bad checksum."""
    if len(request) < HEADER_LEN:
        raise Truncated(f"{len(request)}-byte request below minimal header")
    word, checksum = _FIRST_WORDS.unpack_from(request)
    reply_word = 0 if family is _V4 else 129 << 8
    rest = request[4:]
    total = _fold((checksum ^ 0xFFFF) + (word ^ 0xFFFF) + reply_word)
    if total == 0xFFFF and not (reply_word or _word_sum(rest)):
        total = 0
    return _FIRST_WORDS.pack(reply_word, ~total & 0xFFFF) + rest


def encode_time_exceeded(original: bytes, family: Family, *,
                         source: str | None = None,
                         destination: str | None = None) -> bytes:
    """Time-exceeded error quoting the expired message after 4 unused bytes."""
    icmp_type = 11 if family is _V4 else 3
    total = (icmp_type << 8) + _word_sum(original)
    if family is not _V4:
        total += _v6_pseudo_word_sum(source, destination, HEADER_LEN + len(original))
    return ICMP_HEADER.pack(icmp_type, 0, ~_fold(total) & 0xFFFF, 0, 0) + original


def _parse_quoted_request(quote: bytes, family: Family) -> tuple[int, int] | None:
    """(identifier, sequence) of the packet quoted by a time-exceeded error.

    Live captures quote the full invoking packet including its IP header;
    the simulator quotes the bare ICMP message. Both are accepted.
    """
    rest = quote
    if rest:
        version = rest[0] >> 4
        if family is _V4 and version == 4 and len(rest) >= 20:
            rest = rest[(rest[0] & 0x0F) * 4:]
        elif family is not _V4 and version == 6 and len(rest) >= 40:
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
    if family is _V4:
        kind = _KIND_V4.get(icmp_type, OTHER)
        checksum_ok = _fold(_word_sum(data)) == 0xFFFF
    else:
        kind = _KIND_V6.get(icmp_type, OTHER)
        checksum_ok = not (source and destination) or _fold(
            _word_sum(data) + _v6_pseudo_word_sum(source, destination, len(data))) == 0xFFFF
    payload = data[HEADER_LEN:]
    if kind is TIME_EXCEEDED:
        field1, field2 = _parse_quoted_request(payload, family) or (None, None)
    elif kind is OTHER:
        field1 = field2 = None
    return _new(DecodedMessage, (kind, cksum, field1, field2, payload, checksum_ok))
