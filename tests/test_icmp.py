import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contrace import icmp
from contrace.icmp import Family, Kind

from oracles import checksum_reference, echo_reply_reference, pseudo_header_reference


class TestInternetChecksum:
    def test_empty_input(self):
        assert icmp.internet_checksum(b"") == 0xFFFF

    def test_two_words_hand_sum(self):
        # 0x0001 + 0x0002 = 0x0003, complement 0xFFFC
        assert icmp.internet_checksum(b"\x00\x01\x00\x02") == 0xFFFC

    def test_odd_length_pads_with_zero(self):
        assert icmp.internet_checksum(b"\xab") == icmp.internet_checksum(b"\xab\x00")

    def test_matches_reference_on_random_buffers(self):
        rng = random.Random(1071)
        for _ in range(200):
            data = rng.randbytes(rng.randrange(0, 1025))
            assert icmp.internet_checksum(data) == checksum_reference(data)

    @given(st.binary(max_size=512))
    def test_matches_reference_property(self, data):
        assert icmp.internet_checksum(data) == checksum_reference(data)

    def test_verification_identity(self):
        # Checksum over a message that already carries its checksum is zero.
        data = icmp.make_request_bytes(Family.V4, 7, 3, 1_000_000)
        assert icmp.internet_checksum(data) == 0


class TestCraftPayload:
    def test_identity_case_zero_compensation(self):
        # Target equal to the uncompensated packet's checksum needs no shift.
        plain = icmp.make_request_bytes(Family.V4, 0, 0, 0)
        target = int.from_bytes(plain[2:4], "big")
        pinned = icmp.make_request_bytes(Family.V4, 0, 0, 0, target_checksum=target)
        payload = pinned[icmp.HEADER_LEN:]
        assert payload[8:10] == b"\x00\x00"
        assert pinned == plain

    def test_all_sequences_share_prefix(self):
        identifier, target, ts = 0x1234, 0x55AA, 1_650_000_000_000_000
        reference = None
        for seq in range(1, 256):
            data = icmp.make_request_bytes(
                Family.V4, identifier, seq, ts, target_checksum=target)
            prefix = data[:icmp.PREFIX_LEN]
            if reference is None:
                reference = prefix
            assert prefix == reference
            assert int.from_bytes(data[2:4], "big") == target

    def test_fixed_target_random_inputs(self):
        rng = random.Random(0xBEEF)
        for _ in range(10_000):
            identifier = rng.randrange(0, 0x10000)
            sequence = rng.randrange(0, 0x10000)
            ts = rng.randrange(0, 2**63)
            data = icmp.make_request_bytes(
                Family.V4, identifier, sequence, ts, target_checksum=0xBEEF)
            # Stored checksum equals the target; the message verifies to zero.
            assert int.from_bytes(data[2:4], "big") == 0xBEEF
            assert icmp.internet_checksum(data) == 0

    def test_v6_target_includes_pseudo_header(self):
        src, dst = "2001:db8::1", "2001:db8::2"
        data = icmp.make_request_bytes(
            Family.V6, 9, 9, 123, target_checksum=0x1234, source=src, destination=dst)
        assert int.from_bytes(data[2:4], "big") == 0x1234
        decoded = icmp.decode_message(data, Family.V6, source=src, destination=dst)
        assert decoded.checksum_ok

    def test_v6_without_addresses_rejected(self):
        with pytest.raises(icmp.MissingPseudoHeader):
            icmp.make_request_bytes(Family.V6, 1, 1, 0, target_checksum=0x1234)

    def test_payload_too_small(self):
        for target in (None, 0x1234):
            with pytest.raises(icmp.PayloadTooSmall):
                icmp.make_request_bytes(Family.V4, 1, 1, 0, target_checksum=target,
                                        payload_len=9)

    def test_unreachable_target_rejected(self):
        # 0xFFFF is only the checksum of the all-zero message.
        with pytest.raises(icmp.CodecError):
            icmp.make_request_bytes(Family.V4, 1, 1, 0, target_checksum=0xFFFF)

    @settings(max_examples=300)
    @given(ident=st.integers(0, 0xFFFF), seq=st.integers(0, 0xFFFF),
           target=st.integers(0, 0xFFFE), ts=st.integers(0, 2**64 - 1))
    def test_any_reachable_target_is_hit(self, ident, seq, target, ts):
        data = icmp.make_request_bytes(Family.V4, ident, seq, ts, target_checksum=target)
        assert int.from_bytes(data[2:4], "big") == target
        assert icmp.internet_checksum(data) == 0

    @settings(max_examples=300)
    @given(ident=st.integers(0, 0xFFFF), seq=st.integers(0, 0xFFFF),
           ts=st.integers(0, 2**64 - 1),
           target=st.one_of(st.none(), st.integers(0, 0xFFFE)))
    def test_bytes_match_field_by_field_reference(self, ident, seq, ts, target):
        data = icmp.make_request_bytes(Family.V4, ident, seq, ts, target_checksum=target)
        comp = int.from_bytes(data[16:18], "big")
        body = (bytes([8, 0, 0, 0]) + ident.to_bytes(2, "big") + seq.to_bytes(2, "big")
                + ts.to_bytes(8, "big") + comp.to_bytes(2, "big") + bytes(6))
        cksum = checksum_reference(body)
        assert data == body[:2] + cksum.to_bytes(2, "big") + body[4:]
        if target is None:
            assert comp == 0
        else:
            # The type word keeps the base sum above zero, so where both 0
            # and 0xFFFF would hit the target the word is 0.
            assert cksum == target
            assert comp < 0xFFFF


class TestEncodeDecode:
    def test_v4_message_length_is_24(self):
        # 24 B ICMP message; 44 B total with a 20 B IPv4 header.
        data = icmp.make_request_bytes(Family.V4, 1, 1, 0)
        assert len(data) == 24
        assert len(data) + 20 == 44

    def test_v6_message_length_is_24(self):
        # Same 24 B message; 64 B total with a 40 B IPv6 header.
        data = icmp.make_request_bytes(Family.V6, 1, 1, 0,
                                       source="fd00::1", destination="fd00::2")
        assert len(data) == 24
        assert len(data) + 40 == 64

    def test_round_trip_v4(self):
        data = icmp.make_request_bytes(Family.V4, 0xAAAA, 17, 42)
        decoded = icmp.decode_message(data, Family.V4)
        assert decoded.kind is Kind.ECHO_REQUEST
        assert (decoded.identifier, decoded.sequence) == (0xAAAA, 17)
        assert decoded.payload == data[icmp.HEADER_LEN:]
        assert decoded.checksum == int.from_bytes(data[2:4], "big")
        assert decoded.checksum_ok

    def test_round_trip_v6_reply(self):
        src, dst = "fd00::10", "fd00::20"
        request = icmp.make_request_bytes(Family.V6, 5, 6, 7, source=dst,
                                          destination=src)
        data = icmp.reply_bytes_for_request(request, Family.V6)
        decoded = icmp.decode_message(data, Family.V6, source=src, destination=dst)
        assert decoded.kind is Kind.ECHO_REPLY
        assert (decoded.identifier, decoded.sequence) == (5, 6)
        assert decoded.checksum_ok

    def test_time_exceeded_recovers_match_key(self):
        request = icmp.make_request_bytes(Family.V4, 0x0101, 7, 99)
        te = icmp.encode_time_exceeded(request, Family.V4)
        decoded = icmp.decode_message(te, Family.V4)
        assert decoded.kind is Kind.TIME_EXCEEDED
        assert decoded.match_key == (0x0101, 7)
        assert decoded.checksum_ok
        assert decoded.payload == request  # quoted after the 4 unused bytes

    def test_time_exceeded_with_quoted_ip_header(self):
        # Live v4 captures quote the invoking packet with its IP header.
        request = icmp.make_request_bytes(Family.V4, 0x2222, 3, 5)
        ip_header = bytes([0x45]) + bytes(11) + b"\x0a\x00\x00\x01\x0a\x00\x00\x02"
        te = icmp.encode_time_exceeded(ip_header + request, Family.V4)
        decoded = icmp.decode_message(te, Family.V4)
        assert decoded.match_key == (0x2222, 3)

    def test_truncated_input(self):
        with pytest.raises(icmp.Truncated):
            icmp.decode_message(b"\x08\x00\x00", Family.V4)

    def test_checksum_mismatch_is_soft(self):
        data = bytearray(icmp.make_request_bytes(Family.V4, 1, 2, 3))
        data[-1] ^= 0xFF
        decoded = icmp.decode_message(bytes(data), Family.V4)
        assert not decoded.checksum_ok
        assert decoded.match_key == (1, 2)

    def test_unknown_type_is_other(self):
        data = bytearray(icmp.make_request_bytes(Family.V4, 1, 2, 3))
        data[0] = 13  # timestamp request: not part of this codec
        decoded = icmp.decode_message(bytes(data), Family.V4)
        assert decoded.kind is Kind.OTHER
        assert decoded.match_key is None

    def test_timestamp_embedding(self):
        data = icmp.make_request_bytes(Family.V4, 1, 2, 1_234_567_890)
        decoded = icmp.decode_message(data, Family.V4)
        assert int.from_bytes(decoded.payload[:8], "big") == 1_234_567_890

    def test_reply_mirrors_request(self):
        request = icmp.make_request_bytes(Family.V4, 77, 88, 123)
        reply = icmp.reply_bytes_for_request(request, Family.V4)
        decoded = icmp.decode_message(reply, Family.V4)
        assert decoded.kind is Kind.ECHO_REPLY
        assert decoded.match_key == (77, 88)
        assert decoded.payload == request[icmp.HEADER_LEN:]


V6_HOSTS = ["2001:db8::1", "2001:db8:16:1::10", "fd00::20", "2001:db8:22:2::10"]


class TestEchoReplyOracle:
    """reply_bytes_for_request updates the request's checksum (RFC 1624);
    echo_reply_reference sums the reply over every word."""

    @settings(max_examples=500)
    @given(family=st.sampled_from([Family.V4, Family.V6]),
           ident=st.integers(0, 0xFFFF), seq=st.integers(0, 0xFFFF),
           ts=st.integers(0, 2**64 - 1), payload_len=st.integers(10, 64),
           target=st.one_of(st.none(), st.integers(0, 0xFFFE)),
           hosts=st.lists(st.sampled_from(V6_HOSTS), min_size=2, max_size=2, unique=True))
    @example(family=Family.V4, ident=0, seq=0, ts=0, payload_len=16, target=None,
             hosts=V6_HOSTS[:2])
    @example(family=Family.V6, ident=0, seq=0, ts=0, payload_len=16, target=None,
             hosts=V6_HOSTS[:2])
    @example(family=Family.V4, ident=0, seq=0, ts=0, payload_len=10, target=0,
             hosts=V6_HOSTS[:2])
    def test_reply_equals_the_full_sum(self, family, ident, seq, ts, payload_len,
                                       target, hosts):
        prober, target_host = hosts if family is Family.V6 else (None, None)
        request = icmp.make_request_bytes(family, ident, seq, ts, target_checksum=target,
                                          payload_len=payload_len, source=prober,
                                          destination=target_host)
        reply = icmp.reply_bytes_for_request(request, family)
        assert reply == echo_reply_reference(request, family.value, target_host, prober)
        decoded = icmp.decode_message(reply, family, source=target_host, destination=prober)
        assert decoded.kind is Kind.ECHO_REPLY and decoded.checksum_ok

    def test_an_all_zero_v4_reply_has_checksum_ffff(self):
        """+0 and -0: the update alone would give 0x0000."""
        request = icmp.make_request_bytes(Family.V4, 0, 0, 0)
        reply = icmp.reply_bytes_for_request(request, Family.V4)
        assert reply == b"\x00\x00\xff\xff" + bytes(len(request) - 4)
        assert reply == echo_reply_reference(request, "v4")

    def test_a_bad_request_checksum_gives_a_bad_reply_checksum(self):
        request = bytearray(icmp.make_request_bytes(Family.V4, 1, 2, 3))
        request[3] ^= 0x01
        reply = icmp.reply_bytes_for_request(bytes(request), Family.V4)
        assert not icmp.decode_message(reply, Family.V4).checksum_ok

    @settings(max_examples=500)
    @given(data=st.one_of(st.binary(min_size=8, max_size=81),
                          st.integers(8, 81).map(bytes)),
           hosts=st.lists(st.sampled_from(V6_HOSTS), min_size=2, max_size=2, unique=True))
    @example(data=bytes(9), hosts=V6_HOSTS[:2])
    @example(data=b"\xff" * 9, hosts=V6_HOSTS[:2])
    def test_checksum_ok_matches_the_reference(self, data, hosts):
        """On odd lengths and all-zero buffers too: a zero sum does not
        verify, as its checksum would be 0xFFFF."""
        assert icmp.decode_message(data, Family.V4).checksum_ok == \
            (checksum_reference(data) == 0)
        source, destination = hosts
        prefix = pseudo_header_reference(source, destination, len(data))
        assert icmp.decode_message(data, Family.V6, source=source,
                                   destination=destination).checksum_ok == \
            (checksum_reference(prefix + data) == 0)


def test_family_of():
    assert icmp.family_of("192.0.2.1") is Family.V4
    assert icmp.family_of("2001:db8::1") is Family.V6
    with pytest.raises(ValueError):
        icmp.family_of("not-an-ip")


class TestRequestPrefix:
    """request_prefix is the value of the first four bytes that
    make_request_bytes gives the same fields, computed without the bytes."""

    @settings(max_examples=500)
    @given(family=st.sampled_from([Family.V4, Family.V6]),
           ident=st.integers(0, 0xFFFF), seq=st.integers(0, 0xFFFF),
           ts=st.integers(0, 2**64 - 1), payload_len=st.integers(10, 64),
           target=st.one_of(st.none(), st.integers(0, 0xFFFE)),
           hosts=st.lists(st.sampled_from(V6_HOSTS), min_size=2, max_size=2, unique=True))
    @example(family=Family.V4, ident=0, seq=0, ts=0, payload_len=16, target=None,
             hosts=V6_HOSTS[:2])
    @example(family=Family.V6, ident=0xFFFF, seq=0xFFFF, ts=2**64 - 1, payload_len=10,
             target=0, hosts=V6_HOSTS[:2])
    def test_prefix_is_the_value_of_the_requests_first_four_bytes(
            self, family, ident, seq, ts, payload_len, target, hosts):
        source, destination = hosts if family is Family.V6 else (None, None)
        fields = dict(target_checksum=target, payload_len=payload_len, source=source,
                      destination=destination)
        request = icmp.make_request_bytes(family, ident, seq, ts, **fields)
        assert icmp.request_prefix(family, ident, seq, ts, **fields) == \
            int.from_bytes(request[:icmp.PREFIX_LEN], "big")

    def test_prefix_raises_what_the_request_raises(self):
        for kwargs, error in [({"target_checksum": 0xFFFF}, icmp.CodecError),
                              ({"target_checksum": 0x10000}, ValueError),
                              ({"payload_len": 9}, icmp.PayloadTooSmall)]:
            for build in (icmp.make_request_bytes, icmp.request_prefix):
                with pytest.raises(error):
                    build(Family.V4, 1, 1, 0, **kwargs)
        for build in (icmp.make_request_bytes, icmp.request_prefix):
            with pytest.raises(icmp.MissingPseudoHeader):
                build(Family.V6, 1, 1, 0)
