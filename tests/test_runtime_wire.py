"""Tests for the runtime wire format: the binary v2 codec, the version
tag check, and the SACK bitmap helpers.

The fuzz classes are the satellite requirement of the batching PR: random
record batches must round-trip bit-exact through the v2 codec, and *any*
truncation or byte corruption must surface as a readable
:class:`WireFormatError` — never a raw ``struct.error`` or JSON traceback.
"""

import random
import struct

import pytest

from repro.errors import ConfigurationError
from repro.runtime.wire import (
    ACK,
    DATA,
    MAX_FRAME,
    RACK,
    REL,
    WIRE_V2,
    WireFormatError,
    ack_rec,
    data_rec,
    decode_frame_body,
    encode_records,
    rack_rec,
    rel_rec,
    sack_bitmap,
    sack_seqs,
    split_frames,
)


def _random_record(rng):
    kind = rng.choice((DATA, DATA, ACK, REL, RACK))  # DATA-heavy mix
    d = rng.randrange(0, 64)
    if kind == DATA:
        payload = rng.choice(
            [
                "m" + str(rng.randrange(10_000)),
                rng.randrange(-(2**31), 2**31),
                {"x": [rng.randrange(100)], "y": None},
                [1, "two", 3.5],
                None,
                True,
                "",
                "unicode-é€世",
            ]
        )
        return data_rec(
            d,
            seq=rng.randrange(1, 2**31),
            uid=rng.randrange(0, 2**63),
            payload=payload,
            valid=rng.random() < 0.9,
            rel=rng.randrange(0, 2**31),
        )
    if kind == ACK:
        return ack_rec(
            d,
            cum=rng.randrange(0, 2**31),
            sack=rng.getrandbits(64),
            rel_seen=rng.randrange(0, 2**31),
        )
    ctor = rel_rec if kind == REL else rack_rec
    return ctor(d, rng.randrange(0, 2**31))


class TestV2RoundTrip:
    def test_single_record_each_kind(self):
        records = [
            data_rec(3, 7, 42, {"x": [1, 2]}, True, rel=5),
            ack_rec(3, 9, sack=0b1011, rel_seen=4),
            rel_rec(3, 11),
            rack_rec(3, 11),
        ]
        for rec in records:
            frame = encode_records(1, 2, [rec])
            (length,) = struct.unpack(">I", frame[:4])
            assert length == len(frame) - 4
            version, src, dst, decoded = decode_frame_body(frame[4:])
            assert (version, src, dst) == (WIRE_V2, 1, 2)
            assert decoded == [rec]

    def test_fuzz_batches_round_trip_bit_exact(self):
        rng = random.Random(0xC0DEC)
        for _ in range(200):
            records = [
                _random_record(rng) for _ in range(rng.randrange(0, 65))
            ]
            src, dst = rng.randrange(0, 512), rng.randrange(0, 512)
            frame = encode_records(src, dst, records)
            version, f, t, decoded = decode_frame_body(frame[4:])
            assert version == WIRE_V2
            assert (f, t) == (src, dst)
            assert decoded == records
            # Bit-exactness: re-encoding the decode reproduces the frame.
            assert encode_records(f, t, decoded) == frame

    def test_payload_type_fidelity(self):
        # str / int / bool / None must come back as the same Python type.
        for payload in ("text", "", 0, -7, 2**40, True, False, None, 1.5):
            frame = encode_records(0, 1, [data_rec(1, 1, 1, payload, True)])
            _, _, _, decoded = decode_frame_body(frame[4:])
            got = decoded[0]["p"]
            assert got == payload and type(got) is type(payload)


class TestV2Rejections:
    def test_unserializable_payload_rejected(self):
        with pytest.raises(ConfigurationError, match="JSON-serializable"):
            encode_records(0, 1, [data_rec(1, 1, 1, object(), True)])

    def test_oversize_frame_rejected(self):
        big = data_rec(1, 1, 1, "x" * (MAX_FRAME + 1), True)
        with pytest.raises(ConfigurationError, match="MAX_FRAME"):
            encode_records(0, 1, [big])

    def test_unknown_kind_rejected(self):
        with pytest.raises(WireFormatError, match="unknown record kind"):
            encode_records(0, 1, [{"k": "BOGUS"}])

    def test_fuzz_truncation_never_leaks_struct_errors(self):
        rng = random.Random(0xBAD)
        records = [_random_record(rng) for _ in range(12)]
        body = encode_records(4, 5, records)[4:]
        for cut in range(len(body)):
            try:
                decode_frame_body(body[:cut])
            except WireFormatError:
                continue  # the readable error is the contract
            except Exception as exc:  # noqa: BLE001
                pytest.fail(f"truncation at {cut} leaked {type(exc).__name__}")
            # Decoding a truncated body "successfully" is only legal for
            # the empty prefix case — and that raises too, so:
            pytest.fail(f"truncation at {cut} decoded without error")

    def test_fuzz_corruption_is_wireformat_or_roundtrip(self):
        rng = random.Random(0xFACE)
        records = [_random_record(rng) for _ in range(8)]
        body = bytearray(encode_records(2, 3, records)[4:])
        for _ in range(400):
            i = rng.randrange(len(body))
            mutated = bytearray(body)
            mutated[i] ^= 1 << rng.randrange(8)
            try:
                decode_frame_body(bytes(mutated))
            except WireFormatError:
                pass  # readable rejection: fine
            except Exception as exc:  # noqa: BLE001
                pytest.fail(
                    f"bit flip at {i} leaked {type(exc).__name__}: {exc}"
                )
            # A flip that still decodes (e.g. inside a payload byte) is
            # fine too — framing survived, content checking is the hop
            # protocol's job.

    def test_trailing_garbage_rejected(self):
        body = encode_records(0, 1, [ack_rec(1, 1)])[4:]
        with pytest.raises(WireFormatError, match="trailing bytes"):
            decode_frame_body(body + b"xx")

    def test_payload_length_overrun_rejected(self):
        body = bytearray(encode_records(0, 1, [data_rec(1, 1, 1, "hi", True)])[4:])
        # Patch the payload length field to point past the end of the body.
        plen_offset = len(body) - 2 - 4  # 2 payload bytes, 4-byte plen field
        struct.pack_into(">I", body, plen_offset, 10_000)
        with pytest.raises(WireFormatError, match="overruns"):
            decode_frame_body(bytes(body))


class TestV1Codec:
    """Wire v1 (JSON framing) is retired; its bodies stay readable errors."""

    def test_v1_garbage_rejected_readably(self):
        for bad in (b"{}", b'{"f": 0}', b'{"f": 0, "t": 1}',
                    b'{"f": 0, "t": 1, "ms": "nope"}', b"[1,2]", b"{broken",
                    b'{"f":0,"t":1,"ms":[]}'):  # the last was valid v1
            with pytest.raises(WireFormatError, match="not the v2 tag"):
                decode_frame_body(bad)


class TestVersionDispatch:
    def test_first_byte_discriminates(self):
        v2 = encode_records(0, 1, [ack_rec(1, 1)], version=WIRE_V2)[4:]
        assert v2[0] == WIRE_V2
        assert decode_frame_body(v2)[0] == WIRE_V2

    def test_unknown_tag_rejected(self):
        with pytest.raises(WireFormatError, match="not the v2 tag"):
            decode_frame_body(b"\x09garbage")
        with pytest.raises(WireFormatError, match="empty"):
            decode_frame_body(b"")

    def test_unknown_encode_version_rejected(self):
        with pytest.raises(ConfigurationError, match="wire version"):
            encode_records(0, 1, [], version=3)


class TestFraming:
    def test_split_frames_handles_partials(self):
        frames = [
            encode_records(0, 1, [ack_rec(d, d)]) for d in range(3)
        ]
        stream = b"".join(frames)
        buffer = b""
        bodies = []
        for i in range(len(stream)):
            buffer += stream[i : i + 1]
            got, buffer = split_frames(buffer)
            bodies.extend(got)
        assert buffer == b""
        decoded = [decode_frame_body(b)[3][0]["d"] for b in bodies]
        assert decoded == [0, 1, 2]

    def test_split_frames_rejects_absurd_length(self):
        evil = struct.pack(">I", MAX_FRAME + 1) + b"x"
        with pytest.raises(WireFormatError, match="exceeds MAX_FRAME"):
            split_frames(evil)


class TestHelpers:
    def test_constructors_and_kinds(self):
        assert data_rec(1, 2, 3, "p", True)["k"] == DATA
        assert ack_rec(1, 2)["k"] == ACK
        assert rel_rec(1, 2)["k"] == REL
        assert rack_rec(1, 2)["k"] == RACK

    def test_decoded_data_is_the_constructor_dict(self):
        # _decode_v2 builds the DATA dict where it unpacks it; it must stay
        # the dict data_rec builds, key order included.
        for rec in (data_rec(1, 2, 3, "p", True, 4), data_rec(0, 9, 0, 17, False)):
            (decoded,) = decode_frame_body(encode_records(0, 1, [rec])[4:])[3]
            assert decoded == rec and list(decoded) == list(rec)
            assert type(decoded["v"]) is bool

    def test_sack_bitmap_round_trip(self):
        rng = random.Random(7)
        for _ in range(100):
            cum = rng.randrange(0, 1000)
            seqs = sorted(
                rng.sample(range(cum + 1, cum + 65), rng.randrange(0, 20))
            )
            bits = sack_bitmap(cum, seqs)
            assert sack_seqs(cum, bits) == seqs

    def test_sack_bitmap_ignores_out_of_range(self):
        assert sack_bitmap(10, [10, 9, 11 + 64, 200]) == 0
        assert sack_bitmap(10, [11]) == 1
        assert sack_bitmap(10, [74]) == 1 << 63
