"""Codec tests: exact bytes, round-trips, framing boundaries, malformed input."""

from __future__ import annotations

import dataclasses
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remfio import wire
from remfio.errors import EncodeError, ProtocolError

from util import random_message


def test_stream_start_exact_bytes():
    # layout forced: header + two 8-byte big-endian fields, handle then offset
    frame = wire.encode_frame(wire.StreamStart(handle_id=7, offset=0))
    assert frame == bytes([0x52, 0x46, 0x01, wire.MsgType.STREAM_START, 0, 0, 0, 16]) + (
        7
    ).to_bytes(8, "big") + bytes(8)
    msg, consumed = wire.decode_frame(frame)
    assert msg == wire.StreamStart(handle_id=7, offset=0)
    assert consumed == len(frame) == 24


def test_read_request_roundtrip():
    m = wire.ReadRequest(handle_id=1, offset=0, length=131072)
    out = wire.decode_frame(wire.encode_frame(m))
    assert out is not None and out[0] == m


def test_generated_roundtrip():
    rng = random.Random(0xC0DEC)
    for _ in range(1000):
        m = random_message(rng)
        frame = wire.encode_frame(m)
        decoded, consumed = wire.decode_frame(frame)
        assert decoded == m
        assert consumed == len(frame)
        assert wire.encode_frame(decoded) == frame


def test_empty_input_needs_more():
    assert wire.decode_frame(b"") is None


def test_prefix_safety():
    rng = random.Random(7)
    for _ in range(50):
        frame = wire.encode_frame(random_message(rng))
        for cut in range(len(frame)):
            assert wire.decode_frame(frame[:cut]) is None


def test_concatenation_no_residue():
    rng = random.Random(11)
    m1, m2 = random_message(rng), random_message(rng)
    buf = wire.encode_frame(m1) + wire.encode_frame(m2)
    d1, c1 = wire.decode_frame(buf)
    d2, c2 = wire.decode_frame(buf[c1:])
    assert (d1, d2) == (m1, m2)
    assert c1 + c2 == len(buf)


def test_trailing_byte_left_alone():
    frame = wire.encode_frame(wire.StreamStart(handle_id=3, offset=0)) + b"\xff"
    msg, consumed = wire.decode_frame(frame)
    assert msg == wire.StreamStart(handle_id=3, offset=0)
    assert consumed == len(frame) - 1


def test_bad_magic():
    frame = bytearray(wire.encode_frame(wire.StreamStart(handle_id=1, offset=0)))
    frame[0] = 0x00
    frame[1] = 0x00
    with pytest.raises(ProtocolError):
        wire.decode_frame(bytes(frame))


def test_bad_version():
    frame = bytearray(wire.encode_frame(wire.StreamStart(handle_id=1, offset=0)))
    frame[2] = 9
    with pytest.raises(ProtocolError):
        wire.decode_frame(bytes(frame))


def test_unknown_msg_type():
    frame = bytearray(wire.encode_frame(wire.StreamStart(handle_id=1, offset=0)))
    frame[3] = 0x7F
    with pytest.raises(ProtocolError):
        wire.decode_frame(bytes(frame))


@pytest.mark.parametrize("code,payload_len", [(0x05, 16), (0x07, 8), (0x08, 8)],
                         ids=["0x05", "0x07", "0x08"])
def test_reserved_type_rejected(code, payload_len):
    # each reserved code belonged to a retired message: a well-formed header
    # naming it, with a payload that would fit a schema of one u64 (0x07's
    # and 0x08's were) or two, is still refused
    assert code not in set(wire.MsgType)
    frame = (bytes([0x52, 0x46, 0x01, code, 0, 0, 0, payload_len])
             + b"\x00" * payload_len)
    with pytest.raises(ProtocolError):
        wire.decode_frame(frame)


def test_reserved_error_code_6_rejected():
    # error code 6 belonged to a retired code: neither end accepts it
    assert 6 not in set(wire.ErrorCode)
    with pytest.raises(EncodeError, match="code 6 is not a valid ErrorCode"):
        wire.encode_frame(wire.ErrorReply(6, "x"))
    frame = bytearray(wire.encode_frame(
        wire.ErrorReply(wire.ErrorCode.PROTOCOL, "x")))
    frame[wire.HEADER_LEN + 1] = 6  # low byte of the u16 code
    with pytest.raises(ProtocolError):
        wire.decode_frame(bytes(frame))


def test_wire_format_doc_matches_codec_table():
    doc = Path(__file__).parent.parent / "docs" / "wire-format.md"
    rows = re.findall(r"^\| 0x([0-9A-F]{2}) \| (\w+) +\| (.*?) +\|$",
                      doc.read_text(), re.M)
    documented = {int(code, 16): (name, layout) for code, name, layout in rows}
    assert documented.pop(0x05)[0] == "reserved"
    assert documented.pop(0x07)[0] == "reserved"
    assert documented.pop(0x08)[0] == "reserved"
    assert set(documented) == {int(mtype) for mtype in wire._LAYOUTS}
    for mtype, (cls, fields) in wire._LAYOUTS.items():
        name, layout = documented[int(mtype)]
        assert name == cls.__name__
        # "payload: rest of frame" documents a field of type rest
        doc_fields = tuple((attr, kind.split()[0]) for attr, kind in
                           (field.split(": ") for field in layout.split(", ")))
        assert doc_fields == fields, name
        # the decoder builds each message from its fields positionally
        assert [attr for attr, _ in fields] == [
            f.name for f in dataclasses.fields(cls)]


def test_payload_shorter_than_schema():
    # claim payload_len 8 on a STREAM_START frame (schema wants 16)
    bad = bytes([0x52, 0x46, 0x01, wire.MsgType.STREAM_START, 0, 0, 0, 8]) + b"\x00" * 8
    with pytest.raises(ProtocolError):
        wire.decode_frame(bad)


def test_payload_longer_than_schema():
    bad = bytes([0x52, 0x46, 0x01, wire.MsgType.STREAM_START, 0, 0, 0, 20]) + b"\x00" * 20
    with pytest.raises(ProtocolError):
        wire.decode_frame(bad)


def _frame(mtype: wire.MsgType, payload: bytes) -> bytes:
    """A frame with a valid header around any payload bytes."""
    return bytes([0x52, 0x46, 0x01, mtype]) + len(payload).to_bytes(
        4, "big") + payload


@pytest.mark.parametrize("frame, message", [
    (_frame(wire.MsgType.DATA_CHUNK,
            bytes(16 + wire.MAX_CHUNK_PAYLOAD + 1)), "exceeds cap"),
    (_frame(wire.MsgType.NS_LOOKUP, b"\x00\x0a/ab"),
     "payload shorter than variant schema"),
    (_frame(wire.MsgType.NS_LOOKUP, b"\x00\x03/\xff\xfe"),
     "invalid UTF-8 in path"),
], ids=["rest-over-cap", "string-past-payload", "bad-utf8"])
def test_malformed_payload_fields_are_protocol_errors(frame, message):
    # each is a whole frame under the ceiling, refused by the field that
    # breaks it: a DataChunk payload one byte over the cap, a string length
    # prefix that runs past the payload, and bytes that are not UTF-8
    with pytest.raises(ProtocolError, match=message):
        wire.decode_frame(frame)


def test_absurd_payload_len_rejected():
    # header claiming a multi-GiB payload must error, not wait for bytes forever
    hdr = bytes([0x52, 0x46, 0x01, wire.MsgType.DATA_CHUNK]) + (1 << 30).to_bytes(4, "big")
    with pytest.raises(ProtocolError):
        wire.decode_frame(hdr)


def test_chunk_payload_cap():
    big = b"\x00" * (wire.MAX_CHUNK_PAYLOAD + 1)
    with pytest.raises(EncodeError):
        wire.encode_frame(wire.DataChunk(handle_id=1, offset=0, payload=big))


def test_string_field_too_long():
    with pytest.raises(EncodeError):
        wire.encode_frame(wire.NsLookup(path="x" * 70000))


def test_out_of_range_enums_raise_encode_error():
    # the error names the enumeration, not a size the value fits
    with pytest.raises(EncodeError, match="mode 9 is not a valid ReadMode"):
        wire.encode_frame(wire.OpenRequest("/a", 9, 1, "t"))
    with pytest.raises(EncodeError, match="code 99 is not a valid ErrorCode"):
        wire.encode_frame(wire.ErrorReply(99, "x"))


def test_integer_overflow_raises_does_not_fit():
    with pytest.raises(EncodeError, match="offset -1 does not fit u64"):
        wire.encode_frame(wire.ReadRequest(handle_id=1, offset=-1, length=10))
    with pytest.raises(EncodeError, match="iobufsize 4294967296 does not fit u32"):
        wire.encode_frame(wire.OpenRequest("/a", 0, 1 << 32, "t"))


@pytest.mark.parametrize("msg", [
    wire.NsLookup(path="x" * 70000),
    wire.ReadRequest(handle_id=1, offset=-1, length=10),
    wire.DataChunk(handle_id=1, offset=0,
                   payload=b"\x00" * (wire.MAX_CHUNK_PAYLOAD + 1)),
    wire.OpenRequest(path="/a", mode=9, iobufsize=1, token="t"),
], ids=["long-string", "negative-u64", "oversize-chunk", "bad-mode"])
def test_frame_size_rejects_what_encode_rejects(msg):
    with pytest.raises(EncodeError):
        wire.encode_frame(msg)
    with pytest.raises(EncodeError):
        wire.frame_size(msg)


@pytest.mark.parametrize("msg", [
    wire.NsLookup(path="\ud800"),
    wire.OpenRequest(path="/a", mode=0, iobufsize=1, token="t\udfff"),
], ids=["lone-high-surrogate", "lone-low-surrogate"])
def test_invalid_unicode_string_raises_encode_error(msg):
    with pytest.raises(EncodeError):
        wire.encode_frame(msg)
    with pytest.raises(EncodeError):
        wire.frame_size(msg)


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_roundtrip_property(rng):
    m = random_message(rng)
    frame = wire.encode_frame(m)
    decoded, consumed = wire.decode_frame(frame + b"\x01\x02")
    assert decoded == m
    assert consumed == len(frame)


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_frame_size_matches_encoded_length(rng):
    m = random_message(rng)
    assert wire.frame_size(m) == len(wire.encode_frame(m))


U64_MAX = (1 << 64) - 1
LONGEST = "x" * 0xFFFF  # the longest string a u16 length prefix allows
UTF8 = "/dé/€/\U0001d11e"  # 13 bytes: 1-, 2-, 3- and 4-byte characters

# frame sizes recorded once from len(encode_frame(msg)), so that frame_size
# stays pinned whatever becomes of the encoder
RECORDED_FRAME_SIZES = {
    "open-request-empty": (
        wire.OpenRequest("", wire.ReadMode.NORMAL, 0, ""), 17),
    "open-request-longest": (
        wire.OpenRequest(LONGEST, wire.ReadMode.STREAM, (1 << 32) - 1,
                         LONGEST), 131087),
    "open-request-utf8": (
        wire.OpenRequest(UTF8, wire.ReadMode.READAHEAD, 1 << 20,
                         "é€\U0001d11e"), 39),
    "open-reply-max": (wire.OpenReply(U64_MAX, U64_MAX), 24),
    "read-request-max": (wire.ReadRequest(U64_MAX, U64_MAX, U64_MAX), 32),
    "data-chunk-empty": (wire.DataChunk(U64_MAX, U64_MAX, b""), 24),
    "data-chunk-256k": (
        wire.DataChunk(U64_MAX, U64_MAX, bytes(256 * 1024)), 262168),
    "stream-start-max": (wire.StreamStart(U64_MAX, U64_MAX), 24),
    "error-reply-empty": (wire.ErrorReply(wire.ErrorCode.PROTOCOL, ""), 12),
    "error-reply-longest": (
        wire.ErrorReply(wire.ErrorCode.NOT_FOUND, LONGEST), 65547),
    "error-reply-utf8": (wire.ErrorReply(wire.ErrorCode.AUTH, UTF8), 25),
    "ns-lookup-empty": (wire.NsLookup(""), 10),
    "ns-lookup-longest": (wire.NsLookup(LONGEST), 65545),
    "ns-lookup-utf8": (wire.NsLookup(UTF8), 23),
    "ns-lookup-reply-empty": (wire.NsLookupReply("", 0, 0), 26),
    "ns-lookup-reply-longest": (
        wire.NsLookupReply(LONGEST, U64_MAX, U64_MAX), 65561),
    "ns-lookup-reply-utf8": (wire.NsLookupReply(UTF8, U64_MAX, U64_MAX), 39),
}


@pytest.mark.parametrize("case", RECORDED_FRAME_SIZES)
def test_frame_size_matches_recorded_table(case):
    msg, size = RECORDED_FRAME_SIZES[case]
    assert wire.frame_size(msg) == size


def test_recorded_frame_sizes_cover_every_variant():
    assert {wire.msg_type_of(msg)
            for msg, _ in RECORDED_FRAME_SIZES.values()} == set(wire.MsgType)
