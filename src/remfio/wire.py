"""Binary wire protocol: frame layout, message variants, codec.

Every control and data connection carries a sequence of frames:

    0        1        2        3        4                 8
    +--------+--------+--------+--------+--------//-------+------------+
    | 0x52   | 0x46   | version| type   |  payload_len    |  payload   |
    | 'R'    | 'F'    | (1)    |        |  u32 big-endian |            |
    +--------+--------+--------+--------+--------//-------+------------+

payload_len is the exact byte length of the payload. Integers inside
payloads are unsigned big-endian; strings are UTF-8 with a u16 length
prefix. _LAYOUTS is the single statement of every variant's payload: the
encoder, the decoder and frame_size all read it, and docs/wire-format.md
mirrors it (a test compares the two).

Byte accounting convention used by the rest of the package: bytes-on-wire
counts DataChunk payload bytes only, never headers or control frames. That
keeps "wire == consumed" exact for request/reply reads.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from operator import attrgetter

from .errors import EncodeError, ProtocolError

MAGIC = b"\x52\x46"
VERSION = 1
HEADER_LEN = 8
_HEADER = struct.Struct(">2sBBI")

# DataChunk payloads are capped per frame so streams interleave with control
# traffic and decoder memory stays bounded.
MAX_CHUNK_PAYLOAD = 256 * 1024

# Hard ceiling on any frame's payload_len. Larger claims are rejected at the
# header stage: the largest legal variant (DataChunk) is 16 + 256 KiB.
MAX_PAYLOAD_LEN = 1 << 20


class MsgType(enum.IntEnum):
    OPEN_REQUEST = 0x01
    OPEN_REPLY = 0x02
    READ_REQUEST = 0x03
    DATA_CHUNK = 0x04
    # 0x05, 0x07 and 0x08 are reserved: they belonged to retired messages.
    # Never reuse them.
    STREAM_START = 0x06
    ERROR_REPLY = 0x09
    NS_LOOKUP = 0x0A
    NS_LOOKUP_REPLY = 0x0B


class ReadMode(enum.IntEnum):
    """Per-session read strategy; immutable for a handle's lifetime."""

    NORMAL = 0
    READBUF = 1
    READAHEAD = 2
    STREAM = 3


class ErrorCode(enum.IntEnum):
    NOT_FOUND = 1
    AUTH = 2
    QUEUE_OVERFLOW = 3
    STALE_REPLICA = 4
    STALE_HANDLE = 5
    # 6 is reserved: it belonged to a retired code. Never reuse it.
    PROTOCOL = 7


@dataclass(frozen=True)
class OpenRequest:
    path: str
    mode: ReadMode
    iobufsize: int
    token: str


@dataclass(frozen=True)
class OpenReply:
    handle_id: int
    file_size: int


@dataclass(frozen=True)
class ReadRequest:
    handle_id: int
    offset: int
    length: int


@dataclass(frozen=True)
class DataChunk:
    """File bytes at offset. The payload is any read-only bytes-like object,
    often a view of the pool content shared with other chunks; nothing may
    write through it."""

    handle_id: int
    offset: int
    payload: bytes | memoryview


@dataclass(frozen=True)
class StreamStart:
    handle_id: int
    offset: int


@dataclass(frozen=True)
class ErrorReply:
    code: ErrorCode
    detail: str


@dataclass(frozen=True)
class NsLookup:
    path: str


@dataclass(frozen=True)
class NsLookupReply:
    replica_address: str
    file_size: int
    checksum: int


Message = (
    OpenRequest
    | OpenReply
    | ReadRequest
    | DataChunk
    | StreamStart
    | ErrorReply
    | NsLookup
    | NsLookupReply
)

# ---------------------------------------------------------------------------
# the layout table and the codec loops that read it
# ---------------------------------------------------------------------------

# Each variant's payload is its fields in this order, with no padding. The
# type names are docs/wire-format.md's: u8/u16/u32/u64 are unsigned
# big-endian, string is a u16 byte length then UTF-8, and rest is raw bytes
# to the end of the payload (DataChunk's last field, at most
# MAX_CHUNK_PAYLOAD long). Field order is also the message class's field
# order.
_LAYOUTS = {
    MsgType.OPEN_REQUEST: (OpenRequest, (("path", "string"), ("mode", "u8"),
                                         ("iobufsize", "u32"),
                                         ("token", "string"))),
    MsgType.OPEN_REPLY: (OpenReply, (("handle_id", "u64"),
                                     ("file_size", "u64"))),
    MsgType.READ_REQUEST: (ReadRequest, (("handle_id", "u64"),
                                         ("offset", "u64"),
                                         ("length", "u64"))),
    MsgType.DATA_CHUNK: (DataChunk, (("handle_id", "u64"), ("offset", "u64"),
                                     ("payload", "rest"))),
    MsgType.STREAM_START: (StreamStart, (("handle_id", "u64"),
                                         ("offset", "u64"))),
    MsgType.ERROR_REPLY: (ErrorReply, (("code", "u16"), ("detail", "string"))),
    MsgType.NS_LOOKUP: (NsLookup, (("path", "string"),)),
    MsgType.NS_LOOKUP_REPLY: (NsLookupReply, (("replica_address", "string"),
                                              ("file_size", "u64"),
                                              ("checksum", "u64"))),
}

# integer fields whose value must also name a member of an enumeration
_ENUMS = {"mode": ReadMode, "code": ErrorCode}

_INTS = {"u8": struct.Struct(">B"), "u16": struct.Struct(">H"),
         "u32": struct.Struct(">I"), "u64": struct.Struct(">Q")}
_STR_LEN = _INTS["u16"]

_TYPE_OF = {cls: mtype for mtype, (cls, _fields) in _LAYOUTS.items()}


def msg_type_of(msg: Message) -> MsgType:
    try:
        return _TYPE_OF[type(msg)]
    except KeyError:
        raise EncodeError(f"not a wire message: {type(msg).__name__}") from None


def _pack(msg: Message) -> tuple[MsgType, list]:
    """Check every field against its slot; return the payload's parts.

    A rest field is passed through as it is, so sizing a frame never copies
    its raw payload.
    """
    mtype = msg_type_of(msg)
    parts = []
    for attr, kind in _LAYOUTS[mtype][1]:
        value = getattr(msg, attr)
        if kind == "rest":
            if len(value) > MAX_CHUNK_PAYLOAD:
                raise EncodeError(f"{attr} of {len(value)} bytes exceeds "
                                  f"cap {MAX_CHUNK_PAYLOAD}")
            parts.append(value)
        elif kind == "string":
            try:
                raw = value.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise EncodeError(f"{attr} is not valid Unicode") from exc
            if len(raw) > 0xFFFF:
                raise EncodeError(f"{attr} too long: {len(raw)} bytes")
            parts += (_STR_LEN.pack(len(raw)), raw)
        else:
            enum_type = _ENUMS.get(attr)
            if enum_type is not None:
                try:
                    value = enum_type(value)
                except ValueError as exc:
                    raise EncodeError(f"{attr} {value!r} is not a valid "
                                      f"{enum_type.__name__}") from exc
            try:
                parts.append(_INTS[kind].pack(value))
            except struct.error as exc:
                raise EncodeError(f"{attr} {value!r} does not fit {kind}") from exc
    return mtype, parts


def _one_pack(fields) -> tuple | None:
    """A struct's pack of a layout's fields but a rest, their getter and the
    frame length without the rest; None if one is a string or an enum."""
    ints = [(attr, kind) for attr, kind in fields if kind != "rest"]
    if any(kind not in _INTS or attr in _ENUMS for attr, kind in ints):
        return None
    packed = struct.Struct(">" + "".join(_INTS[k].format[1:] for _, k in ints))
    return (packed.pack, attrgetter(*(attr for attr, _ in ints)),
            HEADER_LEN + packed.size)


_SIZED = {cls: sized for cls, fields in _LAYOUTS.values()
          if (sized := _one_pack(fields)) is not None}


def frame_size(msg: Message) -> int:
    """len(encode_frame(msg)), computed without building the frame. An
    all-integer variant is checked by one pack of its _SIZED struct, whose
    formats are _pack's, and a DataChunk's payload against the cap; what
    is refused, and every other variant, goes through _pack, which raises
    encode_frame's EncodeError."""
    sized = _SIZED.get(msg.__class__)
    if sized is not None:
        pack, fields, size = sized
        try:
            pack(*fields(msg))
        except struct.error:
            pass  # _pack names the field
        else:
            n = len(msg.payload) if msg.__class__ is DataChunk else 0
            if n <= MAX_CHUNK_PAYLOAD:
                return size + n
    return HEADER_LEN + sum(map(len, _pack(msg)[1]))


def encode_frame(msg: Message) -> bytes:
    """Serialize one message to a complete frame (header + payload)."""
    mtype, parts = _pack(msg)
    header = _HEADER.pack(MAGIC, VERSION, mtype, sum(map(len, parts)))
    return b"".join([header, *parts])


def decode_frame(buf: bytes | bytearray | memoryview) -> tuple[Message, int] | None:
    """Decode exactly one frame from the head of buf.

    Returns (message, bytes_consumed) on success, None when more bytes are
    needed, and raises ProtocolError on malformed input. Trailing bytes after
    the first frame are left untouched.
    """
    view = memoryview(buf)
    if len(view) < HEADER_LEN:
        return None
    magic, version, mtype_raw, payload_len = _HEADER.unpack_from(view, 0)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic.hex()}")
    if version != VERSION:
        raise ProtocolError(f"unsupported version {version}")
    try:
        mtype = MsgType(mtype_raw)
    except ValueError as exc:
        raise ProtocolError(f"unknown message type 0x{mtype_raw:02x}") from exc
    if payload_len > MAX_PAYLOAD_LEN:
        raise ProtocolError(f"payload_len {payload_len} exceeds frame ceiling")
    total = HEADER_LEN + payload_len
    if len(view) < total:
        return None
    cls, fields = _LAYOUTS[mtype]
    values = []
    pos = HEADER_LEN
    for attr, kind in fields:
        if kind == "rest":
            if total - pos > MAX_CHUNK_PAYLOAD:
                raise ProtocolError(f"{attr} of {total - pos} bytes exceeds "
                                    f"cap {MAX_CHUNK_PAYLOAD}")
            values.append(bytes(view[pos:total]))
            pos = total
            continue
        slot = _STR_LEN if kind == "string" else _INTS[kind]
        if pos + slot.size > total:
            raise ProtocolError("payload shorter than variant schema")
        (value,) = slot.unpack_from(view, pos)
        pos += slot.size
        if kind == "string":
            start, pos = pos, pos + value
            if pos > total:
                raise ProtocolError("payload shorter than variant schema")
            try:
                value = str(view[start:pos], "utf-8")
            except UnicodeDecodeError as exc:
                raise ProtocolError(f"invalid UTF-8 in {attr}: {exc}") from exc
        elif attr in _ENUMS:
            try:
                value = _ENUMS[attr](value)
            except ValueError as exc:
                raise ProtocolError(f"unknown {attr} {value}") from exc
        values.append(value)
    if pos != total:
        raise ProtocolError(f"payload_len mismatch: {total - pos} trailing bytes")
    return cls(*values), total
