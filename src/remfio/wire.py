"""Binary wire protocol: frame layout, message variants, codec.

Every control and data connection carries a sequence of frames:

    0        1        2        3        4                 8
    +--------+--------+--------+--------+--------//-------+------------+
    | 0x52   | 0x46   | version| type   |  payload_len    |  payload   |
    | 'R'    | 'F'    | (1)    |        |  u32 big-endian |            |
    +--------+--------+--------+--------+--------//-------+------------+

payload_len is the exact byte length of the payload. Integers inside
payloads are unsigned big-endian; strings are UTF-8 with a u16 length
prefix. Per-variant payload layouts are documented in docs/wire-format.md.

Byte accounting convention used by the rest of the package: bytes-on-wire
counts DataChunk payload bytes only, never headers or control frames. That
keeps "wire == consumed" exact for request/reply reads.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

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

# Encoding-side limit on payload size (u32 slot, signed-friendly).
_ENCODE_LIMIT = 1 << 31


class MsgType(enum.IntEnum):
    OPEN_REQUEST = 0x01
    OPEN_REPLY = 0x02
    READ_REQUEST = 0x03
    DATA_CHUNK = 0x04
    # 0x05 is reserved: it belonged to a retired message. Never reuse it.
    STREAM_START = 0x06
    CONTROL_INTERRUPT = 0x07
    CLOSE_REQUEST = 0x08
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
    RANGE = 6
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
    handle_id: int
    offset: int
    payload: bytes


@dataclass(frozen=True)
class StreamStart:
    handle_id: int
    offset: int


@dataclass(frozen=True)
class ControlInterrupt:
    handle_id: int


@dataclass(frozen=True)
class CloseRequest:
    handle_id: int


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
    | ControlInterrupt
    | CloseRequest
    | ErrorReply
    | NsLookup
    | NsLookupReply
)

# ---------------------------------------------------------------------------
# payload packing helpers
# ---------------------------------------------------------------------------

_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise EncodeError(f"string field too long: {len(raw)} bytes")
    return _U16.pack(len(raw)) + raw


def _pack_u64(v: int) -> bytes:
    if not 0 <= v < 1 << 64:
        raise EncodeError(f"u64 field out of range: {v}")
    return _U64.pack(v)


class _Reader:
    """Cursor over one payload; every under/overrun is a protocol error."""

    def __init__(self, payload: bytes):
        self.buf = payload
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise ProtocolError("payload shorter than variant schema")
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def u16(self) -> int:
        return _U16.unpack(self.take(2))[0]

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def u64(self) -> int:
        return _U64.unpack(self.take(8))[0]

    def string(self) -> str:
        n = self.u16()
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"invalid UTF-8 in string field: {exc}") from exc

    def rest(self) -> bytes:
        out = self.buf[self.pos :]
        self.pos = len(self.buf)
        return out

    def done(self) -> None:
        if self.pos != len(self.buf):
            raise ProtocolError(
                f"payload_len mismatch: {len(self.buf) - self.pos} trailing bytes"
            )


# ---------------------------------------------------------------------------
# per-variant payload codecs
# ---------------------------------------------------------------------------


def _enc_open_request(m: OpenRequest) -> bytes:
    if m.iobufsize < 0 or m.iobufsize > 0xFFFFFFFF:
        raise EncodeError(f"iobufsize out of range: {m.iobufsize}")
    return (
        _pack_str(m.path)
        + bytes([ReadMode(m.mode)])
        + _U32.pack(m.iobufsize)
        + _pack_str(m.token)
    )


def _dec_open_request(r: _Reader) -> OpenRequest:
    path = r.string()
    mode_raw = r.take(1)[0]
    try:
        mode = ReadMode(mode_raw)
    except ValueError as exc:
        raise ProtocolError(f"unknown read mode {mode_raw}") from exc
    iobufsize = r.u32()
    token = r.string()
    return OpenRequest(path=path, mode=mode, iobufsize=iobufsize, token=token)


def _enc_open_reply(m: OpenReply) -> bytes:
    return _pack_u64(m.handle_id) + _pack_u64(m.file_size)


def _dec_open_reply(r: _Reader) -> OpenReply:
    return OpenReply(handle_id=r.u64(), file_size=r.u64())


def _enc_read_request(m: ReadRequest) -> bytes:
    if m.offset < 0 or m.length < 0:
        raise EncodeError("offset/length must be non-negative")
    return _pack_u64(m.handle_id) + _pack_u64(m.offset) + _pack_u64(m.length)


def _dec_read_request(r: _Reader) -> ReadRequest:
    return ReadRequest(handle_id=r.u64(), offset=r.u64(), length=r.u64())


def _enc_data_chunk(m: DataChunk) -> bytes:
    if len(m.payload) > MAX_CHUNK_PAYLOAD:
        raise EncodeError(
            f"DataChunk payload {len(m.payload)} exceeds cap {MAX_CHUNK_PAYLOAD}"
        )
    return _pack_u64(m.handle_id) + _pack_u64(m.offset) + bytes(m.payload)


def _dec_data_chunk(r: _Reader) -> DataChunk:
    return DataChunk(handle_id=r.u64(), offset=r.u64(), payload=r.rest())


def _enc_stream_start(m: StreamStart) -> bytes:
    return _pack_u64(m.handle_id) + _pack_u64(m.offset)


def _dec_stream_start(r: _Reader) -> StreamStart:
    return StreamStart(handle_id=r.u64(), offset=r.u64())


def _enc_control_interrupt(m: ControlInterrupt) -> bytes:
    return _pack_u64(m.handle_id)


def _dec_control_interrupt(r: _Reader) -> ControlInterrupt:
    return ControlInterrupt(handle_id=r.u64())


def _enc_close_request(m: CloseRequest) -> bytes:
    return _pack_u64(m.handle_id)


def _dec_close_request(r: _Reader) -> CloseRequest:
    return CloseRequest(handle_id=r.u64())


def _enc_error_reply(m: ErrorReply) -> bytes:
    return _U16.pack(ErrorCode(m.code)) + _pack_str(m.detail)


def _dec_error_reply(r: _Reader) -> ErrorReply:
    code_raw = r.u16()
    try:
        code = ErrorCode(code_raw)
    except ValueError as exc:
        raise ProtocolError(f"unknown error code {code_raw}") from exc
    return ErrorReply(code=code, detail=r.string())


def _enc_ns_lookup(m: NsLookup) -> bytes:
    return _pack_str(m.path)


def _dec_ns_lookup(r: _Reader) -> NsLookup:
    return NsLookup(path=r.string())


def _enc_ns_lookup_reply(m: NsLookupReply) -> bytes:
    return _pack_str(m.replica_address) + _pack_u64(m.file_size) + _pack_u64(m.checksum)


def _dec_ns_lookup_reply(r: _Reader) -> NsLookupReply:
    return NsLookupReply(
        replica_address=r.string(), file_size=r.u64(), checksum=r.u64()
    )


_CODECS = {
    MsgType.OPEN_REQUEST: (OpenRequest, _enc_open_request, _dec_open_request),
    MsgType.OPEN_REPLY: (OpenReply, _enc_open_reply, _dec_open_reply),
    MsgType.READ_REQUEST: (ReadRequest, _enc_read_request, _dec_read_request),
    MsgType.DATA_CHUNK: (DataChunk, _enc_data_chunk, _dec_data_chunk),
    MsgType.STREAM_START: (StreamStart, _enc_stream_start, _dec_stream_start),
    MsgType.CONTROL_INTERRUPT: (
        ControlInterrupt,
        _enc_control_interrupt,
        _dec_control_interrupt,
    ),
    MsgType.CLOSE_REQUEST: (CloseRequest, _enc_close_request, _dec_close_request),
    MsgType.ERROR_REPLY: (ErrorReply, _enc_error_reply, _dec_error_reply),
    MsgType.NS_LOOKUP: (NsLookup, _enc_ns_lookup, _dec_ns_lookup),
    MsgType.NS_LOOKUP_REPLY: (NsLookupReply, _enc_ns_lookup_reply, _dec_ns_lookup_reply),
}

_TYPE_OF = {cls: mtype for mtype, (cls, _e, _d) in _CODECS.items()}


def msg_type_of(msg: Message) -> MsgType:
    try:
        return _TYPE_OF[type(msg)]
    except KeyError:
        raise EncodeError(f"not a wire message: {type(msg).__name__}") from None


def encode_frame(msg: Message) -> bytes:
    """Serialize one message to a complete frame (header + payload)."""
    mtype = msg_type_of(msg)
    payload = _CODECS[mtype][1](msg)
    if len(payload) >= _ENCODE_LIMIT:
        raise EncodeError(f"payload too large to frame: {len(payload)} bytes")
    return _HEADER.pack(MAGIC, VERSION, mtype, len(payload)) + payload


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
    reader = _Reader(bytes(view[HEADER_LEN:total]))
    msg = _CODECS[mtype][2](reader)
    reader.done()
    if isinstance(msg, DataChunk) and len(msg.payload) > MAX_CHUNK_PAYLOAD:
        raise ProtocolError(
            f"DataChunk payload {len(msg.payload)} exceeds cap {MAX_CHUNK_PAYLOAD}"
        )
    return msg, total


class FrameDecoder:
    """Incremental decoder for byte streams (sockets feed partial reads)."""

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> list[Message]:
        self._buf.extend(data)
        out: list[Message] = []
        while True:
            result = decode_frame(self._buf)
            if result is None:
                return out
            msg, consumed = result
            del self._buf[:consumed]
            out.append(msg)

    def pending_bytes(self) -> int:
        return len(self._buf)
