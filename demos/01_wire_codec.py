"""
Framing messages on the wire
============================

Every connection in this package speaks the same binary protocol: an
8-byte header (magic "RF", version, message type, payload length) followed
by a per-variant payload. This walkthrough encodes a few messages, looks
at the raw bytes, and shows that a partial frame decodes as "not yet".
"""

from remfio.wire import (
    DataChunk,
    ReadRequest,
    StreamStart,
    decode_frame,
    encode_frame,
)

# Starting a push of handle 7 from offset 0. Two fields of the frame header
# are constants, so the interesting bytes are the type (0x06), the payload
# length (16) and the two 8-byte big-endian fields: handle id, then offset.
frame = encode_frame(StreamStart(handle_id=7, offset=0))
print("StreamStart{handle_id: 7, offset: 0} ->", frame.hex(" "))

# Round trip: decode gives back an equal message plus the bytes consumed.
msg, consumed = decode_frame(frame)
print("decoded:", msg, "consumed:", consumed, "bytes")

# A read request carries handle, offset, and length, each u64.
req = ReadRequest(handle_id=1, offset=0, length=131072)
print("ReadRequest is", len(encode_frame(req)), "bytes on the wire")

# Streams deliver data as DataChunk frames; the payload simply runs to the
# end of the frame, so a chunk costs 24 bytes of overhead regardless of size.
chunk = DataChunk(handle_id=1, offset=0, payload=b"x" * 1000)
print("1000-byte DataChunk frame is", len(encode_frame(chunk)), "bytes")

# A strict prefix of a frame is never an error, just "not yet": decode_frame
# returns None until the full frame has arrived.
print("prefix decodes:", [decode_frame(frame[:n]) for n in (0, 4, 23)])
