"""Wire format of the live runtime.

On the network every transmission is one *frame* — a 4-byte big-endian
length prefix followed by a frame body.  A body holds an **envelope**
(protocol version, sender pid, receiver pid) and a **batch** of hop
protocol records, so one flush of a node's outgoing buffer amortizes
syscall and encode cost over the whole congestion window.

The body encoding is compact binary: a struct-packed header
``(version, src, dst, count)`` followed by ``count`` struct-packed
records; ``DATA`` payloads travel as length-prefixed bytes.  The first
body byte is the version tag ``0x02`` (the JSON framing it replaced was
v1); a body led by anything else is a readable :class:`WireFormatError`.

Hop protocol record kinds (see :mod:`repro.runtime.hop` for the window
protocol that produces them):

``DATA``
    Carries one stored message ``(dest, seq, uid, payload, valid)`` one
    hop toward its destination.  ``seq`` is a per-(sender, receiver,
    dest) lane sequence number; ``rel`` piggybacks the sender's
    cumulative release level (every seq <= ``rel`` has been erased
    upstream, so the receiver may commit those records — rule R2's
    guard, carried over the wire).
``ACK``
    Cumulative: the receiver has accepted every seq <= ``cum`` in order,
    plus the out-of-order seqs flagged in the 64-bit ``sack`` bitmap
    (bit *i* = seq ``cum + 1 + i``).  ``rel_seen`` echoes the highest
    release level the receiver has applied, confirming REL delivery.
``REL``
    Standalone cumulative release (used when no DATA is in flight to
    piggyback on): every seq <= ``rel`` is erased at the sender.
``RACK``
    Reply to a standalone ``REL``: the receiver has applied releases up
    to ``rel`` — the sender may stop retransmitting the REL.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, List, Sequence, Tuple

from repro.errors import ConfigurationError, ReproError

#: Hop-protocol record kinds.
DATA, ACK, REL, RACK = "DATA", "ACK", "REL", "RACK"

#: The wire protocol version (first byte of every frame body).
WIRE_V2 = 2

_LEN = struct.Struct(">I")

#: Frames above this are rejected (a corrupted length prefix must not make
#: a reader allocate gigabytes).
MAX_FRAME = 1 << 20


class WireFormatError(ReproError, ValueError):
    """A frame body that cannot be decoded: truncated, corrupted, or
    structurally invalid.  Always carries a readable message — codec
    internals (``struct.error``, ``json.JSONDecodeError``) never leak."""


# -- record constructors -------------------------------------------------------
# One plain dict per side of the wire: built here or by the codec, stored as is.


def data_rec(
    dest: int, seq: int, uid: int, payload: Any, valid: bool, rel: int = 0
) -> Dict[str, Any]:
    """A ``DATA`` record (``rel`` piggybacks the cumulative release)."""
    return {"k": DATA, "d": dest, "s": seq, "u": uid, "p": payload,
            "v": valid, "r": rel}


def ack_rec(dest: int, cum: int, sack: int = 0, rel_seen: int = 0) -> Dict[str, Any]:
    """An ``ACK`` record: cumulative + selective-ack bitmap."""
    return {"k": ACK, "d": dest, "c": cum, "b": sack, "r": rel_seen}


def rel_rec(dest: int, rel: int) -> Dict[str, Any]:
    """A standalone cumulative ``REL`` record."""
    return {"k": REL, "d": dest, "r": rel}


def rack_rec(dest: int, rel: int) -> Dict[str, Any]:
    """A ``RACK`` record confirming releases up to ``rel``."""
    return {"k": RACK, "d": dest, "r": rel}


# -- v2 binary codec ----------------------------------------------------------

_HEADER = struct.Struct(">BHHH")          # version, src, dst, record count
_KIND_DATA, _KIND_ACK, _KIND_REL, _KIND_RACK = 1, 2, 3, 4
_DATA_HDR = struct.Struct(">BHIQBII")     # kind, d, seq, uid, flags, rel, plen
_ACK_REC = struct.Struct(">BHIQI")        # kind, d, cum, sack, rel_seen
_REL_REC = struct.Struct(">BHI")          # kind, d, rel
_FLAG_VALID = 1
#: Payload encoding tag, stored in flags bits 1-2.  Plain strings and ints
#: (the overwhelmingly common payloads) skip JSON on both sides of the
#: wire; everything else falls back to compact JSON.
_PTYPE_JSON, _PTYPE_STR, _PTYPE_INT = 0, 1, 2


def _encode_v2(src: int, dst: int, records: Sequence[Dict[str, Any]]) -> bytes:
    parts: List[bytes] = [_HEADER.pack(WIRE_V2, src, dst, len(records))]
    try:
        for rec in records:
            kind = rec["k"]
            if kind == DATA:
                ptype, payload = _payload_bytes(rec["p"])
                flags = (_FLAG_VALID if rec["v"] else 0) | (ptype << 1)
                parts.append(
                    _DATA_HDR.pack(
                        _KIND_DATA, rec["d"], rec["s"], rec["u"],
                        flags, rec["r"], len(payload),
                    )
                )
                parts.append(payload)
            elif kind == ACK:
                parts.append(
                    _ACK_REC.pack(_KIND_ACK, rec["d"], rec["c"], rec["b"], rec["r"])
                )
            elif kind == REL:
                parts.append(_REL_REC.pack(_KIND_REL, rec["d"], rec["r"]))
            elif kind == RACK:
                parts.append(_REL_REC.pack(_KIND_RACK, rec["d"], rec["r"]))
            else:
                raise WireFormatError(f"unknown record kind {kind!r}")
    except (struct.error, KeyError, TypeError) as exc:
        raise WireFormatError(f"record not encodable as wire v2: {exc}") from None
    return b"".join(parts)


def _payload_bytes(payload: Any) -> Tuple[int, bytes]:
    if type(payload) is str:
        return _PTYPE_STR, payload.encode("utf-8")
    if type(payload) is int:  # bool is excluded: it must round-trip as bool
        return _PTYPE_INT, b"%d" % payload
    try:
        return _PTYPE_JSON, json.dumps(payload, separators=(",", ":")).encode(
            "utf-8"
        )
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"payload is not JSON-serializable: {exc}"
        ) from None


def _decode_v2(body: bytes) -> Tuple[int, int, List[Dict[str, Any]]]:
    try:
        _, src, dst, count = _HEADER.unpack_from(body, 0)
    except struct.error:
        raise WireFormatError("truncated v2 frame header") from None
    offset = _HEADER.size
    records: List[Dict[str, Any]] = []
    try:
        for _ in range(count):
            kind = body[offset]
            if kind == _KIND_DATA:
                _, d, seq, uid, flags, rel, plen = _DATA_HDR.unpack_from(
                    body, offset
                )
                offset += _DATA_HDR.size
                if plen > MAX_FRAME or offset + plen > len(body):
                    raise WireFormatError(
                        f"DATA payload length {plen} overruns the frame"
                    )
                raw = body[offset : offset + plen]
                ptype = (flags >> 1) & 0x3
                try:
                    if ptype == _PTYPE_STR:
                        payload = raw.decode("utf-8")
                    elif ptype == _PTYPE_INT:
                        payload = int(raw)
                    else:
                        payload = json.loads(raw)
                except (ValueError, UnicodeDecodeError):
                    raise WireFormatError(
                        f"DATA payload does not decode as type {ptype}"
                    ) from None
                offset += plen
                # data_rec's dict, in place: the object the receiving lane stores.
                records.append({
                    "k": DATA, "d": d, "s": seq, "u": uid, "p": payload,
                    "v": bool(flags & _FLAG_VALID), "r": rel,
                })
            elif kind == _KIND_ACK:
                _, d, cum, sack, rel_seen = _ACK_REC.unpack_from(body, offset)
                offset += _ACK_REC.size
                records.append(ack_rec(d, cum, sack, rel_seen))
            elif kind in (_KIND_REL, _KIND_RACK):
                _, d, rel = _REL_REC.unpack_from(body, offset)
                offset += _REL_REC.size
                records.append(
                    rel_rec(d, rel) if kind == _KIND_REL else rack_rec(d, rel)
                )
            else:
                raise WireFormatError(f"unknown v2 record tag {kind}")
    except struct.error:
        raise WireFormatError("truncated v2 record") from None
    except IndexError:
        raise WireFormatError("truncated v2 frame body") from None
    if offset != len(body):
        raise WireFormatError(
            f"{len(body) - offset} trailing bytes after {count} records"
        )
    return src, dst, records


# -- the codec seam -----------------------------------------------------------


def encode_records(
    src: int, dst: int, records: Sequence[Dict[str, Any]], version: int = WIRE_V2
) -> bytes:
    """Serialize one record batch to a length-prefixed frame.

    Both transports pass ``version`` positionally; only v2 exists.
    """
    if version != WIRE_V2:
        raise ConfigurationError(f"unknown wire version {version!r}")
    body = _encode_v2(src, dst, records)
    if len(body) > MAX_FRAME:
        raise ConfigurationError(
            f"frame of {len(body)} bytes exceeds MAX_FRAME={MAX_FRAME}"
        )
    return _LEN.pack(len(body)) + body


def decode_frame_body(body: bytes) -> Tuple[int, int, int, List[Dict[str, Any]]]:
    """Parse one frame body.

    Returns ``(version, src, dst, records)``.  Raises
    :class:`WireFormatError` on anything undecodable — never a raw
    ``struct.error`` or ``json`` traceback.
    """
    if not body:
        raise WireFormatError("empty frame body")
    if body[0] != WIRE_V2:
        raise WireFormatError(
            f"unrecognized frame body (first byte {body[0]:#04x} is not "
            f"the v2 tag)"
        )
    src, dst, records = _decode_v2(body)
    return WIRE_V2, src, dst, records


def split_frames(buffer: bytes) -> Tuple[list, bytes]:
    """Split ``buffer`` into complete frame bodies plus the unconsumed
    tail (stream parsing for the TCP transport)."""
    bodies = []
    offset = 0
    while len(buffer) - offset >= _LEN.size:
        (length,) = _LEN.unpack_from(buffer, offset)
        if length > MAX_FRAME:
            raise WireFormatError(f"frame length {length} exceeds MAX_FRAME")
        if len(buffer) - offset - _LEN.size < length:
            break
        start = offset + _LEN.size
        bodies.append(buffer[start : start + length])
        offset = start + length
    return bodies, buffer[offset:]


def sack_bitmap(cum: int, out_of_order: Sequence[int]) -> int:
    """The 64-bit selective-ack bitmap for seqs held above ``cum``."""
    bits = 0
    for seq in out_of_order:
        i = seq - cum - 1
        if 0 <= i < 64:
            bits |= 1 << i
    return bits


def sack_seqs(cum: int, bits: int) -> List[int]:
    """The seqs flagged by a selective-ack bitmap."""
    seqs = []
    i = 0
    while bits:
        if bits & 1:
            seqs.append(cum + 1 + i)
        bits >>= 1
        i += 1
    return seqs
