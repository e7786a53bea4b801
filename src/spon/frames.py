"""Overlay frame wire format.

Layout, all integers big-endian:
  version(1) kind(1) service(1) k(1)
  src-len(1) src  dst-len(1) dst
  seq(8) priority(1) deadline(8, microseconds, 0 = none)
  route-count(1) { hop-count(1) { hop-len(1) hop }* }*
  payload-len(4) payload

Frames are passed as objects inside the simulator; encode/decode exist so the
format stays stable and testable byte for byte.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

VERSION = 1

KIND_DATA = 1
KIND_ACK = 2
KIND_HOP_DATA = 4
KIND_HOP_NACK = 5
KIND_NAMES = {
    KIND_DATA: "data",
    KIND_ACK: "ack",
    KIND_HOP_DATA: "hop-data",
    KIND_HOP_NACK: "hop-nack",
}

SERVICE_NONE = 0
SERVICE_PRI = 1
SERVICE_REL = 2

# `k` of the hop layer's frames.  An empty-payload hop-nack carries a
# high-water seq: an announce (0) asks the receiver to confirm, and a confirm
# (1) says the receiver holds every frame up to seq.  A hop-data wrapper
# whose frame left the sender's port empty carries HOP_ACK_REQ (1), and the
# receiver confirms it after a short delay; other wrappers carry 0.  A
# wrapper has no deadline of its own, so its `deadline_us` carries the
# sender's cumulative ack for the reverse direction: the next seq due, which
# confirms every frame below it, or 0 when no confirm is owed.
HOP_ANNOUNCE = 0
HOP_CONFIRM = 1
HOP_ACK_REQ = 1

MAX_PAYLOAD = 1 << 20

# encoded bytes of a frame besides its two ids, its routes and its payload:
# the four leading fields, the two id lengths, seq, priority, deadline, the
# route count and the payload length
_FIXED_BYTES = 4 + 1 + 1 + 8 + 1 + 8 + 1 + 4


class FrameError(ValueError):
    """Frame violates the wire format."""


def route_size(hops: Tuple[str, ...]) -> int:
    """Encoded bytes of one route: its hop count, then each hop id with its
    length."""
    size = 1
    for hop in hops:
        size += 1 + len(hop.encode())
    return size


def _check_id(name: str, value: str) -> bytes:
    raw = value.encode("utf-8")
    if len(raw) > 255:
        raise FrameError(f"{name} id longer than 255 bytes")
    return raw


# slotted: frames are the most numerous live objects of a run, and a slot
# costs less memory than an instance dict entry
@dataclass(slots=True)
class Frame:
    kind: int
    service: int = SERVICE_NONE
    k: int = 0
    src: str = ""
    dst: str = ""
    seq: int = 0
    priority: int = 0
    deadline_us: int = 0
    routes: Tuple[Tuple[str, ...], ...] = ()
    payload: bytes = b""
    # hop-data carries another frame; kept as an object in-process and only
    # serialized into payload on encode.
    inner: Optional["Frame"] = None
    # Encoded length, computed on first use or set when the frame is built
    # by new_frame.  Frames are not mutated once sized (decode sets `inner`
    # before returning).
    _size: Optional[int] = field(
        default=None, init=False, repr=False, compare=False)

    def wire_size(self) -> int:
        if self._size is None:
            size = self._unrouted_size()
            for route in self.routes:
                size += route_size(route)
            self._size = size
        return self._size

    def _unrouted_size(self) -> int:
        if self.inner is not None:
            body = self.inner.wire_size()
        else:
            body = len(self.payload)
        return _FIXED_BYTES + len(self.src.encode()) + len(self.dst.encode()) \
            + body

    def restamp(self, k: int, paths: Sequence = ()) -> "Frame":
        """A copy routed over `paths`, each a `topology.Path`; dataclasses.replace
        does the same at several times the cost.  The copy is sized from the
        paths' `route_size`, so no route is encoded per frame."""
        routes = []
        size = self._unrouted_size()
        for path in paths:
            routes.append(path.hops)
            size += path.route_size
        return new_frame(self.kind, self.service, k, self.src, self.dst,
                         self.seq, self.priority, self.deadline_us,
                         tuple(routes), self.payload, self.inner, size)

    def encode(self) -> bytes:
        if self.kind not in KIND_NAMES:
            raise FrameError(f"unknown kind {self.kind}")
        if not 0 <= self.k <= 255 or not 0 <= self.priority <= 255:
            raise FrameError("k and priority must fit one byte")
        if not 0 <= self.seq < 1 << 64 or not 0 <= self.deadline_us < 1 << 64:
            raise FrameError("seq and deadline must fit eight bytes")
        if len(self.routes) > 255:
            raise FrameError("too many routes")
        payload = self.inner.encode() if self.inner is not None else self.payload
        if len(payload) > MAX_PAYLOAD:
            raise FrameError("payload too large")
        src = _check_id("src", self.src)
        dst = _check_id("dst", self.dst)
        out = bytearray()
        out += struct.pack(">BBBB", VERSION, self.kind, self.service, self.k)
        out += struct.pack(">B", len(src)) + src
        out += struct.pack(">B", len(dst)) + dst
        out += struct.pack(">QBQ", self.seq, self.priority, self.deadline_us)
        out += struct.pack(">B", len(self.routes))
        for route in self.routes:
            if len(route) > 255:
                raise FrameError("route longer than 255 hops")
            out += struct.pack(">B", len(route))
            for hop in route:
                raw = _check_id("hop", hop)
                out += struct.pack(">B", len(raw)) + raw
        out += struct.pack(">I", len(payload)) + payload
        return bytes(out)


_new = object.__new__


def new_frame(kind: int, service: int, k: int, src: str, dst: str, seq: int,
              priority: int, deadline_us: int,
              routes: Tuple[Tuple[str, ...], ...], payload: bytes,
              inner: Optional[Frame], size: int) -> Frame:
    """A Frame of every field given, encoded in `size` bytes.  The link path
    builds its frames here: allocating and setting each slot costs less than
    a call of the class, which also runs type.__call__ and the dataclass
    __init__ (about 190 against 260 ns on CPython 3.11, a 2-core VM)."""
    frame = _new(Frame)
    frame.kind = kind
    frame.service = service
    frame.k = k
    frame.src = src
    frame.dst = dst
    frame.seq = seq
    frame.priority = priority
    frame.deadline_us = deadline_us
    frame.routes = routes
    frame.payload = payload
    frame.inner = inner
    frame._size = size
    return frame


def decode(data: bytes) -> Frame:
    """Parse one frame; hop-data payloads are decoded recursively."""
    try:
        return _decode(memoryview(data))
    except (struct.error, IndexError, UnicodeDecodeError) as exc:
        raise FrameError(f"truncated or malformed frame: {exc}") from None


def _decode(view: memoryview) -> Frame:
    pos = 0

    def take(n: int) -> memoryview:
        nonlocal pos
        if pos + n > len(view):
            raise FrameError("frame truncated")
        out = view[pos:pos + n]
        pos += n
        return out

    version, kind, service, k = struct.unpack(">BBBB", take(4))
    if version != VERSION:
        raise FrameError(f"unsupported version {version}")
    if kind not in KIND_NAMES:
        raise FrameError(f"unknown kind {kind}")
    src = bytes(take(take(1)[0])).decode("utf-8")
    dst = bytes(take(take(1)[0])).decode("utf-8")
    seq, priority, deadline_us = struct.unpack(">QBQ", take(17))
    routes = []
    for _ in range(take(1)[0]):
        hops = []
        for _ in range(take(1)[0]):
            hops.append(bytes(take(take(1)[0])).decode("utf-8"))
        routes.append(tuple(hops))
    (plen,) = struct.unpack(">I", take(4))
    payload = bytes(take(plen))
    if pos != len(view):
        raise FrameError("trailing bytes after frame")
    frame = Frame(kind=kind, service=service, k=k, src=src, dst=dst, seq=seq,
                  priority=priority, deadline_us=deadline_us,
                  routes=tuple(routes), payload=payload)
    if kind == KIND_HOP_DATA and payload:
        frame.inner = decode(payload)
    return frame
