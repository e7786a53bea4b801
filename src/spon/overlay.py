"""Overlay node state machine.

Nodes are pure event machines: every operation takes the current virtual time
and returns a list of effects (transmit intents, deliveries, timer requests);
a discarded frame is only counted, and traced through `trace` if the node has
one.  The simulation engine owns the clock, the links and the timers; a node
never blocks and never draws randomness.

Two delivery services ride the same links: PRIORITY (timely, fair-queued per
source, no end-to-end retransmission) and RELIABLE (per-flow fair queuing,
end-to-end acks with doubling RTO).  k = 0 selects flooding, k >= 1 selects
that many node-disjoint source routes.  A flood goes no further than its
destination: each relay forwards the first copy it sees to every other up
neighbour, and the destination consumes it and forwards nothing.

A node adopts each view together with its up neighbours and its send plans,
one per (destination, k).  The first send toward a destination in a view
works out the best-path latency, the routes or why there are none, and the
frame's size besides its payload; every send builds one frame from its plan.

A node drops a copy it has seen before: one window per (source, service)
remembers the last DEDUP_WINDOW frames.  A REL destination acks the first copy
back the way it came: a flooded message's ack floods, a routed one's takes the
arrival route, or a pool route if that is down.  It acks a repeated routed
copy, such as a retransmit, over the next route of the pool; a repeated flood
copy gets no ack, since the first ack already flooded back.  The message's
entry in the window counts its acks, so one window holds both the duplicates
and the ack counts.

Each link direction additionally runs a small negative-ack recovery protocol:
frames carry per-link sequence numbers, receivers nack gaps, and senders keep
a bounded replay cache, indexed by link sequence number.  Trailing losses are
found without new traffic by delayed acknowledgement with a tail-loss probe
(TCP's delayed ACK and RACK-TLP).  The wrap that leaves no data frame waiting
in the port flags its frame (k = HOP_ACK_REQ) and arms the sender's probe
timer for ACK_DELAY_MS plus the re-nack interval.  A receiver arms its ack
timer for ACK_DELAY_MS on every flagged frame it accepts.  While no gap is
open, the confirm it owes rides the next data frame it wraps back toward the
sender, as a cumulative ack in the wrapper's deadline field (TCP's piggybacked
ACK), and cancels the ack timer; a gap fill is a replay, and its ack is
ignored.  When the timer fires with nothing missing and the confirm still
owed, the receiver confirms the high-water seq it holds in a frame of its own.
A confirm that covers the sender's last frame cancels the probe.  A lossless
quiet hop thus costs one control frame, and none when data flows back before
the ack timer fires.  A probe that fires unanswered sends an announce of the
high-water seq, which the receiver confirms or answers with a nack; unanswered
announces repeat, spaced by the re-nack interval and doubling,
ANNOUNCE_RETRIES at most.  Unanswered nacks repeat RENACK_ROUNDS times at the
re-nack interval, then at doubling waits capped at the announces' longest,
until a gap fill answers one or the gap outlives the sender's cache and is
given up.  A later arming of either timer supersedes an earlier one, a
back-off wait included; a probe that fires while data frames wait does
nothing, and waiting control frames never hold it back.  A node is made
with one hop record (`_Hop`) per link of the topology: the output port
toward the neighbour, and this protocol for both directions of the link.
The record resets its protocol state when the node's view says the link
went down, so a neighbour that restarts with fresh link seqs is heard from
seq 0.  The node owns the entry points, which hand port and hop work to the
record.

End-to-end seqs are numbered per (destination, service) from the node's
incarnation: the engine counts each spawn of a node (0, 1, ...), and the
counters of incarnation i start at i << 32, so a restarted node never reuses
a seq that a destination's duplicate window still holds.

Every relay runs the same protocol parameters, the module constants below.
`Config` holds the two that a scenario varies: the fair-queue partition size
and the PRIORITY deadline factor.
"""

from __future__ import annotations

import struct
import weakref
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from .frames import (
    Frame,
    HOP_ACK_REQ,
    HOP_ANNOUNCE,
    HOP_CONFIRM,
    KIND_ACK,
    KIND_DATA,
    KIND_HOP_DATA,
    KIND_HOP_NACK,
    SERVICE_NONE,
    SERVICE_PRI,
    SERVICE_REL,
    new_frame,
)
from .topology import (
    NoPath,
    NodeId,
    Path,
    TopologyView,
    k_disjoint_paths,
    shortest_path,
)

PRI = SERVICE_PRI
REL = SERVICE_REL

FLOODING = 0

# scheduler
CONTROL_CAPACITY = 4096      # frames in the per-port control queue
# duplicate suppression
DEDUP_WINDOW = 4096          # remembered seqs per (src, service)
# hop-by-hop recovery
HOP_CACHE_FRAMES = 16384     # per-neighbor retransmission cache; must cover
                             # the bandwidth-delay product of the nack round
                             # trip at full link rate
HOP_CACHE_EXPIRY_MS = 2000.0
NACK_DELAY_MS = 1.0          # gap detection -> first nack
RENACK_MIN_MS = 4.0          # floor for the re-nack interval
RENACK_ROUNDS = 3            # unanswered nacks re-sent at the re-nack
                             # interval before it doubles like the announces
ACK_DELAY_MS = 2.0           # flagged frame -> delayed confirm; the sender
                             # probes this plus the re-nack interval after it
ANNOUNCE_RETRIES = 6         # announces per idle period at most; each asks
                             # for a confirm, and a confirm ends them early
NACK_BATCH = 512             # seqs per nack frame
# forwarding
MAX_PAYLOAD_BYTES = 65536
# reliable service
REL_MAX_RETRIES = 8
REL_ROUTE_POOL = 4           # disjoint paths cycled on retransmit
DEFAULT_RTT_MS = 1000.0      # RTO seed when no path is known


@dataclass(frozen=True)
class Config:
    """The relay parameters a scenario varies."""
    buffer_capacity: int = 1024        # frames per fair-queue partition
    deadline_factor: float = 10.0      # PRIORITY deadline = factor x best path


DEFAULT_CONFIG = Config()


class PayloadTooLarge(ValueError):
    pass


@dataclass(frozen=True)
class ServiceClass:
    kind: int            # PRI | REL, the frame's service code
    k: int = FLOODING    # 0 = flooding, otherwise disjoint path count

    def __post_init__(self):
        if self.kind not in (PRI, REL):
            raise ValueError(f"unknown service kind {self.kind!r}")
        if self.k < 0:
            raise ValueError("k must be >= 0")


# --- effects ------------------------------------------------------------------

@dataclass(slots=True)
class Transmit:
    """A frame was queued toward `neighbor`; the engine services the port."""
    neighbor: NodeId
    frame: Frame


@dataclass(slots=True)
class Deliver:
    """A payload reached its destination node, in a frame of `wire_bytes`."""
    payload: bytes
    wire_bytes: int


# the link path builds a Transmit per queued frame and a Deliver per message
# consumed; allocating and setting each slot costs less than a call of the
# class, as new_frame does for frames
_new = object.__new__


def _new_transmit(neighbor: NodeId, frame: Frame) -> Transmit:
    eff = _new(Transmit)
    eff.neighbor = neighbor
    eff.frame = frame
    return eff


def _new_deliver(payload: bytes, wire_bytes: int) -> Deliver:
    eff = _new(Deliver)
    eff.payload = payload
    eff.wire_bytes = wire_bytes
    return eff


class TimerRecord:
    """The engine's record of one timer: its last arming (`owner`, `due`,
    `seq`, `data`) and its one heap entry (`entry_due`, `entry_seq`, 0 while
    not armed).  A hop keeps one per hop timer; the engine makes one per
    timer named by `key`.  A record without a key is its own key."""

    __slots__ = ("timer_id", "key", "owner", "due", "seq", "data",
                 "entry_due", "entry_seq")

    def __init__(self, timer_id: tuple, key: Optional[tuple] = None):
        self.timer_id = timer_id
        self.key = key
        self.entry_seq = 0       # the rest is set when it is armed


# `timer` is the record a hop keeps for the timer, shared by all of that
# timer's effects; None names the timer by its id alone
@dataclass(slots=True)
class SetTimer:
    timer_id: tuple
    delay_ms: float
    data: object = None
    timer: Optional[TimerRecord] = field(default=None, compare=False, repr=False)


@dataclass(slots=True)
class CancelTimer:
    timer_id: tuple
    timer: Optional[TimerRecord] = field(default=None, compare=False, repr=False)


Effects = List[object]


# --- adversary ----------------------------------------------------------------

@dataclass(frozen=True)
class Behavior:
    kind: str = "honest"                 # honest | drop_all | drop_flow | delay
    flow: Optional[Tuple[NodeId, NodeId]] = None
    delay_ms: float = 0.0

    @classmethod
    def drop_all(cls) -> "Behavior":
        return cls("drop_all")

    @classmethod
    def drop_flow(cls, src: NodeId, dst: NodeId) -> "Behavior":
        return cls("drop_flow", flow=(src, dst))

    @classmethod
    def delay(cls, delay_ms: float) -> "Behavior":
        return cls("delay", delay_ms=delay_ms)


# every relay's behaviour unless it is compromised; `handle_frame` and
# `_process` test identity
HONEST = Behavior()


# --- scheduler ----------------------------------------------------------------

class _Partition:
    """One fair-queue partition of a port: its frames by priority level, and
    how many it holds."""

    __slots__ = ("levels", "size")

    def __init__(self):
        self.levels: Dict[int, Deque[Frame]] = defaultdict(deque)
        self.size = 0


class OutPort:
    """Per-neighbor output buffers: fair-queued data partitions plus a strict
    priority control queue for recovery traffic.  A PRIORITY frame's partition
    is found by its source, a RELIABLE frame's by its (source, destination)
    flow; `ring` lists the partitions in the order they were opened."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.partitions: Dict[object, _Partition] = {}
        self.ring: List[_Partition] = []
        self.ring_idx = 0
        self.control: Deque[Frame] = deque()
        self.queued = 0          # frames held, control included

    def enqueue(self, frame: Frame) -> bool:
        if frame.service == SERVICE_REL:
            key = (frame.src, frame.dst)
        else:
            key = frame.src
        part = self.partitions.get(key)
        if part is None:
            part = self.partitions[key] = _Partition()
            self.ring.append(part)
        size = part.size
        if size >= self.capacity:
            return False
        part.levels[frame.priority].append(frame)
        part.size = size + 1
        self.queued += 1
        return True

    def enqueue_control(self, frame: Frame) -> bool:
        if len(self.control) >= CONTROL_CAPACITY:
            return False
        self.control.append(frame)
        self.queued += 1
        return True

    def dequeue(self, now_ms: float) -> Tuple[Optional[Frame], int]:
        """Next frame for the wire plus the number of frames dropped past
        deadline.  Control first, then round-robin over the data partitions,
        each served from its highest priority level down."""
        if self.control:
            self.queued -= 1
            return self.control.popleft(), 0
        ring = self.ring
        n = len(ring)
        pos = self.ring_idx
        now_us = int(now_ms * 1000.0)
        expired = 0
        for _ in range(n):
            part = ring[pos]
            pos += 1
            if pos == n:
                pos = 0
            levels = part.levels
            # every pop on fairness-ramp and meltdown-routed, and 71% on
            # ping-flood-loss, is from a partition of one level: skip the sort
            for level in levels if len(levels) == 1 \
                    else sorted(levels, reverse=True):
                q = levels[level]
                while q:
                    frame = q.popleft()
                    part.size -= 1
                    self.queued -= 1
                    if (frame.service == SERVICE_PRI and frame.deadline_us
                            and now_us > frame.deadline_us):
                        expired += 1
                        continue
                    self.ring_idx = pos
                    return frame, expired
        return None, expired

    def drain(self) -> List[Frame]:
        """Remove and return every queued frame, control first."""
        out: List[Frame] = list(self.control)
        self.control.clear()
        for part in self.ring:
            levels = part.levels
            for level in sorted(levels, reverse=True):
                out.extend(levels[level])
            levels.clear()
            part.size = 0
        self.queued = 0
        return out

    def __len__(self) -> int:
        return self.queued


# --- hop-by-hop recovery --------------------------------------------------------

class _Hop:
    """A node's record of one neighbour: the output port toward it, and
    hop-by-hop recovery on the link, both directions.  The record owns the
    link protocol: it builds every hop-layer frame its node sends on the
    link, queues its own control frames and handles the link's timers.  The
    node owns the entry points; `node` refers back to it weakly, so that no
    cycle keeps a retired node alive until the cycle collector runs, and
    `src` is the node's id, read without the proxy.

    Sending: the replay cache holds (wire frame, time stored) for the
    contiguous seqs first_seq .. next_seq - 1, oldest on the left, so a seq
    indexes it directly; `confirmed` is the highest seq the neighbour said
    it holds.  Receiving: `expected` is the next seq due, `missing` maps
    each seq of an open gap to when the gap was found, and `acked` is the
    highest seq this node has told the neighbour it holds, by a confirm or
    by the ack on a wrapper of reverse data; it never decreases.  The node
    makes the record with itself, one per link of the topology, and `reset`
    clears this state when the link goes down in the node's view, so the
    two directions reset together.  The port, the re-nack interval, the
    header size and the timer effects are built once per record and
    survive a reset; every hop-layer frame the record sends is sized from
    that header.  The effects of each hop timer share its engine
    `TimerRecord`, through which the engine arms, cancels and fires it; a
    pop of its heap entry reads that record's fields.
    """

    def __init__(self, node: "NodeState", nbr: NodeId):
        self.node = node
        self.src = node.id
        self.nbr = nbr
        self.port = OutPort(node.config.buffer_capacity)
        self.reset()
        # how long a request on the link waits for its answer
        self.renack_ms = renack_ms = max(
            RENACK_MIN_MS, 2.5 * node.view.base.link(node.id, nbr).latency_ms)
        self.header_size = Frame(kind=KIND_HOP_DATA, src=node.id,
                                 dst=nbr).wire_size()
        probe, ack, nack = (TimerRecord((kind, nbr))
                            for kind in ("ann", "ack", "nack"))
        self.probe = SetTimer(probe.timer_id, ACK_DELAY_MS + renack_ms, None,
                              probe)
        # the unanswered announces re-arm the probe, doubling from renack_ms
        self.backoff = tuple(SetTimer(probe.timer_id, renack_ms * 2 ** i, None,
                                      probe)
                             for i in range(ANNOUNCE_RETRIES - 1))
        self.unprobe = CancelTimer(probe.timer_id, probe)
        self.ack = SetTimer(ack.timer_id, ACK_DELAY_MS, None, ack)
        self.unack = CancelTimer(ack.timer_id, ack)
        self.nack = SetTimer(nack.timer_id, NACK_DELAY_MS, None, nack)
        # unanswered nacks re-arm at renack_ms for RENACK_ROUNDS rounds, then
        # double up to the announces' longest wait; nack_round indexes this
        self.renacks = tuple(
            SetTimer(nack.timer_id,
                     renack_ms * 2 ** max(0, i - RENACK_ROUNDS + 1), None, nack)
            for i in range(RENACK_ROUNDS + ANNOUNCE_RETRIES - 1))
        self.unnack = CancelTimer(nack.timer_id, nack)

    def reset(self) -> None:
        """Start both directions of the link afresh, from seq 0; a reset
        record answers as one never used does."""
        self.next_seq = 0
        self.cache: Deque[Tuple[Frame, float]] = deque()
        self.first_seq = 0
        self.announce_round = 0
        self.confirmed = -1
        self.expected = 0
        self.missing: Dict[int, float] = {}
        self.acked = -1
        self.nack_armed = False
        self.nack_round = 0

    def _control(self, kind: int, k: int, seq: int,
                 payload: bytes = b"") -> Frame:
        """A hop-layer frame with no inner frame (confirm, announce, nack or
        tombstone), sized from the header like a hop-data wrapper."""
        return new_frame(kind, SERVICE_NONE, k, self.src, self.nbr, seq, 0, 0,
                         (), payload, None, self.header_size + len(payload))

    def _queue(self, frame: Frame, out: Effects) -> None:
        """Queue a hop-layer frame ahead of the port's data."""
        if self.port.enqueue_control(frame):
            out.append(_new_transmit(self.nbr, frame))
        else:
            self.node._drop("control_overflow")

    def wrap(self, frame: Frame, now: float, out: Effects) -> Frame:
        seq = self.next_seq
        self.next_seq += 1
        self.announce_round = 0
        # a confirm owed to the neighbour rides this frame as the cumulative
        # ack, the next seq due, and the ack timer has nothing left to send;
        # 0 means none is owed
        ack = 0
        if self.acked < self.expected - 1 and not self.missing:
            ack = self.expected
            self.acked = ack - 1
            out.append(self.unack)
        port = self.port
        if port.queued > len(port.control):
            k = 0      # a data frame waits behind this one
        else:
            # the wrap that empties the port asks for a confirm and arms the
            # tail probe, superseding any earlier arming, a back-off wait
            # included
            k = HOP_ACK_REQ
            out.append(self.probe)
        wire = new_frame(KIND_HOP_DATA, SERVICE_NONE, k, self.src, self.nbr,
                         seq, 0, ack, (), b"", frame,
                         self.header_size + frame.wire_size())
        cache = self.cache
        cache.append((wire, now))
        if len(cache) > HOP_CACHE_FRAMES:
            cache.popleft()
            self.first_seq += 1
        horizon = now - HOP_CACHE_EXPIRY_MS
        while cache[0][1] < horizon:
            cache.popleft()
            self.first_seq += 1
        return wire

    def lookup(self, seq: int, now: float) -> Optional[Frame]:
        horizon = now - HOP_CACHE_EXPIRY_MS
        cache = self.cache
        while cache and cache[0][1] < horizon:
            cache.popleft()
            self.first_seq += 1
        if self.first_seq <= seq < self.next_seq:
            return cache[seq - self.first_seq][0]
        return None

    def resend(self, payload: bytes, now: float, out: Effects) -> None:
        for seq in _unpack_seqs(payload):
            wire = self.lookup(seq, now)
            if wire is None:
                # evicted or expired: send an empty fill so the neighbour
                # stops asking; the data is gone at this layer
                self.node._drop("hop_unrecoverable")
                wire = self._control(KIND_HOP_DATA, 0, seq)
            self._queue(wire, out)

    def on_confirm(self, high: int, out: Effects) -> None:
        """The neighbour holds every frame up to `high`, by a confirm or by
        the ack on its data; a seq not sent yet predates a reset of this
        link and says nothing."""
        if self.confirmed < high < self.next_seq:
            self.confirmed = high
            if high == self.next_seq - 1:
                out.append(self.unprobe)     # nothing left to probe for

    def on_probe_timer(self, out: Effects) -> None:
        """The tail probe: no confirm covered the last frame in time."""
        port = self.port
        if port.queued > len(port.control):
            return     # data waits; the wrap that empties the port re-arms
        if self.confirmed >= self.next_seq - 1:
            return
        self._queue(self._control(KIND_HOP_NACK, HOP_ANNOUNCE,
                                  self.next_seq - 1), out)
        self.announce_round += 1
        if self.announce_round < ANNOUNCE_RETRIES:
            out.append(self.backoff[self.announce_round - 1])

    def receive(self, wire: Frame, now: float,
                out: Effects) -> Optional[Frame]:
        seq = wire.seq
        if seq >= self.expected:
            if seq > self.expected:
                self._mark_missing(seq, now)
                self._arm_nack(out)
            self.expected = seq + 1
            if wire.deadline_us:
                # the neighbour's confirm rode its data; a gap fill is a
                # replay whose ack may predate a reset of the link, and
                # confirms nothing
                self.on_confirm(wire.deadline_us - 1, out)
        elif seq in self.missing:
            del self.missing[seq]
            self.nack_round = 0      # the nacks are answered again
        else:
            self.node._drop("hop_duplicate")
            return None
        if wire.k == HOP_ACK_REQ:
            # a later flagged frame supersedes this arming
            out.append(self.ack)
        return wire.inner

    def on_announce(self, high: int, now: float, out: Effects) -> None:
        """Anything up to the announced `high` never seen is lost; with
        nothing missing, confirm so the announces stop."""
        if high >= self.expected:
            self._mark_missing(high + 1, now)
        if self.missing:
            self._arm_nack(out)
        else:
            self._confirm(high, out)

    def _confirm(self, high: int, out: Effects) -> None:
        """Tell the neighbour this node holds every frame up to `high`."""
        if high > self.acked:
            self.acked = high
        self._queue(self._control(KIND_HOP_NACK, HOP_CONFIRM, high), out)

    def _mark_missing(self, end: int, now: float) -> None:
        """Every seq from `expected` below `end` never arrived; remember at
        most HOP_CACHE_FRAMES of them, the sender caches no more."""
        for s in range(max(self.expected, end - HOP_CACHE_FRAMES), end):
            self.missing[s] = now
        self.expected = end

    def _arm_nack(self, out: Effects) -> None:
        if not self.nack_armed:
            self.nack_armed = True
            out.append(self.nack)

    def on_nack_timer(self, now: float, out: Effects) -> None:
        """Give up the seqs missing for longer than the sender caches them;
        nack the rest, NACK_BATCH at most, lowest first."""
        self.nack_armed = False
        horizon = now - HOP_CACHE_EXPIRY_MS
        for seq in [s for s, t in self.missing.items() if t < horizon]:
            del self.missing[seq]
            self.node._count("hop_gave_up")
        if not self.missing:
            return
        want = sorted(self.missing)[:NACK_BATCH]
        self._queue(self._control(KIND_HOP_NACK, 0, 0, _pack_seqs(want)), out)
        self.nack_armed = True
        renacks = self.renacks
        out.append(renacks[min(self.nack_round, len(renacks) - 1)])
        self.nack_round += 1

    def on_ack_timer(self, out: Effects) -> None:
        """Confirm the frames a flagged frame closed, unless the neighbour
        was already told (an ack on reverse data cancels this timer); over a
        gap the nack timer, armed when the gap opened, answers instead."""
        if self.acked < self.expected - 1 and not self.missing:
            self._confirm(self.expected - 1, out)


class _Window(dict):
    """A dict of at most DEDUP_WINDOW keys; `order` lists its keys oldest
    first, so the oldest is forgotten without a scan of the dict."""

    __slots__ = ("order",)

    def __init__(self):
        super().__init__()
        self.order: Deque[tuple] = deque()


def _remember(window: _Window, key: tuple, value: object = None) -> None:
    """Set `key` in the window, forgetting the oldest key when a new one
    overfills it; a key set again keeps its place."""
    if key not in window:
        order = window.order
        order.append(key)
        if len(order) > DEDUP_WINDOW:
            del window[order.popleft()]
    window[key] = value


@dataclass
class _RelPending:
    frame: Frame
    attempts: int = 0
    rto_ms: float = 0.0


def _pack_seqs(seqs: List[int]) -> bytes:
    return b"".join(struct.pack(">Q", s) for s in seqs)


def _unpack_seqs(payload: bytes) -> List[int]:
    if len(payload) % 8:
        return []
    return [struct.unpack(">Q", payload[i:i + 8])[0] for i in range(0, len(payload), 8)]


# --- node ----------------------------------------------------------------------

class NodeState:
    """One overlay relay.  See the module docstring for the contract."""

    def __init__(self, node_id: NodeId, view: TopologyView,
                 config: Config = DEFAULT_CONFIG, incarnation: int = 0):
        self.id = node_id
        self.incarnation = incarnation
        self._adopt(view)
        self.config = config
        self.behavior = HONEST
        me = weakref.proxy(self)
        self.hops: Dict[NodeId, _Hop] = {
            nbr: _Hop(me, nbr) for nbr in view.base.neighbors(node_id)}
        self.seq_counters: Dict[Tuple[NodeId, int], int] = {}
        # (src, service) -> the (dst, seq, kind) of frames already seen; the
        # entry of a REL data frame for this node counts the acks sent for it
        self.dedup_window: Dict[Tuple[NodeId, int], _Window] = \
            defaultdict(_Window)
        self.rel_pending: Dict[Tuple[NodeId, int], _RelPending] = {}
        # REL transit frames awaiting a route, CONTROL_CAPACITY at most
        self.parked: Deque[Frame] = deque()
        self._delay_counter = 0
        # the engine hands every relay it spawns its run's one table, and
        # its trace writer when it traces
        self.counters: Dict[str, int] = {}
        self.trace: Optional[Callable[[str, NodeId, str], None]] = None

    # -- helpers --

    def _adopt(self, view: TopologyView) -> None:
        """Take `view` with the node's up neighbours in it, and plan every
        send afresh in it."""
        self.view = view
        self.up = view.up_neighbors(self.id)
        # (dst, k) -> (best-path latency or None, first hops or the NoPath
        # detail, routes, frame bytes besides the payload); see _plan
        self.plans: Dict[Tuple[NodeId, int], tuple] = {}

    def _count(self, reason: str) -> None:
        self.counters[reason] = self.counters.get(reason, 0) + 1

    def _drop(self, reason: str) -> None:
        self._count(reason)
        if self.trace is not None:
            self.trace("drop", self.id, reason)

    def _next_seq(self, dst: NodeId, kind: int) -> int:
        key = (dst, kind)
        seq = self.seq_counters.get(key, self.incarnation << 32) + 1
        self.seq_counters[key] = seq
        return seq

    def _enqueue_data(self, neighbor: NodeId, frame: Frame, out: Effects) -> None:
        if self.hops[neighbor].port.enqueue(frame):
            out.append(_new_transmit(neighbor, frame))
        else:
            self._drop("buffer_full")

    def _plan(self, dst: NodeId, k: int) -> tuple:
        """What every send toward `dst` over `k` routes needs in this view,
        worked out on the first such send.  The best path sets a PRIORITY
        deadline and seeds a REL RTO.  A routed send gets the k disjoint
        paths' first hops, or the NoPath detail, which is raised afresh on
        every send; a flood gets no hops.  The routes and the frame's bytes
        besides its payload are those Frame.restamp gives over the paths."""
        try:
            best_ms = shortest_path(self.view, self.id, dst).total_latency_ms
        except NoPath:
            best_ms = None
        paths: List[Path] = []
        first_hops: object = ()
        if k != FLOODING:
            try:
                paths = k_disjoint_paths(self.view, self.id, dst, k)
            except NoPath as exc:
                first_hops = exc.detail
            else:
                first_hops = tuple(path.hops[1] for path in paths)
        shell = Frame(KIND_DATA, src=self.id, dst=dst).restamp(0, paths)
        plan = self.plans[(dst, k)] = (best_ms, first_hops, shell.routes,
                                       shell._size)
        return plan

    def _route_pool(self, dst: NodeId) -> List[Path]:
        try:
            return k_disjoint_paths(self.view, self.id, dst, REL_ROUTE_POOL)
        except NoPath:
            return []

    # -- client entry point --

    def client_send(self, dst: NodeId, payload: bytes, service: ServiceClass,
                    now: float, deadline_ms: Optional[float] = None,
                    priority: int = 0) -> Effects:
        if len(payload) > MAX_PAYLOAD_BYTES:
            raise PayloadTooLarge(f"{len(payload)} bytes")
        out: Effects = []
        if dst == self.id:
            out.append(Deliver(payload, len(payload)))
            return out

        kind = service.kind
        k = service.k
        seq = self._next_seq(dst, kind)
        plan = self.plans.get((dst, k))
        if plan is None:
            plan = self._plan(dst, k)
        best_ms, first_hops, routes, size = plan
        if kind == REL:
            deadline_ms = None        # a REL frame never expires
        elif deadline_ms is None and best_ms is not None:
            deadline_ms = self.config.deadline_factor * best_ms
        deadline_us = 0 if deadline_ms is None \
            else int((now + deadline_ms) * 1000.0)

        if first_hops.__class__ is str:
            raise NoPath(self.id, dst, first_hops)
        # one frame, k = 0 for a flood and the number of routes otherwise,
        # sized as Frame.restamp sizes it
        frame = new_frame(KIND_DATA, kind, len(routes), self.id, dst, seq,
                          priority, deadline_us, routes, payload, None,
                          size + len(payload))
        if k == FLOODING:
            self._launch(frame, out)
        else:
            for nbr in first_hops:
                self._enqueue_data(nbr, frame, out)
        # registered only once the first transmission is actually queued
        if kind == REL:
            rtt_ms = DEFAULT_RTT_MS if best_ms is None else 2.0 * best_ms
            pending = _RelPending(frame, rto_ms=2.0 * rtt_ms)
            self.rel_pending[(dst, seq)] = pending
            out.append(SetTimer(("rel", dst, seq), pending.rto_ms))
        return out

    def _launch(self, frame: Frame, out: Effects) -> None:
        """First transmission of a flood, to every up neighbour."""
        neighbors = self.up
        if not neighbors:
            raise NoPath(self.id, frame.dst, "no up neighbor")
        # suppress copies echoed back to us
        _remember(self.dedup_window[(frame.src, frame.service)],
                  (frame.dst, frame.seq, frame.kind))
        for nbr in neighbors:
            self._enqueue_data(nbr, frame, out)

    # -- frame arrival --

    def handle_frame(self, from_nbr: NodeId, wire: Frame, now: float) -> Effects:
        out: Effects = []
        if wire.kind == KIND_HOP_DATA:
            inner = self.hops[from_nbr].receive(wire, now, out)
            if inner is not None:
                # an honest relay's data and acks, nearly every frame it
                # handles, skip _process's checks
                if self.behavior is not HONEST \
                        or (inner.kind != KIND_DATA and inner.kind != KIND_ACK):
                    self._process(from_nbr, inner, out)
                elif inner.k == FLOODING:
                    self._process_flood(from_nbr, inner, out)
                else:
                    self._process_routed(from_nbr, inner, out)
        elif wire.kind != KIND_HOP_NACK:
            # unwrapped frames only occur in unit tests; process directly
            self._process(from_nbr, wire, out)
        elif wire.payload:
            self.hops[from_nbr].resend(wire.payload, now, out)
        elif wire.k == HOP_CONFIRM:
            self.hops[from_nbr].on_confirm(wire.seq, out)
        else:
            self.hops[from_nbr].on_announce(wire.seq, now, out)
        return out

    # -- data plane --

    def _adversarial(self, frame: Frame) -> bool:
        b = self.behavior
        if b.kind == "drop_all":
            return True
        if b.kind == "drop_flow" and b.flow == (frame.src, frame.dst):
            return True
        return False

    def _process(self, from_nbr: NodeId, frame: Frame, out: Effects,
                 delayed: bool = False) -> None:
        if frame.kind not in (KIND_DATA, KIND_ACK):
            self._drop("unhandled_kind")
            return
        b = self.behavior
        if b is not HONEST:
            if self._adversarial(frame):
                self._drop("adversarial")
                return
            if b.kind == "delay" and not delayed:
                self._delay_counter += 1
                out.append(SetTimer(("delay", self._delay_counter), b.delay_ms,
                                    data=(from_nbr, frame)))
                return

        if frame.k == FLOODING:
            self._process_flood(from_nbr, frame, out)
        else:
            self._process_routed(from_nbr, frame, out)

    def _first_copy(self, from_nbr: NodeId, frame: Frame, out: Effects) -> bool:
        """Remember the frame in its source's window; for REL data for this
        node the value counts the acks sent, the first one included.  A copy
        seen before is dropped, and such REL data is acked again if routed."""
        window = self.dedup_window[(frame.src, frame.service)]
        entry = (frame.dst, frame.seq, frame.kind)
        if entry in window:
            self._drop("duplicate")
            if frame.dst == self.id and frame.kind == KIND_DATA \
                    and frame.service == SERVICE_REL and frame.k != FLOODING:
                acks = window[entry]
                window[entry] = acks + 1
                self._send_ack(frame, from_nbr, acks, out)
            return False
        _remember(window, entry, 1)
        return True

    def _process_flood(self, from_nbr: NodeId, frame: Frame,
                       out: Effects) -> None:
        if not self._first_copy(from_nbr, frame, out):
            return
        if frame.dst == self.id:
            # no other node consumes the frame, so a copy sent on is wasted
            self._consume(frame, from_nbr, out)
            return
        for nbr in self.up:
            if nbr != from_nbr:
                self._enqueue_data(nbr, frame, out)

    def _process_routed(self, from_nbr: NodeId, frame: Frame,
                        out: Effects) -> None:
        if frame.dst == self.id:
            if self._first_copy(from_nbr, frame, out):
                self._consume(frame, from_nbr, out)
            return
        # the hop after this node on the first route that has one
        me = self.id
        for route in frame.routes:
            try:
                idx = route.index(me) + 1
            except ValueError:
                continue
            if idx < len(route):
                nxt = route[idx]
                break
        else:
            self._drop("not_on_route")
            return
        if nxt in self.up:
            self._enqueue_data(nxt, frame, out)
        elif nxt in self.view.base.neighbors(me):
            self._reroute(frame, out)
        else:
            self._drop("bad_route")

    def _reroute(self, frame: Frame, out: Effects) -> None:
        """Next hop is down: restamp the tail of the route from here."""
        try:
            path = shortest_path(self.view, self.id, frame.dst)
        except NoPath:
            if frame.service != SERVICE_REL:
                self._drop("no_route")
            elif len(self.parked) >= CONTROL_CAPACITY:
                self._drop("parked_full")
            else:
                self.parked.append(frame)
                self._count("parked")
            return
        restamped = frame.restamp(frame.k, (path,))
        self._enqueue_data(path.hops[1], restamped, out)

    def _consume(self, frame: Frame, from_nbr: NodeId, out: Effects) -> None:
        if frame.kind == KIND_ACK:
            pending = self.rel_pending.pop((frame.src, frame.seq), None)
            if pending is not None:
                out.append(CancelTimer(("rel", frame.src, frame.seq)))
            return
        out.append(_new_deliver(frame.payload, frame.wire_size()))
        if frame.service == SERVICE_REL:
            self._send_ack(frame, from_nbr, 0, out)

    def _send_ack(self, data: Frame, from_nbr: NodeId, acks: int,
                  out: Effects) -> None:
        """Ack REL data after `acks` earlier acks for it; the module
        docstring says which way each ack goes."""
        ack = Frame(KIND_ACK, SERVICE_REL, 0, self.id, data.src, data.seq)
        if data.k != FLOODING:
            arrival = None if acks else self._arrival_route(data, from_nbr)
            if arrival is not None:
                back = Path(tuple(reversed(arrival)), 0.0)
                if self.view.usable(back):
                    self._enqueue_data(back.hops[1], ack.restamp(1, (back,)), out)
                    return
            pool = self._route_pool(data.src)
            if pool:
                path = pool[acks % len(pool)]
                self._enqueue_data(path.hops[1], ack.restamp(1, (path,)), out)
                return
        try:
            self._launch(ack, out)
        except NoPath:
            self._count("ack_no_route")

    def _arrival_route(self, frame: Frame, from_nbr: NodeId) -> Optional[Tuple[NodeId, ...]]:
        for route in frame.routes:
            if route and route[-1] == self.id and len(route) > 1 \
                    and route[-2] == from_nbr:
                return route
        return None

    # -- wire side, driven by the engine --

    def scheduler_dequeue(self, neighbor: NodeId, now: float) -> Tuple[Optional[Frame], Effects]:
        """Pick the next frame for the neighbor-facing link.  The effects are
        hop timers only, as are wrap_for_link's: the engine applies them
        without an effect pass."""
        out: Effects = []
        hop = self.hops[neighbor]
        frame, expired = hop.port.dequeue(now)
        if expired:
            for _ in range(expired):
                self._drop("deadline_expired")
            if frame is None and hop.next_seq:
                # the port emptied without a wrap, so no frame asked for a
                # confirm: the tail probe counts from here
                out.append(hop.probe)
        return frame, out

    def wrap_for_link(self, frame: Frame, neighbor: NodeId, now: float,
                      out: Effects) -> Frame:
        """Assign the per-link sequence number and remember the frame for
        nack-driven retransmission.  Recovery frames pass through as-is."""
        if frame.kind in (KIND_HOP_DATA, KIND_HOP_NACK):
            return frame
        return self.hops[neighbor].wrap(frame, now, out)

    # -- timers --

    def handle_timer(self, timer_id: tuple, data: object, now: float) -> Effects:
        out: Effects = []
        kind = timer_id[0]
        if kind == "rel":
            self._rel_timeout(timer_id, out)
        elif kind == "delay":
            from_nbr, frame = data
            self._process(from_nbr, frame, out, delayed=True)
        else:
            # a hop timer of the link to timer_id[1]
            hop = self.hops[timer_id[1]]
            if kind == "ack":     # nearly all of a relay's timer fires
                hop.on_ack_timer(out)
            elif kind == "nack":
                hop.on_nack_timer(now, out)
            else:
                hop.on_probe_timer(out)
        return out

    def _rel_timeout(self, timer_id: tuple, out: Effects) -> None:
        _tag, dst, seq = timer_id
        pending = self.rel_pending.get((dst, seq))
        if pending is None:
            return
        pending.attempts += 1
        if pending.attempts > REL_MAX_RETRIES:
            del self.rel_pending[(dst, seq)]
            self._count("rel_failed")
            return
        pending.rto_ms *= 2.0
        out.append(SetTimer(timer_id, pending.rto_ms))
        pool = self._route_pool(dst)
        originally_flooded = pending.frame.k == FLOODING
        flood_turn = (not originally_flooded) and pending.attempts % 3 == 0
        if pool and not flood_turn:
            path = pool[(pending.attempts - 1) % len(pool)]
            frame = pending.frame.restamp(1, (path,))
            self._enqueue_data(path.hops[1], frame, out)
            self._count("rel_retransmit")
            return
        if originally_flooded:
            # the first flood marked the window of each of the source's
            # neighbours, which drop a second flood as a duplicate, and with
            # no route pool nothing else can help
            return
        try:
            self._launch(pending.frame.restamp(FLOODING), out)
            self._count("rel_reflood")
        except NoPath:
            self._count("rel_stranded")

    # -- topology updates --

    def recompute_routes(self, new_view: TopologyView, now: float) -> Effects:
        """Adopt a new view; purge or restamp traffic aimed at dead elements.

        The port of every link down in the new view is drained.  A link that
        has just gone down first resets its hop record, and the cancels of
        its announce, nack and ack timers come right before the reroutes of
        its own port.  A restarted neighbour starts its link seqs at 0 as
        soon as it is up, before this node adopts the view that says so;
        resetting the record here, not when the link comes back, lets those
        first frames through."""
        out: Effects = []
        old_view = self.view
        self._adopt(new_view)
        for nbr, hop in self.hops.items():
            if new_view.link_is_up(self.id, nbr):
                continue
            if old_view.link_is_up(self.id, nbr):
                out += (hop.unprobe, hop.unnack, hop.unack)
                hop.reset()
            for frame in hop.port.drain():
                if frame.kind in (KIND_HOP_DATA, KIND_HOP_NACK):
                    continue   # link-layer traffic dies with the link
                if frame.k == FLOODING:
                    self._drop("link_down")
                else:
                    self._reroute(frame, out)
        parked = list(self.parked)
        self.parked.clear()
        for frame in parked:
            self._reroute(frame, out)
        return out
