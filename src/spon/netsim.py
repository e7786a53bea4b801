"""Deterministic discrete-event network harness.

The engine owns physical truth: link occupancy, serialization, propagation,
loss sampling, and fault timing.  Overlay nodes are pure state machines
(`spon.overlay.NodeState`); clients are actors attached to nodes that react to
deliveries and timers through a narrow `EngineApi`.

Determinism contract: a run is a pure function of (inputs, seed).  The event
heap orders by (time_ms, insertion seq); every per-link-direction loss stream
has its own RNG derived from the seed and the direction label, so reordering
elsewhere cannot perturb it.

Each link direction caches its fixed facts (latency, bit rate) at
construction, and its up state and loss from the ground view; the cache is
refreshed each time the ground view changes, so a transmission and an
arrival read only their link direction.  A frame leaves only while its
direction is up, and dies in flight unless it arrives in the epoch it left
in; a direction's epoch counts the times it went down.  A raw pipe's
directions cache their path's facts and follow the epoch rule the same way.

Every arming of a timer pushes its own heap entry under a new insertion seq
and writes that seq, with its data, to the timer's `TimerRecord`: a hop
holds the record of each of its timers and hands it over in their effects,
and any other timer's is found by its (owner, timer id) key.  An entry fires
only while its seq is its record's; one superseded by a later arming, or
whose timer fired or was cancelled, is dead, and a pop reads the record and
looks nothing up.  A dead entry does not set the clock: when `run` returns,
`Engine.now` is the time of the last event that acted, and a stream row
still running at the end, and the settle sweep, read that time whatever the
heap held past it.

A run keeps one counter table, `Engine.counters`.  Every relay the engine
spawns counts its drops and recoveries straight into it, so a relay that goes
down takes nothing with it; the engine's own keys (`wire_*`, `raw_*`,
`send_*`, `deliver_*`, `delivered`, `inflight_lost`) and the relays' never
share a name.  Each discarded frame, packet or delivery is one count and,
when the engine traces, one `drop` row named by its counter (`Engine._drop`,
or the `trace` callable a relay is handed); a refused send is a count only.

A link direction serializes one frame at a time.  Each transmission reserves
the insertion seq of its end-of-serialization event (TX_DONE), but the event
is put on the heap only while a frame waits in the port behind the one on the
wire; a link that falls idle costs no event.  A TX_DONE pushed late carries
its reserved seq, so it pops exactly where an eagerly pushed one would have.

The engine's own parameters (per-hop processing time, view propagation delay,
event budget, raw-pipe header size) are the module constants below; the
relays' protocol parameters live in `spon.overlay`.  A node resets its own
hop state when a link goes down (`NodeState.recompute_routes`); the engine
only hands it the new view.
"""

import csv
import hashlib
import heapq
import math
import random
import weakref
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from .overlay import (
    DEFAULT_CONFIG,
    DEFAULT_RTT_MS,
    CancelTimer,
    Config,
    Deliver,
    NodeState,
    ServiceClass,
    SetTimer,
    TimerRecord,
    Transmit,
)
from .topology import (
    Change,
    NoPath,
    NodeId,
    Topology,
    TopologyError,
    TopologyView,
    apply_fault,
    shortest_path,
)


# forwarding cost a relay adds to every frame it receives
HOP_PROCESSING_MS = 0.15
# a fault reaches the nodes' views this long after the ground view changes
VIEW_PROPAGATION_MS = 100.0
# a run that pops more events than this is aborted as a runaway
EVENT_CAP = 10_000_000
# per-packet header bytes of a raw client-to-client pipe (IPv4 + UDP)
RAW_OVERHEAD_BYTES = 28


class EngineOverrun(RuntimeError):
    """The run exceeded the event budget, EVENT_CAP."""


# --- client-layer envelope ------------------------------------------------------

# Overlay payloads are opaque; clients address each other by client id.  The
# envelope prefixes the body with destination and source client ids so the
# engine can hand deliveries to the right actor.

def pack_client(dst_client: str, src_client: str, body: bytes) -> bytes:
    d = dst_client.encode("utf-8")
    s = src_client.encode("utf-8")
    if len(d) > 255 or len(s) > 255:
        raise ValueError("client id too long")
    return bytes([len(d)]) + d + bytes([len(s)]) + s + body


def unpack_client(payload: bytes) -> Tuple[str, str, bytes]:
    if not payload:
        raise ValueError("empty envelope")
    dlen = payload[0]
    pos = 1 + dlen
    if len(payload) < pos + 1:
        raise ValueError("truncated envelope")
    dst = payload[1:pos].decode("utf-8")
    slen = payload[pos]
    body_at = pos + 1 + slen
    if len(payload) < body_at:
        raise ValueError("truncated envelope")
    src = payload[pos + 1:body_at].decode("utf-8")
    return dst, src, payload[body_at:]


# --- actors ---------------------------------------------------------------------

class Client:
    """Base actor.  Subclasses override the callbacks they care about."""

    def __init__(self, client_id: str):
        self.client_id = client_id

    def on_start(self, api: "EngineApi") -> None:
        pass

    def on_deliver(self, src_client: str, body: bytes, wire_bytes: int,
                   api: "EngineApi") -> None:
        pass

    def on_raw(self, src_client: str, body: bytes, api: "EngineApi") -> None:
        pass

    def on_timer(self, timer_id: tuple, data: object, api: "EngineApi") -> None:
        pass


# --- physical aids ----------------------------------------------------------------

@dataclass
class _LinkDir:
    """One direction a->b of an overlay link: at most one frame serializing at
    a time.

    `up` and `loss` mirror the engine's ground view; `Engine._refresh_links`
    sets them whenever that view changes, and bumps `epoch` when the
    direction goes from up to down.  The frame on the wire finishes at
    heap key (busy_until, done_seq); before that key the link is busy.  Its
    TX_DONE is on the heap (done_live) only if a frame was waiting when it
    started or has been queued since, so at most one is live and none pops on
    a link that went idle.
    """
    a: NodeId
    b: NodeId
    latency_ms: float
    bits_per_ms: float
    rng: random.Random
    up: bool = True
    loss: float = 0.0
    epoch: int = 0
    busy_until: float = 0.0
    done_seq: int = 0
    done_live: bool = False


@dataclass
class RawLink:
    """A direct client-to-client pipe following a fixed underlay path.

    Its up state and loss follow the path's links, so faults and loss
    overrides on the path apply to raw traffic exactly as they do to overlay
    traffic crossing the same links; an unreachable `as_pair` also cuts it.
    """
    a_client: str
    b_client: str
    path: Tuple[NodeId, ...]
    as_pair: Optional[Tuple[int, int]] = None


@dataclass
class _RawDir:
    """One direction a->b of a raw pipe, cached like a `_LinkDir`: latency and
    bottleneck rate are fixed; `Engine._refresh_links` derives `up`, `loss`
    and `epoch` from `hops` (the path's links) and the AS pair's reachability."""
    a: str
    b: str
    latency_ms: float
    bits_per_ms: float
    hops: Tuple[_LinkDir, ...]
    as_pair: Optional[Tuple[int, int]]
    rng: random.Random
    up: bool = True
    loss: float = 0.0
    epoch: int = 0
    busy_until: float = 0.0


@dataclass(frozen=True)
class AsUnderlay:
    """Inter-domain reachability: AS adjacency plus hijack pair bans.

    An overlay link is usable while at least one (home AS, home AS) pair of
    its endpoints is mutually reachable and not banned.
    """
    as_edges: Tuple[Tuple[int, int], ...]
    _adj: Dict[int, List[int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        adj: Dict[int, List[int]] = {}
        for a, b in self.as_edges:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        object.__setattr__(self, "_adj", adj)

    def reachable(self, x: int, y: int, bans: frozenset) -> bool:
        if (x, y) in bans or (y, x) in bans:
            return False
        if x == y:
            return True
        adj = self._adj
        seen = {x}
        queue = [x]
        while queue:
            cur = queue.pop()
            for nxt in adj.get(cur, ()):
                if nxt == y:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return False

    def link_usable(self, homing_a: Tuple[int, ...], homing_b: Tuple[int, ...],
                    bans: frozenset) -> bool:
        if not homing_a or not homing_b:
            return True          # unhomed nodes are not subject to the underlay
        for x in homing_a:
            for y in homing_b:
                if self.reachable(x, y, bans):
                    return True
        return False


# --- faults -------------------------------------------------------------------------

@dataclass(frozen=True)
class FaultEvent:
    time_ms: float
    change: Optional[Change] = None
    hijack: Optional[Tuple[int, int]] = None   # ban this AS pair
    restore: Optional[Tuple[int, int]] = None  # lift a prior ban


def meltdown_schedule(nodes: Iterable[NodeId], start_ms: float, down_ms: float,
                      up_ms: float, cycles: int) -> List[FaultEvent]:
    """Periodically cut and restore a fixed set of relays."""
    events: List[FaultEvent] = []
    t = start_ms
    for _ in range(cycles):
        for n in sorted(nodes):
            events.append(FaultEvent(t, change=Change.node_down(n)))
        for n in sorted(nodes):
            events.append(FaultEvent(t + down_ms, change=Change.node_up(n)))
        t += down_ms + up_ms
    return events


# --- event kinds ----------------------------------------------------------------------

_EV_CLIENT_START = 0
_EV_ARRIVAL = 1
_EV_TX_DONE = 2
_EV_TIMER = 3
_EV_FAULT = 4
_EV_VIEW = 5
_EV_RAW_ARRIVAL = 6


class EngineApi:
    """The surface clients are allowed to touch."""

    def __init__(self, engine: "Engine"):
        # a proxy, so that the engine holding its api is no reference cycle
        # and a finished run is freed as soon as the last reference goes
        self._engine = weakref.proxy(engine)

    @property
    def now(self) -> float:
        return self._engine.now

    def send(self, src_client: str, dst_client: str, body: bytes,
             service: ServiceClass, priority: int = 0,
             deadline_ms: Optional[float] = None) -> bool:
        return self._engine.client_send(src_client, dst_client, body, service,
                                        priority, deadline_ms)

    def raw_send(self, src_client: str, dst_client: str, body: bytes) -> None:
        self._engine.raw_send(src_client, dst_client, body)

    def set_timer(self, client_id: str, timer_id: tuple, delay_ms: float,
                  data: object = None) -> None:
        self._engine.set_timer(("c", client_id), timer_id, delay_ms, data)

    def cancel_timer(self, client_id: str, timer_id: tuple) -> None:
        self._engine.cancel_timer(("c", client_id), timer_id)

    def rtt_hint(self, src_client: str, dst_client: str) -> float:
        return self._engine.rtt_hint(src_client, dst_client)

    def raw_rtt_hint(self, src_client: str, dst_client: str) -> float:
        return self._engine.raw_rtt_hint(src_client, dst_client)


class Engine:
    """Builds the world and runs it to a horizon."""

    def __init__(self, topology: Topology, clients: List[Client], seed: int,
                 config: Config = DEFAULT_CONFIG,
                 faults: Iterable[FaultEvent] = (),
                 raw_links: Iterable[RawLink] = (),
                 underlay: Optional[AsUnderlay] = None,
                 behaviors: Optional[Dict[NodeId, object]] = None,
                 trace: bool = False):
        self.topology = topology
        self.config = config
        self.seed = seed
        self.underlay = underlay
        self.bans: frozenset = frozenset()
        self.trace_enabled = trace
        self.now = 0.0
        self.now_seq = 0          # insertion seq of the event being handled

        self.ground = TopologyView.all_up(topology)
        # the links that link faults cut, whatever the underlay says
        self._cut: set = set()
        if underlay is not None:
            for change in self._underlay_changes():
                self.ground = apply_fault(self.ground, change)

        self.behaviors = dict(behaviors or {})
        self.counters: Dict[str, int] = {}
        self.nodes: Dict[NodeId, NodeState] = {}
        # node -> how many times it has been spawned; the next incarnation
        self.spawns: Dict[NodeId, int] = {}
        for n in topology.nodes:
            self._spawn_node(n)

        self.clients: Dict[str, Client] = {}
        for c in clients:
            if c.client_id in self.clients:
                raise ValueError(f"duplicate client id {c.client_id}")
            if c.client_id not in topology.attachments:
                raise TopologyError(f"client {c.client_id} has no attachment")
            self.clients[c.client_id] = c
        self.api = EngineApi(self)
        # (dst client, src client) -> the envelope header of its sends
        self._envelopes: Dict[Tuple[str, str], bytes] = {}

        self.link_dirs: Dict[Tuple[NodeId, NodeId], _LinkDir] = {}
        # per node, built once: its timer owner and its outgoing directions
        self._owners = {n: ("n", n) for n in topology.nodes}
        self._out_dirs = {n: {} for n in topology.nodes}
        for spec in topology.links:
            for a, b in ((spec.a, spec.b), (spec.b, spec.a)):
                self.link_dirs[(a, b)] = self._out_dirs[a][b] = _LinkDir(
                    a, b, spec.latency_ms, spec.bw_mbps * 1000.0,
                    self._derive_rng(f"{a}>{b}"))
        self.raw_dirs: Dict[Tuple[str, str], _RawDir] = {}
        for rl in raw_links:
            pairs = list(zip(rl.path, rl.path[1:]))
            specs = [topology.link(a, b) for a, b in pairs]
            latency = 0.0
            for spec in specs:
                latency += spec.latency_ms
            rate = min(spec.bw_mbps for spec in specs) * 1000.0
            hops = tuple(self.link_dirs[pair] for pair in pairs)
            for a, b in ((rl.a_client, rl.b_client), (rl.b_client, rl.a_client)):
                self.raw_dirs[(a, b)] = _RawDir(
                    a, b, latency, rate, hops, rl.as_pair,
                    self._derive_rng(f"raw:{a}>{b}"))
        self._refresh_links()

        self._heap: List[tuple] = []
        self._seq = 0
        # the record of each armed timer, under its (owner, timer id) key or,
        # for a timer a hop holds the record of, under the record itself
        self._timer_gen: Dict[object, TimerRecord] = {}
        self._view_serial = 0
        self._node_view_serial: Dict[NodeId, int] = {n: 0 for n in topology.nodes}
        self.pops = 0
        self.trace_rows: List[Tuple[float, str, str, str]] = []

        # same-instant ties break by insertion: the world changes state before
        # actors scheduled at the same time get to act
        for fe in sorted(faults, key=lambda f: f.time_ms):
            self._push(fe.time_ms, _EV_FAULT, fe)
        for cid in sorted(self.clients):
            self._push(0.0, _EV_CLIENT_START, cid)

    # -- construction helpers --

    def _derive_rng(self, label: str) -> random.Random:
        digest = hashlib.sha256(f"{self.seed}:{label}".encode()).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))

    def _spawn_node(self, node_id: NodeId) -> None:
        incarnation = self.spawns.get(node_id, 0)
        self.spawns[node_id] = incarnation + 1
        state = NodeState(node_id, self.ground, self.config, incarnation)
        state.counters = self.counters
        state.trace = self.trace if self.trace_enabled else None
        if node_id in self.behaviors:
            state.behavior = self.behaviors[node_id]
        self.nodes[node_id] = state

    def _underlay_changes(self) -> List[Change]:
        """The link changes that leave each link up exactly when no link
        fault cut it and the underlay finds it usable."""
        out: List[Change] = []
        homing = self.topology.as_homing
        link_up = self.ground.link_up
        for spec in self.topology.links:
            usable = spec.key not in self._cut and self.underlay.link_usable(
                homing.get(spec.a, ()), homing.get(spec.b, ()), self.bans)
            if usable != link_up[spec.key]:
                if usable:
                    out.append(Change.link_up(spec.a, spec.b))
                else:
                    out.append(Change.link_down(spec.a, spec.b))
        return out

    def _refresh_links(self) -> None:
        """Copy each link direction's up state and loss from the ground view,
        then derive each raw pipe's; a direction going down starts an epoch."""
        ground = self.ground
        for dirn in self.link_dirs.values():
            up = ground.link_is_up(dirn.a, dirn.b)
            if dirn.up and not up:
                dirn.epoch += 1
            dirn.up = up
            dirn.loss = ground.loss(dirn.a, dirn.b)
        for raw in self.raw_dirs.values():
            up = all(hop.up for hop in raw.hops) and (
                raw.as_pair is None or self.underlay is None
                or self.underlay.reachable(*raw.as_pair, self.bans))
            if raw.up and not up:
                raw.epoch += 1
            raw.up = up
            raw.loss = 1.0 - math.prod(1.0 - hop.loss for hop in raw.hops)

    # -- bookkeeping --

    def _push(self, time_ms: float, kind: int, data: object) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (time_ms, self._seq, kind, data))

    def _count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def trace(self, event: str, node: str, detail: str) -> None:
        if self.trace_enabled:
            self.trace_rows.append((self.now, event, node, detail))

    def _drop(self, reason: str, where: str, to: Optional[str] = None) -> None:
        """Count and trace a frame, packet or delivery the engine discards at
        node `where`, or on the link direction `where`>`to`; the trace row's
        name is built only when the engine traces."""
        self._count(reason)
        if self.trace_enabled:
            self.trace("drop", where if to is None else f"{where}>{to}", reason)

    def set_timer(self, owner: tuple, timer_id: tuple, delay_ms: float,
                  data: object = None,
                  timer: Optional[TimerRecord] = None) -> None:
        # each arming pushes its own entry and leaves the earlier ones dead.
        # A timer given without its record is found by its key, or given one
        self._seq = seq = self._seq + 1
        if timer is None:
            key = (owner, timer_id)
            timer = self._timer_gen.get(key) or TimerRecord(timer_id, key)
        if not timer.seq:
            self._timer_gen[timer.key or timer] = timer
            timer.owner = owner
        timer.seq = seq
        timer.data = data
        heapq.heappush(self._heap, (self.now + delay_ms, seq, _EV_TIMER, timer))

    def cancel_timer(self, owner: tuple, timer_id: tuple,
                     timer: Optional[TimerRecord] = None) -> None:
        # its heap entries pop dead
        if timer is None:
            timer = self._timer_gen.get((owner, timer_id))
        if timer is not None and timer.seq:
            timer.seq = 0
            del self._timer_gen[timer.key or timer]

    def _retire_node(self, node_id: NodeId) -> None:
        self.nodes.pop(node_id, None)
        # disarm every timer the dead process owned, its hops' included
        owner = ("n", node_id)
        for timer in [t for t in self._timer_gen.values() if t.owner == owner]:
            self.cancel_timer(owner, timer.timer_id, timer)

    # -- client operations --

    def client_send(self, src_client: str, dst_client: str, body: bytes,
                    service: ServiceClass, priority: int = 0,
                    deadline_ms: Optional[float] = None) -> bool:
        src_node = self.topology.attachments[src_client]
        dst_node = self.topology.attachments[dst_client]
        state = self.nodes.get(src_node)
        if state is None:
            self._count("send_node_down")
            return False
        key = (dst_client, src_client)
        header = self._envelopes.get(key)
        if header is None:
            header = self._envelopes[key] = pack_client(dst_client,
                                                        src_client, b"")
        payload = header + body
        try:
            fx = state.client_send(dst_node, payload, service, self.now,
                                   deadline_ms=deadline_ms, priority=priority)
        except NoPath:
            self._count("send_no_path")
            return False
        self._process_effects(src_node, fx)
        return True

    def raw_send(self, src_client: str, dst_client: str, body: bytes) -> None:
        dirn = self.raw_dirs.get((src_client, dst_client))
        if dirn is None:
            raise TopologyError(f"no raw link between {src_client} and {dst_client}")
        ser = (len(body) + RAW_OVERHEAD_BYTES) * 8.0 / dirn.bits_per_ms
        depart = max(self.now, dirn.busy_until)
        dirn.busy_until = depart + ser
        self._count("raw_tx")
        if not dirn.up:
            self._drop("raw_down_drop", src_client, dst_client)
            return
        if dirn.rng.random() < dirn.loss:
            self._drop("raw_lost", src_client, dst_client)
            return
        self._push(depart + ser + dirn.latency_ms, _EV_RAW_ARRIVAL,
                   (dirn, body, dirn.epoch))

    def rtt_hint(self, src_client: str, dst_client: str) -> float:
        a = self.topology.attachments[src_client]
        b = self.topology.attachments[dst_client]
        try:
            return 2.0 * shortest_path(self.ground, a, b).total_latency_ms
        except (NoPath, TopologyError):
            return DEFAULT_RTT_MS

    def raw_rtt_hint(self, src_client: str, dst_client: str) -> float:
        dirn = self.raw_dirs.get((src_client, dst_client))
        if dirn is None:
            return DEFAULT_RTT_MS
        return 2.0 * dirn.latency_ms

    # -- effect processing --

    def _process_effects(self, node_id: NodeId, effects: List[object]) -> None:
        # by exact type, the most frequent first
        owner = self._owners[node_id]
        for eff in effects:
            kind = type(eff)
            if kind is Transmit:
                # serve an idle link now, and a busy one when its wire frees
                dirn = self._out_dirs[node_id][eff.neighbor]
                busy_until = dirn.busy_until
                now = self.now
                if now > busy_until or (now == busy_until
                                        and self.now_seq >= dirn.done_seq):
                    self._send_next(dirn)
                elif not dirn.done_live:
                    dirn.done_live = True
                    heapq.heappush(self._heap, (busy_until, dirn.done_seq,
                                                _EV_TX_DONE, (dirn.a, dirn.b, dirn)))
            elif kind is SetTimer:
                self.set_timer(owner, eff.timer_id, eff.delay_ms, eff.data,
                               eff.timer)
            elif kind is Deliver:
                self._deliver(node_id, eff)
            elif kind is CancelTimer:
                self.cancel_timer(owner, eff.timer_id, eff.timer)

    def _deliver(self, node_id: NodeId, eff: Deliver) -> None:
        try:
            dst_client, src_client, body = unpack_client(eff.payload)
        except ValueError:
            self._drop("deliver_malformed", node_id)
            return
        if self.topology.attachments.get(dst_client) != node_id:
            self._drop("deliver_misrouted", node_id)
            return
        client = self.clients.get(dst_client)
        if client is None:
            self._drop("deliver_no_client", node_id)
            return
        self._count("delivered")
        if self.trace_enabled:
            self.trace("deliver", node_id, f"{src_client}->{dst_client}")
        client.on_deliver(src_client, body, eff.wire_bytes, self.api)

    # -- overlay link service --

    def _send_next(self, dirn: _LinkDir) -> None:
        """Serialize the next frame queued at a for b; the wire is free."""
        a = dirn.a
        state = self.nodes.get(a)
        if state is None or not dirn.up:
            return   # a down link's queue is purged once its view propagates
        b = dirn.b
        now = self.now
        frame, fx = state.scheduler_dequeue(b, now)
        wire = None if frame is None else state.wrap_for_link(frame, b, now, fx)
        # the two return only hop timers, each with its record: the tail
        # probe's arming, and the ack timer's cancel when a wrapper carries
        # the confirm owed
        if fx:
            owner = self._owners[a]
            for eff in fx:
                if eff.__class__ is SetTimer:
                    self.set_timer(owner, eff.timer_id, eff.delay_ms,
                                   eff.data, eff.timer)
                else:
                    self.cancel_timer(owner, eff.timer_id, eff.timer)
        if wire is None:
            return
        # every frame a port holds was sized when it was built
        ser = wire._size * 8.0 / dirn.bits_per_ms
        self.counters["wire_tx"] = self.counters.get("wire_tx", 0) + 1
        # the TX_DONE's seq is taken now even if the event is pushed later
        dirn.busy_until = done = now + ser
        self._seq = seq = self._seq + 1
        dirn.done_seq = seq
        if state.hops[b].port.queued:
            dirn.done_live = True
            heapq.heappush(self._heap, (done, seq, _EV_TX_DONE, (a, b, dirn)))
        loss = dirn.loss
        if loss > 0.0 and dirn.rng.random() < loss:
            self._drop("wire_lost", a, b)
            return
        self._seq = seq = seq + 1
        heapq.heappush(self._heap, (done + dirn.latency_ms + HOP_PROCESSING_MS,
                                    seq, _EV_ARRIVAL, (dirn, wire, dirn.epoch)))

    # -- faults --

    def _apply_fault(self, fe: FaultEvent) -> None:
        change = fe.change
        if change is not None:
            if change.kind == "link_down":
                self._cut.add(change.link)
            elif change.kind == "link_up":
                self._cut.discard(change.link)
            self._apply_change(change)
        if fe.hijack is not None or fe.restore is not None:
            bans = set(self.bans)
            if fe.hijack is not None:
                bans.add(tuple(fe.hijack))
                self.trace("hijack", "-", f"{fe.hijack[0]}>{fe.hijack[1]}")
            if fe.restore is not None:
                bans.discard(tuple(fe.restore))
                self.trace("hijack_lifted", "-", f"{fe.restore[0]}>{fe.restore[1]}")
            self.bans = frozenset(bans)
        if self.underlay is not None:
            for change in self._underlay_changes():
                self._apply_change(change)
        self._refresh_links()
        self._view_serial += 1
        self._push(self.now + VIEW_PROPAGATION_MS, _EV_VIEW,
                   (self._view_serial, self.ground))

    def _apply_change(self, change: Change) -> None:
        label = change.node if change.node is not None else "-".join(change.link)
        self.trace("fault", label, change.kind)
        self.ground = apply_fault(self.ground, change)
        if change.kind == "node_down":
            self._retire_node(change.node)
        elif change.kind == "node_up":
            # a restarted daemon comes back empty, with the current ground view
            if change.node not in self.nodes:
                self._spawn_node(change.node)
            self._node_view_serial[change.node] = self._view_serial + 1

    def _adopt_view(self, serial: int, view: TopologyView) -> None:
        for node_id in sorted(self.nodes):
            if self._node_view_serial.get(node_id, 0) >= serial:
                continue
            self._node_view_serial[node_id] = serial
            fx = self.nodes[node_id].recompute_routes(view, self.now)
            if fx:
                self._process_effects(node_id, fx)

    # -- main loop --

    def run(self, horizon_ms: float) -> None:
        cap = EVENT_CAP
        timers = self._timer_gen
        heap = self._heap
        heappop = heapq.heappop
        nodes = self.nodes
        pops = self.pops
        try:
            while heap:
                if heap[0][0] > horizon_ms:
                    break
                time_ms, seq, kind, data = heappop(heap)
                pops += 1
                if pops > cap:
                    raise EngineOverrun(f"exceeded {cap} events")
                if kind == _EV_TIMER:
                    # an entry its record no longer names is dead, and does
                    # not set the clock
                    if data.seq != seq:
                        continue
                    self.now = time_ms
                    self.now_seq = seq
                    data.seq = 0
                    del timers[data.key or data]
                    scope, name = data.owner
                    if scope == "n":
                        state = nodes.get(name)
                        if state is not None:
                            self._process_effects(name, state.handle_timer(
                                data.timer_id, data.data, time_ms))
                    else:
                        client = self.clients.get(name)
                        if client is not None:
                            client.on_timer(data.timer_id, data.data, self.api)
                    continue
                self.now = time_ms
                self.now_seq = seq
                if kind == _EV_ARRIVAL:
                    dirn, wire, epoch = data
                    state = nodes.get(dirn.b)
                    if epoch != dirn.epoch or state is None:
                        self._drop("inflight_lost", dirn.a, dirn.b)
                    else:
                        self._process_effects(dirn.b, state.handle_frame(
                            dirn.a, wire, time_ms))
                elif kind == _EV_TX_DONE:
                    dirn = data[2]
                    dirn.done_live = False
                    self._send_next(dirn)
                elif kind == _EV_CLIENT_START:
                    self.clients[data].on_start(self.api)
                elif kind == _EV_FAULT:
                    self._apply_fault(data)
                elif kind == _EV_VIEW:
                    self._adopt_view(*data)
                elif kind == _EV_RAW_ARRIVAL:
                    self._on_raw_arrival(*data)
        finally:
            self.pops = pops

    def _on_raw_arrival(self, dirn: _RawDir, body: bytes, epoch: int) -> None:
        if epoch != dirn.epoch:
            self._drop("raw_inflight_lost", dirn.a, dirn.b)
            return
        client = self.clients.get(dirn.b)
        if client is None:
            self._drop("raw_no_client", dirn.a, dirn.b)
            return
        self._count("raw_delivered")
        client.on_raw(dirn.a, body, self.api)

    # -- reporting --

    def export_trace(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["time_ms", "event", "node", "detail"])
            for row in self.trace_rows:
                writer.writerow([f"{row[0]:.6f}", row[1], row[2], row[3]])
