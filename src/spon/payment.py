"""Two-phase hashlocked payments across ledgers, carried by the overlay.

Value moves in two phases.  The payer of each ledger edge places a hold that
escrows funds against a hash condition; whoever presents the matching
preimage before expiry claims it.  Connectors bridge two ledgers, quoting an
outgoing amount reduced by their rate and fee, and claim their incoming hold
with the preimage learned from the outgoing one.  Every operation is
idempotent per (payment, packet seq, edge, attempt), so duplicate packets
caused by retransmission can never move value twice.

The module also carries the plumbing the experiments need: a streaming sender
that keeps one packet in flight, an RTT probe that skips the ledger entirely,
and a settlement audit that recomputes conservation and fees from the books.
A node finds the stream session or probe that a FULFILL or REJECT answers by
its payment id, in one table.  Expiries, timeouts, priorities and retry caps
are the module constants below; no caller varies them.  A stream retries at
once only after an expired reject; after any other transient reject it waits
for its session timer.

The ledger is the one record of a payment.  A packet's executed hold says it
was paid and carries the preimage that claimed it, so a receiver answers a
repeated prepare from the book with the preimage it derives again, and a
connector answers one with the preimage its outgoing hold revealed.  A
connector keeps a record of a forwarded packet only while the packet is in
flight, and drops it once the packet is claimed or rejected; an executed
incoming hold tells it the packet is claimed, so a retry's hold is never
claimed as well.
"""

import hashlib
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, Union

from .netsim import Client, EngineApi
from .overlay import ServiceClass

# prepare expiry granted by a sender, and what each connector keeps back
INITIAL_EXPIRY_MS = 30_000.0
EXPIRY_MARGIN_MS = 1000.0
# a stream packet is retried after TIMEOUT_FACTOR x its RTT estimate, an EWMA
# with gain RTT_ALPHA
TIMEOUT_FACTOR = 4.0
RTT_ALPHA = 0.125
# a stream packet is given up after this many retries
STREAM_MAX_RETRIES = 30
PING_TIMEOUT_MS = 1000.0
# overlay priority levels: fulfils and rejects beat prepares
PREPARE_PRIORITY = 1
FULFILL_PRIORITY = 2
# DirectTransport gives up after ARQ_MAX_TRIES sends, counting `arq_failed`;
# its RTO doubles up to ARQ_RTO_CAP_MS
ARQ_MAX_TRIES = 200
ARQ_RTO_CAP_MS = 1000.0

# --- wire encoding -----------------------------------------------------------------

PREPARE = 1
FULFILL = 2
REJECT = 3

R_NO_ROUTE = 1
R_WRONG_CONDITION = 2
R_EXPIRED = 3
R_NO_HOLD = 4
R_INSUFFICIENT_TIME = 5
R_INSUFFICIENT_FUNDS = 6
R_TRANSPORT = 7

REJECT_NAMES = {
    R_NO_ROUTE: "no_route",
    R_WRONG_CONDITION: "wrong_condition",
    R_EXPIRED: "expired",
    R_NO_HOLD: "no_hold",
    R_INSUFFICIENT_TIME: "insufficient_time",
    R_INSUFFICIENT_FUNDS: "insufficient_funds",
    R_TRANSPORT: "transport",
}


class PacketError(ValueError):
    pass


@dataclass
class IlpPacket:
    kind: int
    payment_id: bytes           # 16 bytes
    seq: int
    amount: int = 0
    expiry_us: int = 0
    condition: bytes = b""      # PREPARE: sha256 of the preimage
    fulfillment: bytes = b""    # FULFILL: the preimage
    address: str = ""           # PREPARE: destination address
    code: int = 0               # REJECT
    data: bytes = b""

    def encode(self) -> bytes:
        if self.kind not in (PREPARE, FULFILL, REJECT):
            raise PacketError(f"unknown kind {self.kind}")
        if len(self.payment_id) != 16:
            raise PacketError("payment id must be 16 bytes")
        out = bytearray()
        out += struct.pack(">B16sIQQ", self.kind, self.payment_id, self.seq,
                           self.amount, self.expiry_us)
        if self.kind == PREPARE:
            if len(self.condition) != 32:
                raise PacketError("condition must be 32 bytes")
            addr = self.address.encode("utf-8")
            if len(addr) > 255:
                raise PacketError("address too long")
            out += self.condition
            out += struct.pack(">B", len(addr)) + addr
        elif self.kind == FULFILL:
            if len(self.fulfillment) != 32:
                raise PacketError("fulfillment must be 32 bytes")
            out += self.fulfillment
        else:
            out += struct.pack(">B", self.code)
        out += struct.pack(">H", len(self.data)) + self.data
        return bytes(out)


def decode_packet(raw: bytes) -> IlpPacket:
    try:
        kind, pid, seq, amount, expiry = struct.unpack(">B16sIQQ", raw[:37])
        pos = 37
        pkt = IlpPacket(kind, pid, seq, amount, expiry)
        if kind == PREPARE:
            pkt.condition = raw[pos:pos + 32]
            if len(pkt.condition) != 32:
                raise PacketError("short condition")
            pos += 32
            alen = raw[pos]
            pos += 1
            pkt.address = raw[pos:pos + alen].decode("utf-8")
            if len(pkt.address.encode()) != alen:
                raise PacketError("short address")
            pos += alen
        elif kind == FULFILL:
            pkt.fulfillment = raw[pos:pos + 32]
            if len(pkt.fulfillment) != 32:
                raise PacketError("short fulfillment")
            pos += 32
        elif kind == REJECT:
            pkt.code = raw[pos]
            pos += 1
        else:
            raise PacketError(f"unknown kind {kind}")
        (dlen,) = struct.unpack(">H", raw[pos:pos + 2])
        pos += 2
        pkt.data = raw[pos:pos + dlen]
        if len(pkt.data) != dlen or pos + dlen != len(raw):
            raise PacketError("length mismatch")
        return pkt
    except (struct.error, IndexError, UnicodeDecodeError) as exc:
        raise PacketError(f"malformed packet: {exc}") from None


def derive_preimage(secret: bytes, payment_id: bytes, seq: int) -> bytes:
    return hashlib.sha256(secret + payment_id + struct.pack(">I", seq)).digest()


def condition_of(preimage: bytes) -> bytes:
    return hashlib.sha256(preimage).digest()


# --- ledger ----------------------------------------------------------------------------

HOLD_ACTIVE = "active"
HOLD_EXECUTED = "executed"
HOLD_VOID = "void"


# a hold group: (payment_id, seq, payer, payee); a hold id: (group, index)
Group = Tuple[bytes, int, str, str]
HoldId = Tuple[Group, int]


class LedgerError(Exception):
    pass


@dataclass(slots=True)
class Hold:
    payer: str
    payee: str
    amount: int
    condition: bytes
    expiry_ms: float
    state: str = HOLD_ACTIVE
    preimage: bytes = b""


class Ledger:
    """Shared book for one bilateral (or multilateral) settlement domain.

    Placing a hold debits the payer immediately; the amount lives in the hold
    until it is executed (credited to the payee) or voided (returned).  The
    hashlock is enforced here, not by the parties.  A hold group is one ledger
    edge of one packet, `(payment_id, seq, payer, payee)`; each hold is kept
    once, in its group's list, and its id is `(group, index)`.
    """

    def __init__(self, name: str, accounts: Dict[str, int]):
        self.name = name
        self.accounts = dict(accounts)
        self.initial_total = sum(accounts.values())
        self.groups: Dict[Group, List[Hold]] = {}

    def balance(self, account: str) -> int:
        return self.accounts[account]

    def place_hold(self, group: Group, payer: str, payee: str, amount: int,
                   condition: bytes, expiry_ms: float) -> HoldId:
        if amount <= 0:
            raise LedgerError("hold amount must be positive")
        if payer not in self.accounts or payee not in self.accounts:
            raise LedgerError("unknown account")
        if self.accounts[payer] < amount:
            raise LedgerError(f"insufficient funds in {payer}")
        self.accounts[payer] -= amount
        holds = self.groups.setdefault(group, [])
        holds.append(Hold(payer, payee, amount, condition, expiry_ms))
        return group, len(holds) - 1

    def hold(self, hold_id: HoldId) -> Hold:
        group, index = hold_id
        try:
            return self.groups[group][index]
        except (KeyError, IndexError):
            raise LedgerError(f"no hold {hold_id}") from None

    def execute_hold(self, hold_id: HoldId, preimage: bytes, now: float) -> bool:
        hold = self.hold(hold_id)
        if hold.state == HOLD_EXECUTED:
            return hold.preimage == preimage   # idempotent, nothing moves
        if hold.state == HOLD_VOID:
            return False
        if now > hold.expiry_ms:
            self._void(hold)
            return False
        if condition_of(preimage) != hold.condition:
            return False
        hold.state = HOLD_EXECUTED
        hold.preimage = preimage
        self.accounts[hold.payee] += hold.amount
        return True

    def void_hold(self, hold_id: HoldId) -> None:
        hold = self.hold(hold_id)
        if hold.state == HOLD_ACTIVE:
            self._void(hold)

    def void_group(self, group: Group) -> int:
        """Refund every active hold in the group.  Returns the count voided."""
        voided = 0
        for hold in self.groups.get(group, ()):
            if hold.state == HOLD_ACTIVE:
                self._void(hold)
                voided += 1
        return voided

    def _void(self, hold: Hold) -> None:
        hold.state = HOLD_VOID
        self.accounts[hold.payer] += hold.amount

    def sweep(self, now: float) -> int:
        expired = [h for holds in self.groups.values() for h in holds
                   if h.state == HOLD_ACTIVE and now > h.expiry_ms]
        for hold in expired:
            self._void(hold)
        return len(expired)

    def find_active(self, group: Group, condition: bytes, min_amount: int,
                    now: float) -> Optional[HoldId]:
        for index, hold in enumerate(self.groups.get(group, ())):
            if (hold.state == HOLD_ACTIVE and now <= hold.expiry_ms
                    and hold.condition == condition
                    and hold.amount >= min_amount):
                return group, index
        return None

    def executed(self, group: Group) -> Optional[Hold]:
        """The group's executed hold, if any: the packet is paid, and the
        hold carries the preimage that claimed it."""
        for hold in self.groups.get(group, ()):
            if hold.state == HOLD_EXECUTED:
                return hold
        return None

    def escrow_total(self) -> int:
        return sum(h.amount for holds in self.groups.values() for h in holds
                   if h.state == HOLD_ACTIVE)

    def conserved(self) -> bool:
        return sum(self.accounts.values()) + self.escrow_total() == self.initial_total


# --- transaction log ----------------------------------------------------------------------

class TxLog:
    """Append-only record of the packet outcomes that `settle_check` audits
    against connector margins: each relayed prepare and each upstream claim
    of a relaying party.  Shared by all parties."""

    def __init__(self):
        self.rows: List[Tuple[float, str, str, bytes, int, int]] = []

    def add(self, time_ms: float, actor: str, kind: str, payment_id: bytes,
            seq: int, amount: int) -> None:
        self.rows.append((time_ms, actor, kind, payment_id, seq, amount))


# --- transports -----------------------------------------------------------------------------

class OverlayTransport:
    """Sends packets as overlay messages.  Fulfill responses ride at a higher
    priority level than prepares so they beat hold expiries under load."""

    def __init__(self, service: ServiceClass):
        self.service = service

    def send_packet(self, node: "IlpNode", api: EngineApi, peer_client: str,
                    raw: bytes, kind: int) -> bool:
        prio = FULFILL_PRIORITY if kind != PREPARE else PREPARE_PRIORITY
        return api.send(node.client_id, peer_client, raw, self.service,
                        priority=prio)

    def rtt_hint(self, node: "IlpNode", api: EngineApi, peer_client: str) -> float:
        return api.rtt_hint(node.client_id, peer_client)

    def on_deliver(self, node: "IlpNode", src_client: str, body: bytes,
                   api: EngineApi) -> Optional[bytes]:
        return body

    def on_raw(self, node: "IlpNode", src_client: str, body: bytes,
               api: EngineApi) -> Optional[bytes]:
        return None

    def on_timer(self, node: "IlpNode", timer_id: tuple, data: object,
                 api: EngineApi) -> bool:
        return False


_ARQ_DATA = 1
_ARQ_ACK = 2


@dataclass
class _ArqPending:
    raw: bytes
    peer: str
    attempts: int = 0
    rto_ms: float = 0.0


class DirectTransport:
    """Stop-and-repeat delivery over a raw point-to-point pipe.

    Mimics a plain transport connection: every message is retransmitted on a
    doubling timeout (capped) until acked, so effective latency inflates as
    path loss grows, and sends simply stall while the path is down.
    """

    def __init__(self):
        self.next_seq = 0
        self.pending: Dict[int, _ArqPending] = {}
        # per source: every seq below its floor was seen, and so was each
        # seq in its set above the floor
        self.floor: Dict[str, int] = {}
        self.above: Dict[str, Set[int]] = {}

    def send_packet(self, node: "IlpNode", api: EngineApi, peer_client: str,
                    raw: bytes, kind: int) -> bool:
        seq = self.next_seq
        self.next_seq += 1
        base = api.raw_rtt_hint(node.client_id, peer_client)
        entry = _ArqPending(raw=raw, peer=peer_client, rto_ms=2.0 * base)
        self.pending[seq] = entry
        self._transmit(node, api, seq, entry)
        return True

    def _transmit(self, node: "IlpNode", api: EngineApi, seq: int,
                  entry: _ArqPending) -> None:
        entry.attempts += 1
        frame = struct.pack(">BQ", _ARQ_DATA, seq) + entry.raw
        api.raw_send(node.client_id, entry.peer, frame)
        api.set_timer(node.client_id, ("arq", seq), entry.rto_ms)
        entry.rto_ms = min(entry.rto_ms * 2.0, ARQ_RTO_CAP_MS)

    def rtt_hint(self, node: "IlpNode", api: EngineApi, peer_client: str) -> float:
        return api.raw_rtt_hint(node.client_id, peer_client)

    def on_deliver(self, node: "IlpNode", src_client: str, body: bytes,
                   api: EngineApi) -> Optional[bytes]:
        return None

    def on_raw(self, node: "IlpNode", src_client: str, body: bytes,
               api: EngineApi) -> Optional[bytes]:
        if len(body) < 9:
            return None
        kind, seq = struct.unpack(">BQ", body[:9])
        if kind == _ARQ_ACK:
            if seq in self.pending:
                del self.pending[seq]
                api.cancel_timer(node.client_id, ("arq", seq))
            return None
        api.raw_send(node.client_id, src_client,
                     struct.pack(">BQ", _ARQ_ACK, seq))
        floor = self.floor.get(src_client, 0)
        above = self.above.setdefault(src_client, set())
        if seq < floor or seq in above:
            return None
        above.add(seq)
        while floor in above:
            above.remove(floor)
            floor += 1
        self.floor[src_client] = floor
        return body[9:]

    def on_timer(self, node: "IlpNode", timer_id: tuple, data: object,
                 api: EngineApi) -> bool:
        if timer_id[0] != "arq":
            return False
        seq = timer_id[1]
        entry = self.pending.get(seq)
        if entry is None:
            return True
        if entry.attempts >= ARQ_MAX_TRIES:
            del self.pending[seq]
            node._count("arq_failed")
            return True
        self._transmit(node, api, seq, entry)
        return True


# --- parties ------------------------------------------------------------------------------

@dataclass(frozen=True)
class PeerLink:
    """One adjacency: the ledger shared with the peer and my pricing toward it."""
    peer_client: str
    ledger: Ledger
    my_account: str
    peer_account: str
    rate_num: int = 1           # amount' = floor(amount * num / den) less fee
    rate_den: int = 1
    fee_ppm: int = 0

    def quote(self, amount: int) -> int:
        converted = amount * self.rate_num // self.rate_den
        return converted - (converted * self.fee_ppm // 1_000_000)


STREAM_RUNNING = "running"
STREAM_COMPLETE = "complete"
STREAM_FAILED = "failed"


@dataclass
class StreamSession:
    session_id: int
    dst_addr: str
    secret: bytes
    total: int
    packet_amount: int
    payment_id: bytes
    state: str = STREAM_RUNNING
    next_seq: int = 0           # also the count of packets fulfilled
    retries: int = 0
    attempts_current: int = 0
    rtt_ewma_ms: float = 0.0
    sent_at_ms: float = 0.0
    preimage: bytes = b""       # of the packet in flight, next_seq
    started_ms: float = 0.0
    finished_ms: float = 0.0
    # (seq, completed_at_ms, rtt_ms) per fulfilled packet
    packet_rtts: List[Tuple[int, float, float]] = field(default_factory=list)

    def current_amount(self) -> int:
        return min(self.packet_amount,
                   self.total - self.next_seq * self.packet_amount)


@dataclass
class PingProbe:
    probe_id: int
    payment_id: bytes
    dst_addr: str
    secret: bytes
    count: int
    interval_ms: float
    timeout_ms: float
    sent: int = 0
    # seq -> (sent_ms, preimage) of each packet still in flight
    outstanding: Dict[int, Tuple[float, bytes]] = field(default_factory=dict)
    # (seq, sent_ms, rtt_ms or -1, "ok" | "timeout") in completion order
    outcomes: List[Tuple[int, float, float, str]] = field(default_factory=list)


@dataclass
class _RelayState:
    """A connector's record of a packet it forwarded, kept only while the
    packet is in flight; the ledgers hold everything else about it."""
    upstream_peer: str
    downstream_peer: str
    probe: bool = False         # amount 0: no hold on either leg


class IlpNode(Client):
    """A payment party: terminal sender/receiver and, with two peer links,
    a connector.  All packet handling is driven by transport callbacks."""

    def __init__(self, client_id: str, address: str, transport,
                 secret: bytes = b"", txlog: Optional[TxLog] = None):
        super().__init__(client_id)
        self.address = address
        self.transport = transport
        self.secret = secret
        self.txlog = txlog or TxLog()

        self.links: Dict[str, PeerLink] = {}
        self.routes: List[Tuple[str, str]] = []   # (prefix, peer_client)
        self.sessions: Dict[int, StreamSession] = {}
        self.pings: Dict[int, PingProbe] = {}
        # payment id -> the session or probe whose packets carry it
        self.owners: Dict[bytes, Union[StreamSession, PingProbe]] = {}
        self.relays: Dict[Tuple[bytes, int], _RelayState] = {}
        self.counters: Dict[str, int] = {}
        self._next_session = 0
        self._next_probe = 0

    # -- wiring --

    def add_link(self, link: PeerLink) -> None:
        self.links[link.peer_client] = link

    def add_route(self, prefix: str, peer_client: str) -> None:
        self.routes.append((prefix, peer_client))
        self.routes.sort(key=lambda r: (-len(r[0]), r[0]))

    def _route(self, address: str) -> Optional[str]:
        for prefix, peer in self.routes:
            if address.startswith(prefix):
                return peer
        return None

    def _count(self, key: str) -> None:
        self.counters[key] = self.counters.get(key, 0) + 1

    # -- sending --

    def _send(self, api: EngineApi, peer_client: str, pkt: IlpPacket) -> bool:
        ok = self.transport.send_packet(self, api, peer_client, pkt.encode(),
                                        pkt.kind)
        if not ok:
            self._count("transport_refused")
        return ok

    def start_stream(self, api: EngineApi, dst_addr: str, secret: bytes,
                     total: int, packet_amount: int) -> int:
        sid = self._next_session
        self._next_session += 1
        pid = hashlib.sha256(
            f"{self.address}:{dst_addr}:{sid}".encode()).digest()[:16]
        peer = self._route(dst_addr)
        sess = StreamSession(sid, dst_addr, secret, total, packet_amount, pid,
                             started_ms=api.now)
        self.sessions[sid] = sess
        self.owners[pid] = sess
        if peer is None or total <= 0 or packet_amount <= 0:
            sess.state = STREAM_FAILED
            sess.finished_ms = api.now
            return sid
        sess.rtt_ewma_ms = self.transport.rtt_hint(self, api, peer)
        self._stream_send_current(api, sess)
        return sid

    def _stream_send_current(self, api: EngineApi, sess: StreamSession) -> None:
        peer = self._route(sess.dst_addr)
        amount = sess.current_amount()
        sess.preimage = preimage = derive_preimage(sess.secret, sess.payment_id,
                                                   sess.next_seq)
        pkt = IlpPacket(PREPARE, sess.payment_id, sess.next_seq, amount,
                        int((api.now + INITIAL_EXPIRY_MS) * 1000),
                        condition=condition_of(preimage),
                        address=sess.dst_addr)
        link = self.links.get(peer)
        if link is not None and amount > 0:
            group = (sess.payment_id, sess.next_seq, self.client_id, peer)
            existing = link.ledger.find_active(group, pkt.condition, amount,
                                               api.now)
            if existing is None:
                try:
                    link.ledger.place_hold(group, link.my_account,
                                           link.peer_account, amount,
                                           pkt.condition,
                                           api.now + INITIAL_EXPIRY_MS)
                except LedgerError:
                    self._count("out_of_funds")
                    self._stream_finish(api, sess, STREAM_FAILED)
                    return
            else:
                # a retry rides on the hold that still backs it, so the
                # packet must carry that hold's (earlier) expiry
                pkt.expiry_us = int(link.ledger.hold(existing).expiry_ms * 1000)
        if link is None and amount > 0:
            self._stream_finish(api, sess, STREAM_FAILED)
            return
        sess.sent_at_ms = api.now
        self._send(api, peer, pkt)
        # doubling per retry so a long path outage does not burn the whole
        # retry budget in the first second
        timeout = TIMEOUT_FACTOR * max(sess.rtt_ewma_ms, 1.0)
        timeout = min(timeout * (2 ** sess.attempts_current), 30_000.0)
        api.set_timer(self.client_id, ("sess", sess.session_id), timeout)

    def _stream_finish(self, api: EngineApi, sess: StreamSession,
                       state: str) -> None:
        sess.state = state
        sess.finished_ms = api.now
        api.cancel_timer(self.client_id, ("sess", sess.session_id))
        if state == STREAM_FAILED:
            # take back whatever still backs the abandoned packet
            self._void_packet_holds(api, sess)

    def _void_packet_holds(self, api: EngineApi, sess: StreamSession) -> None:
        """Refund the still-active holds placed for the current packet."""
        peer = self._route(sess.dst_addr)
        link = self.links.get(peer) if peer else None
        if link is not None:
            link.ledger.void_group(
                (sess.payment_id, sess.next_seq, self.client_id, peer))

    def _stream_on_fulfill(self, api: EngineApi, sess: StreamSession,
                           pkt: IlpPacket) -> None:
        if sess.state != STREAM_RUNNING or pkt.seq != sess.next_seq:
            return
        if pkt.fulfillment != sess.preimage:
            self._count("fulfill_mismatch")
            return
        # a retry's hold, placed after the connector had claimed the first
        # one, is never claimed: give it back now instead of at its expiry
        self._void_packet_holds(api, sess)
        rtt = api.now - sess.sent_at_ms
        sess.packet_rtts.append((pkt.seq, api.now, rtt))
        a = RTT_ALPHA
        sess.rtt_ewma_ms = (1 - a) * sess.rtt_ewma_ms + a * rtt
        sess.next_seq += 1
        sess.attempts_current = 0
        if sess.next_seq * sess.packet_amount >= sess.total:
            self._stream_finish(api, sess, STREAM_COMPLETE)
        else:
            self._stream_send_current(api, sess)

    def _stream_on_reject(self, api: EngineApi, sess: StreamSession,
                          pkt: IlpPacket) -> None:
        if sess.state != STREAM_RUNNING or pkt.seq != sess.next_seq:
            return
        reason = REJECT_NAMES.get(pkt.code, str(pkt.code))
        self._count(f"reject_{reason}")
        if pkt.code in (R_WRONG_CONDITION, R_NO_ROUTE):
            self._stream_finish(api, sess, STREAM_FAILED)
            return
        if pkt.code == R_EXPIRED:
            # the packet ran out of time on the way: resend it at once
            self._retry_stream(api, sess)
        # any other reject is left to the session timer and its doubling
        # back-off, so one that persists (a connector out of funds) does not
        # use up the retry budget in one instant

    def _retry_stream(self, api: EngineApi, sess: StreamSession) -> None:
        sess.attempts_current += 1
        sess.retries += 1
        if sess.attempts_current > STREAM_MAX_RETRIES:
            self._stream_finish(api, sess, STREAM_FAILED)
            return
        self._stream_send_current(api, sess)

    # -- pinging --

    def start_ping(self, api: EngineApi, dst_addr: str, secret: bytes,
                   count: int, interval_ms: float,
                   timeout_ms: Optional[float] = None) -> int:
        probe_id = self._next_probe
        self._next_probe += 1
        pid = hashlib.sha256(
            f"ping:{self.address}:{probe_id}".encode()).digest()[:16]
        probe = PingProbe(probe_id, pid, dst_addr, secret, count, interval_ms,
                          timeout_ms or PING_TIMEOUT_MS)
        self.pings[probe_id] = probe
        self.owners[pid] = probe
        self._ping_fire(api, probe)
        return probe_id

    def _ping_fire(self, api: EngineApi, probe: PingProbe) -> None:
        if probe.sent >= probe.count:
            return
        seq = probe.sent
        probe.sent += 1
        preimage = derive_preimage(probe.secret, probe.payment_id, seq)
        pkt = IlpPacket(PREPARE, probe.payment_id, seq, 0,
                        int((api.now + probe.timeout_ms) * 1000),
                        condition=condition_of(preimage),
                        address=probe.dst_addr)
        peer = self._route(probe.dst_addr)
        probe.outstanding[seq] = (api.now, preimage)
        if peer is None:
            self._ping_done(api, probe, seq)
        else:
            self._send(api, peer, pkt)
            api.set_timer(self.client_id, ("ping", probe.probe_id, seq),
                          probe.timeout_ms)
        if probe.sent < probe.count:
            api.set_timer(self.client_id, ("ping_next", probe.probe_id),
                          probe.interval_ms)

    def _ping_done(self, api: EngineApi, probe: PingProbe, seq: int,
                   fulfillment: Optional[bytes] = None) -> None:
        """Record the outcome of an outstanding probe packet, once: ok if it
        came back with the right preimage, a timeout otherwise."""
        sent, preimage = probe.outstanding.pop(seq, (None, None))
        if sent is None:
            return
        if fulfillment == preimage:
            probe.outcomes.append((seq, sent, api.now - sent, "ok"))
        else:
            probe.outcomes.append((seq, sent, -1.0, "timeout"))
        api.cancel_timer(self.client_id, ("ping", probe.probe_id, seq))

    # -- packet handling --

    def handle_packet(self, src_client: str, raw: bytes, api: EngineApi) -> None:
        try:
            pkt = decode_packet(raw)
        except PacketError:
            self._count("malformed_packet")
            return
        if pkt.kind == PREPARE:
            self._on_prepare(src_client, pkt, api)
        elif pkt.kind == FULFILL:
            self._on_fulfill(src_client, pkt, api)
        else:
            self._on_reject(src_client, pkt, api)

    def _reject(self, api: EngineApi, peer: str, pkt: IlpPacket,
                code: int) -> None:
        self._send(api, peer, IlpPacket(REJECT, pkt.payment_id, pkt.seq,
                                        code=code))

    def _on_prepare(self, src_client: str, pkt: IlpPacket,
                    api: EngineApi) -> None:
        if pkt.address.startswith(self.address):
            self._terminal_prepare(src_client, pkt, api)
        else:
            self._forward_prepare(src_client, pkt, api)

    def _terminal_prepare(self, src_client: str, pkt: IlpPacket,
                          api: EngineApi) -> None:
        preimage = derive_preimage(self.secret, pkt.payment_id, pkt.seq)
        if condition_of(preimage) != pkt.condition:
            self._count("wrong_condition")
            self._reject(api, src_client, pkt, R_WRONG_CONDITION)
            return
        if api.now * 1000 > pkt.expiry_us:
            self._count("late_prepare")
            self._reject(api, src_client, pkt, R_EXPIRED)
            return
        if pkt.amount == 0:
            # probe traffic never touches the books
            self._send(api, src_client, IlpPacket(FULFILL, pkt.payment_id,
                                                  pkt.seq,
                                                  fulfillment=preimage))
            return
        link = self.links.get(src_client)
        if link is None:
            self._reject(api, src_client, pkt, R_NO_HOLD)
            return
        group = (pkt.payment_id, pkt.seq, src_client, self.client_id)
        if link.ledger.executed(group) is not None:
            # a retry of a packet already paid: its fulfill was lost
            self._count("duplicate_prepare")
        else:
            hold_id = link.ledger.find_active(group, pkt.condition,
                                              pkt.amount, api.now)
            if hold_id is None:
                self._count("no_hold")
                self._reject(api, src_client, pkt, R_NO_HOLD)
                return
            if not link.ledger.execute_hold(hold_id, preimage, api.now):
                self._count("hold_execute_failed")
                self._reject(api, src_client, pkt, R_EXPIRED)
                return
        self._send(api, src_client, IlpPacket(FULFILL, pkt.payment_id, pkt.seq,
                                              fulfillment=preimage))

    def _forward_prepare(self, src_client: str, pkt: IlpPacket,
                         api: EngineApi) -> None:
        next_peer = self._route(pkt.address)
        if next_peer is None or next_peer == src_client:
            self._count("no_route")
            self._reject(api, src_client, pkt, R_NO_ROUTE)
            return
        key = (pkt.payment_id, pkt.seq)

        if pkt.amount == 0:
            # probes carry no value, but the return path still needs a
            # breadcrumb so the fulfillment can retrace its way upstream
            if key not in self.relays:
                self.relays[key] = _RelayState(src_client, next_peer,
                                               probe=True)
            fwd = IlpPacket(PREPARE, pkt.payment_id, pkt.seq, 0, pkt.expiry_us,
                            condition=pkt.condition, address=pkt.address)
            self._send(api, next_peer, fwd)
            return

        out_link = self.links.get(next_peer)
        if out_link is None:
            self._count("no_route")
            self._reject(api, src_client, pkt, R_NO_ROUTE)
            return
        out_group = (pkt.payment_id, pkt.seq, self.client_id, next_peer)
        paid = out_link.ledger.executed(out_group)
        if paid is not None:
            # the outgoing leg already paid out; recover the preimage from
            # the shared book and claim (or re-claim) the incoming leg
            self._count("preimage_recovered")
            self.relays.pop(key, None)
            self._claim_upstream(api, src_client, pkt, paid.preimage)
            return
        if key in self.relays:
            # in flight: a connector places an outgoing hold only when the
            # group has no live one, so its forward rode on the newest
            live = out_link.ledger.groups[out_group][-1]
            if live.state == HOLD_ACTIVE:
                self._count("duplicate_prepare")
                fwd = IlpPacket(PREPARE, pkt.payment_id, pkt.seq, live.amount,
                                int(live.expiry_ms * 1000),
                                condition=pkt.condition, address=pkt.address)
                self._send(api, next_peer, fwd)
                return
            # voided: set up fresh legs

        in_link = self.links.get(src_client)
        if in_link is None:
            self._reject(api, src_client, pkt, R_NO_HOLD)
            return
        in_group = (pkt.payment_id, pkt.seq, src_client, self.client_id)
        if in_link.ledger.find_active(in_group, pkt.condition, pkt.amount,
                                      api.now) is None:
            self._count("no_hold")
            self._reject(api, src_client, pkt, R_NO_HOLD)
            return

        amount_out = out_link.quote(pkt.amount)
        if amount_out <= 0:
            self._reject(api, src_client, pkt, R_INSUFFICIENT_FUNDS)
            return
        expiry_out_us = pkt.expiry_us - int(EXPIRY_MARGIN_MS * 1000)
        if expiry_out_us <= api.now * 1000:
            self._count("insufficient_time")
            self._reject(api, src_client, pkt, R_INSUFFICIENT_TIME)
            return

        down_hold = out_link.ledger.find_active(out_group, pkt.condition,
                                                amount_out, api.now)
        if down_hold is None:
            try:
                out_link.ledger.place_hold(out_group, out_link.my_account,
                                           out_link.peer_account, amount_out,
                                           pkt.condition,
                                           expiry_out_us / 1000.0)
            except LedgerError:
                self._count("out_of_funds")
                self._reject(api, src_client, pkt, R_INSUFFICIENT_FUNDS)
                return
        else:
            expiry_out_us = int(out_link.ledger.hold(down_hold).expiry_ms
                                * 1000)
        self.relays[key] = _RelayState(src_client, next_peer)
        self.txlog.add(api.now, self.client_id, "forward", pkt.payment_id,
                       pkt.seq, amount_out)
        fwd = IlpPacket(PREPARE, pkt.payment_id, pkt.seq, amount_out,
                        expiry_out_us, condition=pkt.condition,
                        address=pkt.address)
        self._send(api, next_peer, fwd)

    def _claim_upstream(self, api: EngineApi, upstream_peer: str,
                        pkt: IlpPacket, preimage: bytes) -> None:
        """Claim the incoming hold with the preimage and pass the fulfil on.
        A packet whose incoming group already has an executed hold is claimed:
        claiming a second (a retry's hold) would charge the sender twice."""
        in_link = self.links.get(upstream_peer)
        if in_link is None:
            return
        ledger = in_link.ledger
        group = (pkt.payment_id, pkt.seq, upstream_peer, self.client_id)
        if ledger.executed(group) is None:
            hold_id = ledger.find_active(group, condition_of(preimage), 0,
                                         api.now)
            if hold_id is not None and ledger.execute_hold(hold_id, preimage,
                                                           api.now):
                self.txlog.add(api.now, self.client_id, "fulfill",
                               pkt.payment_id, pkt.seq,
                               ledger.hold(hold_id).amount)
            else:
                self._count("late_fulfill_loss")
        self._send(api, upstream_peer, IlpPacket(FULFILL, pkt.payment_id,
                                                 pkt.seq,
                                                 fulfillment=preimage))

    def _on_fulfill(self, src_client: str, pkt: IlpPacket,
                    api: EngineApi) -> None:
        key = (pkt.payment_id, pkt.seq)
        relay = self.relays.get(key)
        if relay is not None:
            if src_client != relay.downstream_peer:
                return
            del self.relays[key]
            if relay.probe:
                # no escrow on either leg, just relay the proof
                self._send(api, relay.upstream_peer, IlpPacket(
                    FULFILL, pkt.payment_id, pkt.seq,
                    fulfillment=pkt.fulfillment))
            else:
                self._claim_upstream(api, relay.upstream_peer, pkt,
                                     pkt.fulfillment)
            return
        owner = self.owners.get(pkt.payment_id)
        if owner is None:
            self._count("orphan_fulfill")
        elif isinstance(owner, StreamSession):
            self._stream_on_fulfill(api, owner, pkt)
        else:
            self._ping_done(api, owner, pkt.seq, pkt.fulfillment)

    def _on_reject(self, src_client: str, pkt: IlpPacket,
                   api: EngineApi) -> None:
        key = (pkt.payment_id, pkt.seq)
        relay = self.relays.get(key)
        if relay is not None:
            if src_client != relay.downstream_peer:
                return
            del self.relays[key]
            if not relay.probe:
                # give back the hold the rejected forward rode on: the
                # outgoing group's newest
                ledger = self.links[relay.downstream_peer].ledger
                group = (pkt.payment_id, pkt.seq, self.client_id,
                         relay.downstream_peer)
                ledger.void_hold((group, len(ledger.groups[group]) - 1))
            self._send(api, relay.upstream_peer, pkt)
            return
        owner = self.owners.get(pkt.payment_id)
        if isinstance(owner, StreamSession):
            self._stream_on_reject(api, owner, pkt)
        elif owner is not None:
            self._ping_done(api, owner, pkt.seq)

    # -- engine callbacks --

    def on_deliver(self, src_client: str, body: bytes, wire_bytes: int,
                   api: EngineApi) -> None:
        raw = self.transport.on_deliver(self, src_client, body, api)
        if raw is not None:
            self.handle_packet(src_client, raw, api)

    def on_raw(self, src_client: str, body: bytes, api: EngineApi) -> None:
        raw = self.transport.on_raw(self, src_client, body, api)
        if raw is not None:
            self.handle_packet(src_client, raw, api)

    def on_timer(self, timer_id: tuple, data: object, api: EngineApi) -> None:
        if self.transport.on_timer(self, timer_id, data, api):
            return
        kind = timer_id[0]
        if kind == "sess":
            sess = self.sessions.get(timer_id[1])
            if sess is not None and sess.state == STREAM_RUNNING:
                self._count("stream_timeout")
                self._retry_stream(api, sess)
        elif kind == "ping":
            probe = self.pings.get(timer_id[1])
            if probe is not None:
                self._ping_done(api, probe, timer_id[2])
        elif kind == "ping_next":
            probe = self.pings.get(timer_id[1])
            if probe is not None:
                self._ping_fire(api, probe)


# --- settlement audit ------------------------------------------------------------------------

@dataclass
class SettleReport:
    ok: bool
    problems: List[str]
    fees_by_connector: Dict[str, int]


def _group_label(group: Group) -> str:
    pid, seq, payer, payee = group
    return f"{pid.hex()}:{seq}:{payer}>{payee}"


def settle_check(ledgers: List[Ledger], now: float,
                 txlog: Optional[TxLog] = None) -> SettleReport:
    """Recompute conservation and value-movement invariants from the books,
    then cross-check connector margins against the packet log."""
    problems: List[str] = []
    edge_flow: Dict[Tuple[str, str], int] = {}

    for ledger in ledgers:
        ledger.sweep(now)
        if not ledger.conserved():
            problems.append(f"ledger {ledger.name}: money not conserved")
        for group, holds in ledger.groups.items():
            executed = [h for h in holds if h.state == HOLD_EXECUTED]
            if len(executed) > 1:
                problems.append(
                    f"ledger {ledger.name}: group {_group_label(group)} "
                    f"executed {len(executed)} times")
            if executed and any(h.state == HOLD_ACTIVE for h in holds):
                # the packet is paid, yet a second hold still sits in escrow
                problems.append(
                    f"ledger {ledger.name}: group {_group_label(group)} "
                    f"executed with a hold still active")
            edge = group[2:]                # (payer, payee)
            for h in executed:
                edge_flow[edge] = edge_flow.get(edge, 0) + h.amount

    inflow: Dict[str, int] = {}
    outflow: Dict[str, int] = {}
    for (payer, payee), amount in edge_flow.items():
        outflow[payer] = outflow.get(payer, 0) + amount
        inflow[payee] = inflow.get(payee, 0) + amount

    fees: Dict[str, int] = {}
    losses: Dict[str, int] = {}
    for party in sorted(set(inflow) & set(outflow)):
        margin = inflow.get(party, 0) - outflow.get(party, 0)
        if margin >= 0:
            fees[party] = margin
        else:
            losses[party] = -margin
            problems.append(f"connector {party} lost {-margin}")

    if txlog is not None:
        for party, fee in fees.items():
            if party in losses:
                continue
            claimed: Dict[Tuple[str, int], int] = {}
            relayed: Dict[Tuple[str, int], int] = {}
            for _t, actor, kind, pid, seq, amount in txlog.rows:
                if actor != party:
                    continue
                if kind == "fulfill":
                    claimed[(pid, seq)] = amount
                elif kind == "forward":
                    relayed[(pid, seq)] = amount
            expected = sum(amount - relayed[key]
                           for key, amount in claimed.items()
                           if key in relayed)
            if expected != fee:
                problems.append(
                    f"connector {party}: ledger fee {fee} != logged {expected}")
    return SettleReport(ok=not problems, problems=problems,
                        fees_by_connector=fees)
