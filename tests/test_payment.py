import hashlib
import os
import struct
import subprocess
import sys

import pytest

from helpers import data_file
from spon import payment
from spon.netsim import Client, Engine, FaultEvent, RawLink
from spon.overlay import PRI, REL, Behavior, ServiceClass
from spon.payment import (
    ARQ_MAX_TRIES,
    DirectTransport,
    FULFILL,
    HOLD_EXECUTED,
    HOLD_VOID,
    IlpNode,
    IlpPacket,
    Ledger,
    LedgerError,
    OverlayTransport,
    PREPARE,
    PacketError,
    PeerLink,
    R_EXPIRED,
    R_INSUFFICIENT_FUNDS,
    R_NO_HOLD,
    R_WRONG_CONDITION,
    REJECT,
    STREAM_COMPLETE,
    STREAM_FAILED,
    STREAM_RUNNING,
    TxLog,
    condition_of,
    decode_packet,
    derive_preimage,
    settle_check,
)
from spon.topology import Change, load_topology, parse_topology

CHAIN = data_file("chain.topo")


# --- packet encoding ---------------------------------------------------------------

PID = bytes(range(16))


def test_packet_roundtrip_all_kinds():
    prep = IlpPacket(PREPARE, PID, 7, amount=500, expiry_us=123456,
                     condition=b"\x11" * 32, address="g.dest.account",
                     data=b"pad")
    ful = IlpPacket(FULFILL, PID, 7, fulfillment=b"\x22" * 32)
    rej = IlpPacket(REJECT, PID, 7, code=R_EXPIRED)
    for pkt in (prep, ful, rej):
        back = decode_packet(pkt.encode())
        assert back == pkt


def test_packet_golden_bytes():
    pkt = IlpPacket(FULFILL, PID, 1, fulfillment=b"\xab" * 32)
    raw = pkt.encode()
    assert raw == (b"\x02" + PID + b"\x00\x00\x00\x01"
                   + b"\x00" * 8 + b"\x00" * 8 + b"\xab" * 32 + b"\x00\x00")


def test_packet_rejects_malformed():
    with pytest.raises(PacketError):
        decode_packet(b"")
    with pytest.raises(PacketError):
        decode_packet(b"\x09" + b"\x00" * 40)
    good = IlpPacket(PREPARE, PID, 1, amount=1, condition=b"\x00" * 32,
                     address="g.x").encode()
    with pytest.raises(PacketError):
        decode_packet(good[:-1])
    with pytest.raises(PacketError):
        decode_packet(good + b"\x00")
    with pytest.raises(PacketError):
        IlpPacket(PREPARE, b"short", 1, condition=b"\x00" * 32).encode()


def test_preimage_derivation_is_stable():
    pre = derive_preimage(b"secret", PID, 3)
    assert pre == hashlib.sha256(b"secret" + PID + b"\x00\x00\x00\x03").digest()
    assert condition_of(pre) == hashlib.sha256(pre).digest()


# --- ledger ------------------------------------------------------------------------

def make_ledger():
    return Ledger("L", {"a": 1000, "b": 0})


G = (PID, 0, "a", "b")


def executed_holds(ledger):
    return sum(1 for holds in ledger.groups.values() for h in holds
               if h.state == HOLD_EXECUTED)


def test_hold_lifecycle_moves_value_once():
    led = make_ledger()
    pre = derive_preimage(b"s", PID, 0)
    h0 = led.place_hold(G, "a", "b", 300, condition_of(pre), 100.0)
    assert led.balance("a") == 700 and led.balance("b") == 0
    assert led.escrow_total() == 300 and led.conserved()
    assert led.execute_hold(h0, pre, 50.0)
    assert led.balance("b") == 300 and led.escrow_total() == 0
    # idempotent: a replay neither fails nor double-credits
    assert led.execute_hold(h0, pre, 60.0)
    assert led.balance("b") == 300
    assert led.conserved()


def test_hold_rejects_wrong_preimage_and_expiry():
    led = make_ledger()
    pre = derive_preimage(b"s", PID, 0)
    h0 = led.place_hold(G, "a", "b", 300, condition_of(pre), 100.0)
    assert not led.execute_hold(h0, b"\x00" * 32, 10.0)
    assert led.hold(h0).state == "active"
    assert not led.execute_hold(h0, pre, 101.0)   # too late: voided
    assert led.hold(h0).state == HOLD_VOID
    assert led.balance("a") == 1000
    assert led.conserved()


def test_hold_insufficient_funds_and_duplicate_id():
    led = make_ledger()
    with pytest.raises(LedgerError):
        led.place_hold(G, "a", "b", 2000, b"\x00" * 32, 10.0)
    # the ledger names each hold: a failed place adds none, and a second
    # hold in the group gets the next index
    assert led.place_hold(G, "a", "b", 100, b"\x00" * 32, 10.0) == (G, 0)
    assert led.place_hold(G, "a", "b", 100, b"\x00" * 32, 10.0) == (G, 1)
    with pytest.raises(LedgerError):
        led.hold((G, 2))


def test_sweep_voids_expired_only():
    led = make_ledger()
    h0 = led.place_hold((PID, 0, "a", "b"), "a", "b", 100, b"\x00" * 32,
                        10.0)
    h1 = led.place_hold((PID, 1, "a", "b"), "a", "b", 100, b"\x00" * 32,
                        99.0)
    assert led.sweep(50.0) == 1
    assert led.hold(h0).state == HOLD_VOID
    assert led.hold(h1).state == "active"


def test_find_active_matches_condition_and_amount():
    led = make_ledger()
    cond = condition_of(b"\x01" * 32)
    led.place_hold(G, "a", "b", 100, cond, 100.0)
    assert led.find_active(G, cond, 100, 1.0) == (G, 0)
    assert led.find_active(G, cond, 101, 1.0) is None
    assert led.find_active(G, b"\x00" * 32, 50, 1.0) is None
    assert led.find_active(G, cond, 100, 200.0) is None   # expired


def test_quote_math():
    led = make_ledger()
    assert PeerLink("p", led, "a", "b", fee_ppm=10_000).quote(200) == 198
    assert PeerLink("p", led, "a", "b", rate_num=3, rate_den=2).quote(200) == 300
    assert PeerLink("p", led, "a", "b", rate_num=97, rate_den=100,
                    fee_ppm=5_000).quote(1000) == 966


# --- party wiring (no engine) ----------------------------------------------------------

class FakeApi:
    def __init__(self):
        self.now = 0.0
        self.sent = []          # (src, dst, body)
        self.timers = {}

    def send(self, src, dst, body, service, priority=0, deadline_ms=None):
        self.sent.append((src, dst, body))
        return True

    def raw_send(self, src, dst, body):
        self.sent.append((src, dst, body))

    def set_timer(self, cid, tid, delay, data=None):
        self.timers[(cid, tid)] = self.now + delay

    def cancel_timer(self, cid, tid):
        self.timers.pop((cid, tid), None)

    def rtt_hint(self, a, b):
        return 32.0

    def raw_rtt_hint(self, a, b):
        return 32.0


def test_arq_give_up_is_counted_by_its_node():
    node = IlpNode("cs", "g.s", DirectTransport())
    api = FakeApi()
    node.transport.send_packet(node, api, "cr", b"pkt", PREPARE)
    # the pipe is dead: no ack comes back, and every send's timer fires
    for _ in range(ARQ_MAX_TRIES):
        node.on_timer(("arq", 0), None, api)
    assert len(api.sent) == ARQ_MAX_TRIES
    assert node.counters == {"arq_failed": 1}
    assert not node.transport.pending


def three_party():
    """Sender cs -> connector cc -> receiver cr across two ledgers."""
    txlog = TxLog()
    l1 = Ledger("L1", {"cs": 10_000, "cc": 10_000})
    l2 = Ledger("L2", {"cc": 10_000, "cr": 0})
    svc = ServiceClass(PRI, 1)

    s = IlpNode("cs", "g.s", OverlayTransport(svc), txlog=txlog)
    c = IlpNode("cc", "g.c", OverlayTransport(svc), txlog=txlog)
    r = IlpNode("cr", "g.r", OverlayTransport(svc), secret=b"shh", txlog=txlog)

    s.add_link(PeerLink("cc", l1, "cs", "cc"))
    s.add_route("g.r", "cc")
    c.add_link(PeerLink("cs", l1, "cc", "cs"))
    c.add_link(PeerLink("cr", l2, "cc", "cr", fee_ppm=10_000))
    c.add_route("g.r", "cr")
    c.add_route("g.s", "cs")
    r.add_link(PeerLink("cc", l2, "cr", "cc"))
    r.add_route("g.s", "cc")
    return s, c, r, l1, l2, txlog


def pump(api, nodes, drop=None):
    """Deliver queued packets until quiescent.  `drop` filters (src, dst, raw)."""
    hops = 0
    while api.sent:
        src, dst, body = api.sent.pop(0)
        hops += 1
        if hops > 500:
            raise AssertionError("packet storm")
        if drop is not None and drop(src, dst, body):
            continue
        nodes[dst].handle_packet(src, body, api)
    return hops


def test_single_payment_end_to_end():
    s, c, r, l1, l2, txlog = three_party()
    api = FakeApi()
    nodes = {"cs": s, "cc": c, "cr": r}
    sid = s.start_stream(api, "g.r.accounts.main", b"shh", 200, 200)
    pump(api, nodes)
    sess = s.sessions[sid]
    assert sess.state == STREAM_COMPLETE
    assert sess.next_seq == 1
    assert l1.balance("cs") == 9_800 and l1.balance("cc") == 10_200
    assert l2.balance("cc") == 9_802 and l2.balance("cr") == 198
    report = settle_check([l1, l2], api.now, txlog)
    assert report.ok, report.problems
    assert report.fees_by_connector == {"cc": 2}


def test_stream_splits_and_clamps_last_packet():
    s, c, r, l1, l2, txlog = three_party()
    api = FakeApi()
    nodes = {"cs": s, "cc": c, "cr": r}
    sid = s.start_stream(api, "g.r.x", b"shh", 1050, 100)
    pump(api, nodes)
    sess = s.sessions[sid]
    assert sess.state == STREAM_COMPLETE
    assert sess.next_seq == 11
    assert l1.balance("cs") == 10_000 - 1050
    # per packet quote(100) = 99; the 50 tail's fee floors to zero
    assert l2.balance("cr") == 10 * 99 + 50
    assert settle_check([l1, l2], api.now, txlog).ok


def test_wrong_secret_rejects_without_value_movement():
    s, c, r, l1, l2, txlog = three_party()
    api = FakeApi()
    nodes = {"cs": s, "cc": c, "cr": r}
    sid = s.start_stream(api, "g.r.x", b"wrong", 200, 200)
    pump(api, nodes)
    assert s.sessions[sid].state == STREAM_FAILED
    assert r.counters.get("wrong_condition") == 1
    report = settle_check([l1, l2], api.now, txlog)
    assert report.ok
    assert l1.balance("cs") == 10_000 and l2.balance("cr") == 0


def test_lost_fulfill_retry_does_not_double_pay():
    s, c, r, l1, l2, txlog = three_party()
    api = FakeApi()
    nodes = {"cs": s, "cc": c, "cr": r}
    state = {"dropped": False}

    def drop(src, dst, body):
        # swallow the first fulfill on its way back to the connector
        if not state["dropped"] and decode_packet(body).kind == FULFILL \
                and dst == "cc":
            state["dropped"] = True
            return True
        return False

    sid = s.start_stream(api, "g.r.x", b"shh", 200, 200)
    pump(api, nodes, drop=drop)
    sess = s.sessions[sid]
    assert sess.state != STREAM_COMPLETE      # fulfill never came back
    # the session timer fires and the sender retries the same packet
    api.now = 200.0
    s.on_timer(("sess", sid), None, api)
    pump(api, nodes)
    assert sess.state == STREAM_COMPLETE
    # the connector found its outgoing hold already executed and pulled
    # the preimage off the book instead of re-forwarding
    assert c.counters.get("preimage_recovered") == 1
    # exactly one incoming and one outgoing hold executed
    report = settle_check([l1, l2], api.now, txlog)
    assert report.ok, report.problems
    assert l1.balance("cs") == 9_800
    assert l2.balance("cr") == 198
    assert report.fees_by_connector == {"cc": 2}


def test_retried_prepare_for_a_paid_packet_is_answered_from_the_ledger():
    # sender and receiver share one ledger, as every scenario pays
    book = Ledger("book", {"cs": 10_000, "cr": 0})
    txlog = TxLog()
    svc = ServiceClass(PRI, 1)
    s = IlpNode("cs", "g.s", OverlayTransport(svc), txlog=txlog)
    r = IlpNode("cr", "g.r", OverlayTransport(svc), secret=b"shh",
                txlog=txlog)
    s.add_link(PeerLink("cr", book, "cs", "cr"))
    s.add_route("g.r", "cr")
    r.add_link(PeerLink("cs", book, "cr", "cs"))
    r.add_route("g.s", "cs")
    api = FakeApi()
    nodes = {"cs": s, "cr": r}
    state = {"dropped": False}

    def drop(src, dst, body):
        if not state["dropped"] and decode_packet(body).kind == FULFILL:
            state["dropped"] = True
            return True
        return False

    sid = s.start_stream(api, "g.r.x", b"shh", 200, 200)
    pump(api, nodes, drop=drop)
    sess = s.sessions[sid]
    assert sess.state == STREAM_RUNNING       # the fulfill never came back
    api.now = 200.0
    s.on_timer(("sess", sid), None, api)
    pump(api, nodes)
    assert sess.state == STREAM_COMPLETE
    # the receiver saw its executed hold on the book and fulfilled again
    assert r.counters["duplicate_prepare"] == 1
    assert executed_holds(book) == 1
    assert book.escrow_total() == 0
    assert book.balance("cs") == 9_800 and book.balance("cr") == 200
    report = settle_check([book], api.now, txlog)
    assert report.ok, report.problems


def test_lost_prepare_retry_reuses_active_hold():
    s, c, r, l1, l2, txlog = three_party()
    api = FakeApi()
    nodes = {"cs": s, "cc": c, "cr": r}
    state = {"dropped": False}

    def drop(src, dst, body):
        if not state["dropped"] and decode_packet(body).kind == PREPARE \
                and dst == "cr":
            state["dropped"] = True
            return True
        return False

    sid = s.start_stream(api, "g.r.x", b"shh", 200, 200)
    pump(api, nodes, drop=drop)
    api.now = 200.0
    s.on_timer(("sess", sid), None, api)
    pump(api, nodes)
    assert s.sessions[sid].state == STREAM_COMPLETE
    # no second escrow was taken on either ledger for the retry
    assert executed_holds(l1) == 1
    assert executed_holds(l2) == 1
    assert settle_check([l1, l2], api.now, txlog).ok


def test_expired_prepare_is_rejected():
    s, c, r, l1, l2, txlog = three_party()
    api = FakeApi()
    preimage = derive_preimage(b"shh", PID, 0)
    pkt = IlpPacket(PREPARE, PID, 0, amount=100, expiry_us=5_000_000,
                    condition=condition_of(preimage), address="g.r.x")
    api.now = 6000.0           # past the 5 s expiry
    r.handle_packet("cc", pkt.encode(), api)
    assert len(api.sent) == 1
    reply = decode_packet(api.sent[0][2])
    assert reply.kind == REJECT and reply.code == R_EXPIRED


def test_prepare_without_hold_is_rejected():
    s, c, r, l1, l2, txlog = three_party()
    api = FakeApi()
    preimage = derive_preimage(b"shh", PID, 0)
    pkt = IlpPacket(PREPARE, PID, 0, amount=100,
                    expiry_us=int(30_000 * 1000),
                    condition=condition_of(preimage), address="g.r.x")
    r.handle_packet("cc", pkt.encode(), api)
    reply = decode_packet(api.sent[0][2])
    assert reply.kind == REJECT and reply.code == R_NO_HOLD


def test_settle_check_flags_tampered_log():
    s, c, r, l1, l2, txlog = three_party()
    api = FakeApi()
    nodes = {"cs": s, "cc": c, "cr": r}
    s.start_stream(api, "g.r.x", b"shh", 200, 200)
    pump(api, nodes)
    assert settle_check([l1, l2], api.now, txlog).ok
    txlog.rows = [row for row in txlog.rows
                  if not (row[1] == "cc" and row[2] == "fulfill")]
    report = settle_check([l1, l2], api.now, txlog)
    assert not report.ok
    assert any("logged" in p for p in report.problems)


# a six-party chain on one book: each connector pays on 50 more than it was
# paid (losses), or 50 less (fees); prints both reports' connector orders
_CHAIN_BOOK_ORDERS = """
from spon.payment import Ledger, condition_of, settle_check
parties = ["alice", "bob", "carol", "dave", "erin", "frank"]
for step in (50, -50):
    book = Ledger("L", {p: 1000 for p in parties})
    for i, (payer, payee) in enumerate(zip(parties, parties[1:])):
        hold = book.place_hold((b"p", 0, payer, payee), payer, payee,
                               300 + step * i, condition_of(b"x"), 1000.0)
        assert book.execute_hold(hold, b"x", 0.0)
    report = settle_check([book], 0.0)
    print(report.problems, list(report.fees_by_connector))
"""


def test_settle_check_lists_connectors_in_name_order_under_any_hash_seed():
    src = os.path.dirname(os.path.dirname(os.path.abspath(payment.__file__)))
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        outputs.append(subprocess.run(
            [sys.executable, "-c", _CHAIN_BOOK_ORDERS], env=env, check=True,
            capture_output=True, encoding="utf-8").stdout)
    connectors = ["bob", "carol", "dave", "erin"]
    losses = [f"connector {name} lost 50" for name in connectors]
    assert outputs == [f"{losses} []\n[] {connectors}\n"] * 2


def test_settle_check_flags_a_paid_group_with_a_hold_still_active():
    s, c, r, l1, l2, txlog = three_party()
    api = FakeApi()
    nodes = {"cs": s, "cc": c, "cr": r}
    sid = s.start_stream(api, "g.r.x", b"shh", 200, 200)
    pump(api, nodes)
    assert settle_check([l1, l2], api.now, txlog).ok
    sess = s.sessions[sid]
    l1.place_hold((sess.payment_id, 0, "cs", "cc"), "cs", "cc", 200,
                  b"\x00" * 32, api.now + 30_000.0)
    report = settle_check([l1, l2], api.now, txlog)
    assert not report.ok
    # summary.txt prints the group as <pid hex>:<seq>:<payer>><payee>
    assert report.problems == [
        f"ledger L1: group {sess.payment_id.hex()}:0:cs>cc executed with a "
        f"hold still active"]


def test_ping_never_touches_the_books():
    s, c, r, l1, l2, txlog = three_party()
    api = FakeApi()
    nodes = {"cs": s, "cc": c, "cr": r}
    probe_id = s.start_ping(api, "g.r.x", b"shh", count=1, interval_ms=100.0)
    pump(api, nodes)
    probe = s.pings[probe_id]
    assert [o[3] for o in probe.outcomes] == ["ok"]
    assert not l1.groups and not l2.groups


def ping_timer(node, probe_id, seq):
    return (node.client_id, ("ping", probe_id, seq))


def test_reject_for_an_outstanding_ping_records_one_timeout():
    s, c, r, l1, l2, txlog = three_party()
    api = FakeApi()
    probe_id = s.start_ping(api, "g.r.x", b"shh", count=1, interval_ms=100.0)
    probe = s.pings[probe_id]
    assert ping_timer(s, probe_id, 0) in api.timers
    api.now = 40.0
    rej = IlpPacket(REJECT, probe.payment_id, 0, code=R_EXPIRED).encode()
    s.handle_packet("cc", rej, api)
    s.handle_packet("cc", rej, api)
    assert [o[3] for o in probe.outcomes] == ["timeout"]
    assert probe.outcomes == [(0, 0.0, -1.0, "timeout")]
    assert ping_timer(s, probe_id, 0) not in api.timers


def test_fulfill_with_the_wrong_preimage_records_a_timeout():
    s, c, r, l1, l2, txlog = three_party()
    api = FakeApi()
    probe_id = s.start_ping(api, "g.r.x", b"shh", count=1, interval_ms=100.0)
    probe = s.pings[probe_id]
    api.now = 40.0
    s.handle_packet("cc", IlpPacket(FULFILL, probe.payment_id, 0,
                                    fulfillment=b"\x00" * 32).encode(), api)
    assert [o[3] for o in probe.outcomes] == ["timeout"]
    assert probe.outcomes == [(0, 0.0, -1.0, "timeout")]
    assert ping_timer(s, probe_id, 0) not in api.timers


def test_fulfill_after_the_ping_timer_fired_changes_nothing():
    s, c, r, l1, l2, txlog = three_party()
    api = FakeApi()
    probe_id = s.start_ping(api, "g.r.x", b"shh", count=1, interval_ms=100.0)
    probe = s.pings[probe_id]
    api.now = api.timers.pop(ping_timer(s, probe_id, 0))
    s.on_timer(("ping", probe_id, 0), None, api)
    assert probe.outcomes == [(0, 0.0, -1.0, "timeout")]
    api.now += 5.0
    preimage = derive_preimage(b"shh", probe.payment_id, 0)
    s.handle_packet("cc", IlpPacket(FULFILL, probe.payment_id, 0,
                                    fulfillment=preimage).encode(), api)
    assert [o[3] for o in probe.outcomes] == ["timeout"]
    assert probe.outcomes == [(0, 0.0, -1.0, "timeout")]
    assert not s.counters


def test_packets_for_an_unknown_payment_id():
    s, c, r, l1, l2, txlog = three_party()
    api = FakeApi()
    s.handle_packet("cc", IlpPacket(FULFILL, PID, 0,
                                    fulfillment=b"\x01" * 32).encode(), api)
    assert s.counters == {"orphan_fulfill": 1}
    s.handle_packet("cc", IlpPacket(REJECT, PID, 0, code=R_EXPIRED).encode(),
                    api)
    assert s.counters == {"orphan_fulfill": 1}
    assert not api.sent and not api.timers


def test_a_session_that_failed_at_start_absorbs_its_fulfill():
    s, c, r, l1, l2, txlog = three_party()
    api = FakeApi()
    sid = s.start_stream(api, "g.nowhere.x", b"shh", 200, 200)
    sess = s.sessions[sid]
    assert sess.state == STREAM_FAILED
    preimage = derive_preimage(b"shh", sess.payment_id, 0)
    s.handle_packet("cc", IlpPacket(FULFILL, sess.payment_id, 0,
                                    fulfillment=preimage).encode(), api)
    assert "orphan_fulfill" not in s.counters
    assert sess.state == STREAM_FAILED and sess.next_seq == 0
    assert not api.sent


# a hold that ties up the connector's funds on L2
LOCK = (b"lock" * 4, 0, "cc", "cr")


def test_hold_after_a_failed_place_hold_gets_a_fresh_id():
    s, c, r, l1, l2, txlog = three_party()
    api = FakeApi()
    nodes = {"cs": s, "cc": c, "cr": r}
    rejects = []
    lock = []

    def script(src, dst, body):
        pkt = decode_packet(body)
        if pkt.kind == PREPARE and dst == "cr" and not rejects:
            # the receiver turns the first forward away: its hold is voided
            api.sent.append(("cr", "cc", IlpPacket(
                REJECT, pkt.payment_id, pkt.seq, code=R_EXPIRED).encode()))
            return True
        if pkt.kind == REJECT and dst == "cs":
            rejects.append(pkt.code)
            if len(rejects) == 1:
                # the connector's next place_hold raises for want of funds
                lock.append(l2.place_hold(LOCK, "cc", "cr", l2.balance("cc"),
                                          b"\x00" * 32, 1e9))
            else:
                l2.void_hold(lock[0])
        return False

    sid = s.start_stream(api, "g.r.x", b"shh", 200, 200)
    pump(api, nodes, drop=script)
    # the expired reject is retried at once, the funds reject by the timer
    api.now = api.timers[("cs", ("sess", sid))]
    s.on_timer(("sess", sid), None, api)
    pump(api, nodes, drop=script)
    assert rejects == [R_EXPIRED, R_INSUFFICIENT_FUNDS]
    assert c.counters.get("out_of_funds") == 1
    assert s.sessions[sid].state == STREAM_COMPLETE
    group = (s.sessions[sid].payment_id, 0, "cc", "cr")
    assert [h.state for h in l2.groups[group]] == [HOLD_VOID, HOLD_EXECUTED]
    assert settle_check([l1, l2], api.now, txlog).ok


def test_a_persistent_reject_waits_for_the_session_timer():
    s, c, r, l1, l2, txlog = three_party()
    api = FakeApi()
    nodes = {"cs": s, "cc": c, "cr": r}
    # every hold the connector tries to place on L2 fails for want of funds
    l2.place_hold(LOCK, "cc", "cr", l2.balance("cc"), b"\x00" * 32, 1e9)
    sid = s.start_stream(api, "g.r.x", b"shh", 200, 200)
    pump(api, nodes)
    sess = s.sessions[sid]
    assert c.counters.get("out_of_funds") == 1
    assert s.counters.get("reject_insufficient_funds") == 1
    assert sess.state == STREAM_RUNNING and sess.retries == 0
    due = api.timers[("cs", ("sess", sid))]
    assert due > api.now
    api.now = due
    s.on_timer(("sess", sid), None, api)
    pump(api, nodes)
    assert c.counters.get("out_of_funds") == 2
    assert sess.state == STREAM_RUNNING and sess.retries == 1
    # the next wait is longer: the timer doubles per retry
    assert api.timers[("cs", ("sess", sid))] - api.now > due


# --- engine integration -----------------------------------------------------------------

def overlay_world(service, loss=None, count=1, total=200, packet=200,
                  seed=21, horizon=120_000.0, faults=(), behaviors=None):
    """Chain topology with the connector homed at relay 13."""
    with open(CHAIN, encoding="utf-8") as fh:
        text = fh.read() + "attach cs 1\nattach cc 13\nattach cr 5\n"
    topo = parse_topology(text)
    txlog = TxLog()
    l1 = Ledger("L1", {"cs": 1_000_000, "cc": 1_000_000})
    l2 = Ledger("L2", {"cc": 1_000_000, "cr": 0})

    class Sender(IlpNode):
        def on_start(self, api):
            self.sid = self.start_stream(api, "g.r.main", b"shh", total, packet)

    s = Sender("cs", "g.s", OverlayTransport(service), txlog=txlog)
    c = IlpNode("cc", "g.c", OverlayTransport(service), txlog=txlog)
    r = IlpNode("cr", "g.r", OverlayTransport(service), secret=b"shh",
                txlog=txlog)
    s.add_link(PeerLink("cc", l1, "cs", "cc"))
    s.add_route("g.r", "cc")
    c.add_link(PeerLink("cs", l1, "cc", "cs"))
    c.add_link(PeerLink("cr", l2, "cc", "cr", fee_ppm=10_000))
    c.add_route("g.r", "cr")
    c.add_route("g.s", "cs")
    r.add_link(PeerLink("cc", l2, "cr", "cc"))
    r.add_route("g.s", "cc")

    all_faults = list(faults)
    if loss:
        all_faults.append(FaultEvent(0.0, change=Change.loss_override(
            "12", "13", loss)))
    eng = Engine(topo, [s, c, r], seed=seed, faults=all_faults,
                 behaviors=behaviors)
    eng.run(horizon)
    return s, c, r, l1, l2, txlog, eng


def test_payment_over_overlay_completes():
    s, c, r, l1, l2, txlog, eng = overlay_world(ServiceClass(PRI, 2))
    assert s.sessions[s.sid].state == STREAM_COMPLETE
    assert l2.balance("cr") == 198
    assert settle_check([l1, l2], eng.now, txlog).ok


def test_stream_survives_heavy_loss_exactly_once():
    s, c, r, l1, l2, txlog, eng = overlay_world(
        ServiceClass(REL, 1), loss=0.25, total=1000, packet=100)
    sess = s.sessions[s.sid]
    assert sess.state == STREAM_COMPLETE
    assert sess.next_seq == 10
    assert l1.balance("cs") == 1_000_000 - 1000
    assert l2.balance("cr") == 10 * 99
    report = settle_check([l1, l2], eng.now, txlog)
    assert report.ok, report.problems


@pytest.mark.parametrize("seed", [2, 5, 11])
def test_stream_retry_hold_is_given_back(seed):
    # at these seeds a retry places a second hold after the connector has
    # claimed the first (seed 2 with confirmed idle-link announces, 5 and 11
    # with the older announce ladder); the fulfil must refund that hold, not
    # leave it in escrow
    s, c, r, l1, l2, txlog, eng = overlay_world(
        ServiceClass(REL, 1), loss=0.25, total=1000, packet=100, seed=seed)
    assert s.sessions[s.sid].state == STREAM_COMPLETE
    assert l1.balance("cs") == 1_000_000 - 1000
    assert l1.escrow_total() == 0
    report = settle_check([l1, l2], eng.now, txlog)
    assert report.ok, report.problems


@pytest.mark.parametrize("service", [ServiceClass(PRI, 2), ServiceClass(REL, 1)],
                         ids=["pri2", "rel1"])
def test_connector_stream_survives_relay_restarts(service):
    # each relay on the path restarts in turn, the connector's (13) among
    # them; a restarted relay numbers its traffic afresh, so nothing it
    # originates is taken for a duplicate of what it sent before
    faults = []
    for i, relay in enumerate(("12", "13", "14")):
        start = 2000.0 + 1500.0 * i
        faults += [FaultEvent(start, change=Change.node_down(relay)),
                   FaultEvent(start + 400.0, change=Change.node_up(relay))]
    s, c, r, l1, l2, txlog, eng = overlay_world(
        service, loss=0.05, total=200 * 200, packet=200, faults=faults)
    sess = s.sessions[s.sid]
    assert sess.state == STREAM_COMPLETE and sess.next_seq == 200
    report = settle_check([l1, l2], eng.now, txlog)
    assert report.ok, report.problems
    for ledger in (l1, l2):
        assert all(sum(h.state == HOLD_EXECUTED for h in holds) <= 1
                   for holds in ledger.groups.values())
    assert not c.relays
    assert "late_fulfill_loss" not in c.counters


def relay_restarts():
    """The schedule of `test_connector_stream_survives_relay_restarts`: each
    relay on the connector's path restarts in turn, 13 among them."""
    faults = []
    for i, relay in enumerate(("12", "13", "14")):
        start = 2000.0 + 1500.0 * i
        faults += [FaultEvent(start, change=Change.node_down(relay)),
                   FaultEvent(start + 400.0, change=Change.node_up(relay))]
    return faults


@pytest.mark.parametrize("world", [
    dict(service=ServiceClass(REL, 1), loss=0.25, total=1000, packet=100,
         seed=21),
    dict(service=ServiceClass(REL, 1), loss=0.25, total=1000, packet=100,
         seed=2),
    dict(service=ServiceClass(PRI, 2), loss=0.05, total=200 * 200,
         packet=200, faults=relay_restarts()),
    dict(service=ServiceClass(REL, 1), loss=0.05, total=200 * 200,
         packet=200, faults=relay_restarts()),
], ids=["rel1-loss-seed21", "rel1-loss-seed2", "pri2-restarts",
        "rel1-restarts"])
def test_connector_keeps_at_most_one_relay_record(world):
    # the sender has one packet in flight at a time, so the connector relays
    # at most one, and keeps no record once the stream is done
    s, c, r, l1, l2, txlog, eng = overlay_world(**world, horizon=0.0)
    t = 0.0
    while t < 120_000.0:
        t += 50.0
        eng.run(t)
        assert len(c.relays) <= 1, t
    assert s.sessions[s.sid].state == STREAM_COMPLETE
    assert not c.relays


def test_connector_stream_survives_a_compromised_relay():
    # relay 12 drops everything; it lies on the 1-12-13 route of the leg
    # from the sender to the connector, and on the 13-12-1-9-10-11-5 route
    # of the leg from the connector to the receiver, so each leg has one
    # clean route of its two
    s, c, r, l1, l2, txlog, eng = overlay_world(
        ServiceClass(PRI, 2), total=200 * 50, packet=200,
        behaviors={"12": Behavior.drop_all()})
    assert eng.counters["adversarial"] > 0
    sess = s.sessions[s.sid]
    assert sess.state == STREAM_COMPLETE and sess.next_seq == 50
    report = settle_check([l1, l2], eng.now, txlog)
    assert report.ok, report.problems
    for ledger in (l1, l2):
        assert all(sum(h.state == HOLD_EXECUTED for h in holds) <= 1
                   for holds in ledger.groups.values())
    assert not c.relays
    assert "late_fulfill_loss" not in c.counters


def test_ping_latency_over_chain():
    with open(CHAIN, encoding="utf-8") as fh:
        text = fh.read() + "attach cs 1\nattach cr 5\n"
    topo = parse_topology(text)

    class Pinger(IlpNode):
        def on_start(self, api):
            self.probe = self.start_ping(api, "g.r.x", b"shh", count=5,
                                         interval_ms=200.0)

    s = Pinger("cs", "g.s", OverlayTransport(ServiceClass(PRI, 1)))
    s.add_route("g.r", "cr")
    r = IlpNode("cr", "g.r", OverlayTransport(ServiceClass(PRI, 1)),
                secret=b"shh")
    r.add_route("g.s", "cs")
    eng = Engine(topo, [s, r], seed=8)
    eng.run(10_000.0)
    probe = s.pings[s.probe]
    assert [o[3] for o in probe.outcomes] == ["ok"] * 5
    assert all(32.0 < o[2] < 34.0 for o in probe.outcomes)


def test_direct_transport_remembers_seen_seqs_in_a_bounded_window():
    t = DirectTransport()
    node = IlpNode("cr", "g.r", t)
    api = FakeApi()

    def arrive(seq):
        return t.on_raw(node, "cs", struct.pack(">BQ", 1, seq) + b"p", api)

    assert all(arrive(seq) == b"p" for seq in range(1000))
    assert t.floor["cs"] == 1000 and not t.above["cs"]
    # out of order: the later seq waits above the floor until the gap fills
    assert arrive(1001) == b"p" and t.above["cs"] == {1001}
    assert arrive(1000) == b"p"
    assert t.floor["cs"] == 1002 and not t.above["cs"]
    # a replay below the floor is acked again but not handed up
    api.sent.clear()
    assert arrive(5) is None
    assert api.sent == [("cr", "cs", struct.pack(">BQ", 2, 5))]
    assert t.floor["cs"] == 1002 and not t.above["cs"]


def test_direct_transport_stalls_through_outage():
    with open(CHAIN, encoding="utf-8") as fh:
        text = fh.read() + "attach cs 1\nattach cr 5\n"
    topo = parse_topology(text)

    class Pinger(IlpNode):
        def on_start(self, api):
            api.set_timer(self.client_id, ("go",), 150.0)

        def on_timer(self, timer_id, data, api):
            if timer_id == ("go",):
                self.probe = self.start_ping(api, "g.r.x", b"shh", count=1,
                                             interval_ms=100.0,
                                             timeout_ms=10_000.0)
                return
            super().on_timer(timer_id, data, api)

    s = Pinger("cs", "g.s", DirectTransport())
    s.add_route("g.r", "cr")
    r = IlpNode("cr", "g.r", DirectTransport(), secret=b"shh")
    r.add_route("g.s", "cs")
    raw = RawLink("cs", "cr", path=("1", "12", "13", "14", "5"))
    faults = [FaultEvent(100.0, change=Change.node_down("13")),
              FaultEvent(600.0, change=Change.node_up("13"))]
    eng = Engine(topo, [s, r], seed=8, raw_links=[raw], faults=faults)
    eng.run(20_000.0)
    probe = s.pings[s.probe]
    assert [o[3] for o in probe.outcomes] == ["ok"]
    # the probe left at 150 ms and could not cross until the path returned
    assert probe.outcomes[0][2] > 400.0
