import random
from dataclasses import replace

import pytest

from helpers import build_view, data_file
from spon.frames import (
    Frame,
    HOP_ACK_REQ,
    HOP_ANNOUNCE,
    HOP_CONFIRM,
    KIND_ACK,
    KIND_DATA,
    KIND_HOP_DATA,
    KIND_HOP_NACK,
    SERVICE_PRI,
    SERVICE_REL,
)
from spon import overlay
from spon.overlay import (
    ACK_DELAY_MS,
    ANNOUNCE_RETRIES,
    HOP_CACHE_EXPIRY_MS,
    MAX_PAYLOAD_BYTES,
    NACK_BATCH,
    NACK_DELAY_MS,
    PRI,
    REL,
    REL_MAX_RETRIES,
    REL_ROUTE_POOL,
    Behavior,
    CancelTimer,
    Config,
    Deliver,
    FLOODING,
    NodeState,
    OutPort,
    PayloadTooLarge,
    ServiceClass,
    SetTimer,
    Transmit,
)
from spon.topology import (Change, NoPath, TopologyView, apply_fault,
                           k_disjoint_paths, load_topology)

CHAIN = data_file("chain.topo")


def chain_view():
    return TopologyView.all_up(load_topology(CHAIN))


def node(node_id, view=None, config=Config()):
    return NodeState(node_id, view or chain_view(), config)


def transmits(effects):
    return [e for e in effects if isinstance(e, Transmit)]


# --- client_send ---------------------------------------------------------------

def test_send_two_disjoint_routes():
    n1 = node("1")
    fx = n1.client_send("5", b"x", ServiceClass(PRI, 2), now=0.0)
    tx = transmits(fx)
    assert sorted(t.neighbor for t in tx) == ["12", "9"]
    frame = tx[0].frame
    assert frame.routes == (("1", "12", "13", "14", "5"),
                            ("1", "9", "10", "11", "5"))
    assert frame.k == 2
    assert frame.service == SERVICE_PRI


def test_send_flooding_hits_every_up_neighbor():
    n1 = node("1")
    fx = n1.client_send("5", b"x", ServiceClass(PRI, 0), now=0.0)
    assert sorted(t.neighbor for t in transmits(fx)) == ["12", "2", "6", "9"]


def test_send_loopback_delivers_directly():
    n1 = node("1")
    fx = n1.client_send("1", b"self", ServiceClass(PRI, 1), now=0.0)
    assert len(fx) == 1 and isinstance(fx[0], Deliver)
    assert fx[0].payload == b"self"


def test_send_rejects_oversized_payload():
    n1 = node("1")
    with pytest.raises(PayloadTooLarge):
        n1.client_send("5", b"x" * (MAX_PAYLOAD_BYTES + 1),
                       ServiceClass(PRI, 1), now=0.0)


def test_send_no_route_raises():
    view = chain_view()
    for a, b in [("1", "12"), ("1", "9"), ("1", "6"), ("1", "2")]:
        view = apply_fault(view, Change.link_down(a, b))
    n1 = node("1", view)
    with pytest.raises(NoPath):
        n1.client_send("5", b"x", ServiceClass(PRI, 1), now=0.0)
    with pytest.raises(NoPath):
        n1.client_send("5", b"x", ServiceClass(PRI, 0), now=0.0)


def test_seq_increases_per_dst_and_service():
    n1 = node("1")
    seqs = []
    for _ in range(3):
        fx = n1.client_send("5", b"x", ServiceClass(PRI, 1), now=0.0)
        seqs.append(transmits(fx)[0].frame.seq)
    assert seqs == [1, 2, 3]
    other = transmits(n1.client_send("7", b"x", ServiceClass(PRI, 1), now=0.0))
    assert other[0].frame.seq == 1
    rel = transmits(n1.client_send("5", b"x", ServiceClass(REL, 1), now=0.0))
    assert rel[0].frame.seq == 1


def test_pri_deadline_defaults_to_path_multiple():
    n1 = node("1")
    fx = n1.client_send("5", b"x", ServiceClass(PRI, 1), now=100.0)
    frame = transmits(fx)[0].frame
    assert frame.deadline_us == int((100.0 + 10 * 16.0) * 1000)


# --- send plans ------------------------------------------------------------------

def test_sends_after_a_view_change_take_the_new_views_routes():
    n1 = node("1")
    for k in (1, 2):
        fx = n1.client_send("5", b"x", ServiceClass(PRI, k), now=0.0)
        assert any("12" in route for route in transmits(fx)[0].frame.routes)
    # relay 12, on the first route, goes down
    down = apply_fault(chain_view(), Change.node_down("12"))
    n1.recompute_routes(down, now=1.0)
    for k in (1, 2):
        fx = n1.client_send("5", b"x", ServiceClass(PRI, k), now=2.0)
        paths = k_disjoint_paths(down, "1", "5", k)
        assert [t.frame.routes for t in transmits(fx)] == \
            [tuple(p.hops for p in paths)] * len(paths)
        assert [t.neighbor for t in transmits(fx)] == \
            [p.hops[1] for p in paths]
        assert not any("12" in route for route in transmits(fx)[0].frame.routes)
    fx = n1.client_send("5", b"x", ServiceClass(PRI, FLOODING), now=2.0)
    assert sorted(t.neighbor for t in transmits(fx)) == ["2", "6", "9"]


@pytest.mark.parametrize("kind", [PRI, REL])
def test_an_unreachable_destination_consumes_a_seq_and_no_view_pins_it(kind):
    n1 = node("1")
    first = transmits(n1.client_send("5", b"x", ServiceClass(kind, 1), 0.0))
    assert first[0].frame.seq == 1
    n1.recompute_routes(apply_fault(chain_view(), Change.node_down("5")), 1.0)
    for _ in range(2):
        with pytest.raises(NoPath):
            n1.client_send("5", b"x", ServiceClass(kind, 1), now=2.0)
    # no REL message is pending for a send that raised
    assert sorted(n1.rel_pending) == ([("5", 1)] if kind == REL else [])
    # a later view brings 5 back, and sends route again
    n1.recompute_routes(chain_view(), now=3.0)
    again = transmits(n1.client_send("5", b"x", ServiceClass(kind, 1), 4.0))
    assert again[0].frame.seq == 4
    assert again[0].frame.routes == (("1", "12", "13", "14", "5"),)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("kind", [PRI, REL])
def test_the_queued_frame_is_the_restamped_frame(kind, k):
    n1 = node("1")
    paths = k_disjoint_paths(chain_view(), "1", "5", k)
    # the second send is served from the plan the first one made
    for seq, now in ((1, 0.0), (2, 7.5)):
        fx = n1.client_send("5", b"payload", ServiceClass(kind, k), now=now)
        deadline_us = 0 if kind == REL else int((now + 10 * 16.0) * 1000)
        expected = Frame(KIND_DATA, kind, k, "1", "5", seq, 0, deadline_us,
                         (), b"payload").restamp(len(paths), paths)
        tx = transmits(fx)
        assert [t.neighbor for t in tx] == [p.hops[1] for p in paths]
        for t in tx:
            assert t.frame == expected
            assert t.frame.wire_size() == expected.wire_size() \
                == len(expected.encode())


def test_routes_are_looked_up_once_per_destination_and_k(monkeypatch):
    calls = []

    def counted(fn):
        def wrapper(view, src, dst, *k):
            calls.append((fn.__name__, dst) + k)
            return fn(view, src, dst, *k)
        return wrapper

    monkeypatch.setattr(overlay, "shortest_path",
                        counted(overlay.shortest_path))
    monkeypatch.setattr(overlay, "k_disjoint_paths",
                        counted(overlay.k_disjoint_paths))
    n1 = node("1")
    for k in (1, 2):
        for i in range(100):
            n1.client_send("5", b"x", ServiceClass(PRI, k), now=float(i))
    assert sorted(calls) == [("k_disjoint_paths", "5", 1),
                             ("k_disjoint_paths", "5", 2),
                             ("shortest_path", "5"), ("shortest_path", "5")]


# --- forwarding ------------------------------------------------------------------

def routed_frame(src, dst, route, service=SERVICE_PRI, seq=1, payload=b"p"):
    return Frame(kind=KIND_DATA, service=service, k=1, src=src, dst=dst,
                 seq=seq, routes=(route,), payload=payload)


def test_forward_follows_stamped_route():
    n12 = node("12")
    frame = routed_frame("1", "5", ("1", "12", "13", "14", "5"))
    fx = n12.handle_frame("1", frame, now=1.0)
    tx = transmits(fx)
    assert [t.neighbor for t in tx] == ["13"]


def test_forward_reroutes_around_dead_next_hop():
    view = apply_fault(chain_view(), Change.node_down("13"))
    n12 = node("12", view)
    frame = routed_frame("1", "5", ("1", "12", "13", "14", "5"))
    fx = n12.handle_frame("1", frame, now=1.0)
    tx = transmits(fx)
    assert len(tx) == 1
    # restamped from 12: only way onward is back through 1
    assert tx[0].frame.routes[0][0] == "12"
    assert tx[0].frame.routes[0][-1] == "5"


@pytest.mark.parametrize("route", [("1", "12", "zz", "5"), ("1", "12", "5")])
def test_forward_drops_a_route_whose_next_hop_is_not_adjacent(route):
    n12 = node("12")
    fx = n12.handle_frame("1", routed_frame("1", "5", route), now=1.0)
    assert not transmits(fx)
    assert n12.counters == {"bad_route": 1}


def test_rel_data_on_a_route_with_no_link_back_is_acked_over_the_pool():
    n5 = node("5")
    data = routed_frame("1", "5", ("1", "2", "14", "5"), service=SERVICE_REL)
    # the route's reverse, 5-14-2-1, names a link 14-2 that does not exist
    fx = n5.handle_frame("14", data, now=1.0)
    assert [e for e in fx if isinstance(e, Deliver)]
    acks = [t.frame for t in transmits(fx) if t.frame.kind == KIND_ACK]
    assert [a.routes for a in acks] == [(("5", "14", "13", "12", "1"),)]


def test_forward_rel_parks_when_no_route():
    view = chain_view()
    for a, b in [("12", "13"), ("1", "12")]:
        view = apply_fault(view, Change.link_down(a, b))
    n12 = node("12", view)
    frame = routed_frame("1", "5", ("1", "12", "13", "14", "5"),
                         service=SERVICE_REL)
    fx = n12.handle_frame("1", frame, now=1.0)
    assert not transmits(fx)
    assert len(n12.parked) == 1
    # the link comes back: parked frame is restamped and sent
    fx = n12.recompute_routes(chain_view(), now=2.0)
    assert len(transmits(fx)) == 1
    assert not n12.parked


def test_parked_frames_are_capped(monkeypatch):
    monkeypatch.setattr(overlay, "CONTROL_CAPACITY", 2)
    view = chain_view()
    for a, b in [("12", "13"), ("1", "12")]:
        view = apply_fault(view, Change.link_down(a, b))
    n12 = node("12", view)
    for seq in range(1, 4):                # the third finds the queue full
        frame = routed_frame("1", "5", ("1", "12", "13", "14", "5"),
                             service=SERVICE_REL, seq=seq)
        n12.handle_frame("1", frame, now=1.0)
        if seq < 3:
            assert n12.counters == {"parked": seq}
    assert [f.seq for f in n12.parked] == [1, 2]
    assert n12.counters == {"parked": 2, "parked_full": 1}


def test_delivery_and_duplicate_suppression():
    n5 = node("5")
    frame = routed_frame("1", "5", ("1", "12", "13", "14", "5"))
    fx = n5.handle_frame("14", frame, now=2.0)
    delivered = [e for e in fx if isinstance(e, Deliver)]
    assert len(delivered) == 1
    assert delivered[0].payload == b"p"
    dup = n5.handle_frame("11", replace(frame, routes=(("1", "9", "10", "11", "5"),)),
                          now=3.0)
    assert not [e for e in dup if isinstance(e, Deliver)]
    assert n5.counters == {"duplicate": 1}


def test_flood_delivers_once_and_respreads():
    n13 = node("13")
    flood = Frame(kind=KIND_DATA, service=SERVICE_PRI, k=0, src="1", dst="5",
                  seq=4, payload=b"f")
    fx = n13.handle_frame("12", flood, now=1.0)
    assert [t.neighbor for t in transmits(fx)] == ["14"]
    assert not n13.counters
    again = n13.handle_frame("14", flood, now=2.0)
    assert not transmits(again)
    assert n13.counters == {"duplicate": 1}


def test_flood_total_transmissions_bounded():
    view = chain_view()
    topo = view.base
    nodes = {n: node(n, view) for n in topo.nodes}
    src = nodes["1"]
    fx = src.client_send("5", b"x", ServiceClass(PRI, 0), now=0.0)
    pending = [("1", t.neighbor, t.frame) for t in transmits(fx)]
    sends = len(pending)
    deliveries = 0
    while pending:
        frm, to, frame = pending.pop(0)
        fx = nodes[to].handle_frame(frm, frame, now=1.0)
        for eff in fx:
            if isinstance(eff, Transmit):
                pending.append((to, eff.neighbor, eff.frame))
                sends += 1
            elif isinstance(eff, Deliver):
                deliveries += 1
    assert deliveries == 1
    assert sends <= 2 * len(topo.links)


@pytest.mark.parametrize("kind", [PRI, REL], ids=["PRI", "REL"])
def test_a_flood_crosses_each_link_once_and_stops_at_its_destination(kind):
    view = chain_view()
    nodes = {n: node(n, view) for n in view.base.nodes}
    fx = nodes["1"].client_send("5", b"x", ServiceClass(kind, 0), now=0.0)
    pending = [("1", t) for t in transmits(fx)]
    # flooded copies of each frame kind, by the link they crossed
    crossed = {KIND_DATA: [], KIND_ACK: []}
    while pending:
        frm, t = pending.pop(0)
        if t.frame.k == FLOODING:
            crossed[t.frame.kind].append(tuple(sorted((frm, t.neighbor))))
        fx = nodes[t.neighbor].handle_frame(frm, t.frame, now=1.0)
        pending += [(t.neighbor, e) for e in transmits(fx)]
    links = sorted(tuple(sorted((spec.a, spec.b))) for spec in view.base.links)
    assert len(links) == 14
    # the data flood: node 5 consumes it and sends no copy on
    assert sorted(crossed[KIND_DATA]) == links
    # the ack of a REL flood floods back the same way and stops at node 1
    assert sorted(crossed[KIND_ACK]) == (links if kind == REL else [])


# --- scheduler -------------------------------------------------------------------

def pri_frame(src, seq, priority=0, deadline_us=0):
    return Frame(kind=KIND_DATA, service=SERVICE_PRI, k=0, src=src, dst="z",
                 seq=seq, priority=priority, deadline_us=deadline_us)


def test_round_robin_alternates_sources():
    port = OutPort(capacity=2000)
    for i in range(1000):
        port.enqueue(pri_frame("A", i))
    for i in range(10):
        port.enqueue(pri_frame("B", i))
    order = []
    while True:
        frame, _ = port.dequeue(0.0)
        if frame is None:
            break
        order.append(frame.src)
    assert order[:20] == ["A", "B"] * 10
    assert order[20:] == ["A"] * 990


def test_round_robin_share_within_one():
    port = OutPort(capacity=5000)
    sources = ["s1", "s2", "s3"]
    for src in sources:
        for i in range(200):
            port.enqueue(pri_frame(src, i))
    counts = {s: 0 for s in sources}
    for _ in range(150):
        frame, _ = port.dequeue(0.0)
        counts[frame.src] += 1
    assert max(counts.values()) - min(counts.values()) <= 1


def test_priority_levels_within_partition():
    port = OutPort(capacity=100)
    port.enqueue(pri_frame("A", 1, priority=0))
    port.enqueue(pri_frame("A", 2, priority=2))
    port.enqueue(pri_frame("A", 3, priority=0))
    got = [port.dequeue(0.0)[0].seq for _ in range(3)]
    assert got == [2, 1, 3]


def held(port):
    return len(port.control) + sum(len(q) for part in port.ring
                                   for q in part.levels.values())


def test_port_length_counts_the_frames_it_holds(monkeypatch):
    monkeypatch.setattr(overlay, "CONTROL_CAPACITY", 2)
    port = OutPort(capacity=3)
    checks = []

    def check():
        checks.append((len(port), held(port)))

    for i in range(4):                     # the fourth is refused
        port.enqueue(pri_frame("A", i, deadline_us=1000 if i < 2 else 0))
        check()
    port.enqueue(pri_frame("B", 0, priority=1))
    check()
    for i in range(3):                     # the third is refused
        port.enqueue_control(pri_frame("C", i))
        check()
    port.dequeue(0.0)                      # control first
    check()
    port.dequeue(0.0)
    check()
    frame, expired = port.dequeue(5.0)     # A0 and A1 are past deadline
    assert expired == 2
    check()
    port.dequeue(5.0)
    check()
    port.enqueue(pri_frame("A", 9))
    port.enqueue_control(pri_frame("C", 9))
    check()
    port.drain()
    check()
    assert port.dequeue(5.0) == (None, 0)
    check()
    assert all(length == actual for length, actual in checks), checks
    assert checks[-1] == (0, 0)
    assert [length for length, _ in checks][:8] == [1, 2, 3, 3, 4, 5, 6, 6]


class ReferencePort:
    """A plain fair queue to check OutPort against: one list per partition
    (a PRIORITY source or a RELIABLE flow) in the order they opened, each
    served highest priority first and in arrival order within a priority;
    a turn index walks the partitions round-robin."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.control = []
        self.partitions = {}
        self.turn = 0

    def enqueue(self, frame):
        key = (frame.src, frame.dst) if frame.service == SERVICE_REL \
            else frame.src
        part = self.partitions.setdefault(key, [])
        if len(part) >= self.capacity:
            return False
        part.append(frame)
        return True

    def enqueue_control(self, frame):
        self.control.append(frame)
        return True

    def dequeue(self, now_ms):
        if self.control:
            return self.control.pop(0), 0
        parts = list(self.partitions.values())
        expired = 0
        for step in range(len(parts)):
            i = (self.turn + step) % len(parts)
            part = parts[i]
            while part:
                top = max(frame.priority for frame in part)
                frame = part.pop([f.priority for f in part].index(top))
                if frame.service == SERVICE_PRI and frame.deadline_us \
                        and int(now_ms * 1000) > frame.deadline_us:
                    expired += 1
                    continue
                self.turn = (i + 1) % len(parts)
                return frame, expired
        return None, expired

    def drain(self):
        out, self.control = self.control, []
        for part in self.partitions.values():
            out += sorted(part, key=lambda frame: -frame.priority)
            part.clear()
        return out

    def __len__(self):
        return len(self.control) + sum(map(len, self.partitions.values()))


@pytest.mark.parametrize("seed", range(25))
def test_port_serves_as_a_plain_fair_queue(seed):
    rng = random.Random(seed)
    port, ref = OutPort(capacity=5), ReferencePort(capacity=5)
    now = 0.0
    for seq in range(400):
        now += rng.choice((0.0, 0.0, 0.5, 1.0, 2.0))
        op = rng.random()
        if op < 0.6:
            # on the clock's 0.5 ms grid, so that some frames are dequeued
            # exactly at their deadline
            deadline_us = rng.choice((0, int(now * 1000)
                                      + 500 * rng.randint(-1, 10)))
            frame = Frame(KIND_DATA, rng.choice((SERVICE_PRI, SERVICE_REL)),
                          1, rng.choice("ABC"), rng.choice("xy"), seq,
                          rng.randint(0, 2), max(0, deadline_us))
            if op < 0.55:
                assert port.enqueue(frame) == ref.enqueue(frame)
            else:
                assert port.enqueue_control(frame) == ref.enqueue_control(frame)
        elif op < 0.97:
            frame, expired = port.dequeue(now)
            want, want_expired = ref.dequeue(now)
            assert (frame, expired) == (want, want_expired)
            assert frame is want
        else:
            got, want = port.drain(), ref.drain()
            assert len(got) == len(want)
            assert all(a is b for a, b in zip(got, want))
        assert len(port) == len(ref)


def test_buffer_full_drops_only_own_partition():
    n13 = node("13", config=Config(buffer_capacity=2))
    f1 = routed_frame("1", "5", ("1", "12", "13", "14", "5"), seq=1)
    f2 = routed_frame("1", "5", ("1", "12", "13", "14", "5"), seq=2)
    f3 = routed_frame("1", "5", ("1", "12", "13", "14", "5"), seq=3)
    other = routed_frame("9", "5", ("9", "12", "13", "14", "5"), seq=1)
    assert transmits(n13.handle_frame("12", f1, 0.0))
    assert transmits(n13.handle_frame("12", f2, 0.0))
    fx = n13.handle_frame("12", f3, 0.0)
    assert not transmits(fx)
    assert n13.counters == {"buffer_full": 1}
    fx = n13.handle_frame("12", other, 0.0)
    assert transmits(fx)          # different source partition still has room
    assert n13.counters == {"buffer_full": 1}


def test_expired_priority_dropped_at_dequeue():
    n12 = node("12")
    live = routed_frame("1", "5", ("1", "12", "13", "14", "5"), seq=1)
    stale = replace(routed_frame("1", "5", ("1", "12", "13", "14", "5"), seq=2),
                    deadline_us=5_000)
    n12.handle_frame("1", stale, 0.0)
    n12.handle_frame("1", live, 0.0)
    frame, fx = n12.scheduler_dequeue("13", now=6.0)
    assert frame.seq == 1
    assert n12.counters == {"deadline_expired": 1}


# --- hop-by-hop recovery ----------------------------------------------------------

def pair():
    view = build_view("AB", [("A", "B", 2.0)])
    return node("A", view), node("B", view)


def wire_frames(sender, neighbor, count, start_payload=0):
    """Wrap `count` data frames exactly like the engine would."""
    out = []
    for i in range(count):
        inner = Frame(kind=KIND_DATA, service=SERVICE_PRI, k=1, src="A", dst="B",
                      seq=i + 1, routes=(("A", "B"),),
                      payload=bytes([start_payload + i]))
        fx = []
        out.append(sender.wrap_for_link(inner, neighbor, now=float(i), out=fx))
    return out


def test_gap_triggers_nack_and_recovery():
    a, b = pair()
    wires = wire_frames(a, "B", 3)
    assert [w.seq for w in wires] == [0, 1, 2]

    fx0 = b.handle_frame("A", wires[0], 0.0)
    assert [e for e in fx0 if isinstance(e, Deliver)]
    # wire 1 lost; wire 2 arrives and exposes the gap
    fx2 = b.handle_frame("A", wires[2], 1.0)
    timers = [e for e in fx2 if isinstance(e, SetTimer) and e.timer_id == ("nack", "A")]
    assert timers and timers[0].delay_ms == 1.0
    assert [e for e in fx2 if isinstance(e, Deliver)]

    fx = b.handle_timer(("nack", "A"), None, 2.0)
    nacks = transmits(fx)
    assert nacks and nacks[0].frame.kind == KIND_HOP_NACK
    assert nacks[0].frame.payload != b""

    fx = a.handle_frame("B", nacks[0].frame, 2.5)
    retx = transmits(fx)
    assert retx and retx[0].frame.seq == 1 and retx[0].frame.kind == KIND_HOP_DATA

    fx = b.handle_frame("A", retx[0].frame, 3.0)
    assert [e for e in fx if isinstance(e, Deliver)]
    assert not b.hops["A"].missing
    # replaying the recovered frame again is a duplicate
    assert "hop_duplicate" not in b.counters
    fx = b.handle_frame("A", retx[0].frame, 3.5)
    assert not [e for e in fx if isinstance(e, Deliver)]
    assert b.counters["hop_duplicate"] == 1


def test_announce_detects_trailing_loss():
    a, b = pair()
    wires = wire_frames(a, "B", 1)
    # the only frame is lost; idle-link announce must expose it
    fx = a.handle_timer(("ann", "B"), None, 2.0)
    ann = transmits(fx)
    assert ann and ann[0].frame.kind == KIND_HOP_NACK and ann[0].frame.payload == b""
    assert ann[0].frame.seq == 0

    fx = b.handle_frame("A", ann[0].frame, 4.0)
    nt = [e for e in fx if isinstance(e, SetTimer) and e.timer_id == ("nack", "A")]
    assert nt
    fx = b.handle_timer(("nack", "A"), None, 5.0)
    nack = transmits(fx)[0].frame
    fx = a.handle_frame("B", nack, 5.5)
    retx = transmits(fx)
    assert retx and retx[0].frame.seq == 0
    fx = b.handle_frame("A", retx[0].frame, 6.0)
    assert [e for e in fx if isinstance(e, Deliver)]


def announce(sender, neighbor, now):
    """Fire the sender's announce timer; return the announce and any re-arm."""
    fx = sender.handle_timer(("ann", neighbor), None, now)
    sent = [t.frame for t in transmits(fx)]
    rearm = [e for e in fx if isinstance(e, SetTimer)]
    return (sent[0] if sent else None), (rearm[0] if rearm else None)


def test_first_announce_with_nothing_missing_is_confirmed():
    a, b = pair()
    b.handle_frame("A", wire_frames(a, "B", 1)[0], 2.0)
    first, rearm = announce(a, "B", 4.0)
    assert first.k == HOP_ANNOUNCE and first.seq == 0
    assert rearm.delay_ms == 5.0      # re-nack interval: 2.5 x 2 ms link
    confirm = transmits(b.handle_frame("A", first, 6.0))[0].frame
    assert confirm.k == HOP_CONFIRM and confirm.seq == 0
    # the confirm covers the last frame sent and cancels the back-off wait
    assert a.handle_frame("B", confirm, 8.0) == [CancelTimer(("ann", "B"))]
    assert announce(a, "B", 9.0) == (None, None)


def test_later_announce_with_nothing_missing_is_confirmed():
    a, b = pair()
    for w in wire_frames(a, "B", 2):
        b.handle_frame("A", w, 2.0)
    announce(a, "B", 4.0)
    second, rearm = announce(a, "B", 9.0)
    assert second.k == HOP_ANNOUNCE and second.seq == 1
    assert rearm.delay_ms == 10.0     # doubled
    fx = b.handle_frame("A", second, 11.0)
    confirm = transmits(fx)[0].frame
    assert confirm.kind == KIND_HOP_NACK and confirm.k == HOP_CONFIRM
    assert confirm.seq == 1 and confirm.payload == b""
    assert not [e for e in fx if isinstance(e, SetTimer)]


def test_later_announce_with_a_gap_is_nacked_not_confirmed():
    a, b = pair()
    wires = wire_frames(a, "B", 3)
    b.handle_frame("A", wires[0], 2.0)          # wires 1 and 2 are lost
    announce(a, "B", 4.0)
    second, _ = announce(a, "B", 9.0)
    fx = b.handle_frame("A", second, 11.0)
    assert not transmits(fx)
    assert [e for e in fx if isinstance(e, SetTimer)
            and e.timer_id == ("nack", "A")]
    assert sorted(b.hops["A"].missing) == [1, 2]
    nack = transmits(b.handle_timer(("nack", "A"), None, 12.0))[0].frame
    assert nack.payload and nack.k != HOP_CONFIRM


def test_confirm_stops_the_announces():
    a, b = pair()
    b.handle_frame("A", wire_frames(a, "B", 1)[0], 2.0)
    announce(a, "B", 4.0)
    second, _ = announce(a, "B", 9.0)
    confirm = transmits(b.handle_frame("A", second, 11.0))[0].frame
    assert a.handle_frame("B", confirm, 13.0) == [CancelTimer(("ann", "B"))]
    assert announce(a, "B", 19.0) == (None, None)
    # a new frame on the link is not covered by the old confirm
    wire_frames(a, "B", 1)
    assert announce(a, "B", 30.0)[0].seq == 1


def test_confirm_above_next_seq_is_ignored():
    a, _b = pair()
    wire_frames(a, "B", 2)
    # a confirm from before a reset of the link names a seq never sent since
    stale = Frame(kind=KIND_HOP_NACK, k=HOP_CONFIRM, src="B", dst="A", seq=2)
    a.handle_frame("B", stale, 3.0)
    assert a.hops["B"].confirmed == -1
    assert announce(a, "B", 4.0)[0].seq == 1


def test_unconfirmed_announces_stop_after_the_retry_budget():
    a, _b = pair()
    wire_frames(a, "B", 1)
    delays = []
    now = 2.0
    for _ in range(ANNOUNCE_RETRIES):
        sent, rearm = announce(a, "B", now)
        assert sent is not None
        if rearm is not None:
            delays.append(rearm.delay_ms)
            now += rearm.delay_ms
    # the last announce arms no further timer
    assert delays == [5.0, 10.0, 20.0, 40.0, 80.0]
    assert rearm is None


def test_evicted_cache_entry_yields_empty_fill(monkeypatch):
    monkeypatch.setattr(overlay, "HOP_CACHE_FRAMES", 3)
    view = build_view("AB", [("A", "B", 2.0)])
    a = NodeState("A", view)
    b = NodeState("B", view)
    wires = wire_frames(a, "B", 4)      # cache keeps seqs 1..3, evicting 0
    # only the last wire frame arrives; 0..2 are marked missing
    fx = b.handle_frame("A", wires[3], 1.0)
    assert set(b.hops["A"].missing) == {0, 1, 2}
    nack = Frame(kind=KIND_HOP_NACK, src="B", dst="A",
                 payload=b"\x00" * 7 + b"\x00")      # request seq 0
    fx = a.handle_frame("B", nack, 10.0)
    assert a.counters == {"hop_unrecoverable": 1}
    tombs = transmits(fx)
    assert len(tombs) == 1
    tomb = tombs[0].frame
    assert tomb.kind == KIND_HOP_DATA and tomb.inner is None and tomb.seq == 0
    # the fill closes the hole so the neighbor stops asking for seq 0
    fx = b.handle_frame("A", tomb, 10.5)
    assert not [e for e in fx if isinstance(e, Deliver)]
    assert set(b.hops["A"].missing) == {1, 2}


# Two bare nodes over a scripted pipe: the tests below drive the hop records'
# methods directly, and `pipe` carries what they send, losing chosen frames.

def pipe(sender, receiver, effects, now, lost=lambda frame: False):
    """Hand `receiver` each frame that `effects` sends, except those `lost`
    picks; return the receiver's effects."""
    out = []
    for t in transmits(effects):
        if not lost(t.frame):
            out += receiver.handle_frame(sender.id, t.frame, now)
    return out


def sent_data(hop, count, now):
    """Wrap `count` data frames on the hop record; return them as sent."""
    fx = []
    return [Transmit(hop.nbr, hop.wrap(
        Frame(kind=KIND_DATA, service=SERVICE_PRI, k=1, src=hop.node.id,
              dst=hop.nbr, seq=i + 1, routes=((hop.node.id, hop.nbr),)),
        now, fx)) for i in range(count)]


def test_a_gap_no_nack_recovers_is_given_up_once_per_seq():
    a, b = pair()
    rx = b.hops["A"]
    # wires 1 and 2 are lost; wire 3 opens the gap at 1 ms
    fx = pipe(a, b, sent_data(a.hops["B"], 4, 0.0), 1.0,
              lost=lambda f: f.seq in (1, 2))
    assert rx.nack in fx and sorted(rx.missing) == [1, 2]
    # every nack is lost, and the timer fires at each re-arming: three times
    # at the re-nack interval, then doubling up to 32 times it
    ladder = [1, 1, 1, 2, 4, 8, 16, 32]
    now, rnd = 1.0 + NACK_DELAY_MS, 0
    while now - 1.0 <= HOP_CACHE_EXPIRY_MS:
        out = []
        rx.on_nack_timer(now, out)
        [rearm] = [e for e in out if not isinstance(e, Transmit)]
        assert rearm == SetTimer(("nack", "A"),
                                 rx.renack_ms * ladder[min(rnd, 7)])
        assert overlay._unpack_seqs(transmits(out)[0].frame.payload) == [1, 2]
        assert not pipe(b, a, out, now, lost=lambda f: True)
        now += rearm.delay_ms
        rnd += 1
    # eight nacks by 167 ms, then one every 32 x 5 ms while the gap is
    # younger than the sender's cache
    assert rnd == 8 + 11
    # the gap is older than the sender's cache: given up, with no nack and
    # no timer
    out = []
    rx.on_nack_timer(now, out)
    assert out == [] and not rx.missing and not rx.nack_armed
    assert b.counters == {"hop_gave_up": 2}
    rx.on_nack_timer(now + rx.renack_ms, out)
    assert out == [] and b.counters == {"hop_gave_up": 2}


def test_a_wide_gap_is_nacked_a_batch_at_a_time_lowest_first():
    a, b = pair()
    rx = b.hops["A"]
    width = 2 * NACK_BATCH + 100
    # every frame between the first and the last is lost
    fx = pipe(a, b, sent_data(a.hops["B"], width + 2, 0.0), 1.0,
              lost=lambda f: 0 < f.seq <= width)
    assert len([e for e in fx if isinstance(e, Deliver)]) == 2
    now, batches, delivered = 1.0 + NACK_DELAY_MS, [], 0
    while rx.missing:
        out = []
        rx.on_nack_timer(now, out)
        [nack] = transmits(out)
        batches.append(overlay._unpack_seqs(nack.frame.payload))
        # the sender replays what was asked, and none of it is lost
        replays = pipe(b, a, out, now + 1.0)
        fx = pipe(a, b, replays, now + 2.0)
        delivered += len([e for e in fx if isinstance(e, Deliver)])
        now += rx.renack_ms
    assert batches == [list(range(1, NACK_BATCH + 1)),
                       list(range(NACK_BATCH + 1, 2 * NACK_BATCH + 1)),
                       list(range(2 * NACK_BATCH + 1, width + 1))]
    assert delivered == width and not b.counters


def test_remember_keeps_the_newest_distinct_keys(monkeypatch):
    monkeypatch.setattr(overlay, "DEDUP_WINDOW", 3)
    window = overlay._Window()
    for key in ["a", "b", "c", "d"]:
        overlay._remember(window, (key,))
    assert list(window) == [("b",), ("c",), ("d",)]
    # a key set again keeps its place, so it is still the oldest
    overlay._remember(window, ("b",), 1)
    overlay._remember(window, ("e",))
    assert window == {("c",): None, ("d",): None, ("e",): None}
    assert list(window.order) == list(window)


def test_ack_rotation_window_counts_each_ack(monkeypatch):
    monkeypatch.setattr(overlay, "DEDUP_WINDOW", 3)
    n5 = node("5")
    for seq in [1, 2, 2, 3, 4, 2]:
        n5.handle_frame("14", routed_frame("1", "5", ("1", "12", "13", "14", "5"),
                                           service=SERVICE_REL, seq=seq), 1.0)
    # seq 2's repeats count on in place; seq 4 pushes out seq 1, the oldest
    window = n5.dedup_window[("1", SERVICE_REL)]
    assert {seq: acks for (_dst, seq, _kind), acks in window.items()} == {
        2: 3, 3: 1, 4: 1}
    assert list(window.order) == list(window)
    assert [entry[1] for entry in window] == [2, 3, 4]


# --- reliable service ---------------------------------------------------------------

def test_rel_ack_roundtrip_cancels_timer():
    view = chain_view()
    n1, n5 = node("1", view), node("5", view)
    fx = n1.client_send("5", b"m", ServiceClass(REL, 1), now=0.0)
    assert ("5", 1) in n1.rel_pending
    timer = [e for e in fx if isinstance(e, SetTimer)][0]
    assert timer.timer_id == ("rel", "5", 1)
    assert timer.delay_ms == 2 * 32.0
    data = transmits(fx)[0].frame

    fx5 = n5.handle_frame("14", data, 16.0)
    acks = [t.frame for t in transmits(fx5) if t.frame.kind == KIND_ACK]
    assert acks and acks[0].routes == (("5", "14", "13", "12", "1"),)

    fx1 = n1.handle_frame("12", acks[0], 32.0)
    assert [e for e in fx1 if isinstance(e, CancelTimer)]
    assert not n1.rel_pending


def test_rel_duplicate_data_reacked_via_rotation():
    view = chain_view()
    n5 = node("5", view)
    data = routed_frame("1", "5", ("1", "12", "13", "14", "5"),
                        service=SERVICE_REL)
    first = n5.handle_frame("14", data, 0.0)
    assert [t for t in transmits(first) if t.frame.kind == KIND_ACK]
    dup = n5.handle_frame("14", data, 10.0)
    re_acks = [t for t in transmits(dup) if t.frame.kind == KIND_ACK]
    assert re_acks       # sender clearly missed the first ack


def test_rel_flood_copies_are_acked_once_and_a_routed_retransmit_again():
    n5 = node("5")
    flood = Frame(kind=KIND_DATA, service=SERVICE_REL, k=FLOODING, src="1",
                  dst="5", seq=1, payload=b"p")
    # the first copy is delivered, and its ack floods back
    fx = n5.handle_frame("14", flood, 0.0)
    assert [e for e in fx if isinstance(e, Deliver)]
    acks = transmits(fx)
    assert sorted(t.neighbor for t in acks) == ["11", "14", "3", "7"]
    assert all(t.frame.kind == KIND_ACK and t.frame.k == FLOODING
               for t in acks)
    # a later flood copy answers nothing that ack did not
    assert n5.handle_frame("11", flood, 4.0) == []
    # a routed retransmit means the flooded ack was lost: ack it over the
    # pool's next route
    retransmit = routed_frame("1", "5", ("1", "12", "13", "14", "5"),
                              service=SERVICE_REL)
    fx = n5.handle_frame("14", retransmit, 100.0)
    [ack] = transmits(fx)
    assert ack.neighbor == "11" and ack.frame.kind == KIND_ACK
    assert ack.frame.routes == (("5", "11", "10", "9", "1"),)
    assert not [e for e in fx if isinstance(e, Deliver)]
    assert n5.counters == {"duplicate": 2}
    assert n5.dedup_window[("1", SERVICE_REL)][("5", 1, KIND_DATA)] == 2


def test_rel_ack_with_no_route_pool_floods_to_the_up_neighbours():
    # the source is down, so neither the arrival route nor a pool route leads
    # back to it: the ack floods
    n5 = node("5", apply_fault(chain_view(), Change.node_down("1")))
    data = routed_frame("1", "5", ("1", "12", "13", "14", "5"),
                        service=SERVICE_REL)
    fx = n5.handle_frame("14", data, 0.0)
    assert [e for e in fx if isinstance(e, Deliver)]
    acks = transmits(fx)
    assert sorted(t.neighbor for t in acks) == ["11", "14", "3", "7"]
    assert all(t.frame.kind == KIND_ACK and t.frame.k == FLOODING
               for t in acks)
    assert not n5.counters


def test_rel_ack_at_a_node_with_no_up_neighbour_counts_ack_no_route():
    view = chain_view()
    for nbr in ["14", "11", "7", "3"]:
        view = apply_fault(view, Change.link_down(nbr, "5"))
    n5 = node("5", view)
    routed = routed_frame("1", "5", ("1", "12", "13", "14", "5"),
                          service=SERVICE_REL, seq=1)
    flooded = replace(routed, k=FLOODING, routes=(), seq=2)
    for data in (routed, flooded):
        fx = n5.handle_frame("14", data, 0.0)
        assert [e for e in fx if isinstance(e, Deliver)]
        assert not transmits(fx)
    assert n5.counters == {"ack_no_route": 2}


def test_rel_source_with_no_neighbour_left_counts_rel_stranded():
    n1 = node("1")
    n1.client_send("5", b"m", ServiceClass(REL, 1), now=0.0)
    view = chain_view()
    for nbr in ["12", "9", "6", "2"]:
        view = apply_fault(view, Change.link_down("1", nbr))
    n1.recompute_routes(view, now=50.0)
    fx = n1.handle_timer(("rel", "5", 1), None, 64.0)
    assert not transmits(fx)
    assert [e.timer_id for e in fx if isinstance(e, SetTimer)] == [
        ("rel", "5", 1)]
    assert n1.counters.get("rel_stranded") == 1
    assert "rel_retransmit" not in n1.counters


def test_rel_retransmit_rotates_routes_then_floods():
    n1 = node("1")
    n1.client_send("5", b"m", ServiceClass(REL, 1), now=0.0)
    fx = n1.handle_timer(("rel", "5", 1), None, 100.0)
    tx1 = transmits(fx)
    assert len(tx1) == 1 and tx1[0].neighbor == "9"   # the pool's 2nd path
    fx = n1.handle_timer(("rel", "5", 1), None, 200.0)
    tx2 = transmits(fx)
    assert len(tx2) == 1 and tx2[0].neighbor == "6"   # rotated to 3rd path
    fx = n1.handle_timer(("rel", "5", 1), None, 400.0)
    tx3 = transmits(fx)
    assert sorted(t.neighbor for t in tx3) == ["12", "2", "6", "9"]   # flood turn
    # rto doubles every attempt
    timers = [e for e in fx if isinstance(e, SetTimer) and e.timer_id[0] == "rel"]
    assert timers[0].delay_ms == 2 * 32.0 * 2 ** 3


def test_rel_timeout_of_a_flooded_message_only_sends_routed_copies():
    # the first flood reached every window, so a retry is one routed copy on
    # the route pool, never a second flood
    n1 = node("1")
    n1.client_send("5", b"m", ServiceClass(REL, FLOODING), now=0.0)
    fx = n1.handle_timer(("rel", "5", 1), None, 100.0)
    tx = transmits(fx)
    assert len(tx) == 1 and tx[0].neighbor == "9"
    assert tx[0].frame.k == 1
    assert n1.counters.get("rel_retransmit") == 1
    # with no route to the destination there is nothing left to try
    n1.recompute_routes(apply_fault(chain_view(), Change.node_down("5")),
                        now=150.0)
    before = sum(held(hop.port) for hop in n1.hops.values())
    fx = n1.handle_timer(("rel", "5", 1), None, 300.0)
    assert not transmits(fx)
    assert sum(held(hop.port) for hop in n1.hops.values()) == before
    assert [e.timer_id for e in fx if isinstance(e, SetTimer)] == [
        ("rel", "5", 1)]
    assert n1.counters.get("rel_retransmit") == 1
    assert "rel_reflood" not in n1.counters
    assert "rel_stranded" not in n1.counters


def test_rel_resend_n_of_a_message_or_ack_takes_pool_route_n():
    def pool_first_hops(src, dst):
        return [path.hops[1] for path in
                k_disjoint_paths(chain_view(), src, dst, REL_ROUTE_POOL)]

    def sent(effects):
        return sorted(t.neighbor for t in transmits(effects))

    assert pool_first_hops("1", "5") == ["12", "9", "6", "2"]
    assert pool_first_hops("5", "1") == ["14", "11", "7", "3"]
    flood = ["12", "2", "6", "9"]
    # retransmit n takes pool route n, so the first one leaves the original
    # send's route; every third one of a routed message floods
    for k in (1, 2):
        n1 = node("1")
        n1.client_send("5", b"m", ServiceClass(REL, k), now=0.0)
        assert [sent(n1.handle_timer(("rel", "5", 1), None, 100.0 * attempt))
                for attempt in range(1, 7)] == [
            ["9"], ["6"], flood, ["12"], ["9"], flood]
        assert n1.counters == {"rel_retransmit": 4, "rel_reflood": 2}
    # a flooded message never floods again
    n1 = node("1")
    n1.client_send("5", b"m", ServiceClass(REL, FLOODING), now=0.0)
    assert [sent(n1.handle_timer(("rel", "5", 1), None, 100.0 * attempt))
            for attempt in range(1, 5)] == [["9"], ["6"], ["2"], ["12"]]
    # the first ack takes the reversed arrival route, and the ack after n
    # earlier ones pool route n
    n5 = node("5")
    data = routed_frame("1", "5", ("1", "12", "13", "14", "5"),
                        service=SERVICE_REL)
    acks = [transmits(n5.handle_frame("14", data, 10.0 * i)) for i in range(5)]
    assert [[t.neighbor for t in tx] for tx in acks] == [
        ["14"], ["11"], ["7"], ["3"], ["14"]]
    assert acks[0][0].frame.routes == (("5", "14", "13", "12", "1"),)


def test_rel_gives_up_after_max_retries():
    n1 = node("1")
    n1.client_send("5", b"m", ServiceClass(REL, 1), now=0.0)
    for attempt in range(1, REL_MAX_RETRIES + 1):
        n1.handle_timer(("rel", "5", 1), None, float(attempt))
    fx = n1.handle_timer(("rel", "5", 1), None, REL_MAX_RETRIES + 1.0)
    assert n1.counters["rel_failed"] == 1
    assert not n1.rel_pending
    assert not transmits(fx)


# --- adversaries ---------------------------------------------------------------------

def test_drop_all_behavior_blackholes():
    n13 = node("13")
    n13.behavior = Behavior.drop_all()
    frame = routed_frame("1", "5", ("1", "12", "13", "14", "5"))
    fx = n13.handle_frame("12", frame, 0.0)
    assert not transmits(fx)
    assert n13.counters == {"adversarial": 1}


def test_drop_flow_is_selective():
    n13 = node("13")
    n13.behavior = Behavior.drop_flow("1", "5")
    hit = routed_frame("1", "5", ("1", "12", "13", "14", "5"))
    miss = routed_frame("9", "5", ("9", "12", "13", "14", "5"))
    assert not transmits(n13.handle_frame("12", hit, 0.0))
    assert n13.counters == {"adversarial": 1}
    assert transmits(n13.handle_frame("12", miss, 0.0))
    assert n13.counters == {"adversarial": 1}


def test_delay_behavior_defers_processing():
    n13 = node("13")
    n13.behavior = Behavior.delay(50.0)
    frame = routed_frame("1", "5", ("1", "12", "13", "14", "5"))
    fx = n13.handle_frame("12", frame, 0.0)
    assert not transmits(fx)
    timers = [e for e in fx if isinstance(e, SetTimer)]
    assert timers and timers[0].delay_ms == 50.0
    fx = n13.handle_timer(timers[0].timer_id, timers[0].data, 50.0)
    assert transmits(fx)


# --- view updates --------------------------------------------------------------------

def test_recompute_purges_flood_copies_on_dead_link():
    n1 = node("1")
    n1.client_send("5", b"x", ServiceClass(PRI, 0), now=0.0)
    assert len(n1.hops["12"].port) > 0
    down = apply_fault(chain_view(), Change.link_down("1", "12"))
    n1.recompute_routes(down, now=1.0)
    assert n1.counters == {"link_down": 1}
    assert len(n1.hops["12"].port) == 0


def test_recompute_restamps_routed_frames():
    n1 = node("1")
    n1.client_send("5", b"x", ServiceClass(PRI, 1), now=0.0)
    assert len(n1.hops["12"].port) > 0
    down = apply_fault(chain_view(), Change.link_down("1", "12"))
    fx = n1.recompute_routes(down, now=1.0)
    tx = transmits(fx)
    assert len(tx) == 1 and tx[0].neighbor == "9"
    assert tx[0].frame.routes[0] == ("1", "9", "10", "11", "5")


def test_a_link_back_up_starts_with_fresh_hop_state():
    n12 = node("12")
    wire_frames(n12, "13", 3)
    gap = Frame(kind=KIND_HOP_DATA, src="1", dst="12", seq=4,
                inner=routed_frame("1", "5", ("1", "12", "13", "14", "5")))
    n12.handle_frame("1", gap, 3.0)
    assert n12.hops["1"].missing and n12.hops["13"].next_seq == 3
    down = chain_view()
    for a, b in [("12", "13"), ("1", "12")]:
        down = apply_fault(down, Change.link_down(a, b))
    # both links go down: their records start afresh, and the cancels of
    # their timers lead the effects
    fx = n12.recompute_routes(down, 4.0)
    assert fx[:6] == [CancelTimer(("ann", "1")), CancelTimer(("nack", "1")),
                      CancelTimer(("ack", "1")),
                      CancelTimer(("ann", "13")), CancelTimer(("nack", "13")),
                      CancelTimer(("ack", "13"))]
    assert not [e for e in fx[6:] if isinstance(e, CancelTimer)]
    for nbr in ("1", "13"):
        hop = n12.hops[nbr]
        assert (hop.next_seq, hop.announce_round, hop.confirmed,
                hop.expected, hop.acked, hop.nack_armed,
                hop.nack_round) == (0, 0, -1, 0, -1, False, 0)
        assert not hop.cache and not hop.missing and not hop.port
    # a restarted neighbour's first frame, seq 0, arrives before the view
    # that brings its link back, and is no duplicate
    first = Frame(kind=KIND_HOP_DATA, src="1", dst="12", seq=0,
                  inner=routed_frame("1", "5", ("1", "12", "13", "14", "5"),
                                     service=SERVICE_REL, seq=2))
    before = dict(n12.counters)
    n12.handle_frame("1", first, 5.0)
    assert n12.counters == {**before, "parked": before.get("parked", 0) + 1}
    assert len(n12.parked) == 1
    # both links come back: nothing is reset or cancelled, and the parked
    # frame is the first on its link
    fx = n12.recompute_routes(chain_view(), 6.0)
    assert not [e for e in fx if isinstance(e, CancelTimer)]
    assert [t.neighbor for t in transmits(fx)] == ["13"]
    assert n12.hops["1"].expected == 1
    assert n12.wrap_for_link(transmits(fx)[0].frame, "13", 6.0, []).seq == 0


def test_replay_cache_lookup_by_seq(monkeypatch):
    monkeypatch.setattr(overlay, "HOP_CACHE_FRAMES", 3)
    view = build_view("AB", [("A", "B", 2.0)])
    a = NodeState("A", view)
    wires = wire_frames(a, "B", 5)      # stored at 0..4 ms; 0 and 1 evicted
    tx = a.hops["B"]
    assert (len(tx.cache), tx.next_seq) == (3, 5)
    assert [tx.lookup(s, 5.0) for s in range(7)] == [
        None, None, wires[2], wires[3], wires[4], None, None]
    # past the expiry horizon of the frames stored at 2 and 3 ms
    now = 3.5 + HOP_CACHE_EXPIRY_MS
    assert tx.lookup(3, now) is None
    assert len(tx.cache) == 1
    assert tx.lookup(4, now) is wires[4]
    assert tx.lookup(4, now + 1.0) is None
    assert not tx.cache and tx.next_seq == 5
    # a frame wrapped after the cache emptied is found under its own seq
    fx = []
    late = a.wrap_for_link(wires[0].inner, "B", now + 2.0, fx)
    assert late.seq == 5 and tx.lookup(5, now + 2.0) is late


def test_wrap_arms_the_announce_timer_once_per_idle_period():
    a, _b = pair()
    port = a.hops["B"].port
    # the tail probe: the ack delay plus the re-nack interval, 2.5 x 2 ms
    probe = SetTimer(("ann", "B"), ACK_DELAY_MS + 5.0)

    def data(seq, deadline_us=0):
        return Frame(kind=KIND_DATA, service=SERVICE_PRI, k=1, src="A",
                     dst="B", seq=seq, deadline_us=deadline_us,
                     routes=(("A", "B"),))

    def send(now):
        """Dequeue and wrap like the engine; return the timers armed."""
        frame, fx = a.scheduler_dequeue("B", now)
        if frame is not None:
            a.wrap_for_link(frame, "B", now, fx)
        return [e for e in fx if isinstance(e, SetTimer)]

    for seq in (1, 2, 3):
        port.enqueue(data(seq))
    # data still waits behind the wrapped frame: nothing is armed
    assert send(0.0) == send(0.5) == []
    # a timer that fires while data waits does nothing
    assert announce(a, "B", 0.7) == (None, None)
    # the wrap that empties the port arms the probe, and only its frame asks
    # for a confirm
    assert send(1.0) == [probe]
    assert [w.k for w, _ in a.hops["B"].cache] == [0, 0, HOP_ACK_REQ]
    # a waiting control frame does not hold the announce back
    port.enqueue_control(Frame(kind=KIND_HOP_NACK, k=HOP_CONFIRM, src="A",
                               dst="B", seq=0))
    sent, backoff = announce(a, "B", 8.0)
    assert sent.k == HOP_ANNOUNCE and sent.seq == 2
    assert backoff.delay_ms == 5.0
    # control frames leave without arming anything
    assert send(8.5) == send(8.6) == [] and not port.control
    # a frame wrapped during the back-off wait arms the probe, which
    # supersedes the wait
    port.enqueue(data(4))
    assert send(9.0) == [probe]
    assert announce(a, "B", 16.0)[0].seq == 3
    assert send(16.5) == [] and not port.queued
    # the port empties by a deadline drop, with no wrap: the dequeue arms it
    port.enqueue(data(5))
    port.enqueue(data(6, deadline_us=1))
    assert send(17.0) == []
    assert send(18.0) == [probe]
    assert a.counters["deadline_expired"] == 1
    assert announce(a, "B", 25.0)[0].seq == 4


# --- delayed confirm: the frame that empties the port asks for one -------------

def acks(effects):
    return [e for e in effects if isinstance(e, SetTimer)
            and e.timer_id[0] == "ack"]


def test_unflagged_frames_arm_no_ack_timer():
    a, b = pair()
    port = a.hops["B"].port
    for seq in (1, 2):
        port.enqueue(Frame(kind=KIND_DATA, service=SERVICE_PRI, k=1, src="A",
                           dst="B", seq=seq, routes=(("A", "B"),)))
    wires = []
    for now in (0.0, 0.5):
        frame, fx = a.scheduler_dequeue("B", now)
        wires.append(a.wrap_for_link(frame, "B", now, fx))
    assert [w.k for w in wires] == [0, HOP_ACK_REQ]
    assert not acks(b.handle_frame("A", wires[0], 2.0))
    assert acks(b.handle_frame("A", wires[1], 2.5)) == [
        SetTimer(("ack", "A"), ACK_DELAY_MS)]


def test_ack_timer_confirms_every_frame_up_to_the_high_water():
    a, b = pair()
    for w in wire_frames(a, "B", 3):
        b.handle_frame("A", w, 2.0)
    confirm = transmits(b.handle_timer(("ack", "A"), None, 4.0))[0].frame
    assert confirm.kind == KIND_HOP_NACK and confirm.k == HOP_CONFIRM
    assert confirm.seq == 2 and confirm.payload == b""
    assert a.handle_frame("B", confirm, 6.0) == [CancelTimer(("ann", "B"))]
    assert a.hops["B"].confirmed == 2
    assert announce(a, "B", 9.0) == (None, None)


def test_ack_timer_over_a_gap_sends_no_confirm():
    a, b = pair()
    wires = wire_frames(a, "B", 3)
    b.handle_frame("A", wires[0], 2.0)
    fx = b.handle_frame("A", wires[2], 2.5)      # wire 1 is lost
    assert acks(fx) and [e for e in fx if isinstance(e, SetTimer)
                         and e.timer_id == ("nack", "A")]
    # the nack timer armed by the gap answers, and the ack timer stays quiet
    nack = transmits(b.handle_timer(("nack", "A"), None, 3.5))[0].frame
    assert nack.payload and nack.k != HOP_CONFIRM
    assert not b.handle_timer(("ack", "A"), None, 4.5)


def test_lost_confirm_ends_in_announce_and_confirm():
    a, b = pair()
    wire = wire_frames(a, "B", 1)[0]
    assert acks(b.handle_frame("A", wire, 2.0))
    # B's confirm leaves and is lost on the way
    assert transmits(b.handle_timer(("ack", "A"), None, 4.0))
    # no confirm came: A's tail probe announces, and B confirms again
    sent, rearm = announce(a, "B", 7.0)
    assert sent.k == HOP_ANNOUNCE and sent.seq == 0 and rearm is not None
    confirm = transmits(b.handle_frame("A", sent, 9.0))[0].frame
    assert confirm.k == HOP_CONFIRM and confirm.seq == 0
    assert a.handle_frame("B", confirm, 11.0) == [CancelTimer(("ann", "B"))]
    assert announce(a, "B", 12.0) == (None, None)


# --- an owed confirm rides reverse data ------------------------------------------

def reverse(b, now, count=1):
    """B wraps `count` data frames back toward A, like the engine would."""
    wires = []
    for i in range(count):
        inner = Frame(kind=KIND_DATA, service=SERVICE_PRI, k=1, src="B",
                      dst="A", seq=i + 1, routes=(("B", "A"),), payload=b"r")
        wires.append(b.wrap_for_link(inner, "A", now, []))
    return wires


def test_reverse_data_carries_the_owed_confirm():
    a, b = pair()
    wire = wire_frames(a, "B", 1)[0]
    assert wire.k == HOP_ACK_REQ and wire.deadline_us == 0
    assert acks(b.handle_frame("A", wire, 2.0))
    # B sends data back before its ack timer fires: the wrapper confirms seq 0
    back = reverse(b, 3.0)[0]
    assert back.deadline_us == 1 and b.hops["A"].acked == 0
    fx = a.handle_frame("B", back, 5.0)
    assert CancelTimer(("ann", "B")) in fx
    assert a.hops["B"].confirmed == 0
    assert [e for e in fx if isinstance(e, Deliver)]
    # the ack timer finds the confirm given, and the tail probe is off
    assert b.handle_timer(("ack", "A"), None, 4.0) == []
    assert announce(a, "B", 9.0) == (None, None)


def test_a_lost_piggyback_ends_in_announce_and_confirm():
    a, b = pair()
    b.handle_frame("A", wire_frames(a, "B", 1)[0], 2.0)
    assert reverse(b, 3.0)[0].deadline_us == 1     # and it is lost
    assert not transmits(b.handle_timer(("ack", "A"), None, 4.0))
    sent, _ = announce(a, "B", 9.0)
    assert sent.k == HOP_ANNOUNCE and sent.seq == 0
    confirm = transmits(b.handle_frame("A", sent, 11.0))[0].frame
    assert confirm.k == HOP_CONFIRM and confirm.seq == 0
    assert a.handle_frame("B", confirm, 13.0) == [CancelTimer(("ann", "B"))]
    assert a.hops["B"].confirmed == 0


@pytest.mark.parametrize("tail", [False, True])
def test_a_gap_fill_confirms_nothing(tail):
    """A retransmitted wrapper is a replay: after a reset of the link its ack
    could name frames of the new numbering.  That holds for a gap a later
    frame exposed and for a trailing loss an announce exposed."""
    a, b = pair()
    b.handle_frame("A", wire_frames(a, "B", 1)[0], 2.0)
    wires = reverse(b, 3.0, 1 if tail else 2)
    assert [w.deadline_us for w in wires] == [1, 0][:len(wires)]
    # wires[0] is lost
    if tail:
        sent, _ = announce(b, "A", 12.0)
        a.handle_frame("B", sent, 14.0)
    else:
        a.handle_frame("B", wires[1], 4.0)
    assert sorted(a.hops["B"].missing) == [0]
    nack = transmits(a.handle_timer(("nack", "B"), None, 15.0))[0].frame
    replay = transmits(b.handle_frame("A", nack, 16.0))[0].frame
    assert replay is wires[0]
    fx = a.handle_frame("B", replay, 17.0)
    assert [e for e in fx if isinstance(e, Deliver)]
    assert not a.hops["B"].missing
    assert a.hops["B"].confirmed == -1
    assert not [e for e in fx if isinstance(e, CancelTimer)]


def test_a_wrapper_with_nothing_owed_carries_zero():
    a, b = pair()
    # nothing received yet
    assert reverse(b, 1.0)[0].deadline_us == 0
    wires = wire_frames(a, "B", 3)
    b.handle_frame("A", wires[0], 2.0)
    # the confirm rides the first wrapper only
    assert [w.deadline_us for w in reverse(b, 3.0, 2)] == [1, 0]
    # a gap is open: the nack answers, not an ack
    b.handle_frame("A", wires[2], 4.0)
    assert b.hops["A"].missing and reverse(b, 5.0)[0].deadline_us == 0
    # an explicit confirm leaves nothing owed either
    b.handle_frame("A", wires[1], 6.0)
    assert transmits(b.handle_timer(("ack", "A"), None, 8.0))
    assert b.hops["A"].acked == 2
    assert reverse(b, 9.0)[0].deadline_us == 0


def test_a_wrapper_that_carries_the_confirm_cancels_the_ack_timer():
    a, b = pair()
    wires = wire_frames(a, "B", 2)
    assert acks(b.handle_frame("A", wires[0], 2.0))
    inner = Frame(kind=KIND_DATA, service=SERVICE_PRI, k=1, src="B", dst="A",
                  seq=1, routes=(("B", "A"),), payload=b"r")
    fx = []
    assert b.wrap_for_link(inner, "A", 3.0, fx).deadline_us == 1
    assert CancelTimer(("ack", "A")) in fx
    # nothing is owed now, so the next wrapper leaves the timer alone
    fx = []
    assert b.wrap_for_link(replace(inner, seq=2), "A", 3.5, fx).deadline_us == 0
    assert CancelTimer(("ack", "A")) not in fx
    # a later flagged frame owes a confirm again, and the timer is armed anew
    assert acks(b.handle_frame("A", wires[1], 4.0))
