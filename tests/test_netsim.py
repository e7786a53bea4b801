import heapq
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import replace

import pytest

from helpers import _Pump, _Sink, _random_lossy_world, data_file
from spon import netsim
from spon.netsim import (
    HOP_PROCESSING_MS,
    AsUnderlay,
    Client,
    Engine,
    EngineOverrun,
    FaultEvent,
    RawLink,
    _EV_TIMER,
    _EV_TX_DONE,
    meltdown_schedule,
    pack_client,
    unpack_client,
)
from spon.frames import (
    HOP_ACK_REQ,
    HOP_CONFIRM,
    KIND_HOP_DATA,
    KIND_HOP_NACK,
)
from spon.overlay import (
    ACK_DELAY_MS,
    ANNOUNCE_RETRIES,
    DEFAULT_RTT_MS,
    HOP_CACHE_EXPIRY_MS,
    PRI,
    REL,
    RENACK_ROUNDS,
    Config,
    NodeState,
    ServiceClass,
    SetTimer,
)
from spon.topology import (Change, Topology, TopologyView, k_disjoint_paths,
                           load_topology, parse_topology)

CHAIN = data_file("chain.topo")
BGP = data_file("bgp.topo")
GLOBAL = data_file("global.topo")


def two_node(loss=0.0, latency=5.0, bw=100.0) -> Topology:
    return parse_topology(
        f"node A\nnode B\nlink A B latency_ms={latency} loss={loss} bw_mbps={bw}\n"
        "attach ca A\nattach cb B\n")


class Collector(Client):
    """Counts deliveries; optionally echoes each body back."""

    def __init__(self, client_id, echo=False):
        super().__init__(client_id)
        self.echo = echo
        self.bodies = []
        self.times = []
        self.raw_bodies = []

    def on_deliver(self, src_client, body, wire_bytes, api):
        self.bodies.append(body)
        self.times.append(api.now)
        if self.echo:
            api.send(self.client_id, src_client, b"re:" + body,
                     ServiceClass(PRI, 1))

    def on_raw(self, src_client, body, api):
        self.raw_bodies.append(body)


class Scripted(Client):
    """Calls each action(api) at its time; records what each returns."""

    def __init__(self, client_id, actions):
        super().__init__(client_id)
        self.actions = actions
        self.results = []

    def on_start(self, api):
        for i, (at_ms, _action) in enumerate(self.actions):
            api.set_timer(self.client_id, ("act", i), at_ms)

    def on_timer(self, timer_id, data, api):
        self.results.append(self.actions[timer_id[1]][1](api))


class Burst(Client):
    """Sends `count` messages at start, all at once."""

    def __init__(self, client_id, dst, count, service, body=b"m",
                 deadline_ms=None):
        super().__init__(client_id)
        self.dst = dst
        self.count = count
        self.service = service
        self.body = body
        self.deadline_ms = deadline_ms
        self.sent = 0

    def on_start(self, api):
        for i in range(self.count):
            ok = api.send(self.client_id, self.dst,
                          self.body + str(i).encode(), self.service,
                          deadline_ms=self.deadline_ms)
            if ok:
                self.sent += 1


# --- envelope -----------------------------------------------------------------

def test_an_over_long_client_id_is_refused_on_every_send():
    long_id = "c" * 256
    topo = parse_topology(
        "node A\nnode B\nlink A B latency_ms=5 loss=0 bw_mbps=100\n"
        f"attach ca A\nattach {long_id} B\n")
    eng = Engine(topo, [], seed=1)
    for src, dst in (("ca", long_id), ("ca", long_id), (long_id, "ca")):
        with pytest.raises(ValueError, match="client id too long"):
            eng.client_send(src, dst, b"x", ServiceClass(PRI, 1))
    # refused before the relay numbered or queued anything
    assert not eng.nodes["A"].seq_counters
    assert all(hop.next_seq == 0 and not hop.port
               for hop in eng.nodes["A"].hops.values())
    assert not eng.nodes["B"].seq_counters


def test_envelope_roundtrip():
    packed = pack_client("dst", "src", b"body")
    assert unpack_client(packed) == ("dst", "src", b"body")
    assert unpack_client(pack_client("a", "b", b"")) == ("a", "b", b"")


def test_envelope_rejects_garbage():
    with pytest.raises(ValueError):
        unpack_client(b"")
    with pytest.raises(ValueError):
        unpack_client(bytes([200]) + b"short")
    with pytest.raises(ValueError):
        pack_client("x" * 300, "s", b"")


# --- basic delivery ------------------------------------------------------------

def test_ping_pong_latency_on_chain():
    topo = load_topology(CHAIN)
    c1 = Burst("c1", "c5", 1, ServiceClass(PRI, 1), body=b"ping")
    c5 = Collector("c5", echo=True)
    back = Collector("c1")
    # a client id can only be bound once; use the Burst for sending and
    # attach the reply collector by routing c5's echo to "c1"
    class Both(Burst):
        def __init__(self):
            super().__init__("c1", "c5", 1, ServiceClass(PRI, 1), body=b"ping")
            self.replies = []
        def on_deliver(self, src_client, body, wire_bytes, api):
            self.replies.append((api.now, body))
    sender = Both()
    eng = Engine(topo, [sender, c5], seed=7)
    eng.run(horizon_ms=1000.0)
    assert c5.bodies == [b"ping0"]
    assert len(sender.replies) == 1
    rtt = sender.replies[0][0]
    # two 16 ms trips plus serialization and per-hop processing on 4 hops each way
    assert 32.0 < rtt < 34.0
    assert sender.replies[0][1] == b"re:ping0"


def test_flooding_delivers_once():
    topo = load_topology(CHAIN)
    sender = Burst("c1", "c5", 10, ServiceClass(PRI, 0))
    sink = Collector("c5")
    eng = Engine(topo, [sender, sink], seed=3)
    eng.run(horizon_ms=2000.0)
    assert len(sink.bodies) == 10
    assert len(set(sink.bodies)) == 10


class PacedSender(Client):
    """Sends `per_tick` messages every `tick_ms` until `total` are out."""

    def __init__(self, client_id, dst, total, per_tick, tick_ms, service,
                 deadline_ms=None):
        super().__init__(client_id)
        self.dst = dst
        self.total = total
        self.per_tick = per_tick
        self.tick_ms = tick_ms
        self.service = service
        self.deadline_ms = deadline_ms
        self.sent = 0

    def on_start(self, api):
        api.set_timer(self.client_id, ("tick",), 0.0)

    def on_timer(self, timer_id, data, api):
        for _ in range(self.per_tick):
            if self.sent >= self.total:
                return
            api.send(self.client_id, self.dst, b"m%d" % self.sent,
                     self.service, deadline_ms=self.deadline_ms)
            self.sent += 1
        api.set_timer(self.client_id, ("tick",), self.tick_ms)


def test_loss_rate_matches_configuration():
    topo = two_node(loss=0.05)
    sender = PacedSender("ca", "cb", 10_000, per_tick=100, tick_ms=1.0,
                         service=ServiceClass(PRI, 1), deadline_ms=60_000)
    sink = Collector("cb")
    eng = Engine(topo, [sender, sink], seed=11)
    eng.run(horizon_ms=60_000.0)
    tx = eng.counters["wire_tx"]
    lost = eng.counters.get("wire_lost", 0)
    assert tx >= 10_000
    assert abs(lost / tx - 0.05) < 0.01
    # hop-by-hop recovery repairs every gap on a single link
    assert len(sink.bodies) == 10_000
    assert len(set(sink.bodies)) == 10_000


def test_determinism_same_seed_identical_runs():
    def run_once():
        topo = load_topology(CHAIN)
        faults = [FaultEvent(40.0, change=Change.loss_override("12", "13", 0.2))]
        sender = Burst("c1", "c5", 200, ServiceClass(REL, 2), deadline_ms=5000)
        sink = Collector("c5")
        eng = Engine(topo, [sender, sink], seed=42, faults=faults, trace=True)
        eng.run(horizon_ms=30_000.0)
        return eng.counters, eng.trace_rows, [b for b in sink.bodies]

    first = run_once()
    second = run_once()
    assert first == second


def test_different_seed_changes_loss_pattern():
    def lost(seed):
        topo = two_node(loss=0.1)
        sender = Burst("ca", "cb", 500, ServiceClass(PRI, 1), deadline_ms=5000)
        eng = Engine(topo, [sender, Collector("cb")], seed=seed,
                     config=Config(buffer_capacity=1000))
        eng.run(horizon_ms=10_000.0)
        return eng.counters.get("wire_lost", 0)

    assert lost(1) != lost(2)


# --- reliable service end to end --------------------------------------------------

def test_rel_survives_heavy_loss():
    topo = load_topology(CHAIN)
    faults = [FaultEvent(0.0, change=Change.loss_override("12", "13", 0.3))]
    sender = Burst("c1", "c5", 50, ServiceClass(REL, 1))
    sink = Collector("c5")
    eng = Engine(topo, [sender, sink], seed=5, faults=faults)
    eng.run(horizon_ms=60_000.0)
    assert len(set(sink.bodies)) == 50
    assert "rel_failed" not in eng.counters


# --- faults -------------------------------------------------------------------------

@pytest.mark.parametrize("faults", [
    [FaultEvent(1.0, change=Change.link_down("A", "B"))],
    # back up long before the frame lands at 50 ms: only the epoch it left
    # in can tell that the link went down under it
    [FaultEvent(1.0, change=Change.link_down("A", "B")),
     FaultEvent(2.0, change=Change.link_up("A", "B"))],
    [FaultEvent(1.0, change=Change.node_down("B")),
     FaultEvent(2.0, change=Change.node_up("B"))],
], ids=["link_down", "link_flap", "node_restart"])
def test_inflight_frame_dies_with_link(faults):
    topo = two_node(latency=50.0)
    sender = Burst("ca", "cb", 1, ServiceClass(PRI, 1))
    sink = Collector("cb")
    eng = Engine(topo, [sender, sink], seed=1, faults=faults)
    eng.run(horizon_ms=5000.0)
    assert sink.bodies == []
    assert eng.counters.get("inflight_lost", 0) == 1


def test_node_restart_resets_link_state():
    topo = two_node(latency=2.0)

    class Paced(Client):
        def __init__(self):
            super().__init__("ca")
            self.sent = 0
        def on_start(self, api):
            api.set_timer("ca", ("tick",), 0.0)
        def on_timer(self, timer_id, data, api):
            if self.sent < 10:
                api.send("ca", "cb", b"n%d" % self.sent, ServiceClass(PRI, 1))
                self.sent += 1
                api.set_timer("ca", ("tick",), 400.0)

    sink = Collector("cb")
    faults = [FaultEvent(1000.0, change=Change.node_down("B")),
              FaultEvent(1500.0, change=Change.node_up("B"))]
    eng = Engine(topo, [Paced(), sink], seed=9, faults=faults)
    eng.run(horizon_ms=10_000.0)
    # sends at 0..3600 ms; the ones in the dead or not-yet-propagated window die
    assert len(sink.bodies) >= 7
    # traffic after the restart flows again
    assert any(t > 1700.0 for t in sink.times)


def test_send_from_a_downed_relay_fails_until_it_is_back():
    def send(api):
        return api.send("c1", "c5", b"at%d" % api.now, ServiceClass(PRI, 1))

    sender = Scripted("c1", [(50.0, send), (500.0, send)])
    sink = Collector("c5")
    faults = [FaultEvent(10.0, change=Change.node_down("1")),
              FaultEvent(300.0, change=Change.node_up("1"))]
    eng = Engine(load_topology(CHAIN), [sender, sink], seed=1, faults=faults)
    eng.run(horizon_ms=2000.0)
    assert sender.results == [False, True]
    assert eng.counters["send_node_down"] == 1
    assert sink.bodies == [b"at500"]


def test_meltdown_schedule_layout():
    ev = meltdown_schedule(["2", "7"], start_ms=100.0, down_ms=50.0,
                           up_ms=150.0, cycles=2)
    assert len(ev) == 8
    assert [e.time_ms for e in ev] == [100.0, 100.0, 150.0, 150.0,
                                       300.0, 300.0, 350.0, 350.0]
    assert ev[0].change.kind == "node_down" and ev[2].change.kind == "node_up"


def test_event_cap_aborts_runaway(monkeypatch):
    monkeypatch.setattr(netsim, "EVENT_CAP", 50)
    topo = two_node()
    sender = Burst("ca", "cb", 500, ServiceClass(PRI, 1), deadline_ms=5000)
    eng = Engine(topo, [sender, Collector("cb")], seed=1)
    with pytest.raises(EngineOverrun):
        eng.run(horizon_ms=10_000.0)


def test_horizon_stops_periodic_timers():
    topo = two_node()

    class Ticker(Client):
        def __init__(self):
            super().__init__("ca")
            self.ticks = 0
        def on_start(self, api):
            api.set_timer("ca", ("t",), 10.0)
        def on_timer(self, timer_id, data, api):
            self.ticks += 1
            api.set_timer("ca", ("t",), 10.0)

    t = Ticker()
    eng = Engine(topo, [t, Collector("cb")], seed=1)
    eng.run(horizon_ms=100.0)
    assert t.ticks == 10


def armed_entries_are_live(eng):
    """Every armed timer's record names a heap entry that is still to fire."""
    live = {(seq, timer) for _t, seq, kind, timer in eng._heap
            if kind == _EV_TIMER}
    return all((timer.seq, timer) in live
               for timer in eng._timer_gen.values())


def test_timer_table_holds_only_armed_timers():
    topo = load_topology(CHAIN)
    sender = Burst("c1", "c5", 200, ServiceClass(REL, 1))
    sink = Collector("c5")
    faults = [FaultEvent(0.0, change=Change.loss_override("12", "13", 0.2)),
              FaultEvent(2000.0, change=Change.node_down("9"))]
    eng = Engine(topo, [sender, sink], seed=5, faults=faults)
    eng.run(horizon_ms=30_000.0)
    assert len(set(sink.bodies)) == 200
    # 200 acked messages, each with its own retransmit timer, leave no entry
    assert len(eng._timer_gen) == 0
    assert armed_entries_are_live(eng)


def test_timer_table_matches_heap_when_the_horizon_cuts_the_run():
    topo = load_topology(CHAIN)
    sender = Burst("c1", "c5", 50, ServiceClass(REL, 1))
    eng = Engine(topo, [sender, Collector("c5")], seed=5,
                 faults=[FaultEvent(5.0, change=Change.node_down("12"))])

    def relay_12_timers():
        return [timer for timer in eng._timer_gen.values()
                if timer.owner == ("n", "12")]

    eng.run(horizon_ms=4.9)
    # the relay has hop timers armed before it goes down
    assert relay_12_timers()
    assert all(timer.key is None for timer in relay_12_timers())
    # some of the 50 messages are still unacked at 100 ms
    eng.run(horizon_ms=100.0)
    assert eng._timer_gen and armed_entries_are_live(eng)
    # the dead relay's timers were dropped with it
    assert not relay_12_timers()


def test_rearmed_or_cancelled_timer_fires_only_its_last_arming():
    topo = two_node()

    class Rearm(Client):
        def __init__(self):
            super().__init__("ca")
            self.fired = []
        def on_start(self, api):
            api.set_timer("ca", ("t",), 10.0, data="stale")
            api.set_timer("ca", ("t",), 30.0, data="live")
            api.set_timer("ca", ("gone",), 20.0)
            api.cancel_timer("ca", ("gone",))
        def on_timer(self, timer_id, data, api):
            self.fired.append((api.now, timer_id, data))

    client = Rearm()
    eng = Engine(topo, [client, Collector("cb")], seed=1)
    eng.run(horizon_ms=100.0)
    assert client.fired == [(30.0, ("t",), "live")]
    assert not eng._timer_gen


class Arming(Client):
    """Runs each (delay, timer id, data) arming, or ("cancel", timer id), at
    start; records each firing as (time, timer id, data)."""

    def __init__(self, armings):
        super().__init__("ca")
        self.armings = armings
        self.fired = []

    def on_start(self, api):
        for arming in self.armings:
            if arming[0] == "cancel":
                api.cancel_timer("ca", arming[1])
            else:
                api.set_timer("ca", arming[1], arming[0], data=arming[2])

    def on_timer(self, timer_id, data, api):
        self.fired.append((api.now, timer_id, data))


def timer_entries(eng):
    return [entry for entry in eng._heap if entry[2] == _EV_TIMER]


def test_timer_rearmed_later_fires_once_at_its_last_arming():
    client = Arming([(10.0, ("t",), "first"), (30.0, ("u",), "between")]
                    + [(12.0 + i, ("t",), i) for i in range(17)]
                    + [(30.0, ("t",), "last")])
    eng = Engine(two_node(), [client, Collector("cb")], seed=1)
    eng.run(horizon_ms=5.0)
    # one heap entry per arming: "u" and the 19 armings of "t"
    assert len(timer_entries(eng)) == 20
    # armed after the last arming of "t", before its first entry pops at 10
    eng.set_timer(("c", "ca"), ("w",), 30.0 - eng.now, "after")
    eng.run(horizon_ms=100.0)
    # same instant: each fires in the order it was last armed
    assert client.fired == [(30.0, ("u",), "between"), (30.0, ("t",), "last"),
                            (30.0, ("w",), "after")]
    assert not eng._timer_gen


def test_timer_rearmed_earlier_fires_early_and_once():
    client = Arming([(30.0, ("t",), "late"), (20.0, ("v",), "v"),
                     (10.0, ("t",), "early")])
    eng = Engine(two_node(), [client, Collector("cb")], seed=1)
    eng.run(horizon_ms=100.0)
    assert client.fired == [(10.0, ("t",), "early"), (20.0, ("v",), "v")]
    assert eng.pops == 5     # two client starts, two firings, one dead entry


@pytest.mark.parametrize("delay", [5.0, 10.0, 20.0])
def test_timer_cancelled_then_rearmed_fires_only_the_new_arming(delay):
    client = Arming([(10.0, ("t",), "old"), ("cancel", ("t",)),
                     (delay, ("t",), "new")])
    eng = Engine(two_node(), [client, Collector("cb")], seed=1)
    eng.run(horizon_ms=0.0)
    assert len(timer_entries(eng)) == 2      # the old entry is still there
    eng.run(horizon_ms=100.0)
    assert client.fired == [(delay, ("t",), "new")]
    assert eng.pops == 4     # two client starts, the firing, one dead entry


@pytest.mark.parametrize("rearm_ms", [None, 200.0])
def test_clock_ends_at_the_last_event_that_acted(rearm_ms):
    # ("t",) is armed for 50 ms; at 10 ms it is cancelled, or re-armed past
    # the horizon, so its entry pops at 50 ms dead
    class Stopper(Client):
        def on_start(self, api):
            api.set_timer("ca", ("t",), 50.0)
            api.set_timer("ca", ("stop",), 10.0)

        def on_timer(self, timer_id, data, api):
            if rearm_ms is None:
                api.cancel_timer("ca", ("t",))
            else:
                api.set_timer("ca", ("t",), rearm_ms)

    eng = Engine(two_node(), [Stopper("ca"), Collector("cb")], seed=1)
    eng.run(horizon_ms=100.0)
    assert eng.pops == 4     # two client starts, the stop, the entry at 50
    assert eng.now == 10.0


@pytest.mark.parametrize("faults", [(), ("down",), ("down", "up")])
def test_timer_of_a_retired_relay_never_fires(monkeypatch, faults):
    fired = []
    monkeypatch.setattr(NodeState, "handle_timer",
                        lambda self, timer_id, data, now:
                        fired.append((self.id, timer_id, now)) or [])
    changes = {"down": FaultEvent(15.0, change=Change.node_down("B")),
               "up": FaultEvent(17.0, change=Change.node_up("B"))}
    eng = Engine(two_node(), [Collector("ca"), Collector("cb")], seed=1,
                 faults=[changes[name] for name in faults])
    owner = ("n", "B")
    eng.set_timer(owner, ("probe",), 10.0)
    eng.set_timer(owner, ("probe",), 20.0)
    eng.run(horizon_ms=12.0)
    # the entry due at 10 popped dead; the last arming's entry is due at 20
    armed = eng._timer_gen[(owner, ("probe",))]
    assert [entry for entry in eng._heap if entry[3] is armed] \
        == [(20.0, armed.seq, _EV_TIMER, armed)]
    eng.run(horizon_ms=100.0)
    assert fired == ([] if faults else [("B", ("probe",), 20.0)])
    assert not eng._timer_gen


# each hop-timer effect a script may take from a hop record: the record's
# own prebuilt arming or cancel
HOP_EFFECTS = (
    lambda hop: hop.probe, lambda hop: hop.backoff[0],
    lambda hop: hop.backoff[2], lambda hop: hop.unprobe,
    lambda hop: hop.ack, lambda hop: hop.unack,
    lambda hop: hop.nack, lambda hop: hop.renacks[0],
    lambda hop: hop.renacks[4], lambda hop: hop.unnack,
)
PEER = {"A": "B", "B": "A"}


def timer_script(rng):
    """Steps of (time, ops) at whole milliseconds, some at the same instant.
    An op arms or cancels a client timer ("t", i) at a delay that can tie
    with a hop timer's, or takes a hop-timer effect of A's or B's record;
    one step retires relay B and a later one respawns it."""
    steps = rng.randint(10, 20)
    retire, respawn = sorted(rng.sample(range(1, steps), 2))
    script, at = [], 0
    for i in range(steps):
        at += rng.choice((0, 1, 1, 2, 3))
        ops = [("retire",)] if i == retire else []
        if i == respawn:
            ops.append(("respawn",))
        for _ in range(rng.randint(1, 6)):
            name = ("t", rng.randrange(3))
            roll = rng.random()
            if roll < 0.4:
                ops.append(("hop", rng.choice("AB"),
                            rng.randrange(len(HOP_EFFECTS))))
            elif roll < 0.55:
                ops.append(("cancel", name))
            else:
                ops.append(("arm", name,
                            rng.choice((0.0, 1.0, 2.0, 3.0, 12.5, 14.5)),
                            rng.randrange(100)))
        script.append((float(at), ops))
    return script


class TimerScript(Client):
    """Runs a timer script: each step is a client timer ("act", i), armed at
    start.  Records each firing, its own and the relays', as (time, owner,
    timer id, data)."""

    def __init__(self, script):
        super().__init__("ca")
        self.script = script
        self.fired = []
        self.engine = None

    def on_start(self, api):
        for i, (at_ms, _ops) in enumerate(self.script):
            api.set_timer("ca", ("act", i), at_ms)

    def on_timer(self, timer_id, data, api):
        self.fired.append((api.now, "ca", timer_id, data))
        if timer_id[0] != "act":
            return
        eng = self.engine
        for op in self.script[timer_id[1]][1]:
            if op[0] == "arm":
                api.set_timer("ca", op[1], op[2], data=op[3])
            elif op[0] == "cancel":
                api.cancel_timer("ca", op[1])
            elif op[0] == "retire":
                eng._retire_node("B")
            elif op[0] == "respawn":
                eng._spawn_node("B")
            elif op[1] in eng.nodes:
                hop = eng.nodes[op[1]].hops[PEER[op[1]]]
                eng._process_effects(op[1], [HOP_EFFECTS[op[2]](hop)])


def reference_timers(script, hop):
    """The script on a plain heap: one entry per arming, an entry skipped
    unless it is its timer's last arming, and relay B's timers dropped when
    it retires.  `hop(node)` is a hop record of that node, which the
    effects' ids and delays are read from.  Returns the firings and the
    time of the last."""
    heap, last, fired = [], {}, []
    seq = 0
    now = 0.0

    def arm(name, due, data=None):
        nonlocal seq
        seq += 1
        last[name] = seq
        heapq.heappush(heap, (due, seq, name, data))

    for i, (at_ms, _ops) in enumerate(script):
        arm(("ca", ("act", i)), at_ms)
    alive = True
    while heap:
        due, entry_seq, name, data = heapq.heappop(heap)
        if last.get(name) != entry_seq:
            continue
        del last[name]
        now = due
        fired.append((now,) + name + (data,))
        owner, timer_id = name
        if owner != "ca" or timer_id[0] != "act":
            continue
        for op in script[timer_id[1]][1]:
            if op[0] == "arm":
                arm(("ca", op[1]), now + op[2], op[3])
            elif op[0] == "cancel":
                last.pop(("ca", op[1]), None)
            elif op[0] == "retire":
                alive = False
                for key in [key for key in last if key[0] == "B"]:
                    del last[key]
            elif op[0] == "respawn":
                alive = True
            elif op[1] == "A" or alive:
                eff = HOP_EFFECTS[op[2]](hop(op[1]))
                if isinstance(eff, SetTimer):
                    arm((op[1], eff.timer_id), now + eff.delay_ms)
                else:
                    last.pop((op[1], eff.timer_id), None)
    return fired, now


@pytest.mark.parametrize("seed", range(25))
def test_timer_discipline_matches_a_plain_reference_heap(monkeypatch, seed):
    script = timer_script(random.Random(seed))
    client = TimerScript(script)
    monkeypatch.setattr(NodeState, "handle_timer",
                        lambda self, timer_id, data, now:
                        client.fired.append((now, self.id, timer_id, data))
                        or [])
    eng = Engine(two_node(), [client], seed=1)
    client.engine = eng
    eng.run(horizon_ms=1000.0)
    records = Engine(two_node(), [], seed=1).nodes
    fired, now = reference_timers(
        script, lambda node: records[node].hops[PEER[node]])
    assert [entry for entry in fired if entry[2][0] != "act"], \
        "the script fires no timer"
    assert client.fired == fired
    assert eng.now == now
    assert not eng._timer_gen and not eng._heap


# --- link service: TX_DONE only while a frame waits ---------------------------------

def live_tx_done(eng):
    """Link direction -> number of its TX_DONE events on the heap."""
    counts = {}
    for _t, _seq, kind, data in eng._heap:
        if kind == _EV_TX_DONE:
            counts[data[:2]] = counts.get(data[:2], 0) + 1
    return counts


def stepped(eng, horizon_ms, step_ms, check):
    """Run to the horizon in small steps, calling check(eng) after each."""
    t = 0.0
    while t < horizon_ms:
        t += step_ms
        eng.run(horizon_ms=t)
        check(eng)


def test_lone_frame_leaves_no_tx_done_behind():
    # about 0.8 ms of serialization per frame, less than the 2 ms before the
    # delayed confirm: each frame (the data, then the confirm) goes out
    # alone, and the run stops often while one is on the wire
    topo = two_node(bw=0.5)
    sink = Collector("cb")
    eng = Engine(topo, [Burst("ca", "cb", 1, ServiceClass(PRI, 1)), sink],
                 seed=1)
    busy_seen = []

    def check(eng):
        assert not live_tx_done(eng)
        busy_seen.append(eng.now < eng.link_dirs[("A", "B")].busy_until)

    stepped(eng, 200.0, 0.1, check)
    assert len(sink.bodies) == 1
    assert eng.counters["wire_tx"] == 2
    assert any(busy_seen)


def test_quiet_period_costs_one_confirm(monkeypatch):
    sent = []
    wrap = NodeState.wrap_for_link

    def record(self, frame, neighbor, now, out):
        wire = wrap(self, frame, neighbor, now, out)
        sent.append((self.id, wire.kind, wire.k))
        return wire

    monkeypatch.setattr(NodeState, "wrap_for_link", record)
    sink = Collector("cb")
    eng = Engine(two_node(), [Burst("ca", "cb", 1, ServiceClass(PRI, 1)), sink],
                 seed=1)
    eng.run(horizon_ms=1000.0)
    assert len(sink.bodies) == 1
    # the lone frame asks for a delayed confirm, which arrives before the
    # sender's tail probe is due: no announce
    assert sent == [("A", KIND_HOP_DATA, HOP_ACK_REQ),
                    ("B", KIND_HOP_NACK, HOP_CONFIRM)]
    assert eng.counters["wire_tx"] == 2


def test_queued_frames_leave_back_to_back():
    topo = two_node(latency=5.0, bw=1.0)
    sink = Collector("cb")
    eng = Engine(topo, [Burst("ca", "cb", 10, ServiceClass(PRI, 1)), sink],
                 seed=1)
    eng.run(horizon_ms=1000.0)
    assert len(sink.bodies) == 10
    gaps = [b - a for a, b in zip(sink.times, sink.times[1:])]
    ser = gaps[0]
    assert ser > 0.0
    # equal bodies make equal frames: one serialization time apart each
    assert gaps == pytest.approx([ser] * 9)
    assert sink.times[0] == pytest.approx(
        ser + 5.0 + HOP_PROCESSING_MS)


def test_saturated_link_has_one_live_tx_done_per_direction():
    # about 3 ms of frames offered per ms: the port never empties
    topo = two_node(bw=0.2)
    sender = PacedSender("ca", "cb", 600, per_tick=3, tick_ms=1.0,
                         service=ServiceClass(PRI, 1), deadline_ms=60_000)
    sink = Collector("cb")
    eng = Engine(topo, [sender, sink], seed=1)
    most = []

    def check(eng):
        counts = live_tx_done(eng)
        most.append(max(counts.values(), default=0))

    stepped(eng, 400.0, 0.5, check)
    assert max(most) == 1
    assert most.count(1) > len(most) // 2
    eng.run(horizon_ms=60_000.0)
    assert len(sink.bodies) == 600


def test_frames_queued_as_the_wire_frees_up_wait_for_the_scheduler():
    # timers armed before a transmission and due the instant it ends come
    # first in the heap's order, so, as with a TX_DONE pushed at once, both
    # frames they send queue behind the wire and the higher priority leaves
    # first
    class Tie(Client):
        def __init__(self, due_ms):
            super().__init__("ca")
            self.due_ms = due_ms
        def on_start(self, api):
            if self.due_ms is not None:
                api.set_timer("ca", ("lo",), self.due_ms, data=0)
                api.set_timer("ca", ("hi",), self.due_ms, data=5)
            api.send("ca", "cb", b"first", ServiceClass(PRI, 1))
        def on_timer(self, timer_id, data, api):
            api.send("ca", "cb", timer_id[0].encode(), ServiceClass(PRI, 1),
                     priority=data)

    probe = Engine(two_node(bw=1.0), [Tie(None), Collector("cb")], seed=1)
    probe.run(horizon_ms=0.0)
    done_ms = probe.link_dirs[("A", "B")].busy_until
    assert 0.0 < done_ms < ACK_DELAY_MS

    sink = Collector("cb")
    eng = Engine(two_node(bw=1.0), [Tie(done_ms), sink], seed=1)
    eng.run(horizon_ms=1000.0)
    assert sink.bodies == [b"first", b"hi", b"lo"]


def test_relay_restart_under_steady_traffic_drains_every_port():
    topo = load_topology(CHAIN)
    sender = PacedSender("c1", "c5", 400, per_tick=2, tick_ms=10.0,
                         service=ServiceClass(PRI, 1))
    sink = Collector("c5")
    faults = [FaultEvent(400.0, change=Change.node_down("12")),
              FaultEvent(900.0, change=Change.node_up("12"))]
    eng = Engine(topo, [sender, sink], seed=2, faults=faults)
    eng.run(horizon_ms=20_000.0)
    assert sender.sent == 400
    # only the two messages in flight at the fault are lost: the neighbours
    # reset their hop state for the dead relay's links when they see them go
    # down, so its fresh link seqs after the restart are no duplicates
    lost = {b"m%d" % i for i in range(400)} - set(sink.bodies)
    assert lost == {b"m78", b"m79"}
    counters = eng.counters
    assert "hop_duplicate" not in counters
    assert "hop_unrecoverable" not in counters
    for node_id, state in eng.nodes.items():
        for nbr, hop in state.hops.items():
            assert len(hop.port) == 0, (node_id, nbr)
    assert not live_tx_done(eng)
    assert not any(d.done_live for d in eng.link_dirs.values())


def test_relay_restarts_on_lossless_links_cost_no_hop_recovery():
    # a restart on links that lose nothing must not show up at the hop layer
    rng = random.Random(99)
    for trial in range(10):
        topo, victim = _random_lossy_world(rng)
        topo = replace(topo, links=tuple(replace(spec, loss=0.0)
                                         for spec in topo.links))
        for kind in (PRI, REL):
            bodies = [f"{trial}:{kind}:{i}".encode() for i in range(200)]
            pump = _Pump("cs", "cr", bodies, ServiceClass(kind, 0))
            sink = _Sink("cr")
            faults = [FaultEvent(300.0, change=Change.node_down(victim)),
                      FaultEvent(700.0, change=Change.node_up(victim))]
            eng = Engine(topo, [pump, sink], seed=trial * 7 + 1, faults=faults)
            eng.run(4000.0)
            counters = eng.counters
            where = f"trial {trial} {kind}"
            assert "hop_duplicate" not in counters, where
            assert "hop_unrecoverable" not in counters, where
            if kind == REL:
                assert Counter(sink.got) == Counter(pump.sent), where


def test_rel_delivers_exactly_once_through_a_relay_restart():
    # the victim is down long enough for every node to adopt the down view
    # and then the up view; two disjoint routes are tried only where the
    # world has them
    rng = random.Random(2024)
    runs = 0
    for world in range(8):
        topo, victim = _random_lossy_world(rng)
        ks = [0, 1]
        if len(k_disjoint_paths(TopologyView.all_up(topo), "n0", "n1", 2)) == 2:
            ks.append(2)
        for k in ks:
            bodies = [f"{world}:{k}:{i}".encode() for i in range(100)]
            pump = _Pump("cs", "cr", bodies, ServiceClass(REL, k))
            sink = _Sink("cr")
            faults = [FaultEvent(150.0, change=Change.node_down(victim)),
                      FaultEvent(400.0, change=Change.node_up(victim))]
            eng = Engine(topo, [pump, sink], seed=world + 1, faults=faults)
            eng.run(10_000.0)
            where = f"world {world} k {k}"
            assert len(pump.sent) == 100, where
            assert Counter(sink.got) == Counter(bodies), where
            assert "rel_failed" not in eng.counters, where
            assert not [node_id for node_id, state in eng.nodes.items()
                        if state.rel_pending], where
            runs += 1
    assert runs == 23


def test_a_flooded_rel_message_whose_ack_is_cut_is_acked_by_its_retransmit():
    # node 5 delivers the first copy at 16.6 ms; its links go down while the
    # flooded ack is on the wire, for long enough that every view says so
    faults = []
    for nbr in ["14", "11", "7", "3"]:
        faults += [FaultEvent(17.0, change=Change.link_down(nbr, "5")),
                   FaultEvent(300.0, change=Change.link_up(nbr, "5"))]
    sink = Collector("c5")
    eng = Engine(load_topology(CHAIN),
                 [Burst("c1", "c5", 1, ServiceClass(REL, 0)), sink],
                 seed=1, faults=faults)
    eng.run(horizon_ms=2000.0)
    assert sink.bodies == [b"m0"] and sink.times[0] < 17.0
    assert eng.counters["inflight_lost"] > 0
    # no flooded ack came back, so the source retransmitted over a route,
    # and node 5 acked the routed copy
    assert eng.counters["rel_retransmit"] >= 1
    assert not eng.nodes["1"].rel_pending
    assert "rel_failed" not in eng.counters


# --- one counter table per run -----------------------------------------------------

def flooded_lossy_chain(faults=(), trace=False):
    """50 flooded PRI messages over a 30%-loss hop: a flood stops at node 5,
    so node 5 alone drops copies that reach it a second way, and the run is
    quiet by 300 ms."""
    loss = FaultEvent(0.0, change=Change.loss_override("12", "13", 0.3))
    eng = Engine(load_topology(CHAIN),
                 [Burst("c1", "c5", 50, ServiceClass(PRI, 0)), Collector("c5")],
                 seed=4, faults=[loss, *faults], trace=trace)
    eng.run(horizon_ms=2000.0)
    return eng


def flooded_global(faults=()):
    """50 flooded PRI messages FRA to HKG: relays NYC and WAS, four
    neighbours each, and JHU drop copies that reach them a second way, and
    the run is quiet by 300 ms."""
    eng = Engine(load_topology(GLOBAL),
                 [Burst("cFRA", "cHKG", 50, ServiceClass(PRI, 0)),
                  Collector("cHKG")],
                 seed=4, faults=list(faults), trace=True)
    eng.run(horizon_ms=2000.0)
    return eng


def test_counts_survive_a_relay_that_goes_down():
    kept = flooded_global()
    retired = flooded_global([FaultEvent(1000.0,
                                         change=Change.node_down("NYC"))])
    assert "NYC" not in retired.nodes
    # the relay counted into the run's table before it went down
    assert ("NYC", "duplicate") in {(row[2], row[3]) for row in
                                    retired.trace_rows if row[1] == "drop"}
    assert retired.counters == kept.counters


def test_rel_give_up_is_counted_once_and_handed_to_no_client():
    class Sender(Client):
        """Records every callback after the send, `on_error` included."""

        def __init__(self):
            super().__init__("ca")
            self.handed = []

        def on_start(self, api):
            api.send("ca", "cb", b"m", ServiceClass(REL, 1))

        def on_deliver(self, src_client, body, wire_bytes, api):
            self.handed.append(("deliver", body))

        def on_timer(self, timer_id, data, api):
            self.handed.append(("timer", timer_id))

        def on_error(self, reason, dst_client, body, api):
            self.handed.append(("error", reason))

    sender, sink = Sender(), Collector("cb")
    eng = Engine(two_node(loss=1.0), [sender, sink], seed=1)
    eng.run(horizon_ms=60_000.0)
    assert eng.counters["rel_failed"] == 1
    assert not [key for key in eng.counters if key.startswith("client_error_")]
    assert sender.handed == []
    assert sink.bodies == []


def test_trace_export_is_byte_identical_across_reruns(tmp_path):
    def export(name):
        path = tmp_path / name
        flooded_lossy_chain(trace=True).export_trace(str(path))
        return path.read_bytes()

    first = export("first.csv")
    assert export("second.csv") == first
    lines = first.decode("utf-8").splitlines()
    assert lines[0] == "time_ms,event,node,detail"
    # a relay's drops reach the trace beside the engine's own
    reasons = {line.split(",")[3] for line in lines[1:]
               if line.split(",")[1] == "drop"}
    assert {"duplicate", "wire_lost"} <= reasons


def test_trace_export_is_byte_identical_across_hash_seeds(tmp_path):
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    code = ("import sys\n"
            "from test_netsim import flooded_lossy_chain\n"
            "flooded_lossy_chain(trace=True).export_trace(sys.argv[1])\n")
    exports = []
    for hash_seed in ("0", "12345"):
        path = tmp_path / f"trace_{hash_seed}.csv"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join([src, here]))
        subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                       check=True, timeout=120)
        exports.append(path.read_bytes())
    assert exports[0] == exports[1]


# every reason a relay or the engine counts a discarded frame, packet or
# delivery under
DROP_REASONS = {
    "buffer_full", "control_overflow", "hop_duplicate", "hop_unrecoverable",
    "unhandled_kind", "adversarial", "duplicate", "not_on_route",
    "bad_route", "no_route", "parked_full", "deadline_expired", "link_down",
    "wire_lost", "inflight_lost", "raw_down_drop", "raw_lost",
    "raw_inflight_lost", "raw_no_client", "deliver_malformed",
    "deliver_misrouted", "deliver_no_client",
}


def inflight_loss_world():
    faults = [FaultEvent(1.0, change=Change.link_down("A", "B"))]
    eng = Engine(two_node(latency=50.0),
                 [Burst("ca", "cb", 1, ServiceClass(PRI, 1)), Collector("cb")],
                 seed=1, faults=faults, trace=True)
    eng.run(horizon_ms=5000.0)
    return eng


def raw_loss_world():
    faults = [FaultEvent(100.0, change=Change.loss_override("12", "13", 1.0)),
              FaultEvent(200.0, change=Change.node_down("13"))]
    actions = [(50.0, raw_send_x), (150.0, raw_send_x), (250.0, raw_send_x)]
    eng = Engine(load_topology(CHAIN), [Scripted("c1", actions),
                                        Collector("c5")],
                 seed=2, raw_links=[CHAIN_RAW], faults=faults, trace=True)
    eng.run(horizon_ms=1000.0)
    return eng


def congested_world():
    """20 messages at once into a 1 Mbps link: the port holds 10, and those
    still waiting after 5 ms miss their deadline."""
    eng = Engine(two_node(bw=1.0),
                 [Burst("ca", "cb", 20, ServiceClass(PRI, 1), deadline_ms=5.0),
                  Collector("cb")],
                 seed=1, config=Config(buffer_capacity=10), trace=True)
    eng.run(horizon_ms=1000.0)
    return eng


@pytest.mark.parametrize("world, expected", [
    (lambda: flooded_lossy_chain(trace=True),
     {("12>13", "wire_lost"), ("13>12", "wire_lost"), ("5", "duplicate")}),
    (inflight_loss_world, {("A>B", "inflight_lost")}),
    (raw_loss_world, {("c1>c5", "raw_lost"), ("c1>c5", "raw_down_drop")}),
    (congested_world, {("A", "buffer_full"), ("A", "deadline_expired")}),
], ids=["flooded_lossy_chain", "inflight", "raw", "congested"])
def test_each_drop_is_one_count_and_one_trace_row(world, expected):
    eng = world()
    drops = [(row[2], row[3]) for row in eng.trace_rows if row[1] == "drop"]
    assert expected <= set(drops)
    assert Counter(reason for _, reason in drops) == {
        key: n for key, n in eng.counters.items() if key in DROP_REASONS}


# --- raw links ---------------------------------------------------------------------

def test_raw_pipe_delivers_after_path_latency():
    topo = load_topology(CHAIN)

    class RawSender(Client):
        def on_start(self, api):
            api.raw_send("c1", "c5", b"raw!")

    sink = Collector("c5")
    raw = RawLink("c1", "c5", path=("1", "12", "13", "14", "5"))
    eng = Engine(topo, [RawSender("c1"), sink], seed=2, raw_links=[raw])
    eng.run(horizon_ms=100.0)
    assert sink.raw_bodies == [b"raw!"]


def test_raw_pipe_inherits_path_loss():
    topo = load_topology(CHAIN)

    class RawSender(Client):
        def on_start(self, api):
            for _ in range(20):
                api.raw_send("c1", "c5", b"x")

    sink = Collector("c5")
    raw = RawLink("c1", "c5", path=("1", "12", "13", "14", "5"))
    faults = [FaultEvent(0.0, change=Change.loss_override("12", "13", 1.0))]
    eng = Engine(topo, [RawSender("c1"), sink], seed=2, raw_links=[raw],
                 faults=faults)
    eng.run(horizon_ms=1000.0)
    assert sink.raw_bodies == []
    assert eng.counters["raw_lost"] == 20


def test_raw_pipe_stalls_when_path_cut():
    topo = load_topology(CHAIN)

    class RawSender(Client):
        def on_start(self, api):
            api.raw_send("c1", "c5", b"x")

    sink = Collector("c5")
    raw = RawLink("c1", "c5", path=("1", "12", "13", "14", "5"))
    faults = [FaultEvent(0.0, change=Change.node_down("13"))]
    eng = Engine(topo, [RawSender("c1"), sink], seed=2, raw_links=[raw],
                 faults=faults)
    eng.run(horizon_ms=1000.0)
    assert sink.raw_bodies == []
    assert eng.counters["raw_down_drop"] == 1


CHAIN_RAW = RawLink("c1", "c5", path=("1", "12", "13", "14", "5"))


def raw_run(actions, faults):
    """c1 runs the scripted actions over the 16 ms raw pipe to c5."""
    sink = Collector("c5")
    eng = Engine(load_topology(CHAIN), [Scripted("c1", actions), sink],
                 seed=2, raw_links=[CHAIN_RAW], faults=faults)
    eng.run(horizon_ms=1000.0)
    return eng, sink


def raw_send_x(api):
    api.raw_send("c1", "c5", b"x%d" % api.now)


@pytest.mark.parametrize("faults", [
    [FaultEvent(5.0, change=Change.node_down("13"))],
    # back up before the packet lands at 16 ms: only the epoch it left in
    # can tell that the path went down under it
    [FaultEvent(2.0, change=Change.node_down("13")),
     FaultEvent(6.0, change=Change.node_up("13"))],
], ids=["node_down", "node_restart"])
def test_inflight_raw_packet_dies_with_path(faults):
    eng, sink = raw_run([(0.0, raw_send_x)], faults)
    assert sink.raw_bodies == []
    assert eng.counters["raw_inflight_lost"] == 1


def test_raw_rtt_hint_is_twice_the_path_latency():
    topo = load_topology(CHAIN)
    clients = [Collector("c1"), Collector("c5")]
    eng = Engine(topo, clients, seed=2, raw_links=[CHAIN_RAW])
    assert eng.api.raw_rtt_hint("c1", "c5") == 32.0
    assert eng.api.raw_rtt_hint("c5", "c1") == 32.0
    eng = Engine(topo, clients, seed=2)
    assert eng.api.raw_rtt_hint("c1", "c5") == DEFAULT_RTT_MS


def test_raw_loss_override_applies_from_the_next_send_on():
    faults = [FaultEvent(100.0, change=Change.loss_override("12", "13", 1.0))]
    eng, sink = raw_run([(50.0, raw_send_x), (150.0, raw_send_x)], faults)
    assert sink.raw_bodies == [b"x50"]
    assert eng.counters["raw_lost"] == 1


# --- AS underlay --------------------------------------------------------------------

def test_hijack_kills_raw_but_not_overlay():
    topo = load_topology(BGP)
    underlay = AsUnderlay(as_edges=((2, 5), (4, 5), (2, 4)))

    class Dual(Client):
        def __init__(self):
            super().__init__("cX")
        def on_start(self, api):
            api.set_timer("cX", ("go",), 200.0)
        def on_timer(self, timer_id, data, api):
            api.raw_send("cX", "cY", b"direct")
            api.send("cX", "cY", b"overlay", ServiceClass(REL, 1))

    sink = Collector("cY")
    raw = RawLink("cX", "cY", path=("RA", "RB"), as_pair=(2, 4))
    faults = [FaultEvent(100.0, hijack=(2, 4))]
    eng = Engine(load_topology(BGP), [Dual(), sink], seed=4, faults=faults,
                 raw_links=[raw], underlay=underlay)
    eng.run(horizon_ms=5000.0)
    assert sink.raw_bodies == []        # direct AS pair is blackholed
    assert sink.bodies == [b"overlay"]  # second homing keeps the overlay link up
    assert eng.counters["raw_down_drop"] == 1


def test_hijack_of_only_homing_cuts_overlay_link():
    underlay = AsUnderlay(as_edges=((2, 5), (4, 5), (2, 4)))
    sender = Burst("cX", "cY", 1, ServiceClass(PRI, 1))
    sink = Collector("cY")
    # every homing pair of RA x RB must be banned to cut the overlay link
    faults = [FaultEvent(0.0, hijack=pair)
              for pair in [(2, 4), (2, 5), (5, 4), (5, 5)]]
    eng = Engine(load_topology(BGP), [sender, sink], seed=4, faults=faults,
                 underlay=underlay)
    eng.run(horizon_ms=5000.0)
    assert sink.bodies == []


def test_restore_lifts_ban():
    underlay = AsUnderlay(as_edges=((2, 4),))
    topo = load_topology(BGP)

    class RawRetry(Client):
        def __init__(self):
            super().__init__("cX")
        def on_start(self, api):
            api.set_timer("cX", ("go", 1), 50.0)
            api.set_timer("cX", ("go", 2), 500.0)
        def on_timer(self, timer_id, data, api):
            api.raw_send("cX", "cY", b"try%d" % timer_id[1])

    sink = Collector("cY")
    raw = RawLink("cX", "cY", path=("RA", "RB"), as_pair=(2, 4))
    faults = [FaultEvent(0.0, hijack=(2, 4)),
              FaultEvent(200.0, restore=(2, 4))]
    eng = Engine(topo, [RawRetry(), sink], seed=4, faults=faults,
                 raw_links=[raw], underlay=underlay)
    eng.run(horizon_ms=2000.0)
    assert sink.raw_bodies == [b"try2"]


def test_an_underlay_event_keeps_a_link_fault():
    # a hijack that leaves RA-RB usable does not bring back the cut link;
    # lifting the cut does
    underlay = AsUnderlay(as_edges=((2, 5), (4, 5), (2, 4)))
    faults = [FaultEvent(10.0, change=Change.link_down("RA", "RB")),
              FaultEvent(20.0, hijack=(2, 4)),
              FaultEvent(30.0, change=Change.link_up("RA", "RB"))]
    eng = Engine(load_topology(BGP), [], seed=4, faults=faults,
                 underlay=underlay)
    for horizon, up in [(5.0, True), (15.0, False), (25.0, False),
                        (35.0, True)]:
        eng.run(horizon_ms=horizon)
        assert eng.ground.link_is_up("RA", "RB") == up, horizon
        assert eng.link_dirs[("RA", "RB")].up == up, horizon


def test_a_link_fault_keeps_an_underlay_cut():
    # an explicit link_up does not bring back a link the hijack cut; lifting
    # the ban does
    topo = parse_topology("node A as=2\nnode B as=4\n"
                          "link A B latency_ms=5 loss=0 bw_mbps=100\n")
    faults = [FaultEvent(0.0, hijack=(2, 4)),
              FaultEvent(10.0, change=Change.link_up("A", "B")),
              FaultEvent(20.0, restore=(2, 4))]
    eng = Engine(topo, [], seed=4, faults=faults,
                 underlay=AsUnderlay(as_edges=((2, 4),)))
    for horizon, up in [(5.0, False), (15.0, False), (25.0, True)]:
        eng.run(horizon_ms=horizon)
        assert eng.ground.link_is_up("A", "B") == up, horizon
        assert eng.link_dirs[("A", "B")].up == up, horizon


# --- tail probe: armed once per idle period -------------------------------------------

def record_wraps(monkeypatch):
    """Log (time, node, wire kind, announce delays armed) for each frame that
    leaves on a link."""
    log = []
    wrap = NodeState.wrap_for_link

    def record(self, frame, neighbor, now, out):
        before = len(out)
        wire = wrap(self, frame, neighbor, now, out)
        armed = [e.delay_ms for e in out[before:] if isinstance(e, SetTimer)]
        log.append((now, self.id, wire.kind, armed))
        return wire

    monkeypatch.setattr(NodeState, "wrap_for_link", record)
    return log


# re-nack interval of two_node's 5 ms link (2.5 x its latency); the tail
# probe waits ACK_DELAY_MS plus this
PROBE_RENACK_MS = 12.5


def left(log, node, kind):
    return [entry for entry in log if entry[1] == node and entry[2] == kind]


def announce_armings(monkeypatch):
    """Log (time, owner, delay) for every arming of an announce timer."""
    log = []
    set_timer = Engine.set_timer

    def spy(self, owner, timer_id, delay_ms, data=None, timer=None):
        if timer_id[0] == "ann":
            log.append((self.now, owner, delay_ms))
        set_timer(self, owner, timer_id, delay_ms, data, timer)

    monkeypatch.setattr(Engine, "set_timer", spy)
    return log


def test_burst_is_confirmed_after_its_last_frame_without_an_announce(
        monkeypatch):
    # about 0.06 ms of serialization per frame: the 100 frames leave back to
    # back over some 6 ms.  Only the first, which leaves before the rest
    # queue behind it, and the last leave the port empty, so only they ask
    # for a confirm and arm the tail probe.  The last confirm comes back
    # before the probe is due and cancels it
    wraps = record_wraps(monkeypatch)
    armed = announce_armings(monkeypatch)
    sink = Collector("cb")
    eng = Engine(two_node(bw=10.0),
                 [Burst("ca", "cb", 100, ServiceClass(PRI, 1),
                        deadline_ms=60_000), sink], seed=1)
    eng.run(horizon_ms=1000.0)
    assert len(sink.bodies) == 100
    data = [t for t, *_ in left(wraps, "A", KIND_HOP_DATA)]
    assert len(data) == 100
    probe_ms = ACK_DELAY_MS + PROBE_RENACK_MS
    assert armed == [(0.0, ("n", "A"), probe_ms),
                     (data[-1], ("n", "A"), probe_ms)]
    assert not left(wraps, "A", KIND_HOP_NACK)
    # a confirm the ack delay after each of the two arrives
    confirms = [t for t, *_ in left(wraps, "B", KIND_HOP_NACK)]
    assert confirms == [
        pytest.approx(t + 5.0 + HOP_PROCESSING_MS + ACK_DELAY_MS, abs=0.1)
        for t in (data[0], data[-1])]
    assert eng.counters["wire_tx"] == 102


def test_lost_flagged_frame_is_announced_after_the_ack_delay_and_a_renack(
        monkeypatch):
    # the lone frame is lost, so no confirm comes: the tail probe announces
    # it the ack delay plus the re-nack interval after its wrap, B nacks, A
    # retransmits, and the recovered frame, still flagged, is confirmed
    wraps = record_wraps(monkeypatch)
    faults = [FaultEvent(0.0, change=Change.loss_override("A", "B", 1.0)),
              FaultEvent(1.0, change=Change.loss_override("A", "B", 0.0))]
    sink = Collector("cb")
    eng = Engine(two_node(), [Burst("ca", "cb", 1, ServiceClass(PRI, 1),
                                    deadline_ms=60_000), sink],
                 seed=1, faults=faults)
    eng.run(horizon_ms=1000.0)
    assert len(sink.bodies) == 1
    assert [(node, kind) for _, node, kind, _ in wraps[:4]] == [
        ("A", KIND_HOP_DATA), ("A", KIND_HOP_NACK), ("B", KIND_HOP_NACK),
        ("A", KIND_HOP_DATA)]
    assert wraps[1][0] == ACK_DELAY_MS + PROBE_RENACK_MS
    # B confirms last, and A holds the frame confirmed
    assert wraps[-1][1:3] == ("B", KIND_HOP_NACK)
    assert eng.nodes["A"].hops["B"].confirmed == 0


@pytest.mark.parametrize("second_ms", [20.0, 38.0])
def test_frame_wrapped_in_a_back_off_wait_is_announced_on_time(monkeypatch,
                                                               second_ms):
    # every frame is lost, so nothing is confirmed and the announces back
    # off: the tail probe fires 14.5 ms after the first frame (the ack delay
    # plus 2.5 x the 5 ms link), and the next announces are due 12.5 and
    # 25 ms apart, at 27 and 52 ms.  A frame sent at 20 ms falls in the
    # first wait, one sent at 38 ms in the second; either wait is
    # superseded, and the frame is announced the probe delay after its wrap.
    wraps = record_wraps(monkeypatch)
    sender = PacedSender("ca", "cb", 2, per_tick=1, tick_ms=second_ms,
                         service=ServiceClass(PRI, 1))
    eng = Engine(two_node(loss=1.0), [sender, Collector("cb")], seed=1)
    eng.run(horizon_ms=second_ms + 20.0)
    data = [t for t, *_ in left(wraps, "A", KIND_HOP_DATA)]
    assert data == [0.0, second_ms]
    announces = [t for t, *_ in left(wraps, "A", KIND_HOP_NACK)]
    probe_ms = ACK_DELAY_MS + PROBE_RENACK_MS
    assert announces[0] == probe_ms
    assert [t for t in announces if t > second_ms] == [second_ms + probe_ms]


def test_link_reset_lets_the_next_frame_arm_a_fresh_announce_timer(monkeypatch):
    # the unanswered announces still back off when the link goes down; when
    # A adopts the view with the link down (110 ms) it forgets the link's
    # hop state and its timer, so the frame sent at 200 ms arms its own
    wraps = record_wraps(monkeypatch)
    faults = [FaultEvent(10.0, change=Change.link_down("A", "B")),
              FaultEvent(50.0, change=Change.link_up("A", "B"))]
    sender = PacedSender("ca", "cb", 2, per_tick=1, tick_ms=200.0,
                         service=ServiceClass(PRI, 1))
    eng = Engine(two_node(loss=1.0), [sender, Collector("cb")], seed=1,
                 faults=faults)
    eng.run(horizon_ms=220.0)
    data = left(wraps, "A", KIND_HOP_DATA)
    probe_ms = ACK_DELAY_MS + PROBE_RENACK_MS
    assert [(t, armed) for t, _, _, armed in data] == [
        (0.0, [probe_ms]), (200.0, [probe_ms])]
    announces = [t for t, *_ in left(wraps, "A", KIND_HOP_NACK)]
    assert announces[-1] == 200.0 + probe_ms


# --- cached link-direction state ---------------------------------------------------

def test_loss_override_applies_from_the_next_transmission_on():
    faults = [FaultEvent(300.0, change=Change.loss_override("A", "B", 1.0)),
              FaultEvent(600.0, change=Change.loss_override("A", "B", 0.0))]
    sender = PacedSender("ca", "cb", 90, per_tick=1, tick_ms=10.0,
                         service=ServiceClass(PRI, 1), deadline_ms=60_000)
    sink = Collector("cb")
    eng = Engine(two_node(), [sender, sink], seed=1, faults=faults, trace=True)
    eng.run(horizon_ms=2000.0)
    lost = [row[0] for row in eng.trace_rows
            if row[1] == "drop" and row[3] == "wire_lost"]
    assert lost and 300.0 <= min(lost) and max(lost) < 600.0
    # nothing gets through while every frame is lost; hop recovery then
    # repairs every gap once the loss is lifted
    assert not [t for t in sink.times if 300.0 < t < 600.0]
    assert len(sink.bodies) == 90
    assert eng.link_dirs[("A", "B")].loss == 0.0


def test_link_down_blocks_sending_and_link_up_resumes_it():
    faults = [FaultEvent(300.0, change=Change.link_down("A", "B")),
              FaultEvent(600.0, change=Change.link_up("A", "B"))]
    sender = PacedSender("ca", "cb", 90, per_tick=1, tick_ms=10.0,
                         service=ServiceClass(PRI, 1))
    sink = Collector("cb")
    eng = Engine(two_node(), [sender, sink], seed=1, faults=faults)
    eng.run(horizon_ms=300.0)
    sent = eng.counters["wire_tx"]
    eng.run(horizon_ms=599.0)
    assert eng.counters["wire_tx"] == sent
    assert not eng.link_dirs[("A", "B")].up
    eng.run(horizon_ms=2000.0)
    assert eng.link_dirs[("A", "B")].up
    # the nodes adopt the restored link at 700 ms; the later sends arrive
    assert {b"m%d" % i for i in range(71, 90)} <= set(sink.bodies)


def test_unanswered_nacks_back_off_while_the_reverse_direction_drops_all(
        monkeypatch):
    # A streams to B over a 2 ms link that loses 5% of frames, and for
    # HOP_CACHE_EXPIRY_MS every frame B sends back is lost, so none of B's
    # nacks is answered in that time: they back off instead of repeating
    # every re-nack interval (5 ms here) until each gap is given up
    nacks = []
    wrap = NodeState.wrap_for_link

    def record(self, frame, neighbor, now, out):
        if self.id == "B" and frame.kind == KIND_HOP_NACK and frame.payload:
            nacks.append(now)
        return wrap(self, frame, neighbor, now, out)

    monkeypatch.setattr(NodeState, "wrap_for_link", record)
    # the fault refreshes both directions to the link's 5%
    faults = [FaultEvent(HOP_CACHE_EXPIRY_MS,
                         change=Change.loss_override("A", "B", 0.05))]
    sender = PacedSender("ca", "cb", 300, per_tick=1, tick_ms=10.0,
                         service=ServiceClass(PRI, 1), deadline_ms=60_000)
    sink = Collector("cb")
    eng = Engine(two_node(loss=0.05, latency=2.0), [sender, sink], seed=1,
                 faults=faults)
    eng.link_dirs[("B", "A")].loss = 1.0
    eng.run(horizon_ms=2 * HOP_CACHE_EXPIRY_MS)
    renack_ms = eng.nodes["B"].hops["A"].renack_ms
    assert renack_ms == 5.0
    # RENACK_ROUNDS at 5 ms, doublings up to 160 ms, then one per 160 ms
    cap = renack_ms * 2 ** (ANNOUNCE_RETRIES - 1)
    unanswered = [t for t in nacks if t < HOP_CACHE_EXPIRY_MS]
    assert len(unanswered) <= RENACK_ROUNDS + ANNOUNCE_RETRIES \
        + HOP_CACHE_EXPIRY_MS / cap
    # once the reverse direction is back, a nack gets through within one
    # longest wait and the gaps still cached are filled
    assert [t for t in nacks if t >= HOP_CACHE_EXPIRY_MS][0] \
        < HOP_CACHE_EXPIRY_MS + cap
    late = {b"m%d" % i for i in range(200, 300)}
    assert late <= set(sink.bodies)
