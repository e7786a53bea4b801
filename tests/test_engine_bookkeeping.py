"""The engine's bookkeeping matches its heap wherever a run stops.

A timer keeps one heap entry, recorded in its `TimerRecord`: a hop holds
the record of each of its timers, and the engine files every armed record in
`Engine._timer_gen`.  A link direction's TX_DONE is on the heap only while
`done_live` says so.  The
engine serves ports from the heap alone, so a record that drifts from it
either fires a timer twice, loses one, or strands frames in a port.  Each run
here stops at many horizons, through lossy links, relay restarts and relay
waves, and every stop is checked.
"""

import random
from dataclasses import replace

import pytest

from helpers import _Pump, _Sink, _random_lossy_world
from spon import experiments
from spon.experiments import make_scenario, run_scenario
from spon.netsim import Engine, FaultEvent, _EV_TIMER, _EV_TX_DONE
from spon.overlay import (CONTROL_CAPACITY, DEDUP_WINDOW, HOP_CACHE_FRAMES,
                          PRI, REL, ServiceClass)
from spon.topology import Change


def hop_timers(state):
    """The records of a node's hop timers: each hop's probe, ack and nack."""
    return [eff.timer for hop in state.hops.values()
            for eff in (hop.probe, hop.ack, hop.nack)]


def check_bookkeeping(eng):
    timer_entries, tx_done = {}, {}
    for time_ms, seq, kind, data in eng._heap:
        if kind == _EV_TIMER:
            timer_entries.setdefault((data, seq), []).append(time_ms)
            # an entry that would fire or move belongs to an armed timer
            if data.entry_seq == seq:
                assert eng._timer_gen.get(data.key or data) is data, \
                    (data.owner, data.timer_id)
        elif kind == _EV_TX_DONE:
            tx_done.setdefault(data[:2], []).append((time_ms, seq))
    # each armed timer is filed under its key, or itself if it has none, and
    # has exactly one live entry, at its recorded (due, seq), no later than
    # its last arming
    for key, timer in eng._timer_gen.items():
        where = (timer.owner, timer.timer_id)
        assert key == (timer.key or timer), where
        assert timer_entries.get((timer, timer.entry_seq)) \
            == [timer.entry_due], where
        assert (timer.entry_due, timer.entry_seq) <= (timer.due, timer.seq)
    # every armed hop record is filed, and a node's armed timers without a
    # key are its own hops' records: a retired relay's were disarmed
    for node_id, state in eng.nodes.items():
        for timer in hop_timers(state):
            if timer.entry_seq:
                assert eng._timer_gen.get(timer) is timer, timer.timer_id
                assert timer.owner == ("n", node_id), timer.timer_id
    for timer in eng._timer_gen.values():
        scope, name = timer.owner
        if scope == "n":
            assert name in eng.nodes, (name, timer.timer_id)
            if timer.key is None:
                assert any(timer is mine
                           for mine in hop_timers(eng.nodes[name])), \
                    (name, timer.timer_id)
    # a TX_DONE is on the heap exactly when its direction says it is live,
    # at the key where the frame on the wire finishes
    for pair, dirn in eng.link_dirs.items():
        expected = [(dirn.busy_until, dirn.done_seq)] if dirn.done_live else []
        assert tx_done.pop(pair, []) == expected, pair
    assert not tx_done
    # no frame waits toward an up link that is idle and will not be served
    for node_id, state in eng.nodes.items():
        for nbr, hop in state.hops.items():
            if not hop.port.queued:
                continue
            dirn = eng.link_dirs[(node_id, nbr)]
            idle = eng.now > dirn.busy_until or (
                eng.now == dirn.busy_until and eng.now_seq >= dirn.done_seq)
            assert not (dirn.up and idle and not dirn.done_live), \
                (node_id, nbr, eng.now)
    # a live node has one hop record per link, in topology-neighbour order,
    # and its caches, ports, windows and parked frames stay under their
    # constants
    for node_id, state in eng.nodes.items():
        assert list(state.hops) == list(eng.topology.neighbors(node_id)), \
            node_id
        for nbr, hop in state.hops.items():
            where = (node_id, nbr)
            assert len(hop.cache) == hop.next_seq - hop.first_seq \
                <= HOP_CACHE_FRAMES, where
            assert len(hop.missing) <= HOP_CACHE_FRAMES, where
            port = hop.port
            assert len(port.control) <= CONTROL_CAPACITY, where
            for part in port.ring:
                assert part.size == sum(map(len, part.levels.values())) \
                    <= port.capacity, where
            assert port.queued == len(port.control) \
                + sum(part.size for part in port.ring), where
        for window in state.dedup_window.values():
            assert len(window) == len(window.order) <= DEDUP_WINDOW, node_id
        assert len(state.parked) <= CONTROL_CAPACITY, node_id


def run_checked(eng, horizon_ms, step_ms):
    """Run to the horizon in steps, checking the bookkeeping after each."""
    t = 0.0
    while t < horizon_ms:
        t = min(t + step_ms, horizon_ms)
        Engine.run(eng, t)
        check_bookkeeping(eng)


def lossy_worlds(restart_ms, services, trace=False):
    """Four random lossy worlds with an engine per service in each: 150
    messages 2 ms apart, and the victim relay down from 150 ms for
    `restart_ms`.  Yields each engine with its victim, pump and sink."""
    rng = random.Random(31)
    for trial in range(4):
        topo, victim = _random_lossy_world(rng)
        for service in services:
            bodies = [f"{trial}:{i}".encode() for i in range(150)]
            pump = _Pump("cs", "cr", bodies, service, gap_ms=2.0)
            sink = _Sink("cr")
            faults = [FaultEvent(150.0, change=Change.node_down(victim)),
                      FaultEvent(150.0 + restart_ms,
                                 change=Change.node_up(victim))]
            eng = Engine(topo, [pump, sink], seed=trial + 1, faults=faults,
                         trace=trace)
            yield eng, victim, pump, sink


def run_lossy_worlds(restart_ms):
    """PRI flooding and REL k = 1 in each lossy world, checked to 900 ms."""
    for eng, victim, _pump, _sink in lossy_worlds(
            restart_ms, (ServiceClass(PRI, 0), ServiceClass(REL, 1))):
        run_checked(eng, 900.0, 7.0)
        assert eng.spawns[victim] == 2


def test_bookkeeping_holds_through_lossy_worlds_with_a_relay_restart():
    run_lossy_worlds(250.0)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "a port whose link goes down keeps its frames until the node adopts the "
    "down view; when the link comes back up first, nothing serves them"))
def test_no_frame_waits_after_a_restart_shorter_than_the_view_delay():
    run_lossy_worlds(80.0)


@pytest.mark.parametrize("restart_ms", [250.0, 80.0])
def test_a_run_ends_quiescent(restart_ms):
    # whether or not the relay comes back before the view that took it down
    # reaches its neighbours, a run that outlasts its traffic ends with no
    # event due, no frame in any port, nothing awaiting an ack or a route,
    # and every message delivered once
    services = (ServiceClass(PRI, 0), ServiceClass(PRI, 2),
                ServiceClass(REL, 0), ServiceClass(REL, 1))
    for eng, victim, pump, sink in lossy_worlds(restart_ms, services):
        eng.run(900.0)
        assert eng.spawns[victim] == 2
        assert not eng._heap
        for node_id, state in eng.nodes.items():
            assert not [nbr for nbr, hop in state.hops.items() if hop.port], \
                node_id
            assert not state.rel_pending and not state.parked, node_id
        assert not pump.bodies
        assert sorted(sink.got) == sorted(pump.sent)


def test_bookkeeping_holds_through_relay_waves(monkeypatch):
    engines = []

    class Checked(Engine):
        def run(self, horizon_ms):
            engines.append(self)
            run_checked(self, horizon_ms, 997.0)

    monkeypatch.setattr(experiments, "Engine", Checked)
    # 1,600 packets, each sent when the last is fulfilled, through the first
    # wave of relay cuts at 40 s, and on to their return at 80 s
    sc = make_scenario("chain-meltdown", total=16_000, packet=10,
                       variants=("pri-1p", "pri-2p"))
    reports = run_scenario(replace(sc, horizon_ms=90_000.0))
    assert len(engines) == 2
    assert all(report.completed for report in reports)


def test_a_run_repeats_exactly_in_one_process():
    # a timer record filed by identity must order nothing: each lossy world
    # with a relay restart, run twice in this process, delivers, counts,
    # pops and traces the same
    def runs():
        out = []
        for eng, victim, _pump, sink in lossy_worlds(
                250.0, (ServiceClass(PRI, 0), ServiceClass(REL, 1)),
                trace=True):
            eng.run(900.0)
            assert eng.spawns[victim] == 2
            out.append((sink.got, eng.counters, eng.pops, eng.trace_rows))
        return out

    first = runs()
    assert all(got and rows for got, _counters, _pops, rows in first)
    assert runs() == first
