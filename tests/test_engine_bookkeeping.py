"""The engine's bookkeeping matches its heap wherever a run stops.

A timer keeps one heap entry, recorded in `Engine._timer_gen`, and a link
direction's TX_DONE is on the heap only while `done_live` says so.  The
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
from spon.overlay import PRI, REL, ServiceClass
from spon.topology import Change


def check_bookkeeping(eng):
    timer_entries, tx_done = {}, {}
    for time_ms, seq, kind, data in eng._heap:
        if kind == _EV_TIMER:
            timer_entries.setdefault((data, seq), []).append(time_ms)
        elif kind == _EV_TX_DONE:
            tx_done.setdefault(data[:2], []).append((time_ms, seq))
    # each armed timer has exactly one live entry, at its recorded (due, seq)
    for key, armed in eng._timer_gen.items():
        assert timer_entries.get((key, armed[4])) == [armed[3]], key
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


def run_checked(eng, horizon_ms, step_ms):
    """Run to the horizon in steps, checking the bookkeeping after each."""
    t = 0.0
    while t < horizon_ms:
        t = min(t + step_ms, horizon_ms)
        Engine.run(eng, t)
        check_bookkeeping(eng)


def lossy_worlds(restart_ms, services):
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
            eng = Engine(topo, [pump, sink], seed=trial + 1, faults=faults)
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
