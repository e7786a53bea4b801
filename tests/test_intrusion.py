"""Intrusion tolerance end to end: a compromised relay on the chain's
fastest route, run through the engine.

Relay 12 sits on the 16 ms route from node 1 to node 5, the route PRI k = 1
takes.  The single-route PRI case is the negative control: it must lose
every message, so an engine or relay that ignored `behaviors` fails here.
Two disjoint routes, flooding, and REL's retransmit route pool each get
every message through exactly once, REL's at one retransmit a message.  A
compromised relay that restarts comes back compromised.  In random lossy
worlds, flooding, REL's route pool and two disjoint routes each deliver
every message once around a compromised relay.
"""

import random
from collections import Counter

import pytest

from helpers import _Pump, _Sink, _random_lossy_world, data_file
from spon.netsim import Engine, FaultEvent
from spon.overlay import PRI, REL, Behavior, ServiceClass
from spon.topology import Change, TopologyView, k_disjoint_paths, load_topology

CHAIN = data_file("chain.topo")
MESSAGES = 200
SERVICES = {"pri-1p": ServiceClass(PRI, 1), "pri-2p": ServiceClass(PRI, 2),
            "pri-fld": ServiceClass(PRI, 0), "rel-1p": ServiceClass(REL, 1)}
# held longer than the 160 ms PRI deadline (10 x the 16 ms best route)
BEHAVIORS = {"drop_all": Behavior.drop_all(),
             "drop_flow": Behavior.drop_flow("1", "5"),
             "delay": Behavior.delay(200.0)}


def run_with_compromised_relay(behavior, service, faults=()):
    bodies = [f"m{i}".encode() for i in range(MESSAGES)]
    pump = _Pump("c1", "c5", bodies, service)
    sink = _Sink("c5")
    eng = Engine(load_topology(CHAIN), [pump, sink], seed=1,
                 behaviors={"12": behavior}, faults=faults)
    eng.run(5000.0)
    assert len(pump.sent) == MESSAGES
    return eng, sink


@pytest.mark.parametrize("behavior", sorted(BEHAVIORS))
@pytest.mark.parametrize("variant", sorted(SERVICES))
def test_a_compromised_relay_stops_only_the_route_through_it(behavior,
                                                             variant):
    eng, sink = run_with_compromised_relay(BEHAVIORS[behavior],
                                           SERVICES[variant])
    if variant == "pri-1p":
        assert sink.got == []
        # relay 12 drops each message, or holds it past its deadline
        reason = "deadline_expired" if behavior == "delay" else "adversarial"
        assert eng.counters[reason] == MESSAGES
        return
    counts = Counter(sink.got)
    assert len(counts) == MESSAGES
    assert set(counts.values()) == {1}


def test_a_black_hole_costs_a_rel_message_one_retransmit():
    # each message's original send takes relay 12's route, and its first
    # retransmit the pool's next route, which avoids it
    eng, sink = run_with_compromised_relay(Behavior.drop_all(),
                                           SERVICES["rel-1p"])
    assert Counter(sink.got) == Counter(f"m{i}".encode()
                                        for i in range(MESSAGES))
    assert eng.counters["rel_retransmit"] == eng.counters["adversarial"] \
        == MESSAGES
    # a second timeout a message would end the run at 1,240 ms
    assert eng.now < 1150


@pytest.mark.parametrize("variant", ["pri-1p", "pri-2p"])
def test_a_compromised_relay_that_restarts_is_still_compromised(variant):
    # one message leaves every 5 ms; relay 12 is down from 300 to 500 ms,
    # and node 1 routes through it again once the view reaches it at 600 ms
    restart = [FaultEvent(300.0, change=Change.node_down("12")),
               FaultEvent(500.0, change=Change.node_up("12"))]
    eng, sink = run_with_compromised_relay(Behavior.drop_all(),
                                           SERVICES[variant], restart)
    assert eng.spawns["12"] == 2
    if variant == "pri-1p":
        # only what was routed around the outage arrives; every message sent
        # after 600 ms is dropped by the restarted relay
        sent_late = {f"m{i}".encode() for i in range(600 // 5, MESSAGES)}
        assert sink.got and not sent_late & set(sink.got)
        assert eng.counters["adversarial"] == MESSAGES - len(sink.got)
        return
    counts = Counter(sink.got)
    assert len(counts) == MESSAGES
    assert set(counts.values()) == {1}


# --- random lossy worlds ----------------------------------------------------------

def random_world_cases(worlds=8):
    """(world, topology, victim, behaviour, variant) for the first worlds of
    `_random_lossy_world(random.Random(4242))`: the victim relay drops
    everything in even worlds and only the cs -> cr flow in odd ones.  Two
    disjoint routes are tried only where the world has them."""
    rng = random.Random(4242)
    cases = []
    for world in range(worlds):
        topo, victim = _random_lossy_world(rng)
        behavior = Behavior.drop_all() if world % 2 == 0 \
            else Behavior.drop_flow("n0", "n1")
        variants = ["pri-fld", "rel-fld", "rel-1p"]
        if len(k_disjoint_paths(TopologyView.all_up(topo), "n0", "n1", 2)) == 2:
            variants += ["pri-2p", "rel-2p"]
        cases += [(world, topo, victim, behavior, v) for v in variants]
    return cases


RANDOM_SERVICES = {"pri-fld": ServiceClass(PRI, 0),
                   "rel-fld": ServiceClass(REL, 0),
                   "rel-1p": ServiceClass(REL, 1),
                   "pri-2p": ServiceClass(PRI, 2),
                   "rel-2p": ServiceClass(REL, 2)}
RANDOM_CASES = random_world_cases()


@pytest.mark.parametrize(
    "world, topo, victim, behavior, variant", RANDOM_CASES,
    ids=[f"world{c[0]}-{c[4]}" for c in RANDOM_CASES])
def test_a_compromised_relay_in_a_random_lossy_world_loses_nothing(
        world, topo, victim, behavior, variant):
    bodies = [f"w{world}:m{i}".encode() for i in range(100)]
    pump = _Pump("cs", "cr", bodies, RANDOM_SERVICES[variant])
    sink = _Sink("cr")
    eng = Engine(topo, [pump, sink], seed=world + 1,
                 behaviors={victim: behavior})
    eng.run(5000.0)
    assert len(pump.sent) == 100
    assert Counter(sink.got) == Counter(bodies)
