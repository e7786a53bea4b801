import random

import pytest

from helpers import (build_view, data_file, enum_simple_paths, oracle_disjoint,
                     random_view)
from spon.topology import (
    Change,
    NoPath,
    TopologyError,
    TopologyView,
    _k_disjoint_paths,
    _shortest_path,
    apply_fault,
    k_disjoint_paths,
    load_topology,
    parse_topology,
    shortest_path,
)

CHAIN = data_file("chain.topo")
GLOBAL = data_file("global.topo")


def chain_view():
    return TopologyView.all_up(load_topology(CHAIN))


def global_view():
    return TopologyView.all_up(load_topology(GLOBAL))


# --- parsing ----------------------------------------------------------------

def test_parse_minimal():
    topo = parse_topology(
        "# comment\n"
        "node A\n"
        "node B as=3,7\n"
        "link A B latency_ms=5 loss=0.1 bw_mbps=15\n"
        "attach cli A\n"
    )
    assert topo.nodes == ("A", "B")
    assert topo.as_homing["B"] == (3, 7)
    assert topo.as_homing["A"] == ()
    ls = topo.link("A", "B")
    assert (ls.latency_ms, ls.loss, ls.bw_mbps) == (5.0, 0.1, 15.0)
    assert topo.attachments == {"cli": "A"}


def test_parse_optional_link_attrs_default():
    topo = parse_topology("node A\nnode B\nlink A B latency_ms=2\n")
    ls = topo.link("A", "B")
    assert ls.loss == 0.0 and ls.bw_mbps == 100.0


def test_parse_dangling_endpoint():
    with pytest.raises(TopologyError, match=r"line 2: dangling endpoint B"):
        parse_topology("node A\nlink A B latency_ms=5\n")


def test_parse_duplicate_node_reports_line():
    with pytest.raises(TopologyError, match=r"line 3: duplicate node 'A'"):
        parse_topology("node A\nnode B\nnode A\n")


def test_parse_rejects_bad_input():
    for text, pat in [
        ("flood A\n", "unknown directive"),
        ("node A\nnode B\nlink A B\n", "latency_ms"),
        ("node A\nnode B\nlink A B latency_ms=x\n", "non-numeric"),
        ("node A\nnode B\nlink A B latency_ms=1 loss=1.5\n", "loss"),
        ("node A\nnode B\nlink A B latency_ms=1 bw_mbps=0\n", "bandwidth"),
        ("node A\nattach c Z\n", "dangling endpoint Z"),
        ("node A\nnode B\nlink A B latency_ms=1\nlink B A latency_ms=2\n", "duplicate link"),
    ]:
        with pytest.raises(TopologyError, match=pat):
            parse_topology(text)


def test_canonical_files_parse():
    chain = load_topology(CHAIN)
    assert len(chain.nodes) == 12
    assert len(chain.links) == 14
    assert chain.attachments == {"c1": "1", "c5": "5"}
    glob = load_topology(GLOBAL)
    assert len(glob.nodes) == 12
    assert glob.attachments == {"cFRA": "FRA", "cHKG": "HKG"}


# --- views and faults -------------------------------------------------------

def test_apply_fault_is_value_semantics():
    view = chain_view()
    down = apply_fault(view, Change.node_down("14"))
    assert view.node_is_up("14")
    assert not down.node_is_up("14")
    assert not down.link_is_up("13", "14")
    again = apply_fault(down, Change.node_down("14"))
    assert not again.node_is_up("14")
    restored = apply_fault(down, Change.node_up("14"))
    assert restored.node_is_up("14")


def test_loss_override_and_link_down():
    view = chain_view()
    assert view.loss("12", "13") == 0.0
    lossy = apply_fault(view, Change.loss_override("12", "13", 0.05))
    assert lossy.loss("12", "13") == 0.05
    assert lossy.loss("13", "12") == 0.05
    cut = apply_fault(view, Change.link_down("12", "13"))
    assert not cut.link_is_up("12", "13")
    assert cut.node_is_up("12")
    with pytest.raises(TopologyError):
        apply_fault(view, Change.node_down("99"))
    with pytest.raises(TopologyError):
        apply_fault(view, Change.loss_override("12", "13", 1.5))


def test_up_neighbors_chain_node1():
    view = chain_view()
    assert view.up_neighbors("1") == ("12", "2", "6", "9")


# --- shortest path ----------------------------------------------------------

def test_chain_shortest_path_frozen():
    sp = shortest_path(chain_view(), "1", "5")
    assert sp.hops == ("1", "12", "13", "14", "5")
    assert sp.total_latency_ms == 16.0


def test_chain_shortest_after_meltdown_cut_frozen():
    view = chain_view()
    for n in ("2", "7", "14"):
        view = apply_fault(view, Change.node_down(n))
    sp = shortest_path(view, "1", "5")
    assert sp.hops == ("1", "9", "10", "11", "5")
    assert sp.total_latency_ms == 20.0


def test_global_shortest_path_frozen():
    sp = shortest_path(global_view(), "FRA", "HKG")
    assert sp.hops == ("FRA", "LON", "NYC", "SJC", "HKG")
    assert sp.total_latency_ms == 148.0


def test_global_meltdown_survivor_frozen():
    view = global_view()
    for n in ("SJC", "NYC", "LON", "WAS", "JHU", "DFW", "ATL"):
        view = apply_fault(view, Change.node_down(n))
    sp = shortest_path(view, "FRA", "HKG")
    assert sp.hops == ("FRA", "CHI", "DEN", "LAX", "HKG")
    assert sp.total_latency_ms == 151.0


def test_shortest_path_identity_and_errors():
    view = chain_view()
    assert shortest_path(view, "7", "7").hops == ("7",)
    with pytest.raises(TopologyError):
        shortest_path(view, "1", "nope")
    down = apply_fault(view, Change.node_down("5"))
    with pytest.raises(NoPath):
        shortest_path(down, "1", "5")
    # partition: cut every path toward 5
    cut = view
    for a, b in [("14", "5"), ("11", "5"), ("7", "5"), ("3", "5")]:
        cut = apply_fault(cut, Change.link_down(a, b))
    with pytest.raises(NoPath):
        shortest_path(cut, "1", "5")


def test_shortest_path_lexicographic_tie_break():
    view = build_view("ABCD", [("A", "B", 1.0), ("A", "C", 1.0),
                               ("B", "D", 1.0), ("C", "D", 1.0)])
    assert shortest_path(view, "A", "D").hops == ("A", "B", "D")
    # the tie-break must consider later divergence too
    view2 = build_view("SABZ", [("S", "A", 5.0), ("A", "Z", 5.0),
                                ("S", "B", 1.0), ("B", "Z", 9.0)])
    assert shortest_path(view2, "S", "Z").hops == ("S", "A", "Z")


# --- disjoint paths ---------------------------------------------------------

def test_chain_disjoint_frozen():
    view = chain_view()
    two = k_disjoint_paths(view, "1", "5", 2)
    assert [p.hops for p in two] == [("1", "12", "13", "14", "5"),
                                     ("1", "9", "10", "11", "5")]
    assert sum(p.total_latency_ms for p in two) == 36.0
    everything = k_disjoint_paths(view, "1", "5", 10)
    assert [p.total_latency_ms for p in everything] == [16.0, 20.0, 24.0, 28.0]


def test_global_disjoint_frozen():
    paths = k_disjoint_paths(global_view(), "FRA", "HKG", 3)
    assert [p.total_latency_ms for p in paths] == [148.0, 151.0, 156.0]
    assert paths[1].hops == ("FRA", "CHI", "DEN", "LAX", "HKG")
    assert paths[2].hops == ("FRA", "WAS", "ATL", "DFW", "HKG")


def test_disjoint_validation():
    view = chain_view()
    with pytest.raises(ValueError):
        k_disjoint_paths(view, "1", "5", 0)
    with pytest.raises(ValueError):
        k_disjoint_paths(view, "1", "1", 2)
    down = apply_fault(view, Change.node_down("1"))
    with pytest.raises(NoPath):
        k_disjoint_paths(down, "1", "5", 1)


def test_disjoint_paths_avoid_down_elements():
    view = apply_fault(chain_view(), Change.node_down("13"))
    paths = k_disjoint_paths(view, "1", "5", 4)
    assert [p.total_latency_ms for p in paths] == [20.0, 24.0, 28.0]
    for p in paths:
        assert "13" not in p.hops


def test_disjoint_matches_oracle_on_random_graphs():
    rng = random.Random(20260814)
    for _ in range(60):
        view = random_view(rng)
        oracle = oracle_disjoint(view, "n0", "n1")
        if not oracle:
            with pytest.raises(NoPath):
                k_disjoint_paths(view, "n0", "n1", 2)
            continue
        kmax = max(oracle)
        for k in range(1, kmax + 2):
            got = k_disjoint_paths(view, "n0", "n1", k)
            card = min(k, kmax)
            assert len(got) == card
            assert sum(p.total_latency_ms for p in got) == pytest.approx(oracle[card], rel=1e-12)
            interiors = set()
            for p in got:
                inner = set(p.hops[1:-1])
                assert not inner & interiors
                interiors |= inner


def test_path_structure_invariants():
    rng = random.Random(7)
    for _ in range(40):
        view = random_view(rng)
        try:
            paths = k_disjoint_paths(view, "n0", "n1", 3)
        except NoPath:
            continue
        lat = [p.total_latency_ms for p in paths]
        assert lat == sorted(lat)
        for p in paths:
            assert p.hops[0] == "n0" and p.hops[-1] == "n1"
            assert len(set(p.hops)) == len(p.hops)
            total = sum(view.base.link(u, v).latency_ms
                        for u, v in zip(p.hops, p.hops[1:]))
            assert p.total_latency_ms == pytest.approx(total, rel=1e-9)
            assert view.usable(p)


def test_removal_never_shortens_paths():
    rng = random.Random(99)
    for _ in range(30):
        view = random_view(rng)
        try:
            before = shortest_path(view, "n0", "n1").total_latency_ms
        except NoPath:
            continue
        links = list(view.base.links)
        victim = links[rng.randrange(len(links))]
        cut = apply_fault(view, Change.link_down(victim.a, victim.b))
        try:
            after = shortest_path(cut, "n0", "n1").total_latency_ms
        except NoPath:
            continue
        assert after >= before


def test_deterministic_results():
    view = global_view()
    a = k_disjoint_paths(view, "FRA", "HKG", 3)
    b = k_disjoint_paths(TopologyView.all_up(load_topology(GLOBAL)), "FRA", "HKG", 3)
    assert [p.hops for p in a] == [p.hops for p in b]
    assert shortest_path(view, "HKG", "FRA").hops == tuple(
        reversed(shortest_path(view, "FRA", "HKG").hops))


# --- route memo -------------------------------------------------------------

def fault_views(view, changes):
    """The view, then the view after each change in turn."""
    views = [view]
    for change in changes:
        views.append(apply_fault(views[-1], change))
    return views


def outcome(fn, *args):
    """What a route call returns, or the message of the NoPath it raises."""
    try:
        result = fn(*args)
    except NoPath as exc:
        return ("NoPath", str(exc))
    return result


def test_memo_matches_uncached_on_fault_views():
    chain = fault_views(chain_view(), [
        Change.node_down("14"), Change.node_down("2"),
        Change.link_down("9", "10"), Change.node_down("5"),
        Change.node_up("5"), Change.node_up("14")])
    glob = fault_views(global_view(), [
        Change.node_down(n) for n in ("SJC", "NYC", "LON", "WAS")] + [
        Change.loss_override("FRA", "CHI", 0.5), Change.node_up("NYC")])
    for view in chain + glob:
        nodes = view.base.nodes
        for src in nodes:
            for dst in nodes:
                want = outcome(_shortest_path, view, src, dst)
                # the first call fills the memo, the second is served from it
                assert outcome(shortest_path, view, src, dst) == want
                assert outcome(shortest_path, view, src, dst) == want
                if src == dst:
                    continue
                for k in range(1, 5):
                    want = outcome(_k_disjoint_paths, view, src, dst, k)
                    assert outcome(k_disjoint_paths, view, src, dst, k) == want
                    assert outcome(k_disjoint_paths, view, src, dst, k) == want


def test_memo_repeats_nopath_with_the_same_message():
    view = chain_view()
    down = apply_fault(view, Change.node_down("5"))
    cut = view
    for a, b in [("14", "5"), ("11", "5"), ("7", "5"), ("3", "5")]:
        cut = apply_fault(cut, Change.link_down(a, b))
    calls = [(shortest_path, down, "1", "5"), (k_disjoint_paths, down, "1", "5", 2),
             (shortest_path, cut, "1", "5"), (k_disjoint_paths, cut, "1", "5", 2)]
    for fn, *args in calls:
        raised = []
        for _ in range(3):
            with pytest.raises(NoPath) as info:
                fn(*args)
            raised.append(info.value)
        assert len({str(exc) for exc in raised}) == 1
        assert len({id(exc) for exc in raised}) == 3
        assert (raised[-1].src, raised[-1].dst) == ("1", "5")
    with pytest.raises(NoPath, match=r"no usable path 1 -> 5 \(endpoint down\)$"):
        shortest_path(down, "1", "5")
    with pytest.raises(NoPath, match=r"no usable path 1 -> 5$"):
        k_disjoint_paths(cut, "1", "5", 1)


def test_memo_hands_each_caller_its_own_list():
    view = chain_view()
    first = k_disjoint_paths(view, "1", "5", 2)
    want = [p.hops for p in first]
    first.pop()
    first.append(first[0])
    again = k_disjoint_paths(view, "1", "5", 2)
    assert again is not first
    assert [p.hops for p in again] == want


def test_memo_keeps_validation_on_every_call():
    view = chain_view()
    shortest_path(view, "1", "5")
    k_disjoint_paths(view, "1", "5", 2)
    for _ in range(2):
        with pytest.raises(TopologyError):
            shortest_path(view, "1", "nope")
        with pytest.raises(TopologyError):
            shortest_path(view, "nope", "5")
        with pytest.raises(TopologyError):
            k_disjoint_paths(view, "1", "nope", 2)
        with pytest.raises(ValueError, match="k must be"):
            k_disjoint_paths(view, "1", "5", 0)
        with pytest.raises(ValueError, match="must differ"):
            k_disjoint_paths(view, "1", "1", 2)
