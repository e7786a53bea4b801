"""Shared test helpers: brute-force path oracles, random graph builders, the
location of the canonical topology files, and random lossy worlds with a
pump and a sink for engine runs.

The oracles here deliberately share no code with spon.topology: plain DFS
enumeration over the adjacency map, then exhaustive search over disjoint
combinations.  Slow but obviously correct on small graphs.
"""

from __future__ import annotations

import os
import random
from typing import Dict, List, Optional, Tuple

from spon.experiments import DATA_DIR
from spon.netsim import Client, EngineApi
from spon.topology import LinkSpec, Topology, TopologyView


def data_file(name: str) -> str:
    """Path of a canonical topology file shipped in the imported spon package."""
    return os.path.join(DATA_DIR, name)


def build_view(nodes, edges) -> TopologyView:
    """edges: iterable of (a, b, latency_ms)."""
    links = tuple(LinkSpec(a, b, lat, 0.0, 100.0) for a, b, lat in edges)
    topo = Topology(nodes=tuple(nodes), links=links, attachments={}, as_homing={})
    return TopologyView.all_up(topo)


def enum_simple_paths(view: TopologyView, src: str, dst: str) -> List[Tuple[Tuple[str, ...], float]]:
    """Every simple src->dst path over up elements, with summed latency."""
    found: List[Tuple[Tuple[str, ...], float]] = []

    def walk(node: str, seen: Tuple[str, ...], cost: float) -> None:
        if node == dst:
            found.append((seen, cost))
            return
        for nbr in view.base.neighbors(node):
            if nbr in seen or not view.link_is_up(node, nbr):
                continue
            walk(nbr, seen + (nbr,), cost + view.base.link(node, nbr).latency_ms)

    if view.node_is_up(src) and view.node_is_up(dst):
        walk(src, (src,), 0.0)
    found.sort(key=lambda pc: (pc[1], pc[0]))
    return found


def oracle_disjoint(view: TopologyView, src: str, dst: str) -> Dict[int, float]:
    """Minimum summed latency per achievable cardinality of node-disjoint sets.

    Exhaustive: DFS over the sorted path list, keeping interiors disjoint.
    Returns {cardinality: min_total_latency}; empty dict when no path exists.
    """
    paths = enum_simple_paths(view, src, dst)
    best: Dict[int, float] = {}

    def search(start: int, interiors: frozenset, count: int, total: float) -> None:
        if count > 0 and (count not in best or total < best[count]):
            best[count] = total
        for i in range(start, len(paths)):
            hops, cost = paths[i]
            inner = set(hops[1:-1])
            if inner & interiors:
                continue
            search(i + 1, interiors | frozenset(inner), count + 1, total + cost)

    search(0, frozenset(), 0, 0.0)
    return best


def random_view(rng: random.Random, max_nodes: int = 10, edge_prob: float = 0.35,
                max_paths: Optional[int] = 400) -> TopologyView:
    """Random connected-ish graph; regenerated if the path count explodes."""
    while True:
        n = rng.randint(4, max_nodes)
        nodes = [f"n{i}" for i in range(n)]
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < edge_prob:
                    edges.append((nodes[i], nodes[j], float(rng.randint(1, 20))))
        view = build_view(nodes, edges)
        if max_paths is None:
            return view
        if len(enum_simple_paths(view, "n0", "n1")) <= max_paths:
            return view


class _Pump(Client):
    """Feeds a fixed message list into the mesh, one every few ms."""

    def __init__(self, cid, dst, bodies, service, gap_ms=5.0):
        super().__init__(cid)
        self.dst = dst
        self.bodies = list(bodies)
        self.service = service
        self.gap = gap_ms
        self.sent: List[bytes] = []

    def on_start(self, api: EngineApi) -> None:
        api.set_timer(self.client_id, ("next",), self.gap)

    def on_timer(self, timer_id, data, api: EngineApi) -> None:
        if not self.bodies:
            return
        body = self.bodies.pop(0)
        if api.send(self.client_id, self.dst, body, self.service):
            self.sent.append(body)
        else:
            self.bodies.insert(0, body)   # backpressure: retry next tick
        api.set_timer(self.client_id, ("next",), self.gap)


class _Sink(Client):
    def __init__(self, cid):
        super().__init__(cid)
        self.got: List[bytes] = []

    def on_deliver(self, src_client, body, wire_bytes, api) -> None:
        self.got.append(body)


def _reachable_without(adj, src, dst, removed):
    seen = {src}
    stack = [src]
    while stack:
        u = stack.pop()
        if u == dst:
            return True
        for v in adj[u]:
            if v not in seen and v != removed:
                seen.add(v)
                stack.append(v)
    return False


def _random_lossy_world(rng):
    """Random mesh with lossy links and a killable non-cut relay."""
    while True:
        n = rng.randint(5, 10)
        nodes = [f"n{i}" for i in range(n)]
        adj = {x: set() for x in nodes}
        links = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.35:
                    links.append(LinkSpec(nodes[i], nodes[j],
                                          float(rng.randint(1, 10)),
                                          rng.uniform(0.0, 0.10), 100.0))
                    adj[nodes[i]].add(nodes[j])
                    adj[nodes[j]].add(nodes[i])
        if not _reachable_without(adj, "n0", "n1", None):
            continue
        victims = [v for v in nodes if v not in ("n0", "n1")
                   and _reachable_without(adj, "n0", "n1", v)]
        if not victims:
            continue
        topo = Topology(nodes=tuple(nodes), links=tuple(links),
                        attachments={"cs": "n0", "cr": "n1"}, as_homing={})
        return topo, rng.choice(victims)
