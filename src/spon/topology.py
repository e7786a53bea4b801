"""Overlay topology: file parsing, fault views, shortest and disjoint paths."""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from .frames import route_size

NodeId = str
LinkKey = Tuple[str, str]

DEFAULT_LOSS = 0.0
DEFAULT_BW_MBPS = 100.0


class TopologyError(ValueError):
    """Malformed topology input or reference to an unknown element."""


class NoPath(Exception):
    """No usable route exists between the two endpoints."""

    def __init__(self, src: NodeId, dst: NodeId, detail: str = ""):
        self.src = src
        self.dst = dst
        self.detail = detail
        msg = f"no usable path {src} -> {dst}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


def link_key(a: NodeId, b: NodeId) -> LinkKey:
    """Canonical undirected key; links are stored once per endpoint pair."""
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class LinkSpec:
    a: NodeId
    b: NodeId
    latency_ms: float
    loss: float
    bw_mbps: float

    def __post_init__(self):
        if self.a == self.b:
            raise TopologyError(f"self-link on node '{self.a}'")
        if self.latency_ms < 0:
            raise TopologyError(f"link {self.a}-{self.b}: negative latency")
        if not 0.0 <= self.loss <= 1.0:
            raise TopologyError(f"link {self.a}-{self.b}: loss must be in [0, 1]")
        if self.bw_mbps <= 0:
            raise TopologyError(f"link {self.a}-{self.b}: bandwidth must be positive")

    @property
    def key(self) -> LinkKey:
        return link_key(self.a, self.b)


@dataclass(frozen=True)
class Topology:
    """Parsed static topology. Immutable; runtime state lives in TopologyView."""

    nodes: Tuple[NodeId, ...]
    links: Tuple[LinkSpec, ...]
    attachments: Mapping[str, NodeId]   # client id -> hosting node
    as_homing: Mapping[NodeId, Tuple[int, ...]]  # node -> AS numbers, may be empty

    _adj: Dict[NodeId, Dict[NodeId, LinkSpec]] = field(
        init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        adj: Dict[NodeId, Dict[NodeId, LinkSpec]] = {n: {} for n in self.nodes}
        for ls in self.links:
            adj[ls.a][ls.b] = ls
            adj[ls.b][ls.a] = ls
        object.__setattr__(self, "_adj", adj)

    def neighbors(self, node: NodeId) -> Tuple[NodeId, ...]:
        if node not in self._adj:
            raise TopologyError(f"unknown node '{node}'")
        return tuple(sorted(self._adj[node]))

    def link(self, a: NodeId, b: NodeId) -> LinkSpec:
        try:
            return self._adj[a][b]
        except KeyError:
            raise TopologyError(f"no link {a}-{b}") from None

    def has_node(self, node: NodeId) -> bool:
        return node in self._adj


def _parse_kv(tokens: List[str], lineno: int) -> Dict[str, str]:
    out: Dict[str, str] = {}
    for tok in tokens:
        if "=" not in tok:
            raise TopologyError(f"line {lineno}: expected key=value, got '{tok}'")
        k, v = tok.split("=", 1)
        if k in out:
            raise TopologyError(f"line {lineno}: duplicate attribute '{k}'")
        out[k] = v
    return out


def parse_topology(text: str) -> Topology:
    """Parse the line-oriented topology format.

    Directives: ``node <id> [as=<n>,...]``, ``link <a> <b> latency_ms=<f>
    [loss=<f>] [bw_mbps=<f>]``, ``attach <client> <node>``.  '#' starts a
    comment.  Nodes must be declared before links or attachments that use
    them.
    """
    nodes: Dict[NodeId, Tuple[int, ...]] = {}
    links: Dict[LinkKey, LinkSpec] = {}
    attachments: Dict[str, NodeId] = {}

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        kind = toks[0]
        if kind == "node":
            if len(toks) < 2:
                raise TopologyError(f"line {lineno}: node requires an id")
            name = toks[1]
            if name in nodes:
                raise TopologyError(f"line {lineno}: duplicate node '{name}'")
            homing: Tuple[int, ...] = ()
            attrs = _parse_kv(toks[2:], lineno)
            for k, v in attrs.items():
                if k != "as":
                    raise TopologyError(f"line {lineno}: unknown node attribute '{k}'")
                try:
                    homing = tuple(int(x) for x in v.split(","))
                except ValueError:
                    raise TopologyError(f"line {lineno}: bad AS list '{v}'") from None
            nodes[name] = homing
        elif kind == "link":
            if len(toks) < 3:
                raise TopologyError(f"line {lineno}: link requires two endpoints")
            a, b = toks[1], toks[2]
            for endpoint in (a, b):
                if endpoint not in nodes:
                    raise TopologyError(f"line {lineno}: dangling endpoint {endpoint}")
            attrs = _parse_kv(toks[3:], lineno)
            if "latency_ms" not in attrs:
                raise TopologyError(f"line {lineno}: link requires latency_ms")
            try:
                latency = float(attrs.pop("latency_ms"))
                loss = float(attrs.pop("loss", DEFAULT_LOSS))
                bw = float(attrs.pop("bw_mbps", DEFAULT_BW_MBPS))
            except ValueError:
                raise TopologyError(f"line {lineno}: non-numeric link attribute") from None
            if attrs:
                raise TopologyError(
                    f"line {lineno}: unknown link attribute '{sorted(attrs)[0]}'")
            key = link_key(a, b)
            if key in links:
                raise TopologyError(f"line {lineno}: duplicate link {a}-{b}")
            try:
                links[key] = LinkSpec(a, b, latency, loss, bw)
            except TopologyError as exc:
                raise TopologyError(f"line {lineno}: {exc}") from None
        elif kind == "attach":
            if len(toks) != 3:
                raise TopologyError(f"line {lineno}: attach requires client and node")
            client, node = toks[1], toks[2]
            if client in attachments:
                raise TopologyError(f"line {lineno}: duplicate client '{client}'")
            if node not in nodes:
                raise TopologyError(f"line {lineno}: dangling endpoint {node}")
            attachments[client] = node
        else:
            raise TopologyError(f"line {lineno}: unknown directive '{kind}'")

    return Topology(
        nodes=tuple(nodes),
        links=tuple(links.values()),
        attachments=attachments,
        as_homing=nodes,
    )


def load_topology(path: str) -> Topology:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_topology(fh.read())


# --- runtime view -----------------------------------------------------------

@dataclass(frozen=True)
class Change:
    """A single fault-schedule change applied to a view."""

    kind: str                       # node_down | node_up | link_down | link_up | loss_override
    node: Optional[NodeId] = None
    link: Optional[LinkKey] = None
    loss: Optional[float] = None

    @classmethod
    def node_down(cls, node: NodeId) -> "Change":
        return cls("node_down", node=node)

    @classmethod
    def node_up(cls, node: NodeId) -> "Change":
        return cls("node_up", node=node)

    @classmethod
    def link_down(cls, a: NodeId, b: NodeId) -> "Change":
        return cls("link_down", link=link_key(a, b))

    @classmethod
    def link_up(cls, a: NodeId, b: NodeId) -> "Change":
        return cls("link_up", link=link_key(a, b))

    @classmethod
    def loss_override(cls, a: NodeId, b: NodeId, loss: float) -> "Change":
        return cls("loss_override", link=link_key(a, b), loss=loss)


@dataclass(frozen=True)
class TopologyView:
    """Value snapshot of which elements are up.  apply_fault returns a copy."""

    base: Topology
    node_up: Mapping[NodeId, bool]
    link_up: Mapping[LinkKey, bool]
    loss_overrides: Mapping[LinkKey, float]

    # Routes computed on this view, keyed ("sp", src, dst) or ("kd", src, dst,
    # k), and up neighbours keyed ("nb", node).  A view never changes, so an
    # entry never goes stale; it is dropped with the view.  A value is a Path,
    # a list of Paths, a tuple of node ids, or the detail string of a NoPath.
    _routes: Dict[tuple, object] = field(
        init=False, repr=False, compare=False, default_factory=dict)

    @classmethod
    def all_up(cls, topo: Topology) -> "TopologyView":
        return cls(
            base=topo,
            node_up={n: True for n in topo.nodes},
            link_up={ls.key: True for ls in topo.links},
            loss_overrides={},
        )

    def node_is_up(self, node: NodeId) -> bool:
        if node not in self.node_up:
            raise TopologyError(f"unknown node '{node}'")
        return self.node_up[node]

    def link_is_up(self, a: NodeId, b: NodeId) -> bool:
        key = link_key(a, b)
        if key not in self.link_up:
            raise TopologyError(f"no link {a}-{b}")
        return self.link_up[key] and self.node_up[a] and self.node_up[b]

    def loss(self, a: NodeId, b: NodeId) -> float:
        key = link_key(a, b)
        if key in self.loss_overrides:
            return self.loss_overrides[key]
        return self.base.link(a, b).loss

    def up_neighbors(self, node: NodeId) -> Tuple[NodeId, ...]:
        """The neighbours reached over an up link; computed once per view and
        node, then served from the view's memo."""
        key = ("nb", node)
        found = self._routes.get(key)
        if found is None:
            if not self.node_is_up(node):
                found = ()
            else:
                found = tuple(n for n in self.base.neighbors(node)
                              if self.link_is_up(node, n))
            self._routes[key] = found
        return found

    def usable(self, path: "Path") -> bool:
        """True when every hop and link of the path is currently up; a hop
        pair with no link makes the path unusable."""
        hops = path.hops
        if not all(self.node_up.get(h, False) for h in hops):
            return False
        link_up = self.link_up
        return all(link_up.get(link_key(u, v), False)
                   for u, v in zip(hops, hops[1:]))


def apply_fault(view: TopologyView, change: Change) -> TopologyView:
    """Apply one change and return the updated view; the input is untouched."""
    node_up = dict(view.node_up)
    link_up = dict(view.link_up)
    overrides = dict(view.loss_overrides)
    if change.kind in ("node_down", "node_up"):
        if change.node not in node_up:
            raise TopologyError(f"unknown node '{change.node}'")
        node_up[change.node] = change.kind == "node_up"
    elif change.kind in ("link_down", "link_up"):
        if change.link not in link_up:
            raise TopologyError(f"no link {change.link[0]}-{change.link[1]}")
        link_up[change.link] = change.kind == "link_up"
    elif change.kind == "loss_override":
        if change.link not in link_up:
            raise TopologyError(f"no link {change.link[0]}-{change.link[1]}")
        if not 0.0 <= float(change.loss) <= 1.0:
            raise TopologyError("loss override must be in [0, 1]")
        overrides[change.link] = float(change.loss)
    else:
        raise TopologyError(f"unknown change kind '{change.kind}'")
    return TopologyView(view.base, node_up, link_up, overrides)


# --- paths ------------------------------------------------------------------

@dataclass(frozen=True)
class Path:
    hops: Tuple[NodeId, ...]
    total_latency_ms: float
    # encoded bytes of the hops as a frame route, for Frame.restamp
    route_size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "route_size", route_size(self.hops))


def path_from_hops(view: TopologyView, hops: Tuple[NodeId, ...]) -> Path:
    total = 0.0
    for u, v in zip(hops, hops[1:]):
        total += view.base.link(u, v).latency_ms
    return Path(tuple(hops), total)


def _memo(view: TopologyView, key: tuple, compute: Callable[..., object]) -> object:
    """The route stored under key in the view's memo; on a miss,
    compute(view, *key[1:]), so a hit builds nothing.

    key[1:3] is (src, dst).  A NoPath is stored as its detail string and
    raised afresh on every call, so the memo pins no traceback.  Any other
    error (unknown node, bad k, src == dst) stores nothing, so it is raised
    again on every call.
    """
    routes = view._routes
    found = routes.get(key)
    if found is None:
        try:
            found = compute(view, *key[1:])
        except NoPath as exc:
            found = exc.detail
        routes[key] = found
    if isinstance(found, str):
        raise NoPath(key[1], key[2], found)
    return found


def shortest_path(view: TopologyView, src: NodeId, dst: NodeId) -> Path:
    """Minimum-latency path; ties broken by lexicographically smallest hops.

    Computed once per view and pair, then served from the view's memo.
    """
    return _memo(view, ("sp", src, dst), _shortest_path)


def k_disjoint_paths(view: TopologyView, src: NodeId, dst: NodeId, k: int) -> List[Path]:
    """Up to k pairwise node-disjoint paths of minimum total latency.

    Node splitting plus successive shortest augmenting paths; after i
    augmentations the flow is a minimum-cost flow of value i, so every
    returned prefix cardinality is optimal as well.  Paths are ordered by
    ascending individual latency, then hop sequence.  Computed once per
    view, pair and k; each call gets its own list.
    """
    return list(_memo(view, ("kd", src, dst, k), _k_disjoint_paths))


def _shortest_path(view: TopologyView, src: NodeId, dst: NodeId) -> Path:
    """Uncached body of shortest_path; tests use it as the reference."""
    for endpoint in (src, dst):
        if not view.base.has_node(endpoint):
            raise TopologyError(f"unknown node '{endpoint}'")
    if not (view.node_is_up(src) and view.node_is_up(dst)):
        raise NoPath(src, dst, "endpoint down")
    if src == dst:
        return Path((src,), 0.0)

    # Priority is the pair (latency, hop tuple); appending a hop preserves the
    # order between two partial paths ending at the same node, so the first
    # settled entry per node is both minimal and lexicographically smallest.
    best: Dict[NodeId, Tuple[float, Tuple[NodeId, ...]]] = {src: (0.0, (src,))}
    heap: List[Tuple[float, Tuple[NodeId, ...]]] = [(0.0, (src,))]
    while heap:
        dist, hops = heapq.heappop(heap)
        node = hops[-1]
        if best.get(node, (float("inf"), ())) < (dist, hops):
            continue
        if node == dst:
            return Path(hops, dist)
        for nbr in view.up_neighbors(node):
            if nbr in hops:
                continue
            cand = (dist + view.base.link(node, nbr).latency_ms, hops + (nbr,))
            if nbr not in best or cand < best[nbr]:
                best[nbr] = cand
                heapq.heappush(heap, cand)
    raise NoPath(src, dst)


def _us(latency_ms: float) -> int:
    # Integer microsecond costs keep the flow computation exact.
    return int(round(latency_ms * 1000.0))


def _k_disjoint_paths(view: TopologyView, src: NodeId, dst: NodeId, k: int) -> List[Path]:
    """Uncached body of k_disjoint_paths; tests use it as the reference."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if src == dst:
        raise ValueError("src and dst must differ")
    for endpoint in (src, dst):
        if not view.base.has_node(endpoint):
            raise TopologyError(f"unknown node '{endpoint}'")
    if not (view.node_is_up(src) and view.node_is_up(dst)):
        raise NoPath(src, dst, "endpoint down")

    up_nodes = [n for n in view.base.nodes if view.node_is_up(n)]
    index: Dict[Tuple[NodeId, str], int] = {}
    for n in up_nodes:
        index[(n, "i")] = len(index)
        index[(n, "o")] = len(index)
    n_verts = len(index)
    # arc layout: [to, cap, cost, rev_index, is_forward]
    graph: List[List[List[int]]] = [[] for _ in range(n_verts)]

    def add_arc(u: int, v: int, cap: int, cost: int) -> None:
        graph[u].append([v, cap, cost, len(graph[v]), 1])
        graph[v].append([u, 0, -cost, len(graph[u]) - 1, 0])

    for n in up_nodes:
        cap = k if n in (src, dst) else 1
        add_arc(index[(n, "i")], index[(n, "o")], cap, 0)
    for ls in sorted(view.base.links, key=lambda l: l.key):
        if not view.link_up[ls.key] or not (view.node_up[ls.a] and view.node_up[ls.b]):
            continue
        cost = _us(ls.latency_ms)
        add_arc(index[(ls.a, "o")], index[(ls.b, "i")], 1, cost)
        add_arc(index[(ls.b, "o")], index[(ls.a, "i")], 1, cost)

    source = index[(src, "i")]
    sink = index[(dst, "o")]
    potential = [0] * n_verts
    found = 0
    INF = float("inf")
    for _ in range(k):
        dist: List[float] = [INF] * n_verts
        prev: List[Optional[Tuple[int, int]]] = [None] * n_verts
        dist[source] = 0
        heap: List[Tuple[int, int]] = [(0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for ai, arc in enumerate(graph[u]):
                v, cap, cost = arc[0], arc[1], arc[2]
                if cap <= 0:
                    continue
                nd = d + cost + potential[u] - potential[v]
                if nd < dist[v]:
                    dist[v] = nd
                    prev[v] = (u, ai)
                    heapq.heappush(heap, (nd, v))
        if dist[sink] == INF:
            break
        for i in range(n_verts):
            if dist[i] < INF:
                potential[i] += dist[i]
        v = sink
        while v != source:
            u, ai = prev[v]
            graph[u][ai][1] -= 1
            rev = graph[u][ai][3]
            graph[v][rev][1] += 1
            v = u
        found += 1

    if found == 0:
        raise NoPath(src, dst)

    # Decompose: flow on a forward arc equals the residual capacity that
    # accumulated on its reverse arc.
    used: Dict[int, List[int]] = {}
    for u in range(n_verts):
        for ai, arc in enumerate(graph[u]):
            v, _cap, _cost, rev, forward = arc
            if forward and graph[v][rev][1] > 0:
                used.setdefault(u, []).extend([ai] * graph[v][rev][1])

    rev_vert = {v: key for key, v in index.items()}
    paths: List[Path] = []
    for _ in range(found):
        hops: List[NodeId] = [src]
        vert = index[(src, "o")]
        # an out-vertex's flow arcs lead only to in-vertices
        while True:
            arcs = used.get(vert)
            assert arcs, "flow decomposition ran dry"
            ai = arcs.pop()
            node = rev_vert[graph[vert][ai][0]][0]
            vert = index[(node, "o")]
            hops.append(node)
            if node == dst:
                break
        paths.append(path_from_hops(view, tuple(hops)))

    paths.sort(key=lambda p: (p.total_latency_ms, p.hops))
    return paths
