"""Per-layer tracing of a spon run, applied from outside the program.

`Tracer` replaces the public entry points of each module with wrappers that
count calls and time them, and restores the originals on exit.  A wrapped call
is a span; a span's self time is its duration minus the time of the spans it
encloses, and a layer's self time is the sum over its spans.  The layers'
self times therefore add up to the traced run, with the wrappers' own cost
landing in the callers.

Modules import functions by name (`from .topology import shortest_path`), so
a function is replaced in every `spon` module that holds it, not only in the
module that defines it.
"""

import functools
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

import spon.experiments
import spon.frames
import spon.netsim
import spon.overlay
import spon.payment
import spon.topology
from spon.frames import KIND_ACK, KIND_DATA, KIND_HOP_DATA, KIND_HOP_NACK

LAYERS = ("netsim", "overlay", "topology", "frames", "payment", "experiments")

# (layer, owner, attribute): calls are counted and timed as spans
SPANS: Tuple[Tuple[str, object, str], ...] = (
    ("experiments", spon.experiments, "run_scenario"),
    ("experiments", spon.experiments.FlowSource, "on_timer"),
    ("experiments", spon.experiments.FlowSink, "on_deliver"),
    ("netsim", spon.netsim.Engine, "__init__"),
    ("netsim", spon.netsim.Engine, "run"),
    ("netsim", spon.netsim.Engine, "client_send"),
    ("netsim", spon.netsim.Engine, "raw_send"),
    ("overlay", spon.overlay.NodeState, "client_send"),
    ("overlay", spon.overlay.NodeState, "handle_frame"),
    ("overlay", spon.overlay.NodeState, "handle_timer"),
    ("overlay", spon.overlay.NodeState, "scheduler_dequeue"),
    ("overlay", spon.overlay.NodeState, "wrap_for_link"),
    ("overlay", spon.overlay.NodeState, "recompute_routes"),
    ("topology", spon.topology, "k_disjoint_paths"),
    ("topology", spon.topology, "shortest_path"),
    ("topology", spon.topology, "apply_fault"),
    ("topology", spon.topology, "load_topology"),
    ("frames", spon.frames.Frame, "wire_size"),
    ("payment", spon.payment.IlpNode, "handle_packet"),
    ("payment", spon.payment.IlpNode, "on_timer"),
    ("payment", spon.payment.IlpNode, "on_deliver"),
    ("payment", spon.payment.IlpNode, "on_raw"),
    ("payment", spon.payment.IlpNode, "start_stream"),
    ("payment", spon.payment.IlpNode, "start_ping"),
    ("payment", spon.payment, "settle_check"),
)

# (name, owner, attribute): calls are only counted; their time stays with the
# caller, which is in the same layer or close to it
COUNTS: Tuple[Tuple[str, object, str], ...] = (
    ("netsim.timers_set", spon.netsim.Engine, "set_timer"),
    ("payment.ledger_ops", spon.payment.Ledger, "place_hold"),
    ("payment.ledger_ops", spon.payment.Ledger, "execute_hold"),
    ("payment.ledger_ops", spon.payment.Ledger, "void_hold"),
    ("payment.ledger_ops", spon.payment.Ledger, "void_group"),
)

TX_CLASSES = ("tx_data", "tx_announce", "tx_nack", "tx_retransmit",
              "tx_tombstone")


def span_name(owner: object, attr: str) -> str:
    if isinstance(owner, type):
        return f"{owner.__name__}.{attr}"
    return attr


def tx_class(frame) -> str:
    """What kind of wire transmission a dequeued frame becomes."""
    if frame.kind in (KIND_DATA, KIND_ACK):
        return "tx_data"
    if frame.kind == KIND_HOP_NACK:
        return "tx_nack" if frame.payload else "tx_announce"
    if frame.kind == KIND_HOP_DATA:
        return "tx_retransmit" if frame.inner is not None else "tx_tombstone"
    return "tx_other"


class Tracer:
    """Context manager: wraps the entry points on enter, restores on exit.

    After exit, `spans` maps "<layer>.<span>" to [calls, seconds] (seconds
    counts only the outermost of recursive calls), `self_s` maps each layer to
    its self time, `counts` holds the count-only probes and the transmission
    classes, and `engines` lists (events popped, timer entries) per engine run
    in run order.
    """

    def __init__(self):
        self.spans: Dict[str, List[float]] = {}
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.counts: Dict[str, int] = {name: 0 for name, _, _ in COUNTS}
        self.counts.update({name: 0 for name in TX_CLASSES})
        self.engines: List[Tuple[int, int]] = []
        self.missing: List[str] = []
        self._stack: List[float] = []
        self._layer_cells = {layer: [0.0] for layer in LAYERS}
        self._restore: List[Tuple[object, str, object]] = []

    # -- wrappers --

    def _span(self, layer: str, name: str, fn: Callable,
              after: Optional[Callable] = None) -> Callable:
        stat = self.spans.setdefault(f"{layer}.{name}", [0, 0.0])
        depth = [0]
        cell = self._layer_cells[layer]
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            depth[0] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                depth[0] -= 1
                child = stack.pop()
                stat[0] += 1
                if not depth[0]:
                    stat[1] += dt
                cell[0] += dt - child
                if stack:
                    stack[-1] += dt
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counter(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after_run(self, args, _result) -> None:
        engine = args[0]
        self.engines.append((engine.pops,
                             len(getattr(engine, "_timer_gen", ()))))

    def _after_dequeue(self, _args, result) -> None:
        frame = result[0]
        if frame is not None:
            name = tx_class(frame)
            self.counts[name] = self.counts.get(name, 0) + 1

    # -- install / restore --

    def _replace(self, owner: object, attr: str, make: Callable) -> None:
        if isinstance(owner, type):
            original = owner.__dict__.get(attr)
        else:
            original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(span_name(owner, attr))
            return
        wrapped = make(original)
        if isinstance(owner, type):
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            return
        # a module-level function: replace it wherever a spon module holds it
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "spon"
                                   or mod_name.startswith("spon.")):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, name, value))
                    setattr(mod, name, wrapped)

    def __enter__(self) -> "Tracer":
        after = {"Engine.run": self._after_run,
                 "NodeState.scheduler_dequeue": self._after_dequeue}
        for layer, owner, attr in SPANS:
            name = span_name(owner, attr)
            self._replace(owner, attr, functools.partial(
                self._span, layer, name, after=after.get(name)))
        for name, owner, attr in COUNTS:
            self._replace(owner, attr, functools.partial(self._counter, name))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        for layer, cell in self._layer_cells.items():
            self.self_s[layer] = cell[0]

    # -- results --

    def calls(self, key: str) -> int:
        return int(self.spans.get(key, (0, 0.0))[0])

    def seconds(self, key: str) -> float:
        return float(self.spans.get(key, (0, 0.0))[1])
