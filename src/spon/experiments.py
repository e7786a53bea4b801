"""Reproducible measurement scenarios over the simulated overlay.

A Scenario names a topology, a pair of payment parties, a fault script, and a
set of variants to compare.  Variants are either `baseline` (the parties talk
over a fixed raw path with a plain retransmitting transport) or an overlay
service such as `pri-fld` or `rel-2p`.  Each (variant, repetition) pair runs
in its own Engine with a seed derived from the scenario seed, so runs are
independent and byte-reproducible.

Artifacts: `raw_<variant>.csv` (one row per packet / payment / throughput
bucket), `settle_<variant>.txt` (a failed settlement audit and its problem
lines), `summary.csv` and `summary.txt` (per-variant aggregates with percent
gain against the baseline).  Summaries are always recomputed from the raw
files, so the files stay self-consistent.
"""

import csv
import hashlib
import os
import statistics
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .netsim import (AsUnderlay, Client, Engine, EngineApi, FaultEvent,
                     RawLink, meltdown_schedule)
from .overlay import DEFAULT_CONFIG, PRI, REL, Config, ServiceClass
from .payment import (DirectTransport, IlpNode, Ledger, OverlayTransport,
                      PeerLink, STREAM_COMPLETE, STREAM_FAILED,
                      STREAM_RUNNING, TxLog, settle_check)
from .topology import Change, Topology, load_topology

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

RAW_COLUMNS = ("rep", "seed", "kind", "idx", "t_start_ms", "t_end_ms",
               "value_ms", "status")
SUMMARY_COLUMNS = ("scenario", "variant", "metric", "n", "mean", "stddev",
                   "gain_pct")

STREAM_SECRET = b"spon-stream"

BASELINE_VARIANTS = ("baseline", "baseline-cut")
LOSS_VARIANTS = ("baseline", "pri-fld", "pri-1p", "pri-2p",
                 "rel-fld", "rel-1p", "rel-2p")


class ScenarioError(ValueError):
    """Scenario configuration does not resolve against its topology."""


def variant_service(variant: str) -> Optional[ServiceClass]:
    """Map a variant name to its overlay service; None means baseline."""
    if variant in BASELINE_VARIANTS:
        return None
    try:
        head, tail = variant.split("-")
        kind = {"pri": PRI, "rel": REL}[head]
        k = 0 if tail == "fld" else int(tail.rstrip("p"))
    except (ValueError, KeyError):
        raise ScenarioError(f"unknown variant {variant!r}")
    return ServiceClass(kind, k)


def variant_name(service: str, k: int) -> str:
    return f"{service}-fld" if k == 0 else f"{service}-{k}p"


# --- scenario definition --------------------------------------------------------------

@dataclass
class Scenario:
    name: str
    kind: str                        # ping | stream | fairness | bgp
    topo_file: str
    sender: str = ""
    receiver: str = ""
    variants: Tuple[str, ...] = ()
    seed: int = 1
    reps: int = 5
    horizon_ms: float = 60_000.0
    baseline_path: Tuple[str, ...] = ()
    cut_path: Tuple[str, ...] = ()   # faster path pinned through the fault zone
    loss_link: Optional[Tuple[str, str]] = None
    loss_pct: float = 0.0
    faults: Tuple[FaultEvent, ...] = ()
    # payments
    payments: int = 1
    total_amount: int = 0
    packet_amount: int = 0
    # pings
    ping_count: int = 0
    ping_interval_ms: float = 1000.0
    ping_timeout_ms: float = 1000.0
    # fairness
    clients_per_flow: int = 100
    ramp_interval_ms: float = 1000.0
    # AS underlay
    as_edges: Tuple[Tuple[int, int], ...] = ()
    direct_as_pair: Optional[Tuple[int, int]] = None
    config: Config = DEFAULT_CONFIG

    def validate(self) -> Topology:
        if self.reps < 1:
            raise ScenarioError("repetitions must be >= 1")
        if not 0.0 <= self.loss_pct <= 100.0:
            raise ScenarioError("loss percent out of range")
        topo = load_topology(self.topo_file)
        for client in filter(None, (self.sender, self.receiver)):
            if client not in topo.attachments:
                raise ScenarioError(f"client {client!r} not attached")
        links = {frozenset((ls.a, ls.b)) for ls in topo.links}
        for path in (self.baseline_path, self.cut_path):
            for a, b in zip(path, path[1:]):
                if frozenset((a, b)) not in links:
                    raise ScenarioError(f"no link {a}-{b} on pinned path")
        if self.loss_link is not None \
                and frozenset(self.loss_link) not in links:
            raise ScenarioError(f"loss link {self.loss_link} not in topology")
        if self.kind == "fairness":
            bad = set(self.variants) - {"solo", "ramp"}
            if bad:
                raise ScenarioError(f"unknown fairness variants {sorted(bad)}")
        else:
            for v in self.variants:
                variant_service(v)
        return topo


def _topo_path(name: str) -> str:
    return os.path.join(DATA_DIR, name)


def chain_ping_loss(loss: float = 0.0, seed: int = 1, reps: int = 5,
                    pings: int = 100,
                    variants: Optional[Sequence[str]] = None) -> Scenario:
    """100 probes at 1/s between the chain edge nodes; loss on the 12-13 hop."""
    return Scenario(
        name="chain-ping-loss", kind="ping",
        topo_file=_topo_path("chain.topo"),
        sender="c1", receiver="c5",
        variants=tuple(variants or LOSS_VARIANTS),
        seed=seed, reps=reps,
        horizon_ms=pings * Scenario.ping_interval_ms + 10_000.0,
        baseline_path=("1", "12", "13", "14", "5"),
        loss_link=("12", "13"), loss_pct=loss,
        ping_count=pings)


def chain_stream_loss(loss: float = 0.0, seed: int = 1, reps: int = 5,
                      payments: int = 20, total: int = 100_000,
                      packet: int = 100,
                      variants: Optional[Sequence[str]] = None) -> Scenario:
    """Sequential micro-payment streams across the chain; loss on 12-13."""
    n_packets = -(-total // packet)
    return Scenario(
        name="chain-stream-loss", kind="stream",
        topo_file=_topo_path("chain.topo"),
        sender="c1", receiver="c5",
        variants=tuple(variants or LOSS_VARIANTS),
        seed=seed, reps=reps,
        horizon_ms=max(120_000.0, payments * n_packets * 0.4 * 1000.0),
        baseline_path=("1", "12", "13", "14", "5"),
        loss_link=("12", "13"), loss_pct=loss,
        payments=payments, total_amount=total, packet_amount=packet)


def global_stream_loss(loss: float = 0.0, seed: int = 1, reps: int = 5,
                       payments: int = 16, total: int = 100_000,
                       packet: int = 500,
                       variants: Optional[Sequence[str]] = None) -> Scenario:
    """Intercontinental streams FRA -> HKG; loss on the HKG-SJC hop."""
    n_packets = -(-total // packet)
    return Scenario(
        name="global-stream-loss", kind="stream",
        topo_file=_topo_path("global.topo"),
        sender="cFRA", receiver="cHKG",
        variants=tuple(variants or LOSS_VARIANTS),
        seed=seed, reps=reps,
        horizon_ms=max(300_000.0, payments * n_packets * 2.5 * 1000.0),
        baseline_path=("FRA", "LON", "NYC", "SJC", "HKG"),
        loss_link=("HKG", "SJC"), loss_pct=loss,
        payments=payments, total_amount=total, packet_amount=packet)


def chain_meltdown(seed: int = 1, reps: int = 1, total: int = 100_000,
                   packet: int = 10,
                   variants: Optional[Sequence[str]] = None) -> Scenario:
    """Cut relays 2, 7, 14 in 40 s waves, five times, during one long stream.

    Every wave kills all routes except 1-9-10-11-5.  `baseline` pins the raw
    pipe to that surviving path; `baseline-cut` pins it to the fastest path,
    which dies in every wave.
    """
    return Scenario(
        name="chain-meltdown", kind="stream",
        topo_file=_topo_path("chain.topo"),
        sender="c1", receiver="c5",
        variants=tuple(variants or ("baseline", "baseline-cut", "pri-fld",
                                    "pri-1p", "pri-2p")),
        seed=seed, reps=reps,
        horizon_ms=1_200_000.0,
        baseline_path=("1", "9", "10", "11", "5"),
        cut_path=("1", "12", "13", "14", "5"),
        faults=tuple(meltdown_schedule(("2", "7", "14"), 40_000.0, 40_000.0,
                                       40_000.0, 5)),
        payments=1, total_amount=total, packet_amount=packet)


def global_meltdown(seed: int = 1, reps: int = 5, total: int = 80_000,
                    packet: int = 50,
                    variants: Optional[Sequence[str]] = None) -> Scenario:
    """Cut seven global relays in 40 s waves, sparing FRA-CHI-DEN-LAX-HKG."""
    return Scenario(
        name="global-meltdown", kind="stream",
        topo_file=_topo_path("global.topo"),
        sender="cFRA", receiver="cHKG",
        variants=tuple(variants or ("baseline", "pri-fld", "pri-1p",
                                    "pri-2p")),
        seed=seed, reps=reps,
        horizon_ms=1_500_000.0,
        baseline_path=("FRA", "CHI", "DEN", "LAX", "HKG"),
        faults=tuple(meltdown_schedule(
            ("SJC", "NYC", "LON", "WAS", "JHU", "DFW", "ATL"),
            40_000.0, 40_000.0, 40_000.0, 5)),
        payments=1, total_amount=total, packet_amount=packet)


def fairness(clients_per_flow: int = 100, ramp_interval_ms: float = 1000.0,
             seed: int = 1, reps: int = 1, measure_ms: float = 30_000.0,
             variants: Optional[Sequence[str]] = None) -> Scenario:
    """An honest flow at full rate vs a second flow ramping up to full rate.

    Both flows cross the shared 15 Mbps bottleneck with per-source fair
    queuing; the contender attaches one client per interval until all of
    `clients_per_flow` are sending.
    """
    horizon = clients_per_flow * ramp_interval_ms + measure_ms
    return Scenario(
        name="fairness", kind="fairness",
        topo_file=_topo_path("fairness.topo"),
        sender="c5", receiver="c2",
        variants=tuple(variants or ("solo", "ramp")),
        seed=seed, reps=reps,
        horizon_ms=horizon,
        clients_per_flow=clients_per_flow,
        ramp_interval_ms=ramp_interval_ms,
        # shallow per-flow buffers so saturation shows up as tail drops
        # rather than sojourn times beyond the delivery deadline; the metric
        # here is bandwidth share, not timeliness
        config=Config(buffer_capacity=64, deadline_factor=40.0))


def bgp(seed: int = 1, reps: int = 1, total: int = 1000, packet: int = 100,
        variants: Optional[Sequence[str]] = None) -> Scenario:
    """AS-level hijack splits AS2 from AS4 while a payment is attempted.

    The direct pairing rides the hijacked AS2->AS4 route and gets nothing
    through; the overlay relays are homed to an extra AS and stay connected.
    """
    return Scenario(
        name="bgp", kind="stream",
        topo_file=_topo_path("bgp.topo"),
        sender="cX", receiver="cY",
        variants=tuple(variants or ("baseline", "pri-1p")),
        seed=seed, reps=reps,
        horizon_ms=20_000.0,
        baseline_path=("RA", "RB"),
        faults=(FaultEvent(0.0, hijack=(2, 4)),),
        payments=1, total_amount=total, packet_amount=packet,
        as_edges=((2, 3), (3, 4), (2, 5), (4, 5)),
        direct_as_pair=(2, 4))


SCENARIOS = {
    "chain-ping-loss": chain_ping_loss,
    "chain-stream-loss": chain_stream_loss,
    "global-stream-loss": global_stream_loss,
    "chain-meltdown": chain_meltdown,
    "global-meltdown": global_meltdown,
    "fairness": fairness,
    "bgp": bgp,
}


def make_scenario(name: str, **overrides) -> Scenario:
    try:
        builder = SCENARIOS[name]
    except KeyError:
        raise ScenarioError(f"unknown scenario {name!r}; "
                            f"choose from {sorted(SCENARIOS)}")
    return builder(**overrides)


# --- drivers --------------------------------------------------------------------------

class PingDriver(IlpNode):
    """Fires one probe train at start and keeps the results."""

    def __init__(self, *args, dst_addr: str, count: int, interval_ms: float,
                 timeout_ms: float, **kwargs):
        super().__init__(*args, **kwargs)
        self.ping_dst = dst_addr
        self.ping_count = count
        self.ping_interval = interval_ms
        self.ping_timeout = timeout_ms
        self.probe_id = -1

    def on_start(self, api: EngineApi) -> None:
        self.probe_id = self.start_ping(api, self.ping_dst, STREAM_SECRET,
                                        count=self.ping_count,
                                        interval_ms=self.ping_interval,
                                        timeout_ms=self.ping_timeout)


class StreamDriver(IlpNode):
    """Sends a fixed number of payments back to back."""

    def __init__(self, *args, dst_addr: str, payments: int, total: int,
                 packet: int, **kwargs):
        super().__init__(*args, **kwargs)
        self.stream_dst = dst_addr
        self.goal = payments
        self.total = total
        self.packet = packet

    def on_start(self, api: EngineApi) -> None:
        self.start_stream(api, self.stream_dst, STREAM_SECRET, self.total,
                          self.packet)

    def _stream_finish(self, api: EngineApi, sess, state: str) -> None:
        super()._stream_finish(api, sess, state)
        if state == STREAM_COMPLETE and len(self.sessions) < self.goal:
            self.start_stream(api, self.stream_dst, STREAM_SECRET, self.total,
                              self.packet)


# a flow source adds credit and sends what it affords once per tick
FLOW_TICK_MS = 5.0
# each fairness flow offers the bottleneck's full rate in packets of this size
CAPACITY_MBPS = 15.0
PAYLOAD_BYTES = 1200


class FlowSource(Client):
    """Paced packet generator; offered rate may ramp as clients attach."""

    def __init__(self, client_id: str, dst_client: str, clients_max: int = 1,
                 ramp_interval_ms: float = 0.0):
        super().__init__(client_id)
        self.dst = dst_client
        self.clients_max = clients_max
        self.ramp_interval = ramp_interval_ms
        self.service = ServiceClass(PRI, 1)
        self.credit = 0.0
        self.seq = 0

    def offered_mbps(self, now: float) -> float:
        if self.ramp_interval <= 0:
            return CAPACITY_MBPS
        attached = min(self.clients_max, int(now // self.ramp_interval) + 1)
        return CAPACITY_MBPS * attached / self.clients_max

    def on_start(self, api: EngineApi) -> None:
        api.set_timer(self.client_id, ("tick",), FLOW_TICK_MS)

    def on_timer(self, timer_id: tuple, data, api: EngineApi) -> None:
        self.credit += self.offered_mbps(api.now) * 1e6 / 8e3 * FLOW_TICK_MS
        n = int(self.credit // PAYLOAD_BYTES)
        self.credit -= n * PAYLOAD_BYTES
        for _ in range(n):
            body = self.seq.to_bytes(8, "big").ljust(PAYLOAD_BYTES, b"\x00")
            api.send(self.client_id, self.dst, body, self.service)
            self.seq += 1
        api.set_timer(self.client_id, ("tick",), FLOW_TICK_MS)


class FlowSink(Client):
    """Accumulates delivered wire bytes into one-second buckets per source."""

    def __init__(self, client_id: str):
        super().__init__(client_id)
        self.bucket_bytes: Dict[Tuple[str, int], int] = {}

    def on_deliver(self, src_client: str, body: bytes, wire_bytes: int,
                   api: EngineApi) -> None:
        key = (src_client, int(api.now // 1000.0))
        self.bucket_bytes[key] = self.bucket_bytes.get(key, 0) + wire_bytes


# --- single runs ----------------------------------------------------------------------

@dataclass
class RunResult:
    rows: List[tuple]
    counters: Dict[str, int]
    settle_ok: bool
    completed: bool
    problems: List[str]


def derive_seed(scenario: str, variant: str, seed: int, rep: int) -> int:
    tag = f"{scenario}:{variant}:{seed}:{rep}".encode()
    return int.from_bytes(hashlib.sha256(tag).digest()[:8], "big")


def _merge_counters(into: Dict[str, int], src: Dict[str, int],
                    prefix: str = "") -> None:
    for key, val in src.items():
        into[prefix + key] = into.get(prefix + key, 0) + val


def _run_payment_once(sc: Scenario, topo: Topology, variant: str, rep: int,
                      rep_seed: int) -> RunResult:
    service = variant_service(variant)
    txlog = TxLog()
    funds = max(sc.payments * sc.total_amount * 2, 1_000)
    ledger = Ledger("book", {sc.sender: funds, sc.receiver: 0})

    def transport():
        if service is None:
            return DirectTransport()
        return OverlayTransport(service)

    raw_links = []
    if service is None:
        path = sc.cut_path if variant == "baseline-cut" else sc.baseline_path
        raw_links.append(RawLink(sc.sender, sc.receiver, tuple(path),
                                 as_pair=sc.direct_as_pair))

    if sc.kind == "ping":
        sender = PingDriver(sc.sender, "g.src", transport(), txlog=txlog,
                            dst_addr="g.dst.pay", count=sc.ping_count,
                            interval_ms=sc.ping_interval_ms,
                            timeout_ms=sc.ping_timeout_ms)
    else:
        sender = StreamDriver(sc.sender, "g.src", transport(), txlog=txlog,
                              dst_addr="g.dst.pay",
                              payments=sc.payments, total=sc.total_amount,
                              packet=sc.packet_amount)
    receiver = IlpNode(sc.receiver, "g.dst", transport(),
                       secret=STREAM_SECRET, txlog=txlog)
    sender.add_link(PeerLink(sc.receiver, ledger, sc.sender, sc.receiver))
    sender.add_route("g.dst", sc.receiver)
    receiver.add_link(PeerLink(sc.sender, ledger, sc.receiver, sc.sender))
    receiver.add_route("g.src", sc.sender)

    faults = list(sc.faults)
    if sc.loss_link is not None and sc.loss_pct > 0:
        faults.insert(0, FaultEvent(0.0, change=Change.loss_override(
            sc.loss_link[0], sc.loss_link[1], sc.loss_pct / 100.0)))
    underlay = AsUnderlay(sc.as_edges) if sc.as_edges else None

    eng = Engine(topo, [sender, receiver], seed=rep_seed, config=sc.config,
                 faults=faults, raw_links=raw_links, underlay=underlay)
    eng.run(sc.horizon_ms)

    rows: List[tuple] = []
    counters: Dict[str, int] = {}
    completed = True
    if sc.kind == "ping":
        probe = sender.pings.get(sender.probe_id)
        for seq, sent, value, status in probe.outcomes:
            end = sent + value if status == "ok" else -1.0
            rows.append((rep, rep_seed, "ping", seq, _q(sent), _q(end),
                         _q(value), status))
        ok = sum(1 for outcome in probe.outcomes if outcome[3] == "ok")
        counters["ping_ok"] = ok
        counters["ping_timeouts"] = len(probe.outcomes) - ok
        completed = probe.sent == sc.ping_count
    else:
        state_names = {STREAM_COMPLETE: "complete", STREAM_FAILED: "failed",
                       STREAM_RUNNING: "incomplete"}
        for sid in sorted(sender.sessions):
            sess = sender.sessions[sid]
            end = eng.now if sess.state == STREAM_RUNNING else sess.finished_ms
            rows.append((rep, rep_seed, "payment", sid, _q(sess.started_ms),
                         _q(end), _q(end - sess.started_ms),
                         state_names[sess.state]))
            for seq, done, rtt in sess.packet_rtts:
                rows.append((rep, rep_seed, "packet", seq, _q(done - rtt),
                             _q(done), _q(rtt), "ok"))
            counters["fulfilled"] = counters.get("fulfilled", 0) \
                + sess.next_seq
            counters["stream_retries"] = counters.get("stream_retries", 0) \
                + sess.retries
            completed = completed and sess.state == STREAM_COMPLETE
        completed = completed and len(sender.sessions) == sc.payments

    report = settle_check([ledger], eng.now, txlog)
    problems = [f"rep {rep}: {p}" for p in report.problems]
    _merge_counters(counters, eng.counters)
    counters["pops"] = eng.pops
    _merge_counters(counters, sender.counters, "snd_")
    _merge_counters(counters, receiver.counters, "rcv_")
    return RunResult(rows, counters, report.ok, completed, problems)


def _run_fairness_once(sc: Scenario, topo: Topology, variant: str, rep: int,
                       rep_seed: int) -> RunResult:
    honest = FlowSource("c5", "c2")
    clients = [honest, FlowSink("c2")]
    flows = {"c5": "honest"}
    if variant == "ramp":
        clients.append(FlowSource("c6", "c2", clients_max=sc.clients_per_flow,
                                  ramp_interval_ms=sc.ramp_interval_ms))
        flows["c6"] = "malicious"
    sink = clients[1]

    eng = Engine(topo, clients, seed=rep_seed, config=sc.config,
                 faults=list(sc.faults))
    eng.run(sc.horizon_ms)

    rows: List[tuple] = []
    whole_buckets = int(sc.horizon_ms // 1000.0)
    for b in range(whole_buckets):
        for src in sorted(flows):
            mbps = sink.bucket_bytes.get((src, b), 0) * 8.0 / 1e6
            rows.append((rep, rep_seed, "bucket", b, b * 1000.0,
                         (b + 1) * 1000.0, _q(mbps), flows[src]))

    counters: Dict[str, int] = {}
    _merge_counters(counters, eng.counters)
    counters["pops"] = eng.pops
    report = settle_check([], eng.now)
    return RunResult(rows, counters, report.ok, True,
                     [f"rep {rep}: {p}" for p in report.problems])


def _run_once(sc: Scenario, topo: Topology, variant: str, rep: int) -> RunResult:
    rep_seed = derive_seed(sc.name, variant, sc.seed, rep)
    if sc.kind == "fairness":
        return _run_fairness_once(sc, topo, variant, rep, rep_seed)
    return _run_payment_once(sc, topo, variant, rep, rep_seed)


# --- reports --------------------------------------------------------------------------

@dataclass
class MetricReport:
    scenario: str
    kind: str
    variant: str
    reps: int
    rows: List[tuple]
    samples: Dict[str, List[float]] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    settle_ok: bool = True
    completed: bool = True
    problems: List[str] = field(default_factory=list)

    def mean(self, metric: str) -> float:
        return statistics.fmean(self.samples[metric])


PRIMARY_METRIC = {"ping": "rtt_ms", "stream": "payment_ms",
                  "fairness": "malicious_mbps"}


def extract_samples(kind: str, rows: Iterable[tuple],
                    ramp_end_ms: float = 0.0) -> Dict[str, List[float]]:
    """Metric samples recomputed from raw rows (the artifact contract)."""
    out: Dict[str, List[float]] = {}
    for row in rows:
        _, _, rkind, _, t_start, _, value, status = row
        if kind == "ping" and rkind == "ping" and status == "ok":
            out.setdefault("rtt_ms", []).append(float(value))
        elif kind == "stream":
            if rkind == "payment" and status == "complete":
                out.setdefault("payment_ms", []).append(float(value))
            elif rkind == "packet":
                out.setdefault("packet_ms", []).append(float(value))
        elif kind == "fairness" and rkind == "bucket":
            if float(t_start) >= ramp_end_ms:
                out.setdefault(f"{status}_mbps", []).append(float(value))
    return out


def run_scenario(sc: Scenario,
                 out_dir: Optional[str] = None) -> List[MetricReport]:
    """Run every variant x repetition; emit raw CSVs plus a summary."""
    topo = sc.validate()
    ramp_end = sc.clients_per_flow * sc.ramp_interval_ms \
        if sc.kind == "fairness" else 0.0
    reports: List[MetricReport] = []
    for variant in sc.variants:
        rows: List[tuple] = []
        counters: Dict[str, int] = {}
        problems: List[str] = []
        settle_ok = True
        completed = True
        try:
            for rep in range(sc.reps):
                result = _run_once(sc, topo, variant, rep)
                rows.extend(result.rows)
                _merge_counters(counters, result.counters)
                problems.extend(result.problems)
                settle_ok = settle_ok and result.settle_ok
                completed = completed and result.completed
        except Exception as exc:
            rows.append((-1, 0, "FAILED", 0, 0.0, 0.0, 0.0,
                         f"{type(exc).__name__}: {exc}"[:120]))
            if out_dir is not None:
                _write_raw(sc, variant, rows, out_dir, settle_ok, problems)
            raise
        report = MetricReport(sc.name, sc.kind, variant, sc.reps, rows,
                              extract_samples(sc.kind, rows, ramp_end),
                              counters, settle_ok, completed, problems)
        reports.append(report)
        if out_dir is not None:
            _write_raw(sc, variant, rows, out_dir, settle_ok, problems)
    if out_dir is not None:
        write_summary(reports, out_dir)
    return reports


# --- artifacts ------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _q(value: float) -> float:
    """Quantize to the CSV precision so in-memory rows equal reloaded ones."""
    return round(value, 6)


def _write_raw(sc: Scenario, variant: str, rows: List[tuple], out_dir: str,
               settle_ok: bool, problems: List[str]) -> None:
    os.makedirs(out_dir, exist_ok=True)
    ramp_end = sc.clients_per_flow * sc.ramp_interval_ms \
        if sc.kind == "fairness" else 0.0
    path = os.path.join(out_dir, f"raw_{variant}.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# scenario={sc.name} kind={sc.kind} variant={variant} "
                 f"seed={sc.seed} reps={sc.reps} ramp_end={ramp_end:.6f}\n")
        writer = csv.writer(fh)
        writer.writerow(RAW_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    settle = os.path.join(out_dir, f"settle_{variant}.txt")
    if problems or not settle_ok:
        with open(settle, "w", encoding="utf-8") as fh:
            fh.writelines(f"{line}\n" for line in
                          (f"settle_ok={int(settle_ok)}", *problems))
    elif os.path.exists(settle):
        os.remove(settle)       # an earlier run's, into the same directory


def summarize(reports: Sequence[MetricReport]) -> Tuple[List[tuple], str]:
    """Aggregate reports into summary rows and a text table.

    Mixing reports from different scenarios is rejected: gains against a
    baseline only mean something within one scenario.
    """
    if not reports:
        raise ScenarioError("nothing to summarize")
    names = {r.scenario for r in reports}
    if len(names) > 1:
        raise ScenarioError(f"mixed scenarios {sorted(names)}")
    kind = reports[0].kind
    primary = PRIMARY_METRIC.get(kind)
    base = next((r for r in reports if r.variant == "baseline"), None)
    base_mean = None
    if base is not None and base.samples.get(primary):
        base_mean = base.mean(primary)

    rows: List[tuple] = []
    for rep in reports:
        metrics = sorted(rep.samples,
                         key=lambda m: (m != primary, m))
        if not metrics:
            rows.append((rep.scenario, rep.variant, "none", 0, "NA", "NA",
                         "NA"))
        for metric in metrics:
            vals = rep.samples[metric]
            mean = statistics.fmean(vals)
            std = statistics.pstdev(vals) if len(vals) > 1 else 0.0
            gain = "NA"
            if metric == primary and base_mean:
                gain = _fmt(100.0 * (base_mean - mean) / base_mean)
            rows.append((rep.scenario, rep.variant, metric, len(vals),
                         _fmt(mean), _fmt(std), gain))

    lines = [f"scenario: {reports[0].scenario}"]
    header = f"{'variant':<14} {'metric':<14} {'n':>8} {'mean':>14} " \
             f"{'stddev':>12} {'gain%':>10}"
    lines.append(header)
    lines.append("-" * len(header))
    for _, variant, metric, n, mean, std, gain in rows:
        lines.append(f"{variant:<14} {metric:<14} {n:>8} {mean:>14} "
                     f"{std:>12} {gain:>10}")
    for rep in reports:
        flags = []
        if not rep.completed:
            flags.append("INCOMPLETE")
        if not rep.settle_ok:
            flags.append("SETTLE-FAILED")
        if flags:
            lines.append(f"{rep.variant}: {' '.join(flags)}")
        for problem in rep.problems:
            lines.append(f"{rep.variant}: {problem}")
    return rows, "\n".join(lines) + "\n"


def write_summary(reports: Sequence[MetricReport], out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    rows, text = summarize(reports)
    with open(os.path.join(out_dir, "summary.csv"), "w", encoding="utf-8",
              newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    with open(os.path.join(out_dir, "summary.txt"), "w",
              encoding="utf-8") as fh:
        fh.write(text)
    return text


def load_raw_reports(in_dir: str) -> List[MetricReport]:
    """Rebuild reports from raw CSVs so summaries can be regenerated."""
    reports: List[MetricReport] = []
    names = sorted(f for f in os.listdir(in_dir)
                   if f.startswith("raw_") and f.endswith(".csv"))
    names.sort(key=lambda f: (not f.startswith("raw_baseline"), f))
    for fname in names:
        path = os.path.join(in_dir, fname)
        with open(path, encoding="utf-8", newline="") as fh:
            first = fh.readline().strip()
            meta = dict(kv.split("=", 1) for kv in
                        first.lstrip("# ").split() if "=" in kv)
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or tuple(header) != RAW_COLUMNS:
                raise ScenarioError(f"{fname}: unexpected columns")
            rows = []
            for rec in reader:
                rep_i, seed, rkind, idx, t0, t1, val, status = rec
                rows.append((int(rep_i), int(seed), rkind, int(idx),
                             float(t0), float(t1), float(val), status))
        kind = meta.get("kind", "stream")
        scenario = meta.get("scenario", "unknown")
        ramp_end = float(meta.get("ramp_end", 0.0))
        settle = os.path.join(in_dir, f"settle_{fname[4:-4]}.txt")
        settled = ["settle_ok=1"]
        if os.path.exists(settle):
            with open(settle, encoding="utf-8") as fh:
                settled = fh.read().splitlines()
        reports.append(MetricReport(
            scenario, kind, meta.get("variant", fname[4:-4]),
            int(meta.get("reps", 1)), rows,
            extract_samples(kind, rows, ramp_end),
            settle_ok=settled[0] == "settle_ok=1", problems=settled[1:],
            # a stream that did not finish left a payment row that says so
            completed=all(row[7] == "complete" for row in rows
                          if row[2] == "payment")))
    if not reports:
        raise ScenarioError(f"no raw_*.csv files in {in_dir}")
    return reports
