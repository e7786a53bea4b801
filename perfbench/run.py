"""spon benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload ping-flood-loss --seed 1 \
        --seconds 30 --trace 0

Run from the root of a checkout; the simulator is imported from `src/` next
to this directory.  With `--trace 0` the workload is repeated for about
`--seconds` seconds and the end-to-end metrics are printed; with `--trace 1`
it runs once untraced and once traced, and the per-layer metrics are printed.
Every run checks its outputs.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Artifacts and a full
record of the run go to `.bench_out/<workload>/`.  See perfbench/README.md.
"""

import argparse
import ast
import contextlib
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

SETUP_SAMPLES = 9
SETUP_TIMEOUT_S = 60

# A fresh interpreter that stops at the first simulated event: it covers
# import, make_scenario, and topology load and validation.  It runs under the
# speed probe and writes the probe's figures to standard output.
SETUP_CHILD = """\
import os, sys
sys.path.insert(0, {bench!r})
from probe import SpeedProbe
speed = SpeedProbe()
speed.__enter__()
sys.path.insert(0, {src!r})
from spon import netsim
from spon.experiments import make_scenario, run_scenario
def first_event(engine, horizon_ms):
    speed.__exit__(None, None, None)
    os.write(1, repr((speed.host_s, speed.ref_s, sum(speed.probe_s))).encode())
    os._exit(0)
netsim.Engine.run = first_event
run_scenario(make_scenario({scenario!r}, seed={seed!r}, **{overrides!r}))
sys.exit(3)
"""

COUNTER_METRICS = (
    ("netsim.wire_tx", "wire_tx"), ("netsim.wire_lost", "wire_lost"),
    ("netsim.delivered", "delivered"), ("netsim.inflight_lost", "inflight_lost"),
    ("overlay.hop_duplicate", "hop_duplicate"),
    ("overlay.hop_unrecoverable", "hop_unrecoverable"),
    ("overlay.hop_gave_up", "hop_gave_up"), ("overlay.duplicate", "duplicate"),
    ("overlay.buffer_full", "buffer_full"),
    ("overlay.deadline_expired", "deadline_expired"),
    ("overlay.rel_retransmit", "rel_retransmit"),
    ("payment.fulfilled", "fulfilled"),
    ("payment.stream_retries", "stream_retries"),
)

# metric prefix -> traced span, reported as .calls and .s
SPAN_METRICS = (
    ("overlay.client_send", "overlay.NodeState.client_send"),
    ("overlay.handle_frame", "overlay.NodeState.handle_frame"),
    ("overlay.handle_timer", "overlay.NodeState.handle_timer"),
    ("overlay.scheduler_dequeue", "overlay.NodeState.scheduler_dequeue"),
    ("overlay.wrap_for_link", "overlay.NodeState.wrap_for_link"),
    ("topology.k_disjoint_paths", "topology.k_disjoint_paths"),
    ("topology.shortest_path", "topology.shortest_path"),
    ("frames.wire_size", "frames.Frame.wire_size"),
)
# spans that fairness-ramp never enters: reported as .calls only, because a
# time would read exactly 0.0 there on every run
CALL_METRICS = (
    ("overlay.recompute_routes", "overlay.NodeState.recompute_routes"),
    ("payment.handle_packet", "payment.IlpNode.handle_packet"),
    ("payment.on_timer", "payment.IlpNode.on_timer"),
)

# simulated, not host, milliseconds
SIM_UNITS = {"sim_rtt_ms.p50": "sim_ms", "sim_rtt_ms.p98": "sim_ms",
             "sim_payment_ms": "sim_ms", "sim_honest_mbps": "Mbps"}


def bootstrap() -> None:
    """Import the simulator from this checkout, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "spon", "experiments.py")):
        sys.exit(f"perfbench: no simulator source at {SRC}")
    sys.path.insert(0, SRC)
    import spon.experiments
    where = os.path.dirname(os.path.abspath(spon.experiments.__file__))
    if where != os.path.join(SRC, "spon"):
        sys.exit(f"perfbench: spon imported from {where}, not {SRC}")


def fresh_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


def run_once(wl, seed: int, out_dir: str, timed=contextlib.nullcontext):
    """One workload run, timed, with `timed()` entered around exactly the
    timed part; returns (seconds, scenario, reports)."""
    from spon.experiments import make_scenario, run_scenario
    fresh_dir(out_dir)
    gc.collect()
    with timed():
        t0 = time.perf_counter()
        sc = make_scenario(wl.scenario, seed=seed, **wl.overrides)
        reports = run_scenario(sc, out_dir)
        seconds = time.perf_counter() - t0
    return seconds, sc, reports


def reload_matches(reports, out_dir: str) -> bool:
    """The raw CSVs on disk hold exactly the rows the run reported."""
    from spon.experiments import load_raw_reports
    loaded = {rep.variant: rep.rows for rep in load_raw_reports(out_dir)}
    return all(loaded.get(rep.variant) == rep.rows for rep in reports)


def measure_setup(wl, seed: int):
    """Set-up seconds of fresh interpreters: (as measured, at the reference
    speed).  The child's probe speed rescales its whole lifetime, the
    interpreter start it cannot probe included; probe time is left out."""
    code = SETUP_CHILD.format(bench=os.path.dirname(os.path.abspath(__file__)),
                              src=SRC, scenario=wl.scenario, seed=seed,
                              overrides=wl.overrides)
    host, ref = [], []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, timeout=SETUP_TIMEOUT_S)
        seconds = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError("set-up child failed: "
                               + proc.stderr.decode(errors="replace")[-400:])
        work_s, ref_s, probe_s = ast.literal_eval(proc.stdout.decode())
        host.append(seconds - probe_s)
        ref.append((seconds - probe_s) * ref_s / work_s)
    return host, ref


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def check(outcome, reports, out_dir: str) -> list:
    """Output checks for one run: settlement and the artifact round trip."""
    problems = list(outcome.problems)
    if not reload_matches(reports, out_dir):
        problems.append("raw CSVs on disk differ from the reported rows")
    return problems


def untraced(wl, seed: int, seconds: float, out_root: str) -> dict:
    from probe import SpeedProbe
    from workloads import measure
    setup_host, setup = measure_setup(wl, seed)
    out_dir = os.path.join(out_root, "untraced")
    for _ in range(wl.warmup):
        run_once(wl, seed, out_dir)
    deadline = time.perf_counter() + seconds
    ref_walls, walls, digests = [], [], set()
    attempted = failed = 0
    problems = []
    while True:
        speed = SpeedProbe()
        elapsed, sc, reports = run_once(wl, seed, out_dir, lambda: speed)
        outcome = measure(sc, reports, out_dir)
        if not walls:
            problems += check(outcome, reports, out_dir)
            first = outcome
        ref_walls.append(speed.ref_s)
        walls.append(speed.host_s)
        digests.add(outcome.digest)
        attempted += outcome.attempted
        failed += outcome.failed
        if time.perf_counter() + elapsed > deadline:
            break
    if len(digests) != 1:
        problems.append("repeated runs of one seed wrote different raw CSVs")
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "ref_wall_s": (statistics.median(ref_walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_mib, "MiB"),
        "success_frac": (1.0 - first.failed_frac, "frac"),
        "wire_tx_per_delivered": (first.wire_tx_per_delivered, "tx/msg"),
    }
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems, "outcome": first,
            "detail": {"ref_wall_s": ref_walls, "wall_s": walls,
                       "setup_s": setup, "setup_host_s": setup_host,
                       "ref_wall_s.quartiles": quartiles(ref_walls),
                       "wall_s.quartiles": quartiles(walls)}}


def traced(wl, seed: int, out_root: str) -> dict:
    from tracer import LAYERS, TX_CLASSES, Tracer
    from workloads import BASELINE_COUNTS, DEFAULT_SEED, measure
    plain_dir = os.path.join(out_root, "untraced")
    wall_plain, sc, reports = run_once(wl, seed, plain_dir)
    plain = measure(sc, reports, plain_dir)
    problems = check(plain, reports, plain_dir)

    traced_dir = os.path.join(out_root, "traced")
    with Tracer() as tr:
        wall_traced, sc, reports = run_once(wl, seed, traced_dir)
    outcome = measure(sc, reports, traced_dir)
    if outcome.digest != plain.digest:
        problems.append("traced and untraced runs wrote different raw CSVs")

    counters = {}
    for rep in reports:
        for key, value in rep.counters.items():
            counters[key] = counters.get(key, 0) + value
    events = sum(pops for pops, _ in tr.engines)
    m = {"netsim.events": (events, "count")}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (tr.self_s[layer], "s")
    m["netsim.us_per_event"] = (
        1e6 * tr.self_s["netsim"] / events if events else 0.0, "us")
    m["netsim.timers_set"] = (tr.counts["netsim.timers_set"], "count")
    m["netsim.timer_entries"] = (max((n for _, n in tr.engines), default=0),
                                 "count")
    m["netsim.init_s"] = (tr.seconds("netsim.Engine.__init__"), "s")
    for name, key in COUNTER_METRICS:
        m[name] = (counters.get(key, 0), "count")
    for name, span in SPAN_METRICS:
        m[f"{name}.calls"] = (tr.calls(span), "count")
        m[f"{name}.s"] = (tr.seconds(span), "s")
    for name, span in CALL_METRICS:
        m[f"{name}.calls"] = (tr.calls(span), "count")
    for name in TX_CLASSES:
        m[f"overlay.{name}"] = (tr.counts[name], "count")
    m["topology.apply_fault.calls"] = (tr.calls("topology.apply_fault"),
                                       "count")
    sends = tr.calls("overlay.NodeState.client_send")
    route_calls = (tr.calls("topology.k_disjoint_paths")
                   + tr.calls("topology.shortest_path"))
    m["topology.route_calls_per_send"] = (
        route_calls / sends if sends else 0.0, "ratio")
    m["payment.ledger_ops"] = (tr.counts["payment.ledger_ops"], "count")
    m["payment.settle_check.s"] = (tr.seconds("payment.settle_check"), "s")
    m["experiments.raw_rows"] = (outcome.raw_rows, "count")
    m["trace.wall_s"] = (wall_traced, "s")
    m["trace.overhead_s"] = (wall_traced - wall_plain, "s")
    m["failed_frac"] = (outcome.failed_frac, "frac")
    for name, unit in SIM_UNITS.items():
        m[name] = (outcome.sim[name] or 0.0, unit)

    notes = []
    if tr.missing:
        notes.append(f"not traced, missing: {', '.join(tr.missing)}")
    tx_sum = sum(tr.counts.get(name, 0) for name in TX_CLASSES)
    if tx_sum != counters.get("wire_tx", 0):
        notes.append(f"transmission classes sum to {tx_sum}, "
                     f"wire_tx is {counters.get('wire_tx', 0)}")
    # every workload runs one repetition, so one engine run per variant
    per_variant = {}
    for variant, rep, (pops, _) in zip(sc.variants, reports, tr.engines):
        per_variant[variant] = (pops, rep.counters.get("wire_tx", 0))
    for (name, variant), expected in BASELINE_COUNTS.items():
        if name == wl.name and variant in per_variant \
                and seed == DEFAULT_SEED:
            got = per_variant[variant]
            verdict = "matches" if got == expected else "differs from"
            notes.append(f"{variant} events, wire_tx = {got[0]}, {got[1]} "
                         f"{verdict} the baseline {expected[0]}, {expected[1]}")
    return {"metrics": m, "attempted": plain.attempted + outcome.attempted,
            "failed": plain.failed + outcome.failed, "problems": problems,
            "outcome": outcome, "notes": notes,
            "detail": {"untraced_wall_s": wall_plain,
                       "per_variant_events_wire_tx": per_variant,
                       "spans": {k: v[:2] for k, v in tr.spans.items()},
                       "counts": tr.counts}}


def fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def report(wl, seed: int, mode: str, res: dict) -> None:
    outcome = res["outcome"]
    print(f"== {wl.name}  scenario={wl.scenario}  seed={seed}  "
          f"loop={wl.loop}  {mode}")
    for name, (value, unit) in res["metrics"].items():
        print(f"  {name:<36} {fmt(value):>14} {unit}")
    if mode == "untraced":
        runs = len(res["detail"]["wall_s"])
        for name in ("ref_wall_s", "wall_s"):
            q1, q2, q3 = res["detail"][f"{name}.quartiles"]
            print(f"  {name} over {runs} runs: q1 {q1:.4f}  median {q2:.4f}"
                  f"  q3 {q3:.4f} s")
        host = res["detail"]["setup_host_s"]
        print(f"  setup_s as measured over {len(host)} interpreters: median "
              f"{statistics.median(host):.4f} s")
        print(f"  failed_frac {outcome.failed_frac:.6g} "
              f"({outcome.failed} of {outcome.attempted} operations)")
        for name, value in outcome.sim.items():
            if value is not None:
                print(f"  {name:<36} {fmt(value):>14} {SIM_UNITS[name]}")
    for variant, digest in outcome.variant_digests.items():
        print(f"  raw_{variant}.csv sha256 {digest}")
    print(f"  raw CSVs sha256 {outcome.digest}")
    for note in res.get("notes", ()):
        print(f"  note: {note}")
    for problem in res["problems"]:
        print(f"  CHECK FAILED: {problem}")


def finite(value) -> float:
    return value if math.isfinite(value) else 0.0


def run_workload(wl, seed: int, seconds: float, trace: bool,
                 out_base: str) -> dict:
    out_root = os.path.join(out_base, wl.name)
    mode = "traced" if trace else "untraced"
    try:
        res = traced(wl, seed, out_root) if trace \
            else untraced(wl, seed, seconds, out_root)
    except Exception:
        # a run that raises fails all of its operations; report, not hide it
        traceback.print_exc()
        from spon.experiments import make_scenario
        from workloads import ops_per_variant
        sc = make_scenario(wl.scenario, seed=seed, **wl.overrides)
        ops = ops_per_variant(sc) * len(sc.variants)
        print(f"== {wl.name}  seed={seed}  {mode}: the run raised, "
              f"all {ops} operations failed")
        return {"workload": wl.name, "correct": False, "attempted": ops,
                "failed": ops, "metrics": {}}
    report(wl, seed, mode, res)
    record = {
        "workload": wl.name, "scenario": wl.scenario, "seed": seed,
        "mode": mode, "correct": not res["problems"],
        "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {k: {"value": finite(v), "unit": u}
                    for k, (v, u) in res["metrics"].items()},
        "sim": res["outcome"].sim,
        "raw_sha256": res["outcome"].variant_digests,
        "raw_sha256_all": res["outcome"].digest,
        "problems": res["problems"], "notes": res.get("notes", []),
        "detail": res["detail"],
    }
    path = os.path.join(out_root, f"seed{seed}-{mode}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return record


def run_child(name: str, seed: int, seconds: float, trace: int,
              out_base: str) -> dict:
    """One workload and mode in a child process of its own, so that each
    run's peak memory is its own; returns the run's record."""
    mode = "traced" if trace else "untraced"
    path = os.path.join(out_base, name, f"seed{seed}-{mode}.json")
    if os.path.exists(path):
        os.remove(path)
    subprocess.run([sys.executable, os.path.abspath(__file__),
                    "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace),
                    "--out", out_base], check=False)
    if not os.path.exists(path):
        return {"workload": name, "correct": False, "attempted": 0,
                "failed": 0, "metrics": {}}
    with open(path) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    bootstrap()
    from workloads import DEFAULT_SEED, WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="0: end-to-end metrics, 1: per-layer metrics "
                         "(default: both, one after the other)")
    ap.add_argument("--out", default=os.path.join(ROOT, ".bench_out"))
    args = ap.parse_args(argv)

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = [args.trace] if args.trace is not None else [0, 1]
    if len(names) * len(modes) == 1:
        records = [run_workload(WORKLOADS[names[0]], args.seed, args.seconds,
                                bool(modes[0]), args.out)]
        metrics = records[0]["metrics"]
    else:
        records = [run_child(name, args.seed, args.seconds, trace, args.out)
                   for name in names for trace in modes]
        metrics = {f"{r['workload']}/{k}": v for r in records
                   for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0 if all(r["metrics"] for r in records) else 1

if __name__ == "__main__":
    sys.exit(main())
