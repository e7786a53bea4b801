"""End-to-end acceptance checks.

One test per claim, in a fixed order.  Each exercises a full scenario run
(or a randomized property) and pins the headline comparison: bounded
overhead on clean paths, gains under loss, survival through relay
meltdowns, fair sharing under a greedy flow, routing around a poisoned
underlay pairing, exact path optimality, exactly-once delivery, ledger
conservation, and bit-level reproducibility.

Latency criteria compare against a baseline that rides the same simulated
world over a pinned path, so every difference is attributable to the
overlay, not to the harness.
"""

import filecmp
import os
import random
import statistics
import time
from typing import Dict, List

import pytest

from helpers import (_Pump, _Sink, _random_lossy_world, oracle_disjoint,
                     random_view)
from spon.experiments import MetricReport, make_scenario, run_scenario
from spon.netsim import Engine, FaultEvent, ServiceClass
from spon.overlay import PRI, REL
from spon.topology import Change, NoPath, k_disjoint_paths

CAPACITY_MBPS = 15.0

# every report produced below feeds the conservation check at the end
REPORTS: List[MetricReport] = []


def run(sc) -> List[MetricReport]:
    reports = run_scenario(sc)
    REPORTS.extend(reports)
    return reports


def rep_mean(report: MetricReport, rep: int, kind: str) -> float:
    vals = [r[6] for r in report.rows
            if r[0] == rep and r[2] == kind and r[7] == "ok"]
    return statistics.fmean(vals)


# --- 1: clean-path overhead --------------------------------------------------------

def test_01_overhead_on_lossless_path_within_ten_percent():
    t0 = time.monotonic()
    base, fld = run(make_scenario("chain-ping-loss", loss=0.0, pings=60,
                                  reps=5, variants=("baseline", "pri-fld")))
    ping_ratio = fld.mean("rtt_ms") / base.mean("rtt_ms")
    base, fld = run(make_scenario("chain-stream-loss", loss=0.0, payments=3,
                                  total=2000, packet=100, reps=5,
                                  variants=("baseline", "pri-fld")))
    stream_ratio = fld.mean("payment_ms") / base.mean("payment_ms")
    wall = time.monotonic() - t0
    assert ping_ratio <= 1.10, f"ping overhead {ping_ratio:.4f}"
    assert stream_ratio <= 1.10, f"stream overhead {stream_ratio:.4f}"
    assert wall < 10.0, f"took {wall:.1f}s"


# --- 2: gain under loss, ordered ---------------------------------------------------

def test_02_lossy_link_gain_grows_with_loss_rate():
    gains: Dict[float, float] = {}
    for loss in (2.0, 5.0, 10.0):
        base, fld = run(make_scenario("chain-ping-loss", loss=loss, pings=400,
                                      reps=5, variants=("baseline", "pri-fld")))
        assert fld.mean("rtt_ms") < base.mean("rtt_ms"), f"no gain at {loss}%"
        # paired per-seed sign test: the overlay must win every seed
        wins = sum(1 for i in range(5)
                   if rep_mean(fld, i, "ping") < rep_mean(base, i, "ping"))
        assert wins == 5, f"sign test {wins}/5 at {loss}%"
        gains[loss] = 100.0 * (base.mean("rtt_ms") - fld.mean("rtt_ms")) \
            / base.mean("rtt_ms")
    assert gains[5.0] >= gains[2.0], f"gains not ordered: {gains}"


# --- 3: intercontinental stream ----------------------------------------------------

def test_03_long_haul_stream_cheap_when_clean_wins_under_loss():
    ratios: Dict[float, float] = {}
    for loss in (0.0, 2.0, 5.0):
        base, fld = run(make_scenario("global-stream-loss", loss=loss,
                                      payments=8, total=50_000, packet=500,
                                      reps=1, variants=("baseline", "pri-fld")))
        assert base.completed and fld.completed
        ratios[loss] = fld.mean("payment_ms") / base.mean("payment_ms")
    assert ratios[0.0] <= 1.05, f"clean overhead {ratios[0.0]:.4f}"
    assert ratios[2.0] < 1.0, f"no win at 2%: {ratios[2.0]:.4f}"
    assert ratios[5.0] < 1.0, f"no win at 5%: {ratios[5.0]:.4f}"


# --- 4: relay meltdown -------------------------------------------------------------

def test_04_stream_survives_cyclic_relay_meltdown():
    reports = run(make_scenario("chain-meltdown",
                                variants=("baseline-cut", "pri-fld", "pri-2p")))
    by_variant = {r.variant: r for r in reports}
    windows = [(40_000.0 + i * 80_000.0, 80_000.0 + i * 80_000.0)
               for i in range(5)]

    def completions_inside(report, lo, hi):
        return sum(1 for r in report.rows
                   if r[2] == "packet" and lo < r[5] <= hi)

    for name in ("pri-fld", "pri-2p"):
        r = by_variant[name]
        assert r.completed, f"{name} did not complete"
        assert r.counters["fulfilled"] == 10_000, name
        assert r.counters["stream_retries"] == 0, \
            f"{name} needed {r.counters['stream_retries']} retries"
        for lo, hi in windows:
            n = completions_inside(r, lo, hi)
            assert n > 0, f"{name} made no progress in {lo/1000:.0f}s window"

    cut = by_variant["baseline-cut"]
    for lo, hi in windows:
        n = completions_inside(cut, lo, hi)
        assert n == 0, \
            f"pinned path advanced {n} packets during {lo/1000:.0f}s outage"

    base, fld = run(make_scenario("global-meltdown", reps=1,
                                  variants=("baseline", "pri-fld")))
    assert base.completed and fld.completed
    ratio = fld.mean("payment_ms") / base.mean("payment_ms")
    assert abs(ratio - 1.0) <= 0.05, f"meltdown ratio {ratio:.4f}"


# --- 5: fair sharing against a greedy flow -----------------------------------------

def test_05_greedy_flow_capped_at_fair_share():
    sc = make_scenario("fairness", clients_per_flow=20, ramp_interval_ms=250.0,
                       measure_ms=15_000.0)
    solo, ramp = run(sc)
    ramp_end = sc.clients_per_flow * sc.ramp_interval_ms
    assert statistics.fmean(solo.samples["honest_mbps"]) \
        >= 0.85 * CAPACITY_MBPS, "lone flow throttled"

    def windows(label):
        vals = [r[6] for r in sorted(ramp.rows, key=lambda r: r[3])
                if r[7] == label and r[4] >= ramp_end]
        assert len(vals) >= 10, "not enough settled seconds"
        return [statistics.fmean(vals[i:i + 10])
                for i in range(len(vals) - 9)]

    for w in windows("malicious"):
        assert w <= 0.55 * CAPACITY_MBPS, f"greedy flow took {w:.2f} Mbps"
    for w in windows("honest"):
        assert w >= 0.45 * CAPACITY_MBPS, f"honest flow squeezed to {w:.2f} Mbps"


# --- 6: poisoned underlay pairing --------------------------------------------------

def test_06_payment_survives_poisoned_underlay_pairing():
    base, overlay = run(make_scenario("bgp"))
    assert base.counters.get("fulfilled", 0) == 0, "direct pairing delivered"
    assert not base.completed
    assert overlay.completed, "multi-homed route did not complete"


# --- 7: path optimality ------------------------------------------------------------

def test_07_disjoint_paths_match_brute_force_on_200_random_graphs():
    t0 = time.monotonic()
    rng = random.Random(2026)
    solved = 0
    for _ in range(200):
        view = random_view(rng)
        best = oracle_disjoint(view, "n0", "n1")
        k = rng.randint(1, 3)
        if not best:
            with pytest.raises(NoPath):
                k_disjoint_paths(view, "n0", "n1", k)
            continue
        paths = k_disjoint_paths(view, "n0", "n1", k)
        want = min(k, max(best))
        assert len(paths) == want
        total = sum(p.total_latency_ms for p in paths)
        assert total == best[want], f"{total} vs optimal {best[want]}"
        interiors = [set(p.hops[1:-1]) for p in paths]
        for i in range(len(paths)):
            assert paths[i].hops[0] == "n0" and paths[i].hops[-1] == "n1"
            for j in range(i + 1, len(paths)):
                assert not interiors[i] & interiors[j], "paths share a relay"
        solved += 1
    assert solved >= 150, f"only {solved} graphs had any route"
    wall = time.monotonic() - t0
    assert wall < 30.0, f"took {wall:.1f}s"


# --- 8: exactly-once delivery ------------------------------------------------------

def test_08_flooding_delivers_exactly_once_under_loss_and_outages():
    rng = random.Random(99)
    total_sent = 0
    for trial in range(25):
        topo, victim = _random_lossy_world(rng)
        for kind, svc in (("pri", ServiceClass(PRI, 0)),
                          ("rel", ServiceClass(REL, 0))):
            bodies = [f"{trial}:{kind}:{i}".encode() for i in range(200)]
            pump = _Pump("cs", "cr", bodies, svc)
            sink = _Sink("cr")
            faults = [FaultEvent(300.0, change=Change.node_down(victim)),
                      FaultEvent(700.0, change=Change.node_up(victim))]
            eng = Engine(topo, [pump, sink], seed=trial * 7 + 1, faults=faults)
            eng.run(4000.0)
            total_sent += len(pump.sent)
            counts: Dict[bytes, int] = {}
            for body in sink.got:
                counts[body] = counts.get(body, 0) + 1
            dups = {b: c for b, c in counts.items() if c > 1}
            assert not dups, f"trial {trial} {kind}: duplicates {dups}"
            ghosts = set(sink.got) - set(pump.sent)
            assert not ghosts, f"trial {trial} {kind}: unsent bodies delivered"
            if kind == "rel":
                missing = set(pump.sent) - set(sink.got)
                assert not missing, \
                    f"trial {trial}: {len(missing)} reliable messages lost"
    assert total_sent == 10_000


# --- 9: conservation ---------------------------------------------------------------

def test_09_every_scenario_run_settles_exactly():
    # one fresh run so the check stands alone, plus everything already run
    REPORTS.extend(run_scenario(make_scenario("bgp")))
    assert len(REPORTS) >= 2
    bad = [(r.scenario, r.variant, r.problems)
           for r in REPORTS if not r.settle_ok]
    assert not bad, f"settlement failures: {bad}"


# --- 10: reproducibility -----------------------------------------------------------

def test_10_same_seed_reruns_are_byte_identical(tmp_path):
    sc = make_scenario("chain-ping-loss", loss=2.0, pings=20, reps=2,
                       variants=("baseline", "pri-fld", "rel-1p"))
    a, b = tmp_path / "a", tmp_path / "b"
    run_scenario(sc, out_dir=str(a))
    run_scenario(sc, out_dir=str(b))
    names = sorted(os.listdir(a))
    assert sorted(os.listdir(b)) == names and len(names) == 5
    for name in names:
        assert filecmp.cmp(a / name, b / name, shallow=False), \
            f"{name} differs between identical runs"
