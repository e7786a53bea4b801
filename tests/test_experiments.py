import filecmp
import gc
import os
import statistics
import weakref

import pytest

from helpers import data_file
from spon import cli, experiments, netsim
from spon.experiments import (CAPACITY_MBPS, MetricReport, ScenarioError,
                              Scenario, derive_seed, extract_samples,
                              load_raw_reports, make_scenario, run_scenario,
                              summarize, variant_name, variant_service)
from spon.netsim import EngineOverrun
from spon.overlay import PRI, REL

from dataclasses import replace


# --- scenario plumbing -----------------------------------------------------------

def test_variant_names_map_to_services():
    assert variant_service("baseline") is None
    assert variant_service("baseline-cut") is None
    svc = variant_service("pri-fld")
    assert svc.kind == PRI and svc.k == 0
    svc = variant_service("rel-2p")
    assert svc.kind == REL and svc.k == 2
    with pytest.raises(ScenarioError):
        variant_service("ultra-9p")
    assert variant_name("pri", 0) == "pri-fld"
    assert variant_name("rel", 3) == "rel-3p"


def test_unknown_scenario_rejected():
    with pytest.raises(ScenarioError):
        make_scenario("chain-of-fools")


def test_validation_catches_dangling_references():
    sc = make_scenario("chain-ping-loss")
    broken = replace(sc, sender="c9")
    with pytest.raises(ScenarioError):
        broken.validate()
    broken = replace(sc, baseline_path=("1", "5"))   # no direct link
    with pytest.raises(ScenarioError):
        broken.validate()
    broken = replace(sc, loss_link=("1", "5"))
    with pytest.raises(ScenarioError):
        broken.validate()
    broken = replace(sc, reps=0)
    with pytest.raises(ScenarioError):
        broken.validate()


def test_seed_derivation_is_stable_and_distinct():
    a = derive_seed("chain-ping-loss", "pri-fld", 1, 0)
    assert a == derive_seed("chain-ping-loss", "pri-fld", 1, 0)
    others = {
        derive_seed("chain-ping-loss", "pri-fld", 1, 1),
        derive_seed("chain-ping-loss", "baseline", 1, 0),
        derive_seed("chain-ping-loss", "pri-fld", 2, 0),
    }
    assert a not in others and len(others) == 3


def test_extract_samples_by_row_kind():
    rows = [
        (0, 1, "ping", 0, 0.0, 32.0, 32.0, "ok"),
        (0, 1, "ping", 1, 0.0, -1.0, -1.0, "timeout"),
        (0, 1, "payment", 0, 0.0, 64.0, 64.0, "complete"),
        (0, 1, "payment", 1, 0.0, 50.0, 50.0, "failed"),
        (0, 1, "packet", 0, 0.0, 32.0, 32.0, "ok"),
        (0, 1, "bucket", 3, 3000.0, 4000.0, 7.5, "honest"),
        (0, 1, "bucket", 1, 1000.0, 2000.0, 9.0, "honest"),
    ]
    assert extract_samples("ping", rows) == {"rtt_ms": [32.0]}
    stream = extract_samples("stream", rows)
    assert stream == {"payment_ms": [64.0], "packet_ms": [32.0]}
    fair = extract_samples("fairness", rows, ramp_end_ms=2000.0)
    assert fair == {"honest_mbps": [7.5]}


# --- running ---------------------------------------------------------------------

def ping_reports(**kw):
    defaults = dict(pings=15, reps=2, variants=("baseline", "pri-fld"))
    defaults.update(kw)
    return run_scenario(make_scenario("chain-ping-loss", **defaults))


def test_ping_run_produces_reports_with_expected_shape():
    reports = ping_reports()
    assert [r.variant for r in reports] == ["baseline", "pri-fld"]
    for r in reports:
        assert r.settle_ok and r.completed
        assert len(r.samples["rtt_ms"]) == 30      # 15 probes x 2 reps
        assert r.counters["ping_ok"] == 30
        # every row fits the fixed schema
        for row in r.rows:
            assert len(row) == 8 and row[2] == "ping"
    base, fld = reports
    assert 31.9 < base.mean("rtt_ms") < 33.0
    assert base.mean("rtt_ms") < fld.mean("rtt_ms") < 34.0


def test_lossy_link_flips_the_comparison():
    reports = ping_reports(loss=5.0)
    base, fld = reports
    assert fld.mean("rtt_ms") < base.mean("rtt_ms")


def test_stream_run_tracks_payments_and_settles():
    sc = make_scenario("chain-stream-loss", payments=2, total=500, packet=100,
                       reps=1, variants=("baseline", "pri-2p"))
    reports = run_scenario(sc)
    for r in reports:
        assert r.completed and r.settle_ok
        assert len(r.samples["payment_ms"]) == 2
        assert len(r.samples["packet_ms"]) == 10   # 5 packets x 2 payments
        assert r.counters["fulfilled"] == 10


def test_fairness_converges_to_even_split():
    sc = make_scenario("fairness", clients_per_flow=5, ramp_interval_ms=200.0,
                       measure_ms=6_000.0)
    reports = run_scenario(sc)
    solo, ramp = reports
    cap = CAPACITY_MBPS
    assert statistics.fmean(solo.samples["honest_mbps"]) > 0.85 * cap
    honest = statistics.fmean(ramp.samples["honest_mbps"])
    malicious = statistics.fmean(ramp.samples["malicious_mbps"])
    assert honest >= 0.40 * cap
    assert malicious <= 0.60 * cap


def test_hijacked_pairing_fails_while_overlay_completes():
    reports = run_scenario(make_scenario("bgp"))
    base, overlay = reports
    assert base.counters.get("fulfilled", 0) == 0
    assert not base.completed
    assert overlay.completed and overlay.counters["fulfilled"] == 10
    assert base.settle_ok and overlay.settle_ok


# one payment config and one fairness config: the two ways a run is driven
SMALL_RUNS = [
    ("chain-ping-loss", dict(pings=10, reps=2, variants=("baseline", "rel-1p"))),
    ("fairness", dict(clients_per_flow=2, ramp_interval_ms=250.0,
                      measure_ms=1_000.0)),
]


@pytest.fixture
def engine_log(monkeypatch):
    """(weak reference, events popped) of every Engine run, in run order."""
    log = []

    class Recorded(experiments.Engine):
        def run(self, *args, **kwargs):
            try:
                return super().run(*args, **kwargs)
            finally:
                log.append((weakref.ref(self), self.pops))

    monkeypatch.setattr(experiments, "Engine", Recorded)
    return log


@pytest.mark.parametrize("name, overrides", SMALL_RUNS)
def test_finished_run_is_freed_without_the_cycle_collector(name, overrides,
                                                           engine_log):
    gc.collect()
    gc.disable()
    try:
        run_scenario(make_scenario(name, **overrides))
        alive = sum(ref() is not None for ref, _ in engine_log)
    finally:
        gc.enable()
    assert engine_log and alive == 0


@pytest.mark.parametrize("name, overrides", SMALL_RUNS)
def test_run_counters_report_events_popped(name, overrides, engine_log):
    reports = run_scenario(make_scenario(name, **overrides))
    pops = [p for _, p in engine_log]
    per_variant = len(pops) // len(reports)
    assert [r.counters["pops"] for r in reports] == [
        sum(pops[i:i + per_variant]) for i in range(0, len(pops), per_variant)]
    assert all(p > 0 for p in pops)


# --- aggregation -------------------------------------------------------------------

def test_summarize_rejects_mixed_scenarios():
    a = MetricReport("chain-ping-loss", "ping", "baseline", 1, [],
                     {"rtt_ms": [32.0]})
    b = MetricReport("global-stream-loss", "stream", "baseline", 1, [],
                     {"payment_ms": [1.0]})
    with pytest.raises(ScenarioError):
        summarize([a, b])
    with pytest.raises(ScenarioError):
        summarize([])


def test_summarize_computes_gain_against_baseline():
    base = MetricReport("chain-ping-loss", "ping", "baseline", 1, [],
                        {"rtt_ms": [40.0, 40.0]})
    fld = MetricReport("chain-ping-loss", "ping", "pri-fld", 1, [],
                       {"rtt_ms": [30.0, 30.0]})
    rows, text = summarize([base, fld])
    by_variant = {(r[1], r[2]): r for r in rows}
    assert by_variant[("baseline", "rtt_ms")][6] == "0.000000"
    assert by_variant[("pri-fld", "rtt_ms")][6] == "25.000000"
    assert "pri-fld" in text


def test_summarize_marks_gain_unavailable_without_baseline():
    fld = MetricReport("chain-ping-loss", "ping", "pri-fld", 1, [],
                       {"rtt_ms": [30.0]})
    rows, _ = summarize([fld])
    assert rows[0][6] == "NA"


# --- artifacts ----------------------------------------------------------------------

def test_artifacts_roundtrip_and_rerun_byte_identical(tmp_path):
    sc = make_scenario("chain-ping-loss", loss=2.0, pings=10, reps=2,
                       variants=("baseline", "rel-1p"))
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    reports = run_scenario(sc, out_dir=str(out_a))
    run_scenario(sc, out_dir=str(out_b))
    names = sorted(os.listdir(out_a))
    assert names == ["raw_baseline.csv", "raw_rel-1p.csv", "summary.csv",
                     "summary.txt"]
    for name in names:
        assert filecmp.cmp(out_a / name, out_b / name, shallow=False)
    loaded = load_raw_reports(str(out_a))
    assert [r.variant for r in loaded] == ["baseline", "rel-1p"]
    for mem, disk in zip(reports, loaded):
        assert mem.samples == disk.samples


def test_failed_run_flushes_partial_csv_with_marker(tmp_path, monkeypatch):
    monkeypatch.setattr(netsim, "EVENT_CAP", 50)
    sc = make_scenario("chain-ping-loss", pings=50, reps=1,
                       variants=("pri-fld",))
    with pytest.raises(EngineOverrun):
        run_scenario(sc, out_dir=str(tmp_path))
    text = (tmp_path / "raw_pri-fld.csv").read_text(encoding="utf-8")
    assert "FAILED" in text


# --- command line --------------------------------------------------------------------

def test_cli_run_writes_artifacts_and_prints_summary(tmp_path, capsys):
    rc = cli.main(["run", "--scenario", "chain-ping-loss", "--service", "pri",
                   "--k", "0", "--loss", "5", "--pings", "10", "--reps", "1",
                   "--seed", "3", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "baseline" in out and "pri-fld" in out
    assert sorted(os.listdir(tmp_path)) == ["raw_baseline.csv",
                                            "raw_pri-fld.csv", "summary.csv",
                                            "summary.txt"]


def test_cli_usage_errors_exit_1():
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--scenario", "not-a-scenario"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--scenario", "fairness", "--service", "pri"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--scenario", "bgp", "--loss", "5"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 1


def test_cli_runtime_failures_exit_2(tmp_path, capsys):
    assert cli.main(["summarize", "--in", str(tmp_path / "missing")]) == 2
    assert cli.main(["topo", "paths", "--file", "no-such.topo",
                     "--src", "1", "--dst", "5", "--k", "2"]) == 2
    capsys.readouterr()


def test_cli_topo_paths_prints_disjoint_routes(capsys):
    rc = cli.main(["topo", "paths", "--file", data_file("chain.topo"),
                   "--src", "1", "--dst", "5", "--k", "2"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "1 -> 12 -> 13 -> 14 -> 5  (16.000 ms)"
    assert lines[1] == "1 -> 9 -> 10 -> 11 -> 5  (20.000 ms)"


def test_cli_summarize_roundtrips_run_output(tmp_path, capsys):
    rc = cli.main(["run", "--scenario", "bgp", "--out", str(tmp_path)])
    assert rc == 0
    first = capsys.readouterr().out
    written = (tmp_path / "summary.txt").read_bytes()
    rc = cli.main(["summarize", "--in", str(tmp_path)])
    assert rc == 0
    second = capsys.readouterr().out
    assert first.splitlines()[0] == second.splitlines()[0] == "scenario: bgp"
    # the regenerated table carries the same aggregate rows
    assert [l for l in first.splitlines() if "payment_ms" in l] \
        == [l for l in second.splitlines() if "payment_ms" in l]
    # and the whole summary, byte for byte: bgp's baseline never completes,
    # and only its raw payment row says so
    assert first.splitlines()[-1] == "baseline: INCOMPLETE"
    assert (tmp_path / "summary.txt").read_bytes() == written


def test_cli_summarize_roundtrips_a_settle_failure(tmp_path, capsys,
                                                   monkeypatch):
    audit = experiments.settle_check

    def failing_audit(ledgers, now, txlog=None):
        report = audit(ledgers, now, txlog)
        return replace(report, ok=False,
                       problems=[*report.problems, "ledger book: injected"])

    monkeypatch.setattr(experiments, "settle_check", failing_audit)
    args = ["run", "--scenario", "chain-ping-loss", "--service", "pri",
            "--k", "1", "--pings", "5", "--reps", "2", "--out", str(tmp_path)]
    assert cli.main(args) == 2
    first = capsys.readouterr().out
    written = (tmp_path / "summary.txt").read_bytes()
    assert (tmp_path / "settle_pri-1p.txt").read_text(encoding="utf-8") == \
        "settle_ok=0\nrep 0: ledger book: injected\n" \
        "rep 1: ledger book: injected\n"
    assert "pri-1p: SETTLE-FAILED" in first.splitlines()
    assert "pri-1p: rep 1: ledger book: injected" in first.splitlines()
    rc = cli.main(["summarize", "--in", str(tmp_path)])
    assert rc == 0
    assert capsys.readouterr().out == first
    assert (tmp_path / "summary.txt").read_bytes() == written

    # a clean run into the same directory leaves no settle file behind
    monkeypatch.undo()
    assert cli.main(args) == 0
    assert sorted(os.listdir(tmp_path)) == ["raw_baseline.csv",
                                            "raw_pri-1p.csv", "summary.csv",
                                            "summary.txt"]
    assert "SETTLE-FAILED" not in capsys.readouterr().out
