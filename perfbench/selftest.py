"""The benchmark's own tests.

    python3 perfbench/selftest.py

Runs each workload once untraced and once traced at the default seed, which
takes a few minutes, and checks the tracer and the benchmark's output against
BENCHMARK.json and the ROADMAP Baseline.
"""

import json
import os
import signal
import unittest

import run

run.bootstrap()

import spon.experiments  # noqa: E402
import spon.netsim  # noqa: E402
import spon.overlay  # noqa: E402
from probe import SpeedProbe  # noqa: E402
from tracer import SPANS, Tracer, span_name  # noqa: E402
from workloads import (BASELINE_COUNTS, DEFAULT_SEED, WORKLOADS,  # noqa: E402
                       measure)


def benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# spans each workload must enter, because the scenario cannot run without them
MUST_CALL = {
    "ping-flood-loss": (
        "payment.IlpNode.start_ping", "payment.IlpNode.handle_packet",
        "payment.IlpNode.on_timer", "netsim.Engine.raw_send",
        "topology.k_disjoint_paths", "topology.shortest_path",
        "topology.apply_fault"),
    "fairness-ramp": (
        "topology.k_disjoint_paths", "topology.shortest_path",
        "experiments.FlowSource.on_timer", "experiments.FlowSink.on_deliver",
        "netsim.Engine.client_send"),
    "meltdown-routed": (
        "payment.IlpNode.handle_packet", "payment.IlpNode.on_timer",
        "payment.IlpNode.on_deliver", "payment.IlpNode.on_raw",
        "payment.IlpNode.start_stream", "overlay.NodeState.recompute_routes",
        "topology.k_disjoint_paths", "topology.apply_fault"),
}
EVERY_WORKLOAD = (
    "experiments.run_scenario", "topology.load_topology", "netsim.Engine.__init__",
    "netsim.Engine.run", "overlay.NodeState.client_send",
    "overlay.NodeState.handle_frame", "overlay.NodeState.handle_timer",
    "overlay.NodeState.scheduler_dequeue", "overlay.NodeState.wrap_for_link",
    "frames.Frame.wire_size", "payment.settle_check")

_traced = {}


def traced(name):
    """Traced result of one workload at the default seed, run once."""
    if name not in _traced:
        out = os.path.join(run.ROOT, ".bench_out", "selftest", name)
        _traced[name] = run.traced(WORKLOADS[name], DEFAULT_SEED, out)
    return _traced[name]


class TracerInstallTest(unittest.TestCase):

    def test_functions_are_wrapped_where_they_are_looked_up(self):
        originals = {
            (spon.overlay, "k_disjoint_paths"): spon.overlay.k_disjoint_paths,
            (spon.overlay, "shortest_path"): spon.overlay.shortest_path,
            (spon.netsim, "shortest_path"): spon.netsim.shortest_path,
            (spon.netsim, "apply_fault"): spon.netsim.apply_fault,
            (spon.experiments, "settle_check"): spon.experiments.settle_check,
            (spon.experiments, "load_topology"): spon.experiments.load_topology,
        }
        with Tracer() as tr:
            for (mod, name), original in originals.items():
                self.assertIsNot(getattr(mod, name), original,
                                 f"{mod.__name__}.{name} not wrapped")
        self.assertEqual(tr.missing, [])
        for (mod, name), original in originals.items():
            self.assertIs(getattr(mod, name), original,
                          f"{mod.__name__}.{name} not restored")
        for _, owner, attr in SPANS:
            if isinstance(owner, type):
                self.assertNotIn("wrapper", getattr(owner, attr).__qualname__)


class WorkloadTraceTest(unittest.TestCase):

    def test_outputs_pass_their_checks(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                self.assertEqual(traced(name)["problems"], [])

    def test_each_wrapped_function_is_called_where_it_must_be(self):
        entered = set()
        for name, required in MUST_CALL.items():
            spans = traced(name)["detail"]["spans"]
            entered |= {k for k, (calls, _) in spans.items() if calls}
            for key in required + EVERY_WORKLOAD:
                with self.subTest(workload=name, span=key):
                    self.assertGreater(spans[key][0], 0)
        every = {f"{layer}.{span_name(owner, attr)}"
                 for layer, owner, attr in SPANS}
        self.assertEqual(every - entered, set(), "spans no workload enters")

    def test_counts_reproduce_the_roadmap_baseline(self):
        for (name, variant), expected in BASELINE_COUNTS.items():
            with self.subTest(workload=name, variant=variant):
                got = traced(name)["detail"]["per_variant_events_wire_tx"]
                self.assertEqual(got[variant], expected)

    def test_transmission_classes_add_up_to_wire_tx(self):
        for name in WORKLOADS:
            m = traced(name)["metrics"]
            classes = sum(m[f"overlay.{c}"][0] for c in
                          ("tx_data", "tx_announce", "tx_nack",
                           "tx_retransmit", "tx_tombstone"))
            self.assertEqual(classes, m["netsim.wire_tx"][0], name)

    def test_layer_expectations(self):
        fair = traced("fairness-ramp")["metrics"]
        for key in ("payment.handle_packet.calls", "payment.on_timer.calls",
                    "payment.ledger_ops", "payment.fulfilled"):
            self.assertEqual(fair[key][0], 0, key)
        melt = traced("meltdown-routed")["metrics"]
        self.assertGreater(melt["payment.ledger_ops"][0], 0)
        ping = traced("ping-flood-loss")["metrics"]
        self.assertGreater(ping["overlay.tx_announce"][0],
                           ping["overlay.tx_data"][0])

    def test_meltdown_reports_the_stalled_pri_1p_stream(self):
        res = traced("meltdown-routed")
        self.assertGreater(res["metrics"]["failed_frac"][0], 0.0)
        self.assertGreater(res["failed"], 0)

    def test_per_layer_names_and_units_match_benchmark_json(self):
        declared = {m["name"]: m["unit"] for m in benchmark_json()["per_layer"]}
        for name in WORKLOADS:
            got = {k: u for k, (_, u) in traced(name)["metrics"].items()}
            self.assertEqual(got, declared, name)


class EndToEndTest(unittest.TestCase):

    def test_end_to_end_names_units_and_values(self):
        declared = {m["name"]: m["unit"] for m in benchmark_json()["end_to_end"]}
        wl = WORKLOADS["ping-flood-loss"]
        out = os.path.join(run.ROOT, ".bench_out", "selftest", wl.name)
        res = run.untraced(wl, DEFAULT_SEED, 0.0, out)
        self.assertEqual(res["problems"], [])
        got = {k: u for k, (_, u) in res["metrics"].items()}
        self.assertEqual(got, declared)
        for key, (value, _) in res["metrics"].items():
            self.assertGreater(value, 0, key)

    def test_speed_probe_leaves_outputs_and_signals_alone(self):
        wl = WORKLOADS["ping-flood-loss"]
        out = os.path.join(run.ROOT, ".bench_out", "selftest", "probe")
        handler = signal.getsignal(signal.SIGALRM)
        speed = SpeedProbe()
        _, sc, reports = run.run_once(wl, DEFAULT_SEED, out, lambda: speed)
        probed = measure(sc, reports, out).digest
        _, sc, reports = run.run_once(wl, DEFAULT_SEED, out)
        self.assertEqual(measure(sc, reports, out).digest, probed)
        self.assertIs(signal.getsignal(signal.SIGALRM), handler)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertGreater(len(speed.probe_s), 10)
        self.assertGreater(speed.ref_s, 0.0)

    def test_workload_names_match_benchmark_json(self):
        self.assertEqual({w["name"] for w in benchmark_json()["workloads"]},
                         set(WORKLOADS))


if __name__ == "__main__":
    unittest.main(verbosity=2)
