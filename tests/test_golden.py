"""Golden raw-CSV digests: the behaviour contract of every scenario.

One small config per scenario runs at its default seed, and the sha256 of its
raw CSVs must equal the pinned value.  A change meant to leave behaviour alone
must pass this unchanged.  A change that alters behaviour on purpose re-pins
the affected digests and says why.

The combined digest hashes one "<variant>=<sha256 of raw_<variant>.csv>" line
per variant, in variant order, the same form the benchmark prints as
"raw CSVs sha256".  The meltdown configs run long enough to cross the first
relay wave, so routes are computed on more than one topology view.
"""

import hashlib
import os

import pytest

from spon.experiments import SCENARIOS, make_scenario, run_scenario

# scenario -> (make_scenario overrides, combined raw-CSV sha256)
GOLDEN = {
    "chain-ping-loss": (
        dict(loss=5.0, pings=30, reps=1,
             variants=("baseline", "pri-fld", "rel-1p")),
        "dbc0ce021ff758e203947622da485b2e32e142fbe9b4477452481307afd4b5b5"),
    "chain-stream-loss": (
        dict(loss=5.0, payments=2, total=2_000, packet=100, reps=1,
             variants=("baseline", "pri-2p", "rel-2p")),
        "9105e1130faa36b6fbe9491b9cea838e68dbf71ba5096e7da775155f56eaf1b1"),
    "global-stream-loss": (
        dict(loss=2.0, payments=2, total=5_000, packet=500, reps=1,
             variants=("baseline", "pri-fld", "rel-1p")),
        "21f7f5ae2dcf129b5b76cee799ef20dd99b68aad86cbf74e1eb7bfec515f8a63"),
    "chain-meltdown": (
        dict(total=15_000, packet=10,
             variants=("baseline-cut", "pri-1p", "pri-2p")),
        "7534dbc940ea18785602abc08e5eebf1646178b57b34cbad8170f7c893afdde2"),
    "global-meltdown": (
        dict(reps=1, total=20_000, packet=50, variants=("baseline", "pri-2p")),
        "1678dab556fc21a22a7d57db7006e22c6c98f2671ff04123440c8cea4a2735d7"),
    "fairness": (
        dict(clients_per_flow=4, ramp_interval_ms=250.0, measure_ms=2_000.0),
        "7239200f40fafdf049eb8156dfca07ceeda392165ecb0e25037464b10366e411"),
    "bgp": (
        dict(),
        "1f4350208c2cebb479bacd1331998ade72a9c380969dda08239252a8293d54a6"),
}


def raw_digests(out_dir):
    """sha256 of each raw CSV in out_dir, by variant."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        if name.startswith("raw_") and name.endswith(".csv"):
            with open(os.path.join(out_dir, name), "rb") as fh:
                out[name[4:-4]] = hashlib.sha256(fh.read()).hexdigest()
    return out


def combined(digests):
    h = hashlib.sha256()
    for variant in sorted(digests):
        h.update(f"{variant}={digests[variant]}\n".encode())
    return h.hexdigest()


def test_every_scenario_has_a_golden_config():
    assert sorted(GOLDEN) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_raw_csv_digest_is_pinned(name, tmp_path):
    overrides, pinned = GOLDEN[name]
    sc = make_scenario(name, **overrides)
    reports = run_scenario(sc, out_dir=str(tmp_path))
    assert all(r.settle_ok for r in reports)
    digests = raw_digests(tmp_path)
    assert sorted(digests) == sorted(sc.variants)
    assert combined(digests) == pinned, f"raw CSVs changed: {digests}"
