"""Golden counter pins: the wire cost of each golden config.

Raw CSVs record only payment and packet outcomes, so a change can send more or
fewer frames and still keep every digest in `test_golden.py`.  This module runs
the same configs, plus chain-ping-loss `rel-fld` (no golden config floods a REL
message), and pins for each variant the sha256 of its sorted
`MetricReport.counters`: one "<key>=<value>" line per counter.  Events popped
(`pops`) and wire transmissions (`wire_tx`) are also written out as numbers, so
the cost reads from the table.  A change meant to leave behaviour alone keeps
every pin.  A change meant to save frames re-pins only the counts it moves and
says why.
"""

import hashlib

import pytest

from spon.experiments import make_scenario, run_scenario
from test_golden import GOLDEN

# config -> (scenario, make_scenario overrides)
CONFIGS = {name: (name, overrides) for name, (overrides, _) in GOLDEN.items()}
CONFIGS["chain-ping-loss-rel-fld"] = (
    "chain-ping-loss", dict(loss=5.0, pings=30, reps=1, variants=("rel-fld",)))

# config -> variant -> (pops, wire_tx, sha256 of the sorted counters)
PINNED = {
    "bgp": {
        "baseline": (146, 0,
            "5297247a2dfd9cff409d74f20240817b58b386774715ecbbb4cc24a6e248959d"),
        "pri-1p": (75, 21,
            "6b266fec97b1abb81dca21007fec9884336f3210fc50df9022179c4e07dceccc"),
    },
    "chain-meltdown": {
        "baseline-cut": (11000, 0,
            "10a19b758f547b234526017a53c6ff2bbe9bfb211d91620d6206232a00ddf276"),
        "pri-1p": (46611, 21024,
            "fab0c3277277864ac60bcbce3bf95db85ee47d0673849e8fc0aeb0a7730b467e"),
        "pri-2p": (85106, 40264,
            "0bdfc30cb9316b56379b63bae433ec282e4e067228d12ab638fd493f5abe8373"),
    },
    "chain-ping-loss": {
        "baseline": (252, 0,
            "a7b7b69fa46393704f5803bc4ce6cddff1f68db4ac7e17518fc4d44b64d13bab"),
        "pri-fld": (3414, 1666,
            "10533bfba63b323462dcce8cceccd77a6454773a0a807af46cb7051d08c39ab5"),
        "rel-1p": (2057, 870,
            "2fb7ed0506689c4bb37f0e6927a0e26ffd8f03679c1697a05e0937c78da889d9"),
    },
    "chain-ping-loss-rel-fld": {
        "rel-fld": (6626, 2951,
            "0a09b328ef078489fbd85ffd6e5fae9d96fc08149c9738ad7ef9cf7cc9c0539c"),
    },
    "chain-stream-loss": {
        "baseline": (307, 0,
            "07b0296f46ce24b057ec6f6db703b934a4a9936fa982ec63091442d0912059d1"),
        "pri-2p": (2559, 1223,
            "87d276aeb0eae3b9f0e24a1489820a1e5217678010b07660f62b4608f9184f8a"),
        "rel-2p": (4969, 2115,
            "5946ba86e2afd2a118d1a57a5dd38c939d6064c27a96d439b9d2eda11a40f629"),
    },
    "fairness": {
        "solo": (44441, 13191,
            "5f112150f282cc0b0e336a84e1a178eb646e45c9088717db07e8125e0a9dffca"),
        "ramp": (44729, 17291,
            "c079e661f4c2a62a4cb2e1482403ecbc4e39381a78ed1bac763788b35811004b"),
    },
    "global-meltdown": {
        "baseline": (2942, 0,
            "210647fe676aafde0c163fd0a8ce44fdae1026c93b79e6464f6bc3141201ff88"),
        "pri-2p": (21105, 9882,
            "c3426fc092dfe1d4ec2a140c9c9e6c8dc0a809cd3aa4ad4a6e1558fb15258a9c"),
    },
    "global-stream-loss": {
        "baseline": (147, 0,
            "0b96e9a0236fd56bac4a1d7e641bb052a50294e327ea5b1f7fcb67df5684695b"),
        "pri-fld": (2707, 1323,
            "7e62cbc7211d9fc83f435e24fb408bb10411658118846f45ff3eca614e5130c9"),
        "rel-1p": (1334, 500,
            "ab6672143c2efbf99d3592d510bd1d8e99bb7b0c0ccd4f9e4fcced0a70eeb8c7"),
    },
}


def counters_digest(counters):
    lines = "".join(f"{key}={counters[key]}\n" for key in sorted(counters))
    return hashlib.sha256(lines.encode()).hexdigest()


def test_every_golden_config_has_count_pins():
    assert sorted(PINNED) == sorted(CONFIGS)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_counters_are_pinned(name, tmp_path):
    scenario, overrides = CONFIGS[name]
    reports = run_scenario(make_scenario(scenario, **overrides),
                           out_dir=str(tmp_path))
    got = {r.variant: (r.counters["pops"], r.counters.get("wire_tx", 0),
                       counters_digest(r.counters)) for r in reports}
    counters = {r.variant: dict(sorted(r.counters.items())) for r in reports}
    assert got == PINNED[name], f"counters changed: {counters}"
