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
        "pri-1p": (69, 21,
            "409c7d17d29ff5441cbf4033f6715eabc91a6a23a369fb4c65100c320eb2f575"),
    },
    "chain-meltdown": {
        "baseline-cut": (9998, 0,
            "8e369d851cfe856ce13e448b94a2811e1584eec486f2a21a3536cc7dcb44427f"),
        "pri-1p": (45611, 21024,
            "121caa267dbaee2da301b03eb1608538158ded53ee0964024f9ee281d167b166"),
        "pri-2p": (84087, 40264,
            "7876f2ddded588b8f613ca7aa5a4f2000b7108dbe3c967c369313095f68e50c1"),
    },
    "chain-ping-loss": {
        "baseline": (252, 0,
            "a7b7b69fa46393704f5803bc4ce6cddff1f68db4ac7e17518fc4d44b64d13bab"),
        "pri-fld": (3414, 1666,
            "10533bfba63b323462dcce8cceccd77a6454773a0a807af46cb7051d08c39ab5"),
        "rel-1p": (1983, 876,
            "26198e097bbf270e44b2143149c8c3d8dd975b90986dd166fe7e4cf3a0606383"),
    },
    "chain-ping-loss-rel-fld": {
        "rel-fld": (6333, 2951,
            "867e89e0f7a8fc51740ee36307f900df4301c9136318c70eef85004226d2a6d3"),
    },
    "chain-stream-loss": {
        "baseline": (282, 0,
            "ade52bf513402890a960fec5dc0292274c0475326872f9ab29319bf5bedb3471"),
        "pri-2p": (2533, 1223,
            "e377653462ae4f3100acae3d1146b0a4f9ac7cb313f2acaa20860d0be9b7c543"),
        "rel-2p": (4702, 2115,
            "a1eb9adb34a5e4db66df603ef30de96c8c8010e427a78f0ce0aa972cab2a0e9e"),
    },
    "fairness": {
        "solo": (31735, 13191,
            "565fbaa1b643a428f4166e5765908818dc222261c3ddf6d2fc9eead0d139ac9e"),
        "ramp": (38145, 17291,
            "ec1fa5ec6aca0394a8632c43e4672fe72e1951ddac883323a846b49ac0360b65"),
    },
    "global-meltdown": {
        "baseline": (2675, 0,
            "595b6e0db8916e17056bd5df7e82675efd511977e99f119601b5207dc9c3f38e"),
        "pri-2p": (20827, 9882,
            "007b59237a92368a9f21106997017bc7386d9d7e33acecbaa2641a9ee289559b"),
    },
    "global-stream-loss": {
        "baseline": (135, 0,
            "15f49f4cd396627cd8f82d6f9b63c69865221f30916d2fa73652670ae654b162"),
        "pri-fld": (2695, 1323,
            "6669b441bdef1d641caf7f6a419d42d73a73d478c2d7963e3af050095fa035ba"),
        "rel-1p": (1161, 486,
            "92c77176760edda7661661d8e1f062598e727e08f1a2de972b11d5b7feb989cc"),
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
