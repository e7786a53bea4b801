"""The benchmark's tracer wraps spon entry points by name; a refactor that
renames or drops one would silently leave its layer untraced."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_resolves():
    tracer = load_tracer()
    # entering wraps every (owner, attribute) in SPANS and COUNTS, noting the
    # ones it cannot find; leaving restores the originals
    with tracer.Tracer() as tr:
        pass
    assert tr.missing == []
    assert len(tr.spans) == len(tracer.SPANS)
