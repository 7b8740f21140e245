"""The benchmark tracer still finds every function it wraps."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_finds_every_target_and_restores_them():
    # a renamed or removed traced function would only print "untraced" and
    # leave its per-layer metrics at 0, so the drift is caught here instead
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    tracer = mod.Tracer()
    try:
        tracer.install()
    finally:
        restored = tracer.restore()
    assert tracer.missing == []
    assert restored
