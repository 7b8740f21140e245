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


def test_tracer_counts_only_the_charts_a_report_evaluates(demo16, rot16):
    # the tracer reads np.asarray(conn.healthy) when connection_one_form
    # returns: one chart per pair on the demo, each covering every point
    from detbundle.curvature import additivity_residual

    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    tracer = mod.Tracer()
    try:
        tracer.install()
        additivity_residual(demo16, rot16)
    finally:
        assert tracer.restore()
    metrics = mod.layer_metrics({"spans": tracer.spans, "counts": tracer.counts})
    assert tracer.counts["curvature.chart_evals"] == 3 * 256
    assert metrics["curvature.chart_first_use_frac"] == 1.0
