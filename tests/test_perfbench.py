"""The benchmark tracer still finds every function it wraps, and traces a run
whose transfer integration runs on two threads."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_finds_every_target_and_restores_them():
    # a renamed or removed traced function would only print "untraced" and
    # leave its per-layer metrics at 0, so the drift is caught here instead
    mod = _tracer()
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

    mod = _tracer()
    tracer = mod.Tracer()
    try:
        tracer.install()
        additivity_residual(demo16, rot16)
    finally:
        assert tracer.restore()
    metrics = mod.layer_metrics({"spans": tracer.spans, "counts": tracer.counts})
    assert tracer.counts["curvature.chart_evals"] == 3 * 256
    assert metrics["curvature.chart_first_use_frac"] == 1.0


def test_traced_demo_run_with_the_split_transfer(two_cpus, started, monkeypatch, tmp_path):
    # the worker's potential calls are traced too, and every patch comes off
    from detbundle import cli, models

    monkeypatch.setattr(models, "SPLIT_POINTS", 0)
    mod = _tracer()
    config = str(ROOT / "configs" / "demo.cfg")
    argv = ["curvature", "--config", config, "--grid", "8", "--out", str(tmp_path / "out")]
    assert mod.run_traced(argv, str(tmp_path / "trace.json")) == 0
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert trace["restored"] and trace["missing"] == []
    steps = int(cli.load_config(config)["model"]["steps_per_half"])
    assert mod.layer_metrics(trace)["models.potential_calls"] == 4 * steps
    assert started[0] == 1
