"""Exit codes, report determinism and file schemas of the runner."""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from detbundle import BaseGrid, constant_scalar_family, demo_family, rotated_interface
from detbundle.cli import ConfigError, build_family, config_hash, load_config, main
from detbundle.curvature import (
    curvature_families_formula,
    default_cover,
    f_function_field,
    pair_metric_field,
    pair_overlap_field,
    restricted_shift_field,
)
from detbundle.detline import canonical_det, chart_coordinate

from conftest import _count_calls

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _read_csv(path: Path):
    lines = path.read_text().strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


# -- configuration ---------------------------------------------------------------


def test_defaults_load_without_file():
    cfg = load_config(None)
    assert cfg["model"]["kind"] == "dirac"
    assert cfg["grid"] == {"n1": "16", "n2": "16"}
    assert "s0.one.one.one" in cfg["potential"]


def test_overrides_win_over_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[grid]\nn1 = 12\nn2 = 12\n")
    cfg = load_config(str(path), {"grid.n1": "20"})
    assert cfg["grid"]["n1"] == "20"
    assert cfg["grid"]["n2"] == "12"


def test_unknown_section_and_key_rejected(tmp_path):
    bad_section = tmp_path / "a.cfg"
    bad_section.write_text("[nope]\nx = 1\n")
    with pytest.raises(ConfigError):
        load_config(str(bad_section))
    bad_key = tmp_path / "b.cfg"
    bad_key.write_text("[grid]\nn3 = 12\n")
    with pytest.raises(ConfigError):
        load_config(str(bad_key))


def test_config_hash_tracks_content():
    base = load_config(None)
    changed = load_config(None, {"run.seed": "9"})
    assert config_hash(base) == config_hash(load_config(None))
    assert config_hash(base) != config_hash(changed)


def test_build_family_rejects_bad_numbers():
    cfg = load_config(None, {"model.steps_per_half": "many"})
    with pytest.raises(ConfigError):
        build_family(cfg, None)


@pytest.mark.parametrize("text", [
    "[potential]\ns0.one.one.one = nan\n",
    "[model]\nkind = cylinder\n[cylinder]\namplitude = inf\n",
    "[run]\nmax_excluded = nan\n",
    "[model]\nkind = constant_scalar\nvalue = -inf\n",
    "[model]\nkind = cylinder\n[cylinder]\nstyle = foo\n",
    "[model]\nkind = cylinder\n[cylinder]\ntruncation = 0\n",
    "[model]\nkind = constant_scalar\nrank = 0\n",
    "[interface]\nkind = vortex\nradius = 5\n",
    "[model]\nkind = cylinder\n[run]\nseed = -1\n",
    "[run]\nmax_excluded = -1\n",
    "[run]\nmax_excluded = 2\n",
], ids=["potential_nan", "cylinder_amplitude_inf", "max_excluded_nan", "model_value_inf",
        "cylinder_style_unknown", "cylinder_truncation_zero", "scalar_rank_zero",
        "vortex_radius_beyond_pi", "cylinder_seed_negative", "max_excluded_negative",
        "max_excluded_above_one"])
def test_non_finite_config_numbers_exit_two(tmp_path, capsys, text):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    code = main(["curvature", "--config", str(cfg), "--grid", "8",
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "config error:" in capsys.readouterr().err


# numeric keys that each command reads, per model kind; sizes are drawn from
# [-3, 12] only, so no draw allocates much memory
_SIZES = ("grid.n1", "grid.n2", "model.steps_per_half", "model.rank", "cylinder.truncation",
          "sweep.samples")
_READ = {
    "dirac": ("model.steps_per_half", "interface.strength"),
    "vortex": ("model.steps_per_half", "interface.radius", "interface.orientation"),
    "constant_scalar": ("model.steps_per_half", "model.rank", "model.value",
                        "interface.strength"),
    "cylinder": ("cylinder.truncation", "cylinder.gamma", "cylinder.amplitude"),
}
_COMMON = ("run.seed", "run.sing_floor", "run.max_excluded", "grid.n1", "grid.n2")
# `sweep` reads no [grid] or [interface] and builds transfer-matrix families only
_SWEEP_READ = {
    "dirac": ("model.steps_per_half",),
    "constant_scalar": ("model.steps_per_half", "model.rank", "model.value"),
}
_SWEEP_COMMON = ("run.seed", "sweep.samples", "sweep.start", "sweep.stop")
_COMMAND_KEYS = {
    "curvature": (_READ, _COMMON),
    "verify": (_READ, _COMMON + ("run.tol",)),
    "sweep": (_SWEEP_READ, _SWEEP_COMMON),
}
# keys whose negative values are malformed
_NON_NEGATIVE = {"run.seed", "run.sing_floor", "run.max_excluded", "run.tol",
                 "interface.radius", "cylinder.gamma", *_SIZES}
_BASE = {"grid.n1": "8", "grid.n2": "8", "model.steps_per_half": "16",
         "cylinder.truncation": "4", "sweep.samples": "8"}


def _malformed(key):
    """Text, non-finite values, negatives, zero, and for sizes every integer in [-3, 12]."""
    if key in _SIZES:
        numbers = st.integers(-3, 12)
    else:
        numbers = st.sampled_from([0, -1, -0.5, -3, 1e-300, -1e300])
    return st.one_of(st.sampled_from(["abc", "1,5", "nan", "inf", "-inf"]),
                     numbers.map(str))


@st.composite
def _bad_configs(draw, command="curvature"):
    read, common = _COMMAND_KEYS[command]
    kind = draw(st.sampled_from(sorted(read)))
    keys = draw(st.lists(st.sampled_from(common + read[kind]), min_size=1, max_size=3,
                         unique=True))
    return kind, {key: draw(_malformed(key)) for key in keys}


def _must_be_config_error(key, value):
    try:
        number = float(value)
    except ValueError:
        return True
    return not math.isfinite(number) or (number < 0 and key in _NON_NEGATIVE)


def _check_exit_code(args, case):
    """Run ``args`` on the malformed config ``case``: exit 0, 1 or 2 and nothing
    escapes main; a text, non-finite or forbidden negative value is a config error."""
    kind, values = case
    sections = {"model": {"kind": "dirac" if kind == "vortex" else kind},
                "interface": {"kind": "vortex" if kind == "vortex" else "rotated"}}
    for dotted, value in {**_BASE, **values}.items():
        sec, key = dotted.split(".")
        sections.setdefault(sec, {})[key] = value
    text = "".join(f"[{sec}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items())
                   for sec, kv in sections.items())
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "bad.cfg"
        cfg.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([*args, "--config", str(cfg), "--out", str(Path(tmp) / "out")])
    assert code in (0, 1, 2), text
    if any(_must_be_config_error(k, v) for k, v in values.items()):
        assert code == 2 and err.getvalue().startswith("config error:"), (text, err.getvalue())


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(_bad_configs())
@example(("cylinder", {"run.seed": "-1"}))
@example(("dirac", {"run.max_excluded": "-1"}))
@example(("constant_scalar", {"model.value": "-1e+300", "run.sing_floor": "abc"}))
def test_malformed_numbers_never_raise(case):
    _check_exit_code(["curvature"], case)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(_bad_configs("sweep"))
@example(("constant_scalar", {"model.value": "-1e+300"}))
@example(("dirac", {"sweep.samples": "3"}))
def test_malformed_sweep_numbers_never_raise(case):
    _check_exit_code(["sweep"], case)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(_bad_configs("verify"))
@example(("dirac", {"run.tol": "-1"}))
def test_malformed_verify_numbers_never_raise(case):
    _check_exit_code(["verify", "all"], case)


# -- verify ------------------------------------------------------------------------


def test_verify_opcalc_passes(tmp_path, capsys):
    code = main(["verify", "opcalc", "--seed", "3", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["passed"] is True
    assert len(report["suites"]["opcalc"]) >= 5
    assert report["seed"] == 3
    assert {"config_hash", "grid", "library_version"} <= set(report)
    out = capsys.readouterr().out
    assert "[PASS] opcalc.fredholm_series_vs_dense" in out


def test_verify_rejects_small_curvature_grid(tmp_path):
    code = main(["verify", "curvature", "--grid", "6", "--out", str(tmp_path)])
    assert code == 2


def test_verify_unknown_suite_exits_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nosuch", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_verify_reports_are_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["verify", "all", "--seed", "7", "--out", str(out_a)]) == 0
    assert main(["verify", "all", "--seed", "7", "--out", str(out_b)]) == 0
    assert (out_a / "verify_report.json").read_bytes() == \
        (out_b / "verify_report.json").read_bytes()


def test_verify_degenerate_curvature_exits_one(tmp_path, capsys):
    code = main(["verify", "curvature", "--config",
                 str(CONFIGS / "degenerate.cfg"), "--out", str(tmp_path)])
    assert code == 1
    out = capsys.readouterr().out
    assert "[FAIL] curvature.exclusion_coverage" in out
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert not report["passed"]
    assert any("exclusion" in name for name in report["failures"])


def test_verify_reports_uncovered_points_with_the_error_message(tmp_path, capsys):
    # every point lies outside every chart domain: no edge fraction is
    # measured, so the check carries nan and the coverage error's own message
    cfg = tmp_path / "floor.cfg"
    cfg.write_text("[model]\nsteps_per_half = 16\n[grid]\nn1 = 8\nn2 = 8\n"
                   "[run]\nsing_floor = 1e300\n")
    assert main(["verify", "curvature", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert "[FAIL] curvature.exclusion_coverage  measured=nan" in capsys.readouterr().out
    report = json.loads((tmp_path / "verify_report.json").read_text())
    check = report["suites"]["curvature"][0]
    assert check["name"] == "exclusion_coverage" and math.isnan(check["measured"])
    assert check["detail"] == "64 grid points lie outside every chart domain"


# -- curvature ----------------------------------------------------------------------


def test_curvature_demo_outputs(tmp_path):
    code = main(["curvature", "--grid", "12", "--out", str(tmp_path)])
    assert code == 0
    for name in ("curvature_full", "curvature_left", "curvature_right",
                 "additivity_residual", "f_winding", "exclusions"):
        header, rows = _read_csv(tmp_path / f"{name}.csv")
        assert header == ["i", "j", "re", "im"]
        assert len(rows) == 144
    report = json.loads((tmp_path / "curvature_report.json").read_text())
    assert report["report"]["chern"]["additive"] is True
    assert report["verdict"] == "chern additivity holds"


def test_curvature_flat_family_all_zero(tmp_path):
    cfg = tmp_path / "flat.cfg"
    cfg.write_text("[model]\nkind = constant_scalar\nvalue = 0.5\n"
                   "steps_per_half = 32\n[grid]\nn1 = 8\nn2 = 8\n"
                   "[interface]\nkind = rotated\nstrength = 0.0\n")
    out = tmp_path / "out"
    assert main(["curvature", "--config", str(cfg), "--out", str(out)]) == 0
    for name in ("curvature_full", "curvature_left", "curvature_right",
                 "additivity_residual", "f_winding"):
        _, rows = _read_csv(out / f"{name}.csv")
        worst = max(abs(float(r[2])) + abs(float(r[3])) for r in rows)
        assert worst <= 1e-12
    report = json.loads((out / "curvature_report.json").read_text())
    assert report["report"]["chern"] == {"full": 0, "left": 0, "right": 0,
                                         "additive": True}


def test_report_label_is_the_model_kind_that_ran(tmp_path):
    # the kind is read case-blind, and the label names the family that ran
    cfg = tmp_path / "flat.cfg"
    cfg.write_text("[model]\nkind = Constant_Scalar\nvalue = 0.5\n"
                   "steps_per_half = 32\n[grid]\nn1 = 8\nn2 = 8\n")
    assert main(["curvature", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "curvature_report.json").read_text())
    assert report["report"]["label"] == "constant_scalar"


def test_curvature_and_verify_report_the_same_first_config_error(tmp_path, capsys):
    # both commands check the chart settings before the grid
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[grid]\nn1 = 6\nn2 = 6\n[run]\nsing_floor = -1\n")
    for command in (["curvature"], ["verify", "curvature"]):
        assert main([*command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "config error: run.sing_floor must be positive\n"


def test_cylinder_truncation_above_the_label_offset_exits_two(tmp_path, capsys):
    # a mode label below -8192 failed inside numpy's seeding with a traceback
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("[model]\nkind = cylinder\n[cylinder]\ntruncation = 8193\n")
    code = main(["curvature", "--config", str(cfg), "--grid", "8",
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == "config error: truncation must be at most 8192\n"


def test_curvature_has_no_tol_flag(tmp_path):
    # the base tolerance is the config key run.tol; there is no flag for it
    with pytest.raises(SystemExit) as exc:
        main(["curvature", "--tol", "1e-3", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_curvature_degenerate_family_exits_one(tmp_path, capsys):
    code = main(["curvature", "--config", str(CONFIGS / "degenerate.cfg"),
                 "--out", str(tmp_path)])
    assert code == 1
    assert "coverage failure" in capsys.readouterr().err


def test_curvature_vortex_chern_triple(tmp_path):
    cfg = tmp_path / "vortex.cfg"
    cfg.write_text("[interface]\nkind = vortex\n")
    out = tmp_path / "out"
    assert main(["curvature", "--config", str(cfg), "--grid", "16",
                 "--out", str(out)]) == 0
    report = json.loads((out / "curvature_report.json").read_text())
    assert report["report"]["chern"] == {"full": 0, "left": -1, "right": 1,
                                         "additive": True}


_SCALAR_OVERFLOW = "[model]\nkind = constant_scalar\nvalue = -1e300\nsteps_per_half = 16\n"
# the rank-2 state overflows in the step angle |h|, not in a phase
_RANK2_OVERFLOW = "[model]\nkind = dirac\nsteps_per_half = 16\n[potential]\ns1.one.one.cos = 1e300\n"


@pytest.mark.parametrize("command, model", [
    pytest.param("curvature", _SCALAR_OVERFLOW, id="curvature"),
    pytest.param("sweep", _SCALAR_OVERFLOW, id="sweep"),
    pytest.param("curvature", _RANK2_OVERFLOW, id="curvature-rank2"),
    pytest.param("sweep", _RANK2_OVERFLOW, id="sweep-rank2"),
])
def test_overflowing_transfer_fails_in_one_line_without_warnings(tmp_path, capsys, command, model):
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(model + "[grid]\nn1 = 8\nn2 = 8\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == "numerical failure: transfer matrices are not finite\n"


def test_overflowing_interface_fails_in_one_line_without_warnings(tmp_path, capsys):
    # the 2x2 closed-form exponential of a rank-1 rotation overflows
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text("[model]\nkind = constant_scalar\nsteps_per_half = 16\n"
                   "[grid]\nn1 = 8\nn2 = 8\n[interface]\nstrength = -1e300\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["curvature", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == "numerical failure: section frames are not finite\n"


def test_curvature_numerical_failure_exits_one(tmp_path, capsys):
    # on an 8x8 grid a small vortex sits on a link, so the holonomy of the
    # interface bundle is undefined: a typed numerical error, not a traceback
    cfg = tmp_path / "vortex8.cfg"
    cfg.write_text("[grid]\nn1 = 8\nn2 = 8\n[interface]\nkind = vortex\nradius = 0.3\n")
    code = main(["curvature", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


# -- sweep --------------------------------------------------------------------------


def test_sweep_scalar_kernel_locus(tmp_path):
    code = main(["sweep", "--config", str(CONFIGS / "scalar_sweep.cfg"),
                 "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "sweep_report.json").read_text())
    step = 3.0 / 599
    for column in ("metric", "monodromy", "coordinate"):
        zeros = report["zero_indices"][column]
        values = [-0.5 + step * k for k in zeros]
        assert len(values) == 3
        for v, target in zip(sorted(values), (0.0, 1.0, 2.0)):
            assert abs(v - target) <= step
    header, rows = _read_csv(tmp_path / "sweep_metric.csv")
    assert header == ["param", "value_re", "value_im"]
    assert len(rows) == 600
    assert min(float(r[1]) for r in rows) >= 0.0  # metric positivity


def test_sweep_is_seed_independent(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    args = ["sweep", "--config", str(CONFIGS / "scalar_sweep.cfg")]
    assert main(args + ["--seed", "1", "--out", str(out_a)]) == 0
    assert main(args + ["--seed", "2", "--out", str(out_b)]) == 0
    for name in ("sweep_metric", "sweep_monodromy", "sweep_coordinate"):
        assert (out_a / f"{name}.csv").read_bytes() == \
            (out_b / f"{name}.csv").read_bytes()


def test_sweep_demo_family_metric_positive(tmp_path):
    cfg = tmp_path / "demo_line.cfg"
    cfg.write_text("[model]\nkind = dirac\nsteps_per_half = 32\n"
                   "[sweep]\nstart = 0.0\nstop = 6.0\nsamples = 40\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    _, rows = _read_csv(tmp_path / "sweep_metric.csv")
    assert all(float(r[1]) >= 0.0 for r in rows)


DEMO_SWEEP = "[model]\nsteps_per_half = 32\n[sweep]\nsamples = 40\n"


@pytest.mark.parametrize("text", [(CONFIGS / "scalar_sweep.cfg").read_text(), DEMO_SWEEP],
                         ids=["scalar_600", "demo_rank2_40"])
def test_sweep_coordinate_matches_pointwise_chart_coordinate(tmp_path, text):
    # the batched det M / det M1 against the pointwise det((M + S)^-1 M)
    path = tmp_path / "run.cfg"
    path.write_text(text)
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    _, rows = _read_csv(tmp_path / "out" / "sweep_coordinate.csv")
    got = np.array([complex(float(r[1]), float(r[2])) for r in rows])
    cfg = load_config(str(path))
    sweep = cfg["sweep"]
    grid = BaseGrid.line(int(sweep["samples"]), float(sweep["start"]), float(sweep["stop"]))
    sec0, sec1 = build_family(cfg, grid).boundary_pair()
    overlap = pair_overlap_field(sec0, sec1)
    shift = restricted_shift_field(sec0, sec1, default_cover(sec0.dim)[1])
    want = np.array([chart_coordinate(canonical_det(overlap[k]), shift[k])
                     for k in range(np.prod(grid.shape))])
    assert len(got) == np.prod(grid.shape)
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def test_sweep_ignores_malformed_grid_axes(tmp_path):
    # the sweep's grid is [sweep] samples; [grid] is never read
    text = (CONFIGS / "scalar_sweep.cfg").read_text()
    for name, extra in (("plain", ""), ("bad_grid", "\n[grid]\nn1 = abc\n")):
        (tmp_path / f"{name}.cfg").write_text(text + extra)
        code = main(["sweep", "--config", str(tmp_path / f"{name}.cfg"),
                     "--out", str(tmp_path / name)])
        assert code == 0
    for column in ("metric", "monodromy", "coordinate"):
        assert (tmp_path / "bad_grid" / f"sweep_{column}.csv").read_bytes() == \
            (tmp_path / "plain" / f"sweep_{column}.csv").read_bytes()


def test_small_pair_blocks_make_no_linalg_det_or_solve(tmp_path, monkeypatch):
    # every stacked det, solve and tr(M^-1 T) on blocks up to 2x2 is a
    # closed form in _blocks
    demo = demo_family(BaseGrid.torus(8, 8), steps_per_half=16)
    scalar = constant_scalar_family(BaseGrid.torus(8, 8), value=0.3, steps_per_half=16)
    pairs = [(demo.boundary_pair()[0], rotated_interface(demo)), scalar.boundary_pair()]
    (tmp_path / "demo.cfg").write_text(DEMO_SWEEP)
    calls = {name: _count_calls(monkeypatch, name) for name in ("det", "slogdet", "solve")}
    for cfg in (CONFIGS / "scalar_sweep.cfg", tmp_path / "demo.cfg"):
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / cfg.stem)]) == 0
    for s0, s1 in pairs:
        pair_metric_field(s0, s1)
        f_function_field(s0, s0, s1, 0.1)
        curvature_families_formula(s0, s1)
    for name, got in calls.items():
        assert len(got) == 0, name


def test_sweep_point_outside_the_chart_bound_exits_one(tmp_path, capsys, monkeypatch):
    # the shifted overlap of a unitary monodromy U is I - U/2, with singular
    # values in [1/2, 3/2]; a bound below 1 puts every sample outside the chart
    monkeypatch.setattr("detbundle._blocks.COND_BOUND", 0.5)
    code = main(["sweep", "--config", str(CONFIGS / "scalar_sweep.cfg"),
                 "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == \
        "numerical failure: base + shift is not invertible within the condition bound\n"
    assert not (tmp_path / "sweep_report.json").exists()


def test_sweep_rejects_bad_range(tmp_path, capsys):
    # a reversed range, and ranges whose step underflows to 0 or overflows to inf
    for start, stop in ((2.0, 1.0), (0.0, 5e-324), (-1e308, 1e308)):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"[sweep]\nstart = {start!r}\nstop = {stop!r}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1 and err.endswith("\n")


def test_sweep_rejects_the_cylinder_family(tmp_path, capsys):
    # the cylinder family lives on a torus; the kind is refused before any
    # family is built on the sweep's line
    cfg = tmp_path / "cylinder.cfg"
    cfg.write_text("[model]\nkind = Cylinder\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == \
        "config error: sweep supports the transfer-matrix families only\n"


def test_unusable_out_directory_exits_two_before_numerics(tmp_path, capsys, monkeypatch):
    # a regular file, or a path under one, cannot hold the outputs; main
    # refuses it before any family is built
    def no_numerics(*args, **kwargs):
        raise AssertionError("numerics ran before the output directory was made")

    monkeypatch.setattr("detbundle.cli.build_family", no_numerics)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    for out in (blocker, blocker / "sub"):
        code = main(["sweep", "--config", str(CONFIGS / "scalar_sweep.cfg"), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: cannot create output directory")
        assert err.count("\n") == 1 and err.endswith("\n")


def test_config_file_that_is_not_utf8_exits_two(tmp_path, capsys):
    cfg = tmp_path / "latin.cfg"
    cfg.write_bytes(b"[run]\nseed = 0\n# \xff\xfe\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("config error: cannot parse config file")
    assert not (tmp_path / "out").exists()


def test_shipped_demo_config_loads():
    cfg = load_config(str(CONFIGS / "demo.cfg"))
    assert cfg["interface"]["kind"] == "rotated"
    assert config_hash(cfg) == config_hash(load_config(str(CONFIGS / "demo.cfg")))
