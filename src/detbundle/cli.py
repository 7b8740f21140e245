"""Experiment runner: verification suites, curvature reports, parameter sweeps.

Subcommands
    verify    run one named invariant suite (or all) and report pass/fail
    curvature emit per-plaquette CSVs and the Chern/additivity report
    sweep     scan a one-parameter family and emit metric, monodromy and
              coordinate columns

Configs are flat key=value files with [section] headers; every report embeds
the hash of the effective configuration, the grid, the seed and the library
version, and nothing else varies between runs, so identical inputs give
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from ._blocks import _cond_ok, det
from .errors import CoverageError, DegenerateSpectrum, OutOfChart, VortexOnLink
from .grassmann import BaseGrid
from .models import (
    DEMO_COEFFICIENTS,
    CylinderFamily,
    coefficient_family,
    constant_scalar_family,
    rotated_interface,
    vortex_interface,
)
from .curvature import additivity_residual, default_cover, pair_metric_field, pair_overlap_field
from .verify import SUITE_NAMES, run_suite

__all__ = ["main", "load_config", "config_hash"]


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


DEFAULTS: dict[str, dict[str, str]] = {
    "model": {
        "kind": "dirac",
        "rank": "1",
        "steps_per_half": "128",
        "value": "",
    },
    "grid": {"n1": "16", "n2": "16"},
    "interface": {
        "kind": "rotated",
        "strength": "0.4",
        "radius": "1.1",
        "orientation": "1",
    },
    "cylinder": {
        "truncation": "32",
        "gamma": "0.6",
        "amplitude": "1.0",
        "style": "conjugated",
    },
    "run": {
        "seed": "0",
        "tol": "1e-9",
        "sing_floor": "0.1",
        "max_excluded": "0.05",
    },
    "sweep": {"start": "-0.5", "stop": "2.5", "samples": "600"},
}


def load_config(path: str | None, overrides: dict[str, str] | None = None) -> dict[str, dict[str, str]]:
    """Effective configuration: defaults, overlaid file, overlaid CLI flags."""
    cfg = {sec: dict(kv) for sec, kv in DEFAULTS.items()}
    cfg["potential"] = {k: repr(v) for k, v in DEMO_COEFFICIENTS.items()}
    if path is not None:
        parser = configparser.ConfigParser()
        try:
            with open(path, encoding="utf-8") as fh:
                parser.read_file(fh)
        except OSError as err:
            raise ConfigError(f"cannot read config file: {err}") from err
        except (configparser.Error, UnicodeDecodeError) as err:
            raise ConfigError(f"cannot parse config file: {err}") from err
        for sec in parser.sections():
            if sec not in cfg:
                raise ConfigError(f"unknown config section [{sec}]")
            if sec == "potential":
                cfg[sec] = dict(parser.items(sec))
            else:
                for key, value in parser.items(sec):
                    if key not in cfg[sec]:
                        raise ConfigError(f"unknown key {key!r} in section [{sec}]")
                    cfg[sec][key] = value
    for dotted, value in (overrides or {}).items():
        sec, key = dotted.split(".", 1)
        cfg[sec][key] = value
    return cfg


def config_hash(cfg: dict[str, dict[str, str]]) -> str:
    dump = "\n".join(f"{sec}.{key}={cfg[sec][key]}"
                     for sec in sorted(cfg) for key in sorted(cfg[sec]))
    return hashlib.sha256(dump.encode()).hexdigest()[:16]


def _as_float(cfg, sec, key) -> float:
    try:
        value = float(cfg[sec][key])
    except ValueError as err:
        raise ConfigError(f"{sec}.{key} must be a number, got {cfg[sec][key]!r}") from err
    if not math.isfinite(value):
        raise ConfigError(f"{sec}.{key} must be finite, got {cfg[sec][key]!r}")
    return value


def _as_int(cfg, sec, key) -> int:
    try:
        return int(cfg[sec][key])
    except ValueError as err:
        raise ConfigError(f"{sec}.{key} must be an integer, got {cfg[sec][key]!r}") from err


def _positive(value: float, name: str) -> float:
    if not value > 0:
        raise ConfigError(f"{name} must be positive")
    return value


def _seed(cfg) -> int:
    seed = _as_int(cfg, "run", "seed")
    if seed < 0:
        raise ConfigError("run.seed must be non-negative")
    return seed


def _model_kind(cfg) -> str:
    return cfg["model"]["kind"].strip().lower()


def build_family(cfg: dict[str, dict[str, str]], grid: BaseGrid):
    kind = _model_kind(cfg)
    steps = _as_int(cfg, "model", "steps_per_half")
    try:
        if kind == "dirac":
            coeffs = {key: _as_float(cfg, "potential", key) for key in cfg["potential"]}
            return coefficient_family(grid, coeffs, steps_per_half=steps)
        if kind == "constant_scalar":
            value = _as_float(cfg, "model", "value") if cfg["model"]["value"].strip() else None
            rank = _as_int(cfg, "model", "rank")
            return constant_scalar_family(grid, value=value, rank=rank,
                                          steps_per_half=steps)
        if kind == "cylinder":
            return CylinderFamily(
                grid,
                truncation=_as_int(cfg, "cylinder", "truncation"),
                gamma=_as_float(cfg, "cylinder", "gamma"),
                seed=_seed(cfg),
                amplitude=_as_float(cfg, "cylinder", "amplitude"),
                style=cfg["cylinder"]["style"].strip().lower(),
            )
    except ConfigError:
        raise
    except ValueError as err:
        # the constructors only validate their arguments
        raise ConfigError(str(err)) from err
    raise ConfigError(f"unknown model kind {cfg['model']['kind']!r}")


def build_interface(cfg: dict[str, dict[str, str]], family):
    if isinstance(family, CylinderFamily):
        return family.conjugated_section(0.5 * family.amplitude, seed_offset=4)
    kind = cfg["interface"]["kind"].strip().lower()
    if kind == "rotated":
        return rotated_interface(family, strength=_as_float(cfg, "interface", "strength"))
    if kind == "vortex":
        radius = _as_float(cfg, "interface", "radius")
        if not 0 < radius < math.pi:
            raise ConfigError("interface.radius must lie in (0, pi)")
        return vortex_interface(family, radius=radius,
                                orientation=_as_int(cfg, "interface", "orientation"))
    raise ConfigError(f"unknown interface kind {cfg['interface']['kind']!r}")


def _grid_axes(cfg) -> list[int]:
    return [_as_int(cfg, "grid", "n1"), _as_int(cfg, "grid", "n2")]


def _curvature_inputs(cfg) -> dict:
    """Keyword arguments of a curvature run; the chart settings, then the
    grid size, are checked before the model is built."""
    sing_floor = _positive(_as_float(cfg, "run", "sing_floor"), "run.sing_floor")
    max_excluded = _as_float(cfg, "run", "max_excluded")
    if not 0 <= max_excluded <= 1:
        raise ConfigError("run.max_excluded must lie in [0, 1]")
    n1, n2 = _grid_axes(cfg)
    if min(n1, n2) < 8:
        raise ConfigError("curvature runs need grid axes of at least 8 points")
    model = build_family(cfg, BaseGrid.torus(n1, n2))
    return {"model": model, "section": build_interface(cfg, model),
            "sing_floor": sing_floor, "max_excluded": max_excluded}


def _meta(cfg, command: str, grid: list[int]) -> dict:
    return {
        "command": command,
        "config_hash": config_hash(cfg),
        "grid": grid,
        "library_version": __version__,
        "seed": _seed(cfg),
    }


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_rows(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(c) for c in row) + "\n")


def cmd_verify(suite: str, cfg: dict, out_dir: Path) -> int:
    names = list(SUITE_NAMES) if suite == "all" else [suite]
    report = _meta(cfg, f"verify {suite}", _grid_axes(cfg))
    tol = _positive(_as_float(cfg, "run", "tol"), "run.tol")
    kwargs = _curvature_inputs(cfg) if "curvature" in names else {}
    results = {name: run_suite(name, seed=report["seed"], tol=tol,
                               **(kwargs if name == "curvature" else {}))
               for name in names}
    report["suites"] = {name: [dataclasses.asdict(c) for c in checks]
                        for name, checks in results.items()}
    failures = [f"{name}.{c.name}" for name, checks in results.items()
                for c in checks if not c.passed]
    report["passed"] = not failures
    report["failures"] = failures
    _write_json(out_dir / "verify_report.json", report)
    for name, checks in results.items():
        for c in checks:
            flag = "PASS" if c.passed else "FAIL"
            print(f"[{flag}] {name}.{c.name}  measured={c.measured:.6e}  "
                  f"threshold={c.threshold:.1e}")
    print(f"report: {out_dir / 'verify_report.json'}")
    if failures:
        print("failing invariants: " + ", ".join(failures), file=sys.stderr)
        return 1
    return 0


def cmd_curvature(cfg: dict, out_dir: Path) -> int:
    payload = _meta(cfg, "curvature", _grid_axes(cfg))
    report = additivity_residual(label=_model_kind(cfg), **_curvature_inputs(cfg))
    report.curvature.to_csv(out_dir / "curvature_full.csv")
    report.curvature_left.to_csv(out_dir / "curvature_left.csv")
    report.curvature_right.to_csv(out_dir / "curvature_right.csv")
    report.defect.to_csv(out_dir / "additivity_residual.csv")
    report.f_winding.to_csv(out_dir / "f_winding.csv")
    excl = report.defect.mask
    rows = ([*idx, int(excl[idx]), 0] for idx in np.ndindex(*excl.shape))
    _write_rows(out_dir / "exclusions.csv", ["i", "j", "re", "im"], rows)
    payload["report"] = report.summary()
    payload["verdict"] = ("chern additivity holds" if report.chern_additive
                          else "chern additivity FAILED")
    _write_json(out_dir / "curvature_report.json", payload)
    print(f"chern full={report.chern} left={report.chern_left} "
          f"right={report.chern_right} -> {payload['verdict']}")
    for key, value in sorted(report.residuals.items()):
        print(f"  {key} = {value:.6e}")
    print(f"outputs: {out_dir}")
    return 0 if report.chern_additive else 1


def cmd_sweep(cfg: dict, out_dir: Path) -> int:
    samples = _as_int(cfg, "sweep", "samples")
    start = _as_float(cfg, "sweep", "start")
    stop = _as_float(cfg, "sweep", "stop")
    payload = _meta(cfg, "sweep", [samples])
    try:
        grid = BaseGrid.line(samples, start, stop)
    except ValueError as err:
        raise ConfigError(f"sweep range [{start}, {stop}] over {samples} samples: {err}") from err
    # a cylinder family lives on a torus only
    if _model_kind(cfg) == "cylinder":
        raise ConfigError("sweep supports the transfer-matrix families only")
    family = build_family(cfg, grid)
    sec0, sec1 = family.boundary_pair()
    shifted = pair_overlap_field(sec0, sec1, default_cover(sec0.dim)[1])
    if not _cond_ok(shifted).all():
        raise OutOfChart("base + shift is not invertible within the condition bound")
    # the canonical element [M, 1] has coordinate det(M1^-1 M) in the shifted chart
    columns = {"metric": pair_metric_field(sec0, sec1), "monodromy": family.monodromy_field(),
               "coordinate": det(pair_overlap_field(sec0, sec1)) / det(shifted)}

    def zero_indices(values: np.ndarray) -> list[int]:
        v = np.abs(values)
        thr = 0.05 * float(v.max())
        return [k for k in range(1, len(v) - 1)
                if v[k] <= v[k - 1] and v[k] <= v[k + 1] and v[k] < thr]

    params = grid.axis_coords(0)
    for name, values in columns.items():
        _write_rows(out_dir / f"sweep_{name}.csv", ["param", "value_re", "value_im"],
                    ([repr(float(p)), repr(float(v.real)), repr(float(v.imag))]
                     for p, v in zip(params, values)))
    payload["range"] = [start, stop]
    payload["zero_indices"] = {name: zero_indices(v) for name, v in columns.items()}
    _write_json(out_dir / "sweep_report.json", payload)
    print(f"sweep of {samples} samples over [{start}, {stop}]")
    for name, idx in payload["zero_indices"].items():
        at = ", ".join(f"{params[k]:.4f}" for k in idx)
        print(f"  zeros of {name}: [{at}]")
    print(f"outputs: {out_dir}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="detbundle",
        description="determinant-line bundle laboratory runner")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", metavar="PATH", help="key=value config file")
        p.add_argument("--grid", metavar="N", type=int,
                       help="override both grid axes")
        p.add_argument("--seed", metavar="K", type=int, help="override run seed")
        p.add_argument("--out", metavar="DIR", default="out",
                       help="output directory (default: ./out)")

    pv = sub.add_parser("verify", help="run invariant suites")
    pv.add_argument("suite", choices=list(SUITE_NAMES) + ["all"])
    common(pv)
    pc = sub.add_parser("curvature", help="curvature and additivity report")
    common(pc)
    ps = sub.add_parser("sweep", help="one-parameter kernel-locus scan")
    common(ps)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    overrides: dict[str, str] = {}
    if args.grid is not None:
        overrides["grid.n1"] = str(args.grid)
        overrides["grid.n2"] = str(args.grid)
    if args.seed is not None:
        overrides["run.seed"] = str(args.seed)
    try:
        cfg = load_config(args.config, overrides)
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as err:
            raise ConfigError(f"cannot create output directory: {err}") from err
        if args.command == "verify":
            return cmd_verify(args.suite, cfg, out_dir)
        if args.command == "curvature":
            return cmd_curvature(cfg, out_dir)
        return cmd_sweep(cfg, out_dir)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except CoverageError as err:
        print(f"coverage failure: {err}", file=sys.stderr)
        return 1
    except (VortexOnLink, OutOfChart, DegenerateSpectrum, FloatingPointError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
