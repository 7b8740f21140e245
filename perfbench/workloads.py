"""The benchmark's workloads, their output checks and accuracy co-metrics.

Every workload is a closed loop: run.py starts one CLI run at a time, each
a fresh ``python3 -m detbundle`` process with BLAS pinned to one thread.
The workload seed is forwarded as ``--seed``; the demo and sweep commands
are deterministic and ignore it, cylinder and verify draw their random
families from it.

The accuracy co-metrics vary with the seed wherever the inputs do (the
cylinder defect by 5x over seeds 0-10), so they are read from untimed
``reference`` runs at REFERENCE_SEED and compare like with like between
commits; a command left out of ``reference`` ignores the seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

REFERENCE_SEED = 0
VERIFY_CHECKS = 41
SWEEP_ZEROS = [100, 300, 499]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple[tuple[str, ...], ...]
    reference: tuple[tuple[str, ...], ...] = (("verify", "all"),)
    # Report sample times at the reference speed of run.calibrate().  Only
    # for short interpreter-bound samples: there the calibration next to a
    # sample tracks its speed (correlation 0.8), while across a 8-15 s
    # LAPACK-bound sample it does not and only adds noise.
    calibrated: bool = False


WORKLOADS = {w.name: w for w in (
    Workload(
        "demo_curvature_128",
        "16384 points of 4x4 rank-2 pairs: models transfer integration dominates, "
        "then curvature additivity and report I/O",
        (("curvature", "--config", "configs/demo.cfg", "--grid", "128"),),
    ),
    Workload(
        "cylinder_t32",
        "144 points of 65x65 rank-33 pairs with no transfer integration: "
        "grassmann frames and section builds and models smoothing draws dominate",
        (("curvature", "--config", "configs/cylinder.cfg"),),
        (("verify", "all"), ("curvature", "--config", "configs/cylinder.cfg")),
    ),
    Workload(
        "suites_sweep",
        "verify all then the 600-point sweep: many small pointwise calls, the only "
        "workload where opcalc and detline do material work",
        (("verify", "all"), ("sweep", "--config", "configs/scalar_sweep.cfg")),
        calibrated=True,
    ),
)}


def _load(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def check_output(command: str, rc: int, out_dir: Path) -> list[str]:
    """Problems with one command's exit code and outputs; empty when correct."""
    problems = [] if rc == 0 else [f"{command} exited {rc}"]
    if command == "curvature":
        rep = _load(out_dir / "curvature_report.json")
        chern = rep and rep["report"]["chern"]
        if chern != {"full": 0, "left": 0, "right": 0, "additive": True}:
            problems.append(f"curvature: Chern triple not (0, 0, 0) additive: {chern}")
    elif command == "verify":
        rep = _load(out_dir / "verify_report.json")
        checks = [c for suite in (rep or {}).get("suites", {}).values() for c in suite]
        passed = sum(1 for c in checks if c["passed"])
        if not (rep and rep["passed"] and len(checks) == VERIFY_CHECKS == passed):
            problems.append(f"verify: {passed} of {len(checks)} checks passed, "
                            f"want all {VERIFY_CHECKS}")
    elif command == "sweep":
        rep = _load(out_dir / "sweep_report.json")
        zeros = rep and rep["zero_indices"]
        want = {k: SWEEP_ZEROS for k in ("metric", "monodromy", "coordinate")}
        if zeros != want:
            problems.append(f"sweep: zero indices {zeros}, want {SWEEP_ZEROS} for each")
    return problems


def verify_margin(out_dir: Path) -> float:
    """Largest measured/threshold over the verify checks with a positive threshold."""
    rep = _load(out_dir / "verify_report.json")
    return max(c["measured"] / c["threshold"] for suite in rep["suites"].values()
               for c in suite if c["threshold"] > 0)


def defect_max_density(reference: Path, sample: Path) -> float:
    """Plaquette additivity defect density of a curvature report.

    The reference run's report comes first, then the timed sample's (for the
    seed-free demo).  The suites workload writes none; its value is the same
    residual from the verify curvature suite (``plaquette_defect``, on the
    16x16 demo torus).
    """
    for out in (reference, sample):
        rep = _load(out / "curvature_report.json")
        if rep is not None:
            return rep["report"]["residuals"]["defect_max_density"]
    rep = _load(reference / "verify_report.json")
    return next(c["measured"] for c in rep["suites"]["curvature"]
                if c["name"] == "plaquette_defect")
