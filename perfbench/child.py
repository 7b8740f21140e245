"""Child-process entry points of the benchmark; run.py starts each one fresh.

    python3 perfbench/child.py setup  '<json list of detbundle argv lists>'
    python3 perfbench/child.py probe
    python3 perfbench/child.py trace  <trace.json> <detbundle argv...>

``setup`` imports detbundle and loads and validates each command's config,
then exits before any numerical call: its spawn-to-exit time is ``setup_s``.
``probe`` prints the transfer-integrator accuracy co-metrics as JSON.
``trace`` runs one CLI command under the tracer of tracer.py.
"""

from __future__ import annotations

import argparse
import json
import sys

# The demo workload's config; the probe measures its integrator.
DEMO_CONFIG = "configs/demo.cfg"
PROBE_GRID = 16
STEP_GAP_REFINEMENT = 4


def setup(commands: list[list[str]]) -> None:
    from detbundle import cli
    from detbundle.grassmann import BaseGrid

    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("command")
    flags.add_argument("--config")
    flags.add_argument("--grid", type=int)
    flags.add_argument("--seed", type=int)
    for argv in commands:
        args, _ = flags.parse_known_args(argv)
        overrides = {}
        if args.grid is not None:
            overrides.update({"grid.n1": str(args.grid), "grid.n2": str(args.grid)})
        if args.seed is not None:
            overrides["run.seed"] = str(args.seed)
        cfg = cli.load_config(args.config, overrides)
        if args.command == "sweep":
            grid = BaseGrid.line(int(cfg["sweep"]["samples"]), float(cfg["sweep"]["start"]),
                                 float(cfg["sweep"]["stop"]))
        else:
            grid = BaseGrid.torus(int(cfg["grid"]["n1"]), int(cfg["grid"]["n2"]))
        cli.build_family(cfg, grid)


def probe() -> dict[str, float]:
    """Unitarity defect of T(0 -> pi) and its gap to a 4x finer step lattice."""
    import numpy as np

    from detbundle import cli
    from detbundle.grassmann import BaseGrid

    grid = BaseGrid.torus(PROBE_GRID, PROBE_GRID)
    cfg = cli.load_config(DEMO_CONFIG)
    t = cli.build_family(cfg, grid).transfer_field(0.0, np.pi)
    steps = int(cfg["model"]["steps_per_half"])
    fine_cfg = cli.load_config(DEMO_CONFIG,
                               {"model.steps_per_half": str(STEP_GAP_REFINEMENT * steps)})
    t_fine = cli.build_family(fine_cfg, grid).transfer_field(0.0, np.pi)
    tt = np.swapaxes(t.conj(), -1, -2) @ t
    return {
        "transfer_unitarity_defect": float(np.max(np.abs(tt - np.eye(t.shape[-1])))),
        "transfer_step_gap": float(np.max(np.abs(t - t_fine))),
    }


def main() -> int:
    mode = sys.argv[1]
    if mode == "setup":
        setup(json.loads(sys.argv[2]))
        return 0
    if mode == "probe":
        print(json.dumps(probe()))
        return 0
    if mode == "trace":
        from tracer import run_traced
        return run_traced(sys.argv[3:], sys.argv[2])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main())
