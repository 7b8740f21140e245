#!/usr/bin/env python3
"""Curvature additivity: cut the circle, compare the pieces to the whole.

Two runs of the same experiment. A smooth interface drives the residuals to
zero at second order in the grid spacing; a vortex interface leaves the
residuals alone but moves one unit of Chern number between the halves while
the total stays put.
"""

from detbundle.curvature import additivity_residual
from detbundle.grassmann import BaseGrid
from detbundle.models import demo_family, rotated_interface, vortex_interface


def report(n: int, kind: str):
    fam = demo_family(BaseGrid.torus(n, n), steps_per_half=64)
    if kind == "rotated":
        sec = rotated_interface(fam)
        rep = additivity_residual(fam, sec, label=f"{kind}-{n}")
    else:
        sec = vortex_interface(fam)
        rep = additivity_residual(fam, sec, max_excluded=0.2, label=f"{kind}-{n}")
    return rep


print("smooth interface, refining the parameter grid:")
prev = None
for n in (16, 32, 64):
    rep = report(n, "rotated")
    defect = rep.residuals["defect_max_density"]
    one_form = rep.residuals["one_form_max_density"]
    line = f"  {n:3d}^2  defect {defect:.3e}  edge identity {one_form:.3e}"
    if prev is not None:
        line += f"  ratios {prev[0] / defect:.2f}, {prev[1] / one_form:.2f}"
    prev = (defect, one_form)
    print(line)
print("  halving the spacing divides both residuals by about four")

print()
print("vortex interface, topology instead of analysis:")
rep = report(32, "vortex")
print(f"  Chern numbers: whole {rep.chern:+d}, left {rep.chern_left:+d},"
      f" right {rep.chern_right:+d}")
print(f"  additive: {rep.chern_additive}")
print(f"  excluded edge fraction near the vortex core:"
      f" {rep.residuals['excluded_edge_fraction']:.3f}")
