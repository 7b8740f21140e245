#!/usr/bin/env python3
"""Sweep the rank-one constant potential and watch the kernel locus appear.

For the constant coefficient c the half-line transfer matrices are explicit
and the problem has a kernel exactly at integer c. Three independent
detectors must agree on where that happens:
  * the monodromy-style determinant det(I - T),
  * the squared canonical metric of the boundary pairing,
  * a chart coordinate of the same line element in a shifted chart.
"""

import numpy as np

from detbundle.curvature import default_cover, pair_overlap_field, restricted_shift_field
from detbundle.detline import canonical_det, chart_coordinate
from detbundle.grassmann import BaseGrid
from detbundle.models import constant_scalar_family

grid = BaseGrid.line(241, -0.5, 2.5)
fam = constant_scalar_family(grid, steps_per_half=64)
sec0, sec1 = fam.boundary_pair()

overlap = pair_overlap_field(sec0, sec1)
metric = np.abs(np.linalg.det(overlap)) ** 2
mono = np.abs(fam.monodromy_field())
shift = restricted_shift_field(sec0, sec1, default_cover(sec0.dim)[1])
coord = np.abs([chart_coordinate(canonical_det(overlap[k]), shift[k])
                for k in range(grid.shape[0])])


def zeros(values: np.ndarray) -> list[float]:
    c = grid.axis_coords(0)
    out = []
    for k in range(1, len(values) - 1):
        if values[k] <= values[k - 1] and values[k] <= values[k + 1]:
            if values[k] < 0.05 * values.max():
                out.append(float(c[k]))
    return out


print(f"{'detector':12s} zero locations")
for name, vals in (("monodromy", mono), ("metric", metric), ("coordinate", coord)):
    locs = ", ".join(f"{x:+.4f}" for x in zeros(vals))
    print(f"{name:12s} {locs}")
print("expected     +0.0000, +1.0000, +2.0000 up to one grid step")
