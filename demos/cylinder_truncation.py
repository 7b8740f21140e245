#!/usr/bin/env python3
# Truncation study for the cylinder-style boundary family.
#
# The mode-space perturbations decay exponentially, so every reported scalar
# has to stabilize once the truncation covers the support. Doubling N from 32
# to 64 should change nothing at the 1e-6 level for gamma >= 0.5.

# detbundle before numpy: importing it first pins the BLAS to one thread, so
# the 129 x 129 kernels at truncation 64 round the same on every machine
from detbundle.curvature import connection_one_form, curvature_of, pair_metric_field
from detbundle.grassmann import BaseGrid
from detbundle.models import CylinderFamily

import numpy as np

grid = BaseGrid.torus(8, 8)

for style in ("conjugated", "additive"):
    print(f"style {style}:")
    rows = {}
    for truncation in (16, 32, 64):
        fam = CylinderFamily(grid, truncation=truncation, gamma=0.6, seed=0,
                             amplitude=1.0, style=style)
        sec0, sec1 = fam.boundary_pair()
        conn = connection_one_form(sec0, sec1, sing_floor=1e-6)
        rows[truncation] = (
            pair_metric_field(sec0, sec1),
            conn.omega[0].samples,
            curvature_of(conn).total(),
        )
        print(f"  N={truncation:3d}  mode dim {2 * truncation + 1:4d}"
              f"  curvature total {rows[truncation][2]:+.10f}")
    for a, b in ((16, 32), (32, 64)):
        dm = np.abs(rows[b][0] - rows[a][0]).max()
        do = np.abs(rows[b][1] - rows[a][1]).max()
        dc = abs(rows[b][2] - rows[a][2])
        print(f"  N={a}->{b}: metric {dm:.2e}, one-form {do:.2e}, total {dc:.2e}")
