#!/usr/bin/env python3
"""Transfer matrices and the two Cauchy-data bundles of the split circle."""

import numpy as np

from detbundle.grassmann import BaseGrid
from detbundle.models import constant_scalar_family, demo_family

# constant coefficient: the half-circle transfer matrix is exp(i c pi / 2) on
# each component, so everything downstream has a closed form to compare with
grid = BaseGrid.line(5, 0.0, 2.0)
fam = constant_scalar_family(grid, value=0.75, steps_per_half=512)
t = fam.transfer_field(0.0, np.pi)[0]
print(f"transfer over half the circle: {t[0, 0]:.10f}")
print(f"closed form exp(i c pi):       {np.exp(1j * 0.75 * np.pi):.10f}")

mono = fam.monodromy_field()[0]
print(f"det(I - T_full) at c=0.75: {mono:.10f} (vanishes only at integer c)")

# the demo two-band family: left and right boundary-value bundles, and the
# principal angle between them away from the kernel locus
fam2 = demo_family(BaseGrid.torus(12, 12), steps_per_half=64)
left = fam2.calderon_section("left")
right = fam2.calderon_section("right")
f_left = left.frames()
f_right = right.frames()
sigma = np.linalg.svd(np.swapaxes(f_left.conj(), -1, -2) @ f_right,
                      compute_uv=False)[..., 0]
print(f"rank of each bundle: {left.base_rank}, ambient dim {left.dim}")
print(f"largest overlap singular value across the torus: {sigma.max():.6f}")
print(f"smallest: {sigma.min():.6f} (1 would mean the bundles intersect)")
print(f"section smoothness (max finite difference * h): "
      f"{left.smoothness * fam2.grid.spacing[0]:.4f}")
