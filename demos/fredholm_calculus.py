#!/usr/bin/env python3
"""Walk through the finite Fredholm calculus.

Builds a random trace-class style perturbation, compares the exterior-power
series for det(I + A) against the dense determinant, and checks the two
identities everything downstream leans on: multiplicativity and the trace as
the logarithmic derivative at the identity.
"""

import numpy as np

from detbundle.opcalc import (
    compound_matrix,
    fredholm_det,
    schatten_profile,
    trace,
    trace_norm,
    wedge_trace,
)

rng = np.random.default_rng(7)

dim = 40
a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
a *= 3.0 / trace_norm(a)

prof = schatten_profile(a)
print(f"dim {dim}, trace norm {prof.trace_norm:.4f}, operator norm {prof.operator_norm:.4f}")

# the series is finite: it sums all dim + 1 exterior-power traces
series = fredholm_det(a, method="series")
dense = fredholm_det(a, method="dense")
print(f"det(I+A)  series {series:.12f}")
print(f"det(I+A)  dense  {dense:.12f}")
print(f"relative gap {abs(series - dense) / abs(dense):.3e}")

# low orders against the literal compound matrix
for r in range(1, 4):
    direct = np.trace(compound_matrix(a[:6, :6], r))
    print(f"wedge trace order {r}: recursive {wedge_trace(a[:6, :6], r):.8f}"
          f"  compound {direct:.8f}")

b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
b *= 1.5 / trace_norm(b)
lhs = fredholm_det(a + b + a @ b)
rhs = fredholm_det(a) * fredholm_det(b)
print(f"multiplicativity gap {abs(lhs - rhs):.3e}")

eps = 1e-5
slope = (fredholm_det(eps * a) - fredholm_det(-eps * a)) / (2 * eps)
slope = (4 * slope - (fredholm_det(2 * eps * a) - fredholm_det(-2 * eps * a)) / (4 * eps)) / 3
print(f"d/dt det(I+tA) at 0: {slope:.10f}  vs trace {trace(a):.10f}")
