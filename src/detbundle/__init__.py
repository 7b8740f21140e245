"""Numerical laboratory for determinant lines of split operator families.

The package realizes, in finite and truncated models, the chain from
Fredholm determinants through restricted-Grassmannian projection pairs to
determinant line bundles with their canonical metric, compatible connection,
curvature splitting and Chern numbers.  The ``__all__`` of each module
imported below declares the names the package exports.

Importing the package before numpy pins its BLAS to one thread, unless the
environment already names a thread count: a threaded BLAS splits its sums by
thread count, so outputs would depend on it, and the large block stacks of
``_blocks`` already run on two cores.
"""

import os
import sys

if "numpy" not in sys.modules:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

from . import curvature, detline, errors, grassmann, models, opcalc
from .errors import *
from .opcalc import *
from .grassmann import *
from .detline import *
from .models import *
from .curvature import *

__version__ = "0.1.0"

__all__ = ["__version__", *errors.__all__, *opcalc.__all__, *grassmann.__all__,
           *detline.__all__, *models.__all__, *curvature.__all__]
