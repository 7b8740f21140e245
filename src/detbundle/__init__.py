"""Numerical laboratory for determinant lines of split operator families.

The package realizes, in finite and truncated models, the chain from
Fredholm determinants through restricted-Grassmannian projection pairs to
determinant line bundles with their canonical metric, compatible connection,
curvature splitting and Chern numbers.  The ``__all__`` of each module
imported below declares the names the package exports.
"""

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
