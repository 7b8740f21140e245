"""Error taxonomy shared across the package."""

__all__ = [
    "DegenerateSpectrum",
    "OutOfChart",
    "CoverageError",
    "VortexOnLink",
    "GridDomainError",
    "SeriesCancellation",
]


class DegenerateSpectrum(ValueError):
    """Eigenvalues inside the forbidden band around zero; spectral projection ill-posed."""


class OutOfChart(ValueError):
    """A compression is numerically non-invertible here: the point lies outside the chart."""


class CoverageError(RuntimeError):
    """No chart in the cover is valid on some required stencil."""

    def __init__(self, message: str, fraction: float | None = None):
        super().__init__(message)
        self.fraction = fraction  # the excluded edge fraction; None for a point outside every chart


class VortexOnLink(ValueError):
    """A normalized link overlap has near-zero modulus; holonomy undefined."""


class GridDomainError(IndexError):
    """A torus operation (a form, a neighbour step, a plaquette) met a 1-axis line grid."""


class SeriesCancellation(ValueError):
    """Newton's identities (the Fredholm series, a wedge trace) cancelled beyond tolerance; untrustworthy."""
