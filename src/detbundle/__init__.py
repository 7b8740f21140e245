"""Numerical laboratory for determinant lines of split operator families.

The package realizes, in finite and truncated models, the chain from
Fredholm determinants through restricted-Grassmannian projection pairs to
determinant line bundles with their canonical metric, compatible connection,
curvature splitting and Chern numbers.
"""

from .errors import (
    CoverageError,
    DegenerateSpectrum,
    GridDomainError,
    NearSingular,
    OutOfChart,
    VortexOnLink,
)
from .opcalc import (
    SchattenProfile,
    compound_matrix,
    fredholm_det,
    schatten_profile,
    trace,
    trace_norm,
    wedge_trace,
)
from .grassmann import (
    BaseGrid,
    DiscreteForm,
    Projection,
    ProjectionSection,
    curvature_trace_form,
    graph_projection,
    second_fundamental_form,
    section_links,
    spectral_projection,
    toeplitz_inverse,
)
from .detline import (
    LineElement,
    canonical_det,
    chart_coordinate,
    coordinate,
    inner_product,
    metric_norm_sq,
    norm_sq,
    sew,
    sew_gauge_factor,
    transition,
)
from .models import (
    DEMO_COEFFICIENTS,
    CylinderFamily,
    Dirac1DFamily,
    bloch_curvature_density,
    bloch_section,
    bloch_vector,
    coefficient_family,
    constant_scalar_family,
    demo_family,
    potential_from_coefficients,
    rotated_interface,
    smoothing_perturbation,
    vortex_interface,
)
from .curvature import (
    ChartedConnection,
    CurvatureReport,
    additivity_residual,
    chern_number,
    chern_of_pair,
    chern_of_section,
    composition_trace_identity,
    connection_one_form,
    curvature_families_formula,
    curvature_of,
    default_cover,
    f_function,
    pair_links,
    pair_metric_field,
    patching_residuals,
    plaquette_winding,
    swap_trace_identity,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "CoverageError", "DegenerateSpectrum", "GridDomainError", "NearSingular",
    "OutOfChart", "VortexOnLink",
    "SchattenProfile", "compound_matrix", "fredholm_det", "schatten_profile",
    "trace", "trace_norm", "wedge_trace",
    "BaseGrid", "DiscreteForm", "Projection", "ProjectionSection",
    "curvature_trace_form", "graph_projection", "second_fundamental_form",
    "section_links", "spectral_projection", "toeplitz_inverse",
    "LineElement", "canonical_det", "chart_coordinate",
    "coordinate", "inner_product", "metric_norm_sq", "norm_sq", "sew",
    "sew_gauge_factor", "transition",
    "CylinderFamily", "DEMO_COEFFICIENTS", "Dirac1DFamily",
    "bloch_curvature_density", "bloch_section", "bloch_vector",
    "coefficient_family", "constant_scalar_family", "demo_family",
    "potential_from_coefficients", "rotated_interface",
    "smoothing_perturbation", "vortex_interface",
    "ChartedConnection", "CurvatureReport", "additivity_residual",
    "chern_number", "chern_of_pair", "chern_of_section",
    "composition_trace_identity", "connection_one_form",
    "curvature_families_formula", "curvature_of", "default_cover", "f_function",
    "pair_links", "pair_metric_field", "patching_residuals", "plaquette_winding",
    "swap_trace_identity",
]
