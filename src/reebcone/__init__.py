"""K-semistability of affine toric cone singularities.

Decides K-semistability via the barycenter certificate u_bar^P = l, computes
delta-invariants, index/weight characters and local Futaki invariants, and
minimizes the normalized volume over the Reeb cone — with brute-force
oracles alongside every analytic quantity.
"""

from .errors import (
    ConvergenceError,
    CutoffTooSmall,
    DegenerateSolutionSet,
    DimensionMismatch,
    ExceedsSupportedSize,
    InputError,
    IrrationalReeb,
    LeftReebCone,
    MathDomainError,
    MaxIterations,
    NonConvergent,
    NonIntegerRay,
    NotFullDimensional,
    NotPointed,
    NotQGorenstein,
    OrderTooLarge,
    RayPrimitivizedWarning,
    RedundantRayWarning,
    ReebconeError,
    ReebconeWarning,
    SchemaError,
    UnboundedSlice,
)
from .geometry import (
    GorensteinVector,
    PolytopeSlice,
    ReebVector,
    ToricCone,
    dual_cone,
    gorenstein_vector,
    lattice_points,
    polytope_Q,
    reeb_vector,
    triangulate_cone,
)
from .characters import (
    LaurentSeries,
    SimplicialPiece,
    decompose_dual,
    index_character,
    truncated_character_oracle,
    weight_character,
)
from .stability import (
    StabilityReport,
    ToricValuation,
    delta,
    futaki_pairing,
    futaki_product,
    log_discrepancy,
    ratio_profile,
    s_m_oracle,
    s_prime,
    s_value,
    toric_valuation,
)
from .optimize import (
    GridResult,
    MinimizeResult,
    RationalCandidate,
    convexity_probe,
    grid_search_oracle,
    minimize_volume,
    rationality_probe,
    volume_objective,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError", "CutoffTooSmall", "DegenerateSolutionSet",
    "DimensionMismatch", "ExceedsSupportedSize", "InputError",
    "IrrationalReeb", "LeftReebCone", "MathDomainError", "MaxIterations",
    "NonConvergent", "NonIntegerRay", "NotFullDimensional", "NotPointed",
    "NotQGorenstein", "OrderTooLarge", "RayPrimitivizedWarning",
    "RedundantRayWarning", "ReebconeError", "ReebconeWarning", "SchemaError",
    "UnboundedSlice",
    "GorensteinVector", "PolytopeSlice", "ReebVector", "ToricCone",
    "dual_cone", "gorenstein_vector", "lattice_points", "polytope_Q",
    "reeb_vector", "triangulate_cone",
    "LaurentSeries", "SimplicialPiece", "decompose_dual", "index_character",
    "truncated_character_oracle", "weight_character",
    "StabilityReport", "ToricValuation", "delta", "futaki_pairing",
    "futaki_product", "log_discrepancy", "ratio_profile", "s_m_oracle",
    "s_prime", "s_value", "toric_valuation",
    "GridResult", "MinimizeResult", "RationalCandidate", "convexity_probe",
    "grid_search_oracle", "minimize_volume", "rationality_probe",
    "volume_objective",
    "__version__",
]
