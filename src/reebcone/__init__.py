"""K-semistability of affine toric cone singularities.

Decides K-semistability via the barycenter certificate u_bar^P = l, computes
delta-invariants, index/weight characters and local Futaki invariants, and
minimizes the normalized volume over the Reeb cone — with brute-force
oracles alongside every analytic quantity.

The exports load lazily (PEP 562): ``import reebcone`` loads the error types
only, and the first use of a name imports the submodule that defines it, so
a caller pays for the layers it uses.
"""

import importlib

from . import errors

__version__ = "0.1.0"

# every export, by the submodule that defines it
_EXPORTS = {
    "errors": (
        "ConvergenceError", "CutoffTooSmall", "DegenerateSolutionSet",
        "DimensionMismatch", "ExceedsSupportedSize", "InputError",
        "IrrationalReeb", "MathDomainError", "MaxIterations", "NonConvergent",
        "NonIntegerRay", "NotFullDimensional", "NotPointed", "NotQGorenstein",
        "OrderTooLarge", "RayPrimitivizedWarning", "RedundantRayWarning",
        "ReebconeError", "ReebconeWarning", "SchemaError", "UnboundedSlice",
    ),
    "geometry": (
        "GorensteinVector", "LaurentSeries", "PolytopeSlice", "ReebVector",
        "ToricCone", "dual_cone", "gorenstein_vector", "polytope_Q",
        "reeb_vector", "triangulate_cone",
    ),
    "characters": (
        "SimplicialPiece", "character_series", "decompose_dual", "index_character",
        "weight_character",
    ),
    "stability": (
        "StabilityReport", "ToricValuation", "delta", "futaki_pairing",
        "futaki_product", "log_discrepancy", "ratio_profile", "s_prime",
        "s_value", "toric_valuation",
    ),
    "lattice": ("lattice_points", "s_m_oracle", "truncated_character_oracle"),
    "optimize": (
        "GridResult", "MinimizeResult", "RationalCandidate", "grid_search_oracle",
        "minimize_volume", "rationality_probe", "volume_objective",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
