"""Exception and warning types shared across the package.

Each exit-code class carries the code the CLI exits with as ``exit_code``:
2 for input errors, 3 for mathematical domain errors and 4 for
non-convergence.  Any other failure, a usage error included, exits 1.
"""


class ReebconeError(Exception):
    """Base class for all package errors."""


class ReebconeWarning(UserWarning):
    """Base class for package warnings (e.g. input normalization)."""


class RayPrimitivizedWarning(ReebconeWarning):
    """An input ray was divided by the gcd of its entries."""


class RedundantRayWarning(ReebconeWarning):
    """An input ray was not an extreme ray of the generated cone and was dropped."""


# -- input errors ---------------------------------------------------------

class InputError(ReebconeError):
    """Structurally invalid input."""

    exit_code = 2


class SchemaError(InputError):
    """Cone-spec document does not match the expected schema."""


class DimensionMismatch(InputError, ValueError):
    """A vector's length disagrees with the ambient dimension (a ValueError too)."""


class NonIntegerRay(InputError):
    """A ray generator has a non-integer entry."""


class NotFullDimensional(InputError):
    """The ray generators do not span the ambient space."""


class NotPointed(InputError):
    """The generated cone contains a line."""


class ExceedsSupportedSize(InputError):
    """Input is beyond the supported desk-scale bounds."""


# -- mathematical domain errors -------------------------------------------

class MathDomainError(ReebconeError):
    """The requested quantity is undefined for this input."""

    exit_code = 3


class NotQGorenstein(MathDomainError):
    """No rational covector pairs to one with every ray generator."""


class DegenerateSolutionSet(MathDomainError):
    """The Gorenstein system has a positive-dimensional solution set."""


class UnboundedSlice(MathDomainError):
    """The sliced dual cone is unbounded (vector not interior to the cone)."""


class IrrationalReeb(MathDomainError):
    """An exact lattice computation requires a rational Reeb vector."""


class OrderTooLarge(MathDomainError):
    """Requested expansion order exceeds the configured depth."""


class CutoffTooSmall(MathDomainError):
    """Truncated-sum tail estimate exceeds the requested tolerance."""


# -- non-convergence ------------------------------------------------------

class ConvergenceError(ReebconeError):
    """An iterative method failed to converge."""

    exit_code = 4


class MaxIterations(ConvergenceError):
    """Iteration limit reached before the stopping test was met."""


class NonConvergent(ConvergenceError):
    """Search direction could not be stabilized (e.g. Hessian indefinite)."""

