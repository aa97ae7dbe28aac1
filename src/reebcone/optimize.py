"""Normalized-volume minimization over the Reeb cone.

The normalized volume of a Reeb vector ``xi`` on the slice
``{<xi, l> = 1}`` is the leading index-character coefficient ``a0 =
n * vol(Q_xi)``.  Triangulating the dual cone once turns this into an
explicit finite sum

    ``F(xi) = sum_k d_k / prod_i <xi, u_{k,i}>``

over simplices with constant ``d_k > 0``, which is analytic on all of
the interior of ``sigma`` (every factor is positive there).  Up to a
constant ``F`` is the characteristic function of ``sigma``, whose log is
a self-concordant barrier (Güler 1996), so a damped Newton iteration on
``log F`` in an affine chart of the slice finds the unique minimizer with
no line-search constant.  The minimizer is the candidate K-semistable Reeb
vector: at ``xi*`` the barycenter relation ``bar_P = l`` holds and
``delta(xi*) = 1``.

The Newton objective is plain float arithmetic over the slice kernel of
:func:`reebcone.geometry.polytope_Q`.  A brute-force simplex grid search is
an independent oracle for the Newton route: it ranks its samples by the
exact integer ratio T/L of that kernel's volume part and values only the
winner with :func:`reebcone.geometry.polytope_Q`.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from types import MappingProxyType
from typing import NamedTuple, Optional, Sequence, Tuple

from .config import DEFAULT_TOL
from .errors import (
    DimensionMismatch,
    ExceedsSupportedSize,
    MaxIterations,
    NonConvergent,
    UnboundedSlice,
)
from .geometry import ReebVector, ToricCone, gorenstein_vector, polytope_Q, reeb_vector, simplices
from .geometry import CONE_CACHE_SIZE, _positive_finite, _positive_int, _simplex_sums
from .geometry import _sequence_length, _slice_pairings, _slice_sums, _volume_sums
from . import linalg

MAX_GRID_SAMPLES = 10**4
_MIN_STEP_SCALE = 2.0**-60


class RationalCandidate(NamedTuple):
    """Best simultaneous rational approximation of a minimizer."""

    vector: Tuple[Fraction, ...]
    max_denominator: int
    distance: float


class MinimizeResult(NamedTuple):
    """Converged state of the volume minimization.

    ``xi_star`` holds the floats the Newton iteration found.  ``margin``
    is the smallest pairing of ``xi_star`` against the dual rays, i.e. the
    distance witness for strict interiority.
    """

    xi_star: ReebVector
    vol_star: float
    gradient_norm: float
    iterations: int
    kss_residual: float
    margin: float
    rational_candidate: Optional[RationalCandidate]


class GridResult(NamedTuple):
    """Best point of a brute-force slice grid scan (exact arithmetic)."""

    xi: Tuple[Fraction, ...]
    value: Fraction
    samples: int


@functools.lru_cache(maxsize=CONE_CACHE_SIZE)
def _chart(cone: ToricCone):
    """Deterministic affine chart of the slice ``{<xi, l> = 1}``, in floats.

    The pivot coordinate is the one with the largest ``|l_j|``
    (rightmost on ties); the remaining ``n - 1`` coordinates are free,
    and ``xi[pivot]`` is recovered as ``(1 - sum l_j xi_j) / l_pivot``.
    Returns ``(l, pivot, free, ratios, coords)``: the Gorenstein vector,
    ``ratios[a] = l_{free_a} / l_pivot``, every float rounded once from its
    exact value, and ``coords``, a read-only map from each dual ray u to its
    chart coordinates E^T u = (u_{free_a} - ratios[a] u_pivot)_a.  Cached for
    the last CONE_CACHE_SIZE cones, so every step of one minimization reads
    one chart and builds no coordinates.
    """
    l = gorenstein_vector(cone).l
    best = max(abs(x) for x in l)
    pivot = max(j for j, x in enumerate(l) if abs(x) == best)
    free = tuple(j for j in range(cone.dim) if j != pivot)
    ratios = tuple(float(l[j] / l[pivot]) for j in free)
    coords = {u: tuple(u[j] - r * u[pivot] for j, r in zip(free, ratios)) for u in cone.dual_rays}
    return tuple(map(float, l)), pivot, free, ratios, MappingProxyType(coords)


def _embed(cone: ToricCone, coords: Sequence) -> Tuple[float, ...]:
    """Map chart coordinates to the full Reeb vector on the slice, in floats.

    ValueError unless ``coords`` is a sequence of numbers, not a str, and
    DimensionMismatch unless it has one number per free coordinate.
    """
    l, pivot, free = _chart(cone)[:3]
    size = _sequence_length("xi_slice_coords", coords)
    if size != len(free):
        raise DimensionMismatch(f"xi_slice_coords has length {size}, expected {len(free)}")
    xi = [0.0] * cone.dim
    acc = 1.0
    try:
        for j, c in zip(free, coords):
            xi[j] = c = float(c)
            acc -= l[j] * c
    except (TypeError, ValueError):
        raise ValueError(f"xi_slice_coords has an entry that is not a number: {c!r}") from None
    except OverflowError:  # an exact entry past the floats, as in rationality_probe
        raise ValueError("xi_slice_coords has an entry that is not finite as a float") from None
    xi[pivot] = acc / l[pivot]
    return tuple(xi)


def _project(cone: ToricCone, xi: Sequence) -> Tuple[float, ...]:
    """Chart coordinates of a full Reeb vector on the slice, in floats."""
    _, _, free = _chart(cone)[:3]
    return tuple(float(xi[j]) for j in free)


def _ray_average(cone: ToricCone, weights: Sequence[int]) -> Tuple[Fraction, ...]:
    """The exact point ``sum w_i v_i / sum w_i`` over the rays of ``sigma``, on ``<xi, l> = 1``."""
    total = sum(weights)
    return tuple(
        Fraction(sum(w * v[a] for w, v in zip(weights, cone.rays)), total)
        for a in range(cone.dim)
    )


def volume_objective(cone: ToricCone, xi_slice_coords: Sequence):
    """Value, gradient and Hessian of ``a0`` in slice coordinates, in floats.

    The objective of the Newton iteration; exact values of ``a0`` come
    from :func:`reebcone.geometry.polytope_Q`.  One pass of the slice
    kernel :func:`reebcone.geometry._simplex_sums`, summing each dual ray u
    in the chart's coordinates E^T u = (u_{free_a} - ratios[a] u_pivot)_a,
    cached by :func:`_chart`, where xi = b + E x, gives ``(n-1)! a0 = T``,
    its gradient ``-M`` and its Hessian ``H`` in the chart.  Not cached:
    every Newton step evaluates a new xi.
    Raises :class:`UnboundedSlice` if the point pairs nonpositively with
    some dual ray, i.e. lies outside the interior of ``sigma``, or so near
    its boundary that a product of pairings underflows to 0.
    """
    coords = _chart(cone)[4]
    pairings = _slice_pairings(cone, _embed(cone, xi_slice_coords))
    try:
        total, moment, _, hess = _simplex_sums(simplices(cone), pairings, coords=coords)
    except ZeroDivisionError:
        raise UnboundedSlice("xi is too near the boundary of sigma for float arithmetic") from None
    norm = math.factorial(cone.dim - 1)
    return (total / norm, tuple(-m / norm for m in moment),
            tuple(tuple(h / norm for h in row) for row in hess))


def _cholesky(hess: Sequence[Sequence[float]], lam: float):
    """Lower factor ``L`` of ``hess + lam * I = L L^T``, or None if not positive definite."""
    m = len(hess)
    chol = [[0.0] * m for _ in range(m)]
    for j in range(m):
        row_j = chol[j]
        pivot = hess[j][j] + lam - sum(c * c for c in row_j[:j])
        if not pivot > 0.0:  # also rejects NaN
            return None
        row_j[j] = math.sqrt(pivot)
        for i in range(j + 1, m):
            row_i = chol[i]
            row_i[j] = (
                hess[i][j] - sum(a * b for a, b in zip(row_i[:j], row_j[:j]))
            ) / row_j[j]
    return chol


def _regularized_step(hess: Sequence[Sequence[float]], grad: Sequence[float]) -> Tuple[float, ...]:
    """Newton step ``-(hess + lam I)^{-1} grad`` with escalating Tikhonov regularization.

    Tries the plain Hessian first.  Only if that is not positive definite
    does it read the Hessian's scale ``s = max_i |hess_ii|`` and add ``lam
    * I``, with ``lam`` growing tenfold from ``2^-52 s``, the rounding of
    the largest diagonal entry, so the step is the same for ``c hess, c
    grad`` at any power of two ``c``.  It gives up loudly with
    :class:`NonConvergent` once ``lam`` passes ``s``, or at once when
    ``s`` is not finite and positive.  The system is at most ``(MAX_DIM -
    1)``-square, so a Cholesky factorization in plain floats followed by
    forward and back substitution solves it.
    """
    chol = _cholesky(hess, 0.0)
    if chol is None:
        scale = max(abs(row[i]) for i, row in enumerate(hess))
        lam = scale * 2.0**-52
        while chol is None:
            if not 0.0 < lam <= scale < math.inf:  # also rejects NaN and an underflowed shift
                raise NonConvergent(
                    "Hessian not positive definite after regularization up to "
                    "its largest diagonal entry %g" % scale
                )
            chol = _cholesky(hess, lam)
            lam *= 10.0
    m = len(grad)
    y = []
    for i in range(m):  # L y = -grad
        y.append((-grad[i] - sum(a * b for a, b in zip(chol[i][:i], y))) / chol[i][i])
    step = [0.0] * m
    for i in reversed(range(m)):  # L^T step = y
        step[i] = (y[i] - sum(chol[k][i] * step[k] for k in range(i + 1, m))) / chol[i][i]
    return tuple(step)


def minimize_volume(
    cone: ToricCone,
    tol: float = DEFAULT_TOL,
    max_iter: int = 100,
    start: Optional[Sequence] = None,
    probe_rational: Optional[int] = None,
) -> MinimizeResult:
    """Damped Newton minimization of ``log a0`` on the slice ``<xi, l> = 1``.

    Starts from the vertex average ``(sum v_i)/d`` (interior by
    construction) unless ``start`` is given, in which case it is
    rescaled onto the slice.  Each step solves for the Newton step ``s``
    of ``log a0`` (gradient ``g / a0`` and Hessian ``H / a0 - (g / a0)(g /
    a0)^T`` from one :func:`volume_objective` pass) and moves by ``s / (1
    + lam)``, where ``lam = sqrt(-(g / a0) . s)`` is the Newton decrement
    (Nesterov 2004, sec. 4.1.5).  ``tol`` bounds ``lam``: the iteration
    stops after the step whose ``lam`` is at most ``tol``, and an empty
    chart (``n = 1``) takes no step.  Two guards catch rounding:
    :func:`_regularized_step` shifts a float Hessian that is not positive
    definite, and a step that leaves the Reeb cone is halved, down to
    ``_MIN_STEP_SCALE``.  Failures surface as :class:`MaxIterations` or
    :class:`NonConvergent`.  Raises ``ValueError`` unless ``tol`` is a
    positive number in float range and ``max_iter`` (and ``probe_rational``, when
    given) is a positive integer.  ``xi_star`` is the floats of the last
    iterate on the slice, ``normalized`` when ``<xi*, l>`` read exactly is
    within ``DEFAULT_TOL`` of 1; ``vol_star`` and ``kss_residual`` are the
    exact values at that dyadic ``xi*`` rescaled onto the slice, each
    rounded once to a float, so a cold call loads no mpmath.
    """
    _positive_finite("tol", tol)
    max_iter = _positive_int("max_iter", max_iter)
    if probe_rational is not None:
        probe_rational = _positive_int("probe_rational", probe_rational)
    l = gorenstein_vector(cone).l
    if start is None:
        start_xi = _ray_average(cone, [1] * len(cone.rays))
    else:
        rv = reeb_vector(cone, start)
        scale = linalg.dot(rv.xi, l)
        start_xi = tuple(x / scale for x in rv.xi)
    x = _project(cone, start_xi)

    value, grad, hess = volume_objective(cone, x)
    iterations = 0
    decrement = math.inf if x else 0.0
    while decrement > tol:
        if iterations >= max_iter:
            raise MaxIterations("no convergence after %d Newton iterations (Newton decrement %.3e)"
                                % (max_iter, decrement))
        grad_f = [g / value for g in grad]  # f = log a0
        hess_f = [[h / value - a * b for b, h in zip(grad_f, row)] for a, row in zip(grad_f, hess)]
        step = _regularized_step(hess_f, grad_f)
        decrement = math.sqrt(max(0.0, -sum(g * s for g, s in zip(grad_f, step))))
        scale_t = 1.0 / (1.0 + decrement)
        while True:
            if scale_t < _MIN_STEP_SCALE:
                raise NonConvergent("damped Newton step left the Reeb cone (Newton decrement %.3e)"
                                    % decrement)
            trial = tuple(c + scale_t * s for c, s in zip(x, step))
            try:
                value, grad, hess = volume_objective(cone, trial)
                break
            except UnboundedSlice:  # rounding took the step out of the Reeb cone
                scale_t *= 0.5
        x = trial
        iterations += 1

    xi_star_tuple = _embed(cone, x)
    # vol* and the residual at the exact dyadic xi* rescaled onto the slice, by
    # homogeneity from the cached slice pass at xi*, which stability.delta at the
    # same floats reads again, each rounded once to float: the float objective
    # carries the slice rounding of _embed, amplified n-fold by a0's homogeneity
    # of degree -n
    n = cone.dim
    sums = _slice_sums(cone, xi_star_tuple, l)
    gap, gap_den = sums.residual
    margin = min(
        float(linalg.dot(xi_star_tuple, u)) for u in cone.dual_rays
    )
    candidate = None
    if probe_rational is not None:
        candidate = rationality_probe(xi_star_tuple, probe_rational)
    # xi* as the floats found, normalized when <xi*, l> = a / (d l_d) is within the
    # tolerance of 1; _slice_sums has checked that xi* is interior
    b = sums.d * sums.l_d
    normalized = abs(Fraction(sums.a - b, b)) <= DEFAULT_TOL
    return MinimizeResult(
        xi_star=ReebVector(xi=xi_star_tuple, normalized=normalized),
        vol_star=sums.a ** n * sums.total / (sums.l_d ** n * math.factorial(n - 1) * sums.big),
        gradient_norm=math.sqrt(sum(c * c for c in grad)),
        iterations=iterations,
        kss_residual=gap / gap_den,
        margin=margin,
        rational_candidate=candidate,
    )


def _compositions(total: int, parts: int):
    """The tuples of ``parts`` nonnegative ints summing to ``total``, in lexicographic
    order: stars and bars, ``parts - 1`` bars among ``total + parts - 1`` places."""
    for bars in itertools.combinations(range(total + parts - 1), parts - 1):
        edges = (-1,) + bars + (total + parts - 1,)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


def grid_search_oracle(cone: ToricCone, resolution: int) -> GridResult:
    """Exact brute-force minimum of the volume over a slice grid.

    Samples barycentric combinations ``sum (k_i / resolution) v_i`` of
    the slice vertices with nonnegative integer weights; boundary
    points (where the volume diverges) are skipped.  As ``a0`` is
    homogeneous of degree ``-n``, the samples rank as the integer ratio
    ``T / L`` of the volume kernel :func:`reebcone.geometry._volume_sums`
    at the pairings ``sum k_i <v_i, u>`` (no moment is summed), compared
    by cross-multiplication, and the first minimum in :func:`_compositions`
    order wins.  Only that sample is
    valued, ``a0 = n vol(Q_xi)`` from :func:`reebcone.geometry.polytope_Q`
    in exact rational arithmetic, making this a slow but independent
    check on the Newton route.
    """
    resolution = _positive_int("resolution", resolution)
    d = len(cone.rays)
    samples = math.comb(resolution + d - 1, d - 1)
    if samples > MAX_GRID_SAMPLES:
        raise ExceedsSupportedSize(
            "grid of %d samples exceeds the supported %d"
            % (samples, MAX_GRID_SAMPLES)
        )
    table = simplices(cone)
    # <v_i, u> >= 0 for every ray v_i of sigma and dual ray u
    columns = [(u, [linalg.dot(v, u) for v in cone.rays]) for u in cone.dual_rays]
    best_total = best_big = best_weights = None
    for weights in _compositions(resolution, d):
        pairings = {u: sum(map(operator.mul, weights, col)) for u, col in columns}
        if not all(pairings.values()):  # on the boundary of sigma
            continue
        _, total, big = _volume_sums(table, pairings, exact=True)
        if best_weights is None or total * best_big < best_total * big:
            best_total, best_big, best_weights = total, big, weights
    if best_weights is None:
        raise NonConvergent(
            "no interior grid point at resolution %d" % resolution
        )
    xi = _ray_average(cone, best_weights)
    return GridResult(xi=xi, value=cone.dim * polytope_Q(cone, xi).volume_Q, samples=samples)


def rationality_probe(xi_star, max_denominator: int) -> RationalCandidate:
    """Best per-coordinate rational approximation with bounded denominator.

    Stern-Brocot (mediant) search per coordinate via
    ``Fraction.limit_denominator``; the reported distance is the
    max-norm gap, which callers compare against the convergence
    tolerance to judge whether the minimizer looks quasi-regular.  ValueError
    unless ``xi_star`` is a sequence, not a str, of finite numbers.
    """
    max_denominator = _positive_int("max_denominator", max_denominator)
    coords = xi_star.xi if isinstance(xi_star, ReebVector) else xi_star
    _sequence_length("xi_star", coords)
    try:
        floats = [float(c) for c in coords]
    except (TypeError, ValueError):
        raise ValueError(f"xi_star has an entry that is not a number: {coords!r}") from None
    except OverflowError:  # an exact entry past the floats, whose repr may exceed int's digit limit
        raise ValueError("xi_star has an entry that is not finite as a float") from None
    if not all(map(math.isfinite, floats)):
        raise ValueError(f"xi_star has an entry that is not finite: {coords!r}")
    vector = tuple(Fraction(x).limit_denominator(max_denominator) for x in floats)
    distance = max(abs(x - float(r)) for x, r in zip(floats, vector))
    return RationalCandidate(
        vector=vector, max_denominator=max_denominator, distance=distance
    )
