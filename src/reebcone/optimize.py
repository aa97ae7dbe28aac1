"""Normalized-volume minimization over the Reeb cone.

The normalized volume of a Reeb vector ``xi`` on the slice
``{<xi, l> = 1}`` is the leading index-character coefficient ``a0 =
n * vol(Q_xi)``.  Triangulating the dual cone once turns this into an
explicit finite sum

    ``F(xi) = sum_k d_k / prod_i <xi, u_{k,i}>``

over simplices with constant ``d_k > 0``, which is analytic on all of
the interior of ``sigma`` (every factor is positive there) and convex,
so a damped Newton iteration in an affine chart of the slice finds the
unique minimizer.  The minimizer is the candidate K-semistable Reeb
vector: at ``xi*`` the barycenter relation ``bar_P = l`` holds and
``delta(xi*) = 1``.

The Newton objective is plain float arithmetic over the slice kernel of
:func:`reebcone.geometry.polytope_Q`.  A brute-force simplex grid search,
valued exactly by :func:`reebcone.geometry.polytope_Q`, is an independent
oracle for the Newton route.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .config import default_tol
from .errors import (
    ExceedsSupportedSize,
    LeftReebCone,
    MaxIterations,
    NonConvergent,
    UnboundedSlice,
)
from .geometry import ReebVector, ToricCone, gorenstein_vector, polytope_Q, reeb_vector, simplices
from .geometry import _simplex_sums, _slice_pairings, _slice_sums
from . import linalg

MAX_GRID_SAMPLES = 10**4
_ARMIJO = 1e-4
_FULL_STEP_GRAD_RATIO = 0.5
_MIN_STEP_SCALE = 2.0**-60
_REG_INITIAL = 1e-12
_REG_MAX = 1e-4


@dataclasses.dataclass(frozen=True)
class RationalCandidate:
    """Best simultaneous rational approximation of a minimizer."""

    vector: Tuple[Fraction, ...]
    max_denominator: int
    distance: float


@dataclasses.dataclass(frozen=True)
class MinimizeResult:
    """Converged state of the volume minimization.

    ``margin`` is the smallest pairing of ``xi_star`` against the dual
    rays, i.e. the distance witness for strict interiority.
    """

    xi_star: ReebVector
    vol_star: float
    gradient_norm: float
    iterations: int
    kss_residual: float
    margin: float
    rational_candidate: Optional[RationalCandidate]


@dataclasses.dataclass(frozen=True)
class GridResult:
    """Best point of a brute-force slice grid scan (exact arithmetic)."""

    xi: Tuple[Fraction, ...]
    value: Fraction
    samples: int


@functools.lru_cache(maxsize=None)
def _chart(cone: ToricCone):
    """Deterministic affine chart of the slice ``{<xi, l> = 1}``, in floats.

    The pivot coordinate is the one with the largest ``|l_j|``
    (rightmost on ties); the remaining ``n - 1`` coordinates are free,
    and ``xi[pivot]`` is recovered as ``(1 - sum l_j xi_j) / l_pivot``.
    Returns ``(l, pivot, free, ratios, products)``: the Gorenstein
    vector, ``ratios[a] = l_{free_a} / l_pivot`` and ``products[a][b] =
    ratios[a] * ratios[b]``, every float rounded once from its exact
    value, once per cone.
    """
    l = gorenstein_vector(cone).l
    best = max(abs(x) for x in l)
    pivot = max(j for j, x in enumerate(l) if abs(x) == best)
    free = tuple(j for j in range(cone.dim) if j != pivot)
    ratios = [l[j] / l[pivot] for j in free]
    products = tuple(tuple(float(a * b) for b in ratios) for a in ratios)
    return tuple(map(float, l)), pivot, free, tuple(map(float, ratios)), products


def _embed(cone: ToricCone, coords: Sequence) -> Tuple[float, ...]:
    """Map chart coordinates to the full Reeb vector on the slice, in floats."""
    l, pivot, free = _chart(cone)[:3]
    if len(coords) != len(free):
        raise ValueError("expected %d slice coordinates, got %d" % (len(free), len(coords)))
    xi = [0.0] * cone.dim
    acc = 1.0
    for j, c in zip(free, coords):
        xi[j] = c = float(c)
        acc -= l[j] * c
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
    kernel :func:`reebcone.geometry._simplex_sums` gives ``(n-1)! a0 =
    T``, its gradient ``-M`` and its Hessian ``H`` in the full
    coordinates, pushed through the affine chart of :func:`_chart`.
    Raises :class:`LeftReebCone` if the point pairs nonpositively with
    some dual ray, i.e. lies outside the interior of ``sigma``.
    """
    _, pivot, free, ratios, products = _chart(cone)
    xi = _embed(cone, xi_slice_coords)
    try:
        pairings = _slice_pairings(cone, xi)
    except UnboundedSlice:
        raise LeftReebCone("point %s pairs nonpositively with a dual ray" % (xi,)) from None
    total, moment, _, hess_full = _simplex_sums(simplices(cone), pairings, divide=True)
    norm = math.factorial(cone.dim - 1)
    # push through the chart xi = b + E x, columns E[:, j] = e_{free_j} -
    # (l_{free_j}/l_pivot) e_pivot: grad_x = E^T grad, hess_x = E^T H E.
    grad = tuple(
        (ratios[a] * moment[pivot] - moment[j]) / norm for a, j in enumerate(free)
    )
    hess = tuple(
        tuple(
            (hess_full[free[a]][free[b]]
             - ratios[b] * hess_full[free[a]][pivot]
             - ratios[a] * hess_full[pivot][free[b]]
             + products[a][b] * hess_full[pivot][pivot]) / norm
            for b in range(len(free))
        )
        for a in range(len(free))
    )
    return total / norm, grad, hess


def _norm(vec: Sequence[float]) -> float:
    return math.sqrt(sum(c * c for c in vec))


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

    Tries the plain Hessian first, then adds ``lam * I`` with ``lam``
    growing tenfold from 1e-12; gives up loudly at 1e-4.  The system is
    at most ``(MAX_DIM - 1)``-square, so a Cholesky factorization in
    plain floats followed by forward and back substitution solves it.
    """
    lam = 0.0
    while True:
        chol = _cholesky(hess, lam)
        if chol is not None:
            break
        lam = _REG_INITIAL if lam == 0.0 else lam * 10.0
        if lam > _REG_MAX:
            raise NonConvergent(
                "Hessian not positive definite after regularization up to %g"
                % _REG_MAX
            )
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
    tol: Optional[float] = None,
    max_iter: int = 100,
    start: Optional[Sequence] = None,
    probe_rational: Optional[int] = None,
) -> MinimizeResult:
    """Damped Newton minimization of ``a0`` on the slice ``<xi, l> = 1``.

    Starts from the vertex average ``(sum v_i)/d`` (interior by
    construction) unless ``start`` is given, in which case it is
    rescaled onto the slice.  Converged when both the projected
    gradient norm and the step norm drop below ``tol``.  The line search
    also takes the full step when its ``|grad|`` is at most
    ``_FULL_STEP_GRAD_RATIO`` of the current one: near the minimum the Armijo
    test compares float64 values whose predicted decrease is below the
    rounding of ``F``, and would stall the iteration.  The objective
    is analytic and convex on the whole slice interior, so failures
    surface as :class:`MaxIterations` or :class:`NonConvergent` rather
    than being patched over.  Raises ``ValueError`` unless ``tol > 0``
    and ``max_iter >= 1``.
    """
    if tol is None:
        tol = default_tol()
    if not tol > 0:
        raise ValueError("tol must be positive, got %r" % (tol,))
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1, got %r" % (max_iter,))
    if probe_rational is not None and probe_rational < 1:
        raise ValueError("probe_rational must be at least 1, got %r" % (probe_rational,))
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
    step_norm = math.inf if x else 0.0
    while _norm(grad) > tol or step_norm > tol:
        if iterations >= max_iter:
            raise MaxIterations(
                "no convergence after %d Newton iterations (grad norm %.3e)"
                % (max_iter, _norm(grad))
            )
        step = _regularized_step(hess, grad)
        scale_t = 1.0
        slope = sum(g * s for g, s in zip(grad, step))
        while True:
            if scale_t < _MIN_STEP_SCALE:
                raise NonConvergent(
                    "line search failed at gradient norm %.3e"
                    % _norm(grad)
                )
            trial = tuple(c + scale_t * s for c, s in zip(x, step))
            try:
                trial_value, trial_grad, trial_hess = volume_objective(cone, trial)
            except LeftReebCone:
                scale_t *= 0.5
                continue
            if (trial_value <= value + _ARMIJO * scale_t * slope
                    or scale_t == 1.0 and _norm(trial_grad) <= _FULL_STEP_GRAD_RATIO * _norm(grad)):
                break
            scale_t *= 0.5
        step_norm = _norm([scale_t * s for s in step])
        x = trial
        value, grad, hess = trial_value, trial_grad, trial_hess
        iterations += 1

    xi_star_tuple = _embed(cone, x)
    # vol* and the residual at the exact dyadic xi* rescaled onto the slice, by
    # homogeneity from the sums at xi* that stability.delta uses too, each rounded
    # once to float: the float objective carries the slice rounding of _embed,
    # amplified n-fold by a0's homogeneity of degree -n
    n = cone.dim
    sums = _slice_sums(cone, xi_star_tuple, l)
    gap, gap_den = sums.residual
    margin = min(
        float(linalg.dot(xi_star_tuple, u)) for u in cone.dual_rays
    )
    candidate = None
    if probe_rational is not None:
        candidate = rationality_probe(xi_star_tuple, probe_rational)
    return MinimizeResult(
        xi_star=sums.reeb,
        vol_star=sums.a ** n * sums.total / (sums.l_d ** n * math.factorial(n - 1) * sums.big),
        gradient_norm=_norm(grad),
        iterations=iterations,
        kss_residual=gap / gap_den,
        margin=margin,
        rational_candidate=candidate,
    )


def grid_search_oracle(cone: ToricCone, resolution: int) -> GridResult:
    """Exact brute-force minimum of the volume over a slice grid.

    Samples barycentric combinations ``sum (k_i / resolution) v_i`` of
    the slice vertices with nonnegative integer weights; boundary
    points (where the volume diverges) are skipped.  Each sample is
    valued ``a0 = n vol(Q_xi)`` from :func:`reebcone.geometry.polytope_Q`
    in exact rational arithmetic, making this a slow but independent
    check on the Newton route.
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive, got %r" % (resolution,))
    d = len(cone.rays)
    n = cone.dim
    samples = math.comb(resolution + d - 1, d - 1)
    if samples > MAX_GRID_SAMPLES:
        raise ExceedsSupportedSize(
            "grid of %d samples exceeds the supported %d"
            % (samples, MAX_GRID_SAMPLES)
        )
    best_value = None
    best_xi = None
    count = 0

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in compositions(total - head, parts - 1):
                yield (head,) + rest

    for weights in compositions(resolution, d):
        count += 1
        xi = _ray_average(cone, weights)
        try:
            value = n * polytope_Q(cone, xi).volume_Q
        except UnboundedSlice:
            continue
        if best_value is None or value < best_value:
            best_value = value
            best_xi = xi
    if best_value is None:
        raise NonConvergent(
            "no interior grid point at resolution %d" % resolution
        )
    return GridResult(xi=best_xi, value=best_value, samples=count)


def rationality_probe(xi_star, max_denominator: int) -> RationalCandidate:
    """Best per-coordinate rational approximation with bounded denominator.

    Stern-Brocot (mediant) search per coordinate via
    ``Fraction.limit_denominator``; the reported distance is the
    max-norm gap, which callers compare against the convergence
    tolerance to judge whether the minimizer looks quasi-regular.
    """
    if max_denominator <= 0:
        raise ValueError(
            "max_denominator must be positive, got %r" % (max_denominator,)
        )
    coords = xi_star.xi if isinstance(xi_star, ReebVector) else tuple(xi_star)
    vector = tuple(
        Fraction(float(c)).limit_denominator(max_denominator) for c in coords
    )
    distance = max(abs(float(c) - float(r)) for c, r in zip(coords, vector))
    return RationalCandidate(
        vector=vector, max_denominator=max_denominator, distance=distance
    )
