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

A brute-force simplex grid search and an exact-rational midpoint
convexity probe are provided as independent oracles for the Newton
route.
"""

from __future__ import annotations

import dataclasses
import functools
import logging
import math
import random
from fractions import Fraction
from typing import Optional, Sequence, Tuple

import numpy as np

from .config import default_tol, to_mpf, working_precision
from .errors import (
    ExceedsSupportedSize,
    LeftReebCone,
    MaxIterations,
    NonConvergent,
    UnboundedSlice,
)
from .geometry import ReebVector, ToricCone, gorenstein_vector, polytope_Q, reeb_vector, simplices
from . import linalg

logger = logging.getLogger(__name__)

MAX_GRID_SAMPLES = 10**4
_ARMIJO = 1e-4
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
    """Deterministic affine chart of the slice ``{<xi, l> = 1}``.

    The pivot coordinate is the one with the largest ``|l_j|``
    (rightmost on ties); the remaining ``n - 1`` coordinates are free.
    Returns ``(l, pivot, free_indices)`` with ``xi[pivot]`` recovered
    as ``(1 - sum l_j xi_j) / l_pivot``.
    """
    l = gorenstein_vector(cone).l
    best = max(abs(x) for x in l)
    pivot = max(j for j, x in enumerate(l) if abs(x) == best)
    free = tuple(j for j in range(cone.dim) if j != pivot)
    return l, pivot, free


def _embed(cone: ToricCone, coords: Sequence):
    """Map chart coordinates to the full Reeb vector on the slice."""
    l, pivot, free = _chart(cone)
    if len(coords) != len(free):
        raise ValueError(
            "expected %d slice coordinates, got %d" % (len(free), len(coords))
        )
    xi = [None] * cone.dim
    acc = Fraction(1) if all(isinstance(c, (int, Fraction)) for c in coords) else 1.0
    for j, c in zip(free, coords):
        xi[j] = c
        acc = acc - l[j] * c
    xi[pivot] = acc / l[pivot]
    return tuple(xi)


def _project(cone: ToricCone, xi: Sequence):
    """Chart coordinates of a full Reeb vector (must lie on the slice)."""
    _, _, free = _chart(cone)
    return tuple(xi[j] for j in free)


def volume_objective(cone: ToricCone, xi_slice_coords: Sequence):
    """Value, gradient and Hessian of ``a0`` in slice coordinates.

    Accepts exact rationals (returning exact rationals) or floats.
    The gradient and Hessian are analytic derivatives of the
    triangulated volume over :func:`reebcone.geometry.simplices`: with
    ``vol_k = |det U_k| / ((n-1)! prod_i c_i)`` and ``c_i = <xi, u_i>``
    per simplex,

        ``grad  = -sum_k vol_k s_k``,         ``s_k = sum_i u_i / c_i``
        ``hess = sum_k vol_k (s_k s_k^T + sum_i u_i u_i^T / c_i^2)``

    pushed through the affine chart.  Raises :class:`LeftReebCone` if
    the point pairs nonpositively with some dual ray, i.e. lies
    outside the interior of ``sigma``.
    """
    l, pivot, free = _chart(cone)
    xi = _embed(cone, xi_slice_coords)
    n = cone.dim
    m = len(free)
    norm = math.factorial(n - 1)
    value = 0
    grad_full = [0] * n
    hess_full = [[0] * n for _ in range(n)]
    for det, gens in simplices(cone):
        cs = []
        for u in gens:
            c = linalg.dot(xi, u)
            if c <= 0:
                raise LeftReebCone(
                    "point %s pairs nonpositively with dual ray %s" % (xi, u)
                )
            cs.append(c)
        # a Fraction divided by a float is a float: the float path rounds
        # |det U_k| / (n-1)! once, then divides by each c
        vol_k = Fraction(det, norm)
        for c in cs:
            vol_k = vol_k / c
        s_k = [0] * n
        for u, c in zip(gens, cs):
            for a in range(n):
                s_k[a] += u[a] / c
        value = value + vol_k
        for a in range(n):
            grad_full[a] -= vol_k * s_k[a]
        for a in range(n):
            for b in range(a, n):
                h = s_k[a] * s_k[b]
                for u, c in zip(gens, cs):
                    h += u[a] * u[b] / (c * c)
                hess_full[a][b] += vol_k * h
    for a in range(n):
        for b in range(a):
            hess_full[a][b] = hess_full[b][a]
    # push through the chart xi = b + E x, columns E[:, j] = e_{free_j} -
    # (l_{free_j}/l_pivot) e_pivot: grad_x = E^T grad, hess_x = E^T H E.
    ratios = [l[j] / l[pivot] for j in free]
    grad = tuple(
        grad_full[j] - ratios[a] * grad_full[pivot] for a, j in enumerate(free)
    )
    hess = tuple(
        tuple(
            hess_full[free[a]][free[b]]
            - ratios[b] * hess_full[free[a]][pivot]
            - ratios[a] * hess_full[pivot][free[b]]
            + ratios[a] * ratios[b] * hess_full[pivot][pivot]
            for b in range(m)
        )
        for a in range(m)
    )
    return value, grad, hess


def _objective_float(cone: ToricCone, coords: np.ndarray):
    value, grad, hess = volume_objective(cone, tuple(float(c) for c in coords))
    return (
        float(value),
        np.array(grad, dtype=float),
        np.array([[float(h) for h in row] for row in hess], dtype=float),
    )


def _regularized_step(hess: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Newton step with escalating Tikhonov regularization.

    Tries the plain Hessian first, then adds ``lam * I`` with ``lam``
    growing tenfold from 1e-12; gives up loudly at 1e-4.
    """
    m = hess.shape[0]
    lam = 0.0
    while True:
        try:
            np.linalg.cholesky(hess + lam * np.eye(m))
        except np.linalg.LinAlgError:
            lam = _REG_INITIAL if lam == 0.0 else lam * 10.0
            if lam > _REG_MAX:
                raise NonConvergent(
                    "Hessian not positive definite after regularization up to %g"
                    % _REG_MAX
                )
            continue
        return np.linalg.solve(hess + lam * np.eye(m), -grad)


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
    gradient norm and the step norm drop below ``tol``.  The objective
    is analytic and convex on the whole slice interior, so failures
    surface as :class:`MaxIterations` or :class:`NonConvergent` rather
    than being patched over.
    """
    if tol is None:
        tol = default_tol()
    l = gorenstein_vector(cone).l
    if start is None:
        d = len(cone.rays)
        start_xi = tuple(
            Fraction(sum(v[a] for v in cone.rays), d) for a in range(cone.dim)
        )
    else:
        rv = reeb_vector(cone, start)
        scale = linalg.dot(rv.xi, l)
        start_xi = tuple(x / scale for x in rv.xi)
    x = np.array([float(c) for c in _project(cone, start_xi)], dtype=float)

    value, grad, hess = _objective_float(cone, x)
    iterations = 0
    step_norm = math.inf if x.size else 0.0
    while np.linalg.norm(grad) > tol or step_norm > tol:
        if iterations >= max_iter:
            raise MaxIterations(
                "no convergence after %d Newton iterations (grad norm %.3e)"
                % (max_iter, float(np.linalg.norm(grad)))
            )
        step = _regularized_step(hess, grad)
        scale_t = 1.0
        slope = float(grad @ step)
        while True:
            if scale_t < _MIN_STEP_SCALE:
                raise NonConvergent(
                    "line search failed at gradient norm %.3e"
                    % float(np.linalg.norm(grad))
                )
            trial = x + scale_t * step
            try:
                trial_value, trial_grad, trial_hess = _objective_float(cone, trial)
            except LeftReebCone:
                scale_t *= 0.5
                continue
            if trial_value <= value + _ARMIJO * scale_t * slope:
                break
            scale_t *= 0.5
        step_norm = float(np.linalg.norm(scale_t * step))
        x = trial
        value, grad, hess = trial_value, trial_grad, trial_hess
        iterations += 1

    xi_star_tuple = _embed(cone, tuple(float(c) for c in x))
    rv_star = reeb_vector(cone, xi_star_tuple)
    with working_precision():
        slice_ = polytope_Q(cone, tuple(to_mpf(c) for c in xi_star_tuple))
        kss_residual = float(
            max(abs(b - to_mpf(v)) for b, v in zip(slice_.bary_P, l))
        )
    margin = min(
        float(linalg.dot(xi_star_tuple, u)) for u in cone.dual_rays
    )
    candidate = None
    if probe_rational is not None:
        candidate = rationality_probe(xi_star_tuple, probe_rational)
    return MinimizeResult(
        xi_star=rv_star,
        vol_star=float(value),
        gradient_norm=float(np.linalg.norm(grad)),
        iterations=iterations,
        kss_residual=kss_residual,
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
        xi = tuple(
            Fraction(sum(w * v[a] for w, v in zip(weights, cone.rays)), resolution)
            for a in range(n)
        )
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


def convexity_probe(cone: ToricCone, pairs: int = 100, seed: int = 0) -> int:
    """Midpoint-convexity spot check of the volume on random slice pairs.

    Draws random interior rational points of the slice, compares
    ``F((x+y)/2)`` against ``(F(x)+F(y))/2`` in exact arithmetic and
    returns the number of violations (logged, not fatal): convexity of
    the normalized volume is classical but worth probing since the
    minimizer's uniqueness rests on it.
    """
    rng = random.Random(seed)
    d = len(cone.rays)
    violations = 0

    def random_point():
        weights = [rng.randint(1, 12) for _ in range(d)]
        total = sum(weights)
        return tuple(
            Fraction(sum(w * v[a] for w, v in zip(weights, cone.rays)), total)
            for a in range(cone.dim)
        )

    for _ in range(pairs):
        x = random_point()
        y = random_point()
        fx, _, _ = volume_objective(cone, _project(cone, x))
        fy, _, _ = volume_objective(cone, _project(cone, y))
        mid = tuple((a + b) / 2 for a, b in zip(x, y))
        fm, _, _ = volume_objective(cone, _project(cone, mid))
        if fm > Fraction(fx + fy, 2):
            violations += 1
            logger.warning(
                "midpoint convexity violated at %s / %s: %s > %s",
                x, y, fm, Fraction(fx + fy, 2),
            )
    return violations
