"""Stability invariants of a Fano cone singularity.

Everything here is built from two primitives computed elsewhere: the
barycenter of the Reeb slice (:func:`reebcone.geometry.polytope_Q`) and
the index/weight character expansions
(:mod:`reebcone.characters`).  The central objects are

* ``A(v)`` -- the log discrepancy of the toric valuation ``wt_v``,
  which is the pairing of ``v`` with the Gorenstein vector ``l``;
* ``S(v)`` -- the expected vanishing order, the pairing of ``v`` with
  the volume-weighted barycenter of the slice polytope ``Q``;
* ``delta`` -- the stability threshold ``inf_v A(v)/S'(v)``, where
  ``S' = (n+1)/n * A(xi) * S`` is the normalized expected order.

For a toric cone the infimum over all valuations is attained on the
extreme rays of ``sigma``, which reduces ``delta`` to a finite minimum
of ratios of linear pairings against the barycenter.  K-semistability
is equivalent to ``delta == 1``, which in turn happens exactly when
the barycenter ``(n+1)/n * bar(u)`` coincides with ``l``.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .config import default_tol, to_mpf, working_precision
from .errors import UnboundedSlice
from .characters import decompose_dual, index_character, weight_character
from .geometry import GorensteinVector, ToricCone, gorenstein_vector, lattice_rows, polytope_Q, reeb_vector
from . import linalg


@dataclasses.dataclass(frozen=True)
class ToricValuation:
    """A toric valuation ``wt_v`` given by a point ``v`` of ``sigma``.

    ``v`` may sit anywhere in the cone except the apex; valuations
    with ``interior=True`` have center the cone point itself.
    """

    v: Tuple[Fraction, ...]
    interior: bool

    @property
    def dim(self) -> int:
        return len(self.v)


def toric_valuation(cone: ToricCone, v: Sequence) -> ToricValuation:
    """Validate ``v in sigma - {0}`` and wrap it as a valuation."""
    vv = tuple(Fraction(x) if not isinstance(x, Fraction) else x for x in v)
    if len(vv) != cone.dim:
        raise ValueError(
            "valuation vector has length %d, expected %d" % (len(vv), cone.dim)
        )
    if all(x == 0 for x in vv):
        raise ValueError("the apex v = 0 does not define a valuation")
    if not cone.contains(vv):
        raise ValueError("v = %s lies outside the cone" % (vv,))
    return ToricValuation(v=vv, interior=cone.interior_contains(vv))


@dataclasses.dataclass(frozen=True)
class StabilityReport:
    """Outcome of the barycenter criterion for one Reeb vector.

    ``delta`` is the stability threshold and ``delta_prime`` its
    truncation ``min{1, delta}`` (the two coincide here because the
    internal normalization forces ``delta <= 1``).  ``bary_P`` is the
    point that must equal the Gorenstein vector for K-semistability,
    ``minimizing_rays`` holds the (0-based) indices of the rays of
    ``sigma`` attaining the minimum, ``residual`` is the max-norm
    distance between ``bary_P`` and ``l``, and ``scale`` the factor by
    which ``xi`` was divided to reach ``<xi, l> = 1``.
    """

    delta: object
    delta_prime: object
    bary_P: Tuple
    gorenstein: GorensteinVector
    minimizing_rays: Tuple[int, ...]
    kss: bool
    residual: object
    scale: object


def log_discrepancy(l: GorensteinVector, v: ToricValuation):
    """``A(wt_v) = <v, l>`` for a toric valuation."""
    return linalg.dot(v.v, l.l)


def s_value(cone: ToricCone, xi, v) -> object:
    """Expected vanishing order ``S(wt_v) = <v, bar(u)>``.

    ``bar(u)`` is the volume-normalized barycenter of the slice
    polytope ``Q``; the value is exact when ``xi`` is rational.
    """
    val = v if isinstance(v, ToricValuation) else toric_valuation(cone, v)
    xi_vec = reeb_vector(cone, xi).xi
    slice_ = polytope_Q(cone, xi_vec)
    return linalg.dot(val.v, slice_.bary_Q)


def s_prime(cone: ToricCone, xi, v) -> object:
    """Normalized expected order ``S'(wt_v) = A(xi) <v, (n+1)/n bar(u)>``."""
    val = v if isinstance(v, ToricValuation) else toric_valuation(cone, v)
    rv = reeb_vector(cone, xi)
    l = gorenstein_vector(cone)
    slice_ = polytope_Q(cone, rv.xi)
    a_xi = linalg.dot(rv.xi, l.l)
    return a_xi * linalg.dot(val.v, slice_.bary_P)


def s_m_oracle(cone: ToricCone, xi, v, m: int) -> Fraction:
    """Finite-level average ``S_m(wt_v)`` from an explicit weight count.

    Averages ``<v, u>/m`` over the lattice points ``u`` of the dual
    cone with ``<xi, u> <= m``; as ``m`` grows this converges to
    ``S(wt_v)``.  The points come from the exact row scan
    :func:`reebcone.geometry.lattice_rows` (rational ``xi`` only), and
    each run ``{p} x [a, b]`` of ``L = b - a + 1`` points is summed in
    closed form: ``L`` points with coordinate sum ``(L p, (a + b) L / 2)``.
    Exact integer and rational arithmetic throughout, so it serves as
    an independent check on the barycenter route to ``S``.
    """
    if m <= 0:
        raise ValueError("m must be a positive integer, got %r" % (m,))
    val = v if isinstance(v, ToricValuation) else toric_valuation(cone, v)
    prefix, a, b = lattice_rows(cone, xi, m)
    counts = b - a + 1
    count = int(counts.sum())  # the origin is always counted
    sums = [int(col @ counts) for col in prefix.T]
    sums.append(int(((a + b) * counts).sum()) // 2)
    return Fraction(linalg.dot(val.v, sums), m * count)


def delta(
    cone: ToricCone,
    xi,
    boundary: Optional[Sequence] = None,
    experimental: bool = False,
) -> StabilityReport:
    """Stability threshold of ``(X, xi)`` by the barycenter criterion.

    Normalizes ``xi`` so that ``A(xi) = 1``, computes the barycenter
    point ``bar_P = (n+1)/n * bar(u)`` of the slice, and returns

        ``delta = min_i  <v_i, l> / <v_i, bar_P>``

    over the extreme rays ``v_i`` of ``sigma`` (the numerators are all
    1 without a boundary divisor).  The pairing with the normalized
    ``xi`` forces ``<xi, bar_P> = 1 = <xi, l>``, hence ``delta <= 1``
    always, with equality iff ``bar_P == l``.

    Boundary divisors are experimental: the ray formula is only backed
    by the theorem for ``B = 0``, so ``boundary`` requires an explicit
    ``experimental=True`` opt-in.
    """
    if boundary is not None and not experimental:
        raise ValueError(
            "delta with a boundary divisor is experimental; "
            "pass experimental=True to opt in"
        )
    l = gorenstein_vector(cone, boundary=boundary)
    rv = reeb_vector(cone, xi)
    a_xi = linalg.dot(rv.xi, l.l)
    numerators = [linalg.dot(v, l.l) for v in cone.rays]
    if rv.is_rational:
        scale = Fraction(a_xi)
        xi_hat = tuple(x / scale for x in rv.xi)
        slice_ = polytope_Q(cone, xi_hat)
        ratios = [
            a / linalg.dot(v, slice_.bary_P)
            for a, v in zip(numerators, cone.rays)
        ]
        d = min(ratios)
        minimizing = tuple(i for i, r in enumerate(ratios) if r == d)
        residual = max(abs(b - x) for b, x in zip(slice_.bary_P, l.l))
        kss = residual == 0
        d_prime = min(Fraction(1), d)
        return StabilityReport(
            delta=d,
            delta_prime=d_prime,
            bary_P=slice_.bary_P,
            gorenstein=l,
            minimizing_rays=minimizing,
            kss=kss,
            residual=residual,
            scale=scale,
        )
    with working_precision():
        scale = to_mpf(a_xi)
        xi_hat = tuple(to_mpf(x) / scale for x in rv.xi)
        slice_ = polytope_Q(cone, xi_hat)
        ratios = [
            to_mpf(a) / linalg.dot(v, slice_.bary_P)
            for a, v in zip(numerators, cone.rays)
        ]
        d = min(ratios)
        tol_rays = 8 * abs(d) * 2.0 ** (-50)
        minimizing = tuple(
            i for i, r in enumerate(ratios) if abs(r - d) <= tol_rays
        )
        residual = max(abs(b - to_mpf(x)) for b, x in zip(slice_.bary_P, l.l))
        linf = max(abs(Fraction(x)) for x in l.l)
        kss = residual <= 1e-9 * (1 + float(linf))
        d_prime = min(to_mpf(1), d)
    return StabilityReport(
        delta=d,
        delta_prime=d_prime,
        bary_P=slice_.bary_P,
        gorenstein=l,
        minimizing_rays=minimizing,
        kss=kss,
        residual=residual,
        scale=scale,
    )


def futaki_product(cone: ToricCone, xi, eta, order: int = 2):
    """Futaki pairing ``Fut(xi; eta) = -2 (a0 b1 - a1 b0) / a0**2``.

    ``a0, a1`` come from the index character at ``xi`` and ``b0, b1``
    from the weight character of ``eta``; the combination is exactly
    the derivative of the normalized volume of ``xi + s eta`` at
    ``s = 0`` up to positive scale, so a critical Reeb vector has
    vanishing pairing against every ``eta``.
    """
    pieces = decompose_dual(cone)
    F = index_character(pieces, xi, order=order)
    C = weight_character(pieces, xi, eta, order=order)
    a0, a1 = F.a0, F.a1
    b0, b1 = C.b0, C.b1
    return -2 * (a0 * b1 - a1 * b0) / (a0 * a0)


def ratio_profile(cone: ToricCone, xi, v, t_values: Sequence):
    """Values of ``f(t) = (A(v) + t A(xi)) / (S'(v) + t A(xi))``.

    The interpolation path behind the ray reduction: ``f`` is monotone
    in ``t`` on ``t >= 0`` and tends to 1, so ``f(0) = A(v)/S'(v)``
    bounds the whole profile on the side determined by the sign of
    ``A(v) - S'(v)``.  Returned as a tuple of ``(t, f(t))`` pairs.
    """
    val = v if isinstance(v, ToricValuation) else toric_valuation(cone, v)
    l = gorenstein_vector(cone)
    a_v = log_discrepancy(l, val)
    a_xi = linalg.dot(reeb_vector(cone, xi).xi, l.l)
    sp = s_prime(cone, xi, val.v)
    exact = isinstance(a_xi, Fraction) and isinstance(sp, Fraction)
    out = []
    for t in t_values:
        tt = Fraction(t) if exact else to_mpf(t)
        num = (a_v if exact else to_mpf(a_v)) + tt * a_xi
        den = sp + tt * a_xi
        if den <= 0:
            raise UnboundedSlice("ratio profile hit a nonpositive denominator")
        out.append((tt, num / den))
    return tuple(out)
