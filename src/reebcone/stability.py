"""Stability invariants of a Fano cone singularity.

Everything here is built from the closed forms of the Reeb slice in
:mod:`reebcone.geometry`: the volume and barycenter of
:func:`reebcone.geometry.polytope_Q`, and for the Futaki invariant
:func:`reebcone.geometry.futaki_coefficients`, which adds the volumes of
the slice's boundary faces to give the leading index and weight character
coefficients without box points.  The central objects are

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

from .config import KSS_RTOL, RAY_TIE_RTOL, ratio_type, scalar_type
from .errors import UnboundedSlice
from .geometry import (
    GorensteinVector,
    ToricCone,
    _normalized_sums,
    futaki_coefficients,
    gorenstein_vector,
    lattice_rows,
    polytope_Q,
    reeb_vector,
)
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

    No rescaled ``xi`` is formed: bar_P has degree -1 in ``xi``, so with
    ``xi = xi_num / d``, ``l = l_num / l_d``, ``a = <xi_num, l_num>`` and
    the sums ``(T, M, L)`` of :func:`reebcone.geometry.polytope_Q` at ``xi``
    itself, the normalized barycenter is ``a M / den``, ``den = l_d n T L``
    (:func:`reebcone.geometry._normalized_sums`).
    Every ratio and the residual are then one quotient of ints: exact
    Fractions for rational ``xi``, otherwise rounded once to an mpf at the
    working precision, where rays within ``RAY_TIE_RTOL * |delta|`` of the
    minimum tie and ``kss`` allows a residual up to
    ``KSS_RTOL * (1 + |l|_inf)``.

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
    sums = _normalized_sums(cone, xi, l.l)
    ratio = ratio_type(sums.exact)
    ratios = [
        ratio(linalg.dot(v, sums.l_num) * sums.den, sums.l_d * sums.a * linalg.dot(v, sums.moment))
        for v in cone.rays
    ]
    low = min(ratios)
    residual = ratio(*sums.residual)
    if sums.exact:
        tie_tol = kss_tol = 0
    else:
        tie_tol = RAY_TIE_RTOL * abs(low)
        kss_tol = KSS_RTOL * (1 + float(max(abs(x) for x in l.l)))
    return StabilityReport(
        delta=low,
        delta_prime=min(ratio(1, 1), low),
        bary_P=tuple(ratio(sums.a * m, sums.den) for m in sums.moment),
        gorenstein=l,
        minimizing_rays=tuple(i for i, r in enumerate(ratios) if abs(r - low) <= tie_tol),
        kss=residual <= kss_tol,
        residual=residual,
        scale=ratio(sums.a, sums.d * sums.l_d),
    )


def futaki_pairing(F, C):
    """``Fut(xi; eta) = -2 (a0 b1 - a1 b0) / a0**2`` from the characters.

    ``a0, a1`` come from the index character ``F`` at ``xi`` and ``b0, b1``
    from the weight character ``C`` of ``eta``, each of order at least 1, or
    both from one :class:`reebcone.geometry.FutakiCoefficients`; the combination is exactly
    the derivative of the normalized volume of ``xi + s eta`` at ``s = 0``
    up to positive scale, so a critical Reeb vector has vanishing pairing
    against every ``eta``.
    """
    return -2 * (F.a0 * C.b1 - F.a1 * C.b0) / (F.a0 * F.a0)


def futaki_product(cone: ToricCone, xi, eta):
    """Futaki pairing of a cone: :func:`futaki_pairing` of the closed-form
    :func:`reebcone.geometry.futaki_coefficients`, equal to that of the
    characters to order 1."""
    coeffs = futaki_coefficients(cone, xi, eta)
    return futaki_pairing(coeffs, coeffs)


def ratio_profile(cone: ToricCone, xi, v, t_values: Sequence):
    """Values of ``f(t) = (A(v) + t A(xi)) / (S'(v) + t A(xi))``.

    The interpolation path behind the ray reduction: ``f`` is monotone
    in ``t`` on ``t >= 0`` and tends to 1, so ``f(0) = A(v)/S'(v)``
    bounds the whole profile on the side determined by the sign of
    ``A(v) - S'(v)``.  Returned as a tuple of ``(t, f(t))`` pairs.
    """
    val = v if isinstance(v, ToricValuation) else toric_valuation(cone, v)
    l = gorenstein_vector(cone)
    rv = reeb_vector(cone, xi)
    scalar = scalar_type(rv.is_rational)
    a_v = scalar(log_discrepancy(l, val))
    a_xi = linalg.dot(rv.xi, l.l)
    sp = s_prime(cone, rv, val)
    out = []
    for t in t_values:
        tt = scalar(t)
        den = sp + tt * a_xi
        if den <= 0:
            raise UnboundedSlice("ratio profile hit a nonpositive denominator")
        out.append((tt, (a_v + tt * a_xi) / den))
    return tuple(out)
