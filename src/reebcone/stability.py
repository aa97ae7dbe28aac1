"""Stability invariants of a Fano cone singularity.

Everything here is built from the integer sums ``(T, M, L)`` of the Reeb
slice's closed forms in :mod:`reebcone.geometry`: one
:class:`reebcone.geometry._SliceSums` per ``(cone, xi)``, the value behind
:func:`reebcone.geometry.polytope_Q` too, and for the Futaki invariant
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
extreme rays of ``sigma``; every pairing with the barycenter is one
quotient of those ints, exact for rational ``xi`` and otherwise rounded
once at the working precision.  K-semistability is equivalent to
``delta == 1``, which in turn happens exactly when the barycenter
``(n+1)/n * bar(u)`` coincides with ``l``.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from functools import cmp_to_key
from typing import Optional, Sequence, Tuple

from .config import KSS_RTOL, RAY_TIE_RTOL, ratio_type
from .errors import ExceedsSupportedSize, UnboundedSlice
from .geometry import (
    MAX_LATTICE_SCAN,
    GorensteinVector,
    ToricCone,
    _common_denominator,
    _scan_box,
    _slice_sums,
    _SliceSums,
    futaki_coefficients,
    gorenstein_vector,
    lattice_rows,
    numerators,
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


def toric_valuation(cone: ToricCone, v: Sequence) -> ToricValuation:
    """Validate ``v in sigma - {0}`` and wrap it as a valuation."""
    vv = tuple(Fraction(x) if not isinstance(x, Fraction) else x for x in v)
    if len(vv) != cone.dim:
        raise ValueError(
            "valuation vector has length %d, expected %d" % (len(vv), cone.dim)
        )
    if all(x == 0 for x in vv):
        raise ValueError("the apex v = 0 does not define a valuation")
    v_num, _ = _common_denominator(vv)  # d v, d > 0: the signs of v's pairings, in ints
    if not cone.contains(v_num):
        raise ValueError("v = %s lies outside the cone" % (vv,))
    return ToricValuation(v=vv, interior=cone.interior_contains(v_num))


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
    """Expected vanishing order ``S(wt_v) = <v, bar(u)>`` on any cone, the int
    pair of :meth:`reebcone.geometry._SliceSums.s_value` as one ratio."""
    val = v if isinstance(v, ToricValuation) else toric_valuation(cone, v)
    sums = _slice_sums(cone, xi)
    return ratio_type(sums.exact)(*sums.s_value(*_common_denominator(val.v)))


def s_prime(cone: ToricCone, xi, v) -> object:
    """Normalized expected order ``S'(wt_v) = A(xi) <v, (n+1)/n bar(u)>``, the
    int pair of :meth:`reebcone.geometry._SliceSums.s_prime` as one ratio."""
    val = v if isinstance(v, ToricValuation) else toric_valuation(cone, v)
    sums = _slice_sums(cone, xi, gorenstein_vector(cone).l)
    return ratio_type(sums.exact)(*sums.s_prime(*_common_denominator(val.v)))


def s_m_oracle(cone: ToricCone, xi, v, m: int) -> Fraction:
    """Finite-level average ``S_m(wt_v)`` from an explicit weight count.

    Averages ``<v, u>/m`` over the lattice points ``u`` of the dual cone with
    ``<xi, u> <= m``, which converges to ``S(wt_v)`` as ``m`` grows.  Exact
    arithmetic over one :func:`_level_sums` (rational ``xi`` only), so it is
    an independent check on the barycenter route to ``S``.
    """
    if m <= 0:
        raise ValueError("m must be a positive integer, got %r" % (m,))
    val = v if isinstance(v, ToricValuation) else toric_valuation(cone, v)
    total, den = _level_sums(cone, xi, m)
    return Fraction(linalg.dot(val.v, total), den)


def _level_sums(cone: ToricCone, xi, m: int) -> tuple[list[int], int]:
    """``(sum of u, m #points)`` over the lattice points u of ``m Q_xi``, each run
    ``{p} x [a, b]`` of :func:`reebcone.geometry.lattice_rows` summed in closed form."""
    prefix, a, b = lattice_rows(cone, xi, m)
    counts = b - a + 1
    sums = [int(col @ counts) for col in prefix.T]
    sums.append(int(((a + b) * counts).sum()) // 2)
    return sums, m * int(counts.sum())  # the origin is always counted


def _oracle_table(cone: ToricCone, xi, m_max: int) -> list[dict]:
    """Rows ``{v, s_m: [S_m(v), m = 1..m_max], s: S(v), s_prime: S'(v)}`` over
    the rays v of sigma, from one lattice scan per level and one slice pass.
    ExceedsSupportedSize before the first scan when ``m_max`` times the
    prefixes of the level-``m_max`` scan exceed ``MAX_LATTICE_SCAN``."""
    prefixes = _scan_box(cone, xi, m_max)[-1]
    if m_max * prefixes > MAX_LATTICE_SCAN:
        raise ExceedsSupportedSize(
            "%d levels of up to %d prefixes exceed the supported %d"
            % (m_max, prefixes, MAX_LATTICE_SCAN)
        )
    levels = [_level_sums(cone, xi, m) for m in range(1, m_max + 1)]
    sums = _slice_sums(cone, xi, gorenstein_vector(cone).l)
    ratio = ratio_type(sums.exact)
    return [
        {"v": list(v), "s_m": [Fraction(linalg.dot(v, total), den) for total, den in levels],
         "s": ratio(*sums.s_value(v)), "s_prime": ratio(*sums.s_prime(v))}
        for v in cone.rays
    ]


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

    Each ``A(v_i) / S'(v_i)`` is a pair of ints of one
    :class:`reebcone.geometry._SliceSums`, compared by cross-multiplication.
    delta, bar_P and the residual are Fractions for rational ``xi``, else each
    rounded once, with rays within ``RAY_TIE_RTOL * delta`` of the minimum
    tied and ``kss`` up to a residual of ``KSS_RTOL * (1 + |l|_inf)``.

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
    return _delta(cone, _slice_sums(cone, xi, l.l), l)


def _delta(cone: ToricCone, sums: _SliceSums, l: GorensteinVector) -> StabilityReport:
    """The body of :func:`delta`, on the sums of xi normalized against l."""
    ratio = ratio_type(sums.exact)
    # A(v_i) / S'(v_i) = (<v_i, l_num> / l_d) / (s_i / den): compare <v_i, l_num> / s_i
    pairs = [(linalg.dot(v, sums.l_num), sums.s_prime(v)[0]) for v in cone.rays]
    low_a, low_s = min(pairs, key=cmp_to_key(lambda x, y: x[0] * y[1] - y[0] * x[1]))
    low = ratio(low_a * sums.den, sums.l_d * low_s)
    residual = ratio(*sums.residual)
    tie_num, tie_den = (0, 1) if sums.exact else RAY_TIE_RTOL.as_integer_ratio()
    kss_tol = 0 if sums.exact else KSS_RTOL * (1 + float(max(map(abs, l.l))))
    return StabilityReport(
        delta=low,
        delta_prime=min(ratio(1, 1), low),
        bary_P=tuple(ratio(sums.a * m, sums.den) for m in sums.moment),
        gorenstein=l,
        # a_i / s_i - low_a / low_s <= RAY_TIE_RTOL * low_a / low_s, times s_i low_s
        minimizing_rays=tuple(i for i, (a_v, s) in enumerate(pairs)
                              if (a_v * low_s - low_a * s) * tie_den <= tie_num * low_a * s),
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

    With ``S'(v) = s / s_d`` from :func:`s_prime` and ``t = t_num / t_d``
    (:func:`reebcone.geometry.numerators`), ``t`` and ``f(t)`` are one int ratio
    each, ``f(t)`` over ``d l_d s_d t_d``; UnboundedSlice if ``S'(v) + t A(xi) <= 0``.
    """
    val = v if isinstance(v, ToricValuation) else toric_valuation(cone, v)
    sums = _slice_sums(cone, xi, gorenstein_vector(cone).l)
    ratio = ratio_type(sums.exact)
    v_num, v_d = _common_denominator(val.v)
    s, s_d = sums.s_prime(v_num, v_d)
    # A(v), A(xi) and S'(v) times d l_d s_d
    a_v, a_xi, s = linalg.dot(v_num, sums.l_num) * sums.d * sums.den, sums.a * s_d, s * sums.d * sums.l_d
    out = []
    for t in t_values:
        [((t_num,), t_d)], _ = numerators([(t,)])
        den = s * t_d + t_num * a_xi
        if den <= 0:
            raise UnboundedSlice("ratio profile hit a nonpositive denominator")
        out.append((ratio(t_num, t_d), ratio(a_v * t_d + t_num * a_xi, den)))
    return tuple(out)
