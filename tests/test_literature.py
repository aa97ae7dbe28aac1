"""Oracles from the literature: answers derived outside this repository.

The Sasaki-Einstein metrics on Y^{p,q} (0 < q < p) have a toric Calabi-Yau
cone whose rays are (1, 0, 0), (1, p-q-1, p-q), (1, p, p) and (1, 1, 0)
(Martelli-Sparks, Commun. Math. Phys. 262, 2006); ``y21.json`` is Y^{2,1}
with the same rays in another order.  Their Reeb vector and volume are known
in closed form, so ``minimize_volume`` and ``delta`` are checked against
them on every Y^{p,q} with p <= 30.  The bound on the normalized volume of a
klt singularity and its local fundamental group is checked on three random
suites, and the orbifold pairs (C^3, sum (1 - 1/m_i) H_i), quotients of C^3,
through the experimental boundary path of ``delta``.
"""

import itertools
import math
from fractions import Fraction

import pytest

from reebcone import delta, dual_cone, minimize_volume
from conftest import fraction_det, is_q_gorenstein, random_box_cone_suite, random_cone_suite

P_MAX = 30
# the Y^{p,q}, p <= 30, with 4p^2 - 3q^2 a square: their Reeb vector is rational
QUASI_REGULAR = ((7, 3), (7, 5), (13, 7), (13, 8), (14, 6), (14, 10), (19, 5), (19, 16),
                 (21, 9), (21, 15), (26, 14), (26, 16), (28, 12), (28, 20))


def orthant(n):
    return dual_cone([tuple(int(i == j) for j in range(n)) for i in range(n)], n)


def ypq_cone(p, q):
    return dual_cone([(1, 0, 0), (1, p - q - 1, p - q), (1, p, p), (1, 1, 0)], 3)


def ypq_pairs():
    return [(p, q) for p in range(2, P_MAX + 1) for q in range(1, p)]


def test_ypq_minimizer_and_volume():
    """xi* = (1, c, c) with c = b/3, b = (3p - 3q + 1/l)/2 and 1/l = (3q^2 - 2p^2
    + p sqrt(4p^2 - 3q^2))/q (Martelli-Sparks-Yau, Commun. Math. Phys. 268,
    2006), and vol*(Y^{p,q}) / vol*(C^3) = Vol(Y^{p,q}) / Vol(S^5) = q^2 (2p +
    sqrt(4p^2 - 3q^2)) / (3p^2 (3q^2 - 2p^2 + p sqrt(4p^2 - 3q^2)))
    (Gauntlett-Martelli-Sparks-Waldram, Adv. Theor. Math. Phys. 8, 2004), on
    all 435 Y^{p,q} with p <= 30."""
    c3 = minimize_volume(orthant(3)).vol_star
    for p, q in ypq_pairs():
        root = math.sqrt(4 * p * p - 3 * q * q)
        c = (3 * p - 3 * q + (3 * q * q - 2 * p * p + p * root) / q) / 6
        ratio = q * q * (2 * p + root) / (3 * p * p * (3 * q * q - 2 * p * p + p * root))
        res = minimize_volume(ypq_cone(p, q))
        assert res.xi_star.xi == pytest.approx((1, c, c), abs=1e-12), (p, q)
        assert res.vol_star / c3 == pytest.approx(ratio, rel=1e-12), (p, q)


def test_quasi_regular_ypq_is_kss_exactly():
    """Where 4p^2 - 3q^2 is a square the Martelli-Sparks-Yau minimizer (1, c, c)
    of :func:`test_ypq_minimizer_and_volume` is rational, and the Sasaki-Einstein
    metric makes the cone K-semistable there (Collins-Szekelyhidi, J.
    Differential Geom. 109, 2018): delta = 1, bary_P = l exactly and kss, at a
    point that is not a symmetric point of the cone."""
    squares = [(p, q) for p, q in ypq_pairs() if math.isqrt(4 * p * p - 3 * q * q) ** 2
               == 4 * p * p - 3 * q * q]
    assert tuple(squares) == QUASI_REGULAR
    for p, q in QUASI_REGULAR:
        root = math.isqrt(4 * p * p - 3 * q * q)
        c = (3 * p - 3 * q + Fraction(3 * q * q - 2 * p * p + p * root, q)) / 6
        report = delta(ypq_cone(p, q), (1, c, c))
        assert (report.delta, report.residual, report.kss) == (1, 0, True), (p, q, c)
        assert report.scale == 1 and report.bary_P == report.gorenstein.l


def test_normalized_volume_bound():
    """For a klt singularity x, vol^(x) |pi_1^loc(x)| <= n^n = vol^(C^n), with
    equality exactly when x is a quotient of C^n (Li, Math. Z. 289, 2018;
    Liu-Xu, Duke Math. J. 168, 2019; Xu-Zhuang's finite degree formula, Camb.
    J. Math. 9, 2021).  On a Q-Gorenstein toric cone the local fundamental
    group is Z^n / Z<rays>, of order g the gcd of the maximal minors of the
    rays, and vol^ is vol* up to one factor per n, so r = vol*(sigma) /
    vol*(C^n) g is 1 on the simplicial cones and below 1 on the others.  In
    dimension 3 Liu-Xu bound the others by 16/27, the conifold's value; the
    suites' other cones of dims 4-7 stay there too, and one of dim 3 meets it."""
    cones = [cone for cone, _ in random_cone_suite(seed=11, count=60, dims=(2, 3, 4, 5))]
    cones += [cone for cone, _ in random_cone_suite(seed=29, count=20, dims=(6, 7))]
    cones += [cone for cone, _, _ in random_box_cone_suite(seed=7, count=40, dims=(2, 3, 4))]
    cones = [cone for cone in cones if is_q_gorenstein(cone)]
    smooth = {n: minimize_volume(orthant(n)).vol_star for n in {cone.dim for cone in cones}}
    simplicial, others = [], []
    for cone in cones:
        n = cone.dim
        g = math.gcd(*(int(fraction_det(minor)) for minor in itertools.combinations(cone.rays, n)))
        r = minimize_volume(cone).vol_star / smooth[n] * g
        (simplicial if len(cone.rays) == n else others).append(r)
    assert (len(simplicial), len(others)) == (62, 39)
    assert max(abs(r - 1) for r in simplicial) <= 1e-12
    assert max(others) <= 16 / 27 + 1e-12
    assert max(others) == pytest.approx(16 / 27, rel=1e-12)


def test_orbifold_pairs_are_kss():
    """(C^3, sum (1 - 1/m_i) H_i) is the quotient of C^3 by the roots of unity
    mu_m1 x mu_m2 x mu_m3 through z -> (z_i^{m_i}), a Galois cover crepant for the
    pair, so by Xu-Zhuang's finite degree formula (Camb. J. Math. 9, 2021) its
    minimizer is the image of C^3's, xi = m / 3, and there the barycentre
    condition of Collins-Szekelyhidi (J. Differential Geom. 109, 2018) holds:
    delta = 1 and bary_P = l exactly.  At xi = (1, 1, 1) it fails unless every
    m_i is equal."""
    c3 = orthant(3)
    for m, at_one in (((2, 3, 5), Fraction(18, 31)), ((1, 1, 1), 1), ((4, 4, 7), Fraction(2, 3))):
        boundary = tuple(1 - Fraction(1, k) for k in m)
        report = delta(c3, tuple(Fraction(k, 3) for k in m), boundary=boundary, experimental=True)
        assert (report.delta, report.residual, report.kss) == (1, 0, True), m
        assert report.bary_P == report.gorenstein.l == tuple(Fraction(1, k) for k in m)
        assert delta(c3, (1, 1, 1), boundary=boundary, experimental=True).delta == at_one, m
