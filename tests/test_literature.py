"""Oracles from the literature: answers derived outside this repository.

The Sasaki-Einstein metrics on Y^{p,q} (0 < q < p) have a toric Calabi-Yau
cone whose rays are (1, 0, 0), (1, p-q-1, p-q), (1, p, p) and (1, 1, 0)
(Martelli-Sparks, Commun. Math. Phys. 262, 2006); ``y21.json`` is Y^{2,1}
with the same rays in another order.  Their Reeb vector and volume are known
in closed form, so ``minimize_volume`` and ``delta`` are checked against
them on every Y^{p,q} with p <= 30.
"""

import math
from fractions import Fraction

import pytest

from reebcone import delta, dual_cone, minimize_volume

P_MAX = 30
# the Y^{p,q}, p <= 30, with 4p^2 - 3q^2 a square: their Reeb vector is rational
QUASI_REGULAR = ((7, 3), (7, 5), (13, 7), (13, 8), (14, 6), (14, 10), (19, 5), (19, 16),
                 (21, 9), (21, 15), (26, 14), (26, 16), (28, 12), (28, 20))


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
    orthant = minimize_volume(dual_cone([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)).vol_star
    for p, q in ypq_pairs():
        root = math.sqrt(4 * p * p - 3 * q * q)
        c = (3 * p - 3 * q + (3 * q * q - 2 * p * p + p * root) / q) / 6
        ratio = q * q * (2 * p + root) / (3 * p * p * (3 * q * q - 2 * p * p + p * root))
        res = minimize_volume(ypq_cone(p, q))
        assert res.xi_star.xi == pytest.approx((1, c, c), abs=1e-12), (p, q)
        assert res.vol_star / orthant == pytest.approx(ratio, rel=1e-12), (p, q)


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
