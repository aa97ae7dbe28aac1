"""The exact lattice row scan and the three brute-force oracles built on it.

``lattice_points``, ``s_m_oracle`` and ``truncated_character_oracle`` all sum
over ``geometry.lattice_rows``.  Each is checked here against
``brute_lattice_points`` from ``conftest.py``, which shares no code with the
row scan: nested loops over the bounding box with Fraction membership tests.
"""

import functools
import math
import random
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy
import pytest

from reebcone import (
    ExceedsSupportedSize,
    IrrationalReeb,
    dual_cone,
    lattice_points,
    s_m_oracle,
    truncated_character_oracle,
)
from reebcone.cli import parse_cone_spec
from reebcone.geometry import lattice_rows
from reebcone.linalg import dot
from conftest import brute_lattice_points, make_orthant2, make_orthant3, make_y21, random_cone_suite

SPEC_DIR = Path(__file__).resolve().parents[1] / "src" / "reebcone" / "specs"
LEVEL = 6


def _cases():
    """(id, cone, xi, eta): the bundled specs, a random suite of dims 2-4, and
    one xi with xi_n = 0, where every run has a single pairing."""
    out = [("xi_n_zero", dual_cone([(1, -1), (1, 1)], 2), (1, 0), (1, 3))]
    for path in sorted(SPEC_DIR.glob("*.json")):
        spec = parse_cone_spec(path.read_text(encoding="utf-8"))
        eta = spec.eta or (1,) + (0,) * (spec.dim - 1)
        out.append((spec.name, dual_cone(spec.rays, spec.dim), spec.xi, eta))
    rng = random.Random(5)
    for k, (cone, xi) in enumerate(random_cone_suite(seed=5, count=20, dims=(2, 3, 4))):
        eta = tuple(rng.randint(-3, 3) for _ in range(cone.dim))
        out.append(("random%02d" % k, cone, xi, eta))
    return out


CASES = _cases()
IDS = [case[0] for case in CASES]


@functools.lru_cache(maxsize=None)
def brute(case: int):
    """The oracle's points of LEVEL * Q_xi for CASES[case], enumerated once."""
    _, cone, xi, _ = CASES[case]
    return brute_lattice_points(cone, xi, LEVEL)


def brute_upto(case: int, m):
    xi = CASES[case][2]
    return tuple(u for u in brute(case) if dot(xi, u) <= m)


@pytest.mark.parametrize("case", range(len(CASES)), ids=IDS)
def test_lattice_points_match_brute_force(case):
    _, cone, xi, _ = CASES[case]
    for m in range(1, LEVEL + 1):
        assert lattice_points(cone, xi, m) == brute_upto(case, m)


@pytest.mark.parametrize("case", range(len(CASES)), ids=IDS)
def test_s_m_oracle_matches_brute_force(case):
    _, cone, xi, _ = CASES[case]
    for m in range(1, LEVEL + 1):
        pts = brute_upto(case, m)
        for v in cone.rays:
            expected = Fraction(sum(dot(v, u) for u in pts), m * len(pts))
            assert s_m_oracle(cone, xi, v, m) == expected


@pytest.mark.parametrize("case", range(len(CASES)), ids=IDS)
def test_character_oracle_matches_brute_force(case):
    # the cutoff is far too small for the tail bound, so rel_tol is lifted:
    # only the partial sum over the points is compared
    _, cone, xi, eta = CASES[case]
    for t in (0.3, 1.0):
        decay = [math.exp(-t * float(dot(xi, u))) for u in brute(case)]
        index = truncated_character_oracle(cone, xi, None, t, LEVEL, rel_tol=math.inf)
        expected = math.fsum(decay)
        assert abs(index - expected) <= 1e-12 * expected
        terms = [float(dot(eta, u)) * w for u, w in zip(brute(case), decay)]
        weight = truncated_character_oracle(cone, xi, eta, t, LEVEL, rel_tol=math.inf)
        assert abs(weight - math.fsum(terms)) <= 1e-12 * math.fsum(map(abs, terms))


def test_character_oracle_keeps_points_on_the_cutoff():
    # y21 at xi = (1, 1/3, 2/3): 477 lattice points have <xi, u> = 14 exactly;
    # a float test of the pairing against the cutoff dropped 64 of them
    cone, xi = make_y21(), (1, Fraction(1, 3), Fraction(2, 3))
    pts = brute_lattice_points(cone, xi, 14)
    assert sum(dot(xi, u) == 14 for u in pts) == 477
    expected = math.fsum(math.exp(-float(dot(xi, u))) for u in pts)
    observed = truncated_character_oracle(cone, xi, None, 1.0, 14)
    assert abs(observed - expected) <= 1e-12 * expected


@pytest.mark.parametrize("xi", [(1.0, 0.5), (mpmath.mpf(1), mpmath.sqrt(2))], ids=["float", "mpf"])
def test_inexact_xi_rejected(xi):
    cone = make_orthant2()
    with pytest.raises(IrrationalReeb):
        lattice_rows(cone, xi, 3)
    with pytest.raises(IrrationalReeb):
        lattice_points(cone, xi, 3)
    with pytest.raises(IrrationalReeb):
        s_m_oracle(cone, xi, (1, 0), 3)
    with pytest.raises(IrrationalReeb):
        truncated_character_oracle(cone, xi, None, 0.5, 40)


def test_oversized_scan_raises_before_allocating(monkeypatch):
    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated before the size guard")

    for name in ("arange", "empty", "full", "indices", "repeat", "zeros"):
        monkeypatch.setattr(numpy, name, no_allocation)
    orthant3 = make_orthant3()
    with pytest.raises(ExceedsSupportedSize, match="prefixes"):
        lattice_rows(orthant3, (1, 1, 1), 10 ** 5)  # 1e10 prefixes
    with pytest.raises(ExceedsSupportedSize, match="prefixes"):
        truncated_character_oracle(orthant3, (1, 1, 1), None, 1e-4, 10 ** 5)
    # few prefixes, but sums over the runs would pass 2**63
    with pytest.raises(ExceedsSupportedSize, match="int64"):
        s_m_oracle(make_orthant2(), (1, 1), (1, 0), 10 ** 7)
    with pytest.raises(ExceedsSupportedSize, match="int64"):
        lattice_points(dual_cone([(1,)], 1), (1,), 2 ** 62)
