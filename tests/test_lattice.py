"""The exact lattice row scans of ``reebcone.lattice`` and the three brute-force
oracles built on them.

``lattice_points``, ``s_m_oracle`` and ``truncated_character_oracle`` all sum
over ``lattice.lattice_rows``.  Each is checked here against
``brute_lattice_points`` from ``conftest.py``, which shares no code with the
row scan: nested loops over the bounding box with Fraction membership tests.
The CLI's S_m table reads its levels from one pure-Python scan,
``lattice._python_rows``, checked here against ``lattice_rows`` and the
per-level sums of ``lattice._level_sums``.
"""

import bisect
import collections
import functools
import math
import random
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy
import pytest

from reebcone import (
    CutoffTooSmall,
    ExceedsSupportedSize,
    IrrationalReeb,
    dual_cone,
    lattice_points,
    s_m_oracle,
    truncated_character_oracle,
)
from reebcone.cli import parse_cone_spec
from reebcone.lattice import (_INT64_SAFE, _level_sums, _oracle_table, _python_rows,
                              _python_table_sums, _scan_box, _shell_counts, integer_reeb,
                              lattice_rows)
from reebcone.linalg import dot
from conftest import (brute_lattice_points, fraction_scan_box, make_conifold, make_kgon,
                      make_orthant2, make_orthant3, make_y21, random_box_cone_suite,
                      random_cone_suite)

SPEC_DIR = Path(__file__).resolve().parents[1] / "src" / "reebcone" / "specs"
LEVEL = 6


def _cases():
    """(id, cone, xi, eta): the bundled specs, a random suite of dims 2-4, one
    xi with xi_n = 0, where every run has a single pairing, and a dim-1 cone,
    whose prefixes have no coordinates."""
    out = [("xi_n_zero", dual_cone([(1, -1), (1, 1)], 2), (1, 0), (1, 3)),
           ("dim1", dual_cone([(1,)], 1), (Fraction(2, 3),), (-2,))]
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


# y21 at xi = (1, 1/3, 2/3), where a run of the scan steps its pairing by 2/3
Y21_XI = (1, Fraction(1, 3), Fraction(2, 3))


@pytest.mark.parametrize("t", [5e-324, 1e-310, 1e-300, 1e-200])
def test_weighted_oracle_at_tiny_t_is_cutoff_too_small(t):
    # the run means 1/(e^h - 1) - L/(e^{hL} - 1) cancelled to NaN or to a huge value
    # here; the partial sum is now finite and the tail bound refuses it, as unweighted
    for eta in (None, (0, 1, 1)):
        with pytest.raises(CutoffTooSmall):
            truncated_character_oracle(make_y21(), Y21_XI, eta, t, 40)


def test_oracle_sum_past_the_floats_is_cutoff_too_small():
    # with no tail check at all, a partial sum or tail that is not finite is still no value
    with numpy.errstate(over="ignore", invalid="ignore"), pytest.raises(CutoffTooSmall):
        truncated_character_oracle(make_y21(), Y21_XI, (1e308, 0, 0), 1.0, 40, rel_tol=math.inf)


def test_oracle_sum_past_the_floats_warns_nothing():
    # the overflow is the refusal's, and no larger cutoff would mend it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CutoffTooSmall, match="past the floats, which no cutoff mends"):
            truncated_character_oracle(make_y21(), Y21_XI, (1e308, 0, 0), 1.0, 40)


def test_oracle_tail_past_the_floats_is_cutoff_too_small():
    # the partial sum, about 4e306, is finite, and its tail bound is not
    with pytest.raises(CutoffTooSmall, match="estimated tail is past the floats"):
        truncated_character_oracle(make_y21(), Y21_XI, (1e305, 0, 0), 1.0, 40, rel_tol=math.inf)


@pytest.mark.parametrize("t", [1e-300, 1e-6])
@pytest.mark.parametrize("eta", [None, (0, 1, 1)], ids=["index", "weight"])
def test_oracle_tail_stops_once_past_the_bound(t, eta, monkeypatch):
    # the tail only grows, so its first term past rel_tol * |partial| decides the
    # call; summing on to the 200,000-term cap took 199,999 calls of math.exp
    import reebcone.lattice

    calls = []
    spy = type(math)("math")
    spy.__dict__.update(math.__dict__)
    spy.exp = lambda x: calls.append(x) or math.exp(x)
    monkeypatch.setattr(reebcone.lattice, "math", spy)
    with pytest.raises(CutoffTooSmall) as exc:
        truncated_character_oracle(make_y21(), Y21_XI, eta, t, 40)
    assert len(calls) == 1
    assert "estimated tail at least" in str(exc.value)


@pytest.mark.parametrize("make, xi, eta, cutoff", [
    (make_y21, Y21_XI, (0, 1, 1), 16),
    # t / 9 of the least float is 0, so every run weighs 1 per point
    (make_y21, (1, Fraction(1, 3), Fraction(1, 9)), (0, 1, 1), 16),
    # runs of up to 201 points, so hL runs up to 0.8 at t = 0.2, where h = 0.004
    (make_orthant2, (1, Fraction(1, 50)), (0, 1), 4),
], ids=["y21", "y21-h-underflow", "orthant2-long-runs"])
def test_weighted_oracle_matches_the_direct_sum_at_every_t(make, xi, eta, cutoff):
    # the run means and sums at every scale of hL, series and closed form alike,
    # against the sum over the points of lattice_points, with no overflow warned
    cone = make()
    points = [(float(dot(xi, u)), dot(eta, u)) for u in lattice_points(cone, xi, cutoff)]
    for t in (5e-324, 1e-310, 1e-300, 1e-200, 1e-6, 1e-3, 0.02, 0.2, 0.3):
        expected = math.fsum(w * math.exp(-t * s) for s, w in points)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            observed = truncated_character_oracle(cone, xi, eta, t, cutoff, rel_tol=math.inf)
        assert abs(observed - expected) <= 1e-9 * expected, t


def test_scan_box_matches_fraction_box():
    # the box bounds the scan and decides the MAX_LATTICE_SCAN and --m-max refusals,
    # so it must be the Fraction box exactly: a hi that floors where it should ceil
    # still finds every point here, but moves those refusals
    cases = [(cone, xi) for cone, xi, _ in random_box_cone_suite(seed=7, count=20, dims=(2, 3, 4))]
    cases += random_cone_suite(seed=11, count=20, dims=(2, 3, 4))
    cases += [(make_kgon(k, 4), (3, Fraction(1, 5), Fraction(-1, 7))) for k in (6, 9, 13)]
    assert sum(min(map(min, cone.dual_rays)) < 0 for cone, _ in cases) >= 30
    for cone, xi in cases:
        for level in (1, 5, Fraction(37, 3), 20.5):
            assert _scan_box(cone, xi, level)[2:] == fraction_scan_box(cone, xi, level)


def _runs(cone, xi, level):
    """``(s0, counts, step, d)``: the runs of the level-``level`` row scan as the
    character oracle reads them, each from its lowest pairing s0 with d xi, in
    steps of |step|, d xi integral."""
    prefix, a, b = lattice_rows(cone, xi, level)
    xi_int, d = integer_reeb(cone, xi)
    step = xi_int[-1]
    s0 = prefix @ numpy.array(xi_int[:-1], dtype=numpy.int64) + step * (a if step >= 0 else b)
    return s0, b - a + 1, step, d


@pytest.mark.parametrize("cone, xi, level, first", [
    (make_y21(), (1, Fraction(1, 3), Fraction(2, 3)), 14, 0),  # step 2, d = 3
    (make_y21(), (1, Fraction(1, 3), Fraction(2, 3)), 14, 6),
    (make_kgon(9, 4), (3, Fraction(1, 7), Fraction(-1, 5)), 8, 2),  # step -7, d = 35
    (make_kgon(9, 4), (3, Fraction(1, 7), Fraction(-2, 5)), 8, 2),  # step -14, d = 35
    (make_kgon(6, 4), (3, Fraction(1, 7), 0), 8, 2),  # step 0: a run has one pairing
    (make_conifold(), (3, 2, 2), 12, 4),  # step 2, d = 1
    (make_y21(), (1, Fraction(1, 3), Fraction(2, 3)), 6, 6),  # every run at or below xs[0]
], ids=["y21", "y21-upper", "kgon-negative", "kgon-negative-2", "kgon-zero", "conifold",
        "all-below"])
def test_shell_counts_match_brute_force(cone, xi, level, first):
    # per shell (x, x'] of d <xi, u>: the oracle's shells k - 1 < <xi, u> <= k, which
    # many runs end in, and unit shells, which meet every residue of x modulo the step
    s0, counts, step, d = _runs(cone, xi, level)
    pairings = sorted(d * dot(xi, u) for u in brute_lattice_points(cone, xi, level))
    for spacing in (d, 1):
        xs = list(range(first * d, (level + 1) * d + 1, spacing))
        below = [bisect.bisect_right(pairings, x) for x in xs]
        expected = [hi - lo for lo, hi in zip(below, below[1:])]
        assert _shell_counts(s0, counts, step, xs).tolist() == expected


@pytest.mark.parametrize("step", [3, -3, 0])
def test_shell_counts_at_the_int64_guard(step):
    # pairings just under the bound lattice_rows admits: m (Q + 1) and the prefix
    # sums of q pass 2^63 and wrap, and the counts must come out exact regardless
    rng = random.Random(3)
    top = _INT64_SAFE - 1
    s0 = [top - rng.randrange(3 * 10 ** 4) for _ in range(60)]
    counts = [rng.randint(1, 40) for _ in s0]
    s0 = [s - abs(step) * (c - 1) for s, c in zip(s0, counts)]
    xs = [top - 3 * 10 ** 4 - 5 + 7 * k for k in range(4300)]
    points = sorted(s + abs(step) * j for s, c in zip(s0, counts) for j in range(c))
    below = [bisect.bisect_right(points, x) for x in xs]
    expected = [hi - lo for lo, hi in zip(below, below[1:])]
    got = _shell_counts(numpy.array(s0, dtype=numpy.int64), numpy.array(counts, dtype=numpy.int64),
                        step, xs)
    assert got.tolist() == expected


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
    # 11 prefixes, but sums over their runs of 10**13 points would pass 2**63
    with pytest.raises(ExceedsSupportedSize, match="int64"):
        s_m_oracle(make_orthant2(), (1, Fraction(1, 10 ** 12)), (1, 0), 10)
    with pytest.raises(ExceedsSupportedSize, match="int64"):
        _oracle_table(make_orthant2(), (1, Fraction(1, 10 ** 12)), 10)
    with pytest.raises(ExceedsSupportedSize, match="int64"):
        lattice_points(dual_cone([(1,)], 1), (1,), 2 ** 62)
    # a level below 1/d leaves one prefix and no sum, but the coefficient 2**63 of
    # the top level is itself past int64
    with pytest.raises(ExceedsSupportedSize, match="int64"):
        truncated_character_oracle(make_orthant2(), (2 ** 63, 1), None, 0.5, 0.5)


def test_exact_t_is_summed_as_its_float():
    cone, xi = make_conifold(), (3, 2, 2)
    for eta in (None, (0, 1, 0)):
        exact = truncated_character_oracle(cone, xi, eta, Fraction(1, 5), 90)
        assert exact == truncated_character_oracle(cone, xi, eta, 0.2, 90)


@pytest.mark.parametrize("call, args, match", [
    (truncated_character_oracle, (None, math.nan, 40), "t must be positive and finite"),
    (truncated_character_oracle, (None, math.inf, 40), "t must be positive and finite"),
    (truncated_character_oracle, (None, -math.inf, 40), "t must be positive and finite"),
    (truncated_character_oracle, (None, 10**400, 40), "t must be positive and finite"),
    (truncated_character_oracle, (None, 0.5, math.nan), "cutoff must be positive and finite"),
    (truncated_character_oracle, (None, 0.5, math.inf), "cutoff must be positive and finite"),
    (truncated_character_oracle, (None, 0.5, 10**400), "cutoff must be positive and finite"),
    (truncated_character_oracle, (None, 0.5, 40, None), "rel_tol must be a positive float"),
    (truncated_character_oracle, (None, 0.5, 40, math.nan), "rel_tol must be a positive float"),
    (truncated_character_oracle, (None, 0.5, 40, 10**400), "rel_tol must be a positive float"),
    (lattice_points, (math.inf,), "m must be a positive integer"),
    (lattice_points, (math.nan,), "m must be a positive integer"),
    (lattice_points, (2.5,), "m must be a positive integer"),
    (lattice_points, ("3",), "m must be a positive integer"),
    (lattice_points, (None,), "m must be a positive integer"),
    (lattice_points, (0,), "m must be a positive integer"),
    (lattice_rows, (-math.inf,), "level must be finite"),
    (s_m_oracle, ((1, 0, 0), 2.5), "m must be a positive integer"),
    (s_m_oracle, ((1, 0, 0), Fraction(2)), "m must be a positive integer"),
    (s_m_oracle, ((1, 0, 0), math.inf), "m must be a positive integer"),
    (_oracle_table, (2.5,), "m_max must be a positive integer"),
    (_oracle_table, ("3",), "m_max must be a positive integer"),
    (_oracle_table, (0,), "m_max must be a positive integer"),
], ids=["t-nan", "t-inf", "t-minus-inf", "t-past-float", "cutoff-nan", "cutoff-inf",
        "cutoff-past-float", "rel-tol-none", "rel-tol-nan", "rel-tol-past-float", "points-inf", "points-nan", "points-float", "points-str",
        "points-none", "points-zero",
        "rows-minus-inf", "m-float", "m-fraction", "m-inf", "table-float", "table-str",
        "table-zero"])
def test_oracle_inputs_outside_their_domain(call, args, match):
    with pytest.raises(ValueError, match=match):
        call(make_conifold(), (3, 2, 2), *args)


def test_numpy_integer_level():
    # one positive-integer check for every oracle level: a NumPy integer is an
    # integer, as in grid_search_oracle's resolution
    from reebcone import grid_search_oracle

    orthant3, m = make_orthant3(), numpy.int64(3)
    assert lattice_points(orthant3, (1, 1, 1), m) == lattice_points(orthant3, (1, 1, 1), 3)
    assert len(lattice_points(orthant3, (1, 1, 1), m)) == 20
    assert s_m_oracle(orthant3, (1, 1, 1), (1, 0, 0), m) == s_m_oracle(orthant3, (1, 1, 1), (1, 0, 0), 3)
    assert _oracle_table(orthant3, (1, 1, 1), m) == _oracle_table(orthant3, (1, 1, 1), 3)
    assert grid_search_oracle(orthant3, m) == grid_search_oracle(orthant3, 3)


def test_float_level_loads_no_mpmath():
    # Fraction reads an int, float or Fraction level exactly; only another number, an
    # mpf say, is read at the working precision, which loads mpmath for an mpf but not
    # for a NumPy float32 (geometry._dyadic reads every float exactly too, but rounds a
    # Fraction such as 121/3, which is no dyadic, through mpmath)
    script = "\n".join([
        "import sys",
        "from fractions import Fraction",
        "import numpy as np",
        "from reebcone import dual_cone, truncated_character_oracle",
        "orthant2 = dual_cone([(1, 0), (0, 1)], 2)",
        "for cutoff in (40.5, 40, Fraction(81, 2), Fraction(121, 3), np.float32(40.5)):",
        "    truncated_character_oracle(orthant2, (1, 1), None, 0.5, cutoff)",
        "print('mpmath' in sys.modules)",
    ])
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, check=False)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def _expanded(axis, rows):
    """The points of ``(prefix, a, b)`` runs along ``axis``, sorted."""
    return sorted((*p[:axis], x, *p[axis:]) for p, a, b in rows for x in range(a, b + 1))


@pytest.mark.parametrize("case", range(len(CASES)), ids=IDS)
def test_python_rows_match_lattice_rows(case):
    _, cone, xi, _ = CASES[case]
    for level in (1, LEVEL, Fraction(37, 3)):
        prefix, a, b = lattice_rows(cone, xi, level)
        numpy_rows = zip(map(tuple, prefix.tolist()), a.tolist(), b.tolist())
        assert _expanded(*_python_rows(cone, xi, level)) == _expanded(cone.dim - 1, numpy_rows)


def test_python_rows_run_along_the_widest_axis():
    # a box 1001 wide in x_1 and 2 in x_2: two rows along x_1, not 1001 along x_2
    axis, rows = _python_rows(make_orthant2(), (Fraction(1, 1000), 1), 1)
    assert (axis, rows) == (0, [((0,), 0, 1000), ((1,), 0, 0)])
    assert _python_table_sums(make_orthant2(), (Fraction(1, 1000), 1), 1) == [([500500, 1], 1002)]
    # the mirror image, whose box runs from -1000 to 0 in x_1: the width picks the axis
    cone, xi = dual_cone([(-1, 0), (0, 1)], 2), (Fraction(-1, 1000), 1)
    assert _python_rows(cone, xi, 1) == (0, [((0,), -1000, 0), ((1,), 0, 0)])
    assert _python_table_sums(cone, xi, 1) == [([-500500, 1], 1002)]


def _signed_xi(cone, sign, j):
    """An xi interior to sigma whose coordinate j has the given sign, else None:
    the mean of the rays, those with coordinate j > 0 and < 0 weighted so that
    coordinate j comes out of that sign."""
    pos = sum(v[j] for v in cone.rays if v[j] > 0)
    neg = -sum(v[j] for v in cone.rays if v[j] < 0)
    if (sign >= 0 and not pos) or (sign <= 0 and not neg):
        return None
    up, down = neg + (sign > 0), pos + (sign < 0)
    weights = [up if v[j] > 0 else down if v[j] < 0 else 1 for v in cone.rays]
    return tuple(Fraction(sum(w * v[k] for w, v in zip(weights, cone.rays)), sum(weights))
                 for k in range(cone.dim))


def _row_axis(cone, xi, level):
    """The axis the rows of ``_python_rows`` run along: the widest of the box, the
    last of those as wide."""
    lo, hi = _scan_box(cone, xi, level)[2:4]
    return max(range(cone.dim), key=lambda j: (hi[j] - lo[j], j))


def _table_cases():
    """(id, cone, xi, m_max): random cones of dims 2-5, up to two for each dim and
    sign of the coordinate of xi on the row axis, positive, negative or zero, the
    two dim-1 cones, and y21 to a level whose rows cross up to 12 levels."""
    out = [("dim1-positive", dual_cone([(1,)], 1), (Fraction(2, 3),), 7),
           ("dim1-negative", dual_cone([(-1,)], 1), (Fraction(-3, 2),), 7),
           ("y21", make_y21(), (1, Fraction(1, 3), Fraction(2, 3)), 12)]
    taken = collections.Counter()
    for k, (cone, _) in enumerate(random_cone_suite(seed=23, count=60, dims=(2, 3, 4, 5))):
        m_max = 6 if cone.dim <= 3 else 3
        for sign, name in ((1, "positive"), (-1, "negative"), (0, "zero")):
            for j in range(cone.dim):
                xi = _signed_xi(cone, sign, j)
                if (taken[cone.dim, sign] < 2 and xi is not None
                        and _scan_box(cone, xi, 3)[-1] <= 10 ** 5 and _row_axis(cone, xi, m_max) == j):
                    out.append(("random%02d-%s" % (k, name), cone, xi, m_max))
                    taken[cone.dim, sign] += 1
                    break
    return out


TABLE_CASES = _table_cases()
TABLE_IDS = [case[0] for case in TABLE_CASES]


def test_table_cases_cover_every_sign():
    # a partial row is cut by the sign of the coordinate of xi along the row
    signs = set()
    for _, cone, xi, m_max in TABLE_CASES:
        axis = _python_rows(cone, xi, m_max)[0]
        signs.add((cone.dim, (xi[axis] > 0) - (xi[axis] < 0)))
    assert signs >= {(1, 1), (1, -1)} | {(dim, s) for dim in (2, 3, 4) for s in (1, -1, 0)}
    assert {dim for dim, _ in signs} == {1, 2, 3, 4, 5}


@pytest.mark.parametrize("case, cone, xi, m_max", TABLE_CASES, ids=TABLE_IDS)
def test_python_table_matches_level_sums(case, cone, xi, m_max):
    assert _python_table_sums(cone, xi, m_max) == [_level_sums(cone, xi, m)
                                                   for m in range(1, m_max + 1)]
