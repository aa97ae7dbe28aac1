"""Volume minimization: objective, Newton solver, and brute-force oracles."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from reebcone import (
    ExceedsSupportedSize,
    LeftReebCone,
    MaxIterations,
    NonConvergent,
    convexity_probe,
    delta,
    dual_cone,
    grid_search_oracle,
    minimize_volume,
    polytope_Q,
    rationality_probe,
    volume_objective,
)
from reebcone.linalg import mat_vec
from reebcone.optimize import _embed, _project, _regularized_step

from conftest import apply_unimodular, random_cone_suite, unimodular_matrix


class TestVolumeObjective:
    def test_orthant2_closed_form(self, orthant2):
        # chart: xi = (s, 1 - s), objective 1/(s(1-s))
        value, grad, hess = volume_objective(orthant2, (Fraction(1, 2),))
        assert value == 4
        assert grad == (0,)
        assert hess == ((32,),)
        value, grad, _ = volume_objective(orthant2, (Fraction(1, 4),))
        assert value == Fraction(16, 3)
        assert grad == (Fraction(-128, 9),)

    def test_a1_closed_form(self, a1):
        # chart: xi = (1, y), objective 2/(y(2-y))
        for y in (Fraction(1), Fraction(1, 2), Fraction(5, 4)):
            value, _, _ = volume_objective(a1, (y,))
            assert value == 2 / (y * (2 - y))

    def test_conifold_closed_form(self, conifold):
        # chart: xi = (1, x, y), objective 1/(2x(1-x)y(1-y))
        x, y = Fraction(1, 2), Fraction(1, 2)
        value, grad, _ = volume_objective(conifold, (x, y))
        assert value == 8
        assert grad == (0, 0)
        x, y = Fraction(1, 3), Fraction(1, 4)
        value, _, _ = volume_objective(conifold, (x, y))
        assert value == 1 / (2 * x * (1 - x) * y * (1 - y))

    def test_float_mode_matches_exact(self, conifold):
        ve, ge, he = volume_objective(conifold, (Fraction(2, 5), Fraction(3, 5)))
        vf, gf, hf = volume_objective(conifold, (0.4, 0.6))
        assert math.isclose(float(ve), vf, rel_tol=1e-12)
        for a, b in zip(ge, gf):
            assert math.isclose(float(a), b, rel_tol=1e-12)
        for ra, rb in zip(he, hf):
            for a, b in zip(ra, rb):
                assert math.isclose(float(a), b, rel_tol=1e-12)

    def test_left_cone(self, orthant2, conifold):
        with pytest.raises(LeftReebCone):
            volume_objective(orthant2, (Fraction(2),))
        with pytest.raises(LeftReebCone):
            volume_objective(conifold, (Fraction(3, 2), Fraction(1, 2)))

    def test_chart_roundtrip(self, y21):
        coords = (Fraction(1, 3), Fraction(2, 3))
        xi = _embed(y21, coords)
        assert xi[0] == 1  # pivot coordinate fixed by <xi, l> = 1
        assert _project(y21, xi) == coords
        with pytest.raises(ValueError):
            _embed(y21, (Fraction(1, 3),))


class TestRegularizedStep:
    """The pure-Python Cholesky solve, against numpy as an oracle."""

    def test_matches_numpy_solve(self):
        np = pytest.importorskip("numpy")
        rng = np.random.default_rng(4)
        for m in range(1, 8):
            for _ in range(20):
                b = rng.standard_normal((m, m))
                hess = b @ b.T + 0.1 * np.eye(m)
                grad = rng.standard_normal(m)
                step = _regularized_step(
                    tuple(map(tuple, hess.tolist())), tuple(grad.tolist())
                )
                expected = np.linalg.solve(hess, -grad)
                assert isinstance(step, tuple) and len(step) == m
                err = np.max(np.abs(np.array(step) - expected))
                assert err <= 1e-12 * np.max(np.abs(expected))

    def test_singular_hessian_is_regularized(self):
        # PSD with kernel (1, -1); the gradient lies in the kernel, so the
        # step is -grad / lam, which shows the first lam > 0 was taken
        step = _regularized_step(((1.0, 1.0), (1.0, 1.0)), (1.0, -1.0))
        assert step == (pytest.approx(-1e12, rel=1e-3), pytest.approx(1e12, rel=1e-3))

    def test_indefinite_hessian_raises(self):
        with pytest.raises(NonConvergent, match="not positive definite"):
            _regularized_step(((1.0, 0.0), (0.0, -1.0)), (1.0, 1.0))


class TestMinimize:
    def test_orthant2(self, orthant2):
        res = minimize_volume(orthant2)
        assert res.xi_star.xi == (0.5, 0.5)
        assert res.vol_star == 4.0
        assert res.iterations == 1
        assert res.gradient_norm == 0.0
        assert res.margin == 0.5
        assert res.kss_residual <= 1e-12
        assert res.rational_candidate is None

    def test_orthant3(self, orthant3):
        res = minimize_volume(orthant3)
        assert res.xi_star.xi == (
            pytest.approx(1 / 3, abs=1e-14),
            pytest.approx(1 / 3, abs=1e-14),
            pytest.approx(1 / 3, abs=1e-14),
        )
        assert res.vol_star == pytest.approx(13.5, rel=1e-14)

    def test_a1(self, a1):
        res = minimize_volume(a1)
        assert res.xi_star.xi == (1.0, 1.0)
        assert res.vol_star == 2.0

    def test_conifold(self, conifold):
        res = minimize_volume(conifold)
        assert res.xi_star.xi == (1.0, 0.5, 0.5)
        assert res.vol_star == 8.0
        assert res.kss_residual == 0.0
        assert res.margin == 0.5

    def test_start_override(self, conifold):
        # any interior start is rescaled onto the slice and converges
        res = minimize_volume(conifold, start=(4, Fraction(1, 5), 2))
        assert res.xi_star.xi == (
            pytest.approx(1.0, abs=1e-12),
            pytest.approx(0.5, abs=1e-12),
            pytest.approx(0.5, abs=1e-12),
        )

    def test_kss_residual_at_rounding_residue(self):
        # the barycenter of the minimizer is taken in mpf; on this cone an
        # mpf elimination over the scaled vertices pivoted on rounding residue
        cone = dual_cone([(1, -2, 4, -1), (7, -5, -14, -7), (1, -2, 4, 2),
                          (4, -2, -11, -4), (4, -2, -11, -1)], 4)
        res = minimize_volume(cone)
        assert res.kss_residual <= 1e-9

    def test_max_iterations(self, y21):
        with pytest.raises(MaxIterations):
            minimize_volume(y21, max_iter=1)

    def test_determinism(self, y21):
        a = minimize_volume(y21, probe_rational=100)
        b = minimize_volume(y21, probe_rational=100)
        assert a.xi_star.xi == b.xi_star.xi
        assert a.vol_star == b.vol_star
        assert a.gradient_norm == b.gradient_norm
        assert a.rational_candidate == b.rational_candidate


@pytest.fixture(scope="module")
def symbolic():
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y", positive=True)
    # triangulated volume of the dual cone with rays (0,0,1), (0,1,0),
    # (2,-2,1), (2,1,-2) in the chart xi = (1, x, y)
    F = 1 / (x * y * (2 + x - 2 * y)) + 3 / (
        y * (2 + x - 2 * y) * (2 - 2 * x + y)
    )
    return sympy, x, y, F


class TestY21Irrational:
    """Independent symbolic oracle for the irrational minimizer."""

    def test_hand_formula_matches_engine(self, y21, symbolic):
        sympy, x, y, F = symbolic
        assert set(y21.dual_rays) == {
            (0, 0, 1),
            (0, 1, 0),
            (2, -2, 1),
            (2, 1, -2),
        }
        for px, py in ((Fraction(1, 3), Fraction(2, 3)), (Fraction(1, 2), Fraction(1, 2))):
            value, _, _ = volume_objective(y21, (px, py))
            expected = F.subs({x: sympy.Rational(px), y: sympy.Rational(py)})
            assert expected.is_Rational
            assert value == Fraction(int(expected.p), int(expected.q))

    def test_minimizer_is_irrational(self, y21, symbolic):
        sympy, x, y, F = symbolic
        # clear denominators first: in the interior all three linear
        # forms are positive, so stationarity is the numerator system
        grad_numerators = [
            sympy.numer(sympy.together(sympy.diff(F, var))) for var in (x, y)
        ]
        solutions = sympy.solve(grad_numerators, [x, y], dict=True)
        interior = [
            s
            for s in solutions
            if all(
                expr.subs(s) > 0
                for expr in (x, y, 2 + x - 2 * y, 2 - 2 * x + y)
            )
        ]
        assert len(interior) == 1
        sol = interior[0]
        star = (sympy.sqrt(13) - 1) / 3
        assert sympy.simplify(sol[x] - star) == 0
        assert sympy.simplify(sol[y] - star) == 0
        z = sympy.Symbol("z")
        poly = sympy.minimal_polynomial(sol[x], z)
        assert poly == 3 * z**2 + 2 * z - 4
        assert sympy.degree(poly, z) >= 2  # not rational

        res = minimize_volume(y21, probe_rational=100)
        xs = float(star)
        assert res.xi_star.xi[0] == pytest.approx(1.0, abs=1e-14)
        assert res.xi_star.xi[1] == pytest.approx(xs, abs=1e-12)
        assert res.xi_star.xi[2] == pytest.approx(xs, abs=1e-12)
        vol_exact = float(sympy.nsimplify(F.subs(sol)))
        assert res.vol_star == pytest.approx(vol_exact, rel=1e-12)
        assert res.vol_star == pytest.approx(23 / 12 + 13 * math.sqrt(13) / 24, rel=1e-12)
        # no nearby small-denominator rational point
        cand = res.rational_candidate
        assert cand.max_denominator == 100
        assert 0 < cand.distance < 1e-3
        assert res.iterations == 5
        assert res.margin == pytest.approx(xs, abs=1e-12)


def scrambled_cube(n):
    """Cone over the unit (n-1)-cube at height one, in a scrambled basis.

    Returns the cone, the basis change, and an off-centre interior start.
    """
    rays = [(1,) + e for e in itertools.product((0, 1), repeat=n - 1)]
    mat = unimodular_matrix(random.Random(n), n)
    cone = apply_unimodular(dual_cone(rays, n), mat)
    weights = [1 + i % 3 for i in range(len(rays))]
    start = tuple(sum(w * v[a] for w, v in zip(weights, rays)) for a in range(n))
    return cone, mat, tuple(mat_vec(mat, start))


@pytest.mark.parametrize("n", [4, 5, 6])
def test_minimize_cubes(n):
    cone, mat, start = scrambled_cube(n)
    res = minimize_volume(cone, start=start)
    assert res.iterations > 1
    assert res.kss_residual <= 1e-9
    assert abs(float(delta(cone, res.xi_star.xi).delta) - 1) <= 1e-9
    # the cube's symmetry puts the minimizer at its centre (1, 1/2, ..., 1/2)
    centre = tuple(mat_vec(mat, (Fraction(1),) + (Fraction(1, 2),) * (n - 1)))
    for got, want in zip(res.xi_star.xi, centre):
        assert float(got) == pytest.approx(float(want), abs=1e-9)
    exact = n * polytope_Q(cone, centre).volume_Q
    assert res.vol_star == pytest.approx(float(exact), rel=1e-12)
    resolution = {4: 6, 5: 3, 6: 2}[n]
    grid = grid_search_oracle(cone, resolution)
    assert float(grid.value) >= res.vol_star - 1e-12


@pytest.mark.parametrize("dims,count", [((3, 4, 5), 60), ((6, 7, 8), 30)], ids=["dims3-5", "dims6-8"])
def test_minimize_random_suite(dims, count):
    # near the minimum the Armijo test alone rejected good Newton steps, and
    # these suites stalled in MaxIterations on 4 and 6 cones
    for cone, _ in random_cone_suite(seed=11, count=count, dims=dims):
        res = minimize_volume(cone)
        assert res.kss_residual <= 1e-9
        assert abs(float(delta(cone, res.xi_star.xi).delta) - 1) <= 1e-9


class TestGridOracle:
    def test_orthant2_exact_hit(self, orthant2):
        res = grid_search_oracle(orthant2, 100)
        assert res.xi == (Fraction(1, 2), Fraction(1, 2))
        assert res.value == 4
        assert res.samples == 101

    def test_conifold(self, conifold):
        res = grid_search_oracle(conifold, 12)
        assert res.xi == (1, Fraction(1, 2), Fraction(1, 2))
        assert res.value == 8
        assert res.samples == 455

    def test_grid_never_beats_newton(self, y21):
        grid = grid_search_oracle(y21, 14)
        newton = minimize_volume(y21)
        assert float(grid.value) >= newton.vol_star - 1e-12

    def test_size_guard(self, orthant3):
        with pytest.raises(ExceedsSupportedSize):
            grid_search_oracle(orthant3, 200)


class TestProbes:
    def test_rationality_probe_exact(self):
        cand = rationality_probe((0.5, 0.5), 10)
        assert cand.vector == (Fraction(1, 2), Fraction(1, 2))
        assert cand.distance == 0.0
        assert cand.max_denominator == 10

    def test_convexity_probe_clean(self, conifold, y21):
        assert convexity_probe(conifold, pairs=60, seed=3) == 0
        assert convexity_probe(y21, pairs=60, seed=3) == 0
