"""Volume minimization: objective, Newton solver, and brute-force oracles."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from reebcone import (
    ExceedsSupportedSize,
    MaxIterations,
    NonConvergent,
    UnboundedSlice,
    delta,
    dual_cone,
    grid_search_oracle,
    minimize_volume,
    polytope_Q,
    rationality_probe,
    reeb_vector,
    volume_objective,
)
import reebcone.geometry as geometry
import reebcone.optimize as optimize
from reebcone import linalg
from reebcone.geometry import _simplex_sums, gorenstein_vector, simplices
from reebcone.optimize import (
    MAX_GRID_SAMPLES,
    _chart,
    _compositions,
    _embed,
    _project,
    _ray_average,
    _regularized_step,
)

from conftest import (
    FIXTURE_MAKERS,
    apply_unimodular,
    bundled_specs,
    fraction_chart,
    fraction_embed,
    fraction_full_objective,
    fraction_grid_oracle,
    fraction_positive_definite,
    fraction_volume_objective,
    mat_vec,
    random_box_cone_suite,
    random_cone_suite,
    random_interior_xi,
    unimodular_matrix,
)


def objective_cases():
    """(cone, xi) on the bundled specs (their xi and three random interior
    points each) and on the dims 3-5 random suite of seed 11."""
    rng = random.Random(5)
    cases = []
    for spec in bundled_specs():
        cone = dual_cone(spec.rays, spec.dim)
        cases += [(cone, spec.xi)] + [(cone, random_interior_xi(cone, rng)) for _ in range(3)]
    return cases + random_cone_suite(seed=11, count=60, dims=(3, 4, 5))


class TestVolumeObjective:
    """The float objective against ``fraction_volume_objective``, the exact
    per-simplex objective of conftest, which closed forms and the slice kernel
    pin down."""

    def test_orthant2_closed_form(self, orthant2):
        # chart: xi = (s, 1 - s), objective 1/(s(1-s))
        value, grad, hess = fraction_volume_objective(orthant2, (Fraction(1, 2),))
        assert value == 4
        assert grad == (0,)
        assert hess == ((32,),)
        assert volume_objective(orthant2, (0.5,)) == (4.0, (0.0,), ((32.0,),))
        value, grad, _ = fraction_volume_objective(orthant2, (Fraction(1, 4),))
        assert value == Fraction(16, 3)
        assert grad == (Fraction(-128, 9),)

    def test_a1_closed_form(self, a1):
        # chart: xi = (1, y), objective 2/(y(2-y))
        for y in (Fraction(1), Fraction(1, 2), Fraction(5, 4)):
            value, _, _ = fraction_volume_objective(a1, (y,))
            assert value == 2 / (y * (2 - y))

    def test_conifold_closed_form(self, conifold):
        # chart: xi = (1, x, y), objective 1/(2x(1-x)y(1-y))
        x, y = Fraction(1, 2), Fraction(1, 2)
        value, grad, _ = fraction_volume_objective(conifold, (x, y))
        assert value == 8
        assert grad == (0, 0)
        x, y = Fraction(1, 3), Fraction(1, 4)
        value, _, _ = fraction_volume_objective(conifold, (x, y))
        assert value == 1 / (2 * x * (1 - x) * y * (1 - y))

    def test_oracle_matches_slice_kernel(self):
        # a0 = n vol(Q_xi) and its gradient -n a0 bary_P, exactly
        for cone, xi in objective_cases():
            value, grad, _ = fraction_full_objective(cone, xi)
            q = polytope_Q(cone, xi)
            a0 = cone.dim * q.volume_Q
            assert value == a0
            assert grad == tuple(-cone.dim * a0 * b for b in q.bary_P)

    def test_kernel_matches_oracle(self):
        # the slice kernel on Fraction pairings: (n-1)! a0 = T, gradient -M and
        # Hessian H, exactly
        for cone, xi in objective_cases():
            xi = tuple(map(Fraction, xi))
            pairings = {u: linalg.dot(xi, u) for u in cone.dual_rays}
            total, moment, big, hess = _simplex_sums(simplices(cone), pairings,
                                                     coords={u: u for u in cone.dual_rays})
            norm = math.factorial(cone.dim - 1)
            assert big == 1
            assert (total / norm, tuple(-m / norm for m in moment),
                    tuple(tuple(h / norm for h in row) for row in hess)) == fraction_full_objective(cone, xi)

    def test_kernel_hessian_positive_definite(self, conifold, y21):
        # the minimizer is unique because a0 is strictly convex on the slice:
        # the kernel's exact chart Hessian at random rational slice points
        rng = random.Random(3)
        for cone in (conifold, y21):
            for _ in range(60):
                xi = _ray_average(cone, [rng.randint(1, 12) for _ in cone.rays])
                pairings = {u: linalg.dot(xi, u) for u in cone.dual_rays}
                _, moment, _, hess = _simplex_sums(simplices(cone), pairings,
                                                   coords={u: u for u in cone.dual_rays})
                _, chart_hess = fraction_chart(cone, [-m for m in moment], hess)
                assert fraction_positive_definite(chart_hess)

    def test_float_mode_matches_exact(self):
        # the float objective against the Fraction oracle, to 1e-12 relative;
        # the chart's coordinates E^T u cancel, so gradient and Hessian entries
        # are compared at the scale of the full-coordinate ones times the
        # chart's stretch 1 + max |l_free / l_pivot|
        for cone, xi in objective_cases():
            l = gorenstein_vector(cone).l
            scale = linalg.dot(xi, l)
            coords = _project(cone, tuple(x / scale for x in xi))
            exact = tuple(map(Fraction, coords))
            value, grad, hess = volume_objective(cone, coords)
            want_value, want_grad, want_hess = fraction_volume_objective(cone, exact)
            _, full_grad, full_hess = fraction_full_objective(cone, fraction_embed(cone, exact))
            _, pivot, free = _chart(cone)[:3]
            stretch = 1 + max(abs(l[j] / l[pivot]) for j in free)
            grad_scale = stretch * max(abs(g) for g in full_grad)
            hess_scale = stretch**2 * max(abs(h) for row in full_hess for h in row)
            assert abs(value - want_value) <= 1e-12 * want_value
            for got, want in zip(grad, want_grad):
                assert abs(got - want) <= 1e-12 * grad_scale
            for got_row, want_row in zip(hess, want_hess):
                for got, want in zip(got_row, want_row):
                    assert abs(got - want) <= 1e-12 * hess_scale

    def test_left_cone(self, orthant2, conifold):
        with pytest.raises(UnboundedSlice):
            volume_objective(orthant2, (2.0,))
        with pytest.raises(UnboundedSlice):
            volume_objective(conifold, (1.5, 0.5))
        # inside, but a product of pairings underflows to 0.0
        with pytest.raises(UnboundedSlice, match="too near the boundary"):
            volume_objective(conifold, (5e-324, 0.5))

    def test_chart_roundtrip(self, y21):
        coords = (1 / 3, 2 / 3)
        xi = _embed(y21, coords)
        assert xi[0] == 1.0  # pivot coordinate fixed by <xi, l> = 1
        assert _project(y21, xi) == coords
        with pytest.raises(ValueError):
            _embed(y21, (1 / 3,))


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
        # PSD diag(c, 0) with the gradient on its kernel: the step is exactly
        # -grad / lam, which shows that the first shift is 2^-52 c, the
        # rounding of the Hessian's largest diagonal entry
        for c in (1.0, 2.0**100, 2.0**-100):
            step = _regularized_step(((c, 0.0), (0.0, 0.0)), (0.0, 1.0))
            assert step == (0.0, -1.0 / (c * 2.0**-52))

    def test_shift_grows_tenfold(self):
        # diag(1, -4 * 2^-52) fails at the first shift and factors at the
        # second, 10 * 2^-52, which leaves 6 * 2^-52 on the kernel-side pivot
        step = _regularized_step(((1.0, 0.0), (0.0, -4 * 2.0**-52)), (0.0, 1.0))
        assert step == (0.0, pytest.approx(-(2.0**52) / 6, rel=1e-12))

    @pytest.mark.parametrize("c", [2.0**100, 2.0**-100])
    def test_step_is_invariant_under_scaling(self, c):
        # PSD with kernel (1, -1) and the gradient in it: the shift must
        # follow the Hessian's scale for the step to be unchanged
        hess, grad = ((1.0, 1.0), (1.0, 1.0)), (1.0, -1.0)
        scaled = _regularized_step(
            tuple(tuple(c * h for h in row) for row in hess), tuple(c * g for g in grad)
        )
        assert scaled == _regularized_step(hess, grad)

    def test_indefinite_hessian_raises(self):
        for c in (1.0, 2.0**100, 2.0**-100, 0.0, math.inf, math.nan, 1e-310):
            with pytest.raises(NonConvergent, match="not positive definite"):
                _regularized_step(((c, 0.0), (0.0, -c)), (1.0, 1.0))


class TestMinimize:
    @pytest.mark.parametrize("spec", bundled_specs(), ids=lambda spec: spec.name)
    def test_xi_star_keeps_the_floats_found(self, spec):
        # the floats of the last iterate, equal to the mpfs reeb_vector makes of them
        # and, like it, normalized
        cone = dual_cone(spec.rays, spec.dim)
        xi_star = minimize_volume(cone).xi_star
        assert type(xi_star.xi) is tuple and {type(x) for x in xi_star.xi} == {float}
        assert xi_star.normalized is True
        assert xi_star == reeb_vector(cone, xi_star.xi)

    def test_orthant2(self, orthant2):
        res = minimize_volume(orthant2)
        assert res.xi_star.xi == (0.5, 0.5)
        assert res.vol_star == 4.0
        assert res.iterations == 1
        assert res.gradient_norm == 0.0
        assert res.margin == 0.5
        assert res.kss_residual <= 1e-12
        assert res.rational_candidate is None
        assert minimize_volume(dual_cone([(1,)], 1)).iterations == 0  # an empty chart takes no step

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

    def test_margin_is_the_least_pairing(self, y21):
        # xi* of y21 pairs unequally with its dual rays: margin is the smallest pairing
        res = minimize_volume(y21)
        xs = tuple(float(x) for x in res.xi_star.xi)
        pairings = [float(linalg.dot(xs, u)) for u in y21.dual_rays]
        assert max(pairings) - min(pairings) > 0.1
        assert res.margin == min(pairings)

    def test_stops_at_a_rounding_residual(self, y21):
        # the decrement test at tol = 1e-10 takes the step that leaves bar_P = l
        # to rounding: 2.2e-17 on y21, where a test at 1e-4 leaves 2.4e-10
        assert minimize_volume(y21).kss_residual <= 2.0 ** -40

    def test_start_override(self, conifold):
        # any interior start is rescaled onto the slice and converges
        res = minimize_volume(conifold, start=(4, Fraction(1, 5), 2))
        assert res.xi_star.xi == (
            pytest.approx(1.0, abs=1e-12),
            pytest.approx(0.5, abs=1e-12),
            pytest.approx(0.5, abs=1e-12),
        )

    def test_one_slice_pass_with_a_start(self, monkeypatch, conifold):
        # the start is wrapped from its pairings; only the tail at xi* sums the slice
        calls, slice_sums = [], geometry._slice_sums

        def counting(*args):
            calls.append(args)
            return slice_sums(*args)

        monkeypatch.setattr(geometry, "_slice_sums", counting)
        monkeypatch.setattr(optimize, "_slice_sums", counting)
        minimize_volume(conifold, start=(4, Fraction(1, 5), 2))
        assert len(calls) == 1

    def test_kss_residual_at_rounding_residue(self):
        # the barycenter of the minimizer is taken in mpf; on this cone an
        # mpf elimination over the scaled vertices pivoted on rounding residue
        cone = dual_cone([(1, -2, 4, -1), (7, -5, -14, -7), (1, -2, 4, 2),
                          (4, -2, -11, -4), (4, -2, -11, -1)], 4)
        res = minimize_volume(cone)
        assert res.kss_residual <= 1e-9

    @pytest.mark.parametrize("big", [10**8, 10**15])
    @pytest.mark.parametrize("dim", [3, 5])
    def test_elongated_cones(self, dim, big):
        # one or two rays stretched by N: the chart gradient of a0 at xi* grows
        # with N, while the Newton decrement of log a0 is affine-invariant
        rays = {
            3: [(1, 0, 0), (1, big, 0), (1, 0, 1)],
            5: [(1, 0, 0, 0, 0), (1, big, 0, 0, 0), (1, 0, 1, 0, 0), (1, 0, 0, 1, 0),
                (1, 0, 0, 0, 1), (1, big, 1, 1, 1)],
        }[dim]
        cone = dual_cone(rays, dim)
        res = minimize_volume(cone)
        assert res.kss_residual <= 1e-12
        assert abs(float(delta(cone, res.xi_star.xi).delta) - 1) <= 1e-12

    def test_every_trial_off_the_cone_is_non_convergent(self, monkeypatch, y21):
        # the start passes, and every damped step is read as leaving the Reeb
        # cone: the step is halved until it falls below _MIN_STEP_SCALE, which
        # from a first scale 1 / (1 + decrement) in (0, 1] takes at least 60 trials
        calls = []
        objective = optimize.volume_objective

        def off_the_cone(cone, x):
            calls.append(x)
            if len(calls) > 1:
                raise UnboundedSlice("xi is not interior to sigma")
            return objective(cone, x)

        monkeypatch.setattr(optimize, "volume_objective", off_the_cone)
        with pytest.raises(NonConvergent, match="damped Newton step left the Reeb cone"):
            minimize_volume(y21)
        assert len(calls) - 1 >= 60

    def test_start_near_the_boundary(self):
        # weights 1e-11 on two rays of a simplicial cone put the start next to
        # two facets; the minimizer is the ray barycentre, where bar_P = l
        rays = [(5, -3, -3, 2, 2), (14, -6, -9, 8, 2), (5, -3, -3, 5, 2), (5, -3, -3, 2, 5),
                (5, 0, -3, 2, 2)]
        cone = dual_cone(rays, 5)
        weights = (1, 5, 1e-4, 1e-11, 1e-11)
        start = tuple(sum(w * v[a] for w, v in zip(weights, rays)) for a in range(5))
        res = minimize_volume(cone, start=start)
        centre = _ray_average(cone, [1] * len(rays))
        assert max(abs(float(x) - float(c)) for x, c in zip(res.xi_star.xi, centre)) <= 1e-13
        assert res.kss_residual <= 1e-12

    def test_max_iterations(self, y21):
        with pytest.raises(MaxIterations):
            minimize_volume(y21, max_iter=1)

    @pytest.mark.parametrize("kwargs", [{"tol": 0.0}, {"tol": -1.0}, {"tol": math.nan}, {"tol": math.inf},
                                        {"max_iter": 0}, {"max_iter": 2.5},
                                        {"probe_rational": 0, "max_iter": 1},
                                        {"probe_rational": 2.5, "max_iter": 1}],
                             ids=["tol-0", "tol-negative", "tol-nan", "tol-inf", "max-iter-0",
                                  "max-iter-float", "probe-rational-0", "probe-rational-float"])
    def test_nonpositive_settings(self, y21, kwargs):
        with pytest.raises(ValueError, match="must be"):
            minimize_volume(y21, **kwargs)

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
            value, _, _ = fraction_volume_objective(y21, (px, py))
            expected = F.subs({x: sympy.Rational(px), y: sympy.Rational(py)})
            assert expected.is_Rational
            assert value == Fraction(int(expected.p), int(expected.q))
            float_value, _, _ = volume_objective(y21, (float(px), float(py)))
            assert float_value == pytest.approx(float(value), rel=1e-12)

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
        assert res.iterations == 6
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
    assert abs(Fraction(res.vol_star) - exact) <= Fraction(1e-15) * exact
    resolution = {4: 6, 5: 3, 6: 2}[n]
    grid = grid_search_oracle(cone, resolution)
    assert float(grid.value) >= res.vol_star - 1e-12


@pytest.mark.parametrize("dims,count", [((3, 4, 5), 60), ((6, 7, 8), 30)], ids=["dims3-5", "dims6-8"])
def test_minimize_random_suite(dims, count):
    # every cone converges from its default start to a point where bar_P = l,
    # i.e. delta = 1; tests/golden/newton_suite.json pins the same minimizers
    for cone, _ in random_cone_suite(seed=11, count=count, dims=dims):
        res = minimize_volume(cone)
        assert res.kss_residual <= 1e-9
        assert abs(float(delta(cone, res.xi_star.xi).delta) - 1) <= 1e-9


def test_minimize_random_suite_against_oracles():
    # the oracles of test_minimize_cubes on random cones of dims 4-5: the grid
    # never beats Newton, and vol* is the exact a0 at the float xi*
    for cone, _ in random_cone_suite(seed=11, count=20, dims=(4, 5)):
        res = minimize_volume(cone)
        xi_star = tuple(Fraction(float(x)) for x in res.xi_star.xi)
        exact = cone.dim * polytope_Q(cone, xi_star).volume_Q
        assert abs(res.vol_star - exact) <= 1e-12 * exact
        d = len(cone.rays)
        resolution = max(r for r in range(1, 40) if math.comb(r + d - 1, d - 1) <= 1000)
        grid = grid_search_oracle(cone, resolution)
        assert grid.samples <= MAX_GRID_SAMPLES
        assert float(grid.value) >= res.vol_star - 1e-12


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

    @pytest.mark.parametrize("resolution", [12.0, Fraction(12), "12", 0, -3],
                             ids=["float", "fraction", "str", "zero", "negative"])
    def test_resolution_must_be_a_positive_integer(self, monkeypatch, conifold, resolution):
        monkeypatch.setattr(optimize, "simplices", None)  # refused before any work
        with pytest.raises(ValueError, match="resolution must be a positive integer"):
            grid_search_oracle(conifold, resolution)

    @pytest.mark.parametrize("resolution", [5, 7, 12])
    @pytest.mark.parametrize("name", sorted(FIXTURE_MAKERS))
    def test_matches_fraction_oracle_on_specs(self, name, resolution):
        cone = FIXTURE_MAKERS[name]()
        assert grid_search_oracle(cone, resolution) == fraction_grid_oracle(cone, resolution)

    def test_matches_fraction_oracle_on_random_suites(self):
        cones = [cone for cone, _ in random_cone_suite(seed=11, count=25, dims=(3, 4, 5))]
        cones += [cone for cone, _, _ in random_box_cone_suite(seed=7, count=10, dims=(3, 4))]
        for cone in cones:
            d = len(cone.rays)
            resolution = max(r for r in range(1, 40) if math.comb(r + d - 1, d - 1) <= 1000)
            assert grid_search_oracle(cone, resolution) == fraction_grid_oracle(cone, resolution)

    @pytest.mark.parametrize("resolution, xi", [(5, (Fraction(2, 5), Fraction(3, 5))),
                                                (7, (Fraction(3, 7), Fraction(4, 7)))])
    def test_first_of_tied_minima(self, orthant2, resolution, xi):
        # the weights (2, 3) and (3, 2) tie at resolution 5, (3, 4) and (4, 3) at 7;
        # the first in lexicographic order wins
        res = grid_search_oracle(orthant2, resolution)
        assert res.xi == xi
        assert res.value == 1 / (xi[0] * xi[1])  # a0 = 2 vol(Q_xi) = 1 / (xi_1 xi_2)

    @pytest.mark.parametrize("name", sorted(FIXTURE_MAKERS))
    def test_one_slice_valuation_per_call(self, monkeypatch, name):
        # the samples rank by the volume kernel alone, one pass per interior sample
        # and no moment summed; polytope_Q values the winner only
        cone, resolution = FIXTURE_MAKERS[name](), 7
        counts = dict.fromkeys(("polytope_Q", "_volume_sums", "_simplex_sums"), 0)

        def spy(key, fn):
            def counting(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return counting

        for key in counts:
            monkeypatch.setattr(optimize, key, spy(key, getattr(optimize, key)))
        grid_search_oracle(cone, resolution)
        interior = sum(all(linalg.dot(_ray_average(cone, w), u) > 0 for u in cone.dual_rays)
                       for w in _compositions(resolution, len(cone.rays)))
        assert counts == {"polytope_Q": 1, "_volume_sums": interior, "_simplex_sums": 0}

    def test_compositions_in_lexicographic_order(self):
        # the grid's first minimum, and so its GridResult, depends on this order
        for total, parts in itertools.product(range(7), range(1, 5)):
            expected = sorted(w for w in itertools.product(range(total + 1), repeat=parts)
                              if sum(w) == total)
            assert list(_compositions(total, parts)) == expected


class TestProbes:
    def test_rationality_probe_exact(self):
        cand = rationality_probe((0.5, 0.5), 10)
        assert cand.vector == (Fraction(1, 2), Fraction(1, 2))
        assert cand.distance == 0.0
        assert cand.max_denominator == 10

    @pytest.mark.parametrize("max_denominator", [2.5, 10.0, 0],
                             ids=["float", "integral-float", "zero"])
    def test_rationality_probe_refuses_non_integers(self, max_denominator):
        with pytest.raises(ValueError, match="max_denominator must be a positive integer"):
            rationality_probe((0.5, 0.5), max_denominator)
