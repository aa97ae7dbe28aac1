"""Stability invariants: log discrepancies, S-values, delta, Futaki."""

import functools
import random
from fractions import Fraction

import mpmath
import pytest

import reebcone.characters
import reebcone.geometry as geometry
import reebcone.linalg as linalg
import reebcone.optimize as optimize
from reebcone import (
    DimensionMismatch,
    ExceedsSupportedSize,
    NotQGorenstein,
    UnboundedSlice,
    decompose_dual,
    delta,
    dual_cone,
    futaki_pairing,
    futaki_product,
    gorenstein_vector,
    index_character,
    log_discrepancy,
    reeb_vector,
    minimize_volume,
    polytope_Q,
    ratio_profile,
    s_m_oracle,
    s_prime,
    s_value,
    toric_valuation,
    weight_character,
)
from reebcone.characters import MAX_BOX_POINTS
from reebcone.config import mp_context, ratio_type
from reebcone.geometry import LaurentSeries, futaki_coefficients, reeb_numerators, simplices
from conftest import (
    bundled_specs,
    clear_caches,
    faces_futaki_coefficients,
    is_q_gorenstein,
    make_kgon,
    many_simplex_suite,
    minor_futaki_coefficients,
    polytope_ratio_profile,
    polytope_s_prime,
    polytope_s_value,
    random_box_cone_suite,
    random_cone_suite,
    random_interior_xi,
    rescaled_delta,
    reverse_bary_P,
    series_rtol,
    to_mpf,
)


def leading_coefficients(cone, xi, eta):
    """(a0, a1, b0, b1) of the closed-form characters of ``futaki_coefficients``."""
    F, C = futaki_coefficients(cone, xi, eta)
    return F.a0, F.a1, C.b0, C.b1


class TestToricValuation:
    def test_validation(self, conifold):
        with pytest.raises(ValueError):
            toric_valuation(conifold, (0, 0, 0))
        with pytest.raises(ValueError):
            toric_valuation(conifold, (0, 1, 0))  # outside sigma
        with pytest.raises(ValueError):
            toric_valuation(conifold, (1, 0))

    def test_interior_flag(self, conifold):
        assert not toric_valuation(conifold, (1, 0, 0)).interior
        assert toric_valuation(conifold, (1, Fraction(1, 2), Fraction(1, 2))).interior

    def test_valuation_of_another_cone_is_checked(self, conifold, orthant3):
        # (0, 0, 1) spans a ray of the orthant but lies outside the conifold's
        # cone, as a valuation or as a vector
        xi, foreign = (2, Fraction(1, 2), Fraction(1, 2)), toric_valuation(orthant3, (0, 0, 1))
        for call in (lambda v: s_value(conifold, xi, v), lambda v: s_prime(conifold, xi, v),
                     lambda v: s_m_oracle(conifold, xi, v, 2),
                     lambda v: ratio_profile(conifold, xi, v, [0]),
                     lambda v: toric_valuation(conifold, v)):
            for v in (foreign, foreign.v):
                with pytest.raises(ValueError, match="lies outside the cone"):
                    call(v)

    def test_valuation_is_rewrapped_for_its_cone(self, conifold, orthant3):
        # interior is decided on the cone at hand: (1, 1, 1) is interior to the
        # orthant, on the boundary of the conifold's cone
        own = toric_valuation(orthant3, (1, 1, 1))
        assert own.interior
        assert toric_valuation(conifold, own) == toric_valuation(conifold, (1, 1, 1))
        assert not toric_valuation(conifold, own).interior
        xi = (2, Fraction(1, 2), Fraction(1, 2))
        assert s_value(conifold, xi, own) == s_value(conifold, xi, (1, 1, 1))


class TestLogDiscrepancy:
    def test_worked_values(self, orthant2, a1):
        l2 = gorenstein_vector(orthant2)
        assert log_discrepancy(l2, toric_valuation(orthant2, (1, 0))) == 1
        assert log_discrepancy(l2, toric_valuation(orthant2, (2, 3))) == 5
        la = gorenstein_vector(a1)
        assert log_discrepancy(la, toric_valuation(a1, (1, 2))) == 1

    def test_translation_additivity(self, conifold):
        # A(v + t xi) = A(v) + t <xi, l>
        l = gorenstein_vector(conifold)
        xi = (1, Fraction(1, 2), Fraction(1, 2))
        v = (1, 1, 0)
        for t in (1, 2, Fraction(7, 3)):
            w = tuple(a + t * b for a, b in zip(v, xi))
            assert log_discrepancy(l, toric_valuation(conifold, w)) == (
                log_discrepancy(l, toric_valuation(conifold, v))
                + t * linalg.dot(xi, l.l)
            )


    def test_vector_or_valuation(self, conifold):
        # v is read as every other vector argument, a ToricValuation's too
        l = gorenstein_vector(conifold)
        for v in ((1, 0, 0), (2, 1, 1), (Fraction(1, 2), 0.25, 0)):
            assert log_discrepancy(l, v) == linalg.dot(tuple(map(Fraction, v)), l.l)
            assert log_discrepancy(l, v) == log_discrepancy(l, toric_valuation(conifold, v))
        with pytest.raises(DimensionMismatch):
            log_discrepancy(l, (1, 0))

    def test_wrong_type_is_a_value_error(self, conifold):
        l = gorenstein_vector(conifold)
        for call in (lambda: log_discrepancy(None, (1, 0, 0)),
                     lambda: log_discrepancy(l.l, (1, 0, 0)),
                     lambda: log_discrepancy(l, None)):
            with pytest.raises(ValueError):
                call()


class TestSValues:
    def test_worked_example(self, orthant2):
        xi = (Fraction(1, 2), Fraction(1, 2))
        assert s_value(orthant2, xi, (1, 0)) == Fraction(2, 3)
        assert s_prime(orthant2, xi, (1, 0)) == 1

    def test_scaling(self, conifold):
        xi = (1, Fraction(1, 2), Fraction(1, 3))
        v = (1, 1, 0)
        assert s_value(conifold, tuple(3 * x for x in xi), v) == (
            s_value(conifold, xi, v) / 3
        )
        # S' is invariant under rescaling of xi
        assert s_prime(conifold, tuple(3 * x for x in xi), v) == s_prime(
            conifold, xi, v
        )

    def test_s_prime_translation(self, orthant2):
        # S'((t xi) * v) = S'(v) + t A(xi) along the translation family
        xi = (Fraction(1, 2), Fraction(1, 2))
        l = gorenstein_vector(orthant2).l
        a_xi = linalg.dot(xi, l)
        v = (1, 0)
        for t in (1, 2):
            w = tuple(a + t * b for a, b in zip(v, xi))
            assert s_prime(orthant2, xi, w) == s_prime(orthant2, xi, v) + t * a_xi

    def test_matches_polytope_route(self):
        # one int ratio of the slice sums equals, value and type, the dot
        # products with the barycenter of polytope_Q at rational xi
        cases = [(dual_cone(spec.rays, spec.dim), spec.xi) for spec in bundled_specs()]
        cases += random_cone_suite(seed=11, count=40, dims=(2, 3, 4, 5))
        cases += random_cone_suite(seed=11, count=15, dims=(6, 7, 8))
        assert {cone.dim for cone, _ in cases} == set(range(2, 9))
        t_values = (0, 1, Fraction(7, 3), 0.5, 10 ** 6)
        for cone, xi in cases:
            inner = tuple(x / 3 + y for x, y in zip(xi, cone.rays[0]))  # v with a denominator
            for v in cone.rays + (inner,):
                got = [s_value(cone, xi, v), s_prime(cone, xi, v)]
                want = [polytope_s_value(cone, xi, v), polytope_s_prime(cone, xi, v)]
                for pair in ratio_profile(cone, xi, v, t_values):
                    got += pair
                for pair in polytope_ratio_profile(cone, xi, v, t_values):
                    want += pair
                assert got == want
                assert all(type(x) is Fraction for x in got)

    def test_not_q_gorenstein(self):
        # S needs no Gorenstein vector; S' and the profile raise without one
        cone = dual_cone([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, -1)], 3)
        assert not is_q_gorenstein(cone)
        ctx = mp_context()
        for xi in ((1, 1, 1), (2, Fraction(3, 2), 1)):
            xi_mp = tuple(to_mpf(x, ctx) for x in xi)
            for v in cone.rays:
                s = s_value(cone, xi, v)
                assert s > 0 and s == polytope_s_value(cone, xi, v)
                assert abs(s_value(cone, xi_mp, v) - to_mpf(s, ctx)) <= series_rtol() * s
                for x in (xi, xi_mp):
                    with pytest.raises(NotQGorenstein):
                        s_prime(cone, x, v)
                    with pytest.raises(NotQGorenstein):
                        ratio_profile(cone, x, v, [0])


class TestSmOracle:
    def test_orthant_exact_at_all_m(self, orthant2):
        for m in (1, 2, 3, 10, 25):
            assert s_m_oracle(orthant2, (1, 1), (1, 0), m) == Fraction(1, 3)

    def test_a1_values(self, a1):
        assert s_m_oracle(a1, (1, 1), (1, 0), 1) == Fraction(3, 4)
        assert s_m_oracle(a1, (1, 1), (1, 0), 2) == Fraction(13, 18)
        assert s_m_oracle(a1, (1, 1), (1, 0), 3) == Fraction(17, 24)

    def test_converges_to_s(self, conifold):
        xi = (1, Fraction(1, 2), Fraction(1, 2))
        v = (1, 1, 0)
        s = s_value(conifold, xi, v)
        gaps = [abs(s_m_oracle(conifold, xi, v, m) - s) for m in (4, 8, 16)]
        assert gaps[2] < gaps[0]
        assert gaps[2] <= Fraction(1, 16)  # C/m envelope with C = 1

    def test_m_validation(self, orthant2):
        with pytest.raises(ValueError):
            s_m_oracle(orthant2, (1, 1), (1, 0), 0)


class TestDelta:
    def test_orthant_symmetric(self, orthant2, orthant3):
        for xi in ((1, 1), (3, 3), (Fraction(1, 2), Fraction(1, 2))):
            rep = delta(orthant2, xi)
            assert rep.delta == 1 and rep.kss
        rep = delta(orthant3, (2, 2, 2))
        assert rep.delta == 1 and rep.kss
        assert rep.scale == 6

    def test_a1_worked(self, a1):
        rep = delta(a1, (1, 1))
        assert rep.delta == 1 and rep.kss
        assert rep.bary_P == (1, 0)
        rep = delta(a1, (1, Fraction(1, 2)))
        assert rep.delta == Fraction(1, 2)
        assert not rep.kss
        assert rep.bary_P == (Fraction(2, 3), Fraction(2, 3))
        assert rep.minimizing_rays == (1,)
        assert rep.delta_prime == Fraction(1, 2)

    def test_conifold(self, conifold):
        rep = delta(conifold, (1, Fraction(1, 2), Fraction(1, 2)))
        assert rep.delta == 1 and rep.kss
        assert rep.minimizing_rays == (0, 1, 2, 3)

    def test_delta_ceiling_random(self):
        for cone, xi in random_cone_suite(seed=31, count=30):
            rep = delta(cone, xi)
            assert rep.delta <= 1
            assert rep.kss == (rep.delta == 1)
            assert rep.kss == (tuple(rep.bary_P) == tuple(rep.gorenstein.l))

    def test_mpf_path_matches_exact(self):
        ctx, rtol = mp_context(), series_rtol()
        cases = [(dual_cone(spec.rays, spec.dim), spec.xi) for spec in bundled_specs()]
        cases += random_cone_suite(seed=53, count=40, dims=(2, 3, 4, 5))
        for cone, xi in cases:
            exact = delta(cone, xi)
            approx = delta(cone, tuple(to_mpf(x, ctx) for x in xi))
            assert approx.minimizing_rays == exact.minimizing_rays
            assert approx.kss == exact.kss
            # the mpf xi carries rounding, so scale agrees to the working precision
            for m, e in ((approx.delta, exact.delta), (approx.residual, exact.residual),
                         (approx.scale, exact.scale)):
                assert isinstance(m, ctx.mpf)
                e = to_mpf(e, ctx)
                assert abs(m - e) <= rtol * (1 + abs(e))

    def test_near_ties(self, orthant2):
        # rational ratios tie only when equal; at the working precision the
        # rays within RAY_TIE_RTOL * delta of the minimum tie
        xi = (1, 1 + Fraction(1, 10 ** 20))
        assert delta(orthant2, xi).minimizing_rays == (0,)
        xi_mp = tuple(to_mpf(x, mp_context()) for x in xi)
        assert xi_mp[1] != 1
        assert delta(orthant2, xi_mp).minimizing_rays == (0, 1)

    def test_near_ties_are_tight(self, orthant2):
        # at the working precision, ratios 2^-30 apart do not tie
        assert delta(orthant2, (1.0, 1.0 + 2**-30)).minimizing_rays == (0,)

    def test_kss_is_tight(self, orthant2):
        # a working-precision xi 1e-6 from the minimizer is not K-semistable
        assert delta(orthant2, (0.5, 0.5)).kss
        assert not delta(orthant2, (0.5 + 1e-6, 0.5)).kss

    def test_scale_invariance(self, y21):
        xi = (1, Fraction(1, 3), Fraction(2, 3))
        assert delta(y21, xi).delta == delta(y21, tuple(5 * x for x in xi)).delta

    def test_definitional_form_on_rays(self):
        # delta = (n/((n+1) A(xi))) min_i A(v_i)/S(v_i) for B = 0, with S from
        # the barycenter of polytope_Q rather than the sums delta reads
        for cone, xi in random_cone_suite(seed=67, count=10):
            rep = delta(cone, xi)
            l = rep.gorenstein.l
            n = cone.dim
            a_xi = linalg.dot(xi, l)
            ratios = [
                Fraction(n, n + 1) / a_xi * linalg.dot(v, l)
                / polytope_s_value(cone, xi, v)
                for v in cone.rays
            ]
            assert min(ratios) == rep.delta

    def test_boundary_vectors_never_beat_rays(self, conifold):
        # random points of the facets of sigma: A(v)/S'(v) >= delta
        rng = random.Random(17)
        xi = (1, Fraction(1, 3), Fraction(1, 2))
        rep = delta(conifold, xi)
        l = rep.gorenstein.l
        a_xi = linalg.dot(xi, l)
        facet_pairs = [(0, 1), (1, 2), (2, 3), (3, 0)]
        for _ in range(40):
            i, j = facet_pairs[rng.randrange(4)]
            a, b = rng.randint(1, 9), rng.randint(1, 9)
            v = tuple(
                a * x + b * y for x, y in zip(conifold.rays[i], conifold.rays[j])
            )
            ratio = linalg.dot(v, l) / s_prime(conifold, xi, v)
            assert ratio >= rep.delta

    def test_experimental_gate(self, a1):
        with pytest.raises(ValueError):
            delta(a1, (1, 1), boundary=(Fraction(1, 2), 0))
        rep = delta(a1, (1, 1), boundary=(Fraction(1, 2), 0), experimental=True)
        assert rep.gorenstein.l == (Fraction(1, 2), Fraction(1, 4))
        assert rep.delta == Fraction(2, 3)

    def test_not_q_gorenstein(self):
        cone = dual_cone([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, -1)], 3)
        with pytest.raises(NotQGorenstein):
            delta(cone, (1, 1, 1))

    def test_matches_rescaled_oracle(self, a1):
        # the homogeneity form gives every field of the route through xi / <xi, l>
        cases = [(dual_cone(spec.rays, spec.dim), spec.xi) for spec in bundled_specs()]
        cases += random_cone_suite(seed=11, count=40, dims=(2, 3, 4, 5))
        cases += random_cone_suite(seed=11, count=15, dims=(6, 7, 8))
        assert {cone.dim for cone, _ in cases} == set(range(2, 9))
        for cone, xi in cases:
            assert delta(cone, xi) == rescaled_delta(cone, xi)
        boundary = (Fraction(1, 2), 0)
        for xi in ((1, 1), (1, Fraction(2, 7))):
            rep = delta(a1, xi, boundary=boundary, experimental=True)
            assert rep == rescaled_delta(a1, xi, boundary=boundary)


class TestFutaki:
    def test_c2_worked(self, orthant2):
        pieces = decompose_dual(orthant2)
        F = index_character(pieces, (1, 1), order=2)
        C = weight_character(pieces, (1, 1), (1, 0), order=2)
        assert (F.a0, F.a1, C.b0, C.b1) == (1, 1, Fraction(1, 2), Fraction(1, 2))
        assert futaki_product(orthant2, (1, 1), (1, 0)) == 0

    def test_translation_invariance(self):
        for cone, xi in random_cone_suite(seed=53, count=6):
            rng = random.Random(99)
            eta = tuple(rng.randint(-3, 3) for _ in range(cone.dim))
            base = futaki_product(cone, xi, eta)
            for c in (1, 2):
                shifted = tuple(e + c * x for e, x in zip(eta, xi))
                assert futaki_product(cone, xi, shifted) == base

    def test_homogeneity_degree_zero(self, conifold):
        xi = (1, Fraction(1, 3), Fraction(1, 2))
        eta = (0, 1, 0)
        assert futaki_product(conifold, xi, eta) == futaki_product(
            conifold, tuple(2 * x for x in xi), eta
        )

    def test_conifold_critical_point_vanishes(self, conifold):
        xi = (1, Fraction(1, 2), Fraction(1, 2))
        for eta in ((0, 1, 0), (0, 0, 1), (0, 1, -1)):
            assert futaki_product(conifold, xi, eta) == 0

    def test_sign_convention_matches_volume_slope(self, conifold):
        # b0 is the derivative of a0 = n*vol along -eta (up to 1/n), so
        # a direction of decreasing volume must have b0 > 0
        xi = (1, Fraction(1, 3), Fraction(1, 2))
        eta = (0, 1, 0)
        h = Fraction(1, 10**5)
        f0 = 3 * polytope_Q(conifold, xi).volume_Q
        f1 = 3 * polytope_Q(conifold, tuple(x + h * e for x, e in zip(xi, eta))).volume_Q
        slope = (f1 - f0) / h
        C = weight_character(decompose_dual(conifold), xi, eta, order=2)
        assert slope < 0
        assert C.b0 > 0

    def test_pairing_of_wrong_type_is_a_value_error(self, conifold):
        F, C = futaki_coefficients(conifold, (3, 2, 2), (0, 1, 0))
        for args in ((None, None), (F, None), (None, C), (F.coeffs, C), (F, C.coeffs)):
            with pytest.raises(ValueError):
                futaki_pairing(*args)

    def test_pairing_of_two_cones_is_a_dimension_mismatch(self, conifold, orthant2):
        F, _ = futaki_coefficients(conifold, (3, 2, 2), (0, 1, 0))
        _, C = futaki_coefficients(orthant2, (1, 1), (0, 1))
        for args in ((F, C), (futaki_coefficients(orthant2, (1, 1))[0], F._replace(kind="weight"))):
            with pytest.raises(DimensionMismatch, match="dimension 3.*dimension 2|dimension 2.*dimension 3"):
                futaki_pairing(*args)

    def test_pairing_at_zero_a0_is_a_value_error(self, conifold):
        # a0 = n vol(Q_xi) > 0 for every Reeb vector
        _, C = futaki_coefficients(conifold, (3, 2, 2), (0, 1, 0))
        with pytest.raises(ValueError, match="a0 = 0"):
            futaki_pairing(LaurentSeries(-3, (0, 0), 3, "index"), C)


class TestFutakiClosedForm:
    def test_matches_characters(self):
        # dims 2-5, with random box cones that are mostly not Q-Gorenstein, a
        # dim-1 cone and small-piece cones of dims 6-8: the closed form's
        # series are the box points', so one normalization gives both a_j, b_j
        rng = random.Random(19)
        cases = [(cone, xi, tuple(rng.randint(-4, 4) for _ in range(cone.dim)))
                 for cone, xi in random_cone_suite(seed=59, count=20, dims=(2, 3, 4, 5))]
        cases += random_box_cone_suite(seed=7, count=60, high=2)
        assert sum(not is_q_gorenstein(cone) for cone, _, _ in cases) >= 30
        cases += [(dual_cone([(1,)], 1), (2,), (1,)), (dual_cone([(1,)], 1), (Fraction(1, 3),), (-5,))]
        cases += random_box_cone_suite(seed=7, count=12, dims=(6, 7, 8), high=1)
        assert {cone.dim for cone, _, _ in cases} == set(range(1, 9))
        for cone, xi, eta in cases:
            pieces = decompose_dual(cone)
            F = index_character(pieces, xi, order=1)
            C = weight_character(pieces, xi, eta, order=1)
            assert futaki_coefficients(cone, xi, eta) == (F, C)
            assert futaki_coefficients(cone, xi) == (F, None)
            assert leading_coefficients(cone, xi, eta) == (F.a0, F.a1, C.b0, C.b1)
            assert futaki_product(cone, xi, eta) == futaki_pairing(F, C)
        # F(t) = 1 / (1 - e^{-2t}) = 1/(2t) + 1/2 + ...: for n = 1, a0 = a1 = 1/2
        F, _ = futaki_coefficients(dual_cone([(1,)], 1), (2,))
        half = Fraction(1, 2)
        assert (F.coeffs, F.a0, F.a1) == ((half, half), half, half)

    def test_gorenstein_futaki_is_the_barycenter_residual(self):
        # on Q-Gorenstein cones Fut(xi; eta) = <eta, l - A bary_P>, A = <xi, l>
        rng = random.Random(23)
        cases = random_cone_suite(seed=61, count=20, dims=(2, 3, 4, 5))
        cases += [(cone, xi) for cone, xi, _ in random_box_cone_suite(seed=7, count=60, high=2)
                  if is_q_gorenstein(cone)]
        for cone, xi in cases:
            eta = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(cone.dim))
            l = gorenstein_vector(cone).l
            a_xi = linalg.dot(xi, l)
            residual = [x - a_xi * b for x, b in zip(l, reverse_bary_P(cone, xi))]
            assert futaki_product(cone, xi, eta) == linalg.dot(eta, residual)

    def test_gorenstein_coefficient_identities(self):
        # cut Q_xi into pyramids with apex l / <xi, l>: every facet through the
        # origin is at lattice distance 1 / <xi, l> from it, so the faces
        # route's order-1 coefficients follow from the order-0 ones, which
        # the library uses on every Q-Gorenstein cone
        rng = random.Random(37)
        ctx = mp_context()
        cases = [(dual_cone(spec.rays, spec.dim), spec.xi) for spec in bundled_specs()]
        cases += random_cone_suite(seed=11, count=40, dims=(2, 3, 4, 5))
        cases += [(cone, xi) for cone, xi in many_simplex_suite() if len(simplices(cone)) <= 40]
        cases += [(cone, xi) for cone, xi, _ in random_box_cone_suite(seed=7, count=60, high=2)
                  if is_q_gorenstein(cone)]
        assert len(cases) >= 60
        for k, (cone, xi) in enumerate(cases):
            eta = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(cone.dim))
            l = gorenstein_vector(cone).l
            a_xi, a_eta = linalg.dot(xi, l), linalg.dot(eta, l)
            F, C = faces_futaki_coefficients(cone, xi, eta)
            assert F.coeffs[1] == a_xi * F.coeffs[0] / 2
            assert C.coeffs[1] == (a_xi * C.coeffs[0] - a_eta * F.coeffs[0]) / 2
            assert futaki_coefficients(cone, xi, eta) == (F, C)  # the library's slice route
            if k % 4:
                continue
            # at a working-precision xi each coefficient is rounded once: the
            # identities hold, at the dyadic xi it stands for, within 2^-(p-2),
            # on both routes
            xi_mp = tuple(to_mpf(x, ctx) for x in xi)
            a_xi = linalg.dot(tuple(map(_exact, xi_mp)), l)
            rtol = Fraction(1, 2 ** (ctx.prec - 2))
            for F, C in (faces_futaki_coefficients(cone, xi_mp, eta),
                         futaki_coefficients(cone, xi_mp, eta)):
                (f0, f1), (c0, c1) = map(_exact, F.coeffs), map(_exact, C.coeffs)
                assert abs(f1 - a_xi * f0 / 2) <= rtol * abs(a_xi * f0 / 2)
                scale = (abs(a_xi * c0) + abs(a_eta * f0)) / 2
                assert abs(c1 - (a_xi * c0 - a_eta * f0) / 2) <= rtol * scale

    def test_boundary_faces_only_without_gorenstein_vector(self, monkeypatch):
        # one route per cone: the slice pass alone where l exists, the boundary
        # faces only where gorenstein_vector raises
        faces, calls = geometry.boundary_faces, []

        def recording(cone):
            calls.append(cone)
            return faces(cone)

        monkeypatch.setattr(geometry, "boundary_faces", recording)
        cases = [(dual_cone(spec.rays, spec.dim), spec.xi, (0, 1) + (0,) * (spec.dim - 2))
                 for spec in bundled_specs()]
        cases += [(cone, xi, (1,) * cone.dim)
                  for cone, xi in random_cone_suite(seed=11, count=12, dims=(2, 3, 4, 5))]
        cases += random_box_cone_suite(seed=7, count=60, high=2)
        seen = set()
        for cone, xi, eta in cases:
            gorenstein = is_q_gorenstein(cone)
            seen.add(gorenstein)
            futaki_coefficients(cone, xi, eta)
            futaki_product(cone, xi, eta)
            assert calls == ([] if gorenstein else [cone, cone])
            calls.clear()
        assert seen == {True, False}

    def test_matches_minor_oracle(self):
        cases = random_box_cone_suite(seed=13, count=30, high=3)
        cases += [(cone, xi, (0, 1) + (0,) * (cone.dim - 2)) for cone, xi in many_simplex_suite()
                  if len(simplices(cone)) <= 40]
        cases.append((dual_cone([(1,)], 1), (2,), (1,)))  # F = 1/(1 - e^(-2t)): a1 = 1/2
        assert {cone.dim for cone, _, _ in cases} >= {1, 6, 7, 8}
        for cone, xi, eta in cases:
            assert leading_coefficients(cone, xi, eta) == minor_futaki_coefficients(cone, xi, eta)

    def test_mpf_path_matches_exact(self):
        ctx, rtol = mp_context(), series_rtol()
        cases = random_box_cone_suite(seed=17, count=12)
        cases += [(cone, xi, (0, 1) + (0,) * (cone.dim - 2)) for cone, xi in many_simplex_suite()[:4]]
        for cone, xi, eta in cases:
            exact = leading_coefficients(cone, xi, eta)
            approx = leading_coefficients(cone, tuple(to_mpf(x, ctx) for x in xi), eta)
            for m, e in zip(approx, exact):
                assert isinstance(m, ctx.mpf)
                e = to_mpf(e, ctx)
                assert abs(m - e) <= rtol * (1 + abs(e))

    def test_cone_beyond_the_box_point_bound(self, monkeypatch):
        # not Q-Gorenstein, with a piece of 1,113,098 box points; no decomposition is made
        def no_decomposition(cone):
            raise AssertionError("Futaki decomposed the dual cone")

        monkeypatch.setattr(reebcone.characters, "decompose_dual", no_decomposition)
        monkeypatch.setattr(reebcone, "decompose_dual", no_decomposition)
        cone = dual_cone([(1, 1, 0, 3, 3), (1, 1, 2, 1, 3), (2, 0, 0, 3, 2),
                          (2, 1, 2, 0, 1), (2, 3, 3, 2, 1), (3, 2, 2, 1, 3)], 5)
        assert max(det for det, _ in simplices(cone)) > MAX_BOX_POINTS
        xi, eta = (11, 8, 9, 10, 13), (0, 1, 0, 0, 0)
        assert leading_coefficients(cone, xi, eta) == minor_futaki_coefficients(cone, xi, eta)
        futaki_product(cone, xi, eta)
        y21 = dual_cone([(1, 0, 0), (1, 1, 0), (1, 2, 2), (1, 0, 1)], 3)
        futaki_product(y21, (3, 2, 2), (0, 1, 0))

    def test_rejects_bad_input(self, conifold):
        with pytest.raises(DimensionMismatch):
            futaki_product(conifold, (1, 1, 1), (0, 1))
        with pytest.raises(UnboundedSlice):
            futaki_product(conifold, (1, 0, 0), (0, 1, 0))


class TestPrecisionPolicy:
    def test_caller_precision_is_neither_used_nor_changed(self, y21, monkeypatch):
        # every mpf lives in the shared context; the global mpmath.mp is the caller's
        ctx, rtol = mp_context(), series_rtol()
        xi = (1, Fraction(1, 3), Fraction(2, 3))
        xi_mp = tuple(to_mpf(x, ctx) for x in xi)
        pieces = decompose_dual(y21)
        star = minimize_volume(y21)
        monkeypatch.setattr(mpmath.mp, "prec", 30)
        assert minimize_volume(y21) == star
        exact, approx = polytope_Q(y21, xi), polytope_Q(y21, xi_mp)
        pairs = [(approx.volume_Q, exact.volume_Q)] + list(zip(approx.bary_P, exact.bary_P))
        exact, approx = delta(y21, xi), delta(y21, xi_mp)
        pairs += [(approx.delta, exact.delta), (approx.residual, exact.residual),
                  (approx.scale, exact.scale)]
        pairs += zip(index_character(pieces, xi_mp).coeffs, index_character(pieces, xi).coeffs,
                     strict=True)
        assert mpmath.mp.prec == 30
        for m, e in pairs:
            assert isinstance(m, ctx.mpf)
            e = to_mpf(e, ctx)
            assert abs(m - e) <= rtol * (1 + abs(e))


@functools.lru_cache(maxsize=None)
def minimizer_cases():
    """(cone, float xi*) on both seed-11 suites, the cone over a 64-gon (62
    simplices) and a cone at height 2, whose l = (1/2, 0, 0) is not integral."""
    cones = [cone for dims, count in (((3, 4, 5), 60), ((6, 7, 8), 30))
             for cone, _ in random_cone_suite(seed=11, count=count, dims=dims)]
    cones.append(make_kgon(64, 119))
    cones.append(dual_cone([(2, -1, 1), (2, -1, -1), (2, 3, -1), (2, 1, 3)], 3))
    return tuple((cone, tuple(float(x) for x in minimize_volume(cone).xi_star.xi))
                 for cone in cones)


class TestWorkingPrecision:
    def test_ratio_rounds_like_mpmath(self):
        # one correctly rounded quotient, bit for bit mpmath's from_rational,
        # on wide ints, exact quotients and halfway cases at the precision
        ctx, ratio = mp_context(), ratio_type(False)
        rng = random.Random(5)
        tie = 2 ** ctx.prec + 1
        cases = [(0, 7), (tie, 1), (-tie, 2 ** 40), (3 * tie, 3), (2 * tie + 2, 2)]
        for _ in range(3000):
            q = rng.randrange(1, 2 ** rng.randrange(1, 900)) << rng.randrange(300)
            p = rng.randrange(-2 ** rng.randrange(1, 900), 2 ** 900) << rng.randrange(300)
            cases += [(p, q), (q * rng.randrange(-9, 9), q)]
        for p, q in cases:
            want = mpmath.libmp.from_rational(p, q, ctx.prec, mpmath.libmp.round_nearest)
            assert ratio(p, q)._mpf_ == want, (p, q)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), mpmath.mpf("nan")])
    def test_non_finite_entries_rejected(self, y21, bad):
        xi = (3, bad, 2)
        for call in (lambda: polytope_Q(y21, xi), lambda: delta(y21, xi),
                     lambda: reeb_vector(y21, xi),
                     lambda: futaki_coefficients(y21, xi, (0, 1, 0)),
                     lambda: futaki_coefficients(y21, (3, 2, 2), xi)):
            with pytest.raises(UnboundedSlice):
                call()

    def test_numerators_are_exact_ints(self):
        # the dyadic split of an mpf is exact and made of plain ints, whatever
        # type mpmath's backend stores its mantissas in
        ctx = mp_context()
        xi = (to_mpf(Fraction(1, 3), ctx), ctx.mpf(-2.5), ctx.mpf(0), ctx.mpf(3) * 2 ** 200)
        [(nums, d)], exact = geometry.numerators(len(xi), xi=xi)
        assert not exact
        assert all(type(x) is int for x in nums + (d,))
        assert [Fraction(x, d) for x in nums] == [_exact(x) for x in xi]

    def test_exponent_spread_bounded(self, y21):
        # every float vector fits, however far apart its entries' exponents;
        # an mpf vector whose numerators would run to millions of bits is refused
        for scale in (1e300, 1e-300):
            assert polytope_Q(y21, (3 * scale, 2 * scale, 2 * scale)).volume_Q > 0
        assert delta(y21, (3e300, 2e-300, 2.0)).delta > 0
        ctx = mp_context()
        for big in (ctx.mpf(2) ** 10 ** 6, ctx.mpf(2) ** -10 ** 6):
            xi = (3 * big, 2 * big, 2 * big)
            for call in (lambda: polytope_Q(y21, xi), lambda: delta(y21, xi),
                         lambda: reeb_vector(y21, xi),
                         lambda: futaki_coefficients(y21, (3, 2, 2), xi)):
                with pytest.raises(ExceedsSupportedSize):
                    call()

    def test_exponent_spread_just_past_the_bound(self, orthant2):
        # the refusal sits at a few thousand bits past the precision, not ten times that
        ctx = mp_context()
        assert polytope_Q(orthant2, (ctx.mpf(1), ctx.mpf(2) ** -(ctx.prec + 3772))).volume_Q > 0
        with pytest.raises(ExceedsSupportedSize):
            polytope_Q(orthant2, (ctx.mpf(1), ctx.mpf(2) ** -(ctx.prec + 4172)))

    def test_kernel_sums_ints(self, monkeypatch):
        # working-precision xi reaches the slice kernel as integer numerators, one
        # pass per distinct numerators; only the float Newton objective divides there
        kernel, calls = geometry._simplex_sums, []

        def recording(table, pairings, exact=False, coords=None):
            calls.append((coords is not None, {type(p) for p in pairings.values()}))
            return kernel(table, pairings, exact, coords)

        monkeypatch.setattr(geometry, "_simplex_sums", recording)
        monkeypatch.setattr(optimize, "_simplex_sums", recording)
        clear_caches()
        ctx = mp_context()
        for cone, xi in random_cone_suite(seed=11, count=12, dims=(2, 3, 4, 5)):
            xi_mp = tuple(to_mpf(x, ctx) for x in xi)
            polytope_Q(cone, xi_mp)
            delta(cone, xi_mp)
            futaki_coefficients(cone, xi_mp, (0, 1) + (0,) * (cone.dim - 2))
            futaki_coefficients(cone, xi, xi_mp)  # inexact at the numerators of xi
            s_value(cone, xi_mp, cone.rays[0])
            s_prime(cone, xi_mp, cone.rays[0])
            ratio_profile(cone, xi_mp, cone.rays[0], (0, 1))
            distinct = {tuple(reeb_numerators(cone.dim, x)[0][0][0]) for x in (xi, xi_mp)}
            assert len(calls) == len(distinct)
            assert all(not h and types == {int} for h, types in calls)
            calls.clear()
            minimize_volume(cone)
            assert {h for h, _ in calls} == {False, True}
            assert all(types == ({float} if h else {int}) for h, types in calls)
            calls.clear()

    @pytest.mark.parametrize("precision", [128, 256])
    def test_within_two_bits_of_exact(self, monkeypatch, precision):
        # at the same dyadic xi*, against the exact Fractions: eta is a point of
        # sigma, so <eta, u> >= 0 on the dual rays and b0, b1 do not cancel
        monkeypatch.setenv("REEBCONE_PRECISION", str(precision))
        ctx = mp_context()
        assert ctx.prec == precision
        bound = Fraction(1, 2 ** (precision - 2))

        def close(approx, exact):
            assert all(isinstance(m, ctx.mpf) for m in approx)
            error = max(abs(_exact(m) - e) for m, e in zip(approx, exact))
            assert error <= bound * max(map(abs, exact))

        for cone, star in minimizer_cases():
            xi_mp = tuple(to_mpf(x, ctx) for x in star)
            xi = tuple(map(Fraction, star))
            eta = tuple(map(sum, zip(*cone.rays)))
            approx, exact = polytope_Q(cone, xi_mp), polytope_Q(cone, xi)
            close([approx.volume_Q], [exact.volume_Q])
            close(approx.bary_Q, exact.bary_Q)
            close(approx.bary_P, exact.bary_P)
            bary_Q = exact.bary_Q
            approx, exact = delta(cone, xi_mp), delta(cone, xi)
            for field in ("delta", "delta_prime", "scale"):
                close([getattr(approx, field)], [getattr(exact, field)])
            close(approx.bary_P, exact.bary_P)
            assert abs(_exact(approx.residual) - exact.residual) <= bound * max(map(abs, exact.bary_P))
            for m, e in zip(leading_coefficients(cone, xi_mp, eta), leading_coefficients(cone, xi, eta)):
                close([m], [e])
            # S, S' and f(t) on every ray, against the exact barycenters; S' is
            # <v, bary_P> at xi / <xi, l>, and <xi, l> is the scale
            a_xi, t_values = exact.scale, (0, 1, 0.5, 10 ** 6)
            for v in cone.rays:
                s, sp = linalg.dot(v, bary_Q), linalg.dot(v, exact.bary_P)
                close([s_value(cone, xi_mp, v), s_prime(cone, xi_mp, v)], [s, sp])
                a_v = linalg.dot(v, exact.gorenstein.l)
                profile = ratio_profile(cone, xi_mp, v, t_values)
                assert [_exact(t) for t, _ in profile] == list(map(Fraction, t_values))
                close([f for _, f in profile],
                      [(a_v + t * a_xi) / (sp + t * a_xi) for t in map(Fraction, t_values)])
            # kss_residual and vol* are the same sums rounded once to float
            res = minimize_volume(cone)
            assert (abs(res.kss_residual - exact.residual)
                    <= bound * max(map(abs, exact.bary_P)) + exact.residual / 2 ** 53)
            a0 = cone.dim * polytope_Q(cone, tuple(x / exact.scale for x in xi)).volume_Q
            assert abs(res.vol_star - a0) <= a0 / 2 ** 53


def _exact(m):
    """An mpf as the Fraction it equals."""
    man, exp = m.man_exp
    value = Fraction(man) * Fraction(2) ** exp
    return -value if m < 0 else value


def count_slice_passes(monkeypatch) -> list:
    """The calls of the slice kernel from :mod:`reebcone.geometry`, not those of
    the Newton objective, as a list that fills as they come."""
    calls, kernel = [], geometry._simplex_sums

    def counting(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(geometry, "_simplex_sums", counting)
    return calls


class TestOneSlicePassPerXi:
    def test_invariants_at_one_xi_share_one_pass(self, monkeypatch, y21):
        calls = count_slice_passes(monkeypatch)
        for xi in ((3, 2, 2), (3.1, 1.3, 0.7), tuple(to_mpf(x) for x in (3, 2, Fraction(7, 3)))):
            clear_caches()
            calls.clear()
            polytope_Q(y21, xi)
            delta(y21, xi)
            s_value(y21, xi, y21.rays[1])
            s_prime(y21, xi, y21.rays[1])
            ratio_profile(y21, xi, y21.rays[1], (0, 1))
            futaki_coefficients(y21, xi, (0, 1, 0))
            assert len(calls) == 1

    def test_delta_at_the_minimizer_reads_its_pass(self, monkeypatch, y21):
        # the exact values at xi* that minimize_volume ends with are delta's too
        calls = count_slice_passes(monkeypatch)
        clear_caches()
        res = minimize_volume(y21)
        report = delta(y21, res.xi_star.xi)
        assert len(calls) == 1
        assert abs(report.delta - 1) < 1e-12

    def test_pass_is_not_served_at_another_precision(self, monkeypatch, y21):
        # the fixed-point scale L of an inexact pass depends on the precision; the
        # outputs alone rarely show a stale pass, as L keeps 32 guard bits
        monkeypatch.delenv("REEBCONE_PRECISION", raising=False)
        clear_caches()
        xi = (3.1, 1.3, 0.7)
        polytope_Q(y21, xi)
        delta(y21, xi)
        monkeypatch.setenv("REEBCONE_PRECISION", "160")

        def at_xi():
            return polytope_Q(y21, xi), delta(y21, xi).delta, geometry._slice_sums(y21, xi)

        served = at_xi()
        clear_caches()
        assert served == at_xi()

    def test_exact_and_inexact_passes_are_apart(self, orthant3):
        # (3/4, 1/2, 1/4) has the numerators of its floats; vol(Q_xi) = 1 / (3! xi_1 xi_2 xi_3)
        clear_caches()
        inexact = polytope_Q(orthant3, (0.75, 0.5, 0.25)).volume_Q
        exact = (Fraction(3, 4), Fraction(1, 2), Fraction(1, 4))
        assert polytope_Q(orthant3, exact).volume_Q == Fraction(16, 9)
        clear_caches()
        polytope_Q(orthant3, exact)
        assert polytope_Q(orthant3, (0.75, 0.5, 0.25)).volume_Q == inexact


class TestRatioProfile:
    def test_constant_when_equal(self, orthant2):
        xi = (Fraction(1, 2), Fraction(1, 2))
        prof = ratio_profile(orthant2, xi, (1, 0), [0, 1, 5])
        assert all(f == 1 for _, f in prof)

    def test_monotone_and_limits(self, a1):
        xi = (1, Fraction(1, 2))
        prof = ratio_profile(a1, xi, (1, 2), [0, 1, 10, 10**6])
        values = [f for _, f in prof]
        assert values[0] == Fraction(1, 2)  # = delta at its minimizing ray
        assert values == sorted(values)
        assert abs(values[-1] - 1) < Fraction(1, 10**5)

    def test_decreasing_side(self, a1):
        # A(v) > S'(v) makes f decrease toward 1 from above
        xi = (1, Fraction(1, 2))
        prof = ratio_profile(a1, xi, (1, 0), [0, 1, 10])
        values = [f for _, f in prof]
        assert values[0] > 1
        assert values == sorted(values, reverse=True)

    def test_scalar_inputs(self, a1):
        # int, Fraction and float t come back exact at rational xi; at a
        # working-precision xi they, and an mpf t, come back as mpfs of it
        ctx, rtol = mp_context(), series_rtol()
        xi, v = (1, Fraction(1, 2)), (1, 2)
        t_values = (3, Fraction(7, 3), 0.5)
        exact = ratio_profile(a1, xi, v, t_values)
        assert [t for t, _ in exact] == [3, Fraction(7, 3), Fraction(1, 2)]
        assert all(type(x) is Fraction for pair in exact for x in pair)
        assert exact == polytope_ratio_profile(a1, xi, v, t_values)
        t_values += (ctx.mpf(2) / 3,)
        approx = ratio_profile(a1, tuple(to_mpf(x, ctx) for x in xi), v, t_values)
        a_v, a_xi = Fraction(1), Fraction(1)  # <v, l> and <xi, l> for l = (1, 0)
        sp = s_prime(a1, xi, v)
        for t_in, (t, f) in zip(t_values, approx):
            assert isinstance(t, ctx.mpf) and isinstance(f, ctx.mpf)
            assert t == to_mpf(t_in, ctx)
            want = (a_v + _exact(t) * a_xi) / (sp + _exact(t) * a_xi)
            assert abs(_exact(f) - want) <= rtol * want

    def test_nonpositive_denominator(self, a1):
        # S'(v) + t A(xi) <= 0 leaves f(t) undefined, on both paths
        ctx = mp_context()
        xi, v = (1, Fraction(1, 2)), (1, 2)
        edge = -s_prime(a1, xi, v) / linalg.dot(xi, gorenstein_vector(a1).l)
        assert edge == -2
        xi_mp = tuple(to_mpf(y, ctx) for y in xi)
        for x, extra in ((xi, ()), (xi_mp, (to_mpf(edge, ctx),))):
            assert ratio_profile(a1, x, v, [edge + Fraction(1, 10 ** 9)])[0][1] < 0
            for t in (edge, edge - 1, float(edge) - 0.5) + extra:
                with pytest.raises(UnboundedSlice):
                    ratio_profile(a1, x, v, [0, t])
