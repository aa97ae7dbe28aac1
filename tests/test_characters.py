"""Index and weight characters, and the half-open decomposition.

The load-bearing test here is the partition property: the half-open
simplicial pieces must tile the dual-cone lattice exactly (every point
in exactly one piece).  All series coefficients downstream inherit
their correctness from it plus the one-dimensional expansion of
z/(1 - e^{-z}), which is checked against its classical coefficients.
"""

import math
import random
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

import reebcone.characters as characters
import reebcone.linalg as linalg
from reebcone import (
    CutoffTooSmall,
    DimensionMismatch,
    ExceedsSupportedSize,
    OrderTooLarge,
    SimplicialPiece,
    UnboundedSlice,
    character_series,
    decompose_dual,
    dual_cone,
    index_character,
    lattice_points,
    polytope_Q,
    truncated_character_oracle,
    weight_character,
)
from reebcone.characters import MAX_ORDER, _G_COEFFS, _box_points
from reebcone.cli import parse_cone_spec
from reebcone.config import mp_context, ratio_type
from reebcone.geometry import MAX_DIM, numerators, simplices
from reebcone.lattice import _default_cutoff
from conftest import (
    fraction_box_points,
    fraction_det,
    fraction_inverse,
    fraction_pieces,
    fraction_rank,
    g_coefficients,
    make_kgon,
    per_point_characters,
    random_cone_suite,
    random_height_one_cone,
    random_interior_xi,
    series_rtol,
    to_mpf,
    unimodular_matrix,
)

SPEC_DIR = Path(__file__).resolve().parents[1] / "src" / "reebcone" / "specs"

# The cone over a 16-gon of radius 10 has 3220 box points; xi and eta as in
# the kgon-characters benchmark.
KGON_XI = (Fraction(3), Fraction(1, 7), Fraction(-1, 5))
KGON_ETA = (0, 1, 0)


def halfopen_points_upto(piece, xi, m):
    """Brute-force lattice points of one half-open piece with <xi,p> <= m."""
    pts = []
    n = len(piece.generators)
    cs = [linalg.dot(xi, u) for u in piece.generators]

    def rec(base, depth, used):
        if depth == n:
            pts.append(tuple(base))
            return
        k = 0
        while used + k * cs[depth] <= m:
            rec(
                [b + k * g for b, g in zip(base, piece.generators[depth])],
                depth + 1,
                used + k * cs[depth],
            )
            k += 1

    for p in piece.box_points:
        a = linalg.dot(xi, p)
        if a <= m:
            rec(list(p), 0, a)
    return pts


class TestGCoefficients:
    def test_classical_values(self):
        # z/(1 - e^{-z}) = 1 + z/2 + z^2/12 - z^4/720 + ...
        assert g_coefficients(4) == [
            Fraction(1), Fraction(1, 2), Fraction(1, 12),
            Fraction(0), Fraction(-1, 720),
        ]

    def test_table_matches_recurrence(self):
        # the library's table, one entry per implemented order, against the oracle
        assert list(_G_COEFFS) == g_coefficients(MAX_ORDER)

    def test_matches_mpmath_taylor(self):
        f = lambda z: z / (1 - mpmath.exp(-z)) if z != 0 else mpmath.mpf(1)
        taylor = mpmath.taylor(f, 0, 6)
        for j, c in enumerate(g_coefficients(6)):
            assert abs(float(c) - float(taylor[j])) < 1e-12

    @pytest.mark.parametrize("g", [g_coefficients(6), list(_G_COEFFS)], ids=["order6", "table"])
    def test_derivative_identity(self, g):
        # z g'(z) - g(z) = g(z) (z - g(z)) mod z^(N+1) at every order N: the
        # weight character's derivative of the generator factors is one series
        for order in range(len(g)):
            lhs = [(j - 1) * c for j, c in enumerate(g[:order + 1])]
            z_minus_g = [(j == 1) - c for j, c in enumerate(g[:order + 1])]
            rhs = [sum(g[i] * z_minus_g[j - i] for i in range(j + 1)) for j in range(order + 1)]
            assert lhs == rhs


class TestDecomposeDual:
    def test_partition_fixtures(self, fixture_cone):
        rng = random.Random(1)
        xi = random_interior_xi(fixture_cone, rng)
        direct = set(lattice_points(fixture_cone, xi, 6))
        combined = []
        for piece in decompose_dual(fixture_cone):
            combined.extend(
                halfopen_points_upto(piece, tuple(Fraction(x) for x in xi), 6)
            )
        assert len(combined) == len(set(combined)), "pieces overlap"
        assert set(combined) == direct, "pieces miss or invent points"

    def test_partition_random(self):
        for cone, xi in random_cone_suite(seed=71, count=8, dims=(2, 3)):
            direct = set(lattice_points(cone, xi, 5))
            combined = []
            for piece in decompose_dual(cone):
                combined.extend(
                    halfopen_points_upto(piece, tuple(Fraction(x) for x in xi), 5)
                )
            assert len(combined) == len(set(combined))
            assert set(combined) == direct

    def test_box_point_count_is_determinant(self, fixture_cone):
        for piece in decompose_dual(fixture_cone):
            det = abs(fraction_det([list(g) for g in piece.generators]))
            assert len(piece.box_points) == det
            assert len(set(piece.box_points)) == det

    def test_conifold_structure(self, conifold):
        pieces = decompose_dual(conifold)
        assert len(pieces) == 2
        assert sum(len(p.box_points) for p in pieces) == 2
        # exactly one piece gives up its shared facet
        assert sorted(any(p.excluded) for p in pieces) == [False, True]

    def test_box_guard(self):
        # the first simplex of this cone has 1,113,098 box points, the four 16,571,413
        cone = dual_cone([(1, 1, 0, 3, 3), (1, 1, 2, 1, 3), (2, 0, 0, 3, 2),
                          (2, 1, 2, 0, 1), (2, 3, 3, 2, 1), (3, 2, 2, 1, 3)], 5)
        with pytest.raises(ExceedsSupportedSize, match="4 simplicial pieces have 16571413 box points"):
            decompose_dual(cone)

    @staticmethod
    def spy_on_walks(monkeypatch):
        walk, calls = characters._box_points, []
        monkeypatch.setattr(characters, "_box_points",
                            lambda *args: calls.append(args) or walk(*args))
        return calls

    def test_box_guard_refuses_before_walking(self, monkeypatch):
        # pieces of 1 and 1,000,001 box points, the small one first
        cone = dual_cone([(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1000001)], 3)
        assert [det for det, _ in simplices(cone)] == [1, 1000001]
        calls = self.spy_on_walks(monkeypatch)
        with pytest.raises(ExceedsSupportedSize,
                           match="have 1000002 box points, above the 1000000 bound"):
            decompose_dual(cone)
        assert calls == []

    def test_box_guard_bounds_the_sum_of_the_pieces(self, monkeypatch):
        # every piece of the 16-gon is far below the bound, their 3220 box points are not
        cone = make_kgon(16, 10)
        found = simplices(cone)
        assert sum(det for det, _ in found) == 3220 and max(det for det, _ in found) < 1000
        monkeypatch.setattr(characters, "MAX_BOX_POINTS", 3220)
        assert sum(len(p.box_points) for p in decompose_dual(cone)) == 3220
        monkeypatch.setattr(characters, "MAX_BOX_POINTS", 3219)
        with pytest.raises(ExceedsSupportedSize, match="have 3220 box points, above the 3219 bound"):
            decompose_dual(cone)

    def test_many_pieces_within_the_piece_bound_are_refused(self, monkeypatch):
        # 58 pieces of at most 934,360 box points each, 8,528,328 in all: refused
        # before any walk, where a bound per piece would list them all
        cone = make_kgon(60, 682)
        found = simplices(cone)
        assert (len(found), sum(det for det, _ in found)) == (58, 8528328)
        assert max(det for det, _ in found) == 934360
        calls = self.spy_on_walks(monkeypatch)
        with pytest.raises(ExceedsSupportedSize, match="58 simplicial pieces have 8528328 box points"):
            decompose_dual(cone)
        assert calls == []


class TestBoxWalk:
    """The coset walk of ``_box_points`` on groups Z^n / U Z^n that are not cyclic."""

    @staticmethod
    def generator_sets():
        """2 I_n for n = 2..MAX_DIM, group (Z/2)^n, and diag(2, 4, 6), each also
        as W U V for random W, V in GL(n, Z)."""
        def matmul(a, b):
            return [[linalg.dot(row, col) for col in zip(*b)] for row in a]

        rng = random.Random(47)
        for diagonal in [[2] * n for n in range(2, MAX_DIM + 1)] + [[2, 4, 6]]:
            n = len(diagonal)
            u = [[x * (i == j) for j in range(n)] for i, x in enumerate(diagonal)]
            yield tuple(zip(*u))
            yield tuple(zip(*matmul(matmul(unimodular_matrix(rng, n), u), unimodular_matrix(rng, n))))

    def test_view_matches_hermite_listing(self):
        seen = 0
        for generators in self.generator_sets():
            n = len(generators)
            _, count, scaled_inverse = linalg.pivot_inverse(linalg.transpose(generators), n)
            for excluded in [(False,) * n, tuple(i % 2 == 0 for i in range(n))]:
                numerators = _box_points(count, scaled_inverse, excluded)
                assert all(len(rs) == count for rs in numerators)
                piece = SimplicialPiece(generators, numerators, excluded)
                assert piece.box_points == fraction_box_points(generators, excluded)
                seen += 1
        assert seen == 4 * (MAX_DIM - 1) + 4

    def test_characters_never_read_the_view(self, monkeypatch):
        pieces = decompose_dual(make_kgon(16, 10))

        def characters_at_order_4():
            return (index_character(pieces, KGON_XI, order=4),
                    weight_character(pieces, KGON_XI, KGON_ETA, order=4))

        expected = characters_at_order_4()

        def refuse(piece):
            raise RuntimeError("the series read the box_points view")

        monkeypatch.setattr(SimplicialPiece, "box_points", property(refuse), raising=False)
        assert characters_at_order_4() == expected


class TestIndexCharacter:
    def test_c1(self):
        cone = dual_cone([(1,)], 1)
        F = index_character(decompose_dual(cone), (1,), order=4)
        assert F.order_low == -1
        assert F.coeffs == (
            Fraction(1), Fraction(1, 2), Fraction(1, 12),
            Fraction(0), Fraction(-1, 720),
        )

    def test_c2_worked(self, orthant2):
        F = index_character(decompose_dual(orthant2), (1, 1), order=2)
        assert (F.a0, F.a1) == (1, 1)
        assert F.coeffs == (Fraction(1), Fraction(1), Fraction(5, 12))

    def test_a0_equals_n_vol(self, fixture_cone):
        rng = random.Random(9)
        for _ in range(3):
            xi = random_interior_xi(fixture_cone, rng)
            F = index_character(decompose_dual(fixture_cone), xi, order=1)
            vol = polytope_Q(fixture_cone, xi).volume_Q
            assert F.a0 == fixture_cone.dim * vol

    def test_a0_equals_n_vol_random(self):
        for cone, xi in random_cone_suite(seed=41, count=10):
            F = index_character(decompose_dual(cone), xi, order=1)
            assert F.a0 == cone.dim * polytope_Q(cone, xi).volume_Q

    def test_conifold_critical_point(self, conifold):
        F = index_character(
            decompose_dual(conifold), (1, Fraction(1, 2), Fraction(1, 2)), order=2
        )
        assert F.a0 == 8 and F.a1 == 8

    def test_evaluate_against_closed_forms(self, orthant2, a1):
        # the full generating functions are classical: for C^2 at
        # xi=(1,1) it is (1-e^{-t})^{-2}; for the A1 cone the shell
        # counts are 2k+1, giving (1+e^{-t})/(1-e^{-t})^2
        t = 1.0 / 40.0
        F = index_character(decompose_dual(orthant2), (1, 1), order=4)
        exact = (1.0 - math.exp(-t)) ** -2
        assert abs(float(F.evaluate(Fraction(1, 40))) - exact) / exact < 1e-8
        F = index_character(decompose_dual(a1), (1, 1), order=4)
        exact = (1.0 + math.exp(-t)) / (1.0 - math.exp(-t)) ** 2
        assert abs(float(F.evaluate(Fraction(1, 40))) - exact) / exact < 1e-8

    def test_order_gate(self, orthant2):
        with pytest.raises(OrderTooLarge):
            index_character(decompose_dual(orthant2), (1, 1), order=9)

    def test_character_series_is_both_characters(self, conifold):
        # one call gives F and C, and no C without eta
        pieces, xi, eta = decompose_dual(conifold), (2, 1, Fraction(2, 3)), (0, 1, 0)
        for order in range(MAX_ORDER + 1):
            F, C = character_series(pieces, xi, eta, order)
            assert (F.kind, C.kind) == ("index", "weight")
            index, weight = per_point_characters(pieces, xi, eta, order)
            assert (F.coeffs, C.coeffs) == (tuple(index), tuple(weight))
            assert character_series(pieces, xi, None, order) == (F, None)

    def test_order_zero_has_no_second_coefficient(self, conifold):
        pieces, xi, eta = decompose_dual(conifold), (2, 1, Fraction(2, 3)), (0, 1, 0)
        F = index_character(pieces, xi, order=0)
        C = weight_character(pieces, xi, eta, order=0)
        assert (F.a0, C.b0) == (index_character(pieces, xi, order=1).a0,
                                weight_character(pieces, xi, eta, order=1).b0)
        with pytest.raises(ValueError, match="order 0"):
            F.a1
        with pytest.raises(ValueError, match="order 0"):
            C.b1

    def test_scaling_in_xi(self, conifold):
        # F(c xi; t) = F(xi; c t): coefficients shift by powers of c
        pieces = decompose_dual(conifold)
        xi = (1, Fraction(1, 2), Fraction(1, 3))
        F1 = index_character(pieces, xi, order=2)
        F2 = index_character(pieces, tuple(3 * x for x in xi), order=2)
        n = conifold.dim
        assert F2.coeffs == tuple(
            c * Fraction(3) ** (-n + j) for j, c in enumerate(F1.coeffs)
        )


class TestWeightCharacter:
    def test_c2_worked(self, orthant2):
        C = weight_character(decompose_dual(orthant2), (1, 1), (1, 0), order=2)
        assert C.order_low == -3
        assert (C.b0, C.b1) == (Fraction(1, 2), Fraction(1, 2))

    def test_linearity_in_eta(self, conifold):
        pieces = decompose_dual(conifold)
        xi = (1, Fraction(1, 2), Fraction(1, 3))
        e1, e2 = (1, 0, 0), (0, 1, 0)
        Ca = weight_character(pieces, xi, e1, order=2)
        Cb = weight_character(pieces, xi, e2, order=2)
        Cab = weight_character(pieces, xi, (1, 1, 0), order=2)
        assert Cab.coeffs == tuple(a + b for a, b in zip(Ca.coeffs, Cb.coeffs))

    def test_eta_equals_xi_collapses(self, fixture_cone):
        # C_xi = -F'(t), so b0 = a0 and b1 = a1 exactly
        rng = random.Random(13)
        xi = random_interior_xi(fixture_cone, rng)
        pieces = decompose_dual(fixture_cone)
        F = index_character(pieces, xi, order=2)
        C = weight_character(pieces, xi, xi, order=2)
        assert C.b0 == F.a0
        assert C.b1 == F.a1

    def test_weight_vs_finite_difference(self, conifold):
        # b0 = (1/n) D_{-eta} a0 via a high-order central difference
        pieces = decompose_dual(conifold)
        xi = (1, Fraction(1, 2), Fraction(1, 3))
        eta = (0, 1, -1)
        C = weight_character(pieces, xi, eta, order=1)
        h = Fraction(1, 10**6)
        a_plus = index_character(
            pieces, tuple(x + h * e for x, e in zip(xi, eta)), order=1
        ).a0
        a_minus = index_character(
            pieces, tuple(x - h * e for x, e in zip(xi, eta)), order=1
        ).a0
        diff = (a_minus - a_plus) / (2 * h * conifold.dim)
        assert abs(float(C.b0 - diff)) < 1e-6 * abs(float(C.b0) or 1.0)


class TestTruncatedOracle:
    def test_c2_against_closed_form(self, orthant2):
        t = 0.25
        exact = (1.0 / (1.0 - math.exp(-t))) ** 2
        approx = truncated_character_oracle(orthant2, (1, 1), None, t, cutoff=90)
        assert abs(approx - exact) / exact < 1e-3

    def test_index_series_match_2d(self, a1):
        t = 0.05
        xi = (1, Fraction(3, 2))
        F = index_character(decompose_dual(a1), xi, order=4)
        series_val = float(F.evaluate(t))
        oracle = truncated_character_oracle(a1, xi, None, t, cutoff=320)
        assert abs(oracle - series_val) / abs(series_val) < 0.01

    def test_index_series_match_3d(self, conifold):
        t = 0.1
        xi = (1, Fraction(1, 2), Fraction(1, 2))
        F = index_character(decompose_dual(conifold), xi, order=4)
        series_val = float(F.evaluate(t))
        oracle = truncated_character_oracle(conifold, xi, None, t, cutoff=150)
        assert abs(oracle - series_val) / abs(series_val) < 0.01

    def test_weight_series_match(self, conifold):
        # eta must not be a flat direction of the volume at xi, or the
        # sum cancels and no relative tolerance is meaningful
        xi = (1, Fraction(1, 3), Fraction(1, 2))
        eta = (0, 1, 0)
        t = 0.15
        C = weight_character(decompose_dual(conifold), xi, eta, order=4)
        series_val = float(C.evaluate(t))
        oracle = truncated_character_oracle(conifold, xi, eta, t, cutoff=130)
        assert abs(oracle - series_val) / abs(series_val) < 0.01

    def test_cutoff_too_small(self, orthant2):
        with pytest.raises(CutoffTooSmall):
            truncated_character_oracle(orthant2, (1, 1), None, 0.01, cutoff=30)

    def test_bad_t(self, orthant2):
        with pytest.raises(ValueError):
            truncated_character_oracle(orthant2, (1, 1), None, 0.0, cutoff=50)

    def test_default_cutoff(self):
        # ceil(14 / t), and ceil(18 / t) for the eta-weighted sum's longer tail
        assert (_default_cutoff(0.2, False), _default_cutoff(0.2, True)) == (70, 90)
        assert (_default_cutoff(Fraction(1, 5), False), _default_cutoff(7, True)) == (70, 3)
        for t in (0, -1.0, math.nan, math.inf, 10 ** 400, "x", None):
            with pytest.raises(ValueError, match="t must be positive and finite"):
                _default_cutoff(t, False)
        # a subnormal t, or an exact one that rounds to 0.0, has no float cutoff
        for t in (1e-320, Fraction(1, 10 ** 400)):
            with pytest.raises(ExceedsSupportedSize, match="past every float"):
                _default_cutoff(t, True)

    @pytest.mark.parametrize("cutoff", [0, -3])
    def test_nonpositive_cutoff(self, orthant2, cutoff):
        with pytest.raises(ValueError, match="cutoff must be positive"):
            truncated_character_oracle(orthant2, (1, 1), None, 0.5, cutoff=cutoff)

    def test_interior_required(self, orthant2):
        with pytest.raises(UnboundedSlice):
            truncated_character_oracle(orthant2, (1, 0), None, 0.5, cutoff=50)


class TestWrongLength:
    """xi and eta of the wrong length raise DimensionMismatch, not a silent zip."""

    XI = (1, Fraction(1, 2), Fraction(1, 2))

    @pytest.mark.parametrize("eta", [(0, 1), (0, 1, 0, 9)])
    def test_eta(self, conifold, eta):
        pieces = decompose_dual(conifold)
        with pytest.raises(DimensionMismatch, match="eta has length"):
            weight_character(pieces, self.XI, eta)
        with pytest.raises(DimensionMismatch, match="eta has length"):
            truncated_character_oracle(conifold, self.XI, eta, 0.5, cutoff=50)

    @pytest.mark.parametrize("xi", [(1, 1), (1, 1, 1, 1), (mpmath.mpf(1),) * 4])
    def test_xi(self, conifold, xi):
        pieces = decompose_dual(conifold)
        with pytest.raises(DimensionMismatch, match="xi has length"):
            index_character(pieces, xi)
        with pytest.raises(DimensionMismatch, match="xi has length"):
            weight_character(pieces, xi, (0, 1, 0))
        with pytest.raises(DimensionMismatch, match="xi has length"):
            truncated_character_oracle(conifold, xi, None, 0.5, cutoff=50)

    def test_pieces_of_two_dimensions(self, conifold):
        # raised before any pairing: zip stopped at the shorter vector and mixed the sums
        pieces = decompose_dual(conifold) + decompose_dual(dual_cone([(1, 0), (1, 1)], 2))
        with pytest.raises(DimensionMismatch, match="pieces of more than one dimension"):
            character_series(pieces, (2, Fraction(1, 2), Fraction(1, 2)))


class TestBadArguments:
    """A bad order or no pieces raise ValueError before any work, not a raw error."""

    XI, ETA = (1, Fraction(1, 2), Fraction(1, 2)), (0, 1, 0)

    def test_coefficient_of_the_other_character(self, conifold):
        F, C = character_series(decompose_dual(conifold), self.XI, self.ETA, 1)
        for name in ("b0", "b1"):
            with pytest.raises(ValueError, match=f"{name} is a coefficient of the weight character"):
                getattr(F, name)
        for name in ("a0", "a1"):
            with pytest.raises(ValueError, match=f"{name} is a coefficient of the index character"):
                getattr(C, name)

    @pytest.mark.parametrize("order", [2.5, 2.0, Fraction(2), "2", None])
    def test_non_integer_order(self, conifold, order):
        pieces = decompose_dual(conifold)
        for call in (lambda: characters.check_order(order),
                     lambda: index_character(pieces, self.XI, order=order),
                     lambda: weight_character(pieces, self.XI, self.ETA, order=order),
                     lambda: character_series(pieces, self.XI, self.ETA, order)):
            with pytest.raises(ValueError, match="must be an integer"):
                call()

    @pytest.mark.parametrize("order", [-1, -5])
    def test_negative_order(self, conifold, order):
        # the CLI's message, from the one order check
        pieces = decompose_dual(conifold)
        for call in (lambda: characters.check_order(order),
                     lambda: index_character(pieces, self.XI, order=order),
                     lambda: character_series(pieces, self.XI, self.ETA, order)):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == f"order must be nonnegative, got {order}"

    @pytest.mark.parametrize("kind", ["iterator", "ints", "bare tuples", "no numerators",
                                      "ragged numerators"])
    def test_pieces_that_are_not_pieces(self, conifold, kind):
        # raw TypeError, AttributeError or ZeroDivisionError once, or a silent
        # zip over numerator lists of two lengths
        pieces = decompose_dual(conifold)
        piece = pieces[0]
        rows = piece.numerators
        bad = {"iterator": lambda: iter(pieces), "ints": lambda: [1, 2],
               "bare tuples": lambda: [tuple(p) for p in pieces],
               "no numerators": lambda: [piece._replace(numerators=((),) * len(rows))],
               "ragged numerators": lambda: [piece._replace(numerators=(rows[0] * 2,) + rows[1:])]
               }[kind]
        for call in (lambda: index_character(bad(), self.XI),
                     lambda: weight_character(bad(), self.XI, self.ETA),
                     lambda: character_series(bad(), self.XI, self.ETA)):
            with pytest.raises(ValueError, match="pieces must be a sequence of SimplicialPieces"):
                call()

    def test_weight_character_of_no_eta(self, conifold):
        # returned None once, as character_series's C without eta
        with pytest.raises(ValueError, match="eta must be a sequence of numbers, got None"):
            weight_character(decompose_dual(conifold), self.XI, None)

    @pytest.mark.parametrize("pieces", [(), []])
    def test_no_pieces(self, pieces):
        with pytest.raises(ValueError, match="no simplicial pieces"):
            index_character(pieces, self.XI)
        with pytest.raises(ValueError, match="no simplicial pieces"):
            weight_character(pieces, self.XI, self.ETA)
        with pytest.raises(ValueError, match="no simplicial pieces"):
            character_series(pieces, self.XI, self.ETA)


class TestBoxPointKernel:
    """The integer box-point kernel against the Fraction per-point oracles."""

    def test_pivot_inverse(self):
        # the greedy basis of the rows, |det B| and |det B| B^-1 of one elimination,
        # on square matrices and on taller ones with dependent rows
        rng = random.Random(41)
        seen = set()
        for _ in range(300):
            n = rng.randint(1, 8)
            m = n if rng.random() < 0.5 else rng.randint(1, 12)
            mat = [[rng.randint(-4, 4) if rng.random() < 0.7 else 0 for _ in range(n)]
                   for _ in range(m)]
            if m > 1 and rng.random() < 0.5:  # a row that is a sum of earlier ones
                k = rng.randrange(1, m)
                mat[k] = [x + y for x, y in zip(mat[rng.randrange(k)], mat[rng.randrange(k)])]
            greedy = []  # each row independent of the rows kept before it
            for i in range(m):
                if fraction_rank([mat[j] for j in greedy + [i]]) > len(greedy):
                    greedy.append(i)
            basis, count, scaled = linalg.pivot_inverse(mat, n)
            assert basis == tuple(greedy)
            if len(greedy) < n:
                assert (count, scaled) == (None, None)
                seen.add("rank-deficient")
                continue
            pivot_rows = [mat[i] for i in greedy]
            assert count == abs(fraction_det(pivot_rows))
            assert scaled == tuple(tuple(count * x for x in row)
                                   for row in fraction_inverse(pivot_rows))
            seen.add("square" if m == n else "tall")
        assert seen == {"rank-deficient", "square", "tall"}

    def test_rank_det_solve(self):
        # rank, pivot columns and det; the solve that this test once checked
        # is gorenstein_vector's, against fraction_solve in test_geometry.py
        rng = random.Random(43)
        seen = set()
        for _ in range(600):
            m, n = rng.randint(1, 9), rng.randint(1, 9)
            mat = [[rng.randint(-4, 4) if rng.random() < 0.7 else 0 for _ in range(n)]
                   for _ in range(m)]
            if m > 1 and rng.random() < 0.5:  # force a dependent row
                i, j, k = rng.randrange(m), rng.randrange(m), rng.randrange(m)
                a, b = rng.randint(-3, 3), rng.randint(-3, 3)
                mat[k] = [a * x + b * y for x, y in zip(mat[i], mat[j])]
            r = linalg.rank(mat)
            assert r == fraction_rank(mat)
            greedy = []  # each column independent of the columns kept before it
            for j in range(n):
                if fraction_rank([[row[i] for i in greedy + [j]] for row in mat]) > len(greedy):
                    greedy.append(j)
            assert linalg.pivot_columns(mat) == greedy
            seen.add("rank-deficient" if r < min(m, n) else "full rank")
            if m == n:
                det = linalg.det(mat)
                assert type(det) is int and det == fraction_det(mat)
                assert (det != 0) == (r == n)
                seen.add("square")
        assert seen == {"rank-deficient", "full rank", "square"}

    @staticmethod
    def cases():
        kgon = make_kgon(16, 10)
        assert sum(len(p.box_points) for p in decompose_dual(kgon)) == 3220
        return (random_cone_suite(seed=17, count=16, dims=(2, 3, 4, 5))
                + random_cone_suite(seed=31, count=6, dims=(6, 7, 8)) + [(kgon, KGON_XI)])

    def test_pieces_match_fraction_oracle(self):
        for cone, _ in self.cases():
            pieces = [(p.generators, p.box_points, p.excluded) for p in decompose_dual(cone)]
            assert tuple(pieces) == fraction_pieces(cone)

    def test_characters_match_per_point_oracle(self):
        rng = random.Random(29)
        for cone, xi in self.cases():
            pieces = decompose_dual(cone)
            eta = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(cone.dim))
            for order in range(MAX_ORDER + 1):
                index, weight = per_point_characters(pieces, xi, eta, order)
                assert index_character(pieces, xi, order=order).coeffs == tuple(index)
                assert weight_character(pieces, xi, eta, order=order).coeffs == tuple(weight)

    @pytest.mark.parametrize("dim", [3, 8])
    def test_series_products_per_piece(self, monkeypatch, dim):
        # one generator product, reused by the weight character: n + 2 series
        # products per piece with eta and n without (the product rule made 3n)
        cone, xi = random_cone_suite(seed=34, count=1, dims=(dim,))[0]
        pieces, eta = decompose_dual(cone), (1,) + (0,) * (dim - 1)
        series_mul, calls = characters._series_mul, []

        def counting(a, b):
            calls.append(len(a))
            return series_mul(a, b)

        monkeypatch.setattr(characters, "_series_mul", counting)
        character_series(pieces, xi, eta, 3)
        assert len(calls) == (dim + 2) * len(pieces)
        calls.clear()
        character_series(pieces, xi, None, 3)
        assert len(calls) == dim * len(pieces)

    @staticmethod
    def mpf_cases():
        """The 16-gon, a dim-5 cone of 161 pieces whose higher coefficients sum
        many terms of both signs, and the bundled specs, with an eta each."""
        many, xi = random_cone_suite(seed=18, count=1, dims=(5,), extra_points=16)[0]
        assert len(simplices(many)) > 100
        cases = [(make_kgon(16, 10), KGON_XI, KGON_ETA), (many, xi, (0, 1, -2, 0, 3))]
        for path in sorted(SPEC_DIR.glob("*.json")):
            spec = parse_cone_spec(path.read_text(encoding="utf-8"))
            eta = spec.eta or (0, 1) + (0,) * (spec.dim - 2)
            cases.append((dual_cone(spec.rays, spec.dim), spec.xi, eta))
        return cases

    def test_mpf_path_matches_exact(self):
        ctx, rtol = mp_context(), series_rtol()
        for cone, xi, eta in self.mpf_cases():
            pieces = decompose_dual(cone)
            xi_mp = tuple(to_mpf(x, ctx) for x in xi)
            for order in range(MAX_ORDER + 1):
                pairs = [(index_character(pieces, xi, order=order),
                          index_character(pieces, xi_mp, order=order)),
                         (weight_character(pieces, xi, eta, order=order),
                          weight_character(pieces, xi_mp, eta, order=order))]
                for exact, approx in pairs:
                    for e, m in zip(exact.coeffs, approx.coeffs, strict=True):
                        assert isinstance(m, ctx.mpf)
                        e = to_mpf(e, ctx)
                        assert abs(m - e) <= rtol * (1 + abs(e))

    def test_mpf_path_rounds_once(self):
        # each coefficient at a working-precision xi is the exact one at the
        # dyadic xi it stands for, rounded once: the pieces are summed in
        # fixed point with guard bits, not as rounded mpfs
        ctx, ratio = mp_context(), ratio_type(False)
        for cone, xi, eta in self.mpf_cases():
            pieces = decompose_dual(cone)
            xi_mp = tuple(to_mpf(x, ctx) for x in xi)
            [(nums, d)], _ = numerators(len(xi_mp), xi=xi_mp)
            dyadic = tuple(Fraction(x, d) for x in nums)
            for order in range(MAX_ORDER + 1):
                pairs = [(index_character(pieces, dyadic, order=order),
                          index_character(pieces, xi_mp, order=order)),
                         (weight_character(pieces, dyadic, eta, order=order),
                          weight_character(pieces, xi_mp, eta, order=order))]
                for exact, approx in pairs:
                    for e, m in zip(exact.coeffs, approx.coeffs, strict=True):
                        assert m._mpf_ == ratio(e.numerator, e.denominator)._mpf_
