"""Exact polyhedral geometry: dual cones, Gorenstein vectors, slices."""

import gc
import itertools
import math
import operator
import random
import sys
import time
import warnings
from fractions import Fraction

import mpmath
import numpy
import pytest

import reebcone.config as config
import reebcone.geometry as geometry
import reebcone.lattice as lattice
import reebcone.linalg as linalg
from reebcone import (
    DegenerateSolutionSet,
    DimensionMismatch,
    ExceedsSupportedSize,
    GorensteinVector,
    InputError,
    IrrationalReeb,
    NonIntegerRay,
    NotFullDimensional,
    NotPointed,
    NotQGorenstein,
    RayPrimitivizedWarning,
    RedundantRayWarning,
    ReebVector,
    ReebconeWarning,
    UnboundedSlice,
    decompose_dual,
    delta,
    dual_cone,
    futaki_product,
    gorenstein_vector,
    index_character,
    lattice_points,
    minimize_volume,
    polytope_Q,
    reeb_vector,
    triangulate_cone,
)
from reebcone.config import mp_context
from conftest import (
    FIXTURE_MAKERS,
    brute_force_dual_cone,
    bundled_specs,
    clear_caches,
    fraction_det,
    fraction_polytope_Q,
    fraction_rank,
    fraction_solve,
    is_q_gorenstein,
    make_conifold,
    make_kgon,
    many_simplex_suite,
    minor_lattice_volume,
    random_box_cone_suite,
    random_cone_suite,
    random_height_one_cone,
    random_interior_xi,
    reverse_bary_P,
    series_rtol,
    to_mpf,
)


def counting(fn, calls):
    def wrapper(*args):
        calls.append(args)
        return fn(*args)
    return wrapper


def spy_on_eliminations(monkeypatch):
    """The ``(rows, width)`` of every ``linalg._bareiss`` call from here on."""
    calls, bareiss = [], linalg._bareiss

    def spy(rows, width, *args, **kwargs):
        calls.append((rows, width))
        return bareiss(rows, width, *args, **kwargs)

    monkeypatch.setattr(linalg, "_bareiss", spy)
    return calls


def ray_eliminations(calls, rays) -> int:
    """How many of the eliminations ``calls`` pivot on rays of ``rays``: those whose
    pivot block, the first ``width`` columns, has only such rays as rows or as columns."""
    rays = set(rays)
    blocks = [[tuple(row[:width]) for row in rows] for rows, width in calls]
    return sum(bool(block) and (set(block) <= rays or set(zip(*block)) <= rays)
               for block in blocks)


def cube_rays(n):
    """The rays of the cone over the unit (n-1)-cube at height one."""
    return [(1,) + e for e in itertools.product((0, 1), repeat=n - 1)]


def pair_sums(rays):
    """Every sum of two rays: redundant generators of sigma, valid inequalities of sigma^v."""
    return [tuple(map(operator.add, v, w)) for v, w in itertools.combinations(rays, 2)]


def cross_rays(n):
    """The rays of the cone over the (n-1)-dimensional cross-polytope at height one."""
    return [(1,) + tuple(s * (i == j) for j in range(n - 1)) for i in range(n - 1) for s in (1, -1)]


class TestDualCone:
    def test_orthant2(self, orthant2):
        assert orthant2.rays == ((1, 0), (0, 1))
        assert orthant2.dual_rays == ((0, 1), (1, 0))

    def test_a1(self, a1):
        assert a1.dual_rays == ((0, 1), (2, -1))

    def test_conifold(self, conifold):
        assert conifold.dual_rays == ((0, 0, 1), (0, 1, 0), (1, -1, 0), (1, 0, -1))

    def test_y21(self, y21):
        assert y21.dual_rays == ((0, 0, 1), (0, 1, 0), (2, -2, 1), (2, 1, -2))

    def test_duality_involution_fixtures(self, fixture_cone):
        again = dual_cone(fixture_cone.dual_rays, fixture_cone.dim)
        assert set(again.dual_rays) == set(fixture_cone.rays)

    def test_duality_involution_random(self):
        rng = random.Random(5)
        for _ in range(25):
            cone = random_height_one_cone(rng, rng.choice([2, 3, 4]))
            again = dual_cone(cone.dual_rays, cone.dim)
            assert set(again.dual_rays) == set(cone.rays)

    def test_pairings_nonnegative(self, fixture_cone):
        for v in fixture_cone.rays:
            for u in fixture_cone.dual_rays:
                assert linalg.dot(v, u) >= 0

    def test_primitivize_warning(self):
        with pytest.warns(RayPrimitivizedWarning):
            cone = dual_cone([(2, 0), (0, 1)], 2)
        assert cone.rays == ((1, 0), (0, 1))

    def test_redundant_ray_dropped(self):
        with pytest.warns(RedundantRayWarning):
            cone = dual_cone([(1, 0), (1, 1), (0, 1)], 2)
        assert cone.rays == ((1, 0), (0, 1))

    def test_duplicate_ray_dropped(self):
        with pytest.warns(RedundantRayWarning):
            cone = dual_cone([(1, 0), (1, 0), (0, 1)], 2)
        assert cone.rays == ((1, 0), (0, 1))

    def test_not_full_dimensional(self):
        with pytest.raises(NotFullDimensional):
            dual_cone([(1, 0)], 2)
        with pytest.raises(NotFullDimensional):
            dual_cone([(1, 0, 0), (0, 1, 0)], 3)

    def test_not_pointed(self):
        with pytest.raises(NotPointed):
            dual_cone([(1, 0), (-1, 0), (0, 1)], 2)
        with pytest.raises(NotPointed):
            dual_cone([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)

    def test_pointedness_is_no_rank(self, monkeypatch):
        # pointedness is read from the tight sets of the double description
        calls = []
        monkeypatch.setattr(linalg, "rank", counting(linalg.rank, calls))
        dual_cone(cube_rays(5), 5)
        with pytest.raises(NotPointed):
            dual_cone([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
        assert calls == []

    @staticmethod
    def ray_sets():
        """Seeded ``(rays, dim)`` of dims 1-8: rays in an open half-space, some with a
        line, a duplicate or a sum of two rays added, and the whole space."""
        rng = random.Random(61)
        out = [([(1,), (-1,)], 1), ([(1, 0), (-1, 0), (0, 1), (0, -1)], 2)]
        for _ in range(120):
            dim = rng.randint(1, 8)
            rays = [tuple([rng.randint(1, 2)] + [rng.randint(-2, 2) for _ in range(dim - 1)])
                    for _ in range(rng.randint(dim, dim + 3))]
            extra = rng.choice(["line", "duplicate", "sum", None])
            if extra == "line":
                v = rays[rng.randrange(len(rays))]
                rays.append(tuple(-x for x in v))
            elif extra == "duplicate":
                rays.append(rays[rng.randrange(len(rays))])
            elif extra == "sum":
                rays.append(tuple(map(operator.add, rays[0], rays[-1])))
            rng.shuffle(rays)
            out.append((rays, dim))
        return out

    def test_pointedness_and_facets_from_the_tight_sets(self):
        # the double description's tight sets are exact; NotPointed is raised exactly
        # when its rays have rank below dim; and the rays kept are those that no other
        # ray's facets strictly contain, by the incidence of rays and dual rays
        seen = set()
        for rays, dim in self.ray_sets():
            unique = list(dict.fromkeys(linalg.primitivize(v) for v in rays))
            try:
                tight = geometry._double_description(unique, dim)
            except NotFullDimensional:
                seen.add("not full-dimensional")
                continue
            duals = sorted(tight)
            assert tight == {u: sum(1 << i for i, v in enumerate(unique) if linalg.dot(v, u) == 0)
                             for u in duals}
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RedundantRayWarning)
                warnings.simplefilter("ignore", RayPrimitivizedWarning)
                if fraction_rank(duals) < dim:
                    with pytest.raises(NotPointed):
                        dual_cone(rays, dim)
                    seen.add("no dual ray" if not duals else "not pointed")
                    continue
                cone = dual_cone(rays, dim)
            facets = geometry._incidence(unique, duals)
            kept = tuple(v for v, f in zip(unique, facets)
                         if not any(f & g == f != g for g in facets))
            assert (cone.rays, cone.dual_rays) == (kept, tuple(duals))
            seen.add("redundant" if len(kept) < len(unique) else "pointed")
        assert seen == {"not full-dimensional", "no dual ray", "not pointed", "redundant",
                        "pointed"}

    def test_line_is_not_full_dimensional(self):
        # two opposite rays span a line, which fails the rank check first
        with pytest.raises(NotFullDimensional):
            dual_cone([(1, 0), (-1, 0)], 2)

    def test_non_integer_ray(self):
        with pytest.raises(NonIntegerRay):
            dual_cone([(1, 0), (0, Fraction(1, 2))], 2)

    @pytest.mark.parametrize("rays", [3, None, [(1, 0, 0), 5, (0, 0, 1)], [(1, 0, 0), None]])
    def test_rays_not_a_list_of_vectors(self, rays):
        # a DimensionMismatch, hence a ValueError, not a raw TypeError from len()
        with pytest.raises(DimensionMismatch, match="rays must be a list of vectors"):
            dual_cone(rays, 3)

    @pytest.mark.parametrize("dim", ["3", None, 3.0, Fraction(3)])
    def test_dim_not_an_integer(self, dim):
        # a DimensionMismatch, not a raw TypeError from dim < 1 nor a cone of float dim
        with pytest.raises(DimensionMismatch, match="ambient dimension must be an integer"):
            dual_cone([(1, 0, 0), (0, 1, 0), (0, 0, 1)], dim)

    def test_numpy_integer_dim_is_an_int(self):
        cone = dual_cone([(1, 0, 0), (0, 1, 0), (0, 0, 1)], numpy.int64(3))
        assert type(cone.dim) is int and cone.dim == 3

    def test_numpy_integer_rays(self):
        rays = [(1, 0, 0), (1, 3, 0), (1, 2, 2), (1, 0, 1)]
        cone = dual_cone([tuple(map(numpy.int64, v)) for v in rays], 3)
        assert cone == dual_cone(rays, 3)
        assert all(type(x) is int for v in cone.rays + cone.dual_rays for x in v)

    def test_integer_valued_floats_accepted(self):
        with pytest.warns(RayPrimitivizedWarning):
            cone = dual_cone([(1.0, 0), (0, 2.0)], 2)
        assert cone.rays == ((1, 0), (0, 1))

    @pytest.mark.parametrize("dim", [0, -1])
    def test_dim_not_positive(self, dim):
        with pytest.raises(DimensionMismatch, match=f"ambient dimension must be positive, got {dim}"):
            dual_cone([], dim)

    def test_dim_past_the_cap(self):
        units = [tuple(int(i == j) for j in range(9)) for i in range(9)]
        with pytest.raises(ExceedsSupportedSize, match="dimension 9 exceeds supported maximum 8"):
            dual_cone(units, 9)

    def test_rays_past_the_cap(self):
        # 65 points of a grid at height one: refused before any work
        rays = [(1, i, j) for i in range(9) for j in range(8)][:geometry.MAX_RAYS + 1]
        with pytest.raises(ExceedsSupportedSize, match="65 rays exceed supported maximum 64"):
            dual_cone(rays, 3)

    @pytest.mark.parametrize("short", [(0, 1), (0, 1, 0, 0)], ids=["short", "long"])
    def test_ray_of_the_wrong_length(self, short):
        with pytest.raises(DimensionMismatch, match=f"ray 1 has length {len(short)}, expected 3"):
            dual_cone([(1, 0, 0), short, (0, 0, 1)], 3)

    def test_integral_fraction_entries_are_ints(self):
        cone = dual_cone([(Fraction(1), 0), (Fraction(3, 3), Fraction(2))], 2)
        assert cone == dual_cone([(1, 0), (1, 2)], 2)
        assert all(type(x) is int for v in cone.rays for x in v)

    def test_cube7_at_the_ray_cap(self):
        # the cone over the unit 6-cube at height one: 64 rays, 12 facets
        cone = dual_cone(cube_rays(7), 7)
        assert len(cone.rays) == geometry.MAX_RAYS
        units = [tuple(int(i == j) for j in range(7)) for i in range(7)]
        facets = units[1:] + [tuple(map(operator.sub, units[0], e)) for e in units[1:]]
        assert cone.dual_rays == tuple(sorted(facets))
        xi = random_interior_xi(cone, random.Random(7))
        assert polytope_Q(cone, xi).bary_P == reverse_bary_P(cone, xi)

    @staticmethod
    def degenerate_cones():
        """(rays, dim) of cones of dims <= 5 with many facets or redundant rays."""
        out = []
        for n in range(3, 6):
            k = n - 1
            cross = cross_rays(n)
            centre = (2,) + (1,) * k  # inside sigma
            edge = (2, 1) + (0,) * (k - 1)  # inside a 2-face of sigma
            cube = cube_rays(n)
            out += [(cross, n), ([(1,) + (0,) * k] + cross, n), (cube, n),
                    ([centre] + cube + [edge], n), (cube[::-1] + [edge, centre, cube[0]], n)]
        rng = random.Random(17)
        for _ in range(20):
            rays = list(random_height_one_cone(rng, rng.choice([3, 4, 5]), extra_points=2).rays)
            out.append((rays + pair_sums(rays[:2]), len(rays[0])))
        return out

    def test_matches_brute_force_facets(self):
        dropped_total = 0
        for rays, dim in self.degenerate_cones():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                cone = dual_cone(rays, dim)
            dropped = sum(issubclass(w.category, RedundantRayWarning) for w in caught)
            assert (cone.rays, cone.dual_rays, dropped) == brute_force_dual_cone(rays, dim)
            dropped_total += dropped
        assert dropped_total >= 30

    def test_contains(self, conifold):
        assert conifold.contains((1, 0, 0))
        assert conifold.contains((2, 1, 1))
        assert not conifold.contains((0, 1, 0))
        assert conifold.interior_contains((1, Fraction(1, 2), Fraction(1, 2)))
        assert not conifold.interior_contains((1, 0, 0))


class TestWorkCaps:
    def test_dim7_point_cloud_refused_fast(self):
        # 64 random points at height one: about 2,500 dual rays and 10^5
        # simplices, over a minute of work without the cap on dual rays
        rng = random.Random(5)
        points = [(1,) + tuple(rng.randint(-3, 3) for _ in range(6)) for _ in range(64)]
        start = time.perf_counter()
        with warnings.catch_warnings(), pytest.raises(ExceedsSupportedSize, match="1000 rays"):
            warnings.simplefilter("ignore", ReebconeWarning)
            dual_cone(points, 7)
        assert time.perf_counter() - start < 2

    def test_dim8_cross_polytope_cone_accepted(self):
        cone = dual_cone(cross_rays(8), 8)
        assert (len(cone.dual_rays), len(geometry.simplices(cone))) == (128, 5040)

    def test_caps_checked_while_the_work_runs(self, monkeypatch):
        # the dim-7 cross-polytope cone: 64 dual rays, at most 64 at any step, and 720 simplices
        rays = cross_rays(7)
        cone = dual_cone(rays, 7)
        monkeypatch.setattr(geometry, "MAX_DUAL_RAYS", 64)
        assert dual_cone(rays, 7) == cone
        monkeypatch.setattr(geometry, "MAX_DUAL_RAYS", 63)
        with pytest.raises(ExceedsSupportedSize, match="63 rays"):
            dual_cone(rays, 7)
        monkeypatch.setattr(geometry, "MAX_SIMPLICES", 720)
        assert len(triangulate_cone(cone.dual_rays, cone.rays)) == 720
        monkeypatch.setattr(geometry, "MAX_SIMPLICES", 719)
        with pytest.raises(ExceedsSupportedSize, match="719 simplices"):
            triangulate_cone(cone.dual_rays, cone.rays)


class TestGorensteinVector:
    def test_fixture_values(self, orthant2, orthant3, a1, conifold, y21):
        assert gorenstein_vector(orthant2).l == (1, 1)
        assert gorenstein_vector(orthant3).l == (1, 1, 1)
        assert gorenstein_vector(a1).l == (1, 0)
        assert gorenstein_vector(conifold).l == (1, 0, 0)
        assert gorenstein_vector(y21).l == (1, 0, 0)

    def test_pairing_is_one(self, fixture_cone):
        l = gorenstein_vector(fixture_cone).l
        for v in fixture_cone.rays:
            assert linalg.dot(v, l) == 1

    def test_interiority(self, fixture_cone):
        l = gorenstein_vector(fixture_cone).l
        assert fixture_cone.interior_contains(l) or any(
            linalg.dot(l, u) > 0 for u in fixture_cone.rays
        )
        # l lies in the dual cone's interior: positive against every ray
        assert all(linalg.dot(v, l) > 0 for v in fixture_cone.rays)

    def test_not_q_gorenstein(self):
        cone = dual_cone([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, -1)], 3)
        with pytest.raises(NotQGorenstein):
            gorenstein_vector(cone)

    def test_one_pivot_elimination_of_the_rays(self, monkeypatch, y21):
        # the Gorenstein solve reads the pivot inverse the double description started
        # from, and that one elimination both picks the pivot rays and inverts them
        calls = spy_on_eliminations(monkeypatch)
        clear_caches()
        cone = dual_cone(y21.rays, 3)
        assert gorenstein_vector(cone).l == (1, 0, 0)
        assert ray_eliminations(calls, cone.rays) == 1

    def test_redundant_ray_leaves_its_own_pivot_rows(self):
        # the double description eliminates the rays as given, the first two and a sum
        # of them dependent; the Gorenstein solve eliminates the rays dual_cone kept
        given = [(1, 0, 0), (1, 1, 1), (2, 1, 1), (1, 1, 0), (1, 0, 1)]
        clear_caches()
        with pytest.warns(RedundantRayWarning):
            cone = dual_cone(given, 3)
        assert (2, 1, 1) not in cone.rays
        assert gorenstein_vector(cone).l == (1, 0, 0)

    def test_boundary_coefficients(self, a1):
        l = gorenstein_vector(a1, boundary=(Fraction(1, 2), 0)).l
        assert linalg.dot(a1.rays[0], l) == Fraction(1, 2)
        assert linalg.dot(a1.rays[1], l) == 1

    def test_boundary_coefficient_range(self, a1):
        with pytest.raises(ValueError):
            gorenstein_vector(a1, boundary=(1, 0))
        with pytest.raises(ValueError):
            gorenstein_vector(a1, boundary=(Fraction(-1, 2), 0))

    def test_matches_fraction_solve(self):
        # the same l, as Fractions, and the same NotQGorenstein decision as a
        # Fraction elimination, on Q-Gorenstein and mostly non-Q-Gorenstein
        # suites, with no boundary, a random one (mostly inconsistent) and one
        # that a covector interior to sigma^v solves on every cone; the first
        # four rays of the cone over the 3-cube span only 3 dims, and the
        # hand-built cones, whose rays do not span, are degenerate
        from reebcone.geometry import ToricCone

        rng = random.Random(67)
        cones = [cone for cone, _ in random_cone_suite(seed=67, count=30, dims=(2, 3, 4, 5))]
        cones += [cone for cone, _, _ in random_box_cone_suite(seed=67, count=40)]
        assert sum(not is_q_gorenstein(cone) for cone in cones) == 22
        cones += [dual_cone(cube_rays(4), 4),
                  ToricCone(dim=2, rays=((1, 0),), dual_rays=((0, 1), (1, 0))),
                  ToricCone(dim=3, rays=((1, 0, 0), (0, 1, 0), (1, 1, 0)),
                            dual_rays=((1, 0, 0), (0, 1, 0)))]
        seen = set()
        for cone in cones:
            weights = [rng.randint(1, 5) for _ in cone.dual_rays]
            u = [linalg.dot(weights, col) for col in zip(*cone.dual_rays)]
            pairings = [linalg.dot(v, u) for v in cone.rays]
            for kind, boundary in (
                    ("none", None),
                    ("random", [Fraction(rng.randrange(4), 4) for _ in cone.rays]),
                    ("interior", [1 - Fraction(p, max(pairings)) for p in pairings])):
                rhs = [1] * len(cone.rays) if boundary is None else [1 - c for c in boundary]
                if fraction_rank(cone.rays) < cone.dim:
                    expected = DegenerateSolutionSet
                else:
                    expected = fraction_solve(cone.rays, rhs)  # None: no covector
                try:
                    got = gorenstein_vector(cone, boundary).l
                    assert all(type(x) is Fraction for x in got)
                except NotQGorenstein:
                    got = None
                except DegenerateSolutionSet:
                    got = DegenerateSolutionSet
                assert got == expected, (cone, boundary)
                seen.add((kind, "solved" if isinstance(got, tuple) else got,
                          is_q_gorenstein(cone) if got is not DegenerateSolutionSet else None))
        assert seen >= {("none", "solved", True), ("none", None, False),
                        ("random", None, True), ("random", None, False),
                        ("interior", "solved", True), ("interior", "solved", False),
                        ("none", DegenerateSolutionSet, None)}, seen

    def test_rational_gorenstein_index(self):
        # rays at height 2: l = (1/2, 0, ...) is rational, not integral
        cone = dual_cone([(2, -1), (2, 1)], 2)
        l = gorenstein_vector(cone).l
        assert l == (Fraction(1, 2), 0)


class TestReebVector:
    def test_interior_required(self, orthant2):
        with pytest.raises(UnboundedSlice):
            reeb_vector(orthant2, (1, 0))
        with pytest.raises(UnboundedSlice):
            reeb_vector(orthant2, (-1, 1))

    def test_normalized_flag(self, orthant2, a1):
        assert reeb_vector(orthant2, (Fraction(1, 2), Fraction(1, 2))).normalized
        assert not reeb_vector(orthant2, (1, 1)).normalized
        assert reeb_vector(a1, (1, Fraction(3, 2))).normalized  # <xi, (1,0)> = 1
        near = (Fraction(1, 2), Fraction(1, 2) + Fraction(1, 10 ** 12))
        assert not reeb_vector(orthant2, near).normalized  # exact: no tolerance
        # working precision: |<xi, l> - 1| against the default tolerance 1e-10
        assert reeb_vector(orthant2, (0.5, 0.5 + 2.0 ** -40)).normalized
        assert not reeb_vector(orthant2, (0.5, 0.5 + 2.0 ** -30)).normalized

    def test_no_slice_pass(self, monkeypatch, conifold):
        # the pairings and the Gorenstein vector decide everything
        calls = []
        monkeypatch.setattr(geometry, "_simplex_sums", counting(geometry._simplex_sums, calls))
        assert reeb_vector(conifold, (2, 1, 1)) == ReebVector(xi=(2, 1, 1), normalized=False)
        assert reeb_vector(conifold, (1.0, 0.5, 0.5)).normalized
        with pytest.raises(UnboundedSlice):
            reeb_vector(conifold, (1, 1, 0))
        not_q_gorenstein = dual_cone([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, -1)], 3)
        assert not reeb_vector(not_q_gorenstein, (3, 3, 1)).normalized
        assert calls == []

    def test_rationality(self, orthant2):
        assert {type(x) for x in reeb_vector(orthant2, (1, 2)).xi} == {Fraction}
        assert {type(x) for x in reeb_vector(orthant2, (1.0, mpmath.sqrt(2))).xi} == {mp_context().mpf}


class TestPolytopeQ:
    def test_orthant2_worked(self, orthant2):
        slice_ = polytope_Q(orthant2, (Fraction(1, 2), Fraction(1, 2)))
        assert slice_.volume_Q == 2
        assert slice_.bary_Q == (Fraction(2, 3), Fraction(2, 3))
        assert slice_.bary_P == (1, 1)

    def test_orthant3_worked(self, orthant3):
        slice_ = polytope_Q(orthant3, (Fraction(1, 3),) * 3)
        assert slice_.volume_Q == Fraction(9, 2)
        assert slice_.bary_Q == (Fraction(3, 4),) * 3
        assert slice_.bary_P == (1, 1, 1)

    def test_a1_worked(self, a1):
        slice_ = polytope_Q(a1, (1, 1))
        assert slice_.bary_P == (1, 0)
        assert slice_.volume_Q == 1
        slice_ = polytope_Q(a1, (1, Fraction(1, 2)))
        assert slice_.bary_P == (Fraction(2, 3), Fraction(2, 3))

    def test_conifold_critical(self, conifold):
        slice_ = polytope_Q(conifold, (1, Fraction(1, 2), Fraction(1, 2)))
        assert slice_.volume_Q == Fraction(8, 3)
        assert slice_.bary_P == (1, 0, 0)

    def test_barycenter_relation_random(self):
        suites = (random_cone_suite(seed=23, count=40)
                  + random_cone_suite(seed=29, count=20, dims=(6, 7, 8)))
        for cone, xi in suites:
            slice_ = polytope_Q(cone, xi)
            assert slice_.bary_P == reverse_bary_P(cone, xi)
            assert linalg.dot(xi, slice_.bary_P) == 1
            assert all(linalg.dot(v, slice_.bary_P) > 0 for v in cone.rays)

    def test_matches_fraction_oracle(self):
        rng = random.Random(41)
        cases = [(dual_cone(spec.rays, spec.dim), spec.xi) for spec in bundled_specs()]
        cases += random_cone_suite(seed=43, count=30, dims=(2, 3, 4, 5))
        cases += many_simplex_suite()
        cube7 = dual_cone([(1,) + e for e in itertools.product((0, 1), repeat=6)], 7)
        cases.append((cube7, random_interior_xi(cube7, rng)))
        for cone, _ in cases[:12] + [cases[-1]]:
            # common denominators of 31 digits and more
            weights = [Fraction(rng.randint(1, 9), 10 ** 30 + rng.randrange(10 ** 6)) for _ in cone.rays]
            xi = tuple(sum(w * v[a] for w, v in zip(weights, cone.rays)) for a in range(cone.dim))
            assert math.lcm(*(x.denominator for x in xi)) >= 10 ** 30
            cases.append((cone, xi))
        for cone, xi in cases:
            assert polytope_Q(cone, xi) == fraction_polytope_Q(cone, xi)

    def test_many_simplex_suite(self):
        # the dims 6-8 cones behind the kernel and face-sum tests are not simplicial
        suite = many_simplex_suite()
        assert {cone.dim for cone, _ in suite} == {6, 7, 8}
        assert min(len(geometry.simplices(cone)) for cone, _ in suite) >= 2
        for cone, xi in suite[:4]:
            assert polytope_Q(cone, xi).bary_P == reverse_bary_P(cone, xi)

    def test_mpf_path_matches_exact(self):
        ctx, rtol = mp_context(), series_rtol()
        cases = [(dual_cone(spec.rays, spec.dim), spec.xi) for spec in bundled_specs()]
        cases += random_cone_suite(seed=47, count=12, dims=(2, 3, 4, 5))
        cases += many_simplex_suite()[:6]
        for cone, xi in cases:
            exact = polytope_Q(cone, xi)
            approx = polytope_Q(cone, tuple(to_mpf(x, ctx) for x in xi))
            pairs = [(approx.volume_Q, exact.volume_Q)] + list(zip(approx.bary_P, exact.bary_P))
            for m, e in pairs:
                assert isinstance(m, ctx.mpf)
                e = to_mpf(e, ctx)
                assert abs(m - e) <= rtol * (1 + abs(e))

    def test_unbounded_slice(self, orthant2):
        with pytest.raises(UnboundedSlice):
            polytope_Q(orthant2, (1, 0))

    def test_scaling(self, conifold):
        xi = (1, Fraction(1, 3), Fraction(1, 2))
        s1 = polytope_Q(conifold, xi)
        s2 = polytope_Q(conifold, tuple(2 * x for x in xi))
        assert s2.volume_Q == s1.volume_Q / Fraction(2) ** conifold.dim
        assert s2.bary_Q == tuple(b / 2 for b in s1.bary_Q)

    def test_mpf_path_close_to_exact(self, conifold):
        xi = (1, Fraction(1, 2), Fraction(1, 2))
        exact = polytope_Q(conifold, xi)
        approx = polytope_Q(conifold, tuple(mpmath.mpf(str(float(x))) for x in xi))
        assert abs(float(approx.volume_Q) - float(exact.volume_Q)) < 1e-12
        for a, b in zip(approx.bary_P, exact.bary_P):
            assert abs(float(a) - float(b)) < 1e-12

    def test_mpf_path_with_rounding_residue(self):
        # At this xi an elimination over the scaled mpf vertices meets
        # entries that are rounding residue, not zero; pivoting on one of
        # them moved bary_P by 4.5e-3.
        cone = dual_cone([(1, -2, 4, -1), (7, -5, -14, -7), (1, -2, 4, 2),
                          (4, -2, -11, -4), (4, -2, -11, -1)], 4)
        xi = (3.6249999999994857, -2.7499999999996563,
              -6.124999999998803, -2.4999999999993197)
        exact = polytope_Q(cone, tuple(Fraction(x) for x in xi))
        with mpmath.workprec(128):
            approx = polytope_Q(cone, tuple(mpmath.mpf(x) for x in xi))
        assert abs(approx.volume_Q - exact.volume_Q) <= 1e-30
        for a, b in zip(approx.bary_P, exact.bary_P):
            assert abs(a - b) <= 1e-30


class TestBoundaryFaces:
    def test_faces_match_minors(self):
        cases = [(FIXTURE_MAKERS[name](), None) for name in sorted(FIXTURE_MAKERS)]
        cases += [(cone, xi) for cone, xi, _ in random_box_cone_suite(seed=13, count=20)]
        cases += [(cone, xi) for cone, xi in many_simplex_suite() if len(geometry.simplices(cone)) < 10]
        for cone, _ in cases:
            faces = geometry.boundary_faces(cone)
            for det, face in faces:
                assert len(face) == cone.dim - 1
                assert sum(all(linalg.dot(v, w) == 0 for w in face) for v in cone.rays) == 1
                assert det == minor_lattice_volume(face)
            # every facet of sigma^v gets at least one face
            for v in cone.rays:
                assert any(all(linalg.dot(v, w) == 0 for w in face) for _, face in faces)

    def test_square_cone(self, conifold):
        # four facets, each a 2-dim cone of lattice volume 1 split into one face
        faces = geometry.boundary_faces(conifold)
        assert sorted(det for det, _ in faces) == [1, 1, 1, 1]


class TestTriangulation:
    def test_conifold_two_simplices(self, conifold):
        fwd = triangulate_cone(conifold.dual_rays, conifold.rays)
        last = len(conifold.dual_rays) - 1
        rev = tuple(
            tuple(last - i for i in simplex)
            for simplex in triangulate_cone(conifold.dual_rays[::-1], conifold.rays)
        )
        assert len(fwd) == 2 and len(rev) == 2
        assert set(fwd) != set(rev)  # genuinely different triangulations
        for tri in (fwd, rev):
            total = sum(
                abs(fraction_det([list(conifold.dual_rays[i]) for i in simplex]))
                for simplex in tri
            )
            assert total == 2  # lattice volume of the square cone

    def test_simplex_passthrough(self, orthant2):
        tri = triangulate_cone(orthant2.dual_rays, orthant2.rays)
        assert tri == ((0, 1),)

    def test_redundant_normals(self):
        # a sum of two rays of sigma is valid on sigma^v but cuts out no new facet
        cones = [make_conifold(), make_kgon(8, 3), dual_cone(cube_rays(5), 5)]
        cones += [cone for cone, _ in many_simplex_suite()[:4]]
        for cone in cones:
            normals = cone.rays + tuple(pair_sums(cone.rays))
            tri = triangulate_cone(cone.dual_rays, cone.rays)
            assert len(tri) > 1
            assert triangulate_cone(cone.dual_rays, normals) == tri
            facet = [u for u in cone.dual_rays if linalg.dot(cone.rays[0], u) == 0]
            assert triangulate_cone(facet, normals) == triangulate_cone(facet, cone.rays)

    def test_rays_of_unequal_lengths(self):
        # a ValueError, not a raw IndexError from the rank of ragged rows
        with pytest.raises(ValueError, match="rays of unequal lengths"):
            triangulate_cone([(0, 0, 1), (0, 1), (1, -1, 0)], [])

    def test_faces_by_incidence(self, monkeypatch):
        # the cone over the 6-cube: rank gives the dimension at the top of the
        # triangulation; pointedness and every face are bitmasks
        calls = []
        monkeypatch.setattr(linalg, "rank", counting(linalg.rank, calls))
        geometry.simplices.cache_clear()
        geometry.simplices(dual_cone(cube_rays(7), 7))
        assert len(calls) == 1

    def test_one_triangulation_per_cone(self, monkeypatch):
        calls = []
        monkeypatch.setattr(geometry, "triangulate_cone", counting(geometry.triangulate_cone, calls))
        eliminations = spy_on_eliminations(monkeypatch)
        clear_caches()
        # from the start of the op: dual_cone eliminates the rays that the Gorenstein solve reads
        cone = dual_cone([(1, 0, 0), (1, 3, 0), (1, 2, 2), (1, 0, 1)], 3)
        xi = (3, Fraction(3, 2), Fraction(3, 4))
        polytope_Q(cone, xi)
        delta(cone, xi)
        decompose_dual(cone)
        futaki_product(cone, xi, (0, 1, 0))
        minimize_volume(cone)
        assert len(calls) == 1
        # the double description and a Gorenstein solve start from the pivot inverse of the rays
        assert ray_eliminations(eliminations, cone.rays) == 1  # one elimination of the rays per cone


class TestCacheRetention:
    def test_caches_let_go_of_earlier_cones(self):
        # every per-cone cache is bounded, so a cone no op works on any
        # longer is freed however many cones a process has seen: a cone is a
        # tuple, which takes no weak reference, so its references are counted,
        # and only this frame's name and getrefcount's argument remain
        def work(cone, xi, eta):
            polytope_Q(cone, xi)
            delta(cone, xi)
            futaki_product(cone, xi, eta)
            index_character(decompose_dual(cone), xi, order=2)
            minimize_volume(cone)

        cone = dual_cone([(1, 0, 0), (1, 5, 0), (1, 2, 3), (1, 0, 1)], 3)
        work(cone, (4, 7, 4), (0, 1, 0))
        for k in range(1, 101):
            work(dual_cone([(1, 0), (1, k)], 2), (2, k), (0, 1))
        gc.collect()
        assert sys.getrefcount(cone) == 2


class TestPrecisionSetting:
    @pytest.mark.parametrize("raw", ["12x", "40", str(config.MAX_PRECISION + 1)])
    def test_out_of_range_is_refused(self, monkeypatch, y21, raw):
        # outside input: below 53 bits the float paths lose accuracy, and past
        # the cap a single call can run for more than a minute
        monkeypatch.setenv("REEBCONE_PRECISION", raw)
        with pytest.raises(InputError, match="REEBCONE_PRECISION"):
            polytope_Q(y21, (1.0, 0.5, 0.5))

    def test_range_ends_are_accepted(self, monkeypatch):
        for raw, bits in (("", 128), ("53", 53), (str(config.MAX_PRECISION), config.MAX_PRECISION)):
            monkeypatch.setenv("REEBCONE_PRECISION", raw)
            assert config.precision_bits() == bits


class TestSetUpPaidOnce:
    def test_one_mp_context_per_precision(self, monkeypatch):
        clones = []
        clone = mpmath.mp.clone

        def counting():
            clones.append(None)
            return clone()

        monkeypatch.setattr(mpmath.mp, "clone", counting)
        monkeypatch.delenv("REEBCONE_PRECISION", raising=False)
        config._context.cache_clear()
        cone = dual_cone([(1, 0, 0), (1, 1, 0), (1, 2, 2), (1, 0, 1)], 3)

        def mpf_calls():
            xi_star = minimize_volume(cone).xi_star
            delta(cone, xi_star.xi)
            index_character(decompose_dual(cone), xi_star.xi, order=2)
            return xi_star

        assert not any(isinstance(x, Fraction) for x in mpf_calls().xi)
        assert len(clones) == 1
        monkeypatch.setenv("REEBCONE_PRECISION", "160")
        mpf_calls()
        assert len(clones) == 2
        assert mp_context().prec == 160
        monkeypatch.delenv("REEBCONE_PRECISION")
        mpf_calls()
        assert len(clones) == 2
        assert mp_context().prec == 128


class TestLatticePoints:
    def test_orthant2_m1_m2(self, orthant2):
        assert lattice_points(orthant2, (1, 1), 1) == ((0, 0), (0, 1), (1, 0))
        pts = lattice_points(orthant2, (1, 1), 2)
        assert set(pts) == {(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)}

    def test_a1_m2(self, a1):
        # constraints u1 >= 0, u1 + 2 u2 >= 0, u1 + u2 <= 2
        pts = lattice_points(a1, (1, 1), 2)
        assert set(pts) == {
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1),
            (2, -1), (2, 0), (3, -1), (4, -2),
        }

    def test_points_satisfy_constraints(self, conifold):
        xi = (1, Fraction(1, 2), Fraction(1, 2))
        for u in lattice_points(conifold, xi, 3):
            assert all(linalg.dot(v, u) >= 0 for v in conifold.rays)
            assert linalg.dot(xi, u) <= 3

    def test_count_grows_like_volume(self, conifold):
        # leading Ehrhart term: #(mQ) ~ vol(Q) m^n
        xi = (1, Fraction(1, 2), Fraction(1, 2))
        vol = polytope_Q(conifold, xi).volume_Q
        m = 20
        count = len(lattice_points(conifold, xi, m))
        assert abs(count / m**3 - float(vol)) < 0.6

    def test_scan_cap_at_its_exact_value(self, monkeypatch, y21):
        # y21 at its spec xi and level 20: 3,321 prefixes and 19,861 points
        xi = (1, Fraction(1, 3), Fraction(2, 3))
        monkeypatch.setattr(lattice, "MAX_LATTICE_SCAN", 3321)
        assert len(lattice.lattice_rows(y21, xi, 20)[0]) <= 3321
        monkeypatch.setattr(lattice, "MAX_LATTICE_SCAN", 3320)
        with pytest.raises(ExceedsSupportedSize, match="3321 prefixes"):
            lattice.lattice_rows(y21, xi, 20)
        monkeypatch.setattr(lattice, "MAX_LATTICE_SCAN", 19861)
        assert len(lattice_points(y21, xi, 20)) == 19861
        monkeypatch.setattr(lattice, "MAX_LATTICE_SCAN", 19860)
        with pytest.raises(ExceedsSupportedSize, match="19861 lattice points"):
            lattice_points(y21, xi, 20)

    def test_irrational_xi_rejected(self, orthant2):
        with pytest.raises(IrrationalReeb):
            lattice_points(orthant2, (1.0, float(mpmath.sqrt(2))), 2)

    def test_fractional_xi_exact(self, a1):
        # denominators are cleared internally, not rounded: (0, 2) sits
        # exactly on the boundary <xi, u> = 1 and must be included
        pts_half = lattice_points(a1, (1, Fraction(1, 2)), 1)
        assert set(pts_half) == {(0, 0), (0, 1), (0, 2), (1, 0)}


class TestImmutability:
    def test_frozen_types(self, orthant2):
        with pytest.raises(AttributeError):
            orthant2.dim = 5
        l = gorenstein_vector(orthant2)
        with pytest.raises(AttributeError):
            l.l = (0, 0)

    def test_degenerate_solution_set_direct(self):
        # unreachable through dual_cone (cones are validated full-dimensional
        # first), so exercised on hand-made degenerate instances; the span is
        # checked before the rays, so rays that no covector pairs to 1 with
        # (the second cone) are degenerate too
        from reebcone.geometry import ToricCone

        for cone in (ToricCone(dim=2, rays=((1, 0),), dual_rays=((0, 1), (1, 0))),
                     ToricCone(dim=3, rays=((1, 0, 0), (0, 1, 0), (1, 1, 0)),
                               dual_rays=((1, 0, 0), (0, 1, 0)))):
            with pytest.raises(DegenerateSolutionSet, match="rays span a subspace of dimension"):
                gorenstein_vector(cone)

    def test_gorenstein_vector_type(self, orthant2):
        assert isinstance(gorenstein_vector(orthant2), GorensteinVector)
