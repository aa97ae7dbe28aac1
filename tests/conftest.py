"""Shared fixtures: the worked cones and randomized cone generators.

Random cones are built as cones over lattice polytopes at height one
(so a Gorenstein vector always exists) and then pushed through a
random unimodular change of basis, which preserves every invariant
under test while scrambling the coordinates.
"""

import random
import warnings
from fractions import Fraction

import pytest

from reebcone import ReebconeWarning, dual_cone, triangulate_cone
from reebcone.linalg import det, dot, mat_vec, transpose


def make_orthant2():
    return dual_cone([(1, 0), (0, 1)], 2)


def make_orthant3():
    return dual_cone([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)


def make_a1():
    return dual_cone([(1, 0), (1, 2)], 2)


def make_conifold():
    return dual_cone([(1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 0, 1)], 3)


def make_y21():
    return dual_cone([(1, 0, 0), (1, 1, 0), (1, 2, 2), (1, 0, 1)], 3)


FIXTURE_MAKERS = {
    "orthant2": make_orthant2,
    "orthant3": make_orthant3,
    "a1": make_a1,
    "conifold": make_conifold,
    "y21": make_y21,
}


@pytest.fixture
def orthant2():
    return make_orthant2()


@pytest.fixture
def orthant3():
    return make_orthant3()


@pytest.fixture
def a1():
    return make_a1()


@pytest.fixture
def conifold():
    return make_conifold()


@pytest.fixture
def y21():
    return make_y21()


@pytest.fixture(params=sorted(FIXTURE_MAKERS))
def fixture_cone(request):
    return FIXTURE_MAKERS[request.param]()


def unimodular_matrix(rng: random.Random, n: int):
    """Random element of GL(n, Z) as a product of shears and swaps."""
    mat = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if n > 1 and rng.random() < 0.8:
            c = rng.choice([-2, -1, 1, 2])
            for k in range(n):
                mat[i][k] += c * mat[j][k]
        elif n > 1:
            mat[i], mat[j] = [-x for x in mat[j]], mat[i]
    return [tuple(row) for row in mat]


def apply_unimodular(cone, mat):
    """The same cone in the transformed basis (rays mapped by ``mat``)."""
    rays = [tuple(mat_vec(mat, v)) for v in cone.rays]
    return dual_cone(rays, cone.dim)


def covector_transform(mat, u):
    """How dual vectors move: by the inverse-transpose, i.e. solve M^T x = u."""
    from reebcone.linalg import inverse

    inv_t = transpose(inverse([list(r) for r in mat]))
    return tuple(mat_vec(inv_t, u))


def random_height_one_cone(rng: random.Random, dim: int, transformed: bool = True):
    """Cone over a random lattice polytope at height one in Z^dim.

    The rays (1, w) with w drawn from a small box always admit the
    Gorenstein vector (1, 0, ..., 0); a subsequent unimodular change
    of basis hides the special coordinate.
    """
    k = dim - 1
    points = {(0,) * k}
    for i in range(k):
        points.add(tuple(3 if i == j else 0 for j in range(k)))
    while len(points) < k + 1 + rng.randrange(3):
        points.add(tuple(rng.randrange(0, 4) for _ in range(k)))
    rays = [(1,) + w for w in sorted(points)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ReebconeWarning)
        cone = dual_cone(rays, dim)
        if transformed:
            cone = apply_unimodular(cone, unimodular_matrix(rng, dim))
    return cone


def random_interior_xi(cone, rng: random.Random):
    """Random rational point in the interior of sigma."""
    weights = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in cone.rays]
    return tuple(
        sum(w * v[a] for w, v in zip(weights, cone.rays))
        for a in range(cone.dim)
    )


def random_cone_suite(seed: int, count: int, dims=(2, 3)):
    """Deterministic stream of (cone, xi) pairs for property tests."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        dim = rng.choice(list(dims))
        cone = random_height_one_cone(rng, dim)
        out.append((cone, random_interior_xi(cone, rng)))
    return out


def reverse_bary_P(cone, xi):
    """Exact barycenter of P_xi = {u in sigma^v : <xi, u> = 1}, as an oracle.

    Independent of the library's triangulation: sigma^v is triangulated with
    its dual rays in reverse order, each simplex's rays are scaled onto
    <xi, u> = 1, and each facet simplex's centroid is weighted by the
    |det| of its scaled vertices (its area up to a common factor).
    """
    duals = cone.dual_rays[::-1]
    scaled = [tuple(Fraction(x) / dot(xi, u) for x in u) for u in duals]
    area = 0
    moment = [0] * cone.dim
    for simplex in triangulate_cone(duals, cone.rays):
        w = [scaled[i] for i in simplex]
        area_k = abs(det(w))
        area += area_k
        moment = [acc + area_k * sum(col) / cone.dim
                  for acc, col in zip(moment, zip(*w))]
    return tuple(m / area for m in moment)
