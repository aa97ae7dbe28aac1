"""Shared fixtures: the worked cones and randomized cone generators.

Random cones are built as cones over lattice polytopes at height one
(so a Gorenstein vector always exists) and then pushed through a
random unimodular change of basis, which preserves every invariant
under test while scrambling the coordinates.
"""

import functools
import importlib
import itertools
import math
import operator
import pkgutil
import random
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import reebcone
from reebcone import (
    NonConvergent,
    PolytopeSlice,
    ReebconeError,
    ReebconeWarning,
    StabilityReport,
    UnboundedSlice,
    dual_cone,
    polytope_Q,
    reeb_vector,
    toric_valuation,
    triangulate_cone,
)
from reebcone import linalg
from reebcone.cli import parse_cone_spec
from reebcone.config import mp_context, precision_bits, ratio_type
from reebcone.geometry import (LaurentSeries, _simplex_sums, _slice_pairings, boundary_faces,
                               gorenstein_vector, reeb_numerators, simplices)
from reebcone.linalg import dot, transpose
from reebcone.optimize import GridResult, _chart, _compositions, _ray_average


def clear_caches():
    """Empty every ``functools`` cache of the package, so that a test counting an
    op's work sees a cold op, whatever the tests before it computed."""
    for info in pkgutil.iter_modules(reebcone.__path__):
        module = importlib.import_module("reebcone." + info.name)
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def series_rtol() -> float:
    """Relative tolerance of mpf character coefficients (24 bits for the long box sums)."""
    return 2.0 ** (24 - precision_bits())


def to_mpf(x, ctx=None):
    """Coerce ``x`` (int, Fraction, float, mpf) to an mpf in ``ctx``, by
    default :func:`reebcone.config.mp_context`.

    Fractions are converted as numerator/denominator so no precision is
    lost before the final division.
    """
    if ctx is None:
        ctx = mp_context()
    if isinstance(x, Fraction):
        return ctx.mpf(x.numerator) / ctx.mpf(x.denominator)
    return ctx.mpf(x)


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


def bundled_specs():
    """The parsed specs under ``src/reebcone/specs``."""
    spec_dir = Path(__file__).resolve().parents[1] / "src" / "reebcone" / "specs"
    return [parse_cone_spec(path.read_text(encoding="utf-8"))
            for path in sorted(spec_dir.glob("*.json"))]


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


def mat_vec(rows, x):
    """The matrix-vector product, for the basis changes of the tests."""
    return tuple(dot(row, x) for row in rows)


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


def fraction_det(rows):
    """Determinant by Fraction Gaussian elimination, as an oracle for ``linalg.det``."""
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    if any(len(row) != n for row in a):
        raise ValueError("determinant of a non-square matrix")
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            result = -result
        result *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                factor = a[r][col] * inv
                for c in range(col, n):
                    a[r][c] -= factor * a[col][c]
    return result


def fraction_rank(rows):
    """Rank by Fraction Gaussian elimination, as an oracle for ``linalg.rank``."""
    a = [[Fraction(x) for x in row] for row in rows]
    if not a:
        return 0
    m, n = len(a), len(a[0])
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, m) if a[i][col] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = 1 / a[r][col]
        for i in range(r + 1, m):
            if a[i][col] != 0:
                factor = a[i][col] * inv
                for c in range(col, n):
                    a[i][c] -= factor * a[r][c]
        r += 1
        if r == m:
            break
    return r


def brute_force_dual_cone(rays, dim):
    """``(rays, dual_rays, dropped)`` of ``dual_cone`` by brute force, as an oracle.

    For a full-dimensional pointed cone: every (n-1)-subset of the distinct
    primitive rays of rank n-1 has a normal, the cofactors of its minors
    (``linalg.det``, itself checked against ``fraction_det``); the facets
    are the primitive normals that are >= 0 on all rays.  A ray is extreme
    when the facets through it have rank n-1 (``fraction_rank``), and
    ``dropped`` counts the duplicate and non-extreme rays, one
    ``RedundantRayWarning`` each.
    """
    prim = [tuple(x // math.gcd(*ray) for x in ray) for ray in rays]
    unique = list(dict.fromkeys(prim))
    facets = set()
    for subset in itertools.combinations(unique, dim - 1):
        normal = [(-1) ** j * linalg.det([[v[i] for i in range(dim) if i != j] for v in subset])
                  for j in range(dim)]
        if not any(normal):
            continue
        g = math.gcd(*normal)
        for sign in (1, -1):
            u = tuple(sign * x // g for x in normal)
            if all(dot(u, v) >= 0 for v in unique):
                facets.add(u)
    kept = tuple(v for v in unique
                 if fraction_rank([u for u in facets if dot(u, v) == 0]) == dim - 1)
    return kept, tuple(sorted(facets)), len(prim) - len(kept)


def fraction_solve(rows, rhs):
    """Solve A x = b by Fraction Gauss-Jordan elimination, as an oracle for
    ``gorenstein_vector``: None when no x solves it, ValueError when more
    than one x does."""
    m = len(rows)
    if m != len(rhs):
        raise ValueError("row/rhs length mismatch")
    n = len(rows[0]) if m else 0
    a = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, m) if a[i][col] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = 1 / a[r][col]
        a[r] = [x * inv for x in a[r]]
        for i in range(m):
            if i != r and a[i][col] != 0:
                factor = a[i][col]
                a[i] = [x - factor * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
    if any(a[i][n] != 0 for i in range(r, m)):
        return None
    if len(pivots) < n:
        raise ValueError("solution set is positive-dimensional")
    x = [Fraction(0)] * n
    for i, col in enumerate(pivots):
        x[col] = a[i][n]
    return tuple(x)


def fraction_inverse(mat):
    """Exact inverse of a nonsingular matrix, one Fraction solve per column."""
    n = len(mat)
    return transpose([fraction_solve(mat, [int(i == j) for i in range(n)]) for j in range(n)])


def random_height_one_cone(rng: random.Random, dim: int, transformed: bool = True,
                           extra_points: int = 0):
    """Cone over a random lattice polytope at height one in Z^dim.

    The rays (1, w) with w drawn from a small box always admit the
    Gorenstein vector (1, 0, ..., 0); a subsequent unimodular change
    of basis hides the special coordinate.  The polytope has the dim
    vertices of a simplex and up to two random points; ``extra_points``
    draws that many more, which in dims 6-8 turns mostly simplicial cones
    into cones of many simplices (the default keeps every existing suite).
    """
    k = dim - 1
    points = {(0,) * k}
    for i in range(k):
        points.add(tuple(3 if i == j else 0 for j in range(k)))
    while len(points) < k + 1 + rng.randrange(3) + extra_points:
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


def make_kgon(k: int, radius: int):
    """Cone over the hull of a regular k-gon's rounded vertices, at height one."""
    points = sorted({
        (round(radius * math.cos(2 * math.pi * j / k)),
         round(radius * math.sin(2 * math.pi * j / k)))
        for j in range(k)
    })
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ReebconeWarning)
        return dual_cone([(1,) + p for p in points], 3)


def random_cone_suite(seed: int, count: int, dims=(2, 3), extra_points: int = 0):
    """Deterministic stream of (cone, xi) pairs for property tests."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        dim = rng.choice(list(dims))
        cone = random_height_one_cone(rng, dim, extra_points=extra_points)
        out.append((cone, random_interior_xi(cone, rng)))
    return out


@functools.lru_cache(maxsize=None)
def many_simplex_suite():
    """Dims 6-8 height-one cones with two extra points each: every cone has
    at least 4 simplices (the default suite of seed 29 has 10 of 20 with one)."""
    return tuple(random_cone_suite(seed=29, count=20, dims=(6, 7, 8), extra_points=2))


def random_box_cone_suite(seed: int, count: int, dims=(2, 3, 4, 5), high: int = 3):
    """(cone, xi, eta) triples on cones spanned by random rays in [0, high]^dim.

    Unlike the height-one cones these are mostly not Q-Gorenstein.  Draws
    whose rays do not span Z^dim's ambient space are drawn again.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        dim = rng.choice(list(dims))
        rays = [tuple(rng.randint(0, high) for _ in range(dim))
                for _ in range(dim + rng.randrange(1, 4))]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ReebconeWarning)
                cone = dual_cone(rays, dim)
        except ReebconeError:
            continue
        eta = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(dim))
        out.append((cone, random_interior_xi(cone, rng), eta))
    return out


def is_q_gorenstein(cone):
    """Whether one rational covector pairs to 1 with every ray, by ``fraction_solve``."""
    return fraction_solve(cone.rays, [1] * len(cone.rays)) is not None


def fraction_polytope_Q(cone, xi):
    """Q_xi by one Fraction division per simplex and factor, as an oracle.

    Over the library's triangulation, the simplex over U_k has weight
    w_k = |det U_k| / prod_i <xi, u_i> and vertex sum s_k = sum_i u_i /
    <xi, u_i>; vol = sum w_k / n!, bary_Q = sum w_k s_k / ((n+1) sum w_k)
    and bary_P = sum w_k s_k / (n sum w_k).  Rational xi only.
    """
    vec = tuple(Fraction(x) for x in xi)
    n = cone.dim
    pairings = {u: dot(vec, u) for u in cone.dual_rays}
    scaled = {u: tuple(x / c for x in u) for u, c in pairings.items()}
    total = 0
    moment = [0] * n
    for det, gens in simplices(cone):
        w_k = Fraction(det)
        for u in gens:
            w_k = w_k / pairings[u]
        total = total + w_k
        vertex_sum = [sum(col) for col in zip(*(scaled[u] for u in gens))]
        moment = [acc + w_k * s for acc, s in zip(moment, vertex_sum)]
    return PolytopeSlice(
        volume_Q=total / math.factorial(n),
        bary_Q=tuple(m / ((n + 1) * total) for m in moment),
        bary_P=tuple(m / (n * total) for m in moment),
    )


def fraction_grid_oracle(cone, resolution):
    """The GridResult of ``grid_search_oracle``, one Fraction ``polytope_Q`` per sample.

    Values every sample ``sum k_i v_i / resolution`` of the slice grid as
    ``n vol(Q_xi)`` in Fractions, skips those on the boundary of sigma, and
    keeps the first minimum in ``_compositions`` order.
    """
    d, n = len(cone.rays), cone.dim
    best_value = best_xi = None
    for weights in _compositions(resolution, d):
        xi = _ray_average(cone, weights)
        try:
            value = n * polytope_Q(cone, xi).volume_Q
        except UnboundedSlice:
            continue
        if best_value is None or value < best_value:
            best_value, best_xi = value, xi
    if best_value is None:
        raise NonConvergent("no interior grid point at resolution %d" % resolution)
    return GridResult(xi=best_xi, value=best_value, samples=math.comb(resolution + d - 1, d - 1))


def fraction_full_objective(cone, xi):
    """Value, gradient and Hessian of a0 in the full coordinates xi, as an oracle.

    One Fraction term per simplex of the library's triangulation: with
    vol_k = |det U_k| / ((n-1)! prod_i c_i) and c_i = <xi, u_i>, the value
    is sum vol_k, the gradient -sum vol_k s_k with s_k = sum_i u_i / c_i and
    the Hessian sum vol_k (s_k s_k^T + sum_i u_i u_i^T / c_i^2).  Rational
    xi only.
    """
    xi = tuple(Fraction(x) for x in xi)
    n = cone.dim
    value = Fraction(0)
    grad = [Fraction(0)] * n
    hess = [[Fraction(0)] * n for _ in range(n)]
    for det, gens in simplices(cone):
        cs = [dot(xi, u) for u in gens]
        vol_k = Fraction(det, math.factorial(n - 1))
        for c in cs:
            vol_k /= c
        s_k = [sum(u[a] / c for u, c in zip(gens, cs)) for a in range(n)]
        value += vol_k
        for a in range(n):
            grad[a] -= vol_k * s_k[a]
            for b in range(n):
                hess[a][b] += vol_k * (s_k[a] * s_k[b]
                                       + sum(u[a] * u[b] / (c * c) for u, c in zip(gens, cs)))
    return value, tuple(grad), tuple(map(tuple, hess))


def fraction_embed(cone, coords):
    """The exact point of the slice <xi, l> = 1 with xi_free = coords, in the
    chart of ``optimize.volume_objective``."""
    _, pivot, free = _chart(cone)[:3]
    l = gorenstein_vector(cone).l
    xi = [Fraction(0)] * cone.dim
    for j, c in zip(free, coords):
        xi[j] = Fraction(c)
    xi[pivot] = (1 - dot(l, xi)) / l[pivot]
    return tuple(xi)


def fraction_chart(cone, grad, hess):
    """A full-coordinate gradient and Hessian in the chart of
    ``optimize.volume_objective``, exactly: with E the Jacobian of coords ->
    xi, the gradient is E^T grad and the Hessian E^T H E."""
    _, pivot, free = _chart(cone)[:3]
    l = gorenstein_vector(cone).l
    columns = []  # the columns of E
    for j in free:
        col = [Fraction(0)] * cone.dim
        col[j] = Fraction(1)
        col[pivot] = -l[j] / l[pivot]
        columns.append(col)
    return (
        tuple(dot(col, grad) for col in columns),
        tuple(tuple(dot(a, mat_vec(hess, b)) for b in columns) for a in columns),
    )


def fraction_volume_objective(cone, coords):
    """:func:`fraction_full_objective` in the chart of ``optimize.volume_objective``,
    at the point :func:`fraction_embed`, all exact."""
    value, grad, hess = fraction_full_objective(cone, fraction_embed(cone, coords))
    return (value, *fraction_chart(cone, grad, hess))


def fraction_positive_definite(mat):
    """Whether a symmetric Fraction matrix is positive definite, by an exact
    LDL^T elimination whose pivots must all be positive."""
    rows = [list(row) for row in mat]
    for j in range(len(rows)):
        pivot = rows[j][j]
        if pivot <= 0:
            return False
        for i in range(j + 1, len(rows)):
            factor = rows[i][j] / pivot
            rows[i] = [a - factor * b for a, b in zip(rows[i], rows[j])]
    return True


def minor_lattice_volume(face):
    """Lattice volume of n-1 vectors of Z^n in the hyperplane they span.

    The gcd of their maximal minors: the minors are the coordinates of a
    normal vector c with det(face, x) = <c, x>, c = lambda v for the
    primitive normal v, and |lambda| = |det(face, e)| for <v, e> = 1.
    """
    n = len(face) + 1
    minors = [int(fraction_det([[row[j] for j in range(n) if j != skip] for row in face]))
              for skip in range(n)]
    return math.gcd(*minors)


def minor_futaki_coefficients(cone, xi, eta):
    """(a0, a1, b0, b1) of the Futaki invariant, as an oracle.

    a0 = n vol and b0 = a0 <eta, bary_P> come from :func:`fraction_polytope_Q`.
    For a1 and b1 every facet sigma^v cap v_i^perp is triangulated on its
    own (its dual rays in reverse order), each face W of it has volume
    ``minor_lattice_volume(W) / ((n-1)! prod_w <xi, w>)``, and
    a1 = (n-1)! / (2 max(n-2, 0)!) sum vol(W), which is (n-1)/2 sum vol(W)
    from n = 2 on and 1/2 at n = 1 (one empty face), and
    b1 = 1/2 sum vol(W) sum_w <eta, w> / <xi, w>.
    """
    xi = tuple(Fraction(x) for x in xi)
    eta = tuple(Fraction(x) for x in eta)
    n = cone.dim
    q = fraction_polytope_Q(cone, xi)
    a0 = n * q.volume_Q
    b0 = a0 * dot(eta, q.bary_P)
    volume, weighted = Fraction(0), Fraction(0)
    for v in cone.rays:
        facet = [u for u in cone.dual_rays[::-1] if dot(v, u) == 0]
        for simplex in triangulate_cone(facet, cone.rays):
            face = [facet[i] for i in simplex]
            vol = Fraction(minor_lattice_volume(face), math.factorial(n - 1))
            for w in face:
                vol /= dot(xi, w)
            volume += vol
            weighted += vol * sum(dot(eta, w) / dot(xi, w) for w in face)
    a1 = Fraction(math.factorial(n - 1), 2 * math.factorial(max(n - 2, 0))) * volume
    return a0, a1, b0, weighted / 2


def faces_futaki_coefficients(cone, xi, eta):
    """``(F, C)`` of ``futaki_coefficients`` by the boundary-faces route on any cone.

    The library sums :func:`reebcone.geometry.boundary_faces` only where no
    Gorenstein vector exists; this sums them everywhere, as the second
    route on Q-Gorenstein cones: a1 = d^(n-1) T_F / (2 L_F) and b1 = d^n
    <eta_num, M_F> / (2 e L_F^2) from the slice kernel over the faces, a0
    and b0 from it over :func:`simplices`, each one int ratio (an mpf of
    the working precision unless xi and eta are exact).
    """
    n = cone.dim
    pairs, exact = reeb_numerators(n, xi, eta)
    (xi_num, d), (eta_num, e), ratio = pairs[0], pairs[1], ratio_type(exact)
    pairings = _slice_pairings(cone, xi_num)
    t_s, m_s, l_s = _simplex_sums(simplices(cone), pairings, exact)
    t_f, m_f, l_f = _simplex_sums(boundary_faces(cone), pairings, exact)
    return (LaurentSeries(-n, (ratio(d ** n * t_s, l_s), ratio(d ** (n - 1) * t_f, 2 * l_f)),
                          n, "index"),
            LaurentSeries(-(n + 1), (ratio(d ** (n + 1) * dot(eta_num, m_s), e * l_s ** 2),
                                     ratio(d ** n * dot(eta_num, m_f), 2 * e * l_f ** 2)),
                          n, "weight"))


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
        area_k = abs(fraction_det(w))
        area += area_k
        moment = [acc + area_k * sum(col) / cone.dim
                  for acc, col in zip(moment, zip(*w))]
    return tuple(m / area for m in moment)


def rescaled_delta(cone, xi, boundary=None):
    """The stability report of ``delta`` by rescaling xi, as an oracle.

    xi is divided by <xi, l> in Fractions, ``polytope_Q`` gives bary_P at
    that point of the slice, and delta is the least ratio <v_i, l> /
    <v_i, bary_P> over the rays; ``delta`` itself works at xi by
    homogeneity.  Rational xi only.
    """
    l = gorenstein_vector(cone, boundary=boundary)
    vec = tuple(Fraction(x) for x in xi)
    scale = dot(vec, l.l)
    bary_P = polytope_Q(cone, tuple(x / scale for x in vec)).bary_P
    ratios = [dot(v, l.l) / dot(v, bary_P) for v in cone.rays]
    low = min(ratios)
    residual = max(abs(b - x) for b, x in zip(bary_P, l.l))
    return StabilityReport(
        delta=low,
        delta_prime=min(Fraction(1), low),
        bary_P=bary_P,
        gorenstein=l,
        minimizing_rays=tuple(i for i, r in enumerate(ratios) if r == low),
        kss=residual == 0,
        residual=residual,
        scale=scale,
    )


def polytope_s_value(cone, xi, v):
    """S(v) = <v, bary_Q> through ``reeb_vector`` and ``polytope_Q``, as an oracle.

    A dot product with the barycenter that ``polytope_Q`` returns, where
    ``s_value`` forms one int ratio of the slice sums: in Fractions for
    rational xi, in mpf arithmetic on the rounded barycenter otherwise.
    """
    val = toric_valuation(cone, v)
    return dot(val.v, polytope_Q(cone, reeb_vector(cone, xi).xi).bary_Q)


def polytope_s_prime(cone, xi, v):
    """S'(v) = A(xi) <v, bary_P> by the route of :func:`polytope_s_value`."""
    val = toric_valuation(cone, v)
    rv = reeb_vector(cone, xi)
    l = gorenstein_vector(cone)
    return dot(rv.xi, l.l) * dot(val.v, polytope_Q(cone, rv.xi).bary_P)


def polytope_ratio_profile(cone, xi, v, t_values):
    """The ``(t, f(t))`` pairs of ``ratio_profile`` from :func:`polytope_s_prime`.

    Each t is coerced to the scalar of the call, a Fraction for rational xi
    and an mpf of the working precision otherwise, and f(t) = (A(v) + t
    A(xi)) / (S'(v) + t A(xi)) is evaluated in that scalar.
    """
    val = toric_valuation(cone, v)
    l = gorenstein_vector(cone)
    rv = reeb_vector(cone, xi)
    exact = all(isinstance(x, Fraction) for x in rv.xi)
    scalar = Fraction if exact else functools.partial(to_mpf, ctx=mp_context())
    a_v = scalar(dot(val.v, l.l))
    a_xi = dot(rv.xi, l.l)
    sp = polytope_s_prime(cone, rv, val.v)
    out = []
    for t in t_values:
        tt = scalar(t)
        den = sp + tt * a_xi
        if den <= 0:
            raise UnboundedSlice("ratio profile hit a nonpositive denominator")
        out.append((tt, (a_v + tt * a_xi) / den))
    return tuple(out)


def brute_lattice_points(cone, xi, level):
    """Lattice points u of sigma^v with <xi, u> <= level, as an oracle.

    Independent of the library's row scan: nested loops over the exact
    bounding box of level * Q_xi, which is the hull of the origin and the
    dual rays scaled onto <xi, u> = level, with a Fraction membership test
    for every cell.  Points come out in lexicographic order.
    """
    xi = tuple(Fraction(x) for x in xi)
    level = Fraction(level)
    corners = [[level * x / dot(xi, u) for x in u] for u in cone.dual_rays]
    lo = [math.floor(min(0, *axis)) for axis in zip(*corners)]
    hi = [math.ceil(max(0, *axis)) for axis in zip(*corners)]
    return tuple(
        u for u in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi)))
        if all(sum(map(operator.mul, v, u)) >= 0 for v in cone.rays)
        and sum(map(operator.mul, xi, u)) <= level
    )


def fraction_scan_box(cone, xi, level):
    """``(lo, hi, prefixes)`` of the row scan's bounding box, in Fractions.

    The reference for ``lattice._scan_box``: with d the least common
    denominator of xi and bound = floor(d level), the corner on each dual ray
    u is the Fraction (bound / <d xi, u>) u, and the box floors the least and
    ceils the greatest of 0 and the corners, axis by axis; ``prefixes`` counts
    the box's points in the first n - 1 coordinates.
    """
    xi = tuple(Fraction(x) for x in xi)
    d = math.lcm(*(x.denominator for x in xi))
    bound = math.floor(Fraction(level) * d)
    corners = [[Fraction(bound * x) / dot([d * y for y in xi], u) for x in u] for u in cone.dual_rays]
    lo = [math.floor(min(0, *axis)) for axis in zip(*corners)]
    hi = [math.ceil(max(0, *axis)) for axis in zip(*corners)]
    return lo, hi, math.prod(h - l + 1 for l, h in zip(lo[:-1], hi[:-1]))


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: returns (g, p, q) with p*a + q*b = g = gcd(a,b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def column_hnf(rows):
    """Column-style Hermite form of a nonsingular integer matrix.

    Returns a lower-triangular matrix with positive diagonal whose columns
    span the same lattice as the input's columns (only unimodular column
    operations are applied). Off-diagonal entries are not reduced; the
    triangular shape and positive diagonal are all the box-point
    enumeration needs.
    """
    n = len(rows)
    h = [[int(x) for x in row] for row in rows]
    if any(len(row) != n for row in h):
        raise ValueError("column_hnf requires a square matrix")

    def combine_columns(j, k, p, q, r, s):
        # (col_j, col_k) <- (p*col_j + q*col_k, r*col_j + s*col_k)
        for i in range(n):
            cj, ck = h[i][j], h[i][k]
            h[i][j] = p * cj + q * ck
            h[i][k] = r * cj + s * ck

    for j in range(n):
        for k in range(j + 1, n):
            if h[j][k] == 0:
                continue
            a, b = h[j][j], h[j][k]
            g, p, q = _egcd(a, b)
            # unimodular: det [[p, -b/g], [q, a/g]] = 1
            combine_columns(j, k, p, q, -b // g, a // g)
        if h[j][j] == 0:
            raise ValueError("matrix is singular")
        if h[j][j] < 0:
            for i in range(n):
                h[i][j] = -h[i][j]
    return tuple(tuple(row) for row in h)


def fraction_box_points(generators, excluded):
    """The half-open box points of one simplicial cone in Fraction arithmetic.

    Each coset of Z^n modulo the lattice of ``generators``, enumerated by
    the diagonal of the column Hermite form (:func:`column_hnf`, independent
    of the library's walk of the cosets), is shifted into (0, 1] on
    ``excluded`` facets and [0, 1) elsewhere by ceil and floor of its
    barycentric coordinates from the exact Fraction inverse.  Sorted.
    """
    cols = transpose(generators)
    inv = fraction_inverse(cols)
    hnf = column_hnf(cols)
    points = []
    for rep in itertools.product(*(range(hnf[i][i]) for i in range(len(cols)))):
        shift = [math.ceil(c) - 1 if off else math.floor(c)
                 for c, off in zip(mat_vec(inv, rep), excluded)]
        points.append(tuple(x - dot(row, shift) for x, row in zip(rep, cols)))
    return tuple(sorted(points))


def fraction_pieces(cone):
    """The half-open decomposition of sigma^v in Fraction arithmetic, as an oracle.

    Over the same triangulation as the library, triples ``(generators,
    box_points, excluded)``: a facet is excluded when the reference point
    q = sum of the dual rays has a negative barycentric coordinate on it by
    the exact Fraction inverse (ties broken by the first nonzero entry of the
    inverse's row), and the box points are those of
    :func:`fraction_box_points`.
    """
    q_ref = tuple(sum(col) for col in zip(*cone.dual_rays))
    pieces = []
    for _, generators in simplices(cone):
        inv = fraction_inverse(transpose(generators))
        excluded = tuple(next((x for x in (dot(row, q_ref), *row) if x), 0) < 0 for row in inv)
        pieces.append((generators, fraction_box_points(generators, excluded), excluded))
    return tuple(pieces)


def g_coefficients(order):
    """The Taylor coefficients g_0..g_order of g(z) = z / (1 - e^{-z}) (the
    Bernoulli numbers), by solving (1 - e^{-z}) g(z) = z one power at a time."""
    g = [Fraction(1)]
    for m in range(2, order + 2):  # the z^m coefficient gives g_{m-1}
        g.append(-sum(Fraction((-1) ** (k + 1), math.factorial(k)) * g[m - k]
                      for k in range(2, m + 1)))
    return g


def per_point_box_series(points, xi, order):
    """Taylor coefficients of sum_p e^{-t<xi,p>}, one Fraction term per point."""
    out = [Fraction(0)] * (order + 1)
    for p in points:
        a, term = dot(xi, p), Fraction(1)
        out[0] += term
        for j in range(1, order + 1):
            term = term * (-a) / j
            out[j] += term
    return out


def per_point_box_derivative(points, xi, eta, order):
    """d/ds at s = 0 of the box series along xi + s eta, one term per point."""
    out = [Fraction(0)] * (order + 1)
    for p in points:
        a, term = dot(xi, p), -dot(eta, p)
        for j in range(1, order + 1):
            out[j] += term
            term = term * (-a) / j
    return out


def per_point_characters(pieces, xi, eta, order):
    """Coefficients of F and C_eta from per-point box series, as an oracle.

    Each piece contributes its closed form, the box series times
    prod_i g(c_i t) / (c_i t), and minus its eta-derivative, written out by
    the product rule as one full product per differentiated factor; the
    series products are plain truncated convolutions.
    """
    xi = tuple(Fraction(x) for x in xi)
    eta = tuple(Fraction(x) for x in eta)
    g = g_coefficients(order)

    def product(series):
        out = [Fraction(1)] + [Fraction(0)] * order
        for s in series:
            out = [sum(out[i] * s[j - i] for i in range(j + 1)) for j in range(order + 1)]
        return out

    index, weight = [Fraction(0)] * (order + 1), [Fraction(0)] * (order + 1)
    for piece in pieces:
        cs = [dot(xi, u) for u in piece.generators]
        es = [dot(eta, u) for u in piece.generators]
        factors = [[g[j] * c ** (j - 1) for j in range(order + 1)] for c in cs]
        factors.append(per_point_box_series(piece.box_points, xi, order))
        dfactors = [[e * g[j] * (j - 1) * c ** (j - 2) for j in range(order + 1)]
                    for c, e in zip(cs, es)]
        dfactors.append(per_point_box_derivative(piece.box_points, xi, eta, order))
        index = [a + b for a, b in zip(index, product(factors))]
        for i, df in enumerate(dfactors):
            term = product(factors[:i] + [df] + factors[i + 1:])
            weight = [a - b for a, b in zip(weight, term)]
    return index, weight
