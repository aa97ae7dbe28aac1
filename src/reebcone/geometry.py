"""Exact rational polyhedral geometry for affine toric cone singularities.

Conventions: the cone sigma lives in N_R = R^n and is generated by primitive
integer vectors v_1..v_d (``rays``).  Its dual
``sigma^v = {u : <v_i, u> >= 0 for all i}`` lives in M_R; the extreme rays of
sigma^v are the ``dual_rays`` and double as the facet data of sigma.  A Reeb
vector is a point of int(sigma); slicing sigma^v at ``<xi, u> <= 1`` produces
the bounded polytope Q_xi whose volume and barycenter drive everything else.

All computations with rational data are exact (``fractions.Fraction``);
irrational Reeb vectors are handled in multiprecision floats at the
configured working precision.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from . import linalg
from .config import default_tol, mp_context, to_mpf, working_precision
from .errors import (
    DegenerateSolutionSet,
    DimensionMismatch,
    ExceedsSupportedSize,
    IrrationalReeb,
    NonIntegerRay,
    NotFullDimensional,
    NotPointed,
    NotQGorenstein,
    RayPrimitivizedWarning,
    RedundantRayWarning,
    UnboundedSlice,
)

MAX_DIM = 8
MAX_RAYS = 64


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ToricCone:
    """A full-dimensional pointed cone together with its dual description.

    ``rays`` are the primitive extreme-ray generators of sigma; ``dual_rays``
    the primitive extreme-ray generators of sigma^v, sorted.  For a
    full-dimensional pointed cone the facet normals of sigma are exactly the
    extreme rays of sigma^v, so ``dual_rays`` serve as both generators of
    sigma^v and inequalities of sigma.
    """

    dim: int
    rays: tuple[tuple[int, ...], ...]
    dual_rays: tuple[tuple[int, ...], ...]

    def contains(self, v: Sequence) -> bool:
        """Membership of a vector in sigma (pairing >= 0 with every facet)."""
        return all(linalg.dot(v, u) >= 0 for u in self.dual_rays)

    def interior_contains(self, v: Sequence) -> bool:
        """Membership of a vector in int(sigma) (all pairings strict)."""
        return all(linalg.dot(v, u) > 0 for u in self.dual_rays)


@dataclass(frozen=True)
class GorensteinVector:
    """The rational covector l with <v_i, l> = 1 on every ray generator."""

    l: tuple[Fraction, ...]


@dataclass(frozen=True)
class ReebVector:
    """A point of the interior Reeb cone int(sigma).

    Entries are Fractions when the vector is rational and multiprecision
    floats otherwise; ``normalized`` records whether <xi, l> = 1.
    """

    xi: tuple
    normalized: bool

    @property
    def is_rational(self) -> bool:
        return all(isinstance(x, (int, Fraction)) for x in self.xi)


@dataclass(frozen=True)
class PolytopeSlice:
    """V- and H-representations of Q_xi with exact volume and barycenters.

    ``hrep_Q`` lists inequalities as (coefficients, sense, rhs) triples;
    ``bary_Q`` / ``bary_P`` are the barycenters of Q_xi and of the facet
    P_xi = {u in sigma^v : <xi, u> = 1}.
    """

    vertices_Q: tuple
    hrep_Q: tuple
    volume_Q: object
    bary_Q: tuple
    bary_P: tuple


# ---------------------------------------------------------------------------
# cone construction (double description)
# ---------------------------------------------------------------------------

def _validate_rays(cone_rays: Sequence[Sequence], dim: int) -> list[tuple[int, ...]]:
    if dim < 1:
        raise DimensionMismatch(f"ambient dimension must be positive, got {dim}")
    if dim > MAX_DIM:
        raise ExceedsSupportedSize(f"dimension {dim} exceeds supported maximum {MAX_DIM}")
    if len(cone_rays) > MAX_RAYS:
        raise ExceedsSupportedSize(f"{len(cone_rays)} rays exceed supported maximum {MAX_RAYS}")
    rays = []
    for k, raw in enumerate(cone_rays):
        if len(raw) != dim:
            raise DimensionMismatch(f"ray {k} has length {len(raw)}, expected {dim}")
        entries = []
        for x in raw:
            if isinstance(x, Fraction):
                if x.denominator != 1:
                    raise NonIntegerRay(f"ray {k} has non-integer entry {x}")
                x = x.numerator
            if isinstance(x, float):
                if not x.is_integer():
                    raise NonIntegerRay(f"ray {k} has non-integer entry {x}")
                x = int(x)
            if not isinstance(x, int):
                raise NonIntegerRay(f"ray {k} has non-integer entry {x!r}")
            entries.append(x)
        if not any(entries):
            raise NonIntegerRay(f"ray {k} is the zero vector")
        prim = linalg.primitivize(entries)
        if list(prim) != entries:
            warnings.warn(
                f"ray {k} re-primitivized to {list(prim)}", RayPrimitivizedWarning,
                stacklevel=3,
            )
        rays.append(prim)
    return rays


def _double_description(constraints: list[tuple[int, ...]], dim: int) -> list[tuple[int, ...]]:
    """Extreme rays of {u : <a, u> >= 0 for each constraint a}.

    Incremental insertion: start from n linearly independent constraints
    (whose cone is spanned by the columns of the inverse matrix), then cut
    with the remaining halfspaces, generating new rays from adjacent
    positive/negative pairs.
    """
    basis_idx: list[int] = []
    for k in range(len(constraints)):
        if linalg.rank([constraints[i] for i in basis_idx + [k]]) > len(basis_idx):
            basis_idx.append(k)
        if len(basis_idx) == dim:
            break
    if len(basis_idx) < dim:
        raise NotFullDimensional(
            f"rays span a subspace of dimension {len(basis_idx)} < {dim}"
        )
    basis = [constraints[i] for i in basis_idx]
    inv_cols = linalg.transpose(linalg.integer_inverse(basis)[1])
    rays = [linalg.primitivize(col) for col in inv_cols]
    inserted = list(basis)
    for k, a in enumerate(constraints):
        if k in basis_idx:
            continue
        values = [linalg.dot(a, r) for r in rays]
        plus = [r for r, val in zip(rays, values) if val > 0]
        zero = [r for r, val in zip(rays, values) if val == 0]
        minus = [r for r, val in zip(rays, values) if val < 0]
        if minus:
            fresh: dict[tuple[int, ...], None] = {}
            for rp in plus:
                for rm in minus:
                    tight = [c for c in inserted
                             if linalg.dot(c, rp) == 0 and linalg.dot(c, rm) == 0]
                    if linalg.rank(tight) != dim - 2:
                        continue
                    combo = linalg.vec_sub(
                        linalg.vec_scale(linalg.dot(a, rp), rm),
                        linalg.vec_scale(linalg.dot(a, rm), rp),
                    )
                    fresh[linalg.primitivize(combo)] = None
            rays = plus + zero + list(fresh)
        inserted.append(a)
    return rays


def dual_cone(cone_rays: Sequence[Sequence], dim: int) -> ToricCone:
    """Build a fully populated ToricCone from generators of sigma.

    Computes the extreme rays of sigma^v by double description, drops input
    generators that are not extreme rays of sigma (with a warning), and
    records the facet data.  Raises NotFullDimensional or NotPointed on
    degenerate input.
    """
    rays = _validate_rays(cone_rays, dim)
    unique: dict[tuple[int, ...], None] = {}
    for k, r in enumerate(rays):
        if r in unique:
            warnings.warn(f"ray {k} duplicates an earlier ray; dropped",
                          RedundantRayWarning, stacklevel=2)
        else:
            unique[r] = None
    rays = list(unique)

    duals = _double_description(rays, dim)
    if linalg.rank(duals) < dim:
        raise NotPointed("cone contains a line (dual cone is not full-dimensional)")
    duals = sorted(duals)

    kept = []
    for k, v in enumerate(rays):
        tight = [u for u in duals if linalg.dot(v, u) == 0]
        if linalg.rank(tight) == dim - 1:
            kept.append(v)
        else:
            warnings.warn(
                f"ray {k} ({list(v)}) is not an extreme ray of the cone; dropped",
                RedundantRayWarning, stacklevel=2,
            )
    if linalg.rank(kept) < dim:  # pragma: no cover - precluded by DD success
        raise NotFullDimensional("extreme rays do not span the ambient space")
    return ToricCone(dim=dim, rays=tuple(kept), dual_rays=tuple(duals))


# ---------------------------------------------------------------------------
# Gorenstein vector
# ---------------------------------------------------------------------------

def gorenstein_vector(cone: ToricCone,
                      boundary: Optional[Sequence[Fraction]] = None) -> GorensteinVector:
    """The rational covector with <v_i, l> = 1 on all ray generators.

    With per-ray boundary coefficients c_i (experimental log-pair support)
    the right-hand side becomes 1 - c_i.  Raises NotQGorenstein when the
    system is inconsistent and DegenerateSolutionSet when it has a
    positive-dimensional solution set.
    """
    if boundary is None:
        rhs = (Fraction(1),) * len(cone.rays)
    else:
        if len(boundary) != len(cone.rays):
            raise DimensionMismatch("one boundary coefficient per ray is required")
        coeffs = [Fraction(c) for c in boundary]
        for c in coeffs:
            if not 0 <= c < 1:
                raise ValueError(f"boundary coefficient {c} outside [0, 1)")
        rhs = tuple(1 - c for c in coeffs)
    l = _solve_gorenstein(cone, rhs)
    if isinstance(l, linalg.LinearSystemInconsistent):
        raise NotQGorenstein("no rational covector pairs correctly with every ray generator") from l
    if isinstance(l, linalg.LinearSystemUnderdetermined):
        raise DegenerateSolutionSet("Gorenstein system has a positive-dimensional solution set; "
                                    "supply l explicitly") from l
    # Interiority of l in sigma^v: <v, l> > 0 for every nonzero v in sigma.
    # The defining equations make this automatic (<v_i, l> = 1 - c_i > 0),
    # but the check is kept as a defense for generalized callers.
    if not all(linalg.dot(v, l) > 0 for v in cone.rays):  # pragma: no cover
        raise NotQGorenstein("solution of the Gorenstein system is not interior")
    return GorensteinVector(l=l)


@lru_cache(maxsize=None)
def _solve_gorenstein(cone: ToricCone, rhs: tuple):
    """l with ``<v_i, l> = rhs_i``, or the error of its solve: one solve per
    cone and right-hand side, failures too, as :func:`reeb_vector` asks for l."""
    try:
        return linalg.solve_unique(cone.rays, rhs)
    except (linalg.LinearSystemInconsistent, linalg.LinearSystemUnderdetermined) as exc:
        return exc


# ---------------------------------------------------------------------------
# Reeb vectors
# ---------------------------------------------------------------------------

def _coerce_xi(cone: ToricCone, xi: Sequence) -> tuple:
    if len(xi) != cone.dim:
        raise DimensionMismatch(f"xi has length {len(xi)}, expected {cone.dim}")
    if all(isinstance(x, (int, Fraction)) for x in xi):
        return tuple(Fraction(x) for x in xi)
    ctx = mp_context()
    return tuple(to_mpf(x, ctx) for x in xi)


def reeb_vector(cone: ToricCone, xi: Sequence) -> ReebVector:
    """Validate and wrap an interior point of sigma as a ReebVector."""
    if isinstance(xi, ReebVector):
        xi = xi.xi
    vec = _coerce_xi(cone, xi)
    if not all(linalg.dot(vec, u) > 0 for u in cone.dual_rays):
        raise UnboundedSlice(
            "xi is not interior to sigma: some dual ray pairs nonpositively"
        )
    normalized = False
    try:
        l = gorenstein_vector(cone).l
    except (NotQGorenstein, DegenerateSolutionSet):
        l = None
    if l is not None:
        pairing = linalg.dot(vec, l)
        if all(isinstance(x, Fraction) for x in vec):
            normalized = pairing == 1
        else:
            normalized = abs(pairing - 1) <= default_tol()
    return ReebVector(xi=vec, normalized=normalized)


def _as_xi_tuple(cone: ToricCone, xi) -> tuple:
    if isinstance(xi, ReebVector):
        return xi.xi
    return _coerce_xi(cone, xi)


# ---------------------------------------------------------------------------
# triangulation
# ---------------------------------------------------------------------------

def triangulate_cone(rays: Sequence[tuple[int, ...]],
                     normals: Sequence[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """Pulling triangulation of a pointed cone into simplicial subcones.

    ``rays`` are the extreme rays, ``normals`` a complete list of supporting
    inequalities (every facet of every face arises from one of them).  At
    every recursion level the first ray in input order is pulled and coned
    over the triangulated facets not containing it; since each face is always
    pulled at its own first ray, triangulations of shared faces agree and the
    simplices form a genuine triangulation.  Returns tuples of indices into
    ``rays``.  Another input order generally yields a different triangulation
    of the same cone.  The library triangulates each cone once, through
    :func:`simplices`.
    """

    def facets_of(subset: tuple[int, ...], k: int) -> list[tuple[int, ...]]:
        seen: dict[frozenset, tuple[int, ...]] = {}
        for a in normals:
            tight = tuple(i for i in subset if linalg.dot(a, rays[i]) == 0)
            if len(tight) == len(subset):
                continue
            key = frozenset(tight)
            if key in seen:
                continue
            if linalg.rank([rays[i] for i in tight]) == k - 1:
                seen[key] = tight
        return list(seen.values())

    def recurse(subset: tuple[int, ...]) -> list[tuple[int, ...]]:
        k = linalg.rank([rays[i] for i in subset])
        if len(subset) == k:
            return [subset]
        pulled = subset[0]
        cones = []
        for facet in facets_of(subset, k):
            if pulled in facet:
                continue
            for piece in recurse(facet):
                cones.append((pulled,) + piece)
        return cones

    return tuple(recurse(tuple(range(len(rays)))))


@lru_cache(maxsize=None)
def simplices(cone: ToricCone) -> tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]:
    """The triangulation of sigma^v that every closed form in xi sums over.

    Pairs ``(|det U_k|, U_k)``, one per simplicial cone of the pulling
    triangulation of sigma^v, where the rows of ``U_k`` are its n dual rays.
    Cached, so each cone is triangulated once.
    """
    out = []
    for simplex in triangulate_cone(cone.dual_rays, cone.rays):
        gens = tuple(cone.dual_rays[i] for i in simplex)
        out.append((abs(linalg.det(gens)), gens))
    return tuple(out)


# ---------------------------------------------------------------------------
# the polytope Q_xi
# ---------------------------------------------------------------------------

def polytope_Q(cone: ToricCone, xi) -> PolytopeSlice:
    """The slice Q_xi = {u in sigma^v : <xi, u> <= 1} with exact metrics.

    Closed form over :func:`simplices`: the simplex of Q_xi over U_k (apex at
    the origin) has volume |det U_k| / (n! prod_i <xi, u_i>) and vertex sum
    s_k = sum_i u_i / <xi, u_i>.  So with w_k = |det U_k| / prod_i <xi, u_i>,

        vol = sum_k w_k / n!,   bary_Q = sum_k w_k s_k / ((n+1) sum_k w_k),

    and the facet P_xi = {<xi, u> = 1}, whose pieces have areas in the same
    ratios w_k, has bary_P = sum_k w_k s_k / (n sum_k w_k) = (n+1)/n bary_Q.
    Exact for rational xi, multiprecision at the working precision otherwise.
    """
    vec = _as_xi_tuple(cone, xi)
    n = cone.dim
    with working_precision():
        pairings = {u: linalg.dot(vec, u) for u in cone.dual_rays}
        if not all(c > 0 for c in pairings.values()):
            raise UnboundedSlice("Q_xi is unbounded: xi is not interior to sigma")

        scaled = {u: tuple(x / c for x in u) for u, c in pairings.items()}
        total = 0
        moment = [0] * n
        for det, gens in simplices(cone):
            w_k = det
            for u in gens:
                w_k = w_k / pairings[u]
            total = total + w_k
            vertex_sum = [sum(col) for col in zip(*(scaled[u] for u in gens))]
            moment = [acc + w_k * s for acc, s in zip(moment, vertex_sum)]
        volume = total / math.factorial(n)
        bary_q = tuple(m / ((n + 1) * total) for m in moment)
        bary_p = tuple(m / (n * total) for m in moment)

    hrep = tuple([(v, ">=", 0) for v in cone.rays] + [(vec, "<=", 1)])
    return PolytopeSlice(
        vertices_Q=(tuple(0 * x for x in vec),) + tuple(scaled.values()),
        hrep_Q=hrep,
        volume_Q=volume,
        bary_Q=bary_q,
        bary_P=bary_p,
    )


# ---------------------------------------------------------------------------
# lattice points
# ---------------------------------------------------------------------------

MAX_LATTICE_SCAN = 5 * 10 ** 7  # prefixes materialized, or points listed
_INT64_SAFE = 2 ** 62  # bound on every int64 the row scan and its callers form


def integer_reeb(cone: ToricCone, xi) -> tuple[tuple[int, ...], int]:
    """``(d xi, d)`` for the least d > 0 making d xi integral; xi rational and interior."""
    vec = _as_xi_tuple(cone, xi)
    if not all(isinstance(x, Fraction) for x in vec):
        raise IrrationalReeb("lattice enumeration requires a rational Reeb vector")
    denom = math.lcm(*(x.denominator for x in vec))
    xi_int = tuple(int(x * denom) for x in vec)
    if not all(linalg.dot(xi_int, u) > 0 for u in cone.dual_rays):
        raise UnboundedSlice("the lattice slice is unbounded: xi is not interior to sigma")
    return xi_int, denom


def lattice_rows(cone: ToricCone, xi, level):
    """The integer points of level*Q_xi as innermost runs {prefix} x [a, b].

    Returns int64 arrays ``(prefix, a, b)``: row r holds the points
    ``(*prefix[r], x)``, ``a[r] <= x <= b[r]``, and the rows hold every u in
    sigma^v cap Z^n with <xi, u> <= level once, in lexicographic order.  The
    prefixes run over the bounding box in the first n-1 coordinates; the rays
    and <d xi, u> <= floor(d level), d xi integral, cut each run exactly.
    Requires rational xi (IrrationalReeb) interior to sigma (UnboundedSlice);
    raises ExceedsSupportedSize, before allocating, above MAX_LATTICE_SCAN
    prefixes or where an int64 sum could overflow.
    """
    import numpy as np

    xi_int, denom = integer_reeb(cone, xi)
    bound = math.floor(Fraction(level) * denom)
    corners = [[Fraction(bound * x, linalg.dot(xi_int, u)) for x in u] for u in cone.dual_rays]
    lo = [math.floor(min(0, *axis)) for axis in zip(*corners)]
    hi = [math.ceil(max(0, *axis)) for axis in zip(*corners)]
    widths = [h - l + 1 for l, h in zip(lo, hi)]
    prefixes = math.prod(widths[:-1])
    if prefixes > MAX_LATTICE_SCAN:
        raise ExceedsSupportedSize(
            f"lattice scan of {prefixes} prefixes exceeds the supported {MAX_LATTICE_SCAN}"
        )
    # <coeffs, u> >= rhs, all integer
    constraints = [(v, 0) for v in cone.rays] + [(tuple(-c for c in xi_int), -bound)]
    reach = [max(-l, h) for l, h in zip(lo, hi)]
    largest = max([prefixes * widths[-1] * max(reach)] + [
        sum(abs(c) * r for c, r in zip(coeffs, reach)) + abs(rhs) for coeffs, rhs in constraints
    ])
    if largest >= _INT64_SAFE:
        raise ExceedsSupportedSize(f"lattice scan values up to {largest} overflow int64")

    prefix = np.indices(widths[:-1], dtype=np.int64).reshape(len(lo) - 1, prefixes).T + lo[:-1]
    a = np.full(len(prefix), lo[-1], dtype=np.int64)
    b = np.full(len(prefix), hi[-1], dtype=np.int64)
    for coeffs, rhs in constraints:
        partial = prefix @ np.array(coeffs[:-1], dtype=np.int64)
        c = coeffs[-1]
        if c > 0:
            np.maximum(a, -((partial - rhs) // c), out=a)
        elif c < 0:
            np.minimum(b, (partial - rhs) // -c, out=b)
        else:
            b[partial < rhs] = lo[-1] - 1
    keep = a <= b
    return prefix[keep], a[keep], b[keep]


def lattice_points(cone: ToricCone, xi, m: int) -> tuple[tuple[int, ...], ...]:
    """All integer points of m*Q_xi, i.e. u in sigma^v with <xi, u> <= m.

    The rows of :func:`lattice_rows` expanded, in lexicographic order;
    requires rational xi (IrrationalReeb otherwise).
    """
    import numpy as np

    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    prefix, a, b = lattice_rows(cone, xi, m)
    counts = b - a + 1
    total = int(counts.sum())
    if total > MAX_LATTICE_SCAN:
        raise ExceedsSupportedSize(
            f"{total} lattice points exceed the supported {MAX_LATTICE_SCAN}"
        )
    last = np.arange(total) + np.repeat(a - (np.cumsum(counts) - counts), counts)
    points = np.column_stack((np.repeat(prefix, counts, axis=0), last))
    return tuple(map(tuple, points.tolist()))
