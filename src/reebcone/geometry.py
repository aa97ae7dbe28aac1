"""Exact rational polyhedral geometry for affine toric cone singularities.

Conventions: the cone sigma lives in N_R = R^n and is generated by primitive
integer vectors v_1..v_d (``rays``).  Its dual
``sigma^v = {u : <v_i, u> >= 0 for all i}`` lives in M_R; the extreme rays of
sigma^v are the ``dual_rays`` and double as the facet data of sigma.  A Reeb
vector is a point of int(sigma); slicing sigma^v at ``<xi, u> <= 1`` produces
the bounded polytope Q_xi whose volume and barycenter drive everything else,
and with the Gorenstein vector, or else the volumes of Q_xi's facets
through the origin, give the index and weight characters to order 1, as
:class:`LaurentSeries`.

All computations with rational data are exact (``fractions.Fraction``).
A float entry of a Reeb vector is read as the dyadic rational it is, and
any other entry is rounded to an mpf at the configured working precision p
and read as the dyadic rational it then is, so the vector is integer
numerators over one denominator; the closed forms then sum integers,
truncated in fixed point to p plus a guard of bits below each term, and
round each output once to an mpf.
"""

from __future__ import annotations

import math
import operator
import sys
import warnings
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

from . import linalg
from .config import DEFAULT_TOL, mp_context, precision_bits, ratio_type
from .errors import (
    DegenerateSolutionSet,
    DimensionMismatch,
    ExceedsSupportedSize,
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
# caps on the cone work the two above let in, checked as the work runs: at
# most about 10 s of dual_cone + simplices (on a 2-core Xeon VM, a simplex
# takes up to 0.4 ms with 1000 dual rays in dim 8)
MAX_DUAL_RAYS = 1000  # running rays of the double description
MAX_SIMPLICES = 20000  # simplices of the triangulation of sigma^v
# entries of each cache an op pays once through: per ray set the pivot inverse, per cone
# simplices, _solve_gorenstein and optimize._chart, and per (cone, xi) the slice pass; an
# op reuses only the cone it works on, so a process that sweeps cones holds flat memory
CONE_CACHE_SIZE = 16
_GUARD_BITS = 32  # fixed-point bits of the working-precision sums beyond the precision
# bits of a working-precision numerator or denominator beyond the precision;
# every float vector fits (at most 1024 + 1074 bits)
_MAX_SPREAD_BITS = 4096


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

class ToricCone(NamedTuple):
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


class GorensteinVector(NamedTuple):
    """The rational covector l with <v_i, l> = 1 on every ray generator."""

    l: tuple[Fraction, ...]


class ReebVector(NamedTuple):
    """A point of the interior Reeb cone int(sigma).

    Entries are Fractions when the vector is rational and multiprecision
    floats otherwise, from :func:`reeb_vector`; the minimizer of
    :func:`reebcone.optimize.minimize_volume` keeps the floats it found.
    ``normalized`` records whether <xi, l> = 1.
    """

    xi: tuple
    normalized: bool


class PolytopeSlice(NamedTuple):
    """The volume of Q_xi and its barycenters, exact for rational xi.

    ``bary_Q`` / ``bary_P`` are the barycenters of Q_xi and of the facet
    P_xi = {u in sigma^v : <xi, u> = 1}.
    """

    volume_Q: object
    bary_Q: tuple
    bary_P: tuple


class LaurentSeries(NamedTuple):
    """Principal-part coefficients of a character expansion at t = 0.

    ``coeffs[j]`` is the Laurent coefficient of t^(order_low + j), with
    order_low = -n for an index character and -(n+1) for a weight
    character.  Its a_j (index) or b_j (weight) is coeffs[j] / k!,
    k = max(-order_low - 1 - j, 0): (n-1)! a0, (n-2)! a1, n! b0 and
    (n-1)! b1 are the leading coefficients, and a1 = coeffs[1] for n = 1.
    """

    order_low: int
    coeffs: tuple
    dim: int
    kind: str

    def evaluate(self, t):
        """Evaluate the truncated expansion at a scalar t > 0."""
        return sum(c * t ** (self.order_low + j) for j, c in enumerate(self.coeffs))

    def _coefficient(self, kind: str, j: int):
        name = ("a" if kind == "index" else "b") + str(j)
        if self.kind != kind:
            raise ValueError(f"{name} is a coefficient of the {kind} character")
        if len(self.coeffs) <= j:
            raise ValueError(f"{name} needs a series of order at least {j}, "
                             f"this one has order {len(self.coeffs) - 1}")
        return self.coeffs[j] / math.factorial(max(-self.order_low - 1 - j, 0))

    a0 = property(lambda self: self._coefficient("index", 0))
    a1 = property(lambda self: self._coefficient("index", 1))
    b0 = property(lambda self: self._coefficient("weight", 0))
    b1 = property(lambda self: self._coefficient("weight", 1))


def _positive_int(name: str, value) -> int:
    """``value`` as an int, with ValueError unless it is a positive integer."""
    try:
        index = operator.index(value)  # any integer, NumPy's too
    except TypeError:
        index = 0
    if index < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return index


def _positive_finite(name: str, value):
    """``value`` as given, with ValueError unless it is a positive number in float range."""
    try:
        # not NaN, nor a value past the floats; float() first, as a NumPy float32
        # would cast the bound to its own overflowing type
        if 0 < value and float(value) <= sys.float_info.max:
            return value
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{name} must be positive and finite, got {value!r}")


# ---------------------------------------------------------------------------
# cone construction (double description)
# ---------------------------------------------------------------------------

def _validate_rays(cone_rays: Sequence[Sequence], dim: int) -> list[tuple[int, ...]]:
    if dim < 1:
        raise DimensionMismatch(f"ambient dimension must be positive, got {dim}")
    if dim > MAX_DIM:
        raise ExceedsSupportedSize(f"dimension {dim} exceeds supported maximum {MAX_DIM}")
    try:
        count, sizes = len(cone_rays), [len(raw) for raw in cone_rays]
    except TypeError:
        raise DimensionMismatch(f"rays must be a list of vectors, got {cone_rays!r}") from None
    if count > MAX_RAYS:
        raise ExceedsSupportedSize(f"{count} rays exceed supported maximum {MAX_RAYS}")
    rays = []
    for k, (raw, size) in enumerate(zip(cone_rays, sizes)):
        if size != dim:
            raise DimensionMismatch(f"ray {k} has length {size}, expected {dim}")
        entries = []
        for x in raw:
            if isinstance(x, Fraction) and x.denominator == 1:
                x = x.numerator
            elif isinstance(x, float) and x.is_integer():
                x = int(x)
            try:
                entries.append(operator.index(x))  # any integer, NumPy's too
            except TypeError:
                raise NonIntegerRay(f"ray {k} has non-integer entry {x!r}") from None
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


def _incidence(normals: Sequence[Sequence[int]], gens: Sequence[Sequence[int]]) -> list[int]:
    """Per normal a, the generators tight on it as a bitmask: bit i is set
    when ``<a, gens[i]> = 0``.  When a is valid on the cone over ``gens``,
    the mask is the face that a cuts out, and faces compare by inclusion."""
    return [sum(1 << i for i, g in enumerate(gens) if linalg.dot(a, g) == 0) for a in normals]


@lru_cache(maxsize=CONE_CACHE_SIZE)
def _pivot_inverse(rays: tuple[tuple[int, ...], ...], dim: int) -> tuple:
    """``(basis, |det B|, S)``: the indices of the linearly independent rays
    picked greedily in order, the matrix B of those rays and its scaled
    inverse S = |det B| B^-1, with det and S None when fewer than dim rays
    are independent: :func:`reebcone.linalg.pivot_inverse`, one elimination
    that picks the rows and inverts them.  The double description of
    :func:`dual_cone` and the Gorenstein solve both start from it, so it is
    cached for the last CONE_CACHE_SIZE ray sets and a cone eliminates its
    rays once."""
    return linalg.pivot_inverse(rays, dim)


def _double_description(constraints: list[tuple[int, ...]], dim: int) -> dict[tuple[int, ...], int]:
    """Extreme rays of {u : <a, u> >= 0 for each constraint a}, each with
    the bitmask of the constraints it is tight on: bit k is set exactly when
    ``<constraints[k], u> = 0``.

    Incremental insertion: start from the first n linearly independent
    constraints (whose cone is spanned by the columns of the inverse matrix
    of :func:`_pivot_inverse`, which the Gorenstein solve of the same rays
    reads again), then cut with the remaining halfspaces.  Each ray keeps
    the bitmask of the inserted constraints it is tight on.  A ray on the
    positive and a ray on the negative side of the new constraint span a
    new ray on its hyperplane when they are adjacent, which the
    combinatorial test of Fukuda and Prodon (LNCS 1120, 1996) decides: no
    third ray is tight on every constraint that both are tight on.  Adjacent
    rays share at least n - 2 tight constraints, which is checked first.  The
    masks are exact as they go: a kept ray adds the bit of each constraint
    it meets, and a fresh ray, a positive combination of rp and rm, is tight
    on exactly the constraints both are tight on and the new one.
    """
    basis_idx, _, scaled = _pivot_inverse(tuple(constraints), dim)
    if len(basis_idx) < dim:
        raise NotFullDimensional(
            f"rays span a subspace of dimension {len(basis_idx)} < {dim}"
        )
    inv_cols = linalg.transpose(scaled)
    inserted = sum(1 << i for i in basis_idx)
    # column j of the inverse pairs to 0 with every basis constraint but the j-th
    rays = {linalg.primitivize(col): inserted & ~(1 << i) for col, i in zip(inv_cols, basis_idx)}
    for k, a in enumerate(constraints):
        if inserted >> k & 1:
            continue
        values = {r: linalg.dot(a, r) for r in rays}
        minus = [r for r in rays if values[r] < 0]
        fresh = {}
        for rp in (r for r in rays if values[r] > 0):
            for rm in minus:
                common = rays[rp] & rays[rm]
                if (common.bit_count() >= dim - 2
                        and sum(common & mask == common for mask in rays.values()) == 2):
                    # inside the 2-face of rp and rm, so tight on common and on a only
                    ray = tuple(values[rp] * y - values[rm] * x for x, y in zip(rp, rm))
                    fresh[linalg.primitivize(ray)] = common | 1 << k
        rays = {r: mask | (values[r] == 0) << k
                for r, mask in rays.items() if values[r] >= 0} | fresh
        if len(rays) > MAX_DUAL_RAYS:
            raise ExceedsSupportedSize(f"dual cone exceeds the supported {MAX_DUAL_RAYS} rays")
        inserted |= 1 << k
    return rays


def dual_cone(cone_rays: Sequence[Sequence], dim: int) -> ToricCone:
    """Build a fully populated ToricCone from generators of sigma.

    Computes the extreme rays of sigma^v by double description, drops input
    generators that are not extreme rays of sigma (with a warning), and
    records the facet data.  Both tests read the tight sets the double
    description kept, turned into each generator's facets: the bitmask of
    the sorted dual rays it pairs to 0 with.  The cone is pointed unless
    some generator lies on every facet (or there is none): a line w = sum
    lambda_i v_i, lambda >= 0, pairs to 0 with every dual ray, and so does
    each v_i with lambda_i > 0; conversely a generator on every facet puts
    sigma^v in a hyperplane.  The extreme-ray test is by incidence: the dual
    rays are the facets of sigma, and a generator is extreme unless another
    one lies on a strict superset of its facets.  Raises NotFullDimensional
    or NotPointed on degenerate input, and ExceedsSupportedSize as soon as
    the double description holds more than MAX_DUAL_RAYS rays.
    """
    try:
        dim = operator.index(dim)  # any integer, NumPy's too, as an int
    except TypeError:
        raise DimensionMismatch(f"ambient dimension must be an integer, got {dim!r}") from None
    rays = _validate_rays(cone_rays, dim)
    unique: dict[tuple[int, ...], None] = {}
    for k, r in enumerate(rays):
        if r in unique:
            warnings.warn(f"ray {k} duplicates an earlier ray; dropped",
                          RedundantRayWarning, stacklevel=2)
        else:
            unique[r] = None
    rays = list(unique)

    tight = _double_description(rays, dim)
    duals = sorted(tight)
    facets = [sum(1 << j for j, u in enumerate(duals) if tight[u] >> i & 1)
              for i in range(len(rays))]
    everywhere = (1 << len(duals)) - 1
    if any(mask == everywhere for mask in facets):
        raise NotPointed("cone contains a line (dual cone is not full-dimensional)")
    kept = []
    for k, (v, mask) in enumerate(zip(rays, facets)):
        if not any(mask & other == mask != other for other in facets):
            kept.append(v)
        else:
            warnings.warn(
                f"ray {k} ({list(v)}) is not an extreme ray of the cone; dropped",
                RedundantRayWarning, stacklevel=2,
            )
    return ToricCone(dim=dim, rays=tuple(kept), dual_rays=tuple(duals))


# ---------------------------------------------------------------------------
# Gorenstein vector
# ---------------------------------------------------------------------------

def gorenstein_vector(cone: ToricCone,
                      boundary: Optional[Sequence[Fraction]] = None) -> GorensteinVector:
    """The rational covector with <v_i, l> = 1 on all ray generators.

    With per-ray boundary coefficients c_i (experimental log-pair support)
    the right-hand side becomes 1 - c_i, read by :func:`numerators`, one per
    ray, each in [0, 1) (ValueError).  Raises NotQGorenstein when no
    covector pairs so with every ray, and DegenerateSolutionSet when the
    rays do not span, which only a hand-built ToricCone can do.
    """
    return _solve_gorenstein(cone, *_gorenstein_rhs(cone, boundary))


def _gorenstein_rhs(cone: ToricCone, boundary: Optional[Sequence]) -> tuple[tuple[int, ...], int]:
    """``(rhs, d)``: the pairings <v_i, l> = rhs_i / d = 1 - c_i that the
    Gorenstein vector solves for, all 1 without a boundary; ValueError for a
    boundary coefficient outside [0, 1)."""
    if boundary is None:
        return (1,) * len(cone.rays), 1
    [(c_num, c_d)], _ = numerators(len(cone.rays), boundary=boundary)
    for c in c_num:
        if not 0 <= c < c_d:
            raise ValueError(f"boundary coefficient {Fraction(c, c_d)} outside [0, 1)")
    return tuple(c_d - c for c in c_num), c_d


@lru_cache(maxsize=CONE_CACHE_SIZE)
def _solve_gorenstein(cone: ToricCone, rhs: tuple[int, ...], d: int) -> GorensteinVector:
    """l with ``<v_i, l> = rhs_i / d``, cached for the last CONE_CACHE_SIZE
    triples (a failed solve raises again).  From the inverse the double
    description started with, :func:`_pivot_inverse` of the rays, read again
    rather than redone when :func:`dual_cone` kept every ray: the first n
    independent rays B, l = S b / (|det B| d) for the scaled inverse S and
    their entries b of rhs, and every ray checked in ints.  So l is interior
    to sigma^v with no further check: ``<v_i, l> = rhs_i / d > 0``."""
    basis, det, scaled = _pivot_inverse(cone.rays, cone.dim)
    if len(basis) < cone.dim:
        raise DegenerateSolutionSet(f"rays span a subspace of dimension {len(basis)} < "
                                    f"{cone.dim}, so no Gorenstein vector is unique")
    basis_rhs = [rhs[i] for i in basis]
    l_num = [linalg.dot(row, basis_rhs) for row in scaled]
    if any(linalg.dot(v, l_num) != det * r for v, r in zip(cone.rays, rhs)):
        raise NotQGorenstein("no rational covector pairs correctly with every ray generator")
    return GorensteinVector(l=tuple(Fraction(x, det * d) for x in l_num))


# ---------------------------------------------------------------------------
# Reeb vectors
# ---------------------------------------------------------------------------

def reeb_numerators(n: int, xi, eta: Optional[Sequence] = None) -> tuple[list, bool]:
    """xi (a ReebVector unwrapped) and eta of length n as :func:`numerators`:
    the coercion of every function that takes xi, whose exact flag picks the
    arithmetic of the whole call, Fractions or the working precision."""
    if isinstance(xi, ReebVector):
        xi = xi.xi
    return numerators(n, xi=xi) if eta is None else numerators(n, xi=xi, eta=eta)


def reeb_vector(cone: ToricCone, xi: Sequence) -> ReebVector:
    """Validate and wrap an interior point of sigma as a ReebVector from the
    pairings of xi alone (UnboundedSlice unless all are positive), with no
    slice pass; normalized when <xi, l> = 1 (within the tolerance unless
    exact), l the Gorenstein vector, and never on a cone without one."""
    [(xi_num, d)], exact = reeb_numerators(cone.dim, xi)
    _slice_pairings(cone, xi_num)
    ratio = ratio_type(exact)
    try:
        l_num, l_d = _common_denominator(gorenstein_vector(cone).l)
        a, b = linalg.dot(xi_num, l_num), d * l_d
        normalized = abs(ratio(a - b, b)) <= (0 if exact else DEFAULT_TOL)
    except (NotQGorenstein, DegenerateSolutionSet):
        normalized = False
    # exact for rational xi, and for a dyadic one within the precision; else rounded once
    return ReebVector(xi=tuple(ratio(x, d) for x in xi_num), normalized=normalized)


# ---------------------------------------------------------------------------
# triangulation
# ---------------------------------------------------------------------------

def triangulate_cone(rays: Sequence[tuple[int, ...]],
                     normals: Sequence[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """Pulling triangulation of a pointed cone into simplicial subcones.

    ``rays`` are the extreme rays, ``normals`` a complete list of supporting
    inequalities: every facet of every face arises from one of them.  That
    completeness carries the whole facet test.  A face is the bitmask of
    its rays, each normal a cuts out the face ``face & zero[a]``, and the
    facets of a face are the maximal proper ones, in the order of their
    first normal; a facet of a k-dimensional face has dimension k - 1.  At
    every recursion level the first ray in input order is pulled and coned
    over the triangulated facets not containing it; since each face is always
    pulled at its own first ray, triangulations of shared faces agree and the
    simplices form a genuine triangulation.  Returns tuples of indices into
    ``rays``.  Another input order generally yields a different triangulation
    of the same cone.  The library triangulates each cone once, through
    :func:`simplices`.  Raises ExceedsSupportedSize as soon as more than
    MAX_SIMPLICES simplices are emitted, and ValueError for rays of unequal lengths.
    """
    if any(len(r) != len(rays[0]) for r in rays):
        raise ValueError("rays of unequal lengths")
    zero = _incidence(normals, rays)
    emitted = 0

    def recurse(face: int, k: int) -> list[tuple[int, ...]]:
        nonlocal emitted
        if face.bit_count() == k:
            emitted += 1  # each simplex ends in one such leaf
            if emitted > MAX_SIMPLICES:
                raise ExceedsSupportedSize(f"triangulation exceeds {MAX_SIMPLICES} simplices")
            members = []
            while face:  # the k set bits, lowest first
                members.append((face & -face).bit_length() - 1)
                face &= face - 1
            return [tuple(members)]
        first = (face & -face).bit_length() - 1  # the lowest ray of the face
        proper = dict.fromkeys(face & z for z in zero if face & z != face)
        cones = []
        for facet in proper:
            if facet >> first & 1 or any(facet & g == facet != g for g in proper):
                continue
            cones.extend((first,) + piece for piece in recurse(facet, k - 1))
        return cones

    return tuple(recurse((1 << len(rays)) - 1, linalg.rank(rays)))


@lru_cache(maxsize=CONE_CACHE_SIZE)
def simplices(cone: ToricCone) -> tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]:
    """The triangulation of sigma^v that every closed form in xi sums over.

    Pairs ``(|det U_k|, U_k)``, one per simplicial cone of the pulling
    triangulation of sigma^v, where the rows of ``U_k`` are its n dual rays.
    Cached for the last CONE_CACHE_SIZE cones, so an op triangulates its cone
    once however many closed forms it sums.
    """
    out = []
    for simplex in triangulate_cone(cone.dual_rays, cone.rays):
        gens = tuple(cone.dual_rays[i] for i in simplex)
        out.append((abs(linalg.det(gens)), gens))
    return tuple(out)


def boundary_faces(cone: ToricCone) -> tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]:
    """The (n-1)-faces of :func:`simplices` on the boundary of sigma^v.

    Pairs ``(|det W|, W)``: the rows of ``W`` are the n-1 dual rays of a
    simplex U_k other than some u_j, all of them in the facet v_i^perp of
    sigma^v, and |det W| is their lattice volume in v_i^perp, which is
    |det U_k| / <v_i, u_j> (write u_j as <v_i, u_j> e + a vector of v_i^perp,
    for any integer e with <v_i, e> = 1).  Each face of the triangulation in
    some v_i^perp belongs to one simplex, so together the faces triangulate
    every facet of Q_xi through the origin.  Not cached: each call reads
    the cached :func:`simplices`, and an op needs the faces once.
    """
    # bit i of tight[u] is set when <v_i, u> = 0
    tight = dict(zip(cone.dual_rays, _incidence(cone.dual_rays, cone.rays)))
    everything = (1 << len(cone.rays)) - 1
    out = []
    for det, gens in simplices(cone):
        for j, u in enumerate(gens):
            face = gens[:j] + gens[j + 1:]
            common = everything
            for w in face:
                common &= tight[w]
            if common:
                ray = cone.rays[common.bit_length() - 1]
                out.append((det // linalg.dot(ray, u), face))
    return tuple(out)


# ---------------------------------------------------------------------------
# the polytope Q_xi
# ---------------------------------------------------------------------------

def _common_denominator(vec: Sequence) -> tuple[tuple[int, ...], int]:
    """A rational vector as integer numerators over their least common denominator."""
    d = math.lcm(*(x.denominator for x in vec))
    return tuple(x.numerator * (d // x.denominator) for x in vec), d


def numerators(n: Optional[int], **vecs) -> tuple[list, bool]:
    """The named vectors as ``(numerators, denominator)`` pairs, in order, and
    whether they are exact: the one coercion of every vector the library takes.

    Each must be a sequence, not a str, of length n (any length when n is
    None): ValueError otherwise, DimensionMismatch for a wrong length.  Each
    entry is read as an integer pair (numerator, denominator), with no
    Fraction built.  Every integer, NumPy's too, and every Fraction is exact;
    a float is its ``as_integer_ratio()``, the dyadic of at most 53 <= p bits
    that :func:`_dyadic` reads it as, and any other entry is read by
    :func:`_dyadic`; both make the call inexact, and NaN and the infinities
    raise UnboundedSlice.  Each vector becomes integer numerators over the
    least common denominator d of its entries, so the closed forms run on
    ints; in an inexact call, numerators or d wider than the precision plus
    ``_MAX_SPREAD_BITS`` bits raise ExceedsSupportedSize.
    """
    out, exact = [], True
    for name, vec in vecs.items():
        size = _sequence_length(name, vec)
        if n is not None and size != n:
            raise DimensionMismatch(f"{name} has length {size}, expected {n}")
        pairs = []
        for x in vec:
            if isinstance(x, Fraction):
                pairs.append((x.numerator, x.denominator))
            elif type(x) is float:  # _dyadic raises on NaN and the infinities
                pairs.append(x.as_integer_ratio() if math.isfinite(x) else _dyadic(name, x))
                exact = False
            else:
                try:
                    pairs.append((operator.index(x), 1))  # any integer, NumPy's too
                except TypeError:
                    x, exact = _dyadic(name, x), False
                    pairs.append((x.numerator, x.denominator))
        d = math.lcm(*(den for _, den in pairs))
        nums = tuple(num * (d // den) for num, den in pairs)
        if not exact:
            width, limit = max(map(int.bit_length, (d, *nums))), precision_bits() + _MAX_SPREAD_BITS
            if width > limit:
                raise ExceedsSupportedSize(f"binary exponents of {name} spread over {width} "
                                           f"bits, beyond the supported {limit}")
        out.append((nums, d))
    return out, exact


def _sequence_length(name: str, vec) -> int:
    """``len(vec)``, with ValueError unless ``vec`` is a sequence and not a str."""
    try:
        size = None if isinstance(vec, (str, bytes)) else len(vec)
    except TypeError:
        size = None
    if size is None:
        raise ValueError(f"{name} must be a sequence of numbers, got {vec!r}")
    return size


def _dyadic(name: str, x):
    """A number other than an integer or a Fraction, rounded to mpf at the working
    precision p, as the dyadic rational man 2^exp it then is.  An entry with an exact
    ratio (a float of any width, NumPy's too, or a Decimal) is read from it, with no
    mpmath when it is a dyadic of at most p significant bits, as every float of 53
    bits or fewer is.  ValueError for what mpmath cannot take (None, a str),
    UnboundedSlice for NaN and infinities."""
    if hasattr(x, "as_integer_ratio"):
        try:
            num, den = x.as_integer_ratio()
        except (OverflowError, ValueError):  # an infinity or a NaN
            raise UnboundedSlice(f"non-finite entry {x} in {name}") from None
        odd = num // (num & -num) if num else 0  # num without its trailing zero bits
        if den & (den - 1) == 0 and odd.bit_length() <= precision_bits():
            return Fraction(num, den)
        x = ratio_type(False)(num, den)  # the ratio rounded once to an mpf
    ctx = mp_context()
    try:
        value = None if isinstance(x, (str, bytes)) else ctx.mpf(x)  # mpmath would parse a str
    except TypeError:
        value = None
    if value is None:
        raise ValueError(f"{name} has an entry that is not a number: {x!r}")
    if not ctx.isfinite(value):
        raise UnboundedSlice(f"non-finite entry {value} in {name}")
    # man odd or 0; int(man) because mpmath's gmpy backend stores mantissas as mpz
    sign, man, exp, _ = value._mpf_
    man = -int(man) if sign else int(man)
    return man << exp if exp >= 0 else Fraction(man, 1 << -exp)


def _slice_pairings(cone: ToricCone, xi_num: Sequence) -> dict:
    """``{u: <xi_num, u>}`` over the dual rays; UnboundedSlice unless all are
    positive, that is unless xi is interior to sigma and Q_xi is bounded."""
    pairings = {u: linalg.dot(xi_num, u) for u in cone.dual_rays}
    if not all(c > 0 for c in pairings.values()):
        raise UnboundedSlice("xi is not interior to sigma: some dual ray pairs nonpositively")
    return pairings


def _common_scale(prods: Sequence[int], exact: bool) -> int:
    """The scale L that sums terms x_k / P_k, ints P_k > 0, as the one int ratio
    sum_k x_k (L // P_k) / L, for the slice kernel and the characters alike:
    the lcm of the P_k when ``exact``, else (dyadic products, whose lcm would
    grow without bound) the fixed point 2^(p + ``_GUARD_BITS`` + the largest
    bit length of the P_k) at working precision p, which truncates each
    L // P_k by less than one unit in 2^(p + ``_GUARD_BITS``) of itself."""
    if exact:
        return math.lcm(*prods)
    return 1 << (precision_bits() + _GUARD_BITS + max(map(int.bit_length, prods), default=0))


def _volume_sums(table, pairings: dict, exact: bool = False, divide: bool = False) -> tuple:
    """``(w, T, L)``: the volume part of :func:`_simplex_sums`, the per-simplex
    weights w_k = det_k L / P_k, their sum T and the scale L, with L chosen by
    ``exact`` as there, or L = 1 and true division when ``divide``, as in its
    ``coords`` pass.  T / L is (n-1)! a0 over :func:`simplices`; alone it
    ranks the samples of :func:`reebcone.optimize.grid_search_oracle`."""
    prods = [math.prod(pairings[u] for u in gens) for _, gens in table]
    if divide:
        div, big = operator.truediv, 1
    else:
        div, big = operator.floordiv, _common_scale(prods, exact)
    simplex_weights = [det * div(big, prod) for (det, _), prod in zip(table, prods)]
    return simplex_weights, sum(simplex_weights), big


def _simplex_sums(table, pairings: dict, exact: bool = False, coords: Optional[dict] = None) -> tuple:
    """``(T, M, L)``: the sums of every closed form over a table of simplices.

    ``table`` holds ``(det_k, U_k)`` pairs (:func:`simplices` or
    :func:`boundary_faces`), ``pairings`` maps each dual ray u to p_u, and
    P_k is the product of p_u over U_k.  On int p_u,

        T / L = sum_k det_k / P_k,
        M / L^2 = sum_k (det_k / P_k) sum_{u in U_k} u / p_u
                = sum_u (u / p_u) sum_{k : u in U_k} det_k / P_k,

    with every quotient taken as ``L // P_k`` and ``L // p_u``; T, L and the
    weights det_k L // P_k come from :func:`_volume_sums`.  When ``exact``,
    L is the lcm of the P_k and both sides are equal.  Otherwise
    (the p_u of a working-precision xi) L = 2^(b + max bit length of the
    P_k), b = the working precision plus ``_GUARD_BITS``, so each quotient
    is truncated by less than one unit in 2^b of itself; every term of T,
    of W_u below and of <v, M> for v in sigma is positive, so each of them
    carries a relative error below 2^-b times a small count of roundings,
    whatever the number of simplices.  With ``coords``, a map from each u to
    the coordinates E^T u in which to sum it, the p_u are floats, mpfs or
    Fractions, L = 1, the same loop runs with true division on E^T u in
    place of u, and the Hessian E^T H E of T, whose gradient is -E^T M, is
    appended for p_u = <xi, u>, xi = b + E x: with u~ = E^T u / p_u, s_k =
    sum_{u in U_k} u~, w_k = det_k / P_k and W_u = sum_{k : u in U_k} w_k,

        E^T H E = sum_k w_k s_k s_k^T + sum_u W_u u~ u~^T,

    one dot product per entry over the rows s_k and u~.
    """
    divide = coords is not None
    simplex_weights, total, big = _volume_sums(table, pairings, exact, divide)
    div = operator.truediv if divide else operator.floordiv
    coords = coords if divide else {u: u for u in pairings}
    weights = dict.fromkeys(pairings, 0)
    for w, (_, gens) in zip(simplex_weights, table):
        for u in gens:
            weights[u] += w
    moment = [0] * len(next(iter(coords.values())))
    for u, w in weights.items():
        c = w * div(big, pairings[u])
        moment = [m + c * x for m, x in zip(moment, coords[u])]
    if not divide:
        return total, moment, big
    scaled = {u: [x / p for x in coords[u]] for u, p in pairings.items()}
    rows = [list(map(sum, zip(*map(scaled.get, gens)))) for _, gens in table]
    rows += scaled.values()
    row_weights = simplex_weights + list(weights.values())
    cols = list(zip(*rows))
    hess = [[0] * len(cols) for _ in cols]
    for a, col in enumerate(cols):
        weighted = list(map(operator.mul, row_weights, col))
        for b in range(a, len(cols)):
            hess[a][b] = hess[b][a] = sum(map(operator.mul, weighted, cols[b]))
    return total, moment, big, hess


class _SliceSums(NamedTuple):
    """One slice pass at xi = xi_num / d (:func:`numerators`): d, (T, M, L)
    of :func:`_simplex_sums` over :func:`simplices`, and l = l_num / l_d, the
    Gorenstein vector or a boundary l where one is given.  With a = <xi_num,
    l_num> and den = l_d n T L, bary_P at xi / <xi, l> is a M / den."""

    cone: ToricCone
    d: int
    exact: bool
    total: int
    moment: tuple
    big: int
    l_num: Optional[tuple] = None
    l_d: int = 1
    a: int = 0
    den: int = 0

    def s_value(self, v_num: Sequence[int], v_d: int = 1) -> tuple[int, int]:
        """S(v) = <v, bary_Q> at xi, v = v_num / v_d: the ints (d <v_num, M>, v_d (n+1) T L)."""
        return (self.d * linalg.dot(v_num, self.moment),
                v_d * (self.cone.dim + 1) * self.total * self.big)

    def s_prime(self, v_num: Sequence[int], v_d: int = 1) -> tuple[int, int]:
        """S'(v) = <v, bary_P> at xi / <xi, l>: the ints (a <v_num, M>, v_d den)."""
        return self.a * linalg.dot(v_num, self.moment), v_d * self.den

    @property
    def residual(self) -> tuple[int, int]:
        """|bary_P - l|_inf at xi / <xi, l> as a pair (numerator, denominator) of ints."""
        gap = max(abs(self.a * m * self.l_d - x * self.den) for m, x in zip(self.moment, self.l_num))
        return gap, self.den * self.l_d


@lru_cache(maxsize=CONE_CACHE_SIZE)
def _slice_pass(cone: ToricCone, xi_num: tuple[int, ...], bits: Optional[int]) -> tuple:
    """``(T, M, L)`` of :func:`_simplex_sums` over :func:`simplices` at the
    pairings of xi_num, M a tuple: exact when ``bits`` is None, else in the
    fixed point of the working precision ``bits``, on which L depends, so
    both key the cache.  Cached for the last CONE_CACHE_SIZE keys, so an op
    sums its slice once per (cone, xi) whatever it reads from it;
    UnboundedSlice, which is not cached, unless xi is interior to sigma."""
    pairings = _slice_pairings(cone, xi_num)
    total, moment, big = _simplex_sums(simplices(cone), pairings, bits is None)
    return total, tuple(moment), big


def _slice_sums(cone: ToricCone, xi, l: Optional[Sequence[Fraction]] = None) -> _SliceSums:
    """The :class:`_SliceSums` of xi, against l when given, from the cached
    :func:`_slice_pass`: :func:`polytope_Q`, the stability invariants, the
    oracle table and the end of :func:`reebcone.optimize.minimize_volume`
    share one pass at one xi.  UnboundedSlice unless xi is interior to sigma."""
    [(xi_num, d)], exact = reeb_numerators(cone.dim, xi)
    total, moment, big = _slice_pass(cone, tuple(xi_num), None if exact else precision_bits())
    if l is None:
        return _SliceSums(cone, d, exact, total, moment, big)
    l_num, l_d = _common_denominator(l)
    return _SliceSums(cone, d, exact, total, moment, big,
                      l_num, l_d, linalg.dot(xi_num, l_num), l_d * cone.dim * total * big)


def polytope_Q(cone: ToricCone, xi) -> PolytopeSlice:
    """The slice Q_xi = {u in sigma^v : <xi, u> <= 1} with exact metrics.

    Closed form over :func:`simplices`: the simplex of Q_xi over U_k (apex at
    the origin) has volume |det U_k| / (n! prod_i <xi, u_i>) and vertex sum
    s_k = sum_i u_i / <xi, u_i>, and the facet P_xi = {<xi, u> = 1} has
    pieces of areas in the same ratios, so bary_P = (n+1)/n bary_Q is their
    volume-weighted mean of s_k / n.  With xi = xi_num / d, p_u = <xi_num, u>
    and (T, M, L) from :func:`_simplex_sums`, all of it is integer until

        vol = d^n T / (n! L),   bary_P = d M / (n T L),

    one Fraction per output.  Any other xi takes the same integer path with
    d = 2^k and the fixed-point L, and each output is one mpf, the int ratio
    rounded once at the working precision.
    """
    n = cone.dim
    sums = _slice_sums(cone, xi)
    d, total, big, ratio = sums.d, sums.total, sums.big, ratio_type(sums.exact)
    return PolytopeSlice(
        volume_Q=ratio(d ** n * total, math.factorial(n) * big),
        bary_Q=tuple(ratio(d * m, (n + 1) * total * big) for m in sums.moment),
        bary_P=tuple(ratio(d * m, n * total * big) for m in sums.moment),
    )


def futaki_coefficients(cone: ToricCone, xi, eta=None) -> tuple:
    """The index character F at xi and the weight character C of eta to
    order 1, in closed form: ``(F, C)``, with C None when no eta is given.

    With vol and bary_P those of :func:`polytope_Q` and the faces F of
    :func:`boundary_faces`, whose simplices of Q_xi have volumes
    vol(F) = |det W| / ((n-1)! prod_{w in W} <xi, w>),

        a0 = n vol,                     b0 = a0 <eta, bary_P>,
        a1 = (n-1)/2 sum_F vol(F),      b1 = 1/2 sum_F vol(F) sum_{w in W} <eta, w> / <xi, w>,

    on every cone, Q-Gorenstein or not: sum_F vol(F) is the lattice volume
    of the facets of Q_xi through the origin, and b1 = -D_eta a1 / (n-1).
    The Laurent coefficients are the int ratios d^n T / L, d^(n-1) T_F /
    (2 L_F), d^(n+1) <eta_num, M> / (e L^2) and d^n <eta_num, M_F> / (2 e
    L_F^2) of :func:`_simplex_sums` over :func:`simplices` (T, M, L) and
    the faces (T_F, M_F, L_F), n = 1 included (one empty face, a1 = 1/2):
    Fractions for rational xi and eta, else each rounded once to an mpf at
    the working precision.  One route gives the face sums per cone.  With
    a Gorenstein vector l = l_num / l_d, Q_xi is the union of the pyramids
    over those facets with apex l / <xi, l>, at lattice distance 1 / <xi,
    l> from each, so a1 = <xi, l> a0 / 2 and b1 = (<xi, l> b0 - <eta, l>
    a0) / 2: T_F = a T, M_F = l_d (a M - T L l_num) and L_F = l_d L, a =
    <xi_num, l_num>, from the one slice pass, and no face is built.  Only
    where :func:`gorenstein_vector` raises NotQGorenstein or
    DegenerateSolutionSet are the faces summed.  No box points, so no piece
    size bound applies.  (T, M, L) is the cached :func:`_slice_pass` that
    :func:`polytope_Q` and the stability invariants read at the same xi,
    inexact when eta is.
    """
    n = cone.dim
    pairs, exact = reeb_numerators(n, xi, eta)
    (xi_num, d), ratio = pairs[0], ratio_type(exact)
    t_s, m_s, l_s = _slice_pass(cone, tuple(xi_num), None if exact else precision_bits())
    try:
        l_num, l_d = _common_denominator(gorenstein_vector(cone).l)
    except (NotQGorenstein, DegenerateSolutionSet):
        t_f, m_f, l_f = _simplex_sums(boundary_faces(cone), _slice_pairings(cone, xi_num), exact)
    else:
        a = linalg.dot(xi_num, l_num)
        t_f, l_f = a * t_s, l_d * l_s
        m_f = [l_d * (a * m - t_s * l_s * x) for m, x in zip(m_s, l_num)]
    F = LaurentSeries(-n, (ratio(d ** n * t_s, l_s), ratio(d ** (n - 1) * t_f, 2 * l_f)), n, "index")
    if eta is None:
        return F, None
    eta_num, e = pairs[1]
    return F, LaurentSeries(-(n + 1), (
        ratio(d ** (n + 1) * linalg.dot(eta_num, m_s), e * l_s ** 2),
        ratio(d ** n * linalg.dot(eta_num, m_f), 2 * e * l_f ** 2),
    ), n, "weight")
