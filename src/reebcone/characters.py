"""Laurent expansions of the index and weight characters at t = 0.

For a toric singularity the coordinate ring is the semigroup algebra of
sigma^v cap M with one-dimensional weight spaces, so the index character is
the lattice sum F(t) = sum_{u in sigma^v cap M} e^{-t<xi,u>}.  The dual cone
is decomposed into half-open simplicial pieces (disjointly, so the pieces
are directly testable against lattice enumeration); each piece contributes

    (sum over its box points p of e^{-t<xi,p>}) * prod_i 1/(1 - e^{-t<xi,u_i>})

and the factors are expanded as exact truncated power series using the
Bernoulli-type series of g(z) = z/(1 - e^{-z}).  As z/(e^z - 1) = g(z) - z,
z g'(z) - g(z) = g(z) (z - g(z)), so in the weight character C_eta = -(1/t)
d/ds F(xi + s eta)|_{s=0} the derivative of a piece's n generator factors is
their product times one series: n + 2 series products per piece, n without eta.

The box points are summed as integer moments: with xi and eta written as
integer numerators over common denominators, :func:`character_series` makes
one pass per piece, which sums the powers of the integer pairings and runs
the series products of both characters on integers too, over K = prod_i
<xi, u_i> times a shared int.  The pieces' ints are added over one common
scale L, the lcm of the K for rational xi and eta and a fixed point
otherwise, so each output coefficient costs one rational (or mpf)
division.  A piece stores its box points p = sum_i r_i u_i / |det| only as
their barycentric numerators r_i, found by a walk of Z^n modulo the
generator lattice that adds a whole coset per step, and each pairing
<xi, p> is sum_i r_i <xi, u_i> / |det| from the n pairings <xi, u_i>; the
points themselves are a view for tests and counts.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from functools import partial, reduce
from itertools import repeat
from operator import add, index, mul
from typing import NamedTuple

from . import linalg
from .config import ratio_type
from .errors import DimensionMismatch, ExceedsSupportedSize, OrderTooLarge, UnboundedSlice
from .geometry import (LaurentSeries, ToricCone, _common_scale, _sequence_length,
                       reeb_numerators, simplices)

# Taylor coefficients g_j of g(z) = z / (1 - e^{-z}) = sum_j g_j z^j (Bernoulli numbers)
_G_COEFFS = (Fraction(1), Fraction(1, 2), Fraction(1, 12), Fraction(0), Fraction(-1, 720))
MAX_ORDER = len(_G_COEFFS) - 1
MAX_BOX_POINTS = 10 ** 6


class SimplicialPiece(NamedTuple):
    """A half-open simplicial subcone of sigma^v with its box points as numerators.

    ``generators`` are n linearly independent primitive dual rays u_i; facet
    i of the piece is where the i-th barycentric coordinate vanishes, and
    ``excluded[i]`` marks it open (its points belong to a neighboring
    piece).  The |det| box points are the lattice points sum_i r_i u_i / |det|
    of the fundamental parallelepiped, shifted into the half-open ranges
    matching ``excluded`` (r_i in (0, |det|] on open facets, [0, |det|)
    otherwise) so that the piece sums are exactly the lattice sums of the
    half-open cone: the decomposition is disjoint, not inclusion-exclusion.
    ``numerators[i]`` lists the i-th numerators r_i of every box point, in one
    order for all i; :attr:`box_points` is a view of the points themselves.
    """

    generators: tuple[tuple[int, ...], ...]
    numerators: tuple[tuple[int, ...], ...]
    excluded: tuple[bool, ...]

    @property
    def box_points(self) -> tuple[tuple[int, ...], ...]:
        """The box points sum_i r_i u_i / |det|, sorted: built on each read, for
        tests, oracles and counts; the series read the numerators."""
        count, rows = len(self.numerators[0]), linalg.transpose(self.generators)
        return tuple(sorted(tuple([sum(map(mul, row, r)) // count for row in rows])
                            for r in zip(*self.numerators)))


# ---------------------------------------------------------------------------
# decomposition of the dual cone
# ---------------------------------------------------------------------------

def _box_points(count: int, scaled_inverse,
                excluded: Sequence[bool]) -> tuple[tuple[int, ...], ...]:
    """Barycentric numerators of the half-open fundamental parallelepiped.

    With U the generator columns and ``scaled_inverse`` S = count * U^-1,
    z -> S z mod count embeds Z^n / U Z^n in (Z/count)^n, and the columns of
    S generate the image.  The image is closed one column c at a time, a
    whole coset per step: the least k >= 1 with k c in the subgroup H of the
    earlier columns is count / gcd(count, c) while H is trivial, and is
    found by stepping k c against H otherwise; H then grows to the k cosets
    H + m c, m < k, one coordinate list at a time, and the walk ends once it
    holds count elements.  Returns the numerators column-major, entry i
    holding every r_i, in (0, count] on excluded facets and in [0, count)
    elsewhere.
    """
    group, size = [[0] for _ in excluded], 1
    for col in zip(*scaled_inverse):
        if size == count:
            break
        if size == 1:
            k = count // math.gcd(count, *col)
        else:
            members, k = set(zip(*group)), 1
            step = tuple([c % count for c in col])
            while step not in members:
                step = tuple([(a + c) % count for a, c in zip(step, col)])
                k += 1
        if k > 1:
            group = [[(h + m * c) % count for m in range(k) for h in hs]
                     for hs, c in zip(group, col)]
            size *= k
    return tuple(tuple([r or count for r in rs]) if off else tuple(rs)
                 for rs, off in zip(group, excluded))


def decompose_dual(cone: ToricCone) -> tuple[SimplicialPiece, ...]:
    """Disjoint half-open simplicial decomposition of sigma^v.

    The dual cone is triangulated by pulling rays; each simplicial piece
    then keeps or drops its facets according to which side of the facet
    hyperplane the (lexicographically perturbed) reference point
    q = sum of all dual rays lies on: facet i is dropped when the tuple
    (<row_i, q>,) + row_i, row_i the scaled inverse's row i, sorts below
    zero.  Exactly one piece retains every shared face, so the half-open
    pieces partition sigma^v cap Z^n.  Each piece keeps the barycentric
    numerators of its box points from the coset walk of :func:`_box_points`
    and builds no point.  Raises ExceedsSupportedSize above MAX_BOX_POINTS
    box points in all pieces together, the sum of their |det|, before any
    piece is walked.  Not cached: each call walks afresh, and the box points
    live as long as the caller keeps them.
    """
    found = simplices(cone)
    total = sum(count for count, _ in found)
    if total > MAX_BOX_POINTS:
        raise ExceedsSupportedSize(f"the {len(found)} simplicial pieces have {total} box points, "
                                   f"above the {MAX_BOX_POINTS} bound")
    q_ref = tuple(sum(col) for col in zip(*cone.dual_rays))
    pieces = []
    for count, generators in found:
        _, _, scaled_inverse = linalg.pivot_inverse(linalg.transpose(generators), len(generators))
        origin = (0,) * (len(generators) + 1)
        excluded = tuple((linalg.dot(row, q_ref),) + row < origin for row in scaled_inverse)
        pieces.append(SimplicialPiece(
            generators=generators,
            numerators=_box_points(count, scaled_inverse, excluded),
            excluded=excluded,
        ))
    return tuple(pieces)


# ---------------------------------------------------------------------------
# series engine
# ---------------------------------------------------------------------------

def _series_mul(a: list, b: list) -> list:
    return [sum(map(mul, a[:j + 1], b[j::-1])) for j in range(len(a))]


def check_order(order) -> int:
    """``order`` as an int, before any piece is built: ValueError unless it is
    a nonnegative integer, OrderTooLarge above MAX_ORDER."""
    try:
        order = index(order)
    except TypeError:
        raise ValueError(f"expansion order must be an integer, got {order!r}") from None
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    if order > MAX_ORDER:
        raise OrderTooLarge(f"expansion order {order} outside the implemented depth 0..{MAX_ORDER}")
    return order


def _piece_series(piece: SimplicialPiece, xi_num, eta_num, shared) -> tuple:
    """The t-series of one piece's closed form and, with eta, its d/ds along
    xi + s eta, as ints: ``(K, P, V)``, V None without eta.

    The closed form is B(t) prod_i g(c_i t) / (c_i t): B sums e^{-t<xi,p>}
    over the box points p, c_i = <xi, u_i>, g(z) = z / (1 - e^{-z}) =
    sum_j g_j z^j.  With xi = xi_num / d and eta = eta_num / e, k = <xi_num,
    .> and eps = <eta_num, .>, the factors in tau = t / d are the integer
    series (-1)^j (N!/j!) sum_p k_p^j tau^j for N! B and gamma_j k_i^j tau^j
    for G g(c_i t), with N the order, G = gamma_0 the least common
    denominator of g_0..g_N and gamma_j = G g_j (``shared``).  The box points
    enter through K_p = |det| k_p = sum_i k_i r_i over the numerators r_i:
    sum_p k_p^j = sum_p K_p^j / |det|^j and sum_p eps_p k_p^j = sum_p E_p
    K_p^j / |det|^(j+1), both exact.  P = B H, H = prod_i (gamma_j k_i^j)_j, has
    coefficient P_j d^(n-j) / (N! G^n K) at t^(j-n), K = prod_i k_i.  Since
    z g'(z) - g(z) = g(z) (z - g(z)), V = H (G dB + B Psi) // G exactly, where
    dB = K (-1)^j (N!/(j-1)!) sum_p eps_p k_p^(j-1) is the box derivative and
    Psi_j = sum_i (K/k_i) eps_i (G k_i [j = 1] - gamma_j k_i^j); V has d/ds
    coefficient V_j d^(n+1-j) / (e K^2 N! G^n): n + 2 series products with eta,
    n without.  A working-precision xi or eta runs on its dyadic numerators.
    """
    gammas, box, _ = shared
    count, order, big_g = len(piece.numerators[0]), len(gammas) - 1, gammas[0]
    ks = [sum(map(mul, xi_num, u)) for u in piece.generators]
    if not all(k > 0 for k in ks):
        raise UnboundedSlice("xi pairs nonpositively with a dual-cone generator")
    k_prod = math.prod(ks)

    def scaled_pairings(weights):  # |det| <v, p> = sum_i w_i r_i at every box point
        return list(reduce(partial(map, add), map(map, repeat(mul), piece.numerators,
                                                  map(repeat, weights))))

    kp = scaled_pairings(ks)
    powers = [kp]  # K_p^j up to j = N - 1; each sum multiplies once more
    while len(powers) < order - 1:
        powers.append(list(map(mul, powers[-1], kp)))
    sums = [count, sum(kp)] + [sum(map(mul, p, kp)) for p in powers[:order - 1]]
    factors = [[gamma * k ** j for j, gamma in enumerate(gammas)] for k in ks]
    product = reduce(_series_mul, factors)
    box_series = [b * m // count ** j for j, (b, m) in enumerate(zip(box, sums))]
    series = _series_mul(box_series, product)
    if eta_num is None:
        return k_prod, series, None
    es = [sum(map(mul, eta_num, u)) for u in piece.generators]
    ep = scaled_pairings(es)
    moments = [sum(ep)] + [sum(map(mul, ep, p)) for p in powers[:order - 1]]
    d_box = [0] + [-b * k_prod * m // count ** (j + 1)
                   for j, (b, m) in enumerate(zip(box[:order], moments))]
    psi = [sum(k_prod // k * eps * (big_g * k * (j == 1) - f[j]) for k, eps, f in
               zip(ks, es, factors)) for j in range(order + 1)]
    inner = [big_g * a + b for a, b in zip(d_box, _series_mul(box_series, psi))]
    return k_prod, series, [v // big_g for v in _series_mul(product, inner)]


def _summed(parts, power: int, exact: bool) -> tuple[list, int]:
    """``(S, L)``: the coefficients x_j of the pieces' ``(K, x)`` pairs summed
    over one scale, S_j / L^power = sum x_j / K^power, with L from
    :func:`reebcone.geometry._common_scale` and each (L // K)^power taken once
    per piece."""
    big = _common_scale([k for k, _ in parts], exact)
    sums = [0] * len(parts[0][1])
    for k, coeffs in parts:
        w = (big // k) ** power
        sums = [acc + w * x for acc, x in zip(sums, coeffs)]
    return sums, big


def character_series(pieces: Sequence[SimplicialPiece], xi, eta=None,
                     order: int = 2) -> tuple[LaurentSeries, LaurentSeries | None]:
    """``(F, C)``: the index character at xi through t^(-n + order) and the
    weight character of eta through t^(-(n+1) + order), C None without eta.

    One :func:`_piece_series` per piece; its ints P and V are summed over one
    scale L each, and each coefficient is rounded once: d^(n-j) sum_k P_j (L /
    K) / (N! G^n L) at t^(j-n), and -d^(n+1-j) sum_k V_j (L / K)^2 / (e N! G^n
    L^2) at t^(j-n-1), C = -(1/t) d/ds F(xi + s eta)|_{s=0}.  Fractions for
    rational xi and eta, else mpfs at the working precision.  Before any work:
    ValueError unless ``pieces`` is a nonempty sequence of SimplicialPieces
    whose n numerator lists share one nonzero length, DimensionMismatch unless
    every piece has n generators of length n, and :func:`check_order`'s errors.
    """
    order = check_order(order)
    if not isinstance(pieces, Sequence) or not all(
            isinstance(p, SimplicialPiece) and len(p.numerators) == len(p.generators)
            and len(set(map(len, p.numerators))) == 1 and p.numerators[0] for p in pieces):
        raise ValueError("pieces must be a sequence of SimplicialPieces, each of n numerator "
                         "lists of one nonzero length: pass those of decompose_dual")
    if not pieces:
        raise ValueError("no simplicial pieces: pass those of decompose_dual")
    n = len(pieces[0].generators)
    if any(len(p.generators) != n or any(len(u) != n for u in p.generators) for p in pieces):
        raise DimensionMismatch(f"pieces of more than one dimension: the first has {n} generators")
    pairs, exact = reeb_numerators(n, xi, eta)
    (xi_num, d), (eta_num, e) = [*pairs, (None, 1)][:2]
    g = _G_COEFFS[:order + 1]
    big_g, fact = math.lcm(*(x.denominator for x in g)), math.factorial(order)
    shared = ([int(x * big_g) for x in g],
              [(-1) ** j * (fact // math.factorial(j)) for j in range(order + 1)],
              fact * big_g ** n)
    parts = [_piece_series(piece, xi_num, eta_num, shared) for piece in pieces]
    sums, big = _summed([(k, p) for k, p, _ in parts], 1, exact)
    ratio, scale = ratio_type(exact), shared[-1] * big
    F = LaurentSeries(order_low=-n, dim=n, kind="index", coeffs=tuple(
        ratio(s * d ** n, scale * d ** j) for j, s in enumerate(sums)))
    if eta_num is None:
        return F, None
    sums, big = _summed([(k, v) for k, _, v in parts], 2, exact)
    scale = e * shared[-1] * big ** 2
    C = LaurentSeries(order_low=-(n + 1), dim=n, kind="weight", coeffs=tuple(
        ratio(-v * d ** (n + 1), scale * d ** j) for j, v in enumerate(sums)))
    return F, C


def index_character(pieces: Sequence[SimplicialPiece], xi, order: int = 2) -> LaurentSeries:
    """F of :func:`character_series` without eta; goes once ROADMAP item 1b
    moves the benchmark's ``kgon-characters`` op to :func:`character_series`."""
    return character_series(pieces, xi, None, order)[0]


def weight_character(pieces: Sequence[SimplicialPiece], xi, eta, order: int = 2) -> LaurentSeries:
    """C of :func:`character_series`, ValueError for an eta of None; goes once ROADMAP
    item 1b moves the benchmark's ``kgon-characters`` op to :func:`character_series`."""
    _sequence_length("eta", eta)
    return character_series(pieces, xi, eta, order)[1]
