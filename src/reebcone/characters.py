"""Laurent expansions of the index and weight characters at t = 0.

For a toric singularity the coordinate ring is the semigroup algebra of
sigma^v cap M with one-dimensional weight spaces, so the index character is
the lattice sum F(t) = sum_{u in sigma^v cap M} e^{-t<xi,u>}.  The dual cone
is decomposed into half-open simplicial pieces (disjointly, so the pieces
are directly testable against lattice enumeration); each piece contributes

    (sum over its box points p of e^{-t<xi,p>}) * prod_i 1/(1 - e^{-t<xi,u_i>})

and the factors are expanded as exact truncated power series using the
Bernoulli-type series of z/(1 - e^{-z}).  The weight character C_eta is
obtained from the same closed form via the directional derivative
C_eta = -(1/t) * d/ds F(xi + s*eta)|_{s=0}, applied term by term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Optional, Sequence

from . import linalg
from .config import mp_context, to_mpf, working_precision
from .errors import (
    CutoffTooSmall,
    ExceedsSupportedSize,
    OrderTooLarge,
    UnboundedSlice,
)
from .geometry import ToricCone, ReebVector, integer_reeb, lattice_rows, simplices

MAX_ORDER = 4
MAX_BOX_POINTS = 10 ** 6


@dataclass(frozen=True)
class SimplicialPiece:
    """A half-open simplicial subcone of sigma^v with its box points.

    ``generators`` are n linearly independent primitive dual rays; facet i
    of the piece is where the i-th barycentric coordinate vanishes, and
    ``excluded[i]`` marks it open (its points belong to a neighboring
    piece).  ``box_points`` are the |det| lattice points of the fundamental
    parallelepiped, shifted into the half-open ranges matching ``excluded``
    (coordinate in (0,1] on open facets, [0,1) otherwise) so that the piece
    sums are exactly the lattice sums of the half-open cone.  ``sign`` is
    +1 throughout: the decomposition is disjoint, not inclusion-exclusion.
    """

    generators: tuple[tuple[int, ...], ...]
    box_points: tuple[tuple[int, ...], ...]
    sign: int
    excluded: tuple[bool, ...]


@dataclass(frozen=True)
class LaurentSeries:
    """Principal-part coefficients of a character expansion at t = 0.

    ``coeffs[j]`` is the Laurent coefficient of t^(order_low + j).  For an
    index character order_low = -n and (n-1)! a0 = coeffs[0]; for a weight
    character order_low = -(n+1) and n! b0 = coeffs[0].
    """

    order_low: int
    coeffs: tuple
    dim: int
    kind: str

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        if (self.order_low, self.dim, self.kind) != (other.order_low, other.dim, other.kind):
            raise ValueError("incompatible Laurent series")
        k = min(len(self.coeffs), len(other.coeffs))
        return LaurentSeries(self.order_low,
                             tuple(a + b for a, b in zip(self.coeffs[:k], other.coeffs[:k])),
                             self.dim, self.kind)

    def evaluate(self, t):
        """Evaluate the truncated expansion at a scalar t > 0."""
        return sum(c * t ** (self.order_low + j) for j, c in enumerate(self.coeffs))

    @property
    def a0(self):
        if self.kind != "index":
            raise ValueError("a0 is an index-character coefficient")
        return self.coeffs[0] / math.factorial(self.dim - 1)

    @property
    def a1(self):
        if self.kind != "index":
            raise ValueError("a1 is an index-character coefficient")
        norm = math.factorial(self.dim - 2) if self.dim >= 2 else 1
        return self.coeffs[1] / norm

    @property
    def b0(self):
        if self.kind != "weight":
            raise ValueError("b0 is a weight-character coefficient")
        return self.coeffs[0] / math.factorial(self.dim)

    @property
    def b1(self):
        if self.kind != "weight":
            raise ValueError("b1 is a weight-character coefficient")
        return self.coeffs[1] / math.factorial(self.dim - 1)


# ---------------------------------------------------------------------------
# decomposition of the dual cone
# ---------------------------------------------------------------------------

def _box_points(generators: Sequence[tuple[int, ...]],
                excluded: Sequence[bool],
                max_box: int) -> tuple[tuple[int, ...], ...]:
    """Lattice points of the half-open fundamental parallelepiped.

    Coset representatives of Z^n modulo the generator lattice come from the
    column Hermite form (one representative per diagonal box cell); each is
    then translated by a lattice vector into the half-open ranges demanded
    by the excluded-facet pattern.
    """
    n = len(generators)
    cols = linalg.transpose(generators)  # columns are the generators
    hnf = linalg.column_hnf(cols)
    count = 1
    for i in range(n):
        count *= hnf[i][i]
    if count > max_box:
        raise ExceedsSupportedSize(
            f"simplicial piece has {count} box points, above the {max_box} bound"
        )
    inv = linalg.inverse(cols)
    points = []
    for rep in product(*(range(hnf[i][i]) for i in range(n))):
        lam = linalg.mat_vec(inv, rep)
        shift = [math.ceil(c) - 1 if off else math.floor(c)
                 for c, off in zip(lam, excluded)]
        point = tuple(x - linalg.dot(row, shift) for x, row in zip(rep, cols))
        points.append(point)
    return tuple(sorted(points))


@lru_cache(maxsize=None)
def decompose_dual(cone: ToricCone, max_box: int = MAX_BOX_POINTS) -> tuple[SimplicialPiece, ...]:
    """Disjoint half-open simplicial decomposition of sigma^v.

    The dual cone is triangulated by pulling rays; each simplicial piece
    then keeps or drops its facets according to which side of the facet
    hyperplane the (lexicographically perturbed) reference point
    q = sum of all dual rays lies on.  Exactly one piece retains every
    shared face, so the half-open pieces partition sigma^v cap Z^n.
    """
    q_ref = tuple(sum(col) for col in zip(*cone.dual_rays))
    pieces = []
    for _, generators in simplices(cone):
        inv = linalg.inverse(linalg.transpose(generators))
        excluded = tuple(
            linalg.lex_sign((linalg.dot(row, q_ref),) + tuple(row)) < 0
            for row in inv
        )
        pieces.append(SimplicialPiece(
            generators=generators,
            box_points=_box_points(generators, excluded, max_box),
            sign=1,
            excluded=excluded,
        ))
    return tuple(pieces)


# ---------------------------------------------------------------------------
# series engine
# ---------------------------------------------------------------------------

_G_COEFFS: list[Fraction] = [Fraction(1)]


def _g_coeff(j: int) -> Fraction:
    """Taylor coefficients of g(z) = z / (1 - e^{-z}) (Bernoulli numbers)."""
    while len(_G_COEFFS) <= j:
        m = len(_G_COEFFS) + 1  # solving the z^m coefficient of (1-e^{-z})g(z) = z
        acc = Fraction(0)
        for k in range(2, m + 1):
            sign = 1 if k % 2 else -1
            acc += Fraction(sign, math.factorial(k)) * _G_COEFFS[m - k]
        _G_COEFFS.append(-acc)
    return _G_COEFFS[j]


def _series_mul(a: list, b: list) -> list:
    order = len(a) - 1
    out = [0 * a[0]] * (order + 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j in range(order + 1 - i):
            out[i + j] = out[i + j] + ai * b[j]
    return out


def _coerce_pair(xi, eta: Optional[Sequence]):
    """Coerce xi (and optionally eta) to a common scalar domain."""
    if isinstance(xi, ReebVector):
        xi = xi.xi
    xi = tuple(xi)
    vals = list(xi) + (list(eta) if eta is not None else [])
    if all(isinstance(x, (int, Fraction)) for x in vals):
        xi = tuple(Fraction(x) for x in xi)
        eta = tuple(Fraction(x) for x in eta) if eta is not None else None
        return xi, eta, True
    ctx = mp_context()
    xi = tuple(to_mpf(x, ctx) for x in xi)
    eta = tuple(to_mpf(x, ctx) for x in eta) if eta is not None else None
    return xi, eta, False


def _check_order(order: int, max_order: int):
    if not 0 <= order <= max_order:
        raise OrderTooLarge(
            f"expansion order {order} outside the implemented depth 0..{max_order}"
        )


def _piece_data(piece: SimplicialPiece, xi):
    cs = [linalg.dot(xi, u) for u in piece.generators]
    if not all(c > 0 for c in cs):
        raise UnboundedSlice("xi pairs nonpositively with a dual-cone generator")
    a_vals = [linalg.dot(xi, p) for p in piece.box_points]
    return cs, a_vals


def _g_factor_series(c, order: int, exact: bool) -> list:
    out = []
    for j in range(order + 1):
        gj = _g_coeff(j)
        if not exact:
            gj = to_mpf(gj)
        out.append(gj * c ** (j - 1))
    return out


def _box_series(a_vals: list, order: int, exact: bool) -> list:
    zero = Fraction(0) if exact else to_mpf(0)
    out = [zero] * (order + 1)
    for a in a_vals:
        term = Fraction(1) if exact else to_mpf(1)
        out[0] = out[0] + term
        for j in range(1, order + 1):
            term = term * (-a) / j
            out[j] = out[j] + term
    return out


def index_character(pieces: Sequence[SimplicialPiece], xi,
                    order: int = 2, max_order: int = MAX_ORDER) -> LaurentSeries:
    """Laurent expansion of F(X; xi, t) through t^(-n + order).

    Sums the closed form of each half-open piece and expands exactly in t;
    rational xi yields exact rational coefficients.
    """
    _check_order(order, max_order)
    xi, _, exact = _coerce_pair(xi, None)
    n = len(pieces[0].generators)
    with working_precision():
        zero = Fraction(0) if exact else to_mpf(0)
        total = [zero] * (order + 1)
        for piece in pieces:
            cs, a_vals = _piece_data(piece, xi)
            series = _box_series(a_vals, order, exact)
            for c in cs:
                series = _series_mul(series, _g_factor_series(c, order, exact))
            total = [acc + piece.sign * s for acc, s in zip(total, series)]
    return LaurentSeries(order_low=-n, coeffs=tuple(total), dim=n, kind="index")


def weight_character(pieces: Sequence[SimplicialPiece], xi, eta,
                     order: int = 2, max_order: int = MAX_ORDER) -> LaurentSeries:
    """Laurent expansion of C_eta(X; xi, t) through t^(-(n+1) + order).

    Computed as the directional derivative -(1/t) d/ds F(xi + s eta)|_{s=0}
    of the piecewise closed form: the product rule is applied to the
    denominator factors g(<xi,u_i> t)/<xi,u_i> and the box-point numerator,
    whose derivatives are themselves explicit series in t.
    """
    _check_order(order, max_order)
    xi, eta, exact = _coerce_pair(xi, eta)
    n = len(pieces[0].generators)
    with working_precision():
        zero = Fraction(0) if exact else to_mpf(0)
        one = Fraction(1) if exact else to_mpf(1)
        total = [zero] * (order + 1)
        for piece in pieces:
            cs, a_vals = _piece_data(piece, xi)
            es = [linalg.dot(eta, u) for u in piece.generators]
            b_vals = [linalg.dot(eta, p) for p in piece.box_points]

            factors = [_g_factor_series(c, order, exact) for c in cs]
            factors.append(_box_series(a_vals, order, exact))

            dfactors = []
            for c, e in zip(cs, es):
                series = []
                for j in range(order + 1):
                    gj = _g_coeff(j)
                    if not exact:
                        gj = to_mpf(gj)
                    series.append(e * gj * (j - 1) * c ** (j - 2))
                dfactors.append(series)
            dbox = [zero] * (order + 1)
            for a, b in zip(a_vals, b_vals):
                if b == 0 or order < 1:
                    continue
                term = -b
                dbox[1] = dbox[1] + term
                for j in range(2, order + 1):
                    term = term * (-a) / (j - 1)
                    dbox[j] = dbox[j] + term
            dfactors.append(dbox)

            m = len(factors)
            prefix = [[one] + [zero] * order]
            for f in factors:
                prefix.append(_series_mul(prefix[-1], f))
            suffix = [[one] + [zero] * order]
            for f in reversed(factors):
                suffix.append(_series_mul(suffix[-1], f))
            suffix.reverse()

            derivative = [zero] * (order + 1)
            for idx in range(m):
                part = _series_mul(_series_mul(prefix[idx], dfactors[idx]), suffix[idx + 1])
                derivative = [acc + s for acc, s in zip(derivative, part)]
            total = [acc - piece.sign * s for acc, s in zip(total, derivative)]
    return LaurentSeries(order_low=-(n + 1), coeffs=tuple(total), dim=n, kind="weight")


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

def truncated_character_oracle(cone: ToricCone, xi, eta_or_none, t, cutoff,
                               rel_tol: float = 1e-3) -> float:
    """Brute-force lattice sum approximating F (or C_eta with eta given).

    Sums e^{-t<xi,u>} (times <eta,u> when eta is given) over all lattice
    points of sigma^v with <xi,u> <= cutoff, entirely independently of the
    simplicial decomposition.  The points are exactly those of the row scan
    :func:`reebcone.geometry.lattice_rows` (rational xi only); the weights
    are floats.  Along a run the pairing steps by |xi_n|, so each run sums
    in closed form as a geometric series, arithmetico-geometric when eta is
    given.  The neglected tail is bounded by fitting the observed polynomial
    growth of the pairing shells; if the bound exceeds rel_tol times the
    partial sum, CutoffTooSmall is raised.
    """
    import numpy as np

    if isinstance(xi, ReebVector):
        xi = xi.xi
    if t <= 0:
        raise ValueError("t must be positive")
    n = cone.dim
    prefix, a, b = lattice_rows(cone, xi, cutoff)
    xi_int, denom = integer_reeb(cone, xi)
    counts = b - a + 1
    # run r starts at its lowest pairing s0[r] / denom and steps by h / t
    step = xi_int[-1]
    sign = 1 if step >= 0 else -1
    x0 = a if step >= 0 else b
    s0 = prefix @ np.array(xi_int[:-1], dtype=np.int64) + step * x0
    h = t * abs(step) / denom
    if step:
        # a run weighs q^j, j < L, q = e^{-h}: sum (1 - q^L) / (1 - q), mean
        # index 1/(e^h - 1) - L/(e^{hL} - 1), written to neither overflow nor
        # leave rounding residue on one-point runs
        one_minus_q, one_minus_q_l = -np.expm1(-h), -np.expm1(-h * counts)
        geometric = one_minus_q_l / one_minus_q
        mean = np.where(counts > 1, np.exp(-h) / one_minus_q
                        - counts * np.exp(-h * counts) / one_minus_q_l, 0.0)
    else:
        geometric = counts.astype(float)
        mean = (counts - 1) / 2
    weights = np.exp(-t / denom * s0) * geometric
    if eta_or_none is not None:
        eta_f = np.array([float(x) for x in eta_or_none])
        weights *= prefix @ eta_f[:-1] + eta_f[-1] * (x0 + sign * mean)
    partial = float(weights.sum())

    num_shells = int(math.ceil(cutoff))
    half = max(1, num_shells // 2)
    top = s0 + abs(step) * (counts - 1)
    live = top > (half - 1) * denom  # runs wholly below shell half-1 cancel below
    s0, counts = s0[live], counts[live]
    below = []  # lattice points with <xi,u> <= k, up to a constant
    for k in range(half - 1, num_shells + 1):
        if step:
            below.append(int(np.clip((k * denom - s0) // abs(step) + 1, 0, counts).sum()))
        else:
            below.append(int(counts[s0 <= k * denom].sum()))
    shell_counts = dict(zip(range(half, num_shells + 1), np.diff(below).tolist()))

    # Tail bound: shell counts grow like A * s^(n-1) (Ehrhart), with one
    # extra power of s for the eta-weighted sum.
    densities = [c / k ** (n - 1) for k, c in shell_counts.items() if c > 0]
    amp = 2.0 * max(densities) if densities else 2.0
    degree = n - 1
    weight_amp = 1.0
    if eta_or_none is not None:
        degree += 1
        rho = max(abs(x) * denom / linalg.dot(xi_int, u) for u in cone.dual_rays for x in u)
        weight_amp = float(np.abs(eta_f).sum()) * max(rho, 1e-9)
    tail = 0.0
    k = num_shells + 1
    while k < num_shells + 200000:
        term = amp * weight_amp * k ** degree * math.exp(-t * (k - 1))
        tail += term
        if term < 1e-18 * (abs(partial) + tail + 1e-300):
            break
        k += 1
    if tail > rel_tol * max(abs(partial), 1e-300):
        raise CutoffTooSmall(
            f"estimated tail {tail:.3g} exceeds {rel_tol:.1g} * |partial sum| "
            f"{abs(partial):.6g}; increase the cutoff"
        )
    return partial
