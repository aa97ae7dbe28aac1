"""The integer points of the Reeb slice's dilates, and the brute-force oracles
that sum over them.

The points u of sigma^v with <xi, u> <= level, xi rational, are found as runs
{prefix} x [a, b] along one axis, by an exact integer row scan of the slice's
bounding box: :func:`lattice_rows` in NumPy and :func:`_python_rows` in pure
Python, which refuse the same scans.  On those rows sit the independent
witnesses of the closed forms: :func:`lattice_points`, the finite-level
averages S_m of :func:`s_m_oracle` (and the CLI's table of every level from one
scan, :func:`_oracle_table`), and the truncated index and weight character sums
of :func:`truncated_character_oracle`.  This is the one module that imports
NumPy, inside the functions that use it, so the table loads none.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import compress
from typing import Sequence

from . import linalg
from .config import ratio_type
from .errors import CutoffTooSmall, ExceedsSupportedSize, IrrationalReeb
from .geometry import (ToricCone, _dyadic, _positive_finite, _positive_int, _slice_pairings,
                       _slice_sums, gorenstein_vector, reeb_numerators)
from .stability import toric_valuation

# prefixes materialized (peak RSS 62 B each in dim 3, 113-127 B in dim 8), or points
# listed (232 B and 366 B each, rows included): no accepted call passes about 1 GB
MAX_LATTICE_SCAN = 2 * 10 ** 6
_INT64_SAFE = 2 ** 62  # bound on every int64 the row scan and its callers form


def integer_reeb(cone: ToricCone, xi) -> tuple[tuple[int, ...], int]:
    """``(d xi, d)`` for the least d > 0 making d xi integral; xi rational and interior."""
    [(xi_int, denom)], exact = reeb_numerators(cone.dim, xi)
    if not exact:
        raise IrrationalReeb("lattice enumeration requires a rational Reeb vector")
    _slice_pairings(cone, xi_int)
    return xi_int, denom


def _scan_box(cone: ToricCone, xi, level) -> tuple:
    """``(d xi, floor(d level), lo, hi, prefixes)``: d xi integral, the bounding
    box ``[lo, hi]`` of level*Q_xi, whose vertices other than 0 lie on the dual
    rays, and the number of prefixes :func:`lattice_rows` scans in it.

    The vertex on the dual ray u is (bound / p) u with p = <d xi, u> > 0 and
    bound = floor(d level), so axis j of the box runs from min(0, floor(bound
    u_j / p)) to max(0, ceil(bound u_j / p)) over the dual rays, each an int
    quotient ``bound * u_j // p`` or ``-(-bound * u_j // p)``.
    """
    if not -math.inf < level < math.inf:
        raise ValueError(f"level must be finite, got {level!r}")
    xi_int, denom = integer_reeb(cone, xi)
    try:
        level = Fraction(level)  # an int, float, Fraction or Decimal exactly, with no mpmath
    except TypeError:  # another number, an mpf or a NumPy float32 say, as numerators reads it
        level = _dyadic("level", level)
    bound = math.floor(level * denom)
    scaled = [([bound * x for x in u], linalg.dot(xi_int, u)) for u in cone.dual_rays]
    lo = [min(0, *axis) for axis in zip(*([x // p for x in u] for u, p in scaled))]
    hi = [max(0, *axis) for axis in zip(*([-(-x // p) for x in u] for u, p in scaled))]
    return xi_int, bound, lo, hi, math.prod(h - l + 1 for l, h in zip(lo[:-1], hi[:-1]))


def _scan_plan(cone: ToricCone, xi, level) -> tuple:
    """``(lo, hi, constraints)`` of the row scan of level*Q_xi: the box of
    :func:`_scan_box` and each ``(coeffs, rhs)`` with <coeffs, u> >= rhs, the rays and
    then the top level <d xi, u> <= floor(d level).  ExceedsSupportedSize above
    MAX_LATTICE_SCAN prefixes or where an int64 sum, or a coefficient, could
    overflow, so that :func:`lattice_rows` and :func:`_python_rows` refuse the same scans.
    """
    xi_int, bound, lo, hi, prefixes = _scan_box(cone, xi, level)
    if prefixes > MAX_LATTICE_SCAN:
        raise ExceedsSupportedSize(
            f"lattice scan of {prefixes} prefixes exceeds the supported {MAX_LATTICE_SCAN}"
        )
    constraints = [(v, 0) for v in cone.rays] + [(tuple(-c for c in xi_int), -bound)]
    reach = [max(-l, h) for l, h in zip(lo, hi)]
    largest = max([prefixes * (hi[-1] - lo[-1] + 1) * max(reach)] + [
        sum(abs(c) * r for c, r in zip(coeffs, reach)) + abs(rhs) + max(map(abs, coeffs))
        for coeffs, rhs in constraints
    ])
    if largest >= _INT64_SAFE:
        # bits, not digits: an int past str's digit limit has no decimal form
        raise ExceedsSupportedSize(f"lattice scan values up to 2^{largest.bit_length()} "
                                   "overflow int64")
    return lo, hi, constraints


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
    lo, hi, constraints = _scan_plan(cone, xi, level)
    import numpy as np

    widths = [h - l + 1 for l, h in zip(lo, hi)]
    offset = np.array(lo[:-1], dtype=np.int64)  # int64 even when empty, in dim 1
    prefixes = math.prod(widths[:-1])
    prefix = np.indices(widths[:-1], dtype=np.int64).reshape(len(lo) - 1, prefixes).T + offset
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


def _python_rows(cone: ToricCone, xi, level) -> tuple[int, list[tuple[tuple[int, ...], int, int]]]:
    """``(axis, rows)``: the integer points of level*Q_xi as runs along the widest
    axis of the box of :func:`_scan_box`, the last of those as wide.  Each row is a
    ``(prefix, a, b)`` of ints and holds the points whose other coordinates are
    ``prefix``, in order, and whose coordinate ``axis`` is in [a, b].  Scanned in
    pure Python, so no NumPy loads, with the refusals of :func:`lattice_rows`.

    Depth first, one coordinate at a time and ``axis`` last, a prefix keeps the room
    left in each constraint: ``<coeffs, prefix> - rhs`` plus the most the later
    coordinates of a point in the box could add.  The next coordinate x runs only
    where ``room + c x >= 0`` in every constraint, c its coefficient there, which one
    with c = 0 leaves to its other coordinates; a prefix outside that range would
    start only empty runs, and at ``axis`` the range is the run.
    """
    lo, hi, constraints = _scan_plan(cone, xi, level)
    n = len(lo)
    # the widest axis last: the fewest prefixes, and on a long thin box the fewest rows
    axis = max(range(n), key=lambda j: (hi[j] - lo[j], j))
    order = [j for j in range(n) if j != axis] + [axis]
    lo, hi = [lo[j] for j in order], [hi[j] for j in order]
    constraints = [(tuple(coeffs[j] for j in order), rhs) for coeffs, rhs in constraints]
    # reach[j][k]: the most the coordinates j.. of a point in the box add to constraint k
    reach = [[0] * len(constraints)]
    for j in reversed(range(n)):
        reach.insert(0, [r + max(c[j] * lo[j], c[j] * hi[j]) for r, (c, _) in
                         zip(reach[0], constraints)])
    # per coordinate: the constraints that bound it below and above, by |c|, and the
    # room of x there minus that of the prefix before it
    signs, steps = [], []
    for j in range(n):
        column = [coeffs[j] for coeffs, _ in constraints]
        signs.append(([c > 0 for c in column], [c < 0 for c in column],
                      [abs(c) or 1 for c in column]))
        steps.append([[c * x + r - s for c, r, s in zip(column, reach[j + 2], reach[j + 1])]
                      for x in range(lo[j], hi[j] + 1)] if j < n - 1 else None)

    def span(j, room):
        up, down, size = signs[j]
        q = list(map(operator.floordiv, room, size))
        return range(max(lo[j], -min(compress(q, up), default=-lo[j])),
                     min(hi[j], min(compress(q, down), default=hi[j])) + 1)

    def grow(prefixes, j):
        for p, room in prefixes:
            for x in span(j, room):
                yield p + (x,), list(map(operator.add, room, steps[j][x - lo[j]]))

    prefixes = iter([((), [r - rhs for r, (_, rhs) in zip(reach[1], constraints)])])
    for j in range(n - 1):
        prefixes = grow(prefixes, j)
    rows = []
    for p, room in prefixes:
        run = span(n - 1, room)
        if run:
            rows.append((p, run.start, run.stop - 1))
    return axis, rows


def lattice_points(cone: ToricCone, xi, m: int) -> tuple[tuple[int, ...], ...]:
    """All integer points of m*Q_xi, i.e. u in sigma^v with <xi, u> <= m.

    The rows of :func:`lattice_rows` expanded, in lexicographic order;
    requires rational xi (IrrationalReeb) and a positive integer m (ValueError, before numpy loads).
    """
    m = _positive_int("m", m)
    import numpy as np

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


def s_m_oracle(cone: ToricCone, xi, v, m: int) -> Fraction:
    """Finite-level average ``S_m(wt_v)`` from an explicit weight count.

    Averages ``<v, u>/m`` over the lattice points ``u`` of the dual cone with
    ``<xi, u> <= m``, which converges to ``S(wt_v)`` as ``m`` grows.  Exact
    arithmetic over one :func:`_level_sums` (rational ``xi`` only), so it is
    an independent check on the barycenter route to ``S``.
    """
    val = toric_valuation(cone, v)
    total, den = _level_sums(cone, xi, _positive_int("m", m))
    return Fraction(linalg.dot(val.v, total), den)


def _level_sums(cone: ToricCone, xi, m: int) -> tuple[list[int], int]:
    """``(sum of u, m #points)`` over the lattice points u of ``m Q_xi``, each run
    ``{p} x [a, b]`` of :func:`lattice_rows` summed in closed form."""
    prefix, a, b = lattice_rows(cone, xi, m)
    counts = b - a + 1
    sums = [int(col @ counts) for col in prefix.T]
    sums.append(int(((a + b) * counts).sum()) // 2)
    return sums, m * int(counts.sum())  # the origin is always counted


def _python_table_sums(cone: ToricCone, xi, m_max: int) -> list[tuple[list[int], int]]:
    """``[_level_sums(cone, xi, m) for m = 1..m_max]`` from the one row scan of
    :func:`_python_rows` at m_max, in pure Python.

    A row {p} x [a, b] runs along one axis, x its coordinate there, and its pairing
    ``s + step x`` with d xi is affine in x.  So the row is whole from the level of
    its greatest pairing on, and each level m from that of its least pairing up to
    there cuts a part of it at pairing d m: from x = a if step > 0, up to x = b if
    step < 0.  With s = |step| q + t, 0 <= t < |step|, that part holds c = F - e
    points, where F = (d m - t) // |step| and e = q + a - 1 (step > 0) or q - b - 1
    (step < 0): only F depends on m, and F depends on the row only through t.  The
    part's count, its sums of p and twice its sum of x, c (2a + c - 1) or
    c (2b - c + 1), are then polynomials in F of degree at most 2.  A row adds their
    coefficients once, at its first and at its last level, to differences over
    levels: those of F and F^2 under its t, the rest beside its whole.
    """
    n = cone.dim
    xi_int, d = integer_reeb(cone, xi)
    axis, rows = _python_rows(cone, xi, m_max)
    head, step = xi_int[:axis] + xi_int[axis + 1:], xi_int[axis]
    size, sign = abs(step), (step > 0) - (step < 0)
    # per quantity (the points, the sums of their coordinates in p, twice that of x),
    # a difference over levels of the whole rows and of the parts' terms free of F;
    # then, per t and per level, the differences of the parts' coefficients of F
    constant = [[0] * (m_max + 2) for _ in range(n + 1)]
    in_f = {}
    for p, a, b in rows:
        s = sum(map(operator.mul, head, p))
        least, greatest = (a, b) if step >= 0 else (b, a)  # the x of least and greatest pairing
        # the levels of those pairings, the origin's at 1
        first = max(1, -((-s - step * least) // d))
        last = max(1, -((-s - step * greatest) // d))
        count = b - a + 1
        for diff, value in zip(constant, (count, *(z * count for z in p), (a + b) * count)):
            diff[last] += value
        if first == last:
            continue
        q, t = divmod(s, size)
        # c = F - e and twice the x sum sign c^2 + h c: (sign F + h - 2 sign e) F + (sign e - h) e
        e, h = (q + a - 1, 2 * a - 1) if step > 0 else (q - b - 1, 2 * b + 1)
        for diff, value in zip(constant, (-e, *(-z * e for z in p), (sign * e - h) * e)):
            diff[first] += value
            diff[last] -= value
        coefficients = (1, *p, h - 2 * sign * e)  # of F; twice the x sum adds sign F^2
        by_level = in_f.setdefault(t, {})
        for m, add in ((first, operator.add), (last, operator.sub)):
            diff = by_level.setdefault(m, [0] * (n + 1))
            diff[:] = map(add, diff, coefficients)
    # per quantity, then per level: the parts' terms in F
    terms = [[0] * (m_max + 1) for _ in range(n + 1)]
    for t, by_level in in_f.items():
        running = [0] * (n + 1)
        marks = sorted(by_level)
        for start, stop in zip(marks, marks[1:]):
            running = list(map(operator.add, running, by_level[start]))
            *linear, slope = running
            for m in range(start, stop):
                f = (d * m - t) // size
                for sums, value in zip(terms, (*linear, sign * running[0] * f + slope)):
                    sums[m] += value * f
    levels, running = [], [0] * (n + 1)
    for m in range(1, m_max + 1):
        running = [r + diff[m] for r, diff in zip(running, constant)]
        count, *total, twice = [r + sums[m] for r, sums in zip(running, terms)]
        total.insert(axis, twice // 2)
        levels.append((total, m * count))
    return levels


def _oracle_table(cone: ToricCone, xi, m_max: int) -> list[dict]:
    """Rows ``{v, s_m: [S_m(v), m = 1..m_max], s: S(v), s_prime: S'(v)}`` over
    the rays v of sigma, from one slice pass and :func:`_python_table_sums`.
    Before the first scan: ValueError unless ``m_max`` is a positive integer,
    ExceedsSupportedSize when it times the prefixes of the level-``m_max`` scan
    exceeds ``MAX_LATTICE_SCAN``, then NotQGorenstein from the slice pass."""
    m_max = _positive_int("m_max", m_max)
    prefixes = _scan_box(cone, xi, m_max)[-1]
    if m_max * prefixes > MAX_LATTICE_SCAN:
        raise ExceedsSupportedSize(
            "%d levels of up to %d prefixes exceed the supported %d"
            % (m_max, prefixes, MAX_LATTICE_SCAN)
        )
    sums = _slice_sums(cone, xi, gorenstein_vector(cone).l)
    levels = _python_table_sums(cone, xi, m_max)
    ratio = ratio_type(sums.exact)
    return [
        {"v": list(v), "s_m": [Fraction(linalg.dot(v, total), den) for total, den in levels],
         "s": ratio(*sums.s_value(v)), "s_prime": ratio(*sums.s_prime(v))}
        for v in cone.rays
    ]


def _shell_counts(s0, counts, step: int, xs: Sequence[int]):
    """The points of the runs in each shell ``(xs[i-1], xs[i]]``, as int64.

    Run r holds the pairings s0[r] + j h, j < counts[r], h = |step|, of the
    row scan (int64 arrays), and ``xs`` is increasing.  Runs wholly at or
    below xs[0] add the same count at or below every x and are dropped
    first.  With h = 0 a run is counts[r] points at s0[r], and the points at
    or below x are a prefix sum over the sorted s0.  Otherwise a run is the
    progression from s0 less the one from its end s0 + counts h, and the
    points at or below x of the progressions from the ends e <= x are

        Phi(x) = sum_{e <= x} (floor((x - e) / h) + 1)
               = m (Q + 1) - sum_{e <= x} q - #{e <= x : r > P}

    for m ends e = q h + r at or below x = Q h + P, 0 <= r, P < h: one
    searchsorted, a prefix sum of q over the sorted ends, and one prefix
    count of [r > P] for each residue P of xs below h - 1.
    """
    import numpy as np

    h = abs(step)
    live = s0 + h * (counts - 1) > xs[0]
    s0, counts = s0[live], counts[live]
    xs = np.array(xs, dtype=np.int64)
    acc = np.zeros(len(s0) + 1, dtype=np.int64)  # one buffer for every prefix sum
    if not h:
        order = np.argsort(s0)
        np.cumsum(counts[order], out=acc[1:])
        return np.diff(acc[np.searchsorted(s0[order], xs, side="right")])
    x_q, x_r = np.divmod(xs, h)
    residues = {r for r in x_r.tolist() if r < h - 1}  # no r is above h - 1

    def phi(ends):
        ends.sort()
        at = np.searchsorted(ends, xs, side="right")
        e_q, e_r = np.divmod(ends, h)
        np.cumsum(e_q, out=acc[1:])
        below = at * (x_q + 1) - acc[at]
        for r in residues:
            np.cumsum(e_r > r, out=acc[1:])
            picked = x_r == r
            below[picked] -= acc[at[picked]]
        return below

    # m (Q + 1) and the prefix sums of q can leave int64 and wrap around, but
    # the difference is a count of scanned points, below 2^62 by the guard of
    # lattice_rows, so int64's arithmetic modulo 2^64 leaves it exact
    ends = s0 + h * counts
    return np.diff(phi(s0) - phi(ends))


def _run_means(h: float, counts):
    """The mean index 1/(e^h - 1) - L/(e^{hL} - 1) of each run of L = counts[r]
    points weighing e^{-hj}, j < L, 0 at L = 1.  Below hL = 0.01 its two terms
    near 1/h cancel, so there it is the series (L-1)/2 - h(L^2-1)/12 +
    h^3(L^4-1)/720, whose first term left out is below 2e-14 of it."""
    import numpy as np

    if h * counts.max(initial=0) >= 0.01:  # else no run takes it, and 1 / h may overflow
        mean = np.where(counts > 1, np.exp(-h) / -np.expm1(-h)
                        - counts * np.exp(-h * counts) / -np.expm1(-h * counts), 0.0)
    else:
        mean = np.zeros(len(counts))
    if h < 0.005:  # else every run of L >= 2 has hL >= 0.01
        short = (counts > 1) & (h * counts < 0.01)
        n = counts[short].astype(float)
        mean[short] = (n - 1) * (0.5 - h * (n + 1) / 12 * (1 - h * h * (n * n + 1) / 60))
    return mean


def _default_cutoff(t, weighted: bool) -> int:
    """The oracle's cutoff when none is given: ceil(14 / t), or ceil(18 / t) for the
    eta-weighted sum, whose tail has one more power of the pairing.  ValueError unless
    t is positive and finite, ExceedsSupportedSize if the cutoff passes every float."""
    reach, value = 18.0 if weighted else 14.0, float(_positive_finite("t", t))
    if not value or reach / value == math.inf:  # an exact t may round to 0.0
        raise ExceedsSupportedSize(f"t = {t!r} puts the default cutoff past every float")
    return math.ceil(reach / value)


def truncated_character_oracle(cone: ToricCone, xi, eta_or_none, t, cutoff,
                               rel_tol: float = 1e-3) -> float:
    """Brute-force lattice sum approximating F (or C_eta with eta given).

    Sums e^{-t<xi,u>} (times <eta,u> when eta is given) over all lattice
    points of sigma^v with <xi,u> <= cutoff, entirely independently of the
    simplicial decomposition.  The points are exactly those of the row scan
    :func:`lattice_rows` (rational xi only); the weights
    are floats.  Along a run the pairing steps by |xi_n|, so each run sums
    in closed form as a geometric series, arithmetico-geometric when eta is
    given.  The neglected tail is bounded by fitting the observed polynomial
    growth of the pairing shells k - 1 < <xi,u> <= k, k from cutoff/2 up,
    whose sizes :func:`_shell_counts` takes from prefix sums over the sorted
    run ends, not from a pass per shell; if the bound exceeds rel_tol times the
    partial sum, CutoffTooSmall is raised.  ValueError unless t and cutoff
    are positive numbers in float range and rel_tol is a positive float, inf
    (no tail check) included.
    """
    import numpy as np

    t = float(_positive_finite("t", t))
    _positive_finite("cutoff", cutoff)
    try:
        rel_tol = float(rel_tol)
    except (TypeError, ValueError, OverflowError):
        rel_tol = math.nan
    if not rel_tol > 0:
        raise ValueError("rel_tol must be a positive float, inf included")
    n = cone.dim
    if eta_or_none is not None:
        [_, (eta_num, e)], _ = reeb_numerators(n, xi, eta_or_none)
        try:
            eta_f = np.array([float(x / e) for x in eta_num])
        except OverflowError:  # an entry past the floats, whose repr may exceed int's digit limit
            raise ValueError("eta has an entry that is not finite as a float") from None
    prefix, a, b = lattice_rows(cone, xi, cutoff)
    xi_int, denom = integer_reeb(cone, xi)
    counts = b - a + 1
    # run r starts at its lowest pairing s0[r] / denom and steps by h / t
    step = xi_int[-1]
    sign = 1 if step >= 0 else -1
    x0 = a if step >= 0 else b
    s0 = prefix @ np.array(xi_int[:-1], dtype=np.int64) + step * x0
    h = t * abs(step) / denom
    # a run of L points weighs q^j, j < L, q = e^{-h}: sum (1 - q^L) / (1 - q)
    geometric = -np.expm1(-h * counts) / -np.expm1(-h) if h else counts.astype(float)
    weights = np.exp(-t / denom * s0) * geometric
    means = None if eta_or_none is None else _run_means(h, counts)
    # an eta entry near the float limit takes the sum past the floats, which is
    # refused below, so that overflow is not warned of
    with np.errstate(over="ignore", invalid="ignore"):
        if means is not None:
            weights *= prefix @ eta_f[:-1] + eta_f[-1] * (x0 + sign * means)
        partial = float(weights.sum())
    if not math.isfinite(partial):
        raise CutoffTooSmall(f"the partial sum {partial} is past the floats, "
                             "which no cutoff mends")

    del prefix, a, b, x0, geometric, weights, means  # only the run starts and lengths count
    num_shells = int(math.ceil(cutoff))
    half = max(1, num_shells // 2)
    shell_counts = dict(zip(range(half, num_shells + 1), _shell_counts(
        s0, counts, step, [k * denom for k in range(half - 1, num_shells + 1)]).tolist()))

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
    # the terms are not negative, so the tail only grows: past the bound, or past
    # the floats, it decides the call
    bound = rel_tol * max(abs(partial), 1e-300)
    tail = 0.0
    for k in range(num_shells + 1, num_shells + 200000):
        term = amp * weight_amp * k ** degree * math.exp(-t * (k - 1))
        tail += term
        if not math.isfinite(tail):
            raise CutoffTooSmall("the estimated tail is past the floats")
        if tail > bound:
            raise CutoffTooSmall(
                f"estimated tail at least {tail:.3g} exceeds {rel_tol:.1g} * |partial sum| "
                f"{abs(partial):.6g}; increase the cutoff"
            )
        if term < 1e-18 * (abs(partial) + tail + 1e-300):
            break
    return partial
