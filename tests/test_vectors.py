"""Every vector argument of the library is read by one coercion,
``geometry.numerators``: a bad vector is a ValueError (DimensionMismatch, itself a
ValueError, for a wrong length) before any work, a NumPy integer or an mpf
equal to an integer gives the exact result of that integer, and a float of any
width, or a Decimal that is a dyadic within the precision, is read as the dyadic
rational it is, with no mpmath.  The float vectors of
``volume_objective`` and ``rationality_probe`` are read by their own code, with the
same errors."""

import json
import math
import subprocess
import sys
import warnings
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from reebcone import (
    DimensionMismatch,
    UnboundedSlice,
    character_series,
    decompose_dual,
    delta,
    futaki_product,
    gorenstein_vector,
    index_character,
    lattice_points,
    minimize_volume,
    polytope_Q,
    ratio_profile,
    rationality_probe,
    reeb_vector,
    s_m_oracle,
    s_prime,
    s_value,
    toric_valuation,
    truncated_character_oracle,
    volume_objective,
    weight_character,
)
from reebcone.geometry import futaki_coefficients, numerators
from reebcone.lattice import _scan_box, lattice_rows
from conftest import make_conifold, make_orthant2, make_orthant3

XI, ETA, V, B, T = (2, Fraction(1, 2), Fraction(1, 2)), (0, 1, 0), (1, 0, 0), (0, 0, 0, 0), (0, 1)

# (name, call of the one bad vector) over the conifold, whose 4 rays give 4 boundary coefficients
CALLS = [
    ("xi", lambda c, p, x: reeb_vector(c, x)),
    ("xi", lambda c, p, x: polytope_Q(c, x)),
    ("xi", lambda c, p, x: futaki_coefficients(c, x, ETA)),
    ("eta", lambda c, p, x: futaki_coefficients(c, XI, x)),
    ("xi", lambda c, p, x: lattice_points(c, x, 1)),
    ("xi", lambda c, p, x: lattice_rows(c, x, 1)),
    ("xi", lambda c, p, x: delta(c, x)),
    ("boundary", lambda c, p, x: delta(c, XI, x, experimental=True)),
    ("boundary", lambda c, p, x: gorenstein_vector(c, x)),
    ("v", lambda c, p, x: toric_valuation(c, x)),
    ("xi", lambda c, p, x: s_value(c, x, V)),
    ("v", lambda c, p, x: s_value(c, XI, x)),
    ("xi", lambda c, p, x: s_prime(c, x, V)),
    ("v", lambda c, p, x: s_prime(c, XI, x)),
    ("xi", lambda c, p, x: s_m_oracle(c, x, V, 1)),
    ("v", lambda c, p, x: s_m_oracle(c, XI, x, 1)),
    ("xi", lambda c, p, x: futaki_product(c, x, ETA)),
    ("eta", lambda c, p, x: futaki_product(c, XI, x)),
    ("xi", lambda c, p, x: ratio_profile(c, x, V, T)),
    ("v", lambda c, p, x: ratio_profile(c, XI, x, T)),
    ("t", lambda c, p, x: ratio_profile(c, XI, V, x)),
    ("xi", lambda c, p, x: index_character(p, x)),
    ("xi", lambda c, p, x: weight_character(p, x, ETA)),
    ("eta", lambda c, p, x: weight_character(p, XI, x)),
    ("xi", lambda c, p, x: character_series(p, x, ETA)),
    ("eta", lambda c, p, x: character_series(p, XI, x)),
    ("xi", lambda c, p, x: truncated_character_oracle(c, x, None, 0.5, 50)),
    ("eta", lambda c, p, x: truncated_character_oracle(c, XI, x, 0.5, 50)),
    ("xi", lambda c, p, x: minimize_volume(c, start=x)),
    ("xi_slice_coords", lambda c, p, x: volume_objective(c, x)),
    ("xi_star", lambda c, p, x: rationality_probe(x, 10)),
]
# (kind, bad value of length n, message); t and xi_star take any length, so have no wrong one
BAD = [
    ("not a sequence", lambda n: 3, "must be a sequence of numbers"),
    ("str", lambda n: "1" * n, "must be a sequence of numbers"),
    ("None entry", lambda n: (None,) + (0,) * (n - 1), "has an entry that is not a number"),
    ("wrong length", lambda n: (1,) * (n - 1), "has length"),
]
LENGTH = {"xi": 3, "eta": 3, "v": 3, "boundary": 4, "t": 2, "xi_slice_coords": 2, "xi_star": 3}
CASES = [(name, call, kind, bad(LENGTH[name]), message)
         for name, call in CALLS for kind, bad, message in BAD
         if not (name in ("t", "xi_star") and kind == "wrong length")]
# rationality_probe rounds each float to a Fraction, which has no infinity, and an
# exact entry past the floats is not finite as a float
CASES.append(("xi_star", CALLS[-1][1], "not finite", (math.inf, 1.0, 1.0),
              "has an entry that is not finite"))
CASES.append(("xi_star", CALLS[-1][1], "past the floats", (10 ** 400, 1),
              "has an entry that is not finite"))
CASES.append(("xi_star", CALLS[-1][1], "past the digit limit", (10 ** 5000, 1),
              "has an entry that is not finite"))
# so is an exact entry of the float chart coordinates, or of the eta of the character
# oracle (CALLS[27])
for name, call in (CALLS[-2], CALLS[27]):
    for kind, big in (("past the floats", 10 ** 400), ("past the digit limit", 10 ** 5000)):
        CASES.append((name, call, kind, (big,) + (1,) * (LENGTH[name] - 1),
                      "has an entry that is not finite"))
# futaki_coefficients reads an eta of None as no eta, but futaki_product needs one
CASES.append(("eta", CALLS[17][1], "None", None, "must be a sequence of numbers"))


@pytest.fixture(scope="module")
def cone_and_pieces():
    cone = make_conifold()
    return cone, decompose_dual(cone)


@pytest.mark.parametrize("name, call, kind, bad, message", CASES, ids=[
    "%s-%s-%s" % (CALLS.index((name, call)), name, kind.replace(" ", "-"))
    for name, call, kind, _, _ in CASES])
def test_bad_vector_is_a_value_error(cone_and_pieces, name, call, kind, bad, message):
    with pytest.raises(ValueError, match=f"{name} {message}") as info:
        call(*cone_and_pieces, bad)
    assert isinstance(info.value, DimensionMismatch) == (kind == "wrong length")


def test_numpy_integers_are_exact(cone_and_pieces):
    # the same Fractions, type and value, as the equal Python ints
    cone, pieces = cone_and_pieces
    xi, eta, v, boundary = (4, 1, 1), (0, 1, 0), (1, 1, 1), (0, 0, 0, 0)
    xi_np, eta_np, v_np = (np.array(x, dtype=np.int64) for x in (xi, eta, v))
    boundary_np = tuple(np.int64(c) for c in boundary)
    for call in (lambda x, e, w, b: polytope_Q(cone, x),
                 lambda x, e, w, b: delta(cone, x),
                 lambda x, e, w, b: futaki_coefficients(cone, x, e),
                 lambda x, e, w, b: character_series(pieces, x, e, 2),
                 lambda x, e, w, b: lattice_points(cone, x, 2),
                 lambda x, e, w, b: s_value(cone, x, w),
                 lambda x, e, w, b: (gorenstein_vector(cone, b),
                                     delta(cone, x, b, experimental=True))):
        assert repr(call(xi_np, eta_np, v_np, boundary_np)) == repr(call(xi, eta, v, boundary))
    # beside a float, a NumPy integer is the int it stands for
    mixed = (np.int64(4), 1.0, 1.0)
    assert repr(polytope_Q(cone, mixed)) == repr(polytope_Q(cone, (4, 1.0, 1.0)))


def test_mpf_valuation_and_boundary_are_exact(cone_and_pieces):
    # an mpf v, boundary coefficient or oracle cutoff is the dyadic rational it stands for
    cone, _ = cone_and_pieces
    one, zero = mpmath.mpf(1), mpmath.mpf(0)
    for v, w in (((1, 1, 1), (one, one, one)), ((1, 0, 0), (one, zero, zero))):
        assert repr(s_value(cone, XI, w)) == repr(s_value(cone, XI, v))
        assert toric_valuation(cone, w) == toric_valuation(cone, v)
    assert gorenstein_vector(cone, (zero,) * 4) == gorenstein_vector(cone, B)
    orthant3 = make_orthant3()
    assert gorenstein_vector(orthant3, (mpmath.mpf(0.5), zero, zero)) == gorenstein_vector(
        orthant3, (Fraction(1, 2), 0, 0))
    for cutoff, exact in ((mpmath.mpf(50), 50), (mpmath.mpf(50.5), Fraction(101, 2))):
        assert truncated_character_oracle(cone, XI, ETA, 0.5, cutoff) == truncated_character_oracle(
            cone, XI, ETA, 0.5, exact)


def test_float32_scalar_is_in_float_range():
    # the float-range check of a scalar such as t converts first: a NumPy float32
    # compared with the largest float would cast it to an overflowing float32, and warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert truncated_character_oracle(make_conifold(), XI, None, np.float32(0.5),
                                          50) == truncated_character_oracle(
            make_conifold(), XI, None, 0.5, 50)


# floats, each the source of an expression that the child process below evaluates too
FLOATS = ("0.1", "-0.0", "5e-324", "1e308", "1.5 * 2.0 ** 1000", "np.float64(0.1)")


@pytest.mark.parametrize("bits", ["53", "128"])
def test_float_is_read_exactly_with_no_mpmath(bits, monkeypatch):
    # a double has 53 bits, at most the precision, so rounding it to an mpf changes
    # nothing: numerators reads it to the pairs of the mpf route, with no mpmath loaded,
    # and NaN and the infinities are still UnboundedSlice
    monkeypatch.setenv("REEBCONE_PRECISION", bits)
    script = "\n".join([
        "import json, sys",
        "import numpy as np",
        "from reebcone.geometry import numerators",
        f"values = [{', '.join(FLOATS)}]",
        "pairs = [numerators(None, x=[x]) for x in values] + [numerators(None, x=values)]",
        "errors = []",
        "for bad in (float('nan'), float('inf'), -float('inf')):",
        "    try:",
        "        numerators(None, x=[1, bad])",
        "    except Exception as exc:",
        "        errors.append(type(exc).__name__)",
        "print(json.dumps([pairs, errors, 'mpmath' in sys.modules]))",
    ])
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    pairs, errors, loaded = json.loads(proc.stdout)
    assert (errors, loaded) == (["UnboundedSlice"] * 3, False)
    mpfs = [mpmath.mpf(eval(x), prec=int(bits)) for x in FLOATS]
    want = [numerators(None, x=[x]) for x in mpfs] + [numerators(None, x=mpfs)]
    assert pairs == json.loads(json.dumps(want))


def test_entries_are_read_as_their_integer_ratios():
    # each entry is its exact ratio over the least common denominator of the vector, a
    # float or any other inexact entry marking the call inexact: the Fraction reading
    # of every entry gives the same ints
    values = [0.0, -0.0, 5e-324, 2.0 ** 1000, 1e308, -0.1, np.float64(0.1), np.float32(0.1),
              Decimal("0.375"), Decimal(-3), 3, Fraction(1, 3)]
    exact = [Fraction(*x.as_integer_ratio()) for x in values]
    d = math.lcm(*(x.denominator for x in exact))
    want = [x.numerator * (d // x.denominator) for x in exact]
    assert numerators(None, x=values) == ([(tuple(want), d)], False)
    for x, ratio in zip(values, exact):
        assert numerators(None, x=[x]) == ([((ratio.numerator,), ratio.denominator)],
                                           type(x) in (int, Fraction))
    # an exact vector beside a float one is read exactly, in an inexact call
    assert numerators(2, xi=(1, Fraction(1, 2)), eta=(0.25, 1)) == ([((2, 1), 2), ((1, 4), 4)], False)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(UnboundedSlice, match=f"^non-finite entry {bad} in x$"):
            numerators(None, x=[1.0, bad])


# entries that mpmath cannot take but that hold an exact ratio, each the source of an
# expression that the child process below evaluates too: floats of 11 and 24 bits,
# and a Decimal that is a dyadic rational
NARROW = ("np.float16(0.1)", "np.float16(-65504)", "np.float32(0.1)", "np.float32(3e38)",
          "np.float32(1e-45)", "Decimal('0.375')")


@pytest.mark.parametrize("bits", ["53", "128"])
def test_narrow_float_is_read_exactly_with_no_mpmath(bits, monkeypatch):
    # a float16 or float32 entry, a scan level included, is the dyadic rational it is, with
    # no mpmath loaded, and NaN and the infinities are still UnboundedSlice
    monkeypatch.setenv("REEBCONE_PRECISION", bits)
    script = "\n".join([
        "import json, sys",
        "from decimal import Decimal",
        "import numpy as np",
        "from reebcone import dual_cone",
        "from reebcone.geometry import numerators",
        "from reebcone.lattice import _scan_box",
        f"values = [{', '.join(NARROW)}]",
        "pairs = [numerators(None, x=[x]) for x in values]",
        "box = _scan_box(dual_cone([(1, 0), (0, 1)], 2), (1, 2), np.float32(40.5))",
        "errors = []",
        "for bad in (np.float32('nan'), np.float16('inf'), Decimal('-Infinity'), Decimal('sNaN')):",
        "    try:",
        "        numerators(None, x=[1, bad])",
        "    except Exception as exc:",
        "        errors.append(type(exc).__name__)",
        "print(json.dumps([pairs, box, errors, 'mpmath' in sys.modules]))",
    ])
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    pairs, box, errors, loaded = json.loads(proc.stdout)
    assert (errors, loaded) == (["UnboundedSlice"] * 4, False)
    want = [[[[[num], den]], False] for num, den in (eval(x).as_integer_ratio() for x in NARROW)]
    assert pairs == want
    assert box == json.loads(json.dumps(_scan_box(make_orthant2(), (1, 2), Fraction(81, 2))))


@pytest.mark.parametrize("bits", [53, 128])
def test_wide_entry_is_rounded_once(bits, monkeypatch):
    # a Decimal or a long double that is no dyadic of at most p bits is its exact
    # ratio rounded once to p bits, the mpf that mpmath rounds that ratio to
    monkeypatch.setenv("REEBCONE_PRECISION", str(bits))
    for x in (Decimal("0.1"), Decimal("-7.3e-200"), Decimal(2 ** 200 + 1),
              np.longdouble(1) / 3, np.longdouble(2) ** 60 + 1):
        mpf = mpmath.mpf(mpmath.libmp.from_rational(*x.as_integer_ratio(), bits, "n"), prec=bits)
        assert numerators(None, x=[x]) == numerators(None, x=[mpf])


def test_narrow_floats_give_the_results_of_their_values():
    # the calls that refused a NumPy float32 entry or cutoff as not a number
    orthant2, conifold = make_orthant2(), make_conifold()
    assert repr(polytope_Q(orthant2, (np.float32(0.5), 1))) == repr(polytope_Q(orthant2, (0.5, 1)))
    assert repr(delta(conifold, (np.float16(2), 0.5, 0.5))) == repr(delta(conifold, (2.0, 0.5, 0.5)))
    assert truncated_character_oracle(conifold, XI, None, 0.5, np.float32(50)) == \
        truncated_character_oracle(conifold, XI, None, 0.5, 50)
