"""Seeded fuzz of the library API: every call ends in a result or a documented error.

Each call takes one public function of ``reebcone`` (``__init__._EXPORTS``),
runs it on one of the bundled cones, and draws every argument from the pool
of its parameter name: floats, NaN, the infinities, 5e-324 and 1e308; NumPy
int64, float32 and bool_; mpmath mpf and mpc; complex numbers; ints past the
floats (10**400, 10**5000); str entries, dicts and iterators; wrong lengths,
and zero or negated vectors.  ``dual_cone`` draws the cone's rays with such
entries, rays or counts, and its dim from the integers' pool.  The result
objects that ``futaki_pairing`` and ``log_discrepancy`` take are drawn from
results of the cone: the characters of the other kind, of order 0 or with a
zero a0, results of another bundled cone, None, and the bare coefficients or
vector a result holds; ``log_discrepancy``'s v is a valuation or a vector.
The characters' pieces are drawn as no pieces, the first alone, None, the
other cone's pieces, an iterator over the cone's, ints, the pieces as bare
tuples, and a piece with empty numerators.
``triangulate_cone`` takes int rays, as :func:`reebcone.geometry.simplices`
passes them, so it draws lists of int vectors wrong in count, order, length
or cone.  Each call draws a share of
its arguments (none, a quarter, half or all) from those pools and the rest
from values its function accepts, and leaves optional parameters out now
and then.  A call passes when it returns or raises a ``ReebconeError`` or a
``ValueError`` within ``CALL_CAP_S``; anything else fails the test with the
seed and a one-line repro, runnable from ``tests`` with ``PYTHONPATH=../src``.
The 3,000 calls take a few seconds.
"""

import inspect
import math
import random
import signal
import time
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mpc, mpf

import reebcone
# the result types too, whose reprs the repro lines of drawn results and pieces name
from reebcone import (GorensteinVector, LaurentSeries, ReebconeError, SimplicialPiece,
                      ToricValuation, character_series, decompose_dual, dual_cone,
                      gorenstein_vector, toric_valuation)
from reebcone.optimize import _project, _ray_average
from conftest import bundled_specs

SEED, CALLS = 20261019, 3000
CALL_CAP_S = 2.0

SPECS = {spec.name: spec for spec in bundled_specs()}
FUNCTIONS = [
    getattr(reebcone, name)
    for names in reebcone._EXPORTS.values() for name in names
    if inspect.isfunction(getattr(reebcone, name))
]

# one entry of a vector, besides the entries of the valid vector it replaces
ENTRIES = (
    0, 1, -1, 2, Fraction(1, 3), 0.5, -0.0, 1.0, math.nan, math.inf, -math.inf, 5e-324,
    1e308, -1e308, np.int64(3), np.float32(0.5), np.float64(0.25), np.bool_(True), True,
    mpf("0.5"), mpf("1e-400"), mpf("inf"), mpc(1, 1), 1j, 10 ** 400, -10 ** 400, 10 ** 5000,
    "1", None,
)
# one whole vector argument
VECTORS = (None, 3, 0.5, "", "111", [], {}, {0: 1}, np.float64(1.0))
# a scalar that should be a positive integer
INTEGERS = (
    0, 1, 2, 3, -1, 2.0, 2.5, True, np.int64(2), np.bool_(True), np.float32(2), 10 ** 400,
    math.nan, math.inf, 5e-324, 1e308, mpf(2), mpc(2), Fraction(2), Fraction(5, 2), "2", None,
)
# max_iter draws no int past the floats: under a tol below the rounding of the
# Newton decrement, minimize_volume runs every iteration it is allowed
ITERATIONS = tuple(x for x in INTEGERS if not (type(x) is int and x > 10 ** 6))
# a scalar that should be a positive number
REALS = (
    0.5, 1, 2, 40, 40.5, Fraction(1, 2), 0, -1, math.nan, math.inf, -math.inf, 5e-324, 1e308,
    np.float32(0.5), np.float64(2.0), np.int64(3), np.bool_(True), mpf("0.5"), mpf("inf"),
    mpc(1, 1), 1j, 10 ** 400, "0.5", None,
)
# experimental
FLAGS = (True, False, np.bool_(True), 1, 0, None, "yes")
# per scalar parameter, values its function accepts on every bundled cone
VALID = {
    "order": (0, 1, 2), "m": (1, 2, 3), "resolution": (1, 2, 3), "max_iter": (50, 100),
    "probe_rational": (10, 100), "max_denominator": (10, 100), "t": (0.5, 1),
    "cutoff": (40, 40.5), "rel_tol": (1e-3, 0.5), "tol": (1e-10, 1e-6), "experimental": (True,),
}


@pytest.fixture(scope="module")
def cones():
    """Per bundled spec name, the cone, its pieces and its results."""
    out = {}
    for name in SPECS:
        cone = bundled_cone(name)
        out[name] = cone, decompose_dual(cone), results(cone, SPECS[name])
    return out


def bundled_cone(name):
    """The cone of a bundled spec, for the repro lines."""
    spec = SPECS[name]
    return dual_cone(spec.rays, spec.dim)


def results(cone, spec):
    """Per result parameter, the result of this cone that it accepts: the
    characters to order 1, the Gorenstein vector and the valuation of a ray."""
    F, C = character_series(decompose_dual(cone), _valid_vector("xi", cone, spec),
                            _valid_vector("eta", cone, spec), 1)
    return {"F": F, "C": C, "l": gorenstein_vector(cone),
            "valuation": toric_valuation(cone, cone.rays[0])}


def _valid_vector(param, cone, spec):
    """A vector the parameter accepts on this cone."""
    n = cone.dim
    xi = spec.xi or _ray_average(cone, [1] * len(cone.rays))
    if param in ("xi", "start", "xi_star"):
        return tuple(xi)
    if param in ("eta", "eta_or_none"):
        return tuple(spec.eta) if spec.eta else (0,) * (n - 1) + (1,)
    if param == "v":
        return cone.rays[0]
    if param == "boundary":
        return (0,) * len(cone.rays)
    if param == "xi_slice_coords":
        return _project(cone, _ray_average(cone, [1] * len(cone.rays)))
    return (0, Fraction(1, 2), 1)  # t_values


class _Iterator:
    """An iterator over a vector, which has no length, and whose repr rebuilds it."""

    def __init__(self, items):
        self.items, self._rest = items, iter(items)

    def __iter__(self):
        return self

    def __next__(self):
        return next(self._rest)

    def __repr__(self):
        return "iter(%s)" % _source(self.items)


def _vector(rng, param, cone, spec):
    vec = list(_valid_vector(param, cone, spec))
    kind = rng.choice(("entry", "entry", "retype", "length", "whole", "sign"))
    if kind == "entry" and vec:
        vec[rng.randrange(len(vec))] = rng.choice(ENTRIES)
    elif kind == "retype":
        retype = rng.choice((float, np.float32, np.float64, lambda x: mpf(float(x)), Fraction,
                             str, lambda x: np.int64(int(x))))
        vec = [retype(x) for x in vec]
    elif kind == "length":
        vec = vec[:-1] if vec and rng.random() < 0.5 else vec + [1]
    elif kind == "whole":
        return rng.choice(VECTORS + (np.array(vec, dtype=float), _Iterator(vec)))
    elif kind == "sign":
        vec = [0 * x for x in vec] if rng.random() < 0.5 else [-x for x in vec]
    return tuple(vec) if rng.random() < 0.7 else vec


def _rays(rng, rays):
    """``dual_cone``'s rays with one entry, ray or count wrong, or no list at all."""
    rays = [list(r) for r in rays]
    i = rng.randrange(len(rays))
    kind = rng.choice(("entry", "ray", "length", "drop", "repeat", "negate", "whole"))
    if kind == "entry":
        rays[i][rng.randrange(len(rays[i]))] = rng.choice(ENTRIES)
    elif kind == "ray":
        rays[i] = rng.choice(VECTORS)
    elif kind == "length":
        rays[i] = rays[i][:-1] if rng.random() < 0.5 else rays[i] + [1]
    elif kind == "drop":
        del rays[i]
    elif kind == "repeat":
        rays.insert(rng.randrange(len(rays) + 1), rays[i])
    elif kind == "negate":
        rays[i] = [-x for x in rays[i]]
    else:
        return rng.choice(VECTORS + (_Iterator(rays), np.array(rays)))
    return rays


def _int_rays(rng, rays, other):
    """``triangulate_cone``'s int vectors, wrong in count, order, length or cone."""
    rays = list(rays)
    kind = rng.choice(("subset", "reversed", "repeat", "length", "other", "empty"))
    if kind == "subset":
        return [r for r in rays if rng.random() < 0.6]
    if kind == "reversed":
        return rays[::-1]
    if kind == "repeat":
        return rays + rays[:rng.randrange(1, len(rays) + 1)]
    if kind == "length":
        i = rng.randrange(len(rays))
        return rays[:i] + [rays[i][:-1] if rng.random() < 0.5 else rays[i] + (1,)] + rays[i + 1:]
    return list(other) if kind == "other" else []


def draw(rng, param, cone, pieces, spec, valid, mine, other):
    """An argument for the named parameter: one it accepts when ``valid``.
    ``mine`` holds the :func:`results` of this cone, ``other`` the cone, its
    pieces and its results of another bundled spec."""
    if param == "cone":
        return cone
    if param == "pieces":
        if valid:
            return pieces
        piece = pieces[0]
        return rng.choice((
            (), pieces[:1], None, other[1], _Iterator(pieces), [1, 2], [tuple(p) for p in pieces],
            [piece._replace(numerators=((),) * len(piece.numerators))]))
    if param in ("F", "C", "l", "valuation"):
        if valid:
            return mine[param]
        if param in ("F", "C"):
            series, coeffs = mine["C" if param == "F" else "F"], mine[param].coeffs
            return rng.choice((series, mine[param]._replace(coeffs=coeffs[:1]),
                               mine[param]._replace(coeffs=(0,) * len(coeffs)),
                               other[2][param], None, coeffs))
        if param == "l":
            return rng.choice((other[2][param], None, mine[param].l))
        return other[2][param]
    if param in ("rays", "normals"):
        rays = (cone.dual_rays, other[0].dual_rays) if param == "rays" else (cone.rays, other[0].rays)
        return rays[0] if valid else _int_rays(rng, *rays)
    if param == "cone_rays":
        return spec.rays if valid else _rays(rng, spec.rays)
    if param == "dim":
        return spec.dim if valid else rng.choice(INTEGERS)
    if param == "eta_or_none" and rng.random() < 0.3:
        return None
    if valid:
        return rng.choice(VALID[param]) if param in VALID else _valid_vector(param, cone, spec)
    if param == "max_iter":
        return rng.choice(ITERATIONS)
    if param in ("order", "m", "resolution", "probe_rational", "max_denominator"):
        return rng.choice(INTEGERS)
    if param in ("t", "cutoff", "rel_tol", "tol"):
        return rng.choice(REALS)
    if param == "experimental":
        return rng.choice(FLAGS)
    return _vector(rng, param, cone, spec)


def _source(x):
    """Python source of an argument, for the repro line."""
    if type(x) in (tuple, list):  # a named tuple's repr names its type
        inner = ", ".join(map(_source, x)) + ("," if isinstance(x, tuple) and len(x) == 1 else "")
        return ("(%s)" if isinstance(x, tuple) else "[%s]") % inner
    if isinstance(x, np.ndarray):
        return "np.array(%s)" % _source(x.tolist())
    if isinstance(x, np.generic):
        return "np.%s(%r)" % (type(x).__name__, x.item())
    if isinstance(x, float) and not math.isfinite(x):
        return "float(%r)" % str(x)
    if isinstance(x, int) and abs(x) > 10 ** 100:
        return hex(x)  # an int past str's digit limit has no decimal repr
    return repr(x)


class _CallTimeout(BaseException):
    """Raised in a call that outruns ``CALL_CAP_S``."""


def _on_alarm(signum, frame):
    raise _CallTimeout


@pytest.mark.filterwarnings("ignore::reebcone.ReebconeWarning")  # dual_cone's, documented
def test_fuzz_api(cones):
    rng = random.Random(SEED)
    assert len(FUNCTIONS) == 24, [f.__name__ for f in FUNCTIONS]
    capped = hasattr(signal, "setitimer")
    if capped:
        previous = signal.signal(signal.SIGALRM, _on_alarm)
    outcomes = {"returned": 0, "raised": 0}
    decomposed = {id(pieces): name for name, (_, pieces, _) in cones.items()}
    try:
        for call in range(CALLS):
            func = rng.choice(FUNCTIONS)
            name = rng.choice(sorted(SPECS))
            cone, pieces, mine = cones[name]
            other = cones[rng.choice(sorted(SPECS))]
            rate = rng.choice((0.0, 0.25, 0.5, 1.0))  # the share of arguments drawn to fail
            args, kwargs = [], {}
            for param in inspect.signature(func).parameters.values():
                if param.default is not param.empty and rng.random() < 0.3:
                    continue  # left to its default
                # log_discrepancy's v is a valuation or a vector, every other v a vector
                key = "valuation" if func.__name__ == "log_discrepancy" and param.name == "v" \
                    and rng.random() < 0.5 else param.name
                value = draw(rng, key, cone, pieces, SPECS[name], rng.random() >= rate,
                             mine, other)
                if param.default is param.empty:
                    args.append(value)
                else:
                    kwargs[param.name] = value
            sources = ["bundled_cone(%r)" % name if a is cone
                       else "decompose_dual(bundled_cone(%r))" % decomposed[id(a)]
                       if id(a) in decomposed else _source(a) for a in args]
            sources += ["%s=%s" % (k, _source(v)) for k, v in kwargs.items()]
            repro = ("seed %d, call %d: from test_api_fuzz import *; reebcone.%s(%s)"
                     % (SEED, call, func.__name__, ", ".join(sources)))
            start = time.perf_counter()
            if capped:
                signal.setitimer(signal.ITIMER_REAL, CALL_CAP_S)
            try:
                func(*args, **kwargs)
                outcomes["returned"] += 1
            except (ReebconeError, ValueError):
                outcomes["raised"] += 1
            except _CallTimeout:
                pytest.fail("over %.1f s; %s" % (CALL_CAP_S, repro))
            except Exception as exc:
                pytest.fail("%s: %s; %s" % (type(exc).__name__, exc, repro))
            finally:
                if capped:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            assert time.perf_counter() - start < CALL_CAP_S, repro
    finally:
        if capped:
            signal.signal(signal.SIGALRM, previous)
    # both outcomes are exercised
    assert min(outcomes.values()) > CALLS // 10, outcomes
