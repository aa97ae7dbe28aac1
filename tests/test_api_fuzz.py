"""Seeded fuzz of the library API: every call ends in a result or a documented error.

Each call takes one public function of ``reebcone`` (``__init__._EXPORTS``) whose
first parameter is a cone, its pieces or a minimizer xi*, runs it on one of the
bundled cones, and draws every other argument from the pool of its parameter
name: floats, NaN, the infinities, 5e-324 and 1e308; NumPy int64, float32 and
bool_; mpmath mpf and mpc; complex numbers; ints past the floats (10**400,
10**5000); str entries, dicts and iterators; wrong lengths, and zero or
negated vectors.  Each
call draws a share of its arguments (none, a quarter, half or all) from those
pools and the rest from values its function accepts, and leaves optional
parameters out now and then.  A call passes when it returns or raises a
``ReebconeError`` or a ``ValueError`` within ``CALL_CAP_S``; anything else fails
the test with the seed and a one-line repro, runnable from ``tests`` with
``PYTHONPATH=../src``.  ``futaki_pairing`` and ``log_discrepancy`` take result
objects and ``dual_cone`` and ``triangulate_cone`` raw rays, each with rules of
its own tested elsewhere, so none of them is drawn.  The 3,000 calls take a few
seconds.
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
from reebcone import ReebconeError, decompose_dual, dual_cone
from reebcone.optimize import _project, _ray_average
from conftest import bundled_specs

SEED, CALLS = 20261019, 3000
CALL_CAP_S = 2.0

SPECS = {spec.name: spec for spec in bundled_specs()}
FUNCTIONS = [
    getattr(reebcone, name)
    for names in reebcone._EXPORTS.values() for name in names
    if inspect.isfunction(getattr(reebcone, name))
    and next(iter(inspect.signature(getattr(reebcone, name)).parameters))
    in ("cone", "pieces", "xi_star")
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
    """Per bundled spec name, the cone and its pieces."""
    return {name: (bundled_cone(name), decompose_dual(bundled_cone(name))) for name in SPECS}


def bundled_cone(name):
    """The cone of a bundled spec, for the repro lines."""
    spec = SPECS[name]
    return dual_cone(spec.rays, spec.dim)


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


def draw(rng, param, cone, pieces, spec, valid):
    """An argument for the named parameter: one it accepts when ``valid``."""
    if param == "cone":
        return cone
    if param == "pieces":
        return pieces if valid else rng.choice(((), pieces[:1], None))
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
    if isinstance(x, (tuple, list)):
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


def test_fuzz_api(cones):
    rng = random.Random(SEED)
    assert len(FUNCTIONS) == 20, [f.__name__ for f in FUNCTIONS]
    capped = hasattr(signal, "setitimer")
    if capped:
        previous = signal.signal(signal.SIGALRM, _on_alarm)
    outcomes = {"returned": 0, "raised": 0}
    try:
        for call in range(CALLS):
            func = rng.choice(FUNCTIONS)
            name = rng.choice(sorted(SPECS))
            cone, pieces = cones[name]
            rate = rng.choice((0.0, 0.25, 0.5, 1.0))  # the share of arguments drawn to fail
            args, kwargs = [], {}
            for param in inspect.signature(func).parameters.values():
                if param.default is not param.empty and rng.random() < 0.3:
                    continue  # left to its default
                value = draw(rng, param.name, cone, pieces, SPECS[name], rng.random() >= rate)
                if param.default is param.empty:
                    args.append(value)
                else:
                    kwargs[param.name] = value
            sources = ["bundled_cone(%r)" % name if a is cone
                       else "decompose_dual(bundled_cone(%r))" % name if a is pieces
                       else _source(a) for a in args]
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
