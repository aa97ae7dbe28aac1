"""Runtime configuration: the working precision and the fixed tolerances.

One environment variable tunes the numerics:

``REEBCONE_PRECISION``
    Working precision p, in bits, of every input that is not rational
    (default 128; 53 to ``MAX_PRECISION``, else :class:`InputError`).
    Such an input is rounded to p bits (a float needs no rounding: its 53
    bits are at most p, so it is read exactly), and the closed
    forms sum its exact dyadic numerators in integers, in fixed point p
    plus a guard of bits deep, then round each output once to a p-bit mpf
    (:func:`ratio_type`, the one scalar coercion of the library's outputs,
    which are Fractions for rational inputs).  Every mpf lives in the one
    shared context of :func:`mp_context` at this precision; no library
    call changes the global ``mpmath.mp``.

``DEFAULT_TOL`` bounds the Newton decrement at which the solver stops, and is
the normalization tolerance of a working-precision Reeb vector; ``--tol`` and
``minimize_volume(tol=...)`` set the solver's per call.

mpmath is imported by :func:`mp_context` on first use, so callers whose
inputs are rational or floats, and whose outputs are Fractions or floats,
never load it.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING

from .errors import InputError

if TYPE_CHECKING:
    import mpmath

DEFAULT_PRECISION = 128
MAX_PRECISION = 2**15  # futaki_coefficients on a dim-7 cone of 19,812 simplices: ~7 s
DEFAULT_TOL = 1e-10

# Fixed tolerances of the irrational (mpf) path of ``stability.delta``.
# Two ray ratios within RAY_TIE_RTOL * |delta| of the minimum both minimize.
RAY_TIE_RTOL = 8 * 2.0 ** -50
# The barycenter certifies K-semistability when |bar_P - l|_inf is at most
# KSS_RTOL * (1 + |l|_inf).
KSS_RTOL = 1e-9


def precision_bits() -> int:
    """Working mpmath precision in bits, from ``REEBCONE_PRECISION``: an
    integer from 53 to MAX_PRECISION, or unset for the default."""
    raw = os.environ.get("REEBCONE_PRECISION", "")
    if not raw:
        return DEFAULT_PRECISION
    try:
        bits = int(raw)
    except ValueError:
        bits = 0
    if not 53 <= bits <= MAX_PRECISION:
        raise InputError("REEBCONE_PRECISION must be an integer from 53 to %d, got %r"
                         % (MAX_PRECISION, raw))
    return bits


def mp_context() -> mpmath.ctx_mp.MPContext:
    """The mpmath context at the configured precision, shared by all callers.

    A dedicated context (rather than the global ``mpmath.mp``) keeps library
    calls from interfering with the caller's settings.  Cloning one costs far
    more than the arithmetic of a call, so there is one per precision in bits,
    made on first use; a changed ``REEBCONE_PRECISION`` gets its own.  Callers
    must not change its settings.
    """
    return _context(precision_bits())


@lru_cache(maxsize=None)
def _context(bits: int) -> mpmath.ctx_mp.MPContext:
    import mpmath

    ctx = mpmath.mp.clone()
    ctx.prec = bits
    return ctx


def ratio_type(exact: bool):
    """The quotient of two ints, q > 0, for one call: ``Fraction(p, q)`` when
    its inputs are exact, else p / q rounded once to the nearest mpf of
    :func:`mp_context`.

    The mpf quotient is ``mpmath.libmp.from_rational`` without its exact
    conversion of p and q to mpf, which strips every trailing zero bit one
    byte at a time on mpmath's pure-Python backend: the truncated quotient
    to at least prec + 3 bits, with a sticky last bit set when the
    remainder is nonzero, rounds to nearest as mpmath's own division does.
    """
    if exact:
        return Fraction
    from mpmath.libmp import from_man_exp, round_nearest

    ctx = mp_context()
    prec = ctx.prec

    def ratio(p: int, q: int):
        shift = max(0, prec + 3 - p.bit_length() + q.bit_length())
        quot, rem = divmod(abs(p) << shift, q)
        man = quot << 1 | (rem != 0)
        return ctx.make_mpf(from_man_exp(-man if p < 0 else man, -shift - 1, prec, round_nearest))

    return ratio
