"""Command-line surface: cone-spec ingestion, dispatch, JSON reports.

The CLI is a thin shell over the library: it parses one cone spec,
calls the library routines of one subcommand, and serializes the
result.  No arithmetic happens here beyond the factorials that scale the
closed-form coefficients of ``character --order 0|1`` into Laurent
coefficients.  Rational values are emitted as exact ``"p/q"`` strings so
that exactness survives the pipe, and reports are deterministic
byte-for-byte for identical inputs, flags and version.

Each call starts a cold interpreter, so each subcommand imports only the
layers it runs: :mod:`reebcone.geometry` always (every subcommand builds
its cone), :mod:`reebcone.stability` for ``check``, ``delta``, ``futaki``
and ``oracle``, :mod:`reebcone.characters` for ``character`` at order 2
and above and for ``oracle``, and :mod:`reebcone.optimize` for
``minimize``.  mpmath loads with the first mpf (``minimize``), numpy with
the lattice oracles (``oracle``).

Exit codes: 0 success, 1 usage, 2 malformed input, 3 mathematical
domain error (not Q-Gorenstein, irrational Reeb where rationality is
required, ...), 4 non-convergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import re
import sys
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence, Tuple

from . import __version__
from .config import default_tol, precision_bits
from .errors import (
    ConvergenceError,
    ExceedsSupportedSize,
    InputError,
    MathDomainError,
    NonIntegerRay,
    ReebconeError,
    ReebconeWarning,
    SchemaError,
)
# every subcommand builds its cone here; each runner imports the other layers
# it calls, so a cold call loads only those
from .geometry import ToricCone, _slice_sums, dual_cone, futaki_coefficients, gorenstein_vector

COMMANDS = ("check", "delta", "minimize", "futaki", "character", "oracle")
MAX_EXPONENT = 4300  # largest |exponent| of a decimal input such as 1e-4300


@dataclasses.dataclass(frozen=True)
class ConeSpec:
    """Validated cone description parsed from a JSON document."""

    name: str
    dim: int
    rays: Tuple[Tuple[int, ...], ...]
    xi: Optional[Tuple[Fraction, ...]] = None
    eta: Optional[Tuple[Fraction, ...]] = None
    boundary_coeffs: Optional[Tuple[Fraction, ...]] = None


@dataclasses.dataclass(frozen=True)
class Report:
    """Machine-readable outcome of one CLI invocation."""

    command: str
    input_hash: str
    spec_name: str
    flags: dict
    results: dict
    provenance: dict
    warnings: Tuple[str, ...]
    error: Optional[dict] = None

    def to_dict(self) -> dict:
        return _jsonable(dataclasses.asdict(self))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def _jsonable(obj):
    """Recursively convert report values to JSON-stable primitives.

    Fractions become exact "p/q" strings (just "p" when q = 1), of any
    size: the digits go through Decimal, which has no limit on converting
    an int to a string; any non-rational scalar is forced through float
    (shortest round-trip repr keeps the bytes deterministic).
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, Fraction):
        p, q = (str(Decimal(k)) for k in obj.as_integer_ratio())
        return p if q == "1" else p + "/" + q
    if isinstance(obj, float):
        return obj
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if dataclasses.is_dataclass(obj):
        return _jsonable(dataclasses.asdict(obj))
    return float(obj)


def _rational(token: str) -> Fraction:
    """``Fraction(token)``, with ValueError for a decimal exponent above
    MAX_EXPONENT in size: Fraction builds 10**exponent before any other
    check, which takes seconds at 1e-10000000."""
    exponent = re.search(r"e([-+]?[\d_]+)", token, re.IGNORECASE)
    if exponent and abs(int(exponent.group(1))) > MAX_EXPONENT:
        raise ValueError("decimal exponent above %d in size" % MAX_EXPONENT)
    return Fraction(token)


def _parse_scalar(value, where: str) -> Fraction:
    """One rational coordinate: int, "p/q" / decimal string, or [num, den]."""
    if isinstance(value, bool):
        raise SchemaError("%s: boolean is not a number" % where)
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return _rational(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError("%s: cannot parse %r as a rational: %s" % (where, value, exc))
    if isinstance(value, list) and len(value) == 2 and all(
        isinstance(v, int) and not isinstance(v, bool) for v in value
    ):
        if value[1] == 0:
            raise SchemaError("%s: zero denominator" % where)
        return Fraction(value[0], value[1])
    raise SchemaError("%s: expected integer, rational string, or [num, den]" % where)


def _parse_vector(value, dim: int, where: str) -> Tuple[Fraction, ...]:
    if not isinstance(value, list):
        raise SchemaError("%s: expected a list" % where)
    if len(value) != dim:
        raise SchemaError(
            "%s: expected %d coordinates, got %d" % (where, dim, len(value))
        )
    return tuple(
        _parse_scalar(v, "%s[%d]" % (where, i)) for i, v in enumerate(value)
    )


_ALLOWED_KEYS = {"name", "dim", "rays", "xi", "eta", "boundary_coeffs", "comment"}


def parse_cone_spec(text: str) -> ConeSpec:
    """Parse and validate a JSON cone spec.

    Decimal literals are kept as strings during JSON decoding and
    converted to exact rationals, so ``0.5`` means exactly ``1/2``.
    Errors carry the offending field path.
    """
    try:
        doc = json.loads(text, parse_float=str)
    except json.JSONDecodeError as exc:
        raise SchemaError(
            "invalid JSON at line %d column %d: %s"
            % (exc.lineno, exc.colno, exc.msg)
        )
    except ValueError as exc:  # an integer literal above the int-to-str digit limit
        raise SchemaError("invalid JSON: %s" % exc)
    except RecursionError:
        raise SchemaError("invalid JSON: nested deeper than the interpreter's recursion limit")
    if not isinstance(doc, dict):
        raise SchemaError("top level: expected an object")
    unknown = sorted(set(doc) - _ALLOWED_KEYS)
    if unknown:
        raise SchemaError("unknown field(s): %s" % ", ".join(unknown))
    for key in ("dim", "rays"):
        if key not in doc:
            raise SchemaError("missing required field %r" % key)
    name = doc.get("name", "unnamed")
    if not isinstance(name, str):
        raise SchemaError("name: expected a string")
    dim = doc["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise SchemaError("dim: expected a positive integer")
    rays_doc = doc["rays"]
    if not isinstance(rays_doc, list) or not rays_doc:
        raise SchemaError("rays: expected a nonempty list of integer vectors")
    rays = []
    for i, ray in enumerate(rays_doc):
        if not isinstance(ray, list) or len(ray) != dim:
            raise SchemaError("rays[%d]: expected %d integer entries" % (i, dim))
        coords = []
        for j, x in enumerate(ray):
            value = _parse_scalar(x, "rays[%d][%d]" % (i, j))
            if value.denominator != 1:
                raise NonIntegerRay(
                    "rays[%d][%d]: %s is not an integer" % (i, j, value)
                )
            coords.append(int(value))
        rays.append(tuple(coords))
    xi = _parse_vector(doc["xi"], dim, "xi") if "xi" in doc else None
    eta = _parse_vector(doc["eta"], dim, "eta") if "eta" in doc else None
    boundary = None
    if "boundary_coeffs" in doc:
        raw = doc["boundary_coeffs"]
        if not isinstance(raw, list) or len(raw) != len(rays):
            raise SchemaError(
                "boundary_coeffs: expected one rational per ray (%d)" % len(rays)
            )
        boundary = tuple(
            _parse_scalar(v, "boundary_coeffs[%d]" % i) for i, v in enumerate(raw)
        )
    return ConeSpec(
        name=name,
        dim=dim,
        rays=tuple(rays),
        xi=xi,
        eta=eta,
        boundary_coeffs=boundary,
    )


def _flag(flags: dict, key: str, default=None):
    """The value of a flag when given, an explicit 0 included; else ``default``."""
    value = flags.get(key)
    return default if value is None else value


def _require_xi(spec: ConeSpec, flags: dict) -> Tuple[Fraction, ...]:
    xi = _flag(flags, "xi", spec.xi)
    if xi is None:
        raise SchemaError("no Reeb vector: provide --xi or an 'xi' field")
    return xi


def _require_eta(spec: ConeSpec, flags: dict) -> Tuple[Fraction, ...]:
    eta = _flag(flags, "eta", spec.eta)
    if eta is None:
        raise SchemaError("no direction: provide --eta or an 'eta' field")
    return eta


def _run_check(cone: ToricCone, spec: ConeSpec, flags: dict, results: dict) -> None:
    results["dim"] = cone.dim
    results["rays"] = [list(v) for v in cone.rays]
    results["dual_rays"] = [list(u) for u in cone.dual_rays]
    l = gorenstein_vector(cone, boundary=spec.boundary_coeffs)
    results["gorenstein"] = {"l": list(l.l)}
    results["q_gorenstein"] = True
    xi = _flag(flags, "xi", spec.xi)
    if xi is not None:
        from .stability import _delta

        sums = _slice_sums(cone, xi, l.l)
        rv = sums.reeb  # normalized against the Gorenstein vector, not a boundary's l
        results["reeb"] = {
            "xi": list(rv.xi),
            "interior": True,
            "normalized": rv.normalized,
        }
        _warn_boundary(spec)
        report = _delta(cone, sums, l)
        results["kss"] = report.kss
        results["delta"] = report.delta
        results["residual"] = report.residual


def _warn_boundary(spec: ConeSpec) -> None:
    """Warn of a boundary divisor: in a spec file, the CLI user's opt-in to it."""
    if spec.boundary_coeffs is not None:
        warnings.warn(
            "boundary divisor coefficients are experimental and excluded "
            "from the acceptance-backed surface",
            ReebconeWarning,
            stacklevel=2,
        )


def _run_delta(cone: ToricCone, spec: ConeSpec, flags: dict, results: dict) -> None:
    from .stability import delta

    xi = _require_xi(spec, flags)
    _warn_boundary(spec)
    report = delta(cone, xi, spec.boundary_coeffs, experimental=True)
    results.update({
        "delta": report.delta,
        "delta_prime": report.delta_prime,
        "bary_P": list(report.bary_P),
        "gorenstein": {"l": list(report.gorenstein.l)},
        "minimizing_rays": list(report.minimizing_rays),
        "kss": report.kss,
        "residual": report.residual,
        "scale": report.scale,
    })


def _run_minimize(cone: ToricCone, spec: ConeSpec, flags: dict, results: dict) -> None:
    from .optimize import minimize_volume

    start = _flag(flags, "xi", spec.xi)
    res = minimize_volume(
        cone,
        tol=flags.get("tol"),
        max_iter=_flag(flags, "max_iter", 100),
        start=start,
        probe_rational=flags.get("probe_rational"),
    )
    results.update({
        "xi_star": [float(x) for x in res.xi_star.xi],
        "vol_star": res.vol_star,
        "gradient_norm": res.gradient_norm,
        "iterations": res.iterations,
        "kss_residual": res.kss_residual,
        "margin": res.margin,
        "rational_candidate": None,
    })
    if res.rational_candidate is not None:
        results["rational_candidate"] = {
            "vector": list(res.rational_candidate.vector),
            "max_denominator": res.rational_candidate.max_denominator,
            "distance": res.rational_candidate.distance,
        }


def _run_futaki(cone: ToricCone, spec: ConeSpec, flags: dict, results: dict) -> None:
    from .stability import futaki_pairing

    xi = _require_xi(spec, flags)
    eta = _require_eta(spec, flags)
    coeffs = futaki_coefficients(cone, xi, eta)
    results.update({"futaki": futaki_pairing(coeffs, coeffs), **coeffs._asdict()})


def _run_character(cone: ToricCone, spec: ConeSpec, flags: dict, results: dict) -> None:
    xi = _require_xi(spec, flags)
    order = _flag(flags, "order", 2)
    if order < 0:
        raise ValueError("order must be nonnegative, got %r" % (order,))
    eta = _flag(flags, "eta", spec.eta)
    if order <= 1:
        # closed form, no box points; the coefficients LaurentSeries would
        # hold are (n-1)! a0, (n-2)! a1, n! b0 and (n-1)! b1
        n = cone.dim
        c = futaki_coefficients(cone, xi, (0,) * n if eta is None else eta)
        results["index"] = {
            "order_low": -n,
            "coeffs": [math.factorial(n - 1) * c.a0, math.factorial(max(n - 2, 0)) * c.a1][:order + 1],
            "a0": c.a0,
            "a1": c.a1 if order else None,
        }
        if eta is not None:
            results["weight"] = {
                "order_low": -(n + 1),
                "coeffs": [math.factorial(n) * c.b0, math.factorial(n - 1) * c.b1][:order + 1],
                "b0": c.b0,
                "b1": c.b1 if order else None,
            }
        return
    from .characters import decompose_dual, index_character, weight_character

    pieces = decompose_dual(cone)
    F = index_character(pieces, xi, order=order)
    results["index"] = {
        "order_low": F.order_low,
        "coeffs": list(F.coeffs),
        "a0": F.a0,
        "a1": F.a1,
    }
    if eta is not None:
        C = weight_character(pieces, xi, eta, order=order)
        results["weight"] = {
            "order_low": C.order_low,
            "coeffs": list(C.coeffs),
            "b0": C.b0,
            "b1": C.b1,
        }


def _run_oracle(cone: ToricCone, spec: ConeSpec, flags: dict, results: dict) -> None:
    from .characters import truncated_character_oracle
    from .stability import _oracle_table

    xi = _require_xi(spec, flags)
    m_max = flags.get("m_max")
    t_values = flags.get("t")
    if m_max is None and not t_values:
        raise SchemaError("oracle: provide --m-max and/or --t")
    if m_max is not None:
        if m_max < 1:
            raise ValueError("m_max must be at least 1, got %r" % (m_max,))
        results["s_m_table"] = {"m_max": m_max, "rows": _oracle_table(cone, xi, m_max)}
    if t_values:
        eta = _flag(flags, "eta", spec.eta)
        # the default cutoff is ceil(reach / t); the eta-weighted sum's tail
        # carries one more power of the pairing, so it reaches further
        reach = 14.0 if eta is None else 18.0
        entries = []
        for t in t_values:
            if float(t) <= 0:
                raise ValueError("t must be positive, got %r" % (t,))
            cutoff = flags.get("cutoff")
            if cutoff is None:
                if not reach / float(t) < math.inf:
                    raise ExceedsSupportedSize(
                        "t = %r puts the default cutoff past every float" % (t,))
                cutoff = math.ceil(reach / float(t))
            value = truncated_character_oracle(cone, xi, eta, float(t), cutoff)
            entries.append({"t": float(t), "cutoff": cutoff, "value": value})
        results["character_values"] = {
            "kind": "weight" if eta is not None else "index",
            "entries": entries,
        }


_RUNNERS = {
    "check": _run_check,
    "delta": _run_delta,
    "minimize": _run_minimize,
    "futaki": _run_futaki,
    "character": _run_character,
    "oracle": _run_oracle,
}


def run(command: str, spec, flags: Optional[dict] = None) -> Report:
    """Execute one subcommand against a spec (text or parsed) and report.

    ``spec`` may be the raw JSON text (hashed as-is) or a ConeSpec
    (hashed over its canonical repr).  Library warnings raised during
    the run are captured into the report.  Errors propagate.
    """
    if command not in COMMANDS:
        raise ValueError("unknown command %r" % (command,))
    report, failure = _attempt(command, spec, dict(flags or {}))
    if failure is not None:
        raise failure
    return report


def _attempt(command: str, spec, flags: dict) -> Tuple[Report, Optional[Exception]]:
    """Run one subcommand; return its report and the error that ended it.

    ``spec`` is JSON text, a ConeSpec, or a Path to read.  A report cut
    short by a ReebconeError or ValueError still carries everything known
    before it: the spec name, the warnings so far, the results a runner
    had filled in and the full provenance.
    """
    text, name, results, failure = None, "", {}, None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            if isinstance(spec, Path):
                try:
                    spec = spec.read_text(encoding="utf-8")
                except OSError as exc:
                    raise InputError(str(exc)) from exc
                except UnicodeDecodeError as exc:
                    raise SchemaError("spec is not UTF-8: %s" % exc) from exc
            text = spec if isinstance(spec, str) else repr(spec)
            if isinstance(spec, str):
                spec = parse_cone_spec(text)
            name = spec.name
            cone = dual_cone(spec.rays, spec.dim)
            _RUNNERS[command](cone, spec, flags, results)
        except (ReebconeError, ValueError) as exc:
            failure = exc
    floaty = command == "minimize" or (command == "oracle" and flags.get("t"))
    provenance = {
        "package": "reebcone",
        "version": __version__,
        "arithmetic": "float64" if floaty else "exact-rational",
        "precision_bits": precision_bits(),
        "tol": float(_flag(flags, "tol", default_tol())),
    }
    error = None
    if failure is not None:
        kind = type(failure).__name__ if isinstance(failure, ReebconeError) else "UsageError"
        error = {"type": kind, "message": str(failure)}
    digest = "" if text is None else "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()
    report = Report(
        command=command,
        input_hash=digest,
        spec_name=name,
        flags=_jsonable(flags),
        results=results,
        provenance=provenance,
        warnings=tuple(str(w.message) for w in caught),
        error=error,
    )
    return report, failure


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _fraction_arg(token: str) -> Fraction:
    try:
        return _rational(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError("%r is not a rational number: %s" % (token, exc))


def _finite_arg(token: str) -> float:
    try:
        value = float(token)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError("%r is not a finite number" % (token,))
    return value


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="reebcone",
        description="K-semistability of toric Fano cone singularities "
        "via the barycenter criterion.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, blurb in (
        ("check", "Q-Gorenstein check, Reeb membership and K-ss verdict"),
        ("delta", "stability threshold delta and barycenter report"),
        ("minimize", "normalized-volume-minimizing Reeb vector"),
        ("futaki", "Futaki pairing Fut(xi; eta)"),
        ("character", "index/weight character Laurent coefficients"),
        ("oracle", "brute-force S_m table and truncated character sums"),
    ):
        p = sub.add_parser(command, help=blurb)
        p.add_argument("--spec", required=True, help="path to a cone spec (JSON)")
        p.add_argument("--xi", nargs="+", type=_fraction_arg, metavar="C",
                       help="Reeb vector coordinates (overrides the spec)")
        p.add_argument("--eta", nargs="+", type=_fraction_arg, metavar="C",
                       help="direction coordinates (overrides the spec)")
        p.add_argument("--order", type=int, help="character expansion order")
        p.add_argument("--tol", type=_finite_arg, help="convergence tolerance")
        p.add_argument("--m-max", type=int, dest="m_max",
                       help="oracle: compute S_m for m = 1..M")
        p.add_argument("--t", nargs="+", type=_finite_arg, metavar="T",
                       help="oracle: evaluate truncated character at these t")
        p.add_argument("--cutoff", type=_finite_arg,
                       help="oracle: pairing cutoff for the lattice sum "
                            "(default ceil(14/t), ceil(18/t) with eta)")
        p.add_argument("--max-iter", type=int, dest="max_iter",
                       help="minimize: Newton iteration cap")
        p.add_argument("--probe-rational", type=int, dest="probe_rational",
                       metavar="N", help="minimize: probe a rational "
                       "minimizer with denominators up to N")
        p.add_argument("--json-out", dest="json_out",
                       help="also write the report to this file")
    return parser


def _exit_code(exc: Exception) -> int:
    if isinstance(exc, InputError):
        return 2
    if isinstance(exc, MathDomainError):
        return 3
    if isinstance(exc, ConvergenceError):
        return 4
    return 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    flags = {
        key: getattr(args, key)
        for key in ("xi", "eta", "order", "tol", "m_max", "t", "cutoff",
                    "max_iter", "probe_rational")
        if getattr(args, key, None) is not None
    }
    if "xi" in flags:
        flags["xi"] = tuple(flags["xi"])
    if "eta" in flags:
        flags["eta"] = tuple(flags["eta"])
    report, failure = _attempt(args.command, Path(args.spec), flags)
    payload = report.to_json()
    if args.json_out:
        # written before stdout, so that a failed write is the report's error
        try:
            Path(args.json_out).write_text(payload, encoding="utf-8")
        except OSError as exc:
            failure = InputError("cannot write --json-out: %s" % exc)
            payload = dataclasses.replace(
                report, error={"type": "InputError", "message": str(failure)}
            ).to_json()
    sys.stdout.write(payload)
    return 0 if failure is None else _exit_code(failure)


if __name__ == "__main__":
    sys.exit(main())
