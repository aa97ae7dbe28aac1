"""Command-line surface: cone-spec ingestion, dispatch, JSON reports.

The CLI is a thin shell over the library: it parses one cone spec,
calls the library routines of one subcommand, and serializes the
result.  It computes no invariant: each report block is a library result
type (``StabilityReport``, ``MinimizeResult`` with xi* as floats,
``LaurentSeries``) written out field by field.  Each flag given goes unchecked
to the library function that takes it (``t``, which the CLI iterates, must be a
list), and one not given is left to that function's default, but for
``character``'s order 2.  Rational values are
emitted as exact ``"p/q"`` strings so that exactness survives the pipe,
and reports are deterministic byte-for-byte for identical inputs, flags
and version.

Each call starts a cold interpreter, so each subcommand imports only the
layers it runs: :mod:`reebcone.geometry` always (every subcommand builds
its cone), :mod:`reebcone.stability` for ``check``, ``delta``, ``futaki``
and ``oracle``, :mod:`reebcone.lattice` for ``oracle`` alone,
:mod:`reebcone.characters` for one ``character_series`` call at every
``character`` order but the closed-form 0 and 1, and
:mod:`reebcone.optimize` for ``minimize``.  mpmath loads with the first mpf,
which no subcommand makes on a rational spec (``minimize`` reads its float
xi* exactly), and numpy with the character sums of ``oracle --t``: the
``oracle --m-max`` table is one pure-Python scan.  Every result type is a
``typing.NamedTuple``, so no subcommand loads :mod:`dataclasses`, and one flag
table read by :func:`_parse_args`, by argparse's token rules, takes argparse's
place, so none loads :mod:`argparse` or the :mod:`gettext` and :mod:`locale`
it loads.

Exit codes: 0 success, 1 usage, else the ``exit_code`` of the error's type
in :mod:`reebcone.errors`.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import sys
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple, Optional, Sequence, Tuple

from . import __version__
from .config import DEFAULT_TOL, precision_bits
from .errors import InputError, NonIntegerRay, ReebconeError, ReebconeWarning, SchemaError
# every subcommand builds its cone here; each runner imports the other layers
# it calls, so a cold call loads only those
from .geometry import ToricCone, dual_cone, futaki_coefficients, gorenstein_vector, reeb_vector

MAX_EXPONENT = 4300  # largest |exponent| of a decimal input such as 1e-4300


class ConeSpec(NamedTuple):
    """Validated cone description parsed from a JSON document."""

    name: str
    dim: int
    rays: Tuple[Tuple[int, ...], ...]
    xi: Optional[Tuple[Fraction, ...]] = None
    eta: Optional[Tuple[Fraction, ...]] = None
    boundary_coeffs: Optional[Tuple[Fraction, ...]] = None


class Report(NamedTuple):
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
        return _jsonable(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def _jsonable(obj):
    """Recursively convert report values to JSON-stable primitives.

    Fractions become exact "p/q" strings (just "p" when q = 1), of any
    size: the digits go through Decimal, which has no limit on converting
    an int to a string; any non-rational scalar is forced through float
    (shortest round-trip repr keeps the bytes deterministic), and ValueError
    names the type of one that float cannot take.
    """
    if obj is None or isinstance(obj, (bool, int, str, float)):
        return obj
    if isinstance(obj, Fraction):
        p, q = (str(Decimal(k)) for k in obj.as_integer_ratio())
        return p if q == "1" else p + "/" + q
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if hasattr(obj, "_asdict"):  # a NamedTuple record, which the list branch would list
        return _jsonable(obj._asdict())
    try:
        len(obj)  # any other sized iterable, a NumPy array included, is a list
    except TypeError:  # a scalar: an mpf, a NumPy number or a 0-d array
        try:
            return float(obj)
        except (TypeError, ValueError):
            raise ValueError("no report can hold a value of type %s" % type(obj).__name__) from None
    return [_jsonable(v) for v in obj]


def _fields(record) -> dict:
    """A result record's fields by name, each one that is a record itself as a dict."""
    return {k: _fields(v) if hasattr(v, "_asdict") else v for k, v in record._asdict().items()}


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
        coords = _parse_vector(ray, dim, "rays[%d]" % i)
        for j, x in enumerate(coords):
            if x.denominator != 1:
                raise NonIntegerRay("rays[%d][%d]: %s is not an integer" % (i, j, x))
        rays.append(tuple(map(int, coords)))
    xi = _parse_vector(doc["xi"], dim, "xi") if "xi" in doc else None
    eta = _parse_vector(doc["eta"], dim, "eta") if "eta" in doc else None
    boundary = (_parse_vector(doc["boundary_coeffs"], len(rays), "boundary_coeffs")
                if "boundary_coeffs" in doc else None)
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


def _require(spec: ConeSpec, flags: dict, key: str) -> Tuple[Fraction, ...]:
    """The vector of flag ``key`` ("xi" or "eta"), else the spec's field of that name."""
    value = _flag(flags, key, getattr(spec, key))
    if value is None:
        what = "Reeb vector" if key == "xi" else "direction"
        raise SchemaError("no %s: provide --%s or an '%s' field" % (what, key, key))
    return value


def _run_check(cone: ToricCone, spec: ConeSpec, flags: dict, results: dict) -> None:
    results["dim"] = cone.dim
    results["rays"] = [list(v) for v in cone.rays]
    results["dual_rays"] = [list(u) for u in cone.dual_rays]
    l = gorenstein_vector(cone, boundary=spec.boundary_coeffs)
    results["gorenstein"] = {"l": list(l.l)}
    results["q_gorenstein"] = True
    xi = _flag(flags, "xi", spec.xi)
    if xi is not None:
        from .stability import delta

        rv = reeb_vector(cone, xi)  # normalized against the Gorenstein vector, not a boundary's l
        results["reeb"] = dict(_fields(rv), xi=list(rv.xi), interior=True)
        report = delta(cone, xi, spec.boundary_coeffs, experimental=True)
        results["kss"] = report.kss
        results["delta"] = report.delta
        results["residual"] = report.residual


def _warn_boundary(spec: ConeSpec) -> None:
    """Warn of a boundary divisor: in a spec file, the CLI user's opt-in to it.
    Every subcommand warns; only ``check`` and ``delta`` read the divisor."""
    if spec.boundary_coeffs is not None:
        warnings.warn(
            "boundary divisor coefficients are experimental and excluded "
            "from the acceptance-backed surface",
            ReebconeWarning,
            stacklevel=2,
        )


def _run_delta(cone: ToricCone, spec: ConeSpec, flags: dict, results: dict) -> None:
    from .stability import delta

    xi = _require(spec, flags, "xi")
    results.update(_fields(delta(cone, xi, spec.boundary_coeffs, experimental=True)))


def _run_minimize(cone: ToricCone, spec: ConeSpec, flags: dict, results: dict) -> None:
    from .optimize import minimize_volume

    given = {k: flags[k] for k in ("tol", "max_iter", "probe_rational") if flags.get(k) is not None}
    res = minimize_volume(cone, start=_flag(flags, "xi", spec.xi), **given)
    results.update(_fields(res), xi_star=[float(x) for x in res.xi_star.xi])


def _run_futaki(cone: ToricCone, spec: ConeSpec, flags: dict, results: dict) -> None:
    from .stability import futaki_pairing

    xi = _require(spec, flags, "xi")
    eta = _require(spec, flags, "eta")
    F, C = futaki_coefficients(cone, xi, eta)
    results.update(futaki=futaki_pairing(F, C), a0=F.a0, a1=F.a1, b0=C.b0, b1=C.b1)


def _run_character(cone: ToricCone, spec: ConeSpec, flags: dict, results: dict) -> None:
    xi = _require(spec, flags, "xi")
    order = _flag(flags, "order", 2)
    eta = _flag(flags, "eta", spec.eta)
    if isinstance(order, int) and order in (0, 1):  # closed form: no characters, no box points
        F, C = futaki_coefficients(cone, xi, eta)
    else:
        from .characters import character_series, check_order, decompose_dual

        order = check_order(order)  # before decompose_dual lists a single box point
        F, C = character_series(decompose_dual(cone), xi, eta, order)
    for block, series, low, high in (("index", F, "a0", "a1"), ("weight", C, "b0", "b1")):
        if series is not None:
            results[block] = {
                "order_low": series.order_low,
                "coeffs": list(series.coeffs[:order + 1]),
                low: getattr(series, low),
                high: getattr(series, high) if order else None,
            }


def _run_oracle(cone: ToricCone, spec: ConeSpec, flags: dict, results: dict) -> None:
    from .lattice import _default_cutoff, _oracle_table, truncated_character_oracle

    xi = _require(spec, flags, "xi")
    m_max = flags.get("m_max")
    t_values = flags.get("t")
    if t_values is not None and not isinstance(t_values, (list, tuple)):
        raise ValueError("t must be a list of numbers, got %r" % (t_values,))
    if m_max is None and not t_values:
        raise SchemaError("oracle: provide --m-max and/or --t")
    if m_max is not None:
        results["s_m_table"] = {"m_max": m_max, "rows": _oracle_table(cone, xi, m_max)}
    if t_values:
        eta = _flag(flags, "eta", spec.eta)
        entries = []
        for t in t_values:
            cutoff = flags.get("cutoff")
            if cutoff is None:
                cutoff = _default_cutoff(t, eta is not None)
            value = truncated_character_oracle(cone, xi, eta, t, cutoff)
            entries.append({"t": float(t), "cutoff": cutoff, "value": value})
        results["character_values"] = {
            "kind": "weight" if eta is not None else "index",
            "entries": entries,
        }


# each subcommand's runner and help line
_COMMAND_TABLE = {
    "check": (_run_check, "Q-Gorenstein check, Reeb membership and K-ss verdict"),
    "delta": (_run_delta, "stability threshold delta and barycenter report"),
    "minimize": (_run_minimize, "normalized-volume-minimizing Reeb vector"),
    "futaki": (_run_futaki, "Futaki pairing Fut(xi; eta)"),
    "character": (_run_character, "index/weight character Laurent coefficients"),
    "oracle": (_run_oracle, "brute-force S_m table and truncated character sums"),
}
COMMANDS = tuple(_COMMAND_TABLE)


def run(command: str, spec, flags: Optional[dict] = None) -> Report:
    """Execute one subcommand against a spec's JSON text and report.

    The text is hashed as-is.  Library warnings raised during the run are
    captured into the report.  Errors propagate.
    """
    if command not in COMMANDS:
        raise ValueError("unknown command %r" % (command,))
    report, failure = _attempt(command, spec, dict(flags or {}))
    if failure is not None:
        raise failure
    return report


def _attempt(command: str, spec, flags: dict) -> Tuple[Report, Optional[Exception]]:
    """Run one subcommand; return its report and the error that ended it.

    ``spec`` is JSON text or a Path to read.  A report cut
    short by a ReebconeError or ValueError still carries everything known
    before it: the spec name, the warnings so far, the results a runner
    had filled in and the full provenance.
    """
    digest, name, shown, results, failure, bits = "", "", {}, {}, None, None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            bits = precision_bits()
            unreported = []
            for key, value in flags.items():
                try:
                    shown[str(key)] = _jsonable(value)
                except ValueError as exc:
                    unreported.append("flag %s: %s" % (key, exc))
            if unreported:
                raise ValueError("; ".join(unreported))
            if isinstance(spec, Path):
                try:
                    spec = spec.read_text(encoding="utf-8")
                except OSError as exc:
                    raise InputError(str(exc)) from exc
                except UnicodeDecodeError as exc:
                    raise SchemaError("spec is not UTF-8: %s" % exc) from exc
            if not isinstance(spec, str):
                raise SchemaError("spec: expected JSON text or a Path, got %s"
                                  % type(spec).__name__)
            try:
                digest = "sha256:" + hashlib.sha256(spec.encode("utf-8")).hexdigest()
            except UnicodeEncodeError as exc:
                raise SchemaError("spec is not UTF-8: %s" % exc) from exc
            spec = parse_cone_spec(spec)
            name = spec.name
            cone = dual_cone(spec.rays, spec.dim)
            _warn_boundary(spec)
            _COMMAND_TABLE[command][0](cone, spec, flags, results)
        except (ReebconeError, ValueError) as exc:
            failure = exc
    floaty = command == "minimize" or (command == "oracle" and flags.get("t") is not None)
    provenance = {
        "package": "reebcone",
        "version": __version__,
        "arithmetic": "float64" if floaty else "exact-rational",
        "precision_bits": bits,
        "tol": _flag(shown, "tol", DEFAULT_TOL),  # as given: minimize_volume checks it
    }
    report = Report(
        command=command,
        input_hash=digest,
        spec_name=name,
        flags=shown,
        results=results,
        provenance=provenance,
        warnings=tuple(str(w.message) for w in caught),
        error=None if failure is None else _error_block(failure),
    )
    return report, failure


def _error_block(exc: Exception) -> dict:
    """A report's ``error``: a ValueError not of the package is a usage error."""
    kind = type(exc).__name__ if isinstance(exc, ReebconeError) else "UsageError"
    return {"type": kind, "message": str(exc)}


def _fraction_arg(token: str) -> Fraction:
    try:
        return _rational(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError("%r is not a rational number: %s" % (token, exc)) from None


def _finite_arg(token: str) -> float:
    try:
        value = float(token)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError("%r is not a finite number" % (token,))
    return value


def _int_arg(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError("invalid int value: %r" % (token,)) from None


# every subcommand's flags: dest, arity (1 value, or "+" for one or more), the
# converter of each value (ValueError says what is wrong), metavar and help line
_FLAGS = {
    "--spec": ("spec", 1, str, "SPEC", "path to a cone spec (JSON)"),
    "--xi": ("xi", "+", _fraction_arg, "C [C ...]", "Reeb vector coordinates (overrides the spec)"),
    "--eta": ("eta", "+", _fraction_arg, "C [C ...]", "direction coordinates (overrides the spec)"),
    "--order": ("order", 1, _int_arg, "ORDER", "character expansion order"),
    "--tol": ("tol", 1, _finite_arg, "TOL", "convergence tolerance"),
    "--m-max": ("m_max", 1, _int_arg, "M_MAX", "oracle: compute S_m for m = 1..M"),
    "--t": ("t", "+", _finite_arg, "T [T ...]", "oracle: evaluate truncated character at these t"),
    "--cutoff": ("cutoff", 1, _finite_arg, "CUTOFF", "oracle: pairing cutoff for the lattice "
                 "sum (default ceil(14/t), ceil(18/t) with eta)"),
    "--max-iter": ("max_iter", 1, _int_arg, "MAX_ITER", "minimize: Newton iteration cap"),
    "--probe-rational": ("probe_rational", 1, _int_arg, "N", "minimize: probe a rational "
                         "minimizer with denominators up to N"),
    "--json-out": ("json_out", 1, str, "JSON_OUT", "also write the report to this file"),
}


def _help(prog: str) -> str:
    """The help of ``prog``, "reebcone" or "reebcone <command>": its usage line,
    what it does, and a line per command or flag."""
    if prog == "reebcone":
        usage = "[-h] [--version] {%s} ..." % ",".join(COMMANDS)
        about = "K-semistability of toric Fano cone singularities via the barycenter criterion."
        rows = [*((command, blurb) for command, (_, blurb) in _COMMAND_TABLE.items()),
                ("--version", "show the version and exit")]
    else:
        rows = [(flag + " " + entry[3], entry[4]) for flag, entry in _FLAGS.items()]
        usage = "[-h] %s [%s]" % (rows[0][0], "] [".join(flag for flag, _ in rows[1:]))
        about = _COMMAND_TABLE[prog.split()[1]][1]
    return "usage: %s %s\n\n%s\n\n  %-24s %s\n%s" % (
        prog, usage, about, "-h, --help", "show this help message and exit",
        "".join("  %-24s %s\n" % row for row in rows))


def _refuse(prog: str, message: str):
    """A usage error: the usage line and the reason on stderr, exit 1."""
    sys.stderr.write("%s\n%s: error: %s\n" % (_help(prog).split("\n", 1)[0], prog, message))
    raise SystemExit(1)


def _read(tokens: Sequence[str], names: Tuple[str, ...], prog: str) -> list:
    """How each token reads among the flags ``names``, by argparse's rules: None
    for a value, else (flag, the text after "=" or None), the flag None for a
    token that no flag takes: an unknown flag, or "--" and every token after it,
    as no command takes a positional argument.  A flag is named in full, or by a
    prefix that only it has; an exact name wins over a longer name it starts."""
    kinds = []
    for k, token in enumerate(tokens):
        if token == "--":
            return kinds + [(None, after) for after in tokens[k:]]
        name, eq, value = token.partition("=")
        if token[:1] != "-" or token == "-":
            kinds.append(None)
        elif token in names:
            kinds.append((token, None))
        elif eq and name in names:
            kinds.append((name, value))
        else:
            if token[1] == "-":
                found = [(flag, value if eq else None) for flag in names if flag.startswith(name)]
            else:  # one dash: only -h, whose text may follow it
                found = [("-h", token[2:])] if token.startswith("-h") else []
            if len(found) > 1:
                _refuse(prog, "ambiguous option: %s could match %s"
                        % (token, ", ".join(flag for flag, _ in found)))
            if found:
                kinds.append(found[0])
            elif re.match(r"^-\d+$|^-\d*\.\d+$", token) or " " in token:  # -1, -.5, "-a b"
                kinds.append(None)
            else:
                kinds.append((None, token))
    return kinds


def _answer(prog: str, flag: str, value: Optional[str]):
    """Print the help or the version that ``flag`` asks for and exit 0; -h takes
    more h's after it, as -h -h, and no flag takes any other text."""
    if value is not None and (flag != "-h" or not value or value.strip("h")):
        _refuse(prog, "argument %s: ignored explicit argument %r"
                % ("--version" if flag == "--version" else "-h/--help", value))
    sys.stdout.write(__version__ + "\n" if flag == "--version" else _help(prog))
    raise SystemExit(0)


def _parse_args(argv: Sequence[str]) -> dict:
    """The command of ``argv`` and each flag's value, None when not given.

    Tokens are read left to right as argparse read them: a flag converts its
    values when it is reached, a help or version flag answers at once, and the
    tokens that no flag took are refused at the end.  SystemExit(1) on a usage
    error, SystemExit(0) after a help or version answer.
    """
    argv, prog, extras = list(argv), "reebcone", []
    kinds = _read(argv, ("-h", "--help", "--version"), prog)
    i = 0
    while i < len(argv) and kinds[i] is not None:
        flag, value = kinds[i]
        if flag is not None:
            _answer(prog, flag, value)
        extras.append(argv[i])
        i += 1
    if i == len(argv):
        _refuse(prog, "the following arguments are required: command")
    command, rest = argv[i], argv[i + 1:]
    if command not in COMMANDS:
        _refuse(prog, "argument command: invalid choice: %r (choose from %s)"
                % (command, ", ".join(map(repr, COMMANDS))))
    prog += " " + command
    kinds = _read(rest, ("-h", "--help", *_FLAGS), prog)
    args = dict(command=command, **{entry[0]: None for entry in _FLAGS.values()})
    i = 0
    while i < len(rest):
        flag, value = kinds[i] or (None, None)
        if flag is None:  # a value that no flag took, or a token that no flag takes
            extras.append(rest[i])
            i += 1
            continue
        if flag in ("-h", "--help"):
            _answer(prog, flag, value)
        dest, arity, convert = _FLAGS[flag][:3]
        if value is not None:
            tokens, i = [value], i + 1
        else:
            end = i + 1  # one value, or values up to the next flag
            while end < len(rest) and kinds[end] is None and (arity == "+" or end == i + 1):
                end += 1
            tokens, i = rest[i + 1:end], end
            if not tokens:
                _refuse(prog, "argument %s: expected %s"
                        % (flag, "one argument" if arity == 1 else "at least one argument"))
        try:
            values = [convert(token) for token in tokens]
        except ValueError as exc:
            _refuse(prog, "argument %s: %s" % (flag, exc))
        args[dest] = values if arity == "+" else values[0]  # a repeated flag: the last wins
    if args["spec"] is None:
        _refuse(prog, "the following arguments are required: --spec")
    if extras:
        _refuse("reebcone", "unrecognized arguments: %s" % " ".join(extras))
    return args


def _exit_code(exc: Exception) -> int:
    return getattr(exc, "exit_code", 1)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    command, spec, json_out = args.pop("command"), args.pop("spec"), args.pop("json_out")
    flags = {key: value for key, value in args.items() if value is not None}
    report, failure = _attempt(command, Path(spec), flags)
    payload = report.to_json()
    if json_out:
        # written before stdout, so that a failed write is the report's error
        try:
            Path(json_out).write_text(payload, encoding="utf-8")
        except OSError as exc:
            failure = InputError("cannot write --json-out: %s" % exc)
            payload = report._replace(error=_error_block(failure)).to_json()
    sys.stdout.write(payload)
    return 0 if failure is None else _exit_code(failure)


if __name__ == "__main__":
    sys.exit(main())
