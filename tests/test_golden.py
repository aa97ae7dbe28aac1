"""Golden CLI reports and Newton minimizers, byte for byte and bit for bit.

The files under ``tests/golden/`` were written by an earlier version of the
library: one report per bundled spec and subcommand, and ``newton_suite.json``
with the ``float.hex`` of every float of :func:`reebcone.minimize_volume` on
the seed-11 random suites.  A refactor must reproduce them exactly.
Regenerate them with

    PYTHONPATH=src python tests/test_golden.py

only when a report is meant to change, and say why in ``CHANGES.md``.
"""

import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from reebcone import cli, minimize_volume, polytope_Q
from reebcone.config import mp_context
from reebcone.geometry import _simplex_sums, _slice_pairings, gorenstein_vector, simplices

from conftest import random_cone_suite, to_mpf

ROOT = Path(__file__).resolve().parents[1]
SPEC_DIR = ROOT / "src" / "reebcone" / "specs"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

SPECS = ("a1", "conifold", "orthant2", "orthant3", "y21")

# (command, the flags ``main`` builds from its argv)
CALLS = (
    ("check", {}),
    ("delta", {}),
    ("futaki", {}),
    ("character", {"order": 3}),  # --order 3
    ("minimize", {"probe_rational": 100}),  # --probe-rational 100
    ("oracle", {"m_max": 5}),  # --m-max 5
)

# Not Q-Gorenstein: ``check`` exits 3 with an error report.
ERROR_SPEC = '{"dim":3,"rays":[[2,0,0],[1,1,0],[1,1,1],[2,0,1]]}'
ERROR_GOLDEN = "not_q_gorenstein__check.json"

# The random suites of ``test_optimize.test_minimize_random_suite``.
NEWTON_GOLDEN = "newton_suite.json"
NEWTON_SUITES = (("dims3-5", (3, 4, 5), 60), ("dims6-8", (6, 7, 8), 30))


def cases():
    """(golden file name, spec name, command, flags) for every report."""
    out = []
    for name in SPECS:
        spec = cli.parse_cone_spec(spec_text(name))
        for command, flags in CALLS:
            if command == "futaki" and spec.eta is None:
                # ``--eta 0 1 [0]``
                flags = {"eta": (Fraction(0), Fraction(1)) + (Fraction(0),) * (spec.dim - 2)}
            out.append(("%s__%s.json" % (name, command), name, command, flags))
    return out


def main_argv(name: str, command: str, flags: dict) -> list[str]:
    """The command line from which ``cli.main`` builds ``flags``."""
    argv = [command, "--spec", str(SPEC_DIR / (name + ".json"))]
    for key, value in flags.items():
        values = value if isinstance(value, tuple) else (value,)
        argv += ["--" + key.replace("_", "-"), *map(str, values)]
    return argv


def spec_text(name: str) -> str:
    return (SPEC_DIR / (name + ".json")).read_text(encoding="utf-8")


def report_text(name: str, command: str, flags: dict) -> str:
    return cli.run(command, spec_text(name), flags).to_json()


def error_report(tmp_dir: Path) -> tuple[int, str]:
    spec = tmp_dir / "not_q_gorenstein.json"
    spec.write_text(ERROR_SPEC, encoding="utf-8")
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["check", "--spec", str(spec)])
    return code, out.getvalue()


CASES = cases()


@pytest.mark.parametrize("golden,name,command,flags", CASES,
                         ids=[c[0][:-len(".json")] for c in CASES])
def test_report_matches_golden(golden, name, command, flags):
    expected = (GOLDEN_DIR / golden).read_text(encoding="utf-8")
    assert report_text(name, command, flags) == expected


def test_error_report_matches_golden(tmp_path):
    code, text = error_report(tmp_path)
    assert code == 3
    assert text == (GOLDEN_DIR / ERROR_GOLDEN).read_text(encoding="utf-8")


def newton_records() -> list[dict]:
    """One record per cone of :data:`NEWTON_SUITES`: ``float.hex`` of each float
    result of ``minimize_volume`` from its default start, and the iterations."""
    out = []
    for suite, dims, count in NEWTON_SUITES:
        for index, (cone, _) in enumerate(random_cone_suite(seed=11, count=count, dims=dims)):
            res = minimize_volume(cone)
            out.append({
                "suite": suite,
                "index": index,
                "xi_star": [float(x).hex() for x in res.xi_star.xi],
                "vol_star": res.vol_star.hex(),
                "gradient_norm": res.gradient_norm.hex(),
                "kss_residual": res.kss_residual.hex(),
                "margin": res.margin.hex(),
                "iterations": res.iterations,
            })
    return out


def test_newton_suite_matches_golden():
    expected = json.loads((GOLDEN_DIR / NEWTON_GOLDEN).read_text(encoding="utf-8"))
    records = newton_records()
    assert len(records) == len(expected)
    for got, want in zip(records, expected):
        assert got == want


def test_newton_suite_near_root():
    # every golden xi* lies within 1e-12 relative of the root of l - bary_P
    # at the working precision (128 bits by default), which the strict
    # convexity of log a0 makes unique; findroot accepts a root only once the
    # mpf polytope_Q residual is at working precision, and the Jacobian of
    # bary_P = M / (n T) from the slice kernel, (M M^T / T^2 - H / T) / n,
    # only steers it
    ctx = mp_context()
    records = json.loads((GOLDEN_DIR / NEWTON_GOLDEN).read_text(encoding="utf-8"))
    cones = [cone for _, dims, count in NEWTON_SUITES
             for cone, _ in random_cone_suite(seed=11, count=count, dims=dims)]
    for record, cone in zip(records, cones):
        n = cone.dim
        l = [to_mpf(v, ctx) for v in gorenstein_vector(cone).l]

        def residual(*xi):
            return [b - v for b, v in zip(polytope_Q(cone, xi).bary_P, l)]

        def jacobian(*xi):
            total, moment, _, hess = _simplex_sums(simplices(cone), _slice_pairings(cone, xi),
                                                   coords={u: u for u in cone.dual_rays})
            return ctx.matrix([[(a * b / total**2 - h / total) / n for b, h in zip(moment, row)]
                               for a, row in zip(moment, hess)])

        xi_star = [float.fromhex(x) for x in record["xi_star"]]
        root = ctx.findroot(residual, [to_mpf(x, ctx) for x in xi_star], J=jacobian)
        error = max(abs(x - r) for x, r in zip(xi_star, root)) / max(abs(r) for r in root)
        assert error <= 1e-12, (record["suite"], record["index"], float(error))


def write_golden() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for golden, name, command, flags in CASES:
        (GOLDEN_DIR / golden).write_text(report_text(name, command, flags), encoding="utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        code, text = error_report(Path(tmp))
    if code != 3:
        sys.exit("the error spec exited %d, expected 3" % code)
    (GOLDEN_DIR / ERROR_GOLDEN).write_text(text, encoding="utf-8")
    lines = ",\n".join(json.dumps(record) for record in newton_records())
    (GOLDEN_DIR / NEWTON_GOLDEN).write_text("[\n" + lines + "\n]\n", encoding="utf-8")


if __name__ == "__main__":
    write_golden()
