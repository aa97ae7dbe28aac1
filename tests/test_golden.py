"""Golden CLI reports: every bundled spec x every subcommand, byte for byte.

The files under ``tests/golden/`` were written by an earlier version of the
library; a refactor must reproduce them exactly.  Regenerate them with

    PYTHONPATH=src python tests/test_golden.py

only when a report is meant to change, and say why in ``CHANGES.md``.
"""

import io
import sys
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from reebcone import cli

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


def write_golden() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for golden, name, command, flags in CASES:
        (GOLDEN_DIR / golden).write_text(report_text(name, command, flags), encoding="utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        code, text = error_report(Path(tmp))
    if code != 3:
        sys.exit("the error spec exited %d, expected 3" % code)
    (GOLDEN_DIR / ERROR_GOLDEN).write_text(text, encoding="utf-8")


if __name__ == "__main__":
    write_golden()
