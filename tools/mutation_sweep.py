"""Mutation sweep: does the test suite notice a one-edit change to the library?

Each mutant is one string edit to one file under ``src/reebcone``.  The
sweep copies the checkout (without ``.git`` and caches) into a fresh
temporary directory per mutant, applies the edit there, and runs
``python -m pytest -x -q`` against the copy.  A mutant is killed when a test
fails, and survives when the whole suite passes; a survivor therefore costs
one full Tier-1 run, about 50 s on a 2-core machine.  Run it from the root
of a checkout, outside Tier-1::

    python3 tools/mutation_sweep.py                      # every mutant
    python3 tools/mutation_sweep.py --list               # names; exit 1 if one is stale
    python3 tools/mutation_sweep.py kss-rtol ray-tie-rtol -- tests/test_stability.py

Names select mutants; arguments after ``--`` replace the pytest selection
(the whole of ``tests`` by default).  The last line is a summary; the exit
status is 1 when a mutant survives or an edit no longer applies.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 900  # far above a full Tier-1 run: a mutant that hangs counts as killed

# (name, file under src/reebcone, old text, new text); each old text occurs once
MUTANTS = [
    # geometry: double description, triangulation, slice sums
    ("dd-adjacency-rank", "geometry.py",
     "common.bit_count() >= dim - 2", "common.bit_count() >= dim - 1"),
    ("dd-adjacency-count", "geometry.py",
     "for mask in rays.values()) == 2):", "for mask in rays.values()) <= 2):"),
    ("dd-keep-tight", "geometry.py",
     "for r, mask in rays.items() if values[r] >= 0}", "for r, mask in rays.items() if values[r] > 0}"),
    ("tri-maximal-facets", "geometry.py",
     "if facet >> first & 1 or any(facet & g == facet != g for g in proper):",
     "if facet >> first & 1:"),
    ("tri-pull-last-ray", "geometry.py",
     "first = (face & -face).bit_length() - 1", "first = face.bit_length() - 1"),
    ("faces-drop-one", "geometry.py",
     "                out.append((det // linalg.dot(ray, u), face))\n    return tuple(out)",
     "                out.append((det // linalg.dot(ray, u), face))\n    return tuple(out[1:])"),
    ("futaki-slice-route", "geometry.py", "(a * m - t_s * l_s * x)", "(a * m - t_s * x)"),
    ("futaki-gorenstein-half", "geometry.py",
     "t_f, l_f = a * t_s, l_d * l_s", "t_f, l_f = 2 * a * t_s, l_d * l_s"),
    ("pairings-strict", "geometry.py",
     "if not all(c > 0 for c in pairings.values()):", "if not all(c >= 0 for c in pairings.values()):"),
    ("sums-weight-accumulate", "geometry.py",
     "            weights[u] += w", "            weights[u] = w"),
    ("sums-guard-bits", "geometry.py", "_GUARD_BITS = 32", "_GUARD_BITS = 4"),
    ("scale-guard", "geometry.py",
     "precision_bits() + _GUARD_BITS + max(", "precision_bits() + max("),
    ("sums-hessian-ray-term", "geometry.py",
     "    rows += scaled.values()\n", ""),
    ("spread-bits", "geometry.py", "_MAX_SPREAD_BITS = 4096", "_MAX_SPREAD_BITS = 40960"),
    # geometry: the integer scan box
    ("scan-box-floor", "geometry.py", "[x // p for x in u]", "[-(-x // p) for x in u]"),
    ("scan-box-ceil", "geometry.py", "[-(-x // p) for x in u]", "[x // p for x in u]"),
    # characters: box points and the per-piece series
    ("box-half-open", "characters.py",
     "tuple([r or count for r in rs]) if off", "tuple(rs) if off"),
    ("box-first-order", "characters.py",
     "k = count // math.gcd(count, *col)", "k = count // math.gcd(count, col[0])"),
    ("box-early-exit", "characters.py",
     "        if size == count:\n            break", "        if size == count:\n            continue"),
    ("series-positive-pairings", "characters.py",
     "if not all(k > 0 for k in ks):", "if not all(k >= 0 for k in ks):"),
    ("series-derivative-power", "characters.py",
     "* (j - 1) * gamma * k ** j", "* j * gamma * k ** j"),
    ("series-order-shift", "characters.py",
     "ratio(s * d ** n, scale * d ** j)", "ratio(s * d ** n, scale * d ** (j + 1))"),
    ("series-derivative-scale", "characters.py",
     "_summed(parts, 2, exact)", "_summed(parts, 1, exact)"),
    # characters: the oracle's shell counts from the sorted run ends
    ("shells-residue-strict", "characters.py", "np.cumsum(e_r > r,", "np.cumsum(e_r >= r,"),
    ("shells-live-threshold", "characters.py", "(counts - 1) > xs[0]", "(counts - 1) > xs[1]"),
    # stability: delta and its working-precision tolerances
    ("delta-tie-inclusive", "stability.py",
     "<= tie_num * low_a * s)", "< tie_num * low_a * s)"),
    ("delta-kss-inclusive", "stability.py",
     "kss=residual <= kss_tol,", "kss=residual < kss_tol,"),
    ("delta-prime-cap", "stability.py",
     "delta_prime=min(ratio(1, 1), low)", "delta_prime=max(ratio(1, 1), low)"),
    ("kss-rtol", "config.py", "KSS_RTOL = 1e-9", "KSS_RTOL = 1e-3"),
    ("ray-tie-rtol", "config.py", "RAY_TIE_RTOL = 8 * 2.0 ** -50", "RAY_TIE_RTOL = 2.0 ** -20"),
    # optimize: the damped Newton step on log a0 and the Tikhonov ladder
    ("newton-damping", "optimize.py",
     "scale_t = 1.0 / (1.0 + decrement)", "scale_t = 1.0"),
    ("newton-log-hessian", "optimize.py",
     "[h / value - a * b for b, h", "[h / value for b, h"),
    ("newton-stop-tol", "optimize.py", "while decrement > tol:", "while decrement > 1e6 * tol:"),
    ("newton-last-step", "optimize.py",
     "        scale_t = 1.0 / (1.0 + decrement)\n",
     "        if decrement <= tol:\n            break\n        scale_t = 1.0 / (1.0 + decrement)\n"),
    ("newton-margin", "optimize.py", "margin = min(", "margin = max("),
    ("ladder-fixed-start", "optimize.py", "lam = scale * 2.0**-52", "lam = 1e-12"),
    ("ladder-rung-factor", "optimize.py", "lam *= 10.0", "lam *= 100.0"),
    ("ladder-ceiling", "optimize.py",
     "if not 0.0 < lam <= scale < math.inf:", "if not 0.0 < lam <= 1e12 * scale < math.inf:"),
    # optimize: the grid oracle's ranking by the integer ratio T/L
    ("grid-first-minimum", "optimize.py",
     "total * best_big < best_total * big", "total * best_big <= best_total * big"),
    ("grid-cross-multiply", "optimize.py",
     "total * best_big < best_total * big", "total * big < best_total * best_big"),
]


def run_mutant(name, path, old, new, pytest_args):
    """``(verdict, detail)``: killed, survived or stale, with the first failure line."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".bench_out"))
        target = copy / "src" / "reebcone" / path
        text = target.read_text(encoding="utf-8")
        if text.count(old) != 1:
            return "stale", f"edit matches {text.count(old)} times in {path}"
        target.write_text(text.replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *pytest_args],
                cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "killed", f"timeout after {TIMEOUT_S} s"
    lines = proc.stdout.splitlines()
    if proc.returncode == 0:
        return "survived", lines[-1] if lines else ""
    failed = [line for line in lines if line.startswith(("FAILED", "ERROR"))]
    return "killed", (failed or lines[-1:] or ["exit %d" % proc.returncode])[0]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    split = argv.index("--") if "--" in argv else len(argv)
    pytest_args = argv[split + 1:] or ["tests"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = parser.parse_args(argv[:split])
    if args.list:
        stale = 0
        for name, path, old, _ in MUTANTS:
            matches = (ROOT / "src" / "reebcone" / path).read_text(encoding="utf-8").count(old)
            stale += matches != 1
            print(f"{name:26} {path:14} {'' if matches == 1 else 'stale'}".rstrip())
        return 1 if stale else 0
    unknown = set(args.names) - {m[0] for m in MUTANTS}
    if unknown:
        parser.error("unknown mutants: " + ", ".join(sorted(unknown)))
    chosen = [m for m in MUTANTS if not args.names or m[0] in args.names]
    tally = {"killed": 0, "survived": 0, "stale": 0}
    for name, path, old, new in chosen:
        verdict, detail = run_mutant(name, path, old, new, pytest_args)
        tally[verdict] += 1
        print(f"{verdict:8} {name:26} {detail}", flush=True)
    print(", ".join(f"{count} {verdict}" for verdict, count in tally.items()))
    return 1 if tally["survived"] or tally["stale"] else 0


if __name__ == "__main__":
    sys.exit(main())
