"""Seeded fuzz of ``cli.main``: every input ends in a documented outcome.

The bundled specs are mutated (wrong types, missing and unknown keys, huge,
negative and non-finite numbers, deep nesting, bad bytes) and run under
mutated flags.  Each case must end in one of two ways:

* one JSON report on stdout, valid without NaN or Infinity, and an exit
  code equal to ``_exit_code`` of its ``error.type`` (0 without error);
* an argparse rejection: ``SystemExit(1)`` with nothing on stdout.

Anything else, a traceback included, fails the test.  Numbers stay small
enough that no accepted case reaches a size cap: those are tested on their
own, and the fuzz runs in a few seconds.
"""

import json
import random
import time
from pathlib import Path

from reebcone import errors
from reebcone.cli import COMMANDS, _exit_code, main

SPEC_DIR = Path(__file__).resolve().parents[1] / "src" / "reebcone" / "specs"
SEED, CASES = 20261018, 300
CASE_BUDGET_S = 2.0

# replacements for one node of a spec document
VALUES = (
    0, 1, -1, 2, 3, 10 ** 30, -10 ** 30, 1.5, "1/3", "-2", "1e-5000", "1e5000",
    "nan", "inf", float("nan"), float("-inf"), "x", True, None,
    [], {}, [1, 0], [[1, 0]], ["1/2", 0], [1, 0, 0, 0],
)
# flag values: argparse rejects some, the library others
FLAG_VALUES = {
    "--xi": (["1", "1", "1"], ["1", "1/3", "2/3"], ["1", "1"], ["0", "1", "1"], ["abc"],
             ["1e-100000"]),
    "--eta": (["0", "1", "1"], ["0", "1"], ["1", "-1", "0"], ["nan"]),
    "--order": (["0"], ["1"], ["2"], ["-1"], ["9"], ["x"]),
    "--tol": (["1e-9"], ["0"], ["-1"], ["inf"], ["nan"], ["1e400"]),
    "--m-max": (["1"], ["2"], ["0"], ["-3"], ["1000000000"], ["x"]),
    "--t": (["0.5"], ["1", "2"], ["0"], ["-1"], ["nan"], ["inf"], ["1e-320"]),
    "--cutoff": (["3"], ["10"], ["0"], ["-3"], ["inf"], ["nan"]),
    "--max-iter": (["1"], ["5"], ["0"]),
    "--probe-rational": (["10"], ["0"]),
}


def _no_constant(name):
    raise ValueError("non-JSON constant %s in a report" % name)


def _nodes(doc, path=()):
    """Every (path, value) of a decoded JSON document."""
    yield path, doc
    if isinstance(doc, (dict, list)):
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    else:
        items = ()
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _set(doc, path, value):
    if not path:
        return value
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def mutate_spec(rng: random.Random, text: str) -> bytes:
    """The spec text under one to three random mutations, as bytes."""
    doc = json.loads(text)
    for _ in range(rng.randint(1, 3)):
        kind = rng.choices(("number", "replace", "delete", "add", "nest"),
                           weights=(4, 3, 1, 1, 1))[0]
        path, node = rng.choice(list(_nodes(doc)))
        if kind == "number":  # an integer moved somewhere near or far
            numbers = [(p, x) for p, x in _nodes(doc)
                       if isinstance(x, int) and not isinstance(x, bool)]
            if numbers:
                path, x = rng.choice(numbers)
                doc = _set(doc, path, rng.choice((-x, x + 1, x - 1, 2 * x, 0, x * 10 ** 30)))
        elif kind == "replace":
            doc = _set(doc, path, rng.choice(VALUES))
        elif kind == "delete" and isinstance(doc, dict) and doc:
            del doc[rng.choice(sorted(doc))]
        elif kind == "add" and isinstance(doc, dict):
            doc[rng.choice(("wat", "xi", "eta", "boundary_coeffs", "name"))] = rng.choice(VALUES)
        elif kind == "nest":
            depth = rng.choice((2, 50, 100_000))
            inner = json.dumps(node)
            nested = "[" * depth + inner + "]" * depth
            raw = json.dumps(_set(doc, path, "@@@")).replace('"@@@"', nested)
            return raw.encode("utf-8")
    raw = json.dumps(doc).encode("utf-8")
    if rng.random() < 0.1:  # cut short, then a stray or invalid byte
        cut = rng.randrange(len(raw) + 1)
        raw = raw[:cut] + rng.choice((b"\xff\xfe", b"\x00", b"}", b"", b"\xc3"))
    return raw


def mutate_flags(rng: random.Random) -> list:
    argv = []
    for flag in rng.sample(sorted(FLAG_VALUES), rng.randint(0, 3)):
        argv += [flag, *rng.choice(FLAG_VALUES[flag])]
    return argv


def expected_exit(error) -> int:
    if error is None:
        return 0
    if error["type"] == "UsageError":
        return 1
    kind = getattr(errors, error["type"])
    assert isinstance(kind, type) and issubclass(kind, errors.ReebconeError), error
    return _exit_code(kind(error["message"]))


def test_fuzz_main(tmp_path, capsys):
    rng = random.Random(SEED)
    specs = sorted(SPEC_DIR.glob("*.json"))
    outcomes = {"report": 0, "argparse": 0}
    for case in range(CASES):
        spec = tmp_path / ("case%d.json" % case)
        source = rng.choice(specs).read_text(encoding="utf-8")
        mutated = mutate_spec(rng, source) if rng.random() < 0.75 else source.encode("utf-8")
        spec.write_bytes(mutated)
        command = rng.choice(COMMANDS)
        # oracle needs --m-max or --t; a later --m-max in the mutated flags wins
        argv = [command, "--spec", str(spec), *(["--m-max", "2"] if command == "oracle" else [])]
        argv += mutate_flags(rng)
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            out = capsys.readouterr().out
            assert exc.code == 1 and out == "", argv
            outcomes["argparse"] += 1
            continue
        finally:
            assert time.perf_counter() - start < CASE_BUDGET_S, argv
        out = capsys.readouterr().out
        report = json.loads(out, parse_constant=_no_constant)  # one document, or it raises
        assert code == expected_exit(report["error"]), (argv, report["error"])
        outcomes["report"] += 1
    # both outcomes are exercised
    assert min(outcomes.values()) > CASES // 10, outcomes

