"""The four benchmark workloads: seeded inputs, one op each, and its checks.

Every workload is a closed loop with one client: the next op starts when the
previous one has finished.  Ops are grouped in rounds.  The inputs of round
``r`` are a fixed schedule, the same for every seed, so that runs with
different seeds do the same work and can be compared; the seed fixes the
order of the ops inside each round.  ``round_seconds`` is how long one round
took on a 2-core Intel Xeon when the benchmark was written; the runner turns
``--seconds`` into a whole number of rounds with it, so that a run's work
does not depend on how fast the program is.  Every library op gets a cone the
process has not seen before (a fresh GL(n, Z) scramble; the oracles, which
run on the bundled cones, empty the caches before each op instead), so the
library's ``lru_cache``s never serve an earlier op, just as a user analysing
a new cone pays the full price.

Each workload has the same five methods:

``prepare(call)``
    build the base inputs and the reference results (the set-up);
``round(r)``
    the op inputs of round ``r``;
``execute(op, call, state)``
    the timed op; it fills ``state`` as it goes, so that a failed op still
    leaves what it computed before the failure;
``check(op, state)``
    the correctness problems of a finished op, empty when it is right;
``counts(op, state)``
    the op's work as counts, for the traced run only.

``call(name, fn, *args)`` runs one call into the library, inside a span when
the run is traced.
"""

from __future__ import annotations

import importlib
import itertools
import json
import math
import os
import pkgutil
import random
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import reebcone
from reebcone import (
    MaxIterations,
    ReebconeWarning,
    decompose_dual,
    delta,
    dual_cone,
    futaki_product,
    grid_search_oracle,
    index_character,
    lattice_points,
    minimize_volume,
    polytope_Q,
    s_m_oracle,
    s_value,
    truncated_character_oracle,
    weight_character,
)
from reebcone import cli


# ---------------------------------------------------------------------------
# helpers shared by the generators
# ---------------------------------------------------------------------------

def mat_vec(mat, v) -> tuple:
    return tuple(sum(a * b for a, b in zip(row, v)) for row in mat)


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def unimodular(rng: random.Random, n: int):
    """Random element of GL(n, Z) as a product of 3n shears and signed swaps.

    The same recipe as ``unimodular_matrix`` in ``tests/conftest.py``.
    """
    mat = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        if rng.random() < 0.8:
            c = rng.choice([-2, -1, 1, 2])
            for k in range(n):
                mat[i][k] += c * mat[j][k]
        else:
            mat[i], mat[j] = [-x for x in mat[j]], mat[i]
    return [tuple(row) for row in mat]


def scramble_rng(workload: str, r: int, i: int) -> random.Random:
    """The fixed source of the scramble of input ``i`` in round ``r``."""
    return random.Random("%s:%d:%d" % (workload, r, i))


def interior_xi(rays, rng: random.Random) -> tuple:
    """Random rational point of int(sigma), as ``random_interior_xi`` in the tests."""
    weights = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in rays]
    return tuple(sum(w * v[a] for w, v in zip(weights, rays)) for a in range(len(rays[0])))


def _cached_functions() -> tuple:
    found = []
    for info in pkgutil.iter_modules(reebcone.__path__):
        module = importlib.import_module("reebcone." + info.name)
        found += [v for v in vars(module).values() if callable(getattr(v, "cache_clear", None))]
    return tuple(found)


CACHED_FUNCTIONS = _cached_functions()


def clear_caches() -> None:
    """Empty every ``functools`` cache in the reebcone package."""
    for fn in CACHED_FUNCTIONS:
        fn.cache_clear()


def decompose_hits() -> int:
    info = getattr(decompose_dual, "cache_info", None)
    return info().hits if info else 0


def box_counts(cone) -> dict:
    pieces = decompose_dual(cone)
    return {
        "characters.pieces": len(pieces),
        "characters.box_points": sum(len(p.box_points) for p in pieces),
    }


def polygon(k: int, radius: int) -> list[tuple[int, int]]:
    """Lattice polygon: convex hull of a regular k-gon's rounded vertices."""
    pts = sorted({
        (round(radius * math.cos(2 * math.pi * j / k)),
         round(radius * math.sin(2 * math.pi * j / k)))
        for j in range(k)
    })

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def chain(points):
        out = []
        for p in points:
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    return chain(pts) + chain(pts[::-1])


def height_one_suite(seed: int, count: int, dims) -> list[tuple[tuple, tuple]]:
    """The cones of ``random_cone_suite`` in the tests, before their scramble.

    Cones over random lattice polytopes at height one, each with a random
    interior rational xi.  The random stream is consumed exactly as the tests
    consume it, so these are the suite's cones; the suite's own GL(n, Z)
    scramble is drawn but not applied, because every op applies a fresh one.
    """
    rng = random.Random(seed)
    out = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ReebconeWarning)
        for _ in range(count):
            dim = rng.choice(list(dims))
            k = dim - 1
            points = {(0,) * k}
            for i in range(k):
                points.add(tuple(3 if i == j else 0 for j in range(k)))
            while len(points) < k + 1 + rng.randrange(3):
                points.add(tuple(rng.randrange(0, 4) for _ in range(k)))
            rays = dual_cone([(1,) + w for w in sorted(points)], dim).rays
            unimodular(rng, dim)
            out.append((rays, interior_xi(rays, rng)))
    return out


# ---------------------------------------------------------------------------
# kgon-characters
# ---------------------------------------------------------------------------

# (k, radius) pairs with k 6-16 and radius 3-10.  Pairs whose box-point count
# can pass ~4000 under some scramble (6-gon at 10, 8-gon at 7 and 10, 10-gon
# at 10) are left out so that no single op dominates a round.
KGON_SHAPES = (
    (6, 3), (6, 4), (6, 5), (6, 7), (8, 3), (8, 5), (10, 3), (10, 4), (10, 5), (10, 7),
    (12, 3), (12, 4), (12, 5), (12, 7), (12, 10), (14, 3), (14, 4), (14, 5), (14, 7),
    (14, 10), (16, 3), (16, 4), (16, 5), (16, 7), (16, 10),
)
KGON_XI = (Fraction(3), Fraction(1, 7), Fraction(-1, 5))
KGON_ETA = (0, 1, 0)


class KgonCharacters:
    """Cones over k-gons: box points, characters at order 3, delta and Futaki."""

    name = "kgon-characters"
    round_seconds = 6.1

    def prepare(self, call):
        self.polygons = [polygon(k, radius) for k, radius in KGON_SHAPES]

    def round(self, r):
        ops = []
        for i, poly in enumerate(self.polygons):
            mat = unimodular(scramble_rng(self.name, r, i), 3)
            ops.append({
                "rays": [mat_vec(mat, (1,) + p) for p in poly],
                "xi": mat_vec(mat, KGON_XI),
                "eta": mat_vec(mat, KGON_ETA),
            })
        return ops

    def execute(self, op, call, state):
        xi, eta = op["xi"], op["eta"]
        cone = state["cone"] = call("geometry.dual_cone", dual_cone, op["rays"], 3)
        pieces = state["pieces"] = call("characters.decompose_dual", decompose_dual, cone)
        state["F"] = call("characters.index_character", index_character, pieces, xi, order=3)
        state["C"] = call("characters.weight_character", weight_character, pieces, xi, eta, order=3)
        state["Q"] = call("geometry.polytope_Q", polytope_Q, cone, xi)
        state["delta"] = call("stability.delta", delta, cone, xi)
        state["futaki"] = call("stability.futaki_product", futaki_product, cone, xi, eta)

    def check(self, op, state):
        F, C = state["F"], state["C"]
        problems = []
        if F.a0 != 3 * state["Q"].volume_Q:
            problems.append("a0 != n vol(Q_xi)")
        if not state["delta"].delta <= 1:
            problems.append("delta > 1")
        if state["futaki"] != -2 * (F.a0 * C.b1 - F.a1 * C.b0) / (F.a0 * F.a0):
            problems.append("futaki_product != -2(a0 b1 - a1 b0)/a0^2")
        return problems

    def counts(self, op, state):
        out = {}
        if "cone" in state:
            out["geometry.rays"] = len(state["cone"].rays)
            out["geometry.dual_rays"] = len(state["cone"].dual_rays)
            out.update(box_counts(state["cone"]))
        return out


# ---------------------------------------------------------------------------
# highdim-newton
# ---------------------------------------------------------------------------

RESIDUAL_LIMIT = 1e-9
NEWTON_MAX_ITER = 100  # minimize_volume's default cap; an op that hits it did this many


class HighdimNewton:
    """Cubes of dim 4-6 and random height-one cones of dim 3-5: geometry and Newton.

    The random cones are ``random_cone_suite(seed=11, count=60, dims=(3, 4, 5))``
    of the tests.  ``minimize_volume`` raises ``MaxIterations`` on some of
    them (6 of the 60 as drawn, and a similar share under each scramble), and
    a bare ``assert`` in the floating-point path of ``polytope_Q`` fails on a
    few; those ops count as failed, so a fix shows as a rise in ``ok_frac``.
    """

    name = "highdim-newton"
    round_seconds = 6.1

    def prepare(self, call):
        base = height_one_suite(11, 60, (3, 4, 5))
        for n in (4, 5, 6):
            rays = tuple((1,) + e for e in itertools.product((0, 1), repeat=n - 1))
            weights = [1 + i % 3 for i in range(len(rays))]
            xi = tuple(Fraction(sum(w * v[a] for w, v in zip(weights, rays)), len(rays))
                       for a in range(n))
            base.append((rays, xi))
        self.base = base

    def round(self, r):
        ops = []
        for i, (rays, xi) in enumerate(self.base):
            n = len(xi)
            mat = unimodular(scramble_rng(self.name, r, i), n)
            ops.append({
                "rays": [mat_vec(mat, v) for v in rays],
                "xi": mat_vec(mat, xi),
                "eta": mat_vec(mat, (0, 1) + (0,) * (n - 2)),
            })
        return ops

    def execute(self, op, call, state):
        xi, n = op["xi"], len(op["xi"])
        cone = state["cone"] = call("geometry.dual_cone", dual_cone, op["rays"], n)
        state["Q"] = call("geometry.polytope_Q", polytope_Q, cone, xi)
        state["delta"] = call("stability.delta", delta, cone, xi)
        state["futaki"] = call("stability.futaki_product", futaki_product, cone, xi, op["eta"])
        try:
            res = state["min"] = call("optimize.minimize_volume", minimize_volume, cone)
        except MaxIterations:
            state["max_iterations"] = True
            raise
        state["delta_star"] = call("stability.delta_mp", delta, cone, res.xi_star.xi)

    def check(self, op, state):
        n = len(op["xi"])
        Q, d = state["Q"], state["delta"]
        problems = []
        if any(p != Fraction(n + 1, n) * q for p, q in zip(Q.bary_P, Q.bary_Q)):
            problems.append("bary_P != (n+1)/n bary_Q")
        if dot([x / d.scale for x in op["xi"]], d.bary_P) != 1:
            problems.append("<xi_hat, bary_P> != 1")
        if not d.delta <= 1:
            problems.append("delta > 1")
        if not state["min"].kss_residual <= RESIDUAL_LIMIT:
            problems.append("kss_residual %.3g > %g" % (state["min"].kss_residual, RESIDUAL_LIMIT))
        if not abs(state["delta_star"].delta - 1) <= RESIDUAL_LIMIT:
            problems.append("|delta(xi*) - 1| > %g" % RESIDUAL_LIMIT)
        return problems

    def counts(self, op, state):
        out = {}
        if "cone" in state:
            out["geometry.rays"] = len(state["cone"].rays)
            out["geometry.dual_rays"] = len(state["cone"].dual_rays)
        if "futaki" in state:
            out.update(box_counts(state["cone"]))
        if "min" in state:
            out["optimize.newton_iters"] = state["min"].iterations
        if state.get("max_iterations"):
            out["optimize.newton_iters"] = NEWTON_MAX_ITER
            out["optimize.max_iterations"] = 1
        return out


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

ORACLE_T = 0.2
ORACLE_CUTOFF = math.ceil(14 / ORACLE_T)
SERIES_TOL = 1e-3
SM_LEVELS = range(1, 11)
GRID_RESOLUTION = 12


def load_specs(root: Path) -> dict:
    """The bundled cone specs, by name, with exact rational xi and eta."""
    specs = {}
    for path in sorted((root / "src" / "reebcone" / "specs").glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        specs[doc["name"]] = {
            "path": path,
            "dim": doc["dim"],
            "rays": [tuple(v) for v in doc["rays"]],
            "xi": tuple(Fraction(str(x)) for x in doc["xi"]),
            "eta": tuple(Fraction(str(x)) for x in doc["eta"]) if "eta" in doc else None,
        }
    return specs


def oracle_cells(cone, xi, cutoff) -> int:
    """Cells of the bounding box that ``truncated_character_oracle`` scans."""
    verts = [tuple(x * cutoff / dot(xi, u) for x in u) for u in cone.dual_rays]
    verts.append((0,) * cone.dim)
    cells = 1
    for axis in zip(*verts):
        cells *= math.ceil(max(axis)) - math.floor(min(axis)) + 1
    return cells


class Oracles:
    """Brute-force oracles on the bundled specs at each spec's xi.

    One op is one oracle call: the index oracle at t = 0.2 with cutoff
    ceil(14/t), the eta-weighted oracle where the spec has eta,
    ``s_m_oracle`` for each ray and m = 1..10, and ``grid_search_oracle`` at
    resolution 12.  The weighted oracle raises ``CutoffTooSmall`` on conifold (its
    eta-weighted sum is identically 0) and on y21 (the default cutoff ignores
    the extra power of s in the weighted tail); both count as failed ops.
    """

    name = "oracles"
    round_seconds = 5.0
    # The cones repeat from round to round, so the caches are emptied before
    # each op: every op pays the full price, as on a cone never seen before.
    fresh_caches = True

    def __init__(self, root: Path):
        self.root = root

    def prepare(self, call):
        self.cones = {}
        self.refs = {}
        for name, spec in load_specs(self.root).items():
            cone = dual_cone(spec["rays"], spec["dim"])
            xi, eta = spec["xi"], spec["eta"]
            pieces = decompose_dual(cone)
            t = Fraction(ORACLE_T).limit_denominator()
            ref = {
                "xi": xi,
                "eta": eta,
                "index": float(index_character(pieces, xi, order=4).evaluate(t)),
                "s": [s_value(cone, xi, v) for v in cone.rays],
                "vol_star": minimize_volume(cone).vol_star,
            }
            if eta is not None:
                ref["weight"] = float(weight_character(pieces, xi, eta, order=4).evaluate(t))
            self.cones[name] = cone
            self.refs[name] = ref

    def round(self, r):
        ops = []
        for name, cone in self.cones.items():
            ops.append({"kind": "index", "spec": name})
            if self.refs[name]["eta"] is not None:
                ops.append({"kind": "weight", "spec": name})
            for k in range(len(cone.rays)):
                for m in SM_LEVELS:
                    ops.append({"kind": "s_m", "spec": name, "ray": k, "m": m})
            ops.append({"kind": "grid", "spec": name})
        return ops

    def execute(self, op, call, state):
        cone, ref = self.cones[op["spec"]], self.refs[op["spec"]]
        kind = op["kind"]
        if kind in ("index", "weight"):
            eta = ref["eta"] if kind == "weight" else None
            state["value"] = call("characters.truncated_character_oracle",
                                  truncated_character_oracle,
                                  cone, ref["xi"], eta, ORACLE_T, ORACLE_CUTOFF)
        elif kind == "s_m":
            state["s_m"] = call("stability.s_m_oracle", s_m_oracle,
                                cone, ref["xi"], cone.rays[op["ray"]], op["m"])
        else:
            state["grid"] = call("optimize.grid_search_oracle", grid_search_oracle,
                                 cone, GRID_RESOLUTION)

    def check(self, op, state):
        cone, ref = self.cones[op["spec"]], self.refs[op["spec"]]
        kind = op["kind"]
        if kind in ("index", "weight"):
            want = ref[kind]
            if not abs(state["value"] - want) <= SERIES_TOL * abs(want):
                return ["%s oracle %r vs order-4 series %r" % (kind, state["value"], want)]
        elif kind == "s_m":
            if abs(state["s_m"] - ref["s"][op["ray"]]) > Fraction(1, op["m"]):
                return ["|S_m - S| > 1/m at m = %d" % op["m"]]
        else:
            grid = state["grid"]
            d = len(cone.rays)
            if grid.samples != math.comb(GRID_RESOLUTION + d - 1, d - 1):
                return ["grid sample count"]
            if not grid.value >= ref["vol_star"] * (1 - RESIDUAL_LIMIT):
                return ["grid minimum below the Newton minimum"]
        return []

    def counts(self, op, state):
        cone, xi = self.cones[op["spec"]], self.refs[op["spec"]]["xi"]
        if op["kind"] in ("index", "weight"):
            return {
                "characters.oracle_cells": oracle_cells(cone, xi, ORACLE_CUTOFF),
                "characters.oracle_kept": len(lattice_points(cone, xi, ORACLE_CUTOFF)),
            }
        if op["kind"] == "s_m":
            return {"geometry.lattice_points.count": len(lattice_points(cone, xi, op["m"]))}
        return {}


# ---------------------------------------------------------------------------
# cli-specs
# ---------------------------------------------------------------------------

# A cone that is not Q-Gorenstein: ``check`` must exit 3 with NotQGorenstein.
ERROR_SPEC = '{"dim":3,"rays":[[2,0,0],[1,1,0],[1,1,1],[2,0,1]]}'
ERROR_EXIT = 3

# (subcommand, its extra arguments, the flags ``cli.main`` passes to ``cli.run`` for them)
CLI_CALLS = (
    ("check", [], {}),
    ("delta", [], {}),
    ("futaki", [], {}),
    ("character", ["--order", "3"], {"order": 3}),
    ("minimize", ["--probe-rational", "100"], {"probe_rational": 100}),
    ("oracle", ["--m-max", "5"], {"m_max": 5}),
)


def child_env(root: Path) -> dict:
    """Environment of a child Python: the checkout's ``src`` first, one thread."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_cli(argv, cwd, env):
    """One cold ``python -m reebcone.cli`` process; returns (exit code, stdout bytes)."""
    proc = subprocess.run([sys.executable, "-m", "reebcone.cli"] + argv,
                          cwd=cwd, env=env, capture_output=True, timeout=120)
    return proc.returncode, proc.stdout


class CliSpecs:
    """Cold CLI processes: 5 bundled specs x 6 subcommands, plus one error spec."""

    name = "cli-specs"
    round_seconds = 9.0
    rss_of_children = True

    def __init__(self, root: Path, tmp: Path):
        self.root = root
        self.tmp = tmp
        self.env = child_env(root)

    def prepare(self, call):
        error_path = self.tmp / "not_q_gorenstein.json"
        error_path.write_text(ERROR_SPEC, encoding="utf-8")
        calls = []
        for name, spec in load_specs(self.root).items():
            text = spec["path"].read_text(encoding="utf-8")
            for command, extra, flags in CLI_CALLS:
                if command == "futaki" and spec["eta"] is None:
                    eta = (0, 1) + (0,) * (spec["dim"] - 2)
                    extra = ["--eta"] + [str(x) for x in eta]
                    flags = {"eta": tuple(Fraction(x) for x in eta)}
                report = call("cli.run", cli.run, command, text, flags)
                calls.append({
                    "argv": [command, "--spec", str(spec["path"])] + extra,
                    "code": 0,
                    "stdout": report.to_json().encode("utf-8"),
                })
        calls.append({"argv": ["check", "--spec", str(error_path)], "code": ERROR_EXIT,
                      "stdout": None})
        self.calls = calls

    def round(self, r):
        return list(self.calls)

    def execute(self, op, call, state):
        state["code"], state["stdout"] = call("cli.main", run_cli, op["argv"], self.root, self.env)

    def check(self, op, state):
        if state["code"] != op["code"]:
            return ["exit code %d, expected %d" % (state["code"], op["code"])]
        if op["stdout"] is not None:
            if state["stdout"] != op["stdout"]:
                return ["stdout differs from the in-process cli.run report"]
            return []
        error = json.loads(state["stdout"]).get("error") or {}
        if error.get("type") != "NotQGorenstein":
            return ["error.type %r, expected NotQGorenstein" % error.get("type")]
        return []

    def counts(self, op, state):
        return {
            "cli.report_bytes": len(state.get("stdout") or b""),
            "cli.fails": int(state.get("code") != op["code"]),
        }
