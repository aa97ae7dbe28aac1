"""reebcone benchmark: one workload per run, end-to-end or traced.

Usage, from the root of a checkout::

    python3 bench/run.py --workload kgon-characters --seed 1 --seconds 22 --trace 0

With ``--trace 0`` it measures the end-to-end metrics of ``BENCHMARK.json``.
With ``--trace 1`` it runs the same rounds untraced and then traced, and
reports the per-layer metrics and the tracing overhead; it then replays the
first round and checks that every count repeats exactly.  ``--smoke`` runs a
few ops of one round, to check that every metric is emitted.

The run is one process on one thread, a closed loop with one client.  It
builds nothing: the library is imported from the checkout's ``src``.  Human
readable lines come first; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

The end-to-end times are corrected for the host's speed (see ``speed.py``):
two reference loops are timed between ops and each time is scaled to the
speed at which those loops take their nominal times.  The human readable
lines also give the raw wall-clock figures and the host factor they were
corrected by.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from speed import SpeedProbe
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("cli-specs", "kgon-characters", "highdim-newton", "oracles")
MIN_OPS = 100       # so that at least 10 latencies lie above the 90th percentile
SETUP_REPEATS = 3
SMOKE_OPS = 3
SETUP_SAMPLES = 3   # speed samples taken before and after each part of a set-up
DEADLINE_S = 150    # no op starts later than this after start-up, so runs end within 180 s

LAYERS = ("cli", "geometry", "characters", "stability", "optimize")

# spans whose busy time per op is a per-layer metric "<span>.ms" (median over ops)
TIMED_SPANS = (
    "geometry.dual_cone", "geometry.polytope_Q",
    "characters.decompose_dual", "characters.index_character", "characters.weight_character",
    "characters.truncated_character_oracle",
    "stability.delta", "stability.delta_mp", "stability.futaki_product", "stability.s_m_oracle",
    "optimize.minimize_volume", "optimize.grid_search_oracle",
)

# per-layer counts: totals over the ops of the first round
COUNT_METRICS = (
    "cli.report_bytes", "cli.fails",
    "geometry.rays", "geometry.dual_rays", "geometry.lattice_points.count", "geometry.fails",
    "characters.pieces", "characters.box_points", "characters.decompose_dual.cache_hits",
    "characters.oracle_cells", "characters.fails",
    "stability.fails",
    "optimize.newton_iters", "optimize.max_iterations", "optimize.fails",
)


class SetupError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Outcome:
    round: int
    start: float
    latency: float      # wall-clock seconds
    error: str | None
    problems: list
    counts: dict = field(default_factory=dict)
    cost: float = 0.0   # seconds at the nominal host speed


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def load_library():
    """Import reebcone from this checkout's ``src`` and return the workloads module."""
    if not (SRC / "reebcone" / "__init__.py").is_file():
        raise SetupError("no reebcone sources at %s" % SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import reebcone
    if Path(reebcone.__file__).resolve().parent != SRC / "reebcone":
        raise SetupError("reebcone was imported from %s, not from %s" % (reebcone.__file__, SRC))
    import workloads
    return workloads


def child_seconds(code: str, env: dict) -> float:
    """Wall time of ``python -c code``, or the float the child prints, if any."""
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    wall = perf_counter() - start
    if proc.returncode != 0:
        raise SetupError("child python failed: %s" % proc.stderr.strip()[-500:])
    return float(proc.stdout) if proc.stdout.strip() else wall


IMPORT_CODE = ("import time; t = time.perf_counter(); import reebcone; "
               "print(time.perf_counter() - t)")


def stamp() -> dict:
    import mpmath
    import numpy
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    commit = "unknown"
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "reebcone").rglob("*")):
        if path.suffix in (".py", ".json"):
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------

class Runner:
    def __init__(self, wl, lib, seed: int, smoke: bool):
        self.deadline = perf_counter() + DEADLINE_S
        self.wl = wl
        self.lib = lib
        self.seed = seed
        self.smoke = smoke
        self.seen_errors = set()
        self.problems = []
        self.speed = SpeedProbe()

    def ops_of_round(self, r: int) -> list:
        ops = self.wl.round(r)
        random.Random("%d:%d" % (self.seed, r)).shuffle(ops)
        return ops[:SMOKE_OPS] if self.smoke else ops

    def run_op(self, op, r: int, tracer, want_counts: bool) -> Outcome:
        self.speed.sample_if_due()
        if getattr(self.wl, "fresh_caches", False):
            self.lib.clear_caches()
        state = {}
        tracer.op = first_span = len(tracer.spans)
        hits = self.lib.decompose_hits()
        error = None
        start = perf_counter()
        try:
            if tracer.enabled:
                with tracer.span("bench.op"):
                    self.wl.execute(op, tracer.call, state)
            else:
                self.wl.execute(op, tracer.call, state)
        except Exception as exc:  # a failed op is counted, and the loop goes on
            error = type(exc).__name__
            if error not in self.seen_errors:
                self.seen_errors.add(error)
                traceback.print_exc(file=sys.stderr)
        latency = perf_counter() - start
        hits = self.lib.decompose_hits() - hits
        problems = []
        if error is None:
            try:
                problems = self.wl.check(op, state)
            except Exception as exc:  # a check that cannot run is a failed check
                problems = ["check raised %s: %s" % (type(exc).__name__, exc)]
        if problems:
            self.problems.append(problems)
        counts = {}
        if want_counts:
            counts = self.wl.counts(op, state)
            counts["characters.decompose_dual.cache_hits"] = hits
            counts["error"] = error
            for s in tracer.spans[first_span:]:
                if s["error"] and s["name"] != "bench.op":
                    layer = s["name"].split(".")[0]
                    counts[layer + ".fails"] = counts.get(layer + ".fails", 0) + 1
        return Outcome(r, start, latency, error, problems, counts)

    def rounds_for(self, seconds: float, min_ops: int) -> int:
        """Whole rounds that take ``seconds`` at the workload's nominal speed, and
        at least enough for ``min_ops`` ops."""
        if self.smoke:
            return 1
        per_round = len(self.ops_of_round(0))
        return max(round(seconds / self.wl.round_seconds), 1, -(-min_ops // per_round))

    def run_rounds(self, tracer, rounds: int):
        """Run rounds ``0 .. rounds-1``; no op starts after the run's deadline.

        Returns the outcomes, each with its cost at the nominal host speed,
        the loop's wall time and the peak RSS after the first round.
        """
        outcomes = []
        rss = None
        start = perf_counter()
        for r in range(rounds):
            for op in self.ops_of_round(r):
                if perf_counter() > self.deadline:
                    break
                outcomes.append(self.run_op(op, r, tracer, want_counts=tracer.enabled and r == 0))
            if r == 0:
                rss = peak_rss_mb(getattr(self.wl, "rss_of_children", False))
        loop_s = perf_counter() - start
        self.speed.sample()
        for o in outcomes:
            o.cost = o.latency * self.speed.scale(o.start, o.start + o.latency)
        return outcomes, loop_s, rss


def cost_ms(outcomes):
    return [o.cost * 1e3 for o in outcomes]


def p90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) >= 2 else values[0]


def make_workload(name: str, lib, tmp: Path):
    if name == "cli-specs":
        return lib.CliSpecs(ROOT, tmp)
    if name == "kgon-characters":
        return lib.KgonCharacters()
    if name == "highdim-newton":
        return lib.HighdimNewton()
    return lib.Oracles(ROOT)


def set_up(wl, lib, tracer, repeats: int):
    """Import (in a child), generate inputs and build references ``repeats`` times.

    Returns the median set-up seconds at the nominal host speed, and the
    median wall-clock import and bare interpreter seconds of the children.
    """
    env = lib.child_env(ROOT)
    probe = SpeedProbe()
    totals, imports, interps = [], [], []
    tracer.op = "setup"
    for _ in range(repeats):
        probe.sample(SETUP_SAMPLES)
        start = perf_counter()
        imports.append(child_seconds(IMPORT_CODE, env))
        interps.append(child_seconds("pass", env))
        probe.sample(SETUP_SAMPLES)
        import_cost = imports[-1] * probe.scale(start, perf_counter())
        lib.clear_caches()
        start = perf_counter()
        wl.prepare(tracer.call)
        end = perf_counter()
        probe.sample(SETUP_SAMPLES)
        totals.append(import_cost + (end - start) * probe.scale(start, end))
    return statistics.median(totals), statistics.median(imports), statistics.median(interps)


def end_to_end(runner, seconds, setup_s):
    rounds = runner.rounds_for(seconds, MIN_OPS)
    outcomes, loop_s, rss = runner.run_rounds(Tracer(False), rounds)
    lat = cost_ms(outcomes)
    failed = sum(1 for o in outcomes if o.error or o.problems)
    raw = [o.latency * 1e3 for o in outcomes]
    print("raw wall clock: op_p50_ms %.6g op_p90_ms %.6g ops_per_s %.6g (loop %.3f s); "
          "host factor %.3f" % (statistics.median(raw), p90(raw), len(outcomes) / loop_s,
                                loop_s, runner.speed.host_factor()))
    metrics = {
        "op_p50_ms": (statistics.median(lat), "ms"),
        "op_p90_ms": (p90(lat), "ms"),
        "ops_per_s": (len(outcomes) / sum(o.cost for o in outcomes), "1/s"),
        "ok_frac": (1 - failed / len(outcomes), "ratio"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (setup_s, "s"),
    }
    return outcomes, metrics, rounds


def round_counts(outcomes):
    return [o.counts for o in outcomes if o.round == 0]


def traced(runner, tracer, seconds, setup_info, lib):
    """Untraced rounds, the same rounds traced, then a replay of round 0.

    The replay must give the same counts, op for op, as the traced round 0.
    """
    _, import_s, interp_s = setup_info
    rounds = runner.rounds_for(seconds / 2, MIN_OPS // 2)
    untraced, _, _ = runner.run_rounds(Tracer(False), rounds)
    lib.clear_caches()
    outcomes, _, _ = runner.run_rounds(tracer, rounds)
    lib.clear_caches()
    replay, _, _ = runner.run_rounds(Tracer(True), 1)
    first, again = round_counts(outcomes), round_counts(replay)
    n = min(len(first), len(again))
    if not n or first[:n] != again[:n]:
        runner.problems.append(["counts of round 0 differ on replay"])

    op_spans = {}
    self_s = tracer.self_times()
    layer_self = Counter()
    for s in tracer.spans:
        if s["op"] == "setup":
            continue
        op_spans.setdefault(s["op"], []).append(s)
        layer = s["name"].split(".")[0]
        layer_self[layer] += self_s[s["id"]]
    n_ops = max(len(op_spans), 1)

    metrics = {
        "cli.import_ms": (import_s * 1e3, "ms"),
        "cli.interp_ms": (interp_s * 1e3, "ms"),
    }
    run_spans = [s["end"] - s["start"] for s in tracer.spans
                 if s["op"] == "setup" and s["name"] == "cli.run"]
    metrics["cli.run_ms"] = (statistics.median(run_spans) * 1e3 if run_spans else 0.0, "ms")
    for name in TIMED_SPANS:
        per_op = [sum(s["end"] - s["start"] for s in spans if s["name"] == name)
                  for spans in op_spans.values() if any(s["name"] == name for s in spans)]
        metrics[name + ".ms"] = (statistics.median(per_op) * 1e3 if per_op else 0.0, "ms")
    totals = Counter()
    for counts in round_counts(outcomes):
        totals.update({k: v for k, v in counts.items() if k != "error" and v})
    for metric in COUNT_METRICS:
        metrics[metric] = (totals[metric], "count")
    cells = totals["characters.oracle_cells"]
    metrics["characters.oracle_useful_ratio"] = (
        totals["characters.oracle_kept"] / cells if cells else 0.0, "ratio")
    for layer in LAYERS + ("bench",):
        metrics[layer + ".self_ms"] = (layer_self[layer] * 1e3 / n_ops, "ms")
    metrics["trace.overhead_ms"] = (
        statistics.median(cost_ms(outcomes)) - statistics.median(cost_ms(untraced)), "ms")
    return outcomes, metrics, rounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few ops of one round, to check the output")
    args = parser.parse_args(argv)
    try:
        lib = load_library()
    except SetupError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    info_stamp = stamp()
    tracer = Tracer(bool(args.trace))
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        wl = make_workload(args.workload, lib, Path(tmp))
        runner = Runner(wl, lib, args.seed, args.smoke)
        try:
            setup_info = set_up(wl, lib, tracer, 1 if args.smoke else SETUP_REPEATS)
        except SetupError as exc:
            print("bench: %s" % exc, file=sys.stderr)
            return 2
        if args.trace:
            outcomes, metrics, rounds = traced(runner, tracer, args.seconds, setup_info, lib)
            tracer.write(OUT / ("trace-%s-seed%d.jsonl" % (args.workload, args.seed)), info_stamp)
        else:
            outcomes, metrics, rounds = end_to_end(runner, args.seconds, setup_info[0])

    if not outcomes:
        print("bench: no op started before the deadline", file=sys.stderr)
        return 1
    failed = sum(1 for o in outcomes if o.error or o.problems)
    for problems in runner.problems[:5]:
        print("bench: failed check: %s" % "; ".join(problems), file=sys.stderr)
    print("stamp %s" % json.dumps(info_stamp, sort_keys=True))
    print("workload %s seed %d trace %d ops %d rounds %d fail_frac %.6g errors %s" % (
        args.workload, args.seed, args.trace, len(outcomes), rounds, failed / len(outcomes),
        dict(Counter(o.error for o in outcomes if o.error)) or "none"))
    for name, (value, unit) in metrics.items():
        print("%-44s %14.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": not runner.problems,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
