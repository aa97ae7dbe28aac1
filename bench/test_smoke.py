"""Smoke test of the benchmark: every metric of BENCHMARK.json comes out with its unit.

Also checks the host-speed correction on made-up samples.

Run from the root of the repository::

    python -m pytest -q bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import speed  # noqa: E402
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    proc = run_bench(ROOT, "--smoke", "--workload", workload, "--seed", "7",
                     "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "oracles", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_speed_scale_follows_the_nearest_samples():
    probe = speed.SpeedProbe()
    for t in range(10):
        slow = 2 if t >= 5 else 1  # the host runs at half speed from t = 5 on
        probe.times.append(float(t))
        probe.int_s.append(slow * speed.NOMINAL_INT_S)
        probe.fraction_s.append(slow * speed.NOMINAL_FRACTION_S)
    assert probe.scale(0.0, 0.5) == pytest.approx(1.0)
    assert probe.scale(9.0, 9.0) == pytest.approx(0.5)
    assert probe.host_factor() == pytest.approx(1.5)
