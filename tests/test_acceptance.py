"""Acceptance gate: ten verifiable criteria, one visible PASS/FAIL line each.

Every criterion is exercised at its stated tolerance; most of them are
exact rational identities.  Each test emits exactly one line of the form

    [PASS] criterion NN: <label>

(or [FAIL]) on the live terminal, bypassing pytest capture, so the gate
status is readable straight off the run log.
"""

import contextlib
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import reebcone.linalg as linalg
from reebcone import (
    decompose_dual,
    delta,
    futaki_product,
    gorenstein_vector,
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
from reebcone.lattice import _oracle_table
from conftest import (
    FIXTURE_MAKERS,
    apply_unimodular,
    mat_vec,
    random_cone_suite,
    random_interior_xi,
    reverse_bary_P,
    unimodular_matrix,
)

SPEC_DIR = Path(__file__).resolve().parents[1] / "src" / "reebcone" / "specs"

FIXTURE_XI = {
    "orthant2": (1, 1),
    "orthant3": (1, 1, 1),
    "a1": (1, 1),
    "conifold": (1, Fraction(1, 2), Fraction(1, 2)),
    "y21": (1, Fraction(1, 3), Fraction(2, 3)),
}


@pytest.fixture(scope="module")
def suite():
    """100 randomized cones in dims 2-3 with rational interior xi."""
    return random_cone_suite(seed=2026, count=100)


@pytest.fixture(scope="module")
def fixtures():
    return {name: make() for name, make in FIXTURE_MAKERS.items()}


@contextlib.contextmanager
def criterion(capsys, num: int, label: str):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print("[FAIL] criterion %02d: %s" % (num, label))
        raise
    with capsys.disabled():
        print("[PASS] criterion %02d: %s" % (num, label))


def test_criterion_01_barycenter_relation(suite, capsys):
    with criterion(capsys, 1, "bary_P = (n+1)/n * bary_Q exactly, 100 random cones"):
        for cone, xi in suite:
            q = polytope_Q(cone, xi)
            assert q.bary_P == reverse_bary_P(cone, xi)
            assert linalg.dot(xi, q.bary_P) == 1
            assert all(linalg.dot(v, q.bary_P) > 0 for v in cone.rays)


def test_criterion_02_delta_ceiling(suite, fixtures, capsys):
    with criterion(capsys, 2, "delta <= 1 with equality iff bary_P = l, exact"):
        cases = list(suite) + [
            (fixtures[name], FIXTURE_XI[name])
            for name in ("orthant2", "orthant3", "conifold")
        ]
        seen_equal = seen_strict = 0
        for cone, xi in cases:
            rep = delta(cone, xi)
            assert rep.delta <= 1
            at_ceiling = rep.delta == 1
            assert at_ceiling == (tuple(rep.bary_P) == tuple(rep.gorenstein.l))
            seen_equal += at_ceiling
            seen_strict += not at_ceiling
        assert seen_equal >= 3 and seen_strict >= 50  # both branches exercised


def test_criterion_03_worked_cases(fixtures, capsys):
    with criterion(capsys, 3, "worked orthant / A1 cases, exact rational equality"):
        rep = delta(fixtures["orthant2"], (1, 1))
        assert rep.delta == 1 and rep.kss
        rep = delta(fixtures["orthant3"], (1, 1, 1))
        assert rep.delta == 1 and rep.kss
        rep = delta(fixtures["a1"], (1, 1))
        assert rep.delta == 1
        assert rep.bary_P == (1, 0) == rep.gorenstein.l
        rep = delta(fixtures["a1"], (1, Fraction(1, 2)))
        assert rep.delta == Fraction(1, 2)
        assert not rep.kss


def _sm_table(cone, xi, m_max):
    """S_m for m = 1..m_max from one lattice enumeration at m_max.

    The points are sorted by level <d xi, u> (d xi integral); S_m reads the
    running count and the running ray pairings at the last level <= m d.
    """
    xi = tuple(Fraction(x) for x in xi)
    denom = math.lcm(*(x.denominator for x in xi))
    xi_int = np.array([int(x * denom) for x in xi], dtype=np.int64)
    pts = np.array(lattice_points(cone, xi, m_max), dtype=np.int64)
    levels = pts @ xi_int
    order = np.argsort(levels, kind="stable")
    dots = np.cumsum(pts[order] @ np.array(cone.rays, dtype=np.int64).T, axis=0)
    counts = np.searchsorted(levels[order], np.arange(1, m_max + 1) * denom, side="right")
    table = {v: [] for v in cone.rays}
    for m, count in enumerate(counts.tolist(), start=1):
        for v, dot in zip(cone.rays, dots[count - 1].tolist()):
            table[v].append(Fraction(dot, m * count))
    return table


def test_criterion_04_sm_envelope(fixtures, capsys):
    with criterion(capsys, 4, "|S_m - S| <= C/m for m = 1..50, exact at symmetric"):
        m_max = 50
        for name, cone in fixtures.items():
            xi = FIXTURE_XI[name]
            table = _sm_table(cone, xi, m_max)
            # the CLI's table, from one pure-Python scan at m_max, is the same
            assert {tuple(row["v"]): row["s_m"] for row in _oracle_table(cone, xi, m_max)} == table
            # the fast table is the oracle: spot-weld them together
            for m in (1, 5, 17):
                assert table[cone.rays[0]][m - 1] == s_m_oracle(
                    cone, xi, cone.rays[0], m
                )
            for v in cone.rays:
                s = s_value(cone, xi, v)
                gaps = [abs(sm - s) for sm in table[v]]
                envelope = max(m * g for m, g in enumerate(gaps, start=1))
                for m, g in enumerate(gaps, start=1):
                    assert g <= envelope / m  # no violation of the fit
                if name.startswith("orthant"):
                    assert envelope == 0  # symmetric: S_m = S exactly
                else:
                    assert max(gaps[25:]) <= max(gaps[:25])


def test_criterion_05_index_character(fixtures, capsys):
    with criterion(capsys, 5, "a0 = n vol(Q) exact; C^2 gives (1,1); oracle vs series at t=0.05 within 1%"):
        for name, cone in fixtures.items():
            xi = FIXTURE_XI[name]
            F = index_character(decompose_dual(cone), xi, order=2)
            assert F.a0 == cone.dim * polytope_Q(cone, xi).volume_Q
        F = index_character(decompose_dual(fixtures["orthant2"]), (1, 1), order=2)
        assert (F.a0, F.a1) == (1, 1)
        t = 0.05
        for name, cone in fixtures.items():
            xi = FIXTURE_XI[name]
            series = index_character(decompose_dual(cone), xi, order=2)
            predicted = float(series.evaluate(Fraction(1, 20)))
            cutoff = math.ceil(14.0 / t)
            observed = truncated_character_oracle(cone, xi, None, t, cutoff)
            assert abs(observed - predicted) <= 0.01 * abs(predicted)


def test_criterion_06_b0_identity(fixtures, capsys):
    with criterion(capsys, 6, "b0 = (1/n) D_{-eta} a0, central differences, rel 1e-6"):
        h = Fraction(1, 10**6)
        for name, cone in fixtures.items():
            pieces = decompose_dual(cone)
            rng = random.Random(sum(map(ord, name)))
            n = cone.dim
            for _ in range(20):
                xi = random_interior_xi(cone, rng)
                eta = tuple(rng.randint(-2, 2) for _ in range(n))
                if not any(eta):
                    eta = (1,) + (0,) * (n - 1)
                b0 = weight_character(pieces, xi, eta, order=2).b0
                minus = index_character(
                    pieces, tuple(x - h * e for x, e in zip(xi, eta)), order=2
                ).a0
                plus = index_character(
                    pieces, tuple(x + h * e for x, e in zip(xi, eta)), order=2
                ).a0
                central = (minus - plus) / (2 * h)
                assert abs(b0 - central / n) <= Fraction(1, 10**6) * max(
                    1, abs(b0)
                )


def test_criterion_07_futaki_properties(suite, fixtures, capsys):
    with criterion(capsys, 7, "Fut translation/homogeneity (rel 1e-10); C^2 Fut = 0 exact"):
        rng = random.Random(4049)
        for cone, xi in suite[:30]:
            eta = tuple(rng.randint(-3, 3) for _ in range(cone.dim))
            base = futaki_product(cone, xi, eta)
            for c in (2, Fraction(3, 2)):
                translated = futaki_product(
                    cone, xi, tuple(e + c * x for e, x in zip(eta, xi))
                )
                scaled = futaki_product(cone, tuple(c * x for x in xi), eta)
                # exact arithmetic: equality implies any relative tolerance
                assert translated == base
                assert scaled == base
                assert abs(float(translated - base)) <= 1e-10 * (1 + abs(float(base)))
        for eta in ((1, 0), (0, 1), (2, -5)):
            assert futaki_product(fixtures["orthant2"], (1, 1), eta) == 0


def test_criterion_08_minimizer_endpoint(fixtures, capsys):
    with criterion(capsys, 8, "minimizer: kss_residual <= 1e-10, delta(xi*) ~ 1, grid + Futaki checks"):
        resolutions = {"orthant2": 100, "orthant3": 60, "conifold": 12}
        tangents = {
            "orthant2": ((1, -1),),
            "orthant3": ((1, -1, 0), (0, 1, -1)),
            "conifold": ((0, 1, 0), (0, 0, 1)),
        }
        for name, res in resolutions.items():
            cone = fixtures[name]
            result = minimize_volume(cone)
            assert result.kss_residual <= 1e-10
            rep = delta(cone, result.xi_star.xi)
            assert abs(float(rep.delta) - 1) <= 1e-8
            grid = grid_search_oracle(cone, res)
            spacing = 1.0 / res
            for g, x in zip(grid.xi, result.xi_star.xi):
                assert abs(float(g) - float(x)) <= spacing
            assert float(grid.value) >= result.vol_star - 1e-9
            for eta in tangents[name]:
                assert abs(futaki_product(cone, result.xi_star.xi, eta)) <= 1e-6


def test_criterion_09_gl_invariance(fixtures, capsys):
    with criterion(capsys, 9, "delta, a0, a1, b0, b1, Fut invariant under GL(n,Z), exact"):
        directions = {
            "orthant2": (2, -1),
            "orthant3": (1, -1, 2),
            "a1": (0, 1),
            "conifold": (0, 1, 0),
            "y21": (0, 1, 1),
        }
        for name, cone in fixtures.items():
            xi = FIXTURE_XI[name]
            eta = directions[name]
            rep = delta(cone, xi)
            pieces = decompose_dual(cone)
            F = index_character(pieces, xi, order=2)
            C = weight_character(pieces, xi, eta, order=2)
            fut = futaki_product(cone, xi, eta)
            rng = random.Random(sum(map(ord, name)))
            for _ in range(20):
                mat = unimodular_matrix(rng, cone.dim)
                image = apply_unimodular(cone, mat)
                xi_t = tuple(mat_vec(mat, xi))
                eta_t = tuple(mat_vec(mat, eta))
                rep_t = delta(image, xi_t)
                assert rep_t.delta == rep.delta
                pieces_t = decompose_dual(image)
                F_t = index_character(pieces_t, xi_t, order=2)
                C_t = weight_character(pieces_t, xi_t, eta_t, order=2)
                assert (F_t.a0, F_t.a1) == (F.a0, F.a1)
                assert (C_t.b0, C_t.b1) == (C.b0, C.b1)
                assert futaki_product(image, xi_t, eta_t) == fut


def test_criterion_10_determinism(capsys):
    with criterion(capsys, 10, "byte-identical reports across runs and thread counts"):
        commands = [
            ["minimize", "--spec", str(SPEC_DIR / "y21.json"),
             "--probe-rational", "100"],
            ["delta", "--spec", str(SPEC_DIR / "conifold.json")],
            ["character", "--spec", str(SPEC_DIR / "orthant3.json")],
        ]
        environments = []
        for threads in ("1", "4"):
            for seed in ("0", "31337"):
                env = dict(
                    os.environ,
                    PYTHONHASHSEED=seed,
                    OMP_NUM_THREADS=threads,
                    OPENBLAS_NUM_THREADS=threads,
                    MKL_NUM_THREADS=threads,
                )
                environments.append(env)
        for args in commands:
            outputs = set()
            for env in environments:
                proc = subprocess.run(
                    [sys.executable, "-m", "reebcone.cli", *args],
                    capture_output=True,
                    env=env,
                    check=False,
                )
                assert proc.returncode == 0
                outputs.add(proc.stdout)
            assert len(outputs) == 1
            json.loads(outputs.pop())  # well-formed JSON
