"""CLI layer: spec parsing, report structure, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import test_golden
from reebcone import (
    NonIntegerRay,
    SchemaError,
    decompose_dual,
    delta,
    dual_cone,
    futaki_product,
    index_character,
    weight_character,
)
from reebcone.cli import ConeSpec, main, parse_cone_spec, run
from conftest import minor_futaki_coefficients

SPEC_DIR = Path(__file__).resolve().parents[1] / "src" / "reebcone" / "specs"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# Not Q-Gorenstein, with a simplicial piece of 1,113,098 box points (above
# MAX_BOX_POINTS), and a Reeb vector and direction on it.
DIM5_SPEC = ('{"dim": 5, "rays": [[1,1,0,3,3], [1,1,2,1,3], [2,0,0,3,2],'
             ' [2,1,2,0,1], [2,3,3,2,1], [3,2,2,1,3]]}')
DIM5_XI, DIM5_ETA = (11, 8, 9, 10, 13), (0, 1, 0, 0, 0)

# An experimental boundary divisor: l = (1/2, 1/4), while the Gorenstein
# vector of the cone is (1, 0), so xi is normalized against the latter only.
BOUNDARY_SPEC = ('{"dim": 2, "rays": [[1, 0], [1, 2]],'
                 ' "xi": [1, 1], "boundary_coeffs": ["1/2", 0]}')

# The modules a cold call of each subcommand must not load.
UNLOADED = {
    "check": ("mpmath", "numpy", "reebcone.characters", "reebcone.optimize"),
    "delta": ("mpmath", "numpy", "reebcone.characters", "reebcone.optimize"),
    "futaki": ("mpmath", "numpy", "reebcone.characters", "reebcone.optimize"),
    "character": ("mpmath", "numpy", "reebcone.stability", "reebcone.optimize"),
    "minimize": ("logging", "numpy", "reebcone.characters"),
    "oracle": ("mpmath", "reebcone.optimize"),
}


def spec_text(name: str) -> str:
    return (SPEC_DIR / (name + ".json")).read_text(encoding="utf-8")


class TestParseSpec:
    def test_valid(self):
        spec = parse_cone_spec(spec_text("conifold"))
        assert spec == ConeSpec(
            name="conifold",
            dim=3,
            rays=((1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 0, 1)),
            xi=(1, Fraction(1, 2), Fraction(1, 2)),
            eta=(0, 1, 0),
        )

    def test_scalar_forms(self):
        spec = parse_cone_spec(
            '{"dim": 2, "rays": [[1,0],[1,2]],'
            ' "xi": [1, "1/2"], "eta": ["0.25", [3, 4]]}'
        )
        assert spec.xi == (1, Fraction(1, 2))
        assert spec.eta == (Fraction(1, 4), Fraction(3, 4))

    def test_decimal_literals_are_exact(self):
        # 0.1 is kept as a string by the decoder, so no binary rounding
        spec = parse_cone_spec('{"dim": 2, "rays": [[1,0],[0,1]], "xi": [1, 0.1]}')
        assert spec.xi == (1, Fraction(1, 10))

    def test_rejections(self):
        with pytest.raises(SchemaError, match="unknown field"):
            parse_cone_spec('{"dim": 2, "rays": [[1,0],[0,1]], "extra": 1}')
        with pytest.raises(SchemaError, match="boolean"):
            parse_cone_spec('{"dim": 2, "rays": [[1,0],[0,1]], "xi": [true, 1]}')
        with pytest.raises(SchemaError, match="missing required field"):
            parse_cone_spec('{"dim": 2}')
        with pytest.raises(SchemaError, match="xi: expected 2"):
            parse_cone_spec('{"dim": 2, "rays": [[1,0],[0,1]], "xi": [1, 1, 1]}')
        with pytest.raises(SchemaError, match="zero denominator"):
            parse_cone_spec('{"dim": 2, "rays": [[1,0],[0,1]], "xi": [1, [1, 0]]}')
        with pytest.raises(SchemaError, match="boundary_coeffs"):
            parse_cone_spec(
                '{"dim": 2, "rays": [[1,0],[0,1]], "boundary_coeffs": [0]}'
            )
        with pytest.raises(NonIntegerRay, match=r"rays\[1\]\[0\]"):
            parse_cone_spec('{"dim": 2, "rays": [[1,0],["1/2",1]]}')

    def test_json_error_carries_position(self):
        with pytest.raises(SchemaError, match="line 2 column"):
            parse_cone_spec('{"dim": 2,\n "rays": }')


class TestRunReports:
    def test_delta_is_a_thin_shell(self, a1):
        text = spec_text("a1")
        report = run("delta", text, {"xi": (1, Fraction(1, 2))})
        direct = delta(a1, (1, Fraction(1, 2)))
        assert report.results["delta"] == direct.delta == Fraction(1, 2)
        assert report.results["minimizing_rays"] == [1]
        assert report.results["kss"] is False
        assert report.spec_name == "a1"
        assert report.error is None
        expected = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert report.input_hash == "sha256:" + expected
        assert report.provenance["arithmetic"] == "exact-rational"

    def test_futaki_matches_library(self, conifold):
        report = run("futaki", spec_text("conifold"), {})
        assert report.results["futaki"] == futaki_product(
            conifold, (1, Fraction(1, 2), Fraction(1, 2)), (0, 1, 0)
        )
        assert report.results["futaki"] == 0
        assert report.results["a0"] == 8

    def test_character_coefficients_serialized(self):
        report = run("character", spec_text("orthant2"), {})
        assert report.results["index"]["coeffs"] == [1, 1, Fraction(5, 12)]
        payload = json.loads(report.to_json())
        assert payload["results"]["index"]["coeffs"] == ["1", "1", "5/12"]
        assert payload["results"]["index"]["order_low"] == -2

    @pytest.mark.parametrize("name", test_golden.SPECS)
    def test_leading_orders_match_box_points(self, name):
        # orders 0 and 1 come from the closed form, with no box points
        spec = parse_cone_spec(spec_text(name))
        pieces = decompose_dual(dual_cone(spec.rays, spec.dim))
        eta = spec.eta or (0, 1) + (0,) * (spec.dim - 2)
        for order in (0, 1):
            for flags in ({"order": order}, {"order": order, "eta": eta}):
                results = run("character", spec_text(name), flags).results
                F = index_character(pieces, spec.xi, order=order)
                assert results["index"] == {"order_low": F.order_low, "coeffs": list(F.coeffs),
                                            "a0": F.a0, "a1": F.a1 if order else None}
                weighted = flags.get("eta", spec.eta)
                if weighted is None:
                    assert "weight" not in results
                    continue
                C = weight_character(pieces, spec.xi, weighted, order=order)
                assert results["weight"] == {"order_low": C.order_low, "coeffs": list(C.coeffs),
                                             "b0": C.b0, "b1": C.b1 if order else None}

    def test_minimize_report(self):
        report = run("minimize", spec_text("conifold"), {})
        res = report.results
        assert res["xi_star"] == [1.0, 0.5, 0.5]
        assert res["xi_star"][1] == res["xi_star"][2]
        assert res["kss_residual"] <= 1e-10
        assert report.provenance["arithmetic"] == "float64"

    def test_oracle_tables(self):
        report = run("oracle", spec_text("a1"), {"m_max": 3})
        rows = report.results["s_m_table"]["rows"]
        assert rows[0]["v"] == [1, 0]
        assert rows[0]["s_m"] == [
            Fraction(3, 4),
            Fraction(13, 18),
            Fraction(17, 24),
        ]
        assert rows[0]["s"] == Fraction(2, 3)
        with pytest.raises(SchemaError, match="--m-max and/or --t"):
            run("oracle", spec_text("a1"), {})

    def test_primitivize_warning_surfaces(self):
        text = '{"dim": 2, "rays": [[2, 0], [0, 1]], "xi": [1, 1]}'
        report = run("check", text, {})
        assert any("primitiv" in w for w in report.warnings)
        assert report.results["rays"] == [[1, 0], [0, 1]]

    def test_boundary_spec_is_experimental(self):
        report = run("delta", BOUNDARY_SPEC, {})
        assert any("experimental" in w for w in report.warnings)
        assert report.results["gorenstein"]["l"] == [
            Fraction(1, 2),
            Fraction(1, 4),
        ]
        assert report.results["delta"] == Fraction(2, 3)

    def test_boundary_check_normalizes_against_the_gorenstein_vector(self):
        # one slice pass: reeb.normalized against the cone's l, delta against the boundary's
        report = run("check", BOUNDARY_SPEC, {})
        assert any("experimental" in w for w in report.warnings)
        assert report.results["gorenstein"]["l"] == [Fraction(1, 2), Fraction(1, 4)]
        assert report.results["reeb"] == {"xi": [1, 1], "interior": True, "normalized": True}
        assert report.results["delta"] == Fraction(2, 3)
        assert report.results["residual"] == Fraction(1, 4)
        assert report.results["kss"] is False

    def test_oracle_table_is_one_slice_pass(self, monkeypatch):
        # S and S' of every ray from one slice pass, S_m from one lattice scan per level
        from reebcone import geometry, stability

        calls = {"slice": 0, "scan": 0}
        kernel, scan = geometry._simplex_sums, stability.lattice_rows

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(geometry, "_simplex_sums", counted("slice", kernel))
        monkeypatch.setattr(stability, "lattice_rows", counted("scan", scan))
        report = run("oracle", spec_text("y21"), {"m_max": 3})
        assert len(report.results["s_m_table"]["rows"]) == 4
        assert calls == {"slice": 1, "scan": 3}

    def test_unknown_command(self):
        with pytest.raises(ValueError):
            run("frobnicate", spec_text("a1"), {})


class TestMainExitCodes:
    def run_main(self, argv, capsys):
        code = main(argv)
        out = capsys.readouterr().out
        return code, json.loads(out) if out else None

    def test_success(self, capsys):
        code, payload = self.run_main(
            ["delta", "--spec", str(SPEC_DIR / "a1.json")], capsys
        )
        assert code == 0
        assert payload["results"]["delta"] == "1"
        assert payload["results"]["kss"] is True
        assert payload["error"] is None

    def test_missing_file_is_input_error(self, capsys):
        code, payload = self.run_main(
            ["delta", "--spec", "/nonexistent/cone.json"], capsys
        )
        assert code == 2
        assert payload["error"]["type"] == "InputError"
        assert set(payload["error"]) == {"type", "message"}

    def test_schema_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 2, "rays": [[1,0],[0,1]], "wat": 1}')
        code, payload = self.run_main(["check", "--spec", str(bad)], capsys)
        assert code == 2
        assert payload["error"]["type"] == "SchemaError"

    def test_oracle_without_selection(self, capsys):
        code, payload = self.run_main(
            ["oracle", "--spec", str(SPEC_DIR / "a1.json")], capsys
        )
        assert code == 2
        assert payload["error"]["type"] == "SchemaError"

    def test_not_q_gorenstein_is_domain_error(self, tmp_path, capsys):
        spec = tmp_path / "nqg.json"
        spec.write_text(
            '{"dim": 3, "rays": [[1,0,0],[0,1,0],[0,0,1],[1,2,-1]],'
            ' "xi": [1, 1, 1]}'
        )
        code, payload = self.run_main(["delta", "--spec", str(spec)], capsys)
        assert code == 3
        assert payload["error"]["type"] == "NotQGorenstein"

    def test_futaki_beyond_the_box_point_bound(self, tmp_path, capsys):
        # the closed form needs no box points (the box-point characters exit 2 here)
        spec = tmp_path / "dim5.json"
        spec.write_text(DIM5_SPEC)
        code, payload = self.run_main(
            ["futaki", "--spec", str(spec), "--xi", *map(str, DIM5_XI),
             "--eta", *map(str, DIM5_ETA)],
            capsys,
        )
        assert code == 0
        assert payload["error"] is None
        cone = dual_cone([tuple(v) for v in json.loads(DIM5_SPEC)["rays"]], 5)
        a0, a1, b0, b1 = minor_futaki_coefficients(cone, DIM5_XI, DIM5_ETA)
        results = {key: Fraction(value) for key, value in payload["results"].items()}
        assert results == {"a0": a0, "a1": a1, "b0": b0, "b1": b1,
                           "futaki": -2 * (a0 * b1 - a1 * b0) / (a0 * a0)}

    def test_character_beyond_the_box_point_bound(self, tmp_path, capsys):
        spec = tmp_path / "dim5.json"
        spec.write_text(DIM5_SPEC)
        code, payload = self.run_main(
            ["character", "--spec", str(spec), "--xi", *map(str, DIM5_XI),
             "--eta", *map(str, DIM5_ETA), "--order", "1"],
            capsys,
        )
        assert code == 0
        assert payload["error"] is None
        cone = dual_cone([tuple(v) for v in json.loads(DIM5_SPEC)["rays"]], 5)
        a0, a1, b0, b1 = map(str, minor_futaki_coefficients(cone, DIM5_XI, DIM5_ETA))
        assert payload["results"] == {
            "index": {"order_low": -5, "coeffs": [str(24 * Fraction(a0)), str(6 * Fraction(a1))],
                      "a0": a0, "a1": a1},
            "weight": {"order_low": -6, "coeffs": [str(120 * Fraction(b0)), str(24 * Fraction(b1))],
                       "b0": b0, "b1": b1},
        }

    def test_character_order_zero(self, capsys):
        code, payload = self.run_main(
            ["character", "--spec", str(SPEC_DIR / "conifold.json"), "--order", "0"], capsys
        )
        assert code == 0
        assert payload["results"] == {
            "index": {"order_low": -3, "coeffs": ["16"], "a0": "8", "a1": None},
            "weight": {"order_low": -4, "coeffs": ["0"], "b0": "0", "b1": None},
        }

    def test_convergence_error(self, capsys):
        code, payload = self.run_main(
            ["minimize", "--spec", str(SPEC_DIR / "y21.json"), "--max-iter", "1"],
            capsys,
        )
        assert code == 4
        assert payload["error"]["type"] == "MaxIterations"

    def test_bad_xi_is_input_error(self, capsys):
        code, payload = self.run_main(
            ["delta", "--spec", str(SPEC_DIR / "a1.json"), "--xi", "1"], capsys
        )
        assert code == 2
        assert payload["error"]["type"] == "DimensionMismatch"

    @pytest.mark.parametrize("flags", [
        ["character", "--eta", "0", "1"],
        ["character", "--eta", "0", "1", "0", "9"],
        ["character", "--xi", "1", "1", "1", "1"],
        ["oracle", "--t", "0.5", "--eta", "0", "1"],
    ], ids=["character-short-eta", "character-long-eta", "character-long-xi", "oracle-short-eta"])
    def test_wrong_length_is_input_error(self, flags, capsys):
        command, *rest = flags
        code, payload = self.run_main(
            [command, "--spec", str(SPEC_DIR / "conifold.json"), *rest], capsys
        )
        assert code == 2
        assert payload["error"]["type"] == "DimensionMismatch"

    def test_nonpositive_t_is_usage_error(self, capsys):
        code, payload = self.run_main(
            ["oracle", "--spec", str(SPEC_DIR / "a1.json"), "--t", "0"], capsys
        )
        assert code == 1
        assert payload["error"]["type"] == "UsageError"

    @pytest.mark.parametrize("flags", [
        ["minimize", "--max-iter", "0"],
        ["minimize", "--tol", "0"],
        ["minimize", "--tol", "-1"],
        ["oracle", "--t", "0.5", "--cutoff", "-3"],
        ["oracle", "--t", "0.5", "--cutoff", "0"],
        ["oracle", "--m-max", "-2"],
        ["oracle", "--m-max", "0"],
        ["minimize", "--probe-rational", "0", "--max-iter", "1"],
    ], ids=["max-iter-0", "tol-0", "tol-negative", "cutoff-negative", "cutoff-0",
            "m-max-negative", "m-max-0", "probe-rational-0"])
    def test_nonpositive_number_is_usage_error(self, flags, capsys):
        # an explicit 0 is passed through, not taken for "not given"
        command, *rest = flags
        code, payload = self.run_main(
            [command, "--spec", str(SPEC_DIR / "y21.json"), *rest], capsys
        )
        assert code == 1
        assert payload["error"]["type"] == "UsageError"
        assert "must be" in payload["error"]["message"]
        if "--tol" in rest:
            assert payload["provenance"]["tol"] == float(rest[-1])

    def test_negative_order_is_usage_error(self, capsys, monkeypatch):
        # refused before decompose_dual lists a single box point
        import reebcone.characters

        monkeypatch.setattr(reebcone.characters, "decompose_dual", None)
        code, payload = self.run_main(
            ["character", "--spec", str(SPEC_DIR / "conifold.json"), "--order", "-1"], capsys
        )
        assert code == 1
        assert payload["error"]["type"] == "UsageError"
        assert "order must be nonnegative" in payload["error"]["message"]

    def test_weighted_oracle_default_cutoff(self, capsys):
        # the eta-weighted sum's tail has one more power of the pairing
        code, payload = self.run_main(
            ["oracle", "--spec", str(SPEC_DIR / "y21.json"), "--t", "0.2"], capsys
        )
        assert code == 0
        entry = payload["results"]["character_values"]["entries"][0]
        assert payload["results"]["character_values"]["kind"] == "weight"
        assert entry["cutoff"] == 90
        assert entry["value"] == pytest.approx(21744.82, rel=1e-4)

    def test_vanishing_weighted_oracle_keeps_sm_table(self, capsys):
        # conifold's eta-weighted sum is identically 0, so no cutoff passes
        # the tail test; the S_m table computed before it stays in the report
        code, payload = self.run_main(
            ["oracle", "--spec", str(SPEC_DIR / "conifold.json"),
             "--m-max", "2", "--t", "0.2"],
            capsys,
        )
        assert code == 3
        assert payload["error"]["type"] == "CutoffTooSmall"
        assert payload["results"]["s_m_table"]["m_max"] == 2

    def test_large_exact_output(self, a1, capsys):
        # the report's exact values run past the 4300-digit int-to-str limit
        xi = (1, Fraction("1e-2200"))
        code, payload = self.run_main(
            ["delta", "--spec", str(SPEC_DIR / "a1.json"), "--xi", "1", "1e-2200"], capsys
        )
        assert code == 0
        assert Fraction(payload["results"]["delta"]) == delta(a1, xi).delta

    @pytest.mark.parametrize("entry", ['"1e-100000"', "1e-100000", "9" * 5000],
                             ids=["exponent-string", "exponent-literal", "5000-digit-int"])
    def test_oversized_spec_number_is_schema_error(self, entry, tmp_path, capsys):
        spec = tmp_path / "big.json"
        spec.write_text('{"dim": 2, "rays": [[1,0],[1,2]], "xi": [1, %s]}' % entry)
        code, payload = self.run_main(["check", "--spec", str(spec)], capsys)
        assert code == 2
        assert payload["error"]["type"] == "SchemaError"

    def test_oversized_flag_exponent_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--spec", str(SPEC_DIR / "a1.json"), "--xi", "1", "1e-100000"])
        assert exc.value.code == 1
        assert "exponent above 4300" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["minimize", "--tol", "inf"],
        ["oracle", "--t", "0.5", "--cutoff", "inf"],
        ["oracle", "--t", "nan"],
        ["oracle", "--t", "inf"],
        ["oracle", "--t", "0.5", "--cutoff", "nan"],
    ], ids=["tol-inf", "cutoff-inf", "t-nan", "t-inf", "cutoff-nan"])
    def test_non_finite_flag_exits_1(self, flags, capsys):
        # refused by argparse, naming the flag, like any other malformed flag
        command, *rest = flags
        with pytest.raises(SystemExit) as exc:
            main([command, "--spec", str(SPEC_DIR / "y21.json"), *rest])
        captured = capsys.readouterr()
        assert exc.value.code == 1
        assert captured.out == ""
        assert "argument %s: %r is not a finite number" % (rest[-2], rest[-1]) in captured.err

    def test_tiny_t_is_refused(self, capsys):
        # ceil(14 / t) of a subnormal t has no float, and no scan reaches that far
        code, payload = self.run_main(
            ["oracle", "--spec", str(SPEC_DIR / "a1.json"), "--t", "1e-320"], capsys
        )
        assert code == 2
        assert payload["error"]["type"] == "ExceedsSupportedSize"

    def test_non_utf8_spec_is_schema_error(self, tmp_path, capsys):
        spec = tmp_path / "bytes.json"
        spec.write_bytes(b"\xff\xfe")
        code, payload = self.run_main(["check", "--spec", str(spec)], capsys)
        assert code == 2
        assert payload["error"]["type"] == "SchemaError"
        assert "not UTF-8" in payload["error"]["message"]

    def test_deeply_nested_spec_is_schema_error(self, tmp_path, capsys):
        spec = tmp_path / "deep.json"
        spec.write_text('{"dim": 2, "rays": [[1, 0], [0, 1]], "comment": %s}'
                        % ("[" * 100_000 + "]" * 100_000))
        code, payload = self.run_main(["check", "--spec", str(spec)], capsys)
        assert code == 2
        assert payload["error"]["type"] == "SchemaError"
        assert "nested deeper" in payload["error"]["message"]

    def test_unwritable_json_out_is_input_error(self, tmp_path, capsys):
        # the write comes first, so the one report on stdout carries its failure
        target = tmp_path / "missing" / "report.json"
        code, payload = self.run_main(
            ["delta", "--spec", str(SPEC_DIR / "a1.json"), "--json-out", str(target)], capsys
        )
        assert code == 2
        assert payload["error"]["type"] == "InputError"
        assert "--json-out" in payload["error"]["message"]
        assert payload["results"]["delta"] == "1"
        assert not target.exists()

    def test_m_max_beyond_the_scan_bound(self, capsys, monkeypatch):
        # refused before the first lattice scan: 10^9 levels used to run unbounded
        import reebcone.stability

        def no_scan(*args):
            raise AssertionError("a lattice level was scanned")

        monkeypatch.setattr(reebcone.stability, "lattice_rows", no_scan)
        start = time.perf_counter()
        code, payload = self.run_main(
            ["oracle", "--spec", str(SPEC_DIR / "y21.json"), "--m-max", "1000000000"], capsys
        )
        assert time.perf_counter() - start < 1
        assert code == 2
        assert payload["error"]["type"] == "ExceedsSupportedSize"

    def test_argparse_usage_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["delta"])  # --spec is required
        assert exc.value.code == 1

    def test_json_out_equals_stdout(self, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        code = main(
            [
                "futaki",
                "--spec",
                str(SPEC_DIR / "conifold.json"),
                "--json-out",
                str(out_file),
            ]
        )
        stdout = capsys.readouterr().out
        assert code == 0
        assert out_file.read_text(encoding="utf-8") == stdout


class TestConsoleScript:
    """End-to-end runs of the installed entry point."""

    def invoke(self, args, hashseed):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        return subprocess.run(
            [sys.executable, "-m", "reebcone.cli", *args],
            capture_output=True,
            env=env,
            check=False,
        )

    def test_version(self):
        proc = self.invoke(["--version"], "0")
        assert proc.returncode == 0

    def test_byte_determinism_across_hash_seeds(self):
        args = [
            "minimize",
            "--spec",
            str(SPEC_DIR / "y21.json"),
            "--probe-rational",
            "100",
        ]
        outputs = {self.invoke(args, seed).stdout for seed in ("0", "31337")}
        assert len(outputs) == 1
        payload = json.loads(outputs.pop())
        # the CLI seeds Newton from the spec's xi = (1, 1/3, 2/3)
        assert payload["results"]["iterations"] == 7

    def test_delta_exit_and_payload(self):
        proc = self.invoke(
            ["delta", "--spec", str(SPEC_DIR / "conifold.json")], "7"
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["results"]["delta"] == "1"
        assert payload["results"]["bary_P"] == ["1", "0", "0"]

    def test_optimized_interpreter_matches_goldens(self, tmp_path):
        # python -O strips every assert statement, so no check may rest on one:
        # one -O child writes every golden report through cli.main
        script = "\n".join([
            "import contextlib, io, pathlib, sys",
            "sys.path.insert(0, sys.argv[1])",
            "import test_golden as g",
            "from reebcone import cli",
            "for golden, name, command, flags in g.cases():",
            "    out = io.StringIO()",
            "    with contextlib.redirect_stdout(out):",
            "        code = cli.main(g.main_argv(name, command, flags))",
            "    same = out.getvalue().encode() == (g.GOLDEN_DIR / golden).read_bytes()",
            "    print(golden, code, same)",
            "code, text = g.error_report(pathlib.Path(sys.argv[2]))",
            "print(g.ERROR_GOLDEN, code, text.encode() == (g.GOLDEN_DIR / g.ERROR_GOLDEN).read_bytes())",
        ])
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script, str(Path(__file__).parent), str(tmp_path)],
            capture_output=True,
            text=True,
            check=False,
        )
        assert proc.returncode == 0, proc.stderr
        rows = [line.split() for line in proc.stdout.splitlines()]
        reports = sorted(p.name for p in GOLDEN_DIR.iterdir() if p.name != test_golden.NEWTON_GOLDEN)
        assert sorted(golden for golden, _, _ in rows) == reports
        for golden, code, same in rows:
            expected = "3" if golden == "not_q_gorenstein__check.json" else "0"
            assert (code, same) == (expected, "True"), golden

    def test_import_loads_no_layer(self):
        script = "\n".join([
            "import json, sys",
            "import reebcone.cli",
            "print(json.dumps(sorted(sys.modules)))",
        ])
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, check=False)
        assert proc.returncode == 0, proc.stderr
        loaded = set(json.loads(proc.stdout))
        assert not loaded & {"mpmath", "numpy", "logging", "reebcone.stability",
                             "reebcone.characters", "reebcone.optimize"}

    @pytest.mark.parametrize("command", list(UNLOADED))
    def test_cold_subcommand_loads_only_its_layers(self, command):
        # one fresh interpreter per subcommand: in this process earlier tests
        # have loaded every layer, so a layer a subcommand loads needlessly
        # would not show here
        golden, name, _, flags = next(
            case for case in test_golden.cases() if case[0] == "y21__%s.json" % command
        )
        script = "\n".join([
            "import contextlib, io, json, sys",
            "from reebcone import cli",
            "out = io.StringIO()",
            "with contextlib.redirect_stdout(out):",
            "    code = cli.main(sys.argv[1:])",
            "print(json.dumps([code, out.getvalue(), sorted(sys.modules)]))",
        ])
        proc = subprocess.run(
            [sys.executable, "-c", script, *test_golden.main_argv(name, command, flags)],
            capture_output=True,
            text=True,
            check=False,
        )
        assert proc.returncode == 0, proc.stderr
        code, stdout, loaded = json.loads(proc.stdout)
        assert code == 0
        assert stdout.encode("utf-8") == (GOLDEN_DIR / golden).read_bytes()
        assert not set(loaded) & set(UNLOADED[command])
