"""Mutation sweep: does the test suite notice a one-edit change to the library?

Each mutant is one string edit to one file under ``src/reebcone``.  The
sweep copies the checkout (without ``.git`` and caches) into a fresh
temporary directory per mutant, applies the edit there, and runs
``python -m pytest -x -q`` against the copy.  A mutant is killed when a test
fails, and survives when the whole suite passes; a survivor therefore costs
one full Tier-1 run, about 55 s on a 2-core machine.  Each mutant records
the test that killed it in the last full sweep; ``--killers`` runs every
mutant against that test alone, a few seconds each, so that a weakened
killer shows as a survivor.  Run it from the root of a checkout, outside
Tier-1::

    python3 tools/mutation_sweep.py                      # every mutant, full suite
    python3 tools/mutation_sweep.py --list               # names; exit 1 if one is stale
    python3 tools/mutation_sweep.py --killers            # each mutant against its killer
    python3 tools/mutation_sweep.py kss-rtol ray-tie-rtol -- tests/test_stability.py

Names select mutants; arguments after ``--`` replace the pytest selection
(the whole of ``tests`` by default, the recorded killer with ``--killers``).
The last line is a summary; the exit status is 1 when a mutant survives or
an edit no longer applies.  The mutants of ``EQUIVALENT`` change no
behaviour, each for the reason it gives; ``--list`` checks that their edits
still apply, and nothing runs them.
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

# (name, file under src/reebcone, old text, new text, the test that killed it in
# the last full sweep, or a test of behaviour that kills it where the sweep's first
# failure was only a byte-compare with a golden file); each old text occurs once
MUTANTS = [
    # geometry: the argument checks every layer shares
    ("positive-int-bound", "geometry.py",
     "if index < 1:", "if index < 0:",
     "tests/test_cli.py::TestInProcessFlags::test_flag_outside_its_domain[oracle-m_max=2.5]"),
    ("positive-finite-float-first", "geometry.py",
     "0 < value and float(value) <= sys.float_info.max", "0 < value <= sys.float_info.max",
     "tests/test_vectors.py::test_float32_scalar_is_in_float_range"),
    ("positive-finite-bound", "geometry.py",
     "0 < value and float(value) <= sys.float_info.max", "0 < value",
     "tests/test_characters.py::TestTruncatedOracle::test_default_cutoff"),
    # geometry: the one coercion of a vector argument
    ("numerators-numpy-int", "geometry.py",
     "x = operator.index(x)  # any integer, NumPy's too", "x = int.__index__(x)",
     "tests/test_vectors.py::test_numpy_integers_are_exact"),
    ("numerators-length", "geometry.py",
     "if n is not None and size != n:", "if False:",
     "tests/test_characters.py::TestWrongLength::test_eta[eta0]"),
    ("numerators-str", "geometry.py",
     "size = None if isinstance(vec, (str, bytes)) else len(vec)", "size = len(vec)",
     "tests/test_cli.py::TestInProcessFlags::test_flag_outside_its_domain[check-xi='211']"),
    ("dim-index", "geometry.py",
     "dim = operator.index(dim)", "dim = int(dim)",
     "tests/test_geometry.py::TestDualCone::test_dim_not_an_integer[3]"),
    # geometry: an entry with an exact ratio, a float of any width say, is read from it
    # with no mpmath when it is a dyadic within the precision, else rounded once, and
    # only when finite
    ("dyadic-ratio-branch", "geometry.py",
     "    if hasattr(x, \"as_integer_ratio\"):\n", "    if False:\n",
     "tests/test_vectors.py::test_float_is_read_exactly_with_no_mpmath[53]"),
    ("dyadic-ratio-float-only", "geometry.py",
     "    if hasattr(x, \"as_integer_ratio\"):\n", "    if isinstance(x, float):\n",
     "tests/test_vectors.py::test_narrow_float_is_read_exactly_with_no_mpmath[53]"),
    ("dyadic-ratio-nan", "geometry.py",
     "except (OverflowError, ValueError):  # an infinity or a NaN",
     "except OverflowError:  # an infinity or a NaN",
     "tests/test_vectors.py::test_float_is_read_exactly_with_no_mpmath[128]"),
    ("dyadic-odd-part", "geometry.py",
     "odd = num // (num & -num) if num else 0", "odd = num",
     "tests/test_vectors.py::test_float_is_read_exactly_with_no_mpmath[53]"),
    ("dyadic-within-precision", "geometry.py",
     "odd.bit_length() <= precision_bits()", "odd.bit_length() <= 64",
     "tests/test_vectors.py::test_wide_entry_is_rounded_once[53]"),
    # geometry: the refusals of dual_cone's rays, before any work
    ("rays-dim-positive", "geometry.py",
     "if dim < 1:", "if dim < 0:",
     "tests/test_geometry.py::TestDualCone::test_dim_not_positive[0]"),
    ("rays-dim-cap", "geometry.py",
     "if dim > MAX_DIM:", "if dim > MAX_DIM + 1:",
     "tests/test_geometry.py::TestDualCone::test_dim_past_the_cap"),
    ("rays-count-cap", "geometry.py",
     "if count > MAX_RAYS:", "if count > MAX_RAYS + 1:",
     "tests/test_geometry.py::TestDualCone::test_rays_past_the_cap"),
    ("rays-length", "geometry.py",
     "if size != dim:", "if size > dim:",
     "tests/test_geometry.py::TestDualCone::test_ray_of_the_wrong_length[short]"),
    ("rays-integral-fraction", "geometry.py",
     "if isinstance(x, Fraction) and x.denominator == 1:", "if False:",
     "tests/test_geometry.py::TestDualCone::test_integral_fraction_entries_are_ints"),
    # geometry: a character's coefficient is read only from its own kind
    ("series-coefficient-kind", "geometry.py",
     "if self.kind != kind:", "if False:",
     "tests/test_characters.py::TestBadArguments::test_coefficient_of_the_other_character"),
    # geometry: the Gorenstein solve inverts the first n independent rays, solves
    # with their entries of the right-hand side, checks every ray in ints (scaled by
    # |det|), and refuses rays that do not span
    ("gorenstein-pivot-rows", "geometry.py",
     "linalg.integer_inverse([cone.rays[i] for i in basis])",
     "linalg.integer_inverse(cone.rays[:cone.dim])",
     "tests/test_geometry.py::TestGorensteinVector::test_matches_fraction_solve"),
    ("gorenstein-pivot-rhs", "geometry.py",
     "basis_rhs = [rhs[i] for i in basis]", "basis_rhs = rhs[:cone.dim]",
     "tests/test_geometry.py::TestGorensteinVector::test_matches_fraction_solve"),
    ("gorenstein-ray-check", "geometry.py",
     "    if any(linalg.dot(v, l_num) != det * r for v, r in zip(cone.rays, rhs)):\n",
     "    if False:\n",
     "tests/test_geometry.py::TestGorensteinVector::test_matches_fraction_solve"),
    ("gorenstein-ray-check-scale", "geometry.py",
     "!= det * r for v, r in", "!= r for v, r in",
     "tests/test_geometry.py::TestGorensteinVector::test_matches_fraction_solve"),
    ("gorenstein-span", "geometry.py",
     "    if len(basis) < cone.dim:\n", "    if False:\n",
     "tests/test_geometry.py::TestGorensteinVector::test_matches_fraction_solve"),
    # geometry: every per-cone cache is bounded, so an earlier cone is freed
    ("cone-cache-unbounded", "geometry.py",
     "CONE_CACHE_SIZE = 16", "CONE_CACHE_SIZE = 1000",
     "tests/test_geometry.py::TestCacheRetention::test_caches_let_go_of_earlier_cones"),
    # geometry: double description, triangulation, slice sums
    ("dd-adjacency-rank", "geometry.py",
     "common.bit_count() >= dim - 2", "common.bit_count() >= dim - 1",
     "tests/test_lattice.py"),
    ("dd-keep-tight", "geometry.py",
     "for r, mask in rays.items() if values[r] >= 0}",
     "for r, mask in rays.items() if values[r] > 0}",
     "tests/test_lattice.py"),
    ("tri-maximal-facets", "geometry.py",
     "if facet >> first & 1 or any(facet & g == facet != g for g in proper):",
     "if facet >> first & 1:",
     "tests/test_geometry.py::TestTriangulation::test_redundant_normals"),
    ("tri-pull-last-ray", "geometry.py",
     "first = (face & -face).bit_length() - 1", "first = face.bit_length() - 1",
     "tests/test_characters.py::TestDecomposeDual::test_box_guard"),
    ("faces-drop-one", "geometry.py",
     "                out.append((det // linalg.dot(ray, u), face))\n    return tuple(out)",
     "                out.append((det // linalg.dot(ray, u), face))\n    return tuple(out[1:])",
     "tests/test_cli.py::TestMainExitCodes::test_futaki_beyond_the_box_point_bound"),
    ("tri-ragged-rays", "geometry.py",
     "if any(len(r) != len(rays[0]) for r in rays):", "if False:",
     "tests/test_geometry.py::TestTriangulation::test_rays_of_unequal_lengths"),
    ("futaki-slice-route", "geometry.py",
     "(a * m - t_s * l_s * x)", "(a * m - t_s * x)",
     "tests/test_acceptance.py::test_criterion_07_futaki_properties"),
    ("futaki-gorenstein-half", "geometry.py",
     "t_f, l_f = a * t_s, l_d * l_s", "t_f, l_f = 2 * a * t_s, l_d * l_s",
     "tests/test_acceptance.py::test_criterion_07_futaki_properties"),
    ("pairings-strict", "geometry.py",
     "if not all(c > 0 for c in pairings.values()):",
     "if not all(c >= 0 for c in pairings.values()):",
     "tests/test_characters.py::TestTruncatedOracle::test_interior_required"),
    ("sums-weight-accumulate", "geometry.py",
     "            weights[u] += w", "            weights[u] = w",
     "tests/test_acceptance.py::test_criterion_01_barycenter_relation"),
    # geometry: a one-unit edit of the exact volume sum, which the quasi-regular
    # Y^{p,q} see as a minimizer that is no longer K-semistable
    ("volume-sums-total-unit", "geometry.py",
     "return simplex_weights, sum(simplex_weights), big",
     "return simplex_weights, sum(simplex_weights) + 1, big",
     "tests/test_literature.py::test_quasi_regular_ypq_is_kss_exactly"),
    ("sums-guard-bits", "geometry.py",
     "_GUARD_BITS = 32", "_GUARD_BITS = 4",
     "tests/test_characters.py::TestBoxPointKernel::test_mpf_path_rounds_once"),
    ("scale-guard", "geometry.py",
     "precision_bits() + _GUARD_BITS + max(", "precision_bits() + max(",
     "tests/test_characters.py::TestBoxPointKernel::test_mpf_path_rounds_once"),
    ("sums-hessian-ray-term", "geometry.py",
     "    rows += scaled.values()\n", "",
     "tests/test_acceptance.py::test_criterion_08_minimizer_endpoint"),
    ("spread-bits", "geometry.py",
     "_MAX_SPREAD_BITS = 4096", "_MAX_SPREAD_BITS = 40960",
     "tests/test_stability.py::TestWorkingPrecision::test_exponent_spread_just_past_the_bound"),
    # linalg: a row swap flips the determinant, and the scaled inverse takes the
    # sign of the last pivot, so its factor |det A| is positive
    ("bareiss-swap-sign", "linalg.py",
     "            sign = -sign\n", "",
     "tests/test_characters.py::TestBoxPointKernel::test_rank_det_solve"),
    ("inverse-pivot-sign", "linalg.py",
     "sign = 1 if last > 0 else -1", "sign = 1",
     "tests/test_characters.py::TestBoxPointKernel::test_integer_inverse"),
    # lattice: the integer scan box, at a level read exactly
    ("scan-box-floor", "lattice.py",
     "[x // p for x in u]", "[-(-x // p) for x in u]",
     "tests/test_lattice.py::test_scan_box_matches_fraction_box"),
    ("scan-box-ceil", "lattice.py",
     "[-(-x // p) for x in u]", "[x // p for x in u]",
     "tests/test_lattice.py::test_scan_box_matches_fraction_box"),
    ("scan-coefficient-int64", "lattice.py",
     "+ abs(rhs) + max(map(abs, coeffs))", "+ abs(rhs)",
     "tests/test_lattice.py::test_oversized_scan_raises_before_allocating"),
    ("scan-level-mpf", "lattice.py",
     "except TypeError:  # another number", "except ValueError:  # another number",
     "tests/test_vectors.py::test_mpf_valuation_and_boundary_are_exact"),
    ("scan-level-float", "lattice.py",
     "level = Fraction(level)", "level = _dyadic(\"level\", level)",
     "tests/test_lattice.py::test_float_level_loads_no_mpmath"),
    # lattice: the pure-Python row scan starts from the room the rest of the box
    # leaves, and runs its rows along the widest axis of the box
    ("python-rows-room", "lattice.py",
     "zip(reach[1], constraints)", "zip(reach[0], constraints)",
     "tests/test_acceptance.py::test_criterion_04_sm_envelope"),
    ("python-rows-widest-axis", "lattice.py",
     "axis = max(range(n), key=lambda j: (hi[j] - lo[j], j))", "axis = n - 1",
     "tests/test_lattice.py::test_python_rows_run_along_the_widest_axis"),
    ("python-rows-axis-width", "lattice.py",
     "(hi[j] - lo[j], j)", "(hi[j] + lo[j], j)",
     "tests/test_lattice.py::test_python_rows_run_along_the_widest_axis"),
    # lattice: the truncated oracle's default cutoff and its eta, which floats must hold,
    # and a rel_tol that is a positive float
    ("weighted-reach", "lattice.py",
     "18.0 if weighted", "14.0 if weighted",
     "tests/test_characters.py::TestTruncatedOracle::test_default_cutoff"),
    ("oracle-eta-past-floats", "lattice.py",
     "except OverflowError:  # an entry past the floats",
     "except ZeroDivisionError:  # an entry past the floats",
     "tests/test_vectors.py::test_bad_vector_is_a_value_error[27-eta-past-the-floats]"),
    ("oracle-rel-tol", "lattice.py",
     "if not rel_tol > 0:", "if rel_tol < 0:",
     "tests/test_lattice.py::test_oracle_inputs_outside_their_domain[rel-tol-nan]"),
    # lattice: the weighted oracle's run means, a series where hL is small, every run
    # weighing 1 per point where h is below the least float, and no sum past the floats
    ("run-means-series", "lattice.py",
     "(0.5 - h * (n + 1) / 12 * (1 - h * h", "(0.5 - h * (n - 1) / 12 * (1 - h * h",
     "tests/test_lattice.py::test_weighted_oracle_matches_the_direct_sum_at_every_t[y21]"),
    ("run-means-threshold", "lattice.py",
     "(h * counts < 0.01)", "(h * counts < 1.0)",
     "tests/test_lattice.py::test_weighted_oracle_matches_the_direct_sum_at_every_t"
     "[orthant2-long-runs]"),
    ("run-means-overflow", "lattice.py",
     "if h * counts.max(initial=0) >= 0.01:", "if True:",
     "tests/test_lattice.py::test_weighted_oracle_matches_the_direct_sum_at_every_t[y21]"),
    ("oracle-h-underflow", "lattice.py",
     "/ -np.expm1(-h) if h else", "/ -np.expm1(-h) if step else",
     "tests/test_lattice.py::test_weighted_oracle_matches_the_direct_sum_at_every_t"
     "[y21-h-underflow]"),
    ("oracle-sum-errstate", "lattice.py",
     "with np.errstate(over=\"ignore\", invalid=\"ignore\"):", "with np.errstate():",
     "tests/test_lattice.py::test_oracle_sum_past_the_floats_warns_nothing"),
    ("oracle-partial-finite", "lattice.py",
     "    if not math.isfinite(partial):\n", "    if False:\n",
     "tests/test_lattice.py::test_oracle_sum_past_the_floats_warns_nothing"),
    ("oracle-tail-finite", "lattice.py",
     "        if not math.isfinite(tail):\n", "        if False:\n",
     "tests/test_lattice.py::test_oracle_tail_past_the_floats_is_cutoff_too_small"),
    # lattice: the tail only grows, so the first term past the bound decides the call
    ("oracle-tail-early-stop", "lattice.py",
     "        if tail > bound:\n",
     "        if tail > bound and term < 1e-18 * (abs(partial) + tail + 1e-300):\n",
     "tests/test_lattice.py::test_oracle_tail_stops_once_past_the_bound[index-1e-06]"),
    # lattice: the oracle's shell counts from the sorted run ends
    ("shells-residue-strict", "lattice.py",
     "np.cumsum(e_r > r,", "np.cumsum(e_r >= r,",
     "tests/test_lattice.py::test_shell_counts_match_brute_force[y21]"),
    ("shells-live-threshold", "lattice.py",
     "(counts - 1) > xs[0]", "(counts - 1) > xs[1]",
     "tests/test_lattice.py::test_shell_counts_match_brute_force[kgon-negative]"),
    # lattice: the S_m table of one Python scan: the level a whole row enters at,
    # the end a negative step cuts a partial row at, and the residue of its pairing
    # that its cut count depends on
    ("table-whole-level", "lattice.py",
     "last = max(1, -((-s - step * greatest) // d))", "last = max(1, (s + step * greatest) // d)",
     "tests/test_lattice.py::test_python_table_matches_level_sums[dim1-positive]"),
    ("table-negative-step-cut", "lattice.py",
     "if step > 0 else (q - b - 1, 2 * b + 1)", "if step else (q - b - 1, 2 * b + 1)",
     "tests/test_lattice.py::test_python_table_matches_level_sums[dim1-negative]"),
    ("table-residue", "lattice.py",
     "q, t = divmod(s, size)", "q, t = s // size, 0",
     "tests/test_lattice.py::test_python_table_matches_level_sums[random10-negative]"),
    # characters: box points, the per-piece series and the one order check
    ("box-half-open", "characters.py",
     "tuple([r or count for r in rs]) if off", "tuple(rs) if off",
     "tests/test_acceptance.py::test_criterion_05_index_character"),
    ("box-first-order", "characters.py",
     "k = count // math.gcd(count, *col)", "k = count // math.gcd(count, col[0])",
     "tests/test_acceptance.py::test_criterion_05_index_character"),
    ("series-positive-pairings", "characters.py",
     "if not all(k > 0 for k in ks):", "if not all(k >= 0 for k in ks):",
     "tests/test_fuzz.py::test_fuzz_main"),
    ("series-derivative-power", "characters.py",
     "* (j - 1) * gamma * k ** j", "* j * gamma * k ** j",
     "tests/test_acceptance.py::test_criterion_06_b0_identity"),
    ("series-order-shift", "characters.py",
     "ratio(s * d ** n, scale * d ** j)", "ratio(s * d ** n, scale * d ** (j + 1))",
     "tests/test_acceptance.py::test_criterion_05_index_character"),
    ("series-derivative-scale", "characters.py",
     "for k, _, v in parts], 2, exact)", "for k, _, v in parts], 1, exact)",
     "tests/test_acceptance.py::test_criterion_06_b0_identity"),
    ("series-no-weight-without-eta", "characters.py",
     "    if eta_num is None:\n        return F, None",
     "    if eta_num is None:\n        return F, F",
     "tests/test_acceptance.py::test_criterion_10_determinism"),
    ("series-pieces-one-dimension", "characters.py",
     "if any(len(p.generators) != n or", "if False and any(len(p.generators) != n or",
     "tests/test_characters.py::TestWrongLength::test_pieces_of_two_dimensions"),
    ("order-negative-bound", "characters.py",
     "if order < 0:", "if order < -1:",
     "tests/test_characters.py::TestBadArguments::test_negative_order[-1]"),
    # stability: the one coercion of a valuation, delta and its working-precision tolerances,
    # and futaki_product's eta, which futaki_coefficients would read as None for no eta
    ("futaki-product-eta", "stability.py",
     "    _sequence_length(\"eta\", eta)\n", "",
     "tests/test_vectors.py::test_bad_vector_is_a_value_error[17-eta-None]"),
    ("valuation-unchecked", "stability.py",
     "    [(v_num, d)], _ = numerators(cone.dim, v=v.v if isinstance(v, ToricValuation) else v)",
     "    if isinstance(v, ToricValuation):\n        return v\n"
     "    [(v_num, d)], _ = numerators(cone.dim, v=v)",
     "tests/test_stability.py::TestToricValuation::test_valuation_of_another_cone_is_checked"),
    ("delta-tie-inclusive", "stability.py",
     "<= tie_num * low_a * s)", "< tie_num * low_a * s)",
     "tests/test_cli.py::TestRunReports::test_delta_is_a_thin_shell"),
    ("delta-kss-inclusive", "stability.py",
     "kss=residual <= kss_tol,", "kss=residual < kss_tol,",
     "tests/test_acceptance.py::test_criterion_03_worked_cases"),
    ("delta-prime-cap", "stability.py",
     "delta_prime=min(ratio(1, 1), low)", "delta_prime=max(ratio(1, 1), low)",
     "tests/test_stability.py::TestDelta::test_a1_worked"),
    ("kss-rtol", "config.py",
     "KSS_RTOL = 1e-9", "KSS_RTOL = 1e-3",
     "tests/test_stability.py::TestDelta::test_kss_is_tight"),
    ("ray-tie-rtol", "config.py",
     "RAY_TIE_RTOL = 8 * 2.0 ** -50", "RAY_TIE_RTOL = 2.0 ** -20",
     "tests/test_stability.py::TestDelta::test_near_ties_are_tight"),
    # optimize: the damped Newton step on log a0 and the Tikhonov ladder
    ("newton-damping", "optimize.py",
     "scale_t = 1.0 / (1.0 + decrement)", "scale_t = 1.0",
     "tests/test_cli.py::TestConsoleScript::test_byte_determinism_across_hash_seeds"),
    ("newton-log-hessian", "optimize.py",
     "[h / value - a * b for b, h", "[h / value for b, h",
     "tests/test_optimize.py::TestMinimize::test_start_near_the_boundary"),
    ("newton-stop-tol", "optimize.py",
     "while decrement > tol:", "while decrement > 1e6 * tol:",
     "tests/test_optimize.py::TestMinimize::test_stops_at_a_rounding_residual"),
    ("newton-last-step", "optimize.py",
     "        scale_t = 1.0 / (1.0 + decrement)\n",
     "        if decrement <= tol:\n            break\n        scale_t = 1.0 / (1.0 + decrement)\n",
     "tests/test_cli.py::TestConsoleScript::test_byte_determinism_across_hash_seeds"),
    ("newton-min-step-scale", "optimize.py",
     "_MIN_STEP_SCALE = 2.0**-60", "_MIN_STEP_SCALE = 2.0**-20",
     "tests/test_optimize.py::TestMinimize::test_every_trial_off_the_cone_is_non_convergent"),
    ("newton-margin", "optimize.py",
     "margin = min(", "margin = max(",
     "tests/test_optimize.py::TestMinimize::test_margin_is_the_least_pairing"),
    ("ladder-fixed-start", "optimize.py",
     "lam = scale * 2.0**-52", "lam = 1e-12",
     "tests/test_optimize.py::TestRegularizedStep::test_singular_hessian_is_regularized"),
    ("ladder-rung-factor", "optimize.py",
     "lam *= 10.0", "lam *= 100.0",
     "tests/test_optimize.py::TestRegularizedStep::test_shift_grows_tenfold"),
    ("ladder-ceiling", "optimize.py",
     "if not 0.0 < lam <= scale < math.inf:", "if not 0.0 < lam <= 1e12 * scale < math.inf:",
     "tests/test_optimize.py::TestRegularizedStep::test_indefinite_hessian_raises"),
    ("embed-entries", "optimize.py",
     "    except (TypeError, ValueError):\n        raise ValueError(f\"xi_slice_coords",
     "    except ZeroDivisionError:\n        raise ValueError(f\"xi_slice_coords",
     "tests/test_vectors.py::test_bad_vector_is_a_value_error[29-xi_slice_coords-None-entry]"),
    ("embed-past-floats", "optimize.py",
     "except OverflowError:  # an exact entry past the floats, as in",
     "except ZeroDivisionError:  # as in",
     "tests/test_vectors.py::test_bad_vector_is_a_value_error[29-xi_slice_coords-past-the-floats]"),
    # optimize: vol* by the homogeneity of degree -n from xi* to the slice
    ("vol-star-power", "optimize.py",
     "vol_star=sums.a ** n * sums.total", "vol_star=sums.a ** (n - 1) * sums.total",
     "tests/test_literature.py::test_ypq_minimizer_and_volume"),
    # optimize: a float product of pairings that underflows is off the slice
    ("objective-underflow", "optimize.py",
     "    except ZeroDivisionError:\n        raise UnboundedSlice(",
     "    except OverflowError:\n        raise UnboundedSlice(",
     "tests/test_optimize.py::TestVolumeObjective::test_left_cone"),
    # optimize: xi* keeps its floats, normalized when <xi*, l> is within the tolerance of 1
    ("xi-star-normalized-flip", "optimize.py",
     "abs(Fraction(sums.a - b, b)) <= DEFAULT_TOL", "abs(Fraction(sums.a - b, b)) > DEFAULT_TOL",
     "tests/test_optimize.py::TestMinimize::test_xi_star_keeps_the_floats_found[y21]"),
    ("xi-star-normalized-exact", "optimize.py",
     "abs(Fraction(sums.a - b, b)) <= DEFAULT_TOL", "abs(Fraction(sums.a - b, b)) <= 0",
     "tests/test_optimize.py::TestMinimize::test_xi_star_keeps_the_floats_found[orthant3]"),
    # optimize: the grid oracle's ranking by the integer ratio T/L
    ("grid-first-minimum", "optimize.py",
     "total * best_big < best_total * big", "total * best_big <= best_total * big",
     "tests/test_optimize.py::TestGridOracle::test_matches_fraction_oracle_on_specs[a1-5]"),
    ("grid-cross-multiply", "optimize.py",
     "total * best_big < best_total * big", "total * big < best_total * best_big",
     "tests/test_acceptance.py::test_criterion_08_minimizer_endpoint"),
    # cli: the parser's reading of argv, by argparse's token rules: a unique prefix
    # names a flag, an exact name first, a prefix of two flags is refused, a value
    # starts with "-" only as a negative number, a "+" flag stops at the next flag
    # and a one-value flag after one value, the last of a repeated flag wins, and
    # --spec is required
    ("cli-prefix-match", "cli.py",
     "for flag in names if flag.startswith(name)]", "for flag in names if flag == name]",
     "tests/test_cli_parser.py::test_parser_decision[prefix]"),
    ("cli-exact-first", "cli.py",
     "        elif token in names:\n            kinds.append((token, None))\n", "",
     "tests/test_cli_parser.py::test_parser_decision[exact-first]"),
    ("cli-ambiguous", "cli.py",
     "            if len(found) > 1:\n", "            if False:\n",
     "tests/test_cli_parser.py::test_parser_decision[ambiguous]"),
    ("cli-negative-number", "cli.py",
     "elif re.match(r\"^-\\d+$|^-\\d*\\.\\d+$\", token) or", "elif",
     "tests/test_cli_parser.py::test_parser_decision[negative]"),
    ("cli-negative-pattern", "cli.py",
     r'r"^-\d+$|^-\d*\.\d+$"', r'r"-\.?\d"',
     "tests/test_cli_parser.py::test_pinned_edge_case[negative-rational]"),
    ("cli-plus-stops", "cli.py",
     "while end < len(rest) and kinds[end] is None and (", "while end < len(rest) and (",
     "tests/test_cli_parser.py::test_parser_decision[plus-stops]"),
    ("cli-one-value", "cli.py",
     "kinds[end] is None and (arity == \"+\" or end == i + 1):", "kinds[end] is None:",
     "tests/test_cli_parser.py::test_parser_decision[one-value]"),
    ("cli-last-wins", "cli.py",
     "args[dest] = values if arity == \"+\" else values[0]",
     "args[dest] = args[dest] or (values if arity == \"+\" else values[0])",
     "tests/test_cli_parser.py::test_parser_decision[last-wins]"),
    ("cli-spec-required", "cli.py",
     "    if args[\"spec\"] is None:\n", "    if False:\n",
     "tests/test_cli_parser.py::test_parser_decision[spec-required]"),
    # cli: orders 0 and 1 take the closed form and load no characters
    ("cli-closed-form-orders", "cli.py",
     "and order in (0, 1):", "and order in (0,):",
     "tests/test_cli.py::TestMainExitCodes::test_character_beyond_the_box_point_bound"),
    # cli: every subcommand acknowledges a spec's boundary, and the error type sets the exit code
    # cli: a report holds each result record as a dict, in process as in its JSON; below
    # the sized-iterable branch of _jsonable no record would reach the record branch, so
    # moving it there is deleting it
    ("cli-fields-shallow", "cli.py",
     "_fields(v) if hasattr(v, \"_asdict\") else v", "v",
     "tests/test_cli.py::TestRunReports::test_boundary_spec_is_experimental"),
    ("cli-jsonable-record-last", "cli.py",
     "    if hasattr(obj, \"_asdict\"):  # a NamedTuple record, which the list branch would list\n"
     "        return _jsonable(obj._asdict())\n",
     "",
     "tests/test_cli.py::TestRunReports::test_character_coefficients_serialized"),
    ("cli-boundary-every-command", "cli.py",
     "            _warn_boundary(spec)\n",
     "            if command in (\"check\", \"delta\"):\n                _warn_boundary(spec)\n",
     "tests/test_cli.py::TestRunReports::test_boundary_warns_once_in_every_command[minimize]"),
    ("exit-code-domain", "errors.py",
     "exit_code = 3", "exit_code = 2",
     "tests/test_cli.py::TestMainExitCodes::test_not_q_gorenstein_is_domain_error"),
]

# (name, file, old text, new text, why no test can kill it); listed, never run
EQUIVALENT = [
    ("dd-adjacency-count", "geometry.py",
     "for mask in rays.values()) == 2):", "for mask in rays.values()) <= 2):",
     "the count includes the two rays themselves, so it is never below 2"),
    ("box-early-exit", "characters.py",
     "        if size == count:\n            break",
     "        if size == count:\n            continue",
     "once the group is full every later column lies in it, so each later k is 1"),
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
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--list", action="store_true", help="list the mutants and exit")
    mode.add_argument("--killers", action="store_true",
                      help="run each mutant against the test that killed it, not the suite")
    args = parser.parse_args(argv[:split])
    if args.list:
        stale = 0
        rows = [(m, "") for m in MUTANTS] + [(m, "equivalent") for m in EQUIVALENT]
        for (name, path, old, _, _), kind in rows:
            matches = (ROOT / "src" / "reebcone" / path).read_text(encoding="utf-8").count(old)
            stale += matches != 1
            print(f"{name:30} {path:14} {kind if matches == 1 else 'stale'}".rstrip())
        return 1 if stale else 0
    unknown = set(args.names) - {m[0] for m in MUTANTS}
    if unknown:
        parser.error("unknown mutants: " + ", ".join(sorted(unknown)))
    chosen = [m for m in MUTANTS if not args.names or m[0] in args.names]
    tally = {"killed": 0, "survived": 0, "stale": 0}
    for name, path, old, new, killer in chosen:
        pytest_args = argv[split + 1:] or ([killer] if args.killers else ["tests"])
        if "" in pytest_args:
            verdict, detail = "stale", "no recorded killer"
        else:
            verdict, detail = run_mutant(name, path, old, new, pytest_args)
        tally[verdict] += 1
        print(f"{verdict:8} {name:30} {detail}", flush=True)
    print(", ".join(f"{count} {verdict}" for verdict, count in tally.items()))
    return 1 if tally["survived"] or tally["stale"] else 0


if __name__ == "__main__":
    sys.exit(main())
