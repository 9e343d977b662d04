from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import negtype
from helpers import caterpillar, random_dendrogram, random_euclidean, random_ultrametric
from negtype import gap, glue, p_distance_matrix, spectral, ultrametric
from negtype.cli import _build_parser, _load_matrix_space, _load_ultra_space, main

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    @pytest.mark.parametrize(
        "name, p, eigenpairs, lu_calls, inverses",
        [
            pytest.param("example_matrix.txt", 1.0, 0, 1, {7: 1}, id="example_matrix.txt"),
            pytest.param("line3.txt", 1.0, 0, 1, {3: 1}, id="line3.txt"),
            pytest.param("single_point.txt", 1.0, 0, 0, {}, id="single_point.txt"),
            pytest.param("line3.txt", 2.0, 0, 1, {}, id="line3.txt-p2-boundary"),
            pytest.param("collinear6.txt", 2.0, 1, 0, {}, id="collinear6-p2-singular"),
        ],
    )
    def test_one_eigendecomposition_feeds_the_spectrum(
        self, capsys, tmp_path, factorization_calls, name, p, eigenpairs, lu_calls, inverses
    ):
        # the spectrum comes from one values-only call; only the least-residual
        # b of a singular D_p reads eigenvectors
        path = DATA / name
        if name == "collinear6.txt":
            path = tmp_path / name
            rows = [" ".join(str(abs(i - j)) for j in range(6)) for i in range(6)]
            path.write_text("6\n" + "\n".join(rows) + "\n", encoding="utf-8")
        code, out, _ = run(capsys, "analyze", path, "--json", "--p", p)
        assert code == 0
        dp = p_distance_matrix(_load_matrix_space(str(path)), p)
        eigenvalues = 1 if dp.n > 1 else 0
        assert factorization_calls == {"eigenvalues": eigenvalues, "eigenpairs": eigenpairs,
                                       "lu_factor": lu_calls, "inv": inverses}
        report = json.loads(out)
        spectrum = spectral.sym_eigen(dp.entries, vectors=False).eigenvalues
        assert report["spectrum"] == [float(v) for v in spectrum]
        expected = "StrictNegativeType" if p == 1.0 else "NegativeTypeNonStrict"
        assert report["certificate"]["classification"] == expected
        assert report["certificate"]["boundary_warning"] is (name == "line3.txt" and p == 2.0)

    def test_example_matrix(self, capsys):
        code, out, err = run(capsys, "analyze", DATA / "example_matrix.txt", "--p", "1")
        assert code == 0
        assert "StrictNegativeType" in out
        assert "gamma = 0.387045813586" in out

    def test_example_gap_inside_recursive_interval(self, capsys):
        code, out, _ = run(capsys, "analyze", DATA / "example_matrix.txt", "--json")
        report = json.loads(out)
        assert 4.0 / 33.0 <= report["gap"]["gamma"] <= 2.0 / 5.0

    def test_discrete_four(self, capsys):
        code, out, _ = run(capsys, "analyze", DATA / "x4.txt", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["gap"]["gamma"] == pytest.approx(0.5, abs=1e-12)

    def test_asymmetric_file_exits_one(self, capsys):
        code, out, err = run(capsys, "analyze", DATA / "asymmetric.txt")
        assert code == 1
        assert "symmetric" in err
        assert out == ""

    def test_eigensolver_failure_exits_one(self, capsys, monkeypatch):
        # every certificate calls eigvalsh; the witness of line3 at p = 3 calls eigh
        def fails(a, *args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        for solver, name, p in (("eigvalsh", "example_matrix.txt", "1"), ("eigh", "line3.txt", "3")):
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, solver, fails)
                code, out, err = run(capsys, "analyze", DATA / name, "--json", "--p", p)
            assert (code, out, err) == (1, "", "error: Eigenvalues did not converge\n")

    def test_eigenvalue_outside_the_float_range_exits_one(self, capsys, tmp_path):
        # a valid metric whose top eigenvalue, about 2.35e308, is inf: refused
        # as input, as a distance power that overflows is, not a witness check
        path = tmp_path / "near_float_max.txt"
        path.write_text("3\n0 1e308 1.5e308\n1e308 0 1e308\n1.5e308 1e308 0\n")
        for extra in ([], ["--json"]):
            code, out, err = run(capsys, "analyze", path, *extra)
            assert (code, out) == (1, "")
            assert err == ("error: eigenvalue inf of the 3x3 matrix is not finite;"
                           " largest |entry| 1.5e+308\n")

    def test_not_negative_type_exits_two_with_witness(self, capsys):
        code, out, _ = run(capsys, "analyze", DATA / "line3.txt", "--p", "3")
        assert code == 2
        assert "NotNegativeType" in out
        assert "witness" in out

    def test_missing_file_exits_one(self, capsys):
        code, _, err = run(capsys, "analyze", DATA / "nope.txt")
        assert code == 1
        assert err

    def test_json_round_trip_bit_for_bit(self, capsys):
        code, out, _ = run(capsys, "analyze", DATA / "example_matrix.txt", "--json")
        assert out.count("\n") == 1 and out.endswith("}\n")  # one line of JSON
        report = json.loads(out)
        again = json.loads(json.dumps(report))
        assert again == report

    def test_deterministic_apart_from_timing(self, capsys):
        _, out1, _ = run(capsys, "analyze", DATA / "example_matrix.txt", "--json", "--oracle")
        _, out2, _ = run(capsys, "analyze", DATA / "example_matrix.txt", "--json", "--oracle")
        r1, r2 = json.loads(out1), json.loads(out2)
        r1.pop("timing_seconds"), r2.pop("timing_seconds")
        assert r1 == r2

    def test_cap_switches_to_bounds(self, capsys):
        code, out, _ = run(capsys, "analyze", DATA / "example_matrix.txt", "--cap", "5", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["gap"]["mode"] == "bounds"
        assert report["gap"]["lower"] <= report["gap"]["upper"]

    def test_oracle_flag(self, capsys):
        code, out, _ = run(
            capsys, "analyze", DATA / "x4.txt", "--json", "--oracle", "--seed", "11"
        )
        report = json.loads(out)
        assert report["gap"]["oracle_gamma"] == pytest.approx(0.5, abs=1e-4)

    def test_negative_seed_is_rejected_before_loading(self, capsys, tmp_path):
        # the file does not exist: the seed is checked first
        code, out, err = run(capsys, "analyze", tmp_path / "missing.txt", "--oracle", "--seed", "-1")
        assert code == 1
        assert out == ""
        assert err == "error: --seed must be at least 0, got -1\n"

    def test_zero_pivot_in_a_valid_ultrametric_exits_three(self, capsys, tmp_path):
        # the file is a valid ultrametric; at p = 20 LU meets an exactly zero pivot
        space = random_ultrametric(np.random.default_rng(11), 20, lo=1.0, hi=10.0)
        path = tmp_path / "ultrametric20.txt"
        rows = "\n".join(" ".join(repr(float(x)) for x in row) for row in space.dist)
        path.write_text(f"20\n{rows}\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "analyze", path, "--p", "20")
        assert (code, out, caught) == (3, "", [])
        assert err == ("error: LU of the 20x20 matrix is singular: "
                       "a pivot of magnitude 0, not above limit 0;"
                       " largest / smallest nonzero |entry| 3.9e+17\n")

    def test_zero_pivot_message_names_the_range_of_the_powers(self, capsys):
        # at p = 200 the entries of D_p span 4^200 = 2.6e120, far beyond what
        # float64 resolves, and the LU of D_p meets an exactly zero pivot
        code, out, err = run(capsys, "analyze", DATA / "example_matrix.txt", "--p", "200")
        assert (code, out) == (3, "")
        assert err == ("error: LU of the 7x7 matrix is singular: "
                       "a pivot of magnitude 0, not above limit 0;"
                       " largest / smallest nonzero |entry| 2.58e+120\n")

    def test_exact_gap_above_its_upper_bound_exits_three(self, capsys, tmp_path):
        # the definition at e_a - e_b bounds gamma by d(a, b)^p = 1e-308; the
        # gap enumerated on an inaccurate hat matrix reads 1.25e-293
        path = tmp_path / "tiny.txt"
        path.write_text("labels: a b c\n3\n0 1e-308 1\n1e-308 0 1\n1 1 0\n")
        for extra in ([], ["--json"]):
            code, out, err = run(capsys, "analyze", path, *extra)
            assert (code, out) == (3, "")
            assert err == (
                "error: exact gamma 1.25260522501e-293 lies outside its definition bound"
                " [0, 1e-308], relative slack 1e-09\n"
            )

    def test_blas_thread_count_does_not_change_output(self, tmp_path):
        # n = 24 has the largest enumeration tables under the default cap; at
        # p = 3 line3 and the n = 20 space are not of negative type and get a
        # witness. At n = 150 and 192 two OpenBLAS threads would change the
        # last bits of the spectrum, lambda_penultimate, m_p and the bounds.
        src = str(Path(negtype.__file__).resolve().parent.parent)
        cases = [(DATA / "line3.txt", "3")]
        for name, space, ps in (
            ("euclidean20", random_euclidean(np.random.default_rng(20), 20), ("1", "1.5", "3")),
            ("euclidean24", random_euclidean(np.random.default_rng(24), 24), ("1", "1.5")),
            ("euclidean150", random_euclidean(np.random.default_rng(150), 150), ("1",)),
            ("ultrametric192", random_ultrametric(np.random.default_rng(192), 192), ("1",)),
        ):
            path = tmp_path / f"{name}.txt"
            rows = "\n".join(" ".join(repr(float(x)) for x in row) for row in space.dist)
            path.write_text(f"{space.n}\n{rows}\n")
            cases += [(path, p) for p in ps]
        for path, p in cases:
            reports = []
            for threads in ("1", "2"):
                env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
                argv = [sys.executable, "-m", "negtype.cli", "analyze", str(path), "--json",
                        "--oracle", "--p", p]
                done = subprocess.run(argv, env=env, capture_output=True, text=True)
                report = json.loads(done.stdout)
                report.pop("timing_seconds")
                reports.append((done.returncode, report))
            assert reports[0] == reports[1]
            code, report = reports[0]
            gap = report["gap"]
            if p == "3":
                assert (code, gap) == (2, None)
                assert report["witness_form_value"] > 0
            elif report["input"]["n"] > negtype.gap.DEFAULT_ENUMERATION_CAP:
                assert (code, gap["mode"]) == (0, "bounds")
                assert 0 < gap["lower"] <= gap["upper"]
            else:
                assert code == 0
                assert gap["oracle_gamma"] == pytest.approx(gap["gamma"], rel=1e-12, abs=0.0)

    def test_oracle_below_the_exact_gap_exits_three(self, capsys, monkeypatch):
        # the oracle's gamma bounds the gap from above; one that undercuts
        # the exact gap 0.387 leaves it outside [0, oracle]
        real = gap.gap_numeric_oracle
        monkeypatch.setattr(
            gap, "gap_numeric_oracle",
            lambda *args, **kwargs: replace(real(*args, **kwargs), gamma=0.25),
        )
        code, out, err = run(capsys, "analyze", DATA / "example_matrix.txt", "--oracle")
        assert (code, out) == (3, "")
        assert err == (
            "error: exact gamma 0.387045813586 lies outside its oracle bound"
            " [0, 0.25], relative slack 1e-09\n"
        )

    def test_mean_of_entries_summing_above_the_float_range(self, capsys, tmp_path):
        # 1e308 + 1e308 overflows; the mean bound is 1e308 and the report strict JSON
        path = tmp_path / "big.txt"
        path.write_text("2\n0 1e308\n1e308 0\n")
        code, out, err = run(capsys, "analyze", path, "--cap", "1", "--json")
        assert (code, err) == (0, "")
        gap_report = json.loads(out, parse_constant=_refuse)["gap"]
        assert gap_report["mean_bound"] == gap_report["upper"] == 1e308
        code, out, err = run(capsys, "analyze", path, "--json")
        assert (code, err) == (0, "")
        assert json.loads(out, parse_constant=_refuse)["gap"]["gamma"] == 1e308

    @pytest.mark.parametrize("command", [["analyze"], ["ultra", "bounds"]])
    def test_failed_u_p_check_prints_one_line(self, capsys, tmp_path, command):
        # at p = 250 the products D_p u_p overflow; the check refuses the
        # infinite residual with no numpy warning
        path = tmp_path / "u3.txt"
        path.write_text("3\n0 4 9\n4 0 9\n9 9 0\n")
        code, out, err = run(capsys, *command, path, "--p", "250")
        assert (code, out) == (3, "")
        assert err == "error: u_p residual inf exceeds limit 3.64e+230\n"


class TestGlue:
    def test_two_pairs(self, capsys):
        code, out, _ = run(
            capsys, "glue", DATA / "x2_ab.txt", DATA / "x2_cd.txt", "--c", "1", "--json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["classification"] == "Strict"
        assert report["bounds"]["lower"] == pytest.approx(0.25, abs=1e-12)
        assert report["bounds"]["upper"] == pytest.approx(0.5, abs=1e-12)
        assert report["glued_gamma_exact"] == pytest.approx(0.5, abs=1e-12)

    def test_boundary_case(self, capsys):
        code, out, _ = run(
            capsys, "glue", DATA / "x2_ab.txt", DATA / "x2_cd.txt", "--c", "0.5", "--json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["classification"] == "NonStrictBoundary"

    def test_bridge_too_short(self, capsys):
        code, _, err = run(
            capsys, "glue", DATA / "example_matrix.txt", DATA / "x2_ab.txt", "--c", "1"
        )
        assert code == 1
        assert "diameter" in err

    @pytest.mark.parametrize("extra", [[], ["--json"]])
    def test_infinite_bridge_exits_one(self, capsys, extra):
        # it failed later, on the overflow of the bridge power c^p
        code, out, err = run(capsys, "glue", DATA / "x5_a.txt", DATA / "x5_b.txt", "--c", "inf",
                             *extra)
        assert (code, out, err) == (1, "", "error: bridge distance must be finite, got inf\n")

    def test_one_spanning_tree_pass_per_space(self, capsys, spanning_tree_calls):
        code, _, _ = run(capsys, "glue", DATA / "x5_a.txt", DATA / "x5_b.txt", "--c", "5")
        assert code == 0
        assert spanning_tree_calls == [5, 5, 10]  # the two components and the glued space

    def test_component_above_the_cap_gets_a_note_not_bounds(self, capsys):
        argv = ["glue", DATA / "x5_a.txt", DATA / "x5_b.txt", "--c", "5", "--json", "--cap"]
        code, out, err = run(capsys, *argv, "4")
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["note"] == "a component of 5 points exceeds the enumeration cap 4"
        assert report["classification"] == "Strict"
        assert report["margin"] == pytest.approx(8.4, rel=1e-12)
        assert report["m_p_left"] == report["m_p_right"] == pytest.approx(0.8, rel=1e-12)
        for name in ("bounds", "gamma_left", "gamma_right", "glued_gamma_exact"):
            assert name not in report
        # at the component size the components get their exact gaps again;
        # only the 10-point glued space stays above the cap
        code, out, err = run(capsys, *argv, "5")
        at_cap = json.loads(out)
        code, out, err = run(capsys, *argv, "24")
        default = json.loads(out)
        for r in (at_cap, default):
            r.pop("timing_seconds")
        assert at_cap["bounds"]["lower"] <= default.pop("glued_gamma_exact") <= at_cap["bounds"]["upper"]
        assert (code, err, at_cap) == (0, "", default)

    def test_not_negative_type_glue_exits_two(self, capsys):
        code, out, _ = run(
            capsys, "glue", DATA / "x5_a.txt", DATA / "x5_b.txt", "--c", "0.5", "--json"
        )
        assert code == 2
        report = json.loads(out)
        assert report["classification"] == "NotNegativeType"
        assert report["margin"] == pytest.approx(-0.6, abs=1e-12)

    def test_component_gap_above_its_definition_bound_exits_three(self, capsys, tmp_path):
        # gap_exact refuses the gap 1.25e-293 of the 1e-308 component, so
        # no glue bounds are built from it; the glued space is above the cap
        path = tmp_path / "tiny.txt"
        path.write_text("labels: a b e\n3\n0 1e-308 1\n1e-308 0 1\n1 1 0\n")
        argv = ["glue", path, DATA / "x2_cd.txt", "--c", "5", "--cap", "4"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == (
            "error: exact gamma 1.25260522501e-293 lies outside its definition bound"
            " [0, 1e-308], relative slack 1e-09\n"
        )

    def test_exact_glued_gap_outside_its_bounds_exits_three(self, capsys, monkeypatch):
        # the glued gap 0.5 is the upper end of [0.25, 0.5]; an upper end of
        # 0.4 leaves it outside
        real = glue.glue_gap_bounds
        monkeypatch.setattr(
            glue, "glue_gap_bounds", lambda *args: replace(real(*args), upper=0.4)
        )
        argv = ["glue", DATA / "x2_ab.txt", DATA / "x2_cd.txt", "--c", "1"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == (
            "error: exact gamma 0.5 lies outside its glue bounds [0.25, 0.4],"
            " relative slack 1e-09\n"
        )

    def test_glued_space_is_built_only_for_its_exact_gap(self, capsys, spanning_tree_calls):
        # the components (5 points each) get exact gaps, the 10-point union does not
        argv = ["glue", DATA / "x5_a.txt", DATA / "x5_b.txt", "--c", "5", "--json", "--cap", "9"]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert "bounds" in report and "glued_gamma_exact" not in report
        assert spanning_tree_calls == [5, 5]

    def test_overflowing_bridge_power_exits_one(self, capsys, tmp_path):
        # the components are in range, but 2c^p is not; c**p raised OverflowError
        path = tmp_path / "x3.txt"
        path.write_text("3\n0 1 1\n1 0 1\n1 1 0\n")
        code, out, err = run(capsys, "glue", path, DATA / "x2_ab.txt", "--c", "1e10", "--p", "31")
        assert (code, out) == (1, "")
        assert err == "error: distance powers overflow at exponent 31.0\n"


class TestUltra:
    def test_decompose_from_edge_list(self, capsys):
        code, out, _ = run(capsys, "ultra", "decompose", DATA / "example_graph.txt")
        assert code == 0
        assert "(split=4 (split=3 (split=2 [a b @ 2] [c d @ 1]) [e f @ 1]) [g @ 0])" in out

    def test_decompose_json_splits(self, capsys):
        code, out, _ = run(capsys, "ultra", "decompose", DATA / "example_graph.txt", "--json")
        report = json.loads(out)
        distances = [s["split_distance"] for s in report["splits"]]
        assert distances == [4.0, 3.0, 2.0]

    def test_bounds_display(self, capsys):
        code, out, _ = run(capsys, "ultra", "bounds", DATA / "example_graph.txt", "--p", "1")
        assert code == 0
        assert "[2.5, 8.25]" in out
        assert "gamma in [0.121212121212, 0.4]" in out

    def test_bounds_factor_the_matrix_once(self, capsys, factorization_calls):
        code, _, _ = run(capsys, "ultra", "bounds", DATA / "example_graph.txt", "--json")
        assert code == 0
        assert factorization_calls == {"eigenvalues": 1, "eigenpairs": 0, "lu_factor": 1,
                                       "inv": {7: 1}}

    def test_bounds_json(self, capsys):
        code, out, _ = run(
            capsys, "ultra", "bounds", DATA / "example_graph.txt", "--p", "1", "--json"
        )
        report = json.loads(out)
        assert report["bounds"]["lower_reciprocal"] == pytest.approx(2.5, abs=1e-12)
        assert report["bounds"]["upper_reciprocal"] == pytest.approx(8.25, abs=1e-12)
        assert report["gamma_exact"] == pytest.approx(0.3870458135860979, rel=1e-12)

    def test_unbounded_gamma_prints_inf_in_text(self, capsys):
        code, out, _ = run(capsys, "ultra", "bounds", DATA / "x4.txt", "--full-split")
        assert code == 0
        assert "gamma in [0.111111111111, inf]\n" in out

    def test_asymptotic(self, capsys):
        code, out, _ = run(capsys, "ultra", "asymptotic", DATA / "example_graph.txt", "--json")
        report = json.loads(out)
        assert report["limit"] == pytest.approx(0.5, abs=1e-12)
        assert report["coteries"] == [["c", "d"], ["e", "f"]]

    def test_coteries_matrix_input(self, capsys):
        code, out, _ = run(capsys, "ultra", "coteries", DATA / "example_matrix.txt", "--json")
        report = json.loads(out)
        assert report["alpha"] == 1.0
        assert report["e"] == 2

    def test_non_ultrametric_exits_one(self, capsys):
        code, _, err = run(capsys, "ultra", "decompose", DATA / "line3.txt")
        assert code == 1
        assert "ultrametric" in err

    def test_full_split_decompose(self, capsys):
        code, out, _ = run(
            capsys, "ultra", "decompose", DATA / "x4.txt", "--full-split", "--json"
        )
        assert code == 0
        report = json.loads(out)
        assert len(report["splits"]) == 3  # caterpillar down to singletons

    def test_full_split_bounds_still_contain_gap(self, capsys):
        code, out, _ = run(
            capsys, "ultra", "bounds", DATA / "example_graph.txt", "--full-split", "--json"
        )
        report = json.loads(out)
        assert report["bounds"]["gamma_lower"] <= report["gamma_exact"]

    def test_exact_gap_outside_its_bounds_exits_three(self, capsys, tmp_path):
        # the {a b} block bounds gamma by 1e-308; the gap enumerated on an
        # inaccurate hat matrix reads 1.25e-293, which gap_exact refuses
        # against the definition bound d(a, b) before the recursive bounds
        path = tmp_path / "tiny.txt"
        path.write_text("labels: a b c\n3\n0 1e-308 1\n1e-308 0 1\n1 1 0\n")
        for extra in ([], ["--json"]):
            code, out, err = run(capsys, "ultra", "bounds", path, *extra)
            assert (code, out) == (3, "")
            assert err == (
                "error: exact gamma 1.25260522501e-293 lies outside its definition bound"
                " [0, 1e-308], relative slack 1e-09\n"
            )

    def test_exact_gap_outside_its_recursive_bounds_exits_three(self, capsys, monkeypatch):
        # the exact gap 0.387 lies in [0.121, 0.4]; a lower reciprocal of 3
        # moves the upper end to 1/3, below it
        real = ultrametric.recursive_gap_bounds
        monkeypatch.setattr(
            ultrametric, "recursive_gap_bounds",
            lambda *args, **kwargs: replace(real(*args, **kwargs), lower_reciprocal=3.0),
        )
        code, out, err = run(capsys, "ultra", "bounds", DATA / "example_graph.txt")
        assert (code, out) == (3, "")
        assert err == (
            "error: exact gamma 0.387045813586 lies outside its recursive bounds"
            " [0.121212121212, 0.333333333333], relative slack 1e-09\n"
        )

    @pytest.mark.parametrize(
        "text, labels, dist",
        [
            pytest.param("# head\n\n  # c\nlabels: a b\n2\n0 3\n3 0\n", ("a", "b"),
                         [[0, 3], [3, 0]], id="labels-line"),
            pytest.param("# head\n\n2 # count\n0 3\n3 0\n", ("x1", "x2"),
                         [[0, 3], [3, 0]], id="count-line"),
            pytest.param("# head\n\na b 3 # edge\n\nb c 1\n", ("a", "b", "c"),
                         [[0, 3, 3], [3, 0, 1], [3, 1, 0]], id="edge-list"),
            pytest.param("# head\n\n   \x0c# c\x0c\n2\n0 3\n3 0\n", ("x1", "x2"),
                         [[0, 3], [3, 0]], id="count-after-form-feed"),
            pytest.param("#" * 5000 + "\n\n\x0c2\x0c0 3\n3 0\n", ("x1", "x2"),
                         [[0, 3], [3, 0]], id="count-after-a-long-comment"),
        ],
    )
    def test_format_is_read_from_the_first_content_line(self, tmp_path, text, labels, dist):
        path = tmp_path / "space.txt"
        path.write_text(text)
        space = _load_ultra_space(str(path))
        assert space.labels == labels
        assert np.array_equal(space.dist, dist)

    def test_reading_a_matrix_file_holds_three_n_by_n_arrays(self, tmp_path):
        # two at a time: the parsed matrix and the subdominant, whose excess is
        # taken in place, then the parsed matrix and the space's copy of it;
        # the text is read line by line
        n = 400
        d = random_dendrogram(np.random.default_rng(3), n)
        path = tmp_path / "dendrogram.txt"
        path.write_text(f"{n}\n" + "".join(" ".join(map(repr, row)) + "\n" for row in d.tolist()))
        tracemalloc.start()
        try:
            space = _load_ultra_space(str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(space.dist, d)
        assert peak < 2.6 * (8 * n * n)

    @pytest.mark.parametrize("subcommand", ["decompose", "bounds", "coteries", "asymptotic"])
    @pytest.mark.parametrize("p", ["nan", "0", "-1"])
    def test_nonpositive_exponent_exits_one(self, capsys, tmp_path, subcommand, p):
        # the missing file is never opened: the exponent is checked first
        for path in (DATA / "example_graph.txt", tmp_path / "missing.txt"):
            code, out, err = run(capsys, "ultra", subcommand, path, f"--p={p}", "--json")
            assert (code, out) == (1, "")
            assert err == f"error: exponent must be positive, got {float(p)}\n"

    @pytest.mark.parametrize(
        "text, error",
        [
            pytest.param("a b 1\nb c inf\n", "line 2: edge (b, c) has non-finite weight inf",
                         id="only-edge-to-c"),
            pytest.param("a b 1\nb c 2\na c inf\n", "line 3: edge (a, c) has non-finite weight inf",
                         id="redundant-edge"),
        ],
    )
    def test_infinite_edge_weight_exits_one(self, capsys, tmp_path, text, error):
        # inf read as "no edge": a disconnected graph, or an edge dropped in silence
        path = tmp_path / "graph.txt"
        path.write_text(text)
        for subcommand in ("decompose", "bounds", "coteries", "asymptotic"):
            code, out, err = run(capsys, "ultra", subcommand, path, "--json")
            assert (code, out, err) == (1, "", f"error: {error}\n")

    def test_overflowing_exponent_exits_one(self, capsys):
        # the recursive bounds raised OverflowError here, a traceback
        code, out, err = run(capsys, "ultra", "bounds", DATA / "example_matrix.txt", "--p", "1000")
        assert (code, out) == (1, "")
        assert err == "error: distance powers overflow at exponent 1000.0\n"

    def test_comment_only_file_is_an_empty_edge_list(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n\n   # here\n")
        code, out, err = run(capsys, "ultra", "decompose", path)
        assert (code, out, err) == (1, "", "error: line 0: edge list is empty\n")

    def test_decompose_deeper_than_the_recursion_limit(self, capsys, tmp_path):
        n = sys.getrecursionlimit() + 100
        path = tmp_path / "caterpillar.txt"
        rows = "\n".join(" ".join(f"{x:g}" for x in row) for row in caterpillar(n))
        path.write_text(f"{n}\n{rows}\n")
        code, out, _ = run(capsys, "ultra", "decompose", path)
        assert code == 0
        assert f"decomposition: (split={n} (split={n - 1} " in out
        assert out.count("  split at ") == n - 2


ANALYZE_HEAD = """\
points: 7  labels: a b c d e f g
diameter 4  min distance 1  ratio 4
exponent p = 1
classification: StrictNegativeType
lambda[n-1] = -1  lambda[n] = 17.5117373824
M_p = 2.67755102041
"""
ULTRA_HEAD = "points: 7  labels: a b c d e f g\n"
COTERIES = """\
minimum distance alpha = 1
  coterie: {c d}
  coterie: {e f}
"""
TEXT_REPORTS = [
    pytest.param(
        ["analyze", "example_matrix.txt", "--oracle"], 0,
        ANALYZE_HEAD + """\
gap (exact, SignEnumeration): gamma = 0.387045813586  beta = 5.16734693878
maximizing signs: + - - + - + -
oracle cross-check: 0.387045813586 (200 restarts)
exponent enlargement xi = 0.0923651057655
""",
        id="analyze-exact",
    ),
    pytest.param(
        ["analyze", "example_matrix.txt", "--cap", "5"], 0,
        ANALYZE_HEAD
        + "gap bounds: [0.272508616533, 0.833333333333]  (7 points exceed the enumeration cap 5)\n",
        id="analyze-bounds",
    ),
    pytest.param(
        ["analyze", "line3.txt", "--p", "3"], 2,
        """\
points: 3  labels: u v w
diameter 2  min distance 1  ratio 2
exponent p = 3
classification: NotNegativeType
lambda[n-1] = -0.242640687119  lambda[n] = 8.24264068712
M_p = inf
gap: undefined (not of p-negative type)
witness (zero-sum, positive form value 0.5): -0.25 0.5 -0.25
""",
        id="analyze-witness",
    ),
    pytest.param(
        ["analyze", "line3.txt", "--p", "2", "--cap", "2"], 0,
        """\
points: 3  labels: u v w
diameter 2  min distance 1  ratio 2
exponent p = 2
classification: NegativeTypeNonStrict  [boundary]
lambda[n-1] = -0.449489742783  lambda[n] = 4.44948974278
M_p = inf
gap bounds: [0, 0]  (non-strict: gap is exactly 0)
""",
        id="analyze-non-strict-bounds",
    ),
    pytest.param(
        ["glue", "x2_ab.txt", "x2_cd.txt", "--c", "1"], 0,
        """\
glued 2 + 2 points at c = 1, p = 1
classification: Strict  margin = 1
M_p: left 0.5  right 0.5
gap bounds: [0.25, 0.5]  alpha = 2
exact glued gap: 0.5
""",
        id="glue",
    ),
    pytest.param(
        ["glue", "x5_a.txt", "x5_b.txt", "--c", "5", "--cap", "4"], 0,
        """\
glued 5 + 5 points at c = 5, p = 1
classification: Strict  margin = 8.4
M_p: left 0.8  right 0.8
gap bounds: not computed (a component of 5 points exceeds the enumeration cap 4)
""",
        id="glue-above-the-cap",
    ),
    pytest.param(
        ["ultra", "decompose", "example_graph.txt"], 0,
        ULTRA_HEAD + """\
decomposition: (split=4 (split=3 (split=2 [a b @ 2] [c d @ 1]) [e f @ 1]) [g @ 0])
  split at 4: {a b c d e f} | {g}
  split at 3: {a b c d} | {e f}
  split at 2: {a b} | {c d}
""",
        id="ultra-decompose",
    ),
    pytest.param(
        ["ultra", "bounds", "example_graph.txt"], 0,
        ULTRA_HEAD + """\
  block {a b} at 2: gamma = 2, reciprocal 0.5
  block {c d} at 1: gamma = 1, reciprocal 1
  block {e f} at 1: gamma = 1, reciprocal 1
  split at 4 (7 points): correction 1.75 (exact 0.334693877551)
  split at 3 (6 points): correction 2 (exact 0.487804878049)
  split at 2 (4 points): correction 2 (exact 0.8)
reciprocal gap in [2.5, 8.25]
gamma in [0.121212121212, 0.4]
exact gamma: 0.387045813586
""",
        id="ultra-bounds",
    ),
    pytest.param(
        ["ultra", "coteries", "example_graph.txt"], 0, ULTRA_HEAD + COTERIES,
        id="ultra-coteries",
    ),
    pytest.param(
        ["ultra", "asymptotic", "example_graph.txt"], 0,
        ULTRA_HEAD + COTERIES + "normalized gap limit: 0.5\n",
        id="ultra-asymptotic",
    ),
]


@pytest.mark.parametrize("argv, exit_code, text", TEXT_REPORTS)
def test_text_report_and_json_timing_last(capsys, argv, exit_code, text):
    argv = [DATA / a if a.endswith(".txt") else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (exit_code, "")
    body, timing = out.rsplit("timing: ", 1)
    assert body == text
    assert re.fullmatch(r"\d+\.\d{3} s\n", timing)
    code, out, _ = run(capsys, *argv, "--json")
    assert code == exit_code
    assert list(json.loads(out))[-1] == "timing_seconds"


@pytest.mark.parametrize(
    "argv, exit_code, inverses",
    [
        pytest.param(["analyze", "example_matrix.txt", "--cap", "5"], 0, {}, id="analyze-bounds"),
        pytest.param(["analyze", "line3.txt", "--p", "3"], 2, {}, id="analyze-witness"),
        pytest.param(["analyze", "example_matrix.txt", "--oracle"], 0, {7: 1, 8: 1},
                     id="analyze-oracle"),
        pytest.param(["glue", "x5_a.txt", "x5_b.txt", "--c", "5"], 0, {5: 2, 10: 1}, id="glue"),
    ],
)
def test_inverses_are_made_only_for_hat_matrices(capsys, factorization_calls, argv, exit_code,
                                                 inverses):
    # one D_p^-1 per hat matrix the command reads, and the oracle's bordered one
    argv = [DATA / a if a.endswith(".txt") else a for a in argv]
    code, _, err = run(capsys, *argv)
    assert (code, err) == (exit_code, "")
    assert factorization_calls["inv"] == inverses


@pytest.mark.parametrize(
    "argv, calls",
    [
        pytest.param(["analyze", "example_matrix.txt", "--oracle"], [7], id="analyze"),
        pytest.param(["ultra", "bounds", "example_graph.txt"], [7], id="ultra-bounds"),
        # bench/test_bench.py pins these 9 calls for 3 matrices as
        # glue.certify_per_op; one analysis per matrix in glue will lower both
        pytest.param(["glue", "x5_a.txt", "x5_b.txt", "--c", "5"], [5, 5, 5, 5, 5, 5, 5, 5, 10],
                     id="glue"),
    ],
)
def test_certify_calls_per_command(capsys, monkeypatch, argv, calls):
    # counted at the module attribute, the binding that the bench tracer wraps
    real, sizes = gap.certify, []
    monkeypatch.setattr(gap, "certify", lambda dp: sizes.append(dp.n) or real(dp))
    code, _, err = run(capsys, *(DATA / a if a.endswith(".txt") else a for a in argv))
    assert (code, err) == (0, "")
    assert sizes == calls


def test_main_builds_the_parser_once(capsys, monkeypatch):
    parsers = []
    real = argparse.ArgumentParser.parse_args

    def spy(parser, *args, **kwargs):
        parsers.append(parser)
        return real(parser, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    valid = ["ultra", "coteries", DATA / "example_graph.txt"]
    invalid = ["glue", DATA / "x5_a.txt", DATA / "x5_b.txt"]  # --c is required
    outcomes = []
    for argv in (valid, invalid, valid, invalid):
        code, out, err = run(capsys, *argv)
        outcomes.append((code, out.rsplit("timing: ", 1)[0], err))
    assert outcomes[:2] == outcomes[2:]
    assert outcomes[1][:2] == (1, "")  # a usage error is invalid input
    assert outcomes[1][2].endswith("error: the following arguments are required: --c\n")
    assert len(parsers) == 4 and all(p is parsers[0] for p in parsers)
    assert parsers[0].format_help() == _build_parser.__wrapped__().format_help()


@pytest.mark.parametrize("argv", [["--help"], ["glue", "--help"]])
def test_help_exits_zero(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: negtype")


@pytest.mark.parametrize("cap", ["0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [["analyze", "missing.txt"], ["glue", "missing.txt", "other.txt", "--c", "1"],
     ["ultra", "bounds", "missing.txt"], ["ultra", "decompose", "missing.txt"]],
    ids=["analyze", "glue", "ultra-bounds", "ultra-decompose"],
)
def test_cap_below_one_is_rejected_before_loading(capsys, tmp_path, argv, cap):
    # the files do not exist: the cap is checked first
    argv = [str(tmp_path / a) if a.endswith(".txt") else a for a in argv]
    code, out, err = run(capsys, *argv, "--cap", cap)
    assert (code, out) == (1, "")
    assert err == f"error: --cap must be at least 1, got {cap}\n"


@pytest.mark.parametrize(
    "argv",
    [["analyze", "{}"], ["ultra", "bounds", "{}"],
     *(["glue", "{}", "x2_cd.txt", "--c", c] for c in ("1", "5", "100"))],
    ids=["analyze", "ultra-bounds", "glue-c1", "glue-c5", "glue-c100"],
)
def test_hat_sum_above_the_float_range_exits_three(capsys, tmp_path, argv):
    # a valid ultrametric whose hat matrix reaches 5e307: sum|hat_ij|
    # overflows, so its tie tolerance would be infinite
    path = tmp_path / "tiny4.txt"
    path.write_text("labels: s a b e\n4\n0 1 1 1\n1 0 1e-308 1\n1 1e-308 0 1\n1 1 1 0\n")
    argv = [str(path) if a == "{}" else DATA / a if a.endswith(".txt") else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == "error: sum|hat_ij| = inf exceeds the float limit 1.8e+308\n"


def test_witness_form_value_is_the_certified_form(capsys):
    code, out, _ = run(capsys, "analyze", DATA / "line3.txt", "--p", "3", "--json")
    assert code == 2
    report = json.loads(out)
    dp = p_distance_matrix(_load_matrix_space(str(DATA / "line3.txt")), 3.0)
    w = dp.certificate.witness
    assert report["witness_form_value"] == dp.certificate.witness_form == float(w @ dp.entries @ w)
    assert report["witness_form_value"] == pytest.approx(0.5, rel=1e-15)


def _refuse(constant):
    raise ValueError(f"{constant} is not JSON")


def _null_paths(report, path=""):
    """The dotted paths of the nulls in a report; list items are not named."""
    if isinstance(report, dict):
        for key, value in report.items():
            yield from _null_paths(value, f"{path}.{key}" if path else key)
    elif isinstance(report, list):
        for item in report:
            yield from _null_paths(item, path)
    elif report is None:
        yield path


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["analyze", DATA / "x5_a.txt"], id="analyze"),
        pytest.param(["ultra", "coteries", DATA / "x5_a.txt"], id="ultra-coteries"),
        pytest.param(["glue", DATA / "x5_a.txt", DATA / "x5_b.txt", "--c", "2"], id="glue"),
    ],
)
@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_infinite_exponent_exits_one(capsys, argv, extra):
    # each printed "p": Infinity, which is not JSON, and exited 0
    code, out, err = run(capsys, *argv, "--p", "inf", *extra)
    assert (code, out, err) == (1, "", "error: exponent must be finite, got inf\n")


def test_every_json_report_is_strict_json(capsys, tmp_path):
    # an infinite value is written as null; the text reports keep "inf"
    files = sorted(DATA.glob("*.txt"))
    other_point = tmp_path / "other_point.txt"
    other_point.write_text("labels: lone\n1\n0\n", encoding="utf-8")
    commands = [["analyze", f, "--p", p, *extra]
                for f in files for p in ("1", "2") for extra in ([], ["--oracle"])]
    commands += [["ultra", sub, f, *extra] for f in files
                 for sub in ("decompose", "bounds", "coteries", "asymptotic")
                 for extra in ([], ["--full-split"])]
    commands += [["glue", a, b, "--c", "5"] for a in files for b in files]
    commands += [["glue", DATA / "single_point.txt", other_point, "--c", "5"]]
    nulls = set()
    for command in commands:
        code, out, _ = run(capsys, *command, "--json")
        if not out:
            continue
        # certificate.m_p stays Infinity: bench/reference.json freezes it for
        # analyze line3 --p 3, so it changes with the benchmark's reference
        report = json.loads(out.replace('"m_p": Infinity', '"m_p": null'), parse_constant=_refuse)
        nulls.update(_null_paths(report))
        if "leaves" in report.get("bounds", {}):
            bounds = report["bounds"]
            for leaf in bounds["leaves"]:
                assert (leaf["gamma"] is None) is (len(leaf["labels"]) == 1)
            assert (bounds["gamma_upper"] is None) is (bounds["lower_reciprocal"] == 0.0)
    assert {
        "gap.gamma", "gap.oracle_gamma", "gap.beta", "xi.xi", "gamma_left", "gamma_right",
        "bounds.upper", "bounds.gamma_upper", "bounds.leaves.gamma",
    } <= nulls


class TestSinglePoint:
    def test_analyze_single_point(self, capsys):
        code, out, _ = run(capsys, "analyze", DATA / "single_point.txt", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["certificate"]["classification"] == "StrictNegativeType"
        assert report["gap"]["gamma"] is None  # infinite: JSON null, and inf in the text
        assert report["gap"]["method"] == "SinglePoint"
        code, out, _ = run(capsys, "analyze", DATA / "single_point.txt")
        assert "gap (exact, SinglePoint): gamma = inf  beta = 0\n" in out

    def test_oracle_single_point_is_infinite(self, capsys):
        code, out, err = run(capsys, "analyze", DATA / "single_point.txt", "--json", "--oracle")
        assert code == 0
        assert err == ""
        assert json.loads(out)["gap"]["oracle_gamma"] is None
        code, out, err = run(capsys, "analyze", DATA / "single_point.txt", "--oracle")
        assert "oracle cross-check: inf (" in out

    @pytest.mark.parametrize("subcommand", ["coteries", "asymptotic"])
    def test_ultra_coteries_need_two_points(self, capsys, subcommand):
        code, out, err = run(capsys, "ultra", subcommand, DATA / "single_point.txt")
        assert (code, out, err) == (1, "", "error: coteries need at least two points\n")


@pytest.mark.parametrize(
    "text, commands",
    [
        pytest.param("3\n0 1 2\n1 0 2\n2 2 0\n", ["analyze", "ultra bounds"], id="matrix"),
        pytest.param("labels: a b c\n3\n0 1 2\n1 0 2\n2 2 0\n", ["analyze", "ultra bounds"],
                     id="labels-first"),
        pytest.param("a b 1\nb c 2\n", ["ultra bounds"], id="edge-list"),
    ],
)
def test_a_byte_order_mark_reads_like_its_absence(capsys, tmp_path, text, commands):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text(text, encoding="utf-8")
    marked.write_text("\ufeff" + text, encoding="utf-8")
    for command in commands:
        reports = []
        for path in (plain, marked):
            code, out, err = run(capsys, *command.split(), path, "--json")
            report = json.loads(out)
            report.pop("timing_seconds")
            reports.append((code, report, err))
        assert reports[0] == reports[1]
        assert reports[0][0] == 0


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
@pytest.mark.parametrize(
    "command, text",
    [
        pytest.param("ultra coteries", "3\n0 1 2\n1 0 2\n2 2 0\n", id="ultra-matrix"),
        pytest.param("ultra coteries", "a b 1\nb c 2\n", id="ultra-edge-list"),
        pytest.param("analyze", "3\n0 1 2\n1 0 2\n2 2 0\n", id="analyze"),
    ],
)
def test_piped_input_reads_like_a_file(capsys, tmp_path, command, text):
    # a pipe cannot seek: the ultra loader reads its format without going back
    src = str(Path(negtype.__file__).resolve().parent.parent)
    path = tmp_path / "space.txt"
    path.write_text(text, encoding="utf-8")
    argv = [sys.executable, "-m", "negtype.cli", *command.split(), "/dev/stdin", "--json"]
    done = subprocess.run(argv, input=text, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    code, out, err = run(capsys, *command.split(), path, "--json")
    piped, direct = json.loads(done.stdout), json.loads(out)
    piped.pop("timing_seconds")
    direct.pop("timing_seconds")
    assert (done.returncode, piped, done.stderr) == (code, direct, err)
    assert code == 0


NO_SCIPY_SCRIPT = """
import contextlib, io, json, sys
from negtype.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(json.dumps([codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def test_no_command_loads_scipy():
    # a fresh process: the test suite imports scipy itself
    src = str(Path(negtype.__file__).resolve().parent.parent)
    commands = [
        ["analyze", DATA / "example_matrix.txt", "--oracle"],
        ["analyze", DATA / "line3.txt", "--p", "3"],
        ["ultra", "bounds", DATA / "example_graph.txt", "--p", "1"],
        ["glue", DATA / "x5_a.txt", DATA / "x5_b.txt", "--c", "5"],
    ]
    argv = json.dumps([[str(a) for a in command] for command in commands])
    done = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), check=True)
    assert json.loads(done.stdout) == [[0, 2, 0, 0], []]
