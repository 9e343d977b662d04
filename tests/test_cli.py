from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import negtype
from helpers import caterpillar, random_euclidean
from negtype import p_distance_matrix, spectral
from negtype.cli import _load_matrix_space, main

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    @pytest.mark.parametrize(
        "name, p, lu_calls",
        [
            pytest.param("example_matrix.txt", 1.0, 1, id="example_matrix.txt"),
            pytest.param("line3.txt", 1.0, 1, id="line3.txt"),
            pytest.param("single_point.txt", 1.0, 0, id="single_point.txt"),
            pytest.param("line3.txt", 2.0, 1, id="line3.txt-p2-boundary"),
            pytest.param("collinear6.txt", 2.0, 0, id="collinear6-p2-singular"),
        ],
    )
    def test_one_eigendecomposition_feeds_the_spectrum(
        self, capsys, tmp_path, factorization_calls, name, p, lu_calls
    ):
        path = DATA / name
        if name == "collinear6.txt":
            path = tmp_path / name
            rows = [" ".join(str(abs(i - j)) for j in range(6)) for i in range(6)]
            path.write_text("6\n" + "\n".join(rows) + "\n", encoding="utf-8")
        code, out, _ = run(capsys, "analyze", path, "--json", "--p", p)
        assert code == 0
        dp = p_distance_matrix(_load_matrix_space(str(path)), p)
        assert factorization_calls == {"sym_eigen": 1 if dp.n > 1 else 0, "lu_factor": lu_calls}
        report = json.loads(out)
        assert report["spectrum"] == [float(v) for v in spectral.sym_eigen(dp.entries).eigenvalues]
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

    def test_xi_exponent_modes(self, capsys):
        _, out_product, _ = run(capsys, "analyze", DATA / "example_matrix.txt", "--p", "2", "--json")
        _, out_power, _ = run(
            capsys, "analyze", DATA / "example_matrix.txt", "--p", "2", "--json",
            "--xi-exponent", "power",
        )
        xi_product = json.loads(out_product)["xi"]["xi"]
        xi_power = json.loads(out_power)["xi"]["xi"]
        assert xi_product != xi_power

    def test_negative_seed_is_rejected_before_loading(self, capsys, tmp_path):
        # the file does not exist: the seed is checked first
        code, out, err = run(capsys, "analyze", tmp_path / "missing.txt", "--oracle", "--seed", "-1")
        assert code == 1
        assert out == ""
        assert err == "error: --seed must be at least 0, got -1\n"

    def test_blas_thread_count_does_not_change_output(self, tmp_path):
        n = 20
        space = random_euclidean(np.random.default_rng(n), n)
        path = tmp_path / "euclidean20.txt"
        rows = "\n".join(" ".join(repr(float(x)) for x in row) for row in space.dist)
        path.write_text(f"{n}\n{rows}\n")
        src = str(Path(negtype.__file__).resolve().parent.parent)
        for p in ("1", "1.5"):
            reports = []
            for threads in ("1", "2"):
                env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
                argv = [sys.executable, "-m", "negtype.cli", "analyze", str(path), "--json",
                        "--oracle", "--p", p]
                done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
                report = json.loads(done.stdout)
                report.pop("timing_seconds")
                reports.append(report)
            assert reports[0] == reports[1]
            gap = reports[0]["gap"]
            assert gap["oracle_gamma"] == pytest.approx(gap["gamma"], rel=1e-12, abs=0.0)


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

    def test_one_spanning_tree_pass_per_space(self, capsys, spanning_tree_calls):
        code, _, _ = run(capsys, "glue", DATA / "x5_a.txt", DATA / "x5_b.txt", "--c", "5")
        assert code == 0
        assert spanning_tree_calls == [5, 5, 10]  # the two components and the glued space

    def test_not_negative_type_glue_exits_two(self, capsys):
        code, out, _ = run(
            capsys, "glue", DATA / "x5_a.txt", DATA / "x5_b.txt", "--c", "0.5", "--json"
        )
        assert code == 2
        report = json.loads(out)
        assert report["classification"] == "NotNegativeType"
        assert report["margin"] == pytest.approx(-0.6, abs=1e-12)


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
        assert factorization_calls == {"sym_eigen": 1, "lu_factor": 1}

    def test_bounds_json(self, capsys):
        code, out, _ = run(
            capsys, "ultra", "bounds", DATA / "example_graph.txt", "--p", "1", "--json"
        )
        report = json.loads(out)
        assert report["bounds"]["lower_reciprocal"] == pytest.approx(2.5, abs=1e-12)
        assert report["bounds"]["upper_reciprocal"] == pytest.approx(8.25, abs=1e-12)
        assert report["gamma_exact"] == pytest.approx(0.3870458135860979, rel=1e-12)

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

    def test_decompose_deeper_than_the_recursion_limit(self, capsys, tmp_path):
        n = sys.getrecursionlimit() + 100
        path = tmp_path / "caterpillar.txt"
        rows = "\n".join(" ".join(f"{x:g}" for x in row) for row in caterpillar(n))
        path.write_text(f"{n}\n{rows}\n")
        code, out, _ = run(capsys, "ultra", "decompose", path)
        assert code == 0
        assert f"decomposition: (split={n} (split={n - 1} " in out
        assert out.count("  split at ") == n - 2


class TestSinglePoint:
    def test_analyze_single_point(self, capsys):
        code, out, _ = run(capsys, "analyze", DATA / "single_point.txt", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["certificate"]["classification"] == "StrictNegativeType"
        assert report["gap"]["gamma"] == float("inf")
        assert report["gap"]["method"] == "SinglePoint"

    def test_oracle_single_point_is_infinite(self, capsys):
        code, out, err = run(capsys, "analyze", DATA / "single_point.txt", "--json", "--oracle")
        assert code == 0
        assert err == ""
        assert json.loads(out)["gap"]["oracle_gamma"] == float("inf")
