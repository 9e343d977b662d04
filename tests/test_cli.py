from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import caterpillar
from negtype import p_distance_matrix, spectral
from negtype.cli import _load_matrix_space, main

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    @pytest.mark.parametrize("name", ["example_matrix.txt", "line3.txt", "single_point.txt"])
    def test_one_eigendecomposition_feeds_the_spectrum(self, capsys, monkeypatch, name):
        real = spectral.sym_eigen
        calls = []

        def counted(a):
            calls.append(1)
            return real(a)

        monkeypatch.setattr(spectral, "sym_eigen", counted)
        code, out, _ = run(capsys, "analyze", DATA / name, "--json", "--p", "1")
        assert code == 0
        dp = p_distance_matrix(_load_matrix_space(str(DATA / name)), 1.0)
        assert json.loads(out)["spectrum"] == [float(v) for v in real(dp.entries).eigenvalues]
        assert len(calls) == (1 if dp.n > 1 else 0)

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

    def test_threads_env_agrees(self, capsys):
        old = os.environ.get("NEGTYPE_THREADS")
        try:
            os.environ["NEGTYPE_THREADS"] = "2"
            _, out_threaded, _ = run(capsys, "analyze", DATA / "example_matrix.txt", "--json")
        finally:
            if old is None:
                os.environ.pop("NEGTYPE_THREADS", None)
            else:
                os.environ["NEGTYPE_THREADS"] = old
        _, out_serial, _ = run(capsys, "analyze", DATA / "example_matrix.txt", "--json")
        threaded, serial = json.loads(out_threaded), json.loads(out_serial)
        threaded.pop("timing_seconds"), serial.pop("timing_seconds")
        assert threaded == serial


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
