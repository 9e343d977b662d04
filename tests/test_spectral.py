from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import negtype
from negtype import discrete_space, p_distance_matrix, scale_space, spectral, sym_eigen
from negtype.cli import main
from negtype.spectral import lu_factor, refined_solve
from negtype.errors import DimensionMismatch, NoConvergence, NotSymmetric, ToleranceFailure


def test_discrete_space_spectrum():
    # all-ones minus identity: eigenvalues -1 (n-1 times) and n-1
    for n in range(2, 9):
        a = np.ones((n, n)) - np.eye(n)
        spec = sym_eigen(a)
        assert np.allclose(spec.eigenvalues[:-1], -1.0, atol=1e-10)
        assert abs(spec.eigenvalues[-1] - (n - 1)) <= 1e-10


def test_zero_matrix():
    spec = sym_eigen(np.zeros((4, 4)))
    assert np.array_equal(spec.eigenvalues, np.zeros(4))


def test_two_point_closed_form():
    spec = sym_eigen([[0.0, 2.0], [2.0, 0.0]])
    assert np.allclose(spec.eigenvalues, [-2.0, 2.0], atol=1e-12)


def test_not_symmetric():
    with pytest.raises(NotSymmetric):
        sym_eigen([[0.0, 1.0], [2.0, 0.0]])


def test_symmetry_limit_carries_the_unit():
    # the asymmetry is measured against max|a|, with no floor at 1
    with pytest.raises(NotSymmetric):
        sym_eigen([[0.0, 1e-13], [2e-13, 0.0]])
    for scale in (1e-13, 1.0, 1e13):
        spec = sym_eigen(scale * np.array([[0.0, 2.0], [2.0, 0.0]]))
        assert np.allclose(spec.eigenvalues, [-2.0 * scale, 2.0 * scale], rtol=1e-12, atol=0.0)
        with pytest.raises(NotSymmetric):
            sym_eigen(scale * np.array([[0.0, 1.0], [1.0 + 1e-9, 0.0]]))


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        sym_eigen(np.ones((3, 4)))


def test_eigh_failure_is_no_convergence(monkeypatch):
    def fails(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fails)
    with pytest.raises(NoConvergence, match="^Eigenvalues did not converge$") as info:
        sym_eigen(np.ones((3, 3)) - np.eye(3))
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def test_eigvalsh_failure_is_no_convergence(monkeypatch):
    def fails(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fails)
    with pytest.raises(NoConvergence, match="^Eigenvalues did not converge$"):
        sym_eigen(np.ones((3, 3)) - np.eye(3), vectors=False)


def test_values_only_spectrum():
    # the same checks and tolerance, no eigenvectors
    rng = np.random.default_rng(13)
    a = rng.standard_normal((12, 12))
    a = 0.5 * (a + a.T)
    values, pairs = sym_eigen(a, vectors=False), sym_eigen(a)
    assert values.eigenvectors is None
    assert np.abs(values.eigenvalues - pairs.eigenvalues).max() <= 1e-3 * pairs.zero_tol
    assert values.zero_tol == pytest.approx(pairs.zero_tol, rel=1e-12)
    with pytest.raises(NotSymmetric):
        sym_eigen([[0.0, 1.0], [2.0, 0.0]], vectors=False)


@pytest.mark.parametrize("vectors", [True, False])
def test_eigenvalue_outside_the_float_range_is_refused(vectors):
    # a valid metric near the float max: the top eigenvalue, about 2.35e308, is inf
    a = np.array([[0.0, 1e308, 1.5e308], [1e308, 0.0, 1e308], [1.5e308, 1e308, 0.0]])
    message = "eigenvalue inf of the 3x3 matrix is not finite; largest |entry| 1.5e+308"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sym_eigen(a, vectors=vectors)


def test_scaled_discrete_spectrum_closed_form():
    for n in range(2, 13):
        for p in (0.5, 1.0, 2.0):
            for scale in (1.0, 2.5):
                dp = p_distance_matrix(scale_space(discrete_space(n), scale), p)
                spec = sym_eigen(dp.entries)
                assert np.allclose(spec.eigenvalues[:-1], -scale**p, atol=1e-10)
                assert abs(spec.eigenvalues[-1] - (n - 1) * scale**p) <= 1e-10 * max(
                    1.0, (n - 1) * scale**p
                )


@settings(deadline=None, max_examples=40, derandomize=True)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 30))
def test_reconstruction(seed, n):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a = 0.5 * (a + a.T)
    spec = sym_eigen(a)
    rebuilt = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.T
    fro = np.linalg.norm(a, "fro")
    assert np.linalg.norm(a - rebuilt, "fro") <= 1e-9 * max(1.0, fro)


def test_deterministic_for_identical_input_bits():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((9, 9))
    a = 0.5 * (a + a.T)
    first = sym_eigen(a.copy())
    second = sym_eigen(a.copy())
    assert np.array_equal(first.eigenvalues, second.eigenvalues)
    assert np.array_equal(first.eigenvectors, second.eigenvectors)


def test_orthonormal_eigenvectors():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((12, 12))
    a = 0.5 * (a + a.T)
    spec = sym_eigen(a)
    gram = spec.eigenvectors.T @ spec.eigenvectors
    assert np.abs(gram - np.eye(12)).max() <= 1e-10


def test_eigenpair_residuals():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((10, 10))
    a = 0.5 * (a + a.T)
    spec = sym_eigen(a)
    for i in range(10):
        residual = a @ spec.eigenvectors[:, i] - spec.eigenvalues[i] * spec.eigenvectors[:, i]
        assert np.linalg.norm(residual) <= spec.zero_tol


def solve(a, rhs):
    """Refined solution of a x = rhs, starting from the inverse times rhs."""
    inverse = np.linalg.inv(a)
    return refined_solve(a, rhs, inverse @ rhs, inverse)


class TestSolve:
    def test_all_ones_minus_identity(self):
        a = np.ones((3, 3)) - np.eye(3)
        # verify by direct multiplication: (J - I) @ (0.5 * ones) = ones
        assert np.allclose(a @ (0.5 * np.ones(3)), np.ones(3))
        assert np.allclose(solve(a, np.ones(3)), 0.5 * np.ones(3), atol=1e-12)

    def test_identity(self):
        a, rhs = np.eye(3), np.array([1.0, 0.0, 0.0])
        assert np.array_equal(solve(a, rhs), rhs)

    def test_swap_matrix(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        solution = solve(a, np.ones(2))
        assert np.allclose(solution, np.ones(2), atol=1e-14)
        assert abs(solution.sum() - 2.0) <= 1e-14

    @settings(deadline=None, max_examples=40, derandomize=True)
    @given(seed=st.integers(0, 10**6), n=st.integers(2, 20), spd=st.booleans())
    def test_multiply_back(self, seed, n, spd):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        a = a @ a.T + np.eye(n) if spd else 0.5 * (a + a.T) + 0.1 * np.eye(n)
        rhs = rng.standard_normal(n)
        solution = solve(a, rhs)
        spectrum = sym_eigen(a)
        if np.abs(spectrum.eigenvalues).min() >= spectrum.zero_tol:
            err = np.linalg.norm(a @ solution - rhs)
            assert err <= 1e-9 * max(1.0, np.linalg.norm(rhs))

    def test_lu_factor_solves_for_the_ones_vector(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((8, 8)) + 8.0 * np.eye(8)
        b = lu_factor(a)
        assert b.shape == (8,)
        assert np.abs(a @ b - 1.0).max() <= 1e-13

    def test_exactly_singular_is_a_tolerance_failure(self):
        a = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 0.0, 1.0]])
        message = re.escape("LU of the 3x3 matrix is singular: a pivot of magnitude 0, not above"
                            " limit 0; largest / smallest nonzero |entry| 6")
        with pytest.raises(ToleranceFailure, match=message):
            lu_factor(a)

    def test_non_finite_solution_is_a_tolerance_failure(self):
        # the pivots are nonzero, but 1 / 1e-310 overflows: inf in b
        with pytest.raises(ToleranceFailure, match=r"has 1 non-finite entries, limit 0"):
            lu_factor(np.diag([1e-310, 1.0]))


class TestOneBlasThread:
    @pytest.fixture
    def setter(self):
        setter = spectral._blas_thread_setter()
        if setter is None:
            pytest.skip("numpy carries no OpenBLAS with openblas_set_num_threads_local")
        return setter

    def test_found_in_the_openblas_numpy_carries(self):
        # the benchmark runs on this wheel's OpenBLAS: the command line must
        # find its setter, or it runs on every thread the library starts
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        if blas != "scipy-openblas":
            pytest.skip(f"numpy is built with {blas}")
        assert spectral._blas_thread_setter() is not None

    def test_importing_looks_up_no_library(self):
        src = str(Path(negtype.__file__).resolve().parent.parent)
        code = ("import negtype.cli, negtype.spectral as s;"
                " print(s._blas_thread_setter.cache_info().currsize)")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src), check=True)
        assert done.stdout == "0\n"

    def test_restores_the_count_after_a_normal_exit(self, setter):
        before = setter(2)  # a count other than 1, so that the restore shows
        with spectral._one_blas_thread():
            inside = setter(1)  # returns the count in force and keeps it
        assert (inside, setter(before)) == (1, 2)

    def test_restores_the_count_after_an_exception(self, setter):
        before = setter(2)
        with pytest.raises(ToleranceFailure, match="^inside$"):
            with spectral._one_blas_thread():
                inside = setter(1)
                raise ToleranceFailure("inside")
        assert (inside, setter(before)) == (1, 2)

    def test_a_command_that_fails_restores_the_count(self, setter, capsys):
        # an asymmetric file raises inside the handler, as the benchmark's
        # expected-error requests do
        before = setter(2)
        data = Path(__file__).parent / "data"
        code = main(["analyze", str(data / "asymmetric.txt")])
        assert (code, setter(before)) == (1, 2)
        assert "symmetric" in capsys.readouterr().err

    def test_no_setter_is_a_no_op(self, monkeypatch):
        monkeypatch.setattr(spectral, "_blas_thread_setter", lambda: None)
        with spectral._one_blas_thread():
            spec = sym_eigen([[0.0, 2.0], [2.0, 0.0]], vectors=False)
        assert np.allclose(spec.eigenvalues, [-2.0, 2.0], atol=1e-12)
