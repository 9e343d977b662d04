from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from helpers import example_space, line_space, ultrametric_corpus
from negtype import metric, spectral


@pytest.fixture(scope="session")
def example78():
    return example_space()


@pytest.fixture(scope="session")
def line3():
    return line_space()


@pytest.fixture(scope="session")
def corpus():
    return ultrametric_corpus()


@pytest.fixture
def spanning_tree_calls(monkeypatch):
    """Sizes of the matrices given to ``metric._spanning_tree`` during the test."""
    real = metric._spanning_tree
    calls = []

    def counted(w):
        calls.append(w.shape[0])
        return real(w)

    monkeypatch.setattr(metric, "_spanning_tree", counted)
    return calls


@pytest.fixture
def factorization_calls(monkeypatch):
    """Calls of ``spectral.sym_eigen`` during the test, values-only ones under
    ``"eigenvalues"`` and those with eigenvectors under ``"eigenpairs"``; the
    calls of ``spectral.lu_factor``; and under ``"inv"`` the calls of
    ``numpy.linalg.inv`` by matrix size, so that an inverse of D_p (n x n) and
    the oracle's bordered inverse ((n + 1) x (n + 1)) are told apart."""
    calls = {"eigenvalues": 0, "eigenpairs": 0, "lu_factor": 0, "inv": Counter()}
    real_eigen, real_lu, real_inv = spectral.sym_eigen, spectral.lu_factor, np.linalg.inv

    def sym_eigen(a, *, vectors=True):
        calls["eigenpairs" if vectors else "eigenvalues"] += 1
        return real_eigen(a, vectors=vectors)

    def lu_factor(a):
        calls["lu_factor"] += 1
        return real_lu(a)

    def inv(a):
        calls["inv"][np.shape(a)[0]] += 1
        return real_inv(a)

    monkeypatch.setattr(spectral, "sym_eigen", sym_eigen)
    monkeypatch.setattr(spectral, "lu_factor", lu_factor)
    monkeypatch.setattr(np.linalg, "inv", inv)
    return calls


@pytest.fixture
def float_calls(monkeypatch):
    """Arguments of the ``float`` calls made in ``negtype.metric`` during the
    test, recorded through a module global that shadows the builtin."""
    calls = []

    def counted(x):
        calls.append(x)
        return float(x)

    monkeypatch.setattr(metric, "float", counted, raising=False)
    return calls
