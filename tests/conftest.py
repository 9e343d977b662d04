from __future__ import annotations

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
    """Calls of ``spectral.sym_eigen`` and ``spectral.lu_factor`` during the test."""
    calls = {"sym_eigen": 0, "lu_factor": 0}

    def counting(name):
        real = getattr(spectral, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(spectral, name, counting(name))
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
