"""Symmetric eigendecomposition and refined solves with one tolerance policy.

Every other module consumes this contract. The classification tolerance is
``zero_tol = 1e-9 * spectral norm``, with no floor, so that it carries the
unit of the matrix; quantities within it of zero are treated as zero. All
LAPACK work goes through numpy, so a process loads one BLAS library. A
multithreaded OpenBLAS splits its work differently for each thread count and
so changes the last bits of its results; the command line runs every call on
the calling thread alone (``_one_blas_thread``), and library callers keep
their own BLAS settings. ``negtype.gap.certify`` classifies from the
eigenvalues alone and solves D_p once, for b = D_p^-1 1 (``lu_factor``); only
``negtype.gap.hat_matrix`` forms D_p^-1, and refines it
by fixed-precision iterative refinement (``refined_solve``), which keeps small
matrix entries meaningful even when the entries span many orders of magnitude
(large exponents p produce p-distance matrices with enormous dynamic range).
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np

from .errors import NoConvergence, NotSymmetric, ToleranceFailure

#: Relative asymmetry accepted by sym_eigen.
SYMMETRY_RTOL = 1e-12

#: Factor for the zero-classification tolerance.
ZERO_TOL_FACTOR = 1e-9

_REFINE_SWEEPS = 3


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Ascending eigenvalues, with orthonormal eigenvector columns when they
    were asked for."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    zero_tol: float


def sym_eigen(a, *, vectors: bool = True) -> Spectrum:
    """Spectrum of a symmetric matrix, eigenvalues ascending; with
    ``vectors=False`` the eigenvalues alone, about half the work.

    Deterministic for identical input bits on one BLAS thread count (LAPACK
    ``syevd`` via numpy). An eigenvalue outside the float range, which
    entries near the float max can give, raises ValueError.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    # a - a.T is exactly antisymmetric, so its max is its largest |entry|
    if a.size and float((a - a.T).max()) > SYMMETRY_RTOL * float(np.abs(a).max()):
        raise NotSymmetric("matrix is not symmetric within tolerance")
    try:
        if vectors:
            eigenvalues, eigenvectors = np.linalg.eigh(a)
        else:
            eigenvalues, eigenvectors = np.linalg.eigvalsh(a), None
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    if not np.isfinite(eigenvalues).all():
        bad = eigenvalues[~np.isfinite(eigenvalues)][0]
        raise ValueError(
            f"eigenvalue {bad} of the {a.shape[0]}x{a.shape[0]} matrix is not finite;"
            f" largest |entry| {float(np.abs(a).max()):.3g}"
        )
    tol = ZERO_TOL_FACTOR * float(np.abs(eigenvalues).max(initial=0.0))
    return Spectrum(eigenvalues=eigenvalues, eigenvectors=eigenvectors, zero_tol=tol)


@cache
def _blas_thread_setter():
    """``openblas_set_num_threads_local`` of the OpenBLAS that numpy's wheel
    carries (``numpy.libs``, or ``numpy/.dylibs`` on macOS), or None when
    there is no such library or symbol. It sets the thread count of the
    calling thread and returns the previous one."""
    package = Path(np.__file__).resolve().parent
    for path in sorted([*package.parent.glob("numpy.libs/*openblas*"),
                        *package.glob(".dylibs/*openblas*")]):
        try:
            setter = ctypes.CDLL(str(path)).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes = [ctypes.c_int]
        setter.restype = ctypes.c_int
        return setter
    return None


@contextmanager
def _one_blas_thread():
    """Run the body's BLAS and LAPACK calls on the calling thread alone, and
    restore the previous thread count on the way out; a no-op without
    ``_blas_thread_setter``. Up to n = 320 a second thread gains no wall time
    (2-vCPU x86-64), yet it spin-waits for about 130 ms after each call."""
    setter = _blas_thread_setter()
    if setter is None:
        yield
        return
    previous = setter(1)
    try:
        yield
    finally:
        setter(previous)


def lu_factor(a: np.ndarray) -> np.ndarray:
    """``a^-1 1`` for a square nonsingular ``a``, from one LAPACK ``gesv``.

    The name stays because ``bench/tracer.py`` wraps this binding to count
    solves per matrix. An exactly zero pivot or a non-finite entry in the
    result raises ToleranceFailure. The zero-pivot message gives the ratio of
    the largest to the smallest nonzero |entry|: a matrix whose entries span
    more than about 1e16 can lose a pivot to rounding alone.
    """
    n = a.shape[0]
    try:
        b = np.linalg.solve(a, np.ones(n))
    except np.linalg.LinAlgError as exc:
        nonzero = np.abs(a[a != 0])
        ratio = float(nonzero.max(initial=0.0)) / float(nonzero.min(initial=np.inf))
        raise ToleranceFailure(
            f"LU of the {n}x{n} matrix is singular: a pivot of magnitude 0, not above limit 0;"
            f" largest / smallest nonzero |entry| {ratio:.3g}"
        ) from exc
    bad = np.count_nonzero(~np.isfinite(b))
    if bad:
        raise ToleranceFailure(
            f"LU solve of the {n}x{n} matrix has {bad} non-finite entries, limit 0"
        )
    return b


def refined_solve(a: np.ndarray, rhs: np.ndarray, x: np.ndarray, inverse: np.ndarray) -> np.ndarray:
    """Fixed-precision iterative refinement of a solution ``x`` of a x = rhs.

    ``inverse`` approximates a^-1 (``np.linalg.inv``). Up to three sweeps
    add ``inverse @ (rhs - a x)``, stopping at an exactly zero residual; this
    drives the componentwise backward error toward machine precision, which a
    plain solve does not guarantee for badly graded matrices.
    """
    for _ in range(_REFINE_SWEEPS):
        r = rhs - a @ x
        if not np.abs(r).any():
            break
        x = x + inverse @ r
    return x
