"""Symmetric eigendecomposition and refined LU solves with one tolerance policy.

Every other module consumes this contract. The classification tolerance is
``zero_tol = 1e-9 * spectral norm``, with no floor, so that it carries the
unit of the matrix; quantities within it of zero are treated as zero. Solves
use an LU factorization followed by fixed-precision iterative refinement,
which keeps small matrix entries meaningful even when the entries span many
orders of magnitude (large exponents p produce p-distance matrices with
enormous dynamic range).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .errors import DimensionMismatch, NoConvergence, NotSymmetric

#: Relative asymmetry accepted by sym_eigen.
SYMMETRY_RTOL = 1e-12

#: Factor for the zero-classification tolerance.
ZERO_TOL_FACTOR = 1e-9

_REFINE_SWEEPS = 3


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues with orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    zero_tol: float


def sym_eigen(a) -> Spectrum:
    """Full spectrum of a symmetric matrix, eigenvalues ascending.

    Deterministic for identical input bits (LAPACK ``syevd`` via numpy).
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    scale = max(1.0, float(np.abs(a).max()) if a.size else 0.0)
    if a.size and float(np.abs(a - a.T).max()) > SYMMETRY_RTOL * scale:
        raise NotSymmetric("matrix is not symmetric within tolerance")
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    tol = ZERO_TOL_FACTOR * float(np.abs(eigenvalues).max(initial=0.0))
    return Spectrum(eigenvalues=eigenvalues, eigenvectors=eigenvectors, zero_tol=tol)


def refined_solve(a: np.ndarray, rhs: np.ndarray, lu=None) -> np.ndarray:
    """LU solve plus fixed-precision iterative refinement.

    Assumes ``a`` is nonsingular. ``lu`` is ``lu_factor(a)`` when the caller
    already holds it; otherwise ``a`` is factored here. Refinement drives the
    componentwise backward error toward machine precision, which plain LU does
    not guarantee for badly graded matrices.
    """
    if lu is None:
        lu = lu_factor(a)
    x = lu_solve(lu, rhs)
    for _ in range(_REFINE_SWEEPS):
        r = rhs - a @ x
        if not np.abs(r).any():
            break
        x = x + lu_solve(lu, r)
    return x
