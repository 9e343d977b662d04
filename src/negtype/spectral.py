"""Symmetric eigendecomposition and symmetric solves with one tolerance policy.

Every other module consumes this contract. The classification tolerance is
``zero_tol = 1e-9 * max(1, spectral norm)``; quantities within it of zero are
treated as zero. Solves use an LU factorization followed by fixed-precision
iterative refinement, which keeps small matrix entries meaningful even when
the entries span many orders of magnitude (large exponents p produce
p-distance matrices with enormous dynamic range).
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


def zero_tolerance(spectral_norm: float) -> float:
    return ZERO_TOL_FACTOR * max(1.0, float(spectral_norm))


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues with orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    zero_tol: float

    @property
    def spectral_norm(self) -> float:
        return float(np.abs(self.eigenvalues).max()) if self.eigenvalues.size else 0.0


@dataclass(frozen=True)
class SolveResult:
    solution: np.ndarray
    residual: float
    singular: bool


def _check_square_symmetric(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    scale = max(1.0, float(np.abs(a).max()) if a.size else 0.0)
    if a.size and float(np.abs(a - a.T).max()) > SYMMETRY_RTOL * scale:
        raise NotSymmetric("matrix is not symmetric within tolerance")
    return a


def sym_eigen(a) -> Spectrum:
    """Full spectrum of a symmetric matrix, eigenvalues ascending.

    Deterministic for identical input bits (LAPACK ``syevd`` via numpy).
    """
    a = _check_square_symmetric(a)
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    tol = zero_tolerance(np.abs(eigenvalues).max() if eigenvalues.size else 0.0)
    return Spectrum(eigenvalues=eigenvalues, eigenvectors=eigenvectors, zero_tol=tol)


def refined_solve(a: np.ndarray, rhs: np.ndarray, sweeps: int = _REFINE_SWEEPS) -> np.ndarray:
    """LU solve plus fixed-precision iterative refinement.

    Assumes ``a`` is nonsingular. Refinement drives the componentwise backward
    error toward machine precision, which plain LU does not guarantee for
    badly graded matrices.
    """
    lu = lu_factor(a)
    x = lu_solve(lu, rhs)
    for _ in range(sweeps):
        r = rhs - a @ x
        if not np.abs(r).any():
            break
        x = x + lu_solve(lu, r)
    return x


def solve_sym(a, rhs) -> SolveResult:
    """Least-residual solution of a symmetric system.

    The singular flag is set when the smallest eigenvalue magnitude falls
    under ``zero_tol``; in that case the solution is the pseudo-inverse
    solution with eigencomponents below tolerance dropped.
    """
    a = _check_square_symmetric(a)
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.shape != (a.shape[0],):
        raise DimensionMismatch(
            f"right-hand side shape {rhs.shape} does not match matrix of order {a.shape[0]}"
        )
    spectrum = sym_eigen(a)
    lam = spectrum.eigenvalues
    singular = bool(np.abs(lam).min() < spectrum.zero_tol)
    if singular:
        coeff = spectrum.eigenvectors.T @ rhs
        inv = np.where(np.abs(lam) < spectrum.zero_tol, 0.0, 1.0 / np.where(lam == 0.0, 1.0, lam))
        x = spectrum.eigenvectors @ (coeff * inv)
    else:
        x = refined_solve(a, rhs)
    residual = float(np.linalg.norm(a @ x - rhs))
    return SolveResult(solution=x, residual=residual, singular=singular)
