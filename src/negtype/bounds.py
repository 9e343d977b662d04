"""Closed-form and spectral bounds on the gap, and related identities.

Two distinct combinatorial coefficients share the same floor/ceiling shape
and are easy to confuse, so both get named functions: ``gamma_discrete`` is
the exact gap of the discrete n-point space, and ``gamma_xi`` is its
complement to one, used by the exponent-enlargement formula. Every bound
that reads d^p takes the ``PDistanceMatrix`` and reads its entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import inf, isinf, ldexp, log

import numpy as np

from .errors import (
    NonzeroDiagonal,
    NotStrict,
    TooFewPoints,
    TooManyPoints,
    ZeroGap,
)
from .metric import PDistanceMatrix, space_stats

#: Row sums are considered constant when their spread is below this, relatively.
ROW_SUM_RTOL = 1e-9

_AVERAGING_CAP = 20


def gamma_discrete(n: int) -> float:
    """Exact gap of the discrete n-point space: half of (1/floor + 1/ceil).

    Equals 2/n for even n and 2/(n - 1/n) for odd n, independent of the
    exponent.
    """
    if n < 2:
        raise TooFewPoints(f"need at least two points, got {n}")
    return 0.5 * (1.0 / (n // 2) + 1.0 / ((n + 1) // 2))


def gamma_xi(n: int) -> float:
    """The coefficient 1 - gamma_discrete(n) used by xi_enlargement."""
    return 1.0 - gamma_discrete(n)


def upper_bound_mean(dp: PDistanceMatrix) -> float:
    """Mean off-diagonal entry of D_p times the discrete-space gap.

    An upper bound on the gap of any space of p-negative type; tight exactly
    on discrete spaces. A sum of the entries above the float range is taken
    again over the entries scaled by a power of two, so the mean stays finite
    and equals ``off.mean()`` wherever that is.
    """
    n = dp.n
    if n < 2:
        raise TooFewPoints("the mean bound needs at least two points")
    off = dp.entries[~np.eye(n, dtype=bool)]
    with np.errstate(over="ignore"):
        mean = float(off.mean())
    if isinf(mean):
        shift = off.size.bit_length()
        mean = ldexp(float(np.ldexp(off, -shift).mean()), shift)
    return mean * gamma_discrete(n)


@dataclass(frozen=True)
class DiameterBound:
    value: float
    tight: bool


def upper_bound_diameter(dp: PDistanceMatrix) -> DiameterBound:
    """Largest entry of D_p times the discrete-space gap, with a tightness flag.

    Tight if and only if every off-diagonal distance equals the diameter.
    """
    n = dp.n
    if n < 2:
        raise TooFewPoints("the diameter bound needs at least two points")
    off = dp.source.dist[~np.eye(n, dtype=bool)]
    tight = bool((off == off.max()).all())
    return DiameterBound(value=float(dp.entries.max()) * gamma_discrete(n), tight=tight)


@dataclass(frozen=True)
class GapBounds:
    lower: float
    upper: float
    row_sum_factor: float | None = None
    constant_row_sum: bool | None = None


def spectral_bounds(dp: PDistanceMatrix) -> GapBounds:
    """Sandwich the gap between eigenvalue expressions (strict spaces only).

    The lower bound is |lambda_{n-1}| * gamma_discrete(n) scaled by the
    row-sum factor lambda_n / (n * M_p); the upper bound is |lambda_{n-1}|.
    The factor is at most one, with equality exactly when the p-distance
    matrix has constant row sums.
    """
    cert = dp.certificate
    if not cert.strict:
        raise NotStrict("spectral bounds require strict p-negative type")
    n = dp.n
    if n < 2:
        raise TooFewPoints("spectral bounds need at least two points")
    lam_penult = cert.lambda_penultimate
    lam_max = cert.lambda_max
    factor = lam_max / (n * cert.m_p)
    lower = factor * abs(lam_penult) * gamma_discrete(n)
    row_sums = dp.entries.sum(axis=1)
    spread = float(row_sums.max() - row_sums.min())
    constant = spread <= ROW_SUM_RTOL * float(np.abs(row_sums).max())
    return GapBounds(
        lower=lower,
        upper=abs(lam_penult),
        row_sum_factor=factor,
        constant_row_sum=constant,
    )


@dataclass(frozen=True)
class XiResult:
    """Length of the exponent interval above p on which strictness persists."""

    xi: float
    gamma_xi_n: float
    gamma: float
    diameter: float
    ratio: float
    n: int


def xi_enlargement(dp: PDistanceMatrix, gamma: float) -> XiResult:
    """Exponent-enlargement length from the gap, the diameter, and the ratio.

    xi = log(1 + gamma / (diameter**p * gamma_xi(n))) / log(ratio), where
    diameter**p is the largest entry of D_p. The gap and diameter**p share
    the unit d^p, so xi does not depend on the unit of distance. A distance
    ratio of one (all distances equal) makes the interval unbounded. A zero
    gap gives a zero-length interval; negative gaps and NaN are rejected.
    """
    if dp.n < 3:
        raise TooFewPoints("the enlargement formula needs at least three points")
    if not gamma >= 0:
        raise ZeroGap(f"gap must be nonnegative, got {gamma}")
    stats = space_stats(dp.source)
    g_xi = gamma_xi(dp.n)
    if stats.ratio == 1.0:
        xi = inf
    else:
        xi = log(1.0 + gamma / (float(dp.entries.max()) * g_xi)) / log(stats.ratio)
    return XiResult(
        xi=xi,
        gamma_xi_n=g_xi,
        gamma=gamma,
        diameter=stats.diameter,
        ratio=stats.ratio,
        n=dp.n,
    )


@dataclass(frozen=True)
class AveragingIdentity:
    lhs: float
    rhs: float
    sample_count: int


def averaging_identity(b) -> AveragingIdentity:
    """Average the form over balanced sign vectors and compare to closed form.

    For even n the vectors have entries in {-1, 1} with exactly n/2 ones and
    the average equals -n times the mean off-diagonal entry. For odd
    n = 2m + 1 the negative entries are -1 - 1/m, there are m + 1 ones, and
    the average equals -(m + 1) n / m times the mean off-diagonal entry.
    Both sides are returned for equality testing; this is a test oracle, so
    the enumeration is direct and capped.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {b.shape}")
    n = b.shape[0]
    if n < 2:
        raise TooFewPoints("need at least two points")
    if n > _AVERAGING_CAP:
        raise TooManyPoints(n, _AVERAGING_CAP)
    bad = np.flatnonzero(np.diag(b) != 0.0)
    if bad.size:
        raise NonzeroDiagonal(int(bad[0]))

    mean_off = float(b[~np.eye(n, dtype=bool)].mean())
    m = n // 2
    if n % 2 == 0:
        ones_count, low_value = m, -1.0
        rhs = -n * mean_off
    else:
        ones_count, low_value = m + 1, -1.0 - 1.0 / m
        rhs = -((m + 1) * n / m) * mean_off

    supports = list(combinations(range(n), ones_count))
    x = np.full((len(supports), n), low_value)
    for row, support in enumerate(supports):
        x[row, list(support)] = 1.0
    lhs = float(np.einsum("ij,ij->i", x @ b, x).mean())
    return AveragingIdentity(lhs=lhs, rhs=rhs, sample_count=len(supports))
