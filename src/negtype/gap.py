"""Negative-type certification and the exact gap.

A finite metric space (X, d) has p-negative type when the quadratic form of
its p-distance matrix is nonpositive on the zero-sum hyperplane F0, and
strict p-negative type when the form vanishes only at zero there. The gap
``gamma`` is the largest constant C with

    (C / 2) * (sum_i |a_i|)**2  +  sum_ij a_i a_j d(x_i, x_j)**p  <=  0

over all zero-sum weight vectors a. For strict spaces the gap equals
``2 / beta`` where beta maximizes the quadratic form of the "hat" matrix

    hat(A) = (A^-1 1)(A^-1 1)^T / (A^-1 1 | 1)  -  A^-1

over sign vectors z in {-1, 1}^n. This module certifies the type class,
computes the constant M_p = sup over the sum-one hyperplane of the form,
builds the hat matrix, and maximizes over sign vectors exhaustively, with an
independent sign-flip local search (its own bordered inverse, no hat matrix)
as a cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache
from math import inf

import numpy as np

from . import spectral
from .errors import (
    NotInF0,
    NotNegativeType,
    NotStrict,
    ToleranceFailure,
    TooManyPoints,
)
from .metric import PDistanceMatrix, is_ultrametric

DEFAULT_ENUMERATION_CAP = 24

_LOW_BITS = 14  # signs in the low block of the sign enumeration
_BLOCK_ENTRIES = 1 << 17  # values (1 MB) per enumeration block


class Classification(Enum):
    NOT_NEGATIVE_TYPE = "NotNegativeType"
    NEGATIVE_TYPE_NON_STRICT = "NegativeTypeNonStrict"
    STRICT_NEGATIVE_TYPE = "StrictNegativeType"


class GapMethod(Enum):
    SIGN_ENUMERATION = "SignEnumeration"
    DEFINITION_ZERO = "DefinitionZero"
    SINGLE_POINT = "SinglePoint"


@dataclass(frozen=True)
class NegTypeCertificate:
    """Spectral and solvability evidence for the type classification.

    ``b`` solves D_p b = 1 (least-residual when D_p is singular); ``lu`` is
    the LU factor of D_p that solved for it, or None when ``certify`` took b
    from the eigenpairs or found no b. ``hat_matrix`` reuses ``lu``.
    """

    classification: Classification
    m_p: float
    zero_tol: float
    eigenvalues: np.ndarray  # ascending spectrum of D_p
    lambda_penultimate: float | None = None
    lambda_max: float | None = None
    b: np.ndarray | None = None
    b_dot_one: float | None = None
    m_p_reason: str | None = None
    u_p: np.ndarray | None = None
    witness: np.ndarray | None = None
    boundary_warning: bool = False
    lu: tuple | None = None  # scipy.linalg.lu_factor(D_p)

    @property
    def strict(self) -> bool:
        return self.classification is Classification.STRICT_NEGATIVE_TYPE


@dataclass(frozen=True)
class GapResult:
    gamma: float
    beta: float
    z_star: np.ndarray | None
    method: GapMethod


@dataclass(frozen=True)
class OracleResult:
    """Best restart of the numeric oracle; ``iterations`` is the number of
    flip rounds the search ran (at most ``max_iterations``)."""

    gamma: float
    minimizer: np.ndarray
    restarts: int
    iterations: int


def _f0_witness(dp: np.ndarray) -> np.ndarray:
    """Best-effort zero-sum vector with a positive quadratic form value."""
    n = dp.shape[0]
    proj = np.eye(n) - np.full((n, n), 1.0 / n)
    spectrum = spectral.sym_eigen(proj @ dp @ proj)
    w = spectrum.eigenvectors[:, -1]
    w = w - w.mean()
    norm = np.abs(w).sum()
    return w / norm if norm > 0 else w


def certify(dp: PDistanceMatrix) -> NegTypeCertificate:
    """Classify (strict) p-negative type with supporting evidence.

    Spaces of one point are strict by convention (M_p = 0, u_p = 1). For
    ultrametric sources strictness holds for every exponent, so they are
    certified directly; eigenvalue sign tests at the norm-scaled tolerance
    would misclassify them for large p, where the relevant eigenvalues are
    tiny relative to the matrix norm. All other inputs are classified by the
    spectral conditions: negative type needs a single positive eigenvalue and
    a solution b of D_p b = 1 with (b | 1) >= 0; strictness additionally
    needs nonsingularity and (b | 1) > 0.

    D_p is decomposed here once: one eigendecomposition, and one LU factor
    when b is solved for by LU (ultrametric or nonsingular input), which the
    certificate keeps for ``hat_matrix``. A singular D_p takes the
    least-residual b from the eigenpairs, with components under ``zero_tol``
    dropped.
    """
    n = dp.n
    if n == 1:
        return NegTypeCertificate(
            classification=Classification.STRICT_NEGATIVE_TYPE,
            m_p=0.0,
            u_p=np.ones(1),
            zero_tol=spectral.zero_tolerance(0.0),
            eigenvalues=np.zeros(1),
        )

    entries = dp.entries
    spectrum = spectral.sym_eigen(entries)
    lam = spectrum.eigenvalues
    ztol = spectrum.zero_tol
    lam_penult = float(lam[-2])
    lam_max = float(lam[-1])
    ultrametric = is_ultrametric(dp.source)
    nonsingular = ultrametric or bool(np.abs(lam).min() > ztol)
    lu = b = b_dot_one = None

    # negative type needs a single significantly positive eigenvalue and a b
    if ultrametric or (lam_max > ztol and lam_penult <= ztol):
        if nonsingular:
            lu = spectral.lu_factor(entries)
            b = spectral.refined_solve(entries, np.ones(n), lu)
        else:
            vectors = spectrum.eigenvectors
            inv = np.where(np.abs(lam) < ztol, 0.0, 1.0 / np.where(lam == 0.0, 1.0, lam))
            b = vectors @ ((vectors.T @ np.ones(n)) * inv)
            if not float(np.linalg.norm(entries @ b - np.ones(n))) <= ztol * np.sqrt(n):
                b = None  # 1 is not in the range of D_p, so no valid b exists
    if b is not None:
        b_dot_one = float(b.sum())
    if ultrametric and not b_dot_one > 0:
        raise ToleranceFailure(f"ultrametric (b | 1) = {b_dot_one:.3g} is not above 0")

    strict_spectrum = lam_penult < -ztol and nonsingular
    if b is None or b_dot_one < -ztol:
        classification = Classification.NOT_NEGATIVE_TYPE
        fields = dict(m_p=inf, m_p_reason="not of p-negative type", witness=_f0_witness(entries))
    elif ultrametric or (strict_spectrum and b_dot_one > ztol):
        classification = Classification.STRICT_NEGATIVE_TYPE
        u_p, m_p = b / b_dot_one, 1.0 / b_dot_one
        _check_u_p(entries, u_p, m_p)
        fields = dict(m_p=m_p, u_p=u_p)
    else:
        # Negative type but not certifiably strict. Near-zero (b | 1) is the
        # conservative boundary case; M_p is infinite exactly when (b | 1) ~ 0.
        classification = Classification.NEGATIVE_TYPE_NON_STRICT
        fields = dict(boundary_warning=strict_spectrum and abs(b_dot_one) <= ztol)
        if b_dot_one > ztol:
            fields.update(m_p=1.0 / b_dot_one)
        else:
            fields.update(m_p=inf, m_p_reason="(b | 1) is zero within tolerance")
    return NegTypeCertificate(
        classification=classification,
        lambda_penultimate=lam_penult,
        lambda_max=lam_max,
        b=b,
        b_dot_one=b_dot_one,
        lu=lu,
        zero_tol=ztol,
        eigenvalues=lam,
        **fields,
    )


def _check_u_p(entries: np.ndarray, u_p: np.ndarray, m_p: float) -> None:
    residual = float(np.abs(entries @ u_p - m_p).max())
    limit = 1e-8 * max(abs(m_p), 1e-300)
    if residual > limit:
        raise ToleranceFailure(f"u_p residual {residual:.3g} exceeds limit {limit:.3g}")
    if abs(float(u_p.sum()) - 1.0) > 1e-10:
        raise ToleranceFailure(f"u_p sums to {u_p.sum():.17g}, off 1 by more than limit 1e-10")


def hat_matrix(dp: PDistanceMatrix, cert: NegTypeCertificate | None = None) -> np.ndarray:
    """The rank-one-corrected negative inverse whose sign maximum gives the gap.

    Requires a strict space (nonsingular matrix with (D_p^-1 1 | 1) > 0).
    The result annihilates the all-ones vector.
    """
    if cert is None:
        cert = certify(dp)
    if not cert.strict:
        raise NotStrict("hat matrix is defined only for strict p-negative type")
    if dp.n == 1:
        return np.zeros((1, 1))
    inv = spectral.refined_solve(dp.entries, np.eye(dp.n), cert.lu)
    b = cert.b
    hat = np.outer(b, b) / b.sum() - inv
    hat = 0.5 * (hat + hat.T)
    residual = float(np.abs(hat @ np.ones(dp.n)).max())
    limit = 1e-8 * max(float(np.abs(hat).max()), 1e-300) * dp.n
    if residual > limit:
        raise ToleranceFailure(f"hat row-sum residual {residual:.3g} exceeds limit {limit:.3g}")
    return hat


@cache
def _sign_patterns(m: int) -> np.ndarray:
    """All 2**m sign vectors as read-only columns: z_c = -1 where bit m-1-c is set."""
    z = 1.0 - 2.0 * ((np.arange(1 << m) >> np.arange(m - 1, -1, -1)[:, None]) & 1)
    z.flags.writeable = False
    return z


def _sign_sums(weights: np.ndarray, base=0.0) -> np.ndarray:
    """``base + weights @ z`` over the columns z of _sign_patterns(weights.shape[1]).

    One small product covers the last (up to 8) coordinates; each earlier one
    doubles the columns, so no large, BLAS-threaded product is involved.
    """
    m = weights.shape[1]
    seed = min(m, 8)
    out = np.empty((weights.shape[0], 1 << m))
    out[:, : 1 << seed] = weights[:, m - seed :] @ _sign_patterns(seed) + base
    for c in range(m - seed - 1, -1, -1):
        width = 1 << (m - 1 - c)
        np.subtract(out[:, :width], weights[:, c, None], out=out[:, width : 2 * width])
        out[:, :width] += weights[:, c, None]
    return out


def _sign_maximum(
    hat: np.ndarray, low_bits: int = _LOW_BITS, block_entries: int = _BLOCK_ENTRIES
) -> tuple[np.ndarray, float]:
    """The sign vector z (first sign +1) maximizing (hat z | z), and that value.

    Vector k = (i << b) + j joins high pattern i over the first h = n - b
    coordinates to low pattern j over the last b = min(low_bits, n - 1):
    Q = qH[i] + qL[j] + (C[i] | zL[j]) with C = 2 zH hat[:h, h:], in blocks of
    at most ``block_entries`` values. Values within 4 n eps sum|hat_ij| of
    the maximum (a bound on the rounding gap between two summation orders)
    tie; the lexicographically smallest tied vector (the largest k) wins.
    """
    n = hat.shape[0]
    b = min(low_bits, n - 1)
    h = n - b
    z_low, z_high = _sign_patterns(b), _sign_patterns(h)[:, : 1 << (h - 1)]
    q_high = ((hat[:h, :h] @ z_high) * z_high).sum(axis=0)
    cross = 2.0 * (z_high.T @ hat[:h, h:])
    tol = 4.0 * n * np.finfo(np.float64).eps * float(np.abs(hat).sum())
    if h == 1:  # the lone high pattern joins the low table, which then holds every value
        values = q_high[0] + (z_low * _sign_sums(hat[1:, 1:], cross[0, :, None])).sum(axis=0)
        k = int(np.flatnonzero(values >= values.max() - tol)[-1])
    else:
        q_low = (z_low * _sign_sums(hat[h:, h:])).sum(axis=0)
        rows, best, found = max(1, block_entries >> b), -inf, []
        for start in range(0, len(q_high), rows):
            block = _sign_sums(cross[start : start + rows], q_high[start : start + rows, None])
            block += q_low
            top = float(block.max())
            if top >= best - tol:
                best = max(best, top)
                cand = np.flatnonzero(block >= best - tol)
                vals = block.ravel()[cand]
                # keep vectors worth more than all later ones, which win every tie with them
                keep = np.append(vals[:-1] > np.maximum.accumulate(vals[:0:-1])[::-1], True)
                found.append(((start << b) + cand[keep], vals[keep]))
        ks, vs = (np.concatenate(part) for part in zip(*found))
        k = int(ks[vs >= best - tol][-1])
    z_star = np.concatenate([z_high[:, k >> b], z_low[:, k & ((1 << b) - 1)]])
    return z_star, float(z_star @ hat @ z_star)


def gap_exact(
    dp: PDistanceMatrix,
    cap: int = DEFAULT_ENUMERATION_CAP,
    cert: NegTypeCertificate | None = None,
) -> GapResult:
    """Exact gap by exhaustive sign-vector maximization.

    The first sign is fixed to +1 (z and -z give equal values) and the rest
    meets in the middle; ties within 4 n eps sum|hat_ij| go to the
    lexicographically smallest vector, at which beta is evaluated, so no
    result depends on the blocking (see _sign_maximum). Non-strict spaces of
    negative type report exactly 0; single points are unbounded.
    """
    if cert is None:
        cert = certify(dp)
    n = dp.n
    if n == 1:
        return GapResult(gamma=inf, beta=0.0, z_star=np.ones(1), method=GapMethod.SINGLE_POINT)
    if cert.classification is Classification.NOT_NEGATIVE_TYPE:
        raise NotNegativeType("the gap is defined only for p-negative type spaces")
    if cert.classification is Classification.NEGATIVE_TYPE_NON_STRICT:
        return GapResult(gamma=0.0, beta=inf, z_star=None, method=GapMethod.DEFINITION_ZERO)
    if n > cap:
        raise TooManyPoints(n, cap)

    z_star, beta = _sign_maximum(hat_matrix(dp, cert))
    if not beta > 0:
        raise ToleranceFailure(f"sign maximum {beta:.3g} on a strict space is not above 0")
    return GapResult(
        gamma=2.0 / beta,
        beta=beta,
        z_star=z_star,
        method=GapMethod.SIGN_ENUMERATION,
    )


def gap_definition_check(dp: PDistanceMatrix, gamma: float, x) -> bool:
    """Whether the defining inequality holds at ``gamma`` for zero-sum ``x``."""
    x = np.asarray(x, dtype=np.float64)
    norm1 = float(np.abs(x).sum())
    if norm1 == 0.0:
        raise NotInF0("x must be nonzero")
    if abs(float(x.sum())) > 1e-12 * norm1:
        raise NotInF0("x does not lie on the zero-sum hyperplane")
    lhs = 0.5 * gamma * norm1**2 + float(x @ dp.entries @ x)
    return lhs <= 1e-12 * norm1**2 * max(1.0, gamma)


def gap_numeric_oracle(
    dp: PDistanceMatrix,
    restarts: int = 200,
    seed: int = 0,
    max_iterations: int = 600,
    cert: NegTypeCertificate | None = None,
) -> OracleResult:
    """Independent gap estimate by sign-flip local search, avoiding the hat matrix.

    K is minus the top-left n x n block of the inverse of the bordered matrix
    [[D_p, 1], [1^T, 0]]; it equals the hat matrix but is computed here, not
    taken from ``hat_matrix`` or the certificate. Seeded +-1 start vectors z,
    one per column, climb (K z | z) by best-improvement flips: each round,
    every column flips the sign with the largest gain K_ii - z_i w_i (w = K z,
    kept by one rank-one update per flip) when that gain exceeds
    4 n eps sum|K_ij|. The search stops when no column can improve or after
    ``max_iterations`` rounds; ``iterations`` in the result counts the rounds
    that flipped. The best column gives x = K z, mean-subtracted and
    1-normalized, and gamma = -2 (D_p x | x): a zero-sum x at which the
    defining inequality is tight, so gamma is an upper bound on the gap
    whatever the search found, and it equals the gap at the best sign vector.
    A single point has no nonzero zero-sum vector, so its gap is infinite, as
    in ``gap_exact``.
    """
    for name, value, least in (
        ("restarts", restarts, 1), ("max_iterations", max_iterations, 0), ("seed", seed, 0)
    ):
        if value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")
    if cert is None:
        cert = certify(dp)
    if not cert.strict:
        raise NotStrict("the numeric oracle requires a strict space")
    n = dp.n
    if n == 1:
        return OracleResult(gamma=inf, minimizer=np.zeros(1), restarts=restarts, iterations=0)
    bordered = np.ones((n + 1, n + 1))
    bordered[:n, :n] = dp.entries
    bordered[n, n] = 0.0
    k = -np.linalg.inv(bordered)[:n, :n]
    k = 0.5 * (k + k.T)
    z = np.random.default_rng(seed).choice((-1.0, 1.0), size=(n, restarts))
    z[-1, (z == z[0]).all(axis=0)] *= -1.0  # K z = 0 for a constant z
    w = k @ z
    diagonal = k.diagonal()[:, None]
    tol = 4.0 * n * np.finfo(np.float64).eps * float(np.abs(k).sum())
    columns = np.arange(restarts)
    iterations = 0
    while iterations < max_iterations:
        gain = diagonal - z * w
        rows = gain.argmax(axis=0)
        flip = gain[rows, columns] > tol
        if not flip.any():
            break
        iterations += 1
        rows, cols = rows[flip], columns[flip]
        w[:, cols] -= 2.0 * k[:, rows] * z[rows, cols]
        z[rows, cols] *= -1.0
    x = k @ z[:, int(np.einsum("ij,ij->j", z, w).argmax())]
    x -= x.mean()
    x /= np.abs(x).sum()
    return OracleResult(
        gamma=-2.0 * float(x @ dp.entries @ x),
        minimizer=x,
        restarts=restarts,
        iterations=iterations,
    )
