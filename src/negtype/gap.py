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
builds the hat matrix, and maximizes over sign vectors exactly, evaluating
only those that a bound does not rule out, with an independent sign-flip
local search (its own bordered inverse, no hat matrix) as a cross-check.
Every analysis here reads the one certificate that the matrix holds,
``PDistanceMatrix.certificate``; ``certify`` itself caches nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache
from math import inf

import numpy as np

from . import spectral
from .bounds import upper_bound_mean
from .errors import (
    NotInF0,
    NotNegativeType,
    NotStrict,
    ToleranceFailure,
    TooManyPoints,
)
from .metric import PDistanceMatrix, is_ultrametric

DEFAULT_ENUMERATION_CAP = 24
CONTAINMENT_RTOL = 1e-9  # relative slack of every check that an exact gap lies in its bounds

_DIRECT_POINTS = 12  # up to this n, one product of all sign vectors beats the tables
_HALF_BITS = 7  # signs in each of the two low blocks of the sign enumeration
_BLOCK_ENTRIES = 1 << 17  # values (1 MB) per enumeration block
_FLOAT_MAX = float(np.finfo(np.float64).max)


class Classification(Enum):
    NOT_NEGATIVE_TYPE = "NotNegativeType"
    NEGATIVE_TYPE_NON_STRICT = "NegativeTypeNonStrict"
    STRICT_NEGATIVE_TYPE = "StrictNegativeType"


class GapMethod(Enum):
    SIGN_ENUMERATION = "SignEnumeration"
    DEFINITION_ZERO = "DefinitionZero"
    SINGLE_POINT = "SinglePoint"


@dataclass(frozen=True, eq=False)
class NegTypeCertificate:
    """Spectral and solvability evidence for the type classification.

    It holds only what the classification read. ``b`` solves D_p b = 1: one
    LU solve, or the least-residual solution from the eigenpairs when D_p is
    singular. D_p^-1 is not kept; ``hat_matrix`` forms it. ``witness_form``
    is the (D_p w | w) at the ``witness`` w that ``certify`` checked positive.
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
    witness_form: float | None = None
    boundary_warning: bool = False

    @property
    def strict(self) -> bool:
        return self.classification is Classification.STRICT_NEGATIVE_TYPE


@dataclass(frozen=True, eq=False)
class GapResult:
    gamma: float
    beta: float
    z_star: np.ndarray | None
    method: GapMethod
    evaluated: int = 0  # sign vectors whose value the enumeration computed


@dataclass(frozen=True, eq=False)
class OracleResult:
    """Best restart of the numeric oracle; ``iterations`` is the number of
    flip rounds the search ran (at most ``max_iterations``)."""

    gamma: float
    minimizer: np.ndarray
    restarts: int
    iterations: int


def certify(dp: PDistanceMatrix) -> NegTypeCertificate:
    """Classify (strict) p-negative type with supporting evidence.

    Spaces of one point are strict by convention (M_p = 0, u_p = 1). For
    ultrametric sources strictness holds for every exponent, so they are
    certified directly; eigenvalue sign tests at the norm-scaled tolerance
    would misclassify them for large p, where the relevant eigenvalues are
    tiny relative to the matrix norm. All other inputs are classified by the
    spectral conditions: negative type needs a single positive eigenvalue and
    a solution b of D_p b = 1 with (b | 1) >= 0; strictness additionally
    needs nonsingularity and (b | 1) > 0. Each test compares like with like,
    so no decision depends on the unit of distance: eigenvalues with
    ``zero_tol`` (units of d^p), (b | 1) with 1e-9 ||b||_1 (units of 1/d^p),
    and the residual of D_p b = 1 with 1e-9 ||1||.

    D_p is decomposed here once: one eigendecomposition, and one solve
    ``spectral.lu_factor`` for b when D_p is ultrametric or nonsingular; no
    inverse is formed. A singular D_p takes the least-residual b from the
    eigenpairs, with components under ``zero_tol`` dropped.

    A space not of negative type gets its witness from the same eigenpairs:
    with v the top eigenvector and y = b when b exists (then (b | 1) < 0),
    else the next eigenvector, w = (1|y) v - (1|v) y, mean-subtracted,
    divided by ||w||_1 and signed so that its largest-magnitude entry is
    positive. D_p has positive off-diagonal entries, so v is a Perron vector
    with (1|v) != 0, and (D_p w | w) is (1|y)^2 lambda_n - (1|y)(1|v)^2 > 0
    for y = b, or (1|y)^2 lambda_n + (1|v)^2 lambda_{n-1} for the next
    eigenvector: positive when lambda_{n-1} > 0, and about (1|y)^2 lambda_n
    when D_p is singular with 1 outside its range. A form that is not
    positive raises ToleranceFailure, so a witness is always a witness.
    """
    n = dp.n
    if n == 1:
        return NegTypeCertificate(
            classification=Classification.STRICT_NEGATIVE_TYPE,
            m_p=0.0,
            u_p=np.ones(1),
            zero_tol=0.0,
            eigenvalues=np.zeros(1),
        )

    entries = dp.entries
    spectrum = spectral.sym_eigen(entries)
    lam, vectors, ztol = spectrum.eigenvalues, spectrum.eigenvectors, spectrum.zero_tol
    lam_penult = float(lam[-2])
    lam_max = float(lam[-1])
    ultrametric = is_ultrametric(dp.source)
    nonsingular = ultrametric or bool(np.abs(lam).min() > ztol)
    b = b_dot_one = None

    # negative type needs a single significantly positive eigenvalue and a b
    if ultrametric or (lam_max > ztol and lam_penult <= ztol):
        if nonsingular:
            b = spectral.lu_factor(entries)
        else:
            inv = np.where(np.abs(lam) < ztol, 0.0, 1.0 / np.where(lam == 0.0, 1.0, lam))
            b = vectors @ ((vectors.T @ np.ones(n)) * inv)
            residual = float(np.linalg.norm(entries @ b - np.ones(n)))
            if not residual <= spectral.ZERO_TOL_FACTOR * np.sqrt(n):
                b = None  # 1 is not in the range of D_p, so no valid b exists
    if b is not None:
        b_dot_one = float(b.sum())
        btol = spectral.ZERO_TOL_FACTOR * float(np.abs(b).sum())
    if ultrametric and not b_dot_one > 0:
        raise ToleranceFailure(f"ultrametric (b | 1) = {b_dot_one:.3g} is not above 0")

    strict_spectrum = lam_penult < -ztol and nonsingular
    if b is None or b_dot_one < -btol:
        classification = Classification.NOT_NEGATIVE_TYPE
        v, y = vectors[:, -1], vectors[:, -2] if b is None else b
        w = y.sum() * v - v.sum() * y
        w -= w.mean()
        w /= np.abs(w).sum() * np.sign(w[np.abs(w).argmax()])
        form = float(w @ entries @ w)
        if not form > 0:
            raise ToleranceFailure(f"witness form value {form:.3g} is not above limit 0")
        fields = dict(m_p=inf, m_p_reason="not of p-negative type", witness=w, witness_form=form)
    elif ultrametric or (strict_spectrum and b_dot_one > btol):
        classification = Classification.STRICT_NEGATIVE_TYPE
        u_p, m_p = b / b_dot_one, 1.0 / b_dot_one
        _check_u_p(entries, u_p, m_p)
        fields = dict(m_p=m_p, u_p=u_p)
    else:
        # Negative type but not certifiably strict. Near-zero (b | 1) is the
        # conservative boundary case; M_p is infinite exactly when (b | 1) ~ 0.
        classification = Classification.NEGATIVE_TYPE_NON_STRICT
        fields = dict(boundary_warning=strict_spectrum and abs(b_dot_one) <= btol)
        if b_dot_one > btol:
            fields.update(m_p=1.0 / b_dot_one)
        else:
            fields.update(m_p=inf, m_p_reason="(b | 1) is zero within tolerance")
    return NegTypeCertificate(
        classification=classification,
        lambda_penultimate=lam_penult,
        lambda_max=lam_max,
        b=b,
        b_dot_one=b_dot_one,
        zero_tol=ztol,
        eigenvalues=lam,
        **fields,
    )


def _check_u_p(entries: np.ndarray, u_p: np.ndarray, m_p: float) -> None:
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite residual fails below
        residual = float(np.abs(entries @ u_p - m_p).max())
    limit = 1e-8 * max(abs(m_p), 1e-300)
    if not residual <= limit:
        raise ToleranceFailure(f"u_p residual {residual:.3g} exceeds limit {limit:.3g}")
    if abs(float(u_p.sum()) - 1.0) > 1e-10:
        raise ToleranceFailure(f"u_p sums to {u_p.sum():.17g}, off 1 by more than limit 1e-10")


def hat_matrix(dp: PDistanceMatrix) -> np.ndarray:
    """The rank-one-corrected negative inverse whose sign maximum gives the gap.

    Requires a strict space (nonsingular matrix with (D_p^-1 1 | 1) > 0).
    Only here is D_p^-1 formed: ``np.linalg.inv`` repeats the LU that
    ``certify``'s solve ran without a zero pivot, and up to three sweeps of
    ``spectral.refined_solve`` refine it. A non-finite entry raises
    ToleranceFailure, which the row-sum test (limit scaling with max|hat|)
    would miss; a NaN row-sum residual fails that test. The rank-one term
    b b^T / (b | 1) is formed as b u_p^T, with no product b_i b_j to leave
    the float range when d^p does. The result annihilates the all-ones vector.
    """
    cert = dp.certificate
    if not cert.strict:
        raise NotStrict("hat matrix is defined only for strict p-negative type")
    if dp.n == 1:
        return np.zeros((1, 1))
    inv = np.linalg.inv(dp.entries)
    if bad := np.count_nonzero(~np.isfinite(inv)):
        raise ToleranceFailure(f"D_p^-1 ({dp.n}x{dp.n}) has {bad} non-finite entries, limit 0")
    inv = spectral.refined_solve(dp.entries, np.eye(dp.n), inv, inv)
    hat = np.outer(cert.b, cert.u_p) - inv
    hat = 0.5 * (hat + hat.T)
    residual = float(np.abs(hat @ np.ones(dp.n)).max())
    limit = 1e-8 * max(float(np.abs(hat).max()), 1e-300) * dp.n
    if not residual <= limit:
        raise ToleranceFailure(f"hat row-sum residual {residual:.3g} exceeds limit {limit:.3g}")
    return hat


@cache
def _sign_patterns(m: int) -> np.ndarray:
    """All 2**m sign vectors as read-only columns: z_c = -1 where bit m-1-c is set."""
    z = 1.0 - 2.0 * ((np.arange(1 << m) >> np.arange(m - 1, -1, -1)[:, None]) & 1)
    z.flags.writeable = False
    return z


def _forms(block: np.ndarray, z: np.ndarray) -> np.ndarray:
    """(block z | z) for every column z."""
    return np.einsum("ij,ij->j", block @ z, z)


def _ties(values: np.ndarray, best: float, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices (ascending) and values of the entries within tol of best
    that are worth more than every later entry: a later entry wins every tie,
    so no other entry can be the tied vector with the largest index."""
    index = np.flatnonzero(values >= best - tol)
    vals = values.ravel()[index]
    keep = np.append(vals[:-1] > np.maximum.accumulate(vals[:0:-1])[::-1], True)
    return index[keep], vals[keep]


def _sign_maximum(
    hat: np.ndarray, block_entries: int = _BLOCK_ENTRIES
) -> tuple[np.ndarray, float, int]:
    """The sign vector z (first sign +1) maximizing (hat z | z), that value,
    and the number of sign vectors whose value was computed.

    Vector k has z_c = -1 where bit n-1-c of k is set, so the lexicographically
    smallest vector (-1 < +1) has the largest k. Values within
    4 n eps sum|hat_ij| of the maximum (a bound on the rounding gap between two
    summation orders) tie, the tied vector with the largest k wins, and the
    value is evaluated once more at it.

    Up to n = 12 one product evaluates every vector. Beyond, z = (zH, zA, zB)
    splits into the first h = n - 2a coordinates and two blocks of
    a = min(7, (n - 1) // 2), so that k = (i << 2a) + (alpha << a) + beta, and
    the value of k is P[i, alpha] + R[i, beta] + X[alpha, beta], with
    P = qHH + qAA + 2 zH hat_HA zA, R = qBB + 2 zH hat_HB zB and
    X = 2 zA hat_AB zB. No value in row (i, alpha) exceeds
    bound[i, alpha] = P[i, alpha] + max R[i] + max X[alpha]. The pair with the
    largest bound seeds the best value. High rows are then visited in
    descending order of their largest bound, in blocks of at most
    ``block_entries`` values. A block evaluates only the pairs whose bound is
    at least best - 2 tol (or all of its rows, when more than half of the
    pairs are), and the visit stops at the first row whose bound is below
    that.

    A sum|hat_ij| above the float range raises ToleranceFailure before any
    value is formed: its tie tolerance would be infinite.
    """
    n = hat.shape[0]
    with np.errstate(over="ignore"):  # an overflow to inf is refused below, not warned of
        total = float(np.abs(hat).sum())
    if not total <= _FLOAT_MAX:
        raise ToleranceFailure(
            f"sum|hat_ij| = {total:.3g} exceeds the float limit {_FLOAT_MAX:.3g}"
        )
    tol = 4.0 * n * np.finfo(np.float64).eps * total
    if n <= _DIRECT_POINTS:  # z holds the signs after the first
        z = _sign_patterns(n - 1)
        values = _forms(hat[1:, 1:], z) + (2.0 * hat[0, 1:] @ z + hat[0, 0])
        index, _ = _ties(values, float(values.max()), tol)
        z_star = np.concatenate([[1.0], z[:, index[-1]]])
        return z_star, float(z_star @ hat @ z_star), values.size

    a = min(_HALF_BITS, (n - 1) // 2)
    h = n - 2 * a
    high, half, low = slice(0, h), slice(h, h + a), slice(h + a, n)
    z_high, z_half = _sign_patterns(h)[:, : 1 << (h - 1)], _sign_patterns(a)
    cross = 2.0 * z_high.T
    p = _forms(hat[high, high], z_high)[:, None] + _forms(hat[half, half], z_half)
    p += (cross @ hat[high, half]) @ z_half
    r = _forms(hat[low, low], z_half) + (cross @ hat[high, low]) @ z_half
    x = (2.0 * z_half.T @ hat[half, low]) @ z_half
    bound = p + r.max(axis=1)[:, None] + x.max(axis=1)
    row_bound = bound.max(axis=1)
    order = np.argsort(-row_bound, kind="stable")
    # A value and its pair's bound are three-term sums of the same table
    # entries, the bound's terms no smaller. |P| + |R| + |X| <= sum|hat_ij|,
    # so the two sums' rounding differs by at most 2 eps sum|hat_ij| < tol
    # (summed in the same order, as here, rounding is monotone and a value
    # never exceeds its bound). A vector that ties with the final maximum is
    # worth at least best - tol whenever its pair is visited, so its bound is
    # at least best - 2 tol, and it is evaluated.
    mask = (1 << a) - 1  # the bits of one low pattern in k
    patterns = np.arange(1 << a) << a
    rows_per_block = max(1, block_entries >> (2 * a))
    # the values of the pair with the largest bound seed the pruning; the pair
    # is live in its row, whose block evaluates (and counts) it again
    i, alpha = np.unravel_index(int(bound.argmax()), bound.shape)
    best, found, evaluated = float((p[i, alpha] + r[i] + x[alpha]).max()), [], 0
    start, stop = 0, rows_per_block
    while start < len(order) and row_bound[order[start]] >= best - 2.0 * tol:
        rows = np.sort(order[start:stop])  # ascending k within the block
        live = bound[rows] >= best - 2.0 * tol
        if 2 * np.count_nonzero(live) > live.size:  # then whole rows cost less than gathering
            block = p[rows, :, None] + r[rows, None, :]
            block += x
            pairs = ((rows[:, None] << 2 * a) + patterns).ravel()
        else:
            at, alphas = np.nonzero(live)
            block = p[rows[at], alphas][:, None] + r[rows[at]]
            block += x[alphas]
            pairs = (rows[at] << 2 * a) + (alphas << a)
        evaluated += block.size
        top = float(block.max())
        if top >= best - tol:
            best = max(best, top)
            index, vals = _ties(block, best, tol)
            found.append((pairs[index >> a] + (index & mask), vals))
        start, stop = stop, stop + rows_per_block
    ks, vs = (np.concatenate(part) for part in zip(*found))
    k = int(ks[vs >= best - tol].max())
    z_star = np.concatenate(
        [z_high[:, k >> 2 * a], z_half[:, (k >> a) & mask], z_half[:, k & mask]]
    )
    return z_star, float(z_star @ hat @ z_star), evaluated


def gap_exact(dp: PDistanceMatrix, cap: int = DEFAULT_ENUMERATION_CAP) -> GapResult:
    """Exact gap by sign-vector maximization.

    The first sign is fixed to +1 (z and -z give equal values). Every other
    sign vector is either evaluated or bounded below the maximum; ties within
    4 n eps sum|hat_ij| go to the lexicographically smallest vector, at which
    beta is evaluated, so no result depends on the blocking or the pruning
    (see _sign_maximum). ``evaluated`` counts the sign vectors whose value was
    computed. Non-strict spaces of negative type report exactly 0; single
    points are unbounded. a = e_x - e_y gives gamma <= d(x, y)^p, so a gamma
    outside the definition bound [0, min(min d^p, ``upper_bound_mean``)]
    (``_check_containment``) comes from an inaccurate hat matrix and raises
    ToleranceFailure for every caller.
    """
    cert = dp.certificate
    n = dp.n
    if n == 1:
        return GapResult(gamma=inf, beta=0.0, z_star=np.ones(1), method=GapMethod.SINGLE_POINT)
    if cert.classification is Classification.NOT_NEGATIVE_TYPE:
        raise NotNegativeType("the gap is defined only for p-negative type spaces")
    if cert.classification is Classification.NEGATIVE_TYPE_NON_STRICT:
        return GapResult(gamma=0.0, beta=inf, z_star=None, method=GapMethod.DEFINITION_ZERO)
    if n > cap:
        raise TooManyPoints(n, cap)

    z_star, beta, evaluated = _sign_maximum(hat_matrix(dp))
    if not beta > 0:
        raise ToleranceFailure(f"sign maximum {beta:.3g} on a strict space is not above 0")
    gamma = 2.0 / beta
    bound = min(float(dp.entries[dp.entries > 0].min()), upper_bound_mean(dp))
    _check_containment(gamma, 0.0, bound, "definition bound")
    return GapResult(
        gamma=gamma,
        beta=beta,
        z_star=z_star,
        method=GapMethod.SIGN_ENUMERATION,
        evaluated=evaluated,
    )


def _check_containment(gamma: float, lower: float, upper: float, bounds: str) -> None:
    """Raise ToleranceFailure unless the exact ``gamma`` lies in [lower, upper]
    within the relative slack ``CONTAINMENT_RTOL`` at both ends: the one
    containment test of every exact gap, against its definition bound here
    and the recursive, glue and oracle bounds in the CLI."""
    if not lower * (1.0 - CONTAINMENT_RTOL) <= gamma <= upper * (1.0 + CONTAINMENT_RTOL):
        raise ToleranceFailure(
            f"exact gamma {gamma:.12g} lies outside its {bounds}"
            f" [{lower:.12g}, {upper:.12g}], relative slack {CONTAINMENT_RTOL:g}"
        )


def gap_definition_check(dp: PDistanceMatrix, gamma: float, x) -> bool:
    """Whether the defining inequality holds at ``gamma`` for zero-sum ``x``,
    within 1e-12 ||x||_1^2 (gamma / 2 + max|D_p|), in the unit d^p of its terms."""
    x = np.asarray(x, dtype=np.float64)
    norm1 = float(np.abs(x).sum())
    if norm1 == 0.0:
        raise NotInF0("x must be nonzero")
    if abs(float(x.sum())) > 1e-12 * norm1:
        raise NotInF0("x does not lie on the zero-sum hyperplane")
    lhs = 0.5 * gamma * norm1**2 + float(x @ dp.entries @ x)
    return lhs <= 1e-12 * norm1**2 * (0.5 * gamma + float(np.abs(dp.entries).max()))


def gap_numeric_oracle(
    dp: PDistanceMatrix,
    restarts: int = 200,
    seed: int = 0,
    max_iterations: int = 600,
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
    if not dp.certificate.strict:
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
