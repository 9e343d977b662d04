"""The bridged-union construction and its inverse/gap algebra.

Two disjoint spaces are joined by setting every cross-distance to a constant
c with 2c at least the larger diameter. The p-distance matrix of the result
has an explicit block inverse, its hat form splits into component terms plus
a coupling square, and its gap is sandwiched by the harmonic combination of
the component gaps.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import inf

import numpy as np

from . import gap as gap_mod
from .errors import (
    BoundaryOrWorse,
    BridgeTooShort,
    ComponentNotStrict,
    LabelCollision,
)
from .metric import FiniteMetricSpace, PDistanceMatrix, p_distance_matrix, validate_metric
from .spectral import refined_solve


@dataclass(frozen=True)
class GlueSpec:
    """Two disjoint components and the bridging distance c."""

    left: FiniteMetricSpace
    right: FiniteMetricSpace
    c: float

    def __post_init__(self):
        if not self.c > 0:
            raise BridgeTooShort(f"bridge distance must be positive, got {self.c}")
        max_diam = max(float(self.left.dist.max()), float(self.right.dist.max()))
        if 2.0 * self.c < max_diam:
            raise BridgeTooShort(
                f"2c = {2.0 * self.c} is below the larger diameter {max_diam}"
            )
        overlap = set(self.left.labels) & set(self.right.labels)
        if overlap:
            raise LabelCollision(f"components share labels: {sorted(overlap)}")


class GlueClassification(Enum):
    STRICT = "Strict"
    NON_STRICT_BOUNDARY = "NonStrictBoundary"
    NOT_NEGATIVE_TYPE = "NotNegativeType"


@dataclass(frozen=True)
class GlueTypeResult:
    classification: GlueClassification
    margin: float
    m_p_left: float
    m_p_right: float
    tolerance: float


@dataclass(frozen=True)
class GlueGapBounds:
    lower: float
    upper: float
    alpha: float
    out_of_hypothesis: bool


@dataclass(frozen=True)
class GluedHatForm:
    """Hat-form values; fields are arrays when a batch of vectors is passed."""

    direct: float | np.ndarray
    decomposition: float | np.ndarray
    left_term: float | np.ndarray
    right_term: float | np.ndarray
    cross_term: float | np.ndarray


def glue_spaces(spec: GlueSpec) -> FiniteMetricSpace:
    """The combined space with all cross-distances equal to c."""
    n, m = spec.left.n, spec.right.n
    d = np.empty((n + m, n + m))
    d[:n, :n] = spec.left.dist
    d[n:, n:] = spec.right.dist
    d[:n, n:] = spec.c
    d[n:, :n] = spec.c
    return validate_metric(spec.left.labels + spec.right.labels, d)


def _component_certs(spec: GlueSpec, p: float):
    dp1 = p_distance_matrix(spec.left, p)
    dp2 = p_distance_matrix(spec.right, p)
    cert1 = gap_mod.certify(dp1)
    cert2 = gap_mod.certify(dp2)
    for side, cert in (("left", cert1), ("right", cert2)):
        if not cert.strict:
            raise ComponentNotStrict(f"{side} component is not of strict p-negative type")
    return dp1, dp2, cert1, cert2


def glue_type_condition(spec: GlueSpec, p: float) -> GlueTypeResult:
    """Classify the glued space by the sign of 2c^p - M_p(left) - M_p(right).

    Both components must be strict. A margin within tolerance of zero is the
    boundary case (negative type, not strict); a negative margin means the
    glued space is not of p-negative type at all.
    """
    _, _, cert1, cert2 = _component_certs(spec, p)
    margin = 2.0 * spec.c**p - cert1.m_p - cert2.m_p
    tol = 1e-9 * 2.0 * spec.c**p  # the margin's own unit, d^p
    if margin > tol:
        classification = GlueClassification.STRICT
    elif margin >= -tol:
        classification = GlueClassification.NON_STRICT_BOUNDARY
    else:
        classification = GlueClassification.NOT_NEGATIVE_TYPE
    return GlueTypeResult(
        classification=classification,
        margin=margin,
        m_p_left=cert1.m_p,
        m_p_right=cert2.m_p,
        tolerance=tol,
    )


def _require_strict_margin(spec: GlueSpec, p: float) -> GlueTypeResult:
    result = glue_type_condition(spec, p)
    if result.classification is not GlueClassification.STRICT:
        raise BoundaryOrWorse(
            f"margin {result.margin} is not positive beyond tolerance {result.tolerance}"
        )
    return result


def glued_inverse(
    dp1: PDistanceMatrix, dp2: PDistanceMatrix, c: float, p: float
) -> np.ndarray:
    """Block inverse of the glued p-distance matrix.

    Uses the two-sided rank-one-corrected block formula when both components
    have at least two points, and the bordered formula when one side is a
    single point (whose 1x1 zero block the two-sided formula cannot invert).
    """
    spec = GlueSpec(left=dp1.source, right=dp2.source, c=c)
    if dp1.p != p or dp2.p != p:
        raise ValueError("component matrices were built with a different exponent")
    _require_strict_margin(spec, p)
    n, m = dp1.n, dp2.n
    cp = c**p

    if n == 1 and m == 1:
        return np.array([[0.0, 1.0 / cp], [1.0 / cp, 0.0]])

    if m == 1:
        return _bordered_inverse(dp1.entries, cp, flip=False)
    if n == 1:
        return _bordered_inverse(dp2.entries, cp, flip=True)

    inv1 = refined_solve(dp1.entries, np.eye(n))
    inv2 = refined_solve(dp2.entries, np.eye(m))
    x1 = refined_solve(dp1.entries, np.ones(n))
    x2 = refined_solve(dp2.entries, np.ones(m))
    s1, s2 = float(x1.sum()), float(x2.sum())
    denom = 1.0 - cp**2 * s1 * s2
    alpha = cp**2 * s2 / denom
    beta = -cp / denom
    gamma = cp**2 * s1 / denom
    out = np.empty((n + m, n + m))
    out[:n, :n] = inv1 + alpha * np.outer(x1, x1)
    out[:n, n:] = beta * np.outer(x1, x2)
    out[n:, :n] = beta * np.outer(x2, x1)
    out[n:, n:] = inv2 + gamma * np.outer(x2, x2)
    return out


def _bordered_inverse(a: np.ndarray, cp: float, flip: bool) -> np.ndarray:
    """Inverse of [[A, cp*1], [cp*1^T, 0]]; ``flip`` puts the point first."""
    n = a.shape[0]
    inv = refined_solve(a, np.eye(n))
    x = refined_solve(a, np.ones(n))
    s = float(x.sum())
    out = np.empty((n + 1, n + 1))
    out[:n, :n] = inv - np.outer(x, x) / s
    out[:n, n] = x / (cp * s)
    out[n, :n] = x / (cp * s)
    out[n, n] = -1.0 / (cp**2 * s)
    if flip:
        order = [n] + list(range(n))
        out = out[np.ix_(order, order)]
    return out


def glued_hat_form(spec: GlueSpec, p: float, z) -> GluedHatForm:
    """Evaluate the glued hat form directly and by its three-term split.

    The split is the left component's hat form on the left part of z, the
    right component's on the right part, plus the coupling square scaled by
    the inverse margin. Single-point components contribute a zero hat term
    and couple through their (scalar) weight. ``z`` may be one vector or a
    batch stacked in rows; field values follow suit.
    """
    z = np.asarray(z, dtype=np.float64)
    n, m = spec.left.n, spec.right.n
    batched = z.ndim == 2
    if not batched:
        z = z[None, :]
    if z.shape[1] != n + m:
        raise ValueError(f"expected vectors of length {n + m}, got shape {z.shape}")
    dp1, dp2, cert1, cert2 = _component_certs(spec, p)
    margin = _require_strict_margin(spec, p).margin

    glued = glue_spaces(spec)
    dp = p_distance_matrix(glued, p)
    hat = gap_mod.hat_matrix(dp)
    direct = np.einsum("ij,ij->i", z @ hat, z)

    x, y = z[:, :n], z[:, n:]
    hat1 = gap_mod.hat_matrix(dp1, cert1)
    hat2 = gap_mod.hat_matrix(dp2, cert2)
    left_term = np.einsum("ij,ij->i", x @ hat1, x)
    right_term = np.einsum("ij,ij->i", y @ hat2, y)
    cross_term = (x @ cert1.u_p - y @ cert2.u_p) ** 2 / margin
    terms = (direct, left_term + right_term + cross_term, left_term, right_term, cross_term)
    return GluedHatForm(*(terms if batched else (float(t[0]) for t in terms)))


def glue_gap_bounds(
    spec: GlueSpec, p: float, gamma_left: float, gamma_right: float
) -> GlueGapBounds:
    """Harmonic-sum bounds on the glued gap from the component gaps.

    Single points contribute zero reciprocal (their gap is unbounded). When
    both components are single points the upper side is unbounded and the
    result is flagged as outside the theorem's hypothesis; the lower side is
    still valid.
    """
    dp1, dp2, cert1, cert2 = _component_certs(spec, p)
    margin = _require_strict_margin(spec, p).margin
    u1_norm = float(np.abs(cert1.u_p).sum())
    u2_norm = float(np.abs(cert2.u_p).sum())
    alpha = 0.5 * (u1_norm + u2_norm) ** 2 / margin
    r1 = 0.0 if gamma_left == inf else 1.0 / gamma_left
    r2 = 0.0 if gamma_right == inf else 1.0 / gamma_right
    lower = 1.0 / (r1 + r2 + alpha)
    upper = inf if r1 + r2 == 0.0 else 1.0 / (r1 + r2)
    return GlueGapBounds(
        lower=lower,
        upper=upper,
        alpha=alpha,
        out_of_hypothesis=max(dp1.n, dp2.n) < 2,
    )
