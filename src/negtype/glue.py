"""The bridged-union construction and its inverse/gap algebra.

Two disjoint spaces are joined by setting every cross-distance to a constant
c with 2c at least the larger diameter. Its hat form splits into the component
hat forms plus a coupling square over the margin 2c^p - M_p(left) - M_p(right),
its gap is sandwiched by the harmonic combination of the component gaps, and
the inverse of its p-distance matrix is read from the component certificates.
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
from .metric import (
    FiniteMetricSpace,
    PDistanceMatrix,
    _check_powers,
    _power,
    p_distance_matrix,
    validate_metric,
)
from .spectral import refined_solve  # noqa: F401 (unused; bench/test_bench.py pins this tracer binding)


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
    cert1, cert2 = dp1.certificate, dp2.certificate
    for side, cert in (("left", cert1), ("right", cert2)):
        if not cert.strict:
            raise ComponentNotStrict(f"{side} component is not of strict p-negative type")
    return dp1, dp2, cert1, cert2


def glue_type_condition(spec: GlueSpec, p: float) -> GlueTypeResult:
    """Classify the glued space by the sign of 2c^p - M_p(left) - M_p(right).

    Both components must be strict. A margin within tolerance of zero is the
    boundary case (negative type, not strict); a negative margin means the
    glued space is not of p-negative type at all. Raises ValueError, as
    ``p_distance_matrix`` does, when 2c^p leaves the float range.
    """
    _, _, cert1, cert2 = _component_certs(spec, p)
    c_p = _power(spec.c, p)
    _check_powers([spec.c], [2.0 * c_p], p)
    margin = 2.0 * c_p - cert1.m_p - cert2.m_p
    tol = 1e-9 * 2.0 * c_p  # the margin's own unit, d^p
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


def glued_inverse(dp1: PDistanceMatrix, dp2: PDistanceMatrix, c: float) -> np.ndarray:
    """Inverse of the glued p-distance matrix, from the component certificates.

    A strict D_p has b = u_p / M_p and (b | 1) = 1 / M_p, so D_p^-1 is
    u_p u_p^T / M_p - hat. The glued hat is hat_L (+) hat_R + w w^T / margin
    with w = (u_L, -u_R) (see ``glued_hat_form``). With t = (c^p - M_R) / margin,
    u_p = (t u_L, (1 - t) u_R) sums to one and D_p u_p = M_p 1 for
    M_p = t M_L + (1 - t) c^p = c^p - (c^p - M_L) t, formed with no c^2p to
    leave the float range. A single point has hat 0, u_p = (1) and M_p = 0,
    so one expression covers every size. The exponent is the components'
    own, which must agree.
    """
    spec = GlueSpec(left=dp1.source, right=dp2.source, c=c)
    p = dp1.p
    if dp2.p != p:
        raise ValueError("component matrices were built with a different exponent")
    dp1, dp2, cert1, cert2 = _component_certs(spec, p)
    margin = _require_strict_margin(spec, p).margin
    c_p = c**p  # finite: the margin check bounded 2c^p
    t = (c_p - cert2.m_p) / margin
    u = np.concatenate([t * cert1.u_p, (1.0 - t) * cert2.u_p])
    m_p = c_p - (c_p - cert1.m_p) * t
    w = np.concatenate([cert1.u_p, -cert2.u_p])
    hat = np.outer(w, w) / margin
    hat[: dp1.n, : dp1.n] += gap_mod.hat_matrix(dp1)
    hat[dp1.n :, dp1.n :] += gap_mod.hat_matrix(dp2)
    return np.outer(u, u) / m_p - hat


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
    hat1 = gap_mod.hat_matrix(dp1)
    hat2 = gap_mod.hat_matrix(dp2)
    left_term = np.einsum("ij,ij->i", x @ hat1, x)
    right_term = np.einsum("ij,ij->i", y @ hat2, y)
    cross_term = (x @ cert1.u_p - y @ cert2.u_p) ** 2 / margin
    terms = (direct, left_term + right_term + cross_term, cross_term)
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
