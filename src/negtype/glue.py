"""The bridged-union construction and its inverse/gap algebra.

Two disjoint spaces are joined by setting every cross-distance to a constant
c with 2c at least the larger diameter. Its hat form splits into the component
hat forms plus a coupling square over the margin 2c^p - M_p(left) - M_p(right),
its gap is sandwiched by the harmonic combination of the component gaps, and
the inverse of its p-distance matrix is read from the component certificates.
``_bridge`` holds the one merge rule, from the two components' M_p to the
union's; ``negtype.ultrametric`` applies it at every split of its tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import inf

import numpy as np

from . import gap as gap_mod
from .errors import BoundaryOrWorse, BridgeTooShort, LabelCollision, NotStrict
from .metric import (
    FiniteMetricSpace,
    PDistanceMatrix,
    _powers,
    p_distance_matrix,
    validate_metric,
)
from .spectral import ZERO_TOL_FACTOR
from .spectral import refined_solve  # noqa: F401 (unused; bench/test_bench.py pins this tracer binding)


@dataclass(frozen=True)
class GlueSpec:
    """Two disjoint components and the bridging distance c: positive and
    finite, with 2c at least the larger diameter."""

    left: FiniteMetricSpace
    right: FiniteMetricSpace
    c: float

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError(f"bridge distance must be positive, got {self.c}")
        if self.c == inf:
            raise ValueError(f"bridge distance must be finite, got {self.c}")
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


@dataclass(frozen=True, eq=False)
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


def _bridge(m_left: float, m_right: float, c_p: float) -> tuple[float, float, float]:
    """The bridged union's margin 2c^p - M_L - M_R, the weight t = (c^p - M_R) /
    margin of its left part, and its M_p = c^p - (c^p - M_L) t (see ``glued_inverse``)."""
    margin = 2.0 * c_p - m_left - m_right
    t = (c_p - m_right) / margin
    return margin, t, c_p - (c_p - m_left) * t


def _classify(dp1: PDistanceMatrix, dp2: PDistanceMatrix, c: float) -> GlueTypeResult:
    """``glue_type_condition`` from the certificates the component matrices
    hold. Checks that the exponents agree, then strictness, then 2c^p."""
    p = dp1.p
    if dp2.p != p:
        raise ValueError("component matrices were built with a different exponent")
    cert1, cert2 = dp1.certificate, dp2.certificate
    for side, cert in (("left", cert1), ("right", cert2)):
        if not cert.strict:
            raise NotStrict(f"{side} component is not of strict p-negative type")
    [c_p] = _powers([c], p, headroom=2.0).tolist()
    margin = 2.0 * c_p - cert1.m_p - cert2.m_p
    tol = ZERO_TOL_FACTOR * 2.0 * c_p  # the margin's own unit, d^p
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


def _strict_margin(result: GlueTypeResult) -> float:
    if result.classification is not GlueClassification.STRICT:
        raise BoundaryOrWorse(
            f"margin {result.margin} is not positive beyond tolerance {result.tolerance}"
        )
    return result.margin


def glue_type_condition(spec: GlueSpec, p: float) -> GlueTypeResult:
    """Classify the glued space by the sign of 2c^p - M_p(left) - M_p(right).

    Both components must be strict. A margin within tolerance of zero is the
    boundary case (negative type, not strict); a negative margin means the
    glued space is not of p-negative type at all. Raises ValueError, as
    ``p_distance_matrix`` does, when 2c^p leaves the float range.
    """
    return _classify(p_distance_matrix(spec.left, p), p_distance_matrix(spec.right, p), spec.c)


def glued_inverse(dp1: PDistanceMatrix, dp2: PDistanceMatrix, c: float) -> np.ndarray:
    """Inverse of the glued p-distance matrix, from the component certificates.

    A strict D_p has b = u_p / M_p and (b | 1) = 1 / M_p, so D_p^-1 is
    u_p u_p^T / M_p - hat. The glued hat is hat_L (+) hat_R + w w^T / margin
    with w = (u_L, -u_R) (see ``glued_hat_form``). With t = (c^p - M_R) / margin,
    u_p = (t u_L, (1 - t) u_R) sums to one and D_p u_p = M_p 1 for
    M_p = t M_L + (1 - t) c^p = c^p - (c^p - M_L) t, formed by ``_bridge`` with
    no c^2p to leave the float range. c^p is the array power of
    ``metric._powers``, bit for bit the cross entry of the glued D_p. A single
    point has hat 0, u_p = (1) and M_p = 0, so one expression covers every
    size. The exponent is the components' own, which must agree. The
    certificates are the ones the matrices hold.
    """
    GlueSpec(left=dp1.source, right=dp2.source, c=c)  # checks c and the labels
    _strict_margin(_classify(dp1, dp2, c))
    cert1, cert2 = dp1.certificate, dp2.certificate
    [c_p] = _powers([c], dp1.p).tolist()  # _classify bounded 2c^p
    margin, t, m_p = _bridge(cert1.m_p, cert2.m_p, c_p)
    u = np.concatenate([t * cert1.u_p, (1.0 - t) * cert2.u_p])
    w = np.concatenate([cert1.u_p, -cert2.u_p])
    hat = np.outer(w, w) / margin
    hat[: dp1.n, : dp1.n] += gap_mod.hat_matrix(dp1)
    hat[dp1.n :, dp1.n :] += gap_mod.hat_matrix(dp2)
    return np.outer(u, u) / m_p - hat


def glued_hat_form(dp1: PDistanceMatrix, dp2: PDistanceMatrix, c: float, z) -> GluedHatForm:
    """Evaluate the glued hat form directly and by its three-term split.

    The split is the left component's hat form on the left part of z, the
    right component's on the right part, plus the coupling square scaled by
    the inverse margin. Only the glued matrix is certified here. Single-point
    components contribute a zero hat term and couple through their (scalar)
    weight. ``z`` may be one vector or a batch stacked in rows; field values
    follow suit.
    """
    spec = GlueSpec(left=dp1.source, right=dp2.source, c=c)
    z = np.asarray(z, dtype=np.float64)
    n, m = dp1.n, dp2.n
    batched = z.ndim == 2
    if not batched:
        z = z[None, :]
    if z.shape[1] != n + m:
        raise ValueError(f"expected vectors of length {n + m}, got shape {z.shape}")
    margin = _strict_margin(_classify(dp1, dp2, c))

    dp = p_distance_matrix(glue_spaces(spec), dp1.p)
    hat = gap_mod.hat_matrix(dp)
    direct = np.einsum("ij,ij->i", z @ hat, z)

    x, y = z[:, :n], z[:, n:]
    left_term = np.einsum("ij,ij->i", x @ gap_mod.hat_matrix(dp1), x)
    right_term = np.einsum("ij,ij->i", y @ gap_mod.hat_matrix(dp2), y)
    cross_term = (x @ dp1.certificate.u_p - y @ dp2.certificate.u_p) ** 2 / margin
    terms = (direct, left_term + right_term + cross_term, cross_term)
    return GluedHatForm(*(terms if batched else (float(t[0]) for t in terms)))


def glue_gap_bounds(
    spec: GlueSpec, p: float, gamma_left: float, gamma_right: float
) -> GlueGapBounds:
    """Harmonic-sum bounds on the glued gap from the component gaps.

    Single points contribute zero reciprocal (their gap is unbounded). When
    both components are single points the upper side is unbounded and the
    result is flagged as outside the theorem's hypothesis; the lower side is
    still valid. Raises ValueError for a component gap that is not > 0, NaN
    included; inf, the gap of a single point, is accepted.
    """
    for name, gamma in (("gamma_left", gamma_left), ("gamma_right", gamma_right)):
        if not gamma > 0:
            raise ValueError(f"{name} must be positive, got {gamma}")
    margin = _strict_margin(glue_type_condition(spec, p))
    # certified again: cmd_glue keeps the 9 certify calls that bench/test_bench.py pins
    u1_norm, u2_norm = (
        float(np.abs(p_distance_matrix(side, p).certificate.u_p).sum())
        for side in (spec.left, spec.right)
    )
    alpha = 0.5 * (u1_norm + u2_norm) ** 2 / margin
    r1, r2 = 1.0 / gamma_left, 1.0 / gamma_right  # 1 / inf is 0.0
    lower = 1.0 / (r1 + r2 + alpha)
    upper = inf if r1 + r2 == 0.0 else 1.0 / (r1 + r2)
    return GlueGapBounds(
        lower=lower,
        upper=upper,
        alpha=alpha,
        out_of_hypothesis=max(spec.left.n, spec.right.n) < 2,
    )
