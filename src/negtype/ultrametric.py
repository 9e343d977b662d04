"""Ultrametric pipeline: decomposition, recursive bounds, coteries, limits.

An ultrametric space of diameter D splits into two nonempty parts with all
cross-distances equal to D; recursing yields a tree whose leaf blocks have
an exact closed-form gap. Walking the tree accumulates two-sided bounds on
the reciprocal gap, and the minimum-distance clusters (coteries) determine
the large-exponent limit of the normalized gap. ``decompose`` builds the
only ultrametric tree, straight from the edges of the one minimum spanning
tree pass of ``negtype.metric``; the coteries read those edges with no tree,
and the strictly-ultrametric matrix test runs that pass on its own matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter

import numpy as np

from .bounds import gamma_discrete
from .errors import NegativeEntry, NotSymmetric, NotUltrametric, SinglePoint
from .metric import (
    FiniteMetricSpace,
    PDistanceMatrix,
    _check_exponent,
    _check_powers,
    _power,
    _spanning_tree,
)
from .spectral import refined_solve  # noqa: F401 (unused; bench/test_bench.py pins this tracer binding)


def strictly_ultrametric_check(a) -> bool:
    """Whether every entry dominates the min over detours and the diagonal
    strictly dominates its row.

    Off the diagonal the first condition says that ``-a`` is an ultrametric,
    i.e. equals its subdominant ultrametric. That matrix only copies entries,
    so the comparison is exact; inputs are constructed, not parsed.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if (a != a.T).any():
        raise NotSymmetric("matrix is not exactly symmetric")
    if (a < 0).any():
        raise NegativeEntry("matrix has a negative entry")
    w = -a
    np.fill_diagonal(w, 0.0)
    if not (_spanning_tree(w)[1] == w).all():
        return False
    off_max = np.where(np.eye(n, dtype=bool), -np.inf, a).max(axis=1)
    return bool((np.diag(a) > off_max).all())


@dataclass(frozen=True, repr=False, eq=False)
class UltrametricTree:
    """Recursive diameter split; ``split_distance`` is the node's diameter.

    Printing, comparison and hashing take no recursion: the tree can be as
    deep as n.
    """

    labels: tuple[str, ...]
    indices: tuple[int, ...]
    split_distance: float
    children: tuple["UltrametricTree", "UltrametricTree"] | None

    @property
    def is_leaf(self) -> bool:
        return self.children is None

    @property
    def size(self) -> int:
        return len(self.indices)

    def serialize(self) -> str:
        parts: list[str] = []
        stack: list = [self]  # no recursion: the tree can be as deep as n
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                parts.append(item)
            elif item.is_leaf:
                parts.append(f"[{' '.join(item.labels)} @ {_fmt(item.split_distance)}]")
            else:
                left, right = item.children
                parts.append(f"(split={_fmt(item.split_distance)} ")
                stack += [")", right, " ", left]
        return "".join(parts)

    def walk(self):
        """Nodes in pre-order: each node, then its left and right subtrees."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            if node.children is not None:
                stack += reversed(node.children)

    def _key(self) -> tuple:
        return self.labels, self.indices, self.split_distance, self.is_leaf

    def __repr__(self) -> str:  # keep reprs short; the tree can be large
        kind = "leaf" if self.is_leaf else "split"
        return f"UltrametricTree(size={self.size}, split_distance={_fmt(self.split_distance)}, {kind})"

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        # pre-order keys fix the shape: leaf flags in pre-order encode a binary tree
        return all(a._key() == b._key() for a, b in zip(self.walk(), other.walk()))

    def __hash__(self) -> int:
        return hash(tuple(node._key() for node in self.walk()))


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _require_ultrametric(space: FiniteMetricSpace) -> list[tuple[float, int, int]]:
    """The spanning tree edges of ``space``; raises ``NotUltrametric`` when d
    exceeds its subdominant ultrametric by more than the limit."""
    edges, excess, limit = space._ultrametric
    if excess > limit:
        raise NotUltrametric(
            "the space does not satisfy the strong triangle inequality: d exceeds its"
            f" subdominant ultrametric by {excess:.3g}, limit {limit:.3g}"
        )
    return edges


def _find(up: list[int], a: int) -> int:
    """Root of ``a`` in the union-find forest ``up``, halving the path."""
    while up[a] != a:
        up[a] = up[up[a]]
        a = up[a]
    return a


def decompose(space: FiniteMetricSpace, full_split: bool = False) -> UltrametricTree:
    """Recursive diameter-split tree of an ultrametric space.

    The spanning tree edges merge by union-find in ascending order, all edges
    of one height together. The parts that one height joins into a set are
    the classes of "closer than that height", the set's diameter. The set
    splits into its largest part (ties broken toward the part holding the
    smallest index) and the rest, so cross-distances all equal the diameter;
    the rest splits again at the same height until it is one part.
    Children are ordered by their smallest point index. Splitting stops at
    singletons and at discrete blocks, single points at one height, whose
    gap is known exactly; with ``full_split`` discrete blocks keep splitting
    down to singletons. The tree is built bottom-up, with no recursion: it
    can be as deep as n.
    """
    edges = _require_ultrametric(space)
    labels = space.labels
    up = list(range(space.n))
    top = [UltrametricTree((labels[i],), (i,), 0.0, None) for i in range(space.n)]  # per root
    for height, group in groupby(sorted(edges), key=itemgetter(0)):
        pairs = [(_find(up, p), _find(up, v)) for _, p, v in group]  # roots below ``height``
        for a, b in pairs:
            up[_find(up, a)] = _find(up, b)
        joined: dict[int, list[UltrametricTree]] = {}  # the parts of each root at ``height``
        for a in {a for pair in pairs for a in pair}:
            joined.setdefault(_find(up, a), []).append(top[a])
        for root, parts in joined.items():
            top[root] = _split(labels, height, parts, full_split)
    return top[_find(up, 0)]


def _split(
    labels: tuple[str, ...], height: float, parts: list[UltrametricTree], full_split: bool
) -> UltrametricTree:
    """The node at ``height`` over ``parts``: the largest part against the
    rest, which splits again at ``height``, built from the last split up."""
    parts.sort(key=lambda part: (-part.size, part.indices[0]))
    stop = len(parts) - 1  # the rest from ``stop`` on is one part or a discrete block
    while not full_split and stop > 0 and parts[stop - 1].size == 1:
        stop -= 1
    if stop == len(parts) - 1:
        node = parts[stop]
    else:
        indices = tuple(sorted(part.indices[0] for part in parts[stop:]))
        node = UltrametricTree(tuple(labels[i] for i in indices), indices, height, None)
    for part in reversed(parts[:stop]):
        indices = tuple(sorted(part.indices + node.indices))  # merges two sorted runs
        children = (part, node) if part.indices[0] < node.indices[0] else (node, part)
        node = UltrametricTree(tuple(labels[i] for i in indices), indices, height, children)
    return node


@dataclass(frozen=True)
class SplitTerm:
    labels: tuple[str, ...]
    size: int
    split_distance: float
    alpha_cap: float
    alpha_exact: float
    denominator: float


@dataclass(frozen=True)
class LeafTerm:
    labels: tuple[str, ...]
    size: int
    distance: float
    gamma: float
    reciprocal: float


@dataclass(frozen=True)
class RecursiveGapBounds:
    """Accumulated two-sided bounds on the reciprocal gap."""

    lower_reciprocal: float
    upper_reciprocal: float
    splits: tuple[SplitTerm, ...]
    leaves: tuple[LeafTerm, ...]

    @property
    def gamma_lower(self) -> float:
        return 1.0 / self.upper_reciprocal

    @property
    def gamma_upper(self) -> float:
        return np.inf if self.lower_reciprocal == 0.0 else 1.0 / self.lower_reciprocal


def recursive_gap_bounds(
    space: FiniteMetricSpace, p: float, full_split: bool = False
) -> RecursiveGapBounds:
    """Walk the decomposition tree accumulating reciprocal gap bounds.

    Leaf blocks contribute their exact reciprocal gap to both sides
    (singletons contribute zero). Each split adds, to the upper reciprocal
    only, the cap size/diameter**p of its correction term. The exact term
    2 / denominator is reported per split, where the denominator is the glue
    margin 2 c^p - M_p(left) - M_p(right) at the split distance c. The
    children's M_p come bottom-up from the tree, with no matrix: a point has
    0, a leaf block of k points at distance d has (k - 1) / k d^p, and a
    split has c^p - (c^p - M_L) (c^p - M_R) / margin, which is
    (c^2p - M_L M_R) / margin (see ``negtype.glue.glued_inverse``). Since
    (c^p - M_R) / margin lies in (0, 1], no step leaves the range of c^p.

    Raises ValueError, as ``p_distance_matrix`` does, when a power of a
    distance overflows or underflows to zero, or when a margin, which is at
    most 2 c^p, would overflow; and when the upper reciprocal bound, the
    largest reciprocal reported, overflows (powers near the smallest float).
    """
    _check_exponent(p)
    if space.n < 2:
        raise SinglePoint("gap bounds need at least two points")
    tree = decompose(space, full_split=full_split)
    nodes = list(tree.walk())
    distances = [node.split_distance for node in nodes]
    powers = [_power(distance, p) for distance in distances]
    with np.errstate(over="ignore"):
        _check_powers(distances, 2.0 * np.array(powers), p)
    m_p: list[float] = []  # a stack: in reversed pre-order a node follows its subtrees
    margins = [0.0] * len(nodes)
    for k in reversed(range(len(nodes))):
        node, c_p = nodes[k], powers[k]
        if node.is_leaf:
            m_p.append((node.size - 1) / node.size * c_p)
        else:
            m_l, m_r = m_p.pop(), m_p.pop()
            margins[k] = 2.0 * c_p - m_l - m_r
            m_p.append(c_p - (c_p - m_l) * ((c_p - m_r) / margins[k]))
    splits: list[SplitTerm] = []
    leaves: list[LeafTerm] = []
    lower = 0.0
    alpha_sum = 0.0
    for node, c_p, margin in zip(nodes, powers, margins):
        if node.is_leaf:
            if node.size == 1:
                leaves.append(LeafTerm(node.labels, 1, 0.0, np.inf, 0.0))
            else:
                gamma = c_p * gamma_discrete(node.size)
                leaves.append(
                    LeafTerm(node.labels, node.size, node.split_distance, gamma, 1.0 / gamma)
                )
                lower += 1.0 / gamma
            continue
        alpha_cap = node.size / c_p
        alpha_sum += alpha_cap
        splits.append(
            SplitTerm(
                labels=node.labels,
                size=node.size,
                split_distance=node.split_distance,
                alpha_cap=alpha_cap,
                alpha_exact=2.0 / margin,
                denominator=margin,
            )
        )
    if lower + alpha_sum == np.inf:  # every reciprocal term is at most this sum
        raise ValueError(f"reciprocal gap bounds overflow at exponent {p}")
    return RecursiveGapBounds(
        lower_reciprocal=lower,
        upper_reciprocal=lower + alpha_sum,
        splits=tuple(splits),
        leaves=tuple(leaves),
    )


@dataclass(frozen=True)
class CoterieSet:
    alpha: float
    coteries: tuple[tuple[str, ...], ...]
    e: int


def coteries(space: FiniteMetricSpace) -> CoterieSet:
    """All distinct minimum-distance balls holding at least two points.

    These are the classes that the spanning tree edges of the minimum
    positive distance join, listed by their smallest index.
    """
    edges = _require_ultrametric(space)
    if space.n < 2:
        raise SinglePoint("coteries need at least two points")
    alpha = min(h for h, _, _ in edges)
    up = list(range(space.n))
    for h, p, v in edges:
        if h == alpha:
            up[_find(up, p)] = _find(up, v)
    classes: dict[int, list[int]] = {}  # by root, in order of the smallest index
    for i in range(space.n):
        classes.setdefault(_find(up, i), []).append(i)
    groups = [members for members in classes.values() if len(members) > 1]
    return CoterieSet(
        alpha=alpha,
        coteries=tuple(tuple(space.labels[j] for j in members) for members in groups),
        e=len(groups),
    )


def asymptotic_gap_limit(space: FiniteMetricSpace) -> float:
    """Large-exponent limit of the gap normalized by the minimum distance.

    The reciprocal limit is the sum of the reciprocal discrete-space gaps of
    the coterie sizes.
    """
    cots = coteries(space)
    return 1.0 / sum(1.0 / gamma_discrete(len(ball)) for ball in cots.coteries)


@dataclass(frozen=True)
class UltrametricDiagnostics:
    inverse_entries_positive: bool
    mp_bound_satisfied: bool
    m_p: float
    bound: float


def mp_ultrametric_properties(dp: PDistanceMatrix) -> UltrametricDiagnostics:
    """Check positivity of the inverse row sums and the M_p diameter bound.

    Both hold for every finite ultrametric space; this is a first-class
    numerical diagnostic, not only a test helper. b and M_p = 1 / (b | 1) are
    read from the certificate of D_p, and diameter^p is its largest entry;
    the bound (n - 1) / n diameter^p is met within 1e-12 of itself.
    """
    _require_ultrametric(dp.source)
    if dp.n < 2:
        raise SinglePoint("diagnostics need at least two points")
    cert = dp.certificate
    b, m_p = cert.b, cert.m_p
    bound = (dp.n - 1) / dp.n * float(dp.entries.max())
    tol = 1e-12 * bound
    return UltrametricDiagnostics(
        inverse_entries_positive=bool((b > 0).all()),
        mp_bound_satisfied=bool(m_p <= bound + tol),
        m_p=m_p,
        bound=bound,
    )
