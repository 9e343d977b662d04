"""Ultrametric pipeline: decomposition, recursive bounds, coteries, limits.

An ultrametric space of diameter D splits into two nonempty parts with all
cross-distances equal to D; recursing yields a tree whose leaf blocks have
an exact closed-form gap. Walking the tree accumulates two-sided bounds on
the reciprocal gap, and the minimum-distance clusters (coteries) determine
the large-exponent limit of the normalized gap. Both read the path of the
one minimum spanning tree pass of ``negtype.metric`` once, in its order:
``decompose`` builds the only ultrametric tree from all of its heights, and
the coteries are its runs at the smallest height. The strictly-ultrametric
matrix test runs that pass on its own matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .bounds import gamma_discrete
from .errors import NotSymmetric, TooFewPoints
from .metric import (
    FiniteMetricSpace,
    PDistanceMatrix,
    _check_exponent,
    _powers,
    _require_ultrametric,
    _spanning_tree,
)
from .glue import _bridge
from .spectral import refined_solve  # noqa: F401 (unused; bench/test_bench.py pins this tracer binding)


def strictly_ultrametric_check(a) -> bool:
    """Whether every entry dominates the min over detours and the diagonal
    strictly dominates its row.

    Off the diagonal the first condition says that ``-a`` is an ultrametric,
    i.e. equals its subdominant ultrametric. That matrix only copies entries,
    so the comparison is exact; inputs are constructed, not parsed. Raises
    ValueError for a matrix that is not square, has no rows or has a
    negative entry.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if not n:
        raise ValueError("expected a nonempty matrix, got shape (0, 0)")
    if (a != a.T).any():
        raise NotSymmetric("matrix is not exactly symmetric")
    if (a < 0).any():
        raise ValueError("matrix has a negative entry")
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


def decompose(space: FiniteMetricSpace, full_split: bool = False) -> UltrametricTree:
    """Recursive diameter-split tree of an ultrametric space.

    One pass over the path of ``metric._spanning_tree``, whose return
    contract makes each class of "closer than t" a run of its order. A stack
    holds the open nodes, (height, parts), heights falling toward the top.
    An edge of height h closes every open node below h, each with the part
    finished so far as its last part; that part then joins the open node at
    h, or opens one. A sentinel edge at +inf closes the root. The parts of a node at height h, its diameter, are the classes
    of "closer than h". The node splits into its largest part (ties broken
    toward the part holding the smallest index) and the rest, so
    cross-distances all equal the diameter; the rest splits again at the
    same height until it is one part.
    Children are ordered by their smallest point index. Splitting stops at
    singletons and at discrete blocks, single points at one height, whose
    gap is known exactly; with ``full_split`` discrete blocks keep splitting
    down to singletons. There is no recursion: the tree can be as deep as n.
    """
    labels = space.labels
    part = UltrametricTree((labels[0],), (0,), 0.0, None)  # the path starts at point 0
    stack: list[tuple[float, list[UltrametricTree]]] = []
    for height, _, v in [*_require_ultrametric(space), (np.inf, 0, 0)]:
        while stack and stack[-1][0] < height:
            below, parts = stack.pop()
            part = _split(labels, below, [*parts, part], full_split)
        if stack and stack[-1][0] == height:
            stack[-1][1].append(part)
        else:
            stack.append((height, [part]))
        part = UltrametricTree((labels[v],), (v,), 0.0, None)
    return stack[0][1][0]  # the sentinel's one part


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
    denominator: float

    @property
    def alpha_exact(self) -> float:
        return 2.0 / self.denominator


@dataclass(frozen=True)
class LeafTerm:
    labels: tuple[str, ...]
    size: int
    distance: float
    gamma: float

    @property
    def reciprocal(self) -> float:
        return 1.0 / self.gamma  # 0.0 for a single point


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
    margin 2 c^p - M_p(left) - M_p(right) at the split distance c. One pass in
    reversed pre-order takes each node's M_p from its children's, with no
    matrix: a point has 0, a leaf block of k points at distance d has
    (k - 1) / k d^p, and a split has c^p - (c^p - M_L) (c^p - M_R) / margin
    (``negtype.glue._bridge``). Since (c^p - M_R) / margin lies in (0, 1], no
    step leaves the range of c^p. Terms are listed and summed in pre-order.
    Every c^p comes from one ``metric._powers`` call, the array power that
    builds D_p, so it equals the D_p entry at that distance bit for bit.

    Raises ValueError, as ``p_distance_matrix`` does, when a power of a
    distance overflows or underflows to zero, or when a margin, which is at
    most 2 c^p, would overflow; and when the upper reciprocal bound, the
    largest reciprocal reported, overflows (powers near the smallest float).
    """
    _check_exponent(p)
    if space.n < 2:
        raise TooFewPoints("gap bounds need at least two points")
    nodes = list(decompose(space, full_split=full_split).walk())
    powers = _powers([node.split_distance for node in nodes], p, headroom=2.0).tolist()
    m_p: list[float] = []  # a stack: in reversed pre-order a node follows its subtrees
    splits: list[SplitTerm] = []
    leaves: list[LeafTerm] = []
    for node, c_p in zip(reversed(nodes), reversed(powers)):
        if node.is_leaf:
            m_p.append((node.size - 1) / node.size * c_p)
            gamma = np.inf if node.size == 1 else c_p * gamma_discrete(node.size)
            leaves.append(LeafTerm(node.labels, node.size, node.split_distance, gamma))
        else:
            margin, _, m = _bridge(m_p.pop(), m_p.pop(), c_p)
            m_p.append(m)
            alpha_cap = node.size / c_p
            splits.append(SplitTerm(node.labels, node.size, node.split_distance, alpha_cap, margin))
    splits.reverse()
    leaves.reverse()
    lower = alpha_sum = 0.0
    for leaf in leaves:  # summed in pre-order, one term at a time
        lower += leaf.reciprocal
    for split in splits:
        alpha_sum += split.alpha_cap
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

    Each is the class that one maximal run of path edges at the minimum
    positive distance joins (``metric._spanning_tree``); they are listed by
    their smallest index.
    """
    if space.n < 2:
        raise TooFewPoints("coteries need at least two points")
    path = _require_ultrametric(space)
    alpha = min(h for h, _, _ in path)
    runs = [list(run) for low, run in groupby(path, key=lambda edge: edge[0] == alpha) if low]
    groups = sorted(sorted([run[0][1], *(v for _, _, v in run)]) for run in runs)
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
        raise TooFewPoints("diagnostics need at least two points")
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
