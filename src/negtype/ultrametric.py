"""Ultrametric pipeline: decomposition, recursive bounds, coteries, limits.

An ultrametric space of diameter D splits into two nonempty parts with all
cross-distances equal to D; recursing yields a tree whose leaf blocks have
an exact closed-form gap. Walking the tree accumulates two-sided bounds on
the reciprocal gap, and the minimum-distance clusters (coteries) determine
the large-exponent limit of the normalized gap. The decomposition, the
coteries and the strictly-ultrametric matrix test all read the one minimum
spanning tree and ball tree built by ``negtype.metric``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import gamma_discrete
from .errors import NegativeEntry, NotSymmetric, NotUltrametric, SinglePoint
from .metric import Ball, FiniteMetricSpace, _ball_tree, _spanning_tree
from .spectral import refined_solve


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


def _ultrametric_tree(space: FiniteMetricSpace) -> Ball:
    edges, excess, limit = space._ultrametric
    if excess > limit:
        raise NotUltrametric(
            "the space does not satisfy the strong triangle inequality: d exceeds its"
            f" subdominant ultrametric by {excess:.3g}, limit {limit:.3g}"
        )
    return _ball_tree(space.n, edges)


def decompose(space: FiniteMetricSpace, full_split: bool = False) -> UltrametricTree:
    """Recursive diameter-split tree of an ultrametric space.

    It is read off the ball tree, whose node children are the maximal balls
    of radius strictly below the node diameter. One side of the split is the
    largest such ball (ties broken toward the one containing the smallest
    index) and the other is its complement, so cross-distances all equal the
    diameter. Children are ordered by their smallest point index. Recursion
    stops at singletons and at discrete blocks, whose gap is known exactly;
    with ``full_split`` discrete blocks keep splitting down to singletons.
    """
    balls = [_ultrametric_tree(space)]
    sides: list[int | None] = []  # where each ball's two sides sit in ``balls``
    for ball in balls:  # grows while it is read: no recursion, the tree can be as deep as n
        kids = ball.children
        if all(len(c.members) == 1 for c in kids) and not (kids and full_split):
            sides.append(None)
            continue
        largest = max(kids, key=lambda c: len(c.members))
        rest = tuple(c for c in kids if c is not largest)
        if len(rest) > 1:
            members = tuple(sorted(i for c in rest for i in c.members))
            rest = (Ball(members, ball.height, rest),)
        sides.append(len(balls))
        balls += sorted((largest, rest[0]))
    trees: list = [None] * len(balls)
    for k in reversed(range(len(balls))):  # a ball's sides come after it
        ball, s = balls[k], sides[k]
        children = None if s is None else (trees[s], trees[s + 1])
        labels = tuple(space.labels[i] for i in ball.members)
        trees[k] = UltrametricTree(labels, ball.members, ball.height, children)
    return trees[0]


@dataclass(frozen=True)
class SplitTerm:
    labels: tuple[str, ...]
    size: int
    split_distance: float
    alpha_cap: float
    alpha_exact: float
    denominator: float
    child_sizes: tuple[int, int]
    child_diameters: tuple[float, float]


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
    only, the cap size/diameter**p of its correction term; the sharper exact
    term and its denominator are reported per level.
    """
    if space.n < 2:
        raise SinglePoint("gap bounds need at least two points")
    tree = decompose(space, full_split=full_split)
    splits: list[SplitTerm] = []
    leaves: list[LeafTerm] = []
    lower = 0.0
    alpha_sum = 0.0
    for node in tree.walk():
        if node.is_leaf:
            if node.size == 1:
                leaves.append(LeafTerm(node.labels, 1, 0.0, np.inf, 0.0))
            else:
                gamma = node.split_distance**p * gamma_discrete(node.size)
                leaves.append(
                    LeafTerm(node.labels, node.size, node.split_distance, gamma, 1.0 / gamma)
                )
                lower += 1.0 / gamma
            continue
        left, right = node.children
        delta_p = node.split_distance**p
        denominator = 2.0 * delta_p
        for child in (left, right):
            if child.size > 1:
                denominator -= (child.size - 1) / child.size * child.split_distance**p
        alpha_exact = 2.0 / denominator
        alpha_cap = node.size / delta_p
        alpha_sum += alpha_cap
        splits.append(
            SplitTerm(
                labels=node.labels,
                size=node.size,
                split_distance=node.split_distance,
                alpha_cap=alpha_cap,
                alpha_exact=alpha_exact,
                denominator=denominator,
                child_sizes=(left.size, right.size),
                child_diameters=(left.split_distance, right.split_distance),
            )
        )
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

    These are the ball-tree nodes at the minimum positive distance, listed by
    their smallest index.
    """
    root = _ultrametric_tree(space)
    if space.n < 2:
        raise SinglePoint("coteries need at least two points")
    nodes = []
    stack = [root]  # no recursion: the tree can be as deep as n
    while stack:
        ball = stack.pop()
        if ball.children:
            nodes.append(ball)
            stack.extend(ball.children)
    alpha = min(ball.height for ball in nodes)
    groups = sorted(ball.members for ball in nodes if ball.height == alpha)
    return CoterieSet(
        alpha=alpha,
        coteries=tuple(tuple(space.labels[j] for j in ball) for ball in groups),
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
    min_inverse_entry: float


def mp_ultrametric_properties(space: FiniteMetricSpace, p: float) -> UltrametricDiagnostics:
    """Check positivity of the inverse row sums and the M_p diameter bound.

    Both hold for every finite ultrametric space; this is a first-class
    numerical diagnostic, not only a test helper.
    """
    _ultrametric_tree(space)
    if space.n < 2:
        raise SinglePoint("diagnostics need at least two points")
    entries = space.dist**p
    b = refined_solve(entries, np.ones(space.n))
    m_p = 1.0 / float(b.sum())
    diameter = float(space.dist.max())
    bound = (space.n - 1) / space.n * diameter**p
    tol = max(1e-10, 1e-12 * bound)
    return UltrametricDiagnostics(
        inverse_entries_positive=bool((b > 0).all()),
        mp_bound_satisfied=bool(m_p <= bound + tol),
        m_p=m_p,
        bound=bound,
        min_inverse_entry=float(b.min()),
    )
