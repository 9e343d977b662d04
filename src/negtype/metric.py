"""Finite metric spaces: validation, transformations, and graph ingestion.

Distances are stored as float64. Validation tolerances are relative to the
diameter so that exact (integer-valued) inputs never produce false rejections
while file-parsed decimals survive round-off.

Ultrametric structure comes from one O(n^2) minimum spanning tree pass,
``_spanning_tree``, and its single linkage, ``_ball_tree``; the
strong-triangle test, the graph minimax distances, the decomposition and the
coteries all read from them. Each space runs that pass at most once and
caches the result.

Validation costs O(n^2) when d is within ``METRIC_RTOL * diameter`` of its
subdominant ultrametric, and O(n^3) otherwise. The subdominant only copies
entries of d, so sub_ij <= max(d_ik, d_kj) <= fl(d_ik + d_kj) on every
triple; rounding is monotone, so the triangle slack is at least
-fl(d_ij - sub_ij) >= -tolerance and the cubic scan could find nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    AsymmetricMatrix,
    DisconnectedGraph,
    LabelCollision,
    NonpositiveExponent,
    NonpositiveOffDiagonal,
    NonpositiveScale,
    NonzeroDiagonal,
    ParseError,
    SinglePoint,
    ToleranceFailure,
    TriangleViolation,
)

#: Relative slack, scaled by the diameter, for triangle and strong-triangle checks.
METRIC_RTOL = 1e-9


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class FiniteMetricSpace:
    """A labeled point set with a validated symmetric distance matrix."""

    labels: tuple[str, ...]
    dist: np.ndarray
    n: int

    def restrict(self, indices: Sequence[int]) -> "FiniteMetricSpace":
        """Sub-space on the given point indices, in the given order."""
        idx = list(indices)
        sub = self.dist[np.ix_(idx, idx)]
        return validate_metric([self.labels[i] for i in idx], sub)

    def __repr__(self) -> str:  # keep reprs short; matrices can be large
        return f"FiniteMetricSpace(n={self.n}, labels={list(self.labels)!r})"

    @cached_property
    def _ultrametric(self) -> tuple[list[tuple[float, int, int]], float, float]:
        """Spanning tree edges, the largest excess of d over its subdominant
        ultrametric, and the limit ``METRIC_RTOL * diameter`` on it. Computed
        once, on first use; ``cached_property`` writes the instance
        ``__dict__``, which the frozen dataclass allows."""
        d = self.dist
        edges, sub = _spanning_tree(d)
        return edges, float((d - sub).max()), METRIC_RTOL * float(d.max())


@dataclass(frozen=True)
class PDistanceMatrix:
    """Entrywise p-th power of a distance matrix, with its source space."""

    p: float
    entries: np.ndarray
    source: FiniteMetricSpace

    @property
    def n(self) -> int:
        return self.source.n


@dataclass(frozen=True)
class SpaceStats:
    diameter: float
    min_positive: float
    ratio: float


@dataclass(frozen=True)
class WeightedGraph:
    """Vertex labels and ``(u, v, weight)`` edges. Construction rejects a
    self-loop and a weight that is not positive (NaN included);
    ``ultrametric_from_graph`` checks that every endpoint is a vertex and that
    the graph is connected."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, float], ...]

    def __post_init__(self) -> None:
        for u, v, w in self.edges:
            if fault := _edge_fault(u, v, w):
                raise ValueError(fault)


def _edge_fault(u: str, v: str, w: float) -> str | None:
    """Why the edge is rejected (a self-loop, or a weight that is not
    positive, NaN included), or None."""
    if u == v:
        return f"self-loop at vertex {u!r}"
    if not w > 0:
        return f"edge ({u}, {v}) has nonpositive weight {w}"
    return None


def validate_metric(labels: Iterable[str], raw_matrix) -> FiniteMetricSpace:
    """Validate a raw square matrix as a metric and build the space.

    Checks, in order: shape, exact symmetry, exact zero diagonal, strictly
    positive off-diagonal entries, and the triangle inequality within a
    relative tolerance of ``METRIC_RTOL * diameter``. Errors name the
    offending indices. The triangle scan runs only when d is not within
    that tolerance of its subdominant ultrametric, which implies every
    triangle (see the module docstring). The space holds its own copy of
    the matrix.
    """
    labels = tuple(str(x) for x in labels)
    if len(set(labels)) != len(labels):
        raise LabelCollision("duplicate point labels")
    d = np.array(raw_matrix, dtype=np.float64, order="C")  # the space owns its copy
    n = len(labels)
    if d.ndim != 2 or d.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix, got shape {d.shape}")
    if not np.isfinite(d).all():
        raise ValueError("distance matrix contains non-finite entries")

    neq = np.argwhere(d != d.T)
    if neq.size:
        i, j = map(int, neq[0])
        raise AsymmetricMatrix(i, j)
    bad_diag = np.flatnonzero(np.diag(d) != 0.0)
    if bad_diag.size:
        raise NonzeroDiagonal(int(bad_diag[0]))
    off = ~np.eye(n, dtype=bool)
    bad_off = np.argwhere((d <= 0.0) & off)
    if bad_off.size:
        i, j = map(int, bad_off[0])
        raise NonpositiveOffDiagonal(i, j)

    space = FiniteMetricSpace(labels=labels, dist=_freeze(d), n=n)
    if n < 3:
        return space
    _, excess, tol = space._ultrametric
    if excess > tol:
        # d[i,j] <= d[i,k] + d[k,j] for all triples, vectorized over (j, k) for
        # a block of rows i; d is exactly symmetric here, so d[k,j] == d[j,k].
        rows = max(1, (1 << 17) // (n * n))  # blocks of at most 1 MB
        for start in range(0, n, rows):
            block = d[start : start + rows]
            slack = block[:, None, :] + d[None, :, :] - block[:, :, None]  # (i, j, k)
            if slack.min() < -tol:
                i, j, k = map(int, np.argwhere(slack < -tol)[0])
                raise TriangleViolation(start + i, j, k)
    return space


def _check_exponent(p: float) -> None:
    """Reject an exponent that is not > 0 (NaN included)."""
    if not p > 0:
        raise NonpositiveExponent(f"exponent must be positive, got {p}")


def _check_powers(distances, powers, p: float) -> None:
    """Reject powers of distances that left the float range: one that
    overflowed, or a positive distance whose power underflowed to zero."""
    if not np.isfinite(powers).all():
        raise ValueError(f"distance powers overflow at exponent {p}")
    if (np.asarray(powers)[np.asarray(distances) > 0.0] == 0.0).any():
        raise ValueError(f"distance powers underflow to zero at exponent {p}")


def p_distance_matrix(space: FiniteMetricSpace, p: float) -> PDistanceMatrix:
    """Entrywise p-th power of the distance matrix (p > 0)."""
    _check_exponent(p)
    with np.errstate(over="ignore"):
        entries = space.dist**p
    _check_powers(space.dist, entries, p)
    return PDistanceMatrix(p=float(p), entries=_freeze(entries), source=space)


def discrete_space(n: int, scale: float = 1.0) -> FiniteMetricSpace:
    """The n-point space with every off-diagonal distance equal to ``scale``."""
    if n < 1:
        raise ValueError(f"need at least one point, got {n}")
    if not scale > 0:
        raise NonpositiveScale(f"scale must be positive, got {scale}")
    d = np.full((n, n), float(scale))
    np.fill_diagonal(d, 0.0)
    return validate_metric([f"x{i + 1}" for i in range(n)], d)


def scale_space(space: FiniteMetricSpace, alpha: float) -> FiniteMetricSpace:
    """The space with every distance multiplied by ``alpha`` (> 0)."""
    if not alpha > 0:
        raise NonpositiveScale(f"scale must be positive, got {alpha}")
    return validate_metric(space.labels, space.dist * float(alpha))


def is_ultrametric(space: FiniteMetricSpace) -> bool:
    """Whether d exceeds its subdominant ultrametric nowhere by more than
    ``METRIC_RTOL * diameter``, which implies d(x, y) <= max(d(x, z), d(z, y))
    with that slack on every triple."""
    _, excess, limit = space._ultrametric
    return excess <= limit


class Ball(NamedTuple):
    """Points joined at ``height``; children are the maximal balls strictly
    below it, in order (balls compare by their sorted, disjoint members)."""

    members: tuple[int, ...]
    height: float
    children: tuple["Ball", ...]


def _spanning_tree(w: np.ndarray) -> tuple[list[tuple[float, int, int]], np.ndarray]:
    """Minimum spanning tree and subdominant (minimax) ultrametric of weights.

    ``w`` is symmetric, ``inf`` means no edge and the diagonal is ignored. A
    dense Prim pass lists the tree edges as ``(weight, parent, vertex)``; the
    minimax row of each vertex it reaches is the larger of its tree edge and
    its parent's row. The subdominant matrix has a zero diagonal and off it
    only copies entries of ``w``. O(n^2). Raises ``DisconnectedGraph`` when a
    step finds no edge to the vertices not yet reached.
    """
    n = w.shape[0]
    sub = np.full((n, n), -np.inf)  # -inf, not 0: weights may be negative
    todo = np.array(w, dtype=np.float64)  # weights into the vertices not yet reached
    todo[:, 0] = np.inf
    key = todo[0].copy()
    parent = np.zeros(n, dtype=np.intp)
    edges: list[tuple[float, int, int]] = []
    for _ in range(n - 1):
        v = int(key.argmin())
        h, p = float(key[v]), int(parent[v])
        if h == np.inf:
            raise DisconnectedGraph("minimax distances need a connected graph")
        np.maximum(sub[p], h, out=sub[v])  # exact on reached columns; later rows overwrite the rest
        sub[:, v] = sub[v]
        sub[v, v] = -np.inf
        edges.append((h, p, v))
        todo[:, v] = np.inf
        key[v] = np.inf
        parent[todo[v] < key] = v
        np.minimum(key, todo[v], out=key)
    np.fill_diagonal(sub, 0.0)
    return edges, sub


def _ball_tree(n: int, edges: list[tuple[float, int, int]]) -> Ball:
    """Single-linkage ball tree of the points 0..n-1 joined by spanning tree edges.

    Edges merge in ascending order; a merge at the height of a component's
    ball takes over its children instead of nesting it, so merges at exactly
    equal heights form one node.
    """
    up = list(range(n))
    top = [Ball((i,), 0.0, ()) for i in range(n)]  # the ball of each root
    for h, p, v in sorted(edges):
        a, b = _find(up, p), _find(up, v)
        parts: tuple[Ball, ...] = ()
        for ball in (top[a], top[b]):
            parts += ball.children if ball.children and ball.height == h else (ball,)
        up[a] = b
        top[b] = Ball(tuple(sorted(top[a].members + top[b].members)), h, tuple(sorted(parts)))
    return top[_find(up, 0)]


def space_stats(space: FiniteMetricSpace) -> SpaceStats:
    """Diameter, minimum nonzero distance, and their ratio."""
    if space.n < 2:
        raise SinglePoint("statistics are undefined for a single point")
    off = space.dist[~np.eye(space.n, dtype=bool)]
    diameter = float(off.max())
    min_positive = float(off.min())
    return SpaceStats(diameter, min_positive, diameter / min_positive)


# ------------------------------------------------------------------ graphs ----

def build_graph(
    edges: Iterable[tuple[str, str, float]],
    vertices: Iterable[str] | None = None,
) -> WeightedGraph:
    """Assemble a weighted graph; vertices default to first-appearance order.
    Endpoints become strings and weights floats; ``WeightedGraph`` checks
    the edges."""
    edge_list: list[tuple[str, str, float]] = []
    seen: dict[str, int] = {}
    order: list[str] = []
    if vertices is not None:
        for v in vertices:
            v = str(v)
            if v not in seen:
                seen[v] = len(order)
                order.append(v)
    for u, v, w in edges:
        u, v, w = str(u), str(v), float(w)
        for x in (u, v):
            if x not in seen:
                seen[x] = len(order)
                order.append(x)
        edge_list.append((u, v, w))
    if not order:
        raise ValueError("graph has no vertices")
    return WeightedGraph(tuple(order), tuple(edge_list))


def _find(up: list[int], a: int) -> int:
    """Root of ``a`` in the union-find forest ``up``, halving the path."""
    while up[a] != a:
        up[a] = up[up[a]]
        a = up[a]
    return a


def ultrametric_from_graph(graph: WeightedGraph) -> FiniteMetricSpace:
    """Minimax-path distances of a connected weighted graph.

    d(u, v) is the minimum over all walks joining u and v of the largest edge
    weight on the walk: the subdominant ultrametric of the matrix of lightest
    edge weights, read along its minimum spanning tree. Raises ``ValueError``
    for a graph without vertices or an edge whose endpoint is not a vertex,
    and ``DisconnectedGraph`` when the spanning tree pass cannot reach every
    vertex.
    """
    n = len(graph.vertices)
    if not n:
        raise ValueError("graph has no vertices")
    index = {v: i for i, v in enumerate(graph.vertices)}
    w = np.full((n, n), np.inf)
    try:
        for u, v, weight in graph.edges:
            i, j = index[u], index[v]
            w[i, j] = w[j, i] = min(weight, w[i, j])
    except KeyError as exc:
        raise ValueError(f"edge endpoint {exc.args[0]!r} is not a graph vertex") from None
    space = validate_metric(graph.vertices, _spanning_tree(w)[1])
    _, excess, limit = space._ultrametric
    if excess > limit:
        raise ToleranceFailure(
            f"minimax distances exceed their subdominant ultrametric by {excess:.3g},"
            f" limit {limit:.3g}"
        )
    return space


# ------------------------------------------------------------- text formats ----

def _content_lines(text: str) -> Iterator[tuple[int, str]]:
    """Each line that is neither blank nor a comment, stripped, with its
    number among all lines (from 1). ``#`` starts a comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _parse_row(tokens: list[str]) -> np.ndarray:
    """The tokens as float64. When at most half of them are distinct, as in
    the rows of an ultrametric, each distinct token is converted once."""
    distinct = set(tokens)
    if 2 * len(distinct) <= len(tokens):
        values = {tok: float(tok) for tok in distinct}
        converted = map(values.__getitem__, tokens)
    else:
        converted = map(float, tokens)
    return np.fromiter(converted, np.float64, len(tokens))


def parse_matrix_text(text: str) -> tuple[list[str], np.ndarray]:
    """Parse the matrix file format.

    An optional ``labels: a b c ...`` line may precede or follow the count
    line; then come ``n`` whitespace-separated rows. ``#`` starts a comment.
    Rows are stacked only once all are read, so a huge count fails on the
    first short row instead of allocating the matrix.
    """
    labels: list[str] | None = None
    n: int | None = None
    rows: list[np.ndarray] = []
    for lineno, line in _content_lines(text):
        if line.startswith("labels:"):
            if labels is not None:
                raise ParseError(lineno, "duplicate labels line")
            labels = line[len("labels:"):].split()
            continue
        if n is None:
            try:
                n = int(line)
            except ValueError:
                raise ParseError(lineno, f"expected point count, got {line!r}") from None
            if n < 1:
                raise ParseError(lineno, "point count must be at least 1")
            continue
        try:
            row = _parse_row(line.split())
        except ValueError:
            raise ParseError(lineno, f"bad matrix row: {line!r}") from None
        if len(row) != n:
            raise ParseError(lineno, f"expected {n} entries, found {len(row)}")
        rows.append(row)
        if len(rows) > n:
            raise ParseError(lineno, "more rows than the declared count")
    if n is None:
        raise ParseError(0, "missing point count")
    if len(rows) != n:
        raise ParseError(0, f"expected {n} rows, found {len(rows)}")
    if labels is None:
        labels = [f"x{i + 1}" for i in range(n)]
    elif len(labels) != n:
        raise ParseError(0, f"{len(labels)} labels for {n} points")
    return labels, np.array(rows)


def parse_edge_list_text(text: str) -> WeightedGraph:
    """Parse ``u v w`` edge lines; ``#`` starts a comment."""
    edges: list[tuple[str, str, float]] = []
    for lineno, line in _content_lines(text):
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(lineno, f"expected 'u v w', got {line!r}")
        u, v, wtok = parts
        try:
            w = float(wtok)
        except ValueError:
            raise ParseError(lineno, f"bad weight {wtok!r}") from None
        if fault := _edge_fault(u, v, w):
            raise ParseError(lineno, fault)
        edges.append((u, v, w))
    if not edges:
        raise ParseError(0, "edge list is empty")
    return build_graph(edges)
