"""Finite metric spaces: validation, transformations, and graph ingestion.

Distances are stored as float64. Validation tolerances are relative to the
diameter so that exact (integer-valued) inputs never produce false rejections
while file-parsed decimals survive round-off. A ``PDistanceMatrix`` holds the
one certificate (``negtype.gap.certify``) that every analysis of it reads.

Ultrametric structure comes from one O(n^2) minimum spanning tree pass,
``_spanning_tree``: the strong-triangle test and the graph minimax distances
read its subdominant ultrametric, and the decomposition and the coteries in
``negtype.ultrametric`` read its edges, the path of Prim's order, once and
in that order: each class of "closer than t" is a run of the path (Gower
and Ross, 1969). Every space is built with the fit of that pass, run once:
``validate_metric`` passes in the one its validation ran, and a space built
from a graph (by ``ultrametric_from_graph``, the one function that reads a
graph) the edges of the pass that computed its minimax distances.

Validation costs O(n^2) when d is within ``METRIC_RTOL * diameter`` of its
subdominant ultrametric, and O(n^3) otherwise. The subdominant only copies
entries of d, so sub_ij <= max(d_ik, d_kj) <= fl(d_ik + d_kj) on every
triple; rounding is monotone, so the triangle slack is at least
-fl(d_ij - sub_ij) >= -tolerance and the cubic scan could find nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import inf, isfinite
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    AsymmetricMatrix,
    DisconnectedGraph,
    LabelCollision,
    NonpositiveOffDiagonal,
    NonzeroDiagonal,
    NotUltrametric,
    ParseError,
    TooFewPoints,
    TriangleViolation,
)

if TYPE_CHECKING:
    from .gap import NegTypeCertificate

#: Relative slack, scaled by the diameter, for triangle and strong-triangle checks.
METRIC_RTOL = 1e-9


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class FiniteMetricSpace:
    """A labeled point set with a validated symmetric distance matrix and
    the ``_ultrametric_fit`` of that matrix."""

    labels: tuple[str, ...]
    dist: np.ndarray
    n: int
    fit: tuple[list[tuple[float, int, int]], float, float]

    def restrict(self, indices: Sequence[int]) -> "FiniteMetricSpace":
        """Sub-space on the given point indices, in the given order."""
        idx = list(indices)
        sub = self.dist[np.ix_(idx, idx)]
        return validate_metric([self.labels[i] for i in idx], sub)

    def __repr__(self) -> str:  # keep reprs short; matrices can be large
        return f"FiniteMetricSpace(n={self.n}, labels={list(self.labels)!r})"


@dataclass(frozen=True, eq=False)
class PDistanceMatrix:
    """Entrywise p-th power of a distance matrix, with its source space and
    the one certificate that every analysis of it reads."""

    p: float
    entries: np.ndarray
    source: FiniteMetricSpace

    @property
    def n(self) -> int:
        return self.source.n

    @cached_property
    def certificate(self) -> NegTypeCertificate:
        """``negtype.gap.certify`` of this matrix, computed once, on first use."""
        from . import gap  # here, not at the top: gap imports this module

        return gap.certify(self)


@dataclass(frozen=True)
class SpaceStats:
    diameter: float
    min_positive: float
    ratio: float


def _edge_fault(u: str, v: str, w: float) -> str | None:
    """Why the edge is rejected (a self-loop, or a weight that is not
    positive and finite, NaN included), or None. The one edge rule of the
    edge-list parser and of ``ultrametric_from_graph``."""
    if u == v:
        return f"self-loop at vertex {u!r}"
    if not w > 0:
        return f"edge ({u}, {v}) has nonpositive weight {w}"
    if w == inf:
        return f"edge ({u}, {v}) has non-finite weight {w}"
    return None


def validate_metric(labels: Iterable[str], raw_matrix) -> FiniteMetricSpace:
    """Validate a raw square matrix as a metric and build the space.

    Checks, in order: at least one point (n >= 1), shape, exact symmetry,
    exact zero diagonal, strictly positive off-diagonal entries, and the
    triangle inequality within a relative tolerance of ``METRIC_RTOL *
    diameter``. Errors name the offending indices. The triangle scan runs
    only when d is not within that tolerance of its subdominant ultrametric,
    which implies every triangle (see the module docstring). The matrix is
    validated as given; the space holds its own copy, made last, and the
    ``_ultrametric_fit`` that validation computed.
    """
    labels = tuple(str(x) for x in labels)
    if len(set(labels)) != len(labels):
        raise LabelCollision("duplicate point labels")
    d = np.asarray(raw_matrix, dtype=np.float64)
    n = len(labels)
    if not n:
        raise ValueError("a metric space needs at least one point")
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

    fit = _ultrametric_fit(d)
    if fit[1] > fit[2]:
        tol = fit[2]
        # d[i,j] <= d[i,k] + d[k,j] for all triples, vectorized over (j, k) for
        # a block of rows i; d is exactly symmetric here, so d[k,j] == d[j,k].
        # A sum above the float range is an infinite slack, which holds.
        rows = max(1, (1 << 17) // (n * n))  # blocks of at most 1 MB
        with np.errstate(over="ignore"):
            for start in range(0, n, rows):
                block = d[start : start + rows]
                slack = block[:, None, :] + d[None, :, :] - block[:, :, None]  # (i, j, k)
                if slack.min() < -tol:
                    i, j, k = map(int, np.argwhere(slack < -tol)[0])
                    raise TriangleViolation(start + i, j, k)
    return FiniteMetricSpace(labels=labels, dist=_freeze(np.array(d, order="C")), n=n, fit=fit)


def _check_exponent(p: float) -> None:
    """Reject an exponent that is not > 0 (NaN included) or not finite."""
    if not p > 0:
        raise ValueError(f"exponent must be positive, got {p}")
    if p == inf:
        raise ValueError(f"exponent must be finite, got {p}")


def _powers(distances, p: float, headroom: float = 1.0) -> np.ndarray:
    """numpy's array power ``distances ** p``: the only power of a distance in
    the package, so each d^p equals its D_p entry bit for bit (a numpy scalar
    power or Python's ``**`` differs in the last bit on about 5 % of (d, p)).
    Raises ValueError when ``headroom * d^p`` overflows, or when the power of
    a positive distance underflows to zero: distances are >= 0 and 0^p = 0,
    so the powers then hold more zeros than the distances."""
    d = np.asarray(distances, dtype=np.float64)
    with np.errstate(over="ignore"):
        powers = d**p
    if not isfinite(headroom * float(powers.max(initial=0.0))):  # powers are >= 0
        raise ValueError(f"distance powers overflow at exponent {p}")
    if np.count_nonzero(powers == 0.0) > np.count_nonzero(d == 0.0):
        raise ValueError(f"distance powers underflow to zero at exponent {p}")
    return powers


def p_distance_matrix(space: FiniteMetricSpace, p: float) -> PDistanceMatrix:
    """Entrywise p-th power of the distance matrix (p > 0)."""
    _check_exponent(p)
    return PDistanceMatrix(p=float(p), entries=_freeze(_powers(space.dist, p)), source=space)


def discrete_space(n: int, scale: float = 1.0) -> FiniteMetricSpace:
    """The n-point space with every off-diagonal distance equal to ``scale``."""
    if n < 1:
        raise ValueError(f"need at least one point, got {n}")
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")
    d = np.full((n, n), float(scale))
    np.fill_diagonal(d, 0.0)
    return validate_metric([f"x{i + 1}" for i in range(n)], d)


def scale_space(space: FiniteMetricSpace, alpha: float) -> FiniteMetricSpace:
    """The space with every distance multiplied by ``alpha`` (> 0)."""
    if not alpha > 0:
        raise ValueError(f"scale must be positive, got {alpha}")
    return validate_metric(space.labels, space.dist * float(alpha))


def is_ultrametric(space: FiniteMetricSpace) -> bool:
    """Whether d exceeds its subdominant ultrametric nowhere by more than
    ``METRIC_RTOL * diameter``, which implies d(x, y) <= max(d(x, z), d(z, y))
    with that slack on every triple."""
    _, excess, limit = space.fit
    return excess <= limit


def _require_ultrametric(space: FiniteMetricSpace) -> list[tuple[float, int, int]]:
    """The spanning tree edges of ``space``; raises ``NotUltrametric`` when d
    exceeds its subdominant ultrametric by more than the limit."""
    edges, excess, limit = space.fit
    if excess > limit:
        raise NotUltrametric(
            "the space does not satisfy the strong triangle inequality: d exceeds its"
            f" subdominant ultrametric by {excess:.3g}, limit {limit:.3g}"
        )
    return edges


def _ultrametric_fit(d: np.ndarray) -> tuple[list[tuple[float, int, int]], float, float]:
    """The path of ``_spanning_tree(d)``, the largest excess of d over its
    subdominant ultrametric, taken in place, and the limit ``METRIC_RTOL *
    diameter`` on it."""
    edges, sub = _spanning_tree(d)
    return edges, float(np.subtract(d, sub, out=sub).max()), METRIC_RTOL * float(d.max())


def _spanning_tree(w: np.ndarray) -> tuple[list[tuple[float, int, int]], np.ndarray]:
    """Prim order and subdominant (minimax) ultrametric of weights.

    ``w`` is symmetric, ``inf`` means no edge and the diagonal is ignored. A
    dense Prim pass reaches each vertex at its key, the lightest weight from
    the vertices reached before it. It reaches every class of "closer than t"
    whole before it takes a weight of t or more, so each class is a run of
    its order, and the minimax row of each vertex is the larger of the
    previous vertex's row and its own key. The edges are the path ``(key,
    previous vertex, vertex)`` in that order, which joins the same classes at
    every height as a minimum spanning tree. The subdominant matrix has a
    zero diagonal and off it only copies entries of ``w``. O(n^2), with no
    n x n array besides the result. Raises ``DisconnectedGraph`` when a step
    finds no edge to the vertices not yet reached.
    """
    n = w.shape[0]
    sub = np.full((n, n), -np.inf)  # -inf, not 0: weights may be negative
    left = np.ones(n, dtype=bool)  # the vertices not yet reached
    left[0] = False
    key = w[0].copy()
    key[0] = np.inf  # a reached vertex keeps the key inf
    edges: list[tuple[float, int, int]] = []
    prev = 0
    for _ in range(n - 1):
        v = int(key.argmin())
        h = float(key[v])
        if h == np.inf:
            raise DisconnectedGraph("minimax distances need a connected graph")
        np.maximum(sub[prev], h, out=sub[v])  # exact on reached columns; later rows overwrite the rest
        sub[:, v] = sub[v]
        sub[v, v] = -np.inf
        edges.append((h, prev, v))
        left[v] = False
        key[v] = np.inf
        np.minimum(key, w[v], out=key, where=left)
        prev = v
    np.fill_diagonal(sub, 0.0)
    return edges, sub


def space_stats(space: FiniteMetricSpace) -> SpaceStats:
    """Diameter, minimum nonzero distance, and their ratio."""
    if space.n < 2:
        raise TooFewPoints("statistics are undefined for a single point")
    off = space.dist[~np.eye(space.n, dtype=bool)]
    diameter = float(off.max())
    min_positive = float(off.min())
    return SpaceStats(diameter, min_positive, diameter / min_positive)


# ------------------------------------------------------------------ graphs ----

def ultrametric_from_graph(
    edges: Iterable[tuple[str, str, float]], vertices: Iterable[str] = ()
) -> FiniteMetricSpace:
    """Minimax-path distances of a connected weighted graph.

    Endpoints become strings and weights floats. The vertices, in order, are
    the given ``vertices`` without repeats, then the other endpoints by first
    appearance. d(u, v) is the minimum over all walks joining u and v of the
    largest edge weight on the walk: the subdominant ultrametric of the
    matrix of lightest edge weights, read along Prim's order. The space keeps
    the edges of that pass, so the one spanning tree pass of the graph is the
    only one the space runs. Raises ``ValueError`` for a graph without
    vertices or an edge that ``_edge_fault`` rejects (a self-loop, or a
    weight that is not positive and finite), and ``DisconnectedGraph`` when
    the spanning tree pass cannot reach every vertex.
    """
    edge_list = [(str(u), str(v), float(w)) for u, v, w in edges]
    given = [str(v) for v in vertices]
    labels = tuple(dict.fromkeys(given + [x for u, v, _ in edge_list for x in (u, v)]))
    n = len(labels)
    if not n:
        raise ValueError("graph has no vertices")
    index = {v: i for i, v in enumerate(labels)}
    w = np.full((n, n), np.inf)
    for u, v, weight in edge_list:
        if fault := _edge_fault(u, v, weight):
            raise ValueError(fault)
        i, j = index[u], index[v]
        w[i, j] = w[j, i] = min(weight, w[i, j])
    tree, sub = _spanning_tree(w)
    # validate_metric would find nothing here, and the space's fit is known
    # exactly. sub is exactly symmetric with a zero diagonal; off the
    # diagonal it copies weights, which are positive and finite
    # (_edge_fault; inf means no edge, and the pass raised DisconnectedGraph
    # unless it reached every vertex). sub is an ultrametric, and the pass only
    # copies and takes maxima, so sub is its own subdominant ultrametric with
    # an excess of exactly 0; each path edge weighs sub at its ends, so the path
    # joins at every height the classes of sub that a pass over sub would join.
    fit = (tree, 0.0, METRIC_RTOL * float(sub.max()))
    return FiniteMetricSpace(labels=labels, dist=_freeze(sub), n=n, fit=fit)


# ------------------------------------------------------------- text formats ----

def _content_lines(source: str | Iterable[str]) -> Iterator[tuple[int, str]]:
    """Each line of a string, or of an iterable of strings such as an open
    text file, that is neither blank nor a comment, stripped, with its number
    among all lines (from 1). Lines end where ``str.splitlines`` ends them,
    and ``#`` starts a comment."""
    chunks = [source] if isinstance(source, str) else source
    lines = (line for chunk in chunks for line in chunk.splitlines())
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


class _TokenFloats(dict):
    """Each token converted by ``float`` on first use and stored, so that a
    file converts each distinct token once."""

    def __missing__(self, token: str) -> float:
        value = self[token] = float(token)
        return value


def parse_matrix_text(source: str | Iterable[str]) -> tuple[list[str], np.ndarray]:
    """Parse the matrix file format from a string or an open text file.

    An optional ``labels: a b c ...`` line may precede or follow the count
    line; then come ``n`` whitespace-separated rows. ``#`` starts a comment.
    A file is read line by line, never whole. Each distinct token is
    converted by ``float`` once: a symmetric matrix holds each off-diagonal
    value twice, and an ultrametric row repeats its few heights. Each row is
    written into one result, whose rows double, up to n, as they fill; so a
    huge count fails on the first short row or at the end of the rows
    without allocating an n x n matrix.
    """
    labels: list[str] | None = None
    n: int | None = None
    filled = 0  # rows of the matrix written so far
    convert = _TokenFloats().__getitem__
    for lineno, line in _content_lines(source):
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
            matrix = np.empty((0, n))  # grows as rows arrive
            continue
        tokens = line.split()
        try:
            row = np.fromiter(map(convert, tokens), np.float64, len(tokens))
        except ValueError:
            raise ParseError(lineno, f"bad matrix row: {line!r}") from None
        if len(row) != n:
            raise ParseError(lineno, f"expected {n} entries, found {len(row)}")
        if filled == n:
            raise ParseError(lineno, "more rows than the declared count")
        if filled == len(matrix):  # full: double its rows; no view of it exists
            matrix.resize((min(2 * filled or 1, n), n), refcheck=False)
        matrix[filled] = row
        filled += 1
    if n is None:
        raise ParseError(0, "missing point count")
    if filled != n:
        raise ParseError(0, f"expected {n} rows, found {filled}")
    if labels is None:
        labels = [f"x{i + 1}" for i in range(n)]
    elif len(labels) != n:
        raise ParseError(0, f"{len(labels)} labels for {n} points")
    return labels, matrix


def parse_edge_list_text(source: str | Iterable[str]) -> list[tuple[str, str, float]]:
    """Parse ``u v w`` edge lines, from a string or an open text file, into
    ``(u, v, w)`` tuples for ``ultrametric_from_graph``; ``#`` starts a
    comment. An edge that ``_edge_fault`` rejects raises a ``ParseError``
    that names its line."""
    edges: list[tuple[str, str, float]] = []
    for lineno, line in _content_lines(source):
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
    return edges
