"""Shared constructions for the test suite.

The seven-point example space (a path-shaped weighted graph and its minimax
distance matrix) is used throughout; random ultrametric spaces are built as
random dendrograms with ascending merge heights, which guarantees the strong
triangle inequality exactly. The ``brute_*`` functions are cubic oracles for
the ultrametric structure, apart from ``brute_parse_matrix_text``, a
reference matrix-file reader that converts every token. ``singular_crossing``
builds graph metrics whose p-distance matrix is singular and has 1 outside
its range. ``reference_sign_maximum`` is the exhaustive sign enumerator that the
bound-pruned one in ``negtype.gap`` replaced, and ``reference_refined_solve``
the scipy LU solve with refinement that once gave ``certify`` its b.
"""

from __future__ import annotations

from math import inf

import numpy as np
from scipy.linalg import lu_solve

from negtype import (
    FiniteMetricSpace,
    discrete_space,
    p_distance_matrix,
    scale_space,
    sym_eigen,
    validate_metric,
)
from negtype.errors import ParseError
from negtype.gap import _sign_patterns
from negtype.metric import METRIC_RTOL, _content_lines
from negtype.ultrametric import UltrametricTree

EXAMPLE_LABELS = ("a", "b", "c", "d", "e", "f", "g")

EXAMPLE_EDGES = (
    ("a", "b", 2.0),
    ("b", "c", 2.0),
    ("c", "d", 1.0),
    ("c", "e", 3.0),
    ("e", "f", 1.0),
    ("f", "g", 4.0),
)

EXAMPLE_MATRIX = np.array(
    [
        [0, 2, 2, 2, 3, 3, 4],
        [2, 0, 2, 2, 3, 3, 4],
        [2, 2, 0, 1, 3, 3, 4],
        [2, 2, 1, 0, 3, 3, 4],
        [3, 3, 3, 3, 0, 1, 4],
        [3, 3, 3, 3, 1, 0, 4],
        [4, 4, 4, 4, 4, 4, 0],
    ],
    dtype=float,
)


def example_space() -> FiniteMetricSpace:
    return validate_metric(EXAMPLE_LABELS, EXAMPLE_MATRIX)


def line_space() -> FiniteMetricSpace:
    """Three collinear points at unit spacing: strict at p=1, non-strict at
    p=2, not of negative type at p=3."""
    return validate_metric(["u", "v", "w"], [[0, 1, 2], [1, 0, 1], [2, 1, 0]])


def random_dendrogram(
    rng: np.random.Generator, n: int, lo=1.0, hi=2.0, levels=None
) -> np.ndarray:
    """Distance matrix of a random dendrogram: merge heights drawn in [lo, hi],
    or from ``levels`` when given (so that they repeat), ascending."""
    clusters: list[list[int]] = [[i] for i in range(n)]
    if levels is None:
        heights = np.sort(rng.uniform(lo, hi, size=n - 1))
    else:
        heights = np.sort(rng.choice(levels, size=n - 1))
    d = np.zeros((n, n))
    for height in heights:
        i, j = sorted(rng.choice(len(clusters), size=2, replace=False))
        d[np.ix_(clusters[i], clusters[j])] = height
        d[np.ix_(clusters[j], clusters[i])] = height
        clusters[i] = clusters[i] + clusters[j]
        del clusters[j]
    return d


def random_ultrametric(rng: np.random.Generator, n: int, lo=1.0, hi=2.0) -> FiniteMetricSpace:
    """Random dendrogram metric: merge heights drawn in [lo, hi], ascending."""
    if n == 1:
        return validate_metric(["x1"], np.zeros((1, 1)))
    return validate_metric([f"x{i + 1}" for i in range(n)], random_dendrogram(rng, n, lo, hi))


def repeated_height_ultrametric(rng: np.random.Generator, n: int) -> FiniteMetricSpace:
    """Random dendrogram metric whose n - 1 merge heights take three values."""
    d = random_dendrogram(rng, n, levels=(1.0, 1.5, 2.0))
    return validate_metric([f"x{i + 1}" for i in range(n)], d)


def caterpillar(n: int) -> np.ndarray:
    """Ultrametric d[i, j] = max(i, j) + 1: its single linkage has n - 1 levels."""
    i = np.arange(n)
    d = np.maximum.outer(i, i) + 1.0
    np.fill_diagonal(d, 0.0)
    return d


def random_euclidean(rng: np.random.Generator, n: int, dim: int = 3) -> FiniteMetricSpace:
    """Distance matrix of random Gaussian points (strict at p = 1)."""
    points = rng.standard_normal((n, dim))
    diff = points[:, None, :] - points[None, :, :]
    d = np.sqrt((diff**2).sum(axis=2))
    d = 0.5 * (d + d.T)
    np.fill_diagonal(d, 0.0)
    return validate_metric([f"x{i + 1}" for i in range(n)], d)


def ultrametric_corpus(seed: int = 20240814, count: int = 100) -> list[FiniteMetricSpace]:
    """Seeded corpus of random ultrametrics with every tenth space discrete."""
    rng = np.random.default_rng(seed)
    corpus = []
    for k in range(count):
        n = int(rng.integers(2, 11))
        if k % 10 == 9:
            scale = float(rng.uniform(0.5, 3.0))
            corpus.append(scale_space(discrete_space(n), scale))
        else:
            corpus.append(random_ultrametric(rng, n))
    return corpus


def random_connected_graph(rng: np.random.Generator, n: int):
    """Random spanning tree plus a few extra edges; weights in [0.5, 4]."""
    edges = []
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.append((f"v{u}", f"v{v}", float(rng.uniform(0.5, 4.0))))
    extras = int(rng.integers(0, n))
    for _ in range(extras):
        u, v = rng.choice(n, size=2, replace=False)
        edges.append((f"v{u}", f"v{v}", float(rng.uniform(0.5, 4.0))))
    return edges


def random_graph_metric(rng: np.random.Generator, n: int) -> FiniteMetricSpace:
    """Metric closure (shortest paths) of the complete graph with weights in [1, 3]."""
    w = np.triu(rng.uniform(1.0, 3.0, size=(n, n)), 1)
    w += w.T
    for k in range(n):
        w = np.minimum(w, w[:, k, None] + w[None, k, :])
    return validate_metric([f"x{i + 1}" for i in range(n)], w)


def singular_crossing(seed: int) -> tuple[FiniteMetricSpace, float]:
    """A random graph metric (n = 6 + seed % 6) and the exponent p, found by
    bisecting on the sign of lambda_{n-1}(D_p), at which |lambda_{n-1}| is
    within ``zero_tol``: D_p is singular there, and 1 is outside its range."""
    space = random_graph_metric(np.random.default_rng(seed), 6 + seed % 6)

    def penultimate(p):
        spectrum = sym_eigen(p_distance_matrix(space, p).entries)
        return float(spectrum.eigenvalues[-2]), spectrum.zero_tol

    lo, hi = 0.05, 1.0  # D_p tends to J - I, with lambda_{n-1} = -1, as p -> 0
    while penultimate(hi)[0] <= 0.0:
        lo, hi = hi, 2.0 * hi
    while True:
        p = 0.5 * (lo + hi)
        lam, tol = penultimate(p)
        if abs(lam) <= tol:
            return space, p
        lo, hi = (lo, p) if lam > 0.0 else (p, hi)


def tree_path_max_weight(tree_edges, u: str, v: str) -> float:
    """Independent oracle: max edge weight on the unique tree path u -> v."""
    adj: dict[str, list[tuple[str, float]]] = {}
    for a, b, w in tree_edges:
        adj.setdefault(a, []).append((b, w))
        adj.setdefault(b, []).append((a, w))
    stack = [(u, None, 0.0)]
    while stack:
        node, parent, peak = stack.pop()
        if node == v:
            return peak
        for nbr, w in adj.get(node, ()):
            if nbr != parent:
                stack.append((nbr, node, max(peak, w)))
    raise AssertionError(f"no path from {u} to {v}")


def brute_is_ultrametric(space: FiniteMetricSpace) -> bool:
    """Cubic oracle: d(x, y) <= max(d(x, z), d(z, y)) + METRIC_RTOL * diameter on every triple."""
    d = space.dist
    if space.n < 3:
        return True
    tol = METRIC_RTOL * float(d.max())
    peaks = np.maximum(d[:, None, :], d.T[None, :, :])  # (i, j, k)
    return bool((peaks >= d[:, :, None] - tol).all())


def brute_triangle_violation(d) -> tuple[int, int, int] | None:
    """Cubic oracle: the first (i, j, k) in C order whose slack
    d[i, k] + d[k, j] - d[i, j] is below -METRIC_RTOL * max(d), or None."""
    d = np.asarray(d, dtype=np.float64)
    tol = METRIC_RTOL * float(d.max())
    slack = d[:, None, :] + d.T[None, :, :] - d[:, :, None]  # (i, j, k)
    bad = np.argwhere(slack < -tol)
    return tuple(map(int, bad[0])) if bad.size else None


def brute_strictly_ultrametric(a) -> bool:
    """Cubic oracle: every entry dominates the min over detours and the
    diagonal strictly dominates its row."""
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    detours = np.minimum(a[:, None, :], a.T[None, :, :])  # [i, j, k] -> min(a[i,k], a[k,j])
    if not (a[:, :, None] >= detours).all():
        return False
    off_max = np.where(np.eye(n, dtype=bool), -np.inf, a).max(axis=1)
    return bool((np.diag(a) > off_max).all())


def brute_decompose(space: FiniteMetricSpace, full_split: bool = False) -> UltrametricTree:
    """Reference diameter-split tree, from the definition and with no recursion.

    A set of diameter D splits into the classes of "closer than D". The
    largest class (ties go to the one holding the smallest index) splits off
    and the rest splits again at D. Single points are leaves, and so are
    discrete blocks, whose classes are all single points, unless
    ``full_split``. Children are ordered by their smallest index.
    """
    d = space.dist
    sets = [tuple(range(space.n))]
    diameters: list[float] = []
    sides: list[int | None] = []  # where each set's two sides sit in ``sets``
    for members in sets:  # grows while it is read
        block = d[np.ix_(members, members)]
        diameter = float(block.max())
        diameters.append(diameter)
        classes = sorted({tuple(np.array(members)[row < diameter].tolist()) for row in block})
        if len(members) == 1 or (not full_split and all(len(c) == 1 for c in classes)):
            sides.append(None)
            continue
        largest = max(classes, key=len)
        rest = tuple(i for i in members if i not in largest)
        sides.append(len(sets))
        sets += sorted((largest, rest))
    trees: list = [None] * len(sets)
    for k in reversed(range(len(sets))):  # a set's sides come after it
        s = sides[k]
        children = None if s is None else (trees[s], trees[s + 1])
        labels = tuple(space.labels[i] for i in sets[k])
        trees[k] = UltrametricTree(labels, sets[k], diameters[k], children)
    return trees[0]


def brute_minimax(vertices, edges) -> np.ndarray:
    """Cubic oracle: minimax-path distances by Floyd-Warshall in the (min, max) semiring."""
    index = {v: i for i, v in enumerate(vertices)}
    n = len(vertices)
    d = np.full((n, n), np.inf)
    for u, v, w in edges:
        i, j = index[u], index[v]
        d[i, j] = d[j, i] = min(d[i, j], w)
    for k in range(n):
        d = np.minimum(d, np.maximum(d[:, k, None], d[None, k, :]))
    np.fill_diagonal(d, 0.0)
    return d


def brute_parse_matrix_text(text: str) -> tuple[list[str], np.ndarray]:
    """Reference matrix-file reader: ``float()`` on every token, rows kept as
    lists of floats until the end. Same errors, lines and messages as
    ``parse_matrix_text``."""
    labels: list[str] | None = None
    n: int | None = None
    rows: list[list[float]] = []
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
            row = [float(tok) for tok in line.split()]
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
    return labels, np.asarray(rows)


# The exhaustive sign enumerator that preceded the pruned one in negtype.gap.
_LOW_BITS = 14  # signs in the low block of the sign enumeration
_BLOCK_ENTRIES = 1 << 17  # values (1 MB) per enumeration block


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


def reference_sign_maximum(
    hat: np.ndarray, low_bits: int = _LOW_BITS, block_entries: int = _BLOCK_ENTRIES
) -> tuple[np.ndarray, float]:
    """The sign vector z (first sign +1) maximizing (hat z | z), and that value:
    the exhaustive enumerator that ``negtype.gap._sign_maximum`` replaced,
    kept as a reference for its ``z_star`` and beta.

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


# The scipy solve that preceded numpy's in negtype.spectral and negtype.gap.certify.
_REFINE_SWEEPS = 3


def reference_refined_solve(a: np.ndarray, rhs: np.ndarray, lu: tuple) -> np.ndarray:
    """LU solve plus fixed-precision iterative refinement.

    Assumes ``a`` is nonsingular; ``lu`` is ``lu_factor(a)``. Refinement drives
    the componentwise backward error toward machine precision, which plain LU
    does not guarantee for badly graded matrices.
    """
    x = lu_solve(lu, rhs)
    for _ in range(_REFINE_SWEEPS):
        r = rhs - a @ x
        if not np.abs(r).any():
            break
        x = x + lu_solve(lu, r)
    return x
