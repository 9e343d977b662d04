"""Seeded inputs and request schedules for the three benchmark workloads.

Every input file comes from a fixed pool: an instance is generated
deterministically from ``(POOL_SEED, family, n, k)``, so its reference
answer can be frozen once (see ``freeze.py``). The run seed chooses which
pool instances a run uses and in what order, so the same seed gives the same
inputs and different seeds give different ones.

A ``Request``'s ``key`` names its frozen reference entry and its ``argv`` is
what ``negtype.cli.main`` receives, with ``{dir}`` standing for the run's
input directory.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

POOL_SEED = 20261017

WORKLOADS = ("enum-exact", "ultra-large", "cli-small")

# enum-exact: 3-D Gaussian points, exact gap by sign enumeration.
ENUM_SIZES = (18, 19, 20, 21)
ENUM_POOL = 16  # instances per size in the frozen pool
ENUM_PER_RUN = 4  # instances per size that one run uses

# ultra-large: random ultrametrics, too large to enumerate (bounds only).
ULTRA_SIZES = (192, 200, 208, 216, 224, 320)
ULTRA_POOL = 4
ULTRA_CYCLE = (
    ("analyze", "m"),
    ("bounds", "m"),
    ("bounds", "g"),
    ("decompose", "m"),
    ("decompose", "g"),
    ("coteries", "m"),
    ("coteries", "g"),
)

# cli-small: many 1-5 ms requests on small spaces and fixed files.
SMALL_SIZES = tuple(range(4, 13))
SMALL_POOL = 8  # instances per (family, size)
SMALL_PER_RUN = 24
P_VALUES = (1.0, 1.5)
# One round: three analyze requests (-1..-3) and the fixed requests by index:
# glue twice, so that the 90th percentile falls inside the slowest kind.
SMALL_ROUND = (-1, -2, -3, 0, 1, 2, 3, 0)

# Copies of files in the repository's test data, kept here so the benchmark
# inputs stay fixed when the test suite's files change.
FIXED_FILES = {
    "x5_a": "labels: p q r s t\n5\n"
    + "".join(" ".join("0" if i == j else "1" for j in range(5)) + "\n" for i in range(5)),
    "x5_b": "labels: v w x y z\n5\n"
    + "".join(" ".join("0" if i == j else "1" for j in range(5)) + "\n" for i in range(5)),
    "example_graph": "# seven-vertex weighted graph\n"
    "a b 2\nb c 2\nc d 1\nc e 3\ne f 1\nf g 4\n",
    "asymmetric": "labels: a b\n2\n0 1\n2 0\n",
    "line3": "labels: u v w\n3\n0 1 2\n1 0 1\n2 1 0\n",
}


@dataclass(frozen=True)
class Instance:
    """One input file: its pool id, text, and (for matrix files) distances."""

    ident: str
    text: str
    dist: np.ndarray | None

    @property
    def sha(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class Request:
    key: str
    argv: tuple[str, ...]
    kind: str
    file: str
    p: float


def _rng(*parts: int) -> np.random.Generator:
    return np.random.default_rng([POOL_SEED, *parts])


def matrix_text(dist: np.ndarray) -> str:
    """Matrix-file text whose parse returns exactly ``dist`` (repr round-trips)."""
    values, codes = np.unique(dist, return_inverse=True)
    words = [repr(float(v)) if v != 0 else "0" for v in values]
    rows = "\n".join(" ".join(words[c] for c in row) for row in codes.reshape(dist.shape))
    return f"{dist.shape[0]}\n{rows}\n"


def euclidean(n: int, k: int, family: int = 1) -> np.ndarray:
    points = _rng(family, n, k).standard_normal((n, 3))
    d = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))
    d = np.maximum(d, d.T)
    np.fill_diagonal(d, 0.0)
    return d


def ultrametric(n: int, k: int, family: int = 2):
    """Random dendrogram distances, and a graph whose minimax paths give them.

    Merge heights are distinct, so the dendrogram edges form the unique
    minimum spanning tree; each extra edge is heavier than the distance
    between its ends and leaves the minimax distances unchanged.
    """
    rng = _rng(family, n, k)
    heights = np.sort(rng.uniform(1.0, 2.0, size=n - 1))
    clusters = [[i] for i in range(n)]
    d = np.zeros((n, n))
    edges = []
    for h in heights:
        i, j = sorted(rng.choice(len(clusters), size=2, replace=False))
        a, b = clusters[i], clusters[j]
        d[np.ix_(a, b)] = h
        d[np.ix_(b, a)] = h
        edges.append((a[rng.integers(len(a))], b[rng.integers(len(b))], float(h)))
        clusters[i] = a + b
        del clusters[j]
    for _ in range(n):
        u, v = rng.choice(n, size=2, replace=False)
        edges.append((int(u), int(v), float(d[u, v] + rng.uniform(0.01, 1.0))))
    order = rng.permutation(len(edges))
    graph = "".join(f"v{edges[e][0]} v{edges[e][1]} {edges[e][2]!r}\n" for e in order)
    return d, graph


def pool_instance(ident: str) -> Instance:
    """Rebuild one pool instance from its id, e.g. ``e-n19-k3`` or ``ug-n192-k0``."""
    if ident in FIXED_FILES:
        return Instance(ident, FIXED_FILES[ident], None)
    family, n_part, k_part = ident.split("-")
    n, k = int(n_part[1:]), int(k_part[1:])
    if family in ("e", "se"):
        d = euclidean(n, k, family=1 if family == "e" else 3)
        return Instance(ident, matrix_text(d), d)
    if family in ("um", "ug"):
        d, graph = ultrametric(n, k)
        if family == "ug":
            return Instance(ident, graph, None)
        return Instance(ident, matrix_text(d), d)
    if family == "su":
        d, _ = ultrametric(n, k, family=4)
        return Instance(ident, matrix_text(d), d)
    raise ValueError(f"unknown pool instance {ident!r}")


def _analyze(ident: str, p: float, oracle: bool = False) -> Request:
    argv = ["analyze", f"{{dir}}/{ident}.txt", "--json", "--p", repr(p)]
    if oracle:
        argv.append("--oracle")
    return Request(f"analyze|{ident}|{p!r}", tuple(argv), "analyze", ident, p)


def _ultra(sub: str, ident: str) -> Request:
    argv = ("ultra", sub, f"{{dir}}/{ident}.txt", "--json")
    return Request(f"ultra {sub}|{ident}", argv, f"ultra {sub}", ident, 1.0)


def pool_requests(workload: str) -> list[Request]:
    """Every request whose answer the frozen reference must hold."""
    if workload == "enum-exact":
        return [_analyze(f"e-n{n}-k{k}", p)
                for n in ENUM_SIZES for k in range(ENUM_POOL) for p in P_VALUES]
    if workload == "ultra-large":
        out = []
        for n in ULTRA_SIZES:
            for k in range(ULTRA_POOL):
                for kind, form in ULTRA_CYCLE:
                    ident = f"u{form}-n{n}-k{k}"
                    out.append(_analyze(ident, 1.0) if kind == "analyze" else _ultra(kind, ident))
        return out
    if workload == "cli-small":
        out = [_analyze(f"{fam}-n{n}-k{k}", p)
               for fam in ("se", "su") for n in SMALL_SIZES
               for k in range(SMALL_POOL) for p in P_VALUES]
        return out + _fixed_requests()
    raise ValueError(f"unknown workload {workload!r}")


def _fixed_requests() -> list[Request]:
    glue = Request("glue|x5_a+x5_b|c5",
                   ("glue", "{dir}/x5_a.txt", "{dir}/x5_b.txt", "--c", "5", "--json"),
                   "glue", "x5_a", 1.0)
    return [glue, _ultra("bounds", "example_graph"), _analyze("asymmetric", 1.0),
            _analyze("line3", 3.0)]


class Schedule:
    """The run's input files and its endless, seed-determined request order."""

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
        self.workload = workload
        rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
        if workload == "enum-exact":
            self.chosen = {n: [f"e-n{n}-k{k}" for k in rng.choice(ENUM_POOL, ENUM_PER_RUN, replace=False)]
                           for n in ENUM_SIZES}
            self.p_offset = int(rng.integers(2))
            files = [f for fs in self.chosen.values() for f in fs]
        elif workload == "ultra-large":
            self.chosen = {n: int(rng.integers(ULTRA_POOL)) for n in ULTRA_SIZES}
            files = [f"u{form}-n{n}-k{k}" for n, k in self.chosen.items() for form in "mg"]
        else:
            pool = [f"{fam}-n{n}-k{k}" for fam in ("se", "su") for n in SMALL_SIZES
                    for k in range(SMALL_POOL)]
            self.chosen = [pool[i] for i in rng.choice(len(pool), SMALL_PER_RUN, replace=False)]
            self.p_offset = int(rng.integers(2))
            files = self.chosen + list(FIXED_FILES)
        self.files = files
        # Requests after which the mix of request types repeats.
        self.period = {"enum-exact": 4 * len(ENUM_SIZES),
                       "ultra-large": len(ULTRA_SIZES) * len(ULTRA_CYCLE),
                       "cli-small": len(SMALL_ROUND)}[workload]

    def instances(self) -> list[Instance]:
        return [pool_instance(f) for f in self.files]

    def warmup(self) -> Request:
        """A cheap request of the workload's main kind, run during set-up."""
        if self.workload == "enum-exact":
            return _analyze(self.chosen[ENUM_SIZES[0]][0], 1.0)
        if self.workload == "ultra-large":
            n = ULTRA_SIZES[0]
            return _analyze(f"um-n{n}-k{self.chosen[n]}", 1.0)
        return _analyze(self.chosen[0], 1.0)

    def request(self, i: int) -> Request:
        """The i-th request of the run."""
        if self.workload == "enum-exact":
            n = ENUM_SIZES[i % len(ENUM_SIZES)]
            rnd = i // len(ENUM_SIZES)
            ident = self.chosen[n][rnd % ENUM_PER_RUN]
            p = P_VALUES[(rnd // ENUM_PER_RUN + n + self.p_offset) % 2]
            return _analyze(ident, p, oracle=(n == ENUM_SIZES[rnd % len(ENUM_SIZES)]))
        if self.workload == "ultra-large":
            n = ULTRA_SIZES[i % len(ULTRA_SIZES)]
            kind, form = ULTRA_CYCLE[(i // len(ULTRA_SIZES)) % len(ULTRA_CYCLE)]
            ident = f"u{form}-n{n}-k{self.chosen[n]}"
            return _analyze(ident, 1.0) if kind == "analyze" else _ultra(kind, ident)
        slot, rnd = SMALL_ROUND[i % len(SMALL_ROUND)], i // len(SMALL_ROUND)
        if slot < 0:
            j = 3 * rnd - slot - 1
            return _analyze(self.chosen[j % SMALL_PER_RUN], P_VALUES[(j + self.p_offset) % 2])
        return _fixed_requests()[slot]
