"""Outside-in tracer: spans around calls into each negtype layer.

The program is not changed. ``Tracer.install`` replaces every public function
of the seven layer modules, at every module attribute it is bound under
(modules import each other by name, e.g. ``from .spectral import
refined_solve``), with a wrapper that records a span. The scipy
``lu_factor`` binding in ``negtype.spectral`` is wrapped too, so
factorizations can be counted and the factored matrices told apart by a hash
of their bytes. ``uninstall`` restores the original bindings.

A span's self time is its duration minus the time its child spans cover,
kept with a span stack. Spans stay in memory, in flat arrays that the
garbage collector does not scan; ``write_spans`` saves them.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("cli", "metric", "spectral", "gap", "bounds", "glue", "ultrametric")

MAX_SPANS = 500_000


class _Stat:
    __slots__ = ("calls", "total", "self")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0


class Tracer:
    def __init__(self):
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self.counts: dict[str, float] = defaultdict(float)
        self.spans = {col: array(code) for col, code in
                      (("request", "q"), ("id", "q"), ("parent", "q"), ("name", "H"),
                       ("start", "d"), ("end", "d"))}
        self.dropped_spans = 0
        self._stack: list[list] = []
        self._next_id = 0
        self._request = -1
        self._kind = ""
        self._matrices: set[bytes] = set()
        self.modules = {layer: importlib.import_module(f"negtype.{layer}") for layer in LAYERS}
        targets: dict[int, tuple[str, str, object]] = {}
        for layer, mod in self.modules.items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    targets[id(obj)] = (layer, name, obj)
        lu = self.modules["spectral"].lu_factor
        targets[id(lu)] = ("spectral", "lu_factor", lu)
        self.keys = [f"{layer}.{name}" for layer, name, _ in targets.values()]
        self._wrappers = {fid: self._wrap(f"{layer}.{name}", index, fn)
                          for index, (fid, (layer, name, fn)) in enumerate(targets.items())}
        self._bindings = []
        for modname, mod in list(sys.modules.items()):
            if modname == "negtype" or modname.startswith("negtype."):
                for attr, obj in vars(mod).items():
                    if id(obj) in self._wrappers and obj is targets[id(obj)][2]:
                        self._bindings.append((mod, attr, obj, self._wrappers[id(obj)]))

    # -------------------------------------------------------------- binding --

    def install(self) -> None:
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._bindings:
            setattr(mod, attr, original)

    @property
    def binding_names(self) -> list[str]:
        return sorted(f"{mod.__name__}.{attr}" for mod, attr, _, _ in self._bindings)

    # ------------------------------------------------------------- requests --

    def begin_request(self, index: int, kind: str) -> None:
        self._request = index
        self._kind = kind
        self._matrices = set()
        self.counts["requests"] += 1
        self.counts[f"requests[{kind}]"] += 1

    def end_request(self) -> None:
        self.counts["distinct_lu_matrices"] += len(self._matrices)

    # ---------------------------------------------------------------- spans --

    def _wrap(self, key: str, index: int, fn):
        stats = self.stats
        stack = self._stack
        after = _AFTER.get(key)
        spans = self.spans
        col_request, col_id, col_parent = spans["request"], spans["id"], spans["parent"]
        col_name, col_start, col_end = spans["name"], spans["start"], spans["end"]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][2] if stack else -1
            frame = [perf_counter(), 0.0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[0]
                stat = stats[key]
                stat.calls += 1
                stat.total += duration
                stat.self += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if len(col_id) < MAX_SPANS:
                    col_request.append(self._request)
                    col_id.append(span_id)
                    col_parent.append(parent)
                    col_name.append(index)
                    col_start.append(frame[0])
                    col_end.append(end)
                else:
                    self.dropped_spans += 1
            if after is not None:
                # Counting is tracer work: keep it out of the caller's self time.
                started = perf_counter()
                after(self, args, kwargs, result)
                if stack:
                    stack[-1][1] += perf_counter() - started
            return result

        return wrapper

    def write_spans(self, path: str) -> None:
        cols = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            for row in zip(*cols.values()):
                span = dict(zip(cols, row))
                span["name"] = self.keys[span["name"]]
                fh.write(json.dumps(span) + "\n")

    # -------------------------------------------------------------- summary --

    def layer_self(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for key, stat in self.stats.items():
            out[key.split(".", 1)[0]] += stat.self
        return out

    def total(self, *keys: str) -> float:
        return sum(self.stats[k].total for k in keys if k in self.stats)

    def self_time(self, *keys: str) -> float:
        return sum(self.stats[k].self for k in keys if k in self.stats)

    def calls(self, *keys: str) -> int:
        return sum(self.stats[k].calls for k in keys if k in self.stats)


# Work counts computed from the arguments and results of a traced call.

def _after_gap_exact(tracer, args, kwargs, result) -> None:
    if result.method.value == "SignEnumeration":
        n = result.z_star.size
        vectors = 2 ** (n - 1)
        tracer.counts["sign_vectors"] += vectors
        tracer.counts["enum_flops"] += vectors * 2 * n * (n + 1)


def _after_oracle(tracer, args, kwargs, result) -> None:
    tracer.counts["oracle_iterations"] += result.iterations


def _cubic(tracer, n: int) -> None:
    if n >= 3:
        tracer.counts["cubic_bytes"] += 8 * n**3


def _after_validate(tracer, args, kwargs, result) -> None:
    _cubic(tracer, result.n)


def _after_is_ultrametric(tracer, args, kwargs, result) -> None:
    _cubic(tracer, (args[0] if args else kwargs["space"]).n)


def _after_certify(tracer, args, kwargs, result) -> None:
    tracer.counts[f"certify[{tracer._kind}]"] += 1


def _after_lu(tracer, args, kwargs, result) -> None:
    a = np.ascontiguousarray(args[0] if args else kwargs["a"])
    tracer._matrices.add(hashlib.blake2b(a.tobytes(), digest_size=16).digest())


_AFTER = {
    "gap.gap_exact": _after_gap_exact,
    "gap.gap_numeric_oracle": _after_oracle,
    "gap.certify": _after_certify,
    "metric.validate_metric": _after_validate,
    "metric.is_ultrametric": _after_is_ultrametric,
    "spectral.lu_factor": _after_lu,
}
