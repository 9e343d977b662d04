"""Answer checks against the reference frozen from the seed commit.

``summarize`` reduces a request's exit code and JSON report to the fields the
reference pins: exit code, classification, gap, M_p and bound values, and
witness presence. ``Checker`` compares a summary with the frozen one (floats
to 1e-9 relative) and checks two properties the reference cannot pin:
``z_star`` must attain ``beta`` on the hat form (so a different maximizer
among ties still passes), and an oracle estimate must not undercut the
exact gap.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

RTOL = 1e-9
ORACLE_SLACK = 1e-6


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


def summarize(kind: str, exit_code: int, stdout: str) -> dict:
    """The reference-comparable fields of one request's outcome."""
    out: dict = {"exit": exit_code}
    if not stdout.strip():
        return out
    report = json.loads(stdout)
    if kind == "analyze":
        cert = report["certificate"]
        out["classification"] = cert["classification"]
        out["m_p"] = cert["m_p"]
        out["witness"] = "witness" in report
        gap = report["gap"]
        if gap is not None:
            out["mode"] = gap["mode"]
            names = ("gamma", "beta") if gap["mode"] == "exact" else (
                "lower", "upper", "spectral_lower", "spectral_upper", "mean_bound")
            out.update({name: gap[name] for name in names if name in gap})
        if report["xi"] is not None:
            out["xi"] = report["xi"]["xi"]
    elif kind == "glue":
        for name in ("classification", "margin", "m_p_left", "m_p_right",
                     "gamma_left", "gamma_right", "glued_gamma_exact"):
            if name in report:
                out[name] = report[name]
        if "bounds" in report:
            out.update({f"bounds_{k}": report["bounds"][k] for k in ("lower", "upper", "alpha")})
    elif kind == "ultra bounds":
        b = report["bounds"]
        for name in ("gamma_lower", "gamma_upper", "lower_reciprocal", "upper_reciprocal"):
            out[name] = b[name]
        out["leaves"] = len(b["leaves"])
        out["splits"] = len(b["splits"])
        if "gamma_exact" in report:
            out["gamma_exact"] = report["gamma_exact"]
    elif kind == "ultra decompose":
        out["tree"] = _digest(report["tree"])
        out["splits"] = len(report["splits"])
    elif kind == "ultra coteries":
        out["alpha"] = report["alpha"]
        out["e"] = report["e"]
        out["coteries"] = _digest(report["coteries"])
    return out


def _same(expected, actual) -> bool:
    if isinstance(expected, float) and isinstance(actual, (int, float)):
        if math.isinf(expected) or math.isinf(actual):
            return expected == actual
        return math.isclose(expected, actual, rel_tol=RTOL, abs_tol=0.0)
    return expected == actual


def hat_form(dist: np.ndarray, p: float) -> np.ndarray:
    """The hat matrix of ``dist**p``, computed independently of the library."""
    inv = np.linalg.inv(dist**p)
    b = inv.sum(axis=1)
    return np.outer(b, b) / b.sum() - inv


class Checker:
    """Compares outcomes with the frozen reference; counts and explains failures."""

    def __init__(self, reference: dict, instances: dict):
        self.reference = reference
        self.instances = instances
        self._hats: dict = {}
        self.errors: list[str] = []

    def _fail(self, key: str, why: str) -> bool:
        if len(self.errors) < 20:
            self.errors.append(f"{key}: {why}")
        return False

    def check(self, request, exit_code, stdout: str) -> bool:
        """True when the outcome matches the reference and the value checks."""
        key = request.key
        expected = self.reference["requests"].get(key)
        if expected is None:
            return self._fail(key, "no frozen reference for this request")
        if exit_code != expected["exit"]:
            return self._fail(key, f"exit code {exit_code}, expected {expected['exit']}")
        try:
            actual = summarize(request.kind, exit_code, stdout)
        except (ValueError, KeyError, TypeError) as exc:
            return self._fail(key, f"unreadable report: {exc!r}")
        for name, want in expected.items():
            if name not in actual or not _same(want, actual[name]):
                return self._fail(key, f"{name} = {actual.get(name)!r}, expected {want!r}")
        for name in actual.keys() - expected.keys():
            return self._fail(key, f"unexpected field {name}")
        if exit_code == 0 and request.kind == "analyze" and actual.get("mode") == "exact":
            return self._check_exact(request, json.loads(stdout)["gap"], expected)
        return True

    def _check_exact(self, request, gap: dict, expected: dict) -> bool:
        beta = expected["beta"]
        if "z_star" in gap:
            dist = self.instances[request.file].dist
            hat = self._hats.get((request.file, request.p))
            if hat is None:
                hat = self._hats[(request.file, request.p)] = hat_form(dist, request.p)
            z = np.asarray(gap["z_star"], dtype=float)
            if z.shape != (dist.shape[0],) or not np.all(np.abs(z) == 1.0):
                return self._fail(request.key, "z_star is not a sign vector")
            value = float(z @ hat @ z)
            if not math.isclose(value, beta, rel_tol=RTOL, abs_tol=0.0):
                return self._fail(request.key, f"hat form at z_star is {value!r}, beta {beta!r}")
        if "--oracle" in request.argv:
            oracle = gap.get("oracle_gamma")
            if oracle is None:
                return self._fail(request.key, "oracle requested but not reported")
            if oracle < expected["gamma"] * (1.0 - ORACLE_SLACK):
                return self._fail(request.key, f"oracle gamma {oracle!r} undercuts the exact gap")
        return True
