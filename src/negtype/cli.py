"""Command-line front end: parse files, run analyses, emit reports.

stdout carries the report (human text, or one line of JSON with ``--json``);
stderr carries diagnostics. Exit codes: 0 success, 1 invalid input or usage,
2 the space is not of p-negative type (a witness is printed), 3 an internal
tolerance check failed. Each command runs its BLAS and LAPACK calls on one
thread (``spectral._one_blas_thread``), so its numbers do not depend on
``OPENBLAS_NUM_THREADS``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import cache
from math import isinf

from . import bounds as bounds_mod
from . import gap as gap_mod
from . import glue as glue_mod
from . import ultrametric as ultra_mod
from .errors import NegTypeError, ToleranceFailure
from .gap import _check_containment
from .metric import (
    FiniteMetricSpace,
    _check_exponent,
    _first_content_line,
    is_ultrametric,
    p_distance_matrix,
    parse_edge_list_text,
    parse_matrix_text,
    space_stats,
    ultrametric_from_graph,
    validate_metric,
)
from .spectral import _one_blas_thread
from .ultrametric import _fmt

EXIT_OK = 0
EXIT_INVALID_INPUT = 1
EXIT_NOT_NEGATIVE_TYPE = 2
EXIT_TOLERANCE_FAILURE = 3


def _load_matrix_space(path: str) -> FiniteMetricSpace:
    with open(path, "r", encoding="utf-8") as fh:
        labels, matrix = parse_matrix_text(fh.read())
    return validate_metric(labels, matrix)


def _load_ultra_space(path: str) -> FiniteMetricSpace:
    """Read a matrix file when the first line that is neither blank nor a
    comment is ``labels: ...`` or a lone count, and an edge list otherwise."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    first = _first_content_line(text)
    if first.startswith("labels:") or len(first.split()) == 1:
        labels, matrix = parse_matrix_text(text)
        return validate_metric(labels, matrix)
    return ultrametric_from_graph(parse_edge_list_text(text))


def _finite_or_null(x: float) -> float | None:
    """``x``, or None (JSON null) where it is infinite: JSON has no infinity."""
    return None if isinf(x) else x


def _fmt_or_inf(x: float | None) -> str:
    """The text form of a report value that ``_finite_or_null`` wrote."""
    return "inf" if x is None else _fmt(x)


def _space_echo(space: FiniteMetricSpace) -> dict:
    echo = {"n": space.n, "labels": list(space.labels)}
    if space.n >= 2:
        stats = space_stats(space)
        echo.update(
            diameter=stats.diameter, min_positive=stats.min_positive, ratio=stats.ratio
        )
    return echo


def _certificate_summary(cert: gap_mod.NegTypeCertificate) -> dict:
    return {
        "classification": cert.classification.value,
        "lambda_penultimate": cert.lambda_penultimate,
        "lambda_max": cert.lambda_max,
        "b_dot_one": cert.b_dot_one,
        "m_p": cert.m_p,
        "m_p_reason": cert.m_p_reason,
        "boundary_warning": cert.boundary_warning,
    }


def cmd_analyze(args) -> tuple[dict, int]:
    if args.seed < 0:
        raise ValueError(f"--seed must be at least 0, got {args.seed}")
    space = _load_matrix_space(args.file)
    dp = p_distance_matrix(space, args.p)
    cert = dp.certificate

    report: dict = {
        "command": "analyze",
        "input": _space_echo(space),
        "p": args.p,
        "certificate": _certificate_summary(cert),
        "spectrum": [float(v) for v in cert.eigenvalues],
    }

    exit_code = EXIT_OK
    gamma_for_xi: float | None = None
    if cert.classification is gap_mod.Classification.NOT_NEGATIVE_TYPE:
        report["witness"] = [float(v) for v in cert.witness]
        report["witness_form_value"] = cert.witness_form
        report["gap"] = None
        exit_code = EXIT_NOT_NEGATIVE_TYPE
    elif space.n <= args.cap:
        result = gap_mod.gap_exact(dp, cap=args.cap)
        gap_report = {
            "mode": "exact",
            "gamma": _finite_or_null(result.gamma),
            "beta": _finite_or_null(result.beta),
            "method": result.method.value,
        }
        if result.z_star is not None:
            gap_report["z_star"] = [int(v) for v in result.z_star]
        if args.oracle and cert.strict:
            oracle = gap_mod.gap_numeric_oracle(dp, seed=args.seed)
            _check_containment(result.gamma, 0.0, oracle.gamma, "oracle bound")
            gap_report["oracle_gamma"] = _finite_or_null(oracle.gamma)
            gap_report["oracle_restarts"] = oracle.restarts
        report["gap"] = gap_report
        gamma_for_xi = result.gamma
    else:
        gap_report = {
            "mode": "bounds",
            "note": f"{space.n} points exceed the enumeration cap {args.cap}",
        }
        if cert.strict:
            sandwich = bounds_mod.spectral_bounds(dp)
            mean_bound = bounds_mod.upper_bound_mean(dp)
            gap_report.update(
                lower=sandwich.lower,
                upper=min(sandwich.upper, mean_bound),
                spectral_lower=sandwich.lower,
                spectral_upper=sandwich.upper,
                mean_bound=mean_bound,
                row_sum_factor=sandwich.row_sum_factor,
            )
        else:
            gap_report.update(lower=0.0, upper=0.0, note="non-strict: gap is exactly 0")
        report["gap"] = gap_report

    if gamma_for_xi is not None and space.n >= 3 and not isinf(gamma_for_xi):
        xi = bounds_mod.xi_enlargement(dp, gamma_for_xi)
        report["xi"] = {"xi": _finite_or_null(xi.xi), "gamma_xi_n": xi.gamma_xi_n}
    else:
        report["xi"] = None
    return report, exit_code


def _render_analyze(report: dict, out) -> None:
    echo = report["input"]
    print(f"points: {echo['n']}  labels: {' '.join(echo['labels'])}", file=out)
    if "diameter" in echo:
        print(
            f"diameter {_fmt(echo['diameter'])}  min distance {_fmt(echo['min_positive'])}"
            f"  ratio {_fmt(echo['ratio'])}",
            file=out,
        )
    print(f"exponent p = {_fmt(report['p'])}", file=out)
    cert = report["certificate"]
    line = f"classification: {cert['classification']}"
    if cert["boundary_warning"]:
        line += "  [boundary]"
    print(line, file=out)
    if cert["lambda_penultimate"] is not None:
        print(
            f"lambda[n-1] = {_fmt(cert['lambda_penultimate'])}"
            f"  lambda[n] = {_fmt(cert['lambda_max'])}",
            file=out,
        )
    print(f"M_p = {_fmt(cert['m_p'])}", file=out)
    gap_report = report.get("gap")
    if gap_report is None:
        print("gap: undefined (not of p-negative type)", file=out)
        witness = report.get("witness")
        if witness is not None:
            print(
                "witness (zero-sum, positive form value "
                f"{_fmt(report['witness_form_value'])}): "
                + " ".join(_fmt(w) for w in witness),
                file=out,
            )
    elif gap_report["mode"] == "exact":
        print(
            f"gap (exact, {gap_report['method']}): gamma = {_fmt_or_inf(gap_report['gamma'])}"
            f"  beta = {_fmt_or_inf(gap_report['beta'])}",
            file=out,
        )
        if "z_star" in gap_report:
            signs = " ".join("+" if v > 0 else "-" for v in gap_report["z_star"])
            print(f"maximizing signs: {signs}", file=out)
        if "oracle_gamma" in gap_report:
            print(
                f"oracle cross-check: {_fmt_or_inf(gap_report['oracle_gamma'])}"
                f" ({gap_report['oracle_restarts']} restarts)",
                file=out,
            )
    else:
        print(
            f"gap bounds: [{_fmt(gap_report['lower'])}, {_fmt(gap_report['upper'])}]"
            f"  ({gap_report['note']})",
            file=out,
        )
    xi = report.get("xi")
    if xi is not None:
        print(f"exponent enlargement xi = {_fmt_or_inf(xi['xi'])}", file=out)


def cmd_glue(args) -> tuple[dict, int]:
    left = _load_matrix_space(args.file1)
    right = _load_matrix_space(args.file2)
    spec = glue_mod.GlueSpec(left=left, right=right, c=args.c)
    condition = glue_mod.glue_type_condition(spec, args.p)

    report: dict = {
        "command": "glue",
        "left": _space_echo(left),
        "right": _space_echo(right),
        "c": args.c,
        "p": args.p,
        "classification": condition.classification.value,
        "margin": condition.margin,
        "m_p_left": condition.m_p_left,
        "m_p_right": condition.m_p_right,
    }

    exit_code = EXIT_OK
    strict = condition.classification is glue_mod.GlueClassification.STRICT
    largest = max(left.n, right.n)
    if strict and largest > args.cap:
        report["note"] = f"a component of {largest} points exceeds the enumeration cap {args.cap}"
    elif strict:
        gamma_left = gap_mod.gap_exact(p_distance_matrix(left, args.p), cap=args.cap).gamma
        gamma_right = gap_mod.gap_exact(p_distance_matrix(right, args.p), cap=args.cap).gamma
        gap_bounds = glue_mod.glue_gap_bounds(spec, args.p, gamma_left, gamma_right)
        report["bounds"] = {
            "lower": gap_bounds.lower,
            "upper": _finite_or_null(gap_bounds.upper),
            "alpha": gap_bounds.alpha,
            "out_of_hypothesis": gap_bounds.out_of_hypothesis,
        }
        report["gamma_left"] = _finite_or_null(gamma_left)
        report["gamma_right"] = _finite_or_null(gamma_right)
    elif condition.classification is glue_mod.GlueClassification.NOT_NEGATIVE_TYPE:
        exit_code = EXIT_NOT_NEGATIVE_TYPE

    if left.n + right.n <= args.cap and exit_code == EXIT_OK:
        glued_dp = p_distance_matrix(glue_mod.glue_spaces(spec), args.p)
        gamma = gap_mod.gap_exact(glued_dp, cap=args.cap).gamma
        if "bounds" in report:
            _check_containment(gamma, gap_bounds.lower, gap_bounds.upper, "glue bounds")
        report["glued_gamma_exact"] = gamma
    return report, exit_code


def _render_glue(report: dict, out) -> None:
    print(
        f"glued {report['left']['n']} + {report['right']['n']} points at"
        f" c = {_fmt(report['c'])}, p = {_fmt(report['p'])}",
        file=out,
    )
    print(
        f"classification: {report['classification']}"
        f"  margin = {_fmt(report['margin'])}",
        file=out,
    )
    print(
        f"M_p: left {_fmt(report['m_p_left'])}  right {_fmt(report['m_p_right'])}",
        file=out,
    )
    if "note" in report:
        print(f"gap bounds: not computed ({report['note']})", file=out)
    if "bounds" in report:
        b = report["bounds"]
        note = "  [outside the two-point hypothesis]" if b["out_of_hypothesis"] else ""
        print(
            f"gap bounds: [{_fmt(b['lower'])}, {_fmt_or_inf(b['upper'])}]"
            f"  alpha = {_fmt(b['alpha'])}{note}",
            file=out,
        )
    if "glued_gamma_exact" in report:
        print(f"exact glued gap: {_fmt(report['glued_gamma_exact'])}", file=out)


def cmd_ultra(args) -> tuple[dict, int]:
    _check_exponent(args.p)  # before the file is read; every report echoes p
    space = _load_ultra_space(args.file)
    if not is_ultrametric(space):
        raise NegTypeError("input space is not ultrametric")

    report: dict = {
        "command": f"ultra {args.subcommand}",
        "input": _space_echo(space),
        "p": args.p,
    }
    if args.subcommand == "decompose":
        tree = ultra_mod.decompose(space, full_split=args.full_split)
        report["tree"] = tree.serialize()
        report["splits"] = [
            {
                "labels": list(node.labels),
                "split_distance": node.split_distance,
                "children": [list(c.labels) for c in node.children],
            }
            for node in tree.walk()
            if not node.is_leaf
        ]
    elif args.subcommand == "bounds":
        rec = ultra_mod.recursive_gap_bounds(space, args.p, full_split=args.full_split)
        report["bounds"] = _bounds_report(rec)
        if space.n <= args.cap:
            dp = p_distance_matrix(space, args.p)
            gamma = gap_mod.gap_exact(dp, cap=args.cap).gamma
            _check_containment(gamma, rec.gamma_lower, rec.gamma_upper, "recursive bounds")
            report["gamma_exact"] = gamma
    else:  # coteries or asymptotic
        cots = ultra_mod.coteries(space)
        report["alpha"] = cots.alpha
        report["coteries"] = [list(ball) for ball in cots.coteries]
        if args.subcommand == "coteries":
            report["e"] = cots.e
        else:
            report["limit"] = ultra_mod.asymptotic_gap_limit(space)
    return report, EXIT_OK


def _bounds_report(rec: ultra_mod.RecursiveGapBounds) -> dict:
    return {
        "lower_reciprocal": rec.lower_reciprocal,
        "upper_reciprocal": rec.upper_reciprocal,
        "gamma_lower": rec.gamma_lower,
        "gamma_upper": _finite_or_null(rec.gamma_upper),
        "leaves": [
            {
                "labels": list(leaf.labels),
                "distance": leaf.distance,
                "gamma": _finite_or_null(leaf.gamma),
                "reciprocal": leaf.reciprocal,
            }
            for leaf in rec.leaves
        ],
        "splits": [
            {
                "labels": list(s.labels),
                "split_distance": s.split_distance,
                "alpha_cap": s.alpha_cap,
                "alpha_exact": s.alpha_exact,
                "denominator": s.denominator,
            }
            for s in rec.splits
        ],
    }


def _render_ultra(report: dict, out) -> None:
    echo = report["input"]
    print(f"points: {echo['n']}  labels: {' '.join(echo['labels'])}", file=out)
    if "tree" in report:
        print(f"decomposition: {report['tree']}", file=out)
        for split in report["splits"]:
            kids = " | ".join("{" + " ".join(c) + "}" for c in split["children"])
            print(f"  split at {_fmt(split['split_distance'])}: {kids}", file=out)
    if "bounds" in report:
        b = report["bounds"]
        for leaf in b["leaves"]:
            if leaf["reciprocal"] > 0:
                print(
                    f"  block {{{' '.join(leaf['labels'])}}} at {_fmt(leaf['distance'])}:"
                    f" gamma = {_fmt(leaf['gamma'])}, reciprocal {_fmt(leaf['reciprocal'])}",
                    file=out,
                )
        for split in b["splits"]:
            print(
                f"  split at {_fmt(split['split_distance'])} ({len(split['labels'])} points):"
                f" correction {_fmt(split['alpha_cap'])}"
                f" (exact {_fmt(split['alpha_exact'])})",
                file=out,
            )
        print(
            f"reciprocal gap in [{_fmt(b['lower_reciprocal'])}, {_fmt(b['upper_reciprocal'])}]",
            file=out,
        )
        print(f"gamma in [{_fmt(b['gamma_lower'])}, {_fmt_or_inf(b['gamma_upper'])}]", file=out)
        if "gamma_exact" in report:
            print(f"exact gamma: {_fmt(report['gamma_exact'])}", file=out)
    if "coteries" in report and "tree" not in report:
        print(f"minimum distance alpha = {_fmt(report['alpha'])}", file=out)
        for ball in report["coteries"]:
            print(f"  coterie: {{{' '.join(ball)}}}", file=out)
        if "limit" in report:
            print(f"normalized gap limit: {_fmt(report['limit'])}", file=out)


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every
    ``main`` call after it; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="negtype",
        description="Analyze finite metric spaces for (strict) p-negative type.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--p", type=float, default=1.0, help="distance exponent (default 1)")
        sp.add_argument("--cap", type=int, default=gap_mod.DEFAULT_ENUMERATION_CAP,
                        help="sign-enumeration cap (default 24)")
        sp.add_argument("--json", action="store_true", help="emit a JSON report")

    analyze = sub.add_parser("analyze", help="full report for a matrix file")
    analyze.add_argument("file")
    common(analyze)
    analyze.add_argument("--seed", type=int, default=0, help="seed for the numeric oracle")
    analyze.add_argument("--oracle", action="store_true",
                         help="cross-check the exact gap with the numeric oracle")

    glue = sub.add_parser("glue", help="analyze the bridged union of two matrix files")
    glue.add_argument("file1")
    glue.add_argument("file2")
    glue.add_argument("--c", type=float, required=True, help="bridging distance")
    common(glue)

    ultra = sub.add_parser("ultra", help="ultrametric pipeline")
    ultra.add_argument("subcommand", choices=("decompose", "bounds", "coteries", "asymptotic"))
    ultra.add_argument("file", help="matrix or edge-list file (auto-detected)")
    common(ultra)
    ultra.add_argument("--full-split", action="store_true",
                       help="split discrete blocks down to singletons")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage error or the help
        return EXIT_INVALID_INPUT if exc.code else EXIT_OK
    handler, render = {
        "analyze": (cmd_analyze, _render_analyze),
        "glue": (cmd_glue, _render_glue),
        "ultra": (cmd_ultra, _render_ultra),
    }[args.command]
    try:
        if args.cap < 1:
            raise ValueError(f"--cap must be at least 1, got {args.cap}")
        started = time.perf_counter()
        with _one_blas_thread():
            report, exit_code = handler(args)
        report["timing_seconds"] = time.perf_counter() - started
        if args.json:
            print(json.dumps(report))
        else:
            render(report, sys.stdout)
            print(f"timing: {report['timing_seconds']:.3f} s")
        return exit_code
    except ToleranceFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE_FAILURE
    except (NegTypeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
