"""Per-layer metrics from a traced run, each averaged per traced request.

``*_s`` names ending in ``self_s`` (and ``gap.enum_s``, ``metric.graph_s``,
``metric.parse_s``, ``ultrametric.decompose_s``) are self times: the span's
duration minus its traced children. Other ``*_s`` names are inclusive times
of one function. Counts marked "computed" are derived from arguments, not
measured. PREDICTIONS.md says which end-to-end metric each should move.
"""

from __future__ import annotations

from tracer import LAYERS

NOTES = {
    "gap.sign_vectors": "computed: sum of 2^(n-1) per enumerating gap_exact",
    "gap.enum_gflops": "computed: 2^(n-1)*2n(n+1) flops / gap.enum_s",
    "metric.cubic_bytes": "computed: 8*n^3 per (n,n,n) float64 temporary",
    "trace.overhead_pct": "untraced vs traced requests per busy second",
}

# name -> (unit, better)
METRICS = {
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "gap.enum_s": ("s", "lower"),
    "gap.sign_vectors": ("count", "lower"),
    "gap.enum_gflops": ("GFLOP/s", "higher"),
    "gap.oracle_s": ("s", "lower"),
    "gap.oracle_iterations": ("count", "lower"),
    "gap.hat_s": ("s", "lower"),
    "gap.certify_calls": ("count", "lower"),
    "gap.certify_self_s": ("s", "lower"),
    "spectral.inverse_s": ("s", "lower"),
    "spectral.lu_calls": ("count", "lower"),
    "spectral.lu_per_matrix": ("1", "lower"),
    "spectral.eigh_calls": ("count", "lower"),
    "spectral.eigh_s": ("s", "lower"),
    "spectral.solve_s": ("s", "lower"),
    "glue.certify_per_op": ("count", "lower"),
    "metric.validate_s": ("s", "lower"),
    "metric.validate_calls": ("count", "lower"),
    "metric.is_ultrametric_s": ("s", "lower"),
    "metric.is_ultrametric_calls": ("count", "lower"),
    "metric.cubic_bytes": ("B", "lower"),
    "metric.graph_s": ("s", "lower"),
    "metric.parse_s": ("s", "lower"),
    "ultrametric.decompose_s": ("s", "lower"),
    "trace.requests": ("count", "higher"),
    "trace.ops_per_s_traced": ("1/s", "higher"),
    "trace.ops_per_s_untraced": ("1/s", "higher"),
    "trace.overhead_pct": ("%", "lower"),
    "trace.self_sum_ratio": ("1", "higher"),
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(tracer, loop: dict) -> dict:
    traced, untraced = loop["traced_latencies"], loop["untraced_latencies"]
    n = max(len(traced), 1)
    c = tracer.counts
    layer_self = tracer.layer_self()
    enum_s = tracer.self_time("gap.gap_exact")
    values = {f"{layer}.self_s": layer_self[layer] / n for layer in LAYERS}
    values.update({
        "gap.enum_s": enum_s / n,
        "gap.sign_vectors": c["sign_vectors"] / n,
        "gap.enum_gflops": _ratio(c["enum_flops"], enum_s) / 1e9,
        "gap.oracle_s": tracer.total("gap.gap_numeric_oracle") / n,
        "gap.oracle_iterations": c["oracle_iterations"] / n,
        "gap.hat_s": tracer.total("gap.hat_matrix") / n,
        "gap.certify_calls": tracer.calls("gap.certify") / n,
        "gap.certify_self_s": tracer.self_time("gap.certify") / n,
        "spectral.inverse_s": tracer.total("spectral.refined_inverse") / n,
        "spectral.lu_calls": tracer.calls("spectral.lu_factor") / n,
        "spectral.lu_per_matrix": _ratio(tracer.calls("spectral.lu_factor"),
                                         c["distinct_lu_matrices"]),
        "spectral.eigh_calls": tracer.calls("spectral.sym_eigen") / n,
        "spectral.eigh_s": tracer.total("spectral.sym_eigen") / n,
        "spectral.solve_s": tracer.total("spectral.refined_solve") / n,
        "glue.certify_per_op": _ratio(c["certify[glue]"], c["requests[glue]"]),
        "metric.validate_s": tracer.total("metric.validate_metric") / n,
        "metric.validate_calls": tracer.calls("metric.validate_metric") / n,
        "metric.is_ultrametric_s": tracer.total("metric.is_ultrametric") / n,
        "metric.is_ultrametric_calls": tracer.calls("metric.is_ultrametric") / n,
        "metric.cubic_bytes": c["cubic_bytes"] / n,
        "metric.graph_s": tracer.self_time("metric.build_graph",
                                           "metric.ultrametric_from_graph") / n,
        "metric.parse_s": tracer.self_time("metric.parse_matrix_text",
                                           "metric.parse_edge_list_text") / n,
        "ultrametric.decompose_s": tracer.self_time("ultrametric.decompose") / n,
        "trace.requests": float(len(traced)),
        "trace.ops_per_s_traced": _ratio(len(traced), sum(traced)),
        "trace.ops_per_s_untraced": _ratio(len(untraced), sum(untraced)),
        "trace.self_sum_ratio": _ratio(sum(layer_self.values()), sum(traced)),
    })
    values["trace.overhead_pct"] = 100.0 * (
        _ratio(values["trace.ops_per_s_untraced"], values["trace.ops_per_s_traced"]) - 1.0)
    return {name: {"value": values[name], "unit": unit} for name, (unit, _) in METRICS.items()}


def top_self(tracer, loop: dict, count: int = 8) -> dict:
    """The functions with the largest self time per traced request."""
    n = max(len(loop["traced_latencies"]), 1)
    ranked = sorted(tracer.stats.items(), key=lambda kv: kv[1].self, reverse=True)
    return {key: stat.self / n for key, stat in ranked[:count]}
