"""Self-tests of the benchmark: checks, tracer and the metric contract.

Run from the repository root: ``python3 -m pytest bench -q`` (about 10 s).
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

import pytest

import layers
import run
import workloads
from check import Checker
from tracer import Tracer

SEED = 7


@pytest.fixture(scope="module")
def small():
    workdir = run.WORK / "selftest"
    cli, schedule, instances, (warm, outcome), _ = run.set_up("cli-small", SEED, workdir)
    reference = json.loads((run.BENCH_DIR / "reference.json").read_text(encoding="utf-8"))
    yield cli, schedule, instances, reference, str(workdir)
    shutil.rmtree(workdir, ignore_errors=True)


def test_inputs_follow_the_seed_and_match_the_frozen_pool(small):
    *_, reference, _ = small
    for name in workloads.WORKLOADS:
        a, b = workloads.Schedule(name, SEED), workloads.Schedule(name, SEED)
        assert a.files == b.files
        assert [a.request(i) for i in range(60)] == [b.request(i) for i in range(60)]
        other = workloads.Schedule(name, SEED + 1)
        assert [a.request(i) for i in range(60)] != [other.request(i) for i in range(60)]
        for inst in a.instances():
            assert reference["files"][inst.ident] == inst.sha
        for i in range(60):
            assert a.request(i).key in reference["requests"]


def test_answers_match_the_reference(small):
    cli, schedule, instances, reference, workdir = small
    loop = run.measure(cli, schedule, Checker(reference, instances), workdir, 0.3)
    assert loop["attempted"] > 0
    assert loop["failed"] == 0


def test_perturbed_reference_value_counts_as_failure(small):
    cli, schedule, instances, reference, workdir = small
    bad = copy.deepcopy(reference)
    bad["requests"]["glue|x5_a+x5_b|c5"]["margin"] *= 1.0 + 1e-6
    checker = Checker(bad, instances)
    loop = run.measure(cli, schedule, checker, workdir, 0.3)
    glue = sum(schedule.request(i).kind == "glue" for i in range(loop["attempted"]))
    assert glue > 0
    assert loop["failed"] == glue
    assert "margin" in checker.errors[0]


def test_wrong_maximizer_fails_the_value_check(small):
    cli, schedule, instances, reference, workdir = small
    request = next(schedule.request(i) for i in range(8)
                   if schedule.request(i).file.startswith("se-"))
    code, stdout, _ = run.call(cli, request, workdir)
    report = json.loads(stdout)
    checker = Checker(reference, instances)
    assert checker.check(request, code, stdout)
    report["gap"]["z_star"] = [1] * (len(report["gap"]["z_star"]) - 1) + [-1]
    assert not checker.check(request, code, json.dumps(report))


def test_tracer_wraps_every_binding_and_restores_them():
    import negtype.glue
    import negtype.spectral

    original = negtype.glue.refined_solve
    tracer = Tracer()
    names = tracer.binding_names
    for binding in ("negtype.glue.refined_solve", "negtype.ultrametric.refined_solve",
                    "negtype.cli.is_ultrametric", "negtype.gap.is_ultrametric",
                    "negtype.spectral.lu_factor", "negtype.cli.main"):
        assert binding in names
    tracer.install()
    assert negtype.glue.refined_solve is not original
    tracer.uninstall()
    assert negtype.glue.refined_solve is original


def test_layer_self_times_sum_to_traced_wall_time(small):
    cli, schedule, instances, reference, workdir = small
    tracer = Tracer()
    loop = run.measure(cli, schedule, Checker(reference, instances), workdir, 0.3, tracer)
    assert loop["failed"] == 0
    metrics = layers.per_layer(tracer, loop)
    assert metrics["trace.self_sum_ratio"]["value"] == pytest.approx(1.0, abs=0.05)
    assert metrics["spectral.lu_per_matrix"]["value"] > 1.0
    assert metrics["glue.certify_per_op"]["value"] == 9.0
    assert len(tracer.spans["id"]) > 0


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.METRICS


def test_refuses_to_run_without_the_program():
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "cli-small", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
