"""Closed-loop benchmark of the negtype command-line front end.

Usage (from the repository root):

    python3 bench/run.py --workload enum-exact --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 36 --trace 1

One client drives ``negtype.cli.main(argv)`` in-process: one request at a
time, the next sent when the previous returns, no threads. Inputs come from
``--seed`` (see ``workloads.py``) and every answer is checked against the
reference frozen from the seed commit (``reference.json``, ``check.py``).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` installs the
outside-in tracer (``tracer.py``) on every other period of the request mix and
reports per-layer numbers, with the tracing overhead taken from the traced
against the untraced rounds. Human-readable tables and an environment block
come first on stdout; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. BLAS threading is left at the
default users get.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up starts before the heavy imports

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_REQUESTS = 100  # so that at least ten samples lie above the 90th percentile
SETUP_CHILDREN = 6  # extra fresh-process set-ups; setup_s is the median of all

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_p90_s", "s"),
    ("cpu_s_per_op", "s"),
    ("peak_rss_mb", "MB"),
)


def _die(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    """Import negtype from this checkout's source tree, nowhere else."""
    if not (SRC / "negtype" / "cli.py").is_file():
        _die(f"no negtype sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(BENCH_DIR))
    import negtype.cli

    if Path(negtype.cli.__file__).resolve().parent != (SRC / "negtype").resolve():
        _die(f"imported negtype from {negtype.cli.__file__}, not from {SRC}")
    return negtype.cli


def call(cli, request, workdir: str):
    """Run one request; return (exit code or None, stdout, seconds)."""
    argv = [a.replace("{dir}", workdir) for a in request.argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        started = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # a crash is a failed request, not a failed benchmark
            code = None
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - started
    if code is None:
        print(f"bench: {request.key} raised:\n{err.getvalue()}", file=sys.stderr)
    return code, out.getvalue(), elapsed


def set_up(workload: str, seed: int, workdir: Path):
    """Import, generate and write the inputs, and run one warm-up request.

    Returns (cli module, schedule, instances by id, warm-up outcome, seconds).
    """
    cli = _import_program()
    import workloads  # noqa: E402  (needs the path set by _import_program)

    schedule = workloads.Schedule(workload, seed)
    instances = {inst.ident: inst for inst in schedule.instances()}
    workdir.mkdir(parents=True, exist_ok=True)
    for inst in instances.values():
        (workdir / f"{inst.ident}.txt").write_text(inst.text, encoding="utf-8")
    warm = schedule.warmup()
    outcome = call(cli, warm, str(workdir))
    return cli, schedule, instances, (warm, outcome), time.perf_counter() - T0


def child_setups(workload: str, seed: int) -> list[float]:
    """Set-up times of fresh processes doing the same set-up as this one."""
    times = []
    for i in range(SETUP_CHILDREN):
        workdir = WORK / f"setup-{workload}-{seed}-{os.getpid()}-{i}"
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed), "--workdir", str(workdir)],
            cwd=ROOT, capture_output=True, text=True, timeout=150,
        )
        shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0:
            _die(f"set-up child failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def environment() -> dict:
    import numpy
    import scipy

    def blas(mod):
        try:
            info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info.get('name')} {info.get('version')}"
        except Exception:  # the config layout is not a stable API
            return "unknown"

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        **{var: os.environ.get(var) for var in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NEGTYPE_THREADS")},
    }


def measure(cli, schedule, checker, workdir: str, seconds: float, tracer=None):
    """The timed closed loop. Checking is done between requests, off the clock."""
    import numpy as np

    lat = {True: [], False: []}
    attempted = failed = 0
    check_wall = check_cpu = 0.0
    start_wall, start_cpu = time.perf_counter(), time.process_time()
    i = 0
    while True:
        elapsed = time.perf_counter() - start_wall
        if elapsed >= 2 * seconds or (elapsed >= seconds and i >= MIN_REQUESTS):
            break
        request = schedule.request(i)
        traced = tracer is not None and (i // schedule.period) % 2 == 0
        if traced:
            tracer.install()
            tracer.begin_request(i, request.kind)
        code, stdout, took = call(cli, request, workdir)
        if traced:
            tracer.end_request()
            tracer.uninstall()
        lat[traced].append(took)
        attempted += 1
        c_wall, c_cpu = time.perf_counter(), time.process_time()
        failed += not checker.check(request, code, stdout)
        check_wall += time.perf_counter() - c_wall
        check_cpu += time.process_time() - c_cpu
        i += 1
    wall = time.perf_counter() - start_wall - check_wall
    cpu = time.process_time() - start_cpu - check_cpu
    every = lat[True] + lat[False]
    return {
        "attempted": attempted,
        "failed": failed,
        "wall": wall,
        "cpu": cpu,
        "latencies": every,
        "traced_latencies": lat[True],
        "untraced_latencies": lat[False],
        "p50": float(np.percentile(every, 50)),
        "p90": float(np.percentile(every, 90)),
    }


def end_to_end(loop: dict, setup_times: list[float]) -> dict:
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": loop["attempted"] / loop["wall"],
        "op_p50_s": loop["p50"],
        "op_p90_s": loop["p90"],
        "cpu_s_per_op": loop["cpu"] / loop["attempted"],
        "peak_rss_mb": rss_mb,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def print_table(title: str, metrics: dict, notes: dict | None = None) -> None:
    print(title)
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if notes and name in notes else ""
        print(f"  {name:<28} {m['value']:>14.6g} {m['unit']}{note}")


def run(args) -> int:
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        cli, schedule, instances, (warm, warm_out), own_setup = set_up(
            args.workload, args.seed, workdir)
        from check import Checker
        import layers

        reference = json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))
        frozen = reference["files"]
        for inst in instances.values():
            if frozen.get(inst.ident) != inst.sha:
                _die(f"generated input {inst.ident} differs from the frozen reference")
        checker = Checker(reference, instances)
        warm_ok = checker.check(warm, *warm_out[:2])
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            setup_times = [own_setup]
        else:
            setup_times = [own_setup] + child_setups(args.workload, args.seed)
        loop = measure(cli, schedule, checker, str(workdir), args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in checker.errors:
        print(f"bench: check failed: {line}", file=sys.stderr)
    header = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "client": "closed loop, 1 client, in-process",
        "requests": loop["attempted"],
        "fail_ratio": loop["failed"] / loop["attempted"],
        "env": environment(),
    }
    if loop["attempted"] < MIN_REQUESTS:
        print(f"bench: only {loop['attempted']} requests; op_p90_s has fewer than 10 "
              "samples above it", file=sys.stderr)
    if args.trace:
        metrics = layers.per_layer(tracer, loop)
        header["top_self_s"] = layers.top_self(tracer, loop)
        spans = WORK / f"spans-{args.workload}.jsonl"
        tracer.write_spans(str(spans))
        header["spans_file"] = str(spans.relative_to(ROOT))
        header["spans_dropped"] = tracer.dropped_spans
        print(json.dumps(header))
        print_table(f"per-layer metrics, {args.workload}, per traced request "
                    f"({len(loop['traced_latencies'])} traced):", metrics, layers.NOTES)
    else:
        header["setup_samples_s"] = setup_times
        metrics = end_to_end(loop, setup_times)
        print(json.dumps(header))
        shown = dict(metrics, fail_ratio={"value": header["fail_ratio"], "unit": "1"})
        print_table(f"end-to-end metrics, {args.workload} ({loop['attempted']} requests):", shown)
    result = {
        "correct": bool(warm_ok and loop["failed"] == 0),
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, so peak RSS is per workload."""
    import workloads

    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            _die(f"workload {name} failed with exit code {proc.returncode}")
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="enum-exact, ultra-large, cli-small, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_only:
        workdir = Path(args.workdir)
        try:
            *_, seconds = set_up(args.workload, args.seed, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"setup_s": seconds}))
        return 0
    sys.path.insert(0, str(BENCH_DIR))
    if args.workload == "all":
        return run_all(args)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        _die(f"unknown workload {args.workload!r}")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
