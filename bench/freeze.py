"""Freeze the reference answers of every pool request into reference.json.

Run from the repository root at the commit whose answers are the reference:

    python3 bench/freeze.py

It imports negtype from ``src/``, runs each pool request of each workload
once, and stores the fields ``check.summarize`` keeps, plus a hash of every
generated input so a run can tell when generation has drifted. It refuses to
write a reference that fails its own value checks (z_star, oracle).
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from run import BENCH_DIR, WORK, _import_program, call


def main() -> int:
    cli = _import_program()
    import workloads
    from check import Checker, summarize

    workdir = WORK / "freeze"
    workdir.mkdir(parents=True, exist_ok=True)
    files: dict = {}
    instances: dict = {}
    requests: dict = {}
    try:
        for workload in workloads.WORKLOADS:
            pool = workloads.pool_requests(workload)
            for request in pool:
                for arg in request.argv:
                    if arg.startswith("{dir}/"):
                        ident = arg[len("{dir}/"):-len(".txt")]
                        if ident not in instances:
                            inst = instances[ident] = workloads.pool_instance(ident)
                            files[ident] = inst.sha
                            (workdir / f"{ident}.txt").write_text(inst.text, encoding="utf-8")
                code, stdout, _ = call(cli, request, str(workdir))
                if code is None:
                    raise SystemExit(f"{request.key} crashed")
                requests[request.key] = summarize(request.kind, code, stdout)
                checker = Checker({"requests": requests}, instances)
                if not checker.check(request, code, stdout):
                    raise SystemExit(f"reference fails its own checks: {checker.errors}")
            print(f"{workload}: {len(pool)} requests frozen", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    reference = {"pool_seed": workloads.POOL_SEED, "files": files, "requests": requests}
    (BENCH_DIR / "reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
