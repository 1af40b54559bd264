"""One pass of a workload in a fresh interpreter.

    python3 perfbench/job.py --workload W --seed S --launch T
                             [--setup-only] [--spans FILE]

``--launch`` is the parent's ``time.monotonic()`` taken just before it
started this process; on Linux that clock is shared by all processes, so
``setup_s`` covers interpreter start, ``import bwcoh``, input generation and
the workspace files written.  A fresh interpreter per pass matters because
``build_factorization`` is a process-wide ``lru_cache``: a second pass in the
same process would skip work that every real ``bwcoh`` invocation pays.

The jobs run one after another on one thread (a closed loop with one
client), each through ``bwcoh.cli.main`` with its stdout captured and
checked.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402

import bwcoh  # noqa: E402
import bwcoh.cli  # noqa: E402
import bwcoh.factorization  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def run_job(job: workloads.Job) -> str | None:
    """Run one command in-process; None if its answer is the expected one."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = bwcoh.cli.main(job.argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # noqa: BLE001 - a crash is a failed job
        return f"{type(exc).__name__}: {exc}"
    return job.check(code, out.getvalue())


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--launch", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", help="trace the jobs and write spans here")
    args = p.parse_args()
    if Path(bwcoh.__file__).resolve().parent != ROOT / "src" / "bwcoh":
        print(f"error: imported bwcoh from {bwcoh.__file__}, not from this "
              f"checkout", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        jobs = workloads.make_jobs(args.workload, args.seed, work)
        # generation may have built factorizations; jobs start from cold
        factorization = bwcoh.factorization.build_factorization
        factorization.cache_clear()
        tracer, run = None, run_job
        if args.spans:
            tracer = spans.Tracer()
            spans.install(tracer)
            run = tracer.wrap(spans.ROOT, run_job)
        first = time.monotonic()
        result = {"setup_s": first - args.launch}
        if args.setup_only:
            print(json.dumps(result))
            return 0
        failed, job_s = {}, {}
        for job in jobs:
            start = time.monotonic()
            problem = run(job)
            job_s[job.name] = time.monotonic() - start
            if problem is not None:
                failed[job.name] = problem
        last = time.monotonic()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result.update(
        wall_s=last - first,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        jobs=len(jobs), failed=failed, job_s=job_s)
    if tracer:
        result["layers"] = spans.layer_metrics(
            tracer, factorization.cache_info().misses)
        tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
