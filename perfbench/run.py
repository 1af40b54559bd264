"""bwcoh benchmark: three seeded workloads, each job a real ``bwcoh`` command.

    python3 perfbench/run.py --workload invariants|laws|transport --seed N
                             --seconds S --trace 0|1

Run it from the root of a checkout; ``bwcoh`` is imported from that
checkout's ``src/``, so nothing is installed or built.  Every pass of a
workload is one fresh interpreter (``perfbench/job.py``) that generates its
inputs from the seed and runs the jobs one after another.

``--trace 0`` measures the end-to-end metrics.  One warm-up launch fills the
bytecode cache (a cost a user pays once, not per command); then several
launches stop right before the first job, to measure set-up, and passes run
until the next one would end after ``--seconds``.  Reported are the medians:
``wall_s`` (first job start to last job end), ``setup_s`` (process launch to
first job start), ``peak_rss_mb`` (the pass process's ``ru_maxrss``) and
``correct_share`` (jobs that answered as expected, over jobs attempted).

``--trace 1`` runs one untraced and one traced pass, and reports the traced
pass's per-layer metrics (see ``spans.py``) with ``trace.overhead``, the
traced ``wall_s`` over the untraced one.  Spans are written to
``.perfbench/spans-<workload>-<seed>.csv``.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("invariants", "laws", "transport")
SETUP_LAUNCHES = 5
BUDGET_S = 170        # a run must end within 180 s

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "correct_share": "ratio"}


class BenchError(RuntimeError):
    pass


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + BUDGET_S

    def launch(self, *extra: str) -> dict:
        launch = time.monotonic()
        timeout = self.deadline - launch
        if timeout <= 0:
            raise BenchError("time budget exhausted")
        cmd = [sys.executable, str(HERE / "job.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--launch", repr(launch), *extra]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError("pass did not finish within the time budget")
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"pass exited with {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}")
        return json.loads(lines[-1])


def end_to_end(r: Runner, seconds: float) -> tuple[list[dict], dict]:
    r.launch("--setup-only")    # warm-up: writes the bytecode cache
    setups = [r.launch("--setup-only")["setup_s"]
              for _ in range(SETUP_LAUNCHES)]
    passes = []
    start = time.monotonic()
    while True:
        passes.append(r.launch())
        elapsed = time.monotonic() - start
        typical = statistics.median(p["wall_s"] + p["setup_s"]
                                    for p in passes)
        if elapsed + typical > seconds:
            break
    setups += [p["setup_s"] for p in passes]
    attempted = sum(p["jobs"] for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "correct_share": (attempted - failed) / attempted,
    }
    return passes, {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                    for k, v in metrics.items()}


def layer_unit(name: str) -> str:
    if name == "trace.overhead":
        return "ratio"
    if name.endswith("_s"):
        return "s"
    return "cells" if name == "intmat.hnf_cells" else "count"


def traced(r: Runner) -> tuple[list[dict], dict]:
    out = ROOT / ".perfbench" / f"spans-{r.workload}-{r.seed}.csv"
    plain = r.launch()
    tr = r.launch("--spans", str(out))
    layers = dict(tr["layers"], **{"trace.overhead":
                                   tr["wall_s"] / plain["wall_s"]})
    return [plain, tr], {k: {"value": v, "unit": layer_unit(k)}
                         for k, v in layers.items()}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "bwcoh" / "cli.py").is_file():
        print(f"error: {ROOT} holds no bwcoh sources (src/bwcoh)",
              file=sys.stderr)
        return 2
    r = Runner(args.workload, args.seed)
    try:
        passes, metrics = (traced(r) if args.trace
                           else end_to_end(r, args.seconds))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["jobs"] for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} "
          f"pass(es), {attempted} job(s)")
    for p_ in passes:
        for job, problem in p_["failed"].items():
            print(f"  FAILED {job}: {problem}")
        print("  job_s " + " ".join(f"{k}={v:.3f}"
                                    for k, v in p_["job_s"].items()))
    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    print(f"  failed_share {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} jobs)")
    if args.trace:
        v = {k: m["value"] for k, m in metrics.items()}
        covered = sum(x for k, x in v.items()
                      if k.endswith("_s") and k != "trace.job_s")
        print(f"  coverage: layer self times + cli.self_s = {covered:.6g} s "
              f"of trace.job_s {v['trace.job_s']:.6g} s; cli.self_s is "
              f"{v['cli.self_s'] / v['trace.job_s']:.2%} of it")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
