"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``, nothing is installed. Every workload run is a process of its
own (``child.py``), so ``peak_rss_mib`` is that run's own high-water
mark. Each process gets as many BLAS threads as this process may use
cores, and only one runs at a time.

``--trace 0`` starts ``SETUP_PROBES`` processes that only set up, then
runs the workload until ``--seconds`` have passed (at least once), and
reports the medians of the end-to-end metrics. ``--trace 1`` runs the
workload once untraced and once traced and reports the per-layer
metrics of the traced run, plus ``trace.overhead_s``: traced minus
untraced time to verdict.

The last stdout line is the result object. A run whose checks fail is
reported with ``correct: false``. A process that cannot run the workload
at all (no ``src/volterra_spde``, a crash, a timeout) makes this script
exit non-zero without a result. Details of every process, the machine
block and, for traced runs, the spans go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
SETUP_PROBES = 3
DEADLINE_S = 170          # every process must end within this of our start


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             env=env, capture_output=True, text=True,
                             timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


class Runner:
    """Starts the workload processes one at a time, within the deadline."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.started = time.monotonic()
        self.nproc = len(os.sched_getaffinity(0))
        self.env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            self.env[var] = str(self.nproc)
        self.reports: list[dict] = []

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def spawn(self, mode: str, *extra: str) -> dict:
        cmd = [sys.executable, os.path.join(HERE, "child.py"), self.workload,
               str(self.seed), mode,
               repr(time.clock_gettime(time.CLOCK_MONOTONIC)), *extra]
        try:
            proc = subprocess.run(cmd, env=self.env, stdout=subprocess.PIPE,
                                  text=True,
                                  timeout=max(1.0, DEADLINE_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            sys.exit(f"{self.workload} {mode} run passed the {DEADLINE_S} s deadline")
        lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("RESULT ")]
        if proc.returncode != 0 or not lines:
            sys.exit(f"{self.workload} {mode} process exited {proc.returncode} "
                     f"without a result")
        report = json.loads(lines[-1][len("RESULT "):])
        report["mode"] = mode
        self.reports.append(report)
        return report


def end_to_end(runner: Runner, seconds: float) -> dict:
    setups = [runner.spawn("setup")["setup_s"] for _ in range(SETUP_PROBES)]
    runs = []
    while not runs or runner.elapsed() < seconds:
        runs.append(runner.spawn("run"))
    setups += [r["setup_s"] for r in runs]
    return {
        "time_to_verdict_s": statistics.median(r["time_to_verdict_s"] for r in runs),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in runs),
    }


def per_layer(runner: Runner, names: list[str], spans_path: str) -> dict:
    plain = runner.spawn("run")
    traced = runner.spawn("trace", spans_path)
    layers = traced["layers"]
    layers["trace.overhead_s"] = (traced["time_to_verdict_s"]
                                  - plain["time_to_verdict_s"])
    return {name: layers.get(name, 0.0) for name in names}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.exit(f"unknown workload {args.workload!r}")
    if not os.path.isfile(os.path.join(ROOT, "src", "volterra_spde", "__init__.py")):
        sys.exit("src/volterra_spde not found: run from a source checkout")
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")

    runner = Runner(args.workload, args.seed)
    if args.trace:
        declared = spec["per_layer"]
        values = per_layer(runner, [m["name"] for m in declared],
                           stem + ".spans.jsonl")
    else:
        declared = spec["end_to_end"]
        values = end_to_end(runner, args.seconds)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}

    checks = [c for r in runner.reports for c in r.get("checks", [])]
    failed = sum(not c["ok"] for c in checks)
    result = {"correct": failed == 0, "attempted": len(checks),
              "failed": failed, "metrics": metrics}
    machine = dict(runner.reports[0]["machine"], nproc=runner.nproc,
                   git_commit=git_commit())
    with open(stem + ".json", "w") as fh:
        json.dump({"args": vars(args), "machine": machine, "result": result,
                   "processes": runner.reports}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
