"""One workload run in a process of its own, reported as one JSON line.

    python3 perfbench/child.py WORKLOAD SEED MODE SPAWNED_AT [SPANS_PATH]

MODE is ``setup`` (build the inputs, then stop), ``run`` (untraced) or
``trace`` (tracer installed, spans written to SPANS_PATH). SPANS_PATH
names the file for the spans. SPAWNED_AT is the parent's
CLOCK_MONOTONIC reading just before it started this process; set-up
time runs from there to the moment the inputs are built, so it covers
interpreter start, ``import volterra_spde`` and input generation.

The last stdout line is ``RESULT <json>``. A workload that raises is
reported with every check failed; a failure before the workload starts
(an import error, say) exits non-zero with no RESULT line.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(HERE, "results")
MARK = "RESULT "


def machine() -> dict:
    """Library versions and the BLAS in use, read in the measuring process."""
    import ctypes
    import platform

    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:  # the loaded BLAS, to ask it for its thread count
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads}


def timed_run(workload: str, execute, inputs: dict, tracer) -> dict:
    """Run the workload once, tracing it when ``tracer`` is given."""
    import workloads
    if tracer is not None:
        tracer.install()
        execute = tracer.wrap("workload", execute)
    started = time.perf_counter()
    try:
        checks = execute(inputs)
    except Exception as exc:  # every check of a workload that raised fails
        checks = workloads.failed_checks(workload, exc)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {
        "time_to_verdict_s": time.perf_counter() - started,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "checks": checks,
    }


def main(argv: list[str]) -> int:
    workload, seed, mode, spawned_at = argv[0], int(argv[1]), argv[2], float(argv[3])
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import volterra_spde  # noqa: F401  (set-up includes the package import)
    import workloads
    build, execute = workloads.WORKLOADS[workload]
    inputs = build(seed, workloads.FULL[workload], WORKDIR)
    report = {"setup_s": time.clock_gettime(time.CLOCK_MONOTONIC) - spawned_at}
    if mode == "setup":
        workloads.discard(inputs)
    elif mode == "run":
        report.update(timed_run(workload, execute, inputs, None))
    else:
        from spans import Tracer
        tracer = Tracer(f"{workload}-{seed}-{os.getpid()}")
        report.update(timed_run(workload, execute, inputs, tracer))
        report["layers"] = tracer.layer_metrics()
        tracer.write(argv[4])
    report["machine"] = machine()
    print(MARK + json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
