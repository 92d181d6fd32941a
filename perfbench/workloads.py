"""The three benchmark workloads and the verdict checks that end each one.

Every workload is a pair of functions. ``build(seed, sizes, workdir)``
makes the inputs from the seed and returns them; it counts as set-up.
``execute(inputs)`` calls into volterra_spde and returns the list of
checks, each ``{"name", "ok", ...}``; it is what ``time_to_verdict_s``
times. Library functions are always looked up on their module at call
time, so wrappers that the tracer installs on those modules are seen.

Sizes and tolerances live here and nowhere else. ``FULL`` holds the
benchmark's sizes; the tests pass smaller ones.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile

import numpy as np

H = 0.75
ALPHA = 0.25
EXPONENT_TOL = 0.05      # |measured - oracle| variogram exponent
VARIANCE_SE = 3.0        # variance checks: max(3 SE, 2 %) of the oracle
VARIANCE_REL = 0.02

FULL = {
    "variogram-stream": {"modes": 64, "nodes": 256, "n_steps": 2048,
                         "replicas": 1000, "refinement": 256},
    "solve-cli": {},     # the CLI's own default config
    "rosenblatt-drive": {"modes": 16, "nodes": 128, "n_steps": 512,
                         "replicas": 1000, "refinement": 256,
                         "trunc": 2.0e5, "inner": 1024},
}

CHECKS = {"variogram-stream": 4, "solve-cli": 3, "rosenblatt-drive": 4}


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def exponent_check(name: str, measured: float, oracle: float) -> dict:
    """Measured variogram exponent within 0.05 of the oracle exponent."""
    dev = abs(measured - oracle)
    return {"name": name, "ok": bool(dev <= EXPONENT_TOL),
            "measured": float(measured), "oracle": float(oracle),
            "margin": dev / EXPONENT_TOL}


def variance_check(name: str, x: np.ndarray, oracle: float) -> dict:
    """Monte Carlo E x^2 against the oracle within max(3 SE, 2 %)."""
    sq = x * x
    mc_var = float(np.mean(sq))
    se = float(np.std(sq) / np.sqrt(x.size))
    tol = max(VARIANCE_SE * se, VARIANCE_REL * oracle)
    dev = abs(mc_var - oracle)
    return {"name": name, "ok": bool(dev <= tol), "mc_var": mc_var,
            "oracle": float(oracle), "margin": dev / tol}


def failed_checks(workload: str, error: BaseException) -> list[dict]:
    """Every check of a workload that raised counts as failed."""
    msg = f"{type(error).__name__}: {error}"
    return [{"name": f"check{i}", "ok": False, "error": msg}
            for i in range(CHECKS[workload])]


# ---------------------------------------------------------------------------
# variogram-stream: streaming field_variogram, criterion 8's Gaussian twin
# ---------------------------------------------------------------------------

def build_variogram_stream(seed: int, sizes: dict, workdir: str) -> dict:
    from volterra_spde import processes, spde
    s = sizes
    return {
        "model": spde.build_model(np.pi, 1, s["modes"], s["nodes"]),
        "noise": spde.NoiseOperator(kind="diagonal", phi_k=np.ones(s["modes"])),
        "grid": processes.TimeGrid.regular(1.0, s["n_steps"]),
        "u_grid": np.geomspace(1e-4, 1e-2, 13),
        "replicas": s["replicas"], "refinement": s["refinement"],
        "seed": seed,
    }


def execute_variogram_stream(inp: dict) -> list[dict]:
    from volterra_spde import regularity, spde
    model, noise, grid = inp["model"], inp["noise"], inp["grid"]
    # gamma-hat does not depend on delta, so one fit serves both verdicts
    gamma_hat = spde.estimate_gamma_decay(model, noise, 2.0, inp["u_grid"],
                                          alpha=ALPHA)["gamma_hat"]
    vg = regularity.field_variogram(model, noise, "fbm", {"H": H}, grid,
                                    inp["replicas"], inp["seed"],
                                    deltas=(0.0, 0.2),
                                    refinement=inp["refinement"])
    checks = []
    for res in vg:
        d = res["delta"]
        oracle = regularity.oracle_variogram_exponent(
            model, noise, H, grid, delta=d)["exponent"]
        hp = spde.HolderParameters(alpha=ALPHA, gamma=gamma_hat, delta=d)
        rep = regularity.regularity_verdict(res, hp, "generic",
                                            oracle_exponent=oracle)
        checks.append({"name": f"verdict_delta{d:g}", "ok": rep.verdict,
                       "measured": rep.measured_exponent,
                       "se": rep.measured_se, "bound": rep.predicted_bound})
        checks.append(exponent_check(f"exponent_vs_oracle_delta{d:g}",
                                     res["exponent"], oracle))
    return checks


# ---------------------------------------------------------------------------
# solve-cli: `volterra-spde solve` at its defaults, in process
# ---------------------------------------------------------------------------

def build_solve_cli(seed: int, sizes: dict, workdir: str) -> dict:
    outdir = tempfile.mkdtemp(prefix="solve-", dir=workdir)
    argv = ["solve", "--seed", str(seed), "--output", outdir]
    for key, value in sizes.items():
        argv += ["--set", f"{key}={json.dumps(value)}"]
    return {"argv": argv, "outdir": outdir}


def execute_solve_cli(inp: dict) -> list[dict]:
    from volterra_spde import cli
    try:
        code = cli.main(inp["argv"])
        with open(os.path.join(inp["outdir"], "solve.json")) as fh:
            rows = json.load(fh)["checks"]
        if len(rows) != CHECKS["solve-cli"]:
            raise RuntimeError(f"solve.json holds {len(rows)} rows")
        # a row passes only if the command also exited 0
        return [dict(row, name=f"mode{row['mode']}_variance", exit_code=code,
                     ok=bool(row["ok"]) and code == 0)
                for row in rows]
    finally:
        discard(inp)


# ---------------------------------------------------------------------------
# rosenblatt-drive: criterion 6's Rosenblatt case, certified
# ---------------------------------------------------------------------------

def build_rosenblatt_drive(seed: int, sizes: dict, workdir: str) -> dict:
    from volterra_spde import processes, spde
    s = sizes
    return {
        "model": spde.build_model(np.pi, 1, s["modes"], s["nodes"]),
        "noise": spde.NoiseOperator(kind="diagonal", phi_k=np.ones(s["modes"])),
        "grid": processes.TimeGrid.regular(1.0, s["n_steps"]),
        "params": {"Hp": H, "trunc": s["trunc"], "inner": s["inner"],
                   "check": True, "recolor": True},
        "replicas": s["replicas"], "refinement": s["refinement"],
        "seed": seed,
    }


def execute_rosenblatt_drive(inp: dict) -> list[dict]:
    from volterra_spde import processes, spde
    model, grid = inp["model"], inp["grid"]
    # check=True makes construction raise TruncationError when the
    # doubling drift exceeds 2 %, so returning is the certificate passing
    drv = processes.simulate_cylindrical("rosenblatt", inp["params"],
                                         model.modes, grid, inp["replicas"],
                                         inp["seed"])
    checks = [{"name": "doubling_certificate", "ok": True}]
    field = spde.solve_mild(model, inp["noise"], drv, None, grid,
                            refinement=inp["refinement"])
    t_end = grid.T
    for k in (0, 3, 15):
        oracle = spde.per_mode_variance_oracle(model.eigenvalues[k], t_end, H)
        checks.append(variance_check(f"mode{k + 1}_variance",
                                     field.mode_paths[:, k, -1], oracle))
    return checks


WORKLOADS = {
    "variogram-stream": (build_variogram_stream, execute_variogram_stream),
    "solve-cli": (build_solve_cli, execute_solve_cli),
    "rosenblatt-drive": (build_rosenblatt_drive, execute_rosenblatt_drive),
}


def discard(inp: dict) -> None:
    """Remove the scratch output directory ``build`` made, if any."""
    if "outdir" in inp:
        shutil.rmtree(inp["outdir"], ignore_errors=True)
