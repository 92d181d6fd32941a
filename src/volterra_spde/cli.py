"""Batch entry point: config parsing, orchestration, manifests.

One JSON document configures a run; any leaf can be overridden on the
command line with ``--set dotted.path=value``.  Every command writes its
artifacts (CSV at 17 significant digits, JSON reports) plus a manifest
recording the config hash, seed, library versions, wall clock, and each
pass/fail verdict.  Exit codes: 0 all verdicts pass, 2 validation error,
3 numeric/convergence failure, 4 criterion failure.

Each command runs the check of its acceptance criterion at the sizes its
config names; the criterion runs the same check at acceptance sizes.

Control flow is single threaded.  Replica blocks and the BLAS kernels
underneath provide the parallelism.  Random draws do not depend on the
thread count, but BLAS rounding does: two runs agree byte for byte only
at the same BLAS build and thread settings, which every manifest records
under ``versions``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .chaos import hermite, hypercontractivity_sweep, moment_ratio, moment_ratio_stderr
from .errors import (AlignmentError, ConfigurationError, NumericError,
                     ParameterError, TruncationError)
from .kernels import (calibrate_C_H, covariance_quadrature,
                      fbm_constant_closed_form, fbm_covariance_closed_form,
                      make_fbm_kernel)
from .processes import (LazyCylindricalEnsemble, RosenblattSampler, TimeGrid,
                        simulate_cylindrical, simulate_fbm, simulate_rosenblatt,
                        third_moment_oracle)
from .regularity import (field_variogram, oracle_variogram_exponent,
                         regularity_verdict)
from .seeding import STREAM_TEST, child_seed
from .spde import (HolderParameters, NoiseOperator, SpectralModel, build_model,
                   elementary_operator_check, estimate_gamma_decay,
                   factorization_constant_check, factorization_reconstruct,
                   per_mode_variance_oracle, solve_mild)
from .wiener_integral import (StepFunction, compute_norms, elementary_integral,
                              random_step_function)

__all__ = ["parse_config", "serialize_config", "apply_override", "config_hash",
           "run", "full_suite", "main", "DEFAULT_SEED"]

DEFAULT_SEED = 20260823
_ENV_OUTDIR = "VOLTERRA_SPDE_OUTPUT"

_DEFAULTS = {
    "command": "simulate",
    "driver": {"family": "fbm", "H": 0.75, "truncation": None,
               "inner": 1024, "certify": False},
    "model": {"L": 3.141592653589793, "m": 1, "modes": 64, "nodes": 256},
    "noise": {"kind": "diagonal", "z": None, "phi_rule": "ones", "p": 2.0},
    "mc": {"replicas": 2000, "seed": DEFAULT_SEED, "n_phi": 8, "scale": 1.0},
    "grids": {"T": 1.0, "n_steps": 512, "refinement": 64, "lags": None},
    "params": {"alpha": 0.25, "gamma": 0.25, "delta": 0.0, "beta": 0.1,
               "p": 2.0},
    "output": {"directory": None, "formats": ["csv", "json"]},
}

# leaf types the default does not show, and the item types of list leaves
_LEAF_TYPES = {"driver.truncation": (type(None), int, float),
               "noise.z": (type(None), int, float),
               "noise.phi_rule": (str, list),
               "grids.refinement": (type(None), int),
               "grids.lags": (type(None), list),
               "output.directory": (type(None), str)}
_ITEM_TYPES = {"noise.phi_rule": (int, float), "grids.lags": (int,),
               "output.formats": (str,)}

# gamma-norm fit grid: two decades of semigroup time
_U_GRID = np.geomspace(1e-4, 1e-2, 13)


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

def _deep_merge(base: dict, extra: dict, path: str = "") -> dict:
    out = {k: (dict(v) if isinstance(v, dict) else v) for k, v in base.items()}
    for key, val in extra.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigurationError(f"unknown config key {here!r}")
        if isinstance(base[key], dict):
            if not isinstance(val, dict):
                raise ConfigurationError(f"{here!r} must be an object")
            out[key] = _deep_merge(base[key], val, here)
        else:
            out[key] = val
    return out


def parse_config(text: str) -> dict:
    """JSON text -> full config with defaults filled in."""
    try:
        raw = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError("config root must be a JSON object")
    return _deep_merge(_DEFAULTS, raw)


def serialize_config(cfg: dict) -> str:
    return json.dumps(cfg, indent=2, sort_keys=True) + "\n"


def config_hash(cfg) -> str:
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]


def apply_override(cfg: dict, assignment: str) -> None:
    """In-place ``dotted.path=value`` override; values parse as JSON."""
    if "=" not in assignment:
        raise ConfigurationError(f"override {assignment!r} is not path=value")
    path, _, raw = assignment.partition("=")
    keys = path.strip().split(".")
    node = cfg
    for key in keys[:-1]:
        if not isinstance(node.get(key), dict):
            raise ConfigurationError(f"unknown config path {path!r}")
        node = node[key]
    if keys[-1] not in node:
        raise ConfigurationError(f"unknown config path {path!r}")
    try:
        node[keys[-1]] = json.loads(raw)
    except json.JSONDecodeError:
        node[keys[-1]] = raw


def _check_types(cfg: dict, defaults: dict = _DEFAULTS, path: str = "") -> None:
    """Each leaf has its default's type: ints take ints, floats take
    numbers, and neither takes a bool."""
    for key, default in defaults.items():
        here, val = path + key, cfg[key]
        types = _LEAF_TYPES.get(here) or (
            (int, float) if type(default) is float else (type(default),))
        if type(val) not in types or (type(val) is list and any(
                type(v) not in _ITEM_TYPES[here] for v in val)):
            raise ConfigurationError(f"{here} has the wrong type: {val!r}")
        if type(val) is dict:
            _check_types(val, default, here + ".")


def validate_config(cfg: dict) -> None:
    """Check leaf types, then build the model, noise coefficients, grid and
    exponent bundle so the library names each violated precondition."""
    _check_types(cfg)
    if cfg["command"] not in _HANDLERS:
        raise ConfigurationError(
            f"command {cfg['command']!r} not one of {tuple(_HANDLERS)}")
    drv, nz = cfg["driver"], cfg["noise"]
    if drv["family"] not in ("fbm", "rosenblatt"):
        raise ConfigurationError(f"driver.family {drv['family']!r} unknown")
    if not 0.5 < drv["H"] < 1.0:
        raise ParameterError(
            f"driver.H must satisfy 1/2 < H < 1, got {drv['H']}")
    if nz["kind"] not in ("diagonal", "pointwise"):
        raise ConfigurationError(f"noise.kind {nz['kind']!r} unknown")
    if not nz["p"] >= 1.0:
        raise ParameterError(f"noise.p must satisfy p >= 1, got {nz['p']}")
    if cfg["mc"]["replicas"] < 2:
        # every check needs a Monte Carlo standard error
        raise ParameterError("mc.replicas must satisfy replicas >= 2")
    model, noise, _ = _problem(cfg)
    noise.mode_coefficients(model)
    if cfg["command"] in ("gamma-decay", "factorize", "regularity"):
        p = cfg["params"]
        HolderParameters(alpha=p["alpha"], gamma=p["gamma"], delta=p["delta"],
                         beta=p["beta"], p=p["p"])


def _versions() -> dict:
    import scipy
    try:        # numpy < 1.26 has no mode; a BLAS-less build has no entry
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "volterra_spde": __version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "cpu_affinity": cores}


def _jsonify(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _write_json(path: str, payload) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_jsonify)
        fh.write("\n")


def _variogram_csv(path: str, res: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("lag_h,second_moment,second_moment_se\n")
        for h, d, se in zip(res["lags_h"], res["D"], res["D_se"]):
            fh.write(f"{h:.17g},{d:.17g},{se:.17g}\n")


def _noise_from(cfg: dict, model: SpectralModel) -> NoiseOperator:
    nz = cfg["noise"]
    if nz["kind"] == "pointwise":
        z = model.L / 2.0 if nz["z"] is None else float(nz["z"])
        return NoiseOperator(kind="pointwise", z=z, p=nz["p"])
    if nz["phi_rule"] == "ones":
        phi = np.ones(model.modes)
    elif nz["phi_rule"] == "zero":
        phi = np.zeros(model.modes)
    elif nz["phi_rule"] == "smoothed":
        phi = np.exp(-model.eigenvalues)
    elif isinstance(nz["phi_rule"], list):
        phi = np.asarray(nz["phi_rule"], dtype=float)
    else:
        raise ConfigurationError(
            f"noise.phi_rule {nz['phi_rule']!r} not one of ones/zero/smoothed "
            f"or an explicit list")
    return NoiseOperator(kind="diagonal", phi_k=phi, p=nz["p"])


def _problem(cfg: dict) -> tuple[SpectralModel, NoiseOperator, TimeGrid]:
    """The spectral model, noise operator and time grid a config names."""
    mdl, gr = cfg["model"], cfg["grids"]
    model = build_model(mdl["L"], mdl["m"], mdl["modes"], mdl["nodes"])
    return model, _noise_from(cfg, model), TimeGrid.regular(gr["T"], gr["n_steps"])


def _driver_params(cfg: dict) -> tuple[str, dict]:
    drv = cfg["driver"]
    if drv["family"] == "fbm":
        return "fbm", {"H": drv["H"]}
    return "rosenblatt", {"Hp": drv["H"], "trunc": drv["truncation"],
                          "inner": drv["inner"], "check": drv["certify"]}


# ---------------------------------------------------------------------------
# checks: one per verdict.  A command calls its check at config sizes, the
# acceptance criterion at acceptance sizes.  Each reports "ok" and
# margin = deviation / tolerance, which passes at <= 1.
# ---------------------------------------------------------------------------

def _worst(rows: list[dict]) -> dict:
    """The largest margin among check rows and whether every row passed."""
    return {"margin": max(r["margin"] for r in rows),
            "ok": all(r["ok"] for r in rows)}


def _variance_check(x: np.ndarray, oracle: float) -> dict:
    """E x^2 against ``oracle`` within max(3 SE, 2 %); a zero oracle
    needs |x| <= 1e-12."""
    if oracle == 0.0:
        dev = float(np.max(np.abs(x)))
        return {"exact_zero": True, "margin": dev / 1e-12, "ok": dev <= 1e-12}
    mc_var = float(np.mean(x * x))
    se = float(np.std(x * x) / np.sqrt(x.size))
    dev, tol = abs(mc_var - oracle), max(3.0 * se, 0.02 * oracle)
    return {"mc_var": mc_var, "se": se, "oracle": oracle,
            "rel_dev": abs(mc_var / oracle - 1.0), "margin": dev / tol,
            "ok": dev <= tol}


def _scalar_driver(family: str, params: dict, grid: TimeGrid, replicas: int,
                   seed: int):
    if family == "fbm":
        return simulate_fbm(params["H"], grid, replicas, seed)
    return simulate_rosenblatt(params["Hp"], grid, params["trunc"],
                               params["inner"], replicas=replicas, seed=seed,
                               check=params["check"])


def _solve_check(model, noise, family: str, params: dict, grid: TimeGrid,
                 replicas: int, seed: int, refinement, H: float):
    """The mild solution at T and the variance check of its modes 1, 4 and
    16 there against c_k^2 times the exact per-mode variance.  Diagonal
    noise draws each mode's normals as that mode is folded."""
    driver = (LazyCylindricalEnsemble(family, params, model.modes, grid,
                                      replicas, seed)
              if noise.kind == "diagonal" else
              _scalar_driver(family, params, grid, replicas, seed))
    field = solve_mild(model, noise, driver, None, grid, refinement,
                       times=[grid.T])
    c = noise.mode_coefficients(model)
    return field, [dict(mode=k + 1, **_variance_check(
        field.mode_paths[:, k, -1],
        c[k] ** 2 * per_mode_variance_oracle(model.eigenvalues[k], grid.T, H)))
        for k in (0, 3, 15) if k < model.modes]


def _covariance_check(values: np.ndarray, times: np.ndarray, H: float) -> dict:
    """Empirical covariance of ``values`` (replicas x times) against the
    fBm closed form, entrywise within max(3 SE, 2 %)."""
    reps = values.shape[0]
    emp = values.T @ values / reps
    exact = fbm_covariance_closed_form(H, times[:, None], times[None, :])
    se = np.sqrt(np.var(values[:, :, None] * values[:, None, :], axis=0) / reps)
    dev = np.abs(emp - exact)
    tol = np.maximum(3.0 * se, 0.02 * np.abs(exact))
    return {"max_abs_dev": float(np.max(dev)),
            "margin": float(np.max(dev / tol)), "ok": bool(np.all(dev <= tol))}


def _isometry_check(H: float, grid: TimeGrid, replicas: int, n_phi: int,
                    seed: int) -> dict:
    """E I(phi)^2 against the isometry norm within 3 SE, and that norm
    against the direct fBm inner product within 1e-3, for phi = 0 and
    ``n_phi`` random step functions."""
    if n_phi < 1:
        raise ParameterError(f"mc.n_phi={n_phi}: need n_phi >= 1 random integrands")
    kern = make_fbm_kernel(H)
    ens = simulate_fbm(H, grid, replicas, child_seed(seed, STREAM_TEST, 2))
    rng = np.random.default_rng(child_seed(seed, STREAM_TEST, 2, 1))
    phis = [StepFunction(breakpoints=np.array([0.0, grid.T]),
                         values=np.array([0.0]))]
    phis += [random_step_function(grid.T, int(rng.integers(3, 9)), rng,
                                  times=grid.points)
             for _ in range(n_phi)]
    rows = []
    for j, phi in enumerate(phis):
        norms = compute_norms(phi, kern)
        I = elementary_integral(phi, ens)
        mc_var = float(np.mean(I * I))
        if norms.isometry_norm_sq == 0.0:
            ok = mc_var == 0.0
            rows.append({"phi": j, "exact_zero": True, "mc_var": mc_var,
                         "margin": 0.0 if ok else float("inf"), "ok": ok})
            continue
        se = float(np.std(I * I) / np.sqrt(I.size))
        z = abs(mc_var - norms.isometry_norm_sq) / se
        cross = abs(norms.isometry_norm_sq / norms.fbm_inner_sq - 1.0)
        rows.append({"phi": j, "mc_var": mc_var,
                     "norm_sq": norms.isometry_norm_sq, "z": z,
                     "cross_rel": cross, "margin": max(z / 3.0, cross / 1e-3),
                     "ok": z <= 3.0 and cross <= 1e-3})
    return {"checks": rows, "worst_z": max(r.get("z", 0.0) for r in rows),
            "worst_cross_rel": max(r.get("cross_rel", 0.0) for r in rows),
            **_worst(rows)}


def _gamma_decay_check(model: SpectralModel, noise: NoiseOperator, p: float,
                       alpha: float) -> dict:
    """The gamma-norm decay fit: admissible exponent and R^2 >= 0.99."""
    res = estimate_gamma_decay(model, noise, p, _U_GRID, alpha=alpha)
    margin = max((1.0 - res["r_squared"]) / 0.01,
                 res["gamma_hat"] / (alpha + 0.5 - 0.02))
    return dict(res, margin=margin,
                ok=res["admissible"] and res["r_squared"] >= 0.99)


def _factorization_check(model, noise, family: str, params: dict,
                         grid: TimeGrid, replicas: int, seed: int, refinement,
                         alpha: float, combos) -> dict:
    """Relative L^2 error at T of the factorization route against the
    direct mild solution, below 3 % for each (beta, delta), and the pi
    identity at (1/2, 0.3 T, T) to 1e-6."""
    driver = simulate_cylindrical(family, params, model.modes, grid, replicas,
                                  seed)
    a = solve_mild(model, noise, driver, None, grid, refinement,
                   times=[grid.T]).mode_paths[:, :, -1]
    denom = float(np.mean(np.sum(a * a, axis=1)))
    per_combo = {}
    for beta, delta in combos:
        b = factorization_reconstruct(model, noise, driver, beta, delta, grid,
                                      alpha=alpha).mode_paths[:, :, -1]
        rel = float(np.sqrt(np.mean(np.sum((a - b) ** 2, axis=1)) / denom))
        per_combo[f"beta{beta:g}_delta{delta:g}"] = {
            "rel_error": rel, "margin": rel / 0.03, "ok": rel < 0.03}
    pi_err = abs(factorization_constant_check(0.5, 0.3 * grid.T, grid.T)
                 / np.pi - 1.0)
    pi = {"margin": pi_err / 1e-6, "ok": pi_err <= 1e-6}
    return {"per_combo": per_combo, "pi_identity_rel_error": pi_err,
            "pi_ok": pi["ok"], **_worst([*per_combo.values(), pi])}


def _regularity_check(model, noise, family: str, params: dict, grid: TimeGrid,
                      replicas: int, seed: int, *, gamma: float, alpha: float,
                      beta: float = 0.0, p: float = 2.0, deltas=(0.0,),
                      lags=None, refinement=256) -> list:
    """The streaming variogram of the mild solution and, per delta, its
    Holder verdict under the decay exponent ``gamma``: (result, report)."""
    vg = field_variogram(model, noise, family, params, grid, replicas, seed,
                         lags=lags, deltas=deltas, refinement=refinement)
    case = "pointwise" if noise.kind == "pointwise" else "generic"
    return [(res, regularity_verdict(res, HolderParameters(
                alpha=alpha, gamma=gamma, delta=res["delta"], beta=beta, p=p),
                case)) for res in vg]


# ---------------------------------------------------------------------------
# subcommands: each returns (verdicts, artifacts)
# ---------------------------------------------------------------------------

def _report(outdir, name: str, verdict: str, report: dict, artifacts=()):
    _write_json(os.path.join(outdir, f"{name}.json"), report)
    return {verdict: report["ok"]}, [*artifacts, f"{name}.json"]


def _cmd_simulate(cfg, outdir):
    gr, mc, drv = cfg["grids"], cfg["mc"], cfg["driver"]
    grid = TimeGrid.regular(gr["T"], gr["n_steps"])
    ens = _scalar_driver(*_driver_params(cfg), grid, mc["replicas"], mc["seed"])
    artifacts = []
    if "csv" in cfg["output"]["formats"]:
        ens.to_csv(os.path.join(outdir, "ensemble.csv"))
        artifacts.append("ensemble.csv")
    idx = np.unique(np.linspace(1, grid.n_steps, 5).astype(int))
    ts = grid.points[idx]
    report = dict(_covariance_check(ens.values[:, idx], ts, drv["H"]),
                  family=drv["family"], H=drv["H"], times=ts.tolist())
    return _report(outdir, "covariance_check", "covariance", report, artifacts)


def _cmd_isometry(cfg, outdir):
    mc, gr, H = cfg["mc"], cfg["grids"], cfg["driver"]["H"]
    grid = TimeGrid.regular(gr["T"], min(gr["n_steps"], 256))
    report = dict(_isometry_check(H, grid, mc["replicas"], mc["n_phi"],
                                  mc["seed"]), H=H, replicas=mc["replicas"])
    return _report(outdir, "isometry", "isometry", report)


def _cmd_chaos(cfg, outdir):
    mc = cfg["mc"]
    det = _crit_hypercontractivity(mc["seed"], 1.0,
                                   replicas=max(mc["replicas"], 2000))
    return _report(outdir, "chaos", "hypercontractivity",
                   dict(det["details"], ok=det["passed"]))


def _cmd_gamma_decay(cfg, outdir):
    model, noise, _ = _problem(cfg)
    report = dict(_gamma_decay_check(model, noise, cfg["noise"]["p"],
                                     cfg["params"]["alpha"]), u_grid=_U_GRID)
    return _report(outdir, "gamma_decay", "gamma_decay", report)


def _cmd_solve(cfg, outdir):
    gr, mc = cfg["grids"], cfg["mc"]
    model, noise, grid = _problem(cfg)
    field, rows = _solve_check(model, noise, *_driver_params(cfg), grid,
                               mc["replicas"], mc["seed"], gr["refinement"],
                               cfg["driver"]["H"])
    artifacts = []
    if "csv" in cfg["output"]["formats"]:
        field.snapshot_to_csv(os.path.join(outdir, "solution_snapshot.csv"),
                              times=[grid.T])
        artifacts.append("solution_snapshot.csv")
    report = {"modes_checked": [r["mode"] for r in rows], "checks": rows,
              **_worst(rows), "metadata": field.metadata}
    return _report(outdir, "solve", "per_mode_variance", report, artifacts)


def _cmd_factorize(cfg, outdir):
    gr, mc, prm = cfg["grids"], cfg["mc"], cfg["params"]
    model, noise, grid = _problem(cfg)
    report = _factorization_check(
        model, noise, *_driver_params(cfg), grid, mc["replicas"], mc["seed"],
        gr["refinement"], prm["alpha"], [(prm["beta"], prm["delta"])])
    return _report(outdir, "factorize", "factorization", report)


def _cmd_regularity(cfg, outdir):
    mdl, gr, mc, prm = cfg["model"], cfg["grids"], cfg["mc"], cfg["params"]
    model, noise, grid = _problem(cfg)
    family, params = _driver_params(cfg)
    # gamma-hat needs the semigroup tail resolved at the smallest probe
    # time; a small field model would bias the decay flat, so the probe
    # uses at least 256 modes unless the noise pins the mode count
    if isinstance(cfg["noise"]["phi_rule"], list) or mdl["modes"] >= 256:
        probe_model, probe_noise = model, noise
    else:
        probe_model = build_model(mdl["L"], mdl["m"], 256, 1024)
        probe_noise = _noise_from(cfg, probe_model)
    gamma_hat = estimate_gamma_decay(probe_model, probe_noise,
                                     cfg["noise"]["p"], _U_GRID,
                                     alpha=prm["alpha"])["gamma_hat"]
    replicas = max(mc["replicas"], 1000)
    [(vg, report)] = _regularity_check(
        model, noise, family, params, grid, replicas, mc["seed"],
        gamma=gamma_hat, alpha=prm["alpha"], beta=prm["beta"],
        p=cfg["noise"]["p"], deltas=(prm["delta"],), lags=gr["lags"],
        refinement=gr["refinement"])
    report = dataclasses.replace(report, config={
        "model": mdl, "noise": cfg["noise"],
        "grid": {"T": gr["T"], "n_steps": gr["n_steps"]},
        "delta": prm["delta"], "family": family, "replicas": replicas,
        "gamma_hat": gamma_hat})
    report.to_json(os.path.join(outdir, "regularity_report.json"))
    artifacts = ["regularity_report.json"]
    if "csv" in cfg["output"]["formats"]:
        _variogram_csv(os.path.join(outdir, "variogram.csv"), vg)
        artifacts.append("variogram.csv")
    return {"regularity": report.verdict}, artifacts


def _cmd_full_suite(cfg, outdir):
    manifest = full_suite(cfg["mc"]["seed"], outdir=None,
                          scale=cfg["mc"].get("scale", 1.0))
    _write_json(os.path.join(outdir, "suite_manifest.json"), manifest)
    verdicts = {f"criterion_{c['criterion']}": c["passed"]
                for c in manifest["criteria"]}
    return verdicts, ["suite_manifest.json"]


_HANDLERS = {
    "simulate": _cmd_simulate,
    "isometry": _cmd_isometry,
    "chaos": _cmd_chaos,
    "gamma-decay": _cmd_gamma_decay,
    "solve": _cmd_solve,
    "factorize": _cmd_factorize,
    "regularity": _cmd_regularity,
    "full-suite": _cmd_full_suite,
}


def run(cfg: dict) -> int:
    """Validate, execute, and write artifacts plus a manifest."""
    outdir = cfg["output"]["directory"]
    if not (outdir and isinstance(outdir, str)):
        # a wrong-typed directory is reported in the default one
        outdir = os.environ.get(_ENV_OUTDIR, "volterra_spde_out")
    os.makedirs(outdir, exist_ok=True)
    started = time.perf_counter()
    try:
        validate_config(cfg)
        verdicts, artifacts = _HANDLERS[cfg["command"]](cfg, outdir)
    except (ConfigurationError, ParameterError, AlignmentError) as exc:
        # library preconditions the validator does not restate land here too
        _write_json(os.path.join(outdir, "error.json"),
                    {"error": type(exc).__name__, "message": str(exc)})
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, TruncationError) as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        if getattr(exc, "drift", None) is not None:
            payload["drift"] = exc.drift
        _write_json(os.path.join(outdir, "error.json"), payload)
        _write_json(os.path.join(outdir, "manifest.json"), {
            "command": cfg["command"], "config_hash": config_hash(cfg),
            "seed": cfg["mc"]["seed"], "versions": _versions(),
            "numeric_failure": str(exc), "verdicts": {},
            "wall_clock_s": time.perf_counter() - started})
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    manifest = {
        "command": cfg["command"],
        "config": cfg,
        "config_hash": config_hash(cfg),
        "seed": cfg["mc"]["seed"],
        "versions": _versions(),
        "verdicts": verdicts,
        "artifacts": artifacts,
        "wall_clock_s": time.perf_counter() - started,
    }
    _write_json(os.path.join(outdir, "manifest.json"), manifest)
    ok = all(verdicts.values())
    for name, passed in verdicts.items():
        print(f"{name}: {'PASS' if passed else 'FAIL'}")
    return 0 if ok else 4


# ---------------------------------------------------------------------------
# acceptance criteria
# ---------------------------------------------------------------------------
# Each criterion function is deterministic in (seed, scale) and returns
# {"criterion", "name", "passed", "details"}.  scale < 1 shrinks replica
# counts and trims configurations for the reproducibility/mutation runs;
# tolerances stay as stated, with statistical ones widening through
# their own SE.

def _crit_kernel_covariance(seed, scale, c_h_scale: float = 1.0):
    pts = np.linspace(0.1, 1.0, 10)
    per_H, passed = {}, True
    for H in (0.6, 0.75, 0.9):
        closed = fbm_constant_closed_form(H)
        kern = make_fbm_kernel(H, C_H=closed * c_h_scale)
        dev = max(abs(covariance_quadrature(kern, s, t)
                      - fbm_covariance_closed_form(H, s, t))
                  for s in pts for t in pts if s <= t)
        resid = abs(calibrate_C_H(H) / closed - 1.0)
        ok = dev <= 2e-3 and resid <= 1e-3
        per_H[str(H)] = {"max_abs_dev": dev, "calibration_resid": resid,
                         "margin": max(dev / 2e-3, resid / 1e-3), "ok": ok}
        passed &= ok
    return {"criterion": 1, "name": "kernel_covariance", "passed": bool(passed),
            "details": {"grid": "10x10 in [0.1,1]^2", "c_h_scale": c_h_scale,
                        "per_H": per_H}}


def _crit_isometry(seed, scale):
    reps = max(2000, int(round(10000 * scale)))
    n_phi = 20 if scale >= 1 else 8
    chk = _isometry_check(0.75, TimeGrid.regular(1.0, 256), reps, n_phi, seed)
    return {"criterion": 2, "name": "isometry", "passed": chk["ok"],
            "details": {"replicas": reps, "n_phi": n_phi,
                        "zero_phi": chk["checks"][0], "worst_z": chk["worst_z"],
                        "worst_cross_rel": chk["worst_cross_rel"],
                        "margin": chk["margin"]}}


def _crit_rosenblatt(seed, scale, include_diagonal: bool = False):
    Hp, T = 0.75, 1.0
    grid = TimeGrid.regular(T, 5)
    reps = max(1000, int(round(10000 * scale)))
    certify = scale >= 1
    sampler = RosenblattSampler(Hp, grid, trunc=2.0e5, inner=1024,
                                check=certify)
    z = sampler.draw(reps, child_seed(seed, STREAM_TEST, 3),
                     include_diagonal=include_diagonal)
    zT = z[:, -1]
    var = _variance_check(zT, 1.0)
    cov = _covariance_check(z[:, 1:], grid.points[1:], Hp)
    m3 = float(np.mean(zT ** 3))
    se3 = float(np.std(zT ** 3) / np.sqrt(reps))
    oracle3 = third_moment_oracle(Hp, T, inner=1024, trunc=2.0e5)
    third_ok = abs(m3 - oracle3) <= max(5.0 * se3, 0.05 * oracle3)
    drifts = sampler.convergence_drifts if certify else None
    cert_ok = True if not certify else all(
        abs(v) < 0.02 for v in drifts.values())
    passed = var["ok"] and cov["ok"] and third_ok and cert_ok
    return {"criterion": 3, "name": "rosenblatt_construction",
            "passed": bool(passed),
            "details": {"replicas": reps, "second_moment": var["mc_var"],
                        "second_moment_se": var["se"], "variance_ok": var["ok"],
                        "variance_margin": var["margin"],
                        "covariance_ok": cov["ok"],
                        "covariance_margin": cov["margin"], "third_moment": m3,
                        "third_moment_oracle": oracle3, "third_ok": third_ok,
                        "include_diagonal": include_diagonal,
                        "certificates": drifts, "certificates_ok": cert_ok}}


def _crit_hypercontractivity(seed, scale, replicas=None):
    reps = replicas or max(20000, int(round(100000 * scale)))
    rng = np.random.default_rng(child_seed(seed, STREAM_TEST, 4))
    x = rng.standard_normal(reps)[:, None]
    checks = {}
    passed = True
    for name, sample, target in (
            ("gaussian_l4_l2", x, 3.0 ** 0.25),
            ("hermite2_l4_l2", hermite(2, x), (60.0 / 16.0) ** 0.25 / 0.5 ** 0.5)):
        ratio = moment_ratio(sample, 4.0, 2.0)
        se = moment_ratio_stderr(sample, 4.0, 2.0)
        ok = abs(ratio - target) <= 3.0 * se
        checks[name] = {"ratio": ratio, "target": target, "se": se,
                        "margin": abs(ratio - target) / (3.0 * se), "ok": ok}
        passed &= ok
    sweep_reps = max(1500, int(round(4000 * scale)))
    for n, p, q in ((1, 2.0, 4.0), (2, 2.0, 4.0), (1, 1.0, 2.0), (2, 1.0, 2.0)):
        sw = hypercontractivity_sweep(n, p, q, (2, 8, 64), trials=30,
                                      seed=child_seed(seed, STREAM_TEST, 4, n,
                                                      int(2 * p), int(2 * q)),
                                      replicas=sweep_reps)
        ok = sw["monotone_pass"] and sw["trend_pass"]
        checks[f"sweep_n{n}_p{p:g}_q{q:g}"] = {
            "sup_ratios": list(sw["sup_ratio"]), "monotone": sw["monotone_pass"],
            "trend_slope": sw["trend_slope"], "trend_se": sw["trend_se"],
            "ok": ok}
        passed &= ok
    return {"criterion": 4, "name": "hypercontractivity", "passed": bool(passed),
            "details": checks}


def _crit_gamma_decay(seed, scale):
    modes = 384 if scale >= 1 else 192
    model = build_model(np.pi, 1, modes, 4 * modes)
    cases = (
        ("diagonal_p2", NoiseOperator(kind="diagonal", phi_k=np.ones(modes)),
         2.0, 0.25),
        ("pointwise_p2", NoiseOperator(kind="pointwise", z=np.pi / 2.0), 2.0,
         0.25),
        ("pointwise_p4", NoiseOperator(kind="pointwise", z=np.pi / 2.0), 4.0,
         0.375),
    )
    per_case, passed = {}, True
    for name, noise, p, target in cases:
        chk = _gamma_decay_check(model, noise, p, alpha=0.25)
        miss = abs(chk["gamma_hat"] - target)
        ok = chk["ok"] and miss <= 0.03
        per_case[name] = {"gamma_hat": chk["gamma_hat"], "target": target,
                          "r_squared": chk["r_squared"],
                          "margin": max(chk["margin"], miss / 0.03), "ok": ok}
        passed &= ok
    return {"criterion": 5, "name": "gamma_decay", "passed": bool(passed),
            "details": {"modes": modes, "per_case": per_case}}


def _crit_mild_solution(seed, scale):
    model = build_model(np.pi, 1, 16, 128)
    grid = TimeGrid.regular(1.0, 512)
    reps = max(300, int(round(1000 * scale)))
    noise = NoiseOperator(kind="diagonal", phi_k=np.ones(16))
    hursts = (0.6, 0.75) if scale >= 1 else (0.75,)
    per_combo, passed = {}, True
    for fam in ("fbm", "rosenblatt"):
        for jh, H in enumerate(hursts):
            params = ({"H": H} if fam == "fbm"
                      else {"Hp": H, "trunc": 2.0e5, "inner": 1024,
                            "check": False, "recolor": True})
            _, rows = _solve_check(model, noise, fam, params, grid, reps,
                                   child_seed(seed, STREAM_TEST, 6, jh), 256, H)
            combo = per_combo[f"{fam}_H{H:g}"] = _worst(rows)
            passed &= combo["ok"]
    zero = NoiseOperator(kind="diagonal", phi_k=np.zeros(16))
    drv = simulate_cylindrical("fbm", {"H": 0.75}, 16, grid, 4,
                               child_seed(seed, STREAM_TEST, 6, 1))
    flow = solve_mild(model, zero, drv, np.ones(16), grid, refinement=256)
    exact = np.exp(-np.outer(model.eigenvalues, grid.points))
    flow_err = float(np.max(np.abs(flow.mode_paths - exact[None])))
    flow_ok = flow_err <= 1e-12
    passed &= flow_ok
    return {"criterion": 6, "name": "mild_solution", "passed": bool(passed),
            "details": {"replicas": reps, "per_combo": per_combo,
                        "zero_noise_flow_err": flow_err, "flow_ok": flow_ok}}


def _crit_factorization(seed, scale):
    model = build_model(np.pi, 1, 16, 128)
    grid = TimeGrid.regular(1.0, 1024)
    reps = max(100, int(round(400 * scale)))
    noise = NoiseOperator(kind="diagonal", phi_k=np.ones(16))
    combos = [(0.1, 0.0), (0.1, 0.2), (0.2, 0.0), (0.2, 0.2)]
    if scale < 1:
        combos = [(0.1, 0.0), (0.2, 0.2)]
    chk = _factorization_check(model, noise, "fbm", {"H": 0.75}, grid, reps,
                               child_seed(seed, STREAM_TEST, 7), 64, 0.25,
                               combos)
    return {"criterion": 7, "name": "factorization", "passed": chk.pop("ok"),
            "details": dict(chk, replicas=reps)}


def _crit_regularity(seed, scale):
    reps = max(1000, int(round(1000 * scale)))
    per_case, passed = {}, True

    if scale >= 1:
        n_abs, modes_abs = 4096, 192
    else:
        n_abs, modes_abs = 2048, 96
    model = build_model(np.pi, 1, modes_abs, 4 * modes_abs)
    noise = NoiseOperator(kind="diagonal", phi_k=np.ones(modes_abs))
    grid = TimeGrid.regular(1.0, n_abs)
    gamma_hat = estimate_gamma_decay(model, noise, 2.0, _U_GRID,
                                     alpha=0.25)["gamma_hat"]
    checks = _regularity_check(model, noise, "fbm", {"H": 0.75}, grid, reps,
                               child_seed(seed, STREAM_TEST, 8), gamma=gamma_hat,
                               alpha=0.25, deltas=(0.0, 0.2))
    for (res, rep), target in zip(checks, (0.5, 0.3)):
        d = res["delta"]
        oracle = oracle_variogram_exponent(model, noise, 0.75, grid,
                                           delta=d)["exponent"]
        miss = abs(res["exponent"] - target)
        ok = rep.verdict and miss <= 0.05
        per_case[f"distributed_delta{d:g}"] = {
            "measured": res["exponent"], "se": res["se"], "target": target,
            "oracle": oracle, "predicted": rep.predicted_bound,
            "margin": max(rep.margin, miss / 0.05), "ok": ok}
        passed &= ok

    n_pt, modes_pt = (2048, 64) if scale >= 1 else (1024, 32)
    model_pt = build_model(np.pi, 1, modes_pt, 4 * modes_pt)
    noise_pt = NoiseOperator(kind="pointwise", z=np.pi / 2.0)
    grid_pt = TimeGrid.regular(1.0, n_pt)
    gam_pt = estimate_gamma_decay(model_pt, noise_pt, 2.0, _U_GRID,
                                  alpha=0.25)["gamma_hat"]
    [(vg_pt, rep_pt)] = _regularity_check(
        model_pt, noise_pt, "fbm", {"H": 0.75}, grid_pt, reps,
        child_seed(seed, STREAM_TEST, 8, 1), gamma=gam_pt, alpha=0.25)
    per_case["pointwise_p2"] = {
        "measured": vg_pt["exponent"], "se": vg_pt["se"],
        "predicted": rep_pt.predicted_bound, "margin": rep_pt.margin,
        "ok": rep_pt.verdict, "extras": rep_pt.extras}
    passed &= rep_pt.verdict

    if scale >= 1:
        n_tw, modes_tw = 2048, 64
        model_tw = build_model(np.pi, 1, modes_tw, 4 * modes_tw)
        noise_tw = NoiseOperator(kind="diagonal", phi_k=np.ones(modes_tw))
        grid_tw = TimeGrid.regular(1.0, n_tw)
        twin = {}
        for fam, params in (("fbm", {"H": 0.75}),
                            ("rosenblatt", {"Hp": 0.75, "trunc": 2.0e5,
                                            "inner": 1024, "check": False,
                                            "recolor": True})):
            twin[fam] = field_variogram(model_tw, noise_tw, fam, params,
                                        grid_tw, reps,
                                        child_seed(seed, STREAM_TEST, 8, 2),
                                        refinement=256)[0]
        gap = abs(twin["fbm"]["exponent"] - twin["rosenblatt"]["exponent"])
        tol = 2.0 * np.hypot(twin["fbm"]["se"], twin["rosenblatt"]["se"])
        twin_ok = bool(gap <= tol)
        per_case["rosenblatt_vs_gaussian"] = {
            "gaussian": twin["fbm"]["exponent"],
            "rosenblatt": twin["rosenblatt"]["exponent"],
            "gap": gap, "tol_2se": float(tol), "margin": float(gap / tol),
            "ok": twin_ok}
        passed &= twin_ok

    return {"criterion": 8, "name": "regularity_verdicts",
            "passed": bool(passed),
            "details": {"replicas": reps, "per_case": per_case}}


def _crit_elementary_operator(seed, scale):
    H = 0.75
    model = build_model(np.pi, 1, 8, 64)
    kern = make_fbm_kernel(H)
    grid = TimeGrid.regular(1.0, 256)
    reps = max(1500, int(round(4000 * scale)))
    n_ops = 20 if scale >= 1 else 6
    driver = simulate_cylindrical("fbm", {"H": H}, 8, grid, reps,
                                  child_seed(seed, STREAM_TEST, 9))
    rng = np.random.default_rng(child_seed(seed, STREAM_TEST, 9, 1))
    per_pq, passed = {}, True
    for p, q in ((2.0, 2.0), (4.0, 4.0)):
        ratios, emb = [], []
        for _ in range(n_ops):
            terms = int(rng.integers(2, 5))
            gs = [random_step_function(1.0, int(rng.integers(3, 7)), rng,
                                       times=grid.points)
                  for _ in range(terms)]
            coefs = rng.normal(size=(terms, 3))
            fs = [cf[0] + cf[1] * np.sin(model.nodes)
                  + cf[2] * np.cos(2 * model.nodes) for cf in coefs]
            res = elementary_operator_check(model, kern, gs, fs, driver, q, p)
            ratios.append(res["ratio"])
            emb.append(res["embedding_ratio"])
        ratios = np.array(ratios)
        dev = float(np.max(np.abs(ratios / np.mean(ratios) - 1.0)))
        ok = dev <= 0.10
        per_pq[f"p{p:g}_q{q:g}"] = {
            "mean_ratio": float(np.mean(ratios)), "max_rel_dev": dev,
            "embedding_constant": float(np.max(emb)), "margin": dev / 0.10,
            "ok": ok}
        passed &= ok
    return {"criterion": 9, "name": "elementary_operator", "passed": bool(passed),
            "details": {"replicas": reps, "n_ops": n_ops, "per_pq": per_pq}}


_CRITERIA = (
    _crit_kernel_covariance,
    _crit_isometry,
    _crit_rosenblatt,
    _crit_hypercontractivity,
    _crit_gamma_decay,
    _crit_mild_solution,
    _crit_factorization,
    _crit_regularity,
    _crit_elementary_operator,
)


def full_suite(seed: int = DEFAULT_SEED, outdir: str | None = None,
               scale: float = 1.0, mutations: dict | None = None) -> dict:
    """Run acceptance criteria 1-9 and aggregate the manifest.

    ``mutations`` injects deliberate faults for the reproducibility
    criterion: {"c_h_scale": 1.1} mis-calibrates the kernel constant in
    the covariance criterion, {"rosenblatt_include_diagonal": True}
    keeps the diagonal chaos term in the variance-calibration criterion.
    The tenth criterion (byte-identical reruns, mutation targeting) is
    exercised by running this function repeatedly and diffing manifests.
    """
    mutations = dict(mutations or {})
    started = time.perf_counter()
    results = []
    for fn in _CRITERIA:
        kwargs = {}
        if fn is _crit_kernel_covariance and "c_h_scale" in mutations:
            kwargs["c_h_scale"] = mutations["c_h_scale"]
        if fn is _crit_rosenblatt and mutations.get("rosenblatt_include_diagonal"):
            kwargs["include_diagonal"] = True
        t0 = time.perf_counter()
        out = fn(seed, scale, **kwargs)
        out["runtime_s"] = time.perf_counter() - t0
        results.append(out)
    manifest = {
        "suite": "acceptance",
        "seed": seed,
        "scale": scale,
        "mutations": mutations,
        "config_hash": config_hash({"seed": seed, "scale": scale,
                                    "mutations": mutations}),
        "versions": _versions(),
        "criteria": results,
        "all_passed": all(c["passed"] for c in results),
        "wall_clock_s": time.perf_counter() - started,
    }
    if outdir is not None:
        os.makedirs(outdir, exist_ok=True)
        _write_json(os.path.join(outdir, "suite_manifest.json"), manifest)
    return manifest


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="volterra-spde",
        description="Volterra-driven SPDE simulation and verification suite")
    parser.add_argument("command", choices=_HANDLERS)
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--set", action="append", default=[], metavar="K=V",
                        dest="overrides",
                        help="override a config leaf by dotted path")
    parser.add_argument("--output", help="output directory "
                        f"(default ${_ENV_OUTDIR} or ./volterra_spde_out)")
    parser.add_argument("--seed", type=int, help="override mc.seed")
    args = parser.parse_args(argv)
    try:
        text = ""
        if args.config:
            with open(args.config) as fh:
                text = fh.read()
        cfg = parse_config(text)
        cfg["command"] = args.command
        for assignment in args.overrides:
            apply_override(cfg, assignment)
        if args.seed is not None:
            cfg["mc"]["seed"] = args.seed
        if args.output is not None:
            cfg["output"]["directory"] = args.output
    except (ConfigurationError, ParameterError, OSError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
