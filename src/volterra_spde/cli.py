"""Batch entry point: config parsing, orchestration, manifests.

One JSON document configures a run; any leaf can be overridden on the
command line with ``--set dotted.path=value``.  Every command writes its
artifacts (CSV at 17 significant digits, JSON reports) plus a manifest
recording the config hash, seed, library versions, wall clock, and each
pass/fail verdict.  Exit codes: 0 all verdicts pass, 2 validation error,
3 numeric/convergence failure, 4 criterion failure.

Control flow is single threaded.  Replica blocks and the BLAS kernels
underneath provide the parallelism; every module contract is worker
count independent, so manifests do not depend on thread counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .chaos import hermite, hypercontractivity_sweep, moment_ratio, moment_ratio_stderr
from .errors import (AdmissibilityError, ConfigurationError, NumericError,
                     ParameterError, TruncationError)
from .kernels import (calibrate_C_H, covariance_quadrature,
                      fbm_constant_closed_form, fbm_covariance_closed_form,
                      make_fbm_kernel)
from .processes import (RosenblattSampler, TimeGrid, simulate_cylindrical,
                        simulate_fbm, simulate_rosenblatt, third_moment_oracle)
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
               "p": 2.0, "nu": 0.4},
    "output": {"directory": None, "formats": ["csv", "json"]},
}

_COMMANDS = ("simulate", "isometry", "chaos", "gamma-decay", "solve",
             "factorize", "regularity", "full-suite")


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


def validate_config(cfg: dict) -> None:
    """Check every admissibility condition, naming the violated inequality."""
    if cfg["command"] not in _COMMANDS:
        raise ConfigurationError(
            f"command {cfg['command']!r} not one of {_COMMANDS}")
    drv, mdl, nz, mc, gr = (cfg["driver"], cfg["model"], cfg["noise"],
                            cfg["mc"], cfg["grids"])
    if drv["family"] not in ("fbm", "rosenblatt"):
        raise ConfigurationError(f"driver.family {drv['family']!r} unknown")
    if not 0.5 < drv["H"] < 1.0:
        raise ParameterError(
            f"driver.H must satisfy 1/2 < H < 1, got {drv['H']}")
    if mdl["L"] <= 0:
        raise ParameterError(f"model.L must satisfy L > 0, got {mdl['L']}")
    if mdl["m"] < 1 or mdl["modes"] < 1:
        raise ParameterError("model.m and model.modes must satisfy m, modes >= 1")
    if mdl["nodes"] < mdl["modes"]:
        raise ParameterError(
            f"model.nodes must satisfy nodes >= modes, got "
            f"{mdl['nodes']} < {mdl['modes']}")
    if nz["kind"] not in ("diagonal", "pointwise"):
        raise ConfigurationError(f"noise.kind {nz['kind']!r} unknown")
    if nz["kind"] == "pointwise":
        z = mdl["L"] / 2.0 if nz["z"] is None else nz["z"]
        if not 0.0 <= z <= mdl["L"]:
            raise ParameterError(
                f"noise.z must satisfy 0 <= z <= L, got z={z}, L={mdl['L']}")
    if nz["p"] < 1.0:
        raise ParameterError(f"noise.p must satisfy p >= 1, got {nz['p']}")
    if mc["replicas"] < 1:
        raise ParameterError("mc.replicas must satisfy replicas >= 1")
    if gr["T"] <= 0 or gr["n_steps"] < 1:
        raise ParameterError("grids require T > 0 and n_steps >= 1")
    if cfg["command"] in ("factorize", "regularity"):
        p = cfg["params"]
        HolderParameters(alpha=p["alpha"], gamma=p["gamma"], delta=p["delta"],
                         beta=p["beta"], p=p["p"], nu=p["nu"])


def _versions() -> dict:
    import scipy
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "volterra_spde": __version__}


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


def _driver_params(cfg: dict) -> tuple[str, dict]:
    drv = cfg["driver"]
    if drv["family"] == "fbm":
        return "fbm", {"H": drv["H"]}
    return "rosenblatt", {"Hp": drv["H"], "trunc": drv["truncation"],
                          "inner": drv["inner"], "check": drv["certify"]}


# ---------------------------------------------------------------------------
# subcommands: each returns (verdicts, artifacts, details)
# ---------------------------------------------------------------------------

def _cmd_simulate(cfg, outdir):
    gr, mc, drv = cfg["grids"], cfg["mc"], cfg["driver"]
    grid = TimeGrid.regular(gr["T"], gr["n_steps"])
    H = drv["H"]
    if drv["family"] == "fbm":
        ens = simulate_fbm(H, grid, replicas=mc["replicas"], seed=mc["seed"])
    else:
        ens = simulate_rosenblatt(H, grid, trunc=drv["truncation"],
                                  inner=drv["inner"], replicas=mc["replicas"],
                                  seed=mc["seed"], check=drv["certify"])
    artifacts = []
    if "csv" in cfg["output"]["formats"]:
        path = os.path.join(outdir, "ensemble.csv")
        ens.to_csv(path)
        artifacts.append("ensemble.csv")
    idx = np.unique(np.linspace(1, grid.n_steps, 5).astype(int))
    ts = grid.points[idx]
    vals = ens.values[:, idx]
    emp = vals.T @ vals / vals.shape[0]
    exact = fbm_covariance_closed_form(H, ts[:, None], ts[None, :])
    se = np.sqrt(np.var(vals[:, :, None] * vals[:, None, :], axis=0)
                 / vals.shape[0])
    dev = np.abs(emp - exact)
    tol = np.maximum(3.0 * se, 0.02 * np.abs(exact))
    ok = bool(np.all(dev <= tol))
    report = {"family": drv["family"], "H": H, "times": ts.tolist(),
              "max_abs_dev": float(np.max(dev)),
              "worst_margin": float(np.max(dev - tol)),
              "covariance_ok": ok}
    _write_json(os.path.join(outdir, "covariance_check.json"), report)
    artifacts.append("covariance_check.json")
    return {"covariance": ok}, artifacts, report


def _cmd_isometry(cfg, outdir):
    mc, gr = cfg["mc"], cfg["grids"]
    H = cfg["driver"]["H"]
    kern = make_fbm_kernel(H)
    grid = TimeGrid.regular(gr["T"], min(gr["n_steps"], 256))
    ens = simulate_fbm(H, grid, replicas=mc["replicas"], seed=mc["seed"])
    rng = np.random.default_rng(child_seed(mc["seed"], STREAM_TEST, 2))
    phis = [StepFunction(breakpoints=np.array([0.0, grid.T]),
                         values=np.array([0.0]))]
    phis += [random_step_function(grid.T, int(rng.integers(3, 9)), rng,
                                  times=grid.points)
             for _ in range(mc["n_phi"])]
    rows, all_ok = [], True
    for j, phi in enumerate(phis):
        norms = compute_norms(phi, kern)
        I = elementary_integral(phi, ens)
        mc_var = float(np.mean(I * I))
        if norms.isometry_norm_sq == 0.0:
            ok = mc_var == 0.0
            rows.append({"phi": j, "exact_zero": True, "mc_var": mc_var,
                         "ok": ok})
        else:
            se = float(np.std(I * I) / np.sqrt(I.size))
            z = (mc_var - norms.isometry_norm_sq) / se
            cross = abs(norms.isometry_norm_sq - norms.fbm_inner_sq) \
                / norms.fbm_inner_sq
            ok = abs(z) <= 3.0 and cross <= 1e-3
            rows.append({"phi": j, "mc_var": mc_var,
                         "norm_sq": norms.isometry_norm_sq, "z": z,
                         "cross_rel": cross, "ok": ok})
        all_ok &= ok
    report = {"H": H, "replicas": mc["replicas"], "checks": rows,
              "isometry_ok": all_ok}
    _write_json(os.path.join(outdir, "isometry.json"), report)
    return {"isometry": all_ok}, ["isometry.json"], report


def _cmd_chaos(cfg, outdir):
    mc = cfg["mc"]
    det = _crit_hypercontractivity(mc["seed"], 1.0,
                                   replicas=max(mc["replicas"], 2000))
    _write_json(os.path.join(outdir, "chaos.json"), det["details"])
    return {"hypercontractivity": det["passed"]}, ["chaos.json"], det["details"]


def _cmd_gamma_decay(cfg, outdir):
    mdl = cfg["model"]
    model = build_model(mdl["L"], mdl["m"], mdl["modes"], mdl["nodes"])
    noise = _noise_from(cfg, model)
    u_grid = np.geomspace(1e-4, 1e-2, 13)
    res = estimate_gamma_decay(model, noise, cfg["noise"]["p"], u_grid,
                               alpha=cfg["params"]["alpha"])
    ok = bool(res["admissible"] and res["r_squared"] >= 0.99
              and not res["fit_warning"])
    report = {"gamma_hat": res["gamma_hat"], "admissible": res["admissible"],
              "r_squared": res["r_squared"], "fit_warning": res["fit_warning"],
              "u_grid": u_grid.tolist(), "norms": list(res["norms"]),
              "decay_ok": ok}
    _write_json(os.path.join(outdir, "gamma_decay.json"), report)
    return {"gamma_decay": ok}, ["gamma_decay.json"], report


def _cmd_solve(cfg, outdir):
    mdl, gr, mc = cfg["model"], cfg["grids"], cfg["mc"]
    model = build_model(mdl["L"], mdl["m"], mdl["modes"], mdl["nodes"])
    noise = _noise_from(cfg, model)
    grid = TimeGrid.regular(gr["T"], gr["n_steps"])
    family, params = _driver_params(cfg)
    if noise.kind == "pointwise":
        driver = (simulate_fbm(params["H"], grid, mc["replicas"], mc["seed"])
                  if family == "fbm" else
                  simulate_rosenblatt(params["Hp"], grid, params["trunc"],
                                      params["inner"], replicas=mc["replicas"],
                                      seed=mc["seed"], check=params["check"]))
    else:
        driver = simulate_cylindrical(family, params, model.modes, grid,
                                      mc["replicas"], mc["seed"])
    field = solve_mild(model, noise, driver, None, grid, gr["refinement"])
    artifacts = []
    if "csv" in cfg["output"]["formats"]:
        path = os.path.join(outdir, "solution_snapshot.csv")
        field.snapshot_to_csv(path, times=[grid.T])
        artifacts.append("solution_snapshot.csv")
    c = noise.mode_coefficients(model)
    H = cfg["driver"]["H"]
    rows, all_ok = [], True
    for k in [k for k in (0, 3, 15) if k < model.modes]:
        x = field.mode_paths[:, k, -1]
        mc_var = float(np.mean(x * x))
        oracle = c[k] ** 2 * per_mode_variance_oracle(
            model.eigenvalues[k], grid.T, H)
        if oracle == 0.0:
            ok = bool(np.max(np.abs(x)) <= 1e-12)
            rows.append({"mode": k + 1, "exact_zero": True, "ok": ok})
        else:
            se = float(np.std(x * x) / np.sqrt(x.size))
            ok = abs(mc_var - oracle) <= max(3.0 * se, 0.02 * oracle)
            rows.append({"mode": k + 1, "mc_var": mc_var, "oracle": oracle,
                         "rel_dev": abs(mc_var / oracle - 1.0), "ok": ok})
        all_ok &= ok
    report = {"modes_checked": [r["mode"] for r in rows], "checks": rows,
              "variance_ok": all_ok, "metadata": field.metadata}
    _write_json(os.path.join(outdir, "solve.json"), report)
    artifacts.append("solve.json")
    return {"per_mode_variance": all_ok}, artifacts, report


def _cmd_factorize(cfg, outdir):
    mdl, gr, mc, prm = cfg["model"], cfg["grids"], cfg["mc"], cfg["params"]
    model = build_model(mdl["L"], mdl["m"], mdl["modes"], mdl["nodes"])
    noise = _noise_from(cfg, model)
    grid = TimeGrid.regular(gr["T"], gr["n_steps"])
    family, params = _driver_params(cfg)
    driver = simulate_cylindrical(family, params, model.modes, grid,
                                  mc["replicas"], mc["seed"])
    direct = solve_mild(model, noise, driver, None, grid, gr["refinement"])
    recon = factorization_reconstruct(model, noise, driver, prm["beta"],
                                      prm["delta"], grid, prm["alpha"])
    a = direct.mode_paths[:, :, -1]
    b = recon.mode_paths[:, :, -1]
    rel = float(np.sqrt(np.mean(np.sum((a - b) ** 2, axis=1))
                        / np.mean(np.sum(a * a, axis=1))))
    pi_val = factorization_constant_check(0.5, 0.3 * grid.T, grid.T)
    pi_err = abs(pi_val / np.pi - 1.0)
    ok = rel < 0.03 and pi_err <= 1e-6
    report = {"beta": prm["beta"], "delta": prm["delta"],
              "relative_l2_error": rel, "pi_identity_value": pi_val,
              "pi_identity_rel_error": pi_err, "round_trip_ok": ok}
    _write_json(os.path.join(outdir, "factorize.json"), report)
    return {"factorization": ok}, ["factorize.json"], report


def _cmd_regularity(cfg, outdir):
    mdl, gr, mc, prm = cfg["model"], cfg["grids"], cfg["mc"], cfg["params"]
    model = build_model(mdl["L"], mdl["m"], mdl["modes"], mdl["nodes"])
    noise = _noise_from(cfg, model)
    grid = TimeGrid.regular(gr["T"], gr["n_steps"])
    family, params = _driver_params(cfg)
    delta = prm["delta"]
    vg = field_variogram(model, noise, family, params, grid,
                         max(mc["replicas"], 1000), mc["seed"],
                         lags=gr["lags"], deltas=(delta,),
                         refinement=gr["refinement"])[0]
    # gamma-hat needs the semigroup tail resolved at the smallest probe
    # time; a small field model would bias the decay flat, so the probe
    # uses at least 256 modes unless the noise pins the mode count
    if isinstance(cfg["noise"]["phi_rule"], list) or mdl["modes"] >= 256:
        probe_model, probe_noise = model, noise
    else:
        probe_model = build_model(mdl["L"], mdl["m"], 256, 1024)
        probe_noise = _noise_from(cfg, probe_model)
    decay = estimate_gamma_decay(probe_model, probe_noise, cfg["noise"]["p"],
                                 np.geomspace(1e-4, 1e-2, 13),
                                 alpha=prm["alpha"])
    case = "pointwise" if noise.kind == "pointwise" else "generic"
    hp = HolderParameters(alpha=prm["alpha"], gamma=decay["gamma_hat"],
                          delta=delta, beta=prm["beta"], p=cfg["noise"]["p"],
                          nu=prm["nu"])
    report = regularity_verdict(vg, hp, case,
                                config={"model": mdl, "noise": cfg["noise"],
                                        "grid": {"T": gr["T"],
                                                 "n_steps": gr["n_steps"]},
                                        "delta": delta, "family": family,
                                        "replicas": max(mc["replicas"], 1000),
                                        "gamma_hat": decay["gamma_hat"]})
    report.to_json(os.path.join(outdir, "regularity_report.json"))
    artifacts = ["regularity_report.json"]
    if "csv" in cfg["output"]["formats"]:
        _variogram_csv(os.path.join(outdir, "variogram.csv"), vg)
        artifacts.append("variogram.csv")
    detail = {"measured": report.measured_exponent, "se": report.measured_se,
              "predicted": report.predicted_bound, "verdict": report.verdict}
    return {"regularity": report.verdict}, artifacts, detail


def _cmd_full_suite(cfg, outdir):
    manifest = full_suite(cfg["mc"]["seed"], outdir=None,
                          scale=cfg["mc"].get("scale", 1.0))
    _write_json(os.path.join(outdir, "suite_manifest.json"), manifest)
    verdicts = {f"criterion_{c['criterion']}": c["passed"]
                for c in manifest["criteria"]}
    return verdicts, ["suite_manifest.json"], {"all_passed": manifest["all_passed"]}


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
    outdir = cfg["output"]["directory"] or os.environ.get(
        _ENV_OUTDIR, "volterra_spde_out")
    os.makedirs(outdir, exist_ok=True)
    started = time.perf_counter()
    try:
        validate_config(cfg)
        verdicts, artifacts, _ = _HANDLERS[cfg["command"]](cfg, outdir)
    except (ConfigurationError, ParameterError, AdmissibilityError) as exc:
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
                         "ok": ok}
        passed &= ok
    return {"criterion": 1, "name": "kernel_covariance", "passed": bool(passed),
            "details": {"grid": "10x10 in [0.1,1]^2", "c_h_scale": c_h_scale,
                        "per_H": per_H}}


def _crit_isometry(seed, scale):
    H = 0.75
    kern = make_fbm_kernel(H)
    grid = TimeGrid.regular(1.0, 256)
    reps = max(2000, int(round(10000 * scale)))
    n_phi = 20 if scale >= 1 else 8
    ens = simulate_fbm(H, grid, replicas=reps, seed=child_seed(seed, STREAM_TEST, 2))
    rng = np.random.default_rng(child_seed(seed, STREAM_TEST, 2, 1))
    worst_z = worst_cross = 0.0
    passed = True
    for _ in range(n_phi):
        phi = random_step_function(1.0, int(rng.integers(3, 9)), rng,
                                   times=grid.points)
        norms = compute_norms(phi, kern)
        I = elementary_integral(phi, ens)
        mc_var = float(np.mean(I * I))
        se = float(np.std(I * I) / np.sqrt(I.size))
        z = abs(mc_var - norms.isometry_norm_sq) / se
        cross = abs(norms.isometry_norm_sq / norms.fbm_inner_sq - 1.0)
        worst_z, worst_cross = max(worst_z, z), max(worst_cross, cross)
        passed &= z <= 3.0 and cross <= 1e-3
    return {"criterion": 2, "name": "isometry", "passed": bool(passed),
            "details": {"replicas": reps, "n_phi": n_phi,
                        "worst_z": worst_z, "worst_cross_rel": worst_cross}}


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
    m2 = float(np.mean(zT * zT))
    se2 = float(np.std(zT * zT) / np.sqrt(reps))
    var_ok = abs(m2 - 1.0) <= max(3.0 * se2, 0.02)
    ts = grid.points[1:]
    emp = z[:, 1:].T @ z[:, 1:] / reps
    exact = fbm_covariance_closed_form(Hp, ts[:, None], ts[None, :])
    se_entry = np.sqrt(np.var(z[:, 1:, None] * z[:, None, 1:], axis=0) / reps)
    cov_ok = bool(np.all(np.abs(emp - exact)
                         <= np.maximum(3.0 * se_entry, 0.02 * exact)))
    m3 = float(np.mean(zT ** 3))
    se3 = float(np.std(zT ** 3) / np.sqrt(reps))
    oracle3 = third_moment_oracle(Hp, T, inner=1024, trunc=2.0e5)
    third_ok = abs(m3 - oracle3) <= max(5.0 * se3, 0.05 * oracle3)
    drifts = sampler.convergence_drifts if certify else None
    cert_ok = True if not certify else all(
        abs(v) < 0.02 for v in drifts.values())
    passed = var_ok and cov_ok and third_ok and cert_ok
    return {"criterion": 3, "name": "rosenblatt_construction",
            "passed": bool(passed),
            "details": {"replicas": reps, "second_moment": m2,
                        "second_moment_se": se2, "variance_ok": var_ok,
                        "covariance_ok": cov_ok, "third_moment": m3,
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
        checks[name] = {"ratio": ratio, "target": target, "se": se, "ok": ok}
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
    u_grid = np.geomspace(1e-4, 1e-2, 13)
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
        res = estimate_gamma_decay(model, noise, p, u_grid, alpha=0.25)
        ok = (abs(res["gamma_hat"] - target) <= 0.03
              and res["r_squared"] >= 0.99 and res["admissible"])
        per_case[name] = {"gamma_hat": res["gamma_hat"], "target": target,
                          "r_squared": res["r_squared"], "ok": ok}
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
            drv = simulate_cylindrical(fam, params, 16, grid, reps,
                                       child_seed(seed, STREAM_TEST, 6, jh))
            field = solve_mild(model, noise, drv, None, grid, refinement=256)
            worst = 0.0
            ok = True
            for k in (0, 3, 15):
                x = field.mode_paths[:, k, -1]
                mc_var = float(np.mean(x * x))
                oracle = per_mode_variance_oracle(model.eigenvalues[k], 1.0, H)
                se = float(np.std(x * x) / np.sqrt(reps))
                tol = max(3.0 * se, 0.02 * oracle)
                worst = max(worst, abs(mc_var - oracle) / tol)
                ok &= abs(mc_var - oracle) <= tol
            per_combo[f"{fam}_H{H:g}"] = {"worst_dev_over_tol": worst, "ok": ok}
            passed &= ok
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
    driver = simulate_cylindrical("fbm", {"H": 0.75}, 16, grid, reps,
                                  child_seed(seed, STREAM_TEST, 7))
    direct = solve_mild(model, noise, driver, None, grid, refinement=64)
    a = direct.mode_paths[:, :, -1]
    denom = float(np.mean(np.sum(a * a, axis=1)))
    combos = [(0.1, 0.0), (0.1, 0.2), (0.2, 0.0), (0.2, 0.2)]
    if scale < 1:
        combos = [(0.1, 0.0), (0.2, 0.2)]
    per_combo, passed = {}, True
    for beta, delta in combos:
        recon = factorization_reconstruct(model, noise, driver, beta, delta,
                                          grid, alpha=0.25)
        b = recon.mode_paths[:, :, -1]
        rel = float(np.sqrt(np.mean(np.sum((a - b) ** 2, axis=1)) / denom))
        ok = rel < 0.03
        per_combo[f"beta{beta:g}_delta{delta:g}"] = {"rel_error": rel, "ok": ok}
        passed &= ok
    pi_val = factorization_constant_check(0.5, 0.3, 1.0)
    pi_err = abs(pi_val / np.pi - 1.0)
    pi_ok = pi_err <= 1e-6
    passed &= pi_ok
    return {"criterion": 7, "name": "factorization", "passed": bool(passed),
            "details": {"replicas": reps, "per_combo": per_combo,
                        "pi_identity_rel_error": pi_err, "pi_ok": pi_ok}}


def _crit_regularity(seed, scale):
    from .regularity import default_bases, default_lags
    reps = max(1000, int(round(1000 * scale)))
    per_case, passed = {}, True
    u_grid = np.geomspace(1e-4, 1e-2, 13)

    if scale >= 1:
        n_abs, modes_abs = 4096, 192
    else:
        n_abs, modes_abs = 2048, 96
    model = build_model(np.pi, 1, modes_abs, 4 * modes_abs)
    noise = NoiseOperator(kind="diagonal", phi_k=np.ones(modes_abs))
    grid = TimeGrid.regular(1.0, n_abs)
    lags = default_lags(n_abs)
    bases = default_bases(n_abs, max(lags))
    gamma_hat = estimate_gamma_decay(model, noise, 2.0, u_grid,
                                     alpha=0.25)["gamma_hat"]
    vg = field_variogram(model, noise, "fbm", {"H": 0.75}, grid, reps,
                         child_seed(seed, STREAM_TEST, 8), lags=lags,
                         bases=bases, deltas=(0.0, 0.2), refinement=256)
    for res, target in zip(vg, (0.5, 0.3)):
        d = res["delta"]
        oracle = oracle_variogram_exponent(model, noise, 0.75, grid, lags,
                                           bases, delta=d)["exponent"]
        hp = HolderParameters(alpha=0.25, gamma=gamma_hat, delta=d)
        rep = regularity_verdict(res, hp, "generic", oracle_exponent=oracle)
        ok = rep.verdict and abs(res["exponent"] - target) <= 0.05
        per_case[f"distributed_delta{d:g}"] = {
            "measured": res["exponent"], "se": res["se"], "target": target,
            "oracle": oracle, "predicted": rep.predicted_bound, "ok": ok}
        passed &= ok

    n_pt, modes_pt = (2048, 64) if scale >= 1 else (1024, 32)
    model_pt = build_model(np.pi, 1, modes_pt, 4 * modes_pt)
    noise_pt = NoiseOperator(kind="pointwise", z=np.pi / 2.0)
    grid_pt = TimeGrid.regular(1.0, n_pt)
    gam_pt = estimate_gamma_decay(model_pt, noise_pt, 2.0, u_grid,
                                  alpha=0.25)["gamma_hat"]
    vg_pt = field_variogram(model_pt, noise_pt, "fbm", {"H": 0.75}, grid_pt,
                            reps, child_seed(seed, STREAM_TEST, 8, 1),
                            refinement=256)[0]
    hp_pt = HolderParameters(alpha=0.25, gamma=gam_pt, p=2.0)
    rep_pt = regularity_verdict(vg_pt, hp_pt, "pointwise")
    per_case["pointwise_p2"] = {
        "measured": vg_pt["exponent"], "se": vg_pt["se"],
        "predicted": rep_pt.predicted_bound, "ok": rep_pt.verdict,
        "extras": rep_pt.extras}
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
            "gap": gap, "tol_2se": float(tol), "ok": twin_ok}
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
            "embedding_constant": float(np.max(emb)), "ok": ok}
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
    parser.add_argument("command", choices=_COMMANDS)
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
