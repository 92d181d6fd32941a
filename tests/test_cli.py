"""Config plumbing and the command runner's exit-code contract.

Exit codes: 0 success, 2 invalid configuration, 3 numeric failure with a
certificate, 4 completed run whose verdicts include a FAIL.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import volterra_spde
from volterra_spde import cli
from volterra_spde.cli import (DEFAULT_SEED, _crit_hypercontractivity,
                               _factorization_check, _solve_check,
                               apply_override, config_hash, main,
                               parse_config, run, serialize_config,
                               validate_config)
from volterra_spde.errors import ConfigurationError, ParameterError
from volterra_spde.processes import TimeGrid
from volterra_spde.spde import NoiseOperator, build_model


def _cfg(*overrides):
    cfg = parse_config("")
    for o in overrides:
        apply_override(cfg, o)
    return cfg


# ---------------------------------------------------------------------------
# parsing, overrides, hashing
# ---------------------------------------------------------------------------

def test_defaults_and_parse_errors():
    cfg = parse_config("")
    assert cfg["command"] == "simulate"
    assert cfg["mc"]["seed"] == DEFAULT_SEED
    assert cfg["driver"]["H"] == 0.75
    partial = parse_config('{"mc": {"replicas": 50}}')
    assert partial["mc"]["replicas"] == 50
    assert partial["mc"]["seed"] == DEFAULT_SEED
    with pytest.raises(ConfigurationError):
        parse_config('{"bogus": 1}')
    with pytest.raises(ConfigurationError):
        parse_config('{"mc": 3}')
    with pytest.raises(ConfigurationError):
        parse_config("not json {")
    with pytest.raises(ConfigurationError):
        parse_config("[1, 2]")


def test_serialize_round_trip():
    cfg = _cfg("mc.replicas=123", "driver.H=0.8")
    assert parse_config(serialize_config(cfg)) == cfg
    assert serialize_config(cfg).endswith("\n")


def test_override_typing():
    cfg = parse_config("")
    apply_override(cfg, "mc.replicas=500")
    assert cfg["mc"]["replicas"] == 500
    apply_override(cfg, "driver.certify=true")
    assert cfg["driver"]["certify"] is True
    apply_override(cfg, "noise.phi_rule=[1.0, 0.5]")
    assert cfg["noise"]["phi_rule"] == [1.0, 0.5]
    apply_override(cfg, "output.directory=/tmp/out")   # bare string stays raw
    assert cfg["output"]["directory"] == "/tmp/out"
    with pytest.raises(ConfigurationError):
        apply_override(cfg, "mc.bogus=1")
    with pytest.raises(ConfigurationError):
        apply_override(cfg, "nope.deep.path=1")
    with pytest.raises(ConfigurationError):
        apply_override(cfg, "no-equals-sign")


def test_config_hash_is_stable_and_sensitive():
    a, b = parse_config(""), parse_config("")
    assert config_hash(a) == config_hash(b)
    assert len(config_hash(a)) == 16
    apply_override(b, "mc.seed=1")
    assert config_hash(a) != config_hash(b)


def test_validation_names_the_inequality():
    with pytest.raises(ParameterError, match="driver.H must satisfy"):
        validate_config(_cfg("driver.H=1.3"))
    with pytest.raises(ConfigurationError, match="command"):
        validate_config(_cfg('command="explode"'))
    with pytest.raises(ConfigurationError, match="noise.kind"):
        validate_config(_cfg('noise.kind="white"'))
    with pytest.raises(ParameterError, match="nodes"):
        validate_config(_cfg("model.modes=300"))
    with pytest.raises(ConfigurationError, match="orthonormal"):
        validate_config(_cfg("model.L=Infinity"))
    # factorize pulls in the exponent bundle constraints
    with pytest.raises(ParameterError, match="beta"):
        validate_config(_cfg('command="factorize"', "params.beta=0.7",
                             "params.delta=0.2"))
    validate_config(_cfg())
    # only factorize reads beta, so only factorize checks it
    for command in ("regularity", "gamma-decay"):
        validate_config(_cfg(f'command="{command}"', "params.beta=0.7",
                             "params.delta=0.2"))


# ---------------------------------------------------------------------------
# runner exit codes and artifacts
# ---------------------------------------------------------------------------

def test_run_invalid_config_exits_2(tmp_path):
    cfg = _cfg("driver.H=1.3", f"output.directory={tmp_path}")
    assert run(cfg) == 2
    err = json.loads((tmp_path / "error.json").read_text())
    assert err["error"] == "ParameterError"
    assert "driver.H" in err["message"]
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("overrides, message", [
    (["model.nodes=100"], "nodes >= 4*modes"),
    (['noise.kind="pointwise"', "noise.z=0"], "z=0.0 outside"),
    (['driver.family="rosenblatt"', "driver.inner=8"], "inner resolution"),
    (['command="isometry"', "mc.n_phi=0"], "n_phi >= 1"),
    (['command="isometry"', "mc.n_phi=-3"], "n_phi >= 1"),
])
def test_run_handler_precondition_exits_2(tmp_path, overrides, message):
    # library preconditions: the validator builds the model and noise
    # coefficients, the handler builds the sampler; either refusal is a
    # configuration error
    cfg = _cfg('command="solve"', "mc.replicas=10", "grids.n_steps=16",
               *overrides, f"output.directory={tmp_path}")
    assert run(cfg) == 2
    err = json.loads((tmp_path / "error.json").read_text())
    assert err["error"] == "ParameterError"
    assert message in err["message"]
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("command, override, error", [
    ("solve", 'driver.H="abc"', "ConfigurationError"),
    ("solve", "mc.replicas=2.5", "ConfigurationError"),
    ("gamma-decay", "noise.phi_rule=[1.0, 0.5]", "AlignmentError"),
    ("simulate", 'output.formats=["cvs"]', "ConfigurationError"),
])
def test_run_wrong_type_or_length_exits_2(tmp_path, command, override, error):
    cfg = _cfg(f'command="{command}"', "mc.replicas=10", "grids.n_steps=16",
               override, f"output.directory={tmp_path}")
    assert run(cfg) == 2
    assert json.loads((tmp_path / "error.json").read_text())["error"] == error


def test_run_simulate_writes_manifest_and_ensemble(tmp_path):
    cfg = _cfg("mc.replicas=500", "grids.n_steps=128",
               f"output.directory={tmp_path}")
    assert run(cfg) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == DEFAULT_SEED
    assert manifest["config_hash"] == config_hash(cfg)
    assert manifest["verdicts"] == {"covariance": True}
    assert set(manifest["artifacts"]) == {"ensemble.csv",
                                          "covariance_check.json"}
    versions = manifest["versions"]
    assert versions["volterra_spde"] and versions["blas"]
    assert versions["blas_version"]
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        assert versions[name] == os.environ.get(name)
    assert versions["cpu_affinity"] == len(os.sched_getaffinity(0))
    assert manifest["wall_clock_s"] > 0.0
    rows = np.loadtxt(tmp_path / "ensemble.csv", delimiter=",", skiprows=1)
    values = rows[:, 2].reshape(500, 129)
    assert np.all(values[:, 0] == 0.0)
    check = json.loads((tmp_path / "covariance_check.json").read_text())
    assert check["ok"] and check["margin"] <= 1.0


@pytest.mark.parametrize("show_config", [
    lambda: None,                                   # numpy < 1.26: no mode
    lambda mode=None: {"Build Dependencies": {}},   # a build without BLAS
])
def test_versions_without_affinity_or_blas_entry(monkeypatch, show_config):
    # the manifest is still written where the platform or numpy lacks them
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(np, "show_config", show_config)
    versions = cli._versions()
    assert versions["cpu_affinity"] == os.cpu_count()
    assert versions["blas"] is None and versions["blas_version"] is None


def test_run_truncation_failure_exits_3(tmp_path):
    # certified Rosenblatt run at default truncation: the convergence
    # check must refuse rather than deliver biased samples
    cfg = _cfg('driver.family="rosenblatt"', "driver.certify=true",
               "driver.inner=256", "grids.n_steps=64", "mc.replicas=50",
               f"output.directory={tmp_path}")
    assert run(cfg) == 3
    err = json.loads((tmp_path / "error.json").read_text())
    assert err["error"] == "TruncationError"
    assert err["drift"] > 0.02
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert "numeric_failure" in manifest


def test_run_failed_verdict_exits_4(tmp_path):
    # smoothed diagonal coefficients kill the power-law decay, so the
    # gamma fit must flag itself and fail the verdict
    cfg = _cfg('command="gamma-decay"', 'noise.phi_rule="smoothed"',
               f"output.directory={tmp_path}")
    assert run(cfg) == 4
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["verdicts"] == {"gamma_decay": False}
    report = json.loads((tmp_path / "gamma_decay.json").read_text())
    assert report["fit_warning"]
    assert abs(report["gamma_hat"]) < 0.05


@pytest.mark.parametrize("command, overrides", [
    ("isometry", ["mc.replicas=2000", "grids.n_steps=64"]),
    ("factorize", ["model.modes=16", "model.nodes=64", "mc.replicas=50",
                   "grids.n_steps=256"]),
    ("regularity", ["model.modes=16", "model.nodes=64", "grids.n_steps=256"]),
    ("solve", ["model.modes=16", "model.nodes=64", "mc.replicas=200",
               "grids.n_steps=64"]),
    ("gamma-decay", []),
    ("factorize", ['noise.kind="pointwise"', "model.modes=16",
                   "mc.replicas=50", "grids.n_steps=128"]),
    # the default grid: mode 16's lambda dt is 0.5 (at 64 steps it is 4,
    # and the discrete solution's variance sits 31 % below the continuum)
    ("solve", ['noise.kind="pointwise"', "model.modes=16", "model.nodes=64",
               "mc.replicas=200"]),
])
def test_command_runs_its_check_at_config_sizes(tmp_path, command, overrides):
    cfg = _cfg(f'command="{command}"', *overrides,
               f"output.directory={tmp_path}")
    assert run(cfg) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert all((tmp_path / name).exists() for name in manifest["artifacts"])
    reports = [json.loads((tmp_path / name).read_text())
               for name in manifest["artifacts"] if name.endswith(".json")]
    assert reports
    for report in reports:
        assert report["margin"] <= 1.0
        rows = report.get("checks", list(report.get("per_combo", {}).values()))
        assert all("margin" in row for row in rows)


def test_solve_check_holds_one_mode_at_a_time(peak_bytes):
    # the driver and the field would each be one (replicas, modes, N + 1)
    # array if materialized; the streamed check stays far below one
    modes, replicas, n_steps = 32, 400, 256
    model = build_model(np.pi, 1, modes, 128)
    noise = NoiseOperator(kind="diagonal", phi_k=np.ones(modes))
    grid = TimeGrid.regular(1.0, n_steps)
    (field, rows), peak = peak_bytes(
        lambda: _solve_check(model, noise, "fbm", {"H": 0.75}, grid,
                             replicas, 5, 64, 0.75))
    assert peak < replicas * modes * (n_steps + 1) * 8 / 4
    assert field.mode_paths.shape == (replicas, modes, 2)
    assert len(rows) == 3


def test_factorization_check_holds_one_mode_at_a_time(peak_bytes):
    # every beta's route and the direct solve read each mode's one draw
    modes, replicas, n_steps = 32, 400, 256
    model = build_model(np.pi, 1, modes, 128)
    noise = NoiseOperator(kind="diagonal", phi_k=np.ones(modes))
    grid = TimeGrid.regular(1.0, n_steps)
    report, peak = peak_bytes(
        lambda: _factorization_check(model, noise, "fbm", {"H": 0.75}, grid,
                                     replicas, 5, 64,
                                     [(0.1, 0.0), (0.2, 0.0), (0.2, 0.2)]))
    assert peak < replicas * modes * (n_steps + 1) * 8 / 4
    rows = report["per_combo"]
    assert list(rows) == ["beta0.1_delta0", "beta0.2_delta0",
                          "beta0.2_delta0.2"]
    assert report["ok"] and all(r["ok"] for r in rows.values())
    # the delta row weights the high modes, where the route is weakest
    assert rows["beta0.2_delta0.2"]["rel_error"] > \
        rows["beta0.2_delta0"]["rel_error"]


def test_every_hypercontractivity_row_carries_a_margin(tmp_path):
    details = _crit_hypercontractivity(DEFAULT_SEED, 0.15)["details"]
    assert len(details) == 6
    for row in details.values():
        assert (row["margin"] <= 1.0) == row["ok"]
    cfg = _cfg('command="chaos"', f"output.directory={tmp_path}")
    assert run(cfg) == 0
    report = json.loads((tmp_path / "chaos.json").read_text())
    rows = [v for v in report.values() if isinstance(v, dict)]
    assert len(rows) == 6 and report["ok"]
    assert report["margin"] == max(r["margin"] for r in rows) <= 1.0


def test_removed_nu_leaf_is_unknown(tmp_path):
    assert main(["solve", "--set", "params.nu=0.4",
                 "--output", str(tmp_path)]) == 2
    # noise.p is the one p, and gamma is estimated
    for leaf in ("p", "gamma"):
        assert main(["regularity", "--set", f"params.{leaf}=0.25",
                     "--output", str(tmp_path)]) == 2
        with pytest.raises(ConfigurationError, match=f"params.{leaf}"):
            parse_config(json.dumps({"params": {leaf: 0.25}}))


_LEAVES = ["command"] + [f"{section}.{key}"
                         for section, leaves in parse_config("").items()
                         if isinstance(leaves, dict) for key in leaves
                         if f"{section}.{key}" != "output.directory"]
_WRONG_VALUES = st.one_of(
    st.text(max_size=4), st.sampled_from(["rosenblatt", "pointwise", "zero"]),
    st.floats(-10.0, 10.0), st.integers(-10, 10), st.booleans(), st.none(),
    st.lists(st.integers(-10, 10) | st.floats(-10.0, 10.0), max_size=2))


@given(path=st.sampled_from(_LEAVES), value=_WRONG_VALUES)
@settings(max_examples=25, deadline=None)
def test_any_single_override_keeps_the_exit_code_contract(tmp_path_factory,
                                                         path, value):
    # a wrong-typed or out-of-range leaf ends in a documented exit code,
    # never in an exception escaping run()
    outdir = tmp_path_factory.mktemp("override")
    cfg = _cfg('command="solve"', "model.modes=4", "model.nodes=16",
               "mc.replicas=20", "grids.n_steps=16",
               f"output.directory={outdir}")
    apply_override(cfg, f"{path}={json.dumps(value)}")
    code = run(cfg)
    assert code in (0, 2, 3, 4)
    if code in (2, 3):
        assert (outdir / "error.json").exists()


def test_output_directory_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("VOLTERRA_SPDE_OUTPUT", str(tmp_path / "envdir"))
    cfg = _cfg("driver.H=1.3")
    assert cfg["output"]["directory"] is None
    assert run(cfg) == 2
    assert (tmp_path / "envdir" / "error.json").exists()
    # a directory of the wrong type is itself reported there
    assert run(_cfg("output.directory=5")) == 2
    err = json.loads((tmp_path / "envdir" / "error.json").read_text())
    assert "output.directory" in err["message"]


# ---------------------------------------------------------------------------
# argv entry point
# ---------------------------------------------------------------------------

def test_main_applies_flags(tmp_path):
    rc = main(["simulate", "--set", "mc.replicas=500",
               "--set", "grids.n_steps=128",
               "--output", str(tmp_path), "--seed", "7"])
    assert rc == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["seed"] == 7
    assert manifest["config"]["mc"]["replicas"] == 500
    assert manifest["config"]["output"]["directory"] == str(tmp_path)


def test_main_reads_config_file(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"mc": {"replicas": 500}, "grids": {"n_steps": 128}}')
    rc = main(["simulate", "--config", str(cfg_path),
               "--output", str(tmp_path / "out")])
    assert rc == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["config"]["mc"]["replicas"] == 500


def _env_with_src():
    src = os.path.dirname(os.path.dirname(volterra_spde.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_module_entry_point_prints_no_runpy_warning(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "volterra_spde", "gamma-decay",
         "--output", str(tmp_path)],
        env=_env_with_src(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert (tmp_path / "gamma_decay.json").exists()


def test_package_import_loads_no_scipy_signal_or_stats():
    probe = ("import sys, volterra_spde; "
             "print([m for m in ('scipy.signal', 'scipy.stats') "
             "if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", probe], env=_env_with_src(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_every_exported_name_resolves():
    modules = [volterra_spde] + [
        importlib.import_module(f"volterra_spde.{info.name}")
        for info in pkgutil.iter_modules(volterra_spde.__path__)]
    missing = [f"{mod.__name__}.{name}" for mod in modules
               for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_main_rejects_bad_input(tmp_path, capsys):
    assert main(["simulate", "--set", "mc.bogus=1",
                 "--output", str(tmp_path)]) == 2
    assert "validation error" in capsys.readouterr().err
    assert main(["simulate", "--config", str(tmp_path / "missing.json"),
                 "--output", str(tmp_path)]) == 2
    with pytest.raises(SystemExit):
        main(["no-such-command"])
