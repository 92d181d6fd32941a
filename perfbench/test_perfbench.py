"""Tests of the benchmark itself, on sizes far below the benchmark's.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import workloads  # noqa: E402
from spans import TARGETS, Tracer  # noqa: E402
from volterra_spde import cli, processes, regularity, spde  # noqa: E402

TINY = {
    "variogram-stream": {"modes": 64, "nodes": 256, "n_steps": 256,
                         "replicas": 1000, "refinement": 64},
    "solve-cli": {"model.modes": 16, "model.nodes": 64, "mc.replicas": 200,
                  "grids.n_steps": 64},
    "rosenblatt-drive": {"modes": 16, "nodes": 64, "n_steps": 512,
                         "replicas": 200, "refinement": 256,
                         "trunc": 2.0e5, "inner": 256},
}


def run_tiny(name, tmp_path, tracer=None):
    build, execute = workloads.WORKLOADS[name]
    inputs = build(7, TINY[name], str(tmp_path))
    if tracer is None:
        return execute(inputs)
    tracer.install()
    try:
        return tracer.wrap("workload", execute)(inputs)
    finally:
        tracer.uninstall()


def lookup_sites():
    """Every place a traced callable is looked up, with what it holds."""
    import volterra_spde
    mods = [m for n, m in sys.modules.items()
            if n == "volterra_spde" or n.startswith("volterra_spde.")]
    held = {}
    for _, module, attr, cls, _, _ in TARGETS:
        mod = getattr(volterra_spde, module)
        if cls is not None:
            owner = getattr(mod, cls)
            held[(owner, attr)] = vars(owner)[attr]
            continue
        original = getattr(mod, attr)
        for m in mods:
            for a, v in vars(m).items():
                if v is original:
                    held[(m, a)] = v
    return held


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_checks_pass(name, tmp_path):
    checks = run_tiny(name, tmp_path)
    assert len(checks) == workloads.CHECKS[name]
    assert all(c["ok"] for c in checks), checks
    assert os.listdir(tmp_path) == []      # solve-cli removed its output


def test_self_times_sum_to_parent_duration(tmp_path):
    tracer = Tracer("test")
    run_tiny("rosenblatt-drive", tmp_path, tracer)
    spans, own = tracer.spans, tracer.self_times()
    assert spans[0][0] == "workload" and spans[0][3] == -1
    children = {}
    for i, (_, _, _, parent) in enumerate(spans):
        children.setdefault(parent, []).append(i)

    def subtree_self(i):
        return own[i] + sum(subtree_self(c) for c in children.get(i, []))

    for i, (name, start, end, _) in enumerate(spans):
        if i in children:
            assert subtree_self(i) == pytest.approx(end - start, abs=1e-9), name
    assert all(t >= 0.0 for t in own)
    metrics = tracer.layer_metrics()
    assert sum(v for k, v in metrics.items() if k.endswith("_s")) == \
        pytest.approx(spans[0][2] - spans[0][1], abs=1e-9)


def test_traced_run_records_every_layer_it_calls(tmp_path):
    tracer = Tracer("test")
    run_tiny("solve-cli", tmp_path, tracer)
    m = tracer.layer_metrics()
    # substream is looked up in processes and solve_mild in cli: both seen
    assert m["seeding.substream_calls"] == 16 * 200
    assert m["processes.fbm_draw_calls"] == 16
    assert m["processes.fbm_draw_gflop"] == pytest.approx(16 * 2 * 200 * 64 * 64 / 1e9)
    assert m["processes.fbm_factor_mib"] == 64 * 64 * 8 / 2**20
    assert m["spde.mode_convolution_calls"] == 16
    assert m["spde.per_mode_variance_oracle_calls"] == 3
    assert m["spde.snapshot_csv_mib"] > 0.0
    assert m["cli.run_s"] > 0.0 and m["spde.solve_mild_s"] > 0.0


def test_wrappers_gone_after_traced_run(tmp_path):
    before = lookup_sites()
    tracer = Tracer("test")
    tracer.install()
    assert all(getattr(owner, attr) is not orig
               for (owner, attr), orig in before.items())
    tracer.uninstall()
    run_tiny("variogram-stream", tmp_path, Tracer("test"))
    assert lookup_sites() == before
    assert processes.substream is before[(processes, "substream")]


def test_check_fed_wrong_oracle_fails():
    x = np.random.default_rng(0).standard_normal(4000)
    assert workloads.variance_check("v", x, 1.0)["ok"]
    assert not workloads.variance_check("v", x, 1.2)["ok"]
    assert workloads.exponent_check("e", 0.50, 0.52)["ok"]
    assert not workloads.exponent_check("e", 0.50, 0.56)["ok"]


def test_workloads_fail_on_wrong_oracles(tmp_path, monkeypatch):
    true_var = spde.per_mode_variance_oracle
    monkeypatch.setattr(spde, "per_mode_variance_oracle",
                        lambda *a, **k: 3.0 * true_var(*a, **k))
    monkeypatch.setattr(cli, "per_mode_variance_oracle",
                        spde.per_mode_variance_oracle)
    for name in ("rosenblatt-drive", "solve-cli"):
        checks = run_tiny(name, tmp_path)
        assert sum(not c["ok"] for c in checks) == 3, (name, checks)

    true_exp = regularity.oracle_variogram_exponent

    def shifted(*a, **k):
        res = true_exp(*a, **k)
        return dict(res, exponent=res["exponent"] + 0.1)

    monkeypatch.setattr(regularity, "oracle_variogram_exponent", shifted)
    checks = run_tiny("variogram-stream", tmp_path)
    assert [c["name"] for c in checks if not c["ok"]] == [
        "exponent_vs_oracle_delta0", "exponent_vs_oracle_delta0.2"]


def test_workload_that_raises_fails_every_check():
    checks = workloads.failed_checks("rosenblatt-drive", ValueError("boom"))
    assert len(checks) == 4 and not any(c["ok"] for c in checks)


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-cli",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_names_every_traced_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    produced = {f"{name}_s" for name, *_, timed in TARGETS if timed}
    produced |= {f"{name}_calls" for name, *_ in TARGETS}
    produced |= {"processes.fbm_factor_mib", "processes.fbm_draw_gflop",
                 "processes.rosenblatt_draw_gflop", "spde.snapshot_csv_mib",
                 "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} <= produced
