"""The acceptance gate: ten criteria, one pass/fail line each.

Criteria 1-9 run their registered check at full scale with the default
seed; each prints a single verdict line and fails with the recorded
details if its tolerance is violated.  Criterion 10 reruns the whole
suite at smoke scale to prove byte-identical manifests and to show that
injected faults are caught by exactly the criterion that owns them.

Run ``pytest tests/test_acceptance.py -v -s`` to watch the lines appear;
the full pass takes on the order of ten minutes.
"""

import json
import time

import pytest

from volterra_spde import cli
from volterra_spde.cli import DEFAULT_SEED, full_suite


def _margins(node):
    """Every value under a ``margin`` or ``*_margin`` key, at any depth."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _margins(value)
        elif key == "margin" or str(key).endswith("_margin"):
            yield value


def _report(crit):
    """Run one criterion at full scale; print its verdict, worst margin and
    wall time; fail with its details if it did not pass."""
    started = time.perf_counter()
    res = crit(DEFAULT_SEED, 1.0)
    wall = time.perf_counter() - started
    worst = max(_margins(res["details"]), default=None)
    line = (f"CRITERION {res['criterion']} ({res['name']}): "
            f"{'PASS' if res['passed'] else 'FAIL'} "
            + ("margin n/a" if worst is None else f"worst margin {worst:.4g}")
            + f", {wall:.1f} s")
    print(line)
    assert res["passed"], f"{line}\n{json.dumps(res['details'], indent=2, default=cli._jsonify)}"


def test_criterion_01_kernel_covariance():
    _report(cli._crit_kernel_covariance)


def test_criterion_02_isometry():
    _report(cli._crit_isometry)


def test_criterion_03_rosenblatt_construction():
    _report(cli._crit_rosenblatt)


def test_criterion_04_hypercontractivity():
    _report(cli._crit_hypercontractivity)


def test_criterion_05_gamma_decay():
    _report(cli._crit_gamma_decay)


def test_criterion_06_mild_solution():
    _report(cli._crit_mild_solution)


def test_criterion_07_factorization():
    _report(cli._crit_factorization)


def test_criterion_08_regularity_verdicts():
    _report(cli._crit_regularity)


def test_criterion_09_elementary_operator():
    _report(cli._crit_elementary_operator)


def _strip_timings(manifest):
    out = {k: v for k, v in manifest.items() if k != "wall_clock_s"}
    out["criteria"] = [{k: v for k, v in c.items() if k != "runtime_s"}
                      for c in manifest["criteria"]]
    return json.dumps(out, sort_keys=True, default=cli._jsonify)


def test_criterion_10_reproducibility_and_fault_targeting():
    base = full_suite(DEFAULT_SEED, scale=0.15)
    again = full_suite(DEFAULT_SEED, scale=0.15)
    identical = _strip_timings(base) == _strip_timings(again)
    clean = base["all_passed"]

    miscal = full_suite(DEFAULT_SEED, scale=0.15,
                        mutations={"c_h_scale": 1.1})
    failed_1 = [c["criterion"] for c in miscal["criteria"] if not c["passed"]]
    biased = full_suite(DEFAULT_SEED, scale=0.15,
                        mutations={"rosenblatt_include_diagonal": True})
    failed_3 = [c["criterion"] for c in biased["criteria"] if not c["passed"]]

    passed = identical and clean and failed_1 == [1] and failed_3 == [3]
    print(f"CRITERION 10 (reproducibility): {'PASS' if passed else 'FAIL'}")
    assert identical, "rerun manifests differ after stripping timings"
    assert clean, f"smoke suite failed: {[c['name'] for c in base['criteria'] if not c['passed']]}"
    assert failed_1 == [1], f"kernel miscalibration flagged {failed_1}"
    assert failed_3 == [3], f"diagonal-term fault flagged {failed_3}"
