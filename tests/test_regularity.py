"""Variogram estimators, exact increment oracles, and verdict assembly.

The estimator is calibrated first on Gaussian ensembles with known
exponents drawn through an independent closed-form Cholesky route, so a
biased slope fit cannot silently validate the process samplers.
"""

import json

import numpy as np
import pytest

from volterra_spde.errors import ParameterError, TruncationError
from volterra_spde.kernels import fbm_covariance_closed_form
from volterra_spde.processes import (PathEnsemble, RosenblattSampler,
                                     TimeGrid, simulate_cylindrical)
from volterra_spde.quadrature import ols_fit
from volterra_spde.regularity import (RegularityReport, _mode_increment_var,
                                      default_bases, default_lags,
                                      field_variogram,
                                      mean_square_increment_oracle,
                                      oracle_variogram_exponent,
                                      predicted_bound, regularity_verdict,
                                      variogram_exponent)
from volterra_spde.seeding import STREAM_TEST, substream
from volterra_spde.spde import (HolderParameters, MildSolutionField,
                                NoiseOperator, build_model, solve_mild)


# ---------------------------------------------------------------------------
# defaults
# ---------------------------------------------------------------------------

def test_default_lag_and_base_layout():
    assert default_lags(512) == [4, 8, 16, 32, 64]
    assert default_lags(64) == [4, 8]
    bases = default_bases(512, 64)
    assert len(bases) >= 3
    assert all(256 <= b and b + 64 <= 511 for b in bases)


# ---------------------------------------------------------------------------
# estimator calibration on known laws
# ---------------------------------------------------------------------------

def _gaussian_ensemble(theta: float, grid: TimeGrid,
                       replicas: int = 2000) -> PathEnsemble:
    """Paths with exact law via the closed-form covariance, no kernels."""
    tt = grid.points[1:]
    cov = fbm_covariance_closed_form(theta, tt[:, None], tt[None, :])
    chol = np.linalg.cholesky(cov)
    rng = substream(99, STREAM_TEST, 11)
    z = rng.standard_normal((replicas, tt.size))
    vals = np.concatenate([np.zeros((replicas, 1)), z @ chol.T], axis=1)
    return PathEnsemble(grid=grid, values=vals, family="fbm",
                        params={"H": theta}, seed=99)


@pytest.mark.parametrize("theta", [0.3, 0.5, 0.75])
def test_estimator_recovers_known_exponents(theta, grid_512):
    res = variogram_exponent(_gaussian_ensemble(theta, grid_512))
    assert abs(res["exponent"] - theta) < 0.05, (
        f"estimator read {res['exponent']:.4f} for theta={theta}")
    assert res["se"] < 0.02
    assert res["n_replicas"] == 2000


def test_ols_fit_matches_polyfit():
    rng = np.random.default_rng(3)
    x = np.log(np.geomspace(1e-4, 1e-2, 13))
    y = -0.3 * x + 0.05 * rng.standard_normal(x.size)
    slope, _, r_sq = ols_fit(x, y)
    (ref_slope, ref_icpt), (ref_res,), *_ = np.polyfit(x, y, 1, full=True)
    assert slope == pytest.approx(ref_slope, rel=1e-12, abs=1e-12)
    ss_tot = np.sum((y - np.mean(y)) ** 2)
    assert r_sq == pytest.approx(1.0 - ref_res / ss_tot, rel=1e-12)


def test_ols_fit_standard_error_by_hand():
    # xc = (-2..2), sxx = 10, slope 8/10, residuals (-.4, .8, -1, 1.2, -.6):
    # residual variance 3.6/3/10 = 0.12, propagated sum (xc_i/10)^2 se_i^2
    # = 0.0124, ss_tot = 10
    x = np.arange(5.0)
    y = np.array([1.0, 3.0, 2.0, 5.0, 4.0])
    y_se = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
    slope, se, r_sq = ols_fit(x, y, y_se)
    assert slope == pytest.approx(0.8, rel=1e-14)
    assert se == pytest.approx(np.sqrt(0.12 + 0.0124), rel=1e-14)
    assert r_sq == pytest.approx(0.64, rel=1e-14)
    assert ols_fit(x, y)[1] == pytest.approx(np.sqrt(0.12), rel=1e-14)


@pytest.fixture(scope="module")
def grid_512():
    return TimeGrid.regular(1.0, 512)


def test_fbm_sampler_exponent(fbm_ens_075):
    res = variogram_exponent(fbm_ens_075)
    assert abs(res["exponent"] - 0.75) < 0.05


def test_rosenblatt_sampler_exponent(grid_512):
    # recolored draw: the discrete covariance is pinned to the closed
    # form, so the cheap kernel settings do not bias the slope
    sampler = RosenblattSampler(0.75, grid_512, trunc=200, inner=256,
                                check=False, recolor=True)
    vals = sampler.draw(2000, 31)
    ens = PathEnsemble(grid=grid_512, values=vals, family="rosenblatt",
                       params={"Hp": 0.75}, seed=31)
    res = variogram_exponent(ens)
    assert abs(res["exponent"] - 0.75) < 0.05, (
        f"rosenblatt variogram read {res['exponent']:.4f}")


def test_estimator_validation(grid_512, fbm_ens_075):
    with pytest.raises(ParameterError):
        variogram_exponent(fbm_ens_075, lags=[4, 8, 16])
    for lags in ([4, 8, 16, 600], [0, 4, 8, 16], [-4, 8, 16, 32]):
        with pytest.raises(ParameterError, match="do not fit"):
            variogram_exponent(fbm_ens_075, lags=lags)
    small = PathEnsemble(grid=grid_512,
                         values=np.zeros((10, 513)), family="fbm",
                         params={"H": 0.75}, seed=0)
    with pytest.raises(ParameterError):
        variogram_exponent(small)
    with pytest.raises(ParameterError):
        variogram_exponent(fbm_ens_075, norm="L2")
    with pytest.raises(ParameterError):
        variogram_exponent(np.zeros((2000, 100)))


def test_field_norm_variants_and_validation():
    model = build_model(np.pi, 1, 2, 64)
    grid = TimeGrid.regular(1.0, 64)
    rng = np.random.default_rng(6)
    field = MildSolutionField(grid=grid, model=model,
                              mode_paths=rng.standard_normal((1000, 2, 65)))
    lags = [1, 2, 4, 8]
    a = variogram_exponent(field, norm="L2", lags=lags)
    b = variogram_exponent(field, norm="V_delta_p", delta=0.0, lags=lags)
    assert np.array_equal(a["D"], b["D"])     # delta = 0 is the L^2 norm
    c = variogram_exponent(field, norm="V_delta_p", p=4.0, lags=lags)
    assert np.all(c["D"] > 0.0)
    with pytest.raises(ParameterError):
        variogram_exponent(field, norm="weird", lags=lags)


# ---------------------------------------------------------------------------
# streaming variogram
# ---------------------------------------------------------------------------

def test_streaming_variogram_matches_materialized_field():
    model = build_model(np.pi, 1, 3, 64)
    noise = NoiseOperator(kind="diagonal", phi_k=np.ones(3))
    grid = TimeGrid.regular(1.0, 256)
    stream = field_variogram(model, noise, "fbm", {"H": 0.75}, grid,
                             1000, 55, deltas=(0.0, 0.3))
    driver = simulate_cylindrical("fbm", {"H": 0.75}, 3, grid, 1000, seed=55)
    field = solve_mild(model, noise, driver, None, grid, refinement=256)
    mat = variogram_exponent(field, norm="L2")
    # the stream folds the increments into the driver's factor, so the
    # two routes agree to rounding, not bit for bit
    np.testing.assert_allclose(stream[0]["D"], mat["D"], rtol=1e-12)
    assert abs(stream[0]["exponent"] - mat["exponent"]) <= 1e-12
    mat_v = variogram_exponent(field, norm="V_delta_p", delta=0.3)
    assert np.allclose(stream[1]["D"], mat_v["D"], rtol=1e-12)
    assert stream[0]["delta"] == 0.0 and stream[1]["delta"] == 0.3


@pytest.mark.parametrize("noise, family, params, tol", [
    (NoiseOperator(kind="pointwise", z=np.pi / 3), "fbm", {"H": 0.75}, 1e-12),
    # the recolouring map is ill-conditioned and amplifies rounding
    (NoiseOperator(kind="diagonal", phi_k=np.ones(4)), "rosenblatt",
     {"Hp": 0.75, "trunc": 200.0, "inner": 256, "check": False,
      "recolor": True}, 1e-11),
])
def test_streaming_variogram_matches_materialized_other_drivers(
        noise, family, params, tol):
    model = build_model(np.pi, 1, 4, 64)
    grid = TimeGrid.regular(1.0, 256)
    [stream] = field_variogram(model, noise, family, params, grid, 1000, 56)
    driver = simulate_cylindrical(family, params, noise.driver_modes(model),
                                  grid, 1000, seed=56)
    field = solve_mild(model, noise, driver, None, grid, refinement=256)
    mat = variogram_exponent(field, norm="L2")
    np.testing.assert_allclose(stream["D"], mat["D"], rtol=tol)
    assert abs(stream["exponent"] - mat["exponent"]) <= tol


def test_streaming_variogram_validation(model_16, noise_ones_16):
    grid = TimeGrid.regular(1.0, 256)
    with pytest.raises(ParameterError):
        field_variogram(model_16, noise_ones_16, "fbm", {"H": 0.75}, grid,
                        500, 0)
    with pytest.raises(ParameterError):
        field_variogram(model_16, noise_ones_16, "brownian", {}, grid, 1000, 0)


# ---------------------------------------------------------------------------
# exact increment oracle
# ---------------------------------------------------------------------------

def test_zero_eigenvalue_increment_variance_is_exact():
    # lambda = 0 reduces to a plain increment: (t - s)^{2H}, with s and
    # t deliberately off any dyadic alignment
    s, t = 0.3137, 0.7253
    for H in (0.6, 0.75):
        v = _mode_increment_var(0.0, s, t, H, 4096)
        assert v == pytest.approx((t - s) ** (2 * H), rel=1e-12)


def test_increment_oracle_batches_modes():
    # one batched call over an eigenvalue array against the scalar loop;
    # only the order of the FFT and dot-product sums may differ
    lam = build_model(np.pi, 1, 16, 64).eigenvalues
    s, t = 0.5, 0.5625
    batched = _mode_increment_var(lam, s, t, 0.75, 4096)
    loop = [_mode_increment_var(x, s, t, 0.75, 4096) for x in lam]
    assert all(isinstance(v, float) for v in loop)
    assert batched.shape == lam.shape
    np.testing.assert_allclose(batched, loop, rtol=1e-12)


def test_increment_oracle_edge_cases(model_16, noise_ones_16):
    assert mean_square_increment_oracle(model_16, noise_ones_16, 0.75,
                                        0.5, 0.5) == 0.0
    with pytest.raises(ParameterError):
        mean_square_increment_oracle(model_16, noise_ones_16, 0.75, 0.6, 0.5)


def test_increment_oracle_truncation_certificate(grid_512):
    s, t = grid_512.points[256], grid_512.points[288]
    model4 = build_model(np.pi, 1, 4, 64)
    diag4 = NoiseOperator(kind="diagonal", phi_k=np.ones(4))
    # four modes of a unit-coefficient sequence miss most of the sum
    with pytest.raises(TruncationError) as err:
        mean_square_increment_oracle(model4, diag4, 0.75, s, t, check=True)
    assert err.value.drift > 0.1
    model96 = build_model(np.pi, 1, 96, 384)
    diag96 = NoiseOperator(kind="diagonal", phi_k=np.ones(96))
    v = mean_square_increment_oracle(model96, diag96, 0.75, s, t, check=True)
    assert v > 0.0


def test_field_increments_match_oracle(grid_512):
    model = build_model(np.pi, 1, 4, 64)
    noise = NoiseOperator(kind="diagonal", phi_k=np.ones(4))
    driver = simulate_cylindrical("fbm", {"H": 0.75}, 4, grid_512, 600,
                                  seed=33)
    field = solve_mild(model, noise, driver, None, grid_512)
    dc = field.mode_paths[:, :, 288] - field.mode_paths[:, :, 256]
    q = np.sum(dc * dc, axis=1)
    mc, se = float(np.mean(q)), float(np.std(q) / np.sqrt(q.size))
    oracle = mean_square_increment_oracle(model, noise, 0.75,
                                          grid_512.points[256],
                                          grid_512.points[288])
    assert abs(mc - oracle) <= max(3.0 * se, 0.02 * oracle)


def test_oracle_variogram_exponent_near_theory():
    # diagonal ones, m = 1: gamma = 1/4, so the L^2 increment exponent
    # should sit near alpha + 1/2 - gamma = 1/2
    model = build_model(np.pi, 1, 96, 384)
    noise = NoiseOperator(kind="diagonal", phi_k=np.ones(96))
    res = oracle_variogram_exponent(model, noise, 0.75,
                                    TimeGrid.regular(1.0, 1024),
                                    n_cells=2048)
    assert abs(res["exponent"] - 0.5) < 0.05, (
        f"oracle slope {res['exponent']:.4f}")


# ---------------------------------------------------------------------------
# predicted bounds and verdicts
# ---------------------------------------------------------------------------

def test_predicted_bound_formulas():
    assert predicted_bound(HolderParameters(alpha=0.25, gamma=0.25),
                           "generic") == pytest.approx(0.5)
    assert predicted_bound(HolderParameters(alpha=0.25, p=2.0),
                           "pointwise") == pytest.approx(0.5)
    assert predicted_bound(HolderParameters(alpha=0.25, gamma=0.25, delta=0.2),
                           "generic") == pytest.approx(0.3)
    params = HolderParameters(alpha=0.25, gamma=0.25, delta=0.0, p=4.0)
    assert predicted_bound(params, "pointwise") == pytest.approx(0.625)
    with pytest.raises(ParameterError):
        predicted_bound(params, "cubic")


def test_verdict_threshold_behavior():
    params = HolderParameters(alpha=0.25, gamma=0.25)
    ok = regularity_verdict({"exponent": 0.46, "se": 0.010}, params, "generic")
    assert ok.verdict and ok.predicted_bound == pytest.approx(0.5)
    bad = regularity_verdict({"exponent": 0.46, "se": 0.005}, params, "generic")
    assert not bad.verdict
    sat = regularity_verdict({"exponent": 1.03, "se": 0.010}, params, "generic")
    assert sat.verdict and sat.extras["saturated"]


def test_pointwise_verdict_records_both_bounds():
    params = HolderParameters(alpha=0.25, p=2.0, gamma=0.25, delta=0.0)
    rep = regularity_verdict({"exponent": 0.51, "se": 0.01}, params,
                             "pointwise", oracle_exponent=0.5,
                             config={"modes": 256})
    assert rep.extras["bound_from_p"] == pytest.approx(0.5)
    assert rep.extras["bound_from_gamma"] == pytest.approx(0.5)
    assert rep.oracle_exponent == 0.5
    assert rep.config["modes"] == 256


def test_report_json_roundtrip(tmp_path):
    rep = regularity_verdict({"exponent": 0.51, "se": 0.01},
                             HolderParameters(alpha=0.25, gamma=0.25),
                             "generic", oracle_exponent=0.4875,
                             config={"modes": 96}, extras={"note": "x"})
    path = tmp_path / "report.json"
    rep.to_json(str(path))
    back = RegularityReport(**json.loads(path.read_text()))
    assert back == rep
    # fields in declaration order, two-space indent
    assert path.read_text() == json.dumps(
        {"measured_exponent": 0.51, "measured_se": 0.01,
         "predicted_bound": rep.predicted_bound, "formula": rep.formula,
         "verdict": rep.verdict, "margin": rep.margin,
         "oracle_exponent": 0.4875, "config": {"modes": 96},
         "extras": {"note": "x"}}, indent=2)
