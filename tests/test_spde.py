"""Spectral models, gamma-norms, mild solutions, and the factorization.

Solver accuracy is judged against quadrature oracles that never touch
the convolution code path: per-mode variances come from the
rectangle-exact double integral, cross-mode covariances from the same
inner product on midpoint discretizations of the two exponentials.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volterra_spde.errors import (AlignmentError, ConfigurationError,
                                  ParameterError, TruncationError)
from volterra_spde.kernels import make_fbm_kernel
from volterra_spde.processes import (LazyCylindricalEnsemble, TimeGrid,
                                     simulate_cylindrical, simulate_fbm)
from volterra_spde.spde import (HolderParameters, MildSolutionField,
                                NoiseOperator, build_model,
                                elementary_operator_check,
                                estimate_gamma_decay, exp_convolution_weight,
                                factorization_constant_check,
                                factorization_reconstruct,
                                fractional_power_norm, gamma_radonifying_norm,
                                mode_convolution, mode_increment_weights,
                                per_mode_variance_oracle, solve_mild)
from volterra_spde.wiener_integral import StepFunction, fbm_inner_product


# ---------------------------------------------------------------------------
# spectral model
# ---------------------------------------------------------------------------

def test_model_spectrum_and_orthonormality(model_16):
    k = np.arange(1, 17)
    assert np.allclose(model_16.eigenvalues, (k * np.pi / np.pi) ** 2)
    gram = (model_16.eigenfunctions * model_16.weights[None, :]) \
        @ model_16.eigenfunctions.T
    assert np.max(np.abs(gram - np.eye(16))) < 1e-6
    # eigenfunction_at agrees with the tabulated rows
    assert np.allclose(model_16.eigenfunction_at(3, model_16.nodes),
                       model_16.eigenfunctions[2])


def test_model_lp_norm_on_known_function(model_16):
    vals = model_16.eigenfunctions[0]
    assert model_16.lp_norm(vals, 2.0) == pytest.approx(1.0, rel=1e-10)
    # ||sin||_4^4 over (0, pi) with the sqrt(2/pi) normalization
    expect = ((2.0 / np.pi) ** 2 * 3.0 * np.pi / 8.0) ** 0.25
    assert model_16.lp_norm(vals, 4.0) == pytest.approx(expect, rel=1e-10)


def test_model_validation():
    with pytest.raises(ParameterError):
        build_model(np.pi, 1, 16, 63)       # nodes < 4 * modes
    with pytest.raises(ParameterError):
        build_model(np.pi, 1, 0, 64)
    with pytest.raises(ParameterError):
        build_model(-1.0, 1, 4, 64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # rejected before any numerics
        with pytest.raises(ConfigurationError, match="orthonormal"):
            build_model(np.inf, 1, 4, 64)


# ---------------------------------------------------------------------------
# noise operators and exponent bundles
# ---------------------------------------------------------------------------

def test_pointwise_coefficients_sample_eigenfunctions(model_16):
    noise = NoiseOperator(kind="pointwise", z=1.2)
    kk = np.arange(1, 17)
    expect = np.sqrt(2.0 / np.pi) * np.sin(kk * 1.2)
    assert np.allclose(noise.mode_coefficients(model_16), expect)
    assert noise.driver_modes(model_16) == 1


def test_noise_validation(model_16, noise_ones_16):
    with pytest.raises(ParameterError):
        NoiseOperator(kind="pointwise")
    with pytest.raises(ParameterError):
        NoiseOperator(kind="diagonal")
    with pytest.raises(ParameterError):
        NoiseOperator(kind="white")
    with pytest.raises(ParameterError):
        NoiseOperator(kind="pointwise", z=4.0).mode_coefficients(model_16)
    with pytest.raises(AlignmentError):
        NoiseOperator(kind="diagonal",
                      phi_k=np.ones(5)).mode_coefficients(model_16)
    assert noise_ones_16.driver_modes(model_16) == 16


def test_holder_parameter_constraints():
    HolderParameters(alpha=0.25, gamma=0.7, delta=0.2, beta=0.1)
    with pytest.raises(ParameterError):
        HolderParameters(alpha=0.5)
    with pytest.raises(ParameterError):
        HolderParameters(alpha=0.25, gamma=0.75)
    with pytest.raises(ParameterError):
        HolderParameters(alpha=0.25, beta=0.6, delta=0.2)


# ---------------------------------------------------------------------------
# gamma-radonifying norms
# ---------------------------------------------------------------------------

def test_gamma_norm_diagonal_p2_is_parseval(model_16, noise_ones_16):
    # p = 2 collapses to the Hilbert-Schmidt sum by orthonormality
    for u in (1e-3, 1e-2, 0.1):
        expect = np.sqrt(np.sum(np.exp(-2.0 * model_16.eigenvalues * u)))
        got = gamma_radonifying_norm(model_16, noise_ones_16, u, 2.0)
        assert got == pytest.approx(expect, rel=1e-10)
    with pytest.raises(ParameterError):
        gamma_radonifying_norm(model_16, noise_ones_16, 0.0, 2.0)


def test_gamma_norm_truncation_certificate():
    model = build_model(np.pi, 1, 8, 64)
    point = NoiseOperator(kind="pointwise", z=1.2)
    # at u = 1e-4 eight modes cannot resolve the Dirac section
    with pytest.raises(TruncationError) as err:
        gamma_radonifying_norm(model, point, 1e-4, 2.0, check=True)
    assert err.value.drift > 0.01
    # a diagonal operator is defined by its coefficients: doubling the
    # model extends it by zero, so the certificate passes at any u
    diag = NoiseOperator(kind="diagonal", phi_k=np.ones(8))
    val = gamma_radonifying_norm(model, diag, 1e-4, 2.0, check=True)
    assert val == pytest.approx(gamma_radonifying_norm(model, diag, 1e-4, 2.0))


def test_gamma_decay_exponents_match_theory():
    # m = 1 on (0, pi): diagonal ones decays like u^{-1/4}; the Dirac
    # section gives u^{-1/4} in L^2 and u^{-3/8} in L^4
    model = build_model(np.pi, 1, 256, 1024)
    u_grid = np.geomspace(1e-4, 1e-2, 13)
    cases = [
        (NoiseOperator(kind="diagonal", phi_k=np.ones(256)), 2.0, 0.25),
        (NoiseOperator(kind="pointwise", z=1.2), 2.0, 0.25),
        (NoiseOperator(kind="pointwise", z=1.2), 4.0, 0.375),
    ]
    for noise, p, target in cases:
        rep = estimate_gamma_decay(model, noise, p, u_grid, alpha=0.25)
        assert abs(rep["gamma_hat"] - target) < 0.03
        assert rep["r_squared"] > 0.99 and not rep["fit_warning"]
        assert rep["admissible"]


def test_gamma_decay_grid_validation(model_16, noise_ones_16):
    with pytest.raises(ParameterError):
        estimate_gamma_decay(model_16, noise_ones_16, 2.0,
                             np.array([1e-3, 1e-2]), alpha=0.25)
    with pytest.raises(ParameterError):
        estimate_gamma_decay(model_16, noise_ones_16, 2.0,
                             np.geomspace(1e-3, 5e-3, 5), alpha=0.25)


# ---------------------------------------------------------------------------
# per-mode convolution
# ---------------------------------------------------------------------------

def test_convolution_weight_limits():
    x = 0.7
    assert exp_convolution_weight(x, 1.0, None) == pytest.approx(
        -np.expm1(-x) / x, rel=1e-14)
    assert exp_convolution_weight(x, 1.0, 1) == pytest.approx(
        np.exp(-x), rel=1e-14)
    assert exp_convolution_weight(1e-20, 1.0, 64) == 1.0
    out = exp_convolution_weight(2.0, np.array([1e-20, 0.5]), None)
    assert out.shape == (2,) and out[0] == 1.0


def test_zero_eigenvalue_convolution_is_cumsum(grid_256):
    rng = np.random.default_rng(12)
    incs = rng.standard_normal((5, 256))
    out = mode_convolution(0.0, incs, grid_256)
    assert np.allclose(out[:, 1:], np.cumsum(incs, axis=1), rtol=1e-13)
    assert np.all(out[:, 0] == 0.0)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 40), uniform=st.booleans(),
       lam=st.one_of(st.just(0.0), st.floats(0.1, 1e4), st.just(1e6)),
       ref=st.one_of(st.none(), st.integers(1, 256)),
       replicas=st.integers(1, 7), seed=st.integers(0, 2 ** 32 - 1))
def test_nonuniform_grid_recursion_matches_direct_sum(n, uniform, lam, ref,
                                                      replicas, seed):
    rng = np.random.default_rng(seed)
    dt = np.full(n, 0.05) if uniform else rng.uniform(0.01, 1.0, n)
    pts = np.concatenate([[0.0], np.cumsum(dt)])
    grid = TimeGrid(points=pts)
    assert grid.uniform == (uniform or n == 1)
    # lam = 1e6 puts lam * dt above 745, where rho underflows to 0
    assert lam < 1e6 or np.all(np.exp(-lam * np.diff(pts)) == 0.0)
    incs = rng.standard_normal((replicas, 2 * n))[:, ::2]    # strided view
    before = incs.copy()
    out = mode_convolution(lam, incs, grid, ref)
    assert np.array_equal(incs, before)
    assert np.all(out[:, 0] == 0.0)
    om = exp_convolution_weight(lam, np.diff(pts), ref)
    for m in range(1, n + 1):
        direct = sum(om[j] * incs[:, j] * np.exp(-lam * (pts[m] - pts[j + 1]))
                     for j in range(m))
        assert np.allclose(out[:, m], direct, rtol=1e-11, atol=1e-13)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 40), uniform=st.booleans(),
       lam=st.one_of(st.just(0.0), st.floats(0.1, 1e4), st.just(1e6)),
       ref=st.one_of(st.none(), st.integers(1, 256)),
       replicas=st.integers(1, 7), seed=st.integers(0, 2 ** 32 - 1))
def test_increment_weights_transpose_the_convolution(n, uniform, lam, ref,
                                                     replicas, seed):
    rng = np.random.default_rng(seed)
    dt = np.full(n, 0.05) if uniform else rng.uniform(0.01, 1.0, n)
    grid = TimeGrid(points=np.concatenate([[0.0], np.cumsum(dt)]))
    path = np.zeros((replicas, n + 1))
    path[:, 1:] = rng.standard_normal((replicas, n))
    bases = rng.integers(0, n, size=6)
    pairs = [(int(b), int(rng.integers(1, n - b + 1))) for b in bases]
    conv = mode_convolution(lam, np.diff(path, axis=1), grid, ref)
    V = mode_increment_weights(lam, grid, pairs, ref)
    assert V.shape == (n, len(pairs))
    direct = np.column_stack([conv[:, b + lag] - conv[:, b]
                              for b, lag in pairs])
    assert np.allclose(path[:, 1:] @ V, direct, rtol=1e-11, atol=1e-13)


def test_convolution_agrees_with_pathwise_integral(fbm_ens_075, grid_256):
    from volterra_spde.processes import PathEnsemble
    from volterra_spde.wiener_integral import riemann_stieltjes
    lam = 3.0
    sub = PathEnsemble(grid=grid_256, values=fbm_ens_075.values[:50],
                       family=fbm_ens_075.family, params=fbm_ens_075.params,
                       seed=fbm_ens_075.seed)
    conv = mode_convolution(lam, np.diff(sub.values, axis=1), grid_256,
                            refinement=8)
    rs = riemann_stieltjes(lambda r: np.exp(-lam * (1.0 - r)), sub,
                           refinement=8)
    assert np.allclose(conv[:, -1], rs, rtol=1e-12)


# ---------------------------------------------------------------------------
# mild solutions
# ---------------------------------------------------------------------------

def test_deterministic_flow_with_zero_noise():
    model = build_model(np.pi, 1, 4, 64)
    grid = TimeGrid.regular(1.0, 64)
    driver = simulate_cylindrical("fbm", {"H": 0.75}, 4, grid, 8, seed=1)
    noise = NoiseOperator(kind="diagonal", phi_k=np.zeros(4))
    x0 = np.array([1.0, -2.0, 0.5, 3.0])
    field = solve_mild(model, noise, driver, x0, grid)
    expect = x0[:, None] * np.exp(-model.eigenvalues[:, None]
                                  * grid.points[None, :])
    assert np.allclose(field.mode_paths, expect[None, :, :], rtol=1e-12)


def test_solution_is_linear_in_noise_amplitude():
    model = build_model(np.pi, 1, 4, 64)
    grid = TimeGrid.regular(1.0, 64)
    driver = simulate_cylindrical("fbm", {"H": 0.75}, 4, grid, 16, seed=2)
    phi = np.array([1.0, 0.5, 0.25, 0.125])
    a = solve_mild(model, NoiseOperator(kind="diagonal", phi_k=phi),
                   driver, None, grid)
    b = solve_mild(model, NoiseOperator(kind="diagonal", phi_k=2.0 * phi),
                   driver, None, grid)
    assert np.allclose(b.mode_paths, 2.0 * a.mode_paths, rtol=1e-14)


def test_solver_alignment_errors(model_16, noise_ones_16, grid_256,
                                 fbm_ens_075):
    with pytest.raises(AlignmentError):
        solve_mild(model_16, noise_ones_16, fbm_ens_075, None, grid_256)
    small = simulate_cylindrical("fbm", {"H": 0.75}, 4, grid_256, 4, seed=0)
    with pytest.raises(AlignmentError):
        solve_mild(model_16, noise_ones_16, small, None, grid_256)
    other = TimeGrid.regular(1.0, 128)
    point = NoiseOperator(kind="pointwise", z=1.2)
    with pytest.raises(AlignmentError):
        solve_mild(model_16, point, fbm_ens_075, None, other)
    with pytest.raises(ParameterError):
        solve_mild(model_16, point, fbm_ens_075, np.ones(3), grid_256)


def test_lazy_driver_alignment_errors(model_16, noise_ones_16, grid_256):
    small = LazyCylindricalEnsemble("fbm", {"H": 0.75}, 4, grid_256, 4, seed=0)
    with pytest.raises(AlignmentError):
        solve_mild(model_16, noise_ones_16, small, None, grid_256)
    with pytest.raises(AlignmentError):
        small.coordinate(4)
    other = TimeGrid.regular(1.0, 128)
    lazy = LazyCylindricalEnsemble("fbm", {"H": 0.75}, 16, other, 4, seed=0)
    with pytest.raises(AlignmentError):
        solve_mild(model_16, noise_ones_16, lazy, None, grid_256)
    point = NoiseOperator(kind="pointwise", z=1.2)
    with pytest.raises(AlignmentError):
        solve_mild(model_16, point, lazy, None, other)
    one = LazyCylindricalEnsemble("fbm", {"H": 0.75}, 1, other, 4, seed=0)
    with pytest.raises(AlignmentError):
        solve_mild(model_16, point, one, None, other, times=[0.123])
    with pytest.raises(ParameterError):
        LazyCylindricalEnsemble("fbm", {"H": 0.75}, 0, other, 4, seed=0)


@given(family=st.sampled_from(["fbm", "rosenblatt"]),
       kind=st.sampled_from(["diagonal", "pointwise"]),
       modes=st.integers(1, 4), n_steps=st.integers(2, 12),
       replicas=st.integers(1, 5), uniform=st.booleans(),
       refinement=st.none() | st.integers(1, 64), x0=st.booleans(),
       lazy=st.booleans(), seed=st.integers(0, 2**32 - 1), data=st.data())
@settings(max_examples=25, deadline=None)
def test_streamed_solve_keeps_full_solve_columns(family, kind, modes, n_steps,
                                                 replicas, uniform, refinement,
                                                 x0, lazy, seed, data):
    # a times subset, with an eager or a lazy driver, gives the columns of
    # the eager full-grid solve to rounding, and its metadata exactly
    if uniform:
        grid = TimeGrid.regular(1.0, n_steps)
    else:
        widths = np.random.default_rng(seed).uniform(0.2, 1.0, n_steps)
        grid = TimeGrid(points=np.concatenate([[0.0], np.cumsum(widths)]))
    params = ({"H": 0.7} if family == "fbm"
              else {"Hp": 0.7, "inner": 16, "check": False})
    model = build_model(np.pi, 1, modes, 16)
    noise = (NoiseOperator(kind="pointwise", z=1.1) if kind == "pointwise"
             else NoiseOperator(kind="diagonal", phi_k=np.linspace(1.0, 0.5, modes)))
    n_drivers = noise.driver_modes(model)
    start = np.linspace(-1.0, 2.0, modes) if x0 else None
    eager = simulate_cylindrical(family, params, n_drivers, grid, replicas, seed)
    full = solve_mild(model, noise, eager, start, grid, refinement)
    idx = data.draw(st.lists(st.integers(1, n_steps), min_size=1, max_size=3))
    times = grid.points[idx].tolist()
    driver = (LazyCylindricalEnsemble(family, params, n_drivers, grid,
                                      replicas, seed) if lazy else eager)
    part = solve_mild(model, noise, driver, start, grid, refinement, times=times)
    keep = np.unique([0, *idx])
    assert np.array_equal(part.grid.points, grid.points[keep])
    want = full.mode_paths[:, :, keep]
    scale = np.max(np.abs(full.mode_paths), axis=(0, 2))
    dev = np.max(np.abs(part.mode_paths - want), axis=(0, 2))
    assert np.all(dev <= 1e-12 * scale), dev / scale
    assert part.metadata == full.metadata


def test_mode_variances_match_quadrature_oracle():
    model = build_model(np.pi, 1, 4, 64)
    grid = TimeGrid.regular(1.0, 512)
    driver = simulate_cylindrical("fbm", {"H": 0.75}, 4, grid, 400, seed=7)
    noise = NoiseOperator(kind="diagonal", phi_k=np.ones(4))
    field = solve_mild(model, noise, driver, None, grid)
    final = field.mode_paths[:, :, -1]
    for k in range(4):
        mc = float(np.mean(final[:, k] ** 2))
        se = float(np.std(final[:, k] ** 2) / np.sqrt(final.shape[0]))
        oracle = per_mode_variance_oracle(model.eigenvalues[k], 1.0, 0.75)
        assert abs(mc - oracle) <= max(3.0 * se, 0.02 * oracle), (
            f"mode {k}: mc={mc:.5f} oracle={oracle:.5f} se={se:.5f}")


def test_pointwise_modes_carry_exact_cross_covariance():
    # one shared scalar driver correlates the modes; the covariance is
    # the inner product of the two exponential integrands
    model = build_model(np.pi, 1, 2, 64)
    grid = TimeGrid.regular(1.0, 512)
    driver = simulate_fbm(0.75, grid, replicas=600, seed=9)
    noise = NoiseOperator(kind="pointwise", z=1.2)
    field = solve_mild(model, noise, driver, None, grid)
    final = field.mode_paths[:, :, -1]
    c = noise.mode_coefficients(model)
    edges = np.linspace(0.0, 1.0, 4097)
    mid = 0.5 * (edges[:-1] + edges[1:])
    gs = [StepFunction(breakpoints=edges,
                       values=np.exp(-lam * (1.0 - mid)))
          for lam in model.eigenvalues]
    prod = final[:, 0] * final[:, 1]
    mc = float(np.mean(prod))
    se = float(np.std(prod) / np.sqrt(prod.size))
    oracle = c[0] * c[1] * fbm_inner_product(gs[0], gs[1], 0.75)
    assert abs(mc - oracle) <= max(3.0 * se, 0.02 * abs(oracle))


def test_field_snapshot_csv(tmp_path):
    model = build_model(np.pi, 1, 3, 64)
    grid = TimeGrid.regular(1.0, 16)
    driver = simulate_cylindrical("fbm", {"H": 0.75}, 3, grid, 5, seed=4)
    noise = NoiseOperator(kind="diagonal", phi_k=np.ones(3))
    field = solve_mild(model, noise, driver, None, grid)
    csv = tmp_path / "snap.csv"
    field.snapshot_to_csv(str(csv), times=[0.5, 1.0])
    lines = csv.read_text().strip().split("\n")
    assert lines[0] == "replica,time,node,value"
    assert len(lines) == 1 + 2 * 5 * model.nodes.size
    r, t, x, v = lines[1].split(",")
    assert r == "0" and float(t) == 0.5
    assert float(v) == pytest.approx(field.field_values(0.5)[0, 0])
    nodes = model.nodes
    ref = ["replica,time,node,value\n"]
    for t in np.asarray([0.5, 1.0]):
        vals = field.field_values(float(t))
        ref += [f"{r:d},{t:.17g},{nodes[j]:.17g},{vals[r, j]:.17g}\n"
                for r in range(vals.shape[0]) for j in range(nodes.size)]
    assert csv.read_text() == "".join(ref)
    with pytest.raises(AlignmentError):
        field.field_values(0.123)


# ---------------------------------------------------------------------------
# fractional powers
# ---------------------------------------------------------------------------

def _two_mode_field(model_16, a=0.7, b=-0.4):
    grid = TimeGrid.regular(1.0, 2)
    paths = np.zeros((1, 16, 3))
    paths[0, 0, -1] = a
    paths[0, 1, -1] = b
    return MildSolutionField(grid=grid, model=model_16, mode_paths=paths)


def test_fractional_power_norm_parseval(model_16):
    field = _two_mode_field(model_16)
    lam = model_16.eigenvalues
    assert fractional_power_norm(field, 0.0, 2.0, 1.0)[0] == pytest.approx(
        np.sqrt(0.7 ** 2 + 0.4 ** 2), rel=1e-10)
    assert fractional_power_norm(field, 0.5, 2.0, 1.0)[0] == pytest.approx(
        np.sqrt(lam[0] * 0.7 ** 2 + lam[1] * 0.4 ** 2), rel=1e-10)
    with pytest.raises(ParameterError):
        fractional_power_norm(field, -0.1, 2.0, 1.0)


def test_fractional_power_norm_p4_against_trapezoid(model_16):
    field = _two_mode_field(model_16)
    lam = model_16.eigenvalues
    x = np.linspace(0.0, np.pi, 20001)
    f = np.sqrt(2.0 / np.pi) * (lam[0] ** 0.5 * 0.7 * np.sin(x)
                                + lam[1] ** 0.5 * -0.4 * np.sin(2 * x))
    dense = np.trapezoid(np.abs(f) ** 4, x) ** 0.25
    assert fractional_power_norm(field, 0.5, 4.0, 1.0)[0] == pytest.approx(
        dense, rel=1e-4)


# ---------------------------------------------------------------------------
# factorization
# ---------------------------------------------------------------------------

def test_beta_integral_is_constant_in_endpoints():
    assert factorization_constant_check(0.5, 0.0, 1.0) == pytest.approx(
        np.pi, rel=1e-6)
    for beta in (0.2, 0.7):
        expect = np.pi / np.sin(np.pi * beta)
        for r, t in ((0.0, 1.0), (0.3, 0.9), (1.0, 5.0)):
            assert factorization_constant_check(beta, r, t) == pytest.approx(
                expect, rel=1e-6)
    with pytest.raises(ParameterError):
        factorization_constant_check(1.0, 0.0, 1.0)
    with pytest.raises(ParameterError):
        factorization_constant_check(0.5, 1.0, 1.0)


def test_factorization_reconstructs_the_convolution():
    model = build_model(np.pi, 1, 4, 64)
    grid = TimeGrid.regular(1.0, 256)
    driver = simulate_cylindrical("fbm", {"H": 0.75}, 4, grid, 300, seed=21)
    noise = NoiseOperator(kind="diagonal", phi_k=np.ones(4))
    direct = solve_mild(model, noise, driver, None, grid).field_values(1.0)
    recon = factorization_reconstruct(model, noise, driver, beta=0.2,
                                      delta=0.0, grid=grid,
                                      alpha=0.25).field_values(1.0)
    rel = np.sqrt(np.mean((recon - direct) ** 2) / np.mean(direct ** 2))
    assert rel < 0.02, f"factorization round-trip error {rel:.4f}"
    # the delta split cancels analytically, so it must not move the result
    shifted = factorization_reconstruct(model, noise, driver, beta=0.2,
                                        delta=0.15, grid=grid,
                                        alpha=0.25).field_values(1.0)
    assert np.allclose(shifted, recon, rtol=1e-10, atol=1e-12)


# ---------------------------------------------------------------------------
# elementary operators
# ---------------------------------------------------------------------------

def test_elementary_operator_single_term_ratios():
    model = build_model(np.pi, 1, 2, 64)
    kernel = make_fbm_kernel(0.75)
    grid = TimeGrid.regular(1.0, 64)
    driver = simulate_cylindrical("fbm", {"H": 0.75}, 2, grid, 2000, seed=17)
    g = StepFunction.indicator(1.0)
    f = model.eigenfunctions[0]
    res = elementary_operator_check(model, kernel, [g], [f], driver, q=2.0)
    # ||i_T(1_[0,1])||_{L^2} = 1 and ||e_1||_{L^2} = 1, so every norm is 1
    assert res["square_function_norm"] == pytest.approx(1.0, rel=2e-4)
    assert res["embedding_norm"] == pytest.approx(1.0, rel=1e-10)
    assert abs(res["ratio"] - 1.0) < 0.05
    assert abs(res["embedding_ratio"] - 1.0) < 0.05


def test_elementary_operator_validation(model_16, kernel_075, grid_256):
    driver = simulate_cylindrical("fbm", {"H": 0.75}, 1, grid_256, 4, seed=0)
    g = StepFunction.indicator(1.0)
    with pytest.raises(ParameterError):
        elementary_operator_check(model_16, kernel_075, [g], [], driver, 2.0)
    with pytest.raises(AlignmentError):
        elementary_operator_check(model_16, kernel_075, [g, g],
                                  [model_16.eigenfunctions[0]] * 2, driver, 2.0)
    with pytest.raises(AlignmentError):
        elementary_operator_check(model_16, kernel_075, [g], [np.ones(7)],
                                  driver, 2.0)
