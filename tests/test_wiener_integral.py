"""Integrand norms, the adjoint-operator isometry, and pathwise integrals.

The central cross-check is the oracle triangle: the K*-quadrature norm,
the rectangle-exact |u - v|^{2H-2} inner product, and the Monte Carlo
variance of the elementary integral must all agree on every step
function.  The inner product is exact per rectangle, so it doubles as
the reference for the other two.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from volterra_spde.errors import AlignmentError, ParameterError
from volterra_spde.kernels import make_fbm_kernel
from volterra_spde.wiener_integral import (StepFunction, apply_Kstar,
                                           compute_norms,
                                           elementary_integral,
                                           fbm_inner_product,
                                           integral_variance,
                                           random_step_function,
                                           riemann_stieltjes,
                                           uniform_fbm_quadratic_form,
                                           upper_bound_functional)


# ---------------------------------------------------------------------------
# step functions
# ---------------------------------------------------------------------------

def test_step_function_semantics():
    phi = StepFunction(breakpoints=np.array([0.0, 0.5, 1.0]),
                       values=np.array([2.0, -1.0]))
    assert phi.T == 1.0
    assert phi(0.0) == 2.0
    assert phi(0.49) == 2.0
    assert phi(0.5) == -1.0      # left-closed right-open cells
    assert phi(1.0) == -1.0      # last cell closed at T
    assert phi(1.01) == 0.0 and phi(-0.1) == 0.0


def test_step_function_validation():
    with pytest.raises(ParameterError):
        StepFunction(breakpoints=np.array([0.1, 1.0]), values=np.array([1.0]))
    with pytest.raises(ParameterError):
        StepFunction(breakpoints=np.array([0.0, 0.5, 0.5]),
                     values=np.array([1.0, 2.0]))
    with pytest.raises(ParameterError):
        StepFunction(breakpoints=np.array([0.0, 1.0]),
                     values=np.array([1.0, 2.0]))


def test_indicator_constructor():
    ind = StepFunction.indicator(0.3, T=1.0)
    assert ind(0.2) == 1.0 and ind(0.7) == 0.0
    assert StepFunction.indicator(0.3).T == 0.3


# ---------------------------------------------------------------------------
# K* and the isometry norm
# ---------------------------------------------------------------------------

def test_apply_kstar_telescopes_to_kernel_values(kernel_075):
    # phi = 1_[0,1/2) - 1_[1/2,1]: K* phi(r) = 2K(1/2, r) - K(1, r)
    phi = StepFunction(breakpoints=np.array([0.0, 0.5, 1.0]),
                       values=np.array([1.0, -1.0]))
    r = 0.25
    expect = (2.0 * kernel_075.evaluate(0.5, r) - kernel_075.evaluate(1.0, r))
    assert apply_Kstar(phi, kernel_075, r) == pytest.approx(expect, rel=1e-12)
    # independent route: adaptive quadrature of phi(u) dK/du over (r, 1],
    # split at the jump, with the substitution u = r + s^2 near r
    H, C_H = 0.75, kernel_075.params["C_H"]
    inner, _ = quad(lambda s: 2.0 * C_H * ((r + s * s) / r) ** (H - 0.5)
                    * s ** (2.0 * H - 2.0), 0.0, np.sqrt(0.5 - r), limit=200)
    outer, _ = quad(lambda u: kernel_075.derivative(u, r), 0.5, 1.0)
    assert apply_Kstar(phi, kernel_075, r) == pytest.approx(inner - outer,
                                                           rel=1e-6)


def test_apply_kstar_vanishes_past_horizon(kernel_075):
    phi = StepFunction.indicator(1.0)
    assert apply_Kstar(phi, kernel_075, 1.0) == 0.0
    assert apply_Kstar(phi, kernel_075, 1.5) == 0.0


def test_isometry_norm_of_indicator_is_variance(kernel_075):
    # i_T(1_[0,t]) = b_t, so the norm must be t^{2H}
    for t in (0.25, 0.5, 1.0):
        phi = StepFunction.indicator(t, T=1.0)
        assert integral_variance(phi, kernel_075) == pytest.approx(
            t ** 1.5, rel=2e-4)


# ---------------------------------------------------------------------------
# rectangle-exact inner products
# ---------------------------------------------------------------------------

def test_inner_product_indicator_closed_form():
    for H in (0.6, 0.75, 0.9):
        for t in (0.3, 1.0, 2.0):
            f = StepFunction.indicator(t)
            assert fbm_inner_product(f, f, H) == pytest.approx(
                t ** (2 * H), rel=1e-12)
            assert uniform_fbm_quadratic_form(np.ones(64), t / 64, H) == \
                pytest.approx(t ** (2 * H), rel=1e-12)
    with pytest.raises(ParameterError):
        uniform_fbm_quadratic_form(np.ones(4), 0.25, 0.5)


@given(n=st.integers(1, 256), rows=st.integers(1, 3),
       dx=st.floats(1e-3, 1.0), H=st.floats(0.55, 0.95),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_uniform_form_matches_rectangle_matrix(n, rows, dx, H, seed):
    # the batched FFT form against the dense rectangle matrix, row by row;
    # increments of mixed sign cancel, so the tolerance is taken relative
    # to the form of |v|
    v = np.random.default_rng(seed).standard_normal((rows, n))
    got = uniform_fbm_quadratic_form(v, dx, H)
    assert got.shape == (rows,)
    bp = dx * np.arange(n + 1)
    for vk, gk in zip(v, got):
        f = StepFunction(breakpoints=bp, values=vk)
        a = StepFunction(breakpoints=bp, values=np.abs(vk))
        assert abs(gk - fbm_inner_product(f, f, H)) <= \
            1e-10 * fbm_inner_product(a, a, H)


def test_cross_oracle_agreement():
    # K*-quadrature vs rectangle-exact double integral on random steps
    rng = np.random.default_rng(31)
    for H in (0.6, 0.7, 0.75, 0.9):
        kern = make_fbm_kernel(H)
        for _ in range(3):
            phi = random_step_function(1.0, 8, rng)
            iso = integral_variance(phi, kern)
            inner = fbm_inner_product(phi, phi, H)
            assert iso == pytest.approx(inner, rel=1e-3)


@given(a=st.floats(-2.0, 2.0), b=st.floats(-2.0, 2.0), seed=st.integers(0, 50))
@settings(max_examples=25, deadline=None)
def test_inner_product_bilinear(a, b, seed):
    rng = np.random.default_rng(seed)
    bp = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0.05, 0.95, 3)]))
    f = StepFunction(breakpoints=bp, values=rng.standard_normal(4))
    g = StepFunction(breakpoints=bp, values=rng.standard_normal(4))
    h = StepFunction(breakpoints=bp, values=rng.standard_normal(4))
    comb = StepFunction(breakpoints=bp, values=a * f.values + b * g.values)
    lhs = fbm_inner_product(comb, h, 0.75)
    rhs = a * fbm_inner_product(f, h, 0.75) + b * fbm_inner_product(g, h, 0.75)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


def test_inner_product_cauchy_schwarz():
    rng = np.random.default_rng(8)
    for _ in range(5):
        f = random_step_function(1.0, 6, rng)
        g = random_step_function(1.0, 6, rng)
        cs = (fbm_inner_product(f, g, 0.75) ** 2
              <= fbm_inner_product(f, f, 0.75) * fbm_inner_product(g, g, 0.75)
              * (1.0 + 1e-12))
        assert cs


def test_upper_bound_is_inner_product_without_constant():
    # for nonnegative phi the two differ exactly by the factor H(2H-1)
    phi = StepFunction(breakpoints=np.array([0.0, 0.4, 1.0]),
                       values=np.array([1.0, 2.0]))
    H = 0.75
    assert H * (2 * H - 1) * upper_bound_functional(phi, H - 0.5) == \
        pytest.approx(fbm_inner_product(phi, phi, H), rel=1e-12)


def test_spike_functions_at_critical_exponent(kernel_075):
    # phi_h = h^{-(1+2 alpha)/2} 1_[0,h] has unit L^{2/(1+2 alpha)} norm
    # and Var i(phi_h) = h^{-(1+2 alpha)} h^{2H} = 1: the embedding ratio
    # is exactly flat in h, which pins the critical exponent
    for h in (2.0 ** -2, 2.0 ** -4, 2.0 ** -6):
        phi = StepFunction(breakpoints=np.array([0.0, h, 1.0]),
                           values=np.array([h ** -0.75, 0.0]))
        assert integral_variance(phi, kernel_075) == pytest.approx(1.0,
                                                                   rel=2e-3)


# ---------------------------------------------------------------------------
# pathwise integrals
# ---------------------------------------------------------------------------

def test_elementary_integral_of_indicator_is_path_value(fbm_ens_075):
    t = fbm_ens_075.grid.points[64]
    phi = StepFunction.indicator(t, T=1.0)
    vals = elementary_integral(phi, fbm_ens_075)
    assert np.array_equal(vals, fbm_ens_075.values[:, 64])
    assert elementary_integral(phi, fbm_ens_075, replica=5) == vals[5]


def test_elementary_integral_mc_matches_isometry(fbm_ens_075, kernel_075):
    rng = np.random.default_rng(77)
    for _ in range(5):
        phi = random_step_function(1.0, 6, rng,
                                   times=fbm_ens_075.grid.points)
        I = elementary_integral(phi, fbm_ens_075)
        mc = float(np.mean(I * I))
        se = float(np.std(I * I) / np.sqrt(I.size))
        assert abs(mc - integral_variance(phi, kernel_075)) <= 3.0 * se


def test_elementary_integral_rejects_offgrid_breakpoints(fbm_ens_075):
    phi = StepFunction(breakpoints=np.array([0.0, 0.33333, 1.0]),
                       values=np.array([1.0, 0.0]))
    with pytest.raises(AlignmentError):
        elementary_integral(phi, fbm_ens_075)


def test_riemann_stieltjes_constant_integrand(fbm_ens_075):
    vals = riemann_stieltjes(lambda r: np.ones_like(r), fbm_ens_075)
    assert np.allclose(vals, fbm_ens_075.values[:, -1], rtol=1e-12)


def test_riemann_stieltjes_refinement_consistency(fbm_ens_075):
    g = lambda r: np.exp(-3.0 * (1.0 - r))
    v8 = riemann_stieltjes(g, fbm_ens_075, refinement=8)
    v64 = riemann_stieltjes(g, fbm_ens_075, refinement=64, check=False)
    rel = np.sqrt(np.mean((v8 - v64) ** 2) / np.mean(v64 ** 2))
    assert rel < 0.01
    with pytest.raises(ParameterError):
        riemann_stieltjes(g, fbm_ens_075, refinement=0)


def test_riemann_stieltjes_variance_matches_inner_product(fbm_ens_075):
    # smooth exponential integrand: MC variance against the inner product
    # of its fine step discretization
    lam, T = 3.0, 1.0
    vals = riemann_stieltjes(lambda r: np.exp(-lam * (T - r)), fbm_ens_075)
    mc = float(np.mean(vals ** 2))
    se = float(np.std(vals ** 2) / np.sqrt(vals.size))
    edges = np.linspace(0.0, T, 4097)
    mid = 0.5 * (edges[:-1] + edges[1:])
    g = StepFunction(breakpoints=edges, values=np.exp(-lam * (T - mid)))
    oracle = fbm_inner_product(g, g, 0.75)
    assert abs(mc - oracle) <= max(3.0 * se, 0.02 * oracle)


def test_compute_norms_bundles_all_three(kernel_075):
    phi = StepFunction.indicator(0.5, T=1.0)
    norms = compute_norms(phi, kernel_075)
    assert norms.isometry_norm_sq == pytest.approx(0.5 ** 1.5, rel=2e-4)
    assert norms.fbm_inner_sq == pytest.approx(0.5 ** 1.5, rel=1e-12)
    assert norms.upper_bound > 0.0
