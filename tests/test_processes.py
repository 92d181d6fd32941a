"""Path sampling: grids, ensembles, fBm, Rosenblatt, cylindrical stacks.

The Gaussian side is checked against the closed-form covariance and
moment tests (skewness/kurtosis of standardized increments).  The
Rosenblatt side is checked against its own trace-formula moments, which
are exact for the discretized quadratic form, and against the closed
form after recoloring.  Truncation behavior uses the cheap parameters
(trunc ~ 1e2, inner 256) where the certificate outcome is known.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volterra_spde.errors import ParameterError, TruncationError
from volterra_spde.kernels import fbm_covariance_closed_form
from volterra_spde.processes import (CylindricalEnsemble, PathEnsemble,
                                     RosenblattSampler, TimeGrid,
                                     _replica_normals, simulate_cylindrical,
                                     simulate_fbm, simulate_rosenblatt,
                                     third_moment_oracle)
from volterra_spde.seeding import STREAM_ROSENBLATT


# ---------------------------------------------------------------------------
# grids and containers
# ---------------------------------------------------------------------------

def test_time_grid_validation():
    with pytest.raises(ParameterError):
        TimeGrid(points=np.array([0.1, 0.5]))      # must start at 0
    with pytest.raises(ParameterError):
        TimeGrid(points=np.array([0.0, 0.5, 0.5]))
    with pytest.raises(ParameterError):
        TimeGrid.regular(0.0, 10)
    g = TimeGrid.regular(2.0, 8)
    assert g.T == 2.0 and g.n_steps == 8 and g.uniform
    assert not TimeGrid(points=np.array([0.0, 0.1, 0.5, 1.0])).uniform


def test_path_ensemble_validation(grid_256):
    vals = np.zeros((3, grid_256.points.size))
    vals[:, 0] = 1.0
    with pytest.raises(ParameterError):
        PathEnsemble(grid=grid_256, values=vals, family="custom")
    with pytest.raises(ParameterError):
        PathEnsemble(grid=grid_256, values=np.zeros((3, 7)), family="custom")


def test_csv_round_trip(tmp_path):
    ens = simulate_fbm(0.75, TimeGrid.regular(1.0, 16), replicas=5, seed=9)
    path = str(tmp_path / "ens.csv")
    ens.to_csv(path)
    back = PathEnsemble.from_csv(path)
    # 17 significant digits round-trips float64 exactly
    assert np.array_equal(back.values, ens.values)
    assert np.array_equal(back.grid.points, ens.grid.points)
    times = ens.grid.points
    ref = "replica,time,value\n" + "".join(
        f"{r:d},{times[j]:.17g},{ens.values[r, j]:.17g}\n"
        for r in range(ens.replicas) for j in range(times.size))
    assert open(path).read() == ref


@pytest.mark.parametrize("edit, line", [
    (lambda rows: rows[:25] + rows[26:], 27),                  # dropped row
    (lambda rows: rows[:30] + [rows[31], rows[30]] + rows[32:], 32),  # swap
    (lambda rows: rows[:-1], 86),                              # truncated
])
def test_csv_rejects_missing_or_shuffled_rows(tmp_path, edit, line):
    ens = simulate_fbm(0.75, TimeGrid.regular(1.0, 16), replicas=5, seed=9)
    path = tmp_path / "ens.csv"
    ens.to_csv(str(path))
    header, *rows = path.read_text().splitlines()
    path.write_text("\n".join([header] + edit(rows)) + "\n")
    with pytest.raises(ParameterError, match=f"line {line}:"):
        PathEnsemble.from_csv(str(path))


def test_cylindrical_container():
    grid = TimeGrid.regular(1.0, 8)
    cyl = simulate_cylindrical("fbm", {"H": 0.75}, 3, grid, 10, seed=1)
    with pytest.raises(ParameterError):
        CylindricalEnsemble(modes=2, coordinates=cyl.coordinates)


# ---------------------------------------------------------------------------
# fBm
# ---------------------------------------------------------------------------

def test_fbm_determinism_and_prefix_stability(grid_256):
    a = simulate_fbm(0.75, grid_256, replicas=8, seed=123).values
    b = simulate_fbm(0.75, grid_256, replicas=8, seed=123).values
    c = simulate_fbm(0.75, grid_256, replicas=3, seed=123).values
    assert np.array_equal(a, b)
    # replica substreams are counter-derived, so a shorter run carries the
    # same normals; the batched matmul may reorder sums at ulp level
    assert np.allclose(a[:3], c, rtol=1e-12, atol=1e-14)
    assert not np.array_equal(a, simulate_fbm(0.75, grid_256, 8, 124).values)


def test_replica_normals_prefix_exact():
    from volterra_spde.processes import _replica_normals
    big = _replica_normals(123, 0x01, 8, 32)
    small = _replica_normals(123, 0x01, 3, 32)
    tail = _replica_normals(123, 0x01, 5, 32, offset=3)
    assert np.array_equal(big[:3], small)
    assert np.array_equal(big[3:], tail)


def test_fbm_covariance_law(fbm_ens_075):
    vals = fbm_ens_075.values
    n = vals.shape[0]
    for (i, j) in ((128, 256), (64, 192), (256, 256)):
        s, t = fbm_ens_075.grid.points[i], fbm_ens_075.grid.points[j]
        prod = vals[:, i] * vals[:, j]
        emp = float(np.mean(prod))
        se = float(np.std(prod) / np.sqrt(n))
        exact = fbm_covariance_closed_form(0.75, s, t)
        assert abs(emp - exact) <= 3.0 * se


def test_fbm_increments_are_gaussian(fbm_ens_075):
    vals = fbm_ens_075.values
    inc = (vals[:, 192] - vals[:, 64]).ravel()
    z = (inc - inc.mean()) / inc.std()
    n = z.size
    skew = float(np.mean(z ** 3))
    exkurt = float(np.mean(z ** 4) - 3.0)
    assert abs(skew) <= 3.0 * np.sqrt(6.0 / n)
    assert abs(exkurt) <= 3.0 * np.sqrt(24.0 / n)


def test_fbm_rejects_bad_H(grid_256):
    for H in (0.5, 1.0, 0.2):
        with pytest.raises(ParameterError):
            simulate_fbm(H, grid_256, replicas=2, seed=0)


# ---------------------------------------------------------------------------
# Rosenblatt
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def rosen_sampler():
    # cheap parameters; the discrete model then differs from the continuum
    # one by a few percent, so checks below compare against the model's
    # own trace-formula moments, not against closed forms
    grid = TimeGrid(points=np.array([0.0, 0.25, 0.5, 0.75, 1.0]))
    return RosenblattSampler(0.75, grid, trunc=200.0, inner=256, check=False)


@pytest.fixture(scope="module")
def rosen_draws(rosen_sampler):
    return rosen_sampler.draw(4000, seed=5)


def test_rosenblatt_calibration_and_variance(rosen_sampler, rosen_draws):
    # C is defined by raw Var Z_T = 1, so the trace formula at T is 1 exactly
    smm = rosen_sampler.second_moment_matrix()
    assert smm[-1, -1] == pytest.approx(1.0, rel=1e-12)
    zT = rosen_draws[:, -1]
    m2 = float(np.mean(zT * zT))
    se = float(np.std(zT * zT) / np.sqrt(zT.size))
    assert abs(m2 - 1.0) <= 3.0 * se


def test_rosenblatt_covariance_matches_trace_formula(rosen_sampler, rosen_draws):
    z = rosen_draws[:, 1:]
    smm = rosen_sampler.second_moment_matrix()[1:, 1:]
    emp = z.T @ z / z.shape[0]
    se = np.sqrt(np.var(z[:, :, None] * z[:, None, :], axis=0) / z.shape[0])
    assert np.all(np.abs(emp - smm) <= 4.0 * se)


def test_rosenblatt_third_moment_and_skewness(rosen_sampler, rosen_draws):
    zT = rosen_draws[:, -1]
    m3 = float(np.mean(zT ** 3))
    se = float(np.std(zT ** 3) / np.sqrt(zT.size))
    oracle = rosen_sampler.third_moment()
    assert oracle > 0.0
    assert abs(m3 - oracle) <= max(5.0 * se, 0.05 * oracle)
    # strictly positive skewness separates the law from any Gaussian
    assert m3 > 3.0 * se


def test_rosenblatt_draw_determinism(rosen_sampler, rosen_draws):
    again = rosen_sampler.draw(3, seed=5)
    assert np.array_equal(rosen_draws[:3], again)


def test_include_diagonal_biases_the_mean(rosen_sampler, rosen_draws):
    # the diagonal term is a positive random variable; leaving it in
    # shifts the mean far off zero, which is what the mutation check
    # downstream relies on
    zd = rosen_sampler.draw(2000, seed=5, include_diagonal=True)
    m_clean = float(np.mean(rosen_draws[:2000, -1]))
    m_faulty = float(np.mean(zd[:, -1]))
    se = float(np.std(zd[:, -1]) / np.sqrt(2000))
    assert abs(m_clean) <= 5.0 * se
    assert m_faulty > 10.0 * se


def test_recoloring_matches_closed_form_covariance():
    grid = TimeGrid(points=np.array([0.0, 0.25, 0.5, 0.75, 1.0]))
    s = RosenblattSampler(0.75, grid, trunc=200.0, inner=256, check=False,
                          recolor=True)
    ts = grid.points[1:]
    exact = fbm_covariance_closed_form(0.75, ts[:, None], ts[None, :])
    disc = s.second_moment_matrix()[1:, 1:]
    R = s._recolor
    # the map is built so R^T (discrete covariance) R is the closed form
    assert np.max(np.abs(R.T @ disc @ R - exact)) <= 1e-10
    z = s.draw(4000, seed=6)[:, 1:]
    emp = z.T @ z / z.shape[0]
    se = np.sqrt(np.var(z[:, :, None] * z[:, None, :], axis=0) / z.shape[0])
    assert np.all(np.abs(emp - exact) <= 4.0 * se)
    # a linear map of the cell Gaussians stays in the second chaos, and
    # the third moment should stay close to the raw model's
    m3 = float(np.mean(z[:, -1] ** 3))
    se3 = float(np.std(z[:, -1] ** 3) / np.sqrt(z.shape[0]))
    assert m3 > 3.0 * se3


# The sampler takes its traces in cell space (Gram matrix G = F^T Omega F)
# and the draw's diagonal correction from a prefix table; the node-space
# formulas below, with S = F diag(dy) F^T, are the reference they must
# reproduce.

def _node_space_raw_variance(F, om, dy, k):
    Fk, omk = F[:k], om[:k]
    S = (Fk * dy) @ Fk.T
    b = omk @ (Fk * Fk)
    return 2.0 * (omk @ (S * S) @ omk - np.sum(b * b * dy * dy))


def _node_space_third_moment(s, k):
    Fk, om, dy = s.F[:k], s.omega[:k], s.dy
    S = (Fk * dy) @ Fk.T
    b = om @ (Fk * Fk)
    Sp = (Fk * (dy * dy * b)) @ Fk.T
    OS, OSp = S * om[:, None], Sp * om[:, None]
    core = (np.trace(OS @ OS @ OS) - 3.0 * np.trace(OS @ OSp)
            + 2.0 * np.sum(b ** 3 * dy ** 3))
    return 8.0 * s.C ** 3 * core


def _node_space_draw(s, replicas, seed, include_diagonal=False):
    """The draw with the diagonal removed per u-node, (F*F) @ dW^2."""
    F, om, dy, kend = s.F, s.omega, s.dy, s.kend
    g = _replica_normals(seed, STREAM_ROSENBLATT, replicas, dy.size)
    dw = (g * np.sqrt(dy)).T
    v = F @ dw
    diag = 0.0 if include_diagonal else (F * F) @ (dw * dw)
    contrib = (v * v - diag) * om[:, None]
    out = np.empty((replicas, len(kend)))
    acc, prev = np.zeros(replicas), 0
    for j, k in enumerate(kend):
        if k > prev:
            acc = acc + contrib[prev:k].sum(axis=0)
            prev = k
        out[:, j] = s.C * acc
    return out


@given(Hp=st.floats(0.55, 0.95), inner=st.integers(16, 64),
       trunc=st.floats(2.0, 50.0), n_steps=st.integers(1, 6),
       uniform=st.booleans(), replicas=st.integers(1, 7),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_cell_space_traces_and_draw_match_node_space(Hp, inner, trunc, n_steps,
                                                     uniform, replicas, seed):
    if uniform:
        grid = TimeGrid.regular(1.0, n_steps)
    else:
        widths = np.random.default_rng(seed).uniform(0.2, 1.0, n_steps)
        grid = TimeGrid(points=np.concatenate([[0.0], np.cumsum(widths)]))
    s = RosenblattSampler(Hp, grid, trunc=trunc, inner=inner, check=False)
    for j, k in enumerate(s.kend[1:], start=1):
        raw = RosenblattSampler._raw_variance(s.F, s.omega, s.dy, k)
        assert raw == pytest.approx(
            _node_space_raw_variance(s.F, s.omega, s.dy, k), rel=1e-12)
        assert s.third_moment(j) == pytest.approx(
            _node_space_third_moment(s, k), rel=1e-12)
    z = s.draw(replicas, seed)
    ref = _node_space_draw(s, replicas, seed)
    # v^2 minus the diagonal cancels to near zero in some entries, so the
    # tolerance is relative to the largest entry, not to each one
    np.testing.assert_allclose(z, ref, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(ref)))
    assert np.array_equal(s.draw(replicas, seed, include_diagonal=True),
                          _node_space_draw(s, replicas, seed,
                                           include_diagonal=True))


def test_certified_build_holds_no_node_by_node_matrix():
    # the doubled-inner assembly is the largest the certificate makes; its
    # u-node x u-node matrix is what a node-space trace would allocate
    grid = TimeGrid.regular(1.0, 256)
    tracemalloc.start()
    try:
        s = RosenblattSampler(0.75, grid, trunc=2.0e5, inner=256, check=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nodes = s._assemble(s.trunc, 2 * s.inner)[0].shape[0]
    assert peak < nodes * nodes * 8


def test_default_truncation_fails_certificate():
    # the truncation tail decays slowly; at trunc = 5T the variance still
    # moves ~10% when the domain doubles, and the certificate must say so
    grid = TimeGrid.regular(1.0, 4)
    with pytest.raises(TruncationError) as exc:
        simulate_rosenblatt(0.75, grid, inner=256, replicas=2, seed=0,
                            check=True)
    assert exc.value.drift > 0.02


def test_rosenblatt_rejects_bad_parameters():
    grid = TimeGrid.regular(1.0, 4)
    with pytest.raises(ParameterError):
        RosenblattSampler(0.4, grid)
    with pytest.raises(ParameterError):
        RosenblattSampler(0.75, grid, inner=4)
    with pytest.raises(ParameterError):
        RosenblattSampler(0.75, grid, trunc=0.1)


def test_third_moment_oracle_properties():
    assert third_moment_oracle(0.75, 0.0) == 0.0
    a = third_moment_oracle(0.75, 1.0, inner=256, trunc=200.0)
    b = third_moment_oracle(0.75, 1.0, inner=512, trunc=200.0)
    assert a > 0.0
    assert abs(b / a - 1.0) < 0.02


# ---------------------------------------------------------------------------
# cylindrical stacks
# ---------------------------------------------------------------------------

def test_cylindrical_modes_independent_and_unit_variance():
    grid = TimeGrid.regular(1.0, 32)
    cyl = simulate_cylindrical("fbm", {"H": 0.75}, 8, grid, 3000, seed=21)
    finals = np.stack([c.values[:, -1] for c in cyl.coordinates])
    for n in range(8):
        v = float(np.mean(finals[n] ** 2))
        se = float(np.std(finals[n] ** 2) / np.sqrt(3000))
        assert abs(v - 1.0) <= 3.0 * se
    corr = np.corrcoef(finals)
    off = corr[~np.eye(8, dtype=bool)]
    assert np.max(np.abs(off)) <= 4.0 / np.sqrt(3000)


def test_cylindrical_deterministic_per_mode():
    grid = TimeGrid.regular(1.0, 16)
    a = simulate_cylindrical("fbm", {"H": 0.75}, 3, grid, 5, seed=2)
    b = simulate_cylindrical("fbm", {"H": 0.75}, 5, grid, 5, seed=2)
    # adding modes must not disturb earlier ones
    for n in range(3):
        assert np.array_equal(a.coordinates[n].values, b.coordinates[n].values)
    with pytest.raises(ParameterError):
        simulate_cylindrical("unknown", {}, 2, grid, 5, seed=2)
