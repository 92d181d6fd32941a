"""Path sampling: grids, ensembles, fBm, Rosenblatt, cylindrical stacks.

The Gaussian side is checked against the closed-form covariance and
moment tests (skewness/kurtosis of standardized increments).  The
Rosenblatt side is checked against its own trace-formula moments, which
are exact for the discretized quadratic form, and against the closed
form after recoloring.  Truncation behavior uses the cheap parameters
(trunc ~ 1e2, inner 256) where the certificate outcome is known.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volterra_spde.errors import ParameterError, TruncationError
from volterra_spde.kernels import fbm_covariance_closed_form
from volterra_spde.processes import (_G_NODES, _REPLICA_TILE, _ROW_BLOCK,
                                     CylindricalEnsemble, PathEnsemble,
                                     RosenblattSampler, TimeGrid,
                                     _replica_normals, _rosenblatt_edges,
                                     make_sampler, simulate_cylindrical,
                                     simulate_fbm, simulate_rosenblatt,
                                     third_moment_oracle)
from volterra_spde.quadrature import panels_from_edges
from volterra_spde.seeding import STREAM_CYLINDRICAL, STREAM_ROSENBLATT


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
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    # 17 significant digits round-trips float64 exactly
    assert np.array_equal(back[:, 2].reshape(ens.values.shape), ens.values)
    assert np.array_equal(back[:17, 1], ens.grid.points)
    times = ens.grid.points
    ref = "replica,time,value\n" + "".join(
        f"{r:d},{times[j]:.17g},{ens.values[r, j]:.17g}\n"
        for r in range(ens.replicas) for j in range(times.size))
    assert open(path).read() == ref


def test_cylindrical_container():
    # coordinate n is the family sampler's draw on the substream family
    # (seed, cylindrical, family stream, n), bit for bit, on every call
    grid = TimeGrid.regular(1.0, 8)
    for family, params in (("fbm", {"H": 0.75}),
                           ("rosenblatt", {"Hp": 0.75, "trunc": 200.0,
                                           "inner": 64, "check": False,
                                           "recolor": True})):
        cyl = simulate_cylindrical(family, params, 3, grid, 10, seed=1)
        assert isinstance(cyl, CylindricalEnsemble)
        assert (cyl.modes, cyl.replicas, cyl.grid) == (3, 10, grid)
        sampler, stream = make_sampler(family, params, grid)
        for n in range(3):
            want = sampler.draw(10, 1, STREAM_CYLINDRICAL, stream, n)
            assert np.array_equal(cyl.coordinate(n).values, want)
            assert np.array_equal(cyl.coordinate(n).values, want)
            assert cyl.coordinate(n).params == dict(params, mode=n)
        with pytest.raises(ParameterError):
            CylindricalEnsemble(family, params, 0, grid, 10, seed=1)


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
    ref = _node_space_draw(s, replicas, seed, include_diagonal=True)
    np.testing.assert_allclose(s.draw(replicas, seed, include_diagonal=True),
                               ref, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(ref)))


def test_certified_build_holds_no_node_by_node_matrix(peak_bytes):
    # the doubled-inner assembly is the largest the certificate makes; its
    # u-node x u-node matrix is what a node-space trace would allocate
    grid = TimeGrid.regular(1.0, 256)
    s, peak = peak_bytes(lambda: RosenblattSampler(0.75, grid, trunc=2.0e5,
                                                   inner=256, check=True))
    nodes = s._assemble(s.trunc, 2 * s.inner)[0].shape[0]
    assert peak < nodes * nodes * 8


def _node_space_second_moments(s):
    """C^2 E[Q_s Q_t] for every pair of output times, from the full S."""
    F, om, dy = s.F, s.omega, s.dy
    S = (F * dy) @ F.T
    P = np.zeros((F.shape[0] + 1, F.shape[0] + 1))
    P[1:, 1:] = np.cumsum(np.cumsum(om[:, None] * S * S * om[None, :], 0), 1)
    b = np.array([om[:k] @ (F[:k] * F[:k]) for k in s.kend]) * dy
    return 2.0 * s.C ** 2 * (P[np.ix_(s.kend, s.kend)] - b @ b.T)


def _two_power_features(s, trunc, inner):
    """The dense feature matrix, both antiderivative powers on every cell,
    with the u-node weights and cell widths it goes with."""
    edges = _rosenblatt_edges(s.grid.T, trunc, inner)
    yl, yr = edges[:-1], edges[1:]
    interior = edges[(edges > 0.0) & (edges < s.grid.T)]
    u, om = panels_from_edges(np.unique(np.concatenate([s.grid.points,
                                                        interior])),
                              n_nodes=_G_NODES)
    e1, ub = 1.0 - s.sigma, u[:, None]
    F = (np.maximum(ub - yl, 0.0) ** e1
         - np.maximum(ub - yr, 0.0) ** e1) / (e1 * (yr - yl))
    return F, om, yr - yl, np.searchsorted(yl, u, "left")


@pytest.fixture(scope="module")
def staircase_sampler():
    # three row blocks of F, 31 % of it right of the staircase
    grid = TimeGrid.regular(1.0, 16)
    return RosenblattSampler(0.75, grid, trunc=2.0e3, inner=512, check=False)


def test_staircase_feature_matrix_is_the_dense_formula(staircase_sampler):
    s = staircase_sampler
    F, _, _, ncol = _two_power_features(s, s.trunc, s.inner)
    assert s.F.shape == (1408, 553)
    assert -(-s.F.shape[0] // _ROW_BLOCK) == 3
    assert s.F.tobytes() == F.tobytes()
    right = np.arange(F.shape[1])[None, :] >= ncol[:, None]
    assert np.all(s.F[right] == 0.0) and np.all(s.F[~right] != 0.0)
    assert 0.3 < right.mean() < 0.32


def test_staircase_traces_match_node_space(staircase_sampler):
    s = staircase_sampler
    for j, k in enumerate(s.kend[1:], start=1):
        raw = RosenblattSampler._raw_variance(s.F, s.omega, s.dy, k)
        assert raw == pytest.approx(
            _node_space_raw_variance(s.F, s.omega, s.dy, k), rel=1e-12)
        assert s.third_moment(j) == pytest.approx(
            _node_space_third_moment(s, k), rel=1e-12)
    np.testing.assert_allclose(s.second_moment_matrix(),
                               _node_space_second_moments(s), rtol=1e-12,
                               atol=0.0)


def test_streamed_certificate_matches_stored_features(staircase_sampler):
    # the doubled models stream their row blocks into the Gram matrix;
    # storing the dense matrix first must give the same drifts bit for bit
    s = staircase_sampler
    stored = {}
    for name, trunc, inner in (("trunc", 2.0 * s.trunc, s.inner),
                               ("inner", s.trunc, 2 * s.inner)):
        F, om, dy, _ = _two_power_features(s, trunc, inner)
        stored[name] = (RosenblattSampler._raw_variance(F, om, dy, om.size)
                        / s._raw_var_T - 1.0)
    # trunc 2e3 leaves the truncation drift just above the 2 % budget
    worst = max(abs(v) for v in stored.values())
    assert worst > 0.02
    with pytest.raises(TruncationError) as exc:
        s._convergence_check(s._raw_var_T)
    assert exc.value.drift == worst


def test_second_moment_matrix_holds_no_node_by_node_matrix(staircase_sampler,
                                                           peak_bytes):
    s = staircase_sampler
    _, peak = peak_bytes(s.second_moment_matrix)
    assert peak < s.F.shape[0] ** 2 * 8


def test_certificate_never_stores_a_doubled_feature_matrix(peak_bytes):
    # many output times make many u-nodes, so the doubled-inner F spans
    # eight row blocks while the Gram matrix stays cells x cells
    grid = TimeGrid.regular(1.0, 1024)
    s = RosenblattSampler(0.75, grid, trunc=2.0e5, inner=256, check=False)
    om, dy, _, _ = s._assemble(s.trunc, 2 * s.inner)
    drifts, peak = peak_bytes(lambda: s._convergence_check(s._raw_var_T))
    assert max(abs(v) for v in drifts.values()) < 0.02
    assert peak < om.size * dy.size * 8


@pytest.fixture(scope="module")
def sampler_1024():
    # many output times make many u-nodes: the doubled-inner F spans eight
    # row blocks while its Gram matrix stays cells x cells
    return RosenblattSampler(0.75, TimeGrid.regular(1.0, 1024), trunc=2.0e5,
                             inner=256, check=False)


def test_certificate_holds_one_gram_matrix(sampler_1024, peak_bytes):
    # each Gram pass adds its blocks panel by panel into G itself and the
    # assembly works in place, so the certificate peaks below one cells^2
    # matrix of the doubled-inner model plus four of its row blocks
    s = sampler_1024
    dy = s._assemble(s.trunc, 2 * s.inner)[1]
    _, peak = peak_bytes(lambda: s._convergence_check(s._raw_var_T))
    assert peak < (dy.size + 4 * _ROW_BLOCK) * dy.size * 8


def test_second_moment_matrix_holds_no_node_by_time_matrix(sampler_1024,
                                                           peak_bytes):
    # the double prefix sums carry from one row block to the next, so no
    # (u-nodes x output times) accumulator exists
    s = sampler_1024
    _, peak = peak_bytes(s.second_moment_matrix)
    assert peak < s.F.shape[0] * len(s.kend) * 8 / 2


PREFIX_REPLICAS = (1, 2, 3, 4, 8, 16, 50, 100, 255, 256, 257, 500, 1000)


@pytest.mark.parametrize("steps", (4, 64, 512))
def test_rosenblatt_draw_is_a_bitwise_prefix(tile_samplers, steps):
    # every replica tile has the same matrix shapes, so a shorter draw is
    # the head of a longer one bit for bit, recoloured or not
    s = tile_samplers[steps]
    draw, core = s.draw(2000, seed=11), s.core(2000, seed=11)
    for r in PREFIX_REPLICAS:
        assert np.array_equal(s.draw(r, seed=11), draw[:r])
        assert np.array_equal(s.core(r, seed=11), core[:r])
    if steps == 64:
        diag = s.draw(2000, 11, include_diagonal=True)
        for r in (1, 255, 257):
            assert np.array_equal(s.draw(r, 11, include_diagonal=True),
                                  diag[:r])


def test_rosenblatt_draw_holds_one_tile(tile_samplers, peak_bytes):
    # beyond its output the draw holds one tile's temporaries, so the peak
    # above the output does not grow with the replica count
    s = tile_samplers[64]
    above = []
    for replicas in (512, 2048, 8192):
        z, peak = peak_bytes(lambda: s.draw(replicas, seed=3))
        above.append(peak - z.nbytes)
    assert max(above) <= 1.01 * min(above)
    assert max(above) < 3 * s.F.shape[0] * _REPLICA_TILE * 8


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
    finals = np.stack([cyl.coordinate(n).values[:, -1] for n in range(8)])
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
        assert np.array_equal(a.coordinate(n).values, b.coordinate(n).values)
    with pytest.raises(ParameterError):
        simulate_cylindrical("unknown", {}, 2, grid, 5, seed=2)
