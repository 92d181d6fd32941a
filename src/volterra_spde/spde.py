"""Spectral-Galerkin mild solutions of dX = A X dt + Phi dB on an interval.

The operator A is defined spectrally on (0, L) with Dirichlet data:
eigenvalues lambda_k = (k pi / L)^{2m} and eigenfunctions
e_k(x) = sqrt(2/L) sin(k pi x / L).  The driver B is a cylindrical
Volterra process; the noise operator Phi is either pointwise (a Dirac
section at z in (0, L), one scalar driver) or diagonal (per-mode
coefficients phi_k, one driver per mode).  The mild solution decouples
into scalar stochastic convolutions

    X_k(t) = e^{-lambda_k t} x0_k + c_k integral_0^t e^{-lambda_k (t-r)} db_r^{(k)},

computed pathwise by the refined left-point Riemann-Stieltjes rule.  For
an exponential integrand that rule has a closed form: with rho = e^{-l D}
over a cell of width D refined ref-fold (d = D / ref),

    omega(l, D, ref) = e^{-l d} (1 - e^{-l D}) / (ref (1 - e^{-l d})),

and the whole convolution is the causal filter
X_{n+1} = rho_n X_n + omega_n db_n, so cost is independent of the
refinement and no exponentials of positive arguments ever appear.  It is
solved as the unit lower-bidiagonal banded system (I - rho S) X = omega db,
one LAPACK ``dtbtrs`` call per mode, on uniform and non-uniform grids;
its transpose gives the path weights V of chosen increments of X, and
X at kept times is the increment from X(0) = 0.  For a driver drawn as
``core @ linear_map`` these are c_k core @ (linear_map @ V), so
``solve_mild(times=...)`` and the streaming variogram form no path.

The factorization route computes Y_u by the pathwise rule with
integrand (u - r)^{-beta} e^{-lambda (u - r)} and recovers the
convolution at T by the weighted time integral with density
Lambda (T - u)^{beta - 1}, Lambda = sin(pi beta) / pi, using the
substitution w = (T - u)^beta for the endpoint singularity.  Both
integrals are linear in the path, so they too are one weight vector per
mode, read through the same fold.

All reductions over replicas, modes, and nodes use numpy's fixed-order
pairwise summation, so results do not depend on how work is partitioned.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dtbtrs

from .errors import (AdmissibilityError, AlignmentError, ConfigurationError,
                     NumericError, ParameterError, TruncationError)
from .kernels import VolterraKernel
from .processes import CylindricalEnsemble, TimeGrid
from .quadrature import gauss_legendre_panels, ols_fit, two_sided_singular_rule
from .wiener_integral import (elementary_integral, integral_variance,
                              uniform_fbm_quadratic_form)

__all__ = [
    "SpectralModel",
    "NoiseOperator",
    "MildSolutionField",
    "HolderParameters",
    "build_model",
    "gamma_radonifying_norm",
    "estimate_gamma_decay",
    "exp_convolution_weight",
    "mode_convolution",
    "mode_increment_weights",
    "solve_mild",
    "per_mode_variance_oracle",
    "factorization_constant_check",
    "factorization_weights",
    "elementary_operator_check",
]

# factorization route: refinement of the pathwise Y^delta_u integrals, and
# (panels, nodes) of the u-quadrature after w = (T - u)^beta
_FACTOR_REFINEMENT = 16
_FACTOR_U_PANELS = (12, 8)


# ---------------------------------------------------------------------------
# model and noise
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralModel:
    """Eigen-decomposition of the 2m-order Dirichlet operator on (0, L)."""

    L: float
    m: int
    modes: int
    nodes: np.ndarray
    weights: np.ndarray
    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray   # (modes, n_nodes)

    def lp_norm(self, values: np.ndarray, p: float) -> np.ndarray:
        """L^p(0, L) norm over the node quadrature, batched over rows."""
        v = np.atleast_2d(values)
        out = np.sum(self.weights[None, :] * np.abs(v) ** p, axis=1) ** (1.0 / p)
        return out if np.asarray(values).ndim > 1 else float(out[0])

    def fractional_norm(self, coeff: np.ndarray, delta: float,
                        p: float) -> np.ndarray:
        """|| sum_k lambda_k^delta coeff_k e_k ||_{L^p}, one per row of coeff.

        The Dirichlet spectrum is strictly positive, so no spectral shift
        is needed for the fractional power.
        """
        if delta < 0.0:
            raise ParameterError(f"delta must be >= 0, got {delta}")
        weighted = coeff * self.eigenvalues[None, :] ** delta
        return self.lp_norm(weighted @ self.eigenfunctions, p)


def build_model(L: float, m: int, modes: int, nodes: int) -> SpectralModel:
    """Spectral model with lambda_k = (k pi / L)^{2m} and sine modes.

    ``nodes`` Gauss-Legendre points on (0, L) must resolve products of
    the highest modes; the pre-condition nodes >= 4 modes plus the
    orthonormality validation (Gram matrix within 1e-6 of identity)
    guard that.
    """
    if modes < 1:
        raise ParameterError(f"modes must be >= 1, got {modes}")
    if nodes < 4 * modes:
        raise ParameterError(f"need nodes >= 4*modes, got {nodes} < {4 * modes}")
    if not (L > 0.0 and m >= 1):
        raise ParameterError(f"need L > 0 and m >= 1, got L={L}, m={m}")
    if not np.isfinite(L):
        raise ConfigurationError(
            f"eigenfunctions not orthonormal on a non-finite interval L={L}")
    # 32-point panels resolve the highest mode with >= 8 points per
    # wavelength at nodes = 4*modes; odd counts round the panel number up
    if nodes <= 64:
        x, w = gauss_legendre_panels(0.0, L, 1, nodes)
    else:
        x, w = gauss_legendre_panels(0.0, L, -(-nodes // 32), 32)
    k = np.arange(1, modes + 1)
    lam = (k * np.pi / L) ** (2 * m)
    E = np.sqrt(2.0 / L) * np.sin(k[:, None] * np.pi * x[None, :] / L)
    gram = (E * w[None, :]) @ E.T
    err = np.max(np.abs(gram - np.eye(modes)))
    if not err <= 1e-6:
        raise ConfigurationError(
            f"eigenfunctions not orthonormal on the node quadrature: "
            f"max Gram deviation {err:.2e} (modes={modes}, nodes={nodes})")
    return SpectralModel(L=float(L), m=int(m), modes=int(modes), nodes=x,
                         weights=w, eigenvalues=lam, eigenfunctions=E)


@dataclass(frozen=True)
class NoiseOperator:
    """Phi in L(U, L^p): pointwise Dirac section or diagonal multiplier."""

    kind: str
    z: float | None = None
    phi_k: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == "pointwise":
            if self.z is None:
                raise ParameterError("pointwise noise needs a location z")
        elif self.kind == "diagonal":
            if self.phi_k is None:
                raise ParameterError("diagonal noise needs mode coefficients phi_k")
            object.__setattr__(self, "phi_k",
                               np.asarray(self.phi_k, dtype=float))
        else:
            raise ParameterError(f"noise kind must be pointwise or diagonal, got {self.kind!r}")

    def driver_modes(self, model: SpectralModel) -> int:
        return 1 if self.kind == "pointwise" else model.modes

    def mode_coefficients(self, model: SpectralModel) -> np.ndarray:
        """c_k multiplying the k-th scalar convolution."""
        if self.kind == "pointwise":
            if not 0.0 < self.z < model.L:
                raise ParameterError(f"z={self.z} outside (0, {model.L})")
            kk = np.arange(1, model.modes + 1)
            return np.sqrt(2.0 / model.L) * np.sin(kk * np.pi * self.z / model.L)
        if self.phi_k.shape != (model.modes,):
            raise AlignmentError(
                f"{self.phi_k.shape[0]} diagonal coefficients for "
                f"{model.modes} modes")
        return self.phi_k


@dataclass(frozen=True)
class HolderParameters:
    """The exponent bundle (alpha, gamma, delta, beta, p)."""

    alpha: float
    gamma: float = 0.0
    delta: float = 0.0
    beta: float = 0.0
    p: float = 2.0

    def __post_init__(self):
        if not 0.0 < self.alpha < 0.5:
            raise ParameterError(f"alpha={self.alpha} outside (0, 1/2)")
        if self.beta > 0.0 and not self.beta + self.delta < self.alpha + 0.5:
            raise ParameterError(
                f"factorization needs beta + delta < alpha + 1/2, got "
                f"{self.beta} + {self.delta} >= {self.alpha + 0.5}")
        if not 0.0 <= self.gamma < self.alpha + 0.5:
            raise AdmissibilityError(
                f"gamma={self.gamma} outside [0, {self.alpha + 0.5}); no "
                f"admissible Holder order exists")


# ---------------------------------------------------------------------------
# gamma-radonifying norms
# ---------------------------------------------------------------------------

def _radonifying_section(model: SpectralModel, noise: NoiseOperator, u: float):
    """U-norm of r_u(x) at every spatial node."""
    decay = np.exp(-model.eigenvalues * u)
    c = noise.mode_coefficients(model)
    if noise.kind == "pointwise":
        return np.abs((decay * c) @ model.eigenfunctions)
    amp = (decay * c)[:, None] * model.eigenfunctions
    return np.sqrt(np.sum(amp * amp, axis=0))


def gamma_radonifying_norm(model: SpectralModel, noise: NoiseOperator,
                           u: float, p: float, check: bool = False) -> float:
    """(integral_0^L ||r_u(x)||_U^p dx)^{1/p} for the semigroup section.

    With ``check`` on, the norm is recomputed on a doubled-mode model and
    a relative drift above 1% raises (mode truncation not converged at
    this u).
    """
    if not u > 0.0:
        raise ParameterError(f"u must be > 0, got {u}")
    base = float(model.lp_norm(_radonifying_section(model, noise, u), p))
    if check:
        big, big_noise = _doubled_problem(model, noise, extend="zero")
        ref = float(big.lp_norm(_radonifying_section(big, big_noise, u), p))
        drift = abs(ref - base) / ref if ref > 0 else 0.0
        if drift > 0.01:
            raise TruncationError(
                f"gamma-norm drifts {drift:.2%} when modes double at u={u}",
                drift=drift)
    return base


def _doubled_problem(model: SpectralModel, noise: NoiseOperator, *,
                     extend: str) -> tuple[SpectralModel, NoiseOperator]:
    """Twice the modes; diagonal noise extended by ``extend`` = "zero" (the
    same operator) or "last" (a sequence continuing at its last value)."""
    big = build_model(model.L, model.m, 2 * model.modes,
                      max(model.nodes.size, 8 * model.modes))
    if noise.kind == "pointwise":
        return big, noise
    fill = {"zero": 0.0, "last": noise.phi_k[-1]}[extend]
    ext = np.concatenate([noise.phi_k, np.full(model.modes, fill)])
    return big, NoiseOperator(kind="diagonal", phi_k=ext)


def estimate_gamma_decay(model: SpectralModel, noise: NoiseOperator, p: float,
                         u_grid: np.ndarray, *, alpha: float) -> dict:
    """Least-squares exponent gamma-hat in ||S(u) Phi|| ~ u^{-gamma}.

    ``u_grid`` must span at least two decades.  Admissible means
    gamma-hat < alpha + 1/2 - 0.02, the margin the downstream regularity
    statements need; an R^2 below 0.99 marks the power-law fit itself as
    doubtful in the report.
    """
    u_grid = np.asarray(u_grid, dtype=float)
    if u_grid.size < 3 or np.max(u_grid) / np.min(u_grid) < 100.0:
        raise ParameterError("u_grid must span >= 2 decades with >= 3 points")
    norms = np.array([gamma_radonifying_norm(model, noise, u, p) for u in u_grid])
    if np.any(norms <= 0.0):
        raise NumericError("gamma-norm vanished on the fit grid")
    slope, _, r_sq = ols_fit(np.log(u_grid), np.log(norms))
    gamma_hat = -slope
    return {
        "gamma_hat": gamma_hat,
        "admissible": bool(gamma_hat < alpha + 0.5 - 0.02),
        "r_squared": r_sq,
        "fit_warning": bool(r_sq < 0.99),
        "norms": norms,
    }


# ---------------------------------------------------------------------------
# per-mode convolution
# ---------------------------------------------------------------------------

def exp_convolution_weight(lam: float, dt, refinement: int | None):
    """Cell weight of the refined left-point rule for e^{-lam (t - .)}.

    ``refinement=None`` gives the cell-mean limit (1 - e^{-lam dt})/(lam dt).
    Vectorized over dt; returns 1 where lam * dt is negligible.
    """
    if refinement is not None and refinement < 1:
        raise ParameterError(f"refinement must be >= 1, got {refinement}")
    dt = np.asarray(dt, dtype=float)
    x = lam * dt
    out = np.ones_like(x)
    big = x > 1e-12
    if np.any(big):
        xb = x[big]
        if refinement is None:
            out[big] = -np.expm1(-xb) / xb
        else:
            d = xb / refinement
            out[big] = np.exp(-d) * (-np.expm1(-xb)) / (-np.expm1(-d)) / refinement
    return out if out.ndim else float(out)


def mode_convolution(lam: float, increments: np.ndarray, grid: TimeGrid,
                     refinement: int | None = 64) -> np.ndarray:
    """integral_0^{t_n} e^{-lam (t_n - r)} db_r for every n, per replica.

    ``increments`` is (replicas, N); returns (replicas, N + 1) starting
    at zero.  The recursion X_{n+1} = rho_n X_n + omega_n db_n is the unit
    lower-bidiagonal system (I - rho S) X = omega db, solved for every
    replica by one banded ``dtbtrs`` call on any grid, uniform or not.
    """
    out = np.empty((increments.shape[0], grid.points.size))
    out[:, 0] = 0.0
    np.multiply(exp_convolution_weight(lam, np.diff(grid.points), refinement),
                increments, out=out[:, 1:])
    # out.T is F-contiguous, so the solve overwrites out without a copy
    return _solve_band(lam, grid, out.T, "N").T


def mode_increment_weights(lam: float, grid: TimeGrid, pairs,
                           refinement: int | None = 64) -> np.ndarray:
    """(N, len(pairs)) V: ``path[:, 1:] @ V`` is ``conv[:, b + lag] -
    conv[:, b]`` per (b, lag) in ``pairs``, for ``conv = mode_convolution(
    lam, diff(path), grid, refinement)`` and a path starting at zero."""
    omega = exp_convolution_weight(lam, np.diff(grid.points), refinement)
    sel = np.zeros((grid.points.size, len(pairs)), order="F")
    for j, (b, lag) in enumerate(pairs):
        sel[b + lag, j], sel[b, j] = 1.0, -1.0
    w = omega[:, None] * _solve_band(lam, grid, sel, "T")[1:]
    w[:-1] -= w[1:]
    return w


def _folded_modes(model: SpectralModel, noise: NoiseOperator, driver,
                  weights):
    """Yield (k, c_k core(k) @ (linear_map @ weights(k))) for every mode k.

    ``driver`` is a :class:`CylindricalEnsemble`, whose coordinate n is
    ``core(n) @ linear_map`` after its zero column (None is the identity
    map), and ``weights(k)`` mode k's (N, P) path weights, so each mode's
    linear functionals of its path come with no path formed.  One product
    maps the weights of a block of at most replicas // P modes (never more
    than one replicas x N path); pointwise noise draws its one core once.
    """
    c = noise.mode_coefficients(model)
    linear_map = driver.sampler.linear_map
    shared = driver.core(0) if noise.kind == "pointwise" else None
    first = weights(0)
    P = first.shape[1]
    block = max(1, driver.replicas // P)
    for lo in range(0, model.modes, block):
        ks = range(lo, min(lo + block, model.modes))
        M = np.hstack([first if k == 0 else weights(k) for k in ks])
        M = M if linear_map is None else linear_map @ M
        for i, k in enumerate(ks):
            z = driver.core(k) if shared is None else shared
            yield k, c[k] * (z @ M[:, i * P:(i + 1) * P])


def _solve_band(lam: float, grid: TimeGrid, rhs: np.ndarray, trans: str):
    """(I - rho S) X = rhs, or its transpose, solved over rhs when F-ordered."""
    band = np.ones((2, grid.points.size))     # row 0 unread with diag="U"
    band[1, :-1] = -np.exp(-lam * np.diff(grid.points))
    sol, info = dtbtrs(band, rhs, uplo="L", trans=trans, diag="U",
                       overwrite_b=1)
    if info != 0:
        raise NumericError(f"banded convolution solve: dtbtrs info={info}")
    return sol


# ---------------------------------------------------------------------------
# mild solutions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MildSolutionField:
    """Per-mode coefficient paths X_k(t) of one mild solution."""

    grid: TimeGrid
    model: SpectralModel
    mode_paths: np.ndarray          # (replicas, modes, N + 1)
    metadata: dict = field(default_factory=dict)

    @property
    def replicas(self) -> int:
        return self.mode_paths.shape[0]

    def field_values(self, t: float) -> np.ndarray:
        """(replicas, n_nodes) field samples sum_k X_k(t) e_k(x)."""
        return self.mode_paths[:, :, self.grid.index(t)] @ self.model.eigenfunctions

    def snapshot_to_csv(self, path: str, times=None) -> None:
        """(replica, time, node, value) rows at the given grid times."""
        times = self.grid.points if times is None else np.asarray(times, dtype=float)
        fmt = "{:.17g}".format
        nodes = list(map(fmt, self.model.nodes.tolist()))
        with open(path, "w") as fh:
            fh.write("replica,time,node,value\n")
            for t in times.tolist():
                mids = [f",{fmt(t)},{x}," for x in nodes]
                for r, row in enumerate(self.field_values(t).tolist()):
                    fh.write("".join([f"{r}{m}{v}\n"
                                      for m, v in zip(mids, map(fmt, row))]))


def solve_mild(model: SpectralModel, noise: NoiseOperator,
               driver: CylindricalEnsemble, x0: np.ndarray | None,
               grid: TimeGrid, refinement: int | None = 64,
               times: list[float] | None = None) -> MildSolutionField:
    """Mild solution X_t = S(t) x0 + integral_0^t S(t-r) Phi dB_r.

    ``driver`` is a :class:`CylindricalEnsemble` sampled on ``grid`` with
    ``noise.driver_modes(model)`` coordinates: one, shared by every mode,
    for pointwise noise, and ``model.modes`` for diagonal noise.  Without
    ``times`` each mode's coordinate is drawn, convolved over the whole
    grid and stored in turn.  ``times`` (grid times) keeps only t = 0 and
    those columns, on the grid of the kept times: their weights are folded
    into the driver's last linear map (see :func:`mode_increment_weights`),
    so no path is formed and each kept value agrees with the full solve's
    to rounding.
    """
    c = noise.mode_coefficients(model)
    n_drivers = noise.driver_modes(model)
    if driver.modes != n_drivers:
        raise AlignmentError(
            f"noise kind {noise.kind!r} needs {n_drivers} driver modes, "
            f"ensemble has {driver.modes}")
    if not np.array_equal(driver.grid.points, grid.points):
        raise AlignmentError("driver grid differs from solver grid")
    if x0 is None:
        x0 = np.zeros(model.modes)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (model.modes,):
        raise ParameterError(f"x0 shape {x0.shape}, expected ({model.modes},)")
    keep, out_grid = None, grid
    if times is not None:
        keep = np.unique([0, *(grid.index(t) for t in times)])
        out_grid = TimeGrid(points=grid.points[keep])
    meta = {"driver_family": driver.family,
            "driver_params": dict(driver.params, mode=0), "seed": driver.seed,
            "noise": noise.kind, "refinement": refinement}
    flow = np.exp(-model.eigenvalues[:, None] * out_grid.points[None, :])
    paths = np.empty((driver.replicas, model.modes, out_grid.points.size))
    if keep is not None:
        # X_k(0) = 0 without the flow, so column j is the increment (0, j)
        pairs = [(0, j) for j in keep]
        for k, d in _folded_modes(
                model, noise, driver, lambda k: mode_increment_weights(
                    model.eigenvalues[k], grid, pairs, refinement)):
            paths[:, k, :] = x0[k] * flow[k][None, :] + d
    else:
        for k in range(model.modes):
            if k < n_drivers:   # pointwise noise reuses its one driver path
                incs = np.diff(driver.coordinate(k).values, axis=1)
            paths[:, k, :] = x0[k] * flow[k][None, :] + c[k] * \
                mode_convolution(model.eigenvalues[k], incs, grid, refinement)
            if n_drivers > 1:
                del incs        # not held while the next mode is drawn
    return MildSolutionField(grid=out_grid, model=model, mode_paths=paths,
                             metadata=meta)


def per_mode_variance_oracle(lam: float, t: float, H: float,
                             n_cells: int = 4096) -> float:
    """H(2H-1) iint_{[0,t]^2} e^{-lam(t-u)-lam(t-v)} |u-v|^{2H-2} du dv.

    Independent of the solver: the exponential is discretized as a
    midpoint step function on ``n_cells`` uniform cells, whose double
    integral is exact as an FFT-evaluated Toeplitz quadratic form
    (:func:`uniform_fbm_quadratic_form`).  Midpoint bias is O((lam t / n)^2).
    """
    edges = np.linspace(0.0, t, n_cells + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    return float(uniform_fbm_quadratic_form(np.exp(-lam * (t - mid)),
                                            t / n_cells, H))


# ---------------------------------------------------------------------------
# factorization
# ---------------------------------------------------------------------------

def factorization_constant_check(beta: float, r: float, t: float) -> float:
    """Quadrature of integral_r^t (t-u)^{beta-1} (u-r)^{-beta} du.

    Equals pi / sin(pi beta) identically in (r, t); the singular ends are
    absorbed by the two-sided substitution rule.
    """
    if not 0.0 < beta < 1.0:
        raise ParameterError(f"beta={beta} outside (0, 1)")
    if not r < t:
        raise ParameterError(f"need r < t, got {r} >= {t}")
    nodes, weights = two_sided_singular_rule(r, t, -beta, beta - 1.0)
    return float(np.sum(weights))


def factorization_weights(lam, grid: TimeGrid, beta: float) -> np.ndarray:
    """Path weights w of the factorization route: X(T) = c path[:, 1:] @ w.

    Per mode, Y_u is the pathwise integral of (u - r)^{-beta}
    e^{-lambda (u - r)} up to the off-grid u by the refined left-point
    rule (cells before u's carry the mean of the integrand over their
    left points, u's own cell the mean over [t_j, u) times the
    interpolated fraction (u - t_j) / (t_{j+1} - t_j)), and

        X(T) = Lambda integral_0^T (T-u)^{beta-1} e^{-lambda (T-u)} Y_u du,
        Lambda = sin(pi beta) / pi,

    with the endpoint singularity removed by w = (T - u)^beta.  The
    u-quadrature is summed into one increment weight vector
    (Lambda/beta) sum_u wq_u e^{-lambda (T-u)} rs(u), taken to path
    weights by the difference transpose as in
    :func:`mode_increment_weights`.  The paper's split of the semigroup
    as lambda^{-delta} times lambda^delta Y_u cancels per mode, so the
    weights do not depend on delta.  An array ``lam`` gives (N, modes),
    one column per eigenvalue; the sum over u of (u - r)^{-beta}, which
    does not depend on lambda, is formed once.
    """
    if not 0.0 < beta < 1.0:
        raise ParameterError(f"factorization needs 0 < beta < 1, got {beta}")
    lam = np.asarray(lam, dtype=float)
    t, T, ref = grid.points, grid.T, _FACTOR_REFINEMENT
    w_nodes, wq = gauss_legendre_panels(0.0, T ** beta, *_FACTOR_U_PANELS)
    u = T - w_nodes ** (1.0 / beta)
    wq, u = wq[u > 0.0], u[u > 0.0]
    cell = np.searchsorted(t, u, "right") - 1
    # full cells left of u's cell: K(r) = sum_u wq_u (u - r)^{-beta} at
    # the refined left points r of every cell
    r = t[:-1] + np.diff(t) * (np.arange(ref)[:, None] / ref)     # (ref, N)
    left = np.arange(grid.n_steps)[None, :] < cell[:, None]       # (U, N)
    K = np.stack([wq @ (np.where(left, u[:, None] - ri, 1.0) ** -beta * left)
                  for ri in r])
    # u's own cell up to u, scaled by the interpolated increment fraction
    rem = u - t[cell]
    part = rem > 1e-14          # u = T rounds onto the grid's last point
    up, cp, rp, wp = u[part], cell[part], rem[part], wq[part]
    s = t[cp][:, None] + (rp / ref)[:, None] * np.arange(ref)     # (U', ref)
    frac = wp * rp / (t[cp + 1] - t[cp])
    out = np.empty((grid.n_steps, lam.size))
    for i, lk in enumerate(lam.ravel()):
        w = np.mean(K * np.exp(-lk * (T - r)), axis=0)
        np.add.at(w, cp, frac * np.mean((up[:, None] - s) ** -beta
                                        * np.exp(-lk * (T - s)), axis=1))
        w *= np.sin(np.pi * beta) / (np.pi * beta)
        w[:-1] -= w[1:]
        out[:, i] = w
    return out if lam.ndim else out[:, 0]


# ---------------------------------------------------------------------------
# elementary operators
# ---------------------------------------------------------------------------

def elementary_operator_check(model: SpectralModel, kernel: VolterraKernel,
                              gs: list, fs: list, coordinates: list,
                              q: float, p: float = 2.0) -> dict:
    """Both sides of the square-function characterization for elementary G.

    G = sum_k g_k <., e_k> f_k with step g_k and node-sampled f_k.  The
    Monte Carlo side is ||I_T(G)||_{L^q(Omega; L^p)} with
    I_T(G) = sum_k i_T(g_k) f_k, where i_T(g_k) integrates g_k against
    ``coordinates[k]``, coordinate k of one cylindrical driver (from
    :meth:`CylindricalEnsemble.coordinate`); the deterministic side is
    the square function (integral (sum_k ||g_k||^2 f_k(x)^2)^{p/2}
    dx)^{1/p} with
    ||g_k||^2 = integral_variance(g_k).  Also evaluates the embedding
    norm (integral_0^T ||G(t)||^{2/(1+2 alpha)}_{gamma} dt)^{(1+2 alpha)/2},
    exact for step g_k.
    """
    if len(gs) != len(fs):
        raise ParameterError(f"{len(gs)} integrands vs {len(fs)} range functions")
    if len(coordinates) < len(gs):
        raise AlignmentError(
            f"{len(coordinates)} driver coordinates for {len(gs)} terms")
    fmat = np.vstack([np.asarray(f, dtype=float) for f in fs]) if fs else \
        np.zeros((0, model.nodes.size))
    if fmat.shape[1] != model.nodes.size:
        raise AlignmentError("range functions must be sampled on the model nodes")
    # MC side
    if gs:
        xi = np.column_stack([elementary_integral(g, coordinates[k])
                              for k, g in enumerate(gs)])
        field_vals = xi @ fmat
        norms = model.lp_norm(field_vals, p)
        mc_norm = float(np.mean(norms ** q) ** (1.0 / q))
    else:
        mc_norm = 0.0
    # square-function side
    gnorm_sq = np.array([integral_variance(g, kernel) for g in gs])
    sq = gnorm_sq @ (fmat * fmat) if gs else np.zeros(model.nodes.size)
    sq_norm = float(np.sum(model.weights * sq ** (p / 2.0)) ** (1.0 / p))
    # embedding norm, exact over the union of breakpoints
    a2 = 1.0 + 2.0 * kernel.alpha
    if gs:
        edges = np.unique(np.concatenate([g.breakpoints for g in gs]))
        mids = 0.5 * (edges[:-1] + edges[1:])
        gvals = np.vstack([np.asarray(g(mids)) for g in gs])
        piece = (gvals ** 2).T @ (fmat * fmat)      # (pieces, nodes): sum_k g_k(t)^2 f_k^2
        gam = np.sum(model.weights[None, :] * piece ** (p / 2.0), axis=1) ** (1.0 / p)
        emb_norm = float(np.sum(np.diff(edges) * gam ** (2.0 / a2)) ** (a2 / 2.0))
    else:
        emb_norm = 0.0
    ratio = mc_norm / sq_norm if sq_norm > 0.0 else None
    emb_ratio = mc_norm / emb_norm if emb_norm > 0.0 else None
    return {
        "mc_norm": mc_norm,
        "square_function_norm": sq_norm,
        "ratio": ratio,
        "embedding_norm": emb_norm,
        "embedding_ratio": emb_ratio,
    }
