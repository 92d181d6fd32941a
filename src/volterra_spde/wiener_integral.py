"""Wiener-type integrals of deterministic integrands against Volterra paths.

For a step function phi = sum_i phi_i 1_{[t_i, t_{i+1})} the elementary
integral is i_T(phi) = sum_i phi_i (b_{t_{i+1}} - b_{t_i}), and its second
moment is computed two independent ways:

* through the adjoint operator

      (K* phi)(r) = integral_r^T phi(u) dK/du(u, r) du
                  = sum_i phi_i [K(max(t_{i+1}, r), r) - K(max(t_i, r), r)],

  whose L^2(0, T) norm is the Ito-type isometry value;

* through the closed-form inner product

      <f, g> = H(2H - 1) iint f(u) g(v) |u - v|^{2H - 2} du dv,

  evaluated rectangle by rectangle with the exact antiderivative, no
  singular 2-D quadrature.  On a uniform grid the matrix is Toeplitz and
  the form is evaluated from the FFT autocorrelation of the values.

Agreement of the two is a cross-check, not an assumption.  The same
rectangle machinery without the H(2H - 1) constant gives the upper-bound
functional with weight |u - v|^{2 alpha - 1}.

Pathwise integration of smooth integrands (Young regime, paths of Holder
order > 1/2) uses left-point Riemann-Stieltjes sums on a refined grid:
only the integrand is refined, the path is linearly interpolated, which
turns the sum into sum_j gbar_j (b_{t_{j+1}} - b_{t_j}) with gbar_j the
left-point mean of g over the j-th native cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft

from .errors import AlignmentError, NumericError, ParameterError
from .kernels import VolterraKernel
from .processes import PathEnsemble, TimeGrid
from .quadrature import _unit_panel_rule, gauss_legendre_panels

__all__ = [
    "StepFunction",
    "IntegrandNorms",
    "apply_Kstar",
    "integral_variance",
    "fbm_inner_product",
    "uniform_fbm_quadratic_form",
    "upper_bound_functional",
    "compute_norms",
    "elementary_integral",
    "riemann_stieltjes",
    "random_step_function",
]


@dataclass(frozen=True)
class StepFunction:
    """phi = sum_i values[i] on [breakpoints[i], breakpoints[i+1]).

    Breakpoints run 0 = t_1 < ... < t_{n+1} = T; the last interval is
    closed at T.
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if bp.ndim != 1 or bp.size < 2 or np.any(np.diff(bp) <= 0.0):
            raise ParameterError("breakpoints must be strictly increasing, >= 2 entries")
        if bp[0] != 0.0:
            raise ParameterError(f"step functions start at 0, got {bp[0]}")
        if vals.shape != (bp.size - 1,):
            raise ParameterError(
                f"{vals.shape[0] if vals.ndim else 0} values for {bp.size - 1} intervals")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    @property
    def T(self) -> float:
        return float(self.breakpoints[-1])

    @classmethod
    def indicator(cls, t: float, T: float | None = None) -> "StepFunction":
        """1_{[0, t]}, optionally padded with zero up to a larger horizon."""
        if T is None or T == t:
            return cls(breakpoints=np.array([0.0, t]), values=np.array([1.0]))
        return cls(breakpoints=np.array([0.0, t, T]), values=np.array([1.0, 0.0]))

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        idx = np.clip(np.searchsorted(self.breakpoints, u, "right") - 1, 0,
                      self.values.size - 1)
        out = self.values[idx]
        out = np.where((u < 0.0) | (u > self.T), 0.0, out)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class IntegrandNorms:
    """The three second-moment functionals of one integrand."""

    isometry_norm_sq: float
    upper_bound: float
    fbm_inner_sq: float


# ---------------------------------------------------------------------------
# K* and the isometry norm
# ---------------------------------------------------------------------------

def apply_Kstar(phi: StepFunction, kernel: VolterraKernel, r):
    """(K* phi)(r) = sum_i phi_i [K(max(t_{i+1}, r), r) - K(max(t_i, r), r)].

    Exact for step phi since K(r, r) = 0; vectorized over r, zero for
    r >= T.
    """
    r = np.asarray(r, dtype=float)
    scalar = r.ndim == 0
    r2 = np.atleast_1d(r)
    bp = phi.breakpoints
    vals = kernel.evaluate(bp[None, :], r2[:, None])   # (n_r, n_bp)
    out = np.sum(phi.values[None, :] * np.diff(vals, axis=1), axis=1)
    return float(out[0]) if scalar else out


def integral_variance(phi: StepFunction, kernel: VolterraKernel) -> float:
    """integral_0^T (K* phi)(r)^2 dr, the Ito-type isometry value.

    The integrand blows up like r^(-2 alpha) at r = 0, handled by the
    same power substitution as the covariance quadrature; panels are
    aligned to the breakpoints of phi, where K* phi has kinks.
    """
    bp = phi.breakpoints
    q = 1.0 / (1.0 - 2.0 * kernel.alpha)
    w, ww = _unit_panel_rule(12, 16)
    r_first = bp[1] * w ** q
    jac_first = bp[1] * q * w ** (q - 1.0)
    total = _kstar_sq_sum(phi, kernel, r_first, ww * jac_first)
    for i in range(1, bp.size - 1):
        nodes, weights = gauss_legendre_panels(bp[i], bp[i + 1], 4, 16)
        total += _kstar_sq_sum(phi, kernel, nodes, weights)
    return float(total)


def _kstar_sq_sum(phi, kernel, nodes, weights):
    v = apply_Kstar(phi, kernel, nodes)
    return np.sum(weights * v * v)


# ---------------------------------------------------------------------------
# rectangle-exact double integrals
# ---------------------------------------------------------------------------

def _rectangle_matrix(bp_f: np.ndarray, bp_g: np.ndarray, H: float) -> np.ndarray:
    """M_ij = iint_{cell_i x cell_j} |u - v|^{2H-2} du dv, all cell pairs.

    Signed combination of the antiderivative F(w) = |w|^{2H}/(2H(2H-1))
    at the four corner differences.
    """
    c = 2.0 * H * (2.0 * H - 1.0)

    def Fa(w):
        return np.abs(w) ** (2.0 * H) / c

    f0, f1 = bp_f[:-1, None], bp_f[1:, None]
    g0, g1 = bp_g[None, :-1], bp_g[None, 1:]
    return Fa(f1 - g0) - Fa(f1 - g1) - Fa(f0 - g0) + Fa(f0 - g1)


def fbm_inner_product(f: StepFunction, g: StepFunction, H: float) -> float:
    """H(2H-1) iint f(u) g(v) |u - v|^{2H-2} du dv, exactly per rectangle.

    For f = g = 1_{[0,t]} the value is t^{2H} on the nose.
    """
    if not 0.5 < H < 1.0:
        raise ParameterError(f"H={H} outside (1/2, 1)")
    M = _rectangle_matrix(f.breakpoints, g.breakpoints, H)
    return float(H * (2.0 * H - 1.0) * (f.values @ M @ g.values))


def uniform_fbm_quadratic_form(v: np.ndarray, dx: float, H: float):
    """Each row of ``v`` against itself under :func:`fbm_inner_product`.

    The rows are steps on uniform cells of width ``dx``, where the
    rectangle matrix M is symmetric Toeplitz: v^T M v needs only the
    autocorrelation of v, which one zero-padded rfft/irfft pair gives for
    all rows at once.  Returns shape ``v.shape[:-1]``.
    """
    if not 0.5 < H < 1.0:
        raise ParameterError(f"H={H} outside (1/2, 1)")
    n = v.shape[-1]
    weights = _rectangle_matrix(dx * np.arange(2), dx * np.arange(n + 1), H)[0]
    weights[1:] *= 2.0
    nfft = next_fast_len(2 * n - 1, real=True)
    spec = rfft(v, nfft, axis=-1)
    acf = irfft(spec.real ** 2 + spec.imag ** 2, nfft, axis=-1)[..., :n]
    return H * (2.0 * H - 1.0) * (acf @ weights)


def upper_bound_functional(phi: StepFunction, alpha: float) -> float:
    """iint |phi(u)| |phi(v)| |u - v|^{2 alpha - 1} du dv, constant-free."""
    H = alpha + 0.5
    M = _rectangle_matrix(phi.breakpoints, phi.breakpoints, H)
    av = np.abs(phi.values)
    return float(av @ M @ av)


def compute_norms(phi: StepFunction, kernel: VolterraKernel) -> IntegrandNorms:
    """All three functionals; the fBm inner product uses H = alpha + 1/2."""
    return IntegrandNorms(
        isometry_norm_sq=integral_variance(phi, kernel),
        upper_bound=upper_bound_functional(phi, kernel.alpha),
        fbm_inner_sq=fbm_inner_product(phi, phi, kernel.alpha + 0.5),
    )


# ---------------------------------------------------------------------------
# pathwise integrals
# ---------------------------------------------------------------------------

def _grid_indices(breakpoints: np.ndarray, times: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(times, breakpoints)
    idx = np.clip(idx, 0, times.size - 1)
    ok = np.isclose(times[idx], breakpoints, rtol=1e-12, atol=1e-12)
    if not np.all(ok):
        bad = breakpoints[~ok]
        raise AlignmentError(f"breakpoints {bad} are not grid times")
    return idx


def elementary_integral(phi: StepFunction, ensemble: PathEnsemble,
                        replica: int | None = None):
    """sum_i phi_i (b_{t_{i+1}} - b_{t_i}) per replica.

    Breakpoints must coincide with grid times.  Returns the vector over
    replicas, or a scalar when ``replica`` is given.
    """
    idx = _grid_indices(phi.breakpoints, ensemble.grid.points)
    vals = ensemble.values if replica is None else ensemble.values[replica:replica + 1]
    incs = vals[:, idx[1:]] - vals[:, idx[:-1]]
    out = incs @ phi.values
    return float(out[0]) if replica is not None else out


def riemann_stieltjes(g, ensemble: PathEnsemble, refinement: int = 8,
                      check: bool = True):
    """Left-point Riemann-Stieltjes integral of g against each path.

    ``g`` is evaluated on the native grid refined ``refinement``-fold;
    path values between grid points are linearly interpolated, so the sum
    collapses to cell means of g times native path increments.  With
    ``check`` on, the value is recomputed at doubled refinement and a
    root-mean-square relative change above 1% raises (non-convergence of
    the pathwise integral at this resolution).
    """
    if refinement < 1:
        raise ParameterError(f"refinement must be >= 1, got {refinement}")
    incs = np.diff(ensemble.values, axis=1)
    grid = ensemble.grid
    v1 = incs @ _rs_weights(g, grid, refinement)
    if check:
        v2 = incs @ _rs_weights(g, grid, 2 * refinement)
        scale = np.sqrt(np.mean(np.square(v1)))
        if scale > 0.0:
            drift = np.sqrt(np.mean(np.square(v2 - v1))) / scale
            if drift > 0.01:
                raise NumericError(
                    f"Riemann-Stieltjes sum moved {drift:.2%} under refinement "
                    f"doubling (refinement={refinement})")
    return v1


def _rs_weights(g, grid: TimeGrid, refinement: int) -> np.ndarray:
    """Native-cell weights of the refined left-point rule: the mean of g
    over each cell's ``refinement`` left points."""
    times = grid.points
    offs = np.arange(refinement)[None, :] / refinement
    pts = times[:-1, None] + np.diff(times)[:, None] * offs
    return np.mean(np.asarray(g(pts.ravel())).reshape(pts.shape), axis=1)


# ---------------------------------------------------------------------------
# random integrands
# ---------------------------------------------------------------------------

def random_step_function(T: float, n_steps: int, rng,
                         times: np.ndarray | None = None) -> StepFunction:
    """Random step function with standard normal values.

    Breakpoints are sorted uniforms on [0, T], or, when ``times`` is
    given, a random subset of those grid times (so the result is a valid
    integrand for :func:`elementary_integral` on that grid).
    """
    if times is None:
        inner = np.sort(rng.uniform(0.0, T, size=n_steps - 1))
        bp = np.concatenate([[0.0], inner, [T]])
        keep = np.concatenate([[True], np.diff(bp) > 1e-9 * T])
        bp = bp[keep]
    else:
        interior = np.asarray(times, dtype=float)[1:-1]
        n_pick = min(n_steps - 1, interior.size)
        picked = np.sort(rng.choice(interior, size=n_pick, replace=False))
        bp = np.concatenate([[0.0], picked, [times[-1]]])
    return StepFunction(breakpoints=bp, values=rng.standard_normal(bp.size - 1))

