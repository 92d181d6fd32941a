"""Finite Wiener chaos: Hermite polynomials, sampling, moment equivalence.

Hermite polynomials carry the 1/n! normalization

    H_n(x) = ((-1)^n / n!) e^{x^2/2} (d/dx)^n e^{-x^2/2},

so that E H_a(g) H_b(g) = delta_ab / a! for g standard normal.  A chaos
variable of order n is X = sum_j xi_j x_j with scalars xi_j = H_n(<a_j, g>)
(unit directions a_j, one shared Gaussian vector g) and coefficient
vectors x_j in R^m carrying an l^p norm.  Hypercontractivity says the
L^q / L^p moment ratio of ||X|| is bounded by a constant depending only
on (p, q, n), uniformly in the coefficient space; the sweep here probes
that bound empirically across coefficient dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, UndefinedRatioError
from .quadrature import ols_fit
from .seeding import STREAM_CHAOS, STREAM_CHAOS_COEFF, child_seed, substream

__all__ = [
    "ChaosVariableSpec",
    "hermite",
    "sample_linear_combination",
    "moment_ratio",
    "moment_ratio_stderr",
    "hypercontractivity_sweep",
]

# chaos variables of the sweep: terms per variable, Gaussian dimension
_SWEEP_TERMS = 4
_SWEEP_GAUSSIAN_DIM = 8


def hermite(n: int, x):
    """Hermite polynomial H_n(x) under the 1/n! normalization.

    Three-term recursion H_{n+1} = (x H_n - H_{n-1}) / (n + 1) with
    H_0 = 1, H_1 = x.  Vectorized over x.
    """
    if n < 0:
        raise ParameterError(f"Hermite order must be >= 0, got {n}")
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if n == 0:
        return prev if prev.ndim else float(prev)
    cur = x.copy()
    for k in range(1, n):
        prev, cur = cur, (x * cur - prev) / (k + 1)
    return cur if cur.ndim else float(cur)


@dataclass(frozen=True)
class ChaosVariableSpec:
    """A random variable in a fixed finite Wiener chaos.

    ``coefficients`` has shape (J, m): J terms, coefficient space R^m.
    ``directions`` has shape (J, d): rows are normalized to unit length,
    applied to a single shared standard Gaussian vector g in R^d, so the
    scalars xi_j = H_n(<a_j, g>) are correlated whenever rows overlap.
    ``orders`` optionally lowers the Hermite order per term; all entries
    must stay <= ``order`` so the variable lives in the chaos sum up to
    that index.  ``space_p`` is the l^p exponent of the coefficient norm.
    """

    order: int
    coefficients: np.ndarray
    directions: np.ndarray
    orders: np.ndarray | None = None
    space_p: float = 2.0

    def __post_init__(self):
        coeff = np.atleast_2d(np.asarray(self.coefficients, dtype=float))
        dirs = np.atleast_2d(np.asarray(self.directions, dtype=float))
        if self.order < 0:
            raise ParameterError(f"chaos order must be >= 0, got {self.order}")
        if coeff.shape[0] != dirs.shape[0]:
            raise ParameterError(
                f"{coeff.shape[0]} coefficient vectors vs {dirs.shape[0]} directions")
        norms = np.linalg.norm(dirs, axis=1)
        if np.any(norms == 0.0):
            raise ParameterError("mixing directions must be nonzero")
        object.__setattr__(self, "coefficients", coeff)
        object.__setattr__(self, "directions", dirs / norms[:, None])
        if self.orders is not None:
            orders = np.asarray(self.orders, dtype=int)
            if orders.shape != (coeff.shape[0],) or np.any(orders < 0) \
                    or np.any(orders > self.order):
                raise ParameterError("per-term orders must lie in [0, order]")
            object.__setattr__(self, "orders", orders)
        if not self.space_p >= 1.0:
            raise ParameterError(f"space_p must be >= 1, got {self.space_p}")


def sample_linear_combination(spec: ChaosVariableSpec, replicas: int,
                              seed: int) -> np.ndarray:
    """Draw i.i.d. replicas of sum_j H_{n_j}(<a_j, g>) x_j.

    Returns an array of shape (replicas, m).  Deterministic given seed.
    """
    if replicas < 1:
        raise ParameterError(f"replicas must be >= 1, got {replicas}")
    rng = substream(seed, STREAM_CHAOS)
    d = spec.directions.shape[1]
    g = rng.standard_normal((replicas, d))
    z = g @ spec.directions.T                      # (replicas, J)
    orders = spec.orders
    if orders is None:
        xi = hermite(spec.order, z)
    else:
        xi = np.empty_like(z)
        for n in np.unique(orders):
            cols = orders == n
            xi[:, cols] = hermite(int(n), z[:, cols])
    return xi @ spec.coefficients


def _space_norms(ensemble: np.ndarray, space_p: float) -> np.ndarray:
    values = np.asarray(ensemble, dtype=float)
    if values.ndim == 1:
        return np.abs(values)
    if space_p == np.inf:
        return np.max(np.abs(values), axis=1)
    return np.sum(np.abs(values) ** space_p, axis=1) ** (1.0 / space_p)


def moment_ratio(ensemble: np.ndarray, q: float, p: float,
                 space_p: float = 2.0) -> float:
    """(E ||X||^q)^{1/q} / (E ||X||^p)^{1/p} over the empirical measure.

    ``ensemble`` is (replicas,) or (replicas, m); vectors are measured in
    the l^{space_p} norm.  Homogeneity makes the ratio invariant under
    scaling the ensemble by any c > 0.
    """
    if not (p >= 1.0 and q >= 1.0):
        raise ParameterError(f"moment exponents must be >= 1, got p={p}, q={q}")
    norms = _space_norms(ensemble, space_p)
    if norms.size == 0:
        raise ParameterError("empty ensemble")
    mp = np.mean(norms ** p)
    if mp == 0.0:
        raise UndefinedRatioError("all replicas are zero; p-th moment vanishes")
    return float(np.mean(norms ** q) ** (1.0 / q) / mp ** (1.0 / p))


def moment_ratio_stderr(ensemble: np.ndarray, q: float, p: float,
                        space_p: float = 2.0) -> float:
    """Delta-method standard error of :func:`moment_ratio`.

    Propagates the sampling covariance of the two empirical moments
    through the ratio; adequate for the 3-SE bands used in tests.
    """
    norms = _space_norms(ensemble, space_p)
    n = norms.size
    a, b = norms ** q, norms ** p
    ma, mb = np.mean(a), np.mean(b)
    if mb == 0.0:
        raise UndefinedRatioError("all replicas are zero; p-th moment vanishes")
    cov = np.cov(a, b) / n
    # ratio = ma^{1/q} mb^{-1/p}; gradient in (ma, mb)
    r = ma ** (1.0 / q) / mb ** (1.0 / p)
    da = r / (q * ma)
    db = -r / (p * mb)
    var = da * da * cov[0, 0] + 2.0 * da * db * cov[0, 1] + db * db * cov[1, 1]
    return float(np.sqrt(max(var, 0.0)))


def hypercontractivity_sweep(n: int, p: float, q: float, dims,
                             trials: int = 30, seed: int = 0,
                             replicas: int = 4000) -> dict:
    """Empirical sup of the L^q/L^p ratio across coefficient dimensions.

    For each coefficient dimension m, draws ``trials`` random chaos
    variables (``_SWEEP_TERMS`` random coefficient vectors in R^m, random
    unit mixing directions in R^``_SWEEP_GAUSSIAN_DIM``) and records the
    max and the full set of moment ratios.  Pass criteria:

    * ``monotone_pass``: the sup is non-increasing in dimension up to 5%
      slack, i.e. sup_{m'} <= 1.05 sup_m for every m < m'.
    * ``trend_pass``: the OLS slope of per-trial ratios against log2(m)
      is not significantly positive at the 95% level.
    """
    if trials < 30:
        raise ParameterError(f"trials must be >= 30, got {trials}")
    dims = [int(m) for m in dims]
    sup_ratio: dict[int, float] = {}
    all_ratios: dict[int, np.ndarray] = {}
    for di, m in enumerate(dims):
        ratios = np.empty(trials)
        for t in range(trials):
            rng = substream(seed, STREAM_CHAOS_COEFF, di, t)
            coeff = rng.standard_normal((_SWEEP_TERMS, m))
            dirs = rng.standard_normal((_SWEEP_TERMS, _SWEEP_GAUSSIAN_DIM))
            spec = ChaosVariableSpec(order=n, coefficients=coeff,
                                     directions=dirs, space_p=p if p >= 1 else 2.0)
            ens = sample_linear_combination(
                spec, replicas, child_seed(seed, STREAM_CHAOS, di, t))
            ratios[t] = moment_ratio(ens, q, p, space_p=spec.space_p)
        sup_ratio[m] = float(np.max(ratios))
        all_ratios[m] = ratios
    sups = [sup_ratio[m] for m in dims]
    monotone = all(sups[k + 1] <= 1.05 * min(sups[: k + 1]) for k in range(len(dims) - 1))
    x = np.concatenate([np.full(trials, np.log2(m)) for m in dims])
    y = np.concatenate([all_ratios[m] for m in dims])
    slope, slope_se, _ = ols_fit(x, y)
    return {
        "dims": dims,
        "sup_ratio": sup_ratio,
        "ratios": all_ratios,
        "monotone_pass": bool(monotone),
        "trend_slope": slope,
        "trend_se": slope_se,
        "trend_pass": bool(slope <= 1.96 * slope_se),
    }
