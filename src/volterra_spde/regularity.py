"""Variogram exponents, increment oracles, and regularity verdicts.

The measured quantity is always a mean-square (variogram) exponent: the
least-squares slope of log E||X_{t+h} - X_t||^2 against log h over a
dyadic set of lags, divided by two.  Almost-sure Holder exponents are
not estimated directly; the moment-equivalence machinery justifies
reading mean-square exponents as Holder orders.  ``field_variogram``
folds the increments it reads into the driver's last linear map.

Exact second moments of field increments come from the per-mode identity

    E (X_k(t) - X_k(s))^2 = || g_t - g_s ||^2,
    g_t(r) = e^{-lambda_k (t - r)} 1_{[0, t]}(r),

with the norm evaluated by the rectangle-exact |u - v|^{2H-2} double
integral.  On a uniform discretization grid that quadratic form is a
symmetric Toeplitz matrix (second difference of |w|^{2H}), so all modes
of one (s, t) pair are evaluated by one batched FFT autocorrelation.

Verdicts compare the measured exponent against the predicted bounds

    generic        nu < alpha + 1/2 - gamma - delta,
    pointwise      nu < alpha + 1/2 - d/(2p),
    order-2m       nu < alpha + 1/2 - d/(4m) - delta,

(d = 1 throughout) with the rule: pass iff measured + 2 SE >= bound - 0.02.
The guaranteed orders are strictly below the bound, so a measurement may
sit slightly under it; falling further short means the field is rougher
than the theory allows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import AdmissibilityError, ParameterError, TruncationError
from .processes import LazyCylindricalEnsemble, PathEnsemble, TimeGrid
from .spde import (MildSolutionField, NoiseOperator, SpectralModel,
                   _doubled_problem, _folded_modes)
from .wiener_integral import uniform_fbm_quadratic_form

__all__ = [
    "RegularityReport",
    "variogram_exponent",
    "field_variogram",
    "mean_square_increment_oracle",
    "oracle_variogram_exponent",
    "predicted_bound",
    "regularity_verdict",
    "default_lags",
    "default_bases",
]

_FORMULAS = {
    "generic": "alpha + 1/2 - gamma - delta",
    "pointwise": "alpha + 1/2 - d/(2p), d = 1",
    "order2m": "alpha + 1/2 - d/(4m) - delta, d = 1",
}


@dataclass(frozen=True)
class RegularityReport:
    """Measured exponent vs the predicted regularity bound."""

    measured_exponent: float
    measured_se: float
    predicted_bound: float
    formula: str
    verdict: bool
    margin: float
    oracle_exponent: float | None = None
    config: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    def to_json(self, path: str) -> None:
        payload = {
            "measured_exponent": self.measured_exponent,
            "measured_se": self.measured_se,
            "predicted_bound": self.predicted_bound,
            "formula": self.formula,
            "verdict": self.verdict,
            "margin": self.margin,
            "oracle_exponent": self.oracle_exponent,
            "config": self.config,
            "extras": self.extras,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)


# ---------------------------------------------------------------------------
# lag/base defaults and the slope fit
# ---------------------------------------------------------------------------

def default_lags(n_steps: int) -> list[int]:
    """Dyadic lag multiples 4, 8, ... while they fit the grid."""
    lags = []
    k = 4
    while k <= n_steps // 8 and len(lags) < 5:
        lags.append(k)
        k *= 2
    return lags


def default_bases(n_steps: int, max_lag: int) -> list[int]:
    """Up to five base indices in the upper half of the grid.

    Increments of the convolution are not stationary; restricting bases
    away from t = 0 keeps the transient out of the averages.
    """
    return list(range(n_steps // 2, n_steps - max_lag - 1,
                      max(1, n_steps // 8)))[:5]


def _lag_set(n_steps: int, lags, bases) -> tuple[list[int], list[int]]:
    """Lags (>= 4) and bases, defaulted, checked to fit ``n_steps``."""
    lags = default_lags(n_steps) if lags is None else list(lags)
    if len(lags) < 4:
        raise ParameterError(f"need >= 4 usable lags, got {len(lags)}")
    bases = default_bases(n_steps, max(lags)) if bases is None else list(bases)
    if not bases or min(lags) < 1 or min(bases) < 0 \
            or max(bases) + max(lags) > n_steps:
        raise ParameterError(
            f"lags {lags} with bases {bases} do not fit {n_steps} steps")
    return lags, bases


def _fit_exponent(h: np.ndarray, D: np.ndarray, D_se: np.ndarray) -> tuple[float, float]:
    """Slope/2 of log D vs log h with combined residual + MC standard error."""
    x, y = np.log(h), np.log(D)
    xc = x - np.mean(x)
    sxx = np.sum(xc * xc)
    slope = float(np.sum(xc * y) / sxx)
    resid = y - np.mean(y) - slope * xc
    dof = max(x.size - 2, 1)
    se_resid_sq = np.sum(resid * resid) / dof / sxx
    a = xc / sxx
    se_mc_sq = np.sum(a * a * (D_se / D) ** 2)
    return slope / 2.0, float(np.sqrt(se_resid_sq + se_mc_sq) / 2.0)


def _moments_to_result(h, Q_by_lag):
    """Assemble {exponent, se, ...} from per-replica squared increments."""
    D = np.array([np.mean(q) for q in Q_by_lag])
    D_se = np.array([np.std(q) / np.sqrt(q.size) for q in Q_by_lag])
    exponent, se = _fit_exponent(h, D, D_se)
    return {"exponent": exponent, "se": se, "lags_h": h, "D": D, "D_se": D_se,
            "n_replicas": int(Q_by_lag[0].size)}


# ---------------------------------------------------------------------------
# measured exponents
# ---------------------------------------------------------------------------

def variogram_exponent(data, norm: str = "scalar", lags: list[int] | None = None,
                       bases: list[int] | None = None, delta: float = 0.0,
                       p: float = 2.0) -> dict:
    """Mean-square variogram exponent of an ensemble or solution field.

    ``norm`` selects what ||X_{t+h} - X_t|| means: "scalar" for path
    ensembles, "L2" for the spatial L^2 norm of a field (Parseval over
    modes), "V_delta_p" for the fractional-power norm with the given
    (delta, p), and "sup_L2" for the sup over spatial nodes of the
    pointwise mean-square increment.  Requires >= 4 lags and >= 1000
    replicas.
    """
    if isinstance(data, PathEnsemble):
        if norm != "scalar":
            raise ParameterError(f"norm {norm!r} needs a solution field")
        values = data.values
        n_steps = data.grid.n_steps
        times = data.grid.points
    elif isinstance(data, MildSolutionField):
        n_steps = data.grid.n_steps
        times = data.grid.points
    else:
        raise ParameterError(f"unsupported data type {type(data).__name__}")
    lags, bases = _lag_set(n_steps, lags, bases)
    n_rep = data.values.shape[0] if isinstance(data, PathEnsemble) else data.replicas
    if n_rep < 1000:
        raise ParameterError(f"need >= 1000 replicas, got {n_rep}")

    h = np.array([times[lag] for lag in lags])
    Q_by_lag = []
    for lag in lags:
        per_base = []
        for b in bases:
            if isinstance(data, PathEnsemble):
                inc = values[:, b + lag] - values[:, b]
                per_base.append(inc * inc)
            else:
                dc = data.mode_paths[:, :, b + lag] - data.mode_paths[:, :, b]
                per_base.append(_field_increment_sq(data, dc, norm, delta, p))
        Q_by_lag.append(np.mean(per_base, axis=0))
    return _moments_to_result(h, Q_by_lag)


def _field_increment_sq(fld: MildSolutionField, dcoeff: np.ndarray, norm: str,
                        delta: float, p: float) -> np.ndarray:
    lam = fld.model.eigenvalues
    if norm == "L2":
        return np.sum(dcoeff * dcoeff, axis=1)
    if norm == "V_delta_p":
        if p == 2.0:
            w = lam ** (2.0 * delta)
            return np.sum(w[None, :] * dcoeff * dcoeff, axis=1)
        vals = (dcoeff * lam[None, :] ** delta) @ fld.model.eigenfunctions
        return fld.model.lp_norm(vals, p) ** 2
    if norm == "sup_L2":
        vals = dcoeff @ fld.model.eigenfunctions
        # sup over nodes of the pointwise second moment; every replica is
        # assigned the same profile so the MC SE machinery still applies
        ms = np.mean(vals * vals, axis=0)
        j = int(np.argmax(ms))
        return vals[:, j] ** 2
    raise ParameterError(f"unknown norm {norm!r}")


def field_variogram(model: SpectralModel, noise: NoiseOperator, family: str,
                    params: dict, grid: TimeGrid, replicas: int, seed: int,
                    lags: list[int] | None = None, bases: list[int] | None = None,
                    deltas=(0.0,), refinement: int | None = 256) -> list[dict]:
    """Streaming variogram of a mild-solution field, one pass over modes.

    No path is formed: with the driver's draw ``core @ linear_map``, mode
    k's increments are c_k core_k @ (linear_map @ V_k), V_k from
    :func:`~volterra_spde.spde.mode_increment_weights`, computed by the
    block loop ``solve_mild`` uses for its kept times.  The cores match
    ``simulate_cylindrical`` substream for substream, so ``solve_mild`` +
    :func:`variogram_exponent` on the same seed agree to rounding.
    Only p = 2 norms are mode-separable; ``deltas`` lists the V_{delta,2}
    weights to accumulate in the same pass (delta = 0 is the L^2 norm).
    """
    lags, bases = _lag_set(grid.n_steps, lags, bases)
    if replicas < 1000:
        raise ParameterError(f"need >= 1000 replicas, got {replicas}")
    driver = LazyCylindricalEnsemble(family, params, noise.driver_modes(model),
                                     grid, replicas, seed)
    lam = model.eigenvalues
    pairs = [(b, lag) for lag in lags for b in bases]
    pw = 2.0 * np.asarray(deltas, dtype=float)[:, None, None]
    acc = np.zeros((len(deltas), replicas, len(pairs)))
    for k, d in _folded_modes(model, noise, driver.core,
                              driver.sampler.linear_map, grid, pairs,
                              replicas, refinement):
        acc += lam[k] ** pw * np.square(d)
    h = np.array([grid.points[lag] for lag in lags])
    Q = acc.reshape(len(deltas), replicas, len(lags), len(bases)).mean(axis=3)
    return [dict(_moments_to_result(h, q.T), delta=d) for d, q in zip(deltas, Q)]


# ---------------------------------------------------------------------------
# exact increment oracle
# ---------------------------------------------------------------------------

def _mode_increment_var(lam, s: float, t: float, H: float, n_cells: int):
    """|| g_t - g_s ||^2 for g_t(r) = e^{-lam (t-r)} 1_{[0,t]})(r).

    The cell width divides t - s, so s and t are both edges and the
    indicator part of the difference is represented exactly; the grid
    runs past r = 0 with zero values to stay uniform.  An array ``lam``
    gives one value per mode from one batched quadratic form.
    """
    lam = np.asarray(lam, dtype=float)[..., None]
    dx = (t - s) / max(1, int(np.ceil(n_cells * (t - s) / t)))
    n = int(np.ceil(t / dx))
    mid = t - dx * (np.arange(n, 0, -1) - 0.5)
    with np.errstate(under="ignore"):
        vals = np.where(mid > 0.0, np.exp(-lam * (t - mid)), 0.0)
        low = (0.0 < mid) & (mid < s)
        vals[..., low] -= np.exp(-lam * (s - mid[low]))
    out = uniform_fbm_quadratic_form(vals, dx, H)
    return float(out) if out.ndim == 0 else out


def mean_square_increment_oracle(model: SpectralModel, noise: NoiseOperator,
                                 H: float, s: float, t: float,
                                 delta: float = 0.0, n_cells: int = 4096,
                                 check: bool = False) -> float:
    """Exact E||X_t - X_s||^2 of the continuum mild solution.

    Sums per-mode increment variances with weights lambda_k^{2 delta}
    c_k^2.  With ``check`` on, the sum is recomputed with doubled modes
    (diagonal coefficients extended by their last value, treating the
    given array as the truncation of a sequence) and a drift above 1%
    raises.
    """
    if not s <= t:
        raise ParameterError(f"need s <= t, got {s} > {t}")
    if s == t:
        return 0.0

    def total(mdl, nz):
        c = nz.mode_coefficients(mdl)
        lam = mdl.eigenvalues
        return np.sum(lam ** (2.0 * delta) * c ** 2
                      * _mode_increment_var(lam, s, t, H, n_cells))

    base = total(model, noise)
    if check:
        ref = total(*_doubled_problem(model, noise, extend="last"))
        drift = abs(ref - base) / ref if ref > 0 else 0.0
        if drift > 0.01:
            raise TruncationError(
                f"increment oracle drifts {drift:.2%} when modes double "
                f"(s={s}, t={t})", drift=drift)
    return float(base)


def oracle_variogram_exponent(model: SpectralModel, noise: NoiseOperator,
                              H: float, grid: TimeGrid,
                              lags: list[int] | None = None,
                              bases: list[int] | None = None,
                              delta: float = 0.0, n_cells: int = 4096) -> dict:
    """Slope of the exact increment second moments over the same lag set."""
    lags, bases = _lag_set(grid.n_steps, lags, bases)
    times = grid.points
    h = np.array([times[lag] for lag in lags])
    D = np.array([
        np.mean([mean_square_increment_oracle(model, noise, H, times[b],
                                              times[b + lag], delta, n_cells)
                 for b in bases])
        for lag in lags])
    exponent, se = _fit_exponent(h, D, np.zeros_like(D))
    return {"exponent": exponent, "se": se, "lags_h": h, "D": D}


# ---------------------------------------------------------------------------
# predicted bounds and verdicts
# ---------------------------------------------------------------------------

def predicted_bound(params, case: str) -> float:
    """The theoretical Holder-order bound for one configuration.

    ``params`` needs fields alpha, delta, and, per case, gamma (generic),
    p (pointwise), or m (order2m, read from params.m or params.p left
    unused).  Inadmissible gamma >= alpha + 1/2 raises.
    """
    alpha = params.alpha if hasattr(params, "alpha") else params["alpha"]
    get = (lambda k, d=0.0: getattr(params, k, d)) if hasattr(params, "alpha") \
        else (lambda k, d=0.0: params.get(k, d))
    delta = get("delta", 0.0)
    if case == "generic":
        gamma = get("gamma", 0.0)
        if not gamma < alpha + 0.5:
            raise AdmissibilityError(
                f"gamma={gamma} >= alpha + 1/2 = {alpha + 0.5}; no admissible "
                f"Holder order exists")
        return float(alpha + 0.5 - gamma - delta)
    if case == "pointwise":
        p = get("p", 2.0)
        return float(alpha + 0.5 - 1.0 / (2.0 * p) - delta)
    if case == "order2m":
        m = int(get("m", 1))
        return float(alpha + 0.5 - 1.0 / (4.0 * m) - delta)
    raise ParameterError(f"unknown case {case!r}")


def regularity_verdict(measured, params, case: str,
                       oracle_exponent: float | None = None,
                       config: dict | None = None,
                       extras: dict | None = None) -> RegularityReport:
    """Assemble the report and apply measured + 2 SE >= bound - 0.02.

    ``measured`` is a field/ensemble (then :func:`variogram_exponent`
    runs with defaults) or a result dict from one of the estimators.
    A measured exponent at or above 1 marks the saturated (smooth) case,
    which passes regardless of the bound.  The report's ``margin`` is
    (bound - 0.02 - measured) / (2 SE), 0 when saturated; <= 1 passes.
    """
    get = (lambda k, d=None: params.get(k, d)) if isinstance(params, dict) \
        else (lambda k, d=None: getattr(params, k, d))
    if not isinstance(measured, dict):
        norm = "V_delta_p" if get("delta", 0.0) > 0 else \
            ("L2" if isinstance(measured, MildSolutionField) else "scalar")
        measured = variogram_exponent(measured, norm=norm,
                                      delta=get("delta", 0.0), p=get("p", 2.0))
    bound = predicted_bound(params, case)
    extras = dict(extras or {})
    if case == "pointwise":
        # the decay actually measured for the heat kernel would give the
        # generic bound alpha + 1/2 - gamma-hat; record both readings
        extras.setdefault("bound_from_p", bound)
        gamma = get("gamma")
        if gamma is not None and gamma < (get("alpha") + 0.5):
            extras.setdefault("bound_from_gamma",
                              float(get("alpha") + 0.5 - gamma
                                    - get("delta", 0.0)))
    saturated = measured["exponent"] >= 1.0
    if saturated:
        extras["saturated"] = True
    verdict = saturated or (measured["exponent"] + 2.0 * measured["se"]
                            >= bound - 0.02)
    margin = 0.0 if saturated else \
        (bound - 0.02 - measured["exponent"]) / (2.0 * measured["se"])
    return RegularityReport(
        measured_exponent=float(measured["exponent"]),
        measured_se=float(measured["se"]),
        predicted_bound=bound,
        formula=_FORMULAS[case],
        verdict=bool(verdict),
        margin=float(margin),
        oracle_exponent=None if oracle_exponent is None else float(oracle_exponent),
        config=dict(config or {}),
        extras=extras,
    )
