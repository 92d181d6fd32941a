"""Quadrature building blocks.

Composite Gauss-Legendre panels plus the two power substitutions used
throughout the library to remove endpoint singularities of the form
(u - a)^e with e in (-1, 0):

* substituting v = (u - a)^(1+e) absorbs the singular factor exactly into
  the Jacobian, leaving a bounded integrand;
* for two-sided weights (u - a)^e_left (b - u)^e_right the interval is
  split at its midpoint and each half is substituted at its singular end.

All rules return plain (nodes, weights) arrays so callers can batch the
integrand evaluation.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ParameterError


def gauss_legendre_panels(a: float, b: float, n_panels: int = 8,
                          n_nodes: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule on [a, b]."""
    if not b > a:
        raise ParameterError(f"empty quadrature interval [{a}, {b}]")
    u, w = _unit_panel_rule(n_panels, n_nodes)
    return a + (b - a) * u, (b - a) * w


def panels_from_edges(edges: np.ndarray, n_nodes: int = 4) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule with one panel per consecutive edge pair.

    Used where the integrand has kinks at known interior points: aligning
    panels to the kinks restores spectral per-panel convergence.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or len(edges) < 2 or np.any(np.diff(edges) <= 0):
        raise ParameterError("edges must be strictly increasing with >= 2 entries")
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


@lru_cache(maxsize=64)
def _unit_panel_rule(n_panels: int, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule on [0, 1], cached."""
    nodes, weights = panels_from_edges(np.linspace(0.0, 1.0, n_panels + 1),
                                       n_nodes)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def power_substituted_rule(a: float, b: float, exponent: float,
                           n_panels: int = 8, n_nodes: int = 16,
                           singular_end: str = "left") -> tuple[np.ndarray, np.ndarray]:
    """Rule for integrals with one singular endpoint weight.

    Returns nodes u_i in (a, b) and weights w_i such that

        integral_a^b (u - a)^exponent f(u) du  ~=  sum_i w_i f(u_i)

    for ``singular_end == "left"`` (mirrored for ``"right"``, where the
    weight is (b - u)^exponent).  The weight function itself is absorbed
    into w_i via the substitution v = (u - a)^(1 + exponent), so f only
    needs to be smooth.

    Parameters
    ----------
    exponent : float
        The singular power, required in (-1, 0].
    """
    if not -1.0 < exponent <= 0.0:
        raise ParameterError(f"singular exponent {exponent} outside (-1, 0]")
    if not b > a:
        raise ParameterError(f"empty quadrature interval [{a}, {b}]")
    q = 1.0 + exponent
    v, wv = _unit_panel_rule(n_panels, n_nodes)
    vmax = (b - a) ** q
    # u = a + (v*vmax)^(1/q); dv carries the (u-a)^exponent factor exactly.
    if singular_end == "left":
        nodes = a + (v * vmax) ** (1.0 / q)
    elif singular_end == "right":
        nodes = b - (v * vmax) ** (1.0 / q)
    else:
        raise ParameterError(f"singular_end must be left or right, got {singular_end!r}")
    weights = wv * vmax / q
    return nodes, weights


def two_sided_singular_rule(a: float, b: float, left_exponent: float,
                            right_exponent: float, n_panels: int = 8,
                            n_nodes: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """Rule for integral_a^b (u-a)^l (b-u)^r f(u) du with l, r in (-1, 0].

    Split at the midpoint; on each half the singular factor at that half's
    endpoint is absorbed by power substitution while the opposite factor,
    smooth there, is folded into the returned weights.
    """
    m = 0.5 * (a + b)
    ul, wl = power_substituted_rule(a, m, left_exponent, n_panels, n_nodes, "left")
    ur, wr = power_substituted_rule(m, b, right_exponent, n_panels, n_nodes, "right")
    wl = wl * (b - ul) ** right_exponent
    wr = wr * (ur - a) ** left_exponent
    return np.concatenate([ul, ur]), np.concatenate([wl, wr])


def ols_fit(x: np.ndarray, y: np.ndarray,
            y_se: np.ndarray | None = None) -> tuple[float, float, float]:
    """Least-squares line through (x, y): (slope, se, r_squared).

    ``se`` is the residual standard error of the slope; with ``y_se``
    (per-point standard errors of y) the propagated term
    sum_i (dslope/dy_i)^2 y_se_i^2 is added in quadrature.
    """
    xc = x - np.mean(x)
    sxx = np.sum(xc * xc)
    slope = float(np.sum(xc * y) / sxx)
    resid = y - np.mean(y) - slope * xc
    ss_res = np.sum(resid * resid)
    se_sq = ss_res / max(x.size - 2, 1) / sxx
    if y_se is not None:
        a = xc / sxx
        se_sq = se_sq + np.sum(a * a * y_se ** 2)
    ss_tot = np.sum((y - np.mean(y)) ** 2)
    r_sq = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return slope, float(np.sqrt(se_sq)), float(r_sq)
