"""Sample paths of scalar Volterra processes and cylindrical stacks of them.

Two families share the fBm covariance R_H(s, t):

* fBm itself, sampled exactly through a dense Cholesky factor of the
  closed-form covariance matrix.

* The Rosenblatt process with parameter H' in (1/2, 1),

      Z_t = C iint_{x < y} A_t(x, y) dW_x dW_y,
      A_t(x, y) = integral_0^t (u - x)_+^{-sigma} (u - y)_+^{-sigma} du,

  sigma = (2 - H')/2, W a two-sided Wiener process, C normalized so that
  E Z_1^2 = 1.  It is simulated by the off-diagonal double sum over a
  graded partition (y_i) of [-M, T]:

      Z_t ~ C sum_{i != j} A_t(y_i, y_j) dW_i dW_j.

  The quadrature for A_t uses Gauss panels whose edges include every cell
  boundary and every output time, because (u - y)_+^{-sigma} kinks there.
  Cell-averaging the factor (u - y_i)_+^{-sigma} over each cell makes the
  double sum a finite-rank quadratic form

      sum_k omega_k [ (f_k . dW)^2 - sum_i f_{k,i}^2 dW_i^2 ],

  whose exact second and third moments are traces of small matrices; the
  normalization C and the deterministic oracles below come from those
  traces, so Monte Carlo only enters when paths are drawn.  The traces
  at one time are taken in cell space, from the Gram matrix
  G = F^T Omega F (cells x cells) of the feature matrix F (u-nodes x
  cells); only the all-pairs covariance ``second_moment_matrix`` still
  forms the u-node x u-node matrix S = F diag(dy) F^T, because it needs
  prefix sums over u-nodes for every pair of output times.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from .errors import (AlignmentError, NumericError, ParameterError,
                     TruncationError)
from .kernels import fbm_covariance_closed_form
from .quadrature import panels_from_edges
from .seeding import (STREAM_CYLINDRICAL, STREAM_FBM, STREAM_ROSENBLATT,
                      child_seeds, rekey, substream)

__all__ = [
    "TimeGrid",
    "PathEnsemble",
    "CylindricalEnsemble",
    "LazyCylindricalEnsemble",
    "FbmSampler",
    "RosenblattSampler",
    "simulate_fbm",
    "simulate_rosenblatt",
    "third_moment_oracle",
    "make_sampler",
    "simulate_cylindrical",
]

_REPLICA_BLOCK = 2000  # cap on transient (n_nodes x replicas) arrays
_ROW_BLOCK = 512       # cap on transient (u-node rows x cells) arrays


# ---------------------------------------------------------------------------
# grids and ensembles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing times t_0 = 0 < ... < t_N = T."""

    points: np.ndarray
    uniform: bool = False

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 2:
            raise ParameterError("a time grid needs at least the two points 0 and T")
        if pts[0] != 0.0:
            raise ParameterError(f"time grid must start at 0, got {pts[0]}")
        if np.any(np.diff(pts) <= 0.0):
            raise ParameterError("time grid must be strictly increasing")
        object.__setattr__(self, "points", pts)
        is_uniform = bool(np.allclose(np.diff(pts), pts[1] - pts[0], rtol=1e-12, atol=0.0))
        object.__setattr__(self, "uniform", is_uniform)

    @classmethod
    def regular(cls, T: float, n_steps: int) -> "TimeGrid":
        if not T > 0.0 or n_steps < 1:
            raise ParameterError(f"need T > 0 and n_steps >= 1, got T={T}, n={n_steps}")
        return cls(points=np.linspace(0.0, T, n_steps + 1))

    @property
    def T(self) -> float:
        return float(self.points[-1])

    @property
    def n_steps(self) -> int:
        return self.points.size - 1

    def index(self, t: float) -> int:
        """Index of the grid time t; ``AlignmentError`` if t is not one."""
        idx = min(int(np.searchsorted(self.points, t)), self.points.size - 1)
        if not np.isclose(self.points[idx], t, rtol=1e-12, atol=1e-12):
            raise AlignmentError(f"t={t} is not a grid time")
        return idx


@dataclass(frozen=True)
class PathEnsemble:
    """Replicas of one scalar process on a common time grid.

    ``values`` has shape (replicas, N + 1); column 0 is identically zero
    since every process here starts at b_0 = 0.
    """

    grid: TimeGrid
    values: np.ndarray
    family: str
    params: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape[1] != self.grid.points.size:
            raise ParameterError(
                f"values shape {vals.shape} does not match grid of "
                f"{self.grid.points.size} points")
        if np.any(vals[:, 0] != 0.0):
            raise ParameterError("paths must start at 0")
        object.__setattr__(self, "values", vals)

    @property
    def replicas(self) -> int:
        return self.values.shape[0]

    # -- serialization ------------------------------------------------------

    def to_csv(self, path: str) -> None:
        """Columnar (replica, time, value) rows, 17 significant digits."""
        fmt = "{:.17g}".format
        mids = [f",{t}," for t in map(fmt, self.grid.points.tolist())]
        with open(path, "w") as fh:
            fh.write("replica,time,value\n")
            for r, row in enumerate(self.values.tolist()):
                fh.write("".join([f"{r}{m}{v}\n"
                                  for m, v in zip(mids, map(fmt, row))]))

    @classmethod
    def from_csv(cls, path: str, family: str = "custom", params: dict | None = None,
                 seed: int = 0) -> "PathEnsemble":
        """Read ``to_csv`` rows: replica-major, each replica on the same times.

        Replica 0's leading rows give the times. A missing, extra or
        out-of-order row raises ``ParameterError`` naming the first bad line.
        """
        raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if raw.shape[0] == 0 or raw.shape[1] != 3:
            raise ParameterError(f"{path}: expected rows of replica,time,value")
        n_pts = int(np.argmax(raw[:, 0] != 0.0)) or raw.shape[0]
        times = raw[:n_pts, 1]
        row = np.arange(raw.shape[0])
        want = np.column_stack([row // n_pts, times[row % n_pts]])
        bad = np.flatnonzero(np.any(raw[:, :2] != want, axis=1))
        if bad.size or raw.shape[0] % n_pts:
            i = int(bad[0]) if bad.size else raw.shape[0]
            got = (f"replica {raw[i, 0]:g}, time {raw[i, 1]:.17g}"
                   if bad.size else "end of file")
            raise ParameterError(
                f"{path}: line {i + 2}: expected replica {i // n_pts}, time "
                f"{times[i % n_pts]:.17g}, got {got}")
        replicas = raw.shape[0] // n_pts
        values = raw[:, 2].reshape(replicas, n_pts)
        return cls(grid=TimeGrid(points=times), values=values, family=family,
                   params=params or {}, seed=seed)


@dataclass(frozen=True)
class CylindricalEnsemble:
    """Independent scalar coordinate ensembles, one per basis vector."""

    modes: int
    coordinates: list

    def __post_init__(self):
        if self.modes != len(self.coordinates):
            raise ParameterError(
                f"modes={self.modes} but {len(self.coordinates)} coordinate ensembles")

    @property
    def grid(self) -> TimeGrid:
        return self.coordinates[0].grid

    def coordinate(self, n: int) -> PathEnsemble:
        return self.coordinates[n]


def _replica_normals(seed: int, stream: int, replicas: int, n: int,
                     *prefix, offset: int = 0) -> np.ndarray:
    """(replicas, n) standard normals, one counter-derived substream per row.

    Row i depends only on (seed, stream, prefix, offset + i), so any
    partition of replicas across blocks or workers reproduces the same
    ensemble bit for bit.  One generator serves every row: it starts on
    row 0's substream and is re-keyed to each later row's child seed.
    """
    out = np.empty((replicas, n))
    rng = substream(seed, stream, *prefix, offset)
    keys = child_seeds(seed, stream, *prefix, start=offset, count=replicas)
    for i, key in enumerate(keys.tolist()):
        if i:
            rekey(rng, key)
        out[i] = rng.standard_normal(n)
    return out


# ---------------------------------------------------------------------------
# fBm
# ---------------------------------------------------------------------------

class FbmSampler:
    """Exact Gaussian sampler holding one Cholesky factor per grid.

    Building the factor is the O(N^3) part; keeping it on the sampler
    lets a cylindrical simulation reuse it across all modes.  ``draw`` is
    ``core`` (the normals) times ``linear_map`` = chol^T.
    """

    def __init__(self, H: float, grid: TimeGrid):
        if not 0.5 < H < 1.0:
            raise ParameterError(f"H={H} outside (1/2, 1)")
        self.H = float(H)
        self.grid = grid
        t = grid.points[1:]
        cov = fbm_covariance_closed_form(H, t[:, None], t[None, :])
        try:
            self.linear_map = np.linalg.cholesky(cov).T
        except np.linalg.LinAlgError:
            jitter = 1e-12 * np.trace(cov) / cov.shape[0]
            try:
                self.linear_map = np.linalg.cholesky(cov + jitter * np.eye(cov.shape[0])).T
            except np.linalg.LinAlgError as exc:
                raise NumericError(
                    f"fBm covariance matrix not PSD after jitter {jitter:.3e} "
                    f"(N={cov.shape[0]}, H={H})") from exc

    def draw(self, replicas: int, seed: int, stream: int = STREAM_FBM,
             *prefix) -> np.ndarray:
        """(replicas, N + 1) paths with the exact t = 0 zero column.

        Same (seed, replicas) reproduces bit for bit.  The per-replica
        normals are stable under extending the replica count; the batched
        matrix product may reorder floating-point sums across different
        batch shapes, so extended runs agree to rounding, not bitwise.
        """
        out = np.empty((replicas, self.grid.points.size))
        out[:, 0] = 0.0
        out[:, 1:] = self.core(replicas, seed, stream, *prefix) @ self.linear_map
        return out

    def core(self, replicas: int, seed: int, stream: int = STREAM_FBM, *prefix):
        """(replicas, N) normals, one substream per replica."""
        if replicas < 1:
            raise ParameterError(f"replicas must be >= 1, got {replicas}")
        return _replica_normals(seed, stream, replicas, self.grid.n_steps, *prefix)


def simulate_fbm(H: float, grid: TimeGrid, replicas: int, seed: int) -> PathEnsemble:
    """Exact fBm sample paths on ``grid`` for H in (1/2, 1)."""
    sampler = FbmSampler(H, grid)
    values = sampler.draw(replicas, seed)
    return PathEnsemble(grid=grid, values=values, family="fbm",
                        params={"H": H}, seed=seed)


# ---------------------------------------------------------------------------
# Rosenblatt
# ---------------------------------------------------------------------------

def _rosenblatt_edges(T: float, trunc: float, inner: int,
                      y0: float = 0.5, ratio: float = 1.35) -> np.ndarray:
    """Cell edges on [-trunc, T]: uniform on [-y0, T], geometric below.

    The integrand weight (u - y)^{-sigma} varies fastest for y near the
    observation window, so resolution is spent there; far-left cells grow
    geometrically until the truncation point.
    """
    if not trunc > y0:
        raise ParameterError(f"truncation {trunc} must exceed {y0}")
    fine = np.linspace(-y0, T, inner + 1)
    tail = []
    w, y = (T + y0) / inner, -y0
    while y > -trunc:
        w *= ratio
        y = -trunc if y - w <= -trunc else y - w
        tail.append(y)
    return np.concatenate([tail[::-1], fine])


def _gram(F: np.ndarray, omega: np.ndarray, k: int) -> np.ndarray:
    """G = F_k^T diag(omega_k) F_k over the first k u-nodes (cells x cells).

    Accumulated over row blocks of sqrt(omega) F, so no temporary is
    larger than a block.
    """
    G = np.zeros((F.shape[1], F.shape[1]))
    for lo in range(0, k, _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, k)
        W = F[lo:hi] * np.sqrt(omega[lo:hi])[:, None]
        G += W.T @ W
    return G


class RosenblattSampler:
    """Second-chaos sampler with trace-formula moments.

    Holds the cell-averaged feature matrix F (u-nodes x cells), the
    u-quadrature weights omega, cell widths, and the per-output-time node
    counts; the calibration constant C comes from the exact variance of
    the discrete quadratic form at t = T.  ``draw`` is ``core`` (the
    form) times ``linear_map`` (the recolouring, None for the identity).

    The variance behind C, the doubling certificate and the third moment
    are traces over the cell-space Gram matrix G = F^T Omega F, so they
    need cells^2 memory.  Node space keeps F itself, the draw's F @ dW,
    and ``second_moment_matrix`` (with ``recolor``), the one place that
    forms the u-node x u-node matrix S = F diag(dy) F^T.
    """

    def __init__(self, Hp: float, grid: TimeGrid, trunc: float | None = None,
                 inner: int = 1024, check: bool = True, g_nodes: int = 4,
                 recolor: bool = False):
        if not 0.5 < Hp < 1.0:
            raise ParameterError(f"H'={Hp} outside (1/2, 1)")
        if inner < 16:
            raise ParameterError(f"inner resolution too small: {inner}")
        self.Hp = float(Hp)
        self.grid = grid
        self.trunc = float(trunc) if trunc is not None else 5.0 * grid.T
        self.inner = int(inner)
        self.g_nodes = int(g_nodes)
        self.sigma = (2.0 - Hp) / 2.0
        self._build(self.trunc, self.inner)
        raw = self._raw_variance(self.F, self.omega, self.dy, self.kend[-1])
        if not np.isfinite(raw) or raw <= 0.0:
            raise NumericError(f"raw variance at T evaluated to {raw}")
        self.C = 1.0 / np.sqrt(raw)
        self._raw_var_T = raw
        if check:
            self.convergence_drifts = self._convergence_check(raw)
        else:
            self.convergence_drifts = None
        # Quadrature covariance converges like dy^(3 - 4 sigma), which
        # stalls as H' -> 1/2.  For driver use a linear recoloring (which
        # stays inside the second chaos) replaces the discrete covariance
        # by the exact R^{H'}, the same exactness the Gaussian sampler
        # gets from its Cholesky factor.  Moment formulas on this object
        # keep describing the raw quadratic form.
        self._recolor = self._recolor_map() if recolor else None
        self.linear_map = self._recolor         # None is the identity

    # -- construction -------------------------------------------------------

    def _build(self, trunc: float, inner: int) -> None:
        self.F, self.omega, self.dy, self.kend = self._assemble(trunc, inner)
        self._diag_table = self._diagonal_table()

    def _recolor_map(self) -> np.ndarray:
        ts = self.grid.points[1:]
        exact = fbm_covariance_closed_form(self.Hp, ts[:, None], ts[None, :])
        disc = self.second_moment_matrix()[1:, 1:]
        jitter = 1e-12 * np.trace(disc) / disc.shape[0]
        L_d = np.linalg.cholesky(disc + jitter * np.eye(disc.shape[0]))
        L_e = np.linalg.cholesky(exact)
        # map A with A L_d = L_e; applied on the right as Z @ A.T
        return solve_triangular(L_d.T, L_e.T, lower=False)

    def _assemble(self, trunc, inner):
        T, times = self.grid.T, self.grid.points
        edges = _rosenblatt_edges(T, trunc, inner)
        yl, yr, dy = edges[:-1], edges[1:], np.diff(edges)
        interior = edges[(edges > 0.0) & (edges < T)]
        cuts = np.unique(np.concatenate([times, interior]))
        u, omega = panels_from_edges(cuts, n_nodes=self.g_nodes)
        # every output time is a cut, so kend is strictly increasing
        kend = [int(np.searchsorted(cuts, t, "right") - 1) * self.g_nodes
                for t in times]
        e1 = 1.0 - self.sigma
        # cell average of (u - y)_+^{-sigma}: difference of antiderivative
        # values at the cell edges, divided by the width; filled in row
        # blocks so the elementwise temporaries stay block-sized
        F = np.empty((u.size, dy.size))
        for lo in range(0, u.size, _ROW_BLOCK):
            ub = u[lo:lo + _ROW_BLOCK, None]
            F[lo:lo + _ROW_BLOCK] = (np.maximum(ub - yl[None, :], 0.0) ** e1
                                     - np.maximum(ub - yr[None, :], 0.0) ** e1
                                     ) / (e1 * dy[None, :])
        return F, omega, dy, kend

    def _diagonal_table(self) -> np.ndarray:
        """Column j: sum_{k < kend[j]} omega_k F_k^2, per cell.

        The weight of dW_i^2 in the diagonal terms the draw removes up to
        output time j, so the correction for every time is one product
        with dW^2.
        """
        F, om = self.F, self.omega
        table = np.empty((F.shape[1], len(self.kend)))
        acc = np.zeros(F.shape[1])
        prev = 0
        for j, k in enumerate(self.kend):
            for lo in range(prev, k, _ROW_BLOCK):
                blk = F[lo:min(lo + _ROW_BLOCK, k)]
                acc += om[lo:lo + blk.shape[0]] @ (blk * blk)
            table[:, j] = acc
            prev = k
        return table

    # -- exact moments of the discrete form ---------------------------------

    @staticmethod
    def _raw_variance(F, omega, dy, k) -> float:
        """Var of the uncalibrated quadratic form at node count k.

        With S_kl = sum_i F_ki F_li dy_i and b_i = sum_k omega_k F_ki^2,
        the off-diagonal double sum has variance 2 (S2 - D2) where
        S2 = sum_kl omega_k omega_l S_kl^2 and D2 = sum_i b_i^2 dy_i^2.
        Cyclically, S2 = tr((Omega S)^2) = sum_ij dy_i dy_j G_ij^2 with
        the Gram matrix G = F^T Omega F, and b_i = G_ii.
        """
        G = _gram(F, omega, k)
        bd = np.diagonal(G) * dy
        s2 = dy @ np.square(G, out=G) @ dy
        return 2.0 * (s2 - bd @ bd)

    def second_moment_matrix(self) -> np.ndarray:
        """Model covariance C^2 E[Q_s Q_t] on the full time grid.

        One S pass serves every pair: double prefix sums of
        omega_k omega_l S_kl^2, read off at each output time's node
        count, give the off-diagonal part for all time pairs at once.
        """
        F, om, dy, kend = self.F, self.omega, self.dy, self.kend
        kidx = np.asarray(kend)
        back = np.maximum(kidx - 1, 0)
        S = (F * dy) @ F.T
        acc = np.empty((F.shape[0], kidx.size))
        for lo in range(0, F.shape[0], _ROW_BLOCK):
            hi = min(lo + _ROW_BLOCK, F.shape[0])
            blk = np.square(S[lo:hi])
            blk *= om[None, :]
            cs = np.cumsum(blk, axis=1, out=blk)
            acc[lo:hi] = np.where(kidx[None, :] > 0, cs[:, back], 0.0)
        del S, blk, cs          # the only u-node x u-node matrix, freed here
        acc *= om[:, None]
        np.cumsum(acc, axis=0, out=acc)
        s2 = np.where(kidx[:, None] > 0, acc[back], 0.0)
        bw = np.square(F)
        bw *= om[:, None]
        np.cumsum(bw, axis=0, out=bw)
        bm = np.where(kidx[:, None] > 0, bw[back], 0.0) * dy[None, :]
        return 2.0 * (s2 - bm @ bm.T) * self.C ** 2

    def third_moment(self, t_index: int = -1) -> float:
        """Exact E Z_t^3 of the discrete model, 8 C^3 tr((B D)^3) expanded.

        Excluding diagonals subtracts rank-one corrections, giving
        tr((Omega S)^3) - 3 tr(Omega S Omega S') + 2 sum_i b_i^3 dy_i^3
        with S'_kl = sum_i F_ki F_li dy_i^2 b_i.  In cell space, with
        G = F^T Omega F, b_i = G_ii and D = diag(dy),
        tr((Omega S)^3) = tr(Gh^3) for Gh = D^1/2 G D^1/2, and
        tr(Omega S Omega S') = sum_ij G_ij^2 dy_j dy_i^2 b_i.
        """
        k = self.kend[t_index]
        if k == 0:
            return 0.0
        dy = self.dy
        G = _gram(self.F, self.omega, k)
        b = np.diagonal(G).copy()
        h = np.sqrt(dy)
        Gh = G * h[:, None] * h[None, :]
        # tr(A^3) = sum((A @ A) * A.T), saving one product
        cubic = np.sum((Gh @ Gh) * Gh.T)
        cross = (dy * dy * b) @ np.square(G, out=G) @ dy
        core = cubic - 3.0 * cross + 2.0 * np.sum(b ** 3 * dy ** 3)
        return float(8.0 * self.C ** 3 * core)

    # -- convergence certificate --------------------------------------------

    def _convergence_check(self, raw: float) -> dict:
        """Raise if Var Z_T drifts > 2% under doubling of trunc or inner."""
        drifts = {}
        for name, trunc, inner in (("trunc", 2.0 * self.trunc, self.inner),
                                   ("inner", self.trunc, 2 * self.inner)):
            F, om, dy, kend = self._assemble(trunc, inner)
            drifts[name] = self._raw_variance(F, om, dy, kend[-1]) / raw - 1.0
            del F               # not held while the next one is assembled
        worst = max(abs(v) for v in drifts.values())
        if worst > 0.02:
            raise TruncationError(
                f"Rosenblatt variance not converged: drift {worst:.2%} under "
                f"doubling (trunc {drifts['trunc']:+.2%}, inner "
                f"{drifts['inner']:+.2%}); increase trunc or inner",
                drift=worst)
        return drifts

    # -- sampling -----------------------------------------------------------

    def draw(self, replicas: int, seed: int, stream: int = STREAM_ROSENBLATT,
             *prefix, include_diagonal: bool = False) -> np.ndarray:
        """Sample paths; ``include_diagonal`` keeps the diagonal chaos term.

        The double integral excludes the diagonal; leaving it in is a
        deliberate fault injection for calibration checks, never a
        production option.  Same (seed, replicas) reproduces bit for bit;
        the matrix products may round differently for another replica
        count, so a prefix of a longer draw agrees to rounding.
        """
        core = self.core(replicas, seed, stream, *prefix,
                         include_diagonal=include_diagonal)
        out = np.empty((replicas, self.grid.points.size))
        out[:, 0] = 0.0
        out[:, 1:] = core if self.linear_map is None else core @ self.linear_map
        return out

    def core(self, replicas: int, seed: int, stream: int = STREAM_ROSENBLATT,
             *prefix, include_diagonal: bool = False) -> np.ndarray:
        """(replicas, N) calibrated quadratic form at t_1..t_N (0 at t_0)."""
        if replicas < 1:
            raise ParameterError(f"replicas must be >= 1, got {replicas}")
        F, om, dy, kend = self.F, self.omega, self.dy, self.kend
        sqdy = np.sqrt(dy)
        out = np.empty((replicas, len(kend)))
        for lo in range(0, replicas, _REPLICA_BLOCK):
            hi = min(lo + _REPLICA_BLOCK, replicas)
            g = _replica_normals(seed, stream, hi - lo, dy.size, *prefix,
                                 offset=lo)
            dw = (g * sqdy).T                     # cells x replicas
            v = F @ dw
            contrib = (v * v) * om[:, None]
            # cumulative over u-nodes, sampled at each output time's count
            acc = np.zeros(hi - lo)
            prev = 0
            for j, k in enumerate(kend):
                if k > prev:
                    acc = acc + contrib[prev:k].sum(axis=0)
                    prev = k
                out[lo:hi, j] = acc
            if not include_diagonal:
                out[lo:hi] -= np.square(dw.T) @ self._diag_table
            out[lo:hi] *= self.C
        return out[:, 1:]


def simulate_rosenblatt(Hp: float, grid: TimeGrid, trunc: float | None = None,
                        inner: int = 1024, *, replicas: int, seed: int,
                        check: bool = True) -> PathEnsemble:
    """Rosenblatt paths via the calibrated off-diagonal double sum.

    ``trunc`` is the left truncation M of the two-sided Wiener integral
    (default 5 T) and ``inner`` the number of uniform cells near the
    observation window.  With ``check`` on, construction verifies that
    doubling either parameter moves Var Z_T by less than 2% and raises
    :class:`TruncationError` carrying the drift otherwise.  The slowly
    decaying truncation tail means the default ``trunc`` fails that
    certificate; converged runs need trunc on the order of 1e5.
    """
    sampler = RosenblattSampler(Hp, grid, trunc=trunc, inner=inner, check=check)
    values = sampler.draw(replicas, seed)
    return PathEnsemble(grid=grid, values=values, family="rosenblatt",
                        params={"Hp": Hp, "trunc": sampler.trunc,
                                "inner": inner}, seed=seed)


def third_moment_oracle(Hp: float, t: float, inner: int = 1024,
                        trunc: float | None = None) -> float:
    """Deterministic E Z_t^3 of the discretized second-chaos model.

    Strictly positive for t > 0: the Rosenblatt kernel is pointwise
    nonnegative, so the cubic trace is a sum of nonnegative terms.
    """
    if t < 0.0:
        raise ParameterError(f"time must be >= 0, got {t}")
    if t == 0.0:
        return 0.0
    grid = TimeGrid(points=np.array([0.0, t]))
    sampler = RosenblattSampler(Hp, grid, trunc=trunc, inner=inner, check=False)
    return sampler.third_moment()


# ---------------------------------------------------------------------------
# cylindrical stacks
# ---------------------------------------------------------------------------

def make_sampler(family: str, params: dict, grid: TimeGrid):
    """The sampler of one driver family on ``grid`` and its family stream id.

    fBm reads ``params["H"]``; Rosenblatt reads ``params["Hp"]`` and the
    optional trunc, inner (1024), check (on) and recolor (off).
    """
    if family == "fbm":
        return FbmSampler(params["H"], grid), STREAM_FBM
    if family == "rosenblatt":
        sampler = RosenblattSampler(params["Hp"], grid, trunc=params.get("trunc"),
                                    inner=params.get("inner", 1024),
                                    check=params.get("check", True),
                                    recolor=params.get("recolor", False))
        return sampler, STREAM_ROSENBLATT
    raise ParameterError(f"unknown process family {family!r}")


class LazyCylindricalEnsemble:
    """A cylindrical ensemble whose coordinates are drawn on demand.

    ``coordinate(n)`` draws coordinate n from the substream family
    (seed, cylindrical, family stream, n) on every call and keeps nothing,
    so a caller that reduces one mode at a time holds one mode's paths.
    Expensive shared state (Cholesky factor, feature matrix) is built
    once, on construction.
    """

    def __init__(self, family: str, params: dict, modes: int, grid: TimeGrid,
                 replicas: int, seed: int):
        if modes < 1:
            raise ParameterError(f"modes must be >= 1, got {modes}")
        self.sampler, self._family_stream = make_sampler(family, params, grid)
        self.family, self.params, self.modes = family, params, modes
        self.grid, self.replicas, self.seed = grid, replicas, seed

    def _key(self, n: int) -> tuple:
        if not 0 <= n < self.modes:
            raise AlignmentError(f"coordinate {n} of a {self.modes}-mode driver")
        return self.seed, STREAM_CYLINDRICAL, self._family_stream, n

    def core(self, n: int) -> np.ndarray:
        """Coordinate n before the sampler's ``linear_map``: (replicas, N)."""
        return self.sampler.core(self.replicas, *self._key(n))

    def coordinate(self, n: int) -> PathEnsemble:
        values = self.sampler.draw(self.replicas, *self._key(n))
        return PathEnsemble(grid=self.grid, values=values, family=self.family,
                            params=dict(self.params, mode=n), seed=self.seed)


def simulate_cylindrical(family: str, params: dict, modes: int, grid: TimeGrid,
                         replicas: int, seed: int) -> CylindricalEnsemble:
    """``modes`` independent scalar ensembles of one family.

    Coordinate n draws from the substream family (seed, cylindrical, n),
    so modes are independent and individually reproducible; each is
    :meth:`LazyCylindricalEnsemble.coordinate`, drawn once and kept.
    """
    lazy = LazyCylindricalEnsemble(family, params, modes, grid, replicas, seed)
    return CylindricalEnsemble(modes=modes,
                               coordinates=[lazy.coordinate(n) for n in range(modes)])
