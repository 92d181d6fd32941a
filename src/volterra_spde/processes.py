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
  cells); the all-pairs covariance ``second_moment_matrix`` needs
  prefix sums over u-nodes, so it forms S = F diag(dy) F^T in row blocks.
  Draws run in fixed replica tiles: their bits and temporaries do not
  depend on the replica count.
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

_REPLICA_TILE = 256    # rows of the draw's (replicas x u-nodes) tiles
_ROW_BLOCK = 512       # cap on transient (u-node rows x cells) arrays
_G_NODES = 4           # Gauss nodes per u-panel of the Rosenblatt quadrature


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


def _row_blocks(F: np.ndarray, k: int, rows: int = _ROW_BLOCK):
    """(lo, F[lo:hi, :c]) over the first k u-nodes.  F[k, i] = 0 exactly
    when cell i starts right of u-node k, and rows are sorted by u, so c,
    one past the block's last row's last nonzero, bounds its nonzeros."""
    for lo in range(0, k, rows):
        hi = min(lo + rows, k)
        yield lo, F[lo:hi, :np.flatnonzero(F[hi - 1])[-1] + 1]


def _gram(blocks, omega: np.ndarray, cells: int) -> np.ndarray:
    """G = F_k^T diag(omega_k) F_k (cells x cells) from row blocks of F.
    Block prefixes only grow; the distinct ones cut the columns into
    panels, each block adds its prefix panel by panel to G's upper
    triangle and the lower one is mirrored at the end, so no temporary
    is larger than cells x one panel."""
    G, edges = np.zeros((cells, cells)), [0]
    for lo, blk in blocks:
        if blk.shape[1] > edges[-1]:
            edges.append(blk.shape[1])
        blk = blk * np.sqrt(omega[lo:lo + blk.shape[0]])[:, None]
        for s, e in zip(edges, edges[1:]):
            G[:e, s:e] += blk[:, :e].T @ blk[:, s:e]
    for s, e in zip(edges, edges[1:]):
        G[s:e, :s] = G[:s, s:e].T
    return G


class RosenblattSampler:
    """Second-chaos sampler with trace-formula moments.

    Holds the cell-averaged feature matrix F (u-nodes x cells), the
    u-quadrature weights omega, cell widths, and the per-output-time node
    counts; the calibration constant C comes from the exact variance of
    the discrete quadratic form at t = T.  ``draw`` is ``core`` (the
    form) times ``linear_map`` (the recolouring, None for the identity).

    F is zero right of a staircase, so each pass, the draw's included,
    runs over the nonzero prefix of its row blocks.  C, the doubling
    certificate (whose doubled models stream blocks and store no F) and
    the third moment are traces of the Gram matrix G = F^T Omega F, in
    cells^2 memory.  ``second_moment_matrix`` forms S = F diag(dy) F^T a
    row block at a time, and the draw holds one 256-replica tile.
    """

    def __init__(self, Hp: float, grid: TimeGrid, trunc: float | None = None,
                 inner: int = 1024, check: bool = True,
                 recolor: bool = False):
        if not 0.5 < Hp < 1.0:
            raise ParameterError(f"H'={Hp} outside (1/2, 1)")
        if inner < 16:
            raise ParameterError(f"inner resolution too small: {inner}")
        self.Hp = float(Hp)
        self.grid = grid
        self.trunc = float(trunc) if trunc is not None else 5.0 * grid.T
        self.inner = int(inner)
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
        self.omega, self.dy, self.kend, blocks = self._assemble(trunc, inner)
        self.F = np.zeros((self.omega.size, self.dy.size))
        for lo, blk in blocks:
            self.F[lo:lo + blk.shape[0], :blk.shape[1]] = blk
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
        """omega, dy, kend and a one-pass generator of F's row blocks."""
        T, times = self.grid.T, self.grid.points
        edges = _rosenblatt_edges(T, trunc, inner)
        yl, dy = edges[:-1], np.diff(edges)
        interior = edges[(edges > 0.0) & (edges < T)]
        cuts = np.unique(np.concatenate([times, interior]))
        u, omega = panels_from_edges(cuts, n_nodes=_G_NODES)
        # every output time is a cut, so kend is strictly increasing
        kend = [int(np.searchsorted(cuts, t, "right") - 1) * _G_NODES
                for t in times]
        e1 = 1.0 - self.sigma
        ncol = np.searchsorted(yl, u, "left")    # cells left of each u-node

        def block(lo):
            # cell means of (u - y)_+^{-sigma} on yl < u, edge by edge
            ub = u[lo:lo + _ROW_BLOCK, None]
            c = ncol[lo:lo + _ROW_BLOCK][-1]
            a = ub - edges[None, :c + 1]
            a = np.maximum(a, 0.0, out=a) ** e1
            return np.divide(a[:, :-1] - a[:, 1:], e1 * dy[None, :c],
                             out=a[:, :-1])
        blocks = ((lo, block(lo)) for lo in range(0, u.size, _ROW_BLOCK))
        return omega, dy, kend, blocks

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
        return RosenblattSampler._gram_variance(
            _gram(_row_blocks(F, k), omega, dy.size), dy)

    @staticmethod
    def _gram_variance(G, dy) -> float:
        """``_raw_variance`` from the Gram matrix G, squared in place."""
        bd = np.diagonal(G) * dy
        s2 = dy @ np.square(G, out=G) @ dy
        return 2.0 * (s2 - bd @ bd)

    def second_moment_matrix(self) -> np.ndarray:
        """Model covariance C^2 E[Q_s Q_t] on the full time grid.

        One pass over S, a quarter row block at a time, serves every pair:
        the block's rows of omega_k omega_l S_kl^2, prefix-summed along l at
        each output time's node count, extend a running sum over k, and the
        times whose node count ends in the block read their rows off it,
        less the diagonal part from the draw's prefix table.
        """
        F, om, dy, table = self.F, self.omega, self.dy, self._diag_table
        kend = np.asarray(self.kend)
        s2, run = np.zeros((kend.size, kend.size)), np.zeros(kend.size)
        buf = np.empty((min(_ROW_BLOCK // 4, F.shape[0]), F.shape[0]))
        for lo, blk in _row_blocks(F, F.shape[0], _ROW_BLOCK // 4):
            c, srow = blk.shape[1], buf[:blk.shape[0]]
            np.matmul(blk * dy[:c], F[:, :c].T, out=srow)   # rows of S
            srow *= srow
            srow *= om
            np.cumsum(srow, axis=1, out=srow)
            part = srow[:, kend - 1]
            part[:, 0] = 0.0                                # kend[0] == 0
            part *= om[lo:lo + part.shape[0], None]
            part[0] += run
            np.cumsum(part, axis=0, out=part)
            run = part[-1]
            ends = (kend > lo) & (kend <= lo + part.shape[0])
            s2[ends] = (part[kend[ends] - 1 - lo]
                        - (table[:, ends].T * dy * dy) @ table)
        s2 *= 2.0 * self.C ** 2
        return s2

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
        G = _gram(_row_blocks(self.F, k), self.omega, dy.size)
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
            # every u-node lies at or before T; the blocks stream into G
            om, dy, _, blocks = self._assemble(trunc, inner)
            G = _gram(blocks, om, dy.size)
            drifts[name] = self._gram_variance(G, dy) / raw - 1.0
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
        production option.  Replicas go through fixed tiles of
        ``_REPLICA_TILE`` rows, so every matrix product has a shape set by
        the sampler alone: a prefix of a longer draw is the shorter draw
        bit for bit, and the temporaries are one tile's, whatever
        ``replicas`` is.
        """
        return self._tiles(replicas, seed, stream, prefix, include_diagonal,
                           self.linear_map)

    def core(self, replicas: int, seed: int, stream: int = STREAM_ROSENBLATT,
             *prefix, include_diagonal: bool = False) -> np.ndarray:
        """(replicas, N) calibrated quadratic form at t_1..t_N, before
        ``linear_map``; tiled like ``draw``, so equally a bitwise prefix."""
        return self._tiles(replicas, seed, stream, prefix, include_diagonal,
                           None)[:, 1:]

    def _tiles(self, replicas, seed, stream, prefix, include_diagonal,
               linear_map) -> np.ndarray:
        """(replicas, N + 1) paths, one fixed-width replica tile at a time:
        F @ dW over each row block's nonzero prefix as (tile x u-nodes),
        squared, weighted and summed per step, less the diagonal terms,
        times ``linear_map``.  Padding rows never reach the output."""
        if replicas < 1:
            raise ParameterError(f"replicas must be >= 1, got {replicas}")
        F, om, dy, kend = self.F, self.omega, self.dy, self.kend
        sqdy, blocks = np.sqrt(dy), list(_row_blocks(F, F.shape[0]))
        out = np.zeros((replicas, len(kend)))
        dw = np.zeros((_REPLICA_TILE, dy.size))
        v = np.empty((_REPLICA_TILE, F.shape[0]))
        for lo in range(0, replicas, _REPLICA_TILE):
            n = min(_REPLICA_TILE, replicas - lo)
            dw[:n] = _replica_normals(seed, stream, n, dy.size, *prefix,
                                      offset=lo)
            dw[:n] *= sqdy
            for k0, blk in blocks:
                np.matmul(dw[:, :blk.shape[1]], blk.T,
                          out=v[:, k0:k0 + blk.shape[0]])
            v *= v
            v *= om
            # every u-node lies before kend[-1], where the last sum ends
            q = np.cumsum(np.add.reduceat(v, kend[:-1], axis=1), axis=1)
            if not include_diagonal:
                q -= np.square(dw) @ self._diag_table[:, 1:]
            q *= self.C
            out[lo:lo + n, 1:] = (q if linear_map is None
                                  else q @ linear_map)[:n]
        return out


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
