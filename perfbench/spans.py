"""Spans around calls into volterra_spde, recorded from outside the library.

``Tracer.install`` replaces each traced callable by a timing wrapper at
every place a caller looks it up: a class attribute for methods, and for
functions every ``volterra_spde`` module attribute bound to the same
object (``processes`` imported ``substream`` by name, so patching
``seeding.substream`` alone would record nothing). ``uninstall`` puts
the originals back. Nothing is patched while the tracer is not
installed, so untraced runs execute the library untouched.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 at the root); all spans of one tracer share its run
id. Self time is a span's duration minus the durations of its direct
children. Spans stay in memory until ``write`` is called.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict


def _fbm_factor_size(args, kwargs):
    n = args[0].grid.n_steps
    return {"processes.fbm_factor_mib": n * n * 8 / 2**20}


def _replicas(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["replicas"]


def _fbm_draw_size(args, kwargs):
    n = args[0].grid.n_steps
    return {"processes.fbm_draw_gflop": 2 * _replicas(args, kwargs) * n * n / 1e9}


def _rosenblatt_draw_size(args, kwargs):
    sampler, reps = args[0], _replicas(args, kwargs)
    k, cells = sampler.F.shape
    flop = 4 * k * cells * reps        # F @ dw and (F * F) @ (dw * dw)
    if sampler._recolor is not None:
        n = sampler.grid.n_steps
        flop += 2 * reps * n * n
    return {"processes.rosenblatt_draw_gflop": flop / 1e9}


def _snapshot_size(args, kwargs):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"spde.snapshot_csv_mib": os.path.getsize(path) / 2**20}


# (span name, module, attribute, "Class" or None, size function, timed).
# An untimed target only counts calls: the increment oracle runs 2560
# times inside oracle_variogram_exponent, whose self time should keep it.
TARGETS = [
    ("seeding.substream", "seeding", "substream", None, None, True),
    ("processes.fbm_factor", "processes", "__init__", "FbmSampler",
     _fbm_factor_size, True),
    ("processes.fbm_draw", "processes", "draw", "FbmSampler",
     _fbm_draw_size, True),
    ("processes.rosenblatt_build", "processes", "__init__",
     "RosenblattSampler", None, True),
    ("processes.rosenblatt_draw", "processes", "draw", "RosenblattSampler",
     _rosenblatt_draw_size, True),
    ("processes.simulate_cylindrical", "processes", "simulate_cylindrical",
     None, None, True),
    ("spde.mode_convolution", "spde", "mode_convolution", None, None, True),
    ("spde.solve_mild", "spde", "solve_mild", None, None, True),
    ("spde.per_mode_variance_oracle", "spde", "per_mode_variance_oracle",
     None, None, True),
    ("spde.gamma_decay", "spde", "estimate_gamma_decay", None, None, True),
    ("spde.snapshot_csv", "spde", "snapshot_to_csv", "MildSolutionField",
     _snapshot_size, True),
    ("regularity.field_variogram", "regularity", "field_variogram", None,
     None, True),
    ("regularity.oracle_variogram", "regularity", "oracle_variogram_exponent",
     None, None, True),
    ("regularity.increment_oracle", "regularity", "_mode_increment_var",
     None, None, False),
    ("regularity.verdict", "regularity", "regularity_verdict", None, None,
     True),
    ("cli.run", "cli", "run", None, None, True),
]


def _lookup_sites(original):
    """Every (module, attribute) in volterra_spde bound to ``original``."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "volterra_spde"
                               or name.startswith("volterra_spde.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                yield mod, attr


class Tracer:
    """Records spans and counts for one run; see the module docstring."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.sizes: dict[str, float] = defaultdict(float)
        self._parent = -1
        self._patched: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def wrap(self, name, fn, size=None, timed=True):
        """``fn`` recording a span (or, untimed, only a call count)."""
        calls = self.calls

        if not timed:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        spans, sizes, clock = self.spans, self.sizes, time.perf_counter

        @functools.wraps(fn)
        def timed_call(*args, **kwargs):
            calls[name] += 1
            index = len(spans)
            parent = self._parent
            record = [name, clock(), None, parent]
            spans.append(record)
            self._parent = index
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                self._parent = parent
            if size is not None:
                for key, value in size(args, kwargs).items():
                    sizes[key] += value
            return result
        return timed_call

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        import volterra_spde  # noqa: F401  (loads every submodule)
        for name, module, attr, cls, size, timed in TARGETS:
            mod = sys.modules[f"volterra_spde.{module}"]
            if cls is not None:
                owner = getattr(mod, cls)
                original = vars(owner)[attr]
                self._patched.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, size, timed))
                continue
            original = getattr(mod, attr)
            wrapper = self.wrap(name, original, size, timed)
            for site, site_attr in _lookup_sites(original):
                self._patched.append((site, site_attr, original))
                setattr(site, site_attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per-span self time, in span order."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_metrics(self) -> dict[str, float]:
        """``<span>_s`` self seconds, ``<span>_calls`` and size totals."""
        out: dict[str, float] = defaultdict(float)
        for (name, *_), own in zip(self.spans, self.self_times()):
            out[f"{name}_s"] += own
        for name, count in self.calls.items():
            out[f"{name}_calls"] = count
        out.update(self.sizes)
        return dict(out)

    def write(self, path: str) -> None:
        """Spans as JSON lines: run id, name, start, end, parent."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([self.run_id, name, start, end, parent]))
                fh.write("\n")
