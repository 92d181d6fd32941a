"""Shared fixtures.

Everything here is deterministic: fixed seeds, session scope for the
objects that are expensive to build (kernels triggering calibration,
Cholesky factors, spectral models), so the cost is paid once.
"""

import tracemalloc

import numpy as np
import pytest

from volterra_spde.kernels import make_fbm_kernel
from volterra_spde.processes import RosenblattSampler, TimeGrid, simulate_fbm
from volterra_spde.spde import NoiseOperator, build_model


@pytest.fixture(scope="session")
def peak_bytes():
    """``peak_bytes(fn)`` calls fn and returns (its result, the peak bytes
    that tracemalloc saw allocated while it ran)."""
    def measure(fn):
        tracemalloc.start()
        try:
            result = fn()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return result, peak
    return measure


@pytest.fixture(scope="session")
def tile_samplers():
    """Cheap recoloured Rosenblatt samplers (H' 0.75, inner 256, trunc
    2e3, uncertified) with 5, 65 and 513 output times, keyed by steps."""
    return {n: RosenblattSampler(0.75, TimeGrid.regular(1.0, n), trunc=2.0e3,
                                 inner=256, check=False, recolor=True)
            for n in (4, 64, 512)}


@pytest.fixture(scope="session")
def kernel_075():
    return make_fbm_kernel(0.75)


@pytest.fixture(scope="session")
def grid_256():
    return TimeGrid.regular(1.0, 256)


@pytest.fixture(scope="session")
def fbm_ens_075(grid_256):
    """2000 fBm paths, H = 0.75, shared across isometry-style tests."""
    return simulate_fbm(0.75, grid_256, replicas=2000, seed=424242)


@pytest.fixture(scope="session")
def model_16():
    return build_model(np.pi, 1, 16, 128)


@pytest.fixture(scope="session")
def noise_ones_16():
    return NoiseOperator(kind="diagonal", phi_k=np.ones(16))
