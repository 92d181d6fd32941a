"""Known answers and properties of the seed derivation.

Every draw in the library is a function of these keys, so each test here
fails if a change moves a single draw.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from volterra_spde.processes import _replica_normals
from volterra_spde.seeding import child_seed, child_seeds, rekey, substream


def test_child_seed_known_values():
    assert child_seed(20260823, 3, 1, 0) == 6160357954075249579
    assert child_seed(0) == 16294208416658607535
    assert child_seed(2**64 - 1, 0x7F, 12345, 2**40) == 15122144416787859085


def test_substream_known_normals():
    got = substream(20260823, 3, 1, 0).standard_normal(4)
    assert got.tolist() == [-0.6706258396438483, -0.7246968509195291,
                            -1.168116327184746, 0.34146583835404126]


def test_rekeyed_state_is_a_fresh_philox():
    rng = substream(5, 6)
    rng.standard_normal(7)
    rng.random(dtype=np.float32)           # leaves a cached 32-bit half
    key = child_seed(5, 6, 1)
    rekey(rng, key)
    got, want = rng.bit_generator.state, np.random.Philox(key=key).state
    assert got.keys() == want.keys()
    for name in ("bit_generator", "buffer_pos", "has_uint32", "uinteger"):
        assert got[name] == want[name]
    assert np.array_equal(got["buffer"], want["buffer"])
    for name in ("counter", "key"):
        assert np.array_equal(got["state"][name], want["state"][name])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), stream=st.integers(0, 0x7F),
       prefix=st.lists(st.integers(0, 2**32), max_size=3),
       offset=st.integers(0, 2**32 - 1), replicas=st.integers(1, 20),
       n=st.integers(1, 64))
def test_rows_match_one_substream_each(seed, stream, prefix, offset,
                                       replicas, n):
    keys = child_seeds(seed, stream, *prefix, start=offset, count=replicas)
    assert keys.dtype == np.uint64
    assert keys.tolist() == [child_seed(seed, stream, *prefix, offset + i)
                             for i in range(replicas)]
    got = _replica_normals(seed, stream, replicas, n, *prefix, offset=offset)
    for i in range(replicas):
        want = substream(seed, stream, *prefix, offset + i).standard_normal(n)
        assert got[i].tobytes() == want.tobytes()
