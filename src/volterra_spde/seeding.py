"""Deterministic counter-based seed derivation.

All randomness in the library flows through one master seed.  Child
streams are derived by hashing ``(master, stream_id, *indices)`` with the
splitmix64 finalizer and feeding the result to a counter-based generator
(Philox), so that

* replica r of experiment s is the same bit stream no matter how work is
  sliced across workers, and
* distinct (stream, replica) pairs collide with probability ~2^-64,
  comfortably below the ~2^20 streams a full suite creates.

Stream ids are small module-local constants; they only have to be unique
within the library, and they are all listed here so uniqueness is visible.

A draw of many replica rows derives the rows' child seeds in one
vectorized pass (``child_seeds``) and moves one Philox bit generator to
each row's key (``rekey``) instead of building a generator per row.
Philox is counter-based, so a re-keyed generator is in exactly the state
a fresh ``Philox(key=k)`` starts in and draws the same numbers.
"""

from __future__ import annotations

import numpy as np

# Stream-id registry. Keep every id in this file.
STREAM_FBM = 0x01
STREAM_ROSENBLATT = 0x02
STREAM_CYLINDRICAL = 0x03
STREAM_CHAOS = 0x04
STREAM_CHAOS_COEFF = 0x05
STREAM_TEST = 0x7F

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One step of the splitmix64 finalizer (public-domain constants)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def child_seed(master: int, *indices: int) -> int:
    """Mix a master seed and an index tuple into one 64-bit child seed.

    The mixing is a chained splitmix64 over the tuple, which is the usual
    counter-hash construction: order matters, absorbing is injective for
    fixed tuple length, and avalanche comes from the finalizer.
    """
    acc = splitmix64(int(master) & _MASK64)
    for ix in indices:
        acc = splitmix64(acc ^ (int(ix) & _MASK64))
    return acc


def child_seeds(master: int, *prefix: int, start: int, count: int) -> np.ndarray:
    """uint64 array of ``child_seed(master, *prefix, start + i)``, i < count.

    The prefix chain runs once; the last splitmix64 step runs in numpy
    uint64 arithmetic, which wraps modulo 2^64 like the masked Python one.
    """
    acc = np.uint64(child_seed(master, *prefix))
    x = np.arange(count, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x += np.uint64(int(start) & _MASK64)
        x ^= acc
        x += np.uint64(0x9E3779B97F4A7C15)
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
    return x


def substream(master: int, *indices: int) -> np.random.Generator:
    """Return a Generator on an independent substream.

    Philox is counter-based, so construction is O(1) and streams derived
    from distinct child seeds are independent by design.
    """
    return np.random.Generator(np.random.Philox(key=child_seed(master, *indices)))


def rekey(rng: np.random.Generator, key: int) -> None:
    """Put ``rng``'s Philox in the state ``Philox(key=key)`` starts in.

    Key ``[key, 0]``, counter zero, an empty buffer and no cached 32-bit
    half, so ``rng`` then draws exactly what ``substream`` would give for
    the child seed ``key``.
    """
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (int(key), 0)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
