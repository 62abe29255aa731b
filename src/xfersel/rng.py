"""Deterministic counter-based random words and index subsampling.

Everything seeded in this package flows through one documented generator so
that an independent implementation (any language) can reproduce the exact
same subsamples.  The generator is the SplitMix64 output function evaluated
in counter mode:

    word(seed, i) = mix64((seed + (i + 1) * 0x9E3779B97F4A7C15) mod 2**64)

    mix64(z):
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9   mod 2**64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB   mod 2**64
        return z ^ (z >> 31)

Subsampling k of n indices without replacement is a partial Fisher-Yates
shuffle driven by these words: at step i (0-based) draw
j = i + (word(seed, i) mod (n - i)), swap positions i and j of the virtual
identity array, and keep the first k entries, reported in ascending order.
The modulo draw has negligible bias for n << 2**64 and is part of the
format contract.
"""

from __future__ import annotations

import numpy as np

GOLDEN_GAMMA = 0x9E3779B97F4A7C15


def _words(seed: int, indices: np.ndarray) -> np.ndarray:
    """``word(seed, i)`` for each i of a uint64 array, in wrapping arithmetic."""
    z = np.uint64(seed % 2**64) + (indices + np.uint64(1)) \
        * np.uint64(GOLDEN_GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def word(seed: int, index: int) -> int:
    """The ``index``-th 64-bit word of the stream for ``seed``."""
    return int(_words(seed, np.array([index], np.uint64))[0])


def subsample_indices(n: int, k: int, seed: int) -> list[int]:
    """Choose min(k, n) of ``n`` indices without replacement, ascending.

    Deterministic for a given seed; see the module docstring for the exact
    procedure.  Returns list(range(n)) when k >= n.  The virtual array is a
    dict of the positions that hold another index; step i reads only
    positions >= i, so of its swap only position j is stored.
    """
    if n < 0 or k < 0:
        raise ValueError("n and k must be non-negative")
    if k >= n:
        return list(range(n))
    steps = np.arange(k, dtype=np.uint64)
    draws = steps + _words(seed, steps) % (np.uint64(n) - steps)
    swap: dict[int, int] = {}
    selected = []
    for i, j in enumerate(draws.tolist()):
        selected.append(swap.get(j, j))
        swap[j] = swap.get(i, i)
    selected.sort()
    return selected
