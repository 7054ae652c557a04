"""Deterministic random streams built on the Philox counter-based generator.

Every stochastic entry point in this package takes a 64-bit seed and derives
independent child streams from it by key, never by sequential jumping.  Two
streams with different derivation paths are statistically independent, and the
set of streams produced for a run does not depend on thread count or
scheduling order.

A stream is built from its key alone: it reads no OS entropy, and it is the
generator that ``Philox(key=...)`` gives, at counter 0.  ``numpy.random`` is
imported on the first stream, not with this module.
"""

from __future__ import annotations

import functools

import numpy as np

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """One round of the splitmix64 mixer (public-domain constants)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_key(seed: int, *path: int) -> tuple[int, int]:
    """Mix a base seed and a derivation path into a 128-bit Philox key.

    The seed occupies one key word untouched; the path is folded into the
    other word with splitmix64 rounds so that distinct paths give distinct,
    well-separated keys.
    """
    h = _splitmix64(seed & _MASK64)
    for p in path:
        h = _splitmix64(h ^ (p & _MASK64))
    return (seed & _MASK64, h)


class _Key:
    """A Philox key handed to numpy as its seed sequence.

    ``Philox(key=...)`` first seeds a ``SeedSequence`` from OS entropy and then
    discards it; given this object instead, Philox asks it for two 64-bit
    words and uses them as the key.  numpy accepts it as an ``ISeedSequence``
    once `_numpy_random` has registered it.
    """

    __slots__ = ("words",)

    def __init__(self, words: tuple[int, int]) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> tuple[int, int]:
        if n_words != 2 or dtype is not np.uint64:
            raise ValueError(
                f"a Philox key is 2 uint64 words, not {n_words} of {np.dtype(dtype)}"
            )
        return self.words


@functools.cache
def _numpy_random():
    """Import ``numpy.random`` on first use and register `_Key` with it."""
    from numpy.random import Generator, Philox, bit_generator

    bit_generator.ISeedSequence.register(_Key)
    return Generator, Philox


def stream(seed: int, *path: int) -> np.random.Generator:
    """Return an independent Generator for (seed, path), keyed by `derive_key`."""
    generator, philox = _numpy_random()
    return generator(philox(_Key(derive_key(seed, *path))))
