"""Reproducible pseudo-random numbers.

Every stochastic step in the package (weight init, epoch shuffles, fold
splits, pixel noise) draws from the generator defined here instead of a
platform RNG, so runs are bit-reproducible from a single 64-bit seed and
the stream is simple enough to replicate in any language:

* seeding: splitmix64 applied to the seed expands it into the 256-bit
  xoshiro256** state (four consecutive splitmix64 outputs),
* generation: xoshiro256** (Blackman & Vigna),
* floats: 53-bit mantissa, ``(word >> 11) * 2**-53`` in [0, 1),
* normals: Box-Muller on two uniforms, with ``u1`` shifted into (0, 1].

One implementation serves an int seed (one stream) and a 1-d uint64 array
of seeds (one stream each, as ``normal_blocks`` uses): ``& _MASK64`` keeps
ints to 64 bits and leaves wrapping uint64 arrays as they are. A numpy scalar
state would warn on wraparound, and numpy 1.x makes uint64 scalar + int float64.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
# Columns per block of normal_blocks().
_BLOCK_COLUMNS = 32


def splitmix64(state: int) -> tuple[int, int]:
    """Advance a splitmix64 state; returns (new_state, output word)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z = z ^ (z >> 31)
    return state, z


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class Rng:
    """xoshiro256** stream seeded via splitmix64; one per element of an array seed."""

    def __init__(self, seed: int):
        s = seed & _MASK64
        state = []
        for _ in range(4):
            s, word = splitmix64(s)
            state.append(word)
        self._s = state
        self._spare_normal: float | None = None

    def next_uint64(self) -> int:
        s = self._s
        result = (_rotl((s[1] * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s[1] << 17) & _MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_uint64() >> 11) * 2.0**-53

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.random()

    def normal(self) -> float:
        """Standard normal via Box-Muller; consumes two uniforms per pair."""
        if self._spare_normal is not None:
            z = self._spare_normal
            self._spare_normal = None
            return z
        u1 = ((self.next_uint64() >> 11) + 1) * 2.0**-53  # in (0, 1]
        u2 = (self.next_uint64() >> 11) * 2.0**-53
        radius = np.sqrt(-2.0 * np.log(u1))
        self._spare_normal = radius * np.sin(2.0 * np.pi * u2)
        return radius * np.cos(2.0 * np.pi * u2)

    def integer(self, n: int) -> int:
        """Integer in [0, n) from one float draw (bias is ~2^-53, irrelevant here)."""
        if n <= 0:
            raise ValueError("n must be positive")
        return min(int(self.random() * n), n - 1)

    def shuffle(self, items: list | np.ndarray) -> None:
        """In-place Fisher-Yates."""
        for i in range(len(items) - 1, 0, -1):
            j = self.integer(i + 1)
            items[i], items[j] = items[j], items[i]

    def uniform_vector(self, low: float, high: float, size: int) -> np.ndarray:
        return np.array([self.uniform(low, high) for _ in range(size)])


def normal_blocks(seeds: np.ndarray, draws: int):
    """(start, block) for each block of columns of ``normal_field(seeds,
    draws)``, from column ``start`` on, so a caller can use each block and
    drop it without the whole field ever existing."""
    gen = Rng(np.asarray(seeds, dtype=np.uint64))
    for start in range(0, draws, _BLOCK_COLUMNS):
        block = np.empty((len(seeds), min(_BLOCK_COLUMNS, draws - start)))
        for column in block.T:
            column[:] = gen.normal()
        yield start, block


def normal_field(seeds: np.ndarray, draws: int) -> np.ndarray:
    """Standard-normal matrix of shape (len(seeds), draws).

    Row i is the first ``draws`` normals of the stream seeded with
    ``seeds[i]``, identical to ``[Rng(seeds[i]).normal() for _ in ...]``.
    """
    out = np.empty((len(seeds), draws))
    for start, block in normal_blocks(seeds, draws):
        out[:, start : start + block.shape[1]] = block
    return out


def substream_seed(seed: int, index: int) -> int:
    """Derived seed for an indexed substream (fold, image, ...)."""
    return (seed ^ index) & _MASK64
