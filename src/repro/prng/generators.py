"""From-scratch pseudo-random generators used as the paper's ``p_r(s)``.

All generators emit ``bits``-bit unsigned integers, i.e. values in
``0 ... R`` with ``R = 2**bits - 1`` exactly as Definition 3.2 requires.
The paper's analysis treats the stream as ``b`` truly-random bits; these
generators are the practical stand-ins (the paper itself assumes "a
standard pseudo-random number generator").

The implementations are exact-integer so the REMAP arithmetic built on top
is bit-reproducible across platforms.  :func:`_mix64_batch` and
:meth:`SplitMix64.prefixes` are the numpy forms of the SplitMix64
arithmetic, bit for bit: ``uint64`` arithmetic wraps mod ``2**64`` as the
scalar mask does.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence

import numpy as np

_MASK64 = (1 << 64) - 1

#: Golden-ratio increment used by SplitMix64 (Steele, Lea & Flood 2014).
SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    """The SplitMix64 finalizer: a bijective avalanche mix on 64 bits."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def _mix64_batch(values: np.ndarray) -> np.ndarray:
    """:func:`_mix64` over an array, bit-identical (``uint64`` out)."""
    z = np.asarray(values, dtype=np.uint64).copy()
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


class PseudoRandomGenerator(ABC):
    """Common interface for the paper's ``p_r(s)``.

    Parameters
    ----------
    seed:
        The object seed ``s_m``.  Any Python integer is accepted; it is
        folded into the generator's native state width.
    bits:
        Output width ``b``; each draw is masked to ``bits`` low-order bits
        so the stream lies in ``0 ... 2**bits - 1`` (the paper's ``R``).
    """

    #: Human-readable family name, e.g. ``"splitmix64"``.
    family: str = "abstract"

    def __init__(self, seed: int, bits: int = 64):
        if not 1 <= bits <= 64:
            raise ValueError(f"bits must be in 1..64, got {bits}")
        self.seed = seed
        self.bits = bits
        self._mask = (1 << bits) - 1
        self._index = 0

    @property
    def r_max(self) -> int:
        """The paper's ``R``: the largest value the generator can return."""
        return self._mask

    @property
    def index(self) -> int:
        """How many values have been drawn so far."""
        return self._index

    def next(self) -> int:
        """Return the next ``bits``-bit value of the stream."""
        value = self._next_raw() & self._mask
        self._index += 1
        return value

    def at(self, i: int) -> int:
        """Return the *i*-th value (0-indexed) of the stream for this seed.

        The default implementation replays the stream from the seed and is
        O(i); subclasses with cheap jump-ahead override it.  ``at`` never
        disturbs the iteration state of ``self``.
        """
        if i < 0:
            raise ValueError(f"sequence index must be >= 0, got {i}")
        clone = type(self)(self.seed, self.bits)
        value = 0
        for _ in range(i + 1):
            value = clone.next()
        return value

    @abstractmethod
    def _next_raw(self) -> int:
        """Advance the state and return an unmasked 64-bit draw."""


class SplitMix64(PseudoRandomGenerator):
    """SplitMix64: state marches by a fixed gamma, output is a hash of state.

    Because output ``i`` equals ``mix64(seed + (i+1) * gamma)``, indexed
    access is O(1) — iterated and indexed access provably agree, which the
    test suite checks by property.
    """

    family = "splitmix64"

    def __init__(self, seed: int, bits: int = 64):
        super().__init__(seed, bits)
        self._state = seed & _MASK64

    def _next_raw(self) -> int:
        self._state = (self._state + SPLITMIX_GAMMA) & _MASK64
        return _mix64(self._state)

    def at(self, i: int) -> int:
        if i < 0:
            raise ValueError(f"sequence index must be >= 0, got {i}")
        state = (self.seed + (i + 1) * SPLITMIX_GAMMA) & _MASK64
        return _mix64(state) & self._mask

    @staticmethod
    def prefixes(
        seeds: Sequence[int], lengths: Sequence[int], bits: Sequence[int]
    ) -> np.ndarray:
        """Outputs ``0 .. lengths[k] - 1`` of the stream of ``seeds[k]``
        at width ``bits[k]``, for every ``k``, back to back as one
        ``uint64`` array: :meth:`at` over whole runs in one numpy pass."""
        runs = np.asarray(lengths, dtype=np.int64)
        # Output i of a run is i + 1 gamma steps past its (folded) seed.
        steps = np.arange(1, int(runs.sum()) + 1, dtype=np.uint64)
        steps -= np.repeat((np.cumsum(runs) - runs).astype(np.uint64), runs)
        folded = np.array([seed & _MASK64 for seed in seeds], dtype=np.uint64)
        masks = np.array([(1 << b) - 1 for b in bits], dtype=np.uint64)
        return _mix64_batch(
            np.repeat(folded, runs) + steps * np.uint64(SPLITMIX_GAMMA)
        ) & np.repeat(masks, runs)


class Xorshift64Star(PseudoRandomGenerator):
    """Marsaglia xorshift64* — shift-register steps with a final multiply.

    A zero state would be a fixed point, so the seed is mixed through the
    SplitMix64 finalizer first (the standard seeding recipe).
    Indexed access falls back to O(i) replay.
    """

    family = "xorshift64star"

    _MULTIPLIER = 0x2545F4914F6CDD1D

    def __init__(self, seed: int, bits: int = 64):
        super().__init__(seed, bits)
        state = _mix64(seed & _MASK64)
        self._state = state if state != 0 else SPLITMIX_GAMMA

    def _next_raw(self) -> int:
        x = self._state
        x ^= (x >> 12)
        x ^= (x << 25) & _MASK64
        x ^= (x >> 27)
        self._state = x
        return (x * self._MULTIPLIER) & _MASK64


class Pcg32(PseudoRandomGenerator):
    """PCG-XSH-RR 32: a 64-bit LCG state with a permuted 32-bit output.

    O'Neill's PCG family — modern statistical quality from an LCG core,
    which means the affine jump-ahead trick still works: ``at(i)`` is
    O(log i).  Yields at most 32 output bits.
    """

    family = "pcg32"

    _A = 6364136223846793005
    _C = 1442695040888963407

    def __init__(self, seed: int, bits: int = 32):
        if bits > 32:
            raise ValueError(f"Pcg32 yields at most 32 output bits, got {bits}")
        super().__init__(seed, bits)
        self._state = _mix64(seed & _MASK64)

    @staticmethod
    def _output(state: int) -> int:
        """XSH-RR output permutation: xorshift-high then random rotate."""
        xorshifted = (((state >> 18) ^ state) >> 27) & 0xFFFFFFFF
        rot = state >> 59
        return ((xorshifted >> rot) | (xorshifted << (32 - rot))) & 0xFFFFFFFF

    def _next_raw(self) -> int:
        value = self._output(self._state)
        self._state = (self._A * self._state + self._C) & _MASK64
        return value

    def at(self, i: int) -> int:
        if i < 0:
            raise ValueError(f"sequence index must be >= 0, got {i}")
        a, c = self._affine_power(i)
        start = _mix64(self.seed & _MASK64)
        state = (a * start + c) & _MASK64
        return self._output(state) & self._mask

    @classmethod
    def _affine_power(cls, k: int) -> tuple[int, int]:
        """Compose the 64-bit LCG step ``k`` times (square-and-multiply)."""
        a_k, c_k = 1, 0
        a_step, c_step = cls._A, cls._C
        while k > 0:
            if k & 1:
                a_k, c_k = (
                    (a_k * a_step) & _MASK64,
                    (c_k * a_step + c_step) & _MASK64,
                )
            a_step, c_step = (
                (a_step * a_step) & _MASK64,
                (c_step * a_step + c_step) & _MASK64,
            )
            k >>= 1
        return a_k, c_k


class Lcg48(PseudoRandomGenerator):
    """48-bit linear congruential generator (``java.util.Random`` constants).

    ``state' = (a * state + c) mod 2**48``; the reported value is the top
    32 bits of state, further masked to ``bits`` (so ``bits`` must be <= 32
    here).  The affine update composes algebraically, giving O(log i)
    jump-ahead: ``a_k = a**k``, ``c_k = c * (a**k - 1) / (a - 1)`` — computed
    by square-and-multiply on the affine map itself, no division needed.
    """

    family = "lcg48"

    _A = 0x5DEECE66D
    _C = 0xB
    _M = 1 << 48

    def __init__(self, seed: int, bits: int = 32):
        if bits > 32:
            raise ValueError(f"Lcg48 yields at most 32 output bits, got {bits}")
        super().__init__(seed, bits)
        self._state = (seed ^ self._A) % self._M

    def _next_raw(self) -> int:
        self._state = (self._A * self._state + self._C) % self._M
        return self._state >> 16

    def at(self, i: int) -> int:
        if i < 0:
            raise ValueError(f"sequence index must be >= 0, got {i}")
        a, c = self._affine_power(i + 1)
        start = (self.seed ^ self._A) % self._M
        state = (a * start + c) % self._M
        return (state >> 16) & self._mask

    @classmethod
    def _affine_power(cls, k: int) -> tuple[int, int]:
        """Compose ``x -> a*x + c (mod 2**48)`` with itself ``k`` times.

        Returns ``(a_k, c_k)`` such that ``k`` LCG steps equal
        ``x -> a_k * x + c_k (mod 2**48)``.
        """
        a_k, c_k = 1, 0  # identity map
        a_step, c_step = cls._A, cls._C
        while k > 0:
            if k & 1:
                a_k, c_k = (a_k * a_step) % cls._M, (c_k * a_step + c_step) % cls._M
            a_step, c_step = (
                (a_step * a_step) % cls._M,
                (c_step * a_step + c_step) % cls._M,
            )
            k >>= 1
        return a_k, c_k
