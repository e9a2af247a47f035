"""Per-object reproducible random sequences (the paper's ``X0(i)``).

Definition 3.2: ``X0(i)`` is the *i*-th iteration of ``p_r(s_m)``, where
``s_m`` is the unique seed of object ``m``.  :class:`ObjectSequence`
packages (generator family, seed, bit width) and exposes both the faithful
iterated access and, where the family supports it, O(1) indexed access.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from repro.prng.generators import (
    Lcg48,
    Pcg32,
    PseudoRandomGenerator,
    SplitMix64,
    Xorshift64Star,
)

#: Registry of generator families by name.
GENERATOR_FAMILIES: dict[str, type[PseudoRandomGenerator]] = {
    SplitMix64.family: SplitMix64,
    Xorshift64Star.family: Xorshift64Star,
    Lcg48.family: Lcg48,
    Pcg32.family: Pcg32,
}


def make_generator(
    family: str, seed: int, bits: int = 64
) -> PseudoRandomGenerator:
    """Instantiate a generator by family name.

    Raises
    ------
    KeyError
        If ``family`` is not one of :data:`GENERATOR_FAMILIES`.
    """
    try:
        cls = GENERATOR_FAMILIES[family]
    except KeyError:
        known = ", ".join(sorted(GENERATOR_FAMILIES))
        raise KeyError(f"unknown generator family {family!r}; known: {known}")
    return cls(seed, bits)


class ObjectSequence:
    """The reproducible random stream of one CM object.

    Parameters
    ----------
    seed:
        The object's unique seed ``s_m``.
    bits:
        Output width ``b``; draws lie in ``0 ... 2**bits - 1``.
    family:
        Generator family name (see :data:`GENERATOR_FAMILIES`).

    Examples
    --------
    >>> seq = ObjectSequence(seed=42, bits=32)
    >>> seq.x0(0) == ObjectSequence(seed=42, bits=32).x0(0)
    True
    """

    def __init__(self, seed: int, bits: int = 64, family: str = "splitmix64"):
        self.seed = seed
        self.bits = bits
        self.family = family
        # Validate eagerly so a bad family/bits pair fails at construction.
        self._probe = make_generator(family, seed, bits)

    @property
    def r_max(self) -> int:
        """The paper's ``R = 2**b - 1``."""
        return self._probe.r_max

    def x0(self, block_index: int) -> int:
        """Return ``X0(i)``, the random number assigned to block *i*.

        Uses the generator's indexed access, which for counter-based
        families is O(1) and for stateful families replays the stream.
        """
        return self._probe.at(block_index)

    def prefix(self, num_blocks: int) -> list[int]:
        """Return ``[X0(0), ..., X0(num_blocks - 1)]`` by pure iteration.

        This is the paper-faithful path: a fresh generator is seeded with
        ``s_m`` and iterated, exactly as a CM server would regenerate the
        sequence at retrieval time.
        """
        if num_blocks < 0:
            raise ValueError(f"num_blocks must be >= 0, got {num_blocks}")
        gen = make_generator(self.family, self.seed, self.bits)
        return [gen.next() for _ in range(num_blocks)]

    def __iter__(self) -> Iterator[int]:
        """Iterate the stream indefinitely from the start."""
        gen = make_generator(self.family, self.seed, self.bits)
        while True:
            yield gen.next()

    def __repr__(self) -> str:
        return (
            f"ObjectSequence(seed={self.seed}, bits={self.bits}, "
            f"family={self.family!r})"
        )


def prefixes(
    sequences: Sequence[ObjectSequence], lengths: Sequence[int]
) -> np.ndarray:
    """``sequences[k].prefix(lengths[k])`` for every ``k``, back to back
    as one ``uint64`` array.

    The counter-based splitmix64 sequences are computed together in one
    numpy pass (:meth:`SplitMix64.prefixes`); the stateful families
    iterate (:meth:`ObjectSequence.prefix`).
    """
    runs = np.asarray(lengths, dtype=np.int64)
    out = np.empty(int(runs.sum()), dtype=np.uint64)
    counter = np.array(
        [seq.family == SplitMix64.family for seq in sequences], dtype=bool
    )
    if counter.any():
        batch = [seq for seq in sequences if seq.family == SplitMix64.family]
        out[np.repeat(counter, runs)] = SplitMix64.prefixes(
            [seq.seed for seq in batch],
            runs[counter],
            [seq.bits for seq in batch],
        )
    start = 0
    for seq, n in zip(sequences, runs.tolist()):
        if seq.family != SplitMix64.family:
            out[start : start + n] = seq.prefix(n)
        start += n
    return out
