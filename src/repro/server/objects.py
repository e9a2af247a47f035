"""CM objects and the object catalog.

Each object is split into fixed-size blocks and owns a unique seed
``s_m``; its block random numbers ``X0(i)`` come from the seeded sequence
(Definition 3.2).  The catalog derives per-object seeds from one master
seed, so an entire server is reproducible from a single integer — and a
*reshuffle* (the paper's full redistribution after the operation budget
is spent) is modeled by bumping the catalog's seed epoch, which gives
every object a fresh sequence.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.prng.generators import _mix64
from repro.prng.sequence import ObjectSequence
from repro.storage.block import Block


@dataclass(frozen=True)
class MediaObject:
    """One continuous-media object.

    Attributes
    ----------
    object_id:
        Catalog-assigned id.
    name:
        Human-readable title.
    num_blocks:
        Number of fixed-size blocks the object is split into.
    seed:
        The object's unique seed ``s_m``.
    bits:
        Random-number width ``b`` of the object's sequence.
    family:
        Generator family of the sequence.
    blocks_per_round:
        Playback consumption rate — how many blocks one stream of this
        object needs per scheduling round (1 for ordinary video).
    """

    object_id: int
    name: str
    num_blocks: int
    seed: int
    bits: int = 64
    family: str = "splitmix64"
    blocks_per_round: int = 1

    def __post_init__(self):
        if self.num_blocks <= 0:
            raise ValueError(f"object needs >= 1 block, got {self.num_blocks}")
        if self.blocks_per_round <= 0:
            raise ValueError(
                f"blocks_per_round must be >= 1, got {self.blocks_per_round}"
            )

    def sequence(self) -> ObjectSequence:
        """The object's reproducible random sequence ``p_r(s_m)``."""
        return ObjectSequence(seed=self.seed, bits=self.bits, family=self.family)

    def blocks(self) -> list[Block]:
        """All blocks with their ``X0`` values, by faithful iteration."""
        x0s = self.sequence().prefix(self.num_blocks)
        return [
            Block(object_id=self.object_id, index=i, x0=x0)
            for i, x0 in enumerate(x0s)
        ]

    def block(self, index: int) -> Block:
        """One block with its ``X0`` (O(1) for counter-based families)."""
        if not 0 <= index < self.num_blocks:
            raise IndexError(
                f"block {index} out of 0..{self.num_blocks - 1} "
                f"for object {self.object_id}"
            )
        return Block(
            object_id=self.object_id,
            index=index,
            x0=self.sequence().x0(index),
        )


@dataclass
class ObjectCatalog:
    """All objects of a CM server, reproducible from one master seed.

    Attributes
    ----------
    master_seed:
        Root of all per-object seeds.
    bits:
        Random-number width shared by all objects.
    family:
        Generator family shared by all objects.
    """

    master_seed: int = 0xCADDA
    bits: int = 64
    family: str = "splitmix64"
    _objects: dict[int, MediaObject] = field(default_factory=dict)
    _next_id: int = 0
    _seed_epoch: int = 0
    _version: int = field(default=0, init=False, compare=False, repr=False)

    @property
    def version(self) -> int:
        """Bumped by every change to the object set or to any seed.

        Caches derived from the catalog (the batch locator's ``X0``
        column) compare it once per use instead of re-checking objects.
        """
        return self._version

    def add_object(
        self, name: str, num_blocks: int, blocks_per_round: int = 1
    ) -> MediaObject:
        """Create and register a new object with a derived unique seed."""
        object_id = self._next_id
        self._next_id += 1
        obj = MediaObject(
            object_id=object_id,
            name=name,
            num_blocks=num_blocks,
            seed=self._derive_seed(object_id),
            bits=self.bits,
            family=self.family,
            blocks_per_round=blocks_per_round,
        )
        self._objects[object_id] = obj
        self._version += 1
        return obj

    def remove_object(self, object_id: int) -> MediaObject:
        """Deregister an object (its blocks are the caller's to drop)."""
        try:
            obj = self._objects.pop(object_id)
        except KeyError:
            raise KeyError(f"object {object_id} is not in the catalog")
        self._version += 1
        return obj

    def get(self, object_id: int) -> MediaObject:
        """Look up an object by id."""
        try:
            return self._objects[object_id]
        except KeyError:
            raise KeyError(f"object {object_id} is not in the catalog")

    def __contains__(self, object_id: int) -> bool:
        return object_id in self._objects

    def __len__(self) -> int:
        return len(self._objects)

    def __iter__(self) -> Iterator[MediaObject]:
        return iter(self._objects.values())

    @property
    def total_blocks(self) -> int:
        """Sum of block counts over all objects."""
        return sum(obj.num_blocks for obj in self._objects.values())

    def all_blocks(self) -> list[Block]:
        """Every block of every object (ordered by object id, then index)."""
        blocks: list[Block] = []
        for object_id in sorted(self._objects):
            blocks.extend(self._objects[object_id].blocks())
        return blocks

    def reseed_all(self) -> None:
        """Give every object a fresh sequence (the full-reshuffle step).

        Bumps the seed epoch and rebuilds each object with a new derived
        seed; ids, names and sizes are preserved.
        """
        self._seed_epoch += 1
        self._version += 1
        for object_id, obj in list(self._objects.items()):
            self._objects[object_id] = MediaObject(
                object_id=obj.object_id,
                name=obj.name,
                num_blocks=obj.num_blocks,
                seed=self._derive_seed(object_id),
                bits=obj.bits,
                family=obj.family,
                blocks_per_round=obj.blocks_per_round,
            )

    def _derive_seed(self, object_id: int) -> int:
        """Unique per-object seed: a mix of master seed, epoch and id."""
        return _mix64(
            _mix64(self.master_seed ^ _mix64(object_id + 1))
            + self._seed_epoch
        )
