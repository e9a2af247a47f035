"""Scaling operations (Definition 3.3) and the SCADDAR operation log.

A scaling operation adds or removes one *disk group* (one or more disks).
SCADDAR's whole persistent state is the ordered log of these operations —
"only a storage structure for recording scaling operations, which is
significantly less than the number of all block locations" (Section 1).
The log therefore supports exact JSON round-tripping so a server can
persist and reload it.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field


@dataclass(frozen=True)
class ScalingOp:
    """One disk-group addition or removal, in *logical* index space.

    Attributes
    ----------
    kind:
        ``"add"`` or ``"remove"``.
    count:
        For additions, the number of disks added (the group size ``k``).
    removed:
        For removals, the sorted tuple of logical disk indices removed,
        valid against the disk count *before* the operation.
    """

    kind: str
    count: int = 0
    removed: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in ("add", "remove"):
            raise ValueError(f"kind must be 'add' or 'remove', got {self.kind!r}")
        if self.kind == "add":
            if self.count <= 0:
                raise ValueError(f"add operation needs count >= 1, got {self.count}")
            if self.removed:
                raise ValueError("add operation must not list removed disks")
        else:
            if not self.removed:
                raise ValueError("remove operation needs at least one disk index")
            if self.count:
                raise ValueError("remove operation must not set count")
            if len(set(self.removed)) != len(self.removed):
                raise ValueError(f"duplicate disk indices in {self.removed}")
            if any(d < 0 for d in self.removed):
                raise ValueError(f"negative disk index in {self.removed}")
            if tuple(sorted(self.removed)) != self.removed:
                raise ValueError(f"removed indices must be sorted: {self.removed}")

    @classmethod
    def add(cls, count: int = 1) -> "ScalingOp":
        """Addition of a group of ``count`` disks."""
        return cls(kind="add", count=count)

    @classmethod
    def remove(cls, indices: Iterable[int]) -> "ScalingOp":
        """Removal of the disks at the given logical indices."""
        return cls(kind="remove", removed=tuple(sorted(indices)))

    def next_disk_count(self, n_before: int) -> int:
        """Disk count after applying this operation to ``n_before`` disks."""
        if self.kind == "add":
            return n_before + self.count
        if any(d >= n_before for d in self.removed):
            raise ValueError(
                f"cannot remove disks {self.removed} from {n_before} disks"
            )
        n_after = n_before - len(self.removed)
        if n_after <= 0:
            raise ValueError(f"removal of {self.removed} would leave no disks")
        return n_after

    def to_dict(self) -> dict:
        """JSON-serializable representation."""
        if self.kind == "add":
            return {"kind": "add", "count": self.count}
        return {"kind": "remove", "removed": list(self.removed)}

    @classmethod
    def from_dict(cls, data: dict) -> "ScalingOp":
        """Inverse of :meth:`to_dict`."""
        if data.get("kind") == "add":
            return cls.add(data["count"])
        if data.get("kind") == "remove":
            return cls.remove(data["removed"])
        raise ValueError(f"not a ScalingOp payload: {data!r}")


@dataclass
class OperationLog:
    """The ordered history of scaling operations since the initial layout.

    The log is the only data structure SCADDAR needs besides object seeds;
    its size is O(number of scaling operations), independent of the number
    of objects and blocks (contrast with the directory baseline, whose
    state is O(total blocks)).

    Attributes
    ----------
    n0:
        Initial disk count ``N0`` before any scaling operation.
    """

    n0: int
    _ops: list[ScalingOp] = field(default_factory=list)
    _counts: list[int] = field(default_factory=list)

    def __post_init__(self):
        if self.n0 <= 0:
            raise ValueError(f"initial disk count must be >= 1, got {self.n0}")
        # Recompute the disk-count trajectory if ops were injected directly.
        counts: list[int] = []
        n = self.n0
        for op in self._ops:
            n = op.next_disk_count(n)
            counts.append(n)
        self._counts = counts

    def append(self, op: ScalingOp) -> int:
        """Record a scaling operation; returns the new disk count ``Nj``."""
        n_after = op.next_disk_count(self.current_disks)
        self._ops.append(op)
        self._counts.append(n_after)
        return n_after

    @property
    def operations(self) -> tuple[ScalingOp, ...]:
        """All recorded operations, oldest first."""
        return tuple(self._ops)

    @property
    def current_disks(self) -> int:
        """``Nj`` — the disk count after all recorded operations."""
        return self._counts[-1] if self._counts else self.n0

    @property
    def num_operations(self) -> int:
        """``j`` — how many scaling operations have been applied."""
        return len(self._ops)

    def disks_after(self, j: int) -> int:
        """``Nj`` for ``0 <= j <= num_operations`` (``N0`` for ``j = 0``)."""
        if not 0 <= j <= len(self._counts):
            raise IndexError(f"operation index {j} out of 0..{len(self._counts)}")
        return self.n0 if j == 0 else self._counts[j - 1]

    def disk_counts(self) -> list[int]:
        """The trajectory ``[N0, N1, ..., Nj]``."""
        return [self.n0, *self._counts]

    def product_n(self) -> int:
        """``Pi_k = N0 * N1 * ... * Nk`` — tracked per Section 4.3's advice
        to check the Lemma 4.3 precondition explicitly before scaling."""
        product = self.n0
        for n in self._counts:
            product *= n
        return product

    def __iter__(self) -> Iterator[ScalingOp]:
        return iter(self._ops)

    def __len__(self) -> int:
        return len(self._ops)

    def to_json(self) -> str:
        """Serialize the log (including ``N0``) to a JSON string."""
        return json.dumps(
            {"n0": self.n0, "operations": [op.to_dict() for op in self._ops]}
        )

    @classmethod
    def from_json(cls, payload: str) -> "OperationLog":
        """Rebuild a log serialized by :meth:`to_json`."""
        data = json.loads(payload)
        ops = [ScalingOp.from_dict(item) for item in data["operations"]]
        return cls(n0=data["n0"], _ops=ops)

    @classmethod
    def from_operations(
        cls, n0: int, operations: Sequence[ScalingOp]
    ) -> "OperationLog":
        """Build a log from an initial count and an operation sequence."""
        return cls(n0=n0, _ops=list(operations))
