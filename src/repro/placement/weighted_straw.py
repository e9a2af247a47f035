"""Weighted straw2 — the CRUSH way to run heterogeneous disks.

SCADDAR handles mixed hardware by splitting fast drives into several
unit logical disks (Section 6 / :mod:`repro.storage.hetero`); CRUSH's
straw2 instead weights the selection draw directly: disk ``i`` wins a
block with probability proportional to ``w_i``, no virtual disks needed.

The straw kernels live here (:func:`straw_length`, :func:`straw_winners`),
with two faces of the same selection rule:

* :class:`WeightedStrawPolicy` — the full backend
  (:class:`~repro.placement.base.PlacementPolicy` + persistence
  identity), registered as ``weighted_straw`` so the server stack and
  the cluster router can place on weighted members; the unit-weight
  ``straw`` backend (:mod:`repro.placement.straw`) is its subclass;
* :class:`WeightedStrawPool` — a thin physical-id-keyed pool mirroring
  the :class:`~repro.storage.hetero.HeterogeneousPool` interface so the
  heterogeneous experiment can compare the two approaches on identical
  fleets.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.core.operations import ScalingOp
from repro.core.remap import survivor_ranks
from repro.placement.base import PlacementPolicy, _restore_log
from repro.prng.generators import _mix64, _mix64_batch
from repro.storage.block import Block, BlockId

_STRAW_SALT = 0x57A3A_2


def straw_length(x0: int, node_id: int, weight: float = 1.0) -> float:
    """The straw this disk draws for this block (larger wins).

    ``ln(u) / w`` with ``u = (hash + 1) / 2**64`` in (0, 1]: maximizing
    this over disks samples disk ``i`` with probability proportional to
    ``w_i`` (the straw2 construction).
    """
    if weight <= 0:
        raise ValueError(f"weight must be > 0, got {weight}")
    h = _mix64(_mix64(x0 ^ _STRAW_SALT) + node_id)
    u = (h + 1) / 2.0**64  # in (0, 1]
    return math.log(u) / weight


def straw_winners(
    x0s: np.ndarray,
    node_ids: Sequence[int],
    weights: Optional[Sequence[float]] = None,
) -> np.ndarray:
    """Vectorized straw2 selection: winning *position* per block.

    One :func:`_mix64_batch` pass per node over the whole block batch —
    the draw loop runs over N nodes, not N x blocks Python iterations.
    Ties resolve to the earliest position (matching a scalar loop with a
    strict ``>`` comparison); both the scalar and batched policy lookups
    route through this one kernel so they cannot diverge.
    """
    x0s = np.asarray(x0s, dtype=np.uint64)
    inner = _mix64_batch(x0s ^ np.uint64(_STRAW_SALT))
    best = np.full(x0s.shape, -np.inf)
    winner = np.zeros(x0s.shape, dtype=np.int64)
    for position, node_id in enumerate(node_ids):
        h = _mix64_batch(inner + np.uint64(node_id))
        u = (h.astype(np.float64) + 1.0) * 2.0**-64  # in (0, 1]
        straw = np.log(u)
        if weights is not None:
            straw /= weights[position]
        better = straw > best
        best = np.where(better, straw, best)
        winner = np.where(better, position, winner)
    return winner


class WeightedStrawPolicy(PlacementPolicy):
    """Straw2 selection over *weighted* disks behind the shared interface.

    Parameters
    ----------
    n0:
        Initial disk count.
    weights:
        Selection weight per initial disk (default: all 1.0, in which
        case placement is exactly :class:`~repro.placement.straw
        .StrawPolicy`'s: dividing a straw by 1.0 is exact).

    Notes
    -----
    Disks attached by a scaling operation join at weight 1.0
    (:class:`~repro.core.operations.ScalingOp` carries no weights);
    :meth:`set_weight` adjusts a member afterwards — each adjustment
    relocates exactly the blocks whose winner changed.  Because weights
    are not derivable from the operation log, the persistence payload
    records the node table and weights explicitly instead of relying on
    log replay.
    """

    name = "weighted_straw"

    def __init__(self, n0: int, weights: Optional[Sequence[float]] = None):
        if weights is None:
            weights = [1.0] * n0
        if len(weights) != n0:
            raise ValueError(
                f"{n0} disks but {len(weights)} weights were given"
            )
        for weight in weights:
            if weight <= 0:
                raise ValueError(f"weight must be > 0, got {weight}")
        self._nodes: list[int] = list(range(n0))
        self._weights: list[float] = [float(w) for w in weights]
        self._next_node_id = n0
        super().__init__(n0)

    def disk_of(self, block: Block) -> int:
        return self.locate_one(block.block_id, block.x0)

    def locate_one(self, block_id: BlockId, x0: int) -> int:
        return int(
            self.locate_batch(None, np.asarray([x0], dtype=np.uint64))[0]
        )

    def locate_batch(
        self,
        block_ids: Optional[Sequence[BlockId]],
        x0s: np.ndarray,
    ) -> np.ndarray:
        """Batched weighted straw draws: one vectorized pass per node."""
        return straw_winners(x0s, self._nodes, self._weights)

    def weight_of(self, logical: int) -> float:
        """A member's current selection weight."""
        return self._weights[logical]

    def set_weight(self, logical: int, weight: float) -> None:
        """Re-weight one member (takes effect on the next lookup)."""
        if weight <= 0:
            raise ValueError(f"weight must be > 0, got {weight}")
        self._weights[logical] = float(weight)

    def state_entries(self) -> int:
        """One (node id, weight) record per disk."""
        return len(self._nodes)

    def _on_apply(self, op: ScalingOp, n_before: int, n_after: int) -> None:
        if op.kind == "add":
            fresh = range(self._next_node_id, self._next_node_id + op.count)
            self._nodes.extend(fresh)
            self._weights.extend([1.0] * op.count)
            self._next_node_id += op.count
            return
        ranks = survivor_ranks(op.removed, n_before)
        survivors = [
            (node, weight)
            for logical, (node, weight) in enumerate(
                zip(self._nodes, self._weights)
            )
            if ranks[logical] >= 0
        ]
        self._nodes = [node for node, __ in survivors]
        self._weights = [weight for __, weight in survivors]

    def state_payload(self) -> dict:
        """Node table + weights (weights are not log-derivable)."""
        return {
            "operation_log": self._log_payload(),
            "nodes": list(self._nodes),
            "weights": list(self._weights),
            "next_node_id": self._next_node_id,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "WeightedStrawPolicy":
        log = _restore_log(payload)
        policy = cls(log.n0)
        policy.log = log
        policy._nodes = [int(node) for node in payload["nodes"]]
        policy._weights = [float(weight) for weight in payload["weights"]]
        policy._next_node_id = int(payload["next_node_id"])
        return policy


class WeightedStrawPool:
    """Straw2 selection over weighted physical disks.

    Parameters
    ----------
    initial:
        Sequence of ``(physical_id, weight)`` pairs.
    """

    def __init__(self, initial: list[tuple[int, float]]):
        if not initial:
            raise ValueError("pool needs at least one physical disk")
        self._weights: dict[int, float] = {}
        for physical_id, weight in initial:
            self._add(physical_id, weight)
        self.operations = 0

    def _add(self, physical_id: int, weight: float) -> None:
        if weight <= 0:
            raise ValueError(f"weight must be > 0, got {weight}")
        if physical_id in self._weights:
            raise ValueError(f"physical disk {physical_id} is already in the pool")
        self._weights[physical_id] = weight

    @property
    def physical_ids(self) -> tuple[int, ...]:
        """Member disks (insertion order)."""
        return tuple(self._weights)

    def weight_of(self, physical_id: int) -> float:
        """A member's selection weight."""
        try:
            return self._weights[physical_id]
        except KeyError:
            raise KeyError(f"physical disk {physical_id} is not in the pool")

    def add_disk(self, physical_id: int, weight: float) -> None:
        """Attach a disk; only blocks it wins move to it."""
        self._add(physical_id, weight)
        self.operations += 1

    def remove_disk(self, physical_id: int) -> None:
        """Detach a disk; only its resident blocks move."""
        if physical_id not in self._weights:
            raise KeyError(f"physical disk {physical_id} is not in the pool")
        if len(self._weights) == 1:
            raise ValueError("cannot remove the last disk")
        del self._weights[physical_id]
        self.operations += 1

    def physical_of_block(self, x0: int) -> int:
        """The disk whose weighted straw wins this block."""
        best_id = None
        best_straw = None
        for physical_id, weight in self._weights.items():
            straw = straw_length(x0, physical_id, weight)
            if best_straw is None or straw > best_straw:
                best_straw = straw
                best_id = physical_id
        return best_id

    def load_by_physical(self, x0s: list[int]) -> dict[int, int]:
        """Blocks per disk for a population."""
        loads = {pid: 0 for pid in self._weights}
        for x0 in x0s:
            loads[self.physical_of_block(x0)] += 1
        return loads
