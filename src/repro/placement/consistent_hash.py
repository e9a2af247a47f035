"""Consistent hashing ring — a modern comparator (not in the paper).

Karger-style ring with virtual nodes: each disk owns ``vnodes`` positions
on a 64-bit ring; a block belongs to the first vnode clockwise of its
hash.  Movement on scaling is minimal *in expectation* (only the arcs the
new/old node owns change hands), and arbitrary disks can leave — but
uniformity depends on the vnode count, and the ring itself is
O(N * vnodes) persistent state, versus SCADDAR's O(operations) log.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Optional, Sequence

import numpy as np

from repro.core.operations import ScalingOp
from repro.core.remap import survivor_ranks
from repro.placement.base import PlacementPolicy
from repro.prng.generators import _mix64, _mix64_batch
from repro.storage.block import Block, BlockId

_NODE_SALT = 0xC0FFEE_15_600D
_KEY_SALT = 0xDEC0DE_0F_F00D


def _vnode_position(node_id: int, replica: int) -> int:
    """Ring position of one virtual node."""
    return _mix64(_mix64(node_id ^ _NODE_SALT) + replica)


def _key_position(x0: int) -> int:
    """Ring position of a block key."""
    return _mix64(x0 ^ _KEY_SALT)


def _key_position_batch(x0s: np.ndarray) -> np.ndarray:
    """Ring positions of a batch of block keys (uint64)."""
    return _mix64_batch(np.asarray(x0s, dtype=np.uint64) ^ np.uint64(_KEY_SALT))


class ConsistentHashPolicy(PlacementPolicy):
    """Virtual-node consistent hashing behind the policy interface.

    Node identities are internal and stable; ``disk_of`` translates the
    owning node to its current *logical* index so the interface matches
    the other policies.

    Parameters
    ----------
    n0:
        Initial disk count.
    vnodes:
        Virtual nodes per disk; more vnodes = better uniformity, more
        state.
    """

    name = "consistent_hash"

    def __init__(self, n0: int, vnodes: int = 64):
        if vnodes <= 0:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self._vnodes = vnodes
        self._nodes: list[int] = []  # logical order: position -> node id
        self._rank: dict[int, int] = {}  # node id -> logical index
        self._next_node_id = 0
        self._ring: list[tuple[int, int]] = []  # sorted (position, node id)
        # Vectorized ring mirror, rebuilt lazily after any mutation.
        self._kernel_dirty = True
        self._ring_positions = np.empty(0, dtype=np.uint64)
        self._ring_ranks = np.empty(0, dtype=np.int64)
        super().__init__(n0)
        for _ in range(n0):
            self._add_node()

    def disk_of(self, block: Block) -> int:
        return self.locate_one(block.block_id, block.x0)

    def locate_one(self, block_id, x0: int) -> int:
        owner = self._owner_node(_key_position(x0))
        return self._rank[owner]

    def locate_batch(
        self,
        block_ids: Optional[Sequence[BlockId]],
        x0s: np.ndarray,
    ) -> np.ndarray:
        """Vectorized ring walk: hash, binary-search, wrap, rank.

        ``searchsorted(..., side="right")`` matches the scalar
        ``bisect_right(ring, (position, 1 << 70))`` exactly because node
        ids never reach ``1 << 70``: a tie on position resolves past the
        entry in both formulations.
        """
        if not self._ring:
            raise RuntimeError("consistent hash ring is empty")
        if self._kernel_dirty:
            self._rebuild_kernels()
        positions = _key_position_batch(x0s)
        index = np.searchsorted(self._ring_positions, positions, side="right")
        index[index == self._ring_positions.shape[0]] = 0  # wrap the ring
        return self._ring_ranks[index]

    def state_entries(self) -> int:
        """The ring: one entry per virtual node."""
        return len(self._ring)

    def state_payload(self) -> dict:
        """Operation log plus the vnode count.

        Node identities are assigned deterministically (sequential ids,
        rank-compacted removals), so replaying the log with the same
        ``vnodes`` rebuilds the exact ring.
        """
        return {"operation_log": self._log_payload(), "vnodes": self._vnodes}

    @classmethod
    def from_payload(cls, payload: dict) -> "ConsistentHashPolicy":
        from repro.placement.base import _restore_log

        log = _restore_log(payload)
        policy = cls(log.n0, vnodes=payload["vnodes"])
        for op in log:
            policy.apply(op)
        return policy

    def _on_apply(self, op: ScalingOp, n_before: int, n_after: int) -> None:
        if op.kind == "add":
            for _ in range(op.count):
                self._add_node()
            return
        ranks = survivor_ranks(op.removed, n_before)
        doomed = {self._nodes[d] for d, rank in enumerate(ranks) if rank < 0}
        self._nodes = [node for node in self._nodes if node not in doomed]
        self._rank = {node: i for i, node in enumerate(self._nodes)}
        self._ring = [(pos, node) for pos, node in self._ring if node not in doomed]
        self._kernel_dirty = True

    # ------------------------------------------------------------------
    # Ring internals
    # ------------------------------------------------------------------
    def _add_node(self) -> None:
        node_id = self._next_node_id
        self._next_node_id += 1
        self._rank[node_id] = len(self._nodes)
        self._nodes.append(node_id)
        self._ring.extend(
            (_vnode_position(node_id, replica), node_id)
            for replica in range(self._vnodes)
        )
        self._ring.sort()
        self._kernel_dirty = True

    def _rebuild_kernels(self) -> None:
        """Mirror the sorted ring into parallel numpy arrays.

        Ranks are resolved at rebuild time (node id -> current logical
        index), so the batched walk is a single fancy-indexing step.
        """
        self._ring_positions = np.fromiter(
            (pos for pos, __ in self._ring),
            dtype=np.uint64,
            count=len(self._ring),
        )
        self._ring_ranks = np.fromiter(
            (self._rank[node] for __, node in self._ring),
            dtype=np.int64,
            count=len(self._ring),
        )
        self._kernel_dirty = False

    def _owner_node(self, position: int) -> int:
        if not self._ring:
            raise RuntimeError("consistent hash ring is empty")
        index = bisect_right(self._ring, (position, 1 << 70))
        if index == len(self._ring):
            index = 0  # wrap around the ring
        return self._ring[index][1]
