"""Second-level placement: routing objects to shards.

SCADDAR's reorganize-with-minimal-moves problem recurs one level up —
adding or removing a *shard* should relocate as few *objects* as
possible — so the router reuses the placement-backend registry
(:data:`~repro.placement.backends.BACKENDS`) verbatim: a shard slot is
a "logical disk", an object's routing key is its "X0", and shard
add/remove is a :class:`~repro.core.operations.ScalingOp` planned with
the same over-report-then-filter ``plan_moves`` semantics the
block-level migration planner uses.

The routing key is a 64-bit mix of the cluster-global object id and a
cluster salt, so two clusters with different salts route the same ids
independently.  Any registered backend works; ``jump_hash`` (adds
anywhere, removals at the tail) and ``consistent_hash`` / ``straw``
(arbitrary removal) are the natural choices, ``weighted_straw`` when
shards are heterogeneous.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.operations import ScalingOp
from repro.placement.backends import backend_from_payload, make_backend
from repro.placement.base import PlacementPolicy
from repro.prng.generators import _mix64, _mix64_batch
from repro.storage.block import BlockId

#: Default cluster salt mixed into every routing key.
ROUTER_SALT = 0xC1_05_7E_12

#: Extra salt separating replica-candidate scores from primary routing,
#: so replica ranking never correlates with the home-slot choice.
REPLICA_SALT = 0x5EC0_4DA7


def routing_key(object_id: int, salt: int = ROUTER_SALT) -> int:
    """The 64-bit placement key of one cluster-global object id."""
    return _mix64((object_id & _MASK64) ^ _mix64(salt & _MASK64))


def routing_keys(object_ids: Sequence[int], salt: int = ROUTER_SALT) -> np.ndarray:
    """Vectorized :func:`routing_key` over a batch of object ids."""
    ids = np.asarray(object_ids, dtype=np.uint64)
    return _mix64_batch(ids ^ np.uint64(_mix64(salt & _MASK64)))


_MASK64 = (1 << 64) - 1


class ShardRouter:
    """Object → shard-slot placement through a registry backend.

    Parameters
    ----------
    policy:
        The second-level :class:`~repro.placement.base.PlacementPolicy`
        (its "disks" are shard slots).
    salt:
        Cluster salt for the routing keys.

    Notes
    -----
    The router speaks *slots* — contiguous logical indices ``0..K-1``,
    exactly like a policy's disks.  Mapping slots to stable shard ids is
    the coordinator's job (it owns the shard list), mirroring how
    :class:`~repro.server.cmserver.CMServer` translates logical disk
    indices to physical ids.
    """

    def __init__(self, policy: PlacementPolicy, salt: int = ROUTER_SALT):
        self.policy = policy
        self.salt = salt

    @classmethod
    def create(
        cls, backend: str, num_shards: int, salt: int = ROUTER_SALT
    ) -> "ShardRouter":
        """Fresh router over ``num_shards`` slots on a registry backend."""
        return cls(make_backend(backend, n0=num_shards), salt=salt)

    @property
    def num_shards(self) -> int:
        """Current shard-slot count."""
        return self.policy.current_disks

    @property
    def num_operations(self) -> int:
        """Shard add/remove operations applied so far."""
        return self.policy.num_operations

    def slot_of(self, object_id: int) -> int:
        """Current shard slot of one object."""
        return int(self.policy.locate_one(BlockId(object_id, 0), routing_key(object_id, self.salt)))

    def slots_of(self, object_ids: Sequence[int]) -> np.ndarray:
        """Current shard slot of every object, batched (``int64``)."""
        keys = routing_keys(object_ids, self.salt)
        ids = (
            [BlockId(int(gid), 0) for gid in object_ids]
            if self.policy.requires_ids
            else None
        )
        return self.policy.locate_batch(ids, keys)

    def plan_moves(
        self, op: ScalingOp, object_ids: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Apply ``op`` to the shard topology and report candidate movers.

        Same contract as :meth:`PlacementPolicy.plan_moves
        <repro.placement.base.PlacementPolicy.plan_moves>`: returns
        ``(indices, target_slots)`` positions into ``object_ids``;
        candidates may over-report (removal re-compaction), never
        under-report — the coordinator translates slots to stable shard
        ids and drops identity moves.
        """
        keys = routing_keys(object_ids, self.salt)
        ids = [BlockId(int(gid), 0) for gid in object_ids]
        return self.policy.plan_moves(op, ids, keys)

    def replica_rank(
        self, object_id: int, shard_ids: Sequence[int]
    ) -> list[int]:
        """Rank shards as replica homes for one object (best first).

        Rendezvous (highest-random-weight) hashing over *stable shard
        ids*: each candidate's score mixes the object's routing key with
        the shard id, so the ranking of the surviving shards is
        unchanged when any other shard joins or leaves — the
        minimal-disruption property SCADDAR demands of placement,
        obtained by construction for replicas.  The replication manager
        filters this order by health and failure domain; ranking over
        stable ids (not slots) keeps replica placement independent of
        slot re-compaction.
        """
        key = routing_key(object_id, self.salt)
        return sorted(
            (int(sid) for sid in shard_ids),
            key=lambda sid: (
                _mix64(key ^ _mix64((sid ^ REPLICA_SALT) & _MASK64)),
                sid,
            ),
            reverse=True,
        )

    def register(self, object_ids: Sequence[int]) -> None:
        """Introduce objects to the routing policy (stateful backends)."""
        from repro.storage.block import Block

        self.policy.register(
            Block(int(gid), 0, routing_key(int(gid), self.salt))
            for gid in object_ids
        )

    def unregister(self, object_ids: Sequence[int]) -> None:
        """Forget objects (stateful backends delete their entries)."""
        self.policy.unregister(BlockId(int(gid), 0) for gid in object_ids)

    # -- persistence identity ------------------------------------------
    def state_payload(self) -> dict:
        """The router's snapshot identity (backend name + payload + salt)."""
        return {
            "backend": self.policy.name,
            "payload": self.policy.state_payload(),
            "salt": self.salt,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ShardRouter":
        """Rebuild a router bit-exactly from :meth:`state_payload`."""
        return cls(
            backend_from_payload(payload["backend"], payload["payload"]),
            salt=payload["salt"],
        )

    def __repr__(self) -> str:
        return (
            f"ShardRouter(backend={self.policy.name!r}, "
            f"shards={self.num_shards}, operations={self.num_operations})"
        )
