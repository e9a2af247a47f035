"""One cluster member: a CM server plus its serving and fault machinery.

A shard is a full single-server stack — a
:class:`~repro.server.cmserver.CMServer` (any placement backend), its
:class:`~repro.server.journal.ScalingJournal`, a per-shard
:class:`~repro.server.scheduler.RoundScheduler`, and a per-shard
:class:`~repro.obs.Obs` handle — under a *stable shard id*.  Stable ids
survive shard removal and re-compaction exactly like the disk array's
physical ids survive disk removal: the coordinator's shard list gives
the logical (slot) order, the id names the member forever.

Fault decorrelation: every shard derives its fault-injector seed from
the cluster master seed **with the shard id in the derivation path**
(:func:`shard_fault_seed`), so a same-seed cluster run is
bit-reproducible while no two shards ever share a fault stream — adding
a shard never perturbs the fault schedule of the existing ones.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Optional

from repro.server.cmserver import CMServer
from repro.server.faults import derive_seed
from repro.server.journal import ScalingJournal
from repro.server.objects import ObjectCatalog
from repro.server.protocol import ServerProtocol
from repro.server.scheduler import RoundScheduler
from repro.storage.disk import DiskSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import ObsHandle

#: Salts namespacing the per-shard branches of the seed-derivation tree
#: (cluster master -> shard fault stream / shard catalog), away from the
#: injector's internal branches (transfer/read/scrub, salts 1 and 2).
_SHARD_STREAM_SALT = 0x5AAD_0001
_SHARD_CATALOG_SALT = 0x5AAD_0002


def shard_fault_seed(master_seed: int, shard_id: int) -> int:
    """The decorrelated fault-stream seed of one shard.

    Two :func:`~repro.server.faults.derive_seed` hops: master → cluster
    fault namespace → this shard id.  Putting the shard id (not the slot
    index) in the path keeps the stream pinned to the member: a shard
    keeps its schedule when earlier shards are removed, and a new shard
    gets a stream no previous member ever drew from.
    """
    return derive_seed(derive_seed(master_seed, _SHARD_STREAM_SALT), shard_id)


def shard_catalog_seed(master_seed: int, shard_id: int) -> int:
    """The shard's catalog master seed (own branch, independent of the
    fault stream so enabling faults never perturbs placement)."""
    return derive_seed(derive_seed(master_seed, _SHARD_CATALOG_SALT), shard_id)


class ShardNode:
    """One shard: a stable id + the single-server stack it runs.

    Parameters
    ----------
    shard_id:
        Stable identity, assigned monotonically by the coordinator.
    server:
        The shard's CM server (must satisfy
        :class:`~repro.server.protocol.ServerProtocol`).
    journal:
        The server's scaling journal (attached to ``server``).
    domain:
        Failure-domain label (rack, zone, host).  Replica placement
        never puts two copies of one object in the same domain; the
        default gives every shard its own domain (replication degrades
        to distinct-shards-only, which is always required anyway).
    """

    def __init__(
        self,
        shard_id: int,
        server: CMServer,
        journal: Optional[ScalingJournal] = None,
        domain: Optional[str] = None,
    ):
        assert isinstance(server, ServerProtocol)
        self.shard_id = shard_id
        self.server = server
        self.journal = journal
        self.domain = domain if domain is not None else f"dom{shard_id}"

    @classmethod
    def create(
        cls,
        shard_id: int,
        num_disks: int,
        spec: DiskSpec,
        bits: int = 32,
        backend: str = "scaddar",
        master_seed: int = 0,
        journal: Optional[ScalingJournal] = None,
        obs: Optional["ObsHandle"] = None,
        domain: Optional[str] = None,
    ) -> "ShardNode":
        """Build a fresh shard with a decorrelated catalog seed.

        The catalog's master seed is derived through the same
        shard-id-keyed path as the fault streams, so every shard draws
        independent block-placement sequences from the one cluster seed.
        """
        catalog = ObjectCatalog(
            master_seed=shard_catalog_seed(master_seed, shard_id), bits=bits
        )
        journal = journal if journal is not None else ScalingJournal()
        server = CMServer(
            catalog,
            [spec] * num_disks,
            bits=bits,
            default_spec=spec,
            journal=journal,
            backend=backend,
            obs=obs,
        )
        return cls(shard_id, server, journal, domain=domain)

    @cached_property
    def scheduler(self) -> RoundScheduler:
        """The shard's round scheduler, created on first use and a plain
        attribute from then on (every admission reads it)."""
        return RoundScheduler(
            self.server.array,
            locator=self.server.computed_locator(),
            batch_locator=self.server.computed_batch_locator(),
            obs=self.server.obs,
        )

    @property
    def _scheduler(self) -> Optional[RoundScheduler]:
        """The scheduler if one was created, else None (a shard that
        never served has no streams to move or count)."""
        return self.__dict__.get("scheduler")

    @property
    def total_blocks(self) -> int:
        """Blocks resident on this shard."""
        return self.server.total_blocks

    @property
    def num_objects(self) -> int:
        """Objects in this shard's catalog."""
        return len(self.server.catalog)

    def fault_seed(self, master_seed: int) -> int:
        """This shard's decorrelated fault-stream seed."""
        return shard_fault_seed(master_seed, self.shard_id)

    def __repr__(self) -> str:
        return (
            f"ShardNode(id={self.shard_id}, domain={self.domain!r}, "
            f"disks={self.server.num_disks}, objects={self.num_objects}, "
            f"blocks={self.total_blocks})"
        )
