"""The cluster coordinator: many shards behind one object namespace.

SCADDAR one level up.  The paper reorganizes *blocks over disks* with
minimal movement; a cluster must reorganize *objects over shards* under
the same constraint, so the coordinator routes every object through a
second-level placement policy (:class:`~repro.cluster.router.ShardRouter`
over the same backend registry) and turns shard add/remove into a
journaled rebalance with the familiar begin / migrate / finish shape:

* :meth:`begin_reshard` applies the topology operation to the router,
  plans the object moves (over-report-then-filter, exactly like the
  block-level ``plan_moves`` contract), spawns/condemns shards, and
  journals the intent;
* :meth:`migrate_next` moves one object — ingest on the target shard
  (:class:`~repro.server.ingest.IngestSession`, so a landed migration is
  indistinguishable from an initial load), drop from the source, move
  its live viewers' table rows — and journals the apply;
* :meth:`finish_reshard` verifies doomed shards drained and commits.

A crash anywhere in that sequence is recovered by
:func:`repro.cluster.persistence.resume_cluster` from the manifest plus
the :class:`~repro.cluster.journal.ClusterJournal`.

Serving runs under a cluster-level round barrier: :meth:`run_round`
drives every shard's :class:`~repro.server.scheduler.RoundScheduler`
through round *r* before any shard sees round *r+1*, and folds the
per-shard :class:`~repro.server.scheduler.RoundReport` records into one
:class:`ClusterRoundReport`.

Identity rules (all mirroring the single-server design):

* shards have *stable ids* assigned monotonically, surviving slot
  re-compaction the way physical disk ids survive removal — the router
  speaks slots, the coordinator owns the slot → stable-id table;
* objects have *cluster-global ids* (``gid``); each shard's catalog
  assigns its own local ids, and the coordinator maps ``gid`` → (home
  shard, local id).  Object names are unique cluster-wide.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.cluster.health import (
    ClusterFaultInjector,
    ClusterHealthMonitor,
    FailoverConfig,
    ObjectUnavailableError,
    ReadRoute,
    ShardHealth,
)
from repro.cluster.journal import ClusterJournal, ObjectMove
from repro.cluster.popularity import ReplicationPolicy
from repro.cluster.replication import (
    ClusterReplicationManager,
    ReplicationError,
    ShardRebuilder,
)
from repro.cluster.router import ROUTER_SALT, ShardRouter
from repro.cluster.shard import ShardNode
from repro.core.operations import ScalingOp
from repro.health import HealthTransitionError
from repro.server.cmserver import OperationInFlightError, ScaleReport
from repro.server.ingest import IngestSession
from repro.server.objects import MediaObject
from repro.server.scheduler import RoundReport
from repro.server.streams import Stream, StreamTable
from repro.storage.disk import DiskSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import ObsHandle

_HEALTHY = ShardHealth.HEALTHY
#: Builds a :class:`ReadRoute` without the named tuple's Python-level
#: ``__new__`` (the healthy route is built once per admission).
_new_route = tuple.__new__


@dataclass(frozen=True)
class ShardTemplate:
    """How the coordinator builds a shard (initial and reshard-spawned).

    Recorded in the cluster manifest so a resumed rebalance creates new
    shards identical to the ones the crashed process created.
    """

    num_disks: int
    spec: DiskSpec
    bits: int = 32
    backend: str = "scaddar"

    def to_payload(self) -> dict:
        """JSON-compatible form for the cluster manifest."""
        return {
            "num_disks": self.num_disks,
            "bits": self.bits,
            "backend": self.backend,
            "spec": {
                "capacity_blocks": self.spec.capacity_blocks,
                "bandwidth_blocks_per_round": (
                    self.spec.bandwidth_blocks_per_round
                ),
                "model": self.spec.model,
            },
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ShardTemplate":
        """Rebuild a template from :meth:`to_payload`."""
        spec = payload["spec"]
        return cls(
            num_disks=payload["num_disks"],
            spec=DiskSpec(
                capacity_blocks=spec["capacity_blocks"],
                bandwidth_blocks_per_round=spec["bandwidth_blocks_per_round"],
                model=spec["model"],
            ),
            bits=payload["bits"],
            backend=payload["backend"],
        )


@dataclass
class PendingReshard:
    """A begun-but-not-finished shard rebalance.

    The router already reflects the new topology, new shards are
    attached, doomed shards are off the slot table but still draining;
    the caller owns executing :attr:`moves` (at whatever pace) and then
    calling :meth:`ClusterCoordinator.finish_reshard`.
    """

    op: ScalingOp
    #: 1-based position in the router's operation log.
    seq: int
    shards_before: int
    shards_after: int
    new_shard_ids: tuple[int, ...]
    removed_shard_ids: tuple[int, ...]
    #: Filtered plan: every object that genuinely changes shard.
    moves: tuple[ObjectMove, ...]
    #: Object ids migrated so far, in execution order.
    applied: list[int] = field(default_factory=list)
    #: Router state before the operation (abort restores it).
    rollback_payload: Optional[dict] = field(default=None, repr=False)
    #: Dead shard this rebalance evacuates (None for plain reshards).
    rebuild_of: Optional[int] = None
    #: Each planned mover's pre-move local id on its source shard
    #: (rebuild abort flips homes back to these tombstone entries).
    source_locals: dict[int, int] = field(default_factory=dict, repr=False)
    _finished: bool = field(default=False, repr=False)
    #: :meth:`next_move`'s state: every move before ``_cursor`` has
    #: landed, ``_landed`` holds the first ``_folded`` entries of
    #: ``applied``.
    _cursor: int = field(default=0, repr=False, compare=False)
    _landed: set[int] = field(default_factory=set, repr=False, compare=False)
    _folded: int = field(default=0, repr=False, compare=False)

    @property
    def remaining(self) -> tuple[ObjectMove, ...]:
        """Planned migrations that have not landed yet, in plan order."""
        done = set(self.applied)
        return tuple(m for m in self.moves if m.object_id not in done)

    def next_move(self) -> Optional[ObjectMove]:
        """The first planned migration that has not landed (``None``
        when done) — ``remaining[0]`` in amortized O(1): each landed id
        is folded in once and each move is stepped past once, whether
        ``applied`` grew by :meth:`ClusterCoordinator.migrate_next` or
        by a resume re-executing applies in journal order."""
        if self._folded > len(self.applied):  # cleared by an abort
            self._cursor, self._landed, self._folded = 0, set(), 0
        self._landed.update(self.applied[self._folded:])
        self._folded = len(self.applied)
        while (
            self._cursor < len(self.moves)
            and self.moves[self._cursor].object_id in self._landed
        ):
            self._cursor += 1
        if self._cursor == len(self.moves):
            return None
        return self.moves[self._cursor]

    @property
    def done(self) -> bool:
        """Whether every planned migration has landed."""
        return len(self.applied) == len(self.moves)


@dataclass
class ClusterRoundReport:
    """One barrier round across every shard.

    ``reports`` maps stable shard id → that shard's
    :class:`~repro.server.scheduler.RoundReport`; the aggregate
    properties fold them (the conservation invariant ``requested ==
    served + hiccups + queued`` folds with them).
    """

    round_index: int
    reports: dict[int, RoundReport] = field(default_factory=dict)
    #: Demand from stranded streams (every live copy of their object is
    #: gone) — all of it counts as both requested and hiccuped, so the
    #: conservation invariant keeps holding through total data loss.
    stranded: int = 0

    @property
    def requested(self) -> int:
        """Block reads demanded cluster-wide this round."""
        return sum(r.requested for r in self.reports.values()) + self.stranded

    @property
    def served(self) -> int:
        """Reads delivered cluster-wide this round."""
        return sum(r.served for r in self.reports.values())

    @property
    def hiccups(self) -> int:
        """Missed deadlines cluster-wide this round."""
        return sum(r.hiccups for r in self.reports.values()) + self.stranded

    @property
    def queued(self) -> int:
        """Reads deferred to the next round cluster-wide."""
        return sum(r.queued for r in self.reports.values())

    @property
    def availability(self) -> float:
        """Fraction of the round's cluster demand served on time."""
        requested = self.requested
        return self.served / requested if requested else 1.0


@dataclass(frozen=True)
class ShardDeathReport:
    """What :meth:`ClusterCoordinator.kill_shard` did about one death.

    The four counts partition the streams the dead shard was serving.
    """

    shard_id: int
    #: Live streams moved to a replica copy on another shard.
    streams_failed_over: int
    #: Streams left with no live copy to serve them (R=1 deaths); their
    #: demand keeps counting as hiccups until the object is declared
    #: lost or the stream departs.
    streams_stranded: int
    #: Streams that had played to their end: nothing left to serve, so
    #: they depart.
    streams_finished: int = 0
    #: Streams admitted straight into the shard's scheduler, not through
    #: :meth:`ClusterCoordinator.admit_stream`: the coordinator has no
    #: title for them to route, so they are lost with the shard.
    streams_dropped: int = 0


class _Placement:
    """Where moving viewers go, by the per-viewer rule.

    In row order, a viewer goes to its route's shard if that shard's
    admission policy takes it, else to the first later copy in route
    order that is readable and takes it; a viewer every copy refuses,
    or whose title no copy can serve, is stranded.  Each shard's
    admission is asked at its active demand plus the playing rates of
    the viewers placed there before.  Until the first refusal the rule
    puts every viewer at its route's shard, which each shard's policy
    checks for its whole queue at once
    (:meth:`~repro.server.admission.AdmissionPolicy.admits_in_turn`);
    the viewers from the first refused one on are placed one at a time.
    A handoff with no refusal, the usual one, thus costs a few numpy
    calls per target shard rather than a Python call per viewer.
    """

    def __init__(
        self,
        coordinator: "ClusterCoordinator",
        titles: np.ndarray,
        routes: list[tuple[tuple[int, ...], bool]],
    ):
        self.c = coordinator
        self.titles = titles
        self.routes = routes
        #: (title index, shard id) -> the title's catalog entry there.
        self._copies: dict[tuple[int, int], MediaObject] = {}
        #: shard id -> [admission policy, array, active demand with the
        #: viewers placed so far].
        self._gates: dict[int, list] = {}
        self._readable: dict[int, bool] = {}

    def copy(self, t: int, shard_id: int) -> MediaObject:
        """Title ``t``'s catalog entry on one shard."""
        media = self._copies.get((t, shard_id))
        if media is None:
            media = self._copies[(t, shard_id)] = self.c._copy_media(
                self.titles.item(t), shard_id
            )
        return media

    def gate(self, shard_id: int) -> list:
        gate = self._gates.get(shard_id)
        if gate is None:
            scheduler = self.c._shard_by_id[shard_id].scheduler
            gate = self._gates[shard_id] = [
                scheduler.admission,
                scheduler.array,
                scheduler.table.active_demand,
            ]
        return gate

    def readable(self, shard_id: int) -> bool:
        ok = self._readable.get(shard_id)
        if ok is None:
            ok = self._readable[shard_id] = self.c.health.is_readable(
                shard_id, self.c.round_index
            )
        return ok

    def decide(self, title_of: np.ndarray, playing: np.ndarray) -> np.ndarray:
        """Each viewer's target shard id (-1: stranded), in row order,
        given its title index and whether it plays once moved."""
        first = np.array(
            [shards[0] if shards else -1 for shards, _ in self.routes],
            dtype=np.int64,
        )
        rates = np.array(
            [
                self.copy(t, shards[0]).blocks_per_round if shards else 0
                for t, (shards, _) in enumerate(self.routes)
            ],
            dtype=np.int64,
        )
        target = first[title_of]
        rate = rates[title_of]
        cut = len(target)
        for shard_id in _group(target[target >= 0])[0].tolist():
            queue = np.flatnonzero(target == shard_id)
            policy, array, demand = self.gate(shard_id)
            admitted = policy.admits_in_turn(
                array, demand, rate[queue], playing[queue]
            )
            if admitted < len(queue):
                cut = min(cut, queue.item(admitted))
        added = (rate * playing)[:cut]
        for shard_id, gate in self._gates.items():
            gate[2] += int(added[target[:cut] == shard_id].sum())
        for p in range(cut, len(target)):
            target[p] = self._one(title_of.item(p), bool(playing[p]))
        return target

    def _one(self, t: int, plays: bool) -> int:
        """Place one viewer of title ``t``; its target (-1: stranded)."""
        for k, shard_id in enumerate(self.routes[t][0]):
            if k and not self.readable(shard_id):
                continue
            gate = self.gate(shard_id)
            rate = self.copy(t, shard_id).blocks_per_round
            if gate[0].admits(gate[1], gate[2], rate):
                if plays:
                    gate[2] += rate
                return shard_id
        return -1


class ClusterCoordinator:
    """Routes objects to shards and orchestrates cross-shard operations.

    Build with :meth:`create` (fresh cluster) or through
    :func:`repro.cluster.persistence.restore_cluster` /
    :func:`~repro.cluster.persistence.resume_cluster` (from a manifest).

    Parameters
    ----------
    router:
        The second-level placement router (its slots index ``shards``).
    shards:
        Shard nodes in slot order (one per router slot).
    template:
        How reshard-spawned shards are built.
    master_seed:
        Cluster master seed; every shard derives its catalog and fault
        seeds from it with its shard id in the path.
    journal:
        Optional :class:`~repro.cluster.journal.ClusterJournal` for
        crash-consistent rebalances.
    obs:
        Optional cluster-level observability handle.  When given (and
        enabled), every shard the coordinator *spawns* gets its own
        :class:`~repro.obs.Obs`; :mod:`repro.cluster.obs` merges them.
    replication_factor:
        Total copies per object (primary included).  1 — the default,
        and the pre-replication behavior bit-for-bit — keeps only the
        router-placed primary.
    num_domains:
        Failure domains shards are striped across (shard *i* lands in
        ``dom{i % num_domains}``).  ``None`` gives every shard its own
        domain, so replication degrades to distinct-shards-only.
    failover:
        Retry/timeout/backoff budget for :meth:`route_read`.
    fault_injector:
        Optional seeded :class:`~repro.cluster.health.ClusterFaultInjector`
        supplying per-shard read failures to the failover path.
    replication_policy:
        Optional :class:`~repro.cluster.popularity.ReplicationPolicy`.
        When attached, replica degree becomes per-object: routed reads
        and stream demand feed a decaying
        :class:`~repro.cluster.popularity.DemandTracker`, and every
        :meth:`run_round` runs one rate-bounded
        :meth:`~repro.cluster.replication.ClusterReplicationManager.adapt`
        pass that re-apportions the policy's total-copy budget toward
        hot objects.  ``None`` (the default) keeps uniform
        ``replication_factor`` behavior bit-for-bit, including the
        tracking-free hot path.
    """

    def __init__(
        self,
        router: ShardRouter,
        shards: list[ShardNode],
        template: ShardTemplate,
        master_seed: int = 0,
        journal: Optional[ClusterJournal] = None,
        obs: Optional["ObsHandle"] = None,
        replication_factor: int = 1,
        num_domains: Optional[int] = None,
        failover: Optional[FailoverConfig] = None,
        fault_injector: Optional[ClusterFaultInjector] = None,
        replication_policy: Optional[ReplicationPolicy] = None,
    ):
        from repro.obs import NULL_OBS

        if len(shards) != router.num_shards:
            raise ValueError(
                f"router expects {router.num_shards} shards but "
                f"{len(shards)} were given"
            )
        if replication_factor < 1:
            raise ValueError(
                f"replication_factor must be >= 1, got {replication_factor}"
            )
        if num_domains is not None and num_domains < 1:
            raise ValueError(
                f"num_domains must be >= 1, got {num_domains}"
            )
        self.router = router
        self.shards = list(shards)
        self.template = template
        self.master_seed = master_seed
        self.journal = journal
        self.obs = obs if obs is not None else NULL_OBS
        if journal is not None:
            journal.attach_obs(self.obs)
        self._shard_by_id: dict[int, ShardNode] = {
            shard.shard_id: shard for shard in self.shards
        }
        if len(self._shard_by_id) != len(self.shards):
            raise ValueError("duplicate shard ids")
        self._next_shard_id = max(self._shard_by_id, default=-1) + 1
        self._next_gid = 0
        #: gid -> stable id of the shard currently holding the object.
        self._home: dict[int, int] = {}
        #: gid -> the object's local catalog id on its home shard.
        self._local: dict[int, int] = {}
        #: cluster-unique object name -> gid.
        self._names: dict[str, int] = {}
        #: stream id -> gid (for re-homing and departure routing).
        self._streams: dict[int, int] = {}
        #: gid -> stream id -> the stream's handle, for every admitted
        #: stream (stranded ones included).  The handle is attached to
        #: the table of the shard serving it, which diverges from the
        #: object's home after a failover, or to ``_stranded``; moves
        #: re-point it, so it is the one :meth:`admit_stream` returned.
        #: Feeds the per-title demand and lost-title departures.
        self._viewers: dict[int, dict[int, Stream]] = {}
        #: Streams with no live copy left to serve them, as table rows
        #: that no round serves.
        self._stranded = StreamTable()
        self.replication_factor = replication_factor
        self.num_domains = num_domains
        self.failover = failover if failover is not None else FailoverConfig()
        self.fault_injector = fault_injector
        self.health = ClusterHealthMonitor(obs=self.obs)
        self.replication = ClusterReplicationManager(
            self, policy=replication_policy
        )
        #: gid -> stable ids of shards holding replica copies, in
        #: placement order (the failover path tries them in this order).
        self._replica_home: dict[int, tuple[int, ...]] = {}
        #: (gid, shard id) -> the replica copy's local catalog id.
        self._replica_local: dict[tuple[int, int], int] = {}
        self.failover_reads = 0
        self.failover_retries = 0
        self.lost_objects = 0
        self.lost_blocks = 0
        self._in_flight: Optional[PendingReshard] = None
        self.round_index = 0

    @classmethod
    def create(
        cls,
        num_shards: int,
        disks_per_shard: int,
        spec: Optional[DiskSpec] = None,
        *,
        bits: int = 32,
        shard_backend: str = "scaddar",
        router_backend: str = "jump_hash",
        master_seed: int = 0,
        salt: int = ROUTER_SALT,
        journal: Optional[ClusterJournal] = None,
        obs: Optional["ObsHandle"] = None,
        replication_factor: int = 1,
        num_domains: Optional[int] = None,
        failover: Optional[FailoverConfig] = None,
        fault_injector: Optional[ClusterFaultInjector] = None,
        replication_policy: Optional[ReplicationPolicy] = None,
    ) -> "ClusterCoordinator":
        """Build a fresh cluster of identical shards.

        ``router_backend`` is any registered placement backend;
        ``jump_hash`` (adds anywhere, removals at the tail) and
        ``consistent_hash`` / ``straw`` (arbitrary removal) are the
        natural second-level choices, ``weighted_straw`` for
        heterogeneous shards.  ``replication_factor`` > 1 needs a
        rebuild-capable router (arbitrary removal) to survive the shard
        deaths it protects against — see
        :meth:`begin_shard_rebuild`.
        """
        if num_shards < 1:
            raise ValueError(f"a cluster needs >= 1 shard, got {num_shards}")
        template = ShardTemplate(
            num_disks=disks_per_shard,
            spec=spec if spec is not None else DiskSpec(),
            bits=bits,
            backend=shard_backend,
        )
        instrument = obs is not None and obs.enabled
        shards = [
            _build_shard(
                shard_id,
                template,
                master_seed,
                instrument,
                domain=_domain_label(shard_id, num_domains),
            )
            for shard_id in range(num_shards)
        ]
        return cls(
            ShardRouter.create(router_backend, num_shards, salt=salt),
            shards,
            template,
            master_seed=master_seed,
            journal=journal,
            obs=obs,
            replication_factor=replication_factor,
            num_domains=num_domains,
            failover=failover,
            fault_injector=fault_injector,
            replication_policy=replication_policy,
        )

    # ------------------------------------------------------------------
    # Identity / inventory
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        """Shards currently on the slot table (draining ones excluded)."""
        return len(self.shards)

    @property
    def shard_ids(self) -> tuple[int, ...]:
        """Stable shard ids in slot order."""
        return tuple(shard.shard_id for shard in self.shards)

    @property
    def num_objects(self) -> int:
        """Objects in the cluster namespace."""
        return len(self._home)

    @property
    def total_blocks(self) -> int:
        """Blocks resident across every shard (draining ones included)."""
        return sum(s.total_blocks for s in self._shard_by_id.values())

    @property
    def object_ids(self) -> tuple[int, ...]:
        """Every cluster-global object id, ascending."""
        return tuple(sorted(self._home))

    def shard(self, shard_id: int) -> ShardNode:
        """Look up a shard by stable id (draining shards included)."""
        try:
            return self._shard_by_id[shard_id]
        except KeyError:
            raise KeyError(f"shard {shard_id} is not in the cluster")

    def shard_of(self, object_id: int) -> int:
        """Stable id of the shard currently holding an object."""
        try:
            return self._home[object_id]
        except KeyError:
            raise KeyError(f"object {object_id} is not in the cluster")

    def gid_of(self, name: str) -> int:
        """Cluster-global id of an object by its unique name."""
        try:
            return self._names[name]
        except KeyError:
            raise KeyError(f"object name {name!r} is not in the cluster")

    def local_id_of(self, object_id: int) -> int:
        """The object's local catalog id on its home shard."""
        self.shard_of(object_id)  # existence check with the same error
        return self._local[object_id]

    def _local_id_on(self, object_id: int, shard_id: int) -> int:
        """Local catalog id of the object's copy on a given shard
        (primary or replica)."""
        if self._home.get(object_id) == shard_id:
            return self._local[object_id]
        return self._replica_local[(object_id, shard_id)]

    def replicas_of(self, object_id: int) -> tuple[int, ...]:
        """Stable shard ids of the object's replica copies, in order."""
        self.shard_of(object_id)  # existence check with the same error
        return self._replica_home.get(object_id, ())

    # ------------------------------------------------------------------
    # Objects
    # ------------------------------------------------------------------
    def add_object(
        self, name: str, num_blocks: int, blocks_per_round: int = 1
    ) -> int:
        """Create an object, route it to its shard, load all its blocks.

        Returns the cluster-global object id.  Refused while a rebalance
        is in flight (the move plan was computed over a fixed namespace).
        """
        self._check_quiescent("add_object")
        if name in self._names:
            raise ValueError(f"object name {name!r} already exists")
        gid = self._next_gid
        self._next_gid += 1
        # Register before locating: stateful router backends assign the
        # slot at registration time.
        self.router.register([gid])
        shard = self.shards[self.router.slot_of(gid)]
        media = shard.server.add_object(name, num_blocks, blocks_per_round)
        self._home[gid] = shard.shard_id
        self._local[gid] = media.object_id
        self._names[name] = gid
        self.replication.place(gid)
        if self.obs.enabled:
            self.obs.event(
                "cluster.object.add",
                gid=gid,
                shard=shard.shard_id,
                blocks=num_blocks,
            )
        return gid

    def remove_object(self, object_id: int) -> None:
        """Drop an object (every copy) from the cluster namespace."""
        self._check_quiescent("remove_object")
        shard = self.shard(self.shard_of(object_id))
        local = self._local[object_id]
        name = shard.server.catalog.get(local).name
        for replica_id in list(self._replica_home.get(object_id, ())):
            self.replication.drop_replica(
                object_id,
                replica_id,
                lost=not self.health.is_live(replica_id),
            )
        shard.server.remove_object(local)
        self.router.unregister([object_id])
        del self._home[object_id]
        del self._local[object_id]
        del self._names[name]
        self.replication.forget(object_id)
        if self.obs.enabled:
            self.obs.event(
                "cluster.object.remove", gid=object_id, shard=shard.shard_id
            )

    def block_locations(self, object_id: int) -> tuple[int, list[int]]:
        """Where an object's blocks live: ``(shard id, physical disks)``.

        The physical ids are local to the shard's array; the shard id
        disambiguates them cluster-wide.
        """
        shard = self.shard(self.shard_of(object_id))
        return shard.shard_id, shard.server.block_locations(
            self._local[object_id]
        )

    # ------------------------------------------------------------------
    # Per-shard operations
    # ------------------------------------------------------------------
    def scale_shard(
        self,
        shard_id: int,
        op: ScalingOp,
        specs: Optional[list[DiskSpec]] = None,
        eps: Optional[float] = None,
    ) -> ScaleReport:
        """Run one disk-level scaling operation on one shard.

        Per-shard operations move blocks within the shard and never
        change object routing, but they are mutually exclusive with a
        cluster rebalance: a migration is catalog traffic on both
        endpoint shards, and landing it on a shard whose own scaling
        journal is mid-operation would interleave the two journals'
        recovery stories.  Hence the layering guard — refused while a
        rebalance is in flight, just as ``begin_reshard`` refuses while
        any shard's disk-level operation is open.
        """
        self._check_quiescent("scale_shard")
        if not self.health.is_live(shard_id):
            raise HealthTransitionError(
                f"shard {shard_id} is {self.health.state(shard_id).value}; "
                "dead shards are rebuilt, not scaled"
            )
        report = self.shard(shard_id).server.scale(op, specs=specs, eps=eps)
        if self.obs.enabled:
            self.obs.event(
                "cluster.shard.scale",
                shard=shard_id,
                kind=op.kind,
                count=op.count,
                moved=report.blocks_moved,
            )
        return report

    def reshuffle_shard(self, shard_id: int) -> int:
        """Run a full SCADDAR redistribution on one shard (fresh seeds).

        Returns blocks moved.  Raises for shard backends without a
        reshuffle lifecycle, exactly like the single-server path.
        Mutually exclusive with a cluster rebalance (see
        :meth:`scale_shard`).
        """
        self._check_quiescent("reshuffle_shard")
        if not self.health.is_live(shard_id):
            raise HealthTransitionError(
                f"shard {shard_id} is {self.health.state(shard_id).value}; "
                "dead shards are rebuilt, not reshuffled"
            )
        moved = self.shard(shard_id).server.reshuffle()
        if self.obs.enabled:
            self.obs.event(
                "cluster.shard.reshuffle", shard=shard_id, moved=moved
            )
        return moved

    # ------------------------------------------------------------------
    # Failover read routing
    # ------------------------------------------------------------------
    def route_read(
        self, object_id: int, round_index: Optional[int] = None
    ) -> ReadRoute:
        """Pick the shard that serves one read, with retry and failover.

        Tries the home shard first, then each replica in placement
        order.  Against each *readable* shard (dead/rebuilding shards
        and tripped breakers are skipped outright) the read is attempted
        up to ``failover.max_attempts`` times with capped exponential
        backoff between retries.  The timeout budget is **route-wide**:
        one ``timeout_budget_rounds`` allowance covers the whole path,
        so a long replica chain can never wait ``copies × budget``
        rounds.  Once the budget is spent, each remaining copy still
        gets one backoff-free attempt (a cheap probe) before the read
        is declared unavailable.  Every outcome feeds the shard's
        health monitor, so repeated failures trip the breaker and later
        reads skip the shard without paying the retry latency.

        A home that serves unimpeded (:meth:`_serves_unimpeded`)
        answers on the first attempt, and a success leaves a quiescent
        breaker unchanged, so that route is returned without entering
        the loop.  :meth:`admit_stream` takes the same test and does not
        call this method when it holds.

        Raises
        ------
        ObjectUnavailableError
            When no copy could serve the read.
        """
        try:
            home = self._home[object_id]
        except KeyError:
            raise KeyError(f"object {object_id} is not in the cluster")
        replication = self.replication
        if replication.tracker is not None:
            replication.record_demand(object_id)
        if self._serves_unimpeded(home):
            return _new_route(
                ReadRoute, (object_id, home, 1, 0, False, (home,))
            )
        if round_index is None:
            round_index = self.round_index
        cfg = self.failover
        path: list[int] = []
        attempts = 0
        backoff_total = 0
        budget = cfg.timeout_budget_rounds
        for shard_id in (home,) + self._replica_home.get(object_id, ()):
            path.append(shard_id)
            if not self.health.is_readable(shard_id, round_index):
                continue
            backoff = cfg.base_backoff_rounds
            for attempt in range(1, cfg.max_attempts + 1):
                attempts += 1
                failed = (
                    self.fault_injector is not None
                    and self.fault_injector.read_error(shard_id)
                )
                if not failed:
                    self.health.observe_success(shard_id)
                    failed_over = shard_id != home
                    if failed_over:
                        self.failover_reads += 1
                        if self.obs.enabled:
                            self.obs.inc("cluster.failover.reads")
                            self.obs.event(
                                "cluster.read.failover",
                                gid=object_id,
                                home=home,
                                served_by=shard_id,
                                attempts=attempts,
                                backoff=backoff_total,
                            )
                    return ReadRoute(
                        object_id=object_id,
                        shard_id=shard_id,
                        attempts=attempts,
                        backoff_rounds=backoff_total,
                        failed_over=failed_over,
                        path=tuple(path),
                    )
                self.health.observe_failure(shard_id, round_index)
                self.failover_retries += 1
                if self.obs.enabled:
                    self.obs.inc("cluster.failover.retries")
                if attempt >= cfg.max_attempts:
                    break
                charge = min(backoff, cfg.max_backoff_rounds)
                if charge > budget:
                    break  # timeout budget spent: fall over now
                budget -= charge
                backoff_total += charge
                backoff = min(backoff * 2, cfg.max_backoff_rounds)
        if self.obs.enabled:
            self.obs.event(
                "cluster.read.unavailable", gid=object_id, attempts=attempts
            )
        raise ObjectUnavailableError(
            f"object {object_id} has no copy that can serve "
            f"(tried shards {path})"
        )

    def _serves_unimpeded(self, shard_id: int) -> bool:
        """Whether a read of ``shard_id`` succeeds at its first attempt
        and changes no health state: no fault injector is attached, the
        shard is healthy, and its breaker is absent or quiescent (the
        test :meth:`route_read` and :meth:`admit_stream` take).

        The health part is
        :meth:`~repro.health.HealthMonitor.serves_unimpeded`, its two
        dicts read inline (once per admission); keep the two in step.
        """
        if self.fault_injector is not None:
            return False
        health = self.health
        if health._states.get(shard_id, _HEALTHY) is not _HEALTHY:
            return False
        breaker = health._breakers.get(shard_id)
        return breaker is None or breaker.is_quiescent

    def route_reads(self, object_ids: Sequence[int]) -> np.ndarray:
        """Serving shard for each object, batched.

        While every shard serves unimpeded (no open breakers, no
        faults, no rebalance in flight) this is one vectorized router
        lookup — the all-healthy hot path stays allocation-free per
        read, which is what keeps failover machinery out of the
        routed-lookup throughput budget.  Any degradation falls back to
        per-object :meth:`route_read` with its full retry/failover
        semantics.
        """
        if (
            self.fault_injector is None
            and self._in_flight is None
            and not self._stranded
            and self.health.all_unimpeded(self.shard_ids)
        ):
            gids = np.asarray(object_ids, dtype=np.int64)
            if self.replication.tracker is not None and len(gids):
                # Queue the demand feed (one unit per routed read; the
                # slow path records inside route_read).  Aggregation is
                # lazy inside the tracker and the id array is shared
                # with the router lookup, so the hot path pays one list
                # append, not a per-object loop or an extra conversion.
                self.replication.tracker.record_batch(gids)
                if self.obs.enabled:
                    self.obs.inc("cluster.demand.units", len(gids))
            table = np.array(
                [shard.shard_id for shard in self.shards], dtype=np.int64
            )
            return table[self.router.slots_of(gids)]
        return np.array(
            [self.route_read(int(gid)).shard_id for gid in object_ids],
            dtype=np.int64,
        )

    # ------------------------------------------------------------------
    # Serving (cluster round barrier)
    # ------------------------------------------------------------------
    def admit_stream(
        self, stream_id: int, object_id: int, start_block: int = 0
    ) -> Stream:
        """Admit a playback stream on a shard holding a live copy.

        A home that serves unimpeded (:meth:`_serves_unimpeded`) takes
        the stream directly: one demand unit, then its scheduler's
        :meth:`~repro.server.scheduler.RoundScheduler.open_stream`.  Any
        other home goes through :meth:`route_read` (a replica when the
        home is dead or persistently failing).  Stream ids are
        cluster-unique so migration and failover can re-home them.

        A duplicate stream id (``ValueError``) or an unknown object
        (``KeyError``) fails before any demand is recorded; a start
        block outside the object (``ValueError``) or a refusal
        (:class:`~repro.server.admission.AdmissionRefusedError`) fails
        after its demand unit is recorded, leaving nothing else behind.
        """
        streams = self._streams
        if stream_id in streams:
            raise ValueError(f"stream id {stream_id} already admitted")
        try:
            home = self._home[object_id]
        except KeyError:
            raise KeyError(f"object {object_id} is not in the cluster")
        if self._serves_unimpeded(home):
            # ClusterReplicationManager.record_demand, inlined.
            tracker = self.replication.tracker
            if tracker is not None:
                tracker.record(object_id)
                if self.obs.enabled:
                    self.obs.inc("cluster.demand.units", 1)
            shard = self._shard_by_id[home]
            # The home copy's catalog entry (ObjectCatalog.get, inlined).
            media = shard.server.catalog._objects[self._local[object_id]]
        else:
            shard_id = self.route_read(object_id).shard_id
            shard = self._shard_by_id[shard_id]
            media = shard.server.catalog.get(
                self._local_id_on(object_id, shard_id)
            )
        stream = shard.scheduler.open_stream(stream_id, media, start_block)
        streams[stream_id] = object_id
        viewers = self._viewers.get(object_id)
        if viewers is None:
            self._viewers[object_id] = {stream_id: stream}
        else:
            viewers[stream_id] = stream
        return stream

    def depart_stream(self, stream_id: int) -> Stream:
        """Remove a stream from the table holding it: the scheduler of
        the shard serving it, or the stranded table."""
        try:
            gid = self._streams.pop(stream_id)
        except KeyError:
            raise KeyError(f"stream id {stream_id} is not admitted") from None
        viewers = self._viewers[gid]
        stream = viewers.pop(stream_id)
        if not viewers:
            del self._viewers[gid]
        return stream._table.remove(stream_id)

    def run_round(self) -> ClusterRoundReport:
        """Serve one barrier round: every shard runs round *r* before any
        runs *r+1*.

        Draining shards (mid-removal) still serve — their objects are
        readable until each one's migration lands, exactly like a
        doomed disk serving until its blocks drain.  Dead and rebuilding
        shards serve nothing (their streams failed over at death);
        stranded streams' demand is charged as hiccups (one
        ``window_counts`` and one ``deliver`` over the stranded table)
        so the conservation invariant survives total copy loss.
        """
        report = ClusterRoundReport(round_index=self.round_index)
        self.round_index += 1
        self.health.new_round()
        tracker = self.replication.tracker
        if tracker is not None and self._streams:
            # Every admitted stream is one unit of sustained demand for
            # its object this round (stranded streams included — their
            # unmet demand is exactly what the policy should chase):
            # one (gid, viewers) entry per title, not one per viewer.
            tracker.advance_to(self.round_index)
            viewers = self._viewers
            titles = len(viewers)
            tracker.record_counts(
                np.fromiter(viewers, dtype=np.int64, count=titles),
                np.fromiter(
                    map(len, viewers.values()), dtype=np.int64, count=titles
                ),
            )
            if self.obs.enabled:
                self.obs.inc("cluster.demand.units", len(self._streams))
        for shard in self._serving_shards():
            if not self.health.is_live(shard.shard_id):
                continue
            report.reports[shard.shard_id] = shard.scheduler.run_round()
        stranded = self._stranded
        if len(stranded):
            counts = stranded.window_counts()
            report.stranded = int(counts.sum())
            stranded.deliver(np.zeros_like(counts), counts)
        if self.replication.policy is not None and self._in_flight is None:
            # One rate-bounded adaptation pass per round; paused while a
            # rebalance is in flight (its move plan owns the namespace).
            self.replication.adapt()
        if self.obs.enabled:
            self.obs.event(
                "cluster.round",
                round=report.round_index,
                requested=report.requested,
                served=report.served,
                hiccups=report.hiccups,
            )
        return report

    def run_rounds(self, count: int) -> list[ClusterRoundReport]:
        """Run ``count`` barrier rounds and return their reports."""
        if count < 0:
            raise ValueError(f"round count must be >= 0, got {count}")
        return [self.run_round() for _ in range(count)]

    def _serving_shards(self) -> list[ShardNode]:
        """Slot-table shards plus draining ones, in stable-id order."""
        return [self._shard_by_id[sid] for sid in sorted(self._shard_by_id)]

    # ------------------------------------------------------------------
    # Shard death: detect -> fail over -> rebuild -> re-admit
    # ------------------------------------------------------------------
    def kill_shard(self, shard_id: int) -> ShardDeathReport:
        """A shard died: mark it dead and fail its live streams over.

        Every stream the dead shard was serving moves to a surviving
        copy at its exact playback position (paused streams stay
        paused), as table rows: one :meth:`route_read` per title, then
        one bulk :meth:`~repro.server.streams.StreamTable.move` (see
        :meth:`_rehome`).  Streams whose object has no copy
        that can take them are *stranded* — their demand keeps counting
        as hiccups each round, so availability honestly reflects the
        loss until :meth:`begin_shard_rebuild` declares the objects
        lost or the clients depart.

        Killing is legal at any time, including mid-rebalance: pending
        migrations out of the dead shard switch to replica sources (or
        promotion) automatically.
        """
        shard = self.shard(shard_id)
        if not self.health.is_live(shard_id):
            raise HealthTransitionError(
                f"shard {shard_id} is already "
                f"{self.health.state(shard_id).value}"
            )
        self.health.mark_dead(shard_id)
        counts = (0, 0, 0, 0)
        if shard._scheduler is not None:
            table = shard.scheduler.table
            counts = self._rehome(table, table.live_rows())
        report = ShardDeathReport(shard_id, *counts)
        if self.obs.enabled:
            self.obs.event(
                "cluster.shard.dead",
                shard=shard_id,
                failed_over=report.streams_failed_over,
                stranded=report.streams_stranded,
                finished=report.streams_finished,
                dropped=report.streams_dropped,
            )
            self.obs.set_gauge(
                "cluster.shards.dead",
                len(self.health.shards_in(ShardHealth.DEAD)),
            )
        return report

    def begin_shard_rebuild(
        self, shard_id: int, rate_per_round: int = 4
    ) -> ShardRebuilder:
        """Start the journaled evacuation of a dead shard.

        The rebuild is an ordinary reshard-remove of the dead slot —
        same journal records (tagged ``rebuild_of``), same crash-resume
        path — except migrations source from replica copies (the dead
        shard's data is unreachable) and promote an existing replica on
        the target instead of copying when one is there.  The dead
        shard's catalog is left untouched as a tombstone; it detaches
        wholesale at :meth:`finish_reshard`.

        Requires a router backend that can remove the dead slot
        (``consistent_hash`` / ``straw``; ``jump_hash`` only removes
        the tail slot — the error raises before anything mutates).
        Returns a rate-bounded :class:`~repro.cluster.replication.ShardRebuilder`;
        call its ``step()`` once per serving round, then ``finish()``.
        """
        if self.health.state(shard_id) is not ShardHealth.DEAD:
            raise HealthTransitionError(
                f"shard {shard_id} is {self.health.state(shard_id).value}; "
                "only dead shards are rebuilt"
            )
        slot = next(
            (
                i
                for i, shard in enumerate(self.shards)
                if shard.shard_id == shard_id
            ),
            None,
        )
        if slot is None:
            raise ValueError(
                f"shard {shard_id} is not on the slot table (an in-flight "
                "removal already owns its evacuation)"
            )
        if self._in_flight is not None:
            raise OperationInFlightError(
                f"rebalance seq={self._in_flight.seq} is still in flight; "
                "finish or abort it before rebuilding"
            )
        self._check_shard_ops_quiescent(skip={shard_id})
        pending = self._begin_reshard(
            ScalingOp.remove([slot]), journal_writes=True,
            rebuild_of=shard_id,
        )
        self.health.begin_rebuild(shard_id)
        if self.obs.enabled:
            self.obs.event(
                "cluster.rebuild.begin",
                shard=shard_id,
                seq=pending.seq,
                moves=len(pending.moves),
            )
            self.obs.set_gauge(
                "cluster.rebuild.progress", 0.0, shard=str(shard_id)
            )
        return ShardRebuilder(self, pending, rate_per_round=rate_per_round)

    def rebuild_shard(
        self, shard_id: int, rate_per_round: int = 4
    ) -> PendingReshard:
        """Begin, fully drive, and commit one dead shard's rebuild
        (offline path)."""
        rebuilder = self.begin_shard_rebuild(
            shard_id, rate_per_round=rate_per_round
        )
        rebuilder.run()
        rebuilder.finish()
        return rebuilder.pending

    def readmit_shard(self) -> PendingReshard:
        """Re-admit capacity after a rebuild: one ordinary journaled
        shard-add, fully executed (the spawned shard gets a fresh
        stable id and the next free failure domain by the cluster's
        striping rule)."""
        return self.reshard(ScalingOp.add(1))

    # ------------------------------------------------------------------
    # Resharding (shard add/remove as a journaled rebalance)
    # ------------------------------------------------------------------
    def begin_reshard(self, op: ScalingOp) -> PendingReshard:
        """Start a shard add/remove: new topology, object move plan,
        journaled intent — no objects moved yet.

        ``op`` speaks *slots* (``ScalingOp.add(k)`` /
        ``ScalingOp.remove([slot, ...])``), exactly like a disk-level
        operation; router-backend constraints apply (``jump_hash``
        removes from the tail only).  For removals the doomed shards
        leave the slot table immediately but keep serving until drained.
        """
        if self._in_flight is not None:
            raise OperationInFlightError(
                f"rebalance seq={self._in_flight.seq} is still in flight; "
                "finish or abort it before beginning another"
            )
        self._check_shard_ops_quiescent()
        pending = self._begin_reshard(op, journal_writes=True)
        if self.obs.enabled:
            self.obs.event(
                "cluster.reshard.begin",
                seq=pending.seq,
                kind=op.kind,
                count=op.count,
                shards_before=pending.shards_before,
                shards_after=pending.shards_after,
                moves=len(pending.moves),
            )
        return pending

    def _begin_reshard(
        self,
        op: ScalingOp,
        journal_writes: bool,
        rebuild_of: Optional[int] = None,
    ) -> PendingReshard:
        shards_before = len(self.shards)
        rollback_payload = self.router.state_payload()
        if op.kind == "remove":
            removed_ids = tuple(
                self.shards[slot].shard_id for slot in op.removed
            )
        else:
            removed_ids = ()

        gids = sorted(self._home)
        seq = self.router.num_operations + 1
        # Mutates the router (the topology op lands in its log); raises
        # before mutating for ops the backend refuses (e.g. jump_hash
        # mid-table removal), leaving the cluster untouched.
        indices, targets = self.router.plan_moves(op, gids)

        if op.kind == "add":
            new_ids = tuple(
                self._spawn_shard().shard_id for _ in range(op.count)
            )
        else:
            new_ids = ()
            doomed = set(op.removed)
            # Off the slot table now (the router's slots re-compacted);
            # still in _shard_by_id, serving, until finish_reshard.
            self.shards = [
                shard
                for slot, shard in enumerate(self.shards)
                if slot not in doomed
            ]

        # Translate candidate moves (slots) to stable ids and drop the
        # over-reported identity moves — the same filter the block-level
        # migration planner applies.
        table = [shard.shard_id for shard in self.shards]
        moves = []
        for index, target_slot in zip(indices.tolist(), targets.tolist()):
            gid = gids[index]
            target_id = table[target_slot]
            if self._home[gid] != target_id:
                moves.append(ObjectMove(gid, self._home[gid], target_id))

        pending = PendingReshard(
            op=op,
            seq=seq,
            shards_before=shards_before,
            shards_after=len(self.shards),
            new_shard_ids=new_ids,
            removed_shard_ids=removed_ids,
            moves=tuple(moves),
            rollback_payload=rollback_payload,
            rebuild_of=rebuild_of,
            source_locals={
                m.object_id: self._local[m.object_id] for m in moves
            },
        )
        self._in_flight = pending
        if journal_writes and self.journal is not None:
            self.journal.record_begin(
                seq=seq,
                op=op,
                shards_before=shards_before,
                shards_after=pending.shards_after,
                new_shard_ids=new_ids,
                moves=moves,
                rebuild_of=rebuild_of,
            )
        return pending

    def migrate_next(self, pending: PendingReshard) -> Optional[ObjectMove]:
        """Execute one planned migration; returns it (None when done)."""
        self._check_pending(pending)
        move = pending.next_move()
        if move is None:
            return None
        self._migrate(move, journal_writes=True, seq=pending.seq)
        pending.applied.append(move.object_id)
        return move

    def execute_reshard(self, pending: PendingReshard) -> int:
        """Run every remaining migration; returns how many were done."""
        done = 0
        while self.migrate_next(pending) is not None:
            done += 1
        return done

    def finish_reshard(self, pending: PendingReshard) -> None:
        """Complete a fully migrated rebalance (commit + drop drained)."""
        self._finish_reshard(pending, journal_writes=True)
        if self.obs.enabled:
            self.obs.event(
                "cluster.reshard.commit",
                seq=pending.seq,
                shards_after=pending.shards_after,
                moved=len(pending.applied),
            )

    def _finish_reshard(
        self, pending: PendingReshard, journal_writes: bool
    ) -> None:
        self._check_pending(pending)
        if not pending.done:
            raise ValueError(
                f"rebalance seq={pending.seq} has "
                f"{len(pending.remaining)} migrations outstanding"
            )
        # Evict replica copies from departing shards first: replicas
        # are this layer's data, invisible to the router's move plan.
        # A live departing shard drains them (drop + re-create on a
        # survivor); a dead one lost them — repair re-replicates from
        # the remaining copies either way.
        for shard_id in pending.removed_shard_ids:
            live = self.health.is_live(shard_id)
            holders = sorted(
                gid
                for (gid, sid) in self._replica_local
                if sid == shard_id
            )
            for gid in holders:
                self.replication.drop_replica(gid, shard_id, lost=not live)
                self.replication.repair(gid)
        for shard_id in pending.removed_shard_ids:
            shard = self._shard_by_id[shard_id]
            if self.health.is_live(shard_id) and shard.num_objects:
                raise RuntimeError(
                    f"shard {shard_id} still holds {shard.num_objects} "
                    "objects; it cannot detach"
                )
            # A dead shard detaches with its tombstone catalog entries;
            # every reachable copy was re-homed above or by migration.
            del self._shard_by_id[shard_id]
            self.health.forget(shard_id)
        pending._finished = True
        self._in_flight = None
        if journal_writes and self.journal is not None:
            self.journal.record_commit(pending.seq)
        if pending.rebuild_of is not None and self.obs.enabled:
            self.obs.event(
                "cluster.rebuild.commit",
                shard=pending.rebuild_of,
                seq=pending.seq,
                moved=len(pending.applied),
            )
            self.obs.set_gauge(
                "cluster.rebuild.progress", 1.0,
                shard=str(pending.rebuild_of),
            )
            self.obs.set_gauge(
                "cluster.shards.dead",
                len(self.health.shards_in(ShardHealth.DEAD)),
            )

    def abort_reshard(self, pending: PendingReshard) -> int:
        """Roll back a begun rebalance: migrated objects move home, the
        router and the shard list return to their pre-begin state.

        Returns the number of migrations reversed.  Afterwards the
        cluster routes exactly as before ``begin_reshard``.
        """
        self._check_pending(pending)
        reversed_count = 0
        if pending.rebuild_of is not None:
            reversed_count = self._reverse_rebuild(pending)
        else:
            for gid in reversed(pending.applied):
                original = next(
                    m for m in pending.moves if m.object_id == gid
                )
                self._migrate(
                    ObjectMove(gid, self._home[gid], original.source_shard),
                    journal_writes=False,
                    seq=pending.seq,
                )
                reversed_count += 1
            pending.applied.clear()
        if pending.rollback_payload is None:
            raise ValueError(
                "pending rebalance carries no rollback state (was it "
                "rebuilt by hand?)"
            )
        self.router = ShardRouter.from_payload(pending.rollback_payload)
        if pending.op.kind == "add":
            # Replicas repaired onto the doomed new shards mid-flight
            # must evacuate before the empty-shard check below.
            for gid, shard_id in sorted(
                (gid, sid)
                for (gid, sid) in self._replica_local
                if sid in set(pending.new_shard_ids)
            ):
                self.replication.drop_replica(gid, shard_id)
            for shard_id in pending.new_shard_ids:
                shard = self._shard_by_id.pop(shard_id)
                if shard.num_objects:
                    raise RuntimeError(
                        f"new shard {shard_id} still holds objects after "
                        "reversal; abort cannot drop it"
                    )
                self.health.forget(shard_id)
            self.shards = self.shards[: pending.shards_before]
            self._next_shard_id -= len(pending.new_shard_ids)
        else:
            # Reinsert the doomed shards at their original slots,
            # ascending so earlier insertions do not shift later ones.
            for slot, shard_id in sorted(
                zip(pending.op.removed, pending.removed_shard_ids)
            ):
                self.shards.insert(slot, self._shard_by_id[shard_id])
        if pending.rebuild_of is not None:
            # The shard is back on the slot table but still dead; a
            # fresh begin_shard_rebuild re-plans its evacuation.
            self.health.mark_dead(pending.rebuild_of)
        elif self.replication_factor > 1 or self.replication.policy is not None:
            # Final invariant sweep over everything that moved: the
            # reversal may have left copies on shards that just left
            # the cluster or domains that now collide.
            for gid in sorted({m.object_id for m in pending.moves}):
                self.replication.repair(gid)
        pending._finished = True
        self._in_flight = None
        if self.journal is not None:
            self.journal.record_abort(pending.seq)
        if self.obs.enabled:
            self.obs.event(
                "cluster.reshard.abort",
                seq=pending.seq,
                rolled_back=reversed_count,
            )
        return reversed_count

    def reshard(self, op: ScalingOp) -> PendingReshard:
        """Begin, fully execute, and finish one rebalance (offline path)."""
        pending = self.begin_reshard(op)
        self.execute_reshard(pending)
        self.finish_reshard(pending)
        return pending

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _spawn_shard(self) -> ShardNode:
        """Create, register, and append one template-built shard."""
        shard_id = self._next_shard_id
        self._next_shard_id += 1
        shard = _build_shard(
            shard_id,
            self.template,
            self.master_seed,
            self.obs.enabled,
            domain=_domain_label(shard_id, self.num_domains),
        )
        self.shards.append(shard)
        self._shard_by_id[shard_id] = shard
        return shard

    def _migrate(
        self, move: ObjectMove, journal_writes: bool, seq: int
    ) -> None:
        """Move one object between shards (ingest + drop + re-home).

        The ordinary path ingests the object on the target through the
        same throttleable session initial loads use; once every block
        lands, the source drops its copy — at no point is the object
        unreadable.  Two replication-aware variations:

        * when the target already holds a *replica* copy, that copy is
          **promoted** to primary instead of re-ingested (zero data
          movement, and no catalog-name collision on the target);
        * when the source shard is **dead**, the copy is sourced from a
          live replica (the dead shard's catalog entry stays behind as
          a tombstone); an object with no live copy at all is declared
          lost — accounted, journaled as applied, and dropped from the
          namespace so the rebalance can still complete.

        Live streams move with the object at their current playback
        position (table rows, see :meth:`_rehome`), and the object's
        replica invariants are repaired after the move.
        """
        gid = move.object_id
        source = self._shard_by_id[move.source_shard]
        target = self._shard_by_id[move.target_shard]
        target_id = target.shard_id
        if not self.health.is_live(target_id):
            raise ReplicationError(
                f"move target shard {target_id} is "
                f"{self.health.state(target_id).value}; abort the "
                "rebalance and rebuild it first"
            )
        source_live = self.health.is_live(move.source_shard)
        local = self._local[gid]

        if source_live:
            ref_media = source.server.catalog.get(local)
        elif target_id not in self._replica_home.get(gid, ()):
            live = [
                sid
                for sid in self._replica_home.get(gid, ())
                if self.health.is_live(sid)
            ]
            if not live:
                self._declare_lost(gid, move, journal_writes, seq)
                return
            ref_media = self._shard_by_id[live[0]].server.catalog.get(
                self._replica_local[(gid, live[0])]
            )

        if (gid, target_id) in self._replica_local:
            # Promotion: the target's replica copy becomes the primary.
            new_local = self._replica_local.pop((gid, target_id))
            self._replica_home[gid] = tuple(
                sid for sid in self._replica_home[gid] if sid != target_id
            )
            if not self._replica_home[gid]:
                del self._replica_home[gid]
            blocks_moved = 0
        else:
            session = IngestSession(
                target.server, ref_media.name, ref_media.num_blocks,
                blocks_per_round=ref_media.blocks_per_round,
            )
            session.run(ref_media.num_blocks)
            new_local = session.object_id
            blocks_moved = ref_media.num_blocks
        if source_live:
            source.server.remove_object(local)
        self._home[gid] = target_id
        self._local[gid] = new_local
        viewers = self._rehome_copy(source, local) if source_live else 0
        self.replication.repair(gid)

        if journal_writes and self.journal is not None:
            self.journal.record_apply(seq, gid)
        if self.obs.enabled:
            self.obs.event(
                "cluster.migrate",
                gid=gid,
                source=move.source_shard,
                target=move.target_shard,
                blocks=blocks_moved,
                streams=viewers,
            )

    def _declare_lost(
        self, gid: int, move: ObjectMove, journal_writes: bool, seq: int
    ) -> None:
        """Drop an unreachable object from the namespace (R=1 death).

        The loss is journaled as the move's apply record, so a resumed
        rebuild reaches the same verdict instead of retrying a
        migration that cannot succeed.  The dead shard's tombstone
        catalog entry stays behind — an abort restores the namespace
        entry from it.
        """
        tombstone = self._shard_by_id[move.source_shard].server.catalog.get(
            self._local[gid]
        )
        for sid in list(self._replica_home.get(gid, ())):
            self.replication.drop_replica(gid, sid, lost=True)
        stranded = self._stranded
        for stream_id in sorted(self._viewers.pop(gid, ())):
            del self._streams[stream_id]
            if stream_id in stranded:
                stranded.remove(stream_id)
        self.router.unregister([gid])
        del self._home[gid]
        del self._local[gid]
        del self._names[tombstone.name]
        self.replication.forget(gid)
        self.lost_objects += 1
        self.lost_blocks += tombstone.num_blocks
        if journal_writes and self.journal is not None:
            self.journal.record_apply(seq, gid)
        if self.obs.enabled:
            self.obs.event(
                "cluster.object.lost",
                gid=gid,
                shard=move.source_shard,
                blocks=tombstone.num_blocks,
            )

    def _reverse_rebuild(self, pending: PendingReshard) -> int:
        """Undo a rebuild's migrations by flipping homes back to the
        dead shard's tombstone catalog entries (no data moves — the
        dead shard never lost its bytes, only its reachability).

        Evacuated primaries are demoted back to replica copies where
        they landed; objects declared lost mid-rebuild re-enter the
        namespace from their tombstones.
        """
        dead_id = pending.rebuild_of
        assert dead_id is not None
        dead = self._shard_by_id[dead_id]
        reversed_count = 0
        for gid in reversed(pending.applied):
            tombstone_local = pending.source_locals[gid]
            tombstone = dead.server.catalog.get(tombstone_local)
            if gid in self._home:
                # Demote the evacuated primary back to a replica copy:
                # same bytes, same shard, just no longer the home.
                cur = self._home[gid]
                self._replica_home[gid] = (cur,) + self._replica_home.get(
                    gid, ()
                )
                self._replica_local[(gid, cur)] = self._local[gid]
            else:
                # Declared lost mid-rebuild: the tombstone was its last
                # copy, and it is the home again now.
                self._names[tombstone.name] = gid
                self.lost_objects -= 1
                self.lost_blocks -= tombstone.num_blocks
            self._home[gid] = dead_id
            self._local[gid] = tombstone_local
            reversed_count += 1
        pending.applied.clear()
        return reversed_count

    def _rehome(
        self, table: StreamTable, rows: np.ndarray
    ) -> tuple[int, int, int, int]:
        """Move the viewers at ``rows`` of ``table`` (live rows, in row
        order) — a dead shard's, or those of a copy leaving its shard —
        onto copies that can serve them, as table rows.

        Each title is routed once, through :meth:`route_read`, in the
        order its first viewer comes, and the route's demand unit and
        failover read are topped up to one per viewer (see
        :meth:`_route_titles`).  Targets follow the per-viewer rule in
        row order (see :class:`_Placement`); each target then takes its
        viewers, and :attr:`_stranded` the stranded ones, in one
        :meth:`~repro.server.streams.StreamTable.move`.  Viewers that
        played to their end depart, and so do streams admitted straight
        into the shard's scheduler (there is no title to route them by);
        the table then compacts if its vacant rows are due.

        Returns ``(moved, stranded, finished, dropped)``.
        """
        count = len(rows)
        if not count:
            return 0, 0, 0, 0
        finished, plays = table.handoff(rows)
        ids = np.fromiter(
            map(_stream_id, table.handles_at(rows)), dtype=np.int64, count=count
        )
        known = np.ones(count, dtype=bool)
        unknown = set(ids.tolist()).difference(self._streams)
        if unknown:
            known = ~np.isin(ids, np.fromiter(unknown, dtype=np.int64))
        going = np.flatnonzero(known & ~finished)
        titles, title_of, routes = self._route_titles(
            table.object_id.take(rows[going]), ids[going]
        )
        placement = _Placement(self, titles, routes)
        target = placement.decide(title_of, plays[going])

        stranded = going[target < 0]
        table.move(rows[stranded], [self._stranded])
        placed = np.flatnonzero(target >= 0)
        shards, dest_of = _group(target[placed])
        # One catalog entry per (target, title) pair.
        pairs, media_of = _group(dest_of * len(titles) + title_of[placed])
        table.move(
            rows[going[placed]],
            [self._shard_by_id[sid].scheduler.table for sid in shards.tolist()],
            dest_of,
            [
                placement.copy(t, shards.item(d))
                for d, t in zip(*(a.tolist() for a in np.divmod(pairs, len(titles))))
            ],
            media_of,
        )
        # Departures and compaction last: both renumber rows.
        for i in np.flatnonzero(~known | finished).tolist():
            if known[i]:
                self.depart_stream(ids.item(i))
            else:
                table.remove(ids.item(i))
        table.compact_if_due()
        if self.obs.enabled:
            for i, t in zip(stranded.tolist(), title_of[target < 0].tolist()):
                self.obs.event(
                    "cluster.stream.stranded",
                    stream=ids.item(i),
                    gid=titles.item(t),
                )
        dropped = count - int(np.count_nonzero(known))
        return (
            len(placed),
            len(stranded),
            count - len(going) - dropped,
            dropped,
        )

    def _rehome_copy(self, shard: ShardNode, local_id: int) -> int:
        """Move the viewers a live shard serves from one catalog entry
        (a copy leaving it) with :meth:`_rehome`; how many there were."""
        if shard._scheduler is None:
            return 0
        table = shard.scheduler.table
        return sum(self._rehome(table, table.live_rows(local_id)))

    def _route_titles(
        self, copies: np.ndarray, ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, list[tuple[tuple[int, ...], bool]]]:
        """Route moving viewers, once per title.

        ``copies`` holds each viewer's catalog entry on the shard it is
        leaving and ``ids`` its stream id, in row order.  Returns the
        titles' gids, each viewer's title index, and per title the
        shards to try in route order — the route's shard, then the
        copies after it; none when no copy can serve — and whether the
        route failed over.  :meth:`route_read` records one demand unit
        and, on a failover, one failover read per call; each title's
        viewers after the first are recorded here, through
        :meth:`~repro.cluster.popularity.DemandTracker.record_counts`,
        so the tracker's scores and the counters are those of one route
        per viewer, to the last bit.
        """
        _, title_of = _group(copies)
        first_at = np.full(title_of.max(initial=-1) + 1, len(title_of))
        np.minimum.at(first_at, title_of, np.arange(len(title_of)))
        titles = np.fromiter(
            (self._streams[ids.item(i)] for i in first_at.tolist()),
            dtype=np.int64,
            count=len(first_at),
        )
        routes: list[tuple[tuple[int, ...], bool]] = [((), False)] * len(titles)
        for t in np.argsort(first_at, kind="stable").tolist():
            gid = titles.item(t)
            try:
                route = self.route_read(gid)
            except ObjectUnavailableError:
                continue
            copies_of = (self._home[gid],) + self._replica_home.get(gid, ())
            routes[t] = (
                copies_of[copies_of.index(route.shard_id):],
                route.failed_over,
            )

        extra = np.bincount(title_of, minlength=len(titles)) - 1
        more = extra > 0
        if not more.any():
            return titles, title_of, routes
        tracker = self.replication.tracker
        if tracker is not None:
            tracker.record_counts(titles[more], extra[more])
            if self.obs.enabled:
                self.obs.inc("cluster.demand.units", int(extra[more].sum()))
        failed_over = sum(
            n for n, (_, over) in zip(extra.tolist(), routes) if over and n > 0
        )
        if failed_over:
            self.failover_reads += failed_over
            if self.obs.enabled:
                self.obs.inc("cluster.failover.reads", failed_over)
        return titles, title_of, routes

    def _copy_media(self, gid: int, shard_id: int) -> MediaObject:
        """The catalog entry of an object's copy on one shard."""
        server = self._shard_by_id[shard_id].server
        return server.catalog.get(self._local_id_on(gid, shard_id))

    def _check_shard_ops_quiescent(
        self, skip: Optional[set[int]] = None
    ) -> None:
        """Refuse a cluster rebalance while any live shard's own
        disk-level operation is open (strict journal layering: a shard
        mid-scale would interleave two journals' recovery stories)."""
        skip = skip if skip is not None else set()
        for shard in self._serving_shards():
            if shard.shard_id in skip:
                continue
            if not self.health.is_live(shard.shard_id):
                continue
            if shard.server._in_flight is not None:
                raise OperationInFlightError(
                    f"shard {shard.shard_id} has a disk-level operation "
                    "in flight; finish or abort it before a cluster "
                    "rebalance"
                )

    def _check_quiescent(self, what: str) -> None:
        if self._in_flight is not None:
            raise OperationInFlightError(
                f"{what} refused: rebalance seq={self._in_flight.seq} is "
                "in flight (the move plan was computed over the current "
                "object namespace)"
            )

    def _check_pending(self, pending: PendingReshard) -> None:
        if pending._finished:
            raise ValueError("this rebalance was already finished")
        if self._in_flight is not pending:
            raise ValueError(
                "this pending rebalance does not belong to this coordinator"
            )

    def close(self) -> None:
        """Close the journal files the cluster holds: the coordinator's
        own journal and every shard server's, draining shards included
        (a resumed cluster opened them from paths).  In-memory journals
        are unaffected, and a second call does nothing."""
        if self.journal is not None:
            self.journal.close()
        for shard in self._shard_by_id.values():
            if shard.server.journal is not None:
                shard.server.journal.close()

    def __repr__(self) -> str:
        return (
            f"ClusterCoordinator(router={self.router.policy.name!r}, "
            f"shards={self.num_shards}, objects={self.num_objects}, "
            f"blocks={self.total_blocks})"
        )


_stream_id = attrgetter("stream_id")


def _group(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Small non-negative ints grouped without a sort: the distinct
    values, ascending, and each value's index among them."""
    present = np.flatnonzero(np.bincount(values))
    index = np.zeros(present[-1] + 1 if len(present) else 0, dtype=np.int64)
    index[present] = np.arange(len(present))
    return present, index[values]


def _domain_label(shard_id: int, num_domains: Optional[int]) -> str:
    """The failure domain a shard id lands in under the cluster's
    striping rule (``None``: every shard is its own domain)."""
    if num_domains:
        return f"dom{shard_id % num_domains}"
    return f"dom{shard_id}"


def _build_shard(
    shard_id: int,
    template: ShardTemplate,
    master_seed: int,
    instrument: bool,
    domain: Optional[str] = None,
) -> ShardNode:
    """One template-built shard, optionally with its own obs handle."""
    from repro.obs import Obs

    return ShardNode.create(
        shard_id,
        template.num_disks,
        template.spec,
        bits=template.bits,
        backend=template.backend,
        master_seed=master_seed,
        obs=Obs() if instrument else None,
        domain=domain,
    )
