"""The CM server facade: catalog + placement backend + disk array.

Ties the pieces together the way the paper's system would run:

* loading an object places its blocks where the placement backend says
  (for SCADDAR: ``X0 mod N0`` plus any recorded REMAPs);
* ``scale()`` performs one scaling operation — backend first (its log is
  the source of truth), then the RF() plan, then the physical moves, then
  the topology change;
* lookups go through the backend only; the array's inventory is the
  simulated "ground truth" the integration tests check lookups against;
* when the Lemma 4.3 budget is spent, ``reshuffle()`` performs the full
  redistribution the paper prescribes: fresh seeds, fresh mapper, blocks
  moved to their new homes (SCADDAR backend only).

The placement layer is pluggable: any policy implementing the backend
API of :class:`~repro.placement.base.PlacementPolicy` (see
:mod:`repro.placement.backends`) drives the same scaling, migration,
journaling, and recovery machinery.  The default backend is
:class:`~repro.placement.backends.ScaddarBackend`, bit-identical to the
engine-direct code it replaced (``tests/test_backend_parity.py``).

Scaling can also be *begun* (plan computed, topology prepared) and
executed lazily by the online scaler (:mod:`repro.server.online`).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Optional, Union

import numpy as np

from repro.analysis.movement import optimal_move_fraction
from repro.core.engine import PlacementEngine
from repro.core.operations import ScalingOp
from repro.core.scaddar import ScaddarMapper
from repro.placement.backends import ScaddarBackend, make_backend
from repro.placement.base import PlacementPolicy
from repro.server.journal import LogicalMove, ReshuffleOp, ScalingJournal
from repro.server.objects import MediaObject, ObjectCatalog, x0_columns
from repro.storage.array import DiskArray
from repro.storage.block import Block, BlockId
from repro.storage.disk import DiskSpec
from repro.storage.migration import (
    MigrationPlan,
    MigrationSession,
    plan_physical_moves,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.obs import ObsHandle
    from repro.server.faults import MirroredPlacement
    from repro.server.locate import BackendBatchLocator
    from repro.server.watchdog import ExhaustionWatchdog


@dataclass
class ScaleReport:
    """Outcome of one completed scaling operation."""

    op: ScalingOp
    n_before: int
    n_after: int
    blocks_moved: int
    total_blocks: int
    optimal_fraction: Fraction

    @property
    def moved_fraction(self) -> float:
        """Observed fraction of all blocks moved."""
        return self.blocks_moved / self.total_blocks if self.total_blocks else 0.0

    @property
    def efficiency(self) -> float:
        """Movement efficiency: optimal over observed moved fraction.

        1.0 means RO1-optimal; below 1.0 the operation moved more blocks
        than the minimum.  Zero-move operations score 1.0 when nothing
        needed to move and 0.0 when the optimum says something did.
        """
        moved = self.moved_fraction
        if moved == 0.0:
            return 1.0 if self.optimal_fraction == 0 else 0.0
        return float(self.optimal_fraction) / moved


class OperationInFlightError(RuntimeError):
    """Raised when an operation cannot start because another scaling
    operation or reshuffle is still in flight on this server."""


@dataclass
class PendingScale:
    """A begun-but-not-finished scaling operation.

    The backend already reflects the new epoch and added disks are
    already attached; the caller owns executing ``plan`` (at whatever
    pace) and then calling :meth:`CMServer.finish_scale`.
    """

    op: ScalingOp
    n_before: int
    n_after: int
    plan: MigrationPlan
    removed_physicals: tuple[int, ...] = ()
    #: 1-based position of the operation in the backend's log — the
    #: correlation key between journal records and the operation.
    op_seq: int = 0
    #: Backend state captured before the operation (abort restores it).
    rollback_payload: Optional[dict] = field(default=None, repr=False)
    _finished: bool = field(default=False, repr=False)


@dataclass
class PendingReshuffle:
    """A begun-but-not-finished full redistribution.

    The backend and catalog already reflect the fresh-seeds era; the
    caller owns executing ``plan`` (at whatever pace — the online path
    interleaves it with serving rounds) and then calling
    :meth:`CMServer.finish_reshuffle`.
    """

    #: 1-based reshuffle count once this reset commits.
    epoch: int
    #: Disk count (unchanged by a reshuffle).
    n_disks: int
    plan: MigrationPlan
    #: Journal correlation key — reshuffle seqs are their own space.
    op_seq: int = 0
    _finished: bool = field(default=False, repr=False)

    @property
    def op(self) -> ReshuffleOp:
        """The journal-facing operation record."""
        return ReshuffleOp(epoch=self.epoch)


class CMServer:
    """A scalable continuous-media server with pluggable placement.

    Parameters
    ----------
    catalog:
        The object catalog (may be empty; objects can be loaded later).
    initial_specs:
        Disk specs of the initial group.
    bits:
        Random-number width ``b`` (bounds SCADDAR's operation budget).
    default_spec:
        Spec used for added disks when ``scale`` is not given explicit
        specs.
    backend:
        Placement backend: a registry name (``"scaddar"``,
        ``"jump_hash"``, ``"consistent_hash"``, ``"directory"``) or a
        ready :class:`~repro.placement.base.PlacementPolicy` instance
        whose disk count matches ``initial_specs``.
    obs:
        Optional observability handle (:class:`repro.obs.Obs`; default
        no-op).  Scaling operations run under ``scale.plan`` /
        ``scale.apply`` / ``scale.commit`` spans with ``scale.begin`` /
        ``scale.commit`` / ``scale.abort`` events, bulk lookups are
        timed into ``backend.locate.seconds`` (labelled by backend), and
        the handle is forwarded to the backend (engine cache counters).

    Examples
    --------
    >>> server = CMServer(ObjectCatalog(bits=32), [DiskSpec()] * 4, bits=32)
    >>> server.num_disks
    4
    """

    def __init__(
        self,
        catalog: ObjectCatalog,
        initial_specs: list[DiskSpec],
        bits: int = 64,
        default_spec: Optional[DiskSpec] = None,
        journal: Optional[ScalingJournal] = None,
        backend: Union[str, PlacementPolicy] = "scaddar",
        obs: Optional["ObsHandle"] = None,
    ):
        from repro.obs import NULL_OBS

        if catalog.bits != bits:
            raise ValueError(
                f"catalog bit width {catalog.bits} != server bit width {bits}; "
                "the backend and the sequences must agree on R"
            )
        if isinstance(backend, str):
            backend = make_backend(backend, n0=len(initial_specs), bits=bits)
        if backend.current_disks != len(initial_specs):
            raise ValueError(
                f"backend expects {backend.current_disks} disks but "
                f"{len(initial_specs)} specs were given"
            )
        self.catalog = catalog
        self.array = DiskArray(initial_specs)
        self.backend = backend
        self.default_spec = default_spec or initial_specs[0]
        self.journal = journal
        self.obs = obs if obs is not None else NULL_OBS
        self.backend.attach_obs(self.obs)
        if journal is not None:
            journal.attach_obs(self.obs)
        #: object id -> the object's ``X0`` column (``uint64``, one entry
        #: per block index), kept from placement; a missing entry is
        #: recomputed from the catalog by :meth:`x0_column`.
        self.x0_cache: dict[int, np.ndarray] = {}
        self.reshuffles = 0
        self._in_flight: Union[PendingScale, PendingReshuffle, None] = None
        self.watchdog: Optional["ExhaustionWatchdog"] = None
        self._place_objects(list(catalog))

    @classmethod
    def from_backend(
        cls,
        catalog: ObjectCatalog,
        backend: PlacementPolicy,
        current_specs: list[DiskSpec],
        default_spec: Optional[DiskSpec] = None,
    ) -> "CMServer":
        """Rebuild a server from a restored backend.

        ``current_specs`` describes the disks of the *current* epoch (one
        per logical index, ``len == backend.current_disks``); blocks are
        placed where the backend's restored state says they belong — the
        paper's claim that the persistent placement state fully
        determines the layout, generalized to every backend.
        """
        if len(current_specs) != backend.current_disks:
            raise ValueError(
                f"backend expects {backend.current_disks} disks but "
                f"{len(current_specs)} specs were given"
            )
        from repro.obs import NULL_OBS

        server = cls.__new__(cls)
        server.catalog = catalog
        server.array = DiskArray(current_specs)
        server.backend = backend
        server.default_spec = default_spec or current_specs[0]
        server.journal = None
        server.obs = NULL_OBS
        server.x0_cache = {}
        server.reshuffles = 0
        server._in_flight = None
        server.watchdog = None
        server._place_objects(list(catalog))
        return server

    @classmethod
    def from_state(
        cls,
        catalog: ObjectCatalog,
        mapper: ScaddarMapper,
        current_specs: list[DiskSpec],
        default_spec: Optional[DiskSpec] = None,
    ) -> "CMServer":
        """Rebuild a SCADDAR server from restored state (seeds + op log)."""
        return cls.from_backend(
            catalog,
            ScaddarBackend.from_mapper(mapper),
            current_specs,
            default_spec=default_spec,
        )

    def attach_journal(self, journal: ScalingJournal) -> None:
        """Route subsequent scaling operations through a journal."""
        self.journal = journal
        journal.attach_obs(self.obs)

    def attach_obs(self, obs: "ObsHandle") -> None:
        """Attach an observability handle after construction.

        Forwards it to the backend (engine counters) and any attached
        journal, so one handle sees the whole server.
        """
        self.obs = obs
        self.backend.attach_obs(obs)
        if self.journal is not None:
            self.journal.attach_obs(obs)

    # ------------------------------------------------------------------
    # SCADDAR-specific views (raise for other backends)
    # ------------------------------------------------------------------
    @property
    def mapper(self) -> ScaddarMapper:
        """The SCADDAR mapper (budget queries, mirroring, bit-exact
        scalar reference).  Raises for backends without one."""
        mapper = getattr(self.backend, "mapper", None)
        if not isinstance(mapper, ScaddarMapper):
            raise AttributeError(
                f"backend {self.backend.name!r} has no SCADDAR mapper"
            )
        return mapper

    @property
    def engine(self) -> PlacementEngine:
        """The SCADDAR batched engine.  Raises for other backends."""
        engine = getattr(self.backend, "engine", None)
        if engine is None:
            raise AttributeError(
                f"backend {self.backend.name!r} has no placement engine"
            )
        return engine

    def mirrored(self) -> "MirroredPlacement":
        """Section 6 offset mirroring over the live mapper.

        The degraded-serving stack's failover source; raises
        ``AttributeError`` for backends without a SCADDAR mapper (the
        offset scheme is a function of the mapper's arithmetic).
        """
        from repro.server.faults import MirroredPlacement

        return MirroredPlacement(self.mapper)

    # ------------------------------------------------------------------
    # Catalog / placement
    # ------------------------------------------------------------------
    @property
    def num_disks(self) -> int:
        """Current disk count ``Nj``."""
        return self.array.num_disks

    @property
    def total_blocks(self) -> int:
        """Blocks resident on the array."""
        return self.array.total_blocks

    def add_object(
        self, name: str, num_blocks: int, blocks_per_round: int = 1
    ) -> MediaObject:
        """Register a new object and place all its blocks."""
        media = self.catalog.add_object(name, num_blocks, blocks_per_round)
        self._place_objects([media])
        return media

    def remove_object(self, object_id: int) -> None:
        """Drop an object and free its blocks.

        Only resident blocks are dropped, so an object still being
        ingested (:class:`~repro.server.ingest.IngestSession`) can be
        removed; its session then refuses further writes.
        """
        media = self.catalog.remove_object(object_id)
        self.array.drop_object(object_id)
        self.x0_cache.pop(object_id, None)
        self.backend.unregister(
            BlockId(object_id, index) for index in range(media.num_blocks)
        )

    def block_location(self, object_id: int, index: int) -> int:
        """Physical disk of a block, computed (not looked up).

        This is the retrieval path — for SCADDAR a chain of mod/div steps
        over the block's ``X0`` plus one logical->physical translation;
        the block inventory is never consulted.
        """
        x0 = self.block_x0(object_id, index)
        return self.array.physical_at(
            self.backend.locate_one(BlockId(object_id, index), x0)
        )

    def block_locations(self, object_id: int) -> list[int]:
        """Whole-object lookup: physical disk of every block, in index
        order, computed in one batched pass.

        This is the bulk retrieval path for the scheduler/streams layer
        (a stream touches an object's blocks in playback order): one
        :meth:`~repro.placement.base.PlacementPolicy.locate_batch` call
        instead of ``num_blocks`` scalar chains (:meth:`computed_homes`
        for many objects at once).
        """
        return self.computed_homes([self.catalog.get(object_id)]).tolist()

    def computed_homes(self, objects: list[MediaObject]) -> np.ndarray:
        """Physical home of every block of ``objects``, objects back to
        back (blocks by index), in one batched placement pass over their
        ``X0`` columns — the audit's bulk path (``fsck``)."""
        x0s = self._columns(objects)
        ids = _object_ids(objects) if self.backend.requires_ids else None
        table = np.asarray(self.array.physical_ids, dtype=np.int64)
        with self.obs.timer("backend.locate.seconds", backend=self.backend.name):
            return table[self.backend.locate_batch(ids, x0s)]

    def computed_locator(self) -> "Callable[[BlockId], int]":
        """A scalar ``BlockId -> physical`` locator that *computes*
        placement through the backend (:meth:`block_location`), never
        consulting the inventory — the serving-path contract the paper
        argues for.  Pair with :meth:`computed_batch_locator` so the
        scalar and batched paths resolve identically.
        """

        def locate(block_id: BlockId) -> int:
            return self.block_location(block_id.object_id, block_id.index)

        return locate

    def computed_batch_locator(self) -> "BackendBatchLocator":
        """A :class:`~repro.server.locate.BackendBatchLocator` resolving
        whole rounds through the backend's vectorized kernel.

        Assumes the inventory agrees with the computed placement (no
        scaling operation mid-flight), exactly like
        :meth:`block_location`.
        """
        from repro.server.locate import BackendBatchLocator

        return BackendBatchLocator(self)

    def locate_blocks(self, blocks: list[Block]) -> list[int]:
        """Current *logical* disk of each block, batched.

        The write path's lookup (ingest writes blocks to wherever the
        backend currently places them); blocks must already be
        registered with the backend (:meth:`register_media`).
        """
        x0s = np.fromiter(
            (block.x0 for block in blocks), dtype=np.uint64, count=len(blocks)
        )
        ids = (
            [block.block_id for block in blocks]
            if self.backend.requires_ids
            else None
        )
        with self.obs.timer("backend.locate.seconds", backend=self.backend.name):
            return self.backend.locate_batch(ids, x0s).tolist()

    def register_media(self, media: MediaObject) -> None:
        """Introduce an object's blocks to the backend without placing
        them (the incremental-ingest path writes them over rounds)."""
        x0s = media.x0_column()
        self.x0_cache[media.object_id] = x0s
        self.backend.register(_blocks([media], x0s))

    def load_vector(self) -> list[int]:
        """Blocks per disk in logical order (the evaluation's raw data)."""
        return self.array.load_vector()

    # ------------------------------------------------------------------
    # Scaling
    # ------------------------------------------------------------------
    def scale(
        self,
        op: ScalingOp,
        specs: Optional[list[DiskSpec]] = None,
        eps: Optional[float] = None,
    ) -> ScaleReport:
        """Perform one scaling operation, moving blocks immediately.

        ``eps`` (when given) enforces the backend's fairness budget
        (SCADDAR's Lemma 4.3): the operation raises
        :class:`~repro.core.errors.RandomnessExhaustedError` instead of
        degrading fairness past the tolerance.
        """
        pending = self.begin_scale(op, specs=specs, eps=eps)
        session = MigrationSession(
            self.array,
            pending.plan,
            journal=self.journal,
            op_seq=pending.op_seq,
            obs=self.obs,
        )
        with self.obs.span(
            "scale.apply", seq=pending.op_seq, moves=len(pending.plan)
        ):
            while not session.done:
                # Unthrottled execution: a budget covering every endpoint.
                session.step(len(pending.plan))
        self.finish_scale(pending)
        return ScaleReport(
            op=op,
            n_before=pending.n_before,
            n_after=pending.n_after,
            blocks_moved=len(pending.plan),
            total_blocks=self.total_blocks,
            optimal_fraction=optimal_move_fraction(op, pending.n_before),
        )

    def begin_scale(
        self,
        op: ScalingOp,
        specs: Optional[list[DiskSpec]] = None,
        eps: Optional[float] = None,
    ) -> PendingScale:
        """Start a scaling operation: update the backend, attach any new
        disks, and compute the RF() migration plan — without moving data.

        For removals the doomed disks stay attached (and readable) until
        :meth:`finish_scale`; their blocks drain via the plan.

        When an exhaustion watchdog is attached
        (:meth:`attach_watchdog`), it vets the operation first — warning,
        refusing, or auto-reshuffling per its thresholds.
        """
        if isinstance(self._in_flight, PendingReshuffle):
            raise OperationInFlightError(
                f"reshuffle epoch={self._in_flight.epoch} is still in "
                "flight; finish it before scaling"
            )
        if self.watchdog is not None:
            self.watchdog.before_scale(op)
        with self.obs.span("scale.plan", kind=op.kind, count=op.count):
            pending = self._begin_scale(op, specs, eps)
        if self.obs.enabled:
            self.obs.event(
                "scale.begin",
                seq=pending.op_seq,
                kind=op.kind,
                count=op.count,
                n_before=pending.n_before,
                n_after=pending.n_after,
                moves=len(pending.plan),
            )
        return pending

    def _begin_scale(
        self,
        op: ScalingOp,
        specs: Optional[list[DiskSpec]],
        eps: Optional[float],
    ) -> PendingScale:
        n_before = self.num_disks
        if op.kind == "add":
            group = specs if specs is not None else [self.default_spec] * op.count
            if len(group) != op.count:
                raise ValueError(
                    f"operation adds {op.count} disks but {len(group)} specs given"
                )
            removed_physicals: tuple[int, ...] = ()
        else:
            if specs is not None:
                raise ValueError("specs are only meaningful for additions")
            removed_physicals = tuple(
                self.array.physical_at(logical) for logical in op.removed
            )

        rollback_payload = self.backend.state_payload()
        object_ids, block_indices, x0s, homes = self.resident_blocks()
        ids = (
            _ids(object_ids, block_indices) if self.backend.requires_ids else None
        )
        indices, targets = self.backend.plan_moves(op, ids, x0s, eps=eps)

        if op.kind == "add":
            self.array.add_group(group)
            target_table = list(self.array.physical_ids)
        else:
            target_table = self.array.survivors_after_removal(op.removed)

        plan = plan_physical_moves(
            object_ids[indices],
            block_indices[indices],
            homes[indices],
            np.asarray(target_table, dtype=np.int64)[targets],
        )
        pending = PendingScale(
            op=op,
            n_before=n_before,
            n_after=self.backend.current_disks,
            plan=plan,
            removed_physicals=removed_physicals,
            op_seq=self.backend.num_operations,
            rollback_payload=rollback_payload,
        )
        self._in_flight = pending
        if self.journal is not None:
            # Logical endpoints (pre-detach indexing) — physical ids are
            # process-local and would not survive a restart.
            logical = {pid: i for i, pid in enumerate(self.array.physical_ids)}
            self.journal.record_begin(
                seq=pending.op_seq,
                op=op,
                n_before=n_before,
                n_after=pending.n_after,
                moves=[
                    LogicalMove(
                        block_id=m.block_id,
                        source_logical=logical[m.source_physical],
                        target_logical=logical[m.target_physical],
                    )
                    for m in plan.moves
                ],
            )
        return pending

    def finish_scale(self, pending: PendingScale) -> None:
        """Complete a begun operation (detach drained disks, if any)."""
        if pending._finished:
            raise ValueError("this scaling operation was already finished")
        with self.obs.span("scale.commit", seq=pending.op_seq):
            if pending.op.kind == "remove":
                self.array.remove_group(pending.op.removed)
            pending._finished = True
            if self._in_flight is pending:
                self._in_flight = None
            if self.journal is not None:
                self.journal.record_commit(pending.op_seq)
        if self.obs.enabled:
            self.obs.event(
                "scale.commit", seq=pending.op_seq, n_after=pending.n_after
            )

    def abort_scale(
        self,
        pending: PendingScale,
        session: Optional[MigrationSession] = None,
    ) -> int:
        """Roll back a begun-but-unfinished scaling operation.

        Moves already executed (tracked by the session) are reversed,
        disks attached by an addition are detached, and the backend is
        restored to its pre-operation state — afterwards the server is
        bit-identical to its pre-``begin_scale`` state.  Returns the
        number of moves rolled back.

        Raises
        ------
        ValueError
            If the operation was already finished, or the backend's last
            logged operation is not ``pending.op`` (something else ran in
            between — rollback would corrupt the log).
        """
        if pending._finished:
            raise ValueError("this scaling operation was already finished")
        ops = self.backend.log.operations
        if pending.op_seq != len(ops) or ops[-1] != pending.op:
            raise ValueError(
                f"cannot abort operation seq={pending.op_seq}: the log has "
                f"{len(ops)} operations and ends with {ops[-1] if ops else None}"
            )
        if pending.rollback_payload is None:
            raise ValueError(
                "pending operation carries no rollback state (was it "
                "rebuilt by hand?)"
            )
        with self.obs.span("scale.abort", seq=pending.op_seq):
            executed = list(session.executed) if session is not None else []
            for move in reversed(executed):
                self.array.move(move.block_id, move.source_physical)
            if pending.op.kind == "add":
                added = list(range(pending.n_before, self.array.num_disks))
                self.array.remove_group(added)
            self.backend = type(self.backend).from_payload(
                pending.rollback_payload
            )
            self.backend.attach_obs(self.obs)
            pending._finished = True
            if self._in_flight is pending:
                self._in_flight = None
            if self.journal is not None:
                self.journal.record_abort(pending.op_seq)
        if self.obs.enabled:
            self.obs.event(
                "scale.abort", seq=pending.op_seq, rolled_back=len(executed)
            )
        return len(executed)

    def replace_disk(
        self,
        logical: int,
        spec: Optional[DiskSpec] = None,
        eps: Optional[float] = None,
    ) -> tuple[ScaleReport, ScaleReport]:
        """Swap the disk at a logical index for a new one.

        The paper's upgrade scenario ("these existing disks may
        eventually need to be replaced", Section 1) as one call: add the
        replacement (blocks rebalance onto it), then remove the old disk
        (its blocks drain to survivors) — two scaling operations, so two
        entries of the Lemma 4.3 budget.

        Returns the (addition, removal) reports.
        """
        self.array.physical_at(logical)  # bounds check before mutating
        add_report = self.scale(
            ScalingOp.add(1), specs=[spec or self.default_spec], eps=eps
        )
        remove_report = self.scale(ScalingOp.remove([logical]), eps=eps)
        return add_report, remove_report

    def reshuffle(self) -> int:
        """Full redistribution: fresh seeds, fresh backend state, all
        blocks replaced by their new placement.  Returns blocks moved.

        This is the paper's recommended action once Lemma 4.3's budget is
        exhausted; afterwards the operation budget is reset.  Routed
        through the journaled path (:meth:`begin_reshuffle` /
        :meth:`finish_reshuffle`), so with a journal attached a crash at
        any move index resumes cleanly; the moves themselves execute
        immediately (the offline path).  Raises
        :class:`~repro.core.errors.UnsupportedOperationError` for
        backends without a reshuffle lifecycle and
        :class:`OperationInFlightError` when a migration is in flight
        (the historical bug: resetting seeds mid-migration corrupted the
        half-moved layout).
        """
        pending = self.begin_reshuffle()
        session = MigrationSession(
            self.array,
            pending.plan,
            journal=self.journal,
            op_seq=pending.op_seq,
            obs=self.obs,
        )
        with self.obs.span(
            "reshuffle.apply", epoch=pending.epoch, moves=len(pending.plan)
        ):
            while not session.done:
                session.step(len(pending.plan))
        self.finish_reshuffle(pending)
        return len(pending.plan)

    def begin_reshuffle(self) -> PendingReshuffle:
        """Start a full redistribution without moving data.

        Resets the backend and re-seeds every object (the fresh-seeds
        era), computes the complete move plan to the new placement, and
        journals the intent — the caller executes the plan (at whatever
        pace) and calls :meth:`finish_reshuffle`.  Serving continues
        throughout: the array inventory still answers old locations for
        blocks whose move has not landed, exactly as mid-migration.

        Raises
        ------
        OperationInFlightError
            When a scaling operation or another reshuffle is in flight —
            the reset would re-seed objects whose blocks are half-moved.
        UnsupportedOperationError
            For backends without a reshuffle lifecycle (raised before
            any state is touched).
        """
        if self._in_flight is not None:
            raise OperationInFlightError(
                f"cannot reshuffle: {type(self._in_flight).__name__} "
                "is still in flight; finish or abort it first"
            )
        # Backend first: refuses (pre-mutation) for non-reshufflable
        # policies, so catalog seeds are never touched on the error path.
        self.backend.reshuffle()
        self.catalog.reseed_all()
        objects = list(self.catalog)
        columns = x0_columns(objects)
        self._keep_columns(objects, columns)
        self.backend.register(_blocks(objects, columns))
        object_ids, block_indices, x0s, homes = self.resident_blocks()
        ids = (
            _ids(object_ids, block_indices) if self.backend.requires_ids else None
        )
        table = list(self.array.physical_ids)
        plan = plan_physical_moves(
            object_ids,
            block_indices,
            homes,
            np.asarray(table, dtype=np.int64)[self.backend.locate_batch(ids, x0s)],
        )
        pending = PendingReshuffle(
            epoch=self.reshuffles + 1,
            n_disks=self.num_disks,
            plan=plan,
            op_seq=self.reshuffles + 1,
        )
        self._in_flight = pending
        if self.journal is not None:
            logical = {pid: i for i, pid in enumerate(table)}
            self.journal.record_begin(
                seq=pending.op_seq,
                op=pending.op,
                n_before=self.num_disks,
                n_after=self.num_disks,
                moves=[
                    LogicalMove(
                        block_id=m.block_id,
                        source_logical=logical[m.source_physical],
                        target_logical=logical[m.target_physical],
                    )
                    for m in plan.moves
                ],
            )
        if self.obs.enabled:
            self.obs.event(
                "reshuffle.begin",
                epoch=pending.epoch,
                disks=self.num_disks,
                moves=len(plan),
            )
        return pending

    def finish_reshuffle(self, pending: PendingReshuffle) -> None:
        """Complete a begun reshuffle: bump the epoch and journal commit."""
        if pending._finished:
            raise ValueError("this reshuffle was already finished")
        pending._finished = True
        self.reshuffles += 1
        if self._in_flight is pending:
            self._in_flight = None
        if self.journal is not None:
            self.journal.record_commit(pending.op_seq)
        if self.obs.enabled:
            self.obs.event("reshuffle.commit", epoch=pending.epoch)

    def attach_watchdog(self, watchdog: "ExhaustionWatchdog") -> None:
        """Vet every future :meth:`begin_scale` through a budget watchdog
        (:mod:`repro.server.watchdog`)."""
        self.watchdog = watchdog

    def needs_reshuffle(self, eps: float) -> bool:
        """Whether the recorded operations already exceed tolerance."""
        return self.backend.needs_reshuffle(eps)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _place_objects(self, objects: list[MediaObject]) -> None:
        """Place whole objects with one ``X0`` pass, one batched
        placement pass and one bulk write to the array."""
        if not objects:
            return
        x0s = x0_columns(objects)
        self._keep_columns(objects, x0s)
        self.backend.register(_blocks(objects, x0s))
        ids = _object_ids(objects) if self.backend.requires_ids else None
        self.array.place_objects(
            [media.object_id for media in objects],
            [media.num_blocks for media in objects],
            x0s,
            self.backend.locate_batch(ids, x0s),
        )

    def _keep_columns(self, objects: list[MediaObject], x0s: np.ndarray) -> None:
        """Keep each object's slice of ``x0s`` as its ``X0`` column."""
        start = 0
        for media in objects:
            end = start + media.num_blocks
            self.x0_cache[media.object_id] = x0s[start:end]
            start = end

    def _columns(self, objects: list[MediaObject]) -> np.ndarray:
        """The ``X0`` columns of ``objects``, back to back."""
        if not objects:
            return np.empty(0, dtype=np.uint64)
        return np.concatenate([self.x0_column(m.object_id) for m in objects])

    def resident_blocks(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every resident block of a catalog object as columns — object
        id, block index, ``X0`` and physical home — objects in catalog
        order, blocks by index: the population a scaling or reshuffle
        plan batches (O(objects) Python, O(blocks) array work)."""
        objects = list(self.catalog)
        lengths = [media.num_blocks for media in objects]
        owners = np.array([media.object_id for media in objects], dtype=np.int64)
        homes = self.array.home_columns(owners.tolist(), lengths)
        resident = np.flatnonzero(homes >= 0)
        starts = np.cumsum(lengths, dtype=np.int64) - lengths
        return (
            np.repeat(owners, lengths)[resident],
            resident - np.repeat(starts, lengths)[resident],
            self._columns(objects)[resident],
            homes[resident],
        )

    def x0_column(self, object_id: int) -> np.ndarray:
        """An object's ``X0`` column (``uint64``, one entry per block
        index), computed from the catalog's seeded sequence the first
        time it is needed and kept in :attr:`x0_cache`."""
        column = self.x0_cache.get(object_id)
        if column is None:
            column = self.catalog.get(object_id).x0_column()
            self.x0_cache[object_id] = column
        return column

    def block_x0(self, object_id: int, index: int) -> int:
        """A block's placement number ``X0`` (public read-path accessor).

        The degraded read planner computes mirror/parity locations from
        it; read from the object's ``X0`` column.
        """
        column = self.x0_column(object_id)
        if not 0 <= index < column.shape[0]:
            raise IndexError(
                f"block {index} out of 0..{column.shape[0] - 1} "
                f"for object {object_id}"
            )
        return column.item(index)

    def __repr__(self) -> str:
        return (
            f"CMServer(backend={self.backend.name!r}, disks={self.num_disks}, "
            f"objects={len(self.catalog)}, blocks={self.total_blocks}, "
            f"operations={self.backend.num_operations})"
        )


def _blocks(objects: list[MediaObject], x0s: np.ndarray) -> Iterator[Block]:
    """``Block`` records, made as they are consumed, for objects whose
    ``X0``s lie back to back in ``x0s`` (the backends' registration
    input; the computed policies never read it)."""
    values = iter(x0s.tolist())
    for media in objects:
        for index in range(media.num_blocks):
            yield Block(media.object_id, index, next(values))


def _object_ids(objects: list[MediaObject]) -> list[BlockId]:
    """Every block id of ``objects``, objects back to back, blocks by
    index."""
    return [
        BlockId(media.object_id, index)
        for media in objects
        for index in range(media.num_blocks)
    ]


def _ids(object_ids: np.ndarray, block_indices: np.ndarray) -> list[BlockId]:
    """Block ids from an object-id column and a block-index column."""
    return [
        BlockId(oid, index)
        for oid, index in zip(object_ids.tolist(), block_indices.tolist())
    ]
