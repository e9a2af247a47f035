"""Server state persistence and crash recovery.

The paper's storage argument (Section 1): SCADDAR needs "only a storage
structure for recording scaling operations" plus the per-object seeds.
This module makes that literal — a snapshot is a small JSON document
(object seeds + placement-backend state + disk specs) and restoring it
reproduces every block location bit-exactly
(``tests/test_persistence.py``).

Since version 3 a snapshot records its placement backend explicitly —
``{"backend": {"name": ..., "payload": ...}}`` — so any registered
backend (:data:`repro.placement.backends.BACKENDS`) round-trips through
the same machinery.  For SCADDAR the payload is the operation log plus
the bit width, keeping the snapshot O(objects + operations + disks); the
directory baseline's payload is O(blocks), which is exactly the Appendix
A storage complaint made measurable.  Version 1/2 snapshots predate the
backend field and are still read (always as SCADDAR).

Snapshots capture *quiescent* state.  The mid-migration gap is covered
by the scaling journal (:mod:`repro.server.journal`):
:func:`resume_server` combines a snapshot with the journal written since
it was taken and reconstructs the exact moment of the crash — committed
operations are replayed wholesale, aborted ones skipped, and an open one
is rebuilt into a live :class:`~repro.storage.migration.MigrationSession`
holding precisely the moves that had not yet landed.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.core.operations import OperationLog
from repro.core.scaddar import ScaddarMapper
from repro.placement.backends import (
    ScaddarBackend,
    UnknownBackendError,
    backend_from_payload,
)
from repro.server.cmserver import CMServer, PendingReshuffle, PendingScale
from repro.server.journal import (
    JournalError,
    OpJournalRecord,
    ReshuffleOp,
    ScalingJournal,
)
from repro.server.objects import MediaObject, ObjectCatalog
from repro.storage.disk import DiskSpec
from repro.storage.migration import MigrationPlan, MigrationSession

#: Snapshot format version, bumped on incompatible layout changes.
#: Version 4 records the catalog's seed epoch (so a restored server's
#: *next* reshuffle derives the same seeds the crashed one would have);
#: version 3 records the placement backend (name + payload); version 2
#: added the explicit operation-count stamp and the journal pointer.
#: Versions 1..3 are still read (1/2 always as SCADDAR; 3 infers the
#: seed epoch from the reshuffle count, which is how it advanced).
SNAPSHOT_VERSION = 4


class SnapshotError(ValueError):
    """Raised when a snapshot cannot be restored.

    Unknown versions, unregistered backends, internal inconsistencies —
    anything that means "this document does not describe a server this
    build can rebuild" (as opposed to a crash artifact, which is the
    journal's domain and raises :class:`JournalError`).
    """


def snapshot_server(server: CMServer) -> dict:
    """Serialize a server to a JSON-compatible dict.

    O(backend payload): for SCADDAR that is O(objects + operations +
    disks) — never O(blocks); the directory backend's payload is the
    directory itself.
    """
    journal = getattr(server, "journal", None)
    return {
        "version": SNAPSHOT_VERSION,
        "bits": server.catalog.bits,
        "reshuffles": server.reshuffles,
        # v4: the seed-derivation epoch — replaying a journaled reshuffle
        # after restore must re-derive the exact seeds the crashed
        # process derived.
        "seed_epoch": server.catalog._seed_epoch,
        # Explicit op-count stamp (cross-checked on restore) and the
        # journal pointer, so an operator can find the records written
        # after this snapshot.
        "snapshot_ops": server.backend.num_operations,
        "journal_path": (
            str(journal.path)
            if journal is not None and journal.path is not None
            else None
        ),
        # v3: the placement backend's identity — name keys the registry,
        # payload is whatever that backend needs to restore bit-exactly.
        "backend": {
            "name": server.backend.name,
            "payload": server.backend.state_payload(),
        },
        "catalog": {
            "master_seed": server.catalog.master_seed,
            "bits": server.catalog.bits,
            "family": server.catalog.family,
            "objects": [
                {
                    "object_id": media.object_id,
                    "name": media.name,
                    "num_blocks": media.num_blocks,
                    "seed": media.seed,
                    "blocks_per_round": media.blocks_per_round,
                }
                for media in server.catalog
            ],
        },
        "operation_log": json.loads(server.backend.log.to_json()),
        "disks": [
            {
                "capacity_blocks": disk.capacity_blocks,
                "bandwidth_blocks_per_round": disk.bandwidth_blocks_per_round,
                "model": disk.model,
            }
            for disk in (
                server.array.disk(pid) for pid in server.array.physical_ids
            )
        ],
        "default_spec": {
            "capacity_blocks": server.default_spec.capacity_blocks,
            "bandwidth_blocks_per_round": (
                server.default_spec.bandwidth_blocks_per_round
            ),
            "model": server.default_spec.model,
        },
    }


def server_to_json(server: CMServer) -> str:
    """Snapshot a server to a JSON string."""
    return json.dumps(snapshot_server(server))


def restore_server(snapshot: dict | str) -> CMServer:
    """Rebuild a server from a snapshot; block layout is bit-identical.

    Raises
    ------
    SnapshotError
        On unknown snapshot versions, backends this build does not
        register, or an internally inconsistent snapshot (the backend's
        final disk count must equal the number of recorded disk specs —
        a mismatch would silently build a server whose lookups disagree
        with its disks).
    """
    data = json.loads(snapshot) if isinstance(snapshot, str) else snapshot
    version = data.get("version")
    if version not in (1, 2, 3, SNAPSHOT_VERSION):
        raise SnapshotError(
            f"unsupported snapshot version {version!r}; "
            f"this build reads versions 1..{SNAPSHOT_VERSION}"
        )

    catalog_data = data["catalog"]
    objects = {
        entry["object_id"]: MediaObject(
            object_id=entry["object_id"],
            name=entry["name"],
            num_blocks=entry["num_blocks"],
            seed=entry["seed"],
            bits=catalog_data["bits"],
            family=catalog_data["family"],
            blocks_per_round=entry["blocks_per_round"],
        )
        for entry in catalog_data["objects"]
    }
    catalog = ObjectCatalog(
        master_seed=catalog_data["master_seed"],
        bits=catalog_data["bits"],
        family=catalog_data["family"],
        _objects=objects,
        _next_id=max(objects, default=-1) + 1,
        # Pre-v4 snapshots: the epoch advanced exactly once per
        # reshuffle (reseed_all's only caller), so the count infers it.
        _seed_epoch=data.get("seed_epoch", data["reshuffles"]),
    )

    backend = _restore_backend(data, version)
    if len(data["disks"]) != backend.current_disks:
        raise SnapshotError(
            "snapshot inconsistent: backend state ends at "
            f"{backend.current_disks} disks but {len(data['disks'])} disk "
            "specs are recorded"
        )
    if version >= 2 and data.get("snapshot_ops") != backend.num_operations:
        raise SnapshotError(
            f"snapshot inconsistent: stamped with {data.get('snapshot_ops')} "
            f"operations but the backend state holds {backend.num_operations}"
        )

    specs = [
        DiskSpec(
            capacity_blocks=entry["capacity_blocks"],
            bandwidth_blocks_per_round=entry["bandwidth_blocks_per_round"],
            model=entry["model"],
        )
        for entry in data["disks"]
    ]
    default = data["default_spec"]
    server = CMServer.from_backend(
        catalog,
        backend,
        specs,
        default_spec=DiskSpec(
            capacity_blocks=default["capacity_blocks"],
            bandwidth_blocks_per_round=default["bandwidth_blocks_per_round"],
            model=default["model"],
        ),
    )
    server.reshuffles = data["reshuffles"]
    return server


def _restore_backend(data: dict, version: int):
    """Build the placement backend a snapshot describes.

    Version 1/2 snapshots predate the backend field: they are SCADDAR by
    construction, restored by replaying the recorded operation log.
    """
    if version < 3:
        log = OperationLog.from_json(json.dumps(data["operation_log"]))
        mapper = ScaddarMapper(n0=log.n0, bits=data["bits"])
        for op in log:
            mapper.apply(op)
        return ScaddarBackend.from_mapper(mapper)
    entry = data["backend"]
    try:
        return backend_from_payload(entry["name"], entry["payload"])
    except UnknownBackendError as exc:
        raise SnapshotError(
            f"snapshot needs placement backend {entry['name']!r}, which "
            "this build does not register"
        ) from exc


def resume_server(
    snapshot: dict | str,
    journal: ScalingJournal | str,
) -> tuple[
    CMServer,
    Optional[PendingScale | PendingReshuffle],
    Optional[MigrationSession],
]:
    """Rebuild the exact mid-migration state after a crash.

    The snapshot provides the last quiescent state; the journal provides
    every scaling record written since.  Replay walks the journal in
    order:

    * operations already in the snapshot's log are verified and skipped;
    * **committed** operations are re-begun and their whole plan
      executed (block moves are deterministic per backend — the directory
      baseline's RNG state rides in its payload — so this lands every
      block exactly where the crashed process had put it);
    * **aborted** operations contributed nothing and are skipped;
    * an **open** operation (crash mid-migration) is re-begun, its
      journaled ``apply`` records re-executed, and the remainder handed
      back as a live session.

    Full redistributions (``reshuffle`` records) replay the same way:
    seed derivation is a pure function of ``(master_seed, object_id,
    seed_epoch)`` and the epoch rides in the snapshot, so re-beginning
    the reshuffle re-derives the crashed process's exact plan — which is
    then verified against the journaled one.  A committed reshuffle
    resets the scaling seq space (the backend log restarts), so journal
    records *older* than the snapshot's reshuffle count are skipped
    wholesale.

    Returns ``(server, pending, session)`` — ``pending``/``session`` are
    ``None`` when the journal ends quiescent, otherwise the in-flight
    operation (a :class:`PendingScale` or :class:`PendingReshuffle`) and
    a session holding exactly the not-yet-landed moves (execute it and
    call ``server.finish_scale(pending)`` /
    ``server.finish_reshuffle(pending)`` to complete the interrupted
    operation).  The journal is re-attached to the returned server, so
    completion is journaled like any other operation.

    Raises
    ------
    JournalError
        When the journal disagrees with the snapshot (wrong op at a
        sequence number, or a re-derived plan that does not match the
        journaled one) — a sign of mixed-up files, not a crash artifact.
    """
    if isinstance(journal, str):
        journal = ScalingJournal(journal)
    server = restore_server(snapshot)
    base_ops = server.backend.num_operations
    base_log = server.backend.log.operations

    records = journal.replay()
    # Everything up to and including the last reshuffle the snapshot
    # already reflects is baked into the restored state (the scaling seq
    # space restarted there): skip it wholesale.
    start = 0
    for i, record in enumerate(records):
        if (
            isinstance(record.op, ReshuffleOp)
            and not record.aborted
            and record.op.epoch <= server.reshuffles
        ):
            start = i + 1

    open_state: (
        tuple[PendingScale | PendingReshuffle, MigrationSession] | None
    ) = None
    for record in records[start:]:
        if record.aborted:
            continue  # begin + rollback = net nothing
        if isinstance(record.op, ReshuffleOp):
            if record.op.epoch != server.reshuffles + 1:
                raise JournalError(
                    f"journal reshuffle epoch={record.op.epoch} does not "
                    f"follow the {server.reshuffles} reshuffles restored "
                    "so far"
                )
            pending_r = server.begin_reshuffle()
            by_block = {m.block_id: m for m in pending_r.plan.moves}
            _verify_replayed_plan(server, record, by_block)
            if record.committed:
                for move in pending_r.plan.moves:
                    server.array.move(move.block_id, move.target_physical)
                server.finish_reshuffle(pending_r)
                # The reset restarted the scaling seq space: subsequent
                # scaling records replay against the fresh log.
                base_ops = 0
                base_log = server.backend.log.operations
                continue
            open_state = (
                pending_r,
                _session_for_remainder(server, journal, record, pending_r),
            )
            continue
        if record.seq <= base_ops:
            if base_log[record.seq - 1] != record.op:
                raise JournalError(
                    f"journal op seq={record.seq} is {record.op} but the "
                    f"snapshot log holds {base_log[record.seq - 1]}"
                )
            continue  # already reflected in the snapshot
        if record.seq != server.backend.num_operations + 1:
            raise JournalError(
                f"journal op seq={record.seq} does not follow the "
                f"{server.backend.num_operations} operations restored so far"
            )
        pending = server.begin_scale(record.op)
        by_block = {m.block_id: m for m in pending.plan.moves}
        _verify_replayed_plan(server, record, by_block)
        if record.committed:
            for move in pending.plan.moves:
                server.array.move(move.block_id, move.target_physical)
            server.finish_scale(pending)
            continue
        # Crash mid-migration: re-execute exactly the journaled moves.
        open_state = (
            pending,
            _session_for_remainder(server, journal, record, pending),
        )

    server.attach_journal(journal)
    if open_state is None:
        return server, None, None
    return server, open_state[0], open_state[1]


def _session_for_remainder(
    server: CMServer,
    journal: ScalingJournal,
    record: OpJournalRecord,
    pending: PendingScale | PendingReshuffle,
) -> MigrationSession:
    """Re-execute the journaled ``apply`` records of an open operation
    and build a live session over exactly the moves that never landed."""
    by_block = {m.block_id: m for m in pending.plan.moves}
    applied = set()
    for block_id in record.applied:
        server.array.move(block_id, by_block[block_id].target_physical)
        applied.add(block_id)
    remaining = [m for m in pending.plan.moves if m.block_id not in applied]
    return MigrationSession(
        server.array,
        MigrationPlan(moves=tuple(remaining)),
        journal=journal,
        op_seq=pending.op_seq,
    )


def _verify_replayed_plan(
    server: CMServer,
    record: OpJournalRecord,
    by_block: dict,
) -> None:
    """Check the re-derived plan matches the journaled intent record."""
    if {m.block_id for m in record.plan} != set(by_block):
        raise JournalError(
            f"op seq={record.seq}: re-derived plan moves "
            f"{len(by_block)} blocks but the journal recorded "
            f"{len(record.plan)} different ones"
        )
    logical = {
        pid: i for i, pid in enumerate(server.array.physical_ids)
    }
    for journaled in record.plan:
        move = by_block[journaled.block_id]
        if (
            logical[move.source_physical] != journaled.source_logical
            or logical[move.target_physical] != journaled.target_logical
        ):
            raise JournalError(
                f"op seq={record.seq}: move of {journaled.block_id} "
                "re-derived with different endpoints than journaled"
            )
