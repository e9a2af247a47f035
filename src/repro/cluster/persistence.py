"""Cluster manifest persistence and crash recovery.

One level above :mod:`repro.server.persistence`: a cluster manifest is a
small JSON envelope holding the router's ``state_payload`` (the
second-level placement identity), the coordinator's namespace (gid maps,
id allocators, shard template), and one per-shard *server snapshot* per
slot — the same v4 documents :func:`~repro.server.persistence.snapshot_server`
writes, embedded verbatim, so everything the single-server layer
guarantees about bit-exact restoration carries over shard by shard.

Recovery is strictly layered, mirroring the journals
(:mod:`repro.cluster.journal`):

1. each shard returns to its own crash-consistent state — via
   :func:`~repro.server.persistence.resume_server` when its scaling
   journal has post-snapshot records (any open disk-level operation is
   completed synchronously), plain
   :func:`~repro.server.persistence.restore_server` otherwise;
2. the cluster journal replays on top: rebalances the manifest already
   reflects are skipped by the router's operation stamp, committed ones
   are re-begun (plan re-derived and verified against the journaled
   intent) and their migrations re-executed, and an open one is handed
   back as a live :class:`~repro.cluster.coordinator.PendingReshard`
   holding exactly the migrations that never landed.

Object migrations are *re-executed*, not skipped: a migration is
catalog traffic (ingest + removal), deliberately not journaled at the
shard level, and re-running it from the manifest-time shard state is
deterministic — local ids come from the catalog's monotonic allocator
(persisted per shard as ``next_local_id``) and block placement from the
derived seeds.
"""

from __future__ import annotations

import json
from typing import Optional, Union

from repro.cluster.coordinator import (
    ClusterCoordinator,
    PendingReshard,
    ShardTemplate,
)
from repro.cluster.health import ShardHealth
from repro.cluster.journal import ClusterJournal
from repro.cluster.router import ShardRouter
from repro.cluster.shard import ShardNode
from repro.server.cmserver import OperationInFlightError
from repro.server.journal import JournalError, ScalingJournal
from repro.server.persistence import (
    SnapshotError,
    restore_server,
    resume_server,
    snapshot_server,
)

#: Cluster manifest format version (independent of the per-shard
#: snapshot version riding inside each ``shards[*].snapshot``).
#:
#: v2 adds the replication envelope — ``replication_factor``,
#: ``num_domains``, per-shard ``domain`` labels, the per-object replica
#: map, and ``dead_shards`` — all absent from v1 manifests, which this
#: build still reads (as replication-factor-1 clusters).
#:
#: v3 adds the optional popularity envelope (``popularity``): the
#: replication policy's config + committed per-object targets +
#: hysteresis streaks, the demand tracker's decayed scores, and the
#: adapt pass's patrol cursor / dirty queue — ``None`` (and absent from
#: v1/v2 manifests, still readable) when no policy is attached.
MANIFEST_VERSION = 3


def snapshot_cluster(coordinator: ClusterCoordinator) -> dict:
    """Serialize a quiescent cluster to a JSON-compatible manifest.

    O(objects + shards + per-shard backend payloads).  Refused while a
    rebalance is in flight — the mid-rebalance gap is the journal's
    domain, exactly like the single-server snapshot/journal split.
    Dead shards snapshot fine (their catalogs are intact tombstones);
    only the rebalance that evacuates one is the journal's business.
    """
    if coordinator._in_flight is not None:
        raise OperationInFlightError(
            "cannot snapshot mid-rebalance; finish or abort it first "
            "(crash recovery is the journal's job, not the manifest's)"
        )
    journal = coordinator.journal
    return {
        "version": MANIFEST_VERSION,
        "replication_factor": coordinator.replication_factor,
        "num_domains": coordinator.num_domains,
        "popularity": coordinator.replication.policy_payload(),
        "dead_shards": coordinator.health.shards_in(ShardHealth.DEAD),
        "replicas": [
            {
                "object_id": gid,
                "copies": [
                    [sid, coordinator._replica_local[(gid, sid)]]
                    for sid in copies
                ],
            }
            for gid, copies in sorted(coordinator._replica_home.items())
        ],
        "master_seed": coordinator.master_seed,
        # The barrier-round clock: the demand tracker's decay stamps are
        # relative to it, so a restored cluster must resume the count.
        "round_index": coordinator.round_index,
        "router": coordinator.router.state_payload(),
        # The replay boundary: journal records with seq <= this stamp
        # are already reflected in the router payload above.
        "router_ops": coordinator.router.num_operations,
        "next_object_id": coordinator._next_gid,
        "next_shard_id": coordinator._next_shard_id,
        # The file name only: the manifest's bytes must not depend on
        # the directory the cluster runs from (nothing reads it back).
        "journal_file": (
            journal.path.name
            if journal is not None and journal.path is not None
            else None
        ),
        "template": coordinator.template.to_payload(),
        "objects": [
            {
                "object_id": gid,
                "name": name,
                "shard": coordinator._home[gid],
                "local_id": coordinator._local[gid],
            }
            for name, gid in sorted(
                coordinator._names.items(), key=lambda item: item[1]
            )
        ],
        "shards": [
            {
                "shard_id": shard.shard_id,
                "domain": shard.domain,
                # The catalog allocator position — max(ids)+1 undercounts
                # after a removal of the newest object, and resumed
                # migrations must re-derive identical local ids.
                "next_local_id": shard.server.catalog._next_id,
                "snapshot": snapshot_server(shard.server),
            }
            for shard in coordinator.shards
        ],
    }


def cluster_to_json(coordinator: ClusterCoordinator) -> str:
    """Snapshot a cluster to a JSON string."""
    return json.dumps(snapshot_cluster(coordinator))


def restore_cluster(
    manifest: dict | str,
    journal: Optional[ClusterJournal] = None,
    obs=None,
) -> ClusterCoordinator:
    """Rebuild a quiescent cluster from a manifest, bit-exactly.

    Every shard's block layout is restored through the single-server
    machinery; the router and the object namespace come from the
    envelope.  Raises :class:`~repro.server.persistence.SnapshotError`
    on version or consistency problems (an object entry must agree with
    its shard's catalog).
    """
    data = json.loads(manifest) if isinstance(manifest, str) else manifest
    version = data.get("version")
    if version not in (1, 2, MANIFEST_VERSION):
        raise SnapshotError(
            f"unsupported cluster manifest version {version!r}; "
            f"this build reads versions 1..{MANIFEST_VERSION}"
        )
    router = ShardRouter.from_payload(data["router"])
    shards = []
    for entry in data["shards"]:
        server = restore_server(entry["snapshot"])
        server.catalog._next_id = max(
            server.catalog._next_id, entry["next_local_id"]
        )
        shards.append(
            # v1 manifests carry no domain; ShardNode defaults to the
            # per-shard-unique label, matching v1's factor-1 semantics.
            ShardNode(entry["shard_id"], server, domain=entry.get("domain"))
        )
    coordinator = ClusterCoordinator(
        router,
        shards,
        ShardTemplate.from_payload(data["template"]),
        master_seed=data["master_seed"],
        journal=journal,
        obs=obs,
        replication_factor=data.get("replication_factor", 1),
        num_domains=data.get("num_domains"),
    )
    coordinator._next_gid = data["next_object_id"]
    coordinator._next_shard_id = max(
        coordinator._next_shard_id, data["next_shard_id"]
    )
    coordinator.round_index = data.get("round_index", 0)
    # v1/v2 manifests carry no popularity envelope: restore_policy(None)
    # leaves the cluster uniform, the pre-v3 behavior bit-for-bit.
    coordinator.replication.restore_policy(data.get("popularity"))
    for entry in data["objects"]:
        gid = entry["object_id"]
        shard = coordinator.shard(entry["shard"])
        try:
            media = shard.server.catalog.get(entry["local_id"])
        except KeyError:
            raise SnapshotError(
                f"manifest object {gid} points at local id "
                f"{entry['local_id']} which shard {entry['shard']} does "
                "not hold"
            )
        if media.name != entry["name"]:
            raise SnapshotError(
                f"manifest object {gid} is named {entry['name']!r} but "
                f"shard {entry['shard']} calls local id "
                f"{entry['local_id']} {media.name!r}"
            )
        coordinator._home[gid] = entry["shard"]
        coordinator._local[gid] = entry["local_id"]
        coordinator._names[entry["name"]] = gid
    for entry in data.get("replicas", ()):
        gid = entry["object_id"]
        if gid not in coordinator._home:
            raise SnapshotError(
                f"manifest replica map names object {gid} which the "
                "object table does not hold"
            )
        copies = []
        for shard_id, local_id in entry["copies"]:
            shard = coordinator.shard(shard_id)
            try:
                media = shard.server.catalog.get(local_id)
            except KeyError:
                raise SnapshotError(
                    f"manifest replica of object {gid} points at local id "
                    f"{local_id} which shard {shard_id} does not hold"
                )
            name = coordinator.shard(coordinator._home[gid]).server.catalog
            if media.name != name.get(coordinator._local[gid]).name:
                raise SnapshotError(
                    f"manifest replica of object {gid} on shard {shard_id} "
                    f"is named {media.name!r}, not the primary's name"
                )
            copies.append(shard_id)
            coordinator._replica_local[(gid, shard_id)] = local_id
        coordinator._replica_home[gid] = tuple(copies)
    for shard_id in data.get("dead_shards", ()):
        coordinator.health.mark_dead(shard_id)
    return coordinator


def resume_cluster(
    manifest: dict | str,
    journal: ClusterJournal | str,
    shard_journals: Optional[
        dict[int, Union[ScalingJournal, str]]
    ] = None,
    obs=None,
) -> tuple[ClusterCoordinator, Optional[PendingReshard]]:
    """Rebuild the exact mid-rebalance state after a crash.

    ``shard_journals`` maps stable shard id → that shard's scaling
    journal (or its path) for shards whose disk-level operations
    continued past the manifest; each such shard is resumed through
    :func:`~repro.server.persistence.resume_server` and any open
    operation is completed synchronously before the cluster journal
    replays — the layering the journals were designed for.

    Returns ``(coordinator, pending)``: ``pending`` is ``None`` when the
    cluster journal ends quiescent, otherwise the in-flight rebalance
    with its already-journaled migrations re-executed and exactly the
    unlanded ones remaining (execute them and call
    :meth:`~repro.cluster.coordinator.ClusterCoordinator.finish_reshard`).
    The journal is attached to the returned coordinator, so completion
    is journaled like any other rebalance.

    Raises
    ------
    JournalError
        When the journal disagrees with the manifest (sequence gaps, a
        re-derived plan differing from the journaled intent, mismatched
        spawned-shard ids) — mixed-up files, not a crash artifact.
    """
    if isinstance(journal, str):
        journal = ClusterJournal(journal)
    data = json.loads(manifest) if isinstance(manifest, str) else manifest
    coordinator = restore_cluster(data, journal=None, obs=obs)
    if shard_journals:
        for shard_id, shard_journal in shard_journals.items():
            _resume_shard(coordinator, data, shard_id, shard_journal)

    stamp = data["router_ops"]
    pending_out: Optional[PendingReshard] = None
    for record in journal.replay():
        if record.aborted:
            # begin + full rollback = net nothing for the namespace,
            # but an aborted *rebuild* leaves its shard dead (aborting
            # the evacuation never revived the machine) — later records
            # must replay against that truth.
            if record.rebuild_of is not None:
                coordinator.health.mark_dead(record.rebuild_of)
            continue
        if record.seq <= stamp:
            continue  # already reflected in the manifest's router state
        if record.seq != coordinator.router.num_operations + 1:
            raise JournalError(
                f"cluster journal seq={record.seq} does not follow the "
                f"{coordinator.router.num_operations} router operations "
                "restored so far"
            )
        if record.rebuild_of is not None:
            # A rebuild's death precedes its begin record; streams are
            # transient so re-marking the shard dead is the whole replay
            # of kill_shard.
            coordinator.health.mark_dead(record.rebuild_of)
        pending = coordinator._begin_reshard(
            record.op, journal_writes=False, rebuild_of=record.rebuild_of
        )
        if record.rebuild_of is not None:
            coordinator.health.begin_rebuild(record.rebuild_of)
        if pending.new_shard_ids != record.new_shard_ids:
            raise JournalError(
                f"rebalance seq={record.seq} re-derived shard ids "
                f"{pending.new_shard_ids} but the journal recorded "
                f"{record.new_shard_ids}"
            )
        if set(pending.moves) != set(record.plan):
            raise JournalError(
                f"rebalance seq={record.seq} re-derived a different move "
                "plan than the journal recorded (was the manifest taken "
                "while objects were being added?)"
            )
        by_gid = {move.object_id: move for move in pending.moves}
        if record.committed and len(record.applied) != len(record.plan):
            raise JournalError(
                f"rebalance seq={record.seq} committed with only "
                f"{len(record.applied)} of {len(record.plan)} applies "
                "journaled"
            )
        # Re-execute in the journaled order — target-catalog local ids
        # depend on per-shard ingest order.
        for gid in record.applied:
            coordinator._migrate(by_gid[gid], journal_writes=False,
                                 seq=record.seq)
            pending.applied.append(gid)
        if record.committed:
            for move in pending.remaining:
                coordinator._migrate(move, journal_writes=False,
                                     seq=record.seq)
                pending.applied.append(move.object_id)
            coordinator._finish_reshard(pending, journal_writes=False)
        else:
            pending_out = pending

    coordinator.journal = journal
    journal.attach_obs(coordinator.obs)
    return coordinator, pending_out


def _resume_shard(
    coordinator: ClusterCoordinator,
    data: dict,
    shard_id: int,
    shard_journal: Union[ScalingJournal, str],
) -> None:
    """Replace one restored shard with its journal-resumed server,
    completing any open disk-level operation synchronously."""
    entry = next(
        (e for e in data["shards"] if e["shard_id"] == shard_id), None
    )
    if entry is None:
        raise KeyError(f"shard {shard_id} is not in the manifest")
    server, pending, session = resume_server(
        entry["snapshot"], shard_journal
    )
    if pending is not None:
        while not session.done:
            session.step(max(1, session.remaining))
        from repro.server.cmserver import PendingReshuffle

        if isinstance(pending, PendingReshuffle):
            server.finish_reshuffle(pending)
        else:
            server.finish_scale(pending)
    server.catalog._next_id = max(
        server.catalog._next_id, entry["next_local_id"]
    )
    old = coordinator._shard_by_id[shard_id]
    replacement = ShardNode(
        shard_id, server, journal=server.journal, domain=old.domain
    )
    coordinator._shard_by_id[shard_id] = replacement
    coordinator.shards = [
        replacement if shard is old else shard for shard in coordinator.shards
    ]
