"""Experiment FLASH-CROWD: popularity-aware replication under a burst.

ROADMAP item 4's payoff measurement.  Two clusters, built from the same
seed (identical shard homes), serve the same Zipf stream population at
the **same total storage budget**:

* **uniform** — the budget affords one copy per object and no more
  (the best uniform R the budget buys is R=1), the pre-policy baseline;
* **adaptive** — R=1 plus a
  :class:`~repro.cluster.popularity.ReplicationPolicy` whose copy
  budget is the *same* total; the fractional headroom above
  one-per-object is spent where observed demand is.

The timeline stresses exactly what popularity-aware replication is
for:

1. **warm** — Zipf-apportioned streams play; the adaptive cluster's
   demand tracker ranks the head and its rate-bounded per-round adapt
   pass grows the hot objects' replica sets;
2. **flash** — a burst of new streams lands on a previously *cold*
   object; decayed demand re-ranks it to the top and the policy shifts
   copies toward it (hysteresis keeps the calm tail untouched);
3. **death** — the shard holding the flash object (which the Zipf head
   also hashes around) dies mid-serving.  Hot-object availability over
   the post-death window is the headline: the adaptive cluster serves
   its top-decile objects at **1.0** (streams fail over to the copies
   demand earned), the uniform cluster strands every stream of every
   dead-homed object.

Per-object availability is measured from first principles: each round's
per-stream demand (`demand_window`, non-destructive) is charged to the
stream's object, and misses come from the schedulers' cumulative
``hiccups_by_stream`` deltas plus stranded-stream demand.  Cold objects
on the dead shard degrade the same way in both clusters — the policy
trades *their* redundancy headroom for the head's, which is the whole
point.

Both runs end with a clean cluster fsck (under-replication explained by
the dead shard is *degraded*, not a breach), the adaptive cluster never
exceeds its copy budget, and the adaptive scenario is executed twice to
prove same-seed bit-identical state (layout + replica map + committed
targets + tracker scores).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Optional

from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.fsck import check_cluster
from repro.cluster.popularity import ReplicationPolicy
from repro.experiments.cluster_chaos import ha_digest
from repro.experiments.tables import format_table
from repro.storage.disk import DiskSpec
from repro.workloads.generator import apportion_streams, zipf_popularity


@dataclass(frozen=True)
class FlashCrowdResult:
    """Outcome of one flash-crowd variant (uniform or adaptive)."""

    variant: str
    shards: int
    objects: int
    #: Total copies the variant is allowed (primaries included).
    copy_budget: int
    #: Copies actually held when the shard died.
    copies_at_death: int
    streams: int
    victim_shard: int
    #: Top-decile object ids (by constructed demand), the availability
    #: claim's subjects.
    hot_objects: tuple[int, ...]
    #: Served fraction of hot-object demand across the post-death window.
    hot_availability: float
    #: Served fraction of all demand across the post-death window.
    overall_availability: float
    #: Served fraction of non-hot demand (the graceful-degradation side).
    cold_availability: float
    streams_stranded: int
    fsck_clean: bool
    #: Same-seed replay reproduced the full state digest (always True
    #: for variants not replayed).
    deterministic: bool = True
    digest: str = ""

    @property
    def budget_respected(self) -> bool:
        """The variant never held more copies than its budget."""
        return self.copies_at_death <= self.copy_budget


def _build_cluster(
    num_shards: int,
    disks_per_shard: int,
    num_objects: int,
    blocks_per_object: int,
    num_domains: int,
    bandwidth: int,
    seed: int,
    policy: Optional[ReplicationPolicy],
    obs=None,
) -> ClusterCoordinator:
    """One serving cluster; identical homes for any fixed seed, with or
    without a policy attached (placement never reads the tracker)."""
    spec = DiskSpec(
        capacity_blocks=100_000, bandwidth_blocks_per_round=bandwidth
    )
    coordinator = ClusterCoordinator.create(
        num_shards,
        disks_per_shard,
        spec,
        bits=32,
        router_backend="consistent_hash",
        master_seed=seed,
        obs=obs,
        replication_factor=1,
        num_domains=num_domains,
        replication_policy=policy,
    )
    for i in range(num_objects):
        coordinator.add_object(f"title-{i}", blocks_per_object, 1)
    return coordinator


def _admit(
    coordinator: ClusterCoordinator,
    census: list[tuple[int, int]],
    next_stream_id: int,
) -> int:
    """Admit ``count`` streams per (gid, count), staggered start blocks."""
    for gid, count in census:
        blocks = coordinator.shard(
            coordinator.shard_of(gid)
        ).server.catalog.get(coordinator.local_id_of(gid)).num_blocks
        for i in range(count):
            coordinator.admit_stream(
                next_stream_id, gid, start_block=(i * 37) % blocks
            )
            next_stream_id += 1
    return next_stream_id


def _hiccup_census(coordinator: ClusterCoordinator) -> dict[int, int]:
    """Cumulative hiccups per stream id, summed over every scheduler
    (dead shards' schedulers included — failed-over streams leave their
    history behind)."""
    census: dict[int, int] = {}
    for shard in coordinator._serving_shards():
        if shard._scheduler is None:
            continue
        for stream_id, count in shard.scheduler.hiccups_by_stream.items():
            census[stream_id] = census.get(stream_id, 0) + count
    return census


def _measured_rounds(
    coordinator: ClusterCoordinator, rounds: int
) -> tuple[dict[int, int], dict[int, int]]:
    """Run ``rounds`` barrier rounds, charging per-object demand and
    misses.  Returns ``(requested_by_gid, hiccups_by_gid)``."""
    requested: dict[int, int] = {}
    hiccups: dict[int, int] = {}
    stream_gid = dict(coordinator._streams)
    before = _hiccup_census(coordinator)
    for _ in range(rounds):
        # Demand this round, read non-destructively before serving.
        for shard in coordinator._serving_shards():
            if shard._scheduler is None:
                continue
            if not coordinator.health.is_live(shard.shard_id):
                continue
            for stream in shard.scheduler.streams:
                gid = stream_gid.get(stream.stream_id)
                if gid is None:
                    continue
                _, count = stream.demand_window()
                requested[gid] = requested.get(gid, 0) + count
        for stream in coordinator._stranded.handles():
            gid = stream_gid.get(stream.stream_id)
            _, count = stream.demand_window()
            if gid is not None and count:
                requested[gid] = requested.get(gid, 0) + count
                hiccups[gid] = hiccups.get(gid, 0) + count
        coordinator.run_round()
    after = _hiccup_census(coordinator)
    for stream_id, count in after.items():
        delta = count - before.get(stream_id, 0)
        gid = stream_gid.get(stream_id)
        if delta and gid is not None:
            hiccups[gid] = hiccups.get(gid, 0) + delta
    return requested, hiccups


def _availability(
    requested: dict[int, int], hiccups: dict[int, int], gids
) -> float:
    """Served fraction of the given objects' demand (1.0 on no demand)."""
    total = sum(requested.get(gid, 0) for gid in gids)
    missed = sum(hiccups.get(gid, 0) for gid in gids)
    return (total - missed) / total if total else 1.0


def _state_digest(coordinator: ClusterCoordinator) -> str:
    """Layout + replica map + popularity state, bit-exactly."""
    manager = coordinator.replication
    popularity = manager.policy_payload()
    return hashlib.sha256(
        (
            ha_digest(coordinator)
            + json.dumps(popularity, sort_keys=True, separators=(",", ":"))
        ).encode()
    ).hexdigest()


def _run_variant(
    variant: str,
    num_shards: int,
    disks_per_shard: int,
    num_objects: int,
    blocks_per_object: int,
    num_domains: int,
    bandwidth: int,
    base_streams: int,
    flash_streams: int,
    warm_rounds: int,
    flash_rounds: int,
    post_rounds: int,
    copy_budget: int,
    seed: int,
    policy: Optional[ReplicationPolicy],
    obs=None,
) -> FlashCrowdResult:
    coordinator = _build_cluster(
        num_shards, disks_per_shard, num_objects, blocks_per_object,
        num_domains, bandwidth, seed, policy, obs=obs,
    )

    # Zipf-apportioned base census, then the burst on a cold object.
    weights = zipf_popularity(num_objects)
    census = [
        (gid, count)
        for gid, count in enumerate(apportion_streams(base_streams, weights))
        if count
    ]
    flash_gid = num_objects - 2  # deep in the Zipf tail: cold until now
    next_id = _admit(coordinator, census, 0)
    coordinator.run_rounds(warm_rounds)

    next_id = _admit(coordinator, [(flash_gid, flash_streams)], next_id)
    coordinator.run_rounds(flash_rounds)

    # The burst's object defines the blast radius: its home shard dies.
    victim = coordinator.shard_of(flash_gid)
    copies_at_death = (
        len(coordinator._home) + len(coordinator._replica_local)
    )
    death = coordinator.kill_shard(victim)

    # Hot set: the top decile by *constructed* demand — the flash object
    # first, then the Zipf head — identical for both variants.
    decile = max(1, num_objects // 10)
    hot = (flash_gid,) + tuple(range(decile))[: max(0, decile - 1)]

    requested, hiccups = _measured_rounds(coordinator, post_rounds)
    cold = [gid for gid in coordinator.object_ids if gid not in hot]
    audit = check_cluster(coordinator)
    return FlashCrowdResult(
        variant=variant,
        shards=num_shards,
        objects=num_objects,
        copy_budget=copy_budget,
        copies_at_death=copies_at_death,
        streams=next_id,
        victim_shard=victim,
        hot_objects=hot,
        hot_availability=_availability(requested, hiccups, hot),
        overall_availability=_availability(
            requested, hiccups, coordinator.object_ids
        ),
        cold_availability=_availability(requested, hiccups, cold),
        streams_stranded=death.streams_stranded + len(coordinator._stranded),
        fsck_clean=audit.clean,
        digest=_state_digest(coordinator),
    )


def run_flash_crowd(
    num_shards: int = 6,
    disks_per_shard: int = 3,
    num_objects: int = 20,
    blocks_per_object: int = 80,
    num_domains: int = 3,
    bandwidth: int = 200,
    base_streams: int = 48,
    flash_streams: int = 16,
    warm_rounds: int = 10,
    flash_rounds: int = 12,
    post_rounds: int = 8,
    extra_copy_fraction: float = 0.4,
    seed: int = 0xF1A5,
    obs=None,
) -> list[FlashCrowdResult]:
    """Run both variants at the same storage budget; returns
    ``[uniform, adaptive]``.

    The budget is ``num_objects * (1 + extra_copy_fraction)`` total
    copies — enough for R=1 everywhere plus a fractional headroom that
    *cannot* buy uniform R=2, so the uniform baseline's best play is
    R=1 and the headroom is only exploitable by spending it unevenly.
    """
    copy_budget = num_objects + max(2, round(num_objects * extra_copy_fraction))

    def policy() -> ReplicationPolicy:
        return ReplicationPolicy(
            copy_budget,
            hysteresis_rounds=2,
            max_copy_ops_per_round=4,
            demand_half_life_rounds=8,
        )

    common = dict(
        num_shards=num_shards,
        disks_per_shard=disks_per_shard,
        num_objects=num_objects,
        blocks_per_object=blocks_per_object,
        num_domains=num_domains,
        bandwidth=bandwidth,
        base_streams=base_streams,
        flash_streams=flash_streams,
        warm_rounds=warm_rounds,
        flash_rounds=flash_rounds,
        post_rounds=post_rounds,
        copy_budget=copy_budget,
        seed=seed,
    )
    uniform = _run_variant("uniform", policy=None, obs=obs, **common)
    adaptive = _run_variant("adaptive", policy=policy(), obs=obs, **common)
    # Same seed, fresh policy object, second run: every bit of state —
    # layout, replica map, targets, tracker scores — must reproduce.
    adaptive_replay = _run_variant("adaptive", policy=policy(), **common)
    adaptive = replace(
        adaptive,
        deterministic=adaptive.digest == adaptive_replay.digest,
    )
    return [uniform, adaptive]


def report(results: Optional[list[FlashCrowdResult]] = None) -> str:
    """Render the flash-crowd comparison."""
    results = results if results is not None else run_flash_crowd()
    table = format_table(
        (
            "variant",
            "budget",
            "copies",
            "streams",
            "stranded",
            "hot avail",
            "cold avail",
            "overall",
            "fsck clean",
            "same-seed",
        ),
        [
            (
                r.variant,
                r.copy_budget,
                r.copies_at_death,
                r.streams,
                r.streams_stranded,
                round(r.hot_availability, 4),
                round(r.cold_availability, 4),
                round(r.overall_availability, 4),
                "yes" if r.fsck_clean else "NO",
                "yes" if r.deterministic else "NO",
            )
            for r in results
        ],
    )
    uniform, adaptive = results[0], results[-1]
    won = (
        adaptive.hot_availability >= 1.0
        and adaptive.hot_availability >= uniform.hot_availability
        and adaptive.budget_respected
        and all(r.fsck_clean and r.deterministic for r in results)
    )
    return (
        table
        + "\nsame storage budget, same shard death: demand-apportioned "
        "copies keep every top-decile object serving at 1.0 while the "
        "uniform baseline strands the flash crowd; cold objects degrade "
        "identically — the headroom went where the viewers are"
        + ("" if won else "\n*** ADAPTIVE REPLICATION DID NOT PAY OFF ***")
    )


#: Uniform entry point used by the CLI (`scaddar <name>`).
run = run_flash_crowd
