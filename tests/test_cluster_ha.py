"""Cluster fault tolerance: health, replication, failover, rebuild.

The pledges under test:

* per-shard health walks the disk state machine one level up — breaker
  trips demote to suspect, probes recover, death is terminal until a
  rebuild detaches the shard;
* replication keeps R copies of every object on pairwise-distinct
  shards AND pairwise-distinct failure domains, placed by rendezvous
  ranking (stable under topology change by construction);
* routed reads retry with capped exponential backoff under a per-shard
  timeout budget, then fail over through the replica chain; the
  all-healthy batch path matches the scalar path bit-for-bit;
* a shard death fails its streams over at their exact playback
  positions, strands the unservable ones, and the conservation
  invariant (requested == served + hiccups + queued) holds throughout;
* a dead shard's rebuild is a journaled, rate-bounded, abortable
  rebalance that restores full replication and detaches the tombstone;
* cluster rebalances and per-shard scaling ops stay mutually exclusive
  (strict journal layering), in both directions;
* same-seed runs reproduce the whole story bit-identically.
"""

from __future__ import annotations

import pytest

from repro.cluster import (
    ClusterCoordinator,
    ClusterFaultInjector,
    ClusterJournal,
    FailoverConfig,
    ObjectUnavailableError,
    ReplicationError,
    ShardDeathReport,
    ShardHealth,
    check_cluster,
    merged_deterministic_view,
)
from repro.cluster.health import ClusterHealthMonitor
from repro.core.operations import ScalingOp
from repro.server.cmserver import OperationInFlightError
from repro.server.health import HealthTransitionError
from repro.server.streams import Stream, StreamState
from repro.storage.disk import DiskSpec

SPEC = DiskSpec(capacity_blocks=50_000, bandwidth_blocks_per_round=8)


def build_ha_cluster(
    num_shards: int = 4,
    num_objects: int = 12,
    blocks_per_object: int = 40,
    replication_factor: int = 2,
    num_domains: int = 2,
    router_backend: str = "consistent_hash",
    **kwargs,
) -> ClusterCoordinator:
    coordinator = ClusterCoordinator.create(
        num_shards, 3, SPEC, bits=32, master_seed=0xBEEF,
        router_backend=router_backend,
        replication_factor=replication_factor,
        num_domains=num_domains,
        **kwargs,
    )
    for i in range(num_objects):
        coordinator.add_object(f"title-{i}", blocks_per_object)
    return coordinator


def assert_viewer_index_agrees(coordinator):
    """The per-title viewer index holds exactly the admitted streams,
    each under its title and as its current handle: the one a live
    scheduler serves, or the stranded one."""
    by_title: dict[int, set[int]] = {}
    for stream_id, gid in coordinator._streams.items():
        by_title.setdefault(gid, set()).add(stream_id)
    assert {
        gid: set(viewers) for gid, viewers in coordinator._viewers.items()
    } == by_title
    serving = {}
    for shard in coordinator._serving_shards():
        if shard._scheduler is not None and coordinator.health.is_live(
            shard.shard_id
        ):
            for stream in shard.scheduler.streams:
                serving[stream.stream_id] = stream
    stranded = {s.stream_id: s for s in coordinator._stranded.handles()}
    for viewers in coordinator._viewers.values():
        for stream_id, handle in viewers.items():
            expected = serving.get(stream_id, stranded.get(stream_id))
            assert handle is expected, stream_id


def stream_on(shard, stream_id):
    """The scheduler's live Stream with this id (or None)."""
    return next(
        (s for s in shard.scheduler.streams if s.stream_id == stream_id),
        None,
    )


class TestHealthMachine:
    def test_fresh_shards_are_healthy(self):
        monitor = ClusterHealthMonitor()
        assert monitor.state(0) is ShardHealth.HEALTHY
        assert monitor.is_live(0) and monitor.serves_unimpeded(0)

    def test_failures_trip_breaker_to_suspect(self):
        monitor = ClusterHealthMonitor(trip_after=3)
        for _ in range(3):
            monitor.observe_failure(0, round_index=0)
        assert monitor.state(0) is ShardHealth.SUSPECT
        assert monitor.is_live(0)  # data still there
        assert not monitor.serves_unimpeded(0)
        assert not monitor.is_readable(0, 1)  # cooling down

    def test_probe_success_recovers(self):
        monitor = ClusterHealthMonitor(trip_after=2, cooldown_rounds=1)
        monitor.observe_failure(0, 0)
        monitor.observe_failure(0, 0)
        assert monitor.state(0) is ShardHealth.SUSPECT
        probed = False
        for round_index in range(1, 10):
            monitor.new_round()
            if monitor.is_readable(0, round_index):
                monitor.observe_success(0)
                probed = True
                break
        assert probed
        assert monitor.state(0) is ShardHealth.HEALTHY
        assert monitor.serves_unimpeded(0)

    def test_death_and_rebuild_transitions(self):
        monitor = ClusterHealthMonitor()
        monitor.mark_dead(1)
        assert monitor.state(1) is ShardHealth.DEAD
        assert not monitor.is_live(1)
        assert not monitor.is_readable(1, 0)
        with pytest.raises(HealthTransitionError):
            monitor.mark_healthy(1)
        monitor.begin_rebuild(1)
        assert monitor.state(1) is ShardHealth.REBUILDING
        assert not monitor.is_live(1)
        monitor.forget(1)
        assert monitor.state(1) is ShardHealth.HEALTHY

    def test_rebuild_requires_dead(self):
        monitor = ClusterHealthMonitor()
        with pytest.raises(HealthTransitionError):
            monitor.begin_rebuild(0)

    def test_transitions_logged(self):
        monitor = ClusterHealthMonitor()
        monitor.mark_dead(2)
        monitor.begin_rebuild(2)
        assert monitor.transitions == [
            (2, ShardHealth.HEALTHY, ShardHealth.DEAD),
            (2, ShardHealth.DEAD, ShardHealth.REBUILDING),
        ]


class TestFailoverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FailoverConfig(max_attempts=0)
        with pytest.raises(ValueError):
            FailoverConfig(base_backoff_rounds=0)
        with pytest.raises(ValueError):
            FailoverConfig(base_backoff_rounds=4, max_backoff_rounds=2)
        with pytest.raises(ValueError):
            FailoverConfig(timeout_budget_rounds=-1)


class TestFaultInjector:
    def test_per_shard_streams_deterministic(self):
        a = ClusterFaultInjector(master_seed=7, read_error_rate=0.5)
        b = ClusterFaultInjector(master_seed=7, read_error_rate=0.5)
        assert [a.read_error(0) for _ in range(64)] == [
            b.read_error(0) for _ in range(64)
        ]

    def test_shards_decorrelated(self):
        injector = ClusterFaultInjector(master_seed=7, read_error_rate=0.5)
        s0 = [injector.read_error(0) for _ in range(64)]
        s1 = [injector.read_error(1) for _ in range(64)]
        assert s0 != s1

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            ClusterFaultInjector(read_error_rate=1.5)


class TestReplicaPlacement:
    def test_every_object_has_r_copies_distinct_domains(self):
        coordinator = build_ha_cluster()
        for gid in coordinator.object_ids:
            copies = coordinator.replication.copies_of(gid)
            assert len(copies) == 2
            assert len(set(copies)) == 2
            domains = {coordinator.shard(s).domain for s in copies}
            assert len(domains) == 2

    def test_copies_made_in_one_fill_take_distinct_domains(self):
        # Regression: ``_fill`` filtered its candidates once, so with
        # R = 3 the second new copy could land in the first one's domain
        # (6 shards over 3 domains, 60 objects: 22 collisions).
        coordinator = ClusterCoordinator.create(
            6, 2, SPEC, replication_factor=3, num_domains=3, master_seed=7
        )
        for i in range(60):
            coordinator.add_object(f"title-{i}", 20)
        report = check_cluster(coordinator)
        assert report.replica_violations == []
        assert report.clean
        for gid in coordinator.object_ids:
            copies = coordinator.replication.copies_of(gid)
            domains = {coordinator.shard(s).domain for s in copies}
            assert len(copies) == len(domains) == 3

    def test_factor_one_keeps_no_replicas(self):
        coordinator = build_ha_cluster(replication_factor=1)
        assert coordinator._replica_home == {}
        assert coordinator._replica_local == {}

    def test_small_cluster_degrades_not_fails(self):
        # One shard: no legal replica target; objects load degraded
        # (a sizing fact, not an fsck breach).
        coordinator = build_ha_cluster(
            num_shards=1, num_objects=4, num_domains=1
        )
        assert coordinator.replication.replicas_of(0) == ()
        assert check_cluster(coordinator).clean

    def test_rendezvous_rank_stable_under_removal(self):
        coordinator = build_ha_cluster()
        ranked = coordinator.router.replica_rank(5, [0, 1, 2, 3])
        survivors = [sid for sid in ranked if sid != 2]
        assert coordinator.router.replica_rank(5, [0, 1, 3]) == survivors

    def test_repair_closes_gap_after_drop(self):
        coordinator = build_ha_cluster()
        gid = 0
        victim = coordinator.replication.replicas_of(gid)[0]
        coordinator.replication.drop_replica(gid, victim)
        assert len(coordinator.replication.copies_of(gid)) == 1
        coordinator.replication.repair(gid)
        copies = coordinator.replication.copies_of(gid)
        assert len(copies) == 2
        domains = {coordinator.shard(s).domain for s in copies}
        assert len(domains) == 2

    def test_repair_counts_dead_copies_lost_not_dropped(self):
        # Regression: repair() used to book a dead shard's replica as
        # an eviction (copies_dropped), hiding data loss behind the
        # routine-trim counter.
        coordinator = build_ha_cluster()
        gid = 0
        manager = coordinator.replication
        victim = manager.replicas_of(gid)[0]
        coordinator.kill_shard(victim)
        dropped_before = manager.copies_dropped
        lost_before = manager.copies_lost
        manager.repair(gid)
        assert manager.copies_lost == lost_before + 1
        assert manager.copies_dropped == dropped_before
        copies = manager.copies_of(gid)
        assert len(copies) == 2
        assert all(coordinator.health.is_live(s) for s in copies)

    def test_voluntary_drop_counts_dropped_not_lost(self):
        coordinator = build_ha_cluster()
        gid = 0
        manager = coordinator.replication
        victim = manager.replicas_of(gid)[0]
        dropped_before = manager.copies_dropped
        lost_before = manager.copies_lost
        manager.drop_replica(gid, victim)
        assert manager.copies_dropped == dropped_before + 1
        assert manager.copies_lost == lost_before

    def test_double_drop_raises_typed_error(self):
        # Regression: a double drop used to escape as a bare KeyError
        # on the internal (gid, shard) bookkeeping tuple.
        coordinator = build_ha_cluster()
        gid = 0
        victim = coordinator.replication.replicas_of(gid)[0]
        coordinator.replication.drop_replica(gid, victim)
        with pytest.raises(
            ReplicationError,
            match=f"object {gid} has no replica recorded on shard {victim}",
        ):
            coordinator.replication.drop_replica(gid, victim)

    def test_fsck_flags_domain_collision(self):
        coordinator = build_ha_cluster()
        gid = 0
        home = coordinator.shard_of(gid)
        same_dom = next(
            s.shard_id
            for s in coordinator.shards
            if s.shard_id != home
            and s.domain == coordinator.shard(home).domain
        )
        victim = coordinator.replication.replicas_of(gid)[0]
        coordinator.replication.drop_replica(gid, victim)
        coordinator.replication._copy_to(gid, same_dom)
        report = check_cluster(coordinator)
        assert any(
            v.kind == "domain-collision" for v in report.replica_violations
        )
        assert not report.clean

    def test_replication_survives_reshard(self):
        coordinator = build_ha_cluster()
        coordinator.reshard(ScalingOp.add(1))
        report = check_cluster(coordinator)
        assert report.clean and report.fully_replicated
        coordinator.reshard(ScalingOp.remove([0]))
        report = check_cluster(coordinator)
        assert report.clean and report.fully_replicated
        for gid in coordinator.object_ids:
            assert len(coordinator.replication.copies_of(gid)) == 2


class TestFailoverRouting:
    def test_healthy_cluster_routes_home(self):
        coordinator = build_ha_cluster()
        for gid in coordinator.object_ids:
            route = coordinator.route_read(gid)
            assert route.shard_id == coordinator.shard_of(gid)
            assert not route.failed_over
            assert route.attempts == 1 and route.backoff_rounds == 0

    def test_batch_matches_scalar_on_healthy_cluster(self):
        coordinator = build_ha_cluster()
        gids = list(coordinator.object_ids)
        batch = coordinator.route_reads(gids)
        scalar = [coordinator.route_read(g).shard_id for g in gids]
        assert batch.tolist() == scalar

    def test_dead_home_fails_over_to_replica(self):
        coordinator = build_ha_cluster()
        gid = 0
        home = coordinator.shard_of(gid)
        replica = coordinator.replication.replicas_of(gid)[0]
        coordinator.kill_shard(home)
        route = coordinator.route_read(gid)
        assert route.failed_over and route.shard_id == replica
        assert route.path[0] == home  # home considered (and skipped) first
        assert coordinator.failover_reads >= 1

    def test_batch_falls_back_when_degraded(self):
        coordinator = build_ha_cluster()
        coordinator.kill_shard(coordinator.shard_of(0))
        gids = list(coordinator.object_ids)
        batch = coordinator.route_reads(gids)
        scalar = [coordinator.route_read(g).shard_id for g in gids]
        assert batch.tolist() == scalar

    def test_injected_errors_retry_with_backoff(self):
        injector = ClusterFaultInjector(master_seed=3, read_error_rate=0.45)
        coordinator = build_ha_cluster(fault_injector=injector)
        routes = []
        for gid in coordinator.object_ids:
            for _ in range(8):
                try:
                    routes.append(coordinator.route_read(gid))
                except ObjectUnavailableError:
                    pass
        assert any(r.attempts > 1 for r in routes)
        assert any(r.backoff_rounds > 0 for r in routes)
        assert coordinator.failover_retries > 0
        # Every injected failure fed the retry accounting one-for-one.
        assert injector.read_errors == coordinator.failover_retries

    def test_timeout_budget_caps_retries(self):
        # Budget 0: the first retry's backoff already exceeds it, so
        # each copy gets exactly one attempt before falling over.
        injector = ClusterFaultInjector(master_seed=3, read_error_rate=1.0)
        coordinator = build_ha_cluster(
            fault_injector=injector,
            failover=FailoverConfig(max_attempts=5, timeout_budget_rounds=0),
        )
        with pytest.raises(ObjectUnavailableError):
            coordinator.route_read(0)
        assert injector.read_errors == 2  # home + one replica, once each

    def test_timeout_budget_is_route_wide(self):
        # Regression: the budget used to reset per shard, so a long
        # replica chain could wait copies x budget rounds.  One
        # allowance now covers the whole failover path; once spent,
        # each remaining copy gets exactly one backoff-free probe.
        injector = ClusterFaultInjector(master_seed=3, read_error_rate=1.0)
        coordinator = build_ha_cluster(
            fault_injector=injector,
            failover=FailoverConfig(
                max_attempts=10,
                base_backoff_rounds=1,
                max_backoff_rounds=4,
                timeout_budget_rounds=3,
            ),
        )
        with pytest.raises(ObjectUnavailableError):
            coordinator.route_read(0)
        # Home: three attempts (backoffs 1 + 2 spend the budget, the
        # third retry's charge of 4 overflows).  Replica: one probe,
        # not a fresh budget's worth of ten attempts.
        assert injector.read_errors == 4

    def test_unavailable_when_every_copy_dead(self):
        coordinator = build_ha_cluster(num_domains=4)
        gid = 0
        for sid in coordinator.replication.copies_of(gid):
            coordinator.kill_shard(sid)
        with pytest.raises(ObjectUnavailableError):
            coordinator.route_read(gid)

    def test_repeated_failures_trip_breaker(self):
        injector = ClusterFaultInjector(master_seed=5, read_error_rate=1.0)
        coordinator = build_ha_cluster(fault_injector=injector)
        gid = 0
        home = coordinator.shard_of(gid)
        for _ in range(4):
            with pytest.raises(ObjectUnavailableError):
                coordinator.route_read(gid)
        assert coordinator.health.state(home) is ShardHealth.SUSPECT
        assert not coordinator.health.all_unimpeded(coordinator.shard_ids)


class TestShardDeath:
    def test_streams_fail_over_at_position(self):
        coordinator = build_ha_cluster()
        gid = 0
        coordinator.admit_stream(7, gid)
        coordinator.run_rounds(3)
        home = coordinator.shard_of(gid)
        position = stream_on(coordinator.shard(home), 7).position
        assert position > 0
        report = coordinator.kill_shard(home)
        assert report.streams_failed_over == 1
        assert report.streams_stranded == 0
        replica = coordinator.replication.replicas_of(gid)[0]
        moved = stream_on(coordinator.shard(replica), 7)
        assert moved is not None and moved.position == position
        assert_viewer_index_agrees(coordinator)
        assert coordinator.depart_stream(7) is moved

    def test_conservation_through_death(self):
        coordinator = build_ha_cluster(num_objects=8)
        for i, gid in enumerate(coordinator.object_ids):
            coordinator.admit_stream(100 + i, gid)
        victim = coordinator.shard_of(0)
        coordinator.run_rounds(2)
        coordinator.kill_shard(victim)
        for _ in range(4):
            report = coordinator.run_round()
            assert report.requested == (
                report.served + report.hiccups + report.queued
            )
            assert report.availability == 1.0  # R=2 covered every stream

    def test_r1_death_strands_and_charges_hiccups(self):
        coordinator = build_ha_cluster(replication_factor=1, num_objects=8)
        for i, gid in enumerate(coordinator.object_ids):
            coordinator.admit_stream(100 + i, gid)
        victim = coordinator.shard_of(0)
        doomed = [
            g for g in coordinator.object_ids
            if coordinator.shard_of(g) == victim
        ]
        report = coordinator.kill_shard(victim)
        assert report.streams_stranded == len(doomed)
        round_report = coordinator.run_round()
        assert round_report.stranded > 0
        assert round_report.availability < 1.0
        assert round_report.requested == (
            round_report.served
            + round_report.hiccups
            + round_report.queued
        )

    def test_report_counts_only_moved_viewers_as_failed_over(self):
        # A stream admitted straight into the scheduler has no title the
        # coordinator can route: the death drops it and says so, and a
        # finished viewer departs; neither counts as failed over.
        coordinator = build_ha_cluster()
        gid = 0
        home = coordinator.shard_of(gid)
        shard = coordinator.shard(home)
        moved = coordinator.admit_stream(1, gid, start_block=3)
        done = coordinator.admit_stream(2, gid, start_block=39)
        direct = Stream(3, shard.server.catalog.get(coordinator.local_id_of(gid)))
        shard.scheduler.admit(direct)
        coordinator.run_round()
        assert done.state is StreamState.DONE
        report = coordinator.kill_shard(home)
        assert report == ShardDeathReport(
            home,
            streams_failed_over=1,
            streams_stranded=0,
            streams_finished=1,
            streams_dropped=1,
        )
        assert set(coordinator._streams) == {1}
        assert not len(shard.scheduler.table)
        # The moved viewer's handle stays the live one, at its position.
        replica = coordinator.replicas_of(gid)[0]
        assert stream_on(coordinator.shard(replica), 1) is moved
        assert moved.position == 4
        assert direct._table is None and direct.position == 1
        assert_viewer_index_agrees(coordinator)

    def test_unavailable_route_strands_the_titles_whole_audience(self):
        # With a fault injector attached, a title's viewers share one
        # route draw at a death.  When that route finds no copy, the
        # whole audience strands, and it stays stranded after reads of
        # the title succeed again: nothing moves a stranded row back,
        # so each viewer stays until it departs (or the title is lost).
        injector = ClusterFaultInjector(master_seed=3)
        coordinator = build_ha_cluster(fault_injector=injector)
        gid = 0
        home = coordinator.shard_of(gid)
        audience = [coordinator.admit_stream(sid, gid) for sid in range(5)]
        routed = []
        route_read = coordinator.route_read

        def counted(object_id, round_index=None):
            routed.append(object_id)
            return route_read(object_id, round_index)

        coordinator.route_read = counted
        injector.read_error_rate = 1.0
        report = coordinator.kill_shard(home)
        assert routed == [gid]
        assert report.streams_stranded == len(audience)
        assert report.streams_failed_over == 0

        injector.read_error_rate = 0.0
        reports = coordinator.run_rounds(12)
        assert coordinator.route_read(gid).shard_id != home
        assert all(r.stranded == len(audience) for r in reports)
        assert [s.stream_id for s in coordinator._stranded.handles()] == [
            s.stream_id for s in audience
        ]
        assert all(s._table is coordinator._stranded for s in audience)
        coordinator.depart_stream(audience[0].stream_id)
        assert len(coordinator._stranded) == len(audience) - 1
        assert coordinator.run_round().stranded == len(audience) - 1
        assert_viewer_index_agrees(coordinator)

    def test_kill_rejects_already_dead(self):
        coordinator = build_ha_cluster()
        coordinator.kill_shard(0)
        with pytest.raises(HealthTransitionError):
            coordinator.kill_shard(0)

    def test_dead_shard_refuses_scale_and_reshuffle(self):
        coordinator = build_ha_cluster()
        coordinator.kill_shard(0)
        with pytest.raises(HealthTransitionError):
            coordinator.scale_shard(0, ScalingOp.add(1))
        with pytest.raises(HealthTransitionError):
            coordinator.reshuffle_shard(0)

    def test_depart_stranded_stream(self):
        coordinator = build_ha_cluster(replication_factor=1)
        gid = 0
        coordinator.admit_stream(9, gid)
        coordinator.kill_shard(coordinator.shard_of(gid))
        stream = coordinator.depart_stream(9)
        assert stream.stream_id == 9
        assert coordinator.run_round().stranded == 0


class TestShardRebuild:
    def test_rebuild_restores_full_replication(self):
        coordinator = build_ha_cluster()
        victim = coordinator.shard_of(0)
        coordinator.kill_shard(victim)
        rebuilder = coordinator.begin_shard_rebuild(victim)
        assert coordinator.health.state(victim) is ShardHealth.REBUILDING
        rebuilder.run()
        rebuilder.finish()
        assert victim not in coordinator._shard_by_id
        report = check_cluster(coordinator)
        assert report.clean and report.fully_replicated
        for gid in coordinator.object_ids:
            copies = coordinator.replication.copies_of(gid)
            assert victim not in copies
            assert len(copies) == 2
            domains = {coordinator.shard(s).domain for s in copies}
            assert len(domains) == 2

    def test_rebuild_rate_bounded(self):
        coordinator = build_ha_cluster(num_objects=16)
        victim = coordinator.shard_of(0)
        coordinator.kill_shard(victim)
        rebuilder = coordinator.begin_shard_rebuild(victim, rate_per_round=2)
        total = len(rebuilder.pending.moves)
        assert total > 0
        steps = 0
        while not rebuilder.done:
            assert rebuilder.step() <= 2
            coordinator.run_round()  # rebuild never blocks serving
            steps += 1
        assert steps >= (total + 1) // 2
        assert rebuilder.progress == 1.0
        rebuilder.finish()

    def test_promotion_avoids_copying(self):
        # When the router sends an object to a shard already holding
        # its replica, the rebuild promotes the copy instead of moving
        # blocks — rendezvous overlap makes this the typical case.
        coordinator = build_ha_cluster(num_objects=24)
        victim = coordinator.shard_of(0)
        coordinator.kill_shard(victim)
        rebuilder = coordinator.begin_shard_rebuild(victim)
        promoted = sum(
            1
            for move in rebuilder.pending.moves
            if move.target_shard
            in coordinator.replication.replicas_of(move.object_id)
        )
        assert promoted > 0
        rebuilder.run()
        rebuilder.finish()
        assert check_cluster(coordinator).fully_replicated

    def test_rebuild_requires_dead_shard(self):
        coordinator = build_ha_cluster()
        with pytest.raises(HealthTransitionError):
            coordinator.begin_shard_rebuild(0)

    def test_rebuild_requires_removal_capable_router(self):
        # jump_hash removes tail slots only; a mid-table dead shard
        # cannot be rebuilt and the error leaves the cluster untouched.
        coordinator = build_ha_cluster(
            router_backend="jump_hash", num_domains=4
        )
        coordinator.kill_shard(0)
        with pytest.raises(Exception):
            coordinator.begin_shard_rebuild(0)
        assert coordinator._in_flight is None
        assert coordinator.health.state(0) is ShardHealth.DEAD

    def test_abort_restores_tombstone_homes(self):
        coordinator = build_ha_cluster()
        victim = coordinator.shard_of(0)
        homes_before = dict(coordinator._home)
        coordinator.kill_shard(victim)
        rebuilder = coordinator.begin_shard_rebuild(victim, rate_per_round=1)
        rebuilder.step()
        assert rebuilder.pending.applied
        coordinator.abort_reshard(rebuilder.pending)
        assert coordinator._home == homes_before
        assert coordinator.health.state(victim) is ShardHealth.DEAD
        # A retried rebuild completes cleanly.
        retry = coordinator.begin_shard_rebuild(victim)
        retry.run()
        retry.finish()
        report = check_cluster(coordinator)
        assert report.clean and report.fully_replicated

    def test_kill_mid_rebalance_then_rebuild(self):
        coordinator = build_ha_cluster(num_objects=16)
        pending = coordinator.begin_reshard(ScalingOp.add(1))
        coordinator.migrate_next(pending)
        victim = next(
            sid
            for sid in coordinator.shard_ids
            if sid not in pending.new_shard_ids
        )
        coordinator.kill_shard(victim)
        # The open rebalance completes (dead sources fall back to
        # replicas or promotion), then the dead shard rebuilds.
        coordinator.execute_reshard(pending)
        coordinator.finish_reshard(pending)
        rebuilder = coordinator.begin_shard_rebuild(victim)
        rebuilder.run()
        rebuilder.finish()
        report = check_cluster(coordinator)
        assert report.clean and report.fully_replicated
        assert coordinator.lost_objects == 0

    def test_readmit_restores_capacity(self):
        coordinator = build_ha_cluster()
        victim = coordinator.shard_of(0)
        coordinator.kill_shard(victim)
        coordinator.rebuild_shard(victim)
        assert coordinator.num_shards == 3
        coordinator.readmit_shard()
        assert coordinator.num_shards == 4
        report = check_cluster(coordinator)
        assert report.clean and report.fully_replicated

    def test_lost_titles_viewers_leave_and_the_rest_stay(self):
        # R=1: the victim's titles have no other copy, so the rebuild
        # declares them lost and their (stranded) viewers leave; every
        # other viewer keeps playing through kill -> rebuild -> readmit.
        titles, viewers = 24, 72
        coordinator = build_ha_cluster(
            replication_factor=1, num_objects=titles
        )
        for sid in range(viewers):
            coordinator.admit_stream(sid, sid % titles, start_block=sid % 7)
        coordinator.run_rounds(2)
        victim = coordinator.shard_of(0)
        doomed = {
            g for g in coordinator.object_ids
            if coordinator.shard_of(g) == victim
        }
        lost_viewers = {
            sid for sid in range(viewers) if sid % titles in doomed
        }
        assert doomed and lost_viewers
        assert_viewer_index_agrees(coordinator)
        death = coordinator.kill_shard(victim)
        assert death.streams_stranded == len(lost_viewers)
        assert_viewer_index_agrees(coordinator)
        coordinator.rebuild_shard(victim)
        assert coordinator.lost_objects == len(doomed)
        assert set(coordinator._streams) == set(range(viewers)) - lost_viewers
        assert not coordinator._stranded
        assert doomed.isdisjoint(coordinator._viewers)
        assert_viewer_index_agrees(coordinator)
        for sid in lost_viewers:
            with pytest.raises(KeyError):
                coordinator.depart_stream(sid)
        survivors = set(coordinator.shard_ids)
        coordinator.readmit_shard()
        # The readmitted shard took titles with viewers: they were
        # re-homed onto fresh handles.
        assert any(
            coordinator.shard_of(gid) not in survivors
            for gid in coordinator._streams.values()
        )
        assert_viewer_index_agrees(coordinator)
        report = coordinator.run_round()
        assert report.stranded == 0
        assert report.requested == viewers - len(lost_viewers)
        assert report.requested == (
            report.served + report.hiccups + report.queued
        )
        for sid in sorted(coordinator._streams):
            coordinator.depart_stream(sid)
        assert not coordinator._viewers
        assert not any(len(shard.scheduler.table) for shard in coordinator.shards)

    def test_r1_rebuild_declares_loss(self):
        coordinator = build_ha_cluster(replication_factor=1)
        victim = coordinator.shard_of(0)
        doomed = [
            g for g in coordinator.object_ids
            if coordinator.shard_of(g) == victim
        ]
        coordinator.kill_shard(victim)
        coordinator.rebuild_shard(victim)
        assert coordinator.lost_objects == len(doomed)
        assert coordinator.lost_blocks == 40 * len(doomed)
        assert all(g not in coordinator.object_ids for g in doomed)
        assert check_cluster(coordinator).clean


class TestJournalLayering:
    def test_reshard_refused_while_shard_scale_open(self, tmp_path):
        coordinator = build_ha_cluster(
            journal=ClusterJournal(str(tmp_path / "cluster.journal"))
        )
        shard = coordinator.shard(1)
        shard_pending = shard.server.begin_scale(ScalingOp.add(1))
        with pytest.raises(OperationInFlightError):
            coordinator.begin_reshard(ScalingOp.add(1))
        # The refusal journaled nothing at the cluster level.
        assert coordinator.journal.replay() == []
        shard.server.abort_scale(shard_pending)
        pending = coordinator.begin_reshard(ScalingOp.add(1))
        coordinator.execute_reshard(pending)
        coordinator.finish_reshard(pending)
        assert coordinator.journal.replay()[-1].committed

    def test_shard_scale_refused_while_reshard_open(self, tmp_path):
        coordinator = build_ha_cluster(
            journal=ClusterJournal(str(tmp_path / "cluster.journal"))
        )
        pending = coordinator.begin_reshard(ScalingOp.add(1))
        with pytest.raises(OperationInFlightError):
            coordinator.scale_shard(1, ScalingOp.add(1))
        with pytest.raises(OperationInFlightError):
            coordinator.reshuffle_shard(1)
        coordinator.execute_reshard(pending)
        coordinator.finish_reshard(pending)
        # Both journals are quiescent afterwards: the cluster record is
        # committed and the per-shard op runs clean.
        assert coordinator.journal.replay()[-1].committed
        coordinator.scale_shard(1, ScalingOp.add(1))

    def test_rebuild_guard_exempts_the_dead_shard(self, tmp_path):
        coordinator = build_ha_cluster(
            journal=ClusterJournal(str(tmp_path / "cluster.journal"))
        )
        coordinator.kill_shard(0)
        # A live shard's open op still blocks the rebuild...
        shard = coordinator.shard(1)
        shard_pending = shard.server.begin_scale(ScalingOp.add(1))
        with pytest.raises(OperationInFlightError):
            coordinator.begin_shard_rebuild(0)
        shard.server.abort_scale(shard_pending)
        # ...but the dead shard itself is exempt from the guard (its
        # frozen server state is never consulted).
        rebuilder = coordinator.begin_shard_rebuild(0)
        rebuilder.run()
        rebuilder.finish()
        assert check_cluster(coordinator).fully_replicated


class TestDeterminism:
    def run_story(self):
        from repro.obs import Obs

        coordinator = build_ha_cluster(obs=Obs())
        for i, gid in enumerate(coordinator.object_ids[:6]):
            coordinator.admit_stream(100 + i, gid)
        coordinator.run_rounds(2)
        victim = coordinator.shard_of(0)
        coordinator.kill_shard(victim)
        rebuilder = coordinator.begin_shard_rebuild(victim)
        while not rebuilder.done:
            rebuilder.step()
            coordinator.run_round()
        rebuilder.finish()
        coordinator.readmit_shard()
        coordinator.run_rounds(2)
        return coordinator

    def test_same_seed_runs_identical(self):
        a = self.run_story()
        b = self.run_story()
        assert a._home == b._home
        assert a._replica_home == b._replica_home
        assert a._replica_local == b._replica_local
        assert merged_deterministic_view(a) == merged_deterministic_view(b)

    def test_streams_keep_playing_through_lifecycle(self):
        coordinator = self.run_story()
        for stream_id in range(100, 106):
            stream = coordinator.depart_stream(stream_id)
            assert stream.state in (StreamState.PLAYING, StreamState.DONE)


class TestRefusedFailover:
    """A survivor's admission control refusing a failed-over viewer
    must never lose the viewer: the next live copy in route order is
    tried, and the viewer is stranded only when every copy refuses."""

    @staticmethod
    def full_cluster(replication_factor: int) -> ClusterCoordinator:
        coordinator = ClusterCoordinator.create(
            3, 1,
            DiskSpec(capacity_blocks=50_000, bandwidth_blocks_per_round=4),
            bits=32, master_seed=0x1A,
            replication_factor=replication_factor,
        )
        for i in range(6):
            coordinator.add_object(f"title-{i}", 30)
        return coordinator

    @staticmethod
    def viewer_homes(coordinator, viewers) -> dict:
        """stream id -> the live shards serving it (stranded: none)."""
        homes: dict = {sid: [] for sid in viewers}
        for shard in coordinator.shards:
            if coordinator.health.is_live(shard.shard_id):
                for stream in shard.scheduler.streams:
                    homes[stream.stream_id].append(shard.shard_id)
        return homes

    def test_every_viewer_served_once_or_stranded(self):
        coordinator = self.full_cluster(replication_factor=2)
        admitted, gid = [], 0
        while len(admitted) < 8:  # fill each home shard, then move on
            try:
                coordinator.admit_stream(len(admitted), gid, len(admitted))
                admitted.append(len(admitted))
            except ValueError:
                gid += 1
        busiest = max(
            coordinator.shard_ids,
            key=lambda sid: len(coordinator.shard(sid).scheduler.streams),
        )
        report = coordinator.kill_shard(busiest)
        homes = self.viewer_homes(coordinator, admitted)
        for sid in admitted:
            stranded = sid in coordinator._stranded
            assert len(homes[sid]) == (0 if stranded else 1), sid
        assert report.streams_stranded == len(coordinator._stranded) > 0
        round_report = coordinator.run_round()
        assert round_report.stranded > 0
        assert round_report.availability < 1.0

    def test_refusal_falls_through_to_the_next_copy(self):
        from repro.server.admission import AdmissionRefusedError

        coordinator = self.full_cluster(replication_factor=3)
        victim = coordinator.shard_of(0)
        first, second = coordinator.replicas_of(0)
        # Fill the first failover target to its admission limit.
        sid = 0
        for gid in coordinator.object_ids:
            while coordinator.shard_of(gid) == first:
                try:
                    coordinator.admit_stream(100 + sid, gid)
                except AdmissionRefusedError:
                    break
                sid += 1
        assert sid == 4
        coordinator.admit_stream(0, 0, start_block=5)
        coordinator.admit_stream(1, 0, start_block=9)
        coordinator.shard(victim).scheduler.streams[1].pause()
        report = coordinator.kill_shard(victim)
        assert report.streams_stranded == 0
        moved = {s.stream_id: s for s in coordinator.shard(second).scheduler.streams}
        assert moved[0].position == 5 and moved[1].position == 9
        assert moved[1].state is StreamState.PAUSED
