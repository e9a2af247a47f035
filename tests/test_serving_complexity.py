"""Serving-round cost, pinned by counts rather than wall time.

A vectorized round works on the stream table's columns, so it must not
call any per-stream method: the count of ``Stream.deliver``,
``Stream.demand_window`` and ``Stream.is_active`` calls is exactly 0
at n and at 4n viewers — on the simple path, on the degraded path, and
in a cluster round that feeds a popularity tracker.  Nor does it call
any per-object one: a steady round reads the batch locator's home
column, with 0 ``CMServer.block_x0`` and 0 ``ObjectCatalog.get``
calls at n and 4n objects.  It runs no placement kernel either: 0
``locate_batch`` calls in a steady round, exactly one (over every
block the locator has laid out) in the first round after a scaling
operation, and one over exactly the new copy's blocks in the first
round that serves a replica copy landed since, at n and 4n objects and
viewers.  An admission to a healthy home touches no
health machinery (0 ``observe_success`` and 0 ``breaker`` calls).  A
cluster round's demand feed queues one entry per title, the same at n
and 4n viewers.  Admitting a viewer to a healthy home and departing it
are flat passes: at most 6 Python-level calls per admission (7 with a
popularity policy) and 2 per departure, the same at n and 4n titles.
The table's own bookkeeping is amortized O(1): m admissions,
departures and seeks copy O(m) rows in all, however the departures
interleave.  Moving viewers off a dead shard or with a migrating title
routes once per title (the same count at n and 4n viewers), builds no
``Stream``, admits and departs nothing through a scheduler, and copies
O(viewers) rows.
"""

from __future__ import annotations

import gc
import random
import sys
from collections import Counter

import numpy as np
import pytest

from repro.cluster import ClusterCoordinator, ReplicationPolicy
from repro.cluster.health import ClusterHealthMonitor
from repro.cluster.popularity import DemandTracker
from repro.core.operations import ScalingOp
from repro.placement.pseudo_random import ScaddarPolicy
from repro.server.cmserver import CMServer
from repro.server.objects import ObjectCatalog
from repro.server.reads import build_degraded_stack
from repro.server.scheduler import RoundScheduler
from repro.server.streams import Stream, StreamTable
from repro.storage.disk import DiskSpec
from repro.workloads.generator import uniform_catalog

SIZES = (60, 240)  # n and 4n viewers
OBJECT_SIZES = (8, 32)  # n and 4n objects
ROUNDS = 3


def counting(counts: Counter, name: str, fn):
    """``fn``, counting its calls into ``counts[name]``."""

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


@pytest.fixture
def calls(monkeypatch):
    """Counts calls to the per-stream methods a round could fall back
    on (and to the tracker's scalar feed)."""
    counts: Counter = Counter()
    monkeypatch.setattr(
        Stream, "deliver", counting(counts, "deliver", Stream.deliver)
    )
    monkeypatch.setattr(
        Stream,
        "demand_window",
        counting(counts, "demand_window", Stream.demand_window),
    )
    monkeypatch.setattr(
        Stream,
        "is_active",
        property(counting(counts, "is_active", Stream.is_active.fget)),
    )
    monkeypatch.setattr(
        DemandTracker, "record", counting(counts, "record", DemandTracker.record)
    )
    return counts


@pytest.fixture
def lookups(monkeypatch):
    """Counts the per-object lookups a round or an admission could make:
    X0 and catalog reads, and the routed read's health machinery."""
    counts: Counter = Counter()
    for owner, name in (
        (CMServer, "block_x0"),
        (ObjectCatalog, "get"),
        (ClusterHealthMonitor, "observe_success"),
        (ClusterHealthMonitor, "breaker"),
    ):
        monkeypatch.setattr(
            owner, name, counting(counts, name, getattr(owner, name))
        )
    return counts


def server_for(viewers: int) -> CMServer:
    catalog = uniform_catalog(8, 50, master_seed=0x5EED, bits=32)
    spec = DiskSpec(capacity_blocks=5_000, bandwidth_blocks_per_round=viewers)
    return CMServer(catalog, [spec] * 4, bits=32)


def admit(scheduler, catalog, viewers: int) -> None:
    for sid in range(viewers):
        media = catalog.get(sid % len(catalog))
        scheduler.admit(Stream(sid, media, start_block=sid % 40))
    for stream in scheduler.streams[::7]:
        stream.pause()


class TestNoPerStreamCallsInARound:
    def test_simple_path(self, calls):
        for viewers in SIZES:
            server = server_for(viewers)
            scheduler = RoundScheduler(
                server.array,
                locator=server.computed_locator(),
                batch_locator=server.computed_batch_locator(),
            )
            admit(scheduler, server.catalog, viewers)
            calls.clear()
            reports = scheduler.run_rounds(ROUNDS)
            assert sum(r.served for r in reports) > 0
            assert calls == Counter(), f"{viewers} viewers: {dict(calls)}"

    def test_degraded_path(self, calls):
        for viewers in SIZES:
            server = server_for(viewers)
            stack = build_degraded_stack(server, protection="mirror")
            # A dead disk sends its reads down the per-read planner; the
            # rows are still delivered as one batch.
            stack.monitor.mark_dead(server.array.physical_ids[0])
            admit(stack.scheduler, server.catalog, viewers)
            calls.clear()
            reports = stack.scheduler.run_rounds(ROUNDS)
            assert sum(r.failover_reads for r in reports) > 0
            assert calls == Counter(), f"{viewers} viewers: {dict(calls)}"

    def test_cluster_round_with_popularity_policy(self, calls):
        for viewers in SIZES:
            coordinator = ClusterCoordinator.create(
                3, 2,
                DiskSpec(capacity_blocks=50_000,
                         bandwidth_blocks_per_round=viewers),
                bits=32, master_seed=0xC0DE,
                replication_policy=ReplicationPolicy(12),
            )
            for i in range(8):
                coordinator.add_object(f"title-{i}", 40)
            for sid in range(viewers):
                coordinator.admit_stream(sid, sid % 8, start_block=sid % 30)
            calls.clear()
            coordinator.run_rounds(ROUNDS)
            assert coordinator.replication.tracker.total_units >= viewers
            assert calls == Counter(), f"{viewers} viewers: {dict(calls)}"


class TestNoPerObjectLookupsInARound:
    def test_simple_path(self, lookups):
        for objects in OBJECT_SIZES:
            catalog = uniform_catalog(objects, 50, master_seed=0x5EED, bits=32)
            spec = DiskSpec(capacity_blocks=5_000, bandwidth_blocks_per_round=64)
            server = CMServer(catalog, [spec] * 4, bits=32)
            scheduler = RoundScheduler(
                server.array,
                locator=server.computed_locator(),
                batch_locator=server.computed_batch_locator(),
            )
            admit(scheduler, catalog, 2 * objects)  # every object demanded
            scheduler.run_round()  # first demand lays out the X0 column
            lookups.clear()
            reports = scheduler.run_rounds(ROUNDS)
            assert sum(r.served for r in reports) > 0
            assert lookups == Counter(), f"{objects} objects: {dict(lookups)}"

    def test_cluster_round(self, lookups):
        for objects in OBJECT_SIZES:
            coordinator = ClusterCoordinator.create(
                3, 2,
                DiskSpec(capacity_blocks=50_000, bandwidth_blocks_per_round=64),
                bits=32, master_seed=0xC0DE, replication_factor=2,
            )
            for i in range(objects):
                coordinator.add_object(f"title-{i}", 40)
            for sid in range(2 * objects):
                coordinator.admit_stream(sid, sid % objects, start_block=sid % 30)
            coordinator.run_round()
            lookups.clear()
            reports = coordinator.run_rounds(ROUNDS)
            assert sum(r.served for r in reports) > 0
            assert lookups == Counter(), f"{objects} objects: {dict(lookups)}"


@pytest.fixture
def kernel(monkeypatch):
    """The ``X0`` input of every call to the SCADDAR backend's
    ``locate_batch`` kernel (the default backend's), in call order."""
    inputs: list[np.ndarray] = []
    original = ScaddarPolicy.locate_batch

    def record(self, block_ids, x0s):
        inputs.append(np.asarray(x0s))
        return original(self, block_ids, x0s)

    monkeypatch.setattr(ScaddarPolicy, "locate_batch", record)
    return inputs


class TestLocateOncePerPlacementChange:
    def test_steady_rounds_and_a_scaling_operation(self, kernel):
        for objects, viewers in zip(OBJECT_SIZES, SIZES):
            catalog = uniform_catalog(objects, 50, master_seed=0x5EED, bits=32)
            spec = DiskSpec(
                capacity_blocks=5_000, bandwidth_blocks_per_round=viewers
            )
            server = CMServer(catalog, [spec] * 4, bits=32)
            scheduler = RoundScheduler(
                server.array,
                locator=server.computed_locator(),
                batch_locator=server.computed_batch_locator(),
            )
            admit(scheduler, catalog, viewers)  # every object demanded
            scheduler.run_round()  # first demand locates every object
            kernel.clear()
            scheduler.run_rounds(ROUNDS)
            assert kernel == [], f"{objects} objects: steady"
            server.scale(ScalingOp.add(1))
            kernel.clear()
            scheduler.run_rounds(ROUNDS)
            laid_out = np.concatenate([m.x0_column() for m in catalog])
            assert len(kernel) == 1, f"{objects} objects: {len(kernel)} calls"
            assert np.array_equal(np.sort(kernel[0]), np.sort(laid_out))

    def test_a_replica_copy_landing(self, kernel):
        for objects, viewers in zip(OBJECT_SIZES, SIZES):
            coordinator = ClusterCoordinator.create(
                3, 2,
                DiskSpec(capacity_blocks=50_000,
                         bandwidth_blocks_per_round=viewers),
                bits=32, master_seed=0xC0DE, replication_factor=2,
            )
            for i in range(objects):
                coordinator.add_object(f"title-{i}", 40)
            for sid in range(viewers):
                coordinator.admit_stream(sid, sid % objects, start_block=sid % 30)
            coordinator.run_round()
            (old,) = coordinator.replicas_of(0)
            coordinator.replication.drop_replica(0, old)
            coordinator.replication.repair(0)  # a new copy lands
            (target,) = coordinator.replicas_of(0)
            home = coordinator.shard_of(0)
            for __ in range(3):  # the home's breaker trips
                coordinator.health.observe_failure(home, coordinator.round_index)
            coordinator.admit_stream(viewers, 0)  # served by the new copy
            copy = coordinator.shard(target)
            assert viewers in copy.scheduler.table
            local = max(media.object_id for media in copy.server.catalog)
            kernel.clear()
            coordinator.run_round()
            assert len(kernel) == 1, f"{objects} objects: {len(kernel)} calls"
            assert np.array_equal(kernel[0], copy.server.x0_column(local))
            kernel.clear()
            coordinator.run_rounds(ROUNDS)
            assert kernel == [], f"{objects} objects: steady after the copy"


class TestDemandFeedPerTitle:
    TITLES = 8

    def feed_entries(self, monkeypatch, viewers: int) -> int:
        """Tracker entries one cluster round queues with ``viewers``
        viewers spread over the same titles."""
        coordinator = ClusterCoordinator.create(
            3, 2,
            DiskSpec(capacity_blocks=50_000,
                     bandwidth_blocks_per_round=viewers),
            bits=32, master_seed=0xC0DE,
            replication_policy=ReplicationPolicy(12),
        )
        for i in range(self.TITLES):
            coordinator.add_object(f"title-{i}", 40)
        for sid in range(viewers):
            coordinator.admit_stream(
                sid, sid % self.TITLES, start_block=sid % 30
            )
        coordinator.run_round()
        entries = Counter()
        tracker = coordinator.replication.tracker
        for name in ("record_batch", "record_counts"):
            original = getattr(tracker, name)

            def queue(gids, *args, _original=original):
                entries["queued"] += len(gids)
                return _original(gids, *args)

            monkeypatch.setattr(tracker, name, queue)
        units = tracker.total_units
        coordinator.run_round()
        assert tracker.total_units - units == viewers
        return entries["queued"]

    def test_entries_scale_with_titles_not_viewers(self, monkeypatch):
        small, large = (
            self.feed_entries(monkeypatch, viewers) for viewers in SIZES
        )
        assert small == large
        assert 0 < small <= self.TITLES


class TestHealthyRouting:
    @staticmethod
    def cluster(objects: int) -> ClusterCoordinator:
        coordinator = ClusterCoordinator.create(
            3, 2,
            DiskSpec(capacity_blocks=50_000, bandwidth_blocks_per_round=512),
            bits=32, master_seed=0xC0DE, replication_factor=2,
        )
        for i in range(objects):
            coordinator.add_object(f"title-{i}", 40)
        return coordinator

    def test_admission_touches_no_health_machinery(self, lookups):
        for viewers in SIZES:
            coordinator = self.cluster(8)
            lookups.clear()
            for sid in range(viewers):
                coordinator.admit_stream(sid, sid % 8)
            for gid in coordinator.object_ids:
                home = coordinator.shard_of(gid)
                route = coordinator.route_read(gid)
                assert (route.shard_id, route.attempts, route.path) == (
                    home, 1, (home,)
                )
                assert not route.failed_over
                assert route.backoff_rounds == 0
            assert lookups["observe_success"] == 0, viewers
            assert lookups["breaker"] == 0, viewers

    def test_partial_failure_streak_takes_the_full_loop(self, lookups):
        coordinator = self.cluster(4)
        home = coordinator.shard_of(0)
        coordinator.health.observe_failure(home, coordinator.round_index)
        breaker = coordinator.health.breaker(home)
        assert breaker.consecutive_failures == 1 and not breaker.is_open
        lookups.clear()
        route = coordinator.route_read(0)
        assert (route.shard_id, route.attempts, route.path) == (home, 1, (home,))
        assert not route.failed_over
        assert lookups["observe_success"] == 1
        assert breaker.consecutive_failures == 0
        assert breaker.is_quiescent
        # The reset streak puts the home back on the direct route.
        lookups.clear()
        coordinator.admit_stream(0, 0)
        assert lookups["observe_success"] == 0


#: Table growth and compaction, left out of per-call counts (amortized
#: O(1): :class:`TestTableBookkeeping` pins them).
AMORTIZED = {StreamTable._resize.__code__, StreamTable._compact.__code__}


def python_calls(fn) -> int:
    """Python-level calls made inside ``fn()`` (``fn``'s own frame not
    counted), leaving out table growth and compaction and all they
    call.  The collector is off meanwhile: its callbacks and finalizers
    are not the code under count."""
    count = 0
    skipping = 0  # depth inside an amortized frame

    def profile(frame, event, arg):
        nonlocal count, skipping
        if event == "call":
            if skipping:
                skipping += 1
            elif frame.f_code in AMORTIZED:
                skipping = 1
            else:
                count += 1
        elif event == "return" and skipping:
            skipping -= 1

    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return count - 1


class TestFlatAdmission:
    @staticmethod
    def cluster(titles: int, policy: bool) -> ClusterCoordinator:
        coordinator = ClusterCoordinator.create(
            3, 2,
            DiskSpec(capacity_blocks=50_000, bandwidth_blocks_per_round=512),
            bits=32, master_seed=0xC0DE, replication_factor=2,
            replication_policy=ReplicationPolicy(2 * titles) if policy else None,
        )
        for i in range(titles):
            coordinator.add_object(f"title-{i}", 40)
        for shard in coordinator.shards:
            shard.scheduler  # created on first use, not per admission
        return coordinator

    @pytest.mark.parametrize("policy, bound", [(False, 6), (True, 7)])
    def test_calls_per_admission_and_departure(self, policy, bound):
        admissions, departures = [], []
        for n in SIZES:  # n viewers over n titles, then 4n over 4n
            coordinator = self.cluster(n, policy)

            def admit_all():
                for sid in range(n):
                    coordinator.admit_stream(sid, sid, start_block=sid % 30)

            def depart_all():
                for sid in range(n):
                    coordinator.depart_stream(sid)

            admissions.append(python_calls(admit_all) / n)
            assert len(coordinator._streams) == n
            departures.append(python_calls(depart_all) / n)
            assert not coordinator._streams and not coordinator._viewers
        assert admissions[0] == admissions[1] <= bound, admissions
        assert departures[0] == departures[1] <= 2, departures


class TestTableBookkeeping:
    @staticmethod
    def churn(ops: int, seed: int) -> StreamTable:
        """``ops`` admit/depart/seek operations on one table, admissions
        first-heavy so the table both grows and compacts."""
        rng = random.Random(seed)
        catalog = uniform_catalog(4, 30, master_seed=seed, bits=32)
        table = StreamTable()
        live: list[Stream] = []
        next_id = 0
        for i in range(ops):
            roll = rng.random()
            if not live or roll < (0.7 if i < ops // 2 else 0.3):
                stream = Stream(next_id, catalog.get(next_id % 4))
                next_id += 1
                table.append(stream)
                live.append(stream)
            elif roll < 0.85:
                victim = live.pop(rng.randrange(len(live)))
                table.remove(victim.stream_id)
            else:
                rng.choice(live).seek(rng.randrange(30))
        return table

    def test_rows_copied_linear_in_operations(self):
        for ops in (2_000, 8_000):
            table = self.churn(ops, seed=ops)
            # Doubling copies under 2 rows per admission; a compaction
            # copies fewer rows than the departures since the last one.
            assert table.rows_copied <= 2 * ops, (ops, table.rows_copied)
            assert table.rows <= 2 * len(table) + StreamTable.MIN_COMPACT


@pytest.fixture
def handoff(monkeypatch):
    """Counts the per-viewer work a handoff could do: routes, fresh
    handles, and scheduler admissions and departures."""
    counts: Counter = Counter()
    for owner, name in (
        (ClusterCoordinator, "route_read"),
        (Stream, "__init__"),
        (RoundScheduler, "admit"),
        (RoundScheduler, "depart"),
    ):
        monkeypatch.setattr(
            owner, name, counting(counts, name, getattr(owner, name))
        )
    return counts


class TestBulkHandoff:
    TITLES = 8

    def cluster(self, viewers: int) -> ClusterCoordinator:
        coordinator = ClusterCoordinator.create(
            4, 2,
            DiskSpec(capacity_blocks=50_000,
                     bandwidth_blocks_per_round=viewers),
            bits=32, master_seed=0xC0DE, replication_factor=2,
            router_backend="consistent_hash",
        )
        for i in range(self.TITLES):
            coordinator.add_object(f"title-{i}", 40)
        for sid in range(viewers):
            coordinator.admit_stream(
                sid, sid % self.TITLES, start_block=sid % 30
            )
        coordinator.run_round()
        return coordinator

    @staticmethod
    def rows_copied(coordinator) -> int:
        return coordinator._stranded.rows_copied + sum(
            shard.scheduler.table.rows_copied
            for shard in coordinator._shard_by_id.values()
            if shard._scheduler is not None
        )

    def test_kill_shard(self, handoff):
        routes = []
        for viewers in SIZES:
            coordinator = self.cluster(viewers)
            victim = coordinator.shard_of(0)
            table = coordinator.shard(victim).scheduler.table
            moving = len(table)
            titles = len(set(table.object_id[: table.rows].tolist()))
            copied = self.rows_copied(coordinator)
            handoff.clear()
            report = coordinator.kill_shard(victim)
            copied = self.rows_copied(coordinator) - copied
            assert report.streams_failed_over == moving > 0
            assert handoff["route_read"] == titles, viewers
            assert handoff["__init__"] == 0, viewers
            assert handoff["admit"] == handoff["depart"] == 0, viewers
            # Each moved row once, plus at most one doubling of each
            # target's columns.
            assert moving <= copied <= moving + viewers, (viewers, copied)
            routes.append(handoff["route_read"])
        assert routes[0] == routes[1]

    def test_one_migration(self, handoff):
        for viewers in SIZES:
            coordinator = self.cluster(viewers)
            pending = coordinator.begin_reshard(ScalingOp.add(1))
            move = pending.next_move()
            source = coordinator.shard(move.source_shard).scheduler.table
            moving = len(
                source.streams_of(coordinator.local_id_of(move.object_id))
            )
            copied = self.rows_copied(coordinator)
            handoff.clear()
            coordinator.migrate_next(pending)
            copied = self.rows_copied(coordinator) - copied
            target = coordinator.shard(move.target_shard).scheduler.table
            assert len(target) == moving > 0
            assert handoff["route_read"] == 1, viewers
            assert handoff["__init__"] == 0, viewers
            assert handoff["admit"] == handoff["depart"] == 0, viewers
            assert moving <= copied <= moving + viewers, (viewers, copied)

    def test_live_source_compacts_after_a_move(self):
        # A migrating title's viewers leave vacant rows on a live source
        # that no departure compacts; the handoff compacts them when
        # due, so the source keeps rows <= 2 * live + MIN_COMPACT.
        coordinator = self.cluster(self.TITLES)
        pending = coordinator.begin_reshard(ScalingOp.add(1))
        stream_id = self.TITLES
        left = []
        while (move := pending.next_move()) is not None:
            # Paused, so admission control takes all of them.
            for _ in range(2 * StreamTable.MIN_COMPACT):
                coordinator.admit_stream(stream_id, move.object_id).pause()
                stream_id += 1
            coordinator.migrate_next(pending)
            source = coordinator.shard(move.source_shard).scheduler.table
            assert source.rows <= 2 * len(source) + StreamTable.MIN_COMPACT
            left.append(len(source))
        # Some source kept viewers of another title, so the bound held
        # over a table the move did not empty.
        assert any(left)
