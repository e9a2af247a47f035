"""Cluster coordinator tests: routing, serving, resharding, journal.

The cluster layer recurses SCADDAR one level up (objects over shards);
these tests pin the coordinator's lifecycle — namespace rules, the
round barrier, journaled shard add/remove with stream re-homing, abort
rollback — plus the ClusterJournal's record discipline, the obs merge,
and per-shard fault decorrelation.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.cluster import (
    ClusterCoordinator,
    ClusterJournal,
    ClusterJournalCorruptionError,
    ObjectMove,
    ShardRouter,
    check_cluster,
    cluster_prometheus,
    merged_deterministic_view,
    merged_registry,
    routing_key,
    routing_keys,
    shard_catalog_seed,
    shard_fault_seed,
    snapshot_cluster,
)
from repro.cluster.coordinator import PendingReshard
from repro.cluster.journal import JournalError
from repro.core.operations import ScalingOp
from repro.obs import Obs
from repro.server.cmserver import OperationInFlightError
from repro.server.streams import StreamState
from repro.storage.disk import DiskSpec

SPEC = DiskSpec(capacity_blocks=50_000, bandwidth_blocks_per_round=8)


def build_cluster(
    num_shards: int = 3,
    num_objects: int = 12,
    blocks_per_object: int = 40,
    **kwargs,
) -> ClusterCoordinator:
    coordinator = ClusterCoordinator.create(
        num_shards, 3, SPEC, bits=32, master_seed=0xBEEF, **kwargs
    )
    for i in range(num_objects):
        coordinator.add_object(f"title-{i}", blocks_per_object)
    return coordinator


def cluster_layout(coordinator: ClusterCoordinator) -> dict:
    """(gid -> (shard id, logical placements)) — physical ids are
    process-global and change across restore, logical positions do not."""
    layout = {}
    for gid in coordinator.object_ids:
        shard_id, physicals = coordinator.block_locations(gid)
        array = coordinator.shard(shard_id).server.array
        layout[gid] = (
            shard_id,
            tuple(array.logical_of(pid) for pid in physicals),
        )
    return layout


class TestRoutingKeys:
    def test_key_is_64_bit_and_deterministic(self):
        key = routing_key(42)
        assert 0 <= key < (1 << 64)
        assert key == routing_key(42)

    def test_salt_decorrelates(self):
        assert routing_key(42, salt=1) != routing_key(42, salt=2)

    def test_batch_matches_scalar(self):
        gids = list(range(100))
        batched = routing_keys(gids)
        assert [int(k) for k in batched] == [routing_key(g) for g in gids]


class TestShardRouter:
    def test_slot_of_matches_slots_of(self):
        router = ShardRouter.create("jump_hash", 5)
        gids = list(range(200))
        router.register(gids)
        batched = router.slots_of(gids)
        assert [router.slot_of(g) for g in gids] == [int(s) for s in batched]

    def test_payload_round_trip(self):
        router = ShardRouter.create("consistent_hash", 4, salt=0x5EED)
        gids = list(range(64))
        router.register(gids)
        router.plan_moves(ScalingOp.add(1), gids)
        twin = ShardRouter.from_payload(router.state_payload())
        assert twin.salt == router.salt
        assert twin.num_shards == router.num_shards
        assert [twin.slot_of(g) for g in gids] == [
            router.slot_of(g) for g in gids
        ]


class TestNamespace:
    def test_create_rejects_empty(self):
        with pytest.raises(ValueError):
            ClusterCoordinator.create(0, 2, SPEC)

    def test_add_routes_and_loads(self):
        coordinator = build_cluster()
        assert coordinator.num_objects == 12
        assert coordinator.total_blocks == 12 * 40
        for gid in coordinator.object_ids:
            shard_id, physicals = coordinator.block_locations(gid)
            assert shard_id == coordinator.shard_of(gid)
            assert len(physicals) == 40

    def test_names_unique(self):
        coordinator = build_cluster(num_objects=1)
        with pytest.raises(ValueError):
            coordinator.add_object("title-0", 10)

    def test_gid_lookup_by_name(self):
        coordinator = build_cluster(num_objects=3)
        for gid in coordinator.object_ids:
            shard = coordinator.shard(coordinator.shard_of(gid))
            name = shard.server.catalog.get(
                coordinator.local_id_of(gid)
            ).name
            assert coordinator.gid_of(name) == gid

    def test_remove_object(self):
        coordinator = build_cluster(num_objects=4)
        coordinator.remove_object(1)
        assert coordinator.num_objects == 3
        assert 1 not in coordinator.object_ids
        with pytest.raises(KeyError):
            coordinator.shard_of(1)
        assert coordinator.total_blocks == 3 * 40

    def test_unknown_lookups_raise(self):
        coordinator = build_cluster(num_objects=1)
        with pytest.raises(KeyError):
            coordinator.shard_of(99)
        with pytest.raises(KeyError):
            coordinator.gid_of("nope")
        with pytest.raises(KeyError):
            coordinator.shard(99)

    def test_fresh_cluster_is_clean(self):
        assert check_cluster(build_cluster()).clean


class TestServing:
    def test_round_barrier_aggregates(self):
        coordinator = build_cluster()
        for i in range(6):
            coordinator.admit_stream(i, i)
        report = coordinator.run_round()
        assert report.requested == 6
        assert report.served == 6
        assert report.requested == (
            report.served + report.hiccups + report.queued
        )
        assert report.availability == 1.0
        assert set(report.reports) == set(coordinator.shard_ids)

    def test_round_index_advances(self):
        coordinator = build_cluster(num_objects=2)
        reports = coordinator.run_rounds(3)
        assert [r.round_index for r in reports] == [0, 1, 2]

    def test_duplicate_stream_id_rejected(self):
        coordinator = build_cluster(num_objects=2)
        coordinator.admit_stream(7, 0)
        with pytest.raises(ValueError):
            coordinator.admit_stream(7, 1)

    def test_depart_stream(self):
        coordinator = build_cluster(num_objects=2)
        coordinator.admit_stream(7, 0)
        stream = coordinator.depart_stream(7)
        assert stream.stream_id == 7
        with pytest.raises(KeyError):
            coordinator.depart_stream(7)

    @staticmethod
    def assert_round_reads_homes(coordinator):
        """Run one round and check every block it demanded was charged
        to the disk the shard's inventory holds it on."""
        from collections import Counter

        from repro.server.streams import gather_round_demand
        from repro.storage.block import BlockId

        expected = {}
        for shard in coordinator.shards:
            demand = gather_round_demand(shard.scheduler.table)
            homes = Counter(
                shard.server.array.home_of(BlockId(oid, index))
                for oid, index in zip(
                    demand.object_ids.tolist(), demand.block_indices.tolist()
                )
            )
            expected[shard.shard_id] = {
                pid: homes.get(pid, 0) for pid in shard.server.array.physical_ids
            }
        report = coordinator.run_round()
        for shard_id, shard_report in report.reports.items():
            assert shard_report.load_by_physical == expected[shard_id]
        return report

    def test_round_after_reshuffle_reads_the_new_homes(self):
        """The batch locator's X0 column must follow every catalog
        change — an object added, an object removed, a reshuffle's
        fresh seeds: every block the next round demands is charged to
        the disk the inventory holds it on."""
        coordinator = build_cluster(num_shards=2, num_objects=6)
        for sid in range(24):
            coordinator.admit_stream(sid, sid % 6, start_block=sid % 30)
        coordinator.run_rounds(2)  # lays out the X0 columns
        gid = coordinator.add_object("late", 40)
        for sid in range(24, 28):
            coordinator.admit_stream(sid, gid, start_block=sid - 24)
        assert self.assert_round_reads_homes(coordinator).requested == 28
        for sid in range(0, 24, 6):  # object 0's viewers leave first
            coordinator.depart_stream(sid)
        coordinator.remove_object(0)
        assert self.assert_round_reads_homes(coordinator).requested == 24
        for shard_id in coordinator.shard_ids:
            coordinator.reshuffle_shard(shard_id)
        assert self.assert_round_reads_homes(coordinator).requested == 24

    def test_round_after_replica_churn_reads_the_new_homes(self):
        """``adapt()`` adds and drops replica copies between rounds (a
        catalog add or remove on the copy's shard); each next round
        still charges every block to its home disk, on shards serving
        other titles and on a copy that serves viewers itself."""
        from repro.cluster import ReplicationPolicy

        coordinator = build_cluster(
            num_shards=3,
            num_objects=6,
            replication_policy=ReplicationPolicy(
                9, hysteresis_rounds=1, demand_half_life_rounds=1
            ),
        )
        for gid in range(6):  # every shard serves some demand throughout
            coordinator.admit_stream(100 + gid, gid, start_block=gid)
        for sid in range(8):  # title 0 turns hot: adapt() copies it
            coordinator.admit_stream(sid, 0, start_block=sid)
        for __ in range(4):
            self.assert_round_reads_homes(coordinator)
        copies = coordinator.replicas_of(0)
        assert copies
        home = coordinator.shard_of(0)
        for __ in range(3):  # the home's breaker trips: viewers go to a copy
            coordinator.health.observe_failure(home, coordinator.round_index)
        copy_table = coordinator.shard(copies[0]).scheduler.table
        for sid in range(8, 12):
            coordinator.admit_stream(sid, 0, start_block=sid)
            assert sid in copy_table
        for __ in range(2):
            self.assert_round_reads_homes(coordinator)
        coordinator.health.mark_healthy(home)
        for sid in range(12):  # demand moves to title 3: title 0's copies go
            coordinator.depart_stream(sid)
        for sid in range(12, 24):
            coordinator.admit_stream(sid, 3, start_block=sid)
        for __ in range(8):
            self.assert_round_reads_homes(coordinator)
        assert len(coordinator.replicas_of(0)) < len(copies)
        assert len(coordinator.replicas_of(3)) > 0
        assert coordinator.replication.copies_dropped > 0


class TestReshard:
    def test_add_shards_moves_minimally(self):
        coordinator = build_cluster(num_objects=20)
        before = cluster_layout(coordinator)
        pending = coordinator.reshard(ScalingOp.add(2))
        assert coordinator.num_shards == 5
        assert pending.new_shard_ids == (3, 4)
        after = cluster_layout(coordinator)
        moved = {g for g in before if before[g][0] != after[g][0]}
        assert moved == {m.object_id for m in pending.moves}
        # Untouched objects kept their exact block layout.
        for gid in set(before) - moved:
            assert before[gid] == after[gid]
        assert check_cluster(coordinator).clean

    def test_remove_shard_drains_and_detaches(self):
        coordinator = build_cluster()
        doomed = coordinator.shards[-1].shard_id
        blocks = coordinator.total_blocks
        coordinator.reshard(ScalingOp.remove([coordinator.num_shards - 1]))
        assert coordinator.num_shards == 2
        assert doomed not in coordinator.shard_ids
        with pytest.raises(KeyError):
            coordinator.shard(doomed)
        assert coordinator.total_blocks == blocks
        assert check_cluster(coordinator).clean

    def test_quiescence_enforced_mid_reshard(self):
        coordinator = build_cluster()
        pending = coordinator.begin_reshard(ScalingOp.add(1))
        with pytest.raises(OperationInFlightError):
            coordinator.add_object("late", 10)
        with pytest.raises(OperationInFlightError):
            coordinator.remove_object(0)
        with pytest.raises(OperationInFlightError):
            coordinator.begin_reshard(ScalingOp.add(1))
        coordinator.execute_reshard(pending)
        coordinator.finish_reshard(pending)
        coordinator.add_object("late", 10)

    def test_finish_requires_all_moves(self):
        coordinator = build_cluster(num_objects=20)
        pending = coordinator.begin_reshard(ScalingOp.add(2))
        assert pending.moves  # statistically certain at 20 objects
        with pytest.raises(ValueError):
            coordinator.finish_reshard(pending)
        coordinator.execute_reshard(pending)
        coordinator.finish_reshard(pending)
        with pytest.raises(ValueError):
            coordinator.finish_reshard(pending)

    def test_fsck_classifies_in_flight(self):
        coordinator = build_cluster(num_objects=20)
        pending = coordinator.begin_reshard(ScalingOp.add(2))
        report = check_cluster(coordinator)  # pending picked up implicitly
        assert report.clean
        assert len(report.in_flight) == len(pending.moves)
        coordinator.migrate_next(pending)
        report = check_cluster(coordinator, pending)
        assert report.clean
        assert len(report.in_flight) == len(pending.moves) - 1
        coordinator.execute_reshard(pending)
        coordinator.finish_reshard(pending)
        final = check_cluster(coordinator)
        assert final.clean and not final.in_flight

    def test_streams_rehome_with_position(self):
        coordinator = build_cluster(num_objects=20)
        for i in range(20):
            coordinator.admit_stream(i, i, start_block=5)
        coordinator.run_round()  # positions now 6
        paused = coordinator.admit_stream(99, 0, start_block=0)
        paused.pause()
        pending = coordinator.begin_reshard(ScalingOp.add(2))
        assert pending.moves
        coordinator.execute_reshard(pending)
        coordinator.finish_reshard(pending)
        # Every migrated object's stream serves from its new shard at
        # the position it had reached.
        moved_gids = {m.object_id for m in pending.moves}
        for shard in coordinator.shards:
            for stream in shard.scheduler.streams:
                if stream.stream_id == 99:
                    assert stream.state is StreamState.PAUSED
                    continue
                gid = stream.stream_id  # stream i plays object i
                assert coordinator.shard_of(gid) == shard.shard_id
                if gid in moved_gids:
                    assert stream.position == 6
        report = coordinator.run_round()
        assert report.served == 20  # paused stream requests nothing

    def test_abort_restores_everything(self):
        coordinator = build_cluster(num_objects=20)
        before_layout = cluster_layout(coordinator)
        before_ids = coordinator.shard_ids
        pending = coordinator.begin_reshard(ScalingOp.add(2))
        coordinator.migrate_next(pending)
        coordinator.migrate_next(pending)
        reversed_count = coordinator.abort_reshard(pending)
        assert reversed_count == 2
        assert coordinator.shard_ids == before_ids
        after_layout = cluster_layout(coordinator)
        # Every object routes home again; the two round-tripped ones are
        # re-placed within their shard (fresh local ids), the rest are
        # untouched bit-for-bit.
        assert {g: after_layout[g][0] for g in after_layout} == {
            g: before_layout[g][0] for g in before_layout
        }
        round_tripped = set(pending.applied) | {
            m.object_id for m in pending.moves[:2]
        }
        for gid in set(before_layout) - round_tripped:
            assert after_layout[gid] == before_layout[gid]
        assert check_cluster(coordinator).clean
        # The namespace reopens and shard-id allocation was rolled back.
        next_pending = coordinator.begin_reshard(ScalingOp.add(1))
        assert next_pending.new_shard_ids == (3,)
        coordinator.abort_reshard(next_pending)

    def test_abort_remove_reinserts_slots(self):
        coordinator = build_cluster(num_shards=4, num_objects=16)
        before_ids = coordinator.shard_ids
        before_layout = cluster_layout(coordinator)
        pending = coordinator.begin_reshard(ScalingOp.remove([3]))
        coordinator.migrate_next(pending)
        coordinator.abort_reshard(pending)
        assert coordinator.shard_ids == before_ids
        after_layout = cluster_layout(coordinator)
        assert {g: after_layout[g][0] for g in after_layout} == {
            g: before_layout[g][0] for g in before_layout
        }
        for gid in set(before_layout) - {pending.moves[0].object_id}:
            assert after_layout[gid] == before_layout[gid]
        assert check_cluster(coordinator).clean

    def test_foreign_pending_rejected(self):
        a = build_cluster(num_objects=6)
        b = build_cluster(num_objects=6)
        pending = a.begin_reshard(ScalingOp.add(1))
        with pytest.raises(ValueError):
            b.finish_reshard(pending)
        a.execute_reshard(pending)
        a.finish_reshard(pending)

    def test_migrate_next_reads_constant_plan_entries_per_move(self):
        """A rebalance is linear in its plan: migrate_next reads O(1)
        plan entries per move instead of rebuilding the unlanded plan."""

        class CountingMoves(tuple):
            def __getitem__(self, index):
                reads[0] += 1
                return tuple.__getitem__(self, index)

            def __iter__(self):
                for move in tuple.__iter__(self):
                    reads[0] += 1
                    yield move

        reads = [0]

        def reads_per_move(num_objects: int) -> float:
            coordinator = build_cluster(
                num_objects=num_objects, blocks_per_object=4
            )
            pending = coordinator.begin_reshard(ScalingOp.add(1))
            pending.moves = CountingMoves(pending.moves)
            reads[0] = 0
            coordinator.execute_reshard(pending)
            assert pending.done and len(pending.moves) >= 4
            return reads[0] / len(pending.moves)

        assert reads_per_move(4 * 24) <= reads_per_move(24)

    def test_next_move_follows_applied_in_any_order(self):
        moves = tuple(ObjectMove(gid, 0, 1) for gid in range(6))
        pending = PendingReshard(
            op=ScalingOp.add(1), seq=1, shards_before=1, shards_after=2,
            new_shard_ids=(1,), removed_shard_ids=(), moves=moves,
        )
        # A resume re-executes applies in journal order, not plan order.
        pending.applied.extend([3, 0])
        assert pending.next_move() == moves[1]
        assert pending.remaining == (moves[1], moves[2], moves[4], moves[5])
        pending.applied.extend([1, 2])
        assert pending.next_move() == pending.remaining[0] == moves[4]
        pending.applied.clear()  # what an abort does
        assert pending.next_move() == moves[0]
        pending.applied.extend(m.object_id for m in moves)
        assert pending.next_move() is None and pending.done

    def test_scale_shard_keeps_routing(self):
        coordinator = build_cluster()
        shard_id = coordinator.shard_ids[0]
        homes = {g: coordinator.shard_of(g) for g in coordinator.object_ids}
        coordinator.scale_shard(shard_id, ScalingOp.add(1))
        assert {
            g: coordinator.shard_of(g) for g in coordinator.object_ids
        } == homes
        assert check_cluster(coordinator).clean


class TestClusterJournal:
    def test_record_lifecycle(self, tmp_path):
        path = str(tmp_path / "c.journal")
        journal = ClusterJournal(path)
        journal.record_begin(
            seq=1, op=ScalingOp.add(1), shards_before=2, shards_after=3,
            new_shard_ids=(2,), moves=[ObjectMove(5, 0, 2)],
        )
        journal.record_apply(1, 5)
        journal.record_commit(1)
        journal.close()
        [record] = ClusterJournal(path).replay()
        assert record.seq == 1 and record.committed and not record.open
        assert record.applied == [5]
        assert list(record.plan) == [ObjectMove(5, 0, 2)]

    def test_begin_while_open_rejected(self, tmp_path):
        journal = ClusterJournal(str(tmp_path / "c.journal"))
        journal.record_begin(
            seq=1, op=ScalingOp.add(1), shards_before=2, shards_after=3,
            new_shard_ids=(2,), moves=[],
        )
        with pytest.raises(JournalError):
            journal.record_begin(
                seq=2, op=ScalingOp.add(1), shards_before=3,
                shards_after=4, new_shard_ids=(3,), moves=[],
            )

    def test_seq_mismatch_rejected(self, tmp_path):
        journal = ClusterJournal(str(tmp_path / "c.journal"))
        journal.record_begin(
            seq=1, op=ScalingOp.add(1), shards_before=2, shards_after=3,
            new_shard_ids=(2,), moves=[ObjectMove(5, 0, 2)],
        )
        with pytest.raises(JournalError):
            journal.record_apply(2, 5)
        with pytest.raises(JournalError):
            journal.record_commit(2)

    def test_torn_final_line_tolerated(self, tmp_path):
        path = str(tmp_path / "c.journal")
        journal = ClusterJournal(path)
        journal.record_begin(
            seq=1, op=ScalingOp.add(1), shards_before=2, shards_after=3,
            new_shard_ids=(2,), moves=[ObjectMove(5, 0, 2)],
        )
        journal.record_apply(1, 5)
        journal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "comm')  # the crash ate the rest
        [record] = ClusterJournal(path).replay()
        assert record.open and record.applied == [5]
        # The next append cuts the fragment off and starts a fresh
        # line, so the journal replays again with the new record.
        resumed = ClusterJournal(path)
        resumed.record_commit(1)
        resumed.close()
        [record] = ClusterJournal(path).replay()
        assert record.committed and record.applied == [5]
        with open(path, encoding="utf-8") as handle:
            assert [json.loads(line)["type"] for line in handle] == [
                "begin", "apply", "commit",
            ]

    def test_interior_corruption_raises_typed_error(self, tmp_path):
        path = str(tmp_path / "c.journal")
        journal = ClusterJournal(path)
        journal.record_begin(
            seq=1, op=ScalingOp.add(1), shards_before=2, shards_after=3,
            new_shard_ids=(2,), moves=[ObjectMove(5, 0, 2)],
        )
        journal.record_apply(1, 5)
        journal.record_commit(1)
        journal.close()
        lines = open(path, encoding="utf-8").read().splitlines()
        lines[1] = '{"type": "app'  # bit-rot in the middle of the file
        open(path, "w", encoding="utf-8").write("\n".join(lines) + "\n")
        with pytest.raises(ClusterJournalCorruptionError) as excinfo:
            ClusterJournal(path).replay()
        assert excinfo.value.lineno == 2
        assert "line 2" in str(excinfo.value)
        assert isinstance(excinfo.value, JournalError)  # old handlers work

    def test_structurally_damaged_record_names_its_line(self, tmp_path):
        path = str(tmp_path / "c.journal")
        journal = ClusterJournal(path)
        journal.record_begin(
            seq=1, op=ScalingOp.add(1), shards_before=2, shards_after=3,
            new_shard_ids=(2,), moves=[ObjectMove(5, 0, 2)],
        )
        journal.record_apply(1, 5)
        journal.record_commit(1)
        journal.close()
        lines = open(path, encoding="utf-8").read().splitlines()
        lines[0] = '{"type": "begin", "seq": 1}'  # parses, fields gone
        open(path, "w", encoding="utf-8").write("\n".join(lines) + "\n")
        with pytest.raises(ClusterJournalCorruptionError) as excinfo:
            ClusterJournal(path).replay()
        assert excinfo.value.lineno == 1

    def test_journaled_run_matches_memory(self, tmp_path):
        path = str(tmp_path / "c.journal")
        coordinator = build_cluster(journal=ClusterJournal(path))
        pending = coordinator.reshard(ScalingOp.add(1))
        coordinator.journal.close()
        assert os.path.exists(path)
        [record] = ClusterJournal(path).replay()
        assert record.committed
        assert record.applied == list(pending.applied)
        assert set(record.plan) == set(pending.moves)


class TestFaultDecorrelation:
    def test_shard_seeds_distinct_and_stable(self):
        seeds = [shard_fault_seed(0xBEEF, sid) for sid in range(64)]
        assert len(set(seeds)) == 64
        assert seeds == [shard_fault_seed(0xBEEF, sid) for sid in range(64)]

    def test_fault_and_catalog_streams_differ(self):
        assert shard_fault_seed(0xBEEF, 3) != shard_catalog_seed(0xBEEF, 3)

    def test_seed_pinned_to_stable_id_not_slot(self):
        coordinator = build_cluster(
            num_shards=4, num_objects=8, router_backend="consistent_hash"
        )
        survivor = coordinator.shards[-1]
        seed_before = survivor.fault_seed(0xBEEF)
        coordinator.reshard(ScalingOp.remove([0]))
        assert survivor in coordinator.shards  # slot shifted, id stable
        assert survivor.fault_seed(0xBEEF) == seed_before

    def test_master_seed_in_path(self):
        assert shard_fault_seed(1, 0) != shard_fault_seed(2, 0)


class TestObsAggregation:
    def build_observed(self):
        coordinator = build_cluster(obs=Obs(), journal=ClusterJournal())
        coordinator.admit_stream(0, 0)
        coordinator.run_round()
        coordinator.reshard(ScalingOp.add(1))
        return coordinator

    def test_merged_view_is_shard_tagged(self):
        coordinator = self.build_observed()
        view = merged_deterministic_view(coordinator)
        tags = {tag for tag, _, _, _ in view}
        assert "cluster" in tags
        assert tags & {str(s) for s in coordinator.shard_ids}
        kinds = {kind for _, _, kind, _ in view}
        assert "cluster.round" in kinds
        assert "cluster.reshard.begin" in kinds
        assert "cluster.reshard.commit" in kinds

    def test_merged_view_deterministic_across_same_seed_runs(self):
        a = merged_deterministic_view(self.build_observed())
        b = merged_deterministic_view(self.build_observed())
        assert a == b

    def test_merged_registry_labels_by_shard(self):
        coordinator = self.build_observed()
        merged = merged_registry(coordinator)
        labelled = {
            dict(key).get("shard")
            for counter in merged.counters
            for key in counter.series
        }
        assert labelled  # every series carries the shard label
        assert None not in labelled

    def test_prometheus_renders(self):
        text = cluster_prometheus(self.build_observed())
        assert 'shard="cluster"' in text

    def test_null_obs_by_default(self):
        coordinator = build_cluster(num_objects=2)
        assert merged_deterministic_view(coordinator) == []
        assert cluster_prometheus(coordinator).strip() == ""


class TestClusterCLIExitCodes:
    """``scaddar cluster fsck``/``status`` as monitoring probes: 0 when
    clean and quiescent, 1 when unclean (dead shards / fsck breaches),
    2 while a rebalance is open in the journal."""

    def run_cli(self, *argv):
        from repro.cli import main

        return main(["cluster", *map(str, argv)])

    def write_manifest(self, coordinator, path):
        import json

        path.write_text(
            json.dumps(snapshot_cluster(coordinator)), encoding="utf-8"
        )

    def build_replicated(self, journal=None):
        coordinator = ClusterCoordinator.create(
            4, 3, SPEC, bits=32, master_seed=0xBEEF,
            router_backend="consistent_hash",
            replication_factor=2, num_domains=2, journal=journal,
        )
        for i in range(8):
            coordinator.add_object(f"title-{i}", 20)
        return coordinator

    def test_status_clean_is_zero(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        self.write_manifest(self.build_replicated(), manifest)
        assert self.run_cli("status", "--manifest", manifest) == 0
        out = capsys.readouterr().out
        assert "replicas=2" in out and "healthy" in out

    def test_status_dead_shard_is_one(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        coordinator = self.build_replicated()
        coordinator.kill_shard(0)
        self.write_manifest(coordinator, manifest)
        assert self.run_cli("status", "--manifest", manifest) == 1
        assert "dead shards: [0]" in capsys.readouterr().out

    def test_status_open_rebalance_is_two(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        journal = tmp_path / "c.journal"
        coordinator = self.build_replicated(
            journal=ClusterJournal(str(journal))
        )
        self.write_manifest(coordinator, manifest)
        pending = coordinator.begin_reshard(ScalingOp.add(1))
        coordinator.migrate_next(pending)
        coordinator.journal.close()  # the crash
        assert self.run_cli(
            "status", "--manifest", manifest, "--journal", journal
        ) == 2
        assert "OPEN" in capsys.readouterr().out

    def test_fsck_clean_is_zero(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        self.write_manifest(self.build_replicated(), manifest)
        assert self.run_cli("fsck", "--manifest", manifest) == 0
        assert "CLEAN" in capsys.readouterr().out

    def test_fsck_replica_breach_is_one(self, tmp_path, capsys):
        import json

        manifest = tmp_path / "m.json"
        self.write_manifest(self.build_replicated(), manifest)
        # Collapse every shard into one failure domain behind fsck's
        # back: every replica pair now collides.
        data = json.loads(manifest.read_text())
        for entry in data["shards"]:
            entry["domain"] = "dom0"
        manifest.write_text(json.dumps(data), encoding="utf-8")
        assert self.run_cli("fsck", "--manifest", manifest) == 1
        out = capsys.readouterr().out
        assert "NOT clean" in out

    def test_fsck_open_rebalance_is_two(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        journal = tmp_path / "c.journal"
        coordinator = self.build_replicated(
            journal=ClusterJournal(str(journal))
        )
        self.write_manifest(coordinator, manifest)
        pending = coordinator.begin_reshard(ScalingOp.add(1))
        coordinator.migrate_next(pending)
        coordinator.journal.close()  # the crash
        assert self.run_cli(
            "fsck", "--manifest", manifest, "--journal", journal
        ) == 2
        assert "OPEN" in capsys.readouterr().out
