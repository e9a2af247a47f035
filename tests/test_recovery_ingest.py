"""Tests for failure recovery and incremental ingest."""

from __future__ import annotations

import pytest

from repro.core.operations import ScalingOp
from repro.core.scaddar import ScaddarMapper
from repro.server.cmserver import CMServer
from repro.server.faults import MirroredPlacement
from repro.server.ingest import IngestSession, IngestStalledError
from repro.server.recovery import simulate_failure_recovery
from repro.server.scheduler import RoundScheduler
from repro.server.streams import Stream
from repro.storage.block import BlockId
from repro.storage.disk import DiskSpec
from repro.workloads.generator import random_x0s, uniform_catalog


class TestFailureRecovery:
    def make_mapper(self, n0=6, ops=2):
        mapper = ScaddarMapper(n0=n0, bits=32)
        for __ in range(ops):
            mapper.apply(ScalingOp.add(1))
        return mapper

    def test_validation(self):
        mapper = self.make_mapper()
        with pytest.raises(ValueError):
            simulate_failure_recovery(mapper, [1], failed_disk=99)
        with pytest.raises(ValueError):
            simulate_failure_recovery(mapper, [1], 0, bandwidth_per_disk=0)

    def test_no_data_loss(self):
        mapper = self.make_mapper()
        x0s = random_x0s(8_000, bits=32, seed=1)
        __, report = simulate_failure_recovery(mapper, x0s, failed_disk=3)
        assert report.blocks_lost == 0
        assert report.blocks_recovered > 0

    def test_input_mapper_untouched(self):
        mapper = self.make_mapper()
        ops_before = mapper.num_operations
        simulate_failure_recovery(mapper, random_x0s(500, 32, seed=2), 1)
        assert mapper.num_operations == ops_before

    def test_result_mapper_has_removal(self):
        mapper = self.make_mapper()
        after, __ = simulate_failure_recovery(
            mapper, random_x0s(500, 32, seed=3), 2
        )
        assert after.current_disks == mapper.current_disks - 1
        assert after.log.operations[-1] == ScalingOp.remove([2])

    def test_post_recovery_replicas_all_live(self):
        mapper = self.make_mapper()
        x0s = random_x0s(3_000, bits=32, seed=4)
        after, __ = simulate_failure_recovery(mapper, x0s, failed_disk=0)
        mirrored = MirroredPlacement(after)
        for x0 in x0s[:500]:
            pair = mirrored.replica_pair(x0)
            assert pair.primary != pair.mirror
            assert 0 <= pair.primary < after.current_disks

    def test_traffic_balance(self):
        """Reads equal writes equal recovered copies."""
        mapper = self.make_mapper()
        x0s = random_x0s(6_000, bits=32, seed=5)
        __, report = simulate_failure_recovery(mapper, x0s, failed_disk=4)
        assert sum(report.reads_by_disk.values()) == report.blocks_recovered
        assert sum(report.writes_by_disk.values()) == report.blocks_recovered

    def test_rebuild_rounds_scale_with_bandwidth(self):
        mapper = self.make_mapper()
        x0s = random_x0s(6_000, bits=32, seed=6)
        __, slow = simulate_failure_recovery(
            mapper, x0s, 1, bandwidth_per_disk=2
        )
        __, fast = simulate_failure_recovery(
            mapper, x0s, 1, bandwidth_per_disk=20
        )
        assert slow.rebuild_rounds > fast.rebuild_rounds >= 1


def make_server(n0=4, bandwidth=6):
    catalog = uniform_catalog(2, 100, master_seed=0x16E5, bits=32)
    spec = DiskSpec(capacity_blocks=100_000, bandwidth_blocks_per_round=bandwidth)
    return CMServer(catalog, [spec] * n0, bits=32, default_spec=spec)


class TestIngest:
    def test_unthrottled_ingest_matches_direct_load(self):
        server = make_server()
        direct = make_server()
        session = IngestSession(server, "new-movie", 150)
        report = session.run(budget=10_000)
        assert report.blocks_written == 150
        assert session.done

        direct.add_object("new-movie", 150)
        # Same catalog seeds -> identical placement.
        for index in range(150):
            block_id = BlockId(2, index)
            a = server.array.logical_of(server.array.home_of(block_id))
            b = direct.array.logical_of(direct.array.home_of(block_id))
            assert a == b

    def test_throttled_ingest_spreads_rounds(self):
        server = make_server()
        session = IngestSession(server, "slow-load", 120)
        report = session.run(budget=1)
        assert report.rounds > 120 / server.num_disks
        assert sum(report.writes_per_round) == 120

    def test_frontier_is_contiguous(self):
        server = make_server()
        session = IngestSession(server, "partial", 60)
        session.step(budget=2)
        frontier = session.frontier
        assert 0 < frontier < 60
        for index in range(frontier):
            assert server.block_location(session.object_id, index) >= 0
        with pytest.raises(KeyError):
            server.array.home_of(BlockId(session.object_id, frontier))

    def test_af_matches_inventory_after_ingest(self):
        server = make_server()
        session = IngestSession(server, "checked", 80)
        session.run(budget=3)
        for index in range(80):
            assert server.block_location(session.object_id, index) == (
                server.array.home_of(BlockId(session.object_id, index))
            )

    def test_zero_budget_stalls_loudly(self):
        server = make_server()
        session = IngestSession(server, "stuck", 10)
        with pytest.raises(IngestStalledError):
            session.run(budget=0)

    def test_watch_while_ingesting(self):
        """A stream can play behind the write frontier."""
        server = make_server(bandwidth=4)
        scheduler = RoundScheduler(server.array)
        session = IngestSession(server, "live", 100)
        session.step(budget=2)  # a few blocks exist
        stream = Stream(0, session.media)
        scheduler.admit(stream)
        hiccups = 0
        for __ in range(120):
            report = scheduler.run_round()
            hiccups += report.hiccups
            if not session.done:
                session.step(report.spare_by_physical)
        assert session.done
        assert stream.blocks_consumed == 100
        assert hiccups == 0

    def test_ingest_survives_scaling(self):
        server = make_server()
        session = IngestSession(server, "mid-scale", 100)
        session.step(budget=3)
        server.scale(ScalingOp.add(1))
        session.run(budget=5)
        for index in range(100):
            assert server.block_location(session.object_id, index) == (
                server.array.home_of(BlockId(session.object_id, index))
            )

    @pytest.mark.parametrize("backend", ["scaddar", "directory"])
    def test_remove_mid_ingest_drops_what_landed(self, backend):
        """Removing a partially ingested object drops its resident
        blocks, unregisters all of them, and stops the session: no
        orphan lands and the layout audits clean."""
        from repro.server.fsck import check_layout

        catalog = uniform_catalog(2, 20, master_seed=5, bits=32)
        server = CMServer(catalog, [DiskSpec()] * 3, bits=32, backend=backend)
        before = (server.total_blocks, server.backend.state_entries())
        session = IngestSession(server, "partial", 30)
        assert 0 < session.step(budget=1) < 30
        server.remove_object(session.object_id)
        assert (server.total_blocks, server.backend.state_entries()) == before
        with pytest.raises(KeyError):
            session.step(budget=100)
        with pytest.raises(KeyError):
            session.run(budget=100)
        assert server.total_blocks == before[0]
        assert check_layout(server).clean

    def test_reshuffle_mid_ingest_reseeds_the_blocks_to_come(self):
        """A full redistribution while an object is half written moves
        its written blocks with the rest, and the ingest writes the
        remaining ones under the fresh seeds: the layout audits clean."""
        from repro.server.fsck import check_layout

        server = make_server()
        session = IngestSession(server, "half", 60)
        session.step(budget=3)
        assert 0 < session.frontier < 60
        server.reshuffle()
        session.run(budget=5)
        assert check_layout(server).clean

    def test_plan_orders_moves_by_catalog_then_index(self):
        """A scaling plan and its journaled intent list moves by object
        in catalog order, blocks by index, whatever order the blocks
        were written in: here one object is partly ingested, a second is
        placed whole, and then the first finishes."""
        from repro.server.journal import ScalingJournal

        server = make_server()
        journal = ScalingJournal()
        server.attach_journal(journal)
        session = IngestSession(server, "first", 60)
        session.step(budget=2)
        assert 0 < session.frontier < 60
        second = server.add_object("second", 80)
        session.run(budget=10)
        pending = server.begin_scale(ScalingOp.add(2))
        keys = [(m.block_id.object_id, m.block_id.index) for m in pending.plan.moves]
        rank = {media.object_id: k for k, media in enumerate(server.catalog)}
        assert keys == sorted(keys, key=lambda key: (rank[key[0]], key[1]))
        assert {session.object_id, second.object_id} <= {oid for oid, __ in keys}
        [record] = journal.replay()
        assert [(m.block_id.object_id, m.block_id.index) for m in record.plan] == keys
