"""Advanced server scenarios: subsystems interacting under churn."""

from __future__ import annotations

import pytest

from repro.core.operations import ScalingOp
from repro.server.cmserver import CMServer
from repro.server.fsck import check_layout
from repro.server.ingest import IngestSession
from repro.server.online import OnlineScaler
from repro.server.persistence import restore_server, snapshot_server
from repro.server.scheduler import RoundScheduler
from repro.server.streams import Stream
from repro.storage.block import BlockId
from repro.storage.disk import DiskSpec
from repro.workloads.generator import lognormal_catalog, uniform_catalog


def make_server(num_objects=4, blocks=200, n0=4, bandwidth=8):
    catalog = uniform_catalog(num_objects, blocks, master_seed=0xADA, bits=32)
    spec = DiskSpec(capacity_blocks=100_000, bandwidth_blocks_per_round=bandwidth)
    return CMServer(catalog, [spec] * n0, bits=32, default_spec=spec)


class TestScalingDuringIngest:
    def test_online_scale_while_ingesting(self):
        """Ingest and online scaling interleave without corrupting layout."""
        server = make_server()
        scheduler = RoundScheduler(server.array)
        scheduler.admit(Stream(0, server.catalog.get(0)))
        session = IngestSession(server, "live-load", 120)
        session.step(budget=3)

        scaler = OnlineScaler(server, scheduler)
        report = scaler.scale_online(ScalingOp.add(1))
        assert report.hiccups == 0

        # Finish the ingest after the scale; new blocks land per new AF.
        while not session.done:
            round_report = scheduler.run_round()
            session.step(round_report.spare_by_physical)
        assert check_layout(server).clean

    def test_two_concurrent_ingests(self):
        server = make_server()
        a = IngestSession(server, "title-a", 60)
        b = IngestSession(server, "title-b", 60)
        while not (a.done and b.done):
            a.step(budget=2)
            b.step(budget=2)
        assert server.catalog.get(a.object_id).name == "title-a"
        assert check_layout(server).clean


class TestReshuffleUnderStreams:
    def test_streams_survive_reshuffle(self):
        """A (stop-the-world) reshuffle relocates blocks but streams keep
        their positions and resume cleanly."""
        server = make_server()
        scheduler = RoundScheduler(server.array)
        stream = Stream(0, server.catalog.get(1), start_block=10)
        scheduler.admit(stream)
        scheduler.run_rounds(5)
        consumed_before = stream.blocks_consumed

        server.reshuffle()
        reports = scheduler.run_rounds(5)
        assert stream.blocks_consumed > consumed_before
        assert sum(r.hiccups for r in reports) == 0
        assert check_layout(server).clean


class TestSnapshotChurn:
    def test_snapshot_between_begin_and_finish_is_consistent_after(self):
        """Snapshots taken mid-scale reflect the mapper's committed epoch;
        restoring one yields the post-operation layout (the op log is the
        source of truth, not the in-flight physical state)."""
        server = make_server(blocks=100)
        pending = server.begin_scale(ScalingOp.add(1))
        snap = snapshot_server(server)
        from repro.storage.migration import MigrationSession

        MigrationSession(server.array, pending.plan).run(budget=10_000)
        server.finish_scale(pending)

        restored = restore_server(snap)
        assert restored.num_disks == server.num_disks
        for media in server.catalog:
            for index in (0, 50, 99):
                a = server.array.logical_of(
                    server.block_location(media.object_id, index)
                )
                b = restored.array.logical_of(
                    restored.block_location(media.object_id, index)
                )
                assert a == b

    def test_snapshot_after_object_churn(self):
        server = make_server(num_objects=3, blocks=50)
        server.remove_object(1)
        server.add_object("replacement", 80)
        restored = restore_server(snapshot_server(server))
        assert len(restored.catalog) == 3
        assert restored.total_blocks == server.total_blocks
        assert 1 not in restored.catalog
        assert check_layout(restored).clean


class TestObjectChurnUnderStreams:
    def test_remove_other_object_does_not_disturb_stream(self):
        server = make_server(num_objects=3, blocks=60)
        scheduler = RoundScheduler(server.array)
        stream = Stream(0, server.catalog.get(0))
        scheduler.admit(stream)
        scheduler.run_rounds(3)
        server.remove_object(2)
        reports = scheduler.run_rounds(3)
        assert sum(r.hiccups for r in reports) == 0
        assert stream.blocks_consumed == 6

    def test_lognormal_catalog_server(self):
        catalog = lognormal_catalog(
            8, median_blocks=60, master_seed=0x106, bits=32
        )
        spec = DiskSpec(capacity_blocks=100_000)
        server = CMServer(catalog, [spec] * 4, bits=32, default_spec=spec)
        server.scale(ScalingOp.add(2))
        server.scale(ScalingOp.remove([0]))
        assert check_layout(server).clean
        assert server.total_blocks == catalog.total_blocks


class TestRepeatedBeginFinish:
    def test_sequential_pending_scales(self):
        server = make_server(blocks=100)
        from repro.storage.migration import MigrationSession

        for op in (ScalingOp.add(1), ScalingOp.remove([2]), ScalingOp.add(2)):
            pending = server.begin_scale(op)
            MigrationSession(server.array, pending.plan).run(budget=10_000)
            server.finish_scale(pending)
        assert server.num_disks == 6
        assert check_layout(server).clean

    def test_double_finish_rejected(self):
        server = make_server(blocks=50)
        pending = server.begin_scale(ScalingOp.add(1))
        from repro.storage.migration import MigrationSession

        MigrationSession(server.array, pending.plan).run(budget=10_000)
        server.finish_scale(pending)
        with pytest.raises(ValueError):
            server.finish_scale(pending)


class TestFailoverLocator:
    def test_scheduler_with_mirror_failover_locator(self):
        """A locator can route reads around a failed disk via mirrors
        without touching the scheduler."""
        from repro.server.faults import MirroredPlacement

        server = make_server(num_objects=1, blocks=120, n0=6)
        mirrored = MirroredPlacement(server.mapper)
        failed_logical = 2
        failed_physical = server.array.physical_at(failed_logical)

        def locator(block_id: BlockId) -> int:
            x0 = server.block_x0(block_id.object_id, block_id.index)
            logical = mirrored.read_disk(x0, failed={failed_logical})
            return server.array.physical_at(logical)

        scheduler = RoundScheduler(server.array, locator=locator)
        scheduler.admit(Stream(0, server.catalog.get(0)))
        reports = scheduler.run_rounds(30)
        assert all(
            r.load_by_physical.get(failed_physical, 0) == 0 for r in reports
        )
        assert sum(r.served for r in reports) == 30
