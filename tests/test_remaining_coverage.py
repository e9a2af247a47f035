"""Targeted tests for the remaining under-exercised paths."""

from __future__ import annotations

import pytest

from repro.core.operations import ScalingOp
from repro.server.cmserver import CMServer, ScaleReport
from repro.server.online import OnlineScaler, StalledMigrationError
from repro.server.scheduler import RoundScheduler
from repro.server.streams import Stream
from repro.storage.block import BlockId
from repro.storage.disk import DiskSpec
from repro.storage.migration import MigrationSession
from repro.workloads.generator import uniform_catalog


def make_server(num_objects=2, blocks=100, n0=4, bandwidth=8):
    catalog = uniform_catalog(num_objects, blocks, master_seed=0xC0B, bits=32)
    spec = DiskSpec(capacity_blocks=100_000, bandwidth_blocks_per_round=bandwidth)
    return CMServer(catalog, [spec] * n0, bits=32, default_spec=spec)


class TestScaleReportEdges:
    def test_moved_fraction_empty_server(self):
        report = ScaleReport(
            op=ScalingOp.add(1),
            n_before=4,
            n_after=5,
            blocks_moved=0,
            total_blocks=0,
            optimal_fraction=0,
        )
        assert report.moved_fraction == 0.0

    def test_scale_on_empty_server(self):
        from repro.server.objects import ObjectCatalog

        server = CMServer(ObjectCatalog(bits=32), [DiskSpec()] * 3, bits=32)
        report = server.scale(ScalingOp.add(1))
        assert report.blocks_moved == 0
        assert server.num_disks == 4


class TestAddObjectDuringPendingScale:
    def test_new_object_lands_in_new_epoch(self):
        """Objects added mid-scale are placed by the already-updated
        mapper; the pending plan only covers pre-existing blocks."""
        server = make_server(blocks=50)
        pending = server.begin_scale(ScalingOp.add(1))
        media = server.add_object("late-arrival", 40)
        # The newcomer's blocks are already where AF() says (new epoch).
        for index in (0, 20, 39):
            assert server.block_location(media.object_id, index) == (
                server.array.home_of(BlockId(media.object_id, index))
            )
        MigrationSession(server.array, pending.plan).run(budget=10_000)
        server.finish_scale(pending)
        from repro.server.fsck import check_layout

        assert check_layout(server).clean


class TestOnlineScalerLimits:
    def test_max_rounds_enforced(self):
        server = make_server(bandwidth=2)
        scheduler = RoundScheduler(server.array)
        for sid in range(4):
            scheduler.admit(Stream(sid, server.catalog.get(sid % 2)))
        scaler = OnlineScaler(server, scheduler)
        with pytest.raises(StalledMigrationError):
            scaler.scale_online(ScalingOp.add(1), max_rounds=1)

    def test_eps_guard_passes_through(self):
        from repro.core.errors import RandomnessExhaustedError

        server = make_server()
        for __ in range(8):
            server.scale(ScalingOp.add(1), eps=0.05)
        scaler = OnlineScaler(server, RoundScheduler(server.array))
        with pytest.raises(RandomnessExhaustedError):
            scaler.scale_online(ScalingOp.add(1), eps=0.05)


class TestDefaultSpecBehaviour:
    def test_added_disks_inherit_default_spec(self):
        catalog = uniform_catalog(1, 10, master_seed=1, bits=32)
        small = DiskSpec(capacity_blocks=500, bandwidth_blocks_per_round=2)
        big = DiskSpec(capacity_blocks=9_000, bandwidth_blocks_per_round=20)
        server = CMServer(catalog, [small] * 2, bits=32, default_spec=big)
        server.scale(ScalingOp.add(1))
        new_pid = server.array.physical_at(2)
        assert server.array.disk(new_pid).capacity_blocks == 9_000

    def test_default_spec_falls_back_to_first(self):
        catalog = uniform_catalog(1, 10, master_seed=1, bits=32)
        spec = DiskSpec(capacity_blocks=777)
        server = CMServer(catalog, [spec] * 2, bits=32)
        assert server.default_spec.capacity_blocks == 777


class TestHiccupRetrySemantics:
    def test_blocked_stream_eventually_served(self):
        """A stream starved in one round retries the same block and is
        served in a later round (no blocks are skipped)."""
        from repro.server.objects import MediaObject
        from repro.storage.array import DiskArray
        from repro.storage.block import Block

        array = DiskArray(
            [DiskSpec(capacity_blocks=100, bandwidth_blocks_per_round=1)] * 2
        )
        media = MediaObject(object_id=0, name="m", num_blocks=6, seed=1, bits=32)
        for i in range(6):
            array.place(Block(0, i, x0=0), 0)  # everything on disk 0
        scheduler = RoundScheduler(array)
        a, b = Stream(1, media), Stream(2, media)
        scheduler.admit(a)
        scheduler.admit(b)
        scheduler.run_rounds(12)
        # Bandwidth 1 on the only loaded disk: 12 serves split between 2
        # streams; both progressed and consumed consecutive prefixes.
        assert a.blocks_consumed + b.blocks_consumed == 12
        assert a.position == a.blocks_consumed
        assert b.position == b.blocks_consumed


class TestCliReportQuick:
    def test_report_quick_is_markdown(self, quick_report):
        code, text = quick_report
        assert code == 0
        assert text.startswith("# SCADDAR reproduction")
        assert "```text" in text
