"""Tests for the layout checker/repairer."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.operations import ScalingOp
from repro.server.cmserver import CMServer, PendingScale
from repro.server.fsck import (
    LayoutReport,
    LayoutViolation,
    check_layout,
    repair_layout,
)
from repro.storage.block import Block, BlockId
from repro.storage.disk import DiskSpec
from repro.storage.migration import MigrationSession
from repro.workloads.generator import uniform_catalog


def make_server():
    catalog = uniform_catalog(3, 80, master_seed=0xF5C, bits=32)
    spec = DiskSpec(capacity_blocks=100_000)
    return CMServer(catalog, [spec] * 4, bits=32, default_spec=spec)


class TestCheckLayout:
    def test_fresh_server_is_clean(self):
        report = check_layout(make_server())
        assert report.clean
        assert report.blocks_checked == 240

    def test_clean_after_scaling(self):
        server = make_server()
        server.scale(ScalingOp.add(2))
        server.scale(ScalingOp.remove([1]))
        assert check_layout(server).clean

    def test_detects_misplaced_block(self):
        server = make_server()
        block_id = BlockId(0, 0)
        home = server.array.home_of(block_id)
        other = next(p for p in server.array.physical_ids if p != home)
        server.array.move(block_id, other)
        report = check_layout(server)
        assert not report.clean
        assert len(report.misplaced) == 1
        violation = report.misplaced[0]
        assert violation.block_id == block_id
        assert violation.actual_physical == other
        assert violation.expected_physical == home

    def test_detects_missing_block(self):
        server = make_server()
        server.array.drop(BlockId(1, 5))
        report = check_layout(server)
        assert report.missing == [BlockId(1, 5)]
        assert not report.clean

    def test_detects_orphan_block(self):
        server = make_server()
        stray = Block(object_id=99, index=0, x0=123)
        server.array.place(stray, 0)
        report = check_layout(server)
        assert report.orphans == [BlockId(99, 0)]


class TestRepairLayout:
    def test_repairs_misplaced(self):
        server = make_server()
        for index in (0, 1, 2):
            block_id = BlockId(0, index)
            home = server.array.home_of(block_id)
            other = next(p for p in server.array.physical_ids if p != home)
            server.array.move(block_id, other)
        assert repair_layout(server) == 3
        assert check_layout(server).clean

    def test_repair_is_idempotent(self):
        server = make_server()
        assert repair_layout(server) == 0
        assert repair_layout(server) == 0

    def test_repair_leaves_missing_and_orphans(self):
        server = make_server()
        server.array.drop(BlockId(0, 0))
        server.array.place(Block(object_id=50, index=0, x0=9), 1)
        repair_layout(server)
        report = check_layout(server)
        assert report.missing == [BlockId(0, 0)]
        assert report.orphans == [BlockId(50, 0)]

    def test_repair_after_interrupted_migration(self):
        """Simulate a crash mid-scale: mapper updated, moves half-done."""
        server = make_server()
        pending = server.begin_scale(ScalingOp.add(1))
        from repro.storage.migration import MigrationSession

        session = MigrationSession(server.array, pending.plan)
        session.step(budget=1)  # partial progress, then "crash"
        server.finish_scale(pending)
        report = check_layout(server)
        assert report.misplaced  # the unexecuted moves
        repair_layout(server, report)
        assert check_layout(server).clean


def per_block_check_layout(server, pending=None) -> LayoutReport:
    """The audit one block at a time (kept here as the oracle): one
    ``block_locations`` pass per object, one ``home_of`` per block and
    a scan of every disk's contents for orphans."""
    if isinstance(pending, PendingScale):
        moves = pending.plan.moves
        attached = list(server.array.physical_ids)
        translate = {}
        if pending.removed_physicals and set(pending.removed_physicals) <= set(
            attached
        ):
            survivors = server.array.survivors_after_removal(pending.op.removed)
            translate = {attached[i]: pid for i, pid in enumerate(survivors)}
    else:
        moves = tuple(pending or ())
        translate = {}
    expected_by_move = {
        m.block_id: (m.source_physical, m.target_physical) for m in moves
    }
    report = LayoutReport()
    cataloged = set()
    for media in server.catalog:
        for index, expected in enumerate(server.block_locations(media.object_id)):
            expected = translate.get(expected, expected)
            block_id = BlockId(media.object_id, index)
            cataloged.add(block_id)
            report.blocks_checked += 1
            try:
                actual = server.array.home_of(block_id)
            except KeyError:
                report.missing.append(block_id)
                continue
            if actual != expected:
                violation = LayoutViolation(block_id, expected, actual)
                if expected_by_move.get(block_id) == (actual, expected):
                    report.in_flight.append(violation)
                else:
                    report.misplaced.append(violation)
    for pid in server.array.physical_ids:
        for block in server.array.blocks_on_physical(pid):
            if block.block_id not in cataloged:
                report.orphans.append(block.block_id)
    return report


class TestColumnAuditMatchesPerBlockAudit:
    @given(
        backend=st.sampled_from(["scaddar", "consistent_hash", "directory"]),
        objects=st.integers(1, 4),
        blocks=st.integers(1, 30),
        op=st.sampled_from([None, "add", "remove"]),
        landed=st.integers(0, 40),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_same_report(self, backend, objects, blocks, op, landed, data):
        """Random misplaced, missing and orphan blocks on a quiescent or
        mid-migration server (mid-removal included): the column audit
        reports what the per-block oracle reports (orphans as a set)."""
        server = CMServer(
            uniform_catalog(objects, blocks, master_seed=blocks, bits=32),
            [DiskSpec()] * 4,
            bits=32,
            backend=backend,
        )
        pending = None
        if op is not None:
            pending = server.begin_scale(
                ScalingOp.add(1) if op == "add" else ScalingOp.remove([1])
            )
            MigrationSession(server.array, pending.plan).step(
                len(pending.plan) + 1, max_moves=landed
            )
        pick = st.sampled_from(sorted(server.array.resident_ids()))
        pids = server.array.physical_ids
        for block_id in data.draw(st.lists(pick, max_size=4, unique=True)):
            kind = data.draw(st.sampled_from(["misplace", "drop"]))
            if kind == "drop":
                server.array.drop(block_id)
            else:
                server.array.move(block_id, data.draw(st.sampled_from(pids)))
        for __ in range(data.draw(st.integers(0, 3))):
            owner = data.draw(st.integers(0, objects + 1))
            index = data.draw(st.integers(0, 2 * blocks))
            orphan = Block(owner, index, x0=index)
            if owner < objects and index < blocks:
                continue  # a catalog block, not an orphan
            if orphan.block_id not in set(server.array.resident_ids()):
                server.array.place_physical(orphan, data.draw(st.sampled_from(pids)))
        expected = per_block_check_layout(server, pending)
        report = check_layout(server, pending)
        assert report.blocks_checked == expected.blocks_checked
        assert report.missing == expected.missing
        assert report.misplaced == expected.misplaced
        assert report.in_flight == expected.in_flight
        assert sorted(report.orphans) == sorted(expected.orphans)
        assert report.clean == expected.clean
