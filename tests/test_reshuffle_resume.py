"""The journaled online reshuffle: lifecycle, crash recovery, fsck.

The legacy ``reshuffle()`` teleported every block in one unjournaled
step — a crash mid-way left seeds already reset but blocks half-moved,
with no record of which.  These tests pin the re-implementation:
reshuffle is a first-class journaled operation (begin/apply/commit under
its own op kind), resumable from snapshot + journal after a kill at
*every* move index, auditable mid-flight by fsck, and refused outright
while any other operation is in flight (the historical corruption bug).
"""

from __future__ import annotations

import json

import pytest

from repro.core.operations import ScalingOp
from repro.server.cmserver import (
    CMServer,
    OperationInFlightError,
    PendingReshuffle,
)
from repro.server.fsck import check_layout
from repro.server.journal import (
    JournalError,
    ReshuffleOp,
    ScalingJournal,
)
from repro.server.persistence import (
    restore_server,
    resume_server,
    server_to_json,
    snapshot_server,
)
from repro.storage.disk import DiskSpec
from repro.storage.migration import MigrationSession
from repro.workloads.generator import uniform_catalog


def make_server(journal=None, num_objects=3, blocks=60, bits=32):
    catalog = uniform_catalog(
        num_objects, blocks, master_seed=0x7041, bits=bits
    )
    spec = DiskSpec(capacity_blocks=100_000, bandwidth_blocks_per_round=8)
    return CMServer(
        catalog, [spec] * 4, bits=bits, default_spec=spec, journal=journal
    )


def logical_layout(server):
    layout = {}
    for media in server.catalog:
        for index in range(media.num_blocks):
            pid = server.block_location(media.object_id, index)
            layout[(media.object_id, index)] = server.array.logical_of(pid)
    return layout


class TestReshuffleOp:
    def test_round_trip(self):
        op = ReshuffleOp(epoch=3)
        assert ReshuffleOp.from_dict(op.to_dict()) == op
        assert op.to_dict() == {"kind": "reshuffle", "epoch": 3}

    def test_rejects_foreign_payload(self):
        with pytest.raises(ValueError, match="not a ReshuffleOp"):
            ReshuffleOp.from_dict({"kind": "add", "count": 1})

    def test_record_is_reshuffle(self):
        journal = ScalingJournal()
        journal.record_begin(1, ReshuffleOp(epoch=1), 4, 4, [])
        (record,) = journal.replay()
        assert record.is_reshuffle
        assert record.op == ReshuffleOp(epoch=1)


class TestJournaledLifecycle:
    def test_offline_reshuffle_writes_full_protocol(self):
        journal = ScalingJournal()
        server = make_server(journal=journal)
        moved = server.reshuffle()
        (record,) = journal.replay()
        assert record.is_reshuffle and record.committed
        assert len(record.plan) == moved == len(record.applied)
        assert server.reshuffles == 1

    def test_begin_blocks_second_reshuffle(self):
        server = make_server()
        server.begin_reshuffle()
        with pytest.raises(OperationInFlightError, match="in flight"):
            server.begin_reshuffle()

    def test_begin_blocks_scaling(self):
        server = make_server()
        server.begin_reshuffle()
        with pytest.raises(OperationInFlightError, match="finish it"):
            server.begin_scale(ScalingOp.add(1))

    def test_reshuffle_refused_mid_migration(self):
        """The historical bug: a reshuffle during a live migration reset
        seeds under half-moved blocks.  Now it refuses cleanly."""
        server = make_server()
        pending = server.begin_scale(ScalingOp.add(1))
        with pytest.raises(OperationInFlightError, match="PendingScale"):
            server.reshuffle()
        # The refusal must not have touched seeds or the backend.
        assert server.reshuffles == 0
        assert server.backend.num_operations == 1
        session = MigrationSession(server.array, pending.plan)
        session.step(10_000)
        server.finish_scale(pending)
        assert check_layout(server).clean
        server.reshuffle()  # fine once quiescent
        assert server.reshuffles == 1

    def test_finish_twice_rejected(self):
        server = make_server()
        pending = server.begin_reshuffle()
        MigrationSession(server.array, pending.plan).step(10_000)
        server.finish_reshuffle(pending)
        with pytest.raises(ValueError, match="already finished"):
            server.finish_reshuffle(pending)

    def test_serving_reads_old_or_new_mid_reshuffle(self):
        """Mid-reset, the inventory answers the *old* home for unmoved
        blocks and the *new* home for moved ones — exactly the
        mid-migration contract serving relies on."""
        server = make_server()
        pending = server.begin_reshuffle()
        session = MigrationSession(server.array, pending.plan)
        k = len(pending.plan) // 2
        session.step(10_000, max_moves=k)
        moved = {m.block_id for m in session.executed}
        for m in pending.plan.moves:
            want = (
                m.target_physical if m.block_id in moved
                else m.source_physical
            )
            assert server.array.home_of(m.block_id) == want
        session.step(10_000)
        server.finish_reshuffle(pending)

    def test_fsck_classifies_in_flight_reset_moves(self):
        server = make_server()
        pending = server.begin_reshuffle()
        session = MigrationSession(server.array, pending.plan)
        session.step(10_000, max_moves=len(pending.plan) // 2)
        # Without context the unmoved half looks misplaced...
        blind = check_layout(server)
        assert not blind.clean
        # ...with the pending reshuffle they classify as in-flight.
        aware = check_layout(server, pending)
        assert aware.clean
        assert len(aware.in_flight) == len(pending.plan) - (
            len(pending.plan) // 2
        )
        session.step(10_000)
        server.finish_reshuffle(pending)
        assert check_layout(server).clean


class TestCrashResume:
    def test_kill_at_every_move_index(self):
        """The tentpole acceptance property, k in {0..M}: a crash after
        any number of journaled reshuffle moves resumes bit-identically
        to the uninterrupted run."""
        reference = make_server()
        reference.scale(ScalingOp.add(2))
        reference.reshuffle()
        want = logical_layout(reference)

        probe = make_server(journal=ScalingJournal())
        probe.scale(ScalingOp.add(2))
        snapshot = json.loads(server_to_json(probe))
        total_moves = len(probe.begin_reshuffle().plan)
        assert total_moves > 0

        for k in range(total_moves + 1):
            journal = ScalingJournal()
            server = restore_server(snapshot)
            server.attach_journal(journal)
            pending = server.begin_reshuffle()
            session = MigrationSession(
                server.array, pending.plan,
                journal=journal, op_seq=pending.op_seq,
            )
            moved = len(session.step(10_000_000, max_moves=k))
            assert moved == k
            del server, pending, session  # the crash

            resumed, open_pending, open_session = resume_server(
                snapshot, journal
            )
            assert isinstance(open_pending, PendingReshuffle)
            assert open_session.remaining == total_moves - k
            while not open_session.done:
                open_session.step(10_000_000)
            resumed.finish_reshuffle(open_pending)

            assert logical_layout(resumed) == want, f"diverged at k={k}"
            assert check_layout(resumed).clean, f"fsck dirty at k={k}"
            assert resumed.reshuffles == 1

    def test_committed_reshuffle_replayed_wholesale(self):
        journal = ScalingJournal()
        server = make_server(journal=journal)
        server.scale(ScalingOp.add(1))
        snapshot = snapshot_server(server)
        server.reshuffle()
        server.scale(ScalingOp.add(1))  # post-reset seq space starts at 1
        want = logical_layout(server)
        del server

        resumed, pending, session = resume_server(snapshot, journal)
        assert pending is None and session is None
        assert resumed.reshuffles == 1
        assert resumed.backend.num_operations == 1
        assert logical_layout(resumed) == want
        assert check_layout(resumed).clean

    def test_snapshot_after_reshuffle_skips_stale_records(self):
        journal = ScalingJournal()
        server = make_server(journal=journal)
        server.scale(ScalingOp.add(1))
        server.reshuffle()
        snapshot = snapshot_server(server)  # reflects the reset already
        server.scale(ScalingOp.add(2))
        want = logical_layout(server)
        del server

        resumed, pending, session = resume_server(snapshot, journal)
        assert pending is None and session is None
        assert logical_layout(resumed) == want

    def test_resume_is_crash_idempotent(self, tmp_path):
        """Crashing during recovery and recovering again is safe: the
        journal is not re-written while replaying (it is detached)."""
        path = tmp_path / "journal.jsonl"
        journal = ScalingJournal(path)
        server = make_server(journal=journal)
        snapshot = snapshot_server(server)
        pending = server.begin_reshuffle()
        MigrationSession(
            server.array, pending.plan, journal=journal,
            op_seq=pending.op_seq,
        ).step(10_000, max_moves=3)
        del server, pending
        records_before = len(path.read_text().splitlines())

        # First recovery attempt "crashes" (we just drop it).
        resume_server(snapshot, journal)
        assert len(path.read_text().splitlines()) == records_before

        resumed, open_pending, open_session = resume_server(snapshot, journal)
        while not open_session.done:
            open_session.step(10_000)
        resumed.finish_reshuffle(open_pending)
        assert check_layout(resumed).clean
        journal.close()

    def test_torn_final_line_on_reshuffle_record_tolerated(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = ScalingJournal(path)
        server = make_server(journal=journal)
        snapshot = snapshot_server(server)
        pending = server.begin_reshuffle()
        MigrationSession(
            server.array, pending.plan, journal=journal,
            op_seq=pending.op_seq,
        ).step(10_000, max_moves=2)
        journal.close()
        # The classic crash artifact: a half-written apply record.
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"type": "apply", "seq": 1, "blo')
        del server, pending

        resumed, open_pending, open_session = resume_server(
            snapshot, str(path)
        )
        assert isinstance(open_pending, PendingReshuffle)
        # The torn third apply was dropped: only 2 moves were replayed.
        assert open_session.remaining == len(open_pending.plan) - 2
        while not open_session.done:
            open_session.step(10_000)
        resumed.finish_reshuffle(open_pending)
        assert check_layout(resumed).clean
        resumed.journal.close()

        # The resume wrote its records after the torn fragment, so the
        # same journal must resume again, quiescent, to the uncrashed
        # twin's layout.
        twin = make_server()
        twin.reshuffle()
        again, pending_again, session_again = resume_server(
            snapshot, str(path)
        )
        assert pending_again is None and session_again is None
        assert logical_layout(again) == logical_layout(twin)
        assert check_layout(again).clean

    def test_wrong_epoch_rejected(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = ScalingJournal(path)
        server = make_server(journal=journal)
        snapshot = snapshot_server(server)
        server.reshuffle()
        del server
        journal.close()
        # Tamper: claim the journal's reshuffle is epoch 5.
        lines = path.read_text().splitlines()
        begin = json.loads(lines[0])
        begin["op"]["epoch"] = 5
        lines[0] = json.dumps(begin)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="epoch=5"):
            resume_server(snapshot, str(path))


class TestSnapshotV4:
    def test_seed_epoch_round_trips(self):
        server = make_server()
        server.reshuffle()
        server.reshuffle()
        snapshot = snapshot_server(server)
        assert snapshot["version"] == 4
        assert snapshot["seed_epoch"] == 2
        restored = restore_server(snapshot)
        assert restored.catalog._seed_epoch == 2
        # The next reshuffle must derive the same seeds on both.
        server.reshuffle()
        restored.reshuffle()
        assert logical_layout(restored) == logical_layout(server)

    def test_v3_snapshot_infers_epoch_from_reshuffles(self):
        server = make_server()
        server.reshuffle()
        snapshot = snapshot_server(server)
        del snapshot["seed_epoch"]
        snapshot["version"] = 3  # what the previous build wrote
        restored = restore_server(snapshot)
        assert restored.catalog._seed_epoch == 1
        assert logical_layout(restored) == logical_layout(server)
