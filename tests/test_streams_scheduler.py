"""Unit tests for streams and the round scheduler."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.server.admission import AdmissionRefusedError
from repro.server.objects import MediaObject
from repro.server.scheduler import RoundScheduler
from repro.server.streams import Stream, StreamState
from repro.storage.array import DiskArray
from repro.storage.block import Block
from repro.storage.disk import DiskSpec


def media(num_blocks=20, rate=1, object_id=0):
    return MediaObject(
        object_id=object_id,
        name=f"m{object_id}",
        num_blocks=num_blocks,
        seed=7 + object_id,
        bits=32,
        blocks_per_round=rate,
    )


class TestStream:
    def test_initial_state(self):
        s = Stream(1, media())
        assert s.state is StreamState.PLAYING
        assert s.is_active
        assert s.position == 0

    def test_bad_start_rejected(self):
        with pytest.raises(ValueError):
            Stream(1, media(num_blocks=5), start_block=5)

    def test_blocks_needed(self):
        s = Stream(1, media(rate=2))
        needed = s.blocks_needed()
        assert [(b.object_id, b.index) for b in needed] == [(0, 0), (0, 1)]

    def test_blocks_needed_clamps_at_end(self):
        s = Stream(1, media(num_blocks=3, rate=2), start_block=2)
        assert len(s.blocks_needed()) == 1

    def test_deliver_advances_and_finishes(self):
        s = Stream(1, media(num_blocks=3))
        s.deliver(1)
        assert s.position == 1
        s.deliver(2)
        assert s.state is StreamState.DONE
        assert not s.is_active
        assert s.blocks_needed() == []

    def test_deliver_negative_rejected(self):
        with pytest.raises(ValueError):
            Stream(1, media()).deliver(-1)

    def test_pause_resume(self):
        s = Stream(1, media())
        s.pause()
        assert s.state is StreamState.PAUSED
        assert s.blocks_needed() == []
        s.resume()
        assert s.state is StreamState.PLAYING

    def test_pause_done_stream_is_noop(self):
        s = Stream(1, media(num_blocks=1))
        s.deliver(1)
        s.pause()
        assert s.state is StreamState.DONE

    def test_seek(self):
        s = Stream(1, media(num_blocks=10))
        s.seek(7)
        assert s.position == 7
        with pytest.raises(ValueError):
            s.seek(10)

    def test_seek_revives_done_stream(self):
        s = Stream(1, media(num_blocks=2))
        s.deliver(2)
        s.seek(0)
        assert s.state is StreamState.PLAYING


def build_served_array(objects, n_disks=4, bandwidth=2):
    """Place all object blocks round-robin so demand is predictable."""
    array = DiskArray(
        [DiskSpec(capacity_blocks=1000, bandwidth_blocks_per_round=bandwidth)]
        * n_disks
    )
    for obj in objects:
        for i in range(obj.num_blocks):
            array.place(Block(obj.object_id, i, x0=i), i % n_disks)
    return array


class TestScheduler:
    def test_round_serves_within_bandwidth(self):
        obj = media(num_blocks=12)
        array = build_served_array([obj])
        sched = RoundScheduler(array)
        sched.admit(Stream(1, obj))
        report = sched.run_round()
        assert report.requested == 1
        assert report.served == 1
        assert report.hiccups == 0

    def test_spare_budget_reported(self):
        obj = media(num_blocks=12)
        array = build_served_array([obj], bandwidth=3)
        sched = RoundScheduler(array)
        sched.admit(Stream(1, obj))
        report = sched.run_round()
        # One disk served one block (spare 2), others are idle (spare 3).
        assert sorted(report.spare_by_physical.values()) == [2, 3, 3, 3]

    def test_hiccup_when_one_disk_oversubscribed(self):
        obj = media(num_blocks=12)
        array = build_served_array([obj], bandwidth=1)
        sched = RoundScheduler(array)
        # Three streams all starting at block 0 -> same disk, bandwidth 1.
        for sid in range(3):
            sched.admit(Stream(sid, obj, start_block=0))
        report = sched.run_round()
        assert report.requested == 3
        assert report.served == 1
        assert report.hiccups == 2
        assert sched.total_hiccups == 2

    def test_unserved_stream_retries_same_block(self):
        obj = media(num_blocks=12)
        array = build_served_array([obj], bandwidth=1)
        sched = RoundScheduler(array)
        s1, s2 = Stream(1, obj), Stream(2, obj)
        sched.admit(s1)
        sched.admit(s2)
        sched.run_round()
        positions = sorted((s1.position, s2.position))
        assert positions == [0, 1]  # one advanced, one retries

    def test_admission_control(self):
        obj = media(num_blocks=12, rate=1)
        array = build_served_array([obj], n_disks=2, bandwidth=1)
        sched = RoundScheduler(array)
        sched.admit(Stream(1, obj))
        sched.admit(Stream(2, obj))
        with pytest.raises(ValueError):
            sched.admit(Stream(3, obj))

    def test_duplicate_stream_id_rejected(self):
        obj = media()
        array = build_served_array([obj])
        sched = RoundScheduler(array)
        sched.admit(Stream(1, obj))
        with pytest.raises(ValueError):
            sched.admit(Stream(1, obj))

    def test_depart(self):
        obj = media()
        array = build_served_array([obj])
        sched = RoundScheduler(array)
        stream = Stream(1, obj)
        sched.admit(stream)
        assert sched.depart(1) is stream
        with pytest.raises(KeyError):
            sched.depart(1)

    def test_run_rounds_and_active_count(self):
        obj = media(num_blocks=3)
        array = build_served_array([obj])
        sched = RoundScheduler(array)
        sched.admit(Stream(1, obj))
        reports = sched.run_rounds(5)
        assert len(reports) == 5
        assert sched.active_streams == 0  # finished after 3 rounds
        assert [r.round_index for r in reports] == list(range(5))

    def test_run_rounds_negative(self):
        obj = media()
        sched = RoundScheduler(build_served_array([obj]))
        with pytest.raises(ValueError):
            sched.run_rounds(-1)

    def test_custom_locator(self):
        obj = media(num_blocks=4)
        array = build_served_array([obj])
        target = array.physical_at(0)
        sched = RoundScheduler(array, locator=lambda block_id: target)
        sched.admit(Stream(1, obj))
        report = sched.run_round()
        assert report.load_by_physical[target] == 1

    def test_peak_queue_per_round(self):
        obj = media(num_blocks=6)
        array = build_served_array([obj])
        sched = RoundScheduler(array)
        sched.admit(Stream(1, obj))
        reports = sched.run_rounds(2)
        assert sched.peak_queue_per_round(reports) == [1, 1]


class TestDemandWindow:
    def test_window_matches_blocks_needed(self):
        s = Stream(1, media(num_blocks=5, rate=2), start_block=4)
        start, count = s.demand_window()
        assert (start, count) == (4, 1)
        assert [(b.object_id, b.index) for b in s.blocks_needed()] == [(0, 4)]

    def test_window_zero_when_inactive(self):
        s = Stream(1, media())
        s.pause()
        assert s.demand_window()[1] == 0
        s.resume()
        s.deliver(20)
        assert s.demand_window()[1] == 0


class TestStreamTable:
    def test_active_demand_follows_flips(self):
        from repro.server.streams import StreamTable

        table = StreamTable()
        s = Stream(1, media(num_blocks=3, rate=2))
        table.append(s)
        demands = [table.active_demand]
        s.deliver(1)  # still playing
        demands.append(table.active_demand)
        s.pause()
        s.pause()  # already paused: no change
        demands.append(table.active_demand)
        s.resume()
        demands.append(table.active_demand)
        s.deliver(2)  # finishes
        demands.append(table.active_demand)
        s.seek(0)  # revives
        demands.append(table.active_demand)
        assert demands == [2, 2, 0, 2, 0, 2]

    def test_handle_is_a_view_while_admitted(self):
        from repro.server.streams import StreamTable

        table = StreamTable()
        s = Stream(7, media(num_blocks=10), start_block=3)
        table.append(s)
        table.position[0] = 5
        assert s.position == 5
        s.seek(8)
        assert int(table.position[0]) == 8
        assert table.handles() == (s,)
        with pytest.raises(ValueError):
            StreamTable().append(s)  # one table at a time

    def test_departed_handle_keeps_last_values(self):
        from repro.server.streams import StreamTable

        table = StreamTable()
        s = Stream(1, media(num_blocks=4))
        table.append(s)
        table.deliver(np.array([4]))
        assert table.remove(1) is s
        assert (s.position, s.state, s.blocks_consumed) == (
            4, StreamState.DONE, 4,
        )
        table.append(Stream(2, media(num_blocks=4)))
        assert s.position == 4  # no longer reads the (reused) row

    def test_departed_handles_outlive_compaction_growth_and_writes(self):
        # Departed handles read their last values from the rows they
        # left; the table compacts and grows into fresh arrays, so those
        # values hold until the handle itself is written or readmitted.
        from repro.server.streams import StreamTable

        table = StreamTable()
        obj = media(num_blocks=50)
        streams = [Stream(sid, obj, start_block=sid) for sid in range(40)]
        twins = [Stream(sid, obj, start_block=sid) for sid in range(40)]
        for stream in streams:
            table.append(stream)
        served = np.arange(40) % 3
        table.deliver(served, np.ones(40, dtype=np.int64))
        for twin, count in zip(twins, served.tolist()):
            twin.deliver(count, demanded=1)
        twins[5].pause()
        streams[5].pause()

        def values(stream):
            return (stream.position, stream.state, stream.stall_rounds,
                    stream.blocks_consumed)

        departed = [table.remove(sid) for sid in range(25)]
        assert table.rows < 40  # compacted on the way
        for sid in range(100, 200):  # grows past the first capacity
            table.append(Stream(sid, obj))
        table.deliver(np.ones(table.rows, dtype=np.int64))
        assert [values(s) for s in departed] == [values(t) for t in twins[:25]]
        departed[3].seek(49)  # a write copies the row out first
        twins[3].seek(49)
        other = StreamTable()
        other.append(departed[7])  # readmitted with its values
        assert values(departed[3]) == values(twins[3])
        assert values(departed[7]) == values(twins[7])
        assert int(other.blocks_consumed[0]) == twins[7].blocks_consumed

    def test_batch_deliver_matches_per_stream_deliver(self):
        from repro.server.streams import StreamTable

        objects = [media(num_blocks=6, rate=r, object_id=r) for r in (1, 2, 3)]
        twins = [
            [Stream(sid, obj, start_block=sid % 5) for sid, obj in
             enumerate(objects * 3)]
            for _ in range(2)
        ]
        table = StreamTable()
        for stream in twins[1]:
            table.append(stream)
        twins[0][4].pause()
        twins[1][4].pause()
        served = np.array([0, 1, 3, 2, 0, 1, 1, 0, 2])
        demanded = table.window_counts()
        for stream, count, want in zip(twins[0], served, demanded):
            stream.deliver(int(count), demanded=int(want))
        table.deliver(served, demanded)
        assert [
            (s.position, s.state, s.stall_rounds, s.blocks_consumed)
            for s in twins[0]
        ] == [
            (s.position, s.state, s.stall_rounds, s.blocks_consumed)
            for s in twins[1]
        ]
        assert table.active_demand == sum(
            s.media.blocks_per_round for s in twins[0] if s.is_active
        )

    def test_compaction_keeps_admission_order(self):
        from repro.server.streams import StreamTable

        table = StreamTable()
        streams = [Stream(sid, media()) for sid in range(100)]
        for stream in streams:
            table.append(stream)
        for sid in range(0, 100, 3):
            table.remove(sid)
        for sid in range(1, 100, 3):
            table.remove(sid)
        kept = [s for s in streams if s.stream_id % 3 == 2]
        assert table.rows < len(streams)  # compacted on the way
        assert table.handles() == tuple(kept)
        assert all(s.position == 0 and s.is_active for s in kept)
        assert table.streams_of(0) == kept


class TestGatherRoundDemand:
    def test_matches_blocks_needed(self):
        from repro.server.streams import gather_round_demand

        from repro.server.streams import StreamTable

        streams = [
            Stream(0, media(num_blocks=10, rate=2)),
            Stream(1, media(num_blocks=10, rate=3, object_id=1), start_block=8),
            Stream(2, media(num_blocks=10, rate=1, object_id=2)),
        ]
        table = StreamTable()
        for stream in streams:
            table.append(stream)
        streams[2].pause()
        demand = gather_round_demand(table)
        expected = [
            (s.media.object_id, b.index, slot)
            for slot, s in enumerate(streams)
            for b in s.blocks_needed()
        ]
        got = list(
            zip(
                demand.object_ids.tolist(),
                demand.block_indices.tolist(),
                demand.stream_slots.tolist(),
            )
        )
        assert got == [(o, i, slot) for o, i, slot in expected]
        assert demand.total == 4
        assert demand.counts.tolist() == [2, 2, 0]

    def test_empty(self):
        from repro.server.streams import StreamTable, gather_round_demand

        assert gather_round_demand(StreamTable()).total == 0


class TestActiveDemandAccounting:
    def brute_force(self, sched):
        return sum(
            s.media.blocks_per_round for s in sched.streams if s.is_active
        )

    def test_running_total_matches_brute_force(self):
        import random

        objects = [media(num_blocks=30, rate=r, object_id=r) for r in (1, 2, 3)]
        array = build_served_array(objects, n_disks=4, bandwidth=100)
        sched = RoundScheduler(array)
        rng = random.Random(7)
        admitted = []
        for sid in range(60):
            op = rng.choice(("admit", "pause", "resume", "seek", "round", "depart"))
            if op == "admit" or not admitted:
                stream = Stream(sid, rng.choice(objects))
                sched.admit(stream)
                admitted.append(stream)
            elif op == "pause":
                rng.choice(admitted).pause()
            elif op == "resume":
                rng.choice(admitted).resume()
            elif op == "seek":
                rng.choice(admitted).seek(rng.randrange(30))
            elif op == "round":
                sched.run_round()
            else:
                victim = rng.choice(admitted)
                sched.depart(victim.stream_id)
                admitted.remove(victim)
            assert sched.active_demand == self.brute_force(sched)

    def test_departed_stream_stops_updating_total(self):
        obj = media(num_blocks=30)
        array = build_served_array([obj])
        sched = RoundScheduler(array)
        stream = Stream(1, obj)
        sched.admit(stream)
        sched.depart(1)
        stream.pause()  # must not corrupt the (now zero) total
        assert sched.active_demand == 0


class TestVectorizedToggle:
    def test_scalar_flag_matches_default(self):
        def run(vectorized):
            obj = media(num_blocks=12)
            array = build_served_array([obj], bandwidth=1)
            sched = RoundScheduler(array, vectorized=vectorized)
            for sid in range(3):
                sched.admit(Stream(sid, obj, start_block=0))
            reports = sched.run_rounds(4)
            return (
                [(r.requested, r.served, r.hiccups) for r in reports],
                dict(sched.hiccups_by_stream),
            )

        assert run(False) == run(True)

    def test_unknown_locator_target_ignored_by_both(self):
        obj = media(num_blocks=4)
        for vectorized in (False, True):
            array = build_served_array([obj])
            sched = RoundScheduler(
                array, locator=lambda block_id: -99, vectorized=vectorized
            )
            sched.admit(Stream(1, obj))
            report = sched.run_round()
            assert report.requested == 0
            assert report.served == 0


#: Objects the handle-equivalence property plays (rates 1 to 3).
OPEN_MEDIA = [media(num_blocks=9, rate=r, object_id=r) for r in (1, 2, 3)]
STATES = list(StreamState)


class TestOpenStream:
    """A handle :meth:`StreamTable.open` creates on its row behaves as
    ``Stream(...)`` then :meth:`StreamTable.append`, and
    :meth:`RoundScheduler.open_stream` as ``admit(Stream(...))``."""

    @staticmethod
    def values(stream: Stream) -> tuple:
        return (
            stream.stream_id, stream.media, stream.position, stream.state,
            stream.stall_rounds, stream.blocks_consumed, repr(stream),
        )

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(
                    ("open", "deliver", "pause", "resume", "seek", "write",
                     "state", "depart", "readmit")
                ),
                st.integers(0, 2**16),
            ),
            max_size=60,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_behaves_as_stream_then_append(self, ops):
        from repro.server.streams import StreamTable

        built, opened = StreamTable(), StreamTable()
        pairs: list[tuple[Stream, Stream]] = []
        departed: list[int] = []
        for op, x in ops:
            if op == "open":
                obj = OPEN_MEDIA[x % 3]
                sid, position = len(pairs), x % obj.num_blocks
                twin = Stream(sid, obj, start_block=position)
                built.append(twin)
                pairs.append((twin, opened.open(sid, obj, position)))
                continue
            if not pairs:
                continue
            twin, stream = pairs[x % len(pairs)]
            if op == "deliver":
                live = built.live_rows()  # vacant rows are served 0
                served = np.zeros(built.rows, dtype=np.int64)
                served[live] = live % (x % 3 + 1)
                for table in (built, opened):
                    table.deliver(served, np.full(table.rows, 2))
            elif op in ("pause", "resume"):
                getattr(twin, op)()
                getattr(stream, op)()
            elif op == "seek":
                for handle in (twin, stream):
                    handle.seek(x % handle.media.num_blocks)
            elif op == "write":
                for handle in (twin, stream):
                    handle.stall_rounds += 1
                    handle.blocks_consumed = x % 50
                    handle.position = x % handle.media.num_blocks
            elif op == "state":
                twin.state = stream.state = STATES[x % 3]
            elif op == "depart" and twin._table is not None:
                assert built.remove(twin.stream_id) is twin
                assert opened.remove(stream.stream_id) is stream
                departed.append(twin.stream_id)
            elif op == "readmit" and departed:
                twin, stream = pairs[departed.pop(x % len(departed))]
                built.append(twin)
                opened.append(stream)
            for twin, stream in pairs:
                assert self.values(stream) == self.values(twin)
            n = built.rows
            assert opened.rows == n and len(opened) == len(built)
            assert opened.active_demand == built.active_demand
            for column in ("object_id", "position", "rate", "length",
                           "state", "stall_rounds", "blocks_consumed"):
                assert np.array_equal(
                    getattr(opened, column)[:n], getattr(built, column)[:n]
                ), column
        assert [h.stream_id for h in opened.handles()] == [
            h.stream_id for h in built.handles()
        ]

    def test_open_stream_checks_in_admit_order(self):
        obj = media(num_blocks=12)
        sched = RoundScheduler(build_served_array([obj], n_disks=1, bandwidth=2))
        stream = sched.open_stream(1, obj, start_block=4)
        assert (stream.position, stream.state) == (4, StreamState.PLAYING)
        assert sched.streams == (stream,)
        twin = RoundScheduler(build_served_array([obj], n_disks=1, bandwidth=2))
        twin.admit(Stream(1, obj, start_block=4))

        def refusal(call):
            with pytest.raises(ValueError) as raised:
                call()
            return type(raised.value), raised.value.args

        for start in (-1, 12):  # the start block is checked first
            assert refusal(lambda: sched.open_stream(2, obj, start)) == refusal(
                lambda: twin.admit(Stream(2, obj, start_block=start))
            )
        assert refusal(lambda: sched.open_stream(1, obj)) == refusal(
            lambda: twin.admit(Stream(1, obj))
        )
        sched.open_stream(2, obj)
        twin.admit(Stream(2, obj))
        for start in (0, 12):  # full: refused, unless the start is bad
            assert refusal(lambda: sched.open_stream(3, obj, start)) == refusal(
                lambda: twin.admit(Stream(3, obj, start_block=start))
            )
        with pytest.raises(AdmissionRefusedError):
            sched.open_stream(3, obj)
        assert [s.stream_id for s in sched.streams] == [1, 2]
        assert sched.table.rows == 2 and sched.active_demand == 2
