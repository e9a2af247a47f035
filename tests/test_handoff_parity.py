"""Bulk viewer handoff against the per-viewer loop it replaced.

A dead shard's viewers, a migrating title's viewers and a dropped
replica's viewers all move through ``ClusterCoordinator._rehome``: one
route per title, one bulk ``StreamTable.move`` per target.  The oracle
below is the loop it replaced, kept here only: depart each viewer,
route it, admit a fresh ``Stream`` at its position on the route's shard,
try the later readable copies on a refusal, strand it when every copy
refuses.  With no fault injector attached the two must leave every
shard's table with the same rows in the same order (every column), the
same stranded rows, the same ``failover_reads``, the same
``ShardDeathReport`` and the same tracker scores, to the last bit — and
keep doing so through later rounds, migrations and the rebuild.
"""

from __future__ import annotations

import types

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.cluster import ClusterCoordinator, ReplicationPolicy
from repro.cluster.health import ObjectUnavailableError
from repro.core.operations import ScalingOp
from repro.server.admission import AdmissionRefusedError
from repro.server.streams import _COLUMNS, Stream, StreamState
from repro.storage.disk import DiskSpec


def oracle_rehome(self, table, rows):
    """The per-viewer handoff: depart -> route_read -> fresh Stream ->
    admit -> next copy -> strand."""
    viewers = table.handles_at(rows)
    captured = [table.remove(stream.stream_id) for stream in viewers]
    moved = stranded = finished = dropped = 0
    for old in captured:
        stream_id = old.stream_id
        gid = self._streams.get(stream_id)
        if gid is None:
            dropped += 1
            continue
        if old.position >= old.media.num_blocks:
            del self._streams[stream_id]
            del self._viewers[gid][stream_id]
            if not self._viewers[gid]:
                del self._viewers[gid]
            finished += 1
            continue

        def readmit_on(shard_id):
            shard = self.shard(shard_id)
            media = shard.server.catalog.get(self._local_id_on(gid, shard_id))
            fresh = Stream(stream_id, media, start_block=old.position)
            if old.state is StreamState.PAUSED:
                fresh.pause()
            try:
                shard.scheduler.admit(fresh)
            except AdmissionRefusedError:
                return False
            self._viewers[gid][stream_id] = fresh
            return True

        try:
            route = self.route_read(gid)
        except ObjectUnavailableError:
            route = None
        if route is not None:
            if readmit_on(route.shard_id):
                moved += 1
                continue
            copies = (self.shard_of(gid),) + self._replica_home.get(gid, ())
            later = copies[copies.index(route.shard_id) + 1:]
            if any(
                readmit_on(shard_id)
                for shard_id in later
                if self.health.is_readable(shard_id, self.round_index)
            ):
                moved += 1
                continue
        # The parked handle keeps its values, as the stranded dict did.
        self._stranded.append(old)
        self._viewers[gid][stream_id] = old
        stranded += 1
    return moved, stranded, finished, dropped


def table_rows(table) -> tuple:
    """Every live row, in row order: the handle's id and media, then
    each column; and the table's demand total."""
    rows = []
    for stream in table.handles():
        row = stream._row
        rows.append(
            (stream.stream_id, stream.media)
            + tuple(int(getattr(table, name)[row]) for name in _COLUMNS)
        )
    return tuple(rows), table.active_demand


def state_of(coordinator) -> dict:
    tracker = coordinator.replication.tracker
    return {
        "tables": {
            sid: table_rows(shard.scheduler.table)
            for sid, shard in sorted(coordinator._shard_by_id.items())
            if shard._scheduler is not None
        },
        "stranded": table_rows(coordinator._stranded),
        "streams": dict(coordinator._streams),
        "viewers": {
            gid: sorted(viewers)
            for gid, viewers in coordinator._viewers.items()
        },
        "failover_reads": coordinator.failover_reads,
        "failover_retries": coordinator.failover_retries,
        "homes": (dict(coordinator._home), dict(coordinator._replica_home)),
        "tracker": None if tracker is None else tracker.to_payload(),
        "lost": coordinator.lost_objects,
    }


def round_totals(report) -> tuple:
    return (
        report.requested, report.served, report.hiccups, report.queued,
        report.stranded,
    )


@st.composite
def stories(draw):
    replication = draw(st.integers(1, 3))
    return {
        "replication": replication,
        "shards": draw(st.integers(max(3, replication), 5)),
        "bandwidth": draw(st.integers(1, 5)),
        "titles": [
            (draw(st.integers(8, 24)), draw(st.integers(1, 2)))
            for _ in range(draw(st.integers(3, 9)))
        ],
        "viewers": draw(
            st.lists(
                st.tuples(
                    st.integers(0, 10**6),  # title pick
                    st.integers(0, 10**6),  # start pick
                    st.sampled_from(["play", "play", "pause", "pause", "stop"]),
                    st.integers(0, 15),  # 0: admitted straight in
                ),
                min_size=4,
                max_size=60,
            )
        ),
        "policy": draw(st.booleans()),
        "warm_rounds": draw(st.integers(0, 6)),
        "rebalance": draw(st.integers(0, 3)),
        "victim": draw(st.integers(0, 10**6)),
        # A second death: viewers a full copy sent down their route
        # order may then sit on a dead copy's successor.
        "second": draw(st.none() | st.integers(0, 10**6)),
    }


def run_story(story: dict, oracle: bool):
    """Build, fill and serve one cluster, kill a shard (mid-rebalance
    when the story says so) and maybe a second one, then finish the
    rebalance and, after a single death, rebuild."""
    coordinator = ClusterCoordinator.create(
        story["shards"], 1,
        DiskSpec(
            capacity_blocks=50_000,
            bandwidth_blocks_per_round=story["bandwidth"],
        ),
        bits=32, master_seed=0xD1E, router_backend="consistent_hash",
        replication_factor=story["replication"],
        replication_policy=(
            ReplicationPolicy(2 * len(story["titles"]))
            if story["policy"] else None
        ),
    )
    if oracle:
        coordinator._rehome = types.MethodType(oracle_rehome, coordinator)
    for i, (blocks, rate) in enumerate(story["titles"]):
        coordinator.add_object(f"title-{i}", blocks, rate)
    titles = coordinator.object_ids
    for stream_id, (pick, start, mode, how) in enumerate(story["viewers"]):
        gid = titles[pick % len(titles)]
        blocks = story["titles"][gid][0]
        position = start % blocks
        try:
            if how:
                stream = coordinator.admit_stream(stream_id, gid, position)
            else:
                shard = coordinator.shard(coordinator.shard_of(gid))
                stream = Stream(
                    stream_id,
                    shard.server.catalog.get(coordinator.local_id_of(gid)),
                    start_block=position,
                )
                shard.scheduler.admit(stream)
        except AdmissionRefusedError:
            continue
        # Rows the handoff must normalize: stalls to forget, and a
        # stopped stream (state set to done mid-title) that plays again.
        stream.stall_rounds = pick % 3
        if mode == "pause":
            stream.pause()
        elif mode == "stop":
            stream.state = StreamState.DONE
    trace = [round_totals(r) for r in coordinator.run_rounds(story["warm_rounds"])]
    trace.append(state_of(coordinator))

    pending = None
    if story["rebalance"]:
        pending = coordinator.begin_reshard(ScalingOp.add(1))
        for _ in range(story["rebalance"]):
            coordinator.migrate_next(pending)
        trace.append(state_of(coordinator))
    candidates = [
        sid for sid in coordinator.shard_ids
        if pending is None or sid not in pending.new_shard_ids
    ]
    victim = candidates[story["victim"] % len(candidates)]
    trace.append(coordinator.kill_shard(victim))
    trace.append(state_of(coordinator))
    trace.extend(round_totals(r) for r in coordinator.run_rounds(2))
    victims = [victim]
    # A rebalance cannot land on a dead shard: spare its targets.
    targets = {m.target_shard for m in pending.remaining} if pending else set()
    survivors = [
        sid for sid in candidates if sid != victim and sid not in targets
    ]
    if story["second"] is not None and len(survivors) >= 3:
        victims.append(survivors[story["second"] % len(survivors)])
        trace.append(coordinator.kill_shard(victims[-1]))
        trace.append(state_of(coordinator))
        trace.extend(round_totals(r) for r in coordinator.run_rounds(2))
    if pending is not None:
        while coordinator.migrate_next(pending) is not None:
            trace.append(state_of(coordinator))
        coordinator.finish_reshard(pending)
    if len(victims) == 1:
        # A rebuild may plan moves onto any other slot, so it needs
        # every other shard alive.
        coordinator.rebuild_shard(victim)
    trace.append(state_of(coordinator))
    trace.extend(round_totals(r) for r in coordinator.run_rounds(2))
    trace.append(state_of(coordinator))
    return trace


def pinned(replication, shards, bandwidth, titles, viewers, **rest):
    """A story written out, the fields it leaves out at their defaults."""
    return {
        "replication": replication, "shards": shards,
        "bandwidth": bandwidth, "titles": titles, "viewers": viewers,
        "policy": True, "warm_rounds": 2, "rebalance": 0, "victim": 0,
        "second": None, **rest,
    }


# Rare cases, pinned: a paused viewer adds no demand when placed one at
# a time after a refusal, nor when placed with its whole queue before
# one; a later copy that is dead is skipped.
@example(pinned(1, 3, 1, [(8, 1)] * 3, [
    (0, 0, "play", 0), (0, 0, "play", 0),
    (1, 0, "pause", 1), (1, 0, "play", 1),
], victim=98))
@example(pinned(1, 4, 1, [(8, 1)] * 3, [
    (0, 0, "stop", 1), (3572, 0, "pause", 1),
    (0, 0, "play", 1), (0, 0, "play", 0),
]))
@example(pinned(2, 4, 4, [(8, 1), (8, 1), (8, 2)], [
    (1, 0, "play", 0), (146, 0, "play", 1),
    (146, 0, "stop", 1), (146, 0, "play", 1),
], policy=False, warm_rounds=0, rebalance=1, second=254))
@given(stories())
def test_bulk_handoff_matches_the_per_viewer_loop(story):
    bulk = run_story(story, oracle=False)
    reference = run_story(story, oracle=True)
    assert len(bulk) == len(reference)
    for step, (got, want) in enumerate(zip(bulk, reference)):
        assert got == want, step


class TestStreamTableMove:
    """The bulk move's own contract: order kept, handles re-pointed,
    and bad input refused before anything moves."""

    @staticmethod
    def tables():
        from repro.server.streams import StreamTable
        from repro.workloads.generator import uniform_catalog

        catalog = uniform_catalog(2, 20, master_seed=3, bits=32)
        source, dest, other = StreamTable(), StreamTable(), StreamTable()
        for sid in range(6):
            source.append(Stream(sid, catalog.get(sid % 2), start_block=sid))
        dest.append(Stream(100, catalog.get(0)))
        other.append(Stream(4, catalog.get(1)))
        return source, dest, other

    def test_rows_keep_order_and_handles_follow(self):
        import numpy as np

        source, dest, _ = self.tables()
        moving = source.handles_at(np.array([1, 3, 4]))
        source.move(np.array([1, 3, 4]), [dest])
        assert [s.stream_id for s in dest.handles()] == [100, 1, 3, 4]
        assert [s.stream_id for s in source.handles()] == [0, 2, 5]
        for stream in moving:
            assert stream._table is dest
            assert dest.handle(stream._row) is stream
        assert [s.position for s in moving] == [1, 3, 4]
        assert 3 in dest and 3 not in source

    def test_bad_input_moves_nothing(self):
        import numpy as np

        source, dest, other = self.tables()
        source.remove(2)
        before = [s.stream_id for s in source.handles()]
        for rows in ([2], [1, 1], [9], [-1]):
            with pytest.raises(ValueError):
                source.move(np.array(rows), [dest])
        # Stream 4 is already in ``other``: nothing moves anywhere.
        with pytest.raises(ValueError):
            source.move(np.array([0, 4]), [dest, other], np.array([0, 1]))
        assert [s.stream_id for s in source.handles()] == before
        assert [s.stream_id for s in dest.handles()] == [100]
