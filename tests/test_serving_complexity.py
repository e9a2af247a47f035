"""Serving-round cost, pinned by counts rather than wall time.

A vectorized round works on the stream table's columns, so it must not
call any per-stream method: the count of ``Stream.deliver``,
``Stream.demand_window`` and ``Stream.is_active`` calls is exactly 0
at n and at 4n viewers — on the simple path, on the degraded path, and
in a cluster round that feeds a popularity tracker.  The table's own
bookkeeping is amortized O(1): m admissions, departures and seeks copy
O(m) rows in all, however the departures interleave.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.cluster import ClusterCoordinator, ReplicationPolicy
from repro.cluster.popularity import DemandTracker
from repro.server.cmserver import CMServer
from repro.server.reads import build_degraded_stack
from repro.server.scheduler import RoundScheduler
from repro.server.streams import Stream, StreamTable
from repro.storage.disk import DiskSpec
from repro.workloads.generator import uniform_catalog

SIZES = (60, 240)  # n and 4n viewers
ROUNDS = 3


@pytest.fixture
def calls(monkeypatch):
    """Counts calls to the per-stream methods a round could fall back
    on (and to the tracker's scalar feed)."""
    counts: Counter = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(Stream, "deliver", counting("deliver", Stream.deliver))
    monkeypatch.setattr(
        Stream, "demand_window", counting("demand_window", Stream.demand_window)
    )
    monkeypatch.setattr(
        Stream,
        "is_active",
        property(counting("is_active", Stream.is_active.fget)),
    )
    monkeypatch.setattr(
        DemandTracker, "record", counting("record", DemandTracker.record)
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
