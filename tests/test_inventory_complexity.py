"""Restore, audit and planning cost, pinned by counts rather than wall time.

The block inventory is columnar (per object: a home column and the
``X0``s as written), so a restart and a clean audit run array passes:
``restore_cluster`` (one ``restore_server`` per shard) followed by a
clean ``check_cluster`` constructs no ``Block`` and no ``BlockId`` at n
and at 4n blocks per title, and makes the same number of
``locate_batch`` calls at both sizes (one per shard for the restore,
one per shard for the audit).  A scaling plan builds a ``BlockId`` only
for each planned move, however many blocks the backend reports as
candidates.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

from repro.cluster import ClusterCoordinator
from repro.cluster.fsck import check_cluster
from repro.cluster.persistence import restore_cluster, snapshot_cluster
from repro.core.operations import ScalingOp
from repro.placement.backends import ScaddarBackend
from repro.server.cmserver import CMServer
from repro.server.fsck import check_layout
from repro.server.persistence import restore_server, snapshot_server
from repro.storage.block import Block, BlockId
from repro.storage.disk import DiskSpec
from repro.workloads.generator import uniform_catalog

TITLES = 12
SHARDS = 3
BLOCK_SIZES = (40, 160)  # n and 4n blocks per title


def counting(counts: Counter, name: str, fn):
    """``fn``, counting its calls into ``counts[name]``."""

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


@pytest.fixture
def built(monkeypatch):
    """Counts ``Block`` and ``BlockId`` constructions and the shard
    backend's ``locate_batch`` calls."""
    counts: Counter = Counter()
    for cls in (Block, BlockId):
        monkeypatch.setattr(
            cls,
            "__post_init__",
            counting(counts, cls.__name__, cls.__post_init__),
        )
    monkeypatch.setattr(
        ScaddarBackend,
        "locate_batch",
        counting(counts, "locate_batch", ScaddarBackend.locate_batch),
    )
    return counts


def cluster_manifest(blocks: int) -> str:
    coordinator = ClusterCoordinator.create(
        SHARDS,
        3,
        DiskSpec(capacity_blocks=100_000),
        master_seed=0x1F7,
        replication_factor=2,
    )
    for i in range(TITLES):
        coordinator.add_object(f"title-{i}", blocks)
    coordinator.scale_shard(coordinator.shard_ids[0], ScalingOp.add(1))
    return json.dumps(snapshot_cluster(coordinator))


class TestRestoreAndAudit:
    def test_restore_and_clean_audit_build_no_block_objects(self, built):
        locates = []
        for blocks in BLOCK_SIZES:
            manifest = cluster_manifest(blocks)
            built.clear()
            coordinator = restore_cluster(manifest)
            report = check_cluster(coordinator)
            assert report.clean
            assert report.blocks_checked == 2 * TITLES * blocks
            assert built["Block"] == 0
            assert built["BlockId"] == 0
            locates.append(built["locate_batch"])
        assert locates[0] == locates[1] == 2 * SHARDS

    def test_server_restore_and_audit_build_no_block_objects(self, built):
        locates = []
        for blocks in BLOCK_SIZES:
            server = CMServer(
                uniform_catalog(TITLES, blocks, master_seed=3, bits=32),
                [DiskSpec()] * 4,
                bits=32,
            )
            server.scale(ScalingOp.remove([1]))
            snapshot = snapshot_server(server)
            built.clear()
            assert check_layout(restore_server(snapshot)).clean
            assert built["Block"] == built["BlockId"] == 0
            locates.append(built["locate_batch"])
        assert locates[0] == locates[1] == 2


class TestPlanning:
    @pytest.mark.parametrize(
        "op", [ScalingOp.add(2), ScalingOp.remove([0])], ids=["add", "remove"]
    )
    def test_block_ids_only_for_planned_moves(self, built, op):
        for blocks in BLOCK_SIZES:
            server = CMServer(
                uniform_catalog(TITLES, blocks, master_seed=9, bits=32),
                [DiskSpec()] * 5,
                bits=32,
            )
            built.clear()
            pending = server.begin_scale(op)
            assert 0 < len(pending.plan) < server.total_blocks
            assert built["BlockId"] == len(pending.plan)
            assert built["Block"] == 0
