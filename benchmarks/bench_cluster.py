"""Cluster-scale throughput: two-level routing, rebalance cost, serving,
restore.

Four sections, persisted to ``BENCH_cluster.json`` at the repo root
(the first three each with a hard floor):

* **routing** — route 1M objects across >=16 shards through the
  vectorized second-level router (``jump_hash``) and measure lookups/sec
  plus the shard-load coefficient of variation;
* **rebalance cost** — plan a one-shard addition over the same 1M-object
  population for ``jump_hash`` and ``consistent_hash`` routers and
  assert the *observed* moved fraction stays within slack of the
  theoretical minimum (``k/(N+k)``) — SCADDAR's Lemma-style move bound
  one level up (objects over shards instead of blocks over disks);
* **serving** — a standalone single shard vs the same shard shape inside
  a cluster round barrier: the in-cluster per-shard rate must hold
  ``min_efficiency`` of the standalone rate (the barrier adds only
  bookkeeping).  Both sides serve ``window_s`` of round time, long
  enough to be steady, in alternating slices so that both see the same
  machine load; a stream that finishes restarts from block 0 between
  rounds, outside the timed calls, so every round serves the full load;
* **restore** — snapshot/restore of that serving cluster: the median of
  ``RESTORE_REPEATS`` runs each of the manifest write
  (``snapshot_cluster``, JSON encoding and the file write), the restore
  (reading and parsing the file, ``restore_cluster``) and a clean
  ``check_cluster``, with the blocks restored and the restore's cost per
  block.  No floor: ``tests/test_inventory_complexity.py`` gates its
  complexity by counts.

Every rate is wall-clock time measured in this one process.

Usage::

    PYTHONPATH=src python benchmarks/bench_cluster.py [--quick]
        [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.fsck import check_cluster
from repro.cluster.persistence import restore_cluster, snapshot_cluster
from repro.cluster.router import ShardRouter
from repro.cluster.shard import ShardNode
from repro.core.operations import ScalingOp
from repro.server.streams import Stream, StreamState
from repro.storage.disk import DiskSpec

from benchenv import environment

REPO_ROOT = Path(__file__).resolve().parent.parent
SEED = 0xC1B5
#: Runs of each step of the restore section (the median is kept).
RESTORE_REPEATS = 5

#: Full sizing: the ISSUE targets (1M objects, >=16 shards).
FULL = {
    "shards": 16,
    "objects_routed": 1_000_000,
    "disks_per_shard": 8,
    "bandwidth": 1_100,
    "objects_per_shard": 8,
    "blocks_per_object": 1_000,
    "streams_per_shard": 1_000,
    "rate": 8,
    "window_s": 0.25,
    "min_routing_per_sec": 1_000_000,
    "max_cov": 0.01,
    "min_efficiency": 0.75,
    "jump_hash_slack": 1.05,
    "consistent_hash_slack": 1.5,
}

#: CI smoke sizing: same shape, seconds not minutes.  The efficiency
#: floor is lower because fixed per-round numpy overhead is a larger
#: share of a small batch.
QUICK = {
    "shards": 16,
    "objects_routed": 100_000,
    "disks_per_shard": 4,
    "bandwidth": 600,
    "objects_per_shard": 3,
    "blocks_per_object": 300,
    "streams_per_shard": 200,
    "rate": 8,
    "window_s": 0.25,
    "min_routing_per_sec": 500_000,
    "max_cov": 0.02,
    "min_efficiency": 0.6,
    "jump_hash_slack": 1.1,
    "consistent_hash_slack": 1.5,
}


def run_routing(cfg: dict) -> dict:
    """Route ``objects_routed`` gids through the vectorized router."""
    router = ShardRouter.create("jump_hash", cfg["shards"])
    gids = list(range(cfg["objects_routed"]))
    router.register(gids)
    router.slots_of(gids[:1024])  # warm-up
    start = time.perf_counter()
    slots = router.slots_of(gids)
    elapsed = time.perf_counter() - start
    loads = np.bincount(slots, minlength=cfg["shards"])
    cov = float(loads.std() / loads.mean())
    return {
        "objects": len(gids),
        "shards": cfg["shards"],
        "seconds": round(elapsed, 6),
        "lookups_per_sec": int(len(gids) / elapsed),
        "load_cov": round(cov, 6),
    }


def run_rebalance_cost(cfg: dict, backend: str) -> dict:
    """Plan one shard addition; measure the filtered moved fraction."""
    router = ShardRouter.create(backend, cfg["shards"])
    gids = list(range(cfg["objects_routed"]))
    router.register(gids)
    before = np.asarray(router.slots_of(gids))
    op = ScalingOp.add(1)
    start = time.perf_counter()
    indices, targets = router.plan_moves(op, gids)
    elapsed = time.perf_counter() - start
    moved = int(np.count_nonzero(before[indices] != targets))
    optimal = 1.0 / (cfg["shards"] + 1)
    return {
        "backend": backend,
        "objects": len(gids),
        "plan_seconds": round(elapsed, 6),
        "moved": moved,
        "moved_fraction": round(moved / len(gids), 6),
        "optimal_fraction": round(optimal, 6),
        "ratio": round(moved / len(gids) / optimal, 4),
    }


def _admit_streams(
    scheduler, media_list, streams: int, rate: int, offset: int
) -> None:
    for i in range(streams):
        media = media_list[i % len(media_list)]
        scheduler.admit(
            Stream(
                offset + i,
                media,
                start_block=(i * 97) % media.num_blocks,
            )
        )


class _Serving:
    """One side of the serving comparison: its round call, the streams
    it serves, and what it served in how much round time."""

    def __init__(self, run_round, streams: list[Stream]):
        self.run_round = run_round
        self.streams = streams
        self.rounds = 0
        self.served = 0
        self.seconds = 0.0

    def serve_for(self, seconds: float) -> None:
        """Serve rounds until ``seconds`` more of round time have
        passed.  Only the ``run_round`` calls are timed: finished
        streams restart from block 0 between them."""
        stop = self.seconds + seconds
        while self.seconds < stop:
            start = time.perf_counter()
            self.served += self.run_round().served
            self.seconds += time.perf_counter() - start
            self.rounds += 1
            for stream in self.streams:
                if stream.state is StreamState.DONE:
                    stream.seek(0)


def serve_interleaved(sides: list[_Serving], window_s: float) -> None:
    """Give every side ``window_s`` of round time, alternating in slices
    of a tenth of it, so all sides see the same machine load."""
    for side in sides:
        side.run_round()  # warm-up
    for _ in range(10):
        for side in sides:
            side.serve_for(window_s / 10)


def standalone_shard(cfg: dict) -> _Serving:
    """Baseline: one shard-shaped server outside any cluster."""
    spec = DiskSpec(
        capacity_blocks=1_000_000,
        bandwidth_blocks_per_round=cfg["bandwidth"],
    )
    shard = ShardNode.create(
        0, cfg["disks_per_shard"], spec, bits=32, master_seed=SEED
    )
    media_list = [
        shard.server.add_object(
            f"solo-{i}", cfg["blocks_per_object"], cfg["rate"]
        )
        for i in range(cfg["objects_per_shard"])
    ]
    _admit_streams(
        shard.scheduler, media_list, cfg["streams_per_shard"], cfg["rate"], 0
    )
    return _Serving(shard.scheduler.run_round, list(shard.scheduler.streams))


def cluster_shards(cfg: dict) -> tuple[_Serving, ClusterCoordinator]:
    """The same shard shape, ``shards`` times, under the round barrier."""
    spec = DiskSpec(
        capacity_blocks=1_000_000,
        bandwidth_blocks_per_round=cfg["bandwidth"],
    )
    coordinator = ClusterCoordinator.create(
        cfg["shards"], cfg["disks_per_shard"], spec, bits=32,
        master_seed=SEED,
    )
    # Route objects until every shard holds at least one (the router is
    # random; a short tail of extra objects fills any empty shard).
    target = cfg["objects_per_shard"] * cfg["shards"]
    added = 0
    while added < target * 4:
        coordinator.add_object(
            f"title-{added}", cfg["blocks_per_object"], cfg["rate"]
        )
        added += 1
        if added >= target and all(
            s.num_objects for s in coordinator.shards
        ):
            break
    by_shard: dict[int, list] = {s.shard_id: [] for s in coordinator.shards}
    for gid in coordinator.object_ids:
        shard_id = coordinator.shard_of(gid)
        shard = coordinator.shard(shard_id)
        by_shard[shard_id].append(
            shard.server.catalog.get(coordinator.local_id_of(gid))
        )
    stream_id = 0
    for shard in coordinator.shards:
        _admit_streams(
            shard.scheduler, by_shard[shard.shard_id],
            cfg["streams_per_shard"], cfg["rate"], stream_id,
        )
        stream_id += cfg["streams_per_shard"]
    streams = [s for shard in coordinator.shards for s in shard.scheduler.streams]
    return _Serving(coordinator.run_round, streams), coordinator


def run_serving(cfg: dict) -> tuple[dict, dict, ClusterCoordinator]:
    """Standalone and in-cluster serving over the same window; returns
    the serving cluster too (the restore section snapshots it)."""
    solo = standalone_shard(cfg)
    cluster, coordinator = cluster_shards(cfg)
    serve_interleaved([solo, cluster], cfg["window_s"])
    standalone = {
        "streams": cfg["streams_per_shard"],
        "rounds": solo.rounds,
        "served": solo.served,
        "seconds": round(solo.seconds, 6),
        "reads_per_sec": int(solo.served / solo.seconds),
    }
    # The barrier serializes the shards in this process, so the whole
    # window is shard work: one shard's rate while being driven
    # (coordinator overhead included, amortized) is served/seconds.
    rate = cluster.served / cluster.seconds
    in_cluster = {
        "shards": cfg["shards"],
        "objects": coordinator.num_objects,
        "streams": len(cluster.streams),
        "rounds": cluster.rounds,
        "served": cluster.served,
        "seconds": round(cluster.seconds, 6),
        "reads_per_sec_measured": int(rate),
        "reads_per_sec_per_shard": int(rate),
    }
    return standalone, in_cluster, coordinator


def run_restore(coordinator: ClusterCoordinator) -> dict:
    """Manifest write, restore and audit of a cluster, median of
    :data:`RESTORE_REPEATS` each."""
    write, restore, audit = [], [], []
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "manifest.json"
        for __ in range(RESTORE_REPEATS):
            start = time.perf_counter()
            text = json.dumps(snapshot_cluster(coordinator))
            path.write_text(text, encoding="utf-8")
            write.append(time.perf_counter() - start)
            start = time.perf_counter()
            restored = restore_cluster(json.loads(path.read_text(encoding="utf-8")))
            restore.append(time.perf_counter() - start)
            start = time.perf_counter()
            report = check_cluster(restored)
            audit.append(time.perf_counter() - start)
            assert report.clean, "a restored cluster fails check_cluster"
            restored.close()
    blocks = coordinator.total_blocks
    restore_s = statistics.median(restore)
    return {
        "repeats": RESTORE_REPEATS,
        "blocks": blocks,
        "manifest_bytes": len(text),
        "write_s": round(statistics.median(write), 6),
        "restore_s": round(restore_s, 6),
        "check_s": round(statistics.median(audit), 6),
        "restore_us_per_block": round(restore_s / blocks * 1e6, 4),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small smoke run (CI)"
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_cluster.json",
        help="where to write the JSON results",
    )
    args = parser.parse_args(argv)
    cfg = dict(QUICK if args.quick else FULL)

    routing = run_routing(cfg)
    print(
        f"routing   : {routing['objects']:,} objects over "
        f"{routing['shards']} shards at "
        f"{routing['lookups_per_sec']:,}/s (CoV {routing['load_cov']:.4f})"
    )

    rebalance = [
        run_rebalance_cost(cfg, "jump_hash"),
        run_rebalance_cost(cfg, "consistent_hash"),
    ]
    for entry in rebalance:
        print(
            f"rebalance : {entry['backend']:16s} moved "
            f"{entry['moved_fraction']:.4f} of objects "
            f"(optimum {entry['optimal_fraction']:.4f}, "
            f"ratio {entry['ratio']:.2f}x)"
        )

    standalone, cluster, coordinator = run_serving(cfg)
    efficiency = (
        cluster["reads_per_sec_per_shard"] / standalone["reads_per_sec"]
    )
    print(
        f"serving   : standalone {standalone['reads_per_sec']:,}/s, "
        f"in-cluster per shard {cluster['reads_per_sec_per_shard']:,}/s "
        f"(efficiency {efficiency:.2f}, floor {cfg['min_efficiency']:.2f})"
    )

    restore = run_restore(coordinator)
    print(
        f"restore   : {restore['blocks']:,} blocks, manifest write "
        f"{restore['write_s'] * 1e3:.1f} ms, restore "
        f"{restore['restore_s'] * 1e3:.1f} ms "
        f"({restore['restore_us_per_block']:.2f} us/block), check_cluster "
        f"{restore['check_s'] * 1e3:.1f} ms"
    )

    payload = {
        "benchmark": "bench_cluster",
        "environment": environment(),
        "quick": args.quick,
        "config": cfg,
        "routing": routing,
        "rebalance": rebalance,
        "standalone": standalone,
        "cluster": cluster,
        "per_shard_efficiency": round(efficiency, 4),
        "restore": restore,
    }
    args.output.write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote {args.output}")

    assert routing["lookups_per_sec"] >= cfg["min_routing_per_sec"], (
        f"routing only {routing['lookups_per_sec']:,}/s "
        f"(floor {cfg['min_routing_per_sec']:,}/s)"
    )
    assert routing["load_cov"] <= cfg["max_cov"], (
        f"shard load CoV {routing['load_cov']:.4f} above "
        f"{cfg['max_cov']:.4f}"
    )
    for entry in rebalance:
        slack = cfg[f"{entry['backend']}_slack"]
        assert entry["moved_fraction"] <= entry["optimal_fraction"] * slack, (
            f"{entry['backend']} moved {entry['moved_fraction']:.4f} "
            f"> {slack:.2f}x the optimal {entry['optimal_fraction']:.4f}"
        )
    assert efficiency >= cfg["min_efficiency"], (
        f"in-cluster per-shard rate is only {efficiency:.2f} of "
        f"standalone (floor {cfg['min_efficiency']:.2f})"
    )
    print("all cluster floors cleared")
    return 0


if __name__ == "__main__":
    sys.exit(main())
