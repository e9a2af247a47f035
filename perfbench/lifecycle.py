"""Seeded cluster lifecycles for the benchmark, driven through the public
API of ``repro.cluster`` and ``repro.server``.

Every workload runs the same measured phases on one thread:

* **setup** — cluster creation, catalog ingest (primaries and replicas)
  and initial viewer admission, repeated ``SETUPS`` times (median
  reported, the last build kept);
* **serve** — a closed loop of back-to-back barrier rounds with a fixed
  viewer population.  A round's wall time covers that round's viewer
  churn (departures of finished viewers, their replacements, seeks), the
  cluster round itself and the workload's background step;
* **reorg** / **restart** — reorganization calls and manifest
  restarts between or inside serving rounds, timed on their own.

The round count is fixed by ``--seconds`` (``ROUNDS_PER_SECOND``), not
by the clock, so every count — availability, refusals,
blocks moved, journal records — repeats exactly for a seed.

Correctness checks run between the timed calls and raise
:class:`CheckFailed`; a run that fails one prints no metrics.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import itertools
import json
import os
import random
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.cluster import fsck, persistence
from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.journal import ClusterJournal
from repro.cluster.popularity import ReplicationPolicy
from repro.core.operations import ScalingOp
from repro.experiments.cluster_chaos import ha_digest
from repro.server.streams import StreamState
from repro.storage.disk import DiskSpec
from repro.workloads.generator import zipf_popularity

clock = time.perf_counter

WORKLOADS = ("vod-zipf", "shard-failure")

#: The cluster's placement seed.  It configures the system, so it is
#: fixed: every run reorganizes the same layout and plans the same moves.
#: ``--seed`` drives the inputs — titles drawn, start positions, seeks,
#: arrivals — which is what a second seed varies.
CLUSTER_SEED = 0x5CADDA


class CheckFailed(AssertionError):
    """A correctness check failed; the run must not report metrics."""


#: Timed rounds per second of ``--seconds``.  The round count, not the
#: clock, ends the serving loop, so every count repeats for a seed.
ROUNDS_PER_SECOND = 16
#: At least 10 timed rounds lie beyond p95.
MIN_ROUNDS = 200
#: Share of viewers that seek each round.
SEEK_SHARE = 0.01
#: Builds per run; setup_s is their median.
SETUPS = 5
#: Manifest writes and recoveries at shard-failure's crash; restart_s is
#: the mean write plus the mean recovery of a run's restarts.
RESTARTS = 5
#: Online reorganizations land a step every REORG_EVERY rounds, so the
#: rounds that carry one (shard-failure's p95 tail) spread over the run
#: instead of filling one stretch of it.
REORG_EVERY = 3
#: Migrations (or rebuild copies) landed per reorganization step.
MIGRATE_PER_ROUND = 2
#: vod-zipf's maintenance windows (two passes over its four shards).
WINDOWS = 8


def rounds_for(seconds: float) -> int:
    """Timed rounds of a run of ``seconds``."""
    return max(MIN_ROUNDS, int(round(ROUNDS_PER_SECOND * seconds)))


@dataclass(frozen=True)
class Sizing:
    """The shape of one workload's cluster and viewer population."""

    shards: int
    disks: int
    titles: int
    blocks: int
    viewers: int
    bandwidth: int
    router: str = "jump_hash"
    #: Flash-crowd viewers (shard-failure only), admitted over 10 rounds.
    flash: int = 0


#: Sizes used by the benchmark.  Bandwidth leaves headroom over the
#: peak per-disk load so that no block read misses its round (every
#: workload is one on which no operation fails); the peak load share is
#: reported per layer instead.
SIZES: dict[str, Sizing] = {
    "vod-zipf": Sizing(
        shards=4, disks=4, titles=200, blocks=40, viewers=16000,
        bandwidth=2000,
    ),
    "shard-failure": Sizing(
        shards=6, disks=3, titles=120, blocks=40, viewers=15000,
        bandwidth=2500, router="consistent_hash", flash=1500,
    ),
}

#: Tiny sizes for the benchmark's own tests.
TINY: dict[str, Sizing] = {
    "vod-zipf": Sizing(
        shards=2, disks=3, titles=16, blocks=12, viewers=60, bandwidth=60,
    ),
    "shard-failure": Sizing(
        shards=4, disks=2, titles=16, blocks=12, viewers=60, bandwidth=80,
        router="consistent_hash", flash=20,
    ),
}


def settle() -> None:
    """Collect, then freeze the surviving heap (the cluster just built or
    recovered) so that later collections skip it.  Collection stays on:
    garbage the timed calls create is collected, and timed, as it would
    be in the program."""
    gc.unfreeze()
    gc.collect()
    gc.freeze()


# ----------------------------------------------------------------------
# Viewers: a fixed-size closed population with churn and seeks
# ----------------------------------------------------------------------
@dataclass
class RoundPlan:
    """One round's client actions, drawn before the round is timed."""

    departures: list[int] = field(default_factory=list)
    arrivals: list[int] = field(default_factory=list)
    seeks: list[tuple[int, int]] = field(default_factory=list)


class Viewers:
    """Zipf-popular viewers; finished ones are replaced by fresh draws.

    All random choices come from one seeded ``random.Random`` and are
    made outside the timed calls (:meth:`plan`); :meth:`apply` only
    issues the cluster calls.
    """

    def __init__(self, rng: random.Random, titles: int, blocks: int,
                 population: int):
        self.rng = rng
        self.blocks = blocks
        self.population = population
        self.seeks_per_round = int(round(SEEK_SHARE * population))
        self._cdf = list(itertools.accumulate(zipf_popularity(titles)))
        self.streams: dict = {}
        self.next_id = 0
        self.vacant = 0
        #: Titles of extra arrivals (a flash crowd) for the next round.
        self.queued: list[int] = []
        self.admitted = 0
        self.refused = 0

    def draw_title(self) -> int:
        return min(bisect.bisect_left(self._cdf, self.rng.random()),
                   len(self._cdf) - 1)

    def admit(self, cluster: ClusterCoordinator, gid: int, start: int) -> None:
        """Admit one viewer; a refusal leaves a vacant slot to refill."""
        stream_id = self.next_id
        self.next_id += 1
        self.admitted += 1
        try:
            self.streams[stream_id] = cluster.admit_stream(stream_id, gid, start)
        except ValueError:
            self.refused += 1
            self.vacant += 1

    def populate(self, cluster: ClusterCoordinator) -> None:
        """The initial audience, at staggered playback positions so that
        departures spread evenly over the run."""
        for _ in range(self.population):
            self.admit(cluster, self.draw_title(),
                       self.rng.randrange(self.blocks))

    def arrive(self, gid: int, count: int) -> None:
        """``count`` extra viewers of one title join next round; they
        are replaced like everyone else once they finish."""
        self.queued.extend([gid] * count)

    def plan(self) -> RoundPlan:
        plan = RoundPlan()
        for stream_id, stream in self.streams.items():
            if stream.state is StreamState.DONE:
                plan.departures.append(stream_id)
        refill = len(plan.departures) + self.vacant
        self.vacant = 0
        plan.arrivals = [self.draw_title() for _ in range(refill)] + self.queued
        self.queued = []
        leaving = set(plan.departures)
        playing = [sid for sid in self.streams if sid not in leaving]
        for sid in self.rng.sample(playing, min(self.seeks_per_round, len(playing))):
            plan.seeks.append((sid, self.rng.randrange(self.blocks)))
        return plan

    def apply(self, cluster: ClusterCoordinator, plan: RoundPlan) -> None:
        for stream_id in plan.departures:
            cluster.depart_stream(stream_id)
            del self.streams[stream_id]
        for gid in plan.arrivals:
            self.admit(cluster, gid, 0)
        for stream_id, block in plan.seeks:
            self.streams[stream_id].seek(block)

    def refresh(self, cluster: ClusterCoordinator) -> int:
        """Re-read every viewer's current ``Stream`` from the live
        schedulers (failover and migration re-create stream objects).

        Returns how many viewers are on no live scheduler (stranded).
        Viewers that finished during a handoff were released by the
        cluster; their slots are refilled next round.
        """
        live = {}
        for shard in cluster.shards:
            if cluster.health.is_live(shard.shard_id):
                for stream in shard.scheduler.streams:
                    live[stream.stream_id] = stream
        missing = 0
        for stream_id in list(self.streams):
            fresh = live.pop(stream_id, None)
            if fresh is not None:
                self.streams[stream_id] = fresh
            elif self.streams[stream_id].position >= self.blocks:
                del self.streams[stream_id]
                self.vacant += 1
            else:
                missing += 1
        if live:
            raise CheckFailed(f"{len(live)} streams served that no viewer owns")
        return missing


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
class Run:
    """One seeded lifecycle: builds the cluster, drives it, checks it."""

    def __init__(self, workload: str, seed: int, seconds: float, workdir: str,
                 sizing: Optional[Sizing] = None, recorder=None,
                 rounds: Optional[int] = None):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.size = sizing if sizing is not None else SIZES[workload]
        self.rounds = rounds if rounds is not None else rounds_for(seconds)
        #: Journals and manifests of this run only (a traced run follows
        #: an untraced one in the same scratch directory).
        self.workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=workdir)
        self.rec = recorder
        self.cluster: Optional[ClusterCoordinator] = None
        self.viewers: Optional[Viewers] = None
        self.journal_path: Optional[str] = None
        # Measurements.
        self.setup_s: list[float] = []
        self.round_s: list[float] = []
        self.reorg_s = 0.0
        #: Manifest write and recovery times of the run's restarts, in the
        #: order taken.
        self.write_s: list[float] = []
        self.recover_s: list[float] = []
        self.requested = 0
        self.served = 0
        self.stranded = 0
        self.transferred = 0
        self.transfer_minimum = 0
        self.reorg_steps = 0
        self.reorg_failed = 0
        self.lost_titles = 0
        self.restarts = 0
        self.peak_load = 0.0
        self.manifest_bytes = 0
        self.journal_bytes = 0
        self.retired_counters: list[dict] = []
        #: (start, end) of every timed round, kept for traced runs.
        self.round_windows: list[tuple[float, float]] = []
        self.checks = 0
        #: Viewers kill_shard left with no live copy.
        self.stranded_viewers = 0
        #: Restart work done inside a round's background step; it is
        #: measured by restart_s and left out of the round's time.
        self._excluded = 0.0

    # -- helpers --------------------------------------------------------
    def phase(self, name: str) -> None:
        if self.rec is not None:
            self.rec.set_phase(name)

    def untraced(self):
        """Context for checks and twins: nothing is recorded."""
        if self.rec is None:
            return contextlib.nullcontext()
        return self.rec.paused()

    def check(self, ok: bool, what: str) -> None:
        self.checks += 1
        if not ok:
            raise CheckFailed(what)

    def audit(self, cluster: ClusterCoordinator, degraded_ok: bool,
              what: str) -> None:
        """A clean ``check_cluster`` (degraded only while a shard is dead)."""
        with self.untraced():
            report = fsck.check_cluster(cluster)
        self.check(report.clean, f"check_cluster not clean after {what}: "
                   f"{report.misrouted[:3]} {report.replica_violations[:3]} "
                   f"{[r for r in report.shard_reports.values() if not r.clean][:1]}")
        if not degraded_ok:
            self.check(not report.degraded,
                       f"degraded replicas after {what}: {report.degraded[:3]}")

    # -- building -------------------------------------------------------
    def build(self) -> tuple[ClusterCoordinator, Viewers]:
        """Cluster creation, catalog ingest, initial admission."""
        size = self.size
        policy = None
        journal = None
        if self.workload == "shard-failure":
            # Two-copy floor plus a 40% popularity budget above it, at
            # most three copies per title.
            policy = ReplicationPolicy(
                2 * size.titles + (4 * size.titles) // 10,
                floor=2, ceiling=3, hysteresis_rounds=2,
                max_copy_ops_per_round=4, demand_half_life_rounds=8,
            )
            self.journal_path = os.path.join(
                self.workdir, f"cluster-{len(self.setup_s)}.journal")
            journal = ClusterJournal(self.journal_path)
        # Every shard is its own failure domain (num_domains=None): with
        # two shards in a domain, defect (c) in perfbench/NOTES.md can
        # place two new copies of a title in one domain.
        cluster = ClusterCoordinator.create(
            size.shards, size.disks,
            DiskSpec(capacity_blocks=1_000_000,
                     bandwidth_blocks_per_round=size.bandwidth),
            router_backend=size.router,
            master_seed=CLUSTER_SEED,
            journal=journal,
            replication_factor=2,
            replication_policy=policy,
        )
        for gid in range(size.titles):
            cluster.add_object(f"title-{gid}", size.blocks)
        viewers = Viewers(random.Random(self.seed), size.titles,
                          size.blocks, size.viewers)
        viewers.populate(cluster)
        return cluster, viewers

    def setup(self) -> None:
        """``SETUPS`` builds, each from a settled heap with the previous
        one released; the last build is kept."""
        self.phase("setup")
        for i in range(SETUPS):
            if self.cluster is not None:
                self.close(self.cluster)
                self.cluster = self.viewers = None
            settle()
            with self.traced_once(i):
                t0 = clock()
                self.cluster, self.viewers = self.build()
                self.setup_s.append(clock() - t0)
        settle()
        self.check(self.viewers.refused == 0,
                   f"{self.viewers.refused} initial admissions refused")
        self.audit(self.cluster, False, "setup")

    @staticmethod
    def close(cluster: ClusterCoordinator) -> None:
        if cluster.journal is not None:
            cluster.journal.close()

    # -- serving --------------------------------------------------------
    def serve_round(self, background: Optional[Callable[[], None]] = None) -> None:
        """One timed round: churn, the barrier round, the background step."""
        cluster, viewers = self.cluster, self.viewers
        plan = viewers.plan()
        self.phase("serve")
        self._excluded = 0.0
        t0 = clock()
        viewers.apply(cluster, plan)
        report = cluster.run_round()
        if background is not None:
            self.phase("reorg")
            b0 = clock()
            try:
                background()
            finally:
                self.reorg_s += clock() - b0 - self._excluded
                self.phase("serve")
        t1 = clock()
        self.round_s.append(t1 - t0 - self._excluded)
        if self.rec is not None:
            self.round_windows.append((t0, t1))
        # Untimed: conservation, accounting, viewer bookkeeping.
        self.check(
            report.requested == report.served + report.hiccups + report.queued,
            f"round {report.round_index}: conservation broken",
        )
        self.requested += report.requested
        self.served += report.served
        self.stranded += report.stranded
        for shard_report in report.reports.values():
            peak = max(shard_report.load_by_physical.values(), default=0)
            self.peak_load = max(self.peak_load, peak / self.size.bandwidth)
        if background is not None or cluster.replication.policy is not None:
            # Streams are re-created only by reorganization steps and by
            # adapt() evictions; otherwise the held objects stay current.
            missing = viewers.refresh(cluster)
            self.check(missing == self.stranded_viewers,
                       f"{missing} viewers on no live shard, "
                       f"{self.stranded_viewers} stranded")

    def reorg_call(self, fn: Callable):
        """One reorganization step between serving rounds."""
        self.phase("reorg")
        self._excluded = 0.0
        t0 = clock()
        try:
            return fn()
        finally:
            self.reorg_s += clock() - t0 - self._excluded

    def step(self, fn: Callable, *args):
        """Count one reorganization step; a raise is a failed step."""
        self.reorg_steps += 1
        try:
            return fn(*args)
        except Exception:
            self.reorg_failed += 1
            raise

    # -- transfer accounting (RO1) -------------------------------------
    @staticmethod
    def placed(cluster: ClusterCoordinator) -> dict[int, int]:
        """Blocks ever written per live shard (places = (membership
        changes + resident) / 2) plus disk-level moves."""
        out = {}
        for shard in cluster.shards:
            array = shard.server.array
            out[shard.shard_id] = (
                (array.inventory_version + array.total_blocks) // 2
                + array.blocks_moved
            )
        return out

    @staticmethod
    def transfers_since(cluster: ClusterCoordinator, before: dict[int, int]) -> int:
        after = Run.placed(cluster)
        return sum(after[sid] - before.get(sid, 0) for sid in after)

    # -- restart ---------------------------------------------------------
    def write_manifest(self, times: int) -> str:
        """Write the manifest ``times`` times; returns its path."""
        path = os.path.join(self.workdir, "manifest.json")
        self.phase("restart")
        for i in range(times):
            with self.traced_once(i):
                t0 = clock()
                text = json.dumps(persistence.snapshot_cluster(self.cluster))
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(text)
                self.write_s.append(clock() - t0)
        self.manifest_bytes = len(text)
        return path

    def traced_once(self, i: int):
        """Repeats of a timed step exist to steady its median; only the
        first one is traced."""
        if i == 0 or self.rec is None:
            return contextlib.nullcontext()
        return self.rec.paused()

    def crash_journal(self) -> Optional[str]:
        """A copy of the cluster journal as it stands now (None without
        a file-backed journal)."""
        if self.journal_path is None:
            return None
        path = os.path.join(self.workdir, "crash.journal")
        shutil.copyfile(self.journal_path, path)
        return path

    def recover(self, manifest_path: str, journal_src: Optional[str],
                reconnect: list, titles: dict, trial: int):
        """One recovery: ``resume_cluster`` from the manifest and a copy
        of the journal, viewers reconnect at their positions, fsck.
        Returns ``(cluster, pending, streams, journal copy)`` and its
        wall time."""
        journal_copy = None
        if journal_src is not None:
            journal_copy = os.path.join(self.workdir, f"resume-{trial}.journal")
            shutil.copyfile(journal_src, journal_copy)
        self.phase("restart")
        with self.traced_once(trial):
            t0 = clock()
            with open(manifest_path, encoding="utf-8") as handle:
                manifest = json.load(handle)
            journal = (ClusterJournal(journal_copy)
                       if journal_copy is not None else ClusterJournal())
            cluster, pending = persistence.resume_cluster(manifest, journal)
            streams = {}
            for stream_id, position, paused in reconnect:
                stream = cluster.admit_stream(stream_id, titles[stream_id], position)
                if paused:
                    stream.pause()
                streams[stream_id] = stream
            report = fsck.check_cluster(cluster)
            elapsed = clock() - t0
        self.check(report.clean, "recovered cluster fails check_cluster")
        return (cluster, pending, streams, journal_copy), elapsed

    def retire(self, counters: dict) -> None:
        """Release the serving cluster before a restart, as a crash
        would; its counters (as of the crash) stay in the run's totals."""
        self.retired_counters.append(counters)
        self.close(self.cluster)
        self.cluster = None
        self.viewers.streams = {}
        settle()

    def restart(self, manifest_path: str, journal_src: Optional[str],
                reconnect: list, titles: dict, trials: int):
        """``trials`` recoveries back to back from the same manifest and
        journal; each recovered cluster but the last is released before
        the next recovery starts, and the last is the one the lifecycle
        continues on.  The serving clock is stopped while the cluster is
        down."""
        for trial in range(trials):
            if trial:
                cluster, _, _, journal_copy = result
                self.close(cluster)
                if journal_copy is not None:
                    os.remove(journal_copy)
                del cluster, result
                settle()
            result, elapsed = self.recover(manifest_path, journal_src,
                                           reconnect, titles, trial)
            self.recover_s.append(elapsed)
        self.restarts += 1
        return result

    def serve_until(self, rounds: int) -> None:
        """Serve until ``rounds`` rounds are timed."""
        while len(self.round_s) < rounds:
            self.serve_round()

    def viewer_state(self) -> tuple[list, dict, int]:
        """What clients reconnect with after a restart: (id, position,
        paused) per unfinished viewer, their titles, and how many had
        finished (they leave instead)."""
        reconnect, titles, finished = [], {}, 0
        for sid, stream in sorted(self.viewers.streams.items()):
            if stream.state is StreamState.DONE:
                finished += 1
                continue
            reconnect.append((sid, stream.position,
                              stream.state is StreamState.PAUSED))
            titles[sid] = self.cluster.gid_of(stream.media.name)
        return reconnect, titles, finished

    def adopt(self, cluster: ClusterCoordinator, streams: dict,
              journal_path: Optional[str], finished: int) -> None:
        """Continue serving on a recovered cluster."""
        self.cluster = cluster
        self.viewers.streams = streams
        self.viewers.vacant += finished
        self.journal_path = journal_path
        settle()

    def quiescent_restart(self) -> None:
        """Manifest restart of a quiescent cluster (vod-zipf): the
        recovered cluster must reproduce the one it replaces."""
        reconnect, titles, finished = self.viewer_state()
        with self.untraced():
            before = ha_digest(self.cluster)
        path = self.write_manifest(1)
        journal_src = self.crash_journal()
        self.retire(counters_of(self.cluster))
        cluster, pending, streams, jpath = self.restart(
            path, journal_src, reconnect, titles, 1)
        self.check(pending is None, "quiescent restart left a rebalance open")
        with self.untraced():
            self.check(ha_digest(cluster) == before,
                       "restarted cluster differs from the one it replaced")
        self.adopt(cluster, streams, jpath, finished)

    # -- reorganization steps with RO1 accounting -------------------------
    def disk_ops(self, shard_id: int, ops: list[ScalingOp]) -> None:
        """``scale_shard`` calls on one shard between serving rounds.
        RO1's minimum is the blocks that land on an added disk, or that
        leave a retired one; counting them is left out of the timed
        calls."""
        array = self.cluster.shard(shard_id).server.array
        counted = []

        def run():
            for op in ops:
                t0 = clock()
                before = array.blocks_moved
                minimum = sum(len(array.blocks_on(i)) for i in op.removed)
                self._excluded += clock() - t0
                self.step(self.cluster.scale_shard, shard_id, op)
                t0 = clock()
                if op.kind == "add":
                    minimum = sum(len(array.blocks_on(array.num_disks - 1 - i))
                                  for i in range(op.count))
                counted.append((array.blocks_moved - before, minimum))
                self._excluded += clock() - t0
        self.reorg_call(run)
        for moved, minimum in counted:
            self.transferred += moved
            self.transfer_minimum += minimum
            self.check(moved >= minimum, f"shard {shard_id}: {moved} blocks "
                       f"moved, RO1 minimum {minimum}")
        self.audit(self.cluster, False, f"scale_shard on shard {shard_id}")

    def shard_add_accounting(self, cluster, before: dict, new_ids) -> None:
        """A shard add's transfers against RO1's minimum: the blocks
        resident on the new shards had to be written there."""
        moved = self.transfers_since(cluster, before)
        minimum = sum(cluster.shard(sid).total_blocks for sid in new_ids)
        self.check(moved >= minimum,
                   f"shard add: {moved} blocks transferred, RO1 minimum {minimum}")
        self.transferred += moved
        self.transfer_minimum += minimum

    def paced_round(self, background: Callable[[], None]) -> None:
        """``REORG_EVERY - 1`` plain rounds, then one carrying
        ``background``."""
        for _ in range(REORG_EVERY - 1):
            self.serve_round()
        self.serve_round(background)

    def migrate_rounds(self, cluster, pending, stop: int) -> None:
        """Serve paced rounds landing ``MIGRATE_PER_ROUND`` migrations
        each until ``stop`` have landed."""
        def migrate():
            for _ in range(MIGRATE_PER_ROUND):
                if len(pending.applied) >= stop:
                    break
                self.step(cluster.migrate_next, pending)
        while len(pending.applied) < stop:
            self.paced_round(migrate)

    # -- workloads --------------------------------------------------------
    def run(self) -> None:
        try:
            self.setup()
            getattr(self, "_" + self.workload.replace("-", "_"))()
            self.finish()
        finally:
            gc.unfreeze()

    def _vod_zipf(self) -> None:
        # Every workload reports every end-to-end metric, so vod-zipf runs
        # WINDOWS maintenance windows between two serving rounds, taking
        # the shards in turn: one shard's rolling disk replacement (a disk
        # added, an original one retired: both REMAP branches; reorg_s,
        # moved_ratio), then a manifest restart (restart_s).  The serving
        # rounds stay read-only.  The windows follow a warm-up of 10% of
        # the rounds and are spread evenly over the rest, so that reorg_s
        # and restart_s sample the machine over the whole run, as the
        # serving metrics do.
        warmup = self.rounds // 10
        shard_ids = list(self.cluster.shard_ids)
        for k in range(WINDOWS):
            self.serve_until(warmup + k * (self.rounds - warmup) // WINDOWS)
            self.disk_ops(shard_ids[k % len(shard_ids)],
                          [ScalingOp.add(1), ScalingOp.remove([0])])
            self.quiescent_restart()
        self.serve_until(self.rounds)

    def _shard_failure(self) -> None:
        size = self.size
        flash_gid = size.titles - 2  # deep in the Zipf tail: cold
        for _ in range(self.rounds // 10):
            self.serve_round()
        # Step 1: a flash crowd arrives on the cold title over 10 rounds.
        for _ in range(10):
            self.viewers.arrive(flash_gid, size.flash // 10)
            self.serve_round()
        for _ in range(self.rounds // 10):
            self.serve_round()
        self._kill_and_rebuild(self.cluster.shard_of(flash_gid))
        crash = self._readmit_until_crash()
        # Step 5: the crash.  The crashed cluster is released, then
        # restarted from the manifest and the journal as the crash left it.
        self.retire(crash.counters)
        resumed, pending, streams, jpath = self.restart(
            crash.manifest_path, crash.journal_path, crash.reconnect,
            crash.titles, RESTARTS)
        self.check(pending is not None and len(pending.moves)
                   - len(pending.applied) == crash.moves_left,
                   "resume did not hand back the open readmit")
        self.adopt(resumed, streams, jpath, crash.finished)
        # Step 6: the readmit finishes on the recovered cluster.
        self.migrate_rounds(resumed, pending, len(pending.moves))
        self.serve_round(lambda: self.step(resumed.finish_reshard, pending))
        with self.untraced():
            self.check(ha_digest(resumed) == crash.twin_digest,
                       "resumed cluster's ha_digest differs from the uncrashed twin")
        self.audit(resumed, False, "readmit")
        # Serving continues.
        self.serve_until(self.rounds)

    def _kill_and_rebuild(self, victim: int) -> None:
        """Shard-failure's steps 2 and 3: ``victim`` dies, and is rebuilt
        between rounds while serving continues through failover."""
        cluster = self.cluster
        no_live_copy = [
            gid for gid in cluster.object_ids
            if not any(cluster.health.is_live(s) and s != victim
                       for s in (cluster.shard_of(gid),) + cluster.replicas_of(gid))
        ]

        def kill():
            death = self.step(cluster.kill_shard, victim)
            self.stranded_viewers += death.streams_stranded
        self.serve_round(kill)
        self.audit(cluster, True, "kill_shard")
        rebuilder = None

        def begin_rebuild():
            nonlocal rebuilder
            rebuilder = self.step(cluster.begin_shard_rebuild, victim,
                                  MIGRATE_PER_ROUND)
        self.serve_round(begin_rebuild)
        while not rebuilder.done:
            self.paced_round(lambda: self.step(rebuilder.step))
        self.serve_round(lambda: self.step(rebuilder.finish))
        self.lost_titles = cluster.lost_objects
        self.check(cluster.lost_objects == len(no_live_copy),
                   f"{cluster.lost_objects} titles lost, "
                   f"{len(no_live_copy)} had no live copy")
        self.audit(cluster, False, "rebuild")

    def _readmit_until_crash(self) -> "Crash":
        """Shard-failure's step 4: the manifest is taken right before an
        online readmit (same background step, so no adapt() pass falls in
        between), and the crash comes halfway through the readmit.  The
        crashed coordinator, driven on without its journal, is the
        uncrashed twin the recovery must match; it finishes the readmit
        here, outside the timed and traced calls.

        The readmit alone feeds ``moved_ratio``: adapt() is paused while
        it is open, so every block written from its begin to its finish is
        a readmit transfer.  The rebuild is left out, because adapt() may
        lower a title's target while it runs, so the copies the dead shard
        held are not a minimum the rebuild must re-create."""
        cluster = self.cluster
        pending = manifest_path = before = None

        def manifest_and_readmit():
            nonlocal pending, manifest_path, before
            t0 = clock()
            manifest_path = self.write_manifest(RESTARTS)
            before = self.placed(cluster)
            self._excluded += clock() - t0
            self.phase("reorg")
            pending = self.step(cluster.begin_reshard, ScalingOp.add(1))
        self.serve_round(manifest_and_readmit)
        crash_after = len(pending.moves) // 2
        self.migrate_rounds(cluster, pending, crash_after)
        reconnect, titles, finished = self.viewer_state()
        journal_path = self.crash_journal()
        cluster.journal.close()
        cluster.journal = None
        counters = counters_of(cluster)
        with self.untraced():
            cluster.execute_reshard(pending)
            cluster.finish_reshard(pending)
            twin_digest = ha_digest(cluster)
            self.shard_add_accounting(cluster, before, pending.new_shard_ids)
        return Crash(manifest_path, journal_path, reconnect, titles, finished,
                     len(pending.moves) - crash_after, twin_digest, counters)

    # -- wrap-up ----------------------------------------------------------
    def finish(self) -> None:
        self.check(len(self.round_s) >= self.rounds,
                   f"only {len(self.round_s)} of {self.rounds} rounds timed")
        self.audit(self.cluster, False, "the run")
        self.check(self.stranded == 0 or self.stranded_viewers > 0,
                   "stranded demand without stranded viewers")
        if self.journal_path is not None and os.path.exists(self.journal_path):
            self.journal_bytes = os.path.getsize(self.journal_path)
        self.close(self.cluster)

    # -- results ----------------------------------------------------------
    @property
    def timed_wall_s(self) -> float:
        return sum(self.round_s)

    def accounting(self) -> tuple[int, int, dict]:
        """(attempted, failed, breakdown) of the result object."""
        v = self.viewers
        missed = self.requested - self.served
        breakdown = {
            "admissions": v.admitted,
            "admissions_refused": v.refused,
            "block_reads": self.requested,
            "block_reads_missed": missed,
            "reorg_steps": self.reorg_steps,
            "reorg_steps_raised": self.reorg_failed,
            "restarts": self.restarts,
            "titles_lost": self.lost_titles,
        }
        attempted = v.admitted + self.requested + self.reorg_steps + self.restarts
        failed = v.refused + missed + self.reorg_failed + self.lost_titles
        return attempted, failed, breakdown

    def end_to_end(self, peak_rss_mb: float) -> dict[str, tuple[float, str]]:
        """Every end-to-end metric: name -> (value, unit)."""
        rounds_ms = sorted(t * 1e3 for t in self.round_s)
        q = statistics.quantiles(rounds_ms, n=20, method="inclusive")
        return {
            "setup_s": (statistics.median(self.setup_s), "s"),
            "reads_per_s": (self.served / self.timed_wall_s, "blocks/s"),
            "round_ms_p50": (statistics.median(rounds_ms), "ms"),
            "round_ms_p95": (q[18], "ms"),
            "availability": (self.served / self.requested, "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
            "reorg_s": (self.reorg_s, "s"),
            "moved_ratio": (self.transferred / self.transfer_minimum, "ratio"),
            "restart_s": (statistics.mean(self.write_s)
                          + statistics.mean(self.recover_s), "s"),
        }

    def counter_totals(self) -> dict[str, int]:
        """Replica-copy counters summed over every coordinator of the
        measured timeline."""
        total: dict[str, int] = {}
        for counters in self.retired_counters + [counters_of(self.cluster)]:
            for key, value in counters.items():
                total[key] = total.get(key, 0) + value
        return total


@dataclass(frozen=True)
class Crash:
    """Where shard-failure's crash leaves the restart to begin."""

    manifest_path: str
    journal_path: str
    reconnect: list
    titles: dict
    finished: int
    #: Readmit migrations still to land after the crash.
    moves_left: int
    #: ``ha_digest`` of the uncrashed twin after it finished the readmit.
    twin_digest: str
    counters: dict


def counters_of(cluster: ClusterCoordinator) -> dict[str, int]:
    manager = cluster.replication
    return {
        "copies_created": manager.copies_created,
        "copies_dropped": manager.copies_dropped,
        "copies_lost": manager.copies_lost,
    }
