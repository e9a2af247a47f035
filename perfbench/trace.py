"""Span tracing for the traced run, recorded from outside the program.

The program under test has no cluster-level spans yet, so the traced run
wraps public functions of ``repro`` at their layer boundaries (one span
per call: name, start, end, parent, phase) and restores them when the run
ends.  Spans are kept in memory and written out once, at the end.

A span's *self time* is its duration minus the part of it covered by its
child spans.  Per-viewer calls (``Stream.deliver``, ``record_demand``,
``Stream.seek``) are deliberately not wrapped: their cost lands in the
self time of the span that loops over viewers.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from typing import Callable, Iterator, Optional, Sequence

#: Phases a span can start in; the lifecycle switches between them.
PHASES = ("setup", "serve", "reorg", "restart")


class SpanRecorder:
    """In-memory span store: parallel lists, one entry per wrapped call."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.span_phase: list[int] = []
        self.counts: Counter = Counter()
        self.phase = 0
        self.enabled = True
        self._stack: list[int] = []

    def set_phase(self, phase: str) -> None:
        """Spans that start from now on belong to ``phase``."""
        self.phase = PHASES.index(phase)

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """Record nothing inside the block (correctness checks, the
        uncrashed twin): only measured work is attributed."""
        was = self.enabled
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = was

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(
        self,
        name: str,
        fn: Callable,
        count: Optional[Callable[[tuple, object, Counter], None]] = None,
    ) -> Callable:
        """``fn`` recording one span per call; ``count(args, result,
        counts)`` adds layer counts from the call's arguments/result."""
        rec = self
        nid = self.name_id(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            stack = rec._stack
            index = len(rec.start)
            rec.span_name.append(nid)
            rec.parent.append(stack[-1] if stack else -1)
            rec.span_phase.append(rec.phase)
            rec.end.append(0.0)
            stack.append(index)
            rec.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end[index] = clock()
                stack.pop()
            if count is not None:
                count(args, result, rec.counts)
            return result

        return wrapper

    def __len__(self) -> int:
        return len(self.start)

    def write_jsonl(self, path) -> None:
        """One JSON object per span: name, start, end, parent, phase."""
        with open(path, "w", encoding="utf-8") as handle:
            for i in range(len(self.start)):
                handle.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": self.names[self.span_name[i]],
                            "start": self.start[i],
                            "end": self.end[i],
                            "parent": self.parent[i],
                            "phase": PHASES[self.span_phase[i]],
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> list[float]:
    """Self time of every span: its duration minus the union of its
    children's intervals, clipped to the span itself."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = [ends[i] - starts[i] for i in range(len(starts))]
    for p, kids in children.items():
        lo, hi = starts[p], ends[p]
        covered = 0.0
        run_start = run_end = None
        for k in sorted(kids, key=lambda k: starts[k]):
            s, e = max(starts[k], lo), min(ends[k], hi)
            if e <= s:
                continue
            if run_end is None or s > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = s, e
            else:
                run_end = max(run_end, e)
        if run_end is not None:
            covered += run_end - run_start
        out[p] -= covered
    return out


def layer_summary(rec: SpanRecorder) -> dict[str, dict]:
    """Per span name: calls and self seconds, overall and per phase."""
    selfs = self_times(rec.start, rec.end, rec.parent)
    summary: dict[str, dict] = {
        name: {"calls": 0, "self_s": 0.0, "phase_self_s": [0.0] * len(PHASES)}
        for name in rec.names
    }
    for i, nid in enumerate(rec.span_name):
        row = summary[rec.names[nid]]
        row["calls"] += 1
        row["self_s"] += selfs[i]
        row["phase_self_s"][rec.span_phase[i]] += selfs[i]
    return summary


# ----------------------------------------------------------------------
# What the traced run wraps
# ----------------------------------------------------------------------
def _count_blocks_located(args, result, counts) -> None:
    counts["placement.blocks_located"] += len(args[2])


def _count_ingest(args, result, counts) -> None:
    counts["server.ingest.blocks"] += result.blocks_written


def _count_block_move(args, result, counts) -> None:
    if result:
        counts["storage.blocks_moved"] += 1


def _count_journal_record(args, result, counts) -> None:
    counts["cluster.journal.records"] += 1


def _count_plan(args, result, counts) -> None:
    counts["cluster.router.plan_candidates"] += len(result[0])


def _count_reshard(args, result, counts) -> None:
    counts["cluster.router.plan_moves_real"] += len(result.moves)


def _count_rebuild(args, result, counts) -> None:
    counts["cluster.router.plan_moves_real"] += len(result.pending.moves)


def _count_resume(args, result, counts) -> None:
    if result[1] is not None:
        counts["cluster.router.plan_moves_real"] += len(result[1].moves)


def _count_route(args, result, counts) -> None:
    counts["cluster.route.calls"] += 1
    counts["cluster.route.attempts"] += result.attempts
    counts["cluster.failover.retries"] += result.attempts - 1
    if result.failed_over:
        counts["cluster.failover.reads"] += 1


#: (span name, module, class or None for a module function, attribute,
#: count hook).  Module functions imported by name elsewhere are patched
#: at those import sites too (see ``_ALIASES``).
TARGETS: list[tuple] = [
    ("server.scheduler.run_round", "repro.server.scheduler", "RoundScheduler", "run_round", None),
    ("server.streams.gather_round_demand", "repro.server.streams", None, "gather_round_demand", None),
    ("server.locate.locate_physical", "repro.server.locate", "BackendBatchLocator", "locate_physical", None),
    ("core.engine.locate_batch", "repro.core.engine", "PlacementEngine", "locate_batch", None),
    ("cluster.coordinator.run_round", "repro.cluster.coordinator", "ClusterCoordinator", "run_round", None),
    ("cluster.coordinator.admit_stream", "repro.cluster.coordinator", "ClusterCoordinator", "admit_stream", None),
    ("cluster.coordinator.depart_stream", "repro.cluster.coordinator", "ClusterCoordinator", "depart_stream", None),
    ("cluster.coordinator.route_read", "repro.cluster.coordinator", "ClusterCoordinator", "route_read", _count_route),
    ("cluster.coordinator.scale_shard", "repro.cluster.coordinator", "ClusterCoordinator", "scale_shard", None),
    ("cluster.coordinator.begin_reshard", "repro.cluster.coordinator", "ClusterCoordinator", "begin_reshard", _count_reshard),
    ("cluster.coordinator.begin_shard_rebuild", "repro.cluster.coordinator", "ClusterCoordinator", "begin_shard_rebuild", _count_rebuild),
    ("cluster.coordinator.migrate_next", "repro.cluster.coordinator", "ClusterCoordinator", "migrate_next", None),
    ("cluster.coordinator.finish_reshard", "repro.cluster.coordinator", "ClusterCoordinator", "finish_reshard", None),
    ("cluster.coordinator.kill_shard", "repro.cluster.coordinator", "ClusterCoordinator", "kill_shard", None),
    ("cluster.replication.adapt", "repro.cluster.replication", "ClusterReplicationManager", "adapt", None),
    ("cluster.replication.repair", "repro.cluster.replication", "ClusterReplicationManager", "repair", None),
    ("cluster.replication.drop_replica", "repro.cluster.replication", "ClusterReplicationManager", "drop_replica", None),
    ("cluster.replication.rebuild_step", "repro.cluster.replication", "ShardRebuilder", "step", None),
    ("cluster.popularity.advance_to", "repro.cluster.popularity", "DemandTracker", "advance_to", None),
    ("cluster.popularity.update", "repro.cluster.popularity", "ReplicationPolicy", "update", None),
    ("cluster.journal.record_begin", "repro.cluster.journal", "ClusterJournal", "record_begin", _count_journal_record),
    ("cluster.journal.record_apply", "repro.cluster.journal", "ClusterJournal", "record_apply", _count_journal_record),
    ("cluster.journal.record_commit", "repro.cluster.journal", "ClusterJournal", "record_commit", _count_journal_record),
    ("cluster.journal.replay", "repro.cluster.journal", "ClusterJournal", "replay", None),
    ("server.journal.record_apply", "repro.server.journal", "ScalingJournal", "record_apply", None),
    ("cluster.router.slots_of", "repro.cluster.router", "ShardRouter", "slots_of", None),
    ("cluster.router.plan_moves", "repro.cluster.router", "ShardRouter", "plan_moves", _count_plan),
    ("cluster.router.replica_rank", "repro.cluster.router", "ShardRouter", "replica_rank", None),
    ("server.cmserver.add_object", "repro.server.cmserver", "CMServer", "add_object", None),
    ("server.cmserver.remove_object", "repro.server.cmserver", "CMServer", "remove_object", None),
    ("server.cmserver.scale", "repro.server.cmserver", "CMServer", "scale", None),
    ("server.ingest.run", "repro.server.ingest", "IngestSession", "run", _count_ingest),
    ("storage.array.move", "repro.storage.array", "DiskArray", "move", _count_block_move),
    ("storage.array.drop", "repro.storage.array", "DiskArray", "drop", None),
    ("storage.migration.step", "repro.storage.migration", "MigrationSession", "step", None),
    ("cluster.persistence.snapshot_cluster", "repro.cluster.persistence", None, "snapshot_cluster", None),
    ("cluster.persistence.resume_cluster", "repro.cluster.persistence", None, "resume_cluster", _count_resume),
    ("server.persistence.restore_server", "repro.server.persistence", None, "restore_server", None),
    ("cluster.fsck.check_cluster", "repro.cluster.fsck", None, "check_cluster", None),
]

#: Where a wrapped module function is also bound by ``from x import f``.
_ALIASES = {
    "gather_round_demand": ("repro.server.scheduler",),
    "restore_server": ("repro.cluster.persistence",),
}

#: Span names whose call counts become per-layer metrics (the journal's
#: begin/commit and the rebuild begin only feed counts).
REPORTED_SPANS = tuple(
    name
    for name, *_ in TARGETS
    if name
    not in (
        "cluster.journal.record_begin",
        "cluster.journal.record_commit",
        "cluster.coordinator.begin_shard_rebuild",
    )
) + ("placement.locate_batch",)

#: Spans every workload calls; their self time is a per-layer metric.
#: A span a workload never calls would report exactly 0 s on every run,
#: and a reported time must vary between runs, so workload-specific spans
#: report calls here and self time in the per-layer table, and their
#: layers' totals below.
TIMED_SPANS = (
    "server.scheduler.run_round",
    "server.streams.gather_round_demand",
    "server.locate.locate_physical",
    "core.engine.locate_batch",
    "placement.locate_batch",
    "cluster.coordinator.run_round",
    "cluster.coordinator.admit_stream",
    "cluster.coordinator.depart_stream",
    "cluster.coordinator.route_read",
    "cluster.router.replica_rank",
    "cluster.journal.replay",
    "server.cmserver.add_object",
    "server.ingest.run",
    "cluster.persistence.snapshot_cluster",
    "cluster.persistence.resume_cluster",
    "server.persistence.restore_server",
    "cluster.fsck.check_cluster",
)

#: Layer totals of self time that every workload exercises.
TIMED_LAYERS = {
    "storage": ("storage.array.move", "storage.array.drop",
                "storage.migration.step"),
    "cluster.reorg": (
        "cluster.coordinator.scale_shard",
        "cluster.coordinator.begin_reshard",
        "cluster.coordinator.begin_shard_rebuild",
        "cluster.coordinator.migrate_next",
        "cluster.coordinator.finish_reshard",
        "cluster.coordinator.kill_shard",
        "cluster.replication.rebuild_step",
    ),
}


def _policy_classes() -> list[type]:
    """PlacementPolicy and every subclass that defines ``locate_batch``."""
    from repro.placement.base import PlacementPolicy

    importlib.import_module("repro.placement.backends")
    found, todo = [], [PlacementPolicy]
    while todo:
        cls = todo.pop()
        if "locate_batch" in cls.__dict__:
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


@contextlib.contextmanager
def instrument(rec: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every traced function for the duration of the block."""
    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, name: str, count) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, rec.wrap(name, original, count))

    try:
        for name, module, cls, attr, count in TARGETS:
            mod = importlib.import_module(module)
            if cls is None:
                wrapped_fn = getattr(mod, attr)
                patch(mod, attr, name, count)
                wrapper = getattr(mod, attr)
                for alias in _ALIASES.get(attr, ()):
                    alias_mod = importlib.import_module(alias)
                    saved.append((alias_mod, attr, wrapped_fn))
                    setattr(alias_mod, attr, wrapper)
            else:
                patch(getattr(mod, cls), attr, name, count)
        for cls in _policy_classes():
            patch(cls, "locate_batch", "placement.locate_batch", _count_blocks_located)
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def render_table(
    workload: str,
    summary: dict[str, dict],
    timed_wall_s: float,
) -> str:
    """Per-layer table: calls, self seconds per phase, share of the timed
    serving wall time."""
    header = (
        f"{'span':44s} {'calls':>8s} "
        + " ".join(f"{p + '_s':>10s}" for p in PHASES)
        + f" {'serve%':>7s}"
    )
    lines = [f"per-layer self time, workload {workload}", header]
    serve = PHASES.index("serve")
    rows = sorted(
        summary.items(), key=lambda item: -sum(item[1]["phase_self_s"])
    )
    for name, row in rows:
        share = (
            100.0 * row["phase_self_s"][serve] / timed_wall_s
            if timed_wall_s
            else 0.0
        )
        lines.append(
            f"{name:44s} {row['calls']:8d} "
            + " ".join(f"{s:10.4f}" for s in row["phase_self_s"])
            + f" {share:6.2f}%"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def covered_seconds(rec: SpanRecorder, windows: Sequence[tuple[float, float]]) -> float:
    """Wall time of top-level spans that ran inside the timed rounds
    (restart work a round excludes from its time is left out too)."""
    restart = PHASES.index("restart")
    roots = sorted(
        (rec.start[i], rec.end[i])
        for i in range(len(rec.start))
        if rec.parent[i] < 0 and rec.span_phase[i] != restart
    )
    total, w = 0.0, 0
    for start, end in roots:
        while w < len(windows) and windows[w][1] < start:
            w += 1
        if w < len(windows) and windows[w][0] <= start and end <= windows[w][1]:
            total += end - start
    return total


def layer_metrics(run, rec: SpanRecorder, untraced_wall_s: float):
    """Every per-layer metric of a traced run, plus the table rows."""
    summary = layer_summary(rec)
    metrics: dict[str, dict] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    def self_s(span: str) -> float:
        return summary.get(span, {"self_s": 0.0})["self_s"]

    for span in REPORTED_SPANS:
        put(f"{span}.calls", summary.get(span, {"calls": 0})["calls"], "count")
    for span in TIMED_SPANS:
        put(f"{span}.self_s", self_s(span), "s")
    for layer, spans in TIMED_LAYERS.items():
        put(f"{layer}.self_s", sum(self_s(span) for span in spans), "s")
    c = rec.counts
    totals = run.counter_totals()
    put("placement.blocks_located", c["placement.blocks_located"], "count")
    put("server.ingest.blocks", c["server.ingest.blocks"], "count")
    put("storage.blocks_moved", c["storage.blocks_moved"], "count")
    put("server.scheduler.peak_disk_load", run.peak_load, "ratio")
    for key in ("copies_created", "copies_dropped", "copies_lost"):
        put(f"cluster.replication.{key}", totals[key], "count")
    put("cluster.replication.churn_ratio",
        _ratio(totals["copies_dropped"], totals["copies_created"]), "ratio")
    put("cluster.journal.records", c["cluster.journal.records"], "count")
    put("cluster.journal.bytes", run.journal_bytes, "bytes")
    replays = summary.get("cluster.journal.replay", {"calls": 0})["calls"]
    applies = summary.get("cluster.journal.record_apply", {"calls": 0})["calls"]
    put("cluster.journal.replays_per_apply", _ratio(replays, applies), "ratio")
    put("cluster.router.plan_yield",
        _ratio(c["cluster.router.plan_moves_real"],
               c["cluster.router.plan_candidates"]), "ratio")
    put("cluster.persistence.manifest_bytes", run.manifest_bytes, "bytes")
    put("cluster.failover.reads", c["cluster.failover.reads"], "count")
    put("cluster.failover.retries", c["cluster.failover.retries"], "count")
    put("cluster.failover.attempts_per_read",
        _ratio(c["cluster.route.attempts"], c["cluster.route.calls"]), "ratio")
    put("trace.coverage",
        _ratio(covered_seconds(rec, run.round_windows), run.timed_wall_s), "ratio")
    put("trace.overhead", _ratio(run.timed_wall_s, untraced_wall_s), "ratio")
    return metrics, summary


def render(workload: str, summary: dict[str, dict], metrics: dict,
           timed_wall_s: float, untraced_wall_s: float) -> str:
    """The per-layer table, the layer counts and the tracing overhead."""
    lines = [render_table(workload, summary, timed_wall_s), ""]
    for name, m in metrics.items():
        if not name.endswith((".calls", ".self_s")):
            lines.append(f"{name:44s} {m['value']:>14.6g} {m['unit']}")
    lines.append(
        f"timed wall: traced {timed_wall_s:.3f} s, untraced "
        f"{untraced_wall_s:.3f} s (same seed)"
    )
    return "\n".join(lines)
