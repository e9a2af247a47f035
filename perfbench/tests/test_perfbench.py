"""Tests of the benchmark itself (tiny sizes; run with
``PYTHONPATH=src python -m pytest perfbench/tests``)."""

from __future__ import annotations

import json
import weakref

import pytest

from perfbench import lifecycle, run as entry, trace
from perfbench.lifecycle import TINY, WORKLOADS, CheckFailed, Run

ROUNDS = 40


def tiny_run(workload: str, tmp_path, seed: int = 7, recorder=None) -> Run:
    run = Run(workload, seed, 0, str(tmp_path), sizing=TINY[workload],
              recorder=recorder, rounds=ROUNDS)
    run.run()
    return run


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_passes_its_checks(workload, tmp_path):
    run = tiny_run(workload, tmp_path)
    attempted, failed, breakdown = run.accounting()
    metrics = run.end_to_end(peak_rss_mb=1.0)
    assert run.checks > ROUNDS
    assert len(run.round_s) >= ROUNDS
    assert attempted > 0 and failed == 0, breakdown
    assert all(value > 0 for value, _ in metrics.values()), metrics
    assert metrics["moved_ratio"][0] >= 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly_for_a_seed(workload, tmp_path):
    def counts(sub: str):
        rec = trace.SpanRecorder()
        path = tmp_path / sub
        path.mkdir()
        with trace.instrument(rec):
            run = tiny_run(workload, path, recorder=rec)
        layers, _ = trace.layer_metrics(run, rec, untraced_wall_s=1.0)
        e2e = run.end_to_end(peak_rss_mb=1.0)
        return (
            run.accounting(),
            e2e["availability"][0],
            e2e["moved_ratio"][0],
            {k: m["value"] for k, m in layers.items()
             if m["unit"] in ("count", "bytes")},
        )

    assert counts("a") == counts("b")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_recovery_starts_with_no_other_cluster_alive(workload, tmp_path, monkeypatch):
    # peak_rss_mb must be the program's own peak: the serving cluster and
    # every discarded recovery are released before the next recovery.
    released = []
    retire, recover = Run.retire, Run.recover

    def tracking_retire(self, counters):
        released.append(weakref.ref(self.cluster))
        retire(self, counters)

    def checking_recover(self, *args, **kwargs):
        assert [ref for ref in released if ref() is not None] == []
        result, elapsed = recover(self, *args, **kwargs)
        released.append(weakref.ref(result[0]))
        return result, elapsed

    monkeypatch.setattr(Run, "retire", tracking_retire)
    monkeypatch.setattr(Run, "recover", checking_recover)
    run = tiny_run(workload, tmp_path)
    assert run.restarts >= 1
    assert len(released) == run.restarts + len(run.recover_s)


def test_a_second_seed_passes(tmp_path):
    run = tiny_run("shard-failure", tmp_path, seed=12345)
    assert run.accounting()[1] == 0


def test_self_times_on_a_synthetic_tree():
    # 0: [0, 10]  children 1: [1, 4] and 2: [3, 6] overlap -> cover [1, 6]
    # 1: [1, 4]   child 3: [2, 3]
    # 2: [3, 6]   no children
    # 4: [8, 12]  child of 0 running past its end: clipped to [8, 10]
    starts = [0.0, 1.0, 3.0, 2.0, 8.0]
    ends = [10.0, 4.0, 6.0, 3.0, 12.0]
    parents = [-1, 0, 0, 1, 0]
    assert trace.self_times(starts, ends, parents) == pytest.approx(
        [10 - 5 - 2, 3 - 1, 3, 1, 4]
    )


def test_instrument_restores_the_program():
    from repro.cluster.coordinator import ClusterCoordinator
    from repro.server import scheduler

    before = (ClusterCoordinator.run_round, scheduler.gather_round_demand)
    with trace.instrument(trace.SpanRecorder()):
        assert ClusterCoordinator.run_round is not before[0]
        assert scheduler.gather_round_demand is not before[1]
    assert (ClusterCoordinator.run_round, scheduler.gather_round_demand) == before


def _misplace_one_block(cluster) -> None:
    """Move one block of the last shard to a disk AF() does not compute
    (vod-zipf's first window scales shard 0 and then audits the whole
    cluster, before any disk operation can relocate the block)."""
    array = cluster.shards[-1].server.array
    source = array.physical_ids[0]
    block = next(iter(array.blocks_on_physical(source)))
    assert array.move(block.block_id, array.physical_ids[1])


def test_checks_trip_on_a_block_on_the_wrong_disk(tmp_path):
    run = Run("vod-zipf", 7, 0, str(tmp_path), sizing=TINY["vod-zipf"],
              rounds=ROUNDS)
    run.setup()
    _misplace_one_block(run.cluster)
    with pytest.raises(CheckFailed, match="check_cluster"):
        run.audit(run.cluster, False, "corruption")


def test_a_failed_check_exits_nonzero_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(lifecycle, "SIZES", TINY)
    original_setup = Run.setup

    def corrupting_setup(self):
        original_setup(self)
        _misplace_one_block(self.cluster)

    monkeypatch.setattr(Run, "setup", corrupting_setup)
    code = entry.main(["--workload", "vod-zipf", "--seed", "3",
                       "--seconds", "1", "--trace", "0"])
    out = capsys.readouterr()
    assert code == 1
    assert "correctness check failed" in out.err
    for line in out.out.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
