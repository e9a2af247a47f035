"""Cluster persistence: manifest round-trip, crash resume, CLI verbs.

The pledges under test:

* a manifest restores the cluster bit-exactly (logical block layout,
  routing, namespace) on every registered router backend;
* ``resume_cluster`` lands on the exact same layout as an uncrashed run
  no matter where in the rebalance the crash happened — including the
  composition with a shard's own scaling journal;
* the cluster fsck aggregates per-shard ``in_flight`` classification
  for shards mid-scale;
* the ``scaddar cluster`` CLI verbs drive the same machinery.
"""

from __future__ import annotations

import gc
import json
import os
import random
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import repro
from repro.cluster import (
    ClusterCoordinator,
    ClusterJournal,
    check_cluster,
    cluster_to_json,
    restore_cluster,
    resume_cluster,
    snapshot_cluster,
)
from repro.core.operations import ScalingOp
from repro.placement.backends import BACKENDS
from repro.server.cmserver import OperationInFlightError
from repro.server.journal import JournalError, ScalingJournal
from repro.server.persistence import SnapshotError
from repro.storage.disk import DiskSpec

SPEC = DiskSpec(capacity_blocks=50_000, bandwidth_blocks_per_round=8)


def build_cluster(
    num_shards: int = 3,
    num_objects: int = 14,
    router_backend: str = "jump_hash",
    **kwargs,
) -> ClusterCoordinator:
    coordinator = ClusterCoordinator.create(
        num_shards, 3, SPEC, bits=32, master_seed=0xFEED,
        router_backend=router_backend, **kwargs,
    )
    for i in range(num_objects):
        coordinator.add_object(f"title-{i}", 30 + i)
    return coordinator


def cluster_layout(coordinator: ClusterCoordinator) -> dict:
    layout = {}
    for gid in coordinator.object_ids:
        shard_id, physicals = coordinator.block_locations(gid)
        array = coordinator.shard(shard_id).server.array
        layout[gid] = (
            shard_id,
            tuple(array.logical_of(pid) for pid in physicals),
        )
    return layout


class TestManifestRoundTrip:
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_round_trip_every_router_backend(self, backend):
        coordinator = build_cluster(router_backend=backend)
        restored = restore_cluster(snapshot_cluster(coordinator))
        assert restored.shard_ids == coordinator.shard_ids
        assert restored.object_ids == coordinator.object_ids
        assert cluster_layout(restored) == cluster_layout(coordinator)
        assert check_cluster(restored).clean
        # The restored namespace keeps allocating where it left off.
        gid = restored.add_object("fresh", 10)
        assert gid == coordinator.num_objects

    def test_round_trip_after_reshard(self):
        coordinator = build_cluster()
        coordinator.reshard(ScalingOp.add(2))
        restored = restore_cluster(cluster_to_json(coordinator))
        assert cluster_layout(restored) == cluster_layout(coordinator)
        assert restored._next_shard_id == coordinator._next_shard_id

    def test_manifest_bytes_independent_of_directory(self, tmp_path):
        # Same seed, same operations, journals in different directories:
        # the manifest records the journal's file name, not its path.
        texts = []
        for directory in (tmp_path / "a", tmp_path / "some" / "deeper"):
            directory.mkdir(parents=True)
            coordinator = build_cluster(
                journal=ClusterJournal(directory / "cluster.journal")
            )
            try:
                coordinator.reshard(ScalingOp.add(1))
                texts.append(cluster_to_json(coordinator))
            finally:
                coordinator.close()
        assert texts[0] == texts[1]
        assert json.loads(texts[0])["journal_file"] == "cluster.journal"

    def test_snapshot_refused_mid_rebalance(self):
        coordinator = build_cluster()
        pending = coordinator.begin_reshard(ScalingOp.add(1))
        with pytest.raises(OperationInFlightError):
            snapshot_cluster(coordinator)
        coordinator.execute_reshard(pending)
        coordinator.finish_reshard(pending)
        snapshot_cluster(coordinator)

    def test_version_check(self):
        manifest = snapshot_cluster(build_cluster(num_objects=2))
        manifest["version"] = 99
        with pytest.raises(SnapshotError):
            restore_cluster(manifest)

    def test_object_entry_must_match_shard_catalog(self):
        manifest = snapshot_cluster(build_cluster(num_objects=4))
        manifest["objects"][0]["name"] = "imposter"
        with pytest.raises(SnapshotError):
            restore_cluster(manifest)

    def test_missing_local_id_detected(self):
        manifest = snapshot_cluster(build_cluster(num_objects=4))
        manifest["objects"][0]["local_id"] = 777
        with pytest.raises(SnapshotError):
            restore_cluster(manifest)

    def test_next_local_id_survives_newest_removal(self):
        coordinator = build_cluster(num_objects=6)
        # Drop the newest object of some shard: max(ids)+1 would now
        # undercount, next_local_id must not.
        newest = max(
            coordinator.object_ids, key=lambda g: coordinator.local_id_of(g)
        )
        shard_id = coordinator.shard_of(newest)
        allocator = coordinator.shard(shard_id).server.catalog._next_id
        coordinator.remove_object(newest)
        restored = restore_cluster(snapshot_cluster(coordinator))
        assert (
            restored.shard(shard_id).server.catalog._next_id == allocator
        )


class TestResume:
    def _manifest_and_journal(self, tmp_path, num_objects=14):
        path = str(tmp_path / "cluster.journal")
        coordinator = build_cluster(
            num_objects=num_objects, journal=ClusterJournal(path)
        )
        manifest = snapshot_cluster(coordinator)
        return coordinator, manifest, path

    def test_resume_at_every_move_index(self, tmp_path):
        coordinator, manifest, path = self._manifest_and_journal(tmp_path)
        pending = coordinator.begin_reshard(ScalingOp.add(2))
        coordinator.execute_reshard(pending)
        coordinator.finish_reshard(pending)
        expected = cluster_layout(coordinator)
        coordinator.journal.close()
        lines = Path(path).read_text(encoding="utf-8").splitlines(keepends=True)
        begin = [l for l in lines if json.loads(l)["type"] == "begin"]
        applies = [l for l in lines if json.loads(l)["type"] == "apply"]
        assert len(applies) == len(pending.moves) >= 3

        for crash_at in range(len(applies) + 1):
            partial = tmp_path / f"crash-{crash_at}.journal"
            partial.write_text(
                "".join(begin + applies[:crash_at]), encoding="utf-8"
            )
            resumed, open_pending = resume_cluster(
                dict(manifest), str(partial)
            )
            assert open_pending is not None
            assert len(open_pending.applied) == crash_at
            assert check_cluster(resumed, open_pending).clean
            resumed.execute_reshard(open_pending)
            resumed.finish_reshard(open_pending)
            assert cluster_layout(resumed) == expected
            resumed.journal.close()

    def test_torn_apply_resume_finish_resume(self, tmp_path):
        """A crash that tears an apply record: resume and finish, then
        resume again from the same journal.  The first resume's records
        must start on a fresh line, not be glued onto the fragment."""
        coordinator, manifest, path = self._manifest_and_journal(tmp_path)
        pending = coordinator.begin_reshard(ScalingOp.add(2))
        coordinator.execute_reshard(pending)
        coordinator.finish_reshard(pending)
        expected = cluster_layout(coordinator)
        coordinator.journal.close()
        lines = Path(path).read_text(encoding="utf-8").splitlines(keepends=True)
        begin = [line for line in lines if json.loads(line)["type"] == "begin"]
        applies = [
            line for line in lines if json.loads(line)["type"] == "apply"
        ]

        for crash_at in range(len(applies)):
            torn = tmp_path / f"torn-{crash_at}.journal"
            fragment = applies[crash_at][: len(applies[crash_at]) // 2]
            torn.write_text(
                "".join(begin + applies[:crash_at]) + fragment,
                encoding="utf-8",
            )
            resumed, open_pending = resume_cluster(dict(manifest), str(torn))
            assert len(open_pending.applied) == crash_at
            resumed.execute_reshard(open_pending)
            resumed.finish_reshard(open_pending)
            resumed.journal.close()

            again, still_open = resume_cluster(dict(manifest), str(torn))
            assert still_open is None, f"crash_at={crash_at}"
            assert cluster_layout(again) == expected, f"crash_at={crash_at}"
            assert check_cluster(again).clean

    def test_resume_committed_journal_is_quiescent(self, tmp_path):
        coordinator, manifest, path = self._manifest_and_journal(tmp_path)
        coordinator.reshard(ScalingOp.add(1))
        expected = cluster_layout(coordinator)
        coordinator.journal.close()
        resumed, pending = resume_cluster(manifest, path)
        assert pending is None
        assert cluster_layout(resumed) == expected

    def test_resume_skips_aborted_records(self, tmp_path):
        coordinator, manifest, path = self._manifest_and_journal(tmp_path)
        aborted = coordinator.begin_reshard(ScalingOp.add(1))
        coordinator.migrate_next(aborted)
        coordinator.abort_reshard(aborted)
        committed = coordinator.reshard(ScalingOp.add(1))
        coordinator.journal.close()
        resumed, pending = resume_cluster(manifest, path)
        assert pending is None
        # The aborted op never spawned a shard on resume, yet ids match.
        assert resumed._next_shard_id == coordinator._next_shard_id
        assert resumed.shard_ids == coordinator.shard_ids
        # Abort rolled the router back, so the committed op reused the seq.
        assert committed.seq == aborted.seq
        assert cluster_layout(resumed) == cluster_layout(coordinator)

    def test_resume_rejects_foreign_plan(self, tmp_path):
        coordinator, manifest, path = self._manifest_and_journal(tmp_path)
        pending = coordinator.begin_reshard(ScalingOp.add(1))
        coordinator.execute_reshard(pending)
        coordinator.finish_reshard(pending)
        coordinator.journal.close()
        # Tamper with the journaled plan: resume must notice the
        # re-derived plan disagrees.
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        entries = [json.loads(line) for line in lines]
        for entry in entries:
            if entry["type"] == "begin" and entry["plan"]:
                entry["plan"][0][0] += 1000
        tampered = tmp_path / "tampered.journal"
        tampered.write_text(
            "".join(json.dumps(e) + "\n" for e in entries), encoding="utf-8"
        )
        with pytest.raises(JournalError):
            resume_cluster(manifest, str(tampered))

    def test_resume_rejects_seq_gap(self, tmp_path):
        coordinator, manifest, path = self._manifest_and_journal(tmp_path)
        coordinator.reshard(ScalingOp.add(1))
        coordinator.journal.close()
        entries = [
            json.loads(line)
            for line in Path(path).read_text(encoding="utf-8").splitlines()
        ]
        for entry in entries:
            entry["seq"] += 5
        gapped = tmp_path / "gapped.journal"
        gapped.write_text(
            "".join(json.dumps(e) + "\n" for e in entries), encoding="utf-8"
        )
        with pytest.raises(JournalError):
            resume_cluster(manifest, str(gapped))

    def test_resume_composes_with_shard_journal(self, tmp_path):
        """A shard crash mid-disk-scale resumes through its own journal
        before the cluster journal replays on top."""
        cluster_path = str(tmp_path / "cluster.journal")
        shard_path = str(tmp_path / "shard0.journal")
        coordinator = build_cluster(journal=ClusterJournal(cluster_path))
        shard = coordinator.shards[0]
        shard.server.attach_journal(ScalingJournal(shard_path))
        manifest = snapshot_cluster(coordinator)
        disks_before = shard.server.num_disks

        # The shard begins a disk-level scale... and the process dies.
        shard.server.begin_scale(ScalingOp.add(1))
        shard.server.journal.close()

        resumed, pending = resume_cluster(
            manifest, cluster_path, shard_journals={0: shard_path}
        )
        resumed.close()
        assert pending is None
        # The open disk-level op was completed synchronously.
        assert resumed.shard(0).server.num_disks == disks_before + 1
        assert check_cluster(resumed).clean

    def test_close_releases_every_journal_of_a_resumed_cluster(self, tmp_path):
        """A cluster resumed from files holds journals it opened from
        paths; ``close()`` releases all of them, a draining shard's
        included, and a second call does nothing."""
        manifest_path = tmp_path / "manifest.json"
        cluster_path = str(tmp_path / "cluster.journal")
        coordinator = build_cluster(journal=ClusterJournal(cluster_path))
        shard_paths = {}
        for shard in coordinator.shards:
            shard_paths[shard.shard_id] = str(
                tmp_path / f"shard{shard.shard_id}.journal"
            )
            shard.server.attach_journal(
                ScalingJournal(shard_paths[shard.shard_id])
            )
        manifest_path.write_text(cluster_to_json(coordinator))
        last = coordinator.shards[-1]
        # The last shard begins a disk-level scale... and the process dies.
        last.server.begin_scale(ScalingOp.add(1))
        coordinator.close()
        # Collect what earlier tests left in reference cycles first: a
        # file they never closed must not be counted against this cluster.
        gc.collect()

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            resumed, pending = resume_cluster(
                manifest_path.read_text(),
                cluster_path,
                shard_journals=shard_paths,
            )
            assert pending is None
            # Completing the open scale wrote to the last shard's journal;
            # now drain that shard and land one move of the rebalance.
            pending = resumed.begin_reshard(
                ScalingOp.remove([resumed.num_shards - 1])
            )
            resumed.migrate_next(pending)
            assert last.shard_id not in resumed.shard_ids
            resumed.close()
            resumed.close()
            del resumed, pending
            gc.collect()
        assert not [w for w in caught if w.category is ResourceWarning]
        record = ClusterJournal(cluster_path).open_record()
        assert record is not None and len(record.applied) == 1


#: The crashing process: builds the seeded cluster, writes its manifest,
#: runs a file-backed fsync'd rebalance and SIGKILLs itself after
#: ``kill_after`` applies.  argv: tests dir, work dir, kill_after.
CRASH_CHILD = """
import os, signal, sys
sys.path.insert(0, sys.argv[1])
from test_cluster_persistence import build_cluster
from repro.cluster import ClusterJournal, cluster_to_json
from repro.core.operations import ScalingOp

workdir, kill_after = sys.argv[2], int(sys.argv[3])
journal = ClusterJournal(os.path.join(workdir, "cluster.journal"), fsync=True)
coordinator = build_cluster(journal=journal)
with open(os.path.join(workdir, "manifest.json"), "w") as handle:
    handle.write(cluster_to_json(coordinator))
pending = coordinator.begin_reshard(ScalingOp.add(2))
for _ in range(kill_after):
    coordinator.migrate_next(pending)
os.kill(os.getpid(), signal.SIGKILL)
"""


class TestProcessCrash:
    @pytest.mark.skipif(
        not hasattr(signal, "SIGKILL"), reason="needs SIGKILL"
    )
    def test_resume_after_sigkill_mid_rebalance(self, tmp_path):
        """A real process dies mid-rebalance; this process, which never
        held that cluster, resumes from the manifest and the journal to
        the uncrashed twin's layout."""
        twin = build_cluster()
        pending = twin.begin_reshard(ScalingOp.add(2))
        twin.execute_reshard(pending)
        twin.finish_reshard(pending)
        kill_after = random.Random(0x5EED).randrange(1, len(pending.moves))

        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        child = subprocess.run(
            [
                sys.executable, "-c", CRASH_CHILD,
                str(Path(__file__).resolve().parent), str(tmp_path),
                str(kill_after),
            ],
            env=env, capture_output=True, timeout=180,
        )
        assert child.returncode == -signal.SIGKILL, child.stderr.decode()

        manifest = json.loads((tmp_path / "manifest.json").read_text())
        resumed, open_pending = resume_cluster(
            manifest, str(tmp_path / "cluster.journal")
        )
        assert open_pending is not None
        assert len(open_pending.applied) == kill_after
        resumed.execute_reshard(open_pending)
        resumed.finish_reshard(open_pending)
        resumed.journal.close()
        assert cluster_layout(resumed) == cluster_layout(twin)
        assert check_cluster(resumed).clean


class TestFsckAggregation:
    def test_shard_in_flight_aggregates(self):
        coordinator = build_cluster()
        shard = coordinator.shards[0]
        pending = shard.server.begin_scale(ScalingOp.add(1))
        report = check_cluster(
            coordinator, shard_pending={shard.shard_id: pending}
        )
        assert report.clean
        assert report.shard_in_flight == len(pending.plan)
        assert report.shard_reports[shard.shard_id].in_flight
        # Without the pending op the same state is a violation.
        dirty = check_cluster(coordinator)
        assert not dirty.clean
        shard.server.abort_scale(pending)

    def test_blocks_checked_sums_all_shards(self):
        coordinator = build_cluster()
        report = check_cluster(coordinator)
        assert report.blocks_checked == coordinator.total_blocks
        assert report.objects_checked == coordinator.num_objects


class TestClusterCLI:
    def run_cli(self, *argv):
        from repro.cli import main

        return main(["cluster", *map(str, argv)])

    def test_create_status_reshard_fsck_resume_metrics(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        journal = tmp_path / "c.journal"
        assert self.run_cli(
            "create", "--manifest", manifest, "--journal", journal,
            "--shards", 3, "--objects", 8, "--blocks-per-object", 20,
            "--seed", "0xBEEF",
        ) == 0
        assert manifest.exists()
        assert self.run_cli("status", "--manifest", manifest) == 0
        assert "objects=8" in capsys.readouterr().out
        assert self.run_cli(
            "reshard", "--manifest", manifest, "--journal", journal,
            "--add", 1,
        ) == 0
        assert self.run_cli(
            "fsck", "--manifest", manifest, "--journal", journal
        ) == 0
        assert "CLEAN" in capsys.readouterr().out
        assert self.run_cli(
            "resume", "--manifest", manifest, "--journal", journal
        ) == 0
        assert "quiescent" in capsys.readouterr().out
        assert self.run_cli("metrics", "--manifest", manifest) == 0
        data = json.loads(manifest.read_text())
        assert len(data["shards"]) == 4

    def test_create_with_copy_budget_attaches_policy(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        assert self.run_cli(
            "create", "--manifest", manifest,
            "--shards", 4, "--objects", 6, "--blocks-per-object", 20,
            "--domains", 2, "--copy-budget", 9,
        ) == 0
        assert "popularity: budget=9" in capsys.readouterr().out
        assert self.run_cli("status", "--manifest", manifest) == 0
        assert "budget=9 copies=6" in capsys.readouterr().out
        restored = restore_cluster(json.loads(manifest.read_text()))
        assert restored.replication.policy is not None
        assert restored.replication.policy.copy_budget == 9

    def test_resume_completes_crashed_reshard(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        journal = tmp_path / "c.journal"
        self.run_cli(
            "create", "--manifest", manifest, "--journal", journal,
            "--shards", 3, "--objects", 10, "--blocks-per-object", 20,
        )
        capsys.readouterr()
        # Crash a rebalance by hand: begin + one apply, no commit.
        coordinator = restore_cluster(
            json.loads(manifest.read_text()),
            journal=ClusterJournal(str(journal)),
        )
        pending = coordinator.begin_reshard(ScalingOp.add(1))
        coordinator.migrate_next(pending)
        coordinator.journal.close()

        assert self.run_cli(
            "resume", "--manifest", manifest, "--journal", journal
        ) == 0
        out = capsys.readouterr().out
        assert "resumed" in out
        data = json.loads(manifest.read_text())
        assert len(data["shards"]) == 4
        assert self.run_cli(
            "fsck", "--manifest", manifest, "--journal", journal
        ) == 0

    def test_status_and_fsck_only_read_a_torn_journal(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        journal = tmp_path / "c.journal"
        self.run_cli(
            "create", "--manifest", manifest, "--journal", journal,
            "--shards", 3, "--objects", 10, "--blocks-per-object", 20,
        )
        coordinator = restore_cluster(
            json.loads(manifest.read_text()),
            journal=ClusterJournal(str(journal)),
        )
        pending = coordinator.begin_reshard(ScalingOp.add(1))
        coordinator.migrate_next(pending)
        coordinator.journal.close()
        with open(journal, "a", encoding="utf-8") as handle:
            handle.write('{"type":"apply","se')  # the crash tore it
        torn = journal.read_bytes()

        for verb in ("status", "fsck"):
            assert self.run_cli(
                verb, "--manifest", manifest, "--journal", journal
            ) == 2
            assert journal.read_bytes() == torn
        assert self.run_cli(
            "resume", "--manifest", manifest, "--journal", journal
        ) == 0
        assert "resumed" in capsys.readouterr().out
        types = [json.loads(line)["type"] for line in
                 journal.read_text(encoding="utf-8").splitlines()]
        assert types[:2] == ["begin", "apply"] and types[-1] == "commit"


def build_ha_cluster(num_objects: int = 10, **kwargs) -> ClusterCoordinator:
    coordinator = ClusterCoordinator.create(
        4, 3, SPEC, bits=32, master_seed=0xFEED,
        router_backend="consistent_hash",
        replication_factor=2, num_domains=2, **kwargs,
    )
    for i in range(num_objects):
        coordinator.add_object(f"title-{i}", 30 + i)
    return coordinator


class TestReplicationPersistence:
    """Manifest v2: the replication envelope (factor, domains, replica
    map, dead shards) round-trips, and v1 manifests still read."""

    def test_v2_round_trip_replica_map(self):
        coordinator = build_ha_cluster()
        manifest = snapshot_cluster(coordinator)
        assert manifest["version"] == 3
        assert manifest["replication_factor"] == 2
        assert manifest["num_domains"] == 2
        assert manifest["dead_shards"] == []
        restored = restore_cluster(manifest)
        assert restored._replica_home == coordinator._replica_home
        assert restored._replica_local == coordinator._replica_local
        assert {s.shard_id: s.domain for s in restored.shards} == {
            s.shard_id: s.domain for s in coordinator.shards
        }
        report = check_cluster(restored)
        assert report.clean and report.fully_replicated

    def test_v2_round_trip_with_dead_shard(self):
        from repro.cluster import ShardHealth

        coordinator = build_ha_cluster()
        coordinator.kill_shard(1)
        manifest = snapshot_cluster(coordinator)
        assert manifest["dead_shards"] == [1]
        restored = restore_cluster(manifest)
        assert restored.health.state(1) is ShardHealth.DEAD
        # Degradation is preserved: the dead copy-holder explains every
        # shortfall, and the rebuild path is open.
        report = check_cluster(restored)
        assert report.clean
        assert len(report.degraded) == len(check_cluster(coordinator).degraded)
        restored.rebuild_shard(1)
        assert check_cluster(restored).fully_replicated

    def test_v1_manifest_still_readable(self):
        coordinator = build_cluster()  # factor 1: exactly what v1 wrote
        manifest = snapshot_cluster(coordinator)
        manifest["version"] = 1
        for key in ("replication_factor", "num_domains", "dead_shards",
                    "replicas"):
            manifest.pop(key)
        for entry in manifest["shards"]:
            entry.pop("domain")
        restored = restore_cluster(manifest)
        assert restored.replication_factor == 1
        assert restored._replica_home == {}
        assert cluster_layout(restored) == cluster_layout(coordinator)
        assert check_cluster(restored).clean

    def test_replica_record_must_match_catalog(self):
        coordinator = build_ha_cluster()
        manifest = snapshot_cluster(coordinator)
        manifest["replicas"][0]["copies"][0][1] = 9999  # bogus local id
        with pytest.raises(SnapshotError):
            restore_cluster(manifest)

    def test_snapshot_refused_mid_rebuild(self):
        coordinator = build_ha_cluster()
        coordinator.kill_shard(1)
        rebuilder = coordinator.begin_shard_rebuild(1)
        with pytest.raises(OperationInFlightError):
            snapshot_cluster(coordinator)
        rebuilder.run()
        rebuilder.finish()
        snapshot_cluster(coordinator)  # clean again


class TestRebuildResume:
    def test_rebuild_resume_at_every_move_index(self, tmp_path):
        """A crash anywhere inside a shard rebuild resumes to the exact
        layout and replica map of the uncrashed run."""
        path = str(tmp_path / "cluster.journal")
        coordinator = build_ha_cluster(journal=ClusterJournal(path))
        manifest = snapshot_cluster(coordinator)
        victim = coordinator.shard_of(0)
        coordinator.kill_shard(victim)
        rebuilder = coordinator.begin_shard_rebuild(victim)
        rebuilder.run()
        rebuilder.finish()
        expected_layout = cluster_layout(coordinator)
        expected_replicas = dict(coordinator._replica_home)
        coordinator.journal.close()

        lines = Path(path).read_text(encoding="utf-8").splitlines(keepends=True)
        begin = [l for l in lines if json.loads(l)["type"] == "begin"]
        applies = [l for l in lines if json.loads(l)["type"] == "apply"]
        assert json.loads(begin[0])["rebuild_of"] == victim
        assert len(applies) >= 2

        from repro.cluster import ShardHealth

        for crash_at in range(len(applies) + 1):
            partial = tmp_path / f"crash-{crash_at}.journal"
            partial.write_text(
                "".join(begin + applies[:crash_at]), encoding="utf-8"
            )
            resumed, open_pending = resume_cluster(
                dict(manifest), str(partial)
            )
            assert open_pending is not None
            assert open_pending.rebuild_of == victim
            assert len(open_pending.applied) == crash_at
            # The journal's rebuild record re-marked the shard dead even
            # though the manifest predates the death.
            assert resumed.health.state(victim) is ShardHealth.REBUILDING
            resumed.execute_reshard(open_pending)
            resumed.finish_reshard(open_pending)
            assert cluster_layout(resumed) == expected_layout
            assert resumed._replica_home == expected_replicas
            report = check_cluster(resumed)
            assert report.clean and report.fully_replicated
            resumed.journal.close()

    def test_resume_aborted_rebuild_keeps_shard_dead(self, tmp_path):
        from repro.cluster import ShardHealth

        path = str(tmp_path / "cluster.journal")
        coordinator = build_ha_cluster(journal=ClusterJournal(path))
        manifest = snapshot_cluster(coordinator)
        victim = coordinator.shard_of(0)
        coordinator.kill_shard(victim)
        rebuilder = coordinator.begin_shard_rebuild(victim, rate_per_round=1)
        rebuilder.step()
        coordinator.abort_reshard(rebuilder.pending)
        coordinator.journal.close()
        resumed, pending = resume_cluster(manifest, path)
        assert pending is None
        # The death outlives the aborted rebuild: the shard must not
        # silently return to service on restart.
        assert resumed.health.state(victim) is ShardHealth.DEAD
        assert check_cluster(resumed).clean
        resumed.rebuild_shard(victim)
        resumed.journal.close()
        assert check_cluster(resumed).fully_replicated
