"""The shared journal core, driven through both layers' journals.

Both layers journal through one implementation (:mod:`repro.journal`),
so every property here runs once per layer:

* the file format — text written before the core existed replays to
  equal records, and journals written today are byte-identical to it;
* the torn final line — dropped on open, cut off the file before the
  next append (the append starts on a fresh line), and left in place
  by a journal that is only read;
* the protocol is checked when a record is written;
* fsyncs are timed under the layer's metric prefix;
* replayed records are copies the caller may mutate;
* appends are O(1): counted with ``json.loads`` and the codec patched,
  never timed.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.cluster.journal import ClusterJournal, ObjectMove, ReshardRecord
from repro.core.operations import ScalingOp
from repro.journal import JournalError
from repro.obs import Obs
from repro.server.journal import (
    LogicalMove,
    OpJournalRecord,
    ReshuffleOp,
    ScalingJournal,
)
from repro.storage.block import BlockId

# Written by the two journal modules as they stood before the core:
# a committed operation, an aborted one, and an open one with applies.
SERVER_TEXT = (
    '{"type":"begin","seq":1,"op":{"kind":"add","count":1},"n_before":4,'
    '"n_after":5,"plan":[[0,1,0,4],[2,7,3,4]]}\n'
    '{"type":"apply","seq":1,"block":[0,1]}\n'
    '{"type":"apply","seq":1,"block":[2,7]}\n'
    '{"type":"commit","seq":1}\n'
    '{"type":"begin","seq":2,"op":{"kind":"remove","removed":[1,3]},'
    '"n_before":5,"n_after":3,"plan":[[1,0,1,0]]}\n'
    '{"type":"apply","seq":2,"block":[1,0]}\n'
    '{"type":"abort","seq":2}\n'
    '{"type":"begin","seq":1,"op":{"kind":"reshuffle","epoch":1},'
    '"n_before":5,"n_after":5,"plan":[[0,0,2,1],[3,5,0,4]]}\n'
    '{"type":"apply","seq":1,"block":[3,5]}\n'
)
SERVER_RECORDS = [
    OpJournalRecord(
        seq=1, op=ScalingOp.add(1), n_before=4, n_after=5,
        plan=(
            LogicalMove(BlockId(0, 1), 0, 4),
            LogicalMove(BlockId(2, 7), 3, 4),
        ),
        applied=[BlockId(0, 1), BlockId(2, 7)], committed=True,
    ),
    OpJournalRecord(
        seq=2, op=ScalingOp.remove([1, 3]), n_before=5, n_after=3,
        plan=(LogicalMove(BlockId(1, 0), 1, 0),),
        applied=[BlockId(1, 0)], aborted=True,
    ),
    OpJournalRecord(
        seq=1, op=ReshuffleOp(epoch=1), n_before=5, n_after=5,
        plan=(
            LogicalMove(BlockId(0, 0), 2, 1),
            LogicalMove(BlockId(3, 5), 0, 4),
        ),
        applied=[BlockId(3, 5)],
    ),
]

# The same three states one level up, with and without ``rebuild_of``.
CLUSTER_TEXT = (
    '{"type":"begin","seq":1,"op":{"kind":"add","count":2},'
    '"shards_before":3,"shards_after":5,"new_shard_ids":[3,4],'
    '"plan":[[5,0,3],[9,2,4]]}\n'
    '{"type":"apply","seq":1,"object":5}\n'
    '{"type":"apply","seq":1,"object":9}\n'
    '{"type":"commit","seq":1}\n'
    '{"type":"begin","seq":2,"op":{"kind":"remove","removed":[1]},'
    '"shards_before":5,"shards_after":4,"new_shard_ids":[],'
    '"plan":[[2,1,0]],"rebuild_of":1}\n'
    '{"type":"abort","seq":2}\n'
    '{"type":"begin","seq":2,"op":{"kind":"remove","removed":[1]},'
    '"shards_before":5,"shards_after":4,"new_shard_ids":[],'
    '"plan":[[2,1,0],[7,1,4]],"rebuild_of":1}\n'
    '{"type":"apply","seq":2,"object":7}\n'
)
CLUSTER_RECORDS = [
    ReshardRecord(
        seq=1, op=ScalingOp.add(2), shards_before=3, shards_after=5,
        new_shard_ids=(3, 4),
        plan=(ObjectMove(5, 0, 3), ObjectMove(9, 2, 4)),
        applied=[5, 9], committed=True,
    ),
    ReshardRecord(
        seq=2, op=ScalingOp.remove([1]), shards_before=5, shards_after=4,
        new_shard_ids=(), plan=(ObjectMove(2, 1, 0),), aborted=True,
        rebuild_of=1,
    ),
    ReshardRecord(
        seq=2, op=ScalingOp.remove([1]), shards_before=5, shards_after=4,
        new_shard_ids=(), plan=(ObjectMove(2, 1, 0), ObjectMove(7, 1, 4)),
        applied=[7], rebuild_of=1,
    ),
]


def begin_server(journal, record):
    journal.record_begin(
        record.seq, record.op, record.n_before, record.n_after, record.plan
    )


def begin_cluster(journal, record):
    journal.record_begin(
        seq=record.seq, op=record.op, shards_before=record.shards_before,
        shards_after=record.shards_after,
        new_shard_ids=record.new_shard_ids, moves=record.plan,
        rebuild_of=record.rebuild_of,
    )


class Layer:
    def __init__(self, cls, text, records, begin, item):
        self.cls, self.text, self.records = cls, text, records
        self.begin, self.item = begin, item

    def write(self, journal, records=None):
        """Journal ``records`` through the public API."""
        for record in self.records if records is None else records:
            self.begin(journal, record)
            for applied in record.applied:
                journal.record_apply(record.seq, applied)
            if record.committed:
                journal.record_commit(record.seq)
            if record.aborted:
                journal.record_abort(record.seq)


SERVER = Layer(ScalingJournal, SERVER_TEXT, SERVER_RECORDS, begin_server,
               BlockId(0, 0))
CLUSTER = Layer(ClusterJournal, CLUSTER_TEXT, CLUSTER_RECORDS, begin_cluster,
                2)


@pytest.fixture(params=[SERVER, CLUSTER], ids=["server", "cluster"])
def layer(request) -> Layer:
    return request.param


class TestFormat:
    def test_old_journal_replays_to_equal_records(self, layer, tmp_path):
        path = tmp_path / "old.journal"
        path.write_text(layer.text, encoding="utf-8")
        journal = layer.cls(path)
        assert journal.replay() == layer.records
        assert journal.open_record() == layer.records[-1]

    def test_new_journal_is_byte_identical(self, layer, tmp_path):
        path = tmp_path / "new.journal"
        with layer.cls(path) as journal:
            layer.write(journal)
        assert path.read_bytes() == layer.text.encode("utf-8")
        in_memory = layer.cls()
        layer.write(in_memory)
        assert in_memory.replay() == layer.records


class TestTornTail:
    @pytest.mark.parametrize("fsync", [False, True])
    def test_torn_line_cut_before_next_append(self, layer, tmp_path, fsync):
        path = tmp_path / "torn.journal"
        torn = layer.text + '{"type":"apply","seq":'
        path.write_text(torn, encoding="utf-8")
        journal = layer.cls(path, fsync=fsync)
        assert journal.replay() == layer.records
        assert path.read_text(encoding="utf-8") == torn  # reading is free
        seq = layer.records[-1].seq
        journal.record_commit(seq)
        journal.close()
        commit = json.dumps({"type": "commit", "seq": seq},
                            separators=(",", ":"))
        assert path.read_text(encoding="utf-8") == layer.text + commit + "\n"
        assert layer.cls(path).replay()[-1].committed

    def test_complete_final_record_gets_its_newline(self, layer, tmp_path):
        path = tmp_path / "unterminated.journal"
        path.write_text(layer.text.rstrip("\n"), encoding="utf-8")
        journal = layer.cls(path)
        assert journal.replay() == layer.records  # kept, not torn
        journal.record_abort(layer.records[-1].seq)
        journal.close()
        abort = json.dumps({"type": "abort", "seq": layer.records[-1].seq},
                           separators=(",", ":"))
        assert path.read_text(encoding="utf-8") == layer.text + abort + "\n"

    def test_read_only_open_leaves_file_untouched(self, layer, tmp_path):
        path = tmp_path / "read.journal"
        torn = layer.text.rstrip("\n")[:-3]
        path.write_text(torn, encoding="utf-8")
        with layer.cls(path) as journal:
            journal.replay()
            journal.open_record()
        assert path.read_text(encoding="utf-8") == torn


class TestProtocol:
    def test_records_need_an_open_operation(self, layer):
        journal = layer.cls()
        with pytest.raises(JournalError):
            journal.record_apply(1, layer.item)
        layer.write(journal, layer.records[:1])  # committed
        with pytest.raises(JournalError):
            journal.record_commit(1)
        with pytest.raises(JournalError):
            journal.record_apply(1, layer.item)
        assert journal.replay() == layer.records[:1]


class TestIsolation:
    def test_callers_cannot_mutate_the_journal(self, layer):
        journal = layer.cls()
        layer.write(journal)
        replayed = journal.replay()
        replayed[-1].applied.append(layer.item)
        replayed[-1].committed = True
        in_flight = journal.open_record()
        in_flight.applied.clear()
        in_flight.aborted = True
        assert journal.replay() == layer.records
        assert journal.open_record() == layer.records[-1]


class TestObs:
    def test_fsync_timed_under_the_layer_prefix(self, layer, tmp_path):
        obs = Obs()
        journal = layer.cls(tmp_path / "obs.journal", fsync=True)
        journal.attach_obs(obs)
        layer.write(journal)
        journal.sync()
        journal.close()
        lines = len(layer.text.splitlines())
        prefix = layer.cls.METRICS
        assert prefix == {ScalingJournal: "journal",
                          ClusterJournal: "cluster.journal"}[layer.cls]
        histogram = obs.registry.histogram(f"{prefix}.fsync.seconds")
        assert histogram.count() == lines + 1
        assert obs.registry.counter(f"{prefix}.records").total == lines


class TestAppendCost:
    """O(1) appends, pinned by counts at n and 4n records."""

    @staticmethod
    def history(layer, ops: int) -> list:
        """``ops`` committed operations, one apply each, then the
        layer's open operation."""
        done = layer.records[0]
        return [
            replace(done, seq=1 + i, applied=done.applied[:1])
            for i in range(ops)
        ] + [layer.records[-1]]

    def test_file_open_parses_once_and_appends_parse_nothing(
        self, layer, tmp_path, monkeypatch
    ):
        loads = json.loads
        parsed = [0]

        def counting_loads(*args, **kwargs):
            parsed[0] += 1
            return loads(*args, **kwargs)

        for n in (50, 200):
            path = tmp_path / f"cost-{n}.journal"
            with layer.cls(path) as journal:
                layer.write(journal, self.history(layer, n))
            lines = len(path.read_text(encoding="utf-8").splitlines())
            monkeypatch.setattr(json, "loads", counting_loads)
            parsed[0] = 0
            journal = layer.cls(path)
            assert parsed[0] == lines  # each existing line, once
            parsed[0] = 0
            seq = layer.records[-1].seq
            for _ in range(n):
                journal.record_apply(seq, layer.item)
            journal.record_commit(seq)
            journal.close()
            assert parsed[0] == 0, f"appends parsed {parsed[0]} lines"
            monkeypatch.undo()

    def test_in_memory_begin_refolds_nothing(self, layer, monkeypatch):
        from_dict = ScalingOp.from_dict.__func__
        decoded = [0]

        def counting_from_dict(cls, data):
            decoded[0] += 1
            return from_dict(cls, data)

        for n in (50, 200):
            journal = layer.cls()
            layer.write(journal, self.history(layer, n)[:-1])
            monkeypatch.setattr(
                ScalingOp, "from_dict", classmethod(counting_from_dict)
            )
            decoded[0] = 0
            layer.begin(journal, layer.records[0])
            monkeypatch.undo()
            assert decoded[0] == 1, f"begin decoded {decoded[0]} ops"
