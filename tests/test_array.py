"""Unit tests for the DiskArray (logical/physical mapping + inventory)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.storage.array import DiskArray, PlacementConflictError
from repro.storage.block import Block, BlockId
from repro.storage.disk import DiskSpec


def make_array(n=4, capacity=100):
    return DiskArray([DiskSpec(capacity_blocks=capacity)] * n)


def b(i, x0=None):
    return Block(object_id=0, index=i, x0=x0 if x0 is not None else i)


class TestTopology:
    def test_initial_logical_order(self):
        array = make_array(4)
        assert array.num_disks == 4
        assert len(array.physical_ids) == 4
        assert [array.logical_of(pid) for pid in array.physical_ids] == [0, 1, 2, 3]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            DiskArray([])

    def test_add_group_appends_logicals(self):
        array = make_array(3)
        before = array.physical_ids
        new_ids = array.add_group([DiskSpec(), DiskSpec()])
        assert array.num_disks == 5
        assert array.physical_ids == before + tuple(new_ids)
        assert array.physical_at(3) == new_ids[0]
        assert array.physical_at(4) == new_ids[1]

    def test_add_empty_group_rejected(self):
        with pytest.raises(ValueError):
            make_array().add_group([])

    def test_physical_at_bounds(self):
        array = make_array(2)
        with pytest.raises(IndexError):
            array.physical_at(2)
        with pytest.raises(IndexError):
            array.physical_at(-1)

    def test_logical_of_unknown(self):
        with pytest.raises(KeyError):
            make_array().logical_of(10**9)

    def test_disk_lookup(self):
        array = make_array()
        pid = array.physical_at(0)
        assert array.disk(pid).physical_id == pid
        with pytest.raises(KeyError):
            array.disk(10**9)

    def test_survivors_after_removal(self):
        array = make_array(5)
        pids = array.physical_ids
        survivors = array.survivors_after_removal([1, 3])
        assert survivors == [pids[0], pids[2], pids[4]]
        # Non-destructive.
        assert array.num_disks == 5

    def test_survivors_bounds_check(self):
        with pytest.raises(IndexError):
            make_array(3).survivors_after_removal([3])

    def test_remove_group_compacts(self):
        array = make_array(5)
        pids = array.physical_ids
        removed = array.remove_group([1, 3])
        assert [d.physical_id for d in removed] == [pids[1], pids[3]]
        assert array.physical_ids == (pids[0], pids[2], pids[4])
        assert array.logical_of(pids[4]) == 2

    def test_remove_nonempty_disk_refused(self):
        array = make_array()
        array.place(b(0), 1)
        with pytest.raises(PlacementConflictError):
            array.remove_group([1])

    def test_remove_all_refused(self):
        with pytest.raises(ValueError):
            make_array(2).remove_group([0, 1])

    def test_remove_empty_group_refused(self):
        with pytest.raises(ValueError):
            make_array().remove_group([])


class TestInventory:
    def test_place_and_home(self):
        array = make_array()
        array.place(b(0), 2)
        assert array.home_of(BlockId(0, 0)) == array.physical_at(2)
        assert array.total_blocks == 1
        assert array.load_vector() == [0, 0, 1, 0]

    def test_place_duplicate_refused(self):
        array = make_array()
        array.place(b(0), 0)
        with pytest.raises(PlacementConflictError):
            array.place(b(0), 1)

    def test_place_capacity_enforced(self):
        array = make_array(2, capacity=2)
        array.place(b(0), 0)
        array.place(b(1), 0)
        with pytest.raises(PlacementConflictError):
            array.place(b(2), 0)

    def test_place_physical(self):
        array = make_array()
        pid = array.physical_at(3)
        array.place_physical(b(9), pid)
        assert array.home_of(BlockId(0, 9)) == pid

    def test_place_unknown_physical(self):
        with pytest.raises(KeyError):
            make_array().place_physical(b(0), 10**9)

    def test_move_transfers_and_counts(self):
        array = make_array()
        array.place(b(0), 0)
        target = array.physical_at(3)
        assert array.move(BlockId(0, 0), target) is True
        assert array.home_of(BlockId(0, 0)) == target
        assert array.blocks_moved == 1
        assert array.load_vector() == [0, 0, 0, 1]

    def test_move_noop_when_already_there(self):
        array = make_array()
        array.place(b(0), 1)
        assert array.move(BlockId(0, 0), array.physical_at(1)) is False
        assert array.blocks_moved == 0

    def test_move_unknown_block(self):
        with pytest.raises(KeyError):
            make_array().move(BlockId(0, 0), 0)

    def test_move_unknown_target(self):
        array = make_array()
        array.place(b(0), 0)
        with pytest.raises(KeyError):
            array.move(BlockId(0, 0), 10**9)

    def test_move_respects_capacity(self):
        array = make_array(2, capacity=1)
        array.place(b(0), 0)
        array.place(b(1), 1)
        with pytest.raises(PlacementConflictError):
            array.move(BlockId(0, 0), array.physical_at(1))

    def test_blocks_on(self):
        array = make_array()
        array.place(b(0), 1)
        array.place(b(1), 1)
        assert {blk.index for blk in array.blocks_on(1)} == {0, 1}
        assert array.blocks_on(0) == frozenset()

    def test_blocks_on_unknown_physical(self):
        with pytest.raises(KeyError):
            make_array().blocks_on_physical(10**9)

    def test_drop(self):
        array = make_array()
        array.place(b(0), 0)
        array.drop(BlockId(0, 0))
        assert array.total_blocks == 0
        with pytest.raises(KeyError):
            array.home_of(BlockId(0, 0))

    @pytest.mark.parametrize("op", ["move", "drop"])
    def test_finding_the_block_is_constant_time(self, monkeypatch, op):
        """move/drop look the block up by id: the Block.block_id
        evaluations per call do not grow with the blocks on the disk."""
        evaluations = [0]
        block_id = Block.block_id

        def counted(block):
            evaluations[0] += 1
            return block_id.fget(block)

        def per_call(blocks_per_disk: int) -> float:
            array = make_array(2, capacity=blocks_per_disk)
            for i in range(blocks_per_disk):
                array.place(b(i), 0)
            target = array.physical_at(1)
            evaluations[0] = 0
            with monkeypatch.context() as patch:
                patch.setattr(Block, "block_id", property(counted))
                for i in range(0, blocks_per_disk, blocks_per_disk // 8):
                    if op == "move":
                        assert array.move(BlockId(0, i), target)
                    else:
                        array.drop(BlockId(0, i))
            return evaluations[0] / 8

        assert per_call(4 * 400) <= per_call(400)

    def test_utilization(self):
        array = make_array(2, capacity=10)
        assert array.utilization() == 0.0
        array.place(b(0), 0)
        array.place(b(1), 1)
        assert array.utilization() == pytest.approx(0.1)

    def test_repr(self):
        assert "disks=4" in repr(make_array())


class TestBulkInventory:
    def test_inventory_version_counts_every_block(self):
        """Bulk places and drops advance the version by one per block,
        so (version + resident) / 2 counts every block ever placed."""
        array = make_array(n=3)
        array.place_objects([1, 2], [3, 4], np.arange(7), [0, 1, 2, 0, 1, 2, 0])
        array.place(b(0), 1)
        assert array.inventory_version == 8
        assert array.move(BlockId(1, 0), array.physical_at(2))
        assert array.inventory_version == 8
        assert array.drop_object(2) == 4
        assert array.inventory_version == 12
        assert array.total_blocks == 4
        assert (array.inventory_version + array.total_blocks) // 2 == 8
        assert array.load_vector() == [0, 2, 2]

    def test_bulk_place_is_all_or_nothing(self):
        array = make_array(n=2, capacity=3)
        with pytest.raises(PlacementConflictError):
            array.place_objects([5], [4], np.zeros(4), [0, 0, 0, 0])
        assert array.total_blocks == array.inventory_version == 0
        array.place_objects([5], [2], np.array([7, 9]), [0, 1])
        with pytest.raises(PlacementConflictError):
            array.place_objects([5], [1], np.zeros(1), [1])
        assert array.blocks_on(0) == {Block(5, 0, 7)}
        assert array.blocks_on(1) == {Block(5, 1, 9)}
        assert array.home_columns([5, 6], [3, 1]).tolist() == [
            array.physical_at(0),
            array.physical_at(1),
            -1,
            -1,
        ]
