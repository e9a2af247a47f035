"""Stateful property testing of the DiskArray inventory.

A hypothesis rule machine churns one array — places (one block or whole
objects in bulk), moves, drops, group additions and removals — and
checks the inventory invariants
after every step: the home index and per-disk contents agree, loads sum
to the population, capacity is never exceeded, and the logical order
always enumerates exactly the attached disks.
"""

from __future__ import annotations

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.storage.array import DiskArray, PlacementConflictError
from repro.storage.block import Block
from repro.storage.disk import DiskSpec

CAPACITY = 6
MAX_DISKS = 8


class ArrayMachine(RuleBasedStateMachine):
    @initialize(n0=st.integers(1, 4))
    def setup(self, n0):
        self.array = DiskArray([DiskSpec(capacity_blocks=CAPACITY)] * n0)
        self.next_block = 0
        self.next_object = 1  # object 0 takes the one-block placements
        self.resident: dict = {}  # block_id -> block

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------
    @rule(logical_pick=st.integers(0, 10**6))
    def place_block(self, logical_pick):
        logical = logical_pick % self.array.num_disks
        block = Block(0, self.next_block, x0=self.next_block)
        self.next_block += 1
        try:
            self.array.place(block, logical)
        except PlacementConflictError:
            pass  # disk full — acceptable, nothing changed
        else:
            self.resident[block.block_id] = block

    @rule(picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=5))
    def place_object(self, picks):
        """A whole new object in one bulk write: all of it or none."""
        object_id = self.next_object
        self.next_object += 1
        logical = [pick % self.array.num_disks for pick in picks]
        x0s = np.arange(len(picks), dtype=np.uint64) + np.uint64(object_id)
        try:
            self.array.place_objects([object_id], [len(picks)], x0s, logical)
        except PlacementConflictError:
            pass  # some disk lacks room — nothing changed
        else:
            for index, x0 in enumerate(x0s.tolist()):
                block = Block(object_id, index, x0=x0)
                self.resident[block.block_id] = block

    @precondition(lambda self: self.resident)
    @rule(block_pick=st.integers(0, 10**6), target_pick=st.integers(0, 10**6))
    def move_block(self, block_pick, target_pick):
        block_ids = sorted(self.resident)
        block_id = block_ids[block_pick % len(block_ids)]
        target = self.array.physical_ids[
            target_pick % self.array.num_disks
        ]
        try:
            self.array.move(block_id, target)
        except PlacementConflictError:
            pass

    @precondition(lambda self: self.resident)
    @rule(block_pick=st.integers(0, 10**6))
    def drop_block(self, block_pick):
        block_ids = sorted(self.resident)
        block_id = block_ids[block_pick % len(block_ids)]
        self.array.drop(block_id)
        del self.resident[block_id]

    @precondition(lambda self: self.array.num_disks < MAX_DISKS)
    @rule(count=st.integers(1, 2))
    def add_group(self, count):
        self.array.add_group([DiskSpec(capacity_blocks=CAPACITY)] * count)

    @precondition(lambda self: self.array.num_disks > 1)
    @rule(pick=st.integers(0, 10**6))
    def remove_empty_disk(self, pick):
        empties = [
            logical
            for logical in range(self.array.num_disks)
            if not self.array.blocks_on(logical)
        ]
        if not empties or len(empties) == self.array.num_disks == 1:
            return
        victim = empties[pick % len(empties)]
        if self.array.num_disks - 1 >= 1:
            self.array.remove_group([victim])

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    @invariant()
    def population_consistent(self):
        assert self.array.total_blocks == len(self.resident)
        assert sum(self.array.load_vector()) == len(self.resident)

    @invariant()
    def homes_agree_with_contents(self):
        for block_id in self.resident:
            home = self.array.home_of(block_id)
            assert block_id in {
                b.block_id for b in self.array.blocks_on_physical(home)
            }

    @invariant()
    def capacity_respected(self):
        for logical in range(self.array.num_disks):
            assert len(self.array.blocks_on(logical)) <= CAPACITY

    @invariant()
    def logical_order_is_consistent(self):
        pids = self.array.physical_ids
        assert len(set(pids)) == len(pids) == self.array.num_disks
        for logical, pid in enumerate(pids):
            assert self.array.physical_at(logical) == pid
            assert self.array.logical_of(pid) == logical


TestArrayMachine = ArrayMachine.TestCase
TestArrayMachine.settings = settings(
    max_examples=30, stateful_step_count=25, deadline=None
)
