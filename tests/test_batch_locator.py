"""The batch locator's cached homes follow every placement change.

:class:`~repro.server.locate.BackendBatchLocator` keeps the physical
home of every block a round has demanded and locates again only when
its placement key moves (the backend object, the backend's operation
log by object and by length, ``array.physical_ids``) or the catalog
does.  The property below interleaves rounds with every server
operation that changes placement, on all seven registered backends: a
scaling addition and removal, a disk replacement, a reshuffle, a begun
and aborted scaling operation, a restore from a snapshot, and an object
added and removed.  Each round must equal, report for report and stream
for stream, the round of a twin served block by block through the
computed scalar locator.  Between operations every read must also be
charged to the disk the inventory holds its block on.  The scaling
operations and the reshuffle also serve one round mid-flight, after
part of their moves: there the twin is the only oracle, and it is what
pins the key's log length (a removal logs at its start and detaches
its disk at its end) and its physical ids (the detach).
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.operations import ScalingOp
from repro.placement.backends import BACKENDS
from repro.server.cmserver import CMServer, PendingReshuffle
from repro.server.locate import SequentialBatchLocator
from repro.server.persistence import restore_server, snapshot_server
from repro.server.scheduler import RoundScheduler
from repro.server.streams import Stream, gather_round_demand
from repro.storage.block import BlockId
from repro.storage.disk import DiskSpec
from repro.storage.migration import MigrationSession
from repro.workloads.generator import uniform_catalog

BITS = 32
#: Bandwidth 2 a disk and at most 6 streams of rate 1: admission never
#: refuses (at least 3 disks), and a disk is often over-subscribed.
SPEC = DiskSpec(capacity_blocks=10_000, bandwidth_blocks_per_round=2)
MAX_STREAMS = 6
MIN_DISKS, MAX_DISKS = 3, 6
#: Backends that refuse a removal (reallocation-free), the ones that
#: remove only the last disk, and the ones with a reshuffle lifecycle.
NO_REMOVAL = {"sequential_checking"}
TAIL_REMOVAL = {"jump_hash"}
RESHUFFLES = {"scaddar"}


def stream_states(scheduler: RoundScheduler) -> list[tuple]:
    return [
        (s.stream_id, s.position, s.state, s.blocks_consumed, s.stall_rounds)
        for s in scheduler.streams
    ]


class Twins:
    """One server and two schedulers serving identical streams: one
    through the server's batch locator, the twin block by block through
    ``SequentialBatchLocator(server.computed_locator())``."""

    def __init__(self, backend: str, seed: int):
        catalog = uniform_catalog(3, 40, master_seed=seed, bits=BITS)
        self.server = CMServer(catalog, [SPEC] * 4, bits=BITS, backend=backend)
        self.cached, self.twin = self.schedulers()
        self.next_id = 0
        for oid in range(3):
            self.admit(oid, seed % 30)

    def schedulers(self) -> tuple[RoundScheduler, RoundScheduler]:
        server = self.server
        return tuple(
            RoundScheduler(
                server.array,
                locator=server.computed_locator(),
                batch_locator=batch_locator,
            )
            for batch_locator in (
                server.computed_batch_locator(),
                SequentialBatchLocator(server.computed_locator()),
            )
        )

    def admit(self, object_id: int, start: int) -> None:
        if len(self.cached.table) >= MAX_STREAMS:
            return
        media = self.server.catalog.get(object_id)
        for scheduler in (self.cached, self.twin):
            scheduler.admit(
                Stream(self.next_id, media, start_block=start % media.num_blocks)
            )
        self.next_id += 1

    def serve(self, rounds: int = 2) -> None:
        array = self.server.array
        for __ in range(rounds):
            demand = gather_round_demand(self.cached.table)
            homes = Counter(
                array.home_of(BlockId(oid, index))
                for oid, index in zip(
                    demand.object_ids.tolist(), demand.block_indices.tolist()
                )
            )
            report = self.cached.run_round()
            assert report == self.twin.run_round()
            assert report.load_by_physical == {
                pid: homes.get(pid, 0) for pid in array.physical_ids
            }
        assert stream_states(self.cached) == stream_states(self.twin)
        assert self.cached.hiccups_by_stream == self.twin.hiccups_by_stream

    def online(self, pending, arg: int, abort: bool = False) -> None:
        """Execute up to ``arg`` of a begun operation's moves and serve
        one round mid-flight, then finish the operation or abort it.
        Mid-flight the inventory and the computed placement disagree,
        so that round is held to the twin alone."""
        server = self.server
        session = MigrationSession(server.array, pending.plan)
        moves = len(pending.plan)
        session.step(moves, max_moves=arg % (moves + 1))
        assert self.cached.run_round() == self.twin.run_round()
        if abort:
            server.abort_scale(pending, session)
            return
        while not session.done:
            session.step(moves)
        if isinstance(pending, PendingReshuffle):
            server.finish_reshuffle(pending)
        else:
            server.finish_scale(pending)

    # The operations, each drawn with one integer argument.
    def add(self, arg: int) -> None:
        if self.server.num_disks < MAX_DISKS:
            op = ScalingOp.add(1 + arg % 2)
            self.online(self.server.begin_scale(op), arg)

    def removable(self, arg: int) -> int | None:
        """The logical disk ``arg`` picks for a removal, or None where
        the backend refuses removals."""
        name = self.server.backend.name
        if name in NO_REMOVAL:
            return None
        n = self.server.num_disks
        return n - 1 if name in TAIL_REMOVAL else arg % n

    def remove(self, arg: int) -> None:
        logical = self.removable(arg)
        if self.server.num_disks > MIN_DISKS and logical is not None:
            self.online(self.server.begin_scale(ScalingOp.remove([logical])), arg)

    def replace_disk(self, arg: int) -> None:
        """Add a disk, then remove an old one (which a backend that
        removes only the last disk refuses)."""
        server = self.server
        name = server.backend.name
        if server.num_disks < MAX_DISKS and name not in NO_REMOVAL | TAIL_REMOVAL:
            server.replace_disk(arg % server.num_disks)

    def reshuffle(self, arg: int) -> None:
        if self.server.backend.name in RESHUFFLES:
            self.online(self.server.begin_reshuffle(), arg)

    def abort(self, arg: int) -> None:
        logical = self.removable(arg)
        if arg % 2 or logical is None:
            op = ScalingOp.add(1)
        else:
            op = ScalingOp.remove([logical])
        self.online(self.server.begin_scale(op), arg, abort=True)

    def restore(self, arg: int) -> None:
        """A restored server, served by fresh schedulers that take over
        the streams as they are."""
        olds = (self.cached, self.twin)
        self.server = restore_server(snapshot_server(self.server))
        self.cached, self.twin = self.schedulers()
        for old, new in zip(olds, (self.cached, self.twin)):
            old.table.move(old.table.live_rows(), [new.table])

    def add_object(self, arg: int) -> None:
        media = self.server.add_object(f"late-{arg}", 20 + arg % 30)
        self.admit(media.object_id, arg)

    def remove_object(self, arg: int) -> None:
        catalog = self.server.catalog
        if len(catalog) < 2:
            return
        oid = sorted(media.object_id for media in catalog)[arg % len(catalog)]
        for scheduler in (self.cached, self.twin):
            for stream in scheduler.table.streams_of(oid):
                scheduler.depart(stream.stream_id)
        self.server.remove_object(oid)


OPERATIONS = (
    "add",
    "remove",
    "replace_disk",
    "reshuffle",
    "abort",
    "restore",
    "add_object",
    "remove_object",
)


@given(
    backend=st.sampled_from(sorted(BACKENDS)),
    seed=st.integers(0, 2**16),
    steps=st.lists(
        st.tuples(st.sampled_from(OPERATIONS), st.integers(0, 2**16)),
        min_size=1,
        max_size=8,
    ),
)
def test_cached_homes_follow_every_placement_change(backend, seed, steps):
    twins = Twins(backend, seed)
    twins.serve()
    for name, arg in steps:
        getattr(twins, name)(arg)
        twins.serve()


def every_block(objects) -> tuple[np.ndarray, np.ndarray]:
    """The object-id and block-index columns of every block of
    ``objects``, objects back to back."""
    object_ids = np.repeat(
        [media.object_id for media in objects], [m.num_blocks for m in objects]
    )
    block_indices = np.concatenate([np.arange(m.num_blocks) for m in objects])
    return object_ids, block_indices


def test_a_log_replaced_at_the_same_length_is_located_afresh():
    """An abort swaps in a new backend and log one entry shorter, and a
    different operation begun before the next lookup brings the log back
    to the length the locator last saw, with the same physical ids: only
    the key's identities (the backend's and the log's, each enough on
    its own here) tell the two placements apart."""
    catalog = uniform_catalog(3, 200, master_seed=0xAB07, bits=BITS)
    server = CMServer(catalog, [SPEC] * 4, bits=BITS)
    objects = list(server.catalog)
    object_ids, block_indices = every_block(objects)
    locator = server.computed_batch_locator()
    pending = server.begin_scale(ScalingOp.remove([0]))
    locator.locate_physical(object_ids, block_indices)  # keyed at one op
    server.abort_scale(pending)
    server.begin_scale(ScalingOp.remove([1]))
    assert (
        locator.locate_physical(object_ids, block_indices)
        == server.computed_homes(objects)
    ).all()


def test_reweighting_a_served_backend_is_outside_the_key():
    """``WeightedStrawPolicy.set_weight`` changes computed placement
    with no log entry and moves no block, and no server path calls it:
    re-weighting a served backend is unsupported.  The locator keeps
    answering the homes it located, which are the inventory's, until a
    key change (here a scaling operation) locates afresh."""
    catalog = uniform_catalog(3, 200, master_seed=0x3E16, bits=BITS)
    server = CMServer(catalog, [SPEC] * 4, bits=BITS, backend="weighted_straw")
    objects = list(server.catalog)
    object_ids, block_indices = every_block(objects)
    locator = server.computed_batch_locator()
    located = locator.locate_physical(object_ids, block_indices)
    inventory = [
        server.array.home_of(BlockId(oid, index))
        for oid, index in zip(object_ids.tolist(), block_indices.tolist())
    ]
    assert located.tolist() == inventory

    server.backend.set_weight(0, 8.0)
    assert (server.computed_homes(objects) != located).any()
    assert (locator.locate_physical(object_ids, block_indices) == located).all()

    server.scale(ScalingOp.add(1))
    assert (
        locator.locate_physical(object_ids, block_indices)
        == server.computed_homes(objects)
    ).all()


def test_an_object_not_in_the_catalog_raises_key_error():
    catalog = uniform_catalog(2, 10, master_seed=1, bits=BITS)
    server = CMServer(catalog, [SPEC] * 4, bits=BITS)
    locator = server.computed_batch_locator()
    server.remove_object(1)
    for oid in (1, 5):  # removed, and past the catalog's ids
        with pytest.raises(KeyError):
            locator.locate_physical(np.array([oid]), np.array([0]))
