"""Backend-refactor parity: the SCADDAR backend is bit-identical to the
pre-refactor engine path.

The server stack used to call the mapper/engine directly; it now goes
through :class:`~repro.placement.backends.ScaddarBackend`.  These
property tests pin the refactor's contract over randomized add/remove
schedules: every block location and every migration plan produced by the
backend-driven :class:`CMServer` equals what an independently maintained
:class:`ScaddarMapper` + :class:`PlacementEngine` (the old code path)
computes.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import PlacementEngine
from repro.core.scaddar import ScaddarMapper
from repro.server.cmserver import CMServer
from repro.storage.block import BlockId
from repro.storage.disk import DiskSpec
from repro.storage.migration import MigrationSession
from repro.workloads.generator import uniform_catalog

BITS = 32


@st.composite
def server_schedules(draw, n0_range=(3, 6), max_ops=4):
    """A valid schedule of adds and single removals keeping N >= 2."""
    n0 = draw(st.integers(*n0_range))
    ops = []
    n = n0
    for __ in range(draw(st.integers(1, max_ops))):
        if n > 2 and draw(st.booleans()):
            victims = sorted(
                draw(
                    st.sets(
                        st.integers(0, n - 1),
                        min_size=1,
                        max_size=min(2, n - 2),
                    )
                )
            )
            ops.append(("remove", victims))
            n -= len(victims)
        else:
            count = draw(st.integers(1, 3))
            ops.append(("add", count))
            n += count
    return n0, ops


def _population(server):
    """The resident blocks' ids and X0s in the server's own order (what
    begin_scale batches)."""
    object_ids, indices, x0s, __ = server.resident_blocks()
    ids = [BlockId(o, i) for o, i in zip(object_ids.tolist(), indices.tolist())]
    return ids, x0s


def _to_op(entry):
    from repro.core.operations import ScalingOp

    kind, arg = entry
    return ScalingOp.add(arg) if kind == "add" else ScalingOp.remove(arg)


class TestScaddarBackendParity:
    @given(spec=server_schedules())
    @settings(max_examples=25, deadline=None)
    def test_locations_and_plans_match_engine_path(self, spec):
        n0, entries = spec
        catalog = uniform_catalog(2, 40, master_seed=n0, bits=BITS)
        server = CMServer(catalog, [DiskSpec()] * n0, bits=BITS)
        assert server.backend.name == "scaddar"

        # The reference: a mapper/engine pair maintained independently,
        # exactly as the pre-backend server did.
        mapper = ScaddarMapper(n0=n0, bits=BITS)

        for entry in entries:
            op = _to_op(entry)
            # Capture the population in the server's own iteration order
            # (what begin_scale batches) before mutating anything.
            ids, x0s = _population(server)
            sources = {bid: server.array.home_of(bid) for bid in ids}

            pending = server.begin_scale(op)

            mapper.apply(op)
            engine = PlacementEngine(mapper.log)
            indices, __, targets = engine.redistribution_moves_batch(x0s)
            if op.kind == "add":
                table = list(server.array.physical_ids)
            else:
                table = server.array.survivors_after_removal(op.removed)
            expected = set()
            for i, t in zip(indices.tolist(), targets.tolist()):
                bid = ids[i]
                if sources[bid] != table[t]:
                    expected.add((bid, sources[bid], table[t]))
            actual = {
                (m.block_id, m.source_physical, m.target_physical)
                for m in pending.plan.moves
            }
            assert actual == expected

            session = MigrationSession(server.array, pending.plan)
            while not session.done:
                session.step(len(pending.plan) + 1)
            server.finish_scale(pending)

            # Location parity: backend vs scalar reference, block by block.
            for bid, x0 in zip(*_population(server)):
                assert server.backend.locate_one(bid, int(x0)) == mapper.disk_of(
                    int(x0)
                )

    @given(spec=server_schedules(max_ops=3))
    @settings(max_examples=15, deadline=None)
    def test_block_locations_match_scalar_reference(self, spec):
        n0, entries = spec
        catalog = uniform_catalog(2, 25, master_seed=n0 + 99, bits=BITS)
        server = CMServer(catalog, [DiskSpec()] * n0, bits=BITS)
        mapper = ScaddarMapper(n0=n0, bits=BITS)
        for entry in entries:
            op = _to_op(entry)
            server.scale(op)
            mapper.apply(op)
        table = server.array.physical_ids
        for media in server.catalog:
            locations = server.block_locations(media.object_id)
            reference = [
                table[mapper.disk_of(media.block(i).x0)]
                for i in range(media.num_blocks)
            ]
            assert locations == reference
