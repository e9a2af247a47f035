"""Unit + invariant tests for the CMServer facade."""

from __future__ import annotations

import pytest

from repro.core.errors import RandomnessExhaustedError
from repro.core.operations import ScalingOp
from repro.server.cmserver import CMServer
from repro.server.objects import ObjectCatalog
from repro.storage.block import BlockId
from repro.storage.disk import DiskSpec
from repro.workloads.generator import uniform_catalog


def make_server(num_objects=4, blocks=200, n0=4, bits=32):
    catalog = uniform_catalog(num_objects, blocks, master_seed=0xFACE, bits=bits)
    spec = DiskSpec(capacity_blocks=100_000)
    return CMServer(catalog, [spec] * n0, bits=bits, default_spec=spec)


def assert_af_matches_inventory(server):
    """The core invariant: AF() computes where the bytes actually are."""
    for media in server.catalog:
        for index in range(0, media.num_blocks, 17):
            block_id = BlockId(media.object_id, index)
            assert server.block_location(media.object_id, index) == (
                server.array.home_of(block_id)
            )


class TestConstruction:
    def test_loads_all_blocks(self):
        server = make_server()
        assert server.total_blocks == 4 * 200
        assert server.num_disks == 4
        assert_af_matches_inventory(server)

    def test_bits_mismatch_rejected(self):
        catalog = ObjectCatalog(bits=64)
        with pytest.raises(ValueError):
            CMServer(catalog, [DiskSpec()] * 2, bits=32)

    def test_initial_placement_is_mod_n(self):
        server = make_server()
        media = server.catalog.get(0)
        block = media.block(0)
        expected_logical = block.x0 % 4
        assert server.block_location(0, 0) == server.array.physical_at(
            expected_logical
        )


class TestObjectLifecycle:
    def test_add_object_places_blocks(self):
        server = make_server(num_objects=1, blocks=10)
        server.add_object("late", 25)
        assert server.total_blocks == 35
        assert_af_matches_inventory(server)

    def test_remove_object_frees_blocks(self):
        server = make_server(num_objects=2, blocks=10)
        server.remove_object(0)
        assert server.total_blocks == 10
        with pytest.raises(KeyError):
            server.array.home_of(BlockId(0, 0))

    def test_block_location_uncached_falls_back_to_seed(self):
        server = make_server(num_objects=1, blocks=10)
        server.x0_cache.clear()  # simulate cold cache
        assert server.block_location(0, 3) == server.array.home_of(BlockId(0, 3))


class TestScaling:
    def test_addition_moves_optimal_fraction(self):
        server = make_server(blocks=2_000)
        report = server.scale(ScalingOp.add(1))
        assert report.n_before == 4
        assert report.n_after == 5
        assert abs(report.moved_fraction - 0.2) < 0.03
        assert float(report.optimal_fraction) == pytest.approx(0.2)
        assert_af_matches_inventory(server)

    def test_addition_attaches_given_specs(self):
        server = make_server()
        fancy = DiskSpec(capacity_blocks=50_000, bandwidth_blocks_per_round=16)
        server.scale(ScalingOp.add(2), specs=[fancy, fancy])
        assert server.num_disks == 6
        new_pid = server.array.physical_at(5)
        assert server.array.disk(new_pid).bandwidth_blocks_per_round == 16

    def test_spec_count_mismatch(self):
        server = make_server()
        with pytest.raises(ValueError):
            server.scale(ScalingOp.add(2), specs=[DiskSpec()])

    def test_removal_detaches_and_moves(self):
        server = make_server(blocks=2_000)
        victim_pid = server.array.physical_at(1)
        report = server.scale(ScalingOp.remove([1]))
        assert server.num_disks == 3
        assert victim_pid not in server.array.physical_ids
        assert abs(report.moved_fraction - 0.25) < 0.03
        assert_af_matches_inventory(server)

    def test_removal_specs_rejected(self):
        server = make_server()
        with pytest.raises(ValueError):
            server.scale(ScalingOp.remove([0]), specs=[DiskSpec()])

    def test_scale_with_eps_guard(self):
        server = make_server(bits=32)
        for __ in range(8):
            server.scale(ScalingOp.add(1), eps=0.05)
        with pytest.raises(RandomnessExhaustedError):
            server.scale(ScalingOp.add(1), eps=0.05)
        assert server.num_disks == 12

    def test_mixed_schedule_preserves_invariant(self):
        server = make_server(blocks=500)
        for op in (
            ScalingOp.add(2),
            ScalingOp.remove([0, 3]),
            ScalingOp.add(1),
            ScalingOp.remove([2]),
        ):
            server.scale(op)
            assert_af_matches_inventory(server)
        assert server.num_disks == 4

    def test_begin_finish_split(self):
        server = make_server(blocks=500)
        pending = server.begin_scale(ScalingOp.remove([1]))
        # Disks stay attached until finish.
        assert server.num_disks == 4
        from repro.storage.migration import MigrationSession

        MigrationSession(server.array, pending.plan).run(budget=10_000)
        server.finish_scale(pending)
        assert server.num_disks == 3
        with pytest.raises(ValueError):
            server.finish_scale(pending)

    def test_load_vector_sums_to_total(self):
        server = make_server()
        server.scale(ScalingOp.add(3))
        assert sum(server.load_vector()) == server.total_blocks


class TestBlockLocations:
    """Whole-object AF() must agree with the per-block scalar path."""

    def assert_matches_per_block(self, server):
        for media in server.catalog:
            homes = server.block_locations(media.object_id)
            assert len(homes) == media.num_blocks
            assert homes == [
                server.block_location(media.object_id, index)
                for index in range(media.num_blocks)
            ]

    def test_matches_block_location_initially(self):
        server = make_server(num_objects=3, blocks=50)
        self.assert_matches_per_block(server)

    def test_matches_after_mixed_scaling(self):
        server = make_server(num_objects=2, blocks=120)
        for op in (ScalingOp.add(2), ScalingOp.remove([1]), ScalingOp.add(1)):
            server.scale(op)
            self.assert_matches_per_block(server)

    def test_matches_after_reshuffle(self):
        server = make_server(num_objects=2, blocks=60)
        server.scale(ScalingOp.add(1))
        server.reshuffle()
        self.assert_matches_per_block(server)

    def test_cold_cache_falls_back_to_seeds(self):
        server = make_server(num_objects=1, blocks=30)
        server.x0_cache.clear()
        self.assert_matches_per_block(server)

    def test_unknown_object_raises(self):
        server = make_server(num_objects=1, blocks=10)
        with pytest.raises(KeyError):
            server.block_locations(99)


class TestReshuffle:
    def test_reshuffle_resets_budget_and_moves_blocks(self):
        server = make_server(blocks=500)
        for __ in range(8):
            server.scale(ScalingOp.add(1), eps=0.05)
        assert server.mapper.remaining_operations(0.05) == 0
        moved = server.reshuffle()
        assert moved > 0
        assert server.reshuffles == 1
        assert server.mapper.num_operations == 0
        assert server.mapper.remaining_operations(0.05) > 0
        assert_af_matches_inventory(server)

    def test_needs_reshuffle_reporting(self):
        server = make_server(bits=16)
        assert not server.needs_reshuffle(0.05)
        for __ in range(6):
            server.scale(ScalingOp.add(1))
        assert server.needs_reshuffle(0.05)

    def test_reshuffle_preserves_block_population(self):
        server = make_server(num_objects=2, blocks=100)
        before_total = server.total_blocks
        server.reshuffle()
        assert server.total_blocks == before_total
        assert sum(server.load_vector()) == before_total
