"""Straw backends as first-class registry citizens.

``straw`` and ``weighted_straw`` are registered placement backends (and
therefore second-level shard routers).  Beyond the generic registry
round-trips in ``test_backends.py``, this file pins down the pieces
specific to them: scalar/batch kernel parity, weight survival through a
payload round-trip, re-weighting semantics, and their use as shard
routers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.router import ShardRouter, routing_keys
from repro.core.errors import UnsupportedOperationError
from repro.core.operations import ScalingOp
from repro.placement.backends import (
    BACKENDS,
    backend_from_payload,
    make_backend,
)
from repro.placement.straw import StrawPolicy, straw_length, straw_winners
from repro.placement.weighted_straw import WeightedStrawPolicy
from repro.storage.block import BlockId

KEYS = routing_keys(range(4096), salt=0x57AB)


class TestRegistry:
    def test_both_backends_registered(self):
        assert "straw" in BACKENDS
        assert "weighted_straw" in BACKENDS
        assert isinstance(make_backend("straw", n0=5), StrawPolicy)
        assert isinstance(
            make_backend("weighted_straw", n0=5), WeightedStrawPolicy
        )

    def test_names_match_registry_keys(self):
        assert StrawPolicy(3).name == "straw"
        assert WeightedStrawPolicy(3).name == "weighted_straw"


class TestKernelParity:
    @pytest.mark.parametrize("backend", ["straw", "weighted_straw"])
    def test_scalar_matches_batch(self, backend):
        policy = make_backend(backend, n0=7)
        batch = policy.locate_batch(None, KEYS)
        scalar = [
            policy.locate_one(BlockId(i, 0), int(x0))
            for i, x0 in enumerate(KEYS[:256])
        ]
        assert scalar == list(batch[:256])

    def test_winners_match_scalar_straw_lengths(self):
        nodes = [0, 3, 7, 9]
        weights = [1.0, 2.0, 0.5, 1.5]
        winners = straw_winners(KEYS[:128], nodes, weights)
        for x0, winner in zip(KEYS[:128], winners):
            straws = [
                straw_length(int(x0), node, weight)
                for node, weight in zip(nodes, weights)
            ]
            assert int(winner) == straws.index(max(straws))

    def test_unit_weights_match_unweighted(self):
        nodes = list(range(6))
        assert np.array_equal(
            straw_winners(KEYS, nodes),
            straw_winners(KEYS, nodes, [1.0] * 6),
        )

    def test_straw_length_rejects_bad_weight(self):
        with pytest.raises(ValueError):
            straw_length(123, 0, 0.0)
        with pytest.raises(ValueError):
            straw_length(123, 0, -1.0)


class TestWeightedPayload:
    def test_weights_survive_round_trip(self):
        policy = WeightedStrawPolicy(4, weights=[1.0, 2.0, 0.5, 4.0])
        policy.apply(ScalingOp.add(2))
        policy.set_weight(4, 3.0)
        restored = backend_from_payload(
            "weighted_straw", policy.state_payload()
        )
        assert restored.current_disks == policy.current_disks
        assert [
            restored.weight_of(i) for i in range(restored.current_disks)
        ] == [policy.weight_of(i) for i in range(policy.current_disks)]
        assert np.array_equal(
            restored.locate_batch(None, KEYS),
            policy.locate_batch(None, KEYS),
        )

    def test_round_trip_after_removal(self):
        policy = WeightedStrawPolicy(5, weights=[1, 2, 3, 4, 5])
        policy.apply(ScalingOp.remove([1, 3]))
        restored = backend_from_payload(
            "weighted_straw", policy.state_payload()
        )
        assert [restored.weight_of(i) for i in range(3)] == [1.0, 3.0, 5.0]
        assert np.array_equal(
            restored.locate_batch(None, KEYS),
            policy.locate_batch(None, KEYS),
        )

    def test_unit_weight_payload_is_the_log_alone(self):
        # ``straw`` is weighted straw at unit weights, but its snapshots
        # keep the log-only payload, so older snapshots still restore.
        policy = StrawPolicy(5)
        policy.apply(ScalingOp.add(2))
        policy.apply(ScalingOp.remove([1, 3]))
        payload = policy.state_payload()
        assert list(payload) == ["operation_log"]
        restored = backend_from_payload("straw", payload)
        assert type(restored) is StrawPolicy
        assert np.array_equal(
            restored.locate_batch(None, KEYS),
            policy.locate_batch(None, KEYS),
        )

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            WeightedStrawPolicy(3, weights=[1.0, 2.0])
        with pytest.raises(ValueError):
            WeightedStrawPolicy(2, weights=[1.0, 0.0])


class TestReweighting:
    def test_heavier_member_attracts_load(self):
        policy = WeightedStrawPolicy(4)
        before = np.bincount(policy.locate_batch(None, KEYS), minlength=4)
        policy.set_weight(2, 8.0)
        after = np.bincount(policy.locate_batch(None, KEYS), minlength=4)
        assert after[2] > before[2] * 2
        # Blocks never move between the *other* members when one is
        # re-weighted upward: straws elsewhere are unchanged.
        moved_elsewhere = np.logical_and(
            policy.locate_batch(None, KEYS)
            != straw_winners(KEYS, [0, 1, 2, 3]),
            policy.locate_batch(None, KEYS) != 2,
        )
        assert not moved_elsewhere.any()

    def test_set_weight_rejects_nonpositive(self):
        policy = WeightedStrawPolicy(3)
        with pytest.raises(ValueError):
            policy.set_weight(0, 0.0)

    def test_unit_weight_straw_refuses_reweighting(self):
        # A weight would not survive straw's log-only payload.
        policy = StrawPolicy(3)
        with pytest.raises(UnsupportedOperationError):
            policy.set_weight(0, 2.0)
        assert policy.weight_of(0) == 1.0


class TestMinimalMovement:
    @pytest.mark.parametrize("backend", ["straw", "weighted_straw"])
    def test_add_only_pulls_to_new_disk(self, backend):
        policy = make_backend(backend, n0=6)
        before = policy.locate_batch(None, KEYS)
        policy.apply(ScalingOp.add(1))
        after = policy.locate_batch(None, KEYS)
        changed = before != after
        assert (after[changed] == 6).all()
        # Near the fair share 1/7 of blocks.
        assert 0.5 / 7 < changed.mean() < 2.0 / 7

    @pytest.mark.parametrize("backend", ["straw", "weighted_straw"])
    def test_arbitrary_removal_only_moves_orphans(self, backend):
        policy = make_backend(backend, n0=6)
        before = policy.locate_batch(None, KEYS)
        policy.apply(ScalingOp.remove([2]))
        after = policy.locate_batch(None, KEYS)
        # Survivors re-compact: logical index shifts down above slot 2.
        expected = np.where(before > 2, before - 1, before)
        stayed = before != 2
        assert np.array_equal(after[stayed], expected[stayed])


class TestAsShardRouter:
    @pytest.mark.parametrize("backend", ["straw", "weighted_straw"])
    def test_router_round_trip(self, backend):
        router = ShardRouter.create(backend, 5)
        gids = list(range(512))
        router.register(gids)
        router.plan_moves(ScalingOp.add(1), gids)
        restored = ShardRouter.from_payload(router.state_payload())
        assert restored.policy.name == backend
        assert np.array_equal(restored.slots_of(gids), router.slots_of(gids))

    def test_weighted_router_skews_shard_load(self):
        router = ShardRouter.create("weighted_straw", 4)
        gids = list(range(8192))
        router.register(gids)
        router.policy.set_weight(0, 4.0)
        loads = np.bincount(router.slots_of(gids), minlength=4)
        assert loads[0] > 2 * loads[1:].mean()
