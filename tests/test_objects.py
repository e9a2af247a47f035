"""Unit tests for MediaObject and ObjectCatalog."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.prng.sequence import ObjectSequence
from repro.server.objects import MediaObject, ObjectCatalog, x0_columns

#: Widest output each generator family supports.
FAMILY_BITS = {"splitmix64": 64, "xorshift64star": 64, "pcg32": 32, "lcg48": 32}


@st.composite
def media_objects(draw, object_id=0):
    """An object of any family, bit width, seed (negative or past 64
    bits included) and length 1-300."""
    family = draw(st.sampled_from(sorted(FAMILY_BITS)))
    return MediaObject(
        object_id=object_id,
        name=f"m{object_id}",
        num_blocks=draw(st.integers(1, 300)),
        seed=draw(
            st.one_of(
                st.integers(-(2**70), -1),
                st.integers(0, 2**64 - 1),
                st.integers(2**64, 2**80),
            )
        ),
        bits=draw(st.integers(1, FAMILY_BITS[family])),
        family=family,
    )


class TestMediaObject:
    def test_validation(self):
        with pytest.raises(ValueError):
            MediaObject(object_id=0, name="x", num_blocks=0, seed=1)
        with pytest.raises(ValueError):
            MediaObject(
                object_id=0, name="x", num_blocks=1, seed=1, blocks_per_round=0
            )

    def test_blocks_match_sequence(self):
        obj = MediaObject(object_id=3, name="m", num_blocks=20, seed=99, bits=32)
        blocks = obj.blocks()
        assert len(blocks) == 20
        seq = obj.sequence()
        assert [b.x0 for b in blocks] == seq.prefix(20)
        assert all(b.object_id == 3 for b in blocks)
        assert [b.index for b in blocks] == list(range(20))

    def test_block_indexed_access(self):
        obj = MediaObject(object_id=1, name="m", num_blocks=10, seed=7, bits=32)
        for i in (0, 5, 9):
            assert obj.block(i) == obj.blocks()[i]

    @given(media=media_objects())
    @settings(max_examples=200, deadline=None)
    def test_x0_column_equals_iterated_prefix(self, media):
        """The vectorized column is the sequence's iteration, bit for bit."""
        column = media.x0_column()
        assert column.dtype.name == "uint64"
        iterated = ObjectSequence(media.seed, media.bits, media.family).prefix(
            media.num_blocks
        )
        assert column.tolist() == iterated

    @given(data=st.data(), count=st.integers(0, 5))
    @settings(max_examples=50, deadline=None)
    def test_x0_columns_lie_back_to_back(self, data, count):
        """Several objects in one pass, mixed families included, give each
        object's prefix in turn."""
        objects = [data.draw(media_objects(object_id=i)) for i in range(count)]
        expected = [
            x0
            for media in objects
            for x0 in media.sequence().prefix(media.num_blocks)
        ]
        assert x0_columns(objects).tolist() == expected

    def test_block_bounds(self):
        obj = MediaObject(object_id=1, name="m", num_blocks=10, seed=7)
        with pytest.raises(IndexError):
            obj.block(10)
        with pytest.raises(IndexError):
            obj.block(-1)


class TestObjectCatalog:
    def test_ids_increment(self):
        catalog = ObjectCatalog()
        a = catalog.add_object("a", 5)
        b = catalog.add_object("b", 5)
        assert (a.object_id, b.object_id) == (0, 1)
        assert len(catalog) == 2

    def test_seeds_are_unique(self):
        catalog = ObjectCatalog()
        seeds = {catalog.add_object(f"o{i}", 1).seed for i in range(200)}
        assert len(seeds) == 200

    def test_reproducible_from_master_seed(self):
        a = ObjectCatalog(master_seed=5)
        b = ObjectCatalog(master_seed=5)
        assert a.add_object("x", 3).seed == b.add_object("x", 3).seed

    def test_different_master_seeds_differ(self):
        a = ObjectCatalog(master_seed=5).add_object("x", 3)
        b = ObjectCatalog(master_seed=6).add_object("x", 3)
        assert a.seed != b.seed

    def test_get_and_contains(self):
        catalog = ObjectCatalog()
        obj = catalog.add_object("a", 5)
        assert catalog.get(obj.object_id) is obj
        assert obj.object_id in catalog
        assert 99 not in catalog
        with pytest.raises(KeyError):
            catalog.get(99)

    def test_remove_object(self):
        catalog = ObjectCatalog()
        obj = catalog.add_object("a", 5)
        removed = catalog.remove_object(obj.object_id)
        assert removed is obj
        assert len(catalog) == 0
        with pytest.raises(KeyError):
            catalog.remove_object(obj.object_id)

    def test_total_blocks_and_all_blocks(self):
        catalog = ObjectCatalog(bits=32)
        catalog.add_object("a", 5)
        catalog.add_object("b", 7)
        assert catalog.total_blocks == 12
        blocks = catalog.all_blocks()
        assert len(blocks) == 12
        assert [(b.object_id, b.index) for b in blocks] == [
            (0, i) for i in range(5)
        ] + [(1, i) for i in range(7)]

    def test_reseed_all_changes_sequences_preserves_identity(self):
        catalog = ObjectCatalog(bits=32)
        obj = catalog.add_object("a", 10)
        old_seed = obj.seed
        old_x0s = [b.x0 for b in obj.blocks()]
        catalog.reseed_all()
        renewed = catalog.get(obj.object_id)
        assert renewed.seed != old_seed
        assert renewed.name == "a"
        assert renewed.num_blocks == 10
        assert [b.x0 for b in renewed.blocks()] != old_x0s

    def test_reseed_epochs_differ(self):
        catalog = ObjectCatalog(bits=32)
        catalog.add_object("a", 1)
        seeds = set()
        for __ in range(5):
            seeds.add(catalog.get(0).seed)
            catalog.reseed_all()
        assert len(seeds) == 5

    def test_iteration(self):
        catalog = ObjectCatalog()
        catalog.add_object("a", 1)
        catalog.add_object("b", 2)
        assert [o.name for o in catalog] == ["a", "b"]
