"""Shared fixtures and Hypothesis profiles for the SCADDAR test suite."""

from __future__ import annotations

import contextlib
import io
import os

import pytest
from hypothesis import settings

from repro.core.scaddar import ScaddarMapper
from repro.storage.block import Block
from repro.storage.disk import DiskSpec
from repro.workloads.generator import random_x0s, uniform_catalog

# Property-test effort tiers: "ci" is the thorough profile the workflow
# runs with (HYPOTHESIS_PROFILE=ci), "dev" keeps local iteration fast,
# and "state_machine" tunes the long-horizon soak state machine
# (tests/test_soak_stateful.py): fewer examples, each running a much
# longer rule sequence, so the lifecycle invariants see deep histories.
# Tests that pin their own @settings(...) still inherit the profile's
# defaults for anything they leave unset (notably deadline=None).
settings.register_profile("ci", max_examples=100, deadline=None)
settings.register_profile("dev", max_examples=20, deadline=None)
settings.register_profile(
    "state_machine",
    max_examples=12,
    stateful_step_count=60,
    deadline=None,
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))

#: The soak profile's settings, importable by the state-machine test
#: (applied per-class via ``settings`` when the profile is not loaded).
STATE_MACHINE = settings.get_profile("state_machine")


@pytest.fixture
def mapper32() -> ScaddarMapper:
    """A fresh 32-bit mapper on 4 disks (the paper's evaluation shape)."""
    return ScaddarMapper(n0=4, bits=32)


@pytest.fixture
def blocks_small() -> list[Block]:
    """2 000 blocks with random 32-bit X0 values."""
    return [
        Block(object_id=0, index=i, x0=x0)
        for i, x0 in enumerate(random_x0s(2_000, bits=32, seed=0x7E57))
    ]


@pytest.fixture
def blocks_large() -> list[Block]:
    """20 000 blocks for statistical assertions."""
    return [
        Block(object_id=0, index=i, x0=x0)
        for i, x0 in enumerate(random_x0s(20_000, bits=32, seed=0x7E57))
    ]


@pytest.fixture
def small_catalog():
    """Five objects of 100 blocks each, 32-bit sequences."""
    return uniform_catalog(5, 100, master_seed=0xCAFE, bits=32)


@pytest.fixture
def default_specs() -> list[DiskSpec]:
    """Four identical disk specs with generous capacity."""
    return [DiskSpec(capacity_blocks=100_000, bandwidth_blocks_per_round=8)] * 4


@pytest.fixture(scope="session")
def quick_report() -> tuple[int, str]:
    """``scaddar report --quick`` run once per session: its exit code and
    the markdown it printed (every quick experiment runs, so the render
    is shared by the tests that read it)."""
    from repro.cli import main

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(["report", "--quick"])
    return code, buffer.getvalue()
