"""The server-facing placement backend layer and its registry.

The server stack (:class:`~repro.server.cmserver.CMServer`, migration
planning, snapshots, crash recovery) runs against the *backend API* of
:class:`~repro.placement.base.PlacementPolicy` — batched lookups, move
planning, and a persistence identity — so the same
load → scale → migrate → crash → resume loop works for any placement
policy, not just SCADDAR.  This module provides:

* :class:`ScaddarBackend` — the reference backend, wrapping the
  vectorized :class:`~repro.core.engine.PlacementEngine` so the server
  hot paths are bit-identical to (and as fast as) the pre-backend code
  (``tests/test_backend_parity.py`` proves it property-wise);
* :data:`BACKENDS` — the registry mapping backend names to policy
  classes, used by the CLI, the snapshot format, and the modern-schemes
  experiment;
* :func:`make_backend` / :func:`backend_from_payload` — the two ways a
  backend comes to life (fresh, or restored from a snapshot).

Registered backends besides SCADDAR: the jump-consistent-hash and
vnode-ring comparators, the Appendix A directory baseline, the
reallocation-free sequential-checking scheme (arXiv 1707.00904), and
the CRUSH-style straw2 pair (unit-weight ``straw`` and heterogeneous
``weighted_straw``).  Every future policy (replication-aware, ...)
plugs in by implementing the backend API and registering here.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Optional

import numpy as np

from repro.core.operations import OperationLog, ScalingOp
from repro.core.scaddar import ScaddarMapper
from repro.placement.base import PlacementPolicy
from repro.placement.consistent_hash import ConsistentHashPolicy
from repro.placement.directory import DirectoryPolicy
from repro.placement.jump_hash import JumpHashPolicy
from repro.placement.pseudo_random import ScaddarPolicy
from repro.placement.sequential_checking import SequentialCheckingPolicy
from repro.placement.straw import StrawPolicy
from repro.placement.weighted_straw import WeightedStrawPolicy
from repro.storage.block import BlockId


class UnknownBackendError(KeyError):
    """Raised when a backend name is not in the registry."""


class ScaddarBackend(ScaddarPolicy):
    """SCADDAR as a server backend: exact RF() planning on the engine.

    Inherits the vectorized ``locate_batch`` from
    :class:`~repro.placement.pseudo_random.ScaddarPolicy` and adds the
    pieces the server needs beyond lookups: the engine's exact
    redistribution plan (no candidate over-reporting), the Lemma 4.3
    reshuffle lifecycle, and ``from_mapper`` adoption for restore paths
    that already hold a replayed :class:`ScaddarMapper`.
    """

    name = "scaddar"

    @classmethod
    def from_mapper(cls, mapper: ScaddarMapper) -> "ScaddarBackend":
        """Adopt an existing mapper (seeds + op log are its identity)."""
        backend = cls(mapper.log.n0, bits=mapper.bits)
        for op in mapper.log:
            backend.log.append(op)
        backend.mapper = mapper
        backend._engine = None
        return backend

    def plan_moves(
        self,
        op: ScalingOp,
        block_ids: Optional[Sequence[BlockId]],
        x0s: np.ndarray,
        eps: Optional[float] = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Apply ``op`` and return exactly the blocks RF() relocates."""
        self.apply(op, eps=eps)
        indices, __, targets = self.engine.redistribution_moves_batch(x0s)
        return indices, targets

    def reshuffle(self) -> None:
        """Fresh seeds era: new mapper for the current disk count, empty
        log, reset randomness budget (the paper's full redistribution)."""
        self.mapper = self.mapper.reshuffled()
        self._engine = None
        self.log = OperationLog(n0=self.mapper.current_disks)

    def needs_reshuffle(self, eps: float) -> bool:
        return self.mapper.needs_reshuffle(eps)

    def budget_remaining(self, eps: float, group_size: int = 1) -> Optional[int]:
        return self.mapper.remaining_operations(eps, group_size=group_size)


#: Backend name -> policy class.  Keys are the names recorded in
#: snapshots, accepted by ``CMServer(backend=...)``, and listed by the
#: CLI; values implement the full backend API.
BACKENDS: dict[str, type[PlacementPolicy]] = {
    ScaddarBackend.name: ScaddarBackend,
    JumpHashPolicy.name: JumpHashPolicy,
    ConsistentHashPolicy.name: ConsistentHashPolicy,
    DirectoryPolicy.name: DirectoryPolicy,
    SequentialCheckingPolicy.name: SequentialCheckingPolicy,
    StrawPolicy.name: StrawPolicy,
    WeightedStrawPolicy.name: WeightedStrawPolicy,
}


def _lookup(name: str) -> type[PlacementPolicy]:
    try:
        return BACKENDS[name]
    except KeyError:
        raise UnknownBackendError(
            f"unknown placement backend {name!r}; registered backends: "
            f"{sorted(BACKENDS)}"
        ) from None


def make_backend(name: str, n0: int, bits: int = 64) -> PlacementPolicy:
    """Instantiate a fresh backend by registry name.

    Raises
    ------
    UnknownBackendError
        When ``name`` is not registered.
    """
    return _lookup(name).create(n0, bits=bits)


def backend_from_payload(name: str, payload: dict) -> PlacementPolicy:
    """Restore a backend from its snapshot payload.

    Raises
    ------
    UnknownBackendError
        When ``name`` is not registered (e.g. a snapshot written by a
        build with more backends).
    """
    return _lookup(name).from_payload(payload)
