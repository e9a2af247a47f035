"""Per-shard health and the failover read path's building blocks.

The cluster's view of its shards mirrors the serving path's view of the
array's disks: each shard walks the four-state machine of
:mod:`repro.health`, with one :class:`~repro.health.CircuitBreaker` per
shard and the cluster round index as the clock::

    healthy --breaker trips--> suspect --probe succeeds--> healthy
    healthy/suspect --death--> dead --rebuild begins--> (detached)
    (spawned replacement) ----------------------------> healthy

with one structural difference — a dead *disk* is rebuilt in place by
the scrubber, while a dead *shard* is rebuilt by a journaled rebalance
that evacuates its objects onto surviving shards and detaches it
(:meth:`~repro.cluster.coordinator.ClusterCoordinator.begin_shard_rebuild`),
so ``REBUILDING`` here marks a dead shard whose evacuation is in flight,
and a rebuilding shard is forgotten, never marked healthy.

The failover read path
(:meth:`~repro.cluster.coordinator.ClusterCoordinator.route_read`)
adds its own per-read retry budget on top of the breakers — retries
with capped exponential backoff against the home shard, bounded by a
per-shard timeout budget, before falling over to a replica.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import NamedTuple

from repro.health import Health, HealthMonitor
from repro.server.faults import derive_seed

__all__ = [
    "ClusterFaultInjector",
    "ClusterHealthMonitor",
    "FailoverConfig",
    "ObjectUnavailableError",
    "ReadRoute",
    "ShardHealth",
]

#: Seed-derivation salt for the cluster-level read-fault stream (its own
#: branch, decorrelated from the per-shard injector branches).
_CLUSTER_READ_SALT = 0x5AAD_0003


#: A shard's health state: the one :class:`~repro.health.Health` enum.
ShardHealth = Health


class ObjectUnavailableError(Exception):
    """No live copy of the object could serve the read."""


@dataclass(frozen=True)
class FailoverConfig:
    """Retry/timeout/backoff budget for one routed read.

    Parameters
    ----------
    max_attempts:
        Read attempts against one shard before falling over to the next
        copy.
    base_backoff_rounds:
        Rounds charged after the first failed attempt; doubles per
        retry (capped exponential backoff).
    max_backoff_rounds:
        Backoff growth cap.
    timeout_budget_rounds:
        Total backoff rounds one routed read may consume across its
        **whole** failover path (home plus every replica); when a
        retry's backoff would exceed what is left, the read falls over
        immediately instead of waiting out the full attempt count.
        Once spent, each remaining copy still gets one backoff-free
        attempt, so a long replica chain never waits
        ``copies x budget`` rounds.
    """

    max_attempts: int = 3
    base_backoff_rounds: int = 1
    max_backoff_rounds: int = 8
    timeout_budget_rounds: int = 12

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_backoff_rounds < 1:
            raise ValueError(
                "base_backoff_rounds must be >= 1, got "
                f"{self.base_backoff_rounds}"
            )
        if self.max_backoff_rounds < self.base_backoff_rounds:
            raise ValueError(
                f"max_backoff_rounds {self.max_backoff_rounds} < "
                f"base_backoff_rounds {self.base_backoff_rounds}"
            )
        if self.timeout_budget_rounds < 0:
            raise ValueError(
                "timeout_budget_rounds must be >= 0, got "
                f"{self.timeout_budget_rounds}"
            )


class ReadRoute(NamedTuple):
    """Where one routed read landed and what it cost getting there.

    ``path`` lists every shard considered in order (the home shard
    first); ``shard_id`` is the one that served.  ``backoff_rounds`` is
    the total backoff charged across retries — the latency the retry
    policy spent before giving up or succeeding.  Immutable; a named
    tuple because every admission builds one.
    """

    object_id: int
    shard_id: int
    attempts: int
    backoff_rounds: int
    failed_over: bool
    path: tuple[int, ...]


class ClusterFaultInjector:
    """Seeded per-shard read-failure streams for the failover path.

    Mirrors the per-shard :class:`~repro.server.faults.FaultInjector`
    discipline one level up: every shard draws from its own RNG stream
    derived from the cluster master seed **with the shard id in the
    path**, so enabling faults on one shard never perturbs another's
    schedule and same-seed runs are bit-reproducible.
    """

    def __init__(self, master_seed: int = 0, read_error_rate: float = 0.0):
        if not 0.0 <= read_error_rate <= 1.0:
            raise ValueError(
                f"read_error_rate must be in [0, 1], got {read_error_rate}"
            )
        self.master_seed = master_seed
        self.read_error_rate = read_error_rate
        self.read_errors = 0
        self._streams: dict[int, random.Random] = {}

    def _stream(self, shard_id: int) -> random.Random:
        stream = self._streams.get(shard_id)
        if stream is None:
            seed = derive_seed(
                derive_seed(self.master_seed, _CLUSTER_READ_SALT), shard_id
            )
            stream = random.Random(seed)
            self._streams[shard_id] = stream
        return stream

    def read_error(self, shard_id: int) -> bool:
        """Whether this shard read attempt fails (advances the stream)."""
        if self.read_error_rate <= 0.0:
            return False
        failed = self._stream(shard_id).random() < self.read_error_rate
        if failed:
            self.read_errors += 1
        return failed


class ClusterHealthMonitor(HealthMonitor):
    """Tracks every shard's health state and circuit breaker.

    The shared :class:`~repro.health.HealthMonitor`, keyed by stable
    shard id, which is already seed-stable, so events carry it as is
    (``shard=``) under ``cluster.``-prefixed kinds.  A rebuilding shard
    is evacuated and detached, then :meth:`forget`-ed; it is never
    marked healthy.
    """

    event_prefix = "cluster."
    member_key = "shard"
    rebuilt_in_place = False
    revive_hint = "dead shards are evacuated and detached, not revived"

    def shards_in(self, state: ShardHealth) -> list[int]:
        """Stable ids currently recorded in the given state, sorted."""
        return sorted(
            sid for sid, current in self._states.items() if current is state
        )
