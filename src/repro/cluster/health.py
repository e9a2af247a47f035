"""Per-shard health: the disk state machine, one level up.

The cluster's view of its shards mirrors the serving path's view of the
array's disks (:mod:`repro.server.health`): each shard walks the same
four-state machine::

    healthy --breaker trips--> suspect --probe succeeds--> healthy
    healthy/suspect --death--> dead --rebuild begins--> (detached)
    (spawned replacement) ----------------------------> healthy

with one structural difference — a dead *disk* is rebuilt in place by
the scrubber, while a dead *shard* is rebuilt by a journaled rebalance
that evacuates its objects onto surviving shards and detaches it
(:meth:`~repro.cluster.coordinator.ClusterCoordinator.begin_shard_rebuild`),
so ``REBUILDING`` here marks a dead shard whose evacuation is in flight.

*Suspect* reuses :class:`~repro.server.health.CircuitBreaker` verbatim:
the same trip-after-K / capped-doubling-cooldown / one-half-open-probe
discipline, with the cluster round index as the clock.  The failover
read path (:meth:`~repro.cluster.coordinator.ClusterCoordinator.route_read`)
adds its own per-read retry budget on top — retries with capped
exponential backoff against the home shard, bounded by a per-shard
timeout budget, before falling over to a replica.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple, Optional

from repro.server.faults import derive_seed
from repro.server.health import CircuitBreaker, HealthTransitionError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import ObsHandle

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


class ShardHealth(Enum):
    """Serving-path health of one shard."""

    HEALTHY = "healthy"
    SUSPECT = "suspect"
    DEAD = "dead"
    REBUILDING = "rebuilding"


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


class ClusterHealthMonitor:
    """Tracks every shard's health state and circuit breaker.

    The cluster twin of :class:`~repro.server.health.DiskHealthMonitor`:
    same breaker tuning knobs, same transition log, same obs event
    shapes under ``cluster.``-prefixed kinds (shards are identified by
    stable id, which is already seed-stable — no logical translation
    needed).
    """

    def __init__(
        self,
        trip_after: int = 3,
        cooldown_rounds: int = 4,
        max_cooldown_rounds: int = 64,
        obs: Optional["ObsHandle"] = None,
    ):
        from repro.obs import NULL_OBS

        self._trip_after = trip_after
        self._cooldown = cooldown_rounds
        self._max_cooldown = max_cooldown_rounds
        self.obs = obs if obs is not None else NULL_OBS
        self._states: dict[int, ShardHealth] = {}
        self._breakers: dict[int, CircuitBreaker] = {}
        #: Cumulative state-transition log: (shard_id, from, to).
        self.transitions: list[tuple[int, ShardHealth, ShardHealth]] = []

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def state(self, shard_id: int) -> ShardHealth:
        """Current health of a shard (healthy until told otherwise)."""
        return self._states.get(shard_id, ShardHealth.HEALTHY)

    def breaker(self, shard_id: int) -> CircuitBreaker:
        """The shard's circuit breaker (created on first touch)."""
        breaker = self._breakers.get(shard_id)
        if breaker is None:
            breaker = CircuitBreaker(
                self._trip_after, self._cooldown, self._max_cooldown
            )
            self._breakers[shard_id] = breaker
        return breaker

    def is_readable(self, shard_id: int, round_index: int) -> bool:
        """Whether the routing path may try this shard this round.

        Dead and rebuilding shards never serve; suspect shards serve
        only the breaker's half-open probe.
        """
        state = self.state(shard_id)
        if state in (ShardHealth.DEAD, ShardHealth.REBUILDING):
            return False
        return self.breaker(shard_id).allows(round_index)

    def is_live(self, shard_id: int) -> bool:
        """Whether the shard holds readable data (not dead/rebuilding).

        Suspect shards are *live* — their copies still exist and the
        breaker may re-admit them — they are just not currently
        preferred.  Replica placement and repair use this predicate.
        """
        return self.state(shard_id) not in (
            ShardHealth.DEAD,
            ShardHealth.REBUILDING,
        )

    def serves_unimpeded(self, shard_id: int) -> bool:
        """Whether reads routed to this shard need no per-read health
        machinery (healthy, breaker quiescent) — the predicate that
        keeps the all-healthy batch routing path allocation-free."""
        if self.state(shard_id) is not ShardHealth.HEALTHY:
            return False
        breaker = self._breakers.get(shard_id)
        return breaker is None or breaker.is_quiescent

    def all_unimpeded(self, shard_ids) -> bool:
        """Whether every given shard serves unimpeded (fast-path gate)."""
        return all(self.serves_unimpeded(sid) for sid in shard_ids)

    def snapshot(self) -> dict[int, str]:
        """Health state of every shard ever observed, by stable id."""
        return {sid: state.value for sid, state in sorted(self._states.items())}

    def shards_in(self, state: ShardHealth) -> list[int]:
        """Stable ids currently recorded in the given state, sorted."""
        return sorted(
            sid for sid, current in self._states.items() if current is state
        )

    # ------------------------------------------------------------------
    # Observations / transitions
    # ------------------------------------------------------------------
    def observe_success(self, shard_id: int) -> None:
        """A read from the shard succeeded (closes the breaker; a
        suspect shard whose probe succeeded returns to healthy)."""
        breaker = self.breaker(shard_id)
        was_open = breaker.is_open
        breaker.record_success()
        if was_open and self.obs.enabled:
            self.obs.event("cluster.breaker.probe", shard=shard_id, ok=True)
        if self.state(shard_id) is ShardHealth.SUSPECT:
            self._transition(shard_id, ShardHealth.HEALTHY)

    def observe_failure(self, shard_id: int, round_index: int) -> None:
        """A read from the shard failed; trips the breaker after K in a
        row, demoting the shard to suspect."""
        breaker = self.breaker(shard_id)
        tripped = breaker.record_failure(round_index)
        if tripped and self.obs.enabled:
            self.obs.event(
                "cluster.breaker.trip",
                shard=shard_id,
                round=round_index,
                trips=breaker.trips,
                cooldown=breaker.current_cooldown,
            )
        if tripped and self.state(shard_id) is ShardHealth.HEALTHY:
            self._transition(shard_id, ShardHealth.SUSPECT)

    def mark_dead(self, shard_id: int) -> None:
        """The shard died (process loss, machine loss — data on it is
        unreachable until a rebuild re-replicates it elsewhere)."""
        if self.state(shard_id) is not ShardHealth.DEAD:
            self._transition(shard_id, ShardHealth.DEAD)

    def begin_rebuild(self, shard_id: int) -> None:
        """A journaled rebuild of the dead shard's objects started."""
        if self.state(shard_id) is not ShardHealth.DEAD:
            raise HealthTransitionError(
                f"shard {shard_id} is {self.state(shard_id).value}, not "
                "dead; only dead shards can begin rebuilding"
            )
        self._transition(shard_id, ShardHealth.REBUILDING)

    def mark_healthy(self, shard_id: int) -> None:
        """A suspect shard recovered (dead shards never do — they are
        rebuilt away and detached instead)."""
        state = self.state(shard_id)
        if state in (ShardHealth.DEAD, ShardHealth.REBUILDING):
            raise HealthTransitionError(
                f"shard {shard_id} is {state.value}; dead shards are "
                "evacuated and detached, not revived"
            )
        breaker = self.breaker(shard_id)
        breaker.record_success()
        if state is not ShardHealth.HEALTHY:
            self._transition(shard_id, ShardHealth.HEALTHY)

    def forget(self, shard_id: int) -> None:
        """Drop a detached shard's records (transitions log kept)."""
        self._states.pop(shard_id, None)
        self._breakers.pop(shard_id, None)

    def new_round(self) -> None:
        """Advance per-round breaker state (one half-open probe each)."""
        for breaker in self._breakers.values():
            breaker.new_round()

    def _transition(self, shard_id: int, to: ShardHealth) -> None:
        state = self.state(shard_id)
        self.transitions.append((shard_id, state, to))
        self._states[shard_id] = to
        if self.obs.enabled:
            self.obs.event(
                "cluster.health.transition",
                shard=shard_id,
                old=state.value,
                new=to.value,
            )
