"""The health core: one state machine for every layer's members.

The serving path keeps a health state per disk
(:class:`repro.server.health.DiskHealthMonitor`) and the cluster keeps
one per shard (:class:`repro.cluster.health.ClusterHealthMonitor`).
Both walk the same four-state machine::

    healthy --breaker trips--> suspect --probe succeeds--> healthy
    healthy/suspect --death--> dead --rebuild begins--> rebuilding

*Suspect* is reversible (a flaky cable, a firmware stall, a slow
process): a per-member :class:`CircuitBreaker` trips after
``trip_after`` consecutive read failures, blocks further reads for a
cooldown that doubles on every re-trip (capped exponential backoff),
then lets exactly one *half-open* probe through; success closes the
breaker, failure re-opens it.  *Dead* is not: only a rebuild leaves it,
and a rebuilding member serves no reads.

:class:`HealthMonitor` owns everything the layers share: the states,
the breakers, the guarded transitions, the transition log and the obs
events.  A layer subclass sets only class-level data — the event-kind
prefix, the payload key that names the member, and whether a
rebuilding member is rebuilt in place (a disk: the scrubber marks it
healthy) or evacuated and detached (a shard: it is forgotten) — plus
how it lists its members and labels them in events.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, Any, ClassVar, Iterable, Optional

from repro.obs import NULL_OBS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import ObsHandle


class Health(Enum):
    """Serving-path health of one member (a disk or a shard)."""

    HEALTHY = "healthy"
    SUSPECT = "suspect"
    DEAD = "dead"
    REBUILDING = "rebuilding"


_HEALTHY = Health.HEALTHY
#: States whose member holds no readable data.
_DOWN = (Health.DEAD, Health.REBUILDING)


class CircuitBreaker:
    """Trip-after-K breaker with capped exponential cooldown.

    Parameters
    ----------
    trip_after:
        Consecutive failures that open the breaker.
    cooldown_rounds:
        Rounds the breaker stays open before allowing one half-open
        probe.  Doubles on every consecutive re-trip, capped at
        ``max_cooldown_rounds`` — the read path's exponential backoff.
    max_cooldown_rounds:
        Cooldown growth cap.
    """

    def __init__(
        self,
        trip_after: int = 3,
        cooldown_rounds: int = 4,
        max_cooldown_rounds: int = 64,
    ):
        if trip_after < 1:
            raise ValueError(f"trip_after must be >= 1, got {trip_after}")
        if cooldown_rounds < 1:
            raise ValueError(
                f"cooldown_rounds must be >= 1, got {cooldown_rounds}"
            )
        if max_cooldown_rounds < cooldown_rounds:
            raise ValueError(
                f"max_cooldown_rounds {max_cooldown_rounds} < "
                f"cooldown_rounds {cooldown_rounds}"
            )
        self.trip_after = trip_after
        self.base_cooldown = cooldown_rounds
        self.max_cooldown = max_cooldown_rounds
        self.consecutive_failures = 0
        self.trips = 0
        self._open_since: Optional[int] = None
        self._cooldown = cooldown_rounds
        self._probing = False

    @property
    def is_open(self) -> bool:
        """Whether the breaker currently blocks reads."""
        return self._open_since is not None

    @property
    def is_quiescent(self) -> bool:
        """Closed, with no partial failure streak and the base cooldown.

        On a quiescent breaker ``allows()`` is True and
        ``record_success()`` changes no state — the property the
        vectorized degraded path relies on to serve a disk's reads
        wholesale without touching its breaker per read.
        """
        return (
            self._open_since is None
            and self.consecutive_failures == 0
            and self._cooldown == self.base_cooldown
            and not self._probing
        )

    @property
    def current_cooldown(self) -> int:
        """Rounds the breaker waits before its next half-open probe.

        Starts at ``base_cooldown``, doubles on every failed half-open
        probe, caps at ``max_cooldown``, and resets to the base on any
        success — the property the backoff Hypothesis test pins.
        """
        return self._cooldown

    def allows(self, round_index: int) -> bool:
        """Whether a read may be attempted this round.

        Open breakers admit exactly one probe per round once the
        cooldown has elapsed (the half-open state).
        """
        if self._open_since is None:
            return True
        if round_index - self._open_since < self._cooldown:
            return False
        if self._probing:
            return False
        self._probing = True
        return True

    def record_success(self) -> None:
        """A read succeeded: close the breaker, reset the backoff."""
        self.consecutive_failures = 0
        self._open_since = None
        self._cooldown = self.base_cooldown
        self._probing = False

    def record_failure(self, round_index: int) -> bool:
        """A read failed; returns True when this failure trips the
        breaker (closed -> open, or a half-open probe re-opening it)."""
        self.consecutive_failures += 1
        if self._open_since is not None:
            # A failed half-open probe: re-open with doubled cooldown.
            self.trips += 1
            self._open_since = round_index
            self._cooldown = min(self._cooldown * 2, self.max_cooldown)
            self._probing = False
            return True
        if self.consecutive_failures >= self.trip_after:
            self.trips += 1
            self._open_since = round_index
            self._probing = False
            return True
        return False

    def new_round(self) -> None:
        """Reset the one-probe-per-round latch."""
        self._probing = False


class HealthTransitionError(Exception):
    """Raised on an illegal health-state transition."""


class HealthMonitor:
    """Tracks every member's health state and circuit breaker.

    Members are keyed by an integer id and are healthy until told
    otherwise; a breaker is created on a member's first observation.

    Parameters
    ----------
    trip_after / cooldown_rounds / max_cooldown_rounds:
        Breaker tuning, applied to every member.
    obs:
        Optional observability handle; state transitions emit
        ``health.transition`` events, breaker trips ``breaker.trip``
        (with the post-trip cooldown) and closing probes
        ``breaker.probe`` — each kind under the layer's
        :attr:`event_prefix`, keyed by its :attr:`member_key`.
    """

    #: Prefix of every event kind this monitor emits.
    event_prefix: ClassVar[str] = ""
    #: Event payload key naming the member, and its noun in errors.
    member_key: ClassVar[str] = "member"
    #: Whether a rebuilding member may be marked healthy: rebuilt in
    #: place, rather than evacuated and detached (then forgotten).
    rebuilt_in_place: ClassVar[bool] = True
    #: The error's hint when a member cannot be marked healthy.
    revive_hint: ClassVar[str] = "only a rebuild leaves the dead state"

    def __init__(
        self,
        trip_after: int = 3,
        cooldown_rounds: int = 4,
        max_cooldown_rounds: int = 64,
        obs: Optional["ObsHandle"] = None,
    ):
        self._trip_after = trip_after
        self._cooldown = cooldown_rounds
        self._max_cooldown = max_cooldown_rounds
        self.obs = obs if obs is not None else NULL_OBS
        self._states: dict[int, Health] = {}
        self._breakers: dict[int, CircuitBreaker] = {}
        #: Cumulative state-transition log: (member id, from, to).
        self.transitions: list[tuple[int, Health, Health]] = []

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def state(self, member_id: int) -> Health:
        """Current health state of a member (healthy until told otherwise)."""
        return self._states.get(member_id, _HEALTHY)

    def breaker(self, member_id: int) -> CircuitBreaker:
        """The member's circuit breaker (created on first touch)."""
        breaker = self._breakers.get(member_id)
        if breaker is None:
            breaker = CircuitBreaker(
                self._trip_after, self._cooldown, self._max_cooldown
            )
            self._breakers[member_id] = breaker
        return breaker

    def is_live(self, member_id: int) -> bool:
        """Whether the member holds readable data (not dead/rebuilding).

        Suspect members are *live* — their data still exists and the
        breaker may re-admit them — they are just not currently
        preferred.  Replica placement and repair use this predicate.
        """
        return self._states.get(member_id, _HEALTHY) not in _DOWN

    def is_readable(self, member_id: int, round_index: int) -> bool:
        """Whether the serving path may read this member this round.

        Dead and rebuilding members never serve; suspect members serve
        only the breaker's half-open probe.
        """
        live = self.is_live(member_id)
        return live and self.breaker(member_id).allows(round_index)

    def serves_unimpeded(self, member_id: int) -> bool:
        """Whether a successful read from this member needs no per-read
        health machinery this round.

        True when the member is healthy and its breaker (if one was ever
        created) is quiescent: ``is_readable`` would be True and
        ``observe_success`` would be a state no-op, so a vectorized path
        can serve all of the member's reads in one batch.  Deliberately
        does *not* create a breaker.
        :meth:`~repro.cluster.coordinator.ClusterCoordinator._serves_unimpeded`
        reads the same two dicts inline, once per admission; keep the
        two in step.
        """
        if self._states.get(member_id, _HEALTHY) is not _HEALTHY:
            return False
        breaker = self._breakers.get(member_id)
        return breaker is None or breaker.is_quiescent

    def all_unimpeded(self, member_ids: Iterable[int]) -> bool:
        """Whether every given member serves unimpeded (fast-path gate)."""
        return all(self.serves_unimpeded(mid) for mid in member_ids)

    # ------------------------------------------------------------------
    # Observations / transitions
    # ------------------------------------------------------------------
    def observe_success(self, member_id: int) -> None:
        """A read from the member succeeded (closes the breaker; a
        suspect member whose probe succeeded returns to healthy)."""
        breaker = self.breaker(member_id)
        was_open = breaker.is_open
        breaker.record_success()
        if was_open and self.obs.enabled:
            self._event("breaker.probe", member_id, ok=True)
        if self.state(member_id) is Health.SUSPECT:
            self._transition(member_id, _HEALTHY)

    def observe_failure(self, member_id: int, round_index: int) -> None:
        """A read from the member failed; trips the breaker after K in a
        row, demoting the member to suspect."""
        breaker = self.breaker(member_id)
        tripped = breaker.record_failure(round_index)
        if tripped and self.obs.enabled:
            self._event(
                "breaker.trip",
                member_id,
                round=round_index,
                trips=breaker.trips,
                cooldown=breaker.current_cooldown,
            )
        if tripped and self.state(member_id) is _HEALTHY:
            self._transition(member_id, Health.SUSPECT)

    def mark_dead(self, member_id: int) -> None:
        """The member died: its data is unreachable until a rebuild."""
        if self.state(member_id) is not Health.DEAD:
            self._transition(member_id, Health.DEAD)

    def begin_rebuild(self, member_id: int) -> None:
        """A rebuild of the dead member started."""
        state = self.state(member_id)
        if state is not Health.DEAD:
            raise HealthTransitionError(
                f"{self.member_key} {member_id} is {state.value}, not "
                f"dead; only dead {self.member_key}s can begin rebuilding"
            )
        self._transition(member_id, Health.REBUILDING)

    def mark_healthy(self, member_id: int) -> None:
        """A suspect member recovered, or one rebuilt in place is whole."""
        state = self.state(member_id)
        if state is Health.DEAD or (
            state is Health.REBUILDING and not self.rebuilt_in_place
        ):
            raise HealthTransitionError(
                f"{self.member_key} {member_id} is {state.value}; "
                + self.revive_hint
            )
        self.breaker(member_id).record_success()
        if state is not _HEALTHY:
            self._transition(member_id, _HEALTHY)

    def forget(self, member_id: int) -> None:
        """Drop a detached member's records (transitions log kept)."""
        self._states.pop(member_id, None)
        self._breakers.pop(member_id, None)

    def new_round(self) -> None:
        """Advance per-round breaker state (one half-open probe each)."""
        for breaker in self._breakers.values():
            breaker.new_round()

    def _label(self, member_id: int) -> int:
        """The member's seed-stable id for event payloads."""
        return member_id

    def _event(self, kind: str, member_id: int, **fields: Any) -> None:
        self.obs.event(
            self.event_prefix + kind,
            **{self.member_key: self._label(member_id)},
            **fields,
        )

    def _transition(self, member_id: int, to: Health) -> None:
        state = self.state(member_id)
        self.transitions.append((member_id, state, to))
        self._states[member_id] = to
        if self.obs.enabled:
            self._event(
                "health.transition", member_id, old=state.value, new=to.value
            )
