"""Per-disk health and the scrubber.

The serving path's view of the array's disks.  Each physical disk walks
the four-state machine of :mod:`repro.health`, with one
:class:`~repro.health.CircuitBreaker` per disk::

    healthy --breaker trips--> suspect --probe succeeds--> healthy
    healthy/suspect --death--> dead --replacement installed--> rebuilding
    rebuilding --scrub completes--> healthy

A dead disk is rebuilt in place: only installing a replacement
(``begin_rebuild``) leaves *dead*, and the replacement serves no reads
until the :class:`Scrubber` has re-verified every resident block and
promoted it back to *healthy*.

The scrubber also runs in steady state: it walks the whole block
population at a bounded rate per round, verifies primary/mirror
agreement (divergence is injected by
:meth:`~repro.server.faults.FaultInjector.scrub_check`), and
read-repairs what it finds — the background repair loop that keeps
"degraded" a transient condition instead of a ratchet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.health import CircuitBreaker as CircuitBreaker
from repro.health import Health, HealthMonitor
from repro.health import HealthTransitionError as HealthTransitionError
from repro.storage.array import DiskArray
from repro.storage.block import BlockId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import ObsHandle
    from repro.server.faults import FaultInjector


#: A disk's health state: the one :class:`~repro.health.Health` enum.
DiskHealth = Health


class DiskHealthMonitor(HealthMonitor):
    """Tracks every disk's health state and circuit breaker.

    The shared :class:`~repro.health.HealthMonitor`, keyed by physical
    disk id.  A rebuilding disk is rebuilt in place: the
    :class:`Scrubber` marks it healthy once every resident block is
    re-verified.  Events are keyed ``disk=`` with the disk's logical
    position.

    Parameters
    ----------
    array:
        The disk array being monitored (new disks are picked up lazily).
    trip_after / cooldown_rounds / max_cooldown_rounds:
        Breaker tuning, applied to every disk.
    obs:
        Optional observability handle; state transitions emit
        ``health.transition`` events, breaker trips ``breaker.trip``
        (with the post-trip cooldown) and closing probes
        ``breaker.probe``.
    """

    member_key = "disk"
    revive_hint = (
        "install a replacement (begin_rebuild) before marking it healthy"
    )

    def __init__(
        self,
        array: DiskArray,
        trip_after: int = 3,
        cooldown_rounds: int = 4,
        max_cooldown_rounds: int = 64,
        obs: Optional["ObsHandle"] = None,
    ):
        super().__init__(trip_after, cooldown_rounds, max_cooldown_rounds, obs)
        self.array = array

    def snapshot(self) -> dict[int, str]:
        """Health state of every disk currently in the array."""
        return {
            pid: self.state(pid).value for pid in self.array.physical_ids
        }

    def disks_in(self, state: DiskHealth) -> list[int]:
        """Physical ids currently in the given state, sorted."""
        return sorted(
            pid
            for pid in self.array.physical_ids
            if self.state(pid) is state
        )

    def _label(self, physical_id: int) -> int:
        """The disk's logical position, for event payloads.

        Physical ids come from a process-global counter, so two seeded
        runs in one process get different raw ids; the logical position
        is seed-stable, keeping ``deterministic_view`` comparisons exact.
        Falls back to -1 for a disk no longer in the array.
        """
        try:
            return self.array.logical_of(physical_id)
        except KeyError:
            return -1


@dataclass
class ScrubReport:
    """What one scrub round did."""

    round_index: int
    #: Background verifications performed (primary/mirror comparisons).
    checked: int = 0
    #: Divergent blocks read-repaired.
    repaired: int = 0
    #: Blocks copied onto rebuilding disks this round.
    rebuilt_blocks: int = 0
    #: Disks promoted rebuilding -> healthy this round.
    completed_disks: list[int] = field(default_factory=list)


class Scrubber:
    """Background verify/repair loop, bounded blocks per round.

    Two jobs, rebuild first:

    1. **Rebuild** — for every ``rebuilding`` disk, re-copy up to the
       round's budget of its resident blocks from their surviving
       replicas; when the whole inventory is re-verified the disk is
       promoted to ``healthy``.
    2. **Patrol** — spend any leftover budget walking the global block
       population in block-id order, comparing primary and mirror copies
       (the injector decides divergence) and read-repairing mismatches.

    Parameters
    ----------
    array:
        The disk array being scrubbed.
    monitor:
        The health monitor (the scrubber drives its
        ``rebuilding -> healthy`` edge).
    rate_per_round:
        Max blocks touched per round (rebuild copies + patrol checks) —
        the knob that keeps scrubbing from starving stream service.
    injector:
        Optional fault injector supplying deterministic divergence.
    on_repair:
        Optional callback ``(block_id) -> None`` invoked per repair
        (metrics hooks).
    """

    def __init__(
        self,
        array: DiskArray,
        monitor: DiskHealthMonitor,
        rate_per_round: int = 8,
        injector: Optional["FaultInjector"] = None,
        on_repair: Optional[Callable[[BlockId], None]] = None,
    ):
        if rate_per_round < 1:
            raise ValueError(
                f"rate_per_round must be >= 1, got {rate_per_round}"
            )
        self.array = array
        self.monitor = monitor
        self.rate_per_round = rate_per_round
        self.injector = injector
        self.on_repair = on_repair
        self.total_checked = 0
        self.total_repaired = 0
        self.total_rebuilt = 0
        self._rebuild_done: dict[int, int] = {}
        self._patrol_cursor = 0
        self._population_cache: list[BlockId] = []
        self._population_version = -1

    def rebuild_progress(self, physical_id: int) -> float:
        """Fraction of a rebuilding disk's inventory re-verified so far
        (1.0 for any disk not currently rebuilding)."""
        if self.monitor.state(physical_id) is not DiskHealth.REBUILDING:
            return 1.0
        resident = self.array.resident_on(physical_id)
        if resident == 0:
            return 1.0
        return min(1.0, self._rebuild_done.get(physical_id, 0) / resident)

    def run_round(self, round_index: int) -> ScrubReport:
        """One scrub round under the configured rate budget."""
        report = ScrubReport(round_index=round_index)
        budget = self.rate_per_round

        for pid in self.monitor.disks_in(DiskHealth.REBUILDING):
            if budget <= 0:
                break
            resident = self.array.resident_on(pid)
            done = self._rebuild_done.get(pid, 0)
            step = min(budget, resident - done)
            if step > 0:
                done += step
                budget -= step
                self._rebuild_done[pid] = done
                report.rebuilt_blocks += step
                self.total_rebuilt += step
            if done >= resident:
                self.monitor.mark_healthy(pid)
                self._rebuild_done.pop(pid, None)
                report.completed_disks.append(pid)

        if budget > 0:
            population = self._population()
            while budget > 0 and population:
                self._patrol_cursor %= len(population)
                block_id = population[self._patrol_cursor]
                self._patrol_cursor += 1
                budget -= 1
                report.checked += 1
                self.total_checked += 1
                if self.injector is not None and self.injector.scrub_check():
                    report.repaired += 1
                    self.total_repaired += 1
                    if self.on_repair is not None:
                        self.on_repair(block_id)
        return report

    def _population(self) -> list[BlockId]:
        """All resident blocks in deterministic (block-id) order.

        The scan is O(total blocks) so the result is cached against the
        array's :attr:`~repro.storage.array.DiskArray.inventory_version`;
        block moves keep the membership (and thus this list) unchanged,
        so only place/drop invalidate it.
        """
        version = self.array.inventory_version
        if version != self._population_version:
            self._population_cache = self.array.resident_ids()
            self._population_version = version
        return self._population_cache
