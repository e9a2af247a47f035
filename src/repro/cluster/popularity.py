"""Popularity-aware replication: demand tracking and per-object targets.

PR 9 made protection uniform — one ``replication_factor`` for every
object — even though the Zipf workloads in :mod:`repro.workloads` put
most traffic on a few hot objects.  This module turns replica degree
into an *optimizer* over a fixed storage budget:

* :class:`DemandTracker` — a decaying per-object demand counter.  The
  coordinator feeds it from every routed read
  (:meth:`~repro.cluster.coordinator.ClusterCoordinator.route_read` /
  ``route_reads``), every admitted stream and each serving round's
  live-stream demand;
  what it sees is mirrored into the obs counters
  (``cluster.demand.units``), so the tracker's input signal is the same
  one the PR 5 observability layer exports.  Decay is *lazy*: a score
  is stored with the round it was last touched and brought forward by
  ``decay ** elapsed`` on read, so idle objects cost nothing per round
  and same-seed runs reproduce scores bit-identically (no wall clock
  anywhere).
* :class:`ReplicationPolicy` — maps demand to a target copy count per
  object inside a fixed **total-copy budget** (primaries included).
  Extra copies beyond one-per-object are apportioned by highest-
  averages (D'Hondt): the next copy goes to the object with the
  largest ``demand / copies_held``, ties broken by object id, floors at
  :attr:`~ReplicationPolicy.floor` and ceilings at the number of live
  failure domains (two copies in one domain add nothing a domain
  failure respects).  **Hysteresis** keeps targets calm: a computed
  target must persist for ``hysteresis_rounds`` consecutive evaluations
  before it is committed, so demand noise never thrashes copies.

The :class:`~repro.cluster.replication.ClusterReplicationManager` owns
reconciliation: its rate-bounded ``adapt()`` pass (the Scrubber
discipline one level up) commits targets through the policy and then
creates/evicts a bounded number of copies per round, hot objects first.
Policy state — committed targets, hysteresis streaks, tracker scores —
persists in cluster manifest v3 and round-trips bit-exactly.
"""

from __future__ import annotations

import heapq
from typing import Any, Optional, Sequence

import numpy as np

__all__ = ["DemandTracker", "ReplicationPolicy"]

def _add_units(scores: np.ndarray, units: np.ndarray) -> np.ndarray:
    """``scores[i] + 1.0 + ... + 1.0`` (``units[i]`` additions), rounded
    exactly as that many one-unit additions made one at a time.

    Adding 1.0 to a float below 2**53 is exact until the sum crosses a
    power of two; only the crossing addition can round.  So each pass
    jumps every score to just below its next power of two in one exact
    add, then performs the crossing add itself — a few passes per
    binade crossed, not one per unit.
    """
    scores = scores.copy()
    units = units.copy()
    todo = np.flatnonzero(units)
    while todo.size:
        x, k = scores[todo], units[todo]
        _, exponent = np.frexp(x)
        room = np.ceil(np.ldexp(1.0, exponent) - x) - 1
        jump = np.minimum(room, k)
        x += jump
        k -= jump.astype(np.int64)
        cross = k > 0
        x[cross] += 1.0
        k[cross] -= 1
        scores[todo], units[todo] = x, k
        todo = todo[k > 0]
    return scores


class DemandTracker:
    """Decaying per-object demand, clocked by the cluster round index.

    ``record`` (one object), ``record_batch`` (a gid per unit) and
    ``record_counts`` (gids and unit counts) queue demand units at the
    current round; ``demand`` reads a score decayed to the current
    round.  One *unit* is one observed read intent — a routed read, an
    admitted stream, or one stream-round of playback — so scores are
    comparable across feed paths.  Queued units are folded into the
    scores in one pass (:meth:`_fold_pending`) before any score is read
    and before the clock moves, to the same bits as adding each unit on
    its own.

    Parameters
    ----------
    half_life_rounds:
        Rounds for an untouched score to halve.  Small values chase
    	flash crowds aggressively; large values smooth them.
    """

    #: Queued units past which the queue folds at once, so it stays
    #: bounded (8 MiB of gids) when reads are routed without rounds
    #: advancing.  A fold costs O(distinct objects), so a cap well
    #: above the namespace size keeps it a few ns per unit.
    PENDING_CAP = 1 << 20

    def __init__(self, half_life_rounds: int = 32):
        if half_life_rounds < 1:
            raise ValueError(
                f"half_life_rounds must be >= 1, got {half_life_rounds}"
            )
        self.half_life_rounds = half_life_rounds
        self._decay = 0.5 ** (1.0 / half_life_rounds)
        #: gid -> (score at stamp, stamp round).
        self._scores: dict[int, tuple[float, int]] = {}
        self.round_index = 0
        #: Demand units recorded over the tracker's lifetime.
        self.total_units = 0
        #: Demand not yet folded into ``_scores``, all stamped at the
        #: current round: raw gid arrays (one unit per entry,
        #: :meth:`record_batch`), ``(gids, counts)`` pairs
        #: (:meth:`record_counts`) and per-object units (:meth:`record`).
        #: Folding is lazy (once per read/round, or once
        #: :data:`PENDING_CAP` units queue up), so the hot path pays one
        #: list-append per batch or one dict update per record, not a
        #: decay per object.
        self._pending: list[np.ndarray] = []
        self._pending_counts: list[tuple[np.ndarray, np.ndarray]] = []
        self._pending_records: dict[int, int] = {}
        self._pending_units = 0

    def __len__(self) -> int:
        self._fold_pending()
        return len(self._scores)

    def advance_to(self, round_index: int) -> None:
        """Move the tracker clock forward (never backward)."""
        if round_index > self.round_index:
            self._fold_pending()
            self.round_index = round_index

    def record_batch(self, gids: np.ndarray) -> None:
        """Queue one unit of demand per entry of a gid array.

        The vectorized feed for
        :meth:`~repro.cluster.coordinator.ClusterCoordinator.route_reads`:
        duplicates are allowed (each occurrence is one unit) and the
        array is aggregated lazily at the next read of any score, or
        as soon as more than :attr:`PENDING_CAP` units are queued, so
        recording stays O(1) per batch and the queue stays bounded.
        """
        if len(gids) == 0:
            return
        self._pending.append(np.asarray(gids, dtype=np.int64))
        self._queued(len(gids))

    def record_counts(self, gids: np.ndarray, counts: np.ndarray) -> None:
        """Queue ``counts[i]`` units of demand for ``gids[i]``.

        Equal, to the last bit, to ``record_batch(np.repeat(gids,
        counts))``, at the cost of one entry per gid instead of one per
        unit: the per-title feed of
        :meth:`~repro.cluster.coordinator.ClusterCoordinator.run_round`,
        whose entries scale with titles, not viewers.  Duplicate gids
        are allowed; a zero count records nothing for its gid.
        """
        gids = np.asarray(gids, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        if gids.shape != counts.shape or gids.ndim != 1:
            raise ValueError(
                f"gids {gids.shape} and counts {counts.shape} must be "
                "one-dimensional and of one length"
            )
        if (counts < 0).any():
            raise ValueError("demand counts must be >= 0")
        units = int(counts.sum())
        if units == 0:
            return
        if not counts.all():
            held = counts > 0
            gids, counts = gids[held], counts[held]
        self._pending_counts.append((gids, counts))
        self._queued(units)

    def _queued(self, units: int) -> None:
        """Count ``units`` just queued; fold past :data:`PENDING_CAP`."""
        self._pending_units += units
        self.total_units += units
        if self._pending_units > self.PENDING_CAP:
            self._fold_pending()

    def _pending_totals(self) -> tuple[np.ndarray, np.ndarray]:
        """The queued units as ascending distinct gids and their totals
        (and clear the queue).

        Raw arrays are counted by ``np.unique``; the records join the
        ``(gids, counts)`` pairs as one more pair.  One pair with
        distinct gids is only sorted; anything else is merged by
        ``np.unique`` over the pairs' gids, weighted by their counts.
        """
        raw, counted = self._pending, self._pending_counts
        records = self._pending_records
        self._pending = []
        self._pending_counts = []
        self._pending_records = {}
        self._pending_units = 0
        if records:
            count = len(records)
            counted.append((
                np.fromiter(records, dtype=np.int64, count=count),
                np.fromiter(records.values(), dtype=np.int64, count=count),
            ))
        if raw:
            gids = raw[0] if len(raw) == 1 else np.concatenate(raw)
            unique = np.unique(gids, return_counts=True)
            if not counted:
                return unique
            counted.insert(0, unique)
        if len(counted) == 1:
            gids, counts = counted[0]
            if not (gids[1:] > gids[:-1]).all():
                order = np.argsort(gids, kind="stable")
                gids, counts = gids[order], counts[order]
            if (gids[1:] > gids[:-1]).all():
                return gids, counts
        keys, inverse = np.unique(
            np.concatenate([g for g, __ in counted]), return_inverse=True
        )
        # Float sums of integer units are exact below 2**53.
        totals = np.bincount(
            inverse,
            weights=np.concatenate([c for __, c in counted]),
            minlength=len(keys),
        )
        return keys, totals.astype(np.int64)

    def _fold_pending(self) -> None:
        """Aggregate queued batches into the score table (one pass).

        The result equals adding each queued unit on its own, one at a
        time, to its score decayed to the current round, to the last
        bit (see :func:`_add_units`).
        """
        if not (self._pending or self._pending_counts or self._pending_records):
            return
        unique, counts = self._pending_totals()
        keys = unique.tolist()
        now = self.round_index
        decayed = []
        for gid in keys:
            score, stamp = self._scores.get(gid, (0.0, now))
            if stamp < now:
                score *= self._decay ** (now - stamp)
            decayed.append(score)
        totals = _add_units(np.array(decayed, dtype=np.float64), counts)
        for gid, score in zip(keys, totals.tolist()):
            self._scores[gid] = (score, now)

    def record(self, gid: int, units: int = 1) -> None:
        """Queue demand units for one object at the current round.

        O(1), the per-admission feed: the units join the queue the
        batch feeds fill, so once folded they count exactly as
        ``units`` one-unit records, to the last bit.
        """
        if units <= 0:
            return
        records = self._pending_records
        records[gid] = records.get(gid, 0) + units
        # _queued(units), inlined.
        self.total_units += units
        self._pending_units += units
        if self._pending_units > self.PENDING_CAP:
            self._fold_pending()

    def demand(self, gid: int) -> float:
        """The object's score decayed to the current round (0.0 when
        never observed)."""
        self._fold_pending()
        entry = self._scores.get(gid)
        if entry is None:
            return 0.0
        score, stamp = entry
        if stamp < self.round_index:
            score *= self._decay ** (self.round_index - stamp)
        return score

    def demands(self, gids: Sequence[int]) -> dict[int, float]:
        """Current scores for a set of objects (zeros included)."""
        return {gid: self.demand(gid) for gid in gids}

    def forget(self, gid: int) -> None:
        """Drop one object's score (object removed from the cluster)."""
        self._fold_pending()
        self._scores.pop(gid, None)

    # -- persistence identity ------------------------------------------
    def to_payload(self) -> dict[str, Any]:
        """JSON-compatible state for the cluster manifest (v3)."""
        self._fold_pending()
        return {
            "half_life_rounds": self.half_life_rounds,
            "round_index": self.round_index,
            "total_units": self.total_units,
            "scores": [
                [gid, score, stamp]
                for gid, (score, stamp) in sorted(self._scores.items())
            ],
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "DemandTracker":
        """Rebuild a tracker bit-exactly from :meth:`to_payload`."""
        tracker = cls(half_life_rounds=payload["half_life_rounds"])
        tracker.round_index = payload["round_index"]
        tracker.total_units = payload["total_units"]
        tracker._scores = {
            int(gid): (float(score), int(stamp))
            for gid, score, stamp in payload["scores"]
        }
        return tracker

    def __repr__(self) -> str:
        return (
            f"DemandTracker(objects={len(self._scores)}, "
            f"round={self.round_index}, "
            f"half_life={self.half_life_rounds})"
        )


class ReplicationPolicy:
    """Demand-ranked copy targets inside a fixed total-copy budget.

    Parameters
    ----------
    copy_budget:
        Total copies (primaries **included**) the cluster may hold.
        Must cover at least one copy per object; what remains above
        one-per-object is the budget demand competes for.  A uniform-R
        cluster's equivalent budget is ``R * num_objects`` — comparing
        policies at equal ``copy_budget`` is comparing equal storage.
    floor:
        Minimum copies per object (the primary; never below 1).
    ceiling:
        Optional hard cap per object on top of the live-failure-domain
        ceiling the manager applies at adapt time.
    hysteresis_rounds:
        Consecutive :meth:`update` calls a *changed* desired target must
        persist before it commits.  1 commits immediately.
    max_copy_ops_per_round:
        Copies created + evicted per ``adapt()`` pass (the rate bound
        reconciliation honors; the Scrubber discipline one level up).
    demand_half_life_rounds:
        Half-life handed to the manager's :class:`DemandTracker`.
    """

    def __init__(
        self,
        copy_budget: int,
        *,
        floor: int = 1,
        ceiling: Optional[int] = None,
        hysteresis_rounds: int = 2,
        max_copy_ops_per_round: int = 4,
        demand_half_life_rounds: int = 32,
    ):
        if copy_budget < 1:
            raise ValueError(f"copy_budget must be >= 1, got {copy_budget}")
        if floor < 1:
            raise ValueError(f"floor must be >= 1, got {floor}")
        if ceiling is not None and ceiling < floor:
            raise ValueError(
                f"ceiling {ceiling} below floor {floor}"
            )
        if hysteresis_rounds < 1:
            raise ValueError(
                f"hysteresis_rounds must be >= 1, got {hysteresis_rounds}"
            )
        if max_copy_ops_per_round < 1:
            raise ValueError(
                "max_copy_ops_per_round must be >= 1, got "
                f"{max_copy_ops_per_round}"
            )
        if demand_half_life_rounds < 1:
            raise ValueError(
                "demand_half_life_rounds must be >= 1, got "
                f"{demand_half_life_rounds}"
            )
        self.copy_budget = copy_budget
        self.floor = floor
        self.ceiling = ceiling
        self.hysteresis_rounds = hysteresis_rounds
        self.max_copy_ops_per_round = max_copy_ops_per_round
        self.demand_half_life_rounds = demand_half_life_rounds
        #: Committed per-object targets (absent gid -> the uniform base).
        self.targets: dict[int, int] = {}
        #: gid -> (pending desired target, consecutive evaluations seen).
        self._streaks: dict[int, tuple[int, int]] = {}

    # ------------------------------------------------------------------
    # Apportionment
    # ------------------------------------------------------------------
    def desired(
        self, demands: dict[int, float], max_copies: int
    ) -> dict[int, int]:
        """The budget split the demand distribution earns right now.

        Highest-averages apportionment: every object starts at
        :attr:`floor`; each remaining budgeted copy goes to the object
        maximizing ``demand / copies_held`` (ties: lowest gid), capped
        at ``min(ceiling, max_copies)``.  Zero-demand objects receive
        extras only once every demanded object is capped — surplus
        budget spreads to cold objects by ascending gid rather than
        sitting idle.
        """
        if max_copies < 1:
            raise ValueError(f"max_copies must be >= 1, got {max_copies}")
        gids = sorted(demands)
        cap = max_copies
        if self.ceiling is not None:
            cap = min(cap, self.ceiling)
        cap = max(cap, self.floor)
        targets = {gid: min(self.floor, cap) for gid in gids}
        extras = self.copy_budget - sum(targets.values())
        if extras <= 0 or not gids:
            return targets
        # Max-heap of (-quotient, gid); zero-demand objects queue behind
        # every demanded one at equal footing (quotient 0, gid order).
        heap = [
            (-(demands[gid] / targets[gid]), gid)
            for gid in gids
            if targets[gid] < cap
        ]
        heapq.heapify(heap)
        while extras > 0 and heap:
            _, gid = heapq.heappop(heap)
            targets[gid] += 1
            extras -= 1
            if targets[gid] < cap:
                heapq.heappush(
                    heap, (-(demands[gid] / targets[gid]), gid)
                )
        return targets

    # ------------------------------------------------------------------
    # Hysteresis / commitment
    # ------------------------------------------------------------------
    def update(
        self,
        demands: dict[int, float],
        max_copies: int,
        base_factor: int,
    ) -> list[int]:
        """One evaluation: compute desired targets, advance hysteresis
        streaks, commit sustained changes.  Returns the gids whose
        committed target changed this call (the manager's dirty set).

        ``base_factor`` is the uniform replication factor an object
        defaults to before any target is committed — the first commit
        for a gid is measured against it.
        """
        desired = self.desired(demands, max_copies)
        changed: list[int] = []
        for gid in sorted(desired):
            want = desired[gid]
            current = self.targets.get(gid, min(base_factor, max_copies))
            if want == current:
                self._streaks.pop(gid, None)
                continue
            proposed, streak = self._streaks.get(gid, (want, 0))
            streak = streak + 1 if proposed == want else 1
            if streak >= self.hysteresis_rounds:
                self.targets[gid] = want
                self._streaks.pop(gid, None)
                changed.append(gid)
            else:
                self._streaks[gid] = (want, streak)
        # Objects that left the namespace drop their policy state.
        for gid in list(self.targets):
            if gid not in desired:
                del self.targets[gid]
        for gid in list(self._streaks):
            if gid not in desired:
                del self._streaks[gid]
        return changed

    def target_of(self, gid: int, base_factor: int) -> int:
        """The object's committed target (uniform base until one is)."""
        return self.targets.get(gid, base_factor)

    def forget(self, gid: int) -> None:
        """Drop one object's committed target and streak."""
        self.targets.pop(gid, None)
        self._streaks.pop(gid, None)

    # -- persistence identity ------------------------------------------
    def to_payload(self) -> dict[str, Any]:
        """JSON-compatible state for the cluster manifest (v3)."""
        return {
            "copy_budget": self.copy_budget,
            "floor": self.floor,
            "ceiling": self.ceiling,
            "hysteresis_rounds": self.hysteresis_rounds,
            "max_copy_ops_per_round": self.max_copy_ops_per_round,
            "demand_half_life_rounds": self.demand_half_life_rounds,
            "targets": sorted(self.targets.items()),
            "streaks": [
                [gid, proposed, streak]
                for gid, (proposed, streak) in sorted(self._streaks.items())
            ],
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "ReplicationPolicy":
        """Rebuild a policy bit-exactly from :meth:`to_payload`."""
        policy = cls(
            payload["copy_budget"],
            floor=payload["floor"],
            ceiling=payload["ceiling"],
            hysteresis_rounds=payload["hysteresis_rounds"],
            max_copy_ops_per_round=payload["max_copy_ops_per_round"],
            demand_half_life_rounds=payload["demand_half_life_rounds"],
        )
        policy.targets = {
            int(gid): int(target) for gid, target in payload["targets"]
        }
        policy._streaks = {
            int(gid): (int(proposed), int(streak))
            for gid, proposed, streak in payload["streaks"]
        }
        return policy

    def __repr__(self) -> str:
        return (
            f"ReplicationPolicy(budget={self.copy_budget}, "
            f"floor={self.floor}, hysteresis={self.hysteresis_rounds}, "
            f"rate={self.max_copy_ops_per_round}, "
            f"targets={len(self.targets)})"
        )
