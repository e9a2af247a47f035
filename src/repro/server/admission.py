"""Admission-control policies for the round scheduler.

CM servers guarantee continuous delivery by refusing streams they cannot
serve.  With constrained placement the check is deterministic; with
random placement it is statistical — the paper's "load balancing by the
law of large numbers" needs an admission rule that keeps per-disk
overflow probability low.  Three policies:

* :class:`AggregateAdmission` — total demand <= total bandwidth (the
  scheduler's historical default; necessary but not sufficient);
* :class:`UtilizationAdmission` — total demand <= ``threshold`` x total
  bandwidth, leaving explicit headroom (e.g. for migration);
* :class:`StatisticalAdmission` — bounds the per-round probability that
  *some* disk's random demand exceeds its bandwidth, using the normal
  approximation to Binomial(S, 1/N) plus a union bound.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

from repro.storage.array import DiskArray


class AdmissionRefusedError(ValueError):
    """An admission policy refused a stream: the scheduler is full."""


class AdmissionPolicy(ABC):
    """Decides whether one more stream of a given rate may be admitted."""

    @abstractmethod
    def admits(
        self, array: DiskArray, active_demand: int, new_rate: int
    ) -> bool:
        """Whether a stream of ``new_rate`` blocks/round fits.

        ``active_demand`` is the aggregate blocks/round of currently
        active streams.
        """

    def admits_in_turn(
        self,
        array: DiskArray,
        active_demand: int,
        rates: np.ndarray,
        playing: np.ndarray,
    ) -> int:
        """How many of a queue of streams are admitted one after another
        before the first refusal.

        Stream ``i`` (rate ``rates[i]``) is asked :meth:`admits` at the
        active demand plus the rates of the *playing* streams admitted
        before it (``playing[i]`` says whether it adds its rate), just
        as admitting them one at a time would ask.  This default asks
        once per stream; threshold policies answer with one cumulative
        sum.
        """
        demand = active_demand
        for admitted, (rate, plays) in enumerate(
            zip(rates.tolist(), playing.tolist())
        ):
            if not self.admits(array, demand, rate):
                return admitted
            if plays:
                demand += rate
        return len(rates)


def _admitted_under(
    budget: float, active_demand: int, rates: np.ndarray, playing: np.ndarray
) -> int:
    """:meth:`AdmissionPolicy.admits_in_turn` for a policy admitting
    while demand plus the new rate stays within ``budget``."""
    added = rates * playing
    asked = np.cumsum(added) - added + (active_demand + rates)
    refused = np.flatnonzero(asked > budget)
    return int(refused[0]) if refused.shape[0] else len(rates)


class AggregateAdmission(AdmissionPolicy):
    """Admit while total demand fits total bandwidth."""

    def admits(self, array: DiskArray, active_demand: int, new_rate: int) -> bool:
        return active_demand + new_rate <= array.total_bandwidth

    def admits_in_turn(self, array, active_demand, rates, playing) -> int:
        return _admitted_under(array.total_bandwidth, active_demand, rates, playing)


class UtilizationAdmission(AdmissionPolicy):
    """Admit while demand stays under ``threshold`` of total bandwidth.

    Parameters
    ----------
    threshold:
        Target utilization in (0, 1]; the rest is headroom for migration
        and demand variance.
    """

    def __init__(self, threshold: float = 0.7):
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {threshold}")
        self.threshold = threshold

    def admits(self, array: DiskArray, active_demand: int, new_rate: int) -> bool:
        budget = self.threshold * array.total_bandwidth
        return active_demand + new_rate <= budget

    def admits_in_turn(self, array, active_demand, rates, playing) -> int:
        return _admitted_under(
            self.threshold * array.total_bandwidth, active_demand, rates, playing
        )


class StatisticalAdmission(AdmissionPolicy):
    """Admit while P(any disk overflows in a round) stays under a target.

    With ``S`` block requests spread uniformly over ``N`` disks, one
    disk's demand is Binomial(S, 1/N); a disk of bandwidth ``c``
    overflows with probability about ``Q((c + 0.5 - S/N) / sigma)`` where
    ``sigma = sqrt(S (1/N)(1 - 1/N))``.  A union bound over disks gives
    the round's overflow probability.  This is exactly the statistical
    service model Section 2 attributes to randomized placement.

    Parameters
    ----------
    overflow_probability:
        Acceptable per-round probability that at least one disk is
        oversubscribed.
    """

    def __init__(self, overflow_probability: float = 0.05):
        if not 0.0 < overflow_probability < 1.0:
            raise ValueError(
                f"overflow probability must be in (0, 1), got {overflow_probability}"
            )
        self.overflow_probability = overflow_probability

    def admits(self, array: DiskArray, active_demand: int, new_rate: int) -> bool:
        demand = active_demand + new_rate
        return self.round_overflow_probability(array, demand) <= (
            self.overflow_probability
        )

    @staticmethod
    def round_overflow_probability(array: DiskArray, demand: int) -> float:
        """Union-bound probability that some disk exceeds its bandwidth."""
        n = array.num_disks
        if demand <= 0 or n == 0:
            return 0.0
        p = 1.0 / n
        mean = demand * p
        sigma = math.sqrt(demand * p * (1.0 - p))
        total = 0.0
        for pid in array.physical_ids:
            capacity = array.disk(pid).bandwidth_blocks_per_round
            if sigma == 0.0:
                overflow = 0.0 if mean <= capacity else 1.0
            else:
                z = (capacity + 0.5 - mean) / sigma
                overflow = 0.5 * math.erfc(z / math.sqrt(2.0))
            total += overflow
        return min(total, 1.0)

    def max_admissible_demand(self, array: DiskArray) -> int:
        """Largest aggregate demand the policy would accept (by scan)."""
        demand = 0
        while self.round_overflow_probability(array, demand + 1) <= (
            self.overflow_probability
        ):
            demand += 1
            if demand > 10 * array.total_bandwidth:
                break  # safety valve; capacity-bound long before this
        return demand
