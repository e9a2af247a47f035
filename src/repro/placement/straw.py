"""Straw2-style placement — a CRUSH-flavored comparator.

SCADDAR is a direct precursor of CRUSH (Weil et al., 2006); CRUSH's
``straw2`` bucket is the modern way to place a block on one of N
(possibly weighted) disks with minimal movement under membership change:
every disk draws a hash-derived "straw length" for the block and the
longest straw wins.  Adding or removing a disk only reassigns the blocks
whose winner changed — provably the minimal set — and *any* disk can
leave, which jump hash cannot do.

The straw is ``ln(u) / weight`` with ``u`` uniform in (0, 1] derived
from ``hash(block, disk)``; disks keep stable internal node ids (like
the ring policy) so logical indices stay compact for the shared
interface.  The kernels and the weighted backend live in
:mod:`repro.placement.weighted_straw`; ``straw`` is that backend at
unit weights.
"""

from __future__ import annotations

from repro.core.errors import UnsupportedOperationError
from repro.placement.base import PlacementPolicy
from repro.placement.weighted_straw import WeightedStrawPolicy
from repro.placement.weighted_straw import straw_length as straw_length
from repro.placement.weighted_straw import straw_winners as straw_winners


class StrawPolicy(WeightedStrawPolicy):
    """Straw2 selection over unit-weight disks behind the shared interface.

    Parameters
    ----------
    n0:
        Initial disk count.

    Notes
    -----
    State is one stable node id per disk (O(N)); lookups are O(N) straw
    draws per block.  Arbitrary group addition *and* removal are
    supported — the property SCADDAR shares and jump hash lacks.

    Every weight is 1.0, so the state follows from the operation log
    and the persistence payload is the log alone, replayed on restore;
    :meth:`set_weight` is refused, because a weight would not survive
    that payload.
    """

    name = "straw"

    # The log-only payload of PlacementPolicy, not the weighted node table.
    state_payload = PlacementPolicy.state_payload
    from_payload = vars(PlacementPolicy)["from_payload"]

    def __init__(self, n0: int):
        super().__init__(n0)

    def set_weight(self, logical: int, weight: float) -> None:
        """Refused: the ``straw`` backend's weights are all 1.0."""
        raise UnsupportedOperationError(
            "the straw backend has unit weights; use weighted_straw to "
            "re-weight members"
        )
