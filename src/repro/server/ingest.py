"""Incremental object ingest (writing new media onto a live server).

Section 2 notes that writing continuous media to a server (Aref et al.
[1]) is "orthogonal to our approach since we also need a similar
technique to write blocks during the redistribution".  The migration
engine already throttles redistribution writes; :class:`IngestSession`
applies the same discipline to loading a *new* object: each round it
writes as many of the object's blocks as the target disks' spare
bandwidth allows, to the disks ``AF()`` assigns — so a finished ingest
is indistinguishable from an initial placement.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.server.cmserver import CMServer
from repro.server.objects import MediaObject
from repro.storage.block import Block


@dataclass
class IngestReport:
    """Outcome of one completed ingest."""

    object_id: int
    blocks_written: int = 0
    rounds: int = 0
    writes_per_round: list[int] = field(default_factory=list)


class IngestStalledError(Exception):
    """Raised when rounds pass with zero spare bandwidth to write with."""


class IngestSession:
    """Writes one new object onto the server, round by round.

    Parameters
    ----------
    server:
        The target server; the object is registered in its catalog at
        construction but its blocks arrive incrementally.
    name / num_blocks / blocks_per_round:
        The new object's parameters (as in ``ObjectCatalog.add_object``).

    Notes
    -----
    Blocks are written in playback order, so a stream may be admitted on
    the partially loaded object and chase the write frontier (classic
    "watch while ingesting"); :attr:`frontier` tells how far it may go.
    """

    def __init__(
        self,
        server: CMServer,
        name: str,
        num_blocks: int,
        blocks_per_round: int = 1,
    ):
        self.server = server
        self.media: MediaObject = server.catalog.add_object(
            name, num_blocks, blocks_per_round
        )
        # The backend learns the whole object up front (stateful backends
        # assign placements at registration); bytes still arrive per round.
        server.register_media(self.media)
        self._written = 0

    @property
    def object_id(self) -> int:
        """Catalog id of the object being ingested."""
        return self.media.object_id

    @property
    def frontier(self) -> int:
        """Blocks written so far (playback may proceed up to here)."""
        return self._written

    @property
    def done(self) -> bool:
        """Whether every block has landed."""
        return self._written >= self.media.num_blocks

    def step(self, budget: Mapping[int, int] | int) -> int:
        """Write up to the spare per-disk budget this round.

        ``budget`` follows the migration convention: an int applies to
        every disk, a mapping gives per-physical-disk budgets (e.g. the
        scheduler's ``spare_by_physical``).  Each write costs one unit on
        its target disk.  Returns blocks written this round.

        Raises ``KeyError`` once the object has left the catalog
        (:meth:`~repro.server.cmserver.CMServer.remove_object` mid-ingest):
        its remaining blocks would land as orphans.
        """
        if self.object_id not in self.server.catalog:
            raise KeyError(
                f"object {self.object_id} left the catalog; ingest abandoned"
            )
        spent: dict[int, int] = {}
        written = 0
        # Batch the placement lookups for every pending block up front —
        # the targets may shift between rounds (mid-ingest scaling), so
        # they are recomputed per round, but in one vectorized pass.  The
        # X0s are the server's current column: a reshuffle mid-ingest
        # re-seeds the blocks still to come.
        x0s = self.server.x0_column(self.object_id)[self._written :].tolist()
        pending = [
            Block(self.object_id, index, x0)
            for index, x0 in enumerate(x0s, self._written)
        ]
        for block, target_logical in zip(pending, self.server.locate_blocks(pending)):
            target = self.server.array.physical_at(target_logical)
            allowance = (
                budget if isinstance(budget, int) else budget.get(target, 0)
            )
            if spent.get(target, 0) >= allowance:
                break  # keep playback order: once one block waits, later ones do
            self.server.array.place_physical(block, target)
            spent[target] = spent.get(target, 0) + 1
            written += 1
        self._written += written
        return written

    def run(
        self, budget: Mapping[int, int] | int, max_rounds: int = 100_000
    ) -> IngestReport:
        """Write rounds until the object is fully loaded."""
        report = IngestReport(object_id=self.object_id)
        while not self.done:
            if report.rounds >= max_rounds:
                raise IngestStalledError(
                    f"ingest incomplete after {max_rounds} rounds; "
                    f"{self.media.num_blocks - self._written} blocks remain"
                )
            written = self.step(budget)
            if written == 0:
                raise IngestStalledError(
                    "round wrote zero blocks; the next target disk has no "
                    "spare bandwidth"
                )
            report.rounds += 1
            report.blocks_written += written
            report.writes_per_round.append(written)
        return report
