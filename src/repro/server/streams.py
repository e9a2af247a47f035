"""Client streams and the columnar table that serves them.

A stream plays one CM object at a fixed consumption rate (blocks per
scheduling round) and may pause, resume and seek — the "VCR-style
operations" whose unpredictable access patterns motivate random placement
(Section 1).  Streams are pure bookkeeping; the scheduler turns their
per-round block needs into disk requests.

A scheduler keeps its admitted streams in a :class:`StreamTable`: one
numpy column per field (object id, position, rate, length, state, stall
rounds, blocks consumed), one row per stream, rows in admission order.
A round is then column arithmetic: :func:`gather_round_demand` is a
state mask plus a ``repeat``/``cumsum`` expansion to per-request arrays,
and :meth:`StreamTable.deliver` advances every row with one
``np.minimum`` and one add.  The table keeps the admission-control
demand total itself, because it owns every state change.

:class:`Stream` stays the public handle.  While admitted it is a view
on its table row (reads and writes go to the columns); before admission
and after departure it holds its own values, so a departed handle keeps
its last position and state.  Its methods are the per-stream reference
semantics the scalar scheduler loop runs on.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from repro.server.objects import MediaObject
from repro.storage.block import BlockId


class StreamState(Enum):
    """Lifecycle of a stream."""

    PLAYING = "playing"
    PAUSED = "paused"
    DONE = "done"


#: State column codes: a row's code indexes ``_STATES``; ``_VACANT``
#: marks the row of a departed stream until the table compacts.
_STATES = (StreamState.PLAYING, StreamState.PAUSED, StreamState.DONE)
_CODE = {state: code for code, state in enumerate(_STATES)}
_PLAYING, _DONE = _CODE[StreamState.PLAYING], _CODE[StreamState.DONE]
_VACANT = len(_STATES)


class _Field:
    """An integer field of :class:`Stream`: its table column while the
    stream is admitted, the handle's own slot otherwise."""

    def __set_name__(self, owner: type, name: str) -> None:
        self.column = name
        self.slot = "_" + name

    def __get__(self, stream: "Stream | None", owner: type | None = None):
        if stream is None:
            return self
        table = stream._table
        if table is None:
            return getattr(stream, self.slot)
        return getattr(table, self.column).item(stream._row)

    def __set__(self, stream: "Stream", value: int) -> None:
        table = stream._table
        if table is None:
            setattr(stream, self.slot, value)
        else:
            getattr(table, self.column)[stream._row] = value


class Stream:
    """One playback session of one object.

    Parameters
    ----------
    stream_id:
        Caller-chosen identity.
    media:
        The object being played.
    start_block:
        Initial playback position (block index).
    """

    __slots__ = (
        "stream_id", "media", "_table", "_row",
        "_position", "_state", "_stall_rounds", "_blocks_consumed",
    )

    def __init__(self, stream_id: int, media: MediaObject, start_block: int = 0):
        if not 0 <= start_block < media.num_blocks:
            raise ValueError(
                f"start block {start_block} out of 0..{media.num_blocks - 1}"
            )
        self.stream_id = stream_id
        self.media = media
        #: The table this stream is admitted to (None when detached).
        self._table: Optional[StreamTable] = None
        self._row = -1
        self._position = start_block
        self._state = StreamState.PLAYING
        self._stall_rounds = 0
        self._blocks_consumed = 0

    #: Playback position (block index).
    position = _Field()
    #: Rounds in which this client received less than it demanded —
    #: the client-side rebuffering signal degraded-mode metrics track.
    stall_rounds = _Field()
    #: Blocks delivered to the client so far.
    blocks_consumed = _Field()

    @property
    def state(self) -> StreamState:
        """Lifecycle state."""
        if self._table is None:
            return self._state
        return _STATES[self._table.state.item(self._row)]

    @state.setter
    def state(self, value: StreamState) -> None:
        if self._table is None:
            self._state = value
        else:
            self._table.set_state(self._row, _CODE[value])

    # -- per-stream semantics (the scalar scheduler's reference) --------
    @property
    def is_active(self) -> bool:
        """Whether the stream demands blocks this round."""
        return self.state is StreamState.PLAYING

    def demand_window(self) -> tuple[int, int]:
        """This round's demand as ``(start_index, count)``.

        A stream's per-round need is always a contiguous run of block
        indices.  ``count`` is 0 for paused and finished streams.
        """
        position = self.position
        if self.state is not StreamState.PLAYING:
            return (position, 0)
        end = min(position + self.media.blocks_per_round, self.media.num_blocks)
        return (position, end - position)

    def blocks_needed(self) -> list[BlockId]:
        """The block ids this stream must receive in the current round."""
        start, count = self.demand_window()
        return [
            BlockId(self.media.object_id, index)
            for index in range(start, start + count)
        ]

    def deliver(self, count: int, demanded: int | None = None) -> None:
        """Acknowledge ``count`` delivered blocks and advance playback.

        ``demanded`` (when given) is what the round asked for on the
        stream's behalf; shortfalls — whether hiccups or queued reads —
        count one stall round for the client.
        """
        if count < 0:
            raise ValueError(f"delivered count must be >= 0, got {count}")
        if demanded is not None and count < demanded:
            self.stall_rounds += 1
        self.position = min(self.position + count, self.media.num_blocks)
        self.blocks_consumed += count
        if self.position >= self.media.num_blocks:
            self.state = StreamState.DONE

    def pause(self) -> None:
        """Pause playback (no demand while paused)."""
        if self.state is StreamState.PLAYING:
            self.state = StreamState.PAUSED

    def resume(self) -> None:
        """Resume a paused stream."""
        if self.state is StreamState.PAUSED:
            self.state = StreamState.PLAYING

    def seek(self, block_index: int) -> None:
        """VCR-style random access to a position in the object."""
        if not 0 <= block_index < self.media.num_blocks:
            raise ValueError(
                f"seek target {block_index} out of 0..{self.media.num_blocks - 1}"
            )
        self.position = block_index
        if self.state is StreamState.DONE:
            self.state = StreamState.PLAYING

    def __repr__(self) -> str:
        return (
            f"Stream(id={self.stream_id}, object={self.media.object_id}, "
            f"position={self.position}, state={self.state.value})"
        )


#: The table's columns (one numpy array each; growth and compaction
#: move them together).
_COLUMNS = (
    "object_id", "position", "rate", "length",
    "state", "stall_rounds", "blocks_consumed",
)


class StreamTable:
    """A scheduler's admitted streams as parallel numpy columns.

    Row ``r`` of every column describes one stream; rows stay in
    admission order.  :meth:`append` adds a row (amortized O(1): the
    columns double when full); :meth:`remove` marks the row vacant and
    detaches the handle.  Once vacant rows outnumber live ones the table
    compacts, keeping the live rows' order, so m admissions and
    departures copy O(m) rows in all (:attr:`rows_copied` counts them).

    The table owns every state change, so it keeps
    :attr:`active_demand` — the playing rows' summed rate — exact by
    adjusting it per row update and by masked sums per batch update.
    """

    #: Vacant rows below which the table never compacts.
    MIN_COMPACT = 16

    def __init__(self) -> None:
        capacity = 16
        self.object_id = np.zeros(capacity, dtype=np.int64)
        self.position = np.zeros(capacity, dtype=np.int64)
        self.rate = np.zeros(capacity, dtype=np.int64)
        self.length = np.zeros(capacity, dtype=np.int64)
        self.state = np.zeros(capacity, dtype=np.int8)
        self.stall_rounds = np.zeros(capacity, dtype=np.int64)
        self.blocks_consumed = np.zeros(capacity, dtype=np.int64)
        #: Row -> admitted handle (None for a vacant row).
        self._handles: list[Optional[Stream]] = []
        self._by_id: dict[int, Stream] = {}
        self._vacant = 0
        #: Summed rate of the playing rows (blocks/round).
        self.active_demand = 0
        #: Rows copied by growth and compaction (a complexity counter).
        self.rows_copied = 0

    # -- rows -----------------------------------------------------------
    @property
    def rows(self) -> int:
        """Rows in use, vacant ones included."""
        return len(self._handles)

    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, stream_id: int) -> bool:
        return stream_id in self._by_id

    def handles(self) -> tuple[Stream, ...]:
        """The admitted streams, in admission (row) order."""
        return tuple(h for h in self._handles if h is not None)

    def handle(self, row: int) -> Stream:
        """The stream admitted at ``row``."""
        stream = self._handles[row]
        if stream is None:
            raise KeyError(f"row {row} is vacant")
        return stream

    def streams_of(self, object_id: int) -> list[Stream]:
        """The admitted streams playing ``object_id``, in row order."""
        n = self.rows
        rows = np.flatnonzero(
            (self.object_id[:n] == object_id) & (self.state[:n] != _VACANT)
        )
        return [self.handle(row) for row in rows.tolist()]

    def active_count(self) -> int:
        """Rows in the playing state."""
        return int(np.count_nonzero(self.state[: self.rows] == _PLAYING))

    def append(self, stream: Stream) -> None:
        """Admit ``stream``: add its row and attach the handle to it."""
        if stream._table is not None:
            raise ValueError(
                f"stream {stream.stream_id} is already admitted to a scheduler"
            )
        if stream.stream_id in self._by_id:
            raise ValueError(f"stream id {stream.stream_id} already admitted")
        row = self._add_row(stream)
        self._handles.append(stream)
        self._by_id[stream.stream_id] = stream
        stream._table = self
        stream._row = row
        if stream._state is StreamState.PLAYING:
            self.active_demand += stream.media.blocks_per_round

    def remove(self, stream_id: int) -> Stream:
        """Depart a stream: its row goes vacant and the handle keeps the
        row's last values."""
        try:
            stream = self._by_id.pop(stream_id)
        except KeyError:
            raise KeyError(f"stream id {stream_id} is not admitted") from None
        row = stream._row
        code = self.state.item(row)
        stream._position = self.position.item(row)
        stream._state = _STATES[code]
        stream._stall_rounds = self.stall_rounds.item(row)
        stream._blocks_consumed = self.blocks_consumed.item(row)
        stream._table = None
        stream._row = -1
        if code == _PLAYING:
            self.active_demand -= self.rate.item(row)
        self.state[row] = _VACANT
        self._handles[row] = None
        self._vacant += 1
        if self._vacant >= self.MIN_COMPACT and self._vacant > len(self._by_id):
            self._compact()
        return stream

    def set_state(self, row: int, code: int) -> None:
        """Set one row's state code, keeping :attr:`active_demand`."""
        old = self.state.item(row)
        if old == code:
            return
        if old == _PLAYING:
            self.active_demand -= self.rate.item(row)
        elif code == _PLAYING:
            self.active_demand += self.rate.item(row)
        self.state[row] = code

    # -- rounds ---------------------------------------------------------
    def window_counts(self) -> np.ndarray:
        """Per row, the blocks it demands this round (0 unless playing)."""
        n = self.rows
        position = self.position[:n]
        wanted = np.minimum(position + self.rate[:n], self.length[:n]) - position
        return np.where(self.state[:n] == _PLAYING, wanted, 0)

    def deliver(
        self, served: np.ndarray, demanded: Optional[np.ndarray] = None
    ) -> None:
        """Advance every row by its served count — :meth:`Stream.deliver`
        over the whole table.  ``served`` (and ``demanded``) hold one
        entry per row; vacant rows must be served 0."""
        n = self.rows
        if demanded is not None:
            self.stall_rounds[:n] += served < demanded
        position = self.position[:n]
        length = self.length[:n]
        np.minimum(position + served, length, out=position)
        self.blocks_consumed[:n] += served
        state = self.state[:n]
        done = (position >= length) & (state != _VACANT)
        finished = done & (state == _PLAYING)
        if finished.any():
            self.active_demand -= int(self.rate[:n][finished].sum())
        state[done] = _DONE

    # -- internals ------------------------------------------------------
    def _add_row(self, stream: Stream) -> int:
        """Write a detached stream's values into a new row."""
        row = len(self._handles)
        if row == self.state.shape[0]:
            self._resize(2 * row)
        media = stream.media
        self.object_id[row] = media.object_id
        self.position[row] = stream._position
        self.rate[row] = media.blocks_per_round
        self.length[row] = media.num_blocks
        self.state[row] = _CODE[stream._state]
        self.stall_rounds[row] = stream._stall_rounds
        self.blocks_consumed[row] = stream._blocks_consumed
        return row

    def _resize(self, capacity: int) -> None:
        """Move every column into arrays of ``capacity`` rows."""
        n = self.rows
        for name in _COLUMNS:
            old = getattr(self, name)
            new = np.zeros(capacity, dtype=old.dtype)
            new[:n] = old[:n]
            setattr(self, name, new)
        self.rows_copied += n

    def _compact(self) -> None:
        """Drop vacant rows, keeping the live rows' order."""
        n = self.rows
        keep = np.flatnonzero(self.state[:n] != _VACANT)
        m = keep.shape[0]
        for name in _COLUMNS:
            column = getattr(self, name)
            column[:m] = column[keep]
        live = [h for h in self._handles if h is not None]
        for row, stream in enumerate(live):
            stream._row = row
        self._handles = list(live)
        self._vacant = 0
        self.rows_copied += m


@dataclass
class RoundDemand:
    """One round's aggregate demand as parallel per-request arrays.

    ``counts[r]`` is table row ``r``'s demand this round (0 for rows not
    playing).  The per-request arrays are all the same length
    (``total``): request ``i`` is block
    ``(object_ids[i], block_indices[i])`` demanded by row
    ``stream_slots[i]``, in exactly the order the scalar scheduler's
    nested stream/block loop would visit it.
    """

    counts: np.ndarray
    object_ids: np.ndarray
    block_indices: np.ndarray
    stream_slots: np.ndarray

    @property
    def total(self) -> int:
        """Total block reads demanded this round."""
        return int(self.object_ids.shape[0])


def gather_round_demand(table: StreamTable) -> RoundDemand:
    """Collect every row's demand window into one :class:`RoundDemand`.

    The vectorized counterpart of looping ``blocks_needed()`` per
    stream: a state mask gives each row's window, then a handful of
    ``repeat``/``cumsum`` expansions give the per-request arrays.
    """
    counts = table.window_counts()
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return RoundDemand(counts, empty, empty, empty)
    n = table.rows
    stream_slots = np.repeat(np.arange(n, dtype=np.int64), counts)
    starts = np.cumsum(counts) - counts
    offsets = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
    return RoundDemand(
        counts=counts,
        object_ids=np.repeat(table.object_id[:n], counts),
        block_indices=np.repeat(table.position[:n], counts) + offsets,
        stream_slots=stream_slots,
    )
