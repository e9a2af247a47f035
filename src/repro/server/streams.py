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
state mask plus, unless every demanding row wants one block, a
``repeat``/``cumsum`` expansion to per-request arrays, and
:meth:`StreamTable.deliver` advances every row with one ``np.minimum``
and one add.  The table keeps the admission-control demand total
itself, because it owns every state change.

:class:`Stream` stays the public handle.  While admitted it is a view
on its table row (reads and writes go to the columns); before admission
it holds its own values, and after departure it keeps its last
position and state (read from the row it left until the handle is
written or admitted again, then from its own slots).  Its methods are
the per-stream reference semantics the scalar scheduler loop runs on.
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


#: The members as module constants: a class attribute lookup on an
#: ``Enum`` costs more than a global read, on per-viewer paths.
_PLAYING_STATE = StreamState.PLAYING
_PAUSED_STATE = StreamState.PAUSED
_DONE_STATE = StreamState.DONE

#: State column codes: a row's code indexes ``_STATES``; ``_VACANT``
#: marks the row of a departed stream until the table compacts.
_STATES = (_PLAYING_STATE, _PAUSED_STATE, _DONE_STATE)
_CODE = {state: code for code, state in enumerate(_STATES)}
_PLAYING, _DONE = _CODE[_PLAYING_STATE], _CODE[_DONE_STATE]
_VACANT = len(_STATES)


class _Field:
    """An integer field of :class:`Stream`: its table column while the
    stream is admitted; once departed, its row in the columns it left
    (until the handle is written) or the handle's own slot."""

    def __set_name__(self, owner: type, name: str) -> None:
        self.column = name
        self.slot = "_" + name

    def __get__(self, stream: "Stream | None", owner: type | None = None):
        if stream is None:
            return self
        table = stream._table
        if table is not None:
            return getattr(table, self.column).item(stream._row)
        left = stream._left
        if left is not None:
            return getattr(left, self.column).item(stream._row)
        return getattr(stream, self.slot)

    def __set__(self, stream: "Stream", value: int) -> None:
        table = stream._table
        if table is None:
            stream._detach()
            setattr(stream, self.slot, value)
        else:
            getattr(table, self.column)[stream._row] = value


class _Departed:
    """The value columns a table's departed rows keep.  A round serves a
    vacant row nothing, so its values stay as the stream left them, and
    the table replaces these arrays (never rewrites them in place) when
    it grows or compacts; a departed handle therefore reads its last
    values at its old row, and departing copies nothing out."""

    __slots__ = ("position", "stall_rounds", "blocks_consumed")

    def __init__(self, table: "StreamTable"):
        self.position = table.position
        self.stall_rounds = table.stall_rounds
        self.blocks_consumed = table.blocks_consumed


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
        "stream_id", "media", "_table", "_row", "_left",
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
        #: After departure, the columns still holding the stream's last
        #: values at ``_row`` (None once they are copied into the slots).
        self._left: Optional[_Departed] = None
        self._position = start_block
        self._state = _PLAYING_STATE
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

    def _detach(self) -> None:
        """Copy a departed stream's last values out of the columns it
        left into its own slots (before any write to a departed handle
        and before it is admitted again)."""
        left = self._left
        if left is None:
            return
        row = self._row
        self._position = left.position.item(row)
        self._stall_rounds = left.stall_rounds.item(row)
        self._blocks_consumed = left.blocks_consumed.item(row)
        self._left = None
        self._row = -1

    # -- per-stream semantics (the scalar scheduler's reference) --------
    @property
    def is_active(self) -> bool:
        """Whether the stream demands blocks this round."""
        return self.state is _PLAYING_STATE

    def demand_window(self) -> tuple[int, int]:
        """This round's demand as ``(start_index, count)``.

        A stream's per-round need is always a contiguous run of block
        indices.  ``count`` is 0 for paused and finished streams.
        """
        position = self.position
        if self.state is not _PLAYING_STATE:
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
            self.state = _DONE_STATE

    def pause(self) -> None:
        """Pause playback (no demand while paused)."""
        if self.state is _PLAYING_STATE:
            self.state = _PAUSED_STATE

    def resume(self) -> None:
        """Resume a paused stream."""
        if self.state is _PAUSED_STATE:
            self.state = _PLAYING_STATE

    def seek(self, block_index: int) -> None:
        """VCR-style random access to a position in the object."""
        if not 0 <= block_index < self.media.num_blocks:
            raise ValueError(
                f"seek target {block_index} out of 0..{self.media.num_blocks - 1}"
            )
        table = self._table
        if table is None:
            self._detach()
            self._position = block_index
            if self._state is _DONE_STATE:
                self._state = _PLAYING_STATE
            return
        row = self._row
        table.position[row] = block_index
        if table.state.item(row) == _DONE:
            table.set_state(row, _PLAYING)

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
        #: What departed rows' handles read (see :class:`_Departed`).
        self._departed = _Departed(self)
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
        """Admit ``stream``: add its row and attach the handle to it.

        Rows past :attr:`rows` are all zero (rows are only appended, and
        growth and compaction move them into fresh zeroed arrays), so
        only non-zero fields are written.
        """
        if stream._table is not None:
            raise ValueError(
                f"stream {stream.stream_id} is already admitted to a scheduler"
            )
        if stream._left is not None:
            stream._detach()
        by_id = self._by_id
        stream_id = stream.stream_id
        if stream_id in by_id:
            raise ValueError(f"stream id {stream_id} already admitted")
        handles = self._handles
        row = len(handles)
        if row == self.state.shape[0]:
            self._resize(2 * row)
        media = stream.media
        rate = media.blocks_per_round
        self.object_id[row] = media.object_id
        self.rate[row] = rate
        self.length[row] = media.num_blocks
        if stream._position:
            self.position[row] = stream._position
        state = stream._state
        if state is not _PLAYING_STATE:
            self.state[row] = _CODE[state]
        if stream._stall_rounds:
            self.stall_rounds[row] = stream._stall_rounds
        if stream._blocks_consumed:
            self.blocks_consumed[row] = stream._blocks_consumed
        handles.append(stream)
        by_id[stream_id] = stream
        stream._table = self
        stream._row = row
        if state is _PLAYING_STATE:
            self.active_demand += rate

    def remove(self, stream_id: int) -> Stream:
        """Depart a stream: its row goes vacant and the handle keeps the
        row's last values (read from the row it left, see
        :class:`_Departed`, so departing copies out only the state)."""
        by_id = self._by_id
        try:
            stream = by_id.pop(stream_id)
        except KeyError:
            raise KeyError(f"stream id {stream_id} is not admitted") from None
        row = stream._row
        state = self.state
        code = state.item(row)
        stream._state = _STATES[code]
        stream._table = None
        stream._left = self._departed
        if code == _PLAYING:
            # The rate column holds the media's rate, read without numpy.
            self.active_demand -= stream.media.blocks_per_round
        state[row] = _VACANT
        self._handles[row] = None
        vacant = self._vacant = self._vacant + 1
        if vacant >= self.MIN_COMPACT and vacant > len(by_id):
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
        wanted = self.length[:n] - self.position[:n]
        np.minimum(wanted, self.rate[:n], out=wanted)
        wanted *= self.state[:n] == _PLAYING
        return wanted

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
    def _resize(self, capacity: int) -> None:
        """Move every column into arrays of ``capacity`` rows."""
        n = self.rows
        for name in _COLUMNS:
            old = getattr(self, name)
            new = np.zeros(capacity, dtype=old.dtype)
            new[:n] = old[:n]
            setattr(self, name, new)
        self._departed = _Departed(self)
        self.rows_copied += n

    def _compact(self) -> None:
        """Drop vacant rows, keeping the live rows' order, into fresh
        columns (departed handles keep reading the old ones)."""
        n = self.rows
        keep = np.flatnonzero(self.state[:n] != _VACANT)
        m = keep.shape[0]
        for name in _COLUMNS:
            old = getattr(self, name)
            new = np.zeros(old.shape[0], dtype=old.dtype)
            new[:m] = old.take(keep)
            setattr(self, name, new)
        self._departed = _Departed(self)
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
    stream: a state mask gives each row's window, then the per-request
    arrays follow.  When every demanding row wants one block (a count
    total equal to the demanding rows), the requests are those rows
    themselves: one ``flatnonzero`` and two gathers.  Otherwise a
    handful of ``repeat``/``cumsum`` expansions spread each row's
    window over its requests.
    """
    counts = table.window_counts()
    # Non-zero rows from a boolean mask: ``nonzero`` is several times
    # faster on booleans than on int64 counts.
    rows = np.flatnonzero(counts > 0)
    total = int(counts.sum())
    n = table.rows
    if total == rows.shape[0]:
        return RoundDemand(
            counts=counts,
            object_ids=table.object_id.take(rows),
            block_indices=table.position.take(rows),
            stream_slots=rows,
        )
    stream_slots = np.repeat(np.arange(n, dtype=np.int64), counts)
    starts = np.cumsum(counts) - counts
    offsets = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
    return RoundDemand(
        counts=counts,
        object_ids=np.repeat(table.object_id[:n], counts),
        block_indices=np.repeat(table.position[:n], counts) + offsets,
        stream_slots=stream_slots,
    )
