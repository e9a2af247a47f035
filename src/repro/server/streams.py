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
itself, because it owns every state change.  :meth:`StreamTable.move`
hands rows to another table in bulk (one take per column), which is
how a cluster moves a dead or migrating shard's viewers.

:class:`Stream` stays the public handle.  While admitted it is a view
on its table row (reads and writes go to the columns); before admission
it holds its own values, and after departure it keeps its last
position and state (read from the row it left until the handle is
written or admitted again, then from its own slots).  A bulk move
re-points it at its new row, so it stays valid, and
:meth:`StreamTable.open` creates one already attached to a new row (a
stream admitted by id, as the cluster admits viewers).  Its methods
are the per-stream reference semantics the scalar scheduler loop runs
on.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
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
_PLAYING, _PAUSED, _DONE = (_CODE[state] for state in _STATES)
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
            raise start_block_error(start_block, media)
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


def start_block_error(start_block: int, media: MediaObject) -> ValueError:
    """The error for a start block outside ``media``."""
    return ValueError(
        f"start block {start_block} out of 0..{media.num_blocks - 1}"
    )


#: A :class:`Stream` without ``__init__`` (:meth:`StreamTable.open`
#: fills in its slots).
_new_stream = Stream.__new__

#: The table's columns and their dtypes (one numpy array each;
#: growth, compaction and bulk moves move them together).
_COLUMNS = {
    "object_id": np.int64,
    "position": np.int64,
    "rate": np.int64,
    "length": np.int64,
    "state": np.int8,
    "stall_rounds": np.int64,
    "blocks_consumed": np.int64,
}

_stream_id = attrgetter("stream_id")
_object_id = attrgetter("object_id")
_rate = attrgetter("blocks_per_round")
_length = attrgetter("num_blocks")


class StreamTable:
    """A scheduler's admitted streams as parallel numpy columns.

    Row ``r`` of every column describes one stream; rows stay in
    admission order.  :meth:`append` adds a row for a detached handle
    and :meth:`open` one for a new stream, its handle created on the
    row (amortized O(1): the columns double when full); :meth:`remove`
    marks the row vacant and detaches the handle; :meth:`move` hands
    many rows to another table at once.  Once vacant rows outnumber live ones the table compacts
    (on a departure, or :meth:`compact_if_due` after moves), keeping the
    live rows' order, so m admissions, departures and moved rows copy
    O(m) rows in all (:attr:`rows_copied` counts them).

    The table owns every state change, so it keeps
    :attr:`active_demand` — the playing rows' summed rate — exact by
    adjusting it per row update and by masked sums per batch update.
    """

    #: Vacant rows below which the table never compacts.
    MIN_COMPACT = 16

    def __init__(self) -> None:
        self._empty()
        #: Rows copied by growth, compaction and bulk moves into this
        #: table (a complexity counter).
        self.rows_copied = 0

    def _empty(self) -> None:
        """Start over with no rows, in fresh columns (departed handles
        keep reading the old ones)."""
        for name, dtype in _COLUMNS.items():
            setattr(self, name, np.zeros(16, dtype=dtype))
        #: What departed rows' handles read (see :class:`_Departed`).
        self._departed = _Departed(self)
        #: Row -> admitted handle (None for a vacant row).
        self._handles: list[Optional[Stream]] = []
        self._by_id: dict[int, Stream] = {}
        self._vacant = 0
        #: Summed rate of the playing rows (blocks/round).
        self.active_demand = 0

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
        return self.handles_at(self.live_rows(object_id))

    def live_rows(self, object_id: Optional[int] = None) -> np.ndarray:
        """The admitted streams' rows, ascending (only those playing
        ``object_id`` when given)."""
        n = self.rows
        live = self.state[:n] != _VACANT
        if object_id is not None:
            live &= self.object_id[:n] == object_id
        return np.flatnonzero(live)

    def handles_at(self, rows: np.ndarray) -> list[Stream]:
        """The streams admitted at ``rows`` (live rows), in order."""
        return list(map(self._handles.__getitem__, rows.tolist()))

    def active_count(self) -> int:
        """Rows in the playing state."""
        return int(np.count_nonzero(self.state[: self.rows] == _PLAYING))

    def append(self, stream: Stream) -> None:
        """Admit ``stream``, a detached handle: add a row with its values
        and attach the handle to it."""
        if stream._table is not None:
            raise ValueError(
                f"stream {stream.stream_id} is already admitted to a scheduler"
            )
        if stream._left is not None:
            stream._detach()
        self._attach(
            stream,
            stream._position,
            stream._state,
            stream._stall_rounds,
            stream._blocks_consumed,
        )

    def open(
        self, stream_id: int, media: MediaObject, position: int = 0
    ) -> Stream:
        """Admit a new stream of ``media`` playing from ``position`` (a
        block index the caller has checked); its handle, created on its
        new row: what ``Stream(stream_id, media, position)`` and then
        :meth:`append` give."""
        stream = _new_stream(Stream)
        stream.stream_id = stream_id
        stream.media = media
        stream._left = None
        stream._position = position
        stream._state = _PLAYING_STATE
        stream._stall_rounds = 0
        stream._blocks_consumed = 0
        self._attach(stream, position, _PLAYING_STATE, 0, 0)
        return stream

    def _attach(
        self,
        stream: Stream,
        position: int,
        state: StreamState,
        stall_rounds: int,
        blocks_consumed: int,
    ) -> None:
        """The row writer of :meth:`append` and :meth:`open`: add a row
        holding ``stream``'s media and these values, and attach the
        handle to it.

        Rows past :attr:`rows` are all zero (rows are only appended, and
        growth and compaction move them into fresh zeroed arrays), so
        only non-zero fields are written.
        """
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
        if position:
            self.position[row] = position
        if state is not _PLAYING_STATE:
            self.state[row] = _CODE[state]
        if stall_rounds:
            self.stall_rounds[row] = stall_rounds
        if blocks_consumed:
            self.blocks_consumed[row] = blocks_consumed
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

    def compact_if_due(self) -> None:
        """Compact when vacant rows are due, as :meth:`remove` does (for
        the rows :meth:`move` leaves behind)."""
        vacant = self._vacant
        if vacant >= self.MIN_COMPACT and vacant > len(self._by_id):
            self._compact()

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

    # -- bulk moves -----------------------------------------------------
    def handoff(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For live rows: whether each stream has played to its end, and
        whether it plays once moved (it is not paused) — what a move to
        another copy decides on."""
        finished = self.position.take(rows) >= self.length.take(rows)
        return finished, self.state.take(rows) != _PAUSED

    def move(
        self,
        rows: np.ndarray,
        dests: Sequence["StreamTable"],
        dest_of: Optional[np.ndarray] = None,
        media: Optional[Sequence[MediaObject]] = None,
        media_of: Optional[np.ndarray] = None,
    ) -> None:
        """Move the streams at ``rows`` (distinct live rows) to other
        tables: the stream at ``rows[i]`` to the end of
        ``dests[dest_of[i]]`` (``dests[0]`` when ``dest_of`` is None),
        keeping their order.  One take per column per destination, then
        one pass re-pointing each handle at its new row, so a handle
        stays valid across the move.

        With ``media`` (catalog entries, the stream at ``rows[i]``
        taking ``media[media_of[i]]``) each row is a re-admission on
        another copy, the row a fresh :class:`Stream` at the same
        position would append: the entry's object id, rate and length,
        ``stall_rounds`` and ``blocks_consumed`` at 0, and playing
        unless paused; the handle takes the entry.  Without it the rows
        move as they are.  Each destination counts the rows it takes in
        :attr:`rows_copied`.  The rows left behind go vacant as after
        departures, without compacting (so this table's other row
        numbers stay valid for a second move): call
        :meth:`compact_if_due` after the last one.  A table left with no
        streams starts over.
        """
        rows = np.asarray(rows, dtype=np.int64)
        count = rows.shape[0]
        if not count:
            return
        n = self.rows
        if (
            rows.min() < 0
            or rows.max() >= n
            or (self.state.take(rows) == _VACANT).any()
            or np.count_nonzero(np.bincount(rows, minlength=n)) != count
        ):
            raise ValueError("only distinct live rows can move")
        if any(dest is self for dest in dests):
            raise ValueError("a table cannot move rows to itself")
        dest_of = (
            np.zeros(count, dtype=np.int64)
            if dest_of is None
            else np.asarray(dest_of, dtype=np.int64)
        )
        if media is not None:
            which = np.asarray(media_of, dtype=np.int64)
            entries = {
                column: np.fromiter(map(field, media), dtype=np.int64)
                for column, field in (
                    ("object_id", _object_id),
                    ("rate", _rate),
                    ("length", _length),
                )
            }
        handles = self._handles
        groups = []
        for d, dest in enumerate(dests):
            picked = np.flatnonzero(dest_of == d)
            taken = rows.take(picked)
            streams = list(map(handles.__getitem__, taken.tolist()))
            dest_ids = list(map(_stream_id, streams))
            if not dest._by_id.keys().isdisjoint(dest_ids):
                raise ValueError("a moved stream id is already in its destination")
            if streams:
                groups.append((dest, picked, taken, streams, dest_ids))
        for dest, picked, taken, streams, dest_ids in groups:
            start = dest.rows
            end = start + picked.shape[0]
            capacity = dest.state.shape[0]
            if end > capacity:
                while capacity < end:
                    capacity *= 2
                dest._resize(capacity)
            for name in _COLUMNS:
                getattr(dest, name)[start:end] = getattr(self, name).take(taken)
            state = dest.state[start:end]
            if media is not None:
                copy_of = which.take(picked)
                for column, values in entries.items():
                    getattr(dest, column)[start:end] = values.take(copy_of)
                state[state != _PAUSED] = _PLAYING
                dest.stall_rounds[start:end] = 0
                dest.blocks_consumed[start:end] = 0
            dest.active_demand += int(dest.rate[start:end][state == _PLAYING].sum())
            dest._handles.extend(streams)
            dest._by_id.update(zip(dest_ids, streams))
            if media is None:
                for row, stream in enumerate(streams, start):
                    stream._table = dest
                    stream._row = row
            else:
                for row, stream, k in zip(
                    range(start, end), streams, copy_of.tolist()
                ):
                    stream._table = dest
                    stream._row = row
                    stream.media = media[k]
            dest.rows_copied += end - start

        by_id = self._by_id
        if count == len(by_id):
            self._empty()
            return
        playing = self.state.take(rows) == _PLAYING
        self.active_demand -= int(self.rate.take(rows)[playing].sum())
        self.state[rows] = _VACANT
        for row in rows.tolist():
            handles[row] = None
        for *_, dest_ids in groups:
            for stream_id in dest_ids:
                del by_id[stream_id]
        self._vacant += count

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
