"""The journal core: one begin/apply/commit protocol for every layer.

SCADDAR moves data while the server keeps serving, so every layer that
moves data journals it: blocks between disks
(:class:`repro.server.journal.ScalingJournal`) and objects between
shards (:class:`repro.cluster.journal.ClusterJournal`).  Both write the
same append-only JSON lines, one operation at a time:

* ``begin`` — the operation and its full move plan;
* ``apply`` — one record per landed move;
* ``commit`` / ``abort`` — the terminal record.

:class:`Journal` owns everything the layers share: the file or
in-memory store, flush and optional fsync, the protocol checks, the
torn final line, the typed corruption error, and the fold from records
to per-operation state.  The protocol is checked when a record is
written, and the same checks run over a file's records when it is
opened.  A layer subclass only encodes its records (in its
``record_begin`` / ``record_apply``) and decodes them
(``_decode_begin`` / ``_decode_apply``).

An existing file is parsed once, when the journal is opened; after
that the per-operation records live in memory, so an append costs O(1)
and never re-reads the file.  A torn final line — the classic
crash-while-appending artifact — is dropped, and cut off the file
before the next append, so that record starts on a fresh line.  A
journal opened only to read leaves its file untouched.
"""

from __future__ import annotations

import copy
import json
import os
from pathlib import Path
from typing import Any, ClassVar, Generic, Optional, TypeVar

from repro.obs import NULL_OBS


class JournalError(Exception):
    """Raised on journal corruption or protocol violations."""


class JournalCorruptionError(JournalError):
    """A damaged record anywhere but the torn final line.

    A torn *final* line is the expected crash artifact and is dropped
    silently; a damaged *interior* record (unparseable JSON, or valid
    JSON missing required fields) means the file itself was harmed —
    truncation, bit rot, concurrent writers — and recovery must stop.
    ``lineno`` names the 1-based damaged line so the operator can
    inspect exactly where the journal went bad.
    """

    def __init__(self, lineno: int, reason: str):
        super().__init__(f"corrupt journal line {lineno}: {reason}")
        self.lineno = lineno
        self.reason = reason


class JournalRecord:
    """What the fold reads and writes on a layer's per-operation record."""

    seq: int
    plan: tuple
    applied: list
    committed: bool
    aborted: bool

    @property
    def open(self) -> bool:
        """Whether the operation is still in flight."""
        return not (self.committed or self.aborted)

    @property
    def remaining(self) -> int:
        """Planned moves without an apply record."""
        return len(self.plan) - len(self.applied)


R = TypeVar("R", bound=JournalRecord)
J = TypeVar("J", bound="Journal")


class Journal(Generic[R]):
    """Append-only intent/apply/commit journal (see the module
    docstring); a layer subclass sets :attr:`METRICS` and the codec.

    Raises :class:`JournalCorruptionError` or :class:`JournalError` when
    the file being opened is damaged (see :meth:`replay`).
    """

    #: Obs metric prefix: records count into ``<METRICS>.records``
    #: (labelled by type), fsyncs time into ``<METRICS>.fsync.seconds``.
    METRICS: ClassVar[str]

    def __init__(self, path: str | Path | None = None, fsync: bool = False):
        self.path = Path(path) if path is not None else None
        self.fsync = fsync
        self.obs = NULL_OBS
        self._ops: list[R] = []
        self._lines = 0  # records so far; the file's line count on disk
        self._fh: Any = None  # opened by the first append
        # (bytes to keep, bytes to add) when the file's tail must be
        # repaired by the first append: a torn line, or a lost newline.
        self._tail: Optional[tuple[int, bytes]] = None
        if self.path is not None and self.path.exists():
            self._load(self.path.read_bytes())

    def attach_obs(self, obs) -> None:
        """Attach an observability handle (:class:`repro.obs.Obs`):
        records count into ``<METRICS>.records`` (labelled by type) and
        every fsync is timed into ``<METRICS>.fsync.seconds``."""
        self.obs = obs

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def record_commit(self, seq: int) -> None:
        """Journal completion of an operation."""
        self._append({"type": "commit", "seq": seq})

    def record_abort(self, seq: int) -> None:
        """Journal rollback of an operation."""
        self._append({"type": "abort", "seq": seq})

    def sync(self) -> None:
        """Force the journal to stable storage (no-op in memory)."""
        if self._fh is not None:
            self._fh.flush()
            with self.obs.timer(f"{self.METRICS}.fsync.seconds"):
                os.fsync(self._fh.fileno())

    def close(self) -> None:
        """Close the backing file (in-memory journals are unaffected)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self: J) -> J:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def replay(self) -> list[R]:
        """The per-operation records, oldest first.

        The records are copies: mutating them never changes the
        journal.  A damaged file raises when the journal is opened:
        :class:`JournalCorruptionError` for a damaged record anywhere
        but the final line — unparseable JSON or a record missing
        fields (a torn final line is the expected crash artifact and is
        dropped) — and :class:`JournalError` for well-formed records
        that violate the protocol (apply before begin, seq mismatches,
        unknown types).
        """
        return [_detached(op) for op in self._ops]

    def open_record(self) -> Optional[R]:
        """The in-flight operation, if the journal ends mid-operation
        (a copy, like :meth:`replay`'s records)."""
        if self._ops and self._ops[-1].open:
            return _detached(self._ops[-1])
        return None

    # ------------------------------------------------------------------
    # Codec, per layer: a record's dict -> its decoded value
    # ------------------------------------------------------------------
    def _decode_begin(self, entry: dict) -> R:
        raise NotImplementedError

    def _decode_apply(self, entry: dict) -> Any:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _append(self, entry: dict) -> None:
        self._fold(entry, self._lines + 1)
        self._lines += 1
        if self.obs.enabled:
            self.obs.inc(f"{self.METRICS}.records", type=entry["type"])
        if self.path is None:
            return
        if self._fh is None:
            self._fh = open(self.path, "ab")
            if self._tail is not None:
                keep, pad = self._tail
                self._tail = None
                self._fh.truncate(keep)
                if self.fsync:
                    self.sync()
                self._fh.write(pad)
        self._fh.write(json.dumps(entry, separators=(",", ":")).encode() + b"\n")
        self._fh.flush()
        if self.fsync:
            self.sync()

    def _load(self, data: bytes) -> None:
        lines = data.splitlines(keepends=True)
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except ValueError as exc:
                if lineno < len(lines):
                    raise JournalCorruptionError(
                        lineno, f"unparseable record ({exc})"
                    ) from None
                lines.pop()  # torn final line: the crash artifact
                self._tail = (len(data) - len(line), b"")
                break
            self._fold(entry, lineno)
        if lines and not lines[-1].endswith((b"\n", b"\r")):
            self._tail = (len(data), b"\n")
        self._lines = len(lines)

    def _fold(self, entry: dict, lineno: int) -> None:
        """Check one record against the protocol, then apply it to the
        per-operation state."""
        if not isinstance(entry, dict):
            raise JournalCorruptionError(lineno, "record is not an object")
        kind, seq = entry.get("type"), entry.get("seq")
        last = self._ops[-1] if self._ops else None
        try:
            if kind == "begin":
                if last is not None and last.open:
                    raise JournalError(
                        f"record {lineno}: operation seq={last.seq} is "
                        "still open; commit or abort it before beginning "
                        "another"
                    )
                self._ops.append(self._decode_begin(entry))
                return
            if last is None or not last.open:
                raise JournalError(
                    f"record {lineno}: {kind} for seq={seq} with no open "
                    "operation"
                )
            if seq != last.seq:
                raise JournalError(
                    f"record {lineno}: {kind} for seq={seq} does not "
                    f"match the open operation seq={last.seq}"
                )
            if kind == "apply":
                last.applied.append(self._decode_apply(entry))
            elif kind == "commit":
                last.committed = True
            elif kind == "abort":
                last.aborted = True
            else:
                raise JournalError(f"record {lineno}: unknown type {kind!r}")
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise JournalCorruptionError(
                lineno, f"damaged {kind} record ({exc!r})"
            ) from None

    def __repr__(self) -> str:
        where = str(self.path) if self.path is not None else "memory"
        return f"{type(self).__name__}({where}, records={self._lines})"


def _detached(op: R) -> R:
    """A copy of a record that shares no mutable state with the journal."""
    clone = copy.copy(op)
    clone.applied = list(op.applied)
    return clone
