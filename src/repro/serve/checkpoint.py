"""Durable serve checkpoints: state dirs sealed by an atomic cursor.

The serving loop's crash contract — *max rework after a crash is one
batch* — is carried entirely by the write ordering here:

1. :meth:`ServeCheckpoint.write_state` writes the batch's artifacts
   (one ``.npz`` monitor snapshot per shard, which holds the shard's
   scores and alarm log too) into a **new** commit-indexed directory,
   each file atomically;
2. :meth:`ServeCheckpoint.commit` atomically replaces ``cursor.json``
   — the single commit point — with a cursor referencing that
   directory, then prunes superseded state directories.

A crash before the commit leaves the previous cursor (and its intact
state directory) authoritative: the resumed run replays exactly the one
uncommitted batch.  The orphaned newer state directory doubles as the
rework marker — :meth:`ServeCheckpoint.load` reports it so the loop can
count the rework in telemetry.

A cursor is only trusted when it matches the run being resumed: the
recorded stream's content fingerprint, the serving-config fingerprint
and the shard count are all pinned inside it.  Any mismatch — or a
torn/corrupt cursor, or a missing, truncated or corrupt state file —
raises :class:`CursorInvalid`, and the loop falls back to restarting
from the stream head with an empty pool (warning logged) rather than
resuming into the wrong data.
"""

from __future__ import annotations

import json
import logging
import shutil
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.atomicio import atomic_write_json
from repro.errors import ConfigError, ServeError, SnapshotError
from repro.obs import get_metrics
from repro.obs import metrics as obs_metrics
from repro.runtime.snapshot import Columns, read_columns, restore_monitor, write_columns

if TYPE_CHECKING:
    from repro.core.streaming import StabilityMonitor

__all__ = [
    "CURSOR_NAME",
    "CURSOR_SCHEMA",
    "CURSOR_VERSION",
    "CursorInvalid",
    "CheckpointIOExhausted",
    "ServeCursor",
    "LoadedCheckpoint",
    "ServeCheckpoint",
]

logger = logging.getLogger(__name__)

#: Hook type for transient-I/O fault injection: called before every
#: write attempt as ``(operation, commit_index, attempt)`` and may raise
#: :class:`OSError` to simulate ENOSPC/EACCES on the checkpoint volume.
IOFaultHook = Callable[[str, int, int], None]

CURSOR_NAME = "cursor.json"
CURSOR_SCHEMA = "repro.serve-cursor"
CURSOR_VERSION = 1

#: Counter names a cursor persists (the Snippet-2 runbook quartet).
_COUNTER_KEYS = ("ingested", "scored", "flagged", "checkpointed")


class CursorInvalid(ServeError):
    """The checkpoint cannot be resumed from: torn cursor, foreign
    schema/version, or a stream/config/shard mismatch.  The serving loop
    treats this as "restart from the stream head", never as fatal."""


class CheckpointIOExhausted(ServeError):
    """A checkpoint write kept failing with :class:`OSError` after every
    bounded retry — the volume is genuinely unhealthy (persistent
    ENOSPC/EACCES), not transiently flaky, so the run must stop.  The
    committed cursor is untouched: a later resume reworks at most one
    batch, exactly as after a crash."""


@dataclass(frozen=True)
class ServeCursor:
    """The committed position of a serving run.

    ``commit_index`` names the state directory holding the shard
    snapshots as of this commit;
    ``day_batches_consumed`` is the replay skip count (whole days — a
    checkpoint batch never splits a day).  Counters ride inside the
    cursor so a resume restores them atomically with the position.
    """

    commit_index: int
    day_batches_consumed: int
    counters: dict[str, int]
    stream_fingerprint: str
    serve_fingerprint: str
    n_shards: int
    finished: bool

    def to_payload(self) -> dict:
        return {
            "schema": CURSOR_SCHEMA,
            "version": CURSOR_VERSION,
            "commit_index": self.commit_index,
            "day_batches_consumed": self.day_batches_consumed,
            "counters": {
                key: int(self.counters.get(key, 0)) for key in _COUNTER_KEYS
            },
            "stream_fingerprint": self.stream_fingerprint,
            "serve_fingerprint": self.serve_fingerprint,
            "n_shards": self.n_shards,
            "finished": self.finished,
        }

    @classmethod
    def from_payload(cls, payload: object) -> ServeCursor:
        """Validate and revive a cursor payload.

        Raises
        ------
        CursorInvalid
            On any schema/version/shape mismatch (version drift names
            the found and expected versions).
        """
        if not isinstance(payload, dict):
            raise CursorInvalid(f"cursor is not a JSON object: {payload!r}")
        if payload.get("schema") != CURSOR_SCHEMA:
            raise CursorInvalid(
                f"cursor schema {payload.get('schema')!r} is not "
                f"{CURSOR_SCHEMA!r}"
            )
        if payload.get("version") != CURSOR_VERSION:
            raise CursorInvalid(
                f"cursor version drift: found version "
                f"{payload.get('version')!r}, expected version "
                f"{CURSOR_VERSION}"
            )
        counters = payload.get("counters")
        if not isinstance(counters, dict):
            raise CursorInvalid("cursor counters must be an object")
        try:
            return cls(
                commit_index=int(payload["commit_index"]),
                day_batches_consumed=int(payload["day_batches_consumed"]),
                counters={
                    key: int(counters.get(key, 0)) for key in _COUNTER_KEYS
                },
                stream_fingerprint=str(payload["stream_fingerprint"]),
                serve_fingerprint=str(payload["serve_fingerprint"]),
                n_shards=int(payload["n_shards"]),
                finished=bool(payload["finished"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CursorInvalid(f"cursor missing or malformed field: {exc}") from exc


@dataclass(frozen=True)
class LoadedCheckpoint:
    """Everything a resume needs, read back from a valid checkpoint."""

    cursor: ServeCursor
    monitors: list[StabilityMonitor]
    #: A state directory newer than the cursor exists: a previous run
    #: crashed between its state write and the cursor commit, so the
    #: resumed run will rework exactly that one batch.
    orphaned_state: bool


class ServeCheckpoint:
    """One serving run's checkpoint directory (see module docstring).

    Parameters
    ----------
    directory:
        The durable run directory (cursor + state dirs + manifest).
    io_retries:
        Transient-:class:`OSError` budget per write operation: a state
        or cursor write that raises (ENOSPC, EACCES, a flaky NFS mount)
        is retried up to this many times with exponential backoff before
        :class:`CheckpointIOExhausted` stops the run.  ``0`` disables
        the retry path (first failure is final).
    io_backoff_s:
        Base backoff before the first retry; doubles per attempt.
    io_fault:
        Test/chaos hook called before every write attempt as
        ``(operation, commit_index, attempt)``; raising :class:`OSError`
        from it simulates a transient checkpoint-volume failure.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        io_retries: int = 2,
        io_backoff_s: float = 0.05,
        io_fault: IOFaultHook | None = None,
    ) -> None:
        if io_retries < 0:
            raise ConfigError(f"io_retries must be >= 0, got {io_retries}")
        if io_backoff_s < 0:
            raise ConfigError(
                f"io_backoff_s must be >= 0, got {io_backoff_s}"
            )
        self.directory = Path(directory)
        self.io_retries = int(io_retries)
        self.io_backoff_s = float(io_backoff_s)
        self.io_fault = io_fault

    @property
    def cursor_path(self) -> Path:
        return self.directory / CURSOR_NAME

    def state_dir(self, commit_index: int) -> Path:
        """The state directory of one commit."""
        return self.directory / f"state-{commit_index:06d}"

    def shard_path(self, commit_index: int, shard: int) -> Path:
        """One shard's monitor snapshot inside a commit's state directory."""
        return self.state_dir(commit_index) / f"shard-{shard:04d}.npz"

    # ------------------------------------------------------------------
    # Write protocol: state first, cursor second (the commit point).
    # ------------------------------------------------------------------
    def _with_io_retry(
        self,
        operation: str,
        commit_index: int,
        write: Callable[[], Path],
    ) -> Path:
        """Run one durable write under the bounded retry-with-backoff.

        Each failed attempt counts ``serve.checkpoint_io_retries`` and
        sleeps ``io_backoff_s * 2**attempt`` before the next try; when
        the budget is spent the last :class:`OSError` is re-raised
        wrapped in :class:`CheckpointIOExhausted`.
        """
        registry = get_metrics()
        last: OSError | None = None
        for attempt in range(self.io_retries + 1):
            try:
                if self.io_fault is not None:
                    self.io_fault(operation, commit_index, attempt)
                return write()
            except OSError as exc:
                last = exc
                if attempt >= self.io_retries:
                    break
                registry.counter(
                    obs_metrics.SERVE_CHECKPOINT_IO_RETRIES
                ).inc()
                logger.warning(
                    "checkpoint %s of commit %d failed (attempt %d/%d), "
                    "retrying: %s",
                    operation,
                    commit_index,
                    attempt + 1,
                    self.io_retries + 1,
                    exc,
                )
                time.sleep(self.io_backoff_s * (2**attempt))
        raise CheckpointIOExhausted(
            f"checkpoint {operation} of commit {commit_index} still "
            f"failing after {self.io_retries + 1} attempt(s): {last}"
        ) from last

    def write_state(
        self,
        commit_index: int,
        shard_payloads: Sequence[Columns],
    ) -> Path:
        """Write one commit's shard snapshots (atomically per file, into
        a directory the current cursor does not reference yet — so a
        crash mid-write cannot tear the committed state).
        Transient :class:`OSError` is retried with backoff (see
        :meth:`_with_io_retry`); a re-attempt rewrites the whole state
        directory, which is safe because nothing references it yet."""

        def write() -> Path:
            for shard, payload in enumerate(shard_payloads):
                write_columns(self.shard_path(commit_index, shard), payload)
            return self.state_dir(commit_index)

        return self._with_io_retry("write_state", commit_index, write)

    def commit(self, cursor: ServeCursor) -> Path:
        """Atomically advance the cursor, then prune superseded state.

        The cursor replace is the commit point; it rides the same
        bounded I/O retry as the state write (re-attempting an atomic
        replace is idempotent)."""

        def write() -> Path:
            return atomic_write_json(self.cursor_path, cursor.to_payload())

        path = self._with_io_retry("commit", cursor.commit_index, write)
        self._prune(keep=cursor.commit_index)
        return path

    def _prune(self, keep: int) -> None:
        kept = self.state_dir(keep)
        for candidate in sorted(self.directory.glob("state-*")):
            if candidate.is_dir() and candidate != kept:
                shutil.rmtree(candidate, ignore_errors=True)

    # ------------------------------------------------------------------
    # Resume
    # ------------------------------------------------------------------
    def load(
        self,
        *,
        stream_fingerprint: str,
        serve_fingerprint: str,
        n_shards: int,
    ) -> LoadedCheckpoint | None:
        """Read the committed checkpoint back for a resume.

        Returns ``None`` when no cursor exists (a fresh start, not an
        error).

        Raises
        ------
        CursorInvalid
            If the cursor or its referenced state cannot be trusted:
            torn/corrupt files, schema or version drift, or a
            stream/config/shard mismatch with the run being resumed.
        """
        if not self.cursor_path.exists():
            return None
        try:
            text = self.cursor_path.read_text()
        except OSError as exc:
            raise CursorInvalid(
                f"{self.cursor_path}: cannot read cursor: {exc}"
            ) from exc
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CursorInvalid(
                f"{self.cursor_path}: torn or corrupt cursor (invalid JSON)"
            ) from exc
        cursor = ServeCursor.from_payload(payload)
        if cursor.stream_fingerprint != stream_fingerprint:
            raise CursorInvalid(
                f"cursor was recorded over stream "
                f"{cursor.stream_fingerprint}, resuming over "
                f"{stream_fingerprint}"
            )
        if cursor.serve_fingerprint != serve_fingerprint:
            raise CursorInvalid(
                f"cursor was recorded under serving config "
                f"{cursor.serve_fingerprint}, resuming under "
                f"{serve_fingerprint}"
            )
        if cursor.n_shards != n_shards:
            raise CursorInvalid(
                f"cursor has {cursor.n_shards} shard(s), resuming with "
                f"{n_shards}"
            )
        commit = cursor.commit_index
        try:
            monitors = [
                restore_monitor(read_columns(self.shard_path(commit, shard)))
                for shard in range(n_shards)
            ]
        except SnapshotError as exc:
            raise CursorInvalid(
                f"committed state is missing, torn or corrupt: {exc}"
            ) from exc
        return LoadedCheckpoint(
            cursor=cursor,
            monitors=monitors,
            orphaned_state=self.state_dir(cursor.commit_index + 1).exists(),
        )
