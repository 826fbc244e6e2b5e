"""The durable storage engine: WAL + snapshots + the recovery driver.

:class:`DurableStore` owns one data directory::

    data_dir/
      meta.json                    # storage format + program fingerprint
      wal/wal-00000001.log ...     # CRC-framed intent/commit records
      snapshots/snapshot-*.snap    # generation-keyed converged models

and implements the persistence hook :class:`~repro.engine.session.
DatalogSession` calls around every ``add_facts`` batch (the commit
protocol — intent durable *before* the model changes, commit durable only
*after* incremental maintenance converged — is what moves the meaning of
"ingested" from "in memory" to "durable, then converged, then
published").  :func:`open_session` is the recovery driver and the public
entry point: it loads the newest valid snapshot, replays only the WAL
tail through the session's normal incremental maintenance path, and
returns a serving session with the store attached.

Checkpoints are *captured* synchronously at a commit point (pinning
zero-copy :class:`~repro.database.relation.RelationDelta` windows over
the append-only relations — no rows are copied and no lock is held while
serializing) and *written* by a single background thread; retention then
keeps the ``snapshots_kept`` newest snapshots plus every WAL segment
newer than the oldest kept snapshot, so recovery can always fall back one
snapshot without losing batches.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.database.relation import RelationDelta
from repro.engine.limits import DEFAULT_LIMITS, EvaluationLimits
from repro.engine.session import DatalogSession
from repro.errors import CorruptLogError, CorruptSnapshotError, StorageError
from repro.language.clauses import Program
from repro.language.parser import parse_program
from repro.sequences import Sequence
from repro.storage import snapshot as snapshot_io
from repro.storage import wal as wal_io

#: Bumped when the data-dir layout itself changes shape.
STORE_FORMAT = 1

DEFAULT_CHECKPOINT_ROWS = 100_000
DEFAULT_CHECKPOINT_SEGMENTS = 4
DEFAULT_SNAPSHOTS_KEPT = 2


def program_fingerprint(program: Program) -> str:
    """SHA-256 of the canonical program text (clause order included)."""
    return hashlib.sha256(str(program).encode("utf-8")).hexdigest()


@dataclass
class RecoveryReport:
    """What one :func:`open_session` recovery did (see ``stats()``)."""

    snapshot_generation: Optional[int] = None
    snapshot_path: Optional[str] = None
    snapshot_facts: int = 0
    replayed_batches: int = 0
    replayed_facts: int = 0
    dropped_batches: int = 0
    skipped_snapshots: int = 0
    truncated: bool = False
    warnings: List[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def cold_start(self) -> bool:
        return self.snapshot_generation is None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "snapshot_generation": self.snapshot_generation,
            "snapshot_path": self.snapshot_path,
            "snapshot_facts": self.snapshot_facts,
            "replayed_batches": self.replayed_batches,
            "replayed_facts": self.replayed_facts,
            "dropped_batches": self.dropped_batches,
            "skipped_snapshots": self.skipped_snapshots,
            "truncated": self.truncated,
            "warnings": list(self.warnings),
            "cold_start": self.cold_start,
            "elapsed_seconds": self.elapsed_seconds,
        }


class _CheckpointJob:
    """A consistent model capture, pinned at a commit point."""

    __slots__ = ("generation", "batch", "views", "base_facts", "fact_count")

    def __init__(self, generation, batch, views, base_facts, fact_count):
        self.generation = generation
        self.batch = batch
        self.views = views
        self.base_facts = base_facts
        self.fact_count = fact_count


def _wire_values(values) -> List[str]:
    return [
        value.text if isinstance(value, Sequence) else str(value)
        for value in values
    ]


class DurableStore:
    """One data directory's WAL, snapshots, counters and retention.

    Built and attached by :func:`open_session`; sessions drive it through
    the hook methods (:meth:`begin_batch` / :meth:`commit_batch`) and the
    lifecycle methods (:meth:`checkpoint`, :meth:`close`).  Appends are
    serialized by the session's single-writer discipline (the server's
    writer lock when wrapped); the internal lock only coordinates the
    background checkpoint writer with the commit path.
    """

    def __init__(
        self,
        data_dir: str,
        program: Program,
        segment_max_bytes: int = wal_io.DEFAULT_SEGMENT_MAX_BYTES,
        checkpoint_rows: int = DEFAULT_CHECKPOINT_ROWS,
        checkpoint_segments: int = DEFAULT_CHECKPOINT_SEGMENTS,
        snapshots_kept: int = DEFAULT_SNAPSHOTS_KEPT,
        fsync: bool = True,
        background_checkpoints: bool = True,
    ):
        self.data_dir = os.path.abspath(data_dir)
        self.program = program
        self.fingerprint = program_fingerprint(program)
        self.checkpoint_rows = max(1, int(checkpoint_rows))
        self.checkpoint_segments = max(1, int(checkpoint_segments))
        self.snapshots_kept = max(1, int(snapshots_kept))
        self.background_checkpoints = background_checkpoints
        self.wal_dir = os.path.join(self.data_dir, "wal")
        self.snapshot_dir = os.path.join(self.data_dir, "snapshots")
        try:
            os.makedirs(self.wal_dir, exist_ok=True)
            os.makedirs(self.snapshot_dir, exist_ok=True)
        except OSError as error:
            raise StorageError(
                f"cannot create data directory {self.data_dir}: {error}"
            ) from error
        self._check_meta()
        self._wal = wal_io.WriteAheadLog(
            self.wal_dir, segment_max_bytes=segment_max_bytes, fsync=fsync
        )
        self._session: Optional[DatalogSession] = None
        self._lock = threading.Lock()
        self._checkpoint_thread: Optional[threading.Thread] = None
        self._closed = False
        # Counters the recovery driver seeds before attach.
        self.generation = 0
        self._next_batch = 1
        self._last_snapshot_generation: Optional[int] = None
        self._last_snapshot_batch = 0
        self._last_snapshot_path: Optional[str] = None
        self._last_committed_batch = 0
        self._rows_since_snapshot = 0
        self._commits_since_snapshot = 0
        self._commits = 0
        self._intents = 0
        self._checkpoints_written = 0
        self._last_checkpoint_error: Optional[str] = None
        self.recovery: Optional[RecoveryReport] = None

    # ------------------------------------------------------------------
    # Directory metadata
    # ------------------------------------------------------------------
    def _check_meta(self) -> None:
        path = os.path.join(self.data_dir, "meta.json")
        if os.path.exists(path):
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    meta = json.load(handle)
            except (OSError, ValueError) as error:
                raise StorageError(
                    f"cannot read storage metadata {path}: {error}"
                ) from error
            if not isinstance(meta, dict) or meta.get("format") != STORE_FORMAT:
                raise StorageError(
                    f"storage metadata {path} declares format "
                    f"{meta.get('format') if isinstance(meta, dict) else meta!r}; "
                    f"this build reads only format {STORE_FORMAT}"
                )
            if meta.get("program") != self.fingerprint:
                raise StorageError(
                    f"data directory {self.data_dir} was created for a "
                    "different program (fingerprint "
                    f"{str(meta.get('program'))[:12]}..., expected "
                    f"{self.fingerprint[:12]}...); wipe it or open it with "
                    "the original program"
                )
            return
        tmp = path + ".tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump({"format": STORE_FORMAT, "program": self.fingerprint}, handle)
            os.replace(tmp, path)
        except OSError as error:
            raise StorageError(
                f"cannot write storage metadata {path}: {error}"
            ) from error

    # ------------------------------------------------------------------
    # Session attachment
    # ------------------------------------------------------------------
    def attach_session(self, session: DatalogSession) -> None:
        self._session = session

    @property
    def attached(self) -> bool:
        return self._session is not None

    # ------------------------------------------------------------------
    # The persistence hook (called by DatalogSession.add_facts)
    # ------------------------------------------------------------------
    def begin_batch(self, pending: List[Tuple[str, Tuple]]) -> int:
        """Make the batch's intent durable; returns its batch id.

        Written (and flushed) *before* the first fact touches the resident
        model — a crash after this point but before the commit record
        leaves an intent-without-commit tail that recovery drops, exactly
        matching the fact that the caller was never acknowledged.
        """
        self._require_open()
        batch = self._next_batch
        self._next_batch += 1
        self._wal.append(
            {
                "t": "intent",
                "batch": batch,
                "facts": [
                    [predicate, _wire_values(values)]
                    for predicate, values in pending
                ],
            }
        )
        self._intents += 1
        return batch

    def commit_batch(self, batch: int, applied: int, facts_added: int) -> None:
        """Mark a batch committed (fsynced) after maintenance converged.

        ``applied`` is how many of the intent's facts were inserted (the
        accepted prefix on a mid-batch rejection); ``facts_added`` is the
        interpretation's growth, which advances the generation counter on
        exactly the same condition the server publishes a new snapshot.
        """
        self._require_open()
        with self._lock:
            if facts_added > 0:
                self.generation += 1
            self._wal.append(
                {
                    "t": "commit",
                    "batch": batch,
                    "applied": applied,
                    "generation": self.generation,
                },
                sync=True,
            )
            self._commits += 1
            self._last_committed_batch = batch
            self._rows_since_snapshot += facts_added
            self._commits_since_snapshot += 1
            job = self._maybe_capture_locked()
        if job is not None:
            self._start_checkpoint(job)

    def _require_open(self) -> None:
        if self._closed:
            raise StorageError(
                f"the durable store for {self.data_dir} is closed"
            )

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------
    def _capture_locked(self) -> _CheckpointJob:
        assert self._session is not None
        interpretation = self._session._core.interpretation
        views = {}
        for predicate in interpretation.predicates():
            relation = interpretation.relation(predicate)
            views[predicate] = RelationDelta(relation, 0, len(relation))
        return _CheckpointJob(
            generation=self.generation,
            batch=self._last_committed_batch,
            views=views,
            base_facts=list(self._session._base_facts),
            fact_count=interpretation.fact_count(),
        )

    def _maybe_capture_locked(self) -> Optional[_CheckpointJob]:
        # A snapshot must be a converged fixpoint: an unmaterialised lazy
        # session (base facts only) or a poisoned one is never captured —
        # the WAL alone recovers those.
        if not self.background_checkpoints or self._session is None:
            return None
        if not self._session._materialized or self._session.poisoned:
            return None
        if self._checkpoint_thread is not None and self._checkpoint_thread.is_alive():
            return None
        due = (
            self._rows_since_snapshot >= self.checkpoint_rows
            or len(self._wal.closed_segments()) >= self.checkpoint_segments
        )
        if not due:
            return None
        job = self._capture_locked()
        self._rows_since_snapshot = 0
        self._commits_since_snapshot = 0
        return job

    def _start_checkpoint(self, job: _CheckpointJob) -> None:
        thread = threading.Thread(
            target=self._write_checkpoint,
            args=(job,),
            name="repro-storage-checkpoint",
            daemon=True,
        )
        self._checkpoint_thread = thread
        thread.start()

    def _write_checkpoint(self, job: _CheckpointJob) -> Optional[str]:
        """Serialize one captured model; safe off-thread (views are pinned)."""
        try:
            relation_rows = {
                predicate: [
                    tuple(_wire_values(row)) for row in view
                ]
                for predicate, view in job.views.items()
            }
            base_facts = [
                (predicate, tuple(_wire_values(values)))
                for predicate, values in job.base_facts
            ]
            path = snapshot_io.write_snapshot(
                self.snapshot_dir,
                generation=job.generation,
                batch=job.batch,
                program_fingerprint=self.fingerprint,
                relation_rows=relation_rows,
                base_facts=base_facts,
                fact_count=job.fact_count,
            )
        except Exception as error:  # surfaced through stats, never fatal
            with self._lock:
                self._last_checkpoint_error = f"{type(error).__name__}: {error}"
            return None
        with self._lock:
            self._checkpoints_written += 1
            self._last_checkpoint_error = None
            if (
                self._last_snapshot_generation is None
                or job.generation >= self._last_snapshot_generation
            ):
                self._last_snapshot_generation = job.generation
                self._last_snapshot_batch = job.batch
                self._last_snapshot_path = path
            self._retain_locked()
        return path

    def _retain_locked(self) -> None:
        """Keep the newest snapshots and every WAL segment they may need."""
        snapshot_io.prune_snapshots(self.snapshot_dir, self.snapshots_kept)
        kept = snapshot_io.list_snapshots(self.snapshot_dir)
        if not kept:
            return
        oldest_kept_batch = None
        for _generation, path in kept:
            try:
                header = snapshot_io.read_header(path)
            except StorageError:
                return  # never prune the log under questionable snapshots
            batch = header["batch"]
            if oldest_kept_batch is None or batch < oldest_kept_batch:
                oldest_kept_batch = batch
        if oldest_kept_batch is not None:
            self._wal.prune(oldest_kept_batch)

    def checkpoint(self) -> str:
        """Write a snapshot of the current converged model, synchronously.

        Must not race ``add_facts`` — callers either own the session
        (CLI ``snapshot``) or hold the server's writer lock
        (:meth:`~repro.engine.server.DatalogServer.checkpoint`).
        """
        self._require_open()
        if self._session is None:
            raise StorageError("no session is attached to this store")
        self._session.materialize()  # a snapshot is always a full fixpoint
        self._join_checkpoint_thread()
        with self._lock:
            job = self._capture_locked()
            self._rows_since_snapshot = 0
            self._commits_since_snapshot = 0
        path = self._write_checkpoint(job)
        if path is None:
            raise StorageError(
                f"checkpoint failed: {self._last_checkpoint_error}"
            )
        return path

    def _join_checkpoint_thread(self, timeout: float = 60.0) -> None:
        thread = self._checkpoint_thread
        if thread is not None and thread.is_alive():
            thread.join(timeout=timeout)
        self._checkpoint_thread = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, final_snapshot: bool = True) -> None:
        """Flush the WAL and (by default) write a final snapshot.

        The graceful-shutdown path: after this, recovery is a pure
        snapshot load with an empty WAL tail.  A poisoned session is
        never snapshotted — its model is a partial fixpoint.
        """
        if self._closed:
            return
        self._join_checkpoint_thread()
        session = self._session
        if (
            final_snapshot
            and session is not None
            and not session.poisoned
            and session._materialized
            and (self._commits_since_snapshot > 0
                 or self._last_snapshot_generation is None)
        ):
            try:
                self.checkpoint()
            except StorageError:
                pass  # shutting down: the WAL alone still recovers everything
        self._closed = True
        self._wal.close()

    def abandon(self) -> None:
        """Drop file handles without flushing state (crash simulation)."""
        self._closed = True
        self._join_checkpoint_thread(timeout=5.0)
        self._wal.close()

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Durability counters for ``session.stats()["durability"]``."""
        with self._lock:
            segments = self._wal.segments()
            stats: Dict[str, Any] = {
                "data_dir": self.data_dir,
                "generation": self.generation,
                "wal": {
                    "segments": len(segments),
                    "bytes": self._wal.total_bytes(),
                    "intents": self._intents,
                    "commits": self._commits,
                    "syncs": self._wal.syncs,
                    "last_batch": self._last_committed_batch,
                },
                "snapshot": {
                    "generation": self._last_snapshot_generation,
                    "batch": self._last_snapshot_batch,
                    "path": self._last_snapshot_path,
                    "count": len(snapshot_io.list_snapshots(self.snapshot_dir)),
                    "checkpoints_written": self._checkpoints_written,
                    "rows_since": self._rows_since_snapshot,
                    "commits_since": self._commits_since_snapshot,
                    "last_error": self._last_checkpoint_error,
                },
            }
        if self.recovery is not None:
            stats["recovery"] = self.recovery.as_dict()
        return stats

    def __repr__(self) -> str:
        return (
            f"DurableStore({self.data_dir!r}, generation={self.generation}, "
            f"last_batch={self._last_committed_batch})"
        )


# ----------------------------------------------------------------------
# The recovery driver
# ----------------------------------------------------------------------
def open_session(
    program: Union[str, Program],
    data_dir: str,
    database=None,
    limits: EvaluationLimits = DEFAULT_LIMITS,
    transducers=None,
    prepared_cache_size: int = 128,
    demand_cache_size: int = 32,
    lazy: bool = False,
    use_kernels: Optional[bool] = None,
    storage_options: Optional[Dict[str, Any]] = None,
) -> DatalogSession:
    """Open (or create) a durable session backed by ``data_dir``.

    The recovery sequence (ARCHITECTURE.md §11):

    1. validate ``meta.json`` (format + program fingerprint);
    2. load the newest *valid* snapshot — a corrupt one is skipped with a
       warning and the next-older tried (retention keeps the WAL segments
       that older snapshot needs); the restored model is marked converged,
       so no fixpoint work is re-done for it;
    3. replay the WAL tail: every committed batch newer than the snapshot
       goes through the session's normal incremental maintenance path, in
       commit order; intent-without-commit tails (crash mid-batch — the
       caller was never acknowledged) are dropped; a torn/corrupt final
       frame is truncated with a warning, damage anywhere else raises
       :class:`~repro.errors.CorruptLogError`;
    4. attach the store: future ``add_facts`` calls run the intent/commit
       protocol, and background checkpoints resume.

    ``database`` (optional) is ingested as an ordinary durable batch
    after recovery — on a restart its facts are already present and the
    batch is absorbed without advancing the generation.  The recovered
    session is fact-for-fact identical to one that never crashed
    (``tests/test_properties.py`` checks this property on randomized
    crash points).
    """
    started = time.perf_counter()
    program = parse_program(program) if isinstance(program, str) else program
    program.validate()
    options = dict(storage_options or {})
    store = DurableStore(data_dir, program, **options)
    report = RecoveryReport()

    session = DatalogSession(
        program,
        limits=limits,
        transducers=transducers,
        prepared_cache_size=prepared_cache_size,
        demand_cache_size=demand_cache_size,
        lazy=True,  # recovery controls materialisation itself
        use_kernels=use_kernels,
    )
    try:
        _recover_into(store, session, report)
    except Exception:
        session.close()
        raise
    report.elapsed_seconds = time.perf_counter() - started
    store.recovery = report

    store.attach_session(session)
    session.attach_storage(store)
    if not lazy:
        session.materialize()
    if database is not None:
        session.add_facts(database)
    return session


def _recover_into(
    store: DurableStore, session: DatalogSession, report: RecoveryReport
) -> None:
    # --- 2. newest valid snapshot -------------------------------------
    header = None
    for generation, path in snapshot_io.list_snapshots(store.snapshot_dir):
        try:
            header, facts, base_facts = snapshot_io.load_snapshot(
                path, store.fingerprint
            )
        except CorruptSnapshotError as error:
            report.skipped_snapshots += 1
            report.warnings.append(f"skipped corrupt snapshot: {error}")
            continue
        session.restore_state(facts, base_facts)
        report.snapshot_generation = header["generation"]
        report.snapshot_path = path
        report.snapshot_facts = header["facts"]
        store.generation = header["generation"]
        store._last_snapshot_generation = header["generation"]
        store._last_snapshot_batch = header["batch"]
        store._last_snapshot_path = path
        store._next_batch = header["batch"] + 1
        store._last_committed_batch = header["batch"]
        break

    snapshot_batch = store._last_snapshot_batch

    # --- 3. replay the WAL tail ---------------------------------------
    intents: Dict[int, List] = {}
    committed: List[Tuple[int, List, int, int]] = []
    max_batch = [snapshot_batch]

    def on_record(path: str, offset: int, record: Dict[str, Any]) -> None:
        kind = record.get("t")
        batch = record.get("batch")
        if not isinstance(batch, int):
            raise CorruptLogError(
                f"WAL segment {path} holds a record without a batch id "
                f"at byte {offset}"
            )
        max_batch[0] = max(max_batch[0], batch)
        if kind == "intent":
            intents[batch] = record.get("facts", [])
        elif kind == "commit":
            if batch <= snapshot_batch:
                intents.pop(batch, None)
                return  # already inside the snapshot
            facts = intents.pop(batch, None)
            if facts is None:
                raise CorruptLogError(
                    f"WAL segment {path} commits batch {batch} at byte "
                    f"{offset} but its intent record is missing — a "
                    "segment was lost"
                )
            committed.append(
                (
                    batch,
                    facts,
                    record.get("applied", len(facts)),
                    record.get("generation", store.generation),
                )
            )
        else:
            raise CorruptLogError(
                f"WAL segment {path} holds an unknown record type "
                f"{kind!r} at byte {offset}"
            )

    last_batch_by_segment = wal_io.scan_segments(
        store.wal_dir, on_record, report.warnings
    )
    store._wal.segment_last_batch.update(last_batch_by_segment)
    report.truncated = any("truncated" in w for w in report.warnings)

    # Every batch in ``committed`` converged before the crash, and the
    # program is monotone, so replaying their accepted prefixes as one
    # combined maintenance run reaches the same fixpoint as replaying
    # them batch by batch — while paying the per-run sweep overhead
    # (delta index builds over the restored model) once instead of once
    # per batch.
    if committed:
        entries = [
            (predicate, tuple(values))
            for batch, facts, applied, generation in committed
            for predicate, values in facts[:applied]
        ]
        try:
            maintenance = session.add_facts(entries)
        except Exception as error:
            batches = ", ".join(str(batch) for batch, *_ in committed)
            raise StorageError(
                f"recovery replay failed on committed batches {batches}: "
                f"{type(error).__name__}: {error}"
            ) from error
        report.replayed_batches = len(committed)
        report.replayed_facts = maintenance.base_facts_added
        store.generation = max(
            store.generation, *(generation for *_, generation in committed)
        )
        store._last_committed_batch = committed[-1][0]

    report.dropped_batches = len(intents)
    for batch in sorted(intents):
        report.warnings.append(
            f"dropped uncommitted batch {batch} (crash mid-batch; the "
            "writer was never acknowledged)"
        )
    store._next_batch = max_batch[0] + 1
    store._rows_since_snapshot = (
        session.fact_count() - report.snapshot_facts
        if report.snapshot_generation is not None
        else session.fact_count()
    )
