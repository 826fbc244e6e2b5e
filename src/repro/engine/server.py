"""A thread-safe, snapshot-isolated serving layer over a resident model.

:class:`DatalogServer` turns the single-caller
:class:`~repro.engine.session.DatalogSession` into a concurrent server:

* **Snapshot-isolated reads.**  Every query pins a :class:`ModelSnapshot`
  — an immutable view of the resident model built from zero-copy
  :class:`~repro.database.relation.RelationDelta` windows ``[0, n)`` over
  the append-only relation stores, plus a watermark of the extended domain
  (:meth:`~repro.sequences.domain.ExtendedDomain.view`: its length and
  ``lmax`` at publication time).  Because relations and the domain only
  ever append, a pinned window stays valid (and unchanged) while
  maintenance inserts rows and domain sequences behind it: two queries
  against the same snapshot always agree, no matter how much maintenance
  ran in between.  Publishing copies nothing, so it costs O(number of
  predicates), not O(model).
* **Serialized maintenance with read admission.**  :meth:`add_facts` runs
  under a writer lock, mutating the session's resident model in place;
  concurrent queries keep reading the last *published* snapshot and never
  observe a half-maintained state.  A new snapshot is published atomically
  only after the maintenance run restored the least-fixpoint invariant.
  A maintenance run that fails on a resource limit poisons the underlying
  session; the failed run's partial facts are never published, and every
  subsequent call — from any thread — raises
  :class:`~repro.errors.SessionPoisonedError`.
* **Batched query execution.**  Results are cached per
  ``(snapshot generation, canonical pattern)`` in an LRU, identical
  in-flight queries are coalesced onto one execution (followers wait on the
  leader's result instead of recomputing it), and :meth:`query_batch`
  deduplicates a whole batch before executing the distinct patterns once
  each.  Under concurrent clients with overlapping workloads this is where
  aggregate throughput scaling comes from (measured by
  ``benchmarks/bench_api.py``).

The CLI exposes the server over TCP through ``python -m repro.cli serve
--tcp HOST:PORT``; the programmatic surface is
:meth:`repro.SequenceDatalogEngine.serve`.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.database.database import SequenceDatabase
from repro.database.relation import RelationDelta
from repro.engine.bindings import TransducerRegistry
from repro.engine.interpretation import Interpretation
from repro.engine.limits import DEFAULT_LIMITS, EvaluationLimits
from repro.engine.query import QueryResult, canonical_pattern, output_relation
from repro.engine.session import DatalogSession, FactsLike, MaintenanceReport
from repro.errors import StorageError, UnknownPredicateError, ValidationError
from repro.language.atoms import Atom
from repro.language.clauses import Program
from repro.sequences import DomainView


class ModelSnapshot:
    """An immutable view of the resident model at one publication point.

    Exposes the read surface :class:`~repro.engine.query.PreparedQuery`
    executes against (``relation()`` and ``domain``), backed by zero-copy
    append-only windows — pinning a snapshot copies no rows and no domain
    sequences: ``domain`` is a :class:`~repro.sequences.domain.DomainView`
    over the live domain's storage, cut at its publication watermark.
    """

    __slots__ = ("generation", "_views", "_domain", "_fact_count")

    def __init__(
        self,
        generation: int,
        views: Dict[str, RelationDelta],
        domain: DomainView,
        fact_count: int,
    ):
        self.generation = generation
        self._views = views
        self._domain = domain
        self._fact_count = fact_count

    @classmethod
    def of(cls, generation: int, interpretation: Interpretation) -> ModelSnapshot:
        """Pin the interpretation's current state.

        Must be called while no maintenance is mutating the interpretation
        (the server publishes under its writer lock).
        """
        views = {}
        for predicate in interpretation.predicates():
            relation = interpretation.relation(predicate)
            views[predicate] = RelationDelta(relation, 0, len(relation))
        return cls(
            generation, views, interpretation.domain.view(),
            interpretation.fact_count(),
        )

    def relation(self, predicate: str) -> Optional[RelationDelta]:
        return self._views.get(predicate)

    @property
    def domain(self) -> DomainView:
        return self._domain

    def predicates(self) -> Tuple[str, ...]:
        return tuple(sorted(self._views))

    def tuples(self, predicate: str) -> frozenset:
        view = self._views.get(predicate)
        if view is None:
            return frozenset()
        return frozenset(view)

    def fact_count(self) -> int:
        return self._fact_count

    def __repr__(self) -> str:
        return (
            f"ModelSnapshot(generation={self.generation}, "
            f"{self._fact_count} facts, {len(self._views)} relations)"
        )


class _InFlight:
    """A query execution other threads can wait on (request coalescing)."""

    __slots__ = ("event", "result", "error")

    def __init__(self):
        self.event = threading.Event()
        self.result: Optional[QueryResult] = None
        self.error: Optional[BaseException] = None


class DatalogServer:
    """Serve one program's resident model to many concurrent clients.

    Parameters
    ----------
    program:
        Program text, a parsed :class:`~repro.language.clauses.Program`, or
        an existing :class:`DatalogSession` to wrap (it is materialised up
        front either way: the server always publishes full fixpoints).
        When wrapping a session, it is used exactly as configured — passing
        ``database``/``limits``/``transducers`` alongside one is rejected
        instead of silently ignored.
    database:
        Initial database (only when the server builds the session).
    limits, transducers:
        Forwarded to the session when one is built here.
    result_cache_size:
        Capacity of the per-snapshot query-result LRU.
    data_dir:
        When given (and the server builds the session), the session is
        opened through :func:`repro.storage.open_session`: state is
        recovered from the directory, every batch runs the durable
        write-ahead commit protocol, background checkpoints fire on the
        store's row/segment thresholds, and the server's generation
        counter *resumes from the recovered one* — generations are
        monotone across restarts.  Wrapping an already-durable session
        works too (its store is picked up); passing ``data_dir``
        alongside a session is rejected like the other build options.
    storage_options:
        Forwarded to :class:`repro.storage.DurableStore` (thresholds,
        segment size, fsync policy) when ``data_dir`` is given.
    """

    def __init__(
        self,
        program: Union[str, Program, DatalogSession],
        database: Optional[Union[SequenceDatabase, Mapping[str, Iterable]]] = None,
        limits: Optional[EvaluationLimits] = None,
        transducers: Optional[TransducerRegistry] = None,
        result_cache_size: int = 1024,
        data_dir: Optional[str] = None,
        storage_options: Optional[Dict[str, object]] = None,
    ):
        if isinstance(program, DatalogSession):
            ignored = [
                name
                for name, value in (
                    ("database", database), ("limits", limits),
                    ("transducers", transducers), ("data_dir", data_dir),
                    ("storage_options", storage_options),
                )
                if value is not None
            ]
            if ignored:
                raise ValidationError(
                    "DatalogServer(session) uses the session exactly as "
                    f"configured; {', '.join(ignored)} would be ignored — "
                    "pass them only when the server builds the session"
                )
            self._session = program
        elif data_dir is not None:
            # Imported lazily: repro.storage imports this module's sibling.
            from repro.storage import open_session

            self._session = open_session(
                program,
                data_dir,
                database=database,
                limits=limits if limits is not None else DEFAULT_LIMITS,
                transducers=transducers,
                storage_options=storage_options,
            )
        else:
            self._session = DatalogSession(
                program,
                database=database,
                limits=limits if limits is not None else DEFAULT_LIMITS,
                transducers=transducers,
            )
        self._write_lock = threading.Lock()
        self._cache_lock = threading.Lock()
        # Publication signal: every snapshot publish notifies this
        # condition (read-your-writes waits) and calls the registered
        # listeners under the writer lock (the replication hub records
        # per-generation base-fact offsets there).
        self._publish_condition = threading.Condition()
        self._publish_listeners: List[Callable[[int, DatalogSession], None]] = []
        self._results: OrderedDict[Tuple[int, str, bool], QueryResult] = OrderedDict()
        self._result_cache_size = max(1, result_cache_size)
        self._inflight: Dict[Tuple[int, str, bool], _InFlight] = {}
        # Raw pattern text -> (atom, canonical key).  Parsing is the most
        # expensive part of a cache *hit*, so hits memoise it away: reads
        # are lock-free dict lookups (atomic under the GIL), inserts go
        # through the cache lock.  Bounded by eviction below.
        self._patterns: Dict[str, Tuple[Atom, str]] = {}
        # A durable session resumes the persisted generation counter: it
        # advances on exactly the condition _publish_if_advanced does (a
        # batch that grew the model), so the two stay in lockstep and a
        # restarted server publishes generations the old one never used.
        store = self._session.storage
        self._generation = store.generation if store is not None else 0
        self._queries_served = 0
        self._cache_hits = 0
        self._coalesced = 0
        self._batch_deduped = 0
        # Publishing the first snapshot materialises a lazy session; from
        # here on the server invariantly serves full fixpoints.
        self._snapshot = ModelSnapshot.of(self._generation, self._session.interpretation)

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    @property
    def snapshot(self) -> ModelSnapshot:
        """The last published consistent snapshot (pin it by keeping the ref)."""
        return self._snapshot

    @property
    def generation(self) -> int:
        """Publication counter; grows by one per successful maintenance run."""
        return self._snapshot.generation

    @property
    def poisoned(self) -> bool:
        return self._session.poisoned

    # ------------------------------------------------------------------
    # Maintenance (serialized writers)
    # ------------------------------------------------------------------
    def add_facts(self, facts: FactsLike) -> MaintenanceReport:
        """Insert base facts and publish a new consistent snapshot.

        Writers are serialized by a lock; readers are *not* blocked — they
        keep pinning the previous snapshot until the new one is published,
        which happens only after the maintenance run converged.

        Failure semantics mirror the session's: a malformed *container*
        changes nothing and publishes nothing; a fact rejected mid-batch
        (an arity clash) leaves the earlier facts of the batch in — the
        session restores the fixpoint invariant for them before the error
        propagates, and the server publishes that recovered state so reads
        never diverge from the resident model.  A resource-limit failure
        poisons the session and publishes nothing; every later call, from
        any thread, raises :class:`~repro.errors.SessionPoisonedError`.

        A batch of facts that are all already present changes nothing and
        publishes nothing either — the generation stays put, so the warm
        result cache survives replayed (at-least-once) ingestion.
        """
        report, _ = self.add_facts_published(facts)
        return report

    def add_facts_published(
        self, facts: FactsLike
    ) -> Tuple[MaintenanceReport, int]:
        """:meth:`add_facts` plus the generation observed under the lock.

        The returned generation names a published snapshot that contains
        this call's facts — read while still holding the writer lock, so a
        concurrent writer cannot slip a newer generation in between (the
        API layer labels its responses with it).
        """
        with self._write_lock:
            try:
                report = self._session.add_facts(facts)
            except BaseException:
                self._publish_if_advanced()
                raise
            self._publish_if_advanced()
            return report, self._generation

    def _publish_if_advanced(self) -> None:
        """Publish the resident model iff it moved past the last published
        snapshot (writer lock held).

        Relations are append-only, so *any* change strictly grows the fact
        count — an unchanged count means a bit-identical model, and
        re-publishing it would only wipe the warm per-generation result
        cache.  A poisoned session (partial fixpoint) is never published.
        """
        if self._session.poisoned:
            return
        interpretation = self._session._core.interpretation
        if interpretation.fact_count() != self._snapshot.fact_count():
            self._generation += 1
            self._snapshot = ModelSnapshot.of(self._generation, interpretation)
            self._announce_publish()

    def _announce_publish(self) -> None:
        """Run publish listeners and wake generation waiters (writer lock held)."""
        for listener in self._publish_listeners:
            listener(self._generation, self._session)
        with self._publish_condition:
            self._publish_condition.notify_all()

    def add_publish_listener(
        self, listener: Callable[[int, DatalogSession], None]
    ) -> None:
        """Register a callback fired on every publish, under the writer lock.

        The callback receives ``(generation, session)`` with the session
        quiescent — it may read (not mutate) session state consistently
        with the just-published snapshot.  It is fired once synchronously
        with the *current* state before registration takes effect: the one
        atomic point where the caller can anchor its bookkeeping
        (generation floor, base-fact offsets) exactly where the future
        callbacks will continue.
        """
        with self._write_lock:
            listener(self._generation, self._session)
            self._publish_listeners.append(listener)

    def wait_for_generation(self, generation: int, timeout: float) -> bool:
        """Block until the published generation reaches ``generation``.

        Returns True as soon as the bound is met (immediately when it
        already is), False when ``timeout`` seconds pass first.  This is
        the read-your-writes primitive: a client that wrote at generation
        G on the leader waits for G here before reading from a follower.
        """
        deadline = time.monotonic() + max(0.0, timeout)
        with self._publish_condition:
            while self._snapshot.generation < generation:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._publish_condition.wait(remaining)
        return True

    def apply_replicated(
        self,
        facts: FactsLike,
        generation: int,
        expected_facts: Optional[int] = None,
    ) -> MaintenanceReport:
        """Apply one replicated generation and publish it *as* ``generation``.

        The replication path for followers: the batch runs through the
        session's ordinary incremental maintenance, but the published
        snapshot takes the leader's generation number instead of the local
        counter, keeping leader and follower generations in lockstep.
        ``expected_facts`` (the leader's model size at that generation)
        is verified after the maintenance run — a mismatch means the
        streams diverged and raises :class:`~repro.errors.StorageError`'s
        sibling :class:`~repro.errors.ReplicationError` rather than
        serving wrong data quietly.
        """
        from repro.errors import ReplicationError

        with self._write_lock:
            if generation <= self._generation:
                raise ReplicationError(
                    f"replicated generation {generation} is not ahead of the "
                    f"published generation {self._generation}"
                )
            report = self._session.add_facts(facts)
            interpretation = self._session._core.interpretation
            if (
                expected_facts is not None
                and interpretation.fact_count() != expected_facts
            ):
                raise ReplicationError(
                    f"generation {generation} applied to {interpretation.fact_count()} "
                    f"facts but the leader published {expected_facts} — the "
                    "replica has diverged and must re-bootstrap"
                )
            self._generation = generation
            self._snapshot = ModelSnapshot.of(generation, interpretation)
            self._announce_publish()
            return report

    def capture_model(
        self,
    ) -> Tuple[int, Dict[str, RelationDelta], List, int]:
        """Pin ``(generation, relation views, base facts, fact count)`` atomically.

        Taken under the writer lock so the four pieces describe one
        consistent published model; the views are zero-copy append-only
        windows, safe to serialize off-thread afterwards (the same capture
        discipline the storage checkpointer uses).
        """
        with self._write_lock:
            interpretation = self._session._core.interpretation
            views = {}
            for predicate in interpretation.predicates():
                relation = interpretation.relation(predicate)
                views[predicate] = RelationDelta(relation, 0, len(relation))
            return (
                self._generation,
                views,
                list(self._session._base_facts),
                interpretation.fact_count(),
            )

    def add_fact(self, predicate: str, *values) -> MaintenanceReport:
        return self.add_facts([(predicate, values)])

    # ------------------------------------------------------------------
    # Queries (concurrent readers)
    # ------------------------------------------------------------------
    def _check_usable(self) -> None:
        # Surface poisoning with the session's own error message.
        self._session._require_usable()

    def _canonical(self, pattern: Union[str, Atom]) -> Tuple[Atom, str]:
        if isinstance(pattern, str):
            cached = self._patterns.get(pattern)
            if cached is not None:
                return cached
        atom, canonical = canonical_pattern(pattern)
        if isinstance(pattern, str):
            with self._cache_lock:
                if len(self._patterns) >= 4 * self._result_cache_size:
                    self._patterns.clear()
                self._patterns[pattern] = (atom, canonical)
        return atom, canonical

    def _known_predicates(self, snapshot: ModelSnapshot) -> set:
        known = set(self._session._program_predicates)
        known.update(snapshot.predicates())
        return known

    def _execute(
        self, atom: Atom, snapshot: ModelSnapshot, strict: bool
    ) -> QueryResult:
        if strict and snapshot.relation(atom.predicate) is None:
            if atom.predicate not in self._known_predicates(snapshot):
                raise UnknownPredicateError(
                    f"predicate {atom.predicate!r} is not defined by any rule "
                    "or fact (unknown predicate; pass strict=False to treat "
                    "it as empty)"
                )
        # session.prepare's LRU is not thread-safe; the cache lock also
        # covers it (preparation is rare once the cache is warm).
        with self._cache_lock:
            prepared = self._session.prepare(atom)
        return prepared.run(snapshot)

    def query(
        self,
        pattern: Union[str, Atom],
        strict: bool = False,
        snapshot: Optional[ModelSnapshot] = None,
    ) -> QueryResult:
        """Answer a pattern against a consistent snapshot of the model.

        Thread-safe.  ``snapshot`` pins an explicit (older) snapshot; by
        default the last published one is used.  Results are served from
        the per-snapshot LRU when possible, and identical concurrent
        executions are coalesced onto one computation.
        """
        self._check_usable()
        pinned = snapshot if snapshot is not None else self._snapshot
        atom, canonical = self._canonical(pattern)
        return self._query(atom, canonical, strict, pinned)

    def _query(
        self,
        atom: Atom,
        canonical: str,
        strict: bool,
        pinned: ModelSnapshot,
    ) -> QueryResult:
        key = (pinned.generation, canonical, strict)
        with self._cache_lock:
            self._queries_served += 1
            cached = self._results.get(key)
            if cached is not None:
                self._cache_hits += 1
                self._results.move_to_end(key)
                return cached
            leader = self._inflight.get(key)
            if leader is None:
                leader = _InFlight()
                self._inflight[key] = leader
                is_leader = True
            else:
                self._coalesced += 1
                is_leader = False
        if not is_leader:
            leader.event.wait()
            if leader.error is not None:
                raise leader.error
            assert leader.result is not None
            return leader.result
        try:
            result = self._execute(atom, pinned, strict)
        except BaseException as error:
            leader.error = error
            raise
        else:
            leader.result = result
            with self._cache_lock:
                self._results[key] = result
                self._results.move_to_end(key)
                while len(self._results) > self._result_cache_size:
                    self._results.popitem(last=False)
            return result
        finally:
            with self._cache_lock:
                self._inflight.pop(key, None)
            leader.event.set()

    def query_batch(
        self,
        patterns: Iterable[Union[str, Atom]],
        strict: bool = False,
    ) -> List[QueryResult]:
        """Answer many patterns against ONE pinned snapshot.

        The whole batch sees the same consistent state even if maintenance
        runs mid-batch, and duplicate patterns within the batch execute
        once.  Results come back in input order.
        """
        self._check_usable()
        pinned = self._snapshot
        ordered: List[str] = []
        atoms: Dict[str, Atom] = {}
        for pattern in patterns:
            atom, canonical = self._canonical(pattern)
            if canonical not in atoms:
                atoms[canonical] = atom
            else:
                with self._cache_lock:
                    self._batch_deduped += 1
            ordered.append(canonical)
        answers = {
            canonical: self._query(atom, canonical, strict, pinned)
            for canonical, atom in atoms.items()
        }
        return [answers[canonical] for canonical in ordered]

    def output(self, predicate: str = "output") -> List[str]:
        """The ``output`` relation of the current snapshot, as plain strings."""
        self._check_usable()
        return output_relation(self._snapshot, predicate)

    # ------------------------------------------------------------------
    # Introspection and lifecycle
    # ------------------------------------------------------------------
    @property
    def session(self) -> DatalogSession:
        """The wrapped session (single-caller API; do not race it)."""
        return self._session

    @property
    def program(self) -> Program:
        """The served program (the API layer's ``explain`` reads it)."""
        return self._session.program

    @property
    def storage(self):
        """The session's :class:`~repro.storage.DurableStore`, if any."""
        return self._session.storage

    @property
    def durable(self) -> bool:
        return self._session.storage is not None

    def checkpoint(self) -> str:
        """Write a snapshot of the current published model, synchronously.

        Takes the writer lock so the capture cannot race maintenance;
        readers are unaffected (they keep pinning published snapshots).
        """
        store = self._session.storage
        if store is None:
            raise StorageError(
                "this server has no durable storage attached "
                "(build it with data_dir=...)"
            )
        with self._write_lock:
            return store.checkpoint()

    def stats(self) -> Dict[str, object]:
        """Session diagnostics plus the server's concurrency counters.

        Taken under the writer lock: the session's own stats iterate the
        live interpretation, which only maintenance mutates — excluding it
        keeps this the one read path that may touch unpinned state.
        """
        with self._write_lock:
            stats = self._session.stats()
        with self._cache_lock:
            stats["server"] = {
                "generation": self._generation,
                "snapshot_facts": self._snapshot.fact_count(),
                "queries_served": self._queries_served,
                "result_cache": {
                    "size": len(self._results),
                    "capacity": self._result_cache_size,
                    "hits": self._cache_hits,
                },
                "coalesced_queries": self._coalesced,
                "batch_deduped": self._batch_deduped,
            }
        return stats

    def close(self) -> None:
        self._session.close()

    def __enter__(self) -> DatalogServer:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"DatalogServer(generation={self._generation}, "
            f"{self._snapshot.fact_count()} facts, "
            f"{self._queries_served} queries served)"
        )
