"""Incremental, index-backed query-serving sessions.

A :class:`DatalogSession` turns the batch evaluator into a serving engine:
it keeps a materialised least fixpoint resident and supports

* **incremental maintenance** — :meth:`DatalogSession.add_facts` inserts new
  base facts and resumes the compiled semi-naive evaluation from the current
  model instead of recomputing it from scratch.  The per-plan relation
  version counters of :class:`~repro.engine.fixpoint.CompiledFixpoint`
  survive between calls, so only plans whose body relations actually gained
  rows re-fire, joined through zero-copy
  :class:`~repro.database.relation.RelationDelta` views.  Sequence Datalog
  is monotone, which makes this exact: the resumed iteration converges to
  precisely the least fixpoint of the enlarged database (the randomized
  equivalence properties in ``tests/test_properties.py`` check this against
  from-scratch evaluation);
* **prepared pattern queries** — :meth:`DatalogSession.query` compiles each
  pattern once through :mod:`repro.engine.planner`
  (:class:`~repro.engine.query.PreparedQuery`) and keeps the compiled plans
  in a small LRU cache, so constant-bound argument positions hit the fact
  store's composite hash indexes on every execution;
* **demand-driven queries** — :meth:`DatalogSession.query` with
  ``demand=True`` answers a pattern from a *per-query slice* of the model
  (:mod:`repro.engine.demand`: relevance restriction plus sideways constant
  propagation) instead of the resident full fixpoint.  Slices are cached in
  their own LRU, keyed by the canonical pattern, and invalidated whenever
  :meth:`add_facts` changes the base data.  A session opened with
  ``lazy=True`` skips the up-front full materialisation entirely and only
  computes it if a non-demand query ever needs it — the serving mode for
  workloads that are all selective queries;
* **failure poisoning** — a maintenance run that hits a resource limit
  leaves the resident model a *partial* fixpoint; the session poisons
  itself and every later query or update raises
  :class:`~repro.errors.SessionPoisonedError` instead of silently serving
  incomplete answers;
* **serving diagnostics** — :meth:`DatalogSession.stats` reports model and
  cache sizes plus the growth of the process-wide sequence intern table,
  the resource a long-lived session must watch.

The CLI exposes sessions through ``python -m repro.cli serve``.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple, Union

from repro.database.database import SequenceDatabase
from repro.engine.bindings import TransducerRegistry
from repro.engine.demand import DemandQuery, DemandResult
from repro.engine.fixpoint import CompiledFixpoint
from repro.engine.interpretation import Fact, Interpretation
from repro.engine.kernels import kernel_stats
from repro.engine.limits import DEFAULT_LIMITS, EvaluationLimits
from repro.engine.query import (
    PreparedQuery,
    QueryResult,
    canonical_pattern,
    known_predicates,
    output_relation,
)
from repro.errors import SessionPoisonedError, StorageError, ValidationError
from repro.language.atoms import Atom
from repro.language.clauses import Program
from repro.language.parser import parse_program
from repro.sequences import Sequence

#: Anything :meth:`DatalogSession.add_facts` accepts: a database, a
#: ``{predicate: rows}`` mapping (rows are strings or tuples of strings), or
#: an iterable of ``(predicate, values)`` pairs.
FactsLike = Union[
    SequenceDatabase,
    Mapping[str, Iterable],
    Iterable[Tuple[str, Iterable]],
]


def _as_values(predicate: str, values) -> Tuple:
    """Normalise one row to a tuple of values, rejecting malformed input.

    Every value must already be a string (or interned ``Sequence``): a
    number or ``None`` deep inside a batch used to leak a raw ``TypeError``
    out of the interning layer mid-insertion; now the whole row is rejected
    up front with the offending position named.
    """
    if isinstance(values, (str, Sequence)):
        return (values,)
    try:
        row = tuple(values)
    except TypeError:
        raise ValidationError(
            f"relation {predicate!r}: row {values!r} must be a string or an "
            "iterable of strings"
        ) from None
    for position, value in enumerate(row):
        if not isinstance(value, (str, Sequence)):
            raise ValidationError(
                f"relation {predicate!r}: row {row!r} holds a non-string "
                f"value at position {position} "
                f"({type(value).__name__} {value!r})"
            )
    return row


def _iter_facts(facts: FactsLike) -> Iterator[Fact]:
    """Normalise the accepted fact containers to ``(predicate, values)``."""
    if isinstance(facts, SequenceDatabase):
        for relation in facts:
            for row in relation:
                yield (relation.name, row)
        return
    if isinstance(facts, Mapping):
        for predicate, rows in facts.items():
            if isinstance(rows, (str, Sequence)):
                # A bare string would silently explode into one fact per
                # character; reject it like SequenceDatabase.from_json_dict.
                raise ValidationError(
                    f"relation {predicate!r}: expected a list of rows, got "
                    f"the string {str(rows)!r}"
                )
            for row in rows:
                yield (predicate, _as_values(predicate, row))
        return
    for entry in facts:
        # A stray string (or any other sequence-ish scalar) of length 2
        # would silently unpack as a (predicate, values) pair below —
        # ``add_facts(["xy"])`` used to insert the bogus fact ``x("y")``.
        if not isinstance(entry, (tuple, list)):
            raise ValidationError(
                f"add_facts expects (predicate, values) pairs, got {entry!r}"
            )
        try:
            predicate, values = entry
        except ValueError:
            raise ValidationError(
                f"add_facts expects (predicate, values) pairs, got {entry!r}"
            ) from None
        if not isinstance(predicate, str):
            raise ValidationError(
                f"add_facts expects a predicate name as the first element of "
                f"a pair, got {predicate!r}"
            )
        yield (predicate, _as_values(predicate, values))


class _DemandEntry:
    """A cached demand compilation plus its invalidatable slice."""

    __slots__ = ("compiled", "slice")

    def __init__(self, compiled: DemandQuery):
        self.compiled = compiled
        self.slice: Optional[DemandResult] = None


@dataclass(frozen=True)
class MaintenanceReport:
    """What one :meth:`DatalogSession.add_facts` call did.

    ``base_facts_added`` counts the genuinely new input facts;
    ``facts_added`` additionally includes everything derived from them;
    ``sweeps`` is the number of global plan sweeps the maintenance run
    needed (0 new base facts still costs one confirming sweep).
    """

    base_facts_added: int
    facts_added: int
    sweeps: int
    elapsed_seconds: float


class DatalogSession:
    """A resident, incrementally-maintained model that serves queries.

    Parameters
    ----------
    program:
        The Sequence Datalog program (text or parsed), compiled once.
    database:
        Optional initial database; more facts can arrive later through
        :meth:`add_facts`.
    limits:
        Resource limits applied to every maintenance run.  Hitting one
        raises :class:`~repro.errors.FixpointNotReached`; the resident model
        is then a partial fixpoint, the session poisons itself, and every
        later query or update raises
        :class:`~repro.errors.SessionPoisonedError` until the session is
        discarded and rebuilt.  (Demand slices are evaluated on the side:
        a limit hit *there* propagates but does not poison the session.)
    transducers:
        Optional registry for transducer terms (Transducer Datalog).
    prepared_cache_size:
        Capacity of the LRU cache of prepared patterns.
    demand_cache_size:
        Capacity of the LRU cache of demand-mode per-query slices.
    lazy:
        When True, the initial full fixpoint is *not* computed up front;
        demand-mode queries materialise (and cache) only their slices, and
        the full model is materialised on first need — a non-demand query,
        ``output()`` or direct ``interpretation`` access after an update.
    use_kernels:
        Overrides the process-wide batch-kernel default for this session's
        executors (None = follow :func:`repro.engine.kernels.batch_enabled`).
        The computed model is identical either way; ``stats()["kernels"]``
        reports which path firings took.

    Examples
    --------
    >>> session = DatalogSession('suffix(X[N:end]) :- r(X).', {"r": ["ab"]})
    >>> session.query("suffix(X)").values("X")
    ['', 'ab', 'b']
    >>> report = session.add_facts({"r": ["cd"]})
    >>> report.base_facts_added
    1
    >>> session.query("suffix(X)").values("X")
    ['', 'ab', 'b', 'cd', 'd']
    """

    def __init__(
        self,
        program: Union[str, Program],
        database: Optional[Union[SequenceDatabase, Mapping[str, Iterable]]] = None,
        limits: EvaluationLimits = DEFAULT_LIMITS,
        transducers: Optional[TransducerRegistry] = None,
        prepared_cache_size: int = 128,
        demand_cache_size: int = 32,
        lazy: bool = False,
        use_kernels: Optional[bool] = None,
    ):
        self.program = parse_program(program) if isinstance(program, str) else program
        self.program.validate()
        self.limits = limits
        self._transducers = transducers
        self._core = CompiledFixpoint(
            self.program, transducers, use_kernels=use_kernels
        )
        self._program_predicates = frozenset(self.program.predicates())
        self._prepared: OrderedDict[str, PreparedQuery] = OrderedDict()
        self._prepared_cache_size = max(1, prepared_cache_size)
        self._prepared_hits = 0
        self._prepared_misses = 0
        self._maintenance_runs = 0
        self._queries_served = 0
        # Demand-mode slices are materialised from the base facts alone, so
        # the session keeps an append-only log of them (cheap: base facts
        # are the input data, not the derived model).
        self._base_facts: List[Fact] = []
        self._demand: OrderedDict[str, _DemandEntry] = OrderedDict()
        self._demand_cache_size = max(1, demand_cache_size)
        self._demand_hits = 0
        self._demand_misses = 0
        self._lazy = lazy
        self._materialized = False
        self._poisoned: Optional[str] = None
        # Durable storage hook (repro.storage.DurableStore, duck-typed):
        # when attached, add_facts writes an intent record before touching
        # the model and a commit record only after maintenance converged.
        self._storage = None
        if database is not None and not isinstance(database, SequenceDatabase):
            database = SequenceDatabase.from_dict(dict(database))
        if database is not None:
            for relation in database:
                for row in relation:
                    if self._core.add_fact(relation.name, row):
                        self._base_facts.append((relation.name, row))
        # Reach the initial fixpoint even on an empty database: bodyless
        # program clauses (e.g. ``trans("a", "u") :- true.``) derive facts
        # regardless, and a session invariantly serves a *fixpoint*.  A
        # lazy session defers this until the full model is first needed.
        if not lazy:
            self._materialize_model()

    # ------------------------------------------------------------------
    # Poisoning and lazy materialisation
    # ------------------------------------------------------------------
    def _require_usable(self) -> None:
        if self._poisoned is not None:
            raise SessionPoisonedError(
                "this session served a maintenance run that failed "
                f"({self._poisoned}); the resident model is a partial "
                "fixpoint — discard the session and rebuild it"
            )

    def _run_maintenance(self) -> None:
        """Run the core to its fixpoint, poisoning the session on failure.

        *Any* failure poisons: a resource limit (the classic case), but
        also an error raised inside a firing — either way the run stopped
        before convergence, so the resident model may be a partial
        fixpoint and must not keep serving.
        """
        try:
            self._core.run(self.limits)
        except Exception as error:
            self._poisoned = f"{type(error).__name__}: {error}"
            raise
        self._materialized = True

    def _materialize_model(self) -> None:
        """Ensure the resident model is the full least fixpoint."""
        self._require_usable()
        if not self._materialized:
            self._run_maintenance()

    def materialize(self) -> None:
        """Materialise the full least fixpoint now (no-op when resident)."""
        self._materialize_model()

    @property
    def poisoned(self) -> bool:
        """True when a failed maintenance run invalidated the session."""
        return self._poisoned is not None

    # ------------------------------------------------------------------
    # Durable storage (repro.storage)
    # ------------------------------------------------------------------
    @property
    def storage(self):
        """The attached :class:`~repro.storage.DurableStore`, if any."""
        return self._storage

    @property
    def generation(self) -> Optional[int]:
        """The durable generation counter (None without attached storage).

        Advances on exactly the condition a wrapping
        :class:`~repro.engine.server.DatalogServer` publishes a new
        snapshot — a committed batch that actually grew the model — so
        the two counters agree and a restarted server resumes from it.
        """
        return self._storage.generation if self._storage is not None else None

    def attach_storage(self, store) -> None:
        """Attach a durable store; from now on every batch is logged.

        Called by :func:`repro.storage.open_session` after recovery
        (attaching *after* replay is what keeps the replay itself from
        being re-logged).
        """
        if self._storage is not None:
            raise ValidationError("this session already has a durable store")
        self._storage = store

    def restore_state(self, facts, base_facts) -> None:
        """Install a previously-converged model (snapshot recovery path).

        ``facts`` is every ``(predicate, row)`` of a serialized
        interpretation, ``base_facts`` the base-fact log it was built
        from.  Valid only on a pristine session; the restored model is
        marked converged (see
        :meth:`~repro.engine.fixpoint.CompiledFixpoint.assume_converged`),
        which is sound because snapshots are written exclusively at
        published fixpoints of this very program.
        """
        if (
            self._materialized
            or self._base_facts
            or self._core.interpretation.fact_count()
        ):
            raise StorageError(
                "restore_state needs a pristine session (no facts inserted, "
                "model not materialised)"
            )
        grouped: Dict[str, List[Tuple[str, ...]]] = {}
        for predicate, values in facts:
            grouped.setdefault(predicate, []).append(tuple(values))
        for predicate, rows in grouped.items():
            self._core.interpretation.bulk_load(predicate, rows)
        self._base_facts = [
            (predicate, tuple(values)) for predicate, values in base_facts
        ]
        self._core.assume_converged()
        self._materialized = True

    def _commit_durable(self, batch_token, applied: int, facts_added: int) -> None:
        """Write the batch's commit record; a failure poisons the session.

        After a commit failure the in-memory model holds facts the WAL
        never acknowledged — serving them would break the durable-commit
        contract ("ingested" means durable, then converged), so the
        session refuses further use just as it does for a partial
        fixpoint.
        """
        if batch_token is None or self._storage is None:
            return
        try:
            self._storage.commit_batch(
                batch_token, applied=applied, facts_added=facts_added
            )
        except Exception as error:
            self._poisoned = f"{type(error).__name__}: {error}"
            raise

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def add_facts(self, facts: FactsLike) -> MaintenanceReport:
        """Insert base facts and restore the least-fixpoint invariant.

        Only plans affected by the delta re-fire (see the module docstring);
        the result is fact-for-fact identical to evaluating the whole
        enlarged database from scratch, at a fraction of the cost.

        Malformed containers are rejected before anything is inserted.  If
        an individual fact is rejected mid-batch (an arity clash), the
        earlier facts of the batch stay — insertion is not transactional —
        but maintenance still runs before the error propagates, so the
        session keeps serving a genuine fixpoint of whatever was accepted.

        A maintenance run that hits a resource limit poisons the session
        (see the class docstring).  On a lazy session whose full model has
        not been materialised yet, no maintenance runs at all: the call
        only records the base facts (``sweeps`` is 0) and invalidates the
        cached demand slices.

        With a durable store attached the batch runs the write-ahead
        commit protocol: its intent record is made durable *before* the
        first fact is inserted, and its commit record is written (and
        fsynced) only after maintenance converged — on a mid-batch
        rejection, for exactly the accepted prefix.  A batch whose
        maintenance run failed is never committed, so a crash-recovered
        session will not replay a batch that poisoned this one.
        """
        self._require_usable()
        started = time.perf_counter()
        # Materialise first: a malformed entry must fail the whole call
        # before any state changes.
        pending = list(_iter_facts(facts))
        interpretation = self._core.interpretation
        facts_before = interpretation.fact_count()
        sweeps_before = self._core.sweeps
        base_added = 0
        applied = 0
        added_predicates = set()
        batch_token = None
        if self._storage is not None:
            batch_token = self._storage.begin_batch(pending)
        try:
            try:
                for predicate, values in pending:
                    if self._core.add_fact(predicate, values):
                        self._base_facts.append((predicate, values))
                        added_predicates.add(predicate)
                        base_added += 1
                    applied += 1
            except Exception as batch_error:
                # Restore the fixpoint invariant for whatever was accepted,
                # then let the batch error propagate.  If the recovery run
                # itself trips a limit the model is NOT a fixpoint — that
                # outranks the batch error, so it wins (chained), the
                # session is poisoned, and the batch is never committed.
                if self._materialized:
                    self._run_maintenance()
                self._commit_durable(
                    batch_token, applied,
                    interpretation.fact_count() - facts_before,
                )
                raise batch_error
            if self._materialized:
                self._run_maintenance()
            self._commit_durable(
                batch_token, applied, interpretation.fact_count() - facts_before
            )
        finally:
            self._maintenance_runs += 1
            if added_predicates:
                self._invalidate_demand_slices(added_predicates)
        return MaintenanceReport(
            base_facts_added=base_added,
            facts_added=interpretation.fact_count() - facts_before,
            sweeps=self._core.sweeps - sweeps_before,
            elapsed_seconds=time.perf_counter() - started,
        )

    def add_fact(self, predicate: str, *values) -> MaintenanceReport:
        """Convenience wrapper: add one fact and re-establish the fixpoint."""
        return self.add_facts([(predicate, values)])

    def _invalidate_demand_slices(self, predicates: Iterable[str]) -> None:
        """Drop exactly the cached demand slices the new base facts can touch.

        A restricted slice loads and observes only its relevant predicates
        (its plans are domain-insensitive by construction), so insertions
        into other relations cannot change it; fallback slices observe the
        whole model and are always dropped.  The compiled demand plans
        survive either way — only the materialisation is discarded.
        """
        touched = set(predicates)
        for entry in self._demand.values():
            profile = entry.compiled.profile
            if not profile.restricted or touched & profile.relevant:
                entry.slice = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def prepare(self, pattern: Union[str, Atom]) -> PreparedQuery:
        """The compiled plan for a pattern, served from the LRU cache.

        Cache keys are *canonical*: the pattern is parsed first and keyed by
        its canonical rendering, so ``"out(X)"``, ``"out( X )"`` and the
        equivalent :class:`~repro.language.atoms.Atom` all share one entry
        instead of compiling three identical plans.
        """
        atom, key = canonical_pattern(pattern)
        prepared = self._prepared.get(key)
        if prepared is not None:
            self._prepared_hits += 1
            self._prepared.move_to_end(key)
            return prepared
        self._prepared_misses += 1
        prepared = PreparedQuery(atom)
        self._prepared[key] = prepared
        if len(self._prepared) > self._prepared_cache_size:
            self._prepared.popitem(last=False)
        return prepared

    def _demand_slice(self, pattern: Union[str, Atom]) -> Tuple[DemandQuery, DemandResult]:
        """The (cached) demand compilation and materialised slice for a pattern."""
        atom, key = canonical_pattern(pattern)
        entry = self._demand.get(key)
        if entry is None:
            self._demand_misses += 1
            entry = _DemandEntry(
                DemandQuery(self.program, atom, self._transducers)
            )
            self._demand[key] = entry
            if len(self._demand) > self._demand_cache_size:
                self._demand.popitem(last=False)
        else:
            self._demand.move_to_end(key)
            if entry.slice is not None:
                self._demand_hits += 1
            else:
                self._demand_misses += 1
        if entry.slice is None:
            entry.slice = entry.compiled.materialize(self._base_facts, self.limits)
        return entry.compiled, entry.slice

    def query(
        self,
        pattern: Union[str, Atom],
        strict: bool = False,
        demand: bool = False,
    ) -> QueryResult:
        """Match a pattern atom against the resident model.

        With ``strict=True``, a predicate that neither the program defines
        nor any base fact populates raises
        :class:`~repro.errors.UnknownPredicateError`; a known predicate that
        simply derived nothing returns an empty result.

        With ``demand=True`` the pattern is answered from a demand-driven
        per-query slice (see the class docstring) — answers are identical to
        the resident-model answers, but only the slice of the model the
        pattern can observe is materialised (and cached until the next
        ``add_facts``).  On a lazy session this never computes the full
        fixpoint.
        """
        self._require_usable()
        known = None
        if strict:
            known = known_predicates(
                self._program_predicates, self._core.interpretation
            )
        self._queries_served += 1
        if demand:
            compiled, slice_result = self._demand_slice(pattern)
            return compiled.query(slice_result, strict=strict, known_predicates=known)
        self._materialize_model()
        return self.prepare(pattern).run(
            self._core.interpretation, strict=strict, known_predicates=known
        )

    def output(self, predicate: str = "output") -> list:
        """The ``output`` relation as plain strings (Definition 5 queries)."""
        self._materialize_model()
        return output_relation(self._core.interpretation, predicate)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def interpretation(self) -> Interpretation:
        """The resident least fixpoint (do not mutate it directly).

        On a lazy session this materialises the full model first.
        """
        self._materialize_model()
        return self._core.interpretation

    def fact_count(self) -> int:
        """Facts in the resident model (base facts only on an unmaterialised
        lazy session)."""
        return self._core.interpretation.fact_count()

    def base_facts(self) -> List[Fact]:
        """The extensional facts inserted so far (insertion order).

        This is the session's durable input — the derived model is a pure
        function of it — which is what ``repro restore --out`` exports.
        """
        return list(self._base_facts)

    def stats(self) -> Dict[str, object]:
        """Serving diagnostics: model, cache and intern-table growth."""
        interpretation = self._core.interpretation
        stats: Dict[str, object] = {
            "facts": interpretation.fact_count(),
            "base_facts": len(self._base_facts),
            "model_size": interpretation.size(),
            "predicates": len(interpretation.predicates()),
            "sweeps": self._core.sweeps,
            "maintenance_runs": self._maintenance_runs,
            "queries_served": self._queries_served,
            "materialized": self._materialized,
            "poisoned": self._poisoned is not None,
            "prepared_cache": {
                "size": len(self._prepared),
                "capacity": self._prepared_cache_size,
                "hits": self._prepared_hits,
                "misses": self._prepared_misses,
            },
            "demand_cache": {
                "size": len(self._demand),
                "live_slices": sum(
                    1 for entry in self._demand.values() if entry.slice is not None
                ),
                "slice_facts": sum(
                    entry.slice.fact_count
                    for entry in self._demand.values()
                    if entry.slice is not None
                ),
                "capacity": self._demand_cache_size,
                "hits": self._demand_hits,
                "misses": self._demand_misses,
            },
            "intern_table": Sequence.intern_stats(),
            "kernels": kernel_stats(),
        }
        if self._storage is not None:
            stats["durability"] = self._storage.stats()
        return stats

    def close(self) -> None:
        """Flush durable storage, writing a final snapshot when one is
        attached and dirty."""
        if self._storage is not None:
            self._storage.close()

    def __enter__(self) -> DatalogSession:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"DatalogSession({len(self.program)} clauses, "
            f"{self.fact_count()} facts, {self._maintenance_runs} updates)"
        )
