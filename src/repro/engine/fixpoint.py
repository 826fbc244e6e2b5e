"""Bottom-up computation of the least fixpoint ``T_{P,db} ^ omega``.

Two strategies are provided:

* **naive** -- every clause is re-evaluated against the full interpretation
  at every iteration.  This is the reference implementation of the
  declarative semantics (Section 3.3) and the oracle the tests hold the
  compiled strategy to.
* **compiled** -- the default.  Each clause is compiled once into a static
  join plan (:mod:`repro.engine.planner`) and the predicate dependency
  graph (:mod:`repro.analysis.dependency_graph`) orders the plans by
  strata, bottom-up.  Evaluation proceeds in global sweeps over that
  order; within a sweep a plan re-fires only when one of its body
  relations gained rows since its last firing (tracked by append-only
  version counters, joined through zero-copy delta views, one firing per
  changed body atom in the plan's delta-first order for that atom, so a
  firing starts from the new rows) or -- for clauses whose derivations can
  depend on the extended domain itself -- when the domain grew.  Sweeping
  all strata (instead of iterating each stratum to a local fixpoint) costs
  only O(1) gating checks per up-to-date plan, handles domain growth
  flowing from higher strata back down, and keeps the partial
  interpretation of a limit-aborted evaluation representative of every
  predicate.  Delta restriction is
  complete only for *delta-safe* clauses (at least one body atom, every
  sequence variable guarded, every index variable in a body atom): their
  new derivations can only arise from new facts, never from mere growth
  of the extended active domain.  Other clauses (e.g. ``rep1(X, X) :-
  true`` or Example 1.1's head-only index variable) re-fire in full.

Both strategies produce exactly the least fixpoint; tests compare them on
every paper program.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.database.database import SequenceDatabase
from repro.engine.bindings import Substitution, TransducerRegistry
from repro.engine.evaluation import ClauseEvaluator
from repro.engine.interpretation import Interpretation
from repro.engine.limits import DEFAULT_LIMITS, EvaluationLimits
from repro.engine.plan import ProgramPlan
from repro.engine.planner import PlanExecutor, compile_program
from repro.errors import EvaluationError
from repro.language.clauses import Program

NAIVE = "naive"
COMPILED = "compiled"

#: The strategy used when callers do not ask for a specific one.
DEFAULT_STRATEGY = COMPILED

STRATEGIES = (NAIVE, COMPILED)


@dataclass
class FixpointResult:
    """The result of a fixpoint computation.

    Attributes
    ----------
    interpretation:
        The least fixpoint ``lfp(T_{P,db})``.
    iterations:
        Number of rule-firing rounds performed.  For the naive strategy
        this is the number of applications of the ``T`` operator; for the
        compiled strategy it is the number of global sweeps, which plays
        the same role for the resource limits.
    strategy:
        ``"naive"`` or ``"compiled"``.
    new_facts_per_iteration:
        Number of new facts added at each round (the last entry is 0).
    elapsed_seconds:
        Wall-clock evaluation time.
    """

    interpretation: Interpretation
    iterations: int
    strategy: str
    new_facts_per_iteration: List[int] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def fact_count(self) -> int:
        return self.interpretation.fact_count()

    @property
    def model_size(self) -> int:
        """Size of the minimal model in the paper's sense (Definition 11)."""
        return self.interpretation.size()

    def tuples(self, predicate: str):
        """Convenience accessor for the facts of one predicate."""
        return self.interpretation.tuples(predicate)


def compute_least_fixpoint(
    program: Program,
    database: SequenceDatabase,
    limits: EvaluationLimits = DEFAULT_LIMITS,
    strategy: str = DEFAULT_STRATEGY,
    transducers: Optional[TransducerRegistry] = None,
    use_kernels: Optional[bool] = None,
) -> FixpointResult:
    """Compute ``lfp(T_{P,db})`` bottom-up.

    ``use_kernels`` overrides the batch-kernel default for the compiled
    strategy (the naive strategy has no kernel path).

    Raises :class:`~repro.errors.FixpointNotReached` when a resource limit is
    exceeded before convergence (the exception carries the partial
    interpretation).
    """
    if strategy not in STRATEGIES:
        raise EvaluationError(f"unknown evaluation strategy {strategy!r}")

    start = time.perf_counter()
    if strategy == COMPILED:
        interpretation, iterations, history = _compute_compiled(
            program, database, limits, transducers, use_kernels
        )
    else:
        interpretation, iterations, history = _compute_naive(
            program, database, limits, transducers
        )

    elapsed = time.perf_counter() - start
    return FixpointResult(
        interpretation=interpretation,
        iterations=iterations,
        strategy=strategy,
        new_facts_per_iteration=history,
        elapsed_seconds=elapsed,
    )


def _load_database(
    database: SequenceDatabase, interpretation: Interpretation
) -> int:
    """Insert the database facts; return the number inserted."""
    added = 0
    for atom in database.facts():
        values = tuple(arg.value for arg in atom.args)  # type: ignore[attr-defined]
        if interpretation.add(atom.predicate, values):
            added += 1
    return added


# ----------------------------------------------------------------------
# Naive strategy (the reference semantics)
# ----------------------------------------------------------------------
def _compute_naive(
    program: Program,
    database: SequenceDatabase,
    limits: EvaluationLimits,
    transducers: Optional[TransducerRegistry],
) -> Tuple[Interpretation, int, List[int]]:
    evaluators = [ClauseEvaluator(clause, transducers) for clause in program]
    interpretation = Interpretation()
    # Round 1: load the database (bodyless clauses are always derivable).
    new_facts_history = [_load_database(database, interpretation)]

    # The database load above is round 1, so the first sweep is round 2 and
    # ``max_iterations = N`` permits exactly N rounds in total — matching
    # the ``iterations`` the result reports.
    iteration = 1
    limits.check_interpretation(interpretation, iteration)
    while True:
        iteration += 1
        limits.check_iteration(iteration, partial=interpretation)
        limits.check_interpretation(interpretation, iteration)

        added = 0
        for evaluator in evaluators:
            # Materialise before inserting: derivations must be based on the
            # interpretation at the start of the iteration, and inserting
            # while the generator is live would mutate the fact store the
            # matcher is iterating over.
            for fact in list(evaluator.derive(interpretation)):
                _, values = fact
                for value in values:
                    limits.check_sequence_length(
                        len(value), interpretation, iteration
                    )
                if interpretation.add_fact(fact):
                    added += 1
                limits.check_interpretation(interpretation, iteration)

        new_facts_history.append(added)
        if added == 0:
            break

    return interpretation, iteration, new_facts_history


# ----------------------------------------------------------------------
# Compiled strategy (dependency-scheduled, predicate-level semi-naive)
# ----------------------------------------------------------------------
class CompiledFixpoint:
    """Resident state of the compiled strategy: model plus firing bookkeeping.

    The one-shot evaluation path creates an instance, loads the database,
    runs to the fixpoint and discards it.  The long-lived
    :class:`~repro.engine.session.DatalogSession` keeps the instance around:
    because the per-plan version bookkeeping survives between :meth:`run`
    calls, loading a *delta* of base facts and running again re-fires only
    the plans whose body relations actually gained rows (delta-restricted
    for delta-safe clauses), i.e. incremental semi-naive maintenance.  This
    is exact for Sequence Datalog because evaluation is monotone: resuming
    semi-naive iteration from the old fixpoint with the new base facts
    inserted computes precisely the least fixpoint of the enlarged database.
    """

    __slots__ = (
        "program_plan", "plans", "executors", "interpretation", "sweeps",
        "use_kernels", "_last_versions", "_last_domain",
    )

    def __init__(
        self,
        program: Program,
        transducers: Optional[TransducerRegistry] = None,
        program_plan: Optional[ProgramPlan] = None,
        seeds: Optional[Dict[int, Substitution]] = None,
        use_kernels: Optional[bool] = None,
    ):
        """``program_plan`` lets a caller supply an already-compiled (and
        possibly restricted or adornment-seeded) plan set instead of
        compiling ``program`` afresh; ``seeds`` maps plan indexes to the
        initial substitutions their executors start from (demand-driven
        evaluation pushes query constants into clause plans this way).
        ``use_kernels`` overrides the process-wide batch-kernel default for
        this engine's executors (None = follow the default)."""
        self.program_plan = (
            program_plan if program_plan is not None else compile_program(program)
        )
        self.plans = self.program_plan.program_plans
        self.use_kernels = use_kernels
        seeds = seeds or {}
        self.executors = [
            PlanExecutor(plan, transducers, seed=seeds.get(index), use_kernels=use_kernels)
            for index, plan in enumerate(self.plans)
        ]
        self.interpretation = Interpretation()
        #: Total sweeps performed over this instance's lifetime.
        self.sweeps = 0
        # Per-plan firing bookkeeping: the relation versions of the body
        # predicates and the domain version observed just before the last
        # firing.  ``None`` means the plan has never fired.
        self._last_versions: List[Optional[Dict[str, int]]] = [None] * len(self.plans)
        self._last_domain: List[int] = [0] * len(self.plans)

    def add_fact(self, predicate: str, values) -> bool:
        """Insert one base fact; return True if it is new."""
        return self.interpretation.add(predicate, values)

    def load_database(self, database: SequenceDatabase) -> int:
        """Insert the database facts; return the number inserted."""
        return _load_database(database, self.interpretation)

    def assume_converged(self) -> None:
        """Mark every plan observed at the current relation/domain versions.

        The storage recovery path (:mod:`repro.storage`) loads a snapshot
        that was written at a *published fixpoint* — the resident
        interpretation already satisfies every rule, so instead of
        re-deriving anything the loader inserts the rows and calls this to
        re-establish the incremental bookkeeping: the next :meth:`run` is
        a single zero-firing confirming sweep, and later deltas fire
        against the restored versions exactly as if the engine had
        computed the model itself.  Calling this on a non-fixpoint
        interpretation silently under-derives; only snapshot recovery may
        use it.
        """
        for plan_index in range(len(self.plans)):
            self._observe(plan_index)

    def _firing_mode(self, plan_index: int) -> Optional[str]:
        """How a plan must fire right now: ``"full"``, ``"delta"`` or ``None``.

        ``None`` means the plan is up to date: no body relation gained rows
        since its last firing and (for domain-sensitive plans) the domain did
        not grow.
        """
        interpretation = self.interpretation
        plan = self.plans[plan_index]
        seen = self._last_versions[plan_index]
        if seen is None:
            return "full"
        changed = any(
            interpretation.relation_version(predicate) > seen.get(predicate, 0)
            for predicate in plan.body_predicates()
        )
        if plan.delta_safe:
            return "delta" if changed else None
        if changed or interpretation.domain_version > self._last_domain[plan_index]:
            return "full"
        return None

    def _delta_views(self, plan_index: int) -> Dict[str, "RelationDelta"]:
        """Zero-copy views of the rows each body relation gained since the
        plan's last firing (for a delta-mode firing)."""
        interpretation = self.interpretation
        seen = self._last_versions[plan_index]
        assert seen is not None
        views = {}
        for predicate in self.plans[plan_index].body_predicates():
            relation = interpretation.relation(predicate)
            if relation is None:
                continue
            views[predicate] = relation.delta_view(seen.get(predicate, 0))
        return views

    def _observe(self, plan_index: int) -> None:
        """Record the plan's observation point at the *current* versions.

        Must be called before the firing's derivations are merged so that
        facts the firing itself derives count as delta for the next round.
        """
        interpretation = self.interpretation
        self._last_versions[plan_index] = {
            predicate: interpretation.relation_version(predicate)
            for predicate in self.plans[plan_index].body_predicates()
        }
        self._last_domain[plan_index] = interpretation.domain_version

    def _merge(self, facts, limits: EvaluationLimits, iteration: int) -> int:
        """Insert derived facts under the limits; return the new-fact count."""
        interpretation = self.interpretation
        added = 0
        for fact in facts:
            _, values = fact
            for value in values:
                limits.check_sequence_length(len(value), interpretation, iteration)
            if interpretation.add_fact(fact):
                added += 1
            limits.check_interpretation(interpretation, iteration)
        return added

    def _fire(self, plan_index: int, limits: EvaluationLimits, iteration: int) -> int:
        """Fire one plan (full or delta-restricted); return new-fact count."""
        mode = self._firing_mode(plan_index)
        if mode is None:
            return 0
        executor = self.executors[plan_index]
        if mode == "delta":
            derived = executor.derive_semi_naive(
                self.interpretation, self._delta_views(plan_index)
            )
        else:
            derived = executor.derive(self.interpretation)
        self._observe(plan_index)
        # Materialise before inserting: inserting while the generator is
        # live would mutate the fact store the matcher is iterating over.
        return self._merge(list(derived), limits, iteration)

    def _sweep(self, limits: EvaluationLimits, iteration: int) -> int:
        """Visit every plan once (bottom-up); return the new-fact count.

        A method of its own so that per-layer tracing can time each sweep
        (``perfbench/trace.py`` wraps it as ``fixpoint.sweep``).
        """
        sweep_added = 0
        for plan_indexes in self.program_plan.schedule:
            for plan_index in plan_indexes:
                sweep_added += self._fire(plan_index, limits, iteration)
        return sweep_added

    def run(self, limits: EvaluationLimits = DEFAULT_LIMITS) -> List[int]:
        """Sweep until no plan derives anything new; return per-sweep counts.

        Global sweeps in bottom-up stratum order.  Every sweep visits each
        plan, but the version gating inside ``_fire`` makes visits to
        up-to-date plans O(1): a plan only re-fires when one of its body
        relations gained rows since its last firing (joined through delta
        views) or, for domain-sensitive plans, when the domain grew.  The
        bottom-up order makes facts derived low in the dependency graph
        visible to higher strata within the same sweep, so the number of
        sweeps is bounded by the naive iteration count; interleaving all
        strata in one sweep (instead of iterating each stratum to a local
        fixpoint) keeps the partial interpretation of an aborted evaluation
        representative of every predicate, matching the naive reference on
        the paper's infinite-fixpoint programs.

        The iteration limit applies per call, so a session performing many
        small maintenance runs is not eventually starved by its own history.
        The insertion of the base (or delta) facts preceding the call counts
        as round 1 and every sweep as one further round, so
        ``max_iterations = N`` permits exactly N rounds — the same count a
        :class:`FixpointResult` reports as ``iterations``.
        """
        interpretation = self.interpretation
        history: List[int] = []
        iteration = 1
        limits.check_interpretation(interpretation, iteration)
        while True:
            iteration += 1
            limits.check_iteration(iteration, partial=interpretation)
            limits.check_interpretation(interpretation, iteration)
            sweep_added = self._sweep(limits, iteration)
            self.sweeps += 1
            history.append(sweep_added)
            if sweep_added == 0:
                break
        return history


def _compute_compiled(
    program: Program,
    database: SequenceDatabase,
    limits: EvaluationLimits,
    transducers: Optional[TransducerRegistry],
    use_kernels: Optional[bool] = None,
) -> Tuple[Interpretation, int, List[int]]:
    engine = CompiledFixpoint(program, transducers, use_kernels=use_kernels)
    new_facts_history = [engine.load_database(database)]
    new_facts_history.extend(engine.run(limits))
    return engine.interpretation, engine.sweeps + 1, new_facts_history
