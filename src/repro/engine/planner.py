"""Clause compilation: from clauses to executable join plans.

:func:`compile_clause` performs at compile time exactly the search-node
decision that ``ClauseEvaluator._choose_literal`` performs at run time.
This is possible because the runtime choice depends only on *which*
variables are bound, and every kind of step binds a fixed set of variables
on every surviving branch:

* matching an atom binds all of its sequence and index variables (bare
  variables directly, indexed-term bases and index variables by the finite
  enumerations of the matcher);
* a binding equality binds its one bare variable;
* a filter comparison binds nothing;
* the enumeration fallback binds every variable of its comparison.

Simulating the greedy choice over this abstract "bound set" therefore
yields the same literal order the backtracking evaluator would discover at
every node, collapsed into a single static plan with the index columns for
each scan chosen up front.

:class:`PlanExecutor` runs a plan against an interpretation.  It reuses
the shared matching helpers of :mod:`repro.engine.evaluation`, so the
compiled path and the naive reference share one implementation of the
paper's matching semantics (Section 3.2) and cannot drift apart.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple, Union

from repro.analysis.dependency_graph import build_dependency_graph
from repro.engine import kernels
from repro.engine.bindings import Substitution, TransducerRegistry
from repro.engine.evaluation import emit_heads, match_args
from repro.engine.interpretation import Fact, Interpretation
from repro.engine.plan import (
    AtomScan,
    BindEquality,
    ClausePlan,
    CompareFilter,
    EnumerateComparison,
    HeadPlan,
    PlanStep,
    ProgramPlan,
)
from repro.database.relation import RelationDelta, SequenceRelation
from repro.language.atoms import Atom, BodyLiteral, Comparison, TrueLiteral
from repro.language.clauses import Clause, Program
from repro.language.terms import (
    IndexSum,
    IndexVariable,
    IndexedTerm,
    SequenceTerm,
    SequenceVariable,
)


def clause_is_delta_safe(clause: Clause) -> bool:
    """True if the semi-naive delta restriction is complete for the clause.

    A clause is delta-safe when it has at least one body atom, all of its
    sequence variables are guarded and all of its index variables occur in
    body atoms; for such clauses new derivations can only arise from new
    facts, never from mere growth of the extended active domain.
    """
    atoms = clause.body_atoms()
    if not atoms:
        return False
    if not clause.is_guarded():
        return False
    atom_index_vars: Set[str] = set()
    for atom in atoms:
        atom_index_vars |= atom.index_variables()
    return clause.index_variables() <= atom_index_vars


class _BoundSet:
    """The statically-known set of bound variables during compilation."""

    __slots__ = ("sequences", "indexes")

    def __init__(self) -> None:
        self.sequences: Set[str] = set()
        self.indexes: Set[str] = set()

    def covers_term(self, term: SequenceTerm) -> bool:
        return (
            term.sequence_variables() <= self.sequences
            and term.index_variables() <= self.indexes
        )

    def covers_literal(self, literal: BodyLiteral) -> bool:
        return (
            literal.sequence_variables() <= self.sequences
            and literal.index_variables() <= self.indexes
        )


def _binding_side(
    comparison: Comparison, bound: _BoundSet
) -> Optional[Tuple[str, SequenceTerm]]:
    """Mirror of ``ClauseEvaluator._binding_side`` over the static bound set."""
    if not comparison.is_equality():
        return None
    left, right = comparison.left, comparison.right
    if (
        isinstance(left, SequenceVariable)
        and left.name not in bound.sequences
        and bound.covers_term(right)
    ):
        return (left.name, right)
    if (
        isinstance(right, SequenceVariable)
        and right.name not in bound.sequences
        and bound.covers_term(left)
    ):
        return (right.name, left)
    return None


def _choose(
    pending: List[Tuple[BodyLiteral, int]], bound: _BoundSet
) -> int:
    """Static mirror of ``ClauseEvaluator._choose_literal``."""
    best_atom = -1
    best_atom_score = -1
    binder = -1
    for position, (literal, _) in enumerate(pending):
        if bound.covers_literal(literal):
            return position
        if isinstance(literal, Comparison) and binder < 0:
            if _binding_side(literal, bound) is not None:
                binder = position
        if isinstance(literal, Atom):
            score = sum(1 for arg in literal.args if bound.covers_term(arg))
            if score > best_atom_score:
                best_atom_score = score
                best_atom = position
    if best_atom >= 0:
        return best_atom
    if binder >= 0:
        return binder
    return 0


def _term_domain_rooted(term: SequenceTerm) -> bool:
    """True if the term's value is guaranteed to lie in the extended domain.

    A bare variable carries a domain value by construction; an indexed term
    over a variable base extracts a contiguous subsequence of one, and the
    extended domain is closed under contiguous subsequences (Definition 2).
    Constant-rooted terms (a constant, or an indexed term over a constant
    base) evaluate to values that may or may not be in a given domain, so
    operations involving them observe the domain itself.
    """
    if isinstance(term, SequenceVariable):
        return True
    if isinstance(term, IndexedTerm):
        return isinstance(term.base, SequenceVariable)
    return False


def _indexed_subterms(atom: Atom) -> Iterator[IndexedTerm]:
    """Every indexed term occurring (possibly nested) in an atom's arguments."""
    pending: List[SequenceTerm] = list(atom.args)
    while pending:
        term = pending.pop()
        if isinstance(term, IndexedTerm):
            yield term
        for attribute in ("parts", "args"):
            nested = getattr(term, attribute, None)
            if nested is not None:
                pending.extend(nested)


def _index_expression_clips(expression, unbound: Set[str]) -> bool:
    """True if defined assignments to the expression's unbound variables are
    bounded by the base sequence's length.

    ``N`` and ``N + c`` are monotone and at least ``N``, so an assignment
    beyond ``len(base) + 1`` makes the indexed term undefined — the
    domain-wide integer enumeration self-clips.  Subtractions (``N - c``)
    admit defined assignments *above* that bound, so the enumeration range
    itself matters; expressions not involving an unbound variable are
    irrelevant here.
    """
    if not expression.index_variables() & unbound:
        return True
    if isinstance(expression, IndexVariable):
        return True
    if isinstance(expression, IndexSum) and expression.operator == "+":
        return all(
            _index_expression_clips(side, unbound)
            for side in (expression.left, expression.right)
        )
    return False


def _head_enumeration_sensitive(head: Atom, head_plan: HeadPlan) -> bool:
    """Whether enumerating the head's unbound variables observes the domain.

    Unbound *sequence* variables range over the whole domain: always
    sensitive.  Unbound *index* variables range over the domain's integer
    part, but when every use sits in an additive index expression over a
    variable base, assignments beyond the base's length are undefined and
    emit nothing — the enumeration self-clips and the emitted facts do not
    depend on the ambient domain.  A constant base (whose length the
    restricted domain may not cover) or a subtractive expression (defined
    above the base-length bound) breaks that argument.
    """
    if head_plan.unbound_sequence_vars:
        return True
    unbound = set(head_plan.unbound_index_vars)
    if not unbound:
        return False
    for term in _indexed_subterms(head):
        uses_unbound = (
            term.lo.index_variables() | term.hi.index_variables()
        ) & unbound
        if not uses_unbound:
            continue
        if not isinstance(term.base, SequenceVariable):
            return True
        if not (
            _index_expression_clips(term.lo, unbound)
            and _index_expression_clips(term.hi, unbound)
        ):
            return True
    return False


def _comparison_enumeration_sensitive(
    comparison: Comparison, index_vars: Iterable[str]
) -> bool:
    """Whether index-only enumeration of the comparison observes the domain.

    The enumeration ranges over the domain's integer part, which is bounded
    by the longest *domain* sequence.  Solutions are unaffected by that
    bound only when every use of an enumerated variable sits in an additive
    index expression over a variable base: assignments beyond the base's
    length leave the term undefined, so the enumeration self-clips (the
    mirror of :func:`_head_enumeration_sensitive`).  A constant base can be
    longer than any domain sequence, and a subtractive expression admits
    defined assignments above the bound — both make the solution set depend
    on the ambient domain.
    """
    unbound = set(index_vars)
    for side in (comparison.left, comparison.right):
        if not isinstance(side, IndexedTerm):
            continue
        if not (side.lo.index_variables() | side.hi.index_variables()) & unbound:
            continue
        if not isinstance(side.base, SequenceVariable):
            return True
        if not (
            _index_expression_clips(side.lo, unbound)
            and _index_expression_clips(side.hi, unbound)
        ):
            return True
    return False


def compile_clause(
    clause: Clause, bound_sequences: Iterable[str] = ()
) -> ClausePlan:
    """Compile one clause into a static join plan.

    ``bound_sequences`` names sequence variables assumed bound *before* the
    body runs (adornment-aware compilation for demand-driven evaluation):
    the planner treats them as covered from step one, so atoms over them are
    scanned with those columns as index lookups, and the resulting plan must
    be executed with an initial substitution supplying their values
    (:class:`PlanExecutor`'s ``seed``).
    """
    pending: List[Tuple[BodyLiteral, int]] = []
    atom_position = 0
    for literal in clause.body:
        if isinstance(literal, TrueLiteral):
            continue
        position = -1
        if isinstance(literal, Atom):
            position = atom_position
            atom_position += 1
        pending.append((literal, position))

    bound = _BoundSet()
    seeds = tuple(sorted(set(bound_sequences) & clause.sequence_variables()))
    bound.sequences |= set(seeds)
    steps: List[PlanStep] = []
    domain_sensitive = False
    while pending:
        index = _choose(pending, bound)
        literal, position = pending.pop(index)
        if isinstance(literal, Atom):
            bound_columns = tuple(
                column
                for column, arg in enumerate(literal.args)
                if bound.covers_term(arg)
            )
            for arg in literal.args:
                if not isinstance(arg, IndexedTerm):
                    continue
                base = arg.base
                if not isinstance(base, SequenceVariable):
                    # Constant base: index clipping varies with the domain.
                    domain_sensitive = True
                elif base.name not in bound.sequences:
                    # Unbound base: matching enumerates domain sequences.
                    domain_sensitive = True
            steps.append(AtomScan(literal, position, bound_columns))
            bound.sequences |= literal.sequence_variables()
            bound.indexes |= literal.index_variables()
            continue
        assert isinstance(literal, Comparison)
        if bound.covers_literal(literal):
            steps.append(CompareFilter(literal))
            continue
        binding = _binding_side(literal, bound)
        if binding is not None:
            variable, term = binding
            if not _term_domain_rooted(term):
                # The bound value's domain-membership check observes the
                # ambient domain (a constant may be in one domain, not
                # another).
                domain_sensitive = True
            steps.append(BindEquality(variable, term, literal))
            bound.sequences.add(variable)
            continue
        sequence_vars = tuple(
            sorted(literal.sequence_variables() - bound.sequences)
        )
        index_vars = tuple(sorted(literal.index_variables() - bound.indexes))
        if sequence_vars or _comparison_enumeration_sensitive(literal, index_vars):
            # Sequence variables range over the whole domain; index-only
            # enumeration self-clips unless a constant base or subtractive
            # index expression lets solutions escape the domain's bound.
            domain_sensitive = True
        steps.append(EnumerateComparison(literal, sequence_vars, index_vars))
        bound.sequences |= literal.sequence_variables()
        bound.indexes |= literal.index_variables()

    head = clause.head
    head_plan = HeadPlan(
        head=head,
        unbound_sequence_vars=tuple(
            sorted(head.sequence_variables() - bound.sequences)
        ),
        unbound_index_vars=tuple(sorted(head.index_variables() - bound.indexes)),
    )
    if _head_enumeration_sensitive(head, head_plan):
        domain_sensitive = True
    if seeds:
        # ``domain_sensitive`` must describe the *clause*, not the seeded
        # plan: pre-binding a variable the body never binds would otherwise
        # mask head-enumeration (or constant-equality) sensitivity, and the
        # demand compiler would skip the fallback that keeps it exact —
        # seeding is a pure filter only on clauses whose unseeded
        # derivations are body-driven.
        domain_sensitive = compile_clause(clause).domain_sensitive
    return ClausePlan(
        clause=clause,
        steps=tuple(steps),
        head_plan=head_plan,
        delta_safe=clause_is_delta_safe(clause),
        atom_count=atom_position,
        domain_sensitive=domain_sensitive,
        seed_sequences=seeds,
    )


def compile_program(
    program: Program,
    seeds: Optional[Mapping[int, Iterable[str]]] = None,
) -> ProgramPlan:
    """Compile every clause and schedule the plans over dependency strata.

    ``seeds`` optionally maps a clause's position in the program to the
    sequence variables pre-bound by an adornment (see :func:`compile_clause`);
    demand-driven evaluation uses it to push query constants into the plans
    of the clauses defining the queried predicate.
    """
    seeds = seeds or {}
    plans = tuple(
        compile_clause(clause, seeds.get(position, ()))
        for position, clause in enumerate(program)
    )
    graph = build_dependency_graph(program)
    components = graph.linearized_components()

    # Predicates mentioned nowhere in the graph (empty program) still need a
    # schedule entry; linearized_components already covers every predicate
    # of the program, so only the assignment below is needed.
    stratum_of: Dict[str, int] = {}
    for number, component in enumerate(components):
        for predicate in component:
            stratum_of[predicate] = number

    schedule: List[List[int]] = [[] for _ in components]
    for plan_index, plan in enumerate(plans):
        predicate = plan.head_predicate
        stratum = stratum_of.get(predicate)
        if stratum is None:
            # Head predicate absent from the graph (cannot happen for
            # programs built through Program, but stay defensive).
            components = components + [frozenset({predicate})]
            stratum_of[predicate] = len(components) - 1
            schedule.append([])
            stratum = len(components) - 1
        schedule[stratum].append(plan_index)

    recursive: List[bool] = []
    for component, plan_indexes in zip(components, schedule):
        is_recursive = len(component) > 1
        if not is_recursive:
            for plan_index in plan_indexes:
                plan = plans[plan_index]
                if set(plan.clause.body_predicates()) & set(component):
                    is_recursive = True
                    break
        recursive.append(is_recursive)

    return ProgramPlan(
        program_plans=plans,
        strata=tuple(tuple(sorted(component)) for component in components),
        schedule=tuple(tuple(indexes) for indexes in schedule),
        recursive=tuple(recursive),
    )


#: Anything an AtomScan can read rows from.
ScanSource = Union[SequenceRelation, RelationDelta]


class PlanExecutor:
    """Executes a compiled clause plan against an interpretation.

    ``derive`` (full firing) and ``derive_semi_naive`` (delta-restricted
    firing) yield ground head facts exactly like
    :meth:`ClauseEvaluator.derive`; duplicates may be yielded and are
    deduplicated by the caller on insertion.

    ``seed`` supplies the values of the plan's pre-bound variables (a plan
    compiled with ``bound_sequences`` must be executed with a seed binding
    exactly those variables): every firing starts from that substitution
    instead of the empty one, which is how demand-driven evaluation pushes
    query constants into clause bodies.

    Plans classified batchable (:func:`repro.engine.kernels
    .batch_classification`) route ``derive``/``derive_delta`` through the
    batch kernels unless ``use_kernels`` (or the process-wide default,
    :func:`repro.engine.kernels.set_batch_enabled`) turns them off; the
    firing semantics are identical either way.
    """

    __slots__ = (
        "plan", "transducers", "_steps", "_head_sequence_vars",
        "_head_index_vars", "_initial", "_batch", "_fallback_reason",
    )

    def __init__(
        self,
        plan: ClausePlan,
        transducers: Optional[TransducerRegistry] = None,
        seed: Optional[Substitution] = None,
        use_kernels: Optional[bool] = None,
    ):
        self.plan = plan
        self.transducers = transducers
        self._steps = plan.steps
        self._head_sequence_vars = plan.clause.head.sequence_variables()
        self._head_index_vars = plan.clause.head.index_variables()
        self._initial = seed if seed is not None else Substitution()
        enabled = kernels.batch_enabled() if use_kernels is None else use_kernels
        batchable, reason = kernels.batch_classification(plan)
        if batchable and not self._seed_matches_plan():
            batchable, reason = False, kernels.REASON_SEED_MISMATCH
        self._batch: Optional[kernels.BatchExecutor] = None
        self._fallback_reason = reason
        if batchable and enabled:
            seed_row = tuple(
                self._initial.sequence(name).intern_id
                for name in plan.seed_sequences
            )
            self._batch = kernels.BatchExecutor(plan, seed_row)
        elif batchable:
            self._fallback_reason = kernels.REASON_DISABLED

    def _seed_matches_plan(self) -> bool:
        """Whether the seed binds exactly the plan's adornment variables.

        The batch compilation assumes the initial substitution binds the
        plan's ``seed_sequences`` and nothing else relevant to the clause;
        any other seed (possible for hand-built executors) falls back to
        the tuple path, whose matcher handles arbitrary pre-bindings.
        """
        plan = self.plan
        clause_sequences = set(plan.clause.sequence_variables())
        bound = set(self._initial.sequence_bindings) & clause_sequences
        if bound != set(plan.seed_sequences):
            return False
        return not (
            set(self._initial.index_bindings) & set(plan.clause.index_variables())
        )

    @property
    def execution_mode(self) -> str:
        """``"batch"`` or ``"tuple"`` — how firings of this executor run."""
        return "batch" if self._batch is not None else "tuple"

    @property
    def fallback_reason(self) -> Optional[str]:
        """Why firings take the tuple path (None on the batch path)."""
        return None if self._batch is not None else self._fallback_reason

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def derive(self, interpretation: Interpretation) -> Iterable[Fact]:
        """Every ground head fact derivable from the interpretation."""
        if self._batch is not None:
            return self._batch.derive(interpretation)
        kernels.record_tuple_firing(self._fallback_reason)
        return self._derive_tuple(interpretation)

    def _derive_tuple(self, interpretation: Interpretation) -> Iterator[Fact]:
        for substitution in self.solutions(interpretation):
            yield from self._emit(substitution, interpretation)

    def derive_semi_naive(
        self,
        interpretation: Interpretation,
        delta_views: Mapping[str, ScanSource],
    ) -> Iterator[Fact]:
        """Yield the derivations in which some atom matches a delta row.

        For each body atom whose predicate has a (non-empty) entry in
        ``delta_views``, the plan is fired once with that atom restricted to
        the delta view and all other atoms joined against the full store.
        The union over positions covers every derivation that uses at least
        one new fact.  The same derivation can be produced for several
        positions; deduplication happens on insertion.
        """
        for step in self._steps:
            if not isinstance(step, AtomScan):
                continue
            view = delta_views.get(step.atom.predicate)
            if view is None or not len(view):
                continue
            yield from self.derive_delta(interpretation, step.atom_position, view)

    def derive_delta(
        self,
        interpretation: Interpretation,
        atom_position: int,
        view: ScanSource,
    ) -> Iterable[Fact]:
        """Fire once with the atom at ``atom_position`` restricted to ``view``.

        Every other occurrence of the same predicate joins against the full
        store, so every solution goes through exactly one row of ``view``
        at the restricted position.
        """
        if self._batch is not None:
            return self._batch.derive_delta(interpretation, atom_position, view)
        kernels.record_tuple_firing(self._fallback_reason)
        return self._derive_delta_tuple(interpretation, atom_position, view)

    def _derive_delta_tuple(
        self,
        interpretation: Interpretation,
        atom_position: int,
        view: ScanSource,
    ) -> Iterator[Fact]:
        predicate = None
        for step in self._steps:
            if isinstance(step, AtomScan) and step.atom_position == atom_position:
                predicate = step.atom.predicate
                break
        if predicate is None:
            return
        for substitution in self._run(
            0, self._initial, interpretation, atom_position, {predicate: view}
        ):
            yield from self._emit(substitution, interpretation)

    def solutions(self, interpretation: Interpretation) -> Iterator[Substitution]:
        """Yield every substitution satisfying the body of the plan.

        This is the step pipeline without head emission; the prepared
        pattern queries of :mod:`repro.engine.query` execute a single-atom
        plan this way, so constant-bound argument positions go through the
        same composite-index ``AtomScan`` machinery as clause bodies.
        """
        yield from self._run(0, self._initial, interpretation, -1, None)

    def _emit(
        self, substitution: Substitution, interpretation: Interpretation
    ) -> Iterator[Fact]:
        yield from emit_heads(
            self.plan.clause.head,
            self._head_sequence_vars,
            self._head_index_vars,
            substitution,
            interpretation.domain,
            self.transducers,
        )

    # ------------------------------------------------------------------
    # Step execution
    # ------------------------------------------------------------------
    def _run(
        self,
        step_index: int,
        substitution: Substitution,
        interpretation: Interpretation,
        delta_position: int,
        delta_views: Optional[Mapping[str, ScanSource]],
    ) -> Iterator[Substitution]:
        if step_index == len(self._steps):
            yield substitution
            return

        step = self._steps[step_index]
        if isinstance(step, AtomScan):
            yield from self._run_scan(
                step, step_index, substitution, interpretation, delta_position, delta_views
            )
        elif isinstance(step, CompareFilter):
            if substitution.evaluate_comparison(step.comparison):
                yield from self._run(
                    step_index + 1, substitution, interpretation, delta_position, delta_views
                )
        elif isinstance(step, BindEquality):
            value = substitution.evaluate_sequence(step.term)
            if value is not None and value in interpretation.domain:
                extended = substitution.bind_sequence(step.variable, value)
                yield from self._run(
                    step_index + 1, extended, interpretation, delta_position, delta_views
                )
        else:
            assert isinstance(step, EnumerateComparison)
            yield from self._run_enumerate(
                step, step_index, substitution, interpretation, delta_position, delta_views
            )

    def _run_scan(
        self,
        step: AtomScan,
        step_index: int,
        substitution: Substitution,
        interpretation: Interpretation,
        delta_position: int,
        delta_views: Optional[Mapping[str, ScanSource]],
    ) -> Iterator[Substitution]:
        atom = step.atom
        source: Optional[ScanSource]
        if delta_views is not None and step.atom_position == delta_position:
            source = delta_views.get(atom.predicate)
        else:
            source = interpretation.relation(atom.predicate)
        if source is None or source.arity != atom.arity:
            return

        bindings = {}
        for column in step.bound_columns:
            value = substitution.evaluate_sequence(atom.args[column])
            if value is None:
                return  # undefined term: no extension can satisfy the atom
            bindings[column] = value

        domain = interpretation.domain
        for row in source.lookup(bindings):
            for extended in match_args(atom.args, row, 0, substitution, domain):
                yield from self._run(
                    step_index + 1, extended, interpretation, delta_position, delta_views
                )

    def _run_enumerate(
        self,
        step: EnumerateComparison,
        step_index: int,
        substitution: Substitution,
        interpretation: Interpretation,
        delta_position: int,
        delta_views: Optional[Mapping[str, ScanSource]],
    ) -> Iterator[Substitution]:
        domain = interpretation.domain
        sequence_names = [
            name for name in step.sequence_vars if not substitution.binds_sequence(name)
        ]
        index_names = [
            name for name in step.index_vars if not substitution.binds_index(name)
        ]
        # ``product`` copies the domain's sequence set once, when it is
        # built; an index-only enumeration must not pay that O(|domain|).
        integers = domain.integers()
        for sequence_assignment in (
            product(domain.sequences(), repeat=len(sequence_names))
            if sequence_names else [()]
        ):
            candidate = substitution
            for name, value in zip(sequence_names, sequence_assignment):
                candidate = candidate.bind_sequence(name, value)
            for integer_assignment in (
                product(integers, repeat=len(index_names)) if index_names else [()]
            ):
                final = candidate
                for name, value in zip(index_names, integer_assignment):
                    final = final.bind_index(name, value)
                if final.evaluate_comparison(step.comparison):
                    yield from self._run(
                        step_index + 1, final, interpretation, delta_position, delta_views
                    )
