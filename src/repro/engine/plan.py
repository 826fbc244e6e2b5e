"""Compiled clause plans: the static join-order IR of the evaluation core.

The backtracking reference evaluator (:mod:`repro.engine.evaluation`)
re-derives its literal order at every search node with
``ClauseEvaluator._choose_literal``.  That choice depends only on *which*
variables are bound — never on their values — so the entire decision tree
collapses to a static order that can be computed once per clause.  A
semi-naive firing restricts one body atom to its delta window, so a plan
also carries one delta-first order per body atom: that atom is scanned
first and the rest follow the same greedy choice.

A :class:`ClausePlan` holds those orders, each a sequence of steps:

* :class:`AtomScan` — match one body atom against the fact store, using the
  composite hash index over the columns that are bound when the step runs
  (``bound_columns`` is known statically);
* :class:`CompareFilter` — a comparison whose variables are all bound: a
  pure filter;
* :class:`BindEquality` — an equality with one evaluable side and one bare
  unbound variable: evaluates the side and binds the variable;
* :class:`EnumerateComparison` — the active-domain fallback for a
  comparison that can neither filter nor bind (its unbound variables are
  enumerated over the extended domain).

After the steps, the :class:`HeadPlan` lists the head variables that are
still unbound (they are enumerated over the domain, exactly as the
declarative semantics prescribes) and the plan records whether the clause
is *delta-safe*, i.e. whether predicate-level semi-naive evaluation may
restrict it to delta facts.

Plans are built by :func:`repro.engine.planner.compile_clause` and executed
by :class:`repro.engine.planner.PlanExecutor`; :meth:`ClausePlan.explain`
renders the plan for the CLI ``explain`` subcommand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple, Union

from repro.language.atoms import Atom, Comparison
from repro.language.clauses import Clause
from repro.language.terms import SequenceTerm


@dataclass(frozen=True)
class AtomScan:
    """Match a body atom against its relation (or a delta view of it).

    ``atom_position`` is the index of the atom among the clause's body atoms
    in source order; the semi-naive driver uses it to direct one firing's
    delta restriction at this atom.  ``bound_columns`` are the argument
    positions whose terms are fully evaluable when the step runs — they are
    turned into a composite index lookup.
    """

    atom: Atom
    atom_position: int
    bound_columns: Tuple[int, ...]

    def describe(self, delta: bool = False) -> str:
        """The step as ``explain`` prints it; ``delta`` marks a scan that
        reads the firing's delta window rather than the whole relation."""
        columns = ",".join(str(column) for column in self.bound_columns)
        if delta:
            access = "delta window"
            if columns:
                access += f", index on columns [{columns}]"
        elif columns:
            access = f"index scan on columns [{columns}]"
        else:
            access = "full scan"
        return f"scan {self.atom} ({access})"


@dataclass(frozen=True)
class CompareFilter:
    """Evaluate a fully-bound comparison as a filter."""

    comparison: Comparison

    def describe(self) -> str:
        return f"filter {self.comparison}"


@dataclass(frozen=True)
class BindEquality:
    """Bind a bare variable from the evaluable side of an equality."""

    variable: str
    term: SequenceTerm
    comparison: Comparison

    def describe(self) -> str:
        return f"bind {self.variable} := {self.term}"


@dataclass(frozen=True)
class EnumerateComparison:
    """Active-domain enumeration fallback for an unbindable comparison."""

    comparison: Comparison
    sequence_vars: Tuple[str, ...]
    index_vars: Tuple[str, ...]

    def describe(self) -> str:
        names = ", ".join(self.sequence_vars + self.index_vars)
        return f"enumerate {{{names}}} over domain, check {self.comparison}"


PlanStep = Union[AtomScan, CompareFilter, BindEquality, EnumerateComparison]


@dataclass(frozen=True)
class HeadPlan:
    """How the head is produced once the body is satisfied."""

    head: Atom
    unbound_sequence_vars: Tuple[str, ...]
    unbound_index_vars: Tuple[str, ...]

    @property
    def needs_enumeration(self) -> bool:
        return bool(self.unbound_sequence_vars or self.unbound_index_vars)

    def describe(self) -> str:
        if not self.needs_enumeration:
            return f"emit {self.head}"
        names = ", ".join(self.unbound_sequence_vars + self.unbound_index_vars)
        return f"emit {self.head} enumerating {{{names}}} over domain"


@dataclass(frozen=True)
class ClausePlan:
    """The compiled evaluation plan of one clause.

    ``domain_sensitive`` records whether the clause's derivations can depend
    on the extended active domain *beyond* the contents of its body
    relations: head-variable enumeration, sequence-variable
    ``EnumerateComparison`` fallbacks, unbound indexed-term bases (which
    enumerate domain sequences) and constant-rooted terms whose domain
    membership or index clipping varies with the domain.  Demand-driven
    evaluation (:mod:`repro.engine.demand`) may restrict the swept plan set
    only when every relevant plan is domain-insensitive.

    ``seed_sequences`` lists sequence variables assumed bound *before* the
    body runs (adornment-aware compilation): the executor is given their
    values as an initial substitution, so scans over them become index
    lookups.

    ``steps`` is the base order, used by full firings and by
    :meth:`~repro.engine.planner.PlanExecutor.solutions`.  ``delta_steps``
    holds, for each body-atom position of a delta-safe plan, the order a
    firing restricted to that atom's delta runs in: the atom first, then
    the greedy choice.  A position whose pinned order would observe the
    domain more than the base order, or would leave the batch kernels,
    holds the base order itself.  Plans that never fire in delta mode,
    and plans with a single body atom, have none: their delta firings run
    the base order.
    """

    clause: Clause
    steps: Tuple[PlanStep, ...]
    head_plan: HeadPlan
    delta_safe: bool
    atom_count: int
    domain_sensitive: bool = False
    seed_sequences: Tuple[str, ...] = ()
    delta_steps: Tuple[Tuple[PlanStep, ...], ...] = ()

    @property
    def head_predicate(self) -> str:
        return self.clause.head.predicate

    def body_predicates(self) -> Tuple[str, ...]:
        return tuple(
            sorted({step.atom.predicate for step in self.steps if isinstance(step, AtomScan)})
        )

    def delta_order(self, atom_position: int) -> Tuple[PlanStep, ...]:
        """The steps of a firing whose atom at ``atom_position`` reads a delta."""
        if 0 <= atom_position < len(self.delta_steps):
            return self.delta_steps[atom_position]
        return self.steps

    def explain(self) -> str:
        """A human-readable rendering of the plan."""
        # Imported lazily: kernels.py imports this module for the step types.
        from repro.engine.kernels import batch_classification

        lines = [f"clause: {self.clause}"]
        mode = "semi-naive (delta-restricted)" if self.delta_safe else "full re-evaluation"
        lines.append(f"  firing mode: {mode}")
        batchable, reason = batch_classification(self)
        if batchable:
            lines.append("  execution: batch kernels")
        else:
            lines.append(f"  execution: per-tuple ({reason})")
        if self.seed_sequences:
            names = ", ".join(self.seed_sequences)
            lines.append(f"  given (adornment seed): {{{names}}}")
        for number, step in enumerate(self.steps, start=1):
            lines.append(f"  {number}. {step.describe()}")
        lines.append(f"  {len(self.steps) + 1}. {self.head_plan.describe()}")
        for steps in self.delta_steps:
            if steps == self.steps:
                continue
            first = steps[0]
            assert isinstance(first, AtomScan)
            lines.append(
                f"  delta-first order for body atom {first.atom_position + 1}, "
                f"{first.atom}:"
            )
            lines.append(f"    1. {first.describe(delta=True)}")
            for number, step in enumerate(steps[1:], start=2):
                lines.append(f"    {number}. {step.describe()}")
            lines.append(f"    {len(steps) + 1}. {self.head_plan.describe()}")
        return "\n".join(lines)


@dataclass(frozen=True)
class ProgramPlan:
    """All clause plans of a program plus the evaluation schedule.

    ``strata`` lists the strongly connected components of the predicate
    dependency graph in bottom-up order; ``schedule`` assigns each clause
    plan to the stratum of its head predicate; ``recursive`` marks the
    strata whose predicates depend on themselves (these are the ones that
    need repeated sweeps to converge).
    """

    program_plans: Tuple[ClausePlan, ...]
    strata: Tuple[Tuple[str, ...], ...]
    schedule: Tuple[Tuple[int, ...], ...]  # per stratum: indexes into program_plans
    recursive: Tuple[bool, ...]            # per stratum

    def explain(self) -> str:
        """Render the whole program's plan and schedule."""
        lines: List[str] = []
        for number, (stratum, plan_indexes, is_recursive) in enumerate(
            zip(self.strata, self.schedule, self.recursive), start=1
        ):
            kind = "recursive" if is_recursive else "non-recursive"
            predicates = ", ".join(stratum)
            lines.append(f"stratum {number} ({kind}): {{{predicates}}}")
            if not plan_indexes:
                lines.append("  (no rules: base predicate)")
            for plan_index in plan_indexes:
                plan = self.program_plans[plan_index]
                for line in plan.explain().splitlines():
                    lines.append(f"  {line}")
        return "\n".join(lines)
