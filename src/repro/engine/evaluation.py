"""Clause evaluation: generating the substitutions that fire a rule.

Definition 4 of the paper defines ``T_{P,db}(I)`` as the set of heads
``theta(head(gamma))`` over all clauses ``gamma`` and all substitutions
``theta`` *based on the extended active domain of I* that are defined at
``gamma`` and satisfy ``theta(body(gamma)) ⊆ I``.

Enumerating every substitution over the domain would be correct but
hopelessly slow, so :class:`ClauseEvaluator` performs a backtracking join:

1. body literals are processed in a greedy order -- literals whose variables
   are already bound act as filters, equalities that can bind a bare variable
   do so, and predicate atoms are matched against the interpretation using
   the per-column indexes of the fact store;
2. matching an atom argument against a fact value may *solve* for unbound
   variables: a bare variable is bound directly, and an indexed term
   ``X[n1:n2]`` enumerates the (finitely many) index values -- and, when its
   base is unbound, the (finitely many) domain sequences containing the
   value -- that make the term equal to the fact value;
3. any clause variable still unbound after the body is satisfied (an
   *unguarded* variable) is enumerated over the extended active domain,
   exactly as the declarative semantics prescribes;
4. finally the head is evaluated; substitutions at which the head is
   undefined are discarded.

The result is exactly the set of ground heads of Definition 4, computed
without materialising the full substitution space.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.engine.bindings import Substitution, TransducerRegistry, UnboundVariableError
from repro.engine.interpretation import Fact, Interpretation
from repro.errors import EvaluationError
from repro.language.atoms import Atom, BodyLiteral, Comparison, TrueLiteral
from repro.language.clauses import Clause
from repro.language.terms import (
    ConstantTerm,
    IndexedTerm,
    SequenceTerm,
    SequenceVariable,
)
from repro.sequences import ExtendedDomain, Sequence


def _term_is_evaluable(term: SequenceTerm, substitution: Substitution) -> bool:
    """True if every variable of the term is bound by the substitution."""
    return substitution.covers(term.sequence_variables(), term.index_variables())


def _literal_is_evaluable(literal: BodyLiteral, substitution: Substitution) -> bool:
    return substitution.covers(
        literal.sequence_variables(), literal.index_variables()
    )


# ----------------------------------------------------------------------
# Shared matching machinery
#
# These module-level functions implement the semantics of matching a term of
# a body atom against a fact value (Section 3.2).  They are used both by the
# backtracking :class:`ClauseEvaluator` below (the naive reference) and by
# the compiled plan executor in :mod:`repro.engine.planner`, so the two
# evaluation paths cannot drift apart semantically.
# ----------------------------------------------------------------------
def match_args(
    args: Tuple[SequenceTerm, ...],
    row: Tuple[Sequence, ...],
    position: int,
    substitution: Substitution,
    domain: ExtendedDomain,
) -> Iterator[Substitution]:
    """Yield extensions of ``substitution`` matching each arg to each value."""
    if position == len(args):
        yield substitution
        return
    for extended in match_term(args[position], row[position], substitution, domain):
        yield from match_args(args, row, position + 1, extended, domain)


def match_term(
    term: SequenceTerm,
    value: Sequence,
    substitution: Substitution,
    domain: ExtendedDomain,
) -> Iterator[Substitution]:
    """Yield extensions of ``substitution`` under which ``term`` equals ``value``."""
    if isinstance(term, ConstantTerm):
        if term.value == value:
            yield substitution
        return
    if isinstance(term, SequenceVariable):
        if substitution.binds_sequence(term.name):
            if substitution.sequence(term.name) == value:
                yield substitution
        elif value in domain:
            yield substitution.bind_sequence(term.name, value)
        return
    if isinstance(term, IndexedTerm):
        yield from match_indexed(term, value, substitution, domain)
        return
    raise EvaluationError(
        f"constructive term {term} found in a rule body; this should have "
        "been rejected at clause construction"
    )


def match_indexed(
    term: IndexedTerm,
    value: Sequence,
    substitution: Substitution,
    domain: ExtendedDomain,
) -> Iterator[Substitution]:
    # Candidate values for the base of the indexed term.
    base = term.base
    if isinstance(base, ConstantTerm):
        base_candidates: Iterable[Tuple[Sequence, Substitution]] = [
            (base.value, substitution)
        ]
    else:
        assert isinstance(base, SequenceVariable)
        if substitution.binds_sequence(base.name):
            base_candidates = [(substitution.sequence(base.name), substitution)]
        else:
            # The base is unbound: it must be a domain sequence having
            # `value` as a contiguous subsequence.
            base_candidates = (
                (candidate, substitution.bind_sequence(base.name, candidate))
                for candidate in domain.sequences()
                if value.is_subsequence_of(candidate)
            )

    for base_value, base_substitution in base_candidates:
        yield from match_indexes(term, base_value, value, base_substitution, domain)


def match_indexes(
    term: IndexedTerm,
    base_value: Sequence,
    value: Sequence,
    substitution: Substitution,
    domain: ExtendedDomain,
) -> Iterator[Substitution]:
    unbound = sorted(
        name
        for name in (term.lo.index_variables() | term.hi.index_variables())
        if not substitution.binds_index(name)
    )
    end_value = len(base_value)
    if not unbound:
        try:
            lo = substitution.evaluate_index(term.lo, end_value)
            hi = substitution.evaluate_index(term.hi, end_value)
        except UnboundVariableError:
            return
        if base_value.subsequence(lo, hi) == value:
            yield substitution
        return

    # Enumerate assignments to the unbound index variables.  Semantically
    # they range over the integer part of the extended domain, but any
    # value beyond len(base) + 1 makes this indexed term undefined (and
    # hence the whole substitution undefined at the clause), so the
    # enumeration can safely be clipped to the base sequence.
    integer_range = range(0, min(len(base_value) + 2, domain.max_length + 2))
    for assignment in product(integer_range, repeat=len(unbound)):
        candidate = substitution
        for name, integer in zip(unbound, assignment):
            candidate = candidate.bind_index(name, integer)
        lo = candidate.evaluate_index(term.lo, end_value)
        hi = candidate.evaluate_index(term.hi, end_value)
        if base_value.subsequence(lo, hi) == value:
            yield candidate


def emit_heads(
    head: Atom,
    head_sequence_vars: Iterable[str],
    head_index_vars: Iterable[str],
    substitution: Substitution,
    domain: ExtendedDomain,
    transducers: Optional[TransducerRegistry],
) -> Iterator[Fact]:
    """Enumerate unbound head variables over the domain and evaluate the head.

    Only variables occurring in the head can influence the derived fact;
    enumerating unbound body-only variables would merely produce duplicate
    heads (the domain is never empty, so a witness always exists).
    """
    unbound_sequences = sorted(
        name for name in head_sequence_vars if not substitution.binds_sequence(name)
    )
    unbound_indexes = sorted(
        name for name in head_index_vars if not substitution.binds_index(name)
    )

    if not unbound_sequences and not unbound_indexes:
        fact = evaluate_head(head, substitution, transducers)
        if fact is not None:
            yield fact
        return

    sequences = list(domain.sequences())
    integers = list(domain.integers())
    sequence_choices = [sequences] * len(unbound_sequences)
    integer_choices = [integers] * len(unbound_indexes)
    for sequence_assignment in product(*sequence_choices) if sequence_choices else [()]:
        candidate = substitution
        for name, value in zip(unbound_sequences, sequence_assignment):
            candidate = candidate.bind_sequence(name, value)
        for integer_assignment in product(*integer_choices) if integer_choices else [()]:
            final = candidate
            for name, value in zip(unbound_indexes, integer_assignment):
                final = final.bind_index(name, value)
            fact = evaluate_head(head, final, transducers)
            if fact is not None:
                yield fact


def evaluate_head(
    head: Atom,
    substitution: Substitution,
    transducers: Optional[TransducerRegistry],
) -> Optional[Fact]:
    try:
        return substitution.evaluate_atom(head, transducers)
    except UnboundVariableError:
        # Should not happen: all clause variables are bound at this point.
        return None


class ClauseEvaluator:
    """Evaluates one clause against an interpretation.

    Parameters
    ----------
    clause:
        The clause to evaluate.
    transducers:
        Optional registry used to evaluate transducer terms in the head
        (Transducer Datalog).
    """

    def __init__(
        self,
        clause: Clause,
        transducers: Optional[TransducerRegistry] = None,
    ):
        self.clause = clause
        self.transducers = transducers
        self._head_sequence_vars = clause.head.sequence_variables()
        self._head_index_vars = clause.head.index_variables()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def derive(self, interpretation: Interpretation) -> Iterator[Fact]:
        """Yield every ground head fact derivable from the interpretation.

        Duplicate facts may be yielded; the caller deduplicates by inserting
        into an interpretation.
        """
        domain = interpretation.domain
        for substitution in self._body_solutions(interpretation):
            yield from self._emit_heads(substitution, domain)

    # ------------------------------------------------------------------
    # Body search
    # ------------------------------------------------------------------
    def _body_solutions(self, interpretation: Interpretation) -> Iterator[Substitution]:
        literals = [
            literal for literal in self.clause.body
            if not isinstance(literal, TrueLiteral)
        ]
        yield from self._solve(literals, Substitution(), interpretation)

    def _solve(
        self,
        literals: List[BodyLiteral],
        substitution: Substitution,
        interpretation: Interpretation,
    ) -> Iterator[Substitution]:
        if not literals:
            yield substitution
            return

        index = self._choose_literal(literals, substitution)
        literal = literals[index]
        rest = literals[:index] + literals[index + 1:]

        if isinstance(literal, Comparison):
            yield from self._solve_comparison(
                literal, rest, substitution, interpretation
            )
            return

        assert isinstance(literal, Atom)
        for extended in self._match_atom(literal, interpretation, substitution):
            yield from self._solve(rest, extended, interpretation)

    def _choose_literal(
        self,
        literals: List[BodyLiteral],
        substitution: Substitution,
    ) -> int:
        """Pick the next literal to process.

        Preference order: a fully-bound literal (cheap filter), then an
        equality that can directly bind a bare variable, then the predicate
        atom with the most bound argument terms, then anything.
        """
        best_atom = -1
        best_atom_score = -1
        binder = -1
        for position, literal in enumerate(literals):
            if _literal_is_evaluable(literal, substitution):
                return position
            if isinstance(literal, Comparison) and binder < 0:
                if self._binding_side(literal, substitution) is not None:
                    binder = position
            if isinstance(literal, Atom):
                score = sum(
                    1 for arg in literal.args if _term_is_evaluable(arg, substitution)
                )
                if score > best_atom_score:
                    best_atom_score = score
                    best_atom = position
        if best_atom >= 0:
            return best_atom
        if binder >= 0:
            return binder
        return 0

    # ------------------------------------------------------------------
    # Comparisons
    # ------------------------------------------------------------------
    @staticmethod
    def _binding_side(
        comparison: Comparison, substitution: Substitution
    ) -> Optional[Tuple[str, SequenceTerm]]:
        """If the comparison is an equality with one evaluable side and the
        other a bare unbound variable, return ``(variable_name, other_side)``."""
        if not comparison.is_equality():
            return None
        left, right = comparison.left, comparison.right
        if (
            isinstance(left, SequenceVariable)
            and not substitution.binds_sequence(left.name)
            and _term_is_evaluable(right, substitution)
        ):
            return (left.name, right)
        if (
            isinstance(right, SequenceVariable)
            and not substitution.binds_sequence(right.name)
            and _term_is_evaluable(left, substitution)
        ):
            return (right.name, left)
        return None

    def _solve_comparison(
        self,
        comparison: Comparison,
        rest: List[BodyLiteral],
        substitution: Substitution,
        interpretation: Interpretation,
    ) -> Iterator[Substitution]:
        domain = interpretation.domain
        if _literal_is_evaluable(comparison, substitution):
            if substitution.evaluate_comparison(comparison):
                yield from self._solve(rest, substitution, interpretation)
            return

        binding = self._binding_side(comparison, substitution)
        if binding is not None:
            name, other = binding
            value = substitution.evaluate_sequence(other)
            if value is not None and value in domain:
                extended = substitution.bind_sequence(name, value)
                yield from self._solve(rest, extended, interpretation)
            return

        # General case: enumerate one unbound variable of the comparison over
        # the domain and retry (active-domain semantics).
        for name in sorted(comparison.sequence_variables()):
            if not substitution.binds_sequence(name):
                for value in domain.sequences():
                    extended = substitution.bind_sequence(name, value)
                    yield from self._solve_comparison(
                        comparison, rest, extended, interpretation
                    )
                return
        for name in sorted(comparison.index_variables()):
            if not substitution.binds_index(name):
                for value in domain.integers():
                    extended = substitution.bind_index(name, value)
                    yield from self._solve_comparison(
                        comparison, rest, extended, interpretation
                    )
                return

    # ------------------------------------------------------------------
    # Atom matching
    # ------------------------------------------------------------------
    def _match_atom(
        self,
        atom: Atom,
        interpretation: Interpretation,
        substitution: Substitution,
    ) -> Iterator[Substitution]:
        relation = interpretation.relation(atom.predicate)
        if relation is None or relation.arity != atom.arity:
            return

        # Use fully-evaluable arguments as index lookups.
        column_bindings: Dict[int, Sequence] = {}
        for column, arg in enumerate(atom.args):
            if _term_is_evaluable(arg, substitution):
                value = substitution.evaluate_sequence(arg)
                if value is None:
                    return  # undefined term: no extension can satisfy the atom
                column_bindings[column] = value

        domain = interpretation.domain
        for row in relation.lookup(column_bindings):
            yield from match_args(atom.args, row, 0, substitution, domain)

    # ------------------------------------------------------------------
    # Head emission
    # ------------------------------------------------------------------
    def _emit_heads(
        self, substitution: Substitution, domain: ExtendedDomain
    ) -> Iterator[Fact]:
        """Enumerate unbound clause variables over the domain and evaluate the head."""
        yield from emit_heads(
            self.clause.head,
            self._head_sequence_vars,
            self._head_index_vars,
            substitution,
            domain,
            self.transducers,
        )
