"""The operator ``T_{P,db}`` of Definition 4.

``TOperator.apply(I)`` computes, from scratch, the interpretation

    { theta(head(gamma)) | theta(body(gamma)) ⊆ I, gamma in P ∪ db,
      theta based on Dext_I and defined at gamma }

Database atoms are treated as clauses with an empty body, so ``apply``
always re-derives the database.  The operator is monotonic and continuous
(Lemmas 2 and 3); tests exercise both properties directly through this
class.  The fixpoint drivers in :mod:`repro.engine.fixpoint` use an
accumulating variant for efficiency, which computes the same least fixpoint.
"""

from __future__ import annotations

from typing import List, Optional

from repro.database.database import SequenceDatabase
from repro.engine.bindings import TransducerRegistry
from repro.engine.evaluation import ClauseEvaluator
from repro.engine.interpretation import Interpretation
from repro.language.clauses import Program


class TOperator:
    """The immediate-consequence operator of a program and a database."""

    def __init__(
        self,
        program: Program,
        database: SequenceDatabase,
        transducers: Optional[TransducerRegistry] = None,
    ):
        self.program = program
        self.database = database
        self.transducers = transducers
        self._evaluators: List[ClauseEvaluator] = [
            ClauseEvaluator(clause, transducers) for clause in program
        ]
        self._database_facts = [
            (atom.predicate, tuple(arg.value for arg in atom.args))  # type: ignore[attr-defined]
            for atom in database.facts()
        ]

    def apply(self, interpretation: Interpretation) -> Interpretation:
        """One application of ``T_{P,db}`` starting from ``interpretation``.

        The result is a *fresh* interpretation: facts of the argument that
        are not re-derivable in one step are not carried over (this matters
        for the model-theory tests, which check ``T(I) ⊆ I`` for models).
        """
        result = Interpretation()
        # Database atoms are bodyless clauses: they are always derived.
        for fact in self._database_facts:
            result.add_fact(fact)
        for evaluator in self._evaluators:
            for fact in evaluator.derive(interpretation):
                result.add_fact(fact)
        return result

    def apply_accumulating(self, interpretation: Interpretation) -> Interpretation:
        """Derive new facts and return them as a delta interpretation.

        The argument interpretation is mutated: new facts are added to it.
        """
        new_delta = Interpretation()
        for fact in self._database_facts:
            if interpretation.add_fact(fact):
                new_delta.add_fact(fact)
        for evaluator in self._evaluators:
            derived = list(evaluator.derive(interpretation))
            for fact in derived:
                if interpretation.add_fact(fact):
                    new_delta.add_fact(fact)
        return new_delta

    def is_fixpoint(self, interpretation: Interpretation) -> bool:
        """True if ``T(I) ⊆ I`` (i.e. ``I`` is a model, Lemma 4)."""
        image = self.apply(interpretation)
        return all(interpretation.contains_fact(fact) for fact in image.facts())
