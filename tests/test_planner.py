"""Tests for the compiled-plan layer: clause plans, scheduling, execution."""

import sys
from dataclasses import replace

import pytest

from repro.core import paper_programs
from repro.database import SequenceDatabase
from repro.engine.fixpoint import (
    COMPILED,
    DEFAULT_STRATEGY,
    NAIVE,
    compute_least_fixpoint,
)
from repro.engine.kernels import batch_classification
from repro.engine.plan import AtomScan, BindEquality, CompareFilter, EnumerateComparison
from repro.engine.planner import PlanExecutor, compile_clause, compile_program
from repro.language.parser import parse_clause, parse_program
from repro.sequences import ExtendedDomain


class TestClauseCompilation:
    def test_join_order_puts_bound_scans_after_binders(self):
        plan = compile_clause(parse_clause("p(X, Y) :- q(X), r(X, Y)."))
        kinds = [type(step) for step in plan.steps]
        assert kinds == [AtomScan, AtomScan]
        first, second = plan.steps
        # q(X) binds X, so the r scan can use an index on column 0.
        assert first.atom.predicate == "q"
        assert second.atom.predicate == "r"
        assert second.bound_columns == (0,)

    def test_most_bound_atom_is_scanned_first(self):
        plan = compile_clause(parse_clause('p(X) :- q(X, Y), r("a", X).'))
        # r has one constant argument (score 1) versus q's zero bound args.
        assert plan.steps[0].atom.predicate == "r"
        assert plan.steps[0].bound_columns == (0,)
        assert plan.steps[1].atom.predicate == "q"
        # X is bound by the r scan, so the q scan indexes on column 0.
        assert plan.steps[1].bound_columns == (0,)

    def test_equality_binder_is_compiled_to_bind_step(self):
        plan = compile_clause(parse_clause("p(Y) :- q(X), Y = X[1:2]."))
        kinds = [type(step) for step in plan.steps]
        assert kinds == [AtomScan, BindEquality]
        bind = plan.steps[1]
        assert bind.variable == "Y"

    def test_bound_comparison_is_a_filter(self):
        plan = compile_clause(parse_clause("p(X) :- q(X), X != \"aa\"."))
        kinds = [type(step) for step in plan.steps]
        assert kinds == [AtomScan, CompareFilter]

    def test_unbindable_comparison_falls_back_to_enumeration(self):
        plan = compile_clause(parse_clause('p(X) :- X = X, q("a").'))
        kinds = {type(step) for step in plan.steps}
        assert EnumerateComparison in kinds

    def test_head_enumeration_is_detected(self):
        plan = compile_clause(parse_clause("p(X, Y) :- q(X)."))
        assert plan.head_plan.unbound_sequence_vars == ("Y",)
        plan = compile_clause(parse_clause("p(X[1:N]) :- q(X)."))
        assert plan.head_plan.unbound_index_vars == ("N",)
        plan = compile_clause(parse_clause("p(X) :- q(X)."))
        assert not plan.head_plan.needs_enumeration

    def test_delta_safety_matches_the_clause_classification(self):
        assert compile_clause(parse_clause("p(X) :- q(X), r(X).")).delta_safe
        assert not compile_clause(parse_clause("p(X) :- q(X[1:2]).")).delta_safe
        assert not compile_clause(parse_clause("p(X[1:N]) :- q(X).")).delta_safe
        assert not compile_clause(parse_clause("p(X, X) :- true.")).delta_safe

    def test_explain_mentions_every_step(self):
        plan = compile_clause(parse_clause("p(X, Y) :- q(X), r(X, Y)."))
        report = plan.explain()
        assert "scan q(X)" in report
        assert "index scan on columns [0]" in report
        assert "emit p(X, Y)" in report


class TestDeltaFirstOrders:
    """Each body atom of a delta-safe plan gets an order that scans it first."""

    REACH = "reach(X, Z) :- reach(X, Y), link(Y, Z)."
    # The reverse complement by structural recursion (repro.genome.programs).
    RC = "rc(X[1:N+1], C ++ Y) :- dnaseq(X), rc(X[1:N], Y), basecomp(X[N+1], C)."

    def test_delta_atom_is_scanned_first_and_the_rest_probed(self):
        plan = compile_clause(parse_clause(self.REACH))
        first, second = plan.delta_order(1)
        assert (first.atom.predicate, first.atom_position) == ("link", 1)
        assert first.bound_columns == ()
        # Y comes from the delta row: reach is probed on column 1.
        assert (second.atom.predicate, second.atom_position) == ("reach", 0)
        assert second.bound_columns == (1,)
        # The base order already starts with reach, so position 0 shares it.
        assert plan.delta_order(0) == plan.steps
        assert plan.steps[0].atom.predicate == "reach"

    def test_pinning_an_unbound_indexed_base_keeps_the_base_order(self):
        # Pinning rc(X[1:N], Y) or basecomp(X[N+1], C) first would leave X
        # unbound under an indexed term, so matching would enumerate the
        # domain; the base order binds X through dnaseq(X) first.
        plan = compile_clause(parse_clause(self.RC))
        assert plan.delta_safe and not plan.domain_sensitive
        assert plan.steps[0].atom.predicate == "dnaseq"
        assert plan.delta_order(1) == plan.steps
        assert plan.delta_order(2) == plan.steps

    def test_plans_without_delta_firings_have_no_variants(self):
        # Not delta-safe (N occurs only in the head): it always fires in full.
        assert compile_clause(parse_clause("p(X[1:N]) :- q(X), r(X).")).delta_steps == ()
        assert compile_clause(parse_clause("p(X) :- q(X).")).delta_steps == ()

    def test_variants_of_a_batchable_plan_stay_batchable(self):
        plan = compile_clause(parse_clause('t(X, Z) :- e(X, Y), t(Y, Z), Z != "a".'))
        for position in range(plan.atom_count):
            variant = replace(plan, steps=plan.delta_order(position))
            assert batch_classification(variant) == (True, None)
        assert plan.delta_order(1)[0].atom.predicate == "t"

    def test_explain_lists_only_the_orders_that_differ(self):
        report = compile_clause(parse_clause(self.REACH)).explain()
        assert "delta-first order for body atom 2, link(Y, Z):" in report
        assert "1. scan link(Y, Z) (delta window)" in report
        assert "2. scan reach(X, Y) (index scan on columns [1])" in report
        assert "body atom 1" not in report
        assert "delta-first" not in compile_clause(parse_clause(self.RC)).explain()


class TestProgramCompilation:
    def test_strata_are_bottom_up(self):
        program = parse_program(
            """
            a(X) :- base(X).
            b(X) :- a(X).
            c(X) :- b(X), c(X).
            """
        )
        program_plan = compile_program(program)
        order = [stratum for stratum in program_plan.strata]
        assert order.index(("base",)) < order.index(("a",))
        assert order.index(("a",)) < order.index(("b",))
        assert order.index(("b",)) < order.index(("c",))

    def test_recursive_strata_are_flagged(self):
        program = parse_program(
            """
            a(X) :- base(X).
            c(X) :- base(X).
            c(X[2:end]) :- c(X).
            """
        )
        program_plan = compile_program(program)
        flags = dict(zip(program_plan.strata, program_plan.recursive))
        assert flags[("c",)] is True
        assert flags[("a",)] is False
        assert flags[("base",)] is False

    def test_program_explain_lists_strata_and_clauses(self):
        program_plan = compile_program(paper_programs.suffixes_program())
        report = program_plan.explain()
        assert "stratum 1" in report
        assert "clause:" in report


class TestPlanExecution:
    def test_executor_matches_naive_reference_per_clause(self, small_string_db):
        program = paper_programs.suffixes_program()
        naive = compute_least_fixpoint(
            program, small_string_db, strategy=NAIVE
        ).interpretation
        plan = compile_clause(program.clauses[0])
        executor = PlanExecutor(plan)
        derived = set(executor.derive(naive))
        # Every derived fact must already be in the fixpoint (closure).
        for predicate, values in derived:
            assert naive.contains(predicate, values)

    @pytest.mark.parametrize(
        "source, data",
        [
            (paper_programs.EXAMPLE_1_1_SUFFIXES, {"r": ["abc", "ab"]}),
            (paper_programs.EXAMPLE_1_2_CONCATENATIONS, {"r": ["a", "bc"]}),
            (paper_programs.EXAMPLE_1_3_ANBNCN, {"r": ["abc", "ab", "aabbcc"]}),
            (paper_programs.EXAMPLE_1_4_REVERSE, {"r": ["101", "11"]}),
            (paper_programs.EXAMPLE_1_5_REP1, {"r": ["abab"]}),
            (paper_programs.EXAMPLE_5_1_STRATIFIED, {"r": ["ab"]}),
            (paper_programs.EXAMPLE_7_2_TRANSCRIBE_SIMULATION, {"dnaseq": ["acgt"]}),
        ],
    )
    def test_compiled_fixpoint_equals_naive_on_paper_programs(self, source, data):
        program = parse_program(source)
        database = SequenceDatabase.from_dict(data)
        naive = compute_least_fixpoint(program, database, strategy=NAIVE)
        compiled = compute_least_fixpoint(program, database, strategy=COMPILED)
        assert naive.interpretation == compiled.interpretation

    def test_compiled_fixpoint_equals_naive_on_transducer_programs(self):
        """Example 7.1 and Figure 3's P1: the paper programs with transducer
        terms whose fixpoints are finite (P2/P3 have infinite fixpoints by
        construction, so there is no fixpoint to compare)."""
        genome_program, genome_catalog = paper_programs.genome_program()
        p1, _, _ = paper_programs.figure_3_programs()
        cases = [
            (genome_program, genome_catalog, {"dnaseq": ["acgt", "tt"]}),
            (p1, paper_programs.figure_3_catalog(), {"a": [("ab", "b")]}),
        ]
        for program, catalog, data in cases:
            database = SequenceDatabase.from_dict(data)
            transducers = catalog.callables()
            naive = compute_least_fixpoint(
                program, database, strategy=NAIVE, transducers=transducers
            )
            compiled = compute_least_fixpoint(
                program, database, strategy=COMPILED, transducers=transducers
            )
            assert naive.interpretation == compiled.interpretation

    def test_index_only_enumeration_leaves_the_domain_sequences_alone(
        self, monkeypatch
    ):
        """An enumeration over index variables only (EcoRI site search
        enumerates ``N``) must not copy the domain's sequence set, whose
        size grows with the model, on every firing."""
        program = parse_program(
            'site_at(R, R[N:end]) :- dnaseq(R), R[N:N+5] = "gaattc".'
        )
        plan = compile_clause(program.clauses[0])
        assert any(isinstance(step, EnumerateComparison) for step in plan.steps)
        database = SequenceDatabase.from_dict(
            {"dnaseq": ["ccgaattcaagaattcg", "gaattc", "acgt"]}
        )
        naive = compute_least_fixpoint(program, database, strategy=NAIVE)
        callers = []
        original = ExtendedDomain.sequences

        def counting_sequences(self):
            callers.append(sys._getframe(1).f_code.co_name)
            return original(self)

        monkeypatch.setattr(ExtendedDomain, "sequences", counting_sequences)
        compiled = compute_least_fixpoint(program, database, strategy=COMPILED)
        assert callers.count("_run_enumerate") == 0
        assert compiled.interpretation == naive.interpretation
        assert len(compiled.interpretation.tuples("site_at")) == 3

    def test_compiled_is_the_default_strategy(self, small_string_db):
        assert DEFAULT_STRATEGY == COMPILED
        result = compute_least_fixpoint(
            paper_programs.suffixes_program(), small_string_db
        )
        assert result.strategy == COMPILED
        assert result.iterations >= 2
        assert result.new_facts_per_iteration[-1] == 0
