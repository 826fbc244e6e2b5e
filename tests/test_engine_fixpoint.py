"""Tests for the fixpoint engine on the paper's Section 1 examples."""

import pytest

from repro.core import paper_programs
from repro.database import SequenceDatabase
from repro.engine import compute_least_fixpoint, evaluate_query
from repro.engine.fixpoint import COMPILED, NAIVE
from repro.engine.planner import clause_is_delta_safe
from repro.errors import EvaluationError
from repro.language.parser import parse_clause, parse_program


class TestExample11Suffixes:
    def test_all_suffixes_are_derived(self, small_string_db):
        result = compute_least_fixpoint(paper_programs.suffixes_program(), small_string_db)
        suffixes = evaluate_query(result.interpretation, "suffix(X)").values("X")
        assert set(suffixes) == {"", "abc", "bc", "c", "ab", "b"}

    def test_non_suffixes_are_not_derived(self, small_string_db):
        result = compute_least_fixpoint(paper_programs.suffixes_program(), small_string_db)
        assert not result.interpretation.contains("suffix", ["a"])


class TestExample12Concatenations:
    def test_pairwise_concatenations(self):
        db = SequenceDatabase.from_dict({"r": ["a", "bc"]})
        result = compute_least_fixpoint(paper_programs.concatenations_program(), db)
        answers = evaluate_query(result.interpretation, "answer(X)").values("X")
        assert set(answers) == {"aa", "abc", "bca", "bcbc"}

    def test_new_sequences_enter_the_extended_domain(self):
        db = SequenceDatabase.from_dict({"r": ["a", "bc"]})
        result = compute_least_fixpoint(paper_programs.concatenations_program(), db)
        assert "bcbc" in {s.text for s in result.interpretation.domain.sequences()}


class TestExample13AnBnCn:
    def test_accepts_exactly_the_language(self):
        db = SequenceDatabase.from_dict(
            {"r": ["", "abc", "aabbcc", "aabbc", "abcabc", "cba", "aaabbbccc"]}
        )
        result = compute_least_fixpoint(paper_programs.anbncn_program(), db)
        answers = set(evaluate_query(result.interpretation, "answer(X)").values("X"))
        assert answers == {"", "abc", "aabbcc", "aaabbbccc"}


class TestExample14Reverse:
    def test_reverses_every_sequence(self, binary_db):
        result = compute_least_fixpoint(paper_programs.reverse_program(), binary_db)
        answers = set(evaluate_query(result.interpretation, "answer(Y)").values("Y"))
        assert answers == {"011", "10", "1"}

    def test_paper_example_110000(self):
        db = SequenceDatabase.from_dict({"r": ["110000"]})
        result = compute_least_fixpoint(paper_programs.reverse_program(), db)
        assert set(evaluate_query(result.interpretation, "answer(Y)").values("Y")) == {
            "000011"
        }


class TestExample15Repeats:
    def test_rep1_recognises_repeats_structurally(self):
        db = SequenceDatabase.from_dict({"r": ["abcabcabc"]})
        result = compute_least_fixpoint(paper_programs.rep1_program(), db)
        pairs = evaluate_query(result.interpretation, "rep1(X, Y)")
        repeats_of_target = {
            y for x, y in pairs.texts() if x == "abcabcabc"
        }
        assert repeats_of_target == {"abc", "abcabcabc"}

    def test_rep1_does_not_create_new_sequences(self):
        db = SequenceDatabase.from_dict({"r": ["abab"]})
        result = compute_least_fixpoint(paper_programs.rep1_program(), db)
        assert result.interpretation.domain.sequences() == db.extended_active_domain().sequences()


class TestStrategies:
    @pytest.mark.parametrize(
        "program_source, data",
        [
            (paper_programs.EXAMPLE_1_1_SUFFIXES, {"r": ["abc", "ab"]}),
            (paper_programs.EXAMPLE_1_2_CONCATENATIONS, {"r": ["a", "bc"]}),
            (paper_programs.EXAMPLE_1_3_ANBNCN, {"r": ["abc", "ab", "aabbcc"]}),
            (paper_programs.EXAMPLE_1_4_REVERSE, {"r": ["101", "11"]}),
            (paper_programs.EXAMPLE_1_5_REP1, {"r": ["abab"]}),
            (paper_programs.EXAMPLE_7_2_TRANSCRIBE_SIMULATION, {"dnaseq": ["acgt"]}),
        ],
    )
    def test_naive_and_semi_naive_agree(self, program_source, data):
        """The compiled engine evaluates semi-naively (predicate-level delta
        restriction); it must reach the naive oracle's fixpoint."""
        program = parse_program(program_source)
        db = SequenceDatabase.from_dict(data)
        naive = compute_least_fixpoint(program, db, strategy=NAIVE)
        compiled = compute_least_fixpoint(program, db, strategy=COMPILED)
        assert naive.interpretation == compiled.interpretation

    def test_unknown_strategy_rejected(self, small_string_db):
        with pytest.raises(EvaluationError):
            compute_least_fixpoint(
                paper_programs.suffixes_program(), small_string_db, strategy="magic"
            )

    def test_delta_safety_classification(self):
        assert clause_is_delta_safe(parse_clause("p(X) :- q(X), r(X)."))
        # Unguarded variable (X only occurs inside an indexed term).
        assert not clause_is_delta_safe(parse_clause("p(X) :- q(X[1:2])."))
        # Head-only index variable ranges over the growing integer domain.
        assert not clause_is_delta_safe(parse_clause("p(X[1:N]) :- q(X)."))
        # Empty body.
        assert not clause_is_delta_safe(parse_clause("p(X, X) :- true."))


class TestFixpointResultMetadata:
    def test_iteration_counts_and_history(self, small_string_db):
        result = compute_least_fixpoint(paper_programs.suffixes_program(), small_string_db)
        assert result.iterations >= 2
        assert result.new_facts_per_iteration[-1] == 0
        assert result.fact_count == len(list(result.interpretation.facts()))

    def test_model_size_matches_domain(self, small_string_db):
        result = compute_least_fixpoint(paper_programs.suffixes_program(), small_string_db)
        assert result.model_size == len(result.interpretation.domain)

    def test_database_facts_are_in_the_fixpoint(self, small_string_db):
        result = compute_least_fixpoint(paper_programs.suffixes_program(), small_string_db)
        assert result.interpretation.contains("r", ["abc"])
