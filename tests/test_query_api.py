"""Tests for the query layer and the high-level engine facade."""

import pytest

from repro import SequenceDatalogEngine, SequenceDatabase
from repro.core import paper_programs
from repro.engine import compute_least_fixpoint, evaluate_query
from repro.engine.fixpoint import STRATEGIES
from repro.engine.query import PreparedQuery, output_relation
from repro.errors import MultiValuedOutputError, UnknownPredicateError


class TestPatternQueries:
    @pytest.fixture
    def suffix_result(self, small_string_db):
        return compute_least_fixpoint(paper_programs.suffixes_program(), small_string_db)

    def test_unary_pattern(self, suffix_result):
        result = evaluate_query(suffix_result.interpretation, "suffix(X)")
        assert ("abc",) in result.texts()
        assert len(result) == len(result.texts())

    def test_ground_pattern(self, suffix_result):
        assert len(evaluate_query(suffix_result.interpretation, 'suffix("bc")')) == 1
        assert evaluate_query(suffix_result.interpretation, 'suffix("zz")').is_empty()

    def test_pattern_with_indexed_term(self, suffix_result):
        # Suffixes whose first symbol is "b".
        result = evaluate_query(suffix_result.interpretation, 'suffix(X[1:end])')
        assert ("abc",) in result.texts()

    def test_binary_pattern_with_repeated_variable(self):
        db = SequenceDatabase.from_dict({"r": ["abab", "ab"]})
        result = compute_least_fixpoint(paper_programs.rep1_program(), db)
        same = evaluate_query(result.interpretation, "rep1(X, X)")
        assert ("ab", "ab") in same.texts()
        assert all(x == y for x, y in same.texts())

    def test_unknown_predicate_behaviour(self, suffix_result):
        assert evaluate_query(suffix_result.interpretation, "nothing(X)").is_empty()
        with pytest.raises(UnknownPredicateError):
            evaluate_query(suffix_result.interpretation, "nothing(X)", strict=True)

    def test_strict_accepts_known_but_empty_predicates(self, suffix_result):
        # A predicate the program defines but that derived nothing must not
        # be confused with a typo.
        result = evaluate_query(
            suffix_result.interpretation,
            "empty(X)",
            strict=True,
            known_predicates={"empty", "suffix", "r"},
        )
        assert result.is_empty()
        with pytest.raises(UnknownPredicateError):
            evaluate_query(
                suffix_result.interpretation,
                "sufix(X)",  # typo: not in the known set
                strict=True,
                known_predicates={"empty", "suffix", "r"},
            )

    def test_engine_query_strict_uses_program_predicates(self, small_string_db):
        engine = SequenceDatalogEngine("both(X) :- r(X), never(X).")
        result = engine.evaluate(small_string_db)
        # `both` and `never` derived nothing but belong to the program.
        assert engine.query(result, "both(X)", strict=True).is_empty()
        assert engine.query(result, "never(X)", strict=True).is_empty()
        with pytest.raises(UnknownPredicateError):
            engine.query(result, "bot(X)", strict=True)

    def test_indexed_patterns_do_not_duplicate_rows(self, suffix_result):
        # Each suffix fact is matched by many (X, N) witnesses; the rows
        # must still appear exactly once.
        result = evaluate_query(suffix_result.interpretation, "suffix(X[N:end])")
        assert len(result) == len(set(result.rows))
        assert result.texts() == sorted(set(result.texts()))
        # Witness substitutions are all kept (there are more than rows here).
        assert len(result.substitutions) > len(result.rows)

    def test_prepared_query_matches_one_shot_evaluation(self, suffix_result):
        prepared = PreparedQuery("suffix(X)")
        once = prepared.run(suffix_result.interpretation)
        again = prepared.run(suffix_result.interpretation)
        assert once.texts() == again.texts()
        assert once.texts() == evaluate_query(
            suffix_result.interpretation, "suffix(X)"
        ).texts()

    def test_contains_is_cached_across_calls(self, suffix_result):
        result = evaluate_query(suffix_result.interpretation, "suffix(X)")
        assert "abc" in result
        cached = result._row_set
        assert cached is not None
        assert "bc" in result
        assert result._row_set is cached  # no per-call set rebuild
        result.rows.append((result.rows[0]))  # mutation invalidates the cache
        assert result.rows[-1] in result

    def test_values_accessor(self, suffix_result):
        values = evaluate_query(suffix_result.interpretation, "suffix(X)").values("X")
        assert values == sorted(set(values))

    def test_membership_helper(self, suffix_result):
        result = evaluate_query(suffix_result.interpretation, "suffix(X)")
        assert "abc" in result
        assert ("abc",) in result

    def test_output_relation_helper(self):
        engine = SequenceDatalogEngine("output(X[1:2]) :- input(X).")
        result = engine.evaluate(SequenceDatabase.single_input("abc"))
        assert output_relation(result.interpretation) == ["ab"]


class TestEngineFacade:
    def test_run_combines_evaluate_and_query(self):
        engine = SequenceDatalogEngine(paper_programs.EXAMPLE_1_1_SUFFIXES)
        result = engine.run({"r": ["ab"]}, "suffix(X)")
        assert result.values("X") == ["", "ab", "b"]

    def test_accepts_prebuilt_databases(self, small_string_db):
        engine = SequenceDatalogEngine(paper_programs.EXAMPLE_1_1_SUFFIXES)
        assert not engine.run(small_string_db, "suffix(X)").is_empty()

    def test_compute_function_definition_5(self):
        engine = SequenceDatalogEngine(
            """
            output(Y) :- input(X), reverse(X, Y).
            reverse("", "") :- true.
            reverse(X[1:N+1], X[N+1] ++ Y) :- input(X), reverse(X[1:N], Y).
            """
        )
        assert engine.compute_function("1100") == "0011"

    def test_compute_function_undefined_returns_none(self):
        engine = SequenceDatalogEngine("output(X) :- input(X), never(X).")
        assert engine.compute_function("ab") is None

    def test_compute_function_multi_valued_raises(self):
        # Definition 5: several derived outputs mean the program does not
        # express a function at this input — not "the smallest one wins".
        engine = SequenceDatalogEngine("output(X[N:end]) :- input(X).")
        with pytest.raises(MultiValuedOutputError) as excinfo:
            engine.compute_function("ab")
        assert "output" in str(excinfo.value)

    def test_compute_function_single_valued_still_works(self):
        engine = SequenceDatalogEngine("output(X[1:2]) :- input(X).")
        assert engine.compute_function("abc") == "ab"

    def test_safety_and_finiteness_accessors(self):
        engine = SequenceDatalogEngine(paper_programs.EXAMPLE_1_5_REP2)
        assert not engine.safety().strongly_safe
        assert not engine.finiteness().verdict.is_finite()

    def test_explain_renders_the_compiled_plan(self):
        engine = SequenceDatalogEngine(paper_programs.EXAMPLE_1_1_SUFFIXES)
        report = engine.explain()
        assert "stratum" in report
        assert "scan r(X)" in report

    def test_evaluate_accepts_every_strategy(self, small_string_db):
        engine = SequenceDatalogEngine(paper_programs.EXAMPLE_1_1_SUFFIXES)
        results = {
            strategy: engine.evaluate(small_string_db, strategy=strategy)
            for strategy in STRATEGIES
        }
        assert set(results) == {"naive", "compiled"}
        assert results["naive"].interpretation == results["compiled"].interpretation
