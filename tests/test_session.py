"""Tests for the incremental query-serving session layer."""

import pytest

from repro import DatalogSession, SequenceDatabase, SequenceDatalogEngine
from repro.core import paper_programs
from repro.engine import compute_least_fixpoint
from repro.engine.limits import EvaluationLimits
from repro.engine.plan import AtomScan
from repro.engine.planner import PlanExecutor
from repro.errors import (
    EvaluationError,
    FixpointNotReached,
    SessionPoisonedError,
    UnknownPredicateError,
    ValidationError,
)
from repro.sequences import Sequence


@pytest.fixture
def intern_table_guard():
    """Snapshot and restore the process-wide intern table around a test.

    Tests exercising ``Sequence._reset_intern_table_for_tests`` would
    otherwise leave later tests joining over stale intern ids.
    """
    saved_table = dict(Sequence._intern_table)
    saved_by_id = list(Sequence._by_id)
    saved_symbols = Sequence._total_symbols
    yield
    with Sequence._lock:
        Sequence._intern_table.clear()
        Sequence._intern_table.update(saved_table)
        Sequence._by_id.clear()
        Sequence._by_id.extend(saved_by_id)
        for position, sequence in enumerate(saved_by_id):
            sequence._id = position
        Sequence._total_symbols = saved_symbols


class TestSessionBasics:
    def test_initial_fixpoint_matches_batch_evaluation(self, small_string_db):
        session = DatalogSession(paper_programs.suffixes_program(), small_string_db)
        batch = compute_least_fixpoint(paper_programs.suffixes_program(), small_string_db)
        assert session.interpretation == batch.interpretation

    def test_empty_database_still_derives_program_facts(self):
        session = DatalogSession(paper_programs.transcribe_simulation_program())
        assert len(session.query("trans(X, Y)")) == 4

    def test_accepts_mapping_databases(self):
        session = DatalogSession("p(X) :- r(X).", {"r": ["ab"]})
        assert session.query("p(X)").texts() == [("ab",)]

    def test_facade_opens_sessions(self, small_string_db):
        engine = SequenceDatalogEngine(paper_programs.EXAMPLE_1_1_SUFFIXES)
        session = engine.session(small_string_db)
        assert session.query("suffix(X)").texts() == engine.run(
            small_string_db, "suffix(X)"
        ).texts()

    def test_repr_mentions_size(self, small_string_db):
        session = DatalogSession(paper_programs.suffixes_program(), small_string_db)
        assert "facts" in repr(session)


class TestIncrementalMaintenance:
    def test_add_facts_matches_from_scratch(self):
        program = paper_programs.suffixes_program()
        session = DatalogSession(program, {"r": ["abc"]})
        report = session.add_facts({"r": ["de", "f"]})
        assert report.base_facts_added == 2
        assert report.facts_added >= 2
        scratch = compute_least_fixpoint(
            program, SequenceDatabase.from_dict({"r": ["abc", "de", "f"]})
        )
        assert session.interpretation == scratch.interpretation

    def test_add_facts_accepts_pairs_databases_and_single_fact(self):
        session = DatalogSession("p(X, Y) :- r(X), r(Y).", {"r": ["a"]})
        session.add_facts([("r", ("b",))])
        session.add_facts(SequenceDatabase.from_dict({"r": ["c"]}))
        session.add_fact("r", "d")
        assert len(session.query("p(X, Y)")) == 16

    def test_duplicate_facts_are_not_counted(self):
        session = DatalogSession(paper_programs.suffixes_program(), {"r": ["ab"]})
        report = session.add_facts({"r": ["ab"]})
        assert report.base_facts_added == 0
        assert report.facts_added == 0

    def test_incremental_recursion_through_multiple_updates(self):
        # transcribe is recursive: each new strand must extend the
        # transcription chain from scratch *for that strand only*.
        program = paper_programs.transcribe_simulation_program()
        strands = ["acgt", "ttag", "cg"]
        session = DatalogSession(program, {"dnaseq": strands[:1]})
        for strand in strands[1:]:
            session.add_facts({"dnaseq": [strand]})
        scratch = compute_least_fixpoint(
            program, SequenceDatabase.from_dict({"dnaseq": strands})
        )
        assert session.interpretation == scratch.interpretation
        assert session.query("rnaseq(D, R)").texts() == [
            ("acgt", "ugca"), ("cg", "gc"), ("ttag", "aauc"),
        ]

    def test_new_predicate_arrives_through_add_facts(self):
        session = DatalogSession("both(X) :- r(X), s(X).", {"r": ["a", "b"]})
        assert session.query("both(X)").is_empty()
        session.add_facts({"s": ["b"]})
        assert session.query("both(X)").texts() == [("b",)]

    def test_limits_apply_per_maintenance_run(self):
        # rep2 has an infinite fixpoint: every maintenance run must trip the
        # limit rather than loop forever.
        limits = EvaluationLimits(max_iterations=10, max_sequence_length=50)
        with pytest.raises(FixpointNotReached):
            DatalogSession(paper_programs.rep2_program(), {"r": ["ab"]}, limits=limits)

    def test_malformed_fact_containers_are_rejected_before_insertion(self):
        session = DatalogSession("p(X) :- r(X).", {"r": ["a"]})
        with pytest.raises(ValidationError):
            session.add_facts([("r", ("b",)), 42])
        # The malformed entry aborted the call before any insertion.
        assert session.query("p(X)").texts() == [("a",)]

    def test_bare_string_rows_and_scalar_values_are_rejected(self):
        session = DatalogSession("p(X) :- r(X).", {"r": ["a"]})
        with pytest.raises(ValidationError):
            # Would otherwise explode into one fact per character.
            session.add_facts({"r": "abc"})
        with pytest.raises(ValidationError):
            session.add_facts({"r": [5]})
        with pytest.raises(ValidationError):
            session.add_facts([("r", 5)])
        assert session.query("r(X)").texts() == [("a",)]

    def test_failed_batch_still_restores_the_fixpoint_invariant(self):
        session = DatalogSession("p(X) :- r(X).", {"r": ["a"]})
        with pytest.raises(ValidationError):
            # 'b' is accepted, then the arity clash on q/2-vs-q/1 aborts.
            session.add_facts([("r", ("b",)), ("q", ("x", "y")), ("q", ("z",))])
        # Whatever was accepted must be fully derived: still a fixpoint.
        assert session.query("p(X)").texts() == [("a",), ("b",)]

    def test_executor_failure_poisons_session(self, monkeypatch):
        """An error raised inside a firing, not only a resource limit,
        poisons the session: the run stopped short of the fixpoint."""
        session = DatalogSession(
            "reach(X, Y) :- edge(X, Y).\n"
            "reach(X, Z) :- reach(X, Y), edge(Y, Z).",
            {"edge": [("a", "b"), ("b", "c")]},
        )

        def failing_firing(self, interpretation, delta_views):
            raise EvaluationError("executor failed mid-firing")

        # Maintenance fires the delta-safe plans delta-restricted.
        monkeypatch.setattr(PlanExecutor, "derive_semi_naive", failing_firing)
        with pytest.raises(EvaluationError, match="mid-firing"):
            session.add_facts({"edge": [("c", "d")]})
        assert session.poisoned
        with pytest.raises(SessionPoisonedError):
            session.query("reach(X, Y)")


class TestPreparedQueries:
    def test_constant_bound_queries_use_the_index(self):
        session = DatalogSession(paper_programs.suffixes_program(), {"r": ["abcd"]})
        prepared = session.prepare('suffix("bcd")')
        scans = [step for step in prepared.plan.steps if isinstance(step, AtomScan)]
        assert scans and scans[0].bound_columns == (0,)
        assert len(prepared.run(session.interpretation)) == 1

    def test_lru_cache_hits_and_eviction(self):
        session = DatalogSession(
            paper_programs.suffixes_program(), {"r": ["ab"]}, prepared_cache_size=2
        )
        session.query("suffix(X)")
        session.query("suffix(X)")
        stats = session.stats()["prepared_cache"]
        assert stats["hits"] == 1 and stats["misses"] == 1
        session.query("r(X)")
        session.query('suffix("b")')  # evicts suffix(X)
        session.query("suffix(X)")  # cold again: a fourth miss
        stats = session.stats()["prepared_cache"]
        assert stats["size"] == 2
        assert stats["misses"] == 4 and stats["hits"] == 1

    def test_query_results_track_updates(self):
        session = DatalogSession(paper_programs.suffixes_program(), {"r": ["ab"]})
        assert session.query('suffix("z")').is_empty()
        session.add_facts({"r": ["az"]})
        assert not session.query('suffix("z")').is_empty()

    def test_strict_distinguishes_empty_from_unknown(self):
        session = DatalogSession("both(X) :- r(X), s(X).", {"r": ["a"]})
        # `both` derived nothing (s is empty) but the program defines it.
        assert session.query("both(X)", strict=True).is_empty()
        # `s` has no facts yet but appears in the program body.
        assert session.query("s(X)", strict=True).is_empty()
        with pytest.raises(UnknownPredicateError):
            session.query("bothh(X)", strict=True)

    def test_stats_expose_model_and_intern_growth(self):
        session = DatalogSession(paper_programs.suffixes_program(), {"r": ["ab"]})
        stats = session.stats()
        assert stats["facts"] == session.fact_count()
        assert stats["intern_table"]["size"] >= stats["model_size"]
        before = stats["intern_table"]
        session.add_facts({"r": ["zzzz"]})
        after = session.stats()["intern_table"]
        assert after["size"] > before["size"]
        assert after["total_symbols"] > before["total_symbols"]


class TestSessionInternTableReset:
    def test_reset_hook_shrinks_the_table(self, intern_table_guard):
        Sequence("only-here-to-populate")
        previous = Sequence._reset_intern_table_for_tests()
        assert previous > 1
        assert Sequence.intern_table_size() == 1  # just EMPTY
        assert Sequence("").intern_id == 0
        # A session built entirely after the reset is self-consistent.
        session = DatalogSession(paper_programs.suffixes_program(), {"r": ["ab"]})
        assert session.query("suffix(X)").values("X") == ["", "ab", "b"]
        assert Sequence.intern_stats()["size"] == Sequence.intern_table_size()
