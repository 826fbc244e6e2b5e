"""Tests for demand-driven (magic-set-style) query evaluation, plus
regression tests for the serving-path bugfixes that shipped with it:

* ``add_facts(["xy"])`` must raise instead of inserting the bogus ``x("y")``;
* a session whose maintenance run failed is poisoned and refuses queries
  (both at the API and through ``cli serve``);
* ``max_iterations = N`` permits exactly N evaluation rounds (the database
  load is round 1), consistently across all strategies;
* prepared-query cache keys are canonical (parse-then-canonical-str).
"""

import io

import pytest

from repro import DatalogSession, SequenceDatabase, SequenceDatalogEngine
from repro.cli import main
from repro.core import paper_programs
from repro.engine import compute_least_fixpoint, evaluate_query
from repro.engine.demand import adornment_of, compile_demand, demand_query
from repro.engine.fixpoint import COMPILED, NAIVE
from repro.engine.limits import EvaluationLimits
from repro.engine.plan import AtomScan
from repro.errors import (
    FixpointNotReached,
    SessionPoisonedError,
    ValidationError,
)
from repro.language.parser import parse_atom, parse_program

#: Two independent subsystems over disjoint base relations plus a shared
#: transcription pipeline: the natural shape for relevance restriction.
COMPOSED_PROGRAM = """
rnaseq(D, R) :- dnaseq(D), transcribe(D, R).
transcribe("", "") :- true.
transcribe(D[1:N+1], R ++ T) :- dnaseq(D), transcribe(D[1:N], R), trans(D[N+1], T).
trans("a", "u") :- true.
trans("t", "a") :- true.
trans("c", "g") :- true.
trans("g", "c") :- true.
suffix(X[N:end]) :- other(X).
doubled(X ++ X) :- other(X).
"""

COMPOSED_DB = {"dnaseq": ["acgt", "ttag", "cg"], "other": ["abcdef", "xyz"]}


def composed_full():
    return compute_least_fixpoint(
        parse_program(COMPOSED_PROGRAM), SequenceDatabase.from_dict(COMPOSED_DB)
    )


class TestAdornment:
    def test_bound_and_free_positions(self):
        assert adornment_of('rnaseq("acgt", R)') == "bf"
        assert adornment_of("rnaseq(D, R)") == "ff"
        assert adornment_of('p("a", X, "b")') == "bfb"
        assert adornment_of(parse_atom("p")) == ""

    def test_ground_indexed_terms_are_bound(self):
        assert adornment_of('p("abc"[1:2], X)') == "bf"
        # An index variable makes the position free.
        assert adornment_of('p("abc"[N], X)') == "ff"


class TestRelevanceRestriction:
    def test_relevant_predicates_follow_the_dependency_graph(self):
        compiled = compile_demand(COMPOSED_PROGRAM, "rnaseq(D, R)")
        assert compiled.profile.restricted
        assert compiled.profile.relevant == frozenset(
            {"rnaseq", "dnaseq", "transcribe", "trans"}
        )

    def test_slice_is_strictly_smaller_and_answers_identical(self):
        full = composed_full()
        for pattern in ("rnaseq(D, R)", "suffix(S)", "trans(X, Y)"):
            compiled = compile_demand(COMPOSED_PROGRAM, pattern)
            result = compiled.materialize(SequenceDatabase.from_dict(COMPOSED_DB))
            assert result.fact_count < full.fact_count
            assert sorted(compiled.query(result).texts()) == sorted(
                evaluate_query(full.interpretation, pattern).texts()
            )

    def test_irrelevant_base_facts_are_not_loaded(self):
        compiled = compile_demand(COMPOSED_PROGRAM, "suffix(S)")
        result = compiled.materialize(SequenceDatabase.from_dict(COMPOSED_DB))
        assert result.interpretation.relation("dnaseq") is None
        assert result.interpretation.relation("other") is not None

    def test_dependency_graph_relevance_helpers(self):
        from repro.analysis.dependency_graph import build_dependency_graph

        graph = build_dependency_graph(parse_program(COMPOSED_PROGRAM))
        assert graph.dependencies_of("rnaseq") == frozenset(
            {"rnaseq", "dnaseq", "transcribe", "trans"}
        )
        assert graph.dependencies_of("nosuch") == frozenset({"nosuch"})
        assert not graph.is_self_reachable("rnaseq")
        assert graph.is_self_reachable("transcribe")
        # A direct self-loop counts (nx.descendants alone would miss it).
        loop = build_dependency_graph(parse_program("q(X[2:end]) :- q(X)."))
        assert loop.is_self_reachable("q")

    def test_unknown_predicate_pattern_is_empty(self):
        answers = demand_query(
            COMPOSED_PROGRAM, SequenceDatabase.from_dict(COMPOSED_DB), "nosuch(X)"
        )
        assert answers.is_empty()


class TestConstantSeeding:
    def test_constants_are_pushed_into_defining_clauses(self):
        compiled = compile_demand(COMPOSED_PROGRAM, 'rnaseq("acgt", R)')
        assert compiled.profile.restricted
        assert compiled.profile.seeds == (("D", "acgt"),)
        # The seeded clause's scans use the pre-bound variable as an index
        # lookup column.
        seeded_plans = [
            plan
            for plan in compiled._program_plan.program_plans
            if plan.seed_sequences
        ]
        assert len(seeded_plans) == 1
        scans = [
            step for step in seeded_plans[0].steps if isinstance(step, AtomScan)
        ]
        assert scans and scans[0].bound_columns == (0,)

    def test_seeded_slice_restricts_the_queried_predicate(self):
        full = composed_full()
        compiled = compile_demand(COMPOSED_PROGRAM, 'rnaseq("acgt", R)')
        result = compiled.materialize(SequenceDatabase.from_dict(COMPOSED_DB))
        # Only the matching strand's rnaseq fact is derived.
        assert len(result.interpretation.tuples("rnaseq")) == 1
        assert result.fact_count < full.fact_count
        assert compiled.query(result).texts() == [("acgt", "ugca")]

    def test_contradicted_constant_heads_are_pruned(self):
        program = 'colour("red") :- true. colour("blue") :- true. colour(X) :- extra(X).'
        compiled = compile_demand(program, 'colour("red")')
        assert compiled.profile.pruned_clauses == 1
        answers = compiled.run(SequenceDatabase.from_dict({"extra": ["green"]}))
        assert answers.texts() == [("red",)]
        assert compiled.run(SequenceDatabase.from_dict({})).texts() == [("red",)]

    def test_recursive_query_predicate_is_not_seeded(self):
        program = "q(X) :- s(X). q(X[2:end]) :- q(X), r(X)."
        compiled = compile_demand(program, 'q("cd")')
        assert compiled.profile.restricted
        assert compiled.profile.seeds == ()
        db = SequenceDatabase.from_dict({"s": ["abcd"], "r": ["abcd", "bcd"]})
        full = compute_least_fixpoint(parse_program(program), db)
        assert sorted(compiled.run(db).texts()) == sorted(
            evaluate_query(full.interpretation, 'q("cd")').texts()
        )

    def test_unsatisfiable_ground_argument_short_circuits(self):
        compiled = compile_demand(COMPOSED_PROGRAM, 'suffix("abc"[9])')
        assert compiled.profile.unsatisfiable
        result = compiled.materialize(SequenceDatabase.from_dict(COMPOSED_DB))
        assert result.fact_count == 0
        assert compiled.query(result).is_empty()


class TestDomainSensitivityFallback:
    def test_head_enumeration_falls_back(self):
        # `pair(X, Y) :- r(X).` enumerates Y over the whole extended domain,
        # which a restricted model would shrink.
        program = "pair(X, Y) :- r(X). unrelated(Z) :- s(Z)."
        compiled = compile_demand(program, "pair(A, B)")
        assert not compiled.profile.restricted
        assert "extended domain" in compiled.profile.fallback_reason
        db = SequenceDatabase.from_dict({"r": ["ab"], "s": ["xy"]})
        full = compute_least_fixpoint(parse_program(program), db)
        # The fallback still answers exactly (here: Y ranges over domain
        # sequences contributed by the "irrelevant" relation s too).
        assert sorted(compiled.run(db).texts()) == sorted(
            evaluate_query(full.interpretation, "pair(A, B)").texts()
        )

    def test_domain_sensitive_pattern_falls_back(self):
        compiled = compile_demand(COMPOSED_PROGRAM, "suffix(X[N:end])")
        assert not compiled.profile.restricted
        full = composed_full()
        assert sorted(
            compiled.run(SequenceDatabase.from_dict(COMPOSED_DB)).texts()
        ) == sorted(
            evaluate_query(full.interpretation, "suffix(X[N:end])").texts()
        )

    def test_guarded_recursion_stays_restricted(self):
        compiled = compile_demand(COMPOSED_PROGRAM, "rnaseq(D, R)")
        assert compiled.profile.restricted

    def test_seeding_must_not_mask_head_enumeration_sensitivity(self):
        # X is enumerated over the whole domain; seeding X="zz" would make
        # the plan look insensitive and derive p("zz") although the full
        # fixpoint never contains it ("zz" is not a domain sequence).
        program = "p(X) :- q(Y)."
        compiled = compile_demand(program, 'p("zz")')
        assert not compiled.profile.restricted
        db = SequenceDatabase.from_dict({"q": ["a"]})
        assert compiled.run(db).is_empty()
        full = compute_least_fixpoint(parse_program(program), db)
        assert evaluate_query(full.interpretation, 'p("zz")').is_empty()

    def test_seeding_must_not_mask_constant_equality_sensitivity(self):
        # Unseeded, Y = "zz" binds Y under a domain-membership check that
        # fails; seeding Y would turn it into an always-true filter.
        program = 'p(Y) :- r(X), Y = "zz".'
        compiled = compile_demand(program, 'p("zz")')
        assert not compiled.profile.restricted
        db = SequenceDatabase.from_dict({"r": ["ab"]})
        full = compute_least_fixpoint(parse_program(program), db)
        assert sorted(compiled.run(db).texts()) == sorted(
            evaluate_query(full.interpretation, 'p("zz")').texts()
        )

    def test_strict_demand_query_knows_program_predicates_by_default(self):
        from repro.errors import UnknownPredicateError

        program = "p(X) :- q(X), r(X)."
        db = SequenceDatabase.from_dict({"q": ["a"]})
        # p is defined but derived nothing (r is empty): empty, not an error.
        assert demand_query(program, db, "p(X)", strict=True).is_empty()
        # r never appears as a fact but the program names it.
        assert demand_query(program, db, "r(X)", strict=True).is_empty()
        with pytest.raises(UnknownPredicateError):
            demand_query(program, db, "pp(X)", strict=True)


class TestEngineApiSurface:
    def test_query_demand_takes_the_database(self):
        engine = SequenceDatalogEngine(COMPOSED_PROGRAM)
        answers = engine.query(COMPOSED_DB, 'rnaseq("acgt", R)', demand=True)
        assert answers.texts() == [("acgt", "ugca")]

    def test_query_demand_rejects_computed_fixpoints(self):
        engine = SequenceDatalogEngine(COMPOSED_PROGRAM)
        result = engine.evaluate(COMPOSED_DB)
        with pytest.raises(ValidationError):
            engine.query(result, "rnaseq(D, R)", demand=True)

    def test_run_demand_matches_run(self):
        engine = SequenceDatalogEngine(COMPOSED_PROGRAM)
        assert sorted(engine.run(COMPOSED_DB, "suffix(S)", demand=True).texts()) == sorted(
            engine.run(COMPOSED_DB, "suffix(S)").texts()
        )

    def test_strict_demand_distinguishes_unknown_predicates(self):
        from repro.errors import UnknownPredicateError

        engine = SequenceDatalogEngine(COMPOSED_PROGRAM)
        # Known but empty: the program defines it, the slice derived nothing.
        assert engine.query(
            {"other": []}, "suffix(S)", strict=True, demand=True
        ).is_empty()
        with pytest.raises(UnknownPredicateError):
            engine.query(COMPOSED_DB, "sufix(S)", strict=True, demand=True)


class TestSessionDemandMode:
    def test_lazy_session_never_materializes_for_demand_queries(self):
        session = DatalogSession(COMPOSED_PROGRAM, COMPOSED_DB, lazy=True)
        assert session.query('rnaseq("acgt", R)', demand=True).texts() == [
            ("acgt", "ugca")
        ]
        assert not session.stats()["materialized"]

    def test_slices_are_cached_and_invalidated_by_add_facts(self):
        session = DatalogSession(COMPOSED_PROGRAM, COMPOSED_DB, lazy=True)
        session.query("rnaseq(D, R)", demand=True)
        session.query("rnaseq(D, R)", demand=True)
        stats = session.stats()["demand_cache"]
        assert stats["hits"] == 1 and stats["misses"] == 1
        session.add_facts({"dnaseq": ["gg"]})
        assert session.stats()["demand_cache"]["live_slices"] == 0
        answers = session.query("rnaseq(D, R)", demand=True)
        assert ("gg", "cc") in [pair for pair in answers.texts()]
        assert session.stats()["demand_cache"]["misses"] == 2

    def test_irrelevant_additions_keep_cached_slices_alive(self):
        session = DatalogSession(COMPOSED_PROGRAM, COMPOSED_DB, lazy=True)
        session.query("rnaseq(D, R)", demand=True)
        assert session.stats()["demand_cache"]["live_slices"] == 1
        # "other" feeds only the suffix/doubled subsystem: the rnaseq slice
        # cannot observe it and must survive.
        session.add_facts({"other": ["zz"]})
        assert session.stats()["demand_cache"]["live_slices"] == 1
        session.query("rnaseq(D, R)", demand=True)
        assert session.stats()["demand_cache"]["hits"] == 1
        # A relevant addition still invalidates.
        session.add_facts({"dnaseq": ["gg"]})
        assert session.stats()["demand_cache"]["live_slices"] == 0

    def test_demand_answers_equal_resident_answers(self):
        session = DatalogSession(COMPOSED_PROGRAM, COMPOSED_DB)
        for pattern in ("rnaseq(D, R)", 'suffix("yz")', "doubled(X)"):
            assert sorted(session.query(pattern, demand=True).texts()) == sorted(
                session.query(pattern).texts()
            )

    def test_demand_cache_keys_are_canonical(self):
        session = DatalogSession(COMPOSED_PROGRAM, COMPOSED_DB, lazy=True)
        session.query("rnaseq( D , R )", demand=True)
        session.query("rnaseq(D, R)", demand=True)
        stats = session.stats()["demand_cache"]
        assert stats["size"] == 1 and stats["hits"] == 1

    def test_non_demand_query_on_lazy_session_materializes(self):
        session = DatalogSession(COMPOSED_PROGRAM, COMPOSED_DB, lazy=True)
        assert not session.stats()["materialized"]
        session.query("doubled(X)")
        assert session.stats()["materialized"]


# ----------------------------------------------------------------------
# Bugfix regressions
# ----------------------------------------------------------------------
class TestFactIngestionValidation:
    def test_string_entries_are_rejected_not_unpacked(self):
        session = DatalogSession("p(X) :- r(X).", {"r": ["a"]})
        with pytest.raises(ValidationError):
            # Length-2 strings used to unpack as ('x', 'y') -> fact x("y").
            session.add_facts(["xy"])
        assert session.query("x(V)").is_empty()
        assert session.query("p(X)").texts() == [("a",)]

    def test_non_pair_tuples_and_bad_predicates_are_rejected(self):
        session = DatalogSession("p(X) :- r(X).", {"r": ["a"]})
        with pytest.raises(ValidationError):
            session.add_facts([("r",)])
        with pytest.raises(ValidationError):
            session.add_facts([("r", "b", "extra")])
        with pytest.raises(ValidationError):
            session.add_facts([(5, ("b",))])
        assert session.fact_count() == 2  # r("a"), p("a") — nothing slipped in

    def test_generator_pairs_are_still_accepted(self):
        session = DatalogSession("p(X) :- r(X).", {"r": ["a"]})
        session.add_facts(("r", (value,)) for value in ["b", "c"])
        assert session.query("p(X)").values("X") == ["a", "b", "c"]


class TestSessionPoisoning:
    LIMITS = EvaluationLimits(max_iterations=5, max_sequence_length=16)

    def _poisoned_session(self):
        # rep2 over an empty database converges; the first added fact makes
        # the fixpoint infinite, so maintenance trips the limit.
        session = DatalogSession(
            paper_programs.rep2_program(), limits=self.LIMITS
        )
        with pytest.raises(FixpointNotReached):
            session.add_facts({"r": ["ab"]})
        return session

    def test_failed_maintenance_poisons_the_session(self):
        session = self._poisoned_session()
        assert session.poisoned
        with pytest.raises(SessionPoisonedError):
            session.query("rep2(X, Y)")
        with pytest.raises(SessionPoisonedError):
            session.query("rep2(X, Y)", demand=True)
        with pytest.raises(SessionPoisonedError):
            session.add_facts({"r": ["cd"]})
        with pytest.raises(SessionPoisonedError):
            session.output()
        assert session.stats()["poisoned"]  # stats still work

    def test_cli_serve_refuses_queries_after_failed_add(self, tmp_path):
        program = tmp_path / "rep2.sdl"
        program.write_text('rep2(X, X) :- true.\nrep2(X ++ Y, Y) :- rep2(X, Y).\n')
        script = tmp_path / "cmds.txt"
        script.write_text("add r ab\nquery rep2(X, Y)\nquery rep2(X, Y)\n")
        out = io.StringIO()
        code = main(
            [
                "serve",
                str(program),
                "--script",
                str(script),
                "--max-iterations",
                "4",
            ],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        # The failed add is reported (whichever resource limit tripped) ...
        assert text.count("error:") == 3
        # ... and both queries after it are refused, with the reason.
        assert text.count("partial fixpoint") >= 2
        assert "discard the session" in text
        assert "answers" not in text  # no query was ever answered


class TestIterationLimitOffByOne:
    @pytest.mark.parametrize("strategy", [NAIVE, COMPILED])
    def test_max_iterations_permits_exactly_that_many_rounds(self, strategy):
        program = paper_programs.suffixes_program()
        database = SequenceDatabase.from_dict({"r": ["abcd"]})
        free = compute_least_fixpoint(program, database, strategy=strategy)
        rounds = free.iterations
        assert rounds >= 2
        exact = compute_least_fixpoint(
            program,
            database,
            limits=EvaluationLimits(max_iterations=rounds),
            strategy=strategy,
        )
        assert exact.iterations == rounds
        assert exact.interpretation == free.interpretation
        with pytest.raises(FixpointNotReached):
            compute_least_fixpoint(
                program,
                database,
                limits=EvaluationLimits(max_iterations=rounds - 1),
                strategy=strategy,
            )

    def test_reported_iterations_never_exceed_the_limit(self):
        # An infinite-fixpoint program aborted by the iteration limit must
        # report at most max_iterations rounds.
        limits = EvaluationLimits(max_iterations=6, max_sequence_length=200)
        with pytest.raises(FixpointNotReached) as excinfo:
            compute_least_fixpoint(
                paper_programs.rep2_program(),
                SequenceDatabase.from_dict({"r": ["ab"]}),
                limits=limits,
            )
        assert excinfo.value.iterations <= limits.max_iterations + 1


class TestPreparedCacheNormalization:
    def test_equivalent_patterns_share_one_plan(self):
        session = DatalogSession(paper_programs.suffixes_program(), {"r": ["ab"]})
        first = session.prepare("suffix(X)")
        assert session.prepare("suffix( X )") is first
        assert session.prepare(parse_atom("suffix(X)")) is first
        stats = session.stats()["prepared_cache"]
        assert stats["size"] == 1
        assert stats["misses"] == 1 and stats["hits"] == 2
