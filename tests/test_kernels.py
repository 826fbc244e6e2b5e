"""Unit tests for the batch kernel layer (:mod:`repro.engine.kernels`).

The randomized equivalence properties in ``tests/test_properties.py`` prove
the kernel path and the per-tuple path compute identical models; the tests
here pin down the edges those properties sweep past quickly: static
classification (every fallback reason), empty and mid-store delta windows,
repeated variables inside one atom, constants in atoms and heads, the
dedup contract of the head kernel, the execution counters and the
``explain`` annotation.
"""

import pytest

from repro.database import SequenceDatabase
from repro.database.relation import RelationDelta, SequenceRelation
from repro.engine import (
    CompiledFixpoint,
    Interpretation,
    PlanExecutor,
    batch_classification,
    batch_enabled,
    compile_clause,
    compute_least_fixpoint,
    kernel_stats,
    reset_kernel_stats,
    set_batch_enabled,
)
from repro.engine import kernels
from repro.engine.bindings import Substitution
from repro.engine.kernels import (
    REASON_ATOM_TERM,
    REASON_BIND_EQUALITY,
    REASON_COMPARE_TERM,
    REASON_DISABLED,
    REASON_ENUMERATION,
    REASON_HEAD_ENUMERATION,
    REASON_HEAD_TERM,
    REASON_NO_SCAN,
    REASON_SEED_MISMATCH,
)
from repro.language.parser import parse_clause, parse_program
from repro.sequences import Sequence


def plan_of(source: str, **kwargs):
    return compile_clause(parse_clause(source), **kwargs)


def interpretation_of(**relations) -> Interpretation:
    interpretation = Interpretation()
    for predicate, rows in relations.items():
        for row in rows:
            interpretation.add(predicate, row)
    return interpretation


def derived(executor, interpretation) -> set:
    return {
        (predicate, tuple(value.text for value in values))
        for predicate, values in executor.derive(interpretation)
    }


# ----------------------------------------------------------------------
# Classification
# ----------------------------------------------------------------------
class TestBatchClassification:
    @pytest.mark.parametrize(
        "source",
        [
            "p(X) :- r(X).",
            "p(X, Z) :- p(X, Y), e(Y, Z).",
            'p(Y) :- e("a", Y).',
            "s(X) :- e(X, X).",
            'q(X) :- p(X), X != "a".',
            'h("z", X) :- p(X).',
        ],
    )
    def test_join_pure_clauses_are_batchable(self, source):
        batchable, reason = batch_classification(plan_of(source))
        assert batchable and reason is None

    @pytest.mark.parametrize(
        "source, reason",
        [
            ("p(X) :- r(X[1:N]).", REASON_ATOM_TERM),
            ("p(X[1:2]) :- r(X).", REASON_HEAD_TERM),
            ("p(Y) :- r(X), Y = X[1:2].", REASON_BIND_EQUALITY),
            ("p(X) :- r(X), X[1:2] != X.", REASON_COMPARE_TERM),
            ('p("a") :- "b" = "b".', REASON_NO_SCAN),
            ("p(X, Y) :- r(X).", REASON_HEAD_ENUMERATION),
        ],
    )
    def test_fallback_reasons(self, source, reason):
        batchable, actual = batch_classification(plan_of(source))
        assert not batchable and actual == reason

    def test_enumerated_comparison_falls_back(self):
        plan = plan_of("p(X) :- r(X), X[N:N] = X[M:M].")
        batchable, reason = batch_classification(plan)
        assert not batchable
        assert reason in (REASON_ENUMERATION, REASON_COMPARE_TERM)

    def test_adornment_seeds_stay_batchable(self):
        plan = plan_of("p(X, Y) :- e(X, Y).", bound_sequences=["X"])
        assert plan.seed_sequences == ("X",)
        assert batch_classification(plan) == (True, None)


# ----------------------------------------------------------------------
# Executor routing
# ----------------------------------------------------------------------
class TestExecutorRouting:
    def test_batchable_plan_routes_to_kernels(self):
        executor = PlanExecutor(plan_of("p(X, Z) :- e(X, Y), e(Y, Z)."))
        assert executor.execution_mode == "batch"
        assert executor.fallback_reason is None

    def test_use_kernels_false_forces_tuple_path(self):
        executor = PlanExecutor(
            plan_of("p(X, Z) :- e(X, Y), e(Y, Z)."), use_kernels=False
        )
        assert executor.execution_mode == "tuple"
        assert executor.fallback_reason == REASON_DISABLED

    def test_process_default_toggle(self):
        plan = plan_of("p(X) :- r(X).")
        previous = set_batch_enabled(False)
        try:
            assert not batch_enabled()
            assert PlanExecutor(plan).execution_mode == "tuple"
            assert PlanExecutor(plan, use_kernels=True).execution_mode == "batch"
        finally:
            set_batch_enabled(previous)
        assert PlanExecutor(plan).execution_mode == "batch"

    def test_unbatchable_plan_reports_reason(self):
        executor = PlanExecutor(plan_of("p(X[1:2]) :- r(X)."), use_kernels=True)
        assert executor.execution_mode == "tuple"
        assert executor.fallback_reason == REASON_HEAD_TERM

    def test_foreign_seed_falls_back(self):
        # A seed binding a variable the plan's adornment does not name:
        # the batch compilation cannot honour it, the tuple matcher can.
        plan = plan_of("p(X, Y) :- e(X, Y).")
        seed = Substitution().bind_sequence("X", Sequence("a"))
        executor = PlanExecutor(plan, seed=seed, use_kernels=True)
        assert executor.execution_mode == "tuple"
        assert executor.fallback_reason == REASON_SEED_MISMATCH

    def test_matching_adornment_seed_runs_batched(self):
        plan = plan_of("p(X, Y) :- e(X, Y).", bound_sequences=["X"])
        seed = Substitution().bind_sequence("X", Sequence("a"))
        executor = PlanExecutor(plan, seed=seed, use_kernels=True)
        assert executor.execution_mode == "batch"
        interpretation = interpretation_of(e=[("a", "b"), ("c", "d")])
        assert derived(executor, interpretation) == {("p", ("a", "b"))}


# ----------------------------------------------------------------------
# Kernel execution edges
# ----------------------------------------------------------------------
class TestKernelExecution:
    def test_full_firing_matches_tuple_path(self):
        plan = plan_of("p(X, Z) :- e(X, Y), e(Y, Z).")
        interpretation = interpretation_of(
            e=[("a", "b"), ("b", "c"), ("c", "a"), ("b", "b")]
        )
        batch = derived(PlanExecutor(plan, use_kernels=True), interpretation)
        tuple_ = derived(PlanExecutor(plan, use_kernels=False), interpretation)
        assert batch == tuple_

    def test_repeated_variable_in_one_atom(self):
        plan = plan_of("s(X) :- e(X, X).")
        interpretation = interpretation_of(
            e=[("a", "a"), ("a", "b"), ("b", "b"), ("c", "a")]
        )
        assert derived(PlanExecutor(plan, use_kernels=True), interpretation) == {
            ("s", ("a",)),
            ("s", ("b",)),
        }

    def test_triple_repeated_variable(self):
        plan = plan_of("s(X) :- t(X, X, X).")
        interpretation = interpretation_of(
            t=[("a", "a", "a"), ("a", "a", "b"), ("b", "a", "b")]
        )
        assert derived(PlanExecutor(plan, use_kernels=True), interpretation) == {
            ("s", ("a",))
        }

    def test_constant_probe_and_constant_head(self):
        plan = plan_of('h("z", Y) :- e("a", Y).')
        interpretation = interpretation_of(e=[("a", "b"), ("b", "c"), ("a", "c")])
        assert derived(PlanExecutor(plan, use_kernels=True), interpretation) == {
            ("h", ("z", "b")),
            ("h", ("z", "c")),
        }

    def test_fully_bound_constant_probe(self):
        plan = plan_of('p("y") :- e("a", "b").')
        holds = interpretation_of(e=[("a", "b")])
        misses = interpretation_of(e=[("b", "a")])
        executor = PlanExecutor(plan, use_kernels=True)
        assert executor.execution_mode == "batch"
        assert derived(executor, holds) == {("p", ("y",))}
        assert derived(executor, misses) == set()

    def test_filter_kernel_equality_and_inequality(self):
        interpretation = interpretation_of(e=[("a", "a"), ("a", "b"), ("b", "a")])
        eq = plan_of("p(X) :- e(X, Y), X = Y.")
        ne = plan_of("p(X, Y) :- e(X, Y), X != Y.")
        assert derived(PlanExecutor(eq, use_kernels=True), interpretation) == {
            ("p", ("a",))
        }
        assert derived(PlanExecutor(ne, use_kernels=True), interpretation) == {
            ("p", ("a", "b")),
            ("p", ("b", "a")),
        }

    def test_missing_relation_and_arity_mismatch_derive_nothing(self):
        plan = plan_of("p(X) :- r(X).")
        executor = PlanExecutor(plan, use_kernels=True)
        assert derived(executor, Interpretation()) == set()
        wrong_arity = interpretation_of(r=[("a", "b")])
        assert derived(executor, wrong_arity) == set()

    def test_head_kernel_dedups_against_target_and_within_batch(self):
        # Both e-rows derive p("a"); it is already in the target relation,
        # so the kernel must emit nothing (the engine counts emitted facts).
        plan = plan_of("p(X) :- e(X, Y).")
        interpretation = interpretation_of(e=[("a", "b"), ("a", "c")], p=[("a",)])
        executor = PlanExecutor(plan, use_kernels=True)
        assert list(executor.derive(interpretation)) == []
        # Without the pre-existing fact, the two duplicate derivations
        # collapse to one emitted fact.
        fresh = interpretation_of(e=[("a", "b"), ("a", "c")])
        assert list(PlanExecutor(plan, use_kernels=True).derive(fresh)) == [
            ("p", (Sequence("a"),))
        ]


# ----------------------------------------------------------------------
# Delta windows
# ----------------------------------------------------------------------
class TestDeltaWindows:
    def _relation(self, rows) -> SequenceRelation:
        relation = SequenceRelation("e", 2)
        for row in rows:
            relation.add(row)
        return relation

    def test_empty_delta_fires_to_nothing(self):
        plan = plan_of("p(X, Z) :- e(X, Y), e(Y, Z).")
        interpretation = interpretation_of(e=[("a", "b"), ("b", "c")])
        relation = interpretation.relation("e")
        empty = RelationDelta(relation, len(relation), len(relation))
        executor = PlanExecutor(plan, use_kernels=True)
        assert list(executor.derive_delta(interpretation, 0, empty)) == []
        assert list(executor.derive_delta(interpretation, 1, empty)) == []

    def test_delta_position_not_in_plan_fires_to_nothing(self):
        plan = plan_of("p(X, Y) :- e(X, Y).")
        interpretation = interpretation_of(e=[("a", "b")])
        view = RelationDelta(interpretation.relation("e"), 0, 1)
        executor = PlanExecutor(plan, use_kernels=True)
        assert list(executor.derive_delta(interpretation, 5, view)) == []

    def test_mid_window_delta_restriction(self):
        # Restrict one scan to the window [2, 4): only chains through the
        # last two edges at that position may fire; the other scan still
        # joins against the full store.  Position 1 runs the second atom's
        # delta-first order: scan the window, then probe e(X, Y) on column 1.
        plan = plan_of("p(X, Z) :- e(X, Y), e(Y, Z).")
        interpretation = interpretation_of(
            e=[("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]
        )
        relation = interpretation.relation("e")
        window = RelationDelta(relation, 2, 4)
        cases = {
            0: {("p", ("c", "a")), ("p", ("d", "b"))},
            1: {("p", ("b", "d")), ("p", ("c", "a"))},
        }
        for position, expected in cases.items():
            for use_kernels in (True, False):
                executor = PlanExecutor(plan, use_kernels=use_kernels)
                got = {
                    (predicate, tuple(value.text for value in values))
                    for predicate, values in executor.derive_delta(
                        interpretation, position, window
                    )
                }
                assert got == expected, (position, use_kernels)

    def test_mid_window_probe_uses_window_local_index(self):
        # Probing a mid-store window of an unindexed column set must not
        # build (and permanently retain) a persistent index on the base
        # relation: the window hashes itself locally instead.
        relation = self._relation([("a", "b"), ("b", "c"), ("a", "c"), ("b", "d")])
        window = RelationDelta(relation, 1, 4)
        key = (Sequence("b").intern_id,)
        assert window.probe_positions((0,), key) == [1, 3]
        assert (0,) not in relation._indexes
        # A full-prefix window, by contrast, goes through the persistent
        # index and clips it.
        prefix = RelationDelta(relation, 0, 2)
        assert prefix.probe_positions((0,), key) == [1]
        assert (0,) in relation._indexes

    def test_mid_window_probe_reuses_persistent_index(self):
        relation = self._relation([("a", "b"), ("b", "c"), ("a", "c"), ("b", "d")])
        relation.ensure_index((0,))
        window = RelationDelta(relation, 2, 4)
        key = (Sequence("a").intern_id,)
        assert window.probe_positions((0,), key) == [2]

    def test_semi_naive_fixpoint_uses_delta_kernels(self):
        program = parse_program(
            """
            t(X, Y) :- e(X, Y).
            t(X, Z) :- t(X, Y), e(Y, Z).
            """
        )
        db = SequenceDatabase()
        for pair in [("a", "b"), ("b", "c"), ("c", "d")]:
            db.add_fact("e", *pair)
        reset_kernel_stats()
        on = compute_least_fixpoint(program, db, use_kernels=True)
        stats = kernel_stats()
        assert stats["batched_firings"] > 0
        assert stats["fallbacks"] == {}
        off = compute_least_fixpoint(program, db, use_kernels=False)
        assert on.interpretation == off.interpretation


# ----------------------------------------------------------------------
# Counters and surfaces
# ----------------------------------------------------------------------
class TestCountersAndSurfaces:
    def test_counters_split_by_path(self):
        program = parse_program(
            """
            t(X, Y) :- e(X, Y).
            u(X ++ X) :- t(X, X).
            """
        )
        db = SequenceDatabase()
        db.add_fact("e", "a", "a")
        db.add_fact("e", "a", "b")
        reset_kernel_stats()
        compute_least_fixpoint(program, db)
        stats = kernel_stats()
        assert stats["batched_firings"] > 0
        assert stats["tuple_firings"] > 0
        assert stats["fallbacks"].get(REASON_HEAD_TERM, 0) > 0
        assert stats["facts_emitted"] >= 2  # t("a","a"), t("a","b")
        assert stats["scan_rows"] >= 2
        assert stats["enabled"] is True

    def test_reset_zeroes_everything(self):
        kernels.record_tuple_firing("some reason")
        reset_kernel_stats()
        stats = kernel_stats()
        assert stats["tuple_firings"] == 0
        assert stats["batched_firings"] == 0
        assert stats["fallbacks"] == {}

    def test_disabled_firings_count_as_disabled_fallbacks(self):
        plan = plan_of("p(X) :- r(X).")
        interpretation = interpretation_of(r=[("a",)])
        reset_kernel_stats()
        list(PlanExecutor(plan, use_kernels=False).derive(interpretation))
        stats = kernel_stats()
        assert stats["tuple_firings"] == 1
        assert stats["fallbacks"] == {REASON_DISABLED: 1}

    def test_explain_annotates_execution_mode(self):
        batch_plan = plan_of("p(X, Z) :- e(X, Y), e(Y, Z).")
        assert "execution: batch kernels" in batch_plan.explain()
        tuple_plan = plan_of("p(X[1:2]) :- r(X).")
        explained = tuple_plan.explain()
        assert "execution: per-tuple" in explained
        assert REASON_HEAD_TERM in explained

    def test_session_stats_surface_kernel_counters(self):
        from repro.engine.session import DatalogSession

        session = DatalogSession(parse_program("t(X) :- r(X)."), {"r": ["a"]})
        stats = session.stats()
        kernel_section = stats["kernels"]
        assert set(kernel_section) >= {
            "batched_firings",
            "tuple_firings",
            "fallbacks",
            "enabled",
        }

    def test_compiled_fixpoint_honours_use_kernels(self):
        program = parse_program("t(X, Y) :- e(X, Y).")
        db = SequenceDatabase()
        db.add_fact("e", "a", "b")
        for use_kernels, expected in ((True, "batched_firings"), (False, "tuple_firings")):
            engine = CompiledFixpoint(program, use_kernels=use_kernels)
            engine.load_database(db)
            reset_kernel_stats()
            engine.run()
            stats = kernel_stats()
            assert stats[expected] > 0


# ----------------------------------------------------------------------
# Columnar storage
# ----------------------------------------------------------------------
class TestColumnarStorage:
    def test_id_columns_track_rows(self):
        relation = SequenceRelation("e", 2)
        relation.add(("a", "b"))
        relation.add(("c", "d"))
        columns = relation.id_columns()
        assert len(columns) == 2
        assert [Sequence.from_intern_id(i).text for i in columns[0]] == ["a", "c"]
        assert [Sequence.from_intern_id(i).text for i in columns[1]] == ["b", "d"]

    def test_discard_rebuilds_columns(self):
        relation = SequenceRelation("e", 2)
        relation.add(("a", "b"))
        relation.add(("c", "d"))
        relation.discard(("a", "b"))
        columns = relation.id_columns()
        assert [Sequence.from_intern_id(i).text for i in columns[0]] == ["c"]

    def test_column_values_reads_ids_without_building_an_index(self):
        relation = SequenceRelation("e", 2)
        relation.add(("a", "b"))
        relation.add(("a", "c"))
        assert {value.text for value in relation.column_values(0)} == {"a"}
        assert {value.text for value in relation.column_values(1)} == {"b", "c"}
        assert relation._indexes == {}

    def test_probe_positions_respects_windows(self):
        relation = SequenceRelation("e", 2)
        for row in (("a", "x"), ("b", "y"), ("a", "y"), ("a", "z")):
            relation.add(row)
        key = (Sequence("a").intern_id,)
        assert relation.probe_positions((0,), key) == [0, 2, 3]
        assert relation.probe_positions((0,), key, 1, 3) == [2]
        assert relation.probe_positions((0,), key, 3) == [3]
