"""Property-based tests (hypothesis) for core invariants.

These target the data structures and semantic invariants that underpin the
paper's results: subsequence counting (Section 2.1), extended-domain
monotonicity (Lemma 1), the correctness of the paper's restructuring
programs (reverse, repeats), transducer semantics (append, complement,
square), and the agreement between the Theorem 1 compiler and direct machine
execution.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import paper_programs
from repro.database import SequenceDatabase
from repro.engine import compute_least_fixpoint, evaluate_query
from repro.engine.fixpoint import COMPILED, NAIVE
from repro.engine.limits import EvaluationLimits
from repro.language.parser import parse_program
from repro.sequences import ExtendedDomain, Sequence, subsequences
from repro.sequences.sequence import max_subsequence_count
from repro.transducers import library
from repro.turing import machines
from repro.turing.compile_to_datalog import compile_tm_to_sequence_datalog, strip_blanks
from repro.turing.compile_to_network import compile_tm_to_network
from repro.workloads import random_strings, repeats_database, string_database

SLOW = settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
FAST = settings(max_examples=100, deadline=None)

binary_words = st.text(alphabet="01", max_size=6)
ab_words = st.text(alphabet="ab", max_size=6)
dna_words = st.text(alphabet="acgt", max_size=8)


# ----------------------------------------------------------------------
# Sequence substrate
# ----------------------------------------------------------------------
@FAST
@given(st.text(alphabet="abc", max_size=12))
def test_subsequence_count_bound(word):
    """A sequence of length k has at most k(k+1)/2 + 1 contiguous subsequences."""
    assert 1 <= len(subsequences(word)) <= max_subsequence_count(len(word))


@FAST
@given(st.text(alphabet="abc", max_size=10))
def test_every_subsequence_is_contained(word):
    sequence = Sequence(word)
    for fragment in subsequences(word):
        assert fragment.is_subsequence_of(sequence)


@FAST
@given(st.text(alphabet="ab", max_size=8), st.text(alphabet="ab", max_size=8))
def test_domain_monotonicity_lemma_1(first, second):
    """Dext({x}) ⊆ Dext({x, y}) for all x, y."""
    small = ExtendedDomain([first])
    large = ExtendedDomain([first, second])
    assert set(small.sequences()) <= set(large.sequences())
    assert small.max_length <= large.max_length


def _closure(words):
    """Brute-force extension: every contiguous subsequence of every word."""
    members = {Sequence("")}
    for word in words:
        members.update(subsequences(word))
    return members


def _assert_domain_is_closure(domain, words):
    oracle = _closure(words)
    members = list(domain)
    assert len(members) == len(set(members)) == len(domain) == len(oracle)
    assert set(members) == oracle
    assert all(sequence in domain for sequence in oracle)
    lmax = max(map(len, oracle))
    assert domain.max_length == lmax
    assert domain.integers() == range(lmax + 2)
    assert lmax + 1 in domain and lmax + 2 not in domain


@FAST
@given(st.lists(st.lists(st.text(alphabet="abc", max_size=9), max_size=4), max_size=6))
def test_domain_views_keep_the_closure_of_their_watermark(batches):
    """Each view of a growing domain still equals the closure of what had
    been added when it was taken; the live domain is the closure of it all."""
    domain = ExtendedDomain()
    added, views = [], []
    for batch in batches:
        domain.add_all(batch)
        added.extend(batch)
        views.append((domain.view(), list(added)))
    for view, words in views:
        _assert_domain_is_closure(view, words)
        later = {Sequence(word) for word in added} - _closure(words)
        assert not any(sequence in view for sequence in later)
    _assert_domain_is_closure(domain, added)


@FAST
@given(st.text(alphabet="abc", max_size=8), st.integers(0, 10), st.integers(0, 10))
def test_subsequence_definedness_matches_the_paper(word, lo, hi):
    """s[n1:n2] is defined iff 1 <= n1 <= n2+1 <= len(s)+1 (Section 3.2)."""
    value = Sequence(word).subsequence(lo, hi)
    should_be_defined = 1 <= lo <= hi + 1 <= len(word) + 1
    assert (value is not None) == should_be_defined
    if value is not None and lo <= hi:
        assert value.text == word[lo - 1:hi]


# ----------------------------------------------------------------------
# Restructuring programs from Section 1
# ----------------------------------------------------------------------
@SLOW
@given(binary_words)
def test_reverse_program_matches_python_reverse(word):
    db = SequenceDatabase.from_dict({"r": [word]})
    result = compute_least_fixpoint(paper_programs.reverse_program(), db)
    answers = evaluate_query(result.interpretation, "answer(Y)").values("Y")
    assert answers == [word[::-1]]


@SLOW
@given(ab_words, st.integers(min_value=1, max_value=3))
def test_rep1_recognises_true_repeats(pattern, copies):
    word = pattern * copies
    db = SequenceDatabase.from_dict({"r": [word]})
    result = compute_least_fixpoint(paper_programs.rep1_program(), db)
    pairs = evaluate_query(result.interpretation, "rep1(X, Y)").texts()
    if word:
        assert (word, pattern) in pairs or pattern == ""
    # Soundness: every derived (X, Y) pair with Y non-empty satisfies X = Y^n.
    for x, y in pairs:
        if y:
            assert set(x.split(y)) <= {""}


@SLOW
@given(st.lists(st.text(alphabet="ab", max_size=3), min_size=1, max_size=3))
def test_concatenation_program_is_sound_and_complete(words):
    db = SequenceDatabase.from_dict({"r": words})
    result = compute_least_fixpoint(paper_programs.concatenations_program(), db)
    answers = set(evaluate_query(result.interpretation, "answer(X)").values("X"))
    expected = {x + y for x in words for y in words}
    assert answers == expected


# ----------------------------------------------------------------------
# Transducer semantics
# ----------------------------------------------------------------------
@FAST
@given(ab_words, ab_words)
def test_append_transducer_is_concatenation(left, right):
    machine = library.append_transducer("ab", 2)
    assert machine(left, right).text == left + right


@FAST
@given(binary_words)
def test_complement_is_an_involution(word):
    machine = library.complement_transducer("01")
    assert machine(machine(word)).text == word


@FAST
@given(ab_words)
def test_square_transducer_length_is_quadratic(word):
    machine = library.square_transducer("ab")
    assert len(machine(word)) == len(word) ** 2


@FAST
@given(dna_words)
def test_transcription_matches_the_symbol_map(word):
    machine = library.transcribe_transducer()
    expected = "".join(library.TRANSCRIPTION_MAP[symbol] for symbol in word)
    assert machine(word).text == expected


@FAST
@given(ab_words)
def test_echo_transducer_doubles_each_symbol(word):
    machine = library.echo_transducer("ab")
    expected = "".join(symbol * 2 for symbol in word)
    assert machine(word, word).text == expected


# ----------------------------------------------------------------------
# Theorem 1: compiled programs agree with direct machine execution
# ----------------------------------------------------------------------
@SLOW
@given(st.text(alphabet="01", min_size=0, max_size=4))
def test_theorem_1_compiler_agrees_with_the_machine(word):
    machine = machines.increment_machine()
    program = compile_tm_to_sequence_datalog(machine)
    database = SequenceDatabase.single_input(word)
    limits = EvaluationLimits(max_iterations=200, max_sequence_length=200)
    result = compute_least_fixpoint(program, database, limits=limits)
    outputs = {
        strip_blanks(row[0].text, machine)
        for row in result.interpretation.tuples("output")
    }
    assert outputs == {machine.compute(word).text}


# ----------------------------------------------------------------------
# Compiled-plan evaluation agrees with the naive reference on randomized
# programs over randomized workload databases
# ----------------------------------------------------------------------

# Clause templates covering every plan-step kind: bound and unbound scans,
# binding equalities, filters, head enumeration over the domain, structural
# recursion and (finite) construction.  Every combination of templates has
# a finite fixpoint, so strategies must agree on the exact result.
_CLAUSE_TEMPLATES = (
    "p(X) :- r(X).",
    "p(X[1:N]) :- r(X).",
    "p(X[N:end]) :- r(X).",
    "p(X, Y) :- r(X), r(Y).",
    'p(Y) :- r(X), Y = X[1:2].',
    "p(X ++ X) :- r(X).",
    "q(X) :- p(X), r(X).",
    'q(X) :- p(X), X != "a".',
    "q(X[2:end]) :- q(X), r(X).",
    "q(Y) :- p(X, Y), r(Y).",
)

_EQUIVALENCE_LIMITS = EvaluationLimits(
    max_iterations=80, max_facts=20_000, max_domain_size=20_000,
    max_sequence_length=64,
)


@SLOW
@given(
    st.lists(
        st.sampled_from(_CLAUSE_TEMPLATES), min_size=1, max_size=4, unique=True
    ),
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=4),
)
def test_compiled_strategy_matches_naive_on_random_programs(
    templates, seed, count, length
):
    sources = []
    for source in templates:
        try:
            parse_program("".join(sources + [source])).signatures()
        except Exception:
            continue  # arity clash between templates (p/1 vs p/2): drop it
        sources.append(source)
    program = parse_program("".join(sources))
    database = string_database(count, length, alphabet="ab", seed=seed)
    naive = compute_least_fixpoint(
        program, database, limits=_EQUIVALENCE_LIMITS, strategy=NAIVE
    )
    compiled = compute_least_fixpoint(
        program, database, limits=_EQUIVALENCE_LIMITS, strategy=COMPILED
    )
    assert naive.interpretation == compiled.interpretation


@SLOW
@given(st.integers(min_value=0, max_value=10_000))
def test_compiled_strategy_matches_naive_on_repeat_workloads(seed):
    program = paper_programs.rep1_program()
    database = repeats_database(
        pattern_lengths=(1, 2), copies=(1, 2), alphabet="ab", seed=seed
    )
    naive = compute_least_fixpoint(
        program, database, limits=_EQUIVALENCE_LIMITS, strategy=NAIVE
    )
    compiled = compute_least_fixpoint(
        program, database, limits=_EQUIVALENCE_LIMITS, strategy=COMPILED
    )
    assert naive.interpretation == compiled.interpretation


# ----------------------------------------------------------------------
# Batch kernel execution agrees with the per-tuple path: a batchable plan
# is a pure relational join over interned ids, so routing it through the
# kernels must not change a single fact — across full firings, semi-naive
# deltas, demand restriction and session maintenance.
# ----------------------------------------------------------------------

# Join-heavy templates: most are batchable (multi-atom joins, constant
# probes, repeated variables, filters), while the last two force per-tuple
# fallbacks so mixed programs exercise both paths in one fixpoint.  Every
# predicate keeps one arity across templates, so any subset parses.
_KERNEL_TEMPLATES = (
    "e(X, Y) :- r(X), r(Y).",
    "t(X, Y) :- e(X, Y).",
    "t(X, Z) :- t(X, Y), e(Y, Z).",
    't(X, Y) :- e(X, Y), X != "a".',
    "s(X) :- e(X, X).",
    "s(X) :- t(X, Y), s(Y).",
    'c(Y) :- e("a", Y).',
    'h("z", X) :- s(X).',
    "u(X ++ X) :- r(X).",
    "v(X[1:N]) :- r(X).",
)


@SLOW
@given(
    st.lists(
        st.sampled_from(_KERNEL_TEMPLATES), min_size=1, max_size=5, unique=True
    ),
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=3),
)
def test_batch_kernels_match_tuple_path_on_random_programs(
    templates, seed, count, length
):
    program = parse_program("".join(templates))
    database = string_database(count, length, alphabet="ab", seed=seed)
    on = compute_least_fixpoint(
        program, database, limits=_EQUIVALENCE_LIMITS,
        strategy=COMPILED, use_kernels=True,
    )
    off = compute_least_fixpoint(
        program, database, limits=_EQUIVALENCE_LIMITS,
        strategy=COMPILED, use_kernels=False,
    )
    assert on.interpretation == off.interpretation
    assert on.fact_count == off.fact_count


@SLOW
@given(
    st.lists(
        st.sampled_from(_KERNEL_TEMPLATES), min_size=1, max_size=5, unique=True
    ),
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=1, max_value=3),
    st.data(),
)
def test_batch_kernels_match_tuple_path_under_session_increments(
    templates, seed, count, length, data
):
    """Incremental maintenance fires delta-restricted kernel firings."""
    from repro.engine.session import DatalogSession

    program = parse_program("".join(templates))
    database = string_database(count, length, alphabet="ab", seed=seed)
    rows = [row[0].text for row in database.relation("r")]
    split = data.draw(st.integers(min_value=0, max_value=len(rows)), label="split")
    sessions = {}
    for use_kernels in (True, False):
        session = DatalogSession(
            program, {"r": rows[:split]},
            limits=_EQUIVALENCE_LIMITS, use_kernels=use_kernels,
        )
        for row in rows[split:]:
            session.add_facts({"r": [row]})
        sessions[use_kernels] = session
    assert sessions[True].interpretation == sessions[False].interpretation


@SLOW
@given(
    st.lists(
        st.sampled_from(_KERNEL_TEMPLATES), min_size=2, max_size=5, unique=True
    ),
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=4),
    st.data(),
)
def test_batch_kernels_match_tuple_path_under_demand(templates, seed, count, data):
    """Demand slices (adornment-seeded plans) agree with kernels on and off."""
    from repro.engine.demand import compile_demand
    from repro.engine.kernels import set_batch_enabled

    program = parse_program("".join(templates))
    database = string_database(count, 2, alphabet="ab", seed=seed)
    predicate = data.draw(
        st.sampled_from(sorted(program.head_predicates())), label="predicate"
    )
    arity = program.signatures()[predicate]
    variables = [f"V{position}" for position in range(arity)]
    patterns = [f"{predicate}({', '.join(variables)})"]
    if arity:
        # Constant-bound: the adornment seeds the defining plans, so the
        # kernels run with a non-empty seed row.
        rest = ", ".join(variables[1:])
        patterns.append(f'{predicate}("a"{", " + rest if rest else ""})')
    for pattern in patterns:
        compiled = compile_demand(program, pattern)
        on = compiled.materialize(database, _EQUIVALENCE_LIMITS)
        previous = set_batch_enabled(False)
        try:
            off = compiled.materialize(database, _EQUIVALENCE_LIMITS)
        finally:
            set_batch_enabled(previous)
        assert sorted(compiled.query(on).texts()) == sorted(
            compiled.query(off).texts()
        )
        assert on.fact_count == off.fact_count


# ----------------------------------------------------------------------
# Delta-first orders: a firing restricted to one atom's delta scans that
# atom first.  Session increments of ``e`` always fire the reordered
# ``e``-delta position of the core recursion; the other templates add
# more multi-atom joins, on the batch kernels and (non-bare heads) on the
# tuple path.
# ----------------------------------------------------------------------
_DELTA_CORE = "t(X, Y) :- e(X, Y).\nt(X, Z) :- t(X, Y), e(Y, Z).\n"
_DELTA_TEMPLATES = (
    "t(X, Z) :- e(X, Y), t(Y, Z).",
    "s(X) :- t(X, Y), r(Y).",
    "s(X) :- e(X, Y), s(Y).",
    'c(Y) :- e("a", Y), r(Y).',
    "d(X, Z) :- r(X), e(X, Y), e(Y, Z), r(Z).",
    'f(X, Y) :- t(X, Y), t(Y, X), X != Y.',
    "u(X[2:end]) :- t(X, Y), r(Y).",
    "w(X ++ Y) :- e(X, Y), s(Y).",
)
_DELTA_NODES = st.sampled_from(["a", "b", "c", "ab", "ba"])


@SLOW
@given(
    st.lists(st.sampled_from(_DELTA_TEMPLATES), max_size=4, unique=True),
    st.lists(
        st.tuples(_DELTA_NODES, _DELTA_NODES), min_size=2, max_size=8, unique=True
    ),
    st.lists(_DELTA_NODES, max_size=3, unique=True),
    st.data(),
)
def test_delta_first_orders_match_naive_under_session_increments(
    templates, edges, nodes, data
):
    """Kernels on, kernels off and a from-scratch naive evaluation agree
    when increments fire the delta-first orders."""
    from unittest import mock

    from repro.engine.planner import PlanExecutor
    from repro.engine.session import DatalogSession

    program = parse_program(_DELTA_CORE + "".join(templates))
    split = data.draw(st.integers(min_value=1, max_value=len(edges) - 1), label="split")
    increments = [{"e": [edge]} for edge in edges[split:]]
    increments += [{"r": [node]} for node in nodes]
    increments = data.draw(st.permutations(increments), label="increments")

    reordered = []
    derive_delta = PlanExecutor.derive_delta

    def recording(self, interpretation, atom_position, view):
        if len(view) and self.plan.delta_order(atom_position) != self.plan.steps:
            reordered.append((self.plan.clause, atom_position))
        return derive_delta(self, interpretation, atom_position, view)

    models = []
    with mock.patch.object(PlanExecutor, "derive_delta", recording):
        for use_kernels in (True, False):
            session = DatalogSession(
                program, {"e": edges[:split]},
                limits=_EQUIVALENCE_LIMITS, use_kernels=use_kernels,
            )
            for increment in increments:
                session.add_facts(increment)
            models.append(session.interpretation)
    database = SequenceDatabase.from_dict({"e": edges, "r": nodes})
    naive = compute_least_fixpoint(
        program, database, limits=_EQUIVALENCE_LIMITS, strategy=NAIVE
    )
    assert models[0] == models[1] == naive.interpretation
    # Every new e edge fires the core recursion's e-delta position.
    assert reordered


# ----------------------------------------------------------------------
# Demand-driven evaluation agrees with full materialisation
# ----------------------------------------------------------------------
@SLOW
@given(
    st.lists(
        st.sampled_from(_CLAUSE_TEMPLATES), min_size=1, max_size=4, unique=True
    ),
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=4),
    st.data(),
)
def test_demand_mode_matches_full_fixpoint_on_random_programs(
    templates, seed, count, length, data
):
    """Demand-mode answers must equal full-fixpoint answers — whether the
    compiler restricted the swept plans or (for domain-sensitive programs)
    fell back to full evaluation."""
    from repro.engine.demand import compile_demand

    sources = []
    for source in templates:
        try:
            parse_program("".join(sources + [source])).signatures()
        except Exception:
            continue  # arity clash between templates (p/1 vs p/2): drop it
        sources.append(source)
    program = parse_program("".join(sources))
    database = string_database(count, length, alphabet="ab", seed=seed)
    full = compute_least_fixpoint(program, database, limits=_EQUIVALENCE_LIMITS)

    predicate = data.draw(
        st.sampled_from(sorted(program.head_predicates())), label="predicate"
    )
    arity = program.signatures()[predicate]
    variables = [f"V{position}" for position in range(arity)]
    patterns = [f"{predicate}({', '.join(variables)})" if arity else predicate]
    # A constant-bound variant: bind the first position to a value the full
    # model actually holds (when any) and to a value it cannot hold.
    rows = sorted(full.interpretation.tuples(predicate))
    if arity:
        if rows:
            constant = rows[0][0].text
            rest = ", ".join(variables[1:])
            patterns.append(
                f'{predicate}("{constant}"{", " + rest if rest else ""})'
            )
        # "zz" is underivable over the {a, b} workload alphabet.
        patterns.append(
            f'{predicate}("zz"{ ", " + ", ".join(variables[1:]) if arity > 1 else ""})'
        )
    for pattern in patterns:
        compiled = compile_demand(program, pattern)
        demand_result = compiled.materialize(database, _EQUIVALENCE_LIMITS)
        assert demand_result.fact_count <= full.fact_count
        assert sorted(compiled.query(demand_result).texts()) == sorted(
            evaluate_query(full.interpretation, pattern).texts()
        )


# ----------------------------------------------------------------------
# Incremental session maintenance agrees with from-scratch evaluation
# ----------------------------------------------------------------------
@SLOW
@given(
    st.lists(
        st.sampled_from(_CLAUSE_TEMPLATES), min_size=1, max_size=4, unique=True
    ),
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=1, max_value=4),
    st.data(),
)
def test_session_increments_match_from_scratch_on_random_programs(
    templates, seed, count, length, data
):
    """DatalogSession.add_facts must land on exactly lfp(T_{P, db ∪ Δ})."""
    from repro.engine.session import DatalogSession

    sources = []
    for source in templates:
        try:
            parse_program("".join(sources + [source])).signatures()
        except Exception:
            continue  # arity clash between templates (p/1 vs p/2): drop it
        sources.append(source)
    program = parse_program("".join(sources))
    database = string_database(count, length, alphabet="ab", seed=seed)
    rows = [row[0].text for row in database.relation("r")]
    split = data.draw(st.integers(min_value=0, max_value=len(rows)), label="split")

    session = DatalogSession(
        program, {"r": rows[:split]}, limits=_EQUIVALENCE_LIMITS
    )
    for row in rows[split:]:
        session.add_facts({"r": [row]})
    scratch = compute_least_fixpoint(
        program, database, limits=_EQUIVALENCE_LIMITS, strategy=COMPILED
    )
    assert session.interpretation == scratch.interpretation


@SLOW
@given(st.integers(min_value=0, max_value=10_000), st.integers(1, 3))
def test_session_increments_match_from_scratch_on_paper_programs(seed, splits):
    """Suffixes and rep1 (paper programs) served incrementally stay exact."""
    from repro.engine.session import DatalogSession

    database = repeats_database(
        pattern_lengths=(1, 2), copies=(1, 2), alphabet="ab", seed=seed
    )
    rows = sorted(row[0].text for row in database.relation("r"))
    for program in (paper_programs.suffixes_program(), paper_programs.rep1_program()):
        session = DatalogSession(
            program, {"r": rows[:splits]}, limits=_EQUIVALENCE_LIMITS
        )
        session.add_facts({"r": rows[splits:]})
        scratch = compute_least_fixpoint(
            program, database, limits=_EQUIVALENCE_LIMITS, strategy=NAIVE
        )
        assert session.interpretation == scratch.interpretation


@SLOW
@given(st.integers(min_value=0, max_value=10_000), st.integers(1, 3))
def test_compiled_strategy_matches_naive_on_reverse_workloads(seed, count):
    program = paper_programs.reverse_program()
    database = SequenceDatabase.from_dict(
        {"r": random_strings(count, 4, alphabet="01", seed=seed)}
    )
    naive = compute_least_fixpoint(
        program, database, limits=_EQUIVALENCE_LIMITS, strategy=NAIVE
    )
    compiled = compute_least_fixpoint(
        program, database, limits=_EQUIVALENCE_LIMITS, strategy=COMPILED
    )
    assert naive.interpretation == compiled.interpretation


# ----------------------------------------------------------------------
# Theorem 5: compiled networks agree with direct machine execution
# ----------------------------------------------------------------------
@pytest.mark.slow
@SLOW
@given(st.text(alphabet="01", min_size=2, max_size=4))
def test_theorem_5_network_agrees_with_the_machine(word):
    # Network simulation cost grows ~10x per symbol; length 4 keeps the
    # property meaningful (multi-symbol runs) without minute-long examples.
    machine = machines.complement_machine()
    network = compile_tm_to_network(machine, time_exponent=1)
    assert network.compute_function(word) == machine.compute(word)


# ----------------------------------------------------------------------
# Program diagnostics (repro.analysis.diagnostics)
# ----------------------------------------------------------------------
# A deliberately hostile template pool: broken syntax, undefined and
# arity-conflicting predicates, unbound heads, constructive recursion,
# cartesian joins, duplicates.  Linting any combination must produce a
# report, never an exception.
LINT_TEMPLATES = (
    "p(X) :- r(X).",
    "p(X :- r(X).",                      # does not parse
    "p(X, Y) :- r(X), r(Y).",            # arity conflict with p/1
    "bad(X) :- r(Y).",                   # unbound head variable
    "rep(X ++ Y, Y) :- rep(X, Y).",      # constructive recursion
    "q(X[1:N]) :- r(X[2:end]).",         # unguarded
    "p(X) :- r(X).",                     # duplicate of the first
    "dead(X) :- ghost(X).",              # unreachable body predicate
    "j(X, Y) :- r(X), s(Y).",            # cartesian join
    'c(X) :- r(X), X != "a".',
)


@FAST
@given(
    st.lists(st.sampled_from(LINT_TEMPLATES), min_size=1, max_size=6),
    st.lists(
        st.sampled_from(["p(X)", "p(X, Y)", "p(X", "ghost(Z)"]), max_size=2
    ),
)
def test_lint_never_raises(templates, patterns):
    """lint_program is total: any input yields a report, never an exception."""
    from repro.analysis.diagnostics import DiagnosticReport, lint_program
    from repro.database import SequenceDatabase

    source = "\n".join(templates)
    database = SequenceDatabase.from_json_dict({"r": ["ab"], "s": ["ba"]})
    for kwargs in ({}, {"database": database}, {"patterns": patterns}):
        report = lint_program(source, **kwargs)
        assert isinstance(report, DiagnosticReport)
        # The payload round-trips losslessly whatever the findings.
        assert DiagnosticReport.from_payload(report.to_payload()) == report


@SLOW
@given(
    st.lists(
        st.sampled_from(
            (
                "p(X) :- r(X).",
                "p(X[1:N]) :- r(X).",
                "q(X) :- p(X), r(X).",
                "q(X[2:end]) :- q(X), r(X).",
                "s(X, Y) :- r(X), r(Y).",
            )
        ),
        min_size=1,
        max_size=4,
    ),
    st.lists(st.text(alphabet="ab", min_size=1, max_size=4), min_size=1, max_size=3),
)
def test_error_free_finite_programs_evaluate_cleanly(templates, rows):
    """A program the linter passes without errors (and the classifier
    certifies finite) evaluates to a fixpoint without raising."""
    from repro.core.engine_api import SequenceDatalogEngine

    from hypothesis import assume

    engine = SequenceDatalogEngine("\n".join(dict.fromkeys(templates)))
    report = engine.lint(database={"r": rows})
    assume(not report.has_errors())  # e.g. E101 when q's rule samples alone
    assert engine.finiteness().verdict.is_finite()
    result = engine.evaluate({"r": rows})
    assert result.interpretation is not None


# ----------------------------------------------------------------------
# Durable storage: crash recovery (repro.storage)
# ----------------------------------------------------------------------
@SLOW
@given(
    st.lists(
        st.lists(dna_words, min_size=1, max_size=3), min_size=1, max_size=4
    ),
    st.data(),
)
def test_crash_recovery_is_fact_for_fact_identical(batches, data):
    """A crash-recovered session equals one that never crashed.

    Random fact batches are ingested durably, a checkpoint optionally
    lands at a random position, and then the process "crashes" (file
    handles dropped without flushing).  Recovery (snapshot + WAL-tail
    replay through the normal incremental maintenance path) must rebuild
    exactly the model an in-memory session computes from the same
    acknowledged batches — no lost commits, no resurrected partial
    batches, regardless of where the crash or the checkpoint fell.
    """
    import tempfile

    from repro.engine.session import DatalogSession
    from repro.storage import open_session

    program = "suffix(X[N:end]) :- r(X). pair(X, Y) :- r(X), r(Y)."
    checkpoint_after = data.draw(
        st.integers(min_value=0, max_value=len(batches)), label="checkpoint_after"
    )

    def facts_of(session):
        interpretation = session.interpretation
        return {
            (predicate, tuple(str(value) for value in row))
            for predicate in interpretation.predicates()
            for row in interpretation.tuples(predicate)
        }

    with tempfile.TemporaryDirectory() as tmp:
        durable = open_session(
            program, tmp, storage_options={"background_checkpoints": False}
        )
        for index, batch in enumerate(batches, start=1):
            durable.add_facts([("r", (word,)) for word in batch])
            if index == checkpoint_after:
                durable.storage.checkpoint()
        durable.storage.abandon()  # crash: nothing else reaches disk

        recovered = open_session(program, tmp)
        witness = DatalogSession(program)
        for batch in batches:
            witness.add_facts([("r", (word,)) for word in batch])
        try:
            assert facts_of(recovered) == facts_of(witness)
            assert recovered.generation == recovered.storage.generation
        finally:
            recovered.storage.close(final_snapshot=False)
            recovered.close()
            witness.close()
