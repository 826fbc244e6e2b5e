"""Query-serving benchmark: prepared queries and incremental maintenance.

Measures the two claims of the serving layer and emits a JSON record:

* **prepared vs legacy pattern queries** — repeated constant-bound pattern
  queries served through :class:`~repro.engine.session.DatalogSession`
  (compile-once plans from an LRU cache, composite-index scans, row-level
  dedup) against the pre-session path that re-parsed the pattern and built a
  fresh backtracking evaluator with full-binding dedup keys on every call;
* **incremental vs from-scratch maintenance** — after a small delta of base
  facts, :meth:`DatalogSession.add_facts` (version-gated, delta-restricted
  re-firing) against recomputing the least fixpoint of the enlarged
  database from scratch, on the Example 7.2 genome workload and a Theorem 1
  Turing-machine workload.  Both paths must agree fact-for-fact.

Run with::

    PYTHONPATH=src python benchmarks/bench_query_serving.py       # JSON on stdout
    pytest benchmarks/bench_query_serving.py --benchmark-only -s  # harness run
"""

import json
import time

from repro import EvaluationLimits, SequenceDatabase, compute_least_fixpoint
from repro.core import paper_programs
from repro.engine.evaluation import ClauseEvaluator
from repro.engine.session import DatalogSession
from repro.language.atoms import Atom
from repro.language.clauses import Clause
from repro.language.parser import parse_atom
from repro.turing import machines
from repro.turing.compile_to_datalog import compile_tm_to_sequence_datalog
from repro.workloads import random_dna, string_database

LIMITS = EvaluationLimits(max_iterations=500, max_sequence_length=500)


# ----------------------------------------------------------------------
# Legacy query path (pre-session): re-parse, fresh evaluator, full-binding
# dedup keys.  Kept here verbatim as the baseline the prepared path replaces.
# ----------------------------------------------------------------------
def legacy_query_rows(interpretation, pattern):
    atom = parse_atom(pattern)
    relation = interpretation.relation(atom.predicate)
    if relation is None:
        return []
    dummy_clause = Clause(Atom("query_result", atom.args), [atom])
    evaluator = ClauseEvaluator(dummy_clause)
    rows = []
    seen = set()
    for substitution in evaluator._body_solutions(interpretation):
        values = substitution.evaluate_atom(atom)
        if values is None:
            continue
        _, row = values
        key = (
            row,
            frozenset(substitution.sequence_bindings.items()),
            frozenset(substitution.index_bindings.items()),
        )
        if key in seen:
            continue
        seen.add(key)
        rows.append(row)
    return rows


def bench_pattern_queries(count=60, length=10, repeats=10):
    """Serve many constant-bound suffix queries both ways; compare totals."""
    program = paper_programs.suffixes_program()
    database = string_database(count, length, alphabet="abcd", seed=11)
    # A serving session sizes the prepared cache to its hot query set; the
    # legacy path has nothing to amortise, it re-parses and rebuilds the
    # evaluator on every call.
    session = DatalogSession(
        program, database, limits=LIMITS, prepared_cache_size=4096
    )
    interpretation = session.interpretation

    # One ground (fully constant-bound) query per stored suffix, repeated:
    # the steady-state mix of a serving workload.
    suffixes = sorted(row[0].text for row in interpretation.tuples("suffix"))
    patterns = [f'suffix("{text}")' for text in suffixes if text] * repeats

    started = time.perf_counter()
    legacy_total = 0
    for pattern in patterns:
        legacy_total += len(set(legacy_query_rows(interpretation, pattern)))
    legacy_seconds = time.perf_counter() - started

    started = time.perf_counter()
    prepared_total = 0
    for pattern in patterns:
        prepared_total += len(session.query(pattern))
    prepared_seconds = time.perf_counter() - started

    assert prepared_total == legacy_total, "prepared and legacy answers differ"
    for pattern in patterns[:20]:
        assert set(session.query(pattern).rows) == set(
            legacy_query_rows(interpretation, pattern)
        ), f"prepared and legacy rows differ for {pattern}"

    return {
        "workload": f"suffix-closure {count}x{length}, {len(patterns)} ground queries",
        "legacy_seconds": round(legacy_seconds, 4),
        "prepared_seconds": round(prepared_seconds, 4),
        "speedup_prepared_vs_legacy": round(
            legacy_seconds / max(prepared_seconds, 1e-9), 2
        ),
        "answers": prepared_total,
    }


def _bench_incremental_case(label, program, base_facts, delta_facts, check=None):
    """Time session.add_facts(delta) against from-scratch on base ∪ delta."""
    session = DatalogSession(program, base_facts, limits=LIMITS)
    started = time.perf_counter()
    report = session.add_facts(delta_facts)
    incremental_seconds = time.perf_counter() - started

    full = SequenceDatabase.from_dict(
        {
            predicate: list(base_facts.get(predicate, []))
            + list(delta_facts.get(predicate, []))
            for predicate in set(base_facts) | set(delta_facts)
        }
    )
    started = time.perf_counter()
    scratch = compute_least_fixpoint(program, full, limits=LIMITS)
    scratch_seconds = time.perf_counter() - started

    assert session.interpretation == scratch.interpretation, (
        f"{label}: incremental result differs from from-scratch evaluation"
    )
    if check is not None:
        assert check(session), f"{label}: wrong model"
    return {
        "case": label,
        "delta_base_facts": report.base_facts_added,
        "delta_derived_facts": report.facts_added,
        "incremental_seconds": round(incremental_seconds, 4),
        "from_scratch_seconds": round(scratch_seconds, 4),
        "speedup_incremental_vs_scratch": round(
            scratch_seconds / max(incremental_seconds, 1e-9), 2
        ),
        "total_facts": scratch.fact_count,
    }


def bench_incremental(strands=12, strand_length=16):
    """Genome and Turing maintenance cases; the genome one carries the bar."""
    cases = []

    program = paper_programs.transcribe_simulation_program()
    dna = [random_dna(strand_length, seed=500 + i) for i in range(strands + 1)]
    cases.append(
        _bench_incremental_case(
            f"ex72-genome-{strands}+1x{strand_length}",
            program,
            {"dnaseq": dna[:-1]},
            {"dnaseq": dna[-1:]},
            check=lambda session: len(session.query("rnaseq(D, R)")) == strands + 1,
        )
    )

    machine = machines.increment_machine()
    tm_program = compile_tm_to_sequence_datalog(machine)
    cases.append(
        _bench_incremental_case(
            "thm1-tm-increment-1101+111",
            tm_program,
            {"input": ["1101"]},
            {"input": ["111"]},
        )
    )
    return cases


def run_benchmarks():
    """Run both benchmark families and return the JSON record."""
    report = {
        "benchmark": "query_serving",
        "unit": "seconds",
        "pattern_queries": bench_pattern_queries(),
        "incremental_maintenance": bench_incremental(),
    }
    assert (
        report["pattern_queries"]["speedup_prepared_vs_legacy"] > 1.0
    ), "prepared queries must beat the legacy scan path"
    genome = report["incremental_maintenance"][0]
    assert genome["speedup_incremental_vs_scratch"] >= 5.0, (
        "incremental maintenance must be >=5x faster than from-scratch "
        f"on the genome workload, got {genome['speedup_incremental_vs_scratch']}x"
    )
    return report


def test_query_serving(benchmark):
    report = run_benchmarks()
    print()
    print(json.dumps(report, indent=2))

    program = paper_programs.transcribe_simulation_program()
    dna = [random_dna(16, seed=500 + i) for i in range(13)]
    session = DatalogSession(program, {"dnaseq": dna[:-1]}, limits=LIMITS)
    benchmark.pedantic(
        lambda: session.add_facts({"dnaseq": dna[-1:]}),
        rounds=3,
        iterations=1,
    )


if __name__ == "__main__":
    print(json.dumps(run_benchmarks(), indent=2))
