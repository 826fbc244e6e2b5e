"""Crash-recovery benchmark: snapshot + WAL-tail restart vs cold fixpoint.

Measures the tentpole claim of :mod:`repro.storage` — that restarting a
durable session from its newest snapshot plus a short WAL tail beats
recomputing the least fixpoint from the base facts — on the genome
workload (transitive closure of the k-mer overlap graph of random DNA
reads, the same join-heavy model :mod:`bench_kernels` uses):

1. the overlap edges are ingested durably in batches (write-ahead commit
   protocol), a checkpoint lands before the final batches, and the
   process "crashes" (file handles dropped, nothing else flushed);
2. **recovery** times :func:`repro.storage.open_session` over the crashed
   directory — snapshot load (no re-derivation: the restored model is
   marked converged) plus incremental replay of the WAL tail;
3. **cold** times computing the same least fixpoint from the bare edge
   set, i.e. a restart without the storage engine.

The recovered model is asserted fact-for-fact identical to the cold
model; the full (non-smoke) run asserts recovery is >=5x faster.  Smoke
runs only validate behaviour and report shape.

Run with::

    PYTHONPATH=src python benchmarks/bench_recovery.py           # JSON on stdout
    PYTHONPATH=src python benchmarks/bench_recovery.py --smoke   # tiny + shape check
    pytest benchmarks/bench_recovery.py --benchmark-only -s      # harness run
"""

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_kernels import LIMITS, overlap_database  # noqa: E402
from repro import compute_least_fixpoint  # noqa: E402
from repro.language.parser import parse_program  # noqa: E402
from repro.storage import open_session  # noqa: E402


#: Non-linear transitive closure of the overlap graph.  The non-linear
#: variant re-derives each reachable pair once per intermediate vertex,
#: so the cold fixpoint pays join work roughly quadratic in component
#: size — exactly the work a snapshot restore skips, since recovery cost
#: is linear in the *final* model.  (bench_kernels uses the linear rule,
#: whose cold cost is insert-dominated and would understate the gap.)
RECOVERY_PROGRAM = """
reach(X, Y) :- overlap(X, Y).
reach(X, Z) :- reach(X, Y), reach(Y, Z).
"""

#: Edges per post-checkpoint batch.  The point of a checkpoint is that
#: the WAL tail stays short — recovery replays only the work that arrived
#: since, so the tail models "a few batches landed after the last
#: background checkpoint", not a second copy of the workload.
_TAIL_BATCH_EDGES = 4


def _ingest_and_crash(data_dir, edge_rows, tail_batches):
    """Durably ingest the workload, checkpoint, add a tail, then crash."""
    session = open_session(
        RECOVERY_PROGRAM,
        data_dir,
        limits=LIMITS,
        storage_options={"background_checkpoints": False},
    )
    split = max(1, len(edge_rows) - tail_batches * _TAIL_BATCH_EDGES)
    head, tail_edges = edge_rows[:split], edge_rows[split:]
    session.add_facts([("overlap", edge) for edge in head])
    session.storage.checkpoint()
    for start in range(0, len(tail_edges), _TAIL_BATCH_EDGES):
        batch = tail_edges[start:start + _TAIL_BATCH_EDGES]
        session.add_facts([("overlap", edge) for edge in batch])
    stats = session.storage.stats()
    session.storage.abandon()  # crash: drop handles, flush nothing further
    return stats


def _model_facts(interpretation):
    return {
        (predicate, tuple(str(value) for value in row))
        for predicate in interpretation.predicates()
        for row in interpretation.tuples(predicate)
    }


def _bench_case(label, reads, read_length, tail_batches=3):
    database = overlap_database(reads, read_length)
    edge_rows = [
        tuple(value.text for value in row)
        for row in database.relation("overlap")
    ]
    program = parse_program(RECOVERY_PROGRAM)

    # Untimed warmup: pays first-time interning and plan compilation so
    # neither timed path subsidises the other.
    compute_least_fixpoint(program, database, limits=LIMITS, strategy="compiled")

    data_dir = tempfile.mkdtemp(prefix="bench-recovery-")
    try:
        _ingest_and_crash(data_dir, edge_rows, tail_batches)

        started = time.perf_counter()
        recovered = open_session(RECOVERY_PROGRAM, data_dir, limits=LIMITS)
        recovery_seconds = time.perf_counter() - started
        report = recovered.storage.recovery

        started = time.perf_counter()
        cold = compute_least_fixpoint(
            program, database, limits=LIMITS, strategy="compiled"
        )
        cold_seconds = time.perf_counter() - started

        identical = _model_facts(recovered.interpretation) == _model_facts(
            cold.interpretation
        )
        assert identical, f"{label}: recovered model differs from cold fixpoint"
        assert report.snapshot_generation is not None, (
            f"{label}: recovery did not use the snapshot"
        )
        assert report.replayed_batches == tail_batches, (
            f"{label}: expected a {tail_batches}-batch WAL tail, replayed "
            f"{report.replayed_batches}"
        )
        facts = recovered.fact_count()
        recovered.storage.close(final_snapshot=False)
        recovered.close()
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)

    return {
        "case": label,
        "kind": "recovery",
        "facts": facts,
        "edges": len(edge_rows),
        "replayed_batches": report.replayed_batches,
        "dropped_batches": report.dropped_batches,
        "identical": identical,
        "used_snapshot": report.snapshot_generation is not None,
        "recovery_seconds": round(recovery_seconds, 4),
        "cold_seconds": round(cold_seconds, 4),
        "speedup_recovery_vs_cold": round(
            cold_seconds / max(recovery_seconds, 1e-9), 2
        ),
    }


def run_benchmarks(smoke=False):
    if smoke:
        cases = [_bench_case("genome-overlap-40x10", 40, 10)]
    else:
        cases = [
            _bench_case("genome-overlap-250x12", 250, 12),
            _bench_case("genome-overlap-300x12", 300, 12),
        ]
    report = {
        "benchmark": "recovery",
        "unit": "seconds",
        "smoke": smoke,
        "cases": cases,
    }
    validate_report(report)
    if not smoke:
        worst = min(case["speedup_recovery_vs_cold"] for case in cases)
        for case in cases:
            case["asserted"] = True
        assert worst >= 5.0, (
            f"expected snapshot+WAL-tail recovery >=5x faster than the cold "
            f"fixpoint, got {worst}x"
        )
    return report


_CASE_SHAPE = {
    "facts": int,
    "edges": int,
    "replayed_batches": int,
    "dropped_batches": int,
    "identical": bool,
    "used_snapshot": bool,
    "recovery_seconds": float,
    "cold_seconds": float,
    "speedup_recovery_vs_cold": float,
}


def validate_report(report):
    """Check the JSON shape and per-case identity claims (check.sh smokes)."""
    assert report["benchmark"] == "recovery" and report["unit"] == "seconds"
    assert isinstance(report["cases"], list) and report["cases"]
    for case in report["cases"]:
        assert isinstance(case.get("case"), str), "benchmark case missing 'case'"
        assert case.get("kind") == "recovery", f"unknown case kind in {case}"
        for key, expected in _CASE_SHAPE.items():
            assert key in case, f"{case['case']}: missing key {key!r}"
            value = case[key]
            if expected is float:
                assert isinstance(value, (int, float)), (
                    f"{case['case']}: key {key!r} should be numeric, got "
                    f"{type(value).__name__}"
                )
            else:
                assert isinstance(value, expected), (
                    f"{case['case']}: key {key!r} should be "
                    f"{expected.__name__}, got {type(value).__name__}"
                )
        assert case["identical"], f"{case['case']}: recovered model differs"
        assert case["used_snapshot"], f"{case['case']}: recovery skipped the snapshot"
        assert case["dropped_batches"] == 0, f"{case['case']}: committed batches lost"
    json.dumps(report)  # must be serialisable as-is


def test_recovery_benchmark(benchmark):
    report = run_benchmarks(smoke=True)
    print()
    print(json.dumps(report, indent=2))

    def recover_once():
        data_dir = tempfile.mkdtemp(prefix="bench-recovery-")
        try:
            database = overlap_database(30, 10)
            edge_rows = [
                tuple(value.text for value in row)
                for row in database.relation("overlap")
            ]
            _ingest_and_crash(data_dir, edge_rows, tail_batches=2)
            session = open_session(RECOVERY_PROGRAM, data_dir, limits=LIMITS)
            session.storage.close(final_snapshot=False)
            session.close()
        finally:
            shutil.rmtree(data_dir, ignore_errors=True)

    benchmark.pedantic(recover_once, rounds=3, iterations=1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny workload: validate behaviour and JSON shape, skip the "
        ">=5x recovery-speedup assertion",
    )
    args = parser.parse_args(argv)
    print(json.dumps(run_benchmarks(smoke=args.smoke), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
