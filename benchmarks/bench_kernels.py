"""Batch kernel benchmark: vectorized joins vs the per-tuple executor.

Measures the tentpole claim of :mod:`repro.engine.kernels` — that firing a
join-pure clause as a pipeline of batch operators over interned-id columns
beats the per-tuple generator pipeline — and emits a JSON record:

* **genome-overlap** — transitive closure of the suffix/prefix overlap
  graph of random DNA reads (the assembly-style join workload of the
  genome examples: ``overlap/2`` edges are k-mer matches between reads);
* **turing-orbit** — reachability over the configuration-successor graph
  of the increment Turing machine iterated from ``"0"`` (``step/2`` holds
  one edge per machine application, so ``reach`` sweeps the whole orbit).

Both programs are recursive two-atom joins: exactly the plans
:func:`repro.engine.kernels.batch_classification` routes to the kernels.
Each case evaluates the same program twice — ``use_kernels=True`` and
``False`` — asserts the two models are fact-for-fact identical, and
records the speedup.  The full (non-smoke) run asserts the genome case
reaches >=2x; smoke runs only validate behaviour and report shape.

Run with::

    PYTHONPATH=src python benchmarks/bench_kernels.py            # JSON on stdout
    PYTHONPATH=src python benchmarks/bench_kernels.py --smoke    # tiny + shape check
    pytest benchmarks/bench_kernels.py --benchmark-only -s       # harness run
"""

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro import (  # noqa: E402
    EvaluationLimits,
    SequenceDatabase,
    compute_least_fixpoint,
)
from repro.engine import kernel_stats, reset_kernel_stats  # noqa: E402
from repro.language.parser import parse_program  # noqa: E402
from repro.turing import machines  # noqa: E402
from repro.workloads import random_dna_strings  # noqa: E402

LIMITS = EvaluationLimits(
    max_iterations=5_000, max_facts=5_000_000, max_domain_size=2_000_000,
    max_sequence_length=2_000,
)

OVERLAP_PROGRAM = """
reach(X, Y) :- overlap(X, Y).
reach(X, Z) :- reach(X, Y), overlap(Y, Z).
"""

ORBIT_PROGRAM = """
reach(X, Y) :- step(X, Y).
reach(X, Z) :- reach(X, Y), step(Y, Z).
halting(X) :- reach(X, Y), halt(Y).
"""


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def overlap_database(reads, read_length, k=3, seed=1700):
    """Random DNA reads plus their k-mer overlap graph (suffix_k = prefix_k)."""
    strands = sorted(set(random_dna_strings(reads, read_length, seed=seed)))
    by_prefix = {}
    for strand in strands:
        by_prefix.setdefault(strand[:k], []).append(strand)
    edges = [
        (left, right)
        for left in strands
        for right in by_prefix.get(left[-k:], ())
        if left != right
    ]
    return SequenceDatabase.from_dict({"overlap": edges})


def orbit_database(chain_length):
    """The increment machine iterated from "0": one step/2 edge per run."""
    machine = machines.increment_machine()
    word = "0"
    edges = []
    for _ in range(chain_length):
        successor = machine.compute(word).text
        edges.append((word, successor))
        word = successor
    return SequenceDatabase.from_dict({"step": edges, "halt": [(word,)]})


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def _evaluate(program, database, use_kernels, repeats):
    started = time.perf_counter()
    for _ in range(repeats):
        result = compute_least_fixpoint(
            program, database, limits=LIMITS, strategy="compiled",
            use_kernels=use_kernels,
        )
    return (time.perf_counter() - started) / repeats, result


def _bench_case(label, program_text, database, repeats=1):
    program = parse_program(program_text)
    # Untimed warmup: pays all first-time sequence interning (and index
    # construction on the base relations) so neither timed path subsidises
    # the other.
    compute_least_fixpoint(program, database, limits=LIMITS, strategy="compiled")

    reset_kernel_stats()
    batch_seconds, on = _evaluate(program, database, True, repeats)
    stats = kernel_stats()
    tuple_seconds, off = _evaluate(program, database, False, repeats)

    identical = on.interpretation == off.interpretation
    assert identical, f"{label}: kernels on/off computed different models"
    batch_used = stats["batched_firings"] > 0 and not stats["fallbacks"]
    assert batch_used, (
        f"{label}: expected every firing on the kernel path, got {stats}"
    )
    return {
        "case": label,
        "kind": "kernels",
        "facts": on.fact_count,
        "batch_seconds": round(batch_seconds, 4),
        "tuple_seconds": round(tuple_seconds, 4),
        "speedup_batch_vs_tuple": round(
            tuple_seconds / max(batch_seconds, 1e-9), 2
        ),
        "identical": identical,
        "batch_used": batch_used,
        "batched_firings": stats["batched_firings"],
        "facts_emitted": stats["facts_emitted"],
    }


def run_benchmarks(smoke=False):
    if smoke:
        reads, read_length, chain = 40, 10, 25
    else:
        reads, read_length, chain = 350, 12, 400
    cases = [
        _bench_case(
            f"genome-overlap-{reads}x{read_length}",
            OVERLAP_PROGRAM,
            overlap_database(reads, read_length),
        ),
        _bench_case(
            f"turing-orbit-{chain}",
            ORBIT_PROGRAM,
            orbit_database(chain),
        ),
    ]
    report = {
        "benchmark": "kernels",
        "unit": "seconds",
        "smoke": smoke,
        "cases": cases,
    }
    validate_report(report)
    if not smoke:
        genome = cases[0]
        genome["asserted"] = True
        assert genome["speedup_batch_vs_tuple"] >= 2.0, (
            f"{genome['case']}: expected >=2x batch speedup, got "
            f"{genome['speedup_batch_vs_tuple']}x"
        )
    return report


_CASE_SHAPE = {
    "facts": int,
    "batch_seconds": float,
    "tuple_seconds": float,
    "speedup_batch_vs_tuple": float,
    "identical": bool,
    "batch_used": bool,
    "batched_firings": int,
    "facts_emitted": int,
}


def validate_report(report):
    """Check the JSON shape and per-case identity claims (check.sh smokes)."""
    assert report["benchmark"] == "kernels" and report["unit"] == "seconds"
    assert isinstance(report["cases"], list) and report["cases"]
    for case in report["cases"]:
        assert isinstance(case.get("case"), str), "benchmark case missing 'case'"
        assert case.get("kind") == "kernels", f"unknown case kind in {case}"
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
        assert case["identical"], f"{case['case']}: kernel model differs"
        assert case["batch_used"], f"{case['case']}: kernels were not used"
    json.dumps(report)  # must be serialisable as-is


def test_kernels_benchmark(benchmark):
    report = run_benchmarks(smoke=True)
    print()
    print(json.dumps(report, indent=2))
    program = parse_program(OVERLAP_PROGRAM)
    database = overlap_database(60, 10)

    def evaluate():
        compute_least_fixpoint(
            program, database, limits=LIMITS, strategy="compiled",
            use_kernels=True,
        )

    benchmark.pedantic(evaluate, rounds=3, iterations=1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny workloads: validate behaviour and JSON shape, skip the "
        "speedup assertion",
    )
    args = parser.parse_args(argv)
    print(json.dumps(run_benchmarks(smoke=args.smoke), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
