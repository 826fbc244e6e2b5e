"""Engine-core benchmark: interpreted vs compiled evaluation.

Compares the two fixpoint strategies (the naive reference and the compiled
dependency-scheduled semi-naive engine) on the two flagship workloads —
Theorem 1 Turing-machine simulation and the Example 7.2 genome
transcription simulation — verifying that both agree on the fixpoint and
emitting a JSON record for the performance trajectory::

    PYTHONPATH=src python benchmarks/bench_engine_core.py          # JSON on stdout
    pytest benchmarks/bench_engine_core.py --benchmark-only -s     # harness run
"""

import json
import time

from repro import EvaluationLimits, SequenceDatabase, compute_least_fixpoint
from repro.core import paper_programs
from repro.engine.fixpoint import COMPILED, NAIVE, STRATEGIES
from repro.engine.query import output_relation
from repro.turing import machines
from repro.turing.compile_to_datalog import compile_tm_to_sequence_datalog, strip_blanks
from repro.workloads import random_dna

TM_LIMITS = EvaluationLimits(max_iterations=400, max_sequence_length=400)


def _workloads():
    """(label, program, database, check) cases; check() validates a result."""
    cases = []

    for factory, word in (
        (machines.increment_machine, "1101"),
        (machines.complement_machine, "01101"),
    ):
        machine = factory()
        program = compile_tm_to_sequence_datalog(machine)
        database = SequenceDatabase.single_input(word)
        expected = machine.compute(word).text

        def check(result, machine=machine, expected=expected):
            derived = {
                strip_blanks(o, machine) for o in output_relation(result.interpretation)
            }
            return derived == {expected}

        cases.append((f"thm1-tm-{machine.name}-{word}", program, database, check))

    for count, length in ((3, 9), (5, 12)):
        program = paper_programs.transcribe_simulation_program()
        strands = [random_dna(length, seed=count * 100 + i) for i in range(count)]
        database = SequenceDatabase.from_dict({"dnaseq": strands})

        def check(result, strands=strands):
            produced = {row[0].text for row in result.interpretation.tuples("rnaseq")}
            return len(produced) == len(set(strands))

        cases.append((f"ex72-genome-{count}x{length}", program, database, check))

    return cases


def run_benchmarks():
    """Evaluate every workload under every strategy; return the JSON record."""
    report = {"benchmark": "engine_core", "unit": "seconds", "cases": []}
    for label, program, database, check in _workloads():
        entry = {"case": label, "strategies": {}}
        fixpoints = {}
        for strategy in STRATEGIES:
            started = time.perf_counter()
            result = compute_least_fixpoint(
                program, database, limits=TM_LIMITS, strategy=strategy
            )
            elapsed = time.perf_counter() - started
            assert check(result), f"{label}: wrong fixpoint under {strategy}"
            fixpoints[strategy] = result.interpretation
            entry["strategies"][strategy] = {
                "seconds": round(elapsed, 4),
                "iterations": result.iterations,
                "facts": result.fact_count,
            }
        assert fixpoints[NAIVE] == fixpoints[COMPILED], f"{label}: strategy mismatch"
        naive_time = entry["strategies"][NAIVE]["seconds"]
        compiled_time = max(entry["strategies"][COMPILED]["seconds"], 1e-9)
        entry["speedup_compiled_vs_naive"] = round(naive_time / compiled_time, 2)
        report["cases"].append(entry)
    return report


def test_engine_core_interpreted_vs_compiled(benchmark):
    report = run_benchmarks()
    print()
    print(json.dumps(report, indent=2))

    program = compile_tm_to_sequence_datalog(machines.complement_machine())
    database = SequenceDatabase.single_input("01101")
    benchmark.pedantic(
        lambda: compute_least_fixpoint(
            program, database, limits=TM_LIMITS, strategy=COMPILED
        ),
        rounds=3,
        iterations=1,
    )


if __name__ == "__main__":
    print(json.dumps(run_benchmarks(), indent=2))
