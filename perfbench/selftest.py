"""Show that every oracle of the benchmark rejects a corrupted answer.

    python3 perfbench/selftest.py

For each workload it evaluates the program on seed 1's inputs, checks the
true answer passes, then corrupts it the smallest way that matters (one
flipped base or amino acid, one dropped reach pair, one extra row, a
repeated delta row, a delta labelled with the wrong generation) and checks
the oracle raises.
Exits 0 only if every corruption is caught and no true answer is refused.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

import repro  # noqa: E402
from perfbench import inputs, oracles  # noqa: E402
from perfbench.launcher import LIMITS, transducers  # noqa: E402

FLIP = str.maketrans("acgtu", "cgtag")


def _flip_first(text: str) -> str:
    """The text with its first symbol changed: a base, or an amino acid."""
    if not text:
        return "a"
    first = text[0].translate(FLIP)
    if first == text[0]:
        first = "W" if first != "W" else "G"
    return first + text[1:]


def _caught(label: str, check) -> bool:
    try:
        check()
    except oracles.OracleMismatch:
        print(f"caught   {label}")
        return True
    print(f"MISSED   {label}")
    return False


def _passes(label: str, check) -> bool:
    try:
        check()
    except oracles.OracleMismatch as error:
        print(f"REFUSED  {label}: {error}")
        return False
    print(f"passes   {label}")
    return True


def _relations(result, names):
    return {
        name: set(repro.evaluate_query(result.interpretation, f"{name}(X, Y)").texts())
        for name in names
    }


def _corruptions(got: dict) -> list:
    """(label, corrupted copy) pairs: flipped symbol, dropped row, extra row."""
    found = []
    for name, rows in sorted(got.items()):
        ordered = sorted(rows)
        first = ordered[0]
        flipped = (first[0], _flip_first(first[1]))
        found.append((f"{name}: one flipped symbol", {**got, name: (rows - {first}) | {flipped}}))
        found.append((f"{name}: one dropped row", {**got, name: rows - {first}}))
        extra = (first[0], first[1] + "a")
        found.append((f"{name}: one extra row", {**got, name: rows | {extra}}))
    return found


def main() -> int:
    ok = True
    edges = inputs.overlap_edges(1)
    closure = repro.compute_least_fixpoint(
        repro.parse_program(inputs.OVERLAP_CLOSURE),
        repro.SequenceDatabase.from_dict({"overlap": edges}), limits=LIMITS,
    )
    expected = {"reach": oracles.closure(edges)}
    got = _relations(closure, expected)
    ok &= _passes("closure fixpoint", lambda: oracles.check_relations(got, expected))
    for label, bad in _corruptions(got):
        ok &= _caught(f"closure {label}", lambda bad=bad: oracles.check_relations(bad, expected))

    strands = inputs.genome_strands(1)
    genome = repro.compute_least_fixpoint(
        repro.parse_program(inputs.GENOME_ANALYSIS),
        repro.SequenceDatabase.from_dict({"dnaseq": [(s,) for s in strands]}),
        limits=LIMITS, transducers=transducers({"transducers": True}),
    )
    expected = oracles.genome_relations(strands)
    got = _relations(genome, expected)
    ok &= _passes("construct fixpoint", lambda: oracles.check_relations(got, expected))
    for label, bad in _corruptions(got):
        ok &= _caught(f"construct {label}", lambda bad=bad: oracles.check_relations(bad, expected))

    for workload in ("closure", "construct"):
        served = inputs.served_inputs(workload, 1, 4)
        model = oracles.ServedModel(workload, served.preload)
        key = served.rounds[0].keys[0]
        delivered = set(model.watched())
        written = [row for _name, row in served.rounds[0].facts]
        new = model.write(written)
        answer = model.answer(key)
        one = sorted(answer)[0]
        ok &= _caught(
            f"{workload} point query with one dropped row",
            lambda: oracles.expect_equal(key, answer - {one}, model.answer(key)),
        )
        ok &= _caught(
            f"{workload} point query with one flipped symbol",
            lambda: oracles.expect_equal(
                key, (answer - {one}) | {(one[0], _flip_first(one[1]))}, model.answer(key)
            ),
        )
        row = sorted(new)[0]
        ok &= _caught(
            f"{workload} delta with a dropped row",
            lambda: oracles.check_delta(
                sorted(new - {row}), 2, 0, 2, new, set(delivered)),
        )
        ok &= _caught(
            f"{workload} delta repeating a delivered row",
            lambda: oracles.check_delta(
                sorted(new) + [sorted(delivered)[0]], 2, 0, 2, new, set(delivered)),
        )
        ok &= _caught(
            f"{workload} delta for another generation",
            lambda: oracles.check_delta(sorted(new), 3, 0, 2, new, set(delivered)),
        )
        ok &= _passes(
            f"{workload} true delta",
            lambda: oracles.check_delta(sorted(new), 2, 0, 2, new, set(delivered)),
        )
    print("every corruption caught" if ok else "SOME ORACLE IS BLIND")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
