"""Answers computed apart from the program, and the checks against them.

Nothing here imports the package under test: the closure is a plain BFS,
transcription is ``str.translate``, translation uses this module's own copy
of the standard codon table, the reverse complement is a reversed
``str.translate``, and EcoRI sites are found with a ``str.find`` loop.
Every check raises :class:`OracleMismatch` naming the first difference.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

Pair = Tuple[str, str]

TRANSCRIBE = str.maketrans("acgt", "ugca")
COMPLEMENT = str.maketrans("acgt", "tgca")
ECORI = "gaattc"

_BASES = "ucag"
_AMINO = (
    "FFLLSSSSYY**CC*W"
    "LLLLPPPPHHQQRRRR"
    "IIIMTTTTNNKKSSRR"
    "VVVVAAAADDEEGGGG"
)
#: The standard genetic code, RNA codon -> one-letter amino acid ("*" stop).
CODONS: Dict[str, str] = {
    a + b + c: _AMINO[16 * i + 4 * j + k]
    for i, a in enumerate(_BASES)
    for j, b in enumerate(_BASES)
    for k, c in enumerate(_BASES)
}


class OracleMismatch(AssertionError):
    """An output of the program differs from the independent answer."""


def closure(edges: Iterable[Pair]) -> Set[Pair]:
    """Every (x, y) with a non-empty path x -> y, by BFS from each node."""
    successors: Dict[str, List[str]] = {}
    for left, right in edges:
        successors.setdefault(left, []).append(right)
    pairs: Set[Pair] = set()
    for start in successors:
        seen: Set[str] = set()
        queue = deque(successors[start])
        while queue:
            node = queue.popleft()
            if node in seen:
                continue
            seen.add(node)
            queue.extend(successors.get(node, ()))
        pairs.update((start, node) for node in seen)
    return pairs


def transcribe(dna: str) -> str:
    return dna.translate(TRANSCRIBE)


def translate(rna: str) -> str:
    """Codon by codon; trailing bases that do not complete a codon are dropped."""
    return "".join(CODONS[rna[i:i + 3]] for i in range(0, len(rna) - 2, 3))


def reverse_complement(dna: str) -> str:
    return dna.translate(COMPLEMENT)[::-1]


def site_suffixes(dna: str, site: str = ECORI) -> Set[str]:
    """The suffix of ``dna`` starting at each occurrence of ``site``."""
    found: Set[str] = set()
    at = dna.find(site)
    while at >= 0:
        found.add(dna[at:])
        at = dna.find(site, at + 1)
    return found


def genome_relations(strands: Iterable[str]) -> Dict[str, Set[Tuple[str, ...]]]:
    """The expected rows of every output relation of the genome analysis."""
    strands = list(strands)
    return {
        "rnaseq": {(d, transcribe(d)) for d in strands},
        "proteinseq": {(d, translate(transcribe(d))) for d in strands},
        "revcomp": {(d, reverse_complement(d)) for d in strands},
        "site_at": {(d, s) for d in strands for s in site_suffixes(d)},
    }


def expect_equal(what: str, got: Set, expected: Set) -> None:
    """Raise unless the two row sets are equal (no missing, no extra rows)."""
    if got == expected:
        return
    missing = sorted(expected - got)[:3]
    extra = sorted(got - expected)[:3]
    raise OracleMismatch(
        f"{what}: {len(got)} rows, expected {len(expected)}; "
        f"missing {missing}, extra {extra}"
    )


def check_relations(got: Mapping[str, Set], expected: Mapping[str, Set]) -> None:
    for name, rows in expected.items():
        expect_equal(name, got.get(name, set()), rows)


def check_delta(
    rows, generation: int, coalesced: int, written: Optional[int],
    expected: Set[Tuple[str, ...]], delivered: Set[Tuple[str, ...]],
) -> None:
    """One watch delta answers exactly one write, with only new rows.

    ``delivered`` (every row pushed so far) grows by the delta's rows.
    """
    found = {tuple(row) for row in rows}
    if coalesced or generation != written:
        raise OracleMismatch(
            f"delta for generation {generation} (coalesced {coalesced}) "
            f"does not answer the write published as generation {written}"
        )
    if len(found) != len(rows) or found & delivered:
        raise OracleMismatch(f"delta of generation {generation} repeats a delivered row")
    expect_equal(f"delta of generation {generation}", found, expected)
    delivered |= found


class ServedModel:
    """The client's own model of what it wrote to a server.

    ``closure`` servers hold ``link`` edges; the model answers
    ``reach(x, Y)`` by BFS and knows which pairs each write creates.
    ``construct`` servers hold ``dnaseq`` strands; the model answers
    ``proteinseq(d, P)`` with the string functions above.
    """

    def __init__(self, workload: str, preload: Mapping[str, List[Tuple[str, ...]]]):
        self.workload = workload
        self.successors: Dict[str, List[str]] = {}
        self.predecessors: Dict[str, List[str]] = {}
        self.strands: List[str] = []
        self.base: Set[Tuple[str, ...]] = set()
        for rows in preload.values():
            for row in rows:
                self._add(tuple(row))

    def _add(self, row: Tuple[str, ...]) -> None:
        self.base.add(row)
        if self.workload == "closure":
            left, right = row
            self.successors.setdefault(left, []).append(right)
            self.predecessors.setdefault(right, []).append(left)
        else:
            self.strands.append(row[0])

    def _reachable(self, start: str, graph: Mapping[str, List[str]]) -> Set[str]:
        seen: Set[str] = set()
        stack = list(graph.get(start, ()))
        while stack:
            node = stack.pop()
            if node not in seen:
                seen.add(node)
                stack.extend(graph.get(node, ()))
        return seen

    def write(self, rows: Iterable[Tuple[str, ...]]) -> Set[Pair]:
        """Record a write; return the rows it adds to the watched relation."""
        new: Set[Pair] = set()
        for row in rows:
            row = tuple(row)
            if self.workload == "closure":
                left, right = row
                sources = self._reachable(left, self.predecessors) | {left}
                targets = self._reachable(right, self.successors) | {right}
                before = {
                    (s, t) for s in sources
                    for t in self._reachable(s, self.successors) & targets
                }
                self._add(row)
                new |= {(s, t) for s in sources for t in targets} - before
            else:
                self._add(row)
                new.add((row[0], translate(transcribe(row[0]))))
        return new

    def answer(self, key: str) -> Set[Tuple[str, ...]]:
        """Rows of the point query on ``key``."""
        if self.workload == "closure":
            return {(key, node) for node in self._reachable(key, self.successors)}
        return {(key, translate(transcribe(key)))}

    def watched(self) -> Set[Tuple[str, ...]]:
        """Every row of the watched relation."""
        if self.workload == "closure":
            return closure(self.base)
        return {(d, translate(transcribe(d))) for d in self.strands}

    def fact_count(self) -> int:
        """Facts in the model: base rows plus every derived row."""
        if self.workload == "closure":
            return len(self.base) + len(closure(self.base))
        return 3 * len(set(self.strands))
