"""Seeded inputs for the two benchmark workloads.

Everything the program is handed comes from here, and only from the seed:
the same seed gives byte-identical inputs.  The shapes (how many reads,
strands, chains, writes and queries) are fixed constants, so two seeds
differ only in sequence content and the amount of work per run does not
depend on the seed.

``closure`` — the overlap-graph transitive closure of random DNA reads (the
``bench_kernels`` program) in-process, and a durable server maintaining
``reach`` over ``link`` chains that every write extends.

``construct`` — the Example 7.1 genome analysis (transcription and
translation through transducers, reverse complement by structural
recursion, EcoRI site search) in-process, and a durable server running the
Example 7.1 transducer rules that every write feeds one new strand.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

BASES = "acgt"
ECORI = "gaattc"

# ----------------------------------------------------------------------
# Programs (the program under test receives these texts verbatim)
# ----------------------------------------------------------------------
OVERLAP_CLOSURE = """\
reach(X, Y) :- overlap(X, Y).
reach(X, Z) :- reach(X, Y), overlap(Y, Z).
"""

GENOME_ANALYSIS = """\
rnaseq(D, @transcribe(D)) :- dnaseq(D).
proteinseq(D, @translate(R)) :- rnaseq(D, R).
revcomp(X, Y) :- dnaseq(X), rc(X, Y).
rc("", "") :- true.
rc(X[1:N+1], C ++ Y) :- dnaseq(X), rc(X[1:N], Y), basecomp(X[N+1], C).
basecomp("a", "t") :- true.
basecomp("t", "a") :- true.
basecomp("c", "g") :- true.
basecomp("g", "c") :- true.
site_at(R, R[N:end]) :- dnaseq(R), R[N:N+5] = "gaattc".
"""

LINK_CLOSURE = """\
reach(X, Y) :- link(X, Y).
reach(X, Z) :- reach(X, Y), link(Y, Z).
"""

EXAMPLE_7_1 = """\
rnaseq(D, @transcribe(D)) :- dnaseq(D).
proteinseq(D, @translate(R)) :- rnaseq(D, R).
"""

# ----------------------------------------------------------------------
# Sizes
# ----------------------------------------------------------------------
#: In-process closure: LAYERS layers of WIDTH reads; every read of layer i
#: overlaps every read of layer i+1 by OVERLAP bases.
LAYERS, WIDTH, OVERLAP, READ_LENGTH = 8, 20, 5, 14

#: In-process construct: STRANDS strands of STRAND_LENGTH bases, each with
#: one planted EcoRI site.
STRANDS, STRAND_LENGTH = 8, 30

#: Served closure: CHAINS link chains of CHAIN_LENGTH nodes preloaded; each
#: write appends one node to the next chain, round robin.
CHAINS, CHAIN_LENGTH, NODE_LENGTH = 300, 16, 10

#: Served construct: PRELOAD_STRANDS strands preloaded; each write adds one.
PRELOAD_STRANDS, SERVED_STRAND_LENGTH = 1500, 18

#: The server's prepared-plan cache: an LRU of this many entries, keyed by
#: the canonical pattern, constants included (``DatalogSession``'s default).
PREPARED_CACHE = 128

#: Point queries per write.  Every write puts one key whose answer it
#: changed into a pool of the RECENT_KEYS most recent such keys — half the
#: prepared-plan cache, on both workloads — and each round asks
#: RECENT_QUERIES distinct keys from that pool and OTHER_QUERIES from every
#: key written or preloaded so far (a key space many times the cache).  So
#: recent queries mostly reuse a prepared plan and the others mostly
#: compile one, in the same proportion on both workloads.
RECENT_KEYS = PREPARED_CACHE // 2
RECENT_QUERIES, OTHER_QUERIES = 6, 3

#: Writes per second of ``--seconds`` (fixed, so every run of one length
#: attempts the same rounds and the data grows by the same amount).
WRITE_RATE = {"closure": 8, "construct": 6}


def hash_seed(seed: int) -> int:
    """The PYTHONHASHSEED every benchmark process runs under for ``seed``."""
    return (seed * 2654435761 + 40503) % 4294967296


def _dna(rng: random.Random, length: int) -> str:
    return "".join(rng.choice(BASES) for _ in range(length))


def _distinct(rng: random.Random, count: int, length: int, taken: set) -> List[str]:
    found: List[str] = []
    while len(found) < count:
        word = _dna(rng, length)
        if word not in taken:
            taken.add(word)
            found.append(word)
    return found


# ----------------------------------------------------------------------
# In-process inputs
# ----------------------------------------------------------------------
def overlap_edges(seed: int) -> List[Tuple[str, str]]:
    """The k-overlap graph of layered random reads.

    Read ``j`` of layer ``i`` is ``P_i + middle + P_{i+1}`` for distinct
    boundary k-mers ``P`` and a random middle, so suffix/prefix overlaps
    join exactly consecutive layers.  The edges are computed from the
    reads by the overlap rule itself (suffix_k == prefix_k) and the planted
    shape is asserted, so the closure has exactly
    ``WIDTH**2 * LAYERS*(LAYERS-1)/2`` pairs whatever the seed.
    """
    rng = random.Random(f"closure-reads-{seed}")
    boundaries = _distinct(rng, LAYERS + 1, OVERLAP, set())
    reads: List[str] = []
    for layer in range(LAYERS):
        middles = _distinct(rng, WIDTH, READ_LENGTH - 2 * OVERLAP, set())
        reads.extend(
            boundaries[layer] + middle + boundaries[layer + 1] for middle in middles
        )
    by_prefix: Dict[str, List[str]] = {}
    for read in reads:
        by_prefix.setdefault(read[:OVERLAP], []).append(read)
    edges = [
        (left, right)
        for left in reads
        for right in by_prefix.get(left[-OVERLAP:], ())
        if left != right
    ]
    if len(edges) != WIDTH * WIDTH * (LAYERS - 1):
        raise ValueError(f"overlap graph has {len(edges)} edges, not the planted shape")
    return edges


def genome_strands(seed: int) -> List[str]:
    """STRANDS random strands, each with one EcoRI site at a random offset."""
    rng = random.Random(f"construct-strands-{seed}")
    strands: List[str] = []
    while len(strands) < STRANDS:
        body = _dna(rng, STRAND_LENGTH)
        at = rng.randrange(STRAND_LENGTH - len(ECORI) + 1)
        strand = body[:at] + ECORI + body[at + len(ECORI):]
        if strand not in strands:
            strands.append(strand)
    return strands


# ----------------------------------------------------------------------
# Served inputs
# ----------------------------------------------------------------------
Fact = Tuple[str, Tuple[str, ...]]


@dataclass
class Round:
    """One closed-loop round: a write batch and its point queries."""

    facts: List[Fact]
    keys: List[str]


@dataclass
class ServedInputs:
    """Program, preload and the timed rounds of one server workload."""

    program: str
    transducers: bool
    preload: Dict[str, List[Tuple[str, ...]]]
    rounds: List[Round] = field(default_factory=list)
    watch: str = ""
    query: str = ""
    base: str = ""


def served_inputs(workload: str, seed: int, writes: int) -> ServedInputs:
    """Preload plus ``writes`` rounds for ``workload``'s server phase."""
    rng = random.Random(f"{workload}-served-{seed}")
    if workload == "closure":
        taken: set = set()
        chains = [_distinct(rng, CHAIN_LENGTH, NODE_LENGTH, taken) for _ in range(CHAINS)]
        inputs = ServedInputs(
            program=LINK_CLOSURE,
            transducers=False,
            preload={"link": [pair for chain in chains for pair in zip(chain, chain[1:])]},
            watch="reach(X, Y)",
            query='reach("{}", Y)',
            base="link(X, Y)",
        )
        keys = [node for chain in chains for node in chain]
        # A write to a chain gives every node before the new one one more
        # reach pair; one of them, drawn at random, is that write's key.
        recent = [rng.choice(chain[:-1]) for chain in chains[-RECENT_KEYS:]]
        for index in range(writes):
            chain = chains[index % CHAINS]
            (node,) = _distinct(rng, 1, NODE_LENGTH, taken)
            facts: List[Fact] = [("link", (chain[-1], node))]
            recent.append(rng.choice(chain))
            chain.append(node)
            keys.append(node)
            inputs.rounds.append(Round(facts, _draw(rng, keys, recent[-RECENT_KEYS:])))
        return inputs
    if workload == "construct":
        taken = set()
        strands = _distinct(rng, PRELOAD_STRANDS, SERVED_STRAND_LENGTH, taken)
        inputs = ServedInputs(
            program=EXAMPLE_7_1,
            transducers=True,
            preload={"dnaseq": [(strand,) for strand in strands]},
            watch="proteinseq(D, P)",
            query='proteinseq("{}", P)',
            base="dnaseq(D)",
        )
        for _ in range(writes):
            (strand,) = _distinct(rng, 1, SERVED_STRAND_LENGTH, taken)
            strands.append(strand)
            recent = strands[-RECENT_KEYS:]
            inputs.rounds.append(Round([("dnaseq", (strand,))], _draw(rng, strands, recent)))
        return inputs
    raise ValueError(f"unknown workload {workload!r}")


def _draw(rng: random.Random, keys: List[str], recent: List[str]) -> List[str]:
    """RECENT_QUERIES keys from ``recent``, then OTHER_QUERIES more, all distinct."""
    chosen = rng.sample(recent, RECENT_QUERIES)
    while len(chosen) < RECENT_QUERIES + OTHER_QUERIES:
        key = rng.choice(keys)
        if key not in chosen:
            chosen.append(key)
    return chosen
