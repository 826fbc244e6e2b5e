"""The work of one served write follows the write, not the model.

``T_{P,db}`` is monotone, so every derivation a write adds joins at least
one delta fact; a firing that starts from the delta (the plan's
delta-first order) costs what the write costs.  Each test here pins the
kernel counters of one maintenance run at two model sizes: equal counts
mean the write did not scan what the model already held.  The grown model
is checked against the naive oracle.  Publishing the grown model pins a
watermark of the extended domain, so its allocations are pinned too.
"""

import random
import tracemalloc

from repro.database import SequenceDatabase
from repro.engine.fixpoint import NAIVE, compute_least_fixpoint
from repro.engine.kernels import kernel_stats, reset_kernel_stats
from repro.engine.server import DatalogServer, ModelSnapshot
from repro.engine.session import DatalogSession
from repro.language.parser import parse_program

CLOSURE = """
reach(X, Y) :- link(X, Y).
reach(X, Z) :- reach(X, Y), link(Y, Z).
"""
CHAIN = 16


def _chains(count):
    links = []
    for chain in range(count):
        nodes = [f"c{chain}n{node}" for node in range(CHAIN)]
        links.extend(zip(nodes, nodes[1:]))
    return links


def _closure_write(chains):
    """Kernel work of one link appended at the end of chain 0."""
    links = _chains(chains)
    session = DatalogSession(CLOSURE, {"link": links})
    write = (f"c0n{CHAIN - 1}", f"c0n{CHAIN}")
    reset_kernel_stats()
    report = session.add_facts({"link": [write]})
    stats = kernel_stats()
    naive = compute_least_fixpoint(
        parse_program(CLOSURE),
        SequenceDatabase.from_dict({"link": links + [write]}),
        strategy=NAIVE,
    )
    assert session.interpretation == naive.interpretation
    # The new link, and one reach fact for every node of chain 0.
    assert report.facts_added == 1 + CHAIN
    return {
        "rows": stats["scan_rows"] + stats["probe_rows"],
        "batched_firings": stats["batched_firings"],
        "tuple_firings": stats["tuple_firings"],
    }


def test_closure_write_cost_does_not_grow_with_the_model():
    small, large = _closure_write(10), _closure_write(40)
    assert small == large
    assert small["tuple_firings"] == 0
    # A handful of rows per derived fact, nowhere near the ~1,200 reach
    # facts of the smaller model.
    assert small["rows"] < 4 * CHAIN


#: Far below one copy of either model's domain (tens to hundreds of KiB).
PUBLISH_BYTES = 4096


def _publish_peak(strands):
    """Domain size and traced peak bytes of one publish of the served model."""
    rng = random.Random(f"publish-{strands}")
    values = ["".join(rng.choice("acgt") for _ in range(12)) for _ in range(strands)]
    with DatalogServer("copy(X) :- base(X).", {"base": values}) as server:
        interpretation = server.session.interpretation
        tracemalloc.start()
        try:
            snapshot = ModelSnapshot.of(server.generation + 1, interpretation)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(snapshot.domain) == len(interpretation.domain)
        assert snapshot.domain == server.snapshot.domain
        return len(snapshot.domain), peak


def test_publish_does_not_copy_the_domain():
    small_domain, small_peak = _publish_peak(50)
    large_domain, large_peak = _publish_peak(500)
    assert large_domain > 5 * small_domain
    assert small_peak < PUBLISH_BYTES
    assert large_peak < PUBLISH_BYTES
