"""The work of one served write follows the write, not the model.

``T_{P,db}`` is monotone, so every derivation a write adds joins at least
one delta fact; a firing that starts from the delta (the plan's
delta-first order) costs what the write costs.  Each test here pins the
kernel counters of one maintenance run at two model sizes: equal counts
mean the write did not scan what the model already held.  The grown model
is checked against the naive oracle.
"""

from repro.database import SequenceDatabase
from repro.engine.fixpoint import NAIVE, compute_least_fixpoint
from repro.engine.kernels import kernel_stats, reset_kernel_stats
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
