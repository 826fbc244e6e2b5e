"""Server processes of the benchmark, started the way an operator would.

    launcher.py leader   --spec SPEC --data-dir DIR [--preload] [--trace FILE]
    launcher.py follower --spec SPEC --leader HOST:PORT [--trace FILE]
    launcher.py evaluate --spec SPEC --facts FACTS

``leader`` serves the program durably through ``repro.serve_tcp`` (whatever
transport that facade defaults to); with ``--preload`` it ingests the
spec's preload as one durable batch and checkpoints it.  ``follower``
replicates a leader through ``repro.replication.FollowerServer`` and serves
it with the same facade.  Both print one JSON line once they answer
requests, then serve until SIGTERM (graceful close) or SIGKILL (a crash).
SIGUSR1 writes the trace of a traced server without stopping it.

``evaluate`` computes the least fixpoint of the program over a facts file
from scratch and prints its fact count: the reference a recovered server's
model is compared with.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

import repro  # noqa: E402
from repro.engine.limits import EvaluationLimits  # noqa: E402

#: Far above what either workload reaches, so no run trips a limit.
LIMITS = EvaluationLimits(
    max_iterations=10_000,
    max_facts=20_000_000,
    max_domain_size=20_000_000,
    max_sequence_length=10_000,
)


def transducers(spec: dict):
    """Example 7.1's transcription and translation machines, if the spec uses them."""
    if not spec["transducers"]:
        return None
    from repro.transducers.library import transcribe_transducer, translate_transducer

    return repro.TransducerCatalog(
        [transcribe_transducer(), translate_transducer()]
    ).callables()


def _serve_until_signalled(transport, announce: dict, tracer) -> None:
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    signal.signal(signal.SIGINT, lambda *_: stop.set())
    if tracer is not None:
        signal.signal(signal.SIGUSR1, lambda *_: tracer.dump_soon())
    host, port = transport.address
    print(json.dumps({**announce, "host": host, "port": port, "pid": os.getpid()}), flush=True)
    while not stop.wait(0.2):
        if tracer is not None:
            tracer.dump_if_asked()
    transport.close()
    if tracer is not None:
        tracer.dump()


def leader(args, spec: dict, tracer) -> None:
    database = None
    if args.preload:
        database = {name: [tuple(row) for row in rows] for name, rows in spec["preload"].items()}
    transport = repro.serve_tcp(
        spec["program"], database, data_dir=args.data_dir,
        transducers=transducers(spec), limits=LIMITS,
    )
    if args.preload:
        transport.backend.checkpoint()
    announce = {"role": "leader", "facts": transport.backend.snapshot.fact_count()}
    if tracer is not None:
        tracer.watch_server(transport)
        announce["recovery"] = tracer.recovery_summary()
    _serve_until_signalled(transport, announce, tracer)


def follower(args, spec: dict, tracer) -> None:
    replica = repro.FollowerServer(
        spec["program"], args.leader, transducers=transducers(spec), limits=LIMITS,
    )
    try:
        if not replica.wait_connected(60):
            raise SystemExit(f"follower could not reach the leader at {args.leader}")
        deadline = time.monotonic() + 120
        while replica.stats()["replication"]["bootstraps"] < 1 or replica.lag:
            if time.monotonic() > deadline:
                raise SystemExit("follower did not finish its bootstrap")
            time.sleep(0.02)
        transport = repro.serve_tcp(replica)
        if tracer is not None:
            tracer.watch_server(transport)
        _serve_until_signalled(
            transport, {"role": "follower", "facts": replica.snapshot.fact_count()}, tracer
        )
    finally:
        replica.close()


def evaluate(args, spec: dict) -> None:
    with open(args.facts) as handle:
        facts = json.load(handle)
    database = repro.SequenceDatabase.from_dict(
        {name: [tuple(row) for row in rows] for name, rows in facts.items()}
    )
    result = repro.compute_least_fixpoint(
        repro.parse_program(spec["program"]), database,
        limits=LIMITS, transducers=transducers(spec),
    )
    print(json.dumps({"facts": result.fact_count}), flush=True)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("role", choices=("leader", "follower", "evaluate"))
    parser.add_argument("--spec", required=True)
    parser.add_argument("--data-dir")
    parser.add_argument("--preload", action="store_true")
    parser.add_argument("--leader")
    parser.add_argument("--facts")
    parser.add_argument("--trace")
    args = parser.parse_args()
    with open(args.spec) as handle:
        spec = json.load(handle)
    if args.role == "evaluate":
        evaluate(args, spec)
        return
    tracer = None
    if args.trace:
        from perfbench import trace

        tracer = trace.install_server(args.role, args.trace)
    if args.role == "leader":
        leader(args, spec, tracer)
    else:
        follower(args, spec, tracer)


if __name__ == "__main__":
    main()
