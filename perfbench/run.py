"""One run of the end-to-end benchmark.

    python3 perfbench/run.py --workload closure|construct --seed N \\
        --seconds S --trace 0|1

A run drives one workload the way users drive the engine:

1. **set-up** — generate the inputs from the seed, parse and plan the
   in-process program and evaluate it once cold; start a durable leader
   (preloaded, checkpointed) and a follower, each in its own process, and
   open a watch on the follower;
2. **loop** — ``WRITE_RATE * --seconds`` closed-loop rounds of one client:
   write one batch to the leader, wait for its delta from the follower's
   watch, ask nine point queries and ask them again (result cache).
   Spread between the rounds: warm from-scratch evaluations of the
   in-process program (30% of ``--seconds``) and restarts of a fresh
   leader process from a crash image taken a quarter of the way in;
3. **after the loop** — final checks, then SIGKILL the leader and restart
   one more from the real crash image, checked against a from-scratch
   evaluation of exactly the acknowledged facts.

Every output is checked against :mod:`perfbench.oracles`.  The first
operation or check that fails (a wrong answer, an error from the program, a
child that dies, the time budget) ends the run: the result line then says
``correct: false`` and ``failed: 1``, and the exit code is 1.  Timings are the
minimum of many identical samples (the order statistic that repeats on a
shared host); medians and tails are printed beside them.  The last line of
standard output is the result; with ``--trace 1`` its metrics are the
per-layer ones from :mod:`perfbench.trace` instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import inputs  # noqa: E402

WORKLOADS = ("closure", "construct")
TMP = ROOT / ".perfbench_tmp"
OUT = ROOT / ".perfbench_out"
#: A whole run must end well inside the driver's 180 s.
DEADLINE_SECONDS = 170


class Deadline(Exception):
    """The run overran its time budget."""


def _arguments(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _reexec_with_hash_seed(seed: int) -> None:
    """Run this process under the seed's PYTHONHASHSEED (exec keeps the pid)."""
    wanted = str(inputs.hash_seed(seed))
    if os.environ.get("PYTHONHASHSEED") != wanted:
        env = dict(os.environ, PYTHONHASHSEED=wanted)
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]], env)


def _child_env(seed: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(inputs.hash_seed(seed)))
    env.pop("PYTHONPATH", None)
    return env


def _commit() -> str:
    """HEAD of the checkout's own ``.git``, if it has one (no parent search)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head[:12]
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()[:12]
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0][:12]
    except OSError:
        pass
    return "unknown"


def _host_facts() -> dict:
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "commit": _commit(),
        "machine": platform.machine(),
    }


def _on_alarm(*_):
    raise Deadline(f"run exceeded {DEADLINE_SECONDS} s")


def _on_term(signum, _frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = _arguments(argv)
    _reexec_with_hash_seed(args.seed)
    signal.signal(signal.SIGTERM, _on_term)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEADLINE_SECONDS)

    # Imported only now: the program under test must see the hash seed.
    from perfbench.procs import Fleet
    from perfbench.workload import Run

    TMP.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP))
    fleet = Fleet(workdir, _child_env(args.seed))
    run = None
    try:
        run = Run(args.workload, args.seed, args.seconds, bool(args.trace), workdir, fleet)
        outcome = run.execute()
    except Exception as error:  # a failed operation or check ends the run
        print(f"run failed: {type(error).__name__}: {error}", file=sys.stderr)
        attempted = run.attempted if run is not None else 0
        print(json.dumps({"correct": False, "attempted": max(1, attempted),
                          "failed": 1, "metrics": {}}))
        return 1
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        fleet.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass
    print(json.dumps({
        "workload": args.workload,
        "seeds": {"workload": args.seed, "hash": inputs.hash_seed(args.seed)},
        "host": _host_facts(),
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "reference": outcome["reference"],
    }, sort_keys=True))
    if outcome.get("trace_report"):
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-{args.seed}.json"
        path.write_text(json.dumps(outcome["trace_report"], indent=1, sort_keys=True))
        print(json.dumps({"trace_file": str(path.relative_to(ROOT)),
                          "traced_end_to_end": outcome["traced_end_to_end"]}, sort_keys=True))
    print(json.dumps({
        "correct": outcome["correct"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": outcome["metrics"],
    }))
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
