"""Steadiness check: rerun every workload and compare run-to-run spread with the bounds.

    python3 perfbench/steady.py --runs 10 [--first-seed K] [--traced]

Runs ``run.py`` ``--runs`` times on every workload of ``BENCHMARK.json``,
alternating workloads, each run with the next seed and its
``run_seconds``.  For every end-to-end metric and workload it prints
the median, the quartiles and the extremes of the run values, their spread
``(q3 - q1) / median`` and the metric's bound from ``BENCHMARK.json``; a
spread above a third of the bound is flagged.  setup_s is one cold sample
per run, so its spread is shown but not flagged: what its bound can limit
is the shift of its median between two sets of runs.  With ``--traced``
every run is followed by a traced run on the same seed, and the per-metric
tracing overhead (traced / untraced - 1, median over runs) is printed too.
Raw results go to ``.perfbench_out/steady-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench.summary import spread  # noqa: E402


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed} trace {trace} exited {done.returncode}:\n{done.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    result["wall_s"] = time.monotonic() - started
    if trace:
        result["traced_end_to_end"] = json.loads(lines[-2])["traced_end_to_end"]
    result["reference"] = json.loads(lines[-3 if trace else -2])["reference"]
    return result


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()
    seconds = spec["run_seconds"]
    results = {workload["name"]: [] for workload in spec["workloads"]}
    for index in range(args.runs):
        seed = args.first_seed + index
        for workload in results:
            result = _run(workload, seed, seconds, 0)
            if args.traced:
                result["traced"] = _run(workload, seed, seconds, 1)
            results[workload].append(result)
            print(f"# {workload} seed {seed}: {result['wall_s']:.1f} s, "
                  f"correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}", flush=True)
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    print(f"\n{args.runs} runs per workload, --seconds {seconds}, "
          f"seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
    header = f"{'workload':10} {'metric':15} {'median':>12} {'q1':>12} {'q3':>12} " \
             f"{'min':>12} {'max':>12} {'spread':>7} {'bound':>6}"
    print(header)
    flagged = 0
    for workload, runs in results.items():
        for name, bound in bounds.items():
            values = [run["metrics"][name]["value"] for run in runs]
            if len(values) < 2:
                continue
            found = spread(values)
            mark = ""
            if name != "setup_s" and found["iqr_share"] > bound / 3:
                mark = "  > bound/3"
                flagged += 1
            print(f"{workload:10} {name:15} {found['median']:12.6g} {found['q1']:12.6g} "
                  f"{found['q3']:12.6g} {found['min']:12.6g} {found['max']:12.6g} "
                  f"{found['iqr_share']:7.3f} {bound:6.2f}{mark}")
        shares = {run["failed"] / run["attempted"] for run in runs}
        print(f"{workload:10} failed share per run: {sorted(shares)}")
    if args.traced:
        print("\ntracing overhead (traced / untraced - 1, median over runs)")
        for workload, runs in results.items():
            for name in bounds:
                ratios = [
                    run["traced"]["traced_end_to_end"][name]["value"]
                    / run["metrics"][name]["value"] - 1
                    for run in runs
                ]
                print(f"{workload:10} {name:15} {statistics.median(ratios):+8.1%}")
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    path = out / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(results, indent=1))
    print(f"\n{flagged} spreads above a third of their bound; raw results in "
          f"{path.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
