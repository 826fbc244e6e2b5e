#!/usr/bin/env python
"""Compare fresh benchmark --smoke runs against committed baselines.

Each baseline under ``benchmarks/baselines/*.json`` records one benchmark's
smoke report plus a comparison policy::

    {
      "benchmark": "demand",
      "command": ["benchmarks/bench_demand.py", "--smoke"],
      "exact_case_keys": ["case", "full_facts", ...],   # must match exactly
      "bounded_case_keys": {"speedup_...": {"min": 0.05}},  # tolerance band
      "cases": [...]
    }

The deterministic fields (fact counts, answer counts, restriction and
identity flags) are the regression teeth: they change only when evaluation
semantics change.  Timing-derived fields get loose one-sided bounds so a
slow CI runner cannot produce flaky failures while a pathological slowdown
(or a division blow-up) still trips.  Exit status is non-zero on any
regression, which is how CI consumes this script.

Usage::

    python scripts/bench_compare.py                 # compare all baselines
    python scripts/bench_compare.py demand          # compare one
    python scripts/bench_compare.py --update        # regenerate baselines
"""

import argparse
import json
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE_DIR = os.path.join(REPO_ROOT, "benchmarks", "baselines")


def run_benchmark(command):
    """Run a benchmark command and parse its JSON stdout."""
    environment = dict(os.environ)
    source_root = os.path.join(REPO_ROOT, "src")
    existing = environment.get("PYTHONPATH")
    environment["PYTHONPATH"] = (
        source_root if not existing else source_root + os.pathsep + existing
    )
    completed = subprocess.run(
        [sys.executable] + command,
        cwd=REPO_ROOT,
        env=environment,
        capture_output=True,
        text=True,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"benchmark command {command} failed "
            f"(exit {completed.returncode}):\n{completed.stderr}"
        )
    return json.loads(completed.stdout)


def compare_case(name, baseline_case, fresh_case, exact_keys, bounded_keys):
    """Return a list of human-readable regression messages for one case."""
    problems = []
    for key in exact_keys:
        if key not in baseline_case:
            continue
        if key not in fresh_case:
            problems.append(f"{name}: fresh report lost key {key!r}")
            continue
        if fresh_case[key] != baseline_case[key]:
            problems.append(
                f"{name}: {key} changed from {baseline_case[key]!r} "
                f"to {fresh_case[key]!r}"
            )
    for key, bounds in bounded_keys.items():
        if key not in baseline_case and key not in fresh_case:
            continue
        if key not in fresh_case:
            problems.append(f"{name}: fresh report lost key {key!r}")
            continue
        value = fresh_case[key]
        if not isinstance(value, (int, float)):
            problems.append(f"{name}: {key} is not numeric ({value!r})")
            continue
        low = bounds.get("min")
        high = bounds.get("max")
        if low is not None and value < low:
            problems.append(f"{name}: {key} = {value} fell below the floor {low}")
        if high is not None and value > high:
            problems.append(f"{name}: {key} = {value} exceeded the ceiling {high}")
    return problems


def compare_baseline(baseline):
    fresh = run_benchmark(baseline["command"])
    problems = []
    label = baseline["benchmark"]
    for key in ("benchmark", "unit", "smoke"):
        if fresh.get(key) != baseline["report_meta"].get(key):
            problems.append(
                f"{label}: report meta {key} changed from "
                f"{baseline['report_meta'].get(key)!r} to {fresh.get(key)!r}"
            )
    fresh_cases = {case["case"]: case for case in fresh.get("cases", [])}
    for baseline_case in baseline["cases"]:
        name = f"{label}/{baseline_case['case']}"
        fresh_case = fresh_cases.pop(baseline_case["case"], None)
        if fresh_case is None:
            problems.append(f"{name}: case disappeared from the fresh run")
            continue
        problems.extend(
            compare_case(
                name,
                baseline_case,
                fresh_case,
                baseline["exact_case_keys"],
                baseline.get("bounded_case_keys", {}),
            )
        )
    for extra in fresh_cases:
        # New cases are fine (a benchmark grew); report them informationally.
        print(f"note: {label}/{extra} is new (not in the baseline)")
    return problems


#: Comparison policies used by ``--update`` when (re)generating baselines.
POLICIES = {
    "demand": {
        "command": ["benchmarks/bench_demand.py", "--smoke"],
        "exact_case_keys": [
            "case", "pattern", "restricted", "relevant_predicates", "seeds",
            "full_facts", "demand_facts", "answers",
        ],
        "bounded_case_keys": {
            "speedup_demand_vs_full": {"min": 0.02},
        },
    },
    "api": {
        "command": ["benchmarks/bench_api.py", "--smoke"],
        # Deterministic teeth: the paged row count and page size derive
        # only from the workload, and paged memory must stay bounded.
        "exact_case_keys": [
            "case", "kind", "clients", "queries", "rows", "page_size",
            "bounded_memory",
        ],
        "bounded_case_keys": {
            "speedup_vs_single_client": {"min": 0.2},
            "throughput_qps": {"min": 1.0},
            "memory_ratio": {"min": 1.0},
            "remote_microseconds_per_query": {"max": 200_000.0},
        },
    },
    "kernels": {
        "command": ["benchmarks/bench_kernels.py", "--smoke"],
        # The fact counts, model identity and all-firings-batched flags are
        # deterministic; only the timing ratio needs a loose floor.
        "exact_case_keys": [
            "case", "kind", "facts", "identical", "batch_used",
            "batched_firings", "facts_emitted",
        ],
        "bounded_case_keys": {
            "speedup_batch_vs_tuple": {"min": 0.05},
        },
    },
    "recovery": {
        "command": ["benchmarks/bench_recovery.py", "--smoke"],
        # The fact/edge counts, replay accounting and the identity/snapshot
        # flags are deterministic (seeded workload, fixed tail split); the
        # recovery-vs-cold ratio is meaningless at smoke scale, so it only
        # gets a divide-blow-up floor.
        "exact_case_keys": [
            "case", "kind", "facts", "edges", "replayed_batches",
            "dropped_batches", "identical", "used_snapshot",
        ],
        "bounded_case_keys": {
            "speedup_recovery_vs_cold": {"min": 0.02},
        },
    },
    "replication": {
        "command": ["benchmarks/bench_replication.py", "--smoke"],
        # The generation count, compared row count, bootstrap count and the
        # fact-for-fact identity flag are deterministic; throughput and the
        # fleet speedup vary with the host, so they only get divide-blow-up
        # floors (the >=2x claim is asserted by full runs on >=4 cores).
        "exact_case_keys": [
            "case", "kind", "followers", "batches", "generation",
            "compared_rows", "bootstraps", "identical", "nodes",
            "client_threads", "queries",
        ],
        "bounded_case_keys": {
            "throughput_qps": {"min": 1.0},
            "speedup_vs_leader_only": {"min": 0.05},
        },
    },
    "live": {
        "command": ["benchmarks/bench_live.py", "--smoke"],
        # Connection counts, consumer counts and the subscriber
        # observation total (= consumers x generations, the exact-delta
        # contract) are deterministic; poller observations, timings and
        # the push-vs-poll ratio vary with the host, so they only get
        # divide-blow-up floors (the >=5000-connection and >=2x claims
        # are asserted by full runs).
        "exact_case_keys": [
            "case", "kind", "transport", "connections", "held", "mode",
            "consumers", "generations",
        ],
        "bounded_case_keys": {
            "throughput_notifications_per_second": {"min": 1.0},
            "speedup_vs_polling": {"min": 0.05},
            "probe_ms": {"max": 30_000.0},
        },
    },
}


def update_baselines(names):
    os.makedirs(BASELINE_DIR, exist_ok=True)
    for name in names:
        policy = POLICIES[name]
        report = run_benchmark(policy["command"])
        baseline = {
            "benchmark": name,
            "command": policy["command"],
            "exact_case_keys": policy["exact_case_keys"],
            "bounded_case_keys": policy["bounded_case_keys"],
            "report_meta": {
                "benchmark": report["benchmark"],
                "unit": report["unit"],
                "smoke": report["smoke"],
            },
            "cases": report["cases"],
        }
        path = os.path.join(BASELINE_DIR, f"bench_{name}_smoke.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(baseline, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {os.path.relpath(path, REPO_ROOT)}")


def load_baselines(names):
    baselines = []
    for entry in sorted(os.listdir(BASELINE_DIR)):
        if not entry.endswith(".json"):
            continue
        path = os.path.join(BASELINE_DIR, entry)
        with open(path, encoding="utf-8") as handle:
            baseline = json.load(handle)
        if names and baseline["benchmark"] not in names:
            continue
        baselines.append(baseline)
    return baselines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "names", nargs="*",
        help="benchmark names to compare (default: every committed baseline)",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="regenerate the baseline files from fresh smoke runs",
    )
    args = parser.parse_args(argv)
    if args.update:
        update_baselines(args.names or sorted(POLICIES))
        return 0
    baselines = load_baselines(set(args.names))
    if not baselines:
        print("error: no baselines matched", file=sys.stderr)
        return 2
    problems = []
    for baseline in baselines:
        print(f"== comparing {baseline['benchmark']} against baseline ==")
        problems.extend(compare_baseline(baseline))
    if problems:
        print(f"\n{len(problems)} regression(s) against committed baselines:")
        for problem in problems:
            print(f"  FAIL {problem}")
        return 1
    print("all baselines match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
