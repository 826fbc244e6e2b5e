#!/usr/bin/env bash
# The quality gate CI runs on every push: lint, tier-1 tests, and benchmark
# smoke runs with JSON-shape validation, so neither the test suite nor the
# benchmark harness can silently rot.
#
# Steps:
#   1. ruff lint over src/tests/benchmarks/scripts (skipped with a notice
#      when ruff is not installed — CI always installs it);
#   2. mypy over the strict-typed packages repro.analysis + repro.api
#      (skipped with a notice when mypy is not installed);
#   3. diagnostics over every shipped workload (scripts/lint_corpus.py):
#      no program may raise an error-severity diagnostic beyond the
#      allowlisted paper examples;
#   4. tier-1 pytest;
#   5. benchmark smokes: every benchmark registered in
#      scripts/bench_compare.py's POLICIES runs its --smoke command, and
#      its bench_<name>.validate_report checks the JSON shape and the
#      per-case identity claims;
#   6. end-to-end TCP smoke: bind a live server on a free port, drive it
#      with a real DatalogClient and a raw socket, validate the versioned
#      JSON envelopes (schema v1, typed results, structured errors);
#   7. end-to-end replication smoke: a leader and a follower as two real
#      processes wired through the --json listening envelopes, a write on
#      the leader read back from the follower, and the not_leader
#      redirect validated over the wire;
#   8. end-to-end live-watch smoke: an asyncio server watched by the
#      typed client and by a raw socket, one published generation, the
#      watching/subscription_delta envelopes validated on the wire.
#
# Baseline regression comparison lives in scripts/bench_compare.py and runs
# as its own CI job.
#
# Usage: scripts/check.sh [extra pytest args...]
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== lint (ruff) =="
if command -v ruff >/dev/null 2>&1; then
    ruff check src tests benchmarks scripts
elif python -c "import ruff" >/dev/null 2>&1; then
    python -m ruff check src tests benchmarks scripts
else
    echo "ruff not installed; skipping lint (CI installs it from requirements-dev.txt)"
fi

echo "== types (mypy) =="
if command -v mypy >/dev/null 2>&1; then
    mypy -p repro.analysis -p repro.api
elif python -c "import mypy" >/dev/null 2>&1; then
    python -m mypy -p repro.analysis -p repro.api
else
    echo "mypy not installed; skipping type check (CI installs it from requirements-dev.txt)"
fi

echo "== program diagnostics (lint corpus) =="
python scripts/lint_corpus.py

echo "== tier-1 tests =="
python -m pytest -x -q "$@"

echo "== benchmark smokes (scripts/bench_compare.py POLICIES) =="
python - <<'EOF'
import importlib
import sys

sys.path[:0] = ["scripts", "benchmarks"]
from bench_compare import POLICIES, run_benchmark

for name, policy in sorted(POLICIES.items()):
    report = run_benchmark(policy["command"])
    importlib.import_module(f"bench_{name}").validate_report(report)
    print(f"ok: bench_{name}: {len(report['cases'])} cases, report valid")
EOF

echo "== end-to-end TCP smoke (serve_tcp + DatalogClient) =="
python - <<'EOF'
import json

from repro import DatalogClient, serve_tcp
from repro.api.protocol import recv_json, send_json
import socket

with serve_tcp("suffix(X[N:end]) :- r(X).", {"r": ["acgt"]}, port=0) as server:
    host, port = server.address
    # 1. The typed client: query, maintain, stream, stats.
    with DatalogClient(host, port) as client:
        assert client.server_versions == (1,), client.server_versions
        page = client.query("suffix(X)")
        assert page.texts() == [("",), ("acgt",), ("cgt",), ("gt",), ("t",)]
        report = client.add_fact("r", "gg")
        assert report.base_facts_added == 1 and report.generation == 1
        streamed = sorted(client.query_iter("suffix(X)", page_size=2))
        assert ("gg",) in streamed and len(streamed) == 7
        assert client.stats().generation == 1
    # 2. Raw socket: validate the wire JSON shape end to end.
    with socket.create_connection((host, port), timeout=10) as raw:
        reader, writer = raw.makefile("rb"), raw.makefile("wb")
        send_json(writer, {"v": 1, "op": "query", "pattern": "r(X)"})
        reply = recv_json(reader)
        assert reply["v"] == 1 and reply["ok"] is True
        assert reply["kind"] == "query_result" and reply["complete"] is True
        assert sorted(reply["rows"]) == [["acgt"], ["gg"]], reply["rows"]
        send_json(writer, {"v": 99, "op": "ping"})
        reply = recv_json(reader)
        assert reply["ok"] is False
        assert reply["error"]["code"] == "unsupported_version"
        assert reply["error"]["details"]["supported"] == [1]
print("ok: TCP round trip, streaming, maintenance and error envelopes valid")
EOF

echo "== end-to-end replication smoke (leader + follower processes) =="
python - <<'EOF'
import json
import os
import subprocess
import sys
import tempfile
import time

from repro import DatalogClient, NotLeaderError

PROGRAM = "pair(X, Y) :- base(X), base(Y).\n"


def spawn(program_path, *extra):
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", program_path,
         "--tcp", "127.0.0.1:0", "--json", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    envelope = json.loads(process.stdout.readline())
    assert envelope["kind"] == "listening" and envelope["port"] != 0, envelope
    return process, envelope


with tempfile.TemporaryDirectory(prefix="repro-replication-smoke-") as tmpdir:
    program_path = os.path.join(tmpdir, "program.sdl")
    with open(program_path, "w", encoding="utf-8") as handle:
        handle.write(PROGRAM)
    leader, leader_env = spawn(program_path)
    follower = None
    try:
        leader_at = f"{leader_env['host']}:{leader_env['port']}"
        follower, follower_env = spawn(program_path, "--follow", leader_at)
        assert leader_env["role"] == "leader" and follower_env["role"] == "follower"

        with DatalogClient(leader_env["host"], leader_env["port"]) as writer:
            generation = writer.add_facts(
                [("base", ("a",)), ("base", ("b",))]
            ).generation

        with DatalogClient(
            follower_env["host"], follower_env["port"], follow_redirects=False
        ) as reader:
            page = reader.query(
                "pair(X, Y)", min_generation=generation,
                min_generation_timeout=30.0,
            )
            assert len(page.rows) == 4, page.rows
            replication = reader.stats().replication
            assert replication["role"] == "follower", replication
            assert replication["leader"] == leader_at, replication
            try:
                reader.add_facts([("base", ("nope",))])
            except NotLeaderError as error:
                assert error.leader == leader_at, error.leader
            else:
                raise AssertionError("follower accepted a write")
    finally:
        for process in (leader, follower):
            if process is not None:
                process.terminate()
                process.wait(timeout=10)
print("ok: leader/follower fleet, bounded read, not_leader redirect valid")
EOF

echo "== end-to-end live-watch smoke (serve_tcp_async + watch) =="
python - <<'EOF'
import socket

from repro import DatalogClient
from repro.api.protocol import recv_json, send_json
from repro.live import serve_tcp_async

with serve_tcp_async("suffix(X[N:end]) :- r(X).", {"r": ["acgt"]}, port=0) as server:
    host, port = server.address
    # 1. The typed client: watch, see the initial set, see one exact delta.
    with DatalogClient(host, port) as client:
        with client.watch("suffix(X)") as watch:
            stream = iter(watch)
            initial = next(stream)
            assert initial.initial and initial.generation == 0
            assert sorted(initial.rows) == [
                ("",), ("acgt",), ("cgt",), ("gt",), ("t",)
            ], initial.rows
            client.add_fact("r", "gg")
            delta = next(stream)
            assert not delta.initial and delta.generation == 1
            assert sorted(delta.rows) == [("g",), ("gg",)], delta.rows
        assert client.stats().live["v"] == 1
    # 2. Raw socket: validate the watch envelopes on the wire.
    with socket.create_connection((host, port), timeout=10) as raw:
        reader, writer = raw.makefile("rb"), raw.makefile("wb")
        send_json(writer, {"v": 1, "op": "watch", "pattern": "suffix(X)"})
        ack = recv_json(reader)
        assert ack["ok"] is True and ack["kind"] == "watching", ack
        subscription = ack["subscription"]
        frame = recv_json(reader)
        assert frame["kind"] == "subscription_delta", frame
        assert frame["subscription"] == subscription and frame["initial"] is True
        with DatalogClient(host, port) as pusher:
            pusher.add_fact("r", "ttaa")
        while True:  # heartbeats may interleave with the pushed delta
            frame = recv_json(reader)
            if frame["kind"] == "subscription_delta":
                break
            assert frame["kind"] == "heartbeat", frame
        assert not frame.get("initial") and frame["generation"] == 2, frame
        assert sorted(frame["rows"]) == [
            ["a"], ["aa"], ["taa"], ["ttaa"]
        ], frame["rows"]
print("ok: watch streams, exact deltas and live stats valid on both paths")
EOF

echo "== all checks passed =="
