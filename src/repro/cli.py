"""Command-line interface for the Sequence Datalog engine.

The subcommands cover the typical workflow::

    python -m repro.cli run program.sdl --db database.json --query "answer(X)"
    python -m repro.cli serve program.sdl --db database.json --script cmds.txt
    python -m repro.cli serve program.sdl --data-dir state/ --tcp :4321
    python -m repro.cli serve program.sdl --tcp :4322 --follow :4321
    python -m repro.cli client :4321 --script cmds.txt
    python -m repro.cli route :4321 :4322 :4323 --script cmds.txt
    python -m repro.cli snapshot program.sdl --data-dir state/
    python -m repro.cli restore program.sdl --data-dir state/ --out db.json
    python -m repro.cli analyze program.sdl
    python -m repro.cli lint program.sdl --db database.json
    python -m repro.cli explain program.sdl
    python -m repro.cli parse program.sdl

* ``run`` evaluates a program over a database given as a JSON object mapping
  relation names to lists of strings (unary relations) or lists of string
  lists (n-ary relations), then prints the answers to the query pattern.
  ``--strategy`` selects the evaluation core (``compiled`` by default;
  ``naive`` is the interpreted reference the tests hold it to).
  ``--demand`` answers the query demand-driven: instead of materialising
  the full least fixpoint, only the slice of the model the query pattern
  transitively depends on is computed, with the pattern's constants pushed
  into the defining clauses (magic-set-style relevance restriction).
* ``serve`` opens an incremental :class:`~repro.engine.session.DatalogSession`
  over the program, then executes commands from ``--script`` (or stdin), one
  per line: ``query <pattern>`` (alias ``?``), ``add <relation> <values...>``
  (alias ``+``, incrementally maintained — no recomputation from scratch),
  ``stats``, and ``quit``.  Errors in a command are reported and the session
  keeps serving — except after a maintenance run fails on a resource limit,
  which leaves the resident model a partial fixpoint: the session is then
  poisoned and every later ``query`` is refused with a clear error.
  ``--demand`` serves queries from lazy, per-query demand slices without
  ever materialising the full model.

  Every command is executed through the versioned typed API
  (:mod:`repro.api`).  ``--json`` switches the reply stream to one
  schema-versioned JSON object per line: results are
  ``QueryResultPage``/``AddFactsResponse``/``ServerStats`` envelopes and
  every failure is a structured ``ApiError`` (stable code, message, and
  the offending input line number) — the process then exits non-zero when
  any input line was malformed.  ``--tcp HOST:PORT`` serves the same API
  over TCP (`docs/SERVING.md`); with ``--script`` the commands are run
  through a loopback :class:`~repro.api.client.DatalogClient` against the
  freshly-bound server (an end-to-end self-test), otherwise the server
  runs in the foreground until interrupted.
* ``client`` connects a :class:`~repro.api.client.DatalogClient` to a
  running ``serve --tcp`` address and executes the same command loop
  (large results stream page-by-page through server-side cursors).

  ``serve --tcp ... --follow LEADER:PORT`` serves the same program as a
  read-only replica of a running leader (`docs/REPLICATION.md`): it
  bootstraps from the leader's snapshot stream, applies every published
  generation through incremental maintenance, and answers writes with a
  ``not_leader`` redirect carrying the leader's address.
* ``route`` runs the command loop against a whole replicated fleet:
  queries rotate across live followers, ``add`` goes to the discovered
  leader, and the extra ``topology`` command prints the role map.
  ``--read-your-writes`` bounds staleness: each query waits until the
  serving follower has caught up to this client's last write.

  ``serve --data-dir DIR`` makes the backend durable (:mod:`repro.storage`):
  prior state is recovered from ``DIR`` before serving, every batch is
  write-ahead logged, and shutdown — including SIGTERM/SIGINT on the
  foreground server — flushes the log and writes a final snapshot.
* ``snapshot`` opens a data directory (running recovery) and forces a
  synchronous checkpoint, so the next restart is a pure snapshot load.
* ``restore`` opens a data directory and reports what recovery did
  (snapshot used, WAL batches replayed, uncommitted batches dropped);
  ``--out db.json`` additionally exports the recovered base facts as a
  JSON database loadable through ``--db``.
* ``analyze`` prints the strong-safety report and the finiteness verdict
  (``--json`` for a machine-readable object) and exits ``1`` when the
  verdict is ``POSSIBLY_INFINITE``, so CI can gate on it.
* ``lint`` runs the program diagnostics engine
  (:mod:`repro.analysis.diagnostics`): semantic errors, the paper's static
  theory with source locations, hygiene hints and planner-aware
  performance lints, rendered with caret-underlined source excerpts
  (``--json`` for the wire payload).  The exit code is ``2`` on errors,
  ``1`` with ``--strict`` when warnings or perf lints are present, ``0``
  otherwise — hints never gate.
* ``explain`` prints the compiled evaluation plan: the dependency strata,
  each clause's join order and the index columns every scan uses —
  followed by the lint findings in compact form.
* ``parse`` pretty-prints the parsed program (a syntax check).

The CLI is intentionally thin: it only wires files and flags into the same
public API the examples use, so it is fully covered by unit tests without
any subprocess machinery.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shlex
import signal
import sys
import threading
from typing import Optional, Sequence

from repro.analysis import classify_finiteness
from repro.api.client import DatalogClient
from repro.api.service import DatalogService
from repro.api.transport import parse_address, serve_tcp
from repro.api.types import (
    AddFactsRequest,
    ApiError,
    ErrorCode,
    FetchRequest,
    QueryRequest,
    QueryResultPage,
    StatsRequest,
    encode_response,
)
from repro.core.engine_api import SequenceDatalogEngine
from repro.database.database import SequenceDatabase
from repro.engine.fixpoint import DEFAULT_STRATEGY, STRATEGIES
from repro.engine.limits import EvaluationLimits
from repro.engine.session import DatalogSession
from repro.errors import ProtocolError, ReproError
from repro.language.parser import parse_program


def _load_program(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def load_database_json(path: str) -> SequenceDatabase:
    """Load a database from a JSON file ``{"relation": ["seq", ["a", "b"]]}``.

    Malformed rows (empty lists, JSON numbers, nested lists) are rejected
    with the offending relation and row named, via
    :meth:`SequenceDatabase.from_json_dict`.
    """
    with open(path, encoding="utf-8") as handle:
        raw = json.load(handle)
    return SequenceDatabase.from_json_dict(raw)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sequence Datalog engine (Bonner & Mecca reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="evaluate a program and query it")
    run_parser.add_argument("program", help="path to the Sequence Datalog program")
    run_parser.add_argument("--db", required=True, help="path to the JSON database")
    run_parser.add_argument("--query", required=True, help="pattern atom, e.g. answer(X)")
    run_parser.add_argument(
        "--max-iterations", type=int, default=EvaluationLimits().max_iterations,
        help="iteration limit for the fixpoint computation",
    )
    run_parser.add_argument(
        "--strategy", choices=list(STRATEGIES), default=DEFAULT_STRATEGY,
        help="bottom-up evaluation strategy",
    )
    run_parser.add_argument(
        "--demand", action="store_true",
        help="demand-driven evaluation: materialize only the slice of the "
             "model the query pattern can observe (magic-set-style relevance "
             "restriction with constant pushing) instead of the full fixpoint",
    )
    run_parser.add_argument(
        "--json", action="store_true",
        help="emit the answers as one schema-versioned QueryResultPage "
             "JSON object instead of tab-separated text",
    )

    serve_parser = subparsers.add_parser(
        "serve", help="incremental query-serving session (batch or stdin)"
    )
    serve_parser.add_argument("program", help="path to the Sequence Datalog program")
    serve_parser.add_argument("--db", help="optional JSON database loaded at startup")
    serve_parser.add_argument(
        "--script",
        help="command file (one command per line); reads stdin when omitted",
    )
    serve_parser.add_argument(
        "--max-iterations", type=int, default=EvaluationLimits().max_iterations,
        help="iteration limit for each maintenance run",
    )
    serve_parser.add_argument(
        "--demand", action="store_true",
        help="serve queries from lazy, cached per-query demand slices; the "
             "full model is never materialized up front",
    )
    serve_parser.add_argument(
        "--json", action="store_true",
        help="reply with one schema-versioned JSON object per line "
             "(typed results; structured ApiError objects carrying the "
             "offending line number; non-zero exit on malformed input)",
    )
    serve_parser.add_argument(
        "--tcp", metavar="HOST:PORT",
        help="serve the versioned API over TCP instead of the stdin loop "
             "(port 0 picks a free port; with --script the commands run "
             "through a loopback client against the bound server)",
    )
    serve_parser.add_argument(
        "--async", dest="async_", action="store_true",
        help="with --tcp: serve on the asyncio front-end (event-loop "
             "connection handling on a small thread pool — tens of "
             "thousands of idle connections or live-query watches — and "
             "duplex connections: watches and requests multiplex on one "
             "socket)",
    )
    serve_parser.add_argument(
        "--data-dir", metavar="DIR",
        help="durable serving: recover prior state from DIR (snapshot plus "
             "WAL-tail replay), write-ahead log every later batch, and on "
             "shutdown (including SIGTERM/SIGINT) flush the log and write "
             "a final snapshot",
    )
    serve_parser.add_argument(
        "--follow", metavar="HOST:PORT",
        help="serve as a read-only replica of the leader at HOST:PORT: "
             "bootstrap from its snapshot stream, apply every published "
             "generation incrementally, answer writes with a not_leader "
             "redirect (requires --tcp; the leader holds the data, so "
             "--db/--data-dir/--demand do not apply)",
    )

    client_parser = subparsers.add_parser(
        "client", help="connect to a serve --tcp address and run commands"
    )
    client_parser.add_argument("address", help="server address (HOST:PORT or :PORT)")
    client_parser.add_argument(
        "--script",
        help="command file (one command per line); reads stdin when omitted",
    )
    client_parser.add_argument(
        "--json", action="store_true",
        help="reply with one schema-versioned JSON object per line",
    )
    client_parser.add_argument(
        "--timeout", type=float, default=30.0,
        help="socket timeout in seconds (default 30)",
    )
    client_parser.add_argument(
        "--page-size", type=int, default=1024,
        help="rows per streamed page for large results (default 1024)",
    )

    watch_parser = subparsers.add_parser(
        "watch",
        help="subscribe to a continuous query on a serve --tcp address and "
             "stream its exact result deltas",
    )
    watch_parser.add_argument("address", help="server address (HOST:PORT or :PORT)")
    watch_parser.add_argument(
        "pattern", help="query pattern to watch, e.g. 'path(X, Y)'"
    )
    watch_parser.add_argument(
        "--json", action="store_true",
        help="emit one schema-versioned subscription_delta JSON object per "
             "generation instead of tab-separated rows",
    )
    watch_parser.add_argument(
        "--count", type=int, default=None, metavar="N",
        help="exit successfully after N delta frames (default: stream "
             "until interrupted or the server terminates the watch)",
    )
    watch_parser.add_argument(
        "--timeout", type=float, default=30.0,
        help="connect timeout in seconds (default 30)",
    )
    watch_parser.add_argument(
        "--no-initial", action="store_true",
        help="skip the initial result set; stream only changes published "
             "after the subscription anchors",
    )
    watch_parser.add_argument(
        "--strict", action="store_true",
        help="refuse patterns over predicates the program does not define",
    )

    route_parser = subparsers.add_parser(
        "route",
        help="fleet client: reads across followers, writes to the leader",
    )
    route_parser.add_argument(
        "endpoints", nargs="+", metavar="HOST:PORT",
        help="fleet addresses in any order; roles (leader/follower) are "
             "discovered from each endpoint's stats",
    )
    route_parser.add_argument(
        "--script",
        help="command file (one command per line); reads stdin when omitted",
    )
    route_parser.add_argument(
        "--json", action="store_true",
        help="reply with one schema-versioned JSON object per line",
    )
    route_parser.add_argument(
        "--timeout", type=float, default=30.0,
        help="socket timeout in seconds (default 30)",
    )
    route_parser.add_argument(
        "--page-size", type=int, default=1024,
        help="rows per streamed page for large results (default 1024)",
    )
    route_parser.add_argument(
        "--read-your-writes", action="store_true",
        help="stamp every query with the generation of the last write "
             "through this client, so a lagging follower holds the read "
             "until it has caught up",
    )

    analyze_parser = subparsers.add_parser("analyze", help="safety and finiteness analysis")
    analyze_parser.add_argument("program", help="path to the Sequence Datalog program")
    analyze_parser.add_argument(
        "--json", action="store_true",
        help="emit the verdict and safety report as one JSON object",
    )

    lint_parser = subparsers.add_parser(
        "lint", help="program diagnostics: errors, theory warnings, perf lints"
    )
    lint_parser.add_argument("program", help="path to the Sequence Datalog program")
    lint_parser.add_argument(
        "--db", help="optional JSON database; enables the database-dependent "
                     "rules (undefined predicates, relation arity conflicts)",
    )
    lint_parser.add_argument(
        "--query", action="append", default=[], metavar="PATTERN",
        help="query pattern checked against the program's signatures "
             "(repeatable)",
    )
    lint_parser.add_argument(
        "--json", action="store_true",
        help="emit the diagnostic report as one JSON object instead of "
             "human-readable blocks",
    )
    lint_parser.add_argument(
        "--strict", action="store_true",
        help="also exit 1 when warnings or perf lints are present "
             "(errors always exit 2; hints never gate)",
    )

    snapshot_parser = subparsers.add_parser(
        "snapshot", help="force a durability checkpoint of a data directory"
    )
    snapshot_parser.add_argument("program", help="path to the Sequence Datalog program")
    snapshot_parser.add_argument(
        "--data-dir", required=True, metavar="DIR",
        help="data directory to recover and checkpoint",
    )
    snapshot_parser.add_argument(
        "--json", action="store_true",
        help="emit the durability counters as one JSON object",
    )

    restore_parser = subparsers.add_parser(
        "restore", help="recover a data directory and report what was restored"
    )
    restore_parser.add_argument("program", help="path to the Sequence Datalog program")
    restore_parser.add_argument(
        "--data-dir", required=True, metavar="DIR",
        help="data directory to recover (snapshot plus WAL-tail replay)",
    )
    restore_parser.add_argument(
        "--out", metavar="FILE",
        help="also export the recovered base facts as a JSON database "
             "(loadable back through --db)",
    )
    restore_parser.add_argument(
        "--json", action="store_true",
        help="emit the recovery report as one JSON object",
    )

    explain_parser = subparsers.add_parser(
        "explain", help="print the compiled evaluation plan"
    )
    explain_parser.add_argument("program", help="path to the Sequence Datalog program")

    parse_parser = subparsers.add_parser("parse", help="parse and pretty-print a program")
    parse_parser.add_argument("program", help="path to the Sequence Datalog program")

    return parser


def _command_run(args: argparse.Namespace, out) -> int:
    if args.json:
        # JSON mode promises one JSON object per reply, errors included.
        try:
            return _run_once(args, out)
        except ReproError as error:
            _emit_json(out, ApiError.from_exception(error))
            return 1
    return _run_once(args, out)


def _run_once(args: argparse.Namespace, out) -> int:
    limits = EvaluationLimits(max_iterations=args.max_iterations)
    engine = SequenceDatalogEngine(_load_program(args.program), limits=limits)
    database = load_database_json(args.db)
    # Validate the pattern through the typed schema before evaluating
    # anything: an empty/blank --query is a field-level error, not a crash.
    QueryRequest(pattern=args.query).validate()
    if args.demand:
        compiled = engine.compile_demand(args.query)
        slice_result = compiled.materialize(database, limits)
        answers = compiled.query(slice_result)
        if args.json:
            _emit_json(out, _page_of(answers))
            return 0
        for row in answers.texts():
            print("\t".join(row), file=out)
        mode = (
            f"slice of {len(slice_result.profile.relevant)} relevant predicates"
            if slice_result.profile.restricted
            else "full model (demand fallback)"
        )
        print(
            f"% {len(answers)} answers, {slice_result.fact_count} facts "
            f"materialized ({mode}), {slice_result.sweeps} sweeps",
            file=out,
        )
        return 0
    result = engine.evaluate(database, strategy=args.strategy)
    answers = engine.query(result, args.query)
    if args.json:
        _emit_json(out, _page_of(answers))
        return 0
    for row in answers.texts():
        print("\t".join(row), file=out)
    print(
        f"% {len(answers)} answers, {result.fact_count} facts, "
        f"{result.iterations} iterations",
        file=out,
    )
    return 0


def _page_of(result) -> QueryResultPage:
    """A monolithic typed page over an in-process QueryResult."""
    return QueryResultPage.from_result(result, result.window(witnesses=True))


def _emit_json(out, response, line_number: Optional[int] = None) -> None:
    """Print one schema-versioned JSON envelope (with the input line number)."""
    envelope = encode_response(response)
    if line_number is not None:
        envelope["line"] = line_number
    print(json.dumps(envelope, sort_keys=True), file=out)


def _parse_add_command(rest: str) -> AddFactsRequest:
    """``add <relation> <values...>`` → a typed request.

    shlex honours the quoted-constant syntax of query patterns:
    ``add r "a b"`` stores the single two-symbol-with-space sequence.
    """
    try:
        parts = shlex.split(rest)
    except ValueError as error:
        raise ApiErrorSignal(
            ApiError(code=ErrorCode.BAD_REQUEST, message=str(error))
        ) from None
    if len(parts) < 2:
        raise ApiErrorSignal(ApiError(
            code=ErrorCode.BAD_REQUEST,
            message="add needs a relation name and at least one value",
        ))
    return AddFactsRequest(facts=((parts[0], tuple(parts[1:])),))


class ApiErrorSignal(Exception):
    """Carries a typed ApiError through the command loop's control flow."""

    def __init__(self, error: ApiError):
        super().__init__(error.message)
        self.error = error


class _ServiceCommands:
    """Execute serve-loop commands through an in-process DatalogService."""

    def __init__(self, service: DatalogService):
        self._service = service

    def query_pages(self, pattern: str):
        page = self._service.handle(QueryRequest(pattern=pattern))
        yield page
        while not page.complete and page.cursor is not None:
            page = self._service.handle(FetchRequest(cursor=page.cursor))
            yield page

    def add(self, request: AddFactsRequest):
        return self._service.handle(request)

    def stats(self):
        return self._service.handle(StatsRequest())


class _ClientCommands:
    """Execute the same commands through a remote DatalogClient."""

    def __init__(self, client: DatalogClient, page_size: int):
        self._client = client
        self._page_size = page_size

    def query_pages(self, pattern: str):
        return self._client.query_pages(pattern, page_size=self._page_size)

    def add(self, request: AddFactsRequest):
        return self._client.add_facts(list(request.facts))

    def stats(self):
        return self._client.stats()


class _RouterCommands:
    """Execute the same commands across a replicated fleet.

    Reads rotate over followers, writes go to the leader (following
    ``not_leader`` redirects); the extra ``topology`` command prints the
    discovered role map.
    """

    def __init__(self, router, page_size: int):
        self._router = router
        self._page_size = page_size

    def query_pages(self, pattern: str):
        # The router reassembles pages internally (failover mid-cursor on
        # a different node would splice two snapshots), so one page comes
        # back per query.
        yield self._router.query(pattern, page_size=self._page_size)

    def add(self, request: AddFactsRequest):
        return self._router.add_facts(list(request.facts))

    def stats(self):
        stats_map = self._router.stats()
        leader = self._router.leader
        if leader is not None and leader in stats_map:
            return stats_map[leader]
        for stats in stats_map.values():
            return stats
        raise ProtocolError("no fleet endpoint reachable")

    def topology(self):
        return self._router.refresh()


def _command_loop(commands, lines, out, json_mode: bool) -> int:
    """The shared serve/client command loop over a typed command executor.

    Text mode keeps the historical free-text output (rows, ``% ...``
    summaries, ``error: ...`` lines) and always exits 0 — one bad command
    must not take the session down.  JSON mode emits one schema-versioned
    envelope per reply, tags every envelope with the input line number,
    and exits non-zero if any input line was malformed.
    """
    errors = 0
    for line_number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        command, _, rest = line.partition(" ")
        try:
            if command in ("query", "?"):
                rows = []
                for page in commands.query_pages(rest.strip()):
                    if json_mode:
                        _emit_json(out, page, line_number)
                    else:
                        rows.extend(page.rows)
                if not json_mode:
                    # Historical output: rows sorted, like the old serve
                    # loop's result.texts() (and like `run`).  JSON mode
                    # streams pages instead and never collects.
                    for row in sorted(rows):
                        print("\t".join(row), file=out)
                    print(f"% {len(rows)} answers", file=out)
            elif command in ("add", "+"):
                report = commands.add(_parse_add_command(rest))
                if json_mode:
                    _emit_json(out, report, line_number)
                else:
                    print(
                        f"% +{report.facts_added} facts "
                        f"({report.base_facts_added} base) "
                        f"in {report.sweeps} sweeps",
                        file=out,
                    )
            elif command == "stats":
                stats = commands.stats()
                if json_mode:
                    _emit_json(out, stats, line_number)
                else:
                    print(json.dumps(stats.to_payload(), sort_keys=True), file=out)
            elif command == "topology" and hasattr(commands, "topology"):
                # Fleet-aware executors only (repro route): the discovered
                # role map, as a CLI-local envelope in JSON mode.
                topology = commands.topology()
                if json_mode:
                    envelope = {
                        "v": 1, "ok": True, "kind": "topology",
                        "topology": topology, "line": line_number,
                    }
                    print(json.dumps(envelope, sort_keys=True), file=out)
                else:
                    for endpoint in sorted(topology):
                        info = topology[endpoint]
                        extras = ", ".join(
                            f"{key}={info[key]}"
                            for key in ("generation", "lag", "leader")
                            if key in info
                        )
                        print(
                            f"% {endpoint}: {info['role']}"
                            + (f" ({extras})" if extras else ""),
                            file=out,
                        )
            elif command in ("quit", "exit"):
                break
            else:
                known = ["query", "add", "stats", "quit"]
                if hasattr(commands, "topology"):
                    known.insert(3, "topology")
                raise ApiErrorSignal(ApiError(
                    code=ErrorCode.BAD_REQUEST,
                    message=f"unknown command {command!r}",
                    details={"known_commands": known},
                ))
        except ApiErrorSignal as signal:
            errors += 1
            if json_mode:
                _emit_json(out, signal.error, line_number)
            else:
                print(f"error: {signal.error.message}", file=out)
        except (ReproError, OSError) as error:
            # One bad command must not take the whole session down.  A
            # poisoned session (failed maintenance run) keeps refusing
            # queries through SessionPoisonedError, reported the same way.
            errors += 1
            if json_mode:
                _emit_json(out, ApiError.from_exception(error), line_number)
            else:
                print(f"error: {error}", file=out)
    return 1 if json_mode and errors else 0


def _read_lines(args):
    if args.script:
        with open(args.script, encoding="utf-8") as handle:
            return handle.readlines()
    return sys.stdin


@contextlib.contextmanager
def _graceful_shutdown():
    """Turn SIGTERM into KeyboardInterrupt for the duration of serving.

    The serve paths all run inside try/finally blocks whose ``finally``
    closes the backend — for a durable backend that flushes the WAL and
    writes a final snapshot, and for TCP it also closes client
    connections.  SIGINT already raises KeyboardInterrupt; routing
    SIGTERM through the same exception makes ``kill <pid>`` a graceful
    shutdown too.  Installing a handler only works on the main thread —
    elsewhere (tests driving main() from a worker) this is a no-op.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    def _raise(signum, frame):
        raise KeyboardInterrupt
    try:
        previous = signal.signal(signal.SIGTERM, _raise)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        yield
        return
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def _command_serve(args: argparse.Namespace, out) -> int:
    limits = EvaluationLimits(max_iterations=args.max_iterations)
    if args.follow is not None:
        if args.tcp is None:
            print("error: --follow replicates over TCP; add --tcp HOST:PORT", file=out)
            return 1
        if args.db or args.data_dir or args.demand:
            print(
                "error: a follower's data comes from its leader; drop "
                "--db/--data-dir/--demand",
                file=out,
            )
            return 1
    if args.async_ and args.tcp is None:
        print("error: --async is the asyncio TCP front-end; add --tcp HOST:PORT", file=out)
        return 1
    database = load_database_json(args.db) if args.db else None
    if args.tcp is not None:
        if args.demand:
            print("error: --tcp serves shared snapshots; drop --demand", file=out)
            return 1
        return _serve_over_tcp(args, database, limits, out)
    if args.data_dir is not None:
        from repro.storage import open_session

        backend = open_session(
            _load_program(args.program),
            args.data_dir,
            database=database,
            limits=limits,
            lazy=args.demand,
        )
        mode = " (durable: write-ahead logged)"
    else:
        backend = DatalogSession(
            _load_program(args.program), database, limits=limits, lazy=args.demand
        )
        mode = " (demand mode: lazy per-query slices)" if args.demand else ""
    if not args.json:
        print(f"% serving {backend.fact_count()} facts{mode}", file=out)
    commands = _ServiceCommands(DatalogService(backend, demand=args.demand))
    try:
        with _graceful_shutdown():
            return _command_loop(commands, _read_lines(args), out, args.json)
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        return 0
    finally:
        backend.close()


def _serve_over_tcp(args: argparse.Namespace, database, limits, out) -> int:
    host, port = parse_address(args.tcp)
    if args.async_:
        # Same arguments, same ownership semantics, different transport:
        # an event loop instead of a thread per connection.
        from repro.live import serve_tcp_async as serve_transport
    else:
        serve_transport = serve_tcp
    follower = None
    if args.follow is not None:
        from repro.replication import FollowerServer

        follower = FollowerServer(
            _load_program(args.program),
            args.follow,
            limits=limits,
        )
        try:
            transport = serve_transport(
                follower, host=host, port=port, start=args.script is not None
            )
        except BaseException:
            follower.close()
            raise
    else:
        transport = serve_transport(
            _load_program(args.program),
            database=database,
            host=host,
            port=port,
            limits=limits,
            start=args.script is not None,
            data_dir=args.data_dir,
        )
    bound_host, bound_port = transport.address
    facts = transport.backend.snapshot.fact_count()
    role = "follower" if follower is not None else "leader"
    # The bound address must reach the operator even for port 0.  JSON
    # mode promises one machine-parsable JSON object per line, so the
    # foreground server announces it as a CLI-level "listening" envelope
    # (script+JSON mode stays silent: its stream carries only command
    # replies); text mode keeps the human banner.
    if args.json:
        if args.script is None:
            print(
                json.dumps(
                    {
                        "v": 1, "ok": True, "kind": "listening",
                        "host": bound_host, "port": bound_port,
                        "facts": facts, "role": role,
                    },
                    sort_keys=True,
                ),
                file=out,
            )
    else:
        suffix = f", following {follower.leader_address}" if follower else ""
        print(
            f"% serving {facts} facts on {bound_host}:{bound_port} "
            f"(schema v1{suffix})",
            file=out,
        )
    try:
        if args.script is not None:
            # End-to-end self-test mode: run the script through a loopback
            # client against the live TCP server.
            with DatalogClient(bound_host, bound_port) as client:
                commands = _ClientCommands(client, page_size=1024)
                return _command_loop(commands, _read_lines(args), out, args.json)
        if hasattr(out, "flush"):
            out.flush()
        with _graceful_shutdown():
            transport.serve_forever()
        return 0
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        return 0
    finally:
        # Closes listening + client sockets, then the backend; a durable
        # backend flushes its WAL and writes a final snapshot here.
        transport.close()
        if follower is not None:
            # serve_tcp was handed the follower, so it does not own it:
            # stop the replication thread and its subscription explicitly.
            follower.close()


def _command_client(args: argparse.Namespace, out) -> int:
    host, port = parse_address(args.address)
    with DatalogClient(host, port, timeout=args.timeout) as client:
        commands = _ClientCommands(client, page_size=max(1, args.page_size))
        return _command_loop(commands, _read_lines(args), out, args.json)


def _command_watch(args: argparse.Namespace, out) -> int:
    """Stream one continuous query's deltas to stdout until stopped."""
    from repro.api.types import encode_response

    host, port = parse_address(args.address)
    client = DatalogClient(host, port, timeout=args.timeout)
    delivered = 0
    try:
        with client.watch(
            args.pattern, strict=args.strict, initial=not args.no_initial
        ) as watch:
            if not args.json:
                print(
                    f"% watching {watch.pattern} "
                    f"(subscription {watch.subscription}, "
                    f"generation {watch.generation})",
                    file=out,
                )
            if hasattr(out, "flush"):
                out.flush()
            with _graceful_shutdown():
                for delta in watch:
                    if args.json:
                        print(
                            json.dumps(encode_response(delta), sort_keys=True),
                            file=out,
                        )
                    else:
                        label = "initial" if delta.initial else "delta"
                        coalesced = (
                            f", {delta.coalesced} generations coalesced"
                            if delta.coalesced
                            else ""
                        )
                        print(
                            f"% {label}: generation {delta.generation}, "
                            f"{len(delta.rows)} row(s){coalesced}",
                            file=out,
                        )
                        for row in sorted(delta.rows):
                            print("\t".join(row), file=out)
                    if hasattr(out, "flush"):
                        out.flush()
                    delivered += 1
                    if args.count is not None and delivered >= args.count:
                        return 0
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        return 0
    finally:
        client.close()
    # The server ended the stream (shutdown); that is not a client error.
    return 0


def _command_route(args: argparse.Namespace, out) -> int:
    from repro.replication import RoutingClient

    router = RoutingClient(
        args.endpoints,
        read_your_writes=args.read_your_writes,
        timeout=args.timeout,
    )
    try:
        topology = router.refresh()
        if not args.json:
            leader = router.leader or "none"
            print(
                f"% routing over {len(topology)} endpoint(s): "
                f"leader {leader}, {len(router.followers)} follower(s)",
                file=out,
            )
        commands = _RouterCommands(router, page_size=max(1, args.page_size))
        return _command_loop(commands, _read_lines(args), out, args.json)
    finally:
        router.close()


def _command_analyze(args: argparse.Namespace, out) -> int:
    program = parse_program(_load_program(args.program))
    report = classify_finiteness(program)
    if args.json:
        payload = {
            "verdict": report.verdict.name,
            "finite": report.verdict.is_finite(),
            "strongly_safe": report.safety.strongly_safe,
            "order": report.safety.order,
            "constructive_cycles": [list(c) for c in report.safety.constructive_cycles],
            "constructive_predicates": list(report.safety.constructive_predicates),
        }
        print(json.dumps(payload, sort_keys=True), file=out)
    else:
        print(report.describe(), file=out)
    # A possibly-infinite verdict exits non-zero so scripts and CI can gate
    # on the static guarantee without parsing the output.
    return 0 if report.verdict.is_finite() else 1


def _command_lint(args: argparse.Namespace, out) -> int:
    from repro.analysis.diagnostics import lint_program

    source = _load_program(args.program)
    database = load_database_json(args.db) if args.db else None
    report = lint_program(source, database=database, patterns=args.query)
    if args.json:
        payload = report.to_payload()
        payload["exit_code"] = report.exit_code(strict=args.strict)
        print(json.dumps(payload, sort_keys=True), file=out)
    else:
        print(report.render(source, filename=args.program), file=out)
    return report.exit_code(strict=args.strict)


def _open_durable(args: argparse.Namespace):
    from repro.storage import open_session

    return open_session(_load_program(args.program), args.data_dir)


def _command_snapshot(args: argparse.Namespace, out) -> int:
    session = _open_durable(args)
    try:
        path = session.storage.checkpoint()
        durability = session.storage.stats()
        if args.json:
            print(json.dumps(durability, sort_keys=True), file=out)
        else:
            snap = durability["snapshot"]
            print(
                f"% snapshot written: {path}\n"
                f"% generation {durability['generation']}, "
                f"{session.fact_count()} facts, "
                f"{snap['count']} snapshot(s) retained, "
                f"{durability['wal']['segments']} WAL segment(s)",
                file=out,
            )
        return 0
    finally:
        # The forced checkpoint above is current; skip the close-time one.
        session.storage.close(final_snapshot=False)
        session.close()


def _command_restore(args: argparse.Namespace, out) -> int:
    session = _open_durable(args)
    try:
        report = session.storage.recovery
        payload = report.as_dict() if report is not None else {}
        payload["facts"] = session.fact_count()
        payload["generation"] = session.generation
        if args.out:
            database: dict = {}
            for predicate, values in session.base_facts():
                database.setdefault(predicate, []).append(
                    [str(value) for value in values]
                )
            with open(args.out, "w", encoding="utf-8") as handle:
                json.dump(database, handle, sort_keys=True, indent=2)
            payload["exported"] = args.out
        if args.json:
            print(json.dumps(payload, sort_keys=True), file=out)
            return 0
        if report is None or report.cold_start:
            print("% cold start: no snapshot and no WAL tail to replay", file=out)
        else:
            source = (
                f"snapshot generation {report.snapshot_generation} "
                f"({report.snapshot_facts} facts)"
                if report.snapshot_path
                else "no snapshot"
            )
            print(
                f"% recovered from {source} + {report.replayed_batches} "
                f"replayed batch(es) ({report.replayed_facts} facts) "
                f"in {report.elapsed_seconds:.3f}s",
                file=out,
            )
            if report.dropped_batches:
                print(
                    f"% dropped {report.dropped_batches} uncommitted "
                    "batch(es) (crash mid-commit; callers were never "
                    "acknowledged)",
                    file=out,
                )
            for warning in report.warnings:
                print(f"% warning: {warning}", file=out)
        print(
            f"% model: {payload['facts']} facts at generation "
            f"{payload['generation']}",
            file=out,
        )
        if args.out:
            print(f"% base facts exported to {args.out}", file=out)
        return 0
    finally:
        session.storage.close(final_snapshot=False)
        session.close()


def _command_explain(args: argparse.Namespace, out) -> int:
    from repro.analysis.diagnostics import explain_with_diagnostics

    program = parse_program(_load_program(args.program))
    program.validate()
    print(explain_with_diagnostics(program), file=out)
    return 0


def _command_parse(args: argparse.Namespace, out) -> int:
    program = parse_program(_load_program(args.program))
    program.validate()
    print(str(program), file=out)
    print(f"% {len(program)} clauses, predicates: {', '.join(sorted(program.predicates()))}", file=out)
    return 0


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """Entry point; returns a process exit code."""
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _command_run(args, out)
        if args.command == "serve":
            return _command_serve(args, out)
        if args.command == "client":
            return _command_client(args, out)
        if args.command == "watch":
            return _command_watch(args, out)
        if args.command == "route":
            return _command_route(args, out)
        if args.command == "analyze":
            return _command_analyze(args, out)
        if args.command == "lint":
            return _command_lint(args, out)
        if args.command == "snapshot":
            return _command_snapshot(args, out)
        if args.command == "restore":
            return _command_restore(args, out)
        if args.command == "explain":
            return _command_explain(args, out)
        return _command_parse(args, out)
    except ReproError as error:
        print(f"error: {error}", file=out)
        return 1
    except OSError as error:
        print(f"error: {error}", file=out)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
