"""Spans around the public entry points of each layer, for traced runs.

Nothing here touches ``src/``: the benchmark replaces module and class
attributes of the already imported package with timing wrappers, in its own
process (:func:`install_client`) and in the server processes its launcher
starts (:func:`install_server`).  Each span has a name, a start, an end and
a parent; a span's *self* time is its duration minus the time its child
spans cover.  Spans are aggregated per (operation kind, name) in memory,
and the first :data:`SPAN_CAP` spans of each thread up to depth
:data:`SPAN_DEPTH` are also kept whole; everything is written out at the
end of the run.

One operation keeps one trace id across processes: the client adds a
``_trace`` field to each request frame it sends inside a timed operation,
the server's frame reader removes it again before the request reaches the
service, and generation numbers carry it on from a write to the
replication frame and the watch delta it causes.  The server also adds a
``_handled`` field (seconds from reading the request to replying) so the
client can split a round trip into server time and wire time.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import itertools
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

CLOCK = time.perf_counter  # CLOCK_MONOTONIC: comparable across processes
SPAN_CAP = 50_000
SPAN_DEPTH = 2
UNTRACED = "-"


class _ThreadState:
    """One thread's open spans, totals and kept spans (only it writes them)."""

    __slots__ = ("stack", "totals", "spans", "root", "trace", "handled", "received")

    def __init__(self):
        self.stack: List[list] = []
        self.totals: Dict[Tuple[str, str], List[float]] = {}
        self.spans: List[tuple] = []
        self.root = UNTRACED
        self.trace: Optional[str] = None
        self.handled: Optional[float] = None
        self.received = 0.0


class Tracer:
    """Per-process span aggregation; thread-safe without a lock on the hot path."""

    def __init__(self, process: str):
        self.process = process
        self.local = threading.local()
        self.lock = threading.Lock()
        self.threads: List[_ThreadState] = []
        self.ids = itertools.count(1)
        #: generation -> trace id of the write that produced it.
        self.generations: Dict[int, str] = {}
        #: generation -> when this process published (leader) or applied it.
        self.published: Dict[int, float] = {}
        self.gc_events: List[Tuple[float, float]] = []
        self._gc_started = 0.0
        self.counts: Dict[str, int] = {}
        gc.callbacks.append(self._on_gc)

    # -- per-thread state ----------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self.local, "state", None)
        if state is None:
            state = self.local.state = _ThreadState()
            with self.lock:
                self.threads.append(state)
        return state

    def _on_gc(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._gc_started = CLOCK()
        elif self._gc_started:
            end = CLOCK()
            self.gc_events.append((end, end - self._gc_started))
            self._gc_started = 0.0

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- operations ----------------------------------------------------
    def begin_op(self, kind: str, trace: Optional[str] = None) -> str:
        state = self._state()
        state.root = kind
        state.trace = trace or f"{os.getpid()}.{next(self.ids)}"
        state.stack.append([kind, CLOCK(), 0.0])
        return state.trace

    def end_op(self) -> None:
        state = self._state()
        if not state.stack:
            return
        frame = state.stack[0]
        del state.stack[:]
        self._record(state, frame, CLOCK(), None)
        state.root = UNTRACED
        state.trace = None

    @contextlib.contextmanager
    def op(self, kind: str):
        self.begin_op(kind)
        try:
            yield
        finally:
            self.end_op()

    def current_trace(self) -> Optional[str]:
        return self._state().trace

    def in_op(self) -> bool:
        return self._state().root != UNTRACED

    # -- spans ---------------------------------------------------------
    def _record(self, state, frame: list, end: float, parent: Optional[str]) -> None:
        name, start, child = frame
        duration = end - start
        key = (state.root, name)
        entry = state.totals.get(key)
        if entry is None:
            entry = state.totals[key] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        if len(state.stack) <= SPAN_DEPTH and len(state.spans) < SPAN_CAP:
            state.spans.append((state.trace, name, start, end, parent))

    def wrap(self, function: Callable, name: str, count_true: bool = False) -> Callable:
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            frame = [name, CLOCK(), 0.0]
            stack.append(frame)
            try:
                result = function(*args, **kwargs)
            finally:
                end = CLOCK()
                stack.pop()
                parent = None
                if stack:
                    stack[-1][2] += end - frame[1]
                    parent = stack[-1][0]
                tracer._record(state, frame, end, parent)
            if count_true and result:
                tracer.count(name + ".true")
            return result

        return traced

    def wrap_iterator(self, function: Callable, name: str) -> Callable:
        """Time a generator function's ``next`` calls, not its consumer."""
        tracer = self

        def timed(iterator):
            state = tracer._state()
            stack = state.stack
            while True:
                frame = [name, CLOCK(), 0.0]
                stack.append(frame)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    end = CLOCK()
                    stack.pop()
                    parent = None
                    if stack:
                        stack[-1][2] += end - frame[1]
                        parent = stack[-1][0]
                    tracer._record(state, frame, end, parent)
                yield item

        @functools.wraps(function)
        def traced(*args, **kwargs):
            tracer.count(name + ".firings")
            return timed(iter(function(*args, **kwargs)))

        return traced

    # -- patching --------------------------------------------------------
    def patch_method(self, cls: type, attribute: str, name: str, **options) -> None:
        original = cls.__dict__[attribute]
        if isinstance(original, staticmethod):
            setattr(cls, attribute, staticmethod(self.wrap(original.__func__, name, **options)))
        else:
            setattr(cls, attribute, self.wrap(original, name, **options))

    def patch_iterator(self, cls: type, attribute: str, name: str) -> None:
        setattr(cls, attribute, self.wrap_iterator(cls.__dict__[attribute], name))

    def patch_function(self, module, attribute: str, name: str, replacement=None) -> None:
        """Replace a module function in every ``repro`` module that imported it."""
        original = getattr(module, attribute)
        wrapped = replacement or self.wrap(original, name)
        for loaded in list(sys.modules.values()):
            module_name = getattr(loaded, "__name__", "") or ""
            if module_name != "repro" and not module_name.startswith("repro."):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapped)

    # -- output ----------------------------------------------------------
    def totals(self) -> Dict[str, Dict[str, List[float]]]:
        merged: Dict[str, Dict[str, List[float]]] = {}
        with self.lock:
            threads = list(self.threads)
        for state in threads:
            for (root, name), (count, total, own) in list(state.totals.items()):
                entry = merged.setdefault(root, {}).setdefault(name, [0, 0.0, 0.0])
                entry[0] += count
                entry[1] += total
                entry[2] += own
        return merged

    def spans(self) -> List[tuple]:
        with self.lock:
            threads = list(self.threads)
        found: List[tuple] = []
        for state in threads:
            found.extend(state.spans)
        return found

    def reset(self) -> None:
        with self.lock:
            threads = list(self.threads)
        for state in threads:
            state.totals.clear()
            del state.spans[:]
        self.counts.clear()
        self.gc_events.clear()

    def snapshot(self) -> Dict[str, Any]:
        return {
            "process": self.process,
            "pid": os.getpid(),
            "totals": self.totals(),
            "counts": dict(self.counts),
            "spans": self.spans(),
            "generations": {str(k): v for k, v in self.generations.items()},
            "published": {str(k): v for k, v in self.published.items()},
            "gc": list(self.gc_events),
        }


# ----------------------------------------------------------------------
# The engine layers (every process)
# ----------------------------------------------------------------------
def _install_engine(tracer: Tracer) -> None:
    from repro.engine import fixpoint, kernels, planner
    from repro.engine.interpretation import Interpretation
    from repro.engine.limits import EvaluationLimits
    from repro.engine.query import PreparedQuery
    from repro.engine.server import DatalogServer
    from repro.engine.session import DatalogSession
    from repro.language import parser
    from repro.sequences.domain import ExtendedDomain
    from repro.transducers.machine import GeneralizedTransducer

    tracer.patch_function(parser, "parse_program", "parser.parse")
    tracer.patch_function(planner, "compile_program", "planner.compile")
    tracer.patch_method(fixpoint.CompiledFixpoint, "_sweep", "fixpoint.sweep")
    tracer.patch_method(fixpoint.CompiledFixpoint, "_fire", "fixpoint.fire")
    tracer.patch_method(kernels.BatchExecutor, "_execute", "kernels.join")
    tracer.patch_iterator(planner.PlanExecutor, "_derive_tuple", "planner.tuple")
    tracer.patch_iterator(planner.PlanExecutor, "_derive_delta_tuple", "planner.tuple")
    tracer.patch_method(Interpretation, "add", "interpretation.insert", count_true=True)
    tracer.patch_method(EvaluationLimits, "check_interpretation", "limits.check")
    tracer.patch_method(ExtendedDomain, "add", "domain.add")
    tracer.patch_method(GeneralizedTransducer, "__call__", "transducers.run")
    tracer.patch_method(PreparedQuery, "run", "query.execute")
    tracer.patch_method(DatalogServer, "query", "server.query")
    tracer.patch_method(DatalogServer, "_publish_if_advanced", "server.publish")
    tracer.patch_method(DatalogSession, "add_facts", "session.maintenance")
    tracer.patch_method(DatalogSession, "restore_state", "snapshot.restore")


def install_client() -> Tracer:
    """Wrap the engine and the client side of the wire in this process."""
    from repro.api import client, protocol, types

    tracer = Tracer("bench")
    _install_engine(tracer)
    for codec in ("encode_request", "decode_response"):
        tracer.patch_function(types, codec, "types.codec")
    tracer.patch_function(protocol, "read_frame", "transport.read")
    original_send, original_recv = protocol.send_json, protocol.recv_json
    send = tracer.wrap(original_send, "protocol.send")
    recv = tracer.wrap(original_recv, "protocol.recv")
    wire: Dict[str, List[float]] = {}
    roundtrips: Dict[str, List[float]] = {}

    def send_json(stream, message, *rest):
        trace = tracer.current_trace()
        if trace is not None:
            message = dict(message, _trace=trace)
        return send(stream, message, *rest)

    def recv_json(stream, *rest):
        message = recv(stream, *rest)
        if isinstance(message, dict):
            handled = message.pop("_handled", None)
            message.pop("_trace", None)
            if handled is not None and tracer.in_op():
                tracer._state().handled = handled
        return message

    tracer.patch_function(protocol, "send_json", "", replacement=send_json)
    tracer.patch_function(protocol, "recv_json", "", replacement=recv_json)
    roundtrip = client.DatalogClient._roundtrip

    def timed_roundtrip(self, request):
        state = tracer._state()
        state.handled = None
        started = CLOCK()
        reply = roundtrip(self, request)
        elapsed = CLOCK() - started
        if state.handled is not None and tracer.in_op():
            wire.setdefault(state.root, []).append(elapsed - state.handled)
            roundtrips.setdefault(state.root, []).append(elapsed)
        return reply

    client.DatalogClient._roundtrip = timed_roundtrip
    tracer.wire = wire
    tracer.roundtrips = roundtrips
    return tracer


# ----------------------------------------------------------------------
# Server processes
# ----------------------------------------------------------------------
class _OsWithTimedFsync:
    """The ``os`` module as the WAL sees it, with ``fsync`` timed."""

    def __init__(self, real, fsync):
        self._real = real
        self.fsync = fsync

    def __getattr__(self, name):
        return getattr(self._real, name)


class ServerTracer(Tracer):
    """A server process's tracer: dumps its spans to a file on request."""

    def __init__(self, role: str, path: str):
        super().__init__(role)
        self.path = path
        self._dump_asked = threading.Event()
        self._reset_done = False

    def watch_server(self, transport) -> None:
        self.transport = transport

    def dump_soon(self) -> None:
        self._dump_asked.set()

    def dump_if_asked(self) -> None:
        if self._dump_asked.is_set():
            self._dump_asked.clear()
            self.dump()

    def dump(self) -> None:
        data = self.snapshot()
        transport = getattr(self, "transport", None)
        if transport is not None:
            data["stats"] = transport.backend.stats()
            data["stats"].pop("intern_table", None)
            data["live"] = transport.live.stats() if transport.live is not None else {}
        temporary = self.path + ".tmp"
        with open(temporary, "w") as handle:
            json.dump(data, handle, default=str)
        os.replace(temporary, self.path)

    def recovery_summary(self) -> Dict[str, float]:
        """How this process spent its start-up: snapshot load, then WAL replay."""
        totals = self.totals()
        return {
            "load_s": _any_root(totals, "snapshot.load") + _any_root(totals, "snapshot.restore"),
            "replay_s": _any_root(totals, "session.maintenance"),
        }

    def first_traced_request(self) -> None:
        """The client tags only timed operations: drop what set-up recorded."""
        if not self._reset_done:
            self._reset_done = True
            self.reset()


def install_server(role: str, path: str) -> ServerTracer:
    """Wrap the engine, service, storage, replication and live layers."""
    from repro.api import protocol, types
    from repro.api.service import DatalogService
    from repro.live.subscriptions import SubscriptionManager
    from repro.replication import hub
    from repro.replication.follower import FollowerServer
    from repro.engine.server import DatalogServer
    from repro.storage import snapshot, store, wal

    tracer = ServerTracer(role, path)
    _install_engine(tracer)
    for codec in ("decode_request", "encode_response", "encode_request", "decode_response"):
        tracer.patch_function(types, codec, "types.codec")
    tracer.patch_method(DatalogService, "handle_raw", "service.dispatch")
    tracer.patch_method(wal.WriteAheadLog, "append", "wal.append")
    wal.os = _OsWithTimedFsync(os, tracer.wrap(os.fsync, "wal.fsync"))
    tracer.patch_method(store.DurableStore, "_write_checkpoint", "store.checkpoint")
    tracer.patch_function(snapshot, "load_snapshot", "snapshot.load")
    tracer.patch_method(hub._Entry, "frame", "hub.frame")
    tracer.patch_method(SubscriptionManager, "_rows_for", "subscriptions.delta")

    announce = DatalogServer._announce_publish

    def announce_publish(self):
        # Runs before the publish listeners, so the replication frame and
        # the watch delta of this generation can find the write's trace.
        trace = tracer.current_trace()
        if trace is not None:
            tracer.generations[self._generation] = trace
        tracer.published[self._generation] = CLOCK()
        return announce(self)

    DatalogServer._announce_publish = announce_publish
    applied = tracer.wrap(FollowerServer.apply_replicated, "follower.apply")

    def apply_replicated(self, facts, generation, expected_facts=None):
        report = applied(self, facts, generation, expected_facts)
        if tracer._state().root == "follower.frame":
            tracer.end_op()
        return report

    FollowerServer.apply_replicated = apply_replicated

    original_send, original_recv = protocol.send_json, protocol.recv_json
    send = tracer.wrap(original_send, "protocol.send")

    def recv_json(stream, *rest):
        message = original_recv(stream, *rest)  # the blocking wait is idle time
        if not isinstance(message, dict):
            return message
        trace = message.pop("_trace", None)
        if trace is not None:
            tracer.first_traced_request()
            tracer.generations.setdefault(message.get("generation", -1), trace)
            kind = message.get("op") or message.get("kind") or "?"
            root = "follower.frame" if kind == "generation_frame" else f"request:{kind}"
            tracer.begin_op(root, trace)
            tracer._state().received = CLOCK()
        return message

    def send_json(stream, message, *rest):
        state = tracer._state()
        opened = False
        kind = message.get("kind") if isinstance(message, dict) else None
        if state.root == UNTRACED and kind in ("generation_frame", "subscription_delta"):
            trace = tracer.generations.get(message.get("generation"))
            if trace is not None:
                message = dict(message, _trace=trace)
                tracer.begin_op("push:" + kind, trace)
                opened = True
        elif state.root.startswith("request:"):
            message = dict(message, _handled=CLOCK() - state.received)
        try:
            return send(stream, message, *rest)
        finally:
            if opened or state.root.startswith("request:"):
                tracer.end_op()

    # Every module that imported the frame functions gets the traced ones.
    tracer.patch_function(protocol, "recv_json", "", replacement=recv_json)
    tracer.patch_function(protocol, "send_json", "", replacement=send_json)
    return tracer


# ----------------------------------------------------------------------
# The per-layer report
# ----------------------------------------------------------------------
def _total(totals: dict, roots, name: str, field: int = 1) -> float:
    return sum(
        totals.get(root, {}).get(name, [0, 0.0, 0.0])[field]
        for root in (roots if isinstance(roots, (list, tuple)) else [roots])
    )


def _any_root(totals: dict, name: str, field: int = 1) -> float:
    return sum(entries.get(name, [0, 0.0, 0.0])[field] for entries in totals.values())


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def report(run, end_to_end: Dict[str, Any]) -> Dict[str, Any]:
    """Per-layer metrics of one traced run, with the raw data behind them."""
    tracer: Tracer = run.tracer
    bench = tracer.totals()
    servers = run.server_traces
    leader = servers.get("leader", {}).get("totals", {})
    follower = servers.get("follower", {}).get("totals", {})
    evaluations = max(1, bench.get("fixpoint", {}).get("fixpoint", [1])[0])
    kernels = run.kernel_counts
    firings = kernels["batched_firings"] + kernels["tuple_firings"]
    rounds = max(1, len(run.samples["write_s"]))
    requests_by_root = {
        root: len(run.samples[f"{root}_s"]) for root in ("write", "query", "cached_query")
    }
    requests = max(1, sum(requests_by_root.values()))
    client_roots = ["write", "query", "cached_query"]
    request_roots = [root for root in leader if root.startswith("request:")]

    def server_total(name: str, field: int = 1) -> float:
        return _total(leader, request_roots, name, field)

    setup_parses = max(1, _total(bench, "setup", "parser.parse", 0))
    inserts = _total(bench, "fixpoint", "interpretation.insert", 0)
    stats = servers.get("leader", {}).get("stats", {})
    follower_stats = servers.get("follower", {}).get("stats", {})
    result_cache = stats.get("server", {}).get("result_cache", {})
    served = stats.get("server", {}).get("queries_served", 0)
    prepared = stats.get("prepared_cache", {})
    durability = stats.get("durability", {})
    wal = durability.get("wal", {})
    live = servers.get("follower", {}).get("live", {})
    lags = [
        applied - servers["leader"]["published"][generation]
        for generation, applied in servers.get("follower", {}).get("published", {}).items()
        if generation in servers.get("leader", {}).get("published", {})
    ]
    started, ended = run.serve_started, run.serve_started + run.serve_seconds
    gc_pauses = [  # the servers' collections during the loop
        pause
        for server in servers.values()
        for end, pause in server.get("gc", [])
        if started <= end <= ended
    ]
    cpu = sum(run.cpu_after.values()) - sum(run.cpu_before.values())
    recoveries = run.recoveries
    wire = [value for root in client_roots for value in tracer.wire.get(root, [])]

    per_layer = {
        "parser.parse_s": _metric(_total(bench, "setup", "parser.parse") / setup_parses, "s"),
        "planner.compile_s": _metric(_total(bench, "fixpoint", "planner.compile") / evaluations, "s"),
        "fixpoint.sweeps": _metric(_total(bench, "fixpoint", "fixpoint.sweep", 0) / evaluations, "count"),
        "fixpoint.firings": _metric(firings / evaluations, "count"),
        "kernels.join_s": _metric(_total(bench, "fixpoint", "kernels.join") / evaluations, "s"),
        "kernels.batched_share": _metric(kernels["batched_firings"] / max(1, firings), "ratio"),
        "kernels.rows_emitted": _metric(kernels["facts_emitted"] / evaluations, "count"),
        "planner.tuple_s": _metric(_total(bench, "fixpoint", "planner.tuple", 2) / evaluations, "s"),
        "planner.tuple_firings": _metric(kernels["tuple_firings"] / evaluations, "count"),
        "interpretation.insert_s": _metric(
            _total(bench, "fixpoint", "interpretation.insert", 2) / evaluations, "s"),
        "interpretation.insert_yield": _metric(
            run.insert_yield / max(1, inserts), "ratio"),
        "limits.checks": _metric(_total(bench, "fixpoint", "limits.check", 0) / evaluations, "count"),
        "domain.add_s": _metric(_total(bench, "fixpoint", "domain.add") / evaluations, "s"),
        "domain.size": _metric(run.domain_size, "count"),
        "sequence.interned": _metric(run.intern["size"], "count"),
        "sequence.symbols": _metric(run.intern["total_symbols"], "count"),
        "transducers.run_s": _metric(_total(bench, "fixpoint", "transducers.run") / evaluations, "s"),
        "transducers.runs": _metric(_total(bench, "fixpoint", "transducers.run", 0) / evaluations, "count"),
        "types.codec_s": _metric(
            (_total(bench, client_roots, "types.codec") + server_total("types.codec")) / requests, "s"),
        "protocol.frame_s": _metric(
            (_total(bench, client_roots, "protocol.send", 2)
             + _total(bench, client_roots, "protocol.recv", 2)
             + server_total("protocol.send", 2)) / requests, "s"),
        "transport.wire_s": _metric(sum(wire) / max(1, len(wire)), "s"),
        "service.dispatch_s": _metric(server_total("service.dispatch", 2) / requests, "s"),
        "server.query_s": _metric(
            _total(leader, "request:query", "server.query")
            / max(1, _total(leader, "request:query", "server.query", 0)), "s"),
        "server.result_hit_ratio": _metric(result_cache.get("hits", 0) / max(1, served), "ratio"),
        "server.publish_s": _metric(_any_root(leader, "server.publish") / max(1, _any_root(leader, "server.publish", 0)), "s"),
        "session.maintenance_s": _metric(_any_root(leader, "session.maintenance") / rounds, "s"),
        "session.prepared_hit_ratio": _metric(
            prepared.get("hits", 0) / max(1, prepared.get("hits", 0) + prepared.get("misses", 0)), "ratio"),
        "query.execute_s": _metric(
            _total(leader, "request:query", "query.execute")
            / max(1, _total(leader, "request:query", "query.execute", 0)), "s"),
        "wal.append_s": _metric(_any_root(leader, "wal.append", 2) / rounds, "s"),
        "wal.fsync_s": _metric(_any_root(leader, "wal.fsync") / rounds, "s"),
        "wal.bytes_per_write": _metric(run.wal_bytes / rounds, "bytes"),
        "wal.syncs_per_write": _metric(_any_root(leader, "wal.fsync", 0) / rounds, "count"),
        "store.checkpoint_s": _metric(_any_root(leader, "store.checkpoint"), "s"),
        "store.checkpoints": _metric(_any_root(leader, "store.checkpoint", 0), "count"),
        "store.replay_s": _metric(
            sum(r.get("replay_s", 0.0) for r in recoveries) / max(1, len(recoveries)), "s"),
        "snapshot.load_s": _metric(
            sum(r.get("load_s", 0.0) for r in recoveries) / max(1, len(recoveries)), "s"),
        "hub.frame_s": _metric(
            _any_root(leader, "hub.frame") / max(1, _any_root(leader, "hub.frame", 0)), "s"),
        "hub.frames": _metric(_any_root(leader, "hub.frame", 0), "count"),
        "follower.apply_s": _metric(
            _any_root(follower, "follower.apply") / max(1, _any_root(follower, "follower.apply", 0)), "s"),
        "follower.lag_s": _metric(sum(lags) / max(1, len(lags)), "s"),
        "follower.bootstraps": _metric(
            follower_stats.get("replication", {}).get("bootstraps", 0), "count"),
        "subscriptions.delta_s": _metric(
            _any_root(follower, "subscriptions.delta")
            / max(1, _any_root(follower, "subscriptions.delta", 0)), "s"),
        "subscriptions.pushed": _metric(live.get("deltas_pushed", 0), "count"),
        "subscriptions.coalesced": _metric(live.get("coalesced", 0), "count"),
        "process.cpu_per_op_s": _metric(cpu / rounds, "s"),
        "gc.pause_s": _metric(sum(gc_pauses) / rounds, "s"),
        "gc.collections": _metric(len(gc_pauses), "count"),
    }
    return {
        "per_layer": per_layer,
        "remote_query": {
            root: _breakdown(tracer, bench, servers.get("leader", {}), root)
            for root in ("query", "cached_query")
        },
        "end_to_end": end_to_end,
        "processes": {
            "bench": tracer.snapshot(),
            **servers,
        },
        "wal_stats": wal,
    }


def _breakdown(tracer: Tracer, bench: dict, leader: dict, root: str) -> Dict[str, Any]:
    """Where one remote query's round trip goes, per query, in seconds.

    Client columns are self times inside the operation (from the complete
    totals); server columns are the mean inclusive durations of the
    leader's spans per trace id, over the operations whose spans both
    processes kept; ``wire`` is the round trip minus the server's handling.
    """
    ops = bench.get(root, {}).get(root, [0])[0] or 1
    traces = {span[0] for span in tracer.spans() if span[1] == root}
    matched: Dict[str, Dict[str, float]] = {}
    for trace, name, start, end, _parent in leader.get("spans", []):
        if trace in traces:
            spans = matched.setdefault(trace, {})
            spans[name] = spans.get(name, 0.0) + (end - start)
    names = {name for spans in matched.values() for name in spans}
    roundtrip = tracer.roundtrips.get(root, [])
    wire = tracer.wire.get(root, [])
    return {
        "roundtrip_s": sum(roundtrip) / max(1, len(roundtrip)),
        "wire_s": sum(wire) / max(1, len(wire)),
        "client_self_s": {
            name: own / ops for name, (_count, _total, own) in bench.get(root, {}).items()
        },
        "server_s": {
            name: sum(spans.get(name, 0.0) for spans in matched.values()) / max(1, len(matched))
            for name in sorted(names)
        },
        "server_operations": len(matched),
    }
