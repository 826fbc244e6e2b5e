"""Typed request dispatch over a serving backend (the API's one choke point).

:class:`DatalogService` executes :mod:`repro.api.types` requests against a
:class:`~repro.engine.server.DatalogServer` (the concurrent, snapshot-
isolated backend) or a :class:`~repro.engine.session.DatalogSession` (the
single-caller backend the CLI's demand mode uses).  Every transport — the
TCP handler, the ``--json`` CLI loops, in-process tests — funnels through
:meth:`DatalogService.handle_raw`, which is therefore the single place
where

* schema versions are checked and requests validated field-by-field,
* **every** exception becomes a typed :class:`~repro.api.types.ApiError`
  (internal exception types, ``KeyError``-class bugs included, never cross
  the boundary raw — satisfying the error-leakage contract), and
* large results are paginated: the service clamps every page to
  ``max_page_rows`` and parks the remainder behind a cursor, so a
  million-row answer never serializes into one giant JSON blob.

Cursors are owned by the service instance.  Transports create one service
per connection, which scopes cursors to the connection (dropping the
connection drops its cursors) and makes the pull-one-page-at-a-time loop
the per-connection backpressure mechanism: no page is computed, encoded or
buffered before the client asks for it.  A cursor pins the fully-evaluated
:class:`~repro.engine.query.QueryResult` it pages over, so a stream opened
before an ``add_facts`` keeps returning the snapshot it started on — the
same repeatable-read story the server's generations give single-shot
queries.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Dict, Iterator, Mapping, Optional, Tuple, Union

from repro.analysis.diagnostics import (
    DiagnosticReport,
    explain_with_diagnostics,
    lint_program,
)
from repro.api.types import (
    AddFactsRequest,
    AddFactsResponse,
    ApiError,
    ApiRequest,
    ApiResponse,
    BatchRequest,
    BatchResponse,
    CloseCursorRequest,
    ClosedResponse,
    ErrorCode,
    ExplainRequest,
    ExplainResponse,
    FetchRequest,
    HeartbeatFrame,
    HelloResponse,
    LintRequest,
    LintResponse,
    PingRequest,
    PongResponse,
    QueryRequest,
    QueryResultPage,
    ServerStats,
    SnapshotFrame,
    StatsRequest,
    SubscribeRequest,
    SUPPORTED_VERSIONS,
    UnwatchRequest,
    WatchRequest,
    decode_request,
    encode_response,
)
from repro.engine.query import QueryResult
from repro.engine.server import DatalogServer
from repro.engine.session import DatalogSession
from repro.errors import LagTimeoutError, RemoteApiError, ReplicationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (hub imports types)
    from repro.live.subscriptions import SubscriptionManager
    from repro.replication.hub import ReplicationHub

#: Hard ceiling on rows (and witnesses) per page.  Monolithic requests are
#: clamped to this too: the wire never carries more than one page per frame.
DEFAULT_MAX_PAGE_ROWS = 10_000

#: Open cursors per service (= per connection).  A leaky client that never
#: fetches or closes its streams is cut off instead of growing the server.
DEFAULT_MAX_CURSORS = 64

#: How long a ``min_generation``-bounded query waits for the backend to
#: catch up when the request names no timeout of its own.
DEFAULT_MIN_GENERATION_TIMEOUT = 5.0


class _Cursor:
    """Server-side pagination state over one pinned, evaluated result."""

    __slots__ = (
        "result", "row_offset", "witness_offset", "page_rows",
        "include_witnesses", "generation",
    )

    def __init__(
        self,
        result: QueryResult,
        page_rows: int,
        include_witnesses: bool,
        generation: Optional[int],
    ) -> None:
        self.result = result
        self.row_offset = 0
        self.witness_offset = 0
        self.page_rows = page_rows
        self.include_witnesses = include_witnesses
        self.generation = generation


class DatalogService:
    """Execute typed API requests against one serving backend.

    Parameters
    ----------
    backend:
        A :class:`DatalogServer` (concurrent, generation-publishing) or a
        :class:`DatalogSession` (single caller; the CLI's demand mode).
    demand:
        With a session backend, answer queries demand-driven
        (``session.query(..., demand=True)``); ignored for servers, which
        always serve full snapshots.
    max_page_rows:
        Page clamp: no response frame ever carries more rows (or witnesses)
        than this, whatever the request asked for.
    max_open_cursors:
        Concurrent unfinished streams allowed on this service instance.
    hub:
        The server's :class:`~repro.replication.hub.ReplicationHub`, when
        it acts as a replication leader.  Enables ``subscribe`` streams
        (on transports that support server-push) and folds the hub's
        counters into ``stats`` replies.
    live:
        The server's :class:`~repro.live.subscriptions.SubscriptionManager`,
        when a transport serves live queries.  Folds the versioned
        ``live`` section into ``stats`` replies and counts this service's
        cursors on the serving-wide open-cursor gauge.

    The instance is *not* thread-safe (cursors are plain state); give each
    connection its own service over the shared, thread-safe server.
    """

    def __init__(
        self,
        backend: Union[DatalogServer, DatalogSession],
        demand: bool = False,
        max_page_rows: int = DEFAULT_MAX_PAGE_ROWS,
        max_open_cursors: int = DEFAULT_MAX_CURSORS,
        hub: Optional["ReplicationHub"] = None,
        live: Optional["SubscriptionManager"] = None,
    ) -> None:
        self._backend = backend
        self._hub = hub
        self._live = live
        self._demand = demand and isinstance(backend, DatalogSession)
        self._max_page_rows = max(1, max_page_rows)
        self._max_open_cursors = max(1, max_open_cursors)
        self._cursors: Dict[str, _Cursor] = {}
        self._cursor_ids = itertools.count(1)
        self._explain_text: Optional[str] = None
        self._lint_report: Optional[DiagnosticReport] = None

    # ------------------------------------------------------------------
    # Envelope boundary
    # ------------------------------------------------------------------
    def handle_raw(self, message: Mapping[str, Any]) -> Dict[str, Any]:
        """Decode, dispatch and encode one wire message.

        Never raises (short of interpreter-level exits): every failure —
        malformed envelope, validation error, engine exception, internal
        bug — is returned as an encoded :class:`ApiError` response.
        """
        try:
            request = decode_request(message)
            response = self.handle(request)
        except Exception as error:
            return encode_response(ApiError.from_exception(error))
        return encode_response(response)

    # ------------------------------------------------------------------
    # Typed dispatch
    # ------------------------------------------------------------------
    def handle(self, request: ApiRequest) -> ApiResponse:
        """Execute one typed request (raises library exceptions on failure)."""
        if isinstance(request, QueryRequest):
            return self._query(request)
        if isinstance(request, FetchRequest):
            return self._fetch(request)
        if isinstance(request, CloseCursorRequest):
            return self._close_cursor(request)
        if isinstance(request, AddFactsRequest):
            return self._add_facts(request)
        if isinstance(request, BatchRequest):
            return self._batch(request)
        if isinstance(request, ExplainRequest):
            # The program is immutable for the backend's lifetime; compile
            # the report once per service, not once per request.
            if self._explain_text is None:
                self._explain_text = explain_with_diagnostics(self._backend.program)
            return ExplainResponse(text=self._explain_text)
        if isinstance(request, LintRequest):
            return self._lint(request)
        if isinstance(request, StatsRequest):
            return self._stats()
        if isinstance(request, PingRequest):
            return self._pong()
        if isinstance(request, SubscribeRequest):
            # Subscriptions flip the connection to server-push, which only
            # a streaming transport can carry; the TCP handler intercepts
            # the op before dispatch and drives stream_subscription.
            raise RemoteApiError(
                "subscribe requires a streaming transport (connect over TCP)",
                code=ErrorCode.BAD_REQUEST,
            )
        if isinstance(request, (WatchRequest, UnwatchRequest)):
            # Live queries need server-push too: both TCP transports
            # intercept these ops before dispatch and drive the
            # subscription manager themselves.
            raise RemoteApiError(
                "watch requires a streaming transport (connect over TCP)",
                code=ErrorCode.BAD_REQUEST,
            )
        raise RemoteApiError(
            f"unhandled request type {type(request).__name__}",
            code=ErrorCode.BAD_REQUEST,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def backend(self) -> Union[DatalogServer, DatalogSession]:
        return self._backend

    def open_cursors(self) -> int:
        return len(self._cursors)

    def _register_cursor(self, cursor_id: str, cursor: _Cursor) -> None:
        self._cursors[cursor_id] = cursor
        if self._live is not None:
            self._live.cursor_opened()

    def _drop_cursor(self, cursor_id: str) -> None:
        if self._cursors.pop(cursor_id, None) is not None and self._live is not None:
            self._live.cursor_released()

    def release_cursor(self, cursor_id: str) -> None:
        """Drop one cursor's pagination state (unknown ids are a no-op).

        Transports call this for cursors registered by a reply they failed
        to deliver — the client never learned the id, so nothing else
        would ever free it.
        """
        self._drop_cursor(cursor_id)

    def close(self) -> None:
        """Release every cursor (transports call this when the connection
        drops, keeping the serving-wide open-cursor gauge honest)."""
        for cursor_id in list(self._cursors):
            self._drop_cursor(cursor_id)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def _generation(self) -> Optional[int]:
        return getattr(self._backend, "generation", None)

    def _execute(
        self, pattern: str, strict: bool
    ) -> Tuple[QueryResult, Optional[int]]:
        """Run one pattern; returns ``(result, generation of the data read)``.

        Against a server the snapshot is pinned *before* execution and its
        generation labels the page — reading ``backend.generation`` after
        the fact would let a concurrent ``add_facts`` publish in between
        and stamp the page with a generation newer than its rows.
        """
        if isinstance(self._backend, DatalogServer):
            snapshot = self._backend.snapshot
            result = self._backend.query(pattern, strict=strict, snapshot=snapshot)
            return result, snapshot.generation
        if self._demand:
            return self._backend.query(pattern, strict=strict, demand=True), None
        return self._backend.query(pattern, strict=strict), None

    def _paged(
        self,
        result: QueryResult,
        page_size: Optional[int],
        include_witnesses: bool,
        generation: Optional[int],
    ) -> QueryResultPage:
        page_rows = min(
            page_size if page_size is not None else self._max_page_rows,
            self._max_page_rows,
        )
        window = result.window(0, 0, limit=page_rows, witnesses=include_witnesses)
        cursor_id = None
        if not window.complete:
            if len(self._cursors) >= self._max_open_cursors:
                raise RemoteApiError(
                    f"too many open cursors ({self._max_open_cursors}); fetch "
                    "or close existing streams first",
                    code=ErrorCode.BAD_REQUEST,
                    details={"max_open_cursors": self._max_open_cursors},
                )
            cursor_id = f"c{next(self._cursor_ids)}"
            cursor = _Cursor(result, page_rows, include_witnesses, generation)
            cursor.row_offset = window.row_offset + len(window.rows)
            cursor.witness_offset = window.witness_offset + len(window.witnesses)
            self._register_cursor(cursor_id, cursor)
        return QueryResultPage.from_result(
            result, window, cursor=cursor_id, generation=generation
        )

    def _await_generation(self, generation: int, timeout: Optional[float]) -> None:
        """Block until the backend has published ``generation`` (or fail).

        The read-your-writes half of replication: a follower holds the
        query until it has caught up to the bound, then answers from a
        snapshot at least that new.  Backends that publish no generations
        (plain sessions) reject the bound outright.
        """
        waiter = getattr(self._backend, "wait_for_generation", None)
        if waiter is None:
            raise RemoteApiError(
                "min_generation requires a generation-publishing server "
                "backend (this endpoint serves an unversioned session)",
                code=ErrorCode.BAD_REQUEST,
                details={"field": "min_generation"},
            )
        timeout = timeout if timeout is not None else DEFAULT_MIN_GENERATION_TIMEOUT
        if not waiter(generation, timeout):
            current = getattr(self._backend, "generation", 0)
            raise LagTimeoutError(
                f"generation {generation} not reached within {timeout:g}s "
                f"(still at {current})"
            )

    def _query(self, request: QueryRequest) -> QueryResultPage:
        request.validate()
        if request.min_generation is not None:
            self._await_generation(
                request.min_generation, request.min_generation_timeout
            )
        result, generation = self._execute(request.pattern, request.strict)
        return self._paged(
            result, request.page_size, request.include_witnesses, generation
        )

    def _fetch(self, request: FetchRequest) -> QueryResultPage:
        cursor = self._cursors.get(request.cursor)
        if cursor is None:
            raise RemoteApiError(
                f"unknown cursor {request.cursor!r} (already exhausted, closed, "
                "or from another connection)",
                code=ErrorCode.UNKNOWN_CURSOR,
                details={"cursor": request.cursor},
            )
        window = cursor.result.window(
            cursor.row_offset,
            cursor.witness_offset,
            limit=cursor.page_rows,
            witnesses=cursor.include_witnesses,
        )
        if window.complete:
            self._drop_cursor(request.cursor)
            cursor_id = None
        else:
            cursor.row_offset = window.row_offset + len(window.rows)
            cursor.witness_offset = window.witness_offset + len(window.witnesses)
            cursor_id = request.cursor
        return QueryResultPage.from_result(
            cursor.result, window, cursor=cursor_id, generation=cursor.generation
        )

    def _close_cursor(self, request: CloseCursorRequest) -> ClosedResponse:
        # Closing an unknown cursor is not an error: the natural race is a
        # client closing a stream whose last fetch already exhausted it.
        self._drop_cursor(request.cursor)
        return ClosedResponse(cursor=request.cursor)

    def _add_facts(self, request: AddFactsRequest) -> AddFactsResponse:
        if isinstance(self._backend, DatalogServer):
            # The generation is read under the server's writer lock: it
            # names the snapshot containing exactly this write, not
            # whatever a concurrent writer published a microsecond later.
            report, generation = self._backend.add_facts_published(
                list(request.facts)
            )
        else:
            report = self._backend.add_facts(list(request.facts))
            generation = None
        return AddFactsResponse(
            base_facts_added=report.base_facts_added,
            facts_added=report.facts_added,
            sweeps=report.sweeps,
            elapsed_seconds=report.elapsed_seconds,
            generation=generation,
        )

    def _batch(self, request: BatchRequest) -> BatchResponse:
        if isinstance(self._backend, DatalogServer):
            # Pin ONE snapshot for the whole batch: every answer reads the
            # same consistent state (and is labeled with its generation)
            # even if maintenance publishes mid-batch; the server's
            # per-generation result cache still deduplicates repeats.
            snapshot = self._backend.snapshot
            results = [
                (
                    self._backend.query(
                        pattern, strict=request.strict, snapshot=snapshot
                    ),
                    snapshot.generation,
                )
                for pattern in request.patterns
            ]
        else:
            results = [
                self._execute(pattern, request.strict)
                for pattern in request.patterns
            ]
        pages = []
        try:
            for result, generation in results:
                pages.append(self._paged(result, None, False, generation))
        except Exception:
            # A failure mid-encoding (e.g. the open-cursor cap) must not
            # orphan the cursors earlier results of this batch registered:
            # only the error reply ships, so the client could never learn
            # (or free) their ids.
            for page in pages:
                if page.cursor is not None:
                    self.release_cursor(page.cursor)
            raise
        return BatchResponse(results=tuple(pages))

    def _lint(self, request: LintRequest) -> LintResponse:
        # The server holds the program but not the caller's source file, so
        # diagnostics carry the spans the program was parsed with; patterns
        # vary per request and bypass the cached pattern-free report.
        if request.patterns:
            return LintResponse(
                report=lint_program(self._backend.program, patterns=request.patterns)
            )
        if self._lint_report is None:
            self._lint_report = lint_program(self._backend.program)
        return LintResponse(report=self._lint_report)

    def _stats(self) -> ServerStats:
        raw = self._backend.stats()
        if self._hub is not None and "replication" not in raw:
            # The leader's replication block comes from the hub; a backend
            # that already reports one (a follower) keeps its own.
            raw = dict(raw)
            raw["replication"] = self._hub.stats()
        if self._live is not None and "live" not in raw:
            raw = dict(raw)
            raw["live"] = self._live.stats()
        return ServerStats.from_raw(raw, generation=self._generation())

    # ------------------------------------------------------------------
    # Replication streaming (driven by the transport, not handle())
    # ------------------------------------------------------------------
    def stream_subscription(
        self, request: SubscribeRequest
    ) -> Iterator[ApiResponse]:
        """Yield the replication stream for one subscriber, forever.

        The transport sends each yielded response as its own frame and
        closes the connection when the generator returns (or the socket
        dies, which closes the generator).  Shape: one
        :class:`HelloResponse`; :class:`SnapshotFrame` records when the
        subscriber needs a bootstrap; then :class:`GenerationFrame` per
        publish with :class:`HeartbeatFrame` while idle.  A subscriber
        that falls behind the hub's retention floor mid-stream gets a
        final :data:`ErrorCode.REPLICATION` error with
        ``details.bootstrap_required`` and the stream ends.
        """
        hub = self._hub
        if hub is None:
            raise RemoteApiError(
                "this server does not publish a replication stream",
                code=ErrorCode.BAD_REQUEST,
            )
        if request.fingerprint is not None and request.fingerprint != hub.fingerprint:
            raise ReplicationError(
                "program fingerprint mismatch: this leader serves a "
                "different program than the subscriber expects"
            )
        heartbeat = hub.heartbeat_seconds
        backend = self._backend
        assert isinstance(backend, DatalogServer)
        bootstrap = request.from_generation is None or not hub.covers(
            request.from_generation
        )
        hub.subscriber_opened()
        try:
            if bootstrap:
                capture = hub.capture_bootstrap()
                yield HelloResponse(
                    generation=capture.generation,
                    facts=capture.fact_count,
                    bootstrap=True,
                    fingerprint=hub.fingerprint,
                    heartbeat_seconds=heartbeat,
                )
                for record in capture.records:
                    yield SnapshotFrame(record=record)
                last = capture.generation
            else:
                snapshot = backend.snapshot
                yield HelloResponse(
                    generation=snapshot.generation,
                    facts=snapshot.fact_count(),
                    bootstrap=False,
                    fingerprint=hub.fingerprint,
                    heartbeat_seconds=heartbeat,
                )
                last = request.from_generation
            while True:
                frames = hub.frames_since(last)
                if frames is None:
                    yield ApiError(
                        code=ErrorCode.REPLICATION,
                        message=(
                            f"generation {last} fell behind the replication "
                            "window; subscribe again for a snapshot bootstrap"
                        ),
                        details={"bootstrap_required": True},
                    )
                    return
                if frames:
                    for frame in frames:
                        yield frame
                    last = frames[-1].generation
                elif not backend.wait_for_generation(last + 1, heartbeat):
                    yield HeartbeatFrame(generation=hub.latest)
        finally:
            hub.subscriber_closed()

    def _pong(self) -> PongResponse:
        from repro import __version__  # runtime import: repro re-exports this package

        return PongResponse(
            versions=SUPPORTED_VERSIONS,
            server_version=__version__,
            generation=self._generation(),
        )
