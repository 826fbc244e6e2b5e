"""TCP transport for the versioned API.

:class:`DatalogTCPServer` is a :class:`socketserver.ThreadingTCPServer`
that serves the length-prefixed newline-JSON protocol of
:mod:`repro.api.protocol` over a shared, thread-safe
:class:`~repro.engine.server.DatalogServer` backend.  Concurrency and
consistency come entirely from the backend (snapshot-isolated reads,
serialized generation-publishing writers, per-generation result caching and
request coalescing); the transport adds only

* one handler thread and one :class:`~repro.api.service.DatalogService`
  per connection — cursors are connection-scoped, so an abandoned
  connection reclaims its streams, and the request/response lockstep per
  connection is the backpressure: the server computes and buffers at most
  one page ahead of the slowest reader;
* framing hygiene — a peer that breaks the framing gets one best-effort
  ``protocol_error`` reply and the connection is closed (the stream
  position is unknowable after a bad frame).

``serve_tcp`` is the one-call entry point the CLI, tests and benchmarks
use::

    with serve_tcp(program, {"r": ["abc"]}, port=0) as server:
        client = DatalogClient(*server.address)
"""

from __future__ import annotations

import socket
import socketserver
import threading
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple, Union

from repro.api.protocol import MAX_FRAME_BYTES, recv_json, send_json
from repro.api.service import DEFAULT_MAX_PAGE_ROWS, DatalogService
from repro.api.types import (
    ApiError,
    ErrorCode,
    HeartbeatFrame,
    WatchRequest,
    WatchingResponse,
    decode_request,
    encode_response,
)
from repro.engine.server import DatalogServer
from repro.errors import ProtocolError

# The hub module imports only types/engine/storage — no cycle back here.
# (The live-subscription manager is imported lazily in the constructor:
# its package pulls in the asyncio front-end, which imports this module's
# siblings.)
from repro.replication.hub import DEFAULT_HEARTBEAT_SECONDS, ReplicationHub


class _ApiConnectionHandler(socketserver.StreamRequestHandler):
    """One thread per connection: read a frame, dispatch, write a frame."""

    # Request/response frames are small and latency-bound; Nagle + delayed
    # ACK would add ~40ms to every round trip on loopback.
    disable_nagle_algorithm = True

    def handle(self) -> None:
        server: DatalogTCPServer = self.server  # type: ignore[assignment]
        service = DatalogService(
            server.backend, max_page_rows=server.max_page_rows, hub=server.hub,
            live=server.live,
        )
        if server.live is not None:
            server.live.connection_opened()
        try:
            self._serve(server, service)
        finally:
            if server.live is not None:
                server.live.connection_closed()
            service.close()

    def _serve(self, server: DatalogTCPServer, service: DatalogService) -> None:
        while True:
            try:
                message = recv_json(self.rfile, server.max_frame_bytes)
            except ProtocolError as error:
                self._send_best_effort(
                    service, encode_response(ApiError.from_exception(error))
                )
                return  # the stream position is unknown: drop the connection
            except OSError:
                return
            if message is None:
                return  # clean EOF
            if isinstance(message, dict) and message.get("op") == "subscribe":
                # Subscriptions flip this connection to server-push for the
                # rest of its life: no further requests are read.
                self._serve_subscription(service, message)
                return
            if isinstance(message, dict) and message.get("op") == "watch":
                # Same story for live queries on this transport: the
                # connection becomes the subscription's push stream (the
                # asyncio front-end serves watches duplex instead).
                self._serve_watch(service, message)
                return
            reply = service.handle_raw(message)
            if not self._send_best_effort(service, reply):
                return

    def _serve_subscription(
        self, service: DatalogService, message: Dict[str, Any]
    ) -> None:
        """Drive one replication stream until either side drops it."""
        server: DatalogTCPServer = self.server  # type: ignore[assignment]
        try:
            request = decode_request(message)
        except Exception as error:
            self._send_best_effort(
                service, encode_response(ApiError.from_exception(error))
            )
            return
        stream = service.stream_subscription(request)  # type: ignore[arg-type]
        server.register_subscriber(self.connection)
        try:
            for response in stream:
                send_json(
                    self.wfile, encode_response(response), server.max_frame_bytes
                )
        except (OSError, ValueError, ProtocolError):
            return  # subscriber went away (or a frame broke); just drop it
        except Exception as error:
            # A pre-stream refusal (no hub, fingerprint mismatch) or a bug
            # mid-stream: ship the typed error so the follower can react.
            self._send_best_effort(
                service, encode_response(ApiError.from_exception(error))
            )
        finally:
            server.unregister_subscriber(self.connection)
            stream.close()

    def _serve_watch(
        self, service: DatalogService, message: Dict[str, Any]
    ) -> None:
        """Drive one live-query push stream until either side drops it."""
        server: DatalogTCPServer = self.server  # type: ignore[assignment]
        live = server.live
        try:
            request = decode_request(message)
        except Exception as error:
            self._send_best_effort(
                service, encode_response(ApiError.from_exception(error))
            )
            return
        if live is None or not isinstance(request, WatchRequest):
            self._send_best_effort(
                service,
                encode_response(
                    ApiError(
                        code=ErrorCode.BAD_REQUEST,
                        message="live queries are not enabled on this server",
                    )
                ),
            )
            return
        try:
            subscription = live.subscribe(
                request.pattern, strict=request.strict, initial=request.initial
            )
        except Exception as error:
            # Parse/validation/unknown-predicate refusals, typed.
            self._send_best_effort(
                service, encode_response(ApiError.from_exception(error))
            )
            return
        server.register_subscriber(self.connection)
        try:
            send_json(
                self.wfile,
                encode_response(
                    WatchingResponse(
                        subscription=subscription.id,
                        pattern=subscription.pattern,
                        generation=subscription.started_generation,
                        heartbeat_seconds=live.heartbeat_seconds,
                    )
                ),
                server.max_frame_bytes,
            )
            while True:
                frame = subscription.pop(live.heartbeat_seconds)
                if frame is None:
                    if subscription.closed:
                        return  # server shutting down / unsubscribed
                    send_json(
                        self.wfile,
                        encode_response(
                            HeartbeatFrame(
                                generation=server.backend.generation,
                                subscription=subscription.id,
                            )
                        ),
                        server.max_frame_bytes,
                    )
                    continue
                if isinstance(frame, ApiError):
                    # Terminal (slow consumer): ship the typed error, drop.
                    self._send_best_effort(service, encode_response(frame))
                    return
                send_json(
                    self.wfile, encode_response(frame), server.max_frame_bytes
                )
        except (OSError, ValueError, ProtocolError):
            return  # watcher went away (or a frame broke); just drop it
        finally:
            live.unsubscribe(subscription.id)
            server.unregister_subscriber(self.connection)

    @staticmethod
    def _drop_reply_cursors(service: DatalogService, message: Dict[str, Any]) -> None:
        """Release cursors a reply registered but the client will never see.

        A reply that could not be shipped orphans its pagination state:
        the client cannot fetch or close a cursor id it never received,
        and 64 leaked cursors would permanently reject paged queries on
        this connection (each pinning a fully-evaluated result).
        """
        cursors = [message.get("cursor")]
        cursors.extend(
            entry.get("cursor")
            for entry in message.get("results", ())
            if isinstance(entry, dict)
        )
        for cursor in cursors:
            if isinstance(cursor, str):
                service.release_cursor(cursor)

    def _send_best_effort(
        self, service: DatalogService, message: Dict[str, Any]
    ) -> bool:
        try:
            send_json(self.wfile, message, self.server.max_frame_bytes)
            return True
        except ProtocolError as error:
            # The reply itself blew the frame cap (a page of huge
            # sequences: the row clamp bounds rows, not bytes).  Nothing
            # was written yet — the stream is still in sync — so drop the
            # undeliverable reply's cursors, send a small typed error
            # instead, and keep the connection serving.
            self._drop_reply_cursors(service, message)
            try:
                send_json(
                    self.wfile, encode_response(ApiError.from_exception(error))
                )
                return True
            except (OSError, ValueError):
                return False
        except (OSError, ValueError):
            self._drop_reply_cursors(service, message)
            return False  # peer went away mid-write


class DatalogTCPServer(socketserver.ThreadingTCPServer):
    """Serve one :class:`DatalogServer` backend to remote TCP clients.

    Parameters
    ----------
    address:
        ``(host, port)`` to bind; port 0 picks a free port (read it back
        from :attr:`address`).
    backend:
        The thread-safe :class:`DatalogServer` every connection shares.
    max_page_rows, max_frame_bytes:
        Forwarded to each connection's service / frame reader.
    owns_backend:
        When True (the :func:`serve_tcp` path), :meth:`close` also closes
        the backend.
    heartbeat_seconds:
        Cadence of keep-alive frames on idle replication streams.

    Every TCP-served backend is automatically a replication leader: a
    :class:`~repro.replication.hub.ReplicationHub` is attached at
    construction, so followers can subscribe on the same port queries
    use (recording a publish is a few machine words, costing the write
    path nothing measurable when nobody subscribes).  A
    :class:`~repro.live.subscriptions.SubscriptionManager` is attached
    the same way, so clients can ``watch`` continuous queries — on a
    follower too (fan-out of fan-out).
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        backend: DatalogServer,
        max_page_rows: int = DEFAULT_MAX_PAGE_ROWS,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        owns_backend: bool = False,
        heartbeat_seconds: float = DEFAULT_HEARTBEAT_SECONDS,
    ) -> None:
        # Runtime import: the live package pulls in the asyncio front-end,
        # which imports this module's siblings at module scope.
        from repro.live.subscriptions import SubscriptionManager

        self.backend = backend
        self.max_page_rows = max_page_rows
        self.max_frame_bytes = max_frame_bytes
        self._owns_backend = owns_backend
        self._serve_thread: Optional[threading.Thread] = None
        self._subscriber_sockets: set = set()
        self._subscriber_lock = threading.Lock()
        self.hub = (
            ReplicationHub(backend, heartbeat_seconds=heartbeat_seconds)
            if isinstance(backend, DatalogServer)
            else None
        )
        self.live = (
            SubscriptionManager(backend, heartbeat_seconds=heartbeat_seconds)
            if isinstance(backend, DatalogServer)
            else None
        )
        super().__init__(address, _ApiConnectionHandler)

    @property
    def address(self) -> Tuple[str, int]:
        """The actually-bound ``(host, port)`` (resolves port 0)."""
        host, port = self.server_address[:2]
        return host, port

    def start(self) -> DatalogTCPServer:
        """Serve in a daemon thread (tests, benchmarks, embedded serving)."""
        if self._serve_thread is None:
            self._serve_thread = threading.Thread(
                target=self.serve_forever, name="repro-api-tcp", daemon=True
            )
            self._serve_thread.start()
        return self

    def register_subscriber(self, connection) -> None:
        with self._subscriber_lock:
            self._subscriber_sockets.add(connection)

    def unregister_subscriber(self, connection) -> None:
        with self._subscriber_lock:
            self._subscriber_sockets.discard(connection)

    def _drop_subscribers(self) -> None:
        """Sever live replication streams so followers notice the restart.

        Handler threads are daemons parked in heartbeat waits; without the
        shutdown they would keep streaming to followers long after the
        listener is gone, and a restarted leader's followers would never
        reconnect to it.
        """
        with self._subscriber_lock:
            sockets = list(self._subscriber_sockets)
            self._subscriber_sockets.clear()
        for connection in sockets:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def close(self) -> None:
        """Stop serving, release the socket, and close an owned backend."""
        if self._serve_thread is not None:
            self.shutdown()
            self._serve_thread.join(timeout=5)
            self._serve_thread = None
        if self.live is not None:
            self.live.close()  # wakes handler threads parked in pop()
        self._drop_subscribers()
        self.server_close()
        if self._owns_backend:
            self.backend.close()

    def __enter__(self) -> DatalogTCPServer:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        host, port = self.address
        return f"DatalogTCPServer({host}:{port}, backend={self.backend!r})"


def parse_address(text: str, default_host: str = "127.0.0.1") -> Tuple[str, int]:
    """Parse ``HOST:PORT``, ``:PORT`` or ``PORT`` into an address tuple."""
    host, _, port_text = text.rpartition(":")
    if not host:
        host = default_host
    try:
        port = int(port_text)
    except ValueError:
        raise ProtocolError(
            f"invalid TCP address {text!r} (expected HOST:PORT, :PORT or PORT)"
        ) from None
    if not 0 <= port <= 65535:
        raise ProtocolError(f"TCP port {port} out of range 0-65535")
    return host, port


def serve_tcp(
    program: Union[str, DatalogServer, object],
    database: Optional[Union[Mapping[str, Iterable], object]] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    start: bool = True,
    max_page_rows: int = DEFAULT_MAX_PAGE_ROWS,
    max_frame_bytes: int = MAX_FRAME_BYTES,
    **server_options: Any,
) -> DatalogTCPServer:
    """Expose a program (or an existing :class:`DatalogServer`) over TCP.

    Builds the thread-safe backend when given program text / a parsed
    program (``database`` and ``server_options`` — ``limits``,
    ``transducers``, ``result_cache_size``, ``data_dir`` — are forwarded),
    binds ``host:port`` (port 0 = pick a free one) and, with ``start=True``,
    serves in a daemon thread.  Closing the returned transport closes a
    backend it built, never one it was handed.
    """
    if isinstance(program, DatalogServer):
        if database is not None or server_options:
            raise ProtocolError(
                "serve_tcp(server) uses the server as configured; pass "
                "database/server options only with a program"
            )
        backend, owns = program, False
    else:
        backend, owns = DatalogServer(program, database, **server_options), True
    try:
        transport = DatalogTCPServer(
            (host, port), backend, max_page_rows=max_page_rows,
            max_frame_bytes=max_frame_bytes, owns_backend=owns,
        )
    except BaseException:
        if owns:
            backend.close()
        raise
    if start:
        transport.start()
    return transport
