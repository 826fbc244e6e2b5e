"""A read replica: subscribe to a leader, apply generations, serve reads.

:class:`FollowerServer` subclasses :class:`~repro.engine.server.
DatalogServer`, so the whole serving surface — snapshot-isolated queries,
result caching, the API service and TCP transport — works on it
unchanged.  What changes is where the model comes from: a background
replication thread holds one subscription connection to the leader and

1. **bootstraps** when new or too far behind — snapshot records stream in
   (the on-disk structure of :mod:`repro.storage.snapshot` on the wire),
   are assembled with the loader's own validation, restored into a fresh
   session exactly like crash recovery, and swapped in atomically under
   the writer lock (reads keep hitting the old snapshot until then);
2. **applies** each ``generation_frame`` through ordinary incremental
   maintenance, publishing it *as the leader's generation number* and
   verifying the leader's total fact count — leader and follower are
   fact-for-fact identical at equal generations, and silent divergence
   cannot accumulate;
3. **reconnects** with exponential backoff on any failure, resuming
   incrementally from its own generation when the leader still covers it
   (killing a follower mid-bootstrap and restarting it is the tested
   path, not an edge case).

Writes are refused with the stable ``not_leader`` error carrying the
leader's address, which clients follow automatically.
"""

from __future__ import annotations

import os
import socket
import threading
from typing import Dict, Optional, Tuple, Union

from repro.api.protocol import MAX_FRAME_BYTES, recv_json, send_json
from repro.api.types import (
    ApiError,
    GenerationFrame,
    HeartbeatFrame,
    HelloResponse,
    SnapshotFrame,
    SubscribeRequest,
    decode_response,
    encode_request,
)
from repro.engine.bindings import TransducerRegistry
from repro.engine.limits import EvaluationLimits
from repro.engine.server import DatalogServer, ModelSnapshot
from repro.engine.session import DatalogSession, FactsLike, MaintenanceReport
from repro.errors import NotLeaderError, ProtocolError, ReplicationError
from repro.language.clauses import Program
from repro.storage.snapshot import SnapshotAssembler
from repro.storage.store import program_fingerprint


class FollowerServer(DatalogServer):
    """Serve one program read-only, replicated from a leader.

    Parameters
    ----------
    program:
        The same program the leader serves (text or parsed).  Identity is
        enforced by fingerprint before any state ships.
    leader:
        The leader's replication endpoint: ``"host:port"`` or a
        ``(host, port)`` tuple (the leader's ordinary API port — the
        subscription travels over the same protocol).
    limits, transducers, result_cache_size:
        As on :class:`DatalogServer`.
    follower_id:
        Stable name reported to the leader (diagnostics only).
    start:
        When True (default), the replication thread starts immediately;
        pass False to start it later with :meth:`start_replication`.
    """

    def __init__(
        self,
        program: Union[str, Program],
        leader: Union[str, Tuple[str, int]],
        limits: Optional[EvaluationLimits] = None,
        transducers: Optional[TransducerRegistry] = None,
        result_cache_size: int = 1024,
        follower_id: Optional[str] = None,
        connect_timeout: float = 5.0,
        reconnect_min_seconds: float = 0.05,
        reconnect_max_seconds: float = 2.0,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        start: bool = True,
    ):
        super().__init__(
            program,
            limits=limits,
            transducers=transducers,
            result_cache_size=result_cache_size,
        )
        if isinstance(leader, str):
            from repro.api.transport import parse_address

            leader = parse_address(leader)
        self._leader_host, self._leader_port = leader
        self.leader_address = f"{self._leader_host}:{self._leader_port}"
        self.follower_id = follower_id or f"follower-{os.getpid()}"
        self.fingerprint = program_fingerprint(self.program)
        self._connect_timeout = connect_timeout
        self._reconnect_min = max(0.01, reconnect_min_seconds)
        self._reconnect_max = max(self._reconnect_min, reconnect_max_seconds)
        self._max_frame_bytes = max_frame_bytes
        self._stop = threading.Event()
        self._connected = threading.Event()
        self._socket: Optional[socket.socket] = None
        self._socket_lock = threading.Lock()
        # A brand-new replica always bootstraps: its generation 0 is an
        # empty model, while the leader's generation 0 may carry an
        # initially loaded database — generation numbers only resume a
        # replica that has synced this leader's state before.
        self._force_bootstrap = True
        self._leader_generation = self.generation
        self._bootstraps = 0
        self._frames_applied = 0
        self._heartbeats = 0
        self._connects = 0
        self._last_error: Optional[str] = None
        self._thread: Optional[threading.Thread] = None
        if start:
            self.start_replication()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start_replication(self) -> FollowerServer:
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._replicate_forever,
                name=f"repro-replication-{self.follower_id}",
                daemon=True,
            )
            self._thread.start()
        return self

    def close(self) -> None:
        self._stop.set()
        self._close_socket()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5.0)
            self._thread = None
        super().close()

    def _close_socket(self) -> None:
        with self._socket_lock:
            sock = self._socket
            self._socket = None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    # ------------------------------------------------------------------
    # Read-only surface
    # ------------------------------------------------------------------
    def _refuse_write(self) -> NotLeaderError:
        return NotLeaderError(
            "this node is a read-only follower; send writes to the leader "
            f"at {self.leader_address}",
            leader=self.leader_address,
        )

    def add_facts(self, facts: FactsLike) -> MaintenanceReport:
        raise self._refuse_write()

    def add_facts_published(
        self, facts: FactsLike
    ) -> Tuple[MaintenanceReport, int]:
        raise self._refuse_write()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def connected(self) -> bool:
        return self._connected.is_set()

    @property
    def lag(self) -> int:
        """Generation delta behind the leader (0 when caught up)."""
        return max(0, self._leader_generation - self.generation)

    def wait_connected(self, timeout: float = 10.0) -> bool:
        """Block until the subscription is live (tests and orchestration)."""
        return self._connected.wait(timeout)

    def stats(self) -> Dict[str, object]:
        stats = super().stats()
        stats["replication"] = {
            "role": "follower",
            "leader": self.leader_address,
            "connected": self.connected,
            "generation": self.generation,
            "leader_generation": self._leader_generation,
            "lag": self.lag,
            "bootstraps": self._bootstraps,
            "frames_applied": self._frames_applied,
            "heartbeats": self._heartbeats,
            "connects": self._connects,
            "last_error": self._last_error,
        }
        return stats

    # ------------------------------------------------------------------
    # The replication thread
    # ------------------------------------------------------------------
    def _replicate_forever(self) -> None:
        backoff = self._reconnect_min
        while not self._stop.is_set():
            try:
                self._run_stream_once()
                backoff = self._reconnect_min  # clean EOF: leader restarting
            except ReplicationError as error:
                # Stream-level divergence (bad frame application, count
                # mismatch): local state is suspect — rebuild from scratch.
                self._last_error = f"{type(error).__name__}: {error}"
                self._force_bootstrap = True
            except (OSError, ProtocolError, ValueError) as error:
                self._last_error = f"{type(error).__name__}: {error}"
            finally:
                self._connected.clear()
                self._close_socket()
            if self._stop.is_set():
                return
            self._stop.wait(backoff)
            backoff = min(backoff * 2, self._reconnect_max)

    def _run_stream_once(self) -> None:
        sock = socket.create_connection(
            (self._leader_host, self._leader_port), timeout=self._connect_timeout
        )
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with self._socket_lock:
            if self._stop.is_set():
                sock.close()
                return
            self._socket = sock
        reader = sock.makefile("rb")
        writer = sock.makefile("wb")
        try:
            from_generation = None if self._force_bootstrap else self.generation
            send_json(
                writer,
                encode_request(
                    SubscribeRequest(
                        from_generation=from_generation,
                        fingerprint=self.fingerprint,
                        follower_id=self.follower_id,
                    )
                ),
                self._max_frame_bytes,
            )
            hello = self._recv(reader)
            if hello is None:
                raise ProtocolError("leader closed the connection on subscribe")
            if not isinstance(hello, HelloResponse):
                raise ProtocolError(
                    f"expected a hello reply to subscribe, got "
                    f"{type(hello).__name__}"
                )
            # The hello is authoritative, not a lower bound: a replaced
            # leader may legitimately sit at a lower generation, and lag
            # must track the leader we are talking to now.
            self._leader_generation = hello.generation
            # A silent leader means a dead one: time out well past the
            # promised heartbeat cadence and reconnect.
            sock.settimeout(
                max(self._connect_timeout, hello.heartbeat_seconds * 10)
            )
            self._connects += 1
            self._connected.set()
            if (
                not hello.bootstrap
                and hello.generation == self.generation
                and hello.facts != self._snapshot.fact_count()
            ):
                # Same generation number, different model: the leader was
                # rebuilt with other data.  Catch it at the handshake, not
                # one frame later.
                raise ReplicationError(
                    f"leader holds {hello.facts} facts at generation "
                    f"{hello.generation}, this replica holds "
                    f"{self._snapshot.fact_count()} — diverged, re-bootstrapping"
                )
            if hello.bootstrap:
                self._bootstrap(reader)
            self._force_bootstrap = False
            self._last_error = None
            while not self._stop.is_set():
                response = self._recv(reader)
                if response is None:
                    return  # leader closed cleanly
                if isinstance(response, GenerationFrame):
                    self.apply_replicated(
                        list(response.facts),
                        response.generation,
                        expected_facts=response.fact_count,
                    )
                    self._frames_applied += 1
                    self._leader_generation = max(
                        self._leader_generation, response.generation
                    )
                elif isinstance(response, HeartbeatFrame):
                    self._heartbeats += 1
                    self._leader_generation = max(
                        self._leader_generation, response.generation
                    )
                else:
                    raise ProtocolError(
                        f"unexpected {type(response).__name__} on the "
                        "replication stream"
                    )
        finally:
            for stream in (reader, writer):
                try:
                    stream.close()
                except OSError:
                    pass

    def _recv(self, reader):
        message = recv_json(reader, self._max_frame_bytes)
        if message is None:
            return None
        response = decode_response(message)
        if isinstance(response, ApiError):
            if response.details.get("bootstrap_required"):
                # The leader's window moved past us: wipe and rebuild.
                self._force_bootstrap = True
            response.raise_()
        return response

    def _bootstrap(self, reader) -> None:
        """Assemble streamed snapshot records and swap the session in.

        The old session keeps serving reads for the whole transfer; the
        swap is one pointer flip under the writer lock.  A connection cut
        anywhere in here leaves the old state untouched — the retry loop
        simply re-subscribes and starts a fresh bootstrap.
        """
        assembler = SnapshotAssembler(
            f"leader {self.leader_address}", self.fingerprint
        )
        index = 0
        while not assembler.complete:
            response = self._recv(reader)
            if response is None:
                raise ProtocolError(
                    "leader closed the connection mid-bootstrap"
                )
            if not isinstance(response, SnapshotFrame):
                raise ProtocolError(
                    f"expected a snapshot_frame during bootstrap, got "
                    f"{type(response).__name__}"
                )
            assembler.feed(dict(response.record), where=f"frame {index}")
            index += 1
        header, facts, base_facts = assembler.finish()
        fresh = DatalogSession(
            self.program,
            limits=self._session.limits,
            transducers=self._session._transducers,
            lazy=True,  # restore_state needs a pristine, unmaterialised session
        )
        try:
            fresh.restore_state(facts, base_facts)
        except BaseException:
            fresh.close()
            raise
        generation = header["generation"]
        with self._write_lock:
            old = self._session
            self._session = fresh
            self._generation = generation
            self._snapshot = ModelSnapshot.of(
                generation, fresh._core.interpretation
            )
            with self._cache_lock:
                # Result keys are generation-scoped, but a wiped-and-
                # rebuilt replica may revisit generation numbers (a leader
                # that restarted without durability): drop everything.
                self._results.clear()
            self._announce_publish()
        self._bootstraps += 1
        old.close()

    def __repr__(self) -> str:
        return (
            f"FollowerServer(leader={self.leader_address}, "
            f"generation={self.generation}, lag={self.lag}, "
            f"{'connected' if self.connected else 'disconnected'})"
        )
