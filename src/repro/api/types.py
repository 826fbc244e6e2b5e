"""The versioned public API schema: typed requests, responses, and errors.

Everything that crosses a process boundary — the TCP protocol of
:mod:`repro.api.transport`, the ``--json`` CLI modes, and the in-process
:class:`repro.api.service.DatalogService` dispatch — is one of the frozen
dataclasses below, serialized to JSON through :func:`encode_request` /
:func:`encode_response` and validated field-by-field on the way back in.

Three rules keep the wire contract stable:

* **Schema versioning.**  Every message carries ``"v": 1``
  (:data:`SCHEMA_VERSION`).  A server rejects messages from the future with
  the stable error code :data:`ErrorCode.UNSUPPORTED_VERSION` (naming its
  supported versions), so an old server fails a new client loudly instead
  of misinterpreting it; new servers keep decoding every older version
  they ever supported.
* **Typed errors only.**  No internal exception crosses the wire raw:
  :meth:`ApiError.from_exception` maps the whole :mod:`repro.errors`
  hierarchy (and any stray exception) to a stable error code plus
  field-level details, and :meth:`ApiError.raise_` re-raises the matching
  library exception client-side, so remote and in-process callers catch
  the very same types (``UnknownPredicateError``, ``SessionPoisonedError``,
  ``ParseError`` with line/column, ...).
* **Field-level validation.**  Malformed requests are rejected before any
  engine code runs, with messages naming the offending field —
  ``facts[2].values[0]: expected a string, got int`` — under the
  :data:`ErrorCode.VALIDATION` (shape) or :data:`ErrorCode.BAD_REQUEST`
  (envelope) codes.

The schema is additive-only within a version: servers may add response
fields (clients must ignore unknown keys), but renaming or retyping a
field requires bumping :data:`SCHEMA_VERSION`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    ClassVar,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    Type,
    Union,
)

from repro.analysis.diagnostics import DiagnosticReport
from repro.engine.query import QueryResult, ResultWindow
from repro.errors import (
    AlphabetError,
    CorruptLogError,
    CorruptSnapshotError,
    EvaluationError,
    FixpointNotReached,
    LagTimeoutError,
    MultiValuedOutputError,
    NetworkError,
    NotLeaderError,
    ParseError,
    ProtocolError,
    RemoteApiError,
    ReplicationError,
    ReproError,
    SafetyError,
    SequenceIndexError,
    SessionPoisonedError,
    SlowConsumerError,
    StorageError,
    TransducerError,
    TuringMachineError,
    UnknownPredicateError,
    ValidationError,
)

#: The current wire schema version.  Bump only on a breaking change; the
#: decoder must keep accepting every version it ever shipped.
SCHEMA_VERSION = 1

#: Every schema version this library can decode.
SUPPORTED_VERSIONS: Tuple[int, ...] = (1,)


class ErrorCode:
    """Stable error codes of the versioned API (string constants).

    The codes are part of the wire contract: clients dispatch on them, so
    they never change meaning and are only ever added to.
    """

    PARSE = "parse_error"
    VALIDATION = "validation_error"
    SAFETY = "safety_error"
    ALPHABET = "alphabet_error"
    SEQUENCE_INDEX = "sequence_index_error"
    UNKNOWN_PREDICATE = "unknown_predicate"
    LIMIT_EXCEEDED = "limit_exceeded"
    SESSION_POISONED = "session_poisoned"
    MULTI_VALUED_OUTPUT = "multi_valued_output"
    NETWORK = "transducer_network_error"
    TRANSDUCER = "transducer_error"
    TURING = "turing_machine_error"
    EVALUATION = "evaluation_error"
    STORAGE = "storage_error"
    CORRUPT_LOG = "corrupt_log"
    CORRUPT_SNAPSHOT = "corrupt_snapshot"
    PROTOCOL = "protocol_error"
    BAD_REQUEST = "bad_request"
    UNSUPPORTED_VERSION = "unsupported_version"
    UNKNOWN_CURSOR = "unknown_cursor"
    NOT_LEADER = "not_leader"
    LAG_TIMEOUT = "lag_timeout"
    REPLICATION = "replication_error"
    SLOW_CONSUMER = "slow_consumer"
    INTERNAL = "internal_error"


#: Exception -> code, most specific type first (the first match wins).
_EXCEPTION_CODES: Tuple[Tuple[type, str], ...] = (
    (SessionPoisonedError, ErrorCode.SESSION_POISONED),
    (MultiValuedOutputError, ErrorCode.MULTI_VALUED_OUTPUT),
    (UnknownPredicateError, ErrorCode.UNKNOWN_PREDICATE),
    (FixpointNotReached, ErrorCode.LIMIT_EXCEEDED),
    (ParseError, ErrorCode.PARSE),
    (ValidationError, ErrorCode.VALIDATION),
    (SafetyError, ErrorCode.SAFETY),
    (AlphabetError, ErrorCode.ALPHABET),
    (SequenceIndexError, ErrorCode.SEQUENCE_INDEX),
    (NetworkError, ErrorCode.NETWORK),
    (TransducerError, ErrorCode.TRANSDUCER),
    (TuringMachineError, ErrorCode.TURING),
    (CorruptLogError, ErrorCode.CORRUPT_LOG),
    (CorruptSnapshotError, ErrorCode.CORRUPT_SNAPSHOT),
    (StorageError, ErrorCode.STORAGE),
    (NotLeaderError, ErrorCode.NOT_LEADER),
    (LagTimeoutError, ErrorCode.LAG_TIMEOUT),
    (ReplicationError, ErrorCode.REPLICATION),
    (SlowConsumerError, ErrorCode.SLOW_CONSUMER),
    (ProtocolError, ErrorCode.PROTOCOL),
    (EvaluationError, ErrorCode.EVALUATION),
    (ReproError, ErrorCode.INTERNAL),
)

#: Code -> exception class raised client-side, derived from the forward
#: table so the two can never drift (codes without an entry — the
#: envelope-level ones plus ``internal_error`` — raise
#: :class:`~repro.errors.RemoteApiError` carrying the code).
_CODE_EXCEPTIONS: Dict[str, Type[Exception]] = {
    code: exception_type
    for exception_type, code in reversed(_EXCEPTION_CODES)
    if code != ErrorCode.INTERNAL
}


@dataclass(frozen=True)
class ApiError:
    """A typed API failure with a stable code and field-level details.

    ``details`` carries machine-readable context: ``{"field": ...}`` for
    validation failures, ``{"line": ..., "column": ...}`` for parse errors,
    ``{"supported": [...]}`` for version rejections, ``{"iterations": ...}``
    for resource-limit failures.
    """

    code: str
    message: str
    details: Mapping[str, Any] = field(default_factory=dict)

    @classmethod
    def from_exception(cls, error: BaseException) -> ApiError:
        """Map any exception to its stable wire representation.

        Library exceptions get their dedicated code; anything else (a bug)
        becomes :data:`ErrorCode.INTERNAL` carrying only the exception type
        name — never a traceback.
        """
        if isinstance(error, RemoteApiError):
            return cls(code=error.code, message=str(error), details=error.details)
        details: Dict[str, Any] = {}
        if isinstance(error, ParseError) and error.line:
            details = {"line": error.line, "column": error.column}
        elif isinstance(error, FixpointNotReached):
            details = {"iterations": error.iterations}
        elif isinstance(error, NotLeaderError):
            # The redirect target: clients re-send the write there.
            details = {"leader": error.leader}
        for exception_type, code in _EXCEPTION_CODES:
            if isinstance(error, exception_type):
                return cls(code=code, message=str(error), details=details)
        return cls(
            code=ErrorCode.INTERNAL,
            message=f"internal error ({type(error).__name__}): {error}",
            details={"exception": type(error).__name__},
        )

    def to_payload(self) -> Dict[str, Any]:
        return {
            "code": self.code,
            "message": self.message,
            "details": dict(self.details),
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> ApiError:
        if not isinstance(payload, Mapping):
            raise ProtocolError(f"error payload must be an object, got {payload!r}")
        code = payload.get("code")
        message = payload.get("message")
        if not isinstance(code, str) or not isinstance(message, str):
            raise ProtocolError("error payload needs string 'code' and 'message'")
        details = payload.get("details", {})
        return cls(
            code=code,
            message=message,
            details=dict(details) if isinstance(details, Mapping) else {},
        )

    def raise_(self) -> None:
        """Re-raise this error as the library exception its code names.

        Remote callers therefore catch the exact same exception types as
        in-process callers; codes without a library exception raise
        :class:`~repro.errors.RemoteApiError` with the code attached.
        """
        exception = _CODE_EXCEPTIONS.get(self.code)
        if exception is ParseError:
            # The message already carries the rendered location (line=0
            # stops the constructor from appending it a second time), but
            # the structured attributes must survive the wire too.
            error = ParseError(self.message)
            error.line = int(self.details.get("line", 0) or 0)
            error.column = int(self.details.get("column", 0) or 0)
            raise error
        if exception is FixpointNotReached:
            raise FixpointNotReached(
                self.message,
                iterations=int(self.details.get("iterations", 0) or 0),
            )
        if exception is NotLeaderError:
            raise NotLeaderError(
                self.message, leader=str(self.details.get("leader", "") or "")
            )
        if exception is not None:
            raise exception(self.message)
        raise RemoteApiError(self.message, code=self.code, details=self.details)


# ----------------------------------------------------------------------
# Field validation helpers (shared by every request decoder)
# ----------------------------------------------------------------------
def _bad(field_name: str, message: str) -> RemoteApiError:
    return RemoteApiError(
        f"{field_name}: {message}",
        code=ErrorCode.VALIDATION,
        details={"field": field_name},
    )


def _type_name(value: Any) -> str:
    return type(value).__name__


def _string_field(payload: Mapping[str, Any], name: str) -> str:
    value = payload.get(name)
    if not isinstance(value, str):
        raise _bad(name, f"expected a string, got {_type_name(value)}")
    if not value.strip():
        raise _bad(name, "must not be empty")
    return value


def _bool_field(payload: Mapping[str, Any], name: str, default: bool = False) -> bool:
    value = payload.get(name, default)
    if not isinstance(value, bool):
        raise _bad(name, f"expected a boolean, got {_type_name(value)}")
    return value


def _page_size_field(payload: Mapping[str, Any], name: str = "page_size") -> Optional[int]:
    value = payload.get(name)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise _bad(name, f"expected a positive integer or null, got {_type_name(value)}")
    if value < 1:
        raise _bad(name, f"expected a positive integer, got {value}")
    return value


def _decode_facts(payload: Mapping[str, Any]) -> Tuple[Tuple[str, Tuple[str, ...]], ...]:
    raw = payload.get("facts")
    if not isinstance(raw, (list, tuple)):
        raise _bad("facts", f"expected a list of [predicate, [values...]] pairs, "
                            f"got {_type_name(raw)}")
    facts: List[Tuple[str, Tuple[str, ...]]] = []
    for index, entry in enumerate(raw):
        where = f"facts[{index}]"
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise _bad(where, "expected a [predicate, [values...]] pair")
        predicate, values = entry
        if not isinstance(predicate, str) or not predicate:
            raise _bad(
                f"{where}.predicate",
                f"expected a non-empty string, got {_type_name(predicate)}",
            )
        if not isinstance(values, (list, tuple)) or not values:
            raise _bad(
                f"{where}.values",
                f"expected a non-empty list of strings, got {values!r}",
            )
        for position, value in enumerate(values):
            if not isinstance(value, str):
                raise _bad(
                    f"{where}.values[{position}]",
                    f"expected a string, got {_type_name(value)}",
                )
        facts.append((predicate, tuple(values)))
    return tuple(facts)


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class QueryRequest:
    """Answer one pattern, optionally paged through a server-side cursor.

    ``min_generation`` opts into read-your-writes on a replicated fleet:
    the serving node blocks (up to ``min_generation_timeout`` seconds,
    server default when ``None``) until its published generation reaches
    the bound, answering with :data:`ErrorCode.LAG_TIMEOUT` instead of
    stale data if it cannot catch up in time.
    """

    op: ClassVar[str] = "query"

    pattern: str
    strict: bool = False
    page_size: Optional[int] = None
    include_witnesses: bool = False
    min_generation: Optional[int] = None
    min_generation_timeout: Optional[float] = None

    def validate(self) -> None:
        if not isinstance(self.pattern, str) or not self.pattern.strip():
            raise _bad("pattern", "must be a non-empty string")
        if self.page_size is not None and (
            isinstance(self.page_size, bool)
            or not isinstance(self.page_size, int)
            or self.page_size < 1
        ):
            raise _bad("page_size", "must be a positive integer or None")
        if self.min_generation is not None and (
            isinstance(self.min_generation, bool)
            or not isinstance(self.min_generation, int)
            or self.min_generation < 0
        ):
            raise _bad("min_generation", "must be a non-negative integer or None")
        if self.min_generation_timeout is not None and (
            isinstance(self.min_generation_timeout, bool)
            or not isinstance(self.min_generation_timeout, (int, float))
            or self.min_generation_timeout < 0
        ):
            raise _bad(
                "min_generation_timeout",
                "must be a non-negative number or None",
            )

    def to_payload(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"pattern": self.pattern, "strict": self.strict}
        if self.page_size is not None:
            payload["page_size"] = self.page_size
        if self.include_witnesses:
            payload["include_witnesses"] = True
        if self.min_generation is not None:
            payload["min_generation"] = self.min_generation
        if self.min_generation_timeout is not None:
            payload["min_generation_timeout"] = self.min_generation_timeout
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> QueryRequest:
        min_generation = payload.get("min_generation")
        if min_generation is not None and (
            isinstance(min_generation, bool)
            or not isinstance(min_generation, int)
            or min_generation < 0
        ):
            raise _bad(
                "min_generation",
                f"expected a non-negative integer or null, got {min_generation!r}",
            )
        timeout = payload.get("min_generation_timeout")
        if timeout is not None and (
            isinstance(timeout, bool)
            or not isinstance(timeout, (int, float))
            or timeout < 0
        ):
            raise _bad(
                "min_generation_timeout",
                f"expected a non-negative number or null, got {timeout!r}",
            )
        return cls(
            pattern=_string_field(payload, "pattern"),
            strict=_bool_field(payload, "strict"),
            page_size=_page_size_field(payload),
            include_witnesses=_bool_field(payload, "include_witnesses"),
            min_generation=min_generation,
            min_generation_timeout=timeout,
        )


@dataclass(frozen=True)
class FetchRequest:
    """Pull the next page of an open cursor."""

    op: ClassVar[str] = "fetch"

    cursor: str

    def to_payload(self) -> Dict[str, Any]:
        return {"cursor": self.cursor}

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> FetchRequest:
        return cls(cursor=_string_field(payload, "cursor"))


@dataclass(frozen=True)
class CloseCursorRequest:
    """Release a cursor before it is exhausted (early stream termination)."""

    op: ClassVar[str] = "close_cursor"

    cursor: str

    def to_payload(self) -> Dict[str, Any]:
        return {"cursor": self.cursor}

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> CloseCursorRequest:
        return cls(cursor=_string_field(payload, "cursor"))


@dataclass(frozen=True)
class AddFactsRequest:
    """Insert base facts; the server restores the fixpoint before replying."""

    op: ClassVar[str] = "add_facts"

    facts: Tuple[Tuple[str, Tuple[str, ...]], ...]

    def validate(self) -> None:
        _decode_facts({"facts": [list((p, list(v))) for p, v in self.facts]})

    def to_payload(self) -> Dict[str, Any]:
        return {"facts": [[predicate, list(values)] for predicate, values in self.facts]}

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> AddFactsRequest:
        return cls(facts=_decode_facts(payload))


@dataclass(frozen=True)
class BatchRequest:
    """Answer many patterns against one consistent snapshot."""

    op: ClassVar[str] = "batch"

    patterns: Tuple[str, ...]
    strict: bool = False

    def to_payload(self) -> Dict[str, Any]:
        return {"patterns": list(self.patterns), "strict": self.strict}

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> BatchRequest:
        raw = payload.get("patterns")
        if not isinstance(raw, (list, tuple)):
            raise _bad("patterns", f"expected a list of strings, got {_type_name(raw)}")
        patterns = []
        for index, pattern in enumerate(raw):
            if not isinstance(pattern, str) or not pattern.strip():
                raise _bad(f"patterns[{index}]", "expected a non-empty string")
            patterns.append(pattern)
        return cls(patterns=tuple(patterns), strict=_bool_field(payload, "strict"))


@dataclass(frozen=True)
class ExplainRequest:
    """The server's compiled evaluation plan, as text."""

    op: ClassVar[str] = "explain"

    def to_payload(self) -> Dict[str, Any]:
        return {}

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> ExplainRequest:
        return cls()


@dataclass(frozen=True)
class LintRequest:
    """Run the server's diagnostics engine over its loaded program.

    ``patterns`` are optional query atoms (``"answer(X)"``) that sharpen
    the arity-conflict and dead-clause rules with how the program is
    actually queried.
    """

    op: ClassVar[str] = "lint"

    patterns: Tuple[str, ...] = ()

    def to_payload(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {}
        if self.patterns:
            payload["patterns"] = list(self.patterns)
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> LintRequest:
        raw = payload.get("patterns", [])
        if not isinstance(raw, (list, tuple)):
            raise _bad("patterns", f"expected a list of strings, got {_type_name(raw)}")
        patterns = []
        for index, pattern in enumerate(raw):
            if not isinstance(pattern, str) or not pattern.strip():
                raise _bad(f"patterns[{index}]", "expected a non-empty string")
            patterns.append(pattern)
        return cls(patterns=tuple(patterns))


@dataclass(frozen=True)
class StatsRequest:
    """Schema-stable serving diagnostics."""

    op: ClassVar[str] = "stats"

    def to_payload(self) -> Dict[str, Any]:
        return {}

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> StatsRequest:
        return cls()


@dataclass(frozen=True)
class PingRequest:
    """Version negotiation / liveness probe."""

    op: ClassVar[str] = "ping"

    def to_payload(self) -> Dict[str, Any]:
        return {}

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> PingRequest:
        return cls()


@dataclass(frozen=True)
class SubscribeRequest:
    """Enter the replication stream: the connection switches to server-push.

    A follower opens a dedicated connection and subscribes once; the
    server replies with a :class:`HelloResponse` and then pushes frames
    for as long as the connection lives — :class:`SnapshotFrame` chunks
    for a bootstrap, :class:`GenerationFrame` per published generation,
    :class:`HeartbeatFrame` while idle.  ``from_generation=None`` asks
    for a full snapshot bootstrap; an integer asks for incremental
    catch-up from that generation (the server answers with the stable
    code :data:`ErrorCode.REPLICATION` and ``details.bootstrap_required``
    when its log no longer covers it).  ``fingerprint`` optionally
    pins the program identity (SHA-256 of the canonical program text);
    a mismatch is refused before any state ships.
    """

    op: ClassVar[str] = "subscribe"

    from_generation: Optional[int] = None
    fingerprint: Optional[str] = None
    follower_id: Optional[str] = None

    def to_payload(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {}
        if self.from_generation is not None:
            payload["from_generation"] = self.from_generation
        if self.fingerprint is not None:
            payload["fingerprint"] = self.fingerprint
        if self.follower_id is not None:
            payload["follower_id"] = self.follower_id
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> SubscribeRequest:
        from_generation = payload.get("from_generation")
        if from_generation is not None and (
            isinstance(from_generation, bool)
            or not isinstance(from_generation, int)
            or from_generation < 0
        ):
            raise _bad(
                "from_generation",
                f"expected a non-negative integer or null, got {from_generation!r}",
            )
        fingerprint = payload.get("fingerprint")
        if fingerprint is not None and not isinstance(fingerprint, str):
            raise _bad(
                "fingerprint", f"expected a string or null, got {_type_name(fingerprint)}"
            )
        follower_id = payload.get("follower_id")
        if follower_id is not None and not isinstance(follower_id, str):
            raise _bad(
                "follower_id", f"expected a string or null, got {_type_name(follower_id)}"
            )
        return cls(
            from_generation=from_generation,
            fingerprint=fingerprint,
            follower_id=follower_id,
        )


@dataclass(frozen=True)
class WatchRequest:
    """Register a continuous query: push result deltas, generation by generation.

    The server answers with a :class:`WatchingResponse` naming the
    subscription, then pushes one :class:`SubscriptionDelta` per published
    generation whose changes produced new answers for the pattern (plus
    :class:`HeartbeatFrame` while idle).  ``initial=True`` (the default)
    asks for a first delta carrying every currently-matching row, so the
    union of all received deltas is always the full current result set.
    ``strict`` mirrors the query flag: an unknown predicate is refused at
    watch time instead of matching nothing forever.

    On the threaded TCP transport the connection flips to server-push, the
    same way the replication ``subscribe`` op does; the asyncio transport
    stays duplex, so one connection can hold many watches and interleave
    ordinary requests (see :class:`UnwatchRequest`).
    """

    op: ClassVar[str] = "watch"

    pattern: str
    strict: bool = False
    initial: bool = True

    def to_payload(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"pattern": self.pattern}
        if self.strict:
            payload["strict"] = True
        if not self.initial:
            payload["initial"] = False
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> WatchRequest:
        return cls(
            pattern=_string_field(payload, "pattern"),
            strict=_bool_field(payload, "strict"),
            initial=_bool_field(payload, "initial", default=True),
        )


@dataclass(frozen=True)
class UnwatchRequest:
    """Cancel one subscription opened by :class:`WatchRequest`.

    Only meaningful on a duplex transport (the asyncio front-end); on the
    threaded transport a watching connection is push-only, so the
    subscription ends when the connection closes.
    """

    op: ClassVar[str] = "unwatch"

    subscription: str

    def to_payload(self) -> Dict[str, Any]:
        return {"subscription": self.subscription}

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> UnwatchRequest:
        return cls(subscription=_string_field(payload, "subscription"))


ApiRequest = Union[
    QueryRequest,
    FetchRequest,
    CloseCursorRequest,
    AddFactsRequest,
    BatchRequest,
    ExplainRequest,
    LintRequest,
    StatsRequest,
    PingRequest,
    SubscribeRequest,
    WatchRequest,
    UnwatchRequest,
]

REQUEST_TYPES: Dict[str, Any] = {
    request_type.op: request_type
    for request_type in (
        QueryRequest,
        FetchRequest,
        CloseCursorRequest,
        AddFactsRequest,
        BatchRequest,
        ExplainRequest,
        LintRequest,
        StatsRequest,
        PingRequest,
        SubscribeRequest,
        WatchRequest,
        UnwatchRequest,
    )
}


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------
def _serialize_witness(substitution: Any) -> Dict[str, Any]:
    return {
        "sequences": {
            name: value.text
            for name, value in sorted(substitution.sequence_bindings.items())
        },
        "indexes": dict(sorted(substitution.index_bindings.items())),
    }


@dataclass(frozen=True)
class QueryResultPage:
    """One page of answers (the full result when ``complete`` and offset 0).

    ``rows`` are tuples of plain strings; ``witnesses`` are
    ``{"sequences": {var: text}, "indexes": {var: int}}`` objects (empty
    unless the request asked for them).  ``cursor`` is set while more pages
    remain; fetch them with :class:`FetchRequest`.  ``generation`` names
    the server snapshot the whole (multi-page) result was pinned to.
    """

    kind: ClassVar[str] = "query_result"

    pattern: str
    rows: Tuple[Tuple[str, ...], ...]
    witnesses: Tuple[Mapping[str, Any], ...]
    row_offset: int
    witness_offset: int
    total_rows: int
    total_witnesses: int
    complete: bool
    cursor: Optional[str] = None
    generation: Optional[int] = None

    @classmethod
    def from_result(
        cls,
        result: QueryResult,
        window: ResultWindow,
        cursor: Optional[str] = None,
        generation: Optional[int] = None,
    ) -> QueryResultPage:
        return cls(
            pattern=str(result.pattern),
            rows=tuple(
                tuple(value.text for value in row) for row in window.rows
            ),
            witnesses=tuple(
                _serialize_witness(substitution) for substitution in window.witnesses
            ),
            row_offset=window.row_offset,
            witness_offset=window.witness_offset,
            total_rows=window.total_rows,
            total_witnesses=window.total_witnesses,
            complete=window.complete,
            cursor=cursor,
            generation=generation,
        )

    # Result-reading conveniences mirroring QueryResult, so tests and
    # callers can compare remote and in-process answers directly.
    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Tuple[str, ...]]:
        return iter(self.rows)

    def texts(self) -> List[Tuple[str, ...]]:
        """The page's rows as sorted tuples of strings (QueryResult parity)."""
        return sorted(tuple(row) for row in self.rows)

    def values(self, variable: str) -> List[str]:
        """Distinct witness bindings of one variable, sorted (needs witnesses)."""
        seen = set()
        for witness in self.witnesses:
            sequences = witness.get("sequences", {})
            if variable in sequences:
                seen.add(sequences[variable])
        return sorted(seen)

    def is_empty(self) -> bool:
        return not self.rows

    def to_payload(self) -> Dict[str, Any]:
        return {
            "pattern": self.pattern,
            "rows": [list(row) for row in self.rows],
            "witnesses": [dict(witness) for witness in self.witnesses],
            "row_offset": self.row_offset,
            "witness_offset": self.witness_offset,
            "total_rows": self.total_rows,
            "total_witnesses": self.total_witnesses,
            "complete": self.complete,
            "cursor": self.cursor,
            "generation": self.generation,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> QueryResultPage:
        rows = payload.get("rows")
        if not isinstance(rows, list):
            raise ProtocolError("query_result payload: 'rows' must be a list")
        witnesses = payload.get("witnesses", [])
        cursor = payload.get("cursor")
        generation = payload.get("generation")
        return cls(
            pattern=str(payload.get("pattern", "")),
            rows=tuple(tuple(str(value) for value in row) for row in rows),
            witnesses=tuple(dict(witness) for witness in witnesses),
            row_offset=int(payload.get("row_offset", 0)),
            witness_offset=int(payload.get("witness_offset", 0)),
            total_rows=int(payload.get("total_rows", len(rows))),
            total_witnesses=int(payload.get("total_witnesses", len(witnesses))),
            complete=bool(payload.get("complete", True)),
            cursor=cursor if isinstance(cursor, str) else None,
            generation=generation if isinstance(generation, int) else None,
        )

    @classmethod
    def merge(cls, pages: List["QueryResultPage"]) -> QueryResultPage:
        """Reassemble a paged result into one complete page (client side)."""
        if not pages:
            raise ValidationError("cannot merge zero pages")
        first = pages[0]
        rows: List[Tuple[str, ...]] = []
        witnesses: List[Mapping[str, Any]] = []
        for page in pages:
            rows.extend(page.rows)
            witnesses.extend(page.witnesses)
        return cls(
            pattern=first.pattern,
            rows=tuple(rows),
            witnesses=tuple(witnesses),
            row_offset=0,
            witness_offset=0,
            total_rows=first.total_rows,
            total_witnesses=first.total_witnesses,
            complete=True,
            cursor=None,
            generation=first.generation,
        )


@dataclass(frozen=True)
class AddFactsResponse:
    """What one maintenance run did (a typed MaintenanceReport)."""

    kind: ClassVar[str] = "add_facts"

    base_facts_added: int
    facts_added: int
    sweeps: int
    elapsed_seconds: float
    generation: Optional[int] = None

    def to_payload(self) -> Dict[str, Any]:
        return {
            "base_facts_added": self.base_facts_added,
            "facts_added": self.facts_added,
            "sweeps": self.sweeps,
            "elapsed_seconds": self.elapsed_seconds,
            "generation": self.generation,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> AddFactsResponse:
        generation = payload.get("generation")
        return cls(
            base_facts_added=int(payload.get("base_facts_added", 0)),
            facts_added=int(payload.get("facts_added", 0)),
            sweeps=int(payload.get("sweeps", 0)),
            elapsed_seconds=float(payload.get("elapsed_seconds", 0.0)),
            generation=generation if isinstance(generation, int) else None,
        )


@dataclass(frozen=True)
class BatchResponse:
    """One (monolithic-or-cursored) page per input pattern, in input order."""

    kind: ClassVar[str] = "batch"

    results: Tuple[QueryResultPage, ...]

    def to_payload(self) -> Dict[str, Any]:
        return {"results": [page.to_payload() for page in self.results]}

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> BatchResponse:
        raw = payload.get("results")
        if not isinstance(raw, list):
            raise ProtocolError("batch payload: 'results' must be a list")
        return cls(
            results=tuple(QueryResultPage.from_payload(entry) for entry in raw)
        )


@dataclass(frozen=True)
class ExplainResponse:
    kind: ClassVar[str] = "explain"

    text: str

    def to_payload(self) -> Dict[str, Any]:
        return {"text": self.text}

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> ExplainResponse:
        return cls(text=str(payload.get("text", "")))


@dataclass(frozen=True)
class LintResponse:
    """The server's diagnostic report: stable codes, spans and counts.

    The payload is the report's own wire form (``diagnostics`` +
    ``counts``) flattened into the envelope; spans survive the round trip
    1-based exactly as the parser assigned them.
    """

    kind: ClassVar[str] = "lint"

    report: DiagnosticReport

    def to_payload(self) -> Dict[str, Any]:
        return self.report.to_payload()

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> LintResponse:
        diagnostics = payload.get("diagnostics")
        if not isinstance(diagnostics, list):
            raise ProtocolError("lint payload: 'diagnostics' must be a list")
        return cls(report=DiagnosticReport.from_payload(payload))


@dataclass(frozen=True)
class ClosedResponse:
    kind: ClassVar[str] = "closed"

    cursor: str

    def to_payload(self) -> Dict[str, Any]:
        return {"cursor": self.cursor}

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> ClosedResponse:
        return cls(cursor=str(payload.get("cursor", "")))


@dataclass(frozen=True)
class PongResponse:
    """Version negotiation reply: what the server speaks."""

    kind: ClassVar[str] = "pong"

    versions: Tuple[int, ...]
    server_version: str
    generation: Optional[int] = None

    def to_payload(self) -> Dict[str, Any]:
        return {
            "versions": list(self.versions),
            "server_version": self.server_version,
            "generation": self.generation,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> PongResponse:
        versions = payload.get("versions", [])
        generation = payload.get("generation")
        return cls(
            versions=tuple(int(version) for version in versions),
            server_version=str(payload.get("server_version", "")),
            generation=generation if isinstance(generation, int) else None,
        )


# ----------------------------------------------------------------------
# Replication stream responses (see repro.replication)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class HelloResponse:
    """The leader's greeting to a new subscriber.

    ``generation`` is the leader's published generation at subscribe
    time — the follower is caught up once it has applied through it.
    ``bootstrap`` says whether snapshot frames follow before the first
    generation frame; ``fingerprint`` names the program identity the
    stream replicates.
    """

    kind: ClassVar[str] = "hello"

    generation: int
    facts: int
    bootstrap: bool
    fingerprint: str
    heartbeat_seconds: float

    def to_payload(self) -> Dict[str, Any]:
        return {
            "generation": self.generation,
            "facts": self.facts,
            "bootstrap": self.bootstrap,
            "fingerprint": self.fingerprint,
            "heartbeat_seconds": self.heartbeat_seconds,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> HelloResponse:
        return cls(
            generation=int(payload.get("generation", 0)),
            facts=int(payload.get("facts", 0)),
            bootstrap=bool(payload.get("bootstrap", False)),
            fingerprint=str(payload.get("fingerprint", "")),
            heartbeat_seconds=float(payload.get("heartbeat_seconds", 1.0)),
        )


@dataclass(frozen=True)
class SnapshotFrame:
    """One bootstrap chunk: a :mod:`repro.storage.snapshot` record on the wire.

    ``record`` is exactly one frame of the on-disk snapshot format
    (header / relation chunk / base-fact chunk / end marker), so the
    bootstrap stream and a snapshot file carry the same structure — the
    follower assembles them with the same validation the loader applies.
    """

    kind: ClassVar[str] = "snapshot_frame"

    record: Mapping[str, Any]

    def to_payload(self) -> Dict[str, Any]:
        return {"record": dict(self.record)}

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> SnapshotFrame:
        record = payload.get("record")
        if not isinstance(record, Mapping):
            raise ProtocolError("snapshot_frame payload: 'record' must be an object")
        return cls(record=dict(record))


@dataclass(frozen=True)
class GenerationFrame:
    """One published generation as an incremental replication step.

    ``facts`` is the batch of base-fact text tuples whose insertion
    produced the generation (the same row shape ``add_facts`` carries);
    ``fact_count`` is the leader's total model size at this generation —
    the follower verifies it after applying, so silent divergence cannot
    accumulate.
    """

    kind: ClassVar[str] = "generation_frame"

    generation: int
    facts: Tuple[Tuple[str, Tuple[str, ...]], ...]
    fact_count: int

    def to_payload(self) -> Dict[str, Any]:
        return {
            "generation": self.generation,
            "facts": [[predicate, list(values)] for predicate, values in self.facts],
            "fact_count": self.fact_count,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> GenerationFrame:
        return cls(
            generation=int(payload.get("generation", 0)),
            facts=_decode_facts(payload),
            fact_count=int(payload.get("fact_count", 0)),
        )


@dataclass(frozen=True)
class HeartbeatFrame:
    """A keep-alive on an idle push stream (replication or live queries).

    Carries the server's current generation, so a quiet follower (or
    watcher) still tracks lag and liveness without any data moving.  On a
    live-query stream ``subscription`` names the subscription the beat
    belongs to, so a duplex connection holding several watches can route
    it; replication heartbeats leave it ``None``.
    """

    kind: ClassVar[str] = "heartbeat"

    generation: int
    subscription: Optional[str] = None

    def to_payload(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"generation": self.generation}
        if self.subscription is not None:
            payload["subscription"] = self.subscription
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> HeartbeatFrame:
        subscription = payload.get("subscription")
        return cls(
            generation=int(payload.get("generation", 0)),
            subscription=subscription if isinstance(subscription, str) else None,
        )


@dataclass(frozen=True)
class WatchingResponse:
    """Acknowledgement of a :class:`WatchRequest`.

    ``subscription`` is the server-assigned identifier every subsequent
    :class:`SubscriptionDelta` (and targeted heartbeat) carries;
    ``generation`` is the published generation the subscription started
    at — the initial delta, when requested, snapshots exactly this
    generation, and every later delta has a strictly greater generation.
    """

    kind: ClassVar[str] = "watching"

    subscription: str
    pattern: str
    generation: int
    heartbeat_seconds: float

    def to_payload(self) -> Dict[str, Any]:
        return {
            "subscription": self.subscription,
            "pattern": self.pattern,
            "generation": self.generation,
            "heartbeat_seconds": self.heartbeat_seconds,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> WatchingResponse:
        return cls(
            subscription=str(payload.get("subscription", "")),
            pattern=str(payload.get("pattern", "")),
            generation=int(payload.get("generation", 0)),
            heartbeat_seconds=float(payload.get("heartbeat_seconds", 0.0)),
        )


@dataclass(frozen=True)
class SubscriptionDelta:
    """Newly-added answers for one subscription at one published generation.

    ``rows`` carries only rows not previously delivered on this
    subscription (the model is append-only, so there are no retractions);
    the union of all deltas received so far — including the ``initial``
    frame when requested — equals a from-scratch query of the model at
    ``generation``, fact for fact.  ``coalesced`` counts *extra*
    generations merged into this frame under backpressure: ``0`` means
    the frame maps one-to-one onto a published generation.
    """

    kind: ClassVar[str] = "subscription_delta"

    subscription: str
    generation: int
    rows: Tuple[Tuple[str, ...], ...]
    initial: bool = False
    coalesced: int = 0

    def to_payload(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "subscription": self.subscription,
            "generation": self.generation,
            "rows": [list(row) for row in self.rows],
        }
        if self.initial:
            payload["initial"] = True
        if self.coalesced:
            payload["coalesced"] = self.coalesced
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> SubscriptionDelta:
        raw_rows = payload.get("rows")
        if not isinstance(raw_rows, (list, tuple)):
            raise ProtocolError("subscription_delta payload: 'rows' must be a list")
        rows: List[Tuple[str, ...]] = []
        for row in raw_rows:
            if not isinstance(row, (list, tuple)):
                raise ProtocolError(
                    "subscription_delta payload: every row must be a list"
                )
            rows.append(tuple(str(value) for value in row))
        return cls(
            subscription=str(payload.get("subscription", "")),
            generation=int(payload.get("generation", 0)),
            rows=tuple(rows),
            initial=bool(payload.get("initial", False)),
            coalesced=int(payload.get("coalesced", 0)),
        )


@dataclass(frozen=True)
class UnwatchedResponse:
    """Acknowledgement of an :class:`UnwatchRequest`: the subscription ended."""

    kind: ClassVar[str] = "unwatched"

    subscription: str

    def to_payload(self) -> Dict[str, Any]:
        return {"subscription": self.subscription}

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> UnwatchedResponse:
        return cls(subscription=str(payload.get("subscription", "")))


#: The schema-stable subset of the stats payload.  These keys are part of
#: the wire contract; everything else travels in ``extra`` (flattened into
#: the JSON object) and may evolve freely.
_STATS_FIELDS = (
    "facts",
    "base_facts",
    "predicates",
    "queries_served",
    "maintenance_runs",
    "poisoned",
    "generation",
    "workers",
    "durability",
    "replication",
    "live",
)


@dataclass(frozen=True)
class ServerStats:
    """Serving diagnostics with a frozen core schema.

    The typed fields are stable across versions; ``extra`` carries the
    engine's evolving diagnostics (cache counters, intern-table growth,
    the server sub-report) verbatim.
    """

    kind: ClassVar[str] = "stats"

    facts: int
    base_facts: int
    predicates: int
    queries_served: int
    maintenance_runs: int
    poisoned: bool
    generation: Optional[int] = None
    #: Reserved: frozen in the v1 schema, always ``null`` from this server.
    workers: Optional[int] = None
    #: Durable-storage counters (``DurableStore.stats()``) when the backend
    #: runs on a data directory; ``None`` for in-memory servers.
    durability: Optional[Mapping[str, Any]] = None
    #: Replication role and lag: ``{"role": "leader", "subscribers": ...}``
    #: or ``{"role": "follower", "leader": "host:port", "lag": ...}``;
    #: ``None`` for an unreplicated server.
    replication: Optional[Mapping[str, Any]] = None
    #: Live-query counters (``SubscriptionManager.stats()``): open
    #: connections, active subscriptions, deltas pushed, coalesced
    #: generations, slow-consumer disconnects, open cursors; ``None``
    #: when the serving path has no subscription manager attached.
    live: Optional[Mapping[str, Any]] = None
    extra: Mapping[str, Any] = field(default_factory=dict)

    @classmethod
    def from_raw(
        cls,
        stats: Mapping[str, Any],
        generation: Optional[int] = None,
    ) -> ServerStats:
        """Wrap a raw ``DatalogSession.stats()``/``DatalogServer.stats()`` dict."""
        extra = {
            key: value for key, value in stats.items() if key not in _STATS_FIELDS
        }
        durability = stats.get("durability")
        replication = stats.get("replication")
        live = stats.get("live")
        return cls(
            facts=int(stats.get("facts", 0)),
            base_facts=int(stats.get("base_facts", 0)),
            predicates=int(stats.get("predicates", 0)),
            queries_served=int(stats.get("queries_served", 0)),
            maintenance_runs=int(stats.get("maintenance_runs", 0)),
            poisoned=bool(stats.get("poisoned", False)),
            generation=generation,
            durability=durability if isinstance(durability, Mapping) else None,
            replication=replication if isinstance(replication, Mapping) else None,
            live=live if isinstance(live, Mapping) else None,
            extra=extra,
        )

    def to_payload(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = dict(self.extra)
        payload.update(
            facts=self.facts,
            base_facts=self.base_facts,
            predicates=self.predicates,
            queries_served=self.queries_served,
            maintenance_runs=self.maintenance_runs,
            poisoned=self.poisoned,
            generation=self.generation,
            workers=self.workers,
        )
        if self.durability is not None:
            payload["durability"] = dict(self.durability)
        if self.replication is not None:
            payload["replication"] = dict(self.replication)
        if self.live is not None:
            payload["live"] = dict(self.live)
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> ServerStats:
        generation = payload.get("generation")
        workers = payload.get("workers")
        durability = payload.get("durability")
        replication = payload.get("replication")
        live = payload.get("live")
        extra = {
            key: value for key, value in payload.items()
            if key not in _STATS_FIELDS and key not in ("v", "ok", "kind")
        }
        return cls(
            facts=int(payload.get("facts", 0)),
            base_facts=int(payload.get("base_facts", 0)),
            predicates=int(payload.get("predicates", 0)),
            queries_served=int(payload.get("queries_served", 0)),
            maintenance_runs=int(payload.get("maintenance_runs", 0)),
            poisoned=bool(payload.get("poisoned", False)),
            generation=generation if isinstance(generation, int) else None,
            workers=workers if isinstance(workers, int) else None,
            durability=durability if isinstance(durability, Mapping) else None,
            replication=replication if isinstance(replication, Mapping) else None,
            live=live if isinstance(live, Mapping) else None,
            extra=extra,
        )


ApiResponse = Union[
    QueryResultPage,
    AddFactsResponse,
    BatchResponse,
    ExplainResponse,
    LintResponse,
    ClosedResponse,
    PongResponse,
    ServerStats,
    HelloResponse,
    SnapshotFrame,
    GenerationFrame,
    HeartbeatFrame,
    WatchingResponse,
    SubscriptionDelta,
    UnwatchedResponse,
]

RESPONSE_TYPES: Dict[str, Any] = {
    response_type.kind: response_type
    for response_type in (
        QueryResultPage,
        AddFactsResponse,
        BatchResponse,
        ExplainResponse,
        LintResponse,
        ClosedResponse,
        PongResponse,
        ServerStats,
        HelloResponse,
        SnapshotFrame,
        GenerationFrame,
        HeartbeatFrame,
        WatchingResponse,
        SubscriptionDelta,
        UnwatchedResponse,
    )
}


# ----------------------------------------------------------------------
# Envelope codecs and version negotiation
# ----------------------------------------------------------------------
def check_version(message: Mapping[str, Any]) -> int:
    """Validate a message's ``"v"`` field against the supported versions."""
    version = message.get("v")
    if isinstance(version, bool) or not isinstance(version, int) or version < 1:
        raise RemoteApiError(
            f"message needs an integer schema version 'v' >= 1, got {version!r}",
            code=ErrorCode.BAD_REQUEST,
            details={"field": "v"},
        )
    if version not in SUPPORTED_VERSIONS:
        raise RemoteApiError(
            f"schema version {version} is not supported "
            f"(supported: {', '.join(map(str, SUPPORTED_VERSIONS))})",
            code=ErrorCode.UNSUPPORTED_VERSION,
            details={"supported": list(SUPPORTED_VERSIONS)},
        )
    return version


def encode_request(request: ApiRequest) -> Dict[str, Any]:
    """A typed request as its versioned wire object."""
    payload = request.to_payload()
    payload["v"] = SCHEMA_VERSION
    payload["op"] = request.op
    return payload


def decode_request(message: Mapping[str, Any]) -> ApiRequest:
    """Decode and validate a wire object into a typed request.

    Raises :class:`~repro.errors.RemoteApiError` with a stable code
    (``bad_request`` / ``unsupported_version`` / ``validation_error``) on
    anything malformed; the caller maps it through
    :meth:`ApiError.from_exception`.
    """
    if not isinstance(message, Mapping):
        raise RemoteApiError(
            f"request must be a JSON object, got {_type_name(message)}",
            code=ErrorCode.BAD_REQUEST,
        )
    check_version(message)
    op = message.get("op")
    if op not in REQUEST_TYPES:
        raise RemoteApiError(
            f"unknown op {op!r}",
            code=ErrorCode.BAD_REQUEST,
            details={"known_ops": sorted(REQUEST_TYPES)},
        )
    return REQUEST_TYPES[op].from_payload(message)


def encode_response(response: Union[ApiResponse, ApiError]) -> Dict[str, Any]:
    """A typed response (or error) as its versioned wire object."""
    if isinstance(response, ApiError):
        return {
            "v": SCHEMA_VERSION,
            "ok": False,
            "kind": "error",
            "error": response.to_payload(),
        }
    payload = response.to_payload()
    payload["v"] = SCHEMA_VERSION
    payload["ok"] = True
    payload["kind"] = response.kind
    return payload


def decode_response(message: Mapping[str, Any]) -> Union[ApiResponse, ApiError]:
    """Decode a wire object into a typed response or an :class:`ApiError`.

    Malformed envelopes raise :class:`~repro.errors.ProtocolError` — they
    mean the peer does not speak the protocol at all, as opposed to a
    well-formed error reply, which is *returned* for the caller to raise.
    """
    if not isinstance(message, Mapping):
        raise ProtocolError(f"response must be a JSON object, got {_type_name(message)}")
    if message.get("ok") is False or message.get("kind") == "error":
        return ApiError.from_payload(message.get("error", {}))
    kind = message.get("kind")
    if kind not in RESPONSE_TYPES:
        raise ProtocolError(f"unknown response kind {kind!r}")
    try:
        return RESPONSE_TYPES[kind].from_payload(message)
    except ProtocolError:
        raise
    except Exception as error:
        # A peer that sends a known kind with garbage inside must surface
        # as a typed protocol failure, never a raw TypeError/ValueError.
        raise ProtocolError(f"malformed {kind} payload: {error}") from None
