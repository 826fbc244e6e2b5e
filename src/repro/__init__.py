"""repro: a reproduction of "Sequences, Datalog, and Transducers".

The library implements Sequence Datalog (a Datalog extension with interpreted
index and constructive terms over sequences), its fixpoint and model-theoretic
semantics based on the extended active domain, generalized sequence
transducers and transducer networks, Transducer Datalog, the translation
between the two languages (Theorem 7), and the strongly safe fragment whose
order-2 programs capture PTIME and order-3 programs capture the elementary
sequence functions.

Quickstart
----------
>>> from repro import SequenceDatalogEngine
>>> engine = SequenceDatalogEngine('suffix(X[N:end]) :- r(X).')
>>> result = engine.evaluate({"r": ["abc"]})
>>> [t[0] for t in engine.query(result, "suffix(X)").texts()]
['', 'abc', 'bc', 'c']
"""

from repro.analysis.diagnostics import Diagnostic, DiagnosticReport, lint_program
from repro.api.client import DatalogClient
from repro.api.service import DatalogService
from repro.api.transport import DatalogTCPServer, serve_tcp
from repro.api.types import (
    SCHEMA_VERSION,
    AddFactsRequest,
    ApiError,
    BatchRequest,
    ExplainRequest,
    LintRequest,
    LintResponse,
    QueryRequest,
    QueryResultPage,
    ServerStats,
    SubscriptionDelta,
    WatchRequest,
)
from repro.core.engine_api import SequenceDatalogEngine
from repro.database.database import SequenceDatabase
from repro.engine.demand import DemandQuery, compile_demand, demand_query
from repro.engine.fixpoint import FixpointResult, compute_least_fixpoint
from repro.engine.limits import EvaluationLimits
from repro.engine.query import PreparedQuery, evaluate_query
from repro.engine.server import DatalogServer, ModelSnapshot
from repro.engine.session import DatalogSession
from repro.errors import (
    CorruptLogError,
    CorruptSnapshotError,
    LagTimeoutError,
    NotLeaderError,
    ReplicationError,
    SlowConsumerError,
    StorageError,
)
from repro.language.parser import parse_atom, parse_clause, parse_program
from repro.live import (
    AsyncDatalogClient,
    AsyncDatalogServer,
    SubscriptionManager,
    serve_tcp_async,
)
from repro.replication import FollowerServer, ReplicationHub, RoutingClient
from repro.sequences.sequence import Sequence
from repro.storage import DurableStore, open_session
from repro.transducer_datalog.program import TransducerDatalogProgram
from repro.transducer_datalog.translation import translate_to_sequence_datalog
from repro.transducers.registry import TransducerCatalog

__version__ = "1.4.0"

__all__ = [
    "AddFactsRequest",
    "ApiError",
    "AsyncDatalogClient",
    "AsyncDatalogServer",
    "BatchRequest",
    "CorruptLogError",
    "CorruptSnapshotError",
    "DatalogClient",
    "DatalogServer",
    "DatalogService",
    "DatalogSession",
    "DatalogTCPServer",
    "Diagnostic",
    "DiagnosticReport",
    "ExplainRequest",
    "FollowerServer",
    "LagTimeoutError",
    "LintRequest",
    "LintResponse",
    "NotLeaderError",
    "QueryRequest",
    "QueryResultPage",
    "SCHEMA_VERSION",
    "ServerStats",
    "DemandQuery",
    "DurableStore",
    "EvaluationLimits",
    "FixpointResult",
    "ModelSnapshot",
    "PreparedQuery",
    "ReplicationError",
    "ReplicationHub",
    "RoutingClient",
    "Sequence",
    "SequenceDatabase",
    "SequenceDatalogEngine",
    "SlowConsumerError",
    "StorageError",
    "SubscriptionDelta",
    "SubscriptionManager",
    "TransducerCatalog",
    "TransducerDatalogProgram",
    "compile_demand",
    "compute_least_fixpoint",
    "demand_query",
    "evaluate_query",
    "lint_program",
    "open_session",
    "parse_atom",
    "parse_clause",
    "parse_program",
    "serve_tcp",
    "serve_tcp_async",
    "translate_to_sequence_datalog",
    "WatchRequest",
    "__version__",
]
