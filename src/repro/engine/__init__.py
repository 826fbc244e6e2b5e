"""Fixpoint evaluation engine for Sequence Datalog (Section 3.2-3.3).

The engine implements:

* :class:`~repro.engine.bindings.Substitution` -- substitutions based on a
  domain, extended to interpreted terms exactly as in Section 3.2;
* :class:`~repro.engine.interpretation.Interpretation` -- sets of ground
  atoms with their extended active domain;
* :class:`~repro.engine.toperator.TOperator` -- the operator ``T_{P,db}`` of
  Definition 4 (monotonic, continuous);
* :mod:`~repro.engine.plan` / :mod:`~repro.engine.planner` -- compiled
  clause plans: static join ordering, per-scan index column selection and
  the plan executor;
* :mod:`~repro.engine.fixpoint` -- naive (the reference) and compiled
  (dependency-scheduled, the default) bottom-up computation of the least
  fixpoint ``T_{P,db} ^ omega`` with resource limits;
* :mod:`~repro.engine.query` -- pattern queries over interpretations,
  compiled once into index-aware plans (:class:`~repro.engine.query.PreparedQuery`);
* :mod:`~repro.engine.demand` -- demand-driven (magic-set-style) query
  evaluation: relevance-restricted subprograms with the pattern's constants
  pushed sideways into clause plans;
* :mod:`~repro.engine.session` -- :class:`~repro.engine.session.DatalogSession`,
  the incremental query-serving layer over a resident fixpoint;
* :mod:`~repro.engine.server` -- :class:`~repro.engine.server.DatalogServer`,
  the thread-safe snapshot-isolated multi-client serving layer.
"""

from repro.engine.bindings import Substitution
from repro.engine.demand import (
    DemandProfile,
    DemandQuery,
    DemandResult,
    adornment_of,
    compile_demand,
    demand_query,
)
from repro.engine.interpretation import Interpretation
from repro.engine.kernels import (
    BatchExecutor,
    batch_classification,
    batch_enabled,
    kernel_stats,
    reset_kernel_stats,
    set_batch_enabled,
)
from repro.engine.limits import EvaluationLimits
from repro.engine.plan import ClausePlan, ProgramPlan
from repro.engine.planner import PlanExecutor, compile_clause, compile_program
from repro.engine.toperator import TOperator
from repro.engine.fixpoint import (
    COMPILED,
    CompiledFixpoint,
    DEFAULT_STRATEGY,
    FixpointResult,
    NAIVE,
    compute_least_fixpoint,
)
from repro.engine.query import PreparedQuery, QueryResult, evaluate_query
from repro.engine.server import DatalogServer, ModelSnapshot
from repro.engine.session import DatalogSession, MaintenanceReport
from repro.errors import StorageError


def __getattr__(name: str):
    # ``open_session`` lives in repro.storage, which imports the session
    # module from this package — a module-level import here would be
    # circular when ``repro.storage`` is imported first, so the re-export
    # resolves lazily.
    if name == "open_session":
        from repro.storage import open_session

        return open_session
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BatchExecutor",
    "COMPILED",
    "ClausePlan",
    "CompiledFixpoint",
    "DEFAULT_STRATEGY",
    "DatalogServer",
    "DatalogSession",
    "DemandProfile",
    "DemandQuery",
    "DemandResult",
    "EvaluationLimits",
    "FixpointResult",
    "Interpretation",
    "MaintenanceReport",
    "ModelSnapshot",
    "NAIVE",
    "PlanExecutor",
    "PreparedQuery",
    "ProgramPlan",
    "QueryResult",
    "StorageError",
    "Substitution",
    "TOperator",
    "adornment_of",
    "open_session",
    "batch_classification",
    "batch_enabled",
    "compile_clause",
    "compile_demand",
    "compile_program",
    "compute_least_fixpoint",
    "demand_query",
    "evaluate_query",
    "kernel_stats",
    "reset_kernel_stats",
    "set_batch_enabled",
]
