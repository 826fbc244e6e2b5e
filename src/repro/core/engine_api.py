"""The main user-facing facade for Sequence Datalog.

:class:`SequenceDatalogEngine` bundles a program with the evaluation,
analysis and query machinery so typical usage is three lines::

    engine = SequenceDatalogEngine('suffix(X[N:end]) :- r(X).')
    result = engine.evaluate({"r": ["abc"]})
    print(engine.query(result, "suffix(X)").texts())
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Union

from repro.analysis.diagnostics import (
    DiagnosticReport,
    explain_with_diagnostics,
    lint_program,
)
from repro.analysis.finiteness import FinitenessReport, classify_finiteness
from repro.analysis.safety import SafetyReport, analyze_safety
from repro.database.database import SequenceDatabase
from repro.engine.bindings import TransducerRegistry
from repro.engine.demand import DemandQuery
from repro.engine.fixpoint import (
    DEFAULT_STRATEGY,
    FixpointResult,
    compute_least_fixpoint,
)
from repro.engine.interpretation import Interpretation
from repro.engine.limits import DEFAULT_LIMITS, EvaluationLimits
from repro.engine.query import QueryResult, evaluate_query, known_predicates
from repro.engine.server import DatalogServer
from repro.engine.session import DatalogSession
from repro.errors import MultiValuedOutputError, ValidationError
from repro.language.clauses import Program
from repro.language.parser import parse_program

DatabaseLike = Union[SequenceDatabase, Mapping[str, Iterable]]


def _as_database(database: DatabaseLike) -> SequenceDatabase:
    if isinstance(database, SequenceDatabase):
        return database
    return SequenceDatabase.from_dict(dict(database))


class SequenceDatalogEngine:
    """Parse, analyse, evaluate and query a Sequence Datalog program."""

    def __init__(
        self,
        program: Union[str, Program],
        limits: EvaluationLimits = DEFAULT_LIMITS,
        transducers: Optional[TransducerRegistry] = None,
    ):
        self.program = parse_program(program) if isinstance(program, str) else program
        self.program.validate()
        self.limits = limits
        self.transducers = transducers
        self._program_predicates = frozenset(self.program.predicates())

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def safety(self) -> SafetyReport:
        """Strong-safety analysis of the program (Definition 10)."""
        return analyze_safety(self.program)

    def finiteness(self) -> FinitenessReport:
        """Static finiteness classification (Theorems 2, 3, 8, 9)."""
        return classify_finiteness(self.program)

    def explain(self) -> str:
        """The compiled evaluation plan plus a diagnostics section.

        Strata, join orders and index columns from
        :func:`~repro.engine.planner.compile_program`, followed by the
        findings of :meth:`lint` in compact form.
        """
        return explain_with_diagnostics(self.program)

    def lint(
        self,
        database: Optional[DatabaseLike] = None,
        patterns: Iterable[str] = (),
    ) -> DiagnosticReport:
        """Run the program diagnostics engine (:mod:`repro.analysis.rules`).

        Checks semantic errors (undefined predicates, arity conflicts,
        range restriction), the paper's static theory with source spans
        attached (finiteness, strong safety, stratification, guardedness),
        hygiene, and plan-level performance lints.  ``database`` and
        ``patterns`` (query atoms) sharpen the database-dependent rules.
        """
        return lint_program(
            self.program,
            database=None if database is None else _as_database(database),
            patterns=patterns,
        )

    # ------------------------------------------------------------------
    # Evaluation and queries
    # ------------------------------------------------------------------
    def evaluate(
        self,
        database: DatabaseLike,
        strategy: str = DEFAULT_STRATEGY,
        limits: Optional[EvaluationLimits] = None,
    ) -> FixpointResult:
        """Compute the least fixpoint of the program over a database."""
        return compute_least_fixpoint(
            self.program,
            _as_database(database),
            limits=limits or self.limits,
            strategy=strategy,
            transducers=self.transducers,
        )

    def query(
        self,
        result: Union[FixpointResult, Interpretation, DatabaseLike],
        pattern: str,
        strict: bool = False,
        demand: bool = False,
    ) -> QueryResult:
        """Match a pattern atom (e.g. ``"answer(X)"``) against a result.

        With ``strict=True``, a predicate that neither the program defines
        nor the result contains raises
        :class:`~repro.errors.UnknownPredicateError` (a likely typo), while
        a known predicate that legitimately derived nothing returns an
        empty result.

        With ``demand=True``, ``result`` is the *database* (not a computed
        fixpoint) and the pattern is answered demand-driven
        (:mod:`repro.engine.demand`): only the slice of the model the
        pattern transitively depends on is materialised, with the pattern's
        constants pushed into the defining clauses.  Answers are identical
        to evaluating fully and querying.
        """
        if demand:
            if isinstance(result, (FixpointResult, Interpretation)):
                raise ValidationError(
                    "query(demand=True) evaluates on demand and therefore "
                    "needs the database, not an already-computed fixpoint; "
                    "query the fixpoint directly instead"
                )
            # Strict mode defaults to the slice's own known-predicate
            # universe (program predicates + every database relation).
            return self.compile_demand(pattern).run(
                _as_database(result), self.limits, strict=strict
            )
        if not isinstance(result, (FixpointResult, Interpretation)):
            raise ValidationError(
                "query() without demand=True matches against a computed "
                "result; pass the FixpointResult/Interpretation, or set "
                "demand=True to evaluate from the database on demand"
            )
        interpretation = (
            result.interpretation if isinstance(result, FixpointResult) else result
        )
        known = None
        if strict:
            known = known_predicates(self._program_predicates, interpretation)
        return evaluate_query(
            interpretation, pattern, strict=strict, known_predicates=known
        )

    def compile_demand(self, pattern: str) -> DemandQuery:
        """Compile a pattern for demand-driven evaluation over this program.

        The returned :class:`~repro.engine.demand.DemandQuery` exposes the
        compilation profile (relevant predicates, adornment seeds, fallback
        reason) and can be materialised against many databases.
        """
        return DemandQuery(self.program, pattern, self.transducers)

    def run(
        self, database: DatabaseLike, pattern: str, demand: bool = False
    ) -> QueryResult:
        """Evaluate and query in one call (demand-driven when asked)."""
        if demand:
            return self.query(database, pattern, demand=True)
        return self.query(self.evaluate(database), pattern)

    def session(
        self,
        database: Optional[DatabaseLike] = None,
        limits: Optional[EvaluationLimits] = None,
        prepared_cache_size: int = 128,
        demand_cache_size: int = 32,
        lazy: bool = False,
        data_dir: Optional[str] = None,
    ) -> DatalogSession:
        """Open an incremental query-serving session over this program.

        The session keeps its fixpoint resident, maintains it incrementally
        under :meth:`DatalogSession.add_facts` and serves prepared,
        index-backed pattern queries (see :mod:`repro.engine.session`).
        With ``lazy=True`` the full fixpoint is only computed when a
        non-demand query needs it; ``query(..., demand=True)`` serves
        cached per-query slices either way.

        With ``data_dir``, the session is durable: prior state is
        recovered from the directory (snapshot plus WAL-tail replay) and
        every later batch runs the write-ahead commit protocol of
        :mod:`repro.storage`.  ``database`` is then ingested as an
        ordinary durable batch — already-present facts are absorbed.
        """
        if data_dir is not None:
            from repro.storage import open_session

            return open_session(
                self.program,
                data_dir,
                database=None if database is None else _as_database(database),
                limits=limits or self.limits,
                transducers=self.transducers,
                prepared_cache_size=prepared_cache_size,
                demand_cache_size=demand_cache_size,
                lazy=lazy,
            )
        return DatalogSession(
            self.program,
            database=None if database is None else _as_database(database),
            limits=limits or self.limits,
            transducers=self.transducers,
            prepared_cache_size=prepared_cache_size,
            demand_cache_size=demand_cache_size,
            lazy=lazy,
        )

    def serve(
        self,
        database: Optional[DatabaseLike] = None,
        limits: Optional[EvaluationLimits] = None,
        result_cache_size: int = 1024,
        data_dir: Optional[str] = None,
    ) -> DatalogServer:
        """Open a thread-safe, snapshot-isolated server over this program.

        The server wraps an incremental session: concurrent ``query`` calls
        pin immutable model snapshots (and are cached, coalesced and
        batchable), while ``add_facts`` maintenance runs serialized and only
        publishes fully-consistent snapshots (:mod:`repro.engine.server`
        has the full contract).  With ``data_dir`` the backing session is
        durable (see :meth:`session`) and the server's generation counter
        survives restarts.
        """
        return DatalogServer(
            self.program,
            database=None if database is None else _as_database(database),
            limits=limits or self.limits,
            transducers=self.transducers,
            result_cache_size=result_cache_size,
            data_dir=data_dir,
        )

    def serve_tcp(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        database: Optional[DatabaseLike] = None,
        limits: Optional[EvaluationLimits] = None,
        result_cache_size: int = 1024,
        start: bool = True,
        data_dir: Optional[str] = None,
    ):
        """Expose this program over the versioned TCP API (:mod:`repro.api`).

        Builds the thread-safe :class:`DatalogServer` backend and binds a
        :class:`~repro.api.transport.DatalogTCPServer` (port 0 picks a free
        port; read it back from ``.address``).  Remote
        :class:`~repro.api.client.DatalogClient` callers then get typed,
        schema-versioned requests/responses with cursor-paged streaming of
        large results — answers are fact-for-fact identical to
        :meth:`query` in-process.  With ``data_dir`` the backend is
        durable (see :meth:`serve`) and ``close()`` flushes the WAL and
        writes a final snapshot.
        """
        from repro.api.transport import serve_tcp

        return serve_tcp(
            self.program,
            database=None if database is None else _as_database(database),
            host=host,
            port=port,
            start=start,
            limits=limits if limits is not None else self.limits,
            transducers=self.transducers,
            result_cache_size=result_cache_size,
            data_dir=data_dir,
        )

    def compute_function(self, value, output_predicate: str = "output") -> Optional[str]:
        """Treat the program as a sequence function (Definition 5).

        Evaluates over the database ``{input(value)}`` and returns the single
        sequence in the ``output`` relation, or ``None`` if no output is
        derived within the evaluation limits.  Definition 5 defines the
        function only when the output relation is single-valued; if the
        program derives several distinct ``output`` facts the function is
        undefined at the input and
        :class:`~repro.errors.MultiValuedOutputError` is raised.
        """
        result = self.evaluate(SequenceDatabase.single_input(value))
        rows = sorted(result.interpretation.tuples(output_predicate))
        if not rows:
            return None
        if len(rows) > 1:
            preview = ", ".join(repr(row[0].text) for row in rows[:5])
            raise MultiValuedOutputError(
                f"program derived {len(rows)} distinct {output_predicate!r} "
                f"facts at input {str(value)!r} ({preview}{', ...' if len(rows) > 5 else ''}); "
                "a sequence function (Definition 5) must be single-valued"
            )
        return rows[0][0].text

    def __repr__(self) -> str:
        return f"SequenceDatalogEngine({len(self.program)} clauses)"
