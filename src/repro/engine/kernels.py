"""Batch-vectorized join kernels over interned-id columns.

The per-tuple executor (:class:`repro.engine.planner.PlanExecutor`) walks a
recursive generator pipeline, allocating a :class:`Substitution` per
surviving row — classic interpreter overhead.  For a large class of plans
none of that machinery is needed: when every step is an
``AtomScan``/``CompareFilter`` over *bare* variables and constants, a
clause firing is a pure relational join over interned ids, and the whole
firing can run as a short pipeline of batch operators:

* **full scan** — materialise a row-range of a relation's per-column
  intern-id arrays (:meth:`SequenceRelation.id_columns`) into id rows;
* **probe join** — for each batch row, probe the composite position index
  over the scan's bound columns (:meth:`SequenceRelation.probe_positions`);
  against a mid-store delta window this degrades into a hash join: the
  window is hashed once into a window-local position index
  (:meth:`RelationDelta.probe_positions`) and the batch streams through it;
* **filter** — a bound comparison over id columns (interning makes
  sequence equality id equality);
* **head projection** — project the head's id columns, deduplicate against
  the target relation's membership keys, and decode the survivors back to
  :class:`Sequence` tuples.

Batches are row-major lists of id tuples with a static variable→slot map;
the columnar storage is sliced once per scan (``array`` slicing and ``zip``
run at C speed) and everything downstream is int tuple manipulation.  A
plan's base order and each of its delta-first orders compile into their own
pipeline, since each order lays its slots out differently; a delta firing
runs the pipeline that scans the delta window first.

Correctness rests on two invariants, both enforced elsewhere and
backstopped by the randomized equivalence properties in
``tests/test_properties.py``:

* every value stored in an :class:`Interpretation`'s relations is a member
  of its extended domain (``Interpretation.add`` inserts row values into
  the domain), so the per-row ``value in domain`` check of
  :func:`repro.engine.evaluation.match_term` is a tautology for bare
  variables and the batch path may skip it;
* sequences are interned process-wide, so id equality is sequence
  equality, and pre-deduplicating head rows (against the target relation
  and within the batch) changes neither the merged model nor the
  new-fact counts version gating relies on.

:func:`batch_classification` decides statically whether a plan is
batchable; :class:`PlanExecutor` routes batchable plans here and falls
back to the tuple path otherwise (transducer calls, indexed terms,
enumerations, domain-sensitive plans).  Module-level counters in the
style of :meth:`Sequence.intern_stats` make the split observable through
``stats()`` surfaces.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.database.relation import RelationDelta, SequenceRelation
from repro.engine.interpretation import Interpretation
from repro.engine.plan import AtomScan, BindEquality, ClausePlan, CompareFilter, PlanStep
from repro.language.terms import ConstantTerm, SequenceVariable
from repro.sequences import Sequence

ScanSource = Union[SequenceRelation, RelationDelta]
IdRow = Tuple[int, ...]
Batch = List[IdRow]

#: Fallback reasons reported by :func:`batch_classification`.
REASON_DISABLED = "kernels disabled"
REASON_NO_SCAN = "no body atom to scan"
REASON_HEAD_ENUMERATION = "head enumerates unbound variables"
REASON_HEAD_TERM = "non-bare head argument"
REASON_ATOM_TERM = "non-bare atom argument"
REASON_COMPARE_TERM = "non-bare comparison side"
REASON_BIND_EQUALITY = "binding equality"
REASON_ENUMERATION = "domain-enumerated comparison"
REASON_DOMAIN_SENSITIVE = "domain-sensitive plan"
REASON_SEED_MISMATCH = "seed does not match the plan adornment"

# ----------------------------------------------------------------------
# Toggle
# ----------------------------------------------------------------------
_ENABLED = True


def batch_enabled() -> bool:
    """Whether batchable plans default to the kernel path."""
    return _ENABLED


def set_batch_enabled(enabled: bool) -> bool:
    """Set the process-wide default; return the previous value.

    Executors built afterwards pick the new default up; a per-executor
    ``use_kernels`` argument overrides it either way.
    """
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(enabled)
    return previous


# ----------------------------------------------------------------------
# Execution counters (intern_stats-style, process-wide)
# ----------------------------------------------------------------------
_STATS_LOCK = threading.Lock()


def _zero_counters() -> Dict[str, int]:
    return {
        "batched_firings": 0,
        "tuple_firings": 0,
        "scan_rows": 0,
        "probe_rows": 0,
        "filter_rows": 0,
        "head_rows": 0,
        "facts_emitted": 0,
    }


_COUNTERS = _zero_counters()
_FALLBACKS: Dict[str, int] = {}


def kernel_stats() -> Dict[str, object]:
    """A snapshot of the kernel execution counters.

    ``batched_firings``/``tuple_firings`` count clause firings by path;
    ``fallbacks`` breaks the tuple firings down by classification reason;
    the ``*_rows`` counters are rows produced by the scan/probe kernels
    and rows examined by the filter/head kernels.  Counters are per
    process.
    """
    with _STATS_LOCK:
        stats: Dict[str, object] = dict(_COUNTERS)
        stats["fallbacks"] = dict(_FALLBACKS)
    stats["enabled"] = _ENABLED
    return stats


def reset_kernel_stats() -> None:
    """Zero the counters (tests and benchmarks)."""
    with _STATS_LOCK:
        for key in list(_COUNTERS):
            _COUNTERS[key] = 0
        _FALLBACKS.clear()


def record_tuple_firing(reason: Optional[str]) -> None:
    """Count one firing routed through the per-tuple path."""
    with _STATS_LOCK:
        _COUNTERS["tuple_firings"] += 1
        key = reason or "unclassified"
        _FALLBACKS[key] = _FALLBACKS.get(key, 0) + 1


# ----------------------------------------------------------------------
# Classification
# ----------------------------------------------------------------------
def _is_bare(term) -> bool:
    return isinstance(term, (SequenceVariable, ConstantTerm))


def batch_classification(plan: ClausePlan) -> Tuple[bool, Optional[str]]:
    """Decide statically whether a plan can run on the batch kernels.

    Returns ``(True, None)`` for batchable plans, else ``(False, reason)``.
    A plan is batchable when every step is an ``AtomScan`` whose arguments
    are bare variables or constants, or a ``CompareFilter`` whose sides
    are bare; the head needs no enumeration and has only bare arguments;
    and the plan is not domain-sensitive.  Adornment seeds are fine (the
    seed ids become the initial batch row).
    """
    has_scan = False
    for step in plan.steps:
        if isinstance(step, AtomScan):
            has_scan = True
            if not all(_is_bare(arg) for arg in step.atom.args):
                return False, REASON_ATOM_TERM
        elif isinstance(step, CompareFilter):
            comparison = step.comparison
            if not (_is_bare(comparison.left) and _is_bare(comparison.right)):
                return False, REASON_COMPARE_TERM
        elif isinstance(step, BindEquality):
            return False, REASON_BIND_EQUALITY
        else:
            return False, REASON_ENUMERATION
    if not has_scan:
        return False, REASON_NO_SCAN
    if plan.head_plan.needs_enumeration:
        return False, REASON_HEAD_ENUMERATION
    if not all(_is_bare(arg) for arg in plan.clause.head.args):
        return False, REASON_HEAD_TERM
    if plan.domain_sensitive:
        # Unreachable for bare-only plans today; kept as a guard so a new
        # source of domain sensitivity cannot silently reach the kernels.
        return False, REASON_DOMAIN_SENSITIVE
    return True, None


# ----------------------------------------------------------------------
# Compiled batch operators
# ----------------------------------------------------------------------
class _ScanOp:
    """One ``AtomScan`` compiled against the batch's slot layout.

    ``probe_columns`` are the sorted columns probed through a composite
    index (constants and variables already bound in the batch);
    ``key_parts`` tells how to build the probe key from an input row
    (``(True, slot)`` or ``(False, constant_id)``), parallel to
    ``probe_columns``.  ``same_checks`` are intra-row equality constraints
    from a variable repeated within the atom; ``out_columns`` are the
    columns projected into new slots, in slot order.
    """

    __slots__ = (
        "predicate", "atom_position", "arity", "probe_columns", "key_parts",
        "keyed_by_slot", "single_key_slot", "same_checks", "out_columns",
        "single_out_column",
    )

    def __init__(self, step: AtomScan, slots: Dict[str, int]) -> None:
        atom = step.atom
        self.predicate = atom.predicate
        self.atom_position = step.atom_position
        self.arity = atom.arity
        probing: List[Tuple[int, Tuple[bool, int]]] = []
        same_checks: List[Tuple[int, int]] = []
        out_columns: List[int] = []
        local_first: Dict[str, int] = {}
        for column, arg in enumerate(atom.args):
            if isinstance(arg, ConstantTerm):
                probing.append((column, (False, arg.value.intern_id)))
            elif arg.name in local_first:
                # Repeated within this atom: the first occurrence produces
                # the value, later ones become intra-row equality checks.
                same_checks.append((column, local_first[arg.name]))
            elif arg.name in slots:
                probing.append((column, (True, slots[arg.name])))
            else:
                local_first[arg.name] = column
                slots[arg.name] = len(slots)
                out_columns.append(column)
        probing.sort()
        self.probe_columns = tuple(column for column, _ in probing)
        self.key_parts = tuple(part for _, part in probing)
        self.keyed_by_slot = any(is_slot for is_slot, _ in self.key_parts)
        self.same_checks = tuple(same_checks)
        self.out_columns = tuple(out_columns)
        # Specialisations for the hot single-column cases.
        self.single_key_slot = (
            self.key_parts[0][1]
            if len(self.key_parts) == 1 and self.key_parts[0][0]
            else None
        )
        self.single_out_column = out_columns[0] if len(out_columns) == 1 else None


class _FilterOp:
    """One ``CompareFilter`` compiled to slot/constant id comparisons."""

    __slots__ = ("left_slot", "left_const", "right_slot", "right_const", "keep_equal")

    def __init__(self, step: CompareFilter, slots: Dict[str, int]) -> None:
        comparison = step.comparison
        self.keep_equal = comparison.is_equality()
        self.left_slot, self.left_const = self._side(comparison.left, slots)
        self.right_slot, self.right_const = self._side(comparison.right, slots)

    @staticmethod
    def _side(term, slots: Dict[str, int]) -> Tuple[int, int]:
        if isinstance(term, ConstantTerm):
            return -1, term.value.intern_id
        # The planner only emits a CompareFilter once both sides are bound.
        return slots[term.name], 0


#: One compiled step order: its batch operators and its head-key extractor.
Pipeline = Tuple[Tuple[Union[_ScanOp, _FilterOp], ...], Callable[[IdRow], IdRow]]


class BatchExecutor:
    """Executes a batchable clause plan as a pipeline of batch kernels.

    Each distinct step order of the plan — the base order and its
    delta-first orders (:attr:`ClausePlan.delta_steps`) — compiles into
    its own operator pipeline and head-key extractor, because each order
    lays out its batch slots differently.  ``derive`` runs the base order;
    ``derive_delta`` runs the order for the restricted position.  Both
    mirror :class:`PlanExecutor`'s firing semantics exactly (same orders,
    same delta restriction, same emitted fact set up to duplicates) but
    return materialised fact lists instead of generators — the fixpoint
    engine materialises derivations before merging anyway.
    """

    __slots__ = ("plan", "_seed_row", "_base", "_delta")

    def __init__(self, plan: ClausePlan, seed_row: IdRow = ()) -> None:
        self.plan = plan
        self._seed_row = tuple(seed_row)
        pipelines = {
            steps: self._compile(steps) for steps in {plan.steps, *plan.delta_steps}
        }
        self._base = pipelines[plan.steps]
        self._delta = tuple(
            pipelines[plan.delta_order(position)] for position in range(plan.atom_count)
        )

    def _compile(self, steps: Tuple[PlanStep, ...]) -> Pipeline:
        """Compile one step order into its operators and head-key extractor."""
        plan = self.plan
        slots: Dict[str, int] = {name: i for i, name in enumerate(plan.seed_sequences)}
        ops: List[Union[_ScanOp, _FilterOp]] = []
        for step in steps:
            if isinstance(step, AtomScan):
                ops.append(_ScanOp(step, slots))
            else:
                assert isinstance(step, CompareFilter)
                ops.append(_FilterOp(step, slots))
        head_parts: List[Tuple[bool, int]] = []
        for arg in plan.clause.head.args:
            if isinstance(arg, ConstantTerm):
                head_parts.append((False, arg.value.intern_id))
            else:
                head_parts.append((True, slots[arg.name]))
        return tuple(ops), self._compile_head_key(tuple(head_parts))

    @staticmethod
    def _compile_head_key(
        head_parts: Tuple[Tuple[bool, int], ...]
    ) -> Callable[[IdRow], IdRow]:
        """A batch-row -> head-id-key extractor, specialised where possible.

        All-slot heads (the common case) project through ``itemgetter``,
        which builds the key tuple at C speed; heads mixing constants fall
        back to a generator expression.
        """
        if all(is_slot for is_slot, _ in head_parts):
            slots = tuple(value for _, value in head_parts)
            if len(slots) == 1:
                only = slots[0]
                return lambda row: (row[only],)
            return itemgetter(*slots)
        return lambda row: tuple(
            row[value] if is_slot else value for is_slot, value in head_parts
        )

    # ------------------------------------------------------------------
    # Firing API (mirrors PlanExecutor)
    # ------------------------------------------------------------------
    def derive(self, interpretation: Interpretation) -> list:
        """All ground head facts derivable from the interpretation."""
        return self._execute(interpretation, -1, None)

    def derive_delta(
        self, interpretation: Interpretation, atom_position: int, view: ScanSource
    ) -> list:
        """Fire once with the scan at ``atom_position`` restricted to ``view``."""
        if not 0 <= atom_position < len(self._delta):
            return []
        return self._execute(interpretation, atom_position, view)

    # ------------------------------------------------------------------
    # Pipeline
    # ------------------------------------------------------------------
    def _execute(
        self,
        interpretation: Interpretation,
        delta_position: int,
        view: Optional[ScanSource],
    ) -> list:
        ops, head_key = self._base if delta_position < 0 else self._delta[delta_position]
        counters = {"scan_rows": 0, "probe_rows": 0, "filter_rows": 0}
        batch: Batch = [self._seed_row]
        for op in ops:
            if isinstance(op, _ScanOp):
                batch = self._run_scan(
                    op, batch, interpretation, delta_position, view, counters
                )
            else:
                counters["filter_rows"] += len(batch)
                batch = self._run_filter(op, batch)
            if not batch:
                break
        facts = self._emit(batch, interpretation, head_key) if batch else []
        with _STATS_LOCK:
            _COUNTERS["batched_firings"] += 1
            _COUNTERS["scan_rows"] += counters["scan_rows"]
            _COUNTERS["probe_rows"] += counters["probe_rows"]
            _COUNTERS["filter_rows"] += counters["filter_rows"]
            _COUNTERS["head_rows"] += len(batch)
            _COUNTERS["facts_emitted"] += len(facts)
        return facts

    def _run_scan(
        self,
        op: _ScanOp,
        batch: Batch,
        interpretation: Interpretation,
        delta_position: int,
        view: Optional[ScanSource],
        counters: Dict[str, int],
    ) -> Batch:
        if op.atom_position == delta_position:
            source = view
        else:
            source = interpretation.relation(op.predicate)
        if source is None or source.arity != op.arity:
            return []

        if isinstance(source, RelationDelta):
            relation = source.relation
            start = source.start
            stop = min(source.stop, len(relation))
            delta = source
        else:
            relation = source
            start = 0
            stop = len(relation)
            delta = None
        if stop <= start:
            return []
        columns = relation.id_columns()
        out_columns = op.out_columns
        same_checks = op.same_checks

        if op.keyed_by_slot:
            # Probe join: one composite-index probe per input row.  Against
            # a mid-store window this is a hash join — the window is hashed
            # once into a window-local position index on the first probe.
            if delta is not None and start > 0 and op.probe_columns not in relation._indexes:
                batch = self._probe_window(op, batch, delta, columns)
                counters["probe_rows"] += len(batch)
                return batch
            key_parts = op.key_parts
            single_key = op.single_key_slot
            single_out = op.single_out_column if not same_checks else None
            bucket_get = relation.ensure_index(op.probe_columns).get
            single_out_ids = columns[single_out] if single_out is not None else None
            out: Batch = []
            append = out.append
            for row in batch:
                if single_key is not None:
                    key = (row[single_key],)
                else:
                    key = tuple(
                        row[value] if is_slot else value for is_slot, value in key_parts
                    )
                bucket = bucket_get(key)
                if not bucket:
                    continue
                # Clip the ascending bucket to the captured [start, stop)
                # window; appends racing this probe land past ``high``.
                high = len(bucket)
                if bucket[high - 1] >= stop:
                    high = bisect_left(bucket, stop, 0, high)
                low = bisect_left(bucket, start, 0, high) if start else 0
                if single_out_ids is not None:
                    for index_position in range(low, high):
                        append(row + (single_out_ids[bucket[index_position]],))
                    continue
                for index_position in range(low, high):
                    position = bucket[index_position]
                    if same_checks and any(
                        columns[column][position] != columns[first][position]
                        for column, first in same_checks
                    ):
                        continue
                    if out_columns:
                        append(
                            row
                            + tuple(columns[column][position] for column in out_columns)
                        )
                    else:
                        append(row)
            counters["probe_rows"] += len(out)
            return out

        # Input-independent scan: constants-only probe or a full window
        # scan; the matching rows are materialised once and crossed with
        # the batch (the common case is the pipeline-opening scan, where
        # the batch is a single seed row).
        if op.probe_columns:
            key = tuple(value for _, value in op.key_parts)
            if delta is not None:
                positions: List[int] = list(delta.probe_positions(op.probe_columns, key))
            else:
                positions = relation.probe_positions(op.probe_columns, key, start, stop)
            position_range = positions
        else:
            position_range = range(start, stop)

        if same_checks or (op.probe_columns and out_columns):
            ext: Batch = []
            for position in position_range:
                if same_checks and any(
                    columns[column][position] != columns[first][position]
                    for column, first in same_checks
                ):
                    continue
                ext.append(tuple(columns[column][position] for column in out_columns))
        elif op.probe_columns:
            # Fully-bound constant probe: the match is a membership test.
            ext = [() for _ in position_range]
        else:
            # Unconstrained full scan: slice the id columns at C speed.
            ext = list(
                zip(*(columns[column][start:stop] for column in out_columns))
            )
        counters["scan_rows"] += len(ext)
        if not ext:
            return []
        if len(batch) == 1 and not batch[0]:
            return ext
        return [row + extension for row in batch for extension in ext]

    @staticmethod
    def _probe_window(
        op: _ScanOp, batch: Batch, delta: RelationDelta, columns
    ) -> Batch:
        """Hash join against a mid-store window with no persistent index.

        ``RelationDelta.probe_positions`` hashes the window into a
        window-local position index on the first probe, so the window is
        scanned exactly once however large the batch is.
        """
        probe = delta.probe_positions
        probe_columns = op.probe_columns
        key_parts = op.key_parts
        single_key = op.single_key_slot
        same_checks = op.same_checks
        out_columns = op.out_columns
        out: Batch = []
        append = out.append
        for row in batch:
            if single_key is not None:
                key = (row[single_key],)
            else:
                key = tuple(
                    row[value] if is_slot else value for is_slot, value in key_parts
                )
            for position in probe(probe_columns, key):
                if same_checks and any(
                    columns[column][position] != columns[first][position]
                    for column, first in same_checks
                ):
                    continue
                if out_columns:
                    append(
                        row + tuple(columns[column][position] for column in out_columns)
                    )
                else:
                    append(row)
        return out

    @staticmethod
    def _run_filter(op: _FilterOp, batch: Batch) -> Batch:
        keep_equal = op.keep_equal
        left, right = op.left_slot, op.right_slot
        if left >= 0 and right >= 0:
            return [row for row in batch if (row[left] == row[right]) == keep_equal]
        if left >= 0:
            constant = op.right_const
            return [row for row in batch if (row[left] == constant) == keep_equal]
        if right >= 0:
            constant = op.left_const
            return [row for row in batch if (row[right] == constant) == keep_equal]
        return batch if (op.left_const == op.right_const) == keep_equal else []

    def _emit(
        self,
        batch: Batch,
        interpretation: Interpretation,
        extract: Callable[[IdRow], IdRow],
    ) -> list:
        predicate = self.plan.head_predicate
        target = interpretation.relation(predicate)
        existing: Dict = (
            target.id_keys()
            if target is not None and target.arity == self.plan.clause.head.arity
            else {}
        )
        seen = set()
        add_seen = seen.add
        facts = []
        append = facts.append
        decode = Sequence.from_intern_id
        for row in batch:
            key = extract(row)
            if key in existing or key in seen:
                continue
            add_seen(key)
            append((predicate, tuple(decode(value) for value in key)))
        return facts
