"""Tests for the concurrent serving layer (repro.engine.server).

The properties under test:

* snapshot isolation — a pinned snapshot answers identically no matter how
  much maintenance ran after it was pinned (repeatable reads), and every
  answer a concurrent reader sees corresponds to a *published* generation,
  never a half-maintained state;
* serialized maintenance — concurrent ``add_facts`` calls interleave safely
  and each publishes a consistent fixpoint;
* domain isolation — a pinned snapshot's extended domain is a watermark of
  the live one: it keeps its members, size and ``lmax`` while maintenance
  appends sequences behind it, also for a reader in another thread;
* poisoning visibility — after a failed maintenance run, every thread sees
  the session as poisoned;
* the batching machinery — result caching, in-flight coalescing and batch
  deduplication.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro import DatalogServer, SequenceDatalogEngine
from repro.engine.limits import EvaluationLimits
from repro.engine.session import DatalogSession
from repro.errors import (
    FixpointNotReached,
    SessionPoisonedError,
    UnknownPredicateError,
    ValidationError,
)
from repro.sequences import Sequence

CHAIN = """
derived(X) :- base(X).
pair(X, Y) :- derived(X), derived(Y).
"""


COPY = "copy(X) :- base(X)."


def _chain_server(values=("a", "b"), **kwargs):
    return DatalogServer(CHAIN, {"base": list(values)}, **kwargs)


class TestBasics:
    def test_query_matches_session(self):
        with _chain_server() as server:
            session = DatalogSession(CHAIN, {"base": ["a", "b"]})
            assert (
                server.query("pair(X, Y)").texts()
                == session.query("pair(X, Y)").texts()
            )

    def test_generation_advances_on_maintenance(self):
        with _chain_server() as server:
            assert server.generation == 0
            report = server.add_facts({"base": ["c"]})
            assert report.base_facts_added == 1
            assert server.generation == 1
            assert ("c", "c") in [
                tuple(row) for row in server.query("pair(X, Y)").texts()
            ]

    def test_explicit_snapshot_pins_the_past(self):
        with _chain_server() as server:
            old = server.snapshot
            before = server.query("pair(X, Y)").texts()
            server.add_facts({"base": ["c"]})
            assert server.query("pair(X, Y)", snapshot=old).texts() == before
            assert len(server.query("pair(X, Y)").texts()) > len(before)

    def test_strict_unknown_predicate(self):
        with _chain_server() as server:
            with pytest.raises(UnknownPredicateError):
                server.query("tyop(X)", strict=True)
            # Known but empty predicates stay quiet under strict.
            assert server.query("derived(X)", strict=True).values("X") == ["a", "b"]

    def test_result_cache_and_batch_dedup(self):
        with _chain_server() as server:
            server.query("pair(X, Y)")
            server.query("pair(X, Y)")
            server.query("pair( X , Y )")  # canonicalised to the same entry
            stats = server.stats()["server"]
            assert stats["result_cache"]["hits"] == 2
            results = server.query_batch(
                ["derived(X)", "derived(X)", "pair(X, Y)"]
            )
            assert len(results) == 3
            assert results[0].texts() == results[1].texts()
            assert server.stats()["server"]["batch_deduped"] == 1

    def test_cache_invalidated_by_publication(self):
        with _chain_server() as server:
            assert server.query("derived(X)").values("X") == ["a", "b"]
            server.add_facts({"base": ["z"]})
            # New generation -> new cache key -> fresh execution.
            assert server.query("derived(X)").values("X") == ["a", "b", "z"]

    def test_noop_maintenance_keeps_generation_and_cache(self):
        with _chain_server() as server:
            server.query("pair(X, Y)")
            report = server.add_facts({"base": ["a", "b"]})  # all present
            assert report.base_facts_added == 0
            assert server.generation == 0
            server.query("pair(X, Y)")
            # The unchanged model kept its generation, so the warm result
            # cache still serves.
            assert server.stats()["server"]["result_cache"]["hits"] == 1

    def test_engine_api_serve(self):
        engine = SequenceDatalogEngine(CHAIN)
        with engine.serve({"base": ["x"]}) as server:
            assert server.query("derived(X)").values("X") == ["x"]
            assert server.stats()["server"]["generation"] == 0

    def test_wrapping_an_existing_session(self):
        session = DatalogSession(CHAIN, {"base": ["a"]})
        with DatalogServer(session) as server:
            assert server.session is session
            assert server.query("derived(X)").values("X") == ["a"]

    def test_wrapping_a_session_rejects_ignored_arguments(self):
        session = DatalogSession(CHAIN, {"base": ["a"]})
        with pytest.raises(ValidationError, match="limits"):
            DatalogServer(session, limits=EvaluationLimits())
        with pytest.raises(ValidationError, match="database"):
            DatalogServer(session, database={"base": ["b"]})
        session.close()

    def test_malformed_batch_publishes_nothing(self):
        with _chain_server() as server:
            generation = server.generation
            with pytest.raises(ValidationError):
                server.add_facts(["not-a-pair"])
            assert server.generation == generation
            assert server.query("derived(X)").values("X") == ["a", "b"]

    def test_mid_batch_rejection_publishes_the_accepted_prefix(self):
        with _chain_server() as server:
            with pytest.raises(ValidationError):
                # The arity clash rejects the second fact after the first
                # was accepted; the session restores its fixpoint for the
                # prefix and the server must publish it — reads never
                # diverge from the resident model.
                server.add_facts([("base", ("c",)), ("base", ("c", "d"))])
            assert server.generation == 1
            assert server.query("derived(X)").values("X") == ["a", "b", "c"]
            assert (
                server.query("derived(X)").texts()
                == server.session.query("derived(X)").texts()
            )


class TestConcurrency:
    def test_concurrent_queries_vs_add_facts(self):
        """Readers race a writer; every answer set must be a published one."""
        with _chain_server(values=("a",)) as server:
            writer_batches = [[f"w{i}"] for i in range(8)]
            # Every published generation has base = {"a"} + a prefix of the
            # writer batches, so the legal answer sets for derived(X) are
            # exactly these prefixes.
            legal = set()
            prefix = ["a"]
            legal.add(tuple(sorted(prefix)))
            for batch in writer_batches:
                prefix = prefix + batch
                legal.add(tuple(sorted(prefix)))
            errors = []
            seen = set()
            stop = threading.Event()

            def reader():
                try:
                    while not stop.is_set():
                        values = tuple(server.query("derived(X)").values("X"))
                        seen.add(values)
                        if values not in legal:
                            errors.append(f"illegal answer set {values}")
                            return
                except Exception as error:  # pragma: no cover
                    errors.append(repr(error))

            def writer():
                try:
                    for batch in writer_batches:
                        server.add_facts({"base": batch})
                finally:
                    stop.set()

            threads = [threading.Thread(target=reader) for _ in range(4)]
            threads.append(threading.Thread(target=writer))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not errors, errors
            final = tuple(sorted(["a"] + [w for b in writer_batches for w in b]))
            assert server.query("derived(X)").values("X") == list(final)

    def test_snapshot_isolation_under_interleaved_maintenance(self):
        """Repeatable reads: one pinned snapshot answers identically forever,
        while maintenance keeps appending behind it."""
        with _chain_server(values=("a", "b")) as server:
            errors = []
            stop = threading.Event()

            def reader():
                try:
                    while not stop.is_set():
                        pinned = server.snapshot
                        first = server.query("pair(X, Y)", snapshot=pinned).texts()
                        second = server.query("pair(X, Y)", snapshot=pinned).texts()
                        if first != second:
                            errors.append(
                                f"generation {pinned.generation} answered "
                                f"{len(first)} then {len(second)} rows"
                            )
                            return
                        # The pair relation of a consistent fixpoint is a
                        # perfect square of the base count; a torn snapshot
                        # would expose a non-square intermediate state.
                        count = len(first)
                        root = int(count ** 0.5)
                        if root * root != count:
                            errors.append(f"non-square pair count {count}")
                            return
                except Exception as error:  # pragma: no cover
                    errors.append(repr(error))

            def writer():
                try:
                    for i in range(10):
                        server.add_facts({"base": [f"m{i}"]})
                finally:
                    stop.set()

            threads = [threading.Thread(target=reader) for _ in range(4)]
            threads.append(threading.Thread(target=writer))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not errors, errors

    def test_concurrent_writers_serialize(self):
        with _chain_server(values=()) as server:
            def writer(start):
                for i in range(start, start + 5):
                    server.add_facts({"base": [f"v{i}"]})

            threads = [
                threading.Thread(target=writer, args=(base,))
                for base in (0, 5, 10)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert server.generation == 15
            assert server.query("derived(X)").values("X") == sorted(
                f"v{i}" for i in range(15)
            )

    def test_poisoned_session_is_visible_across_threads(self):
        program = 'grow(X ++ X) :- grow(X). seed("a") :- true. out(X) :- base(X).'
        server = DatalogServer(
            program,
            {"base": ["b"]},
            limits=EvaluationLimits(max_sequence_length=64),
        )
        with server:
            assert server.query("out(X)").values("X") == ["b"]
            with pytest.raises(FixpointNotReached):
                # The growth rule explodes past the length limit as soon as
                # a grow fact exists; maintenance fails and poisons.
                server.add_facts({"grow": ["a"]})
            assert server.poisoned
            results = []

            def probe():
                try:
                    server.query("out(X)")
                    results.append("served")
                except SessionPoisonedError:
                    results.append("poisoned")

            threads = [threading.Thread(target=probe) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert results == ["poisoned"] * 6
            with pytest.raises(SessionPoisonedError):
                server.add_facts({"base": ["c"]})

    def test_coalescing_counter_under_concurrent_identical_queries(self):
        with _chain_server(values=("a", "b", "c")) as server:
            barrier = threading.Barrier(8)
            answers = []

            def client():
                barrier.wait()
                answers.append(server.query("pair(X, Y)").texts())

            threads = [threading.Thread(target=client) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert len({tuple(map(tuple, answer)) for answer in answers}) == 1
            stats = server.stats()["server"]
            # All eight asked for the same thing: one execution, the rest
            # either coalesced onto it or hit the cache just after.
            assert (
                stats["result_cache"]["hits"] + stats["coalesced_queries"] == 7
            )


class TestPinnedDomain:
    def test_domain_sensitive_pattern_keeps_its_witnesses(self):
        """``copy(X[1:2])`` ranges ``X`` over the extended domain, so a
        write that grows the domain gives the latest snapshot a second
        witness (``aby``) but must not reach a snapshot pinned before it."""
        with DatalogServer(COPY, {"base": ["ab"]}) as server:
            old = server.snapshot
            size, lmax = len(old.domain), old.domain.max_length
            server.add_facts({"base": ["xaby"]})
            assert server.query("copy(X[1:2])", snapshot=old).values("X") == ["ab"]
            assert server.query("copy(X[1:2])").values("X") == ["ab", "aby"]
            assert Sequence("xaby") not in old.domain
            assert Sequence("xaby") in server.snapshot.domain
            assert (len(old.domain), old.domain.max_length) == (size, lmax)
            assert len(server.snapshot.domain) > size

    def test_reader_thread_sees_exactly_the_pinned_members(self):
        rng = random.Random(18)
        strands = [
            "".join(rng.choice("acgt") for _ in range(16)) for _ in range(40)
        ]
        with DatalogServer(COPY, {"base": strands[:5]}) as server:
            pinned = server.snapshot.domain
            members = set(pinned)
            size, lmax = len(pinned), pinned.max_length
            later = [Sequence(strand) for strand in strands[5:]]
            started, stop = threading.Event(), threading.Event()
            errors, passes = [], []

            def reader():
                try:
                    while True:
                        started.set()
                        seen = list(pinned)
                        if len(seen) != size or set(seen) != members:
                            errors.append(f"pass saw {len(seen)} members")
                        if not all(sequence in pinned for sequence in members):
                            errors.append("a pinned member went missing")
                        if any(sequence in pinned for sequence in later):
                            errors.append("a later write leaked into the pin")
                        if (len(pinned), pinned.max_length) != (size, lmax):
                            errors.append("the pinned size or lmax moved")
                        passes.append(len(seen))
                        if stop.is_set():
                            return
                except Exception as error:  # pragma: no cover
                    errors.append(repr(error))

            thread = threading.Thread(target=reader)
            thread.start()
            try:
                started.wait(timeout=30)
                for strand in strands[5:]:
                    server.add_facts({"base": [strand]})
            finally:
                stop.set()
                thread.join(timeout=60)
            assert not errors, errors[:3]
            assert passes
            assert len(server.snapshot.domain) > 5 * size
