"""The phases of one benchmark run (see ``run.py``)."""

from __future__ import annotations

import contextlib
import json
import shutil
import signal
import time
from pathlib import Path
from typing import Dict, List, Set

import repro
from perfbench import inputs, oracles
from perfbench.launcher import LIMITS, transducers
from perfbench.procs import Fleet, cpu_seconds, directory_bytes, peak_rss_mb, process_age
from perfbench.summary import describe

#: Share of ``--seconds`` spent on warm in-process evaluations.
FIXPOINT_SHARE = 0.3
#: Restarts from the crash image per ``--seconds``, and the floor.
RECOVERIES_PER_SECOND, MIN_RECOVERIES = 0.2, 3

_UNTRACED = contextlib.nullcontext()


class Run:
    """One workload, one seed, one run length."""

    def __init__(
        self, workload: str, seed: int, seconds: int, traced: bool,
        workdir: Path, fleet: Fleet,
    ):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.fleet = fleet
        self.samples: Dict[str, List[float]] = {
            name: [] for name in (
                "fixpoint_s", "query_s", "cached_query_s", "write_s",
                "propagate_s", "recover_s",
            )
        }
        #: Operations started; a run stops at its first failed one.
        self.attempted = 0
        self.recoveries: List[dict] = []
        self.tracer = None
        if traced:
            from perfbench import trace

            self.tracer = trace.install_client()

    def _op(self, kind: str):
        return self.tracer.op(kind) if self.tracer is not None else _UNTRACED

    # ------------------------------------------------------------------
    def execute(self) -> dict:
        self._setup()
        setup_s = process_age()
        self._measure()
        self._finish()
        return self._outcome(setup_s)

    # ------------------------------------------------------------------
    # Set-up
    # ------------------------------------------------------------------
    def _setup(self) -> None:
        if self.workload == "closure":
            text = inputs.OVERLAP_CLOSURE
            edges = inputs.overlap_edges(self.seed)
            facts = {"overlap": edges}
            self.expected = {"reach": oracles.closure(edges)}
            self.machines = None
        else:
            text = inputs.GENOME_ANALYSIS
            strands = inputs.genome_strands(self.seed)
            facts = {"dnaseq": [(strand,) for strand in strands]}
            self.expected = oracles.genome_relations(strands)
            self.machines = transducers({"transducers": True})
        with self._op("setup"):
            self.program = repro.parse_program(text)
            self.database = repro.SequenceDatabase.from_dict(facts)
            result = self._evaluate()
        self._check_fixpoint(result)

        writes = inputs.WRITE_RATE[self.workload] * self.seconds
        self.served = inputs.served_inputs(self.workload, self.seed, writes)
        self.model = oracles.ServedModel(self.workload, self.served.preload)
        self.spec = self.workdir / "spec.json"
        self.spec.write_text(json.dumps({
            "program": self.served.program,
            "transducers": self.served.transducers,
            "preload": self.served.preload,
        }))
        self.data_dir = self.workdir / "leader"
        trace_args = self._trace_args("leader")
        self.leader = self.fleet.launch(
            "leader", "--spec", str(self.spec), "--data-dir", str(self.data_dir),
            "--preload", *trace_args,
        )
        found = self.fleet.read_line(self.leader, 150)
        address = f"{found['host']}:{found['port']}"
        self.follower = self.fleet.launch(
            "follower", "--spec", str(self.spec), "--leader", address,
            *self._trace_args("follower"),
        )
        replica = self.fleet.read_line(self.follower, 150)
        self.client = repro.DatalogClient(found["host"], found["port"]).connect()
        self.replica = repro.DatalogClient(replica["host"], replica["port"]).connect()
        self.watch = self.replica.watch(self.served.watch, initial=True)
        initial = next(self.watch)
        self.delivered: Set[tuple] = {tuple(row) for row in initial.rows}
        oracles.expect_equal("initial watch frame", self.delivered, self.model.watched())
        expected = self.model.fact_count()
        for name, count in (("leader", found["facts"]), ("follower", replica["facts"])):
            if count != expected:
                raise oracles.OracleMismatch(
                    f"{name} holds {count} facts after the preload, expected {expected}"
                )

    def _trace_args(self, role: str) -> List[str]:
        if self.tracer is None:
            return []
        return ["--trace", str(self.workdir / f"trace-{role}.json")]

    def _evaluate(self):
        return repro.compute_least_fixpoint(
            self.program, self.database, limits=LIMITS, transducers=self.machines,
        )

    def _check_fixpoint(self, result) -> None:
        got = {
            name: set(repro.evaluate_query(
                result.interpretation, f"{name}(X, Y)"
            ).texts())
            for name in self.expected
        }
        oracles.check_relations(got, self.expected)

    # ------------------------------------------------------------------
    # Phase 2: the closed serving loop.  Warm from-scratch fixpoints of the
    # in-process program and restarts from a crash image are spread between
    # its rounds, so every metric's samples span the whole phase and ride
    # out the same host noise.
    # ------------------------------------------------------------------
    def _measure(self) -> None:
        clock = time.perf_counter
        rounds = self.served.rounds
        budget = FIXPOINT_SHARE * self.seconds
        image_at = len(rounds) // 4
        restarts = max(MIN_RECOVERIES, round(RECOVERIES_PER_SECOND * self.seconds))
        restart_at = [
            image_at + int((index + 0.5) * (len(rounds) - image_at) / restarts)
            for index in range(restarts)
        ]
        if self.tracer is not None:
            from repro.engine import kernel_stats

            kernels_before = kernel_stats()
            inserted_before = self.tracer.counts.get("interpretation.insert.true", 0)
            wal_before = self.client.stats().durability["wal"]["bytes"]
        self.cpu_before = self._server_cpu()
        self.serve_started = clock()
        spent = 0.0
        for index, round_ in enumerate(rounds):
            while spent < budget * index / len(rounds):
                spent += self._fixpoint()
            if index == image_at:
                self._take_image(rounds[index - 1].keys[0])
            for _ in range(restart_at.count(index)):
                self._recover(self.image, sample=True)
            self._round(round_)
        while len(self.samples["fixpoint_s"]) < 3:
            self._fixpoint()
        self.serve_seconds = clock() - self.serve_started
        self.cpu_after = self._server_cpu()
        if self.tracer is not None:
            kernels_after = kernel_stats()
            self.kernel_counts = {
                name: kernels_after[name] - kernels_before[name]
                for name in ("batched_firings", "tuple_firings", "facts_emitted")
            }
            self.insert_yield = (
                self.tracer.counts.get("interpretation.insert.true", 0) - inserted_before
            )
            self.intern = repro.Sequence.intern_stats()
            self.wal_bytes = self.client.stats().durability["wal"]["bytes"] - wal_before

    def _fixpoint(self) -> float:
        """One warm from-scratch evaluation, checked; returns its duration."""
        clock = time.perf_counter
        self.attempted += 1
        with self._op("fixpoint"):
            started = clock()
            result = self._evaluate()
            elapsed = clock() - started
        self.samples["fixpoint_s"].append(elapsed)
        self._check_fixpoint(result)
        self.domain_size = len(result.interpretation.domain)
        return elapsed

    def _round(self, round_) -> None:
        """One write, its delta from the follower, nine queries asked twice."""
        clock = time.perf_counter
        client, query = self.client, self.served.query
        self.attempted += 1
        with self._op("write"):
            started = clock()
            reply = client.add_facts(round_.facts)
            self.samples["write_s"].append(clock() - started)
        with self._op("propagate"):
            delta = next(self.watch)
            self.samples["propagate_s"].append(clock() - started)
        expected = self.model.write(row for _name, row in round_.facts)
        oracles.check_delta(
            delta.rows, delta.generation, delta.coalesced, reply.generation,
            expected, self.delivered,
        )
        for kind in ("query", "cached_query"):
            samples = self.samples[f"{kind}_s"]
            for key in round_.keys:
                pattern = query.format(key)
                self.attempted += 1
                with self._op(kind):
                    started = clock()
                    page = client.query(pattern)
                    samples.append(clock() - started)
                oracles.expect_equal(
                    pattern, {tuple(row) for row in page.rows}, self.model.answer(key)
                )

    def _server_cpu(self) -> Dict[str, float]:
        return {
            "leader": cpu_seconds(self.leader.pid),
            "follower": cpu_seconds(self.follower.pid),
        }

    # ------------------------------------------------------------------
    # Crash images and restarts
    # ------------------------------------------------------------------
    def _take_image(self, key: str) -> None:
        """Copy the idle leader's data directory: the bytes a SIGKILL leaves.

        Between rounds no write is in flight and every acknowledged batch
        is fsynced, so the copy equals a crash image taken at this point.
        """
        path = self.workdir / "image"
        shutil.copytree(self.data_dir, path)
        self.image = {
            "path": path,
            "base": set(self.model.base),
            "facts": self.model.fact_count(),
            "probe": self.served.query.format(key),
            "answer": self.model.answer(key),
        }

    def _recover(self, image: dict, sample: bool) -> float:
        """Start a fresh leader on a copy of ``image``; time its first answer."""
        self.attempted += 1
        index = len(self.recoveries)
        copy = self.workdir / f"recovered-{index}"
        shutil.copytree(image["path"], copy)
        clock = time.perf_counter
        started = clock()
        child = self.fleet.launch(
            "leader", "--spec", str(self.spec), "--data-dir", str(copy),
            *self._trace_args(f"recovered-{index}"),
        )
        try:
            found = self.fleet.read_line(child, 150)
            client = repro.DatalogClient(found["host"], found["port"])
            try:
                page = client.query(image["probe"])
                elapsed = clock() - started
                oracles.expect_equal(
                    f"{image['probe']} after recovery",
                    {tuple(row) for row in page.rows}, image["answer"],
                )
                base = client.query(self.served.base)
                oracles.expect_equal(
                    "acknowledged writes after recovery",
                    {tuple(row) for row in base.rows}, image["base"],
                )
                facts = client.stats().facts
                if facts != image["facts"]:
                    raise oracles.OracleMismatch(
                        f"recovered server holds {facts} facts, expected {image['facts']}"
                    )
            finally:
                client.close()
        finally:
            self.fleet.stop(child, signal.SIGKILL)
            shutil.rmtree(copy, ignore_errors=True)
        self.recoveries.append(found.get("recovery", {}))
        if sample:
            self.samples["recover_s"].append(elapsed)
        return elapsed

    # ------------------------------------------------------------------
    # Phase 3: after the loop — final checks, then the real crash
    # ------------------------------------------------------------------
    def _settle_store(self) -> int:
        """Data-directory size once background checkpoints are idle."""
        previous, stable = -1, 0
        deadline = time.monotonic() + 30
        while stable < 2 and time.monotonic() < deadline:
            size = directory_bytes(self.data_dir)
            stable = stable + 1 if size == previous else 0
            previous = size
            time.sleep(0.1)
        return previous

    def _reference_fact_count(self) -> int:
        """A from-scratch evaluation of exactly the acknowledged facts."""
        facts_file = self.workdir / "acknowledged.json"
        relation = "link" if self.workload == "closure" else "dnaseq"
        facts_file.write_text(json.dumps({relation: sorted(self.model.base)}))
        child = self.fleet.launch(
            "evaluate", "--spec", str(self.spec), "--facts", str(facts_file)
        )
        count = self.fleet.read_line(child, 120)["facts"]
        self.fleet.stop(child)
        return count

    def _finish(self) -> None:
        every = self.model.watched()
        oracles.expect_equal("union of the watch deltas", self.delivered, every)
        page = self.replica.query(self.served.watch)
        oracles.expect_equal(
            "from-scratch query on the follower", {tuple(r) for r in page.rows}, every
        )
        leader, follower = self.client.stats().facts, self.replica.stats().facts
        if not (leader == follower == self.model.fact_count()):
            raise oracles.OracleMismatch(
                f"leader holds {leader} facts, follower {follower}, "
                f"model {self.model.fact_count()}"
            )
        self.store_bytes = self._settle_store()
        self.rss = {
            "bench": peak_rss_mb(),
            "leader": peak_rss_mb(self.leader.pid),
            "follower": peak_rss_mb(self.follower.pid),
        }
        if self.tracer is not None:
            self.server_traces = self._collect_server_traces()
        self.watch.close()
        self.replica.close()
        self.client.close()
        self.fleet.stop(self.follower, signal.SIGTERM)
        self.fleet.stop(self.leader, signal.SIGKILL)
        reference = self._reference_fact_count()
        if reference != self.model.fact_count():
            raise oracles.OracleMismatch(
                f"from-scratch evaluation holds {reference} facts, "
                f"the model {self.model.fact_count()}"
            )
        key = self.served.rounds[-1].keys[0]
        self.after_loop_recover_s = self._recover({
            "path": self.data_dir,
            "base": set(self.model.base),
            "facts": reference,
            "probe": self.served.query.format(key),
            "answer": self.model.answer(key),
        }, sample=False)

    def _collect_server_traces(self) -> dict:
        """Ask both servers to write their spans; read the files back."""
        found = {}
        for role, child in (("leader", self.leader), ("follower", self.follower)):
            path = self.workdir / f"trace-{role}.json"
            child.send_signal(signal.SIGUSR1)
            deadline = time.monotonic() + 30
            while not path.exists():
                if time.monotonic() > deadline:
                    raise TimeoutError(f"the {role} wrote no trace")
                time.sleep(0.05)
            found[role] = json.loads(path.read_text())
        return found

    # ------------------------------------------------------------------
    def _outcome(self, setup_s: float) -> dict:
        reference = {name: describe(values) for name, values in self.samples.items()}
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "store_bytes": {"value": self.store_bytes, "unit": "bytes"},
            "peak_rss_mb": {"value": self.rss["leader"], "unit": "MB"},
        }
        for name, summary in reference.items():
            metrics[name] = {"value": summary["min"], "unit": "s"}
        reference["peak_rss_mb"] = self.rss
        reference["serve_seconds"] = self.serve_seconds
        reference["recover_after_loop_s"] = self.after_loop_recover_s
        outcome = {
            "correct": True,
            "attempted": self.attempted,
            "failed": 0,
            "reference": reference,
            "metrics": metrics,
        }
        if self.tracer is not None:
            from perfbench import trace

            report = trace.report(self, metrics)
            outcome["trace_report"] = report
            outcome["traced_end_to_end"] = metrics
            outcome["metrics"] = report["per_layer"]
        return outcome
