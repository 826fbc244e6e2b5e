"""The durable storage engine: WAL framing, snapshots, crash recovery.

The tests are organized bottom-up: the WAL's damage policy (torn tails
truncate, mid-log corruption refuses), snapshot serialization and its
validation errors, then whole-directory recovery with fault injection at
every interesting crash point — after intent, after commit, mid-snapshot,
mid-append — and finally the durable server/CLI/TCP surfaces.
"""

import json
import os
import struct

import pytest

from repro.api.types import ApiError
from repro.cli import main as cli_main
from repro.engine.session import DatalogSession
from repro.errors import CorruptLogError, CorruptSnapshotError, StorageError
from repro.storage import open_session
from repro.storage import snapshot as snapshot_io
from repro.storage import wal as wal_io
from repro.storage.store import DurableStore, program_fingerprint
from repro.language.parser import parse_program

PROGRAM = "suffix(X[N:end]) :- r(X)."


def open_durable(data_dir, **kwargs):
    return open_session(PROGRAM, data_dir, **kwargs)


def model_facts(session):
    """Every (predicate, row-of-strings) in the resident model."""
    interpretation = session.interpretation
    return {
        (predicate, tuple(str(value) for value in row))
        for predicate in interpretation.predicates()
        for row in interpretation.tuples(predicate)
    }


def crash(session):
    """Simulate a crash: drop file handles without flushing any state."""
    session.storage.abandon()


def flip_byte(path, offset):
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0xFF]))


# ----------------------------------------------------------------------
# WAL framing and damage policy
# ----------------------------------------------------------------------
class TestWriteAheadLog:
    def test_roundtrip_in_order(self, data_dir):
        log = wal_io.WriteAheadLog(data_dir)
        records = [{"t": "intent", "batch": n, "facts": []} for n in range(1, 6)]
        for record in records:
            log.append(record, sync=True)
        log.close()
        seen = []
        wal_io.scan_segments(data_dir, lambda p, o, r: seen.append(r))
        assert seen == records

    def test_rotation_and_prune(self, data_dir):
        log = wal_io.WriteAheadLog(data_dir, segment_max_bytes=1024)
        for batch in range(1, 40):
            log.append({"t": "intent", "batch": batch, "facts": [["r", ["x" * 40]]]})
            log.append({"t": "commit", "batch": batch, "applied": 1, "generation": batch})
        assert len(log.segments()) > 1
        closed_before = len(log.closed_segments())
        removed = log.prune(up_to_batch=20)
        assert removed  # every fully-old closed segment went away
        assert len(log.closed_segments()) < closed_before
        # The surviving log still replays cleanly and retains batch 21+.
        batches = []
        wal_io.scan_segments(data_dir, lambda p, o, r: batches.append(r["batch"]))
        assert max(batches) == 39
        log.close()

    def test_torn_tail_is_truncated_with_warning(self, data_dir):
        log = wal_io.WriteAheadLog(data_dir)
        log.append({"t": "intent", "batch": 1, "facts": []})
        log.append({"t": "commit", "batch": 1, "applied": 0, "generation": 0})
        log.close()
        path = wal_io.segment_paths(data_dir)[0]
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size - 3)  # tear the final frame mid-payload
        warnings, seen = [], []
        wal_io.scan_segments(data_dir, lambda p, o, r: seen.append(r), warnings)
        assert [r["t"] for r in seen] == ["intent"]
        assert len(warnings) == 1 and "truncated" in warnings[0]
        # The damage is repaired physically: a rescan is clean.
        warnings2 = []
        wal_io.scan_segments(data_dir, lambda p, o, r: None, warnings2)
        assert warnings2 == []

    def test_flipped_crc_at_tail_is_truncated(self, data_dir):
        log = wal_io.WriteAheadLog(data_dir)
        log.append({"t": "intent", "batch": 1, "facts": []})
        log.append({"t": "commit", "batch": 1, "applied": 0, "generation": 0})
        log.close()
        path = wal_io.segment_paths(data_dir)[0]
        flip_byte(path, os.path.getsize(path) - 1)  # corrupt the final payload
        warnings, seen = [], []
        wal_io.scan_segments(data_dir, lambda p, o, r: seen.append(r), warnings)
        assert [r["t"] for r in seen] == ["intent"]
        assert len(warnings) == 1 and "corrupt" in warnings[0]

    def test_mid_log_corruption_is_a_hard_error(self, data_dir):
        log = wal_io.WriteAheadLog(data_dir)
        for batch in (1, 2, 3):
            log.append({"t": "intent", "batch": batch, "facts": []})
        log.close()
        path = wal_io.segment_paths(data_dir)[0]
        flip_byte(path, struct.calcsize(">II") + 2)  # first frame's payload
        with pytest.raises(CorruptLogError) as excinfo:
            wal_io.scan_segments(data_dir, lambda p, o, r: None, [])
        message = str(excinfo.value)
        assert os.path.basename(path) in message and "byte 0" in message

    def test_damage_in_a_non_final_segment_is_a_hard_error(self, data_dir):
        log = wal_io.WriteAheadLog(data_dir, segment_max_bytes=1024)
        for batch in range(1, 30):
            log.append({"t": "intent", "batch": batch, "facts": [["r", ["y" * 60]]]})
        log.close()
        segments = wal_io.segment_paths(data_dir)
        assert len(segments) >= 2
        # Damage the *tail* of the first segment: tail position, wrong file.
        flip_byte(segments[0], os.path.getsize(segments[0]) - 1)
        with pytest.raises(CorruptLogError):
            wal_io.scan_segments(data_dir, lambda p, o, r: None, [])


# ----------------------------------------------------------------------
# Snapshot serialization and validation
# ----------------------------------------------------------------------
class TestSnapshots:
    ROWS = {"r": [("abc",)], "suffix": [("abc",), ("bc",), ("c",), ("",)]}
    BASE = [("r", ("abc",))]

    def write(self, directory, fingerprint="f" * 64, generation=3):
        return snapshot_io.write_snapshot(
            directory,
            generation=generation,
            batch=7,
            program_fingerprint=fingerprint,
            relation_rows=self.ROWS,
            base_facts=self.BASE,
            fact_count=5,
        )

    def test_roundtrip(self, data_dir):
        path = self.write(data_dir)
        header, facts, base = snapshot_io.load_snapshot(path, "f" * 64)
        assert header["generation"] == 3 and header["batch"] == 7
        assert sorted(facts) == sorted(
            (name, list(row)) for name, rows in self.ROWS.items() for row in rows
        )
        assert base == [["r", ["abc"]]] or base == [("r", ["abc"])]

    def test_corruption_names_file_and_offset(self, data_dir):
        path = self.write(data_dir)
        flip_byte(path, os.path.getsize(path) // 2)
        with pytest.raises(CorruptSnapshotError) as excinfo:
            snapshot_io.load_snapshot(path, "f" * 64)
        message = str(excinfo.value)
        assert path in message and "byte" in message

    def test_truncation_is_detected(self, data_dir):
        path = self.write(data_dir)
        # Chop the end marker off on a frame boundary: every remaining
        # frame checks out, so only the end-marker rule can catch it.
        end_frame = wal_io.encode_record({"end": True})
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) - len(end_frame))
        with pytest.raises(CorruptSnapshotError, match="missing end marker"):
            snapshot_io.load_snapshot(path, "f" * 64)

    def test_format_version_skew_is_a_typed_error(self, data_dir):
        path = snapshot_io.snapshot_path(data_dir, 1)
        os.makedirs(data_dir, exist_ok=True)
        header = {"format": 99, "generation": 1, "batch": 1,
                  "program": "f" * 64, "facts": 0, "base_facts": 0}
        with open(path, "wb") as handle:
            handle.write(wal_io.encode_record(header))
            handle.write(wal_io.encode_record({"end": True}))
        with pytest.raises(StorageError, match="format version 99"):
            snapshot_io.read_header(path)
        with pytest.raises(StorageError, match="format version 99"):
            snapshot_io.load_snapshot(path)

    def test_program_fingerprint_mismatch(self, data_dir):
        path = self.write(data_dir, fingerprint="a" * 64)
        with pytest.raises(StorageError, match="different program"):
            snapshot_io.load_snapshot(path, "b" * 64)

    def test_retention_keeps_newest(self, data_dir):
        for generation in (1, 2, 3):
            self.write(data_dir, generation=generation)
        snapshot_io.prune_snapshots(data_dir, keep=2)
        kept = [g for g, _ in snapshot_io.list_snapshots(data_dir)]
        assert kept == [3, 2]


# ----------------------------------------------------------------------
# End-to-end durability and crash recovery
# ----------------------------------------------------------------------
class TestRecovery:
    def test_graceful_close_recovers_from_snapshot_alone(self, data_dir):
        session = open_durable(data_dir)
        session.add_facts([("r", ("abc",)), ("r", ("ab",))])
        expected = model_facts(session)
        assert session.generation == 1
        session.close()  # writes the final snapshot

        recovered = open_durable(data_dir)
        report = recovered.storage.recovery
        assert report.snapshot_generation == 1
        assert report.replayed_batches == 0 and report.dropped_batches == 0
        assert model_facts(recovered) == expected
        assert recovered.generation == 1
        recovered.close()

    def test_crash_replays_the_wal(self, data_dir):
        session = open_durable(data_dir)
        session.add_facts([("r", ("abc",))])
        session.add_facts([("r", ("acgt",))])
        expected = model_facts(session)
        crash(session)  # nothing flushed beyond the fsynced commits

        recovered = open_durable(data_dir)
        report = recovered.storage.recovery
        assert report.cold_start  # no snapshot was ever written
        assert report.replayed_batches == 2
        assert model_facts(recovered) == expected
        assert recovered.generation == 2
        recovered.close()

    def test_intent_without_commit_is_dropped(self, data_dir):
        session = open_durable(data_dir)
        session.add_facts([("r", ("abc",))])
        expected = model_facts(session)
        # Crash between the intent record and the commit record: the
        # caller of that batch was never acknowledged.
        session.storage.begin_batch([("r", ("zzzz",))])
        crash(session)

        recovered = open_durable(data_dir)
        report = recovered.storage.recovery
        assert report.dropped_batches == 1
        assert any("uncommitted" in w for w in report.warnings)
        assert model_facts(recovered) == expected  # no trace of "zzzz"
        recovered.close()

    def test_torn_wal_tail_recovers_with_warning(self, data_dir):
        session = open_durable(data_dir)
        session.add_facts([("r", ("abc",))])
        expected = model_facts(session)
        session.add_facts([("r", ("ab",))])
        crash(session)
        # Tear the fsynced commit record of the second batch: its intent
        # then has no commit, so the whole batch is dropped.
        wal_dir = os.path.join(data_dir, "wal")
        path = wal_io.segment_paths(wal_dir)[-1]
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) - 2)

        recovered = open_durable(data_dir)
        report = recovered.storage.recovery
        assert report.truncated
        assert report.replayed_batches == 1 and report.dropped_batches == 1
        assert model_facts(recovered) == expected
        recovered.close()

    def test_mid_log_corruption_refuses_recovery(self, data_dir):
        session = open_durable(data_dir)
        session.add_facts([("r", ("abc",))])
        session.add_facts([("r", ("ab",))])
        crash(session)
        wal_dir = os.path.join(data_dir, "wal")
        path = wal_io.segment_paths(wal_dir)[0]
        flip_byte(path, struct.calcsize(">II") + 4)  # first record's payload
        with pytest.raises(CorruptLogError):
            open_durable(data_dir)

    def test_checkpoint_bounds_replay_to_the_tail(self, data_dir):
        session = open_durable(
            data_dir, storage_options={"background_checkpoints": False}
        )
        session.add_facts([("r", ("abc",))])
        session.add_facts([("r", ("ab",))])
        session.storage.checkpoint()
        session.add_facts([("r", ("acgt",))])
        expected = model_facts(session)
        crash(session)

        recovered = open_durable(data_dir)
        report = recovered.storage.recovery
        assert report.snapshot_generation == 2
        assert report.replayed_batches == 1  # only the post-checkpoint batch
        assert model_facts(recovered) == expected
        assert recovered.generation == 3
        recovered.close()

    def test_corrupt_newest_snapshot_falls_back_one(self, data_dir):
        session = open_durable(
            data_dir, storage_options={"background_checkpoints": False}
        )
        session.add_facts([("r", ("abc",))])
        session.storage.checkpoint()
        session.add_facts([("r", ("ab",))])
        session.storage.checkpoint()
        expected = model_facts(session)
        crash(session)
        newest = snapshot_io.list_snapshots(os.path.join(data_dir, "snapshots"))[0][1]
        flip_byte(newest, os.path.getsize(newest) // 2)

        recovered = open_durable(data_dir)
        report = recovered.storage.recovery
        assert report.skipped_snapshots == 1
        assert report.snapshot_generation == 1  # the older snapshot
        # Retention kept the WAL segments the older snapshot needs.
        assert model_facts(recovered) == expected
        assert recovered.generation == 2
        recovered.close()

    def test_wal_is_pruned_after_checkpoints(self, data_dir):
        session = open_durable(
            data_dir,
            storage_options={
                "background_checkpoints": False,
                "segment_max_bytes": 1024,
                "snapshots_kept": 1,
            },
        )
        for word in ("abc", "ab", "acgt", "ttagga", "cg"):
            session.add_facts([("r", (word,))])
        session.storage.checkpoint()
        stats = session.storage.stats()
        # One snapshot retained; every closed segment it supersedes is gone.
        assert stats["snapshot"]["count"] == 1
        assert stats["wal"]["segments"] <= 1
        expected = model_facts(session)
        session.close()
        recovered = open_durable(data_dir)
        assert model_facts(recovered) == expected
        recovered.close()

    def test_restarted_batch_ids_do_not_collide(self, data_dir):
        session = open_durable(data_dir)
        session.add_facts([("r", ("abc",))])
        session.close()
        recovered = open_durable(data_dir)
        recovered.add_facts([("r", ("ab",))])
        expected = model_facts(recovered)
        crash(recovered)
        third = open_durable(data_dir)
        assert model_facts(third) == expected
        third.close()

    def test_meta_rejects_a_different_program(self, data_dir):
        session = open_durable(data_dir)
        session.close()
        with pytest.raises(StorageError, match="different program"):
            open_session("other(X) :- r(X).", data_dir)

    def test_restore_state_requires_a_pristine_session(self):
        session = DatalogSession(PROGRAM)
        session.add_facts([("r", ("abc",))])
        with pytest.raises(StorageError):
            session.restore_state([("r", ["abc"])], [("r", ["abc"])])
        session.close()

    def test_database_bootstrap_is_absorbed_on_restart(self, data_dir):
        first = open_session(PROGRAM, data_dir, database={"r": ["abc"]})
        generation = first.generation
        expected = model_facts(first)
        first.close()
        second = open_session(PROGRAM, data_dir, database={"r": ["abc"]})
        # The same bootstrap facts are already durable: absorbed, no new
        # generation published.
        assert second.generation == generation
        assert model_facts(second) == expected
        second.close()

    def test_durability_stats_shape(self, data_dir):
        session = open_durable(data_dir)
        session.add_facts([("r", ("abc",))])
        stats = session.stats()["durability"]
        assert stats["generation"] == 1
        assert stats["wal"]["intents"] == 1 and stats["wal"]["commits"] == 1
        assert stats["wal"]["syncs"] >= 1
        assert "recovery" in stats
        session.close()


# ----------------------------------------------------------------------
# The durable server and API surfaces
# ----------------------------------------------------------------------
class TestDurableServer:
    def test_generation_survives_restart(self, data_dir):
        from repro.engine.server import DatalogServer

        server = DatalogServer(PROGRAM, data_dir=data_dir)
        server.add_fact("r", "abc")
        server.add_fact("r", "acgt")
        generation = server.generation
        assert generation == 2 and server.durable
        server.close()

        reopened = DatalogServer(PROGRAM, data_dir=data_dir)
        assert reopened.generation == generation
        assert reopened.snapshot.fact_count() > 0
        # The generation keeps advancing from where it left off.
        reopened.add_fact("r", "cg")
        assert reopened.generation == generation + 1
        reopened.close()

    def test_server_checkpoint_is_exposed(self, data_dir):
        from repro.engine.server import DatalogServer

        server = DatalogServer(PROGRAM, data_dir=data_dir)
        server.add_fact("r", "abc")
        path = server.checkpoint()
        assert os.path.exists(path)
        server.close()
        memory_server = DatalogServer(PROGRAM)
        with pytest.raises(StorageError, match="data_dir"):
            memory_server.checkpoint()
        memory_server.close()

    def test_durability_travels_the_versioned_api(self, data_dir):
        from repro.api.transport import serve_tcp
        from repro.api.client import DatalogClient

        transport = serve_tcp(PROGRAM, data_dir=data_dir)
        host, port = transport.address
        try:
            with DatalogClient(host, port) as client:
                client.add_fact("r", "abc")
                stats = client.stats()
                assert stats.durability is not None
                assert stats.durability["generation"] == 1
                assert client.durability()["wal"]["commits"] == 1
        finally:
            transport.close()
        # close() flushed the WAL and wrote the final snapshot.
        assert snapshot_io.list_snapshots(os.path.join(data_dir, "snapshots"))

    def test_storage_error_codes_are_typed_on_the_wire(self):
        error = ApiError.from_exception(CorruptLogError("wal-00000001.log bad"))
        assert error.code == "corrupt_log"
        with pytest.raises(CorruptLogError):
            error.raise_()
        error = ApiError.from_exception(StorageError("boom"))
        assert error.code == "storage_error"
        with pytest.raises(StorageError):
            error.raise_()


# ----------------------------------------------------------------------
# CLI: --data-dir serving plus the snapshot/restore subcommands
# ----------------------------------------------------------------------
class TestStorageCli:
    def run_cli(self, *argv, tmp_path):
        import io

        out = io.StringIO()
        code = cli_main(list(argv), out=out)
        return code, out.getvalue()

    def write_program(self, tmp_path):
        path = tmp_path / "prog.sdl"
        path.write_text(PROGRAM, encoding="utf-8")
        return str(path)

    def test_serve_snapshot_restore_cycle(self, tmp_path, data_dir):
        program = self.write_program(tmp_path)
        script = tmp_path / "cmds.txt"
        script.write_text("add r abc\nquit\n", encoding="utf-8")
        code, output = self.run_cli(
            "serve", program, "--data-dir", data_dir,
            "--script", str(script), tmp_path=tmp_path,
        )
        assert code == 0 and "durable" in output

        code, output = self.run_cli(
            "snapshot", program, "--data-dir", data_dir, tmp_path=tmp_path
        )
        assert code == 0 and "snapshot written" in output

        dump = tmp_path / "dump.json"
        code, output = self.run_cli(
            "restore", program, "--data-dir", data_dir,
            "--out", str(dump), tmp_path=tmp_path,
        )
        assert code == 0 and "generation 1" in output
        with open(dump, encoding="utf-8") as handle:
            assert json.load(handle) == {"r": [["abc"]]}

    def test_restore_json_reports_recovery(self, tmp_path, data_dir):
        program = self.write_program(tmp_path)
        session = open_durable(data_dir)
        session.add_facts([("r", ("abc",))])
        crash(session)
        code, output = self.run_cli(
            "restore", program, "--data-dir", data_dir, "--json",
            tmp_path=tmp_path,
        )
        assert code == 0
        payload = json.loads(output)
        assert payload["replayed_batches"] == 1
        assert payload["facts"] == 5 and payload["generation"] == 1

    def test_wrong_program_is_a_clean_cli_error(self, tmp_path, data_dir):
        session = open_durable(data_dir)
        session.close()
        other = tmp_path / "other.sdl"
        other.write_text("other(X) :- r(X).", encoding="utf-8")
        code, output = self.run_cli(
            "restore", str(other), "--data-dir", data_dir, tmp_path=tmp_path
        )
        assert code == 1 and "different program" in output


# ----------------------------------------------------------------------
# Package surface
# ----------------------------------------------------------------------
def test_public_exports():
    import repro
    import repro.engine

    assert repro.__version__ == "1.4.0"
    assert repro.open_session is open_session
    assert repro.StorageError is StorageError
    assert repro.engine.open_session is open_session
    assert repro.engine.StorageError is StorageError


def test_fingerprint_is_canonical():
    program = parse_program(PROGRAM)
    assert program_fingerprint(program) == program_fingerprint(
        parse_program("suffix(X[N:end])   :-   r(X).")
    )
    assert program_fingerprint(program) != program_fingerprint(
        parse_program("suffix(X[N:end]) :- q(X).")
    )


def test_store_refuses_use_after_close(data_dir):
    program = parse_program(PROGRAM)
    store = DurableStore(data_dir, program)
    store.close(final_snapshot=False)
    with pytest.raises(StorageError, match="closed"):
        store.begin_batch([("r", ("abc",))])
