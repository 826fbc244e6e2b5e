"""Tests for the command-line interface."""

import io
import json

import pytest

from repro.cli import load_database_json, main


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "suffixes.sdl"
    path.write_text("suffix(X[N:end]) :- r(X).\n")
    return str(path)


@pytest.fixture
def database_file(tmp_path):
    path = tmp_path / "db.json"
    path.write_text(json.dumps({"r": ["abc"], "pairs": [["a", "b"]]}))
    return str(path)


class TestDatabaseLoading:
    def test_strings_and_tuples(self, database_file):
        database = load_database_json(database_file)
        assert ("abc",) in database.relation("r")
        assert ("a", "b") in database.relation("pairs")

    @pytest.mark.parametrize(
        "payload, fragment",
        [
            ({"r": [[]]}, "empty row"),
            ({"r": [5]}, "row 5"),
            ({"r": [["a", 7]]}, "non-string value 7"),
            ({"r": "abc"}, "expected a list of rows"),
            ([1, 2], "must be an object"),
        ],
    )
    def test_malformed_json_reports_relation_and_row(self, tmp_path, payload, fragment):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        from repro.errors import ValidationError

        with pytest.raises(ValidationError) as excinfo:
            load_database_json(str(path))
        assert fragment in str(excinfo.value)

    def test_malformed_json_yields_exit_code_1(self, tmp_path, program_file):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"r": [[]]}))
        out = io.StringIO()
        code = main(
            ["run", program_file, "--db", str(path), "--query", "suffix(X)"],
            out=out,
        )
        assert code == 1
        assert "error: relation 'r'" in out.getvalue()


class TestCommands:
    def test_run_prints_answers_and_summary(self, program_file, database_file):
        out = io.StringIO()
        code = main(
            ["run", program_file, "--db", database_file, "--query", "suffix(X)"],
            out=out,
        )
        assert code == 0
        lines = out.getvalue().strip().splitlines()
        assert "abc" in lines
        assert lines[-1].startswith("% 4 answers")

    def test_run_with_naive_strategy(self, program_file, database_file):
        out = io.StringIO()
        code = main(
            ["run", program_file, "--db", database_file, "--query", "suffix(X)",
             "--strategy", "naive"],
            out=out,
        )
        assert code == 0

    def test_run_with_compiled_strategy(self, program_file, database_file):
        out = io.StringIO()
        code = main(
            ["run", program_file, "--db", database_file, "--query", "suffix(X)",
             "--strategy", "compiled"],
            out=out,
        )
        assert code == 0
        assert "% 4 answers" in out.getvalue()

    def test_explain_prints_plans_and_strata(self, program_file):
        out = io.StringIO()
        code = main(["explain", program_file], out=out)
        assert code == 0
        report = out.getvalue()
        assert "stratum 1" in report
        assert "clause: suffix(X[N:end]) :- r(X)." in report
        assert "scan r(X)" in report

    def test_analyze_reports_finiteness(self, program_file):
        out = io.StringIO()
        code = main(["analyze", program_file], out=out)
        assert code == 0
        assert "non-constructive" in out.getvalue()

    def test_parse_pretty_prints(self, program_file):
        out = io.StringIO()
        code = main(["parse", program_file], out=out)
        assert code == 0
        assert "suffix(X[N:end]) :- r(X)." in out.getvalue()

    def test_parse_error_yields_exit_code_1(self, tmp_path):
        bad = tmp_path / "bad.sdl"
        bad.write_text("p(X :- q(X).")
        out = io.StringIO()
        assert main(["parse", str(bad)], out=out) == 1
        assert "error:" in out.getvalue()

    def test_missing_file_yields_exit_code_1(self):
        out = io.StringIO()
        assert main(["parse", "/nonexistent/prog.sdl"], out=out) == 1


class TestServeCommand:
    def _serve(self, program_file, database_file, tmp_path, script):
        path = tmp_path / "commands.txt"
        path.write_text(script)
        out = io.StringIO()
        code = main(
            ["serve", program_file, "--db", database_file, "--script", str(path)],
            out=out,
        )
        return code, out.getvalue()

    def test_query_and_summary(self, program_file, database_file, tmp_path):
        code, output = self._serve(
            program_file, database_file, tmp_path, "? suffix(X)\nquit\n"
        )
        assert code == 0
        lines = output.strip().splitlines()
        assert "abc" in lines
        assert "% 4 answers" in lines

    def test_incremental_add_is_served_by_later_queries(
        self, program_file, database_file, tmp_path
    ):
        script = (
            "# add a strand, then query a suffix only it has\n"
            "add r xyz\n"
            'query suffix("yz")\n'
        )
        code, output = self._serve(program_file, database_file, tmp_path, script)
        assert code == 0
        assert "% +4 facts (1 base)" in output
        assert "yz" in output.splitlines()

    def test_add_accepts_quoted_values(self, program_file, database_file, tmp_path):
        # Quoted values mirror the query syntax: the stored sequence must
        # not contain the quote marks.
        script = 'add r "qv"\nquery suffix("v")\nquery r(X)\n'
        code, output = self._serve(program_file, database_file, tmp_path, script)
        assert code == 0
        lines = output.splitlines()
        assert "v" in lines
        assert "qv" in lines
        assert '"qv"' not in lines

    def test_add_quoted_value_with_space_stays_one_value(
        self, program_file, database_file, tmp_path
    ):
        script = 'add r "a b"\nquery r("a b")\nadd r nospace\nquery r(X)\n'
        code, output = self._serve(program_file, database_file, tmp_path, script)
        assert code == 0
        lines = output.splitlines()
        assert "a b" in lines  # stored as a single arity-1 fact
        # The relation's arity was not poisoned: a later plain add works.
        assert "nospace" in lines
        assert "error:" not in output

    def test_add_with_unbalanced_quote_reports_and_continues(
        self, program_file, database_file, tmp_path
    ):
        script = 'add r "broken\nquery r(X)\n'
        code, output = self._serve(program_file, database_file, tmp_path, script)
        assert code == 0
        assert "error:" in output
        assert "% 1 answers" in output  # the session kept serving

    def test_stats_reports_model_and_cache(self, program_file, database_file, tmp_path):
        code, output = self._serve(
            program_file, database_file, tmp_path, "stats\n"
        )
        assert code == 0
        stats = json.loads(output.strip().splitlines()[-1])
        assert stats["facts"] > 0
        assert stats["prepared_cache"]["capacity"] == 128

    def test_errors_do_not_end_the_session(
        self, program_file, database_file, tmp_path
    ):
        script = "bogus\nadd r\nquery suffix(\nquery r(X)\n"
        code, output = self._serve(program_file, database_file, tmp_path, script)
        assert code == 0
        assert "error: unknown command 'bogus'" in output
        assert "error: add needs a relation" in output
        # The parse error is reported, then the next command still runs.
        assert output.count("error:") == 3
        assert "% 1 answers" in output


class TestLintCommand:
    @pytest.fixture
    def bad_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.sdl").write_text("bad(X) :- r(Y).\n")
        return "bad.sdl"

    def test_human_output_has_caret_excerpts_and_exit_2(self, bad_file):
        out = io.StringIO()
        code = main(["lint", bad_file], out=out)
        assert code == 2
        text = out.getvalue()
        assert "bad.sdl:1:1: SDL-E103 error:" in text
        assert "    1 | bad(X) :- r(Y).\n      | ^^^^^^" in text
        assert "= hint: add a body atom that binds X" in text
        assert text.rstrip().endswith("4 diagnostics: 1 error, 1 warning, 1 perf, 1 hint")

    def test_json_output_carries_spans_and_exit_code(self, bad_file):
        out = io.StringIO()
        code = main(["lint", bad_file, "--json"], out=out)
        assert code == 2
        payload = json.loads(out.getvalue())
        assert payload["exit_code"] == 2
        assert payload["counts"] == {"error": 1, "warning": 1, "perf": 1, "hint": 1}
        first = payload["diagnostics"][0]
        assert first["code"] == "SDL-E103"
        assert first["span"] == {"line": 1, "column": 1, "end_line": 1, "end_column": 6}

    def test_clean_program_exits_zero(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "ok.sdl").write_text("p(X) :- r(X).\n")
        out = io.StringIO()
        assert main(["lint", "ok.sdl"], out=out) == 0
        assert "clean: no diagnostics" in out.getvalue()

    def test_strict_gates_on_warnings_but_not_hints(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "warn.sdl").write_text("suffix(X[N:end]) :- r(X).\n")
        (tmp_path / "hint.sdl").write_text("p(X) :- r(X).\np(X) :- r(X).\n")
        assert main(["lint", "warn.sdl"], out=io.StringIO()) == 0
        assert main(["lint", "warn.sdl", "--strict"], out=io.StringIO()) == 1
        assert main(["lint", "hint.sdl", "--strict"], out=io.StringIO()) == 0

    def test_database_and_query_sharpen_the_rules(
        self, tmp_path, monkeypatch, database_file
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "undef.sdl").write_text("p(X) :- q(X).\n")
        out = io.StringIO()
        code = main(
            ["lint", "undef.sdl", "--db", database_file, "--query", "p(X, Y)"],
            out=out,
        )
        assert code == 2
        text = out.getvalue()
        assert "SDL-E101" in text and "'q'" in text
        assert "SDL-E102" in text  # p/2 pattern against p/1

    def test_unparsable_program_is_a_diagnostic_not_a_crash(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "broken.sdl").write_text("p(X :- q(X).\n")
        out = io.StringIO()
        assert main(["lint", "broken.sdl"], out=out) == 2
        assert "SDL-E100" in out.getvalue()


class TestAnalyzeJson:
    def test_json_payload_is_schema_stable(self, program_file):
        out = io.StringIO()
        code = main(["analyze", program_file, "--json"], out=out)
        assert code == 0
        payload = json.loads(out.getvalue())
        assert payload["verdict"] == "FINITE_NON_CONSTRUCTIVE"
        assert payload["finite"] is True
        assert payload["strongly_safe"] is True
        assert payload["constructive_cycles"] == []

    def test_possibly_infinite_exits_nonzero(self, tmp_path):
        path = tmp_path / "rep2.sdl"
        path.write_text("rep2(X, X) :- true.\nrep2(X ++ Y, Y) :- rep2(X, Y).\n")
        out = io.StringIO()
        code = main(["analyze", str(path), "--json"], out=out)
        assert code == 1
        payload = json.loads(out.getvalue())
        assert payload["verdict"] == "POSSIBLY_INFINITE"
        assert payload["finite"] is False
        assert payload["constructive_cycles"] == [["rep2"]]
        assert main(["analyze", str(path)], out=io.StringIO()) == 1


class TestExplainDiagnostics:
    def test_explain_appends_the_diagnostics_section(self, tmp_path):
        path = tmp_path / "bad.sdl"
        path.write_text("bad(X) :- r(Y).\n")
        out = io.StringIO()
        assert main(["explain", str(path)], out=out) == 0
        text = out.getvalue()
        assert "diagnostics:" in text
        assert "SDL-E103" in text
        assert text.index("stratum") < text.index("diagnostics:")


class TestWatchCommand:
    @pytest.fixture
    def live_server(self):
        from repro.live import serve_tcp_async

        server = serve_tcp_async(
            "suffix(X[N:end]) :- r(X).", {"r": ["abc"]}, port=0
        )
        try:
            yield server
        finally:
            server.close()

    def test_watch_count_streams_initial_then_delta(self, live_server):
        import threading
        import time

        from repro import DatalogClient

        def publish_once_anchored():
            deadline = time.monotonic() + 10
            while not live_server.live.stats()["active_subscriptions"]:
                assert time.monotonic() < deadline, "watch never anchored"
                time.sleep(0.01)
            with DatalogClient(*live_server.address) as writer:
                writer.add_facts([("r", ("xy",))])

        writer = threading.Thread(target=publish_once_anchored)
        writer.start()
        out = io.StringIO()
        address = f":{live_server.address[1]}"
        try:
            assert main(["watch", address, "suffix(X)", "--count", "2"], out=out) == 0
        finally:
            writer.join()
        text = out.getvalue()
        assert "% watching suffix(X)" in text
        assert "% initial: generation 0, 4 row(s)" in text
        assert "% delta: generation 1, 2 row(s)" in text
        body = [line for line in text.splitlines() if not line.startswith("%")]
        assert body == ["", "abc", "bc", "c", "xy", "y"]

    def test_watch_json_emits_versioned_delta_frames(self, live_server):
        out = io.StringIO()
        address = f":{live_server.address[1]}"
        assert main(["watch", address, "suffix(X)", "--json", "--count", "1"], out=out) == 0
        frame = json.loads(out.getvalue())
        assert frame["v"] == 1
        assert frame["kind"] == "subscription_delta"
        assert frame["initial"] is True
        assert sorted(frame["rows"]) == [[""], ["abc"], ["bc"], ["c"]]

    def test_watch_strict_refuses_unknown_predicates(self, live_server):
        out = io.StringIO()
        address = f":{live_server.address[1]}"
        code = main(["watch", address, "nosuch(X)", "--strict"], out=out)
        assert code == 1
        assert "nosuch" in out.getvalue()
