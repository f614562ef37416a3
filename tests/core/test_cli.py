"""Tests for the command-line interface."""

import pytest

from repro.cli import _coerce, build_parser, main


@pytest.fixture()
def people_csv(tmp_path):
    path = tmp_path / "people.csv"
    path.write_text(
        "id,name,dept,salary\n"
        "1,ada,eng,120.5\n"
        "2,bob,eng,95\n"
        "3,cyn,ops,80\n"
    )
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_sql_arguments(self):
        args = build_parser().parse_args(
            ["sql", "SELECT 1 FROM t", "--table", "t=f.csv", "--platform", "java"]
        )
        assert args.query == "SELECT 1 FROM t"
        assert args.table == ["t=f.csv"]
        assert args.platform == "java"


class TestCoerce:
    def test_int_float_bool_string(self):
        assert _coerce("42") == 42
        assert _coerce("3.5") == 3.5
        assert _coerce("true") is True
        assert _coerce("FALSE") is False
        assert _coerce("hello") == "hello"


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "platforms:" in out
        assert "java" in out and "spark" in out and "postgres" in out

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "freedom" in out
        assert "identical" in out
        assert "DIFFERENT" not in out

    def test_sql_over_csv(self, capsys, people_csv):
        code = main(
            [
                "sql",
                "SELECT dept, COUNT(*) AS n, AVG(salary) AS pay "
                "FROM people GROUP BY dept ORDER BY dept",
                "--table",
                f"people={people_csv}",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "eng" in out and "ops" in out
        assert "(2 rows" in out

    def test_sql_explain(self, capsys, people_csv):
        code = main(
            [
                "sql",
                "SELECT name FROM people WHERE salary > 90",
                "--table",
                f"people={people_csv}",
                "--explain",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sql-where" in out

    def test_sql_pinned_platform(self, capsys, people_csv):
        code = main(
            [
                "sql",
                "SELECT name FROM people ORDER BY name LIMIT 1",
                "--table",
                f"people={people_csv}",
                "--platform",
                "spark",
            ]
        )
        assert code == 0
        assert "ada" in capsys.readouterr().out

    def test_bad_table_spec(self, people_csv):
        with pytest.raises(SystemExit, match="NAME=CSVFILE"):
            main(["sql", "SELECT 1 FROM t", "--table", "oops"])

    def test_empty_csv(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(SystemExit, match="empty CSV"):
            main(["sql", "SELECT 1 FROM t", "--table", f"t={empty}"])


class TestExplainCommand:
    def test_explain_demo(self, capsys):
        assert main(["explain", "demo"]) == 0
        out = capsys.readouterr().out
        assert "enumerator:" in out
        assert "candidate(s) considered" in out
        assert "winner:" in out
        assert "reason:" in out
        assert "est=" in out
        assert "operator assignment:" in out
        assert "execution plan (task atoms):" in out
        assert "atom#" in out

    def test_explain_lists_infeasible_candidates(self, capsys):
        # the demo pipeline flat_maps, which postgres cannot run
        main(["explain", "demo"])
        assert "infeasible" in capsys.readouterr().out

    def test_explain_sql(self, capsys, people_csv):
        code = main(
            [
                "explain",
                "SELECT dept, COUNT(*) AS n FROM people GROUP BY dept",
                "--table",
                f"people={people_csv}",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "application optimizer:" in out
        assert "winner:" in out
        assert "groupby" in out

    def test_explain_bad_sql(self, people_csv):
        with pytest.raises(SystemExit):
            main(
                ["explain", "SELECT FROM nothing", "--table",
                 f"people={people_csv}"]
            )

    def test_explain_is_deterministic_and_measures_nothing(self):
        # A loop whose state feeds an elide-eligible filter, columnar off:
        # explain renders the plan from the optimizer's spans alone, so two
        # renders match byte for byte and no wall-clock prediction appears.
        from operator import itemgetter

        from repro import RheemContext, Tracer
        from repro.cli import _optimize_only, _render_decision_trace
        from repro.core.physical.columnar import ColumnPredicate

        rows = [(i % 7, float(i % 5) * 0.5, i * 3, i % 11) for i in range(200)]
        ctx = RheemContext(columnar=False)
        tracer = Tracer()
        ctx.attach_tracer(tracer)
        handle = ctx.collection(rows, name="rows").repeat(
            2,
            lambda d: d.filter(ColumnPredicate(0, (6).__gt__)).map(
                itemgetter(3, 1, 2, 0)
            ),
        )
        execution = _optimize_only(ctx, handle, tracer)
        first = _render_decision_trace(tracer, execution, ctx=ctx)
        second = _render_decision_trace(tracer, execution, ctx=ctx)
        assert first == second
        assert "loop#" in first
        assert "predicted" not in first


class TestTraceFlags:
    def test_demo_trace_out_chrome(self, tmp_path, capsys):
        import json

        trace = tmp_path / "demo.json"
        assert main(["demo", "--trace-out", str(trace)]) == 0
        err = capsys.readouterr().err
        assert "[trace]" in err and "Chrome trace" in err
        doc = json.loads(trace.read_text())
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert events
        # at least one complete span tree: a root with children
        roots = [e for e in events if e["args"]["parent_id"] is None]
        assert roots
        root_ids = {e["args"]["span_id"] for e in roots}
        assert any(
            e["args"]["parent_id"] in root_ids for e in events
        )
        assert doc["otherData"]["virtual_total_ms"] > 0

    def test_sql_trace_out_jsonl(self, tmp_path, capsys, people_csv):
        import json

        trace = tmp_path / "run.jsonl"
        code = main(
            [
                "sql",
                "SELECT name FROM people ORDER BY name",
                "--table",
                f"people={people_csv}",
                "--trace-out",
                str(trace),
            ]
        )
        assert code == 0
        assert "JSONL" in capsys.readouterr().err
        rows = [
            json.loads(line)
            for line in trace.read_text().strip().split("\n")
        ]
        assert any(row["name"] == "task" for row in rows)
        assert all(row["complete"] for row in rows)

    def test_demo_flame(self, capsys):
        assert main(["demo", "--flame"]) == 0
        err = capsys.readouterr().err
        assert "task" in err
        assert "%" in err and "█" in err

    def test_profile_flag_parses(self):
        args = build_parser().parse_args(["demo", "--profile"])
        assert args.profile is True
        args = build_parser().parse_args(["demo"])
        assert args.profile is None

    def test_untraced_demo_prints_no_trace_output(self, capsys):
        assert main(["demo"]) == 0
        assert "[trace]" not in capsys.readouterr().err


class TestParallelismFlag:
    def test_parser_accepts_parallelism(self):
        args = build_parser().parse_args(["demo", "--parallelism", "4"])
        assert args.parallelism == 4
        args = build_parser().parse_args(["sql", "SELECT 1 FROM t"])
        assert args.parallelism is None

    def test_demo_runs_with_parallelism(self, capsys):
        assert main(["demo", "--parallelism", "4"]) == 0
        out = capsys.readouterr().out
        assert "word counts" in out
        assert "identical" in out

    def test_sql_runs_with_parallelism(self, capsys, people_csv):
        code = main([
            "sql", "--table", f"people={people_csv}", "--parallelism", "2",
            "SELECT dept, COUNT(*) AS n FROM people GROUP BY dept",
        ])
        assert code == 0
        assert "eng" in capsys.readouterr().out


class TestJournaledRerun:
    """``demo --journal`` is the one way to continue a crashed run: the
    rerun over the same directory and run id resumes it."""

    @staticmethod
    def _bench(text):
        return [line for line in text.splitlines() if line.startswith("BENCH ")]

    def _demo(self, capsys, journal, *extra):
        code = main(["demo", "--journal", str(journal), "--run-id", "c", *extra])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize("parallelism", ["1", "4"])
    @pytest.mark.parametrize("crash_at", ["0", "1", "2"])
    def test_crash_then_rerun_prints_reference_bench(
        self, capsys, tmp_path, crash_at, parallelism
    ):
        width = ("--parallelism", parallelism)
        code, reference, _ = self._demo(capsys, tmp_path / "ref", *width)
        assert code == 0
        code, _, err = self._demo(
            capsys, tmp_path / "run", *width, "--crash-at", crash_at
        )
        assert code == 3
        assert (
            f"continue with: repro demo --journal {tmp_path / 'run'} "
            "--run-id c" in err
        )
        code, resumed, err = self._demo(capsys, tmp_path / "run", *width)
        assert code == 0
        assert "atom(s) replayed from the journal" in err
        assert self._bench(resumed) == self._bench(reference)
        assert len(self._bench(resumed)) == 1

    def test_torn_tail_is_reported_on_the_resume_line(self, capsys, tmp_path):
        code, reference, _ = self._demo(capsys, tmp_path / "ref")
        assert code == 0
        code, _, _ = self._demo(
            capsys, tmp_path / "run", "--crash-at", "1", "--crash-mode", "torn"
        )
        assert code == 3
        code, resumed, err = self._demo(capsys, tmp_path / "run")
        assert code == 0
        assert (
            "[resume] 2 atom(s) replayed from the journal, "
            "1 torn record(s) discarded" in err
        )
        assert self._bench(resumed) == self._bench(reference)

    @pytest.mark.parametrize("command", ["resume", "trace-diff"])
    def test_deleted_commands_are_invalid_choices(self, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "x"])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
