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
