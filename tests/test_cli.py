"""Command-line interface: exit codes, reports, benchmark CSVs."""
import csv
import json

import pytest

from fdcop import cli, model
from fdcop.engines import discrete

from conftest import make_problem, quad


def must_not_run(*args, **kwargs):
    pytest.fail("work started before the output path was checked")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_tree_to_file(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        code, _, err = run_cli(capsys, "generate", "tree", "-n", "6",
                               "--seed", "3", "-o", str(out))
        assert code == 0
        assert "variables=6" in err
        p = model.load(out)
        assert len(p.variables) == 6

    def test_graph_to_stdout(self, capsys):
        code, out, err = run_cli(capsys, "generate", "graph", "-n", "5",
                                 "--p1", "0.4", "--seed", "1")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["variables"]) == 5

    def test_invalid_size(self, capsys):
        code, _, err = run_cli(capsys, "generate", "tree", "-n", "1")
        assert code == cli.EXIT_INVALID
        assert "invalid input" in err

    def test_out_in_missing_directory(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli.generators, "gen_tree", must_not_run)
        out = tmp_path / "missing" / "p.json"
        code, stdout, err = run_cli(capsys, "generate", "tree", "-n", "6", "-o", str(out))
        assert code == cli.EXIT_INVALID
        assert stdout == "" and err.strip() == f"cannot write {out}"
        assert not out.parent.exists()


class TestSolve:
    def test_report_fields(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        run_cli(capsys, "generate", "tree", "-n", "5", "--seed", "2",
                "-o", str(path))
        code, out, _ = run_cli(capsys, "solve", str(path), "--engine", "dpop")
        assert code == 0
        report = json.loads(out)
        assert report["engine"] == "dpop"
        assert report["stats"]["total_messages"] == 10
        assert report["stats"]["total_messages"] == report["bounds"]["predicted_messages"]
        assert set(report["assignment"]) == {f"x{i:03d}" for i in range(5)}

    def test_nonfinite_alpha(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        run_cli(capsys, "generate", "tree", "-n", "5", "--seed", "2",
                "-o", str(path))
        code, _, err = run_cli(capsys, "solve", str(path), "--engine", "af-dpop",
                               "--alpha", "nan")
        assert code == cli.EXIT_INVALID
        assert "alpha" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "solve", "/nonexistent.json")
        assert code == cli.EXIT_INVALID

    def test_problem_path_is_a_directory(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "solve", str(tmp_path))
        assert code == cli.EXIT_INVALID
        assert out == "" and f"cannot read {tmp_path}" in err

    @pytest.mark.parametrize("mangle", ["not_json", "not_text", "missing_key",
                                        "short_coeffs"])
    def test_malformed_problem_file(self, tmp_path, capsys, mangle):
        path = tmp_path / "p.json"
        run_cli(capsys, "generate", "tree", "-n", "5", "--seed", "2",
                "-o", str(path))
        doc = json.loads(path.read_text())
        if mangle == "not_json":
            path.write_text("this is not json")
        elif mangle == "not_text":
            path.write_bytes(b"\xff\xfe\x00 not utf-8")
        elif mangle == "missing_key":
            del doc["constraints"]
            path.write_text(json.dumps(doc))
        else:
            doc["constraints"][0]["coeffs"] = doc["constraints"][0]["coeffs"][:5]
            path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "solve", str(path))
        assert code == cli.EXIT_INVALID
        assert out == "" and "invalid input" in err

    def test_out_in_missing_directory(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "p.json"
        run_cli(capsys, "generate", "tree", "-n", "5", "--seed", "2", "-o", str(path))
        monkeypatch.setattr(cli.runtime, "run", must_not_run)
        out = tmp_path / "missing" / "out.json"
        code, stdout, err = run_cli(capsys, "solve", str(path), "-o", str(out))
        assert code == cli.EXIT_INVALID
        assert stdout == "" and err.strip() == f"cannot write {out}"

    def test_out_is_a_directory(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        run_cli(capsys, "generate", "tree", "-n", "5", "--seed", "2", "-o", str(path))
        out = tmp_path / "out"
        out.mkdir()
        code, _, err = run_cli(capsys, "solve", str(path), "-o", str(out))
        assert code == cli.EXIT_INVALID
        assert err.strip() == f"cannot write {out}"

    def test_ef_on_cyclic_graph(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        run_cli(capsys, "generate", "graph", "-n", "6", "--p1", "0.6",
                "--seed", "0", "-o", str(path))
        code, _, err = run_cli(capsys, "solve", str(path), "--engine", "ef-dpop")
        assert code == cli.EXIT_INVALID
        assert "tree-structured" in err

    def test_capacity_exit(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        run_cli(capsys, "generate", "graph", "-n", "14", "--p1", "0.6",
                "--seed", "0", "-o", str(path))
        code, _, err = run_cli(capsys, "solve", str(path), "--engine", "dpop",
                               "-d", "9")
        assert code == cli.EXIT_CAPACITY
        assert "capacity" in err

    def test_unbuildable_grid(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        model.save(make_problem([quad("x", "y", a=-1.0)], lb=1e16, ub=1e16 + 2), path)
        code, out, err = run_cli(capsys, "solve", str(path), "--engine", "dpop", "-d", "9")
        assert code == cli.EXIT_INVALID
        assert out == "" and "cannot place 9 distinct finite points" in err

    def test_ef_on_tree(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        run_cli(capsys, "generate", "tree", "-n", "5", "--seed", "4",
                "--concave", "-o", str(path))
        code, out, _ = run_cli(capsys, "solve", str(path), "--engine", "ef-dpop")
        assert code == 0
        report = json.loads(out)
        assert report["utility"] >= report["bounds"]["error_bound_discrete"] * -1


class TestBench:
    def test_csv_shape_and_aggregates(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code, msg, _ = run_cli(capsys, "bench", "--kind", "tree", "-n", "5",
                               "--engines", "dpop,hcms", "--seeds", "3",
                               "-o", str(out))
        assert code == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 3
        assert set(rows[0]) == set(cli.ROW_FIELDS)
        for row in rows:
            assert row["status"] == "ok"
            assert row["messages"] == "10" if row["engine"] == "dpop" else True
        agg = tmp_path / "bench-agg.csv"
        with agg.open() as fh:
            agg_rows = list(csv.DictReader(fh))
        assert len(agg_rows) == 2
        for row in agg_rows:
            assert row["completed"] == "3"

    def test_unknown_engine(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "bench", "--engines", "zen",
                               "-o", str(tmp_path / "x.csv"))
        assert code == cli.EXIT_INVALID

    def test_out_in_missing_directory(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli.runtime, "run", must_not_run)
        out = tmp_path / "missing" / "bench.csv"
        code, _, err = run_cli(capsys, "bench", "-n", "4", "--seeds", "1", "-o", str(out))
        assert code == cli.EXIT_INVALID
        assert err.strip() == f"cannot write {out}"


class TestVerify:
    def test_passes_on_small_tree(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        run_cli(capsys, "generate", "tree", "-n", "5", "--seed", "1",
                "--concave", "-o", str(path))
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 0
        assert "all" in out and "passed" in out

    def test_passes_on_small_graph(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        run_cli(capsys, "generate", "graph", "-n", "6", "--p1", "0.3",
                "--seed", "2", "--concave", "-o", str(path))
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 0

    def test_rejects_large_instance(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        run_cli(capsys, "generate", "tree", "-n", "9", "-o", str(path))
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == cli.EXIT_INVALID


class TestEngineError:
    """Any library error that has no exit code of its own exits 5."""

    @pytest.fixture
    def nan_dpop(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "p.json"
        run_cli(capsys, "generate", "tree", "-n", "5", "--seed", "1", "-o", str(path))
        monkeypatch.setattr(discrete, "run",
                            lambda contexts, *args: ({v: float("nan") for v in contexts}, 0.0))
        return path

    def test_solve(self, nan_dpop, capsys):
        code, out, err = run_cli(capsys, "solve", str(nan_dpop), "--engine", "dpop")
        assert code == cli.EXIT_ENGINE == 5
        assert out == ""
        assert err.startswith("engine error: dpop: value nan of x000")

    def test_verify(self, nan_dpop, capsys):
        code, _, err = run_cli(capsys, "verify", str(nan_dpop))
        assert code == cli.EXIT_ENGINE
        assert err.startswith("engine error: dpop:")

    def test_bench(self, nan_dpop, tmp_path, capsys):
        code, _, err = run_cli(capsys, "bench", "-n", "4", "--engines", "dpop",
                               "--seeds", "1", "-o", str(tmp_path / "b.csv"))
        assert code == cli.EXIT_ENGINE
        assert err.startswith("engine error: dpop:")
