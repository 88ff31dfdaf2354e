"""Command-line interface: exit codes, reports, benchmark CSVs."""
import contextlib
import csv
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from fdcop import cli, generators, model
from fdcop.engines import afdpop, discrete, efdpop, hcms
from fdcop.runtime import EngineConfig

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

    @pytest.mark.parametrize("engine", model.ENGINE_KINDS)
    def test_problem_without_variables(self, tmp_path, capsys, engine):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"agents": [], "variables": [], "constraints": []}))
        code, out, err = run_cli(capsys, "solve", str(path), "--engine", engine)
        assert code == cli.EXIT_INVALID
        assert out == "" and err.startswith("invalid input: ")

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

    def test_overflowing_utilities(self, tmp_path, capsys, monkeypatch):
        # gen_graph(6, 0.5, seed=1) with its domains widened to +-1e200, where
        # every utility overflows; refused when the file is read
        doc = model.problem_to_dict(generators.gen_graph(6, 0.5, seed=1))
        for entry in doc["variables"]:
            entry["lb"], entry["ub"] = -1e200, 1e200
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        for module in (discrete, efdpop, afdpop, hcms):
            monkeypatch.setattr(module, "run", must_not_run)
        code, out, err = run_cli(capsys, "solve", str(path), "--engine", "hcms")
        assert code == cli.EXIT_INVALID
        assert out == ""
        assert err.startswith("invalid input: utility over ['x000', ")
        assert "overflows the float range on its domains" in err

    def test_ef_on_tree(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        run_cli(capsys, "generate", "tree", "-n", "5", "--seed", "4",
                "--concave", "-o", str(path))
        code, out, _ = run_cli(capsys, "solve", str(path), "--engine", "ef-dpop")
        assert code == 0
        report = json.loads(out)
        assert report["utility"] >= report["bounds"]["error_bound_discrete"] * -1

    @staticmethod
    def strict_bounds(capsys, path, *argv):
        """The report's bounds, parsed as strict JSON."""
        code, out, _ = run_cli(capsys, "solve", str(path), "--engine", "ef-dpop", *argv)
        assert code == cli.EXIT_OK

        def refuse(constant):
            pytest.fail(f"the report holds {constant}, which strict JSON refuses")

        return json.loads(out, parse_constant=refuse)["bounds"]

    def test_overflowing_af_bound_is_null(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        run_cli(capsys, "generate", "tree", "-n", "5", "-o", str(path))
        bounds = self.strict_bounds(capsys, path, "--alpha", "1e300")
        assert bounds["error_bound_af"] is None
        assert None not in (bounds["hypercube_m"], bounds["error_bound_discrete"])

    def test_overflowing_domain_width_is_null(self, tmp_path, capsys):
        # a width of 2e308 overflows; tiny linear terms keep validate's bound finite
        doc = model.problem_to_dict(generators.gen_tree(3, 0))
        for entry in doc["variables"]:
            entry["lb"], entry["ub"] = -1e308, 1e308
        for entry in doc["constraints"]:
            entry["coeffs"] = [0.0, 1e-10, 0.0, 1e-10, 0.0, 0.0]
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        bounds = self.strict_bounds(capsys, path)
        assert bounds["hypercube_m"] is bounds["error_bound_discrete"] \
            is bounds["error_bound_af"] is None


# gen_graph(5, 0.5, seed=1) as a problem file, and the leaf and container
# paths into it that the tests below edit
CONTRACT_DOC = model.problem_to_dict(generators.gen_graph(5, 0.5, seed=1))


def doc_paths(node, path=()):
    yield path
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from doc_paths(child, path + (key,))


def edited(doc, path, value):
    """A copy of `doc` with the field at `path` set to `value`, or dropped
    for DROP; `doc` itself when the path no longer leads anywhere."""
    if not path:
        return {} if value is DROP else value
    doc = json.loads(json.dumps(doc))
    node = doc
    try:
        for key in path[:-1]:
            node = node[key]
        if value is DROP:
            del node[path[-1]]
        else:
            node[path[-1]] = value
    except (KeyError, IndexError, TypeError):
        pass
    return doc


DROP = object()


class TestProblemFileContract:
    """Every problem file ends in a report or a typed refusal: ids, agents
    and scope entries are strings, and bounds and coefficients are JSON
    numbers that are finite as floats."""

    @pytest.mark.parametrize("path, value, message", [
        (("variables", 0, "agent"), 1, "an agent must be a str, got 1"),
        (("variables", 0, "id"), 7, "a variable id must be a str, got 7"),
        (("constraints", 0, "scope", 0), ["x000"], "a scope entry must be a str, got ['x000']"),
        (("variables", 0, "lb"), 10**400, "a bound must be a finite number, got 1000"),
        (("constraints", 0, "coeffs", 0), 10**400, "a coefficient must be a finite number"),
        (("variables", 0, "ub"), True, "a bound must be a finite number, got True"),
        (("agents",), "a000", "agents must be a list, got 'a000'"),
        (("constraints", 0, "scope"), "x000", "a scope must be a list, got 'x000'"),
    ], ids=["int-agent", "int-id", "list-scope-entry", "huge-bound", "huge-coefficient",
            "bool-bound", "string-agents", "string-scope"])
    def test_field_of_the_wrong_type(self, tmp_path, capsys, monkeypatch, path, value,
                                     message):
        file = tmp_path / "p.json"
        file.write_text(json.dumps(edited(CONTRACT_DOC, path, value)))
        monkeypatch.setattr(cli.runtime, "run", must_not_run)
        code, out, err = run_cli(capsys, "solve", str(file))
        assert code == cli.EXIT_INVALID
        assert out == "" and err.startswith(f"invalid input: {message}")

    @pytest.mark.parametrize("text", ["[1" + "0" * 5000 + "]", "[" * 100_000],
                             ids=["int-beyond-the-digit-limit", "deep-nesting"])
    def test_json_python_cannot_hold(self, tmp_path, capsys, text):
        file = tmp_path / "p.json"
        file.write_text(text)
        code, out, err = run_cli(capsys, "solve", str(file))
        assert code == cli.EXIT_INVALID
        assert out == "" and err.startswith("invalid input: problem file is not JSON")

    SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(-10**400, 10**400)
               | st.floats() | st.text(max_size=4)
               | st.sampled_from(["x000", "x001", "x004", "a000", "a003"]))
    # half of the edits set a plausible number, so that some edited files
    # still validate and run; a quarter drop the field
    VALUES = st.one_of(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.just(DROP), st.recursive(
        SCALARS, lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=4))

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(edits=st.lists(st.tuples(st.sampled_from(list(doc_paths(CONTRACT_DOC))), VALUES),
                          min_size=1, max_size=3),
           engine=st.sampled_from(model.ENGINE_KINDS))
    def test_fuzzed_files_end_in_a_documented_exit(self, tmp_path_factory, edits, engine):
        doc = CONTRACT_DOC
        for path, value in edits:
            doc = edited(doc, path, value)
        file = tmp_path_factory.getbasetemp() / "fuzzed.json"
        file.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["solve", str(file), "--engine", engine])
        assert code in (cli.EXIT_OK, cli.EXIT_INVALID, cli.EXIT_CAPACITY, cli.EXIT_ENGINE)


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

    @pytest.mark.parametrize("flag, value", [("-n", "abc"), ("-d", "x"), ("--moves", "1.5")])
    def test_non_integer_list(self, tmp_path, capsys, monkeypatch, flag, value):
        monkeypatch.setattr(cli.runtime, "run", must_not_run)
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["bench", flag, value, "-o", str(tmp_path / "b.csv")])
        err = capsys.readouterr().err
        assert exit_info.value.code == cli.EXIT_INVALID
        assert err.startswith("usage:")
        assert f"expected comma-separated integers, got {value!r}" in err

    @pytest.mark.parametrize("flag, value, message", [
        ("--seeds", "0", "bench --seeds must be at least 1, got 0"),
        ("--seeds", "-1", "bench --seeds must be at least 1, got -1"),
        ("-n", ",", "bench -n lists no values"),
        ("-d", ",", "bench -d lists no values"),
        ("--moves", ",", "bench --moves lists no values"),
        ("--engines", ",", "bench --engines lists no values"),
    ])
    def test_empty_matrix(self, tmp_path, capsys, monkeypatch, flag, value, message):
        monkeypatch.setattr(cli, "_bench_cell", must_not_run)
        out = tmp_path / "bench.csv"
        code, stdout, err = run_cli(capsys, "bench", "-n", "4", flag, value, "-o", str(out))
        assert code == cli.EXIT_INVALID
        assert stdout == "" and err.strip() == f"invalid input: {message}"
        assert list(tmp_path.iterdir()) == []

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
        assert "PASS  ef-dpop exactness: reported" in out

    def test_ef_dpop_exactness_negative_control(self, tmp_path, capsys, monkeypatch):
        # every variable at its lower bound: the reported optimum no longer
        # matches the assignment's utility
        path = tmp_path / "p.json"
        run_cli(capsys, "generate", "tree", "-n", "5", "--seed", "1",
                "--concave", "-o", str(path))
        run = efdpop.run

        def at_lower_bounds(contexts, *args):
            _, optimum = run(contexts, *args)
            return {v: ctx.own_domain().lb for v, ctx in contexts.items()}, optimum

        monkeypatch.setattr(efdpop, "run", at_lower_bounds)
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == cli.EXIT_VERIFY
        assert "FAIL  ef-dpop exactness" in out

    def test_passes_on_small_graph(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        run_cli(capsys, "generate", "graph", "-n", "6", "--p1", "0.3",
                "--seed", "2", "--concave", "-o", str(path))
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 0

    def test_oracle_capacity_refusal(self, tmp_path, capsys, monkeypatch):
        # a complete graph on 6 variables: the 200-point grid oracle would
        # build a 200^6-cell factor
        path = tmp_path / "p.json"
        model.save(generators.gen_graph(6, 1.0, 0), path)

        def engine_ran(*args, **kwargs):
            pytest.fail("an engine ran before the oracle's capacity refusal")

        monkeypatch.setattr(cli.runtime, "run", engine_ran)
        code, out, err = run_cli(capsys, "verify", str(path))
        assert code == cli.EXIT_CAPACITY == 3
        assert out == ""
        assert err.startswith("capacity exceeded: elimination would build a "
                              "64000000000000-cell factor")

    def test_rejects_large_instance(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        run_cli(capsys, "generate", "tree", "-n", "9", "-o", str(path))
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == cli.EXIT_INVALID


class TestEngineFlagDefaults:
    """The engine flags restate `EngineConfig`'s defaults."""

    def test_solve(self):
        args = cli.build_parser().parse_args(["solve", "p.json"])
        assert cli._config_from_args(args) == EngineConfig()

    def test_bench(self):
        args = cli.build_parser().parse_args(["bench", "-o", "b.csv"])
        default = EngineConfig()
        assert (args.d, args.moves, args.alpha, args.clusters, args.iters, args.interp) == (
            [default.points], [default.moves], default.alpha, default.k_clusters,
            default.iterations, default.interpolation)


class TestEngineError:
    """Any library error that has no exit code of its own exits 5; a problem
    whose utilities may overflow is refused as invalid input before that."""

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

    def test_ef_dpop_overflow(self, tmp_path, capsys, monkeypatch):
        # each utility is finite, but their sum, the optimum, is not: an
        # invalid input, refused when the file is read
        doc = model.problem_to_dict(make_problem([quad("x", "y", f0=1e308), quad("y", "z")]))
        doc["constraints"][1]["coeffs"][5] = 1e308
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        monkeypatch.setattr(efdpop, "run", must_not_run)
        code, out, err = run_cli(capsys, "solve", str(path), "--engine", "ef-dpop")
        assert code == cli.EXIT_INVALID
        assert out == ""
        assert err.startswith("invalid input: the utilities' sum overflows the float range")

    def test_bench(self, nan_dpop, tmp_path, capsys):
        code, _, err = run_cli(capsys, "bench", "-n", "4", "--engines", "dpop",
                               "--seeds", "1", "-o", str(tmp_path / "b.csv"))
        assert code == cli.EXIT_ENGINE
        assert err.startswith("engine error: dpop:")
