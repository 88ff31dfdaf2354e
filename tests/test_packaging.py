"""The package declares exactly the third-party modules its source imports,
defines nothing that only its tests use, clamps in one module, reads a
utility's coefficients in one class, interpolates in one function, takes
squared distances in one function, computes UTIL tables by heights in one
function, plans without a walk of its own, keeps an af/caf agent in one
record, and has every name its README cites."""
import ast
import collections
import importlib
import re
import sys
import tokenize
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent


def third_party_imports(package: Path) -> set[str]:
    """Top-level names of the absolute imports under `package` that are
    neither the standard library nor the package itself."""
    names = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {package.name}


def test_imports_equal_dependencies():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        dependencies = tomllib.load(fh)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", spec).group(0) for spec in dependencies}
    assert third_party_imports(ROOT / "src" / "fdcop") == declared


def name_counts(paths, with_strings: bool) -> collections.Counter:
    """NAME tokens in `paths`; with `with_strings`, also the string literals
    that are identifiers, such as the attribute names a wrapper patches."""
    counts = collections.Counter()
    for path in paths:
        with tokenize.open(path) as fh:
            for tok in tokenize.generate_tokens(fh.readline):
                if tok.type == tokenize.NAME:
                    counts[tok.string] += 1
                elif with_strings and tok.type == tokenize.STRING:
                    quoted = re.fullmatch(r"""(['"])(\w+)\1""", tok.string)
                    if quoted:
                        counts[quoted.group(2)] += 1
    return counts


def test_every_library_name_is_used_outside_tests():
    """Every function, method and class the library defines is named again
    by the library or the benchmark, apart from its own definitions."""
    library = sorted((ROOT / "src" / "fdcop").rglob("*.py"))
    definitions = collections.Counter(
        node.name for path in library for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))
    uses = (name_counts(library, with_strings=False)
            + name_counts(sorted((ROOT / "perfbench").glob("*.py")), with_strings=True))
    unused = sorted(name for name, n in definitions.items()
                    if not (name.startswith("__") and name.endswith("__"))
                    and uses[name] <= n)
    assert unused == []


def test_only_common_spells_a_clamp():
    """Every engine clamps through `common.clamp`, and every gradient step
    through `common.clamped_step`, so that one rule decides ties such as
    0.0 against a -0.0 bound; no other engine module spells a numpy clamp."""
    clamp = re.compile(r"np\.(fmin|fmax|clip)\b|np\.minimum\(\s*np\.maximum")
    engines = sorted((ROOT / "src" / "fdcop" / "engines").glob("*.py"))
    assert "common.py" in [path.name for path in engines]
    spelled = [f"{path.name}:{n}" for path in engines if path.name != "common.py"
               for n, line in enumerate(path.read_text().splitlines(), 1) if clamp.search(line)]
    assert spelled == []


def test_one_squared_distance_kernel():
    """Every squared distance of the engines is `afdpop._squared_distances`,
    which adds each column's square in turn below 8 columns; no other
    function spells a difference squared and summed, which builds a
    (rows x rows x width) temporary."""
    summed = re.compile(r"\*\*\s*2\s*\)\s*\.sum\(")
    spelled = []
    for path in sorted((ROOT / "src" / "fdcop" / "engines").glob("*.py")):
        text = path.read_text()
        kernel = [range(node.lineno, node.end_lineno + 1) for node in ast.parse(text).body
                  if isinstance(node, ast.FunctionDef) and node.name == "_squared_distances"]
        spelled += [f"{path.name}:{n}" for n, line in enumerate(text.splitlines(), 1)
                    if summed.search(line) and not any(n in lines for lines in kernel)]
    assert spelled == []
    module = ast.parse((ROOT / "src" / "fdcop" / "engines" / "afdpop.py").read_text())
    assert set(referrers(module, "_squared_distances")) == {"_interp_batch", "cluster_tuples"}


def test_only_model_reads_coefficients():
    """`model.QuadraticBinaryUtility` is the one owner of its coefficient
    layout: every other module reads a utility through `oriented`,
    `polynomial`, `evaluate` or `coeffs`, never by `coeff_a`..`coeff_f0`."""
    names = {f"coeff_{c}" for c in ("a", "b", "c", "d", "e", "f0")}
    reads = [f"{path.name}:{node.lineno}"
             for path in sorted((ROOT / "src" / "fdcop").rglob("*.py")) if path.name != "model.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr in names]
    assert reads == []


def referrers(tree: ast.AST, name: str, owner: str | None = None, where: str = "<module>"):
    """The innermost function around each reference to `name` in `tree`, by
    its name, or `<module>` outside any. A reference is the bare name or an
    attribute `.name`; given an `owner`, only `owner.name` counts of the
    attributes."""
    if isinstance(tree, (ast.FunctionDef, ast.AsyncFunctionDef)):
        where = tree.name
    if (isinstance(tree, ast.Name) and tree.id == name
            or isinstance(tree, ast.Attribute) and tree.attr == name
            and (owner is None or isinstance(tree.value, ast.Name) and tree.value.id == owner)):
        yield where
    for child in ast.iter_child_nodes(tree):
        yield from referrers(child, name, owner, where)


def test_only_lookups_interpolates():
    """Every table lookup of the engines runs through `afdpop._lookups`, the
    one path that reads the row index and interpolates the missing queries;
    no other function calls or passes on `_interp_batch`."""
    engines = sorted((ROOT / "src" / "fdcop" / "engines").glob("*.py"))
    found = [f"{path.stem}.{where}" for path in engines
             for where in referrers(ast.parse(path.read_text()), "_interp_batch")]
    assert found == ["afdpop._lookups"]


def test_every_engine_joins_through_joined():
    """`common.join`, the one max-plus projection, is referred to in the
    engines only by `common.joined`, which takes no reduction of its own:
    every engine gets each row's first maximum and its utility, never a
    sum's (rows x candidates) cells. A string's `join` is no reference."""
    engines = sorted((ROOT / "src" / "fdcop" / "engines").glob("*.py"))
    found = [f"{path.stem}.{where}" for path in engines
             for where in referrers(ast.parse(path.read_text()), "join", "common")]
    assert found and set(found) == {"common.joined"}
    imported = [path.stem for path in engines for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ImportFrom) and "join" in {a.name for a in node.names}]
    assert imported == []
    module = ast.parse((ROOT / "src" / "fdcop" / "engines" / "common.py").read_text())
    [joined] = [node for node in module.body
                if isinstance(node, ast.FunctionDef) and node.name == "joined"]
    assert [a.arg for a in joined.args.args] == ["sums", "row_cap"]


def test_one_util_schedule():
    """`common.computed_ahead` is the one UTIL schedule by heights of the
    DPOP family: no other engine function raises its refusal of a payload
    other than the table an agent was computed from, and dpop and af/caf
    both run on it."""
    engines = sorted((ROOT / "src" / "fdcop" / "engines").glob("*.py"))
    raising, naming = [], []
    for path in engines:
        module = ast.parse(path.read_text())
        for top in module.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Raise) and any(
                        isinstance(c, ast.Constant) and "computed from other tables" in str(c.value)
                        for c in ast.walk(node)):
                    raising.append(f"{path.stem}.{getattr(top, 'name', '<module>')}")
        naming += [f"{path.stem}.{where}" for where in referrers(module, "computed_ahead")]
    assert raising == ["common.computed_ahead"]
    assert {"discrete.run", "afdpop.run"} <= set(naming)


def test_leaves_move_on_the_util_schedule():
    """A closed-form leaf moves in `util_steps`, on the UTIL schedule by
    heights, as every other agent does; and `agent_util` is the one place
    the library builds an agent's `Step`."""
    engines = sorted((ROOT / "src" / "fdcop" / "engines").glob("*.py"))
    assert [f"{path.stem}.{where}" for path in engines
            for where in referrers(ast.parse(path.read_text()), "leaf_move")] == [
        "afdpop.util_steps"]
    library = sorted((ROOT / "src" / "fdcop").rglob("*.py"))
    assert [f"{path.stem}.{where}" for path in library
            for where in callers(ast.parse(path.read_text()), "Step")] == ["afdpop.agent_util"]


def test_one_record_per_af_agent():
    """An af/caf agent's UTIL step and what its VALUE rule reads are one
    record, `afdpop.Step`: the module defines no other `NamedTuple`."""
    module = ast.parse((ROOT / "src" / "fdcop" / "engines" / "afdpop.py").read_text())
    records = [node.name for node in ast.walk(module) if isinstance(node, ast.ClassDef)
               and any(getattr(base, "id", getattr(base, "attr", None)) == "NamedTuple"
                       for base in node.bases)]
    assert records == ["Step"]


def callers(tree: ast.AST, name: str, where: str = "<module>"):
    """The innermost function around each call `name(...)` in `tree`."""
    if isinstance(tree, (ast.FunctionDef, ast.AsyncFunctionDef)):
        where = tree.name
    if isinstance(tree, ast.Call) and isinstance(tree.func, ast.Name) and tree.func.id == name:
        yield where
    for child in ast.iter_child_nodes(tree):
        yield from callers(child, name, where)


def test_plan_util_only_plans():
    """`common.plan_util` makes and keeps each agent's plan when first asked
    for. The walk before the first message is the engine's (af/caf's is
    `afdpop._sure_to_finish`), so `plan_util` has no loop statement and no
    parameter but the inputs of a plan."""
    module = ast.parse((ROOT / "src" / "fdcop" / "engines" / "common.py").read_text())
    [plan_util] = [node for node in module.body
                   if isinstance(node, ast.FunctionDef) and node.name == "plan_util"]
    args = plan_util.args
    assert [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs] == [
        "contexts", "tree", "d", "row_cap", "grid_tables"]
    assert args.vararg is None and args.kwarg is None
    assert [node.lineno for node in ast.walk(plan_util)
            if isinstance(node, (ast.For, ast.AsyncFor, ast.While))] == []


def resolve(dotted: str):
    """The object a dotted name such as `fdcop.engines.afdpop.score` names,
    importing its modules on the way; AttributeError or ImportError when
    there is none."""
    parts = dotted.split(".")
    found = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 2):
        try:
            found = getattr(found, part)
        except AttributeError:
            found = importlib.import_module(".".join(parts[:i]))
    return found


def test_readme_names_resolve():
    """Every backticked dotted name in README.md that starts with `fdcop.`
    or `engines.` (short for `fdcop.engines.`) names a module attribute, so
    a rename cannot leave the README citing a name that is gone."""
    names = re.findall(r"`((?:fdcop|engines)(?:\.\w+)+)`", (ROOT / "README.md").read_text())
    assert len(names) >= 12
    unresolved = []
    for name in names:
        try:
            resolve("fdcop." + name if name.startswith("engines.") else name)
        except (AttributeError, ImportError):
            unresolved.append(name)
    assert unresolved == []
