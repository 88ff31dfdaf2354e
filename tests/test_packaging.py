"""The package declares exactly the third-party modules its source imports,
defines nothing that only its tests use, and clamps in one module."""
import ast
import collections
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
