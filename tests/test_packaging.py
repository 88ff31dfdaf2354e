"""The package declares exactly the third-party modules its source imports."""
import ast
import re
import sys
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
