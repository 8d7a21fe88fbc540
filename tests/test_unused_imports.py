"""Every name a module imports is read in that module.

This test reads the source: for each module under tests/ and each module
of the package but its __init__ (whose imports are the public API), it
collects the names its import statements bind (`import a.b` binds `a`)
and fails on any that no expression of the module reads.  An unread
import keeps dead coupling to the API it names, so moving or deleting
that API breaks modules that never used it.
"""

import ast
from pathlib import Path

import tambara

TESTS = Path(__file__).parent
PACKAGE = Path(tambara.__file__).parent


def _unread_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_unread_imports_are_found():
    source = "import os\nimport numpy as np\nfrom json import dumps, loads\nx = np.zeros(loads('1'))\n"
    assert _unread_imports(source) == [(1, "os"), (3, "dumps")]


def _unread(paths) -> list:
    return [f"{path.name}:{line} {name}"
            for path in sorted(paths) for line, name in _unread_imports(path.read_text())]


def test_no_test_module_imports_a_name_it_never_reads():
    assert _unread(TESTS.glob("*.py")) == []


def test_no_package_module_imports_a_name_it_never_reads():
    assert _unread(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py") == []
