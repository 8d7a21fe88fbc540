"""No module but `groups` reads the private state of a group or subgroup.

`FiniteGroup` and `Subgroup` answer every subgroup question through public
methods keyed by element mask (README, "Subgroups by element mask"); their
single-underscore attributes are the index behind those methods.  This
test reads the source: it collects the single-underscore names that
`groups.py` defines on the two classes (methods, cached properties and
attributes set on self) and fails on any other module of the package that
reads one of them on an object other than `self`.
"""

import ast
from pathlib import Path

import tambara

PACKAGE = Path(tambara.__file__).parent
CLASSES = ("FiniteGroup", "Subgroup")


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private_names() -> set:
    tree = ast.parse((PACKAGE / "groups.py").read_text())
    names = set()
    for cls in tree.body:
        if not (isinstance(cls, ast.ClassDef) and cls.name in CLASSES):
            continue
        for node in ast.walk(cls):
            if isinstance(node, ast.FunctionDef) and _private(node.name):
                names.add(node.name)
            elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                  and isinstance(node.value, ast.Name) and node.value.id == "self"
                  and _private(node.attr)):
                names.add(node.attr)
    return names


def test_private_names_are_found():
    names = _private_names()
    assert {"_subgroups", "_conjugates", "_validate"} <= names


def test_no_module_reads_private_group_state():
    names = _private_names()
    reads = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "groups.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr in names
                    and not (isinstance(node.value, ast.Name) and node.value.id == "self")):
                reads.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert reads == []
