"""No module of the package or of tools/ imports a name it never uses,
no private name the package defines goes unused by the package, and
every public value type checks what it is built from.

A name listed in the module's ``__all__`` counts as used: the module
imports it to export it.
"""

import ast
import dataclasses
import pathlib

import pytest

import rankfill

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = sorted(ROOT.glob("src/rankfill/*.py"))
MODULES = sorted([*PACKAGE, *ROOT.glob("tools/*.py")])


def unused_imports(source):
    """Names that ``source`` imports at any level and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``.
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_the_check_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom a import b, c\n__all__ = ['c']\nnp.pi\n"
    assert unused_imports(source) == ["b", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def unreferenced_private_names(sources):
    """``module.name`` for each module-level ``_name`` (dunders aside) that
    ``sources``, a dict of module name to source, define and never read."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            found += [f"{module}.{name}" for name in names
                      if name.startswith("_") and not name.startswith("__") and name not in read]
    return sorted(found)


def test_the_check_finds_an_unreferenced_private_name():
    sources = {
        "a": "_KEPT = 1\n_LEFT = 2\n__all__ = []\ndef _helper():\n    return _KEPT\n",
        "b": "from .a import _helper\nclass _Unused:\n    pass\n",
    }
    assert unreferenced_private_names(sources) == ["a._LEFT", "b._Unused"]


def test_every_private_name_is_used_by_the_package():
    # Uses in tests and tools do not count: a helper only they call is
    # not part of the program.
    sources = {path.stem: path.read_text() for path in PACKAGE}
    assert unreferenced_private_names(sources) == []


# Built by perfbench's workloads as ``rf.AnsatzParams(u=..., v=..., M=...)``,
# so it stays until the benchmark stops constructing it.
UNCHECKED_VALUE_TYPES = {"AnsatzParams"}


def test_every_public_value_type_checks_something():
    # A dataclass that checks nothing only restates what its caller has:
    # the caller can read the values themselves.
    unchecked = sorted(
        name for name in rankfill.__all__
        if dataclasses.is_dataclass(getattr(rankfill, name))
        and "__post_init__" not in vars(getattr(rankfill, name)))
    assert unchecked == sorted(UNCHECKED_VALUE_TYPES)
