"""Source checks of the package modules, with the standard library only."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "nvcr"


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by module-level imports that the module never reads
    and does not list in ``__all__``."""
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported |= {c.value for c in ast.walk(node.value)
                         if isinstance(c, ast.Constant)
                         and isinstance(c.value, str)}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name.partition(".")[0], node.lineno)
                      for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(a.asname or a.name, node.lineno) for a in node.names]
    return [f"{name} (line {line})" for name, line in bound
            if name not in read and name not in exported]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unused_imports(tree) == []


def test_unused_import_is_caught():
    tree = ast.parse("import os\nfrom math import pi, tau\n"
                     "__all__ = ['tau']\nprint(os.sep)\n")
    assert _unused_imports(tree) == ["pi (line 2)"]


def _assigned(tree: ast.Module, name: str):
    """The literal value bound to ``name`` at module level, or None."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name
                for t in node.targets):
            return ast.literal_eval(node.value)
    return None


def test_each_export_list_matches_the_package_table():
    init = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    table = _assigned(init, "_SUBMODULES")
    for module, names in table.items():
        tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
        exported = _assigned(tree, "__all__")
        assert exported is not None, f"{module} has no __all__"
        assert sorted(exported) == sorted(names), module
