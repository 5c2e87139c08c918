"""Source checks of the package modules, with the standard library only."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "nvcr"
MODULES = sorted(SRC.glob("*.py"))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert _unused_imports(_parse(path)) == []


def test_unused_import_is_caught():
    tree = ast.parse("import os\nfrom math import pi, tau\n"
                     "__all__ = ['tau']\nprint(os.sep)\n")
    assert _unused_imports(tree) == ["pi (line 2)"]


def _unread_private_names(tree: ast.Module) -> list[str]:
    """Module-level functions, classes and assignments named ``_x`` that
    the module never reads."""
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            bound.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            bound += [(n.id, node.lineno) for n in ast.walk(node)
                      if isinstance(n, ast.Name)
                      and isinstance(n.ctx, ast.Store)]
    return [f"{name} (line {line})" for name, line in bound
            if name.startswith("_") and not name.endswith("__")
            and name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_name_is_read_in_its_module(path):
    assert _unread_private_names(_parse(path)) == []


def test_unread_private_name_is_caught():
    tree = ast.parse("_A = 1\n_B: int = _A\ndef _f():\n    return _C\n"
                     "class _C:\n    pass\n__all__ = []\n")
    assert _unread_private_names(tree) == ["_B (line 2)", "_f (line 3)"]


# what the tests directory provides: its package name and each module
_TEST_CODE = {"tests", *(p.stem for p in TESTS.glob("*.py"))}


def _absolute_imports(tree: ast.Module) -> set[str]:
    """Top-level names of the modules imported anywhere in ``tree``,
    relative imports left out."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_package_imports_no_test_code(path):
    assert _absolute_imports(_parse(path)) & _TEST_CODE == set()


def test_test_code_import_is_caught():
    tree = ast.parse("import numpy as np\nfrom . import geometry\n"
                     "def f():\n    from reference import swap\n"
                     "    import tests.conftest\n")
    assert _absolute_imports(tree) & _TEST_CODE == {"reference", "tests"}


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


# where a public name may be read: the package and everything that uses it
_READERS = [p for d in ("src", "tests", "demos", "bench")
            for p in sorted((TESTS.parent / d).rglob("*.py"))]


def _read_names(tree: ast.Module) -> set[str]:
    """Every name ``tree`` loads, directly or as an attribute."""
    return {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)} | \
        {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}


def _unread_exports(table: dict, readers, package: Path = SRC) -> list[str]:
    """The names of ``table`` (module -> exports) that no reader file
    loads outside their own module and ``package``'s ``__init__``."""
    read = {path: _read_names(_parse(path)) for path in readers}
    return [f"{module}.{name}" for module, names in table.items()
            for name in names
            if not any(name in found for path, found in read.items()
                       if path not in (package / f"{module}.py",
                                       package / "__init__.py"))]


def test_every_export_is_read_outside_its_module():
    table = _assigned(_parse(SRC / "__init__.py"), "_SUBMODULES")
    assert _unread_exports(table, _READERS) == []


def test_unread_export_is_caught(tmp_path):
    (tmp_path / "__init__.py").write_text("_SUBMODULES = {'mod': ('f', 'g')}\n")
    (tmp_path / "mod.py").write_text(
        "def f():\n    return g()\ndef g():\n    return 1\n")
    (tmp_path / "user.py").write_text("import mod\nprint(mod.f())\n")
    assert _unread_exports({"mod": ("f", "g")}, sorted(tmp_path.glob("*.py")),
                           tmp_path) == ["mod.g"]
