"""Source hygiene of the library, read with ast alone.

In every module of the package but __init__.py, each imported name is
used or listed in __all__, and each private module-level function or
class is referenced somewhere in the library or the tests.  A deleted
caller that leaves its import or its helper behind fails here.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "padic_ramlab"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {ast.literal_eval(elt) for elt in node.value.elts}
    return set()


def _references(tree):
    """Every name the tree reads, as a bare name, an attribute or an import."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_used_or_exported(path):
    tree = _tree(path)
    imported = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used - _exported(tree)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_private_definition_is_referenced(path):
    private = {node.name for node in _tree(path).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")}
    referenced = set()
    for source in [*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py")]:
        referenced |= _references(_tree(source))
    assert sorted(private - referenced) == []


@pytest.mark.parametrize("path", sorted((ROOT / "src").rglob("*.py")),
                         ids=lambda path: str(path.relative_to(ROOT / "src")))
def test_every_source_file_parses_at_the_declared_python_floor(path):
    # pyproject.toml declares requires-python >= 3.10
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
