"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "crowdprice"


def unused_imports(tree: ast.Module) -> dict[str, int]:
    """Names bound by the module's imports and never loaded, with their line
    numbers; names listed literally in ``__all__`` (re-exports) and
    ``from __future__`` imports are left out."""
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in exported and name not in used:
                    unused[name] = node.lineno
    return unused


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level private names (``_x``, not dunder) that the module
    defines by ``def``, ``class`` or assignment, with their line numbers."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                defined[name] = node.lineno
    return defined


def referenced_names(tree: ast.Module) -> set[str]:
    """Names the module reads: loaded names, attributes and imported names
    (a definition or an assignment is not a reference)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_no_orphaned_private_helpers():
    """Every module-level private name of the package is read somewhere in
    the package, so a refactor leaves no dead helper behind."""
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))}
    read = set().union(*(referenced_names(tree) for tree in trees.values()))
    orphans = {
        f"{module}:{line} {name}"
        for module, tree in trees.items()
        for name, line in private_definitions(tree).items()
        if name not in read
    }
    assert not orphans, f"private names defined and never read: {sorted(orphans)}"
