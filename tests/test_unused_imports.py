"""Every name a module under src/abctrans/ imports or defines privately is used there.

No linter ships with the test environment, so these stdlib-ast checks stand
in for the unused-import and unused-private-name rules. ``__init__.py`` is
exempt from the import rule: its imports are the package's exports. A
private (``_``-prefixed) module-level function, class or constant is
module-internal by convention, so a use elsewhere does not count: it must be
read in its own module, outside its own definition.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "abctrans"

# perfbench/run.py wraps agent.expected_free_energy, so the name must exist there.
KEPT = {("agent", "expected_free_energy")}


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import statement, with its line number."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere, quoted annotations such as -> "Categorical" included."""
    nodes = list(ast.walk(tree))
    for node in list(nodes):
        annotation = getattr(node, "returns", None) or getattr(node, "annotation", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            nodes.extend(ast.walk(ast.parse(annotation.value, mode="eval")))
    return {node.id for node in nodes if isinstance(node, ast.Name)}


MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = sorted(
        f"{name} (line {line})"
        for name, line in imported_names(tree).items()
        if name not in used and (path.stem, name) not in KEPT
    )
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_every_listed_exception_is_still_imported():
    for module, name in KEPT:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        assert name in imported_names(tree)


def private_definitions(tree: ast.Module) -> dict[str, ast.AST]:
    """Module-level _-prefixed (not dunder) functions, classes and assigned names."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defs[name] = node
    return defs


def names_read_outside(tree: ast.Module, skip: ast.AST) -> set[str]:
    """Names loaded anywhere in the module except inside the node skip."""
    inside = set(map(id, ast.walk(skip)))
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and id(node) not in inside
    }


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_reads_every_private_name_it_defines(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unread = sorted(
        f"{name} (line {node.lineno})"
        for name, node in private_definitions(tree).items()
        if name not in names_read_outside(tree, node)
    )
    assert not unread, f"{path.name} defines private names it never reads: {', '.join(unread)}"
