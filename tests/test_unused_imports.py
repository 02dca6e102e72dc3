"""Every name a module under src/abctrans/ imports is used in that module.

No linter ships with the test environment, so this stdlib-ast check stands in
for the unused-import rule. ``__init__.py`` is exempt: its imports are the
package's exports.
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
