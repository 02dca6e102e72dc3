"""Every name a module under src/abctrans/ imports, defines privately or binds locally is used there.

No linter ships with the test environment, so these stdlib-ast checks stand
in for the unused-import, unused-private-name and unused-local rules, and
for a reachability rule.
``__init__.py`` is exempt from the import rule: its imports are the
package's exports. A private (``_``-prefixed) module-level function, class
or constant is module-internal by convention, so a use elsewhere does not
count: it must be read in its own module, outside its own definition. A
name a function binds (by assignment, augmented assignment, a ``for`` or
``with`` target, or a walrus) must be read in that function or in a
function nested in it; ``_`` and names the function declares ``nonlocal``
or ``global`` are exempt.

No state that nothing reads: every instance attribute a method under
src/abctrans/ sets (``self.x = ...``, or ``object.__setattr__(self, "x",
...)``) is read as an attribute (``.x``) somewhere in src/ or perfbench/.
An augmented assignment such as ``self.x += 1`` sets, and does not read.
Attributes the package keeps with no such reader are listed in
UNREAD_STATE, each with its reason.

Reachability: every top-level function or class under src/abctrans/ is
referenced by name, and every non-dunder method of those classes as an
attribute, somewhere in src/ or perfbench/ outside its own definition. An
import of the name counts, and so does a string constant holding it, as
perfbench wraps functions by name. Names the package keeps with no such
caller are listed in UNREACHED, each with its reason.
"""

import ast
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "abctrans"

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


# A nested function, lambda or class has its own scope: what it binds is its own.
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def own_nodes(function: ast.AST):
    """The nodes of a function's body outside any function, lambda or class nested in it."""
    stack = list(function.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def unread_locals(function: ast.AST) -> dict[str, int]:
    """Names the function binds but neither it nor a function nested in it reads, with a line each."""
    targets, declared = [], {"_"}
    for node in own_nodes(function):
        if isinstance(node, ast.Assign):
            targets.extend(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.For, ast.AsyncFor, ast.NamedExpr)):
            targets.append(node.target)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets.append(node.target)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            targets.extend(item.optional_vars for item in node.items if item.optional_vars)
        elif isinstance(node, (ast.Nonlocal, ast.Global)):
            declared.update(node.names)
    read = {
        node.id for node in ast.walk(function)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return {
        node.id: node.lineno
        for target in targets
        for node in ast.walk(target)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
        and node.id not in read | declared
    }


def test_the_local_rule_finds_each_kind_of_binding():
    tree = ast.parse(
        "def f(xs):\n"
        "    a, (b, _) = xs\n"
        "    c = 0\n"
        "    c += 1\n"
        "    for d in xs:\n"
        "        pass\n"
        "    with open(xs) as e:\n"
        "        pass\n"
        "    if (g := len(xs)):\n"
        "        pass\n"
        "    def h():\n"
        "        return a\n"
        "    return h\n"
    )
    assert sorted(unread_locals(tree.body[0])) == ["b", "c", "d", "e", "g"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_local_a_function_binds_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unread = sorted(
        f"{name} in {function.name} (line {line})"
        for function in ast.walk(tree)
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for name, line in unread_locals(function).items()
    )
    assert not unread, f"{path.name} binds locals it never reads: {', '.join(unread)}"


# Module-qualified names that nothing in src/ or perfbench/ reaches, and why each stays.
UNREACHED = {
    "analysis.typing_drops": "acceptance criterion 4 reads the per-chunk typing drops",
    "task.placement_row": "acceptance criterion 2 and the EFE oracles read a placement as a float row",
    "trace.Trace.stop_reason": "names how an episode ended; a budgeted stop (ROADMAP items 1 and 3c) adds a reason",
}


def definitions(module: str, tree: ast.Module) -> dict[str, tuple[ast.AST, bool]]:
    """Top-level functions and classes, and the non-dunder methods of those classes.

    Keyed by module-qualified name; the flag says whether the definition is a method.
    """
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs[f"{module}.{node.name}"] = node, False
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)) and not method.name.startswith("__"):
                    defs[f"{module}.{node.name}.{method.name}"] = method, True
    return defs


def references(trees: dict) -> dict[tuple[str, bool], list[tuple[object, int]]]:
    """Where each name is referenced, keyed by (name, as an attribute), as (tree key, line) pairs.

    A name read or imported on its own is no attribute reference; an
    attribute or a string constant holding the name is both kinds.
    """
    refs = defaultdict(list)
    for key, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs[node.id, False].append((key, node.lineno))
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    refs[alias.name, False].append((key, node.lineno))
            elif isinstance(node, ast.Attribute) or (
                isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier()
            ):
                name = node.attr if isinstance(node, ast.Attribute) else node.value
                for attribute in (False, True):
                    refs[name, attribute].append((key, node.lineno))
    return refs


def unreached(package: dict[str, ast.Module], callers: list[ast.Module]) -> set[str]:
    """Qualified names of the package's definitions referenced nowhere outside themselves.

    package maps module names to trees; callers are the trees outside it.
    """
    refs = references(package | dict(enumerate(callers)))
    found = set()
    for module, tree in package.items():
        for qualified, (node, method) in definitions(module, tree).items():
            if all(
                key == module and node.lineno <= line <= node.end_lineno
                for key, line in refs[qualified.rsplit(".", 1)[1], method]
            ):
                found.add(qualified)
    return found


def test_the_reachability_rule_finds_an_unreferenced_function_and_method():
    # unused and Box.unread refer only to themselves, and a plain name unread
    # is no attribute; used is reached through an import, Box.read through a
    # string, as perfbench wraps functions by name.
    package = {
        "m": ast.parse(
            "def used():\n"
            "    return Box()\n"
            "def unused():\n"
            "    return unused()\n"
            "class Box:\n"
            "    def read(self):\n"
            "        return self\n"
            "    def unread(self):\n"
            "        return self.unread()\n"
        )
    }
    caller = ast.parse("import m\nfrom m import used\nprint(unread)\nsetattr(m.Box, 'read', None)\n")
    assert unreached(package, [caller]) == {"m.unused", "m.Box.unread"}


def test_every_definition_is_reached_or_listed():
    package = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
    callers = [ast.parse(path.read_text(encoding="utf-8")) for path in (ROOT / "perfbench").glob("*.py")]
    found = unreached(package, callers)
    assert found - UNREACHED.keys() == set(), "defined but referenced nowhere in src/ or perfbench/"
    assert UNREACHED.keys() - found == set(), "listed as unreached, but now reached or gone"


# Instance attributes that src/ sets and nothing in src/ or perfbench/ reads, and why each stays.
UNREAD_STATE = {
    "analysis.IngestError.row": "the malformed log's row number, for a caller of ingest; ANALYSIS_SHA256 pins it",
    "inference._Rollout.states": "the walk's count of visited states, which tests pin (ROADMAP items 3 and 4)",
    "inference.Policies.truncated": "whether the cap cut a decision: ROADMAP item 4's log reports it, item 12 deletes it",
}


def set_attributes(module: str, tree: ast.Module) -> dict[str, int]:
    """Instance attributes the methods of top-level classes set, by qualified name, with a line each."""
    found = {}
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in ast.walk(cls):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [
                    t.attr for target in targets for t in ast.walk(target)
                    if isinstance(t, ast.Attribute) and isinstance(t.ctx, ast.Store)
                    and isinstance(t.value, ast.Name) and t.value.id == "self"
                ]
            elif (
                isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__setattr__"
                and ast.unparse(node.args[0]) == "self" and isinstance(node.args[1], ast.Constant)
            ):
                names = [node.args[1].value]
            else:
                continue
            for name in names:
                found.setdefault(f"{module}.{cls.name}.{name}", node.lineno)
    return found


def unread_state(package: dict[str, ast.Module], callers: list[ast.Module]) -> set[str]:
    """Qualified names of the instance attributes the package sets and no tree reads as an attribute."""
    read = {
        node.attr
        for tree in [*package.values(), *callers]
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return {
        qualified
        for module, tree in package.items()
        for qualified in set_attributes(module, tree)
        if qualified.rsplit(".", 1)[1] not in read
    }


def test_the_state_rule_finds_an_attribute_nothing_reads():
    # kept is read through another object, counted only by its augmented
    # assignment, and hidden is set through object.__setattr__; a plain
    # name kept or a local attribute of another object is no instance state.
    package = {
        "m": ast.parse(
            "class Box:\n"
            "    def __init__(self, other):\n"
            "        self.kept, self.unread = 1, 2\n"
            "        self.count = 0\n"
            "        other.elsewhere = 3\n"
            "        object.__setattr__(self, 'hidden', 4)\n"
            "    def tick(self):\n"
            "        self.count += 1\n"
        )
    }
    caller = ast.parse("print(box.kept, count, hidden)\n")
    assert unread_state(package, [caller]) == {"m.Box.unread", "m.Box.count", "m.Box.hidden"}


def test_every_attribute_set_is_read_or_listed():
    package = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
    callers = [ast.parse(path.read_text(encoding="utf-8")) for path in (ROOT / "perfbench").glob("*.py")]
    found = unread_state(package, callers)
    assert found - UNREAD_STATE.keys() == set(), "set but read nowhere in src/ or perfbench/"
    assert UNREAD_STATE.keys() - found == set(), "listed as unread, but now read or gone"
