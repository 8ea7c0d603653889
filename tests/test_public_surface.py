"""Every public name in src/flab has a caller that flab or its release needs,
every module-level import is used, and the modules import in one direction.

A public top-level function or class of `src/flab/*.py`, and a public method
of such a class, must be referenced from another definition in `src/flab`,
from the acceptance criteria (`tests/test_acceptance.py`), from the
benchmark (`benchmarks/*.py`), or be named in README.md.  A name whose only
callers are unit tests belongs in the test that checks it.

The modules of `src/flab` import in one direction: every import is at
module level, and the graph of their `from .x import` statements has no
cycle.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "flab").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
OUTSIDE_CALLERS = [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "benchmarks").glob("*.py"))]
DEFINITIONS = (ast.FunctionDef, ast.ClassDef)


def _referenced(node) -> set[str]:
    """Names and attribute names used inside a node."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
    return used


def _checked(modules):
    """(label, name, node, class node or None) of every public definition."""
    for path, module in modules.items():
        for node in module.body:
            if isinstance(node, DEFINITIONS) and not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", node.name, node, None
                for item in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{item.name}", item.name, item, node


def _used_in_src(modules, name: str, own, owner) -> bool:
    """Whether src code other than the definition itself references the name;
    imports do not count, a class's other members do."""
    for module in modules.values():
        for node in module.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) or node is own:
                continue
            members = [item for item in node.body if item is not own] if node is owner else [node]
            if any(name in _referenced(member) for member in members):
                return True
    return False


def test_every_public_name_has_a_needed_caller():
    modules = {path: ast.parse(path.read_text()) for path in SOURCES}
    outside = set().union(*(_referenced(ast.parse(path.read_text())) for path in OUTSIDE_CALLERS))
    readme = (ROOT / "README.md").read_text()
    orphans = [
        label
        for label, name, node, owner in _checked(modules)
        if name not in outside
        and not re.search(rf"\b{re.escape(name)}\b", readme)
        and not _used_in_src(modules, name, node, owner)
    ]
    assert not orphans, f"public names with no caller outside the unit tests: {orphans}"


def _unused_imports(module) -> list[str]:
    """Names bound by the module-level imports of a module that no name in
    it reads; `from __future__` imports bind nothing."""
    bound = {}
    for node in module.body:
        if isinstance(node, ast.Import):
            bound.update({alias.asname or alias.name.split(".")[0]: node.lineno for alias in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update({alias.asname or alias.name: node.lineno for alias in node.names})
    read = {sub.id for sub in ast.walk(module) if isinstance(sub, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_every_module_level_import_is_used():
    unused = {
        str(path.relative_to(ROOT)): names
        for path in SOURCES + TESTS
        if (names := _unused_imports(ast.parse(path.read_text())))
    }
    assert not unused, f"unused module-level imports: {unused}"


def test_no_import_inside_a_function():
    nested = [
        f"{path.stem}.{node.name} (line {sub.lineno})"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Import, ast.ImportFrom))
    ]
    assert not nested, f"imports inside functions: {nested}"


def _package_imports(module) -> set[str]:
    """The sibling modules a module's top-level `from .x import` statements name."""
    return {
        node.module for node in module.body if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
    }


def test_module_imports_have_no_cycle():
    graph = {path.stem: _package_imports(ast.parse(path.read_text())) for path in SOURCES}
    # repeatedly drop the modules that import no remaining module; a cycle
    # is what is left when none can be dropped
    remaining = dict(graph)
    while leaves := [name for name, deps in remaining.items() if not deps & remaining.keys()]:
        for name in leaves:
            del remaining[name]
    assert not remaining, f"modules in or importing an import cycle: {remaining}"
