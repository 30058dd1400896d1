"""Every name a package module imports is used by that module, every
top-level function and class is named by code other than its own definition,
and every class member is read by code other than its own definition."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "spindir"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
PERFBENCH = SRC.parents[1] / "perfbench"

# (module file, name) pairs imported only to be read from outside the module
REEXPORTS = {
    # perfbench/run.py reads harness.CHI_GRID_POINTS as a run setting
    ("harness.py", "CHI_GRID_POINTS"),
}


def unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(
        (line, name) for name, line in imported.items()
        if name not in used and (path.name, name) not in REEXPORTS
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path) == []


def names_in(tree, skip=frozenset()) -> set:
    """Names a tree reads: ast.Name ids, ast.Attribute attrs and import aliases."""
    out = set()
    for node in ast.walk(tree):
        if node in skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update((node.asname or node.name, node.name.split(".")[-1]))
    return out


def is_click_command(node) -> bool:
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group") for d in node.decorator_list)


def never_named() -> list:
    """Top-level functions and classes of the package that no package module
    (outside the definition itself) and no perfbench script names."""
    trees = {p: ast.parse(p.read_text(), filename=str(p))
             for p in [*MODULES, *sorted(PERFBENCH.glob("*.py"))]}
    named = {p: names_in(tree) for p, tree in trees.items()}
    missing = []
    for path in MODULES:
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or is_click_command(node):
                continue
            if any(node.name in names for p, names in named.items() if p != path):
                continue
            if node.name not in names_in(trees[path], skip=set(ast.walk(node))):
                missing.append(f"{path.name}:{node.name}")
    return missing


def test_every_definition_is_named_outside_the_tests():
    # tests alone do not keep a helper in the package: code no command,
    # protocol or benchmark reaches belongs under tests/ or nowhere
    assert never_named() == []


def member_reads(tree, skip=frozenset()) -> set:
    """Names a tree reads as members: ast.Attribute loads and string
    constants (getattr over field names).  Constructor keywords do not count."""
    out = set()
    for node in ast.walk(tree):
        if node in skip:
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def class_members(cls) -> list:
    """(name, node) of each method, property and annotated field of a class
    body, dunders excluded."""
    out = []
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.append((node.name, node))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            out.append((node.target.id, node))
    return [(name, node) for name, node in out
            if not (name.startswith("__") and name.endswith("__"))]


def never_read_members() -> list:
    """Class members of the package that no package module and no perfbench
    script reads, outside the member's own definition."""
    trees = {p: ast.parse(p.read_text(), filename=str(p))
             for p in [*MODULES, *sorted(PERFBENCH.glob("*.py"))]}
    reads = {p: member_reads(tree) for p, tree in trees.items()}
    missing = []
    for path in MODULES:
        for cls in trees[path].body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for name, node in class_members(cls):
                if any(name in names for p, names in reads.items() if p != path):
                    continue
                if name not in member_reads(trees[path], skip=set(ast.walk(node))):
                    missing.append(f"{path.name}:{cls.name}.{name}")
    return missing


def test_every_class_member_is_read_outside_the_tests():
    # the rule above, one level down: a method, property or field that only
    # the tests read is not part of what the package runs
    assert never_read_members() == []
