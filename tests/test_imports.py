"""Every name a package module imports is used by that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "spindir"

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


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_module_uses_every_import(path):
    assert unused_imports(path) == []

