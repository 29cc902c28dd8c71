"""Every name imported by a package module or a test module is used in it."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = [
    *(f for f in sorted((ROOT / "src" / "ffdecomp").glob("*.py")) if f.name != "__init__.py"),
    *sorted((ROOT / "tests").glob("*.py")),
]


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement anywhere in the module and never
    read as a name anywhere in it (`from __future__` imports are skipped)."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items()) if name not in used]


def test_the_scan_sees_unused_imports():
    source = "from __future__ import annotations\nimport os, os.path as osp\nfrom a import b as c, d\nd(os)\n"
    assert unused_imports(source) == ["line 3: c", "line 2: osp"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda f: f"{f.parent.name}/{f.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
