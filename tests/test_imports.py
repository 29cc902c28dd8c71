"""Every name imported by a package module or a test module is used in it,
and every top-level function and class of the package, and every public
method of those classes, is read by the package."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = [f for f in sorted((ROOT / "src" / "ffdecomp").glob("*.py")) if f.name != "__init__.py"]
SOURCES = [*PACKAGE, *sorted((ROOT / "tests").glob("*.py"))]


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


def unread_definitions(sources: dict, extra_reads=frozenset()) -> list[str]:
    """Top-level functions and classes of the modules in sources (module
    name -> source text), and the public methods of those classes, that no
    module reads outside their own definition.  A function or class is read
    as a name (`grid_divisors`) or as an attribute of a module of sources
    (`experiments.grid_divisors`); a method is read as an attribute of
    anything (`report.to_dict`, `FpSet.from_elements`).  Dunder and
    underscored methods are not checked.  extra_reads are names read from
    outside the modules, `Class.method` for a method."""
    defined, methods = [], []
    reads, attributes = set(extra_reads), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        # `np.empty` is numpy's, not a method: attributes of an imported
        # module are not method reads
        modules = set(sources) | {
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            for alias in node.names
        }
        for stmt in tree.body:
            own = getattr(stmt, "name", None)  # the def or class this statement is
            if own is not None:
                defined.append(f"{module}.{own}")
            parts = [(stmt, None)]
            if isinstance(stmt, ast.ClassDef):
                parts = []
                for node in ast.iter_child_nodes(stmt):
                    method = None
                    if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                        method = node.name
                        methods.append((f"{module}.{own}.{method}", f"{own}.{method}"))
                    parts.append((node, method))
            for part, method in parts:
                for node in ast.walk(part):
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                        name = node.id
                    elif isinstance(node, ast.Attribute):
                        of = node.value.id if isinstance(node.value, ast.Name) else None
                        if of not in modules and node.attr != method:
                            attributes.add(node.attr)
                        if of not in sources:
                            continue
                        name = node.attr
                    else:
                        continue
                    if name != own:
                        reads.add(name)
    unread = [d for d in defined if d.split(".")[1] not in reads]
    return unread + [
        d for d, qualified in methods
        if d.split(".")[2] not in attributes and qualified not in reads
    ]


def test_the_scan_sees_unread_definitions():
    sources = {
        "alpha": (
            "import numpy as np\n"
            "from . import beta\n"
            "def entry():\n    return beta.helper()\n"
            "def recursive():\n    return recursive()\n"
            "class Kept:\n"
            "    def used(self):\n        return np.traced\n"
            "    def recursed(self):\n        return self.recursed()\n"
            "    @classmethod\n    def built(cls):\n        return cls()\n"
            "    def traced(self):\n        pass\n"
            "    def _private(self):\n        pass\n"
            "    def __len__(self):\n        return 0\n"
            "entry()\n"
        ),
        "beta": (
            "from .alpha import Kept\n"
            "def helper():\n    return Kept.built().used()\n"
            "def traced():\n    pass\n"
        ),
    }
    unread_methods = ["alpha.Kept.recursed", "alpha.Kept.traced"]
    assert unread_definitions(sources, {"traced", "Kept.traced"}) == [
        "alpha.recursive",
        "alpha.Kept.recursed",
    ]
    assert unread_definitions(sources, {"traced"}) == ["alpha.recursive", *unread_methods]
    assert unread_definitions(sources) == ["alpha.recursive", "beta.traced", *unread_methods]


def test_every_package_definition_is_read_by_the_package():
    """Code only the tests run belongs in tests/.  The benchmark tracer
    wraps functions by name, so the strings of perfbench/spans.py count as
    reads."""
    spans = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    strings = {
        node.value
        for node in ast.walk(spans)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    assert unread_definitions({f.stem: f.read_text() for f in PACKAGE}, strings) == []
