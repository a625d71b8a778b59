"""luxnorm has no runtime dependencies: its modules import only the
standard library and luxnorm itself."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import luxnorm

SOURCES = sorted(Path(luxnorm.__file__).resolve().parent.glob("*.py"))


def _imported_modules(tree: ast.Module) -> set[str]:
    """Top-level names of every absolute import in `tree`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_every_import_is_stdlib_or_luxnorm():
    assert len(SOURCES) > 10
    allowed = sys.stdlib_module_names | {"luxnorm"}
    for path in SOURCES:
        imported = _imported_modules(ast.parse(path.read_text(encoding="utf-8")))
        assert imported <= allowed, (path.name, sorted(imported - allowed))
