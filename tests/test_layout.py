"""Module layout rules that keep one owner per helper."""

import ast
from pathlib import Path

import eoflab

PACKAGE = Path(eoflab.__file__).parent


def _private_relative_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        f"{path.name}:{node.lineno}: from {'.' * node.level}{node.module or ''} import {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_no_private_imports_across_modules():
    # a helper another module needs is public in the module that owns it
    offenders = [line for path in sorted(PACKAGE.glob("*.py"))
                 for line in _private_relative_imports(path)]
    assert offenders == []
