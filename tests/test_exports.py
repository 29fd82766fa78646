import ast
from pathlib import Path

import iterqa


def test_every_export_is_used_inside_the_package():
    # A name the package exports but never uses itself has only outside
    # callers, and in this repository those are tests.
    package = Path(iterqa.__file__).parent
    init = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    exported = {
        alias.asname or alias.name
        for node in init.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    used = set()
    for path in package.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert exported
    assert sorted(exported - used) == []
