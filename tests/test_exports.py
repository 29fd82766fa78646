import ast
from pathlib import Path

import iterqa

PACKAGE = Path(iterqa.__file__).parent
PERFBENCH = PACKAGE.parents[1] / "perfbench"


def names_used(tree: ast.AST) -> set[str]:
    """Every name read under ``tree``, bare or as an attribute."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def modules() -> dict[Path, ast.Module]:
    """The package's modules, apart from ``__init__.py``, which only re-exports."""
    return {path: parse(path) for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "__init__.py"}


def test_every_export_is_used_inside_the_package():
    # A name the package exports but never uses itself has only outside
    # callers, and in this repository those are tests.
    init = parse(PACKAGE / "__init__.py")
    exported = {
        alias.asname or alias.name
        for node in init.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    used = set().union(*map(names_used, modules().values()))
    assert exported
    assert sorted(exported - used) == []


def references(tree: ast.AST) -> set[tuple[str, str]]:
    """(module, name) for each name ``tree`` reads from a module: imported from it,
    or as ``module.name``."""
    nodes = list(ast.walk(tree))
    imported = {
        alias.asname or alias.name: (node.module.split(".")[-1], alias.name)
        for node in nodes if isinstance(node, ast.ImportFrom) and node.module
        for alias in node.names
    }
    read = set()
    for node in nodes:
        if isinstance(node, ast.Name) and node.id in imported:
            read.add(imported[node.id])
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            read.add((node.value.id, node.attr))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute):
            read.add((node.value.attr, node.attr))
    return read


def test_every_public_definition_has_a_caller_outside_the_tests():
    # Each public top-level def and class must be read somewhere other than
    # its own body: in its module, in another module that imports it, or in
    # perfbench's harness, whose set-up is the one caller of load_index.
    # perfbench's own tests do not count.
    trees = modules()
    harness = [parse(path) for path in PERFBENCH.glob("*.py") if not path.name.startswith("test_")]
    read = {path: references(tree) for path, tree in trees.items()}
    read_by_harness = set().union(*map(references, harness))
    checked, unused = 0, []
    for path, tree in trees.items():
        outside = set().union(read_by_harness, *(r for p, r in read.items() if p != path))
        parts = [names_used(node) for node in tree.body]
        for i, node in enumerate(tree.body):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            checked += 1
            inside = set().union(*(part for j, part in enumerate(parts) if j != i))
            if node.name not in inside and (path.stem, node.name) not in outside:
                unused.append(f"{path.name}:{node.name}")
    assert checked and unused == []
