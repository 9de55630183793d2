"""Checks on the source tree of ``groundcap`` itself."""

import ast
from pathlib import Path

import groundcap

SOURCE = Path(groundcap.__file__).parent


def test_every_module_level_definition_is_exported_or_used():
    # a def or class that nothing names is a second copy waiting to drift
    trees = {path.name: ast.parse(path.read_text("utf-8")) for path in sorted(SOURCE.glob("*.py"))}
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    unused = [
        f"{module}: {node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in groundcap.__all__
        and node.name not in names
    ]
    assert unused == []
