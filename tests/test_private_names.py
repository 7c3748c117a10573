"""Every `_`-prefixed module-level function or class in the degdet package
must have a use inside the package.  A private helper that only tests call
is a test oracle, and belongs in tests/oracles.py."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "degdet"


def referenced_names(tree: ast.AST, skip: ast.AST) -> set[str]:
    """Names that tree loads, reads as an attribute or imports, not counting
    the subtree skip (a definition's own body and decorators)."""
    names: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_every_private_definition_is_used_in_the_package():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    assert "vandermonde.py" in trees
    unused = [
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not any(node.name in referenced_names(other, node) for other in trees.values())
    ]
    assert not unused
