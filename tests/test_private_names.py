"""Every module-level function or class in the degdet package, `_`-prefixed
or not, must have a use inside the package, outside its own definition and
outside `__init__.py`, or be named in the benchmark's span tracer
(perfbench/spans.py TRACED).  A definition that only tests call is a test
oracle, and belongs in tests/oracles.py."""

import ast
from pathlib import Path

from test_perfbench_names import traced_pairs

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


def test_every_definition_is_used_in_the_package_or_traced():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    assert "vandermonde" in trees
    users = [tree for module, tree in trees.items() if module != "__init__"]
    traced = set(traced_pairs())
    unused = [
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and (module, node.name) not in traced
        and not any(node.name in referenced_names(other, node) for other in users)
    ]
    assert not unused
