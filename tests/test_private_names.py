"""Every module-level function or class in the degdet package, `_`-prefixed
or not, must have a use inside the package, outside its own definition and
outside `__init__.py`, or be named in the benchmark's span tracer
(perfbench/spans.py TRACED); so must every method of a package class that
Python does not call by itself (a dunder).  A definition that only tests
call is a test oracle, and belongs in tests/oracles.py."""

import ast
from collections import Counter
from pathlib import Path

from test_perfbench_names import traced_pairs

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "degdet"


def referenced_names(node: ast.AST) -> Counter:
    """How often the subtree at node loads each name, reads it as an
    attribute or imports it."""
    names: Counter = Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names[child.id] += 1
        elif isinstance(child, ast.Attribute):
            names[child.attr] += 1
        elif isinstance(child, ast.alias):
            names[child.name] += 1
    return names


def test_every_definition_is_used_in_the_package_or_traced():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    assert "vandermonde" in trees
    # one walk per top-level statement: the package's reference counts, and
    # each definition's own, which do not count as uses of it
    uses: Counter = Counter()
    definitions = []
    for module, tree in trees.items():
        for node in tree.body:
            counts = referenced_names(node)
            if module != "__init__":
                uses += counts
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((module, node.name, counts if module != "__init__" else Counter()))
    traced = set(traced_pairs())
    unused = [
        f"{module}:{name}"
        for module, name, own in definitions
        if (module, name) not in traced and uses[name] == own[name]
    ]
    assert not unused


# Methods kept without a package caller.  SplitMix64.next_u64 is the
# reference stream: one raw output at a time, which the tests read to check
# every bounded and table draw against.
UNCALLED_METHODS = {("rng", "SplitMix64", "next_u64")}


def test_every_method_is_used_in_the_package():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    uses: Counter = Counter()
    methods = []
    for module, tree in trees.items():
        if module == "__init__":
            continue
        uses += referenced_names(tree)
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                methods += [
                    (module, node.name, item.name, referenced_names(item))
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                ]
    assert ("rng", "SplitMix64", "rationals") in [m[:3] for m in methods]
    unused = [
        f"{module}:{cls}.{name}"
        for module, cls, name, own in methods
        if (module, cls, name) not in UNCALLED_METHODS and uses[name] == own[name]
    ]
    assert not unused
