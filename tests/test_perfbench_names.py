"""The benchmark's span tracer (perfbench/spans.py) wraps degdet functions
by (module, name).  Every pair it lists must resolve in degdet, so a
refactor that drops or moves a traced name fails here, not in a traced
benchmark run."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_pairs():
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED assignment in {SPANS}")


def test_every_traced_function_resolves():
    pairs = traced_pairs()
    assert pairs
    missing = [
        f"degdet.{module}.{name}"
        for module, name in pairs
        if not callable(getattr(importlib.import_module(f"degdet.{module}"), name, None))
    ]
    assert not missing
