"""The benchmark judges each `verify --suite all` op by check_verify_all
(perfbench/run.py), which counts every suite's cases.  Running that check
here makes a change to a suite's case count fail in the tests, not as a
drop in the benchmark's share of correct ops."""

import importlib.util
import sys
from pathlib import Path

import pytest

from degdet.cli import main

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def load_run():
    """perfbench/run.py as a module, loaded by path once; its dataclasses
    need it in sys.modules while it runs."""
    if "perfbench_run" not in sys.modules:
        spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
        sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[spec.name])
    return sys.modules["perfbench_run"]


@pytest.mark.parametrize("seed", [42, 7])
def test_verify_all_passes_the_benchmark_check(capsys, seed):
    code = main(["verify", "--suite", "all", "--seed", str(seed)])
    out = capsys.readouterr().out
    check = load_run().check_verify_all
    assert check(code, out) is None
    # one case fewer in eq14 is caught
    assert check(code, out.replace("cases_run: 600\n", "cases_run: 599\n", 1)) is not None
