"""The mutant catalogue still applies: every fragment occurs exactly once in
its file, and every mutant names an existing test file.  Two mutants run
here, each against the one test that kills it; the whole catalogue runs only
under `python tests/mutants.py`."""

import shutil

import pytest

from mutants import MUTANTS, ROOT, mutated, start_tests

# Each runs in its own copy of src/ and tests/, the two side by side: about
# 1 s each, most of it pytest's start-up (2-vCPU x86-64 VM).
KILLED_BY_NODE = {
    "parse-integer-no-isdecimal":
        "tests/test_exactnum.py::TestRationals::test_parse_integer_rejects_anything_else",
    "sub-cofactor-kappa-unchecked":
        "tests/test_degreematrix.py::TestSubDeterminant::test_cofactor_route_checks_kappa",
}


def test_mutant_names_are_unique():
    assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_fragment_applies_once(mutant):
    text = (ROOT / mutant.path).read_text(encoding="utf-8")
    assert mutated(text, mutant) != text
    assert (ROOT / mutant.killed_by).is_file()


def test_two_mutants_are_killed_by_their_test(tmp_path):
    runs = {}
    for mutant in MUTANTS:
        if mutant.name in KILLED_BY_NODE:
            tree = tmp_path / mutant.name
            for part in ("src", "tests"):
                shutil.copytree(ROOT / part, tree / part, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            shutil.copy(ROOT / "pyproject.toml", tree)
            source = tree / mutant.path
            source.write_text(mutated(source.read_text(encoding="utf-8"), mutant), encoding="utf-8")
            runs[mutant.name] = start_tests(tree, KILLED_BY_NODE[mutant.name])
    for run in runs.values():
        run.communicate()
    # pytest exits 1 when a test failed; 0 means the mutant survived, and any
    # other code a broken run
    assert {name: run.returncode for name, run in runs.items()} == dict.fromkeys(KILLED_BY_NODE, 1)
