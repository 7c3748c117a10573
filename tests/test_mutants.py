"""The mutant catalogue still applies: every fragment occurs exactly once in
its file, and every mutant names an existing test file.  Two mutants run
here, each against the one test that kills it; the whole catalogue runs only
under `python tests/mutants.py`."""

import shutil
import time

import pytest

from mutants import MUTANTS, ROOT, finish, mutated, start_tests

# Each runs in its own copy of src/ and tests/, the two side by side: about
# 1 s each, most of it pytest's start-up (2-vCPU x86-64 VM), so a run still
# going after TIMEOUT seconds hangs.
TIMEOUT = 120
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
    codes = {name: finish(run, TIMEOUT)[0] for name, run in runs.items()}
    # pytest exits 1 when a test failed; 0 means the mutant survived, None a
    # run past the timeout and any other code a broken run
    assert codes == dict.fromkeys(KILLED_BY_NODE, 1)


SLEEPER = """\
import subprocess
import sys
import time


def test_sleeps(capfd):
    # a child that shares the run's stdout, not pytest's capture of it
    with capfd.disabled():
        subprocess.Popen([sys.executable, "-c", "import time; time.sleep(90)"])
    open("started", "w").close()
    time.sleep(600)
"""


def test_a_run_past_its_timeout_is_killed_with_its_children(tmp_path):
    (tmp_path / "test_sleeper.py").write_text(SLEEPER, encoding="utf-8")
    run = start_tests(tmp_path, "test_sleeper.py")
    deadline = time.monotonic() + TIMEOUT
    while not (tmp_path / "started").exists():
        assert run.poll() is None and time.monotonic() < deadline, "the sleeping test never started"
        time.sleep(0.05)
    started = time.monotonic()
    assert finish(run, 0.1)[0] is None
    # finish reads stdout to its end, which comes only when every process
    # holding it, the child among them, has gone: well before their sleeps end
    assert time.monotonic() - started < 60
    assert run.poll() is not None
