"""A committed catalogue of source mutants, each with the test file that kills it.

Each entry replaces one exact source fragment, which must occur exactly once
in its file, so the catalogue breaks loudly when the code moves.  Equivalent
mutants (changes of speed alone) stay out.

    python tests/mutants.py

copies the tree to a temporary directory, checks that each named test file
passes there unmutated, then applies one mutant at a time, runs its test file
with -x and reports it killed or survived, with the time of each run.  Exit
status 0 when every mutant is killed.  tests/test_mutants.py checks in
tier-1 that every fragment still applies; no mutant runs there.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    fragment: str
    replacement: str
    description: str
    killed_by: str  # the test file run with -x


MUTANTS = (
    Mutant("regularity-r-zero", "src/degdet/vandermonde.py",
           "if R[i] <= 0:", "if R[i] < 0:",
           "regularity_check lets r_i = 0 through",
           "tests/test_vandermonde.py"),
    Mutant("case-failure-swapped", "src/degdet/verify.py",
           "CaseFailure(inputs(), _fmt(expected), _fmt(actual))",
           "CaseFailure(inputs(), _fmt(actual), _fmt(expected))",
           "run_suite records a failure's expected and actual sides swapped",
           "tests/test_records.py"),
    Mutant("bareiss-no-sign-flip", "src/degdet/exactnum.py",
           "sign = -sign", "sign = sign",
           "Bareiss elimination forgets the sign of a column swap",
           "tests/test_acceptance.py"),
    Mutant("sigma-sign-swapped", "src/degdet/degreematrix.py",
           "sign = -1 if (ell * (ell + 1) // 2) % 2 else 1",
           "sign = 1 if (ell * (ell + 1) // 2) % 2 else -1",
           "sigma_ell takes the opposite sign",
           "tests/test_acceptance.py"),
    Mutant("eq14-signs-swapped", "src/degdet/interp.py",
           "signed = [-x if i % 2 else x for i, x in enumerate(sym[: ell + 1])]",
           "signed = [x if i % 2 else -x for i, x in enumerate(sym[: ell + 1])]",
           "eq. 14's double sum negates the even symmetric sums instead of the odd ones",
           "tests/test_acceptance.py"),
    Mutant("nonzero-redraws-the-wrong-entry", "src/degdet/rng.py",
           "if not nonzero or z % 19 != 9:", "if not nonzero or z % 19 != 10:",
           "SplitMix64.rational(nonzero=True) redraws a nonzero entry and keeps zero",
           "tests/test_acceptance.py"),
    Mutant("derivative-sign", "src/degdet/interp.py",
           "(-1) ** (order + k) * tau", "(-1) ** (order + k + 1) * tau",
           "derivative_at_left_node takes the opposite sign",
           "tests/test_acceptance.py"),
    Mutant("theorem1-detector-as-its-own-oracle", "src/degdet/verify.py",
           "newton_degree(*problem.integer_form), detect_degree(problem).degree)",
           "detect_degree(problem).degree, detect_degree(problem).degree)",
           "theorem1's converse half checks the detector against itself",
           "tests/test_interp.py"),
)


def mutated(text: str, mutant: Mutant) -> str:
    count = text.count(mutant.fragment)
    if count != 1:
        raise ValueError(f"{mutant.name}: the fragment occurs {count} times in {mutant.path}, not once")
    return text.replace(mutant.fragment, mutant.replacement)


def run_tests(tree: Path, test_file: str) -> tuple[int, float, str]:
    """pytest's exit code, the wall time and the first failing test of one
    -x run of test_file in tree."""
    # no bytecode: a mutant the size of its fragment, written within the same
    # second, would otherwise run from the stale cached module
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    started = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", test_file],
                          cwd=tree, env=env, capture_output=True, text=True)
    elapsed = time.perf_counter() - started
    failed = next((line.split(" - ")[0].removeprefix("FAILED ") for line in done.stdout.splitlines()
                   if line.startswith("FAILED ")), "")
    return done.returncode, elapsed, failed


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="degdet-mutants-") as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench-*"))
        for test_file in dict.fromkeys(mutant.killed_by for mutant in MUTANTS):
            code, elapsed, failed = run_tests(tree, test_file)
            print(f"baseline  {test_file}: {'passed' if code == 0 else 'FAILED'} in {elapsed:.1f} s {failed}".rstrip())
            if code != 0:
                return 1
        killed = 0
        for mutant in MUTANTS:
            source = tree / mutant.path
            original = source.read_text(encoding="utf-8")
            source.write_text(mutated(original, mutant), encoding="utf-8")
            try:
                code, elapsed, failed = run_tests(tree, mutant.killed_by)
            finally:
                source.write_text(original, encoding="utf-8")
            # pytest exits 1 when a test failed; any other nonzero code is an
            # interrupted or broken run, which kills nothing
            verdict = {0: "survived", 1: "killed"}.get(code, f"error (pytest exit {code})")
            killed += code == 1
            print(f"{verdict:<9} {mutant.name} in {elapsed:.1f} s: {mutant.description}"
                  + (f"; first failure {failed}" if failed else ""))
    print(f"{killed} of {len(MUTANTS)} mutants killed")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
