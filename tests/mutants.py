"""A committed catalogue of source mutants, each with the test file that kills it.

Each entry replaces one exact source fragment, which must occur exactly once
in its file, so the catalogue breaks loudly when the code moves.  Equivalent
mutants (changes of speed alone) stay out.

    python tests/mutants.py

copies the tree to a temporary directory, checks that each named test file
passes there unmutated, then applies one mutant at a time, runs its test file
with -x and reports it killed or survived, with the time of each run.  A
mutant run that outlives ten times its test file's unmutated run is killed,
with every process it started, and counts as "killed by timeout": a mutant
that loops forever is caught, not waited for.  Exit status 0 when every
mutant is killed.  tests/test_mutants.py checks in tier-1 that every
fragment still applies, and runs two of the mutants, each against the one
test that kills it.
"""

from __future__ import annotations

import os
import shutil
import signal
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
    Mutant("parse-integer-no-isdecimal", "src/degdet/exactnum.py",
           '    if not (s[1:] if s[:1] in "+-" else s).isdecimal():\n'
           '        raise ValueError(f"not an integer: {text!r}")\n', "",
           "parse_integer takes whatever int() takes, \"0_2\" among it",
           "tests/test_exactnum.py"),
    Mutant("seed-flag-by-int", "src/degdet/cli.py",
           'add_argument("--seed", type=_integer_flag', 'add_argument("--seed", type=int',
           "verify --seed reads \"4_2\" as 42",
           "tests/test_verify_cli.py"),
    Mutant("environment-seed-by-int", "src/degdet/cli.py",
           "return parse_integer(env_value)", "return int(env_value)",
           "DEGDET_SEED=4_2 reads as 42",
           "tests/test_verify_cli.py"),
    Mutant("sub-cofactor-kappa-unchecked", "src/degdet/degreematrix.py",
           "    ell = len(cofactors) - 1\n    if not 1 <= kappa <= ell + 1:\n"
           '        raise ValueError(f"column index kappa={kappa} outside [1, {ell + 1}]")\n',
           "    ell = len(cofactors) - 1\n",
           "det_A_sub_from_cofactors reads a cofactor for any kappa (kappa = 0 wraps to the last)",
           "tests/test_degreematrix.py"),
    Mutant("problem-ell-zero", "src/degdet/interp.py",
           'if ell < 1:\n            raise ValueError(f"problem needs ell',
           'if ell < 0:\n            raise ValueError(f"problem needs ell',
           "EquidistantProblem lets ell = 0 past its own check",
           "tests/test_interp.py"),
    Mutant("general-problem-one-node", "src/degdet/interp.py",
           "if len(node_t) < 2:", "if len(node_t) < 1:",
           "GeneralProblem takes a single node",
           "tests/test_interp.py"),
    Mutant("affine-k-zero", "src/degdet/vandermonde.py",
           "if k < 1:", "if k < 0:",
           "AffineData lets k = 0 past its own check",
           "tests/test_vandermonde.py"),
    Mutant("complement-zero-alpha", "src/degdet/vandermonde.py",
           "    if not all(data.alpha):\n"
           '        raise ValueError("complementary expansion needs every alpha_i nonzero")\n', "",
           "the complementary expansion runs with a zero alpha_i",
           "tests/test_vandermonde.py"),
    Mutant("derivative-negative-order", "src/degdet/exactnum.py",
           "if n < 0:", "if n < -1:",
           "Poly.derivative(-1) is not refused by its own check",
           "tests/test_exactnum.py"),
    Mutant("suite-cap-refused", "src/degdet/verify.py",
           "effective_max_ell > spec.ell_cap", "effective_max_ell >= spec.ell_cap",
           "a capped suite refuses max_ell equal to its cap",
           "tests/test_verify_cli.py"),
    Mutant("expansion-bound-refused", "src/degdet/cli.py",
           "cost = expansion_cost(data) if expand else 0\n        if cost > EXPANSION_MAX_COST:",
           "cost = expansion_cost(data) if expand else 0\n        if cost >= EXPANSION_MAX_COST:",
           "det --matrix B refuses an expansion that costs exactly the bound",
           "tests/test_verify_cli.py"),
    Mutant("elimination-bound-refused", "src/degdet/cli.py",
           "cost = elimination_cost(data)\n        if cost > EXPANSION_MAX_COST:",
           "cost = elimination_cost(data)\n        if cost >= EXPANSION_MAX_COST:",
           "det --matrix B refuses an elimination that costs exactly the bound",
           "tests/test_verify_cli.py"),
    Mutant("count-prints-its-bound", "src/degdet/cli.py",
           "if n < 10**30 else", "if n <= 10**30 else",
           "_count prints the 31 digits of 10^30 instead of the bound",
           "tests/test_verify_cli.py"),
    Mutant("below-refuses-one", "src/degdet/rng.py",
           "if not 1 <= bound <= 1 << 64:", "if not 1 < bound <= 1 << 64:",
           "SplitMix64.below(1) is refused",
           "tests/test_verify_cli.py"),
)


def mutated(text: str, mutant: Mutant) -> str:
    count = text.count(mutant.fragment)
    if count != 1:
        raise ValueError(f"{mutant.name}: the fragment occurs {count} times in {mutant.path}, not once")
    return text.replace(mutant.fragment, mutant.replacement)


def start_tests(tree: Path, target: str) -> subprocess.Popen:
    """One -x pytest run of target, a test file or a test's node id, started
    in tree, with its report on the run's stdout."""
    # no bytecode: a mutant the size of its fragment, written within the same
    # second, would otherwise run from the stale cached module
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    # its own process group, so that a timeout also kills what the tests started
    return subprocess.Popen([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", target],
                            cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                            start_new_session=True)


def finish(run: subprocess.Popen, timeout: float | None) -> tuple[int | None, str]:
    """The exit code and stdout of a started run.  A run still going after
    timeout seconds is killed with its process group and waited for, and
    its code is None."""
    try:
        stdout, _ = run.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(run.pid, signal.SIGKILL)
        stdout, _ = run.communicate()
        return None, stdout
    return run.returncode, stdout


def run_tests(tree: Path, test_file: str, timeout: float | None = None) -> tuple[int | None, float, str]:
    """pytest's exit code (None past timeout seconds), the wall time and the
    first failing test of one -x run of test_file in tree."""
    started = time.perf_counter()
    code, stdout = finish(start_tests(tree, test_file), timeout)
    elapsed = time.perf_counter() - started
    failed = next((line.split(" - ")[0].removeprefix("FAILED ") for line in stdout.splitlines()
                   if line.startswith("FAILED ")), "")
    return code, elapsed, failed


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="degdet-mutants-") as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench-*"))
        timeouts = {}
        for test_file in dict.fromkeys(mutant.killed_by for mutant in MUTANTS):
            code, elapsed, failed = run_tests(tree, test_file)
            timeouts[test_file] = 10 * elapsed
            print(f"baseline  {test_file}: {'passed' if code == 0 else 'FAILED'} in {elapsed:.1f} s {failed}".rstrip())
            if code != 0:
                return 1
        killed = 0
        for mutant in MUTANTS:
            source = tree / mutant.path
            original = source.read_text(encoding="utf-8")
            source.write_text(mutated(original, mutant), encoding="utf-8")
            try:
                code, elapsed, failed = run_tests(tree, mutant.killed_by, timeouts[mutant.killed_by])
            finally:
                source.write_text(original, encoding="utf-8")
            # pytest exits 1 when a test failed; any other nonzero code is an
            # interrupted or broken run, which kills nothing
            verdict = {0: "survived", 1: "killed", None: "killed by timeout"}.get(code, f"error (pytest exit {code})")
            killed += code in (1, None)
            print(f"{verdict:<9} {mutant.name} in {elapsed:.1f} s: {mutant.description}"
                  + (f"; first failure {failed}" if failed else ""))
    print(f"{killed} of {len(MUTANTS)} mutants killed")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
