"""degdet benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a degdet checkout.  It writes the workload's
inputs from --seed, then runs passes over the workload's operations, one
fresh interpreter per pass (perfbench/one_pass.py), each operation being one
`degdet.cli.main(argv)` call.  Passes start while the next one is expected
to end within --seconds.  Every output is checked here, after the timed
passes, by code that shares nothing with degdet.

Every time is scaled to one fixed host speed: pass times by a reference
loop timed on the same CPU during the pass (perfbench/speed.py), set-up
times by the start of a bare interpreter timed around them.  The run pins
itself and its children to one CPU for that.  The unscaled times are
printed as comments.

--trace 0 prints the end-to-end metrics (medians over passes); --trace 1
alternates untraced and traced passes and prints the per-layer metrics and
the tracing overhead.  A run is incorrect unless every pass, traced or not,
prints the same stdout and exit code for each operation.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable


ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
DEADLINE_S = 170.0
SETUP_SAMPLES = 6
SETUP_CODE = "import degdet.cli as c; c.build_parser()"
# `python3 -c pass` on an uncontended core of the host the baseline was
# measured on: scaled set-up times approximate that host's fast-state times.
STARTUP_REFERENCE_S = 0.065

SWEEP = (8, 16, 32, 64, 96)
MATRIX_SWEEP = (8, 16, 24, 28)
# cases_run of each suite of `verify --suite all` at default sizes, counted
# from the suite definitions, so a shrunken suite shows as a failed op.
# remark5 adds one ratio-consistency case per grid whose outcome is a
# constant ratio or a match with nonzero values, which depends on the seed:
# at the CLI's default seed 42 that is 7 cases, for 15,364 in all.
VERIFY_CASES = {
    "prop2": 2700, "prop3": 35, "prop6": 248, "eq5": 825, "eq5c": 750,
    "eq10": 1350, "eq14": 600, "theorem1": 3825, "theorem4": 5000, "remark5": 24,
}


@dataclass(frozen=True)
class Op:
    label: str
    argv: list[str]
    check: Callable[[int, str], str | None]  # (exit code, stdout) -> failure reason or None


# ---------------------------------------------------------------- inputs

def draw_rational(rng: random.Random) -> Fraction:
    """A nonzero rational with an 8-bit numerator and denominator, so every
    seed gives inputs of the same size."""
    while True:
        num, den = rng.randint(128, 255), rng.randint(128, 255)
        if math.gcd(num, den) == 1:
            return Fraction(rng.choice((-1, 1)) * num, den)


def leading_difference(values: list[Fraction]) -> Fraction:
    """The ell-th forward difference of a_0..a_ell, i.e. ell! h^ell times the
    leading coefficient of the interpolant: nonzero iff the degree is ell."""
    diffs = list(values)
    while len(diffs) > 1:
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return diffs[0]


def write_problem(path: Path, ell: int, xi: Fraction, h: Fraction, values: list[Fraction]) -> None:
    text = ", ".join(f"{v.numerator}/{v.denominator}" for v in values)
    path.write_text(
        f"ell: {ell}\nxi: {xi.numerator}/{xi.denominator}\nh: {h.numerator}/{h.denominator}\nvalues: {text}\n",
        encoding="utf-8")


# ---------------------------------------------------------------- checks

def parse_int(text: str) -> int:
    """Decimal string to int in chunks, so the interpreter's 4,300-digit
    conversion limit (left at its default here) never applies."""
    sign, digits = (-1, text[1:]) if text.startswith("-") else (1, text)
    if not digits.isdigit():
        raise ValueError(f"not an integer: {text[:40]!r}")
    value = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i:i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return sign * value


def parse_rational(text: str) -> Fraction:
    num, sep, den = text.partition("/")
    return Fraction(parse_int(num), parse_int(den) if sep else 1)


def check_degree(code: int, stdout: str, *, ell: int, h: Fraction, values: list[Fraction], degree: int) -> str | None:
    if code != 0:
        return f"exit {code}"
    fields: dict[str, str] = {}
    dets: list[tuple[str, str]] = []
    coeffs: list[tuple[str, str]] = []
    for line in stdout.splitlines():
        key, _, value = line.partition(": ")
        if key.startswith("det["):
            dets.append((key, value))
        elif key.startswith("b["):
            coeffs.append((key, value))
        else:
            fields[key] = value
    if fields.get("degree") != str(degree):
        return f"degree {fields.get('degree')!r}, expected {degree}"
    m = ell - degree
    if fields.get("witness_m") != str(m):
        return f"witness_m {fields.get('witness_m')!r}, expected {m}"
    if [key for key, _ in dets] != [f"det[{s}]" for s in range(m + 1)]:
        return f"{len(dets)} det lines, expected det[0]..det[{m}]"
    if any(value != "0" for _, value in dets[:m]) or parse_rational(dets[m][1]) == 0:
        return "det[s] not zero below the witness or zero at it"
    if [key for key, _ in coeffs] != [f"b[{k}]" for k in range(ell + 1)]:
        return f"{len(coeffs)} b lines, expected b[0]..b[{ell}]"
    b = [parse_rational(value) for _, value in coeffs]
    for i, a in enumerate(values):
        t = i * h
        acc = Fraction(0)
        for c in reversed(b):
            acc = acc * t + c
        if acc != a:
            return f"b[k] do not reproduce a[{i}]"
    return None


def check_verify_all(code: int, stdout: str) -> str | None:
    if code != 0:
        return f"exit {code}"
    lines = stdout.splitlines()
    if not lines or lines[-1] != "status: PASS":
        return "no final 'status: PASS'"
    expected = dict(VERIFY_CASES)
    cases: dict[str, int] = {}
    suite = None
    for line in lines:
        key, _, value = line.partition(": ")
        if key == "suite":
            suite = value
        elif key == "cases_run":
            cases[suite] = int(value)
        elif suite == "remark5" and key.startswith("note["):
            note = dict(token.split("=", 1) for token in value.split(" ") if "=" in token)
            # compare_general_expansion gives a ratio, hence one more case,
            # for a constant ratio, or a match with a nonzero interpolant.
            if note["outcome"] == "proportional" or (
                    note["outcome"] == "match" and any(v != "0" for v in note["a"].split(","))):
                expected["remark5"] += 1
    if cases != expected:
        return f"cases_run per suite {cases}, expected {expected}"
    return None


# ---------------------------------------------------------------- workloads

def verify_all_ops(rng: random.Random, workdir: Path) -> list[Op]:
    seed = rng.randrange(2**32)
    return [Op("verify-all", ["verify", "--suite", "all", "--seed", str(seed)], check_verify_all)]


def degree_ops(rng: random.Random, workdir: Path, ells, full_degree: bool, mode: str | None) -> list[Op]:
    ops = []
    for ell in ells:
        xi, h = draw_rational(rng), draw_rational(rng)
        if full_degree:
            values = [draw_rational(rng) for _ in range(ell + 1)]
            while leading_difference(values) == 0:
                values = [draw_rational(rng) for _ in range(ell + 1)]
        else:
            values = [draw_rational(rng)] * (ell + 1)
        path = workdir / f"ell{ell}.txt"
        write_problem(path, ell, xi, h, values)
        argv = ["degree", "--input", str(path.relative_to(ROOT))] + (["--mode", mode] if mode else [])
        expected = ell if full_degree else 0

        def check(code, stdout, ell=ell, h=h, values=values, expected=expected):
            return check_degree(code, stdout, ell=ell, h=h, values=values, degree=expected)

        ops.append(Op(f"ell={ell}", argv, check))
    return ops


WORKLOADS: dict[str, Callable[[random.Random, Path], list[Op]]] = {
    "verify-all": verify_all_ops,
    "degree-scan": lambda rng, d: degree_ops(rng, d, SWEEP, full_degree=False, mode=None),
    "degree-full": lambda rng, d: degree_ops(rng, d, SWEEP, full_degree=True, mode=None),
    "degree-matrix": lambda rng, d: degree_ops(rng, d, MATRIX_SWEEP, full_degree=False, mode="matrix"),
}


# ---------------------------------------------------------------- running

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def remaining(started: float) -> float:
    left = DEADLINE_S - (perf_counter() - started)
    if left <= 0:
        raise TimeoutError("benchmark run exceeded its deadline")
    return left


def time_interpreter(code: str, started: float) -> float:
    start = perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(), check=True,
                   capture_output=True, timeout=remaining(started))
    return perf_counter() - start


def time_setup(started: float) -> tuple[float, float]:
    """Wall time of a fresh interpreter importing degdet.cli and building its
    parser, as measured and scaled by the start of a bare interpreter timed
    just before and after it.  Interpreter start-up (file reads, unmarshal,
    page faults) tracks the host's speed far more closely than the
    arithmetic of speed.reference() does."""
    before = time_interpreter("pass", started)
    seconds = time_interpreter(SETUP_CODE, started)
    after = time_interpreter("pass", started)
    return seconds, seconds * STARTUP_REFERENCE_S / ((before + after) / 2)


def run_pass(plan_path: Path, ops: list[Op], traced: bool, started: float) -> dict:
    plan_path.write_text(json.dumps({"trace": traced, "ops": [op.argv for op in ops]}), encoding="utf-8")
    done = subprocess.run([sys.executable, str(BENCH_DIR / "one_pass.py"), str(plan_path)], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True, timeout=remaining(started))
    if done.returncode != 0:
        raise RuntimeError(f"pass process exited {done.returncode}: {done.stderr[-2000:]}")
    report = json.loads(done.stdout)
    if not Path(report["degdet_file"]).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"imported degdet from {report['degdet_file']}, not from {ROOT / 'src'}")
    return report


def run_passes(plan_path: Path, ops: list[Op], seconds: float, trace: bool,
               started: float) -> tuple[dict[bool, list[dict]], list[tuple[float, float]]]:
    """Passes keyed by traced or not, and set-up times (measured, scaled).

    With tracing the passes alternate, starting untraced.  Each kind runs at
    least once; another pass starts while the mean pass so far would still
    end within `seconds`.  Without tracing, SETUP_SAMPLES set-up times are
    taken before every pass and after the last, so that they sample the same
    stretch of machine time as the passes.
    """
    kinds = (False, True) if trace else (False,)
    passes: dict[bool, list[dict]] = {kind: [] for kind in kinds}
    setups: list[tuple[float, float]] = []
    if not trace:
        time_setup(started)  # untimed: fills the bytecode cache
    first = perf_counter()
    index = 0
    while True:
        if not trace:
            setups += [time_setup(started) for _ in range(SETUP_SAMPLES)]
        traced = kinds[index % len(kinds)]
        elapsed = perf_counter() - first
        if passes[traced] and elapsed + elapsed / index > seconds:
            return passes, setups
        passes[traced].append(run_pass(plan_path, ops, traced, started))
        index += 1


def judge(ops: list[Op], runs: list[dict]) -> tuple[bool, list[str | None]]:
    """Check every op once; an op must print the same stdout and exit code
    in every pass, traced or not.  Returns (no wrong output, reasons)."""
    correct = True
    reasons = []
    for j, op in enumerate(ops):
        first = runs[0]["ops"][j]
        for other in runs[1:]:
            if (other["ops"][j]["code"], other["ops"][j]["stdout"]) != (first["code"], first["stdout"]):
                correct = False
                print(f"# {op.label}: stdout or exit code differs between passes", file=sys.stderr)
        reason = op.check(first["code"], first["stdout"])
        if reason is not None:
            if first["code"] == 0:
                correct = False
            print(f"# {op.label}: FAILED: {reason}; stderr: {first['stderr_tail'].strip()[-300:]}", file=sys.stderr)
        reasons.append(reason)
    return correct, reasons


def end_to_end(untraced: list[dict], setups: list[float], ok_frac: float, scaled: bool) -> dict[str, float]:
    """End-to-end metrics from the scaled times, or from the measured ones."""
    wall, op = ("scaled_wall_s", "scaled_s") if scaled else ("wall_s", "seconds")
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p[wall] for p in untraced),
        "op_max_s": statistics.median(max(o[op] for o in p["ops"]) for p in untraced),
        "ops_ok_frac": ok_frac,
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] / 1024 for p in untraced),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    """Medians over traced passes; times are scaled by their pass's factor."""
    def scaled(p: dict, name: str) -> float:
        return p["layers"][name] * (p["scaled_wall_s"] / p["wall_s"] if name.endswith("_s") else 1)

    values = {name: statistics.median(scaled(p, name) for p in traced) for name in traced[0]["layers"]}
    values["cli.stdout_bytes"] = sum(len(op["stdout"].encode("utf-8")) for op in traced[0]["ops"])
    traced_wall = statistics.median(p["scaled_wall_s"] for p in traced)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - statistics.median(p["scaled_wall_s"] for p in untraced)
    return values


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = perf_counter()
    if not (ROOT / "src" / "degdet" / "cli.py").is_file():
        print(f"run.py: no degdet sources under {ROOT / 'src'}; run from a degdet checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if hasattr(os, "sched_setaffinity"):
        # One CPU for the run and its children, so the reference loop runs on
        # the core whose speed it stands for.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    print(f"# context: python={platform.python_version()} nproc={os.cpu_count()} seed={args.seed}"
          f" workload={args.workload} trace={args.trace} commit={git_commit()}")
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        ops = WORKLOADS[args.workload](random.Random(args.seed), workdir)
        passes, setups = run_passes(workdir / "plan.json", ops, args.seconds, bool(args.trace), started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    runs = [p for kind in passes.values() for p in kind]
    correct, reasons = judge(ops, runs)
    failed_ops = sum(reason is not None for reason in reasons)
    ok_frac = 1 - failed_ops / len(ops)
    if args.trace:
        values, declared = per_layer(passes[False], passes[True]), spec["per_layer"]
    else:
        values, declared = end_to_end(passes[False], [s for _, s in setups], ok_frac, True), spec["end_to_end"]
        measured = end_to_end(passes[False], [s for s, _ in setups], ok_frac, False)
        print("# measured, unscaled: " + " ".join(f"{name}={value:.6g}" for name, value in measured.items()))
    for traced, kind in passes.items():
        walls = " ".join(f"{p['wall_s']:.3f}/{p['scaled_wall_s']:.3f}" for p in kind)
        print(f"# {'traced' if traced else 'untraced'} pass wall_s, measured/scaled: {walls}")
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in declared}
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops) * len(runs),
        "failed": failed_ops * len(runs),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
