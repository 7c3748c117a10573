"""Batch command-line front end.

Three subcommands: `degree` runs the determinant-based degree detector on a
problem file, `verify` replays the named identity suites with a seeded
generator, and `det` prints one exact determinant (direct and closed-form
routes, flagged if they ever disagree).

All rationals cross the I/O boundary as exact "p/q" strings; floats never
appear.  Exit codes: 0 all good, 1 verification failure, 2 usage or parse
error.  Report bytes on stdout are stable for fixed inputs and seed; wall
times go to stderr.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .degreematrix import (AlternatingSums, _checked_values, det_A_from_cofactors, det_A_sub_closed_form,
                           det_A_sub_from_cofactors, power_row_cofactors)
from .exactnum import Rational, format_rational, parse_rational
from .interp import (
    DETECTION_MODES,
    MODE_CLOSED_FORM,
    MODE_MATRIX,
    EquidistantProblem,
    detect_degree,
    interpolate_eq14,
)
from .vandermonde import AffineData, det_B, det_B_expansion, elimination_cost, expansion_cost
from .verify import DEFAULT_SEED, SUITE_NAMES, SUITES, run_all, run_suite

ENV_SEED = "DEGDET_SEED"

_PROBLEM_FIELDS = ("ell", "xi", "h", "values")

# The matrix routes eliminate explicit integer matrices of ell power rows,
# whose cost grows about as ell^7.5 (2.5 s at ell = 48 on a 2-vCPU x86-64
# VM).  From ell = 46 on, sigma_ell alone has more than 4,300 digits, so no
# report prints under Python's default int-to-str digit limit; such ell is
# refused before any elimination.
MATRIX_MAX_ELL = 45

# det --matrix B's largest accepted expansion_cost, and elimination_cost of its
# direct side.  Near it the slowest expansions took 4.7 s (k = 1, 6, 20) and
# the slowest eliminations 4.6 s (k = ell = 20, 10-digit fractions; single
# runs on a shared 2-vCPU x86-64 VM).
EXPANSION_MAX_COST = 2 * 10**10


class ProblemFileError(ValueError):
    """Problem-file rejection with line/field context baked into the message."""


def parse_problem_file(text: str, source: str = "<input>") -> EquidistantProblem:
    """Parse the line-oriented `field: value` problem format.

    Fields: ell (positive integer), xi and h (rational strings, h nonzero),
    values (comma-separated rational strings, exactly ell+1 of them).
    Blank lines and '#' comments are ignored.
    """
    raw: dict[str, tuple[int, str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition(":")
        key = key.strip()
        if not sep or not key:
            raise ProblemFileError(f"{source}: line {lineno}: expected 'field: value', got {stripped!r}")
        if key not in _PROBLEM_FIELDS:
            raise ProblemFileError(
                f"{source}: line {lineno}: unknown field {key!r} (expected one of {', '.join(_PROBLEM_FIELDS)})"
            )
        if key in raw:
            raise ProblemFileError(f"{source}: line {lineno}: duplicate field {key!r}")
        raw[key] = (lineno, value.strip())

    for field_name in _PROBLEM_FIELDS:
        if field_name not in raw:
            raise ProblemFileError(f"{source}: missing field {field_name!r}")

    def fail(field_name: str, message: str) -> ProblemFileError:
        lineno = raw[field_name][0]
        return ProblemFileError(f"{source}: line {lineno}: field {field_name!r}: {message}")

    ell_text = raw["ell"][1]
    # parse_rational's integer rule: an optional sign, then decimal digits
    # (int() would also take "0_2")
    if not (ell_text[1:] if ell_text[:1] in "+-" else ell_text).isdecimal():
        raise fail("ell", f"not an integer: {ell_text!r}")
    ell = int(ell_text)
    if ell < 1:
        raise fail("ell", f"must be >= 1, got {ell}")
    try:
        xi = parse_rational(raw["xi"][1])
    except ValueError as exc:
        raise fail("xi", str(exc)) from None
    try:
        h = parse_rational(raw["h"][1])
    except ValueError as exc:
        raise fail("h", str(exc)) from None
    if h == 0:
        raise fail("h", "step must be nonzero")
    try:
        values = tuple(parse_rational(tok) for tok in raw["values"][1].split(","))
    except ValueError as exc:
        raise fail("values", str(exc)) from None
    if len(values) != ell + 1:
        raise fail("values", f"expected ell+1 = {ell + 1} entries, got {len(values)}")
    return EquidistantProblem(ell, xi, h, values)


def load_problem_file(path: str) -> EquidistantProblem:
    try:
        with open(path, encoding="utf-8-sig") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from None
    return parse_problem_file(text, source=path)


def _parse_csv_rationals(text: str, option: str) -> tuple[Rational, ...]:
    try:
        return tuple(parse_rational(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ValueError(f"option {option}: {exc}") from None


def _count(n: int) -> str:
    """n with thousands separators; from 10^30 on only that bound, since
    past 4,300 digits n would not print at all."""
    return f"{n:,}" if n < 10**30 else "more than 10^30"


def _check_matrix_ell(ell: int, route: str) -> None:
    if ell > MATRIX_MAX_ELL:
        raise ValueError(
            f"{route} takes ell <= {MATRIX_MAX_ELL}, got {ell}: from ell = {MATRIX_MAX_ELL + 1} on, "
            f"sigma_ell has more than 4,300 digits, so the report cannot print under Python's default "
            f"digit limit, and the exact elimination grows about as ell^7.5; "
            f"degree --mode {MODE_CLOSED_FORM} computes the same determinants in closed form "
            f"and prints them with the limit lifted (python -X int_max_str_digits=0)"
        )


def cmd_degree(args: argparse.Namespace) -> int:
    problem = load_problem_file(args.input)
    if args.mode == MODE_MATRIX:
        _check_matrix_ell(problem.ell, f"degree --mode {MODE_MATRIX}")
    detection = detect_degree(problem, args.mode)
    # eq. 14 gives the coefficients c[k] of t**k with t = (x - xi)/h, so the
    # coefficient of (x - xi)**k is c[k] / h**k, one Fraction with h = p/q.
    normalized = interpolate_eq14(problem)
    p, q = problem.h.numerator, problem.h.denominator

    # The whole report is built before any of it is written, so a failure
    # leaves stdout empty rather than holding a partial report.
    lines = [
        f"input: {args.input}",
        f"ell: {problem.ell}",
        f"xi: {format_rational(problem.xi)}",
        f"h: {format_rational(problem.h)}",
        f"values: {', '.join(format_rational(v) for v in problem.a)}",
        f"mode: {args.mode}",
        f"degree: {detection.degree}",
        f"witness_m: {'none' if detection.witness_m is None else detection.witness_m}",
    ]
    lines += [f"det[{s}]: {format_rational(value)}" for s, value in enumerate(detection.determinants)]
    for k in range(problem.ell + 1):
        c = normalized.coefficient(k)
        lines.append(f"b[{k}]: {format_rational(Rational(c.numerator * q**k, c.denominator * p**k))}")
    print("\n".join(lines))
    return 0


def _resolve_seed(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return args.seed
    env_value = os.environ.get(ENV_SEED)
    if env_value is not None:
        try:
            return int(env_value)
        except ValueError:
            raise ValueError(f"environment variable {ENV_SEED} is not an integer: {env_value!r}") from None
    return DEFAULT_SEED


def cmd_verify(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    if args.suite == "all":
        reports = run_all(args.max_ell, args.trials, seed)
    else:
        reports = [run_suite(args.suite, args.max_ell, args.trials, seed)]

    suites_passed = sum(r.passed for r in reports)
    status = "PASS" if suites_passed == len(reports) else "FAIL"
    if args.json:
        import json  # only --json needs it: kept out of every command's start-up
        document = {
            "reports": [r.to_dict() for r in reports],
            "summary": {"suites_run": len(reports), "suites_passed": suites_passed, "status": status},
        }
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        for index, report in enumerate(reports):
            if index:
                print()
            for line in report.to_lines():
                print(line)
        if len(reports) > 1:
            print()
            print("summary: all")
            print(f"suites_run: {len(reports)}")
            print(f"suites_passed: {suites_passed}")
            print(f"status: {status}")
    for report in reports:
        print(f"# elapsed[{report.suite}]: {report.elapsed_ms} ms", file=sys.stderr)
    return 0 if status == "PASS" else 1


def _require(args: argparse.Namespace, names: list[str], kind: str) -> None:
    missing = [f"--{n.replace('_', '-')}" for n in names if getattr(args, n) is None]
    if missing:
        raise ValueError(f"matrix kind {kind!r} needs {', '.join(missing)}")


def cmd_det(args: argparse.Namespace) -> int:
    lines = [f"matrix: {args.matrix}"]
    closed_form: Rational | None = None
    closed_form_note = None

    # direct() runs last: bad arguments or an unprintable closed form exit first.
    if args.matrix == "A":
        _require(args, ["ell", "s", "a"], "A")
        _check_matrix_ell(args.ell, "det --matrix A")
        # ell, then s, then the length of a, before the vector is built
        a = _checked_values(args.ell, args.s, _parse_csv_rationals(args.a, "--a"))
        closed_form = AlternatingSums(args.ell, a).det(args.s)
        direct = lambda: det_A_from_cofactors(power_row_cofactors(args.ell), args.s, a)
        lines += [f"ell: {args.ell}", f"s: {args.s}", f"a: {', '.join(map(format_rational, a))}"]
    elif args.matrix == "Asub":
        _require(args, ["ell", "kappa"], "Asub")
        _check_matrix_ell(args.ell, "det --matrix Asub")
        closed_form = Rational(det_A_sub_closed_form(args.ell, args.kappa))
        direct = lambda: det_A_sub_from_cofactors(power_row_cofactors(args.ell), args.kappa)
        lines += [f"ell: {args.ell}", f"kappa: {args.kappa}"]
    else:
        _require(args, ["k", "ell", "alpha", "beta", "r"], "B")
        alpha = _parse_csv_rationals(args.alpha, "--alpha")
        beta = _parse_csv_rationals(args.beta, "--beta")
        r = _parse_csv_rationals(args.r, "--r")
        data = AffineData(args.k, args.ell, alpha, beta, r)
        direct = lambda: det_B(data)
        lines += [
            f"k: {args.k}",
            f"ell: {args.ell}",
            f"alpha: {', '.join(map(format_rational, alpha))}",
            f"beta: {', '.join(map(format_rational, beta))}",
            f"r: {', '.join(map(format_rational, r))}",
        ]
        expand = args.k <= args.ell and all(x != 0 for x in alpha)
        cost = expansion_cost(data) if expand else 0
        if cost > EXPANSION_MAX_COST:
            raise ValueError(
                f"det --matrix B: the closed form sums C(ell, k) = {_count(math.comb(args.ell, args.k))} "
                f"terms, an estimated {_count(cost)} digit steps, above the bound {EXPANSION_MAX_COST:,}"
            )
        cost = elimination_cost(data)
        if cost > EXPANSION_MAX_COST:
            raise ValueError(
                f"det --matrix B: the direct side eliminates a {args.k} x {args.k} matrix of powers of degree "
                f"{_count(args.ell - 1)}, an estimated {_count(cost)} digit steps, above the bound "
                f"{EXPANSION_MAX_COST:,}"
            )
        if args.k > args.ell:
            closed_form = Rational(0)
        elif expand:
            closed_form = det_B_expansion(data)
        else:
            closed_form_note = "n/a (expansion needs every alpha_i nonzero)"

    closed_line = f"det_closed_form: {closed_form_note if closed_form is None else format_rational(closed_form)}"
    value = direct()
    agree = "n/a" if closed_form is None else "true" if closed_form == value else "false"
    lines += [f"det_direct: {format_rational(value)}", closed_line, f"agree: {agree}"]
    print("\n".join(lines))
    return 1 if agree == "false" else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degdet",
        description="Exact degree detection for equidistant interpolation data, "
        "plus verification sweeps for the underlying determinant identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_degree = sub.add_parser("degree", help="detect the interpolant degree for a problem file")
    p_degree.add_argument("--input", required=True, help="problem file (fields: ell, xi, h, values)")
    p_degree.add_argument("--mode", choices=DETECTION_MODES, default=MODE_CLOSED_FORM,
                          help="determinant route: closed-form sums or explicit matrices")
    p_degree.set_defaults(func=cmd_degree)

    suite_help = "; ".join(f"{name}: {spec.summary}" for name, spec in SUITES.items())
    p_verify = sub.add_parser("verify", help="run an identity-verification suite")
    p_verify.add_argument("--suite", required=True, choices=SUITE_NAMES, help=suite_help)
    p_verify.add_argument("--max-ell", type=int, default=None, help="override the suite's grid-size ceiling")
    p_verify.add_argument("--trials", type=int, default=None, help="override the per-cell random trial count")
    p_verify.add_argument("--seed", type=int, default=None,
                          help=f"seed for the trial stream (default: ${ENV_SEED} or {DEFAULT_SEED})")
    p_verify.add_argument("--json", action="store_true", help="emit one JSON document instead of key: value lines")
    p_verify.set_defaults(func=cmd_verify)

    p_det = sub.add_parser("det", help="print one exact determinant (direct and closed form)")
    p_det.add_argument("--matrix", required=True, choices=["A", "Asub", "B"])
    p_det.add_argument("--ell", type=int)
    p_det.add_argument("--s", type=int)
    p_det.add_argument("--a", help="comma-separated rational values (matrix A)")
    p_det.add_argument("--kappa", type=int, help="removed column, 1-based (matrix Asub)")
    p_det.add_argument("--k", type=int, help="matrix size (matrix B)")
    p_det.add_argument("--alpha", help="comma-separated rationals (matrix B)")
    p_det.add_argument("--beta", help="comma-separated rationals (matrix B)")
    p_det.add_argument("--r", help="comma-separated rationals, pairwise distinct (matrix B)")
    p_det.set_defaults(func=cmd_det)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ProblemFileError, ValueError) as exc:
        print(f"degdet: error: {exc}", file=sys.stderr)
        return 2


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
