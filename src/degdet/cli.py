"""Batch command-line front end.

Three subcommands: `degree` runs the determinant-based degree detector on a
problem file, `verify` replays the named identity suites with a seeded
generator, and `det` prints one exact determinant (direct and closed-form
routes, flagged if they ever disagree).

All rationals cross the I/O boundary as exact "p/q" strings; floats never
appear.  Exit codes: 0 all good, 1 verification failure, 2 usage or parse
error, 3 the report could not be written (stdout may hold part of it).
Report bytes on stdout are stable for fixed inputs and seed; wall times go to
stderr.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction

from .degreematrix import (AlternatingSums, _checked_values, det_A_from_cofactors, det_A_sub_closed_form,
                           det_A_sub_from_cofactors, power_row_cofactors)
from .exactnum import format_rational, parse_integer, parse_rational
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

    def field(name, parse, check=lambda value: ""):
        """The field parsed; a ValueError from parse or check, or a message
        from check (false for a good value), raises with the field's line."""
        lineno, text = raw[name]
        try:
            value = parse(text)
            message = check(value)
        except ValueError as exc:
            message = str(exc)
        if message:
            raise ProblemFileError(f"{source}: line {lineno}: field {name!r}: {message}")
        return value

    ell = field("ell", parse_integer, lambda ell: ell < 1 and f"must be >= 1, got {ell}")
    xi = field("xi", parse_rational)
    h = field("h", parse_rational, lambda h: h == 0 and "step must be nonzero")
    values = field("values", _parse_rationals, lambda values: len(values) != ell + 1
                   and f"expected ell+1 = {_count(ell + 1)} entries, got {len(values)}")
    return EquidistantProblem(ell, xi, h, values)


def load_problem_file(path: str) -> EquidistantProblem:
    try:
        with open(path, encoding="utf-8-sig") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from None
    return parse_problem_file(text, source=path)


def _parse_rationals(text: str) -> tuple[Fraction, ...]:
    """Comma-separated rational literals: the file's values and det's --a,
    --alpha, --beta and --r."""
    return tuple(map(parse_rational, text.split(",")))


def _option_rationals(args: argparse.Namespace, name: str) -> tuple[Fraction, ...]:
    try:
        return _parse_rationals(getattr(args, name))
    except ValueError as exc:
        raise ValueError(f"option --{name}: {exc}") from None


def _integer_flag(text: str) -> int:
    """parse_integer as an argparse type=, so that a bad value's error line
    carries parse_integer's message and not the function's name."""
    try:
        return parse_integer(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


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


def cmd_degree(args: argparse.Namespace) -> tuple[int, str]:
    problem = load_problem_file(args.input)
    if args.mode == MODE_MATRIX:
        _check_matrix_ell(problem.ell, f"degree --mode {MODE_MATRIX}")
    detection = detect_degree(problem, args.mode)
    # eq. 14 gives the coefficients n[k] / d of t**k with t = (x - xi)/h, so
    # the coefficient of (x - xi)**k is n[k] q^k / (d p^k) with h = p/q.
    normalized = interpolate_eq14(problem)
    nums = normalized.nums + (0,) * (problem.ell + 1 - len(normalized.nums))
    p, q = problem.h.numerator, problem.h.denominator
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
    lines += [f"b[{k}]: {format_rational(Fraction(n * q**k, normalized.den * p**k))}" for k, n in enumerate(nums)]
    return 0, "\n".join(lines)


def _resolve_seed(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return args.seed
    env_value = os.environ.get(ENV_SEED)
    if env_value is not None:
        try:
            return parse_integer(env_value)
        except ValueError:
            raise ValueError(f"environment variable {ENV_SEED} is not an integer: {env_value!r}") from None
    return DEFAULT_SEED


def _render_reports(reports: list, as_json: bool) -> str:
    """verify's stdout: one dict per report and a summary, rendered as one
    JSON document or as key: value blocks.  Elapsed times stay out, so the
    bytes are stable for a fixed seed."""
    documents = [{
        "suite": r.suite, "seed": r.seed, "max_ell": r.max_ell, "trials": r.trials,
        "cases_run": r.cases_run, "cases_passed": r.cases_passed, "notes": r.notes,
        "failures": [{"inputs": f.inputs, "expected": f.expected, "actual": f.actual} for f in r.failures],
        "status": "PASS" if r.passed else "FAIL",
    } for r in reports]
    suites_passed = sum(r.passed for r in reports)
    summary = {"suites_run": len(reports), "suites_passed": suites_passed,
               "status": "PASS" if suites_passed == len(reports) else "FAIL"}
    if as_json:
        import json  # only --json needs it: kept out of every command's start-up
        return json.dumps({"reports": documents, "summary": summary}, indent=2, sort_keys=True)
    blocks = []
    for document in documents:
        *header, (_, notes), (_, failures), (_, status) = document.items()
        lines = [f"{key}: {value}" for key, value in header]
        lines.append(f"failures: {len(failures)}")
        lines += [f"note[{i}]: {note}" for i, note in enumerate(notes)]
        lines += [f"failure[{i}].{key}: {value}"
                  for i, failure in enumerate(failures) for key, value in failure.items()]
        lines.append(f"status: {status}")
        blocks.append("\n".join(lines))
    if len(reports) > 1:
        blocks.append("\n".join(["summary: all", *(f"{key}: {value}" for key, value in summary.items())]))
    return "\n\n".join(blocks)


def cmd_verify(args: argparse.Namespace) -> tuple[int, str]:
    seed = _resolve_seed(args)
    if args.suite == "all":
        reports = run_all(args.max_ell, args.trials, seed)
    else:
        reports = [run_suite(args.suite, args.max_ell, args.trials, seed)]
    for report in reports:
        print(f"# elapsed[{report.suite}]: {report.elapsed_ms} ms", file=sys.stderr)
    return (0 if all(report.passed for report in reports) else 1), _render_reports(reports, args.json)


def _require(args: argparse.Namespace, names: list[str], kind: str) -> None:
    missing = [f"--{n.replace('_', '-')}" for n in names if getattr(args, n) is None]
    if missing:
        raise ValueError(f"matrix kind {kind!r} needs {', '.join(missing)}")


def cmd_det(args: argparse.Namespace) -> tuple[int, str]:
    lines = [f"matrix: {args.matrix}"]
    closed_form: Fraction | int | None = None
    closed_form_note = None

    # direct() runs last: bad arguments or an unprintable closed form exit first.
    if args.matrix == "A":
        _require(args, ["ell", "s", "a"], "A")
        _check_matrix_ell(args.ell, "det --matrix A")
        # ell, then s, then the length of a, before the vector is built
        a = _checked_values(args.ell, args.s, _option_rationals(args, "a"))
        closed_form = AlternatingSums(args.ell, a).det(args.s)
        direct = lambda: det_A_from_cofactors(power_row_cofactors(args.ell), args.s, a)
        lines += [f"ell: {args.ell}", f"s: {args.s}", f"a: {', '.join(map(format_rational, a))}"]
    elif args.matrix == "Asub":
        _require(args, ["ell", "kappa"], "Asub")
        _check_matrix_ell(args.ell, "det --matrix Asub")
        closed_form = det_A_sub_closed_form(args.ell, args.kappa)
        direct = lambda: det_A_sub_from_cofactors(power_row_cofactors(args.ell), args.kappa)
        lines += [f"ell: {args.ell}", f"kappa: {args.kappa}"]
    else:
        _require(args, ["k", "ell", "alpha", "beta", "r"], "B")
        alpha = _option_rationals(args, "alpha")
        beta = _option_rationals(args, "beta")
        r = _option_rationals(args, "r")
        data = AffineData(args.k, args.ell, alpha, beta, r)
        direct = lambda: det_B(data)
        lines += [
            f"k: {args.k}",
            f"ell: {args.ell}",
            f"alpha: {', '.join(map(format_rational, alpha))}",
            f"beta: {', '.join(map(format_rational, beta))}",
            f"r: {', '.join(map(format_rational, r))}",
        ]
        expand = args.k <= args.ell and all(alpha)
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
            closed_form = 0
        elif expand:
            closed_form = det_B_expansion(data)
        else:
            closed_form_note = "n/a (expansion needs every alpha_i nonzero)"

    closed_line = f"det_closed_form: {closed_form_note if closed_form is None else format_rational(closed_form)}"
    value = direct()
    agree = "n/a" if closed_form is None else "true" if closed_form == value else "false"
    lines += [f"det_direct: {format_rational(value)}", closed_line, f"agree: {agree}"]
    return (1 if agree == "false" else 0), "\n".join(lines)


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
    p_verify.add_argument("--max-ell", type=_integer_flag, default=None, help="override the suite's grid-size ceiling")
    p_verify.add_argument("--trials", type=_integer_flag, default=None, help="override the per-cell random trial count")
    p_verify.add_argument("--seed", type=_integer_flag, default=None,
                          help=f"seed for the trial stream (default: ${ENV_SEED} or {DEFAULT_SEED})")
    p_verify.add_argument("--json", action="store_true", help="emit one JSON document instead of key: value lines")
    p_verify.set_defaults(func=cmd_verify)

    p_det = sub.add_parser("det", help="print one exact determinant (direct and closed form)")
    p_det.add_argument("--matrix", required=True, choices=["A", "Asub", "B"])
    p_det.add_argument("--ell", type=_integer_flag)
    p_det.add_argument("--s", type=_integer_flag)
    p_det.add_argument("--a", help="comma-separated rational values (matrix A)")
    p_det.add_argument("--kappa", type=_integer_flag, help="removed column, 1-based (matrix Asub)")
    p_det.add_argument("--k", type=_integer_flag, help="matrix size (matrix B)")
    p_det.add_argument("--alpha", help="comma-separated rationals (matrix B)")
    p_det.add_argument("--beta", help="comma-separated rationals (matrix B)")
    p_det.add_argument("--r", help="comma-separated rationals, pairwise distinct (matrix B)")
    p_det.set_defaults(func=cmd_det)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # a command returns its whole report unwritten: if it fails, stdout stays empty
    try:
        code, report = args.func(args)
    except ValueError as exc:
        print(f"degdet: error: {exc}", file=sys.stderr)
        return 2
    try:
        print(report, flush=True)
    except OSError as exc:  # a full disk, say: not a failed verification
        print(f"degdet: error: cannot write the report: {exc}", file=sys.stderr)
        return 3
    return code


def console_entry() -> None:
    import signal  # as cmd_verify imports json: importing degdet.cli loads nothing more

    # a closed stdout (`| true`) ends the command as it ends cat, by
    # SIGPIPE, not by a traceback and exit 1, the code of a failed verification
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    code = main()
    if code == 3:  # drop the unwritten report, or the flush at exit fails again and exits 120
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    console_entry()
