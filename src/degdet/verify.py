"""Named verification suites.

Each suite replays one family of exact identities over seeded random data
(or exhaustively, where the domain is finite).  A suite is a generator over
(rng, max_ell, trials) that yields its cases and notes in a fixed order: a
case as (label, expected, actual), where label is a zero-argument callable
that formats the case's inputs, and a note as a str.  run_suite alone
counts the cases, compares each expected with its actual for equality and
records notes and failures in the VerifyReport.  It calls a failing case's
label before the stream resumes, since labels read the suite's loop
variables; passing cases format nothing.
Reports are fully deterministic for a fixed (seed, max_ell, trials): the
only randomness is the SplitMix64 stream, and cases are generated and
recorded in a fixed order.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable, Iterator
from fractions import Fraction

from .combinat import tau, tau_via_recurrence
from .degreematrix import (
    AlternatingSums,
    build_A,
    build_A_sub,
    det_A_from_cofactors,
    det_A_sub_closed_form,
    det_A_sub_from_cofactors,
    power_row_cofactors,
)
from .exactnum import (
    NEG_INF,
    Degree,
    NegativeInfinity,
    Poly,
    Record,
    det_integer_rows,
    format_rational,
    over_common_denominator,
    poly_shift_scale,
    trusted,
)
from .interp import (
    EquidistantProblem,
    GeneralProblem,
    K_quotient_via_tau,
    compare_general_expansion,
    derivative_at_left_node,
    detect_degree,
    equidistant_nodes,
    interpolate_eq14,
    newton_degree,
    newton_from_integer_form,
    poly_K,
)
from .rng import _DISTINCT_POSITIVE, _DISTINCT_SIGNED, _RATIONALS, SplitMix64
from .vandermonde import (
    AffineData,
    affine_row,
    det_B,
    det_B_expansion,
    det_B_expansion_complement,
    det_B_zero_check,
    regularity_check,
)

DEFAULT_SEED = 42


class CaseFailure(Record):
    __slots__ = _fields = ("inputs", "expected", "actual")


class VerifyReport:
    __slots__ = ("suite", "seed", "max_ell", "trials", "cases_run", "failures", "notes", "elapsed_ms")

    def __init__(self, suite: str, seed: int, max_ell: int, trials: int):
        self.suite, self.seed, self.max_ell, self.trials = suite, seed, max_ell, trials
        self.cases_run = self.elapsed_ms = 0
        self.failures: list[CaseFailure] = []
        self.notes: list[str] = []

    @property
    def cases_passed(self) -> int:
        return self.cases_run - len(self.failures)

    @property
    def passed(self) -> bool:
        return not self.failures


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, Fraction)):
        return format_rational(value)
    if isinstance(value, NegativeInfinity):
        return str(value)
    if isinstance(value, Poly):
        return _csv(value.coeffs) or "0"
    raise TypeError(f"no stable formatting for {type(value).__name__}")


def _csv(values) -> str:
    return ",".join(format_rational(v) for v in values)


def _random_problem(rng: SplitMix64, ell: int) -> EquidistantProblem:
    return trusted(EquidistantProblem, ell, rng.rational(), rng.rational(nonzero=True), *rng.rationals(ell + 1)[:3])


def _random_exact_degree_poly(rng: SplitMix64, degree: Degree) -> Poly:
    if isinstance(degree, NegativeInfinity):
        return Poly()
    return Poly([rng.rational() for _ in range(degree)] + [rng.rational(nonzero=True)])


def _random_affine(rng: SplitMix64, k: int, ell: int, nonzero_alpha: bool, nonzero_beta: bool) -> AffineData:
    alpha, _, _, alpha_pairs = rng.rationals(k, nonzero=nonzero_alpha)
    beta, _, _, beta_pairs = rng.rationals(k, nonzero=nonzero_beta)
    rows = map(affine_row, alpha, beta, alpha_pairs, beta_pairs)
    return trusted(AffineData, k, ell, rows, *rng.rationals(k, distinct=True)[:3])


def _random_regular_data(rng: SplitMix64, k: int, ell: int) -> AffineData:
    """Data satisfying the regularity hypotheses: each ratio alpha_i/beta_i
    positive, ratios pairwise distinct (so all cross products are nonzero),
    r positive and injective; each row is built in integer form as it is
    drawn, its values and their integer forms read from rng's tables."""
    drawn = {}  # reduced alpha_i / beta_i -> (alpha_i, beta_i, A_i, B_i, D_i)
    while len(drawn) < k:
        sign = -1 if rng.below(2) else 1
        _, d, (x, y), ((p, da), (q, db)) = rng.rationals(2, positive=True)
        g = math.gcd(x, y)
        if (x // g, y // g) not in drawn:
            drawn[x // g, y // g] = (_RATIONALS[9 + sign * p][da - 1], _RATIONALS[9 + sign * q][db - 1],
                                     sign * x, sign * y, d)
    return trusted(AffineData, k, ell, drawn.values(), *rng.rationals(k, positive=True, distinct=True)[:3])


def _suite_prop3(rng: SplitMix64, max_ell: int, trials: int) -> Iterator:
    """det A_sub(ell, kappa) by det_A_sub_from_cofactors, the signed
    last-row cofactors; kappa = 1 is eliminated on its own instead, its
    integer rows by det_integer_rows, so Bareiss stays checked against the
    closed form once per ell."""
    for ell in range(1, max_ell + 1):
        cofactors = power_row_cofactors(ell)
        for kappa in range(1, ell + 2):
            if kappa == 1:
                direct = det_integer_rows(build_A_sub(ell, kappa))
            else:
                direct = det_A_sub_from_cofactors(cofactors, kappa)
            yield (lambda: f"ell={ell} kappa={kappa}", direct, det_A_sub_closed_form(ell, kappa))


def _suite_prop2(rng: SplitMix64, max_ell: int, trials: int) -> Iterator:
    """AlternatingSums.det against the Laplace expansion along the last row,
    det_A_from_cofactors; (s, trial) = (0, 0) is eliminated on its own
    instead, once per ell: build_A's rational value row is cleared over its
    lcm, det_integer_rows runs on the integer rows, and one division by that
    lcm follows."""
    for ell in range(1, max_ell + 1):
        cofactors = power_row_cofactors(ell)
        for s in range(ell + 1):
            for trial in range(trials):
                a, common, numerators, _ = rng.rationals(ell + 1)
                if s == trial == 0:
                    rows = build_A(ell, s, a)
                    scale, rows[-1] = over_common_denominator(rows[-1])
                    direct = Fraction(det_integer_rows(rows), scale)
                else:
                    direct = det_A_from_cofactors(cofactors, s, a)
                yield (lambda: f"ell={ell} s={s} trial={trial} a={_csv(a)}", direct,
                       trusted(AlternatingSums, ell, common, numerators).det(s))


def _suite_prop6(rng: SplitMix64, max_ell: int, trials: int) -> Iterator:
    for ell in range(1, max_ell + 1):
        nodal = poly_K(ell)
        for j in range(ell + 1):
            rebuilt = K_quotient_via_tau(ell, j) * Poly.linear_root(j)
            yield (lambda: f"quotient ell={ell} j={j}", nodal, rebuilt)
        for m in range(ell):
            for j in range(1, ell + 1):
                yield (lambda: f"recurrence ell={ell} m={m} j={j}", tau(ell, m, j), tau_via_recurrence(ell, m, j))


def _affine_inputs(data: AffineData, trial: int) -> str:
    return (f"k={data.k} ell={data.ell} trial={trial} alpha={_csv(data.alpha)}"
            f" beta={_csv(data.beta)} r={_csv(data.r)}")


def _problem_inputs(problem: EquidistantProblem) -> str:
    return f"xi={format_rational(problem.xi)} h={format_rational(problem.h)} a={_csv(problem.a)}"


def _expansion_cases(rng: SplitMix64, max_ell: int, trials: int,
                     expansion: Callable[[AffineData], Fraction], nonzero_beta: bool) -> Iterator:
    """det B by elimination (det_B) against an expansion, for every 1 <= k <= ell."""
    for ell in range(1, max_ell + 1):
        for k in range(1, ell + 1):
            for trial in range(trials):
                data = _random_affine(rng, k, ell, nonzero_alpha=True, nonzero_beta=nonzero_beta)
                yield (lambda: _affine_inputs(data, trial), det_B(data), expansion(data))


def _suite_eq5(rng: SplitMix64, max_ell: int, trials: int) -> Iterator:
    yield "regime: alpha nonzero, beta unconstrained"
    yield from _expansion_cases(rng, max_ell, trials, det_B_expansion, nonzero_beta=False)
    zero_trials = max(1, trials // 10)
    for ell in range(1, max_ell + 1):
        for k in range(ell + 1, max_ell + 2):
            for trial in range(zero_trials):
                data = _random_affine(rng, k, ell, nonzero_alpha=False, nonzero_beta=False)
                yield (lambda: f"zero-band {_affine_inputs(data, trial)}", True, det_B_zero_check(data))


def _suite_eq5c(rng: SplitMix64, max_ell: int, trials: int) -> Iterator:
    yield "regime: alpha nonzero, beta nonzero"
    yield from _expansion_cases(rng, max_ell, trials, det_B_expansion_complement, nonzero_beta=True)


def _suite_eq10(rng: SplitMix64, max_ell: int, trials: int) -> Iterator:
    for ell in range(1, max_ell + 1):
        for s in range(ell + 1):
            for trial in range(trials):
                problem = _random_problem(rng, ell)
                oracle = newton_from_integer_form(*problem.integer_form).derivative(ell - s)(problem.xi)
                yield (lambda: f"ell={ell} s={s} trial={trial} {_problem_inputs(problem)}", oracle,
                       derivative_at_left_node(problem, s))


def _suite_eq14(rng: SplitMix64, max_ell: int, trials: int) -> Iterator:
    for ell in range(1, max_ell + 1):
        for trial in range(trials):
            problem = _random_problem(rng, ell)
            shifted = poly_shift_scale(newton_from_integer_form(*problem.integer_form), problem.xi, problem.h)
            yield (lambda: f"ell={ell} trial={trial} {_problem_inputs(problem)}", shifted, interpolate_eq14(problem))


def _suite_theorem1(rng: SplitMix64, max_ell: int, trials: int) -> Iterator:
    for ell in range(1, max_ell + 1):
        targets: list[Degree] = [NEG_INF, *range(ell + 1)]
        for target in targets:
            for trial in range(trials):
                poly = _random_exact_degree_poly(rng, target)
                xi = rng.rational()
                h = rng.rational(nonzero=True)
                problem = EquidistantProblem(ell, xi, h, [poly(x) for x in equidistant_nodes(ell, xi, h)])
                yield (lambda: f"constructed-degree ell={ell} target={target} trial={trial} {_problem_inputs(problem)}",
                       target, detect_degree(problem).degree)
    converse_trials = 20 * trials
    for ell in range(1, max_ell + 1):
        for trial in range(converse_trials):
            problem = _random_problem(rng, ell)
            yield (lambda: f"detector-vs-interpolant ell={ell} trial={trial} a={_csv(problem.a)}",
                   newton_degree(*problem.integer_form), detect_degree(problem).degree)


def _suite_theorem4(rng: SplitMix64, max_ell: int, trials: int) -> Iterator:
    for k in range(1, max_ell + 1):
        for ell in range(1, max_ell + 1):
            for trial in range(trials):
                data = _random_regular_data(rng, k, ell)
                yield (lambda: _affine_inputs(data, trial), k <= ell, regularity_check(data))


def _suite_remark5(rng: SplitMix64, max_ell: int, trials: int) -> Iterator:
    """Informational: the verbatim general-base-point expansion is compared
    against the interpolation oracle and every outcome is emitted as a note
    (match, exact constant ratio, or exact difference polynomial).  A case
    only fails if the comparison record is internally inconsistent."""
    for ell in range(1, max_ell + 1):
        grids: list[tuple[Fraction, ...]] = [tuple(Fraction(i) for i in range(ell + 1))]
        for _ in range(trials):
            grids.append(rng.rationals(ell + 1, distinct=True)[0])
        for grid_index, nodes in enumerate(grids):
            a = rng.rationals(ell + 1)[0]
            problem = GeneralProblem(nodes, a)
            comparison = compare_general_expansion(problem)
            inputs = f"ell={ell} grid={grid_index} nodes={_csv(nodes)} a={_csv(a)}"
            yield f"{inputs} outcome={comparison.outcome}"
            yield (lambda: inputs, comparison.formula, comparison.oracle + comparison.difference)
            if comparison.ratio is not None:
                yield (lambda: f"{inputs} ratio-consistency", comparison.formula, comparison.oracle * comparison.ratio)


class _SuiteSpec(Record):
    __slots__ = _fields = ("fn", "max_ell", "trials", "summary", "ell_cap", "cap_reason")

    # ell_cap is the largest max_ell the suite accepts, and cap_reason why: by
    # default the pairwise distinct draws that rng's rationals can serve
    # (remark5's nodes draw max_ell + 1 of them), above which the draws would
    # repeat forever.
    def __init__(self, fn: Callable[[SplitMix64, int, int], Iterator[tuple[Callable[[], str], object, object] | str]],
                 max_ell: int, trials: int, summary: str, ell_cap: int | None = None,
                 cap_reason: str = "its pairwise distinct random rationals run out above that"):
        super().__init__(fn, max_ell, trials, summary, ell_cap, cap_reason)


# eq5 and eq5c sum all C(ell, k) exponent sequences per case: at the default
# trials max_ell 10, 11 and 12 take 1.6, 3.9 and 9.2 s (eq5) and 1.9, 4.4 and
# 10.8 s (eq5c) (single unscaled runs on a shared 2-vCPU x86-64 VM).
_EXPANSION_CAP = 10
_EXPANSION_COST = "its expansion over all C(ell, k) exponent sequences takes about 4 s at 11 and 10 s at 12"


SUITES: dict[str, _SuiteSpec] = {
    "prop2": _SuiteSpec(_suite_prop2, 6, 100, "closed-form determinant vs fraction-free elimination on random value vectors"),
    "prop3": _SuiteSpec(_suite_prop3, 7, 1, "closed-form minor determinants vs direct evaluation, exhaustive"),
    "prop6": _SuiteSpec(_suite_prop6, 8, 1, "nodal-polynomial quotient and symmetric-sum recurrence, exhaustive"),
    "eq5": _SuiteSpec(_suite_eq5, 5, 50, "power-matrix determinant expansion vs direct determinant, plus the k > ell zero band",
                      ell_cap=_EXPANSION_CAP, cap_reason=_EXPANSION_COST),
    "eq5c": _SuiteSpec(_suite_eq5c, 5, 50, "complementary-index determinant expansion vs direct determinant",
                       ell_cap=_EXPANSION_CAP, cap_reason=_EXPANSION_COST),
    "eq10": _SuiteSpec(_suite_eq10, 6, 50, "closed-form derivative at the left node vs symbolic differentiation"),
    "eq14": _SuiteSpec(_suite_eq14, 6, 100, "normalized coefficient formula vs shifted direct interpolant"),
    "theorem1": _SuiteSpec(_suite_theorem1, 6, 25, "degree detector on constructed-degree inputs and against the direct interpolant"),
    "theorem4": _SuiteSpec(_suite_theorem4, 5, 200, "regularity (det nonzero iff k <= ell) under the stated hypotheses",
                           ell_cap=_DISTINCT_POSITIVE),
    "remark5": _SuiteSpec(_suite_remark5, 4, 5, "general-base-point expansion vs Newton interpolation oracle (informational)",
                          ell_cap=_DISTINCT_SIGNED - 1),
}

SUITE_NAMES = [*SUITES, "all"]


def _settings(name: str, max_ell: int | None, trials: int | None) -> tuple[_SuiteSpec, int, int]:
    """The suite's spec and its effective (max_ell, trials), validated."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; available: {', '.join(SUITE_NAMES)}")
    spec = SUITES[name]
    effective_max_ell = spec.max_ell if max_ell is None else max_ell
    effective_trials = spec.trials if trials is None else trials
    if effective_max_ell < 1:
        raise ValueError(f"max_ell must be >= 1, got {effective_max_ell}")
    if effective_trials < 1:
        raise ValueError(f"trials must be >= 1, got {effective_trials}")
    if spec.ell_cap is not None and effective_max_ell > spec.ell_cap:
        raise ValueError(
            f"suite {name!r} needs max_ell <= {spec.ell_cap}: {spec.cap_reason}, got {effective_max_ell}"
        )
    return spec, effective_max_ell, effective_trials


def run_suite(name: str, max_ell: int | None = None, trials: int | None = None, seed: int = DEFAULT_SEED) -> VerifyReport:
    spec, effective_max_ell, effective_trials = _settings(name, max_ell, trials)
    report = VerifyReport(name, seed, effective_max_ell, effective_trials)
    started = time.perf_counter()
    for item in spec.fn(SplitMix64(seed), effective_max_ell, effective_trials):
        if isinstance(item, str):
            report.notes.append(item)
            continue
        inputs, expected, actual = item
        report.cases_run += 1
        if expected != actual:
            report.failures.append(CaseFailure(inputs(), _fmt(expected), _fmt(actual)))
    report.elapsed_ms = int(round((time.perf_counter() - started) * 1000))
    return report


def run_all(max_ell: int | None = None, trials: int | None = None, seed: int = DEFAULT_SEED) -> list[VerifyReport]:
    """Run every suite in registry order; None parameters keep per-suite
    defaults.  Every suite's settings are checked before the first one runs."""
    for name in SUITES:
        _settings(name, max_ell, trials)
    return [run_suite(name, max_ell, trials, seed) for name in SUITES]
