import contextlib
import hashlib
import itertools
import json
import os
import signal
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import degdet
from degdet.cli import EXPANSION_MAX_COST, MATRIX_MAX_ELL, ProblemFileError, main, parse_problem_file
from degdet.degreematrix import AlternatingSums, alternating_weighted_sum, build_A_sub
from degdet import interp, verify
from degdet.exactnum import (
    Poly,
    det_fraction_free,
    det_integer_rows,
    format_rational,
    last_row_cofactors,
    parse_rational,
    poly_shift_scale,
)
from degdet.interp import (
    DegreeDetection,
    EquidistantProblem,
    GeneralExpansionComparison,
    equidistant_nodes,
    newton_interpolate,
)
from degdet.rng import SplitMix64
from degdet.vandermonde import AffineData, build_B
from degdet.verify import DEFAULT_SEED, SUITES, run_suite
from oracles import int_between, nonzero_rational_reference, positive_rational_reference, splitmix64_scalar
from test_records import run_stream


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class Eliminated(Exception):
    """Raised by a stubbed elimination: the run got past the size checks."""


@contextlib.contextmanager
def digit_limit(digits):
    """Run with the interpreter's int/str digit limit set to digits (4300
    is its default, 0 lifts it)."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def out_fields(text):
    fields = {}
    for line in text.splitlines():
        key, _, value = line.partition(":")
        fields[key.strip()] = value.strip()
    return fields


def det_B_argv(data):
    """The det --matrix B command line for an AffineData."""
    return ["det", "--matrix", "B", "--k", str(data.k), "--ell", str(data.ell),
            *(f"--{name}={','.join(map(format_rational, getattr(data, name)))}" for name in ("alpha", "beta", "r"))]


def problem_text(p):
    return (
        f"ell: {p.ell}\nxi: {format_rational(p.xi)}\nh: {format_rational(p.h)}\n"
        f"values: {', '.join(map(format_rational, p.a))}\n"
    )


# degree-7 data on an ell = 10 grid: q(x) = 1/3 - 2x + 5/4x^2 - 7/2x^4 + x^5 + 2/9x^6 - 1/5x^7
GOLDEN_PROBLEM = """\
ell: 10
xi: -3/2
h: 2/3
values: -25379/1920, 762991/839808, 2933303/4199040, -3109/5760, -19523089/4199040, -98446693/4199040, \
-119501/1152, -1854004717/4199040, -6905195041/4199040, -9986687/1920, -59702631913/4199040
"""

GOLDEN_REPORT = """\
ell: 10
xi: -3/2
h: 2/3
values: -25379/1920, 762991/839808, 2933303/4199040, -3109/5760, -19523089/4199040, -98446693/4199040, \
-119501/1152, -1854004717/4199040, -6905195041/4199040, -9986687/1920, -59702631913/4199040
mode: closed-form
degree: 7
witness_m: 3
det[0]: 0
det[1]: 0
det[2]: 0
det[3]: 1225900934312606149341923844924278460187450474951909008075789850188838516527101786308485165613056\
00000000000
b[0]: -25379/1920
b[1]: 13037/320
b[2]: -4957/160
b[3]: -111/16
b[4]: 161/8
b[5]: -209/20
b[6]: 209/90
b[7]: -1/5
b[8]: 0
b[9]: 0
b[10]: 0
"""


# all-equal data on an ell = 10 grid: degree 0, so matrix mode scans every s
MATRIX_PROBLEM = """\
ell: 10
xi: 5/7
h: -3/4
values: -7/3, -7/3, -7/3, -7/3, -7/3, -7/3, -7/3, -7/3, -7/3, -7/3, -7/3
"""

MATRIX_REPORT = """\
ell: 10
xi: 5/7
h: -3/4
values: -7/3, -7/3, -7/3, -7/3, -7/3, -7/3, -7/3, -7/3, -7/3, -7/3, -7/3
mode: matrix
degree: 0
witness_m: 10
det[0]: 0
det[1]: 0
det[2]: 0
det[3]: 0
det[4]: 0
det[5]: 0
det[6]: 0
det[7]: 0
det[8]: 0
det[9]: 0
det[10]: 2443661120233292648473373976815856633725218661593590495394826408403766777280390787317265546\
9232128000000000000
b[0]: -7/3
b[1]: 0
b[2]: 0
b[3]: 0
b[4]: 0
b[5]: 0
b[6]: 0
b[7]: 0
b[8]: 0
b[9]: 0
b[10]: 0
"""


class TestProblemFile:
    def test_parses_canonical_file(self):
        pf = parse_problem_file("ell: 3\nxi: 0\nh: 1\nvalues: 0, 1, 2, 3\n")
        assert pf.ell == 3
        assert pf.a == (0, 1, 2, 3)

    def test_comments_and_blank_lines_ignored(self):
        pf = parse_problem_file("# data\n\nell: 1\nxi: 1/2\nh: -2/3\nvalues: 4, 5\n")
        assert pf.h == parse_rational("-2/3")

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("ell: 2\nxi: 0\nh: 0\nvalues: 1, 2, 3\n", "step must be nonzero"),
            ("ell: 2\nxi: 0\nh: 1\nvalues: 1, 2\n", "expected ell+1 = 3 entries"),
            ("ell: 2\nxi: 0\nvalues: 1, 2, 3\n", "missing field 'h'"),
            ("ell: 2\nxi: 0.5\nh: 1\nvalues: 1, 2, 3\n", "field 'xi'"),
            ("ell: two\nxi: 0\nh: 1\nvalues: 1, 2, 3\n", "not an integer"),
            ("ell: 0_2\nxi: 0\nh: 1\nvalues: 1, 2, 3\n", "field 'ell': not an integer: '0_2'"),
            ("ell: 1_0\nxi: 0\nh: 1\nvalues: 1, 2, 3\n", "field 'ell': not an integer: '1_0'"),
            ("ell: -1\nxi: 0\nh: 1\nvalues: 1\n", "field 'ell': must be >= 1, got -1"),
            ("ell: 2\nxi: 0\nh: 1\nstep: 2\nvalues: 1, 2, 3\n", "unknown field 'step'"),
            ("ell: 2\nell: 2\nxi: 0\nh: 1\nvalues: 1, 2, 3\n", "duplicate field 'ell'"),
            ("just some text\n", "expected 'field: value'"),
        ],
    )
    def test_rejections_carry_context(self, text, fragment):
        with pytest.raises(ProblemFileError) as exc:
            parse_problem_file(text)
        assert fragment in str(exc.value)


# ell = 32 problems whose full reports are pinned below
ALL_EQUAL_32 = EquidistantProblem(32, Fraction(-5, 3), Fraction(7, 4), [Fraction(-11, 6)] * 33)
_PIN_RNG = SplitMix64(3232)
RANDOM_32 = EquidistantProblem(32, _PIN_RNG.rational(), _PIN_RNG.rational(nonzero=True),
                               [_PIN_RNG.rational() for _ in range(33)])


class TestDegreeCommand:
    def write(self, tmp_path, text):
        path = tmp_path / "problem.txt"
        path.write_text(text)
        return str(path)

    # sha256 and length of the report after its "input:" line, recorded when
    # each alternating sum was computed on its own and eq. 14 ran in Fractions
    @pytest.mark.parametrize(
        "problem,mode,size,digest",
        [
            (ALL_EQUAL_32, "closed-form", 2823, "70bbe6a529b06de40d7599629efe0b2825239afff3e256207d460a5a58743372"),
            (ALL_EQUAL_32, "matrix", 2818, "96d1e15f54850f372c747f7229c9555350eebb3aa6926e9b907f8b78aa07798b"),
            (RANDOM_32, "closed-form", 4285, "fb3b2c2187556b689b04731deae090e5ba26e5270ca1e55ca50646897960be55"),
            (RANDOM_32, "matrix", 4280, "5fb8d5b15d6f1b3393a74f831fac009cd25bd0002a3414f1838ae2ef1ce7bf38"),
        ],
    )
    def test_full_report_pinned_at_ell_32(self, capsys, tmp_path, problem, mode, size, digest):
        path = self.write(tmp_path, problem_text(problem))
        code, out, _ = run_cli(capsys, "degree", "--input", path, "--mode", mode)
        head, body = out.split("\n", 1)
        assert (code, head) == (0, f"input: {path}")
        assert (len(body.encode()), hashlib.sha256(body.encode()).hexdigest()) == (size, digest)

    # all-equal values make the detector read every sum, random ones only S_0
    @pytest.mark.parametrize("problem", [
        EquidistantProblem(12, Fraction(1, 3), -2, [Fraction(5, 7)] * 13),
        EquidistantProblem(12, -1, Fraction(3, 4), [Fraction(j * j - 7, j + 1) for j in range(13)]),
    ])
    @pytest.mark.parametrize("mode", ["closed-form", "matrix"])
    def test_one_sum_vector_per_report(self, capsys, tmp_path, monkeypatch, problem, mode):
        vectors = []
        single_sums = []

        class CountingSums(AlternatingSums):
            # both constructors, checked and trusted, build through _set
            def _set(self, ell, *parts):
                vectors.append(ell)
                super()._set(ell, *parts)

        def counting_single_sum(ell, s, a):
            single_sums.append(s)
            return alternating_weighted_sum(ell, s, a)

        monkeypatch.setattr("degdet.interp.AlternatingSums", CountingSums)
        for module in ("degdet.degreematrix", "degdet.interp", "degdet.cli"):
            monkeypatch.setattr(f"{module}.alternating_weighted_sum", counting_single_sum, raising=False)
        path = self.write(tmp_path, problem_text(problem))
        code, _, _ = run_cli(capsys, "degree", "--input", path, "--mode", mode)
        assert code == 0
        assert vectors == [12]
        assert single_sums == []

    def test_linear_data_report(self, capsys, tmp_path):
        path = self.write(tmp_path, "ell: 3\nxi: 0\nh: 1\nvalues: 0, 1, 2, 3\n")
        code, out, _ = run_cli(capsys, "degree", "--input", path)
        fields = out_fields(out)
        assert code == 0
        assert fields["degree"] == "1"
        assert fields["witness_m"] == "2"
        assert (fields["det[0]"], fields["det[1]"], fields["det[2]"]) == ("0", "0", "-3072")
        assert "det[3]" not in fields
        assert fields["b[1]"] == "1"

    def test_constant_data(self, capsys, tmp_path):
        path = self.write(tmp_path, "ell: 2\nxi: 0\nh: 1\nvalues: 5, 5, 5\n")
        code, out, _ = run_cli(capsys, "degree", "--input", path)
        fields = out_fields(out)
        assert code == 0
        assert fields["degree"] == "0"
        assert fields["witness_m"] == "2"

    def test_zero_vector(self, capsys, tmp_path):
        path = self.write(tmp_path, "ell: 1\nxi: 0\nh: 1\nvalues: 0, 0\n")
        code, out, _ = run_cli(capsys, "degree", "--input", path)
        fields = out_fields(out)
        assert code == 0
        assert fields["degree"] == "-inf"
        assert fields["witness_m"] == "none"

    def test_modes_agree(self, capsys, tmp_path):
        path = self.write(tmp_path, "ell: 3\nxi: -1/2\nh: 2/3\nvalues: 1, 0, -4, 2/5\n")
        _, out_closed, _ = run_cli(capsys, "degree", "--input", path, "--mode", "closed-form")
        _, out_matrix, _ = run_cli(capsys, "degree", "--input", path, "--mode", "matrix")
        closed = {k: v for k, v in out_fields(out_closed).items() if k != "mode"}
        matrix = {k: v for k, v in out_fields(out_matrix).items() if k != "mode"}
        assert closed == matrix

    def test_rationals_round_trip(self, capsys, tmp_path):
        path = self.write(tmp_path, "ell: 2\nxi: 1/3\nh: -5/7\nvalues: 2/9, -1, 4\n")
        _, out, _ = run_cli(capsys, "degree", "--input", path)
        fields = out_fields(out)
        for key, value in fields.items():
            if key.startswith(("det[", "b[")) or key in ("xi", "h"):
                assert format_rational(parse_rational(value)) == value
        assert [parse_rational(v) for v in fields["values"].split(",")] == [
            parse_rational("2/9"),
            parse_rational("-1"),
            parse_rational("4"),
        ]

    def test_b_k_match_lagrange_oracle(self, capsys, tmp_path):
        rng = SplitMix64(31)
        problems = []
        for ell in range(1, 13):
            xi = Fraction(int_between(rng, -9, 9), 2 * int_between(rng, 1, 4) + 1)
            h = -positive_rational_reference(rng) if ell % 2 else positive_rational_reference(rng)
            problems.append(EquidistantProblem(ell, xi, h, [rng.rational() for _ in range(ell + 1)]))
            drop = Poly([rng.rational() for _ in range(ell // 2)] + [rng.rational(nonzero=True)])
            problems.append(EquidistantProblem(ell, xi, h, [drop(node) for node in equidistant_nodes(ell, xi, h)]))
            problems.append(EquidistantProblem(ell, xi, h, [0] * (ell + 1)))
        for p in problems:
            path = self.write(tmp_path, problem_text(p))
            code, out, _ = run_cli(capsys, "degree", "--input", path)
            fields = out_fields(out)
            oracle = poly_shift_scale(newton_interpolate(equidistant_nodes(p.ell, p.xi, p.h), p.a), p.xi, 1)
            assert code == 0
            assert fields["degree"] == str(oracle.degree)
            coeffs = oracle.coeffs + (0,) * (p.ell + 1 - len(oracle.coeffs))
            for k in range(p.ell + 1):
                assert parse_rational(fields[f"b[{k}]"]) == coeffs[k]

    def test_golden_report(self, capsys, tmp_path):
        path = self.write(tmp_path, GOLDEN_PROBLEM)
        code, out, _ = run_cli(capsys, "degree", "--input", path)
        assert code == 0
        assert out == f"input: {path}\n" + GOLDEN_REPORT

    def test_matrix_mode_report(self, capsys, tmp_path):
        path = self.write(tmp_path, MATRIX_PROBLEM)
        code, out, _ = run_cli(capsys, "degree", "--input", path, "--mode", "matrix")
        assert code == 0
        assert out == f"input: {path}\n" + MATRIX_REPORT

    def test_matrix_mode_refuses_ell_past_the_cap(self, capsys, tmp_path, monkeypatch):
        def no_elimination(ell):
            raise AssertionError("eliminated past the cap")

        monkeypatch.setattr("degdet.interp.power_row_cofactors", no_elimination)
        ell = MATRIX_MAX_ELL + 1
        path = self.write(tmp_path, problem_text(EquidistantProblem(ell, 0, 1, [1] * (ell + 1))))
        code, out, err = run_cli(capsys, "degree", "--input", path, "--mode", "matrix")
        assert (code, out) == (2, "")
        assert err.startswith(f"degdet: error: degree --mode matrix takes ell <= 45, got {ell}: ")
        assert "from ell = 46 on, sigma_ell has more than 4,300 digits" in err
        assert "degree --mode closed-form" in err

    def test_matrix_mode_at_the_cap_reaches_the_elimination(self, tmp_path, monkeypatch):
        def stub(ell):
            raise Eliminated(ell)

        monkeypatch.setattr("degdet.interp.power_row_cofactors", stub)
        path = self.write(tmp_path, problem_text(EquidistantProblem(MATRIX_MAX_ELL, 0, 1, [1] * (MATRIX_MAX_ELL + 1))))
        with pytest.raises(Eliminated, match="^45$"):
            main(["degree", "--input", path, "--mode", "matrix"])

    def test_bad_file_exits_2(self, capsys, tmp_path):
        path = self.write(tmp_path, "ell: 2\nxi: 0\nh: 0\nvalues: 1, 2, 3\n")
        code, _, err = run_cli(capsys, "degree", "--input", path)
        assert code == 2
        assert "step must be nonzero" in err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "degree", "--input", str(tmp_path / "nope.txt"))
        assert code == 2
        assert "cannot read" in err

    def test_non_utf8_file_exits_2_naming_the_file(self, capsys, tmp_path):
        path = tmp_path / "problem.txt"
        path.write_bytes(b"ell: 2\nxi: 0\nh: 1\nvalues: 1, \xff, 3\n")
        code, out, err = run_cli(capsys, "degree", "--input", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"degdet: error: cannot read {path}: 'utf-8' codec can't decode byte 0xff")

    def test_byte_order_mark_is_skipped(self, capsys, tmp_path):
        path = tmp_path / "problem.txt"
        path.write_text(GOLDEN_PROBLEM, encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbfell:")
        code, out, _ = run_cli(capsys, "degree", "--input", str(path))
        assert code == 0
        assert out == f"input: {path}\n" + GOLDEN_REPORT

    def test_failed_report_writes_nothing(self, capsys, tmp_path, monkeypatch):
        # Degree 5 on ell = 5: eight header values and det[0] come first,
        # so the 12th formatted value is b[2], half-way through the report.
        path = self.write(tmp_path, "ell: 5\nxi: 0\nh: 1\nvalues: 0, 1, 32, 243, 1024, 3125\n")
        calls = []

        def failing_format(value):
            calls.append(value)
            if len(calls) == 12:
                raise ValueError("formatting failed")
            return format_rational(value)

        monkeypatch.setattr("degdet.cli.format_rational", failing_format)
        code, out, err = run_cli(capsys, "degree", "--input", path)
        assert len(calls) == 12
        assert code == 2
        assert out == ""
        assert "formatting failed" in err


class TestDetCommand:
    def test_submatrix(self, capsys):
        code, out, _ = run_cli(capsys, "det", "--matrix", "Asub", "--ell", "2", "--kappa", "2")
        fields = out_fields(out)
        assert code == 0
        assert fields["det_direct"] == "-6"
        assert fields["det_closed_form"] == "-6"
        assert fields["agree"] == "true"

    def test_full_matrix(self, capsys):
        code, out, _ = run_cli(capsys, "det", "--matrix", "A", "--ell", "2", "--s", "0", "--a", "1,1,1")
        fields = out_fields(out)
        assert code == 0
        assert fields["det_direct"] == "0"
        assert fields["det_closed_form"] == "0"

    def test_wide_affine_matrix_is_singular(self, capsys):
        code, out, _ = run_cli(
            capsys, "det", "--matrix", "B", "--k", "2", "--ell", "1",
            "--alpha", "1,2", "--beta", "1,1", "--r", "0,1",
        )
        fields = out_fields(out)
        assert code == 0
        assert fields["det_direct"] == "0"
        assert fields["det_closed_form"] == "0"
        assert fields["agree"] == "true"

    def test_expansion_unavailable_with_zero_alpha(self, capsys):
        code, out, _ = run_cli(
            capsys, "det", "--matrix", "B", "--k", "2", "--ell", "3",
            "--alpha", "0,3", "--beta", "1,1", "--r", "2,3",
        )
        fields = out_fields(out)
        assert code == 0
        assert fields["det_direct"] == "-81"
        assert fields["det_closed_form"].startswith("n/a")
        assert fields["agree"] == "n/a"

    def test_missing_parameters_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "det", "--matrix", "Asub", "--ell", "2")
        assert code == 2
        assert "--kappa" in err

    def test_negative_s_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "det", "--matrix", "A", "--ell", "2", "--s", "-1", "--a", "1,1,1")
        assert code == 2
        assert out == ""
        assert err == "degdet: error: degree matrix needs s >= 0, got -1\n"

    def test_full_matrix_at_a_large_s(self, capsys):
        # each side costs ell + 1 powers j^s, not a pass over every s below
        with digit_limit(0):
            code, out, _ = run_cli(capsys, "det", "--matrix", "A", "--ell", "2", "--s", "100000", "--a", "1,1,1")
            expected = str(-3 * (2**100000 - 2))
        fields = out_fields(out)
        assert (code, fields["agree"]) == (0, "true")
        assert fields["det_closed_form"] == expected

    def test_invalid_data_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "det", "--matrix", "B", "--k", "2", "--ell", "2",
            "--alpha", "1,2", "--beta", "1,1", "--r", "3,3",
        )
        assert code == 2
        assert "injective" in err

    # ell = 30 takes the Bareiss pivots past exactnum.CONTENT_BITS
    @pytest.mark.parametrize("kappa", [1, 2, 31])
    def test_submatrix_past_the_content_gate(self, capsys, kappa):
        code, out, _ = run_cli(capsys, "det", "--matrix", "Asub", "--ell", "30", "--kappa", str(kappa))
        assert (code, out_fields(out)["agree"]) == (0, "true")

    def test_full_matrix_past_the_content_gate(self, capsys):
        rng = SplitMix64(30)
        a = ",".join(format_rational(rng.rational()) for _ in range(31))
        code, out, _ = run_cli(capsys, "det", "--matrix", "A", "--ell", "30", "--s", "0", f"--a={a}")
        fields = out_fields(out)
        assert (code, fields["agree"]) == (0, "true")
        assert fields["det_direct"] != "0"

    MATRIX_ARGS = {
        "A": lambda ell: ["--s", "0", "--a", ",".join(["1"] * (ell + 1))],
        "Asub": lambda ell: ["--kappa", "1"],
    }
    # the elimination each kind's direct side runs
    ELIMINATION = {"A": "degdet.cli.power_row_cofactors", "Asub": "degdet.cli.power_row_cofactors"}

    @pytest.mark.parametrize("kind", ["A", "Asub"])
    def test_matrix_past_the_cap_exits_2(self, capsys, monkeypatch, kind):
        def no_elimination(arg):
            raise AssertionError("eliminated past the cap")

        monkeypatch.setattr(self.ELIMINATION[kind], no_elimination)
        ell = MATRIX_MAX_ELL + 1
        code, out, err = run_cli(capsys, "det", "--matrix", kind, "--ell", str(ell), *self.MATRIX_ARGS[kind](ell))
        assert (code, out) == (2, "")
        assert err.startswith(f"degdet: error: det --matrix {kind} takes ell <= 45, got {ell}: ")
        assert "degree --mode closed-form" in err

    # at the cap both closed forms print under the default digit limit
    @pytest.mark.parametrize("kind", ["A", "Asub"])
    def test_matrix_at_the_cap_reaches_the_elimination(self, monkeypatch, kind):
        def stub(arg):
            raise Eliminated(kind)

        monkeypatch.setattr(self.ELIMINATION[kind], stub)
        ell = MATRIX_MAX_ELL
        with digit_limit(4300), pytest.raises(Eliminated):
            main(["det", "--matrix", kind, "--ell", str(ell), *self.MATRIX_ARGS[kind](ell)])

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["A", "--ell", "45", "--s", "0", "--a", "1,2"], "value vector must have ell+1 = 46 entries, got 2"),
            (["A", "--ell", "45", "--s", "-1", "--a", ",".join(["1"] * 46)], "degree matrix needs s >= 0, got -1"),
            # s is checked before the length of --a
            (["A", "--ell", "2", "--s", "-1", "--a", "1,2"], "degree matrix needs s >= 0, got -1"),
            (["Asub", "--ell", "45", "--kappa", "0"], "column index kappa=0 outside [1, 46]"),
            (["Asub", "--ell", "0", "--kappa", "1"], "submatrix needs ell >= 1, got 0"),
            # sigma_ell(45) * 10^300 has more digits than the interpreter's
            # default limit; every Asub closed form up to the cap prints
            (["A", "--ell", "45", "--s", "0", "--a", ",".join(["1" + "0" * 300] + ["0"] * 45)],
             "Exceeds the limit (4300 digits) for integer string conversion"),
        ],
        ids=["A-short-values", "A-negative-s", "A-negative-s-short-values", "Asub-kappa-0", "Asub-ell-0", "A-unprintable"],
    )
    def test_fails_before_any_elimination(self, capsys, monkeypatch, argv, message):
        def no_elimination(arg):
            raise AssertionError("eliminated before the closed form was checked")

        for target in self.ELIMINATION.values():
            monkeypatch.setattr(target, no_elimination)
        with digit_limit(4300):
            code, out, err = run_cli(capsys, "det", "--matrix", *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"degdet: error: {message}")

    @pytest.mark.parametrize(
        "k,ell,terms",
        [(6, 40, "3,838,380"), (1, 10**6, "1,000,000"), (2, 10**40, "more than 10^30")],
        ids=["k6-ell40", "k1-huge-ell", "uncountable"],
    )
    def test_B_past_the_cost_bound_exits_2(self, capsys, monkeypatch, k, ell, terms):
        def no_work(data):
            raise AssertionError("expanded or eliminated past the cost bound")

        monkeypatch.setattr("degdet.cli.det_B", no_work)
        monkeypatch.setattr("degdet.cli.det_B_expansion", no_work)
        code, out, err = run_cli(capsys, *det_B_argv(AffineData(k, ell, range(1, k + 1), [1] * k, range(k))))
        assert (code, out) == (2, "")
        assert err.startswith(f"degdet: error: det --matrix B: the closed form sums C(ell, k) = {terms} terms, ")
        assert err.endswith(f" digit steps, above the bound {EXPANSION_MAX_COST:,}\n")

    @pytest.mark.parametrize(
        "k,ell,alpha,degree",
        [
            (60, 60, [0, *range(2, 61)], "59"),
            (60, 50, range(1, 61), "49"),
            (2, 10**40, [0, 1], "more than 10^30"),
        ],
        ids=["zero-alpha", "k-above-ell", "zero-alpha-huge-ell"],
    )
    def test_B_past_the_elimination_bound_exits_2(self, capsys, monkeypatch, k, ell, alpha, degree):
        # no expansion (a zero alpha_i, or k > ell with its closed form 0),
        # but the direct side's Bareiss on k x k powers would take minutes
        def no_work(data):
            raise AssertionError("expanded or eliminated past the cost bound")

        monkeypatch.setattr("degdet.cli.det_B", no_work)
        monkeypatch.setattr("degdet.cli.det_B_expansion", no_work)
        data = AffineData(k, ell, alpha, [1] * k, [Fraction(1, j) for j in range(1, k + 1)])
        code, out, err = run_cli(capsys, *det_B_argv(data))
        assert (code, out) == (2, "")
        assert err.startswith(f"degdet: error: det --matrix B: the direct side eliminates a {k} x {k} matrix "
                              f"of powers of degree {degree}, an estimated ")
        assert err.endswith(f" digit steps, above the bound {EXPANSION_MAX_COST:,}\n")

    # zero alpha means no expansion and k > ell a closed form of 0, so the
    # expansion bound never applies; both print even where C(ell, k) is
    # large, since their eliminations are small
    @pytest.mark.parametrize(
        "ell,alpha,closed_form",
        [(40, [0, 2, 3, 4, 5, 6], "n/a (expansion needs every alpha_i nonzero)"), (5, [1, 2, 3, 4, 5, 6], "0")],
    )
    def test_B_without_an_expansion_skips_the_expansion_bound(self, capsys, ell, alpha, closed_form):
        data = AffineData(6, ell, alpha, [1] * 6, range(6))
        code, out, _ = run_cli(capsys, *det_B_argv(data))
        fields = out_fields(out)
        assert code == 0
        assert fields["det_closed_form"] == closed_form
        assert parse_rational(fields["det_direct"]) == det_fraction_free(build_B(data))


class TestDetDirectSides:
    """det's direct sides are the integer routes the suites check; the
    Fraction-matrix elimination is computed here, as the oracle."""

    @pytest.mark.parametrize("ell", range(1, 11))
    def test_submatrix_matches_the_fraction_elimination(self, capsys, ell):
        for kappa in range(1, ell + 2):
            code, out, _ = run_cli(capsys, "det", "--matrix", "Asub", "--ell", str(ell), "--kappa", str(kappa))
            assert code == 0
            assert parse_rational(out_fields(out)["det_direct"]) == det_fraction_free(build_A_sub(ell, kappa))

    def test_affine_matrix_matches_the_fraction_elimination(self, capsys):
        rng = SplitMix64(19)
        for ell in range(1, 7):
            for k in range(1, ell + 2):
                for trial in range(3):
                    alpha = [rng.rational() for _ in range(k)]
                    beta = [rng.rational() for _ in range(k)]
                    # trial 1 zeroes an alpha (no expansion), trial 2 a beta
                    if trial == 1:
                        alpha[-1] = Fraction(0)
                    if trial == 2:
                        beta[0] = Fraction(0)
                    data = AffineData(k, ell, alpha, beta, rng.rationals(k, distinct=True)[0])
                    code, out, _ = run_cli(capsys, *det_B_argv(data))
                    fields = out_fields(out)
                    assert code == 0
                    assert fields["agree"] == ("n/a" if 0 in data.alpha and k <= ell else "true")
                    assert parse_rational(fields["det_direct"]) == det_fraction_free(build_B(data))


class TestNoFractionMatrix:
    """degree, det and verify build no Fraction matrix: with every
    det_fraction_free and build_B forbidden, each report keeps its bytes."""

    def test_reports_unchanged_with_the_fraction_matrix_layer_forbidden(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "golden.txt"
        path.write_text(GOLDEN_PROBLEM, encoding="utf-8")
        runs = [
            ["degree", "--input", str(path), "--mode", "closed-form"],
            ["degree", "--input", str(path), "--mode", "matrix"],
            ["det", "--matrix", "A", "--ell", "4", "--s", "3", "--a", "1/2,3,-7,0,5/3"],
            ["det", "--matrix", "Asub", "--ell", "12", "--kappa", "5"],
            ["det", "--matrix", "B", "--k", "3", "--ell", "4", "--alpha", "1/2,2,-3", "--beta", "0,1,5/7",
             "--r", "1/3,2,5"],
            ["det", "--matrix", "B", "--k", "2", "--ell", "3", "--alpha", "0,3", "--beta", "1,1", "--r", "2,3"],
            ["det", "--matrix", "B", "--k", "4", "--ell", "2", "--alpha", "1,2,3,4", "--beta", "1,0,1,2",
             "--r", "1,2,3,4"],
            ["verify", "--suite", "all", "--max-ell", "3", "--trials", "2"],
        ]
        expected = [run_cli(capsys, *argv)[:2] for argv in runs]
        assert [code for code, _ in expected] == [0] * len(runs)

        def forbidden(*args, **kwargs):
            raise AssertionError("a production route built a Fraction matrix")

        patched = []
        for name, module in list(sys.modules.items()):
            if name == "degdet" or name.startswith("degdet."):
                for builder in ("det_fraction_free", "build_B"):
                    if hasattr(module, builder):
                        monkeypatch.setattr(module, builder, forbidden)
                        patched.append(f"{name}.{builder}")
        assert {"degdet.exactnum.det_fraction_free", "degdet.vandermonde.build_B"} <= set(patched)
        assert [run_cli(capsys, *argv)[:2] for argv in runs] == expected


class TestDrawnDataSkipsTheCheckedConstructors:
    """verify's drawers build their problems and affine data on trusted
    paths: with the checked constructors forbidden, the suites that draw
    them still run every case and pass."""

    def test_reports_unchanged_with_the_checked_constructors_forbidden(self, monkeypatch):
        suites = ("eq10", "eq14", "eq5", "eq5c")
        expected = [run_suite(name, seed=31) for name in suites]
        assert all(report.passed for report in expected)

        def forbidden(self, *args, **kwargs):
            raise AssertionError("a drawer went through a checked constructor")

        monkeypatch.setattr(EquidistantProblem, "__init__", forbidden)
        monkeypatch.setattr(AffineData, "__init__", forbidden)
        for name, report in zip(suites, expected):
            patched = run_suite(name, seed=31)
            assert patched.passed and (patched.cases_run, patched.notes) == (report.cases_run, report.notes)


class TestVerifyCommand:
    def test_suite_case_count_example(self):
        report = run_suite("prop3", max_ell=6)
        assert report.cases_run == 27
        assert report.passed

    def test_unknown_suite_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "nosuch"])
        assert exc.value.code == 2
        assert "choose from" in capsys.readouterr().err

    def test_run_suite_unknown_name(self):
        with pytest.raises(ValueError) as exc:
            run_suite("nosuch")
        assert "available" in str(exc.value)

    def test_stdout_is_byte_stable(self, capsys):
        args = ["verify", "--suite", "theorem1", "--max-ell", "2", "--trials", "3", "--seed", "7"]
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert "elapsed" not in out1  # timing must never reach stdout

    # sha256 of the full stdout at seed 7 and default sizes, recorded from
    # the Lagrange oracle the suites used before the Newton oracle replaced it.
    @pytest.mark.parametrize(
        "suite,digest",
        [
            ("eq10", "5ba969eee6adfc60ea9de094a88d1e2e5b9cf6cddbcb46a189f5f2c3dcecabc6"),
            ("eq14", "362c8f37bf6303793c7aecc677a87ec720fd40538b6b3806f4dc7cc1abe760f9"),
            ("theorem1", "ad3289e70d65054e637e9e0b2a875096cae662b9bc491648fee9f7545730382b"),
            ("remark5", "55f1fc3150de529a3d5d4ac6b935cdf793a1bdc4a2f324fd35fb85838f63a4cc"),
        ],
    )
    def test_oracle_suites_pinned(self, capsys, suite, digest):
        code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--seed", "7")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # sha256 of the full stdout at seed 7 and default sizes, recorded from
    # the Fraction-entry B and Vandermonde determinants before they moved to
    # integer numerators; prop3 and prop6 were recorded before eq. 5, Poly
    # evaluation and the theorem 1 and 4 data paths moved to per-case ints.
    @pytest.mark.parametrize(
        "suite,digest",
        [
            ("prop2", "5233abdb580790820f4de24d1e38486f3a1239ca48cd35cf46e4771044ce0052"),
            ("prop3", "70ede84b92923178a31d8dd1cd75f007237fc4b99149fa7e842f3a21fceae46c"),
            ("prop6", "e84d1f1e43778a2409af897eb2ae41159eaee439d9049b79b66097c379834b43"),
            ("eq5", "52d2d5a5b340367ff6fbd845b50a0c39ff87c2571598fa12562a4c233563f4e7"),
            ("eq5c", "8245886a7c895f2a5f26c17c986e2441012cf25c0f85bd3abf39b6bd23b3593a"),
            ("theorem4", "fdf2f21e353577effed6320abf0de4a5d660971e84702d74d831e016aea289c1"),
        ],
    )
    def test_integer_route_suites_pinned(self, capsys, suite, digest):
        code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--seed", "7")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # sha256 of `verify --suite all --seed 42` stdout, plain and --json,
    # recorded before eq. 5, Poly evaluation and the theorem 1 and 4 data
    # paths moved to per-case ints.
    @pytest.mark.parametrize(
        "flags,digest",
        [
            ([], "dbdca94d2fe30bf2b36f6f743d40ef5563e26e96763107c29ccc827d883bae97"),
            (["--json"], "0ae62d02298b5a144be1a11d1b5e9aca4b4a8882cd12a73cc79644fd43a08ae6"),
        ],
        ids=["plain", "json"],
    )
    def test_all_suites_pinned(self, capsys, flags, digest):
        code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--seed", "42", *flags)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @staticmethod
    def wrong_derivative_every_fifth_call(monkeypatch):
        """Make eq. 10's closed form off by one on every 5th call from now on."""
        calls = itertools.count(1)

        def every_fifth_wrong(problem, s):
            value = interp.derivative_at_left_node(problem, s)
            return value + 1 if next(calls) % 5 == 0 else value

        monkeypatch.setattr(verify, "derivative_at_left_node", every_fifth_wrong)

    # sha256 of the stdout of failing runs at the default seed, plain and
    # --json, recorded while the report layout was written in verify.py.
    @pytest.mark.parametrize(
        "suite,flags,digest",
        [
            ("eq10", [], "529827263efc914ad10465bfe391f355e394f1154575fb5332a104e482c68fac"),
            ("eq10", ["--json"], "d6293267dbdcb29e06dc3339226d4949b732c375289ac4f0e9bb482bf0fef390"),
            ("all", [], "155c2327936926aab7477288a0aee4ec637f29ae6929709156f1c0b4bb457626"),
            ("all", ["--json"], "d39b0b4fd9fe8cff2db9fef716c4f3f82b53cef164757a6ec0711092e0743481"),
        ],
        ids=["eq10-plain", "eq10-json", "all-plain", "all-json"],
    )
    def test_failing_runs_pinned(self, capsys, monkeypatch, suite, flags, digest):
        self.wrong_derivative_every_fifth_call(monkeypatch)
        code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--max-ell", "2", "--trials", "2", *flags)
        assert code == 1
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("suite,wrong", [("remark5", False), ("all", True)], ids=["remark5-notes", "all-failing"])
    def test_text_and_json_carry_the_same_fields(self, capsys, monkeypatch, suite, wrong):
        outputs = []
        for flags in ([], ["--json"]):
            if wrong:
                self.wrong_derivative_every_fifth_call(monkeypatch)
            code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--max-ell", "2", "--trials", "2", *flags)
            assert code == (1 if wrong else 0)
            outputs.append(out)
        text, document = outputs[0], json.loads(outputs[1])
        reports, summary = document["reports"], document["summary"]
        assert any(report["notes"] for report in reports)
        assert any(report["failures"] for report in reports) == wrong

        # each report's block holds exactly its JSON fields, one per line,
        # plus the failure count
        blocks = [block.splitlines() for block in text.rstrip("\n").split("\n\n")]
        assert len(blocks) == len(reports) + (len(reports) > 1)
        for report, block in zip(reports, blocks):
            lines = [f"failures: {len(report['failures'])}"]
            for key, value in report.items():
                if key == "notes":
                    lines += [f"note[{i}]: {note}" for i, note in enumerate(value)]
                elif key == "failures":
                    lines += [f"failure[{i}].{field}: {part}"
                              for i, failure in enumerate(value) for field, part in failure.items()]
                else:
                    lines.append(f"{key}: {value}")
            assert sorted(block) == sorted(lines)
        assert summary == {"suites_run": len(reports), "status": "FAIL" if wrong else "PASS",
                           "suites_passed": sum(report["status"] == "PASS" for report in reports)}
        if len(reports) > 1:
            assert blocks[-1] == ["summary: all", *(f"{key}: {summary[key]}"
                                                    for key in ("suites_run", "suites_passed", "status"))]

    def test_report_fields(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "prop6", "--max-ell", "4")
        fields = out_fields(out)
        assert code == 0
        assert fields["suite"] == "prop6"
        assert fields["status"] == "PASS"
        assert int(fields["cases_run"]) == int(fields["cases_passed"])
        assert "elapsed[prop6]" in err

    def test_json_document(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "eq5", "--max-ell", "2", "--trials", "2", "--json"
        )
        assert code == 0
        document = json.loads(out)
        assert document["summary"]["status"] == "PASS"
        assert document["reports"][0]["suite"] == "eq5"
        assert document["reports"][0]["failures"] == []

    def test_seed_from_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("DEGDET_SEED", "99")
        _, out, _ = run_cli(capsys, "verify", "--suite", "prop3", "--max-ell", "2")
        assert out_fields(out)["seed"] == "99"

    def test_flag_overrides_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("DEGDET_SEED", "99")
        _, out, _ = run_cli(capsys, "verify", "--suite", "prop3", "--max-ell", "2", "--seed", "5")
        assert out_fields(out)["seed"] == "5"

    def test_bad_environment_seed_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("DEGDET_SEED", "many")
        code, _, err = run_cli(capsys, "verify", "--suite", "prop3", "--max-ell", "2")
        assert code == 2
        assert "DEGDET_SEED" in err

    def test_default_seed_without_environment(self, capsys, monkeypatch):
        monkeypatch.delenv("DEGDET_SEED", raising=False)
        _, out, _ = run_cli(capsys, "verify", "--suite", "prop3", "--max-ell", "2")
        assert out_fields(out)["seed"] == str(DEFAULT_SEED)

    def test_remark5_emits_outcomes_without_failing(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "remark5", "--max-ell", "2", "--trials", "2")
        fields = out_fields(out)
        assert code == 0
        assert fields["status"] == "PASS"
        notes = [line for line in out.splitlines() if line.startswith("note[")]
        assert notes, "comparison outcomes must be emitted"
        assert any("outcome=proportional ratio=-1" in n for n in notes)  # odd-size grids show the sign flip

    @staticmethod
    def verify_in_subprocess(*options, stdout=subprocess.PIPE):
        # with a timeout, so a run that never ends fails the test instead of
        # hanging it
        package_root = str(Path(degdet.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "degdet.cli", "verify", *options], stdout=stdout, stderr=subprocess.PIPE,
            text=True, timeout=5, env={**os.environ, "PYTHONPATH": path},
        )

    @pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
    def test_a_closed_stdout_ends_by_sigpipe(self):
        # the reader is gone before the first byte is written, as after
        # `degdet verify ... | head -1` has read its line
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = self.verify_in_subprocess("--suite", "prop3", stdout=write_end)
        finally:
            os.close(write_end)
        assert done.returncode == -signal.SIGPIPE
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("suite,max_ell", [("theorem4", "26"), ("remark5", "51")])
    def test_max_ell_past_the_rational_pool_exits_2(self, suite, max_ell):
        done = self.verify_in_subprocess("--suite", suite, "--max-ell", max_ell)
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == (f"degdet: error: suite {suite!r} needs max_ell <= {int(max_ell) - 1}: its pairwise"
                               f" distinct random rationals run out above that, got {max_ell}\n")

    @pytest.mark.parametrize("suite,max_ell", [("eq5", "11"), ("eq5c", "11"), ("eq5", "50"), ("all", "26")])
    def test_max_ell_past_the_expansion_budget_exits_2(self, suite, max_ell):
        # `all` checks its suites in registry order, and eq5's cost cap (10)
        # is below every pool cap, so an `all` run stops at eq5's
        capped = "eq5" if suite == "all" else suite
        done = self.verify_in_subprocess("--suite", suite, "--max-ell", max_ell)
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == (f"degdet: error: suite {capped!r} needs max_ell <= 10: its expansion over all"
                               f" C(ell, k) exponent sequences takes about 4 s at 11 and 10 s at 12, got {max_ell}\n")

    @pytest.mark.parametrize(
        "suite,formula,nth,wrong,label,expected,actual",
        [
            ("prop2", (AlternatingSums, "det"), 7, lambda x: x + 1, "ell=2 s=1 trial=0 a=-2,-4/3,-1/3", "-6", "-5"),
            ("eq10", (verify, "derivative_at_left_node"), 8, lambda x: x + 1,
             "ell=2 s=1 trial=1 xi=7/3 h=-5/3 a=-7/4,1,-7/2", "-153/40", "-113/40"),
            ("theorem4", (verify, "regularity_check"), 6, lambda x: not x,
             "k=2 ell=1 trial=1 alpha=2,-1/2 beta=1,-1 r=5/4,2", "false", "true"),
            ("prop3", (verify, "det_A_sub_closed_form"), 4, lambda x: x + 1, "ell=2 kappa=2", "-6", "-5"),
            ("prop6", (verify, "K_quotient_via_tau"), 3, lambda x: x + 1,
             "quotient ell=2 j=0", "0,2,-3,1", "0,3,-3,1"),
            ("prop6", (verify, "tau_via_recurrence"), 2, lambda x: x + 1, "recurrence ell=2 m=0 j=1", "1", "2"),
            ("eq5", (verify, "det_B_expansion"), 3, lambda x: x + 1,
             "k=1 ell=2 trial=0 alpha=-4/3 beta=3 r=0", "-4/3", "-1/3"),
            ("eq5", (verify, "det_B_zero_check"), 2, lambda x: not x,
             "zero-band k=3 ell=1 trial=0 alpha=-2/3,-2,7/3 beta=-5/3,-7/4,1 r=-7/2,-4/3,-7/4", "true", "false"),
            ("eq5c", (verify, "det_B_expansion_complement"), 4, lambda x: x + 1,
             "k=1 ell=2 trial=1 alpha=-3 beta=-3 r=-3/2", "3/2", "5/2"),
            ("eq14", (verify, "interpolate_eq14"), 3, lambda x: x + 1,
             "ell=2 trial=0 xi=3 h=-3 a=0,-3,-3/2", "0,-21/4,9/4", "1,-21/4,9/4"),
            ("theorem1", (verify, "detect_degree"), 3,
             lambda d: DegreeDetection(d.degree + 1, d.witness_m, d.determinants),
             "constructed-degree ell=1 target=0 trial=0 xi=2 h=-4/3 a=-2,-2", "0", "1"),
            ("theorem1", (verify, "newton_degree"), 5, lambda x: x + 1,
             "detector-vs-interpolant ell=1 trial=4 a=-3/2,0", "2", "1"),
            ("remark5", (verify, "compare_general_expansion"), 2,
             lambda c: GeneralExpansionComparison(c.formula, c.oracle, c.match, c.ratio, c.difference + 1),
             "ell=1 grid=1 nodes=0,-5 a=2,-4/3", "-2,-2/3", "-1,-2/3"),
        ],
        ids=["prop2", "eq10", "theorem4", "prop3", "prop6-quotient", "prop6-recurrence", "eq5-expansion",
             "eq5-zero-band", "eq5c", "eq14", "theorem1-constructed-degree", "theorem1-converse",
             "remark5-difference"],
    )
    def test_failure_labels_the_failing_case(self, monkeypatch, suite, formula, nth, wrong, label, expected, actual):
        # one side is made wrong on its nth call; the labels were recorded
        # when every case built its label before it ran.  Each failing case
        # has a later case in its suite, so a label read after the suite moved
        # on, or expected and actual swapped, fails the comparison
        owner, name = formula
        original = getattr(owner, name)
        calls = []

        def one_wrong(*args):
            calls.append(args)
            value = original(*args)
            return wrong(value) if len(calls) == nth else value

        monkeypatch.setattr(owner, name, one_wrong)
        report = run_suite(suite, max_ell=2, trials=2, seed=DEFAULT_SEED)
        assert report.cases_run - report.cases_passed == 1
        assert [(f.inputs, f.expected, f.actual) for f in report.failures] == [(label, expected, actual)]

    @pytest.mark.parametrize("suite,trials", [("prop2", 1), ("prop3", None)])
    def test_one_elimination_per_ell(self, monkeypatch, suite, trials):
        det_calls = []
        cofactor_calls = []

        def counting_det(rows):
            det_calls.append(len(rows))
            return det_integer_rows(rows)

        def counting_cofactors(rows):
            cofactor_calls.append(len(rows) + 1)
            return last_row_cofactors(rows)

        monkeypatch.setattr(verify, "det_integer_rows", counting_det)
        monkeypatch.setattr("degdet.degreematrix.last_row_cofactors", counting_cofactors)
        report = run_suite(suite, max_ell=16, trials=trials)
        assert report.passed
        assert report.cases_run == 152
        assert len(det_calls) == 16
        assert cofactor_calls == list(range(2, 18))

    @pytest.mark.parametrize("value", [(1, 2), [Fraction(1, 2)], 0.5])
    def test_failure_with_an_unformattable_value_raises(self, monkeypatch, value):
        # a case records ints, Fractions, booleans, degrees and Polys; any
        # other value has no stable text, so recording it as a failure raises
        with pytest.raises(TypeError, match="no stable formatting"):
            run_stream(monkeypatch, (lambda: "label", value, None))

    def test_passing_cases_format_no_label(self, monkeypatch):
        # every label formatter raises, so a suite that formats a passing
        # case's label fails; remark5 is left out, as it formats its inputs
        # for the note it emits on every grid
        def no_formatting(*args):
            raise AssertionError("a passing case formatted its label")

        for name in ("_csv", "_affine_inputs", "_problem_inputs"):
            monkeypatch.setattr(verify, name, no_formatting)
        passed = {name: run_suite(name, max_ell=min(spec.max_ell, 3), trials=min(spec.trials, 3)).cases_passed
                  for name, spec in SUITES.items() if name != "remark5"}
        assert passed == {"prop2": 27, "prop3": 9, "prop6": 23, "eq5": 24, "eq5c": 18, "eq10": 27, "eq14": 9,
                          "theorem1": 216, "theorem4": 27}

    def test_every_registered_suite_passes_small(self):
        for name, spec in SUITES.items():
            report = run_suite(name, max_ell=min(spec.max_ell, 3), trials=min(spec.trials, 3))
            assert report.passed, f"{name}: {report.failures[:1]}"


class TestSplitMix64Stream:
    def test_known_stream_is_stable(self):
        from degdet.rng import SplitMix64

        # the published SplitMix64 outputs for seed 1234567
        rng = SplitMix64(1234567)
        assert [rng.next_u64() for _ in range(5)] == [
            6457827717110365317, 3203168211198807973, 9817491932198370423,
            4593380528125082431, 16408922859458223821,
        ]

    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, -5, 2**64 + 7])
    def test_block_outputs_match_scalar_recurrence(self, seed):
        # 3 * 256 + 5 outputs cross three block boundaries; -5 and 2**64 + 7
        # reach the generator's 64-bit masking
        count = 3 * 256 + 5
        rng = SplitMix64(seed)
        assert [rng.next_u64() for _ in range(count)] == list(itertools.islice(splitmix64_scalar(seed), count))

    def test_below_accepts_what_scalar_rejection_accepts(self):
        # the rejection limit of 2**63 + 1 is 2**63 + 1 itself, so about half
        # of all outputs are redrawn
        bound = 2**63 + 1
        limit = (1 << 64) - ((1 << 64) % bound)
        accepted = (z % bound for z in splitmix64_scalar(99) if z < limit)
        rng = SplitMix64(99)
        assert [rng.below(bound) for _ in range(600)] == list(itertools.islice(accepted, 600))

    def test_next_u64_and_below_share_one_stream(self):
        rng = SplitMix64(7)
        expected = splitmix64_scalar(7)
        limit = (1 << 64) - (1 << 64) % 19
        for i in range(700):
            if i % 3:
                assert rng.below(19) == next(z for z in expected if z < limit) % 19
            else:
                assert rng.next_u64() == next(expected)

    @pytest.mark.parametrize("draw,bound,offset", [("rational", 19, 0), ("positive_rational", 9, 10)])
    def test_table_draws_reject_as_below_does(self, draw, bound, offset):
        # outputs at and above the rejection limit on top of the buffer,
        # ahead of the numerator draw and then of the denominator draw: the
        # inline draw skips exactly what below() skips, and since 4 divides
        # 2**64 a denominator output is never skipped
        from degdet.rng import _RATIONALS

        draw = {"rational": SplitMix64.rational,
                "positive_rational": lambda rng: rng.rationals(1, positive=True)[0][0]}[draw]
        limit = (1 << 64) - (1 << 64) % bound
        inline, reference = SplitMix64(11), SplitMix64(11)
        for rng in (inline, reference):
            rng.next_u64()
        for planted in ([limit], [limit + 5, (1 << 64) - 1], [7, limit], [limit, 3, limit]):
            for rng in (inline, reference):
                rng._buffer.extend(reversed(planted))
            for _ in range(3):
                assert draw(inline) is _RATIONALS[offset + reference.below(bound)][reference.below(4)]
            assert inline._buffer == reference._buffer

    @pytest.mark.parametrize("seed", [0, 1, 2024, 12345, 2**64 - 1])
    def test_nonzero_draw_equals_the_two_step_reference(self, seed):
        # 20,000 draws per seed, 100,000 in all; a zero numerator (1 in 19
        # numerator draws) still takes its denominator draw, so both
        # generators stay at the same stream position throughout
        inline, reference = SplitMix64(seed), SplitMix64(seed)
        for _ in range(20_000):
            assert inline.rational(nonzero=True) is nonzero_rational_reference(reference)
        assert (inline._state, inline._buffer) == (reference._state, reference._buffer)
        assert [inline.next_u64() for _ in range(300)] == [reference.next_u64() for _ in range(300)]

    def test_nonzero_draw_skips_planted_zero_numerators(self):
        # zero numerators (z % 19 == 9) and a rejected output planted ahead
        # of the draws: each zero is redrawn after its denominator draw
        inline, reference = SplitMix64(13), SplitMix64(13)
        limit = (1 << 64) - (1 << 64) % 19
        planted = [9, 2, 19 * 5 + 9, 3, limit, 19 + 10, 1, 4]
        for rng in (inline, reference):
            rng._buffer.extend(reversed(planted))
        assert inline.rational(nonzero=True) is nonzero_rational_reference(reference) == Fraction(1, 2)
        assert inline._buffer == reference._buffer == [4]

    def test_rational_draws_pinned(self):
        # sha256 of 5,000 draws of each rational kind, in turn, from one
        # generator; recorded when every draw still built a new Fraction.
        rng = SplitMix64(2024)
        draws = (
            [rng.rational() for _ in range(5000)]
            + [rng.rational(nonzero=True) for _ in range(5000)]
            + list(rng.rationals(5000, positive=True)[0])
        )
        text = ",".join(map(format_rational, draws))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "68a8870846842f9c64dddba02f6af3585e62630e72c5fbb8220767db102835a8"
        )

    @pytest.mark.parametrize("seed", [0, 42, 2024])
    def test_rationals_are_the_single_draws(self, seed):
        # each kind of rationals() draw against count single draws from a
        # second generator: the same _RATIONALS objects, with their integer
        # forms, and both generators at the same stream position after
        from degdet.exactnum import over_common_denominator

        def distinct(draw, count):
            drawn = []
            while len(drawn) < count:
                value = draw()
                if value not in drawn:
                    drawn.append(value)
            return drawn

        drawing, reference = SplitMix64(seed), SplitMix64(seed)
        kinds = [
            ({}, reference.rational),
            ({"nonzero": True}, lambda: reference.rational(nonzero=True)),
            ({"positive": True}, lambda: positive_rational_reference(reference)),
        ]
        for count in range(1, 10):
            for options, single in kinds:
                for distinct_draws in (False, True):
                    values, common, numerators, pairs = drawing.rationals(count, distinct=distinct_draws, **options)
                    expected = distinct(single, count) if distinct_draws else [single() for _ in range(count)]
                    assert type(values) is tuple and len(values) == count
                    assert all(v is e for v, e in zip(values, expected))
                    assert pairs == [v.as_integer_ratio() for v in values]
                    assert (common, numerators) == over_common_denominator(values)
        assert (drawing._state, drawing._buffer) == (reference._state, reference._buffer)

    def test_rationals_skip_planted_rejections(self):
        # outputs at the rejection limit and zero numerators (z % 19 == 9)
        # planted ahead of a nonzero draw, and outputs at the positive
        # limit ahead of a positive one: skipped as the single draws skip them
        from degdet.rng import _LIMIT_9, _LIMIT_19

        drawing, reference = SplitMix64(17), SplitMix64(17)
        planted = [_LIMIT_19, 9, 2, 19 * 5 + 9, 3, 4, 1, 0, _LIMIT_9, (1 << 64) - 1, 7, 3, 5, 2]
        for rng in (drawing, reference):
            rng._buffer.extend(reversed(planted))
        values = drawing.rationals(2, nonzero=True)[0] + drawing.rationals(2, positive=True)[0]
        expected = (reference.rational(nonzero=True), reference.rational(nonzero=True),
                    positive_rational_reference(reference), positive_rational_reference(reference))
        assert all(v is e for v, e in zip(values, expected, strict=True))
        assert drawing._buffer == reference._buffer == []

    def test_bounded_draws_cover_range_uniformly_enough(self):
        from degdet.rng import SplitMix64

        rng = SplitMix64(0)
        draws = [int_between(rng, -9, 9) for _ in range(2000)]
        assert set(draws) == set(range(-9, 10))
        rationals = [rng.rational() for _ in range(200)]
        assert all(-9 <= q <= 9 for q in rationals)

    def test_distinct_draws(self):
        from degdet.rng import SplitMix64

        rng = SplitMix64(3)
        values = rng.rationals(6, distinct=True)[0]
        assert len(set(values)) == 6
        positives = rng.rationals(6, positive=True, distinct=True)[0]
        assert all(v > 0 for v in positives)

    def test_below_refuses_bounds_past_2_64(self, monkeypatch):
        # 2^64 is the largest bound with a multiple at or below 2^64: it
        # rejects nothing and returns the raw output
        rng, twin = SplitMix64(64), SplitMix64(64)
        assert [rng.below(1 << 64) for _ in range(300)] == [twin.next_u64() for _ in range(300)]
        # above it the rejection limit is 0; bound the outputs, so a draw
        # that rejects everything fails here instead of running forever
        fills = 0
        fill = rng._fill

        def bounded():
            nonlocal fills
            fills += 1
            assert fills < 100, "a draw below a bound past 2^64 never ends"
            return fill()

        monkeypatch.setattr(rng, "_fill", bounded)
        for bound in ((1 << 64) + 1, 3 << 64, 1 << 100):
            with pytest.raises(ValueError, match="2\\^64"):
                rng.below(bound)
        assert rng.next_u64() == twin.next_u64()

    def test_distinct_draws_exhaust_the_pool_then_refuse(self, monkeypatch):
        rng = SplitMix64(5)
        assert len(set(rng.rationals(51, distinct=True)[0])) == 51
        assert len(set(rng.rationals(25, positive=True, distinct=True)[0])) == 25
        nonzero = rng.rationals(50, nonzero=True, distinct=True)[0]
        assert len(set(nonzero)) == 50 and 0 not in nonzero
        # bound the outputs, so a count past the pool fails here instead of
        # redrawing forever
        fills = 0
        fill = rng._fill

        def bounded():
            nonlocal fills
            fills += 1
            assert fills < 100, "distinct draws past the pool never end"
            return fill()

        monkeypatch.setattr(rng, "_fill", bounded)
        with pytest.raises(ValueError):
            rng.rationals(52, distinct=True)[0]
        with pytest.raises(ValueError):
            rng.rationals(26, positive=True, distinct=True)
        with pytest.raises(ValueError):
            rng.rationals(51, nonzero=True, distinct=True)
