import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import degdet
from degdet.cli import ProblemFileError, main, parse_problem_file
from degdet.degreematrix import AlternatingSums, alternating_weighted_sum
from degdet import verify
from degdet.exactnum import (
    Poly,
    degree_to_str,
    det_fraction_free,
    format_rational,
    last_row_cofactors,
    parse_rational,
    poly_shift_scale,
)
from degdet.interp import EquidistantProblem, newton_interpolate
from degdet.rng import SplitMix64
from degdet.verify import DEFAULT_SEED, SUITES, run_suite


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def out_fields(text):
    fields = {}
    for line in text.splitlines():
        key, _, value = line.partition(":")
        fields[key.strip()] = value.strip()
    return fields


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
RANDOM_32 = EquidistantProblem(32, _PIN_RNG.rational(), _PIN_RNG.nonzero_rational(),
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
            def __init__(self, ell, a):
                vectors.append(ell)
                super().__init__(ell, a)

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
            xi = Fraction(rng.int_between(-9, 9), 2 * rng.int_between(1, 4) + 1)
            h = -rng.positive_rational() if ell % 2 else rng.positive_rational()
            problems.append(EquidistantProblem(ell, xi, h, [rng.rational() for _ in range(ell + 1)]))
            drop = Poly([rng.rational() for _ in range(ell // 2)] + [rng.nonzero_rational()])
            problems.append(EquidistantProblem(ell, xi, h, [drop(node) for node in problems[-1].nodes()]))
            problems.append(EquidistantProblem(ell, xi, h, [0] * (ell + 1)))
        for p in problems:
            path = self.write(tmp_path, problem_text(p))
            code, out, _ = run_cli(capsys, "degree", "--input", path)
            fields = out_fields(out)
            oracle = poly_shift_scale(newton_interpolate(p.nodes(), p.a), p.xi, 1)
            assert code == 0
            assert fields["degree"] == degree_to_str(oracle.degree)
            for k in range(p.ell + 1):
                assert parse_rational(fields[f"b[{k}]"]) == oracle.coefficient(k)

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

    def test_bad_file_exits_2(self, capsys, tmp_path):
        path = self.write(tmp_path, "ell: 2\nxi: 0\nh: 0\nvalues: 1, 2, 3\n")
        code, _, err = run_cli(capsys, "degree", "--input", path)
        assert code == 2
        assert "step must be nonzero" in err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "degree", "--input", str(tmp_path / "nope.txt"))
        assert code == 2
        assert "cannot read" in err

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

    def test_invalid_data_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "det", "--matrix", "B", "--k", "2", "--ell", "2",
            "--alpha", "1,2", "--beta", "1,1", "--r", "3,3",
        )
        assert code == 2
        assert "injective" in err


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
    # integer numerators.
    @pytest.mark.parametrize(
        "suite,digest",
        [
            ("prop2", "5233abdb580790820f4de24d1e38486f3a1239ca48cd35cf46e4771044ce0052"),
            ("eq5", "52d2d5a5b340367ff6fbd845b50a0c39ff87c2571598fa12562a4c233563f4e7"),
            ("eq5c", "8245886a7c895f2a5f26c17c986e2441012cf25c0f85bd3abf39b6bd23b3593a"),
            ("theorem4", "fdf2f21e353577effed6320abf0de4a5d660971e84702d74d831e016aea289c1"),
        ],
    )
    def test_integer_route_suites_pinned(self, capsys, suite, digest):
        code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--seed", "7")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

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

    @pytest.mark.parametrize("suite,max_ell", [("theorem4", "26"), ("remark5", "51"), ("all", "26")])
    def test_max_ell_past_the_rational_pool_exits_2(self, suite, max_ell):
        # in a subprocess with a timeout, so a redraw loop that never ends
        # fails the test instead of hanging it
        package_root = str(Path(degdet.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "degdet.cli", "verify", "--suite", suite, "--max-ell", max_ell],
            capture_output=True, text=True, timeout=5, env={**os.environ, "PYTHONPATH": path},
        )
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.startswith("degdet: error: suite ")

    @pytest.mark.parametrize(
        "suite,formula,nth,wrong,label,expected,actual",
        [
            ("prop2", "det_A_closed_form", 7, lambda x: x + 1, "ell=2 s=1 trial=0 a=-2,-4/3,-1/3", "-6", "-5"),
            ("eq10", "derivative_at_left_node", 8, lambda x: x + 1,
             "ell=2 s=1 trial=1 xi=7/3 h=-5/3 a=-7/4,1,-7/2", "-153/40", "-113/40"),
            ("theorem4", "regularity_check", 6, lambda x: not x,
             "k=2 ell=1 trial=1 alpha=2,-1/2 beta=1,-1 r=5/4,2", "false", "true"),
        ],
        ids=["prop2", "eq10", "theorem4"],
    )
    def test_failure_labels_the_failing_case(self, monkeypatch, suite, formula, nth, wrong, label, expected, actual):
        # the formula side is made wrong on its nth call; the labels were
        # recorded when every case built its label before it ran
        original = getattr(verify, formula)
        calls = []

        def one_wrong(*args):
            calls.append(args)
            value = original(*args)
            return wrong(value) if len(calls) == nth else value

        monkeypatch.setattr(verify, formula, one_wrong)
        report = run_suite(suite, max_ell=2, trials=2, seed=DEFAULT_SEED)
        assert report.cases_run - report.cases_passed == 1
        assert report.to_dict()["failures"] == [{"inputs": label, "expected": expected, "actual": actual}]

    @pytest.mark.parametrize("suite,trials", [("prop2", 1), ("prop3", None)])
    def test_one_elimination_per_ell(self, monkeypatch, suite, trials):
        det_calls = []
        cofactor_calls = []

        def counting_det(m):
            det_calls.append(m.rows)
            return det_fraction_free(m)

        def counting_cofactors(rows):
            cofactor_calls.append(len(rows) + 1)
            return last_row_cofactors(rows)

        monkeypatch.setattr(verify, "det_fraction_free", counting_det)
        monkeypatch.setattr("degdet.degreematrix.last_row_cofactors", counting_cofactors)
        report = run_suite(suite, max_ell=16, trials=trials)
        assert report.passed
        assert report.cases_run == 152
        assert len(det_calls) == 16
        assert cofactor_calls == list(range(2, 18))

    def test_every_registered_suite_passes_small(self):
        for name, spec in SUITES.items():
            report = run_suite(name, max_ell=min(spec.max_ell, 3), trials=min(spec.trials, 3))
            assert report.passed, f"{name}: {report.failures[:1]}"


class TestSplitMix64Stream:
    def test_known_stream_is_stable(self):
        from degdet.rng import SplitMix64

        rng = SplitMix64(1234567)
        first = [rng.next_u64() for _ in range(3)]
        rng2 = SplitMix64(1234567)
        assert [rng2.next_u64() for _ in range(3)] == first

    def test_rational_draws_pinned(self):
        # sha256 of 5,000 draws of each rational kind, in turn, from one
        # generator; recorded when every draw still built a new Fraction.
        rng = SplitMix64(2024)
        draws = (
            [rng.rational() for _ in range(5000)]
            + [rng.nonzero_rational() for _ in range(5000)]
            + [rng.positive_rational() for _ in range(5000)]
        )
        text = ",".join(map(format_rational, draws))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "68a8870846842f9c64dddba02f6af3585e62630e72c5fbb8220767db102835a8"
        )

    def test_bounded_draws_cover_range_uniformly_enough(self):
        from degdet.rng import SplitMix64

        rng = SplitMix64(0)
        draws = [rng.int_between(-9, 9) for _ in range(2000)]
        assert set(draws) == set(range(-9, 10))
        rationals = [rng.rational() for _ in range(200)]
        assert all(-9 <= q <= 9 for q in rationals)

    def test_distinct_draws(self):
        from degdet.rng import SplitMix64

        rng = SplitMix64(3)
        values = rng.distinct_rationals(6)
        assert len(set(values)) == 6
        positives = rng.distinct_positive_rationals(6)
        assert all(v > 0 for v in positives)

    def test_distinct_draws_exhaust_the_pool_then_refuse(self, monkeypatch):
        rng = SplitMix64(5)
        assert len(set(rng.distinct_rationals(51))) == 51
        assert len(set(rng.distinct_positive_rationals(25))) == 25
        # bound the draws, so a count past the pool fails here instead of
        # redrawing forever
        draws = 0

        def bounded(draw):
            def counted():
                nonlocal draws
                draws += 1
                assert draws < 10_000, "distinct draws past the pool never end"
                return draw()
            return counted

        monkeypatch.setattr(rng, "rational", bounded(rng.rational))
        monkeypatch.setattr(rng, "positive_rational", bounded(rng.positive_rational))
        with pytest.raises(ValueError):
            rng.distinct_rationals(52)
        with pytest.raises(ValueError):
            rng.distinct_positive_rationals(26)
