"""One traced benchmark pass (perfbench/one_pass.py with "trace": true) on a
small plan.  The span tracer reads arguments and results of some traced
functions (detect_degree's determinants, sigma_ell's value), so a signature
change there breaks traced runs even when every call site in degdet is
updated; this runs the tracer end to end inside tier-1, on every command and
on every verify suite."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def traced_pass(tmp_path, ops):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"trace": True, "ops": ops}), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "one_pass.py"), str(plan)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    report = json.loads(done.stdout)
    assert [op["code"] for op in report["ops"]] == [0] * len(ops), [op["stderr_tail"] for op in report["ops"]]
    return report


def all_equal_problem(tmp_path):
    problem = tmp_path / "problem.txt"
    problem.write_text("ell: 4\nxi: 1/2\nh: -2/3\nvalues: 1, 1, 1, 1, 1\n", encoding="utf-8")
    return str(problem)


def test_traced_pass_runs_every_op(tmp_path):
    problem = all_equal_problem(tmp_path)
    ops = [
        ["degree", "--input", problem],
        ["degree", "--input", problem, "--mode", "matrix"],
        ["det", "--matrix", "A", "--ell", "2", "--s", "1", "--a", "1,1/2,-3"],
        ["verify", "--suite", "prop2", "--max-ell", "2", "--trials", "1"],
        ["verify", "--suite", "all", "--max-ell", "2", "--trials", "1"],
    ]
    assert traced_pass(tmp_path, ops)["layers"]


def test_traced_degree_layers(tmp_path):
    # both modes scan det[0..4] on all-equal values; only closed-form mode
    # computes sigma_ell, and neither computes a single alternating sum
    problem = all_equal_problem(tmp_path)
    layers = traced_pass(tmp_path, [
        ["degree", "--input", problem],
        ["degree", "--input", problem, "--mode", "matrix"],
    ])["layers"]
    assert layers["degreematrix.sigma_ell.calls"] == 1
    assert layers["interp.detect_degree.dets_inspected"] == 5.0
    assert layers["degreematrix.alternating_weighted_sum.calls"] == 0


@pytest.mark.parametrize(
    "op",
    [
        ["det", "--matrix", "A", "--ell", "2", "--s", "1", "--a", "1,1/2,-3"],
        ["verify", "--suite", "prop2", "--max-ell", "2", "--trials", "1"],
    ],
    ids=["det-A", "prop2"],
)
def test_traced_routes_of_A(tmp_path, op):
    # the closed form is AlternatingSums.det, never the reference sum; det
    # --matrix A eliminates only the power rows, and prop2's one full
    # Bareiss per ell runs on integer rows, not through det_fraction_free
    layers = traced_pass(tmp_path, [op])["layers"]
    assert layers["degreematrix.alternating_weighted_sum.calls"] == 0
    assert layers["exactnum.det_fraction_free.calls"] == 0


def test_traced_verify_all_eliminates_no_fraction_matrix(tmp_path):
    # every suite, traced: none reaches det_fraction_free or build_B, the
    # Fraction-matrix oracles that only the tests call
    layers = traced_pass(tmp_path, [["verify", "--suite", "all", "--max-ell", "2", "--trials", "1"]])["layers"]
    assert layers["verify.run_suite.calls"] == 10
    assert layers["exactnum.det_fraction_free.calls"] == 0
    assert layers["vandermonde.build_B.calls"] == 0
