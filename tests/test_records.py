"""The value records' contract, and what importing the CLI loads.

Poly, the problem classes, AffineData and the detector's and comparison's
outputs are immutable values: equal fields compare and hash equal, the
derived attributes (a problem's sums and integer_form, AffineData's
integer_form) take no part in equality, a value of another type is unequal,
and every assignment or deletion raises AttributeError.
"""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from degdet.degreematrix import AlternatingSums
from degdet.exactnum import NEG_INF, Poly, trusted
from degdet.interp import (
    DegreeDetection,
    EquidistantProblem,
    GeneralProblem,
    compare_general_expansion,
    detect_degree,
)
from degdet.vandermonde import AffineData
from degdet.verify import DEFAULT_SEED, SUITES, VerifyReport, _SuiteSpec, run_suite

SRC = Path(__file__).resolve().parents[1] / "src"

# (build, the same value built from other spellings of its inputs, an unequal
# value, the field names)
RECORDS = {
    "Poly": (
        lambda: Poly([1, Fraction(1, 2), 0]),
        lambda: Poly((Fraction(1), Fraction(2, 4))),
        lambda: Poly([1, Fraction(1, 3)]),
        ("coeffs",),
    ),
    "EquidistantProblem": (
        lambda: EquidistantProblem(2, Fraction(1, 2), 3, [1, 2, Fraction(5, 4)]),
        lambda: EquidistantProblem(2, Fraction(2, 4), Fraction(3), (Fraction(1), 2, Fraction(10, 8))),
        lambda: EquidistantProblem(2, Fraction(1, 2), 3, [1, 2, Fraction(5, 3)]),
        ("ell", "xi", "h", "a"),
    ),
    "GeneralProblem": (
        lambda: GeneralProblem([0, Fraction(1, 2), 2], [1, 1, 3]),
        lambda: GeneralProblem((Fraction(0), Fraction(2, 4), 2), (Fraction(1), 1, 3)),
        lambda: GeneralProblem([0, Fraction(1, 2), 3], [1, 1, 3]),
        ("nodes", "a"),
    ),
    "AffineData": (
        lambda: AffineData(2, 3, [1, Fraction(1, 2)], [2, 0], [Fraction(1, 3), 1]),
        lambda: AffineData(2, 3, (Fraction(1), Fraction(2, 4)), (2, 0), (Fraction(2, 6), Fraction(1))),
        lambda: AffineData(2, 4, [1, Fraction(1, 2)], [2, 0], [Fraction(1, 3), 1]),
        ("k", "ell", "alpha", "beta", "r"),
    ),
    "DegreeDetection": (
        lambda: detect_degree(EquidistantProblem(2, 0, 1, [1, 1, 1])),
        lambda: DegreeDetection(
            0, 2, detect_degree(EquidistantProblem(2, Fraction(0), Fraction(1), [Fraction(1), 1, 1])).determinants),
        lambda: DegreeDetection(NEG_INF, None, (Fraction(0),) * 3),
        ("degree", "witness_m", "determinants"),
    ),
    "GeneralExpansionComparison": (
        lambda: compare_general_expansion(GeneralProblem([0, 1, 3], [1, 2, 5])),
        lambda: compare_general_expansion(
            GeneralProblem([Fraction(0), Fraction(1), Fraction(3)], [Fraction(1), Fraction(2), Fraction(5)])),
        lambda: compare_general_expansion(GeneralProblem([0, 1, 3], [1, 2, 6])),
        ("formula", "oracle", "match", "ratio", "difference"),
    ),
}

# the attributes that a record derives from its fields
DERIVED = {"EquidistantProblem": ("sums",), "AffineData": ("integer_form",)}


@pytest.fixture(params=sorted(RECORDS))
def record(request):
    build, same, other, fields = RECORDS[request.param]
    return request.param, build, same, other, fields


class TestValueRecords:
    def test_equal_values_compare_and_hash_equal(self, record):
        _, build, same, _, _ = record
        x, y = build(), same()
        assert x is not y
        assert x == y and not x != y
        assert hash(x) == hash(y)
        assert len({x, y}) == 1

    def test_another_value_compares_unequal(self, record):
        _, build, _, other, _ = record
        assert build() != other()
        assert not build() == other()

    def test_a_value_of_another_type_compares_unequal(self, record):
        _, build, _, _, fields = record
        x = build()
        as_tuple = tuple(getattr(x, name) for name in fields)
        assert x != as_tuple and as_tuple != x
        assert x != None  # noqa: E711 - the comparison under test
        assert x.__eq__(as_tuple) is NotImplemented

    def test_derived_attributes_take_no_part_in_equality(self, record):
        name, build, _, _, _ = record
        x, y = build(), build()
        for attribute in DERIVED.get(name, ()):
            object.__setattr__(y, attribute, object())
        assert x == y and hash(x) == hash(y)

    def test_the_problem_integer_form_takes_no_part_in_equality(self):
        # EquidistantProblem.integer_form is built on each read from the fields
        # and sums, so two equal problems read equal forms
        x = EquidistantProblem(3, Fraction(2, 6), Fraction(-2), [1, 0, Fraction(14, 4), 4])
        y = EquidistantProblem(3, Fraction(1, 3), -2, [1, 0, Fraction(7, 2), 4])
        assert x == y and x.integer_form == y.integer_form

    def test_assignment_and_deletion_raise(self, record):
        _, build, _, _, fields = record
        x = build()
        for name in fields:
            before = getattr(x, name)
            with pytest.raises(AttributeError):
                setattr(x, name, before)
            with pytest.raises(AttributeError):
                delattr(x, name)
            assert getattr(x, name) == before
        with pytest.raises(AttributeError):
            x.unknown = 1

    def test_repr_names_the_type_and_every_field(self, record):
        name, build, _, _, fields = record
        text = repr(build())
        assert text.startswith(f"{name}(")
        for field in fields:
            assert f"{field}=" in text

    def test_copy_and_pickle_keep_the_value(self, record):
        _, build, _, _, _ = record
        x = build()
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert y == x and hash(y) == hash(x)

    def test_a_copied_problem_keeps_its_sums(self):
        x = EquidistantProblem(2, 0, 1, [1, 4, 9])
        y = pickle.loads(pickle.dumps(x))
        assert [y.sums[k] for k in range(3)] == [x.sums[k] for k in range(3)]
        assert y.integer_form == x.integer_form

    def test_one_trusted_construction(self):
        # the drawers call exactnum.trusted by its name, each class's _set
        # taking the parts its checked constructor clears; no class keeps an
        # alias of it
        for cls in (AlternatingSums, EquidistantProblem, AffineData):
            assert "_trusted" not in vars(cls) and callable(vars(cls)["_set"])
        x = EquidistantProblem(2, Fraction(1, 2), -3, [Fraction(1, 2), 4, 9])
        y = trusted(EquidistantProblem, 2, x.xi, x.h, x.a, x.sums.common, x.sums.numerators)
        assert type(y) is EquidistantProblem and type(y.sums) is AlternatingSums
        assert y == x and y.integer_form == x.integer_form


def run_stream(monkeypatch, *items):
    """The report of a run whose suite is a stub yielding items."""

    def stub(rng, max_ell, trials):
        yield from items

    monkeypatch.setitem(SUITES, "prop2", _SuiteSpec(stub, 1, 1, "stub"))
    return run_suite("prop2")


class TestVerifyReport:
    def test_positional_signature(self):
        report = VerifyReport("prop2", 42, 1, 1)
        assert (report.suite, report.seed, report.max_ell, report.trials) == ("prop2", 42, 1, 1)
        assert (report.cases_run, report.cases_passed, report.elapsed_ms) == (0, 0, 0)
        assert report.failures == [] and report.notes == []
        assert report.passed

    def test_each_report_gets_fresh_lists(self, monkeypatch):
        second = VerifyReport("prop2", DEFAULT_SEED, 1, 1)
        first = run_stream(monkeypatch, "only the first", (lambda: "label", 1, 2))
        assert first.notes == ["only the first"] and len(first.failures) == 1
        assert second.notes == [] and second.failures == []

    def test_a_failure_reads_back_its_fields(self, monkeypatch):
        report = run_stream(monkeypatch, (lambda: "ell=1", Fraction(1, 2), Poly([3])))
        (failure,) = report.failures
        assert (failure.inputs, failure.expected, failure.actual) == ("ell=1", "1/2", "3")


def test_the_cli_imports_no_module_that_no_command_needs():
    # -S keeps site's own imports (a .pth file may load typing) out of the
    # child; the package comes from src through PYTHONPATH
    code = (
        "import sys\n"
        "import degdet.cli as c\n"
        "c.build_parser()\n"
        "print(','.join(m for m in ('dataclasses', 'inspect', 'json', 'typing') if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""
