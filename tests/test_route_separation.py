"""Every verify suite checks a formula against an oracle that shares no
route with it (ROADMAP aim 3).

ROUTES names, per suite, the package functions and methods each side
calls.  The test wraps every one of them in each degdet namespace that
binds it (a method on its class), keeps one depth counter per side, and
fails when a route of one side runs while the other side is running.
Arithmetic primitives (Poly's methods, over_common_denominator, rat) are
not routes.  A route that both sides reach on purpose is listed as shared,
with its reason, and must be reached from two places: the formula, the
oracle, or the suite itself comparing it directly.  Every listed route
must run, so the table cannot go stale."""

import functools
import importlib
import sys
from collections import Counter, defaultdict

import pytest

from degdet.verify import SUITES, run_suite

_SUMS = ["degreematrix.AlternatingSums.det", "degreematrix.AlternatingSums.__getitem__", "degreematrix.sigma_ell"]
_NEWTON = ["interp.newton_from_integer_form", "interp._divided_differences", "interp._integer_grid"]
_ELIMINATION = ["degreematrix.power_row_cofactors", "degreematrix._power_rows", "exactnum.last_row_cofactors"]
_EXPANSION = ["vandermonde._binomial_vandermonde_sum", "vandermonde._power_table", "vandermonde._power_minor"]
_MINORS = "the expansion's power-table minors and det_B's elimination both reduce to integer determinants"

ROUTES = {
    "prop2": {
        "formula": _SUMS,
        "oracle": _ELIMINATION + ["degreematrix.det_A_from_cofactors", "degreematrix.build_A",
                                  "degreematrix.weighted_value_row", "exactnum.det_integer_rows"],
    },
    "prop3": {
        "formula": ["degreematrix.det_A_sub_closed_form", "degreematrix.sigma_ell"],
        "oracle": _ELIMINATION + ["degreematrix.det_A_sub_from_cofactors", "degreematrix.build_A_sub",
                                  "exactnum.det_integer_rows"],
    },
    "prop6": {
        "formula": ["interp.K_quotient_via_tau", "combinat.tau_via_recurrence"],
        "oracle": ["interp.poly_K"],
        "shared": {"combinat.tau": "the recurrence relates tau at j to tau at 0, which the suite compares directly"},
    },
    "eq5": {
        "formula": _EXPANSION + ["vandermonde.det_B_expansion", "vandermonde.AffineData.rho"],
        # the zero band's closed form is 0; det_B_zero_check eliminates
        "oracle": ["vandermonde.det_B", "vandermonde._scaled_B_rows", "vandermonde.det_B_zero_check"],
        "shared": {"exactnum.det_integer_rows": _MINORS},
    },
    "eq5c": {
        "formula": _EXPANSION + ["vandermonde.det_B_expansion_complement", "vandermonde._complement",
                                 "vandermonde.AffineData.inverse_rho"],
        "oracle": ["vandermonde.det_B", "vandermonde._scaled_B_rows"],
        "shared": {"exactnum.det_integer_rows": _MINORS},
    },
    "eq10": {
        "formula": ["interp.derivative_at_left_node", "combinat.tau", "degreematrix.AlternatingSums.__getitem__"],
        "oracle": _NEWTON,
    },
    "eq14": {
        "formula": ["interp.interpolate_eq14", "interp._eq14_double_sum", "combinat.tau",
                    "degreematrix.AlternatingSums.__getitem__"],
        "oracle": _NEWTON + ["exactnum.poly_shift_scale"],
    },
    "theorem1": {
        "formula": _SUMS + ["interp.detect_degree", "interp._determinant_route"],
        # constructed half: a polynomial of known degree on the grid;
        # converse half: the degree off the divided-difference table
        "oracle": ["interp.equidistant_nodes", "interp.newton_degree", "interp._divided_differences",
                   "interp._integer_grid"],
    },
    "theorem4": {
        # the closed form is the claim k <= ell itself
        "formula": [],
        "oracle": ["vandermonde.regularity_check", "vandermonde._scaled_B_rows", "exactnum.det_integer_rows"],
    },
    "remark5": {
        "formula": ["interp.general_expansion", "interp._eq14_double_sum", "combinat.elementary_symmetric"],
        "oracle": ["interp.newton_interpolate", "interp.newton_from_integer_form", "interp._divided_differences"],
    },
}


def resolve(route: str):
    """The object that binds route's last name (a module or a class), and that name."""
    module, *path = route.split(".")
    owner = importlib.import_module(f"degdet.{module}")
    for name in path[:-1]:
        owner = getattr(owner, name)
    return owner, path[-1]


def test_every_suite_has_a_route_table():
    assert set(ROUTES) == set(SUITES)
    for table in ROUTES.values():
        sides = [set(table["formula"]), set(table["oracle"]), set(table.get("shared", ()))]
        assert sum(map(len, sides)) == len(set().union(*sides)), "a route is listed on two sides"


@pytest.mark.parametrize("suite", list(ROUTES))
def test_formula_and_oracle_share_no_route(suite, monkeypatch):
    table = ROUTES[suite]
    depth = {"formula": 0, "oracle": 0}
    calls: Counter = Counter()
    crossings = []
    reached = defaultdict(set)  # shared route -> the sides it ran under

    def wrap(route, side, fn):
        other = "oracle" if side == "formula" else "formula"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[route] += 1
            if side == "shared":
                reached[route].add(next((s for s, d in depth.items() if d), "suite"))
                return fn(*args, **kwargs)
            if depth[other]:
                crossings.append(f"{side} route {route} ran inside the {other}")
            depth[side] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[side] -= 1

        return traced

    modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "degdet"]
    for side in ("formula", "oracle", "shared"):
        for route in table.get(side, ()):
            owner, name = resolve(route)
            original = vars(owner)[name]
            wrapped = wrap(route, side, original)
            if isinstance(owner, type):
                monkeypatch.setattr(owner, name, wrapped)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, wrapped)

    spec = SUITES[suite]
    assert run_suite(suite, max_ell=min(4, spec.max_ell), trials=min(2, spec.trials), seed=27).passed
    assert not crossings, sorted(set(crossings))
    listed = [route for side in ("formula", "oracle", "shared") for route in table.get(side, ())]
    assert [route for route in listed if not calls[route]] == []
    assert {route: len(sides) for route, sides in reached.items()} == dict.fromkeys(table.get("shared", ()), 2)
