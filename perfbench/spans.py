"""Span tracing of degdet's public functions, from outside the package.

`install()` wraps each function in TRACED and rebinds it in every loaded
degdet module namespace that holds it, because `from .x import y` copies
the binding into the importing module.  Each call records one span (name,
start, end, parent) in flat in-memory arrays; `Tracer.layers()` turns the
spans into per-layer metrics once the pass has ended.

Hot helpers (`rat`, `binomial`, the `Poly` operators) are deliberately not
wrapped: their call counts would make the tracer the largest cost.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

# (module, function) pairs that get a span.
TRACED = (
    ("exactnum", "det_fraction_free"),
    ("exactnum", "poly_shift_scale"),
    ("exactnum", "format_rational"),
    ("combinat", "tau"),
    ("combinat", "tau_via_recurrence"),
    ("vandermonde", "build_B"),
    ("vandermonde", "det_B_expansion"),
    ("vandermonde", "det_B_expansion_complement"),
    ("vandermonde", "regularity_check"),
    ("vandermonde", "det_B_zero_check"),
    ("degreematrix", "build_A"),
    ("degreematrix", "sigma_ell"),
    ("degreematrix", "alternating_weighted_sum"),
    ("interp", "lagrange_interpolate"),
    ("interp", "detect_degree"),
    ("interp", "interpolate_eq14"),
    ("interp", "derivative_at_left_node"),
    ("interp", "compare_general_expansion"),
    ("verify", "run_suite"),
    ("cli", "parse_problem_file"),
    ("cli", "main"),
)

SUITES = ("prop2", "prop3", "prop6", "eq5", "eq5c", "eq10", "eq14", "theorem1", "theorem4", "remark5")


def _bits(q) -> int:
    """Bit length of a Fraction's larger part, by int.bit_length (never str)."""
    return max(abs(q.numerator).bit_length(), q.denominator.bit_length())


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open: list[int] = []
        self.max_bits: dict[str, int] = {}
        self.dets_inspected = 0
        self.suite_total_s = {name: 0.0 for name in SUITES}

    def _raise_bits(self, key: str, bits: int) -> None:
        if bits > self.max_bits.get(key, 0):
            self.max_bits[key] = bits

    def _observe(self, name: str, args, result, seconds: float) -> None:
        """Counts and bit lengths read off a call's arguments and result."""
        if name == "interp.lagrange_interpolate":
            self._raise_bits("interp.lagrange_interpolate.max_coeff_bits", max(map(_bits, result.coeffs), default=0))
        elif name == "interp.detect_degree":
            self.dets_inspected += len(result.determinants)
            self._raise_bits("interp.detect_degree.max_det_bits", max(map(_bits, result.determinants), default=0))
        elif name == "degreematrix.sigma_ell":
            self._raise_bits("degreematrix.sigma_ell.max_bits", abs(result).bit_length())
        elif name == "exactnum.det_fraction_free":
            self._raise_bits("exactnum.det_fraction_free.max_entry_bits", max(map(_bits, args[0].entries)))
        elif name == "verify.run_suite":
            self.suite_total_s[args[0]] += seconds

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        names, parents, starts, ends, open_spans = (
            self.span_name, self.span_parent, self.span_start, self.span_end, self._open)
        observe = self._observe

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            names.append(nid)
            parents.append(open_spans[-1] if open_spans else -1)
            starts.append(0.0)
            ends.append(0.0)
            open_spans.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                open_spans.pop()
                starts[index] = start
                ends[index] = end
            observe(name, args, result, end - start)
            return result

        return traced

    def install(self) -> None:
        """Wrap every TRACED function and rebind it wherever degdet bound it."""
        modules = [m for key, m in list(sys.modules.items()) if key == "degdet" or key.startswith("degdet.")]
        for module_name, func_name in TRACED:
            original = getattr(importlib.import_module(f"degdet.{module_name}"), func_name)
            wrapped = self.wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)

    def layers(self) -> dict[str, float]:
        """Per-layer metrics: calls and self time per traced function, plus
        the bit lengths, ratios and suite totals named in the benchmark."""
        count = len(self.span_start)
        durations = [self.span_end[i] - self.span_start[i] for i in range(count)]
        child_cover = [0.0] * count
        for i in range(count):
            parent = self.span_parent[i]
            if parent >= 0:
                child_cover[parent] += durations[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(count):
            calls[self.span_name[i]] += 1
            self_s[self.span_name[i]] += durations[i] - child_cover[i]

        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.self_s"] = self_s[nid]
        for key in ("interp.lagrange_interpolate.max_coeff_bits", "interp.detect_degree.max_det_bits",
                    "degreematrix.sigma_ell.max_bits", "exactnum.det_fraction_free.max_entry_bits"):
            out[key] = self.max_bits.get(key, 0)

        detect_id = self.names.index("interp.detect_degree")
        sigma_id = self.names.index("degreematrix.sigma_ell")
        detects = calls[detect_id]
        sigma_under_detect = sum(
            1 for i in range(count) if self.span_name[i] == sigma_id and self._has_ancestor(i, detect_id))
        out["interp.detect_degree.dets_inspected"] = self.dets_inspected / detects if detects else 0.0
        out["degreematrix.sigma_ell.calls_per_detect"] = sigma_under_detect / detects if detects else 0.0
        for suite, seconds in self.suite_total_s.items():
            out[f"verify.run_suite.{suite}.total_s"] = seconds
        return out

    def _has_ancestor(self, index: int, name_id: int) -> bool:
        parent = self.span_parent[index]
        while parent >= 0:
            if self.span_name[parent] == name_id:
                return True
            parent = self.span_parent[parent]
        return False
