"""degdet: exact-arithmetic degree detection for equidistant interpolation.

The degree of the interpolation polynomial through values a_0..a_ell on an
equidistant grid is read off a family of combinatorial determinants; every
closed-form identity used along the way ships with an independent oracle
and a seeded verification suite.
"""

from .combinat import binomial, tau, tau_via_recurrence
from .degreematrix import (
    alternating_weighted_sum,
    build_A,
    build_A_sub,
    det_A_closed_form,
    det_A_sub_closed_form,
    sigma_ell,
)
from .exactnum import (
    NEG_INF,
    Degree,
    ExactMatrix,
    NegativeInfinity,
    Poly,
    Rational,
    det_fraction_free,
    format_rational,
    parse_rational,
    poly_shift_scale,
    rat,
)
from .interp import (
    DETECTION_MODES,
    MODE_CLOSED_FORM,
    MODE_MATRIX,
    DegreeDetection,
    EquidistantProblem,
    GeneralExpansionComparison,
    GeneralProblem,
    K_quotient_via_tau,
    compare_general_expansion,
    derivative_at_left_node,
    detect_degree,
    general_expansion,
    interpolate_eq14,
    lagrange_interpolate,
    newton_interpolate,
    poly_K,
    sigma_lsk,
)
from .rng import SplitMix64
from .vandermonde import (
    AffineData,
    HypothesisViolation,
    build_B,
    det_B_expansion,
    det_B_expansion_complement,
    det_B_zero_check,
    gen_vandermonde_det,
    regularity_check,
)
from .verify import DEFAULT_SEED, SUITES, VerifyReport, run_all, run_suite

__version__ = "0.1.0"
