"""degdet: exact-arithmetic degree detection for equidistant interpolation.

The degree of the interpolation polynomial through values a_0..a_ell on an
equidistant grid is read off a family of combinatorial determinants; every
closed-form identity used along the way ships with an independent oracle
and a seeded verification suite.
"""

from . import combinat, degreematrix, exactnum, interp, rng, vandermonde, verify

__version__ = "0.1.0"
