"""Sharp constant and certified bounds for the L2 Markov inequality with
Laguerre weight t^alpha * exp(-t) on (0, inf), alpha > -1.

The exact constant c_n(alpha) comes from the smallest eigenvalue of a
symmetric tridiagonal matrix; the bounds come from power sums of the roots of
the reciprocal polynomial; the asymptotic constant is the inverse of the
first positive Bessel zero.  Exact rational arithmetic backs every algebraic
identity used along the way.
"""

from .bessel import asymptotic_constant, bessel_j, first_zero
from .bounds import (
    BoundsReport,
    bounds_report,
    asymptotic_bounds,
    bessel_zero_enclosure,
    dorfler_bounds,
    laguerre_samuelson,
    power_sums,
    largest_root_bounds,
    ratio_r,
    residual_sandwich_check,
    refined_bounds,
    asymptotic_upper_large_alpha,
    turan_constant,
)
from .eigen import (
    EigenResult,
    TridiagMatrix,
    build_jacobi,
    largest_eigenvalue,
    markov_constant,
    smallest_eigenvalue,
    sturm_count,
)
from .recurrence import (
    FLOAT,
    RATIONAL,
    RecurrenceCoeffs,
    coeff_a0,
    coeff_a1,
    coeff_a2,
    coeff_a3,
    qn_coefficients,
    recurrence_coeffs,
    reciprocal_b123,
)

__version__ = "0.1.0"
