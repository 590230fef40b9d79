"""Monic orthogonal polynomials underlying the Laguerre-weight Markov constant.

The family Q_n(x, alpha) is generated by the three-term recurrence

    Q_{n+1}(x) = (x - d_n) Q_n(x) - lam_n^2 Q_{n-1}(x),
    Q_{-1} = 0,   Q_0 = 1,
    d_0 = 1 + alpha,    d_n = 2 + alpha/(n+1)   for n >= 1,
    lam_n^2 = 1 + alpha/n                       for n >= 1,

valid for every alpha > -1.  All zeros of Q_n are positive and distinct, and
the inverse square root of the smallest zero is the best constant in the
weighted-L2 inequality between a degree-n polynomial and its derivative.

The coefficients of Q_n are stated once, as one integer triangle: an exact
alpha (an int or ``fractions.Fraction``) is split as p/d, and row m is an
integer row over one scale d^m m! (``_scaled_rows``), each a step of
``_next_row``, the recurrence's one statement; the ``coeffs`` suite proves
the low-order closed forms by induction through that step.  Every closed form is
a pair of integer polynomials in (p, d, n), a numerator over a denominator;
the closed forms also take a float ``alpha``, which yields binary64 values.
A ``Fraction`` is built once per returned value, at the API.
"""

from __future__ import annotations

import math
import operator
import sys
from fractions import Fraction
from typing import NamedTuple

__all__ = [
    "RATIONAL",
    "RecurrenceCoeffs",
    "alpha_value",
    "recurrence_coeffs",
    "qn_coefficient_rows",
    "coeff_a0",
    "coeff_a1",
    "coeff_a2",
    "coeff_a3",
    "reciprocal_b123",
]

RATIONAL = "rational"


_TINY = sys.float_info.min


def _normal(*xs) -> bool:
    """Whether every x is a positive normal binary64 number."""
    for x in xs:
        if not _TINY <= x < math.inf:
            return False
    return True


def alpha_value(alpha) -> float | Fraction:
    """The exponent of the weight t^alpha * exp(-t) on (0, inf), validated:
    a float, or a Fraction for an int or Fraction, so that exact arithmetic
    survives downstream.  TypeError for a bool or a non-number; ValueError
    for alpha <= -1, where the weight is not integrable, and for an
    infinite or NaN float.  A Fraction is finite, and may lie past the
    binary64 range.
    """
    if isinstance(alpha, bool) or not isinstance(alpha, (int, float, Fraction)):
        raise TypeError(f"alpha must be a real number, got {type(alpha).__name__}")
    a = Fraction(alpha) if isinstance(alpha, int) else alpha
    if not a > -1:
        raise ValueError(f"alpha must be > -1, got {alpha}")
    if isinstance(a, float) and not math.isfinite(a):
        raise ValueError(f"alpha must be finite, got {alpha}")
    return a


def _split(a) -> tuple[int, int]:
    """(p, d) with a = p/d, d > 0 and gcd(p, d) = 1, for an exact alpha value
    ``a`` (as ``alpha_value`` returns it); ValueError for a float one."""
    if not isinstance(a, Fraction):
        raise ValueError(f"alpha must be exact (an int or Fraction), got {a!r}")
    return a.numerator, a.denominator


def _real(x, name: str) -> float:
    """x as a float; TypeError for a bool or a string, which float() takes."""
    if isinstance(x, (bool, str, bytes)):
        raise TypeError(f"{name} must be a real number, got {type(x).__name__}")
    return float(x)


def _require_degree(n: int, least: int = 0, name: str = "n") -> None:
    """TypeError for a bool or for anything ``operator.index`` refuses,
    such as a float; ValueError for n < least."""
    if isinstance(n, bool):
        raise TypeError(f"{name} must be an int, got bool")
    if operator.index(n) < least:
        raise ValueError(f"{name} must be >= {least}, got {n}")


def _require_n(n: int) -> None:
    _require_degree(n, 1)


def _float_alpha(alpha) -> float:
    """alpha rounded to binary64, for the float paths: an exact alpha past
    the binary64 range, or one that rounds to -1, raises OverflowError
    that says so."""
    a = alpha_value(alpha)
    try:
        fa = float(a)
    except OverflowError:
        raise OverflowError(f"alpha={a} lies past the binary64 range "
                            f"(at most {sys.float_info.max!r})") from None
    if fa == -1.0:
        raise OverflowError(f"alpha={a} lies within 2^-54 of -1 and rounds to -1 in binary64")
    return fa


class RecurrenceCoeffs(NamedTuple):
    """Recurrence data for Q_1 .. Q_n.

    ``d[k]`` is the shift d_k for k = 0 .. n-1.  ``lambda_sq[k]`` holds
    lam_{k+1}^2 = 1 + alpha/(k+1) for k = 0 .. n-2; the recurrence never
    uses lam_0 (it multiplies Q_{-1} = 0), so it is not stored.
    """

    d: tuple
    lambda_sq: tuple


def recurrence_coeffs(alpha, n: int) -> RecurrenceCoeffs:
    """Shift and squared-coupling coefficients for the order-n recurrence.

    Exact when alpha is an int or Fraction.  Requires n >= 1.  Nothing in
    the package calls it; the benchmark harness times it.
    """
    a = alpha_value(alpha)
    _require_n(n)
    d = [1 + a] + [2 + a / (k + 1) for k in range(1, n)]
    lam_sq = [1 + a / k for k in range(1, n)]
    return RecurrenceCoeffs(tuple(d), tuple(lam_sq))


def _next_row(p: int, d: int, m: int, cur, prev):
    """R_{m+1} from R_m = ``cur`` and R_{m-1} = ``prev`` at alpha = p/d, m >= 1
    (see :func:`_scaled_rows`): the recurrence's one statement,

        R_{m+1} = d(m+1) x R_m - (2d(m+1) + p) R_m - d(m+1)(dm + p) R_{m-1}.

    Entry k reads only cur[k-1], cur[k] and prev[k], so rows cut after
    entry 3 step exactly there (``cli.verify_coeffs``); over d and d^2,
    the three factors have degree <= 2 in m and <= 1 in alpha."""
    step = d * (m + 1)
    shift, couple = 2 * step + p, step * (d * m + p)
    return [step * x - shift * y - couple * z
            for x, y, z in zip([0] + cur, cur + [0], prev + [0, 0])]


def _scaled_rows(p: int, d: int, n_max: int):
    """Yield (R_m, S_m) for m = 0 .. n_max at alpha = p/d (integers, d > 0):
    the coefficient row of Q_m, low degree first, is R_m / S_m, with the
    integer list R_m and the scale S_m = d^m m!.  From R_0 = 1 and
    R_1 = d x - (p + d), each row is :func:`_next_row` of the two before.
    Requires n_max >= 0.
    """
    prev, cur, scale = [], [1], 1
    yield cur, scale
    if n_max:
        prev, cur, scale = cur, [-(p + d), d], d
        yield cur, scale
    for m in range(1, n_max):
        prev, cur = cur, _next_row(p, d, m, cur, prev)
        scale *= d * (m + 1)
        yield cur, scale


def qn_coefficient_rows(alpha, n_max: int, mode: str = RATIONAL):
    """Yield the coefficient row of Q_m for m = 0 .. n_max, low degree first,
    in Fractions; alpha must be exact (an int or Fraction), a float raises
    ValueError.

    The rows follow the coefficient recurrence

        a[k, m+1] = a[k-1, m] - (2 + alpha/(m+1)) a[k, m] - (1 + alpha/m) a[k, m-1]

    with a[m, m] = 1 and a[k, m] = 0 for k < 0 or k > m; they are those of
    :func:`_scaled_rows` (steps of :func:`_next_row`), each divided by its
    scale as it is yielded.
    ``mode`` is RATIONAL, the one mode; any other value raises ValueError.
    """
    _require_degree(n_max, name="n_max")
    if mode != RATIONAL:
        raise ValueError(f"unknown mode {mode!r}")
    for row, scale in _scaled_rows(*_split(alpha_value(alpha)), n_max):
        yield tuple(Fraction(c, scale) for c in row)


def coeff_a0(alpha, n: int):
    """Constant coefficient of Q_n: (-1)^n * prod_{k=1..n} (1 + alpha/k).

    For alpha = p/d exact, one integer product over the scale d^n n!
    (``_a0_parts``).  At a float alpha, coeff_a0..coeff_a3 raise
    OverflowError where the value would be infinite.
    """
    a = alpha_value(alpha)
    _require_degree(n)
    if isinstance(a, Fraction):
        return Fraction(*_a0_parts(*_split(a), n))
    out = -1 if n % 2 else 1
    for k in range(1, n + 1):
        out *= 1 + a / k
    return _finite(out, "coeff_a0", a, n)


def _a0_parts(p, d, n: int) -> tuple[int, int]:
    """(numerator, denominator) of coeff_a0 at alpha = p/d, the one
    statement of its product form: (-1)^n prod_{k=1..n} (dk + p) over d^n n!."""
    return (-1) ** n * math.prod(range(p + d, p + n * d + 1, d)), d**n * math.factorial(n)


def _finite(value, name: str, alpha, n: int):
    """value, the coefficient ``name`` of Q_n at alpha; a float one that is
    infinite raises OverflowError."""
    if isinstance(value, float) and math.isinf(value):
        raise OverflowError(f"{name} at alpha={alpha}, n={n} overflows binary64")
    return value


def coeff_a1(alpha, n: int):
    """Degree-1 coefficient of Q_n: -b1 * coeff_a0 (see reciprocal_b123)."""
    return _finite(-reciprocal_b123(alpha, n)[0] * coeff_a0(alpha, n), "coeff_a1", alpha, n)


def coeff_a2(alpha, n: int):
    """Degree-2 coefficient of Q_n: b2 * coeff_a0 (zero for n <= 1)."""
    return _finite(reciprocal_b123(alpha, n)[1] * coeff_a0(alpha, n), "coeff_a2", alpha, n)


def coeff_a3(alpha, n: int):
    """Degree-3 coefficient of Q_n: -b3 * coeff_a0 (zero for n <= 2)."""
    return _finite(-reciprocal_b123(alpha, n)[2] * coeff_a0(alpha, n), "coeff_a3", alpha, n)


def _b123_parts(p, d, n: int):
    """(numerator, denominator) of b1, b2, b3 (see reciprocal_b123) at
    alpha = p/d.  The one statement of b1..b3.  Both sides are homogeneous
    polynomials in (p, d) of the same degree, so integers p, d give integer
    parts, and (alpha, 1) gives the binary64 expressions operation for
    operation (multiplying by the int 1 is exact).  The denominators do not
    depend on n; the numerators vanish below their degree.
    """
    e1, e2, e3, e4, e5 = p + d, p + 2 * d, p + 3 * d, p + 4 * d, p + 5 * d
    return (
        (n * (n + 1) * d, 2 * e1),
        ((n - 1) * n * (n + 1) * (3 * e2 * n + 2 * (p + 6 * d)) * d * d,
         24 * e1 * e2 * e3),
        ((n - 2) * (n - 1) * n * (n + 1)
         * (5 * e2 * e4 * n * (n + 1) + 8 * (7 * p + 20 * d) * n * d + 12 * (p + 20 * d) * d)
         * d * d * d,
         240 * e1 * e2 * e3 * e4 * e5),
    )


def reciprocal_b123(alpha, n: int):
    """Leading coefficients (b1, b2, b3) of the monic reciprocal of Q_n.

    The reciprocal P_n (monic, roots are the inverses of the zeros of Q_n)
    reads x^n - b1 x^{n-1} + b2 x^{n-2} - b3 x^{n-3} + ..., so
    b_k = (-1)^k a_{k,n} / a_{0,n}.  All three are positive for n >= 3;
    b2 vanishes for n <= 1 and b3 for n <= 2.  The largest root of P_n is
    the squared Markov constant.  This is the one statement of b1..b3:
    coeff_a1..coeff_a3 and every power-sum bound derive from it.  For a
    float alpha, a b_k (k <= n) that is not a positive normal float raises
    OverflowError: the denominators overflow from alpha of about 1.5e61.
    """
    a = alpha_value(alpha)
    _require_degree(n)
    if not isinstance(a, float):  # exact; the cheaper test on the float path
        return tuple(Fraction(num, den) for num, den in _b123_parts(*_split(a), n))
    return _b123_float(a, n)


def _b123_float(a: float, n: int):
    """The float branch of :func:`reciprocal_b123`, at a float a and n >= 0."""
    (n1, d1), (n2, d2), (n3, d3) = _b123_parts(a, 1, n)
    # Exact zeros below their degree: at a large float alpha the formulas
    # give 0 * inf there.
    b1 = n1 / d1
    b2 = n2 / d2 if n >= 2 else 0.0
    b3 = n3 / d3 if n >= 3 else 0.0
    if not _normal(*(b1, b2, b3)[:n]):
        raise OverflowError(f"b1..b3 at alpha={a}, n={n} overflow binary64")
    return b1, b2, b3


def _refined_lower_parts(p, d, n: int):
    """(numerator, denominator) of the refined lower bound on c_n(a)^2 at
    a = p/d,

        (3n + 2a)(6n - (a+1)) / (9 (a+1)(a+5)),

    homogeneous in (p, d) like :func:`_b123_parts`.  The one statement of
    the bound: ``bounds.refined_bounds`` reports it and the lower residual
    of ``bounds._residual_parts``, which ``cli.verify_identities`` proves
    positive, certifies it.
    """
    return (3 * n * d + 2 * p) * (6 * n * d - (p + d)), 9 * (p + d) * (p + 5 * d)


def _refined_upper_parts(p, d, n: int):
    """(N, D, R) of the refined upper bound N / (D R^(1/3)) on c_n(a)^2 at
    a = p/d, homogeneous like :func:`_b123_parts`: the one statement of the
    bound, which ``_refined_upper`` evaluates at (a, 1).  Its cube,
    N^3 d^2 / (D^3 R), is certified by the upper residual of
    ``bounds._residual_parts``, which ``cli.verify_identities`` proves."""
    return (n + 1) * (5 * n * d + 2 * (p + d)), 5 * (p + d), (p + 3 * d) * (p + 5 * d)


def _refined_upper(a: float, n: int) -> float:
    """:func:`_refined_upper_parts` at (a, 1), a float a: the bound that
    ``bounds.refined_bounds`` reports.  The eigenvalue solver starts at its
    reciprocal, which lies below the smallest zero of Q_n for n >= 2."""
    num, den, root = _refined_upper_parts(a, 1, n)
    return num / (den * root ** (1.0 / 3.0))
