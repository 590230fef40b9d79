"""Monic orthogonal polynomials underlying the Laguerre-weight Markov constant.

The family Q_n(x, alpha) is generated by the three-term recurrence

    Q_{n+1}(x) = (x - d_n) Q_n(x) - lam_n^2 Q_{n-1}(x),
    Q_{-1} = 0,   Q_0 = 1,
    d_0 = 1 + alpha,    d_n = 2 + alpha/(n+1)   for n >= 1,
    lam_n^2 = 1 + alpha/n                       for n >= 1,

valid for every alpha > -1.  All zeros of Q_n are positive and distinct, and
the inverse square root of the smallest zero is the best constant in the
weighted-L2 inequality between a degree-n polynomial and its derivative.

Every routine here takes a float ``alpha``, which yields binary64 values, or
an int or ``fractions.Fraction``, which yields exact rational ones.  The
exact paths are the verification oracle of the ``verify`` suites and the
tests, since the low-order coefficient formulas are exact identities.  They
run on Python ints: an exact alpha is split as p/d, the coefficient rows
are integer rows over one scale d^m m!, and every closed form is a pair of
integer polynomials in (p, d, n), a numerator over a denominator.  A
``Fraction`` is built once per returned value, at the API.
"""

from __future__ import annotations

import collections
import math
import sys
from fractions import Fraction
from typing import NamedTuple

__all__ = [
    "FLOAT",
    "RATIONAL",
    "RecurrenceCoeffs",
    "alpha_value",
    "recurrence_coeffs",
    "qn_coefficients",
    "qn_coefficient_rows",
    "coeff_a0",
    "coeff_a1",
    "coeff_a2",
    "coeff_a3",
    "reciprocal_b123",
]

FLOAT = "float"
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
    # A plain float in the domain is its own value; NaN, +-inf, bools and
    # float subclasses take the validating path.
    if type(alpha) is float and -1.0 < alpha < math.inf:
        return alpha
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
        raise ValueError("rational mode requires an exact alpha (int or Fraction)")
    return a.numerator, a.denominator


def _require_degree(n: int) -> None:
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")


def _require_n(n: int) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")


def _float_alpha(alpha) -> float:
    """alpha rounded to binary64, for the float paths: an exact alpha past
    the binary64 range raises OverflowError that says so."""
    a = alpha_value(alpha)
    try:
        return float(a)
    except OverflowError:
        raise OverflowError(f"alpha={a} lies past the binary64 range "
                            f"(at most {sys.float_info.max!r})") from None


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

    Exact when alpha is an int or Fraction.  Requires n >= 1.
    """
    a = alpha_value(alpha)
    _require_n(n)
    d = [1 + a] + [2 + a / (k + 1) for k in range(1, n)]
    lam_sq = [1 + a / k for k in range(1, n)]
    return RecurrenceCoeffs(tuple(d), tuple(lam_sq))


def _scaled_rows(p: int, d: int, n_max: int):
    """Yield (R_m, S_m) for m = 0 .. n_max at alpha = p/d (integers, d > 0):
    the coefficient row of Q_m, low degree first, is R_m / S_m, with the
    integer list R_m and the scale S_m = d^m m!.  Scaling the recurrence of
    :func:`qn_coefficient_rows` by S_{m+1} = d(m+1) S_m gives

        R_{m+1} = d(m+1) x R_m - (2d(m+1) + p) R_m - d(m+1)(dm + p) R_{m-1}

    for m >= 1, from R_0 = 1 and R_1 = d x - (p + d).  Requires n_max >= 0.
    """
    prev, cur, scale = [], [1], 1
    yield cur, scale
    if n_max:
        prev, cur, scale = cur, [-(p + d), d], d
        yield cur, scale
    for m in range(1, n_max):
        step = d * (m + 1)
        shift, couple = 2 * step + p, step * (d * m + p)
        prev, cur = cur, [step * x - shift * y - couple * z
                          for x, y, z in zip([0] + cur, cur + [0], prev + [0, 0])]
        scale *= step
        yield cur, scale


def qn_coefficient_rows(alpha, n_max: int, mode: str = FLOAT):
    """Yield the coefficient row of Q_m for m = 0 .. n_max.

    Iterates the coefficient recurrence

        a[k, m+1] = a[k-1, m] - (2 + alpha/(m+1)) a[k, m] - (1 + alpha/m) a[k, m-1]

    keeping only two rows at a time.  Conventions: a[m, m] = 1 and a[k, m] = 0
    for k < 0 or k > m, realised as zero padding.  In float mode the shifts
    and couplings are those of :func:`recurrence_coeffs`, with lam_0^2 = 0
    for the row of Q_1; each entry is (-d y - lam^2 z) + x, so the last one
    comes out as exactly 1.  In rational mode the rows are those of
    :func:`_scaled_rows`, each divided by its scale into Fractions as it is
    yielded.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if mode == RATIONAL:
        for row, scale in _scaled_rows(*_split(alpha_value(alpha)), n_max):
            yield tuple(Fraction(c, scale) for c in row)
        return
    if mode != FLOAT:
        raise ValueError(f"unknown mode {mode!r}")
    shifts, couplings = recurrence_coeffs(_float_alpha(alpha), n_max + 1)
    prev, cur = [], [1.0]
    yield (1.0,)
    for d, lam_sq in zip(shifts[:n_max], (0.0,) + couplings):
        prev, cur = cur, [(-d * y - lam_sq * z) + x
                          for x, y, z in zip([0.0] + cur, cur + [0.0], prev + [0.0, 0.0])]
        yield tuple(cur)


def qn_coefficients(alpha, n: int, mode: str = FLOAT) -> tuple:
    """Full coefficient tuple of Q_n, low degree first; the last entry is 1.

    In float mode an overflowing coefficient (possible only for extreme
    n*alpha combinations) raises OverflowError rather than returning inf.
    In rational mode only the last integer row is divided by its scale.
    """
    if mode == RATIONAL and n >= 0:  # a negative n meets the rows' own check
        row, scale = collections.deque(_scaled_rows(*_split(alpha_value(alpha)), n), 1)[0]
        return tuple(Fraction(c, scale) for c in row)
    row = collections.deque(qn_coefficient_rows(alpha, n, mode), 1)[0]
    if mode == FLOAT and not all(math.isfinite(c) for c in row):
        raise OverflowError(f"coefficients of Q_{n} overflow binary64")
    return row


def coeff_a0(alpha, n: int):
    """Constant coefficient of Q_n: (-1)^n * prod_{k=1..n} (1 + alpha/k).

    For alpha = p/d exact, one integer product over the scale d^n n!.
    """
    a = alpha_value(alpha)
    _require_degree(n)
    sign = -1 if n % 2 else 1
    if isinstance(a, Fraction):
        p, d = _split(a)
        return Fraction(sign * math.prod(range(p + d, p + n * d + 1, d)),
                        d**n * math.factorial(n))
    out = sign
    for k in range(1, n + 1):
        out *= 1 + a / k
    return out


def coeff_a1(alpha, n: int):
    """Degree-1 coefficient of Q_n: -b1 * coeff_a0 (see reciprocal_b123)."""
    return -reciprocal_b123(alpha, n)[0] * coeff_a0(alpha, n)


def coeff_a2(alpha, n: int):
    """Degree-2 coefficient of Q_n: b2 * coeff_a0 (zero for n <= 1)."""
    return reciprocal_b123(alpha, n)[1] * coeff_a0(alpha, n)


def coeff_a3(alpha, n: int):
    """Degree-3 coefficient of Q_n: -b3 * coeff_a0 (zero for n <= 2)."""
    return -reciprocal_b123(alpha, n)[2] * coeff_a0(alpha, n)


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
    the bound: ``bounds.refined_bounds`` reports it and
    ``bounds.residual_sandwich_check`` certifies it.
    """
    return (3 * n * d + 2 * p) * (6 * n * d - (p + d)), 9 * (p + d) * (p + 5 * d)


def _refined_upper(a: float, n: int) -> float:
    """Refined upper bound on c_n(a)^2 for a float a:

        (n+1)(5n + 2(a+1)) / (5 (a+1) ((a+3)(a+5))^(1/3)).

    ``bounds.refined_bounds`` reports it; the eigenvalue solver starts at
    its reciprocal, which lies below the smallest zero of Q_n for n >= 2.
    """
    return ((n + 1) * (5 * n + 2 * (a + 1))) / (
        5 * (a + 1) * ((a + 3) * (a + 5)) ** (1.0 / 3.0)
    )
