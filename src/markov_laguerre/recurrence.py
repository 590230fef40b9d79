"""Monic orthogonal polynomials underlying the Laguerre-weight Markov constant.

The family Q_n(x, alpha) is generated by the three-term recurrence

    Q_{n+1}(x) = (x - d_n) Q_n(x) - lam_n^2 Q_{n-1}(x),
    Q_{-1} = 0,   Q_0 = 1,
    d_0 = 1 + alpha,    d_n = 2 + alpha/(n+1)   for n >= 1,
    lam_n^2 = 1 + alpha/n                       for n >= 1,

valid for every alpha > -1.  All zeros of Q_n are positive and distinct, and
the inverse square root of the smallest zero is the best constant in the
weighted-L2 inequality between a degree-n polynomial and its derivative.

Every routine here is generic over the scalar type of ``alpha``: a float
yields binary64 coefficients, an int or ``fractions.Fraction`` yields exact
rational coefficients.  The rational mode is the verification oracle used by
the test suite, since the low-order coefficient formulas are exact identities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "FLOAT",
    "RATIONAL",
    "WeightAlpha",
    "RecurrenceCoeffs",
    "MonicPoly",
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


@dataclass(frozen=True)
class WeightAlpha:
    """Validated exponent of the weight t^alpha * exp(-t) on (0, inf).

    Construction rejects alpha <= -1 (the weight is not integrable there)
    and an infinite alpha.
    ``value`` is a float, or a Fraction when an int/Fraction was supplied,
    so that exact arithmetic survives downstream.
    """

    value: float | Fraction

    def __post_init__(self):
        v = self.value
        if isinstance(v, bool) or not isinstance(v, (int, float, Fraction)):
            raise TypeError(f"alpha must be a real number, got {type(v).__name__}")
        if isinstance(v, int):
            object.__setattr__(self, "value", Fraction(v))
        if not self.value > -1:
            raise ValueError(f"alpha must be > -1, got {v}")
        if not math.isfinite(self.value):
            raise ValueError(f"alpha must be finite, got {v}")

    @property
    def is_exact(self) -> bool:
        return isinstance(self.value, Fraction)


def alpha_value(alpha) -> float | Fraction:
    """Validate and unwrap an alpha given as a number or a WeightAlpha."""
    if isinstance(alpha, WeightAlpha):
        return alpha.value
    return WeightAlpha(alpha).value


@dataclass(frozen=True)
class RecurrenceCoeffs:
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
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    d = [1 + a] + [2 + a / (k + 1) for k in range(1, n)]
    lam_sq = [1 + a / k for k in range(1, n)]
    return RecurrenceCoeffs(tuple(d), tuple(lam_sq))


@dataclass(frozen=True)
class MonicPoly:
    """Dense monic polynomial; coeffs[k] multiplies x**k, coeffs[degree] == 1."""

    degree: int
    coeffs: tuple
    mode: str

    def __post_init__(self):
        if len(self.coeffs) != self.degree + 1:
            raise ValueError("coefficient count does not match degree")
        if self.coeffs[-1] != 1:
            raise ValueError("polynomial is not monic")


def _series_alpha(alpha, mode: str):
    a = alpha_value(alpha)
    if mode == RATIONAL:
        if not isinstance(a, Fraction):
            raise ValueError("rational mode requires an exact alpha (int or Fraction)")
        return a, Fraction(1)
    if mode == FLOAT:
        return float(a), 1.0
    raise ValueError(f"unknown mode {mode!r}")


def qn_coefficient_rows(alpha, n_max: int, mode: str = FLOAT):
    """Yield the coefficient row of Q_m for m = 0 .. n_max.

    Iterates the coefficient recurrence

        a[k, m+1] = a[k-1, m] - (2 + alpha/(m+1)) a[k, m] - (1 + alpha/m) a[k, m-1]

    keeping only two rows at a time.  Conventions: a[m, m] = 1 and a[k, m] = 0
    for k < 0 or k > m, realised here as plain array bounds.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    a, one = _series_alpha(alpha, mode)
    zero = one - one
    prev = [one]
    yield tuple(prev)
    if n_max == 0:
        return
    cur = [-(a + 1), one]
    yield tuple(cur)
    for m in range(1, n_max):
        d = 2 + a / (m + 1)
        lam_sq = 1 + a / m
        nxt = [zero] * (m + 2)
        nxt[m + 1] = one
        for k in range(m + 1):
            v = -d * cur[k] - (lam_sq * prev[k] if k < len(prev) else zero)
            if k > 0:
                v += cur[k - 1]
            nxt[k] = v
        prev, cur = cur, nxt
        yield tuple(cur)


def qn_coefficients(alpha, n: int, mode: str = FLOAT) -> MonicPoly:
    """Full coefficient vector of Q_n, low degree first.

    In float mode an overflowing coefficient (possible only for extreme
    n*alpha combinations) raises OverflowError rather than returning inf.
    """
    row = None
    for row in qn_coefficient_rows(alpha, n, mode):
        pass
    if mode == FLOAT and not all(math.isfinite(c) for c in row):
        raise OverflowError(f"coefficients of Q_{n} overflow binary64")
    return MonicPoly(n, row, mode)


def coeff_a0(alpha, n: int):
    """Constant coefficient of Q_n: (-1)^n * prod_{k=1..n} (1 + alpha/k)."""
    a = alpha_value(alpha)
    out = -1 if n % 2 else 1
    if isinstance(a, Fraction):
        out = Fraction(out)
    for k in range(1, n + 1):
        out *= 1 + a / k
    return out


def coeff_a1(alpha, n: int):
    """Degree-1 coefficient of Q_n: -b1 * coeff_a0 (see reciprocal_b123)."""
    a = alpha_value(alpha)
    return -reciprocal_b123(a, n)[0] * coeff_a0(a, n)


def coeff_a2(alpha, n: int):
    """Degree-2 coefficient of Q_n: b2 * coeff_a0 (zero for n <= 1)."""
    a = alpha_value(alpha)
    return reciprocal_b123(a, n)[1] * coeff_a0(a, n)


def coeff_a3(alpha, n: int):
    """Degree-3 coefficient of Q_n: -b3 * coeff_a0 (zero for n <= 2)."""
    a = alpha_value(alpha)
    return -reciprocal_b123(a, n)[2] * coeff_a0(a, n)


def reciprocal_b123(alpha, n: int):
    """Leading coefficients (b1, b2, b3) of the monic reciprocal of Q_n.

    The reciprocal P_n (monic, roots are the inverses of the zeros of Q_n)
    reads x^n - b1 x^{n-1} + b2 x^{n-2} - b3 x^{n-3} + ..., so
    b_k = (-1)^k a_{k,n} / a_{0,n}.  All three are positive for n >= 3;
    b2 vanishes for n <= 1 and b3 for n <= 2.  The largest root of P_n is
    the squared Markov constant.  This is the one statement of b1..b3:
    coeff_a1..coeff_a3 and every power-sum bound derive from it.
    """
    a = alpha_value(alpha)
    b1 = (n * (n + 1)) / (2 * (a + 1))
    b2 = ((n - 1) * n * (n + 1) * (3 * (a + 2) * n + 2 * (a + 6))) / (
        24 * (a + 1) * (a + 2) * (a + 3)
    )
    b3 = (
        (n - 2)
        * (n - 1)
        * n
        * (n + 1)
        * (5 * (a + 2) * (a + 4) * n * (n + 1) + 8 * (7 * a + 20) * n + 12 * (a + 20))
    ) / (240 * (a + 1) * (a + 2) * (a + 3) * (a + 4) * (a + 5))
    return b1, b2, b3


def _refined_lower(a, n: int):
    """Refined lower bound on c_n(a)^2:

        (3n + 2a)(6n - (a+1)) / (9 (a+1)(a+5)).

    Generic over the scalar type, so an exact a gives the exact value that
    ``bounds.residual_sandwich_check`` certifies; ``bounds.refined_bounds``
    reports it for a float a.
    """
    return ((3 * n + 2 * a) * (6 * n - (a + 1))) / (9 * (a + 1) * (a + 5))


def _refined_upper(a: float, n: int) -> float:
    """Refined upper bound on c_n(a)^2 for a float a:

        (n+1)(5n + 2(a+1)) / (5 (a+1) ((a+3)(a+5))^(1/3)).

    ``bounds.refined_bounds`` reports it; the eigenvalue solver starts at
    its reciprocal, which lies below the smallest zero of Q_n for n >= 2.
    """
    return ((n + 1) * (5 * n + 2 * (a + 1))) / (
        5 * (a + 1) * ((a + 3) * (a + 5)) ** (1.0 / 3.0)
    )
