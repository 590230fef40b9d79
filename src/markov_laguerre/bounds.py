"""Finite-n and asymptotic bounds for the squared Markov constant.

The squared constant c_n(alpha)^2 equals the largest root x_n of the monic
reciprocal P_n of Q_n, a polynomial with positive distinct roots.  From its
three leading coefficients b1, b2, b3 one gets the power sums p1, p2, p3 of
the roots (Newton's identities) and the chain of enclosures

    b1/n <= p2/p1 <= p3/p2 <= x_n < p3^(1/3) <= ... ,

which yields two-sided estimates of c_n(alpha)^2 valid for all alpha > -1.
This module evaluates every such bound, the classical ones they are compared
against, the asymptotic-constant bounds, and the residuals that certify
the main two-sided estimate.  One engine, ``_rows``, puts c_n^2
beside every finite-n bound, one row per n at one alpha, on one factor
built for all of them, with c_n/(n c(alpha)) from :mod:`bessel` and the
sandwich verdict.  Its rows are ``BoundsReport`` records, whose fields are
the columns that the ``sweep`` and ``bounds`` commands print;
``bounds_report`` is its row at one n.  Routines that are pure
rational arithmetic accept an exact alpha (int/Fraction) and then return
exact values; the ``verify`` suites and the tests rely on this to check the
certifying identities without tolerance.  At alpha = p/d the residuals
and their coefficient lists in n run on Python ints, numerators over
denominators, and become ``Fraction``s only when
``residual_sandwich_check`` returns them.  The positivity proof
``_positive_above_minus_one`` runs on ints too: it interpolates values
taken at t = alpha + 1 = 0, 1, 2, ... and applies Pólya's multiplier, a
power of (1 + t) that leaves no negative coefficient.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from . import bessel
from .bessel import _bessel_zero_bounds
from .eigen import TridiagMatrix, _smallest, build_jacobi
from .recurrence import (_b123_float, _b123_parts, _float_alpha, _normal, _real,
                         _refined_lower_parts, _refined_upper, _refined_upper_parts,
                         _require_degree, _require_n, alpha_value)
from .recurrence import reciprocal_b123  # noqa: F401  (bench/test_bench.py reads it here)

__all__ = [
    "BoundPair",
    "RefinedBounds",
    "PowerSumTriple",
    "BoundsReport",
    "largest_root_bounds",
    "power_sums",
    "refined_bounds",
    "dorfler_bounds",
    "laguerre_samuelson",
    "asymptotic_bounds",
    "asymptotic_upper_large_alpha",
    "bessel_zero_enclosure",
    "residual_sandwich_check",
    "ratio_r",
    "turan_constant",
    "bounds_report",
]


class BoundPair(NamedTuple):
    lower: float
    upper: float


class RefinedBounds(NamedTuple):
    """Two-sided estimate of c_n^2; the lower bound additionally needs
    n > (alpha+1)/6 (``lower_valid``), the two-sided claim needs n >= 3."""

    lower: float
    upper: float
    lower_valid: bool


class PowerSumTriple(NamedTuple):
    """Power sums sum(x_i), sum(x_i^2), sum(x_i^3) of the roots of P_n."""

    p1: float
    p2: float
    p3: float


class BoundsReport(NamedTuple):
    """One bounds row at (alpha, n): c_n(alpha) and c_n^2 beside every
    finite-n bound, c_n/(n c(alpha)) and the sandwich verdict.  The fields
    are the columns of the ``sweep`` and ``bounds`` commands, in order."""

    alpha: float
    n: int
    exact_c: float
    exact_c_sq: float
    linear_lower: float
    linear_upper: float
    quadratic_lower: float
    quadratic_upper: float
    cubic_lower: float
    cubic_upper: float
    refined_lower: float
    refined_upper: float
    refined_lower_valid: bool
    dorfler_lower: float
    dorfler_upper: float
    ls_lower: float
    ls_upper: float
    turan: float | None
    asymptotic_ratio: float | None  # None past c(alpha)'s domain, alpha > 2001
    sandwich_violation: bool


def _finite(lower: float, upper: float, value: float, name: str = "alpha") -> tuple[float, float]:
    """(lower, upper), or OverflowError, naming the argument ``name=value``,
    for a nan lower or an upper not in (0, inf)."""
    if math.isnan(lower) or not 0.0 < upper < math.inf:
        raise OverflowError(f"the bounds at {name}={value} overflow binary64")
    return lower, upper


def power_sums(b1, b2, b3) -> PowerSumTriple:
    """Newton's identities: (p1, p2, p3) from the leading coefficients.

    Exact for exact inputs."""
    p1 = b1
    p2 = b1 * b1 - 2 * b2
    p3 = b1 * b1 * b1 - 3 * b1 * b2 + 3 * b3
    return PowerSumTriple(p1, p2, p3)


def largest_root_bounds(b1, b2, b3, n: int):
    """Three (lower, upper) enclosures of the largest root of a monic
    polynomial x^n - b1 x^{n-1} + b2 x^{n-2} - b3 x^{n-3} + ... with positive
    roots, from the first three power sums.

    The cubic upper bound uses p3^(1/3) = (b1^3 - 3 b1 b2 + 3 b3)^(1/3),
    rounded upward; the lower bounds are attained only when all roots
    coincide.  A p2 or p3 that is not a positive normal float raises
    OverflowError.
    """
    _require_n(n)
    linear, quadratic, cubic = _root_bounds(_real(b1, "b1"), _real(b2, "b2"), _real(b3, "b3"), n)
    return BoundPair(*linear), BoundPair(*quadratic), BoundPair(*cubic)


def _root_bounds(b1: float, b2: float, b3: float, n: int):
    """The body of :func:`largest_root_bounds`, on floats and a valid n:
    the three (lower, upper) pairs as plain tuples."""
    _, p2, p3 = power_sums(b1, b2, b3)
    if p2 <= 0.0:
        raise ValueError(f"p2 = {p2} <= 0: inputs are not from a positive-root polynomial")
    if not _normal(p2, p3):
        raise OverflowError(f"the power sums p2 = {p2}, p3 = {p3} overflow or underflow binary64")
    # u = 2^-53.  reciprocal_b123 rounds each +, *, / and int-to-float
    # conversion once, on positive terms (7a + 20 > 13 > -7a counts twice): b1, b2
    # and b3 lie within 3, 13 and 21 u, so t1 = b1^3, t2 = 3 b1 b2 and
    # t3 = 3 b3 within 11, 18 and 22 u, and the two sums of p3 = t1 - t2 + t3
    # add u (t1 + t2 + t3): p3 is within 24 u (t1 + t2 + t3), to first order,
    # and K = 40 covers the rest.  The factor covers pow, the exponent
    # 1/3 - u/6 (|ln p3u| u/6) and the last roundings.
    p3u = p3 + 40 * 2.0**-53 * (b1 * b1 * b1 + 3 * b1 * b2 + 3 * b3)
    upper = p3u ** (1.0 / 3.0) * (1.0 + (4.0 + abs(math.log(p3u))) * 2.0**-53)
    return (b1 / n, b1), (b1 - 2 * b2 / b1, math.sqrt(p2)), (p3 / p2, upper)


def refined_bounds(alpha, n: int) -> RefinedBounds:
    """Main two-sided estimate of c_n(alpha)^2.

    lower = 2 (n + 2a/3)(n - (a+1)/6) / ((a+1)(a+5)),
    upper = (n+1)(n + 2(a+1)/5) / ((a+1) ((a+3)(a+5))^(1/3)).

    ``lower_valid`` reflects n > (a+1)/6; the sandwich claim presumes n >= 3
    (out-of-range requests are computed and flagged, never raised).

    The lower bound improves on the classical n^2/((a+1)(a+3)) by the
    factor 2(a+3)/(a+5) > 1 as n -> oo, but not at every n: it is the larger
    one exactly when

        q_a(n) = (a+1) n^2 + (3a-1)(a+3) n/3 - 2a(a+1)(a+3)/9 >= 0.

    q_a(n) < 0 near a = -1 at small n (a = -0.9: n <= 25) and in a thin
    window just above n = (a+1)/6 at large a (a = 50, n = 9: 0.0151 against
    0.0300), where the refined lower bound is valid but weaker.  Past a of
    about 1e154 the products overflow binary64: OverflowError.
    """
    a = _float_alpha(alpha)
    _require_n(n)
    return RefinedBounds(*_refined(a, n))


def _refined(a: float, n: int) -> tuple[float, float, bool]:
    """The body of :func:`refined_bounds` at a float a and a valid n, as a
    plain tuple."""
    num, den = _refined_lower_parts(a, 1, n)
    return *_finite(num / den, _refined_upper(a, n), a), n > (a + 1) / 6


def dorfler_bounds(alpha, n: int) -> BoundPair:
    """Classical enclosure n^2/((a+1)(a+3)) <= c_n^2 <= n(n+1)/(2(a+1));
    an upper bound that underflows to 0 (a near 1.7e308): OverflowError."""
    a = _float_alpha(alpha)
    _require_n(n)
    return BoundPair(*_dorfler(a, n))


def _dorfler(a: float, n: int) -> tuple[float, float]:
    """The body of :func:`dorfler_bounds` at a float a and a valid n."""
    return _finite(n * n / ((a + 1) * (a + 3)), n * (n + 1) / (2 * (a + 1)), a)


def laguerre_samuelson(b1, b2, n: int) -> BoundPair:
    """Enclosure of every root of a degree-n real-root monic polynomial from
    its first two nontrivial coefficients:

        (b1 -+ sqrt((n-1)^2 b1^2 - 2 (n-1) n b2)) / n.
    """
    _require_n(n)
    return BoundPair(*_samuelson(_real(b1, "b1"), _real(b2, "b2"), n))


def _samuelson(b1: float, b2: float, n: int) -> tuple[float, float]:
    """The body of :func:`laguerre_samuelson`, on floats and a valid n."""
    disc = (n - 1) ** 2 * b1 * b1 - 2 * (n - 1) * n * b2
    if not disc >= 0.0:
        raise ValueError(f"discriminant {disc} is not >= 0: not a real-root polynomial")
    root = math.sqrt(disc)
    return (b1 - root) / n, (b1 + root) / n


def asymptotic_bounds(alpha) -> BoundPair:
    """Bounds for the asymptotic constant c(alpha) = lim c_n(alpha)/n:

        sqrt(2)/sqrt((a+1)(a+5)) <= c(alpha) <= 1/(sqrt(a+1) ((a+3)(a+5))^(1/6)),

    the reciprocals of the zero's enclosure at h = (a+1)/2, rounded outward,
    as the two sides meet near a = -1.  Past a of about 1.9e154: OverflowError.
    """
    a = _float_alpha(alpha)
    lower, upper = _finite(*_bessel_zero_bounds(0.5 * a + 0.5), a)
    # One step outward covers the rounding of each reciprocal.
    return BoundPair(math.nextafter(1.0 / upper, 0.0), math.nextafter(1.0 / lower, math.inf))


def asymptotic_upper_large_alpha(alpha) -> float:
    """Upper bound 2/(alpha + 2*pi - 2) for c(alpha), valid for alpha >= 2.

    It holds with equality at alpha = 2 (both sides are 1/pi, since
    j_{1/2,1} = pi) and strictly for alpha > 2.  On 1 < alpha < 2 the
    inequality is reversed (alpha = 1.5: c = 0.3596 > 0.3458), so alpha < 2
    raises rather than return a number that is not an upper bound.
    """
    a = _float_alpha(alpha)
    if not a >= 2.0:
        raise ValueError(f"the bound requires alpha >= 2, got {a}")
    return 2.0 / (a + 2.0 * math.pi - 2.0)


def bessel_zero_enclosure(nu: float) -> BoundPair:
    """Enclosure, rounded outward, of the first positive zero of J_nu:

        2^(5/6) sqrt(nu+1) ((nu+2)(nu+3))^(1/6) < j_{nu,1} < sqrt(2(nu+1)(nu+3)).

    Past nu of about 9.5e153 an end leaves binary64: OverflowError.
    """
    nu = _real(nu, "nu")
    if not (nu > -1.0 and math.isfinite(nu)):
        raise ValueError(f"nu must be finite and > -1, got {nu}")
    return BoundPair(*_finite(*_bessel_zero_bounds(nu + 1.0), nu, "nu"))


def ratio_r(alpha) -> float:
    """Ratio of the asymptotic-constant bounds; tends to 1 as alpha -> -1
    and stays below 2 for alpha < 500."""
    lower, upper = asymptotic_bounds(alpha)
    return upper / lower


def turan_constant(n: int) -> float:
    """Exact sharp constant at alpha = 0: c_n(0) = 1/(2 sin(pi/(4n+2)))."""
    _require_n(n)
    return 0.5 / math.sin(math.pi / (4 * n + 2))


# ---------------------------------------------------------------------------
# Residual polynomials certifying the refined_bounds sandwich.
# ---------------------------------------------------------------------------


def _lower_gap_parts(p, d):
    """(numerator, denominator) of the coefficients of n^1..n^5, as the
    paper prints them, of the lower residual (:func:`_residual_parts`)
    times (a+1)^3 (a+2)...(a+5) at alpha = p/d, homogeneous in (p, d)
    like ``recurrence._b123_parts``: integers p, d give integer parts."""
    e1 = p + d
    return (
        (e1**2 * (10 * p**3 + 100 * p**2 * d + 321 * p * d**2 + 1620 * d**3), 270 * d**5),
        (e1 * (4 * p**4 + 35 * p**3 * d + 166 * p**2 * d**2 + 417 * p * d**3 + 660 * d**4),
         36 * d**5),
        (4 * p**5 + 36 * p**4 * d + 192 * p**3 * d**2 + 625 * p**2 * d**3 + 1527 * p * d**4
         + 1332 * d**5, 54 * d**5),
        (p**4 - p**3 * d + 157 * p**2 * d**2 + 579 * p * d**3 + 780 * d**4, 36 * d**4),
        (p**3 + 7 * p**2 * d + 136 * p * d**2 + 280 * d**3, 30 * d**3),
    )


def _upper_gap_parts(p, d):
    """The coefficients of n^0..n^5 of the upper residual times
    (a+1)^2 (a+2)...(a+5), as :func:`_lower_gap_parts` gives the lower ones."""
    e1 = p + d
    return (
        (8 * e1**2 * (2 * d + p) * (4 * d + p), 125 * d**4),
        (3 * e1 * (16 * p**3 + 152 * p**2 * d + 439 * p * d**2 - 52 * d**3), 250 * d**4),
        (96 * p**4 + 1363 * p**3 * d + 5656 * p**2 * d**2 + 9167 * p * d**3 + 2828 * d**4,
         500 * d**4),
        (16 * p**4 + 363 * p**3 * d + 2506 * p**2 * d**2 + 7167 * p * d**3 + 4708 * d**4,
         250 * d**4),
        (23 * p**3 + 446 * p**2 * d + 1657 * p * d**2 + 2164 * d**3, 100 * d**3),
        (3 * (5 * p + 16 * d), 5 * d),
    )


def _numerators(parts) -> list:
    """The numerators of (numerator, denominator) ``parts`` over the lcm of
    their (positive) denominators."""
    den = math.lcm(*(den for _, den in parts))
    return [num * (den // part_den) for num, part_den in parts]


def _coefficients_from_values(values):
    """(coefficients, divisor): the coefficients (n^0 first) of the
    polynomial of degree < len(values) that takes the exact ``values`` at
    n = 0, 1, 2, ..., times the divisor (len(values) - 1)!, and that divisor.
    Newton's forward-difference form sum_k (Delta^k v)(0) * binom(n, k), with
    binom(n, k) = n(n-1)...(n-k+1) / k!: integer values give integer
    coefficients."""
    top = math.factorial(len(values) - 1)
    coeffs = [0] * len(values)
    falling = [1]  # n(n-1)...(n-k+1) as coefficients in n, for k = 0
    diffs = list(values)
    for k in range(len(values)):
        weight = diffs[0] * (top // math.factorial(k))
        for j, c in enumerate(falling):
            coeffs[j] += weight * c
        diffs = [y - x for x, y in zip(diffs, diffs[1:])]
        falling = [s - k * c for s, c in zip([0] + falling, falling + [0])]
    return coeffs, top


_POLYA_MAX = 64  # the largest N of _positive_above_minus_one; the residuals need 5


def _positive_above_minus_one(values) -> bool:
    """Whether the function of alpha that takes the exact ``values`` (ints
    or Fractions) at t = alpha + 1 = 0, 1, 2, ... is proved > 0 for every
    alpha > -1 (False: not proved).

    The premise is that the values are those of a polynomial of degree
    < len(values): the values but the last fix a polynomial q of degree
    < len(values) - 1 in t (``_coefficients_from_values``), and the last
    one, which q must also take, then forces the function to be q.  Scaled
    to ints, q > 0 on t > 0 if it is not zero and (1 + t)^N q(t) has no
    negative coefficient for an N <= _POLYA_MAX; by Pólya (1928) some N
    does if q = t^m p with p > 0 on [0, inf), and t^m moves no sign.
    """
    *fit, last = _numerators([(v.numerator, v.denominator) for v in values])
    q, top = _coefficients_from_values(fit)  # top * q(t), constant first
    if sum(c * len(fit) ** j for j, c in enumerate(q)) != top * last or not any(q):
        return False
    for _ in range(_POLYA_MAX + 1):
        if min(q) >= 0:
            return True
        q = [x + y for x, y in zip(q + [0], [0] + q)]  # times (1 + t)
    return False


def _residual_parts(p: int, d: int, n: int):
    """The two residuals of :func:`residual_sandwich_check` at alpha = p/d
    (integers, d > 0) as (numerator, denominator) pairs of ints, which the
    ``identities`` suite compares with the printed lists at n = 0..6.  The
    denominators depend on p and d only.

    With b_k = B_k / D over D = lcm of the three denominators of b1..b3,
    Newton's identities are homogeneous of weight k in b_k, so p_k is
    ``power_sums(B1, B2 D, B3 D^2)[k-1]`` over D^k.
    """
    (n1, d1), (n2, d2), (n3, d3) = _b123_parts(p, d, n)
    den = math.lcm(d1, d2, d3)
    _, p2, p3 = power_sums(n1 * (den // d1), n2 * (den // d2) * den,
                           n3 * (den // d3) * den * den)
    low, low_den = _refined_lower_parts(p, d, n)
    up, up_den, root = _refined_upper_parts(p, d, n)
    cube, cube_den = up**3 * d * d, up_den**3 * root  # the refined upper bound, cubed
    den3 = den**3
    return ((p3 * low_den - low * p2 * den, den3 * low_den),
            (cube * den3 - p3 * cube_den, den3 * cube_den))


def residual_sandwich_check(alpha, n: int):
    """Unscaled gaps certifying the refined_bounds sandwich at (alpha, n):

        lower_residual = p3 - lower * p2      (>= 0 for n >= 3, n > (a+1)/6),
        upper_residual = upper^3 - p3         (>= 0 for n >= 2).

    The one place the two residuals are formed, as integer numerators over
    one common denominator (:func:`_residual_parts`, which the
    ``identities`` suite reads), returned as Fractions for an int or
    Fraction alpha.  A float alpha is lifted to its exact binary
    value and each residual rounded once; a nonzero one that leaves the
    binary64 range raises OverflowError.  Requires n >= 0.
    """
    a = alpha_value(alpha)
    _require_degree(n)
    parts = _residual_parts(*a.as_integer_ratio(), n)
    if isinstance(a, Fraction):
        return tuple(Fraction(num, den) for num, den in parts)
    out = tuple(num / den for num, den in parts)  # OverflowError above binary64
    if any(num and not r for (num, _), r in zip(parts, out)):
        raise OverflowError(f"the residuals at alpha={a}, n={n} underflow binary64")
    return out


def _sandwich_violations(n: int, c_sq: float, refined, dorfler) -> list[str]:
    """The finite-n claims that c_n^2 = ``c_sq`` breaks, given the refined
    (lower, upper, lower_valid) and classical (lower, upper) bounds: the
    strict two-sided estimate where it applies (n >= 3 and n > (alpha+1)/6)
    and the classical enclosure.  Behind the sweep's sandwich_violation and
    the sandwich suite."""
    out = []
    lower, upper, lower_valid = refined
    if n >= 3 and lower_valid and not lower < c_sq < upper:
        out.append("two-sided estimate violated")
    if not dorfler[0] <= c_sq <= dorfler[1]:
        out.append("classical enclosure violated")
    return out


def _rows(alpha, ns, tol: float) -> list[BoundsReport]:
    """The bounds rows at one alpha, one per n of the non-empty ``ns``, in
    its order.

    alpha and every n are validated once, and the factor q_k = 1 + a/k,
    which does not depend on n, is built once at max(ns) from the caller's
    alpha, exact or float: each n is solved on its leading slice, the
    floats ``build_jacobi(alpha, n)`` holds.  The closed forms are the
    bodies of the public bounds, which validate their arguments at each
    call; a row raises in the order solve, refined pair, b1..b3, power sums.
    c(alpha) is computed once, before the rows, where the caller's alpha
    lies in its domain (asymptotic_ratio is None elsewhere), and its zero
    is the Dörfler start of each n >= ``eigen._START_MIN_N``.  An n whose
    predecessors n-1, n-2 and n-3 were the rows just solved starts at
    (3 c_{n-1} - 3 c_{n-2} + c_{n-3})^-2, which extrapolates c_n, nearly
    linear in n by Dörfler's limit: for alpha from -0.9 to 50 the start is
    off the eigenvalue by up to 3e-3 relative at n = 6, 1.2e-4 at n = 15,
    1.4e-6 at n = 50 and 8e-8 at n = 100, the most at the largest alpha.
    The start moves the pass count only: each row is the one
    ``bounds_report`` gives, bit for bit.
    """
    a = _float_alpha(alpha)
    for n in ns:
        _require_n(n)
    q = build_jacobi(alpha, max(ns)).q
    zero = bessel._alpha_zero(alpha, tol)
    c_inf = None if zero is None else 1.0 / zero
    rows = []
    run = 0  # the rows just solved at n-1, n-2, ...
    for n in ns:
        run = run + 1 if rows and rows[-1].n == n - 1 else 0
        start = None
        if run >= 3:
            c3, c2, c1 = (row.exact_c for row in rows[-3:])
            start = (3.0 * c1 - 3.0 * c2 + c3) ** -2
        c_sq = 1.0 / _smallest(TridiagMatrix(a, q[:n]), tol, start, zero).value
        c = math.sqrt(c_sq)
        refined = _refined(a, n)  # first: it raises where the products overflow
        b1, b2, b3 = _b123_float(a, n)
        linear, quadratic, cubic = _root_bounds(b1, b2, b3, n)
        dorfler = _dorfler(a, n)
        rows.append(BoundsReport(a, n, c, c_sq, *linear, *quadratic, *cubic, *refined, *dorfler,
                                 *_samuelson(b1, b2, n), turan_constant(n) if a == 0.0 else None,
                                 None if c_inf is None else c / (n * c_inf),
                                 bool(_sandwich_violations(n, c_sq, refined, dorfler))))
    return rows


def bounds_report(alpha, n: int, tol: float = 1e-13) -> BoundsReport:
    """The bounds row at (alpha, n): the row of ``_rows`` at (n,)."""
    return _rows(alpha, (n,), tol)[0]
