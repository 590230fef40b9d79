"""Finite-n and asymptotic bounds for the squared Markov constant.

The squared constant c_n(alpha)^2 equals the largest root x_n of the monic
reciprocal P_n of Q_n, a polynomial with positive distinct roots.  From its
three leading coefficients b1, b2, b3 one gets the power sums p1, p2, p3 of
the roots (Newton's identities) and the chain of enclosures

    b1/n <= p2/p1 <= p3/p2 <= x_n < p3^(1/3) <= ... ,

which yields two-sided estimates of c_n(alpha)^2 valid for all alpha > -1.
This module evaluates every such bound, the classical ones they are compared
against, the asymptotic-constant bounds, and the residual polynomials that
certify the main two-sided estimate.  Routines that are pure rational
arithmetic accept an exact alpha (int/Fraction) and then return exact values;
the ``verify`` suites and the tests rely on this to check the certifying
identities without tolerance.  At an exact alpha = p/d the residuals run on
Python ints, integer numerators over one common denominator, and become
``Fraction``s only when returned.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .eigen import build_jacobi, smallest_eigenvalue
from .recurrence import (_b123_parts, _float_alpha, _normal, _refined_lower_parts,
                         _refined_upper, _require_degree, _require_n, _split, alpha_value,
                         reciprocal_b123)

__all__ = [
    "BoundPair",
    "RefinedBounds",
    "PowerSumTriple",
    "IdentityResidual",
    "BoundsReport",
    "largest_root_bounds",
    "power_sums",
    "refined_bounds",
    "dorfler_bounds",
    "laguerre_samuelson",
    "asymptotic_bounds",
    "asymptotic_upper_large_alpha",
    "bessel_zero_enclosure",
    "identity_residuals",
    "residual_sandwich_check",
    "lower_residual_poly",
    "upper_residual_poly",
    "ratio_r",
    "turan_constant",
    "exact_c1_sq",
    "exact_c2_sq",
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


class IdentityResidual(NamedTuple):
    """Residual-polynomial coefficient values at one alpha.

    ``lower_gap[j-1]`` is the coefficient of n^j (j = 1..5) in the scaled
    gap between p3 and (lower bound)*p2; all five are positive for
    alpha > -1.  ``upper_gap[j]`` is the coefficient of n^j (j = 0..5) in
    the scaled gap between the cubed upper bound and p3.
    ``upper_gap_collapsed`` folds the upper-gap coefficients towards low
    degree assuming n >= 2:

        collapsed[2] = 4 g[5] + 2 g[4] + g[3],
        collapsed[1] = 2 collapsed[2] + g[2],
        collapsed[0] = 2 collapsed[1] + g[1],

    with g = upper_gap; each is positive for alpha > -1, which makes the
    total gap positive for n >= 2.
    """

    lower_gap: tuple
    upper_gap: tuple
    upper_gap_collapsed: tuple


class BoundsReport(NamedTuple):
    """Every implemented finite-n bound next to the exact constant."""

    n: int
    alpha: float
    exact_c_sq: float
    linear: BoundPair
    quadratic: BoundPair
    cubic: BoundPair
    refined: RefinedBounds
    dorfler: BoundPair
    laguerre_samuelson: BoundPair
    turan: float | None


def _finite(lower: float, upper: float, a: float) -> tuple[float, float]:
    """(lower, upper), or OverflowError for a nan lower or an upper not in (0, inf)."""
    if math.isnan(lower) or not 0.0 < upper < math.inf:
        raise OverflowError(f"the bounds at alpha={a} overflow binary64")
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
    b1, b2, b3 = float(b1), float(b2), float(b3)
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
    return (BoundPair(b1 / n, b1), BoundPair(b1 - 2 * b2 / b1, math.sqrt(p2)),
            BoundPair(p3 / p2, upper))


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
    num, den = _refined_lower_parts(a, 1, n)
    return RefinedBounds(*_finite(num / den, _refined_upper(a, n), a), n > (a + 1) / 6)


def dorfler_bounds(alpha, n: int) -> BoundPair:
    """Classical enclosure n^2/((a+1)(a+3)) <= c_n^2 <= n(n+1)/(2(a+1));
    an upper bound that underflows to 0 (a near 1.7e308): OverflowError."""
    a = _float_alpha(alpha)
    _require_n(n)
    return BoundPair(*_finite(n * n / ((a + 1) * (a + 3)), n * (n + 1) / (2 * (a + 1)), a))


def laguerre_samuelson(b1, b2, n: int) -> BoundPair:
    """Enclosure of every root of a degree-n real-root monic polynomial from
    its first two nontrivial coefficients:

        (b1 -+ sqrt((n-1)^2 b1^2 - 2 (n-1) n b2)) / n.
    """
    _require_n(n)
    b1, b2 = float(b1), float(b2)
    disc = (n - 1) ** 2 * b1 * b1 - 2 * (n - 1) * n * b2
    if not disc >= 0.0:
        raise ValueError(f"discriminant {disc} is not >= 0: not a real-root polynomial")
    root = math.sqrt(disc)
    return BoundPair((b1 - root) / n, (b1 + root) / n)


def _bessel_zero_bounds(h: float, outward: bool = False) -> tuple[float, float]:
    """The paper's 2^(5/6) sqrt(h) ((h+1)(h+2))^(1/6) < j < sqrt(2h(h+2)) on
    j = j_{h-1,1}, h = nu + 1 = (alpha+1)/2, rounded to nearest or outward."""
    x = (h + 1.0) * (h + 2.0)
    lower = 2.0 ** (5.0 / 6.0) * math.sqrt(h) * x ** (1.0 / 6.0)
    upper = math.sqrt(2.0 * h * (h + 2.0))
    if not outward:
        return lower, upper
    # u = 2^-53.  h is within u, which moves the lower side by 5u/6 and the
    # upper by u.  Upper: h + 2, the product and the root add 2u.  Lower:
    # 2^(5/6) is within 1.6u (exponent and pow), sqrt(h) within u, x within
    # 3u and x^(1/6) so within 0.5u + u (pow) + (ln x)/6 u (exponent; x > 2);
    # the products add 2u: 7u + (ln x)/6 u to first order.  With 1.5u for the
    # widening's own roundings, K = 9 covers both sides.
    k = (9.0 + math.log(x) / 6.0) * 2.0**-53
    return lower * (1.0 - k), upper * (1.0 + k)


def asymptotic_bounds(alpha) -> BoundPair:
    """Bounds for the asymptotic constant c(alpha) = lim c_n(alpha)/n:

        sqrt(2)/sqrt((a+1)(a+5)) <= c(alpha) <= 1/(sqrt(a+1) ((a+3)(a+5))^(1/6)),

    the reciprocals of the zero's enclosure at h = (a+1)/2, rounded outward,
    as the two sides meet near a = -1.  Past a of about 1.9e154: OverflowError.
    """
    a = _float_alpha(alpha)
    lower, upper = _finite(*_bessel_zero_bounds(0.5 * a + 0.5, outward=True), a)
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
    """
    nu = float(nu)
    if not (nu > -1.0 and math.isfinite(nu)):
        raise ValueError(f"nu must be finite and > -1, got {nu}")
    return BoundPair(*_bessel_zero_bounds(nu + 1.0, outward=True))


def ratio_r(alpha) -> float:
    """Ratio of the asymptotic-constant bounds; tends to 1 as alpha -> -1
    and stays below 2 for alpha < 500."""
    lower, upper = asymptotic_bounds(alpha)
    return upper / lower


def turan_constant(n: int) -> float:
    """Exact sharp constant at alpha = 0: c_n(0) = 1/(2 sin(pi/(4n+2)))."""
    _require_n(n)
    return 0.5 / math.sin(math.pi / (4 * n + 2))


def exact_c1_sq(alpha) -> float:
    """Closed form c_1(alpha)^2 = 1/(1 + alpha)."""
    return 1.0 / (1.0 + _float_alpha(alpha))


def exact_c2_sq(alpha) -> float:
    """Closed form c_2(alpha)^2 = (3(a+2) + sqrt((a+2)(a+10))) / (2(a+1)(a+2))."""
    a = _float_alpha(alpha)
    return (3 * (a + 2) + math.sqrt((a + 2) * (a + 10))) / (2 * (a + 1) * (a + 2))


# ---------------------------------------------------------------------------
# Residual polynomials certifying the refined_bounds sandwich.
# ---------------------------------------------------------------------------


def _lower_gap_values(a):
    return (
        (1 + a) ** 2 * (10 * a**3 + 100 * a**2 + 321 * a + 1620) / 270,
        (1 + a) * (4 * a**4 + 35 * a**3 + 166 * a**2 + 417 * a + 660) / 36,
        (4 * a**5 + 36 * a**4 + 192 * a**3 + 625 * a**2 + 1527 * a + 1332) / 54,
        (a**4 - a**3 + 157 * a**2 + 579 * a + 780) / 36,
        (a**3 + 7 * a**2 + 136 * a + 280) / 30,
    )


def _upper_gap_values(a):
    return (
        8 * (1 + a) ** 2 * (2 + a) * (4 + a) / 125,
        3 * (1 + a) * (16 * a**3 + 152 * a**2 + 439 * a - 52) / 250,
        (96 * a**4 + 1363 * a**3 + 5656 * a**2 + 9167 * a + 2828) / 500,
        (16 * a**4 + 363 * a**3 + 2506 * a**2 + 7167 * a + 4708) / 250,
        (23 * a**3 + 446 * a**2 + 1657 * a + 2164) / 100,
        3 * (5 * a + 16) / 5,
    )


def identity_residuals(alpha) -> IdentityResidual:
    """Evaluate the residual-polynomial coefficient lists at one alpha.

    Exact for an exact alpha.  ``upper_gap_collapsed`` is produced by the
    low-degree collapse described on :class:`IdentityResidual`; the
    collapse, not any independent closed form, defines it.
    """
    a = alpha_value(alpha)
    g_lower = _lower_gap_values(a)
    g = _upper_gap_values(a)
    c3 = 4 * g[5] + 2 * g[4] + g[3]
    c2 = 2 * c3 + g[2]
    c1 = 2 * c2 + g[1]
    return IdentityResidual(g_lower, g, (c1, c2, c3))


def _coefficients_from_values(values):
    """Coefficients (n^0 first), as Fractions, of the polynomial of degree
    < len(values) that takes the exact ``values`` at n = 0, 1, 2, ...:
    Newton's forward-difference form sum_k (Delta^k v)(0) * binom(n, k).
    With binom(n, k) = n(n-1)...(n-k+1) / k!, integer values stay integers
    up to one division by (len(values) - 1)!."""
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
    return [Fraction(c, top) for c in coeffs]


def _scaled_residual_poly(alpha, side: int, scale):
    """Coefficients in n (n^0 .. n^6) of residual ``side`` of
    :func:`residual_sandwich_check` times ``scale(a)``.  Both residuals are
    polynomials of degree <= 6 in n, so their values at n = 0..6 fix them;
    their denominators do not depend on n, so the numerators alone are
    interpolated."""
    a = alpha_value(alpha)
    exact, a = isinstance(a, Fraction), Fraction(a)
    p, d = _split(a)
    parts = [_residual_parts(p, d, n)[side] for n in range(7)]
    factor = scale(a) / parts[0][1]
    out = [c * factor for c in _coefficients_from_values([num for num, _ in parts])]
    return tuple(out) if exact else tuple(float(x) for x in out)


def lower_residual_poly(alpha):
    """Coefficients in n (n^0 .. n^6) of the scaled lower-bound gap

        (p3 - lower * p2) * (a+1)^3 (a+2)(a+3)(a+4)(a+5),

    where ``lower`` is the refined_bounds lower bound.  The n^6 and n^0
    entries vanish identically and entries 1..5 equal the ``lower_gap``
    values of :func:`identity_residuals`.  Exact (Fraction entries) for an
    exact alpha; a float alpha is lifted to its exact binary value and
    results are rounded once at the end.
    """
    return _scaled_residual_poly(
        alpha, 0, lambda a: (a + 1) ** 3 * (a + 2) * (a + 3) * (a + 4) * (a + 5)
    )


def upper_residual_poly(alpha):
    """Coefficients in n (n^0 .. n^6) of the scaled upper-bound gap

        (upper^3 - p3) * (a+1)^2 (a+2)(a+3)(a+4)(a+5),

    where ``upper`` is the refined_bounds upper bound (its cube is rational
    in alpha and n).  The n^6 entry vanishes identically and entries 0..5
    equal the ``upper_gap`` values of :func:`identity_residuals`.  Exactness
    policy as in :func:`lower_residual_poly`.
    """
    return _scaled_residual_poly(
        alpha, 1, lambda a: (a + 1) ** 2 * (a + 2) * (a + 3) * (a + 4) * (a + 5)
    )


def _residual_parts(p: int, d: int, n: int):
    """The two residuals of :func:`residual_sandwich_check` at alpha = p/d
    (integers, d > 0) as (numerator, denominator) pairs of ints.  The
    denominators depend on p and d only.

    With b_k = B_k / D over D = lcm of the three denominators of b1..b3,
    Newton's identities are homogeneous of weight k in b_k, so p_k is
    ``power_sums(B1, B2 D, B3 D^2)[k-1]`` over D^k.  The cube of the refined
    upper bound is (n+1)^3 (5n + 2(a+1))^3 / (125 (a+1)^3 (a+3)(a+5)).
    """
    (n1, d1), (n2, d2), (n3, d3) = _b123_parts(p, d, n)
    den = math.lcm(d1, d2, d3)
    _, p2, p3 = power_sums(n1 * (den // d1), n2 * (den // d2) * den,
                           n3 * (den // d3) * den * den)
    low, low_den = _refined_lower_parts(p, d, n)
    up = (n + 1) ** 3 * (5 * n * d + 2 * (p + d)) ** 3 * d * d
    up_den = 125 * (p + d) ** 3 * (p + 3 * d) * (p + 5 * d)
    den3 = den**3
    return ((p3 * low_den - low * p2 * den, den3 * low_den),
            (up * den3 - p3 * up_den, den3 * up_den))


def residual_sandwich_check(alpha, n: int):
    """Unscaled gaps certifying the refined_bounds sandwich at (alpha, n):

        lower_residual = p3 - lower * p2      (>= 0 for n >= 3, n > (a+1)/6),
        upper_residual = upper^3 - p3         (>= 0 for n >= 2).

    The one place the two residuals are formed, as integer numerators over
    one common denominator (:func:`_residual_parts`, from which the residual
    polynomials are also recovered), returned as Fractions for an int or
    Fraction alpha.  A float alpha is lifted to its exact binary value and
    each residual rounded once; a nonzero one that leaves the binary64 range
    raises OverflowError.  Requires n >= 0.
    """
    a = alpha_value(alpha)
    _require_degree(n)
    parts = _residual_parts(*_split(Fraction(a)), n)
    if isinstance(a, Fraction):
        return tuple(Fraction(num, den) for num, den in parts)
    out = tuple(num / den for num, den in parts)  # OverflowError above binary64
    if any(num and not r for (num, _), r in zip(parts, out)):
        raise OverflowError(f"the residuals at alpha={a}, n={n} underflow binary64")
    return out


def bounds_report(alpha, n: int, tol: float = 1e-13) -> BoundsReport:
    """Compute the exact squared constant and every finite-n bound at (alpha, n)."""
    a = _float_alpha(alpha)
    res = smallest_eigenvalue(build_jacobi(a, n), tol)
    exact_c_sq = 1.0 / res.value
    refined = refined_bounds(a, n)  # first: it raises where the products overflow
    b1, b2, b3 = reciprocal_b123(a, n)
    pair_i, pair_ii, pair_iii = largest_root_bounds(b1, b2, b3, n)
    return BoundsReport(
        n=n,
        alpha=a,
        exact_c_sq=exact_c_sq,
        linear=pair_i,
        quadratic=pair_ii,
        cubic=pair_iii,
        refined=refined,
        dorfler=dorfler_bounds(a, n),
        laguerre_samuelson=laguerre_samuelson(b1, b2, n),
        turan=turan_constant(n) if a == 0.0 else None,
    )
