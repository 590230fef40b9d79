"""First-kind Bessel values and the first positive zero j_{nu,1}.

The asymptotic Markov constant is c(alpha) = 1/j_{(alpha-1)/2,1}, so locating
the first Bessel zero turns the finite-n machinery into asymptotic checks.

Zeros as eigenvalues
--------------------
The layer's one variable is h = nu + 1 = (alpha+1)/2, exact where nu
cancels near -1.  The reciprocal zeros +-1/j_{nu,k} are the eigenvalues of
Ikebe's infinite symmetric tridiagonal matrix with zero diagonal and
off-diagonal b_k = 1/(2 sqrt((h+k-1)(h+k))), k = 1, 2, ... (Ikebe 1975;
Ikebe, Kikuchi & Fujishiro 1991); its eigenvector is (sqrt(nu+k)
J_{nu+k}(j))_k.  The matrix is the Golub-Kahan form of the lower bidiagonal
C with diagonal b_1, b_3, ... and subdiagonal b_2, b_4, ..., so 4/j_{nu,1}^2
is the largest eigenvalue of 4 C C^T = B B^T, where B has squared diagonal
q_i = 1/((h+2i)(h+2i+1)) and squared subdiagonal e_i = 1/((h+2i+1)(h+2i+2)).
``first_zero`` solves it with safeguarded Laguerre steps and count-only
qd sign counts of :mod:`markov_laguerre.eigen` (``_laguerre_pass_e``,
``_count_e``, ``_largest``), from above, and returns j = 2/sqrt(lambda_max).

Which side is proved
--------------------
Cutting the matrix at order m keeps a leading principal block, so its
largest eigenvalue is a Rayleigh quotient over a subspace and can only lie
below 4/j^2: truncation never moves the result below j.  The order is the
first at which Kapteyn's inequality bounds the eigenvector's component
where the matrix is cut far below tol, evaluated at an upper bound on j.
The eigenvalue of the truncated matrix lies in a bracket of relative width
tol whose ends the sign count places but does not prove; j is its midpoint.

The paper's enclosure of the zero, ``_bessel_zero_bounds``, is defined
here with one rounding, outward; ``bounds`` returns it in its public
forms.  It is load-bearing: it sets the truncation order and the
eigenvalue's bracket, count-only passes check both of its ends, and a
count that finds the zero outside the enclosure at either end raises
RuntimeError.  The lower end of the eigenvalue's bracket, 4/upper^2,
carries the truncation allowance tol * _TRUNCATION_MARGIN besides the
rounding: near nu = -1 the enclosure is narrower than that allowance, so
j, which the bracket may then place outside the enclosure, is clamped
into it, the pair ``bounds.bessel_zero_enclosure`` returns.
The solve starts at 4/lower^2, or from nu = 1 on at 4/x^2, x Olver's
expansion of the zero (``_olver``), where that lies strictly inside the
enclosure.  The close's lattice makes the result independent of the start,
so the expansion, which is tested but not proved, moves only the pass
count.

Domain
------
``first_zero`` takes -1 < nu <= ZERO_NU_MAX = 1000 (alpha <= 2001 for
c(alpha)), the range its tests check against mpmath and by the sign count;
other arguments raise ValueError.  The order grows like nu^(1/3), and once
2m is below half an ulp of nu (nu above about 2e24) nu + 2m rounds to nu
and no order meets the truncation rule.

Series envelope
---------------
``bessel_j`` sums the ascending alternating series, so binary64 loses
roughly log10(I_nu(x) / |J_nu(x)|) digits to cancellation.  Its certified
envelope is -1 < nu <= NU_MAX = 25 and 0 < x <= X_MAX = 40; near the far
corner the absolute error grows to ~1e-7, while for small x the series is
accurate to ~1e-15.  The envelope bounds ``bessel_j`` only.
"""

from __future__ import annotations

import functools
import math
import sys

from .eigen import EigenResult, _check_tol, _count_e, _laguerre_pass_e, _largest
from .recurrence import _float_alpha, alpha_value

__all__ = ["NU_MAX", "X_MAX", "ZERO_NU_MAX", "bessel_j", "first_zero", "asymptotic_constant"]

NU_MAX = 25.0
X_MAX = 40.0
ZERO_NU_MAX = 1000.0
_ALPHA_MAX = 2 * ZERO_NU_MAX + 1  # asymptotic_constant's: (alpha-1)/2 <= ZERO_NU_MAX

_MIN_TERMS = 30
_MAX_TERMS = 400

# First zero of the Airy function Ai.
_AIRY_A1 = -2.338107410459767
# The truncation target is this factor below tol.
_TRUNCATION_MARGIN = 1e-3
# Relative outward widening of the eigenvalue's bracket, for the rounding of
# 4/x^2 at the enclosure's ends x (a few ulp).
_WIDEN = 16 * sys.float_info.epsilon


def bessel_j(nu: float, x: float, *, series_rel_tol: float = 1e-18) -> float:
    """J_nu(x) by the ascending series, for 0 < x <= 40 and -1 < nu <= 25.

    The leading term is formed in log space as exp(nu*log(x/2) - lgamma(nu+1));
    successive terms follow the ratio t_{m+1} = -t_m (x/2)^2 / ((m+1)(nu+m+1)).
    Summation is compensated and stops once |t_m| <= series_rel_tol * |sum|,
    after at least 30 terms.  Arguments outside the envelope raise ValueError.
    """
    nu = float(nu)
    x = float(x)
    if not -1.0 < nu <= NU_MAX:
        raise ValueError(f"nu={nu} outside the certified envelope (-1, {NU_MAX}]")
    if not 0.0 < x <= X_MAX:
        raise ValueError(f"x={x} outside the certified envelope (0, {X_MAX}]")

    half = 0.5 * x
    term = math.exp(nu * math.log(half) - math.lgamma(nu + 1.0))
    total = term
    comp = 0.0
    neg_quarter_sq = -half * half
    for m in range(1, _MAX_TERMS + 1):
        term *= neg_quarter_sq / (m * (nu + m))
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if m >= _MIN_TERMS and abs(term) <= series_rel_tol * abs(total):
            return total
    raise RuntimeError(f"series for J_{nu}({x}) did not settle in {_MAX_TERMS} terms")


def _bessel_zero_bounds(h: float) -> tuple[float, float]:
    """The paper's 2^(5/6) sqrt(h) ((h+1)(h+2))^(1/6) < j < sqrt(2h(h+2)) on
    j = j_{h-1,1}, h = nu + 1 = (alpha+1)/2, rounded outward."""
    x = (h + 1.0) * (h + 2.0)
    lower = 2.0 ** (5.0 / 6.0) * math.sqrt(h) * x ** (1.0 / 6.0)
    upper = math.sqrt(2.0 * h * (h + 2.0))
    # u = 2^-53.  h is within u, which moves the lower side by 5u/6 and the
    # upper by u.  Upper: h + 2, the product and the root add 2u.  Lower:
    # 2^(5/6) is within 1.6u (exponent and pow), sqrt(h) within u, x within
    # 3u and x^(1/6) so within 0.5u + u (pow) + (ln x)/6 u (exponent; x > 2);
    # the products add 2u: 7u + (ln x)/6 u to first order.  With 1.5u for the
    # widening's own roundings, K = 9 covers both sides.
    k = (9.0 + math.log(x) / 6.0) * 2.0**-53
    return lower * (1.0 - k), upper * (1.0 + k)


def _qu_wong(nu: float) -> float:
    """The upper bound of Qu & Wong (1999) on j_{nu,1}, used from nu = 1 on:
    nu - a_1 (nu/2)^(1/3) + (3/20) a_1^2 (nu/2)^(-1/3), a_1 the first zero of
    Ai.  It is the first three terms of Olver's expansion (``_olver``)."""
    t = (0.5 * nu) ** (1.0 / 3.0)
    return nu - _AIRY_A1 * t + 0.15 * _AIRY_A1 * _AIRY_A1 / t


def _olver(nu: float) -> float:
    """Olver's uniform expansion of j_{nu,1} (Olver 1954; DLMF 10.21(viii))
    to five terms: ``_qu_wong`` - 0.00397/nu - 0.0908 nu^(-5/3), the last two
    coefficients as printed to three digits.  Relative to the Ikebe zero it
    is -9.8e-3 off at nu = 1, -1.1e-4 at 5, -7.7e-7 at 25, -8.4e-9 at 100
    and -6.4e-13 at 1000.  It is tested, not proved: ``first_zero`` uses it
    as a start only."""
    return _qu_wong(nu) - 0.00397 / nu - 0.0908 * nu ** (-5.0 / 3.0)


def _order(h: float, upper: float, tol: float) -> int:
    """Order m of the factor B that ``first_zero`` solves at h = nu + 1.

    x is an upper bound on j_{nu,1}: the enclosure's ``upper``, or from nu = 1
    on, where it is the sharper one, ``_qu_wong``'s.  m is the first order
    at which Kapteyn's inequality |J_mu(x)| <= exp(mu g(x/mu)),
    mu = h + (2m - 1) and g(z) = log z + sqrt(1 - z^2) - log(1 + sqrt(1 - z^2)),
    puts the squared eigenvector component at the cut, which sets the
    truncation error, below tol * _TRUNCATION_MARGIN.  mu g(x/mu) falls as mu
    grows (its derivative in mu is log z - log(1 + sqrt(1 - z^2)) < 0), so
    the search gallops up from m >= (x - nu)/2 by 1, 2, 4, ... orders, then
    bisects.
    """
    nu = h - 1.0
    x = upper
    if nu >= 1.0:
        x = min(x, _qu_wong(nu))
    target = math.log(tol * _TRUNCATION_MARGIN)

    # Orders up to low miss; high, once found, is hit, and the bisection
    # keeps both so.
    low, high, step = max(1, math.ceil(0.5 * (x - nu))) - 1, None, 1
    while high is None or high - low > 1:
        m = low + step if high is None else (low + high) // 2
        mu = h + (2 * m - 1)
        z = x / mu
        if z < 1.0:
            w = math.sqrt(1.0 - z * z)
            if 2.0 * mu * (math.log(z) + w - math.log1p(w)) <= target:
                high = m
                continue
        low, step = m, step + step
    return high


def _ikebe_factor(h: float, m: int) -> tuple[list[float], list[float]]:
    """Squared diagonal q and squared subdiagonal e of B at order m (e has
    m entries; the last one, past the cut, is unused).

    Lists, not tuples: short tuples freed by the thousand (one pair per
    zero) grew the resident set of a long run by ~1 MiB; lists do not."""
    q = [1.0 / ((h + 2 * i) * (h + 2 * i + 1)) for i in range(m)]
    e = [1.0 / ((h + 2 * i + 1) * (h + 2 * i + 2)) for i in range(m)]
    return q, e


def _zero_eigenvalue(h: float, m: int, enclosure, tol: float) -> EigenResult:
    """Largest eigenvalue of B B^T at order m, bracketed by the enclosure
    (lower, upper) of j widened outward by _WIDEN, and at the lower end by
    the truncation allowance tol * _TRUNCATION_MARGIN that ``_order``
    grants: 4/upper^2 must count fewer than m eigenvalues and 4/lower^2 all
    m.  From nu = 1 on the solve starts at 4/x^2, x = ``_olver``'s
    expansion, where that lies strictly inside the bracket, else at
    4/lower^2; the start moves only the pass count, not the result."""
    lower, upper = enclosure
    q, e = _ikebe_factor(h, m)
    lo = 4.0 / (upper * upper) * (1.0 - _WIDEN - tol * _TRUNCATION_MARGIN)
    hi = 4.0 / (lower * lower) * (1.0 + _WIDEN)
    start = None
    if h - 1.0 >= 1.0:
        start = 4.0 / _olver(h - 1.0) ** 2
        if not lo < start < hi:
            start = None
    return _largest(functools.partial(_laguerre_pass_e, q, e), functools.partial(_count_e, q, e),
                    m, lo, hi, tol, start)


def _first_zero(h: float, tol: float) -> float:
    """``first_zero`` at nu = h - 1, solved in the paper's enclosure and
    clamped into it."""
    _check_tol(tol)
    lower, upper = _bessel_zero_bounds(h)
    res = _zero_eigenvalue(h, _order(h, upper, tol), (lower, upper), tol)
    return min(max(2.0 / math.sqrt(res.value), lower), upper)


def first_zero(nu: float, tol: float = 1e-13) -> float:
    """First positive zero j_{nu,1} of J_nu, for -1 < nu <= ZERO_NU_MAX.

    j = 2/sqrt(lambda), lambda the largest eigenvalue of Ikebe's matrix 4 C C^T
    cut at order ``_order``, bracketed to relative width tol by sign counts
    and clamped into the paper's enclosure, rounded outward.
    """
    nu = float(nu)
    if not -1.0 < nu <= ZERO_NU_MAX:
        raise ValueError(f"nu={nu} outside the domain (-1, {ZERO_NU_MAX}] of first_zero")
    return _first_zero(nu + 1.0, tol)


def asymptotic_constant(alpha, tol: float = 1e-13) -> float:
    """c(alpha) = lim c_n(alpha)/n = 1/j_{(alpha-1)/2,1}, for -1 < alpha <= 2001."""
    a = alpha_value(alpha)
    fa = _float_alpha(a)
    if not a <= _ALPHA_MAX:
        raise ValueError(f"alpha={a} outside the domain (-1, {_ALPHA_MAX}] of asymptotic_constant")
    return 1.0 / _first_zero(0.5 * fa + 0.5, tol)
