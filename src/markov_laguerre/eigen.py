"""Extreme eigenvalues of the symmetric tridiagonal matrix attached to Q_n.

The Jacobi matrix T_n with diagonal d_0..d_{n-1} and positive off-diagonal
lam_1..lam_{n-1} has Q_n as its characteristic polynomial, so its smallest
eigenvalue is the smallest zero of Q_n and its inverse square root is the
sharp Markov constant c_n(alpha).

T_n factors exactly as B B^T, where B is lower bidiagonal with diagonal
sqrt(q_k), q_k = 1 + alpha/(k+1) = lam_{k+1}^2, and unit subdiagonal.  The
pivots of T_n - sigma = L D L^T are then q_k + s_k, where

    s_0 = -sigma,    s_{k+1} = s_k / (q_k + s_k) - sigma,

the stationary qd recurrence (Fernando & Parlett 1994).  It works on the
factor, not on the entries of T_n, so its sign count places even the
smallest eigenvalue to high relative accuracy (Demmel & Kahan 1990).  The
number of negative pivots is the number of eigenvalues below sigma; an
exact zero pivot counts as negative.  ``_laguerre_pass_e`` runs the same
recurrence, s_{k+1} = e_k s_k/(q_k + s_k) - sigma, for a factor with
squared subdiagonal e_k; the Bessel zeros of :mod:`markov_laguerre.bessel`
use it.

One driver, ``_solve``, takes safeguarded Laguerre steps on det(M - sigma)
from either side, both derivatives from the sign-count pass.  Once a step
is small, a close that only counts brackets the estimate to tol/8, and the
result is the midpoint of a bracket whose ends the sign count placed.
``smallest_eigenvalue`` starts below the eigenvalue, at every alpha: from
n = 300 on at Dörfler's limit (c(alpha)(n + (alpha+3)/4))^-2,
c(alpha) = 1/j_{(alpha-1)/2,1} from :mod:`markov_laguerre.bessel`, where
that lies higher, else at the larger of two proved lower bounds, the
reciprocal of the refined upper bound on c_n(alpha)^2 and Weyl's
(sqrt(q_{n-1}) - 1)^2.  A largest eigenvalue (``_largest``) is the
smallest of -M, solved from above.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from .recurrence import _float_alpha, _refined_upper, _require_n, _split, alpha_value

__all__ = [
    "TridiagMatrix",
    "EigenResult",
    "build_jacobi",
    "sturm_count",
    "smallest_eigenvalue",
    "largest_eigenvalue",
    "markov_constant",
]

_MAX_PASSES = 200
# Smallest n at which ``smallest_eigenvalue`` starts from Dörfler's limit.
# That start costs one Bessel zero, 0.06 ms on average over a in (-1, 100]
# (0.02 ms near a = -1, 0.28 ms at a = 2001), and saves Laguerre passes of
# 0.28 us per entry: 0.66 of a pass at n = 128 (24 us), 0.77 at 256 (55 us),
# 0.93 at 384 (99 us) and 1.7 from n = 2000 on (300 draws of a per n;
# Python 3.11, 2 vCPUs).  The two break even near n = 280.
_START_MIN_N = 300
# Steps of at most this share of sigma go to the close.
_CLOSE = 1e-6


class TridiagMatrix(NamedTuple):
    """Jacobi matrix T_n = B B^T, stored as alpha and the factor's squared
    diagonal q_k = 1 + alpha/(k+1), k = 0 .. n-1.  The record is a pair, so
    len(T) is 2; the order n is len(T.q).  T_n has diagonal q_0, q_1 + 1,
    ..., q_{n-1} + 1 and off-diagonal sqrt(q_0), ...
    """

    alpha: float
    q: tuple[float, ...]


class EigenResult(NamedTuple):
    """One eigenvalue with its bracket: lo <= value <= hi.

    The binary64 sign count at sigma = lo finds no eigenvalue below it, the
    one at hi finds the wanted eigenvalue below it, and hi - lo <= tol *
    value.  After a close, hi - lo <= tol/8 * value, or lo and hi are
    adjacent floats where binary64 cannot resolve tol/8, so value lies within
    tol/16 of where the count flips whatever the start.  The count places
    the ends but does not prove them: on random
    inputs with n up to 20000 it is wrong at about one end in eight.
    ``iterations`` is the number of passes that took: Laguerre step passes
    and count-only passes together, and for a largest eigenvalue the pass
    that checks its lower end.
    """

    value: float
    bracket: tuple[float, float]
    iterations: int
    tol: float


def build_jacobi(alpha, n: int) -> TridiagMatrix:
    """Jacobi matrix of order n whose eigenvalues are the zeros of Q_n.

    When alpha = p/d is exact, each q_{k-1} = (dk + p)/(dk), k = 1 .. n, is
    rounded once, by the correctly rounded true division of two ints.
    """
    a = alpha_value(alpha)
    fa = _float_alpha(a)
    _require_n(n)
    if isinstance(a, float):
        q = [1.0 + a / k for k in range(1, n + 1)]
    else:
        p, d = _split(a)
        q = [(d * k + p) / (d * k) for k in range(1, n + 1)]
    return TridiagMatrix(fa, tuple(q))


def _count(q, sigma: float) -> int:
    """Negative pivots of T - sigma by the stationary qd recurrence."""
    count = 0
    s = -sigma
    it = iter(q)
    while True:
        try:
            for qk in it:
                p = qk + s
                if p <= 0.0:
                    count += 1
                s = s / p - sigma
            return count
        except ZeroDivisionError:
            # The pivot q_k + s_k was exactly 0, counted as 0-: the next pivot
            # is +inf, and the one after it sees s = 1 - sigma.
            next(it, None)
            s = 1.0 - sigma


def _laguerre_step(n: int, s1: float, s2: float) -> float | None:
    """Laguerre's step n/(S1 + sgn(S1) sqrt((n-1)(n S2 - S1^2))), with S1 =
    -f'/f = sum 1/(lambda_i - sigma) and S2 = -(f'/f)', or None.  It heads
    the way Newton's 1/S1 does and converges cubically and monotonically
    from either side of an eigenvalue (Parlett 1964; Li & Zeng 1994).  By
    Cauchy-Schwarz the discriminant is positive for n >= 2 distinct
    eigenvalues; where it reads <= 0 (S2 underflowed, sigma past about
    1e298) the step is Newton's, which from below stops short of the
    eigenvalue; the formula's n/S1 would overshoot it up to n times."""
    if s1 == 0.0 or not math.isfinite(s1 + s2):
        return None
    d = (n - 1) * (n * s2 - s1 * s1)
    return n / (s1 + math.copysign(math.sqrt(d), s1)) if d > 0.0 else 1.0 / s1


def _laguerre_pass(q, sigma: float) -> tuple[int, float | None]:
    """Sign count at sigma and Laguerre's step for f = det(T - sigma).

    With u_k = s_k'/p_k and v_k = s_k''/p_k - u_k^2, S1 = -sum u_k,
    S2 = -sum v_k, s_0' = -1, s_{k+1}' = u_k q_k/p_k - 1, s_0'' = 0 and
    s_{k+1}'' = (v_k - u_k^2) q_k/p_k.  An exact zero pivot counts as
    negative and gives no step, or the step 0 when it is the last pivot
    (f = 0); the count then goes on as in ``_count``.
    """
    count = 0
    s = -sigma
    ds = -1.0
    d2s = s1 = s2 = 0.0
    it = iter(q)
    try:
        for qk in it:
            p = qk + s
            if p <= 0.0:
                count += 1
            r = 1.0 / p
            u = ds * r
            uu = u * u
            v = d2s * r - uu
            s1 -= u
            s2 -= v
            w = qk * r
            ds = u * w - 1.0
            d2s = (v - uu) * w
            s = s / p - sigma
    except ZeroDivisionError:
        if next(it, None) is None:
            return count, 0.0
        return _count(q, sigma), None
    return count, _laguerre_step(len(q), s1, s2)


def _laguerre_pass_e(q, e, sigma: float) -> tuple[int, float | None]:
    """``_laguerre_pass`` for B B^T, B with diagonal sqrt(q_k) and
    subdiagonal sqrt(e_k): s_{k+1} = e_k s_k/p_k - sigma, and the
    derivatives take e_k q_k/p_k for q_k/p_k; with e_k = 1 it is
    ``_laguerre_pass``, bit for bit.  e holds len(q) entries, the last only
    feeding an s that no pivot uses.  After an exact zero pivot the next
    pivot is +inf, and the one after it sees s = e_{k+1} - sigma.
    """
    count = 0
    s = -sigma
    ds = -1.0
    d2s = s1 = s2 = 0.0
    it = zip(q, e)
    while True:
        try:
            for qk, ek in it:
                p = qk + s
                if p <= 0.0:
                    count += 1
                r = 1.0 / p
                u = ds * r
                uu = u * u
                v = d2s * r - uu
                s1 -= u
                s2 -= v
                w = ek * qk * r
                ds = u * w - 1.0
                d2s = (v - uu) * w
                s = ek * s / p - sigma
            return count, _laguerre_step(len(q), s1, s2)
        except ZeroDivisionError:
            nxt = next(it, None)
            if nxt is None:
                return count, 0.0
            s = nxt[1] - sigma
            s1 = math.nan


def sturm_count(T: TridiagMatrix, sigma: float) -> int:
    """Number of eigenvalues of T below sigma (sigma itself included when
    it is one exactly)."""
    return _count(T.q, float(sigma))


def _check_tol(tol: float) -> None:
    if not 0 < tol < 1:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")


def _unresolved(tol: float, lo: float, hi: float) -> RuntimeError:
    return RuntimeError(f"tol={tol} is below binary64 resolution of bracket [{lo}, {hi}]")


def _solve(step_pass, count, lo: float, hi: float, sigma: float, tol: float) -> EigenResult:
    """Smallest eigenvalue of a matrix M in [lo, hi], the caller vouching
    that it lies there.  ``step_pass(sigma)`` returns the number of
    eigenvalues of M at or below sigma and a step towards the smallest one
    (None where it is undefined); ``count(sigma)`` returns the number alone.

    Step phase.  The first pass is at sigma; a start that counts an
    eigenvalue becomes the upper end, and the next pass is at lo, which must
    count none.  Each later pass moves one end of the bracket to sigma, by
    its count, unless its step is 0 (a zero last pivot: sigma is the
    eigenvalue).  Only steps from counts 0 and 1 are used.  Once |step| <=
    _CLOSE*|sigma|, the estimate sigma + step, clamped to the bracket, goes
    to the close.  Before that, the estimate is the next sigma where it lies
    inside the bracket, and the bracket's midpoint where it does not or
    there is no step.  The step phase stops once hi - lo <= tol * |value|,
    value being the midpoint, which is returned.  Close:
    counts at est -+ d, d = tol*|est|/32 but at least one ulp of est; where
    one misses, the offset on that side doubles until a count lands, and
    then counts bisect until hi - lo <= tol/8 * |value|.  A bracket that
    binary64 cannot split further ends the close when it is within tol,
    and raises RuntimeError otherwise.
    """
    c, step = step_pass(sigma)
    steps = 1
    if c:
        hi, sigma = sigma, lo
        c, step = step_pass(sigma)
        steps += 1
        if c:
            raise RuntimeError("the bracket misses the eigenvalue: its lower end "
                               "counts one at or below it")
    est = None
    while True:
        if step != 0.0:
            if c == 0:
                lo = sigma
            else:
                hi = sigma
        if hi - lo <= tol * abs(0.5 * lo + 0.5 * hi):
            break
        if steps == _MAX_PASSES:
            raise RuntimeError(f"no convergence to tol={tol} in {_MAX_PASSES} passes")
        usable = c <= 1 and step is not None
        if usable and abs(step) <= _CLOSE * abs(sigma):
            est = min(max(sigma + step, lo), hi)
            break
        sigma = sigma + step if usable else math.nan
        if not lo < sigma < hi:
            sigma = 0.5 * lo + 0.5 * hi
            if not lo < sigma < hi:
                raise _unresolved(tol, lo, hi)
        c, step = step_pass(sigma)
        steps += 1
    counts = 0
    if est is not None:
        d = max(tol * abs(est) / 32.0, math.ulp(est))
        for side in (-1.0, 1.0):
            x = est + side * d
            while lo < x < hi:
                counts += 1
                below = count(x) == 0
                lo, hi = (x, hi) if below else (lo, x)
                if below == (side < 0.0):
                    break
                d += d
                x = est + side * d
        while hi - lo > 0.125 * tol * abs(0.5 * lo + 0.5 * hi):
            x = 0.5 * lo + 0.5 * hi
            if not lo < x < hi:
                if hi - lo <= tol * abs(x):
                    break
                raise _unresolved(tol, lo, hi)
            counts += 1
            lo, hi = (lo, x) if count(x) else (x, hi)
    return EigenResult(0.5 * lo + 0.5 * hi, (lo, hi), steps + counts, tol)


def _largest(step_pass, n: int, lo: float, hi: float, tol: float) -> EigenResult:
    """Largest eigenvalue in (lo, hi] of an order-n matrix M, given the
    ``step_pass`` of M (a Laguerre pass, whose step negates with M): the
    smallest eigenvalue of -M, by ``_solve`` from -hi, i.e. from above.

    A lower end that counts all n eigenvalues at or below it, or an upper
    end that counts fewer (the lower end of -M's bracket, in ``_solve``),
    raises RuntimeError: the count checks both ends before the bracket is
    used.
    """
    if step_pass(lo)[0] >= n:
        raise RuntimeError(f"the bracket [{lo}, {hi}] misses the largest eigenvalue: "
                           f"all {n} lie at or below its lower end")

    def negated(sigma):
        count, step = step_pass(-sigma)
        return n - count, None if step is None else -step

    res = _solve(negated, lambda sigma: n - step_pass(-sigma)[0], -hi, -lo, -hi, tol)
    lo, hi = res.bracket
    return EigenResult(-res.value, (-hi, -lo), res.iterations + 1, tol)


def _lower_bound(a: float, q) -> float:
    """Proved lower bound on the smallest eigenvalue of T_n(a), n >= 2: the
    larger of 1/refined_upper(a, n), 0 where the refined bound overflows
    (a past about 1.3e154), and Weyl's (sqrt(q_{n-1}) - 1)^2, a margin below
    it, so that the sign count too finds no eigenvalue below it."""
    upper = _refined_upper(a, len(q))
    # Weyl: sigma_min(B) >= sqrt(min q_k) - 1, and min q_k = q_{n-1} when it
    # exceeds 1 (a > 0).  (q - 1)/(sqrt(q) + 1) is sqrt(q) - 1 without
    # cancellation, within 4u, u = 2^-53, so w^2 is within 11u after the
    # margin's two roundings.  The count at sigma is exact for a factor whose
    # q_k and unit e_k moved by u and 2u relative (write each rounding of
    # s_{k+1} into q_{k+1}, those of p_k and s_k/p_k into e_k), so by
    # Demmel & Kahan its smallest eigenvalue is off by (3n - 2)u at most, to
    # first order.  The margin, 4n + 12 > 3n + 9 ulps, covers both.
    w = max(0.0, q[-1] - 1.0) / (math.sqrt(q[-1]) + 1.0)
    return max(1.0 / upper if upper > 0.0 else 0.0, w * w * (1.0 - (4 * len(q) + 12) * 2.0**-53))


def _start(a: float, n: int, lower: float, top: float) -> float:
    """Start of the smallest-eigenvalue solve on T_n(a), whose eigenvalue
    lies in (lower, top), lower a proved lower bound and top = q_0.

    Dörfler's limit c_n(a) = c(a)(n + kappa(a)) + O(1/n), with
    c(a) = 1/j_{(a-1)/2,1} and kappa(a) < (a+3)/4 on every tabled a (0.498
    against 0.503 at a = -0.99, 23.7 against 25.75 at 100), puts
    (j/(n + (a+3)/4))^2 just below the eigenvalue: 0.02% below it at
    a = 100, n = 20000, where 1/refined_upper is 30% below.  It is used
    where it lies in (lower, top), where n >= _START_MIN_N, so that the zero
    pays for itself, and where a lies in asymptotic_constant's domain
    (a <= 2001); else the start is lower.
    """
    if n < _START_MIN_N:
        return lower
    from .bessel import _ALPHA_MAX, _first_zero  # bessel imports this module

    if not a <= _ALPHA_MAX:
        return lower
    sigma = (_first_zero(0.5 * a + 0.5, 1e-13) / (n + 0.25 * a + 0.75)) ** 2
    return sigma if lower < sigma < top else lower


def smallest_eigenvalue(T: TridiagMatrix, tol: float = 1e-13) -> EigenResult:
    """Smallest eigenvalue of T with a bracket whose ends the binary64 sign
    count places; the count does not prove them (see ``EigenResult``).

    ``_solve`` searches (0, q_0] from ``_start``: for n >= _START_MIN_N,
    Dörfler's limit (c(a)(n + (a+3)/4))^-2 where it lies above
    ``_lower_bound``, else that bound.  Weyl's term is the larger from
    alpha of about 100 on (30 at n = 2): at n = 20000 it is 0.987 of the
    eigenvalue at alpha = 1e4 and 0.9993 at 1e8, where 1/refined_upper is
    0.19 and 0.0055.  The close narrows the bracket to tol/8.  A start that
    the sign count places above the eigenvalue (rounding, at n = 2) falls
    back to sigma = 0, where every pivot is q_k > 0.
    """
    _check_tol(tol)
    q = T.q
    n = len(q)
    if n == 1:
        # The only eigenvalue is q_0 itself: a zero pivot there.
        return EigenResult(q[0], (math.nextafter(q[0], 0.0), q[0]), 0, tol)
    # count(0) = 0, every pivot being q_k; count(q_0) >= 1, its first pivot
    # being exactly 0.
    return _solve(functools.partial(_laguerre_pass, q), functools.partial(_count, q),
                  0.0, q[0], _start(T.alpha, n, _lower_bound(T.alpha, q), q[0]), tol)


def largest_eigenvalue(T: TridiagMatrix, tol: float = 1e-13) -> EigenResult:
    """Largest eigenvalue of T with a bracket that the sign count places,
    by ``_largest`` on (0, (1 + sqrt(max q))^2]: every eigenvalue is positive,
    and ||B|| <= max sqrt(q_k) + 1, the norm of B's diagonal plus that of
    its unit subdiagonal."""
    _check_tol(tol)
    q = T.q
    if len(q) == 1:
        return EigenResult(q[0], (math.nextafter(q[0], 0.0), q[0]), 0, tol)
    hi = (1.0 + math.sqrt(max(q))) ** 2
    # Nudge the upper end past the rounding of the bound, so that its count is n.
    hi += 4.0 * math.ulp(hi)
    return _largest(functools.partial(_laguerre_pass, q), len(q), 0.0, hi, tol)


def markov_constant(alpha, n: int, tol: float = 1e-13) -> float:
    """Sharp constant c_n(alpha): inverse square root of the smallest zero of Q_n."""
    res = smallest_eigenvalue(build_jacobi(alpha, n), tol)
    if res.value <= 0.0:
        raise RuntimeError(
            f"smallest eigenvalue {res.value} is not positive (alpha={alpha}, n={n})"
        )
    return res.value ** -0.5
