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
exact zero pivot counts as negative.  ``_laguerre_pass_e`` and
``_count_e`` run the same recurrence, s_{k+1} = e_k s_k/(q_k + s_k) - sigma,
for a factor with squared subdiagonal e_k; the Bessel zeros of
:mod:`markov_laguerre.bessel` use them.

One driver, ``_solve``, finds the eigenvalue of a matrix M where the sign
count reaches k, k = 1 for the smallest and k = n for the largest, by
safeguarded Laguerre steps on det(M - sigma) from either side, both
derivatives from the sign-count pass.  From
Dörfler's start at n >= 30(alpha+1) the smallest eigenvalue of T_n takes
``_newton_pass`` instead, which needs the first derivative only and costs
about 0.6 of a Laguerre pass: the pull of the other eigenvalues, which a
Laguerre pass measures, is about (alpha+1)/4 there, in closed form from
the Bessel spectrum.  Once a step is predicted to land within tol/32 of
the eigenvalue, a close that only counts finds the cell of a fixed
lattice, at most tol/8 of the value wide, where the count reaches k, and
the result is the midpoint of that cell.
The lattice depends on tol alone, so the result depends on the matrix and
tol, not on the start: a caller that can predict the eigenvalue
(``bounds._rows``, from its neighbours in n) may start there.
``smallest_eigenvalue`` starts at the largest of the reciprocal of the
refined upper bound on c_n(alpha)^2, Weyl's (sqrt(q_{n-1}) - 1)^2 and,
from n = 300 on, Dörfler's limit (c(alpha)(n + (alpha+3)/4))^-2,
c(alpha) = 1/j_{(alpha-1)/2,1} from :mod:`markov_laguerre.bessel`.  That
is only a start: one that the sign count places above the eigenvalue is
kept from above.  ``_solve`` trusts the bracket it is given; each caller
vouches for its own.  A largest eigenvalue (``_largest``) is solved from
above or from the caller's start once two counts have checked both ends of
its bracket.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from .recurrence import _float_alpha, _real, _refined_upper, _require_n, _split, alpha_value

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
# Python 3.11, 2 vCPUs).  The two break even near n = 280.  The bounds
# engine computes the zero for its rows anyway and passes it in.
_START_MIN_N = 300
# From n = _NEWTON_FIRST (a+1) on, a solve from Dörfler's start takes
# Newton's pass first (``_pull``).  Below it the start lies farther off and
# the first Newton step lands too far for the close: a further step pass.
# On 2,500 draws with n/(a+1) log-uniform on [10, 80] and n >= 300, a
# uniform on (-1, 100], counting a Newton pass 0.61 and a count 0.27 of a
# Laguerre pass (179, 79 and 292 ns an entry; Python 3.11, 2 vCPUs),
# Newton-first took 1.0 more passes a solve than Laguerre's passes alone
# and cost 24% more at n/(a+1) in [10, 15), 0.25 more passes for +2.7% in
# [15, 20), and no more passes for 15% less in each of [20, 25), [25, 30)
# and [30, 40).
_NEWTON_FIRST = 30


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

    The wanted eigenvalue is the k-th from below, k = 1 for the smallest and
    k = n for the largest: the binary64 sign count at sigma = lo finds fewer
    than k eigenvalues at or below it, the one at hi at least k, and
    hi - lo <= tol * value.  From order 2 on, (lo, hi) is the cell g of
    ``_close``'s lattice where the count reaches k: lo is the float just
    above (K + g mod K) 2^(g div K), K = ceil(8/tol) or 2^52 past 2^50, and
    hi that of g + 1, so hi - lo <= tol/8 * value, or lo and hi are adjacent
    floats where binary64 cannot resolve tol/8; value is its midpoint,
    within tol/16 of where the count reaches k, and the same bits whatever
    the start of the solve.  The count places the ends but does not prove
    them: on the seed-7 scan, 200 draws with n log-uniform on [500, 20000],
    drawn first, and alpha uniform on (-1, 100], a proved count finds 65 of
    the 400 ends wrong, about one in six.
    ``iterations`` is the number of passes that took: step passes, Laguerre
    and Newton, and count-only passes together, and for a largest
    eigenvalue the two count-only passes that check the ends of its bracket.
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
    eigenvalues; where it reads <= 0 (S1^2 and S2 underflowed, sigma from
    about 1e162 on) the step is Newton's, which from below stops short of the
    eigenvalue; the formula's n/S1 would overshoot it up to n times."""
    if s1 == 0.0 or not math.isfinite(s1 + s2):
        return None
    d = (n - 1) * (n * s2 - s1 * s1)
    return n / (s1 + math.copysign(math.sqrt(d), s1)) if d > 0.0 else 1.0 / s1


def _laguerre_pass(q, sigma: float) -> tuple[int, float | None, float]:
    """Sign count at sigma, Laguerre's step for f = det(T - sigma) and
    S1 = -f'/f, from which ``_solve`` predicts where the step lands.

    With u_k = s_k'/p_k and v_k = s_k''/p_k - u_k^2, S1 = -sum u_k,
    S2 = -sum v_k, s_0' = -1, s_{k+1}' = u_k q_k/p_k - 1, s_0'' = 0 and
    s_{k+1}'' = (v_k - u_k^2) q_k/p_k.  An exact zero pivot counts as
    negative and gives no step (S1 is nan), or the step 0 when it is the
    last pivot (f = 0); the count then goes on as in ``_count``.
    """
    count = 0
    s = -sigma
    ds = -1.0
    d2s = s1 = s2 = 0.0
    it = iter(q)
    while True:
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
            return count, _laguerre_step(len(q), s1, s2), s1
        except ZeroDivisionError:
            if next(it, None) is None:
                return count, 0.0, s1
            s = 1.0 - sigma
            s1 = math.nan


def _newton_pass(q, sigma: float) -> tuple[int, float | None, float]:
    """Sign count at sigma, Newton's step 1/S1 for f = det(T - sigma) and S1;
    ``_solve`` takes it only with ``_pull``'s pull, which the step then
    takes out.

    The count is ``_count``'s, bit for bit; S1 = -sum u_k, u_k = s_k'/p_k,
    is ``_laguerre_pass``'s without S2: 8 flops an entry against 15.
    Zero pivots as there: an inner one gives no step, the last the step 0.
    """
    count = 0
    s = -sigma
    ds = -1.0
    s1 = 0.0
    it = iter(q)
    while True:
        try:
            for qk in it:
                p = qk + s
                if p <= 0.0:
                    count += 1
                u = ds / p
                s1 -= u
                ds = u * qk / p - 1.0
                s = s / p - sigma
            return count, 1.0 / s1 if s1 != 0.0 and math.isfinite(s1) else None, s1
        except ZeroDivisionError:
            if next(it, None) is None:
                return count, 0.0, s1
            s = 1.0 - sigma
            s1 = math.nan


def _laguerre_pass_e(q, e, sigma: float) -> tuple[int, float | None, float]:
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
            return count, _laguerre_step(len(q), s1, s2), s1
        except ZeroDivisionError:
            nxt = next(it, None)
            if nxt is None:
                return count, 0.0, s1
            s = nxt[1] - sigma
            s1 = math.nan


def _count_e(q, e, sigma: float) -> int:
    """The count of ``_laguerre_pass_e`` alone: the same recurrence and
    zero-pivot restart s = e_{k+1} - sigma, without the derivatives."""
    count = 0
    s = -sigma
    it = zip(q, e)
    while True:
        try:
            for qk, ek in it:
                p = qk + s
                if p <= 0.0:
                    count += 1
                s = ek * s / p - sigma
            return count
        except ZeroDivisionError:
            nxt = next(it, None)
            if nxt is None:
                return count
            s = nxt[1] - sigma


def sturm_count(T: TridiagMatrix, sigma: float) -> int:
    """Number of eigenvalues of T below sigma (sigma itself included when
    it is one exactly); ValueError for an infinite or NaN sigma, TypeError
    for a bool or a string."""
    sigma = _real(sigma, "sigma")
    if not math.isfinite(sigma):
        raise ValueError(f"sigma must be finite, got {sigma}")
    return _count(T.q, sigma)


def _check_tol(tol: float) -> None:
    if not 0 < _real(tol, "tol") < 1:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")


def _unresolved(tol: float, lo: float, hi: float) -> RuntimeError:
    return RuntimeError(f"tol={tol} is below binary64 resolution of bracket [{lo}, {hi}]")


def _close(count, lo: float, hi: float, est: float, tol: float, k: int):
    """The cell of a fixed lattice where the count reaches k, found from an
    estimate est > 0 in [lo, hi], lo counting fewer than k eigenvalues and
    hi at least k: (lo, hi, passes).

    The lattice.  With K = ceil(8/tol), or K = 2^52 past 2^50 (tol below
    about 7e-15), cell g, for every integer g, runs from its lower edge, the
    float just above the point (K + g mod K) 2^(g div K), to that of cell
    g + 1.  The points of one binade are t h, h a power of two and t in
    [K, 2K), so a cell is at most tol/8 of its lower end wide; at K = 2^52
    the points are the floats, and the cells the gaps between adjacent
    floats.  A float with few significant bits, such as a rational
    eigenvalue like 3/2, lies inside a cell, not on an edge.

    The search, in whole cells: counts at the two edges of est's cell, the
    g whose edges bracket est; where one misses, the next count is one cell
    further out, and the distance from est's cell doubles until a count
    lands; then counts bisect.  An edge outside (lo, hi) is not counted: the
    count is taken to be monotone, below k at and below lo and at least k
    from hi on.  So the cell depends on where the count reaches k, not on
    est, lo or hi.
    """
    K = math.ceil(8.0 / tol)
    if K > 2**50:
        K = 2**52
    # est's cell is that of the last point below est: its edge, the float
    # just above that point, is at most est.
    x = math.nextafter(est, 0.0)
    s = math.frexp(x)[1] - K.bit_length()
    if math.ldexp(x, -s) < K:
        s -= 1
    start = s * K + int(math.ldexp(x, -s)) - K
    passes = 0
    # The edges of cells low and high count below k and at least k.
    low = high = None
    g = start
    while True:
        e = math.nextafter((K + g % K) * 2.0 ** (g // K), math.inf)
        if not lo < e:
            beyond = False
        elif not e < hi:
            beyond = True
        else:
            passes += 1
            beyond = count(e) >= k
            lo, hi = (lo, e) if beyond else (e, hi)
        if beyond:
            high, e_high = g, e
        else:
            low, e_low = g, e
        if low is None:  # gallop down: start - 1, start - 2, start - 4, ...
            g = g + g - start if g < start else start - 1
        elif high is None:  # gallop up: start + 1 (est's cell), start + 2, ...
            g = g + g - start if g > start else start + 1
        elif high - low > 1:
            g = (low + high) // 2
        else:
            break
    return e_low, e_high, passes


def _solve(step_pass, count, lo: float, hi: float, sigma: float, tol: float,
           newton: tuple | None = None, k: int = 1) -> EigenResult:
    """Eigenvalue of a matrix M in [lo, hi] where the count reaches k: the
    smallest for k = 1, the largest of an order-n M for k = n.  The caller
    vouches that lo counts fewer than k and hi at least k: the bracket is not
    checked here.  ``step_pass(sigma)`` returns the number of eigenvalues of
    M at or below sigma, a Laguerre step (None where it is undefined) and
    S1 = -f'/f; ``count(sigma)`` returns the number alone.  A caller that
    knows the pull of the other eigenvalues gives ``newton`` = (newton_pass,
    pull, u): ``newton_pass(sigma)`` returns the same with Newton's step
    1/S1, and u is an allowance on the error of rho = pull * sigma.

    Step phase.  The first pass is at sigma, Newton's where ``newton`` is
    given.  Every pass, the first included, moves one end of the bracket to
    sigma, lo where it counts fewer than k and hi where it counts at least k,
    unless its step is 0 (a zero last pivot: sigma is the eigenvalue); so a
    start beyond the eigenvalue is kept as an end.  Only steps from counts
    k - 1 and k are used.

    The hand-off.  A step goes to the close, as the estimate sigma + step
    clamped to the bracket, when it is predicted to land within tol/32 of
    the eigenvalue, relative; so does the bracket's midpoint once
    hi - lo <= tol * midpoint.  Before that, the estimate is the next
    sigma where it lies inside the bracket, and the bracket's midpoint
    where it does not or there is no step.  With delta = |h/sigma| for the
    step h from sigma, the prediction is:
    - for Laguerre's step, rho delta^3 = |S1 h - 1| delta^2, with
      rho = (S1 - 1/h) sigma the pull of the other eigenvalues.  Where the
      smallest eigenvalues cluster (rho of order n) the passes go on: a
      step of 4e-7 sigma lands 3.5e-11 short at a = 2e14, n = 15400.  The
      prediction is the leading term; where one eigenvalue crowds in, the
      step lands up to rho/2 times farther;
    - for Newton's step, which takes the pull out, 1/(S1 - pull), and so
      leaves its estimate as close to the eigenvalue as Laguerre's,
      u delta^2.  The next pass is Newton's too where a Newton step from
      where this one lands, u (u delta^2)^2, is predicted within tol/32,
      and Laguerre's for the rest of the solve where it is not, or once a
      step leaves the bracket.

    The close (``_close``) returns the cell of a fixed lattice where the
    count reaches k, found by its integer index from the estimate's, and its
    midpoint is the value: the result depends on M and tol, not on the
    start or on the steps.  A cell wider than tol of its midpoint (tol below
    binary64 resolution) raises RuntimeError.
    """
    land = tol / 32.0
    if newton:
        newton_pass, pull, slack = newton
    steps = 0
    while True:
        c, step, s1 = (newton_pass if newton else step_pass)(sigma)
        if newton and step:
            # 1/(S1 - pull): the other eigenvalues' pull taken out
            step /= 1.0 - step * pull
        steps += 1
        if step != 0.0:
            if c < k:
                lo = sigma
            else:
                hi = sigma
        est = 0.5 * lo + 0.5 * hi
        if hi - lo <= tol * est:
            break
        if steps == _MAX_PASSES:
            raise RuntimeError(f"no convergence to tol={tol} in {_MAX_PASSES} passes")
        if k - 1 <= c <= k and step is not None:
            # a start at sigma = 0 lends no scale: no hand-off there
            delta = step / sigma if sigma else math.inf
            miss = (slack if newton else abs(s1 * step - 1.0)) * delta * delta
            if step == 0.0 or miss <= land:
                est = min(max(sigma + step, lo), hi)
                break
            if newton and slack * miss * miss > land:
                newton = None
            sigma += step
        else:
            sigma = math.nan
        if not lo < sigma < hi:
            sigma = est
            newton = None
            if not lo < sigma < hi:
                raise _unresolved(tol, lo, hi)
    lo, hi, counts = _close(count, lo, hi, est, tol, k)
    value = 0.5 * lo + 0.5 * hi
    if hi - lo > tol * value:
        raise _unresolved(tol, lo, hi)
    return EigenResult(value, (lo, hi), steps + counts, tol)


def _largest(step_pass, count, n: int, lo: float, hi: float, tol: float,
             start: float | None = None) -> EigenResult:
    """Largest eigenvalue in (lo, hi] of an order-n matrix M, given its
    Laguerre ``step_pass`` and its ``count`` alone (a count-only pass, equal
    to ``step_pass(sigma)[0]``): ``_solve`` with k = n, from hi, i.e. from
    above, or from start, where the caller has a start in (lo, hi).

    A lower end that counts all n eigenvalues at or below it, or an upper
    end that counts fewer, raises RuntimeError: two count-only passes check
    both ends before any step pass, since ``_solve`` trusts its bracket.
    The start moves only the pass count: the result does not depend on it.
    """
    if count(lo) >= n:
        raise RuntimeError(f"the bracket [{lo}, {hi}] misses the largest eigenvalue: "
                           f"all {n} lie at or below its lower end")
    if count(hi) < n:
        raise RuntimeError(f"the bracket [{lo}, {hi}] misses the largest eigenvalue: "
                           f"fewer than all {n} lie at or below its upper end")
    value, bracket, iterations, tol = _solve(step_pass, count, lo, hi,
                                             hi if start is None else start, tol, k=n)
    return EigenResult(value, bracket, iterations + 2, tol)


def _start(a: float, q, zero: float | None = None) -> tuple[float, float | None]:
    """Start of the smallest-eigenvalue solve on T_n(a), n = len(q) >= 2,
    and the Bessel zero of its Dörfler term, None where it took none: the
    largest of 1/refined_upper(a, n), 0 where the refined bound overflows
    (a past about 1.3e154), Weyl's (sqrt(q_{n-1}) - 1)^2 and, from
    n = _START_MIN_N on, Dörfler's limit.  It need not lie below the
    eigenvalue: a start that counts it is kept from above (``_solve``).

    Dörfler's limit c_n(a) = c(a)(n + kappa(a)) + O(1/n), with
    c(a) = 1/j_{(a-1)/2,1} and kappa(a) < (a+3)/4 on every tabled a (0.498
    against 0.503 at a = -0.99, 23.7 against 25.75 at 100), puts
    (j/(n + (a+3)/4))^2 just below the eigenvalue: 0.02% below it at
    a = 100, n = 20000, where 1/refined_upper is 30% below.  It is taken
    from n = _START_MIN_N on, so that the zero pays for itself, and where
    ``bessel._alpha_zero`` gives the zero (a <= 2001).  ``zero`` is j when
    the caller has it, else it is computed here.  Weyl's term is the
    larger of the two bounds from a of about 100 on (30 at n = 2): at
    n = 20000 it is 0.987 of the eigenvalue at a = 1e4 and 0.9993 at 1e8,
    where 1/refined_upper is 0.19 and 0.0055.
    """
    n = len(q)
    upper = _refined_upper(a, n)
    # Weyl: sigma_min(B) >= sqrt(min q_k) - 1, and min q_k = q_{n-1} when it
    # exceeds 1 (a > 0); (q - 1)/(sqrt(q) + 1) is sqrt(q) - 1 without
    # cancellation.
    w = max(0.0, q[-1] - 1.0) / (math.sqrt(q[-1]) + 1.0)
    start = max(1.0 / upper if upper > 0.0 else 0.0, w * w)
    if n < _START_MIN_N:
        return start, None
    if zero is None:
        from .bessel import _alpha_zero  # bessel imports this module
        zero = _alpha_zero(a, 1e-13)
    if zero is not None:
        start = max(start, (zero / (n + 0.25 * a + 0.75)) ** 2)
    return start, zero


def _pull(a: float, n: int, start: float, zero: float | None) -> tuple[float, float] | None:
    """The pull of the other eigenvalues on the smallest of T_n(a) from
    ``_start``'s start and zero, as ``_solve`` takes it: (rho/start, u)
    with rho = (a+1)/4 and u = rho (a+1)/n + 0.01 the allowance on its
    error; None outside the gate, where the solve takes a Laguerre pass
    first.

    The gate is Dörfler's start (``_start`` took its term: zero is not
    None) and n >= _NEWTON_FIRST (a+1).  The pull is the Bessel
    spectrum's: n^2 lambda_k tends to x_k = j_{nu,k}^2, nu = (a-1)/2, the
    zeros of F(x) = x^(-nu/2) J_nu(sqrt x), an entire function of order 1/2
    with F(0) != 0, so F(x) = F(0) prod (1 - x/x_k).  At its simple zero
    x_1, -F''/(2F') = sum_{k>=2} 1/(x_k - x_1), so the limit of rho is
    -x_1 F''(x_1)/(2F'(x_1)); Bessel's equation for J_nu(t) reads, in
    x = t^2, x F'' + (nu + 1) F' + F/4 = 0, and F(x_1) = 0 leaves
    x_1 F'' = -(nu + 1) F': rho = (nu + 1)/2 = (a + 1)/4.  At finite n the
    pull, at the start or at the eigenvalue, falls short of (a+1)/4 by 0.5
    to 0.6 of (a+1)/n of it: by up to 0.65 u on 400 draws inside the gate
    with n <= 3000 and a from 1e-15 above -1 (LAPACK's spectrum).
    """
    if zero is None or n < _NEWTON_FIRST * (a + 1.0):
        return None
    rho = 0.25 * (a + 1.0)
    return rho / start, rho * (a + 1.0) / n + 0.01


def smallest_eigenvalue(T: TridiagMatrix, tol: float = 1e-13) -> EigenResult:
    """Smallest eigenvalue of T with a bracket whose ends the binary64 sign
    count places; the count does not prove them (see ``EigenResult``).

    ``_solve`` searches (0, q_0] from ``_start``.  A start that the
    sign count places above the eigenvalue is the bracket's upper end and
    the solve goes on from above, by its own step where it counts the
    eigenvalue alone, else from the bracket's midpoint.  The close narrows
    the bracket to tol/8.
    """
    return _smallest(T, tol)


def _smallest(T: TridiagMatrix, tol: float, start: float | None = None,
              zero: float | None = None) -> EigenResult:
    """``smallest_eigenvalue`` from ``start``, where the caller has a better
    one, else from ``_start(T.alpha, T.q, zero)``, given the Bessel zero
    ``zero`` when the caller has it; that start comes with ``_pull``'s
    pull, which sends the first pass to Newton's inside its gate.  Either
    way the start's count moves an end of the bracket, as every pass's
    does.  The start moves only the pass count: the result does not depend
    on it."""
    _check_tol(tol)
    q = T.q
    n = len(q)
    if n == 1:
        # The only eigenvalue is q_0 itself: a zero pivot there.
        return EigenResult(q[0], (math.nextafter(q[0], 0.0), q[0]), 0, tol)
    newton = None
    if start is None:
        start, zero = _start(T.alpha, q, zero)
        pull = _pull(T.alpha, n, start, zero)
        if pull:
            newton = (functools.partial(_newton_pass, q), *pull)
    # The bracket ``_solve`` trusts: count(0) = 0, every pivot being q_k;
    # count(q_0) >= 1, its first pivot being exactly 0.
    return _solve(functools.partial(_laguerre_pass, q), functools.partial(_count, q),
                  0.0, q[0], start, tol, newton)


def largest_eigenvalue(T: TridiagMatrix, tol: float = 1e-13) -> EigenResult:
    """Largest eigenvalue of T with a bracket that the sign count places,
    by ``_largest`` on (0, (1 + sqrt(max q))^2]: every eigenvalue is positive,
    and ||B|| <= max sqrt(q_k) + 1, the norm of B's diagonal plus that of
    its unit subdiagonal.  Where that bound overflows, the upper end is the
    largest float, and a largest eigenvalue past it raises OverflowError."""
    _check_tol(tol)
    q = T.q
    n = len(q)
    if n == 1:
        return EigenResult(q[0], (math.nextafter(q[0], 0.0), q[0]), 0, tol)
    hi = (1.0 + math.sqrt(max(q))) ** 2
    # Nudge the upper end past the rounding of the bound, so that its count is n.
    hi += 4.0 * math.ulp(hi)
    if hi == math.inf:
        hi = math.nextafter(math.inf, 0.0)
        below = _count(q, hi)
        if below < n:
            raise OverflowError(f"the largest eigenvalue lies past the binary64 range: "
                                f"{below} of the {n} eigenvalues lie at or below {hi}")
    return _largest(functools.partial(_laguerre_pass, q), functools.partial(_count, q),
                    n, 0.0, hi, tol)


def markov_constant(alpha, n: int, tol: float = 1e-13) -> float:
    """Sharp constant c_n(alpha): inverse square root of the smallest zero of Q_n.

    The zero is the midpoint of a bracket of relative width tol that the
    binary64 sign count places but does not prove, so c_n is not proved to
    lie within tol either; the count's bias grows with n.  At alpha = 0,
    against Turán's closed form, c is 1.9e-14 off at n = 20000, 8.0e-14 at
    30000, 1.5e-13 at 50000 and 2.6e-13 at 100000 (relative), against the
    default tol = 1e-13, the bracket's width on 1/c^2."""
    return math.sqrt(1.0 / smallest_eigenvalue(build_jacobi(alpha, n), tol).value)
