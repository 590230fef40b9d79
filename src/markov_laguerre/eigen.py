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
exact zero pivot counts as negative.  ``_newton_pass_e`` runs the same
recurrence, s_{k+1} = e_k s_k/(q_k + s_k) - sigma, for a factor with
squared subdiagonal e_k; the Bessel zeros of :mod:`markov_laguerre.bessel`
use it.

One driver, ``_newton``, takes safeguarded steps on det(M - sigma), with
the derivatives from the sign-count pass: Laguerre's for T_n, Newton's
otherwise.  Once a step is small, a close that only counts brackets the
estimate, and the result is the midpoint of a bracket whose ends the sign
count placed.  ``smallest_eigenvalue`` starts at the reciprocal of the
refined upper bound on c_n(alpha)^2, below the eigenvalue; a largest
eigenvalue (``_largest``) is the smallest of -M, solved from above.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
from dataclasses import dataclass
from fractions import Fraction

from .recurrence import _refined_upper, alpha_value

__all__ = [
    "TridiagMatrix",
    "EigenResult",
    "build_jacobi",
    "gershgorin_bracket",
    "sturm_count",
    "smallest_eigenvalue",
    "largest_eigenvalue",
    "markov_constant",
]

log = logging.getLogger(__name__)

_MAX_PASSES = 200
# Steps of at most this share of sigma go to the close (cubic, quadratic).
_CLOSE_LAGUERRE = 1e-6
_CLOSE_NEWTON = 1e-7


@dataclass(frozen=True)
class TridiagMatrix:
    """Jacobi matrix T_n = B B^T, stored as alpha and the factor's squared
    diagonal q_k = 1 + alpha/(k+1), k = 0 .. n-1.

    ``diag`` and ``offdiag`` are the entries of T_n, formed on request.
    """

    alpha: float
    q: tuple[float, ...]

    @property
    def order(self) -> int:
        return len(self.q)

    @property
    def diag(self) -> tuple[float, ...]:
        return self.q[:1] + tuple(qk + 1.0 for qk in self.q[1:])

    @property
    def offdiag(self) -> tuple[float, ...]:
        return tuple(math.sqrt(qk) for qk in self.q[:-1])


@dataclass(frozen=True)
class EigenResult:
    """One eigenvalue with its bracket: lo <= value <= hi.

    The binary64 sign count at sigma = lo finds no eigenvalue below it, the
    one at hi finds the wanted eigenvalue below it, and hi - lo <= tol *
    value.  The count certifies the ends but does not prove them: on random
    inputs with n up to 20000 it is wrong at about one end in eight.
    ``iterations`` is the number of passes that took, step passes and
    count-only passes together.
    """

    value: float
    bracket: tuple[float, float]
    iterations: int
    tol: float


def build_jacobi(alpha, n: int) -> TridiagMatrix:
    """Jacobi matrix of order n whose eigenvalues are the zeros of Q_n.

    Each q_k is rounded once from its exact value when alpha is exact.
    """
    a = alpha_value(alpha)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if isinstance(a, Fraction):
        q = [float(1 + a / k) for k in range(1, n + 1)]
    else:
        q = [1.0 + a / k for k in range(1, n + 1)]
    return TridiagMatrix(float(a), tuple(q))


def gershgorin_bracket(T: TridiagMatrix) -> tuple[float, float]:
    """Interval containing all eigenvalues, clamped below at 0.

    The clamp is valid because all zeros of Q_n are positive (the
    orthogonality measure of the family is supported on the positive axis).
    """
    diag, off = T.diag, T.offdiag
    radius = [0.0] * len(diag)
    for k, e in enumerate(off):
        radius[k] += e
        radius[k + 1] += e
    lo = min(d - r for d, r in zip(diag, radius))
    hi = max(d + r for d, r in zip(diag, radius))
    return max(0.0, lo), hi


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


def _newton_pass_e(q, e, sigma: float) -> tuple[int, float | None]:
    """Sign count at sigma and the Newton step -f/f' for f = det(B B^T -
    sigma), B with diagonal sqrt(q_k) and subdiagonal sqrt(e_k): s_0 =
    -sigma, s_{k+1} = e_k s_k/p_k - sigma, f'/f = sum_k s_k'/p_k, s_0' = -1,
    s_{k+1}' = e_k s_k' q_k/p_k^2 - 1.

    e holds len(q) entries; the last one only feeds an s that no pivot
    uses.  An exact zero pivot counts as negative; the next pivot is then
    +inf, the one after it sees s = e_{k+1} - sigma, and the step is None,
    as where f' overflows (0 for a zero last pivot, where f = 0).
    """
    count = 0
    s = -sigma
    ds = -1.0
    dlog = 0.0
    it = zip(q, e)
    while True:
        try:
            for qk, ek in it:
                p = qk + s
                if p <= 0.0:
                    count += 1
                r = 1.0 / p
                u = ds * r
                dlog += u
                ds = ek * u * qk * r - 1.0
                s = ek * s / p - sigma
            break
        except ZeroDivisionError:
            nxt = next(it, None)
            if nxt is None:
                # The last pivot is 0: det(T - sigma) = 0.
                return count, 0.0
            s = nxt[1] - sigma
            dlog = math.nan
    if dlog == 0.0 or not math.isfinite(dlog):
        return count, None
    return count, -1.0 / dlog


def _newton_pass(q, sigma: float) -> tuple[int, float | None]:
    """Sign count at sigma and the Newton step -f/f' for f = det(T - sigma):
    ``_newton_pass_e`` with unit subdiagonal, bit for bit."""
    return _newton_pass_e(q, itertools.repeat(1.0), sigma)


def _laguerre_pass(q, sigma: float) -> tuple[int, float | None]:
    """Sign count at sigma and a step towards the smallest eigenvalue of T:
    Laguerre's from count 0, Newton's 1/S1 from count >= 1.

    Laguerre's step n/(S1 + sqrt((n-1)(n S2 - S1^2))), with S1 = -f'/f =
    sum 1/(lambda_i - sigma) and S2 = -(f'/f)', converges cubically and
    monotonically from below every eigenvalue (Parlett 1964; Li & Zeng
    1994).  With u_k = s_k'/p_k and v_k = s_k''/p_k - u_k^2, S1 = -sum u_k,
    S2 = -sum v_k, s_0'' = 0 and s_{k+1}'' = (v_k - u_k^2) q_k/p_k.  Zero
    pivots as in ``_newton_pass_e``.
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
    if s1 == 0.0 or not math.isfinite(s1 + s2):
        return count, None
    if count:
        return count, 1.0 / s1
    n = len(q)
    return count, n / (s1 + math.sqrt(max(0.0, (n - 1) * (n * s2 - s1 * s1))))


def sturm_count(T: TridiagMatrix, sigma: float) -> int:
    """Number of eigenvalues of T below sigma (sigma itself included when
    it is one exactly)."""
    return _count(T.q, float(sigma))


def _check_tol(tol: float) -> None:
    if not 0 < tol < 1:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")


def _unresolved(tol: float, lo: float, hi: float) -> RuntimeError:
    return RuntimeError(f"tol={tol} is below binary64 resolution of bracket [{lo}, {hi}]")


def _newton(step_pass, count, lo: float, hi: float, sigma: float, tol: float,
            close: float) -> EigenResult:
    """Smallest eigenvalue of a matrix M in [lo, hi], the caller vouching
    that it lies there.  ``step_pass(sigma)`` returns the number of
    eigenvalues of M at or below sigma and a step towards the smallest one
    (None where it is undefined); ``count(sigma)`` returns the number alone.

    Step phase.  The first pass is at sigma; a start that counts an
    eigenvalue becomes the upper end, and the next pass is at lo, which must
    count none.  Each later pass moves one end of the bracket to sigma, by
    its count, unless its step is 0 (a zero last pivot: sigma is the
    eigenvalue).  Only steps from counts 0 and 1 are used.  Once |step| <=
    close*|sigma|, the estimate sigma + step, clamped to the bracket, goes to
    the close.  Before that, a step whose estimate lies in the bracket gives
    the next sigma, in this order:

    * from below, when the step is over half the previous one (slower than
      bisection): a third of the way to where the secant through the last
      two steps vanishes, and at least two steps ahead;
    * the estimate, from below, or from above when the step is at most half
      the previous move.

    Otherwise the next sigma is the bracket's midpoint, geometric while
    hi > 2 lo > 0.  Close: counts at est -+ tol*|est|/4; where one misses,
    the offset on that side doubles until a count lands, and then counts
    bisect.  Both phases stop once hi - lo <= tol * |value|, value being the
    midpoint, which is returned.
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
    prev = move = math.inf
    est = None
    while True:
        if step != 0.0:
            if c == 0:
                lo = sigma
            else:
                hi = sigma
        if hi - lo <= tol * abs(0.5 * (lo + hi)):
            break
        if steps == _MAX_PASSES:
            raise RuntimeError(f"no convergence to tol={tol} in {_MAX_PASSES} passes")
        usable = c <= 1 and step is not None
        if usable and abs(step) <= close * abs(sigma):
            est = min(max(sigma + step, lo), hi)
            break
        nxt = None
        if usable and lo <= sigma + step <= hi:
            if c == 0 and step > 0.5 * prev:
                reach = 2.0 if step >= prev else max(2.0, move / (3.0 * (prev - step)))
                nxt = sigma + reach * step
            elif c == 0 or abs(step) <= 0.5 * move:
                nxt = sigma + step
        if nxt is not None and lo < nxt < hi:
            move = abs(nxt - sigma)
            prev = step if c == 0 else math.inf
        else:
            nxt = math.sqrt(lo * hi) if hi > 2.0 * lo > 0.0 else 0.5 * (lo + hi)
            if not lo < nxt < hi:
                raise _unresolved(tol, lo, hi)
            move = prev = math.inf
        sigma = nxt
        c, step = step_pass(sigma)
        steps += 1
    counts = 0
    if est is not None:
        d = 0.25 * tol * abs(est)
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
        while hi - lo > tol * abs(0.5 * (lo + hi)):
            x = 0.5 * (lo + hi)
            if not lo < x < hi:
                raise _unresolved(tol, lo, hi)
            counts += 1
            lo, hi = (lo, x) if count(x) else (x, hi)
    value = 0.5 * (lo + hi)
    log.debug("newton: value=%.17g in [%g, %g] after %d step and %d count passes",
              value, lo, hi, steps, counts)
    return EigenResult(value, (lo, hi), steps + counts, tol)


def _largest(newton_pass, n: int, lo: float, hi: float, tol: float) -> EigenResult:
    """Largest eigenvalue in (lo, hi] of an order-n matrix M, whose
    ``newton_pass`` is a ``step_pass`` of ``_newton`` with Newton's step:
    the smallest eigenvalue of -M, by ``_newton`` from -hi, i.e. from above.

    A lower end that counts all n eigenvalues at or below it, or an upper
    end that counts fewer (the lower end of -M's bracket, in ``_newton``),
    raises RuntimeError: both ends are certified by the count before the
    bracket is used.
    """
    if newton_pass(lo)[0] >= n:
        raise RuntimeError(f"the bracket [{lo}, {hi}] misses the largest eigenvalue: "
                           f"all {n} lie at or below its lower end")

    def negated(sigma):
        count, step = newton_pass(-sigma)
        return n - count, None if step is None else -step

    res = _newton(negated, lambda sigma: n - newton_pass(-sigma)[0], -hi, -lo, -hi, tol,
                  _CLOSE_NEWTON)
    lo, hi = res.bracket
    return EigenResult(-res.value, (-hi, -lo), res.iterations + 1, tol)


def smallest_eigenvalue(T: TridiagMatrix, tol: float = 1e-13) -> EigenResult:
    """Smallest eigenvalue of T with a certified enclosing bracket.

    ``_newton`` with Laguerre steps starts at sigma = 1/refined_upper(alpha,
    n), below the eigenvalue for n >= 2; a start that the sign count places
    above it (rounding, at n = 2) falls back to sigma = 0, where every pivot
    is q_k > 0.
    """
    _check_tol(tol)
    q = T.q
    n = len(q)
    if n == 1:
        # The only eigenvalue is q_0 itself: a zero pivot there.
        return EigenResult(q[0], (math.nextafter(q[0], 0.0), q[0]), 0, tol)
    # count(0) = 0, every pivot being q_k; count(q_0) >= 1, its first pivot
    # being exactly 0.
    return _newton(functools.partial(_laguerre_pass, q), functools.partial(_count, q),
                   0.0, q[0], 1.0 / _refined_upper(T.alpha, n), tol, _CLOSE_LAGUERRE)


def largest_eigenvalue(T: TridiagMatrix, tol: float = 1e-13) -> EigenResult:
    """Largest eigenvalue of T with a certified enclosing bracket, by Newton
    from the upper end of the Gershgorin interval (``_largest``)."""
    _check_tol(tol)
    q = T.q
    if len(q) == 1:
        return EigenResult(q[0], (math.nextafter(q[0], 0.0), q[0]), 0, tol)
    lo, hi = gershgorin_bracket(T)
    # The largest eigenvalue may sit on the Gershgorin edge; nudge the right
    # end so that its count is n.
    hi += 4.0 * math.ulp(hi)
    return _largest(functools.partial(_newton_pass, q), len(q), lo, hi, tol)


def markov_constant(alpha, n: int, tol: float = 1e-13) -> float:
    """Sharp constant c_n(alpha): inverse square root of the smallest zero of Q_n."""
    res = smallest_eigenvalue(build_jacobi(alpha, n), tol)
    if res.value <= 0.0:
        raise RuntimeError(
            f"smallest eigenvalue {res.value} is not positive (alpha={alpha}, n={n})"
        )
    return res.value ** -0.5
