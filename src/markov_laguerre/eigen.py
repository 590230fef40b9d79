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

One driver, ``_newton``, runs safeguarded Newton on det(M - sigma), with
the derivative taken in the same pass.  Every pass also yields a sign
count, and the result is the midpoint of a bracket whose two ends were
certified by it.  ``smallest_eigenvalue`` starts it at the reciprocal of
the refined upper bound on c_n(alpha)^2, which lies below the eigenvalue;
a largest eigenvalue (``_largest``, ``largest_eigenvalue``) is the
smallest eigenvalue of -M, solved from the upper end of its bracket.
"""

from __future__ import annotations

import functools
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
    """One eigenvalue with its certified bracket: lo <= value <= hi.

    The sign count at sigma = lo finds no eigenvalue below it, the one at
    hi finds the wanted eigenvalue below it, and hi - lo <= tol * value.
    ``iterations`` is the number of sign-count passes that took.
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


def _newton_pass(q, sigma: float) -> tuple[int, float | None]:
    """Sign count at sigma and the Newton step -f/f' for f = det(T - sigma).

    f'/f = sum_k s_k'/p_k, with s_0' = -1 and s_{k+1}' = s_k' q_k/p_k^2 - 1.
    The step is None where it is undefined: at a zero pivot, or when the
    derivative overflows.
    """
    count = 0
    s = -sigma
    ds = -1.0
    dlog = 0.0
    it = iter(q)
    try:
        for qk in it:
            p = qk + s
            if p <= 0.0:
                count += 1
            r = 1.0 / p
            u = ds * r
            dlog += u
            ds = u * qk * r - 1.0
            s = s / p - sigma
    except ZeroDivisionError:
        if next(it, None) is None:
            # The last pivot is 0: det(T - sigma) = 0.
            return count, 0.0
        return _count(q, sigma), None
    if dlog == 0.0 or not math.isfinite(dlog):
        return count, None
    return count, -1.0 / dlog


def _newton_pass_e(q, e, sigma: float) -> tuple[int, float | None]:
    """``_newton_pass`` for the factor B with diagonal sqrt(q_k) and
    subdiagonal sqrt(e_k): s_0 = -sigma, s_{k+1} = e_k s_k/p_k - sigma.

    e holds len(q) entries; the last one only feeds an s that no pivot
    uses.  An exact zero pivot counts as negative; the next pivot is then
    +inf, the one after it sees s = e_{k+1} - sigma, and the step is None.
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


def sturm_count(T: TridiagMatrix, sigma: float) -> int:
    """Number of eigenvalues of T below sigma (sigma itself included when
    it is one exactly)."""
    return _count(T.q, float(sigma))


def _check_tol(tol: float) -> None:
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol}")


def _unresolved(tol: float, lo: float, hi: float) -> RuntimeError:
    return RuntimeError(f"tol={tol} is below binary64 resolution of bracket [{lo}, {hi}]")


def _newton(newton_pass, lo: float, hi: float, sigma: float, tol: float) -> EigenResult:
    """Smallest eigenvalue of a matrix M in [lo, hi] by safeguarded Newton.

    ``newton_pass(sigma)`` returns the number of eigenvalues of M at or
    below sigma and the Newton step of det(M - sigma) (None where it is
    undefined).  The caller vouches that the eigenvalue lies in [lo, hi];
    the result's bracket is certified by the counts alone.

    The first pass is at sigma.  A start that counts an eigenvalue at or
    below it becomes the upper end, and the next pass is at lo, which must
    count none.  Each pass moves one end of the bracket to sigma, by its
    count, and gives the Newton step.  Newton is used from counts 0 and 1
    only, and only when its estimate sigma + step lies in the bracket.  The
    next sigma is, in this order:

    * once |step| <= tol*|sigma|/2, the estimate moved tol*|sigma|/4 past
      it, so that one more count can close the bracket;
    * from below, when the step is over half the previous one (slower than
      bisection): a third of the way to where the secant through the two
      steps vanishes, and at least two steps ahead;
    * the estimate less tol*|sigma|/4 towards sigma, from below, or from
      above when the step is at most half the previous move;
    * otherwise the midpoint of the bracket, geometric while hi > 2 lo > 0.

    It stops when hi - lo <= tol * |value|, value being the midpoint.
    """
    count, step = newton_pass(sigma)
    passes = 1
    if count:
        hi, sigma = sigma, lo
        count, step = newton_pass(sigma)
        passes += 1
        if count:
            raise RuntimeError("the bracket misses the eigenvalue: its lower end "
                               "counts one at or below it")
    prev = move = math.inf
    while True:
        if count == 0:
            lo = sigma
        else:
            hi = sigma
        value = 0.5 * (lo + hi)
        if hi - lo <= tol * abs(value):
            break
        if passes == _MAX_PASSES:
            raise RuntimeError(f"no convergence to tol={tol} in {_MAX_PASSES} passes")
        # Newton targets stop short of the estimate by `margin`, on sigma's
        # side, so that the closing pair of passes straddles the eigenvalue
        # at about `margin` on either side rather than within rounding of it.
        margin = (0.25 if count else -0.25) * tol * abs(sigma)
        nxt = None
        if count <= 1 and step is not None and lo <= sigma + step <= hi:
            if abs(step) <= 2.0 * abs(margin):
                nxt = sigma + step - margin
            elif count == 0 and step > 0.5 * prev:
                rate = step / prev
                reach = 2.0 if rate >= 1.0 else max(2.0, 1.0 / (3.0 * (1.0 - rate)))
                nxt = sigma + reach * step
            elif count == 0 or abs(step) <= 0.5 * move:
                nxt = sigma + step + margin
        if nxt is not None and lo < nxt < hi:
            move = abs(nxt - sigma)
        else:
            nxt = math.sqrt(lo * hi) if hi > 2.0 * lo > 0.0 else value
            if not lo < nxt < hi:
                raise _unresolved(tol, lo, hi)
            move = math.inf
        prev = step if count == 0 and step is not None else math.inf
        sigma = nxt
        count, step = newton_pass(sigma)
        passes += 1
    log.debug("newton: value=%.17g in [%g, %g] after %d passes", value, lo, hi, passes)
    return EigenResult(value, (lo, hi), passes, tol)


def _largest(newton_pass, n: int, lo: float, hi: float, tol: float) -> EigenResult:
    """Largest eigenvalue in (lo, hi] of an order-n matrix M, whose
    ``newton_pass`` is as in ``_newton``: the smallest eigenvalue of -M,
    by Newton from -hi, i.e. from above.

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

    res = _newton(negated, -hi, -lo, -hi, tol)
    lo, hi = res.bracket
    return EigenResult(-res.value, (-hi, -lo), res.iterations + 1, tol)


def smallest_eigenvalue(T: TridiagMatrix, tol: float = 1e-13) -> EigenResult:
    """Smallest eigenvalue of T with a certified enclosing bracket.

    Newton (``_newton``) starts at sigma = 1/refined_upper(alpha, n), below
    the eigenvalue for n >= 2; a start that the sign count places above it
    (rounding, at n = 2) falls back to sigma = 0, where every pivot is
    q_k > 0.
    """
    _check_tol(tol)
    q = T.q
    n = len(q)
    if n == 1:
        # The only eigenvalue is q_0 itself: a zero pivot there.
        return EigenResult(q[0], (math.nextafter(q[0], 0.0), q[0]), 0, tol)
    # count(0) = 0, every pivot being q_k; count(q_0) >= 1, its first pivot
    # being exactly 0.
    return _newton(functools.partial(_newton_pass, q), 0.0, q[0],
                   1.0 / _refined_upper(T.alpha, n), tol)


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
