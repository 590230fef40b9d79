"""First-kind Bessel values and the first positive zero j_{nu,1}.

The asymptotic Markov constant is c(alpha) = 1/j_{(alpha-1)/2,1}, so locating
the first Bessel zero turns the finite-n machinery into asymptotic checks.
The zero is found by bisection inside the enclosure provided by
:func:`markov_laguerre.bounds.bessel_zero_enclosure`, which makes that
enclosure load-bearing: a bracket whose endpoints do not straddle a sign
change is reported as an error, never papered over.

Precision envelope
------------------
J_nu(x) is summed by the ascending alternating series, so binary64 loses
roughly log10(I_nu(x) / |J_nu(x)|) digits to cancellation.  The certified
envelope is -1 < nu <= 25 and 0 < x <= 40, which covers every bracket the
zero finder needs (the widest, at nu = 25, reaches x ~ 38.2).  Near the far
corner the absolute error grows to ~1e-7, which still locates j_{25,1} to
~1e-6 against enclosure margins above 3; for small x the series is accurate
to ~1e-15.  Larger nu is out of scope rather than silently inaccurate.
"""

from __future__ import annotations

import logging
import math

from .bounds import bessel_zero_enclosure
from .recurrence import alpha_value

__all__ = ["NU_MAX", "X_MAX", "bessel_j", "first_zero", "asymptotic_constant"]

log = logging.getLogger(__name__)

NU_MAX = 25.0
X_MAX = 40.0

_MIN_TERMS = 30
_MAX_TERMS = 400
_MAX_BISECT = 200


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


def first_zero(nu: float, tol: float = 1e-13) -> float:
    """First positive zero of J_nu, located by bisection.

    The search starts from the bessel_zero_enclosure interval.  J_nu is
    positive on (0, j_{nu,1}), so the series value must be positive at the
    lower endpoint; a nonpositive value there would falsify the enclosure (or
    the series) and raises RuntimeError.  The upper endpoint may lie past
    later zeros (for nu above ~12 the enclosure is wider than the spacing of
    the zeros), so the first sign change is located by a unit-step scan --
    safe because consecutive zeros of J_nu are more than two apart for every
    nu > -1 -- and the zero is then bisected inside that subinterval.
    """
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    enclosure_lo, enclosure_hi = bessel_zero_enclosure(nu)
    f_lo = bessel_j(nu, enclosure_lo)
    if not f_lo > 0.0:
        raise RuntimeError(
            f"J_{nu}({enclosure_lo}) = {f_lo} <= 0 at the lower enclosure "
            "endpoint; enclosure or series accuracy violated"
        )
    lo, hi = enclosure_lo, enclosure_hi
    t = lo
    while True:
        t = min(t + 1.0, enclosure_hi)
        ft = bessel_j(nu, t)
        if ft < 0.0:
            hi = t
            break
        if ft == 0.0:
            return t
        lo = t
        if t >= enclosure_hi:
            raise RuntimeError(
                f"no sign change of J_{nu} found in [{enclosure_lo}, "
                f"{enclosure_hi}]; enclosure or series accuracy violated"
            )
    iterations = 0
    while hi - lo > tol * 0.5 * (lo + hi):
        if iterations >= _MAX_BISECT:
            raise RuntimeError(f"zero bisection did not converge to tol={tol}")
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        fm = bessel_j(nu, mid)
        if fm > 0.0:
            lo = mid
        elif fm < 0.0:
            hi = mid
        else:
            return mid
        iterations += 1
    zero = 0.5 * (lo + hi)
    log.debug("first_zero(nu=%g) = %.17g after %d steps", nu, zero, iterations)
    return zero


def asymptotic_constant(alpha, tol: float = 1e-13) -> float:
    """Asymptotic constant c(alpha) = lim c_n(alpha)/n = 1/j_{(alpha-1)/2,1}.

    Requires (alpha-1)/2 inside the Bessel envelope, i.e. alpha <= 51.
    """
    a = float(alpha_value(alpha))
    return 1.0 / first_zero((a - 1.0) / 2.0, tol)
