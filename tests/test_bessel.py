import hashlib
import math
import random
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markov_laguerre import (
    asymptotic_constant,
    bessel,
    bessel_j,
    bessel_zero_enclosure,
    bounds,
    cli,
    first_zero,
    asymptotic_upper_large_alpha,
)
from markov_laguerre.bessel import NU_MAX, X_MAX, ZERO_NU_MAX, _ikebe_factor, _order, _zero_eigenvalue
from markov_laguerre.eigen import _count_e, _laguerre_pass_e

mpmath.mp.dps = 40


def mp_j(nu, x):
    return float(mpmath.besselj(mpmath.mpf(nu), mpmath.mpf(x)))


def mp_first_zero(nu):
    """Independent oracle: fine scan plus mpmath bisection."""
    f = lambda x: mpmath.besselj(mpmath.mpf(nu), x)
    t = mpmath.mpf("1e-8")
    step = mpmath.mpf("0.05")
    while f(t) > 0:
        t += step
    return float(mpmath.findroot(f, (t - step, t), solver="bisect", tol=1e-30))


def mp_zero(nu):
    """Oracle for any nu > -1: the scan below nu = 1; from nu = 1 on, the
    root of mpmath's J_nu found from the asymptotic
    nu + 1.8557571 nu^(1/3) + 1.033150 nu^(-1/3), which lies within 0.06 of
    j_{nu,1} there, far inside half the spacing of the zeros."""
    if nu < 1.0:
        return mp_first_zero(nu)
    start = nu + 1.8557571 * nu ** (1 / 3) + 1.033150 * nu ** (-1 / 3)
    return float(mpmath.findroot(lambda x: mpmath.besselj(nu, x), mpmath.mpf(start)))


def order(nu, tol):
    return _order(nu + 1.0, bessel_zero_enclosure(nu).upper, tol)


def zero_eigenvalue(nu, m, tol):
    return _zero_eigenvalue(nu + 1.0, m, bessel_zero_enclosure(nu), tol)


def ikebe_factor(nu, m):
    return _ikebe_factor(nu + 1.0, m)


def mp_s1(q, e, sigma):
    """S1 = -f'/f for f = det(B B^T - sigma), B lower bidiagonal with
    squared diagonal q and squared subdiagonal e: the continuant at 50
    digits, its derivative by mpmath.diff."""
    with mpmath.workdps(50):
        def det(x):
            prev, cur = mpmath.mpf(1), mpmath.mpf(q[0]) - x
            for k in range(1, len(q)):
                prev, cur = cur, ((mpmath.mpf(q[k]) + e[k - 1] - x) * cur
                                  - mpmath.mpf(e[k - 1]) * q[k - 1] * prev)
            return cur

        x = mpmath.mpf(sigma)
        return float(-mpmath.diff(det, x) / det(x))


def dense_factor_product(q, e):
    """B B^T as a dense matrix, B lower bidiagonal with squared diagonal q
    and squared subdiagonal e."""
    m = len(q)
    B = np.diag(np.sqrt(q)) + np.diag(np.sqrt(e[: m - 1]), -1)
    return B @ B.T


class TestSeries:
    def test_envelope_enforced(self):
        for nu, x in [(-1.0, 1.0), (26.0, 1.0), (0.0, 0.0), (0.0, -2.0), (0.0, 41.0)]:
            with pytest.raises(ValueError):
                bessel_j(nu, x)

    def test_half_integer_zeros(self):
        assert abs(bessel_j(0.5, math.pi)) < 1e-14
        assert abs(bessel_j(-0.5, math.pi / 2)) < 1e-14

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.5, 6.0])
    def test_half_integer_closed_forms(self, x):
        assert bessel_j(0.5, x) == pytest.approx(
            math.sqrt(2 / (math.pi * x)) * math.sin(x), rel=1e-12
        )
        assert bessel_j(-0.5, x) == pytest.approx(
            math.sqrt(2 / (math.pi * x)) * math.cos(x), rel=1e-12
        )

    def test_j0_at_one(self):
        assert bessel_j(0.0, 1.0) == pytest.approx(0.7651976865579666, abs=1e-15)

    @pytest.mark.parametrize(
        "nu", [-0.9, -0.5, 0.0, 0.25, 1.0, 2.5, 7.0, 13.5, 20.0, 25.0]
    )
    @pytest.mark.parametrize("x", [0.3, 1.0, 2.0, 5.0, 10.0, 20.0, 30.0, 37.0])
    def test_against_mpmath(self, nu, x):
        ref = mp_j(nu, x)
        cancel = float(mpmath.besseli(mpmath.mpf(nu), mpmath.mpf(x))) / abs(ref)
        if cancel > 1e12:
            pytest.skip("value smaller than the certified cancellation floor")
        # allow for the documented cancellation loss of the ascending series
        tol = max(1e-13, 100 * 2.3e-16 * cancel)
        assert bessel_j(nu, x) == pytest.approx(ref, rel=tol)

    @pytest.mark.parametrize(
        "nu,x", [(0.0, 1.0), (0.5, 2.0), (2.5, 4.0), (10.0, 8.0), (25.0, 15.0), (0.0, 10.0)]
    )
    def test_truncation_self_consistency(self, nu, x):
        base = bessel_j(nu, x)
        finer = bessel_j(nu, x, series_rel_tol=0.5e-18)
        assert abs(base - finer) <= 1e-14 * abs(base)


class TestFirstZero:
    def test_half_integers_exact(self):
        assert abs(first_zero(0.5) - math.pi) <= 1e-12
        assert abs(first_zero(-0.5) - math.pi / 2) <= 1e-12

    def test_nu0(self):
        assert first_zero(0.0) == pytest.approx(2.404825557695773, abs=1e-11)

    @pytest.mark.parametrize("nu", [-0.75, -0.25, 0.0, 1.0, 5.5, 12.0, 19.25, 25.0])
    def test_enclosure_and_accuracy(self, nu):
        lo, hi = bessel_zero_enclosure(nu)
        z = first_zero(nu)
        assert lo < z < hi
        assert z == pytest.approx(mp_first_zero(nu), rel=1e-13)

    @pytest.mark.parametrize("nu", [-0.999, -0.995, -0.99])
    def test_relative_accuracy_near_minus_one(self, nu):
        # zeros below 1: the stopping width must be relative to the zero
        want = mp_first_zero(nu)
        assert abs(first_zero(nu) - want) <= 1e-13 * want

    @pytest.mark.parametrize(
        "nu",
        [-0.9999, -0.95, -0.5, 0.3, 1.0, 3.3, 10.0, 23.835, 25.0, 25.5, 60.0, 100.0, 175.0, 250.0,
         500.0, 1000.0],
    )
    def test_relative_accuracy_on_a_wide_grid(self, nu):
        # 23.835 is where the ascending-series bisection was 3.7e-10 off
        want = mp_zero(nu)
        assert abs(first_zero(nu) - want) <= 1e-13 * want

    @pytest.mark.parametrize("nu", [math.nextafter(ZERO_NU_MAX, math.inf), 1e24, 1e40, 1e300])
    def test_beyond_the_domain_raises(self, nu):
        # above about 2e24, nu + 2m rounds to nu and no truncation order
        # would ever satisfy the rule: the domain check must come first
        assert ZERO_NU_MAX == 1000.0
        with pytest.raises(ValueError, match="domain"):
            first_zero(nu)
        with pytest.raises(ValueError, match="domain"):
            asymptotic_constant(2 * nu + 1)

    def test_loose_tol_near_minus_one(self):
        # Near nu = -1 the enclosure is narrower than the truncation
        # allowance tol * _TRUNCATION_MARGIN that _order grants, so the
        # truncated eigenvalue may lie below the enclosure's 4/upper^2: the
        # bracket's lower end carries the allowance.  Without it
        # first_zero(-0.9999999999993316, tol=1e-8) raised "misses the
        # largest eigenvalue", as did the scan at every tol for nu + 1 from
        # about 7e-15 (1e-10) up to 1.3e-12 (1e-8) and 1.3e-8 (1e-4).
        nu = -0.9999999999993316
        want = mp_first_zero(nu)
        assert abs(first_zero(nu, tol=1e-8) - want) <= 1e-8 * want
        rng = random.Random(26)
        for k in range(80):
            nu = -1.0 + 10 ** (-16 + (k + rng.random()) / 8)
            want = mp_first_zero(nu)
            for tol in (1e-4, 1e-8, 1e-10):
                assert abs(first_zero(nu, tol) - want) <= tol * want, (nu, tol)

    @pytest.mark.parametrize("tol", [1e-13, 1e-8])
    def test_zero_lies_in_the_enclosure_near_minus_one(self, tol):
        # Near nu = -1 the enclosure is narrower than the bracket's
        # truncation allowance, and the bracket's midpoint fell outside the
        # enclosure at 150 of these 300 nu at tol 1e-13 (by up to 1.7e-15
        # relative) and at all 300 at 1e-8; the zero is clamped into it, so
        # c(alpha) lies in the asymptotic bounds
        rng = random.Random(28)
        for _ in range(300):
            h = 10 ** rng.uniform(-16, -6)
            lower, upper = bessel_zero_enclosure(h - 1.0)
            assert lower <= first_zero(h - 1.0, tol) <= upper, (h, tol)
            lower, upper = bounds.asymptotic_bounds(2.0 * h - 1.0)
            assert lower <= asymptotic_constant(2.0 * h - 1.0, tol) <= upper, (h, tol)

    def test_half_orders_within_one_ulp(self):
        assert abs(first_zero(0.5) - math.pi) <= math.ulp(math.pi)
        assert abs(first_zero(-0.5) - math.pi / 2) <= math.ulp(math.pi / 2)

    @pytest.mark.parametrize("tol", [1e-13, 1e-8])
    @pytest.mark.parametrize("nu", [-0.95, 0.0, 3.3, 25.0, 100.0, 250.0, 1000.0])
    def test_doubling_the_order_moves_the_zero_by_at_most_tol(self, nu, tol):
        m = order(nu, tol)
        z = 2 / math.sqrt(zero_eigenvalue(nu, m, tol).value)
        z2 = 2 / math.sqrt(zero_eigenvalue(nu, 2 * m, tol).value)
        assert abs(z2 - z) <= tol * z

    @pytest.mark.parametrize("nu", [0.0, 3.3, 40.0])
    @pytest.mark.parametrize("factors", [(0.5, 0.9), (1.1, 2.0)])
    def test_enclosure_that_misses_the_zero_raises(self, monkeypatch, nu, factors):
        # an enclosure below the zero leaves every eigenvalue under
        # 4/upper^2; one above it leaves the largest over the start 4/lower^2
        j = first_zero(nu)
        monkeypatch.setattr(
            bessel, "_bessel_zero_bounds", lambda h: bounds.BoundPair(factors[0] * j, factors[1] * j)
        )
        with pytest.raises(RuntimeError, match="misses"):
            first_zero(nu)

    @pytest.mark.parametrize("nu", [1.5, 3.3, 40.0])
    @pytest.mark.parametrize("factors", [(0.5, 0.9), (1.01, 1.1)])
    def test_enclosure_that_misses_the_zero_raises_from_the_start(self, monkeypatch, nu, factors):
        # Olver's start inside an enclosure that misses the zero: the solve
        # from there never reaches the enclosure's ends, so they are counted
        # first.  (1.01, 1.1) puts the bracket's upper end 4/lower^2 below
        # the largest eigenvalue, and the start above the second largest
        # (j_{nu,2} > 1.1 j_{nu,1} up to nu = 40), so only that count finds
        # it; without it the solve returns a wrong zero quietly.
        j = first_zero(nu)
        started = []

        def start(x):
            started.append(x)
            return 0.5 * (factors[0] + factors[1]) * j

        monkeypatch.setattr(
            bessel, "_bessel_zero_bounds", lambda h: bounds.BoundPair(factors[0] * j, factors[1] * j)
        )
        monkeypatch.setattr(bessel, "_olver", start)
        with pytest.raises(RuntimeError, match="misses"):
            first_zero(nu)
        assert started == [nu]

    def test_the_start_leaves_no_trace(self, monkeypatch):
        # From Olver's expansion (nu >= 1, where it lies inside the
        # enclosure: from nu = 1.2156 on) and from the enclosure's end, every
        # zero is the same float: the close's lattice does not depend on the
        # start
        rng = random.Random(25)
        nus = ([-1.0 + 10 ** rng.uniform(-15, 0) for _ in range(150)]
               + [rng.uniform(1.0, 1.2) for _ in range(50)]
               + [10 ** rng.uniform(0.1, 3) for _ in range(400)] + [1.0, 1000.0])
        hs = [nu + 1.0 for nu in nus]
        inside = [h for h in hs if h >= 2.0 and
                  bessel._bessel_zero_bounds(h)[0] < bessel._olver(h - 1.0) < bessel._bessel_zero_bounds(h)[1]]
        assert inside == [h for h in hs if h >= 2.2156]
        cases = [(h, tol) for tol in (1e-13, 1e-8) for h in hs]
        started = [bessel._first_zero(h, tol) for h, tol in cases]
        monkeypatch.setattr(bessel, "_olver", lambda nu: math.nan)
        assert [bessel._first_zero(h, tol) for h, tol in cases] == started

    @settings(max_examples=40, deadline=None)
    @given(nu=st.floats(min_value=-1.0, max_value=1000.0, exclude_min=True))
    def test_sign_count_certifies_both_ends(self, nu):
        tol = 1e-13
        m = order(nu, tol)
        q, e = ikebe_factor(nu, m)
        res = zero_eigenvalue(nu, m, tol)
        lo, hi = res.bracket
        assert lo <= res.value <= hi
        assert hi - lo <= tol * res.value
        assert _laguerre_pass_e(q, e, lo)[0] < m
        assert _laguerre_pass_e(q, e, hi)[0] == m
        # independent: LAPACK's largest eigenvalue of the dense B B^T, to
        # its own absolute accuracy of a few eps * lambda
        top = np.linalg.eigvalsh(dense_factor_product(q, e))[-1]
        assert lo * (1 - 1e-14) <= top <= hi * (1 + 1e-14)

    def test_passes_per_zero(self):
        # Laguerre steps, from Olver's expansion from nu = 1 on, else from
        # above, with the two count-only checks of the bracket's ends: 5.05
        # per zero on this grid, 6 at most; from above everywhere they take
        # 8.98 and 10, and Newton steps took 13.3 and 21
        passes = []
        for k in range(700):
            nu = -0.999 + 0.37 * k
            passes.append(zero_eigenvalue(nu, order(nu, 1e-13), 1e-13).iterations)
        assert sum(passes) / len(passes) <= 5.1
        assert max(passes) <= 6

    def test_step_from_above_the_spectrum(self):
        # Laguerre's step from above every eigenvalue of an Ikebe factor is
        # negative and lands between the largest eigenvalue and sigma
        for nu in (-0.9, 0.0, 3.3, 40.0):
            m = order(nu, 1e-13)
            q, e = ikebe_factor(nu, m)
            top = np.linalg.eigvalsh(dense_factor_product(q, e))[-1]
            sigma = 1.001 * top
            count, step, _ = _laguerre_pass_e(q, e, sigma)
            assert count == m
            assert step < 0 and top * (1 - 1e-12) <= sigma + step < sigma

    @pytest.mark.parametrize("nu", [-0.9, 0.0, 3.3, 40.0])
    def test_s1_is_minus_the_log_derivative(self, nu):
        # the pass's third value, S1 = -f'/f, against mpmath's, above the
        # spectrum, close below its top and between its top two eigenvalues
        q, e = ikebe_factor(nu, order(nu, 1e-13))
        eig = np.linalg.eigvalsh(dense_factor_product(q, e))
        for sigma in (1.001 * eig[-1], 0.999 * eig[-1], 0.5 * (eig[-2] + eig[-1])):
            assert _laguerre_pass_e(q, e, sigma)[2] == pytest.approx(mp_s1(q, e, sigma), rel=1e-12)

    def test_zero_pivot_in_the_factored_pass(self):
        # sigma = q_0 zeroes the first pivot; the count restarts from
        # e_1 - sigma and agrees with LAPACK's eigenvalues, with no step
        for nu in (-0.5, 0.0, 3.3, 40.0):
            q, e = ikebe_factor(nu, order(nu, 1e-13))
            eig = np.linalg.eigvalsh(dense_factor_product(q, e))
            assert np.min(np.abs(eig - q[0])) > 1e-6
            assert _laguerre_pass_e(q, e, q[0])[:2] == (int(np.sum(eig < q[0])), None)

    @pytest.mark.parametrize("nu", [-0.9, -0.5, 0.0, 3.3, 40.0])
    def test_count_only_pass_is_the_count_of_the_factored_pass(self, nu):
        # sigma = q_0 zeroes the first pivot, and on the order-1 factor the
        # last; the others lie below, inside and above the spectrum
        q, e = ikebe_factor(nu, order(nu, 1e-13))
        top = np.linalg.eigvalsh(dense_factor_product(q, e))[-1]
        for qs, es in ((q, e), (q[:1], e[:1])):
            for sigma in (qs[0], 0.0, 1e-3 * top, 0.5 * top, top, 1.001 * top, 2.0):
                assert _count_e(qs, es, sigma) == _laguerre_pass_e(qs, es, sigma)[0]

    def test_count_only_pass_through_a_later_zero_pivot(self):
        # s_1 = -e_0 - sigma = -1.5 zeroes the pivot q_1 + s_1, inside the
        # recurrence and, at order 2, last; the count restarts from
        # e_2 - sigma
        q, e = [2.0, 1.5, 3.0, 0.25], [0.5, 0.25, 0.125, 1.0]
        for m in (2, 3, 4):
            for sigma in (1.0, 0.75, 1.25):
                assert _count_e(q[:m], e[:m], sigma) == _laguerre_pass_e(q[:m], e[:m], sigma)[0]
        assert _laguerre_pass_e(q[:2], e[:2], 1.0)[:2] == (1, 0.0)
        assert _laguerre_pass_e(q, e, 1.0)[1] is None

    @settings(max_examples=60, deadline=None)
    @given(nu=st.floats(min_value=-1.0, max_value=1000.0, exclude_min=True),
           ratio=st.floats(min_value=0.0, max_value=2.0))
    def test_count_only_pass_agrees_at_any_sigma(self, nu, ratio):
        q, e = ikebe_factor(nu, order(nu, 1e-13))
        sigma = ratio * 4.0 / bessel_zero_enclosure(nu).lower ** 2
        assert _count_e(q, e, sigma) == _laguerre_pass_e(q, e, sigma)[0]

    def test_counting_with_step_passes_gives_the_same_zeros(self, monkeypatch):
        # The close counts with _count_e; counting with the Laguerre pass
        # moves no zero by a bit: on the nu grid of ``verify bessel`` and at
        # the h = (alpha + 1)/2 of every alpha of the benchmark's sweep grid
        # (seed 1), whose c(alpha) the sweep rows read
        grid = cli._grid(-0.75, 25.0, 0.25) + cli._grid(27.5, 250.0, 2.5)
        alphas = cli._grid(-0.9 + random.Random(1).random() * 0.05, 50.0, 0.05)
        hs = [nu + 1.0 for nu in grid] + [0.5 * a + 0.5 for a in alphas]
        fast = [bessel._first_zero(h, 1e-13) for h in hs]
        monkeypatch.setattr(bessel, "_count_e", lambda q, e, s: _laguerre_pass_e(q, e, s)[0])
        assert [bessel._first_zero(h, 1e-13) for h in hs] == fast
        assert len(alphas) == 1018

    @pytest.mark.parametrize("nu", [-0.9999999999999999, -1 + 1e-12])
    def test_enclosure_collapsed_in_binary64(self, nu):
        # the enclosure's relative width is about nu + 1, and at the first
        # float above -1 its two ends are one number; the ascending series
        # raised at both points, the count still places the zero
        want = mp_first_zero(nu)
        assert abs(first_zero(nu) - want) <= 1e-13 * want

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            first_zero(0.5, tol=0.0)

    def test_wide_bracket_contains_later_zeros(self):
        # above nu ~ 12 the enclosure is wider than the zero spacing; the
        # scan must still land on the first zero, not a later one
        z = first_zero(25.0)
        assert z == pytest.approx(30.779039186567266, abs=1e-6)
        second = float(mpmath.besseljzero(25, 2))
        assert z < second - 3.0


def kapteyn_x(h, upper):
    """The upper bound x on j_{h-1,1} that ``bessel._order`` reads."""
    nu = h - 1.0
    if nu < 1.0:
        return upper
    t = (0.5 * nu) ** (1.0 / 3.0)
    return min(upper, nu - bessel._AIRY_A1 * t + 0.15 * bessel._AIRY_A1 * bessel._AIRY_A1 / t)


def kapteyn_hit(h, x, tol, m):
    """Whether Kapteyn's bound at order m meets ``_order``'s target."""
    mu = h + (2 * m - 1)
    z = x / mu
    if z >= 1.0:
        return False
    w = math.sqrt(1.0 - z * z)
    return 2.0 * mu * (math.log(z) + w - math.log1p(w)) <= math.log(tol * bessel._TRUNCATION_MARGIN)


def linear_order(h, upper, tol):
    """``bessel._order`` by its definition, from a different first order:
    every order from (x - nu)/2 up, one at a time, until Kapteyn's bound
    meets the target."""
    x = kapteyn_x(h, upper)
    m = max(1, math.ceil(0.5 * (x - (h - 1.0))))
    while not kapteyn_hit(h, x, tol, m):
        m += 1
    return m


def order_cases():
    """h = nu + 1 log-spaced from 1e-16 (nu towards -1) to 1001 (nu = 1000),
    as first_zero passes it, with the rounded enclosure's upper end, at
    four tolerances: (h, upper, tol)."""
    rng = random.Random(7)
    hs = [10 ** rng.uniform(-16, math.log10(1001.0)) for _ in range(20000)] + [1001.0, 2.0]
    return [(h, bessel._bessel_zero_bounds(h)[1], tol)
            for h in hs for tol in (1e-15, 1e-13, 1e-8, 1e-4)]


class TestOrder:
    def test_scan_matches_the_oracle_from_x_minus_nu(self):
        mismatches = [(h, tol) for h, upper, tol in order_cases()
                      if _order(h, upper, tol) != linear_order(h, upper, tol)]
        assert mismatches == []

    def test_bound_meets_the_target_first_at_the_returned_order(self):
        misses, top = [], 0
        for h, upper, tol in order_cases():
            m, x = _order(h, upper, tol), kapteyn_x(h, upper)
            if not kapteyn_hit(h, x, tol, m) or (m > 1 and kapteyn_hit(h, x, tol, m - 1)):
                misses.append((h, tol, m))
            top = max(top, m)
        assert misses == []
        # the bound that bessel's docstring states for tol >= 1e-15
        assert top == 49

    @pytest.mark.parametrize("nu,error", [(1.0, 9.8e-3), (5.0, 1.1e-4), (25.0, 7.7e-7),
                                          (100.0, 8.4e-9), (1000.0, 6.4e-13)])
    def test_olver_lies_below_the_zero_and_qu_and_wong_above(self, nu, error):
        # the relative errors that ``bessel._olver`` documents, as rounded there
        z = first_zero(nu)
        assert bessel._olver(nu) < z < bessel._qu_wong(nu)
        assert (z - bessel._olver(nu)) / z == pytest.approx(error, rel=0.05)


def two_pass_factor(h, m):
    """Ikebe's factor as two comprehensions that form h + 2i anew for each
    term."""
    q = [1.0 / ((h + 2 * i) * (h + 2 * i + 1)) for i in range(m)]
    e = [1.0 / ((h + 2 * i + 1) * (h + 2 * i + 2)) for i in range(m)]
    return q, e


# sha256 of the ``float.hex`` of first_zero at the nu grid of ``verify
# bessel``, comma-joined, as the two-comprehension factor gave them.
VERIFY_BESSEL_ZEROS_SHA256 = "c57b6a62cff031a42f776a19becb78bfb0db7533e8cf358dcec39f8b4a594e4c"


class TestIkebeFactor:
    def test_one_pass_is_the_two_pass_factor_to_the_bit(self):
        rng = random.Random(11)
        hs = [10 ** rng.uniform(-16, 3) for _ in range(100)] + [1.0, 2.0, 1001.0]
        for h in hs:
            for m in range(50):
                got, want = _ikebe_factor(h, m), two_pass_factor(h, m)
                assert [list(map(float.hex, x)) for x in got] == \
                    [list(map(float.hex, x)) for x in want], (h, m)

    def test_the_verify_bessel_zeros_keep_their_bits(self):
        grid = cli._grid(-0.75, 25.0, 0.25) + cli._grid(27.5, 250.0, 2.5)
        text = ",".join(first_zero(nu).hex() for nu in grid)
        assert len(grid) == 194
        assert hashlib.sha256(text.encode()).hexdigest() == VERIFY_BESSEL_ZEROS_SHA256


class TestAsymptoticConstant:
    def test_alpha0(self):
        assert asymptotic_constant(0.0) == pytest.approx(2 / math.pi, rel=1e-12)

    def test_alpha2(self):
        assert asymptotic_constant(2.0) == pytest.approx(1 / math.pi, rel=1e-12)

    def test_alpha1(self):
        assert asymptotic_constant(1.0) == pytest.approx(1 / 2.404825557695773, rel=1e-11)

    def test_envelope(self):
        # the cap is alpha <= 2001 (nu <= 1000): c(52) = 1/j_{25.5,1};
        # alpha <= -1, nan, inf and alpha past the cap raise
        assert asymptotic_constant(52.0) == pytest.approx(1 / mp_zero(25.5), rel=1e-13)
        for bad in (-1.0, -3.0, math.nan, math.inf, 2003.0, 1e30):
            with pytest.raises(ValueError):
                asymptotic_constant(bad)
            with pytest.raises(ValueError):
                first_zero((bad - 1) / 2)

    def test_an_exact_alpha_is_held_to_the_domain(self):
        # F(2001) + F(1, 10**30) rounds to 2001.0, inside the domain; the
        # check reads the exact alpha, as the sweep's empty cell does
        assert asymptotic_constant(F(2001)) == asymptotic_constant(2001.0)
        for bad in (math.nextafter(2001.0, math.inf), F(2001) + F(1, 10**30)):
            with pytest.raises(ValueError, match="outside the domain"):
                asymptotic_constant(bad)

    @pytest.mark.parametrize("alpha", [-0.99999, -0.999999, -1 + 1e-8, -1 + 1e-15,
                                       -0.9999999999999999])
    def test_relative_accuracy_near_minus_one(self, alpha):
        # solved at nu = (alpha-1)/2, which cancels near alpha = -1, c(alpha)
        # was 5.6e-12, 5.6e-11, 5.6e-9 and 6.1e-2 off at the first four, and
        # the first float above -1 raised; in h = (alpha+1)/2 it is exact
        with mpmath.workdps(60):
            h = (mpmath.mpf(alpha) + 1) / 2
            j = mpmath.findroot(lambda x: mpmath.besselj(h - 1, x), 2 * mpmath.sqrt(h))
            want = float(1 / j)
        assert abs(asymptotic_constant(alpha) - want) <= 1e-13 * want

    def test_inverse_zero_bound_true_domain(self):
        # c(alpha) < 2/(alpha + 2pi - 2) holds for alpha > 2 with equality
        # at alpha = 2 exactly (both sides are 1/pi there), and is REVERSED
        # on 1 < alpha < 2, where the function raises instead.
        assert asymptotic_constant(2.0) == pytest.approx(asymptotic_upper_large_alpha(2.0), rel=1e-12)
        a = 2.5
        while a <= 50.0:
            assert asymptotic_constant(a) < asymptotic_upper_large_alpha(a), a
            a += 0.5
        for a in (1.2, 1.5, 1.9):
            assert asymptotic_constant(a) > 2 / (a + 2 * math.pi - 2), a
            with pytest.raises(ValueError):
                asymptotic_upper_large_alpha(a)
