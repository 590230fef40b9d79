import math

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
    first_zero,
    asymptotic_upper_large_alpha,
)
from markov_laguerre.bessel import NU_MAX, X_MAX, ZERO_NU_MAX, _ikebe_factor, _order, _zero_eigenvalue
from markov_laguerre.eigen import _laguerre_pass_e

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
        # Laguerre steps from above; Newton steps took 13.3 passes per zero
        # on this grid, 21 at most
        passes = []
        for k in range(700):
            nu = -0.999 + 0.37 * k
            passes.append(zero_eigenvalue(nu, order(nu, 1e-13), 1e-13).iterations)
        assert sum(passes) / len(passes) <= 9
        assert max(passes) <= 10

    def test_step_from_above_the_spectrum(self):
        # Laguerre's step from above every eigenvalue of an Ikebe factor is
        # negative and lands between the largest eigenvalue and sigma
        for nu in (-0.9, 0.0, 3.3, 40.0):
            m = order(nu, 1e-13)
            q, e = ikebe_factor(nu, m)
            top = np.linalg.eigvalsh(dense_factor_product(q, e))[-1]
            sigma = 1.001 * top
            count, step = _laguerre_pass_e(q, e, sigma)
            assert count == m
            assert step < 0 and top * (1 - 1e-12) <= sigma + step < sigma

    def test_zero_pivot_in_the_factored_pass(self):
        # sigma = q_0 zeroes the first pivot; the count restarts from
        # e_1 - sigma and agrees with LAPACK's eigenvalues, with no step
        for nu in (-0.5, 0.0, 3.3, 40.0):
            q, e = ikebe_factor(nu, order(nu, 1e-13))
            eig = np.linalg.eigvalsh(dense_factor_product(q, e))
            assert np.min(np.abs(eig - q[0])) > 1e-6
            assert _laguerre_pass_e(q, e, q[0]) == (int(np.sum(eig < q[0])), None)

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
