import math

import mpmath
import pytest

from markov_laguerre import (
    asymptotic_constant,
    bessel_j,
    bessel_zero_enclosure,
    first_zero,
    asymptotic_upper_large_alpha,
)
from markov_laguerre.bessel import NU_MAX, X_MAX

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
        assert z == pytest.approx(mp_first_zero(nu), abs=5e-8)

    @pytest.mark.parametrize("nu", [-0.999, -0.995, -0.99])
    def test_relative_accuracy_near_minus_one(self, nu):
        # zeros below 1: the stopping width must be relative to the zero
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
        with pytest.raises(ValueError):
            asymptotic_constant(52.0)

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
