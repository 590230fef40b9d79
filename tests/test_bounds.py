import math
import random
import re
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from markov_laguerre import (
    bounds_report,
    build_jacobi,
    asymptotic_bounds,
    bessel_zero_enclosure,
    dorfler_bounds,
    laguerre_samuelson,
    largest_eigenvalue,
    markov_constant,
    power_sums,
    largest_root_bounds,
    ratio_r,
    reciprocal_b123,
    residual_sandwich_check,
    smallest_eigenvalue,
    refined_bounds,
    asymptotic_upper_large_alpha,
    turan_constant,
)
from markov_laguerre.bounds import (
    _coefficients_from_values,
    _lower_gap_parts,
    _positive_above_minus_one,
    _residual_parts,
    _scaled_residual_parts,
    _shift,
    _sign_changes,
    _upper_gap_parts,
)
from markov_laguerre.recurrence import (
    RATIONAL,
    _refined_lower_parts,
    coeff_a0,
    coeff_a1,
    coeff_a2,
    coeff_a3,
    qn_coefficient_rows,
)

from oracles import exact_c1_sq, exact_c2_sq

GRID_ALPHAS = (-0.9, -0.5, 0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 25.0)


def comb(n, k):
    return math.comb(n, k)


class TestPowerSums:
    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_equal_roots(self, n):
        assert power_sums(n, comb(n, 2), comb(n, 3)) == (n, n, n)

    def test_quadratic_example(self):
        assert power_sums(3, 1, 0) == (3, 7, 18)

    def test_single_root(self):
        assert power_sums(1, 0, 0) == (1, 1, 1)

    def test_exact_mode(self):
        p = power_sums(F(1, 2), F(1, 16), F(0))
        assert p == (F(1, 2), F(1, 8), F(1, 32))
        assert isinstance(p.p3, F)


class TestProp1:
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_equal_roots_lower_bounds_attained(self, n):
        i, ii, iii = largest_root_bounds(n, comb(n, 2), comb(n, 3), n)
        assert i.lower == ii.lower == iii.lower == 1.0
        assert i.upper == n
        assert ii.upper == pytest.approx(math.sqrt(n))
        assert iii.upper == pytest.approx(n ** (1 / 3))

    def test_golden_quadratic(self):
        x2 = (3 + math.sqrt(5)) / 2
        i, ii, iii = largest_root_bounds(3, 1, 0, 2)
        assert i == (1.5, 3)
        assert ii.lower == pytest.approx(7 / 3)
        assert ii.upper == pytest.approx(math.sqrt(7))
        assert iii.lower == pytest.approx(18 / 7)
        assert iii.upper == pytest.approx(18 ** (1 / 3))
        for pair in (i, ii, iii):
            assert pair.lower <= x2 < pair.upper

    def test_rejects_inconsistent_input(self):
        with pytest.raises(ValueError):
            largest_root_bounds(1.0, 10.0, 0.0, 3)

    def test_rejects_n0(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            largest_root_bounds(1.0, 0.0, 0.0, 0)


class TestRefinedBounds:
    def test_alpha0_n3_values(self):
        t = refined_bounds(0.0, 3)
        assert t.lower == pytest.approx(3.4, abs=1e-15)
        assert t.upper == pytest.approx(13.6 / 15 ** (1 / 3), rel=1e-15)
        assert t.lower_valid

    def test_alpha0_n3_sandwich(self):
        c_sq = 1 / smallest_eigenvalue(build_jacobi(0.0, 3), 1e-14).value
        t = refined_bounds(0.0, 3)
        assert c_sq == pytest.approx((2 * math.sin(math.pi / 14)) ** -2, rel=1e-12)
        assert t.lower < c_sq < t.upper

    def test_lower_validity_flag(self):
        assert not refined_bounds(25.0, 4).lower_valid
        assert refined_bounds(25.0, 5).lower_valid

    def test_rejects_n0(self):
        with pytest.raises(ValueError):
            refined_bounds(0.0, 0)

    def test_rejects_infinite_alpha(self):
        with pytest.raises(ValueError):
            refined_bounds(float("inf"), 3)


    @pytest.mark.parametrize("alpha", [1e160, 1.7e308])
    def test_overflow_raises(self, alpha):
        # (a+3)(a+5) overflows past a ~ 1.3e154: the pair came out (nan, 0)
        with pytest.raises(OverflowError):
            refined_bounds(alpha, 5)


class TestDorfler:
    def test_examples(self):
        assert dorfler_bounds(0.0, 1) == pytest.approx((1 / 3, 1.0))
        assert dorfler_bounds(1.0, 4) == (2.0, 5.0)
        assert dorfler_bounds(0.0, 10) == pytest.approx((100 / 3, 55.0))

    def test_upper_attained_at_n1(self):
        assert 1 / smallest_eigenvalue(build_jacobi(0.0, 1)).value == 1.0
        assert dorfler_bounds(0.0, 1).upper == 1.0

    @pytest.mark.parametrize("n", [0, -5])
    def test_rejects_n_below_one(self, n):
        with pytest.raises(ValueError, match="n must be >= 1"):
            dorfler_bounds(0.0, n)


class TestLaguerreSamuelson:
    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_equal_roots_degenerate(self, n):
        pair = laguerre_samuelson(n, comb(n, 2), n)
        assert pair.lower == pair.upper == 1.0

    def test_tight_for_quadratic(self):
        pair = laguerre_samuelson(3, 1, 2)
        assert pair.lower == pytest.approx((3 - math.sqrt(5)) / 2)
        assert pair.upper == pytest.approx((3 + math.sqrt(5)) / 2)

    def test_cubic_example(self):
        pair = laguerre_samuelson(6, 5, 3)
        assert pair.lower == pytest.approx(2 - math.sqrt(84) / 3)
        assert pair.upper == pytest.approx(2 + math.sqrt(84) / 3)

    def test_rejects_negative_discriminant(self):
        with pytest.raises(ValueError):
            laguerre_samuelson(1.0, 10.0, 3)

    def test_rejects_n0(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            laguerre_samuelson(1.0, 0.1, 0)

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 2.0])
    @pytest.mark.parametrize("n", [2, 3, 8, 20])
    def test_encloses_both_extreme_roots(self, alpha, n):
        b1, b2, _ = reciprocal_b123(alpha, n)
        pair = laguerre_samuelson(b1, b2, n)
        T = build_jacobi(alpha, n)
        largest = 1 / smallest_eigenvalue(T, 1e-14).value
        smallest = 1 / largest_eigenvalue(T, 1e-14).value
        # at n = 2 the interval endpoints are the roots themselves, so
        # allow eigensolver-tolerance slack
        slack = 1e-11 * max(1.0, pair.upper)
        assert pair.lower - slack <= smallest <= pair.upper + slack
        assert pair.lower - slack <= largest <= pair.upper + slack


class TestAsymptoticBounds:
    def test_alpha0_relative_errors(self):
        lower, upper = asymptotic_bounds(0.0)
        c0 = 2 / math.pi
        assert 1.006 < c0 / lower < 1.006585
        assert 1.0002 < upper / c0 < 1.000242

    def test_rejects_infinite_alpha(self):
        with pytest.raises(ValueError):
            asymptotic_bounds(float("inf"))

    @pytest.mark.parametrize("alpha", [1e160, 1.7e308])
    def test_overflow_raises(self, alpha):
        # both bounds came out 0 past a ~ 1.3e154
        with pytest.raises(OverflowError):
            asymptotic_bounds(alpha)

    def test_encloses_the_limit_near_minus_one(self):
        # The two sides meet as a -> -1, closer than binary64 rounding:
        # rounded to nearest, they fall on the wrong side of c(a) at 90 of
        # these alphas, the upper one 6.7e-17 below it at a = -0.999999 and
        # the lower one 1.0e-16 above it at a = -1 + 1e-10.
        rng = random.Random(14)
        alphas = [-1.0 + 0.1 * 10.0 ** -rng.uniform(0.0, 10.0) for _ in range(214)]
        misses = []
        with mpmath.workdps(60):
            for a in alphas + [-0.999999, -1 + 1e-10]:
                nu = (mpmath.mpf(a) - 1) / 2
                c = 1 / mpmath.findroot(lambda x: mpmath.besselj(nu, x), 2 * mpmath.sqrt(nu + 1))
                lower, upper = asymptotic_bounds(a)
                if not lower <= c <= upper:
                    misses.append(a)
        assert misses == []

    def test_ratio_tends_to_one(self):
        assert ratio_r(-0.999999) == pytest.approx(1.0, abs=1e-5)

    def test_ratio_at_zero(self):
        assert ratio_r(0.0) == pytest.approx(math.sqrt(10) / (2 * 15 ** (1 / 6)), rel=1e-14)

    def test_ratio_below_two_coarse_grid(self):
        a = -0.99
        while a < 500.0:
            assert ratio_r(a) < 2.0, a
            a += 2.5

    def test_large_alpha_upper_values(self):
        assert asymptotic_upper_large_alpha(2.0) == pytest.approx(1 / math.pi, rel=1e-15)
        assert asymptotic_upper_large_alpha(10.0) == pytest.approx(2 / (8 + 2 * math.pi), rel=1e-15)

    def test_large_alpha_upper_domain(self):
        for a in (1.0, 1.5, 1.999):
            with pytest.raises(ValueError):
                asymptotic_upper_large_alpha(a)

    def test_upper_bound_crossings(self):
        # the smooth upper bound beats 2/(a + 2pi - 2) at a = 10, loses at 100
        assert asymptotic_bounds(10.0).upper < asymptotic_upper_large_alpha(10.0)
        assert asymptotic_bounds(100.0).upper > asymptotic_upper_large_alpha(100.0)


class TestBesselZeroBounds:
    def test_half_integer_contain_pi(self):
        lo, hi = bessel_zero_enclosure(0.5)
        assert lo < math.pi < hi

    def test_minus_half_contains_half_pi(self):
        lo, hi = bessel_zero_enclosure(-0.5)
        assert lo < math.pi / 2 < hi

    def test_nu0_contains_first_zero(self):
        lo, hi = bessel_zero_enclosure(0.0)
        assert lo < 2.404825557695773 < hi

    def test_rejects_nu_at_minus_one(self):
        with pytest.raises(ValueError):
            bessel_zero_enclosure(-1.0)

    @pytest.mark.parametrize("nu", [math.inf, math.nan])
    def test_rejects_non_finite_nu(self, nu):
        with pytest.raises(ValueError, match="finite"):
            bessel_zero_enclosure(nu)

    def test_finite_up_to_1e153(self):
        lo, hi = bessel_zero_enclosure(1e153)
        assert 0.0 < lo < hi < math.inf

    @pytest.mark.parametrize("nu", [1e154, 2e154, 1e200])
    def test_overflow_raises(self, nu):
        # it returned (3.84e128, inf) at 1e154 and (-inf, inf) from 2e154
        with pytest.raises(OverflowError, match="nu=" + re.escape(repr(nu))):
            bessel_zero_enclosure(nu)

    def test_encloses_the_zero_near_minus_one(self):
        # rounded to nearest, the pair missed j_{nu,1} at 136 of these nu;
        # solved in h = nu + 1 and rounded outward it misses none
        rng = random.Random(14)
        nus = [-1.0 + 2.4e-5 * 10.0 ** -rng.uniform(0.0, 10.0) for _ in range(214)]
        misses = []
        with mpmath.workdps(60):
            for nu in nus:
                h = mpmath.mpf(nu) + 1
                j = mpmath.findroot(lambda x: mpmath.besselj(h - 1, x), 2 * mpmath.sqrt(h))
                lower, upper = bessel_zero_enclosure(nu)
                if not lower <= j <= upper:
                    misses.append(nu)
        assert misses == []


def lower_gap(a):
    """The lower-gap coefficients of n^1..n^5 at the exact value of a."""
    return [F(num, den) for num, den in _lower_gap_parts(*F(a).as_integer_ratio())]


def upper_gap(a):
    """The upper-gap coefficients of n^0..n^5 at the exact value of a."""
    return [F(num, den) for num, den in _upper_gap_parts(*F(a).as_integer_ratio())]


def scaled_residual(a, side):
    """The coefficients of n^0..n^6 of the scaled lower (side 0) or upper
    (side 1) residual at the exact value of a."""
    nums, den = _scaled_residual_parts(*F(a).as_integer_ratio())[side]
    return [F(num, den) for num in nums]


class TestIdentityResiduals:
    def test_values_at_zero(self):
        assert lower_gap(0)[4] == F(28, 3)
        assert upper_gap(0)[0] == F(64, 125)
        assert upper_gap(0)[5] == F(48, 5)

    @pytest.mark.parametrize("alpha", [-0.99, -0.5, 0.0, 3.7, 50.0, 250.0, 500.0])
    def test_positivity(self, alpha):
        assert all(k > 0 for k in lower_gap(alpha))

    def test_nu_low_orders_can_go_negative(self):
        nu = upper_gap(F(-9, 10))
        assert min(nu[1:4]) < 0 < nu[0]


def values_in_t(lead, shifts, double_roots=()):
    """Exact values at alpha = 0..8 of lead * prod(t + r) * prod((t - s)^2),
    t = alpha + 1."""
    def at(t):
        v = lead
        for r in shifts:
            v *= t + r
        for s in double_roots:
            v *= (t - s) ** 2
        return v
    return [at(F(k + 1)) for k in range(9)]


def exact_sturm_verdict(coeffs):
    """Whether the polynomial with ``coeffs`` (alpha^0 first) is positive on
    alpha > -1 by a Sturm sequence of exact Fraction remainders: the
    reference for the integer pseudo-remainders."""
    p = [F(c) for c in _shift(coeffs, -1)]
    while p and not p[-1]:
        p.pop()
    while p and not p[0]:
        del p[0]
    if not p:
        return False
    seq = [p, [j * c for j, c in enumerate(p)][1:]]
    while seq[-1]:
        r, v = list(seq[-2]), seq[-1]
        while len(r) >= len(v):
            f = r.pop() / v[-1]
            for i, c in enumerate(v[:-1], len(r) - len(v) + 1):
                r[i] -= f * c
        while r and not r[-1]:
            r.pop()
        seq.append([-c for c in r])
    seq.pop()
    return p[-1] > 0 and _sign_changes(s[0] for s in seq) == _sign_changes(s[-1] for s in seq)


positive_fractions = st.fractions(min_value=F(1, 1000), max_value=1000, max_denominator=1000)
shifts = st.fractions(min_value=0, max_value=50, max_denominator=100)
double_roots = st.fractions(min_value=F(1, 100), max_value=50, max_denominator=100)


class TestPositiveAboveMinusOne:
    @settings(max_examples=60, deadline=None)
    @given(lead=positive_fractions, rs=st.lists(shifts, max_size=7))
    @example(lead=F(1, 270), rs=[F(0), F(0)])
    def test_products_of_nonnegative_shifts_are_proved(self, lead, rs):
        assert _positive_above_minus_one(values_in_t(lead, rs))

    @settings(max_examples=60, deadline=None)
    @given(lead=positive_fractions, rs=st.lists(shifts, max_size=5), s=double_roots)
    def test_a_double_root_past_minus_one_is_refused(self, lead, rs, s):
        assert not _positive_above_minus_one(values_in_t(lead, rs, [s]))

    @settings(max_examples=30, deadline=None)
    @given(lead=positive_fractions, rs=st.lists(shifts, max_size=7))
    def test_a_negative_leading_coefficient_is_refused(self, lead, rs):
        assert not _positive_above_minus_one(values_in_t(-lead, rs))

    def test_lower_gap_zero_vanishes_at_minus_one(self):
        # (1 + a)^2 times a cubic: zero at a = -1 only, which the domain leaves out
        assert _lower_gap_parts(-1, 1)[0][0] == 0
        assert _positive_above_minus_one([lower_gap(k)[0] for k in range(9)])

    def test_lower_gap_three_needs_the_sturm_count(self):
        # In t = a + 1 its coefficients change sign twice, so their signs
        # leave room for two positive roots; the Sturm count rules them out.
        in_t, top = _coefficients_from_values([_lower_gap_parts(k - 1, 1)[3][0] for k in range(8)])
        assert _lower_gap_parts(0, 1)[3][1] == 36
        assert [F(c, 36 * top) for c in in_t[::-1]] == [0, 0, 0, F(1, 36), F(-5, 36), F(83, 18),
                                                        F(43, 6), 10]
        values = [lower_gap(k)[3] for k in range(9)]
        assert _positive_above_minus_one(values)
        # times t^2: the Sturm sequence would vanish at t = 0, so t is stripped first
        assert _positive_above_minus_one([(k + 1) ** 2 * v for k, v in enumerate(values)])

    def test_a_function_of_higher_degree_is_refused(self):
        # t^8 and 2^a are positive, but no degree-7 interpolant proves it
        assert not _positive_above_minus_one([F(k + 1) ** 8 for k in range(9)])
        assert not _positive_above_minus_one([2**k for k in range(9)])

    def test_zero_is_refused(self):
        assert not _positive_above_minus_one([0] * 9)

    @settings(max_examples=200, deadline=None)
    @given(coeffs=st.lists(st.integers(-3, 3), min_size=1, max_size=8))
    @example(coeffs=[1, 1, 0, -2, 2, 1])
    @example(coeffs=[-2, -3, 1, -2, 3, -3, 2])
    def test_integer_remainders_agree_with_exact_ones(self, coeffs):
        # Where the degree drops by two and the divisor leads negative, a
        # pseudo-remainder scaled by lc^3 rather than |lc|^3 flips the sign;
        # it reversed both examples: the first has no root on a > -1, the
        # second has two (-0.46 and 1.37)
        values = [sum(c * k**j for j, c in enumerate(coeffs)) for k in range(9)]
        assert _positive_above_minus_one(values) == exact_sturm_verdict(coeffs)

    @settings(max_examples=60, deadline=None)
    @given(lead=positive_fractions, sign=st.sampled_from([1, -1]), rs=st.lists(shifts, max_size=5),
           ss=st.lists(double_roots, max_size=1), bump=st.sampled_from([0, F(1, 7)]),
           k=st.integers(1, 10**12))
    def test_a_positive_factor_keeps_the_verdict(self, lead, sign, rs, ss, bump, k):
        # The values are scaled to integers by the lcm of their denominators,
        # and the Sturm sequence runs on pseudo-remainders: neither may move
        # a verdict.  A bump of the last value breaks the degree premise.
        values = values_in_t(sign * lead, rs, ss)
        values[-1] += bump
        verdict = _positive_above_minus_one(values)
        scale = k * math.lcm(*(v.denominator for v in values))
        assert _positive_above_minus_one([k * v for v in values]) == verdict
        assert _positive_above_minus_one([int(v * scale) for v in values]) == verdict
        assert verdict == (sign > 0 and not ss and not bump)


class TestShift:
    @settings(max_examples=60, deadline=None)
    @given(coeffs=st.lists(st.integers(-50, 50), max_size=8), s=st.integers(-3, 3),
           x=st.fractions(min_value=-5, max_value=5, max_denominator=7))
    def test_is_the_polynomial_at_x_plus_s(self, coeffs, s, x):
        shifted = _shift(coeffs, s)
        assert len(shifted) == len(coeffs)
        assert (sum(c * x**j for j, c in enumerate(shifted))
                == sum(c * (x + s) ** i for i, c in enumerate(coeffs)))

    def test_upper_gap_at_n_plus_two_is_the_binomial_sum(self):
        g = upper_gap(F(1, 3))
        assert _shift(g, 2) == [sum(g[i] * math.comb(i, j) * 2 ** (i - j) for i in range(j, 6))
                                for j in range(6)]


class TestResidualPolys:
    @pytest.mark.parametrize("a", [F(0), F(1, 2), F(-9, 10), F(25), F(7, 3)])
    def test_exact_match_with_coefficient_lists(self, a):
        lp = scaled_residual(a, 0)
        up = scaled_residual(a, 1)
        assert lp[0] == 0 and lp[6] == 0
        assert lp[1:6] == lower_gap(a)
        assert up[6] == 0
        assert up[:6] == upper_gap(a)

    def test_wrong_normalization_leaves_degree_six(self):
        # dividing the lower bound by (a+3)(a+5) instead of (a+1)(a+5)
        # fails to cancel the n^6 term, so the printed degree-5 lists can
        # only belong to the (a+1)(a+5) normalization
        a = F(1)

        def wrong_gap(n):
            _, p2, p3 = power_sums(*reciprocal_b123(a, n))
            num, den = _refined_lower_parts(a, 1, n)
            return p3 - num / den * (a + 1) / (a + 3) * p2

        wrong, _ = _coefficients_from_values([wrong_gap(n) for n in range(7)])
        assert wrong[6] != 0
        assert scaled_residual(a, 0)[6] == 0

    @settings(max_examples=40, deadline=None)
    @given(
        a=st.fractions(min_value=F(-999, 1000), max_value=50, max_denominator=1000),
        n=st.integers(min_value=0, max_value=40),
    )
    def test_single_sources_agree_with_exact_arithmetic(self, a, n):
        # the exact recurrence row against coeff_a0..a3, which derive from
        # reciprocal_b123, and the residual polynomials at n against the
        # scaled residual_sandwich_check they are recovered from
        *_, row = qn_coefficient_rows(a, n, RATIONAL)
        closed = (coeff_a0(a, n), coeff_a1(a, n), coeff_a2(a, n), coeff_a3(a, n))
        for k in range(min(3, n) + 1):
            assert row[k] == closed[k]
        lr, ur = residual_sandwich_check(a, n)
        scale_up = (a + 1) ** 2 * (a + 2) * (a + 3) * (a + 4) * (a + 5)
        at_n = lambda coeffs: sum(c * n**j for j, c in enumerate(coeffs))
        assert at_n(scaled_residual(a, 0)) == lr * (a + 1) * scale_up
        assert at_n(scaled_residual(a, 1)) == ur * scale_up

    @pytest.mark.parametrize("a", [F(0), F(1, 2), F(2)])
    @pytest.mark.parametrize("n", [3, 4, 10, 57])
    def test_poly_evaluation_matches_direct_residuals(self, a, n):
        lr, ur = residual_sandwich_check(a, n)
        lp = scaled_residual(a, 0)
        up = scaled_residual(a, 1)
        scale_low = (a + 1) ** 3 * (a + 2) * (a + 3) * (a + 4) * (a + 5)
        scale_up = (a + 1) ** 2 * (a + 2) * (a + 3) * (a + 4) * (a + 5)
        assert sum(c * n**j for j, c in enumerate(lp)) == lr * scale_low
        assert sum(c * n**j for j, c in enumerate(up)) == ur * scale_up


class TestResidualSandwich:
    def test_alpha0_n3_positive(self):
        lr, ur = residual_sandwich_check(F(0), 3)
        assert lr > 0 and ur > 0
        assert isinstance(lr, F)

    def test_alpha0_n2_upper_branch(self):
        _, ur = residual_sandwich_check(F(0), 2)
        assert ur > 0

    def test_relative_decay_at_large_n(self):
        a = F(0)
        ratios = []
        for n in (10**3, 10**4):
            lr, _ = residual_sandwich_check(a, n)
            b1, b2, b3 = reciprocal_b123(a, n)
            p3 = power_sums(b1, b2, b3).p3
            ratios.append(lr / p3)
        assert ratios[1] < ratios[0] < F(1, 100)

    def test_float_mode_runs(self):
        lr, ur = residual_sandwich_check(0.5, 7)
        assert lr > 0 and ur > 0
        assert isinstance(lr, float)

    @settings(max_examples=60, deadline=None)
    @given(a=st.floats(min_value=-1.0, max_value=1e6, exclude_min=True),
           n=st.integers(min_value=0, max_value=400))
    @example(a=-0.9999999999999999, n=50)
    def test_float_alpha_is_the_rounded_exact_residual(self, a, n):
        # binary64 arithmetic on the float alpha cancelled: 8.6e-10 off
        # relative on seeded points, and an upper residual of 1.74e41 at
        # the first float above -1, n = 50, where the residual is 7.17e39
        exact = residual_sandwich_check(F(a), n)
        assert residual_sandwich_check(a, n) == tuple(float(r) for r in exact)

    def test_float_residual_that_underflows_raises(self):
        # at alpha = 1e300 both nonzero residuals round to 0.0
        assert residual_sandwich_check(F(1e300), 5)[1] != 0
        with pytest.raises(OverflowError, match="binary64"):
            residual_sandwich_check(1e300, 5)


def fraction_b123(a, n):
    """Oracle: b1..b3 read off the four lowest coefficients of Q_n, which the
    three-term recurrence in plain Fraction arithmetic gives on their own."""
    prev, cur = [F(0)] * 4, [F(1), F(0), F(0), F(0)]
    for m in range(n):
        shift = 1 + a if m == 0 else 2 + a / (m + 1)
        couple = 1 + a / m if m else 0
        prev, cur = cur, [(cur[k - 1] if k else 0) - shift * cur[k] - couple * prev[k]
                          for k in range(4)]
    return -cur[1] / cur[0], cur[2] / cur[0], -cur[3] / cur[0]


def fraction_residuals(a, n):
    """Oracle: the sandwich residuals p3 - lower p2 and upper^3 - p3 in plain
    Fraction arithmetic."""
    b1, b2, b3 = fraction_b123(a, n)
    p2, p3 = b1**2 - 2 * b2, b1**3 - 3 * b1 * b2 + 3 * b3
    lower = (3 * n + 2 * a) * (6 * n - (a + 1)) / (9 * (a + 1) * (a + 5))
    upper_cubed = (n + 1) ** 3 * (5 * n + 2 * (a + 1)) ** 3 / (
        125 * (a + 1) ** 3 * (a + 3) * (a + 5))
    return p3 - lower * p2, upper_cubed - p3


@st.composite
def exact_alphas(draw):
    """p/d > -1 with d up to 1e6 and p/d up to 1000."""
    d = draw(st.integers(1, 10**6))
    return F(draw(st.integers(1 - d, 1000 * d)), d)


class TestFractionOracle:
    """The integer paths of reciprocal_b123 and residual_sandwich_check
    against plain Fraction arithmetic."""

    def check(self, a, n):
        b = reciprocal_b123(a, n)
        assert b == fraction_b123(a, n) and all(isinstance(x, F) for x in b)
        r = residual_sandwich_check(a, n)
        assert r == fraction_residuals(a, n) and all(isinstance(x, F) for x in r)

    @settings(max_examples=60, deadline=None)
    @given(a=exact_alphas(), n=st.integers(0, 40))
    def test_random_alpha(self, a, n):
        self.check(a, n)

    @pytest.mark.parametrize("a", [F(10**400, 3), F(-10**400 + 1, 10**400)])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 17])
    def test_past_binary64(self, a, n):
        self.check(a, n)

    @settings(max_examples=20, deadline=None)
    @given(a=exact_alphas())
    def test_residual_denominators_do_not_depend_on_n(self, a):
        # the residual polynomials interpolate the numerators alone
        for side in (0, 1):
            dens = {_residual_parts(a.numerator, a.denominator, n)[side][1] for n in range(7)}
            assert len(dens) == 1


class TestNegativeDegree:
    @pytest.mark.parametrize("alpha", [0.5, F(1, 2)])
    def test_residual_sandwich_check_raises(self, alpha):
        # residual_sandwich_check(F(1, 2), -2) gave negative residuals
        with pytest.raises(ValueError, match="n must be >= 0"):
            residual_sandwich_check(alpha, -2)

    def test_degree_zero_stays_valid(self):
        # the residual polynomials interpolate n = 0..6
        assert residual_sandwich_check(F(1, 2), 0) == fraction_residuals(F(1, 2), 0)
        assert residual_sandwich_check(0.5, 0) == pytest.approx(fraction_residuals(F(1, 2), 0))


class TestSmallNClosedForms:
    @pytest.mark.parametrize("alpha", [-0.98, -0.5, 0.0, 1.7, 12.0, 50.0])
    def test_match_eigensolver(self, alpha):
        c1 = markov_constant(alpha, 1, 1e-14)
        c2 = markov_constant(alpha, 2, 1e-14)
        assert abs(c1**2 - exact_c1_sq(alpha)) <= 1e-11 * exact_c1_sq(alpha)
        assert abs(c2**2 - exact_c2_sq(alpha)) <= 1e-11 * exact_c2_sq(alpha)

    def test_turan_consistency(self):
        assert exact_c1_sq(0.0) == 1.0
        assert turan_constant(1) == pytest.approx(1.0, rel=1e-15)
        assert turan_constant(2) ** 2 == pytest.approx(exact_c2_sq(0.0), rel=1e-14)


class TestBoundsReport:
    def test_alpha0_n3_ordering(self):
        rep = bounds_report(0.0, 3)
        assert rep.refined_lower < rep.exact_c_sq < rep.refined_upper
        assert rep.dorfler_lower < rep.exact_c_sq <= rep.dorfler_upper
        assert rep.turan == pytest.approx(turan_constant(3))

    def test_turan_absent_off_alpha0(self):
        assert bounds_report(1.0, 3).turan is None

    @pytest.mark.parametrize("alpha", [-0.9, 0.5, 5.0])
    def test_power_sum_chain(self, alpha):
        for n in (3, 10, 41):
            rep = bounds_report(alpha, n)
            x_n = rep.exact_c_sq
            assert rep.linear_lower < rep.quadratic_lower < rep.cubic_lower < x_n
            assert x_n < rep.cubic_upper < rep.quadratic_upper < rep.linear_upper


class TestEveryBoundOnItsSide:
    @settings(max_examples=30, deadline=None)
    @given(
        alpha=st.floats(min_value=-1.0, max_value=1e6, exclude_min=True),
        n=st.integers(min_value=1, max_value=2000),
    )
    # near alpha = -1 one root dominates and the power-sum bounds are tight
    # to within the bracket's width
    @example(alpha=-0.9999999999, n=2)
    # just below alpha = 1.5e61, past which b3's denominator overflows
    @example(alpha=1e61, n=1)
    @example(alpha=1e61, n=2)
    @example(alpha=1e61, n=3)
    @example(alpha=1e61, n=40)
    def test_bounds_straddle_the_certified_constant(self, alpha, n):
        # Each lower bound lies at or below the bracket of c_n^2 and each
        # upper bound at or above it, where the bound claims to apply: the
        # power-sum chain, Dorfler and Laguerre-Samuelson at every n, the
        # refined upper bound from n = 3 and the refined lower bound where it
        # is also valid.  The bracket is widened by 4n eps, a stand-in for
        # the O(n eps) rounding of the binary64 sign count, which the
        # solver's fixed margin does not yet cover at large n (ROADMAP
        # item 1).
        res = smallest_eigenvalue(build_jacobi(alpha, n))
        lo, hi = res.bracket
        slack = 4 * n * 2.0**-52
        c_sq_lo, c_sq_hi = (1 - slack) / hi, (1 + slack) / lo
        b1, b2, b3 = reciprocal_b123(alpha, n)
        pairs = [*largest_root_bounds(b1, b2, b3, n), dorfler_bounds(alpha, n),
                 laguerre_samuelson(b1, b2, n)]
        refined = refined_bounds(alpha, n)
        if n >= 3:
            pairs.append((refined.lower if refined.lower_valid else 0.0, refined.upper))
        for lower, upper in pairs:
            assert lower <= c_sq_hi, (alpha, n, lower, upper)
            assert upper >= c_sq_lo, (alpha, n, lower, upper)

    @pytest.mark.parametrize("alpha", [-0.9999999999998074, -0.9999999999])
    def test_cubic_upper_at_n1_is_above_the_exact_constant(self, alpha):
        # c_1^2 = 1/(1 + alpha) exactly, compared in rationals: no slack
        b1, b2, b3 = reciprocal_b123(alpha, 1)
        cubic = largest_root_bounds(b1, b2, b3, 1)[2]
        assert F(cubic.upper) >= 1 / (1 + F(alpha))

    def test_cubic_upper_is_above_the_exact_cube_root(self):
        # p3 = t1 - t2 + t3 cancels at large n (t1 + t2 + t3 is 2.8e8 p3 at
        # a = 1e5, n = 20000) and the exponent 1/3 is rounded; the bound is
        # rounded upward past both, compared with the exact p3 in rationals
        rng = random.Random(11)
        points = [(1e5, 20000), (-0.9999999999998074, 1)]
        for _ in range(300):
            alpha = rng.choice([-1 + 10 ** rng.uniform(-15, 0), 10 ** rng.uniform(-3, 6)])
            points.append((alpha, round(10 ** rng.uniform(0, math.log10(20000)))))
        for alpha, n in points:
            upper = largest_root_bounds(*reciprocal_b123(alpha, n), n)[2].upper
            assert F(upper) ** 3 >= power_sums(*reciprocal_b123(F(alpha), n)).p3, (alpha, n)


class TestOverflow:
    """Past the binary64 range of b1..b3 or p2, p3 every bound raises
    OverflowError; it printed complex numbers, zeros or inverted pairs."""

    @pytest.mark.parametrize("alpha, n", [(1.6e61, 3), (1e62, 5), (1e100, 5), (1e160, 5),
                                          (3e102, 2), (1.7e308, 1), (1.7e308, 40)])
    def test_reciprocal_b123_raises(self, alpha, n):
        with pytest.raises(OverflowError):
            reciprocal_b123(alpha, n)

    def test_reciprocal_b123_checks_only_the_coefficients_of_degree_n(self):
        # b3 vanishes for n <= 2 and b2 for n = 1: their overflow is not checked
        assert reciprocal_b123(1e62, 2)[2] == 0.0
        assert reciprocal_b123(1e200, 1)[0] == pytest.approx(1e-200, rel=1e-15)
        assert reciprocal_b123(F(10**100), 5)[2] > 0  # exact: nothing overflows

    @pytest.mark.parametrize("b1", [1e-155, 1e-105, math.inf])
    def test_largest_root_bounds_raises_on_power_sums_out_of_range(self, b1):
        # n = 1: p2 = b1^2 and p3 = b1^3 fall below the normal range or overflow
        with pytest.raises(OverflowError):
            largest_root_bounds(b1, 0.0, 0.0, 1)

    def test_dorfler_raises(self):
        with pytest.raises(OverflowError):
            dorfler_bounds(1.7e308, 5)

    def test_laguerre_samuelson_rejects_a_nan_discriminant(self):
        with pytest.raises(ValueError, match="discriminant"):
            laguerre_samuelson(math.inf, math.inf, 3)

    @pytest.mark.parametrize("alpha, n", [(1e62, 3), (1e62, 5), (1e103, 2), (1e106, 1)])
    def test_bounds_report_raises(self, alpha, n):
        with pytest.raises(OverflowError):
            bounds_report(alpha, n)
