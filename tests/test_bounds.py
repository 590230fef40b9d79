import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markov_laguerre import (
    bounds_report,
    build_jacobi,
    asymptotic_bounds,
    bessel_zero_enclosure,
    dorfler_bounds,
    exact_c1_sq,
    exact_c2_sq,
    identity_residuals,
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
    lower_residual_poly,
    upper_residual_poly,
)
from markov_laguerre.recurrence import (
    RATIONAL,
    _refined_lower,
    coeff_a0,
    coeff_a1,
    coeff_a2,
    coeff_a3,
    qn_coefficients,
)

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


class TestIdentityResiduals:
    def test_values_at_zero(self):
        idr = identity_residuals(F(0))
        assert idr.lower_gap[4] == F(28, 3)
        assert idr.upper_gap[0] == F(64, 125)
        assert idr.upper_gap[5] == F(48, 5)

    def test_nu_tilde_chain_definition(self):
        idr = identity_residuals(F(1))
        nt1, nt2, nt3 = idr.upper_gap_collapsed
        assert nt3 == 4 * idr.upper_gap[5] + 2 * idr.upper_gap[4] + idr.upper_gap[3]
        assert nt2 == 2 * nt3 + idr.upper_gap[2]
        assert nt1 == 2 * nt2 + idr.upper_gap[1]

    @pytest.mark.parametrize("a", [F(0), F(1), F(-1, 2), F(5, 2), F(25)])
    def test_nu_tilde_closed_forms(self, a):
        nt1, nt2, nt3 = identity_residuals(a).upper_gap_collapsed
        assert nt3 == (8 * a**4 + 239 * a**3 + 2368 * a**2 + 9226 * a + 12564) / F(125)
        assert nt2 == (32 * a**4 + 655 * a**3 + 4920 * a**2 + 16595 * a + 20668) / F(100)
        # a naive closed form for nt1 that drops the (1+a) factor of nu[1]
        # agrees only at a = 0; the chain value is the correct one
        naive = (160 * a**4 + 3323 * a**3 + 25056 * a**2 + 84292 * a + 103184) / F(250)
        assert nt1 == naive + 3 * a * (16 * a**3 + 152 * a**2 + 439 * a - 52) / F(250)

    @pytest.mark.parametrize("alpha", [-0.99, -0.5, 0.0, 3.7, 50.0, 250.0, 500.0])
    def test_positivity(self, alpha):
        idr = identity_residuals(alpha)
        assert all(k > 0 for k in idr.lower_gap)
        assert all(t > 0 for t in idr.upper_gap_collapsed)

    def test_nu_low_orders_can_go_negative(self):
        nu = identity_residuals(-0.9).upper_gap
        assert min(nu[1:4]) < 0 < nu[0]


class TestResidualPolys:
    @pytest.mark.parametrize("a", [F(0), F(1, 2), F(-9, 10), F(25), F(7, 3)])
    def test_exact_match_with_coefficient_lists(self, a):
        idr = identity_residuals(a)
        lp = lower_residual_poly(a)
        up = upper_residual_poly(a)
        assert lp[0] == 0 and lp[6] == 0
        assert lp[1:6] == idr.lower_gap
        assert up[6] == 0
        assert up[:6] == idr.upper_gap

    def test_float_alpha_is_close(self):
        lp = lower_residual_poly(0.5)
        want = identity_residuals(F(1, 2)).lower_gap
        for got, exact in zip(lp[1:6], want):
            assert got == pytest.approx(float(exact), rel=1e-12)

    def test_wrong_normalization_leaves_degree_six(self):
        # dividing the lower bound by (a+3)(a+5) instead of (a+1)(a+5)
        # fails to cancel the n^6 term, so the printed degree-5 lists can
        # only belong to the (a+1)(a+5) normalization
        a = F(1)

        def wrong_gap(n):
            _, p2, p3 = power_sums(*reciprocal_b123(a, n))
            return p3 - _refined_lower(a, n) * (a + 1) / (a + 3) * p2

        wrong = _coefficients_from_values([wrong_gap(n) for n in range(7)])
        assert wrong[6] != 0
        assert lower_residual_poly(a)[6] == 0

    @settings(max_examples=40, deadline=None)
    @given(
        a=st.fractions(min_value=F(-999, 1000), max_value=50, max_denominator=1000),
        n=st.integers(min_value=0, max_value=40),
    )
    def test_single_sources_agree_with_exact_arithmetic(self, a, n):
        # the exact recurrence row against coeff_a0..a3, which derive from
        # reciprocal_b123, and the residual polynomials at n against the
        # scaled residual_sandwich_check they are recovered from
        row = qn_coefficients(a, n, RATIONAL).coeffs
        closed = (coeff_a0(a, n), coeff_a1(a, n), coeff_a2(a, n), coeff_a3(a, n))
        for k in range(min(3, n) + 1):
            assert row[k] == closed[k]
        lr, ur = residual_sandwich_check(a, n)
        scale_up = (a + 1) ** 2 * (a + 2) * (a + 3) * (a + 4) * (a + 5)
        at_n = lambda coeffs: sum(c * n**j for j, c in enumerate(coeffs))
        assert at_n(lower_residual_poly(a)) == lr * (a + 1) * scale_up
        assert at_n(upper_residual_poly(a)) == ur * scale_up

    @pytest.mark.parametrize("a", [F(0), F(1, 2), F(2)])
    @pytest.mark.parametrize("n", [3, 4, 10, 57])
    def test_poly_evaluation_matches_direct_residuals(self, a, n):
        lr, ur = residual_sandwich_check(a, n)
        lp = lower_residual_poly(a)
        up = upper_residual_poly(a)
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
        assert rep.refined.lower < rep.exact_c_sq < rep.refined.upper
        assert rep.dorfler.lower < rep.exact_c_sq <= rep.dorfler.upper
        assert rep.turan == pytest.approx(turan_constant(3))

    def test_turan_absent_off_alpha0(self):
        assert bounds_report(1.0, 3).turan is None

    @pytest.mark.parametrize("alpha", [-0.9, 0.5, 5.0])
    def test_power_sum_chain(self, alpha):
        for n in (3, 10, 41):
            rep = bounds_report(alpha, n)
            x_n = rep.exact_c_sq
            assert rep.linear.lower < rep.quadratic.lower < rep.cubic.lower < x_n
            assert x_n < rep.cubic.upper < rep.quadratic.upper < rep.linear.upper
