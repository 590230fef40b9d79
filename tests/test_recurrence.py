import math
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markov_laguerre import (
    RATIONAL,
    asymptotic_bounds,
    asymptotic_constant,
    bessel_j,
    bessel_zero_enclosure,
    bounds_report,
    build_jacobi,
    coeff_a0,
    coeff_a1,
    coeff_a2,
    coeff_a3,
    dorfler_bounds,
    first_zero,
    laguerre_samuelson,
    largest_eigenvalue,
    largest_root_bounds,
    markov_constant,
    recurrence_coeffs,
    reciprocal_b123,
    refined_bounds,
    residual_sandwich_check,
    smallest_eigenvalue,
    sturm_count,
    turan_constant,
)
from markov_laguerre.recurrence import _scaled_rows, alpha_value, qn_coefficient_rows

RATIONAL_ALPHAS = (F(-1, 2), F(-1, 4), F(0), F(1, 3), F(1), F(5, 2), F(10))


def last_row(alpha, n):
    """The coefficient row of Q_n, the last of ``qn_coefficient_rows``."""
    *_, row = qn_coefficient_rows(alpha, n, RATIONAL)
    return row


class TestWeightAlpha:
    """``alpha_value``, the one validator of the weight's exponent."""

    @pytest.mark.parametrize("bad", [-1, -1.0, -1.5, F(-3, 2), float("nan"), float("inf"), float("-inf")])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            alpha_value(bad)

    def test_rejects_non_numbers(self):
        with pytest.raises(TypeError):
            alpha_value("0.5")

    @pytest.mark.parametrize("bad", [-1.0, -1.5, float("nan"), float("inf"), float("-inf")])
    def test_alpha_value_rejects_out_of_range_floats(self, bad):
        with pytest.raises(ValueError):
            alpha_value(bad)

    def test_alpha_value_validates_bools_and_float_subclasses(self):
        class Real(float):
            pass

        with pytest.raises(TypeError):
            alpha_value(True)
        with pytest.raises(ValueError):
            alpha_value(Real("nan"))
        assert alpha_value(0.25) == 0.25 and alpha_value(Real(0.25)) == 0.25

    def test_int_becomes_exact(self):
        assert alpha_value(2) == F(2)
        assert isinstance(alpha_value(2), F)
        assert not isinstance(alpha_value(2.0), F)

    def test_exact_alpha_past_binary64(self):
        # An exact alpha never becomes a float: its finiteness check raised
        # OverflowError converting 10**400.
        alpha = F(10**400)
        assert alpha_value(alpha) == alpha
        assert alpha_value(10**400) == alpha
        assert last_row(alpha, 2) == (coeff_a0(alpha, 2), coeff_a1(alpha, 2), 1)
        assert last_row(alpha, 2)[0] == (1 + alpha) * (1 + alpha / 2)

    @pytest.mark.parametrize("call", [
        lambda a: markov_constant(a, 3),
        lambda a: refined_bounds(a, 3),
        lambda a: asymptotic_constant(a),
    ], ids=["markov_constant", "refined_bounds", "asymptotic_constant"])
    def test_float_paths_name_the_binary64_range(self, call):
        # Each float path rounds alpha once, and an exact alpha past the
        # range says so; float() raised "integer division result too large
        # for a float".
        with pytest.raises(OverflowError, match="past the binary64 range"):
            call(F(10**400))

    @pytest.mark.parametrize("call", [
        lambda a: markov_constant(a, 5),
        lambda a: markov_constant(a, 1),
        lambda a: smallest_eigenvalue(build_jacobi(a, 3)),
        lambda a: largest_eigenvalue(build_jacobi(a, 3)),
        lambda a: refined_bounds(a, 5),
        lambda a: dorfler_bounds(a, 5),
        lambda a: bounds_report(a, 5),
        lambda a: asymptotic_constant(a),
        lambda a: asymptotic_bounds(a),
    ], ids=["markov_constant", "markov_constant_n1", "smallest_eigenvalue",
            "largest_eigenvalue", "refined_bounds", "dorfler_bounds", "bounds_report",
            "asymptotic_constant", "asymptotic_bounds"])
    @pytest.mark.parametrize("alpha", [F(-1) + F(1, 10**20), F(-1) + F(1, 2**54)],
                             ids=["1e-20", "2^-54"])
    def test_float_paths_refuse_an_alpha_that_rounds_to_minus_one(self, call, alpha):
        # binary64 cannot tell such an alpha from -1: the float paths raised
        # ZeroDivisionError, "math domain error" or a false overflow.
        with pytest.raises(OverflowError, match="within 2\\^-54 of -1"):
            call(alpha)

    def test_exact_paths_keep_an_alpha_that_rounds_to_minus_one(self):
        alpha = F(-1) + F(1, 10**20)
        assert float(alpha) == -1.0
        assert coeff_a0(alpha, 2) == (1 + alpha) * (1 + alpha / 2)
        assert last_row(alpha, 2)[0] == coeff_a0(alpha, 2)
        b1, _, _ = reciprocal_b123(alpha, 2)
        assert b1 == -coeff_a1(alpha, 2) / coeff_a0(alpha, 2)
        lower, upper = residual_sandwich_check(alpha, 3)
        assert isinstance(lower, F) and lower > 0 and upper > 0
        # the next float above -1 is exact and stays on the float paths
        assert markov_constant(F(-1) + F(1, 2**53), 1) == math.sqrt(2.0**53)


class TestRecurrenceCoeffs:
    def test_alpha0_n3(self):
        rc = recurrence_coeffs(F(0), 3)
        assert rc.d == (1, 2, 2)
        assert rc.lambda_sq == (1, 1)

    def test_alpha1_n2(self):
        rc = recurrence_coeffs(F(1), 2)
        assert rc.d == (2, F(5, 2))
        assert rc.lambda_sq == (2,)

    def test_alpha_minus_half_n2(self):
        rc = recurrence_coeffs(F(-1, 2), 2)
        assert rc.d == (F(1, 2), F(7, 4))
        assert rc.lambda_sq == (F(1, 2),)

    def test_rejects_n0(self):
        with pytest.raises(ValueError):
            recurrence_coeffs(0.0, 0)

    @pytest.mark.parametrize("alpha", RATIONAL_ALPHAS)
    def test_invariants(self, alpha):
        rc = recurrence_coeffs(alpha, 12)
        assert rc.d[0] == 1 + alpha
        assert all(rc.d[k] == 2 + alpha / (k + 1) for k in range(1, 12))
        assert all(rc.lambda_sq[k - 1] == 1 + alpha / k for k in range(1, 12))
        assert all(ls > 0 for ls in rc.lambda_sq)


class TestQnCoefficients:
    def test_degree_zero(self):
        assert last_row(F(1, 3), 0) == (1,)

    @pytest.mark.parametrize("alpha", RATIONAL_ALPHAS)
    def test_degree_one(self, alpha):
        assert last_row(alpha, 1) == (-alpha - 1, 1)

    def test_alpha0_n2(self):
        # hand-expanded: (x - 2)(x - 1) - 1 = x^2 - 3x + 1
        assert last_row(F(0), 2) == (1, -3, 1)

    def test_rational_mode_needs_exact_alpha(self):
        with pytest.raises(ValueError):
            last_row(0.5, 3)

    def test_unknown_mode(self):
        # "float" named the binary64 triangle, which is gone
        for mode in ("decimal", "float"):
            with pytest.raises(ValueError, match="unknown mode"):
                next(qn_coefficient_rows(F(1, 2), 3, mode))

    @pytest.mark.parametrize("alpha", RATIONAL_ALPHAS)
    def test_monic_both_modes(self, alpha):
        assert last_row(alpha, 17)[-1] == 1

    @pytest.mark.parametrize("alpha", RATIONAL_ALPHAS)
    def test_closed_forms_match_triangle_exactly(self, alpha):
        for n, row in enumerate(qn_coefficient_rows(alpha, 25, RATIONAL)):
            expected = (
                coeff_a0(alpha, n),
                coeff_a1(alpha, n),
                coeff_a2(alpha, n),
                coeff_a3(alpha, n),
            )
            for k in range(min(3, n) + 1):
                assert row[k] == expected[k], (alpha, n, k)


class TestClosedForms:
    def test_a0_examples(self):
        assert coeff_a0(F(0), 5) == -1
        assert coeff_a0(F(1), 2) == 3
        assert coeff_a0(F(1, 2), 1) == F(-3, 2)

    def test_a0_empty_product(self):
        assert coeff_a0(F(7), 0) == 1

    @pytest.mark.parametrize("alpha", RATIONAL_ALPHAS)
    def test_a0_sign_and_step(self, alpha):
        prev = coeff_a0(alpha, 0)
        for n in range(1, 40):
            cur = coeff_a0(alpha, n)
            assert (cur > 0) == (n % 2 == 0)
            assert cur == -(1 + alpha / n) * prev
            prev = cur

    @pytest.mark.parametrize("alpha", RATIONAL_ALPHAS)
    def test_a1_at_n1_is_monic_seed(self, alpha):
        assert coeff_a1(alpha, 1) == 1

    @pytest.mark.parametrize("alpha", RATIONAL_ALPHAS)
    def test_a2_at_n2_is_one(self, alpha):
        assert coeff_a2(alpha, 2) == 1

    def test_a3_example(self):
        assert coeff_a3(F(0), 4) == -7
        assert last_row(F(0), 4)[3] == -7

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_a3_vanishes_below_degree_three(self, n):
        assert coeff_a3(F(5, 2), n) == 0


class TestReciprocal:
    @pytest.mark.parametrize("alpha", RATIONAL_ALPHAS)
    def test_n1(self, alpha):
        b1, b2, b3 = reciprocal_b123(alpha, 1)
        assert b1 == 1 / (alpha + 1)
        assert b2 == 0
        assert b3 == 0

    @pytest.mark.parametrize("alpha", RATIONAL_ALPHAS)
    def test_n2(self, alpha):
        b1, b2, b3 = reciprocal_b123(alpha, 2)
        assert b2 == coeff_a2(alpha, 2) / coeff_a0(alpha, 2)
        assert b3 == 0

    @pytest.mark.parametrize("alpha", [1e100, 1e200, 1e300])
    def test_zeros_below_degree_stay_zero_at_large_alpha(self, alpha):
        # b2 vanishes for n <= 1 and b3 for n <= 2; the formulas gave
        # (n - 2) * inf = nan for b3 at n = 1 past alpha ~ 1e154
        assert reciprocal_b123(alpha, 1) == (2 / (2 * (alpha + 1)), 0.0, 0.0)
        assert coeff_a3(alpha, 1) == 0.0
        assert coeff_a2(alpha, 1) == 0.0
        if alpha < 1e150:
            assert reciprocal_b123(alpha, 2)[2] == 0.0

    def test_alpha0_n3(self):
        assert reciprocal_b123(F(0), 3) == (6, 5, 1)

    @pytest.mark.parametrize("alpha", RATIONAL_ALPHAS)
    @pytest.mark.parametrize("n", [3, 5, 11, 24])
    def test_matches_triangle_ratios(self, alpha, n):
        coeffs = last_row(alpha, n)
        b1, b2, b3 = reciprocal_b123(alpha, n)
        assert b1 == -coeffs[1] / coeffs[0]
        assert b2 == coeffs[2] / coeffs[0]
        assert b3 == -coeffs[3] / coeffs[0]
        assert b1 > 0 and b2 > 0 and b3 > 0


class TestCoefficientOverflow:
    """At a float alpha, coeff_a0..coeff_a3 raise OverflowError where the
    value would be infinite; they returned +-inf."""

    @pytest.mark.parametrize("fn, alpha, n, name", [
        (coeff_a0, 1e200, 2, "coeff_a0"),
        (coeff_a0, 1e300, 3, "coeff_a0"),
        # b1..b3 stay normal here; a0 overflows first
        (coeff_a0, 1e60, 6, "coeff_a0"),
        (coeff_a1, 1e60, 6, "coeff_a0"),
        (coeff_a2, 1e60, 6, "coeff_a0"),
        (coeff_a3, 1e60, 6, "coeff_a0"),
        # a0 and a2 stay finite here; only b3 * a0 overflows
        (coeff_a3, 300.0, 966, "coeff_a3"),
    ])
    def test_float_overflow_raises(self, fn, alpha, n, name):
        with pytest.raises(OverflowError,
                           match=re.escape(f"{name} at alpha={alpha}, n={n} overflows binary64")):
            fn(alpha, n)

    def test_finite_neighbours_are_returned(self):
        for alpha, n in [(1e60, 6), (300.0, 966)]:
            assert all(math.isfinite(b) and b > 0 for b in reciprocal_b123(alpha, n))
        assert math.isfinite(coeff_a2(300.0, 966)) and math.isfinite(coeff_a0(1e60, 5))

    def test_exact_paths_stay_exact(self):
        alpha = F(10**60)
        a0 = coeff_a0(alpha, 6)
        assert a0 == math.prod(1 + alpha / k for k in range(1, 7))
        coeffs = (a0, coeff_a1(alpha, 6), coeff_a2(alpha, 6), coeff_a3(alpha, 6))
        assert coeffs == last_row(alpha, 6)[:4]
        a3 = coeff_a3(F(300), 966)
        assert isinstance(a3, F) and a3 == -reciprocal_b123(F(300), 966)[2] * coeff_a0(F(300), 966)


class TestNegativeDegree:
    @pytest.mark.parametrize("alpha", [0.5, F(1, 2)])
    @pytest.mark.parametrize("fn", [coeff_a0, coeff_a1, coeff_a2, coeff_a3, reciprocal_b123])
    def test_raises(self, fn, alpha):
        # coeff_a0(F(1, 2), -2) was 1 and reciprocal_b123(0.5, -3) was (2.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="n must be >= 0"):
            fn(alpha, -2)

    @pytest.mark.parametrize("alpha", [0.5, F(1, 2)])
    def test_degree_zero_stays_valid(self, alpha):
        assert coeff_a0(alpha, 0) == 1
        assert reciprocal_b123(alpha, 0) == (0, 0, 0)

    def test_rational_coefficients_raise(self):
        with pytest.raises(ValueError):
            next(qn_coefficient_rows(F(1, 2), -1, RATIONAL))


# Every public function that takes a degree n, called at n; the b's are
# those of Q_3 at alpha = 1.
DEGREE_CALLS = {
    "recurrence_coeffs": lambda n: recurrence_coeffs(1, n),
    "qn_coefficient_rows": lambda n: list(qn_coefficient_rows(1, n)),
    "coeff_a0": lambda n: coeff_a0(1, n),
    "coeff_a1": lambda n: coeff_a1(1, n),
    "coeff_a2": lambda n: coeff_a2(1, n),
    "coeff_a3": lambda n: coeff_a3(1, n),
    "reciprocal_b123": lambda n: reciprocal_b123(1, n),
    "build_jacobi": lambda n: build_jacobi(0.0, n),
    "markov_constant": lambda n: markov_constant(0.0, n),
    "largest_root_bounds": lambda n: largest_root_bounds(*reciprocal_b123(1.0, 3), n),
    "laguerre_samuelson": lambda n: laguerre_samuelson(*reciprocal_b123(1.0, 3)[:2], n),
    "refined_bounds": lambda n: refined_bounds(1.0, n),
    "dorfler_bounds": lambda n: dorfler_bounds(1.0, n),
    "turan_constant": turan_constant,
    "residual_sandwich_check": lambda n: residual_sandwich_check(1, n),
    "bounds_report": lambda n: bounds_report(0.0, n),
}

# Every public real argument that is not alpha, called at x.
REAL_CALLS = {
    "sturm_count": lambda x: sturm_count(build_jacobi(0.0, 3), x),
    "first_zero": first_zero,
    "bessel_zero_enclosure": bessel_zero_enclosure,
    "bessel_j_nu": lambda x: bessel_j(x, 1.0),
    "bessel_j_x": lambda x: bessel_j(0.5, x),
    "largest_root_bounds_b1": lambda x: largest_root_bounds(x, 0.0, 0.0, 1),
    "largest_root_bounds_b2": lambda x: largest_root_bounds(3.0, x, 0.0, 2),
    "largest_root_bounds_b3": lambda x: largest_root_bounds(3.0, 1.0, x, 2),
    "laguerre_samuelson_b1": lambda x: laguerre_samuelson(x, 0.0, 2),
    "laguerre_samuelson_b2": lambda x: laguerre_samuelson(3.0, x, 2),
}


class TestArgumentTypes:
    """A degree must be an int and a real argument a number, as alpha must
    (``alpha_value``): a bool, a float degree or a string is refused with
    TypeError, not coerced.  markov_constant(0.0, True) was c_1,
    dorfler_bounds(1.0, 2.5) a pair, first_zero(True) j_{1,1} and
    largest_root_bounds('2', '1', True, 3) a cubic pair with its lower end
    above its upper."""

    @pytest.mark.parametrize("call", DEGREE_CALLS.values(), ids=DEGREE_CALLS.keys())
    @pytest.mark.parametrize("n", [True, False, 3.0, 2.5, F(3)], ids=repr)
    def test_degrees_must_be_ints(self, call, n):
        call(3)
        with pytest.raises(TypeError):
            call(n)

    @pytest.mark.parametrize("call", REAL_CALLS.values(), ids=REAL_CALLS.keys())
    @pytest.mark.parametrize("x", [True, "0.5", b"0.5"], ids=repr)
    def test_real_arguments_must_be_numbers(self, call, x):
        call(0.5)
        with pytest.raises(TypeError):
            call(x)


def fraction_rows(a, n_max):
    """Oracle: the coefficient rows of Q_0 .. Q_{n_max}, low degree first,
    by the three-term recurrence in plain Fraction arithmetic."""
    rows, prev = [(F(1),)], ()
    for m in range(n_max):
        cur = rows[-1]
        shift = 1 + a if m == 0 else 2 + a / (m + 1)
        couple = 1 + a / m if m else 0
        rows.append(tuple(x - shift * c - couple * q
                          for x, c, q in zip((0,) + cur, cur + (0,), prev + (0, 0))))
        prev = cur
    return rows


@st.composite
def exact_alphas(draw):
    """p/d > -1 with d up to 1e6 and p/d up to 1000."""
    d = draw(st.integers(1, 10**6))
    return F(draw(st.integers(1 - d, 1000 * d)), d)


class TestFractionOracle:
    def check(self, alpha, n):
        want = fraction_rows(alpha, n)
        assert list(qn_coefficient_rows(alpha, n, RATIONAL)) == want
        p, d = alpha.numerator, alpha.denominator
        for m, (row, scale) in enumerate(_scaled_rows(p, d, n)):
            assert scale == d**m * math.factorial(m)
            assert all(isinstance(c, int) for c in row)
            assert tuple(F(c, scale) for c in row) == want[m]
        row = want[-1]
        assert last_row(alpha, n) == row
        assert coeff_a0(alpha, n) == row[0]
        b = tuple((-1) ** k * row[k] / row[0] if k <= n else 0 for k in (1, 2, 3))
        assert reciprocal_b123(alpha, n) == b
        assert all(isinstance(x, F) for x in reciprocal_b123(alpha, n))

    @settings(max_examples=40, deadline=None)
    @given(alpha=exact_alphas(), n=st.integers(0, 40))
    def test_integer_rows_and_closed_forms(self, alpha, n):
        self.check(alpha, n)

    @pytest.mark.parametrize("alpha", [F(10**400, 3), F(-10**400 + 1, 10**400)])
    def test_past_binary64(self, alpha):
        self.check(alpha, 12)
