import math
import random
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markov_laguerre import (
    RATIONAL,
    build_jacobi,
    largest_eigenvalue,
    markov_constant,
    recurrence_coeffs,
    refined_bounds,
    smallest_eigenvalue,
    sturm_count,
    turan_constant,
)
from markov_laguerre import eigen
from markov_laguerre.bessel import _bessel_zero_bounds, _order, _zero_eigenvalue, first_zero
from markov_laguerre.eigen import (
    _START_MIN_N,
    _count,
    _count_e,
    _laguerre_pass,
    _laguerre_pass_e,
    _laguerre_step,
    _largest,
    _lower_bound,
    _newton_pass,
    _smallest,
    _solve,
    _start,
)
from markov_laguerre.recurrence import _refined_upper, qn_coefficient_rows


def zero_eigenvalue(nu, tol):
    """The eigenvalue 4/j_{nu,1}^2 that ``first_zero`` solves, as a result."""
    h = nu + 1.0
    enclosure = _bessel_zero_bounds(h)
    return _zero_eigenvalue(h, _order(h, enclosure[1], tol), enclosure, tol)


def dense(T):
    """T_n = B B^T as a dense matrix, B lower bidiagonal with squared
    diagonal T.q and unit subdiagonal."""
    B = np.diag(np.sqrt(T.q)) + np.diag(np.ones(len(T.q) - 1), -1)
    return B @ B.T


def norm_bracket(T):
    """(0, (1 + sqrt(max q))^2]: every eigenvalue is positive and ||B|| is at
    most max sqrt(q_k) plus the norm 1 of the unit subdiagonal."""
    return 0.0, (1.0 + math.sqrt(max(T.q))) ** 2


class TestBuildJacobi:
    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.0, 7.25])
    def test_order_one(self, alpha):
        T = build_jacobi(alpha, 1)
        assert T.q == (1 + alpha,)
        assert dense(T) == pytest.approx(np.array([[1 + alpha]]), rel=1e-15)

    def test_alpha0_n2(self):
        assert dense(build_jacobi(0.0, 2)).tolist() == [[1.0, 1.0], [1.0, 2.0]]

    def test_alpha2_n2(self):
        T = build_jacobi(2.0, 2)
        assert T.q == (3.0, 2.0)
        assert dense(T) == pytest.approx(np.array([[3.0, math.sqrt(3.0)], [math.sqrt(3.0), 3.0]]),
                                         rel=1e-15)

    @pytest.mark.parametrize("alpha", [-0.9, 0.0, 2.5, 40.0])
    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_dense_matrix_has_the_recurrence_entries(self, alpha, n):
        rc = recurrence_coeffs(alpha, n)
        A = dense(build_jacobi(alpha, n))
        assert np.diag(A) == pytest.approx(rc.d, rel=1e-15)
        assert np.diag(A, -1) ** 2 == pytest.approx(rc.lambda_sq, rel=1e-15)
        assert A == pytest.approx(A.T, rel=1e-15)
        assert not np.triu(A, 2).any() and not np.tril(A, -2).any()

    def test_entries_read_only(self):
        T = build_jacobi(1.0, 4)
        with pytest.raises(TypeError):
            T.q[0] = 0.0

    @staticmethod
    def assert_rounded_once(alpha, n):
        a = F(alpha)
        assert build_jacobi(alpha, n).q == tuple(float(1 + a / k) for k in range(1, n + 1))

    @pytest.mark.parametrize("alpha", [0, 1, 2, 3, 50, 10**6, 2**53 + 1, 10**300])
    def test_int_alpha_rounds_each_q_once(self, alpha):
        self.assert_rounded_once(alpha, 300)

    @pytest.mark.parametrize("alpha", [F(7, 1000003), F(-999999, 1000000), F(10**20 + 1, 3)])
    def test_fraction_alpha_rounds_each_q_once(self, alpha):
        self.assert_rounded_once(alpha, 300)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 10**30).flatmap(
        lambda d: st.tuples(st.integers(1 - d, 10**40), st.just(d))), st.integers(1, 80))
    def test_any_exact_alpha_rounds_each_q_once(self, pd, n):
        self.assert_rounded_once(F(*pd), n)

    @pytest.mark.parametrize("n", [1, 2, 50, 400])
    def test_int_zero_is_fraction_zero(self, n):
        assert markov_constant(0, n) == markov_constant(F(0), n)

    @pytest.mark.parametrize("alpha", [F(0), F(1, 2), F(5, 2)])
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_characteristic_polynomial_is_qn(self, alpha, n):
        # np.poly goes through LAPACK eigenvalues, an independent route.
        T = build_jacobi(alpha, n)
        char = np.poly(dense(T))[::-1]
        *_, coeffs = qn_coefficient_rows(alpha, n, RATIONAL)
        coeffs = [float(c) for c in coeffs]
        assert char == pytest.approx(coeffs, rel=1e-9, abs=1e-9)


class TestSturmCount:
    def test_alpha0_n2_examples(self):
        T = build_jacobi(0.0, 2)
        assert sturm_count(T, 0.0) == 0
        assert sturm_count(T, 3.0) == 2
        assert sturm_count(T, 1.0) == 1

    def test_zero_pivot_at_exact_diagonal(self):
        # sigma = 1 makes the first pivot vanish; the perturbation policy
        # keeps the count total and correct.
        T = build_jacobi(0.0, 3)
        assert sturm_count(T, 1.0) == 1

    @pytest.mark.parametrize("alpha", [-0.9, 0.0, 2.5, 10.0])
    @pytest.mark.parametrize("n", [1, 2, 5, 20])
    def test_monotone_and_saturating(self, alpha, n):
        T = build_jacobi(alpha, n)
        lo, hi = norm_bracket(T)
        sigmas = np.linspace(lo, hi + 1e-9, 37)
        counts = [sturm_count(T, s) for s in sigmas]
        assert counts == sorted(counts)
        assert counts[0] == 0
        assert sturm_count(T, hi * (1 + 1e-12) + 1e-12) == n


def mp_smallest(alpha, n):
    """Smallest eigenvalue of the dense T_n, by mpmath at 50 digits."""
    with mpmath.workdps(50):
        a = mpmath.mpf(alpha)
        A = mpmath.zeros(n, n)
        for k in range(n):
            A[k, k] = 1 + a if k == 0 else 2 + a / (k + 1)
            if k:
                A[k, k - 1] = A[k - 1, k] = mpmath.sqrt(1 + a / k)
        return min(mpmath.eigsy(A, eigvals_only=True))


def bisect_kth(T, k, tol=1e-13):
    """Test-local bisection on the public sturm_count, for the k-th smallest
    eigenvalue (1-based)."""
    lo, hi = norm_bracket(T)
    hi *= 1 + 1e-14
    hi += 1e-14
    for _ in range(200):
        if hi - lo <= tol * max(1.0, 0.5 * abs(lo + hi)):
            break
        mid = 0.5 * (lo + hi)
        if sturm_count(T, mid) >= k:
            hi = mid
        else:
            lo = mid
    return lo, hi


def eval_exact(coeffs, x: F) -> F:
    out = F(0)
    for c in reversed(coeffs):
        out = out * x + c
    return out


def exact_zeros_below(alpha, n, x: F) -> int:
    """Zeros of Q_n below x, for x not a zero: n less the sign changes of
    the exact Sturm sequence Q_0(x), ..., Q_n(x), zero entries dropped."""
    rc = recurrence_coeffs(alpha, n)
    seq = [F(1), x - rc.d[0]]
    for k in range(1, n):
        seq.append((x - rc.d[k]) * seq[-1] - rc.lambda_sq[k - 1] * seq[-2])
    assert seq[n] != 0
    signs = [v > 0 for v in seq if v != 0]
    return n - sum(a != b for a, b in zip(signs, signs[1:]))


class TestEigenvalues:
    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 4.0])
    def test_order_one_exact(self, alpha):
        T = build_jacobi(alpha, 1)
        assert smallest_eigenvalue(T).value == 1 + alpha
        assert largest_eigenvalue(T).value == pytest.approx(1 + alpha, rel=1e-13)

    def test_alpha0_n2_closed_form(self):
        T = build_jacobi(0.0, 2)
        assert smallest_eigenvalue(T).value == pytest.approx((3 - math.sqrt(5)) / 2, rel=1e-12)
        assert largest_eigenvalue(T).value == pytest.approx((3 + math.sqrt(5)) / 2, rel=1e-12)

    def test_alpha0_n10_turan(self):
        value = smallest_eigenvalue(build_jacobi(0.0, 10), 1e-14).value
        assert value == pytest.approx(4 * math.sin(math.pi / 42) ** 2, rel=1e-11)

    def test_largest_alpha0_n3_vs_cubic_roots(self):
        # independent oracle: numpy companion-matrix roots of the exact cubic
        *_, coeffs = qn_coefficient_rows(F(0), 3, RATIONAL)
        roots = np.roots([float(c) for c in coeffs[::-1]])
        got = largest_eigenvalue(build_jacobi(0.0, 3)).value
        assert got == pytest.approx(max(roots.real), rel=1e-12)

    def test_bracket_certifies_value(self):
        res = smallest_eigenvalue(build_jacobi(1.5, 40), 1e-13)
        lo, hi = res.bracket
        assert lo <= res.value <= hi
        assert hi - lo <= res.tol * max(1.0, abs(res.value))
        assert res.value > 0

    @pytest.mark.parametrize("alpha", [-0.99, -0.5, 0.0, 3.0, 25.0])
    def test_positivity(self, alpha):
        for n in (1, 2, 7, 31):
            assert smallest_eigenvalue(build_jacobi(alpha, n)).value > 0

    @pytest.mark.parametrize("alpha", [F(0), F(1, 2), F(5, 2)])
    @pytest.mark.parametrize("n", [2, 5, 9, 12])
    def test_every_eigenvalue_matches_a_rational_root(self, alpha, n):
        tol = 1e-13
        T = build_jacobi(alpha, n)
        *_, coeffs = qn_coefficient_rows(alpha, n, RATIONAL)
        for k in range(1, n + 1):
            lo, hi = bisect_kth(T, k, tol)
            assert hi - lo <= 10 * tol * max(1.0, abs(hi))
            sign_lo = eval_exact(coeffs, F(lo))
            sign_hi = eval_exact(coeffs, F(hi))
            assert sign_lo * sign_hi <= 0, (alpha, n, k)

    def test_unreachable_tolerance_raises(self):
        with pytest.raises(RuntimeError):
            smallest_eigenvalue(build_jacobi(0.0, 2), 1e-30)

    @pytest.mark.parametrize("tol", [0.0, -1e-13])
    def test_non_positive_tolerance_raises(self, tol):
        with pytest.raises(ValueError):
            smallest_eigenvalue(build_jacobi(0.0, 5), tol)
        with pytest.raises(ValueError):
            largest_eigenvalue(build_jacobi(0.0, 5), tol)

    # An infinite tol once returned c_10(0) = 1.399 (it is 6.691) and
    # first_zero(0.5) = 3.185 (it is pi).
    @pytest.mark.parametrize("tol", [math.nan, math.inf, 1.0, 2.0])
    def test_unusable_tolerance_raises(self, tol):
        for solve in (smallest_eigenvalue, largest_eigenvalue):
            with pytest.raises(ValueError, match="tol"):
                solve(build_jacobi(0.0, 10), tol)
        with pytest.raises(ValueError, match="tol"):
            markov_constant(0.0, 10, tol)
        with pytest.raises(ValueError, match="tol"):
            first_zero(0.5, tol)


class TestKernel:
    """The qd/Laguerre solver: relative accuracy at every n, a bracket that
    the exact polynomial confirms, and a pass count bounded at large alpha."""

    @pytest.mark.parametrize("n", [200, 1000, 4096, 20000])
    def test_turan_relative_error_does_not_decay_with_n(self, n):
        got = markov_constant(0.0, n)
        want = turan_constant(n)
        assert abs(got - want) / want <= 1e-12

    # alpha = 5, n = 3 is where an earlier qd prototype divided by zero.
    @pytest.mark.parametrize("alpha", [F(-999999, 1000000), F(0), F(5, 2), F(5), F(100)])
    @pytest.mark.parametrize("n", [2, 3, 5, 40])
    def test_bracket_holds_a_sign_change_of_exact_qn(self, alpha, n):
        res = smallest_eigenvalue(build_jacobi(alpha, n))
        lo, hi = res.bracket
        assert lo < res.value < hi and res.value == 0.5 * (lo + hi)
        assert hi - lo <= res.tol * res.value
        *_, coeffs = qn_coefficient_rows(alpha, n, RATIONAL)
        assert eval_exact(coeffs, F(lo)) * eval_exact(coeffs, F(hi)) < 0
        # and the zero in between is the smallest one
        assert exact_zeros_below(alpha, n, F(lo)) == 0
        assert exact_zeros_below(alpha, n, F(hi)) == 1

    @pytest.mark.parametrize("alpha", [1e4, 1e6])
    def test_pass_count_bounded_at_large_alpha(self, alpha):
        # 7 and 11 passes from Weyl's bound, 0.987 and 0.998 of the
        # eigenvalue; from 1/refined_upper (0.19 and 0.031), with a secant
        # jump, 10 and 12
        T = build_jacobi(alpha, 20000)
        res = smallest_eigenvalue(T)
        assert 0 < res.iterations <= 12
        lo, hi = res.bracket
        assert sturm_count(T, lo) == 0 and sturm_count(T, hi) >= 1

    def test_pass_count_on_point_draws(self):
        # Draws as in the benchmark's point workload, at n <= 2000.  Newton
        # steps without the counting close took 8.5 passes on average, 11 at
        # most; Laguerre steps from 1/refined_upper 5.5 and 8; from Dörfler's
        # limit they take 4.2 and 6.
        rng = random.Random(7)
        passes = []
        for _ in range(60):
            alpha = 100.0 - 101.0 * rng.random()
            n = round(math.exp(rng.uniform(math.log(500), math.log(2000))))
            passes.append(smallest_eigenvalue(build_jacobi(alpha, n)).iterations)
        assert sum(passes) / len(passes) <= 4.5
        assert max(passes) <= 7

    def test_pass_count_on_wide_alpha_draws(self):
        # alpha log-uniform on [1e2, 1.7e308], n on [2, 2000]: from Weyl's
        # bound 3.1 passes on average and 6 at most; from 1/refined_upper,
        # or from 0 on T/alpha past 1.3e154, 11.9 and 30
        rng = random.Random(5)
        passes = []
        for _ in range(150):
            alpha = math.exp(rng.uniform(math.log(1e2), math.log(1.7e308)))
            n = round(math.exp(rng.uniform(math.log(2), math.log(2000))))
            T = build_jacobi(alpha, n)
            res = smallest_eigenvalue(T)
            lo, hi = res.bracket
            assert sturm_count(T, lo) == 0 and sturm_count(T, hi) >= 1
            passes.append(res.iterations)
        assert sum(passes) / len(passes) <= 4
        assert max(passes) <= 8

    def test_start_counts_no_eigenvalue_on_wide_draws(self):
        # The start lies below where the binary64 count flips, at every
        # alpha.  Without its margin, Weyl's bound (sqrt(q_{n-1}) - 1)^2
        # counted an eigenvalue on 969 of these draws.
        rng = random.Random(11)
        for _ in range(1500):
            alpha = math.exp(rng.uniform(math.log(1e-3), math.log(1.7e308)))
            n = round(math.exp(rng.uniform(math.log(2), math.log(20000))))
            T = build_jacobi(alpha, n)
            lower = _lower_bound(alpha, T.q)
            assert lower > 0.0
            assert _count(T.q, _start(alpha, n, lower, T.q[0])) == 0, (alpha, n)

    def test_laguerre_step_is_newtons_where_s2_underflowed(self):
        # S2 = 0 puts the discriminant below 0, which exact arithmetic never
        # does for n >= 2: the step is Newton's 1/S1, not n/S1
        assert _laguerre_step(40, 2.0, 0.0) == 0.5
        # where S2 underflows (sigma ~ 1e300), Newton's step from below stops
        # short of the eigenvalue; n/S1 overshot it
        T = build_jacobi(1e300, 40)
        lam = smallest_eigenvalue(T).value
        for f in (0.5, 0.9, 0.999):
            count, step, _ = _laguerre_pass(T.q, f * lam)
            assert count == 0 and f * lam < f * lam + step < lam

    @pytest.mark.parametrize("bias", [10.0, -10.0])
    @pytest.mark.parametrize("alpha, n", [(0.0, 50), (5.0, 1000), (60.0, 3000)])
    def test_close_gallops_and_bisects(self, alpha, n, bias):
        # Steps off by 10 tol put the estimate beyond the first count on one
        # side (above it for +10, below for -10): the close gallops there,
        # then bisects, and must still return a tight bracket.
        tol = 1e-13
        T = build_jacobi(alpha, n)
        counted = []

        def biased(sigma):
            c, step, s1 = _laguerre_pass(T.q, sigma)
            return c, None if step is None else step + bias * tol * sigma, s1

        def count(sigma):
            counted.append(sigma)
            return _count(T.q, sigma)

        res = _solve(biased, count, 0.0, T.q[0], 0.0, tol)
        lo, hi = res.bracket
        assert sturm_count(T, lo) == 0 and sturm_count(T, hi) >= 1
        assert hi - lo <= tol / 8 * res.value
        assert lo < res.value < hi
        # The estimate lies 2 tol to 16 tol beyond the eigenvalue (3.3 tol to
        # 10 tol here, 26 to 140 cells of 0.07 tol to 0.12 tol): counts 1, 2,
        # 4, ... cells out from the estimate's cell miss five to eight times
        # before one lands, and bisecting what is left down to one cell takes
        # the rest: 13 to 17 counts here.
        assert 10 <= len(counted) <= 17

    @pytest.mark.parametrize("alpha, n", [(-0.9, 40), (0.0, 300), (25.0, 1000)])
    def test_laguerre_step_lands_between_newton_and_the_eigenvalue(self, alpha, n):
        T = build_jacobi(alpha, n)
        eig = np.linalg.eigvalsh(dense(T))
        top = eig[0]
        for sigma in (0.0, 0.5 * top, 0.99 * top):
            count, step, _ = _laguerre_pass(T.q, sigma)
            assert count == 0
            newton = 1 / np.sum(1 / (eig - sigma))
            assert newton <= step * (1 + 1e-12) and sigma + step <= top * (1 + 1e-12)
        # Laguerre's step from count 1 is negative and lands between the
        # eigenvalue and sigma (LAPACK's eigenvalue is only accurate to a few
        # eps * |T|; the kernel's bracket is relatively accurate)
        sigma = 1.001 * top
        count, step, _ = _laguerre_pass(T.q, sigma)
        assert count == 1
        lo = smallest_eigenvalue(T).bracket[0]
        assert step < 0 and lo * (1 - 1e-13) <= sigma + step < sigma
        # a zero pivot inside the recurrence: the count goes on, no step
        assert _laguerre_pass(T.q, T.q[0])[:2] == (sturm_count(T, T.q[0]), None)

    def test_zero_pivot_inside_the_recurrence(self):
        # sigma = d_0 zeroes the first pivot; the count goes on past it and
        # agrees with LAPACK's eigenvalues, and the Laguerre pass gives the
        # same count and no step.
        for alpha, n in [(0.0, 6), (2.5, 30), (40.0, 200)]:
            T = build_jacobi(alpha, n)
            sigma = T.q[0]
            eig = np.linalg.eigvalsh(dense(T))
            assert np.min(np.abs(eig - sigma)) > 1e-9
            assert sturm_count(T, sigma) == int(np.sum(eig < sigma))
            assert _laguerre_pass(T.q, sigma)[:2] == (sturm_count(T, sigma), None)

    def test_factored_pass_with_unit_subdiagonal_is_the_jacobi_pass(self):
        # e = 1 makes _laguerre_pass_e the recurrence of _laguerre_pass, bit
        # for bit, through a zero pivot inside (sigma = d_0) or at the end
        # (n = 1)
        for alpha, n in [(0.0, 1), (0.0, 6), (2.5, 30), (40.0, 200)]:
            T = build_jacobi(alpha, n)
            ones = [1.0] * n
            for sigma in (T.q[0], 0.3 * T.q[0], 0.5, 3.7, 1e3):
                # repr: float reprs round-trip, and nan S1 matches nan
                assert repr(_laguerre_pass_e(T.q, ones, sigma)) == repr(_laguerre_pass(T.q, sigma))
                assert _count_e(T.q, ones, sigma) == _count(T.q, sigma)
        # a zero pivot at the second-to-last entry: q_{n-2} = -s_{n-2}, so
        # the last pivot is +inf, and every pass counts the same and gives
        # no step
        for alpha, n, sigma in [(0.0, 2, 3.7), (2.5, 8, 3.7), (40.0, 200, 1e3)]:
            q = list(build_jacobi(alpha, n).q)
            s = -sigma
            for qk in q[:-2]:
                s = s / (qk + s) - sigma
            assert s < 0.0
            q[-2] = -s
            ones = [1.0] * n
            count, step, _ = _laguerre_pass(q, sigma)
            assert step is None and count == _count(q, sigma) >= 1
            assert _laguerre_pass_e(q, ones, sigma)[:2] == (count, step)
            assert _count_e(q, ones, sigma) == count

    def test_largest_raises_when_the_bracket_misses(self):
        T = build_jacobi(1.5, 8)
        top = largest_eigenvalue(T).value
        step_pass = lambda sigma: _laguerre_pass(T.q, sigma)
        count = lambda sigma: _count(T.q, sigma)
        for lo, hi in [(1.1 * top, 2 * top), (0.0, 0.9 * top)]:
            with pytest.raises(RuntimeError, match="misses"):
                _largest(step_pass, count, 8, lo, hi, 1e-13)

    def test_largest_matches_lapack(self):
        for alpha, n in [(-0.9, 2), (0.0, 7), (3.0, 40), (1e4, 300)]:
            T = build_jacobi(alpha, n)
            res = largest_eigenvalue(T)
            lo, hi = res.bracket
            assert sturm_count(T, lo) < n and sturm_count(T, hi) == n
            assert res.value == pytest.approx(np.linalg.eigvalsh(dense(T))[-1], rel=1e-13)

    @pytest.mark.parametrize("alpha", [-0.99, 0.0, 3.0, 50.0, 1e4])
    @pytest.mark.parametrize("n", [2, 40, 1000])
    def test_largest_from_the_norm_bracket(self, alpha, n):
        # the solve starts from the upper end of (0, (1 + sqrt(max q))^2]
        # and returns ends that count fewer than n and all n eigenvalues
        T = build_jacobi(alpha, n)
        res = largest_eigenvalue(T)
        lo, hi = res.bracket
        assert 0.0 < lo and hi <= norm_bracket(T)[1] * (1 + 1e-15)
        assert sturm_count(T, lo) < n and sturm_count(T, hi) == n
        assert res.value == pytest.approx(np.linalg.eigvalsh(dense(T))[-1], rel=1e-13)

    @pytest.mark.parametrize("n", [2, 5, 1000])
    def test_largest_past_binary64_raises_overflow(self, n):
        # (1 + sqrt(max q))^2 rounds to the float below the largest, and the
        # nudge past it overflows; the count at the largest float finds n - 1
        # eigenvalues, so the largest lies past binary64
        T = build_jacobi(1.7976931348623157e308, n)
        assert sturm_count(T, 1.7976931348623157e308) == n - 1
        with pytest.raises(OverflowError, match="past the binary64 range"):
            largest_eigenvalue(T)
        T = build_jacobi(1.79e308, n)
        res = largest_eigenvalue(T)
        lo, hi = res.bracket
        assert sturm_count(T, lo) < n and sturm_count(T, hi) == n
        assert res.value == pytest.approx(1.79e308, rel=1e-13)

    @pytest.mark.parametrize("alpha, n, newton_passes", [(-0.9, 2, 7), (0.0, 7, 9), (3.0, 40, 15),
                                                         (1e4, 300, 12)])
    def test_largest_takes_fewer_passes_than_newton(self, alpha, n, newton_passes):
        # Laguerre steps from above the spectrum, against the Newton steps
        # that took newton_passes on the same matrices
        assert largest_eigenvalue(build_jacobi(alpha, n)).iterations < newton_passes

    def test_start_above_the_eigenvalue_falls_back_to_zero(self):
        # The start is 1/refined_upper(alpha, n); an alpha of 100 puts it
        # above every eigenvalue of the alpha = 0 matrix.
        T = build_jacobi(0.0, 5)
        res = smallest_eigenvalue(T._replace(alpha=100.0))
        assert sturm_count(T, 1 / refined_bounds(100.0, 5).upper) == 5
        assert res.value == pytest.approx(4 * math.sin(math.pi / 22) ** 2, rel=1e-13)
        lo, hi = res.bracket
        assert sturm_count(T, lo) == 0 and sturm_count(T, hi) >= 1

    @pytest.mark.parametrize("alpha", [1e160, 1e300, 1.7e308])
    @pytest.mark.parametrize("n", [2, 5, 40])
    def test_overflowing_start_falls_back_to_zero(self, alpha, n):
        # past alpha ~ 1.3e154 refined_upper overflows to 0 or nan; its
        # term of the start falls back to 0 (it raised ZeroDivisionError or
        # came out nan), and Weyl's bound starts the solve.  From 0, on T
        # itself, the pass underflowed and took 40 to 74 passes; on T/alpha
        # up to 10.  From Weyl's bound it takes 2 or 3.
        res = smallest_eigenvalue(build_jacobi(alpha, n))
        want = mp_smallest(alpha, n)
        assert abs(res.value - want) <= 1.9e-14 * want
        lo, hi = res.bracket
        assert lo < res.value < hi and hi - lo <= res.tol * res.value
        assert markov_constant(alpha, n) == math.sqrt(1.0 / res.value)
        assert res.iterations <= 4

    @pytest.mark.parametrize("alpha", [1e160, 1e300, 1.7e308])
    def test_overflowing_start_pass_count_at_large_n(self, alpha):
        # 60 passes from 0 on T itself past 1e300, 16 on T/alpha, 3 from
        # Weyl's bound
        T = build_jacobi(alpha, 1000)
        res = smallest_eigenvalue(T)
        assert res.iterations <= 4
        lo, hi = res.bracket
        assert sturm_count(T, lo) == 0 and sturm_count(T, hi) >= 1

    @pytest.mark.parametrize("alpha", [0.0, 5.0, 100.0, 1000.0, 2001.0])
    @pytest.mark.parametrize("n", [_START_MIN_N, 4096])
    def test_start_from_dorflers_limit(self, alpha, n):
        # (c(a)(n + (a+3)/4))^-2 with c(a) = 1/j_{(a-1)/2,1}: above the
        # refined bound's start and below the eigenvalue
        T = build_jacobi(alpha, n)
        lower = 1.0 / _refined_upper(alpha, n)
        sigma = _start(alpha, n, lower, T.q[0])
        assert sigma == (first_zero((alpha - 1) / 2) / (n + (alpha + 3) / 4)) ** 2
        assert lower < sigma and sturm_count(T, sigma) == 0

    @pytest.mark.parametrize("alpha, n", [
        (5.0, _START_MIN_N - 1),     # below the cut, a zero costs more than it saves
        (-1 + 2.0 ** -52, _START_MIN_N),  # Dörfler's start is below 1/refined_upper
        (-1 + 2.0 ** -52, 20000),
        (-0.9999999999999999, 20000),  # (a-1)/2 rounds to -1, where first_zero raises
        (2003.0, _START_MIN_N),      # past first_zero's domain
        (2003.0, 20000),
    ])
    def test_start_keeps_the_refined_bound(self, alpha, n):
        T = build_jacobi(alpha, n)
        lower = 1.0 / _refined_upper(alpha, n)
        assert _start(alpha, n, lower, T.q[0]) == lower
        res = smallest_eigenvalue(T)
        lo, hi = res.bracket
        assert sturm_count(T, lo) == 0 and sturm_count(T, hi) >= 1
        assert hi - lo <= res.tol * res.value

    @pytest.mark.parametrize("n", [1000, 20000])
    def test_tolerance_below_the_close_stops_at_binary64_resolution(self, n):
        # the close bisects towards tol/8, which at tol = 2e-16 lies below
        # the spacing of binary64: it stops at adjacent floats instead of
        # raising, since the bracket is within tol
        T = build_jacobi(0.0, n)
        res = smallest_eigenvalue(T, 2e-16)
        lo, hi = res.bracket
        assert hi == math.nextafter(lo, math.inf)
        assert hi - lo <= res.tol * res.value
        assert sturm_count(T, lo) == 0 and sturm_count(T, hi) >= 1

    def test_iterations_count_passes(self):
        assert smallest_eigenvalue(build_jacobi(0.0, 1)).iterations == 0
        for n in (2, 3, 50):
            assert smallest_eigenvalue(build_jacobi(0.0, n)).iterations > 0

    @settings(max_examples=50, deadline=None)
    @given(
        alpha=st.floats(min_value=-1.0, max_value=1e6, exclude_min=True),
        n=st.integers(min_value=1, max_value=2000),
    )
    def test_sign_count_certifies_both_ends(self, alpha, n):
        T = build_jacobi(alpha, n)
        res = smallest_eigenvalue(T)
        lo, hi = res.bracket
        assert lo <= res.value <= hi
        assert hi - lo <= res.tol * res.value
        assert sturm_count(T, lo) == 0
        assert sturm_count(T, hi) >= 1


def point_draws(count, seed, n_max=20000):
    """Seeded (alpha, n) as the benchmark's point workload draws them: n
    log-uniform on [500, n_max], alpha uniform on (-1, 100]."""
    rng = random.Random(seed)
    draws = []
    for _ in range(count):
        alpha = 100.0 - 101.0 * rng.random()
        draws.append((alpha, round(math.exp(rng.uniform(math.log(500), math.log(n_max))))))
    return draws


def laguerre_only(monkeypatch):
    """Turn the switch to Newton's pass off: a step pass whose S1 is nan
    never passes ``_solve``'s test, so every step pass is Laguerre's."""
    monkeypatch.setattr(eigen, "_laguerre_pass",
                        lambda q, sigma: (*_laguerre_pass(q, sigma)[:2], math.nan))


def mp_newton_step(q, sigma):
    """Newton's step -f/f' for f = det(T - sigma), T = B B^T with diagonal
    q_0, q_1 + 1, ... and squared off-diagonal q_0, q_1, ...: the continuant
    at 50 digits, its derivative by mpmath.diff."""
    with mpmath.workdps(50):
        def det(x):
            prev, cur = mpmath.mpf(1), mpmath.mpf(q[0]) - x
            for k in range(1, len(q)):
                prev, cur = cur, (mpmath.mpf(q[k]) + 1 - x) * cur - mpmath.mpf(q[k - 1]) * prev
            return cur

        x = mpmath.mpf(sigma)
        return float(-det(x) / mpmath.diff(det, x))


class TestNewtonPass:
    """``_newton_pass`` counts as ``_count`` does and steps by 1/S1;
    ``_solve`` runs it where the last Laguerre pass predicts that its
    estimate lands in the close's cell, so every result is the
    Laguerre-only driver's, pass count included."""

    def test_count_is_the_count_pass_through_zero_pivots(self):
        # a zero pivot at the first entry (sigma = q_0), inner for n > 1 and
        # the last for n = 1
        for alpha, n in [(0.0, 1), (0.0, 6), (2.5, 30), (40.0, 200)]:
            q = build_jacobi(alpha, n).q
            for sigma in (q[0], 0.3 * q[0], 0.5, 3.7, 1e3):
                count, step, _ = _newton_pass(q, sigma)
                laguerre_count, laguerre_step, _ = _laguerre_pass(q, sigma)
                assert count == _count(q, sigma) == laguerre_count
                assert (step is None) == (laguerre_step is None)
            assert _newton_pass(q, q[0])[:2] == ((1, 0.0) if n == 1 else (_count(q, q[0]), None))
        for alpha, n, sigma in [(0.0, 2, 3.7), (2.5, 8, 3.7), (40.0, 200, 1e3)]:
            q = list(build_jacobi(alpha, n).q)
            s = -sigma
            for qk in q[:-2]:
                s = s / (qk + s) - sigma
            # a zero pivot at the second-to-last entry: the last is +inf
            inner = q[:-2] + [-s, q[-1]]
            assert _newton_pass(inner, sigma)[:2] == (_count(inner, sigma), None)
            assert _count(inner, sigma) >= 1
            # a zero pivot at the last entry: sigma is an eigenvalue, step 0
            s = s / (q[-2] + s) - sigma
            last = q[:-1] + [-s]
            assert _newton_pass(last, sigma)[:2] == (_count(last, sigma), 0.0)
            assert _laguerre_pass(last, sigma)[1] == 0.0

    @pytest.mark.parametrize("alpha, n", [(-0.9, 7), (0.0, 12), (3.5, 30), (60.0, 25)])
    def test_step_is_one_over_s1(self, alpha, n):
        T = build_jacobi(alpha, n)
        q = T.q
        eig = np.linalg.eigvalsh(dense(T))
        for sigma in (0.0, 0.5 * eig[0], 0.999 * eig[0], 0.5 * (eig[0] + eig[1]),
                      0.5 * (eig[1] + eig[2])):
            count, step, s1 = _newton_pass(q, sigma)
            assert count == int(np.sum(eig < sigma))
            assert step == pytest.approx(mp_newton_step(q, sigma), rel=1e-12) and step == 1.0 / s1
            # the S1 of the Laguerre pass, which sums the same terms
            assert s1 == pytest.approx(_laguerre_pass(q, sigma)[2], rel=1e-14)

    def test_results_are_the_laguerre_drivers(self, monkeypatch):
        # values, brackets and pass counts, on point draws up to n = 5000
        draws = point_draws(60, 7, 5000)
        with_newton = [smallest_eigenvalue(build_jacobi(a, n)) for a, n in draws]
        laguerre_only(monkeypatch)
        assert [smallest_eigenvalue(build_jacobi(a, n)) for a, n in draws] == with_newton

    def test_newton_takes_the_laguerre_passes_it_can(self, monkeypatch):
        # Step passes per solve on point draws, weighted by n (so by cost):
        # 2.0 Laguerre passes on the Laguerre-only driver; with the switch,
        # 1.1 Laguerre and 0.9 Newton, and not one pass more in all
        draws = point_draws(100, 11)
        weight = sum(n for _, n in draws)
        entries = dict.fromkeys(("_laguerre_pass", "_newton_pass"), 0)

        def solve_counted():
            for name in entries:
                real = getattr(eigen, name)
                entries[name] = 0

                def step_pass(q, sigma, name=name, real=real):
                    entries[name] += len(q)
                    return real(q, sigma)
                monkeypatch.setattr(eigen, name, step_pass)
            iterations = sum(smallest_eigenvalue(build_jacobi(a, n)).iterations
                             for a, n in draws)
            return iterations, entries["_laguerre_pass"] / weight, entries["_newton_pass"] / weight

        iterations, laguerre, newton = solve_counted()
        assert laguerre <= 1.2 and newton >= 0.8
        monkeypatch.undo()
        laguerre_only(monkeypatch)
        assert solve_counted() == (iterations, pytest.approx(laguerre + newton), 0.0)
        assert laguerre + newton >= 1.95

    @pytest.mark.parametrize("alpha, n, passes", [(2e14, 15400, 27), (1.46e14, 12140, 25),
                                                  (1e5, 20000, 13), (1e8, 20000, 7)])
    def test_clustered_inputs_keep_their_passes(self, alpha, n, passes, monkeypatch):
        # where the smallest eigenvalues cluster, rho is large and the test
        # keeps the passes Laguerre's; a plain |h| <= 1e-3 sigma rule sent
        # (1e8, 20000) into the close's gallop, 58 passes, and (2e14, 15400)
        # to 49
        T = build_jacobi(alpha, n)
        res = smallest_eigenvalue(T)
        assert res.iterations == passes
        laguerre_only(monkeypatch)
        assert smallest_eigenvalue(T) == res


def start_cases():
    """Seeded (alpha, n): exact and float alphas, and n = 2, 3, 40, 500 and
    4096 among them."""
    rng = random.Random(17)
    cases = [(F(5, 2), 2), (F(-999999, 1000000), 3), (F(7, 3), 40), (0.0, 500), (25.0, 4096)]
    for _ in range(25):
        alpha = F(rng.randint(-99, 5000), 100) if rng.random() < 0.5 else rng.uniform(-0.99, 200.0)
        cases.append((alpha, rng.choice([2, 3, 40, 500, 4096, rng.randint(2, 1000)])))
    return cases


class TestStartIndependence:
    """The close returns the cell of a fixed lattice where the count flips,
    so the step phase's start moves the pass count and nothing else."""

    @pytest.mark.parametrize("alpha, n", start_cases())
    def test_every_start_gives_the_same_bits(self, alpha, n):
        T = build_jacobi(alpha, n)
        cold = smallest_eigenvalue(T)
        lam = cold.value
        # a start above the eigenvalue that still counts it alone
        above = lam * (1 + 1e-4)
        assert sturm_count(T, above) == 1
        for start in (lam * (1 - 1e-8), lam * (1 + 1e-8), above):
            res = _smallest(T, 1e-13, start)
            assert (res.value, res.bracket) == (cold.value, cold.bracket), (alpha, n, start)

    def test_a_start_that_counts_one_keeps_its_step(self):
        # from above, Laguerre's step converges as from below: a start 1e-8
        # above the eigenvalue takes one step pass and the close's counts,
        # as the one below does; falling back to 0 took 6 passes
        T = build_jacobi(0.0, 1000)
        lam = smallest_eigenvalue(T).value
        below = _smallest(T, 1e-13, lam * (1 - 1e-8)).iterations
        assert _smallest(T, 1e-13, lam * (1 + 1e-8)).iterations == below <= 4


def lattice_cell(bracket, tol):
    """(t, s) where bracket holds the edges of the cell from the point
    t 2^s to (t + 1) 2^s of the close's lattice, by its definition in exact
    arithmetic, else None.  With K = ceil(8/tol), t lies in [K, 2K), and
    each edge is the float just above its point, or past K = 2^50 (K is then
    2^52) the point itself.  t = 2K - 1 is a cell that straddles a segment
    switch: its upper point (t + 1) 2^s = K 2^(s+1) starts the next one."""
    K = math.ceil(8 / tol)
    shifted = K <= 2**50
    if not shifted:
        K = 2**52
    lo, hi = (F(math.nextafter(x, 0.0) if shifted else x) for x in bracket)
    s = 0
    while lo < K * F(2) ** s:
        s -= 1
    while lo >= 2 * K * F(2) ** s:
        s += 1
    t = lo / F(2) ** s
    if t.denominator != 1 or hi != (t + 1) * F(2) ** s:
        return None
    return int(t), s


def n2_alpha(lam, smallest):
    """alpha at which lam is the smallest (else the largest) eigenvalue of
    T_2(alpha): lam^2 - (q_0 + q_1 + 1) lam + q_0 q_1 = 0, q_0 = 1 + alpha
    and q_1 = 1 + alpha/2, solved for alpha; the larger root makes lam the
    smaller eigenvalue."""
    b = 1.5 * (1.0 - lam)
    r = math.sqrt(b * b - 2.0 * (lam * lam - 3.0 * lam + 1.0))
    return -b + r if smallest else -b - r


class TestLattice:
    """Every bracket from order 2 on is one cell of the close's lattice,
    checked against the lattice's definition, not against ``_close``."""

    @pytest.mark.parametrize("tol", [1e-13, 1e-8, 7e-15, 2e-16])
    def test_brackets_are_cells_and_values_their_midpoints(self, tol):
        rng = random.Random(26)
        solves = []
        for _ in range(40):
            alpha = rng.choice([rng.uniform(-0.999, 5.0), 10 ** rng.uniform(-3, 8)])
            T = build_jacobi(alpha, rng.choice([2, 3, 40, rng.randint(2, 2000)]))
            solves += [lambda T=T: smallest_eigenvalue(T, tol),
                       lambda T=T: largest_eigenvalue(T, tol)]
            nu = rng.choice([-1.0 + 10 ** rng.uniform(-15, 0), rng.uniform(-1.0, 1000.0)])
            solves.append(lambda nu=nu: zero_eigenvalue(nu, tol))
        cells = []
        for solve in solves:
            try:
                res = solve()
            except RuntimeError as exc:
                # below binary64 resolution: a one-ulp cell wider than tol
                assert tol < 2**-52 and "resolution" in str(exc)
                continue
            lo, hi = res.bracket
            cells.append(lattice_cell(res.bracket, tol))
            assert cells[-1] is not None, (res, tol)
            assert res.value == float((F(lo) + F(hi)) / 2)
        assert len(cells) >= 60

    @pytest.mark.parametrize("tol", [1e-13, 1e-8, 1e-4])
    def test_cells_at_a_segment_switch(self, tol):
        # Eigenvalues of T_2 placed inside the two cells at a switch point
        # K 2^s: the one below it, from (2K - 1) 2^(s-1) to K 2^s, straddles
        # the switch; the one above runs from K 2^s to (K + 1) 2^s, where a
        # lattice with another K would split it.  (The largest eigenvalue
        # of T_2 lies above 1.5.)
        K = math.ceil(8 / tol)
        for smallest, target in [(True, 0.3), (True, 0.9), (True, 2.0),
                                 (False, 4.0), (False, 10.0), (False, 40.0)]:
            s = math.floor(math.log2(target / K))
            for side, cell in [(-1, (2 * K - 1, s - 1)), (1, (K, s))]:
                lam = K * 2.0**s * (1 + side / (4 * K))
                T = build_jacobi(n2_alpha(lam, smallest), 2)
                res = (smallest_eigenvalue if smallest else largest_eigenvalue)(T, tol)
                assert lattice_cell(res.bracket, tol) == cell, (lam, res)
                assert res.value == float((F(res.bracket[0]) + F(res.bracket[1])) / 2)


class TestMarkovConstant:
    @pytest.mark.parametrize("alpha", [-0.9, -0.5, 0.0, 1.0, 10.0, 47.5])
    def test_n1_closed_form(self, alpha):
        assert markov_constant(alpha, 1) == pytest.approx(
            1 / math.sqrt(1 + alpha), rel=1e-13
        )

    @pytest.mark.parametrize("alpha", [-0.9, 0.0, 2.0, 30.0])
    def test_n2_closed_form(self, alpha):
        c2_sq = (3 * (alpha + 2) + math.sqrt((alpha + 2) * (alpha + 10))) / (
            2 * (alpha + 1) * (alpha + 2)
        )
        assert markov_constant(alpha, 2, 1e-14) == pytest.approx(math.sqrt(c2_sq), rel=1e-12)

    def test_alpha0_n25_turan(self):
        want = 0.5 / math.sin(math.pi / 102)
        assert markov_constant(0.0, 25, 1e-14) == pytest.approx(want, rel=1e-11)
        assert want == turan_constant(25)

    @pytest.mark.parametrize("alpha", [-0.9, 0.0, 2.5, 10.0])
    def test_interlacing_makes_constants_increase(self, alpha):
        prev = markov_constant(alpha, 1)
        for n in range(2, 31):
            cur = markov_constant(alpha, n)
            assert cur > prev
            prev = cur

    def test_rejects_infinite_alpha(self):
        with pytest.raises(ValueError):
            markov_constant(float("inf"), 3)

    def test_turan_agreement_sample(self):
        for n in (1, 2, 10, 40, 120, 200, 1000):
            got = markov_constant(0.0, n, 1e-15)
            want = turan_constant(n)
            assert abs(got - want) / want <= 1e-11
