import math
import random
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markov_laguerre import (
    RATIONAL,
    build_jacobi,
    gershgorin_bracket,
    largest_eigenvalue,
    markov_constant,
    qn_coefficients,
    recurrence_coeffs,
    refined_bounds,
    smallest_eigenvalue,
    sturm_count,
    turan_constant,
)
from markov_laguerre.bessel import first_zero
from markov_laguerre.eigen import (
    _CLOSE_LAGUERRE,
    _count,
    _laguerre_pass,
    _largest,
    _newton,
    _newton_pass,
    _newton_pass_e,
)


def dense(T):
    A = np.diag(T.diag)
    if T.order > 1:
        A += np.diag(T.offdiag, 1) + np.diag(T.offdiag, -1)
    return A


class TestBuildJacobi:
    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.0, 7.25])
    def test_order_one(self, alpha):
        T = build_jacobi(alpha, 1)
        assert list(T.diag) == [1 + alpha]
        assert len(T.offdiag) == 0

    def test_alpha0_n2(self):
        T = build_jacobi(0.0, 2)
        assert list(T.diag) == [1.0, 2.0]
        assert list(T.offdiag) == [1.0]

    def test_alpha2_n2(self):
        T = build_jacobi(2.0, 2)
        assert list(T.diag) == [3.0, 3.0]
        assert list(T.offdiag) == [math.sqrt(3.0)]

    def test_entries_read_only(self):
        T = build_jacobi(1.0, 4)
        with pytest.raises(TypeError):
            T.diag[0] = 0.0

    @pytest.mark.parametrize("alpha", [F(0), F(1, 2), F(5, 2)])
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_characteristic_polynomial_is_qn(self, alpha, n):
        # np.poly goes through LAPACK eigenvalues, an independent route.
        T = build_jacobi(alpha, n)
        char = np.poly(dense(T))[::-1]
        coeffs = [float(c) for c in qn_coefficients(alpha, n, RATIONAL).coeffs]
        assert char == pytest.approx(coeffs, rel=1e-9, abs=1e-9)


class TestGershgorin:
    def test_order_one(self):
        lo, hi = gershgorin_bracket(build_jacobi(3.5, 1))
        assert lo == hi == 4.5

    def test_alpha0_n2(self):
        assert gershgorin_bracket(build_jacobi(0.0, 2)) == (0.0, 3.0)

    def test_alpha0_n3(self):
        assert gershgorin_bracket(build_jacobi(0.0, 3)) == (0.0, 4.0)

    def test_clamped_at_zero(self):
        # raw left edge is negative for every n >= 2 at alpha = 0
        lo, hi = gershgorin_bracket(build_jacobi(0.0, 50))
        assert lo == 0.0
        assert hi == 4.0


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
        lo, hi = gershgorin_bracket(T)
        sigmas = np.linspace(lo, hi + 1e-9, 37)
        counts = [sturm_count(T, s) for s in sigmas]
        assert counts == sorted(counts)
        if n == 1:
            # degenerate bracket: lo is the eigenvalue itself, and the
            # zero-pivot convention counts an exact hit as below sigma
            assert sturm_count(T, lo - 1e-9) == 0
        else:
            assert counts[0] == 0
        assert sturm_count(T, hi * (1 + 1e-12) + 1e-12) == n


def bisect_kth(T, k, tol=1e-13):
    """Test-local bisection on the public sturm_count, for the k-th smallest
    eigenvalue (1-based)."""
    lo, hi = gershgorin_bracket(T)
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
        coeffs = qn_coefficients(F(0), 3, RATIONAL).coeffs
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
        coeffs = qn_coefficients(alpha, n, RATIONAL).coeffs
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
    """The qd/Newton solver: relative accuracy at every n, a bracket that
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
        coeffs = qn_coefficients(alpha, n, RATIONAL).coeffs
        assert eval_exact(coeffs, F(lo)) * eval_exact(coeffs, F(hi)) < 0
        # and the zero in between is the smallest one
        assert exact_zeros_below(alpha, n, F(lo)) == 0
        assert exact_zeros_below(alpha, n, F(hi)) == 1

    @pytest.mark.parametrize("alpha", [1e4, 1e6])
    def test_pass_count_bounded_at_large_alpha(self, alpha):
        T = build_jacobi(alpha, 20000)
        res = smallest_eigenvalue(T)
        assert 0 < res.iterations <= 30
        lo, hi = res.bracket
        assert sturm_count(T, lo) == 0 and sturm_count(T, hi) >= 1

    def test_pass_count_on_point_draws(self):
        # Draws as in the benchmark's point workload, at n <= 2000.  Newton
        # steps without the counting close took 8.5 passes on average, 11 at
        # most.
        rng = random.Random(7)
        passes = []
        for _ in range(60):
            alpha = 100.0 - 101.0 * rng.random()
            n = round(math.exp(rng.uniform(math.log(500), math.log(2000))))
            passes.append(smallest_eigenvalue(build_jacobi(alpha, n)).iterations)
        assert sum(passes) / len(passes) <= 6.5
        assert max(passes) <= 9

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
            c, step = _laguerre_pass(T.q, sigma)
            return c, None if step is None else step + bias * tol * sigma

        def count(sigma):
            counted.append(sigma)
            return _count(T.q, sigma)

        res = _newton(biased, count, 0.0, T.q[0], 0.0, tol, _CLOSE_LAGUERRE)
        lo, hi = res.bracket
        assert sturm_count(T, lo) == 0 and sturm_count(T, hi) >= 1
        assert hi - lo <= tol * res.value
        assert lo < res.value < hi
        # The estimate lies 2 tol to 10 tol beyond the eigenvalue: an offset
        # that doubles from tol/4 misses at least four times and lands by the
        # seventh count, one more count lands on the other side, and
        # bisection from a width of at most 8 tol takes at most four.
        assert 5 <= len(counted) <= 12

    @pytest.mark.parametrize("alpha, n", [(-0.9, 40), (0.0, 300), (25.0, 1000)])
    def test_laguerre_step_lands_between_newton_and_the_eigenvalue(self, alpha, n):
        T = build_jacobi(alpha, n)
        top = np.linalg.eigvalsh(dense(T))[0]
        for sigma in (0.0, 0.5 * top, 0.99 * top):
            count, step = _laguerre_pass(T.q, sigma)
            assert count == 0
            newton = _newton_pass(T.q, sigma)[1]
            assert newton <= step * (1 + 1e-12) and sigma + step <= top * (1 + 1e-12)
        # above the eigenvalue the step is Newton's
        count, step = _laguerre_pass(T.q, 1.001 * top)
        assert count == 1
        assert step == pytest.approx(_newton_pass(T.q, 1.001 * top)[1], rel=1e-12)
        # a zero pivot inside the recurrence: the count goes on, no step
        assert _laguerre_pass(T.q, T.diag[0]) == (sturm_count(T, T.diag[0]), None)

    def test_zero_pivot_inside_the_recurrence(self):
        # sigma = d_0 zeroes the first pivot; the count goes on past it and
        # agrees with LAPACK's eigenvalues, and the Newton pass gives the
        # same count and no step.
        for alpha, n in [(0.0, 6), (2.5, 30), (40.0, 200)]:
            T = build_jacobi(alpha, n)
            sigma = T.diag[0]
            eig = np.linalg.eigvalsh(dense(T))
            assert np.min(np.abs(eig - sigma)) > 1e-9
            assert sturm_count(T, sigma) == int(np.sum(eig < sigma))
            assert _newton_pass(T.q, sigma) == (sturm_count(T, sigma), None)

    def test_factored_pass_with_unit_subdiagonal_is_the_jacobi_pass(self):
        # e = 1 makes _newton_pass_e the recurrence of _newton_pass, bit for
        # bit, through a zero pivot inside (sigma = d_0) or at the end (n = 1)
        for alpha, n in [(0.0, 1), (0.0, 6), (2.5, 30), (40.0, 200)]:
            T = build_jacobi(alpha, n)
            ones = [1.0] * n
            for sigma in (T.diag[0], 0.3 * T.diag[0], 0.5, 3.7, 1e3):
                assert _newton_pass_e(T.q, ones, sigma) == _newton_pass(T.q, sigma)

    def test_largest_raises_when_the_bracket_misses(self):
        T = build_jacobi(1.5, 8)
        top = largest_eigenvalue(T).value
        newton_pass = lambda sigma: _newton_pass(T.q, sigma)
        for lo, hi in [(1.1 * top, 2 * top), (0.0, 0.9 * top)]:
            with pytest.raises(RuntimeError, match="misses"):
                _largest(newton_pass, 8, lo, hi, 1e-13)

    def test_largest_matches_lapack(self):
        for alpha, n in [(-0.9, 2), (0.0, 7), (3.0, 40), (1e4, 300)]:
            T = build_jacobi(alpha, n)
            res = largest_eigenvalue(T)
            lo, hi = res.bracket
            assert sturm_count(T, lo) < n and sturm_count(T, hi) == n
            assert res.value == pytest.approx(np.linalg.eigvalsh(dense(T))[-1], rel=1e-13)

    def test_start_above_the_eigenvalue_falls_back_to_zero(self):
        # The start is 1/refined_upper(alpha, n); an alpha of 100 puts it
        # above every eigenvalue of the alpha = 0 matrix.
        T = build_jacobi(0.0, 5)
        res = smallest_eigenvalue(replace(T, alpha=100.0))
        assert sturm_count(T, 1 / refined_bounds(100.0, 5).upper) == 5
        assert res.value == pytest.approx(4 * math.sin(math.pi / 22) ** 2, rel=1e-13)
        lo, hi = res.bracket
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
        for n in (1, 2, 10, 40, 120, 200):
            got = markov_constant(0.0, n, 1e-15)
            want = turan_constant(n)
            assert abs(got - want) / want <= 1e-11
