"""Acceptance suite: every stated criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -rA`` or ``-s``).
Two criteria of the specification are false as stated.  Their tests assert
the true statements instead, and keep the specification's counterexamples
as assertions:

* criterion 5b: the new lower bound does not dominate the classical one at
  every grid point.  It is the larger one exactly where the quadratic
  q_alpha(n) of :func:`refined_bounds` is >= 0, and its ratio to the
  classical bound tends to 2(alpha+3)/(alpha+5) > 1; at alpha = -0.9,
  n = 3 the classical bound is tighter (42.86 against 34.93);
* criterion 9a: the asymptotic upper bound 2/(alpha + 2pi - 2) holds
  strictly for alpha > 2, is an exact equality at alpha = 2 (both sides
  1/pi) and fails on 1 < alpha < 2, where
  :func:`asymptotic_upper_large_alpha` therefore raises.

Criteria 3, 4, 5a, 7, 8 and 11 are the ``verify`` suites of the CLI: their
tests run the suite and assert that it reports no failure, so the command
and the acceptance suite share one implementation and one set of grids.
"""

import math
import time

import pytest

from markov_laguerre import (
    asymptotic_constant,
    build_jacobi,
    asymptotic_bounds,
    dorfler_bounds,
    exact_c1_sq,
    exact_c2_sq,
    markov_constant,
    power_sums,
    ratio_r,
    reciprocal_b123,
    smallest_eigenvalue,
    refined_bounds,
    asymptotic_upper_large_alpha,
    turan_constant,
)
from markov_laguerre import cli
from markov_laguerre.cli import GRID_ALPHAS, grid_pairs

SMALL_N_ALPHAS = (
    -0.98, -0.9, -0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0,
    3.0, 4.0, 5.0, 7.5, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0,
)


@pytest.fixture(scope="module")
def grid_c_sq():
    """Exact squared constants over the standard grid, computed once."""
    return {
        (a, n): 1.0 / smallest_eigenvalue(build_jacobi(a, n), 1e-13).value
        for a, n in grid_pairs()
    }


@pytest.fixture(scope="module")
def sandwich_failures():
    """Failures of the ``sandwich`` suite (criteria 4 and 5a), run once."""
    return cli.verify_sandwich()


def report(ok: bool, label: str, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{tag} {label}{suffix}")


def timed_suite(suite):
    start = time.perf_counter()
    failures = suite()
    return failures, time.perf_counter() - start


def test_criterion_01_turan_exactness():
    start = time.perf_counter()
    worst = 0.0
    for n in range(1, 201):
        got = markov_constant(0.0, n, 1e-15)
        want = turan_constant(n)
        worst = max(worst, abs(got - want) / want)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-11 and elapsed <= 5.0
    report(ok, "criterion 1: closed-form agreement at alpha=0, n<=200",
           f"worst rel err {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-11
    assert elapsed <= 5.0


def test_criterion_02_small_n_closed_forms():
    worst = 0.0
    for a in SMALL_N_ALPHAS:
        got1 = markov_constant(a, 1, 1e-14) ** 2
        got2 = markov_constant(a, 2, 1e-14) ** 2
        worst = max(
            worst,
            abs(got1 - exact_c1_sq(a)) / exact_c1_sq(a),
            abs(got2 - exact_c2_sq(a)) / exact_c2_sq(a),
        )
    ok = worst <= 1e-11
    report(ok, "criterion 2: closed forms at n=1,2 over 25 alpha samples",
           f"worst rel err {worst:.2e}")
    assert ok


def test_criterion_03_coefficient_oracle():
    failures, elapsed = timed_suite(cli.verify_coeffs)
    ok = not failures and elapsed <= 30.0
    report(ok, "criterion 3: exact coefficient identities, n<=60, 7 alphas",
           f"zero-tolerance match, {elapsed:.2f}s")
    assert failures == []
    assert elapsed <= 30.0


def test_criterion_04_two_sided_sandwich(sandwich_failures):
    violations = [f for f in sandwich_failures if "two-sided" in f]
    report(not violations, "criterion 4: strict two-sided estimate on the grid",
           f"{len(grid_pairs())} points, {len(violations)} violations")
    assert violations == []


def test_criterion_05a_classical_sandwich(sandwich_failures):
    violations = [f for f in sandwich_failures if "classical" in f]
    report(not violations, "criterion 5a: classical enclosure on the grid",
           f"{len(violations)} violations")
    assert violations == []


def dominance_quadratic(a, n):
    """q_a(n), the numerator of refined lower minus classical lower bound
    over the positive (a+1)(a+3)(a+5): the new lower bound is the larger one
    exactly when q_a(n) >= 0.  Exact for an exact a."""
    return (
        (a + 1) * n * n
        + (3 * a - 1) * (a + 3) * n / 3
        - 2 * a * (a + 1) * (a + 3) / 9
    )


def test_criterion_05b_lower_bound_dominance(grid_c_sq):
    """The new lower bound improves on the classical one.

    The stated claim, dominance at every grid point, is false.  The exact
    difference of the two lower bounds is q_a(n) / ((a+1)(a+3)(a+5)), so
    dominance holds exactly where q_a(n) >= 0; the grid breaks it at
    alpha = -0.9 for n <= 25 (root 25.88) and alpha = -0.5 for n = 3, 4
    (root 4.10).  What does hold is the asymptotic improvement: the ratio
    of the two bounds tends to 2(alpha+3)/(alpha+5) > 1.  The test asserts
    both, and keeps the spec's counterexample at (alpha, n) = (-0.9, 3).
    """
    exact = dict(zip(GRID_ALPHAS, cli._GRID_ALPHAS_EXACT))
    mismatches = []
    exceptions = []
    for a, n in grid_c_sq:
        dominates = refined_bounds(a, n).lower >= dorfler_bounds(a, n).lower
        if not dominates:
            exceptions.append((a, n))
        if dominates != (dominance_quadratic(exact[a], n) >= 0):
            mismatches.append((a, n))

    big_n = 10**6
    ratio_failures = []
    for a in GRID_ALPHAS:
        ratio = refined_bounds(a, big_n).lower / dorfler_bounds(a, big_n).lower
        factor = 2 * (a + 3) / (a + 5)
        if not (factor > 1 and abs(ratio - factor) <= (abs(3 * a - 1) + 1) / big_n):
            ratio_failures.append((a, ratio, factor))

    new_lower = refined_bounds(-0.9, 3).lower
    classical_lower = dorfler_bounds(-0.9, 3).lower
    ok = not mismatches and not ratio_failures
    report(
        ok,
        "criterion 5b: new lower bound >= classical one exactly where "
        "q_alpha(n) >= 0, asymptotic factor 2(alpha+3)/(alpha+5)",
        f"{len(grid_c_sq)} points, {len(exceptions)} with q < 0 "
        f"(first {exceptions[:1]}); at alpha=-0.9, n=3: "
        f"{new_lower:.2f} vs {classical_lower:.2f}",
    )
    assert mismatches == []
    assert ratio_failures == []
    assert new_lower == pytest.approx(34.93, abs=0.005)
    assert classical_lower == pytest.approx(42.86, abs=0.005)
    assert (-0.9, 3) in exceptions


def test_criterion_06_relative_error_digits():
    c0 = asymptotic_constant(0.0)
    lower, upper = asymptotic_bounds(0.0)
    r1 = c0 / lower
    r2 = upper / c0
    ok = 1.006 < r1 < 1.006585 and 1.0002 < r2 < 1.000242
    report(ok, "criterion 6: asymptotic-bound relative errors at alpha=0",
           f"c/lower={r1:.7f}, upper/c={r2:.7f}")
    assert 1.006 < r1 < 1.006585
    assert 1.0002 < r2 < 1.000242


def test_criterion_07_asymptotic_ratio():
    failures, elapsed = timed_suite(cli.verify_asymptotic)
    ok = not failures and elapsed <= 60.0
    report(ok, "criterion 7: c_n/(n c) near 1 and approaching it",
           f"{elapsed:.2f}s")
    assert failures == []
    assert elapsed <= 60.0


def test_criterion_08_bessel_zero_enclosure():
    failures = cli.verify_bessel()
    report(not failures, "criterion 8: strict zero enclosure on the 0.25-step nu grid",
           "half-integer hits exact to 1e-12")
    assert failures == []


def test_criterion_09a_asymptotic_inequalities_as_stated():
    """The two-sided asymptotic bound on the grid 1.5, 2.0, ..., 50.

    The left inequality holds at every grid point.  The right one,
    c(alpha) < 2/(alpha + 2pi - 2), was stated for alpha > 1 but holds
    strictly only for alpha > 2.  At alpha = 2 it is an equality (both sides
    are 1/pi, since the first zero of J_{1/2} is pi), checked to the
    tolerance of ``first_zero``.  On 1 < alpha < 2 it is reversed, so
    ``asymptotic_upper_large_alpha`` raises there; the spec's counterexample
    alpha = 1.5 (c = 0.3596 > 0.3458) stays asserted on the raw expression.
    """
    lower_failures = []
    upper_failures = []
    k = 0
    while True:
        a = 1.5 + 0.5 * k
        if a > 50.0 + 1e-9:
            break
        c = asymptotic_constant(a)
        if not asymptotic_bounds(a).lower < c:
            lower_failures.append(a)
        if a > 2.0 and not c < asymptotic_upper_large_alpha(a):
            upper_failures.append(a)
        k += 1

    at_two = asymptotic_upper_large_alpha(2.0)
    c_two = asymptotic_constant(2.0)
    equal_at_two = at_two == pytest.approx(1 / math.pi, rel=1e-15) and (
        c_two == pytest.approx(at_two, rel=1e-12)
    )

    c_low = asymptotic_constant(1.5)
    raw_low = 2.0 / (1.5 + 2.0 * math.pi - 2.0)

    report(
        not lower_failures and not upper_failures and equal_at_two,
        "criterion 9a: two-sided asymptotic bound on a grid in [1.5, 50], "
        "right side strict for alpha > 2, equality at 2",
        f"left-inequality failures: {len(lower_failures)}; right-inequality "
        f"failures at alpha={upper_failures}; alpha=1.5 reversed: "
        f"c = {c_low:.4f} > {raw_low:.4f}",
    )
    assert lower_failures == []
    assert upper_failures == []
    assert equal_at_two, (at_two, c_two)
    assert raw_low < c_low
    assert c_low == pytest.approx(0.3596, abs=5e-5)
    assert raw_low == pytest.approx(0.3458, abs=5e-5)
    with pytest.raises(ValueError):
        asymptotic_upper_large_alpha(1.5)


def test_criterion_09b_upper_bound_crossings():
    beats_at_10 = asymptotic_bounds(10.0).upper < asymptotic_upper_large_alpha(10.0)
    loses_at_100 = asymptotic_bounds(100.0).upper > asymptotic_upper_large_alpha(100.0)

    def gap(a):
        return asymptotic_bounds(a).upper - asymptotic_upper_large_alpha(a)

    def crossing(lo, hi):
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if gap(lo) * gap(mid) <= 0:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    x1 = crossing(2.0, 10.0)
    x2 = crossing(10.0, 100.0)
    ok = (
        beats_at_10
        and loses_at_100
        and abs(x1 - 2.045) <= 0.01
        and abs(x2 - 47.762) <= 0.01
    )
    report(ok, "criterion 9b: upper-bound crossing points",
           f"located {x1:.3f} and {x2:.3f}")
    assert beats_at_10 and loses_at_100
    assert abs(x1 - 2.045) <= 0.01
    assert abs(x2 - 47.762) <= 0.01


def test_criterion_10_ratio_below_two():
    k = 0
    worst = 0.0
    while True:
        a = -0.99 + 0.1 * k
        if a >= 500.0:
            break
        worst = max(worst, ratio_r(a))
        k += 1
    first = ratio_r(-0.99)
    ok = worst < 2.0 and first < 1.01
    report(ok, "criterion 10: bound ratio stays below two out to alpha=500",
           f"max r={worst:.6f} over {k} samples, r(-0.99)={first:.6f}")
    assert worst < 2.0
    assert first < 1.01


def test_criterion_11_residual_identities():
    failures = cli.verify_identities()
    report(not failures, "criterion 11: residual positivity and exact identities",
           "dense grid + exact rational checks")
    assert failures == []


def test_criterion_12_power_sum_chain(grid_c_sq):
    failures = []
    for (a, n), x_n in grid_c_sq.items():
        b1, b2, b3 = reciprocal_b123(a, n)
        p1, p2, p3 = power_sums(b1, b2, b3)
        chain = (
            b1 / n < p2 / p1 < p3 / p2 < x_n < p3 ** (1 / 3)
            and x_n < math.sqrt(p2) < b1
        )
        if not chain:
            failures.append((a, n))
    report(not failures, "criterion 12: strict power-sum chain on the grid",
           f"{len(grid_c_sq)} points")
    assert failures == []
