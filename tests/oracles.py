"""Closed forms of c_n(alpha)^2 at n = 1 and 2, the oracles that the
eigensolver is checked against at a float alpha."""

import math


def exact_c1_sq(a: float) -> float:
    """Closed form c_1(a)^2 = 1/(1 + a)."""
    return 1.0 / (1.0 + a)


def exact_c2_sq(a: float) -> float:
    """Closed form c_2(a)^2 = (3(a+2) + sqrt((a+2)(a+10))) / (2(a+1)(a+2))."""
    return (3 * (a + 2) + math.sqrt((a + 2) * (a + 10))) / (2 * (a + 1) * (a + 2))
