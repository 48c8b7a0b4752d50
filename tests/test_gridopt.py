"""The golden-section loop against the one-bracket reference iteration, and the scan."""
import math

import numpy as np

from uclt._gridopt import golden, minimize

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def scalar_golden(f, a, b, tol=1e-9):
    """The one-bracket iteration `golden` must reproduce."""
    if b < a:
        a, b = b, a
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    scale = max(abs(a), abs(b), 1.0)
    while (b - a) > tol * scale:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    if fc <= fd:
        return c, fc
    return d, fd


# one objective per bracket: smooth interior minima, minima at either end,
# a flat stretch (ties), brackets given reversed, and a degenerate one
CENTRES = np.array([0.3, 2.0, 5.0, -1.0, 40.0, 7.5, 1.0])
A = np.array([0.0, 1.0, 5.5, 8.0, 10.0, 9.0, 1.0])
B = np.array([1.0, 3.5, 9.0, 3.0, 1000.0, 6.0, 1.0])


def objective(x, k):
    d2 = float(x - CENTRES[k]) ** 2
    return min(d2, 0.25) if k == 3 else math.log1p(d2)


def test_golden_equals_scalar_iteration():
    for k in range(A.size):
        f = lambda t, k=k: objective(t, k)
        assert golden(f, float(A[k]), float(B[k])) == scalar_golden(f, float(A[k]), float(B[k]))


def test_nothing_finite():
    assert minimize(lambda p: np.full(np.shape(p), math.inf), 1.0, 3.0) == (1.0, math.inf)
    assert minimize(lambda p: np.full(np.shape(p), np.nan), 1.0, 2.0) == (1.0, math.inf)
