"""Batched golden-section search against the one-bracket reference loop."""
import math

import numpy as np
import pytest

from uclt._gridopt import golden_minimize, log_grid, minimize_rows

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def scalar_golden(f, a, b, tol=1e-9):
    """The one-bracket iteration every batched bracket must reproduce."""
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


def batched_objective(x, rows):
    return np.array([objective(xv, k) for xv, k in zip(x, rows)])


def test_batched_golden_equals_scalar_iteration():
    xs, vs = golden_minimize(batched_objective, A, B)
    for k in range(A.size):
        x, v = scalar_golden(lambda t, k=k: objective(t, k), float(A[k]), float(B[k]))
        assert xs[k] == x and vs[k] == v


def test_brackets_are_independent():
    xs, vs = golden_minimize(batched_objective, A, B)
    for k in range(A.size):
        x1, v1 = golden_minimize(lambda p, r, k=k: batched_objective(p, np.full(r.shape, k)),
                                 A[k:k + 1], B[k:k + 1])
        assert (x1[0], v1[0]) == (xs[k], vs[k])


def test_rows_match_one_row_scan():
    grid = log_grid(0.5, 50.0, 64)
    centres = np.array([0.2, 1.0, 3.3, 3.3, 49.0, 80.0])

    def f(p, rows):
        return np.log1p((p - centres[rows]) ** 2)

    xs, vs = minimize_rows(f, grid, centres.size)
    for k, c in enumerate(centres):
        def one_row(p, rows, c=c):
            return np.array([math.log1p((t - c) ** 2) for t in np.ravel(p)]).reshape(np.shape(p))
        x, v = minimize_rows(one_row, grid, 1)
        assert (xs[k], vs[k]) == (x[0], v[0])


def test_nothing_finite():
    x, v = minimize_rows(lambda p, r: np.full(np.shape(p), math.inf), [1.0, 2.0, 3.0], 1)
    assert (x[0], v[0]) == (1.0, math.inf)
    xs, vs = minimize_rows(lambda p, r: np.full(np.broadcast(p, r).shape, np.nan),
                           [1.0, 2.0], 2)
    assert np.all(vs == np.inf)


@pytest.mark.parametrize("n", [0, 1])
def test_small_batches(n):
    xs, vs = golden_minimize(batched_objective, A[:n], B[:n])
    assert xs.shape == vs.shape == (n,)
