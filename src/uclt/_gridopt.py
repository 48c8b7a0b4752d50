"""One-dimensional extremization: coarse log-spaced grid plus golden-section refinement.

All sup/inf computations in the toolkit are extremizations of smooth scalar
functions over an interval, so a dense grid scan followed by one stage of
golden-section refinement around the best node is accurate and predictable.
The refinement stops at the fixed relative width `TOL`.
"""
from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

#: Relative bracket width at which golden-section refinement stops.
TOL = 1e-9


def log_grid(lo: float, hi: float, nodes: int) -> np.ndarray:
    """Geometrically spaced grid on [lo, hi]; requires 0 < lo <= hi."""
    if not (0.0 < lo <= hi):
        raise ValueError(f"log_grid needs 0 < lo <= hi, got ({lo}, {hi})")
    if lo == hi or nodes == 1:
        return np.array([lo])
    return np.geomspace(lo, hi, nodes)


def golden_minimize(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
                    a, b) -> tuple[np.ndarray, np.ndarray]:
    """Golden-section minima on the brackets [a[k], b[k]], advanced together.

    `f(points, rows)` returns the objective of bracket ``rows[j]`` at
    ``points[j]``.  Each bracket follows the one-bracket iteration exactly
    (same updates, ties go left, stop once b - a <= TOL * max(|a|, |b|, 1)),
    so its result does not depend on the other brackets.  Returns the
    arrays (argmin, min).
    """
    a = np.array(a, dtype=float, ndmin=1)
    b = np.array(b, dtype=float, ndmin=1)
    a, b = np.where(b < a, b, a), np.where(b < a, a, b)
    step = _INVPHI * (b - a)
    c, d = b - step, a + step
    rows = np.arange(a.size)
    fc, fd = f(c, rows), f(d, rows)
    width = TOL * np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
    best_x, best_v = np.empty(a.size), np.empty(a.size)
    while True:
        run = (b - a) > width
        if not run.all():
            # brackets that stopped report their better interior point
            stop = ~run
            left = fc[stop] <= fd[stop]
            best_x[rows[stop]] = np.where(left, c[stop], d[stop])
            best_v[rows[stop]] = np.where(left, fc[stop], fd[stop])
            a, b, c, d, fc, fd, width, rows = (
                v[run] for v in (a, b, c, d, fc, fd, width, rows))
        if not rows.size:
            return best_x, best_v
        # left: b, d, fd = d, c, fc and a new c; right: a, c, fc = c, d, fd and a new d
        left = fc <= fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        step = _INVPHI * (b - a)
        c, d = np.where(left, b - step, d), np.where(left, c, a + step)
        vals = f(np.where(left, c, d), rows)
        fc, fd = np.where(left, vals, fd), np.where(left, fc, vals)


def minimize_rows(f: Callable[[np.ndarray, np.ndarray], np.ndarray], grid: Sequence[float],
                  nrows: int) -> tuple[np.ndarray, np.ndarray]:
    """Minimum of each of `nrows` objectives over one grid, each refined
    between the neighbours of its best node.

    `f(points, rows)` evaluates objective ``rows`` at ``points`` with numpy
    broadcasting: the scan passes a (1, nodes) grid against (nrows, 1) row
    numbers, the refinement two equal-length 1-D arrays.  Infinite or nan
    grid values are ignored; a row with nothing finite gets (+inf at its
    best node).  Returns the arrays (argmin, min).
    """
    grid = np.asarray(grid, dtype=float)
    rows = np.arange(nrows)
    vals = f(grid[None, :], rows[:, None])
    vals = np.where(np.isnan(vals), np.inf, vals)
    i = np.argmin(vals, axis=1)
    best_x, best_v = grid[i], vals[rows, i]
    best_v[~np.isfinite(best_v)] = np.inf
    a = grid[np.maximum(i - 1, 0)]
    b = grid[np.minimum(i + 1, grid.size - 1)]
    todo = rows[np.isfinite(best_v) & (b > a)]
    if todo.size:
        x, v = golden_minimize(lambda p, k: f(p, todo[k]), a[todo], b[todo])
        better = v < best_v[todo]
        best_x[todo[better]] = x[better]
        best_v[todo[better]] = v[better]
    return best_x, best_v
