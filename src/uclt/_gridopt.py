"""One-dimensional minimization by scan: a log-spaced grid plus golden-section refinement.

The scan serves the extremizations that have no closed form: the conjugate
`psi.young_fenchel` of an arbitrary callable, and the ``method="grid"``
reference of `psi.psi_lower_star` that checks the exact transform.  It scans
`NODES` log-spaced nodes and refines between the neighbours of the best node
by golden section, to the fixed relative width `TOL`.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

#: Node count of the scan.
NODES = 512

#: Relative bracket width at which golden-section refinement stops.
TOL = 1e-9


def log_grid(lo: float, hi: float, nodes: int) -> np.ndarray:
    """Geometrically spaced grid on [lo, hi]; requires 0 < lo <= hi."""
    if not (0.0 < lo <= hi):
        raise ValueError(f"log_grid needs 0 < lo <= hi, got ({lo}, {hi})")
    if lo == hi or nodes == 1:
        return np.array([lo])
    return np.geomspace(lo, hi, nodes)


def golden(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """Golden-section minimum of f on the bracket [a, b] (either order): ties
    go left, and it stops once b - a <= TOL * max(|a|, |b|, 1).  Returns
    (argmin, min)."""
    if b < a:
        a, b = b, a
    step = _INVPHI * (b - a)
    c, d = b - step, a + step
    fc, fd = f(c), f(d)
    width = TOL * max(abs(a), abs(b), 1.0)
    while (b - a) > width:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return (c, fc) if fc <= fd else (d, fd)


def minimize(f: Callable, lo: float, hi: float) -> tuple[float, float]:
    """Minimum of f over [lo, hi]: the best of `NODES` log-spaced nodes,
    refined by `golden` between its neighbours when that finds a lower value.

    f maps the array of nodes to their values and a float to its value.
    Infinite or nan node values are ignored; with nothing finite the result
    is (lo, +inf).  Returns (argmin, min).
    """
    grid = log_grid(lo, hi, NODES)
    vals = f(grid)
    vals = np.where(np.isnan(vals), np.inf, vals)
    i = int(np.argmin(vals))
    if not math.isfinite(vals[i]):
        return float(grid[0]), math.inf
    x, v = golden(f, float(grid[max(i - 1, 0)]), float(grid[min(i + 1, grid.size - 1)]))
    return (float(x), float(v)) if v < vals[i] else (float(grid[i]), float(vals[i]))
