"""Tail functions and the nonlinear transform bounding normalized sum tails.

A tail function T is nonincreasing and right continuous with T(0) = 1 and
T(x) -> 0.  For a martingale-difference sequence whose individual one-sided
tails are dominated by T, the transform

    W[T](x) = min(1, inf over v > 0 of [exp(-x**2 / (8 v**2)) + M2(T, v)])

bounds the tail of every normalized partial sum at x > 1 uniformly in the
number of summands, where M2(T, v) = -integral over (v, inf) of y**2 dT(y)
is the truncated second moment carried by the tail.  Since T is
nonincreasing its differential is nonpositive, so M2 >= 0 and the bracket
is a sum of two nonnegative terms minimized over the split point v.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincc, gammaln

from ._gridopt import log_grid, minimize_rows

_FORMS = ("closed_weibull", "tabulated", "degenerate_zero")


@dataclass(frozen=True)
class TailFunction:
    """Dominating tail in one of three shapes.

    closed_weibull(K, q): T(x) = exp(-(x/K)**q) for x >= 0.
    tabulated: right-continuous step function through (x_grid, values); the
        last tabulated value must be (numerically) zero so that T -> 0.
    degenerate_zero: all mass at zero, T(x) = 0 for every x > 0.
    """

    form: str
    scale: float | None = None      # K
    shape: float | None = None      # q
    x_grid: tuple[float, ...] | None = None
    values: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.form not in _FORMS:
            raise ValueError(f"unknown tail form {self.form!r}")
        if self.form == "closed_weibull":
            if not (self.scale and self.scale > 0 and self.shape and self.shape > 0):
                raise ValueError("closed_weibull needs K > 0 and q > 0")
        elif self.form == "tabulated":
            xs = np.asarray(self.x_grid, dtype=float)
            vs = np.asarray(self.values, dtype=float)
            if xs.ndim != 1 or xs.size == 0 or xs.shape != vs.shape:
                raise ValueError("tabulated needs matching x_grid/values")
            if xs[0] < 0 or np.any(np.diff(xs) <= 0):
                raise ValueError("x_grid must be ascending and nonnegative")
            if np.any(vs < 0) or np.any(vs > 1) or np.any(np.diff(vs) > 1e-12):
                raise ValueError("values must be nonincreasing within [0, 1]")
            if vs[-1] > 1e-9:
                raise ValueError("tabulated tail must decay to (numerically) zero")

    @classmethod
    def closed_weibull(cls, K: float, q: float) -> "TailFunction":
        return cls(form="closed_weibull", scale=float(K), shape=float(q))

    @classmethod
    def tabulated(cls, x_grid, values) -> "TailFunction":
        return cls(form="tabulated", x_grid=tuple(float(x) for x in x_grid),
                   values=tuple(float(v) for v in values))

    @classmethod
    def degenerate_zero(cls) -> "TailFunction":
        return cls(form="degenerate_zero")

    @classmethod
    def step(cls, cutoff: float) -> "TailFunction":
        """T = 1 below `cutoff` and 0 from it on (bounded variables)."""
        return cls.tabulated((0.0, cutoff), (1.0, 0.0))

    def value(self, x: float) -> float:
        """T(x), evaluated right-continuously; T(x) = 1 for x < 0 by convention."""
        if x < 0:
            return 1.0
        if self.form == "degenerate_zero":
            return 1.0 if x == 0 else 0.0
        if self.form == "closed_weibull":
            return math.exp(-((x / self.scale) ** self.shape))
        xs, vs = self.x_grid, self.values
        if x < xs[0]:
            return 1.0
        idx = int(np.searchsorted(np.asarray(xs), x, side="right")) - 1
        return vs[idx]

    def jumps(self):
        """(location, mass) pairs of the nonpositive differential, as positive
        masses; only meaningful for the pure-jump shapes."""
        if self.form == "degenerate_zero":
            return [(0.0, 1.0)]
        if self.form == "tabulated":
            out = []
            prev = 1.0
            for x, v in zip(self.x_grid, self.values):
                if prev - v > 0:
                    out.append((x, prev - v))
                prev = v
            return out
        raise ValueError("closed-form tails have a density, not jumps")

    def to_dict(self) -> dict:
        d = {"form": self.form}
        if self.form == "closed_weibull":
            d["K"] = self.scale
            d["q"] = self.shape
        elif self.form == "tabulated":
            d["x_grid"] = list(self.x_grid)
            d["values"] = list(self.values)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TailFunction":
        form = d["form"]
        if form == "closed_weibull":
            return cls.closed_weibull(d["K"], d["q"])
        if form == "tabulated":
            return cls.tabulated(d["x_grid"], d["values"])
        if form == "degenerate_zero":
            return cls.degenerate_zero()
        raise ValueError(f"unknown tail form {form!r}")

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def tail_second_moment(T: TailFunction, v):
    """Second moment carried above v: -integral over (v, inf) of y**2 dT(y).

    For closed_weibull(K, q) the substitution t = (y/K)**q gives
    K**2 * Gamma(1 + 2/q) * Q(1 + 2/q, (v/K)**q), with Q the regularized upper
    incomplete gamma function; it is evaluated in log space and comes back as
    +inf only beyond float range.  Pure-jump shapes sum y**2 over jumps
    strictly above v.  A scalar v gives a float, an array of split points
    the array of their moments.
    """
    v = np.maximum(np.asarray(v, dtype=float), 0.0)
    if T.form == "degenerate_zero":
        m2 = np.zeros_like(v)
    elif T.form == "tabulated":
        x, mass = np.array(T.jumps()).T
        m2 = np.where(x > v[..., None], x * x * mass, 0.0).sum(axis=-1)
    else:
        K, q = T.scale, T.shape
        s = 1.0 + 2.0 / q
        with np.errstate(divide="ignore", over="ignore"):  # Q = 0 gives 0, overflow +inf
            m2 = np.exp(2.0 * math.log(K) + float(gammaln(s))
                        + np.log(gammaincc(s, (v / K) ** q)))
    return float(m2) if m2.ndim == 0 else m2


def w_operator(T: TailFunction, x: float, *, nodes: int = 512,
               v_lo_frac: float = 1e-4, v_hi_frac: float = 1e4,
               tol: float = 1e-9) -> float:
    """The uniform-sum tail transform min(1, inf_v [Gaussian term + tail term]).

    The infimum over the split point v is taken on a log-spaced grid spanning
    [v_lo_frac * x, v_hi_frac * x] with golden-section refinement; the scan
    evaluates the whole grid in one call.
    """
    if x <= 0:
        raise ValueError("x must be positive")

    def objective(v: np.ndarray, rows) -> np.ndarray:
        return np.exp(-x * x / (8.0 * v * v)) + tail_second_moment(T, v)

    grid = log_grid(v_lo_frac * x, v_hi_frac * x, nodes)
    _, best = minimize_rows(objective, grid, 1, tol=tol)
    return min(1.0, float(best[0]))


def uniform_sum_tail_bound(T: TailFunction, x: float, **kwargs) -> float:
    """Uniform-in-n tail bound for normalized martingale-difference sums.

    For any adapted difference sequence whose one-sided tails are dominated
    by T, the tail of every classically normalized partial sum at level
    x > 1 is at most this value; the same bound covers any weighted sum with
    unit sum of squared coefficients.
    """
    if x <= 1.0:
        raise ValueError("the uniform bound is asserted for x > 1 only")
    return w_operator(T, x, **kwargs)


def weibull_sum_bound(K: float, q: float, x: float, c_fit: float) -> float:
    """Stretched-exponential decay class of normalized-sum tails.

    For individual tails within exp(-(x/K)**q) the normalized sums decay at
    least like exp(-c * (x/K)**(2q/(2+q))); the exponent is structural, the
    constant is supplied by the caller (see fit_tail_constant).
    """
    if K <= 0 or q <= 0 or c_fit <= 0:
        raise ValueError("K, q, c_fit must be positive")
    if x < 0:
        raise ValueError("x must be nonnegative")
    return math.exp(-c_fit * (x / K) ** (2.0 * q / (2.0 + q)))


def subq_tail_equivalence(K: float, q: float, x: float, c_fit: float) -> float:
    """Tail bound exp(-c * (x/K)**q) characterizing a finite sub-q norm K.

    The converse direction (finite norm from a dominated tail) is a Monte
    Carlo check in the simulation module, not a formula.
    """
    if K <= 0 or q <= 0 or c_fit <= 0:
        raise ValueError("K, q, c_fit must be positive")
    if x <= 1.0:
        raise ValueError("the equivalence is asserted for x > 1 only")
    return math.exp(-c_fit * (x / K) ** q)


def fit_tail_constant(x_values, tail_values, K: float, q: float,
                      exponent: float | None = None) -> float:
    """Largest c for which exp(-c * (x/K)**e) dominates the observed tails.

    `exponent` defaults to q; pass 2q/(2+q) to calibrate the normalized-sum
    decay class instead.  Zero observed tails impose no constraint; returns
    +inf if nothing constrains c.
    """
    e = q if exponent is None else exponent
    best = math.inf
    for x, t in zip(x_values, tail_values):
        if t <= 0.0:
            continue
        if t >= 1.0:
            return 0.0
        best = min(best, -math.log(t) / ((x / K) ** e))
    return best
