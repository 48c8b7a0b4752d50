"""Tail functions and the nonlinear transform bounding normalized sum tails.

A tail function T is nonincreasing and right continuous with T(0) = 1 and
T(x) -> 0.  For a martingale-difference sequence whose individual one-sided
tails are dominated by T, the transform

    W[T](x) = min(1, inf over v > 0 of [exp(-x**2 / (8 v**2)) + M2(T, v)])

bounds the tail of every normalized partial sum at x > 1 uniformly in the
number of summands, where M2(T, v) = -integral over (v, inf) of y**2 dT(y)
is the truncated second moment carried by the tail.  Since T is
nonincreasing its differential is nonpositive, so M2 >= 0 and the bracket
is a sum of two nonnegative terms minimized over the split point v, exactly
for each form of T.  The forms of T and their keys are the table `FORMS`.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import UcltError, check_keys, finite

#: Each form's keys, all required, and what each holds: a number or a list of them.
FORMS = {"closed_weibull": {"K": float, "q": float},
         "tabulated": {"x_grid": tuple, "values": tuple}, "degenerate_zero": {}}
_FIELDS = {"K": "scale", "q": "shape"}  # the fields that K and q fill

#: Most terms `_upper_gamma_q` takes of its series or continued fraction.
Q_MAX_TERMS = 10_000
# the unit roundoff of a double, 2**-53
_UNIT = 2.0 ** -53
# Gamma(s) is a finite double below s = 171.62
_GAMMA_FINITE = 171.0
#: Least shape q of a closed_weibull tail.  Q(s, x) with s = 1 + 2/q needs
#: the most terms near x = s, where it stays within `Q_MAX_TERMS` up to
#: s = 1.7e6 (measured over x = s +- 3 sqrt(s)); this q keeps s near 1e6.
MIN_SHAPE = 2e-6


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
        if self.form not in FORMS:
            raise ValueError(f"unknown tail form {self.form!r}")
        for key, kind in FORMS[self.form].items():
            finite(key, self.to_dict()[key], kind is tuple)
        if self.form == "closed_weibull" and not (self.scale > 0 and self.shape >= MIN_SHAPE):
            raise ValueError(f"closed_weibull needs K > 0 and q >= {MIN_SHAPE:g}")
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
        """The form and the form's `FORMS` keys."""
        vals = {key: getattr(self, _FIELDS.get(key, key)) for key in FORMS[self.form]}
        return {"form": self.form,
                **{key: list(v) if isinstance(v, tuple) else v for key, v in vals.items()}}

    @classmethod
    def from_dict(cls, d: dict) -> "TailFunction":
        """Reads what `to_dict` writes against `FORMS`; ValueError naming the key
        on a key the form does not take, a missing one or one of another type."""
        if not (isinstance(d, dict) and isinstance(d.get("form"), str) and d["form"] in FORMS):
            raise ValueError(f"expected an object with a form of {', '.join(FORMS)}, got {d!r}")
        kinds = FORMS[d["form"]]
        check_keys({"form": d["form"], **dict.fromkeys(kinds, ...)}, d, d["form"])
        return cls(d["form"], **{_FIELDS.get(key, key): finite(key, d[key], kind is tuple)
                                 for key, kind in kinds.items()})

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _log1pmx(t: float) -> float:
    """log(1 + t) - t, without the cancellation of the direct formula near 0."""
    if t <= -1.0:  # 1 + t rounded to 0
        return -math.inf
    if abs(t) > 0.5:
        return math.log1p(t) - t
    # log(1 + t) = 2 atanh(u) = 2 (u + u**3/3 + ...) with u = t / (2 + t), and t - 2u = t u
    u = t / (2.0 + t)
    u2, power, tail, k = u * u, u, 0.0, 3
    while True:
        power *= u2
        term = power / k
        tail += term
        if abs(term) <= _UNIT * abs(tail):
            return 2.0 * tail - t * u
        k += 2


def _gamma_prefix(s: float, x: float) -> float:
    """x**s * exp(-x) / Gamma(s) for s >= 1 and x > 0.

    While Gamma(s) is finite this is pow, exp and gamma, each to about an
    ulp: with m the least power of two that keeps x**(s/m) and exp(-x/m) in
    range, the m-th root is formed and squared log2(m) times.  Above that,
    Stirling's series for log Gamma(s) leaves s * (log1p(t) - t), with
    t = (x - s)/s, as the one large term.
    """
    if s < _GAMMA_FINITE:
        m = 1
        while abs(s * math.log(x)) > 700.0 * m or x > 700.0 * m:
            m *= 2
        y = math.pow(x, s / m) * math.exp(-x / m) / math.pow(math.gamma(s), 1.0 / m)
        while m > 1:
            y *= y
            m //= 2
        return y
    # log Gamma(s) = (s - 1/2) log s - s + log(2 pi)/2 + 1/(12 s) - 1/(360 s**3) + ...
    r = 1.0 / (s * s)
    stirling = (1.0 / 12.0 - r * (1.0 / 360.0 - r / 1260.0)) / s
    return math.exp(s * _log1pmx((x - s) / s)
                    + 0.5 * math.log(s / (2.0 * math.pi)) - stirling)


def _upper_gamma_q(s: float, x: float) -> float:
    """Regularized upper incomplete gamma function Q(s, x) for s >= 1, x >= 0.

    Below x = s, Q = 1 - P with P = x**s e**-x / Gamma(s + 1) times the power
    series sum over n of x**n / ((s + 1) ... (s + n)); from x = s on, Q is
    x**s e**-x / Gamma(s) times Legendre's continued fraction
    1/(x + 1 - s - 1 (1 - s)/(x + 3 - s - 2 (2 - s)/(x + 5 - s - ...))).
    The series stops at the first term below 2**-53 of its sum; the fraction
    doubles its depth from 4 until two depths agree to 2**-53.  Both are
    evaluated from their last term back, so rounding errors do not compound
    along the recurrence.  Raises `UcltError` past `Q_MAX_TERMS` terms.
    """
    if x <= 0.0:
        return 1.0
    if x < s:
        prefix = _gamma_prefix(s, x)
        n, term, total = 0, 1.0, 1.0
        while term > _UNIT * total:
            n += 1
            if n > Q_MAX_TERMS:
                raise UcltError(f"incomplete gamma series at s = {s!r}, x = {x!r} "
                                f"did not converge in {Q_MAX_TERMS} terms")
            term *= x / (s + n)
            total += term
        total = 1.0
        for k in range(n, 0, -1):
            total = 1.0 + x / (s + k) * total
        return 1.0 - prefix / s * total
    if x == math.inf or s * math.log(x) - x - math.lgamma(s) < -800.0:
        return 0.0  # Q < x**s e**-x / Gamma(s) is below the least subnormal
    prefix = _gamma_prefix(s, x)
    n, previous = 4, None
    while n <= Q_MAX_TERMS:
        t = x - s + 2.0 * n + 1.0
        for i in range(n, 0, -1):
            t = x - s + 2.0 * i - 1.0 - i * (i - s) / t
        if previous is not None and abs(t - previous) <= _UNIT * abs(t):
            return prefix / t
        n, previous = 2 * n, t
    raise UcltError(f"incomplete gamma continued fraction at s = {s!r}, x = {x!r} "
                    f"did not converge in {Q_MAX_TERMS} terms")


def tail_second_moment(T: TailFunction, v: float) -> float:
    """Second moment carried above v: -integral over (v, inf) of y**2 dT(y).

    For closed_weibull(K, q) the substitution t = (y/K)**q gives
    K**2 * Gamma(s) * Q(s, (v/K)**q) with s = 1 + 2/q, with Q the regularized
    upper incomplete gamma function (`_upper_gamma_q`).  The product is
    formed directly while Gamma(s) is finite and in log space above, and
    comes back as +inf only beyond float range.  Pure-jump shapes sum y**2
    times the mass over jumps strictly above v, correctly rounded.
    """
    if math.isnan(v):
        raise ValueError(f"v must be a number, got {v!r}")
    v = max(v, 0.0)
    if T.form != "closed_weibull":
        return math.fsum(y * y * mass for y, mass in T.jumps() if y > v)
    K, q = T.scale, T.shape
    s = 1.0 + 2.0 / q
    ratio = v / K
    try:  # through logs where v/K overflows though (v/K)**q may not
        z = ratio ** q if math.isfinite(ratio) else math.exp(q * (math.log(v) - math.log(K)))
    except OverflowError:  # beyond float range, where Q is 0
        return 0.0
    upper = _upper_gamma_q(s, z)
    if upper == 0.0:
        return 0.0
    if s < _GAMMA_FINITE:
        return K * (K * (math.gamma(s) * upper))
    try:
        return math.exp(2.0 * math.log(K) + math.lgamma(s) + math.log(upper))
    except OverflowError:
        return math.inf


def _bisect(test, lo: float, hi: float) -> float:
    """Where `test` turns from false at lo to true at hi, to a few ulps."""
    tol = 4.0 * _UNIT * (1.0 + abs(lo) + abs(hi))
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if test(mid) else (mid, hi)
    return hi


def w_operator(T: TailFunction, x: float) -> float:
    """The uniform-sum tail transform min(1, inf_v [Gaussian term + tail term]).

    The infimum over the split point v is exact.  For the pure-jump forms M2
    is constant between jumps while the Gaussian term rises, so it is the
    least of M2(0+) and the bracket at each jump.  For closed_weibull(K, q)
    the bracket rises in u = log v exactly where h(u) = log(x**2/4q)
    + q log K - (x/v)**2/8 - (q+4) u + (v/K)**q > 0, and h' is convex with
    its least value at e**((q+2) u0) = x**2 K**q/(2 q**2), so the infimum is
    at one of h's rising zeros, at most one left of u0 and one right of it.
    """
    if not 0.0 < x < math.inf:
        raise ValueError(f"x must be finite and positive, got {x!r}")
    if T.form != "closed_weibull":
        terms = [y * y * mass for y, mass in T.jumps()]  # M2(x_j) sums those past j
        return min([1.0, math.fsum(terms)]
                   + [math.exp(-(x / y) * (x / y) / 8.0) + math.fsum(terms[j + 1:])
                      for j, (y, _) in enumerate(T.jumps()) if y > 0.0])
    K, q = T.scale, T.shape
    l8, lk, q4 = 2.0 * math.log(x) - math.log(8.0), math.log(K), q + 4.0
    c = l8 + math.log(2.0 / q) + q * lk  # h(u) = c - q4 u - e**a + e**b

    def rises(u):  # h(u) > 0, from the logs a and b of (x/v)**2/8 and (v/K)**q
        a, b = l8 - 2.0 * u, q * (u - lk)
        return b > a if max(a, b) > 700.0 else c - q4 * u - math.exp(a) + math.exp(b) > 0.0

    def steep(u):  # h'(u) > 0, called only where both terms are below q + 4
        return 2.0 * math.exp(l8 - 2.0 * u) + q * math.exp(q * (u - lk)) > q4

    u0 = u1 = u2 = (l8 + q * lk + 2.0 * math.log(2.0 / q)) / (q + 2.0)  # h rises elsewhere
    if q * (u0 - lk) + math.log(q * (q + 2.0) / (2.0 * q4)) < 0.0:  # h falls on [u1, u2]
        u1 = _bisect(lambda u: not steep(u), 0.5 * (l8 + math.log(2.0 / q4)), u0)
        u2 = _bisect(steep, u0, lk + math.log(q4 / q) / q)
    best = 1.0
    for end, step in ((u1, -1.0), (u2, 1.0)):
        if rises(end) != (step > 0.0):  # h has a zero on this piece
            while rises(end + step) != (step > 0.0):
                step *= 2.0
            u = _bisect(rises, min(end, end + step), max(end, end + step))
            v = math.exp(min(max(u, -745.0), 709.78))  # kept in float range
            best = min(best, math.exp(-(x / v) * (x / v) / 8.0) + tail_second_moment(T, v))
    return best


def uniform_sum_tail_bound(T: TailFunction, x: float) -> float:
    """Uniform-in-n tail bound for normalized martingale-difference sums.

    For any adapted difference sequence whose one-sided tails are dominated
    by T, the tail of every classically normalized partial sum at level
    x > 1 is at most this value; the same bound covers any weighted sum with
    unit sum of squared coefficients.
    """
    if x <= 1.0:
        raise ValueError("the uniform bound is asserted for x > 1 only")
    return w_operator(T, x)


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
