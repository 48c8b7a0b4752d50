"""Generating functions for moment-indexed norm families and their calculus.

A generating function ``psi`` assigns to every moment order ``p`` a positive
weight, finite exactly on an open support interval ``(A, B)`` (``B`` may be
infinite).  The induced norm of a random quantity with moment curve
``c(p) = |xi|_p`` is ``sup_p c(p)/psi(p)``; the limiting degenerate shape
concentrated at a single order ``r`` recovers the plain ``L_r`` norm.  The
forms and their keys are the table `FORMS` (`PsiFunction.from_dict`).

The module also provides the transforms built on top of psi:

* the moment-inequality rescaling ``psi_R(p) = (p/log p) * psi(p)``,
* the lower transform ``psi_*(x) = inf_{y in (0,1)} [x*y + log psi(1/y)]``,
* the restricted convex conjugate ``g*(y) = sup_{x >= 2} (x*y - g(x))``,
* the exponential tail bound and the matching Orlicz-type N-function.

Conventions: ``c/inf == 0`` when a weight is infinite, and orders stop at
`DEFAULT_P_CAP`.  On each piece of `PsiFunction.pieces`, log psi is linear in
t = log p plus one ``t - log t`` per rescaling, so the lower transform and the
conjugate of ``p * log psi(p)`` are exact, piece by piece (Rockafellar,
*Convex Analysis*, 1970; Lucet, 1997).  Only `young_fenchel` and the
``method="grid"`` reference of `psi_lower_star` scan (`_gridopt.minimize`).
"""
from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from . import _gridopt
from .tails import _bisect
from .errors import (EmptyDomain, EmptySupportOverlap, InvalidSupport, MissingData, check_keys,
                     finite)

INF = math.inf

#: Grid cap standing in for an unbounded support endpoint.  Reported values
#: obtained under this truncation are labelled as such by callers.
DEFAULT_P_CAP = 1024.0

#: Monte Carlo margin, in standard errors, of every statistical assertion.
SE_MARGIN = 3.0

#: Groups of the delete-a-group jackknife of `MomentCurve.from_samples`.
JACKKNIFE_GROUPS = 32

#: Values per slab of `_abs_power_sums`, to stay in L2: 16 rows of 64 by 45.
_SLAB_BUDGET = 16 * 64 * 45

#: Each form's keys besides ``form`` and ``support``, all required, and what each
#: holds: a finite number, a list of them or (dict) a generating function.
FORMS = {"closed_power": {"q": float}, "degenerate": {"r": float},
         "tabulated": {"grid": tuple, "values": tuple},
         "scaled": {"factor": float, "base": dict}, "rosenthal": {"base": dict}}


class Pieces(NamedTuple):
    """psi in t = log p: log psi(e**t) = ell[i] + b[i]*(t - t[i]) + c*(t - log t)
    on [t[i], t[i+1]].  One node and no piece is a point shape, finite at p[0]
    alone, where log psi is ell[0]."""

    p: np.ndarray       # node orders, ascending
    ell: np.ndarray     # log psi at the nodes, less the c term
    b: np.ndarray       # slope of each piece
    c: int = 0          # rosenthal wrappers around the pieces

    def node_log_psi(self) -> np.ndarray:
        """log psi at the nodes (+inf at p = 1 when c > 0)."""
        t = np.log(self.p)
        with np.errstate(divide="ignore"):
            return self.ell + self.c * (t - np.log(t)) if self.c else self.ell

    def clip(self, lo: float, hi: float) -> "Pieces":
        """The table on the orders [lo, hi], with a node added where an end
        cuts a piece.  Raises EmptyDomain when no interval of orders is left."""
        p = self.p
        lo, hi = max(lo, p[0]), min(hi, p[-1])
        if not hi > lo:
            raise EmptyDomain(f"psi is finite on no interval of orders in [{lo:g}, {hi:g}]")
        i = int(np.searchsorted(p, lo, "right")) - 1     # lo lies on piece i
        j = int(np.searchsorted(p, hi))                  # hi lies on piece j - 1
        b = self.b[i:j]
        ends = (self.ell[i] + b[0] * math.log(lo / p[i]), self.ell[j] + b[-1] * math.log(hi / p[j]))
        return Pieces(np.concatenate(([lo], p[i + 1:j], [hi])),
                      np.concatenate((ends[:1], self.ell[i + 1:j], ends[1:])), b, self.c)


@dataclass(frozen=True)
class PsiFunction:
    """A positive generating function on an open support interval.

    Use the classmethod constructors; the raw constructor validates the
    invariants (positive values, ascending in-support grid, A >= 1 < B).
    """

    form: str
    support_low: float = 2.0
    support_high: float = INF
    q: float | None = None
    r: float | None = None
    grid: tuple[float, ...] | None = None
    values: tuple[float, ...] | None = None
    factor: float | None = None
    base: "PsiFunction | None" = None

    def __post_init__(self):
        if self.form not in FORMS:
            raise ValueError(f"unknown form {self.form!r}")
        a, b = self.support_low, self.support_high
        if not (a >= 1.0 and b > a):
            raise ValueError(f"support must satisfy 1 <= A < B, got ({a}, {b})")
        if self.form == "closed_power":
            if not (self.q is not None and self.q > 0):
                raise ValueError("closed_power needs q > 0")
        elif self.form == "degenerate":
            if self.r is None or not (a < self.r < b):
                raise ValueError("degenerate needs r strictly inside the support")
        elif self.form == "tabulated":
            g = np.asarray(self.grid, dtype=float)
            v = np.asarray(self.values, dtype=float)
            if g.ndim != 1 or g.size == 0 or g.shape != v.shape:
                raise ValueError("tabulated needs matching nonempty grid/values")
            if np.any(np.diff(g) <= 0):
                raise ValueError("tabulated grid must be strictly ascending")
            if not (g[0] > a and g[-1] < b):
                raise ValueError("tabulated grid must lie strictly inside the support")
            if np.any(~np.isfinite(v)) or np.any(v <= 0):
                raise ValueError("tabulated values must be finite and positive")
        elif self.form == "scaled":
            if self.base is None or self.factor is None or self.factor <= 0:
                raise ValueError("scaled needs a base function and factor > 0")
        elif self.form == "rosenthal":
            if self.base is None:
                raise ValueError("rosenthal wrapper needs a base function")

    # -- constructors -------------------------------------------------------

    @classmethod
    def closed_power(cls, q: float, support: tuple[float, float] = (2.0, INF)) -> "PsiFunction":
        """psi(p) = p**(1/q) on the open interval `support`."""
        return cls(form="closed_power", support_low=support[0],
                   support_high=support[1], q=float(q))

    @classmethod
    def degenerate(cls, r: float, support: tuple[float, float] | None = None) -> "PsiFunction":
        """The discontinuous shape: 1 at p == r, infinite elsewhere."""
        if support is None:
            support = (max(1.0, r - 1.0), r + 1.0)
        return cls(form="degenerate", support_low=support[0],
                   support_high=support[1], r=float(r))

    @classmethod
    def tabulated(cls, grid: Sequence[float], values: Sequence[float],
                  support: tuple[float, float] | None = None) -> "PsiFunction":
        """Log-linear interpolation of the given (p, psi(p)) table.

        Evaluation outside the grid range returns +inf (no extrapolation).
        The default support is ((1 + grid[0]) / 2, +inf), wide enough to keep
        the grid strictly interior while honouring A >= 1.
        """
        grid = tuple(float(p) for p in grid)
        if support is None:
            if grid and grid[0] <= 1.0:
                raise ValueError("tabulated grid must start above p = 1")
            support = (0.5 * (1.0 + grid[0]), INF)
        return cls(form="tabulated", support_low=support[0], support_high=support[1],
                   grid=grid, values=tuple(float(v) for v in values))

    def scaled(self, factor: float) -> "PsiFunction":
        """factor * psi, same support."""
        return PsiFunction(form="scaled", support_low=self.support_low,
                           support_high=self.support_high, factor=float(factor), base=self)

    # -- evaluation ---------------------------------------------------------

    def value(self, p: float) -> float:
        """psi(p), +inf outside the open support or the tabulated range."""
        return float(self.value_array(np.array([p]))[0])

    def value_array(self, ps: np.ndarray) -> np.ndarray:
        ps = np.asarray(ps, dtype=float)
        a, b = self.support_low, self.support_high
        inside = (ps > a) & (ps < b)
        out = np.full(ps.shape, INF)
        if self.form == "closed_power":
            out[inside] = ps[inside] ** (1.0 / self.q)
        elif self.form == "degenerate":
            hit = inside & (np.abs(ps - self.r) <= 4.0 * np.finfo(float).eps * max(1.0, abs(self.r)))
            out[hit] = 1.0
        elif self.form == "tabulated":
            g = np.asarray(self.grid)
            v = np.asarray(self.values)
            ok = inside & (ps >= g[0]) & (ps <= g[-1])
            if np.any(ok):
                out[ok] = np.exp(np.interp(np.log(ps[ok]), np.log(g), np.log(v)))
        elif self.form == "scaled":
            base = self.base.value_array(ps)
            out[inside] = self.factor * base[inside]
        elif self.form == "rosenthal":
            base = self.base.value_array(ps)
            safe = inside & (ps > 1.0)
            out[safe] = (ps[safe] / np.log(ps[safe])) * base[safe]
        return out

    def pieces(self) -> Pieces:
        """Where psi is finite, as a `Pieces` table clipped to the support and
        to `DEFAULT_P_CAP` (an open end holds the limit of log psi), or the
        point of a degenerate base.  EmptyDomain when no interval is left."""
        hi = min(self.support_high, DEFAULT_P_CAP)
        if self.form == "degenerate":
            return Pieces(np.array([self.r]), np.zeros(1), np.empty(0))
        if self.form == "closed_power":
            p = np.array([self.support_low, hi])
            table = Pieces(p, np.log(p) / self.q, np.array([1.0 / self.q]))
        elif self.form == "tabulated":
            p, ell = np.array(self.grid), np.log(self.values)
            table = Pieces(p, ell, np.diff(ell) / np.diff(np.log(p)))
        else:
            table = self.base.pieces()
            if not table.b.size:        # a point, where log psi takes the wrapper in
                return table._replace(ell=np.array([math.log(self.value(table.p[0]))]))
            table = table._replace(c=table.c + 1) if self.form == "rosenthal" else \
                table._replace(ell=table.ell + math.log(self.factor))
        return table.clip(self.support_low, hi)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        """The form, the support as [low, high or null] and the form's keys."""
        d = {"form": self.form, "support": [
            self.support_low, None if math.isinf(self.support_high) else self.support_high]}
        for key, kind in FORMS[self.form].items():
            val = getattr(self, key)
            d[key] = val.to_dict() if kind is dict else list(val) if kind is tuple else val
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "PsiFunction":
        """Reads what `to_dict` writes against `FORMS`: ValueError naming the key
        on a bad one, or on a support other than [low, high or null] (default
        [2, null]) or, for scaled and rosenthal, other than the base's."""
        if not (isinstance(d, dict) and isinstance(d.get("form"), str) and d["form"] in FORMS):
            raise ValueError(f"expected an object with a form of {', '.join(FORMS)}, got {d!r}")
        form, kinds = d["form"], FORMS[d["form"]]
        check_keys({"form": form, "support": None, **dict.fromkeys(kinds, ...)}, d, form)
        val = {k: finite(k, d[k], kind is tuple) for k, kind in kinds.items() if kind is not dict}
        try:
            base = val["base"] = cls.from_dict(d["base"]) if "base" in kinds else None
        except ValueError as exc:
            raise ValueError(f"base: {exc}") from None
        own = None if base is None else base.to_dict()["support"]  # a wrapper's is its base's
        sup = d.get("support", own or [2.0, None])
        if not (isinstance(sup, list) and len(sup) == 2) or own is not None and sup != own:
            raise ValueError(f"support must be {own or '[low, high or null]'}, got {sup!r}")
        low, high = finite("support", sup[0]), INF if sup[1] is None else finite("support", sup[1])
        return cls(form, low, high, **val)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def gaussian_lp_norm(p, scale: float = 1.0):
    """|scale * Z|_p for standard normal Z, from the absolute-moment formula.

    E|Z|**p = 2**(p/2) * Gamma((p+1)/2) / sqrt(pi), so the norm is
    sqrt(2) * (Gamma((p+1)/2)/sqrt(pi))**(1/p).  From p = 1e300 on, where
    log Gamma((p+1)/2) overflows, Stirling's formula gives sqrt((p+1)/e) to
    double precision.  Accepts scalars or arrays.
    """
    p = np.asarray(p, dtype=float)
    q = np.minimum(p, 1e300)
    log_gamma = np.array([math.lgamma(h) for h in ((q + 1.0) / 2.0).ravel().tolist()])
    val = np.where(p < 1e300, scale * math.sqrt(2.0) * np.exp(
        (log_gamma.reshape(p.shape) - 0.5 * math.log(math.pi)) / q),
        scale * np.sqrt((np.maximum(p, 1e300) + 1.0) / math.e))
    return float(val) if val.ndim == 0 else val


@dataclass(frozen=True)
class MomentCurve:
    """Estimated or analytic L_p norms of one random quantity on a p grid.

    `provenance` is either {"kind": "analytic"} or
    {"kind": "monte_carlo", "seed": ..., "replications": ...}; Monte Carlo
    curves carry per-point standard errors and are allowed to violate
    monotonicity in p by up to `SE_MARGIN` standard errors.
    """

    p_grid: tuple[float, ...]
    norms: tuple[float, ...]
    provenance: dict = field(default_factory=lambda: {"kind": "analytic"})
    stderr: tuple[float, ...] | None = None

    def __post_init__(self):
        ps = np.asarray(self.p_grid, dtype=float)
        ns = np.asarray(self.norms, dtype=float)
        if ps.ndim != 1 or ps.size == 0 or ps.shape != ns.shape:
            raise ValueError("p_grid and norms must be matching nonempty 1-D sequences")
        se = None if self.stderr is None else np.asarray(self.stderr, dtype=float)
        _check_curves(ps, ns, se)

    @classmethod
    def analytic(cls, p_grid, norms) -> "MomentCurve":
        return cls(tuple(float(p) for p in p_grid), tuple(float(v) for v in norms))

    @classmethod
    def zero(cls, p_grid) -> "MomentCurve":
        return cls.analytic(p_grid, [0.0] * len(tuple(p_grid)))

    @classmethod
    def standard_gaussian(cls, p_grid, scale: float = 1.0) -> "MomentCurve":
        p_grid = tuple(float(p) for p in p_grid)
        return cls.analytic(p_grid, [gaussian_lp_norm(p, scale) for p in p_grid])

    @classmethod
    def from_samples(cls, samples, p_grid, provenance: dict | None = None) -> "MomentCurve":
        """Debias sample L_p norms by delete-a-group jackknife over
        `JACKKNIFE_GROUPS` blocks (one per sample when there are fewer)."""
        x = np.asarray(samples, dtype=float).ravel()
        n = x.size
        if n < 2:
            raise ValueError("need at least two samples")
        groups = min(JACKKNIFE_GROUPS, n)
        bounds = np.linspace(0, n, groups + 1).astype(int)
        p_grid = tuple(float(p) for p in p_grid)
        sums = _abs_power_sums(x, p_grid, starts=bounds[:-1])
        norms, errs = _jackknife(sums.T, np.diff(bounds).astype(float), p_grid)
        prov = provenance or {"kind": "monte_carlo", "seed": None, "replications": n}
        return cls(p_grid, tuple(norms.tolist()), provenance=prov, stderr=tuple(errs.tolist()))

    def value_at(self, p: float) -> float:
        return self.norms[_p_index(self.p_grid, p)]

    def stderr_at(self, p: float) -> float:
        return 0.0 if self.stderr is None else self.stderr[_p_index(self.p_grid, p)]

    def to_dict(self) -> dict:
        d = {"p_grid": list(self.p_grid), "norms": list(self.norms),
             "provenance": self.provenance}
        if self.stderr is not None:
            d["stderr"] = list(self.stderr)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "MomentCurve":
        se = d.get("stderr")
        return cls(tuple(d["p_grid"]), tuple(d["norms"]), provenance=d.get("provenance", {"kind": "analytic"}),
                   stderr=None if se is None else tuple(se))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# moment curves as arrays
# ---------------------------------------------------------------------------

def _p_index(p_grid, p: float) -> int:
    """Position of the order p in `p_grid` (to 4 ulp); MissingData if absent."""
    for k, pv in enumerate(p_grid):
        if abs(pv - p) <= 4.0 * np.finfo(float).eps * max(1.0, abs(p)):
            return k
    raise MissingData(f"moment curve has no entry at p = {p}")


def _along_p(v: np.ndarray, ndim: int) -> np.ndarray:
    """A (P,) array shaped to broadcast along axis 0 of an ndim-array."""
    return v.reshape((-1,) + (1,) * (ndim - 1))


def _check_curves(p_grid, norms: np.ndarray, stderr: np.ndarray | None = None) -> None:
    """Validate moment curves held with p along axis 0 of `norms`.

    The grid must be strictly ascending with p >= 1, the norms finite and
    nonnegative, and each curve nondecreasing in p up to `SE_MARGIN`
    standard errors (Lyapunov's inequality within Monte Carlo noise).
    """
    ps = np.asarray(p_grid, dtype=float)
    if np.any(ps < 1.0) or np.any(np.diff(ps) <= 0):
        raise ValueError("p_grid must be strictly ascending with p >= 1")
    if np.any(~np.isfinite(norms)) or np.any(norms < 0):
        raise ValueError("norms must be finite and nonnegative")
    se = np.zeros_like(norms) if stderr is None else stderr
    slack = SE_MARGIN * (se[:-1] + se[1:])
    drops = norms[:-1] - norms[1:]
    if np.any(drops > slack + 1e-12 * np.maximum(norms[:-1], 1.0)):
        raise ValueError("norms must be nondecreasing in p (within Monte Carlo slack)")


_SCRATCH = threading.local()


def _scratch(name: str, shape, like: np.ndarray | None = None) -> np.ndarray:
    """This thread's buffer `name`, ``np.empty(shape)`` or ``np.empty_like(like,
    shape=shape)``, kept across calls and replaced when the shape or `like`'s
    dtype, shape or strides (hence the memory order) change.  It holds what its
    last use left, so no caller returns it or a view of it."""
    key = tuple(shape), None if like is None else (like.dtype, like.shape, like.strides)
    kept = vars(_SCRATCH)
    if name not in kept or kept[name][0] != key:
        kept[name] = key, np.empty(shape) if like is None else np.empty_like(like, shape=shape)
    return kept[name][1]


def _abs_power_sums(z: np.ndarray, p_grid, starts=None, pairs=None) -> np.ndarray:
    """Sums over axis 0 of |z|**p for each p in `p_grid`, stacked along a new
    first axis; with `starts`, sums over the groups of rows beginning there.
    With `pairs` = (first, second), index arrays into z's last axis, the
    values raised are z[..., first] - z[..., second] instead of z.

    For p >= 2 with 2p an integer, |z|**p is the product, left to right, of
    z², sqrt|z| when 2p is odd, |z| when floor(p) is odd, and z² once more
    for each further whole pair (z²·|z| at p = 3, z²·z² at 4, z⁴·z² at 6,
    z⁶·z² at 8, z²·sqrt|z| at 2.5).  Such products may differ from `**` in
    the last bits; other p, and p above `DEFAULT_P_CAP` (p/2 products), use `**`.

    Rows are reduced, and pair differences formed, in slabs of `_SLAB_BUDGET`
    values in `_scratch` buffers laid out like z.  Each order's running sum is
    row 0 of the next slab's buffer, so rows are added in chunk order whatever
    the slab size, bit for bit as by one ``sum(axis=0)``.  Groups, and
    column-major z that numpy sums pairwise, take one slab; so do one-value
    rows (pairwise too) of any engine chunk (at most 8,192).  z is unchanged.
    """
    n = z.shape[0]
    row = z.shape[1:] if pairs is None else z.shape[1:-1] + (len(pairs[0]),)
    step = n if starts is not None or z.strides[0] < z.strides[-1] \
        else min(n, max(1, _SLAB_BUDGET // max(1, math.prod(row))))
    # one buffer set per kind of call, so that calls that alternate keep theirs
    kind = f"{'points' if pairs is None else 'pairs'}{'' if step < n else ' whole'}"
    a, z2, buf = (_scratch(f"{kind} {i}", (step + 1,) + row, z) for i in range(3))
    sums = [None] * len(p_grid)
    for lo in range(0, n, step):
        body = slice(1, min(step, n - lo) + 1)
        zs, ab, qb, bb = z[lo:lo + step], a[body], z2[body], buf[body]
        if pairs is not None:       # pair differences on a 2-D view, the fast path
            flat = zs.reshape(-1, zs.shape[-1])
            zs = np.subtract(flat[:, pairs[0]], flat[:, pairs[1]], out=ab.reshape(len(flat), -1))
        np.abs(zs, out=ab.reshape(zs.shape))
        np.multiply(ab, ab, out=qb)
        made = None                 # made: (rest, whole) of the product v holds
        for j, p in enumerate(p_grid):
            twice = 2.0 * p
            if not 2.0 <= p <= DEFAULT_P_CAP or not twice.is_integer():
                v, made = np.power(ab, p, out=bb), None
            else:
                whole, rest = divmod(int(twice), 4)     # rest counts half orders: 0..3
                if made is None or made[0] != rest or made[1] > whole:
                    v = qb
                    if rest % 2:
                        v = np.multiply(np.sqrt(ab, out=bb), v, out=bb)
                    if rest >= 2:
                        v = np.multiply(v, ab, out=bb)
                    made = (rest, 1)
                for _ in range(whole - made[1]):    # continues the previous product
                    v = np.multiply(v, qb, out=bb)
                made = (rest, whole)
            if lo:                  # the running sum is row 0 of v's buffer
                v.base[0] = sums[j]
            rows = v.base[:body.stop] if lo else v
            sums[j] = rows.sum(axis=0) if starts is None else np.add.reduceat(rows, starts, axis=0)
    return np.stack(sums)


def _group_jackknife(stat, *group_sums: np.ndarray):
    """Delete-a-group jackknife (Efron 1982; Kott 2001) of a statistic of
    summed rows.  Each of `group_sums` holds the sums of one summand over G >= 2
    groups along axis 0; `stat(*sums)` maps sums stacked over sets of rows to
    each set's value, for all rows and for the G leave-one-group-out sets.
    Returns the all-rows value, the debiased value and the standard error."""
    G = group_sums[0].shape[0]
    totals = [g.sum(axis=0) for g in group_sums]
    full = stat(*(t[None] for t in totals))[0]
    loo = stat(*(t[None] - g for t, g in zip(totals, group_sums)))
    mean = loo.mean(axis=0)
    return full, G * full - (G - 1) * mean, np.sqrt((G - 1) / G * ((loo - mean) ** 2).sum(axis=0))


def _jackknife(group_sums: np.ndarray, counts: np.ndarray, p_grid):
    """`_group_jackknife` of L_p norms: `group_sums` (G, P, ...) holds the sums
    of |x|**p over each group and `counts` (G,) the group sizes.  Returns the
    debiased norms (clipped at 0) and their standard errors, each (P, ...)."""
    inv = _along_p(1.0 / np.asarray(p_grid, dtype=float), group_sums.ndim - 1)
    _, jack, se = _group_jackknife(lambda sums, n: (sums / _along_p(n, sums.ndim)) ** inv,
                                   group_sums, counts)
    return np.maximum(jack, 0.0), se


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def gls_norms(p_grid, norms, psi: PsiFunction, stderr=None):
    """The induced norm sup_p norms(p)/psi(p) of every curve held with p
    along axis 0 of `norms`, with c/inf == 0, and its standard error.

    Returns (values, se), each of the shape of norms[0].  The standard error
    is stderr/psi at the last order attaining the sup (0 when psi is
    infinite on the whole grid, and everywhere when `stderr` is None).
    Raises EmptySupportOverlap when no grid point lies inside the open
    support of psi.  Against the degenerate shape at r the value is the
    curve value at r exactly (division by 1.0 is exact).
    """
    ps = np.asarray(p_grid, dtype=float)
    a, b = psi.support_low, psi.support_high
    if not np.any((ps > a) & (ps < b)):
        raise EmptySupportOverlap(
            f"no curve point inside support ({a}, {b}); grid = {tuple(p_grid)}")
    norms = np.asarray(norms, dtype=float)
    w = _along_p(psi.value_array(ps), norms.ndim)
    ratios = np.where(np.isfinite(w), norms / w, -INF)
    best = np.maximum(ratios.max(axis=0), 0.0)
    if stderr is None:
        return best, np.zeros_like(best)
    hit = ratios == best
    last = ps.size - 1 - np.argmax(hit[::-1], axis=0)
    se = np.take_along_axis(np.asarray(stderr, dtype=float) / w, last[None], axis=0)[0]
    return best, np.where(hit.any(axis=0), se, 0.0)


def gls_norm(curve: MomentCurve, psi: PsiFunction, with_se: bool = False):
    """sup over the curve's grid of norms(p)/psi(p): the one-curve case of
    :func:`gls_norms`.  With `with_se`, returns (norm, standard error)."""
    value, se = gls_norms(curve.p_grid, curve.norms, psi, curve.stderr)
    return (float(value), float(se)) if with_se else float(value)


def subq_norms(p_grid, norms, q: float) -> np.ndarray:
    """sup over grid points p >= 2 of norms(p) / p**(1/q), for every curve
    held with p along axis 0 of `norms`."""
    if q <= 0:
        raise ValueError("q must be positive")
    keep = [k for k, p in enumerate(p_grid) if p >= 2.0]
    if not keep:
        raise EmptySupportOverlap(f"no curve point with p >= 2; grid = {tuple(p_grid)}")
    norms = np.asarray(norms, dtype=float)[keep]
    weights = np.array([p_grid[k] ** (1.0 / q) for k in keep])
    return (norms / _along_p(weights, norms.ndim)).max(axis=0)


def subq_norm(curve: MomentCurve, q: float) -> float:
    """sup over grid points p >= 2 of norms(p) / p**(1/q)."""
    return float(subq_norms(curve.p_grid, curve.norms, q))


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def rosenthal_transform(psi: PsiFunction) -> PsiFunction:
    """The moment-inequality rescaling psi_R(p) = (p / log p) * psi(p).

    Well defined whenever log p > 0 on the support, i.e. support_low >= 1;
    otherwise raises InvalidSupport.
    """
    if psi.support_low < 1.0:
        raise InvalidSupport("rescaling needs log p > 0, i.e. support_low >= 1")
    return PsiFunction(form="rosenthal", support_low=psi.support_low,
                       support_high=psi.support_high, base=psi)


def psi_lower_star(psi: PsiFunction, x, *, method: str = "auto"):
    """inf over y in (0, 1) with 1/y in the support of [x*y + log psi(1/y)].

    With p = 1/y = e**t this is the inf over the orders where psi is finite of
    F(t) = x*e**(-t) + log psi(e**t).  Methods "auto" and "closed" (the pure
    power shape only) take it exactly from `PsiFunction.pieces`: on a piece F
    is convex and F' increasing and concave, so F is least at a node or at
    t = log(x/b) (c = 0), else where Newton steps from the left end stop
    rising.  "grid" is the scan reference (`_gridopt.minimize` of psi's
    values).  A point shape gives x/r + log psi(r) under every method.

    `x` is a finite nonnegative scalar (the result is a float) or 1-D array
    (an array of its length); every entry gets exactly the value a scalar
    call gives.  Raises EmptyDomain when psi has no finite order.
    """
    if method == "closed" and psi.form != "closed_power":
        raise ValueError("closed form only available for the pure power shape")
    xs = np.asarray(x, dtype=float)
    if xs.ndim > 1:
        raise ValueError("x must be a scalar or a 1-D array")
    bad = xs[~(xs >= 0.0) | np.isinf(xs)]
    if bad.size:
        raise ValueError(f"x must be finite and nonnegative, got {float(bad[0])!r}")
    table = psi.pieces()
    uniq, where = np.unique(xs, return_inverse=True)
    if method == "grid" and table.b.size:
        vals = np.array([_gridopt.minimize(lambda p, x=x: x / p + np.log(psi.value_array(p)),
                                           table.p[0], table.p[-1])[1] for x in uniq.tolist()])
    else:
        vals = _exact_lower_star(table, uniq[:, None])
    vals = vals[where.reshape(xs.shape)]
    return float(vals) if xs.ndim == 0 else vals


def _exact_lower_star(table: Pieces, x: np.ndarray) -> np.ndarray:
    """The least node value and stationary value of each (n, 1) row of x."""
    best = (x / table.p + table.node_log_psi()).min(axis=1)
    t, b, c = np.log(table.p), table.b, table.c
    if not b.size:
        return best
    if c == 0:
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.log(x / b)
    else:   # F' <= 0 at the start, and concave: no step passes the root
        s = np.maximum(t[:-1], c / (np.abs(b) + c + x))
        while True:
            e = x * np.exp(-s)
            step = s - (b + c - c / s - e) / (e + c / s / s)
            rise = (step > s) & (s < t[1:])
            if not rise.any():
                break
            s = np.where(rise, step, s)
    inside = (s > t[:-1]) & (s < t[1:])
    s = np.where(inside, s, t[1:])
    vals = x * np.exp(-s) + table.ell[:-1] + b * (s - t[:-1]) + c * (s - np.log(s))
    return np.minimum(best, np.where(inside, vals, INF).min(axis=1))


def young_fenchel(g, y: float) -> float:
    """Restricted convex conjugate sup over x in [2, DEFAULT_P_CAP] of x*y - g(x).

    This is the conjugate with domain clipped to x >= 2, evaluated by the
    scan `_gridopt.minimize`; points where g is infinite do not contribute.
    Returns -inf if g is infinite everywhere on the scan range
    (extended-real semantics, no exceptions).
    """
    def negated(points):
        gv = np.array([g(float(x)) for x in np.ravel(points)]).reshape(np.shape(points))
        return np.where(np.isinf(gv), INF, gv - points * y)

    return -_gridopt.minimize(negated, 2.0, DEFAULT_P_CAP)[1]


def psi_bar_conjugate(psi: PsiFunction, y: float) -> float:
    """sup of p * (y - log psi(p)) over the orders p in [2, DEFAULT_P_CAP]
    where psi is finite (-inf if none): the conjugate of p * log psi(p).

    Exact per piece of `PsiFunction.pieces`: with ell = log psi in t = log p,
    the derivative of e**t * (y - ell) is e**t * k, k = y - ell - ell', so
    the sup is at a node or at a zero of k.  With c = 0, k is linear; else
    k' = 0 is a quadratic in 1/t, which cuts the piece into at most three
    monotone parts, each bisected.  Raises ValueError unless y is finite.
    """
    if not math.isfinite(y):
        raise ValueError(f"y must be finite, got {y!r}")
    try:
        table = psi.pieces()
        table = table.clip(2.0, DEFAULT_P_CAP) if table.b.size else table
    except EmptyDomain:
        return -INF
    if not 2.0 <= table.p[0] <= DEFAULT_P_CAP:      # a point outside the orders
        return -INF
    best = float(np.max(table.p * (y - table.node_log_psi())))
    c, t = table.c, np.log(table.p).tolist()
    for t0, t1, l0, b in zip(t, t[1:], table.ell.tolist(), table.b.tolist()):
        def ell(s):
            return l0 + b * (s - t0) + c * (s - math.log(s))

        def k(s):   # y - ell(s) - ell'(s)
            return y - l0 - b * (s - t0 + 1.0) - c * (s - math.log(s) + 1.0 - 1.0 / s)

        if c == 0:
            zeros = [t0 + (y - l0 - b) / b] if b else []
        else:       # k' = 0 where u*u - u + (b + c)/c = 0, u = 1/t
            r = math.sqrt(max(1.0 - 4.0 * (b + c) / c, 0.0))
            cuts = {1.0 / u for u in ((1.0 + r) / 2.0, (1.0 - r) / 2.0) if u > 1.0 / t1}
            ends = [t0, *sorted(e for e in cuts if e > t0), t1]
            zeros = [_bisect(lambda s, neg=k(lo) < 0.0: (k(s) < 0.0) != neg, lo, hi)
                     for lo, hi in zip(ends, ends[1:]) if (k(lo) < 0.0) != (k(hi) < 0.0)]
        best = max([best] + [math.exp(s) * (y - ell(s)) for s in zeros if t0 < s < t1])
    return best


def gls_tail_bound(psi: PsiFunction, gls_norm_value: float, u: float) -> float:
    """Exponential tail bound min(1, 2 exp(-conj(log(u / norm)))).

    `conj` is the restricted conjugate of p * log psi(p).  The bound is a
    probability: it clamps to 1 whenever u <= norm (and at every conj < 0, so
    exp cannot overflow), and the truncation of an unbounded support at
    `DEFAULT_P_CAP` only weakens (never invalidates) it.  Raises ValueError
    unless u and the norm are finite and positive.
    """
    if not (math.isfinite(u) and u > 0):
        raise ValueError(f"u must be finite and positive, got {u!r}")
    if not (math.isfinite(gls_norm_value) and gls_norm_value > 0):
        raise ValueError(f"norm value must be finite and positive, got {gls_norm_value!r}")
    star = psi_bar_conjugate(psi, math.log(u) - math.log(gls_norm_value))
    return 1.0 if star < 0.0 else min(1.0, 2.0 * math.exp(-star))


def orlicz_n_function(psi: PsiFunction, u: float) -> float:
    """Exponential Orlicz-type N-function generated by psi: the exp of
    :func:`log_orlicz_n_function`, +inf beyond float range."""
    try:
        return math.exp(log_orlicz_n_function(psi, u))
    except OverflowError:
        return INF


def log_orlicz_n_function(psi: PsiFunction, u: float) -> float:
    """log N(u) of the N-function N(u) = exp(conj(log |u|)) for |u| > e**2
    and C * u**2 below, with C fixed by continuity at |u| = e**2 (the
    stitching constant is otherwise free); -inf at u = 0.  Raises ValueError
    unless u is finite."""
    if not math.isfinite(u):
        raise ValueError(f"u must be finite, got {u!r}")
    au = abs(u)
    if au == 0.0:
        return -INF
    if au <= math.exp(2.0):
        return psi_bar_conjugate(psi, 2.0) - 4.0 + 2.0 * math.log(au)
    return psi_bar_conjugate(psi, math.log(au))
