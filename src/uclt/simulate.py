"""Deterministic Monte Carlo laboratory for martingale-difference fields.

Models generate adapted difference sequences xi_i(x) on a finite coordinate
grid; the engine draws replications in fixed-size chunks, each chunk on its
own counter-based substream of the master seed, so results are byte-identical
for a given (model, seed, R) no matter how many worker threads run the
chunks.  Aggregation combines per-chunk partials in chunk order.

Chunks hold only the grid columns their reducer reads: `osekowski_check`
its point or its pair's two points, `tail_domination_check`,
`weighted_tail_domination_check` and `martingale_difference_check` their
point, `eta_increment_curves` the points of its pairs.  `simulate_eta`,
`covariance_estimate`, `estimate_moment_curves` and `clt_diagnostic` draw
every column.  A projected draw has the full law's marginal; it reuses the
full-width variates for ``weibull_field`` and shared-sign ``bounded_sign``,
and is a different stream for the Gaussian-driven kinds and for
independent-sign ``bounded_sign``, which draw only the columns asked for.

`tail_domination_check` reads eta_n at every n from one pass; there
``iid_gaussian_field`` and unmodulated ``bounded_sign`` without growth draw
it from its closed law (`_closed_sums`), the other reducers read paths.

Shipped model kinds, with their parameters and defaults in `KINDS`:

* ``iid_gaussian_field``  — i.i.d. Gaussian fields with a covariance kernel,
* ``weibull_field``       — i.i.d. symmetric stretched-exponential variables
                            times a spatial amplitude profile, optionally
                            capped (``cap`` > 0, or null for no cap),
* ``garch_like``          — xi_i(x) = sigma_i(x) * eps_i(x) with sigma_i a
                            bounded function of past draws (dependent m.d.),
* ``bounded_sign``        — xi_i(x) = +-a_i(x) with an optional
                            past-dependent bounded amplitude (dependent m.d.).

Building a model with another kind's parameter, or with a bad value,
raises ValueError (`MartingaleFieldModel.p`).  All kinds accept ``bias``
(additive, deliberately breaking the difference property for detector
tests) and ``growth`` (deterministic index scaling i**growth, used to
manufacture exploding-variance examples).
"""
from __future__ import annotations

import json
import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.special import erf, gamma as gamma_fn

from .distances import PairwiseMomentField, _pair_key
from .errors import HorizonExceeded
from .psi import (MomentCurve, PsiFunction, _abs_power_sums, _jackknife, gls_norm,
                  rosenthal_transform)
from .tails import TailFunction, w_operator

#: Universal constant in the martingale moment inequality
#: |n**-0.5 sum zeta_k|_p <= C * (p/ln p) * sqrt(mean of |zeta_k|_p**2).
OSEKOWSKI_CONSTANT = 15.5879

#: Sharp constant of the analogous inequality for independent summands.
ROSENTHAL_CONSTANT = 0.6535

#: Each model kind's parameters and their defaults (``...``: required).  All
#: but ``kernel`` and ``cross`` are finite numbers; a null ``cap`` means no cap.
KINDS = {
    "iid_gaussian_field": {"kernel": {"name": "white"}},
    "weibull_field": {"K": ..., "q": ..., "cap": None, "amplitude_slope": 0.0},
    "garch_like": {"kernel": {"name": "white"}, "vol_amp": 0.45, "memory": 0.7,
                   "vol_lo": 0.5, "vol_hi": 2.0},
    "bounded_sign": {"base": 1.0, "modulation": 0.0, "amplitude_slope": 0.0,
                     "cross": "shared"},
}

#: Covariance kernels known to `kernel_matrix`.
KERNELS = ("white", "rbf", "brownian", "fractional_brownian")

#: Family-wise false-alarm level of `martingale_difference_check`: that of
#: one two-sided 3-standard-error test, 2 * (1 - Phi(3)).
MD_FAMILY_LEVEL = math.erfc(3.0 / math.sqrt(2.0))

#: Float budget per generated chunk (count * n * npoints).
_CHUNK_BUDGET = 1 << 21


# ---------------------------------------------------------------------------
# plain statistics helpers
# ---------------------------------------------------------------------------

def ks_two_sample(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup_x |F_a(x) - F_b(x)|."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    allv = np.concatenate([a, b])
    ca = np.searchsorted(a, allv, side="right") / a.size
    cb = np.searchsorted(b, allv, side="right") / b.size
    return float(np.max(np.abs(ca - cb)))


def ks_gaussian(samples, sigma: float) -> float:
    """One-sample KS distance of `samples` to a centered Gaussian with sd sigma."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    cdf = 0.5 * (1.0 + erf(x / (sigma * math.sqrt(2.0))))
    up = np.arange(1, n + 1) / n - cdf
    dn = cdf - np.arange(0, n) / n
    return float(max(up.max(), dn.max()))


def ks_two_sample_critical(n1: int, n2: int, alpha: float = 0.05) -> float:
    """Asymptotic two-sample rejection threshold at level alpha."""
    c = math.sqrt(-0.5 * math.log(alpha / 2.0))
    return c * math.sqrt((n1 + n2) / (n1 * n2))


# ---------------------------------------------------------------------------
# covariance kernels
# ---------------------------------------------------------------------------

def kernel_matrix(spec: dict, coords: np.ndarray) -> np.ndarray:
    """Covariance matrix of a named kernel on the coordinate rows."""
    name = spec.get("name")
    var = float(spec.get("variance", 1.0))
    if var <= 0:
        raise ValueError("kernel variance must be positive")
    if name == "white":
        return var * np.eye(coords.shape[0])
    if name == "rbf":
        ell = float(spec.get("length_scale", 0.5))
        d2 = ((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2)
        return var * np.exp(-0.5 * d2 / (ell * ell))
    if name in ("brownian", "fractional_brownian"):
        h = 0.5 if name == "brownian" else float(spec.get("hurst", 0.5))
        if not (0.0 < h <= 1.0):
            raise ValueError("hurst must lie in (0, 1]")
        norms = np.sqrt((coords ** 2).sum(axis=1))
        dists = np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2))
        return var * 0.5 * (norms[:, None] ** (2 * h) + norms[None, :] ** (2 * h)
                            - dists ** (2 * h))
    raise ValueError(f"unknown kernel {name!r}")


def _cholesky(kmat: np.ndarray) -> np.ndarray:
    jitter = 1e-12 * max(1.0, float(np.max(np.diag(kmat))))
    return np.linalg.cholesky(kmat + jitter * np.eye(kmat.shape[0]))


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MartingaleFieldModel:
    """A seeded generator of adapted difference fields on a coordinate grid."""

    name: str
    kind: str
    coords: tuple[tuple[float, ...], ...]
    params: dict
    horizon: int
    seed: int
    bias: float = 0.0
    growth: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {tuple(KINDS)}")
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if len(self.coords) == 0:
            raise ValueError("need at least one coordinate")
        p = self.p
        if "cross" in p and p["cross"] not in ("shared", "independent"):
            raise ValueError(f"cross must be shared or independent, got {p['cross']!r}")
        if "vol_lo" in p and not 0.0 < p["vol_lo"] <= p["vol_hi"]:
            raise ValueError(f"vol_lo and vol_hi need 0 < vol_lo <= vol_hi, "
                             f"got {p['vol_lo']} and {p['vol_hi']}")
        if "amplitude_slope" in p and np.any(self._amplitude <= 0):
            raise ValueError(f"amplitude_slope = {p['amplitude_slope']} makes the amplitude "
                             f"profile 1 + amplitude_slope * x nonpositive on the grid")
        if "kernel" in p:
            self._chol(tuple(range(self.npoints)))  # so that a bad kernel spec fails here

    @cached_property
    def p(self) -> dict:
        """`params` over the kind's `KINDS` defaults, numbers as floats; raises
        ValueError on a key of another kind, a missing, non-finite or bad value."""
        table = KINDS[self.kind]
        extra = sorted(set(self.params) - set(table))
        if extra:
            raise ValueError(f"{extra[0]} is not a parameter of {self.kind}; "
                             f"it takes {', '.join(table)}")
        p = {**table, **self.params}
        for key, val in {"bias": self.bias, "growth": self.growth, **p}.items():
            if val is ...:
                raise ValueError(f"{key} is required for {self.kind}")
            if key in ("kernel", "cross") or key == "cap" and val is None:
                continue
            if isinstance(val, bool) or not isinstance(val, numbers.Real) \
                    or not math.isfinite(val):
                raise ValueError(f"{key} must be a finite number, got {val!r}")
            if key in ("K", "q", "cap", "base") and not val > 0:
                raise ValueError(f"{key} must be > 0, got {val!r}")
            if key in p:
                p[key] = float(val)
        return p

    @property
    def npoints(self) -> int:
        return len(self.coords)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(f"x{i}" for i in range(self.npoints))

    @cached_property
    def _coord_array(self) -> np.ndarray:
        return np.asarray(self.coords, dtype=float)

    @cached_property
    def _kernel(self) -> np.ndarray:
        return kernel_matrix(self.p["kernel"], self._coord_array)

    @cached_property
    def _chols(self) -> dict:
        return {}

    def _chol(self, cols: tuple[int, ...]) -> np.ndarray:
        """Cholesky factor of the kernel restricted to the grid columns `cols`."""
        if cols not in self._chols:
            self._chols[cols] = _cholesky(self._kernel[np.ix_(cols, cols)])
        return self._chols[cols]

    @cached_property
    def _amplitude(self) -> np.ndarray:
        """The spatial profile 1 + amplitude_slope * x on the first coordinate."""
        return 1.0 + self.p["amplitude_slope"] * self._coord_array[:, 0]

    # -- analytic companions -------------------------------------------------

    def analytic_covariance(self) -> np.ndarray | None:
        """Covariance of the normalized sums when known in closed form."""
        if self.bias != 0.0 or self.growth != 0.0:
            return None
        if self.kind == "iid_gaussian_field":
            return self._kernel.copy()
        p = self.p
        if self.kind == "weibull_field" and p["cap"] is None:
            second = p["K"] * p["K"] * gamma_fn(1.0 + 2.0 / p["q"])
            return second * np.outer(self._amplitude, self._amplitude)
        if self.kind == "bounded_sign" and p["modulation"] == 0.0:
            amp = p["base"] * self._amplitude
            if p["cross"] == "shared":
                return np.outer(amp, amp)
            return np.diag(amp ** 2)
        return None

    def marginal_limit_std(self) -> np.ndarray | None:
        cov = self.analytic_covariance()
        return None if cov is None else np.sqrt(np.diag(cov))

    def dominating_tail(self) -> TailFunction:
        """A tail function dominating every one-sided tail of xi_i(x).

        Ignores `growth`; with growth > 0 no fixed dominating tail exists and
        callers should not rely on this.
        """
        p = self.p
        if self.kind in ("iid_gaussian_field", "garch_like"):
            vol = p["vol_hi"] if self.kind == "garch_like" else 1.0
            smax = math.sqrt(float(np.max(np.diag(self._kernel))))
            return TailFunction.closed_weibull(vol * smax * math.sqrt(2.0), 2.0)
        if self.kind == "weibull_field":
            return TailFunction.closed_weibull(p["K"] * float(np.max(self._amplitude)), p["q"])
        # the modulation factor 1 + m tanh(.) lies strictly inside 1 -+ |m|
        cutoff = p["base"] * float(np.max(self._amplitude)) * (1.0 + abs(p["modulation"]))
        return TailFunction.step(cutoff)

    def to_dict(self) -> dict:
        return {"name": self.name, "kind": self.kind,
                "coords": [list(c) for c in self.coords], "params": self.params,
                "horizon": self.horizon, "seed": self.seed,
                "bias": self.bias, "growth": self.growth}


def grid_coords(n: int, low: float = 0.0, high: float = 1.0) -> tuple[tuple[float, ...], ...]:
    return tuple((float(v),) for v in np.linspace(low, high, n))


def default_model_suite(seed: int) -> list[MartingaleFieldModel]:
    """Shipped suite: an i.i.d. Gaussian field, a sign-valued dependent model
    and a volatility-modulated dependent model."""
    return [
        MartingaleFieldModel("iid-gaussian-rbf", "iid_gaussian_field", grid_coords(5),
                             {"kernel": {"name": "rbf", "length_scale": 0.5}},
                             horizon=1024, seed=seed + 1),
        MartingaleFieldModel("bounded-sign", "bounded_sign", grid_coords(5),
                             {"modulation": 0.25, "amplitude_slope": 0.5},
                             horizon=1024, seed=seed + 2),
        MartingaleFieldModel("garch-like", "garch_like", grid_coords(5),
                             {"kernel": {"name": "rbf", "length_scale": 0.5}},
                             horizon=1024, seed=seed + 3),
    ]


# ---------------------------------------------------------------------------
# the chunked engine
# ---------------------------------------------------------------------------

def _chunk_spans(R: int, n: int, npts: int):
    # capped by the float budget, floored at 16, and small enough to give at
    # least ~16 chunks so that batch-means standard errors are meaningful
    size = int(min(8192, max(16, _CHUNK_BUDGET // max(1, n * npts)), max(16, R // 16)))
    spans = []
    start = 0
    ci = 0
    while start < R:
        count = min(size, R - start)
        spans.append((ci, start, count))
        start += count
        ci += 1
    return spans


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    seq = np.random.SeedSequence(seed, spawn_key=(chunk_index,))
    return np.random.Generator(np.random.Philox(seq))


def resolve_threads(threads: int | None) -> int:
    if threads is None:
        env = os.environ.get("UCLT_THREADS")
        threads = int(env) if env else 1
    return max(1, int(threads))


def _generate(model: MartingaleFieldModel, n: int, rng: np.random.Generator,
              count: int, cols: tuple[int, ...] | None = None) -> np.ndarray:
    """One chunk of paths with shape (count, n, len(cols)), on the sorted
    distinct grid columns `cols`, all of them when None.

    Each kind's law on `cols` is the full law's marginal: the Gaussian-driven
    kinds use the Cholesky factor of K[cols, cols] (the garch volatility at
    x depends on eps at x only), and sign and Weibull amplitudes are per
    column.  Which kinds keep their full-width variates: module docstring.
    """
    if cols is None:
        cols = tuple(range(model.npoints))
    k = len(cols)
    p = model.p
    if model.kind == "iid_gaussian_field":
        z = rng.standard_normal((count, n, k))
        paths = z @ model._chol(cols).T
    elif model.kind == "weibull_field":
        u = rng.random((count, n))
        radial = p["K"] * (-np.log1p(-u)) ** (1.0 / p["q"])
        if p["cap"] is not None:
            radial = np.minimum(radial, p["cap"])
        signs = rng.integers(0, 2, (count, n)) * 2.0 - 1.0
        paths = (signs * radial)[:, :, None] * model._amplitude[list(cols)][None, None, :]
    elif model.kind == "garch_like":
        # one draw for all steps gives the variates of one draw per step
        amp, mem, lo, hi = p["vol_amp"], p["memory"], p["vol_lo"], p["vol_hi"]
        steps = rng.standard_normal((n, count, k)) @ model._chol(cols).T
        state = np.zeros((count, k))
        for i in range(n):
            sigma = np.clip(1.0 + amp * np.tanh(state), lo, hi)
            state = mem * state + (1.0 - mem) * steps[i]
            steps[i] *= sigma
        paths = np.ascontiguousarray(steps.transpose(1, 0, 2))
    else:  # bounded_sign
        mod = p["modulation"]
        a0 = p["base"] * model._amplitude[list(cols)]
        signs = rng.integers(0, 2, (count, n, 1 if p["cross"] == "shared" else k)) * 2.0 - 1.0
        if mod == 0.0:
            paths = signs * a0[None, None, :]
        else:
            steps = np.empty((n, count, k))
            running = np.zeros((count, k))
            for i in range(n):
                ampl = a0 * (1.0 + mod * np.tanh(running / math.sqrt(max(i, 1))))
                running += np.multiply(signs[:, i, :], ampl, out=steps[i])
            paths = np.ascontiguousarray(steps.transpose(1, 0, 2))
    if model.growth != 0.0:
        paths *= (np.arange(1, n + 1) ** model.growth)[None, :, None]
    if model.bias != 0.0:
        paths += model.bias
    return paths


def _columns(model: MartingaleFieldModel, indices) -> tuple[int, ...]:
    """The sorted distinct grid columns among `indices`, negative ones
    counting from the end: the `cols` of a chunk that reads only these."""
    return tuple(sorted({range(model.npoints)[i] for i in indices}))


def _run_chunks(model: MartingaleFieldModel, n: int, R: int, worker,
                threads: int | None = None, cols: tuple[int, ...] | None = None,
                draw=None) -> list:
    """Generate chunks (optionally in parallel) and collect worker results
    in chunk order.  `worker(chunk_index, start, paths)` must only touch
    chunk-local state or disjoint output slices.  Chunks hold the grid
    columns `cols` only (all when None); their spans depend on the full
    grid, so batch-means groups are the same at any width.  `draw(rng,
    count)`, when given, makes each chunk's data in place of the paths."""
    if n > model.horizon:
        raise HorizonExceeded(f"requested n = {n} beyond horizon {model.horizon}")
    spans = _chunk_spans(R, n, model.npoints)
    results: list = [None] * len(spans)

    def task(span):
        ci, start, count = span
        rng = _chunk_rng(model.seed, ci)
        data = _generate(model, n, rng, count, cols) if draw is None else draw(rng, count)
        results[ci] = worker(ci, start, data)

    nt = resolve_threads(threads)
    if nt == 1 or len(spans) == 1:
        for span in spans:
            task(span)
    else:
        with ThreadPoolExecutor(max_workers=nt) as pool:
            list(pool.map(task, spans))
    return results


def _closed_sums(model: MartingaleFieldModel, ns: list[int], cols: tuple[int, ...]):
    """`draw(rng, count)` of S_n = sum_{i<=n} xi_i for the ascending `ns`, shape
    (len(ns), count, len(cols)), from the exact law, or None.  The increments
    between consecutive n are independent: N(0, sum i**(2 growth) K[cols,
    cols]) for `iid_gaussian_field`, a0 (2 Binomial(n - n_prev, 1/2) - n +
    n_prev) for unmodulated `bounded_sign` without growth, with one count per
    row for shared signs and per column otherwise."""
    p, ns = model.p, np.array(ns)
    drift = (model.bias * ns)[:, None, None]
    if model.kind == "iid_gaussian_field":
        power = np.cumsum(np.arange(1.0, ns[-1] + 1) ** (2 * model.growth))
        sd = np.sqrt(np.diff(power[ns - 1], prepend=0.0))[:, None, None]
        chol = model._chol(cols)

        def draw(rng, count):
            z = rng.standard_normal((len(ns), count, len(cols))) @ chol.T
            return np.cumsum(z * sd, axis=0) + drift
        return draw
    if model.kind == "bounded_sign" and p["modulation"] == 0.0 and model.growth == 0.0:
        a0 = p["base"] * model._amplitude[list(cols)]
        steps = np.diff(ns, prepend=0)[:, None, None]
        width = 1 if p["cross"] == "shared" else len(cols)

        def draw(rng, count):
            heads = np.cumsum(rng.binomial(steps, 0.5, (len(ns), count, width)), axis=0)
            return (2 * heads - ns[:, None, None]) * a0 + drift
        return draw
    return None


def _partial_sums(model: MartingaleFieldModel, n_values, R: int, threads: int | None = None,
                  cols: tuple[int, ...] | None = None, closed_law: bool = True) -> np.ndarray:
    """eta_n = n**-0.5 S_n on the grid columns `cols` (all when None) for each
    n of the ascending `n_values`, shape (len(n_values), R, len(cols)), from
    one engine pass: the closed law of the sums (`_closed_sums`) when asked
    for and known, else paths to the largest n, summed in blocks between
    consecutive n and accumulated.  Rows at different n share draws."""
    ns = [int(n) for n in n_values]
    cols = tuple(range(model.npoints)) if cols is None else cols
    out = np.empty((len(ns), R, len(cols)))
    draw = _closed_sums(model, ns, cols) if closed_law else None

    def worker(ci, start, data):
        if draw is None:
            data = np.cumsum([data[:, lo:n].sum(axis=1) for lo, n in zip([0] + ns, ns)], axis=0)
        for j, n in enumerate(ns):
            out[j, start:start + data.shape[1]] = data[j] * (1.0 / math.sqrt(n))

    _run_chunks(model, ns[-1], R, worker, threads, cols, draw)
    return out


# ---------------------------------------------------------------------------
# simulation operations
# ---------------------------------------------------------------------------

def simulate_eta(model: MartingaleFieldModel, n: int, R: int,
                 threads: int | None = None) -> np.ndarray:
    """R replications of the normalized sums eta_n(x) = n**-0.5 sum_i xi_i(x),
    each from its simulated path; returns an array of shape (R, npoints)."""
    return _partial_sums(model, [n], R, threads, closed_law=False)[0]


def covariance_estimate(model: MartingaleFieldModel, n: int, R: int,
                        threads: int | None = None):
    """Empirical covariance matrix of eta_n across replications.

    Returns (cov, stderr, analytic) where stderr holds the per-entry Gaussian
    approximation sqrt((c_ii c_jj + c_ij**2) / R) and analytic is the model's
    closed-form covariance when available (else None).
    """
    eta = simulate_eta(model, n, R, threads)
    dev = eta - eta.mean(axis=0)
    cov = dev.T @ dev / (R - 1)
    se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov ** 2) / R)
    return cov, se, model.analytic_covariance()


def martingale_difference_check(model: MartingaleFieldModel, indices, x_index: int = 0,
                                R: int = 20000, threads: int | None = None) -> list[dict]:
    """Orthogonality test of the difference property.

    For each requested index i, E[xi_i * z] must vanish for every bounded
    function z of the past; tested with z in {1, tanh(previous value),
    tanh(normalized running sum)} at one grid point.  Each row reports the
    sample mean of xi_i * z, its standard error, the two-sided normal
    p-value of mean / se, and `ok`: not rejected by Holm's step-down rule
    over all rows at family level MD_FAMILY_LEVEL, the level of a single
    3-se test.
    """
    indices = sorted(set(int(i) for i in indices))
    n = max(indices)
    if min(indices) < 1:
        raise ValueError("indices are 1-based")
    names = ("const", "tanh(prev)", "tanh(runsum)")

    def worker(ci, start, paths):
        xs = paths[:, :, 0]
        out = {}
        for i in indices:
            xi = xs[:, i - 1]
            prev = xs[:, i - 2] if i >= 2 else np.zeros_like(xi)
            runsum = xs[:, :i - 1].sum(axis=1) / math.sqrt(max(i - 1, 1))
            for nm, z in zip(names, (np.ones_like(xi), np.tanh(prev), np.tanh(runsum))):
                v = xi * z
                key = (i, nm)
                out[key] = (v.sum(), (v * v).sum(), v.size)
        return out

    parts = _run_chunks(model, n, R, worker, threads, _columns(model, [x_index]))
    rows = []
    for i in indices:
        for nm in names:
            s1 = sum(p[(i, nm)][0] for p in parts)
            s2 = sum(p[(i, nm)][1] for p in parts)
            cnt = sum(p[(i, nm)][2] for p in parts)
            mean = float(s1 / cnt)
            var = max(float(s2 / cnt) - mean * mean, 0.0)
            se = math.sqrt(var / cnt)
            pval = math.erfc(abs(mean) / (se * math.sqrt(2.0))) if se > 0 \
                else float(abs(mean) <= 1e-15)
            rows.append({"index": i, "regressor": nm, "mean": mean, "se": se,
                         "p_value": pval})
    rejected = holm_rejections([r["p_value"] for r in rows], MD_FAMILY_LEVEL)
    for row, rej in zip(rows, rejected):
        row["ok"] = not rej
    return rows


def holm_rejections(pvalues, level: float) -> list[bool]:
    """Holm's step-down rule: the k-th smallest of m p-values (k from 0) is
    rejected when it and every smaller one lie at or below level / (m - k).
    The chance of any false rejection stays at or below `level`."""
    m = len(pvalues)
    rejected = [False] * m
    for k, j in enumerate(sorted(range(m), key=lambda j: pvalues[j])):
        if pvalues[j] > level / (m - k):
            break
        rejected[j] = True
    return rejected


# -- moment estimation -------------------------------------------------------

def estimate_moment_curves(model: MartingaleFieldModel, pairs, p_grid, R: int, *,
                           i_max: int | None = None,
                           threads: int | None = None) -> PairwiseMomentField:
    """Monte Carlo moment curves for every point value and the given pair increments.

    Norm estimates are debiased by a delete-a-group jackknife with the engine
    chunks as groups, which also supplies the standard errors.  `pairs` is a
    list of (label, label) tuples.  Integer and half-integer orders p >= 2
    are raised by multiplication (`psi._abs_power_sums`).
    """
    labels = model.labels
    idx = {lb: k for k, lb in enumerate(labels)}
    pairs = sorted({_pair_key(a, b) for (a, b) in pairs})
    first, second = (np.array([idx[pr[j]] for pr in pairs], dtype=np.intp) for j in (0, 1))
    p_grid = tuple(float(p) for p in p_grid)
    m = int(i_max if i_max is not None else model.horizon)
    if m > model.horizon:
        raise HorizonExceeded(f"i_max = {m} beyond horizon {model.horizon}")

    def worker(ci, start, paths):
        rows = paths.reshape(-1, paths.shape[2])     # indexing a 2-D view is the fast path
        diffs = (rows[:, first] - rows[:, second]).reshape(paths.shape[:2] + (len(pairs),))
        pt_sum, pt_sq = paths.sum(axis=0), (paths ** 2).sum(axis=0)
        return (_abs_power_sums(paths, p_grid), pt_sum, pt_sq,
                _abs_power_sums(diffs, p_grid), paths.shape[0])

    parts = _run_chunks(model, m, R, worker, threads)
    counts = np.array([p[4] for p in parts], dtype=float)
    point_norms, point_se = _jackknife(np.stack([p[0] for p in parts]), counts, p_grid)
    pair_norms, pair_se = _jackknife(np.stack([p[3] for p in parts]), counts, p_grid)
    mean = np.stack([p[1] for p in parts]).sum(axis=0) / R
    ssq = np.stack([p[2] for p in parts]).sum(axis=0)
    var = np.maximum((ssq - R * mean ** 2) / (R - 1), 0.0)
    return PairwiseMomentField.from_arrays(
        labels, m, p_grid, pairs, point_norms, point_se, pair_norms, pair_se, var,
        meta={"model": model.name, "seed": model.seed, "replications": R},
        provenance={"kind": "monte_carlo", "seed": model.seed, "replications": R})


# -- inequality checks --------------------------------------------------------

def osekowski_check(model: MartingaleFieldModel, p_grid, n_grid, R: int, *,
                    mode: str = "points", x_index: int = 0,
                    pair: tuple[str, str] | None = None,
                    rosenthal_allowance: float = 1.0,
                    threads: int | None = None) -> list[dict]:
    """Empirical check of the martingale moment inequality.

    For the series zeta_k (point values at one x, or increments of one pair)
    and each (p, n), the reported ratio is

        |n**-0.5 sum_{k<=n} zeta_k|_p / [(p / ln p) * sqrt(mean_k |zeta_k|_p**2)]

    with numerator and denominator estimated from the same replications.
    Rows carry a batch-means standard error and flags against the universal
    constant 15.5879 and the independent-case constant 0.6535 scaled by
    `rosenthal_allowance`.
    """
    p_grid = [float(p) for p in p_grid]
    if any(p < 2 for p in p_grid):
        raise ValueError("the inequality is checked for p >= 2 only")
    n_grid = sorted(int(n) for n in n_grid)
    idx = {lb: k for k, lb in enumerate(model.labels)}
    cols = _columns(model, [x_index] if mode == "points" else [idx[x] for x in pair])

    def series_of(paths):
        if mode == "points":
            return paths[:, :, 0]
        a, b = (cols.index(idx[x]) for x in pair)
        return paths[:, :, a] - paths[:, :, b]

    def worker(ci, start, paths):
        z = series_of(paths)
        # (count, len(n_grid)) in column order, so that each n sums as one column
        sums = (np.cumsum(z, axis=1).T[[n - 1 for n in n_grid]] / np.sqrt(n_grid)[:, None]).T
        return _abs_power_sums(sums, p_grid), _abs_power_sums(z, p_grid), z.shape[0]

    parts = _run_chunks(model, n_grid[-1], R, worker, threads, cols)

    def ratio_from(num, den, cnt):
        out = np.empty((len(p_grid), len(n_grid)))
        for pi, p in enumerate(p_grid):
            lp = (den[pi] / cnt) ** (1.0 / p)
            for ni, n in enumerate(n_grid):
                lhs = (num[pi, ni] / cnt) ** (1.0 / p)
                rhs = (p / math.log(p)) * math.sqrt(float((lp[:n] ** 2).mean()))
                out[pi, ni] = 0.0 if lhs == 0 else lhs / rhs  # a zero series is 0 / 0
        return out

    tot_num = sum(p[0] for p in parts)
    tot_den = sum(p[1] for p in parts)
    ratios = ratio_from(tot_num, tot_den, R)
    batch = np.stack([ratio_from(p[0], p[1], p[2]) for p in parts])
    se = batch.std(axis=0, ddof=1) / math.sqrt(len(parts)) if len(parts) > 1 \
        else np.zeros_like(ratios)
    rows = []
    for pi, p in enumerate(p_grid):
        for ni, n in enumerate(n_grid):
            r = float(ratios[pi, ni])
            s = float(se[pi, ni])
            rows.append({"p": p, "n": n, "ratio": r, "se": s,
                         "bound": OSEKOWSKI_CONSTANT,
                         "within_bound": r <= OSEKOWSKI_CONSTANT - 3.0 * s,
                         "rosenthal_ok": r <= ROSENTHAL_CONSTANT * rosenthal_allowance})
    return rows


def eta_increment_curves(model: MartingaleFieldModel, pairs, p_grid, n_grid, R: int,
                         threads: int | None = None) -> dict:
    """Moment curves of eta_n(x1) - eta_n(x2) per pair and per n in n_grid."""
    idx = {lb: k for k, lb in enumerate(model.labels)}
    pairs = [_pair_key(a, b) for (a, b) in pairs]
    if not pairs:
        return {}
    p_grid = tuple(float(p) for p in p_grid)
    n_grid = sorted(int(n) for n in n_grid)
    cols = _columns(model, [idx[x] for pr in pairs for x in pr])
    etas = _partial_sums(model, n_grid, R, threads, cols, closed_law=False)
    prov = {"kind": "monte_carlo", "seed": model.seed, "replications": R}
    out = {}
    for pr in pairs:
        a, b = (cols.index(idx[x]) for x in pr)
        out[pr] = {n: MomentCurve.from_samples(eta[:, a] - eta[:, b], p_grid, provenance=dict(prov))
                   for n, eta in zip(n_grid, etas)}
    return out


def equicontinuity_check(model: MartingaleFieldModel, pairs, p_grid, n_grid, R: int, *,
                         psi: PsiFunction | None = None,
                         field: PairwiseMomentField | None = None,
                         threads: int | None = None) -> list[dict]:
    """Uniform-in-n modulus check for normalized-sum increments.

    The rescaled-psi norm of eta_n(x1) - eta_n(x2), maximized over the n
    grid, must stay below 15.5879 times the averaged increment distance of
    the pair.  psi defaults to the natural generating function estimated
    from the same model; domination is asserted with a 3-standard-error
    Monte Carlo margin on both sides.
    """
    from .distances import distance_bar, natural_function

    pairs = [_pair_key(a, b) for (a, b) in pairs]
    n_grid = sorted(int(n) for n in n_grid)
    if field is None:
        field = estimate_moment_curves(model, pairs, p_grid, R,
                                       i_max=max(n_grid), threads=threads)
    if psi is None:
        psi = natural_function(field)
    psi_r = rosenthal_transform(psi)
    curves = eta_increment_curves(model, pairs, p_grid, n_grid, R, threads=threads)
    rows = []
    for pr in pairs:
        lhs, lhs_se = 0.0, 0.0
        for n in n_grid:
            v, s = gls_norm(curves[pr][n], psi_r, with_se=True)
            if v > lhs:
                lhs, lhs_se = v, s
        dbar = float(distance_bar(field, pr[0], pr[1], psi, n_grid))
        rhs = OSEKOWSKI_CONSTANT * dbar
        lhs, lhs_se = float(lhs), float(lhs_se)
        rows.append({"pair": list(pr), "lhs": lhs, "lhs_se": lhs_se,
                     "dbar": dbar, "rhs": rhs,
                     "ok": bool(lhs <= rhs + 3.0 * lhs_se + 1e-12),
                     "ratio": lhs / rhs if rhs > 0 else (0.0 if lhs == 0 else math.inf)})
    return rows


def tail_domination_check(model: MartingaleFieldModel, tail: TailFunction | None,
                          x_values, n_values, R: int, *, x_index: int = 0,
                          threads: int | None = None) -> list[dict]:
    """Monte Carlo domination of normalized-sum tails by the uniform bound.

    `tail` defaults to the model's own dominating tail.  For each n the
    one-sided empirical tail max(P(eta > x), P(eta < -x)) is compared with
    the transform bound at x plus three binomial standard errors.
    """
    if tail is None:
        tail = model.dominating_tail()
    ns = sorted(int(n) for n in n_values)
    etas = _partial_sums(model, ns, R, threads, _columns(model, [x_index]))[:, :, 0]
    return [row for n, eta in zip(ns, etas) for row in _tail_rows(tail, x_values, n, eta)]


def _tail_rows(tail: TailFunction, x_values, n: int, sums: np.ndarray) -> list[dict]:
    """The one-sided empirical tail max(P(s > x), P(s < -x)) of the samples
    `sums` against the transform bound at x plus three binomial standard
    errors, one row per x."""
    R = sums.size
    rows = []
    for x in x_values:
        emp = max(float((sums > x).mean()), float((sums < -x).mean()))
        se = math.sqrt(max(emp * (1.0 - emp), 1.0 / R) / R)
        bound = w_operator(tail, float(x))
        rows.append({"n": n, "x": float(x), "empirical": emp, "se": se,
                     "bound": bound, "ok": emp <= bound + 3.0 * se})
    return rows


def weighted_tail_domination_check(model: MartingaleFieldModel, tail: TailFunction | None,
                                   x_values, weights, R: int, *, x_index: int = 0,
                                   threads: int | None = None) -> list[dict]:
    """Same domination check for sum_i b_i xi_i with unit sum of b_i**2."""
    b = np.asarray(weights, dtype=float)
    b = b / math.sqrt(float((b ** 2).sum()))
    if tail is None:
        tail = model.dominating_tail()
    n = b.size
    out = np.empty(R)

    def worker(ci, start, paths):
        out[start:start + paths.shape[0]] = paths[:, :, 0] @ b
        return None

    _run_chunks(model, n, R, worker, threads, _columns(model, [x_index]))
    return _tail_rows(tail, x_values, n, out)


def clt_diagnostic(model: MartingaleFieldModel, n_pair, R: int,
                   threads: int | None = None) -> dict:
    """Distributional-stabilization diagnostics for the normalized sums.

    Reports the two-sample KS statistic between the sup-over-x absolute
    values of eta at the two sample sizes, plus per-point one-sample KS
    against the closed-form Gaussian marginal when the model provides one.
    Small values are evidence of (not a proof of) a stabilizing law.
    """
    n_small, n_large = int(n_pair[0]), int(n_pair[1])
    if not n_small < n_large:
        raise ValueError("need n_small < n_large")
    eta_a = simulate_eta(model, n_small, R, threads=threads)
    eta_b = simulate_eta(model, n_large, R, threads=threads)
    ks_sup = ks_two_sample(np.abs(eta_a).max(axis=1), np.abs(eta_b).max(axis=1))
    stds = model.marginal_limit_std()
    per_point = None
    if stds is not None:
        per_point = {}
        for j, lb in enumerate(model.labels):
            per_point[lb] = {"n_small": ks_gaussian(eta_a[:, j], float(stds[j])),
                             "n_large": ks_gaussian(eta_b[:, j], float(stds[j]))}
    return {"n_small": n_small, "n_large": n_large, "replications": R,
            "ks_supnorm": ks_sup,
            "ks_critical_5pct": ks_two_sample_critical(R, R),
            "per_point_ks": per_point}


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimulationReport:
    """Serializable outcome of one batch of checks on one model.

    For a fixed (model, seed, replications) the JSON rendering is
    byte-identical across runs and worker-thread counts.
    """

    model: str
    seed: int
    replications: int
    check: str
    rows: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"model": self.model, "seed": self.seed,
                "replications": self.replications, "check": self.check,
                "rows": self.rows, "meta": self.meta}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @property
    def all_ok(self) -> bool:
        return all(row.get("ok", row.get("within_bound", True)) for row in self.rows)
