"""Deterministic Monte Carlo laboratory for martingale-difference fields.

Models generate adapted difference sequences xi_i(x) on a finite coordinate
grid; the engine draws replications in fixed-size chunks, chunk ci on its
own SFC64 generator seeded by SeedSequence(seed, spawn_key=(ci,)), or (ci, f)
for a reader of substream family f > 0, so results are byte-identical for a
given (model, seed, R) no matter how many worker threads run the chunks.
Chunk workers return partials, which the engine puts in chunk order.

Chunks hold only the grid columns their readers read: `osekowski_check`
its point or its pair's two points, `tail_domination_check`,
`weighted_tail_domination_check` and `martingale_difference_check` their
point, `eta_increment_curves` the points of its pairs.  `simulate_eta`,
`covariance_estimate`, `estimate_moment_curves` and `clt_diagnostic` draw
every column.  A projected draw has the full law's marginal; whether it
reuses the full-width variates is said at each kind's law.  Signs come 64
to a raw SFC64 word (`_signs`).  A step-major chunk's first m steps are the
same at any n >= m when the chunk spans agree, so a shared pass reads the
rows a pass to m would.

Every normalized sum eta_n is read by `_sums_reader`, all its n from one
pass: drawn from the law's closed sums (`Law.sums`) where it has them, else
summed from paths.  `clt_diagnostic` reads its larger n on substream family
1, so its two samples share no draw.  Every pass starts in `run_readers`, the
engine's one caller, where readers of one model share a pass when they can; a
check alone runs its reader alone.

Each shipped model kind is a `Kind` in `KINDS`: its parameters with their
defaults, and the builder of its `Law`, whose docstring describes the kind
(``iid_gaussian_field``, ``weibull_field``, ``garch_like``, ``bounded_sign``).

`checked_params` reads a kind's parameters (`KINDS`) and its kernel's
(`KERNELS`): a bad one raises ValueError naming it.  All kinds accept ``bias``
(additive, deliberately breaking the difference property for detector
tests) and ``growth`` (deterministic index scaling i**growth, used to
manufacture exploding-variance examples).
"""
from __future__ import annotations

import json
import math
import os
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .distances import PairwiseMomentField, _pair_key
from .errors import ConfigError, HorizonExceeded, OrderOverflow, check_keys, finite
from .psi import (SE_MARGIN, MomentCurve, PsiFunction, _abs_power_sums, _group_jackknife,
                  _jackknife, _scratch, _SCRATCH, gls_norm, rosenthal_transform)
from .tails import MIN_SHAPE, TailFunction, w_operator

#: Universal constant in the martingale moment inequality
#: |n**-0.5 sum zeta_k|_p <= C * (p/ln p) * sqrt(mean of |zeta_k|_p**2).
OSEKOWSKI_CONSTANT = 15.5879

#: Sharp constant of the analogous inequality for independent summands.
ROSENTHAL_CONSTANT = 0.6535

#: Each covariance kernel's parameters and their defaults, all finite numbers.
KERNELS = {"white": {"variance": 1.0}, "rbf": {"variance": 1.0, "length_scale": 0.5},
           "brownian": {"variance": 1.0}, "fractional_brownian": {"variance": 1.0, "hurst": 0.5}}

#: Family-wise false-alarm level of `martingale_difference_check`: that of
#: one two-sided `SE_MARGIN`-standard-error test, 2 * (1 - Phi(3)).
MD_FAMILY_LEVEL = math.erfc(SE_MARGIN / math.sqrt(2.0))

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
    cdf = 0.5 * (1.0 + np.array([math.erf(z) for z in (x / (sigma * math.sqrt(2.0))).tolist()]))
    up = np.arange(1, n + 1) / n - cdf
    dn = cdf - np.arange(0, n) / n
    return float(max(up.max(), dn.max()))


def ks_two_sample_critical(n1: int, n2: int) -> float:
    """Asymptotic two-sample rejection threshold at level 0.05."""
    c = math.sqrt(-0.5 * math.log(0.05 / 2.0))
    return c * math.sqrt((n1 + n2) / (n1 * n2))


# ---------------------------------------------------------------------------
# covariance kernels and model kinds
# ---------------------------------------------------------------------------

def checked_params(table: dict, given: dict, owner: str) -> dict:
    """`given` over the defaults of `table`, a `Kind.params` or `KERNELS` entry, numbers as
    floats; ValueError naming a bad key.  Strings, objects and null caps are the caller's."""
    p = check_keys(table, given, owner)
    for key, val in p.items():
        if isinstance(table[key], (str, dict)) or val is table[key] is None:
            continue
        p[key] = finite(key, val)
        if key in ("K", "q", "cap", "base", "variance", "length_scale") and not val > 0:
            raise ValueError(f"{key} must be > 0, got {val!r}")
        if key == "q" and val < MIN_SHAPE:  # the least shape of a closed_weibull tail
            raise ValueError(f"q must be >= {MIN_SHAPE:g}, got {val!r}")
    return p


def kernel_matrix(spec: dict, coords: np.ndarray) -> np.ndarray:
    """Covariance matrix on the coordinate rows of the kernel `spec`, read by `checked_params`."""
    if not isinstance(spec, dict):
        raise ValueError(f"kernel must be an object with a name, got {spec!r}")
    name = spec.get("name")
    if name not in KERNELS:
        raise ValueError(f"unknown kernel {name!r}")
    k = checked_params(KERNELS[name], {key: v for key, v in spec.items() if key != "name"}, name)
    var = k["variance"]
    if name == "white":
        return var * np.eye(coords.shape[0])
    if name == "rbf":
        ell = k["length_scale"]
        d2 = ((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2)
        return var * np.exp(-0.5 * d2 / (ell * ell))
    h = k.get("hurst", 0.5)
    if not (0.0 < h <= 1.0):
        raise ValueError("hurst must lie in (0, 1]")
    norms = np.sqrt((coords ** 2).sum(axis=1))
    dists = np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2))
    return var * 0.5 * (norms[:, None] ** (2 * h) + norms[None, :] ** (2 * h)
                        - dists ** (2 * h))


def _cholesky(kmat: np.ndarray) -> np.ndarray:
    jitter = 1e-12 * max(1.0, float(np.max(np.diag(kmat))))
    return np.linalg.cholesky(kmat + jitter * np.eye(kmat.shape[0]))


#: A model's law without growth and bias: `paths(n, rng, count, cols)`, a chunk
#: (count, n, len(cols)) on the grid columns `cols`; `tail()`, a dominating tail;
#: where closed forms are known, else None, `covariance()` of the normalized sums
#: and `sums(ns, cols)`, a `draw(rng, count)` of S_n at the ascending array `ns`;
#: `gaussian`, an i.i.d. Gaussian field, whose moment field is exact.
Law = namedtuple("Law", "paths tail covariance sums gaussian", defaults=[None, None, False])

#: A model kind: its parameters and their defaults (``...``: required; all but
#: ``kernel`` and ``cross`` are finite numbers, a null ``cap`` means no cap), and
#: `law(model, p)`, which checks the parameters `p` and builds the model's `Law`.
Kind = namedtuple("Kind", "params law")


def _amplitude(model, p: dict) -> np.ndarray:
    """The spatial profile a(x) = 1 + amplitude_slope * x on the first coordinate, > 0."""
    amp = 1.0 + p["amplitude_slope"] * model._coord_array[:, 0]
    if np.any(amp <= 0):
        raise ValueError(f"amplitude_slope = {p['amplitude_slope']} makes the amplitude "
                         f"profile 1 + amplitude_slope * x nonpositive on the grid")
    return amp


def _kernel_sd(model) -> float:
    model._chol(tuple(range(model.npoints)))  # so that a bad kernel spec fails here
    return math.sqrt(float(np.max(np.diag(model._kernel))))


def _gaussian_law(model, p: dict) -> Law:
    """``iid_gaussian_field``: xi_i ~ N(0, K) i.i.d. for the kernel's matrix K.  Normals
    are drawn row-major, (count, n, k); a projected draw is a different stream.  S_n
    has independent increments N(0, sum i**(2 growth) K) between consecutive n."""
    smax = _kernel_sd(model)

    def paths(n, rng, count, cols):
        k = len(cols)
        z = rng.standard_normal(out=np.empty((count, n, 1)) if k == 1 else _scratch("draws", (count, n, k)))
        return _correlate(z, model._chol(cols))

    def sums(ns, cols):
        power = np.cumsum(np.arange(1.0, ns[-1] + 1) ** (2 * model.growth))
        sd = np.sqrt(np.diff(power[ns - 1], prepend=0.0))[:, None, None]
        chol = model._chol(cols)
        return lambda rng, count: np.cumsum(
            _correlate(rng.standard_normal((len(ns), count, len(cols))), chol) * sd, axis=0)

    return Law(paths, lambda: TailFunction.closed_weibull(smax * math.sqrt(2.0), 2.0),
               lambda: model._kernel.copy(), sums, gaussian=True)


def _weibull_law(model, p: dict) -> Law:
    """``weibull_field``: xi_i(x) = a(x) s K E**(1/q) i.i.d., E ~ Exp(1), s a fair
    sign and a(x) the profile (`_amplitude`), the radial part capped at ``cap``
    unless null.  E, then the signs, are drawn (count, n) for all columns, so a
    projected draw reuses the full-width variates."""
    amp = _amplitude(model, p)

    def paths(n, rng, count, cols):
        k = len(cols)
        radial = rng.standard_exponential(out=np.empty((count, n, 1)) if k == 1
                                          else _scratch("draws", (count, n, 1)))
        radial **= 1.0 / p["q"]
        radial *= p["K"]
        if p["cap"] is not None:
            np.minimum(radial, p["cap"], out=radial)
        radial *= _signs(rng, (count, n, 1))
        return np.multiply(radial, amp[list(cols)], out=radial if k == 1 else None)

    def covariance():
        try:
            second = p["K"] * p["K"] * math.gamma(1.0 + 2.0 / p["q"])
        except OverflowError:  # Gamma(1 + 2/q) beyond float range
            second = math.inf
        return second * np.outer(amp, amp)

    return Law(paths, lambda: TailFunction.closed_weibull(p["K"] * float(np.max(amp)), p["q"]),
               covariance if p["cap"] is None else None)


def _garch_law(model, p: dict) -> Law:
    """``garch_like``: xi_i(x) = sigma_i(x) eps_i(x), eps_i ~ N(0, K) i.i.d., with the
    volatility sigma_i = clip(1 + vol_amp tanh(h_i), vol_lo, vol_hi) of the state h_1 = 0,
    h_{i+1} = memory h_i + (1 - memory) eps_i at x, bounded for ``memory`` in [0, 1].
    Normals are drawn step-major, (n, count, k); a projected draw is a different stream."""
    amp, mem, lo, hi = p["vol_amp"], p["memory"], p["vol_lo"], p["vol_hi"]
    if not 0.0 < lo <= hi:
        raise ValueError(f"vol_lo and vol_hi need 0 < vol_lo <= vol_hi, got {lo} and {hi}")
    if not 0.0 <= mem <= 1.0:
        raise ValueError(f"memory must lie in [0, 1], got {mem}")
    smax = _kernel_sd(model)
    # sigma lies in [1 - |amp|, 1 + |amp|]: the clip binds only where [lo, hi] cuts in
    clip = not lo <= 1.0 - abs(amp) <= 1.0 + abs(amp) <= hi

    def paths(n, rng, count, cols):
        k = len(cols)
        # one draw for all steps gives the variates of one draw per step
        steps = _correlate(rng.standard_normal(out=_scratch("draws", (n, count, k))), model._chol(cols))
        state, sigma, new = np.zeros((count, k)), np.empty((count, k)), np.empty((count, k))
        for i in range(n):   # sigma = clip(1 + amp tanh(state)), state = mem state + (1 - mem) eps
            np.tanh(state, out=sigma)
            sigma *= amp
            sigma += 1.0
            if clip:
                np.minimum(np.maximum(sigma, lo, out=sigma), hi, out=sigma)
            state *= mem
            state += np.multiply(steps[i], 1.0 - mem, out=new)
            steps[i] *= sigma
        return steps.transpose(1, 0, 2).copy()

    return Law(paths, lambda: TailFunction.closed_weibull(hi * smax * math.sqrt(2.0), 2.0))


def _sign_law(model, p: dict) -> Law:
    """``bounded_sign``: xi_i(x) = s_i a0(x) (1 + modulation tanh(S_{i-1}(x) / sqrt(max(i - 1,
    1)))), fair signs s_i and a0 = base a(x) (`_amplitude`).  Signs are drawn step-major, (n,
    count, 1) when ``cross`` is shared, reused by a projected draw, else (n, count, k).
    Unmodulated without growth, S_n - S_m = a0 (2 Binomial(n - m, 1/2) - n + m)."""
    if p["cross"] not in ("shared", "independent"):
        raise ValueError(f"cross must be shared or independent, got {p['cross']!r}")
    mod, amp = p["modulation"], _amplitude(model, p)
    a0, shared = p["base"] * amp, p["cross"] == "shared"

    def paths(n, rng, count, cols):
        k, a = len(cols), a0[list(cols)]
        signs = _signs(rng, (n, count, 1 if shared else k))
        steps = signs if signs.shape[2] == k else _scratch("draws", (n, count, k))
        if mod == 0.0:
            np.multiply(signs, a, out=steps)
        else:
            running, ampl = np.zeros((count, k)), np.empty((count, k))
            for i in range(n):   # ampl = a (1 + mod tanh(running / sqrt(max(i, 1))))
                np.tanh(np.divide(running, math.sqrt(max(i, 1)), out=ampl), out=ampl)
                ampl *= mod
                ampl += 1.0
                ampl *= a
                running += np.multiply(signs[i], ampl, out=steps[i])
        return steps.transpose(1, 0, 2).copy()

    def sums(ns, cols):
        steps, a = np.diff(ns, prepend=0)[:, None, None], a0[list(cols)]
        width = 1 if shared else len(cols)

        def draw(rng, count):
            heads = np.cumsum(rng.binomial(steps, 0.5, (len(ns), count, width)), axis=0)
            return (2 * heads - ns[:, None, None]) * a
        return draw

    # the modulation factor 1 + m tanh(.) lies strictly inside 1 -+ |m|
    cutoff = p["base"] * float(np.max(amp)) * (1.0 + abs(mod))
    return Law(paths, lambda: TailFunction.step(cutoff),
               None if mod else (lambda: np.outer(a0, a0) if shared else np.diag(a0 ** 2)),
               None if mod or model.growth else sums)


KINDS = {
    "iid_gaussian_field": Kind({"kernel": {"name": "white"}}, _gaussian_law),
    "weibull_field": Kind({"K": ..., "q": ..., "cap": None, "amplitude_slope": 0.0}, _weibull_law),
    "garch_like": Kind({"kernel": {"name": "white"}, "vol_amp": 0.45, "memory": 0.7,
                        "vol_lo": 0.5, "vol_hi": 2.0}, _garch_law),
    "bounded_sign": Kind({"base": 1.0, "modulation": 0.0, "amplitude_slope": 0.0,
                          "cross": "shared"}, _sign_law),
}


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
        finite("bias", self.bias)
        finite("growth", self.growth)
        self.law  # built here, so that a bad parameter fails here

    @cached_property
    def p(self) -> dict:
        """`params` over the kind's `KINDS` defaults, read by `checked_params`."""
        return checked_params(KINDS[self.kind].params, self.params, self.kind)

    @cached_property
    def law(self) -> Law:
        """The model's `Law`, built by its kind at construction; threads only read it."""
        return KINDS[self.kind].law(self, self.p)

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

    def _chol(self, cols: tuple[int, ...]) -> np.ndarray:
        """Cholesky factor of the kernel restricted to the grid columns `cols`."""
        return _cholesky(self._kernel[np.ix_(cols, cols)])

    # -- analytic companions -------------------------------------------------

    def analytic_covariance(self) -> np.ndarray | None:
        """Covariance of the normalized sums when known in closed form."""
        if self.bias != 0.0 or self.growth != 0.0 or self.law.covariance is None:
            return None
        return self.law.covariance()

    def exact_moment_field(self, pairs, p_grid, m: int) -> PairwiseMomentField | None:
        """The moment field of indices 1..m that `estimate_moment_curves`
        estimates, when known in closed form: an i.i.d. Gaussian field has
        Gaussian point and increment norms, the same at every index."""
        if not self.law.gaussian or self.bias != 0.0 or self.growth != 0.0:
            return None
        if m > self.horizon:
            raise HorizonExceeded(f"i_max = {m} beyond horizon {self.horizon}")
        return PairwiseMomentField.from_gaussian_kernel(self._kernel, p_grid, m,
                                                        self.labels, pairs)

    def dominating_tail(self) -> TailFunction:
        """A tail function dominating every one-sided tail of xi_i(x).

        Ignores `growth`; with growth > 0 no fixed dominating tail exists and
        callers should not rely on this.
        """
        return self.law.tail()

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
    # least ~16 chunks so that jackknife standard errors are meaningful
    size = int(min(8192, max(16, _CHUNK_BUDGET // max(1, n * npts)), max(16, R // 16)))
    return [(ci, start, min(size, R - start)) for ci, start in enumerate(range(0, R, size))]


def _chunk_rng(seed: int, chunk_index: int, family: int = 0) -> np.random.Generator:
    seq = np.random.SeedSequence(seed, spawn_key=(chunk_index, family) if family else (chunk_index,))
    return np.random.Generator(np.random.SFC64(seq))


def resolve_threads(threads: int | None) -> int:
    """`threads`, else UCLT_THREADS, else 1: a whole number >= 1 (ValueError, ConfigError)."""
    if threads is None:
        env = os.environ.get("UCLT_THREADS", "").strip()
        if env and not (env.isdecimal() and int(env) >= 1):
            raise ConfigError(f"UCLT_THREADS: must be a whole number >= 1, got {env!r}")
        threads = int(env) if env else 1
    elif not (threads >= 1 and float(threads).is_integer()):
        raise ValueError(f"threads must be a whole number >= 1, got {threads!r}")
    return int(threads)


def _correlate(z: np.ndarray, chol: np.ndarray) -> np.ndarray:
    """z @ chol.T; a 1 x 1 factor scales z in place instead, to the same values."""
    return np.multiply(z, chol[0, 0], out=z) if chol.shape == (1, 1) else z @ chol.T


def _signs(rng: np.random.Generator, shape) -> np.ndarray:
    """Fair signs +-1.0 of `shape` in C order in `_scratch` "signs", 64 to a
    raw word of the bit generator, from its least significant bit up."""
    size = math.prod(shape)
    words = rng.bit_generator.random_raw(-(-size // 64)).astype("<u8", copy=False)
    bits = np.unpackbits(words.view(np.uint8), bitorder="little", count=size).reshape(shape)
    signs = np.multiply(bits, 2.0, out=_scratch("signs", shape))
    signs -= 1.0
    return signs


def _generate(model: MartingaleFieldModel, n: int, rng: np.random.Generator,
              count: int, cols: tuple[int, ...] | None = None) -> np.ndarray:
    """One chunk of paths with shape (count, n, len(cols)), on the sorted
    distinct grid columns `cols`, all of them when None.

    The model's law (`Law.paths`) draws them with the full law's marginal on
    `cols`, intermediates in this thread's `_scratch` buffers and the paths a
    fresh array (one column's may be drawn in place); then growth and bias apply.
    """
    paths = model.law.paths(n, rng, count, tuple(range(model.npoints)) if cols is None else cols)
    if model.growth != 0.0:
        paths *= (np.arange(1, n + 1) ** model.growth)[None, :, None]
    if model.bias != 0.0:
        paths += model.bias
    return paths


def _columns(model: MartingaleFieldModel, indices) -> tuple[int, ...]:
    """The sorted distinct grid columns among `indices`, negative ones
    counting from the end: the `cols` of a chunk that reads only these."""
    if any(not -model.npoints <= i < model.npoints for i in indices):
        raise ValueError(f"x_index must index one of the {model.npoints} grid points, got {indices}")
    return tuple(sorted({range(model.npoints)[i] for i in indices}))


def _check_two_chunks(R: int, n: int, npoints: int) -> None:
    """ValueError unless R replications give two engine chunks or more (at any n
    when R > 16): a standard error with the chunks as groups needs two."""
    if len(_chunk_spans(R, n, npoints)) < 2:
        raise ValueError(f"R = {R} gives fewer than two engine chunks; a standard error "
                         f"with the chunks as groups needs two (R > 16)")


def _run_chunks(model: MartingaleFieldModel, n: int, R: int, worker,
                threads: int | None = None, cols: tuple[int, ...] | None = None,
                draw=None, family: int = 0) -> list:
    """Generate chunks (optionally in parallel) on substream family `family`:
    `worker(chunk_index, start, paths)` returns each chunk's result, and the
    engine returns the results in chunk order.  Chunks hold the grid columns
    `cols` only (all when None); their spans depend on the full grid, so
    jackknife groups are the same at any width.  `draw(rng, count)`, when
    given, makes each chunk's data in place of the paths.  A worker owns the
    paths it gets; each thread keeps its `_scratch` buffers from chunk to
    chunk of a pass."""
    if n > model.horizon:
        raise HorizonExceeded(f"requested n = {n} beyond horizon {model.horizon}")
    if R < 1:
        raise ValueError(f"need at least one replication, got R = {R}")
    spans = _chunk_spans(R, n, model.npoints)

    def task(span):
        ci, start, count = span
        rng = _chunk_rng(model.seed, ci, family)
        return worker(ci, start, _generate(model, n, rng, count, cols) if draw is None
                      else draw(rng, count))

    nt = resolve_threads(threads)
    if nt == 1 or len(spans) == 1:
        parts = [task(span) for span in spans]
        vars(_SCRATCH).clear()   # a pass's buffers go with it, as a pool thread's do
        return parts
    with ThreadPoolExecutor(max_workers=nt) as pool:
        return list(pool.map(task, spans))


#: One check's share of an engine pass of R replications to step n or beyond
#: on the grid columns `cols` and substream family `family`: `read(paths)`
#: reduces a chunk's paths, or its `draw(rng, count)` when a closed law gives
#: one, and `finish(parts)` makes the result from the parts in chunk order.
Reader = namedtuple("Reader", "R n cols read finish draw family", defaults=[None, 0])


def run_readers(model: MartingaleFieldModel, readers: list[Reader],
                threads: int | None = None) -> list:
    """Each reader's result, in order.  Readers with the same R, columns and family
    and no draw share one engine pass, sized (chunk spans too) for the largest of
    their n; any other has a pass of its own, in the order of first readers."""
    groups, results = {}, {}
    for k, r in enumerate(readers):
        groups.setdefault((r.R, r.cols, r.family) if r.draw is None else k, []).append(k)
    for ks in groups.values():
        group = [readers[k] for k in ks]
        parts = _run_chunks(model, max(r.n for r in group), group[0].R,
                            lambda ci, start, data: [r.read(data) for r in group],
                            threads, group[0].cols, group[0].draw, group[0].family)
        results.update((k, readers[k].finish([p[j] for p in parts])) for j, k in enumerate(ks))
    return [results[k] for k in range(len(readers))]


def _sums_reader(model: MartingaleFieldModel, n_values, R: int,
                 cols: tuple[int, ...] | None = None) -> Reader:
    """The one reader of eta_n at each n of the ascending `n_values` on the grid
    columns `cols` (all when None): the law's closed sums (`Law.sums`) plus the
    bias where it has them, else paths summed in blocks between consecutive n."""
    ns, cols = [int(n) for n in n_values], tuple(range(model.npoints)) if cols is None else cols
    draw = model.law.sums(np.array(ns), cols) if model.law.sums else None
    scale = np.array([1.0 / math.sqrt(n) for n in ns])[:, None, None]
    drift = model.bias * np.array(ns)[:, None, None]

    def read(data):
        if draw is None:
            data = np.cumsum([data[:, lo:n].sum(axis=1) for lo, n in zip([0] + ns, ns)], axis=0)
            return data * scale
        return (data + drift) * scale

    return Reader(R, ns[-1], cols, read, lambda parts: np.concatenate(parts, axis=1), draw)


def _partial_sums(model: MartingaleFieldModel, n_values, R: int, threads: int | None = None,
                  cols: tuple[int, ...] | None = None) -> np.ndarray:
    """eta_n = n**-0.5 S_n on the grid columns `cols` (all when None) for each n
    of the ascending `n_values`, shape (len(n_values), R, len(cols)), from one
    engine pass (`_sums_reader`), so rows at different n share draws."""
    return run_readers(model, [_sums_reader(model, n_values, R, cols)], threads)[0]


# ---------------------------------------------------------------------------
# simulation operations
# ---------------------------------------------------------------------------

def simulate_eta(model: MartingaleFieldModel, n: int, R: int,
                 threads: int | None = None) -> np.ndarray:
    """R replications of eta_n(x) = n**-0.5 sum_i xi_i(x) by `_sums_reader` (the
    closed law where the model has one, else paths), of shape (R, npoints)."""
    return _partial_sums(model, [n], R, threads)[0]


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
    p-value of mean / se, and `ok` (`holm_marked`): not rejected by Holm's
    step-down rule over all rows at MD_FAMILY_LEVEL, that of one 3-se test.
    """
    reader = martingale_difference_reader(model, indices, x_index, R)
    return holm_marked(run_readers(model, [reader], threads)[0])


def martingale_difference_reader(model: MartingaleFieldModel, indices, x_index: int = 0,
                                 R: int = 20000) -> Reader:
    """`martingale_difference_check`'s reader, whose rows have no `ok` (`holm_marked`)."""
    indices = sorted(set(int(i) for i in indices))
    if min(indices) < 1:
        raise ValueError("indices are 1-based")
    names = ("const", "tanh(prev)", "tanh(runsum)")

    def read(paths):
        xs, sums = paths[:, :, 0], []
        for i in indices:
            xi = xs[:, i - 1]
            prev = xs[:, i - 2] if i >= 2 else np.zeros_like(xi)
            runsum = xs[:, :i - 1].sum(axis=1) / math.sqrt(max(i - 1, 1))
            for z in (np.ones_like(xi), np.tanh(prev), np.tanh(runsum)):
                v = xi * z
                sums.append((v.sum(), (v * v).sum()))
        return np.array(sums)

    def finish(parts):
        rows = []
        for (i, nm), (m1, m2) in zip([(i, nm) for i in indices for nm in names], sum(parts) / R):
            mean = float(m1)
            se = math.sqrt(max(float(m2) - mean * mean, 0.0) / R)
            pval = math.erfc(abs(mean) / (se * math.sqrt(2.0))) if se > 0 \
                else float(abs(mean) <= 1e-15)
            rows.append({"index": i, "regressor": nm, "mean": mean, "se": se, "p_value": pval})
        return rows

    return Reader(R, max(indices), _columns(model, [x_index]), read, finish)


def holm_marked(rows: list[dict]) -> list[dict]:
    """`rows`, each with `ok`: its `p_value` not rejected by Holm at MD_FAMILY_LEVEL."""
    for row, rej in zip(rows, holm_rejections([r["p_value"] for r in rows], MD_FAMILY_LEVEL)):
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

def _check_orders_finite(p_grid, *arrays) -> None:
    """OrderOverflow naming the first order of `p_grid` at which one of the
    arrays (p along axis 0) holds a value beyond the range of a double."""
    bad = np.any([~np.isfinite(a).reshape(len(p_grid), -1).all(axis=1) for a in arrays], axis=0)
    if bad.any():
        raise OrderOverflow(f"order p = {p_grid[int(np.argmax(bad))]:g}: |value|**p of the "
                            f"simulated values is beyond the range of a double")


def estimate_moment_curves(model: MartingaleFieldModel, pairs, p_grid, R: int, *,
                           i_max: int | None = None,
                           threads: int | None = None) -> PairwiseMomentField:
    """Monte Carlo moment curves for every point value and the given pair increments.

    Norm estimates are debiased by a delete-a-group jackknife with the engine
    chunks as groups, which also supplies the standard errors.  `pairs` is a
    list of (label, label) tuples.  Whole and half-whole orders 2 <= p <= 1024
    are raised by multiplication in `psi._abs_power_sums`, which forms pair
    differences and adds rows in chunk order whatever its slab size (a fixed
    float budget).  Raises `OrderOverflow` if an order takes a simulated
    value beyond float range, and ValueError if R gives fewer than two engine
    chunks (R <= 16).
    """
    labels = model.labels
    idx = {lb: k for k, lb in enumerate(labels)}
    pairs = sorted({_pair_key(a, b) for (a, b) in pairs})
    first, second = (np.array([idx[pr[j]] for pr in pairs], dtype=np.intp) for j in (0, 1))
    p_grid = tuple(float(p) for p in p_grid)
    m = int(i_max if i_max is not None else model.horizon)
    if m > model.horizon:
        raise HorizonExceeded(f"i_max = {m} beyond horizon {model.horizon}")
    _check_two_chunks(R, m, model.npoints)

    orders = p_grid if 2.0 in p_grid else p_grid + (2.0,)   # the squares are order 2's row

    def read(paths):
        with np.errstate(over="ignore"):  # an overflowing order is reported below
            sums = _abs_power_sums(paths, orders)
            return (sums[:len(p_grid)], paths.sum(axis=0), sums[orders.index(2.0)],
                    _abs_power_sums(paths, p_grid, pairs=(first, second)), paths.shape[0])

    def finish(parts):
        point, total, ssq, pair, counts = (np.stack([p[j] for p in parts]) for j in range(5))
        with np.errstate(invalid="ignore"):
            point_norms, point_se = _jackknife(point, counts, p_grid)
            pair_norms, pair_se = _jackknife(pair, counts, p_grid)
        _check_orders_finite(p_grid, point_norms, pair_norms)
        mean, ssq = total.sum(axis=0) / R, ssq.sum(axis=0)
        var = np.maximum((ssq - R * mean ** 2) / (R - 1), 0.0)
        return PairwiseMomentField(
            labels, m, p_grid, pairs, point_norms, point_se, pair_norms, pair_se, var,
            meta={"model": model.name, "seed": model.seed, "replications": R},
            provenance={"kind": "monte_carlo", "seed": model.seed, "replications": R})

    return run_readers(model, [Reader(R, m, None, read, finish)], threads)[0]


# -- inequality checks --------------------------------------------------------

def osekowski_check(model: MartingaleFieldModel, p_grid, n_grid, R: int, *,
                    mode: str = "points", x_index: int = 0,
                    pair: tuple[str, str] | None = None,
                    threads: int | None = None) -> list[dict]:
    """Empirical check of the martingale moment inequality.

    For the series zeta_k (point values at one x, or increments of one pair)
    and each (p, n), the reported ratio is

        |n**-0.5 sum_{k<=n} zeta_k|_p / [(p / ln p) * sqrt(mean_k |zeta_k|_p**2)]

    with numerator and denominator estimated from the same replications.
    Rows carry a leave-one-chunk-out jackknife standard error and flags
    against the universal constant 15.5879, with a margin of `SE_MARGIN`
    standard errors, and the independent-case constant 0.6535.  Raises
    `OrderOverflow` if an order takes a simulated value beyond float range,
    and ValueError if R gives fewer than two engine chunks (R <= 16).
    """
    reader = osekowski_reader(model, p_grid, n_grid, R, mode=mode, x_index=x_index, pair=pair)
    return run_readers(model, [reader], threads)[0]


def osekowski_reader(model: MartingaleFieldModel, p_grid, n_grid, R: int, *,
                     mode: str = "points", x_index: int = 0,
                     pair: tuple[str, str] | None = None) -> Reader:
    """`osekowski_check`'s reader: each chunk's power sums of the normalized
    sums and of the steps to the largest n, the rows from their totals."""
    p_grid = [float(p) for p in p_grid]
    if any(p < 2 for p in p_grid):
        raise ValueError("the inequality is checked for p >= 2 only")
    n_grid = sorted(int(n) for n in n_grid)
    idx = {lb: k for k, lb in enumerate(model.labels)}
    if mode not in ("points", "pairs"):
        raise ValueError(f"mode must be points or pairs, got {mode!r}")
    if mode == "pairs" and (pair is None or len(pair) != 2 or pair[0] == pair[1]
                            or not set(pair) <= set(idx)):
        raise ValueError(f"pairs mode needs two distinct labels of {model.labels}, got {pair!r}")
    cols = _columns(model, [x_index] if mode == "points" else [idx[x] for x in pair])
    a, b = (0, 0) if mode == "points" else (cols.index(idx[x]) for x in pair)
    _check_two_chunks(R, n_grid[-1], model.npoints)

    def read(paths):
        paths = paths[:, :n_grid[-1]]
        z = paths[:, :, 0] if mode == "points" else paths[:, :, a] - paths[:, :, b]
        # (count, len(n_grid)) in column order, so that each n sums as one column
        sums = (np.cumsum(z, axis=1).T[[n - 1 for n in n_grid]] / np.sqrt(n_grid)[:, None]).T
        with np.errstate(over="ignore"):  # an overflowing order is reported below
            return _abs_power_sums(sums, p_grid), _abs_power_sums(z, p_grid), z.shape[0]

    def ratio_from(num, den, cnt):
        out = np.empty((len(p_grid), len(n_grid)))
        for pi, p in enumerate(p_grid):
            lp = (den[pi] / cnt) ** (1.0 / p)
            for ni, n in enumerate(n_grid):
                lhs = (num[pi, ni] / cnt) ** (1.0 / p)
                rhs = (p / math.log(p)) * math.sqrt(float((lp[:n] ** 2).mean()))
                out[pi, ni] = 0.0 if lhs == 0 else lhs / rhs  # a zero series is 0 / 0
        return out

    def finish(parts):
        num, den, cnt = (np.array([p[j] for p in parts]) for j in (0, 1, 2))
        with np.errstate(over="ignore"):   # an overflowing order is reported here
            _check_orders_finite(p_grid, num.sum(axis=0), den.sum(axis=0))
        ratios, _, se = _group_jackknife(
            lambda *sets: np.array([ratio_from(*one) for one in zip(*sets)]), num, den, cnt)
        return [{"p": p, "n": n, "ratio": r, "se": s, "bound": OSEKOWSKI_CONSTANT,
                 "within_bound": r <= OSEKOWSKI_CONSTANT - SE_MARGIN * s,
                 "rosenthal_ok": r <= ROSENTHAL_CONSTANT}
                for p, rs, ss in zip(p_grid, ratios.tolist(), se.tolist())
                for n, r, s in zip(n_grid, rs, ss)]

    return Reader(R, n_grid[-1], cols, read, finish)


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
    etas = _partial_sums(model, n_grid, R, threads, cols)
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
    from the same model; domination is asserted with a Monte Carlo margin of
    `SE_MARGIN` standard errors on both sides.
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
                     "ok": bool(lhs <= rhs + SE_MARGIN * lhs_se + 1e-12),
                     "ratio": lhs / rhs if rhs > 0 else (0.0 if lhs == 0 else math.inf)})
    return rows


def tail_domination_check(model: MartingaleFieldModel, tail: TailFunction | None,
                          x_values, n_values, R: int, *, x_index: int = 0,
                          threads: int | None = None) -> list[dict]:
    """Monte Carlo domination of normalized-sum tails by the uniform bound.

    `tail` defaults to the model's own dominating tail.  For each n the
    one-sided empirical tail max(P(eta > x), P(eta < -x)) is compared with
    the transform bound at x, which holds for every n and is computed once
    per x, plus `SE_MARGIN` binomial standard errors.
    """
    reader = tail_domination_reader(model, tail, x_values, n_values, R, x_index=x_index)
    return run_readers(model, [reader], threads)[0]


def tail_domination_reader(model: MartingaleFieldModel, tail: TailFunction | None,
                           x_values, n_values, R: int, *, x_index: int = 0) -> Reader:
    """`tail_domination_check`'s reader: `_partial_sums`' at one point, made into rows."""
    ns = sorted(int(n) for n in n_values)
    sums = _sums_reader(model, ns, R, _columns(model, [x_index]))
    bounds = _tail_bounds(model.dominating_tail() if tail is None else tail, x_values)
    return sums._replace(finish=lambda parts: [
        row for n, eta in zip(ns, sums.finish(parts)[:, :, 0]) for row in _tail_rows(bounds, n, eta)])


def _tail_bounds(tail: TailFunction, x_values) -> list[tuple[float, float]]:
    """(x, transform bound at x) for each x of `x_values`, in order."""
    return [(float(x), w_operator(tail, float(x))) for x in x_values]


def _tail_rows(bounds: list[tuple[float, float]], n: int, sums: np.ndarray) -> list[dict]:
    """The one-sided empirical tail max(P(s > x), P(s < -x)) of the samples
    `sums` against the bound at x (`_tail_bounds`) plus `SE_MARGIN` binomial
    standard errors, one row per x."""
    R = sums.size
    rows = []
    for x, bound in bounds:
        emp = max(float((sums > x).mean()), float((sums < -x).mean()))
        se = math.sqrt(max(emp * (1.0 - emp), 1.0 / R) / R)
        rows.append({"n": n, "x": x, "empirical": emp, "se": se,
                     "bound": bound, "ok": emp <= bound + SE_MARGIN * se})
    return rows


def weighted_tail_domination_check(model: MartingaleFieldModel, tail: TailFunction | None,
                                   x_values, weights, R: int, *, x_index: int = 0,
                                   threads: int | None = None) -> list[dict]:
    """Same domination check for sum_i b_i xi_i with unit sum of b_i**2."""
    b = np.asarray(weights, dtype=float)
    norm = float((b ** 2).sum())
    if not 0 < norm < math.inf:
        raise ValueError(f"weights must have a positive finite norm, got {weights!r}")
    b = b / math.sqrt(norm)
    bounds = _tail_bounds(model.dominating_tail() if tail is None else tail, x_values)
    reader = Reader(R, b.size, _columns(model, [x_index]), lambda paths: paths[:, :, 0] @ b,
                    lambda parts: _tail_rows(bounds, b.size, np.concatenate(parts)))
    return run_readers(model, [reader], threads)[0]


def clt_diagnostic(model: MartingaleFieldModel, n_pair, R: int,
                   threads: int | None = None) -> dict:
    """Distributional-stabilization diagnostics for the normalized sums.

    Reports the two-sample KS statistic between the sup-over-x absolute
    values of eta at the two sample sizes, plus per-point one-sample KS
    against the closed-form Gaussian marginal when the model provides one.
    Small values are evidence of (not a proof of) a stabilizing law.  Both
    samples come from `_sums_reader`, the larger on substream family 1, so
    that they share no draw, as the two-sample test assumes.
    """
    n_small, n_large = int(n_pair[0]), int(n_pair[1])
    if not n_small < n_large:
        raise ValueError("need n_small < n_large")
    small, large = _sums_reader(model, [n_small], R), _sums_reader(model, [n_large], R)
    eta_a, eta_b = (eta[0] for eta in run_readers(model, [small, large._replace(family=1)], threads))
    ks_sup = ks_two_sample(np.abs(eta_a).max(axis=1), np.abs(eta_b).max(axis=1))
    cov = model.analytic_covariance()
    per_point = None if cov is None else {
        lb: {"n_small": ks_gaussian(eta_a[:, j], sd), "n_large": ks_gaussian(eta_b[:, j], sd)}
        for j, (lb, sd) in enumerate(zip(model.labels, np.sqrt(np.diag(cov)).tolist()))}
    return {"n_small": n_small, "n_large": n_large, "replications": R, "ks_supnorm": ks_sup,
            "ks_critical_5pct": ks_two_sample_critical(R, R), "per_point_ks": per_point}


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
