"""Covering/entropy integrals and the hypothesis classifiers built on them.

An `EntropyProfile` records entropy (log covering number) against radius for
a finite space, either measured (greedy or exact covering) or coming from a
closed-form power-law model.  Three integrals are evaluated over (0, D]:

* exp of the lower transform of (log 2 + H)   -- the chaining integral,
* H raised to a fixed power                    -- the stretched-tail variant,
* exp(H / r), i.e. N**(1/r)                    -- the fixed-order variant.

Verdicts are honest about resolution: measured profiles can only ever be
"finite-at-resolution", while a model profile is classified exactly: near
zero radius the integrand's log-slope in log eps is -(dim/alpha) * g, with g
the integrand's rate d(log integrand)/dH, and it is integrable iff slope > -1.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .covering import FiniteMetricSpace, covering_numbers_greedy, diameter, entropy
from .psi import PsiFunction, psi_lower_star, rosenthal_transform

#: Default quadrature: trapezoid on this many log-spaced radii in
#: [eps_lo_frac * D, D].
DEFAULT_QUAD_NODES = 400
DEFAULT_EPS_LO_FRAC = 1e-4

VERDICT_FINITE = "finite"
VERDICT_DIVERGENT = "divergent"
VERDICT_AT_RESOLUTION = "finite-at-resolution"

CONCLUSION_SATISFIED = "hypotheses-satisfied-at-resolution"


@dataclass(frozen=True)
class HolderEntropyModel:
    """Closed-form entropy (dim/alpha) * log(scale/eps), clipped at zero; dim is
    a whole number >= 1, 0 < alpha <= 1 and scale is finite and positive."""

    dim: int
    alpha: float
    scale: float

    def __post_init__(self):
        if not (self.dim >= 1 and float(self.dim).is_integer()):
            raise ValueError(f"dim must be a whole number >= 1, got {self.dim!r}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha!r}")
        if not 0.0 < self.scale < math.inf:
            raise ValueError(f"scale must be finite and positive, got {self.scale!r}")

    def entropy_at(self, eps: float) -> float:
        if eps <= 0:
            raise ValueError("eps must be positive")
        return (self.dim / self.alpha) * max(math.log(self.scale / eps), 0.0)


@dataclass(frozen=True)
class EntropyProfile:
    """Entropy against radius, with a mode tag and the space diameter.

    `eps_grid` is descending; H is nonincreasing in eps and zero at or above
    the diameter.  Model profiles carry the closed form used to extrapolate
    below the smallest tabulated radius.
    """

    eps_grid: tuple[float, ...]
    h_values: tuple[float, ...]
    diameter: float
    mode: str  # greedy | exact | model
    model: HolderEntropyModel | None = None

    def __post_init__(self):
        eps = np.asarray(self.eps_grid, dtype=float)
        hs = np.asarray(self.h_values, dtype=float)
        if eps.ndim != 1 or eps.size == 0 or eps.shape != hs.shape:
            raise ValueError("eps_grid and h_values must match and be nonempty")
        if np.any(eps <= 0) or np.any(np.diff(eps) >= 0):
            raise ValueError("eps_grid must be positive and strictly descending")
        if np.any(hs < 0):
            raise ValueError("entropies must be nonnegative")
        if np.any(np.diff(hs) < -1e-12):
            raise ValueError("entropy must be nonincreasing in eps")
        if self.mode not in ("greedy", "exact", "model"):
            raise ValueError("mode must be greedy, exact or model")
        if self.mode == "model" and self.model is None:
            raise ValueError("model profiles must carry their closed form")
        if self.diameter <= 0:
            raise ValueError("diameter must be positive")

    def entropy_at(self, eps: float) -> float:
        """H at an arbitrary radius: closed form for models, log-radius
        interpolation for measured profiles (held constant below the grid)."""
        return float(self.entropies([eps])[0])

    def entropies(self, eps) -> np.ndarray:
        """`entropy_at` at each radius, with one interpolation on the cached log grid."""
        hs = (np.array([self.model.entropy_at(float(e)) for e in eps]) if self.model is not None
              else np.interp([math.log(e) for e in eps], *self._log_grid))
        return np.where(np.asarray(eps) >= self.diameter, 0.0, hs)

    @cached_property
    def _log_grid(self) -> tuple[np.ndarray, np.ndarray]:
        return np.log(np.asarray(self.eps_grid)[::-1]), np.asarray(self.h_values)[::-1]


def measure_profile(space: FiniteMetricSpace, eps_grid=None, mode: str = "greedy",
                    num: int = 32, eps_min_frac: float = 1e-3) -> EntropyProfile:
    """Measure an entropy profile of a finite space on a log-spaced radius grid.

    Both covering counts are nonincreasing in the radius, so the profile is
    monotone as measured; greedy counts for the whole grid come from one sweep.
    """
    d = diameter(space)
    if d <= 0:
        raise ValueError("space has zero diameter; profile undefined")
    if eps_grid is None:
        eps_grid = np.geomspace(d, eps_min_frac * d, num)
    eps_grid = tuple(sorted((float(e) for e in eps_grid), reverse=True))
    if mode == "greedy":
        hs = [math.log(c) for c in covering_numbers_greedy(space, eps_grid)]
    else:
        hs = [entropy(space, e, mode=mode) for e in eps_grid]
    return EntropyProfile(eps_grid, tuple(hs), d, mode)


def holder_profile(dim: int, alpha: float, scale: float, diam: float) -> EntropyProfile:
    """Model profile for the power-law covering bound scale-over-eps**(dim/alpha),
    tabulated on 32 log-spaced radii from diam down to 1e-3 * diam."""
    model = HolderEntropyModel(dim, alpha, scale)
    eps_grid = tuple(np.geomspace(diam, 1e-3 * diam, 32))
    hs = tuple(model.entropy_at(e) for e in eps_grid)
    return EntropyProfile(eps_grid, hs, diam, "model", model=model)


# ---------------------------------------------------------------------------
# quadrature and tail classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntegralResult:
    """Truncated integral value plus a finiteness verdict and its resolution.

    `eps`, `entropy` and `log_integrand` hold the quadrature radii, the
    entropy there and the log of the integrand there.
    """

    value: float
    verdict: str
    eps_lo: float
    nodes: int
    notes: str
    eps: np.ndarray = field(compare=False, repr=False)
    entropy: np.ndarray = field(compare=False, repr=False)
    log_integrand: np.ndarray = field(compare=False, repr=False)

    def to_dict(self) -> dict:
        return {"value": self.value, "verdict": self.verdict,
                "resolution": {"eps_lo": self.eps_lo, "nodes": self.nodes},
                "notes": self.notes}

    def trace(self) -> list[tuple[float, float, float]]:
        """(eps, H, integrand) rows at the quadrature radii: the integrand is
        exp of the log-integrand, capped at exp(700)."""
        vals = (math.exp(min(float(v), 700.0)) for v in self.log_integrand)
        return list(zip((float(e) for e in self.eps), (float(h) for h in self.entropy), vals))


def _log_integrand(profile: EntropyProfile, eps: np.ndarray, *, psi: PsiFunction | None = None,
                   power: float | None = None,
                   r: float | None = None) -> tuple[np.ndarray, np.ndarray, float]:
    """(H, log integrand, rate) at the radii `eps` for exactly one of the three
    integrals, the rate being lim d(log integrand)/dH: 1/p_max for the chaining
    integrand (the lower transform of a large x is x/p_max + log psi(p_max) at
    psi's largest finite order p_max), 0 for H**power and 1/r for exp(H/r)."""
    hs = profile.entropies(eps)
    if psi is not None:
        return hs, psi_lower_star(psi, math.log(2.0) + hs), 1.0 / float(psi.pieces().p[-1])
    if power is not None:
        return hs, np.array([power * math.log(h) if h > 0 else -math.inf for h in hs]), 0.0
    return hs, hs / r, 1.0 / r


def _integral(profile: EntropyProfile, nodes: int, eps_lo_frac: float,
              **integrand) -> IntegralResult:
    grid = np.geomspace(eps_lo_frac * profile.diameter, profile.diameter, nodes)
    hs, logs, rate = _log_integrand(profile, grid, **integrand)
    vals = np.where(np.isfinite(logs) | (logs == -math.inf), np.exp(logs), math.inf)
    value = float(np.trapezoid(vals, grid))
    if profile.mode == "model":
        slope = -profile.model.dim / profile.model.alpha * rate
        verdict = VERDICT_FINITE if slope > -1.0 else VERDICT_DIVERGENT
        notes = f"model tail log-slope {slope:.6g} vs -1; value is the truncated quadrature"
    else:
        verdict = VERDICT_AT_RESOLUTION
        notes = f"measured {profile.mode} profile truncated at eps = {grid[0]:.6g}"
    return IntegralResult(value, verdict, float(grid[0]), nodes, notes, grid, hs, logs)


def _require_finite_positive(name: str, value: float) -> None:
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def entropy_integral(profile: EntropyProfile, psi: PsiFunction, *,
                     nodes: int = DEFAULT_QUAD_NODES,
                     eps_lo_frac: float = DEFAULT_EPS_LO_FRAC) -> IntegralResult:
    """Chaining integral of exp(lower-transform of (log 2 + H)) over (0, D]."""
    return _integral(profile, nodes, eps_lo_frac, psi=psi)


def power_entropy_integral(profile: EntropyProfile, exponent: float, *,
                           nodes: int = DEFAULT_QUAD_NODES,
                           eps_lo_frac: float = DEFAULT_EPS_LO_FRAC) -> IntegralResult:
    """Integral of H**exponent over (0, D]; zero entropy contributes nothing."""
    _require_finite_positive("exponent", exponent)
    return _integral(profile, nodes, eps_lo_frac, power=exponent)


def order_r_integral(profile: EntropyProfile, r: float, *,
                     nodes: int = DEFAULT_QUAD_NODES,
                     eps_lo_frac: float = DEFAULT_EPS_LO_FRAC) -> IntegralResult:
    """Integral of N**(1/r) = exp(H / r) over (0, D]."""
    _require_finite_positive("r", r)
    return _integral(profile, nodes, eps_lo_frac, r=r)


# ---------------------------------------------------------------------------
# hypothesis classifiers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TheoremVerdict:
    """Outcome record of one sufficient-condition check."""

    condition: str
    sigma2: float
    sigma2_finite: bool
    integral: IntegralResult
    conclusion: str
    notes: str = ""

    @property
    def satisfied(self) -> bool:
        return self.conclusion == CONCLUSION_SATISFIED

    def to_dict(self) -> dict:
        return {"condition": self.condition,
                "sigma2": None if math.isinf(self.sigma2) else self.sigma2,
                "sigma2_finite": self.sigma2_finite,
                "value": self.integral.value,
                "verdict": self.integral.verdict,
                "resolution": self.integral.to_dict()["resolution"],
                "conclusion": self.conclusion,
                "notes": (self.notes + ("; " if self.notes and self.integral.notes else "")
                          + self.integral.notes)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def _conclude(sigma2_finite: bool, integral: IntegralResult) -> str:
    if not sigma2_finite:
        return "hypothesis-failed(variance)"
    if integral.verdict == VERDICT_DIVERGENT:
        return "hypothesis-failed(entropy-integral)"
    return CONCLUSION_SATISFIED


def moment_level_check(sigma2: float, profile_under_dbar: EntropyProfile,
                    psi: PsiFunction, *, nodes: int = DEFAULT_QUAD_NODES,
                    eps_lo_frac: float = DEFAULT_EPS_LO_FRAC) -> TheoremVerdict:
    """Moment-level sufficient condition for uniform tightness.

    Requires a finite running-variance functional and a finite chaining
    integral under the averaged increment distance, taken against the
    moment-inequality rescaling of psi.  The variance check takes
    precedence when both fail.
    """
    psi_r = rosenthal_transform(psi)
    integral = entropy_integral(profile_under_dbar, psi_r, nodes=nodes,
                                eps_lo_frac=eps_lo_frac)
    sigma2_finite = math.isfinite(sigma2)
    return TheoremVerdict(
        condition="chaining-integral(rescaled)+bounded-average-variance",
        sigma2=sigma2, sigma2_finite=sigma2_finite, integral=integral,
        conclusion=_conclude(sigma2_finite, integral))


def subq_level_check(profile_under_rhoq: EntropyProfile, q: float, sigma2: float, *,
                    nodes: int = DEFAULT_QUAD_NODES,
                    eps_lo_frac: float = DEFAULT_EPS_LO_FRAC) -> TheoremVerdict:
    """Stretched-exponential-level condition: entropy to the power
    (2 + q) / (2 q) must be integrable under the sub-q increment distance."""
    _require_finite_positive("q", q)
    exponent = (2.0 + q) / (2.0 * q)
    integral = power_entropy_integral(profile_under_rhoq, exponent, nodes=nodes,
                                      eps_lo_frac=eps_lo_frac)
    sigma2_finite = math.isfinite(sigma2)
    return TheoremVerdict(
        condition=f"entropy-power-integral(exponent={exponent:g})+bounded-average-variance",
        sigma2=sigma2, sigma2_finite=sigma2_finite, integral=integral,
        conclusion=_conclude(sigma2_finite, integral),
        notes=f"q={q:g}")


def pisier_condition(profile_under_dr: EntropyProfile, r: float, *,
                     nodes: int = DEFAULT_QUAD_NODES,
                     eps_lo_frac: float = DEFAULT_EPS_LO_FRAC) -> IntegralResult:
    """Classical fixed-order covering condition: N**(1/r) integrable under
    the order-r increment distance."""
    if not r >= 2:
        raise ValueError(f"r must be at least 2, got {r!r}")
    return order_r_integral(profile_under_dr, r, nodes=nodes, eps_lo_frac=eps_lo_frac)


def exponent_comparison(profile: EntropyProfile, q: float, *,
                        nodes: int = DEFAULT_QUAD_NODES,
                        eps_lo_frac: float = DEFAULT_EPS_LO_FRAC) -> dict:
    """Side-by-side report of the two candidate entropy powers on one profile.

    The dependent-increment theory currently yields the power (2+q)/(2q),
    while fully independent summands only need 1/q; which power is sharp in
    general is open, so both integrals are reported without adjudication.
    """
    _require_finite_positive("q", q)
    dependent = power_entropy_integral(profile, (2.0 + q) / (2.0 * q),
                                       nodes=nodes, eps_lo_frac=eps_lo_frac)
    independent = power_entropy_integral(profile, 1.0 / q,
                                         nodes=nodes, eps_lo_frac=eps_lo_frac)
    return {"q": q,
            "dependent_exponent": (2.0 + q) / (2.0 * q),
            "dependent": dependent.to_dict(),
            "independent_exponent": 1.0 / q,
            "independent": independent.to_dict()}


# ---------------------------------------------------------------------------
# traces for external plotting
# ---------------------------------------------------------------------------

def integrand_trace(profile: EntropyProfile, *, psi: PsiFunction | None = None,
                    power: float | None = None, r: float | None = None,
                    nodes: int = DEFAULT_QUAD_NODES,
                    eps_lo_frac: float = DEFAULT_EPS_LO_FRAC) -> list[tuple[float, float, float]]:
    """(eps, H, integrand) rows for exactly one of the three integrals: the
    :meth:`IntegralResult.trace` of that integral."""
    chosen = [x is not None for x in (psi, power, r)]
    if sum(chosen) != 1:
        raise ValueError("specify exactly one of psi, power, r")
    return _integral(profile, nodes, eps_lo_frac, psi=psi, power=power, r=r).trace()
