"""The benchmark's workloads: inputs made from the seed, and output checks.

Each workload writes its inputs into a scratch directory, names the `uclt`
command that runs on them and checks that command's output directory.  The
checks compare against quantities computed here, apart from the program
(closed forms, the benchmark's own distances and packings), or against
properties the method must have.  They never compare against a stored copy.

Statistical tolerances come from the sampling law where it is known
(binomial, Kolmogorov, Student t) at a false-alarm level of about 1e-7 per
statistic, and from 500 seeds where the tail is heavy: a benchmark that
flags correct code on some seeds cannot tell a regression from bad luck.
"""
from __future__ import annotations

import csv
import json
import math
import os

import numpy as np
from scipy import optimize, special, stats

# per-statistic false-alarm level of the Monte Carlo checks
ALPHA = 1e-7


def _read_json(out: str, name: str) -> dict:
    with open(os.path.join(out, name)) as fh:
        return json.load(fh)


def _read_csv(out: str, name: str) -> tuple[list[str], list[list[str]]]:
    with open(os.path.join(out, name), newline="") as fh:
        rows = list(csv.reader(ln for ln in fh if not ln.startswith("#")))
    return rows[0], rows[1:]


def _write_json(path: str, doc: dict) -> str:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
    return path


def _expect(problems: list[str], ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def _conclusion(problems: list[str], out: str, want: str) -> None:
    got = _read_json(out, "run.json").get("conclusion")
    _expect(problems, got == want, f"run.json conclusion {got!r}, expected {want!r}")


# ---------------------------------------------------------------------------
# theorem: `uclt check-theorem` on the README configuration
# ---------------------------------------------------------------------------

THEOREM_X = np.linspace(0.1, 1.0, 9)
THEOREM_R = 4000
THEOREM_CLT_R = 2000
THEOREM_P = [2, 2.5, 3, 4, 6, 8]
# d-bar of the Brownian field against sqrt|x_a - x_b|.  The median over the
# 36 pairs sits 0-4% low, because the natural psi sits a few percent above
# the Gaussian norms.  Single pairs have a heavy upper tail: d-bar is a sup
# over n that includes one-index estimates of the p = 8 norm, whose
# jackknife doubles the pull of one extreme draw (largest deviation in 500
# seeds: 19%).
DBAR_MEDIAN_RTOL = 0.06
DBAR_RTOL = 0.5


def theorem_inputs(seed: int, where: str) -> list[str]:
    cfg = {
        "seed": seed,
        "replications": THEOREM_R,
        "model": {
            "kind": "iid_gaussian_field",
            "name": "holder-gaussian",
            "x_points": {"grid_1d": {"n": len(THEOREM_X), "low": 0.1, "high": 1.0}},
            "kernel": {"name": "fractional_brownian", "hurst": 0.5},
            "horizon": 64,
        },
        "psi": {"form": "natural"},
        "p_grid": THEOREM_P,
        "n_grid": [1, 2, 4, 8, 16, 32, 64],
        "entropy": {"nodes": 24, "mode": "greedy"},
        "integral": {"nodes": 400, "eps_lo_frac": 1e-4},
        "subq_level": {"q": 1.0},
        "clt": {"n_pair": [16, 64], "replications": THEOREM_CLT_R},
    }
    return ["check-theorem", "--config", _write_json(os.path.join(where, "theorem.json"), cfg)]


def gaussian_abs_moment(p: float) -> float:
    """E|Z|**p for a standard normal Z."""
    return 2.0 ** (p / 2.0) * math.gamma((p + 1.0) / 2.0) / math.sqrt(math.pi)


def check_theorem(out: str, seed: int) -> list[str]:
    problems: list[str] = []
    _conclusion(problems, out, "hypotheses-satisfied-at-resolution")
    npts = len(THEOREM_X)

    header, rows = _read_csv(out, "dbar_matrix.csv")
    dbar = np.array([[float(v) for v in row[1:]] for row in rows])
    _expect(problems, header[1:] == [f"x{i}" for i in range(npts)] and dbar.shape == (npts, npts),
            f"dbar_matrix.csv has labels {header[1:]} and shape {dbar.shape}")
    if dbar.shape == (npts, npts):
        _expect(problems, np.array_equal(dbar, dbar.T), "dbar_matrix.csv is not symmetric")
        _expect(problems, not np.any(np.diag(dbar)), "dbar_matrix.csv has a nonzero diagonal")
        off = ~np.eye(npts, dtype=bool)
        brownian = np.sqrt(np.abs(THEOREM_X[:, None] - THEOREM_X[None, :]))
        dev = dbar[off] / brownian[off] - 1.0
        _expect(problems, float(np.max(np.abs(dev))) <= DBAR_RTOL,
                f"d-bar deviates from sqrt|x_a - x_b| by up to {np.max(np.abs(dev)):.3f}")
        _expect(problems, abs(float(np.median(dev))) <= DBAR_MEDIAN_RTOL,
                f"d-bar deviates from sqrt|x_a - x_b| by {np.median(dev):.3f} in the median")

    verdict = _read_json(out, "verdict.json")
    # sigma2 is the smallest point variance, 0.1 at x = 0.1; the relative
    # sd of one variance estimate is sqrt(2 / R)
    sigma2 = verdict.get("sigma2")
    tol = 6.0 * math.sqrt(2.0 / THEOREM_R)
    _expect(problems, sigma2 is not None and abs(sigma2 / 0.1 - 1.0) <= tol,
            f"sigma2 {sigma2} not within {tol:.3f} (relative) of 0.1")

    # The natural psi is the largest point norm over 64 indices and 9 points,
    # so at the unit-variance point it sits at or just above the Gaussian
    # L_p norm.  s is the relative sd of one norm estimate (delta method).
    # The excess has the same heavy upper tail as d-bar (largest in 500
    # seeds: 10.1 s), so the upper limit is 25 s.
    psi = verdict.get("psi", {})
    _expect(problems, psi.get("grid") == [float(p) for p in THEOREM_P],
            f"natural psi grid {psi.get('grid')}")
    for p, value in zip(psi.get("grid", []), psi.get("values", [])):
        norm = gaussian_abs_moment(p) ** (1.0 / p)
        s = math.sqrt((gaussian_abs_moment(2 * p) / gaussian_abs_moment(p) ** 2 - 1.0)
                      / THEOREM_R) / p
        _expect(problems, norm * (1.0 - 3.0 * s) <= value <= norm * (1.0 + 25.0 * s),
                f"natural psi({p}) = {value} outside [{norm * (1 - 3 * s):.4f}, "
                f"{norm * (1 + 25 * s):.4f}] around the Gaussian norm {norm:.4f}")

    header, rows = _read_csv(out, "entropy_trace.csv")
    _expect(problems, header == ["epsilon", "entropy", "integrand"], f"entropy_trace header {header}")
    eps = [float(r[0]) for r in rows]
    ent = [float(r[1]) for r in rows]
    _expect(problems, all(a < b for a, b in zip(eps, eps[1:])), "entropy_trace radii not ascending")
    _expect(problems, all(b <= a for a, b in zip(ent, ent[1:])),
            "entropy_trace entropy increases with the radius")
    diam = float(dbar.max()) if dbar.size else math.nan
    _expect(problems, bool(ent) and ent[-1] == 0.0 and math.isclose(eps[-1], diam, rel_tol=1e-12),
            f"entropy_trace does not end at entropy 0 on the diameter {diam}")

    # per-point one-sample KS against the exact N(0, K(x, x)) law of eta
    clt = verdict.get("verdicts", {}).get("clt_diagnostic", {})
    per_point = clt.get("per_point_ks") or {}
    crit = float(stats.kstwo.isf(ALPHA, THEOREM_CLT_R))
    _expect(problems, sorted(per_point) == [f"x{i}" for i in range(npts)],
            f"per-point KS labels {sorted(per_point)}")
    for label, two in per_point.items():
        for size, ks in two.items():
            _expect(problems, ks <= crit, f"KS at {label} ({size}) {ks:.4f} > {crit:.4f}")
    _, rows = _read_csv(out, "ks.csv")
    listed = {r[2]: float(r[1]) for r in rows if r[2] != "supnorm"}
    _expect(problems, listed == {lb: two["n_large"] for lb, two in per_point.items()},
            "ks.csv per-point rows differ from verdict.json")
    return problems


# ---------------------------------------------------------------------------
# inequalities: `uclt inequalities` over the shipped suite plus capped Weibull
# ---------------------------------------------------------------------------

INEQ_R = 20000
_GRID5 = {"grid_1d": {"n": 5, "low": 0.0, "high": 1.0}}
_RBF = {"name": "rbf", "length_scale": 0.5}
INEQ_MODELS = [
    {"kind": "iid_gaussian_field", "name": "iid-gaussian-rbf", "x_points": _GRID5,
     "kernel": _RBF, "horizon": 1024},
    {"kind": "bounded_sign", "name": "bounded-sign", "x_points": _GRID5,
     "modulation": 0.25, "amplitude_slope": 0.5, "horizon": 1024},
    {"kind": "garch_like", "name": "garch-like", "x_points": _GRID5,
     "kernel": _RBF, "horizon": 1024},
    {"kind": "weibull_field", "name": "capped-weibull", "x_points": _GRID5,
     "K": 1.0, "q": 2.0, "cap": 10.0, "horizon": 1024},
]
# Dominating tail of each model, from its definition: a centred Gaussian
# with sd s has tails below exp(-(x / (s sqrt 2))**2), with s = 1 for the
# RBF kernel and s = vol_hi * 1 = 2 for garch-like; the capped Weibull
# variable is below its uncapped law; bounded-sign increments never exceed
# base * (1 + slope) * (1 + modulation).
INEQ_TAILS = {
    "iid-gaussian-rbf": ("weibull", math.sqrt(2.0), 2.0),
    "bounded-sign": ("step", 1.0 * 1.5 * 1.25, None),
    "garch-like": ("weibull", 2.0 * math.sqrt(2.0), 2.0),
    "capped-weibull": ("weibull", 1.0, 2.0),
}
INEQ_P, INEQ_OSE_N = [2.0, 3.0, 4.0], [8, 64]
INEQ_X, INEQ_TAIL_N = [1.5, 2.0, 3.0], [16, 256]
SLOPE_Q, SLOPE_X = [1.0, 2.0], np.geomspace(10.0, 100.0, 10)
W_TOL = 1e-8


def inequalities_inputs(seed: int, where: str) -> list[str]:
    # md_check is left out: its 3-se rows fail on a few percent of seeds
    cfg = {"seed": seed, "replications": INEQ_R, "models": INEQ_MODELS,
           "osekowski": {}, "tail_domination": {}, "weibull_slope": {}}
    return ["inequalities", "--config", _write_json(os.path.join(where, "inequalities.json"), cfg)]


def w_weibull(K: float, q: float, x: float) -> float:
    """min(1, inf_v exp(-x^2 / 8v^2) + E[Y^2; Y > v]) for T(y) = exp(-(y/K)^q).

    The truncated second moment is K^2 Gamma(1 + 2/q) Q(1 + 2/q, (v/K)^q);
    the infimum is a dense log grid scan refined by bounded Brent.
    """
    a = 1.0 + 2.0 / q
    m2 = K * K * special.gamma(a)

    def f(v):
        return np.exp(-x * x / (8.0 * v * v)) + m2 * special.gammaincc(a, (v / K) ** q)

    v = np.geomspace(1e-6 * x, 1e6 * x, 200001)
    i = int(np.argmin(f(v)))
    lo, hi = v[max(i - 1, 0)], v[min(i + 1, v.size - 1)]
    res = optimize.minimize_scalar(f, bounds=(lo, hi), method="bounded",
                                   options={"xatol": 1e-13 * v[i]})
    return min(1.0, float(f(v[i])), float(res.fun))


def w_step(c: float, x: float) -> float:
    """The same transform for a variable bounded by c: the second-moment term
    vanishes from v = c on and equals c^2 below it."""
    return min(1.0, math.exp(-x * x / (8.0 * c * c)), c * c)


def check_inequalities(out: str, seed: int) -> list[str]:
    problems: list[str] = []
    _conclusion(problems, out, "all-checks-passed")
    names = [m["name"] for m in INEQ_MODELS]

    header, rows = _read_csv(out, "osekowski.csv")
    _expect(problems, header == ["model", "p", "n", "ratio", "se", "bound"], f"osekowski header {header}")
    _expect(problems, [(r[0], float(r[1]), int(r[2])) for r in rows]
            == [(m, p, n) for m in names for p in INEQ_P for n in INEQ_OSE_N],
            "osekowski.csv rows are not models x p x n")
    # at p = 2 orthogonal increments give |S_n|_2 = sqrt(sum |xi_k|_2^2), so
    # the ratio is ln 2 / 2 exactly.  se is batch means over 16 chunks, so a
    # 3-se band would flag correct code on several percent of seeds (8 rows
    # at a Student-t, 15 df, tail of 0.9% each); 7 se is a tail of 4e-6.
    for model, p, n, ratio, se, _ in rows:
        if float(p) == 2.0:
            ratio, se = float(ratio), float(se)
            _expect(problems, 0 < se and abs(ratio - math.log(2.0) / 2.0) <= 7.0 * se,
                    f"{model} n={n}: p=2 ratio {ratio:.5f} more than 7 se ({se:.5f}) from ln2/2")

    header, rows = _read_csv(out, "tail_bounds.csv")
    _expect(problems, header == ["model", "n", "x", "empirical_tail", "bound", "stderr"],
            f"tail_bounds header {header}")
    _expect(problems, [(r[0], int(r[1]), float(r[2])) for r in rows]
            == [(m, n, x) for m in names for n in INEQ_TAIL_N for x in INEQ_X],
            "tail_bounds.csv rows are not models x n x x")
    for model, n, x, emp, bound, _ in rows:
        x, emp, bound = float(x), float(emp), float(bound)
        kind, scale, shape = INEQ_TAILS[model]
        want = w_weibull(scale, shape, x) if kind == "weibull" else w_step(scale, x)
        _expect(problems, abs(bound - want) <= W_TOL,
                f"{model} n={n} x={x}: bound {bound!r} but W[T](x) = {want!r}")
        if model == "iid-gaussian-rbf":
            # eta is exactly N(0, 1); the reported tail is the larger of the
            # two one-sided exceedance counts, each Binomial(R, erfc/2)
            t = 0.5 * math.erfc(x / math.sqrt(2.0))
            k = round(emp * INEQ_R)
            lo, hi = stats.binom.ppf(ALPHA, INEQ_R, t), stats.binom.isf(ALPHA, INEQ_R, t)
            _expect(problems, lo <= k <= hi,
                    f"Gaussian tail at n={n} x={x}: {k} of {INEQ_R} outside [{lo:g}, {hi:g}]")

    header, rows = _read_csv(out, "slopes.csv")
    _expect(problems, [float(r[0]) for r in rows] == SLOPE_Q, "slopes.csv q values")
    for q, slope, _, ok in rows:
        ws = [w_weibull(1.0, float(q), float(x)) for x in SLOPE_X]
        fit = float(np.polyfit(np.log(SLOPE_X), np.log([-math.log(w) for w in ws]), 1)[0])
        _expect(problems, abs(float(slope) - fit) <= 1e-6 and ok == "True",
                f"decay slope at q={q}: {slope} (ok={ok}), recomputed {fit}")
    return problems


# ---------------------------------------------------------------------------
# covering: `uclt covering` on uniform random planar points
# ---------------------------------------------------------------------------

COVER_N = 400
COVER_RADII = 16


def covering_points(seed: int) -> np.ndarray:
    return np.random.default_rng(seed).random((COVER_N, 2))


def covering_inputs(seed: int, where: str) -> list[str]:
    csv_path = os.path.join(where, "points.csv")
    with open(csv_path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["x", "y"])
        w.writerows([repr(float(a)), repr(float(b))] for a, b in covering_points(seed))
    cfg = {"seed": seed, "space": {"coords_csv": csv_path, "metric": "euclidean"},
           "holder_fit": {"dim": 2, "alpha": 1.0}}
    return ["covering", "--config", _write_json(os.path.join(where, "covering.json"), cfg)]


def packing(dist: np.ndarray, eps: float) -> list[int]:
    """A maximal set of points pairwise more than 2 eps apart (first fit)."""
    chosen: list[int] = []
    blocked = np.zeros(dist.shape[0], dtype=bool)
    for i in range(dist.shape[0]):
        if not blocked[i]:
            chosen.append(i)
            blocked |= dist[i] <= 2.0 * eps * (1.0 + 1e-12)
    return chosen


def check_covering(out: str, seed: int) -> list[str]:
    problems: list[str] = []
    _conclusion(problems, out, "covering-computed")
    pts = covering_points(seed)
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    diam = float(dist.max())

    header, rows = _read_csv(out, "covering.csv")
    _expect(problems, header == ["epsilon", "n_greedy", "entropy"], f"covering.csv header {header}")
    eps = np.array([float(r[0]) for r in rows])
    counts = [int(r[1]) for r in rows]
    entropy = [float(r[2]) for r in rows]
    _expect(problems, eps.size == COVER_RADII
            and np.allclose(eps, np.geomspace(diam, 0.01 * diam, COVER_RADII), rtol=1e-9, atol=0),
            "covering.csv radii are not 16 log-spaced radii from the diameter to 1% of it")
    _expect(problems, bool(counts) and counts[0] == 1, f"count at the diameter is {counts[:1]}")
    _expect(problems, all(a <= b for a, b in zip(counts, counts[1:])),
            "covering count increases with the radius")
    _expect(problems, all(1 <= c <= COVER_N for c in counts), "a covering count is outside [1, n]")
    _expect(problems, all(abs(h - math.log(c)) <= 1e-12 for h, c in zip(entropy, counts)),
            "entropy differs from log(count)")
    # no closed eps-ball holds two points more than 2 eps apart, so each
    # cover needs at least as many balls as such a packing has points
    for e, c in zip(eps, counts):
        pack = packing(dist, float(e))
        sub = dist[np.ix_(pack, pack)] + np.eye(len(pack)) * 4.0 * e
        _expect(problems, sub.min() > 2.0 * e, f"the packing at eps={e:.4g} is not 2-eps separated")
        _expect(problems, c >= len(pack),
                f"count {c} at eps={e:.4g} is below a {len(pack)}-point 2-eps packing")

    doc = _read_json(out, "covering.json")
    _expect(problems, doc.get("points") == COVER_N, f"covering.json points {doc.get('points')}")
    _expect(problems, math.isclose(doc.get("diameter", math.nan), diam, rel_tol=1e-12),
            f"covering.json diameter {doc.get('diameter')} but {diam}")
    fit = doc.get("holder_fit", {})
    c2 = max(c * e ** 2.0 for c, e in zip(counts, eps)) if counts else math.nan
    _expect(problems, fit.get("dim") == 2 and fit.get("alpha") == 1.0
            and math.isclose(fit.get("c2", math.nan), c2, rel_tol=1e-12),
            f"holder_fit {fit.get('c2')} but max count * eps^2 = {c2}")
    return problems


WORKLOADS = {
    "theorem": (theorem_inputs, check_theorem),
    "inequalities": (inequalities_inputs, check_inequalities),
    "covering": (covering_inputs, check_covering),
}
