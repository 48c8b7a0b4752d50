"""Semi-distances on the index set built from per-pair moment data.

A `PairwiseMomentField` stores, for each difference index i and each point or
unordered point pair, the L_p moment curve of the field value or increment,
plus per-point variances.  From it the module derives:

* the natural generating function (pointwise max of all point curves),
* per-index increment norms d_i against a generating function,
* the averaged distance sup_n sqrt(mean of d_i**2 over i <= n),
* the fixed-order increment distance sup_i |increment|_r,
* the stretched-exponential increment distance sup_i of the sub-q norm,
* the variance functional inf over points of sup_n of running variance means.

Every sup over the unbounded index n is truncated to a caller-supplied grid;
a growth heuristic between the last two grid points flags likely divergence.
"""
from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .covering import FiniteMetricSpace
from .errors import MissingData
from .psi import MomentCurve, PsiFunction, gaussian_lp_norm, gls_norm, subq_norm

#: Dyadic default for index-grid truncation of sup over n.
DEFAULT_N_GRID = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)

#: Growth ratio between the last two truncation points above which the
#: running sup is reported as unbounded-at-resolution (+inf).
DEFAULT_GROWTH_FACTOR = 1.5


def _pair_key(x1: str, x2: str) -> tuple[str, str]:
    return (x1, x2) if x1 <= x2 else (x2, x1)


@dataclass(frozen=True)
class PairwiseMomentField:
    """Moment curves per index and per point / unordered pair, plus variances.

    Keys: `point_curves[(i, x)]`, `pair_curves[(i, (xa, xb)))]` with the pair
    sorted, `variances[(i, x)]`; indices run 1..m.  Mappings are treated as
    immutable after construction.
    """

    x_labels: tuple[str, ...]
    m: int
    point_curves: dict
    pair_curves: dict
    variances: dict
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("need at least one difference index")
        for (i, pair) in self.pair_curves:
            if pair != _pair_key(*pair):
                raise ValueError(f"pair key {pair} is not sorted")
            if not (1 <= i <= self.m):
                raise ValueError(f"pair index {i} outside 1..{self.m}")

    def point_curve(self, i: int, x: str) -> MomentCurve:
        try:
            return self.point_curves[(i, x)]
        except KeyError:
            raise MissingData(f"no point curve for index {i} at {x!r}") from None

    def pair_curve(self, i: int, x1: str, x2: str) -> MomentCurve:
        if x1 == x2:
            grid = next(iter(self.point_curves.values())).p_grid if self.point_curves \
                else next(iter(self.pair_curves.values())).p_grid
            return MomentCurve.zero(grid)
        try:
            return self.pair_curves[(i, _pair_key(x1, x2))]
        except KeyError:
            raise MissingData(f"no pair curve for index {i} at ({x1!r}, {x2!r})") from None

    def variance(self, i: int, x: str) -> float:
        try:
            return self.variances[(i, x)]
        except KeyError:
            raise MissingData(f"no variance for index {i} at {x!r}") from None

    def variance_consistency(self, n_se: float = 3.0) -> list[dict]:
        """Violations of variance == (p=2 norm)**2 beyond the Monte Carlo slack.

        Returns one row per offending (index, point); empty means consistent.
        Analytic fields must match exactly (their stderr is zero).
        """
        rows = []
        for (i, x), var in self.variances.items():
            curve = self.point_curves.get((i, x))
            if curve is None or 2.0 not in curve.p_grid:
                continue
            l2 = curve.value_at(2.0)
            se = curve.stderr_at(2.0)
            slack = n_se * se * max(2.0 * l2, 1.0) + 1e-9
            if abs(var - l2 * l2) > slack:
                rows.append({"index": i, "point": x, "variance": var,
                             "l2_squared": l2 * l2, "slack": slack})
        return rows

    def scale(self, c: float) -> "PairwiseMomentField":
        """Field of c * xi: norms scale by |c|, variances by c**2."""
        c = float(c)
        return PairwiseMomentField(
            self.x_labels, self.m,
            {k: v.with_scale(c) for k, v in self.point_curves.items()},
            {k: v.with_scale(c) for k, v in self.pair_curves.items()},
            {k: c * c * v for k, v in self.variances.items()},
            meta=dict(self.meta))

    @classmethod
    def from_gaussian_kernel(cls, coords, kernel, p_grid, m: int,
                             labels=None) -> "PairwiseMomentField":
        """Analytic field for i.i.d. Gaussian draws with covariance `kernel`.

        kernel(xa, xb) takes coordinate vectors; point norms are
        sqrt(k(x,x)) * |Z|_p and increment norms use the increment variance
        k(x1,x1) + k(x2,x2) - 2 k(x1,x2).
        """
        coords = np.asarray(coords, dtype=float)
        if coords.ndim == 1:
            coords = coords.reshape(-1, 1)
        if labels is None:
            labels = tuple(f"x{i}" for i in range(coords.shape[0]))
        p_grid = tuple(float(p) for p in p_grid)
        base = np.array([gaussian_lp_norm(p) for p in p_grid])
        point_curves, pair_curves, variances = {}, {}, {}
        for a, la in enumerate(labels):
            sd = math.sqrt(max(kernel(coords[a], coords[a]), 0.0))
            curve = MomentCurve.analytic(p_grid, sd * base)
            for i in range(1, m + 1):
                point_curves[(i, la)] = curve
                variances[(i, la)] = sd * sd
        for a, la in enumerate(labels):
            for b in range(a + 1, len(labels)):
                lb = labels[b]
                var = (kernel(coords[a], coords[a]) + kernel(coords[b], coords[b])
                       - 2.0 * kernel(coords[a], coords[b]))
                sd = math.sqrt(max(var, 0.0))
                curve = MomentCurve.analytic(p_grid, sd * base)
                for i in range(1, m + 1):
                    pair_curves[(i, _pair_key(la, lb))] = curve
        return cls(tuple(labels), m, point_curves, pair_curves, variances,
                   meta={"provenance": "analytic-gaussian"})

    # -- CSV directory serialization ----------------------------------------

    def to_csv_dir(self, path: str) -> None:
        """One CSV per index plus a manifest; consumed by the command line."""
        os.makedirs(path, exist_ok=True)
        p_grid = list(next(iter(self.point_curves.values())).p_grid) if self.point_curves \
            else list(next(iter(self.pair_curves.values())).p_grid)

        def cells(c: MomentCurve) -> list[str]:
            # repr of a Python float: numpy scalars would print as np.float64(...)
            se = c.stderr if c.stderr is not None else [0.0] * len(p_grid)
            return [repr(float(v)) for v in (*c.norms, *se)]

        pairs_by_index = {}
        for j, pair in sorted(self.pair_curves):
            pairs_by_index.setdefault(j, []).append((pair, self.pair_curves[(j, pair)]))
        files = {}
        for i in range(1, self.m + 1):
            fname = f"index_{i:04d}.csv"
            files[str(i)] = fname
            with open(os.path.join(path, fname), "w", newline="") as fh:
                w = csv.writer(fh, lineterminator="\n")
                header = (["kind", "x1", "x2", "variance"]
                          + [f"norm[{p:g}]" for p in p_grid]
                          + [f"se[{p:g}]" for p in p_grid])
                w.writerow(header)
                for x in self.x_labels:
                    key = (i, x)
                    if key not in self.point_curves:
                        continue
                    c = self.point_curves[key]
                    var = self.variances.get(key, float(c.norms[0]) ** 2)
                    w.writerow(["point", x, "", repr(float(var))] + cells(c))
                for pair, c in pairs_by_index.get(i, ()):
                    w.writerow(["pair", pair[0], pair[1], ""] + cells(c))
        manifest = {"x_points": list(self.x_labels), "m": self.m,
                    "p_grid": p_grid, "index_files": files, "meta": self.meta}
        with open(os.path.join(path, "manifest.json"), "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def from_csv_dir(cls, path: str) -> "PairwiseMomentField":
        with open(os.path.join(path, "manifest.json")) as fh:
            manifest = json.load(fh)
        p_grid = tuple(float(p) for p in manifest["p_grid"])
        npg = len(p_grid)
        point_curves, pair_curves, variances = {}, {}, {}
        prov = {"kind": "monte_carlo", "seed": None, "replications": None}
        for i_str, fname in manifest["index_files"].items():
            i = int(i_str)
            with open(os.path.join(path, fname), newline="") as fh:
                rows = list(csv.reader(fh))
            for row in rows[1:]:
                kind, x1, x2, var = row[0], row[1], row[2], row[3]
                norms = tuple(float(v) for v in row[4:4 + npg])
                se = tuple(float(v) for v in row[4 + npg:4 + 2 * npg])
                curve = MomentCurve(p_grid, norms, provenance=dict(prov), stderr=se)
                if kind == "point":
                    point_curves[(i, x1)] = curve
                    variances[(i, x1)] = float(var)
                else:
                    pair_curves[(i, _pair_key(x1, x2))] = curve
        return cls(tuple(manifest["x_points"]), int(manifest["m"]),
                   point_curves, pair_curves, variances, meta=manifest.get("meta", {}))


# ---------------------------------------------------------------------------
# distances and functionals
# ---------------------------------------------------------------------------

def natural_function(field: PairwiseMomentField, p_grid=None) -> PsiFunction:
    """Tabulated generating function: max over indices and points of the
    point curves, evaluated on `p_grid` (default: the curves' own grid)."""
    if not field.point_curves:
        raise MissingData("field carries no point curves")
    if p_grid is None:
        p_grid = next(iter(field.point_curves.values())).p_grid
    p_grid = tuple(float(p) for p in p_grid)
    values = np.zeros(len(p_grid))
    for x in field.x_labels:
        for i in range(1, field.m + 1):
            c = field.point_curve(i, x)
            values = np.maximum(values, [c.value_at(p) for p in p_grid])
    if np.any(values <= 0):
        raise MissingData("natural function would vanish somewhere on the grid; "
                          "the field is degenerate at that order")
    return PsiFunction.tabulated(p_grid, values)


def distance_di(field: PairwiseMomentField, i: int, x1: str, x2: str,
                psi: PsiFunction) -> float:
    """Increment norm of index i between x1 and x2 against psi."""
    if x1 == x2:
        return 0.0
    return gls_norm(field.pair_curve(i, x1, x2), psi)


def distance_bar(field: PairwiseMomentField, x1: str, x2: str, psi: PsiFunction,
                 n_grid=None) -> float:
    """sup over n in the grid of sqrt(mean over i <= n of d_i**2)."""
    if x1 == x2:
        return 0.0
    n_grid = _resolve_n_grid(field, n_grid)
    d2 = np.array([distance_di(field, i, x1, x2, psi) ** 2
                   for i in range(1, max(n_grid) + 1)])
    csum = np.cumsum(d2)
    return float(max(math.sqrt(csum[n - 1] / n) for n in n_grid))


def pisier_distance(field: PairwiseMomentField, x1: str, x2: str, r: float) -> float:
    """sup over indices of the order-r increment norm."""
    if x1 == x2:
        return 0.0
    return max(field.pair_curve(i, x1, x2).value_at(r) for i in range(1, field.m + 1))


def rho_q_distance(field: PairwiseMomentField, x1: str, x2: str, q: float) -> float:
    """sup over indices of the sub-q norm of the increment curve."""
    if x1 == x2:
        return 0.0
    return max(subq_norm(field.pair_curve(i, x1, x2), q) for i in range(1, field.m + 1))


def _resolve_n_grid(field: PairwiseMomentField, n_grid):
    if n_grid is None:
        n_grid = [n for n in DEFAULT_N_GRID if n <= field.m]
    n_grid = sorted(int(n) for n in n_grid)
    if not n_grid or n_grid[0] < 1:
        raise ValueError("n_grid must contain positive integers")
    if n_grid[-1] > field.m:
        raise MissingData(f"n_grid reaches {n_grid[-1]} but the field stops at {field.m}")
    return n_grid


def sigma_squared(field: PairwiseMomentField, n_grid=None,
                  growth_factor: float = DEFAULT_GROWTH_FACTOR) -> float:
    """inf over points of sup over the n grid of running variance averages.

    If the running average at some point still grows by more than
    `growth_factor` between the last two grid points, that point's sup is
    treated as unbounded at this resolution; the result is +inf only when
    that happens at every point.
    """
    n_grid = _resolve_n_grid(field, n_grid)
    best = math.inf
    for x in field.x_labels:
        vs = np.array([field.variance(i, x) for i in range(1, max(n_grid) + 1)])
        csum = np.cumsum(vs)
        avgs = [csum[n - 1] / n for n in n_grid]
        value = max(avgs)
        if len(avgs) >= 2 and avgs[-2] > 0 and avgs[-1] > growth_factor * avgs[-2]:
            value = math.inf
        best = min(best, value)
    return best


_DISTANCE_KINDS = ("dbar", "pisier", "rho_q", "di")


def distance_matrix(field: PairwiseMomentField, kind: str = "dbar", *,
                    psi: PsiFunction | None = None, n_grid=None, r: float | None = None,
                    q: float | None = None, i: int | None = None,
                    threads: int | None = None) -> FiniteMetricSpace:
    """Assemble a finite metric space from one of the named semi-distances.

    Pure and deterministic; pairs may be evaluated concurrently without
    affecting the result.
    """
    if kind not in _DISTANCE_KINDS:
        raise ValueError(f"kind must be one of {_DISTANCE_KINDS}")
    labels = field.x_labels
    n = len(labels)

    def one(a, b):
        if kind == "dbar":
            return distance_bar(field, labels[a], labels[b], psi, n_grid)
        if kind == "pisier":
            return pisier_distance(field, labels[a], labels[b], r)
        if kind == "rho_q":
            return rho_q_distance(field, labels[a], labels[b], q)
        return distance_di(field, i, labels[a], labels[b], psi)

    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    mat = np.zeros((n, n))
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            vals = list(pool.map(lambda ab: one(*ab), pairs))
    else:
        vals = [one(*ab) for ab in pairs]
    for (a, b), v in zip(pairs, vals):
        mat[a, b] = mat[b, a] = v
    return FiniteMetricSpace(labels, mat)
