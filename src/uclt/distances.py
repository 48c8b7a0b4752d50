"""Semi-distances on the index set built from per-pair moment data.

A `PairwiseMomentField` holds, for each difference index i = 1..m, the L_p
norms of the field value at each point and of the increment over each
unordered point pair, as columns: norms and standard errors of shape
(P, m, k), with P moment orders and k points (in label order) or pairs (in
sorted-key order), plus point variances of shape (m, npoints); every
index, point and pair has an entry.  `point_curve`, `pair_curve` and
`variance` read one entry.  From the arrays the module derives, each in one
pass over all points or pairs:

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

import numpy as np

from .covering import FiniteMetricSpace
from .errors import MissingData
from .psi import (MomentCurve, PsiFunction, _check_curves, _p_index, gaussian_lp_norm,
                  gls_norms, subq_norms)

#: Dyadic default for index-grid truncation of sup over n.
DEFAULT_N_GRID = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)

#: Growth ratio between the last two truncation points above which the
#: running sup is reported as unbounded-at-resolution (+inf).
DEFAULT_GROWTH_FACTOR = 1.5

_ARRAYS = ("point_norms", "point_se", "pair_norms", "pair_se", "point_var")


def _pair_key(x1: str, x2: str) -> tuple[str, str]:
    return (x1, x2) if x1 <= x2 else (x2, x1)


class PairwiseMomentField:
    """Moment data per index and per point / unordered pair, held as arrays.

    `point_norms` and `point_se` have shape (P, m, len(x_labels)),
    `pair_norms` and `pair_se` shape (P, m, len(pairs)) with `pairs` sorted
    and each pair sorted, `point_var` shape (m, len(x_labels)).  The arrays
    are not copied.  All curves are validated in one vectorized pass by the
    rule of :class:`MomentCurve` (nondecreasing in p within `SE_MARGIN`
    standard errors); `provenance` is the provenance of every curve view,
    analytic by default.
    """

    def __init__(self, x_labels, m: int, p_grid, pairs, point_norms, point_se,
                 pair_norms, pair_se, point_var, meta: dict | None = None,
                 provenance: dict | None = None):
        self.x_labels, self.m = tuple(x_labels), int(m)
        self.p_grid, self.pairs = tuple(float(p) for p in p_grid), tuple(pairs)
        if self.m < 1:
            raise ValueError("need at least one difference index")
        if list(self.pairs) != sorted(set(self.pairs)) or \
                any(pr != _pair_key(*pr) for pr in self.pairs):
            raise ValueError("pairs must be distinct, sorted, and each sorted")
        self.point_norms, self.point_se = point_norms, point_se
        self.pair_norms, self.pair_se, self.point_var = pair_norms, pair_se, point_var
        self.meta = {} if meta is None else meta
        self.provenance = {"kind": "analytic"} if provenance is None else provenance
        self._point_col = {x: k for k, x in enumerate(self.x_labels)}
        self._pair_col = {pr: k for k, pr in enumerate(self.pairs)}
        _check_curves(self.p_grid, point_norms, point_se)
        _check_curves(self.p_grid, pair_norms, pair_se)

    def __eq__(self, other):
        if not isinstance(other, PairwiseMomentField):
            return NotImplemented
        return ((self.x_labels, self.m, self.p_grid, self.pairs, self.meta)
                == (other.x_labels, other.m, other.p_grid, other.pairs, other.meta)
                and all(np.array_equal(getattr(self, a), getattr(other, a)) for a in _ARRAYS))

    # -- one-entry accessors ----------------------------------------------------

    def _column(self, what: str, i: int, key, columns: dict) -> int:
        """The column of `key` when the field has index i, else MissingData."""
        k = columns.get(key)
        if k is None or not 1 <= i <= self.m:
            raise MissingData(f"no {what} for index {i} at {key!r}")
        return k

    def _curve(self, norms: np.ndarray, se: np.ndarray, i: int, k: int) -> MomentCurve:
        stderr = None if self.provenance.get("kind") == "analytic" \
            else tuple(se[:, i - 1, k].tolist())
        return MomentCurve(self.p_grid, tuple(norms[:, i - 1, k].tolist()),
                           provenance=dict(self.provenance), stderr=stderr)

    def point_curve(self, i: int, x: str) -> MomentCurve:
        k = self._column("point curve", i, x, self._point_col)
        return self._curve(self.point_norms, self.point_se, i, k)

    def pair_curve(self, i: int, x1: str, x2: str) -> MomentCurve:
        if x1 == x2:
            return MomentCurve.zero(self.p_grid)
        k = self._column("pair curve", i, _pair_key(x1, x2), self._pair_col)
        return self._curve(self.pair_norms, self.pair_se, i, k)

    def variance(self, i: int, x: str) -> float:
        return float(self.point_var[i - 1, self._column("variance", i, x, self._point_col)])

    # -- whole-field operations -------------------------------------------------

    def scale(self, c: float) -> "PairwiseMomentField":
        """Field of c * xi: norms scale by |c|, variances by c**2."""
        a = abs(float(c))
        return PairwiseMomentField(
            self.x_labels, self.m, self.p_grid, self.pairs, a * self.point_norms,
            a * self.point_se, a * self.pair_norms, a * self.pair_se, a * a * self.point_var,
            meta=dict(self.meta), provenance=self.provenance)

    @classmethod
    def from_gaussian_kernel(cls, kmat, p_grid, m: int, labels=None,
                             pairs=None) -> "PairwiseMomentField":
        """Analytic field for i.i.d. Gaussian draws with covariance matrix `kmat`.

        `kmat` is (k, k) over `labels` (default x0, x1, ...).  Point norms are
        sqrt(K_xx) * |Z|_p and increment norms use the increment variance
        K_aa + K_bb - 2 K_ab, the same at every index, for the label `pairs`
        (default all).
        """
        kmat = np.asarray(kmat, dtype=float)
        if labels is None:
            labels = tuple(f"x{i}" for i in range(kmat.shape[0]))
        if pairs is None:
            pairs = [(labels[a], labels[b]) for a, b in zip(*np.triu_indices(len(labels), 1))]
        col = {lb: k for k, lb in enumerate(labels)}
        pairs = sorted({_pair_key(a, b) for a, b in pairs})
        a, b = (np.array([col[pr[j]] for pr in pairs], dtype=np.intp) for j in (0, 1))
        p_grid = tuple(float(p) for p in p_grid)
        diag = np.diag(kmat)
        point_sd = np.sqrt(np.maximum(diag, 0.0))
        pair_sd = np.sqrt(np.maximum(diag[a] + diag[b] - 2.0 * kmat[a, b], 0.0))
        base = np.array([gaussian_lp_norm(p) for p in p_grid])[:, None, None]
        point_norms = np.repeat(base * point_sd, m, axis=1)
        pair_norms = np.repeat(base * pair_sd, m, axis=1)
        return cls(labels, m, p_grid, pairs, point_norms, np.zeros_like(point_norms),
                   pair_norms, np.zeros_like(pair_norms), np.tile(point_sd ** 2, (m, 1)),
                   meta={"provenance": "analytic-gaussian"})

    # -- CSV directory serialization ----------------------------------------

    def to_csv_dir(self, path: str) -> None:
        """One CSV per index plus a manifest; consumed by the command line."""
        os.makedirs(path, exist_ok=True)
        p_grid = list(self.p_grid)
        header = (["kind", "x1", "x2", "variance"] + [f"norm[{p:g}]" for p in p_grid]
                  + [f"se[{p:g}]" for p in p_grid])
        # per (index, column): the norms then the standard errors, as Python
        # floats, which the writer prints in their shortest round-trip form
        points = np.concatenate([self.point_norms, self.point_se]).transpose(1, 2, 0).tolist()
        pairs = np.concatenate([self.pair_norms, self.pair_se]).transpose(1, 2, 0).tolist()
        variances = self.point_var.tolist()
        files = {}
        for i in range(self.m):
            fname = f"index_{i + 1:04d}.csv"
            files[str(i + 1)] = fname
            rows = [header]
            rows.extend(["point", x, "", var, *cells]
                        for x, cells, var in zip(self.x_labels, points[i], variances[i]))
            rows.extend(["pair", *pair, "", *cells] for pair, cells in zip(self.pairs, pairs[i]))
            with open(os.path.join(path, fname), "w", newline="") as fh:
                csv.writer(fh, lineterminator="\n").writerows(rows)
        manifest = {"x_points": list(self.x_labels), "m": self.m,
                    "p_grid": p_grid, "index_files": files, "meta": self.meta}
        with open(os.path.join(path, "manifest.json"), "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def from_csv_dir(cls, path: str) -> "PairwiseMomentField":
        """The field `to_csv_dir` wrote.  Each index file must hold a row for
        every point of the manifest and for every pair any index file names:
        a missing row raises MissingData, a row for another kind or label,
        with the wrong cell count or a cell that is not a number ValueError,
        each naming the file."""
        manifest_path = os.path.join(path, "manifest.json")
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        labels, m, npg = tuple(manifest["x_points"]), int(manifest["m"]), len(manifest["p_grid"])
        files = manifest["index_files"]
        if set(files) != {str(i) for i in range(1, m + 1)}:
            raise MissingData(f"{manifest_path}: index_files must name one file per index 1..{m}")
        tables = []         # per index: the file and its rows by (kind, x1, x2)
        for i in range(1, m + 1):
            fname = os.path.join(path, files[str(i)])
            with open(fname, newline="") as fh:
                rows = {(kind, *(_pair_key(x1, x2) if kind == "pair" else (x1, x2))): cells
                        for kind, x1, x2, *cells in list(csv.reader(fh))[1:]}
            tables.append((fname, rows))
        pairs = sorted({key[1:] for _, rows in tables for key in rows
                        if key[0] == "pair" and set(key[1:]) <= set(labels)})
        wanted = [("point", x, "") for x in labels] + [("pair", *pr) for pr in pairs]
        for fname, rows in tables:
            foreign = sorted(set(rows) - set(wanted))
            if foreign:
                raise ValueError(f"{fname}: row {list(foreign[0])} is foreign to x_points")
            missing = [key for key in wanted if key not in rows]
            if missing:
                raise MissingData(f"{fname}: no row for {list(missing[0])}")

        def numbers(fname, key, cells):     # variance (empty for a pair), norms, errors
            try:
                if len(cells) != 1 + 2 * npg:
                    raise ValueError(f"{len(cells)} cells after the key, expected {1 + 2 * npg}")
                return [float(v) for v in cells[key[0] == "pair":]]
            except ValueError as exc:
                raise ValueError(f"{fname}: row {list(key)}: {exc}") from None
        k = len(labels)
        table = [[numbers(fname, key, rows[key]) for key in wanted] for fname, rows in tables]
        var = np.array([[row[0] for row in t[:k]] for t in table])
        cells = np.array([[row[-2 * npg:] for row in t] for t in table]).transpose(2, 0, 1)
        return cls(labels, m, manifest["p_grid"], pairs, cells[:npg, :, :k], cells[npg:, :, :k],
                   cells[:npg, :, k:], cells[npg:, :, k:], var.reshape(m, k),
                   meta=manifest.get("meta", {}),
                   provenance={"kind": "monte_carlo", "seed": None, "replications": None})


# ---------------------------------------------------------------------------
# distances and functionals
# ---------------------------------------------------------------------------

def natural_function(field: PairwiseMomentField, p_grid=None) -> PsiFunction:
    """Tabulated generating function: max over indices and points of the
    point curves, evaluated on `p_grid` (default: the field's own grid)."""
    p_grid = tuple(float(p) for p in (field.p_grid if p_grid is None else p_grid))
    rows = [_p_index(field.p_grid, p) for p in p_grid]
    values = field.point_norms[rows].max(axis=(1, 2))
    if np.any(values <= 0):
        raise MissingData("natural function would vanish somewhere on the grid; "
                          "the field is degenerate at that order")
    return PsiFunction.tabulated(p_grid, values)


def _pair_columns(field: PairwiseMomentField, pairs) -> list[int]:
    try:
        return [field._pair_col[_pair_key(x1, x2)] for x1, x2 in pairs]
    except KeyError as exc:
        raise MissingData(f"no pair curves at {exc.args[0]}") from None


#: Each semi-distance and the arguments it cannot do without.
_DISTANCE_KINDS = {"dbar": ("psi",), "pisier": ("r",), "rho_q": ("q",), "di": ("psi", "i")}


def _check_kind(kind: str, kw: dict) -> None:
    if kind not in _DISTANCE_KINDS:
        raise ValueError(f"kind must be one of {tuple(_DISTANCE_KINDS)}")
    for name in _DISTANCE_KINDS[kind]:
        if kw.get(name) is None:
            raise ValueError(f"kind {kind!r} needs the argument {name}")


def _increment_distances(field: PairwiseMomentField, kind: str, cols: list[int], *,
                         psi=None, n_grid=None, r=None, q=None, i=None) -> np.ndarray:
    """One semi-distance of each pair column in `cols`, in one array pass."""
    norms = field.pair_norms[:, :, cols]
    if kind == "di":
        if not 1 <= i <= field.m:
            raise MissingData(f"no pair curves for index {i}; the field has 1..{field.m}")
        norms = norms[:, i - 1:i]
    elif kind == "dbar":
        n_grid = _resolve_n_grid(field, n_grid)
        norms = norms[:, :n_grid[-1]]
    if kind == "pisier":
        return norms[_p_index(field.p_grid, r)].max(axis=0)
    if kind == "rho_q":
        return subq_norms(field.p_grid, norms, q).max(axis=0)
    d = gls_norms(field.p_grid, norms, psi)[0]          # (indices, pairs)
    if kind == "di":
        return d[0]
    csum = np.cumsum(d * d, axis=0)
    n = np.array(n_grid)
    return np.sqrt(csum[n - 1] / n[:, None]).max(axis=0)


def _one_pair(field: PairwiseMomentField, kind: str, x1: str, x2: str, **kw) -> float:
    _check_kind(kind, kw)
    if x1 == x2:
        return 0.0
    return float(_increment_distances(field, kind, _pair_columns(field, [(x1, x2)]), **kw)[0])


def distance_di(field: PairwiseMomentField, i: int, x1: str, x2: str,
                psi: PsiFunction) -> float:
    """Increment norm of index i between x1 and x2 against psi."""
    return _one_pair(field, "di", x1, x2, psi=psi, i=i)


def distance_bar(field: PairwiseMomentField, x1: str, x2: str, psi: PsiFunction,
                 n_grid=None) -> float:
    """sup over n in the grid of sqrt(mean over i <= n of d_i**2)."""
    return _one_pair(field, "dbar", x1, x2, psi=psi, n_grid=n_grid)


def pisier_distance(field: PairwiseMomentField, x1: str, x2: str, r: float) -> float:
    """sup over indices of the order-r increment norm."""
    return _one_pair(field, "pisier", x1, x2, r=r)


def rho_q_distance(field: PairwiseMomentField, x1: str, x2: str, q: float) -> float:
    """sup over indices of the sub-q norm of the increment curve."""
    return _one_pair(field, "rho_q", x1, x2, q=q)


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
    var = field.point_var[:n_grid[-1]]
    n = np.array(n_grid)
    avgs = np.cumsum(var, axis=0)[n - 1] / n[:, None]      # (n grid, points)
    values = avgs.max(axis=0)
    if len(n_grid) >= 2:
        values[(avgs[-2] > 0) & (avgs[-1] > growth_factor * avgs[-2])] = math.inf
    return float(values.min(initial=math.inf))


def distance_matrix(field: PairwiseMomentField, kind: str = "dbar", *,
                    psi: PsiFunction | None = None, n_grid=None, r: float | None = None,
                    q: float | None = None, i: int | None = None) -> FiniteMetricSpace:
    """Assemble a finite metric space from one of the named semi-distances,
    computed for all pairs of labels in one array pass."""
    kw = {"psi": psi, "n_grid": n_grid, "r": r, "q": q, "i": i}
    _check_kind(kind, kw)
    labels = field.x_labels
    a, b = np.triu_indices(len(labels), 1)
    cols = _pair_columns(field, [(labels[s], labels[t]) for s, t in zip(a, b)])
    mat = np.zeros((len(labels), len(labels)))
    mat[a, b] = mat[b, a] = _increment_distances(field, kind, cols, **kw)
    return FiniteMetricSpace(labels, mat)
