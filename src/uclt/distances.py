"""Semi-distances on the index set built from per-pair moment data.

A `PairwiseMomentField` holds, for each difference index i = 1..m, the L_p
norms of the field value at each point and of the increment over each
unordered point pair, as columns: norms and standard errors of shape
(P, m, k), with P moment orders and k points (in label order) or pairs (in
sorted-key order), plus point variances of shape (m, npoints).  NaN marks an
entry without data.  `point_curve`, `pair_curve` and the `point_curves`,
`pair_curves` and `variances` mappings are views built on demand.  From the
arrays the module derives, each in one pass over all points or pairs:

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
from collections.abc import Mapping
from types import MappingProxyType

import numpy as np

from .covering import FiniteMetricSpace
from .errors import MissingData
from .psi import (SE_MARGIN, MomentCurve, PsiFunction, _check_curves, _p_index,
                  gaussian_lp_norm, gls_norms, subq_norms)

#: Dyadic default for index-grid truncation of sup over n.
DEFAULT_N_GRID = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)

#: Growth ratio between the last two truncation points above which the
#: running sup is reported as unbounded-at-resolution (+inf).
DEFAULT_GROWTH_FACTOR = 1.5

_ARRAYS = ("point_norms", "point_se", "pair_norms", "pair_se", "point_var")


def _pair_key(x1: str, x2: str) -> tuple[str, str]:
    return (x1, x2) if x1 <= x2 else (x2, x1)


def _require(present: np.ndarray, names, what: str) -> None:
    """MissingData naming the first (index, name) of an (m, k) mask without data."""
    if not present.all():
        i, k = np.argwhere(~present)[0]
        raise MissingData(f"no {what} for index {i + 1} at {names[k]!r}")


def _table(m: int, names, entries, depth: tuple = ()) -> np.ndarray:
    """Array of shape depth + (m, len(names)) from ((i, name), value) entries,
    NaN where there is none."""
    col = {name: k for k, name in enumerate(names)}
    out = np.full(depth + (m, len(names)), np.nan)
    for (i, name), value in entries:
        if not 1 <= i <= m or name not in col:
            raise ValueError(f"key {(i, name)!r} is outside the indices 1..{m} or the labels")
        out[..., i - 1, col[name]] = value
    return out


class PairwiseMomentField:
    """Moment data per index and per point / unordered pair, held as arrays.

    `point_norms` and `point_se` have shape (P, m, len(x_labels)),
    `pair_norms` and `pair_se` shape (P, m, len(pairs)) with `pairs` sorted
    and each pair sorted, `point_var` shape (m, len(x_labels)); NaN marks
    an entry without data.  All curves are validated in one vectorized pass
    by the rule of :class:`MomentCurve` (nondecreasing in p within
    `SE_MARGIN` standard errors).

    The constructor takes mappings `point_curves[(i, x)]`,
    `pair_curves[(i, (xa, xb))]` (pair sorted) and `variances[(i, x)]` with
    indices 1..m; :meth:`from_arrays` takes the arrays.
    """

    def __init__(self, x_labels, m: int, point_curves: dict, pair_curves: dict,
                 variances: dict, meta: dict | None = None):
        curves = [*point_curves.values(), *pair_curves.values()]
        p_grid = curves[0].p_grid if curves else ()
        if any(c.p_grid != p_grid for c in curves):
            raise ValueError("all curves must share one p grid")
        labels, pairs = tuple(x_labels), sorted({pr for _, pr in pair_curves})
        zeros, depth = (0.0,) * len(p_grid), (len(p_grid),)

        def tables(names, mapping):
            return (_table(m, names, ((k, c.norms) for k, c in mapping.items()), depth),
                    _table(m, names, ((k, c.stderr or zeros) for k, c in mapping.items()), depth))

        field = PairwiseMomentField.from_arrays(
            labels, m, p_grid, pairs, *tables(labels, point_curves), *tables(pairs, pair_curves),
            _table(m, labels, variances.items()), meta,
            dict(curves[0].provenance) if curves else None)
        self.__dict__.update(vars(field))

    @classmethod
    def from_arrays(cls, x_labels, m: int, p_grid, pairs, point_norms, point_se,
                    pair_norms, pair_se, point_var, meta: dict | None = None,
                    provenance: dict | None = None) -> "PairwiseMomentField":
        """Field over the given arrays (not copied); `provenance` is the
        provenance of every curve view, analytic by default."""
        field = cls.__new__(cls)
        field.x_labels, field.m = tuple(x_labels), int(m)
        field.p_grid, field.pairs = tuple(float(p) for p in p_grid), tuple(pairs)
        if field.m < 1:
            raise ValueError("need at least one difference index")
        if list(field.pairs) != sorted(set(field.pairs)) or \
                any(pr != _pair_key(*pr) for pr in field.pairs):
            raise ValueError("pairs must be distinct, sorted, and each sorted")
        field.point_norms, field.point_se = point_norms, point_se
        field.pair_norms, field.pair_se, field.point_var = pair_norms, pair_se, point_var
        field.meta = {} if meta is None else meta
        field.provenance = {"kind": "analytic"} if provenance is None else provenance
        field._point_col = {x: k for k, x in enumerate(field.x_labels)}
        field._pair_col = {pr: k for k, pr in enumerate(field.pairs)}
        for norms, se in ((point_norms, point_se), (pair_norms, pair_se)):
            present = ~np.isnan(norms).all(axis=0)
            if field.p_grid:
                _check_curves(field.p_grid, norms[:, present], se[:, present])
        return field

    def __eq__(self, other):
        if not isinstance(other, PairwiseMomentField):
            return NotImplemented
        return ((self.x_labels, self.m, self.p_grid, self.pairs, self.meta)
                == (other.x_labels, other.m, other.p_grid, other.pairs, other.meta)
                and all(np.array_equal(getattr(self, a), getattr(other, a), equal_nan=True)
                        for a in _ARRAYS))

    # -- on-demand views ------------------------------------------------------

    def _column(self, what: str, i: int, key, columns: dict, data: np.ndarray) -> int:
        """The column of `key` when `data` holds an entry for index i, else MissingData."""
        k = columns.get(key)
        if k is None or not 1 <= i <= self.m or np.isnan(data[..., i - 1, k]).all():
            raise MissingData(f"no {what} for index {i} at {key!r}")
        return k

    def _curve(self, norms: np.ndarray, se: np.ndarray, i: int, k: int) -> MomentCurve:
        stderr = None if self.provenance.get("kind") == "analytic" \
            else tuple(se[:, i - 1, k].tolist())
        return MomentCurve(self.p_grid, tuple(norms[:, i - 1, k].tolist()),
                           provenance=dict(self.provenance), stderr=stderr)

    def point_curve(self, i: int, x: str) -> MomentCurve:
        k = self._column("point curve", i, x, self._point_col, self.point_norms)
        return self._curve(self.point_norms, self.point_se, i, k)

    def pair_curve(self, i: int, x1: str, x2: str) -> MomentCurve:
        if x1 == x2:
            return MomentCurve.zero(self.p_grid)
        k = self._column("pair curve", i, _pair_key(x1, x2), self._pair_col, self.pair_norms)
        return self._curve(self.pair_norms, self.pair_se, i, k)

    def variance(self, i: int, x: str) -> float:
        k = self._column("variance", i, x, self._point_col, self.point_var)
        return float(self.point_var[i - 1, k])

    def _keys(self, data: np.ndarray, names=None) -> list:
        """(i, name) of every entry `data` holds, name by name."""
        names = self.x_labels if names is None else names
        present = ~np.isnan(data).all(axis=0) if data.ndim == 3 else ~np.isnan(data)
        return [(i + 1, names[k]) for k, i in np.argwhere(present.T)]

    @property
    def point_curves(self) -> Mapping:
        return MappingProxyType({key: self.point_curve(*key)
                                 for key in self._keys(self.point_norms)})

    @property
    def pair_curves(self) -> Mapping:
        return MappingProxyType({(i, pr): self.pair_curve(i, *pr)
                                 for i, pr in self._keys(self.pair_norms, self.pairs)})

    @property
    def variances(self) -> Mapping:
        return MappingProxyType({key: self.variance(*key) for key in self._keys(self.point_var)})

    # -- whole-field operations -------------------------------------------------

    def variance_consistency(self) -> list[dict]:
        """Violations of variance == (p=2 norm)**2 beyond `SE_MARGIN` standard
        errors of Monte Carlo slack.

        Returns one row per offending (index, point); empty means consistent.
        Analytic fields must match exactly (their stderr is zero).
        """
        if 2.0 not in self.p_grid:
            return []
        k = self.p_grid.index(2.0)
        l2, se, var = self.point_norms[k], self.point_se[k], self.point_var
        slack = SE_MARGIN * se * np.maximum(2.0 * l2, 1.0) + 1e-9
        bad = np.abs(var - l2 * l2) > slack
        return [{"index": int(i) + 1, "point": self.x_labels[j], "variance": float(var[i, j]),
                 "l2_squared": float(l2[i, j] * l2[i, j]), "slack": float(slack[i, j])}
                for j, i in np.argwhere(bad.T)]

    def scale(self, c: float) -> "PairwiseMomentField":
        """Field of c * xi: norms scale by |c|, variances by c**2."""
        c = float(c)
        a = abs(c)
        return PairwiseMomentField.from_arrays(
            self.x_labels, self.m, self.p_grid, self.pairs, a * self.point_norms,
            a * self.point_se, a * self.pair_norms, a * self.pair_se, c * c * self.point_var,
            meta=dict(self.meta), provenance=self.provenance)

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
        kmat = np.array([[kernel(ca, cb) for cb in coords] for ca in coords])
        diag = np.diag(kmat)
        sd = np.sqrt(np.maximum(diag[:, None] + diag[None, :] - 2.0 * kmat, 0.0))
        col = {lb: k for k, lb in enumerate(labels)}
        pairs = sorted(_pair_key(labels[a], labels[b])
                       for a, b in zip(*np.triu_indices(len(labels), 1)))
        point_sd = np.sqrt(np.maximum(diag, 0.0))
        pair_sd = np.array([sd[col[a], col[b]] for a, b in pairs])
        base = np.array([gaussian_lp_norm(p) for p in p_grid])[:, None, None]
        point_norms = np.repeat(base * point_sd, m, axis=1)
        pair_norms = np.repeat(base * pair_sd, m, axis=1)
        return cls.from_arrays(labels, m, p_grid, pairs, point_norms,
                               np.zeros_like(point_norms), pair_norms, np.zeros_like(pair_norms),
                               np.tile(point_sd ** 2, (m, 1)),
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
            for x, cells, var in zip(self.x_labels, points[i], variances[i]):
                if not math.isnan(cells[0]):
                    var = cells[0] ** 2 if math.isnan(var) else var
                    rows.append(["point", x, "", var, *cells])
            rows.extend(["pair", pair[0], pair[1], "", *cells]
                        for pair, cells in zip(self.pairs, pairs[i]) if not math.isnan(cells[0]))
            with open(os.path.join(path, fname), "w", newline="") as fh:
                csv.writer(fh, lineterminator="\n").writerows(rows)
        manifest = {"x_points": list(self.x_labels), "m": self.m,
                    "p_grid": p_grid, "index_files": files, "meta": self.meta}
        with open(os.path.join(path, "manifest.json"), "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def from_csv_dir(cls, path: str) -> "PairwiseMomentField":
        with open(os.path.join(path, "manifest.json")) as fh:
            manifest = json.load(fh)
        labels, m, npg = tuple(manifest["x_points"]), int(manifest["m"]), len(manifest["p_grid"])
        points, pairs, variances = [], [], []
        for i_str, fname in manifest["index_files"].items():
            i = int(i_str)
            with open(os.path.join(path, fname), newline="") as fh:
                for kind, x1, x2, var, *cells in list(csv.reader(fh))[1:]:
                    cells = [float(v) for v in cells]     # the norms, then the standard errors
                    if kind == "point":
                        points.append(((i, x1), cells))
                        variances.append(((i, x1), float(var)))
                    else:
                        pairs.append(((i, _pair_key(x1, x2)), cells))
        keys = sorted({pair for (_, pair), _ in pairs})
        pt, pr = _table(m, labels, points, (2 * npg,)), _table(m, keys, pairs, (2 * npg,))
        return cls.from_arrays(labels, m, manifest["p_grid"], keys, pt[:npg], pt[npg:],
                               pr[:npg], pr[npg:], _table(m, labels, variances),
                               meta=manifest.get("meta", {}), provenance={
                                   "kind": "monte_carlo", "seed": None, "replications": None})


# ---------------------------------------------------------------------------
# distances and functionals
# ---------------------------------------------------------------------------

def natural_function(field: PairwiseMomentField, p_grid=None) -> PsiFunction:
    """Tabulated generating function: max over indices and points of the
    point curves, evaluated on `p_grid` (default: the field's own grid)."""
    present = ~np.isnan(field.point_norms).all(axis=0)
    if not present.any():
        raise MissingData("field carries no point curves")
    _require(present, field.x_labels, "point curve")
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
    _require(~np.isnan(norms).any(axis=0), [field.pairs[k] for k in cols], "pair curve")
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
    _require(~np.isnan(var), field.x_labels, "variance")
    n = np.array(n_grid)
    avgs = np.cumsum(var, axis=0)[n - 1] / n[:, None]      # (n grid, points)
    values = avgs.max(axis=0)
    if len(n_grid) >= 2:
        values[(avgs[-2] > 0) & (avgs[-1] > growth_factor * avgs[-2])] = math.inf
    return float(values.min(initial=math.inf))


_DISTANCE_KINDS = ("dbar", "pisier", "rho_q", "di")


def distance_matrix(field: PairwiseMomentField, kind: str = "dbar", *,
                    psi: PsiFunction | None = None, n_grid=None, r: float | None = None,
                    q: float | None = None, i: int | None = None) -> FiniteMetricSpace:
    """Assemble a finite metric space from one of the named semi-distances,
    computed for all pairs of labels in one array pass."""
    if kind not in _DISTANCE_KINDS:
        raise ValueError(f"kind must be one of {_DISTANCE_KINDS}")
    labels = field.x_labels
    a, b = np.triu_indices(len(labels), 1)
    cols = _pair_columns(field, [(labels[s], labels[t]) for s, t in zip(a, b)])
    mat = np.zeros((len(labels), len(labels)))
    mat[a, b] = mat[b, a] = _increment_distances(field, kind, cols, psi=psi, n_grid=n_grid,
                                                 r=r, q=q, i=i)
    return FiniteMetricSpace(labels, mat)
