"""Natural semi-distances from pairwise moment data."""
import hashlib
import json
import math
import os

import numpy as np
import pytest

from uclt.covering import FiniteMetricSpace
from uclt.distances import (
    PairwiseMomentField,
    distance_bar,
    distance_di,
    distance_matrix,
    natural_function,
    pisier_distance,
    rho_q_distance,
    sigma_squared,
)
from uclt.errors import MissingData
from uclt.psi import PsiFunction, gaussian_lp_norm
from uclt.simulate import MartingaleFieldModel, estimate_moment_curves, grid_coords

P_GRID = (2.0, 3.0, 4.0, 6.0)


def brownian_field(m=8, npts=5):
    coords = np.linspace(0.2, 1.0, npts)
    return PairwiseMomentField.from_gaussian_kernel(
        np.minimum.outer(coords, coords), P_GRID, m=m), coords


def analytic_field(labels, point_norms, point_var, pairs=(), pair_norms=None):
    """Field on P_GRID over (P, m, k) norm arrays, with zero standard errors."""
    if pair_norms is None:
        pair_norms = np.zeros(point_norms.shape[:2] + (0,))
    return PairwiseMomentField(labels, point_var.shape[0], P_GRID, pairs, point_norms,
                               np.zeros_like(point_norms), pair_norms,
                               np.zeros_like(pair_norms), point_var)


def field_with_decaying_increments(c=1.0, m=8):
    """Two points whose index-i increment curve is (c/i) * |Z|_p."""
    base = gaussian_lp_norm(np.array(P_GRID))[:, None, None]
    steps = (c / np.arange(1, m + 1))[None, :, None]
    return analytic_field(("a", "b"), np.repeat(np.repeat(base, m, axis=1), 2, axis=2),
                          np.ones((m, 2)), [("a", "b")], base * steps)


class TestNaturalFunction:
    def test_gaussian_values(self):
        field, _ = brownian_field()
        psi = natural_function(field)
        assert psi.value(2.0) == pytest.approx(1.0)
        assert psi.value(4.0) == pytest.approx(3 ** 0.25)

    def test_scaling_doubles(self):
        field, _ = brownian_field()
        psi2 = natural_function(field.scale(2.0))
        psi = natural_function(field)
        for p in P_GRID:
            assert psi2.value(p) == pytest.approx(2 * psi.value(p))

    def test_dominates_every_point_curve(self):
        field, _ = brownian_field()
        psi = natural_function(field)
        for i in range(1, field.m + 1):
            for x in field.x_labels:
                for p in P_GRID:
                    assert field.point_curve(i, x).value_at(p) <= psi.value(p) + 1e-12

    def test_missing_data(self):
        field, _ = brownian_field()
        with pytest.raises(MissingData):
            natural_function(field, p_grid=[2.0, 5.0])


class TestDistanceDi:
    def test_zero_on_diagonal(self):
        field, _ = brownian_field()
        psi = natural_function(field)
        assert distance_di(field, 1, "x0", "x0", psi) == 0.0

    def test_bounded_by_two_against_own_natural_function(self):
        field, _ = brownian_field()
        psi = natural_function(field)
        for a in field.x_labels:
            for b in field.x_labels:
                assert distance_di(field, 2, a, b, psi) <= 2.0 + 1e-12

    def test_brownian_ratio_cancels(self):
        field, coords = brownian_field()
        psi = natural_function(field)
        d = distance_di(field, 3, "x0", "x4", psi)
        assert d == pytest.approx(math.sqrt(abs(coords[4] - coords[0])), rel=1e-12)


class TestDistanceBar:
    def test_constant_over_index(self):
        field, coords = brownian_field()
        psi = natural_function(field)
        delta = math.sqrt(abs(coords[3] - coords[0]))
        assert distance_bar(field, "x0", "x3", psi, [1, 2, 4, 8]) == pytest.approx(delta, rel=1e-12)

    def test_diagonal(self):
        field, _ = brownian_field()
        assert distance_bar(field, "x1", "x1", natural_function(field), [1, 2]) == 0.0

    def test_decaying_attained_at_one(self):
        field = field_with_decaying_increments(c=0.5)
        psi = natural_function(field)
        got = distance_bar(field, "a", "b", psi, [1, 2, 4, 8])
        # direct computation: averages of (c/i)^2 are strictly decreasing
        d = np.array([0.5 / i for i in range(1, 9)])
        oracle = max(math.sqrt((d[:n] ** 2).mean()) for n in (1, 2, 4, 8))
        assert got == pytest.approx(oracle, rel=1e-12)
        assert got == pytest.approx(0.5, rel=1e-12)

    def test_di_controlled_by_dbar(self):
        field = field_with_decaying_increments(c=2.0)
        psi = natural_function(field)
        n_grid = [1, 2, 4, 8]
        dbar = distance_bar(field, "a", "b", psi, n_grid)
        c = math.sqrt(max(n_grid))
        for i in range(1, 9):
            assert distance_di(field, i, "a", "b", psi) <= c * dbar + 1e-12


class TestPisierDistance:
    def test_diagonal_and_single_index(self):
        field, coords = brownian_field(m=1)
        assert pisier_distance(field, "x0", "x0", 2.0) == 0.0
        one = pisier_distance(field, "x0", "x2", 2.0)
        assert one == pytest.approx(field.pair_curve(1, "x0", "x2").value_at(2.0))

    def test_gaussian_increments(self):
        field, coords = brownian_field()
        delta = abs(coords[4] - coords[0])
        assert pisier_distance(field, "x0", "x4", 2.0) == pytest.approx(math.sqrt(delta), rel=1e-12)

    def test_missing_order(self):
        field, _ = brownian_field()
        with pytest.raises(MissingData):
            pisier_distance(field, "x0", "x1", 5.0)


class TestRhoQ:
    def test_sqrt_p_curve_gives_constant(self):
        c = 0.7
        root = np.sqrt(P_GRID)[:, None, None]
        field = analytic_field(("a", "b"), np.repeat(root, 2, axis=2), np.ones((1, 2)),
                               [("a", "b")], c * root)
        assert rho_q_distance(field, "a", "b", 2.0) == pytest.approx(c, rel=1e-12)

    def test_homogeneous(self):
        field, _ = brownian_field()
        assert rho_q_distance(field.scale(2.0), "x0", "x3", 2.0) == \
            pytest.approx(2 * rho_q_distance(field, "x0", "x3", 2.0), rel=1e-12)

    def test_all_distances_degree_one_homogeneous(self):
        field, _ = brownian_field()
        doubled = field.scale(2.0)
        psi = natural_function(field)  # keep the reference scale fixed
        n_grid = [1, 2, 4, 8]
        assert distance_bar(doubled, "x0", "x3", psi, n_grid) == \
            pytest.approx(2 * distance_bar(field, "x0", "x3", psi, n_grid), rel=1e-12)
        assert pisier_distance(doubled, "x0", "x3", 2.0) == \
            pytest.approx(2 * pisier_distance(field, "x0", "x3", 2.0), rel=1e-12)
        assert distance_di(doubled, 1, "x0", "x3", psi) == \
            pytest.approx(2 * distance_di(field, 1, "x0", "x3", psi), rel=1e-12)

    def test_diagonal(self):
        field, _ = brownian_field()
        assert rho_q_distance(field, "x2", "x2", 1.0) == 0.0


class TestSigmaSquared:
    def test_unit_variance(self):
        field, _ = brownian_field()
        unit = field.scale(1.0)
        # overwrite variances to 1 everywhere
        unit.point_var[:] = 1.0
        assert sigma_squared(unit, [1, 2, 4, 8]) == pytest.approx(1.0)

    def test_inf_over_points(self):
        variances = np.tile([0.5, 1.0], (4, 1))
        base = gaussian_lp_norm(np.array(P_GRID))[:, None, None]
        field = analytic_field(("a", "b"), base * np.sqrt(variances), variances)
        assert sigma_squared(field, [1, 2, 4]) == pytest.approx(0.5)

    def test_divergence_flagged(self):
        m = 64
        variances = np.repeat(np.arange(1.0, m + 1)[:, None], 2, axis=1)  # averages grow linearly
        base = gaussian_lp_norm(np.array(P_GRID))[:, None, None]
        field = analytic_field(("a", "b"), base * np.sqrt(variances), variances)
        assert math.isinf(sigma_squared(field, [1, 2, 4, 8, 16, 32, 64]))

    def test_missing_variance(self):
        field, _ = brownian_field(m=4)
        with pytest.raises(MissingData):
            sigma_squared(field, [1, 8])


class TestVarianceConsistency:
    # an analytic field has zero standard errors, so its variance must be its
    # squared L2 norm up to rounding
    def test_analytic_field_consistent(self):
        field, _ = brownian_field()
        l2 = field.point_norms[field.p_grid.index(2.0)]
        assert not field.point_se.any()
        assert np.abs(field.point_var - l2 * l2).max() <= 1e-9

    def test_corrupted_variance_flagged(self):
        field, _ = brownian_field(m=2, npts=2)
        field.point_var[0, 1] = 9.0      # index 1, point x1
        l2 = field.point_norms[field.p_grid.index(2.0)]
        assert np.argwhere(np.abs(field.point_var - l2 * l2) > 1e-9).tolist() == [[0, 1]]


class TestMatrixAssembly:
    def test_space_invariants_and_parallel_determinism(self):
        field, _ = brownian_field()
        psi = natural_function(field)
        s1 = distance_matrix(field, "dbar", psi=psi, n_grid=[1, 2, 4])
        s2 = distance_matrix(field, "dbar", psi=psi, n_grid=[1, 2, 4])
        assert isinstance(s1, FiniteMetricSpace)
        assert np.array_equal(s1.dist, s2.dist)
        assert np.allclose(s1.dist, s1.dist.T)
        assert np.all(np.diag(s1.dist) == 0)

    def test_all_kinds(self):
        field, _ = brownian_field()
        psi = natural_function(field)
        for kwargs in ({"kind": "pisier", "r": 2.0}, {"kind": "rho_q", "q": 2.0},
                       {"kind": "di", "i": 1, "psi": psi}):
            s = distance_matrix(field, **kwargs)
            assert np.all(s.dist >= 0)

    @pytest.mark.parametrize("call,missing", [
        (lambda f, psi: distance_matrix(f, "dbar"), "psi"),
        (lambda f, psi: distance_matrix(f, "di", i=1), "psi"),
        (lambda f, psi: distance_matrix(f, "di", psi=psi), "i"),
        (lambda f, psi: distance_matrix(f, "pisier"), "r"),
        (lambda f, psi: distance_matrix(f, "rho_q"), "q"),
        (lambda f, psi: distance_bar(f, "x0", "x1", None), "psi"),
        (lambda f, psi: distance_di(f, 1, "x0", "x0", None), "psi"),
        (lambda f, psi: distance_di(f, None, "x0", "x1", psi), "i"),
        (lambda f, psi: pisier_distance(f, "x0", "x1", None), "r"),
        (lambda f, psi: rho_q_distance(f, "x0", "x0", None), "q"),
    ])
    def test_missing_argument_named(self, call, missing):
        field, _ = brownian_field()
        with pytest.raises(ValueError, match=f"needs the argument {missing}$"):
            call(field, natural_function(field))


def _with_cell(row, j, value):
    """A CSV line with its j-th cell replaced."""
    cells = row.split(",")
    return ",".join(cells[:j] + [value] + cells[j + 1:])


class TestCsvDir:
    def test_roundtrip(self, tmp_path):
        field, _ = brownian_field(m=3, npts=3)
        field.to_csv_dir(tmp_path / "field")
        back = PairwiseMomentField.from_csv_dir(tmp_path / "field")
        assert (back.x_labels, back.m, back.pairs) == (field.x_labels, field.m, field.pairs)
        assert back.pair_norms == pytest.approx(field.pair_norms, rel=1e-15)
        assert back.point_var == pytest.approx(field.point_var, rel=1e-15)

    def test_roundtrip_monte_carlo_field(self, tmp_path):
        model = MartingaleFieldModel("wg", "iid_gaussian_field", grid_coords(3),
                                     {"kernel": {"name": "rbf"}}, horizon=4, seed=11)
        field = estimate_moment_curves(model, [("x0", "x1"), ("x1", "x2")], [2.0, 3.0],
                                       400, i_max=4)
        field.to_csv_dir(tmp_path / "field")
        back = PairwiseMomentField.from_csv_dir(tmp_path / "field")
        assert (back.x_labels, back.m, back.meta, back.pairs) == \
            (field.x_labels, field.m, field.meta, field.pairs)
        for name in ("point_norms", "point_se", "pair_norms", "pair_se", "point_var"):
            assert np.array_equal(getattr(back, name), getattr(field, name)), name
        assert back.pair_curve(2, "x2", "x1").stderr == field.pair_curve(2, "x1", "x2").stderr

    @pytest.mark.parametrize("edit,error,message", [
        (lambda rows: rows[:2] + rows[3:], MissingData, "no row for ['point', 'x1', '']"),
        (lambda rows: rows[:-1], MissingData, "no row for ['pair', 'x1', 'x2']"),
        (lambda rows: rows + [rows[2].replace("point,x1,", "point,zz,")], ValueError,
         "row ['point', 'zz', ''] is foreign to x_points"),
        (lambda rows: rows + [rows[-1].replace("pair,x1,x2,", "pair,x1,zz,")], ValueError,
         "row ['pair', 'x1', 'zz'] is foreign to x_points"),
        (lambda rows: rows[:2] + [_with_cell(rows[2], 4, "abc")] + rows[3:], ValueError,
         "row ['point', 'x1', '']: could not convert string to float: 'abc'"),
        (lambda rows: rows[:-1] + [rows[-1].rsplit(",", 1)[0]], ValueError,
         "row ['pair', 'x1', 'x2']: 8 cells after the key, expected 9"),
    ], ids=["missing-point", "missing-pair", "foreign-point", "foreign-pair", "not-a-number",
            "short-row"])
    def test_incomplete_or_foreign_rows_name_the_file(self, tmp_path, edit, error, message):
        field, _ = brownian_field(m=3, npts=3)
        field.to_csv_dir(tmp_path / "field")
        index2 = tmp_path / "field" / "index_0002.csv"
        rows = index2.read_text().splitlines()
        index2.write_text("\n".join(edit(rows)) + "\n")
        with pytest.raises(error, match="index_0002.csv: ") as info:
            PairwiseMomentField.from_csv_dir(tmp_path / "field")
        assert message in str(info.value)

    def test_manifest_must_name_every_index(self, tmp_path):
        field, _ = brownian_field(m=3, npts=3)
        field.to_csv_dir(tmp_path / "field")
        manifest = tmp_path / "field" / "manifest.json"
        doc = json.loads(manifest.read_text())
        del doc["index_files"]["2"]
        manifest.write_text(json.dumps(doc))
        with pytest.raises(MissingData, match="manifest.json: index_files must name one file"):
            PairwiseMomentField.from_csv_dir(tmp_path / "field")
        doc["index_files"].update({"2": "index_0002.csv", "4": "index_0003.csv"})
        manifest.write_text(json.dumps(doc))
        with pytest.raises(MissingData, match="per index 1..3"):
            PairwiseMomentField.from_csv_dir(tmp_path / "field")


# -- the columnar field ---------------------------------------------------------

def reference_distance(field, kind, x1, x2, psi=None, n_grid=None, r=None, q=None, i=None):
    """Per-pair scalar loop over curve views: the reference for the array pass."""
    curves = [field.pair_curve(j, x1, x2) for j in range(1, field.m + 1)]

    def gls(curve):
        weights = psi.value_array(np.asarray(curve.p_grid))
        return max([0.0] + [v / w for v, w in zip(curve.norms, weights) if not math.isinf(w)])

    if kind == "di":
        return gls(curves[i - 1])
    if kind == "pisier":
        return max(c.value_at(r) for c in curves)
    if kind == "rho_q":
        return max(v / p ** (1.0 / q) for c in curves for p, v in zip(c.p_grid, c.norms)
                   if p >= 2.0)
    d = [gls(c) for c in curves[:max(n_grid)]]
    csum = np.cumsum([v * v for v in d])
    return max(math.sqrt(csum[n - 1] / n) for n in n_grid)


def monte_carlo_field(npts=5, m=8, seed=11):
    model = MartingaleFieldModel("wg", "iid_gaussian_field", grid_coords(npts),
                                 {"kernel": {"name": "rbf", "length_scale": 0.3}},
                                 horizon=m, seed=seed)
    labels = model.labels
    pairs = [(labels[a], labels[b]) for a in range(npts) for b in range(a + 1, npts)]
    return estimate_moment_curves(model, pairs, (2.0, 2.5, 3.0, 4.0, 6.0), 600, i_max=m)


def tree_digest(root):
    h = hashlib.sha256()
    for name in sorted(os.listdir(root)):
        h.update(name.encode())
        with open(os.path.join(root, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class TestColumnarField:
    @pytest.mark.parametrize("make", [lambda: brownian_field()[0], monte_carlo_field],
                             ids=["analytic", "monte-carlo"])
    def test_array_pass_equals_scalar_loop(self, make):
        field = make()
        psi = natural_function(field)
        labels = field.x_labels
        for kwargs in ({"kind": "dbar", "psi": psi, "n_grid": [1, 2, 4, 8]},
                       {"kind": "dbar", "psi": PsiFunction.closed_power(2.0), "n_grid": [1, 3]},
                       {"kind": "di", "psi": psi, "i": 3},
                       {"kind": "di", "psi": PsiFunction.degenerate(3.0, (2.0, 5.0)), "i": 8},
                       {"kind": "pisier", "r": 4.0},
                       {"kind": "rho_q", "q": 1.0},
                       {"kind": "rho_q", "q": 2.5}):
            space = distance_matrix(field, **kwargs)
            for a in range(len(labels)):
                for b in range(len(labels)):
                    want = 0.0 if a == b else reference_distance(field, x1=labels[a],
                                                                 x2=labels[b], **kwargs)
                    assert space.dist[a, b] == want, (kwargs, a, b)   # bit for bit

    def test_scalar_functions_are_one_pair_cases(self):
        field = monte_carlo_field()
        psi = natural_function(field)
        space = distance_matrix(field, "dbar", psi=psi, n_grid=[1, 2, 4, 8])
        assert distance_bar(field, "x3", "x1", psi, [1, 2, 4, 8]) == space.dist[1, 3]
        assert distance_di(field, 2, "x0", "x4", psi) == reference_distance(
            field, "di", "x0", "x4", psi=psi, i=2)

    def test_natural_function_and_sigma_squared_against_loops(self):
        field = monte_carlo_field()
        field.point_norms[:, -1, -1] *= 2.0      # the sup sits at the last index and point
        psi = natural_function(field)
        for k, p in enumerate(field.p_grid):
            want = max(field.point_curve(i, x).value_at(p)
                       for x in field.x_labels for i in range(1, field.m + 1))
            assert psi.value(p) == want
        n_grid = [1, 2, 4, 8]
        want = math.inf
        for x in field.x_labels:
            csum = np.cumsum([field.variance(i, x) for i in range(1, 9)])
            want = min(want, max(csum[n - 1] / n for n in n_grid))
        assert sigma_squared(field, n_grid, growth_factor=100.0) == want

    def test_non_monotone_monte_carlo_curve_rejected(self):
        # 0.9 after 1.0 is a drop of 10 se (se = 0.01), beyond the field's 3-se rule
        norms = np.array([1.0, 1.1]).reshape(2, 1, 1) * np.ones((2, 1, 2))
        se = np.full((2, 1, 2), 0.01)
        bad = norms.copy()
        bad[:, 0, 1] = (1.0, 0.9)
        args = (("a", "b"), 1, (2.0, 3.0), [("a", "b")])
        PairwiseMomentField(*args, norms, se, norms[:, :, :1], se[:, :, :1], np.ones((1, 2)))
        with pytest.raises(ValueError, match="nondecreasing"):
            PairwiseMomentField(*args, bad, se, norms[:, :, :1], se[:, :, :1], np.ones((1, 2)))
        with pytest.raises(ValueError, match="nondecreasing"):
            PairwiseMomentField(*args, norms, se, bad[:, :, 1:], se[:, :, :1], np.ones((1, 2)))
        bad[1, 0, 1] = np.nan        # every entry holds data: NaN is no missing mark
        with pytest.raises(ValueError, match="finite"):
            PairwiseMomentField(*args, bad, se, norms[:, :, :1], se[:, :, :1], np.ones((1, 2)))

    def test_analytic_csv_bytes_frozen(self, tmp_path):
        # sha256 of the tree written at the commit before the columnar field
        coords = np.linspace(0.2, 1.0, 4)
        field = PairwiseMomentField.from_gaussian_kernel(
            np.minimum.outer(coords, coords), P_GRID, m=3)
        field.to_csv_dir(tmp_path / "f")
        assert tree_digest(tmp_path / "f") == \
            "21350c6258fbb4867b6e60bb703e01f6071473bd410649ec16005f55191b095f"

    @pytest.mark.parametrize("make", [lambda: brownian_field()[0], monte_carlo_field,
                                      field_with_decaying_increments],
                             ids=["analytic", "monte-carlo", "decaying"])
    def test_csv_round_trip_gives_equal_field(self, make, tmp_path):
        field = make()
        field.to_csv_dir(tmp_path / "f")
        assert PairwiseMomentField.from_csv_dir(tmp_path / "f") == field
        assert field.scale(2.0) != field

    def test_one_entry_accessors(self):
        field = monte_carlo_field(npts=3, m=2)
        curve = field.pair_curve(2, "x2", "x0")
        assert curve.norms == tuple(field.pair_norms[:, 1, 1].tolist())
        assert curve.stderr == tuple(field.pair_se[:, 1, 1].tolist())
        assert field.point_curve(1, "x2").norms == tuple(field.point_norms[:, 0, 2].tolist())
        assert field.variance(2, "x1") == field.point_var[1, 1]
        for missing in (lambda: field.pair_curve(3, "x0", "x1"),
                        lambda: field.point_curve(0, "x0"), lambda: field.variance(1, "zz")):
            with pytest.raises(MissingData):
                missing()
