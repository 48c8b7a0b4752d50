"""Natural semi-distances from pairwise moment data."""
import math

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
from uclt.psi import MomentCurve, PsiFunction, gaussian_lp_norm, gls_norm
from uclt.simulate import MartingaleFieldModel, estimate_moment_curves, grid_coords

P_GRID = (2.0, 3.0, 4.0, 6.0)


def brownian_field(m=8, npts=5):
    coords = np.linspace(0.2, 1.0, npts)
    return PairwiseMomentField.from_gaussian_kernel(
        coords, lambda a, b: min(a[0], b[0]), P_GRID, m=m), coords


def field_with_decaying_increments(c=1.0, m=8):
    """Two points whose index-i increment curve is (c/i) * |Z|_p."""
    base = np.array([gaussian_lp_norm(p) for p in P_GRID])
    point = MomentCurve.analytic(P_GRID, base)
    points, pairs, variances = {}, {}, {}
    for i in range(1, m + 1):
        for x in ("a", "b"):
            points[(i, x)] = point
            variances[(i, x)] = 1.0
        pairs[(i, ("a", "b"))] = MomentCurve.analytic(P_GRID, (c / i) * base)
    return PairwiseMomentField(("a", "b"), m, points, pairs, variances)


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
        for (i, x), curve in field.point_curves.items():
            for p in P_GRID:
                assert curve.value_at(p) <= psi.value(p) + 1e-12

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
        curves = {(1, ("a", "b")): MomentCurve.analytic(P_GRID, [c * math.sqrt(p) for p in P_GRID])}
        pts = {(1, "a"): MomentCurve.analytic(P_GRID, [math.sqrt(p) for p in P_GRID]),
               (1, "b"): MomentCurve.analytic(P_GRID, [math.sqrt(p) for p in P_GRID])}
        field = PairwiseMomentField(("a", "b"), 1, pts, curves, {(1, "a"): 1.0, (1, "b"): 1.0})
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
        for k in unit.variances:
            unit.variances[k] = 1.0
        assert sigma_squared(unit, [1, 2, 4, 8]) == pytest.approx(1.0)

    def test_inf_over_points(self):
        pts = {}
        variances = {}
        curves = {}
        for i in range(1, 5):
            for x, v in (("a", 0.5), ("b", 1.0)):
                pts[(i, x)] = MomentCurve.standard_gaussian(P_GRID, math.sqrt(v))
                variances[(i, x)] = v
        field = PairwiseMomentField(("a", "b"), 4, pts, curves, variances)
        assert sigma_squared(field, [1, 2, 4]) == pytest.approx(0.5)

    def test_divergence_flagged(self):
        pts, variances = {}, {}
        m = 64
        for i in range(1, m + 1):
            for x in ("a", "b"):
                pts[(i, x)] = MomentCurve.standard_gaussian(P_GRID, math.sqrt(i))
                variances[(i, x)] = float(i)  # running averages grow linearly
        field = PairwiseMomentField(("a", "b"), m, pts, {}, variances)
        assert math.isinf(sigma_squared(field, [1, 2, 4, 8, 16, 32, 64]))

    def test_missing_variance(self):
        field, _ = brownian_field(m=4)
        with pytest.raises(MissingData):
            sigma_squared(field, [1, 8])


class TestVarianceConsistency:
    def test_analytic_field_consistent(self):
        field, _ = brownian_field()
        assert field.variance_consistency() == []

    def test_corrupted_variance_flagged(self):
        field, _ = brownian_field(m=2, npts=2)
        field.variances[(1, "x1")] = 9.0
        rows = field.variance_consistency()
        assert rows and rows[0]["point"] == "x1"


class TestMatrixAssembly:
    def test_space_invariants_and_parallel_determinism(self):
        field, _ = brownian_field()
        psi = natural_function(field)
        s1 = distance_matrix(field, "dbar", psi=psi, n_grid=[1, 2, 4])
        s2 = distance_matrix(field, "dbar", psi=psi, n_grid=[1, 2, 4], threads=4)
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


class TestCsvDir:
    def test_roundtrip(self, tmp_path):
        field, _ = brownian_field(m=3, npts=3)
        field.to_csv_dir(tmp_path / "field")
        back = PairwiseMomentField.from_csv_dir(tmp_path / "field")
        assert back.x_labels == field.x_labels and back.m == field.m
        for key, curve in field.pair_curves.items():
            got = back.pair_curves[key]
            assert got.norms == pytest.approx(curve.norms, rel=1e-15)
        for key, v in field.variances.items():
            assert back.variances[key] == pytest.approx(v, rel=1e-15)

    def test_roundtrip_monte_carlo_field(self, tmp_path):
        model = MartingaleFieldModel("wg", "iid_gaussian_field", grid_coords(3),
                                     {"kernel": {"name": "rbf"}}, horizon=4, seed=11)
        field = estimate_moment_curves(model, [("x0", "x1"), ("x1", "x2")], [2.0, 3.0],
                                       400, i_max=4)
        field.to_csv_dir(tmp_path / "field")
        back = PairwiseMomentField.from_csv_dir(tmp_path / "field")
        assert (back.x_labels, back.m, back.meta) == (field.x_labels, field.m, field.meta)
        for mine, theirs in ((field.point_curves, back.point_curves),
                             (field.pair_curves, back.pair_curves)):
            assert mine.keys() == theirs.keys()
            for key, curve in mine.items():
                assert theirs[key].norms == curve.norms
                assert theirs[key].stderr == curve.stderr
        assert back.variances == field.variances
