"""Monte Carlo engine: determinism, normalization, and the statistical checks."""
import hashlib
import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import gamma as gamma_fn

from uclt.distances import natural_function, sigma_squared
from uclt.errors import HorizonExceeded
from uclt.psi import _abs_power_sums, gaussian_lp_norm
from uclt.simulate import (
    KINDS,
    OSEKOWSKI_CONSTANT,
    MartingaleFieldModel,
    SimulationReport,
    clt_diagnostic,
    covariance_estimate,
    MD_FAMILY_LEVEL,
    _cholesky,
    _chunk_rng,
    _generate,
    _partial_sums,
    _run_chunks,
    equicontinuity_check,
    estimate_moment_curves,
    eta_increment_curves,
    grid_coords,
    holm_rejections,
    ks_gaussian,
    ks_two_sample,
    martingale_difference_check,
    osekowski_check,
    simulate_eta,
    tail_domination_check,
    weighted_tail_domination_check,
)


def white_gaussian(npts=3, horizon=64, seed=42):
    return MartingaleFieldModel("wg", "iid_gaussian_field", grid_coords(npts),
                                {"kernel": {"name": "white"}}, horizon=horizon, seed=seed)


def rademacher(npts=2, horizon=512, seed=7):
    return MartingaleFieldModel("rad", "bounded_sign", grid_coords(npts), {},
                                horizon=horizon, seed=seed)


ALL_KINDS = [
    white_gaussian(),
    MartingaleFieldModel("wb", "weibull_field", grid_coords(3),
                         {"K": 1.0, "q": 2.0}, horizon=64, seed=9),
    MartingaleFieldModel("gl", "garch_like", grid_coords(3),
                         {"kernel": {"name": "rbf", "length_scale": 0.5}},
                         horizon=64, seed=10),
    MartingaleFieldModel("bs", "bounded_sign", grid_coords(3),
                         {"modulation": 0.25, "amplitude_slope": 0.5},
                         horizon=64, seed=11),
]


class TestKsStatistics:
    def test_two_sample_against_scipy(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal(700)
        b = rng.standard_normal(900) + 0.2
        assert ks_two_sample(a, b) == pytest.approx(stats.ks_2samp(a, b).statistic, abs=1e-12)

    def test_one_sample_against_scipy(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(1500) * 1.7
        got = ks_gaussian(x, 1.7)
        ref = stats.kstest(x, lambda v: stats.norm.cdf(v, scale=1.7)).statistic
        assert got == pytest.approx(ref, abs=1e-12)


class TestEngine:
    def test_n_one_is_first_difference(self):
        m = white_gaussian()
        eta = simulate_eta(m, 1, 100)
        assert eta.shape == (100, 3)

    def test_unit_variance_normalization(self):
        m = white_gaussian()
        R = 40000
        eta = simulate_eta(m, 16, R)
        tol = 3 * math.sqrt(2.0 / R)
        assert np.all(np.abs(eta.var(axis=0) - 1.0) < tol)

    def test_sign_walk_fourth_moment(self):
        m = rademacher()
        R = 200000
        for n in (4, 16):
            e = simulate_eta(m, n, R)[:, 0]
            target = 3.0 - 2.0 / n
            se = (e ** 4).std() / math.sqrt(R)
            assert (e ** 4).mean() == pytest.approx(target, abs=3 * se)

    def test_horizon_guard(self):
        with pytest.raises(HorizonExceeded):
            simulate_eta(white_gaussian(horizon=8), 16, 10)

    def test_deterministic_across_threads_and_reruns(self):
        m = white_gaussian()
        a = simulate_eta(m, 16, 5000, threads=1)
        b = simulate_eta(m, 16, 5000, threads=4)
        c = simulate_eta(m, 16, 5000, threads=8)
        assert np.array_equal(a, b) and np.array_equal(a, c)
        assert np.array_equal(a, simulate_eta(m, 16, 5000))

    def test_seed_changes_output(self):
        a = simulate_eta(white_gaussian(seed=1), 8, 100)
        b = simulate_eta(white_gaussian(seed=2), 8, 100)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("model", ALL_KINDS, ids=lambda m: m.kind)
    def test_difference_property_all_kinds(self, model):
        rows = martingale_difference_check(model, [2, 16, 64], R=30000)
        assert all(r["ok"] for r in rows)

    def test_holm_rule_on_fixed_rows(self):
        def pval(z):
            return math.erfc(z / math.sqrt(2.0))

        # one row at 3.2 se among six: a single 3-se test would flag it
        calm = [3.2, 1.0, 0.5, 2.0, 0.1, 1.5]
        assert MD_FAMILY_LEVEL == pytest.approx(2 * (1 - stats.norm.cdf(3.0)), rel=1e-12)
        assert holm_rejections([pval(z) for z in calm], MD_FAMILY_LEVEL) == [False] * 6
        loud = [14.0, 1.0, 0.5, 2.0, 0.1, 1.5]
        assert holm_rejections([pval(z) for z in loud], MD_FAMILY_LEVEL) == \
            [True] + [False] * 5
        # step-down: once the smallest is rejected, the next is tested at
        # level / (m - 1); once one is kept, every larger one is kept
        assert holm_rejections([pval(14.0), pval(3.1)], MD_FAMILY_LEVEL) == [True, True]
        assert holm_rejections([pval(3.1), pval(14.0)], MD_FAMILY_LEVEL) == [True, True]
        assert holm_rejections([pval(2.9), pval(14.0)], MD_FAMILY_LEVEL) == [False, True]
        assert holm_rejections([pval(3.05), pval(3.08)], MD_FAMILY_LEVEL) == [False, False]

    def test_bias_detected(self):
        bad = MartingaleFieldModel("bad", "bounded_sign", grid_coords(2), {},
                                   horizon=16, seed=5, bias=0.1)
        rows = martingale_difference_check(bad, [2, 16], R=20000)
        assert not all(r["ok"] for r in rows)

    def test_growth_explodes_variance(self):
        m = MartingaleFieldModel("gr", "iid_gaussian_field", grid_coords(2),
                                 {"kernel": {"name": "white"}}, horizon=64, seed=6,
                                 growth=0.5)
        field = estimate_moment_curves(m, [], [2.0], 4000, i_max=64)
        assert math.isinf(sigma_squared(field, [1, 2, 4, 8, 16, 32, 64]))


class TestMomentEstimation:
    def test_gaussian_increment_norms(self):
        m = MartingaleFieldModel("br", "iid_gaussian_field", grid_coords(4, 0.2, 1.0),
                                 {"kernel": {"name": "brownian"}}, horizon=16, seed=3)
        labels = m.labels
        field = estimate_moment_curves(m, [(labels[0], labels[3])], [2, 3, 4], 30000, i_max=8)
        curve = field.pair_curve(3, labels[0], labels[3])
        sd = math.sqrt(0.8)  # increment variance = |x1 - x2| for this kernel
        for p in (2, 3, 4):
            expect = sd * gaussian_lp_norm(p)
            assert curve.value_at(p) == pytest.approx(expect, abs=4 * curve.stderr_at(p) + 1e-3)

    def test_same_point_pair_is_zero(self):
        m = white_gaussian()
        field = estimate_moment_curves(m, [("x0", "x1")], [2.0, 3.0], 2000, i_max=4)
        zero = field.pair_curve(2, "x0", "x0")
        assert all(v == 0 for v in zero.norms)

    def test_variance_matches_squared_l2(self):
        m = white_gaussian()
        field = estimate_moment_curves(m, [], [2.0, 4.0], 30000, i_max=4)
        for i in (1, 3):
            l2 = field.point_curve(i, "x0").value_at(2.0)
            se = field.point_curve(i, "x0").stderr_at(2.0)
            assert field.variance(i, "x0") == pytest.approx(l2 ** 2, abs=8 * se + 1e-3)

    def test_kernel_scaling_scales_norms_exactly(self):
        base = MartingaleFieldModel("a", "iid_gaussian_field", grid_coords(2),
                                    {"kernel": {"name": "white", "variance": 1.0}},
                                    horizon=8, seed=12)
        quad = MartingaleFieldModel("b", "iid_gaussian_field", grid_coords(2),
                                    {"kernel": {"name": "white", "variance": 4.0}},
                                    horizon=8, seed=12)
        f1 = estimate_moment_curves(base, [("x0", "x1")], [2, 4], 2000, i_max=4)
        f2 = estimate_moment_curves(quad, [("x0", "x1")], [2, 4], 2000, i_max=4)
        for p in (2, 4):
            assert f2.point_curve(1, "x0").value_at(p) == \
                pytest.approx(2 * f1.point_curve(1, "x0").value_at(p), rel=1e-10)

    def test_weibull_point_moments(self):
        K, q = 1.5, 2.0
        m = MartingaleFieldModel("wb", "weibull_field", grid_coords(2),
                                 {"K": K, "q": q}, horizon=8, seed=13)
        field = estimate_moment_curves(m, [], [2.0, 4.0], 60000, i_max=2)
        for p in (2.0, 4.0):
            expect = K * gamma_fn(1 + p / q) ** (1 / p)
            got = field.point_curve(1, "x0")
            assert got.value_at(p) == pytest.approx(expect, abs=5 * got.stderr_at(p) + 2e-3)


# -- a small moment field frozen at the commit before orders p >= 2 with 2p an
# integer were raised by multiplication: rbf field on 3 points, pairs
# (x0, x1) and (x1, x2), i = 1..2, R = 800 (16 chunk groups).  Layout (P, m, k).
FROZEN_P = (1.5, 2.0, 2.5, 3.0, 3.7, 4.0, 6.0, 8.0)
POINT_NORMS = [
    [[0.9122508780655512, 0.9529223671491849, 0.8976343036810306],
     [0.8693964944423236, 0.8597929967150932, 0.8973011016702728]],
    [[1.0155553409754798, 1.0515696446815817, 0.9872396114193212],
     [0.9565076649234179, 0.9450406741706718, 0.9949131702691361]],
    [[1.1106682648983472, 1.141354047263082, 1.0700704905916325],
     [1.0358474314207733, 1.0222645152029486, 1.0851512311273268]],
    [[1.1988545332560818, 1.2243029379078862, 1.1475753842169674],
     [1.1090077281793675, 1.0932062795753588, 1.1692593561551732]],
    [[1.3121293598331931, 1.331872712436514, 1.2486948488912368],
     [1.2029854056932159, 1.1840262924698877, 1.2781679585350858]],
    [[1.3573656098187392, 1.3756621074325892, 1.2896950961377094],
     [1.2406795851909038, 1.2203480082547955, 1.3220161017224683]],
    [[1.615903098834778, 1.6493590255620134, 1.532055941847517],
     [1.4609169123736123, 1.430503963215962, 1.578566794187271]],
    [[1.8160301115181525, 1.9199515843251085, 1.727879878006334],
     [1.6396239093777218, 1.5968941607833465, 1.7875040584819182]],
]
POINT_SE = [
    [[0.02509080342291476, 0.01699879290716367, 0.020993906935371533],
     [0.019313732393205395, 0.025627693269582336, 0.02881790962252594]],
    [[0.028385307787134436, 0.01903466924685276, 0.022389053616491093],
     [0.020635775440866234, 0.028380311724997814, 0.0315879133075872]],
    [[0.03152037482829917, 0.02163390013353931, 0.023831826213095802],
     [0.021873639656875908, 0.03128392533357741, 0.03414061484176554]],
    [[0.03444035537930081, 0.025053879776727205, 0.02561487298797563],
     [0.022951001737002444, 0.03413530580143519, 0.03651789181301768]],
    [[0.03815371164928816, 0.03172214652191981, 0.028868197565656617],
     [0.02432509894137462, 0.0378045300984616, 0.039708789180809966]],
    [[0.039620156891388925, 0.035396813550240006, 0.030505135313821707],
     [0.024934551161910998, 0.039223187063561114, 0.04108102653242448]],
    [[0.04805567804920093, 0.07576669499659235, 0.04284001803831642],
     [0.030618274721511993, 0.046120031741786575, 0.05160487013378655]],
    [[0.05610504371894317, 0.1448134082304937, 0.05356973969592439],
     [0.03850141756262539, 0.04919302932915236, 0.06568080081337656]],
]
PAIR_NORMS = [
    [[0.8067330327760089, 0.7902558581627677],
     [0.79914721184314, 0.8181358325122652]],
    [[0.8839950350642827, 0.87227951357257],
     [0.8820952862288731, 0.9001548666745833]],
    [[0.9537182478606692, 0.9477393628216202],
     [0.9573673864298229, 0.9736687459139102]],
    [[1.0176605473683455, 1.0181053863499976],
     [1.0267164281624925, 1.040556548518536]],
    [[1.0995654627881883, 1.1099504096916952],
     [1.1159308028517003, 1.1253506273023142]],
    [[1.1324191508736305, 1.147363851604787],
     [1.1518004941621385, 1.1590457102644365]],
    [[1.3266195303396735, 1.3750002312550507],
     [1.3631351155377232, 1.3536176699218814]],
    [[1.4927031766376047, 1.5738854978980292],
     [1.5384933921502153, 1.5122863296723565]],
]
PAIR_SE = [
    [[0.013215165386148713, 0.02399068093500414],
     [0.02249295611547823, 0.022117882367660813]],
    [[0.015069965190483595, 0.025790947882954864],
     [0.023399891886724457, 0.02300346239090163]],
    [[0.016797696594434756, 0.02781973306846893],
     [0.024569860696925554, 0.0238725027234033]],
    [[0.018404344305083184, 0.030134415855223768],
     [0.02598561577440382, 0.024617140490470136]],
    [[0.020687592178030366, 0.03389476417084173],
     [0.028392919925319258, 0.02559209522874196]],
    [[0.021771346821943954, 0.035697827037721064],
     [0.029580154387846936, 0.02606360843665652]],
    [[0.03284365423251802, 0.05056895461226238],
     [0.039663396965663025, 0.0318664739491982]],
    [[0.051609627510604925, 0.06841954073716107],
     [0.051833694807105805, 0.042648691366076186]],
]
VARIANCES = [
    [1.0292225201428737, 1.1040720795233723, 0.9751897271522136],
    [0.9114288874657875, 0.8890863418317966, 0.9895054531391599],
]


class TestFrozenMomentField:
    """Orders raised by `**` (1.5, 3.7) and p = 2 (z*z either way) are
    bit-identical to the frozen field; 2.5, 3, 4, 6 and 8 are products now.
    A product differs from `**` by a few ulp per term; the jackknife scales a
    relative change of a power sum by up to 2G - 1 = 31 (G = 16 groups) in a
    norm, and more in a standard error, which is a spread of nearly equal
    leave-one-out norms.  Bounds: 64 ulp for norms, 256 ulp for standard
    errors."""

    ULPS = {"norms": 64, "se": 256}

    def field(self):
        model = MartingaleFieldModel("wg", "iid_gaussian_field", grid_coords(3),
                                     {"kernel": {"name": "rbf"}}, horizon=4, seed=11)
        return estimate_moment_curves(model, [("x1", "x2"), ("x0", "x1")], FROZEN_P, 800,
                                      i_max=2)

    def test_matches_frozen_field(self):
        field = self.field()
        assert field.pairs == (("x0", "x1"), ("x1", "x2"))
        assert np.array_equal(field.point_var, np.array(VARIANCES))
        for got, frozen, kind in ((field.point_norms, POINT_NORMS, "norms"),
                                  (field.point_se, POINT_SE, "se"),
                                  (field.pair_norms, PAIR_NORMS, "norms"),
                                  (field.pair_se, PAIR_SE, "se")):
            frozen = np.array(frozen)
            assert got.shape == frozen.shape
            for k, p in enumerate(FROZEN_P):
                if p in (1.5, 2.0, 3.7):
                    assert np.array_equal(got[k], frozen[k]), (kind, p)
                else:
                    ulps = np.abs(got[k] - frozen[k]) / np.spacing(frozen[k])
                    assert ulps.max() <= self.ULPS[kind], (kind, p, ulps.max())

    def test_products_follow_the_documented_formula(self):
        z = np.random.default_rng(3).standard_normal((200, 3, 4)) * 3.0
        grid = (1.5, 2.0, 2.5, 3.0, 3.5, 3.7, 4.0, 4.5, 6.0, 8.0)
        sums = _abs_power_sums(z.copy(), grid)
        a = np.abs(z)
        for k, p in enumerate(grid):
            if p in (1.5, 3.7):
                v = a ** p
            else:
                v = a * a
                if 2 * p % 2:
                    v = v * np.sqrt(a)
                if int(p) % 2:
                    v = v * a
                for _ in range(int(p) // 2 - 1):
                    v = v * (a * a)
            assert np.array_equal(sums[k], v.sum(axis=0)), p


class TestOsekowski:
    def test_p2_orthogonality_ratio(self):
        for model in (white_gaussian(horizon=512), rademacher()):
            rows = osekowski_check(model, [2.0], [8, 64], 30000)
            for r in rows:
                assert abs(r["ratio"] - math.log(2) / 2) <= 3 * r["se"] + 1e-4

    def test_n_one_exact_cancellation(self):
        rows = osekowski_check(white_gaussian(), [2.0, 3.0, 4.0], [1], 500)
        for r in rows:
            assert r["ratio"] == pytest.approx(math.log(r["p"]) / r["p"], rel=1e-12)
            assert r["ratio"] <= 1 / math.e + 1e-12

    def test_garch_within_bound(self):
        m = MartingaleFieldModel("gl", "garch_like", grid_coords(2),
                                 {"kernel": {"name": "white"}}, horizon=256, seed=4)
        rows = osekowski_check(m, [3.0, 4.0, 6.0], [16, 256], 20000)
        for r in rows:
            assert r["within_bound"]
            assert r["ratio"] <= OSEKOWSKI_CONSTANT - 3 * r["se"]

    def test_pairs_mode(self):
        m = white_gaussian()
        rows = osekowski_check(m, [2.0], [8], 4000, mode="pairs", pair=("x0", "x2"))
        assert abs(rows[0]["ratio"] - math.log(2) / 2) <= 4 * rows[0]["se"] + 1e-3

    def test_rejects_p_below_two(self):
        with pytest.raises(ValueError):
            osekowski_check(white_gaussian(), [1.5], [8], 100)


class TestEquicontinuity:
    def test_identical_points_both_sides_zero(self):
        m = white_gaussian()
        rows = equicontinuity_check(m, [("x0", "x0")], [2, 3, 4], [1, 4], 2000)
        assert rows[0]["lhs"] == 0.0 and rows[0]["dbar"] == 0.0 and rows[0]["ok"]

    def test_brownian_scale_invariance(self):
        m = MartingaleFieldModel("br", "iid_gaussian_field", grid_coords(5, 0.2, 1.0),
                                 {"kernel": {"name": "brownian"}}, horizon=16, seed=3)
        rows = equicontinuity_check(m, [("x0", "x4"), ("x1", "x2")], [2, 3, 4, 6],
                                    [1, 2, 4, 8, 16], 20000)
        assert all(r["ok"] for r in rows)
        ratios = [r["ratio"] for r in rows]
        assert ratios[0] == pytest.approx(ratios[1], rel=0.15)

    def test_garch_domination(self):
        m = MartingaleFieldModel("gl", "garch_like", grid_coords(3),
                                 {"kernel": {"name": "rbf", "length_scale": 0.4}},
                                 horizon=64, seed=21)
        rows = equicontinuity_check(m, [("x0", "x2"), ("x0", "x1")], [2, 3, 4, 6],
                                    [1, 4, 16, 64], 20000)
        assert all(r["ok"] for r in rows)


class TestCovariance:
    def test_kernel_recovery(self):
        m = MartingaleFieldModel("rbf", "iid_gaussian_field", grid_coords(4),
                                 {"kernel": {"name": "rbf", "length_scale": 0.5}},
                                 horizon=32, seed=3)
        cov, se, ana = covariance_estimate(m, 8, 40000)
        assert ana is not None
        assert np.all(np.abs(cov - ana) <= 3.5 * se)

    def test_diagonal_consistent_with_variance_functional(self):
        m = white_gaussian()
        cov, _, _ = covariance_estimate(m, 8, 30000)
        field = estimate_moment_curves(m, [], [2.0], 30000, i_max=8)
        s2 = sigma_squared(field, [1, 2, 4, 8])
        assert min(np.diag(cov)) == pytest.approx(s2, rel=0.05)

    def test_shared_sign_structure(self):
        m = rademacher(npts=3)
        cov, se, ana = covariance_estimate(m, 16, 20000)
        assert ana is not None and np.allclose(ana, 1.0)
        assert np.all(np.abs(cov - ana) <= 4 * se + 1e-9)

    def test_independent_sign_structure(self):
        m = MartingaleFieldModel("ind", "bounded_sign", grid_coords(3),
                                 {"cross": "independent"}, horizon=32, seed=8)
        cov, se, ana = covariance_estimate(m, 16, 20000)
        assert np.allclose(ana, np.eye(3))
        assert np.all(np.abs(cov - ana) <= 4 * se + 1e-9)

    def test_estimated_field_variance_consistency(self):
        m = white_gaussian()
        field = estimate_moment_curves(m, [], [2.0, 4.0], 20000, i_max=4)
        assert field.variance_consistency() == []


class TestCltDiagnostic:
    def test_identical_distributions_small_ks(self):
        m = white_gaussian(npts=4, horizon=64)
        d = clt_diagnostic(m, (63, 64), 1500)
        assert d["ks_supnorm"] <= 1.4 * d["ks_critical_5pct"]

    def test_gaussian_marginals_exact(self):
        m = MartingaleFieldModel("g", "iid_gaussian_field", grid_coords(5),
                                 {"kernel": {"name": "rbf"}}, horizon=128, seed=8)
        d = clt_diagnostic(m, (16, 128), 1500)
        worst = max(max(v.values()) for v in d["per_point_ks"].values())
        assert worst <= 0.05

    def test_validates_order(self):
        with pytest.raises(ValueError):
            clt_diagnostic(white_gaussian(), (8, 8), 100)


class TestTailDomination:
    @pytest.mark.parametrize("model", ALL_KINDS, ids=lambda m: m.kind)
    def test_all_kinds_dominated(self, model):
        rows = tail_domination_check(model, None, [1.5, 2.0, 3.0], [16, 64], 20000)
        assert all(r["ok"] for r in rows)

    def test_weighted_form(self):
        rng = np.random.default_rng(0)
        rows = weighted_tail_domination_check(rademacher(), None, [1.5, 2.0, 3.0],
                                              rng.standard_normal(64), 50000)
        assert all(r["ok"] for r in rows)


class TestConfigAndReports:
    def test_unknown_kernel_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown kernel 'matern'"):
            MartingaleFieldModel("m", "garch_like", grid_coords(3),
                                 {"kernel": {"name": "matern"}}, horizon=8, seed=1)

    def test_threads_env_fallback(self, monkeypatch):
        from uclt.simulate import resolve_threads
        monkeypatch.delenv("UCLT_THREADS", raising=False)
        assert resolve_threads(None) == 1
        monkeypatch.setenv("UCLT_THREADS", "6")
        assert resolve_threads(None) == 6
        assert resolve_threads(2) == 2  # explicit flag wins
        m = white_gaussian()
        a = simulate_eta(m, 8, 2000)
        monkeypatch.setenv("UCLT_THREADS", "4")
        b = simulate_eta(m, 8, 2000)
        assert (a == b).all()

    def test_report_json_deterministic(self):
        rows = osekowski_check(white_gaussian(), [2.0], [8], 2000, threads=1)
        rows4 = osekowski_check(white_gaussian(), [2.0], [8], 2000, threads=4)
        a = SimulationReport("wg", 42, 2000, "osekowski", rows).to_json()
        b = SimulationReport("wg", 42, 2000, "osekowski", rows4).to_json()
        assert a == b


class TestKindsTable:
    @pytest.mark.parametrize("model", ALL_KINDS, ids=lambda m: m.kind)
    def test_parameters_resolve_over_the_defaults(self, model):
        assert set(model.p) == set(KINDS[model.kind])
        for key, default in KINDS[model.kind].items():
            want = model.params.get(key, default)
            assert model.p[key] == want
            if key not in ("kernel", "cross", "cap"):
                assert type(model.p[key]) is float

    def test_integer_parameters_become_floats(self):
        m = MartingaleFieldModel("w", "weibull_field", grid_coords(2), {"K": 2, "q": 1, "cap": 5},
                                 horizon=4, seed=1)
        assert [type(m.p[k]) for k in ("K", "q", "cap")] == [float] * 3
        assert m.to_dict()["params"] == {"K": 2, "q": 1, "cap": 5}  # written as given

    @pytest.mark.parametrize("kind,params,match", [
        ("weibull_field", {"K": 1.0, "q": 2.0, "kernel": {"name": "white"}},
         "kernel is not a parameter of weibull_field"),
        ("iid_gaussian_field", {"cap": 1.0}, "cap is not a parameter of iid_gaussian_field"),
        ("weibull_field", {"q": 2.0}, "K is required for weibull_field"),
        ("weibull_field", {"K": 1.0, "q": 0.0}, "q must be > 0"),
        ("weibull_field", {"K": 1.0, "q": 2.0, "cap": 0}, "cap must be > 0"),
        ("weibull_field", {"K": 1.0, "q": 2.0, "cap": float("nan")}, "cap must be a finite"),
        ("bounded_sign", {"base": -1.0}, "base must be > 0"),
        ("bounded_sign", {"amplitude_slope": -1.0}, "amplitude_slope = -1.0 makes"),
        ("garch_like", {"vol_lo": 0.0}, "vol_lo and vol_hi need"),
        ("garch_like", {"memory": True}, "memory must be a finite number"),
    ])
    def test_rejected_at_construction(self, kind, params, match):
        with pytest.raises(ValueError, match=match):
            MartingaleFieldModel("m", kind, grid_coords(3), params, horizon=8, seed=1)

    def test_null_cap_is_no_cap(self):
        m = MartingaleFieldModel("w", "weibull_field", grid_coords(2),
                                 {"K": 1.0, "q": 2.0, "cap": None}, horizon=4, seed=1)
        assert m.p["cap"] is None and m.analytic_covariance() is not None

    def test_negative_modulation_tail_dominates(self):
        # the amplitude factor 1 + m tanh(.) reaches 1 + |m| when m < 0
        m = MartingaleFieldModel("b", "bounded_sign", grid_coords(2), {"modulation": -0.5},
                                 horizon=64, seed=3)
        cutoff = m.dominating_tail().x_grid[-1]
        assert cutoff == 1.5
        top = float(np.abs(_generate(m, 64, _chunk_rng(m.seed, 0), 200)).max())
        assert 1.0 < top <= cutoff


def garch_reference(model, n, rng, count, cols):
    """garch_like paths from normals eps = z @ chol(K[cols, cols]).T, the
    volatility recursion written out step by step."""
    chol = _cholesky(model._kernel[np.ix_(cols, cols)])
    paths = np.empty((count, n, len(cols)))
    state = np.zeros((count, len(cols)))
    for i in range(n):
        eps = rng.standard_normal((count, len(cols))) @ chol.T
        paths[:, i, :] = np.clip(1.0 + 0.45 * np.tanh(state), 0.5, 2.0) * eps
        state = 0.7 * state + (1.0 - 0.7) * eps
    return paths


PROJECTION_KINDS = ALL_KINDS + [
    MartingaleFieldModel("bi", "bounded_sign", grid_coords(3), {"cross": "independent"},
                         horizon=64, seed=12),
    MartingaleFieldModel("gb", "iid_gaussian_field", grid_coords(3),
                         {"kernel": {"name": "fractional_brownian", "hurst": 0.3}},
                         horizon=64, seed=13, bias=0.2, growth=0.5),
    # amplitudes 1, 1.5 and 2 across the grid
    MartingaleFieldModel("ws", "weibull_field", grid_coords(3),
                         {"K": 1.0, "q": 1.5, "cap": 4.0, "amplitude_slope": 1.0},
                         horizon=64, seed=14),
]


class TestColumnProjection:
    N, COUNT = 16, 40

    def chunk(self, model, cols=None, chunk_index=3):
        return _generate(model, self.N, _chunk_rng(model.seed, chunk_index), self.COUNT, cols)

    @pytest.mark.parametrize("model", PROJECTION_KINDS, ids=lambda m: m.name)
    def test_all_columns_equal_full_width(self, model):
        full = self.chunk(model)
        assert full.shape == (self.COUNT, self.N, model.npoints)
        assert np.array_equal(self.chunk(model, tuple(range(model.npoints))), full)

    @pytest.mark.parametrize("model", [PROJECTION_KINDS[6], ALL_KINDS[3]], ids=lambda m: m.kind)
    def test_same_draws_kinds_project_bit_for_bit(self, model):
        full = self.chunk(model)
        for cols in ((0,), (2,), (0, 2), (1, 2)):
            assert np.array_equal(self.chunk(model, cols), full[:, :, list(cols)])

    def test_gaussian_projection_uses_restricted_factor(self):
        model = PROJECTION_KINDS[5]
        for cols in ((1,), (0, 2)):
            rng = _chunk_rng(model.seed, 3)
            z = rng.standard_normal((self.COUNT, self.N, len(cols)))
            want = z @ _cholesky(model._kernel[np.ix_(cols, cols)]).T
            want = want * (np.arange(1, self.N + 1) ** 0.5)[None, :, None] + 0.2
            assert np.array_equal(self.chunk(model, cols), want)

    def test_garch_projection_uses_restricted_factor(self):
        model = ALL_KINDS[2]
        for cols in ((1,), (0, 2), (0, 1, 2)):
            want = garch_reference(model, self.N, _chunk_rng(model.seed, 3), self.COUNT, cols)
            assert np.array_equal(self.chunk(model, cols), want)

    @pytest.mark.parametrize("model", [ALL_KINDS[2], PROJECTION_KINDS[4]],
                             ids=lambda m: m.name)
    def test_projected_reducers_thread_invariant(self, model):
        def run(threads):
            pairs = [("x0", "x2"), ("x1", "x2")]
            curves = eta_increment_curves(model, pairs, [2.0, 4.0], [4, 16], 600,
                                          threads=threads)
            return repr((
                osekowski_check(model, [2.0, 4.0], [4, 16], 600, x_index=1, threads=threads),
                osekowski_check(model, [3.0], [16], 600, mode="pairs", pair=("x2", "x0"),
                                threads=threads),
                tail_domination_check(model, None, [1.5], [8, 16], 600, x_index=2,
                                      threads=threads),
                weighted_tail_domination_check(model, None, [1.5], np.ones(16), 600,
                                               x_index=1, threads=threads),
                martingale_difference_check(model, [2, 16], x_index=2, R=600,
                                            threads=threads),
                {pr: {n: c.norms for n, c in by_n.items()} for pr, by_n in curves.items()},
            ))

        assert run(1) == run(4)

    def test_projected_reducers_read_their_column(self, monkeypatch):
        # weibull_field draws the same variates at any width, so a reducer on
        # column 2 alone must match the full-width draws' column 2; a small
        # chunk budget makes the chunk spans depend on the width they are
        # sized for, which must be the full grid's
        monkeypatch.setattr("uclt.simulate._CHUNK_BUDGET", 1 << 9)
        model, R = PROJECTION_KINDS[6], 900
        eta = simulate_eta(model, 16, R)[:, 2]
        rows = tail_domination_check(model, None, [1.5, 3.0], [16], R, x_index=2)
        assert [r["empirical"] for r in rows] == \
            [max(float((eta > x).mean()), float((eta < -x).mean())) for x in (1.5, 3.0)]
        chunks = []
        _run_chunks(model, 16, R, lambda ci, start, paths: chunks.append(paths[:, :, 2]))
        out = np.concatenate([c @ (np.ones(16) / 4.0) for c in chunks])
        rows = weighted_tail_domination_check(model, None, [1.5], np.ones(16), R, x_index=2)
        assert rows[0]["empirical"] == max(float((out > 1.5).mean()), float((out < -1.5).mean()))
        rows = martingale_difference_check(model, [2, 16], x_index=2, R=R)
        xs = np.concatenate(chunks)
        assert (rows[0]["index"], rows[0]["regressor"]) == (2, "const")
        assert rows[0]["mean"] == pytest.approx(float(xs[:, 1].mean()), rel=1e-12, abs=1e-15)

    # sha256 of simulate_eta(model, 16, 500) rounded to 10 decimals (BLAS
    # kernels may differ in the last bit between CPUs), frozen before the
    # engine learned to project
    FULL_WIDTH_DIGESTS = {
        "iid_gaussian_field": "0be253760c41d6fc",
        "weibull_field": "5990573ebb7c4f97",
        "garch_like": "b7d7e4d22bf5e67f",
        "bounded_sign": "5228d80216767cfc",
    }

    @pytest.mark.parametrize("model", ALL_KINDS, ids=lambda m: m.kind)
    def test_full_width_stream_unchanged(self, model):
        eta = simulate_eta(model, 16, 500)
        digest = hashlib.sha256(np.round(eta, 10).tobytes()).hexdigest()[:16]
        assert digest == self.FULL_WIDTH_DIGESTS[model.kind]


def sign_reference(model, n, rng, count, cols):
    """Modulated bounded_sign paths from signs drawn as (count, n, 1) when
    shared or (count, n, len(cols)) when independent, the amplitude
    recursion written out step by step."""
    p = model.p
    a0 = p["base"] * (1.0 + p["amplitude_slope"] * model._coord_array[list(cols), 0])
    width = 1 if p["cross"] == "shared" else len(cols)
    signs = np.broadcast_to(rng.integers(0, 2, (count, n, width)) * 2.0 - 1.0,
                            (count, n, len(cols)))
    paths = np.empty((count, n, len(cols)))
    running = np.zeros((count, len(cols)))
    for i in range(n):
        ampl = a0[None, :] * (1.0 + p["modulation"] * np.tanh(running / math.sqrt(max(i, 1))))
        paths[:, i, :] = signs[:, i, :] * ampl
        running += paths[:, i, :]
    return paths


STEP_LOOP_KINDS = [
    MartingaleFieldModel("gg", "garch_like", grid_coords(4),
                         {"kernel": {"name": "rbf", "length_scale": 0.5}},
                         horizon=64, seed=21, bias=0.3, growth=0.25),
    MartingaleFieldModel("sg", "bounded_sign", grid_coords(4),
                         {"modulation": 0.4, "amplitude_slope": 0.5, "base": 1.5},
                         horizon=64, seed=22, bias=-0.2, growth=0.25),
    MartingaleFieldModel("ig", "bounded_sign", grid_coords(4),
                         {"modulation": -0.3, "cross": "independent"},
                         horizon=64, seed=23, bias=0.1, growth=0.5),
]


class TestStepLoops:
    """garch_like and modulated bounded_sign draw a chunk's variates in one
    call and loop over steps for their recurrence only; the paths must be
    those of the step-by-step references, bit for bit."""

    N, COUNT = 24, 37

    @pytest.mark.parametrize("model", STEP_LOOP_KINDS, ids=lambda m: m.name)
    @pytest.mark.parametrize("cols", [(0,), (1, 3), (0, 1, 2, 3)], ids=str)
    def test_chunk_matches_step_reference(self, model, cols):
        reference = garch_reference if model.kind == "garch_like" else sign_reference
        want = reference(model, self.N, _chunk_rng(model.seed, 5), self.COUNT, cols)
        want = want * (np.arange(1, self.N + 1) ** model.growth)[None, :, None] + model.bias
        got = _generate(model, self.N, _chunk_rng(model.seed, 5), self.COUNT, cols)
        assert got.flags.c_contiguous
        assert np.array_equal(got, want)

    def test_full_width_is_the_default(self):
        model = STEP_LOOP_KINDS[1]
        got = _generate(model, self.N, _chunk_rng(model.seed, 2), self.COUNT)
        want = _generate(model, self.N, _chunk_rng(model.seed, 2), self.COUNT, (0, 1, 2, 3))
        assert np.array_equal(got, want)


# amplitudes 1, 1.25 and 1.5 times base 2
SHARED_SIGNS = MartingaleFieldModel("ss", "bounded_sign", grid_coords(3),
                                    {"base": 2.0, "amplitude_slope": 0.5},
                                    horizon=64, seed=31)
INDEPENDENT_SIGNS = MartingaleFieldModel("is", "bounded_sign", grid_coords(3),
                                         {"base": 2.0, "amplitude_slope": 0.5,
                                          "cross": "independent"}, horizon=64, seed=32)


class TestPartialSums:
    """`_partial_sums` reads eta_n at several n from one engine pass; the
    Gaussian and unmodulated-sign kinds draw it from its exact law."""

    NS, R = [5, 12, 40], 20000

    def test_gaussian_increments_follow_their_law(self):
        # fractional Brownian kernel, growth 0.5 and bias 0.2: S_n has mean
        # 0.2 n and covariance sum_{i<=n} i K = n (n + 1) / 2 K, and the
        # increment to the next n is independent of S_n
        model = PROJECTION_KINDS[5]
        cols = (1, 2)
        kmat = model._kernel[np.ix_(cols, cols)]
        etas = _partial_sums(model, self.NS, self.R, cols=cols)
        assert etas.shape == (len(self.NS), self.R, 2)
        total = lambda n: n * (n + 1) / 2.0  # noqa: E731
        for n, eta in zip(self.NS, etas):
            mean = 0.2 * math.sqrt(n)
            cov = kmat * total(n) / n
            sd = np.sqrt(np.diag(cov))
            assert np.all(np.abs(eta.mean(axis=0) - mean) <= 4.0 * sd / math.sqrt(self.R))
            got = np.cov(eta.T)
            se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov ** 2) / self.R)
            assert np.all(np.abs(got - cov) <= 4.0 * se)
            for j in range(2):
                z = (eta[:, j] - mean) / sd[j]
                assert stats.kstest(z, "norm").pvalue > 1e-3
        # cov(S_5, S_40) = var(S_5): a fresh sum at each n would give 0
        s5, s40 = etas[0, :, 1] * math.sqrt(5), etas[2, :, 1] * math.sqrt(40)
        want = kmat[1, 1] * total(5)
        got = np.cov(s5, s40)[0, 1]
        assert abs(got - want) <= 4.0 * math.sqrt(want * kmat[1, 1] * total(40) / self.R)

    @pytest.mark.parametrize("model", [SHARED_SIGNS, INDEPENDENT_SIGNS], ids=lambda m: m.name)
    def test_unmodulated_signs_lie_on_the_binomial_lattice(self, model):
        cols = (0, 2)
        a0 = 2.0 * np.array([1.0, 1.5])
        etas = _partial_sums(model, self.NS, self.R, cols=cols)
        heads_prev, n_prev = 0, 0
        for n, eta in zip(self.NS, etas):
            heads = (eta * math.sqrt(n) / a0 + n) / 2.0
            assert np.all(np.abs(heads - np.round(heads)) < 1e-9)
            heads = np.round(heads).astype(int)
            assert heads.min() >= 0 and heads.max() <= n
            step = heads - heads_prev      # the heads among steps n_prev + 1 .. n
            assert step.min() >= 0 and step.max() <= n - n_prev
            if model.p["cross"] == "shared":
                assert np.array_equal(heads[:, 0], heads[:, 1])
            else:
                assert not np.array_equal(heads[:, 0], heads[:, 1])
                assert abs(np.corrcoef(heads.T)[0, 1]) <= 4.0 / math.sqrt(self.R)
            pmf = stats.binom.pmf(np.arange(n + 1), n, 0.5)
            for j in range(2):
                counts = np.bincount(heads[:, j], minlength=n + 1)
                assert np.all(np.abs(counts - self.R * pmf)
                              <= 5.0 * np.sqrt(self.R * pmf * (1.0 - pmf)) + 1.0)
            heads_prev, n_prev = heads, n

    @pytest.mark.parametrize("model", [ALL_KINDS[1], ALL_KINDS[2], ALL_KINDS[3],
                                       PROJECTION_KINDS[6]], ids=lambda m: m.name)
    def test_path_kinds_read_every_n_from_one_pass(self, model):
        chunks = []
        _run_chunks(model, 40, 900, lambda ci, start, paths: chunks.append(paths[:, :, 0]),
                    cols=(1,))
        paths = np.concatenate(chunks)
        etas = _partial_sums(model, self.NS, 900, cols=(1,))[:, :, 0]
        blocks = [paths[:, lo:n].sum(axis=1) for lo, n in zip([0] + self.NS, self.NS)]
        for n, eta, total in zip(self.NS, etas, np.cumsum(blocks, axis=0)):
            assert np.array_equal(eta, total * (1.0 / math.sqrt(n)))
            assert np.allclose(eta, paths[:, :n].sum(axis=1) / math.sqrt(n), rtol=1e-12, atol=1e-12)

    def test_closed_law_only_where_the_law_is_closed(self):
        # growth breaks the sign walk's binomial law: paths are drawn
        model = MartingaleFieldModel("sgr", "bounded_sign", grid_coords(2), {},
                                     horizon=64, seed=33, growth=0.5)
        chunks = []
        _run_chunks(model, 40, 300, lambda ci, start, paths: chunks.append(paths[:, :, 0]),
                    cols=(0,))
        got = _partial_sums(model, [40], 300, cols=(0,))[0, :, 0]
        assert np.array_equal(got, np.concatenate(chunks).sum(axis=1) * (1.0 / math.sqrt(40)))

    def test_horizon_guard(self):
        with pytest.raises(HorizonExceeded):
            _partial_sums(SHARED_SIGNS, [16, 65], 10)


TAIL_KINDS = PROJECTION_KINDS + [SHARED_SIGNS, INDEPENDENT_SIGNS,
                                 MartingaleFieldModel("sb", "bounded_sign", grid_coords(2), {},
                                                      horizon=64, seed=34, bias=0.05)]


@pytest.mark.parametrize("model", TAIL_KINDS, ids=lambda m: m.name)
def test_tail_domination_thread_invariant(model):
    def run(threads):
        return repr(tail_domination_check(model, None, [1.5, 2.5], [4, 16, 64], 3000,
                                          x_index=1, threads=threads))

    assert run(1) == run(4)
