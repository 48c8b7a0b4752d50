"""Monte Carlo engine: determinism, normalization, and the statistical checks."""
import copy
import hashlib
import math
import threading

import numpy as np
import pytest
from scipy import stats
from scipy.special import gamma as gamma_fn

from uclt.distances import natural_function, sigma_squared
from uclt.errors import HorizonExceeded
from uclt.psi import _SCRATCH, _abs_power_sums, _jackknife, gaussian_lp_norm
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
    _signs,
    _sums_reader,
    equicontinuity_check,
    estimate_moment_curves,
    eta_increment_curves,
    grid_coords,
    holm_marked,
    holm_rejections,
    ks_gaussian,
    ks_two_sample,
    martingale_difference_check,
    martingale_difference_reader,
    osekowski_check,
    osekowski_reader,
    resolve_threads,
    run_readers,
    simulate_eta,
    tail_domination_check,
    tail_domination_reader,
    weighted_tail_domination_check,
)
from uclt.tails import w_operator


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


# -- a small moment field with every order raised by `**`, as before orders
# p >= 2 with 2p an integer were raised by multiplication (on the SFC64
# substreams, by tests/refreeze_stream_pins.py): rbf field on 3 points, pairs
# (x0, x1) and (x1, x2), i = 1..2, R = 800 (16 chunk groups).  Layout (P, m, k).
FROZEN_P = (1.5, 2.0, 2.5, 3.0, 3.7, 4.0, 6.0, 8.0)
POINT_NORMS = [
    [[0.8858603485846253, 0.894455801456493, 0.9170875632049995],
     [0.9136740141498816, 0.8850021751267949, 0.8975583533632872]],
    [[0.9791474053448272, 0.9889627557325174, 1.0195419260581247],
     [1.0094055452739212, 0.9730631538810481, 0.9904975360601806]],
    [[1.064976589203111, 1.074338027002959, 1.1143338014679962],
     [1.0960117468876867, 1.054714809693012, 1.074877199660726]],
    [[1.1451764131947364, 1.1524365096436178, 1.202934723452838],
     [1.1749229581043679, 1.1318867424329326, 1.1520384305839997]],
    [[1.2501698167839805, 1.2521319494594927, 1.318622896197187],
     [1.274296407186636, 1.2345342410117546, 1.2499768120521324]],
    [[1.2930267502435342, 1.2920311396509874, 1.3657354774161234],
     [1.3133726466075437, 1.2769836985573306, 1.2888544791899257]],
    [[1.5539374070046676, 1.5267566469860192, 1.653429998777316],
     [1.5308260800670332, 1.5399220286911124, 1.5108906816567327]],
    [[1.7814590915568687, 1.7233174752132712, 1.9119665506585193],
     [1.693377816544622, 1.7666214789239305, 1.6841074135457887]],
]
POINT_SE = [
    [[0.020087880853607226, 0.027605533846942268, 0.025342697717529703],
     [0.020111966283282455, 0.030219377098909463, 0.02356004628035365]],
    [[0.023330316125141456, 0.030048154840539132, 0.031077008661680363],
     [0.021478731705517715, 0.03294638554710216, 0.02575699805376867]],
    [[0.02677162892569087, 0.03312068321634168, 0.03703985712764001],
     [0.022966289403664773, 0.03592767958430047, 0.027879451656636557]],
    [[0.03045485196696889, 0.036636880718490375, 0.04317722691747538],
     [0.024413757922946266, 0.03915210224381336, 0.029983064711389486]],
    [[0.036136935908505016, 0.042064061151432, 0.05221090821222813],
     [0.026322715257522642, 0.044149054216992535, 0.032868745508250995]],
    [[0.038796508535178464, 0.044520579733369606, 0.056310233731871155],
     [0.027101904618880773, 0.046479931994941485, 0.03405550618353622]],
    [[0.06051806257411179, 0.06189686657245234, 0.08901431656675464],
     [0.03171625192385559, 0.06399500188935348, 0.0405642431347642]],
    [[0.08784761088158394, 0.07866523952805193, 0.1314787184337708],
     [0.03517053260479041, 0.08025411204357874, 0.04496269889425009]],
]
PAIR_NORMS = [
    [[0.7583421659629455, 0.7893017581475466],
     [0.8070330229873974, 0.8009800492828383]],
    [[0.8364062630138154, 0.8703781667261872],
     [0.9003164162920463, 0.8790670578152397]],
    [[0.9072203629747531, 0.9443015882525341],
     [0.986508909257866, 0.949361605630795]],
    [[0.9723482082455472, 1.012311416385982],
     [1.0667331603824977, 1.0139043330637278]],
    [[1.0560072398446128, 1.099321923208521],
     [1.1703336428179512, 1.0971574739401397]],
    [[1.0896298784407605, 1.1341292023805067],
     [1.211917583059119, 1.130858972073348]],
    [[1.2873907220229128, 1.3388147978415361],
     [1.4528343591175918, 1.3349225605843387]],
    [[1.4482927286873384, 1.5153697679899167],
     [1.6450938079300634, 1.513022317586806]],
]
PAIR_SE = [
    [[0.021661144285123963, 0.022256186417502967],
     [0.031006996228087, 0.018341928603680932]],
    [[0.022058402345477165, 0.0245615436492696],
     [0.03250101319629514, 0.01863658354754219]],
    [[0.022823381265361264, 0.027021312176167187],
     [0.0340866221397072, 0.019522137439058028]],
    [[0.02402423694358758, 0.0296690146560558],
     [0.03569523025195437, 0.02116949093185163]],
    [[0.026381781090288273, 0.0338156374715043],
     [0.03795046489368328, 0.02493932494806215]],
    [[0.027579699151808374, 0.03579168731506121],
     [0.03894342474753717, 0.027071825892961192]],
    [[0.036354809609405445, 0.05316394345043675],
     [0.047451527987395756, 0.04677091746362195]],
    [[0.04335744403426871, 0.07943393738715208],
     [0.06094789250106311, 0.06845723009043629]],
]
VARIANCES = [
    [0.9593842853360011, 0.9783356248879425, 1.0394549901066377],
    [1.0183097375101051, 0.9456926700843036, 0.9802002962716698],
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
        assert np.array_equal(_abs_power_sums(z, grid), whole_chunk_power_sums(z, grid))


def whole_chunk_power_sums(z, grid, starts=None):
    """The documented products (`**` off the ladder) summed by one plain
    ``sum(axis=0)`` (``reduceat`` with `starts`) over the whole array: the
    reference for the slabs."""
    a = np.abs(z)
    sums = []
    for p in grid:
        if p < 2 or 2 * p % 1:
            v = a ** p
        else:
            v = a * a
            if 2 * p % 2:
                v = v * np.sqrt(a)
            if int(p) % 2:
                v = v * a
            for _ in range(int(p) // 2 - 1):
                v = v * (a * a)
        sums.append(v.sum(axis=0) if starts is None else np.add.reduceat(v, starts, axis=0))
    return np.stack(sums)


SLAB_GRID = (1.5, 2.0, 2.5, 3.0, 3.7, 4.0, 6.0, 8.0)


class TestSlabReducer:
    """`_abs_power_sums` reduces rows in slabs; its sums must equal the whole
    array's, bit for bit, wherever the slab boundaries fall."""

    @pytest.mark.parametrize("shape,order,budget", [
        ((37, 3, 4), "C", 5 * 12),     # 37 rows in slabs of 5
        ((37, 3, 4), "C", 1),          # one row per slab
        ((8192, 1), "C", None),        # one-value rows of the largest chunk: one slab
        ((37, 3), "F", 5 * 3),         # column-major, as osekowski's partial sums
    ], ids=["ragged-slabs", "row-slabs", "one-value-row", "column-major"])
    def test_slabs_equal_whole_chunk_sum(self, monkeypatch, shape, order, budget):
        if budget is not None:
            monkeypatch.setattr("uclt.psi._SLAB_BUDGET", budget)
        z = np.asarray(np.random.default_rng(4).standard_normal(shape) * 3.0, order=order)
        assert np.array_equal(_abs_power_sums(z, SLAB_GRID), whole_chunk_power_sums(z, SLAB_GRID))

    def test_pair_differences_equal_whole_chunk_sum(self, monkeypatch):
        monkeypatch.setattr("uclt.psi._SLAB_BUDGET", 7 * 3 * 5)
        z = np.random.default_rng(5).standard_normal((40, 3, 12))
        first, second = np.array([0, 1, 1, 10, 11]), np.array([10, 2, 10, 2, 0])
        assert np.array_equal(_abs_power_sums(z, SLAB_GRID, pairs=(first, second)),
                              whole_chunk_power_sums(z[..., first] - z[..., second], SLAB_GRID))

    def test_groups_take_one_slab(self, monkeypatch):
        monkeypatch.setattr("uclt.psi._SLAB_BUDGET", 5)
        x = np.random.default_rng(7).standard_normal(37) * 3.0
        starts = [0, 10, 20, 30]
        assert np.array_equal(_abs_power_sums(x, SLAB_GRID, starts=starts),
                              whole_chunk_power_sums(x, SLAB_GRID, starts))

    def test_input_is_left_unchanged(self):
        paths = np.random.default_rng(6).standard_normal((40, 6, 3))
        before = paths.copy()
        _abs_power_sums(paths[:, :, 0], SLAB_GRID)          # a strided view, as osekowski's
        _abs_power_sums(paths, SLAB_GRID)
        _abs_power_sums(paths, SLAB_GRID, pairs=(np.array([0]), np.array([2])))
        assert np.array_equal(paths, before)

    @staticmethod
    def twelve_points():
        model = MartingaleFieldModel("g12", "iid_gaussian_field", grid_coords(12),
                                     {"kernel": {"name": "brownian"}}, horizon=4, seed=5)
        labels = model.labels
        return model, [(a, b) for k, a in enumerate(labels) for b in labels[k + 1:]]

    def test_twelve_point_field_equals_whole_chunk_reference(self, monkeypatch):
        # 7-row slabs of the 66 pairs and 38-row slabs of the 12 points, in
        # chunks of 50 rows; pairs are in label order, so x10 comes before x2
        monkeypatch.setattr("uclt.psi._SLAB_BUDGET", 7 * 4 * 66)
        model, pairs = self.twelve_points()
        field = estimate_moment_curves(model, pairs, SLAB_GRID, 800)
        assert field.pairs[:3] == (("x0", "x1"), ("x0", "x10"), ("x0", "x11"))
        col = {lb: k for k, lb in enumerate(model.labels)}
        first, second = (np.array([col[pr[j]] for pr in field.pairs]) for j in (0, 1))

        def worker(ci, start, paths):
            return (whole_chunk_power_sums(paths, SLAB_GRID),
                    whole_chunk_power_sums(paths[..., first] - paths[..., second], SLAB_GRID))

        parts = _run_chunks(model, 4, 800, worker)
        counts = np.full(len(parts), 50.0)
        for j, got in ((0, (field.point_norms, field.point_se)),
                       (1, (field.pair_norms, field.pair_se))):
            want = _jackknife(np.stack([p[j] for p in parts]), counts, SLAB_GRID)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_twelve_point_field_thread_invariant(self):
        model, pairs = self.twelve_points()
        f1, f2 = (estimate_moment_curves(model, pairs, SLAB_GRID, 800, threads=t) for t in (1, 2))
        for name in ("point_norms", "point_se", "pair_norms", "pair_se", "point_var"):
            assert np.array_equal(getattr(f1, name), getattr(f2, name)), name


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

    @pytest.mark.parametrize("mode,pair,match", [
        ("pair", ("x0", "x2"), "mode must be points or pairs"),
        ("pairs", None, "pairs mode needs two distinct labels"),
        ("pairs", ("x1", "x1"), "pairs mode needs two distinct labels"),
        ("pairs", ("x0", "x7"), "pairs mode needs two distinct labels"),
    ], ids=["unknown-mode", "no-pair", "same-point-twice", "unknown-label"])
    def test_rejects_mode_and_pair(self, mode, pair, match):
        with pytest.raises(ValueError, match=match):
            osekowski_check(white_gaussian(), [2.0], [8], 100, mode=mode, pair=pair)


class TestOsekowskiJackknife:
    """`osekowski_check`'s standard error is a delete-a-group jackknife over the
    engine chunks.  R = 700 at n = 64 on three points gives 16 chunks of 43
    rows and a short last one of 12."""

    R, P, N = 700, [2.0, 3.0, 4.0], [8, 64]
    MODES = {"points": {"x_index": 1}, "pairs": {"pair": ("x0", "x2")}}
    # sha256 of the ratio column (`digest`), frozen before the errors moved
    # from batch means to the jackknife; weibull pairs are a zero series
    RATIO_DIGESTS = {
        ("iid_gaussian_field", "points"): "dddb5199a731ec71",
        ("iid_gaussian_field", "pairs"): "2f028393e2ae986f",
        ("weibull_field", "points"): "1cacc924ffd0eb52",
        ("weibull_field", "pairs"): "17b0761f87b081d5",
        ("garch_like", "points"): "13e0eae4061a2b20",
        ("garch_like", "pairs"): "ba61a4720511e5bb",
        ("bounded_sign", "points"): "07e574c3ca15e2d6",
        ("bounded_sign", "pairs"): "17e8887aa29a419a",
    }

    def ratio(self, num, den, cnt):
        """The (p, n) ratios of one set of rows from its power sums."""
        p, n = np.array(self.P)[:, None], np.array(self.N)
        lhs = (num / cnt) ** (1 / p)
        lp2 = ((den / cnt) ** (1 / p)) ** 2
        rhs = p / np.log(p) * np.sqrt(np.cumsum(lp2, axis=1)[:, n - 1] / n)
        return np.where(lhs == 0, 0.0, lhs / np.where(rhs == 0, 1.0, rhs))

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("model", ALL_KINDS, ids=lambda m: m.kind)
    def test_se_is_the_leave_one_chunk_out_jackknife(self, model, mode):
        reader = osekowski_reader(model, self.P, self.N, self.R, mode=mode, **self.MODES[mode])
        parts = _run_chunks(model, reader.n, self.R, lambda ci, start, paths: reader.read(paths),
                            cols=reader.cols)
        assert [p[2] for p in parts] == [43] * 16 + [12]
        num, den = (sum(p[j] for p in parts) for j in (0, 1))
        loo = np.stack([self.ratio(num - a, den - b, self.R - c) for a, b, c in parts])
        G = len(parts)
        want = np.sqrt((G - 1) / G * ((loo - loo.mean(axis=0)) ** 2).sum(axis=0))
        rows = osekowski_check(model, self.P, self.N, self.R, mode=mode, **self.MODES[mode])
        got = np.array([r["se"] for r in rows]).reshape(want.shape)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-15)
        assert np.array([r["ratio"] for r in rows]).reshape(want.shape) == pytest.approx(
            self.ratio(num, den, self.R), rel=1e-12)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("model", ALL_KINDS, ids=lambda m: m.kind)
    def test_ratios_frozen(self, model, mode):
        rows = osekowski_check(model, self.P, self.N, self.R, mode=mode, **self.MODES[mode])
        assert digest([r["ratio"] for r in rows]) == self.RATIO_DIGESTS[model.kind, mode]


class TestOneChunk:
    """The jackknife standard error needs two engine chunks; R <= 16 gives one."""

    def test_one_chunk_rejected(self):
        with pytest.raises(ValueError, match="fewer than two engine chunks"):
            osekowski_check(white_gaussian(), [2.0, 4.0], [8], 16)
        with pytest.raises(ValueError, match="fewer than two engine chunks"):
            osekowski_reader(rademacher(), [2.0], [8], 16, mode="pairs", pair=("x0", "x1"))

    def test_two_chunks_give_a_standard_error(self):
        rows = osekowski_check(white_gaussian(), [2.0, 4.0], [8], 17)
        assert all(r["se"] > 0 for r in rows)

    def test_moment_field_on_one_chunk_rejected_before_drawing(self, monkeypatch):
        def generate(*args):
            raise AssertionError("a chunk was drawn")

        monkeypatch.setattr("uclt.simulate._generate", generate)
        with pytest.raises(ValueError, match="fewer than two engine chunks"):
            estimate_moment_curves(white_gaussian(), [("x0", "x1")], [2.0, 4.0], 16, i_max=8)

    def test_moment_field_on_two_chunks_has_standard_errors(self):
        field = estimate_moment_curves(white_gaussian(), [("x0", "x1")], [2.0, 4.0], 17, i_max=8)
        assert np.all(field.point_se > 0) and np.all(field.pair_se > 0)


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
        l2, se = field.point_norms[0], field.point_se[0]      # p = 2
        # the variance is the squared L2 norm within 3 of its standard errors
        assert np.all(np.abs(field.point_var - l2 * l2) <= 3.0 * se * np.maximum(2.0 * l2, 1.0) + 1e-9)


class TestExactMomentField:
    P = (2.0, 3.0, 4.5)

    def test_gaussian_norms_at_every_index(self):
        m = MartingaleFieldModel("rbf", "iid_gaussian_field", grid_coords(4),
                                 {"kernel": {"name": "rbf", "length_scale": 0.5}},
                                 horizon=8, seed=3)
        field = m.exact_moment_field([("x3", "x1"), ("x0", "x2"), ("x1", "x0")], self.P, 6)
        K, base = m.analytic_covariance(), gaussian_lp_norm(np.array(self.P))
        assert field.pairs == (("x0", "x1"), ("x0", "x2"), ("x1", "x3")) and field.m == 6
        for i in range(1, 7):
            for k, x in enumerate(m.labels):
                assert field.point_curve(i, x).norms == pytest.approx(
                    math.sqrt(K[k, k]) * base, rel=1e-14)
                assert field.variance(i, x) == pytest.approx(K[k, k], rel=1e-14)
            for x1, x2 in field.pairs:
                a, b = m.labels.index(x1), m.labels.index(x2)
                assert field.pair_curve(i, x1, x2).norms == pytest.approx(
                    math.sqrt(K[a, a] + K[b, b] - 2.0 * K[a, b]) * base, rel=1e-14)
        assert not field.point_se.any() and not field.pair_se.any()
        assert field.provenance == {"kind": "analytic"}
        assert field.point_curve(1, "x0").stderr is None
        with pytest.raises(HorizonExceeded):
            m.exact_moment_field([], self.P, 9)

    @pytest.mark.parametrize("model", [
        MartingaleFieldModel("g", "iid_gaussian_field", grid_coords(3), {}, horizon=8, seed=1,
                             growth=0.3),
        MartingaleFieldModel("b", "iid_gaussian_field", grid_coords(3), {}, horizon=8, seed=1,
                             bias=0.1),
        *ALL_KINDS[1:]], ids=["growth", "bias", "weibull", "garch", "sign"])
    def test_none_without_a_closed_form(self, model):
        assert model.exact_moment_field([("x0", "x1")], self.P, 4) is None


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

    def test_bound_once_per_x(self, monkeypatch):
        # the transform bound is uniform in n: one call per x, the same in every n's row
        calls = []

        def counted(tail, x):
            calls.append(x)
            return w_operator(tail, x)

        monkeypatch.setattr("uclt.simulate.w_operator", counted)
        rows = tail_domination_check(white_gaussian(), None, [1.5, 3.0, 1.5], [4, 16, 64], 500)
        assert calls == [1.5, 3.0, 1.5]
        assert [(r["n"], r["x"]) for r in rows] == [(n, x) for n in (4, 16, 64)
                                                    for x in (1.5, 3.0, 1.5)]
        tail = white_gaussian().dominating_tail()
        assert [r["bound"] for r in rows] == [w_operator(tail, x) for x in (1.5, 3.0, 1.5) * 3]

    def test_weighted_form(self):
        rng = np.random.default_rng(0)
        rows = weighted_tail_domination_check(rademacher(), None, [1.5, 2.0, 3.0],
                                              rng.standard_normal(64), 50000)
        assert all(r["ok"] for r in rows)

    @pytest.mark.parametrize("weights", [[0.0, 0.0, 0.0], [], [1.0, math.nan], [1.0, math.inf]],
                             ids=["all-zero", "empty", "nan", "inf"])
    def test_weights_without_a_positive_finite_norm_rejected(self, weights):
        # all-zero weights once divided by a zero norm and passed on NaN sums
        with pytest.raises(ValueError, match="weights"):
            weighted_tail_domination_check(white_gaussian(), None, [1.5], weights, 200)


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

    @pytest.mark.parametrize("threads", [0, -3, 2.5, math.nan, math.inf])
    def test_bad_explicit_thread_count_rejected(self, threads):
        # these once ran on 1, 1 and 2 threads without a word
        with pytest.raises(ValueError, match="threads must be a whole number >= 1"):
            resolve_threads(threads)
        with pytest.raises(ValueError, match="threads must be a whole number >= 1"):
            osekowski_check(white_gaussian(), [2.0], [8], 2000, threads=threads)

    def test_report_json_deterministic(self):
        rows = osekowski_check(white_gaussian(), [2.0], [8], 2000, threads=1)
        rows4 = osekowski_check(white_gaussian(), [2.0], [8], 2000, threads=4)
        a = SimulationReport("wg", 42, 2000, "osekowski", rows).to_json()
        b = SimulationReport("wg", 42, 2000, "osekowski", rows4).to_json()
        assert a == b


class TestKindsTable:
    @pytest.mark.parametrize("model", ALL_KINDS, ids=lambda m: m.kind)
    def test_parameters_resolve_over_the_defaults(self, model):
        assert set(model.p) == set(KINDS[model.kind].params)
        for key, default in KINDS[model.kind].params.items():
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
        ("iid_gaussian_field", {"kernel": {"name": "rbf", "length_scale": 0}},
         "length_scale must be > 0"),
        ("iid_gaussian_field", {"kernel": 5}, "kernel must be an object"),
        ("garch_like", {"kernel": "rbf"}, "kernel must be an object"),
        # a memory outside [0, 1] once made the volatility state overflow
        ("garch_like", {"memory": 5.0}, r"memory must lie in \[0, 1\], got 5.0"),
        ("garch_like", {"memory": -0.5}, r"memory must lie in \[0, 1\], got -0.5"),
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


def closed_form_model(name, kind, params, **shift):
    return MartingaleFieldModel(name, kind, grid_coords(3), params, horizon=16, seed=1, **shift)


RBF3 = np.exp(-0.5 * np.subtract.outer([0.0, 0.5, 1.0], [0.0, 0.5, 1.0]) ** 2 / 0.25)
SLOPE_HALF = np.array([1.0, 1.25, 1.5])   # 1 + 0.5 x on the 3-point grid


def weibull_tail(K, q):
    return {"form": "closed_weibull", "K": K, "q": q}


def step_tail(cutoff):
    return {"form": "tabulated", "x_grid": [0.0, cutoff], "values": [1.0, 0.0]}


# (model, analytic covariance or None, dominating tail, closed-law sums, exact moment field)
CLOSED_FORMS = [
    (closed_form_model("gauss", "iid_gaussian_field", {"kernel": {"name": "rbf"}}),
     RBF3, weibull_tail(math.sqrt(2.0), 2.0), True, True),
    (closed_form_model("gauss-bias", "iid_gaussian_field", {"kernel": {"name": "rbf"}}, bias=0.1),
     None, weibull_tail(math.sqrt(2.0), 2.0), True, False),
    (closed_form_model("gauss-growth", "iid_gaussian_field", {"kernel": {"name": "rbf"}},
                       growth=0.3),
     None, weibull_tail(math.sqrt(2.0), 2.0), True, False),
    (closed_form_model("weibull-uncapped", "weibull_field",
                       {"K": 1.0, "q": 1.5, "amplitude_slope": 0.5}),
     math.gamma(1.0 + 2.0 / 1.5) * np.outer(SLOPE_HALF, SLOPE_HALF), weibull_tail(1.5, 1.5),
     False, False),
    (closed_form_model("weibull-capped", "weibull_field", {"K": 2.0, "q": 2.0, "cap": 4.0}),
     None, weibull_tail(2.0, 2.0), False, False),
    (closed_form_model("garch", "garch_like",
                       {"kernel": {"name": "brownian", "variance": 2.0}, "vol_hi": 1.5}),
     None, weibull_tail(1.5 * math.sqrt(2.0) * math.sqrt(2.0), 2.0), False, False),
    (closed_form_model("sign-shared", "bounded_sign", {"amplitude_slope": 0.5}),
     np.outer(SLOPE_HALF, SLOPE_HALF), step_tail(1.5), True, False),
    (closed_form_model("sign-independent", "bounded_sign", {"base": 2.0, "cross": "independent"}),
     4.0 * np.eye(3), step_tail(2.0), True, False),
    (closed_form_model("sign-shared-modulated", "bounded_sign",
                       {"modulation": 0.25, "amplitude_slope": 0.5}),
     None, step_tail(1.875), False, False),
    (closed_form_model("sign-independent-modulated", "bounded_sign",
                       {"modulation": -0.5, "cross": "independent"}),
     None, step_tail(1.5), False, False),
    (closed_form_model("sign-bias", "bounded_sign", {}, bias=0.05),
     None, step_tail(1.0), True, False),
    (closed_form_model("sign-growth", "bounded_sign", {}, growth=0.25),
     None, step_tail(1.0), False, False),
]


@pytest.mark.parametrize("model,covariance,tail,closed_sums,exact_field", CLOSED_FORMS,
                         ids=[case[0].name for case in CLOSED_FORMS])
def test_closed_forms_of_each_kind(model, covariance, tail, closed_sums, exact_field):
    """Each kind's closed forms on its variants: the covariance of the
    normalized sums, the dominating tail, whether the sums have a closed law
    and whether the moment field is exact."""
    got = model.analytic_covariance()
    if covariance is None:
        assert got is None
    else:
        np.testing.assert_allclose(got, covariance, rtol=1e-14, atol=0.0)
    assert model.dominating_tail().to_dict() == tail
    assert (_sums_reader(model, [4, 16], 100, (0, 2)).draw is not None) == closed_sums
    assert (model.exact_moment_field([("x0", "x1")], (2.0,), 4) is not None) == exact_field


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

    @pytest.mark.parametrize("x_index", [3, 5, -4], ids=["one-past", "five", "negative"])
    @pytest.mark.parametrize("check", ["osekowski", "tail", "weighted", "md"])
    def test_x_index_outside_the_grid_rejected(self, check, x_index):
        model = white_gaussian()  # three points: x_index -3 to 2
        run = {"osekowski": lambda: osekowski_check(model, [2.0], [8], 200, x_index=x_index),
               "tail": lambda: tail_domination_check(model, None, [1.5], [8], 200,
                                                     x_index=x_index),
               "weighted": lambda: weighted_tail_domination_check(model, None, [1.5], np.ones(8),
                                                                  200, x_index=x_index),
               "md": lambda: martingale_difference_check(model, [2], x_index=x_index, R=200)}
        with pytest.raises(ValueError, match="x_index"):
            run[check]()

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
    # engine learned to project; the Gaussian one since simulate_eta draws
    # from the closed law of the sums
    FULL_WIDTH_DIGESTS = {
        "iid_gaussian_field": "5dd4f5887730b5b5",
        "weibull_field": "e94e937cfb2e344d",
        "garch_like": "42c54baed41faff3",
        "bounded_sign": "108d9bee4e0652f4",
    }

    @pytest.mark.parametrize("model", ALL_KINDS, ids=lambda m: m.kind)
    def test_full_width_stream_unchanged(self, model):
        eta = simulate_eta(model, 16, 500)
        digest = hashlib.sha256(np.round(eta, 10).tobytes()).hexdigest()[:16]
        assert digest == self.FULL_WIDTH_DIGESTS[model.kind]


def sign_reference(model, n, rng, count, cols):
    """Modulated bounded_sign paths from signs drawn step-major as (n, count, 1)
    when shared or (n, count, len(cols)) when independent, the amplitude
    recursion written out step by step."""
    p = model.p
    a0 = p["base"] * (1.0 + p["amplitude_slope"] * model._coord_array[list(cols), 0])
    width = 1 if p["cross"] == "shared" else len(cols)
    signs = np.broadcast_to(_signs(rng, (n, count, width)), (n, count, len(cols)))
    paths = np.empty((count, n, len(cols)))
    running = np.zeros((count, len(cols)))
    for i in range(n):
        ampl = a0[None, :] * (1.0 + p["modulation"] * np.tanh(running / math.sqrt(max(i, 1))))
        paths[:, i, :] = signs[i] * ampl
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

    def test_garch_clip_that_binds(self):
        # vol_lo 0.8 and vol_hi 1.2 cut into 1 -+ vol_amp = 1 -+ 0.45, so the
        # step loop clips; at the defaults it can skip the clip
        model = MartingaleFieldModel("gc", "garch_like", grid_coords(3),
                                     {"vol_lo": 0.8, "vol_hi": 1.2}, horizon=64, seed=24)
        rng, chol = _chunk_rng(model.seed, 5), _cholesky(model._kernel)
        want, sigmas = np.empty((self.COUNT, self.N, 3)), []
        state = np.zeros((self.COUNT, 3))
        for i in range(self.N):
            eps = rng.standard_normal((self.COUNT, 3)) @ chol.T
            sigmas.append(np.clip(1.0 + 0.45 * np.tanh(state), 0.8, 1.2))
            want[:, i, :] = sigmas[-1] * eps
            state = 0.7 * state + (1.0 - 0.7) * eps
        assert np.any(np.array(sigmas) == 0.8) and np.any(np.array(sigmas) == 1.2)
        assert np.array_equal(_generate(model, self.N, _chunk_rng(model.seed, 5), self.COUNT), want)

    def test_full_width_is_the_default(self):
        model = STEP_LOOP_KINDS[1]
        got = _generate(model, self.N, _chunk_rng(model.seed, 2), self.COUNT)
        want = _generate(model, self.N, _chunk_rng(model.seed, 2), self.COUNT, (0, 1, 2, 3))
        assert np.array_equal(got, want)


#: False-alarm chance of each law test of `TestSignAndWeibullDraws`.
LAW_LEVEL = 1e-7


def z_bound(tests: int = 1) -> float:
    """Two-sided normal quantile that keeps a family of `tests` tests at LAW_LEVEL."""
    return float(stats.norm.isf(LAW_LEVEL / (2 * tests)))


class TestChunkSubstreams:
    """Chunk `ci` of a run at `seed` draws from SFC64 seeded by
    SeedSequence(seed, spawn_key=(ci,)): one substream per chunk, the same
    on whichever thread draws it."""

    def test_sfc64_seeded_by_the_spawn_key(self):
        bits = _chunk_rng(801, 5).bit_generator
        assert type(bits) is np.random.SFC64
        assert (bits.seed_seq.entropy, bits.seed_seq.spawn_key) == (801, (5,))
        want = np.random.SFC64(np.random.SeedSequence(801, spawn_key=(5,))).random_raw(64)
        assert np.array_equal(bits.random_raw(64), want)

    def test_same_key_same_words(self):
        words = _chunk_rng(801, 5).bit_generator.random_raw(64)
        assert np.array_equal(_chunk_rng(801, 5).bit_generator.random_raw(64), words)
        again = on_fresh_thread(lambda: _chunk_rng(801, 5).bit_generator.random_raw(64))
        assert np.array_equal(again, words)

    def test_chunks_and_seeds_give_different_words(self):
        words = [tuple(_chunk_rng(seed, ci).bit_generator.random_raw(4).tolist())
                 for seed in (801, 802) for ci in range(32)]
        assert len(set(words)) == len(words)


class TestSignAndWeibullDraws:
    """`_signs` takes 64 fair signs from each raw SFC64 word, and the capped
    Weibull chunk is K E**(1/q) with E ~ Exp(1), capped and signed: both
    against their laws at fixed seeds."""

    WORDS = 20000

    def signs(self):
        return _signs(_chunk_rng(41, 0), (self.WORDS, 64))   # column j: bit j of each word

    def test_sign_is_its_bit_of_its_word(self):
        words = _chunk_rng(41, 1).bit_generator.random_raw(3)
        bits = np.array([(int(words[i // 64]) >> (i % 64)) & 1 for i in range(150)])
        assert np.array_equal(_signs(_chunk_rng(41, 1), (2, 75)), (2.0 * bits - 1.0).reshape(2, 75))

    def test_signs_balanced_overall_and_at_each_bit(self):
        s = self.signs()
        assert set(np.unique(s).tolist()) == {-1.0, 1.0}
        assert abs(s.mean()) <= z_bound() / math.sqrt(s.size)
        assert np.all(np.abs(s.mean(axis=0)) <= z_bound(64) / math.sqrt(self.WORDS))

    @pytest.mark.parametrize("lag", [1, 64])
    def test_sign_products_centred(self, lag):
        # products of independent fair signs at a fixed lag are independent fair signs
        s = self.signs().ravel()
        prod = s[lag:] * s[:-lag]
        assert abs(prod.mean()) <= z_bound() / math.sqrt(prod.size)

    @pytest.mark.parametrize("q", [2.0, 1.5])
    def test_capped_weibull_chunk_follows_its_law(self, q):
        K, cap = 1.3, 2.0
        model = MartingaleFieldModel("wl", "weibull_field", grid_coords(3),
                                     {"K": K, "q": q, "cap": cap, "amplitude_slope": 0.5},
                                     horizon=64, seed=43)
        x = _generate(model, 64, _chunk_rng(model.seed, 0), 2000)
        assert np.array_equal(x[:, :, 2], x[:, :, 0] * 1.5)   # amplitudes 1, 1.25 and 1.5
        a = np.sort(np.abs(x[:, :, 0]).ravel())
        assert a[-1] == cap
        # d = sup over x < cap of |F_m(x) - F(x)|, F(x) = 1 - exp(-(x/K)**q):
        # at most the uncapped sample's KS distance, so the Kolmogorov tail bounds its chance
        below = a[a < cap]
        cdf, i = -np.expm1(-(below / K) ** q), np.arange(1, below.size + 1)
        d = max((i / a.size - cdf).max(), (cdf - (i - 1) / a.size).max(),
                -math.expm1(-(cap / K) ** q) - below.size / a.size)
        assert stats.kstwo.sf(d, a.size) > LAW_LEVEL
        signs = np.sign(x[:, :, 0])
        assert abs(signs.mean()) <= z_bound() / math.sqrt(signs.size)

    @pytest.mark.parametrize("model", [ALL_KINDS[1], ALL_KINDS[3], PROJECTION_KINDS[4],
                                       PROJECTION_KINDS[6]], ids=lambda m: m.name)
    def test_thread_invariant(self, model):
        def run(threads):
            return (simulate_eta(model, 64, 900, threads=threads),
                    osekowski_check(model, [2.0, 3.0], [8, 64], 900, threads=threads))

        (eta1, rows1), (eta2, rows2) = run(1), run(2)
        assert np.array_equal(eta1, eta2) and rows1 == rows2


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


class TestOneSumsReader:
    """Every normalized sum is read by `_sums_reader`: a law with closed sums
    generates no path, any other still does."""

    @pytest.mark.parametrize("model,closed", [
        (white_gaussian(), True), (SHARED_SIGNS, True), (INDEPENDENT_SIGNS, True),
        (ALL_KINDS[2], False), (ALL_KINDS[3], False)], ids=lambda v: getattr(v, "name", str(v)))
    def test_paths_only_without_closed_sums(self, monkeypatch, model, closed):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return _generate(*args, **kwargs)

        monkeypatch.setattr("uclt.simulate._generate", counted)
        for run in (lambda: simulate_eta(model, 16, 200),
                    lambda: covariance_estimate(model, 16, 200),
                    lambda: eta_increment_curves(model, [("x0", "x2")], [2.0], [4, 16], 200)):
            calls.clear()
            run()
            assert (calls == []) == closed, calls


def readme_model(kind: str) -> MartingaleFieldModel:
    """The README's check-theorem model, of kind `kind`."""
    return MartingaleFieldModel("holder-gaussian", kind, grid_coords(9, 0.1, 1.0),
                                {"kernel": {"name": "fractional_brownian", "hurst": 0.5}},
                                horizon=64, seed=20260808)


class TestCltSamples:
    """`clt_diagnostic`'s two KS samples come from `_sums_reader`, the larger on
    its own substream family: no chunk generator of one sample's pass seeds
    the other's, with or without a closed law."""

    def capture(self, monkeypatch, model):
        """The two samples and, per engine pass, the spawn keys of its chunk generators."""
        passes, samples = [], []

        def chunk_rng(*args):
            rng = _chunk_rng(*args)
            passes[-1].append(rng.bit_generator.seed_seq.spawn_key)
            return rng

        def run_chunks(*args, **kwargs):
            passes.append([])
            return _run_chunks(*args, **kwargs)

        def readers(*args, **kwargs):
            out = run_readers(*args, **kwargs)
            samples.extend(eta[0] for eta in out)
            return out

        monkeypatch.setattr("uclt.simulate._chunk_rng", chunk_rng)
        monkeypatch.setattr("uclt.simulate._run_chunks", run_chunks)
        monkeypatch.setattr("uclt.simulate.run_readers", readers)
        clt_diagnostic(model, (16, 64), 2000)
        return passes, samples

    @pytest.mark.parametrize("kind", ["iid_gaussian_field", "garch_like"])
    def test_samples_share_no_draw(self, monkeypatch, kind):
        passes, samples = self.capture(monkeypatch, readme_model(kind))
        assert [len(keys) for keys in passes] == [16, 16]     # 125-row chunks
        assert not set(passes[0]) & set(passes[1])
        small, large = samples
        assert small.shape == large.shape == (2000, 9)
        assert not np.array_equal(small, large)
        # summed paths on one family drew eta_64[0] = (eta_16[0] + ... + eta_16[3]) / 2 exactly
        assert not np.allclose(large[0], small[:4].sum(axis=0) / 2.0)


def same(a, b) -> bool:
    """Equal by content, dicts and arrays included."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    return a == b


def digest(values) -> str:
    """sha256 of `values` rounded to 10 decimals (BLAS kernels may differ in
    the last bit between CPUs), as in `FULL_WIDTH_DIGESTS`."""
    return hashlib.sha256(np.round(np.asarray(values, dtype=float), 10).tobytes()).hexdigest()[:16]


class TestChunkResults:
    """Each reducer's results at a fixed seed, in 17 chunks of at most 43 rows,
    as digests frozen before chunk workers returned their results."""

    R = 700

    MD_DIGESTS = {
        "iid_gaussian_field": "a180d2b9ba580434",
        "weibull_field": "62a64e529fcdb42f",
        "garch_like": "d569e0c151f3dd0b",
        "bounded_sign": "894dab490ed69f93",
    }
    WEIGHTED_DIGESTS = {
        "iid_gaussian_field": "1bb91ed6a2f82fc8",
        "weibull_field": "70b5c12b28490fb4",
        "garch_like": "82fc61d4872a1d04",
        "bounded_sign": "dac5510c9ae4721d",
    }
    PARTIAL_SUMS_DIGESTS = {
        "iid_gaussian_field": "0ea864dafe1bf43a",
        "weibull_field": "5bf41e64eedb378c",
        "garch_like": "fa76263e8257ef98",
        "bounded_sign": "e8c88a0d71c75af6",
    }

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("model", ALL_KINDS, ids=lambda m: m.kind)
    def test_martingale_difference_check(self, model, threads):
        rows = martingale_difference_check(model, [1, 2, 16], x_index=1, R=self.R, threads=threads)
        got = digest([[r["mean"], r["se"], r["p_value"]] for r in rows])
        assert got == self.MD_DIGESTS[model.kind]

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("model", ALL_KINDS, ids=lambda m: m.kind)
    def test_weighted_tail_domination_sums(self, model, threads, monkeypatch):
        seen = []

        def rows(bounds, n, sums):
            seen.append(sums.copy())
            return []

        monkeypatch.setattr("uclt.simulate._tail_rows", rows)
        weighted_tail_domination_check(model, None, [1.5], np.arange(1.0, 17.0), self.R,
                                       x_index=1, threads=threads)
        assert seen[0].shape == (self.R,)
        assert digest(seen[0]) == self.WEIGHTED_DIGESTS[model.kind]

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("model", ALL_KINDS, ids=lambda m: m.kind)
    def test_partial_sums(self, model, threads):
        etas = _partial_sums(model, [4, 16], self.R, threads, cols=(0, 2))
        assert etas.shape == (2, self.R, 2)
        assert digest(etas) == self.PARTIAL_SUMS_DIGESTS[model.kind]

    def test_no_replications_rejected(self):
        # with no chunk there is no result to put in order
        for run in (lambda: simulate_eta(white_gaussian(), 4, 0),
                    lambda: weighted_tail_domination_check(white_gaussian(), None, [1.5],
                                                           np.ones(4), 0)):
            with pytest.raises(ValueError, match="need at least one replication"):
                run()

    PASS_PARAMS = {"garch_like": {"kernel": {"name": "rbf", "length_scale": 0.5}},
                   "iid_gaussian_field": {"kernel": {"name": "rbf", "length_scale": 0.5}},
                   "weibull_field": {"K": 1.0, "q": 2.0, "cap": 4.0, "amplitude_slope": 0.5},
                   "bounded_sign": {"cross": "independent", "amplitude_slope": 0.5}}

    @pytest.mark.parametrize("kind", list(PASS_PARAMS))
    def test_a_pass_leaves_the_model_unchanged(self, kind):
        # whatever a pass needs of the model, its law included, is made at
        # construction; chunk workers on other threads read it and write
        # nothing to it
        model = MartingaleFieldModel("m", kind, grid_coords(3), self.PASS_PARAMS[kind],
                                     horizon=16, seed=5)
        before = copy.deepcopy(vars(model))
        osekowski_check(model, [2.0], [16], 300, x_index=1, threads=2)
        osekowski_check(model, [2.0], [16], 300, mode="pairs", pair=("x0", "x2"), threads=2)
        tail_domination_check(model, None, [1.5], [4, 16], 300, x_index=2, threads=2)
        assert same(vars(model), before)


TAIL_KINDS = PROJECTION_KINDS + [SHARED_SIGNS, INDEPENDENT_SIGNS,
                                 MartingaleFieldModel("sb", "bounded_sign", grid_coords(2), {},
                                                      horizon=64, seed=34, bias=0.05)]


@pytest.mark.parametrize("model", TAIL_KINDS, ids=lambda m: m.name)
def test_tail_domination_thread_invariant(model):
    def run(threads):
        return repr(tail_domination_check(model, None, [1.5, 2.5], [4, 16, 64], 3000,
                                          x_index=1, threads=threads))

    assert run(1) == run(4)


# the models of the benchmark's `inequalities` workload, one grid of 5 points
SHARED_PASS_MODELS = [
    MartingaleFieldModel("iid-gaussian-rbf", "iid_gaussian_field", grid_coords(5),
                         {"kernel": {"name": "rbf", "length_scale": 0.5}}, horizon=1024, seed=802),
    MartingaleFieldModel("bounded-sign", "bounded_sign", grid_coords(5),
                         {"modulation": 0.25, "amplitude_slope": 0.5}, horizon=1024, seed=803),
    MartingaleFieldModel("garch-like", "garch_like", grid_coords(5),
                         {"kernel": {"name": "rbf", "length_scale": 0.5}}, horizon=1024, seed=804),
    MartingaleFieldModel("capped-weibull", "weibull_field", grid_coords(5),
                         {"K": 1.0, "q": 2.0, "cap": 10.0}, horizon=1024, seed=805),
]


class TestSharedPass:
    """`run_readers` gives the osekowski and tail-domination readers of one
    model one engine pass to the larger n where R and the columns agree and
    the tail has no closed law.  R = 2000 gives 125-row chunks at n = 64 and
    at n = 256, as R = 20000 gives 1250-row chunks."""

    R, P, N_OSE, X, N_TAIL = 2000, [2.0, 3.0, 4.0], [8, 64], [1.5, 2.0, 3.0], [16, 256]

    def readers(self, model, R_tail=None):
        return [osekowski_reader(model, self.P, self.N_OSE, self.R),
                tail_domination_reader(model, None, self.X, self.N_TAIL, R_tail or self.R)]

    def count_passes(self, monkeypatch):
        passes = []
        real = _run_chunks

        def counted(model, n, R, worker, threads=None, cols=None, draw=None, family=0):
            passes.append((model.name, n, R, cols, draw is not None))
            return real(model, n, R, worker, threads, cols, draw, family)

        monkeypatch.setattr("uclt.simulate._run_chunks", counted)
        return passes

    def test_garch_rows_equal_standalone_checks(self):
        # garch draws its steps step-major, so the first 64 steps of a
        # 256-step chunk are the 64-step chunk's
        model = SHARED_PASS_MODELS[2]
        ose, tail = run_readers(model, self.readers(model))
        assert ose == osekowski_check(model, self.P, self.N_OSE, self.R)
        assert tail == tail_domination_check(model, None, self.X, self.N_TAIL, self.R)

    @pytest.mark.parametrize("model", SHARED_PASS_MODELS[1:4:2], ids=lambda m: m.kind)
    def test_rows_are_the_readers_on_paths_to_the_larger_n(self, model):
        readers = self.readers(model)
        parts = _run_chunks(model, 256, self.R, lambda ci, start, paths: [r.read(paths) for r in readers],
                            cols=(0,))
        got = run_readers(model, readers)
        for k, r in enumerate(readers):
            assert got[k] == r.finish([part[k] for part in parts])
        assert got[1] == tail_domination_check(model, None, self.X, self.N_TAIL, self.R)
        # signs are drawn step-major, so the first 64 of 256 steps are the
        # 64-step chunk's; Weibull rows drawn row-major at 256 steps are another
        # stream than at 64
        alone = osekowski_check(model, self.P, self.N_OSE, self.R)
        assert (got[0] == alone) == (model.kind == "bounded_sign")

    def test_each_path_model_one_pass(self, monkeypatch):
        passes = self.count_passes(monkeypatch)
        for model in SHARED_PASS_MODELS:
            run_readers(model, self.readers(model))
        assert passes == [("iid-gaussian-rbf", 64, self.R, (0,), False),
                          ("iid-gaussian-rbf", 256, self.R, (0,), True),
                          ("bounded-sign", 256, self.R, (0,), False),
                          ("garch-like", 256, self.R, (0,), False),
                          ("capped-weibull", 256, self.R, (0,), False)]

    def test_pairs_and_another_tail_r_run_apart(self, monkeypatch):
        model = SHARED_PASS_MODELS[2]
        pairs = osekowski_reader(model, self.P, self.N_OSE, self.R, mode="pairs", pair=("x0", "x4"))
        want = [osekowski_check(model, self.P, self.N_OSE, self.R, mode="pairs", pair=("x0", "x4")),
                tail_domination_check(model, None, self.X, self.N_TAIL, 3000)]
        passes = self.count_passes(monkeypatch)
        assert run_readers(model, [pairs, self.readers(model)[1]])[0] == want[0]
        assert run_readers(model, self.readers(model, R_tail=3000))[1] == want[1]
        assert [p[1:4] for p in passes] == [(64, self.R, (0, 4)), (256, self.R, (0,)),
                                            (64, self.R, (0,)), (256, 3000, (0,))]

    @pytest.mark.parametrize("model", SHARED_PASS_MODELS, ids=lambda m: m.kind)
    def test_thread_invariant(self, model):
        assert repr(run_readers(model, self.readers(model), threads=1)) == \
            repr(run_readers(model, self.readers(model), threads=2))

    @pytest.mark.parametrize("model", SHARED_PASS_MODELS, ids=lambda m: m.kind)
    def test_md_reader_joins_the_path_pass(self, monkeypatch, model):
        # the md_check reader (to n = 16) joins the pass of the readers without
        # a closed law; its rows are a standalone check's where the kind draws
        # step-major, and another stream where it draws row-major
        md = martingale_difference_reader(model, [2, 16], R=self.R)
        alone = martingale_difference_check(model, [2, 16], R=self.R)
        want = run_readers(model, self.readers(model))
        passes = self.count_passes(monkeypatch)
        *got, rows = run_readers(model, self.readers(model) + [md])
        assert got == want
        assert all("ok" not in row for row in rows)
        assert (holm_marked(rows) == alone) == (model.kind in ("bounded_sign", "garch_like"))
        assert [r["index"] for r in rows] == [r["index"] for r in alone]
        closed = model.kind == "iid_gaussian_field"
        assert [p[1:] for p in passes] == ([(64, self.R, (0,), False), (256, self.R, (0,), True)]
                                          if closed else [(256, self.R, (0,), False)])

    def test_results_in_reader_order_around_a_closed_law(self, monkeypatch):
        # a reader with a draw between two that share: two passes, the shared
        # one first, and each result in its reader's place
        model = SHARED_PASS_MODELS[0]
        ose, tail = self.readers(model)
        md = martingale_difference_reader(model, [2], R=self.R)
        want = run_readers(model, [ose, tail]) + run_readers(model, [ose, md])[1:]
        passes = self.count_passes(monkeypatch)
        assert run_readers(model, [ose, tail, md]) == want
        assert [p[1:] for p in passes] == [(64, self.R, (0,), False), (256, self.R, (0,), True)]


def on_fresh_thread(fn):
    """fn() on a new thread, whose scratch buffers start empty."""
    out = []
    thread = threading.Thread(target=lambda: out.append(fn()))
    thread.start()
    thread.join()
    return out[0]


def scratch_buffers() -> list:
    """The scratch buffers this thread holds."""
    return [buf for _, buf in vars(_SCRATCH).values()]


# the four kinds; signs shared and independent, modulated and not; capped Weibull with a slope
SCRATCH_KINDS = ALL_KINDS + [SHARED_SIGNS, INDEPENDENT_SIGNS, STEP_LOOP_KINDS[2], PROJECTION_KINDS[6]]


class TestChunkScratch:
    """Each thread keeps its chunk intermediates in scratch buffers from chunk
    to chunk: no value may depend on what a buffer held before, and no
    result may share memory with one."""

    # a short last chunk, then n = 64 -> 256 -> 64: each change of shape replaces a buffer
    SPANS = [(64, 0, 40), (64, 1, 13), (256, 2, 40), (64, 3, 40)]

    @pytest.mark.parametrize("cols", [None, (1,)], ids=["all-columns", "one-column"])
    @pytest.mark.parametrize("model", SCRATCH_KINDS, ids=lambda m: m.name)
    def test_consecutive_chunks_equal_fresh_thread_chunks(self, model, cols):
        got = [_generate(model, n, _chunk_rng(model.seed, ci), count, cols)
               for n, ci, count in self.SPANS]
        for (n, ci, count), chunk in zip(self.SPANS, got):
            want = on_fresh_thread(lambda: _generate(model, n, _chunk_rng(model.seed, ci), count, cols))
            assert np.array_equal(chunk, want)

    @pytest.mark.parametrize("n,count", [(16, 40), (1, 40), (16, 1)],
                             ids=["chunk", "one-step", "one-row"])
    @pytest.mark.parametrize("cols", [None, (1,)], ids=["all-columns", "one-column"])
    @pytest.mark.parametrize("model", SCRATCH_KINDS, ids=lambda m: m.name)
    def test_chunk_shares_no_memory_with_scratch(self, model, cols, n, count):
        paths = _generate(model, n, _chunk_rng(model.seed, 0), count, cols)
        assert not any(np.shares_memory(paths, buf) for buf in scratch_buffers())

    @pytest.mark.parametrize("model", SCRATCH_KINDS, ids=lambda m: m.name)
    def test_read_results_share_no_memory_with_scratch(self, model):
        readers = [osekowski_reader(model, [2.0, 3.0], [8, 16], 400),
                   osekowski_reader(model, [2.0, 3.0], [8, 16], 400, mode="pairs", pair=("x0", "x2")),
                   tail_domination_reader(model, None, [1.5], [4, 16], 400)]
        for reader in readers:
            rng = _chunk_rng(model.seed, 0)
            data = _generate(model, reader.n, rng, 25, reader.cols) if reader.draw is None \
                else reader.draw(rng, 25)
            parts = reader.read(data)
            for part in parts if isinstance(parts, tuple) else [parts]:
                assert not any(np.shares_memory(part, buf) for buf in scratch_buffers())

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_power_sums_equal_fresh_buffers(self, order):
        # one slab either way, so both layouts ask for buffers of one shape;
        # the layout sets numpy's order of summation
        z = np.asarray(np.random.default_rng(8).standard_normal((1000, 3)) * 3.0, order=order)
        other = np.asarray(z, order="F" if order == "C" else "C")
        want = on_fresh_thread(lambda: _abs_power_sums(z, SLAB_GRID))
        got = [_abs_power_sums(z, SLAB_GRID), _abs_power_sums(z, SLAB_GRID)]
        _abs_power_sums(other, SLAB_GRID)
        got.append(_abs_power_sums(z, SLAB_GRID))
        assert all(np.array_equal(g, want) for g in got)

    def test_single_thread_pass_drops_its_buffers(self):
        simulate_eta(ALL_KINDS[2], 16, 200, threads=1)
        assert not vars(_SCRATCH)
