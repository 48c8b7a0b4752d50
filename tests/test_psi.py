"""Generating-function calculus: frozen oracles and structural properties."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uclt.errors import EmptySupportOverlap, InvalidSupport
from uclt.psi import (
    DEFAULT_P_CAP,
    MomentCurve,
    PsiFunction,
    _group_jackknife,
    gaussian_lp_norm,
    gls_norm,
    gls_tail_bound,
    log_orlicz_n_function,
    orlicz_n_function,
    psi_bar_conjugate,
    psi_lower_star,
    rosenthal_transform,
    subq_norm,
    young_fenchel,
)


def dense_lower_star(psi, x, nodes=200001):
    """Independent oracle: brute-force scan of x/p + log psi(p)."""
    ends = psi.pieces().p
    if ends.size == 1:
        return x / ends[0] + math.log(psi.value(ends[0]))
    lo, hi = ends[0], ends[-1]
    ps = np.geomspace(max(lo, 1.0) * (1 + 1e-12), hi, nodes)
    vals = psi.value_array(ps)
    obj = x / ps + np.log(vals)
    return float(np.min(obj))


def dense_conjugate(g, y, lo=2.0, hi=DEFAULT_P_CAP, nodes=200001):
    xs = np.geomspace(lo, hi, nodes)
    vals = np.array([g(x) for x in xs])
    fin = np.isfinite(vals)
    return float(np.max(xs[fin] * y - vals[fin]))


def mp_log_psi(psi, t):
    """log psi(e**t) in mpmath from the form's definition, for t where psi is
    finite (the one order of a point shape)."""
    import mpmath
    if psi.form == "closed_power":
        return t / psi.q
    if psi.form == "degenerate":
        return mpmath.mpf(0)
    if psi.form == "tabulated":
        g = [mpmath.log(p) for p in psi.grid]
        i = max(0, min(len(g) - 2, sum(1 for v in g[1:-1] if v <= t)))
        lv = [mpmath.log(v) for v in psi.values[i:i + 2]]
        return lv[0] + (t - g[i]) / (g[i + 1] - g[i]) * (lv[1] - lv[0])
    if psi.form == "scaled":
        return mpmath.log(psi.factor) + mp_log_psi(psi.base, t)
    return t - mpmath.log(t) + mp_log_psi(psi.base, t)


def mp_nodes(psi):
    """The orders where psi is finite, up to DEFAULT_P_CAP: [r] for a point
    shape, else the ends and every node of the form between them."""
    if psi.form == "degenerate":
        return [psi.r]
    if psi.form == "closed_power":
        lo, hi, nodes = psi.support_low, psi.support_high, []
    elif psi.form == "tabulated":
        lo, hi, nodes = psi.grid[0], psi.grid[-1], psi.grid
    else:
        nodes = mp_nodes(psi.base)
        if len(nodes) == 1:
            return nodes
        lo, hi = max(nodes[0], psi.support_low), min(nodes[-1], psi.support_high)
    hi = min(hi, DEFAULT_P_CAP)
    return [lo] + [p for p in nodes if lo < p < hi] + [hi]


def mp_golden_max(f, a, b):
    """Golden-section max of f on [a, b] in mpmath, to a width of 1e-20 in t."""
    import mpmath
    r = (mpmath.sqrt(5) - 1) / 2
    c, d = b - r * (b - a), a + r * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 1e-20:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - r * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + r * (b - a)
            fd = f(d)
    return max(fc, fd)


def mp_lower_star(psi, x):
    """inf of x*e**(-t) + log psi(e**t) in mpmath: the least of the node values
    and of a golden-section search on each piece, where it is convex."""
    import mpmath
    with mpmath.workdps(30):
        ts = [mpmath.log(p) for p in mp_nodes(psi)]
        F = lambda t: x * mpmath.exp(-t) + mp_log_psi(psi, t)
        best = min(F(t) for t in ts)
        for a, b in zip(ts, ts[1:]):
            best = min(best, -mp_golden_max(lambda t: -F(t), a, b))
        return best


def mp_conjugate(psi, y, samples=64):
    """sup of e**t * (y - log psi(e**t)) over t in [log 2, log DEFAULT_P_CAP]
    in mpmath: a scan of each piece, refined around every local maximum."""
    import mpmath
    nodes = mp_nodes(psi)
    lo, hi = max(nodes[0], 2.0), min(nodes[-1], DEFAULT_P_CAP)
    if hi < lo or hi == lo and len(nodes) > 1:     # no order, or no interval, in [2, cap]
        return -math.inf
    nodes = [lo] + [p for p in nodes if lo < p < hi] + [hi] * (hi > lo)
    with mpmath.workdps(30):
        h = lambda t: mpmath.exp(t) * (y - mp_log_psi(psi, t))
        ts = [mpmath.log(p) for p in nodes]
        best = max(h(t) for t in ts)
        for a, b in zip(ts, ts[1:]):
            grid = [a + (b - a) * k / samples for k in range(samples + 1)]
            hs = [h(t) for t in grid]
            for k in range(samples + 1):
                lo, hi = max(k - 1, 0), min(k + 1, samples)
                if hs[k] >= hs[lo] and hs[k] >= hs[hi]:
                    best = max(best, mp_golden_max(h, grid[lo], grid[hi]))
        return best


class TestEval:
    def test_closed_power(self):
        psi = PsiFunction.closed_power(2)
        assert psi.value(4.0) == 2.0

    def test_degenerate(self):
        psi = PsiFunction.degenerate(3)
        assert psi.value(3.0) == 1.0
        assert math.isinf(psi.value(3.5))

    def test_outside_support(self):
        psi = PsiFunction.closed_power(1)
        assert math.isinf(psi.value(1.5))
        assert math.isinf(psi.value(2.0))  # the interval is open

    def test_finite_exactly_on_open_support(self):
        psi = PsiFunction.closed_power(2, support=(2.0, 10.0))
        for p in np.linspace(1.0, 12.0, 45):
            inside = 2.0 < p < 10.0
            assert math.isfinite(psi.value(float(p))) == inside

    def test_tabulated_interpolation_and_range(self):
        psi = PsiFunction.tabulated([2.0, 4.0], [1.0, 2.0])
        # log-linear in log p: at p = sqrt(8), log-midpoint, value sqrt(2)
        mid = math.sqrt(8.0)
        assert psi.value(mid) == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert math.isinf(psi.value(4.5))  # extrapolation forbidden
        assert math.isinf(psi.value(1.5))

    def test_scaled(self):
        psi = PsiFunction.closed_power(2).scaled(3.0)
        assert psi.value(4.0) == pytest.approx(6.0)

    def test_support_validation(self):
        with pytest.raises(ValueError):
            PsiFunction.closed_power(2, support=(0.5, math.inf))
        with pytest.raises(ValueError):
            PsiFunction.degenerate(5, support=(2, 4))
        with pytest.raises(ValueError):
            PsiFunction.tabulated([3.0, 2.5], [1.0, 1.0])

    def test_json_roundtrip(self):
        for psi in (PsiFunction.closed_power(2),
                    PsiFunction.degenerate(3, support=(2, 8)),
                    PsiFunction.tabulated([2, 3, 4], [1.0, 1.1, 1.3]),
                    rosenthal_transform(PsiFunction.closed_power(1)).scaled(2.0)):
            back = PsiFunction.from_dict(json.loads(psi.to_json()))
            for p in (2.5, 3.0, 3.7):
                assert back.value(p) == pytest.approx(psi.value(p), rel=1e-12)
        doc = PsiFunction.closed_power(2).to_dict()
        assert doc["support"][1] is None  # null encodes the unbounded endpoint


TABULATED = PsiFunction.tabulated([2, 3, 4], [1.0, 1.1, 1.3])
CLOSED_POWER = {"form": "closed_power", "support": [2.0, None], "q": 2.0}
TABULATED_DICT = {"form": "tabulated", "support": [1.5, None], "grid": [2.0, 3.0, 4.0],
                  "values": [1.0, 1.1, 1.3]}


class TestSerialization:
    # every form, wrappers of wrappers included, against what to_dict wrote
    # before it was read from the FORMS table
    @pytest.mark.parametrize("psi,doc", [
        (PsiFunction.closed_power(2), CLOSED_POWER),
        (PsiFunction.closed_power(1.5, support=(2.5, 50)),
         {"form": "closed_power", "support": [2.5, 50], "q": 1.5}),
        (PsiFunction.degenerate(3, support=(2, 8)),
         {"form": "degenerate", "support": [2, 8], "r": 3.0}),
        (TABULATED, TABULATED_DICT),
        (PsiFunction.closed_power(2).scaled(3.0),
         {"form": "scaled", "support": [2.0, None], "factor": 3.0, "base": CLOSED_POWER}),
        (rosenthal_transform(PsiFunction.closed_power(1)),
         {"form": "rosenthal", "support": [2.0, None],
          "base": {"form": "closed_power", "support": [2.0, None], "q": 1.0}}),
        (rosenthal_transform(TABULATED).scaled(2.0),
         {"form": "scaled", "support": [1.5, None], "factor": 2.0,
          "base": {"form": "rosenthal", "support": [1.5, None], "base": TABULATED_DICT}}),
    ], ids=["closed_power", "closed_power-bounded", "degenerate", "tabulated", "scaled",
            "rosenthal", "scaled-rosenthal-tabulated"])
    def test_dict_round_trip(self, psi, doc):
        assert psi.to_dict() == doc
        assert PsiFunction.from_dict(psi.to_dict()) == psi
        assert PsiFunction.from_dict(json.loads(psi.to_json())) == psi

    def test_wrapper_support_defaults_to_the_base(self):
        doc = {"form": "rosenthal", "base": {"form": "closed_power", "q": 2, "support": [3, 9]}}
        psi = PsiFunction.from_dict(doc)
        assert (psi.support_low, psi.support_high) == (3.0, 9.0)
        with pytest.raises(ValueError, match="support must be"):
            PsiFunction.from_dict({**doc, "support": [2, None]})


class TestMomentCurve:
    def test_gaussian_moments(self):
        # E Z^2 = 1, E Z^4 = 3, E Z^6 = 15 from the closed form
        assert gaussian_lp_norm(2) == pytest.approx(1.0)
        assert gaussian_lp_norm(4) == pytest.approx(3 ** 0.25)
        assert gaussian_lp_norm(6) == pytest.approx(15 ** (1 / 6))

    def test_gaussian_norm_at_huge_orders(self):
        # past p = 1e300 log Gamma((p+1)/2) overflows; the norm stays finite
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for p in (1e299, 1e300, 1e307, 1.7e308):
                q = mpmath.mpf(p)
                exact = mpmath.sqrt(2) * mpmath.exp(
                    (mpmath.loggamma((q + 1) / 2) - mpmath.log(mpmath.pi) / 2) / q)
                assert gaussian_lp_norm(p) == pytest.approx(float(exact), rel=1e-13)

    def test_lyapunov_enforced(self):
        with pytest.raises(ValueError):
            MomentCurve.analytic([2, 3], [1.0, 0.5])

    def test_lyapunov_mc_slack(self):
        prov = {"kind": "monte_carlo", "seed": 0, "replications": 100}
        MomentCurve((2.0, 3.0), (1.0, 0.97), provenance=prov, stderr=(0.02, 0.02))
        with pytest.raises(ValueError):
            MomentCurve((2.0, 3.0), (1.0, 0.5), provenance=prov, stderr=(0.02, 0.02))

    def test_from_samples_jackknife(self):
        rng = np.random.default_rng(7)
        curve = MomentCurve.from_samples(rng.standard_normal(200000), [2, 4, 6])
        for p in (2, 4, 6):
            assert curve.value_at(p) == pytest.approx(gaussian_lp_norm(p), abs=4 * curve.stderr_at(p) + 1e-3)

    def test_group_jackknife_of_a_mean_is_batch_means(self):
        # for a statistic linear in the sums, over G groups of equal size, the
        # leave-one-group-out values average to the all-rows value, and their
        # spread is the group means' sd(ddof=1) / sqrt(G)
        rng = np.random.default_rng(24)
        G, m = 16, 50
        x = rng.standard_normal((G, m))
        value, debiased, se = _group_jackknife(lambda sums, n: sums / n, x.sum(axis=1), np.full(G, m))
        assert value == pytest.approx(x.mean(), rel=1e-12)
        assert debiased == pytest.approx(x.mean(), rel=1e-12)
        assert se == pytest.approx(x.mean(axis=1).std(ddof=1) / math.sqrt(G), rel=1e-12)

    def test_json_roundtrip(self):
        prov = {"kind": "monte_carlo", "seed": 3, "replications": 50}
        c = MomentCurve((2.0, 4.0), (1.0, 1.3), provenance=prov, stderr=(0.01, 0.02))
        back = MomentCurve.from_dict(json.loads(c.to_json()))
        assert back.norms == c.norms and back.stderr == c.stderr
        assert back.provenance == prov


class TestGlsNorm:
    def test_degenerate_is_fixed_order_norm_exactly(self):
        curve = MomentCurve.standard_gaussian([2, 3, 4, 6, 8])
        for r in (2.0, 3.0, 6.0):
            psi_r = PsiFunction.degenerate(r, support=(1.5, 16))
            assert gls_norm(curve, psi_r) == curve.value_at(r)  # tolerance 0

    def test_zero_curve(self):
        assert gls_norm(MomentCurve.zero([2, 4]), PsiFunction.closed_power(2, (1.5, 16))) == 0.0

    def test_gaussian_against_formula_oracle(self):
        grid = (2.0, 4.0, 6.0, 8.0)
        curve = MomentCurve.standard_gaussian(grid)
        psi = PsiFunction.closed_power(2)
        # oracle: grid max of |Z|_p / psi(p) under the same support semantics
        expected = max(gaussian_lp_norm(p) / p ** 0.5 for p in grid if 2.0 < p)
        assert gls_norm(curve, psi) == pytest.approx(expected, rel=1e-14)

    def test_empty_overlap(self):
        curve = MomentCurve.standard_gaussian([2, 3])
        with pytest.raises(EmptySupportOverlap):
            gls_norm(curve, PsiFunction.closed_power(2, support=(4, 8)))


    @pytest.mark.parametrize("psi", [PsiFunction.closed_power(2.0),
                                     PsiFunction.degenerate(4.0, (2.5, 6.0)),
                                     PsiFunction.tabulated([2.0, 4.0], [1.0, 1.0]),
                                     PsiFunction.closed_power(1.0, (1.5, 16.0))],
                             ids=["power", "degenerate", "tabulated-ties", "power-zero"])
    def test_standard_error_at_last_attaining_order(self, psi):
        """gls_norm(..., with_se=True) against the running-max loop it replaced."""
        prov = {"kind": "monte_carlo", "seed": 0, "replications": 10}
        grid = (2.0, 3.0, 4.0, 6.0)
        for norms in ((1.0, 1.0, 1.0, 1.2), (0.0, 0.0, 0.0, 0.0), (1.0, 1.2, 1.5, 1.8)):
            curve = MomentCurve(grid, norms, provenance=prov, stderr=(0.1, 0.2, 0.3, 0.4))
            weights = psi.value_array(np.asarray(grid))
            best, best_se = 0.0, 0.0
            for k, (v, w) in enumerate(zip(norms, weights)):
                if not math.isinf(w) and v / w >= best:
                    best, best_se = v / w, curve.stderr[k] / w
            assert gls_norm(curve, psi, with_se=True) == (best, best_se)
        assert gls_norm(MomentCurve.analytic(grid, (1.0, 1.1, 1.2, 1.3)), psi,
                        with_se=True)[1] == 0.0


class TestSubqNorm:
    def test_zero_and_single_point(self):
        assert subq_norm(MomentCurve.zero([2, 4]), 3.0) == 0.0
        one = MomentCurve.analytic([2.0], [2 ** (1 / 3)])
        assert subq_norm(one, 3.0) == pytest.approx(1.0)

    def test_gaussian_against_dense_grid(self):
        dense = np.linspace(2, 200, 4000)
        oracle = float(np.max(gaussian_lp_norm(dense) / dense ** 0.5))
        got = subq_norm(MomentCurve.standard_gaussian(dense), 2.0)
        assert got == pytest.approx(oracle, rel=1e-13)
        # the coarse-grid value is a lower bound of the dense one
        coarse = subq_norm(MomentCurve.standard_gaussian([2, 4, 6, 8]), 2.0)
        assert coarse <= oracle + 1e-12

    def test_needs_p_at_least_two(self):
        with pytest.raises(EmptySupportOverlap):
            subq_norm(MomentCurve.analytic([1.5], [1.0]), 2.0)


class TestRosenthalTransform:
    def test_values(self):
        psi = PsiFunction.closed_power(1)
        psi_r = rosenthal_transform(psi)
        e = math.e
        assert psi_r.value(e) == pytest.approx(e * psi.value(e), rel=1e-12)
        assert psi_r.value(4.0) == pytest.approx((4 / math.log(4)) * 4.0, rel=1e-12)
        assert psi_r.value(4.0) == pytest.approx(11.541560327111707, rel=1e-9)

    def test_ratio_at_least_e(self):
        psi = PsiFunction.closed_power(2)
        psi_r = rosenthal_transform(psi)
        for p in np.linspace(2.01, 900, 200):
            ratio = psi_r.value(p) / psi.value(p)
            assert ratio == pytest.approx(p / math.log(p), rel=1e-12)
            assert ratio >= math.e
            assert psi.value(p) <= math.e * psi_r.value(p)

    def test_invalid_support(self):
        bad = PsiFunction.closed_power(2, support=(1.0, 8.0))
        object.__setattr__(bad, "support_low", 0.9)  # corrupt past validation
        with pytest.raises(InvalidSupport):
            rosenthal_transform(bad)


class TestPsiLowerStar:
    def test_closed_forms(self):
        assert psi_lower_star(PsiFunction.closed_power(1), 10.0) == \
            pytest.approx(1 + math.log(10), abs=1e-9)
        assert psi_lower_star(PsiFunction.closed_power(2), 2.0) == \
            pytest.approx(0.5 * (1 + math.log(4)), abs=1e-9)

    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0, 4.0])
    def test_grid_matches_dense_oracle(self, q):
        psi = PsiFunction.closed_power(q)
        for x in (0.0, 0.7, 3.0, 40.0, 100.0):
            got = psi_lower_star(psi, x, method="grid")
            assert got == pytest.approx(dense_lower_star(psi, x), abs=5e-7)

    @pytest.mark.parametrize("method", ["gird", "Grid", "exact", ""])
    @pytest.mark.parametrize("psi", [PsiFunction.closed_power(2),
                                     PsiFunction.tabulated([2, 3, 4], [1.2, 1.3, 1.5])],
                             ids=["power", "tabulated"])
    def test_unknown_method_rejected(self, psi, method):
        # a misspelt method once took the exact path without a word
        with pytest.raises(ValueError, match=f"method must be auto, closed or grid, got {method!r}"):
            psi_lower_star(psi, 1.0, method=method)

    def test_degenerate_is_linear(self):
        psi = PsiFunction.degenerate(4, support=(2, 8))
        for x in (0.0, 1.0, 9.0):
            assert psi_lower_star(psi, x) == pytest.approx(x / 4.0)

    def test_x_zero_bounded_below_by_log_inf(self):
        # for an increasing power shape the infimum sits at the lower support
        # edge; for a tabulated shape it is attained on the grid
        cases = [(PsiFunction.closed_power(2), 2.0 ** 0.5),
                 (PsiFunction.tabulated([2, 3, 4], [1.2, 1.3, 1.5]), 1.2)]
        for psi, inf_psi in cases:
            v = psi_lower_star(psi, 0.0)
            assert v >= math.log(inf_psi) - 1e-6

    @pytest.mark.parametrize("psi", [
        PsiFunction.closed_power(1),
        rosenthal_transform(PsiFunction.closed_power(2)),
        PsiFunction.tabulated(list(np.linspace(2.1, 30, 24)),
                              list(np.linspace(2.1, 30, 24) ** 0.5)),
    ], ids=["power", "rescaled", "tabulated"])
    def test_concave_nondecreasing(self, psi):
        xs = np.linspace(0.0, 25.0, 41)
        vals = np.array([psi_lower_star(psi, x, method="grid") for x in xs])
        assert np.all(np.diff(vals) >= -1e-9)
        second = np.diff(vals, 2)
        assert np.all(second <= 1e-7)


LOWER_STAR_SHAPES = {
    "power": (PsiFunction.closed_power(2.0), "auto"),
    "power-clamped": (PsiFunction.closed_power(0.5, support=(2.0, 9.0)), "auto"),
    "power-grid": (PsiFunction.closed_power(2.0), "grid"),
    "degenerate": (PsiFunction.degenerate(4, support=(2, 8)), "auto"),
    "tabulated": (PsiFunction.tabulated([2.1, 3.0, 5.0, 9.0], [1.2, 1.3, 1.6, 2.4]), "auto"),
    "scaled": (PsiFunction.tabulated([2.1, 3.0, 5.0], [1.2, 1.3, 1.6]).scaled(0.4), "auto"),
    "rosenthal": (rosenthal_transform(
        PsiFunction.tabulated([2.1, 3.0, 5.0, 9.0], [1.2, 1.3, 1.6, 2.4])), "auto"),
}


class TestBatchedLowerStar:
    # 0, repeats, both sides of the clamps of the power shapes (q*x = 2 and 9)
    XS = np.array([0.0, 3.0, 0.0, 1.5, 3.0, 4.0, 4.0, 17.5, 18.0, 25.0, 0.25, 60.0])

    @pytest.mark.parametrize("name", sorted(LOWER_STAR_SHAPES))
    def test_array_equals_scalar_calls(self, name):
        psi, method = LOWER_STAR_SHAPES[name]
        got = psi_lower_star(psi, self.XS, method=method)
        assert isinstance(got, np.ndarray) and got.shape == self.XS.shape
        want = [psi_lower_star(psi, float(x), method=method) for x in self.XS]
        assert all(isinstance(w, float) for w in want)
        assert got.tolist() == want

    def test_clamped_power_hits_both_ends(self):
        psi = PsiFunction.closed_power(0.5, support=(2.0, 9.0))
        got = psi_lower_star(psi, np.array([1.0, 60.0]))
        assert got.tolist() == pytest.approx([1.0 / 2.0 + 2.0 * math.log(2.0),
                                              60.0 / 9.0 + 2.0 * math.log(9.0)])

    def test_empty_and_bad_shapes(self):
        assert psi_lower_star(PsiFunction.closed_power(1), np.array([])).shape == (0,)
        with pytest.raises(ValueError):
            psi_lower_star(PsiFunction.closed_power(1), np.ones((2, 2)))
        with pytest.raises(ValueError):
            psi_lower_star(PsiFunction.closed_power(1), np.array([1.0, -1.0]))


TAB = PsiFunction.tabulated([2.0, 2.5, 3.0, 4.0, 6.0, 8.0], [1.0, 1.1, 1.25, 1.4, 1.7, 2.0])
ORACLE_SHAPES = {
    "power": PsiFunction.closed_power(2.0),
    # q*x = x/2 meets both ends of the support (2, 9) over ORACLE_XS
    "power-both-clamps": PsiFunction.closed_power(0.5, support=(2.0, 9.0)),
    "tabulated": TAB,
    "tabulated-decreasing-piece": PsiFunction.tabulated([2.0, 3.0, 4.0, 8.0],
                                                        [1.5, 1.2, 1.3, 2.0]),
    "scaled": PsiFunction.closed_power(2.0).scaled(1.5),
    "rosenthal-tabulated": rosenthal_transform(TAB),
    "rosenthal-power": rosenthal_transform(PsiFunction.closed_power(2.0)),
    "rosenthal-degenerate": rosenthal_transform(PsiFunction.degenerate(3.0)),
    # the left end is t = log 1 = 0, where psi_R is infinite
    "rosenthal-power-from-one": rosenthal_transform(PsiFunction.closed_power(2.0, (1.0, 8.0))),
    "rosenthal-rosenthal": rosenthal_transform(rosenthal_transform(TAB)),
    "rosenthal-decreasing": rosenthal_transform(
        PsiFunction.tabulated([2.0, 3.0, 9.0], [5.0, 1.0, 0.9])),
    # k has three monotone parts on the one piece; at y = 2.219 it has three zeros
    "rosenthal-three-parts": rosenthal_transform(
        PsiFunction.tabulated([2.0, 50.0], [10.0, 10.0 * 25.0 ** -0.8])),
}
ORACLE_XS = [0.0, 0.3, 1.0, 4.0, 25.0, 300.0]
ORACLE_YS = [-1.0, 0.0, 0.5, 1.0, 2.0, 2.219, 2.25, 3.0]


class TestExactTransforms:
    """Both transforms against mpmath, on every kind of piece."""

    @pytest.mark.parametrize("name", sorted(ORACLE_SHAPES))
    def test_lower_star_within_two_ulp(self, name):
        pytest.importorskip("mpmath")
        psi = ORACLE_SHAPES[name]
        for x in ORACLE_XS:
            got, exact = psi_lower_star(psi, x), mp_lower_star(psi, x)
            if exact == 0:
                assert got == 0.0, (x, got)
            else:
                assert abs(got - exact) <= 2 * math.ulp(float(exact)), (x, got, exact)

    @pytest.mark.parametrize("name", sorted(ORACLE_SHAPES))
    def test_conjugate_within_1e14(self, name):
        pytest.importorskip("mpmath")
        psi = ORACLE_SHAPES[name]
        for y in ORACLE_YS:
            got, exact = psi_bar_conjugate(psi, y), mp_conjugate(psi, y)
            assert abs(got - exact) <= 1e-14 * max(abs(exact), 1.0), (y, got, exact)


class TestNonFiniteArguments:
    """Each transform names the argument that is not finite."""

    PSI = PsiFunction.closed_power(2.0)

    @pytest.mark.parametrize("call,name", [
        (lambda psi: psi_lower_star(psi, math.nan), "x"),
        (lambda psi: psi_lower_star(TAB, math.nan), "x"),
        (lambda psi: psi_lower_star(psi, math.inf), "x"),
        (lambda psi: psi_lower_star(TAB, np.array([1.0, math.inf])), "x"),
        (lambda psi: psi_bar_conjugate(psi, math.inf), "y"),
        (lambda psi: psi_bar_conjugate(psi, math.nan), "y"),
        (lambda psi: log_orlicz_n_function(psi, math.inf), "u"),
        (lambda psi: orlicz_n_function(psi, math.nan), "u"),
        (lambda psi: gls_tail_bound(psi, 1.0, math.inf), "u"),
        (lambda psi: gls_tail_bound(psi, 1.0, math.nan), "u"),
        (lambda psi: gls_tail_bound(psi, math.nan, 2.0), "norm"),
        (lambda psi: gls_tail_bound(psi, math.inf, 2.0), "norm"),
    ], ids=["lower-power-nan", "lower-tabulated-nan", "lower-inf", "lower-array-inf",
            "conjugate-inf", "conjugate-nan", "log-orlicz-inf", "orlicz-nan", "tail-u-inf",
            "tail-u-nan", "tail-norm-nan", "tail-norm-inf"])
    def test_raises_naming_the_argument(self, call, name):
        with pytest.raises(ValueError, match=f"^{name}( value)? must be finite"):
            call(self.PSI)


class TestYoungFenchel:
    def test_interior_maximum(self):
        assert young_fenchel(lambda x: x * x / 2, 4.0) == pytest.approx(8.0, abs=1e-8)

    def test_boundary_maximum(self):
        assert young_fenchel(lambda x: x * x / 2, 1.0) == pytest.approx(0.0, abs=1e-9)

    def test_linear_gives_zero(self):
        c = 1.7
        assert young_fenchel(lambda x: c * x, c) == pytest.approx(0.0, abs=1e-9)

    def test_matches_dense_oracle(self):
        g = lambda x: (x / 2) * math.log(x)
        for y in (0.5, 2.0, 8.0):
            assert young_fenchel(g, y) == pytest.approx(dense_conjugate(g, y), rel=1e-7)

    @settings(max_examples=60, deadline=None)
    @given(x=st.floats(2.0, 900.0), y=st.floats(-3.0, 6.0))
    def test_fenchel_inequality(self, x, y):
        g = lambda t: (t / 2) * math.log(t)
        assert x * y <= g(x) + young_fenchel(g, y) + 1e-7

    def test_convex_in_y(self):
        g = lambda t: (t / 2) * math.log(t)
        ys = np.linspace(-2, 6, 33)
        vals = np.array([young_fenchel(g, y) for y in ys])
        assert np.all(np.diff(vals, 2) >= -1e-6)


class TestTailBound:
    def test_clamps_to_one_below_norm(self):
        psi = PsiFunction.closed_power(2)
        assert gls_tail_bound(psi, 1.0, 0.5) == 1.0
        assert gls_tail_bound(psi, 1.0, 1.0) == 1.0

    def test_against_grid_sup_oracle(self):
        psi = PsiFunction.closed_power(2)
        u = math.exp(8.0)
        got = psi_bar_conjugate(psi, math.log(u))
        oracle = dense_conjugate(lambda x: (x / 2) * math.log(x), 8.0)
        assert got == pytest.approx(oracle, rel=1e-9)
        assert gls_tail_bound(psi, 1.0, u) == pytest.approx(min(1.0, 2 * math.exp(-oracle)))

    def test_degenerate_conjugate_is_single_point(self):
        psi = PsiFunction.degenerate(4, support=(2, 8))
        y = 1.3
        assert psi_bar_conjugate(psi, y) == pytest.approx(4 * y - 4 * math.log(1.0))

    def test_monte_carlo_gaussian_tail_dominated(self):
        grid = np.linspace(2, 64, 200)
        curve = MomentCurve.standard_gaussian(grid)
        psi = PsiFunction.closed_power(2)
        norm = gls_norm(curve, psi)
        rng = np.random.default_rng(20260808)
        z = np.abs(rng.standard_normal(1_000_000))
        for u in (3.0, 4.0):
            emp = float((z > u).mean())
            se = math.sqrt(emp * (1 - emp) / z.size)
            assert emp <= gls_tail_bound(psi, norm, u) + 3 * se

    def test_tiny_u_is_one(self):
        # conj(log u) is about -1381 at u = 1e-300: exp(1381) would overflow
        assert gls_tail_bound(PsiFunction.closed_power(2), 1.0, 1e-300) == 1.0

    def test_monotone_nonincreasing_and_below_one(self):
        psi = PsiFunction.closed_power(2)
        us = np.geomspace(0.5, 1e6, 40)
        vals = [gls_tail_bound(psi, 1.0, float(u)) for u in us]
        assert all(v <= 1.0 for v in vals)
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


class TestOrliczN:
    def test_zero(self):
        assert orlicz_n_function(PsiFunction.closed_power(2), 0.0) == 0.0

    def test_continuity_at_stitch(self):
        psi = PsiFunction.closed_power(2)
        e2 = math.exp(2.0)
        below = orlicz_n_function(psi, e2 * (1 - 1e-9))
        above = orlicz_n_function(psi, e2 * (1 + 1e-9))
        assert below == pytest.approx(above, rel=1e-6)

    def test_large_argument_log_value(self):
        psi = PsiFunction.closed_power(2)
        oracle = dense_conjugate(lambda x: (x / 2) * math.log(x), 8.0)
        assert log_orlicz_n_function(psi, math.exp(8.0)) == pytest.approx(oracle, rel=1e-9)
        # the raw N overflows float range there and reports +inf
        assert math.isinf(orlicz_n_function(psi, math.exp(8.0)))

    def test_even(self):
        psi = PsiFunction.closed_power(1)
        assert orlicz_n_function(psi, -3.0) == orlicz_n_function(psi, 3.0)
