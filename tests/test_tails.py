"""Tail functions and the uniform-sum tail transform."""
import math

import numpy as np
import pytest
from scipy.special import gamma, gammaincc, gammaln

from uclt._gridopt import log_grid, minimize_on_grid

from uclt.tails import (
    TailFunction,
    fit_tail_constant,
    uniform_sum_tail_bound,
    subq_tail_equivalence,
    tail_second_moment,
    w_operator,
    weibull_sum_bound,
)


def weibull_second_moment_oracle(K, q, v):
    """Independent closed form via the upper incomplete gamma function."""
    return K * K * gammaincc(1 + 2 / q, (v / K) ** q) * gamma(1 + 2 / q)


def dense_w_oracle(K, q, x, nodes=100000):
    vs = np.geomspace(1e-4 * x, 1e4 * x, nodes)
    m2 = weibull_second_moment_oracle(K, q, vs)
    return float(min(1.0, np.min(np.exp(-x * x / (8 * vs * vs)) + m2)))


def scalar_second_moment(T, v):
    """One split point at a time, in math-module arithmetic."""
    v = max(v, 0.0)
    if T.form == "degenerate_zero":
        return 0.0
    if T.form == "tabulated":
        return float(sum(x * x * mass for x, mass in T.jumps() if x > v))
    s = 1.0 + 2.0 / T.shape
    upper = float(gammaincc(s, (v / T.scale) ** T.shape))
    if upper == 0.0:
        return 0.0
    try:
        return math.exp(2.0 * math.log(T.scale) + float(gammaln(s)) + math.log(upper))
    except OverflowError:
        return math.inf


def scalar_w(T, x, nodes=512):
    """The transform with one scalar objective call per scan node and golden step."""
    def objective(v):
        return math.exp(-x * x / (8.0 * v * v)) + scalar_second_moment(T, v)
    return min(1.0, minimize_on_grid(objective, log_grid(1e-4 * x, 1e4 * x, nodes))[1])


TAILS = [TailFunction.closed_weibull(1.0, 2.0), TailFunction.closed_weibull(2.0, 0.5),
         TailFunction.closed_weibull(1.5, 0.05), TailFunction.closed_weibull(1.0, 0.005),
         TailFunction.closed_weibull(0.7, 6.0), TailFunction.step(1.0),
         TailFunction.tabulated([0.0, 0.5, 1.0, 2.0, 4.0], [0.9, 0.5, 0.25, 0.05, 0.0]),
         TailFunction.degenerate_zero()]


class TestTailFunction:
    def test_shapes(self):
        T = TailFunction.closed_weibull(1.0, 2.0)
        assert T.value(0.0) == 1.0
        assert T.value(2.0) == pytest.approx(math.exp(-4.0))
        z = TailFunction.degenerate_zero()
        assert z.value(0.0) == 1.0 and z.value(1e-9) == 0.0
        s = TailFunction.step(1.0)
        assert s.value(0.999) == 1.0 and s.value(1.0) == 0.0  # right continuous

    def test_tabulated_validation(self):
        with pytest.raises(ValueError):
            TailFunction.tabulated([0.0, 1.0], [0.5, 1.0])  # increasing
        with pytest.raises(ValueError):
            TailFunction.tabulated([0.0, 1.0], [1.0, 0.5])  # does not decay
        T = TailFunction.tabulated([0.0, 0.5, 2.0], [1.0, 0.25, 0.0])
        assert T.value(0.7) == 0.25
        assert T.value(5.0) == 0.0

    def test_json_roundtrip(self):
        for T in (TailFunction.closed_weibull(2.0, 0.5), TailFunction.step(3.0),
                  TailFunction.degenerate_zero()):
            back = TailFunction.from_dict(T.to_dict())
            for x in (0.0, 0.5, 4.0):
                assert back.value(x) == T.value(x)


class TestSecondMoment:
    def test_degenerate_zero(self):
        assert tail_second_moment(TailFunction.degenerate_zero(), 0.5) == 0.0
        assert tail_second_moment(TailFunction.degenerate_zero(), 0.0) == 0.0

    @pytest.mark.parametrize("K,q,v", [(1, 2, 0.0), (1, 2, 1.3), (1, 1, 0.0),
                                       (2, 0.7, 0.5), (1, 4, 2.0), (1, 0.05, 0.0),
                                       (1, 0.05, 3.0)])
    def test_weibull_against_gamma_oracle(self, K, q, v):
        got = tail_second_moment(TailFunction.closed_weibull(K, q), v)
        assert got == pytest.approx(weibull_second_moment_oracle(K, q, v), rel=1e-8, abs=1e-12)

    def test_weibull_beyond_float_range(self):
        # K**2 * Gamma(401) overflows a double; the moment is reported as +inf
        T = TailFunction.closed_weibull(1.0, 0.005)
        assert tail_second_moment(T, 0.0) == math.inf
        assert w_operator(T, 2.0) == 1.0

    def test_weibull_against_inverse_cdf_monte_carlo(self):
        # sample Y with P(Y > y) = exp(-y**2) by inverting the tail
        rng = np.random.default_rng(314159)
        u = rng.random(1_000_000)
        y = np.sqrt(-np.log1p(-u))
        for v in (0.0, 0.8):
            emp = (y * y * (y > v)).mean()
            se = (y * y * (y > v)).std() / math.sqrt(y.size)
            got = tail_second_moment(TailFunction.closed_weibull(1.0, 2.0), v)
            assert got == pytest.approx(emp, abs=4 * se)

    def test_tabulated_jump_measure(self):
        T = TailFunction.tabulated([0.0, 1.0, 2.0], [1.0, 0.3, 0.0])
        # jumps: 0.7 at x=1, 0.3 at x=2
        assert tail_second_moment(T, 0.0) == pytest.approx(0.7 + 0.3 * 4)
        assert tail_second_moment(T, 1.0) == pytest.approx(1.2)  # strictly above v
        assert tail_second_moment(T, 5.0) == 0.0

    def test_nonincreasing_and_continuous_in_v(self):
        T = TailFunction.closed_weibull(1.0, 1.0)
        vs = np.linspace(0, 8, 200)
        ms = np.array([tail_second_moment(T, float(v)) for v in vs])
        assert np.all(np.diff(ms) <= 1e-12)
        assert np.max(np.abs(np.diff(ms))) < 0.15  # no jumps on a fine grid


class TestVectorizedTransform:
    @pytest.mark.parametrize("T", TAILS, ids=lambda T: T.to_json())
    def test_array_moments_match_scalar_calls(self, T):
        vs = np.concatenate(([-1.0, 0.0, 0.5, 1.0, 2.0, 4.0], np.geomspace(1e-4, 1e4, 97)))
        got = tail_second_moment(T, vs)
        assert isinstance(got, np.ndarray) and got.shape == vs.shape
        for v, m in zip(vs, got):
            one = tail_second_moment(T, float(v))
            assert isinstance(one, float)
            for ref in (one, scalar_second_moment(T, float(v))):
                assert m == ref or abs(m - ref) <= 1e-15 * abs(ref)

    @pytest.mark.parametrize("T", TAILS, ids=lambda T: T.to_json())
    def test_transform_matches_scalar_objective(self, T):
        for x in (0.3, 1.5, 2.0, 6.0, 40.0):
            ref = scalar_w(T, x)
            got = w_operator(T, x)
            assert got == ref or abs(got - ref) <= 1e-14 * abs(ref)


class TestWOperator:
    def test_degenerate_zero_tail(self):
        assert w_operator(TailFunction.degenerate_zero(), 3.0) == pytest.approx(0.0, abs=1e-300)

    def test_caps_at_one_for_tiny_x(self):
        assert w_operator(TailFunction.closed_weibull(1, 1), 1e-9) == 1.0

    @pytest.mark.parametrize("K,q,x", [(1, 1, 10.0), (1, 2, 6.0), (2, 0.5, 30.0)])
    def test_matches_dense_grid_oracle(self, K, q, x):
        got = w_operator(TailFunction.closed_weibull(K, q), x)
        assert got == pytest.approx(dense_w_oracle(K, q, x), rel=1e-6)

    def test_step_tail_closed_form(self):
        # all jump mass below v for v >= cutoff, so the optimum is the
        # Gaussian term at the cutoff
        T = TailFunction.step(1.0)
        for x in (1.5, 2.0, 3.0):
            assert w_operator(T, x) == pytest.approx(math.exp(-x * x / 8), rel=1e-9)

    def test_nonincreasing_in_x(self):
        T = TailFunction.closed_weibull(1, 2)
        xs = np.linspace(0.5, 20, 40)
        ws = [w_operator(T, float(x)) for x in xs]
        assert all(a >= b - 1e-12 for a, b in zip(ws, ws[1:]))

    def test_stable_under_grid_refinement(self):
        T = TailFunction.closed_weibull(1, 1)
        for x in (3.0, 10.0, 40.0):
            a = w_operator(T, x, nodes=512)
            b = w_operator(T, x, nodes=1024)
            assert abs(a - b) <= 1e-6 * max(a, 1e-300)

    def test_rejects_nonpositive_x(self):
        with pytest.raises(ValueError):
            w_operator(TailFunction.step(1.0), 0.0)


class TestLemmaBound:
    def test_delegates_to_transform(self):
        T = TailFunction.closed_weibull(1, 2)
        assert uniform_sum_tail_bound(T, 2.5) == w_operator(T, 2.5)

    def test_domain(self):
        with pytest.raises(ValueError):
            uniform_sum_tail_bound(TailFunction.step(1.0), 1.0)


class TestDecayClasses:
    def test_at_zero(self):
        assert weibull_sum_bound(1.0, 1.0, 0.0, 1.0) == 1.0

    def test_q_two_gives_exponential_class(self):
        # exponent 2q/(2+q) = 1 at q = 2
        assert weibull_sum_bound(1.0, 2.0, 5.0, 1.0) == pytest.approx(math.exp(-5.0))

    def test_exponent_identities(self):
        for q in (0.1, 0.5, 1.0, 2.0, 7.0, 50.0):
            e = 2 * q / (2 + q)
            assert e < q
        assert 2 * 1e9 / (2 + 1e9) == pytest.approx(2.0, abs=1e-8)

    def test_transform_decay_class(self):
        # the log-log slope of -log W over [10, 100] at least the structural
        # exponent minus tolerance
        for q in (1.0, 2.0):
            T = TailFunction.closed_weibull(1.0, q)
            xs = np.geomspace(10, 100, 10)
            logneg = np.log([-math.log(w_operator(T, float(x))) for x in xs])
            slope = float(np.polyfit(np.log(xs), logneg, 1)[0])
            assert slope >= 2 * q / (2 + q) - 0.05

    def test_monotone_in_scale(self):
        assert subq_tail_equivalence(2.0, 2.0, 3.0, 1.0) > subq_tail_equivalence(1.0, 2.0, 3.0, 1.0)

    def test_subq_near_one(self):
        c = 1e-4
        val = subq_tail_equivalence(1.0, 2.0, 1.0 + 1e-9, c)
        assert val == pytest.approx(math.exp(-c), rel=1e-6)

    def test_subq_domain(self):
        with pytest.raises(ValueError):
            subq_tail_equivalence(1.0, 2.0, 0.5, 1.0)


class TestFitConstant:
    def test_largest_dominating_constant(self):
        xs = [2.0, 3.0, 4.0]
        true_c = 0.4
        tails = [math.exp(-true_c * x ** 2) for x in xs]
        c = fit_tail_constant(xs, tails, 1.0, 2.0)
        assert c == pytest.approx(true_c, rel=1e-12)
        for x, t in zip(xs, tails):
            assert math.exp(-c * x ** 2) >= t - 1e-15

    def test_zero_tails_unconstrained(self):
        assert math.isinf(fit_tail_constant([2.0], [0.0], 1.0, 2.0))

    def test_gaussian_empirical_tails_dominated(self):
        rng = np.random.default_rng(2718)
        z = rng.standard_normal(1_000_000)
        xs = (2.0, 3.0, 4.0)
        tails = [max((z > x).mean(), (z < -x).mean()) for x in xs]
        c = fit_tail_constant(xs, tails, 1.0, 2.0)
        assert c > 0.4  # comfortably sub-Gaussian
        for x, t in zip(xs, tails):
            assert subq_tail_equivalence(1.0, 2.0, x, c) >= t - 1e-12
