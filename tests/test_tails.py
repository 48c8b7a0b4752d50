"""Tail functions and the uniform-sum tail transform."""
import math
import warnings

import numpy as np
import pytest
from scipy.special import gamma, gammaincc, gammaln

from uclt.errors import UcltError

from uclt.tails import (
    MIN_SHAPE,
    Q_MAX_TERMS,
    TailFunction,
    _log1pmx,
    _upper_gamma_q,
    fit_tail_constant,
    uniform_sum_tail_bound,
    subq_tail_equivalence,
    tail_second_moment,
    w_operator,
    weibull_sum_bound,
)


def ulp_error(got, exact):
    """|got - exact| in ulps of `exact` rounded to a double (the ulp of 0 is
    the least subnormal); beyond float range only +inf has error 0."""
    import mpmath
    bound = float(exact)
    if math.isinf(bound):
        return 0.0 if got == math.inf else math.inf
    return float(abs(mpmath.mpf(got) - exact) / math.ulp(bound))


def exact_q(s, x):
    """Q(s, x) to 40 digits at the double x."""
    import mpmath
    with mpmath.workdps(40):
        return mpmath.gammainc(s, x, mpmath.inf, regularized=True)


def exact_second_moment(T, v):
    """K**2 Gamma(s) Q(s, x) to 40 digits at the double x the program forms."""
    import mpmath
    K, q = T.scale, T.shape
    s = 1.0 + 2.0 / q
    x = (max(v, 0.0) / K) ** q
    with mpmath.workdps(40):
        return mpmath.mpf(K) ** 2 * mpmath.gamma(s) * exact_q(s, x)


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


def exact_minima(T, x):
    """(v, bracket) at each local minimum over v of the transform's bracket,
    to 40 digits at the doubles T and x.  Pure-jump forms: every jump above
    0, and v -> 0+ (as v = 0).  closed_weibull(K, q): the bracket's
    v-derivative is x**2/(4 v**3) e**(-x**2/8v**2) - q K (v/K)**(q+1)
    e**(-(v/K)**q), so its sign is that of the log ratio d(u) of the two
    terms at v = e**u.  d is scanned in double precision over a u range
    wide enough for both terms (steps of 1e-3), and each - to + change is
    refined in mpmath."""
    import mpmath
    with mpmath.workdps(40):
        x = mpmath.mpf(x)
        if T.form != "closed_weibull":
            jumps = [(mpmath.mpf(y), mpmath.mpf(m)) for y, m in T.jumps()]
            m2 = lambda v: mpmath.fsum(y * y * m for y, m in jumps if y > v)
            return [(0, m2(0))] + [(y, mpmath.exp(-x * x / (8 * y * y)) + m2(y))
                                   for y, _ in jumps if y > 0]
        K, q = mpmath.mpf(T.scale), mpmath.mpf(T.shape)
        s = 1 + 2 / q

        def d(u):
            v = mpmath.exp(u)
            return (mpmath.log(x * x / 4) - 3 * u - x * x / (8 * v * v)
                    - mpmath.log(q * K) - (q + 1) * (u - mpmath.log(K)) + (v / K) ** q)
        xf, lk, qf = float(x), math.log(T.scale), T.shape
        us = np.arange(min(math.log(xf), lk) - 12.0,
                       max(math.log(xf), lk) + 12.0 + math.log(2000.0) / qf, 1e-3)
        with np.errstate(all="ignore"):
            ds = (math.log(xf * xf / 4) - 3 * us - xf * xf * np.exp(-2 * us) / 8
                  - math.log(qf * T.scale) - (qf + 1) * (us - lk) + np.exp(qf * (us - lk)))
        out = []
        for i in np.flatnonzero((ds[:-1] <= 0) & (ds[1:] > 0)):
            v = mpmath.exp(mpmath.findroot(d, (us[i], us[i + 1]), solver="anderson"))
            m2 = K * K * mpmath.gamma(s) * mpmath.gammainc(s, (v / K) ** q, mpmath.inf,
                                                            regularized=True)
            out.append((v, mpmath.exp(-x * x / (8 * v * v)) + m2))
        return out


def exact_w(T, x):
    """W[T](x) to 40 digits: the least of 1 and the brackets of `exact_minima`."""
    import mpmath
    return min([mpmath.mpf(1)] + [f for _, f in exact_minima(T, x)])


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

    @pytest.mark.parametrize("make,match", [
        (lambda: TailFunction.closed_weibull(math.inf, 2.0), "K must be a finite number"),
        (lambda: TailFunction.closed_weibull(1.0, math.inf), "q must be a finite number"),
        (lambda: TailFunction.closed_weibull(math.nan, 2.0), "K must be a finite number"),
        (lambda: TailFunction.tabulated([0.0, math.nan], [1.0, 0.0]), "x_grid must be a list"),
        (lambda: TailFunction.tabulated([0.0, 1.0], [1.0, math.nan]), "values must be a list"),
    ], ids=["K-inf", "q-inf", "K-nan", "x_grid-nan", "values-nan"])
    def test_rejects_non_finite_parameters(self, make, match):
        with pytest.raises(ValueError, match=match):
            make()

    def test_json_roundtrip(self):
        for T in (TailFunction.closed_weibull(2.0, 0.5), TailFunction.step(3.0),
                  TailFunction.degenerate_zero()):
            back = TailFunction.from_dict(T.to_dict())
            for x in (0.0, 0.5, 4.0):
                assert back.value(x) == T.value(x)


class TestSerialization:
    # every form against what to_dict wrote before it was read from the FORMS table
    @pytest.mark.parametrize("T,doc", [
        (TailFunction.closed_weibull(2.0, 0.5), {"form": "closed_weibull", "K": 2.0, "q": 0.5}),
        (TailFunction.step(3.0), {"form": "tabulated", "x_grid": [0.0, 3.0], "values": [1.0, 0.0]}),
        (TailFunction.tabulated([0.0, 0.5, 2.0], [1.0, 0.25, 0.0]),
         {"form": "tabulated", "x_grid": [0.0, 0.5, 2.0], "values": [1.0, 0.25, 0.0]}),
        (TailFunction.degenerate_zero(), {"form": "degenerate_zero"}),
    ], ids=["closed_weibull", "step", "tabulated", "degenerate_zero"])
    def test_dict_round_trip(self, T, doc):
        assert T.to_dict() == doc
        assert TailFunction.from_dict(T.to_dict()) == T

    @pytest.mark.parametrize("doc,match", [
        ({"form": "degenerate_zero", "K": 1.0}, "K is not a parameter of degenerate_zero"),
        ({"form": "tabulated", "x_grid": 3.0, "values": [0.0]}, "x_grid must be a list"),
        ({"form": "weibull", "K": 1.0, "q": 2.0}, "with a form of closed_weibull"),
        ({"form": ["closed_weibull"], "K": 1.0, "q": 2.0}, "with a form of closed_weibull"),
        ([1.0], "expected an object"),
    ])
    def test_from_dict_names_the_key(self, doc, match):
        with pytest.raises(ValueError, match=match):
            TailFunction.from_dict(doc)


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

    def test_weibull_ratio_beyond_float_range(self):
        # v/K overflows a double, (v/K)**q is about 1.003: the moment is
        # K**2 * Gamma(1e6 + 1) * Q, beyond float range, and W is 1
        T = TailFunction.closed_weibull(1e-300, 2e-6)
        assert tail_second_moment(T, 1e308) == math.inf
        assert w_operator(T, 1.7e308) == 1.0

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

    @pytest.mark.parametrize("T", TAILS, ids=lambda T: T.to_json())
    def test_rejects_nan_v(self, T):
        with pytest.raises(ValueError, match="v must be a number"):
            tail_second_moment(T, math.nan)
        assert tail_second_moment(T, math.inf) == 0.0

    def test_nonincreasing_and_continuous_in_v(self):
        T = TailFunction.closed_weibull(1.0, 1.0)
        vs = np.linspace(0, 8, 200)
        ms = np.array([tail_second_moment(T, float(v)) for v in vs])
        assert np.all(np.diff(ms) <= 1e-12)
        assert np.max(np.abs(np.diff(ms))) < 0.15  # no jumps on a fine grid


class TestVectorizedTransform:
    @pytest.mark.parametrize("T", TAILS, ids=lambda T: T.to_json())
    def test_moments_match_oracles(self, T):
        vs = np.concatenate(([-1.0, 0.0, 0.5, 1.0, 2.0, 4.0], np.geomspace(1e-4, 1e4, 97)))
        if T.form == "closed_weibull":
            pytest.importorskip("mpmath")
        for v in vs.tolist():
            m = tail_second_moment(T, v)
            assert isinstance(m, float)
            ref = scalar_second_moment(T, v)
            if T.form == "closed_weibull":
                # no further from the exact moment than scipy's formula, or 4 ulp
                exact = exact_second_moment(T, v)
                assert ulp_error(m, exact) <= max(ulp_error(ref, exact), 4.0)
            else:
                assert m == ref or abs(m - ref) <= 1e-15 * abs(ref)

    @pytest.mark.parametrize("T", TAILS, ids=lambda T: T.to_json())
    def test_transform_matches_scalar_objective(self, T):
        pytest.importorskip("mpmath")
        for x in (0.3, 1.5, 2.0, 6.0, 40.0):
            got, exact = w_operator(T, x), exact_w(T, x)
            if T.form == "closed_weibull":
                assert got == float(exact) or abs(got - float(exact)) <= 1e-12 * float(exact)
            else:
                assert ulp_error(got, exact) <= 1.0


# the Weibull shapes q of the accuracy checks, s = 1 + 2/q
GAMMA_QS = [0.005, 0.05, 0.5, 1.0, 1.5, 2.0, 6.0, 20.0]


def x_where_q_falls_to(s, level):
    """Least x (to bisection accuracy) above s + 1 with exact Q(s, x) <= level."""
    lo, hi = s + 1.0, 4.0 * (s + 1.0) + 800.0
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if exact_q(s, mid) > level else (lo, mid)
    return hi


class TestUpperGammaQ:
    @pytest.mark.parametrize("q", GAMMA_QS)
    def test_no_less_accurate_than_scipy(self, q):
        # both branches (the series below x = s, the continued fraction from
        # s on), either side of s and of s + 1, Q subnormal and Q below the
        # least subnormal
        pytest.importorskip("mpmath")
        s = 1.0 + 2.0 / q
        xs = [0.0, s / 2.0, math.nextafter(s, 0.0), s, s + 1.0,
              math.nextafter(s + 1.0, math.inf), 2.0 * (s + 1.0),
              x_where_q_falls_to(s, 1e-315), x_where_q_falls_to(s, 1e-330)]
        for x in xs:
            exact = exact_q(s, x)
            mine, theirs = ulp_error(_upper_gamma_q(s, x), exact), ulp_error(gammaincc(s, x), exact)
            assert mine <= max(theirs, 4.0), (x, mine, theirs)
        assert _upper_gamma_q(s, 0.0) == 1.0
        assert _upper_gamma_q(s, xs[-1]) == 0.0

    @pytest.mark.parametrize("q", GAMMA_QS)
    def test_accuracy_over_the_normal_range(self, q):
        # wherever Q is a normal double: at most 8 ulp while Gamma(s) is finite
        # (5.6 ulp measured over 704 points per q); above s = 171 the prefix
        # exp(s (log1p(t) - t) + ...) carries about |ln Q| ulp more
        pytest.importorskip("mpmath")
        s = 1.0 + 2.0 / q
        top = x_where_q_falls_to(s, 1e-300)
        xs = np.concatenate((np.geomspace(1e-3 * (s + 1.0), top, 60),
                             np.linspace(0.5 * (s + 1.0), 1.5 * (s + 1.0), 41)))
        for x in xs.tolist():
            exact = exact_q(s, x)
            allowed = 8.0 if s < 171.0 else 8.0 + 4.0 * abs(math.log(float(exact)))
            assert ulp_error(_upper_gamma_q(s, x), exact) <= allowed, x

    def test_log1pmx_without_cancellation(self):
        # log1p(t) - t taken directly loses 234 ulp at t = -1e-3 and 8e7 at 1e-8
        mpmath = pytest.importorskip("mpmath")
        for t in (-0.999, -0.5, -0.3, -1e-3, -1e-8, 1e-8, 1e-3, 0.3, 0.4999, 0.5, 3.0, 1e6):
            with mpmath.workdps(40):
                exact = mpmath.log1p(t) - t
            assert ulp_error(_log1pmx(t), exact) <= 2.0, t
        assert _log1pmx(-1.0) == -math.inf

    def test_converges_at_the_least_shape(self):
        # s = 1 + 2/MIN_SHAPE is near 1e6; the term cap is first reached near
        # x = s at s = 1.7e6
        s = 1.0 + 2.0 / MIN_SHAPE
        xs = [s + k * 0.05 * math.sqrt(s) for k in range(-60, 61)]
        for x in xs + [math.nextafter(s, 0.0), s]:
            assert 0.0 <= _upper_gamma_q(s, x) <= 1.0
        with pytest.raises(ValueError, match="q >= 2e-06"):
            TailFunction.closed_weibull(1.0, 0.5 * MIN_SHAPE)

    def test_beyond_the_term_cap_raises(self):
        # near x = s the series and the fraction need about 9 sqrt(s) terms
        for x in (0.999e12, 1e12):
            with pytest.raises(UcltError, match=f"{Q_MAX_TERMS} terms"):
                _upper_gamma_q(1e12, x)


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

    @pytest.mark.parametrize("K", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("q", [0.05, 0.7, 1.0, 1.5, 2.0, 5.0])
    def test_weibull_against_mpmath(self, K, q):
        # 1e-12 relative of the exact infimum rounded to a double; 0.0 where
        # that underflows (q = 5 at x = 1e3)
        pytest.importorskip("mpmath")
        T = TailFunction.closed_weibull(K, q)
        for x in (1.5, 3.0, 10.0, 40.0, 1e3):
            got, exact = w_operator(T, x), float(exact_w(T, x))
            assert got == exact or abs(got - exact) <= 1e-12 * exact, (x, got, exact)

    @pytest.mark.parametrize("T", [T for T in TAILS if T.form != "closed_weibull"],
                             ids=lambda T: T.to_json())
    def test_jump_forms_against_mpmath(self, T):
        pytest.importorskip("mpmath")
        for x in (1.5, 3.0, 10.0, 40.0, 1e3):
            assert ulp_error(w_operator(T, x), exact_w(T, x)) <= 1.0, x

    def test_two_local_minima(self):
        # the bracket has a local minimum near v = 0.0291 and the least one
        # near v = 3010.8, beyond 1e4 x = 3000
        pytest.importorskip("mpmath")
        T = TailFunction.closed_weibull(2.0, 0.5)
        (v1, f1), (v2, f2) = exact_minima(T, 0.3)
        assert float(v1) == pytest.approx(0.0291, rel=1e-2) and float(f1) == pytest.approx(96.0, rel=1e-2)
        assert float(v2) == pytest.approx(3010.8, rel=1e-4) and float(f2) == 0.99999999890114068
        assert w_operator(T, 0.3) == pytest.approx(0.99999999890114068, rel=1e-12)

    @pytest.mark.parametrize("T", TAILS + [TailFunction.closed_weibull(K, q) for K in (1e-3, 1e3)
                                           for q in (0.05, 0.7, 2.0, 20.0)],
                             ids=lambda T: T.to_json())
    def test_extreme_x(self, T):
        xs = [1e-200, 1e-9, 0.3, 1.5, 10.0, 1e3, 1e8, 1e150, 1e200]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            ws = [w_operator(T, x) for x in xs]
        assert all(0.0 <= w <= 1.0 for w in ws)
        assert all(a >= b for a, b in zip(ws, ws[1:])), ws

    def test_rejects_nonpositive_x(self):
        with pytest.raises(ValueError):
            w_operator(TailFunction.step(1.0), 0.0)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_x(self, x):
        for T in (TailFunction.step(1.0), TailFunction.closed_weibull(1.0, 2.0)):
            with pytest.raises(ValueError, match="x must be finite and positive"):
                w_operator(T, x)
        if not x <= 1.0:  # nan and inf pass the x > 1 check
            with pytest.raises(ValueError, match="x must be finite and positive"):
                uniform_sum_tail_bound(TailFunction.step(1.0), x)


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
