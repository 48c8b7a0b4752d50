"""Entropy integrals, tail classification and the condition classifiers."""
import math

import numpy as np
import pytest

from uclt.covering import FiniteMetricSpace
from uclt.integrals import (
    EntropyProfile,
    HolderEntropyModel,
    entropy_integral,
    exponent_comparison,
    holder_profile,
    integrand_trace,
    measure_profile,
    order_r_integral,
    pisier_condition,
    power_entropy_integral,
    moment_level_check,
    subq_level_check,
)
from uclt.psi import PsiFunction, psi_lower_star, rosenthal_transform

CASES = [(dim, alpha, r) for dim in (1, 2) for alpha in (0.5, 1.0) for r in (2.5, 3.0, 5.0)]


def flat_profile(diam=1.0):
    return EntropyProfile((diam, diam / 4, diam / 100), (0.0, 0.0, 0.0), diam, "exact")


class TestProfiles:
    def test_invariants(self):
        with pytest.raises(ValueError):
            EntropyProfile((0.5, 1.0), (1.0, 0.0), 1.0, "exact")  # ascending eps grid
        with pytest.raises(ValueError):
            EntropyProfile((1.0, 0.5), (0.5, 0.0), 1.0, "exact")  # H decreasing at smaller eps
        with pytest.raises(ValueError):
            EntropyProfile((1.0, 0.5), (1.0, 2.0), 1.0, "model")  # model without closed form

    def test_model_extrapolates_measured_clamps(self):
        model = holder_profile(1, 0.5, 1.0, 1.0)
        assert model.entropy_at(1e-8) == pytest.approx(2 * math.log(1e8))
        s = FiniteMetricSpace.grid_1d(21)
        meas = measure_profile(s, num=8, eps_min_frac=0.05)
        deep = meas.entropy_at(1e-9)
        assert deep == pytest.approx(meas.h_values[-1])

    def test_zero_above_diameter(self):
        model = holder_profile(2, 1.0, 3.0, 1.0)
        assert model.entropy_at(1.5) == 0.0

    def test_entropies_equal_one_interpolation_per_radius(self):
        # the array call interpolates once on the cached log grid; each value
        # must be bit for bit the per-radius interpolation on a fresh grid
        rng = np.random.default_rng(61)
        for _ in range(200):
            k, diam = int(rng.integers(1, 40)), float(rng.uniform(0.1, 10.0))
            grid = tuple(np.sort(rng.uniform(1e-4, 1.0, k) * diam)[::-1])
            hs = tuple(np.sort(rng.exponential(2.0, k)))
            try:
                prof = EntropyProfile(grid, hs, diam, "greedy")
            except ValueError:  # a repeated radius
                continue
            eps = np.concatenate((np.geomspace(1e-6 * diam, 2 * diam, 400), grid, [diam]))
            xs, ys = np.log(np.asarray(grid)[::-1]), np.asarray(hs)[::-1]
            want = [0.0 if e >= diam else float(np.interp(math.log(e), xs, ys, left=ys[0], right=ys[-1]))
                    for e in eps]
            assert prof.entropies(eps).tolist() == want
            assert [prof.entropy_at(float(e)) for e in eps[::37]] == want[::37]
        model = holder_profile(2, 0.5, 3.0, 1.0)
        eps = np.geomspace(1e-9, 2.0, 50)
        assert model.entropies(eps).tolist() == [
            0.0 if e >= 1.0 else model.model.entropy_at(float(e)) for e in eps]


class TestEntropyIntegral:
    def test_flat_entropy_constant_integrand(self):
        psi = PsiFunction.closed_power(2)
        prof = flat_profile()
        res = entropy_integral(prof, psi, nodes=4000, eps_lo_frac=1e-7)
        expect = prof.diameter * math.exp(psi_lower_star(psi, math.log(2.0)))
        assert res.value == pytest.approx(expect, rel=1e-4)
        assert res.verdict == "finite-at-resolution"

    def test_degenerate_reduces_to_scaled_order_r_integral(self):
        # with the degenerate shape at r the integrand is exactly
        # 2**(1/r) * N**(1/r)
        prof = holder_profile(1, 0.5, 1.0, 1.0)
        r = 3.0
        psi_r = PsiFunction.degenerate(r, support=(2.0, 8.0))
        a = entropy_integral(prof, psi_r, nodes=600)
        b = order_r_integral(prof, r, nodes=600)
        assert a.value == pytest.approx(2 ** (1 / r) * b.value, rel=1e-12)

    @pytest.mark.parametrize("dim,alpha,r", CASES)
    def test_holder_model_classification(self, dim, alpha, r):
        prof = holder_profile(dim, alpha, 1.0, 1.0)
        psi_r = PsiFunction.degenerate(r, support=(2.0, max(8.0, r + 2)))
        res = entropy_integral(prof, rosenthal_transform(psi_r))
        assert (res.verdict == "finite") == (alpha * r > dim)

    def test_monotone_in_entropy(self):
        psi = PsiFunction.closed_power(2)
        small = holder_profile(1, 1.0, 1.0, 1.0)
        big = holder_profile(2, 1.0, 1.0, 1.0)  # pointwise larger H
        vs = entropy_integral(small, psi).value
        vb = entropy_integral(big, psi).value
        assert vb >= vs

    def test_deeper_truncation_never_decreases(self):
        psi = PsiFunction.closed_power(2)
        prof = holder_profile(1, 1.0, 1.0, 1.0)
        shallow = entropy_integral(prof, psi, eps_lo_frac=1e-3).value
        deep = entropy_integral(prof, psi, eps_lo_frac=1e-6).value
        assert deep >= shallow


class TestTheorem21:
    def test_sigma_failure_takes_precedence(self):
        prof = holder_profile(2, 0.5, 1.0, 1.0)  # integral diverges for small r too
        v = moment_level_check(math.inf, prof, PsiFunction.degenerate(2.5, support=(2, 8)))
        assert v.conclusion == "hypothesis-failed(variance)"
        assert not v.satisfied

    def test_flat_profile_trivially_satisfied(self):
        v = moment_level_check(1.0, flat_profile(), PsiFunction.closed_power(2))
        assert v.satisfied

    @pytest.mark.parametrize("dim,alpha,r", CASES)
    def test_matches_analytic_rule_and_pisier(self, dim, alpha, r):
        prof = holder_profile(dim, alpha, 1.0, 1.0)
        psi_r = PsiFunction.degenerate(r, support=(2.0, max(8.0, r + 2)))
        v = moment_level_check(1.0, prof, psi_r)
        assert v.satisfied == (alpha * r > dim)
        pz = pisier_condition(prof, r)
        assert (pz.verdict == "finite") == v.satisfied

    def test_entropy_failure_conclusion(self):
        prof = holder_profile(2, 0.5, 1.0, 1.0)
        v = moment_level_check(1.0, prof, PsiFunction.degenerate(2.5, support=(2, 8)))
        assert v.conclusion == "hypothesis-failed(entropy-integral)"

    def test_json_round(self):
        v = moment_level_check(1.0, flat_profile(), PsiFunction.closed_power(2))
        doc = v.to_dict()
        assert {"condition", "value", "verdict", "resolution", "notes"} <= set(doc)


class TestTheorem22:
    def test_flat_is_zero_integral(self):
        v = subq_level_check(flat_profile(), 1.0, 1.0)
        assert v.integral.value == pytest.approx(0.0, abs=1e-12)
        assert v.satisfied

    def test_exponent_arithmetic(self):
        v = subq_level_check(flat_profile(), 2.0, 1.0)
        assert "exponent=1" in v.condition

    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_log_entropy_always_integrable(self, q, dim):
        prof = holder_profile(dim, 0.5, 1.0, 1.0)
        v = subq_level_check(prof, q, 1.0)
        assert v.satisfied

    def test_sigma_conjunction(self):
        v = subq_level_check(holder_profile(1, 1.0, 1.0, 1.0), 1.0, math.inf)
        assert v.conclusion == "hypothesis-failed(variance)"


class TestPisierCondition:
    def test_trivial_cover_gives_diameter(self):
        res = pisier_condition(flat_profile(), 2.0, nodes=4000, eps_lo_frac=1e-7)
        assert res.value == pytest.approx(1.0, rel=1e-4)

    @pytest.mark.parametrize("dim,alpha,r", CASES)
    def test_power_law_rule(self, dim, alpha, r):
        prof = holder_profile(dim, alpha, 1.0, 1.0)
        res = pisier_condition(prof, r)
        assert (res.verdict == "finite") == (alpha * r > dim)

    def test_r_validation(self):
        with pytest.raises(ValueError):
            pisier_condition(flat_profile(), 1.5)


class TestExponentComparison:
    def test_reports_both_powers(self):
        prof = holder_profile(1, 0.5, 1.0, 1.0)
        rep = exponent_comparison(prof, 2.0)
        assert rep["dependent_exponent"] == pytest.approx(1.0)
        assert rep["independent_exponent"] == pytest.approx(0.5)
        # larger power of an eventually-large entropy integrates to more
        assert rep["dependent"]["value"] >= rep["independent"]["value"]


class TestTrace:
    def test_rows_and_zero_tail_above_diameter(self):
        prof = holder_profile(1, 1.0, 0.5, 1.0)
        rows = integrand_trace(prof, r=2.0, nodes=50)
        assert len(rows) == 50
        eps, h, val = rows[-1]
        assert eps == pytest.approx(1.0)
        assert h == 0.0 and val == pytest.approx(1.0)  # exp(0)
        with pytest.raises(ValueError):
            integrand_trace(prof, r=2.0, power=1.0)

    @pytest.mark.parametrize("measured", [False, True], ids=["model", "measured"])
    def test_integral_keeps_its_trace(self, measured):
        prof = holder_profile(1, 0.5, 1.0, 1.0)
        if measured:
            prof = measure_profile(FiniteMetricSpace.grid_1d(12), num=8)
        psi = rosenthal_transform(PsiFunction.closed_power(2.0))
        rows = integrand_trace(prof, psi=psi, nodes=60)
        assert entropy_integral(prof, psi, nodes=60).trace() == rows
        assert order_r_integral(prof, 3.0, nodes=60).trace() == integrand_trace(prof, r=3.0,
                                                                               nodes=60)
