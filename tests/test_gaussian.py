import math
import sys

import numpy as np
import pytest
from scipy import integrate
from scipy.special import ndtr

from levyexotic import (
    AsianContinuous,
    AsianGeometric,
    BarrierDownOutCall,
    Chooser,
    Compound,
    ForwardStart,
    LookbackFixed,
    MonitoringSchedule,
    bvn_cdf,
    closed_form_price,
    lemma1_contour_side,
    mvn_cdf,
)
from levyexotic.errors import DimensionTooLarge, NotPSD
from levyexotic import contracts
from levyexotic.gaussian import _compound_cf_thresholds

# trivariate values frozen from an independent adaptive-quadrature
# conditioning oracle (nested scipy.integrate.quad, tolerance 1e-12)
TRIVARIATE_CASES = [
    ([0.5, -0.2, 0.8], [[1, 0.4, 0.2], [0.4, 1, -0.3], [0.2, -0.3, 1]], 0.256620994478),
    ([0.2, 1.1, -0.4], [[1, 0.7, 0.5], [0.7, 1, 0.6], [0.5, 0.6, 1]], 0.271039945092),
    ([-1.0, 0.0, 1.5], [[1, -0.5, 0.1], [-0.5, 1, 0.3], [0.1, 0.3, 1]], 0.030967791938),
]


def brute_bivariate(a, b, rho):
    s = math.sqrt(1.0 - rho * rho)
    f = lambda x: math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi) * ndtr((b - rho * x) / s)
    val, _ = integrate.quad(f, -10.0, min(a, 10.0), limit=500, epsabs=1e-13, epsrel=1e-13)
    return val


class TestMvnCdf:
    def test_independent_trivariate(self):
        assert mvn_cdf([0.0, 0.0, 0.0], np.eye(3)) == pytest.approx(0.125, abs=1e-10)

    def test_bivariate_exact_orthant(self):
        corr = np.array([[1.0, 0.5], [0.5, 1.0]])
        assert mvn_cdf([0.0, 0.0], corr) == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_total_mass(self):
        corr = np.array([[1.0, 0.3], [0.3, 1.0]])
        assert mvn_cdf([40.0, 40.0], corr) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("rho", [0.0, 0.3, -0.8, 0.925, 0.99, -0.99])
    def test_bivariate_against_brute_force(self, rho):
        for a, b in ((0.5, -0.3), (-1.2, 0.7), (0.0, 0.0)):
            assert float(bvn_cdf(np.array(a), np.array(b), rho)) == pytest.approx(
                brute_bivariate(a, b, rho), abs=5e-10
            )

    @pytest.mark.parametrize("d,corr,expected", TRIVARIATE_CASES)
    def test_trivariate_frozen_oracle(self, d, corr, expected):
        assert mvn_cdf(d, np.array(corr, dtype=float)) == pytest.approx(expected, abs=1e-8)

    def test_monotone_in_thresholds(self):
        corr = np.array([[1.0, 0.4, 0.2], [0.4, 1.0, -0.3], [0.2, -0.3, 1.0]])
        base = mvn_cdf([0.2, 0.1, -0.1], corr)
        assert mvn_cdf([0.5, 0.1, -0.1], corr) >= base
        assert mvn_cdf([0.2, 0.4, -0.1], corr) >= base
        assert 0.0 <= base <= 1.0

    def test_permutation_symmetry(self):
        corr = np.array([[1.0, 0.4, 0.2], [0.4, 1.0, -0.3], [0.2, -0.3, 1.0]])
        d = np.array([0.5, -0.2, 0.8])
        perm = [2, 0, 1]
        assert mvn_cdf(d[perm], corr[np.ix_(perm, perm)]) == pytest.approx(
            mvn_cdf(d, corr), abs=1e-9
        )

    def test_not_psd_rejected(self):
        bad = np.array([[1.0, 0.9], [0.95, 1.0]])
        with pytest.raises(NotPSD):
            mvn_cdf([0.0, 0.0], bad)
        with pytest.raises(NotPSD):
            mvn_cdf([0.0, 0.0], np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_dimension_cap(self):
        with pytest.raises(DimensionTooLarge):
            mvn_cdf(np.zeros(7), np.eye(7))


class TestLemma1:
    def test_univariate_center(self):
        got = lemma1_contour_side([0.0], np.eye(1), [1], [1.0])
        assert got == pytest.approx(0.5, abs=1e-8)

    def test_bivariate_mixed_signs(self):
        corr = np.array([[1.0, 0.3], [0.3, 1.0]])
        got = lemma1_contour_side([1.0, -0.5], corr, [1, -1], [0.8, 1.2])
        flipped = np.array([[1.0, -0.3], [-0.3, 1.0]])
        expected = -mvn_cdf([1.0, 0.5], flipped)
        assert got == pytest.approx(expected, abs=1e-7)

    def test_offset_invariance(self):
        corr = np.array([[1.0, 0.5], [0.5, 1.0]])
        a = lemma1_contour_side([0.4, -0.2], corr, [1, 1], [0.5, 0.5])
        b = lemma1_contour_side([0.4, -0.2], corr, [1, 1], [2.0, 1.0])
        assert a == pytest.approx(b, abs=1e-8)


class TestClosedForms:
    def test_forward_start_reference_value(self):
        fs = closed_form_price(ForwardStart(0.5, 1.5), 0.2, 0.05, 100.0)
        expected = 100.0 * (ndtr(0.35) - math.exp(-0.05) * ndtr(0.15))
        assert fs == pytest.approx(expected, abs=1e-12)
        assert fs == pytest.approx(0.1045 * 100.0, abs=2e-3)

    def test_one_fold_compound_is_black_scholes(self):
        price = closed_form_price(Compound(((1.0, 100.0, 1),)), 0.2, 0.05, 100.0)
        d1 = (0.05 + 0.02) / 0.2
        d2 = d1 - 0.2
        expected = 100.0 * ndtr(d1) - 100.0 * math.exp(-0.05) * ndtr(d2)
        assert price == pytest.approx(expected, abs=1e-12)
        assert price == pytest.approx(10.4506, abs=1e-4)

    def test_chooser_zero_strike_degenerates_to_asset(self):
        price = closed_form_price(Chooser(0.5, 1.0, 1e-8), 0.2, 0.05, 100.0)
        assert price == pytest.approx(100.0, rel=1e-6)

    def test_lookback_single_date_is_vanilla(self):
        sched = MonitoringSchedule(0.0, (1.0,))
        lb = closed_form_price(LookbackFixed(sched, 100.0), 0.2, 0.05, 100.0)
        vanilla = closed_form_price(Compound(((1.0, 100.0, 1),)), 0.2, 0.05, 100.0)
        assert lb == pytest.approx(vanilla, rel=1e-10)

    def test_barrier_single_date_is_vanilla(self):
        sched = MonitoringSchedule(0.0, (1.0,))
        bar = closed_form_price(BarrierDownOutCall(sched, 50.0, 100.0), 0.2, 0.05, 100.0)
        vanilla = closed_form_price(Compound(((1.0, 100.0, 1),)), 0.2, 0.05, 100.0)
        assert bar == pytest.approx(vanilla, rel=1e-10)

    def test_asian_reproduces_textbook_variance_factor(self):
        # equally spaced dates with the first fixing at valuation time: the
        # effective variance carries the (M-1)(2M-1)/(6M) sum
        m = 8
        h = 0.1
        # first fixing (numerically) at the valuation time
        sched = MonitoringSchedule(-1e-9, tuple(h * k + 1e-12 for k in range(m)))
        asian = AsianGeometric(sched, 100.0)
        price = closed_form_price(asian, 0.2, 0.05, 100.0)
        span = (m - 1) * h
        var = 0.2**2 * span * (2 * m - 1) / (6 * m)
        drift = (0.05 - 0.02) * span / 2.0
        disc = math.exp(-0.05 * (sched.expiry - sched.t))
        mlog = math.log(100.0) + drift
        v = math.sqrt(var)
        d_low = (mlog - math.log(100.0)) / v
        expected = disc * (math.exp(mlog + 0.5 * var) * ndtr(d_low + v) - 100.0 * ndtr(d_low))
        assert price == pytest.approx(expected, rel=1e-6)

    def test_asian_continuous_variance_third(self):
        asian = AsianContinuous(0.0, 1.0, 100.0)
        price = closed_form_price(asian, 0.2, 0.05, 100.0)
        var = 0.2**2 / 3.0
        drift = (0.05 - 0.02) / 2.0
        mlog = math.log(100.0) + drift
        v = math.sqrt(var)
        d_low = (mlog - math.log(100.0)) / v
        expected = math.exp(-0.05) * (
            math.exp(mlog + 0.5 * var) * ndtr(d_low + v) - 100.0 * ndtr(d_low)
        )
        assert price == pytest.approx(expected, rel=1e-12)

    def test_compound_closed_thresholds_monotone(self):
        legs = ((0.5, 5.0, 1), (1.0, 100.0, 1))
        thr = _compound_cf_thresholds(legs, 0.0, 0.2, 0.05)
        assert thr[-1] == 100.0
        assert 50.0 < thr[0] < 150.0

    def test_depth_three_compound_solves_each_threshold_once(self, monkeypatch):
        original = contracts._bracket_root
        solves = []

        def counted(objective, x0, xtol):
            solves.append(x0)
            return original(objective, x0, xtol)

        for name, module in list(sys.modules.items()):
            if name.startswith("levyexotic") and getattr(module, "_bracket_root", None) is original:
                monkeypatch.setattr(module, "_bracket_root", counted)
        comp = Compound(((0.25, 2.0, 1), (0.5, 4.0, 1), (1.0, 100.0, 1)))
        value = closed_form_price(comp, 0.2, 0.05, 100.0)
        assert solves == [4.0, 2.0]  # innermost first, the outer objective reuses it
        assert value == pytest.approx(5.413122969638287, rel=1e-12)
