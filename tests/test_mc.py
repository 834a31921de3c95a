import math

import numpy as np
import pytest

from levyexotic import (
    AsianContinuous,
    AsianGeometric,
    BarrierDownOutCall,
    Chooser,
    Compound,
    Digital,
    ForwardStart,
    LookbackFixed,
    MonitoringSchedule,
    PayoffParameterSet,
    make_cgmy,
    make_gaussian,
    make_nig,
    mc_price,
    price_contract,
    simulate_monitoring,
)
from levyexotic.errors import NestingTooDeep, UnsupportedContract, UnsupportedModel

GAUSS = make_gaussian(0.2, 0.05)
NIG = make_nig(8.0, -2.0, 0.3, 0.05)
SPOT = 100.0
SCHED2 = MonitoringSchedule(0.0, (0.5, 1.0))


class TestSimulation:
    def test_seed_reproducibility(self):
        a = simulate_monitoring(NIG, SCHED2, 50_000, 99)
        b = simulate_monitoring(NIG, SCHED2, 50_000, 99)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = simulate_monitoring(NIG, SCHED2, 1_000, 1)
        b = simulate_monitoring(NIG, SCHED2, 1_000, 2)
        assert not np.array_equal(a, b)

    def test_path_count_invariance(self):
        big = simulate_monitoring(GAUSS, SCHED2, 100_000, 5)
        small = simulate_monitoring(GAUSS, SCHED2, 1_234, 5)
        assert np.array_equal(small, big[:1_234])

    @pytest.mark.parametrize("model", [GAUSS, NIG], ids=["gaussian", "nig"])
    def test_martingale(self, model):
        n = 10**6
        x = simulate_monitoring(model, SCHED2, n, 42)
        disc = np.exp(-0.05) * np.exp(x[:, -1])
        stderr = disc.std() / math.sqrt(n)
        assert abs(disc.mean() - 1.0) <= 4.0 * stderr

    @pytest.mark.parametrize("model", [GAUSS, NIG], ids=["gaussian", "nig"])
    def test_empirical_characteristic_function(self, model):
        n = 10**6
        x = simulate_monitoring(model, SCHED2, n, 7)
        dx = x[:, 0]  # first increment, horizon 0.5
        for xi in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0):
            ecf = np.exp(1j * xi * dx).mean()
            target = np.exp(-0.5 * model.psi(complex(xi)))
            assert abs(ecf - target) <= 4.0 / math.sqrt(n)

    def test_cgmy_unsupported(self):
        model = make_cgmy(1.0, 5.0, 5.0, 0.5, 0.05)
        with pytest.raises(UnsupportedModel):
            simulate_monitoring(model, SCHED2, 100, 0)


class TestMcPrice:
    def test_certain_digital_has_zero_stderr(self):
        sched = MonitoringSchedule(0.0, (1.0,))
        p = PayoffParameterSet((0.0,), (-50.0,), (1,), ((1.0,),))
        res = mc_price(Digital(sched, p), GAUSS, SPOT, 50_000, 3)
        assert res.estimate == pytest.approx(math.exp(-0.05), abs=1e-12)
        assert res.stderr == pytest.approx(0.0, abs=1e-9)

    def test_stderr_keeps_digits_of_a_small_variance(self):
        # payoff S^1e-7: a mean near 1 with a spread near 1e-8, where a one-pass
        # E[X^2] - E[X]^2 cancels away most digits of the variance
        sched = MonitoringSchedule(0.0, (1.0,))
        p = PayoffParameterSet((1e-7,), (), (), ())
        n = 1 << 16
        res = mc_price(Digital(sched, p), GAUSS, SPOT, n, 5)
        x = simulate_monitoring(GAUSS, sched, n, 5)
        pay = math.exp(-0.05) * np.exp(1e-7 * (x[:, 0] + math.log(SPOT)))
        assert res.stderr == pytest.approx(pay.std() / math.sqrt(n), rel=1e-6)

    def test_vanilla_against_black_scholes(self):
        res = mc_price(Compound(((1.0, 100.0, 1),)), GAUSS, SPOT, 10**6, 17)
        assert abs(res.estimate - 10.450584) <= 3.0 * res.stderr

    def test_deterministic_given_seed(self):
        a = mc_price(ForwardStart(0.5, 1.0), NIG, SPOT, 100_000, 11)
        b = mc_price(ForwardStart(0.5, 1.0), NIG, SPOT, 100_000, 11)
        assert a.estimate == b.estimate
        assert a.stderr == b.stderr

    def test_nig_asian_adjudicates_leg_weights(self):
        # cross-oracle agreement settles the suffix-sum convention of the legs
        sched = MonitoringSchedule(0.0, (0.25, 0.5, 0.75, 1.0))
        contract = AsianGeometric(sched, 100.0)
        fourier = price_contract(contract, NIG, SPOT).value
        mc = mc_price(contract, NIG, SPOT, 10**6, 23)
        assert abs(fourier - mc.estimate) <= 3.0 * mc.stderr

    def test_compound_depth_two(self):
        comp = Compound(((0.5, 5.0, 1), (1.0, 100.0, 1)))
        fourier = price_contract(comp, GAUSS, SPOT).value
        mc = mc_price(comp, GAUSS, SPOT, 400_000, 31)
        assert abs(fourier - mc.estimate) <= 3.5 * mc.stderr

    @pytest.mark.parametrize("w1", [1, -1], ids=["call-on-put", "put-on-put"])
    def test_compound_on_put(self, w1):
        # Compound parity (call-on-X minus put-on-X) holds whichever side each
        # leg is exercised on, so it cannot tell a wrong exercise direction;
        # paths priced with the true inner put value can.
        comp = Compound(((0.5, 3.0, w1), (1.0, 100.0, -1)))
        fourier = price_contract(comp, GAUSS, SPOT).value
        mc = mc_price(comp, GAUSS, SPOT, 1 << 18, 7)
        assert abs(fourier - mc.estimate) <= 3.5 * mc.stderr

    def test_compound_depth_three_rejected(self):
        comp = Compound(((0.25, 2.0, 1), (0.5, 4.0, 1), (1.0, 100.0, 1)))
        with pytest.raises(NestingTooDeep):
            mc_price(comp, GAUSS, SPOT, 1000, 0)

    def test_unknown_contract_rejected(self):
        with pytest.raises(UnsupportedContract):
            mc_price(object(), GAUSS, SPOT, 1000, 0)

    def test_continuous_asian_near_closed_form(self):
        contract = AsianContinuous(0.0, 1.0, 100.0)
        fourier = price_contract(contract, GAUSS, SPOT).value
        mc = mc_price(contract, GAUSS, SPOT, 400_000, 13)
        # dense sub-stepping carries a small discretization bias
        assert abs(fourier - mc.estimate) <= 4.0 * mc.stderr + 1e-3

    @pytest.mark.parametrize("contract", [
        LookbackFixed(MonitoringSchedule(0.0, (1 / 3, 2 / 3, 1.0)), 100.0),
        BarrierDownOutCall(MonitoringSchedule(0.0, (1 / 3, 2 / 3, 1.0)), 80.0, 100.0),
        Chooser(0.5, 1.0, 100.0),
    ], ids=["lookback", "barrier", "chooser"])
    def test_gaussian_exotics_against_engine(self, contract):
        fourier = price_contract(contract, GAUSS, SPOT, tol=1e-5).value
        mc = mc_price(contract, GAUSS, SPOT, 400_000, 41)
        assert abs(fourier - mc.estimate) <= 3.5 * mc.stderr
