import math
import multiprocessing
import os
import queue
import subprocess
import sys
import threading
import time

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
from levyexotic import digitals, mc
from levyexotic.errors import NestingTooDeep, UnsupportedContract, UnsupportedModel
from levyexotic.models import GaussianModel

GAUSS = make_gaussian(0.2, 0.05)
NIG = make_nig(8.0, -2.0, 0.3, 0.05)
SPOT = 100.0
SCHED2 = MonitoringSchedule(0.0, (0.5, 1.0))
SCHED3 = MonitoringSchedule(0.0, (1 / 3, 2 / 3, 1.0))
SCHED12 = MonitoringSchedule(0.0, tuple((k + 1) / 12 for k in range(12)))


def broadcast_block(model, deltas, seed, block):
    """Reference sampler: the block formula on full (BLOCK, M) temporaries."""
    rng = mc._block_rng(seed, block)
    size = (mc.BLOCK, deltas.shape[0])
    if isinstance(model, GaussianModel):
        z = rng.standard_normal(size)
        steps = model.mu * deltas + model.sigma * np.sqrt(deltas) * z
    else:
        eps = rng.standard_normal(size)
        gam = math.sqrt(model.alpha**2 - model.beta**2)
        mean = np.broadcast_to(model.delta * deltas / gam, size)
        shape = np.broadcast_to((model.delta * deltas) ** 2, size)
        nu = rng.standard_normal(size)
        u = rng.random(size)
        y = nu * nu
        x = mean + (mean * mean * y) / (2.0 * shape) - (mean / (2.0 * shape)) * np.sqrt(
            4.0 * mean * shape * y + (mean * y) ** 2
        )
        mixing = np.where(u <= mean / (mean + x), x, mean * mean / x)
        steps = model.mu * deltas + model.beta * mixing + np.sqrt(mixing) * eps
    return steps.cumsum(axis=1)


def exp_then_reduce_payoff(c, spot, x):
    """Reference lookback and barrier payoffs: every monitored price, then the reduction."""
    s = np.exp(math.log(spot) + x)
    if isinstance(c, LookbackFixed):
        best = np.max(c.w * s, axis=1)
        return np.maximum(best, c.w * c.strike) - c.w * c.strike
    alive = np.all(s[:, :-1] > c.barrier, axis=1) if s.shape[1] > 1 else True
    return np.maximum(s[:, -1] - c.strike, 0.0) * alive


def count_blocks(monkeypatch):
    """The thread that draws each block, from a wrapped ``_simulate_block``."""
    threads = []
    draw = mc._simulate_block

    def counted(*args):
        threads.append(threading.current_thread())
        return draw(*args)

    monkeypatch.setattr(mc, "_simulate_block", counted)
    return threads


def price_in_child(results):
    res = mc_price(AsianGeometric(SCHED12, 100.0), NIG, SPOT, 3 * mc.BLOCK, 9)
    results.put((res.estimate, res.stderr))


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

    def test_cgmy_unsupported(self, monkeypatch):
        model = make_cgmy(1.0, 5.0, 5.0, 0.5, 0.05)
        drawn = count_blocks(monkeypatch)
        with pytest.raises(UnsupportedModel):
            simulate_monitoring(model, SCHED2, 100_000, 0)
        with pytest.raises(UnsupportedModel):
            mc_price(ForwardStart(0.5, 1.0), model, SPOT, 100_000, 0)
        assert drawn == []

    @pytest.mark.parametrize("model", [GAUSS, NIG], ids=["gaussian", "nig"])
    @pytest.mark.parametrize("sched", [
        MonitoringSchedule(0.0, (0.7,)), SCHED2, MonitoringSchedule(0.0, (0.1, 0.25, 0.9)), SCHED12,
        # either side of the cumulative-sum crossover, and the continuous Asian's dates
        *(MonitoringSchedule(0.0, tuple((k + 1) / m for k in range(m)))
          for m in (mc._COLUMNWISE_BELOW - 1, mc._COLUMNWISE_BELOW)),
        mc._contract_schedule(AsianContinuous(0.0, 1.0, 100.0)),
    ], ids=["M1", "M2", "M3", "M12", "M31", "M32", "M256"])
    def test_sampler_bit_identical_to_broadcast_formula(self, model, sched):
        deltas = sched.intervals()
        for seed, block in ((0, 0), (3, 1), (2**32 + 7, 31)):
            expected = broadcast_block(model, deltas, seed, block)
            assert np.array_equal(mc._simulate_block(model, deltas, seed, block), expected)

    @pytest.mark.parametrize("model", [GAUSS, NIG], ids=["gaussian", "nig"])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 12])
    def test_payoffs_bit_identical_to_exp_then_reduce(self, model, m):
        # the payoffs read the paths' columns, not the contract's dates, so a
        # 3-date contract prices paths of any width
        sched = MonitoringSchedule(0.0, tuple((k + 1) / m for k in range(m)))
        contracts = [LookbackFixed(SCHED3, 100.0), LookbackFixed(SCHED3, 95.0, -1),
                     BarrierDownOutCall(SCHED3, 97.0, 100.0), BarrierDownOutCall(SCHED3, 103.0, 100.0)]

        def both(x):  # the second block is partial
            return [(mc._pathwise_payoff(c, model, SPOT, x), exp_then_reduce_payoff(c, SPOT, x))
                    for c in contracts]

        blocks = list(mc._iter_blocks(model, sched, mc.BLOCK + 1_234, 8, both))
        assert [len(pairs[0][0]) for pairs in blocks] == [mc.BLOCK, 1_234]
        for pairs in blocks:
            for fast, reference in pairs:
                assert np.array_equal(fast, reference)

    def test_independent_of_cpu_count(self, monkeypatch):
        drawn = count_blocks(monkeypatch)
        runs = []
        for cpus in (1, 2):
            monkeypatch.setattr(mc, "_usable_cpus", lambda: cpus)
            monkeypatch.setattr(mc, "_POOLS", {})
            drawn.clear()
            paths = simulate_monitoring(NIG, SCHED3, 3 * mc.BLOCK + 1_234, 5)
            threads = set(drawn)
            res = mc_price(LookbackFixed(SCHED3, 100.0), NIG, SPOT, 3 * mc.BLOCK + 1_234, 5)
            comp = mc_price(Compound(((0.5, 3.0, 1), (1.0, 100.0, 1))), GAUSS, SPOT, 2 * mc.BLOCK, 5)
            mc._POOLS[os.getpid()].shutdown()
            runs.append((paths, res, comp, threads))
        (one, one_res, one_comp, one_threads), (two, two_res, two_comp, two_threads) = runs
        assert len(one_threads) == 1 and len(two_threads) <= 2
        assert all(t.name.startswith("levyexotic-mc") for t in one_threads | two_threads)
        assert np.array_equal(one, two)
        assert one_res == two_res and one_comp == two_comp

    def test_pool_size_has_a_ceiling(self, monkeypatch):
        monkeypatch.setattr(mc, "_usable_cpus", lambda: 64)
        monkeypatch.setattr(mc, "_POOLS", {})
        pool = mc._pool()
        try:
            assert pool._max_workers == mc._MAX_THREADS
            assert mc._pool() is pool
        finally:
            pool.shutdown()

    def test_concurrent_callers_share_one_pool(self, monkeypatch):
        contract, n = ForwardStart(0.5, 1.0), 2 * mc.BLOCK
        expected = mc_price(contract, NIG, SPOT, n, 4)
        monkeypatch.setattr(mc, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(mc, "_POOLS", {})
        executor = mc.ThreadPoolExecutor

        def slow_executor(*args, **kwargs):  # lets every caller see no pool before one is stored
            time.sleep(0.05)
            return executor(*args, **kwargs)

        monkeypatch.setattr(mc, "ThreadPoolExecutor", slow_executor)
        drawn = count_blocks(monkeypatch)
        start = threading.Barrier(8)
        results = [None] * 8

        def call(i):
            start.wait()
            results[i] = mc_price(contract, NIG, SPOT, n, 4)

        callers = [threading.Thread(target=call, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert results == [expected] * 8
        assert len(set(drawn)) <= 2  # one pool's threads, not a pool per caller
        mc._POOLS[os.getpid()].shutdown()

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
    def test_forked_child_draws_blocks(self, monkeypatch):
        # The child inherits the parent's used pool object but none of its threads.
        monkeypatch.setattr(mc, "_POOLS", {})
        drawn = count_blocks(monkeypatch)
        res = mc_price(AsianGeometric(SCHED12, 100.0), NIG, SPOT, 3 * mc.BLOCK, 9)
        parent_pool = mc._pool()
        assert all(t.name.startswith("levyexotic-mc") for t in drawn)
        ctx = multiprocessing.get_context("fork")
        results = ctx.Queue()
        child = ctx.Process(target=price_in_child, args=(results,))
        child.start()
        try:
            assert results.get(timeout=60) == (res.estimate, res.stderr)
            child.join(timeout=10)
            assert not child.is_alive()
        except queue.Empty:
            pytest.fail("forked child did not price within 60 s")
        finally:
            if child.is_alive():
                child.kill()
                child.join(timeout=10)
            parent_pool.shutdown()

    def test_import_starts_no_thread(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(mc.__file__)))
        code = ("import threading; n = threading.active_count(); import levyexotic; "
                "print(n, threading.active_count())")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                             timeout=60, env={**os.environ, "PYTHONPATH": src}).stdout.split()
        assert out[0] == out[1]


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

    @pytest.mark.parametrize("contract, model, pinned", [
        (AsianGeometric(SCHED12, 100.0), NIG, (5.713211821562299, 0.021623393163874908)),
        (BarrierDownOutCall(SCHED3, 90.0, 100.0), GAUSS, (10.081894429719743, 0.04070534433700345)),
        (BarrierDownOutCall(SCHED3, 90.0, 100.0), NIG, (10.033744823740781, 0.039014315840859605)),
        (LookbackFixed(SCHED3, 100.0), NIG, (12.474881768857411, 0.038720194270900954)),
        (LookbackFixed(SCHED3, 100.0, -1), NIG, (7.114961712866209, 0.02713855415493934)),
        (LookbackFixed(SCHED3, 100.0), GAUSS, (13.147692845731713, 0.040635573134667646)),
        (LookbackFixed(SCHED3, 100.0, -1), GAUSS, (7.72690915076336, 0.024673175611604762)),
        (Chooser(0.5, 1.0, 100.0), GAUSS, (13.841103261577171, 0.039891489184491834)),
        (Compound(((0.5, 3.0, 1), (1.0, 100.0, 1))), GAUSS, (7.8868459074355, 0.025706309791468006)),
        (Compound(((0.5, 3.0, 1), (1.0, 100.0, 1))), NIG, (7.641755845557432, 0.024751510595359596)),
    ], ids=["nig-asian-M12", "gaussian-barrier-M3", "nig-barrier-M3", "nig-lookback-call-M3",
            "nig-lookback-put-M3", "gaussian-lookback-call-M3", "gaussian-lookback-put-M3",
            "gaussian-chooser", "gaussian-compound", "nig-compound"])
    def test_estimates_pinned(self, contract, model, pinned):
        # pinned to the last bit: the broadcast sampler's values, its blocks drawn in turn
        res = mc_price(contract, model, SPOT, 1 << 17, 3)
        assert (res.estimate, res.stderr) == pinned

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

    @pytest.mark.parametrize("model, pinned", [
        (GAUSS, 7.8911678445691225),
        (NIG, 7.639199288639812),
    ], ids=["gaussian", "nig"])
    def test_compound_inner_curve_prices_strips(self, model, pinned, monkeypatch):
        # pinned: the estimates when the inner curve took one price_digital per spot
        calls = []
        per_spot = digitals.price_digital
        monkeypatch.setattr(digitals, "price_digital",
                            lambda *args, **kwargs: calls.append(args) or per_spot(*args, **kwargs))
        comp = Compound(((0.5, 3.0, 1), (1.0, 100.0, 1)))
        res = mc_price(comp, model, SPOT, 1 << 19, 7)
        assert abs(res.estimate - pinned) <= 1e-9
        assert calls == []

    def test_compound_depth_three_rejected(self):
        comp = Compound(((0.25, 2.0, 1), (0.5, 4.0, 1), (1.0, 100.0, 1)))
        with pytest.raises(NestingTooDeep):
            mc_price(comp, GAUSS, SPOT, 1000, 0)

    def test_unknown_contract_rejected(self):
        with pytest.raises(UnsupportedContract):
            mc_price(object(), GAUSS, SPOT, 1000, 0)

    @pytest.mark.parametrize("n_paths", [0, -5, 1e5])
    @pytest.mark.parametrize("contract", [
        ForwardStart(0.5, 1.0),
        Compound(((0.5, 5.0, 1), (1.0, 100.0, 1))),
    ], ids=["forward_start", "compound"])
    def test_no_paths_rejected(self, contract, n_paths, monkeypatch):
        drawn = count_blocks(monkeypatch)
        message = "at least one path" if isinstance(n_paths, int) else "n_paths must be an integer"
        for n, seed, match in ((n_paths, 0, message), (1_000, -1, "seed must be non-negative")):
            with pytest.raises(ValueError, match=match):
                mc_price(contract, GAUSS, SPOT, n, seed)
            with pytest.raises(ValueError, match=match):
                simulate_monitoring(GAUSS, SCHED2, n, seed)
        assert drawn == []

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
