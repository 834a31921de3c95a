"""The chain rule: chain-form multi-date digitals as nested 1-D convolutions.

Its oracle is the tensor rule, reached here by hiding the chain plan.
"""
import math

import numpy as np
import pytest

from levyexotic import (
    BarrierDownOutCall,
    Chooser,
    Compound,
    Digital,
    LookbackFixed,
    MonitoringSchedule,
    PayoffParameterSet,
    closed_form_price,
    delta,
    make_cgmy,
    make_gaussian,
    make_nig,
    price_contract,
    price_digital,
)
from levyexotic import digitals
from levyexotic import quadrature as cq
from levyexotic.contracts import _lookback_portfolio, to_portfolio

GAUSS = make_gaussian(0.2, 0.05)
NIG = make_nig(8.0, -2.0, 0.3, 0.05)
CGMY15 = make_cgmy(1.0, 5.0, 5.0, 1.5, 0.05)
CGMY05 = make_cgmy(1.0, 5.0, 5.0, 0.5, 0.05)
SPOT = 100.0
SCHED2 = MonitoringSchedule(0.0, (0.5, 1.0))
SCHED3 = MonitoringSchedule(0.0, (1.0 / 3.0, 2.0 / 3.0, 1.0))

TWO_DATE = {
    "chooser": Chooser(0.5, 1.0, 100.0),
    "barrier": BarrierDownOutCall(SCHED2, 90.0, 100.0),
    "lookback": LookbackFixed(SCHED2, 100.0),
    "call-on-call": Compound(((0.5, 3.0, 1), (1.0, 100.0, 1))),
}
GAUSS_CELLS = dict(TWO_DATE, **{
    "barrier-3date": BarrierDownOutCall(SCHED3, 90.0, 100.0),
    "lookback-3date": LookbackFixed(SCHED3, 100.0),
    "call-on-put": Compound(((0.5, 3.0, 1), (1.0, 100.0, -1))),
    "depth3": Compound(((0.25, 2.0, 1), (0.5, 4.0, 1), (1.0, 100.0, 1))),
})


def payoff(rows):
    m = len(rows[0])
    return PayoffParameterSet((0.0,) * m, (0.0,) * len(rows), (1,) * len(rows), rows)


def assert_chain_form(cmat, plan):
    """Flipped, each leg couples at most one axis or equal coefficients on nested supports."""
    flips, supports = plan
    flipped = np.asarray(cmat) * flips[:, None]
    for axes, legs in supports:
        for j in legs:
            assert set(np.flatnonzero(flipped[:, j])) == set(axes)
            assert np.ptp(flipped[list(axes), j]) == 0.0
    sets = [set(axes) for axes, _ in supports]
    assert all(a < b for a, b in zip(sets, sets[1:]))
    coupled = {j for _, legs in supports for j in legs}
    for j in set(range(flipped.shape[1])) - coupled:
        assert np.count_nonzero(flipped[:, j]) <= 1


class Calls:
    """Counts calls of the line and tensor rules and of the chain rule's ladder, wrapping them in ``quadrature``."""

    def __init__(self, monkeypatch):
        self.counts = {"integrate_line": 0, "integrate_tensor": 0, "_chain_ladder": 0}
        for name in self.counts:
            monkeypatch.setattr(cq, name, self._counted(name, getattr(cq, name)))

    def _counted(self, name, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper


class TestPlan:
    def test_identity_needs_no_flip(self):
        cmat = payoff(((1.0, 0.0), (0.0, 1.0))).condition_weights()
        flips, supports = digitals._chain_plan(cmat)
        assert list(flips) == [1.0, 1.0]
        assert supports == [((0, 1), [0])]

    def test_negative_identity(self):
        # the lookback cash leg: every leg's coefficients are -1
        cmat = payoff(tuple(tuple(-1.0 if i == j else 0.0 for j in range(3)) for i in range(3)))
        plan = digitals._chain_plan(cmat.condition_weights())
        assert list(plan[0]) == [1.0, 1.0, 1.0]
        assert [axes for axes, _ in plan[1]] == [(1, 2), (0, 1, 2)]
        assert_chain_form(cmat.condition_weights(), plan)

    def test_lookback_rows_need_a_flip(self):
        # extremum at date 2 of 3 and on the strike side: leg 2 couples
        # xi_1 - xi_2 until axis 1 is flipped
        cmat = payoff(((-1.0, 1.0, 0.0), (0.0, -1.0, 0.0), (0.0, 1.0, -1.0))).condition_weights()
        plan = digitals._chain_plan(cmat)
        assert plan is not None and -1.0 in plan[0]
        assert_chain_form(cmat, plan)

    @pytest.mark.parametrize("m", [2, 3])
    def test_every_lookback_term_is_chain(self, m):
        sched = SCHED2 if m == 2 else SCHED3
        for _, _, p in _lookback_portfolio(LookbackFixed(sched, 100.0)).terms:
            if p.n > 1:
                plan = digitals._chain_plan(p.condition_weights())
                assert plan is not None, p.a
                assert_chain_form(p.condition_weights(), plan)

    def test_unequal_coupling_is_not_chain(self):
        assert digitals._chain_plan(np.array([[1.0, 0.5], [0.5, 1.0]])) is None

    def test_non_chain_digital_uses_the_tensor_rule(self, monkeypatch):
        calls = Calls(monkeypatch)
        p = PayoffParameterSet((0.0, 0.0), (4.6, 4.6), (1, 1), ((1.0, -0.5), (0.5, 1.0)))
        assert digitals._chain_plan(p.condition_weights()) is None
        price_digital(GAUSS, SCHED2, p, SPOT, tol=1e-5)
        assert calls.counts == {"integrate_line": 0, "integrate_tensor": 1, "_chain_ladder": 0}

    def test_one_date_stays_on_the_line_rule(self, monkeypatch):
        calls = Calls(monkeypatch)
        p = PayoffParameterSet((0.0,), (math.log(100.0),), (1,), ((1.0,),))
        price_digital(NIG, MonitoringSchedule(0.0, (1.0,)), p, SPOT)
        assert calls.counts == {"integrate_line": 1, "integrate_tensor": 0, "_chain_ladder": 0}

    def test_chain_contracts_and_their_deltas_skip_the_tensor_rule(self, monkeypatch):
        calls = Calls(monkeypatch)
        price_contract(TWO_DATE["barrier"], GAUSS, SPOT)
        assert calls.counts["_chain_ladder"] == 2
        assert calls.counts["integrate_tensor"] == 0
        _, sched, p = to_portfolio(TWO_DATE["barrier"]).terms[0]
        delta(GAUSS, sched, p, SPOT)
        assert (calls.counts["_chain_ladder"], calls.counts["integrate_tensor"]) == (3, 0)

    def test_non_chain_delta_keeps_the_tensor_rule(self, monkeypatch):
        calls = Calls(monkeypatch)
        k = 1.5 * math.log(SPOT)
        p = PayoffParameterSet((0.0, 1.0), (k, k), (1, 1), ((1.0, 0.5), (0.5, 1.0)))
        assert digitals._chain_plan(p.condition_weights()) is None
        assert delta(GAUSS, SCHED2, p, SPOT).value == pytest.approx(3.0666748, abs=1e-7)
        assert calls.counts == {"integrate_line": 0, "integrate_tensor": 1, "_chain_ladder": 0}


class TestAgreement:
    @pytest.mark.parametrize("model", [GAUSS, NIG, CGMY15], ids=["gaussian", "nig", "cgmy15"])
    @pytest.mark.parametrize("name", list(TWO_DATE))
    def test_chain_matches_tensor(self, monkeypatch, model, name):
        chain = price_contract(TWO_DATE[name], model, SPOT)
        monkeypatch.setattr(digitals, "_chain_plan", lambda cmat: None)
        tensor = price_contract(TWO_DATE[name], model, SPOT)
        assert abs(chain.value - tensor.value) <= chain.quadrature_error + tensor.quadrature_error

    @pytest.mark.parametrize("name", list(GAUSS_CELLS))
    def test_gaussian_claimed_error_covers_true_error(self, name):
        c = GAUSS_CELLS[name]
        res = price_contract(c, GAUSS, SPOT)
        assert abs(res.value - closed_form_price(c, 0.2, 0.05, SPOT)) <= res.quadrature_error

    def test_cgmy_half_chooser_converges(self):
        res = price_contract(TWO_DATE["chooser"], CGMY05, SPOT)
        # chooser = C(K, T) + P(K exp(-r (T - t1)), t1), both one-date prices
        call = price_contract(Compound(((1.0, 100.0, 1),)), CGMY05, SPOT)
        put = price_contract(Compound(((0.5, 100.0 * math.exp(-0.05 * 0.5), -1),)), CGMY05, SPOT)
        parity = call.value + put.value
        assert abs(res.value - parity) <= res.quadrature_error + call.quadrature_error + put.quadrature_error
        assert res.value == pytest.approx(25.520464, abs=1e-5)


DELTA_MODELS = {"gaussian": GAUSS, "nig": NIG, "cgmy05": CGMY05, "cgmy15": CGMY15}
DELTA_CONTRACTS = {
    "chooser": Chooser(0.5, 1.0, 100.0),
    "barrier-3date": BarrierDownOutCall(SCHED3, 90.0, 100.0),
    "lookback-3date": LookbackFixed(SCHED3, 100.0),
    "call-on-call": Compound(((0.5, 5.0, 1), (1.0, 100.0, 1))),
}


def multi_date_terms(model):
    """The 15 terms of ``DELTA_CONTRACTS`` with N >= 2 under ``model``."""
    terms = [(sched, p) for contract in DELTA_CONTRACTS.values()
             for _, sched, p in to_portfolio(contract, model, tol=digitals.DEFAULT_TOL_ND).terms
             if p.n >= 2]
    assert len(terms) == 15
    return terms


class TestChainDelta:
    """delta() on the chain rule against a Richardson central difference of prices."""

    @staticmethod
    def central_difference(model, sched, p, h):
        """(V(S + h) - V(S - h)) / 2h and its bound from the prices' claimed errors.

        A Gaussian closed form claims only its rounding, 1e-14 of its value.
        """
        if model is GAUSS:
            up, dn = (closed_form_price(Digital(sched, p), 0.2, 0.05, SPOT + s * h)
                      for s in (1, -1))
            return (up - dn) / (2 * h), 1e-14 * (abs(up) + abs(dn)) / h
        up, dn = (price_digital(model, sched, p, SPOT + s * h) for s in (1, -1))
        return (up.value - dn.value) / (2 * h), (up.quadrature_error + dn.quadrature_error) / h

    @pytest.mark.parametrize("name", list(DELTA_MODELS))
    def test_every_multi_date_term_matches_the_difference(self, monkeypatch, name):
        model = DELTA_MODELS[name]
        calls = Calls(monkeypatch)
        for sched, p in multi_date_terms(model):
            before = dict(calls.counts)
            res = delta(model, sched, p, SPOT)
            assert calls.counts["_chain_ladder"] == before["_chain_ladder"] + 1
            assert calls.counts["integrate_tensor"] == 0
            slope, claimed = res.value, res.quadrature_error
            (d1, e1), (d2, e2) = (self.central_difference(model, sched, p, h) for h in (0.1, 0.05))
            assert abs(slope - (4.0 * d2 - d1) / 3.0) <= e1 + e2 + abs(d2 - d1), (sched, p)
            if model is GAUSS:
                # Two-level extrapolate against the delta's own claimed error, the
                # closed form's rounding through the weights and the first level's gap.
                d0, e0 = self.central_difference(model, sched, p, 0.2)
                r1, r2 = (4.0 * d1 - d0) / 3.0, (4.0 * d2 - d1) / 3.0
                rounding = (64.0 * e2 + 20.0 * e1 + e0) / 45.0
                assert abs(slope - (16.0 * r2 - r1) / 15.0) <= claimed + rounding + abs(r2 - r1), (sched, p)


class Captured(Exception):
    """Stops a price once the chain rule has been handed its factors or its face tail."""


class TestChainFactors:
    """The chain factors multiply back to the digital integrand at every point."""

    @staticmethod
    def chain_of(monkeypatch, model, sched, p, delta_mode):
        """The (factors, stages) and contour offsets that ``_price_core`` hands the chain rule's store."""
        captured = {}

        def capture(factors, stages, offsets, truncations):
            captured.update(offsets=offsets, factors=factors, stages=stages)
            raise Captured

        monkeypatch.setattr(cq, "_ChainSamples", capture)
        with pytest.raises(Captured):
            digitals._price_core(model, sched, p, [SPOT], None, None, None, delta_mode)
        return captured["factors"], captured["stages"], captured["offsets"]

    @pytest.mark.parametrize("delta_mode", [False, True], ids=["price", "delta"])
    @pytest.mark.parametrize("name", list(DELTA_MODELS))
    def test_product_of_factors_is_the_integrand(self, monkeypatch, name, delta_mode):
        model = DELTA_MODELS[name]
        for sched, p in multi_date_terms(model):
            factors, stages, offsets = self.chain_of(monkeypatch, model, sched, p, delta_mode)
            flips, _ = digitals._chain_plan(p.condition_weights())
            n = p.n
            # three points eta on the flipped contour, one per row
            eta = np.array([[0.37, -1.21, 2.93]]).T * (1.0 + 0.3 * np.arange(n)) + 1j * np.array(offsets)
            product = np.ones(3, dtype=complex)
            for k in range(n):
                product *= factors[k](eta[:, k])
            taken = []
            for axes, leg in stages:
                taken.extend(axes)
                if leg is not None:
                    product *= leg(eta[:, taken].sum(axis=1))
            xi = eta * flips
            d = p.matrix().sum(axis=1) * math.log(SPOT) - np.array(p.k_log)
            exponent = digitals._Legs(model, sched, p).exponent(range(p.m), tuple(xi.T), range(n))
            expected = math.prod(flips) * np.exp(1j * xi @ d + exponent) / xi.prod(axis=1)
            if delta_mode:
                zeta_1 = xi @ p.condition_weights()[:, 0] - 1j * p.gamma_suffix()[0]
                expected *= 1j * zeta_1 / SPOT
            np.testing.assert_allclose(product, expected, rtol=1e-12, atol=0.0)


class TestRoundoff:
    @pytest.mark.parametrize("model,contract", [
        (NIG, BarrierDownOutCall(SCHED3, 90.0, 100.0)),
        (CGMY05, LookbackFixed(SCHED3, 100.0)),
        (GAUSS, Chooser(0.5, 1.0, 100.0)),
    ], ids=["nig-barrier3", "cgmy05-lookback3", "gaussian-chooser"])
    def test_fft_error_within_charged_roundoff(self, monkeypatch, model, contract):
        convolve, chain_level, chain_ladder = cq._convolve, cq._chain_level, cq._chain_ladder
        stages, levels, first_levels, ladders = [], [], [], []

        def checked_convolve(a, b):
            out, bound = convolve(a, b)
            stages.append((float(np.abs(out - np.convolve(a, b)).max()), bound) if bound > 0.0 else None)
            return out, bound

        def checked_level(samples, chain_stages, h, bounded):
            before = len(stages)
            value, mass, fft_error = chain_level(samples, chain_stages, h, bounded)
            if not bounded:
                # the first level, whose roundoff _refine never reads: only V's own convolutions run
                first_levels.append((mass, fft_error, len(stages) - before, sum(len(a) for a, _ in chain_stages)))
                return value, mass, fft_error
            ran_fft = any(stage is not None for stage in stages[before:])
            limit, cq._DIRECT_CONVOLVE = cq._DIRECT_CONVOLVE, math.inf
            try:
                direct = chain_level(samples, chain_stages, h, bounded)[0]  # np.convolve at every stage
            finally:
                cq._DIRECT_CONVOLVE = limit
            charged = cq._roundoff_estimate(mass, sum(vals.size for vals in samples)) + fft_error
            levels.append((abs(value - direct), fft_error, charged, ran_fft))
            return value, mass, fft_error

        def counted_chain(*args, **kwargs):
            ladders.append(args)
            return chain_ladder(*args, **kwargs)

        monkeypatch.setattr(cq, "_convolve", checked_convolve)
        monkeypatch.setattr(cq, "_chain_level", checked_level)
        monkeypatch.setattr(cq, "_chain_ladder", counted_chain)
        price_contract(contract, model, SPOT)
        checked = [stage for stage in stages if stage is not None]
        assert checked, "no stage went through the FFT"
        for err, bound in checked:
            assert err <= bound
        # every ladder runs one first level and at least one level whose roundoff is read
        assert len(first_levels) == len(ladders) and len(levels) >= len(ladders)
        for mass, fft_error, convolutions, axes in first_levels:
            assert (mass, fft_error, convolutions) == (None, None, axes)
        for gap, fft_error, charged, ran_fft in levels:
            # a level whose stages all went to np.convolve charges no FFT term
            assert (fft_error > 0.0) == ran_fft
            assert gap <= charged


def face_tail_oracle(f, offsets, truncations, nodes):
    """``quadrature._face_tail_estimate`` as a loop over the 2N faces, one call of ``f`` each."""
    ndim = len(offsets)
    coarse = [np.linspace(-ell, ell, 9) + 1j * b for b, ell in zip(offsets, truncations)]
    est = 0.0
    for axis in range(ndim):
        h = 2.0 * truncations[axis] / nodes[axis]
        others = tuple(k for k in range(ndim) if k != axis)
        measure = math.prod(2.0 * truncations[k] for k in others)
        for sign in (-1.0, 1.0):
            args = []
            for k in range(ndim):
                shape = [1] * ndim
                if k == axis:
                    vals = sign * (truncations[axis] - np.array([0.0, h])) + 1j * offsets[axis]
                else:
                    vals = coarse[k]
                shape[k] = vals.shape[0]
                args.append(vals.reshape(shape))
            edge, inner = np.abs(f(*args)).mean(axis=others).ravel()
            est += cq._tail_estimate(float(edge), float(inner), 0.0, 0.0, h) * measure
    return est


class TestFaceTail:
    """The one-call face tail is the per-face loop, bit for bit, on the multidate-exotics terms."""

    CONTRACTS = dict(TWO_DATE, **{"barrier-3date": GAUSS_CELLS["barrier-3date"],
                                  "lookback-3date": GAUSS_CELLS["lookback-3date"]})
    del CONTRACTS["call-on-call"]

    @pytest.mark.parametrize("rule", ["chain", "tensor"])
    @pytest.mark.parametrize("name", list(DELTA_MODELS))
    def test_one_call_is_the_loop(self, monkeypatch, name, rule):
        model = DELTA_MODELS[name]
        captured = []  # per term, the face tail's arguments at two levels

        if rule == "chain":
            def capture(f, offsets, windows, nodes):  # as the chain rule calls it, at its final level
                captured.append([(f, offsets, windows, nodes), (f, offsets, windows, [2 * n for n in nodes])])
                raise Captured

            monkeypatch.setattr(cq, "_face_tail_estimate", capture)
        else:
            def capture(f, spec, *args, **kwargs):
                captured.append([(f, spec.offsets, spec.truncations, [start * level for start in spec.start_nodes])
                                 for level in (1, 2)])
                raise Captured

            monkeypatch.setattr(digitals, "_chain_plan", lambda cmat: None)
            monkeypatch.setattr(cq, "integrate_tensor", capture)
        for contract in self.CONTRACTS.values():
            for _, sched, p in to_portfolio(contract, model).terms:
                if p.n >= 2:
                    with pytest.raises(Captured):
                        price_digital(model, sched, p, SPOT)
        monkeypatch.undo()
        assert len(captured) == 18
        for levels in captured:
            for args in levels:
                assert cq._face_tail_estimate(*args) == face_tail_oracle(*args)


def chain_level_oracle(samples, stages, h, bounded):
    """``quadrature._chain_level`` with the mass and the FFT-error recursion as two ``_convolve`` calls each."""
    legs = iter(samples[sum(len(axes) for axes, _ in stages):])
    value = np.ones(1, dtype=complex)
    mass = np.ones(1)
    fft_error = np.zeros(1)
    for axes, leg in stages:
        for k in axes:
            weighted = samples[k] * h
            weighted[0] *= 0.5
            weighted[-1] *= 0.5
            value, bound = cq._convolve(value, weighted)
            if bounded:
                abs_k = np.abs(weighted)
                mass = cq._convolve(mass, abs_k)[0]
                fft_error = cq._convolve(fft_error, abs_k)[0] + bound
        if leg is not None:
            g = next(legs)
            value = value * g
            if bounded:
                mass = mass * np.abs(g)
                fft_error = fft_error * np.abs(g)
    if not bounded:
        return complex(value.sum()), None, None
    return complex(value.sum()), float(mass.sum()), float(fft_error.sum())


class TestBoundsRecursion:
    """The two-row mass and FFT-error recursion is the two-call form, bit for bit, on the multidate-exotics terms."""

    @pytest.mark.parametrize("name", list(DELTA_MODELS))
    def test_two_rows_are_the_two_calls(self, monkeypatch, name):
        model = DELTA_MODELS[name]
        chain_level = cq._chain_level
        levels = []

        def compared(samples, stages, h, bounded):
            got = chain_level(samples, stages, h, bounded)
            assert repr(got) == repr(chain_level_oracle(samples, stages, h, bounded))
            if bounded:
                levels.append(max(vals.size for vals in samples[:len(stages[0][0])]))
            return got

        monkeypatch.setattr(cq, "_chain_level", compared)
        terms = [(sched, p) for contract in TestFaceTail.CONTRACTS.values()
                 for _, sched, p in to_portfolio(contract, model).terms if p.n >= 2]
        assert len(terms) == 18
        for sched, p in terms:
            price_digital(model, sched, p, SPOT)
        # the rows went through the real transform; the first axis's, of length 1, through np.convolve
        assert levels and min(levels) > cq._DIRECT_CONVOLVE
