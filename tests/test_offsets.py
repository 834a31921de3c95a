"""The N >= 2 offset and start rule: offsets chosen by predicted trapezoid cost.

Its oracle is the halving rule (``digitals._halved_offsets``) with the
phase-resolving start (``digitals._start_count``) that every N >= 2 term used
before, reached here through explicit offsets.  The loop of ``corner_tau_oracle``
is the oracle of the vectorised ``digitals._corner_tau``.
"""
import math
from itertools import product

import numpy as np
import pytest

from levyexotic import (
    BarrierDownOutCall,
    Chooser,
    Compound,
    ContourOffsets,
    LookbackFixed,
    MonitoringSchedule,
    PayoffParameterSet,
    closed_form_price,
    make_cgmy,
    make_gaussian,
    make_nig,
    price_contract,
    price_digital,
)
from levyexotic import digitals
from levyexotic.digitals import check_offsets
from levyexotic import quadrature as cq
from levyexotic.contracts import Digital, to_portfolio
from levyexotic.errors import NoConvergence

GAUSS = make_gaussian(0.2, 0.05)
MODELS = {
    "gaussian": GAUSS,
    "nig": make_nig(8.0, -2.0, 0.3, 0.05),
    "cgmy05": make_cgmy(1.0, 5.0, 5.0, 0.5, 0.05),
    "cgmy15": make_cgmy(1.0, 5.0, 5.0, 1.5, 0.05),
}
SPOT = 100.0
SCHED2 = MonitoringSchedule(0.0, (0.5, 1.0))
SCHED3 = MonitoringSchedule(0.0, (1.0 / 3.0, 2.0 / 3.0, 1.0))
SCHED4 = MonitoringSchedule(0.0, (0.25, 0.5, 0.75, 1.0))
CONTRACTS = {
    "chooser": Chooser(0.5, 1.0, 100.0),
    "barrier-2date": BarrierDownOutCall(SCHED2, 90.0, 100.0),
    "lookback-2date": LookbackFixed(SCHED2, 100.0),
    "barrier-3date": BarrierDownOutCall(SCHED3, 90.0, 100.0),
    "lookback-3date": LookbackFixed(SCHED3, 100.0),
    "barrier-4date": BarrierDownOutCall(SCHED4, 90.0, 100.0),
    "depth3": Compound(((0.25, 2.0, 1), (0.5, 4.0, 1), (1.0, 100.0, 1))),
}


class Starts:
    """Records the (starts, truncations, cap) of every chain and tensor ladder, wrapping them in ``quadrature``."""

    def __init__(self, monkeypatch):
        self.seen = []
        chain, tensor = cq._chain_ladder, cq.integrate_tensor

        def chained(store, stages, starts, cap, *args):
            self.seen.append((starts, store.truncations, cap))
            return chain(store, stages, starts, cap, *args)

        def tensored(f, spec, tol, max_nodes_per_axis=None):
            self.seen.append((spec.start_nodes, spec.truncations, max_nodes_per_axis))
            return tensor(f, spec, tol, max_nodes_per_axis)

        monkeypatch.setattr(cq, "_chain_ladder", chained)
        monkeypatch.setattr(cq, "integrate_tensor", tensored)


def start_pairs(seen, p):
    """Per axis of the ladder ``seen`` of term ``p``: its start and ``_start_count``'s."""
    starts, truncations, cap = seen
    d_vec = digitals._log_moneyness(p, SPOT)
    return [(start, digitals._start_count(ell, d, cap))
            for start, ell, d in zip(starts, truncations, d_vec)]


def priced(model, sched, p, tol, offsets=None):
    """``price_digital``'s result and whether it converged."""
    try:
        return price_digital(model, sched, p, SPOT, offsets=offsets, tol=tol), True
    except NoConvergence as exc:
        return exc.result, False


def halving_offsets(model, sched, p):
    """The offsets the halving rule gives this term at ``SPOT``."""
    legs = digitals._Legs(model, sched, p)
    interval = digitals._equal_offset_interval(model, p)
    omega, _ = digitals._halved_offsets(legs, p, *interval, digitals._log_moneyness(p, SPOT)[None])
    return ContourOffsets((float(omega[0]),) * p.n)


@pytest.mark.parametrize("name", list(MODELS))
def test_cost_rule_against_the_halving_rule(monkeypatch, name):
    # every N >= 2 term at the tolerance ``price_contract`` gives it
    model = MODELS[name]
    starts = Starts(monkeypatch)
    checked = 0
    for cname, contract in CONTRACTS.items():
        for coef, sched, p in to_portfolio(contract, model, tol=digitals.DEFAULT_TOL_ND).terms:
            if p.n < 2:
                continue
            tol = digitals.DEFAULT_TOL_ND / max(1.0, abs(coef))
            old, old_converged = priced(model, sched, p, tol, halving_offsets(model, sched, p))
            new, new_converged = priced(model, sched, p, tol)
            where = (cname, coef, p)
            assert new_converged or not old_converged, where
            assert abs(new.value - old.value) <= new.quadrature_error + old.quadrature_error, where
            if model is GAUSS:
                true = abs(new.value - closed_form_price(Digital(sched, p), 0.2, 0.05, SPOT))
                assert true <= new.quadrature_error, where
            check_offsets(model, p, new.offsets_used)
            lo, hi = digitals._equal_offset_interval(model, p)
            assert all(lo < omega < hi for omega in new.offsets_used.omega), where
            cap = starts.seen[-1][2]
            for start, phase_start in start_pairs(starts.seen[-1], p):
                assert phase_start <= start <= cap // 2, where
            checked += 1
    assert checked == 23


@pytest.mark.parametrize("name", ["nig", "cgmy05"])
def test_given_offsets_keep_the_phase_start(monkeypatch, name):
    model = MODELS[name]
    starts = Starts(monkeypatch)
    contract = CONTRACTS["barrier-3date"]
    terms = [(sched, p) for _, sched, p in to_portfolio(contract, model).terms if p.n >= 2]
    price_contract(contract, model, SPOT, offset_position=0.7)
    assert len(starts.seen) == len(terms) == 2
    for seen, (_, p) in zip(starts.seen, terms):
        assert all(start == phase_start for start, phase_start in start_pairs(seen, p))
    for sched, p in terms:
        lo, hi = digitals._equal_offset_interval(model, p)
        given = ContourOffsets((lo + 0.7 * (hi - lo),) * p.n)
        assert price_digital(model, sched, p, SPOT, offsets=given).offsets_used == given
        assert all(start == phase_start for start, phase_start in start_pairs(starts.seen[-1], p))


def test_tensor_digital_that_stalled_converges():
    # At the halving rule's offset (0.51) axis 1 hit the 2,048-node tensor
    # cap a level before axis 2, and the price stalled at a claim of 5.0e-5
    # though it was 2.6e-11 from the closed form.  At higher offsets the
    # integrand's central magnitude puts the float floor above the
    # tolerance; the roundoff guard keeps the rule off those, and the claim
    # bound pins it (without the guard the price claims 2.8e-4).
    contract = Digital(SCHED2, PayoffParameterSet((0.0, 1.0), (math.log(95.0), math.log(100.0)), (1, 1),
                                                  ((1.0, 1.0), (0.0, 1.0))))
    assert digitals._chain_plan(contract.payoff.condition_weights()) is None
    res = price_contract(contract, GAUSS, SPOT)
    assert abs(res.value - closed_form_price(contract, 0.2, 0.05, SPOT)) <= res.quadrature_error
    assert res.quadrature_error <= digitals.DEFAULT_TOL_ND


def test_no_candidate_above_the_float_floor_keeps_the_halving_rule(monkeypatch):
    # a barrier at 1e-4 of the spot: every candidate's central magnitude puts
    # the float floor above the tolerance, so both terms keep the halving
    # rule's offset and the phase-resolving start
    starts = Starts(monkeypatch)
    for coef, sched, p in to_portfolio(BarrierDownOutCall(SCHED2, 1e-2, 100.0), GAUSS).terms:
        res = price_digital(GAUSS, sched, p, SPOT, tol=digitals.DEFAULT_TOL_ND / max(1.0, abs(coef)))
        assert res.offsets_used == halving_offsets(GAUSS, sched, p)
        assert all(start == phase_start for start, phase_start in start_pairs(starts.seen[-1], p))
        true = abs(res.value - closed_form_price(Digital(sched, p), 0.2, 0.05, SPOT))
        assert true <= res.quadrature_error


def corner_tau_oracle(cmat, deltas, order):
    """``_corner_tau`` for orders other than 2 as a loop over axes and lattice directions."""
    n = cmat.shape[0]
    grid = np.arange(-1.0, 1.0 + 1e-9, 0.25)
    taus = []
    for axis in range(n):
        best = math.inf
        for direction in product(grid, repeat=n - 1):
            v = np.array(direction[:axis] + (1.0,) + direction[axis:])
            best = min(best, float(np.sum(deltas * np.abs(v @ cmat) ** order)))
        taus.append(0.9 * best)
    return taus


def test_corner_tau_is_the_loop():
    contracts = [CONTRACTS[name] for name in ("barrier-4date", "lookback-3date", "chooser", "depth3")]
    seen = set()
    for contract in contracts:
        for _, sched, p in to_portfolio(contract, GAUSS).terms:
            if p.n == 0:
                continue
            seen.add(p.n)
            for order in (0.5, 1.0, 1.5):
                cmat, deltas = p.condition_weights(), sched.intervals()
                assert digitals._corner_tau(cmat, deltas, order) == corner_tau_oracle(cmat, deltas, order), (p, order)
    assert seen == {1, 2, 3, 4}
