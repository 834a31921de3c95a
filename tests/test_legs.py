"""The leg list's exponent: one stacked psi call per run of legs, bit for bit the per-leg loop.

``per_leg_exponent`` is that loop, kept as the oracle of ``_Legs.exponent``.
"""
import math

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from levyexotic import (
    AsianGeometric,
    BarrierDownOutCall,
    ForwardStart,
    LookbackFixed,
    MonitoringSchedule,
    PayoffParameterSet,
    delta,
    make_cgmy,
    make_gaussian,
    make_nig,
    price_contract,
)
from levyexotic import digitals, models
from levyexotic import quadrature as cq
from levyexotic.contracts import Digital, to_portfolio
from levyexotic.digitals import _Legs, _chain_plan, _log_peak, default_offsets
from levyexotic.errors import StripViolation

MODELS = {
    "gaussian": make_gaussian(0.2, 0.05),
    "nig": make_nig(8.0, -2.0, 0.3, 0.05),
    "cgmy05": make_cgmy(1.0, 5.0, 5.0, 0.5, 0.05),
    "cgmy15": make_cgmy(1.0, 5.0, 5.0, 1.5, 0.05),
}
SPOT = 100.0
SCHED3 = MonitoringSchedule(0.0, (1 / 3, 2 / 3, 1.0))
SCHED12 = MonitoringSchedule(0.0, tuple((i + 1) / 12 for i in range(12)))
CONTRACTS = {
    "forward-start": ForwardStart(0.5, 1.0),
    "asian12": AsianGeometric(SCHED12, 100.0),
    "barrier3": BarrierDownOutCall(SCHED3, 90.0, 100.0),
    "lookback3": LookbackFixed(SCHED3, 100.0),
}


def per_leg_exponent(legs, leg_list, xs, axes):
    """-sum_j Delta_j psi(zeta_j) with one psi call per leg: the loop the stacked exponent replaced."""
    total = 0.0
    for j in leg_list:
        try:
            total = total - legs.deltas[j] * legs.model.psi(legs.zeta(j, xs, axes))
        except StripViolation as exc:
            raise StripViolation(f"leg {j + 1}: {exc}") from None
    return total


def assert_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def terms(contract, model):
    return [p_sched for _, *p_sched in to_portfolio(contract, model).terms]


def line(legs, p):
    """Points of the line rule's contour of axis k at the default offset, broadcast on axis k of p.n."""
    nodes = 257 if p.n == 1 else 41
    omega = default_offsets(legs.model, p).omega
    grids = []
    for k in range(p.n):
        x = np.linspace(-30.0, 30.0, nodes + 2 * k) - 1j * p.w[k] * omega[k]
        grids.append(x.reshape([-1 if i == k else 1 for i in range(p.n)]))
    return grids


def exponent_calls(contract, model):
    """(legs, xs, axes) of every shape the rules hand to the exponent, for each term of ``contract``."""
    calls = []
    for sched, p in terms(contract, model):
        legs = _Legs(model, sched, p)
        grids = line(legs, p)
        calls.append((legs, range(p.m), tuple(grids), tuple(range(p.n))))  # line and tensor rules
        # _log_peak's (K, 1) candidate rows
        omega = np.repeat(np.array([0.5, 0.25, 0.125])[:, None, None], p.n, axis=2)
        xi0 = -1j * np.array(p.w, dtype=float) * omega
        calls.append((legs, range(p.m), tuple(xi0[..., k] for k in range(p.n)), tuple(range(p.n))))
        plan = _chain_plan(legs.cmat) if p.n > 1 else None
        if plan is not None:
            flips, supports = plan
            chain = _Legs(model, sched, p)
            chain.cmat = chain.cmat * flips[:, None]
            b = -np.array(p.w) * np.array(default_offsets(model, p).omega) * flips
            for k in range(p.n):  # each axis alone, as its chain factor sees it
                x = np.linspace(-30.0, 30.0, 257) + 1j * b[k]
                calls.append((chain, range(p.m), (x,), (k,)))
            for axes, held in supports:  # each support's leg factor, on the sum of its axes
                z = np.linspace(-30.0, 30.0, 257) + 1j * b[list(axes)].sum()
                calls.append((chain, held, (z,), axes[:1]))
    return calls


@pytest.mark.parametrize("model", MODELS.values(), ids=MODELS)
@pytest.mark.parametrize("contract", CONTRACTS.values(), ids=CONTRACTS)
def test_stacked_exponent_is_the_per_leg_loop(contract, model):
    for legs, leg_list, xs, axes in exponent_calls(contract, model):
        assert_bits(legs.exponent(leg_list, xs, axes), per_leg_exponent(legs, leg_list, xs, axes))


def test_forward_start_keeps_its_constant_leg_a_scalar(monkeypatch):
    model = MODELS["cgmy05"]
    (sched, p), *_ = terms(CONTRACTS["forward-start"], model)
    legs = _Legs(model, sched, p)
    assert not legs.cmat[:, 0].any()
    sizes = []
    original = models.LevyModel.psi
    monkeypatch.setattr(models.LevyModel, "psi", lambda self, xi: sizes.append(np.size(xi)) or original(self, xi))
    (x,) = line(legs, p)
    legs.exponent(range(p.m), (x,), (0,))
    assert sizes == [1, x.size]


@pytest.mark.parametrize("model", MODELS.values(), ids=MODELS)
def test_log_peak_matches_the_oracle(model, monkeypatch):
    for sched, p in terms(CONTRACTS["lookback3"], model):
        legs = _Legs(model, sched, p)
        omega = np.repeat(np.array([0.5, 0.25])[:, None, None], p.n, axis=2)
        d_rows = np.array([[0.1] * p.n, [-0.2] * p.n])
        stacked = _log_peak(legs, p, omega, d_rows)
        monkeypatch.setattr(_Legs, "exponent", per_leg_exponent)
        assert_bits(stacked, _log_peak(legs, p, omega, d_rows))
        monkeypatch.undo()


@pytest.mark.parametrize("model", MODELS.values(), ids=MODELS)
@pytest.mark.parametrize("contract", [CONTRACTS["forward-start"], CONTRACTS["barrier3"]],
                         ids=["forward-start", "barrier3"])
def test_delta_weight_matches_the_oracle(contract, model, monkeypatch):
    # the chain term's weight multiplies the factor holding leg 1 (``_chain_factors``)
    sched, p = max(terms(contract, model), key=lambda term: term[1].n)
    stacked = delta(model, sched, p, SPOT)
    monkeypatch.setattr(_Legs, "exponent", per_leg_exponent)
    per_leg = delta(model, sched, p, SPOT)
    assert_bits(per_leg.value, stacked.value)
    assert_bits(per_leg.quadrature_error, stacked.quadrature_error)


def three_leg_term(model):
    """Leg 2's G_2 = 60 puts its argument below every model's strip; legs 1 and 3 stay inside."""
    sched = MonitoringSchedule(0.0, (1 / 3, 2 / 3, 1.0))
    p = PayoffParameterSet((-60.0, 60.0, 0.0), (math.log(100.0),), (1,), ((0.0, 0.0, 1.0),))
    return _Legs(model, sched, p)


@pytest.mark.parametrize("model", MODELS.values(), ids=MODELS)
def test_strip_violation_names_the_middle_leg(model):
    legs = three_leg_term(model)
    x = np.linspace(-5.0, 5.0, 33) - 0.5j
    with pytest.raises(StripViolation) as want:
        per_leg_exponent(legs, range(3), (x,), (0,))
    with pytest.raises(StripViolation, match=r"^leg 2: ") as got:
        legs.exponent(range(3), (x,), (0,))
    assert str(got.value) == str(want.value)


def test_one_psi_call_per_exponent_evaluation(monkeypatch):
    """A CGMY 12-date Asian call: every exponent evaluation is one psi call, plus one per constant leg."""
    counts = {"psi": 0, "exponent": 0, "constant": 0}
    psi, exponent = models.LevyModel.psi, _Legs.exponent

    def counted_psi(self, xi):
        counts["psi"] += 1
        return psi(self, xi)

    def counted_exponent(self, legs, xs, axes):
        legs = list(legs)
        counts["exponent"] += 1
        counts["constant"] += sum(not any(self.cmat[k, j] for k in axes) for j in legs)
        return exponent(self, legs, xs, axes)

    monkeypatch.setattr(models.LevyModel, "psi", counted_psi)
    monkeypatch.setattr(_Legs, "exponent", counted_exponent)
    price_contract(AsianGeometric(SCHED12, 100.0), MODELS["cgmy05"], SPOT)
    assert counts["exponent"] > 0
    assert counts["psi"] == counts["exponent"] + counts["constant"]


@pytest.mark.parametrize("model", MODELS.values(), ids=MODELS)
def test_two_exponent_calls_per_one_date_term(model, monkeypatch):
    """A one-date cash digital and a 12-date geometric Asian call at default arguments, one ladder per term.

    Each term makes two exponent calls: the sinh contour's probe, then both
    levels of a ladder that stops at its second level.  Its offset, the
    cumulant rule's, makes none.
    """
    calls = {"exponent": 0}
    ladders = []  # per ladder, its integrand calls: the first holds two levels
    exponent, line = _Legs.exponent, cq.integrate_line

    def counted_exponent(self, *args):
        calls["exponent"] += 1
        return exponent(self, *args)

    def counted_line(f, *args, **kwargs):
        ladders.append(0)

        def sampled(xi):
            ladders[-1] += 1
            return f(xi)
        return line(sampled, *args, **kwargs)

    monkeypatch.setattr(_Legs, "exponent", counted_exponent)
    monkeypatch.setattr(cq, "integrate_line", counted_line)
    cash = Digital(MonitoringSchedule(0.0, (1.0,)), PayoffParameterSet((0.0,), (math.log(100.0),), (1,), ((1.0,),)))
    for contract in (cash, AsianGeometric(SCHED12, 100.0)):
        calls["exponent"], ladders[:] = 0, []
        price_contract(contract, model, SPOT)
        assert ladders == [1] * len(to_portfolio(contract, model).terms)
        assert calls["exponent"] == 2 * len(ladders)


def test_the_psi_point_budget_splits_runs(monkeypatch):
    monkeypatch.setattr(digitals, "_PSI_POINTS", 3 * 101)
    model = MODELS["nig"]
    (sched, p), *_ = terms(CONTRACTS["asian12"], model)
    legs = _Legs(model, sched, p)
    x = np.linspace(-10.0, 10.0, 101) - 0.5j
    assert [run for run, _ in legs._runs(range(12), (x,), (0,))] == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]]
    assert_bits(legs.exponent(range(12), (x,), (0,)), per_leg_exponent(legs, range(12), (x,), (0,)))


@pytest.mark.parametrize("y", [0.25, 0.5, 0.999, 1.001, 1.5, 1.95])
def test_cgmy_power_kernel_is_np_power(y):
    """CGMYModel.phi's exp(y log z) equals np.power bit for bit, across the strip and out to |x| = 1e4."""
    model = make_cgmy(1.0, 5.0, 7.0, y, 0.05)
    lo, hi = model.strip
    re = np.concatenate((-np.logspace(-3, 4, 1500), [0.0], np.logspace(-3, 4, 1500)))
    im = lo + (hi - lo) * np.linspace(0.005, 0.995, 41)
    xi = (re[None, :] + 1j * im[:, None]).ravel()
    c, g, m = model.c, model.g, model.m
    want = -c * gamma_fn(-y) * (np.power(m - 1j * xi, y) - m**y + np.power(g + 1j * xi, y) - g**y)
    assert_bits(model.phi(xi), want)
    assert_bits(model.phi(xi[7]), want[7])
