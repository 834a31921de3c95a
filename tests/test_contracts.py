import inspect
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
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
    closed_form_price,
    compound_parity_check,
    continuous_asian_psi,
    delta,
    make_cgmy,
    make_gaussian,
    make_nig,
    price_contract,
    price_digital,
    solve_compound_thresholds,
    to_portfolio,
)
from levyexotic import contracts, digitals
from levyexotic import quadrature as cq
from levyexotic.errors import (
    CapExceeded,
    NoConvergence,
    NoRoot,
    StripViolation,
    UnsupportedContract,
)
from levyexotic.gaussian import _compound_cf_thresholds
from levyexotic.quadrature import integrate_line
from levyexotic.validation import run_lemma1

GAUSS = make_gaussian(0.2, 0.05)
NIG = make_nig(8.0, -2.0, 0.3, 0.05)
CGMY05 = make_cgmy(1.0, 5.0, 5.0, 0.5, 0.05)
CGMY15 = make_cgmy(1.0, 5.0, 5.0, 1.5, 0.05)
SPOT = 100.0
ASIAN_MODELS = {"gaussian": GAUSS, "nig": NIG, "cgmy05": CGMY05, "cgmy15": CGMY15}

# the oracle for the closed-form averaged exponent: 64-node Gauss-Legendre in
# the averaging variable
_GL64_Y, _GL64_W = np.polynomial.legendre.leggauss(64)


def gauss_legendre_asian_psi(psi, xi):
    """Oracle for continuous_asian_psi: int_0^1 psi(xi*(1-y)) dy by 64-node Gauss-Legendre."""
    lam = 0.5 * (1.0 - _GL64_Y)
    return (psi(np.asarray(xi, dtype=complex)[..., None] * lam) * (0.5 * _GL64_W)).sum(axis=-1)


def mp_psi(model, mpmath):
    """psi of a model in mpmath arithmetic: free of the cancellation of phi near 0."""
    mu = mpmath.mpf(model.mu)
    if model.kind == "gaussian":
        phi = lambda u: mpmath.mpf(model.sigma) ** 2 * u * u / 2
    elif model.kind == "nig":
        a, b, d = (mpmath.mpf(v) for v in (model.alpha, model.beta, model.delta))
        phi = lambda u: d * (mpmath.sqrt(a * a - (b + 1j * u) ** 2) - mpmath.sqrt(a * a - b * b))
    else:
        c, g, m, y = (mpmath.mpf(v) for v in (model.c, model.g, model.m, model.y))
        phi = lambda u: -c * mpmath.gamma(-y) * ((m - 1j * u) ** y - m**y + (g + 1j * u) ** y - g**y)

    def psi(xi):
        return np.array([complex(-1j * mu * mpmath.mpc(u) + phi(mpmath.mpc(u))) for u in xi.ravel()]
                        ).reshape(xi.shape)
    return psi


def black_scholes(spot, strike, tau, sigma, r, w=1):
    vol = sigma * math.sqrt(tau)
    d1 = (math.log(spot / strike) + (r + 0.5 * sigma**2) * tau) / vol
    return w * (spot * ndtr(w * d1) - strike * math.exp(-r * tau) * ndtr(w * (d1 - vol)))


class TestDecompositions:
    def test_asian_single_date_is_vanilla_portfolio(self):
        sched = MonitoringSchedule(0.0, (1.0,))
        port = to_portfolio(AsianGeometric(sched, 100.0))
        assert len(port.terms) == 2
        coefs = sorted(c for c, _, _ in port.terms)
        assert coefs == [-100.0, 1.0]
        price = price_contract(AsianGeometric(sched, 100.0), GAUSS, SPOT)
        assert price.value == pytest.approx(black_scholes(SPOT, 100.0, 1.0, 0.2, 0.05), abs=1e-6)

    def test_lookback_single_date_is_vanilla(self):
        sched = MonitoringSchedule(0.0, (1.0,))
        price = price_contract(LookbackFixed(sched, 100.0), GAUSS, SPOT)
        assert price.value == pytest.approx(black_scholes(SPOT, 100.0, 1.0, 0.2, 0.05), rel=1e-6)

    def test_forward_start_scales_linearly(self):
        fs = ForwardStart(0.5, 1.0)
        base = price_contract(fs, GAUSS, SPOT).value
        doubled = price_contract(fs, GAUSS, 2 * SPOT).value
        assert doubled == pytest.approx(2 * base, rel=1e-12)

    def test_lookback_cap(self):
        sched = MonitoringSchedule(0.0, (0.25, 0.5, 0.75, 1.0))
        with pytest.raises(CapExceeded):
            LookbackFixed(sched, 100.0)

    def test_compound_depth_cap(self):
        legs = tuple((0.2 * k, 10.0, 1) for k in range(1, 5))
        with pytest.raises(CapExceeded):
            Compound(legs)

    def test_continuous_asian_has_no_portfolio(self):
        with pytest.raises(UnsupportedContract):
            to_portfolio(AsianContinuous(0.0, 1.0, 100.0))


class TestBarrier:
    def test_vanishing_barrier_recovers_vanilla(self):
        sched = MonitoringSchedule(0.0, (0.5, 1.0))
        bar = BarrierDownOutCall(sched, 1e-4 * SPOT, 100.0)
        price = price_contract(bar, GAUSS, SPOT)
        vanilla = black_scholes(SPOT, 100.0, 1.0, 0.2, 0.05)
        assert vanilla == pytest.approx(10.4506, abs=1e-4)
        assert price.value == pytest.approx(vanilla, rel=1e-6)

    def test_monotone_in_barrier(self):
        sched = MonitoringSchedule(0.0, (0.5, 1.0))
        values = [
            price_contract(BarrierDownOutCall(sched, b, 100.0), GAUSS, SPOT).value
            for b in (60.0, 80.0, 95.0)
        ]
        assert values[0] > values[1] > values[2]


def chooser_one_dim_value(model, t1, t_expiry, strike, spot, t=0.0):
    """The simplified four-single-integral chooser expression (cross-check).

    After the residue-theorem cancellation the 2-D portfolio collapses to two
    asset integrals and two cash integrals on single contours; the early
    asset leg discounts only over [t, t1].
    """
    tau = t_expiry - t
    tau1 = t1 - t
    d_full = math.log(spot / strike)
    d_early = d_full + model.r * (t_expiry - t1)
    lam_minus, lam_plus = model.strip
    omega2 = 0.5 * min(lam_plus, -lam_minus - 1.0)
    omega1 = 0.6 * min(lam_plus, -lam_minus - 1.0)

    def leg(d, shift, horizon, offset):
        f = lambda xi: np.exp(1j * xi * d - horizon * model.psi(xi - shift)) / xi
        return integrate_line(f, offset, 150.0, 1e-12, start_nodes=2048).value

    asset = (
        math.exp(-model.r * tau) * leg(d_full, 1j, tau, -omega2)
        + math.exp(-model.r * tau1) * leg(d_early, 1j, tau1, +omega1)
    )
    cash = leg(d_full, 0.0, tau, +omega2) + leg(d_early, 0.0, tau1, -omega1)
    value = (
        spot * asset / (2j * math.pi)
        - strike * math.exp(-model.r * tau) * cash / (2j * math.pi)
    )
    assert abs(value.imag) < 1e-8 * (1 + abs(value.real))
    return value.real


class TestChooser:
    def test_matches_simplified_expression_gaussian(self):
        engine = price_contract(Chooser(0.5, 1.0, 100.0), GAUSS, SPOT, tol=1e-8).value
        simplified = chooser_one_dim_value(GAUSS, 0.5, 1.0, 100.0, SPOT)
        assert engine == pytest.approx(simplified, rel=1e-6)

    def test_matches_simplified_expression_nig(self):
        engine = price_contract(Chooser(0.5, 1.0, 100.0), NIG, SPOT, tol=1e-8).value
        simplified = chooser_one_dim_value(NIG, 0.5, 1.0, 100.0, SPOT)
        assert engine == pytest.approx(simplified, rel=1e-6)

    def test_matches_rubinstein_closed_form(self):
        engine = price_contract(Chooser(0.5, 1.0, 100.0), GAUSS, SPOT).value
        assert engine == pytest.approx(closed_form_price(Chooser(0.5, 1.0, 100.0), 0.2, 0.05, SPOT), rel=1e-6)

    def test_bounded_by_call_put_envelope(self):
        for spot in (80.0, 100.0, 125.0):
            chooser = price_contract(Chooser(0.5, 1.0, 100.0), GAUSS, spot).value
            call = black_scholes(spot, 100.0, 1.0, 0.2, 0.05, 1)
            put = black_scholes(spot, 100.0, 1.0, 0.2, 0.05, -1)
            assert max(call, put) - 1e-8 <= chooser <= call + put + 1e-8


class TestCompound:
    def test_single_fold_threshold_is_strike(self):
        thr = solve_compound_thresholds(Compound(((1.0, 100.0, 1),)), GAUSS)
        assert thr == [100.0]

    def test_zero_strike_outer_collapses_to_inner(self):
        inner_value = price_contract(Compound(((1.0, 100.0, 1),)), GAUSS, SPOT).value
        outer = Compound(((0.5, 0.0, 1), (1.0, 100.0, 1)))
        assert price_contract(outer, GAUSS, SPOT).value == pytest.approx(inner_value, rel=1e-9)

    def test_zero_strike_put_is_worthless(self):
        outer = Compound(((0.5, 0.0, -1), (1.0, 100.0, 1)))
        assert price_contract(outer, GAUSS, SPOT).value == 0.0

    @pytest.mark.parametrize("w1,expected", [(-1, 5.0 * math.exp(-0.025)), (1, 0.0)],
                             ids=["put", "call"])
    def test_option_on_a_worthless_claim_is_cash(self, w1, expected):
        # the zero-strike put at 0.75 is worth nothing, so the put at 0.5
        # always sells it for 5 and the call never buys it
        comp = Compound(((0.5, 5.0, w1), (0.75, 0.0, -1), (1.0, 100.0, 1)))
        port = to_portfolio(comp, GAUSS)
        assert port.terms == ()
        assert port.cash == pytest.approx(expected, abs=1e-12)
        assert price_contract(comp, GAUSS, SPOT).value == pytest.approx(expected, abs=1e-12)
        assert closed_form_price(comp, 0.2, 0.05, SPOT) == pytest.approx(expected, abs=1e-12)

    def test_threshold_failure_names_the_leg(self, monkeypatch):
        # an inner price that stalls during the threshold search is not the
        # compound's value: the error names the leg and carries no result.
        # The search prices its one-condition terms from kept samples, on the
        # strip rule, so the stall is made there.
        strip = cq._integrate_strip

        def stalled(*args, **kwargs):
            res = strip(*args, **kwargs)
            return replace(res, converged=np.zeros_like(res.converged))

        monkeypatch.setattr(cq, "_integrate_strip", stalled)
        with pytest.raises(NoConvergence, match=r"critical price of leg 1 \(T=0.5, K=3\)") as info:
            price_contract(Compound(((0.5, 3.0, 1), (1.0, 100.0, -1))), GAUSS, SPOT)
        assert info.value.result is None

    def test_critical_price_matches_independent_geske(self):
        comp = Compound(((0.5, 5.0, 1), (1.0, 100.0, 1)))
        engine_thr = solve_compound_thresholds(comp, GAUSS)
        closed_thr = _compound_cf_thresholds(comp.legs, 0.0, 0.2, 0.05)
        assert engine_thr[0] == pytest.approx(closed_thr[0], rel=1e-8)

    def test_first_order_condition_at_threshold(self):
        # the price is stationary with respect to the solved critical price
        comp = Compound(((0.5, 5.0, 1), (1.0, 100.0, 1)))
        thresholds = solve_compound_thresholds(comp, GAUSS)
        s_star = thresholds[0]

        def priced_with(s1):
            from levyexotic.contracts import _compound_portfolio
            port = _compound_portfolio(comp, [s1, thresholds[1]])
            total = port.cash
            for coef, sched, p in port.terms:
                from levyexotic import price_digital
                total += coef * price_digital(GAUSS, sched, p, SPOT, tol=1e-10).value
            return total

        h = 3e-4 * s_star
        base = priced_with(s_star)
        slope = (priced_with(s_star + h) - priced_with(s_star - h)) / (2 * h)
        assert abs(slope) <= 1e-6 * base

    @pytest.mark.parametrize("model,tol", [(GAUSS, 1e-6), (NIG, 1e-5)])
    def test_parity(self, model, tol):
        residual = compound_parity_check(model, 5.0, 0.5, 100.0, 1.0, 1, SPOT)
        assert abs(residual) < tol

    @pytest.mark.parametrize("w1", [1, -1], ids=["call-on-put", "put-on-put"])
    def test_inner_put_matches_closed_form(self, w1):
        # leg 1 is exercised below its critical price: the inner put gains as S falls
        comp = Compound(((0.5, 3.0, w1), (1.0, 100.0, -1)))
        engine = price_contract(comp, GAUSS, SPOT)
        reference = closed_form_price(comp, 0.2, 0.05, SPOT)
        assert reference > 0.0
        assert engine.value == pytest.approx(reference, abs=1e-6)

    def test_parity_zero_strike(self):
        # with K1 = 0 the identity reduces to "put on anything is worthless"
        residual = compound_parity_check(GAUSS, 0.0, 0.5, 100.0, 1.0, 1, SPOT)
        assert abs(residual) < 1e-7

    def test_cgmy_half_call_on_put_converges(self):
        # its inner prices were once asked for 3e-12 and stalled at spot 3
        comp = Compound(((0.5, 3.0, 1), (1.0, 100.0, -1)))
        res = price_contract(comp, CGMY05, SPOT)
        assert res.value == pytest.approx(9.9695896, abs=1e-6)
        assert res.quadrature_error < 1e-8

    def test_cgmy_half_call_on_put_parity(self):
        residual = compound_parity_check(CGMY05, 3.0, 0.5, 100.0, 1.0, -1, SPOT)
        assert abs(residual) < 1e-10


def _counting(monkeypatch, name):
    """Replace ``contracts.<name>`` by a wrapper that records each call's keyword arguments."""
    original = getattr(contracts, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(contracts, name, counted)
    return calls


# the depth-2 and depth-3 compounds of the compound-roots benchmark workload
DEPTH_TWO = [Compound(((0.5, K1, w1), (1.0, 100.0, w2)))
             for K1 in (3.0, 8.0) for w1 in (1, -1) for w2 in (1, -1)]
DEPTH_THREE = [Compound(((0.25, 2.0, w0), (0.5, 4.0, 1), (1.0, 100.0, 1))) for w0 in (1, -1)]


class TestThresholdSearch:
    # contracts._newton_root, the root helper of the engine's and the closed form's critical-price searches
    @pytest.mark.parametrize("root", [0.37, 97.3, 104.0, 3e4])
    @pytest.mark.parametrize("slope", [1.0, -1.0])
    def test_bracket_root_evaluates_no_spot_twice(self, root, slope):
        spots = []

        def objective(x):
            spots.append(x)
            return slope * math.log(x / root), slope / x

        found = contracts._newton_root(objective, 100.0, 1e-9)
        assert found == pytest.approx(root, rel=1e-10)
        assert len(spots) == len(set(spots))

    def test_bracket_root_without_sign_change_raises(self):
        spots = []

        def objective(x):
            spots.append(x)
            return 1.0, 0.0

        with pytest.raises(NoRoot, match="no sign change"):
            contracts._newton_root(objective, 100.0, 1e-9)
        # 60 steps, each up by the whole ratio: x0 and the spots of the first 59
        assert len(spots) == 60
        assert spots[1:3] == [125.0, 125.0 * 1.25**2]

    def test_bracket_still_wide_after_the_budget_raises(self):
        # a step function without slope: 14 ratio steps reach the bracket
        # around 1e12, and 46 bisections leave it far wider than xtol
        with pytest.raises(NoRoot, match="still wider than 0.001 after 60 steps"):
            contracts._newton_root(lambda x: (math.copysign(1.0, x - 1e12), 0.0), 100.0, 1e-3)

    def test_newton_step_leaving_the_bracket_bisects(self):
        # at 125 the slope of tanh((x - 104) / 2) is about 1.5e-9, so the Newton
        # step from there leaves the bracket [100, 125] and bisection takes over
        spots = []

        def objective(x):
            spots.append(x)
            u = (x - 104.0) / 2.0
            return math.tanh(u), 0.5 / math.cosh(u) ** 2

        found = contracts._newton_root(objective, 100.0, 1e-9)
        assert found == pytest.approx(104.0, abs=1e-9)
        assert spots[:3] == [100.0, 125.0, 112.5]
        assert len(spots) == len(set(spots))

    @pytest.mark.parametrize("comp, most", [
        (Compound(((0.5, 3.0, 1), (1.0, 100.0, 1))), 4),
        (Compound(((0.5, 8.0, -1), (1.0, 100.0, -1))), 4),
        (DEPTH_THREE[0], 8),
        (DEPTH_THREE[1], 8),
    ], ids=["depth2-call-on-call", "depth2-put-on-put", "depth3-call", "depth3-put"])
    def test_objective_calls(self, monkeypatch, comp, most):
        calls = _counting(monkeypatch, "_compound_value")
        price_contract(comp, GAUSS, SPOT)
        assert 0 < len(calls) <= most

    def test_root_tolerance_follows_price_tolerance(self, monkeypatch):
        calls = _counting(monkeypatch, "solve_compound_thresholds")
        price_contract(DEPTH_TWO[0], GAUSS, SPOT)
        price_contract(DEPTH_TWO[0], GAUSS, SPOT, tol=1e-8)
        to_portfolio(DEPTH_TWO[0], GAUSS)
        assert calls == [{"rel_tol": pytest.approx(1e-5)}, {"rel_tol": pytest.approx(1e-6)}, {}]

    @pytest.mark.parametrize("model", [GAUSS, NIG, CGMY05, CGMY15], ids=["gaussian", "nig", "cgmy05", "cgmy15"])
    def test_critical_prices_within_xtol(self, model):
        # each critical price at the default price tolerance lies within its
        # search's xtol (rel_tol 1e-5 times its start) of the Gaussian closed
        # form's, or of a rel_tol=1e-9 solve under the other models.  Under
        # CGMY Y=1.5 this holds once the inner vanilla's asset and cash terms
        # meet the inner tolerance as one number; priced apart they missed by
        # up to 1.7 xtol
        for c in DEPTH_TWO + DEPTH_THREE:
            default = solve_compound_thresholds(c, model, rel_tol=0.01 * math.sqrt(digitals.DEFAULT_TOL_ND))
            if model is GAUSS:
                reference = _compound_cf_thresholds(c.legs, 0.0, 0.2, 0.05)
            else:
                reference = solve_compound_thresholds(c, model, rel_tol=1e-9)
            for j in range(len(c.legs) - 1):
                start = next(s for s in default[j + 1:] if s is not None)
                assert abs(default[j] - reference[j]) <= 1e-5 * start, (c.legs, j)

    @pytest.mark.parametrize("model", [GAUSS, CGMY15], ids=["gaussian", "cgmy15"])
    def test_default_price_matches_tight_thresholds(self, monkeypatch, model):
        # the value is stationary in each critical price: solving them to
        # 0.01*sqrt(tol) instead of 1e-10 moves no price by 5% of its claimed error
        default = [price_contract(c, model, SPOT) for c in DEPTH_TWO]
        solve = contracts.solve_compound_thresholds
        monkeypatch.setattr(contracts, "solve_compound_thresholds", lambda c, m, rel_tol=None: solve(c, m))
        for c, res in zip(DEPTH_TWO, default):
            tight = price_contract(c, model, SPOT)
            assert abs(res.value - tight.value) <= 0.05 * res.quadrature_error, c.legs


def _counting_in(monkeypatch, module, name):
    """Replace ``module.<name>`` by a wrapper that records each call's positional arguments."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _visited_groups(monkeypatch):
    """Record each call of a search's objective as (port, spot, value, [(PriceResult, delta) per group])."""
    objective = contracts._compound_value
    visits = []

    def recorded(port, prices, spot):
        groups = []
        value, slope = objective(port, [lambda s, price=price: groups.append(price(s)) or groups[-1]
                                        for price in prices], spot)
        visits.append((port, spot, value, groups))
        return value, slope

    monkeypatch.setattr(contracts, "_compound_value", recorded)
    return visits


SEARCH_MODELS = {"gaussian": GAUSS, "nig": NIG, "cgmy05": CGMY05, "cgmy15": CGMY15}
BARRIER_3DATE = BarrierDownOutCall(MonitoringSchedule(0.0, (1.0 / 3.0, 2.0 / 3.0, 1.0)), 90.0, 100.0)
STALLED_WINDOW = pytest.mark.xfail(
    strict=True, raises=NoConvergence,
    reason="ROADMAP item 9: the window claims 2.45e-6 against its 1e-6 tolerance, where price_digital claims 3.1e-7")
THREE_CONDITION_WINDOWS = [
    pytest.param(name, term, x0, id=f"{name}-{term}-{x0:g}",
                 marks=[STALLED_WINDOW] if (name, term, x0) == ("cgmy05", "asset", 260.0) else [])
    for name in SEARCH_MODELS for term in ("asset", "cash") for x0 in (45.0, 80.0, 100.0, 130.0, 190.0, 260.0)]


class TestKeptSamples:
    # a critical-price search prices each group of its terms that share a
    # contour (contracts._pole_groups: a vanilla's asset and cash digitals),
    # and its delta, from one set-up per group and spot window
    # (digitals._kept_sample_prices); price_digital at each spot is the oracle
    @pytest.mark.parametrize("model", SEARCH_MODELS.values(), ids=SEARCH_MODELS.keys())
    def test_objective_matches_per_spot_prices(self, monkeypatch, model):
        visits = _visited_groups(monkeypatch)
        for c in DEPTH_TWO + DEPTH_THREE:
            visits.clear()
            solve_compound_thresholds(c, model, rel_tol=1e-5)
            assert len(visits) >= 3
            two_conditions = pairs = 0
            for port, spot, value, groups in visits:
                # the search of leg j prices the sub-compound on the dates after T_j
                leg = len(c.legs) - 1 - len(port.terms[0][1].dates)
                tol = c.legs[leg][1] * 1e-7  # the search's inner price tolerance
                reference, budget = port.cash, 0.0
                members = contracts._pole_groups(port.terms)
                assert len(members) == len(groups)
                assert sum(len(poles) for _, _, poles in members) == len(port.terms)
                for (sched, p, poles), (kept, twin) in zip(members, groups):
                    terms = [(coef, digitals._shifted(p, t)) for coef, t in poles]
                    refs = [(coef, price_digital(model, sched, q, spot, tol=tol)) for coef, q in terms]
                    ref = sum(coef * res.value for coef, res in refs)
                    ref_claim = sum(abs(coef) * res.quadrature_error for coef, res in refs)
                    assert abs(kept.value - ref) <= kept.quadrature_error + ref_claim, (c.legs, spot)
                    # the twin only steers the step: it is held to 1e-4 of delta() beyond
                    # delta's own claim (under CGMY Y=1.5 it is off by up to 1.3e-5)
                    slopes = [(coef, delta(model, sched, q, spot, tol=tol)) for coef, q in terms]
                    slope = sum(coef * res.value for coef, res in slopes)
                    slope_claim = sum(abs(coef) * res.quadrature_error for coef, res in slopes)
                    assert abs(twin - slope) <= slope_claim + 1e-4 * abs(slope), (c.legs, spot)
                    reference += ref
                    budget += kept.quadrature_error + ref_claim
                    two_conditions += p.n == 2
                    pairs += len(poles) == 2
                assert abs(value - reference) <= budget, (c.legs, spot)
            assert two_conditions > 0 if len(c.legs) == 3 else two_conditions == 0
            assert pairs > 0

    @pytest.mark.parametrize("depth", [2, 3])
    def test_one_truncation_per_term_and_window(self, monkeypatch, depth):
        # depth 2: the inner vanilla's asset and cash terms, one window as a
        # pair.  Depth 3: that pair in the inner leg's search; in the outer's,
        # one one-condition and two two-condition terms, on the chain rule.
        # No term is priced spot by spot
        truncations = _counting_in(monkeypatch, digitals, "_truncations")
        strips = _counting_in(monkeypatch, digitals, "_strip_pricer")
        chains = _counting_in(monkeypatch, digitals, "_chain_pricer")
        per_spot = _counting_in(monkeypatch, digitals, "price_digital")
        for c in DEPTH_TWO if depth == 2 else DEPTH_THREE:
            before = len(strips), len(chains), len(truncations)
            solve_compound_thresholds(c, GAUSS)
            assert (len(strips) - before[0], len(chains) - before[1]) == ((1, 0) if depth == 2 else (2, 2))
            assert len(truncations) - before[2] == (1 if depth == 2 else 4)
        assert per_spot == []

    def test_gaussian_pairs_match_the_closed_form(self, monkeypatch):
        # an asset/cash pair is the inner European: at every spot its searches
        # visit, its value lies within its claim of the Gaussian closed form,
        # beyond a floor for float noise (claims run up to 4e-14)
        visits = _visited_groups(monkeypatch)
        checked = 0
        for c in DEPTH_TWO + DEPTH_THREE:
            visits.clear()
            solve_compound_thresholds(c, GAUSS)
            (T_j, _, _), (T, K, w) = c.legs[-2:]
            european = AsianGeometric(MonitoringSchedule(T_j, (T,)), K, w)
            for port, spot, _, groups in visits:
                for (sched, p, poles), (kept, _) in zip(contracts._pole_groups(port.terms), groups):
                    if len(poles) == 1:
                        continue
                    assert sched == european.schedule
                    ref = closed_form_price(european, 0.2, 0.05, spot)
                    assert abs(kept.value - ref) <= kept.quadrature_error + 1e-12 * (1.0 + abs(ref)), (c.legs, spot)
                    checked += 1
        assert checked >= 3 * len(DEPTH_TWO + DEPTH_THREE)

    @pytest.mark.parametrize("name, term, x0", THREE_CONDITION_WINDOWS)
    def test_three_condition_window(self, monkeypatch, name, term, x0):
        # the chain pricer of a kept window at N = 3: a fresh window set up at
        # x0 prices x0 and 1.6 x0, each term at price_contract's term tolerance
        model = SEARCH_MODELS[name]
        (coef, sched, p), = [(coef, sched, p) for coef, sched, p in to_portfolio(BARRIER_3DATE, model).terms
                             if (sum(p.gamma) > 0) == (term == "asset")]
        assert p.n == 3
        tol = digitals.DEFAULT_TOL_ND / max(1.0, abs(coef))
        windows = _counting_in(monkeypatch, digitals, "_chain_pricer")
        price = digitals._kept_sample_prices(model, sched, p, tol)
        spots = (x0, 1.6 * x0)
        kept = [price(spot) for spot in spots]
        assert len(windows) == 1
        for spot, (res, twin) in zip(spots, kept):
            ref = price_digital(model, sched, p, spot, tol=tol)
            assert abs(res.value - ref.value) <= res.quadrature_error + ref.quadrature_error, spot
            slope = delta(model, sched, p, spot, tol=tol)
            assert abs(twin - slope.value) <= slope.quadrature_error + 1e-4 * abs(slope.value), spot

    def test_a_root_outside_the_start_window_gets_a_fresh_one(self, monkeypatch):
        # S* is about 248, beyond the window [50, 200] set up at the first spot,
        # 100; no kept sample prices a spot outside the window it was set up
        # for.  The inner call's asset and cash terms share each window
        windows = []
        pricer = digitals._strip_pricer

        def watched(legs, offs, b, truncations, d_rows, log_weight=None):
            prices = pricer(legs, offs, b, truncations, d_rows, log_weight)
            lo, hi = d_rows.min(), d_rows.max()
            windows.append((lo, hi))

            def checked(d, *args):
                assert np.all((lo <= d) & (d <= hi)), (d, lo, hi)
                return prices(d, *args)
            return checked

        monkeypatch.setattr(digitals, "_strip_pricer", watched)
        comp = Compound(((0.5, 150.0, 1), (1.0, 100.0, 1)))
        s_star = solve_compound_thresholds(comp, GAUSS)[0]
        assert s_star == pytest.approx(_compound_cf_thresholds(comp.legs, 0.0, 0.2, 0.05)[0], rel=1e-8)
        assert s_star > 200.0
        assert len(windows) > 1 and windows[0] == pytest.approx((math.log(0.5), math.log(2.0)))
        assert windows[-1][0] <= math.log(s_star / 100.0) <= windows[-1][1]


class TestPortfolioError:
    def test_error_is_sum_of_term_errors(self):
        contract = AsianGeometric(MonitoringSchedule(0.0, (0.25, 0.5, 0.75, 1.0)), 100.0)
        total = price_contract(contract, NIG, SPOT)
        expected = sum(
            abs(coef) * price_digital(NIG, sched, p, SPOT, tol=1e-8 / max(1.0, abs(coef))).quadrature_error
            for coef, sched, p in to_portfolio(contract).terms
        )
        assert total.quadrature_error == expected

    # The node caps are the engine's own constants, read at call time: a
    # lowered line cap (which line and chain axes share) makes real stalls.
    def test_stalled_term_reports_whole_portfolio(self, monkeypatch):
        barrier = BarrierDownOutCall(MonitoringSchedule(0.0, (0.5, 1.0)), 90.0, 100.0)
        reference = closed_form_price(barrier, 0.2, 0.05, SPOT)
        assert reference == pytest.approx(10.240017, abs=1e-6)
        monkeypatch.setattr(cq, "LINE_NODE_CAP", 64)
        with pytest.raises(NoConvergence) as info:
            price_contract(barrier, GAUSS, SPOT)
        result = info.value.result
        assert abs(result.value - reference) <= result.quadrature_error

    def test_continuous_asian_stalls_at_the_line_cap(self, monkeypatch):
        monkeypatch.setattr(cq, "LINE_NODE_CAP", 32)
        with pytest.raises(NoConvergence):
            price_contract(AsianContinuous(0.0, 1.0, 100.0), NIG, SPOT)

    @pytest.mark.parametrize("kwargs", [{"fixed_nodes": 31}, {"fixed_nodes": 8}], ids=["fixed-odd", "fixed-small"])
    @pytest.mark.parametrize("contract", [
        AsianGeometric(MonitoringSchedule(0.0, (1.0,)), 100.0),
        Chooser(0.5, 1.0, 100.0),
    ], ids=["call", "chooser"])
    def test_bad_node_counts_rejected_for_every_n(self, contract, kwargs):
        with pytest.raises(ValueError, match="must be even and at least 16"):
            price_contract(contract, GAUSS, SPOT, **kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"fixed_nodes": 16}, {"fixed_nodes": 18}, {"fixed_nodes": 28},
    ], ids=["fixed-16", "fixed-18", "fixed-28"])
    def test_capped_start_below_the_floor_is_rejected(self, kwargs):
        # the ladder starts at the cap, and its half level would run below 16 nodes
        with pytest.raises(ValueError, match="below the floor of 16"):
            price_contract(AsianContinuous(0.0, 1.0, 100.0), GAUSS, SPOT, **kwargs)

    @pytest.mark.parametrize("kwargs, levels", [
        ({"fixed_nodes": 30}, [16, 30]), ({"fixed_nodes": 32}, [16, 32]), ({"fixed_nodes": 34}, [18, 34]),
    ], ids=["fixed-30", "fixed-32", "fixed-34"])
    def test_capped_start_keeps_the_floor(self, kwargs, levels, monkeypatch):
        seen = []
        refine = cq._refine
        monkeypatch.setattr(cq, "_refine", lambda level, *args: refine(
            lambda nodes, ahead: seen.append(*nodes) or level(nodes, ahead), *args))
        try:
            price_contract(AsianContinuous(0.0, 1.0, 100.0), GAUSS, SPOT, **kwargs)
        except NoConvergence:
            pass
        assert seen == levels

    @pytest.mark.parametrize("nodes", [32, 34, 64, 128])
    @pytest.mark.parametrize("contract", [
        Chooser(0.5, 1.0, 100.0),
        AsianGeometric(MonitoringSchedule(0.0, (0.5, 1.0)), 100.0),
        BarrierDownOutCall(MonitoringSchedule(0.0, (1 / 3, 2 / 3, 1.0)), 90.0, 100.0),
        AsianContinuous(0.0, 1.0, 100.0),
    ], ids=["chooser", "asian2", "barrier3", "asian-continuous"])
    def test_fixed_nodes_error_covers_true_error(self, contract, nodes):
        # a single level is measured against its half-node level
        res = price_contract(contract, GAUSS, SPOT, fixed_nodes=nodes)
        assert abs(res.value - closed_form_price(contract, 0.2, 0.05, SPOT)) <= res.quadrature_error


class TestAsian:
    def test_call_put_parity_portfolio_algebra(self):
        sched = MonitoringSchedule(0.0, (0.25, 0.5, 0.75, 1.0))
        call = price_contract(AsianGeometric(sched, 100.0, 1), GAUSS, SPOT, tol=1e-9).value
        put = price_contract(AsianGeometric(sched, 100.0, -1), GAUSS, SPOT, tol=1e-9).value
        theta = np.full(4, 0.25)
        lam = theta[::-1].cumsum()[::-1]
        deltas = sched.intervals()
        certain_avg = math.exp(-0.05) * SPOT * math.exp(
            -sum(dt * GAUSS.psi(-1j * s) for dt, s in zip(deltas, lam)).real
        )
        bond = math.exp(-0.05)
        assert call - put == pytest.approx(certain_avg - 100.0 * bond, abs=1e-7)

    def test_flexible_weights(self):
        sched = MonitoringSchedule(0.0, (0.5, 1.0))
        flexible = AsianGeometric(sched, 100.0, 1, (1.0, 3.0))
        engine = price_contract(flexible, GAUSS, SPOT).value
        reference = closed_form_price(flexible, 0.2, 0.05, SPOT)
        assert engine == pytest.approx(reference, rel=1e-8)

    def test_continuous_psi_at_zero(self):
        assert continuous_asian_psi(GAUSS, 0.0) == 0.0

    @pytest.mark.parametrize("w", [1, -1], ids=["call", "put"])
    @pytest.mark.parametrize("model", ASIAN_MODELS.values(), ids=ASIAN_MODELS.keys())
    def test_continuous_psi_matches_oracle_on_contours(self, model, w):
        # the pricing contours: Im(xi) = -w * omega, out to |Re xi| = 300
        lo, hi = model.strip
        omega = 0.5 * (1.0 - lo) if w == 1 else 0.5 * hi
        xi = np.linspace(-300.0, 300.0, 1201) - 1j * w * omega
        got = continuous_asian_psi(model, xi)
        ref = gauss_legendre_asian_psi(model.psi, xi)
        assert np.all(np.abs(got - ref) <= 1e-13 * (1.0 + np.abs(ref)))

    @pytest.mark.parametrize("size", [1e-8, 1e-4, 1e-2])
    @pytest.mark.parametrize("model", ASIAN_MODELS.values(), ids=ASIAN_MODELS.keys())
    def test_continuous_psi_matches_oracle_near_zero(self, model, size):
        mpmath = pytest.importorskip("mpmath")
        assert continuous_asian_psi(model, 0.0) == 0.0
        xi = size * np.array([1.0, -1.0, 1j, -1j, 0.6 + 0.8j, -0.6 - 0.8j, 0.8 - 0.6j])
        got = continuous_asian_psi(model, xi)
        assert np.all(np.abs(got - gauss_legendre_asian_psi(model.psi, xi))
                      <= 1e-13 * (1.0 + np.abs(got)))
        # relative accuracy, against the oracle on exact psi values: the
        # double-precision psi itself cancels at these arguments
        with mpmath.workdps(30):
            ref = gauss_legendre_asian_psi(mp_psi(model, mpmath), xi)
        assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref))

    @pytest.mark.parametrize("model", ASIAN_MODELS.values(), ids=ASIAN_MODELS.keys())
    def test_continuous_psi_off_strip_raises(self, model):
        lo, hi = model.strip
        for im in (lo - 0.5, hi + 0.5):
            with pytest.raises(StripViolation):
                continuous_asian_psi(model, 1.0 + 1j * im)

    def test_continuous_psi_gaussian_closed_form(self):
        # int_0^1 psi(xi(1-y)) dy = i(sigma^2/2 - r) xi / 2 + sigma^2 xi^2 / 6
        for xi in (0.7, 2.0 - 0.4j):
            got = continuous_asian_psi(GAUSS, xi)
            expected = 1j * (0.02 - 0.05) * xi / 2.0 + 0.04 * xi * xi / 6.0
            assert got == pytest.approx(expected, abs=1e-12)

    def test_continuous_psi_self_refinement_nig(self):
        from numpy.polynomial.legendre import leggauss
        xi = 1.3 - 0.2j
        got = continuous_asian_psi(NIG, xi)
        nodes, weights = leggauss(256)
        y = 0.5 * (nodes + 1.0)
        ref = sum(wq * NIG.psi(xi * (1.0 - yq)) for yq, wq in zip(y, 0.5 * weights))
        assert got == pytest.approx(ref, abs=1e-13)

    def test_discrete_converges_to_continuous(self):
        continuous = price_contract(AsianContinuous(0.0, 1.0, 100.0), GAUSS, SPOT).value
        gaps = []
        for m in (4, 16):
            sched = MonitoringSchedule(0.0, tuple(k / m for k in range(1, m + 1)))
            discrete = price_contract(AsianGeometric(sched, 100.0), GAUSS, SPOT).value
            gaps.append(abs(discrete - continuous))
        assert gaps[1] < gaps[0]

    @pytest.mark.parametrize("strike", [90.0, 100.0, 110.0])
    @pytest.mark.parametrize("w", [1, -1], ids=["call", "put"])
    def test_continuous_matches_closed_form(self, w, strike):
        contract = AsianContinuous(0.0, 1.0, strike, w)
        engine = price_contract(contract, GAUSS, SPOT, tol=1e-9).value
        reference = closed_form_price(contract, 0.2, 0.05, SPOT)
        assert engine == pytest.approx(reference, rel=1e-7)

    @pytest.mark.parametrize("strike", [90.0, 100.0, 110.0])
    @pytest.mark.parametrize("model", [NIG, CGMY05, CGMY15], ids=["nig", "cgmy05", "cgmy15"])
    def test_continuous_parity_levy(self, model, strike):
        # call - put = e^{-r tau} (S E[exp(mean of X)] - K)
        tau = 1.0
        call = price_contract(AsianContinuous(0.0, tau, strike, 1), model, SPOT)
        put = price_contract(AsianContinuous(0.0, tau, strike, -1), model, SPOT)
        integral, _ = quad(lambda y: model.psi(-1j * (1.0 - y)).real, 0.0, 1.0,
                           epsabs=1e-13, epsrel=1e-13)
        forward = SPOT * math.exp(-tau * integral)
        residual = call.value - put.value - math.exp(-model.r * tau) * (forward - strike)
        assert abs(residual) <= call.quadrature_error + put.quadrature_error + 1e-12

    @pytest.mark.parametrize("w", [1, -1], ids=["call", "put"])
    def test_continuous_offset_position_moves_the_contour(self, w):
        # calls run on ]1, -lambda_-[, puts on ]0, lambda_+[; no position keeps the midpoint
        lo, hi = (1.0, -NIG.strip[0]) if w == 1 else (0.0, NIG.strip[1])
        contract = AsianContinuous(0.0, 1.0, 100.0, w)
        assert price_contract(contract, NIG, SPOT).offsets_used.omega == (0.5 * (lo + hi),)
        values = set()
        for pos in (0.35, 0.65):
            res = price_contract(contract, NIG, SPOT, offset_position=pos)
            assert res.offsets_used.omega == (lo + pos * (hi - lo),)
            values.add(res.value)
        assert len(values) == 2

    @pytest.mark.parametrize("pos", [0.0, 1.0, -0.25, 1.5])
    def test_continuous_offset_position_outside_the_interval_is_rejected(self, pos):
        with pytest.raises(ValueError, match="strictly between 0 and 1"):
            price_contract(AsianContinuous(0.0, 1.0, 100.0), NIG, SPOT, offset_position=pos)


def test_cgmy_parity():
    residual = compound_parity_check(CGMY05, 5.0, 0.5, 100.0, 1.0, 1, SPOT)
    assert abs(residual) < 1e-5


def test_entry_point_options_are_pinned():
    # Each option here has a caller outside the tests (the CLI, the validation
    # suites, the demos or the benchmark), except ``offset_position``, which
    # acceptance criterion 5's contour-invariance check needs.  A new option
    # needs such a caller too; add it here together with that caller.
    pinned = {
        price_contract: ["c", "model", "spot", "tol", "offset_position", "fixed_nodes"],
        price_digital: ["model", "sched", "p", "spot", "offsets", "tol", "fixed_nodes"],
        delta: ["model", "sched", "p", "spot", "tol"],
        compound_parity_check: ["model", "K1", "T1", "K2", "T2", "w2", "spot"],
        run_lemma1: ["limit"],
    }
    for function, names in pinned.items():
        assert list(inspect.signature(function).parameters) == names, function.__name__


def test_package_exports_are_pinned():
    # An export is added or dropped on purpose only: together with this list.
    import levyexotic

    assert levyexotic.__all__ == [
        "AsianContinuous", "AsianGeometric", "BarrierDownOutCall", "CGMYModel", "Chooser", "Compound",
        "ContourOffsets", "ContractSpec", "Digital", "DigitalPortfolio", "ForwardStart", "GaussianModel",
        "LevyModel", "LookbackFixed", "MCResult", "MonitoringSchedule", "NIGModel", "PayoffParameterSet",
        "PriceResult", "bvn_cdf", "closed_form_price", "compound_parity_check", "continuous_asian_psi",
        "default_offsets", "delta", "esscher_calibrate", "lemma1_contour_side", "make_cgmy", "make_gaussian",
        "make_model", "make_nig", "mc_price", "mvn_cdf", "price_contract", "price_digital",
        "simulate_monitoring", "solve_compound_thresholds", "to_portfolio",
    ]
    for name in levyexotic.__all__:
        assert hasattr(levyexotic, name), name
