"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS line with the measured extremes so a plain
``pytest -s tests/test_acceptance.py`` doubles as the verification report.
"""
import math

from scipy.special import ndtr

from levyexotic import (
    AsianContinuous,
    AsianGeometric,
    BarrierDownOutCall,
    Chooser,
    ContourOffsets,
    Digital,
    ForwardStart,
    GaussianModel,
    LookbackFixed,
    MonitoringSchedule,
    PayoffParameterSet,
    closed_form_price,
    esscher_calibrate,
    make_cgmy,
    make_gaussian,
    make_nig,
    mc_price,
    price_contract,
    price_digital,
)
from levyexotic.contracts import to_portfolio
from levyexotic.validation import run_asian_limit, run_gaussian, run_lemma1, run_parity

GAUSS = make_gaussian(0.2, 0.05)
NIG = make_nig(8.0, -2.0, 0.3, 0.05)
CGMY = make_cgmy(1.0, 5.0, 5.0, 0.5, 0.05)
SPOT = 100.0

SCHED1 = MonitoringSchedule(0.0, (1.0,))
SCHED3 = MonitoringSchedule(0.0, (1.0 / 3.0, 2.0 / 3.0, 1.0))
SCHED4 = MonitoringSchedule(0.0, (0.25, 0.5, 0.75, 1.0))


def bs_price(spot, strike, tau, sigma, r, w=1):
    vol = sigma * math.sqrt(tau)
    d1 = (math.log(spot / strike) + (r + 0.5 * sigma**2) * tau) / vol
    return w * (spot * ndtr(w * d1) - strike * math.exp(-r * tau) * ndtr(w * (d1 - vol)))


def test_criterion_1_lemma1_identity():
    # 20 randomized cases per dimension; runtime < 2 min
    result = run_lemma1()
    print(f"criterion 1 (normal-CDF contour identity): "
          f"{'PASS' if result.ok else 'FAIL'} - {result.passed}/{result.cases} cases, "
          f"max violation {result.max_violation:.2e}")
    assert result.cases == 60
    assert result.ok, result.failures[:1]


def test_criterion_2_gaussian_reduction_suite():
    # full sigma x rate x moneyness grid over ten contract families; < 10 min
    result = run_gaussian()
    print(f"criterion 2 (Gaussian closed-form agreement): "
          f"{'PASS' if result.ok else 'FAIL'} - {result.passed}/{result.cases} cases, "
          f"max relative violation {result.max_violation:.2e}")
    assert result.cases == 180
    assert result.ok, result.failures[:1]


def test_criterion_3_compound_parity():
    # six parameter sets across the three model families; < 2 min
    result = run_parity()
    print(f"criterion 3 (compound put-call parity): "
          f"{'PASS' if result.ok else 'FAIL'} - {result.passed}/{result.cases} sets, "
          f"max residual {result.max_violation:.2e}")
    assert result.cases == 6
    assert result.ok, result.failures[:1]


def _mc_contracts():
    atm = math.log(100.0)
    digital = Digital(SCHED1, PayoffParameterSet((0.0,), (atm,), (1,), ((1.0,),)))
    return [
        ("digital", digital, {"gaussian": None, "nig": None}),
        ("forward_start", ForwardStart(0.5, 1.0), {"gaussian": None, "nig": None}),
        ("asian_m4", AsianGeometric(SCHED4, 100.0), {"gaussian": None, "nig": None}),
        ("chooser", Chooser(0.5, 1.0, 100.0), {"gaussian": 1e-5, "nig": 1e-5}),
        ("barrier_m3", BarrierDownOutCall(SCHED3, 80.0, 100.0),
         {"gaussian": 1e-5, "nig": 1e-5}),
        ("lookback_m3", LookbackFixed(SCHED3, 100.0),
         {"gaussian": 1e-5, "nig": 1e-5}),
    ]


def test_criterion_4_monte_carlo_cross_validation():
    # 1e6 paths, 20 seeded runs per contract and model; < 15 min.  This is
    # also the adjudicator for the Asian leg-weight convention.
    n_paths = 10**6
    seeds = range(1, 21)
    worst = None
    lines = []
    for model_name, model in (("gaussian", GAUSS), ("nig", NIG)):
        for contract_name, contract, tols in _mc_contracts():
            fourier = price_contract(contract, model, SPOT, tol=tols[model_name]).value
            hits = 0
            for seed in seeds:
                mc = mc_price(contract, model, SPOT, n_paths, seed)
                if abs(fourier - mc.estimate) <= 3.0 * mc.stderr:
                    hits += 1
            lines.append(f"{model_name}/{contract_name}: {hits}/20")
            if worst is None or hits < worst[0]:
                worst = (hits, model_name, contract_name)
            assert hits >= 19, (model_name, contract_name, hits)
    print("criterion 4 (Monte Carlo cross-validation): PASS - "
          + ", ".join(lines) + f"; worst {worst[1]}/{worst[2]} at {worst[0]}/20")


def test_criterion_5_contour_offset_invariance():
    # three feasible offset choices per model and contract; < 1 min
    sched2 = MonitoringSchedule(0.0, (0.5, 1.0))
    atm = math.log(100.0)
    instances = [
        ("digital", Digital(SCHED1, PayoffParameterSet((0.0,), (atm,), (1,), ((1.0,),)))),
        ("asian_m4", AsianGeometric(SCHED4, 100.0)),
        ("barrier_m2", BarrierDownOutCall(sched2, 80.0, 100.0)),
        ("asian_continuous", AsianContinuous(0.0, 1.0, 100.0)),
    ]
    worst = 0.0
    for model_name, model in (("gaussian", GAUSS), ("nig", NIG), ("cgmy", CGMY)):
        for contract_name, contract in instances:
            runs = [price_contract(contract, model, SPOT, offset_position=pos) for pos in (0.35, 0.5, 0.65)]
            for i in range(len(runs)):
                for j in range(i + 1, len(runs)):
                    gap = abs(runs[i].value - runs[j].value)
                    budget = 10.0 * (runs[i].quadrature_error + runs[j].quadrature_error)
                    worst = max(worst, gap / max(budget, 1e-300))
                    assert gap <= budget + 1e-12, (model_name, contract_name, gap, budget)
    print(f"criterion 5 (contour-offset invariance): PASS - "
          f"worst gap/budget ratio {worst:.3f}")


def test_criterion_6_degenerate_limits():
    vanilla = bs_price(SPOT, 100.0, 1.0, 0.2, 0.05)
    checks = []

    sched2 = MonitoringSchedule(0.0, (0.5, 1.0))
    barrier = price_contract(
        BarrierDownOutCall(sched2, 1e-4 * SPOT, 100.0), GAUSS, SPOT
    ).value
    checks.append(("barrier B->0", abs(barrier - vanilla) / vanilla, 1e-6))

    lookback = price_contract(LookbackFixed(SCHED1, 100.0), GAUSS, SPOT).value
    checks.append(("lookback M=1", abs(lookback - vanilla) / vanilla, 1e-6))

    asian = price_contract(AsianGeometric(SCHED1, 100.0), GAUSS, SPOT).value
    checks.append(("asian M=1", abs(asian - vanilla) / vanilla, 1e-6))

    # near-expiry choice date: the chooser becomes a straddle; the almost
    # degenerate second leg needs wide offsets
    straddle = vanilla + bs_price(SPOT, 100.0, 1.0, 0.2, 0.05, -1)
    chooser = Chooser(1.0 - 1e-4, 1.0, 100.0)
    port = to_portfolio(chooser, GAUSS)
    value = port.cash
    for coef, sched, payoff in port.terms:
        res = price_digital(GAUSS, sched, payoff, SPOT,
                            offsets=ContourOffsets((8.0, 8.0)),
                            tol=2e-4 / max(1.0, abs(coef)))
        value += coef * res.value
    checks.append(("chooser T1->T", abs(value - straddle) / straddle, 1e-4))

    atm = math.log(100.0)
    for name, model in (("gaussian", GAUSS), ("nig", NIG), ("cgmy", CGMY)):
        call = price_digital(model, SCHED1,
                             PayoffParameterSet((0.0,), (atm,), (1,), ((1.0,),)),
                             SPOT, tol=1e-9).value
        put = price_digital(model, SCHED1,
                            PayoffParameterSet((0.0,), (atm,), (-1,), ((1.0,),)),
                            SPOT, tol=1e-9).value
        gap = abs(call + put - math.exp(-model.r))
        checks.append((f"digital parity {name}", gap, 1e-8))

    for name, violation, tol in checks:
        assert violation <= tol, (name, violation, tol)
    summary = ", ".join(f"{name} {violation:.1e}" for name, violation, tol in checks)
    print(f"criterion 6 (degenerate limits): PASS - {summary}")


def test_criterion_7_asian_continuous_limit():
    result = run_asian_limit()
    assert result.ok, result.failures[:1]

    # the continuous price must also match the effective-variance closed form
    engine = price_contract(AsianContinuous(0.0, 1.0, 100.0), GAUSS, SPOT, tol=1e-9).value
    reference = closed_form_price(AsianContinuous(0.0, 1.0, 100.0), 0.2, 0.05, SPOT)
    rel = abs(engine - reference) / reference
    assert rel <= 1e-6
    print(f"criterion 7 (continuous-averaging limit): PASS - gaps strictly "
          f"decreasing for both models; closed-form deviation {rel:.2e}")


def test_criterion_8_martingale_and_model_sanity():
    worst_emm = 0.0
    worst_zero = 0.0
    for model in (GAUSS, NIG, CGMY, make_gaussian(0.4, 0.0), make_nig(6.0, 1.5, 0.5, 0.02),
                  make_cgmy(0.5, 6.0, 4.0, 1.5, 0.03)):
        worst_emm = max(worst_emm, model.emm_residual())
        worst_zero = max(worst_zero, abs(model.psi(0.0)))
    assert worst_emm < 1e-12
    assert worst_zero < 1e-14

    historic = GaussianModel(mu=0.1, r=0.0, sigma=0.2)
    tilted = esscher_calibrate(historic, 0.05)
    drift_gap = abs(tilted.mu - (0.05 - 0.5 * 0.2**2))
    assert drift_gap < 1e-12
    print(f"criterion 8 (martingale and model sanity): PASS - max EMM residual "
          f"{worst_emm:.1e}, max |psi(0)| {worst_zero:.1e}, tilt drift gap {drift_gap:.1e}")


def test_criterion_9_forward_start_linearity():
    contract = ForwardStart(0.5, 1.0)
    base = price_contract(contract, GAUSS, SPOT).value
    worst = 0.0
    for lam in (0.5, 2.0):
        scaled = price_contract(contract, GAUSS, lam * SPOT).value
        worst = max(worst, abs(scaled - lam * base) / abs(lam * base))
    assert worst <= 1e-10
    print(f"criterion 9 (forward-start spot linearity): PASS - "
          f"max relative deviation {worst:.2e}")
