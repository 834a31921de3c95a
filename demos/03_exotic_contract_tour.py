"""One of each exotic, priced three ways where possible.

Every contract compiles to a static portfolio of power digitals; the same
portfolio prices under any supported model.  Under the Gaussian model the
closed-form stack provides an independent check, and Monte Carlo covers the
jump models.
"""
import time

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
    make_gaussian,
    make_nig,
    mc_price,
    price_contract,
    solve_compound_thresholds,
    to_portfolio,
)

spot = 100.0
gauss = make_gaussian(0.2, 0.05)
nig = make_nig(8.0, -2.0, 0.3, 0.05)
sched4 = MonitoringSchedule(0.0, (0.25, 0.5, 0.75, 1.0))
sched3 = MonitoringSchedule(0.0, (1 / 3, 2 / 3, 1.0))

contracts = [
    ("forward start", ForwardStart(0.5, 1.0)),
    ("asian (4 fixings)", AsianGeometric(sched4, 100.0)),
    ("asian (continuous)", AsianContinuous(0.0, 1.0, 100.0)),
    ("chooser", Chooser(0.5, 1.0, 100.0)),
    ("compound call-on-call", Compound(((0.5, 5.0, 1), (1.0, 100.0, 1)))),
    ("lookback (3 fixings)", LookbackFixed(sched3, 100.0)),
    ("down-out call (3 fixings)", BarrierDownOutCall(sched3, 80.0, 100.0)),
]

print(f"{'contract':<28} {'fourier':>10} {'closed form':>12} {'mc (1e6 paths)':>16}")
for name, contract in contracts:
    start = time.perf_counter()
    fourier = price_contract(contract, gauss, spot, tol=1e-5).value
    elapsed = time.perf_counter() - start
    reference = closed_form_price(contract, 0.2, 0.05, spot)
    mc = mc_price(contract, gauss, spot, 10**6, seed=42)
    print(f"{name:<28} {fourier:>10.4f} {reference:>12.4f} "
          f"{mc.estimate:>9.4f} +-{mc.stderr:.4f}   [{elapsed * 1e3:7.1f} ms]")

# the portfolio view: what a lookback actually decomposes into
port = to_portfolio(LookbackFixed(sched3, 100.0), gauss)
print(f"\nlookback decomposition: {len(port.terms)} digital terms "
      f"+ cash {port.cash:.4f}")
for coef, _, payoff in port.terms:
    print(f"  coef {coef:>8.2f}   N={payoff.n} conditions, gamma={payoff.gamma}")

# compound critical prices: where the inner value crosses the outer strike
comp = Compound(((0.5, 5.0, 1), (1.0, 100.0, 1)))
thresholds = solve_compound_thresholds(comp, gauss)
print(f"\ncompound critical price at the first decision date: {thresholds[0]:.4f}")

# jump model: no closed form, so the Monte Carlo oracle takes its place
asian = AsianGeometric(sched4, 100.0)
fourier = price_contract(asian, nig, spot).value
mc = mc_price(asian, nig, spot, 10**6, seed=7)
print(f"\nnig asian: fourier {fourier:.4f}  mc {mc.estimate:.4f} +- {mc.stderr:.4f} "
      f"(z = {(fourier - mc.estimate) / mc.stderr:+.2f})")
