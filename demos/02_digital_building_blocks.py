"""Multi-period power digitals: the one formula everything else is built from.

A payoff parameter set [(gamma_1..gamma_M), K, W, A] prices
S_1^gamma_1 ... S_M^gamma_M times an indicator of N linear conditions on the
monitored log prices.  The value is an N-fold contour integral; this script
prices a few instructive instances and checks them against normal-CDF
arithmetic under the Gaussian model.
"""
import math

from scipy.special import ndtr

from levyexotic import (
    BarrierDownOutCall,
    MonitoringSchedule,
    PayoffParameterSet,
    default_offsets,
    delta,
    make_gaussian,
    make_nig,
    price_digital,
    to_portfolio,
)

spot = 100.0
gauss = make_gaussian(0.2, 0.05)
nig = make_nig(8.0, -2.0, 0.3, 0.05)
sched = MonitoringSchedule(0.0, (1.0,))
atm = math.log(100.0)

# a plain cash-or-nothing call
cash_call = PayoffParameterSet(gamma=(0.0,), k_log=(atm,), w=(1,), a=((1.0,),))
res = price_digital(gauss, sched, cash_call, spot)
reference = math.exp(-0.05) * ndtr((0.05 - 0.02) / 0.2)
print(f"cash digital (gaussian): {res.value:.8f}  closed form {reference:.8f}")
print(f"  contour offsets {res.offsets_used.omega}, {res.evaluations} evaluations")

# the same claim under jumps: heavier tails cheapen out-of-the-money digits
res_nig = price_digital(nig, sched, cash_call, spot)
print(f"cash digital (nig):      {res_nig.value:.8f}")

# asset-or-nothing (gamma = 1): the power factor turns probability into delta
asset_call = PayoffParameterSet(gamma=(1.0,), k_log=(atm,), w=(1,), a=((1.0,),))
res_asset = price_digital(gauss, sched, asset_call, spot)
print(f"asset digital (gaussian): {res_asset.value:.6f}  "
      f"closed form {spot * ndtr((0.05 + 0.02) / 0.2):.6f}")

# a two-date condition: stay above a level at mid-life AND finish in the money
sched2 = MonitoringSchedule(0.0, (0.5, 1.0))
corridor = PayoffParameterSet(
    gamma=(0.0, 0.0),
    k_log=(math.log(90.0), atm),
    w=(1, 1),
    a=((1.0, 0.0), (0.0, 1.0)),
)
res2 = price_digital(gauss, sched2, corridor, spot)
print(f"\ntwo-date corridor digital: {res2.value:.8f} "
      f"(error estimate {res2.quadrature_error:.1e})")

# offsets are engineering freedom: any strip-feasible contour gives one price
for position in (0.25, 0.5, 0.75):
    off = default_offsets(nig, cash_call, position=position)
    alt = price_digital(nig, sched, cash_call, spot, offsets=off)
    print(f"nig digital at offset {off.omega[0]:5.2f}: {alt.value:.10f}")

# differentiating under the integral sign gives the hedge ratio directly
slope = delta(gauss, sched, cash_call, spot)
bump = 1e-4 * spot
fd = (price_digital(gauss, sched, cash_call, spot + bump).value
      - price_digital(gauss, sched, cash_call, spot - bump).value) / (2 * bump)
print(f"\ndigital delta: analytic {slope.value:.8f} (error estimate {slope.quadrature_error:.1e})  "
      f"finite difference {fd:.8f}")

# the same weight on a 3-date NIG down-and-out barrier's first term: the
# delta runs on the price's own chain-rule grid
sched3 = MonitoringSchedule(0.0, (1.0 / 3.0, 2.0 / 3.0, 1.0))
_, _, barrier = to_portfolio(BarrierDownOutCall(sched3, 90.0, 100.0)).terms[0]
slope = delta(nig, sched3, barrier, spot).value


def central(h):
    return (price_digital(nig, sched3, barrier, spot + h).value
            - price_digital(nig, sched3, barrier, spot - h).value) / (2 * h)


fd = (4 * central(0.05) - central(0.1)) / 3  # Richardson: the h**2 terms cancel
print(f"3-date nig barrier term delta: analytic {slope:.8f}  finite difference {fd:.8f}")
