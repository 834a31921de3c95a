"""Exotic contracts as static portfolios of multi-period power digitals.

Each builder returns an exact decomposition: pricing the portfolio equals
pricing the contract.  Compound options additionally need their critical
exercise prices, found by safeguarded Newton steps on the engine's own
sub-option values and deltas, with one set-up per group of terms that share
a contour in each search and each spot priced from kept samples.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import quadrature as cq
from .digitals import (
    DEFAULT_TOL_1D,
    DEFAULT_TOL_ND,
    ContourOffsets,
    MonitoringSchedule,
    PayoffParameterSet,
    PriceResult,
    _contour_price,
    _interval_point,
    _kept_sample_prices,
    _shifted,
    _whole,
    default_offsets,
    price_digital,
)
from .errors import (
    CapExceeded,
    NoConvergence,
    NoRoot,
    StripViolation,
    UnsupportedContract,
)
from .models import LevyModel

LOOKBACK_MAX_DATES = 3
COMPOUND_MAX_DEPTH = 3


@dataclass(frozen=True)
class Digital:
    schedule: MonitoringSchedule
    payoff: PayoffParameterSet

    def __post_init__(self):
        if self.payoff.m != self.schedule.m:
            raise ValueError("payoff and schedule disagree on the number of dates")


@dataclass(frozen=True)
class ForwardStart:
    """Strike set to the asset price at t1; pays max(w*(S_t2 - S_t1), 0) at t2."""

    t1: float
    t2: float
    w: int = 1
    t: float = 0.0

    def __post_init__(self):
        if not self.t < self.t1 < self.t2:
            raise ValueError("need t < t1 < t2")
        if self.w not in (-1, 1):
            raise ValueError("w must be +1 or -1")


@dataclass(frozen=True)
class AsianGeometric:
    """Fixed-strike option on the weighted geometric mean of monitored prices."""

    schedule: MonitoringSchedule
    strike: float
    w: int = 1
    weights: tuple[float, ...] | None = None  # empty/None = equal weights

    def __post_init__(self):
        if self.strike <= 0:
            raise ValueError("strike must be positive")
        if self.w not in (-1, 1):
            raise ValueError("w must be +1 or -1")
        if self.weights is not None and len(self.weights) > 0:
            if len(self.weights) != self.schedule.m:
                raise ValueError("need one weight per monitoring date")
            if any(th < 0 for th in self.weights) or sum(self.weights) <= 0:
                raise ValueError("weights must be nonnegative with positive sum")

    def normalized_weights(self) -> np.ndarray:
        if self.weights is None or len(self.weights) == 0:
            return np.full(self.schedule.m, 1.0 / self.schedule.m)
        th = np.array(self.weights, dtype=float)
        return th / th.sum()


@dataclass(frozen=True)
class AsianContinuous:
    """Continuously averaged geometric Asian over [t_start, t_end], valued at t_start."""

    t_start: float
    t_end: float
    strike: float
    w: int = 1

    def __post_init__(self):
        if not self.t_start < self.t_end:
            raise ValueError("need t_start < t_end")
        if self.strike <= 0:
            raise ValueError("strike must be positive")
        if self.w not in (-1, 1):
            raise ValueError("w must be +1 or -1")


@dataclass(frozen=True)
class LookbackFixed:
    """Fixed-strike lookback on the extremal monitored price (at most 3 dates)."""

    schedule: MonitoringSchedule
    strike: float
    w: int = 1

    def __post_init__(self):
        if self.strike <= 0:
            raise ValueError("strike must be positive")
        if self.w not in (-1, 1):
            raise ValueError("w must be +1 or -1")
        if self.schedule.m > LOOKBACK_MAX_DATES:
            raise CapExceeded(
                f"lookback supports at most {LOOKBACK_MAX_DATES} monitoring dates"
            )


@dataclass(frozen=True)
class Chooser:
    """Right at t1 to turn the claim into the call or the put (strike, t_expiry)."""

    t1: float
    t_expiry: float
    strike: float
    t: float = 0.0

    def __post_init__(self):
        if not self.t < self.t1 < self.t_expiry:
            raise ValueError("need t < t1 < t_expiry")
        if self.strike <= 0:
            raise ValueError("strike must be positive")


@dataclass(frozen=True)
class Compound:
    """Option on an option, nested up to depth 3; legs ordered outermost first.

    Each leg is (date, strike, sign).  Inner-leg strikes may be zero, in which
    case a call leg is always exercised and a put leg is worthless: the legs
    outside it then trade a known amount of cash (``_cash_compound``).
    """

    legs: tuple[tuple[float, float, int], ...]
    t: float = 0.0

    def __post_init__(self):
        legs = tuple((float(T), float(K), _whole(w, "leg sign w")) for T, K, w in self.legs)
        object.__setattr__(self, "legs", legs)
        if len(legs) < 1:
            raise ValueError("need at least one leg")
        if len(legs) > COMPOUND_MAX_DEPTH:
            raise CapExceeded(f"compound depth is capped at {COMPOUND_MAX_DEPTH}")
        times = [self.t] + [T for T, _, _ in legs]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("leg dates must be strictly increasing after t")
        if any(K < 0 for _, K, _ in legs):
            raise ValueError("strikes must be nonnegative")
        if legs[-1][1] <= 0:
            raise ValueError("the innermost strike must be positive")
        if any(w not in (-1, 1) for _, _, w in legs):
            raise ValueError("signs must be +1 or -1")


@dataclass(frozen=True)
class BarrierDownOutCall:
    """Call knocked out if any pre-expiry monitored price is at or below B."""

    schedule: MonitoringSchedule
    barrier: float
    strike: float

    def __post_init__(self):
        if self.barrier <= 0 or self.strike <= 0:
            raise ValueError("barrier and strike must be positive")


ContractSpec = Union[
    Digital,
    ForwardStart,
    AsianGeometric,
    AsianContinuous,
    LookbackFixed,
    Chooser,
    Compound,
    BarrierDownOutCall,
]


@dataclass(frozen=True)
class DigitalPortfolio:
    terms: tuple[tuple[float, MonitoringSchedule, PayoffParameterSet], ...]
    cash: float = 0.0


def _lookback_portfolio(c: LookbackFixed) -> DigitalPortfolio:
    m = c.schedule.m
    w = c.w
    ln_k = math.log(c.strike)
    terms = []
    for pidx in range(m):
        # extremal-at-p indicator, (M-1) difference conditions
        rows = []
        for j in range(m):
            if j == pidx:
                continue
            row = [0.0] * m
            row[pidx] = 1.0
            row[j] = -1.0
            rows.append(tuple(row))
        gamma = tuple(1.0 if k == pidx else 0.0 for k in range(m))
        terms.append((
            float(w),
            PayoffParameterSet(gamma, (0.0,) * (m - 1), (w,) * (m - 1), tuple(rows)),
        ))
        # same event intersected with "extremum on the strike side of K"
        rows_t = []
        ks = []
        for i in range(m):
            row = [0.0] * m
            if i == pidx:
                row[pidx] = -1.0
                ks.append(-ln_k)
            else:
                row[pidx] = 1.0
                row[i] = -1.0
                ks.append(0.0)
            rows_t.append(tuple(row))
        terms.append((
            -float(w),
            PayoffParameterSet(gamma, tuple(ks), (w,) * m, tuple(rows_t)),
        ))
    # cash leg: every monitored price on the strike side of K
    neg_eye = tuple(
        tuple(-1.0 if i == j else 0.0 for j in range(m)) for i in range(m)
    )
    cash_p = PayoffParameterSet((0.0,) * m, (-ln_k,) * m, (w,) * m, neg_eye)
    terms.append((float(w) * c.strike, cash_p))
    portfolio = tuple((coef, c.schedule, p) for coef, p in terms)
    return DigitalPortfolio(portfolio, cash=0.0)


def _compound_portfolio(c: Compound, thresholds) -> DigitalPortfolio:
    n_legs = len(c.legs)
    dates = tuple(T for T, _, _ in c.legs)
    signs = [w for _, _, w in c.legs]
    # leg j is exercised on the side where the claim it buys gains value:
    # S above S_j* when prod_{k>=j} w_k = +1, below it otherwise
    directions = np.cumprod(signs[::-1])[::-1]

    def condition_block(depth):
        """Rows/strikes/signs for legs 1..depth, skipping always-true ones."""
        rows, ks, ws = [], [], []
        for j in range(depth):
            if thresholds[j] is None:
                continue
            row = [0.0] * depth
            row[j] = 1.0
            rows.append(tuple(row))
            ks.append(math.log(thresholds[j]))
            ws.append(directions[j])
        return tuple(rows), tuple(ks), tuple(ws)

    terms = []
    rows, ks, ws = condition_block(n_legs)
    gamma_asset = tuple(0.0 if k < n_legs - 1 else 1.0 for k in range(n_legs))
    sched_full = MonitoringSchedule(c.t, dates)
    terms.append((
        float(math.prod(signs)),
        sched_full,
        PayoffParameterSet(gamma_asset, ks, ws, rows),
    ))
    for j in range(n_legs):
        K_j = c.legs[j][1]
        if K_j == 0.0:
            continue
        rows, ks, ws = condition_block(j + 1)
        sched_j = MonitoringSchedule(c.t, dates[: j + 1])
        coef = -float(math.prod(signs[: j + 1])) * K_j
        gamma_j = (0.0,) * (j + 1)
        terms.append((coef, sched_j, PayoffParameterSet(gamma_j, ks, ws, rows)))
    return DigitalPortfolio(tuple(terms), cash=0.0)


def _cash_compound(legs, t: float, r: float) -> float | None:
    """Value at t of a compound with a zero-strike put leg; None without one.

    The outermost such leg z sells a nonnegative claim for nothing, so it is
    worth 0 whatever the spot.  Every leg outside it then trades a known
    amount of cash, and the legs collapse backward: the claim of leg j is
    worth X_j = max(w_j (X_{j+1} e^{-r (T_{j+1} - T_j)} - K_j), 0) at T_j,
    with X_z = 0.
    """
    z = next((j for j, (_, K, w) in enumerate(legs) if K == 0.0 and w == -1), None)
    if z is None:
        return None
    value, date = 0.0, legs[z][0]
    for T, K, w in reversed(legs[:z]):
        value = max(w * (value * math.exp(-r * (date - T)) - K), 0.0)
        date = T
    return value * math.exp(-r * (date - t))


def to_portfolio(c: ContractSpec, model: LevyModel | None = None,
                 tol: float | None = None) -> DigitalPortfolio:
    """Exact static decomposition of a contract into weighted power digitals.

    ``model`` is needed for the contracts with a discounted strike or cash
    leg (lookback, chooser) and for compounds, whose critical prices are
    solved here.  ``tol`` is the tolerance the portfolio is to be priced to:
    the critical prices are then solved to relative accuracy 0.01 * sqrt(tol),
    and to the ``solve_compound_thresholds`` default without it.
    """
    if isinstance(c, Digital):
        return DigitalPortfolio(((1.0, c.schedule, c.payoff),), 0.0)

    if isinstance(c, ForwardStart):
        sched = MonitoringSchedule(c.t, (c.t1, c.t2))
        a = ((-1.0, 1.0),)
        p_indexed = PayoffParameterSet((0.0, 1.0), (0.0,), (c.w,), a)
        p_start = PayoffParameterSet((1.0, 0.0), (0.0,), (c.w,), a)
        return DigitalPortfolio(
            ((float(c.w), sched, p_indexed), (-float(c.w), sched, p_start)), 0.0
        )

    if isinstance(c, AsianGeometric):
        theta = c.normalized_weights()
        a = (tuple(theta),)
        k = math.log(c.strike)
        p_avg = PayoffParameterSet(tuple(theta), (k,), (c.w,), a)
        p_dig = PayoffParameterSet((0.0,) * c.schedule.m, (k,), (c.w,), a)
        return DigitalPortfolio(
            (
                (float(c.w), c.schedule, p_avg),
                (-float(c.w) * c.strike, c.schedule, p_dig),
            ),
            0.0,
        )

    if isinstance(c, LookbackFixed):
        if model is None:
            raise ValueError("lookback cash leg needs the model's discount rate")
        port = _lookback_portfolio(c)
        tau = c.schedule.expiry - c.schedule.t
        return DigitalPortfolio(
            port.terms, cash=-float(c.w) * c.strike * math.exp(-model.r * tau)
        )

    if isinstance(c, Chooser):
        if model is None:
            raise ValueError("chooser strikes need the model's discount rate")
        sched = MonitoringSchedule(c.t, (c.t1, c.t_expiry))
        k_early = math.log(c.strike) - model.r * (c.t_expiry - c.t1)
        ks = (k_early, math.log(c.strike))
        eye = ((1.0, 0.0), (0.0, 1.0))
        a1 = PayoffParameterSet((0.0, 1.0), ks, (1, 1), eye)
        a2 = PayoffParameterSet((0.0, 0.0), ks, (1, 1), eye)
        a3 = PayoffParameterSet((0.0, 0.0), ks, (-1, -1), eye)
        a4 = PayoffParameterSet((0.0, 1.0), ks, (-1, -1), eye)
        return DigitalPortfolio(
            (
                (1.0, sched, a1),
                (-c.strike, sched, a2),
                (c.strike, sched, a3),
                (-1.0, sched, a4),
            ),
            0.0,
        )

    if isinstance(c, Compound):
        if model is None:
            raise ValueError("compound decomposition needs the model")
        cash = _cash_compound(c.legs, c.t, model.r)
        if cash is not None:
            return DigitalPortfolio((), cash)
        if tol is None:
            thresholds = solve_compound_thresholds(c, model)
        else:
            # the value is stationary in each critical price, so a relative
            # root error e moves it by O(e^2), far below tol at this e
            thresholds = solve_compound_thresholds(c, model, rel_tol=0.01 * math.sqrt(tol))
        return _compound_portfolio(c, thresholds)

    if isinstance(c, BarrierDownOutCall):
        m = c.schedule.m
        ks = (math.log(c.barrier),) * (m - 1) + (math.log(c.strike),)
        eye = tuple(tuple(1.0 if i == j else 0.0 for j in range(m)) for i in range(m))
        gamma_asset = (0.0,) * (m - 1) + (1.0,)
        p_asset = PayoffParameterSet(gamma_asset, ks, (1,) * m, eye)
        p_cash = PayoffParameterSet((0.0,) * m, ks, (1,) * m, eye)
        return DigitalPortfolio(
            (
                (1.0, c.schedule, p_asset),
                (-c.strike, c.schedule, p_cash),
            ),
            0.0,
        )

    if isinstance(c, AsianContinuous):
        raise UnsupportedContract(
            "continuously averaged Asians have no finite digital decomposition"
        )
    raise UnsupportedContract(f"unknown contract type {type(c).__name__}")


def _pole_groups(terms):
    """The portfolio ``terms`` as the groups a critical-price search prices together: (schedule, payoff, poles).

    A one-condition term whose payoff is an earlier group's, on the same
    schedule, with its indices moved by some t != 0 times the condition row
    (``digitals._shifted``) joins that group as the pole (coef, t); an asset
    digital and its cash twin are such a pair.  Every other term starts a
    group of its own, with the pole (coef, 0).
    """
    groups = []
    for coef, sched, p in terms:
        for g_sched, base, poles in groups:
            if g_sched == sched and base.n == p.n == 1:
                j = next(j for j, a in enumerate(base.a[0]) if a != 0.0)
                t = (p.gamma[j] - base.gamma[j]) / base.a[0][j]
                if t != 0.0 and _shifted(base, t) == p:
                    poles.append((coef, t))
                    break
        else:
            groups.append((sched, p, [(coef, 0.0)]))
    return [(sched, p, tuple(poles)) for sched, p, poles in groups]


def _compound_value(port, prices, spot):
    """A critical-price search's objective: sub-compound ``port`` at ``spot`` and its slope in the spot.

    Group k of ``_pole_groups(port.terms)`` is priced by ``prices[k]``, which
    returns its coefficient-weighted PriceResult and delta.
    """
    value, slope = port.cash, 0.0
    for price in prices:
        res, delta = price(spot)
        value += res.value
        slope += delta
    return value, slope


def _newton_root(objective, x0: float, xtol: float) -> float:
    """Root of ``objective``, which returns (value, slope), by safeguarded Newton steps from ``x0``.

    Until two spots with values of opposite sign bracket the root, each step
    is the Newton step, moving x by no more than a ratio that starts at 1.25
    and grows by that factor every step; a zero slope takes the whole ratio
    upward.  Once a bracket holds, a Newton step that leaves it, or that is
    more than half the step before last, is replaced by bisection, and each
    new spot replaces the end of its sign.  The search stops when a step is
    at most ``xtol``, returning the point it reaches unevaluated, or when the
    bracket is, returning the end nearer zero.  After 60 steps, NoRoot.  No
    spot is evaluated twice.
    """
    values = {}

    def f(x):
        if x not in values:
            values[x] = objective(x)
        return values[x]

    x, ratio = x0, 1.25
    ends = {}  # the latest spot with a positive value and with a negative one, keyed by value > 0
    moves = [math.inf, math.inf]  # the sizes of the last two steps
    for _ in range(60):
        value, slope = f(x)
        if value == 0.0:
            return float(x)
        ends[value > 0.0] = x
        step = -value / slope if slope else math.inf
        if len(ends) < 2:
            target = min(max(x + step, x / ratio), x * ratio)
            ratio *= 1.25
        else:
            lo, hi = sorted(ends.values())
            if hi - lo <= xtol:
                return float(min(ends.values(), key=lambda end: abs(values[end][0])))
            target = x + step
            if not lo < target < hi or abs(step) > 0.5 * moves[-2]:
                target = 0.5 * (lo + hi)
        moves.append(abs(target - x))
        if moves[-1] <= xtol:
            return float(target)
        x = float(target)
    if len(ends) < 2:
        raise NoRoot(f"no sign change between {min(values):g} and {max(values):g} around {x0:g}")
    raise NoRoot(f"bracket [{min(ends.values()):g}, {max(ends.values()):g}] around {x0:g} "
                 f"still wider than {xtol:g} after 60 steps")


def _solve_thresholds(legs, value, rel_tol: float) -> list:
    """Critical prices S_j* of compound ``legs``, solved innermost-outward.

    ``value(j, inner_thresholds, s)`` prices ``legs[j + 1:]`` at T_j and spot
    s, given their own thresholds, and returns that value and its slope in
    s; S_j* is where the value equals K_j.  The root is a spot, so
    ``_newton_root`` starts at the nearest solved inner critical price (the
    innermost strike for depth 2) and stops at ``rel_tol`` times that start.
    The innermost threshold is its strike, and a zero strike yields ``None``
    (the exercise condition degenerates).
    """
    thresholds: list = [None] * len(legs)
    K_n = legs[-1][1]
    thresholds[-1] = K_n if K_n > 0 else None
    for j in range(len(legs) - 2, -1, -1):
        K_j = legs[j][1]
        if K_j == 0.0:
            continue
        inner = thresholds[j + 1:]
        x0 = next(s for s in inner if s is not None)

        def objective(s):
            v, slope = value(j, inner, s)
            return v - K_j, slope
        thresholds[j] = _newton_root(objective, x0, x0 * rel_tol)
    return thresholds


def solve_compound_thresholds(c: Compound, model: LevyModel,
                              rel_tol: float = 1e-10) -> list:
    """Critical prices S_j* where the remaining compound value equals K_j.

    Each is solved on the engine's own sub-compound prices
    (``_solve_thresholds``), to relative accuracy ``rel_tol``, with each
    inner price asked for max(K_j * rel_tol / 100, 1e-13).  Safeguarded
    Newton steps (``_newton_root``) start at the nearest solved inner
    critical price; each step's slope is the sum of the terms' deltas.  A
    search builds its sub-compound portfolio once and gives each group of
    terms that share a contour (``_pole_groups``: a vanilla's asset and cash
    digitals) one set-up per spot window (``digitals._kept_sample_prices``),
    which prices the group and its delta from kept samples as one
    coefficient-weighted number; its samples die with it.
    An inner price that stalls raises NoConvergence naming the leg whose
    critical price failed, with no result: no compound value was formed.
    """
    search = {}  # leg j: the sub-compound portfolio and group prices of the search under way

    def value(j, inner_thresholds, s):
        T_j, K_j, _ = c.legs[j]
        if j not in search:
            tol_inner = max(K_j * rel_tol * 0.01, 1e-13)  # pricing-noise floor well below the root tolerance
            cash = _cash_compound(c.legs[j + 1:], T_j, model.r)
            port = (DigitalPortfolio((), cash) if cash is not None
                    else _compound_portfolio(Compound(c.legs[j + 1:], t=T_j), inner_thresholds))
            search.clear()  # the inner leg's kept samples go with its search
            search[j] = port, [_kept_sample_prices(model, sched, p, tol_inner, poles)
                               for sched, p, poles in _pole_groups(port.terms)]
        try:
            return _compound_value(*search[j], s)
        except NoConvergence as exc:
            raise NoConvergence(
                f"critical price of leg {j + 1} (T={T_j:g}, K={K_j:g}) at spot {s:g}: {exc}"
            ) from exc

    return _solve_thresholds(c.legs, value, rel_tol)


def continuous_asian_psi(model: LevyModel, xi):
    """Averaged exponent int_0^1 psi(xi*(1-y)) dy = -i mu xi / 2 + (1/xi) int_0^xi phi.

    The second part is each family's closed form, ``model.phi_average``: a
    polynomial for the Gaussian, powers (m - iu)**(y+1) and (g + iu)**(y+1)
    for CGMY, a square-root and logarithm (asinh) antiderivative for NIG,
    with a Taylor series near xi = 0 where those forms cancel.  The strip
    check runs at xi; the strip holds 0 and is convex, so it then holds the
    whole segment [0, xi].  The tests keep 64-node Gauss-Legendre in y as
    the oracle.
    """
    arr = np.asarray(xi, dtype=complex)
    model.check_strip(arr)
    out = -0.5j * model.mu * arr + model.phi_average(arr)
    return complex(out) if arr.ndim == 0 else out


def _price_asian_continuous(c: AsianContinuous, model: LevyModel, spot: float, tol: float | None,
                            offset_position: float | None, fixed_nodes: int | None) -> PriceResult:
    # Kept as a contour of its own: as asset minus K cash digital under the averaged exponent, the
    # vanilla book's 40 continuous Asians took 0.15 s, not 0.027 s (55,504 vs 38,952 evaluations).
    tau = c.t_end - c.t_start
    lam_minus, lam_plus = model.strip
    # calls need Im(xi) < -1, puts 0 < Im(xi); the payoff transform
    # -1/(xi(xi + i)) is the same on either contour
    if c.w == 1:
        lo, hi = 1.0, -lam_minus
    else:
        lo, hi = 0.0, lam_plus
    if not lo < hi:
        raise StripViolation("strip too narrow for the continuous-Asian contour")
    omega = 0.5 * (lo + hi) if offset_position is None else _interval_point(lo, hi, offset_position)

    d = math.log(spot) - math.log(c.strike)
    if tol is None:
        tol = DEFAULT_TOL_1D
    raw_tol = tol * 2.0 * math.pi / c.strike
    trunc = cq.truncation_radius(
        model.decay_coefficient, model.order, tau / (1.0 + model.order) * 0.9,
        raw_tol * 0.1 * math.exp(-model.decay_shift * tau),
    )

    def integrand(xi):
        return np.exp(1j * xi * d - tau * continuous_asian_psi(model, xi)) / (xi * (xi + 1j))

    # -i K e^{-r tau} / (2 pi i) is the real Fourier scale -K e^{-r tau} / (2 pi)
    prefactor = -1j * c.strike * math.exp(-model.r * tau)
    return _contour_price(integrand, (-c.w * omega,), (trunc,), (d,), raw_tol, prefactor,
                          (1, 0), ContourOffsets((omega,)), fixed_nodes)


def price_contract(
    c: ContractSpec,
    model: LevyModel,
    spot: float,
    tol: float | None = None,
    offset_position: float | None = None,
    fixed_nodes: int | None = None,
) -> PriceResult:
    """Price a contract as its digital portfolio (plus discounted cash).

    The reported error is sum |coef| * (term error).  A term that stalls does
    not stop the others: once all are priced, NoConvergence is raised with
    the whole portfolio's result.
    ``offset_position`` in ]0, 1[ picks the contour offset at that relative
    point of the feasible interval instead of the default rule: each term's
    (``default_offsets``), or the continuous Asian's ]1, -lambda_-[ (calls)
    or ]0, lambda_+[ (puts); useful for contour-invariance checks.
    ``fixed_nodes`` runs one level of that many nodes per axis (grid studies).
    """
    if isinstance(c, AsianContinuous):
        return _price_asian_continuous(c, model, spot, tol, offset_position, fixed_nodes)
    # a compound that solves a critical price has a term with two or more
    # conditions, so its default tolerance is the N-D one
    port = to_portfolio(c, model, tol=DEFAULT_TOL_ND if tol is None else tol)
    return _price_portfolio(port, model, spot, tol, offset_position, fixed_nodes)


def _price_portfolio(port, model, spot, tol=None, offset_position=None, fixed_nodes=None) -> PriceResult:
    """``price_contract`` of the contract whose portfolio is ``port``."""
    if not port.terms:
        return PriceResult(port.cash, 0.0, None, (0, 0), 0)

    value = port.cash
    err = 0.0
    evaluations = 0
    dims = (0, 0)
    offsets_used = None
    stalled = None
    n_terms = len(port.terms)
    if tol is None:
        tol = DEFAULT_TOL_1D if all(p.n <= 1 for _, _, p in port.terms) else DEFAULT_TOL_ND
    for i, (coef, sched, p) in enumerate(port.terms):
        # per-term budget; certificates overshoot true errors, so an n_terms
        # divisor here would demand unattainable refinement of cash legs
        term_tol = tol / max(1.0, abs(coef))
        offsets = None
        if offset_position is not None and p.n > 0:
            offsets = default_offsets(model, p, position=offset_position)
        try:
            res = price_digital(model, sched, p, spot, offsets=offsets, tol=term_tol,
                                fixed_nodes=fixed_nodes)
        except NoConvergence as exc:
            # keep pricing: the caller gets the whole portfolio's best value
            res = exc.result
            stalled = stalled or f"term {i + 1} of {n_terms}: {exc}"
        value += coef * res.value
        err += abs(coef) * res.quadrature_error
        evaluations += res.evaluations
        if res.dimensions > dims:
            dims = res.dimensions
            offsets_used = res.offsets_used
    if n_terms > 1:
        offsets_used = None
    result = PriceResult(value, err, offsets_used, dims, evaluations)
    if stalled is not None:
        raise NoConvergence(stalled, result)
    return result


def compound_parity_check(model: LevyModel, K1: float, T1: float, K2: float,
                          T2: float, w2: int, spot: float) -> float:
    """Residual of call-on-option minus put-on-option parity.

    Exact identity: F2(call-on-opt) - F2(put-on-opt) - F1 + K1*exp(-r*T1) = 0.
    Each price runs at tolerance 1e-7, tighter than the engine's, since the
    residual is itself the quantity of interest.
    """
    tol = 1e-7
    call2 = Compound(((T1, K1, 1), (T2, K2, w2)))
    put2 = Compound(((T1, K1, -1), (T2, K2, w2)))
    inner = Compound(((T2, K2, w2),))
    v_call = price_contract(call2, model, spot, tol=tol).value
    v_put = price_contract(put2, model, spot, tol=tol).value
    v_inner = price_contract(inner, model, spot, tol=tol).value
    return v_call - v_put - v_inner + K1 * math.exp(-model.r * T1)
