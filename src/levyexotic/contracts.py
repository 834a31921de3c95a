"""Exotic contracts as static portfolios of multi-period power digitals.

Each builder returns an exact decomposition: pricing the portfolio equals
pricing the contract.  Compound options additionally need their critical
exercise prices, found by root bracketing on the engine's own sub-option
values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.optimize import brentq

from . import quadrature as cq
from .digitals import (
    DEFAULT_TOL_1D,
    ContourOffsets,
    MonitoringSchedule,
    PayoffParameterSet,
    PriceResult,
    _contour_price,
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
    case a call leg is always exercised and a put leg never.
    """

    legs: tuple[tuple[float, float, int], ...]
    t: float = 0.0

    def __post_init__(self):
        legs = tuple((float(T), float(K), int(w)) for T, K, w in self.legs)
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
    # zero-strike put legs make the whole claim worthless
    for (T, K, w), s_star in zip(c.legs, thresholds):
        if s_star is None and w == -1:
            return DigitalPortfolio((), 0.0)

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
        if len(rows) == 0:
            rows, ks, ws = (), (), ()
        terms.append((coef, sched_j, PayoffParameterSet(gamma_j, ks, ws, rows)))
    return DigitalPortfolio(tuple(terms), cash=0.0)


def to_portfolio(c: ContractSpec, model: LevyModel | None = None,
                 spot: float | None = None) -> DigitalPortfolio:
    """Exact static decomposition of a contract into weighted power digitals.

    ``model`` (and ``spot``) are needed only for compound contracts, whose
    critical prices are solved lazily here.
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
        thresholds = solve_compound_thresholds(c, model)
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


def _compound_value(legs, thresholds, model, spot, t, tol):
    sub = Compound(legs, t=t)
    port = _compound_portfolio(sub, thresholds)
    total = port.cash
    for coef, sched, p in port.terms:
        total += coef * price_digital(model, sched, p, spot, tol=tol).value
    return total


def _bracket_root(objective, x0: float, xtol: float) -> float:
    """Root of ``objective`` bracketed geometrically around ``x0``, then brentq.

    Evaluates x0, then up to 60 pairs x0 / 2^k, x0 * 2^k (lower first) until
    the values at the bracket ends differ in sign or one is zero.
    """
    lo = hi = x0
    f_lo = f_hi = objective(x0)
    doublings = 0
    while not min(f_lo, f_hi) <= 0.0 <= max(f_lo, f_hi):
        if doublings == 60:
            raise NoRoot(f"no sign change between {lo:g} and {hi:g} around {x0:g}")
        lo /= 2.0
        hi *= 2.0
        f_lo, f_hi = objective(lo), objective(hi)
        doublings += 1
    return float(brentq(objective, lo, hi, xtol=xtol, rtol=8.9e-16))


def _solve_thresholds(legs, value, rel_tol: float) -> list:
    """Critical prices S_j* of compound ``legs``, solved innermost-outward.

    ``value(j, inner_thresholds, s)`` prices ``legs[j + 1:]`` at T_j and spot
    s, given their own thresholds; S_j* is where it equals K_j, found by
    ``_bracket_root`` from K_j to relative accuracy ``rel_tol``.  The
    innermost threshold is its strike, and a zero strike yields ``None``
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
        thresholds[j] = _bracket_root(lambda s: value(j, inner, s) - K_j, K_j, K_j * rel_tol)
    return thresholds


def solve_compound_thresholds(c: Compound, model: LevyModel,
                              rel_tol: float = 1e-10) -> list:
    """Critical prices S_j* where the remaining compound value equals K_j.

    Each is solved on the engine's own sub-compound prices
    (``_solve_thresholds``).  Brackets grow geometrically from K_j by factors
    of 2, at most 60 doublings (``_bracket_root``).
    """
    def value(j, inner_thresholds, s):
        T_j, K_j, _ = c.legs[j]
        # pricing-noise floor well below the root tolerance
        tol_inner = max(K_j * rel_tol * 0.01, 1e-13)
        return _compound_value(c.legs[j + 1:], inner_thresholds, model, s, T_j, tol_inner)

    return _solve_thresholds(c.legs, value, rel_tol)


# nodes for the averaged exponent of the continuous Asian
_GL_Y, _GL_WY = np.polynomial.legendre.leggauss(64)
_ASIAN_Y = 0.5 * (_GL_Y + 1.0)
_ASIAN_W = 0.5 * _GL_WY


def continuous_asian_psi(model: LevyModel, xi):
    """Averaged exponent int_0^1 psi(xi*(1-y)) dy by 64-node Gauss-Legendre."""
    arr = np.asarray(xi, dtype=complex)
    scalar = arr.ndim == 0
    lam = 1.0 - _ASIAN_Y  # in ]0,1[
    args = arr[..., None] * lam
    model.check_strip(args)
    vals = model.psi(args)
    out = (vals * _ASIAN_W).sum(axis=-1)
    return complex(out) if scalar else out


def _price_asian_continuous(c: AsianContinuous, model: LevyModel, spot: float,
                            tol: float | None, fixed_nodes: int | None,
                            max_nodes: int | None) -> PriceResult:
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
    omega = 0.5 * (lo + hi)

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
                          (1, 0), ContourOffsets((omega,)), fixed_nodes, max_nodes)


def price_contract(
    c: ContractSpec,
    model: LevyModel,
    spot: float,
    tol: float | None = None,
    offset_position: float | None = None,
    fixed_nodes: int | None = None,
    max_nodes: int | None = None,
) -> PriceResult:
    """Price a contract as its digital portfolio (plus discounted cash).

    The reported error is sum |coef| * (term error).  A term that stalls does
    not stop the others (tensor terms after it get half the node cap): once
    all are priced, NoConvergence is raised with the whole portfolio's result.
    ``offset_position`` picks every term's contour offset at that relative
    point of its feasible interval instead of the tuned default; useful for
    contour-invariance checks.
    """
    if isinstance(c, AsianContinuous):
        return _price_asian_continuous(c, model, spot, tol, fixed_nodes, max_nodes)
    port = to_portfolio(c, model, spot)
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
        tol = 1e-8 if all(p.n <= 1 for _, _, p in port.terms) else 1e-6
    for i, (coef, sched, p) in enumerate(port.terms):
        # per-term budget; certificates overshoot true errors, so an n_terms
        # divisor here would demand unattainable refinement of cash legs
        term_tol = tol / max(1.0, abs(coef))
        offsets = None
        if offset_position is not None and p.n > 0:
            offsets = default_offsets(model, p, position=offset_position)
        # Once a term has stalled the portfolio raises anyway: the remaining
        # tensor terms stop one level short of the cap, for a best value with an
        # honest error at about a quarter of the cost of a full ladder.
        term_cap = max_nodes if stalled is None or p.n < 2 else cq._node_cap(p.n, max_nodes) // 2
        try:
            res = price_digital(model, sched, p, spot, offsets=offsets, tol=term_tol,
                                fixed_nodes=fixed_nodes, max_nodes=term_cap)
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
                          T2: float, w2: int, spot: float,
                          tol: float | None = 1e-7) -> float:
    """Residual of call-on-option minus put-on-option parity.

    Exact identity: F2(call-on-opt) - F2(put-on-opt) - F1 + K1*exp(-r*T1) = 0.
    The default tolerance is tighter than the engine's, since the residual is
    itself the quantity of interest.
    """
    call2 = Compound(((T1, K1, 1), (T2, K2, w2)))
    put2 = Compound(((T1, K1, -1), (T2, K2, w2)))
    inner = Compound(((T2, K2, w2),))
    # slow-decay models need a deeper grid to certify this tolerance
    kwargs = dict(tol=tol, max_nodes=4096)
    v_call = price_contract(call2, model, spot, **kwargs).value
    v_put = price_contract(put2, model, spot, **kwargs).value
    v_inner = price_contract(inner, model, spot, tol=tol).value
    return v_call - v_put - v_inner + K1 * math.exp(-model.r * T1)
