"""Monte Carlo oracle: exact path simulation at the monitoring dates.

Gaussian increments are sampled exactly; normal-inverse-Gaussian increments
via the normal variance-mean mixture with an inverse-Gaussian mixing time
(Michael-Schucany-Haas transformation with a uniform acceptance branch).
Paths live in fixed-size blocks keyed by (seed, block index) on a
counter-based generator, so path i never depends on the total path count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .contracts import (
    AsianContinuous,
    AsianGeometric,
    BarrierDownOutCall,
    Chooser,
    Compound,
    ContractSpec,
    Digital,
    ForwardStart,
    LookbackFixed,
)
from .digitals import MonitoringSchedule, price_single_period
from .errors import NestingTooDeep, UnsupportedContract, UnsupportedModel
from .models import GaussianModel, LevyModel, NIGModel

BLOCK = 1 << 14
_CONTINUOUS_STEPS = 256


@dataclass(frozen=True)
class MCResult:
    estimate: float
    stderr: float
    n_paths: int
    seed: int


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, block))))


def _sample_inverse_gaussian(mean, shape, rng, size):
    """Inverse-Gaussian draws with the quadratic-transformation method."""
    nu = rng.standard_normal(size)
    u = rng.random(size)
    y = nu * nu
    x = mean + (mean * mean * y) / (2.0 * shape) - (mean / (2.0 * shape)) * np.sqrt(
        4.0 * mean * shape * y + (mean * y) ** 2
    )
    alt = mean * mean / x
    return np.where(u <= mean / (mean + x), x, alt)


def _simulate_block(model: LevyModel, deltas: np.ndarray, seed: int, block: int) -> np.ndarray:
    """One block of cumulative log-price paths, shape (BLOCK, M), X_t = 0 base."""
    rng = _block_rng(seed, block)
    m = deltas.shape[0]
    if isinstance(model, GaussianModel):
        z = rng.standard_normal((BLOCK, m))
        steps = model.mu * deltas + model.sigma * np.sqrt(deltas) * z
    elif isinstance(model, NIGModel):
        eps = rng.standard_normal((BLOCK, m))
        gam = math.sqrt(model.alpha**2 - model.beta**2)
        mean_ig = model.delta * deltas / gam
        shape_ig = (model.delta * deltas) ** 2
        mixing = _sample_inverse_gaussian(
            np.broadcast_to(mean_ig, (BLOCK, m)),
            np.broadcast_to(shape_ig, (BLOCK, m)),
            rng,
            (BLOCK, m),
        )
        steps = model.mu * deltas + model.beta * mixing + np.sqrt(mixing) * eps
    else:
        raise UnsupportedModel(
            f"no exact path sampler for the {model.kind} model"
        )
    return steps.cumsum(axis=1)


def _iter_blocks(model, sched: MonitoringSchedule, n_paths: int, seed: int):
    deltas = sched.intervals()
    n_blocks = (n_paths + BLOCK - 1) // BLOCK
    for block in range(n_blocks):
        x = _simulate_block(model, deltas, seed, block)
        take = min(BLOCK, n_paths - block * BLOCK)
        yield x[:take]


def simulate_monitoring(model: LevyModel, sched: MonitoringSchedule,
                        n_paths: int, seed: int) -> np.ndarray:
    """Paths of X at the monitoring dates, shape (n_paths, M), relative to X_t = 0."""
    if n_paths < 1:
        raise ValueError("need at least one path")
    return np.concatenate(list(_iter_blocks(model, sched, n_paths, seed)), axis=0)


def _digital_payoff(x, spot, p):
    log_s = math.log(spot)
    vals = np.exp(x @ np.array(p.gamma) + np.sum(p.gamma) * log_s)
    if p.n:
        a = p.matrix()
        z = (x + log_s) @ a.T  # (n_paths, N)
        signs = np.array(p.w, dtype=float)
        ok = np.all(signs * (z - np.array(p.k_log)) >= 0.0, axis=1)
        vals = vals * ok
    return vals


def _contract_schedule(c: ContractSpec) -> MonitoringSchedule:
    if isinstance(c, (Digital, AsianGeometric, LookbackFixed, BarrierDownOutCall)):
        return c.schedule
    if isinstance(c, ForwardStart):
        return MonitoringSchedule(c.t, (c.t1, c.t2))
    if isinstance(c, Chooser):
        return MonitoringSchedule(c.t, (c.t1, c.t_expiry))
    if isinstance(c, Compound):
        return MonitoringSchedule(c.t, tuple(T for T, _, _ in c.legs))
    if isinstance(c, AsianContinuous):
        step = (c.t_end - c.t_start) / _CONTINUOUS_STEPS
        dates = tuple(c.t_start + step * k for k in range(1, _CONTINUOUS_STEPS + 1))
        return MonitoringSchedule(c.t_start, dates)
    raise UnsupportedContract(f"unknown contract type {type(c).__name__}")


def _vanilla_curve(model, t1, leg, x_lo, x_hi):
    """Value of a vanilla (T, K, w) at time t1 as a spline in log spot."""
    T, K, w = leg
    grid = np.linspace(x_lo - 0.5, x_hi + 0.5, 320)
    asset = np.array([
        price_single_period(model, T, 1.0, 1.0, w, math.log(K), math.exp(g), t=t1).value
        for g in grid
    ])
    cash = np.array([
        price_single_period(model, T, 0.0, 1.0, w, math.log(K), math.exp(g), t=t1).value
        for g in grid
    ])
    return CubicSpline(grid, w * (asset - K * cash))


def _pathwise_payoff(c, model, spot, x):
    """Payoff per path (paid at the contract's last relevant date)."""
    log_s = math.log(spot)
    if isinstance(c, Digital):
        return _digital_payoff(x, spot, c.payoff)
    if isinstance(c, ForwardStart):
        s1 = np.exp(log_s + x[:, 0])
        s2 = np.exp(log_s + x[:, 1])
        return np.maximum(c.w * (s2 - s1), 0.0)
    if isinstance(c, AsianGeometric):
        theta = c.normalized_weights()
        avg = np.exp(log_s + x @ theta)
        return np.maximum(c.w * (avg - c.strike), 0.0)
    if isinstance(c, AsianContinuous):
        # trapezoid average of the log path, including the known X_t = 0 start
        inner = x[:, :-1].sum(axis=1)
        mean_x = (0.5 * 0.0 + inner + 0.5 * x[:, -1]) / _CONTINUOUS_STEPS
        avg = np.exp(log_s + mean_x)
        return np.maximum(c.w * (avg - c.strike), 0.0)
    if isinstance(c, LookbackFixed):
        s = np.exp(log_s + x)
        w = c.w
        best = np.max(w * s, axis=1)
        return np.maximum(best, w * c.strike) - w * c.strike
    if isinstance(c, Chooser):
        s1 = np.exp(log_s + x[:, 0])
        s_T = np.exp(log_s + x[:, 1])
        early = c.strike * math.exp(-model.r * (c.t_expiry - c.t1))
        call = np.maximum(s_T - c.strike, 0.0)
        put = np.maximum(c.strike - s_T, 0.0)
        return np.where(s1 > early, call, put)
    if isinstance(c, BarrierDownOutCall):
        s = np.exp(log_s + x)
        alive = np.all(s[:, :-1] > c.barrier, axis=1) if s.shape[1] > 1 else True
        return np.maximum(s[:, -1] - c.strike, 0.0) * alive
    raise UnsupportedContract(f"no pathwise payoff for {type(c).__name__}")


def mc_price(c: ContractSpec, model: LevyModel, spot: float,
             n_paths: int, seed: int) -> MCResult:
    """Discounted sample-mean price with its standard error.

    Compound options are limited to depth 2 and price the inner option with
    the contour engine on a spline over the simulated states.
    """
    if isinstance(c, Compound):
        return _mc_compound(c, model, spot, n_paths, seed)
    sched = _contract_schedule(c)
    discount = math.exp(-model.r * (sched.expiry - sched.t))
    payoffs = (discount * _pathwise_payoff(c, model, spot, x)
               for x in _iter_blocks(model, sched, n_paths, seed))
    return _accumulate(payoffs, seed)


def _accumulate(blocks, seed: int) -> MCResult:
    """Sample mean and standard error over blocks of discounted payoffs.

    The mean is fsum(block sums) / count.  Each block's squared deviations
    are summed about its own mean (two passes) and the blocks are merged with
    Chan's pairwise update, so small variances keep their digits.
    """
    sums = []
    count = 0
    mean = m2 = 0.0
    for pay in blocks:
        size = pay.shape[0]
        block_sum = float(pay.sum())
        block_mean = block_sum / size
        block_m2 = float(((pay - block_mean) ** 2).sum())
        gap = block_mean - mean
        m2 += block_m2 + gap * gap * count * size / (count + size)
        mean += gap * size / (count + size)
        sums.append(block_sum)
        count += size
    estimate = math.fsum(sums) / count
    stderr = math.sqrt(m2 / count / count) if count > 1 else 0.0
    return MCResult(estimate, stderr, count, seed)


def _mc_compound(c: Compound, model, spot, n_paths, seed):
    if len(c.legs) > 2:
        raise NestingTooDeep("Monte Carlo prices compounds of depth at most 2")
    if len(c.legs) == 1:
        T, K, w = c.legs[0]
        equivalent = AsianGeometric(MonitoringSchedule(c.t, (T,)), K, w)
        return mc_price(equivalent, model, spot, n_paths, seed)

    (t1, k1, w1), inner = c.legs[0], c.legs[1]
    sched = MonitoringSchedule(c.t, (t1,))
    discount = math.exp(-model.r * (t1 - c.t))
    log_s = math.log(spot)

    blocks = list(_iter_blocks(model, sched, n_paths, seed))
    x_all = np.concatenate(blocks, axis=0)[:, 0] + log_s
    curve = _vanilla_curve(model, t1, inner, float(x_all.min()), float(x_all.max()))

    payoffs = (discount * np.maximum(w1 * (curve(x[:, 0] + log_s) - k1), 0.0) for x in blocks)
    return _accumulate(payoffs, seed)
