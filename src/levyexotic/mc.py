"""Monte Carlo oracle: exact path simulation at the monitoring dates.

Gaussian increments are sampled exactly; normal-inverse-Gaussian increments
via the normal variance-mean mixture with an inverse-Gaussian mixing time
(Michael-Schucany-Haas transformation with a uniform acceptance branch).
Paths live in fixed-size blocks keyed by (seed, block index) on a
counter-based generator.  The blocks of one price are drawn on a thread pool
sized by the usable CPUs and merged in block order, so path i and every
estimate depend neither on the total path count nor on the CPU count.
Each block's sampling and payoff run as numpy loops thousands of elements
long, whatever the number of dates; every path and estimate stays
bit-identical to the straightforward broadcast formulas that
``tests/test_mc.py`` keeps.

The pool is created on first use, one per process, and its threads then live
as long as the process.  A child forked with no price in flight gets a pool of
its own; forking while another thread is inside an MC price is unsafe, since
the child may inherit a lock held by one of the pool's workers.
"""
from __future__ import annotations

import math
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

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
from .digitals import MonitoringSchedule, PayoffParameterSet, _price_core
from .errors import NestingTooDeep, UnsupportedContract, UnsupportedModel
from .models import GaussianModel, LevyModel, NIGModel

BLOCK = 1 << 14
_CONTINUOUS_STEPS = 256
# Ceiling on the block pool's threads: an NIG block holds four (BLOCK, M)
# float buffers while it is drawn, 134 MB at the continuous Asian's M = 256,
# so each thread adds that much to the peak.  Two is the only pool size whose
# time and memory have been measured (BENCH_12.json, 2 vCPUs).
_MAX_THREADS = 2
# Width of the flat rows the sampler works on (``_row_repeats``); widths from
# 256 to 4096 timed the same.
_FLAT_WIDTH = 4096
# Columns from which ``_cumulate`` leaves its loop of one add per column for
# np.cumsum.  On a (BLOCK, M) block at M = 31 the column loop took 1.2 ms
# against np.cumsum's 2.3 ms, but at M = 32, whose power-of-two stride
# collides in the cache, 4.3 ms; above 32 it wins or loses by M.
_COLUMNWISE_BELOW = 32
_POOLS: dict[int, ThreadPoolExecutor] = {}  # pid -> that process's block pool
SAMPLED_MODELS = (GaussianModel, NIGModel)  # the models with an exact path sampler


@dataclass(frozen=True)
class MCResult:
    estimate: float
    stderr: float
    n_paths: int
    seed: int


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, block))))


def _row_repeats(m: int) -> int:
    """Rows of a (BLOCK, m) block that one flat row holds: the largest power
    of two R with R * m <= ``_FLAT_WIDTH`` (1 when m is wider)."""
    reps = 1
    while 2 * reps * m <= _FLAT_WIDTH:
        reps *= 2
    return reps


def _cumulate(steps: np.ndarray) -> np.ndarray:
    """Cumulative sums along each row of ``steps``, in place.

    Below ``_COLUMNWISE_BELOW`` columns, one add per column (each a BLOCK-long
    loop) beats ``np.cumsum``, whose inner loop is one row long; both add
    x[j - 1] + x[j] left to right, so the sums are the same to the bit.
    """
    m = steps.shape[1]
    if m >= _COLUMNWISE_BELOW:
        return np.cumsum(steps, axis=1, out=steps)
    for j in range(1, m):
        np.add(steps[:, j - 1], steps[:, j], out=steps[:, j])
    return steps


def _simulate_block(model: LevyModel, deltas: np.ndarray, seed: int, block: int) -> np.ndarray:
    """One block of cumulative log-price paths, shape (BLOCK, M), X_t = 0 base.

    The model is one of ``SAMPLED_MODELS`` (``_iter_blocks`` rejects the
    others).  The draws and the arithmetic run in place on at most four
    buffers of BLOCK * M floats, each seen as (BLOCK / R, R * M) rows of
    ``_row_repeats(M)`` = R paths, against the per-date constants tiled R
    times, so every numpy loop is thousands of elements long however few the
    dates.  The draws come in the same order and every floating-point
    operation keeps the order of the broadcast formula, so paths are
    bit-identical to it (``tests/test_mc.py`` keeps that formula as the
    oracle).
    """
    rng = _block_rng(seed, block)
    m = deltas.shape[0]
    reps = _row_repeats(m)
    shape = (BLOCK // reps, reps * m)
    deltas = np.tile(deltas, reps)
    steps = rng.standard_normal(shape)
    if isinstance(model, GaussianModel):
        steps *= model.sigma * np.sqrt(deltas)
        steps += model.mu * deltas
        return _cumulate(steps.reshape(BLOCK, m))
    gam = math.sqrt(model.alpha**2 - model.beta**2)
    mean = model.delta * deltas / gam  # inverse-Gaussian mean and shape per column
    shape_ig = (model.delta * deltas) ** 2
    mean_sq = mean * mean
    two_shape = 2.0 * shape_ig
    y = rng.standard_normal(shape)
    np.square(y, out=y)
    x = np.multiply(mean_sq, y)
    x /= two_shape
    x += mean
    root = np.multiply(mean, y)
    np.square(root, out=root)
    y *= 4.0 * mean * shape_ig
    y += root
    np.sqrt(y, out=y)
    y *= mean / two_shape
    x -= y  # the smaller root of the transformation
    u = rng.random(shape, out=root)
    np.add(mean, x, out=y)
    np.divide(mean, y, out=y)
    take_x = u <= y
    mixing = np.divide(mean_sq, x, out=y)  # the larger root, mean^2 / x
    np.putmask(mixing, take_x, x)
    drift = np.multiply(model.beta, mixing, out=x)
    drift += model.mu * deltas
    steps *= np.sqrt(mixing, out=mixing)
    steps += drift
    return _cumulate(steps.reshape(BLOCK, m))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _pool() -> ThreadPoolExecutor:
    """This process's block pool, created on first use with one thread per
    usable CPU, at most ``_MAX_THREADS``.

    Keyed by pid: a child forked after the parent used the pool inherits the
    executor but none of its threads, and would wait forever on it.  Callers
    racing to create it all get the one ``setdefault`` stored; the others'
    executors never started a thread.
    """
    pid = os.getpid()
    pool = _POOLS.get(pid)
    if pool is None:
        workers = min(_usable_cpus(), _MAX_THREADS)
        pool = _POOLS.setdefault(pid, ThreadPoolExecutor(workers, thread_name_prefix="levyexotic-mc"))
    return pool


def _integer(value, name: str) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _iter_blocks(model, sched: MonitoringSchedule, n_paths: int, seed: int, fn):
    """``fn`` of each path block of at most BLOCK rows, in block order.

    Blocks are drawn concurrently on a thread pool sized by the usable CPUs
    (numpy releases the interpreter lock while it fills and combines arrays)
    and yielded in block order, so results never depend on the CPU count.
    A bad ``n_paths`` or ``seed``, or a model without a sampler, raises at
    the call, before any block is drawn.
    """
    n_paths, seed = _integer(n_paths, "n_paths"), _integer(seed, "seed")
    if n_paths < 1:
        raise ValueError("need at least one path")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if not isinstance(model, SAMPLED_MODELS):
        raise UnsupportedModel(f"no exact path sampler for the {model.kind} model")
    deltas = sched.intervals()
    n_blocks = (n_paths + BLOCK - 1) // BLOCK

    def draw(block):
        return fn(_simulate_block(model, deltas, seed, block)[:min(BLOCK, n_paths - block * BLOCK)])

    return _pool().map(draw, range(n_blocks))


def simulate_monitoring(model: LevyModel, sched: MonitoringSchedule,
                        n_paths: int, seed: int) -> np.ndarray:
    """Paths of X at the monitoring dates, shape (n_paths, M), relative to X_t = 0."""
    return np.concatenate(list(_iter_blocks(model, sched, n_paths, seed, lambda x: x)), axis=0)


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
    """Value of a vanilla (T, K, w) at time t1 as a spline in log spot, from two 320-spot strips."""
    from scipy.interpolate import CubicSpline

    T, K, w = leg
    grid = np.linspace(x_lo - 0.5, x_hi + 0.5, 320)
    sched = MonitoringSchedule(t1, (T,))
    spots = [math.exp(g) for g in grid]
    asset, cash = (
        np.array([res.value for res in _price_core(
            model, sched, PayoffParameterSet((gamma,), (math.log(K),), (w,), ((1.0,),)), spots)])
        for gamma in (1.0, 0.0)
    )
    return CubicSpline(grid, w * (asset - K * cash))


def _row_extreme(x: np.ndarray, largest: bool) -> np.ndarray:
    """Largest or least entry of each row of x, by one np.maximum or
    np.minimum per column, each a BLOCK-long loop as in ``_cumulate``."""
    pick = np.maximum if largest else np.minimum
    out = x[:, 0].copy()
    for j in range(1, x.shape[1]):
        pick(out, x[:, j], out=out)
    return out


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
        # the extreme price is exp of the extreme log path for any exp that
        # never decreases; bit-identity with exp-then-reduce is tested, not
        # promised by numpy, whose SIMD exp is only within about 1 ulp
        w = c.w
        best = w * np.exp(log_s + _row_extreme(x, largest=w > 0))
        return np.maximum(best, w * c.strike) - w * c.strike
    if isinstance(c, Chooser):
        s1 = np.exp(log_s + x[:, 0])
        s_T = np.exp(log_s + x[:, 1])
        early = c.strike * math.exp(-model.r * (c.t_expiry - c.t1))
        call = np.maximum(s_T - c.strike, 0.0)
        put = np.maximum(c.strike - s_T, 0.0)
        return np.where(s1 > early, call, put)
    if isinstance(c, BarrierDownOutCall):
        alive = True
        if x.shape[1] > 1:  # as for the lookback, exact for any exp that never decreases
            alive = np.exp(log_s + _row_extreme(x[:, :-1], largest=False)) > c.barrier
        return np.maximum(np.exp(log_s + x[:, -1]) - c.strike, 0.0) * alive
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
    payoffs = _iter_blocks(model, sched, n_paths, seed,
                           lambda x: discount * _pathwise_payoff(c, model, spot, x))
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

    blocks = list(_iter_blocks(model, sched, n_paths, seed, lambda x: x[:, 0]))
    # Rounding is monotone, so min(x) + log_s is the least of x + log_s.
    x_lo = min(float(x.min()) for x in blocks) + log_s
    x_hi = max(float(x.max()) for x in blocks) + log_s
    curve = _vanilla_curve(model, t1, inner, x_lo, x_hi)

    payoffs = (discount * np.maximum(w1 * (curve(x + log_s) - k1), 0.0) for x in blocks)
    return _accumulate(payoffs, seed)
