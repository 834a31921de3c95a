"""Gaussian closed forms used as independent oracles for the contour engine.

The closed forms are assembled from the normal CDF and elementary functions;
no contour integral appears on their path.  The multivariate normal CDF uses
deterministic recursive conditioning (no randomized rules), so oracle values
reproduce bit for bit.  The one contour here is the other side of the
normal-CDF identity (``lemma1_contour_side``), priced by the engine itself
as a power digital under the driftless unit-variance Gaussian.
"""
from __future__ import annotations

import math

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
    _cash_compound,
    _solve_thresholds,
)
from .digitals import ContourOffsets, MonitoringSchedule, PayoffParameterSet, price_digital
from .errors import DimensionTooLarge, NotPSD, UnsupportedContract
from .models import GaussianModel

MVN_MAX_DIM = 4
_CLIP = 38.0  # ndtr saturates in double precision beyond this

_GL48_X, _GL48_W = np.polynomial.legendre.leggauss(48)


def ndtr(x):
    """The standard normal CDF, ``scipy.special.ndtr``, imported on first use."""
    from scipy.special import ndtr as cdf
    return cdf(x)


def _panel_nodes(lo, hi, n_panels: int, gl_x, gl_w):
    """Composite Gauss-Legendre nodes/weights on per-element intervals.

    ``lo`` and ``hi`` broadcast; returns arrays of shape lo.shape + (nodes,).
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    edges = np.linspace(0.0, 1.0, n_panels + 1)
    starts = edges[:-1]
    widths = edges[1:] - edges[:-1]
    u = (starts[:, None] + widths[:, None] * 0.5 * (gl_x + 1.0)).ravel()
    wu = (widths[:, None] * 0.5 * gl_w).ravel()
    span = (hi - lo)[..., None]
    x = lo[..., None] + span * u
    w = span * wu
    return x, w


def _bvn_mid(a, b, rho):
    """Bivariate normal CDF for |rho| <= 0.925 via the arcsine-form integral."""
    asr = np.arcsin(rho)
    theta = asr[..., None] * 0.5 * (_GL48_X + 1.0)
    sin_t = np.sin(theta)
    cos2 = 1.0 - sin_t**2
    aa = a[..., None]
    bb = b[..., None]
    integ = np.exp(-(aa**2 + bb**2 - 2.0 * aa * bb * sin_t) / (2.0 * cos2))
    corr = (integ * _GL48_W).sum(axis=-1) * asr * 0.5 / (2.0 * math.pi)
    return ndtr(a) * ndtr(b) + corr


_GL8_X, _GL8_W = np.polynomial.legendre.leggauss(8)
_GL12_X, _GL12_W = np.polynomial.legendre.leggauss(12)


def _bvn_high(a, b, rho):
    """|rho| > 0.925: conditioning integral with panels graded at the kink.

    N2(a,b,rho) = int_{-inf}^{a} phi(x) Phi((b - rho x)/s) dx with
    s = sqrt(1-rho^2); the Phi factor switches over a width ~ s/|rho| around
    x0 = b/rho, so that region gets its own fine panels.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    rho = np.asarray(rho, dtype=float)
    s = np.sqrt(np.clip(1.0 - rho**2, 1e-30, None))
    x0 = b / rho
    half = 10.0 * s / np.abs(rho)

    lo = np.full(a.shape, -8.5)
    hi = np.minimum(a, 8.5)
    c1 = np.clip(x0 - half, lo, hi)
    c2 = np.clip(x0 + half, lo, hi)

    total = np.zeros(a.shape)
    for seg_lo, seg_hi, n_panels in ((lo, c1, 12), (c1, c2, 16), (c2, hi, 12)):
        x, wgt = _panel_nodes(seg_lo, seg_hi, n_panels, _GL8_X, _GL8_W)
        phi_x = np.exp(-0.5 * x**2) / math.sqrt(2.0 * math.pi)
        inner = ndtr((b[..., None] - rho[..., None] * x) / s[..., None])
        total += (phi_x * inner * wgt).sum(axis=-1)
    # mass beyond the clipped upper limit
    tail = np.clip(ndtr(a) - ndtr(np.full(a.shape, 8.5)), 0.0, None)
    total += tail * ndtr((b - rho * 8.5) / s)
    return total


def bvn_cdf(a, b, rho):
    """P(X <= a, Y <= b) for standard bivariate normal with correlation rho."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    rho = np.broadcast_to(np.asarray(rho, dtype=float), np.broadcast_shapes(a.shape, b.shape, np.shape(rho))).copy()
    a, b = np.broadcast_arrays(a, b)
    a = np.clip(a, -_CLIP, _CLIP)
    b = np.clip(b, -_CLIP, _CLIP)
    out = np.empty(a.shape)

    near_one = np.abs(rho) >= 1.0 - 1e-12
    mid = (~near_one) & (np.abs(rho) <= 0.925)
    high = (~near_one) & (~mid)
    if np.any(mid):
        out[mid] = _bvn_mid(a[mid], b[mid], rho[mid])
    if np.any(high):
        out[high] = _bvn_high(a[high], b[high], rho[high])
    if np.any(near_one):
        pos = near_one & (rho > 0)
        neg = near_one & (rho < 0)
        out[pos] = ndtr(np.minimum(a[pos], b[pos]))
        out[neg] = np.clip(ndtr(a[neg]) + ndtr(b[neg]) - 1.0, 0.0, None)
    return np.clip(out, 0.0, 1.0)


def check_correlation(corr: np.ndarray) -> np.ndarray:
    corr = np.asarray(corr, dtype=float)
    if corr.ndim != 2 or corr.shape[0] != corr.shape[1]:
        raise NotPSD("correlation matrix must be square")
    n = corr.shape[0]
    if n > MVN_MAX_DIM:
        raise DimensionTooLarge(f"MVN CDF supports N <= {MVN_MAX_DIM}, got {n}")
    if not np.allclose(corr, corr.T, atol=1e-10):
        raise NotPSD("correlation matrix must be symmetric")
    if not np.allclose(np.diag(corr), 1.0, atol=1e-10):
        raise NotPSD("correlation matrix must have a unit diagonal")
    if n > 1 and np.linalg.eigvalsh(corr).min() < -1e-10:
        raise NotPSD("correlation matrix must be positive semidefinite")
    return corr


def _mvn_batch(d: np.ndarray, corr: np.ndarray) -> np.ndarray:
    """Recursive-conditioning MVN CDF over a batch: d (B, N), corr (B, N, N)."""
    n = d.shape[1]
    if n == 1:
        return ndtr(d[:, 0])
    if n == 2:
        return bvn_cdf(d[:, 0], d[:, 1], corr[:, 0, 1])

    d0 = np.clip(d[:, 0], -_CLIP, _CLIP)
    lo = np.full(d0.shape, -8.5)
    hi = np.maximum(np.minimum(d0, 8.5), lo)  # empty interval collapses to zero span
    x, wgt = _panel_nodes(lo, hi, 20, _GL12_X, _GL12_W)
    # append one node carrying the upper tail mass beyond 8.5
    tail_mass = np.clip(ndtr(d0) - ndtr(np.full(d0.shape, 8.5)), 0.0, None)
    x = np.concatenate([x, np.full(d0.shape + (1,), 8.5)], axis=-1)
    phi_w = np.exp(-0.5 * x[..., :-1] ** 2) / math.sqrt(2.0 * math.pi) * wgt
    weights = np.concatenate([phi_w, tail_mass[..., None]], axis=-1)

    c1 = corr[:, 0, 1:]                       # (B, N-1)
    sub = corr[:, 1:, 1:]                     # (B, N-1, N-1)
    sd = np.sqrt(np.clip(1.0 - c1**2, 1e-24, None))
    cov = sub - c1[:, :, None] * c1[:, None, :]
    denom = sd[:, :, None] * sd[:, None, :]
    corr_cond = np.clip(cov / denom, -1.0, 1.0)
    idx = np.arange(n - 1)
    corr_cond[:, idx, idx] = 1.0

    n_nodes = x.shape[-1]
    thresh = (d[:, None, 1:] - c1[:, None, :] * x[..., None]) / sd[:, None, :]
    thresh = np.clip(thresh, -_CLIP, _CLIP)
    flat_thresh = thresh.reshape(-1, n - 1)
    flat_corr = np.repeat(corr_cond, n_nodes, axis=0)
    inner = _mvn_batch(flat_thresh, flat_corr).reshape(-1, n_nodes)
    return (inner * weights).sum(axis=-1)


def mvn_cdf(d, corr) -> float:
    """Multivariate normal CDF P(X_i <= d_i) for a correlation matrix (N <= MVN_MAX_DIM)."""
    corr = check_correlation(corr)
    d = np.asarray(d, dtype=float).reshape(-1)
    if d.shape[0] != corr.shape[0]:
        raise ValueError("threshold vector and correlation matrix disagree")
    d = np.clip(d, -_CLIP, _CLIP)
    return float(np.clip(_mvn_batch(d[None, :], corr[None, :, :])[0], 0.0, 1.0))


def lemma1_contour_side(d, corr, w, omega, tol: float = 1e-8):
    """Contour-integral side of the normal-CDF identity, priced as a power digital.

    (2 pi i)^-N times the N-fold integral of exp(i sum xi_k d_k - 1/2 xi' C xi)
    / prod xi_k over Im xi_k = -w_k omega_k; it equals prod(w) * N_N(w*d; WCW).
    The integral is prod(w) times the digital with strikes -d on the spot 1 at
    dates 1..N under the driftless unit-variance Gaussian, r = 0: its leg
    couplings are the Cholesky factor L of C, since the rows of ``a`` are
    differences of L's columns and their suffix sums give back L.
    """
    corr = check_correlation(corr)
    n = corr.shape[0]
    if n > 3:
        raise DimensionTooLarge("the contour side is capped at N <= 3")
    try:
        chol = np.linalg.cholesky(corr)
    except np.linalg.LinAlgError:
        raise NotPSD("correlation matrix is singular") from None
    rows = chol - np.hstack((chol[:, 1:], np.zeros((n, 1))))
    p = PayoffParameterSet((0.0,) * n, tuple(-np.ravel(d)), tuple(np.ravel(w)), tuple(map(tuple, rows)))
    unit = GaussianModel(mu=0.0, r=0.0, sigma=1.0)
    sched = MonitoringSchedule(0.0, tuple(range(1, n + 1)))
    res = price_digital(unit, sched, p, 1.0, ContourOffsets(tuple(np.ravel(omega))), tol)
    return math.prod(p.w) * res.value


# ---------------------------------------------------------------------------
# closed-form contract prices (Gaussian model only)

def _bs_price(spot, strike, tau, sigma, r, w=1):
    if strike <= 0:
        return max(w, 0) * spot  # zero-strike call is the asset, put worthless
    if tau <= 0:
        return max(w * (spot - strike), 0.0)
    vol = sigma * math.sqrt(tau)
    d1 = (math.log(spot / strike) + (r + 0.5 * sigma**2) * tau) / vol
    d2 = d1 - vol
    return w * (spot * ndtr(w * d1) - strike * math.exp(-r * tau) * ndtr(w * d2))


def _log_price_moments(spot, sigma, r, t, dates):
    dates = np.asarray(dates, dtype=float)
    mean = math.log(spot) + (r - 0.5 * sigma**2) * (dates - t)
    cov = sigma**2 * (np.minimum.outer(dates, dates) - t)
    return mean, cov


def _event_expectation(spot, sigma, r, t, dates, rows, thresholds, tilt):
    """E[exp(tilt . X) 1(rows . X >= thresholds)] for the monitored log prices."""
    rows = np.asarray(rows, dtype=float)
    thresholds = np.asarray(thresholds, dtype=float)
    tilt = np.asarray(tilt, dtype=float)
    mean, cov = _log_price_moments(spot, sigma, r, t, dates)
    factor = math.exp(tilt @ mean + 0.5 * tilt @ cov @ tilt)
    if rows.size == 0:
        return factor
    shifted = mean + cov @ tilt
    z_cov = rows @ cov @ rows.T
    sd = np.sqrt(np.clip(np.diag(z_cov), 1e-30, None))
    arg = (rows @ shifted - thresholds) / sd
    corr = z_cov / np.outer(sd, sd)
    np.fill_diagonal(corr, 1.0)
    return factor * mvn_cdf(arg, corr)


def _digital_cf(c: Digital, sigma, r, spot):
    p = c.payoff
    sched = c.schedule
    tau = sched.expiry - sched.t
    rows = np.diag(p.w) @ p.matrix() if p.n else np.zeros((0, p.m))
    thresholds = np.array(p.w, dtype=float) * np.array(p.k_log) if p.n else np.zeros(0)
    val = _event_expectation(spot, sigma, r, sched.t, sched.dates, rows, thresholds,
                             np.array(p.gamma))
    return math.exp(-r * tau) * val


def _forward_start_cf(c: ForwardStart, sigma, r, spot):
    tau = c.t2 - c.t1
    w = c.w
    d_plus = (r / sigma + sigma / 2.0) * math.sqrt(tau)
    d_minus = (r / sigma - sigma / 2.0) * math.sqrt(tau)
    return w * spot * (ndtr(w * d_plus) - math.exp(-r * tau) * ndtr(w * d_minus))


def _asian_geometric_cf(c: AsianGeometric, sigma, r, spot):
    sched = c.schedule
    theta = c.normalized_weights()
    lam = theta[::-1].cumsum()[::-1]  # suffix weights per leg
    deltas = sched.intervals()
    drift = (r - 0.5 * sigma**2) * float(deltas @ lam)
    var = sigma**2 * float(deltas @ lam**2)
    return _lognormal_option(spot, c.strike, drift, var, r, sched.expiry - sched.t, c.w)


def _asian_continuous_cf(c: AsianContinuous, sigma, r, spot):
    tau = c.t_end - c.t_start
    drift = (r - 0.5 * sigma**2) * tau / 2.0
    var = sigma**2 * tau / 3.0
    return _lognormal_option(spot, c.strike, drift, var, r, tau, c.w)


def _lognormal_option(spot, strike, drift, var, r, tau_disc, w):
    """Discounted E[(w(A - K))^+] for ln A ~ N(ln spot + drift, var)."""
    m = math.log(spot) + drift
    v = math.sqrt(var)
    disc = math.exp(-r * tau_disc)
    d_low = (m - math.log(strike)) / v
    return w * disc * (
        math.exp(m + 0.5 * var) * ndtr(w * (d_low + v)) - strike * ndtr(w * d_low)
    )


def _chooser_cf(c: Chooser, sigma, r, spot):
    tau = c.t_expiry - c.t
    call = _bs_price(spot, c.strike, tau, sigma, r, 1)
    early_strike = c.strike * math.exp(-r * (c.t_expiry - c.t1))
    put = _bs_price(spot, early_strike, c.t1 - c.t, sigma, r, -1)
    return call + put


def _compound_cf(legs, t, sigma, r, spot, thresholds=None):
    """Geske-style compound price and delta; ``thresholds`` skips the critical-price solve.

    The delta is the leading MVN term without the spot: the terms' slopes in
    their critical prices cancel (Geske 1979, J. Financial Economics 7).
    """
    cash = _cash_compound(legs, t, r)
    if cash is not None:
        return cash, 0.0
    n_legs = len(legs)
    dates = np.array([T for T, _, _ in legs])
    signs = [w for _, _, w in legs]
    if n_legs == 1:
        T, K, w = legs[0]
        d1 = (math.log(spot / K) + (r + 0.5 * sigma**2) * (T - t)) / (sigma * math.sqrt(T - t))
        return _bs_price(spot, K, T - t, sigma, r, w), w * ndtr(w * d1)

    if thresholds is None:
        thresholds = _compound_cf_thresholds(legs, t, sigma, r)
    taus = dates - t
    vol = sigma * np.sqrt(taus)
    # exercise directions prod_{k>=j} w_k, as in contracts._compound_portfolio
    ws = np.cumprod(signs[::-1])[::-1].astype(float)
    # a zero-strike leg here is a call, which is always exercised
    ln_ratio = np.array([
        math.log(spot / s_star) if s_star is not None else direction * _CLIP * v
        for s_star, direction, v in zip(thresholds, ws, vol)
    ])
    d_plus = (ln_ratio + (r + 0.5 * sigma**2) * taus) / vol
    d_minus = d_plus - vol
    base = np.sqrt(np.minimum.outer(taus, taus) / np.maximum.outer(taus, taus))
    corr = base * np.outer(ws, ws)
    np.fill_diagonal(corr, 1.0)

    delta = math.prod(signs) * mvn_cdf(ws * d_plus, corr)
    price = spot * delta
    for j in range(n_legs):
        K_j = legs[j][1]
        if K_j == 0.0:
            continue
        sub = slice(0, j + 1)
        price -= (
            math.prod(signs[: j + 1])
            * K_j
            * math.exp(-r * (dates[j] - t))
            * mvn_cdf((ws * d_minus)[sub], corr[sub, sub])
        )
    return price, delta


def _compound_cf_thresholds(legs, t, sigma, r):
    def value(j, inner_thresholds, s):
        return _compound_cf(legs[j + 1:], legs[j][0], sigma, r, s, inner_thresholds)

    return _solve_thresholds(legs, value, 1e-12)


def _lookback_cf(c: LookbackFixed, sigma, r, spot):
    sched = c.schedule
    m = sched.m
    w = c.w
    ln_k = math.log(c.strike)
    disc = math.exp(-r * (sched.expiry - sched.t))
    total = 0.0
    for p in range(m):
        rows = []
        thresholds = []
        for j in range(m):
            if j == p:
                continue
            row = np.zeros(m)
            row[p] = w
            row[j] = -w
            rows.append(row)
            thresholds.append(0.0)
        row = np.zeros(m)
        row[p] = w
        rows.append(row)
        thresholds.append(w * ln_k)
        tilt = np.zeros(m)
        tilt[p] = 1.0
        total += _event_expectation(spot, sigma, r, sched.t, sched.dates,
                                    np.array(rows), np.array(thresholds), tilt)
    rows = -w * np.eye(m)
    thresholds = np.full(m, -w * ln_k)
    all_below = _event_expectation(spot, sigma, r, sched.t, sched.dates, rows,
                                   thresholds, np.zeros(m))
    return w * disc * total + w * c.strike * disc * all_below - w * c.strike * disc


def _barrier_cf(c: BarrierDownOutCall, sigma, r, spot):
    sched = c.schedule
    m = sched.m
    rows = np.eye(m)
    thresholds = np.concatenate([
        np.full(m - 1, math.log(c.barrier)), [math.log(c.strike)]
    ])
    disc = math.exp(-r * (sched.expiry - sched.t))
    tilt = np.zeros(m)
    tilt[-1] = 1.0
    asset = _event_expectation(spot, sigma, r, sched.t, sched.dates, rows, thresholds, tilt)
    prob = _event_expectation(spot, sigma, r, sched.t, sched.dates, rows, thresholds,
                              np.zeros(m))
    return disc * (asset - c.strike * prob)


def closed_form_price(c: ContractSpec, sigma: float, r: float, spot: float) -> float:
    """Gaussian-model price of a contract from normal CDFs alone."""
    if isinstance(c, Digital):
        return _digital_cf(c, sigma, r, spot)
    if isinstance(c, ForwardStart):
        return _forward_start_cf(c, sigma, r, spot)
    if isinstance(c, AsianGeometric):
        return _asian_geometric_cf(c, sigma, r, spot)
    if isinstance(c, AsianContinuous):
        return _asian_continuous_cf(c, sigma, r, spot)
    if isinstance(c, Chooser):
        return _chooser_cf(c, sigma, r, spot)
    if isinstance(c, Compound):
        return _compound_cf(c.legs, c.t, sigma, r, spot)[0]
    if isinstance(c, LookbackFixed):
        return _lookback_cf(c, sigma, r, spot)
    if isinstance(c, BarrierDownOutCall):
        return _barrier_cf(c, sigma, r, spot)
    raise UnsupportedContract(f"no closed form for {type(c).__name__}")
