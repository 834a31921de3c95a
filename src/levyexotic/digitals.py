"""Multi-period power digital pricing: the contour-integral engine.

A payoff parameter set [(gamma_1..gamma_M), K, W, A] describes the claim

    S_1^gamma_1 ... S_M^gamma_M * prod_n 1( w_n * (A X)_n >= w_n K_n )

on monitored log prices X_1..X_M.  Its value is an N-fold contour integral
whose integrand couples the monitoring legs only through suffix sums of A and
gamma; this module assembles that integrand, picks feasible contour offsets,
and drives the line or tensor quadrature.  The driver ``_contour_price`` is
shared by every contour price in the package (digitals, the continuous Asian
and the normal-CDF identity).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as _iter_product

import numpy as np

from . import quadrature as cq
from .errors import (
    DimensionTooLarge,
    NoConvergence,
    NoFeasibleOffsets,
    PricingError,
    StripViolation,
)
from .models import LevyModel

DEFAULT_TOL_1D = 1e-8
DEFAULT_TOL_ND = 1e-6
IMAG_RESIDUE_TOL = 1e-8
MAX_TENSOR_DIM = max(cq.TENSOR_NODE_CAPS)
OFFSET_FLOOR = 0.25


@dataclass(frozen=True)
class MonitoringSchedule:
    """Current time t and strictly increasing monitoring dates, in years."""

    t: float
    dates: tuple[float, ...]

    def __post_init__(self):
        dates = tuple(float(d) for d in self.dates)
        object.__setattr__(self, "dates", dates)
        if len(dates) < 1:
            raise ValueError("need at least one monitoring date")
        if any(b <= a for a, b in zip(dates, dates[1:])):
            raise ValueError("monitoring dates must be strictly increasing")
        if not self.t < dates[0]:
            raise ValueError("current time must precede the first monitoring date")

    @property
    def m(self) -> int:
        return len(self.dates)

    @property
    def expiry(self) -> float:
        return self.dates[-1]

    def intervals(self) -> np.ndarray:
        """Leg lengths T_j - T_{j-1} with T_0 = t."""
        return np.diff(np.concatenate(([self.t], self.dates)))


@dataclass(frozen=True)
class PayoffParameterSet:
    """Payoff index vector, log strikes, call/put signs and condition matrix.

    N = 0 (no exercise conditions) is allowed and priced analytically.
    """

    gamma: tuple[float, ...]
    k_log: tuple[float, ...]
    w: tuple[int, ...]
    a: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        gamma = tuple(float(g) for g in self.gamma)
        k_log = tuple(float(k) for k in self.k_log)
        w = tuple(int(s) for s in self.w)
        a = tuple(tuple(float(v) for v in row) for row in self.a)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "k_log", k_log)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "a", a)
        m = len(gamma)
        if m < 1:
            raise ValueError("need at least one monitoring leg")
        n = len(k_log)
        if len(w) != n or len(a) != n:
            raise ValueError("k_log, w and a must describe the same number of conditions")
        if any(s not in (-1, 1) for s in w):
            raise ValueError("signs must be +1 or -1")
        for row in a:
            if len(row) != m:
                raise ValueError("each condition row must have one entry per date")
            if not any(v != 0.0 for v in row):
                raise ValueError("condition rows must be nonzero")

    @property
    def n(self) -> int:
        return len(self.k_log)

    @property
    def m(self) -> int:
        return len(self.gamma)

    def matrix(self) -> np.ndarray:
        return np.array(self.a, dtype=float).reshape(self.n, self.m)

    def condition_weights(self) -> np.ndarray:
        """Suffix sums C[n, j] = sum_{k >= j} a[n, k]; the leg couplings."""
        return self.matrix()[:, ::-1].cumsum(axis=1)[:, ::-1]

    def gamma_suffix(self) -> np.ndarray:
        """Suffix sums G[j] = sum_{k >= j} gamma_k."""
        g = np.array(self.gamma, dtype=float)
        return g[::-1].cumsum()[::-1]


@dataclass(frozen=True)
class ContourOffsets:
    """Distances omega_n > 0 of each integration line from the real axis."""

    omega: tuple[float, ...]

    def __post_init__(self):
        omega = tuple(float(o) for o in self.omega)
        object.__setattr__(self, "omega", omega)
        if any(o <= 0 for o in omega):
            raise ValueError("contour offsets must be positive")


@dataclass(frozen=True)
class PriceResult:
    value: float
    quadrature_error: float
    offsets_used: ContourOffsets | None
    dimensions: tuple[int, int]
    evaluations: int


def psi_aggregate(model: LevyModel, sched: MonitoringSchedule, p: PayoffParameterSet, xi):
    """Multi-leg exponent sum_j (T_j - T_{j-1}) psi(zeta_j(xi)).

    ``xi`` has shape (..., N); the leg arguments are
    zeta_j = sum_n C[n, j] xi_n - i G_j.  Raises StripViolation naming the
    offending leg when some zeta_j leaves the strip.
    """
    if p.m != sched.m:
        raise ValueError("payoff and schedule disagree on the number of dates")
    xi = np.asarray(xi, dtype=complex)
    scalar_in = xi.ndim == 1
    cmat = p.condition_weights()
    gsuf = p.gamma_suffix()
    deltas = sched.intervals()
    total = np.zeros(xi.shape[:-1], dtype=complex)
    for j in range(p.m):
        zeta = xi @ cmat[:, j] - 1j * gsuf[j]
        try:
            total = total + deltas[j] * model.psi(zeta)
        except StripViolation as exc:
            raise StripViolation(f"leg {j + 1}: {exc}") from None
    return complex(total) if scalar_in and total.ndim == 0 else total


def feasibility_sums(p: PayoffParameterSet, omega) -> np.ndarray:
    """s_j = sum_{k>=j} [ sum_n w_n omega_n a_nk + gamma_k ] for j = 1..M."""
    omega = np.asarray(omega, dtype=float)
    cmat = p.condition_weights()
    signs = np.array(p.w, dtype=float)
    return (signs * omega) @ cmat + p.gamma_suffix()


def check_offsets(model: LevyModel, p: PayoffParameterSet, offsets: ContourOffsets) -> None:
    """Verify the strip condition s_j in ]-lambda_plus, -lambda_minus[ for all legs."""
    if len(offsets.omega) != p.n:
        raise ValueError("offset vector length must match the exercise dimension")
    lo, hi = -model.strip[1], -model.strip[0]
    sums = feasibility_sums(p, offsets.omega)
    for j, s in enumerate(sums):
        if not (lo < s < hi):
            raise NoFeasibleOffsets(
                f"leg {j + 1}: condition sum {s:g} outside ]{lo:g}, {hi:g}["
            )


def _log_moneyness(p: PayoffParameterSet, spot: float) -> np.ndarray:
    """d_n = (sum_k a_nk) ln(spot) - K_n, the phase coefficient of axis n."""
    return p.matrix().sum(axis=1) * math.log(spot) - np.array(p.k_log)


def _log_peak(model, sched, p, omega, d_vec) -> float:
    """Log-magnitude of the integrand at the contour's central point.

    Used to condition the offset choice: a huge central value means the
    quadrature must cancel that many digits away.
    """
    signs = np.array(p.w, dtype=float)
    xi0 = -1j * signs * np.asarray(omega, dtype=float)
    psi_val = psi_aggregate(model, sched, p, xi0)
    return float(np.sum(signs * omega * d_vec) - psi_val.real - np.sum(np.log(omega)))


def _equal_offset_interval(model: LevyModel, p: PayoffParameterSet) -> tuple[float, float]:
    """Feasible interval for the scalar omega of an equal-offset contour."""
    lo_int, hi_int = -model.strip[1], -model.strip[0]
    cmat = p.condition_weights()
    gsuf = p.gamma_suffix()
    signs = np.array(p.w, dtype=float)
    u = signs @ cmat  # per-leg slope of s_j in omega

    lo, hi = 0.0, math.inf
    for j in range(p.m):
        if u[j] > 0:
            lo = max(lo, (lo_int - gsuf[j]) / u[j])
            hi = min(hi, (hi_int - gsuf[j]) / u[j])
        elif u[j] < 0:
            lo = max(lo, (hi_int - gsuf[j]) / u[j])
            hi = min(hi, (lo_int - gsuf[j]) / u[j])
        elif not (lo_int < gsuf[j] < hi_int):
            raise NoFeasibleOffsets(
                f"leg {j + 1}: payoff indices alone ({gsuf[j]:g}) violate the strip"
            )
    if not lo < hi:
        raise NoFeasibleOffsets(
            f"empty equal-offset interval ]{lo:g}, {hi:g}[ for this payoff"
        )
    return lo, min(hi, lo + 1e4)


def default_offsets(
    model: LevyModel,
    p: PayoffParameterSet,
    sched: MonitoringSchedule | None = None,
    spot: float | None = None,
    position: float | None = None,
) -> ContourOffsets:
    """Equal offsets from the scalar feasible interval, midpoint-with-shrink.

    The equal-offset reduction turns the N-dimensional feasibility region
    into a single interval for omega.  The midpoint is the starting guess;
    when a schedule and spot are supplied the offset is halved while that
    improves the integrand's central magnitude (better conditioning), never
    dropping below a floor.  ``position`` in ]0, 1[ overrides the heuristic
    and picks that relative point of the interval directly.
    """
    if p.n == 0:
        return ContourOffsets(())
    lo, hi = _equal_offset_interval(model, p)
    width = hi - lo
    if position is not None:
        if not 0.0 < position < 1.0:
            raise ValueError("position must lie strictly between 0 and 1")
        omega = lo + position * width
    else:
        omega = lo + 0.5 * width
        if sched is not None and spot is not None:
            d_vec = _log_moneyness(p, spot)
            floor = max(lo + 1e-3 * width, min(OFFSET_FLOOR, lo + 0.5 * width))
            current = _log_peak(model, sched, p, (omega,) * p.n, d_vec)
            while omega / 2 >= floor:
                trial = _log_peak(model, sched, p, (omega / 2,) * p.n, d_vec)
                if trial >= current:
                    break
                omega, current = omega / 2, trial
    chosen = ContourOffsets((omega,) * p.n)
    check_offsets(model, p, chosen)
    return chosen


_LOG_PEAK_CAP = 30.0


def _optimized_offsets(model, sched, p, spot, cap, trunc_tol) -> ContourOffsets:
    """Equal offsets for tensor contours, tuned for the finite node budget.

    With per-axis node caps the pole distance omega and the remaining strip
    slack jointly bound the trapezoid's aliasing error, while a large omega
    inflates the integrand's peak.  Maximise the certified-accuracy exponent
    2*pi*a(omega)/h - log_peak(omega) over the feasible interval, where
    a(omega) is the analyticity half-width around each line and h the node
    spacing at the level that must already be accurate.
    """
    lo, hi = _equal_offset_interval(model, p)
    width = hi - lo
    cmat = p.condition_weights()
    d_vec = _log_moneyness(p, spot)
    lo_int, hi_int = -model.strip[1], -model.strip[0]
    deltas = sched.intervals()
    shift = model.decay_shift * float(deltas.sum())
    taus = _corner_tau(cmat, deltas, model.order)
    col_reach = np.abs(cmat).max(axis=0)  # strip slack to xi-width conversion
    # Peak magnitudes beyond this cost more float digits than the tolerance has.
    peak_cap = min(_LOG_PEAK_CAP, max(5.0, math.log(max(trunc_tol, 1e-280) * 10.0) + 32.0))

    best = None
    for frac in np.linspace(0.02, 0.98, 41):
        omega = lo + frac * width
        sums = feasibility_sums(p, (omega,) * p.n)
        slack = np.minimum(sums - lo_int, hi_int - sums)
        if np.any(slack <= 0):
            continue
        peak = _log_peak(model, sched, p, (omega,) * p.n, d_vec)
        a_strip = float(np.min(slack / np.maximum(col_reach, 1e-300)))
        score = math.inf
        for axis in range(p.n):
            a_axis = min(omega, a_strip)
            ell = cq.truncation_radius(
                model.decay_coefficient, model.order, taus[axis],
                max(trunc_tol * math.exp(-max(peak, 0.0) - shift), 1e-280),
            )
            h_check = 2.0 * ell / max(cap // 4, 16)
            score = min(score, 2.0 * math.pi * a_axis / h_check)
        score -= max(peak, 0.0) + (1e6 if peak > peak_cap else 0.0)
        if best is None or score > best[0]:
            best = (score, omega)
    if best is None:
        return default_offsets(model, p, sched, spot)
    chosen = ContourOffsets((best[1],) * p.n)
    check_offsets(model, p, chosen)
    return chosen


def _certain_price(model, sched, p, spot, delta_mode=False):
    """N = 0 branch: plain discounted power moment, no quadrature."""
    gsuf = p.gamma_suffix()
    deltas = sched.intervals()
    tau = sched.expiry - sched.t
    exponent = 0.0 + 0.0j
    for j in range(p.m):
        exponent += deltas[j] * model.psi(-1j * gsuf[j])
    gamma_total = float(np.sum(p.gamma))
    value = math.exp(-model.r * tau) * spot**gamma_total * np.exp(-exponent)
    if abs(value.imag) > IMAG_RESIDUE_TOL * (1.0 + abs(value.real)):
        raise PricingError("imaginary residue of the analytic branch too large")
    out = value.real
    if delta_mode:
        out *= gamma_total / spot
    return PriceResult(out, 0.0, ContourOffsets(()), (0, p.m), 0)


def _corner_tau(cmat: np.ndarray, deltas: np.ndarray, order: float) -> list[float]:
    """Per-axis decay strength, minimised over escape directions.

    Along a ray x = L*v the exponent behaves like
    decay_c * sum_j Delta_j |(C^T v)_j|**order * L**order; the minimum over
    directions with v_axis = 1 governs how far the truncation box must reach
    on that axis.  For order 2 the minimum of the quadratic form v'Qv under
    v_axis = 1 is 1/(Q^-1)_axis,axis; for fractional orders a direction
    lattice with a safety factor stands in.
    """
    n = cmat.shape[0]
    if order == 2.0:
        q = (cmat * deltas) @ cmat.T
        try:
            q_inv = np.linalg.inv(q)
        except np.linalg.LinAlgError:
            raise PricingError(
                "degenerate exercise matrix: a direction escapes every leg's decay"
            ) from None
        diag = np.diag(q_inv)
        if np.any(diag <= 0):
            raise PricingError("exercise matrix yields a non-coercive decay form")
        return [float(1.0 / d) for d in diag]

    grid = np.arange(-1.0, 1.0 + 1e-9, 0.25)
    taus = []
    for axis in range(n):
        best = math.inf
        for direction in _iter_product(grid, repeat=n - 1):
            v = np.array(direction[:axis] + (1.0,) + direction[axis:])
            leg = np.abs(v @ cmat)
            best = min(best, float(np.sum(deltas * leg**order)))
        if best <= 0.0:
            raise PricingError(
                "degenerate exercise matrix: a direction escapes every leg's decay"
            )
        taus.append(0.9 * best)  # lattice may miss the exact interior minimum
    return taus


def _pow2_at_least(n: int) -> int:
    return 1 << max(4, int(n - 1).bit_length())


def _price_core(model, sched, p, spot, offsets, tol, fixed_nodes, max_nodes, delta_mode):
    n = p.n
    if n > MAX_TENSOR_DIM:
        raise DimensionTooLarge(f"exercise dimension {n} exceeds the tensor cap {MAX_TENSOR_DIM}")
    if spot <= 0:
        raise ValueError("spot must be positive")
    if p.m != sched.m:
        raise ValueError("payoff and schedule disagree on the number of dates")
    if n == 0:
        return _certain_price(model, sched, p, spot, delta_mode)

    if tol is None:
        tol = DEFAULT_TOL_1D if n == 1 else DEFAULT_TOL_ND

    gamma_total = float(np.sum(p.gamma))
    prefactor_mag = math.exp(-model.r * (sched.expiry - sched.t)) * spot**gamma_total
    if offsets is None:
        if n == 1:
            # A near-certain condition leaves the contour factor exp(w*omega*d)
            # huge; the complement indicator has the same value content with a
            # decaying factor instead, so price that and subtract.
            d_scalar = _log_moneyness(p, spot)[0]
            if p.w[0] * d_scalar > 12.0:
                certain_p = PayoffParameterSet(p.gamma, (), (), ())
                whole = _certain_price(model, sched, certain_p, spot, delta_mode)
                flipped = PayoffParameterSet(p.gamma, p.k_log, (-p.w[0],), p.a)
                rest = _price_core(model, sched, flipped, spot, None, tol,
                                   fixed_nodes, max_nodes, delta_mode)
                return PriceResult(
                    whole.value - rest.value,
                    rest.quadrature_error,
                    rest.offsets_used,
                    rest.dimensions,
                    rest.evaluations,
                )
            offsets = default_offsets(model, p, sched, spot)
        else:
            cap_guess = cq._node_cap(n, max_nodes)
            trunc_guess = tol * (2.0 * math.pi) ** n / prefactor_mag * 0.1
            offsets = _optimized_offsets(model, sched, p, spot, cap_guess, trunc_guess)
    else:
        check_offsets(model, p, offsets)

    cmat = p.condition_weights()
    gsuf = p.gamma_suffix()
    deltas = sched.intervals()
    signs = np.array(p.w, dtype=float)
    omega = np.array(offsets.omega, dtype=float)
    b = -signs * omega
    row_sums = p.matrix().sum(axis=1)
    d_vec = _log_moneyness(p, spot)

    prefactor = prefactor_mag * math.prod(p.w)
    raw_tol = tol * (2.0 * math.pi) ** n / abs(prefactor)

    # Truncation: make the integrand's tail negligible relative to its peak,
    # accounting for the constant offset that delays the asymptotic decay.
    log_peak = _log_peak(model, sched, p, tuple(omega), d_vec)
    shift = model.decay_shift * float(deltas.sum())
    trunc_tol = max(raw_tol * math.exp(-max(log_peak, 0.0) - shift) * 0.1, 1e-280)
    taus = _corner_tau(cmat, deltas, model.order)
    truncations = [
        cq.truncation_radius(model.decay_coefficient, model.order, tau_n, trunc_tol)
        for tau_n in taus
    ]

    def integrand(*xs):
        phase = 0.0
        denom = 1.0
        for k in range(n):
            phase = phase + 1j * d_vec[k] * xs[k]
            denom = denom * xs[k]
        psi_sum = 0.0
        for j in range(p.m):
            zeta = -1j * gsuf[j]
            for k in range(n):
                if cmat[k, j] != 0.0:
                    zeta = zeta + cmat[k, j] * xs[k]
            psi_sum = psi_sum + deltas[j] * model.psi(zeta)
        out = np.exp(phase - psi_sum) / denom
        if delta_mode:
            mult = gamma_total + 0.0j
            for k in range(n):
                mult = mult + 1j * row_sums[k] * xs[k]
            out = out * (mult / spot)
        return out

    return _contour_price(integrand, b, truncations, d_vec, raw_tol, prefactor, (n, p.m),
                          offsets, fixed_nodes, max_nodes)


def _contour_price(integrand, b, truncations, d_vec, raw_tol, prefactor, dims,
                   offsets=None, fixed_nodes=None, max_nodes=None) -> PriceResult:
    """prefactor / (2 pi i)^N times the N-fold contour integral of ``integrand``.

    The one driver behind every contour price.  Axis k runs along
    Im(xi_k) = b[k] out to |Re| <= truncations[k]; its ladder starts at a node
    count that resolves the phase exp(i d_k xi_k) over the window.  N = 1 goes
    to the line quadrature, N >= 2 to the tensor ladder.  ``raw_tol`` bounds
    the raw integral.  ``prefactor=None`` stands for a unit prefactor and
    divides by (2 pi i)^N rather than multiplying by its rounded inverse, so
    the normal-CDF identity keeps its last digit.  ``fixed_nodes`` evaluates
    a single level and never raises NoConvergence.
    """
    n = len(b)
    if fixed_nodes is not None:
        starts = [int(fixed_nodes)] * n
        cap = int(fixed_nodes)
    else:
        cap = cq._node_cap(n, max_nodes)
        starts = [
            min(_pow2_at_least(max(32, int(truncations[k] * (abs(d_vec[k]) + 2.0) / math.pi))),
                cap // 2)
            for k in range(n)
        ]

    if n == 1:
        res = cq.integrate_line(integrand, b[0], truncations[0], raw_tol,
                                start_nodes=starts[0], max_nodes=cap)
    else:
        spec = cq.ContourSpec(tuple(b), tuple(truncations), tuple(starts))
        res = cq.integrate_tensor(integrand, spec, raw_tol, max_nodes_per_axis=cap)

    denom = (2.0j * math.pi) ** n
    scale = 1.0 / denom if prefactor is None else prefactor / denom
    value_c = res.value / denom if prefactor is None else scale * res.value
    err = abs(scale) * res.error_estimate
    # The assembled value must be real up to quadrature noise; the reported
    # error estimate includes the float-cancellation floor of hot integrands.
    if abs(value_c.imag) > max(IMAG_RESIDUE_TOL * (1.0 + abs(value_c.real)), 4.0 * err):
        raise PricingError(
            f"imaginary residue {value_c.imag:g} too large for value {value_c.real:g}"
        )
    price = PriceResult(float(value_c.real), err, offsets, dims, res.evaluations)
    if fixed_nodes is None and not res.converged:
        raise NoConvergence(
            f"quadrature stalled at error {err:g} (tolerance {abs(scale) * raw_tol:g})", price
        )
    return price


def price_digital(
    model: LevyModel,
    sched: MonitoringSchedule,
    p: PayoffParameterSet,
    spot: float,
    offsets: ContourOffsets | None = None,
    tol: float | None = None,
    fixed_nodes: int | None = None,
    max_nodes: int | None = None,
) -> PriceResult:
    """Value of the multi-period power digital described by ``p``."""
    return _price_core(model, sched, p, spot, offsets, tol, fixed_nodes, max_nodes, False)


def price_single_period(
    model: LevyModel,
    T: float,
    gamma: float,
    a: float,
    w: int,
    k_log: float,
    spot: float,
    t: float = 0.0,
    tol: float | None = None,
) -> PriceResult:
    """Single-date power digital S_T^gamma 1(w a X_T >= w K); 1-D fast path."""
    if a == 0.0:
        raise ValueError("condition weight a must be nonzero")
    sched = MonitoringSchedule(t, (T,))
    p = PayoffParameterSet((gamma,), (k_log,), (w,), ((a,),))
    return price_digital(model, sched, p, spot, tol=tol)


def delta(
    model: LevyModel,
    sched: MonitoringSchedule,
    p: PayoffParameterSet,
    spot: float,
    tol: float | None = None,
) -> float:
    """dPrice/dSpot by differentiating under the integral sign."""
    res = _price_core(model, sched, p, spot, None, tol, None, None, True)
    return res.value
