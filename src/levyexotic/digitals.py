"""Multi-period power digital pricing: the contour-integral engine.

A payoff parameter set [(gamma_1..gamma_M), K, W, A] describes the claim

    S_1^gamma_1 ... S_M^gamma_M * prod_n 1( w_n * (A X)_n >= w_n K_n )

on monitored log prices X_1..X_M.  Its value is an N-fold contour integral
of exp(i d.xi + E(xi)) / prod(xi); this module assembles that integrand, picks
feasible contour offsets, and drives the line, strip, chain or tensor
quadrature.  Every contour is set up in one place (``_set_up``): the
offsets' check, the truncations, start counts and node cap, the pole weight
and the rule.  ``_price_core`` calls it once per offset group of single
spots, deltas, spot strips and the normal-CDF identity of
``gaussian.lemma1_contour_side``, and ``_kept_sample_prices`` once per spot
window of a critical-price search.  A single spot's one-condition digital
runs the line rule along a sinh-deformed curve through its offset
(``_sinh_price``), on which the integrand decays double-exponentially.
Spot strips, kept samples and the N >= 2 chain and tensor axes stay on
horizontal lines, and the horizontal line rule stays the curve's tested
oracle.  A single spot's one-condition term at default offsets crosses
the axis where the integrand's size there is smallest under the model's
two-cumulant approximation (``_cumulant_offset``); spot strips keep the
halving rule (``_halved_offsets``).  A single spot's N >= 2 term at default
offsets takes the offset, and each axis the start level, that one
trapezoid error model predicts to cost the fewest nodes
(``_costed_offset``).  One-condition terms whose suffix sums differ by
multiples of their condition row, an asset digital and its cash twin, are
one contour integral (``_pole_offset``): a kept window's, and the
continuous Asian's on the sinh curve.

The exponent E is a sum over the monitoring legs j = 1..M of
-Delta_j psi(zeta_j), at zeta_j = sum_k C[k, j] xi_k - i G_j, where C and G
are the suffix sums of A and gamma.  One leg list per term (``_Legs``) holds
C, Delta and G, builds zeta_j and is the only caller of psi, with one stacked
call for all legs of a refinement level.  The line, chain
and tensor rules, the offset and truncation choice and the spot strips all
read it, so a StripViolation (a point on a cut of psi) from any of them
names its leg.
"""
from __future__ import annotations

import math
from copy import copy
from dataclasses import dataclass, replace
from functools import cached_property, partial, wraps
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
_SINH_BEND = 0.375  # a sinh contour's bend and y-strip half-width, as a share of its cone (``_sinh_price``)
_SINH_ROOM = 0.9  # the share of the room to the ends of the offset interval its crossings use
_SINH_MARGIN = math.log(10.0)  # log of how far below raw_tol a sinh ladder's first level aims (``_sinh_price``)
_PROBE_STEP = 0.5  # y-spacing of the probes that pick a sinh contour's window
_PROBE_COUNT = 24  # probes on either side of y = 0: |y| <= 12, where |xi| passes 8e4 times the scale
_PSI_POINTS = 1 << 16  # leg arguments one stacked psi call holds (``_Legs.exponent``)
_OFFSET_PARTS = 16  # the N >= 2 cost rule's candidates split the equal-offset interval into this many parts
_ROUNDOFF_ROOM = 100.0  # a candidate's central magnitude times this many eps must stay within the raw tolerance


def _whole(value, name: str = "value") -> int:
    """``value`` as an int; a number with a fractional part raises ValueError naming ``name``."""
    if not float(value).is_integer():
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(value)


def _kept(method):
    """``method``'s array, built at an instance's first call and then returned read-only, the same object each time.

    The array is kept in the instance's ``__dict__``, outside the dataclass
    fields, so equality, hashing, ``repr`` and ``dataclasses.replace`` never
    see it.
    """
    key = f"_kept_{method.__name__}"

    @wraps(method)
    def kept(self) -> np.ndarray:
        arr = self.__dict__.get(key)
        if arr is None:
            arr = method(self)
            arr.flags.writeable = False
            self.__dict__[key] = arr
        return arr
    return kept


@dataclass(frozen=True)
class MonitoringSchedule:
    """Current time t and strictly increasing monitoring dates, in years.

    ``intervals()`` is computed once per instance and returned as a read-only
    array.
    """

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

    @_kept
    def intervals(self) -> np.ndarray:
        """Leg lengths T_j - T_{j-1} with T_0 = t."""
        return np.diff(np.concatenate(([self.t], self.dates)))


@dataclass(frozen=True)
class PayoffParameterSet:
    """Payoff index vector, log strikes, call/put signs and condition matrix.

    N = 0 (no exercise conditions) is allowed and priced analytically.
    ``matrix()``, ``condition_weights()`` and ``gamma_suffix()`` are computed
    once per instance and returned as read-only arrays.
    """

    gamma: tuple[float, ...]
    k_log: tuple[float, ...]
    w: tuple[int, ...]
    a: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        gamma = tuple(float(g) for g in self.gamma)
        k_log = tuple(float(k) for k in self.k_log)
        w = tuple(_whole(s, "sign w") for s in self.w)
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

    @_kept
    def matrix(self) -> np.ndarray:
        return np.array(self.a, dtype=float).reshape(self.n, self.m)

    @_kept
    def condition_weights(self) -> np.ndarray:
        """Suffix sums C[n, j] = sum_{k >= j} a[n, k]; the leg couplings."""
        return self.matrix()[:, ::-1].cumsum(axis=1)[:, ::-1]

    @_kept
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


class _Legs:
    """The leg list of one digital term: model, couplings C, Delta_j = T_j - T_{j-1} and G_j.

    A term on the chain rule multiplies row k of C by its plan's flips[k].
    """

    def __init__(self, model: LevyModel, sched: MonitoringSchedule, p: PayoffParameterSet):
        if p.m != sched.m:
            raise ValueError("payoff and schedule disagree on the number of dates")
        self.model = model
        self.cmat = p.condition_weights()
        self.deltas = sched.intervals()
        self.gsuf = p.gamma_suffix()

    @cached_property
    def taus(self) -> list[float]:
        """The per-axis decay strengths of ``_corner_tau``, computed once per term."""
        return _corner_tau(self.cmat, self.deltas, self.model.order)

    def zeta(self, j, xs, axes):
        """Leg j's argument at values ``xs`` of ``axes``; the other axes count as 0."""
        zeta = -1j * self.gsuf[j]
        for x, k in zip(xs, axes):
            if self.cmat[k, j] != 0.0:
                zeta = zeta + self.cmat[k, j] * x
        return zeta

    def exponent(self, legs, xs, axes):
        """-sum_j Delta_j psi(zeta_j) over ``legs``; a StripViolation names its leg.

        One psi call per refinement level, not one per leg: the legs'
        arguments (``zeta``) are stacked as one array of shape (legs, ...),
        and -Delta_j psi_j is added in leg order, so the sum is bit-identical
        to a call per leg.  A leg that couples none of ``axes`` is a
        constant, evaluated once as a scalar and never broadcast.  One call
        holds at most ``_PSI_POINTS`` points, so a level with more is cut
        into runs of consecutive legs (``_runs``; a leg with more points
        alone, as a tensor slab), each added to the total as it returns.
        """
        total = 0.0
        for run, shape in self._runs(legs, xs, axes):
            if len(run) == 1:
                rows = (self._psi(run, self.zeta(run[0], xs, axes)),)
            else:
                zeta = np.empty((len(run), *shape), dtype=complex)
                for i, j in enumerate(run):
                    zeta[i] = self.zeta(j, xs, axes)
                rows = self._psi(run, zeta)
            for j, row in zip(run, rows):
                total = total - self.deltas[j] * row
        return total

    def _runs(self, legs, xs, axes):
        """``legs`` in order, cut into (run, zeta shape) pairs for one psi call each.

        A leg that couples none of ``axes`` is a constant: a run of its own,
        evaluated once as a scalar and never broadcast.  Other runs join
        consecutive legs of one zeta shape, at most ``_PSI_POINTS`` points
        together; a leg with more points than that runs alone.
        """
        if len(legs) == 1:
            yield list(legs), None
            return
        shapes = [np.shape(x) for x in xs]
        run, shape = [], None
        for j in legs:
            held = {s for s, k in zip(shapes, axes) if self.cmat[k, j] != 0.0}
            if len(held) > 1:
                held = {np.broadcast_shapes(*held)}
            own = held.pop() if held else None  # leg j's zeta shape; None for a constant
            if run and (own is None or own != shape or (len(run) + 1) * math.prod(own) > _PSI_POINTS):
                yield run, shape
                run = []
            run.append(j)
            shape = own
            if own is None:
                yield run, None
                run = []
        if run:
            yield run, shape

    def _psi(self, run, zeta):
        """psi at ``zeta``, one row per leg of ``run`` if it has several; a StripViolation names its first failing leg."""
        try:
            return self.model.psi(zeta)
        except StripViolation as exc:
            if len(run) > 1:
                for j, row in zip(run, zeta):
                    try:
                        self.model.psi(row)
                    except StripViolation as row_exc:
                        exc, run = row_exc, [j]
                        break
            raise StripViolation(f"leg {run[0] + 1}: {exc}") from None


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


def _log_peak(legs, p, omega, d_vec, log_weight=None):
    """Log-magnitude of the integrand at the contour's central point.

    Used to condition the offset choice: a huge central value means the
    quadrature must cancel that many digits away.  ``omega`` of shape
    (K, 1, N) and ``d_vec`` of shape (S, N) give a (K, S) table from one psi
    evaluation per offset row.  A one-condition ``log_weight`` (``_log_weight``)
    counts log|W| at the crossing in place of -log(omega).
    """
    signs = np.array(p.w, dtype=float)
    xi0 = -1j * signs * np.asarray(omega, dtype=float)
    exponent = legs.exponent(range(p.m), tuple(xi0[..., k] for k in range(p.n)), range(p.n))
    weight = -np.sum(np.log(omega), axis=-1) if log_weight is None else log_weight(xi0[..., 0]).real
    return np.sum(signs * omega * d_vec, axis=-1) + exponent.real + weight


def _halving_range(lo: float, hi: float) -> tuple[float, float]:
    """The floor and the midpoint of ]lo, hi[: the range of the halving rule's offsets."""
    width = hi - lo
    return max(lo + 1e-3 * width, min(OFFSET_FLOOR, lo + 0.5 * width)), lo + 0.5 * width


def _halved_offsets(legs, p, lo, hi, d_rows, log_weight=None) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``d_rows`` (log moneyness, shape (S, N)), the halving rule's equal offset and its ``_log_peak``.

    The candidates are the midpoint of ]lo, hi[ and its halvings down to a
    floor (``_halving_range``).  The psi part of ``_log_peak`` does not
    depend on the row, so each candidate is evaluated once for all rows; a
    row keeps halving while that lowers its ``_log_peak`` (with
    ``log_weight``, if given).  Spot strips, kept windows, the continuous
    Asian's pole group and the N >= 2 cost rule's fallback use it.
    """
    floor, midpoint = _halving_range(lo, hi)
    candidates = [midpoint]
    while candidates[-1] / 2 >= floor:
        candidates.append(candidates[-1] / 2)
    candidates = np.array(candidates)
    peaks = _log_peak(legs, p, np.repeat(candidates[:, None, None], p.n, axis=2), d_rows, log_weight)
    # Row k: the halving from candidate k does not lower the peak, or there is none.
    stops = np.vstack((peaks[1:] >= peaks[:-1], np.ones_like(peaks[:1], dtype=bool)))
    chosen = stops.argmax(axis=0)
    return candidates[chosen], peaks[chosen, np.arange(peaks.shape[1])]


def _cumulant_offset(legs, p, lo, hi, d: float) -> float:
    """The equal offset of one spot's N = 1 term at log moneyness ``d``: the halving rule's aim, in closed form.

    The halving rule lowers the integrand's log-magnitude at the axis
    crossing, w omega d + E(-i w omega) - log omega (``_log_peak``), where
    E(-i w omega) = sum_j Delta_j kappa(w omega c_j + g_j), kappa(u) =
    -psi(-iu), c_j = C[0, j] and g_j the suffix sums of gamma.  With kappa
    replaced by its two-cumulant model kappa_1 u + kappa_2 u^2 / 2
    (``LevyModel.cumulants``) that log-magnitude is smallest at the positive
    root of

        kappa_2 sum_j Delta_j c_j^2 omega^2
            + w (d + sum_j Delta_j c_j (kappa_1 + kappa_2 g_j)) omega - 1 = 0,

    the crossing that minimises the integrand's size at the axis (Lord &
    Kahl, J. Comput. Finance 10(4), 2007).  The root is clamped to the
    halving rule's range (``_halving_range``); no psi call is made.
    """
    k1, k2 = legs.model.cumulants
    c = legs.cmat[0]
    a = k2 * float(legs.deltas @ (c * c))
    b = p.w[0] * (d + float(legs.deltas @ (c * (k1 + k2 * legs.gsuf))))
    root = math.sqrt(b * b + 4.0 * a)
    omega = 2.0 / (b + root) if b >= 0.0 else (root - b) / (2.0 * a)  # each form free of cancellation
    floor, midpoint = _halving_range(lo, hi)
    return min(max(omega, floor), midpoint)


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
    """Equal offsets from the scalar feasible interval: the offsets a price at ``spot`` uses by default.

    The equal-offset reduction turns the N-dimensional feasibility region
    into a single interval for omega.  Without a schedule and spot the
    offset is its midpoint.  With them, N = 1 takes the offset that
    minimises the integrand's central magnitude under the model's
    two-cumulant approximation, within the halving rule's range from a
    floor to the midpoint (``_cumulant_offset``); N >= 2 takes the offset
    with the fewest predicted nodes at the default tolerance
    ``DEFAULT_TOL_ND`` (``_costed_offset``).  A spot strip's offsets are the
    halving rule's instead (``_price_core``).  ``position`` in ]0, 1[
    overrides both rules and picks that relative point of the interval
    directly.
    """
    if p.n == 0:
        return ContourOffsets(())
    lo, hi = _equal_offset_interval(model, p)
    if position is None and sched is not None and spot is not None:
        legs, d_vec = _Legs(model, sched, p), _log_moneyness(p, spot)
        if p.n == 1:
            omega = _cumulant_offset(legs, p, lo, hi, float(d_vec[0]))
        else:
            raw_tol = _raw_tol(DEFAULT_TOL_ND, p.n, _prefactor(model, sched, p, spot))
            omega = _costed_offset(legs, p, lo, hi, d_vec, raw_tol)[0]
    else:
        omega = _interval_point(lo, hi, 0.5 if position is None else position)
    chosen = ContourOffsets((omega,) * p.n)
    check_offsets(model, p, chosen)
    return chosen


def _interval_point(lo: float, hi: float, position: float) -> float:
    """The point at relative ``position`` in ]0, 1[ of the interval ]lo, hi[."""
    if not 0.0 < position < 1.0:
        raise ValueError("position must lie strictly between 0 and 1")
    return lo + position * (hi - lo)


def _certain_price(model, sched, p, spot, delta_mode=False):
    """N = 0 branch: plain discounted power moment, no quadrature."""
    exponent = _Legs(model, sched, p).exponent(range(p.m), (), ())
    value = _prefactor(model, sched, p, spot) * np.exp(exponent)
    if abs(value.imag) > IMAG_RESIDUE_TOL * (1.0 + abs(value.real)):
        raise PricingError("imaginary residue of the analytic branch too large")
    out = value.real
    if delta_mode:
        out *= float(np.sum(p.gamma)) / spot
    return PriceResult(out, 0.0, ContourOffsets(()), (0, p.m), 0)


def _corner_tau(cmat: np.ndarray, deltas: np.ndarray, order: float) -> list[float]:
    """Per-axis decay strength, minimised over escape directions.

    Along a ray x = L*v the exponent behaves like
    decay_c * sum_j Delta_j |(C^T v)_j|**order * L**order; the minimum over
    directions with v_axis = 1 governs how far the truncation box must reach
    on that axis.  For order 2 the minimum of the quadratic form v'Qv under
    v_axis = 1 is 1/(Q^-1)_axis,axis; for other orders a direction lattice
    (steps of 1/4 in [-1, 1] on the other axes) with a safety factor stands
    in, scanned for all axes and directions in one array expression.
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
    lattice = np.array(list(_iter_product(grid, repeat=n - 1))).reshape(grid.size ** (n - 1), n - 1)
    directions = np.stack([np.insert(lattice, axis, 1.0, axis=1) for axis in range(n)])  # (axis, v, N)
    best = np.sum(deltas * np.abs(directions @ cmat) ** order, axis=-1).min(axis=1)
    if np.any(best <= 0.0):
        raise PricingError(
            "degenerate exercise matrix: a direction escapes every leg's decay"
        )
    return (0.9 * best).tolist()  # lattice may miss the exact interior minimum


def _start_count(truncation: float, d: float, cap: int) -> int:
    """Power-of-two start nodes resolving exp(i d xi) on [-truncation, truncation]; at most half ``cap``."""
    wanted = max(32, int(truncation * (abs(d) + 2.0) / math.pi))
    return min(1 << (wanted - 1).bit_length(), cap // 2)


def _prefactor(model, sched, p, spot) -> float:
    """Discounted spot power times the product of the signs: the digital's scale before (2 pi i)^-N."""
    gamma_total = float(np.sum(p.gamma))
    return math.exp(-model.r * (sched.expiry - sched.t)) * spot**gamma_total * math.prod(p.w)


def _truncations(legs: _Legs, raw_tol, log_peak) -> list[float]:
    """Per-axis radii that make the tail negligible next to the peak, allowing for the decay shift."""
    shift = legs.model.decay_shift * float(legs.deltas.sum())
    trunc_tol = max(raw_tol * math.exp(-max(log_peak, 0.0) - shift) * 0.1, 1e-280)
    return [
        cq.truncation_radius(legs.model.decay_coefficient, legs.model.order, tau_n, trunc_tol)
        for tau_n in legs.taus
    ]


def _predicted_radii(legs: _Legs, raw_tol, log_peaks) -> np.ndarray:
    """The radii of ``_truncations`` for each of ``log_peaks`` at once, shape (len(log_peaks), N), without a root solve.

    Four fixed-point steps of L = (log((1 + L) / tol) / (c tau))**(1 / order)
    from L = 1 on the bound ``_truncations`` solves, clamped as
    ``quadrature.truncation_radius`` clamps.
    """
    model = legs.model
    shift = model.decay_shift * float(legs.deltas.sum())
    tols = np.maximum(raw_tol * np.exp(-np.maximum(log_peaks, 0.0) - shift) * 0.1, 1e-280)[:, None]
    rate = model.decay_coefficient * np.array(legs.taus)
    radii = np.ones((tols.size, rate.size))
    for _ in range(4):
        radii = (np.log(np.maximum((1.0 + radii) / tols, 1.0)) / rate) ** (1.0 / model.order)
    return np.clip(radii, cq.TRUNCATION_MIN, cq.TRUNCATION_MAX)


def _costed_offset(legs: _Legs, p: PayoffParameterSet, lo: float, hi: float, d_vec,
                   raw_tol) -> tuple[float, float, float | None]:
    """One spot's equal offset for an N >= 2 term, chosen by predicted cost; with its ``_log_peak`` and step h.

    The candidates split ]lo, hi[ into ``_OFFSET_PARTS`` equal parts.  The
    trapezoid rule on a line at distance a from another line on which the
    integrand is about e^l errs by about e^l * 2L * e^(-2 pi a / h)
    (Trefethen & Weideman, SIAM Review 56(3), 2014).  So each candidate i
    with radii L_ik (``_predicted_radii``) and l_j = ``_log_peak`` at
    candidate j admits, on each side, the largest step any candidate j there
    allows for raw_tol / 2; its step h_i is the smaller of the two sides'.
    The end candidates, with no candidate on one side, are never chosen.  A
    candidate whose central magnitude puts the float floor (``_ROUNDOFF_ROOM``
    eps) above raw_tol is rejected.  Of the rest the one with the fewest
    predicted nodes sum_k L_ik / h_i wins.  If none is left, the term keeps
    the halving rule's offset (``_halved_offsets``), which reaches below the
    lowest candidate, and the step is None: its ladders start as an explicit
    offset's do.
    """
    omegas = lo + (hi - lo) * np.arange(1, _OFFSET_PARTS) / _OFFSET_PARTS
    peaks = _log_peak(legs, p, np.repeat(omegas[:, None, None], p.n, axis=2), d_vec[None])[:, 0]
    radii = _predicted_radii(legs, raw_tol, peaks)
    # (candidate i, line j): log(e^l_j 2 max_k L_ik / (raw_tol / 2)), and the step line j allows candidate i
    needed = np.maximum(peaks + np.log(2.0 * radii.max(axis=1))[:, None] - math.log(0.5 * raw_tol), 1.0)
    allowed = 2.0 * math.pi * np.abs(omegas - omegas[:, None]) / needed
    steps = np.minimum(np.tril(allowed, -1).max(axis=1), np.triu(allowed, 1).max(axis=1))
    interior = np.arange(1, omegas.size - 1)
    kept = interior[peaks[interior] + math.log(_ROUNDOFF_ROOM * np.finfo(float).eps) <= math.log(raw_tol)]
    if not kept.size:
        omega, peak = _halved_offsets(legs, p, lo, hi, d_vec[None])
        return float(omega[0]), float(peak[0]), None
    i = kept[np.argmin(radii[kept].sum(axis=1) / steps[kept])]
    return float(omegas[i]), float(peaks[i]), float(steps[i])


def _price_core(model, sched, p, spots, offsets=None, tol=None, fixed_nodes=None,
                delta_mode=False) -> list[PriceResult]:
    """Prices of ``p`` at each of ``spots`` (deltas if ``delta_mode``): single spots, deltas and spot strips.

    Without given offsets a single spot takes the offset of
    ``default_offsets``, and an N = 1 spot with w*d > 12 is priced as the
    certain claim minus its flipped condition, whose offset it takes.  Spots
    of one payoff and offset form a group, and each group gets one set-up
    (``_set_up``): a single N = 1 spot at the cumulant rule's offset
    (``_cumulant_offset``), which makes no psi call, an N >= 2 spot at the
    cost rule's (``_costed_offset``) with its ``_log_peak`` and step h.
    Several spots form a strip (N = 1, prices at default offsets and nodes):
    the spot enters only through the phase exp(i d xi), so the spots take
    the halving rule's offsets (``_halved_offsets``), whose discrete lattice
    groups them, and each group, even of one spot, runs one ladder of the
    strip rule at its ``_log_peak``.
    """
    n = p.n
    if n > MAX_TENSOR_DIM:
        raise DimensionTooLarge(f"exercise dimension {n} exceeds {MAX_TENSOR_DIM}, the limit of every contour "
                                "rule, the chain rule's included, for now")
    if min(spots) <= 0:
        raise ValueError("spot must be positive")
    strip = len(spots) > 1
    if strip and (n != 1 or delta_mode or (offsets, fixed_nodes) != (None, None)):
        raise ValueError("a spot strip prices one exercise condition at default offsets and nodes")
    legs = _Legs(model, sched, p)
    if n == 0:
        return [_certain_price(model, sched, p, spot, delta_mode) for spot in spots]

    if tol is None:
        tol = DEFAULT_TOL_1D if n == 1 else DEFAULT_TOL_ND
    d_rows = np.array([_log_moneyness(p, spot) for spot in spots])
    # A near-certain condition leaves exp(w*omega*d) huge; its complement decays.
    flips = [n == 1 and offsets is None and p.w[0] * d[0] > 12.0 for d in d_rows]

    out = [None] * len(spots)
    for flipped in sorted(set(flips)):
        q = PayoffParameterSet(p.gamma, p.k_log, (-p.w[0],), p.a) if flipped else p
        q_legs = _Legs(model, sched, q) if flipped else legs
        part = [i for i, f in enumerate(flips) if f == flipped]
        prefactors = {i: _prefactor(model, sched, q, spots[i]) for i in part}
        raw_tols = {i: _raw_tol(tol, n, pf) for i, pf in prefactors.items()}
        interval = step = None  # of the equal offset, and the cost rule's step
        if offsets is not None:
            groups = [(offsets, part, None)]
        elif n >= 2:
            (i,) = part
            omega, peak, step = _costed_offset(q_legs, q, *_equal_offset_interval(model, q), d_rows[i], raw_tols[i])
            groups = [(ContourOffsets((omega,) * n), part, [peak])]
        elif not strip:
            (i,) = part
            interval = _equal_offset_interval(model, q)
            groups = [(ContourOffsets((_cumulant_offset(q_legs, q, *interval, float(d_rows[i, 0])),)), part, None)]
        else:
            interval = _equal_offset_interval(model, q)
            omegas, peaks = _halved_offsets(q_legs, q, *interval, d_rows[part])
            omegas = omegas.tolist()
            groups = [(ContourOffsets((omega,) * n), [i for i, o in zip(part, omegas) if o == omega],
                       [pk for pk, o in zip(peaks, omegas) if o == omega]) for omega in sorted(set(omegas))]
        for offs, group, log_peaks in groups:
            tols = [raw_tols[i] for i in group]
            price = _set_up(q_legs, q, offs, d_rows[group], tols, log_peaks, not strip, interval, step,
                            fixed_nodes, spots[group[0]] if delta_mode else None)
            if strip:
                results = price(d_rows[group, 0], [prefactors[i] for i in group], tols)
            else:
                results = [price(d_rows[group[0]], prefactors[group[0]], tols[0])]
            for i, res in zip(group, results):
                out[i] = res
    for i, flipped in enumerate(flips):
        if flipped:  # S^gamma for certain minus the flipped price
            whole = _certain_price(model, sched, PayoffParameterSet(p.gamma, (), (), ()), spots[i], delta_mode)
            out[i] = replace(out[i], value=whole.value - out[i].value)
    return out


def _set_up(legs, p, offs, d_rows, raw_tols, log_peaks=None, one_spot=True, interval=None, step=None,
            fixed_nodes=None, delta_spot=None, log_weight=None):
    """The one set-up of a digital's contour, as its pricer ``price(d, prefactor, raw_tol, spot=None)``.

    It serves the log-moneyness rows ``d_rows`` (shape (S, N)) at the raw
    tolerances ``raw_tols`` on the contour through ``offs``: given offsets,
    or those of the caller's rule with their ``log_peaks`` and the cost
    rule's ``step``.  It checks the offsets and puts the crossing at
    b = -w omega.  One spot at N = 1 (``one_spot``) then runs the line rule
    on a sinh-deformed curve within the equal-offset or pole ``interval``
    (``_sinh_price``).  Any other set-up truncates each axis
    (``_truncations``) at the rows' smallest raw tolerance and largest
    ``_log_peak``, which counts the pole weight ``log_weight``, starts it at
    the count that resolves their largest |d| (``_start_counts``), and runs
    the strip rule (``_strip_pricer``) for N = 1, the chain rule
    (``_chain_pricer``) for N >= 2 in chain form, else the tensor rule.

    The strip rule's ``price`` takes one d, prefactor, raw tolerance and
    spot per entry and returns a list.  One spot at N >= 2 puts its d in
    the chain factors; a strip or a kept window keeps d0 = 0.  Given a
    ``spot`` the chain rule also returns the delta's value; ``delta_spot``
    instead weights the integrand by i zeta_1 / spot (see ``delta``).
    ``fixed_nodes`` runs one level of that many nodes per axis and never
    raises NoConvergence.
    """
    check_offsets(legs.model, p, offs)
    b = -np.array(p.w, dtype=float) * offs.omega
    n, m = legs.cmat.shape
    if n == 1 and one_spot:
        interval = sorted(-p.w[0] * o for o in (interval or _equal_offset_interval(legs.model, p)))
        return lambda d, prefactor, raw_tol: _sinh_price(legs, d[0], b[0], interval, raw_tol, prefactor, offs,
                                                         fixed_nodes, delta_spot, log_weight)
    if log_peaks is None:
        log_peaks = _log_peak(legs, p, offs.omega, d_rows, log_weight)
    truncations = _truncations(legs, min(raw_tols), max(log_peaks))
    plan = _chain_plan(legs.cmat) if n >= 2 else None
    cap = cq.TENSOR_NODE_CAPS[n] if n >= 2 and plan is None else cq.LINE_NODE_CAP
    starts, cap = _start_counts(truncations, np.abs(d_rows).max(axis=0), cap, step, fixed_nodes)
    if n == 1:
        return _strip_pricer(legs, offs, b, truncations, starts[0], log_weight)
    if plan is not None:
        d0 = d_rows[0] if one_spot else np.zeros(n)
        chain = _chain_pricer(legs, plan, offs, b, truncations, d0, starts, cap, delta_spot)
        return partial(chain, stalled_raises=fixed_nodes is None)

    def tensor(d, prefactor, raw_tol):
        weight = None if delta_spot is None else (lambda xs, axes: 1j * legs.zeta(0, xs, axes) / delta_spot)
        spec = cq.ContourSpec(tuple(b), tuple(truncations), tuple(starts))
        res = cq.integrate_tensor(_integrand(legs, d, weight), spec, raw_tol, max_nodes_per_axis=cap)
        return _scaled_price(res, prefactor, raw_tol, offs, (n, m), cap, truncations, fixed_nodes is None)
    return tensor


def _raw_tol(tol, n, prefactor) -> float:
    """The tolerance on the raw N-fold integral of a price to ``tol`` with this ``prefactor``."""
    return tol * (2.0 * math.pi) ** n / abs(prefactor)


def _strip_pricer(legs, offs, b, truncations, start, log_weight=None):
    """Strip-rule prices of an N = 1 set-up (``_set_up``) at log moneyness d, from samples kept across calls.

    The samples are those of exp(E(xi)) / xi, or of exp(E(xi)) W(xi) / c_1
    given a ``log_weight`` (``_log_weight``); each ladder starts at ``start``
    nodes.  With ``spots``, one per entry of d, each price comes paired with
    its delta: the twin integral (``quadrature._integrate_strip``) weighted
    by i zeta_1 / spot, as ``delta`` weights it.
    """
    m = legs.cmat.shape[1]

    def log_f(xi):
        exponent = legs.exponent(range(m), (xi,), (0,))
        return exponent - np.log(xi) if log_weight is None else exponent + log_weight(xi)

    samples = cq._Samples(log_f, b[0], truncations[0])

    def prices(d, prefactors, raw_tols, spots=None):
        if spots is None:
            res = cq._integrate_strip(samples, d, np.array(raw_tols), start)
        else:
            res = cq._integrate_strip(samples, d, np.array(raw_tols), start, lambda xi: 1j * legs.zeta(0, (xi,), (0,)))
        out = [_scaled_price(cq.QuadratureResult(res.value[s], res.error_estimate[s], res.evaluations,
                                                 bool(res.converged[s])), prefactors[s], raw_tols[s], offs, (1, m),
                                 cq.LINE_NODE_CAP, truncations)
               for s in range(d.size)]
        if spots is None:
            return out
        return [(price, (prefactors[s] / (2.0j * math.pi) * res.twin[s]).real / spots[s])
                for s, price in enumerate(out)]
    return prices


def _chain_pricer(legs, plan, offs, b, truncations, d0, starts, cap, delta_spot=None):
    """The chain rule of an N >= 2 set-up (``_set_up``), as its price at any log moneyness d.

    On a copy of ``legs`` flipped by the ``plan`` (``_chain_plan``), it puts the
    axis and leg factors at phase ``d0`` (``_chain_factors``), times the
    weight i zeta_1 / ``delta_spot`` on the factor that holds leg 1 if given
    (see ``delta``), in one ``quadrature._ChainSamples`` store; the face tail
    of that integrand is kept per final level.  Each ladder starts at
    ``starts`` and stops at ``cap`` nodes per axis.  A single spot passes
    its own d as ``d0``; a kept window passes d0 = 0.

    ``price(d, prefactor, raw_tol, spot=None, stalled_raises=True)`` runs one
    ladder on the store.  Where d differs from d0 it multiplies each axis
    factor's samples by the phases exp(i (d - d0)_k h m) and takes their
    modulus exp(-sum_k (d - d0)_k b_k) out of the ladder, as
    ``quadrature._integrate_strip`` does.  Given a ``spot`` it also returns
    the delta's value: the final level's chain sum with the leg factor that
    holds leg 1 weighted by i zeta_1 / spot.  Leg 1 must then couple more
    than one axis, as it does in every compound term.
    """
    flips, supports = plan
    n, m = legs.cmat.shape
    # integrate over eta_k = flips_k xi_k: the flipped grid holds the same
    # points, and 1 / prod(xi) = prod(flips) / prod(eta)
    legs = copy(legs)  # the caller's leg list stays unflipped
    legs.cmat = legs.cmat * flips[:, None]
    b, d0 = b * flips, d0 * flips
    weight = None if delta_spot is None else (lambda xs, axes: 1j * legs.zeta(0, xs, axes) / delta_spot)
    factors, stages = _chain_factors(legs, d0, supports, weight)
    store = cq._ChainSamples(factors, stages, b, truncations)
    integrand = _integrand(legs, d0, weight)
    tails = {}

    def tail(nodes):
        if tuple(nodes) not in tails:
            h, reach = cq._chain_grid(truncations, nodes)
            tails[tuple(nodes)] = cq._face_tail_estimate(integrand, b, [r * h for r in reach], [2 * r for r in reach])
        return tails[tuple(nodes)]

    def price(d, prefactor, raw_tol, spot=None, stalled_raises=True):
        shift = d * flips - d0
        shifted = bool(shift.any())
        modulus = math.exp(-float(shift @ b))  # exactly 1 when d is d0
        final = {}

        def phased(h, samples):
            if shifted:
                samples = [vals * np.exp(1j * shift[k] * h * np.arange(-(vals.size // 2), vals.size // 2 + 1))
                           for k, vals in enumerate(samples[:n])] + samples[n:]
            final.update(h=h, samples=samples)
            return samples

        res = cq._chain_ladder(store, stages, starts, cap, raw_tol / modulus, tail, phased)
        if shifted:
            res = replace(res, value=res.value * modulus, error_estimate=res.error_estimate * modulus)
        scale = prefactor * math.prod(flips)
        result = _scaled_price(res, scale, raw_tol, offs, (n, m), cap, truncations, stalled_raises)
        if spot is None:
            return result
        # each condition row of a compound term sums to 1, so leg 1 couples every axis
        # and its support's leg factor holds it (``_chain_factors``)
        axes_1 = tuple(np.flatnonzero(legs.cmat[:, 0]).tolist())
        holder = n + [axes for axes, _ in supports].index(axes_1)
        h, samples = final["h"], list(final["samples"])
        width = samples[holder].size // 2
        z = h * np.arange(-width, width + 1) + 1j * store.lines[holder][1]
        samples[holder] = samples[holder] * (1j * legs.cmat[axes_1[0], 0] * z + legs.gsuf[0])
        twin = cq._chain_level(samples, stages, h, False)[0] * modulus
        return result, (scale / (2.0j * math.pi) ** n * twin).real / spot
    return price


def _shifted(p, t) -> PayoffParameterSet:
    """The one-condition payoff ``p`` with its indices moved by t times its condition row: suffix sums G + t C."""
    return replace(p, gamma=tuple(g + t * a for g, a in zip(p.gamma, p.a[0])))


def _log_weight(p, poles):
    """log(W(eta) / c_1), W(eta) = sum_i c_i e^(t_i k) / (eta + i t_i), for the ``poles`` (c_i, t_i) of ``_kept_sample_prices``.

    None for a lone pole, whose weight 1 / eta its callers keep as -log(xi).
    """
    if len(poles) == 1:
        return None
    (c_1, _), k = poles[0], p.k_log[0]
    ratios = [(c / c_1 * math.exp(t * k), t) for c, t in poles[1:]]
    return lambda eta: np.log(1.0 / eta + sum(r / (eta + 1j * t) for r, t in ratios))


def _pole_offset(legs, p, poles, d, log_weight, position=None) -> tuple[float, tuple[float, float]]:
    """The equal offset omega of the N = 1 ``poles`` (c_i, t_i) of ``p`` at log moneyness ``d``, and its interval.

    The interval intersects the terms' equal-offset intervals, each moved by
    w t_i: a contour through -i w omega passes every pole on the side w
    demands, and term i meets its strip condition at omega - w t_i.  omega is
    the halving rule's with log|W| (``log_weight``) in its ``_log_peak``, or
    the point at ``position``.
    """
    model, w = legs.model, p.w[0]
    lo, hi = _equal_offset_interval(model, p)
    for _, t in poles[1:]:
        lo_t, hi_t = _equal_offset_interval(model, _shifted(p, t))
        lo, hi = max(lo, lo_t + w * t), min(hi, hi_t + w * t)
    if not lo < hi:
        raise NoFeasibleOffsets(f"the poles' equal-offset intervals share no point: ]{lo:g}, {hi:g}[")
    if position is None:
        return float(_halved_offsets(legs, p, lo, hi, d[None], log_weight)[0][0]), (lo, hi)
    return _interval_point(lo, hi, position), (lo, hi)


def _kept_sample_prices(model, sched, p, tol, poles=((1.0, 0.0),)):
    """sum_i c_i ``price_digital`` of ``_shifted(p, t_i)`` over the ``poles`` (c_i, t_i), and its ``delta``, as a function of the spot, from kept samples.

    ``price(spot)`` returns the PriceResult and the delta's value, which
    steers a search and carries no claim.  The first pole is p's own, t_1 =
    0, and the claim is |c_1| times ``tol``: a compound's asset term comes
    first, with c_1 = +-1, so its pair with the cash term meets ``tol`` as
    one number.  A spot x0 picks the offset of the window [x0/2, 2 x0] and
    sets it up once (``_set_up``), its truncations and start counts serving
    both ends; spots in the window reuse its samples, and a spot outside it
    sets up a fresh window.

    N = 1 prices the poles' terms as one contour integral.  The payoff with
    suffix sums G + t C has the exponent E(eta) at eta = xi - i t and the
    spot factor S^G_1 e^(i d eta) e^(t k) / (eta + i t), so the sum is p's
    integral weighted by W(eta) / c_1 (``_log_weight``), times c_1, and its
    twin is the delta.  The strip rule runs on the line Im eta = -w omega
    through the poles' offset (``_pole_offset``).  N >= 2 (one pole) takes
    the offset and step of the cost rule at x0 (``_costed_offset``) and the
    chain rule: every compound term's conditions are in chain form.  N = 1
    spots with w*d > 12 (complements) price each term by ``price_digital``
    and ``delta`` and sum them.
    """
    legs = _Legs(model, sched, p)
    terms = [(c, _shifted(p, t)) for c, t in poles]
    log_weight = _log_weight(p, poles)
    window = None  # (x0, its pricer)

    def opened(spot, d):
        """The pricer of the window [spot / 2, 2 spot], at the offset its rule picks at ``spot``."""
        step = None
        if p.n == 1:
            omega, _ = _pole_offset(legs, p, poles, d, log_weight)
        else:
            raw_tol = _raw_tol(tol, p.n, _prefactor(model, sched, p, spot))
            omega, _, step = _costed_offset(legs, p, *_equal_offset_interval(model, p), d, raw_tol)
        ends = [spot / 2, 2 * spot]
        raw_tols = [_raw_tol(tol, p.n, _prefactor(model, sched, p, x)) for x in ends]
        return _set_up(legs, p, ContourOffsets((omega,) * p.n), np.array([_log_moneyness(p, x) for x in ends]),
                       raw_tols, one_spot=False, step=step, log_weight=log_weight)

    def price(spot):
        nonlocal window
        d = _log_moneyness(p, spot)
        if p.n == 1 and p.w[0] * d[0] > 12.0:
            parts = [(c, price_digital(model, sched, q, spot, tol=tol), delta(model, sched, q, spot, tol).value)
                     for c, q in terms]
            first = parts[0][1]
            return replace(first, value=sum(c * res.value for c, res, _ in parts),
                           quadrature_error=sum(abs(c) * res.quadrature_error for c, res, _ in parts),
                           evaluations=sum(res.evaluations for _, res, _ in parts)), sum(c * s for c, _, s in parts)
        if window is None or not window[0] / 2 <= spot <= 2 * window[0]:
            window = spot, opened(spot, d)
        pf = _prefactor(model, sched, p, spot)
        prefactor, raw_tol = poles[0][0] * pf, _raw_tol(tol, p.n, pf)
        if p.n == 1:  # a strip of one entry
            return window[1](d, [prefactor], [raw_tol], [spot])[0]
        return window[1](d, prefactor, raw_tol, spot)
    return price


def _sinh_price(legs, d, b, interval, raw_tol, prefactor, offsets, fixed_nodes, delta_spot, log_weight) -> PriceResult:
    """One spot's N = 1 price: the line rule along a sinh-deformed contour (``quadrature.sinh_contour``).

    The curve crosses the imaginary axis at i b, the horizontal line's
    offset: at default offsets the cumulant rule's for a single digital
    (``_cumulant_offset``) and the halving rule's for a pole group
    (``_pole_offset``).  It bends its ends by the sign of the integrand's
    linear phase (d plus the drift term mu sum_j Delta_j C_j), so that the
    phase decays along them as well as exp(-Delta psi).  The trapezoid rule in y errs by about
    exp(-2 pi d0 / h) times the integrand on the strip |Im y| < d0
    (Trefethen & Weideman, SIAM Review 56(3), 2014), where the curve sweeps
    the family of bends theta +- d0 with crossings
    b + scale (sin(theta +- d0) - sin theta).  The integrand is exp(E) / xi,
    or exp(E) W / c_1 given a pole group's ``log_weight`` (``_log_weight``),
    whose poles lie on the axis outside ``interval``.  Here theta = d0 =
    ``_SINH_BEND`` * gamma, gamma = min(growth cone, pi/2), so the family
    stays between the horizontal line and 3/4 of the cone, away from the
    cone's edge where the growth of Re psi is weakest; ``scale`` keeps its
    crossings within ``_SINH_ROOM`` of the way from i b to the ends of the
    feasible ``interval`` of Im xi on the axis, so they stay off the pole and
    the cuts.

    One exponent call, at ``_PROBE_STEP``-spaced y and where the family's
    edge curves cross the axis, sets the rest.  The first level aims at the
    error raw_tol / 10 (``_SINH_MARGIN``), or peak / e^(1 + ``_SINH_MARGIN``)
    when the peak, the largest |f xi'| probed, is within e of raw_tol: the
    window runs out to the first probe on either side where |f xi'| falls to
    that, and the start step h makes edge * exp(-2 pi d0 / h) that small,
    edge being the larger of the peak and |f xi'| at the edge crossings.
    The second level halves h, which about squares the first level's
    relative error, so a typical price stops there with a claim near
    raw_tol / 10, and no decay bound or truncation radius enters.
    ``fixed_nodes`` counts y-nodes.  Given a ``delta_spot`` it prices the
    delta (see ``delta``).
    """
    model = legs.model
    m = legs.cmat.shape[1]
    sign = 1.0 if d + model.mu * float(legs.deltas @ legs.cmat[0]) >= 0.0 else -1.0
    bend = _SINH_BEND * min(model.growth_cone, 0.5 * math.pi)
    theta = sign * bend
    # reach of the family's crossings below and above i b, per unit scale
    outer, inner = math.sin(2.0 * bend) - math.sin(bend), math.sin(bend)
    below, above = (inner, outer) if sign > 0 else (outer, inner)
    im_lo, im_hi = interval
    scale = _SINH_ROOM * min((b - im_lo) / below, (im_hi - b) / above)

    def exponent(xi):
        return 1j * d * xi + legs.exponent(range(m), (xi,), (0,))

    # the curve at the probes y, and the family's edge curves (bends theta -+ d0) where they cross the axis
    point, slope = cq.sinh_contour(b, theta, scale)
    y = _PROBE_STEP * np.arange(-_PROBE_COUNT, _PROBE_COUNT + 1)
    edges = theta + np.array([-bend, bend])
    xi = np.concatenate((point(y), 1j * (b + scale * (np.sin(edges) - math.sin(theta)))))
    weight = -np.log(np.abs(xi)) if log_weight is None else log_weight(xi).real
    log_mod = exponent(xi).real + weight + np.log(np.abs(np.concatenate((slope(y), scale * np.cos(edges)))))
    log_mod, log_edge = log_mod[:y.size], log_mod[y.size:].max()
    top = int(np.argmax(log_mod))
    aim = max(log_mod[top] - math.log(max(raw_tol, 1e-280)), 1.0) + _SINH_MARGIN  # log(peak / first level's error)
    low = np.flatnonzero(log_mod < log_mod[top] - aim)
    right, left = low[low > top], low[low < top]
    y_hi = y[right[0]] if right.size else y[-1]
    y_lo = y[left[-1]] if left.size else y[0]
    half = 0.5 * (y_hi - y_lo)

    if fixed_nodes is not None:
        start = cap = _checked_fixed_nodes(fixed_nodes)
    else:
        cap = cq.LINE_NODE_CAP
        log_ratio = aim + max(log_edge - log_mod[top], 0.0)  # log(edge / the first level's error)
        start = min(max(cq.MIN_NODES, 2 * math.ceil(half * log_ratio / (2.0 * math.pi * bend))), cap // 2)

    def integrand(xi):
        if log_weight is not None:
            return np.exp(exponent(xi) + log_weight(xi))
        out = np.exp(exponent(xi)) / xi
        if delta_spot is not None:
            out = out * (1j * legs.zeta(0, (xi,), (0,)) / delta_spot)
        return out

    res = cq.integrate_line(integrand, cq.sinh_contour(b, theta, scale, 0.5 * (y_hi + y_lo)), half, raw_tol,
                            start_nodes=start, max_nodes=cap)
    return _scaled_price(res, prefactor, raw_tol, offsets, (1, m), cap, (), fixed_nodes is None)


def _integrand(legs: _Legs, d_vec, weight=None):
    """The N >= 2 digital integrand exp(i d.xi + E(xi)) / prod(xi), times ``weight`` if given."""
    n, m = legs.cmat.shape

    def integrand(*xs):
        phase = 0.0
        denom = 1.0
        for k in range(n):
            phase = phase + 1j * d_vec[k] * xs[k]
            denom = denom * xs[k]
        out = np.exp(phase + legs.exponent(range(m), xs, range(n))) / denom
        if weight is not None:
            out = out * weight(xs, range(n))
        return out
    return integrand


def _chain_plan(cmat: np.ndarray):
    """Axis flips that put the leg couplings ``cmat`` in chain form, or None.

    After each axis k is flipped (row k times flips[k] = +-1), every leg
    (column) must couple no axis, one axis, or several axes with equal
    coefficients, and the supports of the multi-axis legs must nest.  Returns
    (flips, supports) with the supports innermost first, each as
    (axes, legs); the first flip pattern that works wins, no flips first.
    """
    n, m = cmat.shape
    for flips in _iter_product((1.0, -1.0), repeat=n):
        flipped = cmat * np.array(flips)[:, None]
        supports = {}
        for j in range(m):
            axes = tuple(np.flatnonzero(flipped[:, j]).tolist())
            if len(axes) > 1:
                if np.ptp(flipped[axes, j]) != 0.0:
                    break
                supports.setdefault(axes, []).append(j)
        else:
            nested = sorted(supports, key=len)
            if all(set(a) < set(b) for a, b in zip(nested, nested[1:])):
                return np.array(flips), [(axes, supports[axes]) for axes in nested]
    return None


def _chain_factors(legs: _Legs, d_vec, supports, weight):
    """Axis and leg factors of the digital integrand in chain form (``_chain_plan``).

    The legs (``_Legs``, flipped by the plan) are grouped by support.  Axis k
    carries exp(i d_k xi_k) / xi_k and the legs that couple it alone; the legs
    that couple no axis are a constant on axis 0.  Each nested support adds
    its new axes and a factor of the legs on it, at the sum of its axes.  A
    ``weight`` other than None multiplies the factor that holds leg 1, at leg
    1's argument.  ``d_vec`` and ``weight`` are those of the set-up
    (``_chain_pricer``): a single spot's d and delta weight, or d = 0 and none
    for a kept window.  Returns (factors, stages) for
    ``quadrature._ChainSamples``.
    """
    n, m = legs.cmat.shape
    own = [[] for _ in range(n)]
    loose = [j for j in range(m) if not legs.cmat[:, j].any()]
    for j in range(m):
        axes = np.flatnonzero(legs.cmat[:, j])
        if axes.size == 1:
            own[axes[0]].append(j)
    constant = legs.exponent(loose, (), ())

    def axis_factor(k):
        shift = constant if k == 0 else 0.0
        return lambda x: np.exp(1j * d_vec[k] * x + shift + legs.exponent(own[k], (x,), (k,))) / x

    def leg_factor(axes, held):
        return lambda z: np.exp(legs.exponent(held, (z,), axes[:1]))

    def holding(factor, held, k):
        if weight is None or 0 not in held:
            return factor
        return lambda z: factor(z) * weight((z,), (k,))

    stages = []
    taken = []
    for axes, held in supports:
        stages.append((tuple(k for k in axes if k not in taken),
                       holding(leg_factor(axes, held), held, axes[0])))
        taken.extend(axes)
    free = tuple(k for k in range(n) if k not in taken)
    if free:
        stages.append((free, None))
    factors = [holding(axis_factor(k), own[k] + loose if k == 0 else own[k], k) for k in range(n)]
    return factors, stages


def _start_counts(truncations, d_vec, cap, step, fixed_nodes=None) -> tuple[list[int], int]:
    """Each axis's start count and the ladder's node cap: ``fixed_nodes`` as both if given, else ``cap``.

    Without ``fixed_nodes`` each axis starts at its ``_start_count``, raised
    to 2^floor(log2(2 L_k / step)) given the cost rule's ``step``
    (``_costed_offset``), and at most half ``cap``.
    """
    if fixed_nodes is not None:
        fixed = _checked_fixed_nodes(fixed_nodes)
        return [fixed] * len(truncations), fixed
    starts = [_start_count(ell, d, cap) for ell, d in zip(truncations, d_vec)]
    if step is not None:
        starts = [min(max(start, 1 << max(math.floor(math.log2(2.0 * ell / step)), 0)), cap // 2)
                  for start, ell in zip(starts, truncations)]
    return starts, cap


def _checked_fixed_nodes(fixed_nodes) -> int:
    """``fixed_nodes`` as an int; ValueError unless it is even and at least ``MIN_NODES``."""
    if fixed_nodes < cq.MIN_NODES or fixed_nodes % 2:
        raise ValueError(f"fixed_nodes must be even and at least {cq.MIN_NODES}, got {fixed_nodes}")
    return int(fixed_nodes)


def _scaled_price(res, prefactor, raw_tol, offsets, dims, cap, truncations, stalled_raises=True) -> PriceResult:
    """The price prefactor / (2 pi i)^N times ``res``.

    The value must be real up to quadrature noise; the error estimate
    includes the float-cancellation floor of hot integrands.  An unconverged
    ``res``, whose ladder stopped at its node ``cap``, raises NoConvergence
    carrying the price if ``stalled_raises``; the message names that cap,
    and the clamp ``quadrature.TRUNCATION_MAX`` if one of ``truncations``
    met it.
    """
    scale = prefactor / (2.0j * math.pi) ** dims[0]
    value_c = scale * res.value
    err = abs(scale) * res.error_estimate
    if abs(value_c.imag) > max(IMAG_RESIDUE_TOL * (1.0 + abs(value_c.real)), 4.0 * err):
        raise PricingError(
            f"imaginary residue {value_c.imag:g} too large for value {value_c.real:g}"
        )
    price = PriceResult(float(value_c.real), err, offsets, dims, res.evaluations)
    if stalled_raises and not res.converged:
        clamped = max(truncations, default=0.0) >= cq.TRUNCATION_MAX
        raise NoConvergence(
            f"quadrature stalled at error {err:g} (tolerance {abs(scale) * raw_tol:g}) at the {cap}-node cap per "
            f"axis{f', truncations clamped at {cq.TRUNCATION_MAX:.0e}' if clamped else ''}", price
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
) -> PriceResult:
    """Value of the multi-period power digital described by ``p``."""
    return _price_core(model, sched, p, [spot], offsets, tol, fixed_nodes)[0]


def delta(
    model: LevyModel,
    sched: MonitoringSchedule,
    p: PayoffParameterSet,
    spot: float,
    tol: float | None = None,
) -> PriceResult:
    """dPrice/dSpot: the price's own integral, on its own grid, weighted by i zeta_1 / spot.

    The spot enters only through spot**G_0 * exp(i d.xi) = exp(i ln(spot) zeta_1),
    zeta_1 being leg 1's argument (``_Legs.zeta``).  The result's
    ``quadrature_error`` is the delta's own claimed error.
    """
    return _price_core(model, sched, p, [spot], None, tol, None, True)[0]
