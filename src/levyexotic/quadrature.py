"""Error-controlled trapezoid quadrature along complex contours.

All integrands here are analytic in a neighbourhood of the integration
contours and decay fast at the truncation edge, which makes the uniform
trapezoid rule spectrally accurate.  The contours are horizontal lines,
except the curves xi(y) of ``integrate_line`` (``sinh_contour``), on which
the integrand decays double-exponentially in y.  One refinement ladder
(``_refine``) doubles the nodes of every axis up to its cap and serves four
level rules:

- the line rule of ``integrate_line``, for one axis, along a curve or a
  horizontal line;
- the strip rule of ``_integrate_strip``, for the line integrals of
  exp(i d_s xi + log_f(xi)) over phase coefficients d_s, all from one store
  of samples of log_f (``_Samples``) that callers may keep across strips;
- the chain rule of ``_chain_ladder``, for N >= 2 axes whose integrand
  factors into per-axis factors and leg factors of nested partial sums of
  the axes: it computes the tensor trapezoid sum on a common step as N nested
  1-D convolutions (the Fourier-domain CONV recursion), on the samples of a
  ``_ChainSamples`` store that ``digitals._chain_pricer`` sets up;
- the tensor rule of ``integrate_tensor``, for any other N-fold integrand and
  as the oracle of the chain rule.

Levels nest: doubling the nodes of an axis halves its step, so every node of
a level is a node of the next.  The line rule keeps its samples and evaluates
the integrand only at each level's new odd nodes; ``evaluations`` counts those
new samples.  The reported (not guaranteed) error estimate is the difference
between the two finest levels plus a truncation-tail estimate and a
float-roundoff floor.  A ladder that starts at its cap first runs a level at
half the nodes, so a single capped level is still measured against a coarser
one; no level runs fewer than ``MIN_NODES`` nodes per axis.  The first level
is therefore never final and its roundoff is never read: when the second
level doubles it, the line, strip and chain rules sample both levels in one
integrand call, and the chain rule computes no roundoff bound for it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionTooLarge, NaNEncountered, NonPositiveInput

LINE_NODE_CAP = 2**14
TENSOR_NODE_CAPS = {2: 2**11, 3: 2**9, 4: 2**6}
TRUNCATION_MIN = 1.0
TRUNCATION_MAX = 1.0e4
MIN_NODES = 16  # the fewest trapezoid nodes per axis any level runs
_SLAB_POINTS = 1 << 21  # grid points held in memory at once
_DIRECT_CONVOLVE = 64  # inputs this short are convolved directly, longer ones by FFT
_STRIP_PRODUCTS = 1 << 16  # phase products the strip rule forms at once
_EPS = np.finfo(float).eps


def _node_cap(n: int, max_nodes: int | None) -> int:
    """Per-axis node cap of an n-fold contour: ``max_nodes`` or the default for n axes."""
    return max_nodes or (LINE_NODE_CAP if n == 1 else TENSOR_NODE_CAPS[n])


@dataclass(frozen=True)
class ContourSpec:
    """Tensor-product contour: line Im(xi_n) = offsets[n], |Re| <= truncations[n]."""

    offsets: tuple[float, ...]
    truncations: tuple[float, ...]
    start_nodes: tuple[int, ...]

    def __post_init__(self):
        n = len(self.offsets)
        if not (len(self.truncations) == len(self.start_nodes) == n):
            raise ValueError("offsets, truncations and start_nodes must share a length")
        if any(b == 0.0 for b in self.offsets):
            raise ValueError("contour offsets must avoid the pole on the real axis")
        if any(ell <= 0 for ell in self.truncations):
            raise NonPositiveInput("truncations must be positive")
        if any(p < MIN_NODES or p % 2 for p in self.start_nodes):
            raise ValueError(f"node counts must be even and at least {MIN_NODES}")

    @property
    def ndim(self) -> int:
        return len(self.offsets)


@dataclass
class QuadratureResult:
    value: complex
    error_estimate: float
    evaluations: int
    converged: bool = True
    twin: np.ndarray | None = None  # a weighted strip's twin integrals (``_integrate_strip``)


def truncation_radius(decay_c: float, order: float, tau: float, tol: float) -> float:
    """Smallest L with exp(-decay_c*tau*L**order) <= tol / (1 + L).

    Clamped to [1, 1e4] so degenerate tolerances cannot produce degenerate
    windows.  Monotone: larger tau or tol shrinks L.
    """
    if decay_c <= 0 or tau <= 0 or tol <= 0 or order <= 0:
        raise NonPositiveInput("decay_c, order, tau and tol must all be positive")
    if order > 2:
        raise NonPositiveInput("order must lie in ]0, 2]")
    if tol >= 1.0:
        return TRUNCATION_MIN  # degenerate tolerance: no decay needed
    from scipy.optimize import brentq

    def gap(ell: float) -> float:
        return decay_c * tau * ell**order - math.log((1.0 + ell) / tol)

    if gap(TRUNCATION_MIN) >= 0:
        return TRUNCATION_MIN
    if gap(TRUNCATION_MAX) <= 0:
        return TRUNCATION_MAX
    return float(brentq(gap, TRUNCATION_MIN, TRUNCATION_MAX, xtol=1e-9, rtol=1e-12))


def _roundoff_estimate(abs_mass: float, n_terms: int) -> float:
    """Accumulated float noise of a large cancelling sum: eps * log2(n) * sum|f|."""
    return _EPS * (math.log2(max(n_terms, 2)) + 4.0) * abs_mass


def _finite(vals):
    """``vals``, or NaNEncountered if any sample is not finite."""
    if not np.all(np.isfinite(vals)):
        raise NaNEncountered("integrand returned a non-finite value")
    return vals


def _odd_nodes(truncation: float, p: int):
    """The nodes that level p of a line on [-truncation, truncation] adds to level p / 2."""
    return -truncation + 2.0 * truncation / p * np.arange(1, p, 2)


def _tail_estimate(abs_lo: float, abs_next_lo: float, abs_hi: float, abs_next_hi: float, h: float) -> float:
    """Geometric extrapolation of the neglected tails from the edge samples."""
    est = 0.0
    for edge, inner in ((abs_lo, abs_next_lo), (abs_hi, abs_next_hi)):
        if edge == 0.0:
            continue
        ratio = edge / inner if inner > 0 else 1.0
        est += edge * h * (100.0 if ratio >= 0.99 else 1.0 / (1.0 - ratio))
    return est


def _refine(level, starts, cap, tol, tail) -> QuadratureResult:
    """The refinement ladder behind the line, the strip, the chain and the tensor rule.

    ``level(nodes, ahead)`` evaluates one trapezoid level at per-axis node
    counts ``nodes`` and returns (value, roundoff bound of its sum, new
    integrand evaluations); ``tail(nodes)`` estimates the mass outside the
    truncation box at the final nodes.  At the first level, which is never
    final and whose roundoff is never read (it may return None), ``ahead``
    is the second level's node counts; at every later level it is None.
    Each axis starts at its even start count (at least ``MIN_NODES``, at
    most ``cap``) and doubles until two successive levels agree to ``tol``
    or every axis sits at ``cap``, in which case the best value is returned
    with ``converged=False``.  When every axis starts
    at ``cap`` the ladder first runs a level at half the nodes (rounded up
    to even), so the capped level's refinement error is measured rather than
    taken as 0; a cap whose half level falls below ``MIN_NODES`` (a cap
    under 30) raises ValueError.  No level runs an odd count or fewer than
    ``MIN_NODES`` nodes, given an even cap.  For a strip, values,
    errors, ``tol`` and ``converged`` are arrays; it stops once all converge.
    """
    nodes = [min(max(MIN_NODES, p + p % 2), cap) for p in map(int, starts)]
    if all(p >= cap for p in nodes):
        half = -(-cap // 4) * 2  # cap / 2 rounded up to even: one doubling reaches the cap
        if half < MIN_NODES:
            raise ValueError(f"a ladder that starts at its cap of {cap} nodes first runs a half level "
                             f"of {half} nodes, below the floor of {MIN_NODES}")
        nodes = [half] * len(nodes)
    value = None
    err = math.inf
    evaluations = 0
    converged = False
    ahead = [min(p * 2, cap) for p in nodes]
    while True:
        level_value, roundoff, level_evals = level(nodes, ahead)
        evaluations += level_evals
        prev, value = value, level_value
        if prev is not None:
            err = abs(value - prev)
            # Below the float-cancellation floor further refinement is noise.
            converged = err <= np.maximum(tol, 2.0 * roundoff)
            if np.all(converged):
                break
        if all(p >= cap for p in nodes):
            break
        nodes, ahead = [min(p * 2, cap) for p in nodes], None

    if np.ndim(err):
        err = np.where(np.isfinite(err), err, 0.0)
    elif not math.isfinite(err):
        err = 0.0
    return QuadratureResult(
        value=value,
        error_estimate=err + tail(nodes) + roundoff,
        evaluations=evaluations,
        converged=converged if np.ndim(converged) else bool(converged),
    )


def sinh_contour(crossing: float, angle: float, scale: float, centre: float = 0.0):
    """The curve xi(y) = i (crossing - scale sin(angle)) + scale sinh(i angle + centre + y) and its derivative.

    It crosses the imaginary axis once, at i crossing (y = -centre), and its
    ends run off along the rays of argument ``angle`` and pi - ``angle``: up
    for a positive angle, down for a negative one (Boyarchenko and
    Levendorskii's sinh-acceleration).  Returns the pair (xi, dxi) of
    ``integrate_line``.
    """
    shift = 1j * (crossing - scale * math.sin(angle))
    return (lambda y: shift + scale * np.sinh(1j * angle + (centre + y)),
            lambda y: scale * np.cosh(1j * angle + (centre + y)))


def integrate_line(f, contour, truncation: float, tol: float,
                   start_nodes: int = 64, max_nodes: int = LINE_NODE_CAP) -> QuadratureResult:
    """Trapezoid value of the contour integral of f along a curve xi(y), |y| <= truncation.

    ``contour`` is the pair (xi, dxi) of the curve and its derivative, both
    elementwise on real ndarrays (``sinh_contour``), and the rule sums
    f(xi(y)) xi'(y) over the nodes y; or it is a float b, the horizontal line
    xi(y) = y + i b, whose rule sums f(y + i b).  ``f`` must accept a complex
    ndarray and evaluate elementwise; it is called once per level, except
    that a first level doubled by the second takes that level's new nodes in
    the same call.  Nodes are doubled until two successive refinements agree
    to ``tol`` (absolute, on the raw integral) or ``max_nodes`` is reached,
    in which case the best value is returned with ``converged=False``.  A
    level that doubles the previous one keeps its samples and evaluates ``f``
    only at the new odd nodes; every node is bit-identical to a full
    ``np.linspace`` grid, so the value is that of the full trapezoid sum.
    """
    if isinstance(contour, tuple):
        point, slope = contour

        def sample(y):
            return f(point(y)) * slope(y)
    else:
        if contour == 0.0:
            raise ValueError("contour offset must avoid the pole on the real axis")

        def sample(y):
            return f(y + 1j * contour)
    if truncation <= 0 or tol < 0:
        raise NonPositiveInput("truncation must be positive and tol nonnegative")
    edges = []  # |f xi'| at the last level's two outermost nodes on each side
    samples = odd = None  # f xi' at the last level's nodes; at the next level's new nodes, if taken

    def level(nodes, ahead):
        nonlocal samples, odd
        (p,) = nodes
        h = 2.0 * truncation / p
        if samples is not None and 2 * (samples.size - 1) == p:
            new = _finite(sample(_odd_nodes(truncation, p))) if odd is None else odd
            odd = None
            vals = np.empty(p + 1, dtype=np.result_type(samples, new))
            vals[0::2] = samples
            vals[1::2] = new
        else:
            y = np.linspace(-truncation, truncation, p + 1)
            both = ahead == [2 * p]  # the second level's new nodes join this call
            taken = _finite(sample(np.concatenate([y, _odd_nodes(truncation, 2 * p)]) if both else y))
            new = vals = taken[:p + 1]
            odd = taken[p + 1:] if both else None
        samples = vals
        total = vals.sum() - 0.5 * (vals[0] + vals[-1])
        edges[:] = abs(vals[0]), abs(vals[1]), abs(vals[-1]), abs(vals[-2])
        return complex(total * h), _roundoff_estimate(float(np.abs(vals).sum()) * h, p + 1), new.size

    return _refine(level, (start_nodes,), max_nodes, tol,
                   lambda nodes: _tail_estimate(*edges, 2.0 * truncation / nodes[0]))


class _Samples:
    """Ladder samples of exp(log_f(xi) - c) on Im(xi) = offset, |Re| <= truncation, c = Re log_f at the centre.

    ``level(p, refine, doubled)`` gives level p's (Re xi, samples) at its
    new odd nodes if ``refine``, else at all p + 1; each is evaluated once
    and kept.  A full level whose next level ``doubled`` it takes that
    level's new odd nodes, (2p, True), in the same call of ``log_f``.
    """

    def __init__(self, log_f, offset: float, truncation: float):
        self.log_f, self.offset, self.truncation = log_f, offset, truncation
        self.centre = float(log_f(np.array([1j * offset]))[0].real)
        self._held = {}

    def level(self, p: int, refine: bool, doubled: bool):
        if (p, refine) not in self._held:
            ell = self.truncation
            keys = [(p, refine)]
            if doubled and not refine and (2 * p, True) not in self._held:
                keys.append((2 * p, True))
            xs = [_odd_nodes(ell, q) if odd else np.linspace(-ell, ell, q + 1) for q, odd in keys]
            vals = _finite(np.exp(self.log_f(np.concatenate(xs) + 1j * self.offset) - self.centre))
            for key, x, v in zip(keys, xs, np.split(vals, [xs[0].size])):
                self._held[key] = x, v
        return self._held[p, refine]


def _integrate_strip(samples: _Samples, d, tol, start_nodes: int, weight=None) -> QuadratureResult:
    """Line-rule values of the integrals of exp(i d_s xi + log_f(xi)) over the line of ``samples``, one per d_s.

    The strip rule: each level reads exp(log_f - c) at its new odd nodes
    from the store, which a caller may keep for later strips, and adds each
    d_s's sum of them times exp(i d_s Re xi), formed in chunks of
    ``_STRIP_PRODUCTS``.  Each entry's modulus exp(c - d_s offset) scales its
    sum, tail and roundoff, so a huge c that the phase cancels cannot
    overflow.  ``tol`` and the result hold one entry per d_s.  Given a
    ``weight``, the result's ``twin`` holds each entry's integral with the
    samples times weight(xi), on the final level's nodes: one phase matrix
    serves both sums, and the twin's accuracy steers no level.
    """
    d = np.asarray(d, dtype=float)
    moduli = np.exp(samples.centre - d * samples.offset)
    edges = []  # |sample| at the last level's two outermost nodes on each side
    sums = last = mass = None  # per entry the phased trapezoid sum / h (and the twin's); the level's p; sum |sample|

    def phased(x, vals):
        out = np.empty((d.size, *vals.shape[1:]), dtype=complex)
        rows = max(1, _STRIP_PRODUCTS // x.size)
        for lo in range(0, d.size, rows):
            out[lo:lo + rows] = np.exp(1j * np.multiply.outer(d[lo:lo + rows], x)) @ vals
        return out

    def level(nodes, ahead):
        nonlocal sums, last, mass
        (p,) = nodes
        h = 2.0 * samples.truncation / p
        refine = last is not None and 2 * last == p
        x, new = samples.level(p, refine, ahead == [2 * p])
        both = new
        if weight is not None:
            both = np.empty((new.size, 2), dtype=complex)
            both[:, 0] = new
            both[:, 1] = new * weight(x + 1j * samples.offset)
        if refine:
            sums = sums + phased(x, both)
            mass += float(np.abs(new).sum())
            edges[1], edges[3] = abs(new[0]), abs(new[-1])
        else:
            sums = phased(x, both) - 0.5 * phased(x[[0, -1]], both[[0, -1]])
            mass = float(np.abs(new).sum())
            edges[:] = abs(new[0]), abs(new[1]), abs(new[-1]), abs(new[-2])
        last = p
        value = h * moduli * (sums if weight is None else sums[:, 0])
        return value, moduli * _roundoff_estimate(mass * h, p + 1), new.size

    res = _refine(level, (start_nodes,), LINE_NODE_CAP, tol,
                  lambda nodes: moduli * _tail_estimate(*edges, 2.0 * samples.truncation / nodes[0]))
    if weight is not None:
        res.twin = 2.0 * samples.truncation / last * moduli * sums[:, 1]
    return res


def _tensor_level(f, offsets, truncations, nodes):
    """One trapezoid evaluation on the full tensor grid, slab-chunked on axis 0.

    Summation order is fixed (axis-major, ascending index), so the result is
    bit-stable across runs.
    """
    ndim = len(offsets)
    axes = []
    weights = []
    for b, ell, p in zip(offsets, truncations, nodes):
        x = np.linspace(-ell, ell, p + 1)
        w = np.full(p + 1, 2.0 * ell / p)
        w[0] *= 0.5
        w[-1] *= 0.5
        axes.append(x + 1j * b)
        weights.append(w)

    inner_points = math.prod(p + 1 for p in nodes[1:])
    slab = max(1, _SLAB_POINTS // max(1, inner_points))
    n0 = nodes[0] + 1

    def reshaped(arr, axis):
        shape = [1] * ndim
        shape[axis] = arr.shape[0]
        return arr.reshape(shape)

    inner_args = [reshaped(axes[k], k) for k in range(1, ndim)]
    inner_weight = 1.0
    for k in range(1, ndim):
        inner_weight = inner_weight * reshaped(weights[k], k)

    total = 0.0 + 0.0j
    abs_mass = 0.0
    evaluations = 0
    for lo in range(0, n0, slab):
        hi = min(lo + slab, n0)
        arg0 = reshaped(axes[0][lo:hi], 0)
        vals = _finite(f(arg0, *inner_args))
        evaluations += vals.size
        w0 = reshaped(weights[0][lo:hi], 0)
        weighted = vals * inner_weight * w0
        total += complex(weighted.sum())
        abs_mass += float(np.abs(weighted).sum())
    return total, abs_mass, evaluations


def _face_tail_estimate(f, offsets, truncations, nodes):
    """Order-of-magnitude estimate of the mass outside the truncation box.

    Per face, the mean |f| over a coarse grid of the other axes, at the face
    and one step inside it, is extrapolated geometrically outwards, as
    ``_tail_estimate`` does for the line rule.  The points of all 2N faces
    go to ``f`` in one call, as flat arrays.
    """
    ndim = len(offsets)
    coarse = [np.linspace(-ell, ell, 9) + 1j * b for b, ell in zip(offsets, truncations)]
    faces = []  # (axis, step, the face's grid, each axis broadcast to its full shape)
    for axis in range(ndim):
        h = 2.0 * truncations[axis] / nodes[axis]
        for sign in (-1.0, 1.0):
            args = []
            for k in range(ndim):
                shape = [1] * ndim
                if k == axis:
                    vals = sign * (truncations[axis] - np.array([0.0, h])) + 1j * offsets[axis]
                else:
                    vals = coarse[k]
                shape[k] = vals.shape[0]
                args.append(vals.reshape(shape))
            faces.append((axis, h, np.broadcast_arrays(*args)))
    moduli = np.abs(f(*(np.concatenate([grid[k].ravel() for _, _, grid in faces]) for k in range(ndim))))
    est, start = 0.0, 0
    for axis, h, grid in faces:
        others = tuple(k for k in range(ndim) if k != axis)
        size = grid[0].size
        edge, inner = moduli[start:start + size].reshape(grid[0].shape).mean(axis=others).ravel()
        start += size
        est += _tail_estimate(float(edge), float(inner), 0.0, 0.0, h) * math.prod(2.0 * truncations[k] for k in others)
    return est


def integrate_tensor(f, spec: ContourSpec, tol: float,
                     max_nodes_per_axis: int | None = None) -> QuadratureResult:
    """Iterated trapezoid value of an N-dimensional contour integral.

    ``f`` receives one broadcast-ready complex array per axis and must
    evaluate elementwise.  All axes are refined together; per-axis node
    counts saturate at their caps independently.
    """
    ndim = spec.ndim
    if ndim > max(TENSOR_NODE_CAPS):
        raise DimensionTooLarge(
            f"tensor quadrature supports N <= {max(TENSOR_NODE_CAPS)}, got {ndim}")

    def level(nodes, ahead):
        total, abs_mass, evaluations = _tensor_level(f, spec.offsets, spec.truncations, nodes)
        return total, _roundoff_estimate(abs_mass, evaluations), evaluations

    return _refine(level, spec.start_nodes, _node_cap(ndim, max_nodes_per_axis), tol,
                   lambda nodes: _face_tail_estimate(f, spec.offsets, spec.truncations, nodes))


def _convolve(a, b):
    """Full linear convolution of two 1-D arrays and a bound on its FFT roundoff.

    Short inputs go to ``np.convolve`` (bound 0: its error is the summation
    noise the ladder already charges); longer ones to ``numpy.fft`` on a
    power-of-two length, real transforms for real inputs.  The FFT's error
    is spread evenly over the output; the bound charged per element is
    eps * log2(length) * ||a||_2 * ||b||_2, and on the built-in contracts'
    chain terms the error measured against ``np.convolve`` stays below half
    of it.
    """
    size = a.size + b.size - 1
    if min(a.size, b.size) <= _DIRECT_CONVOLVE:
        return np.convolve(a, b), 0.0
    length = 1 << (size - 1).bit_length()
    if np.isrealobj(a) and np.isrealobj(b):
        out = np.fft.irfft(np.fft.rfft(a, length) * np.fft.rfft(b, length), length)
    else:
        out = np.fft.ifft(np.fft.fft(a, length) * np.fft.fft(b, length))
    bound = _EPS * math.log2(length) * float(np.linalg.norm(a) * np.linalg.norm(b))
    return out[:size], bound


def _chain_grid(truncations, nodes):
    """Common step h = min_k 2 L_k / p_k and each axis's reach n_k = ceil(L_k / h).

    The factor 1 - 1e-12 keeps the rounding of h from adding a node to the
    axis that set it.
    """
    h = min(2.0 * ell / p for ell, p in zip(truncations, nodes))
    return h, [math.ceil(ell / h * (1.0 - 1e-12)) for ell in truncations]


def _convolve_rows(rows, b):
    """Full linear convolution of each row of the real 2-D array ``rows`` with the real 1-D ``b``.

    As ``_convolve`` on each row, bit for bit, without its bound: short
    inputs go to ``np.convolve`` row by row, longer ones to one real
    transform of all rows and one of ``b``.
    """
    size = rows.shape[1] + b.size - 1
    if min(rows.shape[1], b.size) <= _DIRECT_CONVOLVE:
        return np.array([np.convolve(row, b) for row in rows])
    length = 1 << (size - 1).bit_length()
    return np.fft.irfft(np.fft.rfft(rows, length) * np.fft.rfft(b, length), length)[:, :size]


def _chain_level(samples, stages, h, bounded):
    """One trapezoid level of a chain-form integrand, as nested 1-D convolutions.

    ``samples`` holds each axis factor at h*m + i*offsets[k], |m| <= n_k, on
    the common step of ``_chain_grid``, then each leg factor at
    h*s + i*(sum of the offsets of its axes and those before), |s| <= the sum
    of their reaches.  Axis k's trapezoid-weighted factor is convolved into
    V, whose index s then stands for the sum of the indices of the axes taken
    so far; after each stage's axes, V is multiplied by that stage's leg
    factor.  Returns sum V, which equals the tensor trapezoid sum
    on the same grid, and, if ``bounded``, the same recursion's sum on
    |factors| (the absolute mass) and each FFT's roundoff bound carried to
    the total; else None twice.  The mass and the carried bounds are the two
    rows of one real recursion (``_convolve_rows``).
    """
    legs = iter(samples[sum(len(axes) for axes, _ in stages):])
    value = np.ones(1, dtype=complex)
    bounds = np.array([[1.0], [0.0]])  # the absolute mass and the carried FFT roundoff
    for axes, leg in stages:
        for k in axes:
            weighted = samples[k] * h
            weighted[0] *= 0.5
            weighted[-1] *= 0.5
            value, bound = _convolve(value, weighted)
            if bounded:
                bounds = _convolve_rows(bounds, np.abs(weighted))
                bounds[1] += bound
        if leg is not None:
            g = next(legs)
            value = value * g
            if bounded:
                bounds = bounds * np.abs(g)
    if not bounded:
        return complex(value.sum()), None, None
    return complex(value.sum()), float(bounds[0].sum()), float(bounds[1].sum())


class _ChainSamples:
    """Each axis and leg factor of a chain-form integrand on a level's grid, evaluated once and kept.

    A chain-form N-fold integrand factors as

        f(*xs) = prod_k factors[k](xs[k]) * prod_t leg_t(sum of xs over S_t),

    where ``stages`` lists (axes, leg_t) pairs and S_t is the union of the
    axes of stages 1..t; a final stage may carry ``leg=None`` for axes no leg
    couples.  ``lines`` holds each factor, the Im of its argument and the
    axes whose reaches sum to its half-width: the axis factors, then the
    stages' leg factors.  ``level(nodes, ahead)`` gives (h, samples, evaluations) of the
    level at ``nodes`` on the common step of ``_chain_grid``, as
    ``_chain_level`` reads them.  When every axis of the second level
    ``ahead`` doubles the first, its step is exactly h / 2 and (h / 2) * 2m
    rounds as h * m: one call of each factor on the second level's grid,
    widened to the first level's reach, holds both levels' samples, the
    first level's at its even entries.  ``evaluations`` counts the samples
    computed, the second level's with the first.  A caller may keep the
    store across ladders on the same contour.
    """

    def __init__(self, factors, stages, offsets, truncations):
        lines = [(fn, b, (k,)) for k, (fn, b) in enumerate(zip(factors, offsets))]
        shift, taken = 0.0, ()
        for axes, leg in stages:
            for k in axes:
                shift += offsets[k]
            taken += tuple(axes)
            if leg is not None:
                lines.append((leg, shift, taken))
        self.lines, self.truncations, self._held = lines, truncations, {}

    def _grid(self, nodes):
        h, reach = _chain_grid(self.truncations, nodes)
        return h, [sum(reach[k] for k in axes) for _, _, axes in self.lines]

    def _sampled(self, h, widths):
        return [_finite(fn(h * np.arange(-n, n + 1) + 1j * b)) for (fn, b, _), n in zip(self.lines, widths)]

    def level(self, nodes, ahead):
        key = tuple(nodes)
        if key not in self._held:
            h, widths = self._grid(nodes)
            if ahead is not None and all(q == 2 * p for p, q in zip(nodes, ahead)):
                fine = self._sampled(h / 2, [2 * n for n in widths])
                h2, widths2 = self._grid(ahead)
                centred = [v[v.size // 2 - n:v.size // 2 + n + 1] for v, n in zip(fine, widths2)]
                self._held[tuple(ahead)] = h2, centred, 0
                self._held[key] = h, [v[::2] for v in fine], sum(v.size for v in fine)
            else:
                samples = self._sampled(h, widths)
                self._held[key] = h, samples, sum(v.size for v in samples)
        return self._held[key]


def _chain_ladder(store, stages, starts, cap, tol, tail, phased) -> QuadratureResult:
    """The chain rule's refinement ladder on the samples of ``store`` (``_ChainSamples``).

    Each level puts every axis on the common step of ``_chain_grid``, so an
    axis's window only grows past its truncation, and costs O(N * P log P)
    instead of the (P + 1)^N points of the tensor rule.  It sums
    ``phased(h, samples)`` in place of the store's own samples (a spot's
    phases, which may be none); ``tail(nodes)`` estimates the mass outside
    the final level's window.  The first level computes no roundoff bound:
    ``_refine`` never reads it.
    """
    def level(nodes, ahead):
        h, samples, evaluations = store.level(nodes, ahead)
        samples = phased(h, samples)
        value, abs_mass, fft_error = _chain_level(samples, stages, h, bounded=ahead is None)
        if ahead is not None:
            return value, None, evaluations
        return value, _roundoff_estimate(abs_mass, sum(vals.size for vals in samples)) + fft_error, evaluations

    return _refine(level, starts, cap, tol, tail)
