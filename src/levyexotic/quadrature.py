"""Error-controlled trapezoid quadrature along horizontal complex contours.

All integrands here are analytic in a neighbourhood of the integration lines
and decay like exp(-c*tau*|x|**order) at the truncation edge, which makes the
uniform trapezoid rule spectrally accurate.  One refinement ladder
(``_refine``) doubles the nodes of every axis up to its cap and serves two
level rules: the line rule of ``integrate_line`` and the tensor rule of
``integrate_tensor``.  The reported (not guaranteed) error estimate is the
difference between the two finest levels plus a truncation-tail estimate and
a float-roundoff floor.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import DimensionTooLarge, NaNEncountered, NonPositiveInput

LINE_NODE_CAP = 2**14
TENSOR_NODE_CAPS = {2: 2**11, 3: 2**9, 4: 2**6}
TRUNCATION_MIN = 1.0
TRUNCATION_MAX = 1.0e4
_SLAB_POINTS = 1 << 21  # grid points held in memory at once


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
        if any(p < 16 or p % 2 for p in self.start_nodes):
            raise ValueError("node counts must be even and at least 16")

    @property
    def ndim(self) -> int:
        return len(self.offsets)


@dataclass
class QuadratureResult:
    value: complex
    error_estimate: float
    evaluations: int
    truncation_used: tuple[float, ...]
    converged: bool = True


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

    def gap(ell: float) -> float:
        return decay_c * tau * ell**order - math.log((1.0 + ell) / tol)

    if gap(TRUNCATION_MIN) >= 0:
        return TRUNCATION_MIN
    if gap(TRUNCATION_MAX) <= 0:
        return TRUNCATION_MAX
    return float(brentq(gap, TRUNCATION_MIN, TRUNCATION_MAX, xtol=1e-9, rtol=1e-12))


def _roundoff_estimate(abs_mass: float, n_terms: int) -> float:
    """Accumulated float noise of a large cancelling sum: eps * log2(n) * sum|f|."""
    return np.finfo(float).eps * (math.log2(max(n_terms, 2)) + 4.0) * abs_mass


def _tail_estimate(abs_lo: float, abs_next_lo: float, abs_hi: float, abs_next_hi: float, h: float) -> float:
    """Geometric extrapolation of the neglected tails from the edge samples."""
    est = 0.0
    for edge, inner in ((abs_lo, abs_next_lo), (abs_hi, abs_next_hi)):
        if edge == 0.0:
            continue
        ratio = edge / inner if inner > 0 else 1.0
        est += edge * h * (100.0 if ratio >= 0.99 else 1.0 / (1.0 - ratio))
    return est


def _refine(level, starts, cap, tol, tail, truncations) -> QuadratureResult:
    """The refinement ladder behind both the line and the tensor rule.

    ``level(nodes)`` evaluates one trapezoid level at per-axis node counts
    ``nodes`` and returns (value, sum of |weighted samples|, evaluations);
    ``tail(nodes)`` estimates the mass outside the truncation box at the
    final nodes.  Each axis starts at its even start count (at least 16, at
    most ``cap``) and doubles until two successive levels agree to ``tol`` or
    every axis sits at ``cap``, in which case the best value is returned with
    ``converged=False``.
    """
    nodes = [min(max(16, p + p % 2), cap) for p in map(int, starts)]
    value = None
    err = math.inf
    evaluations = 0
    converged = False
    while True:
        level_value, abs_mass, level_evals = level(nodes)
        evaluations += level_evals
        prev, value = value, level_value
        roundoff = _roundoff_estimate(abs_mass, level_evals)
        if prev is not None:
            err = abs(value - prev)
            # Below the float-cancellation floor further refinement is noise.
            if err <= max(tol, 2.0 * roundoff):
                converged = True
                break
        if all(p >= cap for p in nodes):
            break
        nodes = [min(p * 2, cap) for p in nodes]

    return QuadratureResult(
        value=value,
        error_estimate=(err if math.isfinite(err) else 0.0) + tail(nodes) + roundoff,
        evaluations=evaluations,
        truncation_used=tuple(truncations),
        converged=converged,
    )


def integrate_line(f, offset: float, truncation: float, tol: float,
                   start_nodes: int = 64, max_nodes: int = LINE_NODE_CAP) -> QuadratureResult:
    """Trapezoid value of the contour integral of f over Im(xi) = offset.

    ``f`` must accept a complex ndarray and evaluate elementwise.  Nodes are
    doubled until two successive refinements agree to ``tol`` (absolute, on
    the raw integral) or ``max_nodes`` is reached, in which case the best
    value is returned with ``converged=False``.
    """
    if offset == 0.0:
        raise ValueError("contour offset must avoid the pole on the real axis")
    if truncation <= 0 or tol < 0:
        raise NonPositiveInput("truncation must be positive and tol nonnegative")
    edges = []  # |f| at the last level's two outermost nodes on each side

    def level(nodes):
        (p,) = nodes
        x = np.linspace(-truncation, truncation, p + 1)
        vals = f(x + 1j * offset)
        if not np.all(np.isfinite(vals)):
            raise NaNEncountered("integrand returned a non-finite value")
        h = 2.0 * truncation / p
        total = vals.sum() - 0.5 * (vals[0] + vals[-1])
        edges[:] = abs(vals[0]), abs(vals[1]), abs(vals[-1]), abs(vals[-2])
        return complex(total * h), float(np.abs(vals).sum()) * h, p + 1

    return _refine(level, (start_nodes,), max_nodes, tol,
                   lambda nodes: _tail_estimate(*edges, 2.0 * truncation / nodes[0]), (truncation,))


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
        vals = f(arg0, *inner_args)
        if not np.all(np.isfinite(vals)):
            raise NaNEncountered("integrand returned a non-finite value")
        evaluations += vals.size
        w0 = reshaped(weights[0][lo:hi], 0)
        weighted = vals * inner_weight * w0
        total += complex(weighted.sum())
        abs_mass += float(np.abs(weighted).sum())
    return total, abs_mass, evaluations


def _face_tail_estimate(f, offsets, truncations, nodes):
    """Order-of-magnitude estimate of the mass outside the truncation box."""
    ndim = len(offsets)
    coarse = [np.linspace(-ell, ell, 9) + 1j * b for b, ell in zip(offsets, truncations)]
    est = 0.0
    for axis in range(ndim):
        h = 2.0 * truncations[axis] / nodes[axis]
        for sign in (-1.0, 1.0):
            args = []
            for k in range(ndim):
                shape = [1] * ndim
                if k == axis:
                    vals = np.array([sign * truncations[axis] + 1j * offsets[axis]])
                else:
                    vals = coarse[k]
                shape[k] = vals.shape[0]
                args.append(vals.reshape(shape))
            face = np.abs(f(*args))
            measure = math.prod(2.0 * truncations[k] for k in range(ndim) if k != axis)
            est += float(face.mean()) * measure * h
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
    return _refine(lambda nodes: _tensor_level(f, spec.offsets, spec.truncations, nodes),
                   spec.start_nodes, _node_cap(ndim, max_nodes_per_axis), tol,
                   lambda nodes: _face_tail_estimate(f, spec.offsets, spec.truncations, nodes),
                   spec.truncations)
