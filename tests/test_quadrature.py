import math

import numpy as np
import pytest
from scipy.special import log_ndtr, ndtr

from levyexotic import (
    AsianContinuous,
    AsianGeometric,
    BarrierDownOutCall,
    Chooser,
    Digital,
    ForwardStart,
    LookbackFixed,
    MonitoringSchedule,
    PayoffParameterSet,
    digitals,
    make_cgmy,
    make_gaussian,
    make_nig,
    mc,
    price_contract,
    to_portfolio,
)
from levyexotic import quadrature as cq
from levyexotic.errors import DimensionTooLarge, NaNEncountered, NonPositiveInput
from levyexotic.quadrature import (
    ContourSpec,
    integrate_line,
    integrate_tensor,
    truncation_radius,
)


def bisect_truncation(decay_c, order, tau, tol):
    """Independent bisection on exp(-c tau L^order) = tol / (1 + L)."""
    def gap(ell):
        return decay_c * tau * ell**order - math.log((1 + ell) / tol)

    lo, hi = 1.0, 1e4
    if gap(lo) >= 0:
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestTruncationRadius:
    def test_matches_bisection_oracle(self):
        expected = bisect_truncation(0.02, 2.0, 1.0, 1e-10)
        assert truncation_radius(0.02, 2.0, 1.0, 1e-10) == pytest.approx(expected, abs=1e-6)

    def test_loose_tolerance_hits_lower_clamp(self):
        assert truncation_radius(0.02, 2.0, 1.0, 1.0) == 1.0

    def test_monotone_in_tau(self):
        base = truncation_radius(0.02, 2.0, 1.0, 1e-10)
        doubled = truncation_radius(0.02, 2.0, 2.0, 1e-10)
        assert doubled < base

    def test_monotone_in_tol(self):
        tight = truncation_radius(0.1, 1.0, 1.0, 1e-12)
        loose = truncation_radius(0.1, 1.0, 1.0, 1e-6)
        assert loose < tight

    @pytest.mark.parametrize("bad", [
        dict(decay_c=0.0, order=1.0, tau=1.0, tol=1e-8),
        dict(decay_c=1.0, order=1.0, tau=-1.0, tol=1e-8),
        dict(decay_c=1.0, order=1.0, tau=1.0, tol=0.0),
        dict(decay_c=1.0, order=3.0, tau=1.0, tol=1e-8),
    ])
    def test_rejects_bad_inputs(self, bad):
        with pytest.raises(NonPositiveInput):
            truncation_radius(**bad)


def gaussian_pole_integrand(d):
    return lambda xi: np.exp(1j * xi * d - 0.5 * xi * xi) / xi


def horizontal(b):
    """The horizontal line xi(y) = y + i b as an ``integrate_line`` contour."""
    return (lambda y: y + 1j * b, lambda y: 1.0)


class TestLine:
    def test_centered_digital_value(self):
        # at d = 0 the integral is 2*pi*i*Phi(0) = pi*i
        res = integrate_line(gaussian_pole_integrand(0.0), horizontal(-1.0), 40.0, 1e-12)
        assert res.value == pytest.approx(math.pi * 1j, abs=1e-10)
        assert res.converged

    def test_shifted_digital_value(self):
        res = integrate_line(gaussian_pole_integrand(1.0), horizontal(-1.0), 40.0, 1e-12)
        assert res.value == pytest.approx(2j * math.pi * ndtr(1.0), abs=1e-10)

    def test_upper_contour_flips_sign(self):
        res = integrate_line(gaussian_pole_integrand(1.0), horizontal(1.0), 40.0, 1e-12)
        assert res.value == pytest.approx(-2j * math.pi * ndtr(-1.0), abs=1e-10)

    def test_refinement_errors_shrink(self):
        exact = 2j * math.pi * ndtr(1.0)
        errors = []
        for nodes in (32, 64, 128):
            res = integrate_line(gaussian_pole_integrand(1.0), horizontal(-1.0), 40.0, 0.0,
                                 start_nodes=nodes, max_nodes=nodes)
            errors.append(abs(res.value - exact))
        assert errors[1] < errors[0]
        assert errors[2] < errors[1]

    def test_contour_shift_within_error_budget(self):
        res_a = integrate_line(gaussian_pole_integrand(0.7), horizontal(-0.5), 40.0, 1e-11)
        res_b = integrate_line(gaussian_pole_integrand(0.7), horizontal(-2.0), 40.0, 1e-11)
        gap = abs(res_a.value - res_b.value)
        assert gap <= 10.0 * (res_a.error_estimate + res_b.error_estimate)

    def test_deterministic(self):
        a = integrate_line(gaussian_pole_integrand(0.3), horizontal(-1.0), 40.0, 1e-12)
        b = integrate_line(gaussian_pole_integrand(0.3), horizontal(-1.0), 40.0, 1e-12)
        assert a.value == b.value  # bit identical

    def test_nan_detection(self):
        def broken(xi):
            out = np.asarray(1.0 / xi, dtype=complex).copy()
            out[out.size // 3] = np.nan
            return out

        with pytest.raises(NaNEncountered):
            integrate_line(broken, horizontal(-1.0), 10.0, 1e-8)


def sampling_strip(log_f, d, offset, truncation, tol, start_nodes):
    """The strip rule as it was before it read a sample store: every ladder evaluates its own samples.

    The reference of ``_integrate_strip``, whose arithmetic the store must not change.  It calls
    ``log_f`` once per level, so it also stands for the strip rule before its first level took the
    second level's new nodes in the same call.
    """
    d = np.asarray(d, dtype=float)
    centre = float(log_f(np.array([1j * offset]))[0].real)
    moduli = np.exp(centre - d * offset)
    edges = []
    sums = last = mass = None

    def phased(x, vals):
        out = np.empty(d.size, dtype=complex)
        rows = max(1, cq._STRIP_PRODUCTS // x.size)
        for lo in range(0, d.size, rows):
            out[lo:lo + rows] = np.exp(1j * np.multiply.outer(d[lo:lo + rows], x)) @ vals
        return out

    def level(nodes, ahead):
        nonlocal sums, last, mass
        (p,) = nodes
        h = 2.0 * truncation / p
        if last is not None and 2 * last == p:
            x = -truncation + h * np.arange(1, p, 2)
            new = cq._finite(np.exp(log_f(x + 1j * offset) - centre))
            sums = sums + phased(x, new)
            mass += float(np.abs(new).sum())
            edges[1], edges[3] = abs(new[0]), abs(new[-1])
        else:
            x = np.linspace(-truncation, truncation, p + 1)
            new = cq._finite(np.exp(log_f(x + 1j * offset) - centre))
            sums = phased(x, new) - 0.5 * phased(x[[0, -1]], new[[0, -1]])
            mass = float(np.abs(new).sum())
            edges[:] = abs(new[0]), abs(new[1]), abs(new[-1]), abs(new[-2])
        last = p
        return h * moduli * sums, moduli * cq._roundoff_estimate(mass * h, p + 1), new.size

    return cq._refine(level, (start_nodes,), cq.LINE_NODE_CAP, tol,
                      lambda nodes: moduli * cq._tail_estimate(*edges, 2.0 * truncation / nodes[0]))


class TestStrip:
    # integrate_line on each phased integrand is the oracle of the strip rule
    D = np.array([-2.0, -0.5, 0.0, 1.0, 3.0])

    @staticmethod
    def log_gaussian_pole(xi):
        return -0.5 * xi * xi - np.log(xi)

    def test_each_entry_matches_its_line_rule(self):
        res = cq._integrate_strip(cq._Samples(self.log_gaussian_pole, -1.0, 40.0), self.D,
                                  np.full(self.D.size, 1e-12), 64)
        assert res.converged.all()
        assert res.value.shape == res.error_estimate.shape == self.D.shape
        for k, d in enumerate(self.D):
            line = integrate_line(gaussian_pole_integrand(d), horizontal(-1.0), 40.0, 1e-12)
            assert abs(res.value[k] - line.value) <= line.error_estimate + res.error_estimate[k]
            assert res.value[k] == pytest.approx(2j * math.pi * ndtr(d), abs=1e-10)

    def test_stops_once_every_entry_meets_its_own_tolerance(self):
        f = self.log_gaussian_pole
        loose = cq._integrate_strip(cq._Samples(f, -1.0, 40.0), [0.0, 1.0], np.array([1e-2, 1e-2]), 16)
        mixed = cq._integrate_strip(cq._Samples(f, -1.0, 40.0), [0.0, 1.0], np.array([1e-2, 1e-13]), 16)
        assert loose.converged.all() and mixed.converged.all()
        assert mixed.evaluations > loose.evaluations
        assert mixed.value[1] == pytest.approx(2j * math.pi * ndtr(1.0), abs=1e-11)

    def test_huge_spot_free_factor_does_not_overflow(self):
        # exp(log_f) is about e^3009 at the centre; the phase's modulus e^-2025 cancels it
        d = np.array([-45.0, -46.0])
        res = cq._integrate_strip(cq._Samples(lambda xi: self.log_gaussian_pole(xi) + 1000.0, -45.0, 40.0), d,
                                  np.full(2, 1e-300), 64)
        assert res.converged.all()
        expected = 2j * math.pi * np.exp(1000.0 + log_ndtr(d))
        assert res.value == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("offset, truncation, start", [(-1.0, 40.0, 64), (0.7, 12.0, 16), (-45.0, 40.0, 64)])
    def test_store_keeps_the_sampling_arithmetic(self, offset, truncation, start):
        # a fresh store gives the strip rule's values bit for bit as it was before the store
        def log_f(xi):
            return self.log_gaussian_pole(xi) + (1000.0 if offset == -45.0 else 0.0)

        d = np.array([-46.0, -45.0]) if offset == -45.0 else self.D
        tol = np.full(d.size, 1e-300 if offset == -45.0 else 1e-12)
        res = cq._integrate_strip(cq._Samples(log_f, offset, truncation), d, tol, start)
        assert repr(res) == repr(sampling_strip(log_f, d, offset, truncation, tol, start))

    @pytest.mark.parametrize("model", [make_gaussian(0.2, 0.05), make_nig(8.0, -2.0, 0.3, 0.05)],
                             ids=["gaussian", "nig"])
    def test_mc_inner_curve_keeps_the_sampling_arithmetic(self, monkeypatch, model):
        # the Monte Carlo compound's inner curve (two spot strips) is bit for bit
        # the curve that the strip rule gave before it read a sample store
        curve = mc._vanilla_curve(model, 0.5, (1.0, 100.0, 1), math.log(40.0), math.log(250.0))
        monkeypatch.setattr(cq, "_integrate_strip", lambda samples, d, tol, start: sampling_strip(
            samples.log_f, d, samples.offset, samples.truncation, tol, start))
        reference = mc._vanilla_curve(model, 0.5, (1.0, 100.0, 1), math.log(40.0), math.log(250.0))
        assert curve.c.tobytes() == reference.c.tobytes()

    def test_kept_samples_price_as_a_fresh_ladder(self):
        # entries that need fewer, the same or more levels than the store holds:
        # each is repr-identical to a ladder on a fresh store, and every level
        # is sampled once, so a repeated entry samples nothing
        points = []

        def log_f(xi):
            points.append(np.size(xi))
            return self.log_gaussian_pole(xi)

        kept = cq._Samples(log_f, -1.0, 40.0)
        for repeat, d, tol in [(0, 0.0, 1e-6), (0, 3.0, 1e-12), (0, -2.0, 1e-9), (1, 3.0, 1e-12), (0, 6.0, 1e-13)]:
            before = len(points)
            res = cq._integrate_strip(kept, [d], np.array([tol]), 32)
            fresh = cq._integrate_strip(cq._Samples(self.log_gaussian_pole, -1.0, 40.0), [d], np.array([tol]), 32)
            assert repr(res) == repr(fresh)
            assert len(points) == before or not repeat
        assert sum(points) == 1 + sum(x.size for x, _ in kept._held.values())

    def test_convergence_is_reported_per_entry(self):
        # entry 0 settles at once; entry 1 changes at every level up to the cap
        res = cq._refine(lambda nodes, ahead: (np.array([1.0, float(nodes[0])]), np.zeros(2), 1),
                         (16,), 64, np.array([1e-3, 1e-3]), lambda nodes: 0.0)
        assert res.converged.tolist() == [True, False]


def lemma1_tensor_integrand(corr):
    corr = np.asarray(corr, dtype=float)
    n = corr.shape[0]

    def f(*xs):
        phase = 0.0
        for k in range(n):
            for j in range(n):
                if corr[k, j] != 0.0:
                    phase = phase - 0.5 * corr[k, j] * xs[k] * xs[j]
        denom = xs[0]
        for k in range(1, n):
            denom = denom * xs[k]
        return np.exp(phase) / denom

    return f


class TestTensor:
    def test_independent_two_dim(self):
        spec = ContourSpec((-1.0, -1.0), (8.0, 8.0), (32, 32))
        res = integrate_tensor(lemma1_tensor_integrand(np.eye(2)), spec, 1e-10)
        value = res.value / (2j * math.pi) ** 2
        assert value.real == pytest.approx(0.25, abs=1e-8)

    def test_correlated_two_dim(self):
        corr = np.array([[1.0, 0.5], [0.5, 1.0]])
        spec = ContourSpec((-1.0, -1.0), (8.0, 8.0), (32, 32))
        res = integrate_tensor(lemma1_tensor_integrand(corr), spec, 1e-10)
        value = res.value / (2j * math.pi) ** 2
        # joint orthant mass of a standard bivariate with rho = 0.5
        assert value.real == pytest.approx(1.0 / 3.0, abs=1e-8)

    def test_three_dim(self):
        spec = ContourSpec((-1.0,) * 3, (8.0,) * 3, (32,) * 3)
        res = integrate_tensor(lemma1_tensor_integrand(np.eye(3)), spec, 1e-9)
        value = res.value / (2j * math.pi) ** 3
        assert value.real == pytest.approx(0.125, abs=1e-7)

    def test_deterministic(self):
        corr = np.array([[1.0, 0.3], [0.3, 1.0]])
        spec = ContourSpec((-0.7, -1.3), (8.0, 8.0), (32, 32))
        a = integrate_tensor(lemma1_tensor_integrand(corr), spec, 1e-9)
        b = integrate_tensor(lemma1_tensor_integrand(corr), spec, 1e-9)
        assert a.value == b.value

    def test_dimension_cap(self):
        spec = ContourSpec((-1.0,) * 5, (8.0,) * 5, (16,) * 5)
        with pytest.raises(DimensionTooLarge):
            integrate_tensor(lemma1_tensor_integrand(np.eye(5)), spec, 1e-6)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ContourSpec((0.0, -1.0), (8.0, 8.0), (32, 32))
        with pytest.raises(NonPositiveInput):
            ContourSpec((-1.0, -1.0), (8.0, -1.0), (32, 32))
        with pytest.raises(ValueError):
            ContourSpec((-1.0, -1.0), (8.0, 8.0), (31, 32))


def ladder(ndim, start, cap):
    """Run the shared ladder through its line (N = 1) or tensor (N >= 2) entry point."""
    if ndim == 1:
        return integrate_line(gaussian_pole_integrand(0.5), horizontal(-1.0), 8.0, 0.0,
                              start_nodes=start, max_nodes=cap)
    spec = ContourSpec((-1.0,) * ndim, (8.0,) * ndim, (start,) * ndim)
    return integrate_tensor(lemma1_tensor_integrand(np.eye(ndim)), spec, 0.0,
                            max_nodes_per_axis=cap)


class TestLadder:
    @pytest.mark.parametrize("ndim", [1, 2])
    def test_single_level_at_the_cap(self, ndim):
        p = 32
        res = ladder(ndim, p, p)
        assert res.converged is False
        # A ladder that starts at its cap runs a first level at p / 2 nodes; the
        # line rule reuses its samples, the tensor rule evaluates both grids.
        if ndim == 1:
            assert res.evaluations == p + 1
        else:
            assert res.evaluations == (p // 2 + 1) ** 2 + (p + 1) ** 2
        assert math.isfinite(res.error_estimate)
        assert ladder(ndim, 4 * p, p) == res  # a start above the cap is clamped to it

    @pytest.mark.parametrize("cap", [16, 18, 28])
    @pytest.mark.parametrize("ndim", [1, 2])
    def test_capped_start_needs_room_for_its_half_level(self, ndim, cap):
        # its half level would run below 16 nodes
        with pytest.raises(ValueError, match="below the floor of 16"):
            ladder(ndim, cap, cap)

    @staticmethod
    def full_line_ladder(f, offset, truncation, tol, start_nodes, max_nodes):
        """``integrate_line`` with every level evaluated at all of its nodes."""
        edges, sizes = [], []

        def level(nodes, ahead):
            (p,) = nodes
            vals = f(np.linspace(-truncation, truncation, p + 1) + 1j * offset)
            h = 2.0 * truncation / p
            edges[:] = abs(vals[0]), abs(vals[1]), abs(vals[-1]), abs(vals[-2])
            sizes.append(p + 1)
            total = complex((vals.sum() - 0.5 * (vals[0] + vals[-1])) * h)
            return total, cq._roundoff_estimate(float(np.abs(vals).sum()) * h, p + 1), p + 1

        res = cq._refine(level, (start_nodes,), max_nodes, tol,
                         lambda nodes: cq._tail_estimate(*edges, 2.0 * truncation / nodes[0]))
        return res, sizes

    @pytest.mark.parametrize("tol,start,cap", [
        (1e-10, 16, 2**14),  # converges
        (0.0, 16, 256),  # stalls at the cap
        (0.0, 64, 64),  # starts at the cap
        (0.0, 32, 48),  # non-doubling final step
    ])
    def test_line_levels_reuse_samples(self, tol, start, cap):
        f = gaussian_pole_integrand(0.5)
        calls = []

        def recorded(xi):
            calls.append(xi.copy())
            return f(xi)

        res = integrate_line(recorded, horizontal(-1.0), 8.0, tol, start_nodes=start, max_nodes=cap)
        ref, sizes = self.full_line_ladder(f, -1.0, 8.0, tol, start, cap)
        for field in ("value", "error_estimate", "converged"):
            assert getattr(res, field) == getattr(ref, field)  # bit-equal
        if sizes[1] - 1 == 2 * (sizes[0] - 1):
            assert len(calls) == len(sizes) - 1  # one call of f for the first two levels
            assert calls[0].size == sizes[1]
        else:
            assert len(calls) == len(sizes)  # one call of f per level
        points = np.concatenate(calls)
        if sizes[-1] - 1 == 2 * (sizes[-2] - 1):
            assert np.unique(points).size == points.size  # no point is evaluated twice
            assert res.evaluations == sizes[-1]
        else:
            assert calls[-1].size == sizes[-1]  # a non-doubling level is evaluated in full
            assert res.evaluations == sizes[-2] + sizes[-1]


# --- the first two levels in one integrand call -------------------------------


def line_oracle(f, contour, truncation, tol, start_nodes=64, max_nodes=cq.LINE_NODE_CAP):
    """``integrate_line`` with one call of ``f`` per level.

    The line rule as it was before its first level took the second level's
    new nodes: the reference whose values, errors, convergence and
    evaluations the one-call ladder must keep.
    """
    point, slope = contour

    def sample(y):
        return f(point(y)) * slope(y)

    edges = []
    samples = None

    def level(nodes, ahead):
        nonlocal samples
        (p,) = nodes
        h = 2.0 * truncation / p
        if samples is not None and 2 * (samples.size - 1) == p:
            new = cq._finite(sample(-truncation + h * np.arange(1, p, 2)))
            vals = np.empty(p + 1, dtype=np.result_type(samples, new))
            vals[0::2] = samples
            vals[1::2] = new
        else:
            new = vals = cq._finite(sample(np.linspace(-truncation, truncation, p + 1)))
        samples = vals
        total = vals.sum() - 0.5 * (vals[0] + vals[-1])
        edges[:] = abs(vals[0]), abs(vals[1]), abs(vals[-1]), abs(vals[-2])
        return complex(total * h), cq._roundoff_estimate(float(np.abs(vals).sum()) * h, p + 1), new.size

    return cq._refine(level, (start_nodes,), max_nodes, tol,
                      lambda nodes: cq._tail_estimate(*edges, 2.0 * truncation / nodes[0]))


def strip_oracle(samples, d, tol, start_nodes):
    """``_integrate_strip`` with one call of ``log_f`` per level: ``sampling_strip`` on the store's line."""
    return sampling_strip(samples.log_f, d, samples.offset, samples.truncation, tol, start_nodes)


def chain_oracle(store, stages, starts, cap, tol, tail, phased):
    """``_chain_ladder`` with every factor of ``store`` sampled and the roundoff bound carried at every level.

    The chain rule as it was before its first level took the second level's
    samples and dropped its unread roundoff bound.  It reads the store's
    factors, offsets and truncations, never its samples.
    """
    n = sum(len(axes) for axes, _ in stages)
    factors, offsets = [fn for fn, _, _ in store.lines[:n]], [b for _, b, _ in store.lines[:n]]

    def level(nodes, ahead):
        h, reach = cq._chain_grid(store.truncations, nodes)
        samples = [cq._finite(fn(h * np.arange(-r, r + 1) + 1j * b)) for fn, b, r in zip(factors, offsets, reach)]
        width, shift = 0, 0.0
        for axes, leg in stages:
            for k in axes:
                width += reach[k]
                shift += offsets[k]
            if leg is not None:
                samples.append(cq._finite(leg(h * np.arange(-width, width + 1) + 1j * shift)))
        evaluations = sum(vals.size for vals in samples)
        samples = phased(h, samples)
        weighted = []
        for vals in samples[:n]:
            vals = vals * h
            vals[0] *= 0.5
            vals[-1] *= 0.5
            weighted.append(vals)
        legs = iter(samples[n:])
        value, mass, fft_error = np.ones(1, dtype=complex), np.ones(1), np.zeros(1)
        for axes, leg in stages:
            for k in axes:
                value, bound = cq._convolve(value, weighted[k])
                abs_k = np.abs(weighted[k])
                mass = cq._convolve(mass, abs_k)[0]
                fft_error = cq._convolve(fft_error, abs_k)[0] + bound
            if leg is not None:
                g = next(legs)
                value = value * g
                mass = mass * np.abs(g)
                fft_error = fft_error * np.abs(g)
        roundoff = cq._roundoff_estimate(float(mass.sum()), evaluations) + float(fft_error.sum())
        return complex(value.sum()), roundoff, evaluations

    return cq._refine(level, starts, cap, tol, tail)


def fresh_store(store, stages, factors=None):
    """A new ``_ChainSamples`` store on the contour of ``store``, with its axis factors or ``factors``."""
    n = sum(len(axes) for axes, _ in stages)
    factors = factors or [fn for fn, _, _ in store.lines[:n]]
    return cq._ChainSamples(factors, stages, [b for _, b, _ in store.lines[:n]], store.truncations)


GAUSS = make_gaussian(0.2, 0.05)
NIG = make_nig(8.0, -2.0, 0.3, 0.05)
MODELS = {"gaussian": GAUSS, "nig": NIG, "cgmy05": make_cgmy(1.0, 5.0, 5.0, 0.5, 0.05),
          "cgmy15": make_cgmy(1.0, 5.0, 5.0, 1.5, 0.05)}
SPOT = 100.0
SCHED2 = MonitoringSchedule(0.0, (0.5, 1.0))
SCHED3 = MonitoringSchedule(0.0, (1.0 / 3.0, 2.0 / 3.0, 1.0))
# the multidate-exotics workload's contracts: 18 terms with N >= 2
MULTIDATE = (Chooser(0.5, 1.0, 100.0), BarrierDownOutCall(SCHED2, 90.0, 100.0), LookbackFixed(SCHED2, 100.0),
             BarrierDownOutCall(SCHED3, 90.0, 100.0), LookbackFixed(SCHED3, 100.0))


def vanilla_book():
    """The vanilla-book workload's contracts: one-date digitals, forward starts and Asians, all N = 1."""
    s1 = MonitoringSchedule(0.0, (1.0,))
    s4 = MonitoringSchedule(0.0, (0.25, 0.5, 0.75, 1.0))
    s12 = MonitoringSchedule(0.0, tuple((k + 1) / 12 for k in range(12)))
    book = [Digital(s1, PayoffParameterSet((gamma,), (math.log(80.0 + 5.0 * i),), (w,), ((1.0,),)))
            for gamma in (0.0, 1.0) for i in range(9) for w in (1, -1)]
    book += [ForwardStart(0.5, 1.0, w) for w in (1, -1)]
    for K in (90.0, 95.0, 100.0, 105.0, 110.0):
        for w in (1, -1):
            book += [AsianGeometric(s4, K, w), AsianGeometric(s12, K, w), AsianContinuous(0.0, 1.0, K, w)]
    return book


def assert_same_ladder(res, ref, same_evaluations):
    """Value, error and convergence bit for bit; evaluations equal, or for the chain rule never more."""
    for field in ("value", "error_estimate", "converged"):
        a, b = np.asarray(getattr(res, field)), np.asarray(getattr(ref, field))
        assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), field
    if same_evaluations:
        assert res.evaluations == ref.evaluations
    else:
        assert res.evaluations <= ref.evaluations


def checked(monkeypatch, name, oracle):
    """Route every call of ``quadrature.<name>`` through it and ``oracle`` alike; returns the (result, oracle) pairs."""
    rule = getattr(cq, name)
    pairs = []

    def both(*args, **kwargs):
        res, ref = rule(*args, **kwargs), oracle(*args, **kwargs)
        assert_same_ladder(res, ref, name != "_chain_ladder")
        pairs.append((res, ref))
        return res

    monkeypatch.setattr(cq, name, both)
    return pairs


def chain_args(contract, model, ndim):
    """The arguments of the first chain ladder of ``contract`` with ``ndim`` axes, on a fresh store.

    They are (store, stages, starts, cap, raw tol, tail, phased); the store
    holds none of the ladder's samples.
    """
    captured = []
    rule = cq._chain_ladder
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cq, "_chain_ladder", lambda *args: captured.append(args) or rule(*args))
        price_contract(contract, model, SPOT)
    store, stages, *rest = next(args for args in captured if len(args[2]) == ndim)
    return (fresh_store(store, stages), stages, *rest)


class TestFirstTwoLevelsInOneCall:
    @pytest.mark.parametrize("model", list(MODELS))
    def test_vanilla_book_terms(self, monkeypatch, model):
        lines = checked(monkeypatch, "integrate_line", line_oracle)
        strips = checked(monkeypatch, "_integrate_strip", strip_oracle)
        book = vanilla_book()
        for c in book:
            price_contract(c, MODELS[model], SPOT)
        assert len(lines) >= len(book)
        terms = {(sched, p) for c in book if not isinstance(c, AsianContinuous)
                 for _, sched, p in to_portfolio(c, MODELS[model], tol=1e-8).terms if p.n == 1}
        for sched, p in terms:  # each N = 1 term as a strip of two spots
            digitals._price_core(MODELS[model], sched, p, [SPOT, 1.25 * SPOT])
        assert len(strips) >= len(terms)

    @pytest.mark.parametrize("model", list(MODELS))
    def test_multidate_exotics_terms(self, monkeypatch, model):
        chains = checked(monkeypatch, "_chain_ladder", chain_oracle)
        lines = checked(monkeypatch, "integrate_line", line_oracle)
        for c in MULTIDATE:
            price_contract(c, MODELS[model], SPOT)
        assert len(chains) == 18 and lines
        # every chain ladder starts below its cap, so its first two levels take one call
        assert all(res.evaluations < ref.evaluations for res, ref in chains)

    @pytest.mark.parametrize("contract", [MULTIDATE[0], MULTIDATE[4], vanilla_book()[0], vanilla_book()[-1]],
                             ids=["chooser", "lookback-3date", "digital", "asian-continuous"])
    def test_fixed_nodes(self, monkeypatch, contract):
        # a fixed_nodes ladder starts at its cap: a half level, then the cap
        chains = checked(monkeypatch, "_chain_ladder", chain_oracle)
        lines = checked(monkeypatch, "integrate_line", line_oracle)
        price_contract(contract, NIG, SPOT, fixed_nodes=64)
        assert chains or lines

    @pytest.mark.parametrize("start, cap", [(64, 64), (32, 48), (16, 2**14)],
                             ids=["start-at-cap", "non-doubling-final-step", "converges"])
    def test_line_starts_and_caps(self, start, cap):
        for tol in (0.0, 1e-10):
            res = integrate_line(gaussian_pole_integrand(0.5), horizontal(-1.0), 8.0, tol, start_nodes=start, max_nodes=cap)
            ref = line_oracle(gaussian_pole_integrand(0.5), horizontal(-1.0), 8.0, tol, start_nodes=start, max_nodes=cap)
            assert_same_ladder(res, ref, True)

    @pytest.mark.parametrize("start", [cq.LINE_NODE_CAP, 48, 64], ids=["start-at-cap", "non-doubling-final-step", "doubling"])
    def test_strip_starts(self, start):
        d = TestStrip.D
        for tol in (0.0, 1e-12):
            res = cq._integrate_strip(cq._Samples(TestStrip.log_gaussian_pole, -1.0, 40.0), d, np.full(d.size, tol), start)
            ref = sampling_strip(TestStrip.log_gaussian_pole, d, -1.0, 40.0, np.full(d.size, tol), start)
            assert_same_ladder(res, ref, True)

    @pytest.mark.parametrize("starts, cap, doubled", [
        ((64, 64, 64), 64, True),  # levels 32 and 64
        ((32, 32, 32), 48, False),  # levels 32 and 48
        ((64, 32, 32), 64, False),  # axis 0 stays at the cap
    ], ids=["start-at-cap", "non-doubling-final-step", "one-axis-at-cap"])
    def test_chain_starts_and_caps(self, starts, cap, doubled):
        store, stages, _, _, tol, tail, phased = chain_args(MULTIDATE[4], NIG, 3)
        res = cq._chain_ladder(store, stages, starts, cap, tol, tail, phased)
        ref = chain_oracle(store, stages, starts, cap, tol, tail, phased)
        assert_same_ladder(res, ref, False)
        # only a first level that every axis doubles takes the second level's samples
        assert (res.evaluations < ref.evaluations) == doubled

    def test_nan_at_a_second_level_node_raises(self):
        # y = -7.5 is the first node that 32 nodes on [-8, 8] add to 16
        def line_f(xi):
            return np.where(xi.real == -7.5, np.nan, gaussian_pole_integrand(0.5)(xi))

        def log_f(xi):
            return np.where(xi.real == -7.5, np.nan, TestStrip.log_gaussian_pole(xi))

        for rule in (integrate_line, line_oracle):
            with pytest.raises(NaNEncountered):
                rule(line_f, horizontal(-1.0), 8.0, 1e-10, start_nodes=16)
        for strip in (lambda: cq._integrate_strip(cq._Samples(log_f, -1.0, 8.0), [0.5], np.array([1e-10]), 16),
                      lambda: sampling_strip(log_f, [0.5], -1.0, 8.0, np.array([1e-10]), 16)):
            with pytest.raises(NaNEncountered):
                strip()
        store, stages, starts, cap, tol, tail, phased = chain_args(MULTIDATE[0], GAUSS, 2)
        factors = [fn for fn, _, _ in store.lines[:2]]
        half_step = 0.5 * cq._chain_grid(store.truncations, starts)[0]
        broken = [lambda x: np.where(x.real == half_step, np.nan, factors[0](x))] + list(factors[1:])
        for rule in (cq._chain_ladder, chain_oracle):
            with pytest.raises(NaNEncountered):
                rule(fresh_store(store, stages, broken), stages, starts, cap, tol, tail, phased)
