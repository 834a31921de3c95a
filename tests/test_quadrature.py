import math

import numpy as np
import pytest
from scipy.special import ndtr

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


class TestLine:
    def test_centered_digital_value(self):
        # at d = 0 the integral is 2*pi*i*Phi(0) = pi*i
        res = integrate_line(gaussian_pole_integrand(0.0), -1.0, 40.0, 1e-12)
        assert res.value == pytest.approx(math.pi * 1j, abs=1e-10)
        assert res.converged

    def test_shifted_digital_value(self):
        res = integrate_line(gaussian_pole_integrand(1.0), -1.0, 40.0, 1e-12)
        assert res.value == pytest.approx(2j * math.pi * ndtr(1.0), abs=1e-10)

    def test_upper_contour_flips_sign(self):
        res = integrate_line(gaussian_pole_integrand(1.0), 1.0, 40.0, 1e-12)
        assert res.value == pytest.approx(-2j * math.pi * ndtr(-1.0), abs=1e-10)

    def test_refinement_errors_shrink(self):
        exact = 2j * math.pi * ndtr(1.0)
        errors = []
        for nodes in (32, 64, 128):
            res = integrate_line(gaussian_pole_integrand(1.0), -1.0, 40.0, 0.0,
                                 start_nodes=nodes, max_nodes=nodes)
            errors.append(abs(res.value - exact))
        assert errors[1] < errors[0]
        assert errors[2] < errors[1]

    def test_contour_shift_within_error_budget(self):
        res_a = integrate_line(gaussian_pole_integrand(0.7), -0.5, 40.0, 1e-11)
        res_b = integrate_line(gaussian_pole_integrand(0.7), -2.0, 40.0, 1e-11)
        gap = abs(res_a.value - res_b.value)
        assert gap <= 10.0 * (res_a.error_estimate + res_b.error_estimate)

    def test_deterministic(self):
        a = integrate_line(gaussian_pole_integrand(0.3), -1.0, 40.0, 1e-12)
        b = integrate_line(gaussian_pole_integrand(0.3), -1.0, 40.0, 1e-12)
        assert a.value == b.value  # bit identical

    def test_nan_detection(self):
        def broken(xi):
            out = np.asarray(1.0 / xi, dtype=complex).copy()
            out[out.size // 3] = np.nan
            return out

        with pytest.raises(NaNEncountered):
            integrate_line(broken, -1.0, 10.0, 1e-8)

    def test_zero_offset_rejected(self):
        with pytest.raises(ValueError):
            integrate_line(gaussian_pole_integrand(0.0), 0.0, 10.0, 1e-8)


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
        return integrate_line(gaussian_pole_integrand(0.5), -1.0, 8.0, 0.0,
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
        assert res.evaluations == (p + 1) ** ndim  # exactly one level
        assert math.isfinite(res.error_estimate)
        assert ladder(ndim, 4 * p, p) == res  # a start above the cap is clamped to it
