import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyexotic import (
    CGMYModel,
    GaussianModel,
    LevyModel,
    NIGModel,
    esscher_calibrate,
    make_cgmy,
    make_gaussian,
    make_nig,
)
from levyexotic.digitals import MonitoringSchedule, PayoffParameterSet, _Legs
from levyexotic.errors import InvalidModel, NoRoot, StripTooNarrow, StripViolation
from levyexotic.models import _AveragedModel

EMM_TOL = 1e-12


def all_models():
    return [
        make_gaussian(0.2, 0.05),
        make_nig(8.0, -2.0, 0.3, 0.05),
        make_cgmy(1.0, 5.0, 5.0, 0.5, 0.05),
        make_cgmy(0.5, 6.0, 4.0, 1.5, 0.02),
    ]


CUMULANT_MODELS = {
    # the four benchmark models
    "gaussian": make_gaussian(0.2, 0.05),
    "nig": make_nig(8.0, -2.0, 0.3, 0.05),
    "cgmy05": make_cgmy(1.0, 5.0, 5.0, 0.5, 0.05),
    "cgmy15": make_cgmy(1.0, 5.0, 5.0, 1.5, 0.05),
    # other parameter sets: skewed both ways, wide and narrow strips, activity near 0 and 2
    "gaussian-wide": make_gaussian(0.6, 0.01),
    "nig-right": make_nig(15.0, 3.0, 0.5, 0.02),
    "nig-narrow": make_nig(3.0, -1.5, 1.2, 0.0),
    "cgmy-y02": make_cgmy(2.0, 3.0, 9.0, 0.2, 0.03),
    "cgmy-y15": make_cgmy(0.5, 6.0, 4.0, 1.5, 0.02),
    "cgmy-y19": make_cgmy(0.3, 8.0, 2.5, 1.9, 0.05),
}


@pytest.mark.parametrize("model", CUMULANT_MODELS.values(), ids=CUMULANT_MODELS)
def test_cumulants_are_the_central_differences(model, monkeypatch):
    # kappa(u) = -Re psi(-iu) at u = -h, 0, h
    h = 1e-3
    down, zero, up = (-model.psi(-1j * u).real for u in (-h, 0.0, h))
    k1, k2 = model.cumulants
    assert k1 == pytest.approx((up - down) / (2.0 * h), rel=1e-6)
    assert k2 == pytest.approx((up - 2.0 * zero + down) / h**2, rel=1e-6)

    def refused(self, xi):
        raise AssertionError("the cumulants call psi")

    monkeypatch.setattr(LevyModel, "psi", refused)
    for cls in (GaussianModel, NIGModel, CGMYModel):
        monkeypatch.setattr(cls, "phi", refused)
    assert replace(model).cumulants == (k1, k2)  # built again, without a psi call


class TestGaussianValues:
    def test_psi_at_zero(self):
        model = make_gaussian(0.2, 0.05)
        assert model.psi(0.0) == 0.0

    def test_psi_at_minus_i_is_minus_r(self):
        model = make_gaussian(0.2, 0.05)
        assert model.psi(-1j) == pytest.approx(-0.05, abs=1e-15)

    def test_psi_at_one(self):
        # direct substitution: i(sigma^2/2 - r) + sigma^2/2
        model = make_gaussian(0.2, 0.05)
        assert model.psi(1.0) == pytest.approx(0.02 - 0.03j, abs=1e-15)


def test_nig_strip_and_emm():
    model = make_nig(8.0, -2.0, 0.3, 0.05)
    assert model.strip == (-10.0, 6.0)
    assert abs(0.05 + model.psi(-1j)) < EMM_TOL


def test_cgmy_strip_too_narrow():
    with pytest.raises(StripTooNarrow):
        make_cgmy(1.0, 5.0, 0.9, 0.5, 0.0)


def test_nig_strip_too_narrow():
    # alpha <= beta + 1 puts -i outside the strip
    with pytest.raises(StripTooNarrow):
        make_nig(2.0, 1.5, 0.3, 0.05)


@pytest.mark.parametrize("bad", [
    dict(alpha=-1.0, beta=0.0, delta=0.3),
    dict(alpha=2.0, beta=3.0, delta=0.3),
    dict(alpha=8.0, beta=-2.0, delta=-0.1),
])
def test_nig_invalid_params(bad):
    with pytest.raises(InvalidModel):
        make_nig(r=0.05, **bad)


@pytest.mark.parametrize("y", [0.0, 1.0, 2.0, 2.5])
def test_cgmy_activity_out_of_range(y):
    with pytest.raises(InvalidModel):
        make_cgmy(1.0, 5.0, 5.0, y, 0.05)


def test_strip_violation_raises():
    model = make_nig(8.0, -2.0, 0.3, 0.05)
    with pytest.raises(StripViolation):
        model.psi(7j)  # Im = 7 > lambda_plus = 6
    with pytest.raises(StripViolation):
        model.psi(-11j)


BENCHMARK_MODELS = {
    "gaussian": make_gaussian(0.2, 0.05),
    "nig": make_nig(8.0, -2.0, 0.3, 0.05),
    "cgmy05": make_cgmy(1.0, 5.0, 5.0, 0.5, 0.05),
    "cgmy15": make_cgmy(1.0, 5.0, 5.0, 1.5, 0.05),
}
# each model's exponent, and the continuous Asian's average of it (``_AveragedModel``)
EXPONENTS = {**BENCHMARK_MODELS,
             **{f"{name}-averaged": _AveragedModel.of(model) for name, model in BENCHMARK_MODELS.items()}}


@pytest.mark.parametrize("model", EXPONENTS.values(), ids=EXPONENTS.keys())
def test_psi_is_holomorphic_across_the_strip_edges(model):
    # Mean value property on circles centred on a strip edge, left and right of
    # the imaginary axis at half the growth cone's angle; each radius is half
    # the distance to the axis, so the 64-point mean errs by about 2**-64.
    ring = np.exp(2j * math.pi * np.arange(64) / 64)
    reach = math.tan(0.5 * min(model.growth_cone, 0.5 * math.pi))
    for edge in model.strip:
        for side in (-1.0, 1.0):
            centre = side * abs(edge) / reach + 1j * edge
            radius = 0.5 * abs(centre.real)
            mean = model.psi(centre + radius * ring).mean()
            assert abs(mean - model.psi(centre)) <= 1e-12 * abs(model.psi(centre))


@pytest.mark.parametrize("model", EXPONENTS.values(), ids=EXPONENTS.keys())
def test_only_a_cut_raises(model):
    # forward start: leg 1 couples no axis, leg 2 has argument xi - i
    legs = _Legs(model, MonitoringSchedule(0.0, (0.5, 1.0)),
                 PayoffParameterSet((0.0, 1.0), (0.0,), (1,), ((-1.0, 1.0),)))
    lo, hi = model.strip
    off_strip = np.array([0.5 + 1j * (hi + 2.0), -0.5 + 1j * (lo - 1.0)])
    assert np.all(np.isfinite(legs.exponent(range(2), (off_strip,), (0,))))
    for im in (hi + 2.0, lo - 1.0):
        with pytest.raises(StripViolation, match=r"^leg 2: .*cut"):
            legs.exponent(range(2), (np.array([0.5, 1j * im]),), (0,))


@pytest.mark.parametrize("model", all_models(), ids=lambda m: m.kind + str(m.order))
class TestSharedInvariants:
    def test_psi_zero(self, model):
        assert abs(model.psi(0.0)) < 1e-14

    def test_emm_residual(self, model):
        assert model.emm_residual() < EMM_TOL

    def test_hermitian_symmetry(self, model):
        xi = np.linspace(-30.0, 30.0, 41)
        vals = model.psi(xi + 0j)
        mirrored = model.psi(-xi + 0j)
        assert np.max(np.abs(mirrored - np.conj(vals))) < 1e-12

    def test_real_part_nonnegative(self, model):
        xi = np.linspace(-50.0, 50.0, 101)
        assert np.min(model.psi(xi + 0j).real) > -1e-12

    def test_growth_order(self, model):
        # Re psi / |xi|^order settles toward a positive constant
        mags = np.array([10.0, 100.0, 1000.0, 10000.0])
        ratios = np.array([model.psi(complex(x)).real / x**model.order for x in mags])
        assert np.all(ratios > 0)
        steps = np.abs(np.diff(ratios))
        assert steps[1] <= steps[0] + 1e-12
        assert steps[2] <= steps[1] + 1e-12


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=-1e4, max_value=1e4, allow_nan=False))
def test_hermitian_symmetry_property(x):
    model = make_nig(8.0, -2.0, 0.3, 0.05)
    assert model.psi(complex(-x)) == pytest.approx(model.psi(complex(x)).conjugate(), abs=1e-10)


class TestEsscher:
    def test_gaussian_tilt_matches_algebra(self):
        # closed form: h = (r - mu_P - sigma^2/2) / sigma^2
        historic = GaussianModel(mu=0.1, r=0.0, sigma=0.2)
        tilted = esscher_calibrate(historic, 0.05)
        h_expected = (0.05 - 0.1 - 0.02) / 0.04
        assert h_expected == pytest.approx(-1.75)
        assert tilted.mu == pytest.approx(0.1 + 0.04 * h_expected, abs=1e-12)
        assert tilted.mu == pytest.approx(0.05 - 0.02, abs=1e-12)
        assert tilted.emm_residual() < EMM_TOL

    def test_already_neutral_keeps_drift(self):
        historic = GaussianModel(mu=0.05 - 0.02, r=0.05, sigma=0.2)
        tilted = esscher_calibrate(historic, 0.05)
        assert tilted.mu == pytest.approx(historic.mu, abs=1e-12)
        assert tilted.sigma == historic.sigma

    def test_nig_tilt_shifts_beta(self):
        historic = NIGModel(mu=0.08, r=0.0, alpha=8.0, beta=-2.0, delta=0.3)
        tilted = esscher_calibrate(historic, 0.05)
        assert isinstance(tilted, NIGModel)
        assert tilted.mu == historic.mu
        assert tilted.beta != historic.beta
        assert tilted.emm_residual() < EMM_TOL

    def test_cgmy_tilt_shifts_tails(self):
        historic = CGMYModel(mu=0.1, r=0.0, c=1.0, g=5.0, m=5.0, y=0.5)
        tilted = esscher_calibrate(historic, 0.03)
        assert isinstance(tilted, CGMYModel)
        assert tilted.g + tilted.m == pytest.approx(historic.g + historic.m, abs=1e-10)
        assert tilted.emm_residual() < EMM_TOL

    def test_no_root_when_unreachable(self):
        # tiny strip and a huge rate leave the tilt equation without a root
        historic = NIGModel(mu=0.0, r=0.0, alpha=2.0, beta=0.5, delta=0.05)
        with pytest.raises(NoRoot):
            esscher_calibrate(historic, 5.0)
