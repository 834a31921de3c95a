import math
from collections import Counter
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy.special import ndtr

from levyexotic import (
    AsianGeometric,
    BarrierDownOutCall,
    ContourOffsets,
    ForwardStart,
    MonitoringSchedule,
    PayoffParameterSet,
    closed_form_price,
    default_offsets,
    delta,
    make_cgmy,
    make_gaussian,
    make_nig,
    mc_price,
    price_contract,
    price_digital,
)
from levyexotic import quadrature as cq
from levyexotic.contracts import Digital, to_portfolio
from levyexotic.digitals import (
    _contour_price,
    _equal_offset_interval,
    _group_setup,
    _halved_offsets,
    _Legs,
    _log_moneyness,
    _prefactor,
    _price_core,
    _truncations,
)
from levyexotic.errors import DimensionTooLarge, NoFeasibleOffsets, StripViolation

GAUSS = make_gaussian(0.2, 0.05)
NIG = make_nig(8.0, -2.0, 0.3, 0.05)
SPOT = 100.0
ATM_LOG = math.log(100.0)


def plain_digital(k_log, w=1, gamma=0.0):
    return PayoffParameterSet((gamma,), (k_log,), (w,), ((1.0,),))


def line_oracle(model, sched, p, spot, tol=1e-8):
    """The horizontal line rule's price of a one-condition digital: the oracle of the sinh contour and the strips.

    The offset of ``default_offsets``, the truncation of ``_truncations`` and
    the line ladder of ``_contour_price``; a spot with w*d > 12 is the certain
    claim minus its flipped condition, as in ``_price_core``.
    """
    d = _log_moneyness(p, spot)
    if p.w[0] * d[0] > 12.0:
        flipped = line_oracle(model, sched, PayoffParameterSet(p.gamma, p.k_log, (-p.w[0],), p.a), spot, tol)
        whole = price_digital(model, sched, PayoffParameterSet(p.gamma, (), (), ()), spot)
        return replace(flipped, value=whole.value - flipped.value)
    legs = _Legs(model, sched, p)
    omegas, peaks = _halved_offsets(legs, p, *_equal_offset_interval(model, p), d[None])
    offs = ContourOffsets((float(omegas[0]),))
    b, (prefactor,), (raw_tol,) = _group_setup(model, sched, p, offs, [spot], tol)
    truncations = _truncations(legs, raw_tol, peaks[0])

    def integrand(xi):
        return np.exp(1j * d[0] * xi + legs.exponent(range(p.m), (xi,), (0,))) / xi

    return _contour_price(integrand, b, truncations, d, raw_tol, prefactor, (1, p.m), offs)


def exponent_sum(model, sched, p, xi):
    """sum_j Delta_j psi(zeta_j) at points ``xi`` of shape (..., N): minus ``_Legs.exponent``."""
    xi = np.asarray(xi, dtype=complex)
    return -_Legs(model, sched, p).exponent(range(p.m), tuple(xi[..., k] for k in range(p.n)), range(p.n))


class TestPsiAggregate:
    """The aggregate exponent sum_j Delta_j psi(zeta_j) of a leg list."""

    def test_single_leg_reduction(self):
        sched = MonitoringSchedule(0.0, (2.0,))
        p = plain_digital(0.0)
        for xi in (0.5, 1.0 - 0.3j):
            got = exponent_sum(GAUSS, sched, p, np.array([xi]))
            assert got == pytest.approx(2.0 * GAUSS.psi(xi), abs=1e-14)

    def test_emm_telescope_at_zero(self):
        # gamma = e_M makes every leg's argument -i, so the sum discounts to -r(T_M - t)
        sched = MonitoringSchedule(0.0, (0.4, 1.3))
        p = PayoffParameterSet((0.0, 1.0), (0.0,), (1,), ((0.7, -0.2),))
        got = exponent_sum(GAUSS, sched, p, np.array([0.0 + 0.0j]))
        assert got == pytest.approx(-0.05 * 1.3, abs=1e-12)

    def test_forward_start_legs(self):
        sched = MonitoringSchedule(0.0, (0.5, 1.0))
        p = PayoffParameterSet((0.0, 1.0), (0.0,), (1,), ((-1.0, 1.0),))
        xi = 0.8 - 0.5j
        got = exponent_sum(GAUSS, sched, p, np.array([xi]))
        expected = -0.05 * 0.5 + 0.5 * GAUSS.psi(xi - 1j)
        assert got == pytest.approx(expected, abs=1e-13)

    def test_batch_equals_row_by_row(self):
        sched = MonitoringSchedule(0.0, (0.5, 1.0))
        p = PayoffParameterSet((0.0, 1.0), (0.1, 0.2), (1, -1), ((1.0, 0.0), (-1.0, 1.0)))
        xi = np.array([[0.3 - 1j, 1.2 - 0.5j], [-2.0 - 1j, 0.7 - 0.5j], [4.1 - 1j, -3.3 - 0.5j]])
        got = exponent_sum(NIG, sched, p, xi)
        assert got.shape == (3,)
        for row, value in zip(xi, got):
            assert exponent_sum(NIG, sched, p, row) == value

    def test_no_condition_is_the_martingale_condition(self):
        sched = MonitoringSchedule(0.0, (0.5, 1.0))
        p = PayoffParameterSet((0.0, 1.0), (), (), ())
        assert exponent_sum(NIG, sched, p, np.zeros(0)) == pytest.approx(-0.05, abs=1e-15)

    def test_strip_violation_names_its_leg(self):
        # forward start: leg 1 couples no axis, leg 2 has argument xi - i, here
        # -21i on the cut below the strip; off the imaginary axis psi continues
        sched = MonitoringSchedule(0.0, (0.5, 1.0))
        p = PayoffParameterSet((0.0, 1.0), (0.0,), (1,), ((-1.0, 1.0),))
        with pytest.raises(StripViolation, match="leg 2"):
            exponent_sum(NIG, sched, p, np.array([-20j]))
        assert np.isfinite(exponent_sum(NIG, sched, p, np.array([0.3 - 20j])))


class TestDefaultOffsets:
    def test_nig_digital_midpoint(self):
        # interval ]0, -lambda_minus[ = ]0, 10[, midpoint kept
        sched = MonitoringSchedule(0.0, (1.0,))
        off = default_offsets(NIG, plain_digital(ATM_LOG), sched, SPOT)
        assert off.omega == (5.0,)

    def test_gaussian_offsets_above_floor(self):
        sched = MonitoringSchedule(0.0, (1.0,))
        for k_log in (ATM_LOG, -50.0, ATM_LOG + 3.0):
            for w in (1, -1):
                off = default_offsets(GAUSS, plain_digital(k_log, w), sched, SPOT)
                assert all(o >= 0.25 for o in off.omega)

    def test_infeasible_payoff_index(self):
        # gamma_M = 11 exceeds -lambda_minus = 10 for every positive offset
        p = PayoffParameterSet((11.0,), (ATM_LOG,), (1,), ((1.0,),))
        with pytest.raises(NoFeasibleOffsets):
            default_offsets(NIG, p)

    def test_large_feasible_payoff_index(self):
        # gamma_M = 7 still fits: 7 + omega < 10 leaves omega in ]0, 3[
        p = PayoffParameterSet((7.0,), (ATM_LOG,), (1,), ((1.0,),))
        off = default_offsets(NIG, p)
        assert 0.0 < off.omega[0] < 3.0

    def test_interval_too_narrow_to_halve_keeps_its_midpoint(self):
        # gamma = 9.6 leaves ]0, 0.4[: the midpoint 0.2 already sits at the floor
        sched = MonitoringSchedule(0.0, (1.0,))
        p = PayoffParameterSet((9.6,), (0.0,), (1,), ((1.0,),))
        midpoint = default_offsets(NIG, p)
        assert default_offsets(NIG, p, sched, 1.2) == midpoint
        assert [res.offsets_used for res in _price_core(NIG, sched, p, [0.8, 1.2])] == [midpoint] * 2

    def test_multidate_terms_use_the_same_rule(self):
        sched = MonitoringSchedule(0.0, (0.5, 1.0))
        p = PayoffParameterSet((0.0, 0.0), (ATM_LOG, ATM_LOG), (1, 1), ((1.0, 0.0), (0.0, 1.0)))
        res = price_digital(NIG, sched, p, SPOT)
        assert res.offsets_used == default_offsets(NIG, p, sched, SPOT)

    def test_one_truncation_radius_per_axis(self, monkeypatch):
        # choosing the offsets solves no radius of its own: a 3-date barrier
        # (two terms of three axes) solves each axis's radius once
        radius, calls = cq.truncation_radius, []
        monkeypatch.setattr(cq, "truncation_radius", lambda *args: calls.append(args) or radius(*args))
        contract = BarrierDownOutCall(MonitoringSchedule(0.0, (1 / 3, 2 / 3, 1.0)), 90.0, 100.0)
        price_contract(contract, GAUSS, SPOT)
        axes = sum(p.n for _, _, p in to_portfolio(contract).terms)
        assert len(calls) <= axes == 6


class TestPriceDigital:
    def test_certain_cash_digital(self):
        sched = MonitoringSchedule(0.0, (1.0,))
        res = price_digital(GAUSS, sched, plain_digital(-50.0), SPOT)
        assert res.value == pytest.approx(math.exp(-0.05), abs=1e-6)

    def test_certain_power_digital_is_spot(self):
        sched = MonitoringSchedule(0.0, (1.0,))
        res = price_digital(GAUSS, sched, plain_digital(-50.0, gamma=1.0), SPOT)
        assert res.value == pytest.approx(SPOT, rel=1e-4)

    def test_atm_digital_closed_form(self):
        sched = MonitoringSchedule(0.0, (1.0,))
        res = price_digital(GAUSS, sched, plain_digital(ATM_LOG), SPOT, tol=1e-10)
        expected = math.exp(-0.05) * ndtr(0.15)
        assert res.value == pytest.approx(expected, abs=1e-8)
        assert expected == pytest.approx(0.532325, abs=5e-7)

    def test_call_plus_put_is_bond(self):
        sched = MonitoringSchedule(0.0, (1.0,))
        call = price_digital(GAUSS, sched, plain_digital(ATM_LOG, 1), SPOT, tol=1e-9)
        put = price_digital(GAUSS, sched, plain_digital(ATM_LOG, -1), SPOT, tol=1e-9)
        assert call.value + put.value == pytest.approx(math.exp(-0.05), abs=1e-8)

    def test_zero_condition_coefficient_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):  # the payoff rejects a = 0
            PayoffParameterSet((0.0,), (ATM_LOG,), (1,), ((0.0,),))

    def test_negated_condition_identity(self):
        # 1(-X >= K) equals 1(X <= -K)
        k = 0.1
        sched = MonitoringSchedule(0.0, (1.0,))
        negated = PayoffParameterSet((0.0,), (k,), (1,), ((-1.0,),))
        via_negated_a = price_digital(GAUSS, sched, negated, SPOT, tol=1e-10)
        via_flipped_w = price_digital(GAUSS, sched, plain_digital(-k, -1), SPOT, tol=1e-10)
        assert via_negated_a.value == pytest.approx(via_flipped_w.value, abs=1e-8)

    def test_nig_digital_against_mc(self):
        sched = MonitoringSchedule(0.0, (1.0,))
        res = price_digital(NIG, sched, plain_digital(ATM_LOG), SPOT)
        mc = mc_price(Digital(sched, plain_digital(ATM_LOG)), NIG, SPOT, 10**6, 123)
        assert abs(res.value - mc.estimate) <= 3.0 * mc.stderr

    def test_offset_invariance(self):
        sched = MonitoringSchedule(0.0, (1.0,))
        p = plain_digital(ATM_LOG)
        res_a = price_digital(NIG, sched, p, SPOT, offsets=ContourOffsets((2.0,)))
        res_b = price_digital(NIG, sched, p, SPOT, offsets=ContourOffsets((7.0,)))
        gap = abs(res_a.value - res_b.value)
        assert gap <= 10.0 * (res_a.quadrature_error + res_b.quadrature_error) + 1e-12

    def test_monotone_in_strike(self):
        sched = MonitoringSchedule(0.0, (1.0,))
        values = [
            price_digital(GAUSS, sched, plain_digital(k), SPOT).value
            for k in (ATM_LOG - 0.3, ATM_LOG, ATM_LOG + 0.3)
        ]
        assert values[0] > values[1] > values[2]

    def test_log_moneyness_translation(self):
        # gamma = 0: price(lambda*spot, K + rho*ln lambda) == price(spot, K)
        sched = MonitoringSchedule(0.0, (0.5, 1.0))
        a = ((0.6, 0.4),)
        rho = 1.0
        lam = 1.7
        p_base = PayoffParameterSet((0.0, 0.0), (ATM_LOG,), (1,), a)
        p_shift = PayoffParameterSet((0.0, 0.0), (ATM_LOG + rho * math.log(lam),), (1,), a)
        base = price_digital(GAUSS, sched, p_base, SPOT, tol=1e-10)
        shifted = price_digital(GAUSS, sched, p_shift, lam * SPOT, tol=1e-10)
        assert shifted.value == pytest.approx(base.value, abs=1e-9)

    def test_dimension_cap(self):
        sched = MonitoringSchedule(0.0, tuple(0.2 * k for k in range(1, 6)))
        eye = tuple(tuple(1.0 if i == j else 0.0 for j in range(5)) for i in range(5))
        p = PayoffParameterSet((0.0,) * 5, (0.0,) * 5, (1,) * 5, eye)
        with pytest.raises(DimensionTooLarge):
            price_digital(GAUSS, sched, p, SPOT)

    def test_two_dim_matches_independent_legs(self):
        # both increments nonnegative: the joint probability factorizes
        sched = MonitoringSchedule(0.0, (0.5, 1.0))
        p = PayoffParameterSet(
            (0.0, 0.0), (ATM_LOG, 0.0), (1, 1), ((1.0, 0.0), (-1.0, 1.0))
        )
        res = price_digital(GAUSS, sched, p, SPOT, tol=1e-9)
        mu = 0.05 - 0.02
        prob = ndtr(mu * 0.5 / (0.2 * math.sqrt(0.5))) ** 2
        assert res.value == pytest.approx(math.exp(-0.05) * prob, abs=1e-7)


STRIP_MODELS = {
    "gaussian": GAUSS,
    "nig": NIG,
    "cgmy05": make_cgmy(1.0, 5.0, 5.0, 0.5, 0.05),
    "cgmy15": make_cgmy(1.0, 5.0, 5.0, 1.5, 0.05),
}


class TestPriceStrip:
    # ``_price_core`` at several spots prices a strip; the per-spot horizontal
    # line ladder (``line_oracle``) is its oracle
    SCHED = MonitoringSchedule(0.0, (1.0,))
    # ln S - k from -13 to 13: several offset groups, and w*d > 12 at both ends
    SPOTS = [SPOT * math.exp(x) for x in np.linspace(-13.0, 13.0, 40)]

    @pytest.mark.parametrize("w", [1, -1], ids=["call", "put"])
    @pytest.mark.parametrize("gamma", [0.0, 1.0], ids=["cash", "asset"])
    @pytest.mark.parametrize("model", STRIP_MODELS.values(), ids=STRIP_MODELS.keys())
    def test_strip_matches_per_spot_prices(self, model, gamma, w):
        p = plain_digital(ATM_LOG, w, gamma)
        strip = _price_core(model, self.SCHED, p, self.SPOTS)
        assert len({res.offsets_used for res in strip}) >= 3
        flips = 0
        for spot, res in zip(self.SPOTS, strip):
            ref = line_oracle(model, self.SCHED, p, spot)
            assert abs(res.value - ref.value) <= ref.quadrature_error + 1e-12 * (1.0 + abs(ref.value))
            flipped = w * (math.log(spot) - ATM_LOG) > 12.0  # priced as its complement
            flips += flipped
            q = plain_digital(ATM_LOG, -w if flipped else w, gamma)
            assert res.offsets_used == default_offsets(model, q, self.SCHED, spot)
        assert flips > 0

    def test_deep_spot_of_a_wide_model_does_not_overflow(self):
        # at ln S - k = -80 the spot-free factor alone is about e^1201, the phase about e^-2000
        model = make_gaussian(2.0, 0.05)
        spots = [SPOT * math.exp(x) for x in (-80.0, -40.0, 0.0)]
        strip = _price_core(model, self.SCHED, plain_digital(ATM_LOG), spots)
        for spot, res in zip(spots, strip):
            ref = line_oracle(model, self.SCHED, plain_digital(ATM_LOG), spot)
            assert abs(res.value - ref.value) <= ref.quadrature_error + 1e-12 * (1.0 + abs(ref.value))

    @pytest.mark.parametrize("w", [1, -1], ids=["call", "put"])
    @pytest.mark.parametrize("gamma", [0.0, 1.0], ids=["cash", "asset"])
    @pytest.mark.parametrize("model", STRIP_MODELS.values(), ids=STRIP_MODELS.keys())
    def test_one_spot_strip_is_the_line_rule(self, model, gamma, w):
        # the second spot has w*d > 12, so it is priced from the flipped
        # condition and the first spot is an offset group of its own
        p = plain_digital(ATM_LOG, w, gamma)
        far = SPOT * math.exp(13.0 * w)
        for spot in (60.0, SPOT, 140.0):
            res, _ = _price_core(model, self.SCHED, p, [spot, far])
            ref = line_oracle(model, self.SCHED, p, spot)
            assert res.value == pytest.approx(ref.value, rel=1e-13, abs=0.0)
            assert (res.offsets_used, res.evaluations) == (ref.offsets_used, ref.evaluations)

    def test_a_strip_takes_no_options(self):
        p = plain_digital(ATM_LOG)
        for options in ({"offsets": ContourOffsets((1.0,))}, {"fixed_nodes": 64}, {"delta_mode": True}):
            with pytest.raises(ValueError, match="strip"):
                _price_core(GAUSS, self.SCHED, p, [SPOT, 2 * SPOT], **options)
        two_conditions = PayoffParameterSet((0.0, 0.0), (ATM_LOG, ATM_LOG), (1, 1), ((1.0, 0.0), (0.0, 1.0)))
        with pytest.raises(ValueError, match="strip"):
            _price_core(GAUSS, MonitoringSchedule(0.0, (0.5, 1.0)), two_conditions, [SPOT, 2 * SPOT])

    @pytest.mark.parametrize("model", STRIP_MODELS.values(), ids=STRIP_MODELS.keys())
    def test_a_strip_runs_no_line_ladder(self, monkeypatch, model):
        # the rule follows the number of spots asked for, not the group sizes:
        # [SPOT, far] is two groups of one spot (far has w*d > 12)
        calls = Counter()

        def counted(name, fn):
            return lambda *args, **kwargs: calls.update([name]) or fn(*args, **kwargs)

        for name in ("integrate_line", "_integrate_strip"):
            monkeypatch.setattr(cq, name, counted(name, getattr(cq, name)))
        p = plain_digital(ATM_LOG)
        for spots in (self.SPOTS, [SPOT, SPOT * math.exp(13.0)]):
            before = calls["_integrate_strip"]
            strip = _price_core(model, self.SCHED, p, spots)
            groups = Counter((res.offsets_used, math.log(spot) - ATM_LOG > 12.0)
                             for spot, res in zip(spots, strip))
            assert calls["_integrate_strip"] - before == len(groups)
        assert sorted(groups.values()) == [1, 1]
        assert calls["integrate_line"] == 0
        price_digital(model, self.SCHED, p, SPOT)
        assert calls["integrate_line"] == 1


def sinh_grid_terms(model):
    """(label, tolerance, schedule, payoff) of every one-condition term of the sinh acceptance grid.

    Cash and asset digitals, calls and puts, K = 80..120; the terms of the
    M = 4 and M = 12 geometric Asians, calls and puts at K = 80..120; the
    forward starts.  Each term at the tolerance ``price_contract`` gives it.
    """
    one = MonitoringSchedule(0.0, (1.0,))
    contracts = [(f"{gamma:g}/{w}/K{k:g}", Digital(one, plain_digital(math.log(k), w, gamma)))
                 for gamma in (0.0, 1.0) for w in (1, -1) for k in range(80, 121, 5)]
    for m in (4, 12):
        sched = MonitoringSchedule(0.0, tuple((j + 1) / m for j in range(m)))
        contracts += [(f"asian{m}/{w}/K{k}", AsianGeometric(sched, float(k), w))
                      for w in (1, -1) for k in range(80, 121, 10)]
    contracts += [(f"forward/{w}", ForwardStart(0.5, 1.0, w)) for w in (1, -1)]
    return [(f"{label}#{i}", 1e-8 / max(1.0, abs(coef)), sched, p)
            for label, c in contracts
            for i, (coef, sched, p) in enumerate(to_portfolio(c, model).terms)]


def gaussian_term_value(model, sched, p, spot):
    """The Gaussian closed form of a one-condition term in 30 digits, on the engine's own rounded inputs.

    The increments dX_j are N(mu Delta_j, sigma^2 Delta_j); with U = sum G_j dX_j
    and V = sum C_j dX_j the term is prefactor * w * e^(m_U + v_U/2) *
    Phi(w (m_V + cov(U, V) + d) / sd(V)).  C, Delta and G come from ``_Legs``
    and d from ``_log_moneyness``, rounded as the engine rounds them:
    ``closed_form_price`` rounds its own, and on the sinh grid that moves the
    value by up to 2e-14 relative, more than some certificates.
    """
    legs = _Legs(model, sched, p)
    w = p.w[0]
    with mpmath.workdps(30):
        dl, c, g = ([mpmath.mpf(float(v)) for v in arr] for arr in (legs.deltas, legs.cmat[0], legs.gsuf))
        mu, var = mpmath.mpf(model.mu), mpmath.mpf(model.sigma) ** 2

        def moment(x, y, scale):
            return scale * mpmath.fsum(xj * yj * t for xj, yj, t in zip(x, y, dl))

        ones = [1] * len(dl)
        shift = moment(g, ones, mu) + moment(g, g, var) / 2
        mean = moment(c, ones, mu) + moment(g, c, var) + float(_log_moneyness(p, spot)[0])
        value = w * mpmath.exp(shift) * mpmath.ncdf(w * mean / mpmath.sqrt(moment(c, c, var)))
        return float(_prefactor(model, sched, p, spot) * value)


class TestSinhContour:
    # every single-spot one-condition price runs the line rule on a sinh-deformed
    # contour; the horizontal line rule (``line_oracle``) is its oracle

    @pytest.mark.parametrize("model", STRIP_MODELS.values(), ids=STRIP_MODELS.keys())
    def test_sinh_rule_matches_the_line_rule(self, model):
        for label, tol, sched, p in sinh_grid_terms(model):
            res = price_digital(model, sched, p, SPOT, tol=tol)
            ref = line_oracle(model, sched, p, SPOT, tol)
            assert abs(res.value - ref.value) <= res.quadrature_error + ref.quadrature_error, label
            assert res.offsets_used == ref.offsets_used, label

    def test_claimed_error_bounds_the_gaussian_closed_form(self):
        for label, tol, sched, p in sinh_grid_terms(GAUSS):
            res = price_digital(GAUSS, sched, p, SPOT, tol=tol)
            exact = gaussian_term_value(GAUSS, sched, p, SPOT)
            assert abs(res.value - exact) <= res.quadrature_error, label
            # the closed form of the contract, from its own rounded legs
            assert closed_form_price(Digital(sched, p), 0.2, 0.05, SPOT) == pytest.approx(exact, rel=1e-13)

    def test_cgmy_call_against_a_wide_window(self):
        # ROADMAP item 1: on the line rule this call is 3.0e-6 off at tolerance 1e-8;
        # the reference runs each term's horizontal line out to |x| = 200 at 1e-13
        model = STRIP_MODELS["cgmy15"]
        call = AsianGeometric(MonitoringSchedule(0.0, (1.0,)), 100.0)
        res = price_contract(call, model, SPOT)
        port = to_portfolio(call, model)
        value = err = port.cash
        for coef, sched, p in port.terms:
            legs = _Legs(model, sched, p)
            d = _log_moneyness(p, SPOT)
            offs = default_offsets(model, p, sched, SPOT)
            b, (prefactor,), (raw_tol,) = _group_setup(model, sched, p, offs, [SPOT], 1.0)

            def integrand(xi):
                return np.exp(1j * d[0] * xi + legs.exponent(range(p.m), (xi,), (0,))) / xi

            line = cq.integrate_line(integrand, b[0], 200.0, 1e-13, start_nodes=4096)
            assert line.converged
            value += coef * (prefactor * line.value / (2j * math.pi)).real
            err += abs(coef * prefactor / (2.0 * math.pi)) * line.error_estimate
        assert abs(res.value - value) <= res.quadrature_error + err


class TestGaussianReduction:
    # generic payoff parameter sets against the normal-CDF closed form

    def test_two_dim_general_matrix(self):
        from levyexotic.gaussian import closed_form_price
        sched = MonitoringSchedule(0.0, (0.4, 1.0))
        p = PayoffParameterSet(
            (0.0, 0.6), (0.5 * ATM_LOG, -0.2), (1, -1), ((0.7, 0.3), (1.0, -1.0))
        )
        contract = Digital(sched, p)
        engine = price_digital(GAUSS, sched, p, SPOT, tol=1e-9).value
        reference = closed_form_price(contract, 0.2, 0.05, SPOT)
        assert abs(engine - reference) / abs(reference) < 1e-6

    def test_three_dim_general_matrix(self):
        from levyexotic.gaussian import closed_form_price
        sched = MonitoringSchedule(0.0, (1 / 3, 2 / 3, 1.0))
        p = PayoffParameterSet(
            (0.0, 0.0, 1.0),
            (math.log(85.0), math.log(90.0), ATM_LOG),
            (1, 1, 1),
            ((1.0, 0.0, 0.0), (0.5, 0.5, 0.0), (0.0, 0.0, 1.0)),
        )
        contract = Digital(sched, p)
        engine = price_digital(GAUSS, sched, p, SPOT, tol=1e-6).value
        reference = closed_form_price(contract, 0.2, 0.05, SPOT)
        assert abs(engine - reference) / abs(reference) < 1e-4


class TestDelta:
    def test_forward_start_delta_times_spot_is_price(self):
        sched = MonitoringSchedule(0.0, (0.5, 1.0))
        p = PayoffParameterSet((0.0, 1.0), (0.0,), (1,), ((-1.0, 1.0),))
        price = price_digital(GAUSS, sched, p, SPOT)
        slope = delta(GAUSS, sched, p, SPOT).value
        assert slope * SPOT == pytest.approx(price.value, rel=1e-10)

    def test_certain_digital_has_zero_delta(self):
        sched = MonitoringSchedule(0.0, (1.0,))
        slope = delta(GAUSS, sched, plain_digital(-50.0), SPOT).value
        assert abs(slope) < 1e-10

    def test_atm_digital_matches_finite_difference(self):
        sched = MonitoringSchedule(0.0, (1.0,))
        p = plain_digital(ATM_LOG)
        slope = delta(GAUSS, sched, p, SPOT, tol=1e-11)
        assert slope.quadrature_error < 1e-9
        slope = slope.value
        h = 1e-4 * SPOT
        up = price_digital(GAUSS, sched, p, SPOT + h, tol=1e-11).value
        dn = price_digital(GAUSS, sched, p, SPOT - h, tol=1e-11).value
        fd = (up - dn) / (2 * h)
        assert slope == pytest.approx(fd, rel=1e-5)
