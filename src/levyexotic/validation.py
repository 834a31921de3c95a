"""Built-in validation suites: the identities the engine must reproduce.

Each runner returns a SuiteResult with per-case violations; the CLI and the
acceptance tests share these implementations.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .contracts import (
    AsianContinuous,
    AsianGeometric,
    BarrierDownOutCall,
    Chooser,
    Compound,
    ForwardStart,
    LookbackFixed,
    compound_parity_check,
    price_contract,
)
from .digitals import MonitoringSchedule
from .gaussian import closed_form_price, lemma1_contour_side, mvn_cdf
from .models import make_cgmy, make_gaussian, make_nig

SUITES = ("lemma1", "gaussian", "parity", "asian-limit")


@dataclass
class SuiteResult:
    suite: str
    cases: int
    passed: int
    max_violation: float
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.passed == self.cases

    def summary(self) -> dict:
        return {
            "suite": self.suite,
            "cases": self.cases,
            "passed": self.passed,
            "max_violation": self.max_violation,
        }


def _tally(suite: str, outcomes: list) -> SuiteResult:
    """SuiteResult of one (violation, passed, failure record) triple per case, in case order."""
    failures = [record for _, ok, record in outcomes if not ok]
    return SuiteResult(suite, len(outcomes), len(outcomes) - len(failures),
                       max([0.0] + [violation for violation, _, _ in outcomes]), failures)


def _random_correlation(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random correlation matrix, blended toward identity for conditioning."""
    raw = rng.standard_normal((n, n + 2))
    gram = raw @ raw.T
    sd = np.sqrt(np.diag(gram))
    corr = gram / np.outer(sd, sd)
    out = 0.65 * corr + 0.35 * np.eye(n)
    np.fill_diagonal(out, 1.0)
    return out


def run_lemma1(limit: int | None = None) -> SuiteResult:
    """Contour integral (at its default tolerance) versus multivariate normal CDF on 20 seeded cases per N."""
    rng = np.random.default_rng(20240811)
    outcomes = []
    for n, tolerance in {1: 1e-6, 2: 1e-6, 3: 1e-4}.items():
        for _ in range(20):
            if limit is not None and len(outcomes) >= limit:
                break
            corr = _random_correlation(rng, n)
            d = rng.uniform(-2.0, 2.0, size=n)
            w = rng.choice([-1, 1], size=n)
            omega = rng.uniform(0.5, 2.0, size=n)
            contour = lemma1_contour_side(d, corr, w, omega)
            wmat = np.diag(w.astype(float))
            reference = float(np.prod(w)) * mvn_cdf(w * d, wmat @ corr @ wmat)
            violation = abs(contour - reference)
            outcomes.append((violation, violation <= tolerance, {
                "n": n, "d": d.tolist(), "corr": corr.tolist(),
                "w": w.tolist(), "omega": omega.tolist(),
                "violation": violation,
            }))
    return _tally("lemma1", outcomes)


def _gaussian_case_contracts(strike: float):
    sched1 = MonitoringSchedule(0.0, (1.0,))
    sched2 = MonitoringSchedule(0.0, (0.5, 1.0))
    sched3 = MonitoringSchedule(0.0, (1.0 / 3.0, 2.0 / 3.0, 1.0))
    sched4 = MonitoringSchedule(0.0, (0.25, 0.5, 0.75, 1.0))
    barrier = 0.8 * strike
    return [
        ("digital", Compound(((1.0, strike, 1),)), "1d"),
        ("forward_start", ForwardStart(0.5, 1.0), "1d"),
        ("asian_m4", AsianGeometric(sched4, strike), "1d"),
        ("chooser", Chooser(0.5, 1.0, strike), "nd"),
        ("compound_2", Compound(((0.5, 5.0, 1), (1.0, strike, 1))), "nd"),
        ("compound_3", Compound(((1.0 / 3.0, 2.0, 1), (2.0 / 3.0, 4.0, 1), (1.0, strike, 1))), "nd"),
        ("barrier_m2", BarrierDownOutCall(sched2, barrier, strike), "nd"),
        ("barrier_m3", BarrierDownOutCall(sched3, barrier, strike), "nd"),
        ("lookback_m2", LookbackFixed(sched2, strike), "nd"),
        ("lookback_m3", LookbackFixed(sched3, strike), "nd"),
    ]


def run_gaussian(limit: int | None = None) -> SuiteResult:
    """Fourier engine versus the closed-form stack over a parameter grid."""
    spot = 100.0
    outcomes = []
    for sigma in (0.1, 0.2, 0.4):
        for r in (0.0, 0.05):
            model = make_gaussian(sigma, r)
            for ratio in (0.8, 1.0, 1.25):
                strike = spot / ratio
                for name, contract, kind in _gaussian_case_contracts(strike):
                    if limit is not None and len(outcomes) >= limit:
                        break
                    tol = 1e-8 if kind == "1d" else 1e-5
                    rel_tol = 1e-6 if kind == "1d" else 1e-4
                    engine = price_contract(contract, model, spot, tol=tol).value
                    reference = closed_form_price(contract, sigma, r, spot)
                    violation = abs(engine - reference) / max(abs(reference), 1e-8)
                    outcomes.append((violation, violation <= rel_tol, {
                        "contract": name, "sigma": sigma, "r": r,
                        "strike": strike, "engine": engine,
                        "reference": reference, "violation": violation,
                    }))
    return _tally("gaussian", outcomes)


_PARITY_SETS = (
    ("gaussian", dict(K1=5.0, T1=0.5, K2=100.0, T2=1.0, w2=1), 1e-6),
    ("gaussian", dict(K1=2.0, T1=0.25, K2=80.0, T2=1.0, w2=-1), 1e-6),
    ("nig", dict(K1=5.0, T1=0.5, K2=100.0, T2=1.0, w2=1), 1e-5),
    ("nig", dict(K1=8.0, T1=0.5, K2=110.0, T2=1.5, w2=-1), 1e-5),
    ("cgmy", dict(K1=5.0, T1=0.5, K2=100.0, T2=1.0, w2=1), 1e-5),
    ("cgmy", dict(K1=3.0, T1=0.4, K2=90.0, T2=1.2, w2=1), 1e-5),
)


def _parity_model(kind: str):
    if kind == "gaussian":
        return make_gaussian(0.2, 0.05)
    if kind == "nig":
        return make_nig(8.0, -2.0, 0.3, 0.05)
    return make_cgmy(1.0, 5.0, 5.0, 0.5, 0.05)


def run_parity(limit: int | None = None) -> SuiteResult:
    """Compound put-call parity residuals across model families."""
    outcomes = []
    for kind, params, tol in _PARITY_SETS:
        if limit is not None and len(outcomes) >= limit:
            break
        model = _parity_model(kind)
        residual = abs(compound_parity_check(model, spot=100.0, **params))
        outcomes.append((residual, residual <= tol, {"model": kind, **params, "violation": residual}))
    return _tally("parity", outcomes)


def run_asian_limit(limit: int | None = None) -> SuiteResult:
    """Discrete geometric Asians approach the continuous average as M grows."""
    spot, strike, tau = 100.0, 100.0, 1.0
    models = [("gaussian", make_gaussian(0.2, 0.05)), ("nig", make_nig(8.0, -2.0, 0.3, 0.05))]
    outcomes = []
    for kind, model in models:
        if limit is not None and len(outcomes) >= limit:
            break
        continuous = price_contract(AsianContinuous(0.0, tau, strike), model, spot).value
        gaps = []
        for m in (4, 8, 16, 32):
            sched = MonitoringSchedule(0.0, tuple(tau * k / m for k in range(1, m + 1)))
            discrete = price_contract(AsianGeometric(sched, strike), model, spot).value
            gaps.append(abs(discrete - continuous))
        decreasing = all(b < a for a, b in zip(gaps, gaps[1:]))
        violation = 0.0 if decreasing else max(
            (b - a) for a, b in zip(gaps, gaps[1:])
        )
        outcomes.append((violation, decreasing, {"model": kind, "gaps": gaps, "violation": violation}))
    return _tally("asian-limit", outcomes)


_RUNNERS = {
    "lemma1": run_lemma1,
    "gaussian": run_gaussian,
    "parity": run_parity,
    "asian-limit": run_asian_limit,
}


def run_suite(name: str, limit: int | None = None) -> list[SuiteResult]:
    if name == "all":
        return [_RUNNERS[s](limit=limit) for s in SUITES]
    if name not in _RUNNERS:
        raise ValueError(f"unknown suite '{name}'; choose from {SUITES + ('all',)}")
    return [_RUNNERS[name](limit=limit)]
