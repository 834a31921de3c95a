"""Pricing of discretely monitored exotics under exponential Levy models.

The engine prices multi-period power digitals as N-fold contour integrals
and assembles every supported exotic contract as a static portfolio of those
digitals.  A Gaussian closed-form stack and a Monte Carlo simulator provide
independent cross-checks.
"""
from .contracts import (
    AsianContinuous,
    AsianGeometric,
    BarrierDownOutCall,
    Chooser,
    Compound,
    ContractSpec,
    Digital,
    DigitalPortfolio,
    ForwardStart,
    LookbackFixed,
    compound_parity_check,
    continuous_asian_psi,
    price_contract,
    solve_compound_thresholds,
    to_portfolio,
)
from .digitals import (
    ContourOffsets,
    MonitoringSchedule,
    PayoffParameterSet,
    PriceResult,
    default_offsets,
    delta,
    price_digital,
)
from .gaussian import bvn_cdf, closed_form_price, lemma1_contour_side, mvn_cdf
from .mc import MCResult, mc_price, simulate_monitoring
from .models import (
    CGMYModel,
    GaussianModel,
    LevyModel,
    NIGModel,
    esscher_calibrate,
    make_cgmy,
    make_gaussian,
    make_model,
    make_nig,
)

__all__ = [
    "AsianContinuous",
    "AsianGeometric",
    "BarrierDownOutCall",
    "CGMYModel",
    "Chooser",
    "Compound",
    "ContourOffsets",
    "ContractSpec",
    "Digital",
    "DigitalPortfolio",
    "ForwardStart",
    "GaussianModel",
    "LevyModel",
    "LookbackFixed",
    "MCResult",
    "MonitoringSchedule",
    "NIGModel",
    "PayoffParameterSet",
    "PriceResult",
    "bvn_cdf",
    "closed_form_price",
    "compound_parity_check",
    "continuous_asian_psi",
    "default_offsets",
    "delta",
    "esscher_calibrate",
    "lemma1_contour_side",
    "make_cgmy",
    "make_gaussian",
    "make_model",
    "make_nig",
    "mc_price",
    "mvn_cdf",
    "price_contract",
    "price_digital",
    "simulate_monitoring",
    "solve_compound_thresholds",
    "to_portfolio",
]
