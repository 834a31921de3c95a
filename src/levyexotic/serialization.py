"""JSON (de)serialization of models, contracts and run specifications.

The spec-file schema, with all times in year fractions:

    {"model":    {"kind": "gaussian"|"nig"|"cgmy", "params": {...}, "r": x},
     "spot":     x,
     "contract": {"type": "...", ...variant fields...},
     "pricing":  {"method": "fourier"|"mc"|"closed_form",
                  "tol": x, "paths": n, "seed": n}}
"""
from __future__ import annotations

from dataclasses import dataclass

from .contracts import (
    AsianContinuous,
    AsianGeometric,
    BarrierDownOutCall,
    Chooser,
    Compound,
    ContractSpec,
    Digital,
    ForwardStart,
    LookbackFixed,
)
from .digitals import MonitoringSchedule, PayoffParameterSet
from .errors import SchemaError
from .models import GAUSSIAN_STRIP_PROXY, LevyModel, make_model

_MODEL_PARAMS = {
    "gaussian": ("sigma",),
    "nig": ("alpha", "beta", "delta"),
    "cgmy": ("c", "g", "m", "y"),
}

METHODS = ("fourier", "mc", "closed_form")


@dataclass(frozen=True)
class RunSpec:
    model: LevyModel
    contract: ContractSpec
    spot: float
    method: str = "fourier"
    tol: float | None = None
    paths: int = 100_000
    seed: int = 0


def _need(obj: dict, field: str, context: str):
    if field not in obj:
        raise SchemaError(f"missing field '{field}' in {context}")
    return obj[field]


def model_to_dict(model: LevyModel) -> dict:
    if model.kind not in _MODEL_PARAMS:
        raise SchemaError(f"cannot serialize model type {type(model).__name__}")
    params = {name: getattr(model, name) for name in _MODEL_PARAMS[model.kind]}
    if model.kind == "gaussian" and model.strip_proxy != GAUSSIAN_STRIP_PROXY:
        params["strip_proxy"] = model.strip_proxy
    return {"kind": model.kind, "params": params, "r": model.r}


def model_from_dict(obj: dict) -> LevyModel:
    kind = str(_need(obj, "kind", "model")).lower()
    if kind not in _MODEL_PARAMS:
        raise SchemaError(f"unknown model kind '{kind}' in model.kind")
    params = _need(obj, "params", "model")
    r = float(_need(obj, "r", "model"))
    clean = {}
    for name in _MODEL_PARAMS[kind]:
        clean[name] = float(_need(params, name, f"model.params ({kind})"))
    if kind == "gaussian" and "strip_proxy" in params:
        clean["strip_proxy"] = float(params["strip_proxy"])
    return make_model(kind, clean, r)


def _schedule_from(obj: dict, context: str) -> MonitoringSchedule:
    dates = _need(obj, "dates", context)
    if not isinstance(dates, (list, tuple)) or not dates:
        raise SchemaError(f"field 'dates' in {context} must be a nonempty list")
    return MonitoringSchedule(float(obj.get("t", 0.0)), tuple(float(d) for d in dates))


def _schedule_to(sched: MonitoringSchedule) -> dict:
    return {"t": sched.t, "dates": list(sched.dates)}


def contract_to_dict(c: ContractSpec) -> dict:
    if isinstance(c, Digital):
        p = c.payoff
        return {
            "type": "digital",
            **_schedule_to(c.schedule),
            "gamma": list(p.gamma),
            "k_log": list(p.k_log),
            "w": list(p.w),
            "a": [list(row) for row in p.a],
        }
    if isinstance(c, ForwardStart):
        return {"type": "forward_start", "t": c.t, "t1": c.t1, "t2": c.t2, "w": c.w}
    if isinstance(c, AsianGeometric):
        out = {
            "type": "asian_geometric",
            **_schedule_to(c.schedule),
            "strike": c.strike,
            "w": c.w,
        }
        if c.weights is not None and len(c.weights) > 0:
            out["weights"] = list(c.weights)
        return out
    if isinstance(c, AsianContinuous):
        return {
            "type": "asian_continuous",
            "t_start": c.t_start,
            "t_end": c.t_end,
            "strike": c.strike,
            "w": c.w,
        }
    if isinstance(c, LookbackFixed):
        return {
            "type": "lookback_fixed",
            **_schedule_to(c.schedule),
            "strike": c.strike,
            "w": c.w,
        }
    if isinstance(c, Chooser):
        return {
            "type": "chooser",
            "t": c.t,
            "t1": c.t1,
            "t_expiry": c.t_expiry,
            "strike": c.strike,
        }
    if isinstance(c, Compound):
        return {
            "type": "compound",
            "t": c.t,
            "legs": [{"t": T, "strike": K, "w": w} for T, K, w in c.legs],
        }
    if isinstance(c, BarrierDownOutCall):
        return {
            "type": "barrier_down_out_call",
            **_schedule_to(c.schedule),
            "barrier": c.barrier,
            "strike": c.strike,
        }
    raise SchemaError(f"cannot serialize contract type {type(c).__name__}")


def contract_from_dict(obj: dict) -> ContractSpec:
    kind = str(_need(obj, "type", "contract")).lower()
    try:
        if kind == "digital":
            sched = _schedule_from(obj, "contract (digital)")
            payoff = PayoffParameterSet(
                tuple(float(g) for g in _need(obj, "gamma", "contract (digital)")),
                tuple(float(k) for k in _need(obj, "k_log", "contract (digital)")),
                tuple(int(w) for w in _need(obj, "w", "contract (digital)")),
                tuple(tuple(float(v) for v in row)
                      for row in _need(obj, "a", "contract (digital)")),
            )
            return Digital(sched, payoff)
        if kind == "forward_start":
            return ForwardStart(
                float(_need(obj, "t1", "contract")),
                float(_need(obj, "t2", "contract")),
                int(obj.get("w", 1)),
                float(obj.get("t", 0.0)),
            )
        if kind == "asian_geometric":
            weights = obj.get("weights")
            return AsianGeometric(
                _schedule_from(obj, "contract (asian_geometric)"),
                float(_need(obj, "strike", "contract")),
                int(obj.get("w", 1)),
                tuple(float(x) for x in weights) if weights else None,
            )
        if kind == "asian_continuous":
            return AsianContinuous(
                float(_need(obj, "t_start", "contract")),
                float(_need(obj, "t_end", "contract")),
                float(_need(obj, "strike", "contract")),
                int(obj.get("w", 1)),
            )
        if kind == "lookback_fixed":
            return LookbackFixed(
                _schedule_from(obj, "contract (lookback_fixed)"),
                float(_need(obj, "strike", "contract")),
                int(obj.get("w", 1)),
            )
        if kind == "chooser":
            return Chooser(
                float(_need(obj, "t1", "contract")),
                float(_need(obj, "t_expiry", "contract")),
                float(_need(obj, "strike", "contract")),
                float(obj.get("t", 0.0)),
            )
        if kind == "compound":
            legs = _need(obj, "legs", "contract (compound)")
            if not isinstance(legs, (list, tuple)) or not legs:
                raise SchemaError("field 'legs' in contract must be a nonempty list")
            parsed = tuple(
                (
                    float(_need(leg, "t", "contract.legs[]")),
                    float(_need(leg, "strike", "contract.legs[]")),
                    int(leg.get("w", 1)),
                )
                for leg in legs
            )
            return Compound(parsed, float(obj.get("t", 0.0)))
        if kind == "barrier_down_out_call":
            return BarrierDownOutCall(
                _schedule_from(obj, "contract (barrier_down_out_call)"),
                float(_need(obj, "barrier", "contract")),
                float(_need(obj, "strike", "contract")),
            )
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad contract field: {exc}") from exc
    raise SchemaError(f"unknown contract type '{kind}' in contract.type")


def runspec_from_dict(obj: dict) -> RunSpec:
    if not isinstance(obj, dict):
        raise SchemaError("specification must be a JSON object")
    model = model_from_dict(_need(obj, "model", "specification"))
    contract = contract_from_dict(_need(obj, "contract", "specification"))
    try:
        spot = float(_need(obj, "spot", "specification"))
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad field 'spot': {exc}") from exc
    if spot <= 0:
        raise SchemaError("field 'spot' must be positive")
    pricing = obj.get("pricing", {})
    method = str(pricing.get("method", "fourier")).lower()
    if method not in METHODS:
        raise SchemaError(f"unknown method '{method}' in pricing.method")
    tol = pricing.get("tol")
    return RunSpec(
        model=model,
        contract=contract,
        spot=spot,
        method=method,
        tol=float(tol) if tol is not None else None,
        paths=int(pricing.get("paths", 100_000)),
        seed=int(pricing.get("seed", 0)),
    )


def runspec_to_dict(spec: RunSpec) -> dict:
    pricing = {"method": spec.method, "paths": spec.paths, "seed": spec.seed}
    if spec.tol is not None:
        pricing["tol"] = spec.tol
    return {
        "model": model_to_dict(spec.model),
        "contract": contract_to_dict(spec.contract),
        "spot": spec.spot,
        "pricing": pricing,
    }
