"""JSON (de)serialization of models, contracts and run specifications.

The spec-file schema, with all times in year fractions:

    {"model":    {"kind": "gaussian"|"nig"|"cgmy", "params": {...}, "r": x},
     "spot":     x,
     "contract": {"type": "...", ...variant fields...},
     "pricing":  {"method": "fourier"|"mc"|"closed_form",
                  "tol": x, "paths": n, "seed": n}}

A contract's fields are its dataclass's fields, with their names and
defaults: a schedule is written as "t" and "dates", a payoff as "gamma",
"k_log", "w" and "a", compound legs as a list of {"t", "strike", "w"}
objects, and empty Asian weights are left out.
"""
from __future__ import annotations

from dataclasses import MISSING, dataclass, fields, is_dataclass

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
from .digitals import MonitoringSchedule, PayoffParameterSet, _whole
from .errors import SchemaError
from .models import GAUSSIAN_STRIP_PROXY, LevyModel, make_model

_MODEL_PARAMS = {
    "gaussian": ("sigma",),
    "nig": ("alpha", "beta", "delta"),
    "cgmy": ("c", "g", "m", "y"),
}

_CONTRACTS = {
    "digital": Digital,
    "forward_start": ForwardStart,
    "asian_geometric": AsianGeometric,
    "asian_continuous": AsianContinuous,
    "lookback_fixed": LookbackFixed,
    "chooser": Chooser,
    "compound": Compound,
    "barrier_down_out_call": BarrierDownOutCall,
}
_TYPE_NAMES = {cls: name for name, cls in _CONTRACTS.items()}
_CASTS = {"float": float, "int": _whole}

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

    def __post_init__(self):
        if self.spot <= 0:
            raise SchemaError("field 'spot' must be positive")
        if self.method not in METHODS:
            raise SchemaError(f"unknown method '{self.method}' in pricing.method")
        if self.paths < 1:
            raise SchemaError("field 'paths' in pricing must be at least 1")
        if self.seed < 0:
            raise SchemaError("field 'seed' in pricing must be non-negative")


def _need(obj: dict, field: str, context: str):
    if not isinstance(obj, dict):
        raise SchemaError(f"{context} must be a JSON object")
    if field not in obj:
        raise SchemaError(f"missing field '{field}' in {context}")
    return obj[field]


def _cast(cast, value, field: str, context: str):
    """``cast(value)``, or a SchemaError naming the field."""
    try:
        return cast(value)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad field '{field}' in {context}: {exc}") from exc


def _nonempty_list(obj: dict, field: str, context: str) -> list:
    value = _need(obj, field, context)
    if not isinstance(value, (list, tuple)) or not value:
        raise SchemaError(f"field '{field}' in {context} must be a nonempty list")
    return value


def _plain(value):
    """Tuples, nested or not, as JSON lists."""
    return [_plain(v) for v in value] if isinstance(value, tuple) else value


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
    r = _cast(float, _need(obj, "r", "model"), "r", "model")
    context = f"model.params ({kind})"
    clean = {name: _cast(float, _need(params, name, context), name, context)
             for name in _MODEL_PARAMS[kind]}
    if kind == "gaussian" and "strip_proxy" in params:
        clean["strip_proxy"] = _cast(float, params["strip_proxy"], "strip_proxy", context)
    return make_model(kind, clean, r)


def contract_to_dict(c: ContractSpec) -> dict:
    kind = _TYPE_NAMES.get(type(c))
    if kind is None:
        raise SchemaError(f"cannot serialize contract type {type(c).__name__}")
    out = {"type": kind}
    for f in fields(c):
        value = getattr(c, f.name)
        if is_dataclass(value):  # a schedule or payoff: its fields sit in the contract object
            out.update((g.name, _plain(getattr(value, g.name))) for g in fields(value))
        elif f.name == "legs":
            out["legs"] = [dict(zip(("t", "strike", "w"), leg)) for leg in value]
        elif f.name != "weights" or value:
            out[f.name] = _plain(value)
    return out


def _field_from(f, obj: dict, context: str):
    """Value of contract field ``f`` read from the contract object ``obj``."""
    if f.type == "MonitoringSchedule":
        t = _cast(float, obj.get("t", 0.0), "t", context)
        return MonitoringSchedule(t, _nonempty_list(obj, "dates", context))
    if f.type == "PayoffParameterSet":
        return PayoffParameterSet(*(_need(obj, g.name, context)
                                    for g in fields(PayoffParameterSet)))
    if f.name == "legs":
        return tuple((_need(leg, "t", "contract.legs[]"), _need(leg, "strike", "contract.legs[]"),
                      leg.get("w", 1)) for leg in _nonempty_list(obj, "legs", context))
    value = _need(obj, f.name, context) if f.default is MISSING else obj.get(f.name, f.default)
    if f.name == "weights":
        return tuple(float(x) for x in value) if value else None
    return _cast(_CASTS[f.type], value, f.name, context)


def contract_from_dict(obj: dict) -> ContractSpec:
    kind = str(_need(obj, "type", "contract")).lower()
    if kind not in _CONTRACTS:
        raise SchemaError(f"unknown contract type '{kind}' in contract.type")
    cls = _CONTRACTS[kind]
    context = f"contract ({kind})"
    try:
        return cls(*(_field_from(f, obj, context) for f in fields(cls)))
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad contract field: {exc}") from exc


def runspec_from_dict(obj: dict) -> RunSpec:
    model = model_from_dict(_need(obj, "model", "specification"))
    contract = contract_from_dict(_need(obj, "contract", "specification"))
    spot = _cast(float, _need(obj, "spot", "specification"), "spot", "specification")
    pricing = obj.get("pricing", {})
    if not isinstance(pricing, dict):
        raise SchemaError("pricing must be a JSON object")
    tol = pricing.get("tol")
    return RunSpec(
        model=model,
        contract=contract,
        spot=spot,
        method=str(pricing.get("method", "fourier")).lower(),
        tol=None if tol is None else _cast(float, tol, "tol", "pricing"),
        paths=_cast(_whole, pricing.get("paths", 100_000), "paths", "pricing"),
        seed=_cast(_whole, pricing.get("seed", 0), "seed", "pricing"),
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
