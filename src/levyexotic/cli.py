"""Command-line front end: price a spec file, run validation, study convergence.

Exit codes: 0 success, 1 validation failure, 2 parse/schema error,
3 pricing error, 4 unsupported method/model pairing.  stdout carries only
the JSON or CSV payload; human-readable messages go to stderr.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import time

from .contracts import AsianContinuous, _price_portfolio, price_contract, to_portfolio
from .digitals import DEFAULT_TOL_ND
from .errors import PricingError, SchemaError, UnsupportedModel
from .gaussian import closed_form_price
from .mc import SAMPLED_MODELS, mc_price
from .models import GaussianModel
from .serialization import (
    METHODS,
    RunSpec,
    contract_to_dict,
    model_to_dict,
    runspec_from_dict,
)
from .validation import SUITES, run_suite

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SCHEMA = 2
EXIT_PRICING = 3
EXIT_UNSUPPORTED = 4


def _load_spec(path: str) -> RunSpec:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise SchemaError(f"cannot read spec file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON in spec file: {exc}") from exc
    return runspec_from_dict(payload)


def _check_pairing(spec: RunSpec) -> None:
    if spec.method == "closed_form" and not isinstance(spec.model, GaussianModel):
        raise UnsupportedModel("closed_form requires a Gaussian model")
    if spec.method == "mc" and not isinstance(spec.model, SAMPLED_MODELS):
        raise UnsupportedModel(f"mc has no path sampler for the {spec.model.kind} model")


def _price_report(spec: RunSpec) -> dict:
    report = {
        "method": spec.method,
        "model": model_to_dict(spec.model),
        "contract": contract_to_dict(spec.contract),
    }
    if spec.method == "fourier":
        res = price_contract(spec.contract, spec.model, spec.spot, tol=spec.tol)
        report["price"] = res.value
        report["error_estimate"] = res.quadrature_error
        report["diagnostics"] = {
            "dimensions": list(res.dimensions),
            "evaluations": res.evaluations,
            "offsets": list(res.offsets_used.omega) if res.offsets_used else None,
        }
    elif spec.method == "mc":
        res = mc_price(spec.contract, spec.model, spec.spot, spec.paths, spec.seed)
        report["price"] = res.estimate
        report["stderr"] = res.stderr
        report["diagnostics"] = {
            "dimensions": None,
            "evaluations": res.n_paths,
            "offsets": None,
        }
    else:
        value = closed_form_price(spec.contract, spec.model.sigma, spec.model.r, spec.spot)
        report["price"] = value
        report["error_estimate"] = 0.0
        report["diagnostics"] = {"dimensions": None, "evaluations": 0, "offsets": None}
    return report


def cmd_price(args) -> int:
    spec = _load_spec(args.spec)
    overrides = {name: getattr(args, name) for name in ("method", "tol", "paths", "seed")
                 if getattr(args, name) is not None}
    spec = dataclasses.replace(spec, **overrides)
    _check_pairing(spec)
    report = _price_report(spec)
    print(json.dumps(report, sort_keys=True))
    return EXIT_OK


def cmd_validate(args) -> int:
    results = run_suite(args.suite, limit=args.limit)
    payload = [res.summary() for res in results]
    print(json.dumps(payload if len(payload) > 1 else payload[0], sort_keys=True))
    for res in results:
        if not res.ok:
            first = res.failures[0]
            print(f"suite '{res.suite}' failed; first case: {json.dumps(first, sort_keys=True)}",
                  file=sys.stderr)
            return EXIT_VALIDATION
    return EXIT_OK


def _grid_resolutions(dims: int) -> list[int]:
    """Node counts per axis for a grid study of a contract with ``dims`` exercise dimensions."""
    if dims <= 1:
        return [64, 128, 256, 512, 1024]
    if dims == 2:
        return [32, 64, 128, 256, 512]
    return [32, 64, 128]  # a fixed grid of 16 nodes has no half level to be measured against


def cmd_convergence(args) -> int:
    spec = _load_spec(args.spec)
    print("resolution,price,error,wall_time_ms")
    if args.axis == "grid":
        if isinstance(spec.contract, AsianContinuous):
            dims, price = 1, functools.partial(price_contract, spec.contract)
        else:
            # solved once, at price_contract's own tolerance: a compound's
            # critical prices do not depend on the grid
            port = to_portfolio(spec.contract, spec.model, tol=DEFAULT_TOL_ND)
            dims = max((p.n for _, _, p in port.terms), default=0)
            price = functools.partial(_price_portfolio, port)
        prev = None
        for nodes in _grid_resolutions(dims):
            start = time.perf_counter()
            res = price(spec.model, spec.spot, fixed_nodes=nodes)
            elapsed = (time.perf_counter() - start) * 1e3
            err = "" if prev is None else f"{abs(res.value - prev):.6e}"
            print(f"{nodes},{res.value:.10f},{err},{elapsed:.3f}")
            prev = res.value
    else:
        _check_pairing(dataclasses.replace(spec, method="mc"))
        n = 10_000
        while n <= 1_000_000:
            start = time.perf_counter()
            res = mc_price(spec.contract, spec.model, spec.spot, n, spec.seed)
            elapsed = (time.perf_counter() - start) * 1e3
            print(f"{n},{res.estimate:.10f},{res.stderr:.6e},{elapsed:.3f}")
            n *= 4
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levyexotic",
        description="Price discretely monitored exotic options under exponential Levy models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_price = sub.add_parser("price", help="price the contract in a JSON spec file")
    p_price.add_argument("--spec", required=True, help="path to the JSON spec file")
    p_price.add_argument("--method", choices=METHODS)
    p_price.add_argument("--tol", type=float)
    p_price.add_argument("--paths", type=int)
    p_price.add_argument("--seed", type=int)
    p_price.set_defaults(func=cmd_price)

    p_val = sub.add_parser("validate", help="run a built-in validation suite")
    p_val.add_argument("suite", choices=SUITES + ("all",))
    p_val.add_argument("--limit", type=int, default=None,
                       help="cap the number of cases (smoke runs)")
    p_val.set_defaults(func=cmd_validate)

    p_conv = sub.add_parser("convergence", help="emit a CSV refinement study")
    p_conv.add_argument("--spec", required=True)
    p_conv.add_argument("--axis", choices=("grid", "paths"), required=True,
                        help="grid: one fixed node count per axis and level (fixed_nodes; y-nodes of the "
                             "sinh contour of a one-condition digital or continuous Asian); "
                             "paths: Monte Carlo path counts")
    p_conv.set_defaults(func=cmd_convergence)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"error: SchemaError: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except UnsupportedModel as exc:
        print(f"error: UnsupportedModel: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except PricingError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PRICING


if __name__ == "__main__":
    sys.exit(main())
