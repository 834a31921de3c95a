"""The baseline matrix: every contract of the roadmap table under every model.

Run from the repository root (takes several minutes, the slow cells included):

    python3 perfbench/matrix.py

Each cell is priced once with ``price_contract`` at default tolerance.  It
records the value, the claimed error, the true error against the Gaussian
closed form, convergence, integrand evaluations, quadrature levels and wall
time.  A cell that raises ``NoConvergence`` is kept, with the value the
exception carries.  Gaussian and NIG cells of discretely monitored contracts
also get a 2^20-path Monte Carlo price.  Prints a markdown table and writes
``perfbench/out/matrix.json``.
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import levyexotic as lx  # noqa: E402
from layertrace import LayerTrace  # noqa: E402
from workloads import SIGMA, R, SPOT, build_models, schedule  # noqa: E402

MC_PATHS = 1 << 20
MC_SEED = 7


def contracts():
    s3 = schedule(1.0 / 3.0, 2.0 / 3.0, 1.0)
    return {
        "forward start": lx.ForwardStart(0.5, 1.0),
        "Asian M=4": lx.AsianGeometric(schedule(0.25, 0.5, 0.75, 1.0), 100.0),
        "continuous Asian": lx.AsianContinuous(0.0, 1.0, 100.0),
        "chooser (N=2)": lx.Chooser(0.5, 1.0, 100.0),
        "compound depth 2": lx.Compound(((0.5, 3.0, 1), (1.0, 100.0, 1))),
        "compound depth 3": lx.Compound(((0.25, 2.0, 1), (0.5, 4.0, 1), (1.0, 100.0, 1))),
        "barrier M=3": lx.BarrierDownOutCall(s3, 90.0, 100.0),
        "lookback M=3": lx.LookbackFixed(s3, 100.0),
    }


def cell(c, model):
    row = {}
    with LayerTrace(lx) as tracer:
        t0 = time.perf_counter()
        try:
            res = lx.price_contract(c, model, SPOT)
            row["converged"] = True
        except lx.errors.NoConvergence as exc:
            res = exc.result
            row["converged"] = False
        row["wall_s"] = time.perf_counter() - t0
    row.update(value=res.value, claimed_error=res.quadrature_error, evaluations=res.evaluations,
               total_evaluations=tracer.totals["quadrature.evaluations"],
               levels=tracer.totals["quadrature.levels"])
    if model.kind == "gaussian":
        row["true_error"] = abs(res.value - lx.closed_form_price(c, SIGMA, R, SPOT))
    # MC needs a Gaussian or NIG model and depth <= 2; the continuous Asian's 256 steps cost too much
    if (model.kind in ("gaussian", "nig") and not isinstance(c, lx.AsianContinuous)
            and not (isinstance(c, lx.Compound) and len(c.legs) > 2)):
        mc = lx.mc_price(c, model, SPOT, MC_PATHS, MC_SEED)
        row["mc"] = [mc.estimate, mc.stderr]
    return row


def main():
    models = build_models()
    table = {}
    for cname, c in contracts().items():
        for mname, model in models.items():
            table[f"{cname} | {mname}"] = row = cell(c, model)
            print(f"{cname:18s} {mname:9s} {row['wall_s']:8.3f} s  "
                  f"{'' if row['converged'] else 'NC '}{row['value']:.10g}", file=sys.stderr, flush=True)
    print("| contract | " + " | ".join(models) + " |")
    print("| --- |" + " --- |" * len(models))
    for cname in contracts():
        cells = []
        for mname in models:
            row = table[f"{cname} | {mname}"]
            cells.append(f"{'' if row['converged'] else 'NC, '}{row['wall_s']:.3g} s")
        print(f"| {cname} | " + " | ".join(cells) + " |")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "matrix.json").write_text(json.dumps(table, indent=1))


if __name__ == "__main__":
    main()
