"""Print one line per pricing output, so that two checkouts can be compared with ``diff``.

A pure refactor of the engine must leave every price bit for bit the same.
Run this script from the root of each checkout and compare what it prints:

    python3 tools/identity_outputs.py > before.txt    # on the parent commit
    python3 tools/identity_outputs.py > after.txt     # on the change
    diff before.txt after.txt

A change that is meant to move prices within their claims is checked with

    python3 tools/identity_outputs.py --compare before.txt after.txt

which counts the lines that are byte-identical, those whose values lie within
both claims + 1e-12 * (1 + |value|) of each other, those that lie outside,
and the new stalls (NoConvergence after, none before), names each line of
the last two kinds, and prints each side's total of evaluations.  A line is
classified by its values and claims alone when nothing else in it differs
but the contour offsets (``ContourOffsets(...)``); such lines are also
counted as "offsets moved".  Any other difference of the text, an error
message or a count of results say, makes the line "outside".

Each line is a label and the repr of (value, quadrature_error, evaluations,
offsets_used) of a PriceResult; a price that raises NoConvergence prints the
repr of its result and its message instead, and any other exception its type
and message.  The outputs are:

- every output of the four benchmark workloads at seed 1, with every
  ``price_contract`` call their passes and checks make;
- the baseline matrix's 32 cells and the 4-date barriers, at default arguments;
- every N >= 2 term of the 2- and 3-date barriers, the 3-date lookback, the
  chooser and the depth-3 compound under each model, priced by ``delta``, at
  ``fixed_nodes=64``, at offset position 0.3 and at spot 70;
- spot strips: those of the MC compound's inner curve, and one-date strips
  that split into several offset groups;
- the continuous Asian at default arguments, at offset position 0.3 and at
  ``fixed_nodes=64``, and at default arguments over maturities 0.1, 1 and 3
  and strikes 50, 100 and 200;
- one-date cash and asset digitals, calls and puts, at the extremes of the
  maturity x strike sweep: T in {0.02, 5} x K in {50, 200};
- two short-dated choosers that stall at their node cap;
- ``lemma1_contour_side`` for N = 2 and N = 3.

The script reads the benchmark harness under ``perfbench/`` and changes
nothing there.  It takes about ten seconds.
"""
from __future__ import annotations

import argparse
import math
import re
import sys
from collections import Counter
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import levyexotic as lx  # noqa: E402
from levyexotic import mc  # noqa: E402
from levyexotic.digitals import _price_core  # noqa: E402
from levyexotic.errors import NoConvergence  # noqa: E402

import matrix  # noqa: E402
import workloads  # noqa: E402

SPOT = workloads.SPOT


def described(res) -> str:
    return repr((res.value, res.quadrature_error, res.evaluations, res.offsets_used))


def emit(label, price):
    """Print ``label`` and the outcome of ``price()``: a PriceResult, a list of them, or another value."""
    try:
        out = price()
    except NoConvergence as exc:
        text = f"NoConvergence {described(exc.result) if exc.result is not None else None} {exc}"
    except Exception as exc:  # the outcome is what is compared, whatever it is
        text = f"{type(exc).__name__} {exc}"
    else:
        if isinstance(out, lx.PriceResult):
            text = described(out)
        elif isinstance(out, list) and all(isinstance(res, lx.PriceResult) for res in out):
            text = repr([described(res) for res in out])
        else:
            text = repr(out)
    print(f"{label}: {text}", flush=True)


def workload_outputs():
    """Every operation of each workload at seed 1, and each ``price_contract`` call behind it."""
    priced = lx.price_contract
    calls = []

    def recorded(c, model, spot, *args, **kwargs):
        label = f"  price_contract {c!r} {model.kind} {spot!r} {args!r} {kwargs!r}"
        try:
            res = priced(c, model, spot, *args, **kwargs)
        except NoConvergence as exc:
            calls.append(f"{label}: NoConvergence {described(exc.result)} {exc}")
            raise
        calls.append(f"{label}: {described(res)}")
        return res

    lx.price_contract = recorded
    try:
        for name in workloads.WORKLOADS:
            ses = workloads.Session(1)
            work = workloads.build(name, ses)
            out, errors, _ = workloads.run_pass(work.ops)
            failures = workloads.check_pass(work.ops, out, errors, ses)
            for op in work.ops:
                print(f"{name}/{op.name}: {out.get(op.name)!r} {errors.get(op.name)!r} "
                      f"{failures.get(op.name) if op.name not in errors else None!r}")
            print("\n".join(calls), flush=True)
            calls.clear()
    finally:
        lx.price_contract = priced


def main():
    workload_outputs()
    models = workloads.build_models()

    four_dates = workloads.schedule(0.25, 0.5, 0.75, 1.0)
    cells = dict(matrix.contracts(), **{"barrier M=4": lx.BarrierDownOutCall(four_dates, 90.0, 100.0)})
    for cname, c in cells.items():
        for mname, model in models.items():
            emit(f"matrix {cname} | {mname}", lambda: lx.price_contract(c, model, SPOT))

    s2, s3 = workloads.schedule(0.5, 1.0), workloads.schedule(1.0 / 3.0, 2.0 / 3.0, 1.0)
    multi = {
        "barrier-2date": lx.BarrierDownOutCall(s2, 90.0, 100.0),
        "barrier-3date": lx.BarrierDownOutCall(s3, 90.0, 100.0),
        "lookback-3date": lx.LookbackFixed(s3, 100.0),
        "chooser": lx.Chooser(0.5, 1.0, 100.0),
        "compound-depth3": lx.Compound(((0.25, 2.0, 1), (0.5, 4.0, 1), (1.0, 100.0, 1))),
    }
    for cname, c in multi.items():
        for mname, model in models.items():
            for i, (_, sched, p) in enumerate(lx.to_portfolio(c, model).terms):
                if p.n < 2:
                    continue
                label = f"term {cname} {i} | {mname}"
                emit(f"{label} delta", lambda: lx.delta(model, sched, p, SPOT))
                emit(f"{label} fixed_nodes=64", lambda: lx.price_digital(model, sched, p, SPOT, fixed_nodes=64))
                emit(f"{label} position=0.3", lambda: lx.price_digital(
                    model, sched, p, SPOT, offsets=lx.default_offsets(model, p, position=0.3)))
                emit(f"{label} spot=70", lambda: lx.price_digital(model, sched, p, 70.0))

    for mname in ("gaussian", "nig"):
        model = models[mname]
        grid = np.linspace(math.log(40.0) - 0.5, math.log(250.0) + 0.5, 320)
        sched = lx.MonitoringSchedule(0.5, (1.0,))
        for gamma in (1.0, 0.0):
            p = lx.PayoffParameterSet((gamma,), (math.log(100.0),), (1,), ((1.0,),))
            emit(f"inner-curve strip gamma={gamma:g} | {mname}",
                 lambda: _price_core(model, sched, p, [math.exp(g) for g in grid]))
        emit(f"inner-curve spline | {mname}", lambda: mc._vanilla_curve(
            model, 0.5, (1.0, 100.0, 1), math.log(40.0), math.log(250.0)).c.tolist())
    spots = np.geomspace(20.0, 500.0, 9).tolist()
    for mname, model in models.items():
        for gamma in (0.0, 1.0):
            for w in (1, -1):
                p = lx.PayoffParameterSet((gamma,), (math.log(100.0),), (w,), ((1.0,),))
                emit(f"grouped strip gamma={gamma:g} w={w} | {mname}",
                     lambda: _price_core(model, lx.MonitoringSchedule(0.0, (1.0,)), p, spots))

    for mname, model in models.items():
        for w in (1, -1):
            c = lx.AsianContinuous(0.0, 1.0, 100.0, w)
            emit(f"continuous Asian w={w} | {mname}", lambda: lx.price_contract(c, model, SPOT))
            emit(f"continuous Asian w={w} position=0.3 | {mname}",
                 lambda: lx.price_contract(c, model, SPOT, offset_position=0.3))
            emit(f"continuous Asian w={w} fixed_nodes=64 | {mname}",
                 lambda: lx.price_contract(c, model, SPOT, fixed_nodes=64))
            for tau in (0.1, 1.0, 3.0):
                for K in (50.0, 100.0, 200.0):
                    if (tau, K) != (1.0, 100.0):
                        emit(f"continuous Asian w={w} tau={tau:g} K={K:g} | {mname}",
                             lambda: lx.price_contract(lx.AsianContinuous(0.0, tau, K, w), model, SPOT))

    for (mname, model), T, K, gamma, w in product(models.items(), (0.02, 5.0), (50.0, 200.0), (0.0, 1.0), (1, -1)):
        p = lx.PayoffParameterSet((gamma,), (math.log(K),), (w,), ((1.0,),))
        emit(f"one-date digital gamma={gamma:g} w={w} T={T:g} K={K:g} | {mname}",
             lambda: lx.price_digital(model, lx.MonitoringSchedule(0.0, (T,)), p, SPOT))

    # short-dated choosers whose chain ladders stop at their node cap
    for mname, T in (("nig", 0.02), ("cgmy05", 0.1)):
        emit(f"stalled chooser T={T:g} | {mname}",
             lambda: lx.price_contract(lx.Chooser(T / 2, T, 100.0), models[mname], SPOT))

    emit("lemma1 N=2", lambda: lx.lemma1_contour_side([1.0, -0.5], [[1.0, 0.3], [0.3, 1.0]], [1, -1], [0.8, 1.2]))
    emit("lemma1 N=3", lambda: lx.lemma1_contour_side(
        [0.3, -0.4, 0.8], [[1.0, 0.4, 0.2], [0.4, 1.0, 0.5], [0.2, 0.5, 1.0]], [1, -1, 1], [1.0, 0.7, 1.3], 1e-6))


_NUMBER = r"(?:np\.float64\()?([-+]?(?:\d+\.?\d*(?:e[-+]?\d+)?|nan|inf))\)?"
# (value, error) or (value, error, evaluations, ...): a workload output or a ``described`` PriceResult
_RESULT = re.compile(rf"\({_NUMBER}, {_NUMBER}(?:, (\d+))?[,)]")
_LABEL = re.compile(r"^(.*?): (?=[(\[]|\w+ )")
_OFFSETS = re.compile(r"ContourOffsets\(omega=\([^)]*\)\)")


def _keyed(path):
    """The outputs of an output file by (label, occurrence), in order."""
    seen, out = Counter(), {}
    for line in Path(path).read_text().splitlines():
        match = _LABEL.match(line)
        label = match.group(1) if match else line
        out[label, seen[label]] = line[match.end():] if match else ""
        seen[label] += 1
    return out


def _results(text):
    """The (value, error, evaluations or None) of each result in an output, and the output without them."""
    found = [(float(v), float(e), int(n) if n else None) for v, e, n in _RESULT.findall(text)]
    return found, _RESULT.sub("", text)


def _kind(before, after):
    """'identical', 'new stall', 'within' (both claims + 1e-12 (1 + |value|)) or 'outside', and whether offsets moved.

    Contour offsets are set aside before the rest of the two texts is
    compared, so a line whose offsets alone moved is judged by its values.
    """
    if before == after:
        return "identical", False
    moved = _OFFSETS.findall(before) != _OFFSETS.findall(after)
    stalled = [text.startswith("NoConvergence ") for text in (before, after)]
    if stalled == [False, True]:
        return "new stall", moved
    (old, old_rest), (new, new_rest) = _results(before), _results(after)
    if not old or len(old) != len(new) or (_OFFSETS.sub("", old_rest) != _OFFSETS.sub("", new_rest)
                                           and not all(stalled)):
        return "outside", moved
    close = all(abs(a - b) <= ea + eb + 1e-12 * (1.0 + abs(a)) for (a, ea, _), (b, eb, _) in zip(old, new))
    return ("within" if close else "outside"), moved


def compare(before_path, after_path):
    """Print the counts of ``_kind`` over the lines both files share, the lines whose offsets moved, and each side's evaluations."""
    before, after = _keyed(before_path), _keyed(after_path)
    kinds, moved = Counter(), 0
    for key in before.keys() & after.keys():
        kind, offsets_moved = _kind(before[key], after[key])
        kinds[kind] += 1
        moved += offsets_moved
        if kind in ("outside", "new stall"):
            print(f"{kind}: {key[0]}\n  before {before[key]}\n  after  {after[key]}")
    for kind in ("identical", "within", "outside", "new stall"):
        print(f"{kind}: {kinds[kind]}")
    print(f"offsets moved: {moved}")
    print(f"only before: {len(before.keys() - after.keys())}, only after: {len(after.keys() - before.keys())}")
    for side, lines in (("before", before), ("after", after)):
        total = sum(n for line in lines.values() for _, _, n in _results(line)[0] if n is not None)
        print(f"evaluations {side}: {total}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="compare two saved outputs instead of printing this checkout's")
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
    else:
        main()
