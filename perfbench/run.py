"""Benchmark of the levyexotic pricing engine: time to a checked price, split by layer.

Run from the repository root:

    python3 perfbench/run.py --workload vanilla-book --seed 1 --seconds 18 --trace 0

One workload runs in one process.  The run measures set-up in fresh
processes, warms up, then repeats whole passes over the workload's operations
for about ``--seconds``, and finally checks every output of every pass.
Every time is scaled to a reference machine speed by ``speed.SpeedGauge``,
which times a fixed kernel between operations.  With ``--trace 0`` it reports
the end-to-end metrics; with ``--trace 1`` it runs untraced and then traced
passes and reports the per-layer metrics.
The last line of standard output is one JSON object; a per-operation record
goes to ``perfbench/out/``.  The exit code is 2 when the package source is
missing.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def measure_setup(gauge) -> tuple[float, list]:
    """Median scaled time of fresh processes that import, build the models and price once.

    The gauge samples three times before and after each process; returns the
    median and the raw times.
    """
    runs = []
    gauge.sample(3)
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
                       check=True, stdout=subprocess.DEVNULL, timeout=120)
        runs.append((t0, time.perf_counter() - t0))
        gauge.sample(3)
    return statistics.median(d * gauge.scale(t0 + d / 2) for t0, d in runs), [d for _, d in runs]


def timed_passes(ops, seconds, run_pass, gauge):
    """Whole passes for about ``seconds``, the gauge ticking between operations.

    Passes stop once another one would end more than half a pass after
    ``seconds``; there is at least one.
    """
    passes = []
    gauge.sample(3)
    start = time.perf_counter()
    while True:
        passes.append(run_pass(ops, between=gauge.tick))
        elapsed = time.perf_counter() - start
        if elapsed * (1 + 0.5 / len(passes)) >= seconds:
            break
    gauge.sample(3)
    return passes


def scaled_latencies(passes, gauge):
    """Per pass, each operation's latency multiplied by the gauge's scale at its midpoint."""
    return [[lat * gauge.scale(t0 + lat / 2) for t0, lat in timings] for _, _, timings in passes]


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("vanilla-book", "multidate-exotics", "compound-roots", "oracles"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "levyexotic" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return 2

    nproc = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ.setdefault(var, nproc)
    sys.path.insert(0, str(SRC))
    import levyexotic
    import layertrace
    import speed
    import workloads

    if Path(levyexotic.__file__).resolve().parent != SRC / "levyexotic":
        print(f"perfbench: imported levyexotic from {levyexotic.__file__}, not {SRC}", file=sys.stderr)
        return 2

    gauge = speed.SpeedGauge()
    setup_s, setup_raw_s = measure_setup(gauge) if not args.trace else (None, [])
    ses = workloads.Session(args.seed)
    wl = workloads.build(args.workload, ses)
    warm = [op for op in wl.ops if op.name in set(wl.warmup)]
    workloads.run_pass(warm)

    if args.trace:
        plain = timed_passes(wl.ops, args.seconds / 2, workloads.run_pass, gauge)
        with layertrace.LayerTrace(levyexotic) as tracer:
            traced = timed_passes(wl.ops, args.seconds / 2, workloads.run_pass, gauge)
        passes = plain + traced
    else:
        passes = timed_passes(wl.ops, args.seconds, workloads.run_pass, gauge)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scaled = scaled_latencies(passes, gauge)
    walls = [sum(row) for row in scaled]

    failures = {}  # op name -> (count, reasons seen)
    for out, errors, _ in passes:
        for name, reason in workloads.check_pass(wl.ops, out, errors, ses).items():
            count, reasons = failures.get(name, (0, set()))
            failures[name] = (count + 1, reasons | {reason})
    attempted = len(wl.ops) * len(passes)
    failed = sum(count for count, _ in failures.values())
    unexpected = sorted(set(failures) - wl.faults)
    for name in sorted(failures):
        count, reasons = failures[name]
        tag = "known fault" if name in wl.faults else "UNEXPECTED"
        for reason in sorted(reasons):
            print(f"failed {count}x [{tag}] {name}: {reason}")

    if args.trace:
        metrics = tracer.per_pass(len(traced))
        overhead = statistics.median(walls[len(plain):]) - statistics.median(walls[:len(plain)])
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    # Recorded, not reported: on the workloads with 14 to 19 operations these
    # spread by up to a quarter of their median from run to run (README.md).
    per_op = [statistics.median(col) for col in zip(*scaled)]  # each operation's median over passes
    latency_ms = {"p50": 1e3 * statistics.median(lat for row in scaled for lat in row),
                  "p95": 1e3 * percentile(per_op, 95)}

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    first_out = passes[0][0]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "passes": len(passes), "pass_wall_s": walls,
        "pass_raw_s": [sum(lat for _, lat in timings) for _, _, timings in passes],
        "setup_raw_s": setup_raw_s, "gauge_kernel_s": gauge.kernels, "latency_ms": latency_ms,
        "operations": [
            {"name": op.name, "value": first_out.get(op.name, (None,))[0],
             "claimed_error": first_out.get(op.name, (None, None))[1], "latency_s": list(lats),
             "failure": sorted(failures[op.name][1]) if op.name in failures else None}
            for op, lats in zip(wl.ops, zip(*scaled))
        ],
        "metrics": metrics,
    }
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print(json.dumps({"correct": not unexpected, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
