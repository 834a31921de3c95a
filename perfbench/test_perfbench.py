"""Fast checks of the benchmark itself.

A reduced pass of each workload (its warm-up operations) must pass its checks
apart from the known faults, its checks must catch a negated price, the layer
trace must count work and put the engine back, the speed gauge must scale by
its nearest samples, and ``run.py`` must print the
result line and refuse to run without the package source.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import levyexotic as lx  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from layertrace import METRICS, LayerTrace  # noqa: E402


def reduced_pass(name):
    ses = workloads.Session(seed=0)
    wl = workloads.build(name, ses)
    ops = [op for op in wl.ops if op.name in wl.warmup]
    out, errors, timings = workloads.run_pass(ops)
    assert len(timings) == len(ops)
    return wl, ops, out, errors, ses


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_reduced_pass_fails_only_known_faults(name):
    wl, ops, out, errors, ses = reduced_pass(name)
    failures = workloads.check_pass(ops, out, errors, ses)
    assert set(failures) <= wl.faults, failures
    assert len(out) + len(errors) == len(ops)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_negated_price_is_caught(name):
    wl, ops, out, errors, ses = reduced_pass(name)
    passed = set(out) - set(workloads.check_pass(ops, out, errors, ses))
    negatable = [n for n in passed if abs(out[n][0]) > 2.0 * out[n][1] + 1e-6]
    assert negatable
    for victim in negatable:
        v, e = out[victim]
        failures = workloads.check_pass(ops, {**out, victim: (-v, e)}, errors, ses)
        assert victim in failures, victim


def test_layer_trace_counts_and_restores():
    original = lx.price_digital
    model = workloads.build_models()["gaussian"]
    with LayerTrace(lx) as tracer:
        lx.price_contract(lx.Chooser(0.5, 1.0, 100.0), model, workloads.SPOT)
        lx.price_contract(workloads.european(1.0, 100.0), model, workloads.SPOT)
    assert lx.price_digital is original and lx.contracts.price_digital is original
    metrics = tracer.per_pass(1)
    assert set(metrics) == {name for name, _, _ in METRICS} - {"trace.overhead_s"}
    assert metrics["contracts.portfolio_terms"]["value"] == 6  # chooser 4, call 2
    assert metrics["digitals.price_calls"]["value"] == 6
    assert metrics["quadrature.evaluations"]["value"] > 0
    assert metrics["models.psi_points"]["value"] > 0
    assert 0.0 < metrics["quadrature.final_level_share"]["value"] <= 1.0


def test_speed_gauge_scales_by_nearest_samples():
    gauge = speed.SpeedGauge(interval=3600.0)
    gauge.sample()
    gauge.tick()  # within the interval: no sample
    assert len(gauge.kernels) == 1 and gauge.kernels[0] > 0
    gauge.times = [float(t) for t in range(10)]
    gauge.kernels = [0.01] * 5 + [0.04] * 5
    assert gauge.scale(1.0) == pytest.approx(speed.REFERENCE_S / 0.01)
    assert gauge.scale(9.5) == pytest.approx(speed.REFERENCE_S / 0.04)
    assert gauge.scale(5.0) == pytest.approx(speed.REFERENCE_S / 0.025)  # two of each side


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_run_prints_result_line():
    proc = run_bench(HERE.parent, "--workload", "vanilla-book", "--seed", "0", "--seconds", "0.1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] % 272 == 0 and 0 <= result["failed"] < result["attempted"]
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(METRICS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_refuses_without_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", "oracles", "--seed", "0", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""
