"""Smoke test of the benchmark: one short pass of every workload on one
seed, untraced and traced, in a process of its own as the benchmark runs."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(BENCH))
import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# every workload the benchmark can run, including any BENCHMARK.json leaves
# out of the timed comparison
WORKLOADS = list(workloads.WORKLOADS)


def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines[1:-1]:
        if not line.startswith(" "):
            name, value, unit = line.split()[:3]
            printed[name] = (float(value), unit)
    return lines, printed, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_and_verdicts_correct(workload):
    _, printed, result = bench(workload, 0)
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, unit in {**units, "failed_ratio": "ratio"}.items():
        assert printed[name][1] == unit
    assert printed["failed_ratio"][0] == 0
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_passes_tracer_self_checks(workload):
    # run.py exits non-zero if a tracer self-check fails
    lines, printed, result = bench(workload, 1)
    assert any(line.strip().startswith("tracer self-checks ok")
               for line in lines)
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert result["correct"]
    assert (printed["conversion.fuel_ticks"][0]
            >= printed["conversion.conv.calls"][0] > 0)
    names, spans = tracer.load_spans(BENCH / "_work" / f"spans-{workload}.bin")
    roots = [i for i, p in enumerate(spans["parent"]) if p < 0]
    assert {names[spans["name"][i]] for i in roots} == {"cli.main"}
    assert len(roots) == len(set(spans["call"]))


def test_benchmark_json_names_runnable_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_sampler_probes_during_a_long_call_and_reports_its_own_time():
    with reference.Sampler() as sampler:
        sampler.begin()
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 10 * reference.INTERVAL_S:
            sum(range(1000))
        probes, stolen = sampler.end()
        time.sleep(3 * reference.INTERVAL_S)  # inactive: no more probes
        assert sampler.probes is probes and len(probes) >= 5
    assert 0 < sum(probes) <= stolen < time.perf_counter() - t0
    assert reference.speed_factor([reference.NOMINAL_S] * 3) == 1
