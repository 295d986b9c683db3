#!/usr/bin/env python3
"""Toy-size self-test of the benchmark; runs in seconds.

    python3 bench/selftest.py

It runs every workload's generator, solves and checks at toy sizes, traced
and untraced, and checks the shape of the results against BENCHMARK.json,
the span self-time arithmetic, the failure classification, and that the
benchmark refuses to report without the package.  It asserts nothing about
wall-clock times.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import run

workloads, tracing = run._import_bench()
run._workloads, run._tracing = workloads, tracing
run.SETUP_SAMPLES = 1

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def expect(cond, message):
    if not cond:
        raise AssertionError(message)


def test_metric_names_match_spec():
    expect([m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END), "end_to_end names")
    expect(all(run.END_TO_END[m["name"]] == m["unit"] for m in SPEC["end_to_end"]), "end_to_end units")
    expect([m["name"] for m in SPEC["per_layer"]] == list(tracing.PER_LAYER), "per_layer names")
    expect(
        all(tracing.PER_LAYER[m["name"]] == (m["unit"], m["better"]) for m in SPEC["per_layer"]),
        "per_layer units",
    )
    expect([w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS), "workload names")


def test_workloads_at_toy_size():
    loads = {
        "transform-deep-y": ("quadrature.calls", "matrix_oracle.sample_calls"),
        "matrix-dichotomy": ("matrix_oracle.sample_calls", "quadrature.calls"),
        "cli-large-n": ("cli.main_calls", None),
    }
    for name in workloads.WORKLOADS:
        result, lines = run.run_workload(name, seed=0, seconds=0, trace=False, toy=True)
        expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{name}: result keys")
        expect(result["attempted"] >= 1 and result["correct"], f"{name}: {lines}")
        expect(list(result["metrics"]) == list(run.END_TO_END), f"{name}: end-to-end metrics")
        for metric, m in result["metrics"].items():
            # toy ladders stop at y = 1e-6, where a probe may decide nothing
            low = 0.0 if metric.endswith("_frac") else math.ulp(0.0)
            high = 1.0 if metric.endswith("_frac") else math.inf
            expect(low <= m["value"] <= high, f"{name}: {metric} = {m['value']}")

        result, lines = run.run_workload(name, seed=0, seconds=0, trace=True, toy=True)
        metrics = result["metrics"]
        expect(list(metrics) == list(tracing.PER_LAYER), f"{name}: per-layer metrics")
        busy, idle = loads[name]
        expect(metrics[busy]["value"] > 0, f"{name}: {busy} is 0")
        if idle:
            expect(metrics[idle]["value"] == 0, f"{name}: {idle} is {metrics[idle]['value']}")
        expect(all(math.isfinite(m["value"]) for m in metrics.values()), f"{name}: non-finite metric")
        own = [metrics[f"{layer}.self_s"]["value"] for layer in tracing.LAYERS if f"{layer}.self_s" in metrics]
        expect(sum(own) > 0, f"{name}: no self time recorded")


def test_self_time_subtracts_children():
    t = tracing.Tracer()
    # cli.main [0, 10] > matrix_oracle.discretize [1, 4] > spectral_model.weight [2, 3]
    #                  > limit_analysis.limit_probe [5, 9]
    for name, start, end, parent in (
        ("cli.main", 0.0, 10.0, -1),
        ("matrix_oracle.discretize", 1.0, 4.0, 0),
        ("spectral_model.weight", 2.0, 3.0, 1),
        ("limit_analysis.limit_probe", 5.0, 9.0, 0),
    ):
        t.name_id.append(t._intern(name))
        t.start.append(start)
        t.end.append(end)
        t.parent.append(parent)
    own = t.self_times()
    expect(own["cli"] == 3.0 and own["matrix_oracle"] == 2.0, own)
    expect(own["spectral_model"] == 1.0 and own["limit_analysis"] == 4.0, own)


def test_off_reference_value_is_an_unexpected_failure():
    problem = workloads.transform_problems(0, run.OUT, toy=True)[0]  # a closed-form pair
    report, values, boundary = problem.solve()
    failures, _ = problem.verify((report, values, boundary))
    expect(failures == [], failures)
    shifted = values[0].__class__(values[0].value + 1e-6, values[0].abs_error_estimate, values[0].panels_used)
    failures, _ = problem.verify((report, [shifted] + values[1:], boundary))
    expect(len(failures) == 1 and failures[0].known is None, failures)


def test_refuses_without_the_package():
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "matrix-dichotomy", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(done.returncode != 0, "ran without the package")
    expect('"metrics"' not in done.stdout, "printed a result without the package")


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
