"""Smoke test of the benchmark: each workload once, at minimal size.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric BENCHMARK.json names is printed with its unit, that
the summary lines carry the named extras, that no command fails, that the
layer self times add up to the traced main spans, that counts repeat, and that
the benchmark refuses to run outside a tsl checkout.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import ladder  # noqa: E402
import spans  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

SUMMARY = {
    "exact-ladder": ("analyze.sym5_s", "analyze.cyc4-rank3_s"),
    "mc-absorbing": ("simulate.three_state_s", "simulate.cyc4-rank2_s", "sim_trials_per_s"),
    "mc-group": ("simulate.z4_pair_s", "simulate.z3_shift_s", "sim_trials_per_s"),
    "capacity-guard": ("analyze.full6-over-cap_s", "simulate.full6-over-cap_s"),
}


def bench(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


def result_of(done: subprocess.CompletedProcess, workload: str) -> tuple[dict, str]:
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, done.stderr
    per_pass = len(ladder.WORKLOADS[workload])
    assert result["attempted"] >= per_pass and result["attempted"] % per_pass == 0
    return result, "\n".join(lines[:-1])


def units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_benchmark_names_its_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(ladder.WORKLOADS)
    assert units("per_layer") == spans.UNITS


@pytest.mark.parametrize("workload", list(ladder.WORKLOADS))
def test_end_to_end_metrics(workload):
    result, text = result_of(bench(workload, 0), workload)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "  fail_ratio = 0 ratio" in text
    for name in SUMMARY[workload]:
        assert f"  {name} = " in text
    env = text.splitlines()[0]
    for key in ("python=", "revision=", "nproc=", "cpu=", "seed=7", "load="):
        assert key in env


@pytest.mark.parametrize("workload", list(ladder.WORKLOADS))
def test_layer_metrics(workload):
    result, _ = result_of(bench(workload, 1), workload)
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == units("per_layer")
    # In every traced pass the self times partition the main spans.
    with open(os.path.join(HERE, "out", f"{workload}-seed7-trace1-spans.json")) as fh:
        recorded = json.load(fh)["spans"]
    for index in sorted({s["pass"] for s in recorded}):
        layers = spans.pass_metrics(recorded, index)
        parts = sum(layers[m] for m in spans.TIME_METRICS if m != "cli.main_s")
        assert parts == pytest.approx(layers["cli.main_s"], rel=1e-9)
    if workload.startswith("mc-"):
        again, _ = result_of(bench(workload, 1), workload)
        for name, unit in units("per_layer").items():
            if unit == "count":
                assert again["metrics"][name] == metrics[name], name


def test_refuses_outside_a_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "out", "__pycache__"))
    done = bench("mc-group", 0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert done.stdout == ""
