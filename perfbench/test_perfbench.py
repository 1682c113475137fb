"""Tests of the benchmark harness on its small-size workloads.

Run from the repository root:  python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("classify", "scan", "welded", "freenilp")

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

# each layer's calls must be non-zero on the workload that exercises it
CALLED_ON = {
    "classify": ["cli.main.calls", "permgroup.PermGroup.elements.calls",
                 "permgroup.lower_central_series.calls", "permgroup.normal_closure.calls",
                 "nilpotency.analyze.calls", "finite_quandle.validate.calls",
                 "finite_quandle.quotient_by_subgroup.calls", "lattice.IntLattice.cosets.calls",
                 "lattice.hnf_with_transform.calls", "two_nilpotent.build_quandle.calls",
                 "two_nilpotent.enveloping_extension.calls", "group_model.build.calls"],
    "scan": ["cli.main.calls", "kernels.reductive_witness.calls", "kernels.weak_witness.calls",
             "kernels.distributive_witness.calls", "nilpotency.analyze.calls"],
    "welded": ["cli.main.calls", "kernels.braid_fixes_all.calls",
               "welded.gamma_c_acts_trivially.calls", "welded.weight_c_commutators.calls",
               "welded.act_tuple.calls", "welded.compose.calls"],
    "freenilp": ["cli.main.calls", "magnus.mul.calls", "magnus.inv.calls",
                 "magnus.poly_mul.calls", "lie_trace.lie_bracket.calls"],
}


def bench(workload, trace, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--size", "small"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.fixture(scope="module")
def runs():
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = bench(workload, trace)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.splitlines()
            digest = next(line for line in lines if line.startswith("verdict_digest="))
            out[workload, trace] = (json.loads(lines[-1]), digest.split()[0])
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted(runs, workload):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        result, _ = runs[workload, trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert set(result["metrics"]) == {m["name"] for m in SPEC[kind]}
        units = {m["name"]: m["unit"] for m in SPEC[kind]}
        for name, metric in result["metrics"].items():
            assert metric["unit"] == units[name]
            assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_request_fails(runs, workload):
    for trace in (0, 1):
        result, _ = runs[workload, trace]
        assert result["attempted"] >= 1
        assert result["failed"] == 0 and result["correct"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_verdicts_agree(runs, workload):
    assert runs[workload, 0][1] == runs[workload, 1][1]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layers_are_called_where_mapped(runs, workload):
    metrics = runs[workload, 1][0]["metrics"]
    for name in CALLED_ON[workload]:
        assert metrics[name]["value"] > 0, name


def test_end_to_end_metrics_are_positive(runs):
    for workload in WORKLOADS:
        for metric in runs[workload, 0][0]["metrics"].values():
            assert metric["value"] > 0


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    proc = bench("scan", 0, cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
