"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

The traced-run tests start the real command and take a few minutes,
most of it the traced ``sweep``.
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

import reference as ref
from run import median, tail

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(*args: str, cwd: pathlib.Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=600)


def traced(workload: str, seed: int) -> dict:
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return result["metrics"]


def counts(metrics: dict) -> dict:
    return {k: m["value"] for k, m in metrics.items() if m["unit"] in ("count", "bits")}


@pytest.fixture(scope="module")
def runs():
    """Two traced runs with seed 1 per workload, and one with seed 2 for
    the workloads whose counts must not depend on the seed."""
    out = {}
    for workload in ("sweep", "homology", "chain-torsion", "cli"):
        seeds = (1, 1, 2) if workload in ("sweep", "homology") else (1, 1)
        out[workload] = [traced(workload, seed) for seed in seeds]
    return out


@pytest.mark.parametrize("workload", ["sweep", "homology", "chain-torsion", "cli"])
def test_counts_repeat_for_one_seed(runs, workload):
    first, second = runs[workload][:2]
    assert counts(first) == counts(second)


@pytest.mark.parametrize("workload", ["sweep", "homology"])
def test_counts_do_not_depend_on_the_seed(runs, workload):
    seed1, seed2 = counts(runs[workload][0]), counts(runs[workload][2])
    # group-law multiplies out random exponents: its mul count follows the seed
    seed_dependent = {"core.calls"} if workload == "sweep" else set()
    assert {k: v for k, v in seed1.items() if k not in seed_dependent} == \
        {k: v for k, v in seed2.items() if k not in seed_dependent}


@pytest.mark.parametrize("workload", ["sweep", "homology", "chain-torsion", "cli"])
def test_self_times_add_up_to_traced_wall(runs, workload):
    m = {k: v["value"] for k, v in runs[workload][0].items()}
    layers = ("core", "plane", "subgroups", "isotropy", "models", "verify",
              "simplicial", "snf", "abelian", "homology", "cli")
    total = sum(m[f"{layer}.self_s"] for layer in layers) + m["trace.unattributed_s"]
    assert total == pytest.approx(m["trace.wall_s"], rel=1e-9)
    assert 0 <= m["trace.unattributed_s"] < 0.1 * m["trace.wall_s"]


def test_busy_and_idle_layers(runs):
    sweep = counts(runs["sweep"][0])
    homology = counts(runs["homology"][0])
    assert sweep["plane.act_line.calls"] > 0 and sweep["verify.checks"] > 0
    assert sweep["simplicial.calls"] == sweep["snf.calls"] == 0
    assert homology["core.calls"] == homology["plane.calls"] == 0
    assert homology["simplicial.simplices"] > 0 and homology["snf.input_max_bits"] == 1


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "cli", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_percentile():
    # small rounds: the slowest task of each round, median over rounds
    assert tail([[3.0, 1.0], [2.0, 5.0], [4.0, 0.0]]) == (pytest.approx(4.0), 100.0, 3)
    # rounds of 100 tasks or more: p99 of all samples, ten or more beyond it
    few = [[float(i) for i in range(j, 201, 2)] for j in (1, 2)]
    assert tail(few) == (190.0, 95.0, 200)
    many = [[float(i) for i in range(j, 5001, 5)] for j in range(1, 6)]
    assert tail(many) == (4950.0, 99.0, 5000)


def test_median_weights():
    assert median([5.0]) == 5.0
    assert median([3.0, 1.0]) == pytest.approx(2.0)
    # I_x(2, 2) = 3x^2 - 2x^3, so three samples weigh 7/27, 13/27 and 7/27
    assert median([27.0, 0.0, 0.0]) == pytest.approx(7.0)
    # weights are symmetric, so a symmetric sample has its centre as median
    assert median([float(i) for i in range(1001)]) == pytest.approx(500.0)


def test_reference_group_law():
    g, h = (3, 1), (-5, 4)
    assert ref.mul(g, ref.inv(g)) == (0, 0)
    acc = (0, 0)
    for k in range(7):
        assert ref.power(g, k) == acc
        acc = ref.mul(acc, g)
    assert ref.contains((3, 1), (0, 2)) and not ref.contains((3, 1), (1, 2))
    assert ref.comm_class((2, 4)) == {"tag": "R", "representative": {"n": 1, "m": 2}}
    assert ref.comm_class(h) == {"tag": "R", "representative": {"n": 5, "m": 4}}
