"""Tests of the benchmark itself: a reduced-size run of every workload, traced
and untraced, must report every metric BENCHMARK.json names, with its unit,
and pass every correctness check.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
from tracing import Tracer  # noqa: E402


def spec_units(section: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def bench(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = bench(ROOT, "--workload", workload, "--seed", "11", "--seconds", "1",
                 "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    assert any(line.startswith("provenance: ") for line in lines)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] == 0, proc.stdout[-3000:]
    assert result["correct"] and result["attempted"] >= 1
    units = spec_units("per_layer" if trace == "1" else "end_to_end")
    assert {n: m["unit"] for n, m in result["metrics"].items()} == units
    values = {n: m["value"] for n, m in result["metrics"].items()}
    if trace == "0":
        assert values["checks_ok_frac"] == 1.0
        assert all(v > 0 for v in values.values()), values
    else:
        assert values["frames.Frame.calls"] > 0 and values["frames.naive_clamps"] > 0


def test_refuses_without_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench(str(tmp_path), "--workload", "mc-d3", "--seed", "1", "--seconds", "1",
                 "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.spans = [["outer", 0.0, 10.0, -1], ["inner", 1.0, 4.0, 0], ["leaf", 2.0, 3.0, 1],
                    ["inner", 5.0, 6.0, 0]]
    summary = tracer.summary()
    assert summary["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}
    assert summary["inner"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0}
    assert summary["leaf"]["self_s"] == 1.0


def test_import_times_takes_outermost_entries():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |           scipy",
        "import time:       200 |       5000 |         scipy.linalg",
        "import time:       300 |       3000 |         scipy.special",
        "import time:       900 |     600000 |   spindir",
        "import time:       700 |      20000 | spindir.cli",
    ])
    assert run.import_times(stderr) == (0.02, 0.008)
