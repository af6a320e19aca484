"""Self-test of the benchmark: every workload at a tiny size, both modes.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Each case runs the benchmark command as a subprocess (``--size tiny``,
one second) and checks the contract of its last output line against
``BENCHMARK.json``: every named metric present with its unit, every
output check passing, and — in traced mode — the per-layer seconds plus
``session.self_s`` adding up to the traced wall, which holds program time
only.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]

sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))
import hostspeed  # noqa: E402
import run as bench  # noqa: E402
from layers import WALL_LAYERS  # noqa: E402
from workloads import CallResult, CheckReport, Workload  # noqa: E402


def _run(workload: str, trace: int, *, seed: int = 3, cwd: Path = ROOT):
    command = [sys.executable, *SPEC["command"][1:]]
    completed = subprocess.run(
        [
            *command,
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", "1",
            "--trace", str(trace),
            "--size", "tiny",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return completed, result


def _assert_contract(result: dict, expected: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert set(result["metrics"]) == {metric["name"] for metric in expected}
    for metric in expected:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"], metric["name"]
        assert math.isfinite(emitted["value"]), metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_checks(workload):
    completed, result = _run(workload, 0)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    _assert_contract(result, SPEC["end_to_end"])
    assert "# check FAIL" not in completed.stdout
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["value"] != 0, metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_add_up_to_the_traced_wall(workload):
    completed, result = _run(workload, 1)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    _assert_contract(result, SPEC["per_layer"])
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    accounted = sum(values[layer] for layer in WALL_LAYERS) + values["session.self_s"]
    assert accounted == pytest.approx(values["trace.wall_s"], rel=1e-9)
    shares = sum(values[layer + ".share"] for layer in WALL_LAYERS)
    assert shares + values["session.self_s.share"] == pytest.approx(1.0, rel=1e-9)
    assert values["session.self_s"] >= 0
    assert values["engine.scalar_fallbacks"] == 0
    assert values["fleet.fallback_sessions"] == 0
    assert values["pool.failed_units"] == 0


def test_traced_wall_leaves_out_the_calibration_kernel(monkeypatch, tmp_path):
    call_s, kernel_s = 0.01, 0.05

    def kernel_seconds():
        time.sleep(kernel_s)
        return hostspeed.NOMINAL_KERNEL_S

    def call(state):
        time.sleep(call_s)
        return CallResult(1, [])

    monkeypatch.setattr(hostspeed, "kernel_seconds", kernel_seconds)
    workload = Workload(
        False, lambda: None, call, lambda state, obs_dir: CheckReport(), lambda report: None
    )
    metrics, loop, _ = bench.per_layer(workload, 0.02, tmp_path, [])
    wall = metrics["trace.wall_s"][0]
    calls = metrics["trace.calls"][0]
    assert calls >= 3
    # the traced segment ran calls + 1 kernels, none of which may count
    assert calls * call_s <= wall < calls * call_s + kernel_s


def test_paper_quantities_repeat_exactly_for_a_seed():
    runs = [_run("paper-stream", 0, seed=5)[1] for _ in range(2)]
    for name in ("sim_mean_quality", "sim_overhead_pct"):
        assert runs[0]["metrics"][name] == runs[1]["metrics"][name]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(
            ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__")
        )
    completed, result = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert completed.returncode != 0
    assert result is None
