"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench``.  The
workloads run at reduced sizes (``--smoke``), where only invariants are
checked.
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(HERE), str(ROOT / "src")]
import hostspeed  # noqa: E402
import workloads  # noqa: E402


def run_bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *SPEC["command"][1:], *args]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)


def smoke_result(workload: str, trace: int) -> dict:
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_exactly_the_declared_metrics(workload, trace):
    result = smoke_result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace:
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        self_times = sum(v for name, v in metrics.items() if name.endswith("self_s"))
        assert self_times + metrics["trace.unattributed_s"] <= metrics["trace.wall_s"]


def test_checkout_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_inputs_depend_on_the_seed_only(tmp_path):
    def inputs(seed: int, name: str) -> dict:
        workdir = tmp_path / f"{name}-{seed}"
        workdir.mkdir()
        workloads.Market(seed, workdir, smoke=True)
        return {p.name: p.read_text() for p in sorted(workdir.iterdir())}

    first = inputs(5, "a")
    assert first == inputs(5, "b")
    assert first != inputs(6, "c")


def test_csv_reference_tolerates_last_bits_only(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("# scenario=x\nstep,value\n1,0.30000000000000004\n")
    recorded = workloads.csv_fingerprint(path)
    path.write_text("# scenario=x\nstep,value\n1,0.3\n")
    assert workloads.compare_csv(workloads.csv_fingerprint(path), recorded) == []
    path.write_text("# scenario=x\nstep,value\n1,0.3000001\n")
    assert workloads.compare_csv(workloads.csv_fingerprint(path), recorded) != []


def test_probe_samples_during_a_span_and_stops_its_timer():
    probe = hostspeed.Probe()
    t0 = time.perf_counter()
    probe.start()
    while time.perf_counter() - t0 < 0.45:
        pass
    wall = time.perf_counter() - t0
    rescaled = probe.stop(wall)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.samples) >= 3
    assert 0 < rescaled < wall * probe.speed  # the kernel's own time is taken out


def test_probe_samples_once_after_a_span_shorter_than_its_interval():
    probe = hostspeed.Probe()
    t0 = time.perf_counter()
    probe.start()
    rescaled = probe.stop(time.perf_counter() - t0)
    assert len(probe.samples) == 1 and probe.speed > 0
    assert abs(rescaled) < 1e-3  # the span was the warm-up alone, which is taken out
