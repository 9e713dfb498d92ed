"""The benchmark's operations pass their checks and match ``perfbench/reference.json``.

``perfbench/run.py`` counts an operation whose output fails its invariants
or differs from the recorded fingerprint as ``outputs_incorrect``.  These
tests run the same checks at seed 0 for the fairness, market and audit
workloads (about 3 s together; chi2_strategic, at about 6 s, is left to the
benchmark), so a change that moves a benchmark output fails here first.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
SEED = 0


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclass looks the module up while the file runs
    spec.loader.exec_module(workloads)
    return workloads


@pytest.mark.parametrize("name", ["fairness", "market", "audit"])
def test_operations_match_the_reference(name, tmp_path):
    workloads = load_workloads()
    reference = workloads.load_reference(name, SEED)
    assert reference is not None, f"no reference for {name} at seed {SEED}"
    workload = workloads.WORKLOADS[name](SEED, tmp_path, smoke=False)
    ops = workload.ops()
    assert sorted(op.name for op in ops) == sorted(reference)
    problems = []
    for op in ops:
        out = op.run()
        problems += [f"{op.name}: {p}" for p in op.check(out)]
        problems += [f"{op.name}: {p}" for p in op.compare(op.fingerprint(out), reference[op.name])]
    assert problems == []
