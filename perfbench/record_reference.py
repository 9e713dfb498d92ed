#!/usr/bin/env python3
"""Record the output fingerprints the benchmark checks at fixed seeds.

Run from the repository root, on a commit whose outputs are the reference:

    python3 perfbench/record_reference.py --seeds 0 1 2 3 4

For every workload and seed, each operation is run once, its invariants are
checked, and its fingerprint (CSV digests, market counts and verdicts, audit
values) is written to perfbench/reference.json, replacing earlier records of
the same workload and seed.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from run import ROOT, THREAD_PINNING, WORK_DIR

os.environ.update(THREAD_PINNING)  # before NumPy loads its BLAS
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def record(name: str, seed: int, workdir: Path) -> dict:
    workload = workloads.WORKLOADS[name](seed, workdir, smoke=False)
    fingerprints = {}
    for op in workload.ops():
        out = op.run()
        problems = op.check(out)
        if problems:
            raise SystemExit(f"{name} seed {seed}: {op.name} fails its checks: {problems}")
        fingerprints[op.name] = op.fingerprint(out)
    return fingerprints


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()

    path = workloads.REFERENCE_PATH
    reference = json.loads(path.read_text()) if path.exists() else {}
    WORK_DIR.mkdir(exist_ok=True)
    for name in sorted(workloads.WORKLOADS):
        for seed in args.seeds:
            workdir = Path(tempfile.mkdtemp(prefix="record-", dir=WORK_DIR))
            try:
                reference.setdefault(name, {})[str(seed)] = record(name, seed, workdir)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            print(f"recorded {name} seed {seed}", flush=True)
            path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
