#!/usr/bin/env python3
"""Benchmark of credalmarket: one workload per invocation, in a fresh pinned process.

Run from the repository root:

    python3 perfbench/run.py --workload fairness --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload market --seed 1 --seconds 28 --trace 1
    python3 perfbench/run.py --workload audit --seed 0 --profile

Workloads: fairness, chi2_strategic, market, audit (see perfbench/README.md).
The workload runs in a child process with BLAS/OpenMP pinned to one thread
and the repository's ``src/`` as the only added import path.  With
``--trace 0`` the end-to-end metrics are reported; set-up is measured in that
process and in three set-up-only processes, and the median is reported.  The
two times are rescaled to a reference host speed (see hostspeed.py); the raw
wall times are printed before the result.
With ``--trace 1`` the per-layer metrics of a traced pass are reported.
``--profile`` prints the top functions by own time of one pass instead of a
result.  The last line of standard output is the JSON result.  Exit code 2
means the checkout has no credalmarket sources; 1 means the run itself broke.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fairness", "chi2_strategic", "market", "audit")
THREAD_PINNING = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
#: set-up-only processes started besides the measured one (untraced runs only)
SETUP_PROBES = 3
#: the whole invocation must end within this many seconds
DEADLINE_S = 170.0
#: scratch space inside the checkout; each run's files are removed when it ends
WORK_DIR = ROOT / ".perfbench-work"

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_PINNING)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(args, phase: str, workdir: Path, deadline: float, extra=()) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--phase", phase, "--workdir", str(workdir), *extra,
    ]
    if args.smoke:
        cmd.append("--smoke")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left before the deadline")
    try:
        # subprocess.run kills the child on timeout and waits for it
        return subprocess.run(cmd, env=worker_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{phase} worker did not finish within the deadline") from err


def worker_result(proc: subprocess.CompletedProcess, phase: str) -> dict:
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{phase} worker exited with code {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as err:
        raise BenchError(f"{phase} worker printed no result: {lines[-1]!r}") from err


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_facts(args, versions: dict) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": versions.get("numpy"),
        "scipy": versions.get("scipy"),
        "thread_pinning": THREAD_PINNING,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="non-negative; 0 reproduces the default scenarios")
    parser.add_argument("--seconds", type=float, default=28.0, help="measurement budget of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics from a traced run")
    parser.add_argument("--profile", action="store_true",
                        help="diagnostic: print cProfile's top 10 functions by tottime for one pass")
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes for testing the benchmark; invariant checks only")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def measure(args, rundir: Path, deadline: float) -> tuple[dict, dict]:
    """Run the workload; returns (result line, machine facts)."""
    setups, setup_walls = [], []
    if not args.trace:
        for i in range(SETUP_PROBES):
            probe = worker_result(start_worker(args, "setup", rundir / f"probe{i}", deadline), "setup")
            setups.append(probe["setup_s"])
            setup_walls.append(probe["setup_wall_s"])
    spans = WORK_DIR / "spans" / f"{args.workload}-seed{args.seed}.npz"
    extra = ("--spans", str(spans)) if args.trace else ()
    res = worker_result(start_worker(args, "run", rundir / "run", deadline, extra), "run")
    setups.append(res["setup_s"])
    setup_walls.append(res["setup_wall_s"])

    walls = res["walls"]
    passes = sum(len(v) for v in walls.values())
    error_rate = res["failed"] / res["attempted"]
    print(f"perfbench: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={passes} attempted={res['attempted']} failed={res['failed']} "
          f"error_rate={error_rate!r} reference_checked={str(res['reference_checked']).lower()}")
    for kind, values in walls.items():
        print(f"pass wall times ({kind}, s): {values}")
    if args.trace:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in res["layers"].items()}
        print(f"{'span':32} {'calls':>10} {'total_s':>10} {'self_s':>10}")
        for name, (calls, total, self_s) in res["layer_table"].items():
            print(f"{name:32} {calls:>10} {total:>10.4f} {self_s:>10.4f}")
        print(f"spans written to {spans.relative_to(ROOT)}")
    else:
        print(f"pass times at the reference host speed (s): {res['scaled_walls']}")
        print(f"host speed over each pass (reference = 1): {res['speeds']}")
        print(f"set-up wall times (s): {setup_walls}")
        print(f"set-up times at the reference host speed (s): {setups}")
        values = {
            "wall_s": statistics.median(res["scaled_walls"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    return result, machine_facts(args, res["versions"])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "credalmarket" / "__init__.py").is_file():
        print(f"error: no credalmarket sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    WORK_DIR.mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    try:
        if args.profile:
            proc = start_worker(args, "profile", rundir, deadline)
            print(proc.stdout, end="")
            return proc.returncode
        result, facts = measure(args, rundir, deadline)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    print(f"machine: {json.dumps(facts)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
