"""One workload in one fresh process: set-up, timed passes, output checks.

Started by ``run.py`` with BLAS/OpenMP pinned to one thread and ``src/`` on
``PYTHONPATH``; prints one JSON object as its last line of standard output.
Phases:

* ``setup``   - build the workload and report the set-up time only;
* ``run``     - set up, then run whole passes of the workload's operations
  while the next pass is predicted to end within ``--seconds`` (at least one
  pass).  With ``--trace 1`` traced and untraced passes alternate, at least
  one of each, and the per-layer metrics of the median traced pass are
  reported;
* ``profile`` - set up, run one pass under cProfile and print the top
  functions by own time.  A diagnostic: never part of a timed run.

With ``--trace 0`` the set-up and every pass are also reported rescaled to
the reference host speed by a ``hostspeed.Probe`` that samples a calibration
kernel during them; the raw wall times are reported as well.
"""

import time

T_START = time.perf_counter()  # set-up time counts from here, before the imports

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402


def run_pass(ops, tracer=None, probe=None) -> tuple[float, float, dict]:
    """Run every operation once.

    Returns the pass wall time, the same rescaled by ``probe`` (the wall time
    again without one) and each output (or exception).
    """
    outputs = {}
    t0 = time.perf_counter()
    if probe is not None:
        probe.start()
    if tracer is not None:
        tracer.begin_pass()
    for op in ops:
        try:
            outputs[op.name] = op.run()
        except Exception as err:  # a failed operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            outputs[op.name] = err
    if tracer is not None:
        tracer.end_pass()
    wall = time.perf_counter() - t0
    return wall, (probe.stop(wall) if probe is not None else wall), outputs


def check_pass(ops, outputs: dict, reference) -> int:
    """Check one pass's outputs; prints each problem to stderr and returns the failed count."""
    failed = 0
    for op in ops:
        out = outputs[op.name]
        if isinstance(out, Exception):
            problems = [f"{op.name} raised {out!r}"]
        else:
            try:
                problems = op.check(out)
                if reference is not None:
                    problems += op.compare(op.fingerprint(out), reference[op.name])
            except Exception as err:  # an output the check cannot read is a failed operation
                traceback.print_exc(file=sys.stderr)
                problems = [f"{op.name}: output check raised {err!r}"]
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        failed += bool(problems)
    return failed


def median_index(values: list[float]) -> int:
    """Index of the lower median of ``values``."""
    order = sorted(range(len(values)), key=values.__getitem__)
    return order[(len(order) - 1) // 2]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("setup", "run", "profile"), default="run")
    parser.add_argument("--smoke", action="store_true", help="reduced sizes; invariants only")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, help="where the traced run writes its spans")
    args = parser.parse_args()
    # the probe samples the set-up from here on, and the untraced passes
    probe = hostspeed.Probe() if args.trace == 0 and args.phase != "profile" else None
    if probe is not None:
        probe.start()

    import workloads
    from tracer import Tracer, layer_metrics, layer_table

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    args.workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir, args.smoke)
    ops = workload.ops()
    setup_wall = time.perf_counter() - T_START
    setup_s = probe.stop(setup_wall) if probe is not None else setup_wall
    if args.phase == "setup":
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall}))
        return 0

    if args.phase == "profile":
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        _, outputs = profiler.runcall(run_pass, ops)
        failed = check_pass(ops, outputs, None)
        print(f"cProfile of one {args.workload} pass, seed {args.seed}: top 10 by tottime")
        pstats.Stats(profiler, stream=sys.stdout).sort_stats("tottime").print_stats(10)
        return 1 if failed else 0

    reference = None if args.smoke else workloads.load_reference(args.workload, args.seed)
    kinds = ("untraced", "traced") if args.trace else ("untraced",)
    tracer = Tracer() if args.trace else None
    walls: dict[str, list[float]] = {k: [] for k in kinds}
    scaled: list[float] = []  # passes rescaled by the probe
    speeds: list[float] = []
    traced_layers: list[tuple[dict, dict]] = []
    attempted = failed = 0
    peak_rss_mb = None
    t_begin = time.perf_counter()
    i = 0
    while True:
        kind = kinds[i % len(kinds)]
        if all(walls[k] for k in kinds):
            predicted = time.perf_counter() - t_begin + walls[kind][-1]
            if predicted > args.seconds:
                break
        # there is a probe only with --trace 0, where every pass is untraced
        wall, rescaled, outputs = run_pass(ops, tracer if kind == "traced" else None, probe)
        if probe is not None:
            scaled.append(rescaled)
            speeds.append(probe.speed)
        if peak_rss_mb is None:
            # the peak through the first pass; later passes redo the same work
            # but can raise the peak through heap fragmentation alone
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        walls[kind].append(wall)
        if kind == "traced":
            traced_layers.append((layer_metrics(tracer), layer_table(tracer)))
        attempted += len(ops)
        failed += check_pass(ops, outputs, reference)
        i += 1

    result = {
        "attempted": attempted,
        "failed": failed,
        "setup_s": setup_s,
        "setup_wall_s": setup_wall,
        "walls": walls,
        "scaled_walls": scaled,
        "speeds": speeds,
        "peak_rss_mb": peak_rss_mb,
        "reference_checked": reference is not None,
        "versions": versions(),
    }
    if args.trace:
        pick = median_index(walls["traced"])
        layers, table = traced_layers[pick]
        traced_wall = walls["traced"][pick]
        untraced_wall = statistics.median(walls["untraced"])
        layers["trace.wall_s"] = (traced_wall, "s")
        layers["trace.untraced_wall_s"] = (untraced_wall, "s")
        layers["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "ratio")
        result["layers"] = layers
        result["layer_table"] = table
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


def versions() -> dict:
    import numpy
    import scipy

    return {"numpy": numpy.__version__, "scipy": scipy.__version__}


if __name__ == "__main__":
    sys.exit(main())
