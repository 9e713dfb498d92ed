#!/usr/bin/env python3
"""Run every experiment scenario with its default config and write the CSVs.

Usage:
    python scripts/run_experiments.py [--outdir results] [--seed SEED]
    python scripts/run_experiments.py --scenario fairness --outdir results
    python scripts/run_experiments.py --outdir new --check old

With ``--check DIR`` each CSV is compared byte for byte with
``DIR/<scenario>.csv`` after it is written; the script prints ``identical``
or ``differs`` per scenario and exits 1 if any differs or is missing.  An
invalid option value, such as a negative seed, prints ``error: ...`` and
exits 2 before any scenario runs.
"""

import argparse
import sys
import time
from pathlib import Path

from credalmarket.experiments import SCENARIOS, load_config, run_scenario


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results", help="output directory for CSVs")
    parser.add_argument("--scenario", choices=sorted(SCENARIOS), help="run a single scenario")
    parser.add_argument("--seed", type=int, help="seed override for every scenario")
    parser.add_argument("--check", metavar="DIR", help="compare each CSV's bytes with DIR/<scenario>.csv")
    args = parser.parse_args()

    names = [args.scenario] if args.scenario else sorted(SCENARIOS)
    try:
        configs = {name: load_config(name, seed=args.seed) for name in names}
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    differs = False
    for name, cfg in configs.items():
        t0 = time.perf_counter()
        table = run_scenario(cfg)
        path = outdir / f"{name}.csv"
        table.to_csv(path)
        print(f"{name}: wrote {path} in {time.perf_counter() - t0:.1f}s")
        for key in sorted(table.headline):
            print(f"  {key} = {table.headline[key]!r}")
        if args.check:
            reference = Path(args.check) / f"{name}.csv"
            same = reference.is_file() and reference.read_bytes() == path.read_bytes()
            print(f"  {'identical' if same else 'differs'}: {path} vs {reference}")
            differs |= not same
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
