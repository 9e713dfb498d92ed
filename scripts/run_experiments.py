#!/usr/bin/env python3
"""Run every experiment scenario with its default config and write the CSVs.

Usage:
    python scripts/run_experiments.py [--outdir results] [--seed SEED]
    python scripts/run_experiments.py --scenario fairness --outdir results
    python scripts/run_experiments.py --outdir new --check old

With ``--check DIR`` each CSV is compared byte for byte with
``DIR/<scenario>.csv`` after it is written; the script prints ``identical``
or ``differs`` per scenario and exits 1 if any differs or is missing.  Under
a ``differs`` line it prints one line per moved column: the number of moved
cells, the largest absolute and relative changes and the first three moved
rows, numbered from 1 below the header.  A changed header or row count is
one line instead.  An invalid option value, such as a negative seed, prints
``error: ...`` and exits 2 before any scenario runs.
"""

import argparse
import csv
import math
import sys
import time
from pathlib import Path

from credalmarket.experiments import SCENARIOS, load_config, run_scenario


def _table(path: Path) -> list[list[str]]:
    """The header and rows of a CSV, without its ``#`` comment line."""
    with path.open(newline="") as f:
        return list(csv.reader(line for line in f if not line.startswith("#")))


def _change(old: str, new: str) -> tuple[float, float] | None:
    """The absolute and relative change between two number cells, or None for text."""
    try:
        a, b = float(old), float(new)
    except ValueError:
        return None
    return abs(b - a), abs(b - a) / abs(a) if a else (math.inf if b else 0.0)


def moved_cells(new: Path, old: Path) -> list[str]:
    """One line per column whose cells differ between CSV ``old`` and CSV ``new``."""
    new_rows, old_rows = _table(new), _table(old)
    if new_rows[:1] != old_rows[:1]:
        return [f"header changed: {old_rows[:1]} -> {new_rows[:1]}"]
    if len(new_rows) != len(old_rows):
        return [f"row count changed: {len(old_rows) - 1} -> {len(new_rows) - 1}"]
    lines = []
    for j, name in enumerate(new_rows[0] if new_rows else []):
        moved = [i for i in range(1, len(new_rows)) if new_rows[i][j] != old_rows[i][j]]
        if not moved:
            continue
        changes = [c for c in (_change(old_rows[i][j], new_rows[i][j]) for i in moved)
                   if c is not None]
        size = (f"largest change {max(a for a, _ in changes):.3g} absolute, "
                f"{max(r for _, r in changes):.3g} relative" if changes else "text cells")
        lines.append(f"{name}: {len(moved)} moved cells, {size}, first rows {moved[:3]}")
    return lines or ["no cell moved: the comment line or the line endings differ"]


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
            if not same and reference.is_file():
                for line in moved_cells(path, reference):
                    print(f"    {line}")
            differs |= not same
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
