"""Command-line entry point.

Commands
--------
* ``license optimal``  - optimal licenses (both risk attitudes) for a provider
  type against a credal set; prints values and obedience verdicts, writes a
  license JSON.
* ``market simulate``  - run a provider population through a mechanism and
  write the market report CSV plus a JSON summary.
* ``betting run``      - one adaptive betting trajectory as CSV.
* ``experiment <scenario>`` - run a scenario and write its CSV table.

Exit codes: 0 success, 1 optimizer non-convergence or a risk-averse license
that is not obedient (best-found still written), 2 config or input errors.
stdout carries summary lines only; diagnostics go to stderr.

JSON inputs are read by the ``json_*`` rules of :mod:`credalmarket.evidence`.
Commands raise ``ValueError`` for every input error, before any work, and
:func:`main` alone prints ``error: ...`` and returns 2; any other exception
is a bug and keeps its traceback.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .betting import BettingScore, KellyConfig, write_trajectory_csv
from .credal import CredalSet
from .evidence import (
    EvidenceSpace,
    SampleStream,
    json_integer,
    json_labels,
    json_list,
    json_categorical,
    json_number,
    json_numbers,
    json_object,
    json_string,
    load_json,
    write_json,
)
from .experiments import SCENARIOS, load_config, run_scenario
from .licenses import (
    MechanismParams,
    is_obedient,
    neyman_pearson_license,
    optimal_risk_averse_license,
    participation_decision,
    sup_value_over_obedient,
)
from .market import Provider, Requirement, simulate_market

EXIT_OK = 0
EXIT_NONCONVERGED = 1
EXIT_CONFIG = 2

NONCONVERGED = ("the risk-averse optimizer hit its iteration cap or returned a license "
                "that is not obedient")


def _check_out(path: str, force: bool) -> None:
    if not str(path):  # Path("") is the working directory
        raise ValueError("output path --out is empty")
    target = Path(path)
    if target.is_dir():
        raise ValueError(f"output {path} is a directory")
    if target.exists() and not force:
        raise ValueError(f"output {path} exists; pass --force to overwrite")
    parent = target.parent
    if not parent.is_dir():
        raise ValueError(f"output directory {parent} does not exist")


def cmd_license(args: argparse.Namespace) -> int:
    credal = CredalSet.load(args.credal)
    fields = ("provider", "params")
    payload = json_object(load_json(args.config, "license config"), fields, "license config",
                          required=fields)
    params = MechanismParams.from_json(payload["params"], "license config field 'params'")
    q = json_categorical(payload["provider"], "license config field 'provider'", credal.space)
    if args.out is not None:
        _check_out(args.out, args.force)

    neutral = sup_value_over_obedient(q, credal, params)
    averse = optimal_risk_averse_license(q, credal, params)
    for name, result in (("risk_neutral", neutral), ("risk_averse", averse)):
        obedient = is_obedient(result.license, credal, params)
        print(f"{name}_value={result.value!r}")
        print(f"{name}_obedient={str(obedient).lower()}")
    verdict = "participate (sup > C)" if participation_decision(neutral.value, params) else "excluded (sup <= C)"
    print(f"verdict={verdict}")
    if len(credal.vertices) == 1:
        np_license = neyman_pearson_license(q, credal.vertices[0], params)
        print(f"neyman_pearson_payout={np_license.payout.tolist()!r}")

    if args.out is not None:
        write_json(args.out, {
            "risk_neutral": neutral.license.to_json(params),
            "risk_averse": averse.license.to_json(params),
            "values": {"risk_neutral": neutral.value, "risk_averse": averse.value},
        })
        print(f"wrote={args.out}")
    if not averse.converged:
        print(f"warning: {NONCONVERGED}", file=sys.stderr)
        return EXIT_NONCONVERGED
    return EXIT_OK


def cmd_market(args: argparse.Namespace) -> int:
    credal = CredalSet.load(args.credal)
    payload = json_object(load_json(args.config, "market config"),
                          ("params", "providers", "requirement", "mechanism", "seed", "n"),
                          "market config", required=("params", "providers", "requirement"))
    params = MechanismParams.from_json(payload["params"], "market config field 'params'")
    providers = []
    for row in json_list(payload["providers"], "market config field 'providers'"):
        json_object(row, ("id", "q"), "provider entry", required=("id", "q"))
        q = json_categorical(row["q"], "provider entry field 'q'", credal.space)
        providers.append(Provider(id=json_string(row["id"], "provider entry field 'id'"), q=q))
    req = json_object(payload["requirement"], ("kind", "metric", "tau"), "requirement",
                      required=("kind",))
    if req["kind"] == "threshold":
        # a missing metric or tau reads as null, which the rules name and reject
        metric = json_numbers(req.get("metric"), "requirement field 'metric'", credal.space.size)
        tau = json_number(req.get("tau"), "requirement field 'tau'")
        requirement = Requirement(kind="threshold", metric=metric, tau=tau)
    else:  # Requirement rejects unknown kinds, and a metric or tau on a credal one
        requirement = Requirement(kind=req["kind"], credal=credal,
                                  metric=req.get("metric"), tau=req.get("tau"))
    n = json_integer(payload.get("n", 500), "market config field 'n'", 0)
    seed = json_integer(args.seed if args.seed is not None else payload.get("seed", 0), "seed", 0)
    if args.out is not None:
        _check_out(args.out, args.force)
        summary = Path(args.out).with_suffix(".summary.json")
        _check_out(summary, args.force)
    report = simulate_market(providers, requirement, credal, params,
                             mechanism=payload.get("mechanism", "optimal-LP"), n=n, seed=seed)

    if args.out is not None:
        report.to_csv(args.out)
        report.save_summary(summary)
        print(f"wrote={args.out}")
    print(f"perfect={str(report.perfect).lower()}")
    for name, count in report.counts().items():
        print(f"count_{name}={count}")
    if report.nonconverged:  # a warning only: the report itself is complete
        print(f"warning: {NONCONVERGED} for providers {', '.join(report.nonconverged)}",
              file=sys.stderr)
    return EXIT_OK


def cmd_betting(args: argparse.Namespace) -> int:
    payload = json_object(load_json(args.config, "betting config"),
                          ("params", "labels", "source", "metric", "tau", "n", "seed"),
                          "betting config",
                          required=("params", "labels", "source", "metric", "tau"))
    params = MechanismParams.from_json(payload["params"], "betting config field 'params'")
    space = EvidenceSpace(json_labels(payload["labels"], "betting config field 'labels'"))
    source = json_categorical(payload["source"], "betting config field 'source'", space)
    metric = json_numbers(payload["metric"], "betting config field 'metric'", space.size)
    score = BettingScore.from_metric(space, metric,
                                     json_number(payload["tau"], "betting config field 'tau'"))
    n = json_integer(payload.get("n", 500), "betting config field 'n'", 1)
    seed = json_integer(args.seed if args.seed is not None else payload.get("seed", 0), "seed", 0)
    if args.out is None:
        raise ValueError("betting run needs --out for the trajectory CSV")
    _check_out(args.out, args.force)
    stream = SampleStream(source, seed=seed)
    write_trajectory_csv(
        args.out, score, KellyConfig(), params, stream, n,
        header_comment=f"betting seed={seed} n={n} C={params.C} R={params.R}",
    )
    print(f"wrote={args.out}")
    return EXIT_OK


def cmd_experiment(args: argparse.Namespace) -> int:
    payload = load_json(args.config, "experiment config") if args.config is not None else {}
    cfg = load_config(args.scenario, payload, seed=args.seed)
    out = f"{args.scenario}.csv" if args.out is None else args.out
    _check_out(out, args.force)
    table = run_scenario(cfg)  # raises on a value out of its range before the first draw
    table.to_csv(out)
    print(f"wrote={out}")
    print(f"config_hash={table.config_hash}")
    for key in sorted(table.headline):
        print(f"{key}={table.headline[key]!r}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="credalmarket",
        description="Regulation-mechanism toolkit: optimal licenses, betting licenses, market simulations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lic = sub.add_parser("license", help="license computations")
    lic_sub = lic.add_subparsers(dest="subcommand", required=True)
    lic_opt = lic_sub.add_parser("optimal", help="optimal license for a provider type")
    lic_opt.add_argument("--credal", required=True, help="credal set JSON path")
    lic_opt.add_argument("--config", required=True, help="provider/params JSON path")
    lic_opt.add_argument("--out", help="license JSON output path")
    lic_opt.add_argument("--force", action="store_true", help="overwrite existing output")
    lic_opt.set_defaults(func=cmd_license)

    mkt = sub.add_parser("market", help="market simulations")
    mkt_sub = mkt.add_subparsers(dest="subcommand", required=True)
    mkt_sim = mkt_sub.add_parser("simulate", help="simulate a provider population")
    mkt_sim.add_argument("--credal", required=True)
    mkt_sim.add_argument("--config", required=True)
    mkt_sim.add_argument("--out", help="market report CSV path")
    mkt_sim.add_argument("--seed", type=int)
    mkt_sim.add_argument("--force", action="store_true")
    mkt_sim.set_defaults(func=cmd_market)

    bet = sub.add_parser("betting", help="sequential betting licenses")
    bet_sub = bet.add_subparsers(dest="subcommand", required=True)
    bet_run = bet_sub.add_parser("run", help="run one adaptive betting trajectory")
    bet_run.add_argument("--config", required=True)
    bet_run.add_argument("--out", help="trajectory CSV path")
    bet_run.add_argument("--seed", type=int)
    bet_run.add_argument("--force", action="store_true")
    bet_run.set_defaults(func=cmd_betting)

    exp = sub.add_parser("experiment", help="scenario runners")
    exp.add_argument("scenario", help=f"one of {sorted(SCENARIOS)}")
    exp.add_argument("--config", help="scenario config JSON path")
    exp.add_argument("--out", help="CSV output path (default <scenario>.csv)")
    exp.add_argument("--seed", type=int, help="seed override")
    exp.add_argument("--force", action="store_true")
    exp.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    """Run one command.  Every input error is a ValueError, reported here with exit 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
