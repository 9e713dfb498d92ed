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
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .betting import BettingScore, KellyConfig, write_trajectory_csv
from .credal import CredalSet
from .evidence import Categorical, EvidenceSpace, SampleStream, is_json_number, json_object
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


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_CONFIG


def _load_json(path: str, what: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ValueError(f"{what} file not found: {path}")
    except json.JSONDecodeError as err:
        raise ValueError(f"{what} file {path} is not valid JSON: {err}")


def _require(payload: dict, field: str, what: str):
    if field not in payload:
        raise ValueError(f"{what} is missing field {field!r}")
    return payload[field]


def _integer(value, name: str, minimum: int) -> int:
    """``value`` itself, once it is a JSON integer (not a float or a bool) >= ``minimum``."""
    if type(value) is not int or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return value


def _number(payload: dict, field: str, what: str) -> float:
    """``payload[field]`` as a float, once it is a JSON number (float() would take "0.5" or true)."""
    value = _require(payload, field, what)
    if not is_json_number(value):
        raise ValueError(f"{what} field {field!r} must be a number, got {value!r}")
    return float(value)


def _numbers(payload: dict, field: str, what: str) -> list:
    """``payload[field]`` itself, once it is a JSON list of numbers."""
    value = _require(payload, field, what)
    if not isinstance(value, list) or not all(map(is_json_number, value)):
        raise ValueError(f"{what} field {field!r} must be a list of numbers, got {value!r}")
    return value


def _check_out(path: str, force: bool) -> None:
    target = Path(path)
    if target.exists() and not force:
        raise ValueError(f"output {path} exists; pass --force to overwrite")
    parent = target.parent
    if not parent.is_dir():
        raise ValueError(f"output directory {parent} does not exist")


def _note(args: argparse.Namespace, message: str) -> None:
    if getattr(args, "verbose", False):
        print(message, file=sys.stderr)


def cmd_license(args: argparse.Namespace) -> int:
    try:
        credal = CredalSet.from_json(_load_json(args.credal, "credal set"))
        payload = json_object(_load_json(args.config, "license config"), ("provider", "params"),
                              "license config")
        params = MechanismParams.from_json(_require(payload, "params", "license config"),
                                           "license config field 'params'")
        q = Categorical(credal.space, _numbers(payload, "provider", "license config"))
        if args.out:
            _check_out(args.out, args.force)
    except (ValueError, TypeError) as err:
        return _fail(str(err))

    _note(args, f"credal set: {len(credal.vertices)} vertices over {credal.space.size} outcomes")
    neutral = sup_value_over_obedient(q, credal, params)
    averse = optimal_risk_averse_license(q, credal, params)
    for name, result in (("risk_neutral", neutral), ("risk_averse", averse)):
        obedient = is_obedient(result.license, credal, params, tol=1e-6)
        print(f"{name}_value={result.value!r}")
        print(f"{name}_obedient={str(obedient).lower()}")
    verdict = "participate (sup > C)" if participation_decision(neutral.value, params) else "excluded (sup <= C)"
    print(f"verdict={verdict}")
    if len(credal.vertices) == 1:
        np_license = neyman_pearson_license(q, credal.vertices[0], params)
        print(f"neyman_pearson_payout={np_license.payout.tolist()!r}")

    if args.out:
        blob = {
            "risk_neutral": neutral.license.to_json(params),
            "risk_averse": averse.license.to_json(params),
            "values": {"risk_neutral": neutral.value, "risk_averse": averse.value},
        }
        Path(args.out).write_text(json.dumps(blob, indent=2) + "\n")
        print(f"wrote={args.out}")
    if not averse.converged:
        print("warning: the risk-averse optimizer hit its iteration cap or returned a license "
              "that is not obedient", file=sys.stderr)
        return EXIT_NONCONVERGED
    return EXIT_OK


def cmd_market(args: argparse.Namespace) -> int:
    try:
        credal = CredalSet.from_json(_load_json(args.credal, "credal set"))
        payload = json_object(_load_json(args.config, "market config"),
                              ("params", "providers", "requirement", "mechanism", "seed", "n"),
                              "market config")
        params = MechanismParams.from_json(_require(payload, "params", "market config"),
                                           "market config field 'params'")
        providers = []
        for row in _require(payload, "providers", "market config"):
            json_object(row, ("id", "q"), "provider entry")
            providers.append(Provider(id=str(_require(row, "id", "provider entry")),
                                      q=Categorical(credal.space, _numbers(row, "q", "provider entry"))))
        req_payload = json_object(_require(payload, "requirement", "market config"),
                                  ("kind", "metric", "tau"), "requirement")
        kind = _require(req_payload, "kind", "requirement")
        if kind == "threshold":
            metric = np.asarray(_numbers(req_payload, "metric", "requirement"), dtype=float)
            req = Requirement(kind=kind, metric=metric, tau=_number(req_payload, "tau", "requirement"))
        else:  # Requirement rejects unknown kinds, and a metric or tau on a credal one
            req = Requirement(kind=kind, credal=credal,
                              metric=req_payload.get("metric"), tau=req_payload.get("tau"))
        mechanism = payload.get("mechanism", "optimal-LP")
        seed = _integer(args.seed if args.seed is not None else payload.get("seed", 0), "seed", 0)
        n = _integer(payload.get("n", 500), "market config field 'n'", 0)
        if args.out:
            _check_out(args.out, args.force)
    except (ValueError, TypeError) as err:  # TypeError: a field of the wrong JSON type
        return _fail(str(err))
    try:
        report = simulate_market(providers, req, credal, params, mechanism=mechanism, n=n, seed=seed)
    except ValueError as err:  # unknown mechanism, or betting without a threshold or rounds
        return _fail(str(err))

    if args.out:
        report.to_csv(args.out)
        report.save_summary(Path(args.out).with_suffix(".summary.json"))
        print(f"wrote={args.out}")
    print(f"perfect={str(report.perfect).lower()}")
    for name, count in report.counts().items():
        print(f"count_{name}={count}")
    return EXIT_OK


def cmd_betting(args: argparse.Namespace) -> int:
    try:
        payload = json_object(_load_json(args.config, "betting config"),
                              ("params", "labels", "source", "metric", "tau", "n", "seed"),
                              "betting config")
        params = MechanismParams.from_json(_require(payload, "params", "betting config"),
                                           "betting config field 'params'")
        labels = _require(payload, "labels", "betting config")
        space = EvidenceSpace(tuple(labels))
        source = Categorical(space, _numbers(payload, "source", "betting config"))
        score = BettingScore.from_metric(space, _numbers(payload, "metric", "betting config"),
                                         _number(payload, "tau", "betting config"))
        n = _integer(payload.get("n", 500), "betting config field 'n'", 1)
        seed = _integer(args.seed if args.seed is not None else payload.get("seed", 0), "seed", 0)
        if not args.out:
            raise ValueError("betting run needs --out for the trajectory CSV")
        _check_out(args.out, args.force)
    except (ValueError, TypeError) as err:
        return _fail(str(err))
    stream = SampleStream(source, seed=seed)
    write_trajectory_csv(
        args.out, score, KellyConfig(), params, stream, n,
        header_comment=f"betting seed={seed} n={n} C={params.C} R={params.R}",
    )
    print(f"wrote={args.out}")
    return EXIT_OK


def cmd_experiment(args: argparse.Namespace) -> int:
    try:
        payload = _load_json(args.config, "experiment config") if args.config else {}
        cfg = load_config(args.scenario, payload, seed=args.seed)
        out = args.out or f"{args.scenario}.csv"
        _check_out(out, args.force)
    except ValueError as err:
        return _fail(str(err))
    _note(args, f"running {cfg!r}")
    try:
        table = run_scenario(cfg)
    except ValueError as err:  # a value out of its range, e.g. gamma + 0.1 > 1 or a bad provider_q
        return _fail(str(err))
    try:
        table.to_csv(out)
    except OSError as err:
        return _fail(f"cannot write {out}: {err}")
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
    parser.add_argument("--verbose", action="store_true", help="extra diagnostics on stderr")
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
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
