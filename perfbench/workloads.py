"""The benchmark's workloads: inputs made from a seed, timed operations, output checks.

A workload is built during set-up: its inputs come from the benchmark seed
alone, and files the program reads are written then.  It then offers a list
of operations.  Each operation has a ``run`` step, which is timed, and a
``check`` step, which is not.  ``check`` validates what ``run`` produced
against invariants that hold at every seed; at a seed recorded in
``reference.json`` the operation's fingerprint must also match the recorded
one.

Benchmark seed ``s`` runs each scenario at its default seed plus ``s``, so
seed 0 reproduces the scenario CSVs of the repository's default configs.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from credalmarket import betting, cli, credal, experiments, licenses, market
from credalmarket.evidence import Categorical, EvidenceSpace

REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: slack for float round-off on bounds such as "value <= R"
BOUND_SLACK = 1e-9


@dataclass
class Op:
    """One timed call into the program, with its untimed output checks."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]  # invariants; returns the problems found
    fingerprint: Callable[[object], object]  # the JSON-able record kept in reference.json
    compare: Callable[[object, object], list[str]]  # (fingerprint, recorded) -> problems


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _read_csv(path: Path) -> tuple[str, list[str], list[list[str]]]:
    """(comment line or "", header, rows) of a CSV written by the program."""
    with open(path, newline="") as fh:
        first = fh.readline()
        comment = first.rstrip("\n") if first.startswith("#") else ""
        if not comment:
            fh.seek(0)
        reader = csv.reader(fh)
        header = next(reader)
        return comment, header, list(reader)


def _round_cell(cell: str) -> str:
    try:
        value = float(cell)
    except ValueError:
        return cell
    return format(value, ".10g") if any(c in cell for c in ".en") else cell


def csv_fingerprint(path: Path) -> dict:
    """SHA-256 of the CSV bytes, and of the CSV with every float cut to 10 digits."""
    raw = Path(path).read_bytes()
    rounded = "\n".join(
        ",".join(_round_cell(c) for c in line.split(","))
        for line in raw.decode().splitlines()
    )
    return {
        "sha256": hashlib.sha256(raw).hexdigest(),
        "sha256_10g": hashlib.sha256(rounded.encode()).hexdigest(),
    }


def compare_csv(fp: dict, ref: dict) -> list[str]:
    """Byte-identical passes; a difference only in the last bits of floats passes too."""
    if fp["sha256"] == ref["sha256"] or fp["sha256_10g"] == ref["sha256_10g"]:
        return []
    return [f"CSV digest {fp['sha256'][:12]} differs from the recorded {ref['sha256'][:12]}"]


def compare_exact(fp, ref) -> list[str]:
    return [] if fp == ref else [f"output {fp!r} differs from the recorded {ref!r}"]


def compare_close(fp, ref, rtol: float = 1e-9, atol: float = 1e-12) -> list[str]:
    a, b = np.atleast_1d(np.asarray(fp, float)), np.atleast_1d(np.asarray(ref, float))
    if a.shape == b.shape and np.allclose(a, b, rtol=rtol, atol=atol):
        return []
    return [f"output {fp!r} differs from the recorded {ref!r} beyond rtol {rtol}"]


def _numeric(rows: list[list[str]], columns: list[str], header: list[str]) -> np.ndarray:
    idx = [header.index(c) for c in columns]
    return np.array([[float(r[j]) for j in idx] for r in rows]).reshape(len(rows), len(idx))


def _bounded(values: np.ndarray, lo: float, hi: float, what: str) -> list[str]:
    if values.size and not (np.all(np.isfinite(values))
                            and values.min() >= lo - BOUND_SLACK and values.max() <= hi + BOUND_SLACK):
        return [f"{what} outside [{lo}, {hi}]: min {values.min()!r}, max {values.max()!r}"]
    return []


def _check_header(path: Path, cfg, columns: tuple[str, ...]) -> tuple[list[str], list[str], list[list[str]]]:
    comment, header, rows = _read_csv(path)
    problems = []
    if not comment.startswith(f"# scenario={cfg.scenario} seed={cfg.seed} config_hash="):
        problems.append(f"{path.name}: unexpected provenance line {comment!r}")
    if tuple(header) != columns:
        problems.append(f"{path.name}: columns {header} != {list(columns)}")
    return problems, header, rows


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """Base: set-up happens in ``__init__``; ``ops()`` lists the timed operations."""

    name = ""

    def __init__(self, seed: int, workdir: Path, smoke: bool) -> None:
        if seed < 0:
            raise ValueError("the benchmark seed must be non-negative")
        self.seed = seed
        self.workdir = workdir
        self.smoke = smoke

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def _scenario(self, scenario: str, smoke_payload: dict):
        default = experiments.load_config(scenario)
        payload = smoke_payload if self.smoke else {}
        return experiments.load_config(scenario, payload, seed=default.seed + self.seed)

    def _scenario_op(self, name: str, cfg, runner, invariants) -> Op:
        path = self.workdir / f"{name}.csv"

        def run():
            runner(cfg).to_csv(path)
            return path

        return Op(name, run, invariants, csv_fingerprint, compare_csv)


class Fairness(Workload):
    """run_fairness at its default config, plus the CSV write."""

    name = "fairness"

    def __init__(self, seed, workdir, smoke):
        super().__init__(seed, workdir, smoke)
        self.cfg = self._scenario("fairness", {"runs": 2, "n": 300, "grid_resolution": 5})

    def ops(self):
        return [self._scenario_op("fairness", self.cfg, experiments.run_fairness, self.check)]

    def check(self, path: Path) -> list[str]:
        cfg = self.cfg
        cols = ("gamma", "step", "betting_mean", "betting_se", "explicit_mean", "explicit_se")
        problems, header, rows = _check_header(path, cfg, cols)
        if problems:
            return problems
        if len(rows) != len(cfg.gammas) * cfg.n:
            return [f"fairness: {len(rows)} rows, expected {len(cfg.gammas) * cfg.n}"]
        x = _numeric(rows, list(cols), header)
        if not np.array_equal(x[:, 0], np.repeat(cfg.gammas, cfg.n)):
            problems.append("fairness: gamma column does not follow the config")
        if not np.array_equal(x[:, 1], np.tile(np.arange(1, cfg.n + 1), len(cfg.gammas))):
            problems.append("fairness: step column is not 1..n per gamma")
        problems += _bounded(x[:, [2, 4]], 0.0, cfg.params.R, "fairness license means")
        problems += _bounded(x[:, [3, 5]], 0.0, np.inf, "fairness standard errors")
        return problems


class Chi2Strategic(Workload):
    """run_chi2_strategic at its default config, plus the CSV write."""

    name = "chi2_strategic"

    def __init__(self, seed, workdir, smoke):
        super().__init__(seed, workdir, smoke)
        self.cfg = self._scenario(
            "chi2_strategic", {"mc_calibration": 2000, "mc_power": 2000, "n_per_test": 200}
        )

    def ops(self):
        return [self._scenario_op("chi2_strategic", self.cfg, experiments.run_chi2_strategic, self.check)]

    def check(self, path: Path) -> list[str]:
        cfg = self.cfg
        cols = ("alpha", "power", "null_enter", "compliant_enter", "null_approved")
        problems, header, rows = _check_header(path, cfg, cols)
        if problems:
            return problems
        x = _numeric(rows, list(cols), header)
        if x.shape[0] != len(cfg.alpha_grid) or not np.array_equal(x[:, 0], cfg.alpha_grid):
            return ["chi2_strategic: alpha column does not follow the config grid"]
        alpha, power = x[:, 0], x[:, 1]
        problems += _bounded(power, 0.0, 1.0, "chi2_strategic power")
        order = np.argsort(alpha, kind="stable")
        if np.any(np.diff(power[order]) < 0):
            problems.append("chi2_strategic: power curve is not monotone in alpha")
        if np.any(power[alpha == 0.0] != 0.0):
            problems.append("chi2_strategic: a size-0 test must have power 0")
        C, R = cfg.params.C, cfg.params.R
        if not np.array_equal(x[:, 2], (alpha * R >= C).astype(float)):
            problems.append("chi2_strategic: null entry does not follow alpha * R >= C")
        if not np.array_equal(x[:, 3], (power * R >= C).astype(float)):
            problems.append("chi2_strategic: compliant entry does not follow power * R >= C")
        if not np.array_equal(x[:, 4], np.where(x[:, 2] > 0, alpha, 0.0)):
            problems.append("chi2_strategic: null approvals do not equal alpha among entrants")
        return problems


#: market sizes (full, smoke): outcomes, credal vertices, optimal-LP providers,
#: risk-averse providers, betting providers
MARKET_SIZES = {False: (6, 12, 1000, 4, 4), True: (6, 12, 40, 1, 2)}
#: Seed of the credal set, which is the same at every benchmark seed.  The
#: cost of a kappa solve depends mostly on the credal set (0.1 s to 0.9 s per
#: provider across sets), so a credal set per seed made the pass time depend
#: more on the seed than on the code.  The set drawn from this seed is one of
#: the slow ones.
MARKET_CREDAL_SEED = 0
MARKET_PARAMS = {"C": 15.0, "R": 250.0}
MECHANISMS = ("optimal-LP", "risk-averse", "betting")


class Market(Workload):
    """Three ``credalmarket market simulate`` calls through ``cli.main``, one per mechanism.

    The credal set is the hull of Dirichlet vertices.  Even-numbered providers
    are mixtures of the vertices (the gaming types: inside the hull, so not
    compliant, with a best response on the fee boundary); odd-numbered ones are
    Dirichlet draws, mostly outside the hull.  The risk-averse market takes the
    first gaming types of the same population: the kappa solve time of a
    Dirichlet draw is heavy-tailed (5 ms to 0.8 s).  The betting market has a
    threshold requirement and providers whose mean metric sits clearly above or
    below the threshold.
    """

    name = "market"

    def __init__(self, seed, workdir, smoke):
        super().__init__(seed, workdir, smoke)
        m, k, n_lp, n_ra, n_bet = MARKET_SIZES[smoke]
        vertices = np.random.default_rng(MARKET_CREDAL_SEED).dirichlet(np.full(m, 3.0), size=k)
        rng = np.random.default_rng(seed)
        providers = []
        for i in range(n_lp):
            if i % 2 == 0:
                q = rng.dirichlet(np.ones(k)) @ vertices
            else:
                q = rng.dirichlet(np.ones(m))
            providers.append({"id": f"p{i:04d}", "q": (q / q.sum()).tolist()})
        metric = rng.permutation(np.linspace(0.0, 1.0, m))
        tau = 0.5
        bettors = {True: [], False: []}
        while min(len(v) for v in bettors.values()) < n_bet // 2:
            q = rng.dirichlet(np.ones(m))
            edge = float(q @ metric) - tau
            if abs(edge) >= 0.1 and len(bettors[edge > 0]) < n_bet // 2:
                bettors[edge > 0].append(q)
        bet_providers = [
            {"id": f"b{i:02d}", "q": q.tolist()}
            for i, q in enumerate(bettors[True] + bettors[False])
        ]
        self.R = MARKET_PARAMS["R"]
        self.C = MARKET_PARAMS["C"]
        self.credal_path = workdir / "credal.json"
        self.credal_path.write_text(json.dumps(
            {"space": [f"z{j}" for j in range(m)], "vertices": vertices.tolist()}))
        configs = {
            "optimal-LP": (providers, {"kind": "credal"}, {}),
            "risk-averse": (providers[: 2 * n_ra : 2], {"kind": "credal"}, {}),
            "betting": (bet_providers, {"kind": "threshold", "metric": metric.tolist(), "tau": tau},
                        {"n": 200} if smoke else {}),
        }
        self.expected_ids: dict[str, list[str]] = {}
        self.config_paths: dict[str, Path] = {}
        for mech, (pop, req, extra) in configs.items():
            path = workdir / f"market-{mech}.json"
            path.write_text(json.dumps({
                "params": MARKET_PARAMS, "providers": pop, "requirement": req,
                "mechanism": mech, "seed": seed, **extra,
            }))
            self.config_paths[mech] = path
            self.expected_ids[mech] = sorted(p["id"] for p in pop)

    def _report_path(self, mech: str) -> Path:
        return self.workdir / f"report-{mech}.csv"

    def ops(self):
        return [
            Op(f"market.{mech}", self._runner(mech), self._checker(mech),
               self._fingerprinter(mech), compare_exact)
            for mech in MECHANISMS
        ]

    def _runner(self, mech: str):
        argv = ["market", "simulate", "--credal", str(self.credal_path),
                "--config", str(self.config_paths[mech]), "--out", str(self._report_path(mech)),
                "--force"]

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue(), err.getvalue()

        return run

    def _rows(self, mech: str) -> dict[str, dict]:
        _, header, rows = _read_csv(self._report_path(mech))
        return {r[0]: dict(zip(header, r)) for r in rows}

    def _summary(self, mech: str) -> dict:
        return json.loads(self._report_path(mech).with_suffix(".summary.json").read_text())

    def _checker(self, mech: str):
        def check(output) -> list[str]:
            code, stdout, stderr = output
            if code != 0:
                return [f"market {mech}: exit code {code}: {stderr.strip()}"]
            rows = self._rows(mech)
            summary = self._summary(mech)
            problems = []
            if sorted(rows) != self.expected_ids[mech]:
                return [f"market {mech}: report rows do not match the providers"]
            sup = np.array([float(r["sup_value"]) for r in rows.values()])
            problems += _bounded(sup, 0.0, self.R, f"market {mech} sup values")
            counts = {"true-in": 0, "true-out": 0, "false-in": 0, "false-out": 0}
            for r in rows.values():
                compliant, participated = r["compliant"] == "1", r["participated"] == "1"
                expected = ("true-in" if compliant else "false-in") if participated else (
                    "false-out" if compliant else "true-out")
                if r["classification"] != expected:
                    problems.append(f"market {mech}: {r['provider_id']} misclassified")
                if participated and not float(r["sup_value"]) > self.C:
                    problems.append(f"market {mech}: {r['provider_id']} entered with sup <= C")
                counts[r["classification"]] += 1
            if summary["counts"] != counts:
                problems.append(f"market {mech}: summary counts {summary['counts']} != report {counts}")
            printed = dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)
            if printed.get("perfect") != str(summary["perfect"]).lower():
                problems.append(f"market {mech}: printed verdict disagrees with the summary")
            if mech != "betting" and not summary["perfect"]:
                problems.append(f"market {mech}: market is not perfect")
            if mech == "risk-averse":
                lp = self._rows("optimal-LP")
                for pid, r in rows.items():
                    if float(r["sup_value"]) > float(lp[pid]["sup_value"]) + BOUND_SLACK:
                        problems.append(f"market risk-averse: {pid} value exceeds its LP value")
                    if r["compliant"] != lp[pid]["compliant"]:
                        problems.append(f"market risk-averse: {pid} compliance differs from LP")
            return problems

        return check

    def _fingerprinter(self, mech: str):
        def fingerprint(output) -> dict:
            summary = self._summary(mech)
            return {"exit": output[0], "perfect": summary["perfect"], "counts": summary["counts"],
                    "indeterminate": summary["indeterminate"]}

        return fingerprint


SIMPLEX_PARAMS = licenses.MechanismParams(C=15.0, R=250.0)


class Audit(Workload):
    """Obedience audits: the supermartingale check, a mixture audit, simplex gaming."""

    name = "audit"

    def __init__(self, seed, workdir, smoke):
        super().__init__(seed, workdir, smoke)
        space = EvidenceSpace.of_size(2, prefix="o")
        self.null = Categorical(space, [0.5, 0.5])
        self.score = betting.BettingScore(space, [1.0, -1.0])
        self.martingale_shape = (500, 100) if smoke else (10_000, 500)
        self.martingale_seed = 404 + seed
        space3 = EvidenceSpace.of_size(3)
        self.points = [Categorical(space3, p) for p in experiments.SIMPLEX_POINTS]
        self.hull = credal.CredalSet(space3, tuple(self.points))
        self.grid = 0.1 if smoke else 0.02
        self.simplex_cfg = self._scenario("simplex_gaming", {"runs": 5, "n": 100})

    def ops(self):
        return [
            Op("supermartingale", self.run_martingale, self.check_martingale,
               lambda out: list(out), compare_close),
            Op("mixture_audit", self.run_mixture_audit, self.check_mixture_audit,
               lambda out: out[1], lambda fp, ref: compare_close(fp, ref, rtol=0.0, atol=1e-9)),
            self._scenario_op("simplex_gaming", self.simplex_cfg, experiments.run_simplex_gaming,
                              self.check_simplex),
        ]

    def run_martingale(self):
        runs, n = self.martingale_shape
        return betting.verify_supermartingale(
            self.null, self.score, betting.KellyConfig(), runs=runs, n=n, seed=self.martingale_seed
        )

    def check_martingale(self, out) -> list[str]:
        mean, se = out
        C = 15.0  # verify_supermartingale's default entry fee
        if not (math.isfinite(mean) and math.isfinite(se) and se >= 0.0):
            return [f"supermartingale: non-finite result {out!r}"]
        if mean > C + 3.0 * se:
            return [f"supermartingale: mean {mean!r} > C + 3 SE = {C + 3.0 * se!r}"]
        return []

    def run_mixture_audit(self):
        def credal_value(q):
            return licenses.sup_value_over_obedient(q, self.hull, SIMPLEX_PARAMS).value

        witness = credal.gaming_witness(
            self.points, SIMPLEX_PARAMS,
            naive_license_builder=lambda points, C, R, horizon: credal_value,
            grid_resolution=self.grid,
        )
        _, payoff = market.strategic_mixture_best_response(
            self.points, SIMPLEX_PARAMS, value_fn=credal_value, grid_resolution=self.grid
        )
        return witness, payoff

    def check_mixture_audit(self, out) -> list[str]:
        witness, payoff = out
        problems = []
        if witness is not None:
            problems.append(f"mixture audit: the credal regulator was gamed by {witness!r}")
        if not payoff <= SIMPLEX_PARAMS.C + BOUND_SLACK:
            problems.append(f"mixture audit: best response {payoff!r} > C + 1e-9")
        return problems

    def check_simplex(self, path: Path) -> list[str]:
        cfg = self.simplex_cfg
        cols = ("step", "naive_mean", "naive_se", "credal_mean", "credal_se")
        problems, header, rows = _check_header(path, cfg, cols)
        if problems:
            return problems
        if len(rows) != cfg.n:
            return [f"simplex_gaming: {len(rows)} rows, expected {cfg.n}"]
        x = _numeric(rows, list(cols), header)
        if not np.array_equal(x[:, 0], np.arange(1, cfg.n + 1)):
            problems.append("simplex_gaming: step column is not 1..n")
        problems += _bounded(x[:, [1, 3]], 0.0, cfg.params.R, "simplex_gaming license means")
        problems += _bounded(x[:, [2, 4]], 0.0, np.inf, "simplex_gaming standard errors")
        credal_final, credal_se = x[-1, 3], x[-1, 4]
        if credal_final > cfg.params.C + 3.0 * credal_se + BOUND_SLACK:
            problems.append(f"simplex_gaming: credal final mean {credal_final!r} > C + 3 SE")
        return problems


WORKLOADS = {w.name: w for w in (Fairness, Chi2Strategic, Market, Audit)}


def load_reference(workload: str, seed: int) -> Optional[dict]:
    """The recorded fingerprints of a workload's operations at ``seed``, if any."""
    if not REFERENCE_PATH.exists():
        return None
    return json.loads(REFERENCE_PATH.read_text()).get(workload, {}).get(str(seed))
