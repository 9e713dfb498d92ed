"""Span tracing of credalmarket's layers, applied from outside the package.

Each traced layer is a public (module-level) function or a class method of
credalmarket.  :meth:`Tracer.install` replaces the function in every
credalmarket module that imported it by a wrapper that records a span (name,
start, end, parent) and per-layer counts; :meth:`Tracer.uninstall` puts the
originals back.  Nothing under ``src/`` changes.

A layer's self time is its span's duration minus the time covered by the
spans it opened directly.  Spans stay in memory and are written once, at the
end of the run, by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np


def _kappa_counts(a, result):
    k = len(a["credal"].vertices)
    starts = 1 if k == 1 else max(a["n_starts"], k + 1)
    return {"licenses.kappa.starts": starts, "licenses.kappa.converged": int(bool(result[2]))}


#: (defining module, attribute, span name, count hook).  A count hook gets the
#: call's bound arguments (defaults applied) and its result, and returns the
#: counts to add.
LAYERS = (
    ("credalmarket.evidence", "Categorical.__init__", "evidence.categorical", None),
    ("credalmarket.evidence", "sample", "evidence.sample",
     lambda a, r: {"evidence.sample.outcomes": a["n"]}),
    ("credalmarket.credal", "membership", "credal.membership", None),
    ("credalmarket.credal", "approximate_constraint_set", "credal.constraint_set",
     lambda a, r: {"credal.constraint_set.vertices": len(r.vertices)}),
    ("credalmarket.credal", "maximize_over_mixtures", "credal.mixture_search", None),
    ("credalmarket._linprog", "solve_box_lp", "licenses.lp",
     lambda a, r: {"licenses.lp.pivots": r.iterations}),
    ("credalmarket.licenses", "minimize_kappa", "licenses.kappa", _kappa_counts),
    ("credalmarket.licenses", "optimal_risk_averse_license", "licenses.risk_averse", None),
    ("credalmarket.licenses", "sup_value_over_obedient", "licenses.neutral", None),
    ("credalmarket.betting", "kelly_optimal_bet", "betting.kelly", None),
    ("credalmarket.betting", "run_sequential_license", "betting.sequential",
     lambda a, r: {"betting.steps": a["n"]}),
    ("credalmarket.betting", "verify_supermartingale", "betting.supermartingale",
     lambda a, r: {"betting.steps": a["runs"] * a["n"]}),
    ("credalmarket.market", "simulate_market", "market.simulate",
     lambda a, r: {"market.providers": len(a["providers"])}),
    ("credalmarket.market", "evaluate_requirement", "market.requirement", None),
    ("credalmarket.experiments", "_betting_trajectories", "experiments.betting_loop",
     lambda a, r: {"betting.steps": a["z"].size}),
    ("credalmarket.experiments", "_batch_loglik_ratio", "experiments.batch_loglik",
     lambda a, r: {"experiments.batch_loglik.draws": a["batches"] * a["n"]}),
    ("credalmarket.experiments", "_draw_outcomes", "experiments.draw_outcomes", None),
    ("credalmarket.experiments", "_cumulative_trajectories", "experiments.cumulative", None),
    ("credalmarket.experiments", "ResultTable.to_csv", "experiments.csv", None),
    ("credalmarket.cli", "main", "cli", None),
)

#: spans whose individual durations are kept for percentiles
PERCENTILE_SPANS = ("credal.membership", "licenses.lp")

#: the benchmark's own span around one pass of a workload
PASS_SPAN = "perfbench.pass"


class Tracer:
    """In-memory span recorder with per-pass aggregates."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[list] = []  # [span index, name, seconds covered by children]
        self._patches: list[tuple[object, str, object]] = []
        self.reset_pass()

    # -- per-pass aggregates -------------------------------------------------

    def reset_pass(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(int)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.pass_spans = 0

    def begin_pass(self) -> None:
        """Reset the per-pass aggregates, wrap the layers and open the pass span."""
        self.reset_pass()
        self.install()
        self._open(PASS_SPAN)

    def end_pass(self) -> None:
        self._close()
        self.uninstall()

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> None:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append([len(self.start), name, 0.0])
        self.start.append(time.perf_counter())

    def _close(self) -> None:
        t = time.perf_counter()
        idx, name, children = self._stack.pop()
        self.end[idx] = t
        dur = t - self.start[idx]
        self.calls[name] += 1
        self.total[name] += dur
        self.self_time[name] += dur - children
        self.pass_spans += 1
        if self._stack:
            self._stack[-1][2] += dur
        if name in PERCENTILE_SPANS:
            self.durations[name].append(dur)

    def wrap(self, name: str, fn, hook=None):
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in hook(bound.arguments, result).items():
                    self.counts[key] += value
            return result

        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer in :data:`LAYERS`, in each module that imported it."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for module_name, attr, span_name, hook in LAYERS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[method]
                self._patches.append((cls, method, orig))
                setattr(cls, method, self.wrap(span_name, orig, hook))
                continue
            orig = getattr(module, attr)
            wrapper = self.wrap(span_name, orig, hook)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or mod_name.split(".")[0] != "credalmarket":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    # -- output --------------------------------------------------------------

    def dump(self, path: Path) -> None:
        """Write every span recorded so far as a compressed NumPy archive."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=f"i{self.name_id.itemsize}"),
            parent=np.frombuffer(self.parent, dtype=f"i{self.parent.itemsize}"),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def _percentile_ms(values: list[float], q: float) -> float:
    return 1e3 * float(np.percentile(values, q)) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_table(tr: Tracer) -> dict[str, list[float]]:
    """[calls, total_s, self_s] of every span name in the pass just traced."""
    return {name: [tr.calls[name], tr.total[name], tr.self_time[name]]
            for name in sorted(tr.calls) if tr.calls[name]}


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the pass just traced, as name -> (value, unit)."""
    calls, self_s, counts = tr.calls, tr.self_time, tr.counts
    lp_ms = tr.durations["licenses.lp"]
    membership_ms = tr.durations["credal.membership"]
    return {
        "evidence.categorical.calls": (calls["evidence.categorical"], "count"),
        "evidence.categorical.self_s": (self_s["evidence.categorical"], "s"),
        "evidence.sample.calls": (calls["evidence.sample"], "count"),
        "evidence.sample.self_s": (self_s["evidence.sample"], "s"),
        "evidence.sample.outcomes": (counts["evidence.sample.outcomes"], "count"),
        "credal.membership.calls": (calls["credal.membership"], "count"),
        "credal.membership.self_s": (self_s["credal.membership"], "s"),
        "credal.membership.p99_ms": (_percentile_ms(membership_ms, 99), "ms"),
        "credal.constraint_set.self_s": (self_s["credal.constraint_set"], "s"),
        "credal.constraint_set.vertices": (counts["credal.constraint_set.vertices"], "count"),
        "credal.mixture_search.calls": (calls["credal.mixture_search"], "count"),
        "credal.mixture_search.self_s": (self_s["credal.mixture_search"], "s"),
        "licenses.lp.calls": (calls["licenses.lp"], "count"),
        "licenses.lp.self_s": (self_s["licenses.lp"], "s"),
        "licenses.lp.pivots": (counts["licenses.lp.pivots"], "count"),
        "licenses.lp.p50_ms": (_percentile_ms(lp_ms, 50), "ms"),
        "licenses.lp.p99_ms": (_percentile_ms(lp_ms, 99), "ms"),
        "licenses.kappa.calls": (calls["licenses.kappa"], "count"),
        "licenses.kappa.self_s": (self_s["licenses.kappa"], "s"),
        "licenses.kappa.starts": (counts["licenses.kappa.starts"], "count"),
        "licenses.kappa.converged_frac": (
            _ratio(counts["licenses.kappa.converged"], calls["licenses.kappa"]), "ratio"),
        "licenses.risk_averse.self_s": (self_s["licenses.risk_averse"], "s"),
        "licenses.neutral.self_s": (self_s["licenses.neutral"], "s"),
        "betting.kelly.calls": (calls["betting.kelly"], "count"),
        "betting.kelly.self_s": (self_s["betting.kelly"], "s"),
        "betting.kelly.solves_per_step": (
            _ratio(calls["betting.kelly"], counts["betting.steps"]), "ratio"),
        "betting.sequential.calls": (calls["betting.sequential"], "count"),
        "betting.sequential.self_s": (self_s["betting.sequential"], "s"),
        "betting.supermartingale.self_s": (self_s["betting.supermartingale"], "s"),
        "market.simulate.self_s": (self_s["market.simulate"], "s"),
        "market.requirement.calls": (calls["market.requirement"], "count"),
        "market.requirement.self_s": (self_s["market.requirement"], "s"),
        "market.providers": (counts["market.providers"], "count"),
        "experiments.betting_loop.self_s": (self_s["experiments.betting_loop"], "s"),
        "experiments.batch_loglik.self_s": (self_s["experiments.batch_loglik"], "s"),
        "experiments.batch_loglik.draws": (counts["experiments.batch_loglik.draws"], "count"),
        "experiments.draw_outcomes.self_s": (self_s["experiments.draw_outcomes"], "s"),
        "experiments.cumulative.self_s": (self_s["experiments.cumulative"], "s"),
        "experiments.csv.self_s": (self_s["experiments.csv"], "s"),
        "cli.self_s": (self_s["cli"], "s"),
        # time of the pass spent outside every traced layer (benchmark glue and
        # untraced program code)
        "trace.unattributed_s": (self_s[PASS_SPAN], "s"),
        "trace.spans": (tr.pass_spans, "count"),
    }
