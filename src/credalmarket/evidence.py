"""Finite evidence spaces, categorical distributions, divergences, likelihood ratios, sampling.

Everything downstream (credal sets, licenses, betting, markets) works over a
finite outcome space, so expectations and optimization problems stay exact.

Randomness: all sampling uses numpy's PCG64 generator seeded through
``SeedSequence``; outcome draws invert the cdf by counting the boundaries at
or below each uniform, so sequences are reproducible bit-for-bit at a fixed
seed.  Replicate seeds are derived with :func:`spawn_seeds`.

All types are immutable after construction except :class:`SampleStream`,
which each draw advances; pure operations are safe to share across threads.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "EvidenceSpace",
    "Categorical",
    "SampleStream",
    "mixture",
    "kl_divergence",
    "ratio",
    "log_ratio",
    "sample",
    "draw_outcomes",
    "spawn_seeds",
    "load_json",
    "write_json",
    "write_csv",
    "json_digest",
    "is_json_number",
    "json_number",
    "json_integer",
    "json_string",
    "json_list",
    "json_numbers",
    "json_labels",
    "json_object",
    "json_categorical",
]

#: tolerance on probability-vector normalization
PROB_ATOL = 1e-12


@dataclass(frozen=True)
class EvidenceSpace:
    """An ordered finite set of outcome labels."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) < 1:
            raise ValueError("evidence space needs at least one outcome")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("outcome labels must be unique")

    @property
    def size(self) -> int:
        return len(self.labels)

    @staticmethod
    def of_size(m: int, prefix: str = "z") -> "EvidenceSpace":
        """Anonymous space with labels ``z0 .. z{m-1}``."""
        return EvidenceSpace(tuple(f"{prefix}{i}" for i in range(m)))


# File formats: every file the package reads or writes goes through these.


def load_json(path: str | Path, what: str):
    """The parsed JSON of file ``path``; any read or parse failure is a ValueError naming it."""
    if path == "":  # Path("") would read the working directory
        raise ValueError(f"cannot read {what} file: the path is empty")
    try:
        return json.loads(Path(path).read_text())
    except OSError as err:  # missing, a directory, unreadable
        raise ValueError(f"cannot read {what} file {path}: {err.strerror or err}")
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ValueError(f"{what} file {path} is not valid JSON: {err}")


def write_json(path: str | Path, obj) -> None:
    """``obj`` as JSON indented by 2, with a final newline."""
    Path(path).write_text(json.dumps(obj, indent=2) + "\n")


def json_digest(obj) -> str:
    """First 12 hex digits of the SHA-256 of ``obj``'s JSON with sorted keys."""
    payload = json.dumps(obj, sort_keys=True, default=list)
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def _csv_cells(column) -> list:
    """One column's cells: a float, NumPy's included, as ``repr(float(v))``, anything else as is."""
    if isinstance(column, np.ndarray):
        cells = column.tolist()  # Python scalars
        return list(map(repr, cells)) if column.dtype.kind == "f" else cells
    return [repr(float(v)) if isinstance(v, float) else v for v in column]


def write_csv(path: str | Path, header, blocks, comment: str | None = None) -> None:
    """A CSV table: an optional ``# comment`` line, the ``header`` row, then the rows of ``blocks``.

    ``blocks`` yields blocks of rows, each a tuple of equal-length columns
    (arrays or sequences), one per header name, so a caller bounds the cells
    formatted at a time by its block height.  The comment line ends in
    ``\\n`` and the csv module's rows in ``\\r\\n``.  A float cell, NumPy's
    included, is written as ``repr(float(v))``: the shortest text that reads
    back to the same float, never ``np.float64(...)``; a float array's cells
    are formatted as one ``repr`` pass over its Python floats.
    """
    with open(path, "w", newline="") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for block in blocks:
            writer.writerows(zip(*map(_csv_cells, block)))


# JSON input rules: each returns ``value`` itself once it has the JSON type it
# names, and raises a ValueError naming the field otherwise.


def is_json_number(value) -> bool:
    """A finite int or float, not a bool; JSON's ``NaN``, ``Infinity`` and 1e400 parse as floats."""
    return type(value) in (int, float) and math.isfinite(value)


def _checked(ok: bool, value, name: str, expected: str):
    if not ok:
        raise ValueError(f"{name} must be {expected}, got {value!r}")
    return value


def json_number(value, name: str):
    return _checked(is_json_number(value), value, name, "a finite number")


def json_integer(value, name: str, minimum: int) -> int:
    """An int (not a float or a bool) >= ``minimum``."""
    return _checked(type(value) is int and value >= minimum, value, name,
                    f"an integer >= {minimum}")


def json_string(value, name: str) -> str:
    return _checked(type(value) is str, value, name, "a string")


def json_list(value, name: str) -> list:
    return _checked(isinstance(value, list), value, name, "a list")


def json_numbers(value, name: str, size: int | None = None) -> list:
    """A list of finite numbers, and of ``size`` of them when ``size`` is given."""
    ok = isinstance(value, list) and all(map(is_json_number, value))
    expected = "a list of finite numbers" if size is None else f"a list of {size} finite numbers"
    return _checked(ok and size in (None, len(value)), value, name, expected)


def json_labels(value, name: str) -> list:
    """A list of strings; a bare string such as "ab" is not two labels."""
    return _checked(isinstance(value, list) and all(type(v) is str for v in value),
                    value, name, "a list of strings")


def json_object(payload, allowed: tuple[str, ...], what: str,
                required: tuple[str, ...] = ()) -> dict:
    """``payload`` itself, once it is a JSON object with the ``required`` fields and no others.

    An unknown field is an error, not a default: a misspelled key would
    otherwise run with the default it was meant to change.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"{what} must be a JSON object, got {payload!r}")
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise ValueError(f"{what} has unknown field(s) {', '.join(map(repr, unknown))}; "
                         f"allowed: {', '.join(allowed)}")
    for field_name in required:
        if field_name not in payload:
            raise ValueError(f"{what} is missing field {field_name!r}")
    return payload


def json_categorical(value, name: str, space: EvidenceSpace) -> Categorical:
    """The distribution on ``space`` of a list of numbers; every error names the field."""
    probs = json_numbers(value, name, space.size)
    try:
        return Categorical(space, probs)
    except ValueError as err:
        raise ValueError(f"{name}: {err}") from err


def frozen_vector(values, what: str, space: EvidenceSpace | None = None) -> np.ndarray:
    """A read-only float copy of ``values``: finite, one entry per outcome of ``space`` if given."""
    v = np.array(values, dtype=float)  # a copy, never a view of the caller's array
    if space is not None and v.shape != (space.size,):
        raise ValueError(f"{what} length does not match the evidence space")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{what} must be finite")
    v.flags.writeable = False
    return v


def _as_prob_vector(probs, m: int) -> np.ndarray:
    p = np.asarray(probs, dtype=float)
    if p.shape != (m,):
        raise ValueError(f"expected {m} probabilities, got shape {p.shape}")
    # Both tests are written to fail on NaN, which compares False either way.
    if not np.all(p >= 0):
        raise ValueError("probabilities must be non-negative and not NaN")
    if not abs(float(p.sum()) - 1.0) <= PROB_ATOL:
        raise ValueError(f"probabilities must sum to 1 (got {float(p.sum())!r})")
    p = p.copy()
    p.flags.writeable = False
    return p


@dataclass(frozen=True, eq=False)
class Categorical:
    """A probability mass function over a finite evidence space."""

    space: EvidenceSpace
    probs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "probs", _as_prob_vector(self.probs, self.space.size))

    def expectation(self, payoff) -> float:
        """E[payoff(Z)] for a per-outcome payoff vector."""
        g = np.asarray(payoff, dtype=float)
        if g.shape != self.probs.shape:
            raise ValueError("payoff length does not match evidence space")
        return float(self.probs @ g)

    def allclose(self, other: "Categorical", atol: float = 1e-12) -> bool:
        return self.space == other.space and bool(
            np.allclose(self.probs, other.probs, rtol=0.0, atol=atol)
        )

    @staticmethod
    def uniform(space: EvidenceSpace) -> "Categorical":
        m = space.size
        return Categorical(space, np.full(m, 1.0 / m))


def require_same_space(*items) -> EvidenceSpace:
    """The one space of ``items`` (anything with a ``.space``: distributions, scores, sets, licenses)."""
    space = items[0].space
    for item in items[1:]:
        if item.space != space:
            raise ValueError("inputs are defined on different evidence spaces")
    return space


def mixture(dists: list[Categorical], weights) -> Categorical:
    """Convex combination sum_i w_i * dists[i] of distributions on one space."""
    if not dists:
        raise ValueError("need at least one distribution")
    space = require_same_space(*dists)
    w = np.asarray(weights, dtype=float)
    if w.shape != (len(dists),):
        raise ValueError("one weight per distribution required")
    if np.any(w < 0) or abs(float(w.sum()) - 1.0) > PROB_ATOL:
        raise ValueError("weights must be a point on the probability simplex")
    stacked = np.stack([d.probs for d in dists])
    return Categorical(space, w @ stacked)


def kl_divergence(q: Categorical, p: Categorical) -> float:
    """KL(Q || P) in nats: the sum over Q's support, so 0 * log(0/x) = 0.

    Returns ``inf`` (the :func:`log_ratio` of P = 0 < Q, never an overflow)
    when Q puts mass where P has none.
    """
    require_same_space(q, p)
    support = q.probs > 0.0
    qs = q.probs[support]
    return float(qs @ log_ratio(qs, p.probs[support]))


def ratio(q, p) -> np.ndarray:
    """Elementwise likelihood ratio Q/P.

    Every license is a likelihood ratio against a projection P, so one rule
    fixes where it pays the cap and where it pays nothing: the ratio is +inf
    (log +inf) where P = 0 < Q, and 0 (log -inf) where Q = 0, whatever P is.
    Elsewhere ``ratio`` is q / p and ``log_ratio`` is ln q - ln p, never
    ln(q / p), so callers keep the float arithmetic their outputs depend on.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(q > 0, np.where(p > 0, q / p, np.inf), 0.0)


def log_ratio(q, p) -> np.ndarray:
    """ln q - ln p under the P = 0 / Q = 0 rule of :func:`ratio`."""
    # ln 0 = -inf, so ln q - ln p is already +inf where p = 0 < q; only 0/0
    # gives nan, and the Q = 0 branch replaces it.
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(q > 0, np.log(q) - np.log(p), -np.inf)


@dataclass(eq=False)
class SampleStream:
    """A deterministic i.i.d. outcome stream from a categorical source.

    Identical ``(source, seed)`` pairs reproduce identical sequences.  A
    stream is single-owner sequential state: each draw advances it.
    """

    source: Categorical
    seed: int
    _gen: np.random.Generator = field(init=False, repr=False)
    _cdf: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(self.seed)))
        probs = self.source.probs
        cdf = np.cumsum(probs)
        # The probabilities sum to 1 only within PROB_ATOL: close the cdf at the
        # last outcome with positive mass, so no uniform in [0, 1) lands after it.
        cdf[np.flatnonzero(probs)[-1]:] = 1.0
        self._cdf = cdf


def outcome_dtype(m: int) -> np.dtype:
    """The dtype of outcome indices on a space of ``m`` outcomes: the smallest unsigned one that
    holds m - 1 (``uint8`` up to 256 outcomes).

    Outcome arrays are only used as indices.  Arithmetic on them must be done
    in ``intp``: a ``uint8`` array times a Python int stays ``uint8`` and wraps.
    """
    return np.min_scalar_type(m - 1)


def sample(stream: SampleStream, n: int) -> np.ndarray:
    """Draw ``n`` i.i.d. outcome indices of :func:`outcome_dtype`, advancing the stream.

    A uniform u in [0, 1) draws the number of interior cdf boundaries at or
    below it, ``sum_j [u >= cdf[j]]`` over j < m - 1.  That is the binary
    search ``searchsorted(cdf, u, side="right")``, which counts the entries
    at or below u: the cdf is closed to 1.0 from the last outcome with mass
    on, so the last entry, and any entry that rounding lifts above 1, lies
    above every u.  Ties u == cdf[j] count alike, an outcome of mass 0 is
    never drawn, and m = 1 (no boundaries) draws 0.  On the small spaces
    sampled here one comparison pass per boundary is faster than the binary
    search, and the sum, at most m - 1, is taken in the outcome dtype.
    """
    if n < 0:
        raise ValueError("sample count must be non-negative")
    u = stream._gen.random(n)
    return (u >= stream._cdf[:-1, None]).sum(axis=0, dtype=outcome_dtype(stream._cdf.size))


def draw_outcomes(dist: Categorical, runs: int, n: int, seed: int,
                  out: np.ndarray | None = None) -> np.ndarray:
    """(runs, n) outcome matrix of :func:`outcome_dtype`, row r from the r-th :func:`spawn_seeds`
    child of ``seed``.

    The rows are drawn into ``out`` when it is given, which must be a
    C-contiguous (runs, n) array of that dtype (a ValueError otherwise), such
    as a block of rows of a larger matrix; ``out`` is returned.
    """
    dtype = outcome_dtype(dist.space.size)
    if out is None:
        out = np.empty((runs, n), dtype=dtype)
    elif not (isinstance(out, np.ndarray) and out.dtype == dtype and out.shape == (runs, n)
              and out.flags.c_contiguous):
        raise ValueError(f"out must be a C-contiguous ({runs}, {n}) {dtype} array")
    for row, s in zip(out, spawn_seeds(seed, runs)):
        row[:] = sample(SampleStream(dist, seed=s), n)
    return out


def spawn_seeds(seed: int, n: int) -> list[int]:
    """Derive ``n`` independent child seeds from a master seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n, dtype=np.uint64)]
