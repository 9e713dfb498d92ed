import math

import numpy as np
import pytest

from credalmarket.betting import _plugin_blocks
from credalmarket.credal import CredalSet
from credalmarket.evidence import Categorical, EvidenceSpace, log_ratio
from credalmarket.licenses import MechanismParams


@pytest.fixture
def space3() -> EvidenceSpace:
    return EvidenceSpace.of_size(3)


@pytest.fixture
def space2() -> EvidenceSpace:
    return EvidenceSpace.of_size(2)


@pytest.fixture
def simplex_points(space3):
    """The three prohibited distributions of the toy gaming instance."""
    return [
        Categorical(space3, [0.35, 0.35, 0.30]),
        Categorical(space3, [0.35, 0.30, 0.35]),
        Categorical(space3, [0.30, 0.35, 0.35]),
    ]


@pytest.fixture
def simplex_hull(space3, simplex_points) -> CredalSet:
    return CredalSet(space3, tuple(simplex_points))


@pytest.fixture
def uniform3(space3) -> Categorical:
    return Categorical.uniform(space3)


@pytest.fixture
def params_small() -> MechanismParams:
    return MechanismParams(C=0.5, R=1.0)


def random_categorical(rng: np.random.Generator, space: EvidenceSpace) -> Categorical:
    return Categorical(space, rng.dirichlet(np.ones(space.size)))


def random_credal(rng: np.random.Generator, space: EvidenceSpace, k: int) -> CredalSet:
    return CredalSet(space, tuple(random_categorical(rng, space) for _ in range(k)))


def kappa(q: Categorical, p: Categorical, params: MechanismParams) -> float:
    """Capped-KL functional kappa_Q(P) = E_Q[min{ln(Q/P), ln(R/C)}], which minimize_kappa minimizes.

    Algebraically equal to KL(Q||P) minus the tail correction over the region
    where the likelihood ratio exceeds R/C, but stays finite even when P
    vanishes on Q's support.
    """
    support = q.probs > 0.0
    qs = q.probs[support]
    return float(qs @ np.minimum(log_ratio(qs, p.probs[support]), math.log(params.cap_ratio)))


def plugin_paths(z, b, cfg, params, warm_start=False):
    """(bets, log-wealth, licenses) of plug-in Kelly betting along each row of ``z``: the blocks
    of ``betting._plugin_blocks`` laid side by side in three (runs, n) arrays."""
    paths = tuple(np.empty(z.shape) for _ in range(3))
    for t0, *blocks in _plugin_blocks(z, b, cfg, params, warm_start):
        for path, block in zip(paths, blocks):
            path[:, t0:t0 + block.shape[1]] = block
    return paths
