"""Regulation mechanisms as license markets over finite evidence spaces.

Submodules: :mod:`evidence` (distributions and sampling), :mod:`credal`
(convex sets of distributions), :mod:`licenses` (obedience audits and optimal
responses), :mod:`betting` (sequential testing-by-betting licenses),
:mod:`market` (participation simulation), :mod:`experiments` (scenario
runners), :mod:`cli` (command line).
"""

from .betting import BettingScore, KellyConfig
from .credal import CredalSet
from .evidence import Categorical, EvidenceSpace, SampleStream
from .licenses import License, MechanismParams, OptimalLicenseResult
from .market import MarketReport, Provider, Requirement

__all__ = [
    "BettingScore",
    "Categorical",
    "CredalSet",
    "EvidenceSpace",
    "KellyConfig",
    "License",
    "MarketReport",
    "MechanismParams",
    "OptimalLicenseResult",
    "Provider",
    "Requirement",
    "SampleStream",
]

__version__ = "0.1.0"
