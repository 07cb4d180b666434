"""Indexing substrate: linear scan, the array-backed exact tree and
spill/RP-tree approximate tier, and cached multipoint search."""

from .linear import KnnResult, LinearScan, SearchCost, page_capacity_for
from .multipoint import CentroidSearcher, MultipointSearcher, SessionCostLog
from .tree import DefeatistResult, HybridTree, SpillTree, SpillTreeConfig

__all__ = [
    "HybridTree",
    "KnnResult",
    "LinearScan",
    "SearchCost",
    "page_capacity_for",
    "CentroidSearcher",
    "MultipointSearcher",
    "SessionCostLog",
    "SpillTree",
    "SpillTreeConfig",
    "DefeatistResult",
]
