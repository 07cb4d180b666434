"""Indexing substrate: linear scan, the array-backed hybrid tree (exact
index and approximate tier), and cached multipoint search."""

from .linear import KnnResult, LinearScan, SearchCost, page_capacity_for
from .multipoint import CentroidSearcher, MultipointSearcher, SessionCostLog
from .tree import HybridTree

__all__ = [
    "HybridTree",
    "KnnResult",
    "LinearScan",
    "SearchCost",
    "page_capacity_for",
    "CentroidSearcher",
    "MultipointSearcher",
    "SessionCostLog",
]
