"""Qcluster core: adaptive classification, cluster merging, disjunctive queries."""

from .classifier import BayesianClassifier, ClassificationDecision, ClassifierState
from .cluster import Cluster, merge_moments
from .config import QclusterConfig
from .covariance import (
    DEFAULT_REGULARIZATION,
    CovarianceScheme,
    DiagonalScheme,
    InverseInfo,
    InverseScheme,
    get_scheme,
)
from .distance import (
    DisjunctiveQuery,
    QueryPoint,
    aggregate_distance,
    disjunctive_distance,
    quadratic_distance,
    quadratic_distance_many,
)
from .kernels import (
    CompiledQuery,
    KernelCache,
    compile_query,
    default_kernel_cache,
    ensure_compiled,
    fingerprint_cluster_state,
    kernels_enabled,
    use_kernels,
)
from .merging import ClusterMerger, MergeRecord, pairwise_merge_test
from .pca import PCA, select_dimension_by_variance, t2_in_pc_basis
from .progressive import (
    ProgressivePlan,
    ProgressiveResult,
    ScanStats,
    exact_top_k,
    progressive_enabled,
    progressive_topk,
    use_progressive,
)
from .qcluster import QclusterEngine
from .quality import QualityReport, labelled_classification_error, leave_one_out_error

__all__ = [
    "BayesianClassifier",
    "ClassificationDecision",
    "ClassifierState",
    "Cluster",
    "merge_moments",
    "QclusterConfig",
    "DEFAULT_REGULARIZATION",
    "CovarianceScheme",
    "DiagonalScheme",
    "InverseInfo",
    "InverseScheme",
    "get_scheme",
    "DisjunctiveQuery",
    "QueryPoint",
    "aggregate_distance",
    "disjunctive_distance",
    "quadratic_distance",
    "quadratic_distance_many",
    "CompiledQuery",
    "KernelCache",
    "compile_query",
    "default_kernel_cache",
    "ensure_compiled",
    "fingerprint_cluster_state",
    "kernels_enabled",
    "use_kernels",
    "ClusterMerger",
    "MergeRecord",
    "pairwise_merge_test",
    "ProgressivePlan",
    "ProgressiveResult",
    "ScanStats",
    "exact_top_k",
    "progressive_enabled",
    "progressive_topk",
    "use_progressive",
    "PCA",
    "select_dimension_by_variance",
    "t2_in_pc_basis",
    "QclusterEngine",
    "QualityReport",
    "labelled_classification_error",
    "leave_one_out_error",
]
