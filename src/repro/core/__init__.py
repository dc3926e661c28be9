"""RNE core: the paper's contribution — embedding models, training,
sample selection, fine-tuning, metrics and the embedding query index."""

from .analysis import (
    NormProfile,
    collapse_fraction,
    layout_correlation,
    level_contributions,
    norm_profile,
)
from .finetune import FinetuneResult, active_finetune
from .hierarchical import HierarchicalRNE
from .hybrid import CertifiedDistance, HybridEstimator
from .index import EmbeddingTreeIndex
from .metrics import (
    ErrorReport,
    absolute_errors,
    bucketed_errors,
    distance_scale_groups,
    error_cdf,
    error_report,
    f1_score,
    relative_errors,
)
from .model import RNEModel, lp_distance, lp_gradient
from .pipeline import RNE, BuildHistory, RNEConfig, build_rne
from .sampling import (
    DistanceLabeler,
    GridBuckets,
    error_based_samples,
    landmark_samples,
    random_pair_samples,
    source_set,
    subgraph_level_samples,
    validation_set,
)
from .update import UpdateResult, affected_region, update_rne
from .training import (
    TrainConfig,
    TrainResult,
    level_schedule,
    train_flat,
    train_hierarchical,
    vertex_only_schedule,
)

__all__ = [
    "RNE",
    "BuildHistory",
    "CertifiedDistance",
    "DistanceLabeler",
    "HybridEstimator",
    "EmbeddingTreeIndex",
    "ErrorReport",
    "FinetuneResult",
    "GridBuckets",
    "HierarchicalRNE",
    "NormProfile",
    "collapse_fraction",
    "layout_correlation",
    "level_contributions",
    "norm_profile",
    "RNEConfig",
    "RNEModel",
    "TrainConfig",
    "TrainResult",
    "UpdateResult",
    "affected_region",
    "update_rne",
    "absolute_errors",
    "active_finetune",
    "bucketed_errors",
    "build_rne",
    "distance_scale_groups",
    "error_based_samples",
    "error_cdf",
    "error_report",
    "f1_score",
    "landmark_samples",
    "level_schedule",
    "lp_distance",
    "lp_gradient",
    "random_pair_samples",
    "relative_errors",
    "source_set",
    "subgraph_level_samples",
    "train_flat",
    "train_hierarchical",
    "validation_set",
    "vertex_only_schedule",
]
