"""Sequential CLOUDS classifier, split machinery and baselines
(Section 4 of the paper)."""

from .builder import CloudsBuilder, CloudsConfig, draw_sample, find_split_from_arrays
from .direct import StoppingRule, find_split_direct, fit_direct
from .gini import (
    best_categorical_split,
    best_numeric_split_exact,
    best_numeric_splits,
    boundary_sweep,
    gini_from_counts,
    gini_lower_bound,
    gini_lower_bounds,
    weighted_gini,
)
from .intervals import (
    boundaries_from_sample,
    categorical_count_matrix,
    class_counts,
    interval_histogram,
    interval_index,
    scale_q,
)
from .inspect import gini_importance, permutation_importance
from .mdl import MdlPruneConfig, mdl_prune
from .metrics import (
    TreeQuality,
    accuracy,
    confusion_matrix,
    error_rate,
    evaluate_tree,
    train_test_split,
)
from .nodestats import NodeStats, NumericStats, accumulate_batch, empty_stats, stats_from_arrays
from .splits import CATEGORICAL_SPLIT, NUMERIC_SPLIT, Split, better
from .sliq import SliqBuilder
from .sprint import AttributeList, SprintBuilder
from .ss import find_split_ss
from .sse import (
    AliveInterval,
    determine_alive_intervals,
    evaluate_alive_interval,
    member_mask,
    refine_with_alive,
    survival_ratio,
)
from .forest import DecisionForest, validate_forest
from .tree import DecisionTree, TreeNode, validate_tree
from .validation import CvResult, cross_validate, reduced_error_prune

__all__ = [
    "AliveInterval",
    "AttributeList",
    "CATEGORICAL_SPLIT",
    "CloudsBuilder",
    "CloudsConfig",
    "DecisionForest",
    "DecisionTree",
    "MdlPruneConfig",
    "NUMERIC_SPLIT",
    "NodeStats",
    "NumericStats",
    "Split",
    "SliqBuilder",
    "SprintBuilder",
    "StoppingRule",
    "TreeNode",
    "TreeQuality",
    "accumulate_batch",
    "accuracy",
    "best_categorical_split",
    "best_numeric_split_exact",
    "best_numeric_splits",
    "better",
    "boundaries_from_sample",
    "boundary_sweep",
    "categorical_count_matrix",
    "class_counts",
    "confusion_matrix",
    "cross_validate",
    "CvResult",
    "determine_alive_intervals",
    "draw_sample",
    "empty_stats",
    "error_rate",
    "evaluate_alive_interval",
    "evaluate_tree",
    "find_split_direct",
    "find_split_from_arrays",
    "find_split_ss",
    "fit_direct",
    "gini_from_counts",
    "gini_importance",
    "gini_lower_bound",
    "gini_lower_bounds",
    "interval_histogram",
    "interval_index",
    "mdl_prune",
    "member_mask",
    "permutation_importance",
    "reduced_error_prune",
    "refine_with_alive",
    "scale_q",
    "stats_from_arrays",
    "survival_ratio",
    "train_test_split",
    "validate_forest",
    "validate_tree",
    "weighted_gini",
]
