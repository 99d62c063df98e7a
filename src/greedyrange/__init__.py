"""Approximate range search over products of metric spaces.

The library builds greedy trees (farthest-point orderings folded into
binary covering trees) over each factor of a product metric, answers
product range queries through a split engine that works in rounds, with
a per-query approximation knob, and ships a brute-force oracle so every
answer can be checked against the containment contract:

    exact(r) <= reported <= exact((1 + epsilon) * r)   per factor.
"""

from .cascade import (
    GreedyRangeTree,
    aux_leaf_totals,
    build_grt,
    grt_from_obj,
    grt_query,
    grt_to_obj,
)
from .dataset import (
    Dataset,
    FactorSpec,
    WorkloadQuery,
    load_dataset,
    load_factor_specs,
    load_results,
    load_workload,
    write_dataset,
    write_results,
    write_workload,
)
from .datagen import calibrated_queries, synth_dataset
from .errors import ConfigurationError, InputError
from .metrics import (
    AbsDiffMetric,
    DatasetSummary,
    FactorStats,
    LevenshteinMetric,
    MetricSpace,
    MinkowskiMetric,
    ProductMetric,
    dataset_summary,
    levenshtein,
)
from .oracle import SandwichVerdict, exact_product_range, sandwich_check
from .search import (
    NodeCover,
    ProductQuery,
    SearchStats,
    product_range_query,
    range_cover,
    range_report,
)
from .tree import (
    GreedyPermutation,
    GreedyTree,
    VerificationReport,
    build_greedy_tree,
    greedy_permutation,
    merge,
    tree_from_obj,
    tree_to_obj,
    verify_greedy_tree,
)

__version__ = "0.1.0"

__all__ = [
    "AbsDiffMetric",
    "ConfigurationError",
    "Dataset",
    "DatasetSummary",
    "FactorSpec",
    "FactorStats",
    "GreedyPermutation",
    "GreedyRangeTree",
    "GreedyTree",
    "InputError",
    "LevenshteinMetric",
    "MetricSpace",
    "MinkowskiMetric",
    "NodeCover",
    "ProductMetric",
    "ProductQuery",
    "SandwichVerdict",
    "SearchStats",
    "VerificationReport",
    "WorkloadQuery",
    "aux_leaf_totals",
    "build_greedy_tree",
    "build_grt",
    "calibrated_queries",
    "dataset_summary",
    "exact_product_range",
    "greedy_permutation",
    "grt_from_obj",
    "grt_query",
    "grt_to_obj",
    "levenshtein",
    "load_dataset",
    "load_factor_specs",
    "load_results",
    "load_workload",
    "merge",
    "product_range_query",
    "range_cover",
    "range_report",
    "sandwich_check",
    "synth_dataset",
    "tree_from_obj",
    "tree_to_obj",
    "verify_greedy_tree",
    "write_dataset",
    "write_results",
    "write_workload",
]
