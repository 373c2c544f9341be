"""Regularized on-line layout of dynamic networks.

Lays out a time-indexed sequence of graph snapshots while keeping group
members together (grouping penalty) and limiting inter-frame node movement
(temporal penalty), alongside the static and on-line baselines those
methods are evaluated against.
"""

from .distances import (DistanceMatrix, kk_weights, shortest_path_distances,
                        similarity_to_dissimilarity, top_m_graph)
from .errors import DataError, DynlayoutError, NotPositiveDefiniteError, NumericalError
from .graph import (DynamicNetwork, GroupAssignment, NodeRegistry, Snapshot,
                    build_membership_matrix, validate_snapshot)
from .layout import Layout, align_to_reference
from .metrics import (CostReport, StepCosts, centroid_cost, static_cost_gll,
                      static_cost_mds, temporal_cost)
from .pipeline import (LayoutSequence, LayoutStep, RegularizationConfig,
                       learn_group_sequence, parameter_sweep, run_sequence)
from .sbm import SbmConfig, sbm_sample, sbm_sequence

__all__ = [
    "CostReport", "DataError", "DistanceMatrix", "DynamicNetwork", "DynlayoutError",
    "GroupAssignment", "Layout", "LayoutSequence", "LayoutStep", "NodeRegistry",
    "NotPositiveDefiniteError", "NumericalError", "RegularizationConfig", "SbmConfig",
    "Snapshot", "StepCosts", "align_to_reference", "build_membership_matrix",
    "centroid_cost", "kk_weights", "learn_group_sequence", "parameter_sweep",
    "run_sequence", "sbm_sample", "sbm_sequence", "shortest_path_distances",
    "similarity_to_dissimilarity", "static_cost_gll", "static_cost_mds", "temporal_cost",
    "top_m_graph", "validate_snapshot",
]

__version__ = "0.1.0"
