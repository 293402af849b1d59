"""Subspace segmentation by least squares regression.

Closed-form self-representation solvers, a normalized-cuts spectral
pipeline, synthetic union-of-subspaces generators, and a diagnostics suite
that machine-verifies the block-diagonality and grouping-effect structure
of the solutions.
"""

__version__ = "0.1.0"

from .datagen import BasisSet, DataMatrix, SubspaceSpec, generate, is_independent, is_orthogonal
from .ingest import load_csv, pca_project, unit_columns, write_csv
from .metrics import (
    GroupingEffectSummary,
    SegmentationReport,
    align_clusters,
    block_diag_violation,
    check_ebd,
    grouping_effect_stats,
    segmentation_error,
)
from .solvers import (
    Coefficients,
    column_oracle_ridge,
    lsr1,
    lsr2,
    lsr_constrained,
)
from .spectral import Affinity, Labeling, build_affinity, kmeans, normalized_cuts

__all__ = [
    "__version__",
    "Affinity",
    "BasisSet",
    "Coefficients",
    "DataMatrix",
    "GroupingEffectSummary",
    "Labeling",
    "SegmentationReport",
    "SubspaceSpec",
    "align_clusters",
    "block_diag_violation",
    "build_affinity",
    "check_ebd",
    "column_oracle_ridge",
    "generate",
    "grouping_effect_stats",
    "is_independent",
    "is_orthogonal",
    "kmeans",
    "load_csv",
    "lsr1",
    "lsr2",
    "lsr_constrained",
    "normalized_cuts",
    "pca_project",
    "segmentation_error",
    "unit_columns",
    "write_csv",
]
