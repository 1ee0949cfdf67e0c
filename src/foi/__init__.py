"""Composite development-index pipeline.

Rescale raw country indicators onto a common 1-7 scale, aggregate them
into Future/Outside/Inside pillar indices, classify economies into
eight interval-halving clusters, analyze epoch-to-epoch shifts, and run
a from-scratch exploratory factor analysis (PCA extraction, varimax
rotation, KMO, sphericity test, regression factor scores).
"""

import os

# before numpy loads: foi's matrices are too small for a BLAS pool; one thread gives the same bytes on any CPU count
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .classify import (
    CLUSTER_LABELS,
    CLUSTER_LEVELS,
    ClusterAssignment,
    CountryShift,
    ShiftReport,
    classify,
    classify_epoch,
    shift_report,
)
from .errors import (
    AggregationError,
    CountrySetMismatchError,
    DomainError,
    DuplicateCountryError,
    EmptyColumnError,
    FixtureIntegrityError,
    FoiError,
    PanelParseError,
    SchemaError,
    SingularMatrixError,
    UndefinedStatisticError,
)
from .factor import (
    BartlettResult,
    CorrelationMatrix,
    FactorModel,
    VariableMatrix,
    bartlett_test,
    congruence,
    correlation_matrix,
    factor_scores,
    fit_factor_model,
    kaiser_count,
    kmo_statistic,
    load_variable_matrix,
    pca_extract,
    synthesize_known_factors,
    variance_explained,
    varimax_criterion,
    varimax_rotate,
)
from .manifest import (
    IndicatorManifest,
    IndicatorSpec,
    default_manifest,
    load_manifest,
    manifest_from_records,
)
from .panel import IndicatorPanel, ValidationReport, load_panel, validate_panel, write_panel
from .pillar import FoiScores, compute_pillar_scores, rank_countries
from .reference import ReferenceFixture, VerifyReport, load_fixture, verify_reference
from .rescale import min_max_rescale, rescale_panel, rescale_rule

__version__ = "0.1.0"
