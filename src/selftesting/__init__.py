"""Self-testing toolkit for pure two-party entangled states.

Given the Schmidt coefficients of any pure entangled state of two d-level
systems, this package produces the correlation tables that certify the
state from statistics alone, simulates the ideal measurements achieving
them, scores each 2x2 block against its exact tilted-CHSH maximum, and
runs the extraction isometry that pulls the target state (and the ideal
measurement action) out of any realization reproducing the tables.
"""

from __future__ import annotations

from .chsh import BlockScore, block_correlators, block_scores, block_violation
from .correlations import (
    CorrelationTables,
    VerificationReport,
    compute_tables,
    no_signaling_check,
    reference_tables,
    verify_tables,
)
from .errors import (
    AngleRangeError,
    CoefficientRangeError,
    CoverageError,
    DegenerateBlockError,
    DimensionError,
    HermiticityError,
    IsometryConsistencyError,
    NormalizationError,
    ParseError,
    SelfTestingError,
)
from .extraction import (
    CriterionOperators,
    ExtractionReport,
    apply_isometry,
    block_identity_checks,
    build_block_operators,
    build_criterion_ops,
    build_block_frame,
    check_criterion,
    extraction_report,
    frame_identity_checks,
    measurement_equivalence,
)
from .harness import EmbeddingSpec, SampleResult, embed_realization, sample_tables
from .ideal import Measurement, Realization, ideal_alice, ideal_bob, ideal_realization
from .schmidt import (
    AngleSchedule,
    Block,
    SchmidtCoefficients,
    angles,
    blocks,
    corner,
    pairs,
    target_state,
)

__version__ = "0.1.0"
