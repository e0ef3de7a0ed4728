"""Exact balanced (lexmin) flows for transshipment networks.

Decides weak solvability and solvability through cut conditions, computes
the exact minmax excess ratio with a critical cut, and constructs the unique
balanced flow together with a machine-checkable certificate. All arithmetic
is exact rational.
"""

from .balancer import (
    BalancedSolution,
    Certificate,
    EmptyCutArcSet,
    Level,
    MonotonicityViolation,
    NotCritical,
    VerificationResult,
    balanced_flow,
    reduce_problem,
    verify_certificate,
)
from .gale_hoffman import (
    FatalCutReport,
    FeasibilityReport,
    InvariantViolation,
    TwoPole,
    build_two_pole,
    has_fatal_cut,
    is_feasible,
    total_integer_capacity,
)
from .maxflow import FlowNetwork, MaxFlowResult, max_flow
from .model import (
    Arc,
    BalanceSumNonzero,
    Cut,
    CutStats,
    DuplicateId,
    Flow,
    InvalidPartition,
    KeyMismatch,
    ModelError,
    NonpositiveCapacity,
    Problem,
    SelfLoop,
    cut_stats,
    format_rational,
    node_balance_residual,
    parse_rational,
    validate_problem,
)
from .oracle import (
    LinearProgram,
    LPResult,
    LPStatus,
    OracleInfeasible,
    lp_solve,
    oracle_lexmin,
)
from .ratio_search import (
    FatalCutPresent,
    IterationCapExceeded,
    RatioResult,
    SearchStep,
    minmax_ratio,
    minmax_ratio_dichotomy,
)

__version__ = "0.1.0"

__all__ = [
    "Arc",
    "BalanceSumNonzero",
    "BalancedSolution",
    "Certificate",
    "Cut",
    "CutStats",
    "DuplicateId",
    "EmptyCutArcSet",
    "FatalCutPresent",
    "FatalCutReport",
    "FeasibilityReport",
    "Flow",
    "FlowNetwork",
    "InvalidPartition",
    "InvariantViolation",
    "IterationCapExceeded",
    "KeyMismatch",
    "LPResult",
    "LPStatus",
    "Level",
    "LinearProgram",
    "MaxFlowResult",
    "ModelError",
    "MonotonicityViolation",
    "NonpositiveCapacity",
    "NotCritical",
    "OracleInfeasible",
    "Problem",
    "RatioResult",
    "SearchStep",
    "SelfLoop",
    "TwoPole",
    "VerificationResult",
    "balanced_flow",
    "build_two_pole",
    "cut_stats",
    "format_rational",
    "has_fatal_cut",
    "is_feasible",
    "lp_solve",
    "max_flow",
    "minmax_ratio",
    "minmax_ratio_dichotomy",
    "node_balance_residual",
    "oracle_lexmin",
    "parse_rational",
    "reduce_problem",
    "total_integer_capacity",
    "validate_problem",
    "verify_certificate",
]
