"""cone-audit: exact polyhedral cone computations and optimality-condition checks.

The package represents polyhedral convex constraint sets in exact rational
arithmetic, computes their contingent cones, second-order tangent sets and
normal cones in closed form, and verifies first-order and second-order
necessary optimality conditions at user-supplied candidate points, with
witnesses and certificates.  A float regime with explicit tolerances covers
single smooth level-set constraints; the second-order subdifferential is
decided exactly from the objective's one-sided slopes: an interval in one
dimension, the Hessian action of a C2 objective in any.
"""

from ._version import __version__
from .analysis import revalidate_report, run_analysis
from .dd import GeneratorSet, double_description
from .errors import (
    AnalysisError,
    ConeAuditError,
    DimensionCapExceededError,
    DimensionMismatchError,
    InactiveConstraintError,
    NotInSetError,
    NotTangentDirectionError,
    ProblemFormatError,
    VanishingGradientError,
)
from .geometry import PolyhedralCone, Polyhedron
from .linalg import RationalMatrix, RationalVector, matrix, rational, vector
from .lp import LPResult, LPStatus, solve_lp
from .objectives import (
    AffineRegion,
    ConstraintKind,
    ExampleFixture,
    QuadraticObjective,
    RegionKind,
    SmoothLevelSetConstraint,
    SmoothObjective,
    fixture,
)
from .problem import ProblemFile, parse_problem
from .optimality import (
    ConditionId,
    ConditionReport,
    CopositivityResult,
    CopositivityStatus,
    CriticalDirection,
    LagrangeCertificate,
    QPConditions,
    SecondOrderBundle,
    Verdict,
    check_c1,
    check_c2_copositivity,
    check_qp,
    classical_second_order_check,
    critical_cone,
    first_order_check,
    theorem33_check,
)
from .ssd import (
    HypothesisReport,
    MembershipVerdict,
    estimate_calmness,
    ssd_membership,
    theorem41_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
