"""The Fréchet second-order subdifferential of an objective, the calmness
modulus of a 1-D derivative, and the combined hypothesis checker.

Let f be C1 in one variable, and let f' have the one-sided derivatives a
(from the left) and b (from the right) at the base point.  Near it the graph
of f' has the contingent cone {(u, a u) : u <= 0} u {(u, b u) : u >= 0}, and
the Fréchet normal cone is its polar (Rockafellar & Wets, *Variational
Analysis*, 1998, ch. 6).  So z lies in the second-order subdifferential in
direction v, (z, -v) a Fréchet normal, exactly when

    a v <= z <= b v,

an interval that is empty when a v > b v; and the calmness modulus of f' at
the base point is max(|a|, |b|).  For a C2 objective of any dimension the
set is the singleton {M v} of the Hessian M, the pair (M, M).  Both are
read entry by entry as {z : A v <= z <= B v} from the exact pair (A, B) of
:meth:`SmoothObjective.one_sided_slopes`; a float point, direction or
candidate enters as its binary64 value.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .geometry import PolyhedralCone
from .linalg import RationalVector
from .objectives import (
    DEFAULT_FLOAT_TOL,
    QuadraticObjective,
    SmoothObjective,
    TangentRegion,
    _dot,
)
from .optimality import (
    ConditionId,
    ConditionReport,
    CriticalDirection,
    Verdict,
    _as_rational_vector,
    _direction_passes,
    _linear,
)

Fractions = tuple[Fraction, ...]


class MembershipVerdict(NamedTuple):
    member: bool

    @property
    def verdict(self) -> str:
        return "Member" if self.member else "NotMember"


def ssd_interval(objective: SmoothObjective, base, direction) -> tuple[Fractions, Fractions] | None:
    """The second-order subdifferential at the point ``base`` in
    ``direction``: its exact ends (A v, B v), or None where it is empty.
    Beyond 1-D only a C2 pair (A = B) has this form."""
    lower, upper = objective.one_sided_slopes(base)
    if objective.dimension > 1 and lower != upper:
        raise ValueError("the second-order subdifferential beyond 1-D needs equal slopes (a C2 objective)")
    v = RationalVector(map(Fraction, direction))
    ends = lower.matvec(v).entries, upper.matvec(v).entries
    return ends if all(a <= b for a, b in zip(*ends)) else None


def _contains(interval: tuple[Fractions, Fractions] | None, candidate, tolerance) -> bool:
    """Whether every entry of ``candidate`` lies within ``tolerance`` of
    ``interval``, an empty one (None) holding nothing, compared exactly."""
    if interval is None:
        return False
    (lower, upper), slack = interval, Fraction(tolerance)
    return all(lo - slack <= Fraction(z) <= hi + slack for lo, z, hi in zip(lower, candidate, upper, strict=True))


def ssd_membership(
    objective: SmoothObjective,
    base,
    direction,
    candidate,
    tolerance: float = 0.0,
) -> MembershipVerdict:
    """Member iff ``candidate`` lies in :func:`ssd_interval` at ``base`` in
    ``direction``, or within ``tolerance`` of its ends."""
    return MembershipVerdict(_contains(ssd_interval(objective, base, direction), candidate, tolerance))


def estimate_calmness(objective: SmoothObjective, point) -> Fraction:
    """The calmness modulus max(|a|, |b|) of f' at the 1-D ``point``, exact."""
    if objective.dimension != 1:
        raise ValueError("the calmness modulus is computed for a 1-D objective")
    return max(abs(slope.entry(0, 0)) for slope in objective.one_sided_slopes(point))


# ---------------------------------------------------------------------------
# Combined hypothesis + second-order membership condition (CLI: theorem41)
# ---------------------------------------------------------------------------


class PairingEntry(NamedTuple):
    """One candidate z with its pairing <z, v> and the sign verdict, both
    exact in an exact run."""

    candidate: RationalVector | tuple[float, ...]
    pairing: Fraction | float
    holds: bool


class HypothesisReport(NamedTuple):
    """Verdict of the bidirectional-critical-direction condition check.

    The hypothesis triple is: v tangent, -v tangent, gradient orthogonal to
    v.  When it fails the report still evaluates both component conditions,
    so near-misses show exactly which inequality breaks; the classification
    then distinguishes merely critical directions from bidirectionally
    critical ones.
    """

    direction: CriticalDirection
    gradient_condition: ConditionReport | None
    pairings: tuple[PairingEntry, ...]

    @property
    def status(self) -> str:
        if not self.direction.is_bidirectional:
            return "HypothesisViolated"
        condition = self.gradient_condition
        if not all(entry.holds for entry in self.pairings) or (condition and condition.verdict is Verdict.FAILS):
            return "Fails"
        return "Holds"


def theorem41_check(
    objective: SmoothObjective | QuadraticObjective,
    tangent: PolyhedralCone | TangentRegion,
    point,
    directions,
    candidates,
    tolerance: float = DEFAULT_FLOAT_TOL,
) -> tuple[HypothesisReport, ...]:
    """Check the hypothesis triple and both second-order inequalities, one
    report per direction.

    ``tangent`` is T(x) at ``point``, as for :func:`theorem33_check`, whose
    preamble this check shares: a :class:`QuadraticObjective` needs a
    polyhedral T(x) and is checked exactly, with tolerance 0, and any other
    objective in float.  The gradient condition (<grad f, w> >= 0 on the
    second-order tangent set) is evaluated whenever v is tangent, even if -v
    is not, so a failed hypothesis still yields a fully populated report;
    the pairing condition <z, v> >= 0 is evaluated for every supplied
    candidate, exactly against an exact v (where <z, v> = 0 must not round
    below 0).
    """
    tolerance, passes = _direction_passes(objective, tangent, point, directions, tolerance)
    reports = []
    for _, critical, _, infimum in passes:
        v, entries = critical.vector, []
        for z in candidates:
            if isinstance(v, RationalVector):
                z = _as_rational_vector(z)
                value = z.dot(v)
            else:
                z = tuple(map(float, z))
                value = _dot(z, v)
            entries.append(PairingEntry(z, value, value >= -tolerance))
        gradient_condition = None if infimum is None else _linear(ConditionId.C1, infimum, tolerance)
        reports.append(HypothesisReport(critical, gradient_condition, tuple(entries)))
    return tuple(reports)
