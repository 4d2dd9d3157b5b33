"""The Fréchet second-order subdifferential of a 1-D objective, the calmness
modulus of its derivative, and the combined hypothesis checker.

Let f be C1 in one variable, and let f' have the one-sided derivatives a
(from the left) and b (from the right) at the base point.  Near it the graph
of f' has the contingent cone {(u, a u) : u <= 0} u {(u, b u) : u >= 0}, and
the Fréchet normal cone is its polar (Rockafellar & Wets, *Variational
Analysis*, 1998, ch. 6).  So z lies in the second-order subdifferential in
direction v, (z, -v) a Fréchet normal, exactly when

    a v <= z <= b v,

an interval that is empty when a v > b v; and the calmness modulus of f' at
the base point is max(|a|, |b|).  Both are exact: the slopes come from
:meth:`SmoothObjective.one_sided_slopes`, and a float point, direction or
candidate enters as its binary64 value.  For a twice-differentiable objective
of any dimension the action is the Hessian product.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .geometry import PolyhedralCone
from .linalg import RationalVector
from .objectives import (
    DEFAULT_FLOAT_TOL,
    Floats,
    QuadraticObjective,
    SmoothObjective,
    TangentRegion,
    _action,
    _dot,
    _point,
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


class MembershipVerdict(NamedTuple):
    member: bool

    @property
    def verdict(self) -> str:
        return "Member" if self.member else "NotMember"


def ssd_interval(objective: SmoothObjective, base, direction) -> tuple[Fraction, Fraction] | None:
    """The second-order subdifferential of a 1-D objective at ``base`` in
    ``direction``: the interval (a v, b v) of exact ends, or None where it
    is empty."""
    a, b = objective.one_sided_slopes((base,))
    v = Fraction(direction)
    return (a * v, b * v) if a * v <= b * v else None


def _contains(interval: tuple[Fraction, Fraction] | None, candidate, tolerance) -> bool:
    """Whether ``candidate`` lies within ``tolerance`` of ``interval``, an
    empty one (None) holding nothing, compared exactly."""
    z, slack = Fraction(candidate), Fraction(tolerance)
    return interval is not None and interval[0] - slack <= z <= interval[1] + slack


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


def ssd_hessian_closed_form(objective: SmoothObjective, point, direction) -> Floats:
    """For C2 objectives the action is a singleton: the Hessian product."""
    return _action(objective.hessian_at(point), _point(direction, objective.dimension))


def estimate_calmness(objective: SmoothObjective, point) -> Fraction:
    """The calmness modulus max(|a|, |b|) of f' at the 1-D ``point``, exact."""
    return max(map(abs, objective.one_sided_slopes(point)))


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
