"""Numerical membership oracle for the second-order subdifferential of the
gradient map, calmness estimation, and the combined hypothesis checker.

For a C1 objective f, a candidate z belongs to the generalized second-order
action at a base point in direction v exactly when

    limsup_{x -> base}  [<z, x-base> - <grad f(x), v> + <grad f(base), v>]
                        / (||x-base|| + ||grad f(x) - grad f(base)||)  <=  0.

A true limsup cannot be computed from finitely many samples, so the oracle
approximates it by the maximum quotient over a mesh of probe points
base +- delta, delta in :data:`TAIL_DELTAS` = 10^-4, 10^-4.5, ..., 10^-8,
and judges that maximum against a verdict tolerance.  The mesh is fixed:
coarser offsets never entered a verdict.  Mesh and tolerance are part of
the contract, and are tested against ex41's closed form [-v, 0] (v >= 0),
which the ``ssd`` report writes out for that fixture.  The correction term
<grad f(base), v> vanishes at critical base points and is always included so
the oracle stays usable elsewhere.

The mesh oracle and the calmness estimate are one-dimensional, the only
dimension the ``ssd`` command asks them for; for twice-differentiable
objectives of any dimension the action is the Hessian product, available in
closed form.
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

DEFAULT_MEMBERSHIP_TOL = 1e-6
# the probe offsets 10^-e, e = 4, 4.5, ..., 8; each e is exact in binary
TAIL_DELTAS = tuple(10.0 ** (-k / 2) for k in range(8, 17))
# a report's configuration.mesh: the exponents start:stop:step of a range
# whose offsets above TAIL_DELTAS enter no verdict
MESH_SPEC = "1.0:8.0:0.5"


class MembershipVerdict(NamedTuple):
    member: bool
    worst_quotient: float
    attaining_sample: float | None

    @property
    def verdict(self) -> str:
        return "Member" if self.member else "NotMember"


def _gradient_1d(objective: SmoothObjective, x: float) -> float:
    return objective.gradient_at((x,))[0]


def ssd_membership(
    objective: SmoothObjective,
    base: float,
    direction: float,
    candidate: float,
    tolerance: float = DEFAULT_MEMBERSHIP_TOL,
) -> MembershipVerdict:
    """Mesh oracle for the membership quotient of ``candidate`` at ``base``
    in ``direction``; Member iff the tail maximum stays at or below
    ``tolerance``.

    Probe points with an exactly zero denominator (the base point itself,
    after rounding) are skipped, as the quotient is undefined there.
    """
    if objective.dimension != 1:
        raise ValueError(
            "the mesh oracle supports dimension one only; use the Hessian "
            "closed form for higher dimensions"
        )
    grad_base = _gradient_1d(objective, base)
    worst = float("-inf")
    attaining = None
    for delta in TAIL_DELTAS:
        for x in (base + delta, base - delta):
            quotient = _membership_quotient(objective, base, direction, candidate, x, grad_base)
            if quotient is None:
                continue
            if quotient > worst:
                worst, attaining = quotient, x
    if attaining is None:
        raise ValueError("the mesh produced no usable probe points")
    return MembershipVerdict(
        member=worst <= tolerance,
        worst_quotient=worst,
        attaining_sample=attaining,
    )


def _membership_quotient(
    objective: SmoothObjective, base: float, direction: float, candidate: float, x: float, grad_base: float
) -> float | None:
    """The quotient at the probe ``x``, ``grad_base`` the gradient at ``base``;
    None where its denominator is 0."""
    grad_x = _gradient_1d(objective, x)
    denominator = abs(x - base) + abs(grad_x - grad_base)
    if denominator == 0.0:
        return None
    return (candidate * (x - base) - grad_x * direction + grad_base * direction) / denominator


def ssd_hessian_closed_form(objective: SmoothObjective, point, direction) -> Floats:
    """For C2 objectives the action is a singleton: the Hessian product."""
    return _action(objective.hessian_at(point), _point(direction, objective.dimension))


def _van_der_corput(index: int) -> float:
    """The index-th point of the base-2 van der Corput sequence, a dyadic
    rational in [0, 1): the binary digits of ``index`` mirrored about the binary point."""
    return int(format(index, "b")[::-1], 2) / (1 << index.bit_length())


def estimate_calmness(
    objective: SmoothObjective,
    point,
    radius: float,
    samples: int = 512,
) -> float:
    """Estimate the local gradient Lipschitz modulus near ``point`` of a
    one-dimensional objective (ValueError in any other dimension): the
    largest difference quotient of the gradient over ``samples`` probes.

    Probe i = 1, 2, ... is point + radius * (2 vdc(i) - 1), vdc the base-2
    van der Corput sequence; a probe that rounds onto the base point is
    skipped until ``samples`` quotients have been evaluated.  The estimate
    is a lower bound of the true modulus, nondecreasing in ``samples``
    because the probe sequence is nested.
    """
    if objective.dimension != 1:
        raise ValueError("calmness estimation is one-dimensional")
    if radius <= 0:
        raise ValueError("radius must be positive")
    if samples < 1:
        raise ValueError("at least one sample is required")
    (base,) = _point(point, 1)
    grad_base = _gradient_1d(objective, base)
    best = 0.0
    accepted = 0
    index = 0
    while accepted < samples:
        index += 1
        probe = base + radius * (2.0 * _van_der_corput(index) - 1.0)
        distance = abs(probe - base)
        if distance == 0.0:
            continue
        accepted += 1
        best = max(best, abs(_gradient_1d(objective, probe) - grad_base) / distance)
    return best


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
