"""Reference mesh oracle for the differential tests of ``cone_audit.ssd``.

This is the float membership oracle ``ssd_membership`` ran before the exact
interval replaced it.  For a 1-D C1 objective, z belongs to the second-order
subdifferential at ``base`` in direction v when

    limsup_{x -> base} [z (x - base) - (f'(x) - f'(base)) v]
                       / (|x - base| + |f'(x) - f'(base)|)  <=  0,

and the oracle judges the largest quotient over the probes base +- delta,
delta = 10^-4, 10^-4.5, ..., 10^-8, against a tolerance of 1e-6.  Its tail
probes see a smooth piece's curvature as a quotient of about delta/2, so it
can only agree with the exact set away from the set's ends and where f' is
piecewise linear near the base point.
"""

from __future__ import annotations

from cone_audit.objectives import SmoothObjective

# the probe offsets 10^-e, e = 4, 4.5, ..., 8; each e is exact in binary
TAIL_DELTAS = tuple(10.0 ** (-k / 2) for k in range(8, 17))
MEMBERSHIP_TOL = 1e-6


def mesh_quotient(objective: SmoothObjective, base: float, direction: float, candidate: float, x: float) -> float | None:
    """The membership quotient at the probe ``x``; None where its denominator is 0."""
    grad_base = objective.gradient_at((base,))[0]
    grad_x = objective.gradient_at((x,))[0]
    denominator = abs(x - base) + abs(grad_x - grad_base)
    if denominator == 0.0:
        return None
    return (candidate * (x - base) - grad_x * direction + grad_base * direction) / denominator


def mesh_member(objective: SmoothObjective, base: float, direction: float, candidate: float) -> bool:
    """Whether the largest quotient over the probes stays at or below the tolerance."""
    quotients = [
        mesh_quotient(objective, base, direction, candidate, x)
        for delta in TAIL_DELTAS
        for x in (base + delta, base - delta)
    ]
    usable = [q for q in quotients if q is not None]
    if not usable:
        raise ValueError("the mesh produced no usable probe points")
    return max(usable) <= MEMBERSHIP_TOL
