"""First- and second-order necessary optimality condition checkers.

Every check reports one of Holds / Fails / Inconclusive with re-checkable
evidence: a failing check carries a witness vector that violates the
defining inequality when substituted back, and a rational-arithmetic Holds
carries an exact certificate (Lagrange multipliers or a copositivity trace).

The checks mirror the standard necessary conditions at a candidate point
x of  min f over C:

* first order:        <grad f(x), v> >= 0 on the tangent cone;
* classical second:   inf <grad f(x), w> over the second-order tangent set
                      plus <Hess f(x) v, v> is nonnegative, per critical v;
* strengthened (c1):  <grad f(x), w> >= 0 on the second-order tangent set;
* strengthened (c2):  <Hess f(x) v, v> >= 0 on the whole critical cone,
                      i.e. the Hessian is copositive there;
* QP (c0)/(c1')/(c2') are the same three specialized to quadratic data,
  run entirely in exact arithmetic.

Over a polyhedron (c1) at any one critical direction is equivalent to (c0)
and to (c1) at every critical direction: T(x) lies inside each second-order
tangent set T^2(x, v), and a (c0) multiplier is positive only on active rows
that stay tight along every critical v.  So the (c1') quantifier needs no
enumeration, and the classical check over a polyhedral second-order set is
(c1) read exactly plus the curvature sign.

Exact checks take tolerance 0.  Float-regime checks treat violations within
the tolerance as boundary Holds, because irrational candidate points make
exact zeros unattainable in binary64.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatchError
from .geometry import PolyhedralCone, Polyhedron
from .linalg import RationalMatrix, RationalVector
from .lp import LPResult, LPStatus, solve_lp
from .objectives import (
    AffineRegion,
    QuadraticObjective,
    RegionKind,
    SmoothLevelSetConstraint,
    SmoothObjective,
)

DEFAULT_FLOAT_TOL = 1e-9
DEFAULT_SUBDIVISION_DEPTH = 12
DEFAULT_FALSIFIER_SAMPLES = 100_000
_EIG_TOL = 1e-10
_FALSIFIER_BLOCK = 4096


class Verdict(Enum):
    HOLDS = "holds"
    FAILS = "fails"
    INCONCLUSIVE = "inconclusive"


class ConditionId(Enum):
    FIRST_ORDER = "FirstOrder"
    CLASSICAL_32 = "Classical32"
    C1 = "C1"
    C2 = "C2"
    QP_C0 = "QP_c0"
    QP_C1P = "QP_c1p"
    QP_C2P = "QP_c2p"


@dataclass(frozen=True)
class LagrangeCertificate:
    """Multipliers proving -gradient = sum(lambda_i * row_i) + A^T mu exactly.

    ``inequality_multipliers`` are (position, origin row, lambda) triples over
    the cone's inequality rows, lambda >= 0; ``equality_multipliers`` has one
    entry per equality row of the cone.
    """

    inequality_multipliers: tuple[tuple[int, int | None, Fraction], ...]
    equality_multipliers: RationalVector

    def verify(self, gradient: RationalVector, cone: PolyhedralCone) -> bool:
        total = RationalVector.zero(gradient.dim)
        for pos, _origin, lam in self.inequality_multipliers:
            if lam < 0:
                return False
            total = total + cone.ineq_rows.row(pos).scale(lam)
        for j, mu in enumerate(self.equality_multipliers):
            total = total + cone.eq_rows.row(j).scale(mu)
        return total == -gradient


class CopositivityStatus(Enum):
    COPOSITIVE = "copositive"
    NOT_COPOSITIVE = "not copositive"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class CopositivityResult:
    """Outcome of a copositivity test over a cone.

    On NOT_COPOSITIVE the witness lies in the cone and its quadratic form
    value is negative (exact whenever the data is rational).
    """

    status: CopositivityStatus
    witness: RationalVector | tuple[float, ...] | None = None
    witness_value: Fraction | float | None = None
    depth_reached: int = 0
    cells_certified: int = 0
    method: str = ""


@dataclass(frozen=True)
class ConditionReport:
    condition: ConditionId
    verdict: Verdict
    witness: RationalVector | tuple[float, ...] | None = None
    certificate: LagrangeCertificate | CopositivityResult | None = None
    margin: Fraction | float | None = None
    boundary: bool = False
    checked_directions: tuple | None = None
    witness_direction: RationalVector | tuple | None = None
    notes: str = ""


@dataclass(frozen=True)
class CriticalDirection:
    """A direction with its verified tangency/orthogonality flags."""

    vector: tuple
    in_tangent_cone: bool
    negation_in_tangent_cone: bool
    gradient_orthogonal: bool

    @property
    def is_critical(self) -> bool:
        return self.in_tangent_cone and self.gradient_orthogonal

    @property
    def is_bidirectional(self) -> bool:
        """Critical with -v also tangent (the stronger hypothesis some
        subdifferential-based conditions require)."""
        return self.is_critical and self.negation_in_tangent_cone


def assess_direction_polyhedral(
    tangent: PolyhedralCone,
    direction: RationalVector,
    gradient_pairing: Fraction | float,
    tolerance: float | Fraction = 0,
) -> CriticalDirection:
    """Flags of a direction against the tangent cone T(x) of a polyhedron."""
    return CriticalDirection(
        vector=tuple(direction.entries),
        in_tangent_cone=tangent.contains(direction),
        negation_in_tangent_cone=tangent.contains(-direction),
        gradient_orthogonal=abs(gradient_pairing) <= tolerance,
    )


def assess_direction_region(
    region: AffineRegion,
    direction,
    gradient_pairing: float,
    tolerance: float = DEFAULT_FLOAT_TOL,
) -> CriticalDirection:
    vec = np.asarray(direction, dtype=float).reshape(-1)
    return CriticalDirection(
        vector=tuple(float(a) for a in vec),
        in_tangent_cone=region.contains(vec, tolerance),
        negation_in_tangent_cone=region.contains(-vec, tolerance),
        gradient_orthogonal=abs(gradient_pairing) <= tolerance,
    )


# ---------------------------------------------------------------------------
# Linear conditions: <gradient, .> >= 0 over a cone or affine region
# ---------------------------------------------------------------------------


def _as_rational_vector(values) -> RationalVector:
    """Exact entries: Fraction(a) is exact for rationals and binary64 floats alike."""
    if isinstance(values, RationalVector):
        return values
    return RationalVector([Fraction(a) for a in np.asarray(values, dtype=object).reshape(-1)])


def _pairing_lp(gradient: RationalVector, cone: PolyhedralCone) -> LPResult:
    """min <gradient, w> over the cone: optimal at 0 with its multipliers, or
    unbounded along a ray."""
    if gradient.dim != cone.dim:
        raise DimensionMismatchError("gradient dimension does not match the cone")
    return solve_lp(
        gradient,
        eq_matrix=cone.eq_rows,
        eq_rhs=RationalVector.zero(cone.eq_rows.nrows),
        ineq_matrix=cone.ineq_rows,
        ineq_rhs=RationalVector.zero(cone.ineq_rows.nrows),
    )


def _linear_condition_on_cone(
    gradient: RationalVector,
    cone: PolyhedralCone,
    result: LPResult,
    tolerance,
    condition: ConditionId,
) -> ConditionReport:
    """Read the pairing LP ``result`` as <gradient, .> >= 0 on the cone."""
    if result.status is LPStatus.OPTIMAL:
        # The infimum over a cone is 0; the dual multipliers certify
        # -gradient = sum(lambda_i row_i) + sum(mu_j eq_j).
        certificate = LagrangeCertificate(
            inequality_multipliers=tuple(
                (pos, cone.ineq_origins[pos], lam)
                for pos, lam in enumerate(result.dual_inequalities)
            ),
            equality_multipliers=-result.dual_equalities,
        )
        if not certificate.verify(gradient, cone):
            raise RuntimeError("Lagrange certificate failed exact verification")
        return ConditionReport(
            condition=condition,
            verdict=Verdict.HOLDS,
            certificate=certificate,
            margin=Fraction(0),
        )
    ray = result.witness.primitive()
    violation = gradient.dot(ray)
    sup = max(abs(a) for a in ray.entries)
    scaled = violation / sup
    if tolerance and abs(scaled) <= tolerance:
        return ConditionReport(
            condition=condition,
            verdict=Verdict.HOLDS,
            margin=float(scaled),
            boundary=True,
            notes="violation within tolerance; treated as boundary case",
        )
    return ConditionReport(
        condition=condition,
        verdict=Verdict.FAILS,
        witness=ray,
        margin=scaled if tolerance == 0 else float(scaled),
    )


def _linear_condition_on_region(
    gradient,
    region: AffineRegion,
    tolerance: float,
    condition: ConditionId,
) -> ConditionReport:
    value, attained, ray = region.linear_infimum(gradient, tolerance)
    if value == float("-inf"):
        return ConditionReport(
            condition=condition,
            verdict=Verdict.FAILS,
            witness=tuple(float(a) for a in ray),
            margin=float("-inf"),
            notes="pairing is unbounded below on the region",
        )
    if value >= -tolerance:
        return ConditionReport(
            condition=condition,
            verdict=Verdict.HOLDS,
            margin=float(value),
            boundary=abs(value) <= tolerance,
        )
    return ConditionReport(
        condition=condition,
        verdict=Verdict.FAILS,
        witness=tuple(float(a) for a in attained),
        margin=float(value),
    )


def first_order_check(
    gradient,
    tangent: PolyhedralCone | AffineRegion,
    tolerance: float | Fraction = 0,
    condition: ConditionId = ConditionId.FIRST_ORDER,
) -> ConditionReport:
    """Is <gradient, v> >= 0 for every v in the tangent cone?

    Equivalently the infimum of the pairing over the cone is 0 (so -gradient
    lies in the normal cone).  Exact cones go through the certificate LP;
    affine regions use the closed form.
    """
    if isinstance(tangent, PolyhedralCone):
        grad = _as_rational_vector(gradient)
        return _linear_condition_on_cone(
            grad, tangent, _pairing_lp(grad, tangent), tolerance, condition
        )
    return _linear_condition_on_region(gradient, tangent, float(tolerance), condition)


def check_c1(
    gradient,
    second_order_set: PolyhedralCone | AffineRegion,
    tolerance: float | Fraction = 0,
) -> ConditionReport:
    """Strengthened condition: <gradient, w> >= 0 on the second-order tangent set."""
    return first_order_check(gradient, second_order_set, tolerance, ConditionId.C1)


def critical_cone(gradient, tangent: PolyhedralCone) -> PolyhedralCone:
    """Tangent directions orthogonal to the gradient, as a cone.

    Meaningful as a "critical cone" when the first-order condition holds;
    callers checking second-order conditions at a non-stationary point get
    the same intersection without a warning.
    """
    grad = _as_rational_vector(gradient)
    if grad.dim != tangent.dim:
        raise DimensionMismatchError("gradient dimension does not match the cone")
    eq = tangent.eq_rows.stack(RationalMatrix([grad], tangent.dim))
    return PolyhedralCone(
        tangent.dim,
        eq_rows=eq,
        ineq_rows=tangent.ineq_rows,
        ineq_origins=tangent.ineq_origins,
    )


# ---------------------------------------------------------------------------
# Copositivity
# ---------------------------------------------------------------------------


def _psd_witness(q: list[list[Fraction]]) -> list[Fraction] | None:
    """None if the symmetric rational matrix is PSD, else u with u'Qu < 0.

    Pivoted congruence elimination: a negative diagonal entry is an
    immediate witness; a zero diagonal with a nonzero off-diagonal entry
    yields an explicit indefinite 2x2 witness; a positive pivot reduces to
    the Schur complement, through which witnesses lift exactly.
    """
    k = len(q)
    if k == 0:
        return None
    head = q[0][0]
    if head < 0:
        return [Fraction(1)] + [Fraction(0)] * (k - 1)
    if head == 0:
        j = next((c for c in range(1, k) if q[0][c] != 0), None)
        if j is not None:
            u = [Fraction(0)] * k
            # value of t*e0 + ej is 2 t q0j + qjj; pick t so it equals -1
            u[0] = -(q[j][j] + 1) / (2 * q[0][j])
            u[j] = Fraction(1)
            return u
        sub = [[q[i][c] for c in range(1, k)] for i in range(1, k)]
        tail = _psd_witness(sub)
        return None if tail is None else [Fraction(0)] + tail
    schur = [
        [q[i][c] - q[0][i] * q[0][c] / head for c in range(1, k)]
        for i in range(1, k)
    ]
    tail = _psd_witness(schur)
    if tail is None:
        return None
    cross = sum((q[0][i + 1] * tail[i] for i in range(k - 1)), Fraction(0))
    return [-cross / head] + tail


def _quadratic_form(matrix: RationalMatrix, v: RationalVector) -> Fraction:
    return matrix.matvec(v).dot(v)


def _common_integer_form(vectors: Iterable[RationalVector]):
    """``(denom, ints)``: ``ints[a] = denom * vectors[a]`` in integers, ``denom`` > 0."""
    forms = [v.integer_form for v in vectors]
    denom = lcm(*[scale for _, scale in forms])
    return denom, tuple([tuple([k * (denom // scale) for k in ints]) for ints, scale in forms])


def _integer_gram(matrix: RationalMatrix, vectors: Sequence[RationalVector]):
    """``(unit, denom, ints, images)``: ``ints[a] = denom * vectors[a]`` in
    integers and ``images[a] = (scale * matrix) ints[a]``; positive lcms of the
    denominators as scale and denom keep every sign and every comparison of
    lengths, and a pairing of the vectors is ``ints[a] . images[b] / unit``."""
    scale, rows = _common_integer_form(matrix)
    denom, ints = _common_integer_form(vectors)
    images = [[sum(map(mul, row, v)) for row in rows] for v in ints]
    return scale * denom * denom, denom, ints, images


def _pairings(left, right) -> list[list[int]]:
    return [[sum(map(mul, a, b)) for b in right] for a in left]


def _refuted_at_vertex(cell, diagonal, denom: int, unit: int, depth: int, cells: int):
    """Not copositive at the first vertex whose form (``diagonal``) is negative, else None."""
    vertex = next((i for i, value in enumerate(diagonal) if value < 0), None)
    return None if vertex is None else CopositivityResult(
        status=CopositivityStatus.NOT_COPOSITIVE,
        witness=RationalVector(Fraction(x, denom) for x in cell[vertex]),
        witness_value=Fraction(diagonal[vertex], unit),
        depth_reached=depth,
        cells_certified=cells,
        method="simplicial-partition",
    )


def _with_midpoint(gram: list[list[int]], i: int, j: int, slot: int, denom: int, c: int):
    """A copy of a symmetric Gram matrix, vertex ``slot`` now (v_i + v_j) * denom / c."""
    row = [denom * (x + y) // c for x, y in zip(gram[i], gram[j])]
    diagonal = denom * (row[i] + row[j]) // c
    child = [r[:] for r in gram]
    for r, x in zip(child, row):
        r[slot] = x
    row[slot] = diagonal
    child[slot] = row
    return child


def _copositivity_exact(
    matrix: RationalMatrix,
    cone: PolyhedralCone,
    max_depth: int,
    falsifier_samples: int,
) -> CopositivityResult:
    gens = cone.generators()
    if gens.is_origin():
        return CopositivityResult(status=CopositivityStatus.COPOSITIVE, method="trivial")

    if not gens.rays:
        # Pure subspace: copositivity there is positive semidefiniteness of
        # the restriction to the lineality basis, decided exactly.
        basis = list(gens.lineality)
        unit, _, ints, images = _integer_gram(matrix, basis)
        products = _pairings(ints, images)
        witness_coords = _psd_witness([[Fraction(p, unit) for p in row] for row in products])
        if witness_coords is None:
            return CopositivityResult(
                status=CopositivityStatus.COPOSITIVE, method="subspace-factorization"
            )
        witness = RationalVector.zero(cone.dim)
        for coord, vec in zip(witness_coords, basis):
            witness = witness + vec.scale(coord)
        witness = witness.primitive()
        return CopositivityResult(
            status=CopositivityStatus.NOT_COPOSITIVE,
            witness=witness,
            witness_value=_quadratic_form(matrix, witness),
            method="subspace-factorization",
        )

    # A cell is (vertices as integer tuples, their products, their inner
    # products, depth); each child inherits its parent's Gram matrices.  The
    # root's diagonal comes first: a negative vertex needs no k x k matrices.
    generators = list(gens.spanning_vectors())
    unit, denom, ints, images = _integer_gram(matrix, generators)
    diagonal = [sum(map(mul, a, image)) for a, image in zip(ints, images)]
    refuted = _refuted_at_vertex(ints, diagonal, denom, unit, 0, 0)
    if refuted is not None:
        return refuted
    queue = deque([(ints, _pairings(ints, images), _pairings(ints, ints), 0)])
    cells_certified = depth_reached = 0
    inconclusive = False
    while queue:
        cell, products, inner, depth = queue.popleft()
        depth_reached = max(depth_reached, depth)
        diagonal = [row[i] for i, row in enumerate(products)]
        refuted = _refuted_at_vertex(cell, diagonal, denom, unit, depth_reached, cells_certified)
        if refuted is not None:
            return refuted
        if min(map(min, products)) >= 0:
            cells_certified += 1
            continue
        if depth >= max_depth:
            inconclusive = True
            continue
        # the longest edge, the first in index order among equally long ones
        split, longest = None, 0
        for a, row in enumerate(inner):
            for b in range(a + 1, len(row)):
                length = row[a] + inner[b][b] - 2 * row[b]
                if length > longest:
                    split, longest = (a, b), length
        if split is None:  # degenerate cell, nothing to bisect
            inconclusive = True
            continue
        i, j = split
        # primitive(v_i + v_j), times denom; the zero sum of a lineality pair
        # +-v stays zero (c = 1), as primitive() leaves it
        total = [x + y for x, y in zip(cell[i], cell[j])]
        c = gcd(*total) or 1
        midpoint = tuple(denom * x // c for x in total)
        for slot in (i, j):
            queue.append((cell[:slot] + (midpoint,) + cell[slot + 1:],
                          _with_midpoint(products, i, j, slot, denom, c),
                          _with_midpoint(inner, i, j, slot, denom, c), depth + 1))

    if not inconclusive:
        return CopositivityResult(
            status=CopositivityStatus.COPOSITIVE,
            depth_reached=depth_reached,
            cells_certified=cells_certified,
            method="simplicial-partition",
        )

    sampled = _sphere_sampling_falsifier(matrix, generators, falsifier_samples)
    if sampled is not None:
        witness, value = sampled
        return CopositivityResult(
            status=CopositivityStatus.NOT_COPOSITIVE,
            witness=witness,
            witness_value=value,
            depth_reached=depth_reached,
            cells_certified=cells_certified,
            method="sphere-sampling",
        )
    return CopositivityResult(
        status=CopositivityStatus.INCONCLUSIVE,
        depth_reached=depth_reached,
        cells_certified=cells_certified,
        method="simplicial-partition",
    )


def _sphere_sampling_falsifier(
    matrix: RationalMatrix,
    generators: list[RationalVector],
    samples: int,
) -> tuple[RationalVector, Fraction] | None:
    """Seeded random search for a cone direction with negative quadratic form.

    Candidates are convex combinations of the k generators, sample s taking
    draws s*k to s*k+k-1 of ``random.Random(1789)``.  They are screened in
    float, a block at a time, and confirmed in exact arithmetic in order.
    numpy's MT19937 is the same generator with the same doubles, so loaded
    with that state it draws the stream a block at a time.
    """
    key = random.Random(1789).getstate()[1]
    stream = np.random.RandomState()
    stream.set_state(("MT19937", key[:-1], key[-1]))
    float_gens = np.array([g.as_floats() for g in generators], dtype=float)
    float_matrix = np.array(matrix.as_float_rows(), dtype=float)
    k = len(generators)
    for start in range(0, samples, _FALSIFIER_BLOCK):
        count = min(_FALSIFIER_BLOCK, samples - start)
        coeffs = stream.random(count * k).reshape(count, k)
        candidates = coeffs @ float_gens
        norms = np.linalg.norm(candidates, axis=1)
        usable = norms >= 1e-12
        candidates /= np.where(usable, norms, 1.0)[:, None]
        values = np.einsum("ij,ij->i", candidates @ float_matrix, candidates)
        for s in np.flatnonzero(usable & (values < -1e-9)):
            terms = (g.scale(Fraction(float(c))) for c, g in zip(coeffs[s], generators))
            exact = sum(terms, RationalVector.zero(float_gens.shape[1])).primitive()
            value = _quadratic_form(matrix, exact)
            if value < 0:
                return exact, value
    return None


def _copositivity_float(m: np.ndarray, region: AffineRegion) -> CopositivityResult:
    if region.kind is RegionKind.HYPERPLANE:
        unit = region.normal / np.linalg.norm(region.normal)
        _, _, vh = np.linalg.svd(unit.reshape(1, -1))
        basis = vh[1:]
    else:
        # q(v) = q(-v), and the half-space plus its negation cover the whole
        # space, so copositivity on a half-space is plain semidefiniteness.
        basis = np.eye(region.dim)
    restricted = basis @ m @ basis.T
    eigenvalues, eigenvectors = np.linalg.eigh(restricted)
    smallest = float(eigenvalues[0])
    if smallest >= -_EIG_TOL:
        return CopositivityResult(status=CopositivityStatus.COPOSITIVE, method="eigenvalue")
    witness = eigenvectors[:, 0] @ basis
    return CopositivityResult(
        status=CopositivityStatus.NOT_COPOSITIVE,
        witness=tuple(float(a) for a in witness),
        witness_value=smallest,
        method="eigenvalue",
    )


def check_c2_copositivity(
    matrix,
    cone: PolyhedralCone | AffineRegion,
    *,
    max_depth: int = DEFAULT_SUBDIVISION_DEPTH,
    falsifier_samples: int = DEFAULT_FALSIFIER_SAMPLES,
) -> CopositivityResult:
    """Is <matrix v, v> >= 0 for every v in the cone?

    The matrix must be symmetric, exactly for rational cones and to 1e-12
    relative for float regions (ValueError otherwise).  A pure subspace is
    decided by pivoted factorization of the restricted matrix; otherwise a
    simplicial partition over the generators runs on integer Gram matrices
    that each cell inherits from its parent.
    It certifies cells with all pairwise products nonnegative, reports a
    vertex with negative form as a witness and bisects the longest edge up to
    ``max_depth``, then tries a seeded sphere-sampling falsifier before
    answering Inconclusive.  Float regions use an eigenvalue threshold of 1e-10.
    """
    if isinstance(cone, PolyhedralCone):
        if not isinstance(matrix, RationalMatrix):
            raise TypeError("exact copositivity requires a RationalMatrix")
        if not matrix.is_symmetric():
            raise ValueError("copositivity matrix must be exactly symmetric")
        return _copositivity_exact(matrix, cone, max_depth, falsifier_samples)
    m = np.asarray(matrix, dtype=float)
    if float(np.max(np.abs(m - m.T))) > 1e-12 * max(1.0, float(np.max(np.abs(m)))):
        raise ValueError("copositivity matrix must be exactly symmetric")
    return _copositivity_float(m, cone)


# ---------------------------------------------------------------------------
# Classical second-order condition and bundled checks
# ---------------------------------------------------------------------------


def classical_second_order_check(
    gradient,
    curvature: Fraction | float,
    second_order_set: PolyhedralCone | AffineRegion,
    tolerance: float | Fraction = 0,
) -> ConditionReport:
    """inf <gradient, w> over the second-order tangent set, plus curvature, >= 0.

    ``curvature`` is the caller-evaluated <Hess f(x) v, v> for the critical
    direction that produced the set.  Over a polyhedral second-order set the
    infimum is 0 or -inf; over the one-constraint affine descriptors it has
    the closed form handled by the region itself.
    """
    if isinstance(second_order_set, PolyhedralCone):
        grad = _as_rational_vector(gradient)
        return _classical_on_cone(
            grad, curvature, second_order_set, _pairing_lp(grad, second_order_set), tolerance
        )
    infimum, attained, ray = second_order_set.linear_infimum(gradient, float(tolerance))
    witness_point = tuple(float(a) for a in (ray if ray is not None else attained))
    return _classical_report(infimum, witness_point, None, curvature, tolerance)


def _classical_on_cone(
    gradient: RationalVector,
    curvature: Fraction | float,
    cone: PolyhedralCone,
    result: LPResult,
    tolerance: float | Fraction,
) -> ConditionReport:
    """The classical check read off the pairing LP ``result`` with tolerance 0."""
    linear = _linear_condition_on_cone(gradient, cone, result, 0, ConditionId.CLASSICAL_32)
    if linear.verdict is Verdict.HOLDS:
        return _classical_report(
            Fraction(0), RationalVector.zero(gradient.dim), linear.certificate, curvature, tolerance
        )
    return _classical_report(float("-inf"), linear.witness, None, curvature, tolerance)


def _classical_report(
    infimum: Fraction | float,
    witness_point: RationalVector | tuple,
    certificate: LagrangeCertificate | None,
    curvature: Fraction | float,
    tolerance: float | Fraction,
) -> ConditionReport:
    if infimum == float("-inf"):
        return ConditionReport(
            condition=ConditionId.CLASSICAL_32,
            verdict=Verdict.FAILS,
            witness=witness_point,
            margin=float("-inf"),
            notes="gradient pairing is unbounded below on the second-order set",
        )
    total = infimum + curvature
    exact = isinstance(total, Fraction)
    holds = (total >= 0) if exact else (total >= -tolerance)
    if holds:
        return ConditionReport(
            condition=ConditionId.CLASSICAL_32,
            verdict=Verdict.HOLDS,
            certificate=certificate,
            margin=total,
            boundary=(not exact) and abs(total) <= tolerance,
        )
    return ConditionReport(
        condition=ConditionId.CLASSICAL_32,
        verdict=Verdict.FAILS,
        witness=witness_point,
        margin=total,
    )


@dataclass(frozen=True)
class SecondOrderBundle:
    """Checks performed at one critical direction.

    ``strengthened_gradient`` is (c1) on ``second_order_set``, the
    second-order tangent set at the direction; ``curvature_at_direction``
    the single-direction (c2) sign test, and ``classical`` the combined
    inequality those two strengthen, kept for comparison: the classical
    condition can hold while (c2) fails.
    """

    direction: CriticalDirection
    second_order_set: PolyhedralCone | AffineRegion
    strengthened_gradient: ConditionReport
    curvature_at_direction: ConditionReport
    classical: ConditionReport


def theorem33_check(
    objective: SmoothObjective | QuadraticObjective,
    constraint: PolyhedralCone | SmoothLevelSetConstraint,
    point,
    direction,
    tolerance: float = DEFAULT_FLOAT_TOL,
) -> SecondOrderBundle:
    """Bundle (c1), the (c2) sign at one direction, and the classical check.

    Over a polyhedron, ``constraint`` is its tangent cone T(x) at ``point``
    (:meth:`Polyhedron.tangent_cone`), which every direction at the point
    shares.  A :class:`QuadraticObjective` there is checked exactly, with
    tolerance 0; the ``tolerance`` argument is ignored for such data.  A
    :class:`SmoothObjective` is evaluated in float over the exact cones (the
    gradient converted to exact rationals) or over a single smooth
    level-set constraint (affine descriptors, float arithmetic with
    tolerances).
    """
    exact = isinstance(objective, QuadraticObjective)
    if exact:
        if not isinstance(constraint, PolyhedralCone):
            raise TypeError("exact quadratic data needs the tangent cone of a polyhedral set")
        tolerance = 0
        vec = _as_rational_vector(direction)
        grad = objective.gradient(_as_rational_vector(point))
        curvature = objective.quadratic_form(vec)
        pairing = grad.dot(vec)
    else:
        grad = objective.gradient_at(point)
        hessian = objective.hessian_at(point)
        vec = np.asarray(direction, dtype=float).reshape(-1)
        curvature = float(vec @ hessian @ vec)
        pairing = float(grad @ vec)

    if isinstance(constraint, PolyhedralCone):
        direction_r = _as_rational_vector(direction)
        critical = assess_direction_polyhedral(constraint, direction_r, pairing, tolerance)
        second_order = constraint.tangent_cone_at(direction_r)
        grad_r = _as_rational_vector(grad)
        result = _pairing_lp(grad_r, second_order)
        c1 = _linear_condition_on_cone(grad_r, second_order, result, tolerance, ConditionId.C1)
        classical = _classical_on_cone(grad_r, curvature, second_order, result, tolerance)
    else:
        region = constraint.tangent_cone(point, tolerance)
        critical = assess_direction_region(region, vec, pairing, tolerance)
        second_order = constraint.second_order_tangent_set(point, vec, tolerance)
        c1 = check_c1(grad, second_order, tolerance)
        classical = classical_second_order_check(grad, curvature, second_order, tolerance)

    if curvature >= -tolerance:
        c2_at_v = ConditionReport(
            condition=ConditionId.C2,
            verdict=Verdict.HOLDS,
            margin=curvature,
            boundary=(not exact) and abs(curvature) <= tolerance,
        )
    else:
        c2_at_v = ConditionReport(
            condition=ConditionId.C2,
            verdict=Verdict.FAILS,
            witness=vec if exact else tuple(float(a) for a in vec),
            margin=curvature,
        )
    return SecondOrderBundle(
        direction=critical,
        second_order_set=second_order,
        strengthened_gradient=c1,
        curvature_at_direction=c2_at_v,
        classical=classical,
    )


@dataclass(frozen=True)
class QPConditions:
    """The (c0)/(c1')/(c2') reports for a quadratic program at a point."""

    stationarity: ConditionReport
    strengthened_gradient: ConditionReport
    curvature_on_critical_cone: ConditionReport
    tangent_cone: PolyhedralCone
    critical_cone: PolyhedralCone
    checked_directions: tuple[RationalVector, ...] = field(default=())

    @property
    def all_hold(self) -> bool:
        return all(
            r.verdict is Verdict.HOLDS
            for r in (
                self.stationarity,
                self.strengthened_gradient,
                self.curvature_on_critical_cone,
            )
        )


def check_qp(
    objective: QuadraticObjective,
    constraint_set: Polyhedron,
    point: RationalVector,
    *,
    max_depth: int = DEFAULT_SUBDIVISION_DEPTH,
    falsifier_samples: int = DEFAULT_FALSIFIER_SAMPLES,
) -> QPConditions:
    """Exact (c0)/(c1')/(c2') verification for min (1/2)<Mx,x> + <q,x> over a polyhedron.

    (c0) is the first-order check with gradient M x + q; (c1') is (c1) on the
    second-order tangent set at the first critical-cone generator, which
    over a polyhedron decides it for every critical direction, and
    ``checked_directions`` lists all the generators it covers; (c2') tests
    copositivity of M on the critical cone.
    """
    tangent = constraint_set.tangent_cone(point)
    gradient = objective.gradient(point)
    c0 = first_order_check(gradient, tangent, 0, ConditionId.QP_C0)

    crit = critical_cone(gradient, tangent)
    directions = tuple(crit.generators().spanning_vectors()) or (
        RationalVector.zero(constraint_set.dim),
    )
    v = directions[0]
    c1 = check_c1(gradient, tangent.tangent_cone_at(v), 0)
    if c1.verdict is Verdict.HOLDS:
        c1p = ConditionReport(
            condition=ConditionId.QP_C1P,
            verdict=Verdict.HOLDS,
            certificate=c1.certificate,
            margin=Fraction(0),
            checked_directions=directions,
            notes="holds at the first critical-cone generator, hence at every critical direction",
        )
    else:
        c1p = ConditionReport(
            condition=ConditionId.QP_C1P,
            verdict=Verdict.FAILS,
            witness=c1.witness,
            margin=c1.margin,
            checked_directions=directions,
            witness_direction=v,
            notes=f"violated at critical direction {v}",
        )

    copositivity = check_c2_copositivity(
        objective.matrix, crit, max_depth=max_depth, falsifier_samples=falsifier_samples
    )
    verdict = {
        CopositivityStatus.COPOSITIVE: Verdict.HOLDS,
        CopositivityStatus.NOT_COPOSITIVE: Verdict.FAILS,
        CopositivityStatus.INCONCLUSIVE: Verdict.INCONCLUSIVE,
    }[copositivity.status]
    c2p = ConditionReport(
        condition=ConditionId.QP_C2P,
        verdict=verdict,
        witness=copositivity.witness,
        certificate=copositivity,
        margin=copositivity.witness_value,
    )
    return QPConditions(
        stationarity=c0,
        strengthened_gradient=c1p,
        curvature_on_critical_cone=c2p,
        tangent_cone=tangent,
        critical_cone=crit,
        checked_directions=directions,
    )
