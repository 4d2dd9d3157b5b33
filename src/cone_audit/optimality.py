"""First- and second-order necessary optimality condition checkers.

Every check reports Holds or Fails with re-checkable evidence: a failing
check carries a witness vector that violates the defining inequality when
substituted back, and a rational-arithmetic Holds carries an exact
certificate (Lagrange multipliers, or the copositivity test's record).

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

Over a polyhedron the second-order tangent set at a tangent direction v is
T^2(x, v) = T(x) + Rv, so one pairing LP on T(x) per point decides (c0) and
(c1) at every direction: (c1) fails along a ray of T(x) or along v or -v,
whichever pairs negatively, and otherwise the (c0) multipliers, positive
only on rows tight at v, certify it.  At a critical direction (c1) is
therefore (c0), so the (c1') quantifier needs no enumeration.

Every linear and classical check reads one record of the infimum of
<gradient, w> over its pairing set, a cone or an affine region
(:func:`_infimum`): the linear checks sign its margin (:func:`_linear`),
the classical check its value plus the curvature (:func:`_classical`), so
a cone's Lagrange certificate is built and verified once per direction.

Every verdict is one sign rule on a margin (:func:`_sign_report`): an exact
margin holds iff it is >= 0; a float margin holds iff it is >= -tolerance,
and is a boundary Hold when it is also within the tolerance of 0, because
irrational candidate points make exact zeros unattainable in binary64.  A
margin of -inf fails.  Exact checks take tolerance 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from itertools import combinations
from operator import mul
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError
from .geometry import PolyhedralCone, Polyhedron
from .linalg import RationalMatrix, RationalVector, bareiss_step, combination, integer_rref
from .lp import LPResult, LPStatus, solve_lp
from .objectives import (
    DEFAULT_FLOAT_TOL,
    AffineRegion,
    QuadraticObjective,
    SmoothLevelSetConstraint,
    SmoothObjective,
)


class Verdict(Enum):
    HOLDS = "holds"
    FAILS = "fails"


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
        """The identity, as one integer sum over a common denominator; False
        on a negative lambda, a position that is not the int index of an
        inequality row, or not one mu per equality row."""
        ineq, mus = self.inequality_multipliers, list(self.equality_multipliers)
        positions = range(cone.ineq_rows.nrows)
        usable = all(lam >= 0 and type(pos) is int and pos in positions for pos, _, lam in ineq)
        if not usable or len(mus) != cone.eq_rows.nrows:
            return False
        rows = [cone.ineq_rows.row(pos) for pos, *_ in ineq] + list(cone.eq_rows.rows)
        return combination([lam for *_, lam in ineq] + mus, rows, gradient.dim) == -gradient


class CopositivityStatus(Enum):
    COPOSITIVE = "copositive"
    NOT_COPOSITIVE = "not copositive"


@dataclass(frozen=True)
class CopositivityResult:
    """Outcome of a copositivity test over a cone.

    On NOT_COPOSITIVE the witness lies in the cone and its quadratic form
    value, exact, is negative.  ``cells_certified`` counts the simplicial
    cells certified; ``depth_reached`` is always 0, kept for callers that
    read it (clibench's tracer).
    """

    status: CopositivityStatus
    witness: RationalVector | None = None
    witness_value: Fraction | None = None
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
    return solve_lp(gradient, cone.eq_rows, cone.ineq_rows)


def _on_second_order_set(
    result: LPResult, tangent: PolyhedralCone, v: RationalVector, gradient: RationalVector
) -> tuple[PolyhedralCone, LPResult]:
    """T2(x, v) = T(x) + Rv for a tangent direction v, and the pairing LP on
    it read off ``result``, the pairing LP on the tangent cone T(x).

    A ray of T(x) lies in T2(x, v), and so do v and -v, one of which pairs
    negatively unless <gradient, v> = 0; the witness is the steeper, scaled
    as the margin is, a tie keeping T(x)'s ray.  Otherwise <gradient, v> = 0
    forces the multiplier of every row not tight at v to 0, so the tight
    rows' multipliers, in T2's order, certify on T2(x, v).
    """
    second_order = tangent.tangent_cone_at(v)
    rays = [] if result.status is LPStatus.OPTIMAL else [result.witness]
    pairing = gradient.scaled_dot(v)
    if pairing:
        rays.append(-v if pairing > 0 else v)
    if rays:
        ray = min(rays, key=lambda r: _steepness(gradient, r))
        return second_order, LPResult(status=LPStatus.UNBOUNDED, witness=ray)
    tight = [
        lam for row, lam in zip(tangent.ineq_rows.rows, result.dual_inequalities)
        if row.scaled_dot(v) == 0
    ]
    return second_order, LPResult(
        status=LPStatus.OPTIMAL,
        dual_equalities=result.dual_equalities,
        dual_inequalities=RationalVector(tight),
    )


def _tangent_directions(gradient, tangent: PolyhedralCone, directions, tolerance):
    """The one pass over directions at a point of a polyhedron whose tangent
    cone is ``tangent``: for each direction, the exact v, its flags against
    T(x), and for a tangent v T2(x, v) with the pairing infimum on it, read
    off one pairing LP on T(x) (:func:`_on_second_order_set`), else None.

    v is gradient-orthogonal when |<gradient, v>| <= tolerance, the pairing
    exact for an exact gradient and float for a float one.
    """
    exact = isinstance(gradient, RationalVector)
    grad = _as_rational_vector(gradient)
    result = None
    for direction in directions:
        v = _as_rational_vector(direction)
        pairing = grad.dot(v) if exact else float(gradient @ np.asarray(v.as_floats()))
        critical = CriticalDirection(
            vector=tuple(v.entries),
            in_tangent_cone=tangent.contains(v),
            negation_in_tangent_cone=tangent.contains(-v),
            gradient_orthogonal=abs(pairing) <= tolerance,
        )
        if not critical.in_tangent_cone:
            yield v, critical, None, None
            continue
        result = result or _pairing_lp(grad, tangent)
        second_order, derived = _on_second_order_set(result, tangent, v, grad)
        yield v, critical, second_order, _infimum(grad, second_order, derived, tolerance)


def _level_set_directions(gradient, constraint: SmoothLevelSetConstraint, point, directions, tolerance):
    """:func:`_tangent_directions` at a point of a smooth level set: the
    float v, its flags against the tangent region, T2(x, v) from
    :meth:`SmoothLevelSetConstraint.second_order_tangent_set` and the
    pairing infimum on it."""
    region = constraint.tangent_cone(point, tolerance)
    for direction in directions:
        vec = np.asarray(direction, dtype=float).reshape(-1)
        critical = CriticalDirection(
            vector=tuple(float(a) for a in vec),
            in_tangent_cone=region.contains(vec, tolerance),
            negation_in_tangent_cone=region.contains(-vec, tolerance),
            gradient_orthogonal=abs(float(gradient @ vec)) <= tolerance,
        )
        second_order = constraint.second_order_tangent_set(point, vec, tolerance)
        yield vec, critical, second_order, _infimum(gradient, second_order, None, tolerance)


def _steepness(gradient: RationalVector, ray: RationalVector) -> Fraction:
    """<gradient, ray> / max |ray_j|, read off the integer forms."""
    return Fraction(gradient.scaled_dot(ray), gradient.integer_form[1] * max(map(abs, ray.integer_form[0])))


def _sign_report(
    condition: ConditionId,
    margin: Fraction | float,
    tolerance: float | Fraction,
    witness,
    certificate: LagrangeCertificate | None = None,
    notes: str = "",
) -> ConditionReport:
    """The one verdict rule: an exact margin holds iff it is >= 0; a float
    margin iff it is >= -tolerance, a boundary hold when also within the
    tolerance of 0 (-inf fails).  The witness is kept on a failure, the
    certificate on a hold."""
    if isinstance(margin, Fraction):
        holds, boundary = margin >= 0, False
    else:
        holds = margin >= -tolerance
        boundary = holds and abs(margin) <= tolerance
    return ConditionReport(
        condition=condition,
        verdict=Verdict.HOLDS if holds else Verdict.FAILS,
        witness=None if holds else witness,
        certificate=certificate if holds else None,
        margin=margin,
        boundary=boundary,
        notes=notes,
    )


def _infimum(gradient, pairing_set: PolyhedralCone | AffineRegion, result: LPResult | None, tolerance):
    """inf <gradient, w> over a cone or an affine region, as ``(value,
    margin, witness, certificate, notes)``.

    On a region, :meth:`AffineRegion.linear_infimum` gives the value, which
    is also the margin; the witness is the descent ray, else the attaining
    point.  On a cone, the pairing LP ``result`` (solved here when None)
    gives the value: 0, attained at the origin and certified by the
    verified Lagrange multipliers, or -inf along a ray, whose steepness is
    the margin, exact at tolerance 0 and float otherwise.  At a tolerance
    > 0 a ray within the tolerance gives way to a steeper generator of the
    cone where there is one, so the verdict does not follow the pivot order.
    """
    if isinstance(pairing_set, AffineRegion):
        value, attained, ray = pairing_set.linear_infimum(gradient, float(tolerance))
        witness = tuple(float(a) for a in (attained if ray is None else ray))
        return value, value, witness, None, "" if ray is None else "pairing is unbounded below on the region"
    grad = _as_rational_vector(gradient)
    result = result or _pairing_lp(grad, pairing_set)
    if result.status is LPStatus.UNBOUNDED:
        ray = result.witness.primitive()
        scaled = _steepness(grad, ray)
        if tolerance and scaled >= -tolerance:
            ray = min((ray, *pairing_set.generators().spanning_vectors()), key=lambda r: _steepness(grad, r))
            scaled = _steepness(grad, ray)
        return float("-inf"), scaled if tolerance == 0 else float(scaled), ray, None, ""
    # -gradient = sum(lambda_i row_i) + sum(mu_j eq_j) by the dual multipliers
    certificate = LagrangeCertificate(
        inequality_multipliers=tuple(
            (pos, pairing_set.ineq_origins[pos], lam) for pos, lam in enumerate(result.dual_inequalities)
        ),
        equality_multipliers=-result.dual_equalities,
    )
    if not certificate.verify(grad, pairing_set):
        raise RuntimeError("Lagrange certificate failed exact verification")
    return Fraction(0), Fraction(0), RationalVector.zero(grad.dim), certificate, ""


def _linear(condition: ConditionId, infimum: tuple, tolerance) -> ConditionReport:
    """<gradient, .> >= 0 on the pairing set, read off :func:`_infimum`."""
    value, margin, witness, certificate, notes = infimum
    report = _sign_report(condition, margin, tolerance, witness, certificate, notes)
    if report.boundary and value == float("-inf"):
        return replace(report, notes="violation within tolerance; treated as boundary case")
    return report


def _classical(infimum: tuple, curvature: Fraction | float, tolerance) -> ConditionReport:
    """inf <gradient, w> over the second-order set plus the curvature, >= 0,
    read off :func:`_infimum`."""
    value, _, witness, certificate, _ = infimum
    notes = "gradient pairing is unbounded below on the second-order set" if value == float("-inf") else ""
    return _sign_report(ConditionId.CLASSICAL_32, value + curvature, tolerance, witness, certificate, notes)


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
    return _linear(condition, _infimum(gradient, tangent, None, tolerance), tolerance)


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


def _psd_witness(q: list[list[int]], free: int, rest, d: int = 1) -> list[int] | None:
    """None if the symmetric integer matrix is PSD on its first ``free``
    coordinates and the orthant of the others, else integer u with u'Qu < 0
    there.

    Pivoted congruence elimination of the free coordinates: a negative
    diagonal entry is an immediate witness; a zero diagonal with a nonzero
    off-diagonal entry yields an explicit indefinite 2x2 witness; a
    positive pivot reduces to the Schur complement, a positive multiple of
    it in integers by :func:`bareiss_step` with ``d`` the previous pivot,
    through which witnesses lift exactly.  The matrix left on the other
    coordinates is the minimum of the form over the free ones; ``rest``
    decides it and returns a witness >= 0 for it or None (``rest`` is None
    when no coordinate is left).
    """
    k = len(q)
    if free == 0:
        return None if rest is None else rest(q)
    head = q[0][0]
    if head < 0:
        return [1] + [0] * (k - 1)
    if head == 0:
        j = next((c for c in range(1, k) if q[0][c] != 0), None)
        if j is not None:
            # value of t*e0 + ej is 2 t q0j + qjj; t = -(qjj + |q0j|) / (2 q0j)
            # makes it -|q0j|, at any scale of q
            u = [0] * k
            u[0] = -(q[j][j] + abs(q[0][j])) * (1 if q[0][j] > 0 else -1)
            u[j] = 2 * abs(q[0][j])
            return u
        tail = _psd_witness([row[1:] for row in q[1:]], free - 1, rest, d)
        return None if tail is None else [0] + tail
    schur = [bareiss_step(row, q[0], head, 0, d)[1:] for row in q[1:]]
    tail = _psd_witness(schur, free - 1, rest, head)
    if tail is None:
        return None
    return [-sum(map(mul, q[0][1:], tail))] + [head * t for t in tail]


def _integer_gram(matrix: RationalMatrix, vectors: Sequence[RationalVector]):
    """``(ints, images)``: ``ints[a]`` is ``vectors[a]`` times the lcm of
    their denominators and ``images[a]`` is ``ints[a]`` times ``matrix``
    scaled by the lcm of its own, so ``ints[a] . images[b]`` is a positive
    multiple, the same for every pair, of the pairing of the vectors."""
    rows, _ = matrix.integer_form
    ints, _ = RationalMatrix(vectors, matrix.ncols).integer_form
    return ints, [[sum(map(mul, row, v)) for row in rows] for v in ints]


def _det_adjugate(b: list[list[int]]) -> tuple[int, list[list[int]] | None]:
    """``(det B, adj B)`` of a square integer matrix, adj B None when B is
    singular: :func:`integer_rref` turns [B | I] into [d I | d B^-1], with
    d the determinant of B with its rows swapped."""
    n = len(b)
    rows, pivots, sign = integer_rref([row + [int(i == j) for j in range(n)] for i, row in enumerate(b)], n)
    if len(pivots) < n:
        return 0, None
    return sign * rows[0][0], [[sign * a for a in row[n:]] for row in rows]


def _principal_witness(b: list[list[int]], subset: tuple[int, ...]) -> list[int] | None:
    """adj(B')·1 when the principal submatrix B' of ``b`` on ``subset`` has
    det B' < 0 and adj B' >= 0, else None (Cottle, Habetler & Lemke 1970;
    Hadeler 1983: a symmetric B is copositive iff no B' is such).

    Then x = adj(B')·1 >= 0 and B'x = det B'·1, so x'B'x < 0.  That
    also means every row of B' has a negative entry, which most subsets
    fail without a determinant.
    """
    sub = [[b[i][j] for j in subset] for i in subset]
    if any(min(row) >= 0 for row in sub):
        return None
    det, adj = _det_adjugate(sub)
    if det >= 0 or min(map(min, adj)) < 0:
        return None
    return [sum(row) for row in adj]


def _pulling_triangulation(masks: Sequence[int], full: int) -> list[int]:
    """The simplicial cells of a pointed cone, as bit masks over its rays.

    ``full`` holds every extreme ray and ``masks[a]`` those tight on
    inequality row a.  A face is the set of rays it holds, and the facets
    of a face F are the maximal proper sets ``F & masks[a]``.  A face is
    coned from its first ray over the cells of its facets without that ray,
    so each face is triangulated once, and alike in every cell holding it.
    """
    cells: dict[int, list[int]] = {}

    def triangulate(face: int) -> list[int]:
        if face & (face - 1) == 0:
            return [face]
        if face not in cells:
            first = face & -face
            faces = sorted({face & m for m in masks} - {face})
            cells[face] = [
                cell | first
                for g in faces
                if not g & first and not any(g != h and g & h == g for h in faces)
                for cell in triangulate(g)
            ]
        return cells[face]

    return triangulate(full)


def _cell_witness(b: list[list[int]], masks: Sequence[int]) -> tuple[list[int] | None, int]:
    """``(u, certified)``: u >= 0 over the rays with u' b u < 0, or None
    when the integer form ``b`` on the rays' coefficients is copositive, and
    the number of simplicial cells certified before u was found.

    A simplicial cell is copositive iff its principal block of ``b`` is
    copositive on the orthant, which the Cottle-Habetler-Lemke test
    decides.  The test runs on each cell's principal submatrices, smallest
    first, in integers; neighbouring cells share faces, so each submatrix
    is tested once.
    """
    cells = _pulling_triangulation(masks, (1 << len(b)) - 1)
    tested: dict[tuple[int, ...], list[int] | None] = {}
    for certified, cell in enumerate(cells):
        rays = [j for j in range(len(b)) if cell >> j & 1]
        if min(b[i][j] for i in rays for j in rays) >= 0:
            continue
        for size in range(1, len(rays) + 1):
            for subset in combinations(rays, size):
                if subset not in tested:
                    tested[subset] = _principal_witness(b, subset)
                if tested[subset] is not None:
                    u = [0] * len(b)
                    for j, x in zip(subset, tested[subset]):
                        u[j] = x
                    return u, certified
    return None, len(cells)


def check_c2_copositivity(matrix: RationalMatrix, cone: PolyhedralCone) -> CopositivityResult:
    """Is <matrix v, v> >= 0 for every v in the cone?

    Decided exactly on one integer Gram matrix P = G M G' of the extreme
    generators G, lineality first: a pure subspace by pivoted factorization
    of P; most cones on P's diagonal (a negative entry refutes) or on P
    itself (zero lineality rows and a nonnegative ray block certify); convex
    data by the same factorization of P's principal block at a basis of the
    span chosen among the generators; and the rest by eliminating the
    lineality through Schur complements and testing each cell of a pulling
    triangulation with the Cottle-Habetler-Lemke criterion: no principal
    submatrix B' of the cell's Gram matrix has det B' < 0 and adj B' >= 0.
    The matrix must be exactly symmetric (ValueError otherwise).
    """
    if not isinstance(matrix, RationalMatrix) or not isinstance(cone, PolyhedralCone):
        raise TypeError("copositivity needs a RationalMatrix and a PolyhedralCone")
    if not matrix.is_symmetric():
        raise ValueError("copositivity matrix must be exactly symmetric")
    gens = cone.extreme_generators()
    if gens.is_origin():
        return CopositivityResult(status=CopositivityStatus.COPOSITIVE, method="trivial")
    vectors = gens.lineality + gens.rays
    free = len(gens.lineality)
    ints, images = _integer_gram(matrix, vectors)

    def verdict(coords: list[int] | None, method: str, certified: int = 0) -> CopositivityResult:
        if coords is None:
            return CopositivityResult(
                status=CopositivityStatus.COPOSITIVE, cells_certified=certified, method=method
            )
        witness = combination(coords, vectors, cone.dim).primitive()
        return CopositivityResult(
            status=CopositivityStatus.NOT_COPOSITIVE,
            witness=witness,
            witness_value=matrix.matvec(witness).dot(witness),
            cells_certified=certified,
            method=method,
        )

    if gens.rays:
        # The root diagonal comes first, rays before lineality, so a
        # refutation needs no k x k matrix.
        diagonal = [sum(map(mul, a, image)) for a, image in zip(ints, images)]
        vertex = next((i for i in [*range(free, len(vectors)), *range(free)] if diagonal[i] < 0), None)
        if vertex is not None:
            return verdict([int(j == vertex) for j in range(len(vectors))], "generators")
    # P is symmetric: its lower triangle, then each row's rest from its column
    gram = [[sum(map(mul, a, b)) for b in images[: i + 1]] for i, a in enumerate(ints)]
    for i, row in enumerate(gram):
        row.extend([gram[j][i] for j in range(i + 1, len(gram))])
    if not gens.rays:
        # Pure subspace: copositivity there is positive semidefiniteness.
        return verdict(_psd_witness(gram, free, None), "subspace-factorization")
    # Every pairing of rays and +-lineality is >= 0 iff the lineality rows
    # are zero and the ray block is nonnegative.
    if not any(map(any, gram[:free])) and min(map(min, gram)) >= 0:
        return verdict(None, "generators")
    # Positive semidefinite on the cone's span is copositive on the cone; this
    # spares convex data a triangulation, which can have 10^5 cells at dim 10.
    # The generators at the pivot columns of G' are a basis of the span.
    _, basis, _ = integer_rref(zip(*ints), len(vectors))
    if _psd_witness([[gram[i][j] for j in basis] for i in basis], len(basis), None) is None:
        return verdict(None, "subspace-factorization")

    # Otherwise the lineality is eliminated and the pointed rest triangulated.
    masks = [
        sum(1 << j for j, ray in enumerate(gens.rays) if row.scaled_dot(ray) == 0)
        for row in cone.ineq_rows.rows
    ]
    certified = 0

    def cell_witness(s):
        nonlocal certified
        u, certified = _cell_witness(s, masks)
        return u

    return verdict(_psd_witness(gram, free, cell_witness), "cottle-habetler-lemke", certified)


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
    return _classical(_infimum(gradient, second_order_set, None, tolerance), curvature, tolerance)


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
    directions,
    tolerance: float = DEFAULT_FLOAT_TOL,
) -> tuple[SecondOrderBundle, ...]:
    """Bundle (c1), the (c2) sign and the classical check, one bundle per
    direction, from one evaluation of the gradient and the Hessian.

    Over a polyhedron, ``constraint`` is its tangent cone T(x) at ``point``
    (:meth:`Polyhedron.tangent_cone`), and one pairing LP on it decides (c1)
    and the classical check at every direction (:func:`_tangent_directions`,
    the pass :func:`theorem41_check` shares); a direction that is not
    tangent raises :class:`NotTangentDirectionError`.  Over a level set the
    same reads come from :func:`_level_set_directions`.
    A :class:`QuadraticObjective` there is checked exactly, with tolerance 0;
    the ``tolerance`` argument is ignored for such data.  A
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
        grad = objective.gradient(_as_rational_vector(point))
    else:
        grad = objective.gradient_at(point)
        hessian = objective.hessian_at(point)

    if isinstance(constraint, PolyhedralCone):
        passes = _tangent_directions(grad, constraint, directions, tolerance)
    else:
        passes = _level_set_directions(grad, constraint, point, directions, tolerance)
    bundles = []
    for v, critical, second_order, infimum in passes:
        if second_order is None:
            constraint.tangent_cone_at(v)  # raises NotTangentDirectionError
        floats = tuple(map(float, critical.vector))
        vec = np.asarray(floats)
        curvature = objective.quadratic_form(v) if exact else float(vec @ hessian @ vec)
        bundles.append(SecondOrderBundle(
            critical,
            second_order,
            _linear(ConditionId.C1, infimum, tolerance),
            _sign_report(ConditionId.C2, curvature, tolerance, v if exact else floats),
            _classical(infimum, curvature, tolerance),
        ))
    return tuple(bundles)


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
        reports = (self.stationarity, self.strengthened_gradient, self.curvature_on_critical_cone)
        return all(r.verdict is Verdict.HOLDS for r in reports)


def check_qp(
    objective: QuadraticObjective,
    constraint_set: Polyhedron,
    point: RationalVector,
) -> QPConditions:
    """Exact (c0)/(c1')/(c2') verification for min (1/2)<Mx,x> + <q,x> over a polyhedron.

    (c0) is the first-order check with gradient M x + q; (c1') is (c1) on the
    second-order tangent set at the first critical-cone generator, which
    over a polyhedron decides it for every critical direction, read off the
    (c0) LP, and ``checked_directions`` lists all the generators it covers;
    (c2') tests copositivity of M on the critical cone.
    """
    return _qp_conditions(objective.matrix, constraint_set.tangent_cone(point), objective.gradient(point))


def _qp_conditions(matrix: RationalMatrix, tangent: PolyhedralCone, gradient: RationalVector) -> QPConditions:
    """:func:`check_qp` at a point with tangent cone ``tangent`` and gradient ``gradient``."""
    result = _pairing_lp(gradient, tangent)
    c0 = _linear(ConditionId.QP_C0, _infimum(gradient, tangent, result, 0), 0)

    crit = critical_cone(gradient, tangent)
    directions = crit.generators().spanning_vectors() or (RationalVector.zero(tangent.dim),)
    v = directions[0]
    c1p = _linear(ConditionId.QP_C1P, _infimum(gradient, *_on_second_order_set(result, tangent, v, gradient), 0), 0)
    holds = c1p.verdict is Verdict.HOLDS
    c1p = replace(
        c1p,
        checked_directions=directions,
        witness_direction=None if holds else v,
        notes="holds at the first critical-cone generator, hence at every critical direction"
        if holds else f"violated at critical direction {v}",
    )

    copositivity = check_c2_copositivity(matrix, crit)
    copositive = copositivity.status is CopositivityStatus.COPOSITIVE
    c2p = ConditionReport(
        condition=ConditionId.QP_C2P,
        verdict=Verdict.HOLDS if copositive else Verdict.FAILS,
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
