"""Shared test helpers: random rational polyhedra built around known feasible
points, the orthant, cone inclusion and equality, and the LP and linear-algebra helpers
only the tests use.  The LPs here have nonzero right-hand sides, which
``solve_lp`` (cone LPs only) does not take, so they run on the reference
simplex of ``lp_oracle``."""

import random
from fractions import Fraction

from cone_audit.errors import DimensionMismatchError
from cone_audit.geometry import PolyhedralCone, Polyhedron
from cone_audit.linalg import RationalMatrix, RationalVector

from lp_oracle import OracleResult, oracle_solve_lp


def small_fraction(rng: random.Random, span: int = 3) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.choice((1, 1, 2, 3)))


def random_vector(rng: random.Random, dim: int, span: int = 3) -> RationalVector:
    return RationalVector([small_fraction(rng, span) for _ in range(dim)])


def orthant_cone(dim: int = 2) -> PolyhedralCone:
    """The nonnegative orthant as a cone, its rows -e_i tagged 1..dim."""
    rows = RationalMatrix([-RationalVector.unit(dim, i) for i in range(dim)], dim)
    return PolyhedralCone(dim, ineq_rows=rows, ineq_origins=tuple(range(1, dim + 1)))


def orthant_polyhedron(dim: int = 2) -> Polyhedron:
    """The nonnegative orthant {x | -x_i <= 0}."""
    rows = RationalMatrix([-RationalVector.unit(dim, i) for i in range(dim)], dim)
    return Polyhedron(dim, ineq_matrix=rows, ineq_rhs=RationalVector.zero(dim))


def cone_subset(inner: PolyhedralCone, outer: PolyhedralCone) -> tuple[bool, RationalVector | None]:
    """Decide cone inclusion; on failure return a generator of ``inner`` outside ``outer``."""
    if inner.dim != outer.dim:
        raise DimensionMismatchError("cones live in different ambient dimensions")
    for vec in inner.generators().spanning_vectors():
        if not outer.contains(vec):
            return False, vec
    return True, None


def cone_equal(first: PolyhedralCone, second: PolyhedralCone) -> tuple[bool, RationalVector | None]:
    """Mutual inclusion test; the witness vector lies in one cone only."""
    ok, witness = cone_subset(first, second)
    if not ok:
        return False, witness
    ok, witness = cone_subset(second, first)
    if not ok:
        return False, witness
    return True, None


def random_feasible_polyhedron(
    rng: random.Random,
    dim: int,
    num_ineq: int,
    num_eq: int = 0,
    active_probability: float = 0.5,
):
    """A polyhedron guaranteed to contain a known base point.

    Rows are random; each bound is the row value at the base point plus a
    nonnegative slack, zero with the given probability so the base point
    sits on interestingly many facets.
    """
    base = random_vector(rng, dim)
    ineq_rows = []
    bounds = []
    for _ in range(num_ineq):
        row = random_vector(rng, dim)
        if row.is_zero():
            row = RationalVector.unit(dim, rng.randrange(dim))
        slack = Fraction(0)
        if rng.random() >= active_probability:
            slack = Fraction(rng.randint(1, 4), rng.choice((1, 2)))
        ineq_rows.append(row)
        bounds.append(row.dot(base) + slack)
    eq_rows = []
    eq_rhs = []
    for _ in range(num_eq):
        row = random_vector(rng, dim)
        eq_rows.append(row)
        eq_rhs.append(row.dot(base))
    polyhedron = Polyhedron(
        dim,
        eq_matrix=RationalMatrix(eq_rows, dim),
        eq_rhs=RationalVector(eq_rhs),
        ineq_matrix=RationalMatrix(ineq_rows, dim),
        ineq_rhs=RationalVector(bounds),
    )
    return polyhedron, base


def tangent_membership_by_rows(polyhedron: Polyhedron, base, direction) -> bool:
    """Direct row evaluation of the tangent-cone formula (no step oracle)."""
    active = [
        k
        for k, row in enumerate(polyhedron.ineq_matrix.rows)
        if row.dot(base) == polyhedron.ineq_rhs[k]
    ]
    if any(row.dot(direction) != 0 for row in polyhedron.eq_matrix.rows):
        return False
    return all(polyhedron.ineq_matrix.row(k).dot(direction) <= 0 for k in active)


def transpose(mat: RationalMatrix) -> RationalMatrix:
    return RationalMatrix(
        [RationalVector(r[j] for r in mat.rows) for j in range(mat.ncols)],
        mat.nrows,
    )


def feasibility(polyhedron: Polyhedron) -> OracleResult:
    """Feasibility LP: OPTIMAL with a point, or INFEASIBLE with Farkas multipliers."""
    return oracle_solve_lp(
        RationalVector.zero(polyhedron.dim),
        eq_matrix=polyhedron.eq_matrix,
        eq_rhs=polyhedron.eq_rhs,
        ineq_matrix=polyhedron.ineq_matrix,
        ineq_rhs=polyhedron.ineq_rhs,
    )


def membership_lp(cone: PolyhedralCone, v: RationalVector) -> OracleResult:
    """Feasibility LP deciding v in cone(rays) + span(lineality).

    Independent of the H-form row checks; cross-validates the double
    description output.
    """
    gens = cone.generators()
    columns = list(gens.rays) + list(gens.lineality)
    k_rays = len(gens.rays)
    if not columns:
        # Only the origin; encode 0 = v through an empty-variable system.
        if v.is_zero():
            return oracle_solve_lp(RationalVector([]))
        return oracle_solve_lp(
            RationalVector([]),
            eq_matrix=RationalMatrix([RationalVector([])] * v.dim, 0),
            eq_rhs=v,
        )
    eq = RationalMatrix(
        [RationalVector(col[i] for col in columns) for i in range(cone.dim)],
        len(columns),
    )
    ineq_rows = [-RationalVector.unit(len(columns), r) for r in range(k_rays)]
    return oracle_solve_lp(
        RationalVector.zero(len(columns)),
        eq_matrix=eq,
        eq_rhs=v,
        ineq_matrix=RationalMatrix(ineq_rows, len(columns)),
        ineq_rhs=RationalVector.zero(k_rays),
    )
