"""Exact simplex for cone LPs, with dual certificates.

Solves   min c.x   subject to   E x = 0,  G x <= 0   over free variables x,
exactly.  Every caller asks for the infimum of a linear form over a
polyhedral cone, which is 0 or -inf; the origin is always feasible, so the
LP is never infeasible.  Bland's pivoting rule makes the solver
deterministic and immune to cycling.

The cone lies in ker E, so equality rows are substituted away: with the
columns of K an integer basis of ker E, the LP is  min (K'c).y  over
{(G K) y <= 0}.  Each row starts with its slack basic, so there is no
phase 1.  Every right-hand side is 0 and stays 0, so every ratio test ties
and Bland's rule leaves on the least basic column.  The tableau is held in
Python ints over one common denominator and pivoted with
:func:`linalg.bareiss_step`; reduced-cost signs compare integers, the ray
and duals come out as integer forms, and both certificates are checked in
integers.

Every terminal status carries a certificate, checked exactly before it is
returned:

* OPTIMAL    - multipliers y on equalities and lambda >= 0 on inequalities
               with  E'y - G'lambda = c, so c.x >= 0 on the cone.  lambda is
               read off the slack columns; c + G'lambda, one integer sum over
               a common denominator, is then orthogonal to ker E, and y
               solves E'y = c + G'lambda.
* UNBOUNDED  - a recession ray r = K y with E r = 0, G r <= 0 and c.r < 0.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .errors import DimensionMismatchError
from .linalg import RationalMatrix, RationalVector, bareiss_step, combination, kernel_basis, solve_linear


class LPStatus(Enum):
    OPTIMAL = "optimal"
    UNBOUNDED = "unbounded"


class LPResult(NamedTuple):
    """Outcome of :func:`solve_lp`: the improving recession ray ``witness``
    on UNBOUNDED, the dual solution on OPTIMAL."""

    status: LPStatus
    witness: RationalVector | None = None
    dual_equalities: RationalVector | None = None
    dual_inequalities: RationalVector | None = None


def solve_lp(
    objective: RationalVector,
    eq_matrix: RationalMatrix | None = None,
    ineq_matrix: RationalMatrix | None = None,
) -> LPResult:
    """Minimize ``objective . x`` over the cone ``{x | eq_matrix x = 0, ineq_matrix x <= 0}``."""
    n = objective.dim
    eq_matrix = eq_matrix if eq_matrix is not None else RationalMatrix([], n)
    ineq_matrix = ineq_matrix if ineq_matrix is not None else RationalMatrix([], n)
    if eq_matrix.ncols != n or ineq_matrix.ncols != n:
        raise DimensionMismatchError("constraint matrices do not match objective dimension")
    kernel = kernel_basis(eq_matrix) if eq_matrix.nrows else None

    def ints(v: RationalVector):
        # v, or K'v, times the scale of v's integer form (K is integer)
        return v.integer_form[0] if kernel is None else [v.scaled_dot(k) for k in kernel]

    rows = ineq_matrix.rows
    simplex = _Simplex(ints(objective), [ints(r) for r in rows], [r.integer_form[1] for r in rows])
    entering = simplex._run()
    if entering is not None:
        ray = simplex._ray(entering)
        if kernel is not None:
            ray = combination(ray.entries, kernel, n)
        _verify_ray(ray, objective, eq_matrix, ineq_matrix)
        return LPResult(status=LPStatus.UNBOUNDED, witness=ray)
    dual_in = simplex._duals(objective.integer_form[1])
    target = combination((1, *dual_in), (objective, *rows), n)
    dual_eq = RationalVector([])
    if kernel is not None:
        transposed = RationalMatrix([[r[j] for r in eq_matrix.rows] for j in range(n)], eq_matrix.nrows)
        dual_eq = solve_linear(transposed, target)
    _verify_dual(dual_eq, dual_in, target, eq_matrix)
    return LPResult(status=LPStatus.OPTIMAL, dual_equalities=dual_eq, dual_inequalities=dual_in)


def _verify_dual(dual_eq, dual_in, target, eq_matrix) -> None:
    # lambda >= 0 and E'y = target = c + G'lambda, that is E'y - G'lambda = c;
    # both are exact identities, so a failure means a solver bug, not bad data.
    if any(k < 0 for k in dual_in.integer_form[0]):
        raise RuntimeError("negative inequality multiplier in LP certificate")
    if dual_eq is None or combination(dual_eq.entries, eq_matrix.rows, target.dim) != target:
        raise RuntimeError("LP dual certificate failed exact verification")


def _verify_ray(ray, objective, eq_matrix, ineq_matrix) -> None:
    # E r = 0, G r <= 0 and c.r < 0; integer forms keep every sign
    if (
        objective.scaled_dot(ray) >= 0
        or any(r.scaled_dot(ray) for r in eq_matrix.rows)
        or any(r.scaled_dot(ray) > 0 for r in ineq_matrix.rows)
    ):
        raise RuntimeError("LP recession ray failed exact verification")


class _Simplex:
    """Internal solver state for  min c.x  over  {G x <= 0}, x free.

    Columns: [0, n) are x+, [n, 2n) are x-, then one slack per row.  Row i
    is the input row times ``scale[i]``, in integers; its slack counts in
    units of ``1/scale[i]``, so its column is a unit vector, and starts basic.

    ``tab`` holds ``denom`` times the current tableau in integers, without
    the right-hand side, which is 0 throughout; ``denom`` > 0 is the
    determinant of the current basis in these scaled columns.  ``reduced``
    is ``denom`` times the reduced costs, pivoted along; at the slack start
    they are the integer ``costs``.
    """

    def __init__(self, costs, rows, scale: list[int]):
        n = self.n = len(costs)
        m = len(rows)
        self.costs = list(costs) + [-a for a in costs] + [0] * m
        self.tab: list[list[int]] = []
        for i, ints in enumerate(rows):
            tab_row = list(ints) + [-a for a in ints] + [0] * m
            tab_row[2 * n + i] = 1
            self.tab.append(tab_row)
        self.scale = scale
        self.basis = list(range(2 * n, 2 * n + m))
        self.denom = 1
        self.reduced = self.costs

    def _pivot(self, row: int, col: int) -> None:
        """:func:`bareiss_step` on every other row and the reduced costs; the
        pivot, and so ``denom``, is positive."""
        tab, d = self.tab, self.denom
        pivot_row = tab[row]
        p = pivot_row[col]
        for i, r in enumerate(tab):
            if i != row:
                tab[i] = bareiss_step(r, pivot_row, p, col, d)
        self.reduced = bareiss_step(self.reduced, pivot_row, p, col, d)
        self.denom = p
        self.basis[row] = col

    def _run(self) -> int | None:
        """Iterate to optimality; returns the entering column on unboundedness."""
        while True:
            reduced = self.reduced
            entering = next((j for j, a in enumerate(reduced) if a < 0), None)
            if entering is None:
                return None
            # Bland's leaving row: every ratio is 0, so the least basic
            # column among the rows with a positive coefficient.
            candidates = [i for i, row in enumerate(self.tab) if row[entering] > 0]
            if not candidates:
                return entering
            self._pivot(min(candidates, key=self.basis.__getitem__), entering)

    def _duals(self, cost_scale: int) -> RationalVector:
        """lambda = -c_B B^-1 on the rows: each slack column holds ``denom``
        times its column of B^-1; row scales and ``cost_scale`` are undone."""
        first = 2 * self.n
        return RationalVector.from_ints(
            [
                -self.scale[i] * sum(self.costs[b] * row[first + i] for b, row in zip(self.basis, self.tab))
                for i in range(len(self.tab))
            ],
            self.denom * cost_scale,
        )

    def _ray(self, entering: int) -> RationalVector:
        n = self.n
        direction = [0] * (2 * n)
        if entering < 2 * n:
            direction[entering] = self.denom
        for i, b in enumerate(self.basis):
            if b < 2 * n:
                direction[b] = -self.tab[i][entering]
        # A slack counts in units of 1/scale of its row, so one unit of the
        # input row's slack is scale units of the tableau's.
        unit = 1 if entering < 2 * n else self.scale[entering - 2 * n]
        return RationalVector.from_ints([unit * (direction[j] - direction[n + j]) for j in range(n)], self.denom)
