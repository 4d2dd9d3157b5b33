"""Exact simplex for cone LPs, with dual certificates.

Solves   min c.x   subject to   E x = 0,  G x <= 0   over free variables x,
exactly.  Every caller asks for the infimum of a linear form over a
polyhedral cone, which is 0 or -inf; the origin is always feasible, so the
LP is never infeasible.  Bland's pivoting rule makes the solver
deterministic and immune to cycling.

Each inequality row starts with its slack basic; only equality rows get an
artificial variable, and phase 1 runs only when there is one.  Every
right-hand side is 0 and stays 0, so every ratio test ties and Bland's rule
leaves on the least basic column.  The tableau is held in Python ints over
one common denominator and pivoted with Bareiss's exact division
("Sylvester's identity and multistep integer-preserving Gaussian
elimination", Math. Comp. 1968); reduced-cost signs compare integers, and
Fractions appear only in the extracted ray and duals.

Every terminal status carries an exactly checkable certificate:

* OPTIMAL    - dual multipliers (y on equalities, lambda >= 0 on
               inequalities) with  E'y - G'lambda = c, so c.x >= 0 on the cone.
* UNBOUNDED  - a recession ray r with E r = 0, G r <= 0 and c.r < 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import DimensionMismatchError
from .linalg import RationalMatrix, RationalVector, integer_form

_ZERO = Fraction(0)


class LPStatus(Enum):
    OPTIMAL = "optimal"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LPResult:
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
    return _Simplex(objective, eq_matrix, ineq_matrix).solve()


class _Simplex:
    """Internal solver state for one LP instance.

    Columns: [0, n) are x+, [n, 2n) are x-, then one slack per inequality
    row, then one artificial per equality row, in row order.  Rows are the
    equalities followed by the inequalities.  Row i is the input row times
    ``scale[i]``, the lcm of the row's denominators; its slack and
    artificial count in units of ``1/scale[i]``, so their columns are unit
    vectors.  Each row has one unit column at the start, ``unit_col[i]``,
    its slack or its artificial, which starts basic.

    ``tab`` holds ``denom`` times the current tableau in integers, without
    the right-hand side, which is 0 throughout; ``denom`` > 0 is the
    determinant of the current basis in these scaled columns.  ``reduced``
    is ``denom`` times the reduced costs, pivoted along.
    """

    def __init__(self, objective, eq_matrix, ineq_matrix):
        n = self.n = objective.dim
        self.objective = objective
        self.eq_matrix, self.ineq_matrix = eq_matrix, ineq_matrix
        self.m_eq, self.m_in = eq_matrix.nrows, ineq_matrix.nrows
        self.num_real = 2 * n + self.m_in
        self.unit_col = [self.num_real + i for i in range(self.m_eq)] + list(range(2 * n, self.num_real))
        self.tab: list[list[int]] = []
        self.scale: list[int] = []
        for row, unit in zip(eq_matrix.rows + ineq_matrix.rows, self.unit_col):
            ints, scale = integer_form(row.entries)
            tab_row = list(ints) + [-a for a in ints] + [0] * (self.m_in + self.m_eq)
            tab_row[unit] = 1
            self.tab.append(tab_row)
            self.scale.append(scale)
        self.basis = list(self.unit_col)
        self.denom = 1
        self.reduced: list[int] = []

    # -- tableau mechanics -------------------------------------------------

    def _pivot(self, row: int, col: int) -> None:
        """Bareiss step: every other row becomes (p*r - r[col]*pivot_row) / denom.

        The division is exact because each entry is a minor of the scaled
        input.  A negative pivot (only when driving out artificials) flips
        the sign of every row, so that ``denom`` stays positive.
        """
        tab, d = self.tab, self.denom
        pivot_row = tab[row]
        p = pivot_row[col]
        if p < 0:
            p = -p
            pivot_row = tab[row] = [-a for a in pivot_row]
        for i, r in enumerate(tab):
            if i != row:
                tab[i] = self._eliminated(r, pivot_row, p, col, d)
        self.reduced = self._eliminated(self.reduced, pivot_row, p, col, d)
        self.denom = p
        self.basis[row] = col

    @staticmethod
    def _eliminated(r: list[int], pivot_row: list[int], p: int, col: int, d: int) -> list[int]:
        f = r[col]
        if f:
            return [(p * a - f * b) // d for a, b in zip(r, pivot_row)]
        if p == d:
            return r
        return [p * a // d for a in r]

    def _set_costs(self, costs: list[int]) -> None:
        """``denom`` times the reduced costs of the integer ``costs``."""
        reduced = [self.denom * c for c in costs]
        for i, b in enumerate(self.basis):
            cb = costs[b]
            if cb:
                reduced = [a - cb * t for a, t in zip(reduced, self.tab[i])]
        self.reduced = reduced

    def _run(self, costs: list[int], allowed: range) -> int | None:
        """Iterate to optimality; returns the entering column on unboundedness."""
        self._set_costs(costs)
        while True:
            reduced = self.reduced
            entering = next((j for j in allowed if reduced[j] < 0), None)
            if entering is None:
                return None
            # Bland's leaving row: every ratio is 0, so the least basic
            # column among the rows with a positive coefficient.
            candidates = [i for i, row in enumerate(self.tab) if row[entering] > 0]
            if not candidates:
                return entering
            self._pivot(min(candidates, key=self.basis.__getitem__), entering)

    # -- solution extraction ----------------------------------------------

    def _duals(self, costs: list[int], cost_scale: int) -> tuple[RationalVector, RationalVector]:
        """Dual multipliers for the original rows, from the final tableau.

        y = c_B B^-1, and the unit column each row started with holds
        ``denom`` times its column of B^-1; the row scales are undone here.
        A row dropped as redundant had an artificial basic at cost 0, so it
        adds nothing to the sum, but its own unit column still holds B^-1.
        """
        y = [
            Fraction(
                self.scale[i] * sum(costs[b] * row[col] for b, row in zip(self.basis, self.tab)),
                self.denom * cost_scale,
            )
            for i, col in enumerate(self.unit_col)
        ]
        dual_eq = RationalVector(y[: self.m_eq])
        dual_in = RationalVector(-a for a in y[self.m_eq:])
        return dual_eq, dual_in

    def _verify_dual(self, dual_eq, dual_in, target: RationalVector) -> None:
        # E'y - G'lambda must equal `target` and lambda must be >= 0; both are
        # exact identities, so a failure means a solver bug, not bad data.
        if any(a < 0 for a in dual_in):
            raise RuntimeError("negative inequality multiplier in LP certificate")
        for j in range(self.n):
            total = _ZERO
            for i in range(self.m_eq):
                total += dual_eq[i] * self.eq_matrix.entry(i, j)
            for k in range(self.m_in):
                total -= dual_in[k] * self.ineq_matrix.entry(k, j)
            if total != target[j]:
                raise RuntimeError("LP dual certificate failed exact verification")

    def _ray(self, entering: int) -> RationalVector:
        direction = [0] * (2 * self.n)
        if entering < 2 * self.n:
            direction[entering] = self.denom
        for i, b in enumerate(self.basis):
            if b < 2 * self.n:
                direction[b] = -self.tab[i][entering]
        # A slack counts in units of 1/scale of its row, so one unit of the
        # input row's slack is scale units of the tableau's.
        unit = 1 if entering < 2 * self.n else self.scale[self.m_eq + entering - 2 * self.n]
        return RationalVector(
            Fraction(unit * (direction[j] - direction[self.n + j]), self.denom)
            for j in range(self.n)
        )

    # -- driver ------------------------------------------------------------

    def solve(self) -> LPResult:
        if self.m_eq:
            # An artificial counts in units of 1/scale of its row, so the
            # phase-1 objective (the sum of the artificials) puts cost
            # 1/scale on it, made integer by the lcm of those scales.  Every
            # artificial stays at 0, so phase 1 only moves the basis.
            phase1, _ = integer_form(
                [_ZERO] * self.num_real + [Fraction(1, s) for s in self.scale[: self.m_eq]]
            )
            if self._run(phase1, range(len(phase1))) is not None:
                raise RuntimeError("phase-1 simplex reported unbounded")
            self._drive_out_artificials()

        entries = self.objective.entries
        costs, cost_scale = integer_form(
            entries + tuple(-a for a in entries) + (_ZERO,) * (self.m_in + self.m_eq)
        )
        entering = self._run(costs, range(self.num_real))
        if entering is not None:
            return LPResult(status=LPStatus.UNBOUNDED, witness=self._ray(entering))
        dual_eq, dual_in = self._duals(costs, cost_scale)
        self._verify_dual(dual_eq, dual_in, self.objective)
        return LPResult(
            status=LPStatus.OPTIMAL, dual_equalities=dual_eq, dual_inequalities=dual_in
        )

    def _drive_out_artificials(self) -> None:
        """Pivot basic artificials onto real columns; drop rows whose real
        part is entirely zero (redundant constraints)."""
        row = 0
        while row < len(self.tab):
            if self.basis[row] >= self.num_real:
                col = next(
                    (j for j in range(self.num_real) if self.tab[row][j] != 0), None
                )
                if col is None:
                    del self.tab[row]
                    del self.basis[row]
                    continue
                self._pivot(row, col)
            row += 1
