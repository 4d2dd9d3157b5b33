"""Exact two-phase simplex with Farkas certificates.

Solves   min c.x   subject to   E x = f,  G x <= h   over free variables x,
exactly.  Bland's pivoting rule makes the solver deterministic and immune
to cycling.

An inequality row with a nonnegative right-hand side starts with its slack
basic; only equality rows and rows with a negative right-hand side get an
artificial variable, and phase 1 runs only when there is one.  Every cone
LP without equality rows therefore starts at the origin in phase 2.  The
tableau is held in Python ints over one common denominator and pivoted with
Bareiss's exact division ("Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp. 1968); ratio tests and
reduced-cost signs compare integers, and Fractions appear only in the
extracted point, ray and duals.

Every terminal status carries an exactly checkable certificate:

* OPTIMAL    - a feasible minimizer plus dual multipliers (y on equalities,
               lambda >= 0 on inequalities) with  E'y - G'lambda = c  and
               f.y - h.lambda equal to the optimum (strong duality, exact).
* UNBOUNDED  - a feasible point plus a recession ray r with E r = 0,
               G r <= 0 and c.r < 0.
* INFEASIBLE - Farkas multipliers (y, lambda >= 0) with E'y - G'lambda = 0
               and f.y - h.lambda > 0, i.e. a nonnegative combination of the
               rows that is exactly contradictory.
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
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class LPResult:
    """Outcome of :func:`solve_lp` with its certificate data.

    ``witness`` is the minimizer on OPTIMAL and the improving recession ray
    on UNBOUNDED.  ``dual_equalities``/``dual_inequalities`` hold the dual
    solution on OPTIMAL and the Farkas multipliers on INFEASIBLE.
    """

    status: LPStatus
    optimum: Fraction | None = None
    witness: RationalVector | None = None
    feasible_point: RationalVector | None = None
    dual_equalities: RationalVector | None = None
    dual_inequalities: RationalVector | None = None

    def certificate_bound(self, eq_rhs: RationalVector, ineq_rhs: RationalVector) -> Fraction:
        """The bound f.y - h.lambda proved by the dual certificate."""
        bound = _ZERO
        if self.dual_equalities is not None and eq_rhs.dim:
            bound += self.dual_equalities.dot(eq_rhs)
        if self.dual_inequalities is not None and ineq_rhs.dim:
            bound -= self.dual_inequalities.dot(ineq_rhs)
        return bound


def solve_lp(
    objective: RationalVector,
    eq_matrix: RationalMatrix | None = None,
    eq_rhs: RationalVector | None = None,
    ineq_matrix: RationalMatrix | None = None,
    ineq_rhs: RationalVector | None = None,
) -> LPResult:
    """Minimize ``objective . x`` over ``{x | eq_matrix x = eq_rhs, ineq_matrix x <= ineq_rhs}``."""
    n = objective.dim
    eq_matrix = eq_matrix if eq_matrix is not None else RationalMatrix([], n)
    eq_rhs = eq_rhs if eq_rhs is not None else RationalVector([])
    ineq_matrix = ineq_matrix if ineq_matrix is not None else RationalMatrix([], n)
    ineq_rhs = ineq_rhs if ineq_rhs is not None else RationalVector([])
    if eq_matrix.ncols != n or ineq_matrix.ncols != n:
        raise DimensionMismatchError("constraint matrices do not match objective dimension")
    if eq_matrix.nrows != eq_rhs.dim or ineq_matrix.nrows != ineq_rhs.dim:
        raise DimensionMismatchError("constraint matrices do not match their right-hand sides")

    return _Simplex(objective, eq_matrix, eq_rhs, ineq_matrix, ineq_rhs).solve()


class _Simplex:
    """Internal solver state for one LP instance.

    Columns: [0, n) are x+, [n, 2n) are x-, then one slack per inequality
    row, then one artificial per row that needs one (equality rows and rows
    with a negative right-hand side), in row order.  Rows are the equalities
    followed by the inequalities.  Row i is the input row times
    ``row_sign[i] * scale[i]``, where the sign makes the right-hand side
    nonnegative and ``scale[i]`` is the lcm of the row's denominators; its
    slack and artificial count in units of ``1/scale[i]``, so their columns
    are unit vectors up to sign.  Each row has one unit column at the start,
    ``unit_col[i]``, its slack or its artificial, which starts basic.

    ``tab`` holds ``denom`` times the current tableau in integers, with the
    right-hand side last; ``denom`` > 0 is the determinant of the current
    basis in these scaled columns.  ``reduced`` is ``denom`` times the
    reduced costs, pivoted along.
    """

    def __init__(self, objective, eq_matrix, eq_rhs, ineq_matrix, ineq_rhs):
        n = self.n = objective.dim
        self.objective = objective
        self.eq_matrix, self.eq_rhs = eq_matrix, eq_rhs
        self.ineq_matrix, self.ineq_rhs = ineq_matrix, ineq_rhs
        self.m_eq, self.m_in = eq_matrix.nrows, ineq_matrix.nrows
        self.num_real = 2 * n + self.m_in
        rows = [(eq_matrix.row(i).entries, eq_rhs[i], None) for i in range(self.m_eq)]
        rows += [(ineq_matrix.row(k).entries, ineq_rhs[k], k) for k in range(self.m_in)]

        needs_artificial = [slack is None or rhs < 0 for _, rhs, slack in rows]
        num_art = sum(needs_artificial)
        self.tab: list[list[int]] = []
        self.basis: list[int] = []
        self.scale: list[int] = []
        self.row_sign: list[int] = []
        self.artificial_rows: list[int] = []
        for i, (coeffs, rhs, slack) in enumerate(rows):
            ints, scale = integer_form(coeffs + (rhs,))
            sign = -1 if rhs < 0 else 1
            ints = [sign * a for a in ints]
            row = ints[:n] + [-a for a in ints[:n]] + [0] * (self.m_in + num_art) + [ints[n]]
            if slack is not None:
                row[2 * n + slack] = sign
            if needs_artificial[i]:
                unit = self.num_real + len(self.artificial_rows)
                self.artificial_rows.append(i)
                row[unit] = 1
            else:
                unit = 2 * n + slack
            self.tab.append(row)
            self.basis.append(unit)
            self.scale.append(scale)
            self.row_sign.append(sign)
        self.unit_col = list(self.basis)
        self.row_origin = list(range(len(rows)))
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
        reduced = [self.denom * c for c in costs] + [0]
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
            # Bland's leaving row: least ratio rhs/coeff over positive
            # coefficients (compared by cross-multiplication), ties to the
            # least basic column.
            leaving, best_rhs, best_coeff = None, 0, 1
            for i, row in enumerate(self.tab):
                coeff = row[entering]
                if coeff > 0:
                    lhs, rhs = row[-1] * best_coeff, best_rhs * coeff
                    if leaving is None or lhs < rhs or (
                        lhs == rhs and self.basis[i] < self.basis[leaving]
                    ):
                        leaving, best_rhs, best_coeff = i, row[-1], coeff
            if leaving is None:
                return entering
            self._pivot(leaving, entering)

    # -- solution extraction ----------------------------------------------

    def _basic_point(self) -> RationalVector:
        values = [0] * (2 * self.n)
        for i, b in enumerate(self.basis):
            if b < 2 * self.n:
                values[b] = self.tab[i][-1]
        return RationalVector(
            Fraction(values[j] - values[self.n + j], self.denom) for j in range(self.n)
        )

    def _duals(self, costs: list[int], cost_scale: int) -> tuple[RationalVector, RationalVector]:
        """Dual multipliers for the original rows, from the final tableau.

        y = c_B B^-1, and the unit columns of the starting basis hold
        ``denom`` times B^-1; the row scales and signs are undone here.  Rows
        dropped as redundant during phase transition get multiplier zero.
        """
        y = [_ZERO] * (self.m_eq + self.m_in)
        for orig in self.row_origin:
            col = self.unit_col[orig]
            total = sum(costs[b] * self.tab[i][col] for i, b in enumerate(self.basis))
            y[orig] = Fraction(self.row_sign[orig] * self.scale[orig] * total, self.denom * cost_scale)
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
        if self.artificial_rows:
            # An artificial counts in units of 1/scale of its row, so the
            # phase-1 objective (the sum of the original artificials) puts
            # cost 1/scale on it, made integer by the lcm of those scales.
            phase1, cost_scale = integer_form(
                [_ZERO] * self.num_real + [Fraction(1, self.scale[i]) for i in self.artificial_rows]
            )
            unbounded = self._run(phase1, range(len(phase1)))
            if unbounded is not None:  # sum of artificials is bounded below by 0
                raise RuntimeError("phase-1 simplex reported unbounded")
            if any(self.tab[i][-1] > 0 for i, b in enumerate(self.basis) if b >= self.num_real):
                dual_eq, dual_in = self._duals(phase1, cost_scale)
                self._verify_dual(dual_eq, dual_in, RationalVector.zero(self.n))
                result = LPResult(
                    status=LPStatus.INFEASIBLE,
                    dual_equalities=dual_eq,
                    dual_inequalities=dual_in,
                )
                if result.certificate_bound(self.eq_rhs, self.ineq_rhs) <= 0:
                    raise RuntimeError("Farkas certificate failed exact verification")
                return result
            self._drive_out_artificials()

        entries = self.objective.entries
        costs, cost_scale = integer_form(
            entries + tuple(-a for a in entries) + (_ZERO,) * (self.m_in + len(self.artificial_rows))
        )
        entering = self._run(costs, range(self.num_real))
        if entering is not None:
            return LPResult(
                status=LPStatus.UNBOUNDED,
                witness=self._ray(entering),
                feasible_point=self._basic_point(),
            )
        point = self._basic_point()
        optimum = self.objective.dot(point)
        dual_eq, dual_in = self._duals(costs, cost_scale)
        self._verify_dual(dual_eq, dual_in, self.objective)
        result = LPResult(
            status=LPStatus.OPTIMAL,
            optimum=optimum,
            witness=point,
            feasible_point=point,
            dual_equalities=dual_eq,
            dual_inequalities=dual_in,
        )
        if result.certificate_bound(self.eq_rhs, self.ineq_rhs) != optimum:
            raise RuntimeError("LP strong duality failed exact verification")
        return result

    def _drive_out_artificials(self) -> None:
        """Pivot basic artificials (at value 0) onto real columns; drop rows
        whose real part is entirely zero (redundant constraints)."""
        row = 0
        while row < len(self.tab):
            if self.basis[row] >= self.num_real:
                col = next(
                    (j for j in range(self.num_real) if self.tab[row][j] != 0), None
                )
                if col is None:
                    del self.tab[row]
                    del self.basis[row]
                    del self.row_origin[row]
                    continue
                self._pivot(row, col)
            row += 1
