"""Reference simplex for the differential tests of ``cone_audit.lp``.

The dense ``Fraction`` tableau that ``solve_lp`` used before it moved to an
integer tableau, with the same slack start: an inequality row with a
nonnegative right-hand side starts with its slack basic, every other row
with its artificial, and Bland's rule picks the pivots.  It keeps one
artificial column per row; those of slack-start rows equal the slack columns
plus one unit of phase-1 cost, so they never enter and the pivot path is the
one ``solve_lp`` takes.  ``solve_lp`` must return an equal ``LPResult``.
"""

from __future__ import annotations

from fractions import Fraction

from cone_audit.linalg import RationalMatrix, RationalVector, solve_linear
from cone_audit.lp import LPResult, LPStatus

_ZERO = Fraction(0)
_ONE = Fraction(1)


def oracle_solve_lp(objective, eq_matrix=None, eq_rhs=None, ineq_matrix=None, ineq_rhs=None):
    """``solve_lp`` on the Fraction tableau; same arguments and result."""
    n = objective.dim
    eq_matrix = eq_matrix if eq_matrix is not None else RationalMatrix([], n)
    eq_rhs = eq_rhs if eq_rhs is not None else RationalVector([])
    ineq_matrix = ineq_matrix if ineq_matrix is not None else RationalMatrix([], n)
    ineq_rhs = ineq_rhs if ineq_rhs is not None else RationalVector([])
    return FractionSimplex(objective, eq_matrix, eq_rhs, ineq_matrix, ineq_rhs).solve()


class FractionSimplex:
    """Internal solver state for one LP instance.

    Standard-form layout: columns [0, n) are x+, [n, 2n) are x-, then one
    slack per inequality row, then the phase-1 artificials.  Rows are the
    equalities followed by the inequalities, each scaled by +-1 so the
    right-hand side is nonnegative.
    """

    def __init__(self, objective, eq_matrix, eq_rhs, ineq_matrix, ineq_rhs):
        self.n = objective.dim
        self.objective = objective
        self.eq_matrix, self.eq_rhs = eq_matrix, eq_rhs
        self.ineq_matrix, self.ineq_rhs = ineq_matrix, ineq_rhs
        self.m_eq, self.m_in = eq_matrix.nrows, ineq_matrix.nrows
        m = self.m_eq + self.m_in
        self.num_real = 2 * self.n + self.m_in
        self.art_start = self.num_real

        # Build the sign-normalized standard-form rows.
        self.std_rows: list[list[Fraction]] = []
        self.std_rhs: list[Fraction] = []
        self.row_sign: list[Fraction] = []
        for i in range(self.m_eq):
            self._append_row(list(eq_matrix.row(i).entries), None, eq_rhs[i])
        for k in range(self.m_in):
            self._append_row(list(ineq_matrix.row(k).entries), k, ineq_rhs[k])

        # Tableau with artificial columns appended; artificials start basic.
        self.tab = [
            row + [(_ONE if j == i else _ZERO) for j in range(m)] + [self.std_rhs[i]]
            for i, row in enumerate(self.std_rows)
        ]
        self.basis = [self.art_start + i for i in range(m)]
        # Slack start: an inequality row whose sign was kept has its slack
        # as a unit column, so it starts with the slack basic.
        for i in range(self.m_eq, m):
            if self.row_sign[i] > 0:
                self.basis[i] = 2 * self.n + i - self.m_eq
        self.row_origin = list(range(m))

    def _append_row(self, coeffs: list[Fraction], slack_index: int | None, rhs: Fraction):
        row = list(coeffs) + [-a for a in coeffs] + [_ZERO] * self.m_in
        if slack_index is not None:
            row[2 * self.n + slack_index] = _ONE
        sign = _ONE
        if rhs < 0:
            row = [-a for a in row]
            rhs, sign = -rhs, -sign
        self.std_rows.append(row)
        self.std_rhs.append(rhs)
        self.row_sign.append(sign)

    # -- tableau mechanics -------------------------------------------------

    def _pivot(self, row: int, col: int) -> None:
        tab = self.tab
        pivot = tab[row][col]
        tab[row] = [a / pivot for a in tab[row]]
        for i in range(len(tab)):
            if i != row and tab[i][col] != 0:
                factor = tab[i][col]
                tab[i] = [a - factor * b for a, b in zip(tab[i], tab[row])]
        self.basis[row] = col

    def _reduced_costs(self, costs: list[Fraction], allowed: range) -> list[Fraction]:
        basis_costs = [costs[b] for b in self.basis]
        reduced = list(costs[: allowed.stop])
        for i, cb in enumerate(basis_costs):
            if cb != 0:
                row = self.tab[i]
                for j in allowed:
                    if row[j] != 0:
                        reduced[j] -= cb * row[j]
        return reduced

    def _run(self, costs: list[Fraction], allowed: range) -> int | None:
        """Iterate to optimality; returns the entering column on unboundedness."""
        while True:
            reduced = self._reduced_costs(costs, allowed)
            entering = next((j for j in allowed if reduced[j] < 0), None)
            if entering is None:
                return None
            leaving, best = None, None
            for i, row in enumerate(self.tab):
                coeff = row[entering]
                if coeff > 0:
                    ratio = row[-1] / coeff
                    if best is None or ratio < best or (
                        ratio == best and self.basis[i] < self.basis[leaving]
                    ):
                        leaving, best = i, ratio
            if leaving is None:
                return entering
            self._pivot(leaving, entering)

    # -- solution extraction ----------------------------------------------

    def _basic_point(self) -> RationalVector:
        values = [_ZERO] * (self.num_real + self.m_eq + self.m_in)
        for i, b in enumerate(self.basis):
            values[b] = self.tab[i][-1]
        return RationalVector(
            values[j] - values[self.n + j] for j in range(self.n)
        )

    def _duals(self, costs: list[Fraction]) -> tuple[RationalVector, RationalVector]:
        """Dual multipliers for the original rows, from the final basis.

        Solves  B' y = c_B  exactly, where B collects the original
        standard-form columns of the basic variables (artificial columns are
        unit vectors), then undoes the row sign normalization.  Rows dropped
        as redundant during phase transition get multiplier zero.
        """
        m_cur = len(self.row_origin)
        art_full = self.m_eq + self.m_in

        def std_column(var: int) -> list[Fraction]:
            if var >= self.art_start:
                orig = var - self.art_start
                return [_ONE if self.row_origin[i] == orig else _ZERO for i in range(m_cur)]
            return [self.std_rows[self.row_origin[i]][var] for i in range(m_cur)]

        basis_matrix = RationalMatrix(
            [RationalVector(std_column(b)) for b in self.basis], m_cur
        )  # rows indexed by basic variable -> this is B^T already
        cb = RationalVector([costs[b] for b in self.basis])
        y_cur = solve_linear(basis_matrix, cb)
        if y_cur is None:  # cannot happen for a valid basis
            raise RuntimeError("singular simplex basis during dual extraction")

        y_full = [_ZERO] * art_full
        for i, orig in enumerate(self.row_origin):
            y_full[orig] = y_cur[i]
        dual_eq = RationalVector(
            self.row_sign[i] * y_full[i] for i in range(self.m_eq)
        )
        dual_in = RationalVector(
            -self.row_sign[self.m_eq + k] * y_full[self.m_eq + k] for k in range(self.m_in)
        )
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
        direction = [_ZERO] * (self.num_real + self.m_eq + self.m_in)
        direction[entering] = _ONE
        for i, b in enumerate(self.basis):
            direction[b] = -self.tab[i][entering]
        return RationalVector(
            direction[j] - direction[self.n + j] for j in range(self.n)
        )

    # -- solve -------------------------------------------------------------

    def solve(self) -> LPResult:
        m = self.m_eq + self.m_in
        phase1_costs = [_ZERO] * self.num_real + [_ONE] * m
        unbounded = self._run(phase1_costs, range(self.num_real + m))
        if unbounded is not None:  # sum of artificials is bounded below by 0
            raise RuntimeError("phase-1 simplex reported unbounded")
        infeasibility = sum((self.tab[i][-1] for i, b in enumerate(self.basis)
                             if b >= self.art_start), _ZERO)
        if infeasibility > 0:
            dual_eq, dual_in = self._duals(phase1_costs)
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

        costs = (
            list(self.objective.entries)
            + [-a for a in self.objective.entries]
            + [_ZERO] * self.m_in
            + [_ZERO] * m
        )
        entering = self._run(costs, range(self.num_real))
        if entering is not None:
            ray = self._ray(entering)
            return LPResult(
                status=LPStatus.UNBOUNDED,
                witness=ray,
                feasible_point=self._basic_point(),
            )
        point = self._basic_point()
        optimum = self.objective.dot(point)
        dual_eq, dual_in = self._duals(costs)
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
            if self.basis[row] >= self.art_start:
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
