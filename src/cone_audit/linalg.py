"""Exact dense linear algebra over arbitrary-precision rationals, eliminated
in integers.

Exact data is `fractions.Fraction` scalars, so memberships, active sets and
cone equalities are decided without tolerances; it enters through one
reader, :func:`read_vector` (:func:`rational` for a scalar).  Arithmetic
runs on a vector's integer form instead (its entries times the lcm of their
denominators, a positive multiple of it): sums, scalings, dot products,
matrix products and :func:`combination` compute it for their results, which
box their `Fraction` entries only when read, and the kernels read signs of
dot products and primitive rays off it.  Every exact elimination in the
package, here and in the LP tableau and copositivity, is
:func:`bareiss_step` on integer forms, with Bareiss's exact division
("Sylvester's identity and multistep integer-preserving Gaussian
elimination", Math. Comp. 1968); `Fraction`s appear only in the output.
The containers are dense and small: problem sizes are desk scale
(dimension <= 10, a few dozen rows), and clarity beats scalability.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction
from operator import mul
from typing import Iterable, Iterator, Sequence

from .errors import DimensionMismatchError

# the one exact grammar, of problem files and reports alike
_RATIONAL_RE = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def read_vector(values: Sequence) -> "RationalVector":
    """The exact reader: a vector of JSON integers (not bools) and ASCII strings
    of the grammar with nonzero denominators, built from its integer form with
    no `Fraction` per entry; ValueError, one ``(index, message)`` per bad entry."""
    nums, dens, errors = [], [], []
    for i, value in enumerate(values):
        match = _RATIONAL_RE.fullmatch(value) if type(value) is str else None
        try:
            if type(value) is int or match and match[2] is None:
                nums.append(int(value))
                dens.append(1)
            elif match and int(match[2]):
                nums.append(int(match[1]))
                dens.append(int(match[2]))
            elif match:
                raise ValueError(f"invalid rational (zero denominator): {value!r}")
            else:
                raise ValueError("floats are not allowed in exact rational data" if isinstance(value, float)
                                 else f"invalid rational: {value!r}")
        except ValueError as exc:  # these, or int() past its digit limit
            errors.append((i, str(exc)))
    if errors:
        raise ValueError(*errors)
    scale = math.lcm(*dens)
    return RationalVector.from_ints(nums if scale == 1 else [n * (scale // d) for n, d in zip(nums, dens)], scale)


def rational(value: int | str | Fraction) -> Fraction:
    """``value`` (an int, a Fraction or a string like ``"-3/4"``, never a float) as a Fraction."""
    try:
        return value if isinstance(value, Fraction) else read_vector((value,))[0]
    except ValueError as exc:  # its one (index, message) argument
        raise ValueError(exc.args[0][1]) from None


def integer_form(values: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """``(ints, scale)``: ``values`` times ``scale``, the lcm of their denominators."""
    scale = math.lcm(*[a.denominator for a in values])
    return tuple([a.numerator * (scale // a.denominator) for a in values]), scale


class RationalVector:
    """Immutable dense vector of exact rationals.

    ``entries`` and :attr:`integer_form` are each computed at most once.
    Arithmetic results and vectors made :meth:`from_ints` carry their
    integer form and box their entries only on first use."""

    def __init__(self, entries: Iterable):
        self.__dict__["entries"] = tuple(rational(v) for v in entries)

    @classmethod
    def from_ints(cls, ints: Sequence[int], scale: int = 1) -> "RationalVector":
        """The vector ``ints / scale``, ``scale`` > 0, boxed into `Fraction`s on
        first use; its integer form is reduced by ``gcd(scale, *ints)``."""
        g = math.gcd(scale, *ints) if scale != 1 else 1
        vec = object.__new__(cls)
        vec.__dict__["integer_form"] = (tuple([k // g for k in ints]) if g != 1 else tuple(ints), scale // g)
        return vec

    @functools.cached_property
    def entries(self) -> tuple[Fraction, ...]:
        ints, scale = self.integer_form
        return tuple(map(Fraction, ints)) if scale == 1 else tuple([Fraction(k, scale) for k in ints])

    @functools.cached_property
    def integer_form(self) -> tuple[tuple[int, ...], int]:
        """:func:`integer_form` of the entries, computed on first use."""
        return integer_form(self.entries)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: RationalVector is immutable")

    def __eq__(self, other):
        # integer forms are canonical, so they are equal exactly when the entries are
        return self.integer_form == other.integer_form if isinstance(other, RationalVector) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.integer_form)

    @classmethod
    def zero(cls, dim: int) -> "RationalVector":
        return cls.from_ints((0,) * dim)

    @classmethod
    def unit(cls, dim: int, index: int) -> "RationalVector":
        return cls.from_ints([int(i == index) for i in range(dim)])

    @property
    def dim(self) -> int:
        """The length, read without boxing a vector made :meth:`from_ints`."""
        return len(self.__dict__.get("entries") or self.integer_form[0])

    def __len__(self) -> int:
        return self.dim

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.entries)

    def __getitem__(self, index: int) -> Fraction:
        return self.entries[index]

    def _check_dim(self, other: "RationalVector") -> None:
        if self.dim != other.dim:
            raise DimensionMismatchError(
                f"vector dimensions differ: {self.dim} vs {other.dim}"
            )

    def __add__(self, other: "RationalVector") -> "RationalVector":
        return combination((1, 1), (self, other), self.dim)

    def __sub__(self, other: "RationalVector") -> "RationalVector":
        return combination((1, -1), (self, other), self.dim)

    def __neg__(self) -> "RationalVector":
        ints, scale = self.integer_form
        return RationalVector.from_ints([-k for k in ints], scale)

    def scale(self, factor) -> "RationalVector":
        return combination((rational(factor),), (self,), self.dim)

    def dot(self, other: "RationalVector") -> Fraction:
        return Fraction(self.scaled_dot(other), self.integer_form[1] * other.integer_form[1])

    def scaled_dot(self, other: "RationalVector") -> int:
        """``self . other`` times both integer-form scales: same sign, in ints."""
        self._check_dim(other)
        return sum(map(mul, self.integer_form[0], other.integer_form[0]))

    def is_zero(self) -> bool:
        return not any(self.integer_form[0])

    def primitive(self) -> "RationalVector":
        """Scale to a coprime integer vector with the same direction.

        The zero vector is returned unchanged.  Used to canonicalize rays,
        where only the direction matters.
        """
        ints, scale = self.integer_form
        g = math.gcd(*ints)
        if g == 0 or g == scale == 1:
            return self
        return RationalVector.from_ints(tuple(k // g for k in ints))

    def as_floats(self) -> tuple[float, ...]:
        return tuple(float(a) for a in self.entries)

    def __repr__(self) -> str:
        return "(" + ", ".join(str(a) for a in self.entries) + ")"


class RationalMatrix:
    """Immutable dense row-major matrix of exact rationals.

    ``ncols`` is stored explicitly so zero-row matrices keep their width,
    which equality blocks of polyhedra routinely need.
    """

    rows: tuple[RationalVector, ...]
    ncols: int

    def __init__(self, rows: Iterable, ncols: int | None = None):
        vecs = tuple(r if isinstance(r, RationalVector) else RationalVector(r) for r in rows)
        if ncols is None:
            if not vecs:
                raise ValueError("ncols is required for a matrix with no rows")
            ncols = vecs[0].dim
        for r in vecs:
            if r.dim != ncols:
                raise DimensionMismatchError(
                    f"row width {r.dim} differs from declared ncols {ncols}"
                )
        self.__dict__.update(rows=vecs, ncols=ncols)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: RationalMatrix is immutable")

    def __eq__(self, other):
        if isinstance(other, RationalMatrix):
            return self.ncols == other.ncols and self.rows == other.rows
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.rows, self.ncols))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def row(self, i: int) -> RationalVector:
        return self.rows[i]

    def entry(self, i: int, j: int) -> Fraction:
        return self.rows[i][j]

    @functools.cached_property
    def integer_form(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """``(rows, scale)``: the rows times ``scale``, the lcm of all their
        denominators, in integers; computed on first use."""
        forms = [r.integer_form for r in self.rows]
        scale = math.lcm(*[s for _, s in forms])
        return tuple([tuple([k * (scale // s) for k in ints]) for ints, s in forms]), scale

    def matvec(self, v: RationalVector) -> RationalVector:
        if v.dim != self.ncols:
            raise DimensionMismatchError(
                f"matrix has {self.ncols} columns but vector has dimension {v.dim}"
            )
        (rows, scale), (ints, s) = self.integer_form, v.integer_form
        return RationalVector.from_ints([sum(map(mul, row, ints)) for row in rows], scale * s)

    def stack(self, other: "RationalMatrix") -> "RationalMatrix":
        if other.ncols != self.ncols:
            raise DimensionMismatchError("cannot stack matrices of different widths")
        return RationalMatrix(self.rows + other.rows, self.ncols)

    def is_symmetric(self) -> bool:
        if self.nrows != self.ncols:
            return False
        rows = self.integer_form[0]
        return all(rows[i][j] == rows[j][i] for i in range(self.nrows) for j in range(i + 1, self.ncols))

    def as_float_rows(self) -> list[list[float]]:
        return [[float(a) for a in r] for r in self.rows]

    def __repr__(self) -> str:
        return "[" + "; ".join(repr(r) for r in self.rows) + "]"


def combination(coefficients: Sequence, vectors: Sequence[RationalVector], dim: int) -> RationalVector:
    """``sum(c * v)``, with int or `Fraction` coefficients, of vectors of
    dimension ``dim``: one integer sum over the lcm of the terms' denominators."""
    if len(coefficients) != len(vectors):
        raise DimensionMismatchError(f"{len(coefficients)} coefficients for {len(vectors)} vectors")
    forms = [v.integer_form for v in vectors]
    for ints, _ in forms:
        if len(ints) != dim:
            raise DimensionMismatchError(f"vector dimensions differ: {dim} vs {len(ints)}")
    scales = [c.denominator * s for c, (_, s) in zip(coefficients, forms)]
    scale = math.lcm(*scales)
    factors = [c.numerator * (scale // s) for c, s in zip(coefficients, scales)]
    columns = zip(*[ints for ints, _ in forms]) if forms else [()] * dim
    return RationalVector.from_ints([sum(map(mul, factors, col)) for col in columns], scale)


def vector(*values) -> RationalVector:
    """Convenience builder: ``vector(1, "-2/3")``."""
    return RationalVector(values)


def matrix(rows: Sequence[Sequence], ncols: int | None = None) -> RationalMatrix:
    """Convenience builder for a matrix from nested sequences."""
    return RationalMatrix(rows, ncols)


def bareiss_step(row: list[int], pivot_row: list[int], p: int, col: int, d: int) -> list[int]:
    """``(p * row - row[col] * pivot_row) / d``: ``row`` eliminated in ``col``
    by ``pivot_row``, whose entry there is ``p``, with ``d`` the last pivot.

    The division is exact because every entry stays a minor of the input."""
    f = row[col]
    if f:
        return [(p * a - f * b) // d for a, b in zip(row, pivot_row)]
    if p == d:
        return row
    return [p * a // d for a in row]


def integer_rref(rows: Iterable[Sequence[int]], ncols: int) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan elimination of integer rows on their first
    ``ncols`` columns: ``(rows, pivots, sign)``.

    Pivots are the first nonzero entry scanning rows top to bottom, columns
    left to right.  Every pivot row ends with the last pivot d in its pivot
    column, so row / d is the reduced row echelon row; the rows below the
    pivot rows are zero there.  ``sign`` is the parity of the row swaps.
    """
    rows = [list(r) for r in rows]
    pivots: list[int] = []
    sign = d = 1
    for c in range(ncols):
        r = len(pivots)
        i = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if i is None:
            continue
        if i != r:
            rows[r], rows[i] = rows[i], rows[r]
            sign = -sign
        pivot_row = rows[r]
        p = pivot_row[c]
        rows = [row if k == r else bareiss_step(row, pivot_row, p, c, d) for k, row in enumerate(rows)]
        pivots.append(c)
        d = p
    return rows, pivots, sign


def _reduced(rows: Iterable[RationalVector], ncols: int) -> tuple[list[list[int]], list[int], int]:
    """:func:`integer_rref` of the rows' integer forms, and its last pivot."""
    ints, pivots, _ = integer_rref([r.integer_form[0] for r in rows], ncols)
    return ints, pivots, ints[0][pivots[0]] if pivots else 1


def rref(mat: RationalMatrix) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices).

    Deterministic: pivots are chosen as :func:`integer_rref` chooses them.
    """
    ints, pivots, d = _reduced(mat.rows, mat.ncols)
    return [[Fraction(a, d) for a in row] for row in ints], pivots


def row_space_basis(mat: RationalMatrix) -> tuple[RationalVector, ...]:
    """Canonical basis (RREF rows) of the row space."""
    rows, pivots = rref(mat)
    return tuple(RationalVector(rows[i]) for i in range(len(pivots)))


def kernel_basis(mat: RationalMatrix) -> tuple[RationalVector, ...]:
    """A basis of ``{v | mat v = 0}``: one primitive integer vector per free
    column of :func:`rref`, positive there, so the unit vectors when ``mat``
    has no rows."""
    ints, pivots, d = _reduced(mat.rows, mat.ncols)
    basis = []
    for free in sorted(set(range(mat.ncols)) - set(pivots)):
        v = [0] * mat.ncols
        v[free] = abs(d)
        for row, pc in zip(ints, pivots):
            v[pc] = -row[free] if d > 0 else row[free]
        basis.append(RationalVector.from_ints(tuple(v)).primitive())
    return tuple(basis)


def solve_linear(mat: RationalMatrix, rhs: RationalVector) -> RationalVector | None:
    """One exact solution of ``mat x = rhs``, or None if inconsistent."""
    if rhs.dim != mat.nrows:
        raise DimensionMismatchError(
            f"matrix has {mat.nrows} rows but rhs has dimension {rhs.dim}"
        )
    augmented = [RationalVector(row.entries + (b,)) for row, b in zip(mat.rows, rhs)]
    ints, pivots, d = _reduced(augmented, mat.ncols + 1)
    if mat.ncols in pivots:
        return None  # a row reduced to 0 = 1
    solution = [Fraction(0)] * mat.ncols
    for row, pc in zip(ints, pivots):
        solution[pc] = Fraction(row[mat.ncols], d)
    return RationalVector(solution)
