from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cone_audit.analysis import _vector_json
from cone_audit.errors import DimensionMismatchError
from cone_audit.linalg import (
    RationalMatrix,
    RationalVector,
    combination,
    integer_form,
    kernel_basis,
    lazy,
    matrix,
    rational,
    read_vector,
    row_space_basis,
    rref,
    solve_linear,
    vector,
)

from conftest import transpose


def test_rational_parsing():
    assert rational("3/4") == Fraction(3, 4)
    assert rational("-2") == Fraction(-2)
    assert rational(5) == Fraction(5)
    assert rational(Fraction(1, 3)) == Fraction(1, 3)


@pytest.mark.parametrize("bad", ["1/0", "x", "1.5", 1.5, "3 / 4", None, True,
                                 " 1", "1\n", "\uff11", "\u0661", "1e0", "1/-2"])
def test_rational_rejects(bad):
    with pytest.raises(ValueError):
        rational(bad)


def test_read_vector_builds_the_integer_form_and_names_every_bad_entry():
    vec = read_vector(["2/4", -3, "+7/6", "-0/9"])
    assert vec.integer_form == ((3, -18, 7, 0), 6)
    assert vec.entries == (Fraction(1, 2), Fraction(-3), Fraction(7, 6), Fraction(0))
    with pytest.raises(ValueError) as exc:
        read_vector(["1", "1/0", 2.0, "2", False])
    assert exc.value.args == (
        (1, "invalid rational (zero denominator): '1/0'"),
        (2, "floats are not allowed in exact rational data"),
        (4, "invalid rational: False"),
    )


def _int_error(text: str) -> str:
    try:
        int(text)
    except ValueError as exc:
        return str(exc)
    raise AssertionError(f"int() reads {text[:10]!r}...")


@pytest.mark.parametrize(
    "values, read",
    [
        (["1,2", "3"], [(0, "invalid rational: '1,2'")]),
        (["1,", "2"], [(0, "invalid rational: '1,'")]),
        (["1", ""], [(1, "invalid rational: ''")]),
        (["1" * 5000, "2"], [(0, _int_error("1" * 5000))]),
        (["+1", "-0", "007"], ((1, 0, 7), 1)),
        ([1, "2"], ((1, 2), 1)),
    ],
    ids=["comma-inside", "trailing-comma", "empty", "digit-limit", "signs-and-zeros", "json-integer"],
)
def test_read_vector_reads_a_joined_vector_as_entry_by_entry(values, read):
    """Reading integer strings whole by their join with "," changes no result:
    a comma inside an entry, an empty entry, or an entry past int()'s digit
    limit is named alone, and signs, leading zeros and JSON integers read as
    they do one by one."""
    if isinstance(read, list):
        with pytest.raises(ValueError) as exc:
            read_vector(values)
        assert list(exc.value.args) == read
    else:
        vec = read_vector(values)
        assert (vec.integer_form, vec.dim) == (read, len(values))


def test_vector_arithmetic():
    a = vector(1, "1/2")
    b = vector("1/3", 2)
    assert (a + b).entries == (Fraction(4, 3), Fraction(5, 2))
    assert (a - b).entries == (Fraction(2, 3), Fraction(-3, 2))
    assert a.dot(b) == Fraction(1, 3) + 1
    assert (-a).entries == (Fraction(-1), Fraction(-1, 2))
    assert a.scale(2).entries == (Fraction(2), Fraction(1))
    with pytest.raises(DimensionMismatchError):
        a.dot(vector(1))


def test_primitive_scaling():
    assert vector("2/3", "-4/3").primitive().entries == (Fraction(1), Fraction(-2))
    assert vector(0, 0).primitive().entries == (Fraction(0), Fraction(0))
    assert vector(-2, 4).primitive().entries == (Fraction(-1), Fraction(2))


def test_integer_form_and_integer_vectors():
    """The integer form is the entries times the lcm of their denominators;
    a vector made from ints equals, hashes and measures like one made from
    Fractions, and boxes its entries only when they are read."""
    v = vector("2/3", "-4/3", 0)
    assert v.integer_form == ((2, -4, 0), 3)
    assert v.scaled_dot(vector(3, 1, 5)) == 3 * v.dot(vector(3, 1, 5)) == 2
    ints = RationalVector.from_ints((1, -2, 0))
    assert ints.dim == len(ints) == 3 and "entries" not in ints.__dict__
    assert ints.primitive() is ints and v.primitive() == ints
    assert ints == vector(1, -2, 0) and len({ints, vector(1, -2, 0)}) == 1
    assert ints.entries == (Fraction(1), Fraction(-2), Fraction(0))
    for name in ("entries", "integer_form", "strings"):
        with pytest.raises(AttributeError):
            setattr(ints, name, ())


def test_lazy_attribute_is_computed_once_per_instance_into_its_dict():
    """A :class:`lazy` attribute runs its function on the first read of each
    instance and stores the value in ``vars(obj)``, where later reads find
    it; read on the class, it is the descriptor, with the function's doc."""
    calls = []

    class Box:
        @lazy
        def value(self):
            """The doc."""
            calls.append(self)
            return len(calls)

    a, b = Box(), Box()
    assert vars(a) == {}
    assert (a.value, a.value, b.value, a.value) == (1, 1, 2, 1)
    assert calls == [a, b] and vars(a) == {"value": 1} and vars(b) == {"value": 2}
    assert isinstance(Box.value, lazy) and Box.value.__doc__ == "The doc."
    for attribute in (RationalVector.entries, RationalVector.integer_form,
                      RationalVector.strings, RationalMatrix.integer_form):
        assert isinstance(attribute, lazy)
    v = vector("1/2", 3)
    assert "strings" not in vars(v) and v.strings == ("1/2", "3") and vars(v)["strings"] is v.strings


# Entries: zeros, integers, and fractions over large coprime denominators.
_ENTRIES = st.one_of(
    st.just(Fraction(0)),
    st.integers(-10**6, 10**6).map(Fraction),
    st.builds(Fraction, st.integers(-10**30, 10**30), st.sampled_from([2, 3, 7, 10007, 65537, 2**61 - 1])),
)


@st.composite
def rational_vectors(draw, dim):
    """A vector of dimension ``dim``: Fraction-built, or :meth:`from_ints` of
    its integer form times a random factor, so the form arrives unreduced."""
    values = draw(st.one_of(st.just([Fraction(0)] * dim), st.lists(_ENTRIES, min_size=dim, max_size=dim)))
    if draw(st.booleans()):
        return RationalVector(values)
    ints, scale = integer_form(values)
    factor = draw(st.sampled_from([1, 1, 2, 6, 10007]))
    return RationalVector.from_ints(tuple(k * factor for k in ints), scale * factor)


def _canonical(vec: RationalVector) -> bool:
    return vec.integer_form == integer_form(vec.entries)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.integers(0, 6).flatmap(lambda n: st.tuples(*[rational_vectors(n)] * 3)), st.data())
def test_integer_form_arithmetic_matches_fraction_reference(vectors, data):
    """+, -, negation, scale, dot and matvec equal the entry-by-entry
    Fraction computation, and every result carries the canonical integer form
    (scale the lcm of the denominators) that ``_vector_json`` and
    ``primitive`` read."""
    a, b, c = vectors
    x, y = a.entries, b.entries
    factor = data.draw(st.one_of(st.just(0), _ENTRIES, st.sampled_from(["-3/7", "5"])))
    results = [
        (a + b, [p + q for p, q in zip(x, y)]),
        (a - b, [p - q for p, q in zip(x, y)]),
        (-a, [-p for p in x]),
        (a.scale(factor), [rational(factor) * p for p in x]),
        (matrix([b, c], len(x)).matvec(a), [sum((p * q for p, q in zip(r, x)), Fraction(0)) for r in (b, c)]),
        (combination([rational(factor), 2], [b, c], len(x)), [rational(factor) * p + 2 * q for p, q in zip(y, c.entries)]),
    ]
    for result, reference in results:
        assert _canonical(result) and result.entries == tuple(reference)
        assert result == RationalVector(reference) and hash(result) == hash(RationalVector(reference))
    assert a.dot(b) == sum((p * q for p, q in zip(x, y)), Fraction(0))
    assert (a == b) == (x == y) and _canonical(a) and _canonical(b)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.integers(0, 6).flatmap(rational_vectors))
def test_strings_read_back_to_the_same_vector(vec):
    """A vector's strings are the grammar's: read back, they give an equal
    vector with the same integer form and dimension; ``_vector_json`` hands
    out an equal but distinct list of them on every call."""
    back = read_vector(list(vec.strings))
    assert back == vec and back.integer_form == vec.integer_form and back.dim == vec.dim == len(vec.entries)
    first, second = _vector_json(vec), _vector_json(vec)
    assert first == second == list(vec.strings) and first is not second


@pytest.mark.parametrize("longer", [vector(1, "1/2", 3), RationalVector.from_ints((2, 0, 4), 3)])
@pytest.mark.parametrize("shorter", [vector("2/3", 1), RationalVector.from_ints((1, -1))])
def test_integer_form_arithmetic_checks_dimensions(longer, shorter):
    """No integer sum truncates to the shorter operand."""
    for operation in (
        lambda: longer + shorter,
        lambda: shorter + longer,
        lambda: longer - shorter,
        lambda: shorter - longer,
        lambda: longer.dot(shorter),
        lambda: shorter.dot(longer),
        lambda: matrix([longer]).matvec(shorter),
        lambda: matrix([shorter]).matvec(longer),
        lambda: combination([1, 1], [longer, shorter], 3),
        lambda: combination([1, 1], [longer, longer], 2),
        lambda: combination([1], [longer, longer], 3),
    ):
        with pytest.raises(DimensionMismatchError):
            operation()


def test_symmetry_reads_integer_forms():
    assert matrix([["1/2", "2/3", 0], ["2/3", 5, "-7/10007"], [0, "-7/10007", 1]]).is_symmetric()
    assert not matrix([["1/2", "2/3"], ["2/6", 5]]).is_symmetric()
    assert not matrix([["1/2", "2/3"], ["4/3", 5]]).is_symmetric()
    assert not matrix([[1, 2, 3], [2, 1, 3]]).is_symmetric()


def test_matrix_basics():
    m = matrix([[1, 2], [3, 4]])
    assert m.matvec(vector(1, 1)).entries == (Fraction(3), Fraction(7))
    assert transpose(m).rows[0].entries == (Fraction(1), Fraction(3))
    assert not m.is_symmetric()
    assert matrix([[1, 2], [2, 5]]).is_symmetric()
    empty = RationalMatrix([], 3)
    assert (empty.nrows, empty.ncols) == (0, 3)
    assert empty.matvec(vector(1, 2, 3)).dim == 0


def test_matrix_equality_hash_and_immutability():
    """Matrices are equal, and hash equal, exactly when their rows and width
    are; no attribute can be assigned."""
    m = matrix([["1/2", 2], [3, 4]])
    same = RationalMatrix([RationalVector.from_ints((1, 4), 2), vector(3, 4)])
    assert m == same and hash(m) == hash(same) and len({m, same}) == 1
    assert m != matrix([[1, 2], [3, 4]]) and m != m.rows
    assert RationalMatrix([], 2) != RationalMatrix([], 3)
    for name, value in (("rows", ()), ("ncols", 3), ("extra", 0)):
        with pytest.raises(AttributeError):
            setattr(m, name, value)
    assert m.integer_form == (((1, 4), (6, 8)), 2) and m == same


def test_rref_and_kernel():
    m = matrix([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    rows, pivots = rref(m)
    assert pivots == [0, 2]
    basis = kernel_basis(m)
    assert len(basis) == 1
    for b in basis:
        assert m.matvec(b).is_zero()
    rows_basis = row_space_basis(m)
    assert len(rows_basis) == 2


def test_solve_linear():
    m = matrix([[2, 0], [0, 4]])
    x = solve_linear(m, vector(1, 2))
    assert x.entries == (Fraction(1, 2), Fraction(1, 2))
    inconsistent = solve_linear(matrix([[1, 1], [1, 1]]), vector(0, 1))
    assert inconsistent is None
    underdetermined = solve_linear(matrix([[1, 1]]), vector(3))
    assert underdetermined is not None
    assert underdetermined[0] + underdetermined[1] == 3


@st.composite
def kernel_inputs(draw):
    """0-4 rows of width 1-6, with some zero rows and some rows that are
    combinations of earlier ones."""
    ncols = draw(st.integers(1, 6))
    entry = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2, 3)))
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(("random", "zero", "combination")))
        if kind == "zero":
            rows.append(RationalVector.zero(ncols))
        elif kind == "combination" and rows:
            a, b = draw(entry), draw(entry)
            rows.append(rows[0].scale(a) + rows[-1].scale(b))
        else:
            rows.append(RationalVector(draw(st.lists(entry, min_size=ncols, max_size=ncols))))
    return RationalMatrix(rows, ncols)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(kernel_inputs())
def test_kernel_basis_is_a_primitive_integer_basis(mat):
    basis = kernel_basis(mat)
    assert len(basis) == mat.ncols - len(row_space_basis(mat))
    for k in basis:
        assert mat.matvec(k).is_zero()
        assert k.integer_form[1] == 1 and k.primitive() == k and not k.is_zero()
    # independent: the basis has full row rank
    if basis:
        assert len(row_space_basis(RationalMatrix(basis, mat.ncols))) == len(basis)


def fraction_rref(rows: list[list[Fraction]], ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reference Gauss-Jordan elimination in `Fraction`s, pivoting on the
    first nonzero entry scanning rows top to bottom, columns left to right."""
    rows = [list(r) for r in rows]
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        rows[r] = [a / pv for a in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


@settings(derandomize=True, deadline=None, max_examples=300)
@given(kernel_inputs(), st.data())
def test_integer_elimination_matches_fraction_reference(mat, data):
    """rref, row_space_basis, kernel_basis and solve_linear, which eliminate
    the rows' integer forms, give the `Fraction` reference's outputs entry
    by entry."""
    expected_rows, pivots = fraction_rref([list(r.entries) for r in mat.rows], mat.ncols)
    rows, got_pivots = rref(mat)
    assert got_pivots == pivots and rows == expected_rows
    assert all(isinstance(a, Fraction) for row in rows for a in row)
    assert row_space_basis(mat) == tuple(RationalVector(expected_rows[i]) for i in range(len(pivots)))
    expected_kernel = []
    for free in sorted(set(range(mat.ncols)) - set(pivots)):
        v = [Fraction(0)] * mat.ncols
        v[free] = Fraction(1)
        for row, pc in zip(expected_rows, pivots):
            v[pc] = -row[free]
        expected_kernel.append(RationalVector(v).primitive())
    assert kernel_basis(mat) == tuple(expected_kernel)

    entry = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2, 3)))
    rhs = RationalVector(data.draw(st.lists(entry, min_size=mat.nrows, max_size=mat.nrows)))
    augmented, pivots = fraction_rref([list(r.entries) + [b] for r, b in zip(mat.rows, rhs)], mat.ncols + 1)
    solution = solve_linear(mat, rhs)
    if mat.ncols in pivots:
        assert solution is None
    else:
        expected = [Fraction(0)] * mat.ncols
        for row, pc in zip(augmented, pivots):
            expected[pc] = row[mat.ncols]
        assert solution == RationalVector(expected)
