import json
import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cone_audit.errors import ProblemFormatError
from cone_audit.linalg import RationalVector, integer_form, vector
from cone_audit.problem import parse_problem, parse_problem_dict


def orthant_qp_text():
    return json.dumps(
        {
            "version": "1",
            "constraint": {
                "type": "polyhedron",
                "dimension": 2,
                "inequalities": {"rows": [[-1, 0], [0, -1]], "bounds": [0, 0]},
            },
            "objective": {
                "type": "quadratic",
                "matrix": [["1", "0"], ["0", "1"]],
                "linear": ["0", "0"],
            },
            "query": {"point": ["0", "0"], "regime": "exact"},
        }
    )


def test_minimal_orthant_qp_file():
    problem = parse_problem(orthant_qp_text())
    assert problem.polyhedron.dim == 2
    assert problem.polyhedron.ineq_matrix.nrows == 2
    assert problem.quadratic is not None
    assert problem.query.point == (Fraction(0), Fraction(0))
    assert RationalVector(problem.query.point) == vector(0, 0)
    assert problem.source["query"] == {"point": ["0", "0"], "regime": "exact"}
    shown = repr(problem)
    assert shown.startswith("ProblemFile(polyhedron=") and shown.endswith(")")
    assert "source" not in shown and "query=Query(point=" in shown


def test_invalid_rational_reported():
    text = orthant_qp_text().replace('"1", "0"', '"1/0", "0"', 1)
    with pytest.raises(ProblemFormatError) as info:
        parse_problem(text)
    assert any("invalid rational" in e for e in info.value.errors)


def test_fixture_with_float_point():
    text = json.dumps(
        {
            "version": "1",
            "constraint": {"type": "fixture", "name": "ex31"},
            "query": {"point": [1.7320508, 0], "regime": "float"},
        }
    )
    problem = parse_problem(text)
    assert problem.query.regime == "float"
    assert problem.fixture.name == "ex31"
    assert math.isclose(problem.query.point_floats()[0], 1.7320508)


def test_floats_rejected_in_exact_regime():
    data = json.loads(orthant_qp_text())
    data["query"]["point"] = [0.5, 0]
    with pytest.raises(ProblemFormatError) as info:
        parse_problem(json.dumps(data))
    assert any("floats are not allowed" in e for e in info.value.errors)


def test_unknown_fields_rejected():
    data = json.loads(orthant_qp_text())
    data["extra"] = 1
    data["query"]["surprise"] = True
    with pytest.raises(ProblemFormatError) as info:
        parse_problem(json.dumps(data))
    messages = "\n".join(info.value.errors)
    assert "unknown field 'extra'" in messages
    assert "unknown field 'surprise'" in messages


def test_all_errors_collected():
    data = json.loads(orthant_qp_text())
    data["version"] = "2"
    data["query"]["regime"] = "quantum"
    data["objective"]["matrix"] = [["1", "2"], ["0", "1"]]  # not symmetric
    with pytest.raises(ProblemFormatError) as info:
        parse_problem(json.dumps(data))
    assert len(info.value.errors) >= 3


def test_dimension_consistency():
    data = json.loads(orthant_qp_text())
    data["query"]["point"] = ["0", "0", "0"]
    with pytest.raises(ProblemFormatError) as info:
        parse_problem(json.dumps(data))
    assert any("expected 2" in e for e in info.value.errors)

    data = json.loads(orthant_qp_text())
    data["objective"]["matrix"] = [["1"]]
    data["objective"]["linear"] = ["0"]
    with pytest.raises(ProblemFormatError) as info:
        parse_problem(json.dumps(data))
    assert any("does not match constraint dimension" in e for e in info.value.errors)


def test_unknown_fixture_name():
    text = json.dumps(
        {
            "version": "1",
            "constraint": {"type": "fixture", "name": "ex99"},
            "query": {"point": [0.0], "regime": "float"},
        }
    )
    with pytest.raises(ProblemFormatError) as info:
        parse_problem(text)
    assert any("unknown fixture name" in e for e in info.value.errors)


def test_fixture_point_default():
    text = json.dumps(
        {
            "version": "1",
            "constraint": {"type": "fixture", "name": "ex32"},
            "query": {"regime": "float"},
        }
    )
    problem = parse_problem(text)
    assert problem.query.point_floats() == (-1.0, 0.0)


def test_not_json():
    with pytest.raises(ProblemFormatError) as info:
        parse_problem("not json {")
    assert any("not valid JSON" in e for e in info.value.errors)


def test_nonfinite_floats_rejected():
    # the stdlib JSON parser accepts NaN/Infinity literals; the schema must not
    text = """{
      "version": "1",
      "constraint": {"type": "fixture", "name": "ex41"},
      "query": {"point": [NaN], "regime": "float"}
    }"""
    with pytest.raises(ProblemFormatError) as info:
        parse_problem(text)
    assert any("finite" in e for e in info.value.errors)


def test_z_candidate_scalars_coerced():
    text = json.dumps(
        {
            "version": "1",
            "constraint": {"type": "fixture", "name": "ex41"},
            "query": {
                "point": [0.0],
                "directions": [[1.0]],
                "z_candidates": [-1.0, [0.5]],
                "regime": "float",
            },
        }
    )
    problem = parse_problem(text)
    assert problem.query.z_candidates == ((-1.0,), (0.5,))


def ex41_query(**fields):
    query = {"point": [0.0], "directions": [[1.0]], "regime": "float"}
    query.update(fields)
    return {"version": "1", "constraint": {"type": "fixture", "name": "ex41"}, "query": query}


@pytest.mark.parametrize("key", ["directions", "z_candidates"])
@pytest.mark.parametrize("value", [5, "1", True, {"a": 1}])
def test_non_list_query_fields_rejected(key, value):
    with pytest.raises(ProblemFormatError) as info:
        parse_problem_dict(ex41_query(**{key: value}))
    assert info.value.errors == [f"$.query.{key}: expected a list"]


def test_z_candidates_of_the_wrong_length_rejected():
    with pytest.raises(ProblemFormatError) as info:
        parse_problem_dict(ex41_query(z_candidates=[-1.0, [0.5, 2.0], [], [1.5]]))
    assert info.value.errors == [
        "$.query.z_candidates[1]: candidate has 2 entries, expected 1",
        "$.query.z_candidates[2]: candidate has 0 entries, expected 1",
    ]


@pytest.mark.parametrize("text", ["Infinity", "-Infinity", "NaN", "0", "-1", "1" + "0" * 400])
def test_non_finite_or_non_positive_tolerance_rejected(text):
    problem = json.dumps(ex41_query()).replace('"regime"', f'"tolerance": {text}, "regime"')
    with pytest.raises(ProblemFormatError) as info:
        parse_problem(problem)
    assert info.value.errors == ["$.query.tolerance: expected a positive finite number"]


def _paths(value, prefix=()):
    """Every key path into a JSON document, the document itself first."""
    yield prefix
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _replaced(document, path, new):
    if not path:
        return new
    copy = json.loads(json.dumps(document))
    parent = copy
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    return copy


FUZZ_BASES = (
    json.loads(orthant_qp_text()),
    {
        "version": "1",
        "constraint": {
            "type": "polyhedron",
            "dimension": 2,
            "equalities": {"matrix": [["1", "-1"]], "rhs": ["0"]},
            "inequalities": {"rows": [["-1", "0"]], "bounds": ["0"]},
        },
        "objective": {"type": "fixture", "name": "ex32"},
        "query": {"point": ["0", "0"], "directions": [["1", "1"]], "z_candidates": [["1", "0"]],
                  "regime": "exact", "tolerance": 1e-9},
    },
    ex41_query(z_candidates=[-1.0, [0.5]], tolerance=1e-6),
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10**400) | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)


@settings(derandomize=True, deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.too_slow])
@given(json_values)
def test_parser_raises_only_schema_errors(value):
    """Any field of a valid problem replaced by any JSON value (NaN, Infinity
    and integers beyond float range included) parses or raises
    ProblemFormatError, nothing else."""
    for base in FUZZ_BASES:
        for path in _paths(base):
            try:
                parse_problem_dict(_replaced(base, path, value))
            except ProblemFormatError:
                pass


row_entries = (
    st.text(st.sampled_from(" +-0123456789/,_\n\uff13"), max_size=5)
    | st.from_regex(r"[+-]?[0-9]{1,3}(/[0-9]{1,3})?", fullmatch=True)
    | st.integers()
    | st.booleans()
    | st.floats()
    | st.just("1" * 5000)
)


def _grammar_reference(value) -> Fraction:
    """The exact grammar by hand, without a regex: a JSON integer (not a
    bool), or a string of an optional sign, ASCII digits and optionally a
    slash and more ASCII digits, not all zero; ValueError with the schema's
    message otherwise."""
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, float):
        raise ValueError("floats are not allowed in exact rational data")
    if not isinstance(value, str):
        raise ValueError(f"invalid rational: {value!r}")
    numerator, slash, denominator = value.partition("/")
    digits = numerator[1:] if numerator[:1] in ("+", "-") else numerator
    for part in (digits, denominator) if slash else (digits,):
        if not part or any(c not in "0123456789" for c in part):
            raise ValueError(f"invalid rational: {value!r}")
    if slash and not any(c != "0" for c in denominator):
        raise ValueError(f"invalid rational (zero denominator): {value!r}")
    return Fraction(int(numerator), int(denominator) if slash else 1)


def _by_reference(values, path):
    """The entries, or the schema errors, that the reference reads."""
    entries, errors = [], []
    for i, value in enumerate(values):
        try:
            entries.append(_grammar_reference(value))
        except ValueError as exc:
            errors.append(f"{path}[{i}]: {exc}")
    return entries, errors


@settings(derandomize=True, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(row_entries, min_size=1, max_size=4), row_entries)
def test_rows_read_as_the_grammar_reference_reads_them(row, bound):
    """Rows and bounds parse to the reference's values, with canonical
    integer forms, or fail with the schema errors it names, entry by entry."""
    problem = {
        "version": "1",
        "constraint": {"type": "polyhedron", "dimension": len(row),
                       "inequalities": {"rows": [row], "bounds": [bound]}},
        "query": {"point": ["0"] * len(row), "regime": "exact"},
    }
    row_values, row_errors = _by_reference(row, "$.constraint.inequalities.rows[0]")
    bound_values, bound_errors = _by_reference([bound], "$.constraint.inequalities.bounds")
    try:
        polyhedron = parse_problem_dict(problem).polyhedron
    except ProblemFormatError as exc:
        assert exc.errors == row_errors + bound_errors
        return
    assert not row_errors + bound_errors
    for vector, entries in ((polyhedron.ineq_matrix.rows[0], row_values), (polyhedron.ineq_rhs, bound_values)):
        assert vector.entries == tuple(entries)
        assert vector.integer_form == integer_form(entries)
