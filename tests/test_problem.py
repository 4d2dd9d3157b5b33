import json
import math
from fractions import Fraction

import pytest

from cone_audit.errors import ProblemFormatError
from cone_audit.problem import parse_problem


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
    assert problem.dimension == 2
    assert problem.polyhedron.ineq_matrix.nrows == 2
    assert problem.quadratic is not None
    assert problem.query.point_rational().entries == (Fraction(0), Fraction(0))


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
