"""Problem-file parsing: a strict, versioned JSON schema.

A problem file describes one analysis: a constraint set (an explicit
polyhedron with rational entries, or a named fixture), an optional
objective (explicit quadratic data, or a fixture), and a query block with
the candidate point, optional directions and candidate z vectors, the
arithmetic regime, and tolerances.

The schema is strict: unknown fields are rejected, and floats are accepted
only inside query blocks of float-regime files.  An exact entry is a JSON
integer (not a bool) or an ASCII string ``[+-]?[0-9]+(/[0-9]+)?`` with a
nonzero denominator, such as "-2/3": no space, decimal point, exponent or
non-ASCII digit.  :func:`linalg.read_vector` is that grammar's one reader,
and ``verify`` reads a report's exact entries by it too.  Validation
reports every error found, not just the first.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from typing import NamedTuple

from .errors import ProblemFormatError
from .geometry import Polyhedron
from .linalg import RationalMatrix, RationalVector, rational, read_vector
from .objectives import (
    DEFAULT_FLOAT_TOL,
    ExampleFixture,
    FIXTURE_NAMES,
    QuadraticObjective,
    SmoothObjective,
    fixture,
)

SCHEMA_VERSION = "1"

_TOP_KEYS = {"version", "description", "constraint", "objective", "query"}
_CONSTRAINT_KEYS = {"type", "dimension", "equalities", "inequalities", "name"}
_OBJECTIVE_KEYS = {"type", "matrix", "linear", "constant", "name"}
_QUERY_KEYS = {"point", "directions", "z_candidates", "regime", "tolerance"}
# the polyhedron's two row blocks: key, rows field, right-hand-side field and noun
_ROW_BLOCKS = (("equalities", "matrix", "rhs", "right-hand sides"), ("inequalities", "rows", "bounds", "bounds"))


class Query(NamedTuple):
    point: tuple | None
    directions: tuple[tuple, ...]
    z_candidates: tuple[tuple, ...]
    regime: str
    tolerance: float

    def point_floats(self) -> tuple[float, ...]:
        return tuple(float(a) for a in self.point)

    def point_rational(self) -> RationalVector:
        return RationalVector([Fraction(a) for a in self.point])


class ProblemFile(NamedTuple):
    """A validated problem description, ready to analyze.  A fixture is
    resolved: ``polyhedron`` is the explicit polyhedron or the fixture's
    (None for a smooth level set), and the query holds the fixture's
    default point and direction where the file gives none."""

    polyhedron: Polyhedron | None
    fixture: ExampleFixture | None
    quadratic: QuadraticObjective | None
    query: Query
    source: dict

    def __repr__(self) -> str:  # every field but the echoed source document
        return "ProblemFile(" + ", ".join(f"{k}={v!r}" for k, v in zip(self._fields[:-1], self)) + ")"

    def smooth_objective(self) -> SmoothObjective | None:
        if self.quadratic is not None:
            return self.quadratic.as_smooth()
        return self.fixture.objective if self.fixture is not None else None


class _Validator:
    def __init__(self):
        self.errors: list[str] = []

    def error(self, path: str, message: str) -> None:
        self.errors.append(f"{path}: {message}")

    def require_keys(self, obj: dict, allowed: set[str], path: str) -> None:
        for key in obj:
            if key not in allowed:
                self.error(path, f"unknown field {key!r}")

    def numeric_entry(self, value, path: str, regime: str = "exact"):
        """A number: rational in exact regime, a finite float otherwise."""
        try:
            if regime == "exact":
                return rational(value)
            if isinstance(value, bool) or not isinstance(value, (int, float, str)):
                raise ValueError(f"invalid number: {value!r}")
            number = float(rational(value) if isinstance(value, str) else value)
            # the stdlib JSON parser admits NaN/Infinity literals
            if not math.isfinite(number):
                raise ValueError("numbers must be finite")
            return number
        except (ValueError, OverflowError) as exc:
            self.error(path, str(exc))
            return None

    def rational_vector(self, values, path: str, expected_len: int | None = None):
        if not isinstance(values, list):
            self.error(path, "expected a list")
            return None
        if expected_len is not None and len(values) != expected_len:
            self.error(path, f"expected {expected_len} entries, got {len(values)}")
            return None
        try:
            return read_vector(values)
        except ValueError as exc:
            for i, message in exc.args:
                self.error(f"{path}[{i}]", message)
            return None

    def rational_matrix(self, values, path: str, width: int | None = None):
        if not isinstance(values, list):
            self.error(path, "expected a list of rows")
            return None
        rows = []
        for i, row in enumerate(values):
            vec = self.rational_vector(row, f"{path}[{i}]", width)
            if vec is None:
                return None
            rows.append(vec)
            width = vec.dim  # the first row's, which every later row is checked against
        if width is None:
            self.error(path, "cannot infer row width from an empty matrix")
            return None
        return RationalMatrix(rows, width)


def parse_problem(text: str) -> ProblemFile:
    """Parse and validate a problem file; raises :class:`ProblemFormatError`
    carrying every schema error found."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, or an int too long
        raise ProblemFormatError([f"not valid JSON: {exc}"]) from None
    return parse_problem_dict(data)


def parse_problem_dict(data) -> ProblemFile:
    v = _Validator()
    if not isinstance(data, dict):
        raise ProblemFormatError(["top level must be a JSON object"])
    v.require_keys(data, _TOP_KEYS, "$")

    version = data.get("version")
    if version != SCHEMA_VERSION:
        v.error("$.version", f"expected {SCHEMA_VERSION!r}, got {version!r}")
    if not isinstance(data.get("description", ""), str):
        v.error("$.description", "expected a string")

    # ---- query block (parsed first: the regime gates number parsing) ----
    query_data = data.get("query")
    regime = "exact"
    tolerance = DEFAULT_FLOAT_TOL
    point = None
    directions: list[tuple] = []
    z_candidates: list[tuple] = []
    if not isinstance(query_data, dict):
        v.error("$.query", "required object is missing")
    else:
        v.require_keys(query_data, _QUERY_KEYS, "$.query")
        regime = query_data.get("regime")
        if regime not in ("exact", "float"):
            v.error("$.query.regime", f"expected 'exact' or 'float', got {regime!r}")
            regime = "exact"
        raw_tol = query_data.get("tolerance", DEFAULT_FLOAT_TOL)
        if (
            not isinstance(raw_tol, (int, float))
            or isinstance(raw_tol, bool)
            or not 0 < raw_tol <= sys.float_info.max
        ):
            v.error("$.query.tolerance", "expected a positive finite number")
        else:
            tolerance = float(raw_tol)
        if "point" in query_data:
            point = _numeric_tuple(v, query_data["point"], "$.query.point", regime)
        for key, parsed_list in (("directions", directions), ("z_candidates", z_candidates)):
            values = query_data.get(key)
            if values is not None and not isinstance(values, list):
                v.error(f"$.query.{key}", "expected a list")
                continue
            for i, value in enumerate(values or ()):
                if key == "z_candidates" and isinstance(value, (int, float, str)) and not isinstance(value, bool):
                    value = [value]
                parsed = _numeric_tuple(v, value, f"$.query.{key}[{i}]", regime)
                if parsed is not None:
                    parsed_list.append(parsed)

    # ---- constraint block ----
    constraint = data.get("constraint")
    constraint_kind = None
    polyhedron = None
    fixture_obj = None
    if not isinstance(constraint, dict):
        v.error("$.constraint", "required object is missing")
    else:
        v.require_keys(constraint, _CONSTRAINT_KEYS, "$.constraint")
        constraint_kind = constraint.get("type")
        if constraint_kind == "polyhedron":
            polyhedron = _parse_polyhedron(v, constraint)
        elif constraint_kind == "fixture":
            fixture_obj = _parse_fixture(v, constraint.get("name"), "$.constraint.name")
            for key in ("dimension", "equalities", "inequalities"):
                if key in constraint:
                    v.error(f"$.constraint.{key}", "not allowed for a fixture constraint")
        else:
            v.error("$.constraint.type", f"expected 'polyhedron' or 'fixture', got {constraint_kind!r}")

    # ---- objective block ----
    objective = data.get("objective")
    objective_kind = None
    quadratic = None
    if objective is not None:
        if not isinstance(objective, dict):
            v.error("$.objective", "expected an object")
        else:
            v.require_keys(objective, _OBJECTIVE_KEYS, "$.objective")
            objective_kind = objective.get("type")
            if objective_kind == "quadratic":
                quadratic = _parse_quadratic(v, objective)
            elif objective_kind == "fixture":
                fx = _parse_fixture(v, objective.get("name"), "$.objective.name")
                if fx is not None:
                    if fixture_obj is not None and fx.name != fixture_obj.name:
                        v.error("$.objective.name", "objective fixture differs from constraint fixture")
                    fixture_obj = fixture_obj or fx
            else:
                v.error("$.objective.type", f"expected 'quadratic' or 'fixture', got {objective_kind!r}")

    # ---- cross-field consistency ----
    dimension = None
    if polyhedron is not None:
        dimension = polyhedron.dim
        if fixture_obj is not None and fixture_obj.dimension != dimension:
            v.error(
                "$.objective.name",
                f"fixture dimension {fixture_obj.dimension} does not match "
                f"constraint dimension {dimension}",
            )
    elif fixture_obj is not None:
        dimension = fixture_obj.dimension
    if quadratic is not None and dimension is not None and quadratic.dim != dimension:
        v.error("$.objective.matrix", f"objective dimension {quadratic.dim} does not match constraint dimension {dimension}")
    if point is not None and dimension is not None and len(point) != dimension:
        v.error("$.query.point", f"point has {len(point)} entries, expected {dimension}")
    if dimension is not None:
        for key, name, vectors in (("directions", "direction", directions),
                                   ("z_candidates", "candidate", z_candidates)):
            for i, d in enumerate(vectors):
                if len(d) != dimension:
                    v.error(f"$.query.{key}[{i}]", f"{name} has {len(d)} entries, expected {dimension}")
    if fixture_obj is not None:
        # the fixture's point, direction and polyhedron fill what the file leaves out
        number = float if regime == "float" else Fraction
        if point is None:
            point = tuple(map(number, fixture_obj.candidate_point))
        if not directions:
            directions.append(tuple(map(number, fixture_obj.default_direction)))
        if polyhedron is None:
            polyhedron = fixture_obj.polyhedron
    if point is None:
        v.error("$.query.point", "required (no fixture default available)")

    if v.errors:
        raise ProblemFormatError(v.errors)

    return ProblemFile(
        polyhedron=polyhedron,
        fixture=fixture_obj,
        quadratic=quadratic,
        query=Query(
            point=point,
            directions=tuple(directions),
            z_candidates=tuple(z_candidates),
            regime=regime,
            tolerance=tolerance,
        ),
        source=data,
    )


def _numeric_tuple(v: _Validator, values, path: str, regime: str):
    if not isinstance(values, list):
        v.error(path, "expected a list of numbers")
        return None
    if regime == "exact":
        vector = v.rational_vector(values, path)
        return None if vector is None else vector.entries
    parsed = [v.numeric_entry(a, f"{path}[{i}]", regime) for i, a in enumerate(values)]
    return None if any(p is None for p in parsed) else tuple(parsed)


def _parse_polyhedron(v: _Validator, block: dict) -> Polyhedron | None:
    dimension = block.get("dimension")
    if not isinstance(dimension, int) or isinstance(dimension, bool) or dimension < 1:
        v.error("$.constraint.dimension", "expected a positive integer")
        return None
    blocks = []
    for key, rows_key, rhs_key, noun in _ROW_BLOCKS:
        path = f"$.constraint.{key}"
        sub = block.get(key, {})
        if not isinstance(sub, dict):
            v.error(path, "expected an object")
            return None
        v.require_keys(sub, {rows_key, rhs_key}, path)
        matrix = v.rational_matrix(sub.get(rows_key, []), f"{path}.{rows_key}", dimension)
        rhs = v.rational_vector(sub.get(rhs_key, []), f"{path}.{rhs_key}")
        if matrix is None or rhs is None:
            return None
        if matrix.nrows != rhs.dim:
            v.error(path, f"{matrix.nrows} rows but {rhs.dim} {noun}")
            return None
        blocks += (matrix, rhs)
    return Polyhedron(dimension, *blocks)


def _parse_fixture(v: _Validator, name, path: str) -> ExampleFixture | None:
    if not isinstance(name, str) or name not in FIXTURE_NAMES:
        v.error(path, f"unknown fixture name {name!r}; available: {', '.join(FIXTURE_NAMES)}")
        return None
    return fixture(name)


def _parse_quadratic(v: _Validator, block: dict) -> QuadraticObjective | None:
    mat = v.rational_matrix(block.get("matrix"), "$.objective.matrix")
    if mat is None:
        return None
    linear = v.rational_vector(block.get("linear", [0] * mat.ncols), "$.objective.linear", mat.ncols)
    constant = v.numeric_entry(block.get("constant", 0), "$.objective.constant")
    if linear is None or constant is None:
        return None
    if mat.nrows != mat.ncols:
        v.error("$.objective.matrix", "must be square")
        return None
    if not mat.is_symmetric():
        v.error("$.objective.matrix", "must be exactly symmetric")
        return None
    return QuadraticObjective(mat, linear, constant)
