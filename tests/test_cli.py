import enum
import json
import math
import os
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from cone_audit import cli, geometry, lp, objectives, optimality
from cone_audit.analysis import revalidate_report, run_analysis
from cone_audit.cli import _render_json, main
from cone_audit.linalg import RationalMatrix, RationalVector
from cone_audit.problem import parse_problem
from cone_audit.ssd import theorem41_check

from conftest import random_feasible_polyhedron, random_vector, small_fraction

PROBLEMS = os.path.join(os.path.dirname(__file__), "..", "problems")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_qp_command_all_hold(capsys):
    code, out, _ = run_cli(
        capsys, "qp", "--input", os.path.join(PROBLEMS, "orthant_qp.json")
    )
    assert code == 0
    assert "QP_c0: HOLDS" in out
    assert "QP_c2p: HOLDS" in out
    assert "checked critical directions: none enumerated: (c2') certified on ker E" in out


def test_second_order_command_exit_one(capsys):
    code, out, _ = run_cli(
        capsys,
        "second-order",
        "--input",
        os.path.join(PROBLEMS, "ex31_second_order.json"),
    )
    assert code == 1
    assert "Classical32: HOLDS" in out
    assert "C2: FAILS" in out


def test_theorem41_command(capsys):
    code, out, _ = run_cli(
        capsys, "theorem41", "--input", os.path.join(PROBLEMS, "ex41_theorem41.json")
    )
    assert code == 1
    assert "HypothesisViolated" in out
    assert "-1.0 -> FAILS" in out


def test_json_reports_reproducible(tmp_path, capsys):
    path = os.path.join(PROBLEMS, "ex31_second_order.json")
    code1, out1, _ = run_cli(capsys, "second-order", "--input", path, "--format", "json")
    code2, out2, _ = run_cli(capsys, "second-order", "--input", path, "--format", "json")
    first = json.loads(out1)
    second = json.loads(out2)
    first.pop("timestamp")
    second.pop("timestamp")
    assert first == second
    assert code1 == code2 == 1
    # the report round-trips losslessly through JSON
    assert json.loads(json.dumps(first)) == first


def test_schema_errors_exit_three(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": "7"}')
    code, _, err = run_cli(capsys, "qp", "--input", str(bad))
    assert code == 3
    assert "schema error" in err


def test_command_mismatch_exit_three(tmp_path, capsys):
    problem = {
        "version": "1",
        "constraint": {"type": "fixture", "name": "ex31"},
        "query": {"regime": "float"},
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(problem))
    code, _, err = run_cli(capsys, "qp", "--input", str(path))
    assert code == 3
    assert "hint" in err


_HALF_PLANE = {"type": "polyhedron", "dimension": 2, "inequalities": {"rows": [["-1", "0"]], "bounds": ["0"]}}
_AT_ORIGIN = {"regime": "exact", "point": ["0", "0"]}


@pytest.mark.parametrize(
    "command, constraint, objective, query, line",
    [
        ("second-order", _HALF_PLANE, None, {**_AT_ORIGIN, "directions": [["0", "1"]]},
         "error: this command needs an objective (hint: add an objective block (quadratic data or a fixture name))"),
        ("qp", {"type": "fixture", "name": "ex32"}, {"type": "quadratic", "matrix": [["1", "0"], ["0", "1"]]},
         {"regime": "exact", "point": ["-1", "0"]},
         "error: the qp command needs a polyhedral constraint set (hint: use constraint.type = 'polyhedron')"),
        ("ssd", {"type": "fixture", "name": "ex41"}, None, {"regime": "float", "point": [0.0], "directions": [[1.0]]},
         "error: the ssd command needs candidate z values (hint: add query.z_candidates to the problem file)"),
        ("qp", {"type": "fixture", "name": "ex41", "dimension": 1}, None, {"regime": "float"},
         "schema error: $.constraint.dimension: not allowed for a fixture constraint"),
        ("qp", {"type": "fixture", "name": "ex41"}, {"type": "fixture", "name": "ex31"}, {"regime": "float"},
         "schema error: $.objective.name: objective fixture differs from constraint fixture"),
        ("qp", _HALF_PLANE, {"type": "fixture", "name": "ex41"}, _AT_ORIGIN,
         "schema error: $.objective.name: fixture dimension 1 does not match constraint dimension 2"),
        ("qp", _HALF_PLANE, {"type": "quadratic", "matrix": [["1", "0"]]}, _AT_ORIGIN,
         "schema error: $.objective.matrix: must be square"),
    ],
    ids=["no-objective", "qp-on-a-level-set", "ssd-without-z", "fixture-with-dimension",
         "two-fixtures", "fixture-dimension", "non-square-matrix"],
)
def test_usage_and_schema_errors_exit_three_with_one_line(tmp_path, capsys, command, constraint, objective, query, line):
    problem = {"version": "1", "constraint": constraint, "query": query}
    if objective is not None:
        problem["objective"] = objective
    path = tmp_path / "p.json"
    path.write_text(json.dumps(problem))
    code, _, err = run_cli(capsys, command, "--input", str(path))
    assert (code, err.splitlines()) == (3, [line])


def test_missing_file_exit_three(capsys):
    code, _, err = run_cli(capsys, "qp", "--input", "/nonexistent/x.json")
    assert code == 3


def test_verify_subcommand(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        "qp",
        "--input",
        os.path.join(PROBLEMS, "orthant_qp.json"),
        "--format",
        "json",
    )
    report_path.write_text(out)
    code, out, _ = run_cli(capsys, "verify", "--input", str(report_path))
    assert code == 0
    assert "verification passed" in out


def test_verify_exact_non_dyadic_point(tmp_path, capsys):
    # x = (1/3, 0) sits on the row -x1 <= -1/3, which a binary64 rounding
    # of 1/3 would leave; verify must re-read the point exactly
    problem = {
        "version": "1",
        "constraint": {
            "type": "polyhedron",
            "dimension": 2,
            "inequalities": {"rows": [["-1", "0"], ["0", "-1"]], "bounds": ["-1/3", "0"]},
        },
        "objective": {
            "type": "quadratic",
            "matrix": [["1", "0"], ["0", "1"]],
            "linear": ["0", "0"],
        },
        "query": {"point": ["1/3", "0"], "regime": "exact"},
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(problem))
    code, out, _ = run_cli(capsys, "qp", "--input", str(path), "--format", "json")
    assert code == 0
    report_path = tmp_path / "report.json"
    report_path.write_text(out)
    code, out, err = run_cli(capsys, "verify", "--input", str(report_path))
    assert code == 0, err
    assert "verification passed" in out


# The ex31 objective (evaluated in float) over an exact triangle: x = (1/3, 2/3)
# sits on the row x1 + x2 <= 1, which the binary64 rounding of x leaves.
EX31_AT_NON_DYADIC_POINT = {
    "version": "1",
    "constraint": {
        "type": "polyhedron",
        "dimension": 2,
        "inequalities": {"rows": [["1", "1"], ["-1", "0"]], "bounds": ["1", "0"]},
    },
    "objective": {"type": "fixture", "name": "ex31"},
    "query": {"point": ["1/3", "2/3"], "directions": [["1", "-1"]], "regime": "exact"},
}


def test_second_order_uses_exact_point_with_fixture_objective(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(EX31_AT_NON_DYADIC_POINT))
    code, out, _ = run_cli(capsys, "second-order", "--input", str(path), "--format", "json")
    assert code == 1  # ex31 has negative curvature along (1, -1)
    entry = json.loads(out)["results"]["directions"][0]
    # (c1) is checked on the second-order set the report prints
    assert entry["second_order_set"]["inequalities"] == [["1", "1"]]
    assert entry["c1"]["verdict"] == "holds"
    assert entry["c2_at_direction"]["verdict"] == "fails"
    assert entry["classical"]["verdict"] == "fails"
    assert entry["classical"]["margin"] == -6.0
    report_path = tmp_path / "report.json"
    report_path.write_text(out)
    code, out, err = run_cli(capsys, "verify", "--input", str(report_path))
    assert code == 0, err
    assert "verification passed" in out


def test_theorem41_uses_exact_point_with_fixture_objective(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(EX31_AT_NON_DYADIC_POINT))
    code, out, _ = run_cli(capsys, "theorem41", "--input", str(path))
    assert code == 0
    assert "direction v = (1.0, -1.0): Holds" in out
    assert "C1: HOLDS" in out


def test_verify_rejects_non_report(tmp_path, capsys):
    path = tmp_path / "not_report.json"
    path.write_text('{"version": "1"}')
    code, _, err = run_cli(capsys, "verify", "--input", str(path))
    assert code == 3
    assert "not a usable report" in err


def test_verify_detects_tampering(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "qp",
        "--input",
        os.path.join(PROBLEMS, "orthant_qp.json"),
        "--format",
        "json",
    )
    report = json.loads(out)
    report["results"]["c0"]["verdict"] = "fails"
    report["results"]["c0"]["witness"] = ["1", "1"]
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(report))
    code, out, _ = run_cli(capsys, "verify", "--input", str(tampered))
    assert code == 1
    assert "FAIL" in out


def test_cones_command_smooth(tmp_path, capsys):
    problem = {
        "version": "1",
        "constraint": {"type": "fixture", "name": "ex32"},
        "query": {"regime": "float", "directions": [[0.0, 1.0]]},
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(problem))
    code, out, _ = run_cli(capsys, "cones", "--input", str(path))
    assert code == 0
    assert "tangent region" in out


def test_ssd_command(tmp_path, capsys):
    problem = {
        "version": "1",
        "constraint": {"type": "fixture", "name": "ex41"},
        "query": {
            "point": [0.0],
            "directions": [[1.0]],
            "z_candidates": [-0.5],
            "regime": "float",
        },
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(problem))
    code, out, _ = run_cli(capsys, "ssd", "--input", str(path))
    assert code == 0
    assert "Member" in out
    assert "closed-form membership interval" in out


def test_ssd_on_ex41_lists_closed_forms_for_nonnegative_directions_only(tmp_path, capsys):
    """The normal cone of ex41's gradient graph at 0 is {(a, b) | a <= 0,
    b <= a}, so the second-order subdifferential is empty at v < 0: every z
    is NotMember there, and the interval is listed for v >= 0 only."""
    candidates = [[-2.0], [-1.0], [-0.5], [0.0], [0.5]]
    path = _ex41_ssd_problem(tmp_path, directions=[[-2.0], [-1.0], [1.0]], z_candidates=candidates)
    code, out, err = run_cli(capsys, "ssd", "--input", path)
    assert (code, err) == (1, "")
    for v in ("-2.0", "-1.0"):
        assert all(f"z = {z[0]}, v = {v}: NotMember" in out for z in candidates)
    assert "z = -0.5, v = 1.0: Member" in out
    assert "closed-form membership interval at v = 1.0: [-1, 0]\n" in out
    assert "interval at v = -" not in out
    code, out, err = run_cli(capsys, "ssd", "--input", path, "--format", "json")
    report = json.loads(out)
    assert report["results"]["closed_form_intervals"] == [{"direction": 1.0, "interval": ["-1", "0"]}]
    assert revalidate_report(report)[0]


def test_ssd_compares_candidates_with_the_hessian_action(tmp_path, capsys):
    """ex32 at its candidate point, v = (0, 1): the set is the singleton
    {H v} = {(0, -2)}, written as the interval [H v, H v] with exact ends;
    a 2-D objective has no calmness modulus."""
    problem = {
        "version": "1",
        "constraint": {"type": "fixture", "name": "ex32"},
        "query": {"directions": [[0.0, 1.0]], "z_candidates": [[0.0, -2.0], [1.0, 1.0]], "regime": "float"},
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(problem))
    code, out, err = run_cli(capsys, "ssd", "--input", str(path))
    assert (code, err) == (1, "")
    assert (
        "z = (0.0, -2.0), v = (0.0, 1.0): Member\n"
        "z = (1.0, 1.0), v = (0.0, 1.0): NotMember\n"
        "closed-form membership interval at v = (0.0, 1.0): [(0, -2), (0, -2)]\n"
    ) in out
    code, out, err = run_cli(capsys, "ssd", "--input", str(path), "--format", "json")
    report = json.loads(out)
    assert report["results"] == {
        "memberships": [
            {"direction": [0.0, 1.0], "candidate": [0.0, -2.0], "verdict": "Member"},
            {"direction": [0.0, 1.0], "candidate": [1.0, 1.0], "verdict": "NotMember"},
        ],
        "closed_form_intervals": [{"direction": [0.0, 1.0], "interval": [["0", "-2"], ["0", "-2"]]}],
    }
    assert revalidate_report(report)[0]


def test_ssd_decides_exact_quadratic_data_exactly_in_every_dimension(tmp_path, capsys):
    """M = diag(1/3, 1) at v = (3, 0) has the set {(1, 0)}: a candidate
    off it by 10^-10 in one entry is NotMember in the exact regime, where
    a float comparison within 1e-9 took it for a member."""
    path = tmp_path / "p.json"
    path.write_text(json.dumps({
        "version": "1",
        "constraint": {"type": "polyhedron", "dimension": 2, "inequalities": {"rows": [["-1", "0"]], "bounds": ["0"]}},
        "objective": {"type": "quadratic", "matrix": [["1/3", "0"], ["0", "1"]]},
        "query": {"regime": "exact", "point": ["0", "0"], "directions": [["3", "0"]],
                  "z_candidates": [["10000000001/10000000000", "0"]]},
    }))
    code, out, err = run_cli(capsys, "ssd", "--input", str(path))
    assert (code, err) == (1, "")
    assert "z = (10000000001/10000000000, 0), v = (3, 0): NotMember\n" in out
    assert "closed-form membership interval at v = (3, 0): [(1, 0), (1, 0)]\n" in out
    code, out, err = run_cli(capsys, "ssd", "--input", str(path), "--format", "json")
    report = json.loads(out)
    assert code == 1 and [m["verdict"] for m in report["results"]["memberships"]] == ["NotMember"]
    assert revalidate_report(report)[0]


def test_verify_tells_exact_directions_apart_that_one_float_prints(tmp_path, capsys):
    """1/3 and the binary64 value of 1/3 both print as 0.3333333333333333;
    an exact report writes them as exact strings, so `verify` checks each
    membership against its own direction's set and passes the report."""
    third = str(Fraction(1 / 3))
    path = tmp_path / "p.json"
    path.write_text(json.dumps({
        "version": "1",
        "constraint": {"type": "polyhedron", "dimension": 1, "inequalities": {"rows": [["-1"]], "bounds": ["0"]}},
        "objective": {"type": "quadratic", "matrix": [["3"]]},
        "query": {"regime": "exact", "point": ["0"], "directions": [["1/3"], [third]], "z_candidates": [["1"]]},
    }))
    code, out, err = run_cli(capsys, "ssd", "--input", str(path), "--format", "json")
    assert (code, err) == (1, "")
    results = json.loads(out)["results"]
    assert [(m["direction"], m["candidate"], m["verdict"]) for m in results["memberships"]] == [
        ("1/3", "1", "Member"), (third, "1", "NotMember"),
    ]
    report = tmp_path / "report.json"
    report.write_text(out)
    code, out, err = run_cli(capsys, "verify", "--input", str(report))
    assert (code, err) == (0, ""), out


def test_fixture_default_direction_when_directions_are_absent(tmp_path, capsys):
    """Without query.directions a fixture's default direction is used: float
    on ex31, exact on ex41."""
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"version": "1", "constraint": {"type": "fixture", "name": "ex31"}, "query": {"regime": "float"}}))
    code, out, err = run_cli(capsys, "second-order", "--input", str(path))
    assert (code, err) == (1, "")
    assert "direction v = (0.0, 1.0):" in out and "C2: FAILS" in out
    path.write_text(json.dumps({"version": "1", "constraint": {"type": "fixture", "name": "ex41"}, "query": {"regime": "exact"}}))
    code, out, err = run_cli(capsys, "cones", "--input", str(path), "--format", "json")
    assert (code, err) == (0, "")
    (entry,) = json.loads(out)["results"]["second_order_tangent_sets"]
    assert entry["direction"] == ["1"]


def test_first_order_smooth_objective_over_polyhedron(tmp_path, capsys):
    problem = {
        "version": "1",
        "constraint": {"type": "fixture", "name": "ex41"},
        "query": {"point": [0.0], "regime": "float"},
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(problem))
    code, out, _ = run_cli(capsys, "first-order", "--input", str(path))
    assert code == 0
    assert "FirstOrder: HOLDS" in out
    # at an interior non-stationary point the check fails with a ray witness
    problem["query"]["point"] = [1.0]
    path.write_text(json.dumps(problem))
    code, out, _ = run_cli(capsys, "first-order", "--input", str(path), "--format", "json")
    assert code == 1
    report = json.loads(out)
    assert report["results"]["condition"]["witness"] == ["-1"]
    ok, _ = revalidate_report(report)
    assert ok


def test_smooth_unbounded_failure_revalidates():
    """At a non-stationary boundary point the gradient pairing is unbounded
    below on the second-order hyperplane; the ray witnesses must re-verify."""
    x = [1.0 / math.sqrt(2.0), 0.5]          # on the ex32 ellipse
    v = [2.0, -math.sqrt(2.0)]               # tangential: orthogonal to grad h
    problem = parse_problem(
        json.dumps(
            {
                "version": "1",
                "constraint": {"type": "fixture", "name": "ex32"},
                "query": {"point": x, "directions": [v], "regime": "float"},
            }
        )
    )
    report = run_analysis(problem, "second-order")
    entry = report["results"]["directions"][0]
    assert entry["critical_flags"]["critical"] is False
    assert entry["classical"]["verdict"] == "fails"
    assert entry["classical"]["margin"] == "-inf"
    assert entry["c1"]["verdict"] == "fails"
    ok, checks = revalidate_report(report)
    assert ok, checks


def test_qp_over_affine_face(tmp_path):
    def problem_text(point):
        return json.dumps(
            {
                "version": "1",
                "constraint": {
                    "type": "polyhedron",
                    "dimension": 2,
                    "equalities": {"matrix": [["1", "1"]], "rhs": ["1"]},
                    "inequalities": {"rows": [["-1", "0"]], "bounds": ["0"]},
                },
                "objective": {
                    "type": "quadratic",
                    "matrix": [["1", "0"], ["0", "1"]],
                    "linear": ["0", "0"],
                },
                "query": {"point": point, "regime": "exact"},
            }
        )

    # face corner: not stationary; witnessed failure
    report = run_analysis(parse_problem(problem_text(["0", "1"])), "qp")
    assert report["results"]["c0"]["verdict"] == "fails"
    assert report["results"]["c0"]["witness"] == ["1", "-1"]
    ok, _ = revalidate_report(report)
    assert ok
    # true minimum: all hold, with the equality multiplier -1/2
    report = run_analysis(parse_problem(problem_text(["1/2", "1/2"])), "qp")
    assert report["exit_code"] == 0
    cert = report["results"]["c0"]["certificate"]
    assert cert["equality_multipliers"] == ["-1/2"]
    ok, _ = revalidate_report(report)
    assert ok


def test_run_analysis_matches_direct_calls():
    with open(os.path.join(PROBLEMS, "ex31_second_order.json")) as handle:
        problem = parse_problem(handle.read())
    report = run_analysis(problem, "second-order")
    entry = report["results"]["directions"][0]
    assert entry["c1"]["verdict"] == "holds"
    assert abs(entry["classical"]["margin"] - 4.0) < 1e-9
    assert abs(entry["c2_at_direction"]["margin"] + 2.0) < 1e-9
    offset = entry["second_order_region"]["normalized_offset"]
    normal = entry["second_order_region"]["normal"]
    assert abs(
        offset * math.hypot(*normal) / normal[0] - (-6 / (4 * math.sqrt(3)))
    ) < 1e-9
    ok, checks = revalidate_report(report)
    assert ok, checks


def test_cones_enumerates_one_tangent_cone_per_point(monkeypatch):
    """``cones`` runs double description once for T(x), whose generators are
    also the normal cone's H-form, and once per T2(x, v); it and
    ``second-order`` build T(x), checking the point, once for all
    directions."""
    counts = Counter()

    def counted(key, real):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(geometry, "double_description", counted("dd", geometry.double_description))
    monkeypatch.setattr(
        geometry.Polyhedron, "tangent_cone", counted("tangent_cone", geometry.Polyhedron.tangent_cone)
    )
    directions = [["1", "0", "-1"], ["0", "1", "-1"], ["1", "1", "-2"]]
    problem = parse_problem(
        json.dumps(
            {
                "version": "1",
                "constraint": {
                    "type": "polyhedron",
                    "dimension": 3,
                    "equalities": {"matrix": [["1", "1", "1"]], "rhs": ["1"]},
                    "inequalities": {
                        "rows": [["-1", "0", "0"], ["0", "-1", "0"], ["1", "1", "0"]],
                        "bounds": ["0", "0", "1"],
                    },
                },
                "objective": {
                    "type": "quadratic",
                    "matrix": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                    "linear": ["0", "0", "0"],
                },
                "query": {"point": ["0", "0", "1"], "directions": directions, "regime": "exact"},
            }
        )
    )
    counts.clear()
    report = run_analysis(problem, "cones")
    assert report["results"]["active_rows"] == [1, 2]
    assert len(report["results"]["second_order_tangent_sets"]) == len(directions)
    assert counts == {"dd": 1 + len(directions), "tangent_cone": 1}
    counts.clear()
    run_analysis(problem, "second-order")
    assert counts["tangent_cone"] == 1


def test_qp_enumerates_only_the_critical_cone(monkeypatch):
    """``qp`` runs double description at most once, for the critical cone C,
    and only when M is not PSD on ker E, E the equality rows of C; T(x) is
    reported by its H-form.  ``verify`` of the report runs it as often, in
    the re-run only."""
    calls = Counter()
    real = geometry.double_description

    def counted(*args, **kwargs):
        calls["dd"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(geometry, "double_description", counted)
    with open(os.path.join(PROBLEMS, "orthant_qp.json")) as handle:
        docs = [json.load(handle)]
    docs += [random_qp_problem(seed, 3 + seed % 3, seed % 2, 1, seed % 3 == 0) for seed in range(6)]
    seen = Counter()
    for doc in docs:
        calls.clear()
        report = run_analysis(parse_problem(json.dumps(doc)), "qp")
        enumerated = report["results"]["c2_prime"]["certificate"]["method"] != "kernel-factorization"
        assert calls["dd"] == enumerated
        calls.clear()
        ok, checks = revalidate_report(report)
        assert ok, checks
        assert calls["dd"] == enumerated
        seen[enumerated] += 1
    assert seen[True] and seen[False]


def test_verdict_reports_run_no_double_description(monkeypatch):
    """Exact ``first-order``, ``second-order`` and ``theorem41`` decide on
    one pairing LP over T(x) and report cones by their H-forms, so neither a
    run nor ``verify`` of its report enumerates generators."""
    calls = Counter()
    real = geometry.double_description

    def counted(*args, **kwargs):
        calls["dd"] += 1
        return real(*args, **kwargs)

    with open(os.path.join(PROBLEMS, "orthant_qp.json")) as handle:
        orthant = json.load(handle)
    orthant["query"]["directions"] = [["1", "0"], ["0", "1"]]
    docs = [orthant] + [random_qp_problem(seed, 2 + seed % 4, seed % 2, 2, seed % 3 == 0) for seed in range(8)]
    monkeypatch.setattr(geometry, "double_description", counted)
    for doc in docs:
        problem = parse_problem(json.dumps(doc))
        for command in ("first-order", "second-order", "theorem41"):
            calls.clear()
            report = run_analysis(problem, command)
            ok, checks = revalidate_report(report)
            assert ok, (command, checks)
            assert calls["dd"] == 0, command


def _keys(node, path=()):
    """(path, key) of every dict key in a report, depth first."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield path, key
            yield from _keys(value, path + (key,))
    elif isinstance(node, list):
        for value in node:
            yield from _keys(value, path)


def test_qp_report_writes_each_list_once():
    """A ``qp`` report lists C's generators once, as ``checked_directions``;
    only ``c1_prime`` names a ``witness_direction``, and the (c2') witness
    is c2''s ``witness``, not repeated in its certificate."""
    failing = 0
    for seed in range(12):
        doc = random_qp_problem(seed, 2 + seed % 3, seed % 2, 1, seed % 2 == 0)
        results = run_analysis(parse_problem(json.dumps(doc)), "qp")["results"]
        keys = list(_keys(results))
        assert [path for path, key in keys if key == "checked_directions"] == [()], seed
        assert [path for path, key in keys if key == "witness_direction"] == [("c1_prime",)], seed
        assert not {"witness", "witness_value"} & set(results["c2_prime"]["certificate"]), seed
        assert "rays" not in results["critical_cone"] and "rays" not in results["tangent_cone"], seed
        failing += results["c2_prime"]["verdict"] == "fails"
        assert (results["c2_prime"]["witness"] is None) == (results["c2_prime"]["verdict"] == "holds"), seed
    assert failing


def _cone_of_h_json(cone: dict) -> geometry.PolyhedralCone:
    dim = cone["dimension"]
    rows = {key: RationalMatrix([RationalVector(map(Fraction, r)) for r in cone[key]], dim)
            for key in ("equalities", "inequalities")}
    return geometry.PolyhedralCone(dim, rows["equalities"], rows["inequalities"], tuple(cone["row_origins"]))


def test_qp_report_keeps_the_critical_cone_exactly():
    """A ``qp`` report's ``critical_cone`` H-form rebuilds C: its generators
    are the checked directions, in order, when (c2') enumerated C, and none
    is listed when (c2') was certified on ker E or C = {0}; its
    ``tangent_cone`` is the H-form part of ``cones``'s."""
    enumerated = certified = 0
    for seed in range(40):
        dim = 2 + seed % 5
        doc = random_qp_problem(seed, dim, (seed // 5) % 2, 1, seed % 2 == 0)
        problem = parse_problem(json.dumps(doc))
        results = run_analysis(problem, "qp")["results"]
        checked = [RationalVector(map(Fraction, v)) for v in results["checked_directions"]]
        spanning = list(_cone_of_h_json(results["critical_cone"]).generators().spanning_vectors())
        if results["c2_prime"]["certificate"]["method"] == "kernel-factorization":
            assert checked == [], seed
            certified += 1
        else:
            assert checked == spanning, seed
            enumerated += 1
        tangent = run_analysis(problem, "cones")["results"]["tangent_cone"]
        assert results["tangent_cone"] == {key: tangent[key] for key in results["tangent_cone"]}, seed
        assert set(tangent) - set(results["tangent_cone"]) == {"rays", "lineality"}
    assert enumerated and certified


def test_verify_fails_an_edited_ssd_interval_or_verdict(tmp_path, capsys):
    """`verify` re-checks every membership exactly against the interval the
    report wrote for its direction (none for an empty set): an edited end
    or a flipped verdict fails that check as well as reproduction."""
    path = _ex41_ssd_problem(tmp_path, directions=[[1.0], [-1.0]], z_candidates=[[-1.0], [0.5]])
    code, out, _ = run_cli(capsys, "ssd", "--input", path, "--format", "json")
    report = json.loads(out)
    assert code == 1 and report["results"]["closed_form_intervals"] == [{"direction": 1.0, "interval": ["-1", "0"]}]
    assert [m["verdict"] for m in report["results"]["memberships"]] == ["Member", "NotMember", "NotMember", "NotMember"]
    tampered = tmp_path / "tampered.json"

    def edit(change, report=report):
        edited = json.loads(json.dumps(report))
        change(edited["results"])
        tampered.write_text(json.dumps(edited))
        code, out, err = run_cli(capsys, "verify", "--input", str(tampered))
        assert (code, err) == (1, "")
        assert "[FAIL] deterministic reproduction" in out
        return [line for line in out.splitlines() if line.startswith("[FAIL] ssd:")]

    interval_end = edit(lambda results: results["closed_form_intervals"][0].update(interval=["-1/2", "0"]))
    assert interval_end == ["[FAIL] ssd: verdict matches the written interval  (z = -1, v = 1)"]
    flipped = edit(lambda results: results["memberships"][3].update(verdict="Member"))
    assert flipped == ["[FAIL] ssd: verdict matches the written interval  (z = 0.5, v = -1)"]
    # an interval written for a direction whose set is empty
    extra = edit(lambda results: results["closed_form_intervals"].append({"direction": -1.0, "interval": ["-1", "1"]}))
    assert extra == [f"[FAIL] ssd: verdict matches the written interval  (z = {z}, v = -1)" for z in ("-1", "0.5")]
    # in 2-D, on ex32 at v = (0, 1), whose set is {(0, -2)}
    plane = tmp_path / "plane.json"
    plane.write_text(json.dumps({"version": "1", "constraint": {"type": "fixture", "name": "ex32"}, "query": {
        "regime": "float", "directions": [[0.0, 1.0]], "z_candidates": [[0.0, -2.0], [1.0, 1.0]]}}))
    code, out, _ = run_cli(capsys, "ssd", "--input", str(plane), "--format", "json")
    report = json.loads(out)
    assert code == 1 and revalidate_report(report)[0]
    widened = edit(lambda results: results["closed_form_intervals"][0].update(interval=[["0", "-2"], ["1", "1"]]), report)
    assert widened == ["[FAIL] ssd: verdict matches the written interval  (z = (1, 1), v = (0, 1))"]
    flipped = edit(lambda results: results["memberships"][0].update(verdict="NotMember"), report)
    assert flipped == ["[FAIL] ssd: verdict matches the written interval  (z = (0, -2), v = (0, 1))"]


def test_ssd_on_ex41_writes_the_set_at_its_point(tmp_path, capsys):
    """ex41 right of 0 has f'' = 2x, so its set at 1e9 in direction 1 is
    {2e9}: the report writes that interval, not the origin's [-1, 0], and
    reads z = -0.5 as NotMember."""
    path = _ex41_ssd_problem(tmp_path, point=[1e9], z_candidates=[[-0.5], [2e9]])
    code, out, err = run_cli(capsys, "ssd", "--input", path)
    assert (code, err) == (1, "")
    assert "z = -0.5, v = 1.0: NotMember\nz = 2000000000.0, v = 1.0: Member\n" in out
    assert "closed-form membership interval at v = 1.0: [2000000000, 2000000000]\n" in out
    assert "[-1, 0]" not in out and "calmness modulus: 2000000000\n" in out
    code, out, err = run_cli(capsys, "ssd", "--input", path, "--format", "json")
    results = json.loads(out)["results"]
    assert results["closed_form_intervals"] == [{"direction": 1.0, "interval": ["2000000000", "2000000000"]}]
    assert results["calmness"] == {"modulus": "2000000000"}


def test_ssd_on_ex41_far_out_decides(tmp_path, capsys):
    """At 1e13, where every float probe offset of 10^-4 or less rounds onto
    the point, the exact set is decided and the report verifies."""
    path = _ex41_ssd_problem(tmp_path, point=[1e13], directions=[[1.0], [0.5]], z_candidates=[[2e13], [-0.5]])
    code, out, err = run_cli(capsys, "ssd", "--input", path, "--format", "json")
    assert (code, err) == (1, "")
    report = json.loads(out)
    assert report["results"]["closed_form_intervals"] == [
        {"direction": 1.0, "interval": ["20000000000000", "20000000000000"]},
        {"direction": 0.5, "interval": ["10000000000000", "10000000000000"]},
    ]
    assert [m["verdict"] for m in report["results"]["memberships"]] == ["Member", "NotMember", "NotMember", "NotMember"]
    assert revalidate_report(report)[0]


def test_ssd_on_exact_one_dimensional_quadratic_data(tmp_path, capsys):
    """1-D quadratic data give the exact slopes (M, M): with M = 1/3 the set
    at v = 3 is {1}, so z = 1 is a member in both regimes, and in the exact
    regime a candidate off 1 by 10^-30 is not."""
    for regime, v, candidates, verdicts in (
        ("float", [3.0], [[1.0], [1.0000001]], ["Member", "NotMember"]),
        ("exact", ["3"], [["1"], ["1000000000000000000000000000001/1000000000000000000000000000000"]],
         ["Member", "NotMember"]),
    ):
        path = tmp_path / f"{regime}.json"
        path.write_text(json.dumps({
            "version": "1",
            "constraint": {"type": "polyhedron", "dimension": 1, "inequalities": {"rows": [["-1"]], "bounds": ["0"]}},
            "objective": {"type": "quadratic", "matrix": [["1/3"]], "linear": ["-1"]},
            "query": {"point": ["2"] if regime == "exact" else [2.0], "directions": [v], "z_candidates": candidates,
                      "regime": regime},
        }))
        code, out, err = run_cli(capsys, "ssd", "--input", str(path), "--format", "json")
        assert (code, err) == (1, ""), regime
        report = json.loads(out)
        direction = 3.0 if regime == "float" else "3"
        assert report["results"]["closed_form_intervals"] == [{"direction": direction, "interval": ["1", "1"]}]
        assert [m["verdict"] for m in report["results"]["memberships"]] == verdicts
        assert report["results"]["calmness"] == {"modulus": "1/3"}
        assert revalidate_report(report)[0]


def test_verify_fails_zero_witness(tmp_path, capsys):
    """The zero vector violates no inequality: a `fails` entry that names it
    fails its check instead of dividing by zero."""
    code, out, _ = run_cli(
        capsys, "qp", "--input", os.path.join(PROBLEMS, "orthant_qp.json"), "--format", "json"
    )
    report = json.loads(out)
    report["results"]["c0"]["verdict"] = "fails"
    report["results"]["c0"]["witness"] = ["0", "0"]
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(report))
    code, out, err = run_cli(capsys, "verify", "--input", str(tampered))
    assert code == 1
    assert "[FAIL] c0: witness violates the inequality  (<grad, w> = 0)" in out
    assert err == ""


def test_verify_substitutes_the_checked_directions(tmp_path, capsys):
    """A `qp` report gives C by its H-form: `verify` substitutes each checked
    direction into C rebuilt from the echoed problem, and a direction off C
    fails that check."""
    code, out, _ = run_cli(
        capsys, "qp", "--input", os.path.join(PROBLEMS, "orthant_qp.json"), "--format", "json"
    )
    report = json.loads(out)
    directions = report["results"]["checked_directions"]
    report_path = tmp_path / "report.json"
    report_path.write_text(out)
    code, out, err = run_cli(capsys, "verify", "--input", str(report_path))
    assert (code, err) == (0, "")
    assert f"[ok ] checked directions: each lies in the critical cone  ({len(directions)} directions substituted)" in out
    report["results"]["checked_directions"] = [["-1", "0"], *directions]
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(report))
    code, out, err = run_cli(capsys, "verify", "--input", str(tampered))
    assert (code, err) == (1, "")
    assert "[FAIL] checked directions: each lies in the critical cone" in out


def _orthant_with_direction(tmp_path, linear, hessian=None) -> str:
    with open(os.path.join(PROBLEMS, "orthant_qp.json")) as handle:
        doc = json.load(handle)
    doc["objective"]["linear"] = linear
    if hessian is not None:
        doc["objective"]["matrix"] = hessian
    doc["query"]["directions"] = [["1", "0"]]
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("command", ["second-order", "theorem41"])
def test_verify_of_an_edited_direction_fails(tmp_path, capsys, command):
    """A report whose direction is edited off T(x) is reproduced from the
    echoed problem's directions, so the edit fails the reproduction: exit
    1, not an unusable document."""
    problem = _orthant_with_direction(tmp_path, ["0", "0"])
    code, out, _ = run_cli(capsys, command, "--input", problem, "--format", "json")
    report = json.loads(out)
    report["results"]["directions"][0]["direction"] = ["-1", "0"]
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(report))
    code, out, err = run_cli(capsys, "verify", "--input", str(tampered))
    assert (code, err) == (1, "")
    assert "[FAIL] deterministic reproduction" in out


def test_verify_fails_a_c1_prime_witness_direction_off_the_critical_cone(tmp_path, capsys):
    """(c1') fails at the first generator of C when q = (-1, 0) on the
    orthant and M = diag(1, -1), which is not PSD on ker E = span (0, 1),
    so C is enumerated; a witness direction edited off C fails its check."""
    problem = _orthant_with_direction(tmp_path, ["-1", "0"], [["1", "0"], ["0", "-1"]])
    code, out, _ = run_cli(capsys, "qp", "--input", problem, "--format", "json")
    report = json.loads(out)
    assert report["results"]["c1_prime"]["witness_direction"] == ["0", "1"]
    report["results"]["c1_prime"]["witness_direction"] = ["-1", "0"]
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(report))
    code, out, err = run_cli(capsys, "verify", "--input", str(tampered))
    assert (code, err) == (1, "")
    assert "[FAIL] c1': its direction lies in the critical cone  (v = (-1, 0))" in out


def test_verify_checks_a_c1_prime_certificate_with_no_direction_listed(tmp_path, capsys):
    """With q = (1, 0) on the orthant and M = I, (c2') is certified on
    ker E = span (0, 1) and no direction is listed; (c1')'s certificate is
    then checked on T2(x, 0) = T(x), and an edited multiplier fails it."""
    problem = _orthant_with_direction(tmp_path, ["1", "0"])
    code, out, _ = run_cli(capsys, "qp", "--input", problem, "--format", "json")
    report = json.loads(out)
    assert code == 0 and report["results"]["checked_directions"] == []
    multipliers = report["results"]["c1_prime"]["certificate"]["inequality_multipliers"]
    assert [m["value"] for m in multipliers] == ["1", "0"]
    multipliers[0]["value"] = "2"
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(report))
    code, out, err = run_cli(capsys, "verify", "--input", str(tampered))
    assert (code, err) == (1, "")
    assert "[FAIL] c1': Lagrange certificate identity" in out


def _convex_qp_above_the_cap(dim: int, seed: int | None) -> dict:
    """{x in R^dim : x1 >= 0, x2 >= 0} with M = I at 0 when ``seed`` is
    None, else a seeded polyhedron with 64 rows and M = A'A; q = -M x."""
    if seed is None:
        rows, bounds, base = [[-int(i == j) for j in range(dim)] for i in range(2)], [0, 0], [0] * dim
        a = [[int(i == j) for j in range(dim)] for i in range(dim)]
    else:
        rng = random.Random(seed)
        polyhedron, base = random_feasible_polyhedron(rng, dim, 64, 0, active_probability=0.7)
        rows, bounds = polyhedron.ineq_matrix.rows, polyhedron.ineq_rhs
        a = [random_vector(rng, dim) for _ in range(dim)]
    hessian = [[sum(r[i] * r[j] for r in a) for j in range(dim)] for i in range(dim)]
    linear = [-sum(h * b for h, b in zip(row, base)) for row in hessian]
    return {
        "version": "1",
        "constraint": {"type": "polyhedron", "dimension": dim,
                       "inequalities": {"rows": [_fractions(r) for r in rows], "bounds": _fractions(bounds)}},
        "objective": {"type": "quadratic", "matrix": [_fractions(r) for r in hessian], "linear": _fractions(linear)},
        "query": {"point": _fractions(base), "regime": "exact"},
    }


@pytest.mark.parametrize("dim, seed", [(11, None), (30, 0)])
def test_convex_qp_above_the_enumeration_cap_decides_and_verifies(tmp_path, capsys, dim, seed):
    """M PSD on ker E certifies (c2') with no generator of C, so a convex QP
    above the dimension cap of double description exits 0 and verifies."""
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(_convex_qp_above_the_cap(dim, seed)))
    code, out, err = run_cli(capsys, "qp", "--input", str(path), "--format", "json")
    assert (code, err) == (0, "")
    results = json.loads(out)["results"]
    assert results["c2_prime"]["certificate"]["method"] == "kernel-factorization"
    assert results["checked_directions"] == []
    report = tmp_path / "report.json"
    report.write_text(out)
    code, out, err = run_cli(capsys, "verify", "--input", str(report))
    assert (code, err) == (0, ""), out


def test_main_twice_in_one_process(capsys):
    """One parser serves every call: arguments do not leak from one call to
    the next, and a usage error exits 3 with the same stderr each time."""
    orthant = os.path.join(PROBLEMS, "orthant_qp.json")
    for extra, override in ((["--tolerance", "0.5"], 0.5), ([], None)):
        code, out, _ = run_cli(capsys, "qp", "--input", orthant, "--format", "json", *extra)
        assert code == 0
        assert json.loads(out)["configuration"]["tolerance_override"] == override
    code, out, _ = run_cli(capsys, "cones", "--input", orthant)
    assert code == 0
    assert out.startswith("cone-audit ") and "tangent cone:" in out
    errors = []
    for _ in range(2):
        code, out, err = run_cli(capsys, "cones", "--input", orthant, "--format", "xml")
        assert code == 3 and out == ""
        errors.append(err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("usage: cone-audit ")
    assert "argument --format: invalid choice: 'xml'" in errors[0]


def _tampered_verify(report: dict, capsys, tmp_path) -> str:
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(report))
    code, out, err = run_cli(capsys, "verify", "--input", str(path))
    assert code == 1 and err == ""
    assert "[FAIL] deterministic reproduction" in out
    return out


def test_verify_substitutes_smooth_first_order_witness(tmp_path, capsys):
    """A smooth-mode first-order witness is checked on the tangent region."""
    problem = parse_problem(
        json.dumps(
            {
                "version": "1",
                "constraint": {"type": "fixture", "name": "ex32"},
                "query": {"point": [1.0 / math.sqrt(2.0), 0.5], "regime": "float"},
            }
        )
    )
    report = run_analysis(problem, "first-order")
    assert report["results"]["condition"]["verdict"] == "fails"
    ok, checks = revalidate_report(report)
    assert ok and checks[-1]["check"] == "first-order: witness violates the inequality"
    report["results"]["condition"]["witness"] = [123.0, -7.0]
    out = _tampered_verify(report, capsys, tmp_path)
    assert "[FAIL] first-order: witness violates the inequality" in out


def test_verify_substitutes_smooth_second_order_finite_witnesses(tmp_path, capsys):
    """x'x over the ex32 ellipse at (-1, 0), v = (0, 1): the second-order set
    is the line w1 = 2, where (c1) and the classical check fail at the
    attaining point w = (2, 0); a witness off that line fails both."""
    problem = parse_problem(
        json.dumps(
            {
                "version": "1",
                "constraint": {"type": "fixture", "name": "ex32"},
                "objective": {"type": "quadratic", "matrix": [["2", "0"], ["0", "2"]], "linear": ["0", "0"]},
                "query": {"point": [-1.0, 0.0], "directions": [[0.0, 1.0]], "regime": "float"},
            }
        )
    )
    report = run_analysis(problem, "second-order")
    entry = report["results"]["directions"][0]
    for name, margin in (("c1", -4.0), ("classical", -2.0)):
        assert (entry[name]["verdict"], entry[name]["margin"], entry[name]["witness"]) == ("fails", margin, [2.0, 0.0])
    ok, checks = revalidate_report(report)
    assert ok and [c["detail"] for c in checks[1:]] == ["<grad, w> = -4", "violation = -2"]
    entry["c1"]["witness"] = entry["classical"]["witness"] = [1.0, 0.0]
    out = _tampered_verify(report, capsys, tmp_path)
    assert "[FAIL] c1: witness violates the inequality" in out
    assert "[FAIL] classical: witness reproduces the violation" in out


def test_verify_reads_float_curvature_as_the_run_did(tmp_path, capsys):
    """Float-regime quadratic data are decided on the float Hessian: at
    v = (4, -4), <Mv, v> is exactly 0 but -1.776e-15 in binary64, so at
    tolerance 0 (c2) and the classical check fail, and `verify` reproduces
    both failures in the same arithmetic."""
    path = tmp_path / "float_quadratic.json"
    path.write_text(json.dumps({
        "version": "1",
        "constraint": {"type": "polyhedron", "dimension": 2, "inequalities": {"rows": [], "bounds": []}},
        "objective": {"type": "quadratic", "matrix": [["-9/7", "-1"], ["-1", "-5/7"]], "linear": ["0", "0"]},
        "query": {"regime": "float", "point": [0.0, 0.0], "directions": [[4.0, -4.0]]},
    }))
    code, out, err = run_cli(capsys, "second-order", "--input", str(path), "--tolerance", "0", "--format", "json")
    assert (code, err) == (1, "")
    entry = json.loads(out)["results"]["directions"][0]
    for name in ("c2_at_direction", "classical"):
        assert entry[name]["verdict"] == "fails" and entry[name]["margin"] == -1.7763568394002505e-15
    report_path = tmp_path / "report.json"
    report_path.write_text(out)
    code, out, err = run_cli(capsys, "verify", "--input", str(report_path))
    assert (code, err) == (0, ""), out
    assert "[ok ] c2: negative curvature reproduces" in out
    assert "[ok ] classical: witness reproduces the violation" in out


def _ex32_at_one_third(regime: str) -> dict:
    """x'x over the ex32 ellipse at (1/3, 2/3), a rational point of it."""
    point = ["1/3", "2/3"] if regime == "exact" else [1 / 3, 2 / 3]
    return {
        "version": "1",
        "constraint": {"type": "fixture", "name": "ex32"},
        "objective": {"type": "quadratic", "matrix": [["2", "0"], ["0", "2"]], "linear": ["0", "0"]},
        "query": {"point": point, "regime": regime},
    }


LEVEL_SET_ERROR = "error: fixture {!r} is a smooth level set, which needs a positive tolerance"


@pytest.mark.parametrize(
    "doc, command, flags, name",
    [
        ({"version": "1", "constraint": {"type": "fixture", "name": "ex31"}, "query": {"regime": "exact"}},
         "second-order", (), "ex31"),
        (_ex32_at_one_third("exact"), "first-order", (), "ex32"),
        (_ex32_at_one_third("float"), "first-order", ("--tolerance", "0"), "ex32"),
    ],
)
def test_smooth_level_set_with_tolerance_zero_exits_three(tmp_path, capsys, doc, command, flags, name):
    """A smooth level set is decided only with a positive tolerance: with 0
    ex31's boundary point reads as inactive (its value is -8.9e-16), and
    ex32's first-order witness fails `verify`, its <normal, ray> being
    1e-17 rather than 0."""
    path = tmp_path / "level_set.json"
    path.write_text(json.dumps(doc))
    for fmt in ("json", "human"):
        code, out, err = run_cli(capsys, command, "--input", str(path), "--format", fmt, *flags)
        assert (code, out) == (3, "") and err.startswith(LEVEL_SET_ERROR.format(name)), err


def test_loose_tolerance_does_not_make_an_off_set_point_active(tmp_path, capsys):
    """ex32 at (0.5, 0.5), where h = -0.25, with a verdict tolerance of 0.5:
    activity is tested at the default tolerance, not the verdict one."""
    path = tmp_path / "off_set.json"
    path.write_text(json.dumps({
        "version": "1",
        "constraint": {"type": "fixture", "name": "ex32"},
        "query": {"point": [0.5, 0.5], "directions": [[2.0, -1.0]], "regime": "float", "tolerance": 0.5},
    }))
    for command in ("cones", "first-order", "second-order"):
        code, out, err = run_cli(capsys, command, "--input", str(path))
        assert (code, out) == (3, ""), command
        assert err.startswith("error: constraint value -0.25 at the queried point exceeds the activity tolerance 1e-09")


def test_verify_of_a_zero_tolerance_level_set_report_exits_three(tmp_path, capsys):
    """A report of first-order on exact ex32 at (1/3, 2/3), as earlier
    versions wrote it, cannot be re-run."""
    report = {
        "command": "first-order",
        "configuration": {"regime": "exact", "tolerance": 0.0, "tolerance_override": None},
        "exit_code": 1,
        "problem": _ex32_at_one_third("exact"),
        "results": {
            "condition": {
                "boundary": False, "certificate": None, "checked_directions": None,
                "condition": "FirstOrder", "margin": "-inf",
                "notes": "pairing is unbounded below on the region", "verdict": "fails",
                "witness": [-0.3137254901960784, 0.07843137254901955], "witness_direction": None,
            },
            "gradient": ["2/3", "4/3"],
            "mode": "smooth",
            "tangent_region": {"kind": "hyperplane", "normal": [0.6666666666666666, 2.6666666666666665],
                               "normalized_offset": 0.0, "offset": 0.0},
        },
        "timestamp": "2026-01-01T00:00:00+00:00",
        "tool": {"name": "cone-audit", "version": "0.1.0"},
    }
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    code, out, err = run_cli(capsys, "verify", "--input", str(path))
    assert (code, out) == (3, "")
    assert err.startswith("not a usable report document: AnalysisError(\"fixture 'ex32' is a smooth level set")


def test_ssd_on_exact_ex31_reads_no_constraint(tmp_path, capsys):
    """ssd never reads the level set, so the exact regime leaves it working."""
    path = tmp_path / "ex31.json"
    path.write_text(json.dumps({"version": "1", "constraint": {"type": "fixture", "name": "ex31"},
                                "query": {"regime": "exact", "z_candidates": [["0", "-2"]]}}))
    code, out, err = run_cli(capsys, "ssd", "--input", str(path))
    assert (code, err) == (0, "") and "z = (0, -2), v = (0, 1): Member" in out


def test_verify_substitutes_theorem41_gradient_condition_witness(tmp_path, capsys):
    """x^2/2 - x over x >= 0 at 0, direction 0: the gradient condition fails
    with witness 1, and a swapped witness is checked on T2(x, v)."""
    problem = {
        "version": "1",
        "constraint": {
            "type": "polyhedron",
            "dimension": 1,
            "inequalities": {"rows": [["-1"]], "bounds": ["0"]},
        },
        "objective": {"type": "quadratic", "matrix": [["1"]], "linear": ["-1"]},
        "query": {"point": ["0"], "directions": [["0"]], "regime": "exact"},
    }
    report = run_analysis(parse_problem(json.dumps(problem)), "theorem41")
    condition = report["results"]["directions"][0]["gradient_condition"]
    assert (condition["verdict"], condition["witness"]) == ("fails", ["1"])
    ok, checks = revalidate_report(report)
    assert ok and checks[-1]["check"] == "gradient condition: witness violates the inequality"
    # -5 lies outside T2(x, v) = {w >= 0}; 5, a positive multiple of the
    # ray, is still a witness, so only the reproduction check flags it
    condition["witness"] = ["-5"]
    out = _tampered_verify(report, capsys, tmp_path)
    assert "[FAIL] gradient condition: witness violates the inequality  (<grad, w> = 5)" in out
    condition["witness"] = ["5"]
    out = _tampered_verify(report, capsys, tmp_path)
    assert "[ok ] gradient condition: witness violates the inequality  (<grad, w> = -5)" in out


def test_theorem41_decides_exact_quadratic_data_on_the_exact_gradient():
    """-x1/3 over x1 <= 0 at the origin, direction e2: the gradient M x + q =
    (-1/3, 0) is not a binary64 number.  The report's multiplier is exactly
    1/3 and its Lagrange identity holds exactly; on the float gradient the
    same check certifies another multiplier."""
    problem = parse_problem(
        json.dumps(
            {
                "version": "1",
                "constraint": {
                    "type": "polyhedron",
                    "dimension": 2,
                    "inequalities": {"rows": [["1", "0"]], "bounds": ["0"]},
                },
                "objective": {
                    "type": "quadratic",
                    "matrix": [["0", "0"], ["0", "0"]],
                    "linear": ["-1/3", "0"],
                },
                "query": {"point": ["0", "0"], "directions": [["0", "1"]], "regime": "exact"},
            }
        )
    )
    report = run_analysis(problem, "theorem41")
    entry = report["results"]["directions"][0]
    assert entry["status"] == "Holds"
    certificate = entry["gradient_condition"]["certificate"]
    assert [m["value"] for m in certificate["inequality_multipliers"]] == ["1/3"]
    ok, checks = revalidate_report(report)
    assert ok, checks
    assert checks[-1] == {
        "check": "gradient condition: Lagrange certificate identity",
        "ok": True,
        "detail": "-grad = sum(lambda_i row_i) + A^T mu re-verified exactly",
    }
    tangent = problem.polyhedron.tangent_cone(RationalVector.zero(2))
    (floated,) = theorem41_check(problem.smooth_objective(), tangent, (0.0, 0.0), [(0.0, 1.0)], [])
    ((_, _, multiplier),) = floated.gradient_condition.certificate.inequality_multipliers
    assert multiplier == Fraction(1 / 3) != Fraction(1, 3)


def test_theorem41_decides_exact_data_with_tolerance_zero(tmp_path, capsys):
    """x1/10^10 over x1 <= 0 at the origin, direction e2: <grad, w> = w1/10^10
    is negative on T2(x, v) = {w1 <= 0}.  In the exact regime theorem41
    decides with tolerance 0, as second-order does, where a tolerance of
    1e-9 would call the violation a boundary Holds."""
    problem = {
        "version": "1",
        "constraint": {
            "type": "polyhedron",
            "dimension": 2,
            "inequalities": {"rows": [["1", "0"]], "bounds": ["0"]},
        },
        "objective": {
            "type": "quadratic",
            "matrix": [["0", "0"], ["0", "0"]],
            "linear": ["1/10000000000", "0"],
        },
        "query": {"point": ["0", "0"], "directions": [["0", "1"]], "regime": "exact"},
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(problem))
    code, out, _ = run_cli(capsys, "theorem41", "--input", str(path), "--format", "json")
    assert code == 1
    entry = json.loads(out)["results"]["directions"][0]
    condition = entry["gradient_condition"]
    assert (entry["status"], condition["verdict"]) == ("Fails", "fails")
    assert (condition["margin"], condition["boundary"]) == ("-1/10000000000", False)
    code, second, _ = run_cli(capsys, "second-order", "--input", str(path), "--format", "json")
    c1 = json.loads(second)["results"]["directions"][0]["c1"]
    assert (c1["verdict"], c1["margin"], c1["witness"]) == ("fails", "-1/10000000000", condition["witness"])
    report_path = tmp_path / "report.json"
    report_path.write_text(out)
    code, out, err = run_cli(capsys, "verify", "--input", str(report_path))
    assert code == 0, err
    assert "[ok ] gradient condition: witness violates the inequality" in out


def test_theorem41_pairs_exact_candidates_exactly(tmp_path, capsys):
    """An interior point of R^3, so v and -v are tangent and <z, v> = 0 for
    z = (-1, -1, 1) and v = (1/10, 1/5, 3/10); in binary64 the product is
    about -5.6e-17, which tolerance 0 would call a failed pairing."""
    problem = {
        "version": "1",
        "constraint": {
            "type": "polyhedron",
            "dimension": 3,
            "inequalities": {"rows": [["1", "0", "0"]], "bounds": ["1"]},
        },
        "objective": {
            "type": "quadratic",
            "matrix": [["0", "0", "0"]] * 3,
            "linear": ["0", "0", "0"],
        },
        "query": {
            "point": ["0", "0", "0"],
            "directions": [["1/10", "1/5", "3/10"]],
            "z_candidates": [["-1", "-1", "1"]],
            "regime": "exact",
        },
    }
    assert float(-0.1 - 0.2 + 0.3) < 0
    path = tmp_path / "p.json"
    path.write_text(json.dumps(problem))
    code, out, _ = run_cli(capsys, "theorem41", "--input", str(path), "--format", "json")
    assert code == 0
    entry = json.loads(out)["results"]["directions"][0]
    assert entry["status"] == "Holds"
    assert entry["pairings"] == [{"candidate": ["-1", "-1", "1"], "pairing": "0", "holds": True}]
    report_path = tmp_path / "report.json"
    report_path.write_text(out)
    code, out, err = run_cli(capsys, "verify", "--input", str(report_path))
    assert code == 0, err
    assert "[ok ] pairing <z, v> reproduces  (<z, v> = 0)" in out


def _orthant_qp_with(tmp_path, **query) -> str:
    """problems/orthant_qp.json with its query block extended, as a file."""
    with open(os.path.join(PROBLEMS, "orthant_qp.json"), encoding="utf-8") as handle:
        problem = json.load(handle)
    problem["query"].update(query)
    path = tmp_path / "orthant_query.json"
    path.write_text(json.dumps(problem))
    return str(path)


def test_a_direction_past_the_float_range_stays_exact(tmp_path, capsys):
    """A 401-digit direction, beyond binary64, which an exact run never
    enters: second-order holds along it, theorem41 finds -v not tangent,
    and verify re-reads both reports, <z, v> = 10^400 in its detail."""
    path = _orthant_qp_with(tmp_path, directions=[["1" + "0" * 400, "0"]], z_candidates=[["1", "1"]])
    for command, expected in (("second-order", 0), ("theorem41", 1)):
        code, out, err = run_cli(capsys, command, "--input", path, "--format", "json")
        assert code == expected, err
        report = tmp_path / "report.json"
        report.write_text(out)
        code, out, err = run_cli(capsys, "verify", "--input", str(report))
        assert code == 0, out + err
    assert "(<z, v> = 1e+400)" in out


def test_exact_theorem41_reports_rationals(tmp_path, capsys):
    path = _orthant_qp_with(tmp_path, directions=[["1/3", "0"]], z_candidates=[["1", "1"]])
    code, out, _ = run_cli(capsys, "theorem41", "--input", path, "--format", "json")
    assert code == 1  # -v is not tangent to the orthant
    (entry,) = json.loads(out)["results"]["directions"]
    assert entry["direction"] == ["1/3", "0"]
    assert entry["pairings"] == [{"candidate": ["1", "1"], "pairing": "1/3", "holds": True}]


# x1 >= 0, x2 >= 0 in R^3 at the origin with zero gradient: the critical cone
# has the lineality line e3 and the rays e1, e2.  Each matrix has nonnegative
# forms on all four generators +-e3, e1, e2 and a negative pairwise product,
# so the cell test decides it after eliminating e3: the minimum of the form
# over x3 is copositive on (x1, x2) for the first ([[1, 2], [2, 1]]) and not
# for the second ([[1, -2], [-2, 1]], witness (1, 1, -1) with form -2).
LINEALITY_AND_RAYS = (
    ([["2", "2", "1"], ["2", "1", "0"], ["1", "0", "1"]], "holds", None),
    ([["2", "-2", "1"], ["-2", "1", "0"], ["1", "0", "1"]], "fails", ["1", "1", "-1"]),
)


def test_qp_decides_cones_with_lineality_and_rays(tmp_path, capsys):
    for matrix, verdict, witness in LINEALITY_AND_RAYS:
        problem = {
            "version": "1",
            "constraint": {
                "type": "polyhedron",
                "dimension": 3,
                "inequalities": {"rows": [["-1", "0", "0"], ["0", "-1", "0"]], "bounds": ["0", "0"]},
            },
            "objective": {"type": "quadratic", "matrix": matrix, "linear": ["0", "0", "0"]},
            "query": {"point": ["0", "0", "0"], "regime": "exact"},
        }
        path = tmp_path / "p.json"
        path.write_text(json.dumps(problem))
        code, out, _ = run_cli(capsys, "qp", "--input", str(path), "--format", "json")
        c2p = json.loads(out)["results"]["c2_prime"]
        assert code == (0 if verdict == "holds" else 1)
        assert (c2p["verdict"], c2p["witness"]) == (verdict, witness)
        assert c2p["certificate"]["method"] == "cottle-habetler-lemke"
        assert c2p["margin"] == (None if witness is None else "-2")
        report_path = tmp_path / "report.json"
        report_path.write_text(out)
        code, out, err = run_cli(capsys, "verify", "--input", str(report_path))
        assert code == 0, err
        if witness is not None:
            assert "[ok ] c2': witness is a critical direction with negative form" in out


def _fractions(values) -> list[str]:
    return [str(a) for a in values]


def random_qp_problem(seed: int, dim: int, num_eq: int, num_directions: int, stationary: bool) -> dict:
    """A QP over a random polyhedron at its known feasible point, with
    directions drawn as nonnegative combinations of the tangent cone's
    generators; q = -M x makes the point stationary."""
    rng = random.Random(seed)
    polyhedron, base = random_feasible_polyhedron(
        rng, dim, rng.randint(1, 2 * dim), num_eq, active_probability=0.7
    )
    entries = {(i, j): small_fraction(rng) for i in range(dim) for j in range(i, dim)}
    hessian = [[entries[min(i, j), max(i, j)] for j in range(dim)] for i in range(dim)]
    linear = (
        RationalVector([-sum(h * b for h, b in zip(row, base)) for row in hessian])
        if stationary
        else random_vector(rng, dim)
    )
    spanning = polyhedron.tangent_cone(base).generators().spanning_vectors()
    directions = []
    for _ in range(num_directions):
        direction = RationalVector.zero(dim)
        for g in spanning:
            direction = direction + g.scale(rng.randint(0, 2))
        directions.append(_fractions(direction))
    constraint = {
        "type": "polyhedron",
        "dimension": dim,
        "inequalities": {
            "rows": [_fractions(r) for r in polyhedron.ineq_matrix.rows],
            "bounds": _fractions(polyhedron.ineq_rhs),
        },
    }
    if num_eq:
        constraint["equalities"] = {
            "matrix": [_fractions(r) for r in polyhedron.eq_matrix.rows],
            "rhs": _fractions(polyhedron.eq_rhs),
        }
    return {
        "version": "1",
        "constraint": constraint,
        "objective": {
            "type": "quadratic",
            "matrix": [_fractions(r) for r in hessian],
            "linear": _fractions(linear),
        },
        "query": {"point": _fractions(base), "directions": directions, "regime": "exact"},
    }


def _is_dyadic(doc: dict) -> bool:
    """Whether the query's point and directions are dyadic, so binary64
    holds them exactly."""
    query = doc["query"]
    vectors = [query["point"], *query["directions"]]
    return not any(Fraction(a).denominator & (Fraction(a).denominator - 1) for vec in vectors for a in vec)


def _as_float_query(doc: dict) -> None:
    query = doc["query"]
    floats = [[float(Fraction(a)) for a in vec] for vec in [query["point"], *query["directions"]]]
    query.update(regime="float", point=floats[0], directions=floats[1:])


@settings(
    derandomize=True,
    deadline=None,
    max_examples=100,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(
    st.integers(0, 2**32), st.integers(2, 5), st.integers(0, 2), st.integers(1, 3), st.booleans(),
    st.sampled_from([("exact", None), ("float", 0.0), ("float", None), ("exact", 0.0)]),
)
def test_random_qp_reports_revalidate(seed, dim, num_eq, num_directions, stationary, regime_and_tolerance):
    """Every polyhedral command's JSON report re-verifies: it reproduces and
    its witnesses and certificates substitute back.  Float problems keep
    the draws whose point and directions are dyadic; `qp` is exact only."""
    regime, tolerance = regime_and_tolerance
    doc = random_qp_problem(seed, dim, num_eq, num_directions, stationary)
    commands = ["cones", "first-order", "second-order", "qp", "theorem41"]
    if regime == "float":
        assume(_is_dyadic(doc))
        _as_float_query(doc)
        commands.remove("qp")
    problem = parse_problem(json.dumps(doc))
    for command in commands:
        report = json.loads(json.dumps(run_analysis(problem, command, tolerance=tolerance)))
        ok, checks = revalidate_report(report)
        assert ok, (command, checks)


BOUNDED_FLOATS = st.floats(-1e3, 1e3, allow_nan=False)
SMALL_QUADRATICS = st.lists(st.integers(-3, 3), min_size=5, max_size=5).map(
    lambda e: {"type": "quadratic", "matrix": [[str(e[0]), str(e[1])], [str(e[1]), str(e[2])]],
               "linear": [str(e[3]), str(e[4])]}
)


def _assert_reports_revalidate(doc: dict, commands) -> None:
    problem = parse_problem(json.dumps(doc))
    for command in commands:
        report = json.loads(json.dumps(run_analysis(problem, command)))
        ok, checks = revalidate_report(report)
        assert ok, (command, checks)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    st.sampled_from(["ex31", "ex32"]), st.floats(0, 2 * math.pi),
    st.lists(st.tuples(BOUNDED_FLOATS, st.one_of(st.just(0.0), st.floats(0, 1e3))), min_size=1, max_size=3),
    st.one_of(st.none(), SMALL_QUADRATICS),
)
def test_level_set_reports_revalidate(name, angle, steps, objective):
    """ex31 and ex32 at float points of their boundaries, with directions
    along the boundary and, on ex31, into the disk (where T2(x, v) is the
    whole plane), under the fixture's or a quadratic objective: every cones,
    first-order and second-order report re-verifies."""
    (a, b), scale = ((math.sqrt(3), math.sqrt(2)), (4, 6)) if name == "ex31" else ((1, math.sqrt(0.5)), (2, 4))
    point = [a * math.cos(angle), b * math.sin(angle)]
    normal = [scale[0] * point[0], scale[1] * point[1]]
    length = math.hypot(*normal)
    inward = 1.0 if name == "ex31" else 0.0
    doc = {
        "version": "1",
        "constraint": {"type": "fixture", "name": name},
        "query": {"point": point, "regime": "float", "directions": [
            [(-s * normal[1] - inward * t * normal[0]) / length, (s * normal[0] - inward * t * normal[1]) / length]
            for s, t in steps
        ]},
    }
    if objective is not None:
        doc["objective"] = objective
    _assert_reports_revalidate(doc, ["cones", "first-order", "second-order"])


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    st.one_of(st.just(0.0), st.floats(0, 1e3)),
    st.lists(BOUNDED_FLOATS, min_size=1, max_size=2),
    st.lists(BOUNDED_FLOATS, min_size=1, max_size=2),
)
def test_ex41_ssd_reports_revalidate(point, directions, candidates):
    """ssd on ex41 at a point of the half-line: the report re-verifies."""
    doc = {
        "version": "1",
        "constraint": {"type": "fixture", "name": "ex41"},
        "query": {"point": [point], "directions": [[d] for d in directions],
                  "z_candidates": [[z] for z in candidates], "regime": "float"},
    }
    _assert_reports_revalidate(doc, ["ssd"])


@settings(
    derandomize=True,
    deadline=None,
    max_examples=150,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(
    st.integers(0, 2**32), st.integers(1, 3), st.integers(0, 1), st.booleans(),
    st.lists(st.tuples(BOUNDED_FLOATS, BOUNDED_FLOATS, BOUNDED_FLOATS), min_size=1, max_size=3),
)
def test_theorem41_float_reports_revalidate(seed, dim, num_eq, stationary, candidates):
    """theorem41 on a seeded 1-3-D polyhedron with a float quadratic
    objective and float candidates z: the report re-verifies.  Keeps the
    draws whose point and directions are dyadic."""
    doc = random_qp_problem(seed, dim, min(num_eq, dim - 1), 2, stationary)
    assume(_is_dyadic(doc))
    _as_float_query(doc)
    doc["query"]["z_candidates"] = [list(z[:dim]) for z in candidates]
    _assert_reports_revalidate(doc, ["theorem41"])


@pytest.mark.parametrize("regime", ["exact", "float"])
def test_theorem41_and_second_order_agree_at_every_tangent_direction(regime):
    """Both commands read a direction's flags and (c1) off one pass over
    T(x): theorem41's flags and gradient condition are second-order's
    critical flags and c1, entry for entry.  Float problems keep the seeds
    whose point and directions are dyadic, so binary64 holds them exactly."""
    compared = 0
    for seed in range(60):
        doc = random_qp_problem(seed, 2 + seed % 3, seed % 2, 2, seed % 3 == 0)
        if regime == "float":
            if not _is_dyadic(doc):
                continue
            _as_float_query(doc)
        problem = parse_problem(json.dumps(doc))
        second = run_analysis(problem, "second-order")["results"]["directions"]
        theorem41 = run_analysis(problem, "theorem41")["results"]["directions"]
        for ours, theirs in zip(theorem41, second, strict=True):
            assert ours["critical_flags"] == theirs["critical_flags"], seed
            assert ours["gradient_condition"] == theirs["c1"], seed
            compared += 1
    assert compared >= 40


def test_verify_builds_no_tangent_cone_beyond_the_rerun(monkeypatch):
    """`verify` re-runs the command on the context it checks on, so every
    T2(x, v) and the critical cone are read from the re-run's T(x)."""
    counts = Counter()
    real = geometry.Polyhedron.tangent_cone

    def counted(self, x):
        counts["tangent_cone"] += 1
        return real(self, x)

    monkeypatch.setattr(geometry.Polyhedron, "tangent_cone", counted)
    problem = parse_problem(json.dumps(random_qp_problem(3, 3, 1, 2, True)))
    for command in ("cones", "first-order", "second-order", "qp", "theorem41"):
        counts.clear()
        report = run_analysis(problem, command)
        bare = counts["tangent_cone"]
        counts.clear()
        ok, checks = revalidate_report(report)
        assert ok, checks
        assert counts["tangent_cone"] == bare, command


def test_second_order_verifies_each_certificate_once(monkeypatch):
    """`second-order` checks one Lagrange certificate per direction whose
    (c1) holds on a cone: (c1) and the classical check read the same one."""
    calls = Counter()
    real = optimality.LagrangeCertificate.verify

    def counted(self, gradient, cone):
        calls["verify"] += 1
        return real(self, gradient, cone)

    monkeypatch.setattr(optimality.LagrangeCertificate, "verify", counted)
    problem = parse_problem(json.dumps(random_qp_problem(3, 3, 1, 2, True)))
    report = run_analysis(problem, "second-order")
    certified = [entry for entry in report["results"]["directions"] if entry["c1"]["certificate"] is not None]
    assert certified
    assert calls["verify"] == len(certified)


def test_level_set_runs_evaluate_the_constraint_once(monkeypatch):
    """A two-direction `second-order` on ex31 reads every T2(x, v) off one
    T(x), so it evaluates the constraint's value and gradient once, and so
    does `verify` of its report."""
    calls = Counter()
    build = objectives._FIXTURE_BUILDERS["ex31"]

    def counted_ex31():
        fx = build()
        constraint = fx.constraint

        def value(x):
            calls["value"] += 1
            return constraint.value(x)

        def gradient(x):
            calls["gradient"] += 1
            return constraint.gradient(x)

        return fx._replace(constraint=constraint._replace(value=value, gradient=gradient))

    monkeypatch.setitem(objectives._FIXTURE_BUILDERS, "ex31", counted_ex31)
    doc = {"version": "1", "constraint": {"type": "fixture", "name": "ex31"},
           "query": {"regime": "float", "directions": [[0.0, 1.0], [0.0, -1.0]]}}
    report = run_analysis(parse_problem(json.dumps(doc)), "second-order")
    assert calls == {"value": 1, "gradient": 1}
    calls.clear()
    ok, checks = revalidate_report(report)
    assert ok, checks
    assert calls == {"value": 1, "gradient": 1}


def test_direction_into_a_level_set_gets_the_whole_space(tmp_path, capsys):
    """ex31 at (sqrt 3, 0) along (-1, 0), into the disk: T2(x, v) is the whole
    space, on which (c1) fails along (1, 0) and the classical infimum is
    -inf; `cones` reports that cone, and both reports verify."""
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"version": "1", "constraint": {"type": "fixture", "name": "ex31"},
                                "query": {"regime": "float", "directions": [[-1.0, 0.0]]}}))
    whole_plane = {"dimension": 2, "equalities": [], "inequalities": [], "row_origins": []}
    code, out, err = run_cli(capsys, "second-order", "--input", str(path), "--format", "json")
    assert (code, err) == (1, "")
    (entry,) = json.loads(out)["results"]["directions"]
    assert entry["second_order_set"] == whole_plane and "second_order_region" not in entry
    assert (entry["c1"]["verdict"], entry["c1"]["witness"]) == ("fails", ["1", "0"])
    assert math.isclose(entry["c1"]["margin"], -4 * math.sqrt(3))
    assert (entry["classical"]["verdict"], entry["classical"]["margin"]) == ("fails", "-inf")
    second_order = tmp_path / "second_order.json"
    second_order.write_text(out)
    code, out, err = run_cli(capsys, "cones", "--input", str(path), "--format", "json")
    assert (code, err) == (0, "")
    (entry,) = json.loads(out)["results"]["second_order_tangent_regions"]
    whole_plane.update(rays=[], lineality=[["0", "1"], ["1", "0"]])
    assert entry == {"direction": [-1.0, 0.0], "cone": whole_plane}
    cones = tmp_path / "cones.json"
    cones.write_text(out)
    for report in (second_order, cones):
        code, out, err = run_cli(capsys, "verify", "--input", str(report))
        assert (code, err) == (0, ""), out
    assert "[ok ] second-order set: generators satisfy the H-representation" in out
    code, out, err = run_cli(capsys, "cones", "--input", str(path))
    assert "second-order tangent set at v = (-1.0, 0.0):\n  (no constraints: the whole space)\n" in out


def _dependent_equality_problem() -> dict:
    """0 in R^7 on {E x = 0, G x <= 0} with M = 0: the fourth equality row is
    twice the first, so E has dependent rows."""
    eq = [
        ["1/3", "-2", "3/5", "-3/2", "1", "-1", "-1"],
        ["0", "0", "-2", "3/5", "-1/3", "1/2", "-2"],
        ["2", "1/3", "-1", "-1/5", "-1/5", "-1", "2"],
        ["2/3", "-4", "6/5", "-3", "2", "-2", "-2"],
    ]
    ineq = [
        ["-3/2", "2", "0", "0", "1/2", "-3/5", "-1/3"],
        ["-4/5", "-4", "1", "-1", "-3", "-3/5", "0"],
        ["1", "-2/5", "-1/2", "-1/3", "3/5", "1", "0"],
        ["3/2", "-1", "2", "-3/2", "4", "-4", "1"],
        ["-2/5", "1", "-4", "-2/3", "-1/2", "-1", "-2/3"],
        ["-3/5", "-3/2", "-2", "2/5", "0", "-1/5", "1"],
        ["3", "-4", "-1", "-3", "0", "-2", "4"],
        ["1", "3/5", "-1", "3", "4/5", "-4/3", "2"],
        ["-2", "-4/5", "-1/3", "1/2", "-3", "1/3", "2"],
        ["0", "0", "3", "-4/5", "2", "-1/3", "0"],
    ]
    return {
        "version": "1",
        "constraint": {
            "type": "polyhedron",
            "dimension": 7,
            "equalities": {"matrix": eq, "rhs": ["0"] * 4},
            "inequalities": {"rows": ineq, "bounds": ["0"] * 10},
        },
        "objective": {
            "type": "quadratic",
            "matrix": [["0"] * 7] * 7,
            "linear": ["1/3", "-2/5", "1/5", "2", "4/3", "-3", "3/5"],
        },
        "query": {"point": ["0"] * 7, "regime": "exact"},
    }


def test_dependent_equality_rows_certify_and_verify(tmp_path, capsys):
    """The multipliers of dependent equality rows solve E'y = c + G'lambda,
    so the stationarity LP certifies instead of failing its self-check."""
    path = tmp_path / "p.json"
    path.write_text(json.dumps(_dependent_equality_problem()))
    for command, key in (("first-order", "condition"), ("qp", "c0")):
        code, out, err = run_cli(capsys, command, "--input", str(path), "--format", "json")
        assert code == 0, err
        condition = json.loads(out)["results"][key]
        assert (condition["verdict"], condition["certificate"]["type"]) == ("holds", "lagrange")
        report_path = tmp_path / "report.json"
        report_path.write_text(out)
        code, out, err = run_cli(capsys, "verify", "--input", str(report_path))
        assert code == 0, err
        assert "Lagrange certificate identity" in out


def test_verify_fails_a_lagrange_certificate_with_one_mu_too_few_or_too_many(tmp_path, capsys):
    """A report whose certificate has one equality multiplier too many or
    too few fails the identity check: no IndexError, and no missing mu read
    as 0."""
    report = run_analysis(parse_problem(json.dumps(_dependent_equality_problem())), "first-order")
    certificate = report["results"]["condition"]["certificate"]
    mus = certificate["equality_multipliers"]
    for tampered in (mus + ["0"], mus[:-1]):
        certificate["equality_multipliers"] = tampered
        out = _tampered_verify(report, capsys, tmp_path)
        assert "[FAIL] first-order: Lagrange certificate identity" in out


def test_verify_fails_a_lagrange_certificate_with_a_position_out_of_range(tmp_path, capsys):
    """Position 99 died with an IndexError; -1 read the last row and passed."""
    code, out, _ = run_cli(capsys, "qp", "--input", os.path.join(PROBLEMS, "orthant_qp.json"), "--format", "json")
    assert code == 0
    for position in (99, -1):
        report = json.loads(out)
        report["results"]["c0"]["certificate"]["inequality_multipliers"][0]["position"] = position
        text = _tampered_verify(report, capsys, tmp_path)
        assert "[FAIL] c0: Lagrange certificate identity" in text and "Traceback" not in text


def test_verify_fails_a_lagrange_certificate_with_a_position_that_is_not_an_int(tmp_path, capsys):
    """Position 1.0 died with a TypeError; True read row 1 and passed."""
    code, out, _ = run_cli(capsys, "qp", "--input", os.path.join(PROBLEMS, "orthant_qp.json"), "--format", "json")
    assert code == 0
    for position in (1.0, True):
        report = json.loads(out)
        report["results"]["c0"]["certificate"]["inequality_multipliers"][0]["position"] = position
        text = _tampered_verify(report, capsys, tmp_path)
        assert "[FAIL] c0: Lagrange certificate identity" in text and "Traceback" not in text


def test_internal_self_check_failure_exits_three(tmp_path, capsys, monkeypatch):
    path = os.path.join(PROBLEMS, "orthant_qp.json")
    code, out, _ = run_cli(capsys, "qp", "--input", path, "--format", "json")
    assert code == 0
    report_path = tmp_path / "report.json"
    report_path.write_text(out)

    def failing(*args):
        raise RuntimeError("LP dual certificate failed exact verification")

    monkeypatch.setattr(lp, "_verify_dual", failing)
    for argv in (("qp", "--input", path), ("verify", "--input", str(report_path))):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert err == "internal error: LP dual certificate failed exact verification\n"


def test_wrong_lp_ray_exits_three(tmp_path, capsys, monkeypatch):
    """min -x1 + x2 over the nonnegative quadrant at 0: (c0) fails along e1,
    and a ray that is not one fails the LP's own check."""
    problem = {
        "version": "1",
        "constraint": {
            "type": "polyhedron",
            "dimension": 2,
            "inequalities": {"rows": [["-1", "0"], ["0", "-1"]], "bounds": ["0", "0"]},
        },
        "objective": {"type": "quadratic", "matrix": [["0", "0"], ["0", "0"]], "linear": ["-1", "1"]},
        "query": {"point": ["0", "0"], "regime": "exact"},
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(problem))
    for command in ("qp", "first-order"):
        code, _, err = run_cli(capsys, command, "--input", str(path))
        assert code == 1, err
    monkeypatch.setattr(lp._Simplex, "_ray", lambda self, entering: RationalVector.zero(self.n))
    for command in ("qp", "first-order"):
        code, out, err = run_cli(capsys, command, "--input", str(path))
        assert code == 3
        assert err == "internal error: LP recession ray failed exact verification\n"


def _ex41_ssd_problem(tmp_path, **query_fields) -> str:
    query = {"point": [0.0], "directions": [[1.0]], "z_candidates": [-0.5], "regime": "float"}
    query.update(query_fields)
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"version": "1", "constraint": {"type": "fixture", "name": "ex41"}, "query": query}))
    return str(path)


def test_non_list_directions_and_non_finite_tolerance_exit_three(tmp_path, capsys):
    for fields, message in (
        ({"directions": 5}, "schema error: $.query.directions: expected a list\n"),
        ({"z_candidates": 5}, "schema error: $.query.z_candidates: expected a list\n"),
        ({"tolerance": math.inf}, "schema error: $.query.tolerance: expected a positive finite number\n"),
    ):
        code, _, err = run_cli(capsys, "first-order", "--input", _ex41_ssd_problem(tmp_path, **fields))
        assert (code, err) == (3, message)


def test_z_candidates_of_the_wrong_length_exit_three(tmp_path, capsys):
    """ssd read only z[0] of a long candidate in 1-D and broadcast a short
    one against the 2-D Hessian action; theorem41 died in numpy."""
    ex31 = tmp_path / "ex31.json"
    ex31.write_text(json.dumps({
        "version": "1",
        "constraint": {"type": "fixture", "name": "ex31"},
        "query": {"point": [0.5, 0.5], "directions": [[1.0, 0.0]], "z_candidates": [[-2.0]], "regime": "float"},
    }))
    for command, path, message in (
        ("ssd", _ex41_ssd_problem(tmp_path, z_candidates=[[-0.5, 99]]), "candidate has 2 entries, expected 1"),
        ("ssd", str(ex31), "candidate has 1 entries, expected 2"),
        ("theorem41", _ex41_ssd_problem(tmp_path, z_candidates=[[-0.5, 99]]), "candidate has 2 entries, expected 1"),
    ):
        code, out, err = run_cli(capsys, command, "--input", path)
        assert (code, out, err) == (3, "", f"schema error: $.query.z_candidates[0]: {message}\n")


def test_tolerance_flag_takes_finite_nonnegative_values(tmp_path, capsys):
    path = _ex41_ssd_problem(tmp_path)
    for bad in ("nan", "inf", "-inf", "-1e-9", "x"):
        code, _, err = run_cli(capsys, "first-order", "--input", path, "--tolerance", bad)
        assert code == 3 and "argument --tolerance" in err
    code, _, err = run_cli(capsys, "first-order", "--input", path, "--tolerance", "0")
    assert code == 0, err


def test_mesh_is_not_an_option(tmp_path, capsys):
    code, out, err = run_cli(capsys, "ssd", "--input", _ex41_ssd_problem(tmp_path), "--mesh", "1:8:0.5")
    assert (code, out) == (3, "") and "error: unrecognized arguments: --mesh 1:8:0.5" in err


def test_verify_of_an_edited_mesh_fails_reproduction(tmp_path, capsys):
    """A report's configuration holds the regime and the tolerances only, so
    a report with a ``configuration.mesh`` or ``configuration.ssd_tolerance``
    added, as earlier versions wrote them, no longer reproduces: `verify`
    exits 1 with that check failing."""
    code, out, err = run_cli(capsys, "ssd", "--input", _ex41_ssd_problem(tmp_path), "--format", "json")
    assert code == 0, err
    report = json.loads(out)
    assert report["configuration"] == {"regime": "float", "tolerance": 1e-9, "tolerance_override": None}
    report_path = tmp_path / "report.json"
    for key, value in (("mesh", "1.0:8.0:0.5"), ("mesh", None), ("ssd_tolerance", 1e-06)):
        edited = {**report, "configuration": {**report["configuration"], key: value}}
        report_path.write_text(json.dumps(edited))
        code, out, err = run_cli(capsys, "verify", "--input", str(report_path), "--format", "json")
        assert (code, err) == (1, ""), key
        checks = {check["check"]: check["ok"] for check in json.loads(out)["checks"]}
        assert checks.pop("deterministic reproduction") is False and all(checks.values()), key


def test_documented_usage_names_exactly_the_parser_options():
    """README's usage block and the cli docstring's usage line name the
    parser's positional and every option it defines, and nothing else."""
    (positional,) = [a.dest for a in cli._PARSER._actions if not a.option_strings]
    options = {s for a in cli._PARSER._actions if a.dest != "help" for s in a.option_strings}
    head = f"cone-audit <{positional}>"
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8") as handle:
        readme = handle.read()
    usages = {
        "README": readme.partition("```sh\n" + head)[2].partition("```")[0],
        "cli docstring": cli.__doc__.partition(head)[2].partition("\n\n")[0],
    }
    for where, usage in usages.items():
        assert usage and set(re.findall(r"--[a-z][a-z-]*", usage)) == options, where


@pytest.mark.parametrize("command", ["qp", "verify"])
@pytest.mark.parametrize(
    "content, message",
    [
        (b"\xff\xfe", "cannot read {path}: 'utf-8' codec can't decode byte 0xff"),
        (b"[" * 100_000 + b"]" * 100_000, "not valid JSON: maximum recursion depth exceeded"),
        (b'{"version": "1", "x": ' + b"1" * 5000 + b"}", "not valid JSON: Exceeds the limit (4300 digits)"),
    ],
    ids=["not-utf8", "nested-100000-deep", "int-5000-digits"],
)
def test_unreadable_or_too_deep_input_exits_three(tmp_path, capsys, command, content, message):
    """A file that is not UTF-8, JSON nested beyond the parser's recursion
    limit, or an integer literal beyond its digit limit, is an input error
    (exit 3), not a traceback or a self-check failure."""
    path = tmp_path / "input.json"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, command, "--input", str(path))
    assert (code, out) == (3, "")
    assert message.format(path=path) in err and "internal error" not in err


# plain strings need no escape; each of the others needs one, in JSON or in ASCII
plain_text = st.sampled_from(["", "0", "-2/3", "a b", "~"])
escaped_text = st.sampled_from(['"', "\\", "\x7f", "\x00", "\x1f", "\n", "é", "\u2028", "\U0001f600"])
json_text = plain_text | escaped_text | st.text(max_size=4)
string_lists = st.lists(plain_text | escaped_text, min_size=1, max_size=4)
json_trees = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([10**400, -(10**40), 2**63])
    | st.floats()
    | st.sampled_from([0.0, -0.0, 1e16, 1e-7, math.nan, math.inf, -math.inf])
    | json_text,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(json_text, children, max_size=4)
    | string_lists
    | st.lists(string_lists | st.just([]), max_size=3),
    max_leaves=12,
)


@settings(derandomize=True, deadline=None, max_examples=400, suppress_health_check=[HealthCheck.too_slow])
@given(json_trees)
def test_render_json_is_json_dumps_byte_for_byte(tree):
    assert _render_json(tree) == json.dumps(tree, sort_keys=True, indent=2)


class _Level(enum.IntEnum):
    HIGH = 2


class _Text(str):
    pass


@pytest.mark.parametrize(
    "tree",
    [[], {}, [[]], [{}], {"a": [], "b": {}}, ([],), {"k": [[], [[]]]},
     [_Level.HIGH, True, 1], [_Text("a"), "b"], {_Text("k"): _Text('"')}, [float("-0.0"), 1e300 * 10]],
)
def test_render_json_matches_json_dumps_on_empty_containers_and_subclasses(tree):
    assert _render_json(tree) == json.dumps(tree, sort_keys=True, indent=2)


@pytest.mark.parametrize("tree", [{"a": [Fraction(1, 3)]}, ["x", Fraction(1)], {1: "a"}, {"a": 1, None: 2}])
def test_render_json_raises_type_error_on_unencodable_values_and_non_str_keys(tree):
    with pytest.raises(TypeError):
        _render_json(tree)


def _output_corpus():
    """Shipped problems and seeded random QPs, with and without equality
    rows, in the exact and the float regime."""
    for name in sorted(os.listdir(PROBLEMS)):
        with open(os.path.join(PROBLEMS, name)) as handle:
            yield name, handle.read()
    for k in range(12):
        problem = random_qp_problem(5000 + k, 2 + k % 3, k % 3, 1 + k % 2, k % 2 == 0)
        if k % 4 == 3:
            problem["query"]["regime"] = "float"
        yield f"random-{k}", json.dumps(problem)


def _without_timestamp(text: str) -> str:
    return "".join(line for line in text.splitlines(keepends=True) if not line.startswith('  "timestamp": '))


def test_json_output_is_json_dumps_of_the_report(tmp_path, capsys):
    """Every command's JSON output, and `verify`'s, is what json.dumps with
    sorted keys and an indent of 2 writes for the same document."""
    checked = 0
    for name, text in _output_corpus():
        path = tmp_path / "problem.json"
        path.write_text(text)
        for command in ("cones", "first-order", "second-order", "qp", "ssd", "theorem41"):
            code, out, err = run_cli(capsys, command, "--input", str(path), "--format", "json")
            if code == 3:
                assert out == "", (name, command, err)
                continue
            report = run_analysis(parse_problem(text), command)
            assert _without_timestamp(out) == _without_timestamp(
                json.dumps(report, sort_keys=True, indent=2) + "\n"
            ), (name, command)
            report_path = tmp_path / "report.json"
            report_path.write_text(out)
            code, verified, err = run_cli(capsys, "verify", "--input", str(report_path), "--format", "json")
            ok, checks = revalidate_report(json.loads(out))
            assert (code, ok) == (0, True), (name, command, err)
            assert verified == json.dumps({"verified": ok, "checks": checks}, sort_keys=True, indent=2) + "\n"
            checked += 1
    assert checked >= 50


OVERFLOWING_QUADRANT = {
    "version": "1",
    "constraint": {"type": "polyhedron", "dimension": 2,
                   "inequalities": {"rows": [["-1", "0"], ["0", "-1"]], "bounds": ["0", "0"]}},
    "objective": {"type": "fixture", "name": "ex31"},
    "query": {"regime": "float", "point": [0.0, 0.0], "directions": [[1e300, 1e300]]},
}


@pytest.mark.parametrize(
    "doc, command",
    [
        (OVERFLOWING_QUADRANT, "second-order"),
        ({"version": "1", "constraint": {"type": "fixture", "name": "ex32"},
          "query": {"regime": "float", "directions": [[1e308, 1e308]]}}, "second-order"),
        ({**OVERFLOWING_QUADRANT,
          "objective": {"type": "quadratic", "matrix": [["1", "0"], ["0", "1"]], "linear": ["0", "0"]},
          "query": {**OVERFLOWING_QUADRANT["query"], "z_candidates": [[1e300, -1e300]]}}, "theorem41"),
        # the gradient evaluator's output
        ({**OVERFLOWING_QUADRANT, "query": {"regime": "float", "point": [1e308, 0.0], "directions": [[1.0, 0.0]]}},
         "first-order"),
        # the constraint evaluator's value
        ({"version": "1", "constraint": {"type": "fixture", "name": "ex31"},
          "query": {"regime": "float", "point": [1e200, 0.0]}}, "cones"),
        # the constraint's curvature, the offset of T2(x, v)
        ({"version": "1", "constraint": {"type": "fixture", "name": "ex31"},
          "query": {"regime": "float", "directions": [[0.0, 1e154]]}}, "second-order"),
        # the sum of a pairing whose products are finite
        ({**OVERFLOWING_QUADRANT,
          "objective": {"type": "quadratic", "matrix": [["1", "0"], ["0", "1"]], "linear": ["0", "0"]},
          "query": {**OVERFLOWING_QUADRANT["query"], "directions": [[1.0, 1.0]], "z_candidates": [[1e308, 1e308]]}},
         "theorem41"),
    ],
)
def test_float_overflow_exits_three(tmp_path, capsys, doc, command):
    """A float overflow in a command is an error, not a report with -inf,
    NaN or Infinity read off it."""
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    for fmt in ("json", "human"):
        code, out, err = run_cli(capsys, command, "--input", str(path), "--format", fmt)
        assert (code, out) == (3, "") and err.startswith("error: overflow encountered"), err


@pytest.mark.parametrize(
    "v, candidates, verdicts",
    [
        pytest.param([1e308, 0.0], [[0.0, 0.0]], ["NotMember"], id="action"),
        pytest.param([5e307, 0.0], [[1e308, 0.0], [-1e308, 0.0]], ["NotMember", "Member"], id="candidate"),
    ],
)
def test_ssd_past_the_float_range_decides(tmp_path, capsys, v, candidates, verdicts):
    """ssd reads H v in exact arithmetic, so an action past the float range,
    which a float product overflows, is decided: on ex32 (H = -2 I) the set
    at v = (1e308, 0) is {(-2e308, 0)}, and at (5e307, 0) it is {(-1e308, 0)},
    the binary64 value of -1e308 exactly."""
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"version": "1", "constraint": {"type": "fixture", "name": "ex32"},
                                "query": {"regime": "float", "directions": [v], "z_candidates": candidates}}))
    code, out, err = run_cli(capsys, "ssd", "--input", str(path), "--format", "json")
    assert (code, err) == (1, "")
    report = json.loads(out)
    assert [m["verdict"] for m in report["results"]["memberships"]] == verdicts
    ((lower, upper),) = [e["interval"] for e in report["results"]["closed_form_intervals"]]
    assert lower == upper == [str(-2 * Fraction(v[0])), "0"]
    assert revalidate_report(report)[0]


# a direction into ex31's disk whose |v| is finite but whose <v, v> is not
EX31_FAR_DIRECTION = {"version": "1", "constraint": {"type": "fixture", "name": "ex31"},
                      "query": {"regime": "float", "directions": [[-1e200, 0.0]]}}


def test_a_norm_past_the_square_root_of_the_float_range_decides(tmp_path, capsys):
    """The test that v lies in T(x) bounds its tolerance by |normal| |v|,
    which math.hypot computes without squaring v: ``cones`` decides, while
    ``second-order`` needs the curvature <Hv, v>, which does overflow."""
    path = tmp_path / "far.json"
    path.write_text(json.dumps(EX31_FAR_DIRECTION))
    code, out, _ = run_cli(capsys, "cones", "--input", str(path), "--format", "json")
    assert code == 0 and json.loads(out)["results"]["second_order_tangent_regions"], out
    code, out, err = run_cli(capsys, "second-order", "--input", str(path))
    assert (code, out) == (3, "") and err.startswith("error: overflow encountered"), err


BOUNDARY_RAY_PROBLEM = {
    "version": "1",
    "constraint": {"type": "polyhedron", "dimension": 2, "inequalities": {"rows": [["1", "0"]], "bounds": ["0"]}},
    "objective": {"type": "quadratic", "matrix": [["0", "0"], ["0", "0"]], "linear": ["1", "-1/10000000000000000"]},
    "query": {"regime": "float", "point": [0.0, 0.0], "directions": [[-1.0, 0.0]]},
}


def test_verify_of_an_infinite_witness_exits_three(tmp_path, capsys):
    """A witness entry of Infinity has no exact value to substitute."""
    problem = parse_problem(json.dumps(BOUNDARY_RAY_PROBLEM))
    report = json.loads(json.dumps(run_analysis(problem, "first-order")))
    report["results"]["condition"]["witness"] = [math.inf, 0.0]
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    code, out, err = run_cli(capsys, "verify", "--input", str(path))
    assert (code, out) == (3, "") and err.startswith("not a usable report document: OverflowError("), err



@pytest.mark.parametrize("entry", [" 1", "1\n", "\uff11", "\u0661"])
def test_a_problem_entry_off_the_grammar_is_a_schema_error(tmp_path, capsys, entry):
    """Exact entries are ASCII digits with no surrounding space: a padded
    entry, a fullwidth or an Arabic-Indic digit is named, not read as 1, in a
    vector and as a single number alike."""
    with open(os.path.join(PROBLEMS, "orthant_qp.json"), encoding="utf-8") as handle:
        problem = json.load(handle)
    problem["objective"]["matrix"][0][0] = entry
    problem["query"]["directions"] = [["0", entry]]
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    code, out, err = run_cli(capsys, "qp", "--input", str(path))
    assert (code, out) == (3, "")
    assert err.splitlines() == [f"schema error: {where}: invalid rational: {entry!r}"
                                for where in ("$.query.directions[0][1]", "$.objective.matrix[0][0]")]


@pytest.mark.parametrize("value", ["1.0", "1e0", True])
def test_verify_reads_a_report_by_the_grammar_that_wrote_it(tmp_path, capsys, value):
    """A multiplier that Fraction would read but the exact grammar does not
    makes the report unusable, before any check runs."""
    code, out, _ = run_cli(capsys, "qp", "--input", os.path.join(PROBLEMS, "orthant_qp.json"), "--format", "json")
    report = json.loads(out)
    report["results"]["c0"]["certificate"]["inequality_multipliers"][0]["value"] = value
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    code, out, err = run_cli(capsys, "verify", "--input", str(path))
    expected = ValueError((0, f"invalid rational: {value!r}"))
    assert (code, out, err) == (3, "", f"not a usable report document: {expected!r}\n")


def test_verify_of_a_zero_denominator_exits_three(tmp_path, capsys):
    """A report entry "1/0" has no rational value: verify refuses the
    report instead of dying on ``Fraction(1, 0)``."""
    code, out, _ = run_cli(capsys, "cones", "--input", os.path.join(PROBLEMS, "orthant_qp.json"), "--format", "json")
    report = json.loads(out)
    report["results"]["tangent_cone"]["rays"][0][0] = "1/0"
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    code, out, err = run_cli(capsys, "verify", "--input", str(path))
    assert (code, out) == (3, "") and err.startswith("not a usable report document: ValueError("), err


@pytest.mark.parametrize("command, condition", [("qp", "c0"), ("first-order", "condition")])
@pytest.mark.parametrize("value", ["1/0", "0/0"])
def test_verify_of_a_zero_denominator_multiplier_exits_three(tmp_path, capsys, command, condition, value):
    """A Lagrange multiplier with a zero denominator is refused like any
    other report entry, not with a ``ZeroDivisionError`` traceback."""
    code, out, _ = run_cli(capsys, command, "--input", os.path.join(PROBLEMS, "orthant_qp.json"), "--format", "json")
    report = json.loads(out)
    report["results"][condition]["certificate"]["inequality_multipliers"][0]["value"] = value
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    code, out, err = run_cli(capsys, "verify", "--input", str(path))
    assert (code, out) == (3, "") and err.startswith("not a usable report document: ValueError("), err


def test_float_overflow_in_verify_checks_exits_three(tmp_path, capsys, recwarn):
    """An overflow in verify's own float checks, after the re-run, is an
    error too: a tampered candidate 1e308 pairs with v = 2 past the largest
    float, and numpy raises rather than warns."""
    doc = {"version": "1", "constraint": {"type": "fixture", "name": "ex41"},
           "query": {"regime": "float", "directions": [[2.0]], "z_candidates": [[-1.0]]}}
    problem = tmp_path / "ex41.json"
    problem.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "theorem41", "--input", str(problem), "--format", "json")
    report = json.loads(out)
    report["results"]["directions"][0]["pairings"][0]["candidate"] = [1e308]
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    code, out, err = run_cli(capsys, "verify", "--input", str(path))
    assert (code, out) == (3, "") and err.startswith("not a usable report document: FloatingPointError("), err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

def test_float_first_order_does_not_read_a_boundary_ray(tmp_path, capsys):
    """On {x1 <= 0} the gradient (1, -1e-16) pairs at -1 with v = (-1, 0);
    the pairing LP's ray may pair within the tolerance, and first-order
    fails with the steepest generator as second-order's (c1) does."""
    path = tmp_path / "boundary.json"
    path.write_text(json.dumps(BOUNDARY_RAY_PROBLEM))
    code, out, _ = run_cli(capsys, "first-order", "--input", str(path), "--format", "json")
    condition = json.loads(out)["results"]["condition"]
    assert code == 1 and (condition["verdict"], condition["margin"], condition["witness"]) == ("fails", -1.0, ["-1", "0"])
    code, out, _ = run_cli(capsys, "second-order", "--input", str(path), "--format", "json")
    c1 = json.loads(out)["results"]["directions"][0]["c1"]
    assert (c1["verdict"], c1["margin"], c1["witness"]) == ("fails", -1.0, ["-1", "0"])
    report = tmp_path / "report.json"
    report.write_text(run_cli(capsys, "first-order", "--input", str(path), "--format", "json")[1])
    code, out, _ = run_cli(capsys, "verify", "--input", str(report))
    assert code == 0 and out.endswith("verification passed: 2 checks\n")
