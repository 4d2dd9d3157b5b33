"""Output checks, made apart from the program.

Each factory takes the generated problem data and returns a function
``check(exit_code, stdout)`` that raises :class:`CheckError` when the
command's output is wrong.  The checks recompute what they need in the
benchmark's own ``Fraction`` arithmetic (``exact.py``), in
``scipy.optimize.linprog``, or in a float eigenvalue test, or they assert a
property the method must have; none compares against stored output.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction

import numpy as np

from exact import dot, primitive, quad, rank, vec

KAPLAN_TOL = 1e-9     # relative to the largest entry of G^T M G
LINPROG_TOL = 1e-7    # relative to the gradient's largest entry


class CheckError(AssertionError):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _report(code: int, out: str, command: str) -> dict:
    report = json.loads(out)
    _require(report["command"] == command, f"report is for {report['command']!r}")
    _require(report["exit_code"] == code, "exit code differs from the report's")
    return report


def _conditions(node):
    """Every condition entry (a dict with 'condition' and 'verdict') in a report."""
    if isinstance(node, dict):
        if "condition" in node and "verdict" in node:
            yield node
        for value in node.values():
            yield from _conditions(value)
    elif isinstance(node, list):
        for value in node:
            yield from _conditions(value)


def _exit_of(verdicts) -> int:
    verdicts = list(verdicts)
    if "fails" in verdicts:
        return 1
    if "inconclusive" in verdicts:
        return 2
    return 0


def _check_exit(report: dict) -> None:
    expected = _exit_of(c["verdict"] for c in _conditions(report["results"]))
    _require(report["exit_code"] == expected, "exit code does not follow the verdicts")


# ---------------------------------------------------------------------------
# Linear conditions over polyhedral cones
# ---------------------------------------------------------------------------


def _in_cone(v, rows, eq_rows) -> bool:
    return all(dot(r, v) <= 0 for r in rows) and all(dot(e, v) == 0 for e in eq_rows)


def _linear_condition(entry: dict, grad, rows, origins, eq_rows, label: str) -> None:
    """A 'holds' must carry multipliers with -grad = sum(l_i row_i) + E^T mu,
    l >= 0; a 'fails' must carry a cone member pairing negatively with grad."""
    if entry["verdict"] == "holds":
        cert = entry["certificate"]
        _require(cert is not None and cert["type"] == "lagrange", f"{label}: no certificate")
        total = [Fraction(0)] * len(grad)
        for item in cert["inequality_multipliers"]:
            lam = Fraction(item["value"])
            pos = item["position"]
            _require(lam >= 0, f"{label}: negative multiplier")
            _require(item["origin_row"] == origins[pos], f"{label}: multiplier on the wrong row")
            total = [t + lam * a for t, a in zip(total, rows[pos])]
        for mu, e in zip(cert["equality_multipliers"], eq_rows):
            total = [t + Fraction(mu) * a for t, a in zip(total, e)]
        _require(total == [-g for g in grad], f"{label}: multipliers do not give -grad")
    else:
        _require(entry["verdict"] == "fails", f"{label}: verdict {entry['verdict']!r}")
        w = vec(entry["witness"])
        _require(_in_cone(w, rows, eq_rows), f"{label}: witness is outside its cone")
        _require(dot(grad, w) < 0, f"{label}: witness does not pair negatively")


def _linprog_holds(grad, rows, eq_rows) -> bool:
    """Float LP: min <grad, v> over the cone cut to the box [-1, 1]^n."""
    from scipy.optimize import linprog

    n = len(grad)
    c = np.array([float(a) for a in grad])
    a_ub = np.array([[float(a) for a in r] for r in rows]) if rows else None
    b_ub = np.zeros(len(rows)) if rows else None
    a_eq = np.array([[float(a) for a in r] for r in eq_rows]) if eq_rows else None
    b_eq = np.zeros(len(eq_rows)) if eq_rows else None
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=[(-1, 1)] * n, method="highs")
    _require(res.status == 0, f"linprog did not solve: {res.message}")
    scale = max(1.0, float(np.max(np.abs(c))))
    return res.fun >= -LINPROG_TOL * scale


class _Geometry:
    """Active rows, tangent and second-order data of a problem, recomputed."""

    def __init__(self, problem):
        self.active = problem.active()
        self.rows = [problem.rows[k] for k in self.active]
        self.origins = [k + 1 for k in self.active]
        self.eq = problem.eq_rows

    def tight(self, v) -> tuple[list, list]:
        keep = [i for i, r in enumerate(self.rows) if dot(r, v) == 0]
        return [self.rows[i] for i in keep], [self.origins[i] for i in keep]


def _extreme(ray, rows, eq_rows, lineality_dim: int, dim: int) -> bool:
    tight = [r for r in rows if dot(r, ray) == 0]
    return rank(list(eq_rows) + tight) == dim - lineality_dim - 1


def _cone_generators(cone: dict, rows, eq_rows, dim: int, label: str) -> None:
    rays = [vec(r) for r in cone["rays"]]
    lineality = [vec(r) for r in cone["lineality"]]
    for r in rays:
        _require(any(r), f"{label}: zero ray")
        _require(_in_cone(r, rows, eq_rows), f"{label}: ray violates an H-row")
        _require(_extreme(r, rows, eq_rows, len(lineality), dim), f"{label}: ray is not extreme")
    for line in lineality:
        _require(_in_cone(line, rows, eq_rows) and _in_cone([-a for a in line], rows, eq_rows),
                 f"{label}: lineality vector violates an H-row")
    _require(rank(lineality) == len(lineality), f"{label}: lineality basis is dependent")
    _require(rank(lineality) == dim - rank(list(eq_rows) + list(rows)),
             f"{label}: lineality has the wrong dimension")


def _h_rows(cone: dict, rows, origins, eq_rows, label: str) -> None:
    _require([vec(r) for r in cone["inequalities"]] == rows, f"{label}: H-rows differ")
    _require(cone["row_origins"] == origins, f"{label}: row origins differ")
    _require([vec(r) for r in cone["equalities"]] == list(eq_rows), f"{label}: equalities differ")


# ---------------------------------------------------------------------------
# Per-command checks on exact polyhedral problems
# ---------------------------------------------------------------------------


def _check_cones_report(problem, report: dict) -> None:
    geo = _Geometry(problem)
    res = report["results"]
    _require(res["active_rows"] == geo.origins, "active rows differ")
    tangent = res["tangent_cone"]
    _h_rows(tangent, geo.rows, geo.origins, geo.eq, "tangent cone")
    _cone_generators(tangent, geo.rows, geo.eq, problem.dim, "tangent cone")
    t_rays = {primitive(vec(r)) for r in tangent["rays"]}
    t_lin = [vec(r) for r in tangent["lineality"]]
    # polarity: the normal cone is generated by the active rows (and the
    # equality row space), pairs nonpositively with every tangent generator,
    # and its own H-rows are the tangent cone's rays
    normal = res["normal_cone"]
    n_rays = [vec(r) for r in normal["rays"]]
    _require({primitive(r) for r in n_rays} == {primitive(r) for r in geo.rows},
             "normal cone rays are not the active rows")
    for n in n_rays:
        _require(all(dot(n, t) <= 0 for t in t_rays), "normal ray pairs positively with a tangent ray")
        _require(all(dot(n, line) == 0 for line in t_lin), "normal ray meets the tangent lineality")
    _require({primitive(vec(r)) for r in normal["inequalities"]} == t_rays,
             "normal cone H-rows are not the tangent cone's rays")
    _require(rank([vec(r) for r in normal["equalities"]] + t_lin) == len(t_lin)
             == len(normal["equalities"]), "normal cone equalities do not span the tangent lineality")
    _require(len(res["second_order_tangent_sets"]) == len(problem.directions),
             "one second-order set per direction expected")
    for entry, v in zip(res["second_order_tangent_sets"], problem.directions):
        _require(vec(entry["direction"]) == v, "direction echo differs")
        rows, origins = geo.tight(v)
        _require(entry["binding_rows"] == origins, "binding rows differ")
        _h_rows(entry["cone"], rows, origins, geo.eq, "second-order set")
        _cone_generators(entry["cone"], rows, geo.eq, problem.dim, "second-order set")


def _check_first_order_report(problem, report: dict) -> None:
    geo = _Geometry(problem)
    grad = problem.gradient()
    res = report["results"]
    _require(vec(res["gradient"]) == grad, "gradient differs")
    _linear_condition(res["condition"], grad, geo.rows, geo.origins, geo.eq, "first-order")
    _require((res["condition"]["verdict"] == "holds") == _linprog_holds(grad, geo.rows, geo.eq),
             "first-order verdict disagrees with linprog")
    _check_exit(report)


def _check_second_order_report(problem, report: dict) -> None:
    geo = _Geometry(problem)
    grad = problem.gradient()
    for entry, v in zip(report["results"]["directions"], problem.directions):
        rows, origins = geo.tight(v)
        _linear_condition(entry["c1"], grad, rows, origins, geo.eq, "c1")
        curvature = quad(problem.matrix, v)
        expected = "holds" if curvature >= 0 else "fails"
        _require(entry["c2_at_direction"]["verdict"] == expected, "curvature sign differs")
        classical = entry["classical"]
        # over a polyhedral set the infimum of <grad, w> is 0 or -inf
        c1_holds = entry["c1"]["verdict"] == "holds"
        want = "holds" if c1_holds and curvature >= 0 else "fails"
        _require(classical["verdict"] == want, "classical verdict differs")
        if classical["verdict"] == "fails" and not c1_holds:
            w = vec(classical["witness"])
            _require(_in_cone(w, rows, geo.eq) and dot(grad, w) < 0,
                     "classical witness does not reproduce")
    _check_exit(report)


def _check_qp_report(problem, report: dict) -> dict:
    geo = _Geometry(problem)
    grad = problem.gradient()
    res = report["results"]
    c0, c1p, c2p = res["c0"], res["c1_prime"], res["c2_prime"]
    _linear_condition(c0, grad, geo.rows, geo.origins, geo.eq, "c0")
    _require((c0["verdict"] == "holds") == _linprog_holds(grad, geo.rows, geo.eq),
             "c0 verdict disagrees with linprog")
    # on a polyhedron (c1') is equivalent to (c0)
    _require(c1p["verdict"] == c0["verdict"], "c1' verdict differs from c0")
    directions = [vec(v) for v in res["checked_directions"]]
    crit_eq = list(geo.eq) + [grad]
    for v in directions:
        _require(_in_cone(v, geo.rows, crit_eq), "checked direction is not critical")
    if c1p["verdict"] == "fails":
        v = vec(c1p["witness_direction"])
        rows, origins = geo.tight(v)
        _linear_condition(c1p, grad, rows, origins, geo.eq, "c1'")
    elif directions:
        rows, origins = geo.tight(directions[0])
        _linear_condition(c1p, grad, rows, origins, geo.eq, "c1'")
    if c2p["verdict"] == "fails":
        w = vec(c2p["witness"])
        _require(_in_cone(w, geo.rows, crit_eq), "c2' witness is not critical")
        _require(quad(problem.matrix, w) < 0, "c2' witness has nonnegative form")
    _check_exit(report)
    return res


def qp_exact(problem):
    def check(code: int, out: str) -> None:
        res = _check_qp_report(problem, _report(code, out, "qp"))
        _require(res["c0"]["verdict"] == problem.expect["c0"], "c0 verdict is not the constructed one")
        _require(res["c2_prime"]["verdict"] == problem.expect["c2"],
                 "c2' verdict is not the constructed one")
    return check


def cones(problem):
    def check(code: int, out: str) -> None:
        report = _report(code, out, "cones")
        _require(code == 0, "cones exits 0")
        _check_cones_report(problem, report)
    return check


# ---------------------------------------------------------------------------
# copositivity_cells
# ---------------------------------------------------------------------------


def kaplan_copositive(q: np.ndarray) -> bool:
    """Kaplan's test: q is copositive iff no principal submatrix has an
    eigenvector with all entries positive and a negative eigenvalue."""
    k = len(q)
    tol = KAPLAN_TOL * max(1.0, float(np.max(np.abs(q))))
    for size in range(1, k + 1):
        for subset in itertools.combinations(range(k), size):
            values, vectors = np.linalg.eigh(q[np.ix_(subset, subset)])
            for value, vector in zip(values, vectors.T):
                if value < -tol and (np.all(vector > 0) or np.all(vector < 0)):
                    return False
    return True


def copositivity(problem):
    gens = problem.expect["generators"]
    g = np.array([[float(a) for a in r] for r in gens])
    q = g @ np.array([[float(a) for a in r] for r in problem.matrix]) @ g.T

    def check(code: int, out: str) -> None:
        res = _check_qp_report(problem, _report(code, out, "qp"))
        _require(res["c0"]["verdict"] == "holds", "c0 holds at a zero gradient")
        got = {primitive(vec(v)) for v in res["checked_directions"]}
        _require(got == {primitive(v) for v in gens}, "critical cone generators differ")
        verdict = res["c2_prime"]["verdict"]
        if verdict == "holds":
            _require(kaplan_copositive(q), "Copositive, but Kaplan's test finds a negative value")
    return check


# ---------------------------------------------------------------------------
# cli_mix
# ---------------------------------------------------------------------------


_EXACT_REPORT_CHECKS = {
    "cones": _check_cones_report,
    "first-order": _check_first_order_report,
    "second-order": _check_second_order_report,
    "qp": _check_qp_report,
}


def exact_command(problem, command: str):
    check_report = _EXACT_REPORT_CHECKS[command]

    def check(code: int, out: str) -> None:
        check_report(problem, _report(code, out, command))
    return check


def verify_passes(code: int, out: str) -> None:
    _require(code == 0, f"verify exits {code}")
    result = json.loads(out)
    _require(result["verified"] is True and result["checks"], "verification did not pass")
    _require(all(c["ok"] for c in result["checks"]), "a verification check failed")


def human_matches(report_path: str):
    """A human rendering must carry the exit code and every verdict of the
    JSON report of the same problem and command."""
    def check(code: int, out: str) -> None:
        with open(report_path, encoding="utf-8") as handle:
            report = json.load(handle)
        _require(code == report["exit_code"], "human and JSON runs exit differently")
        _require(out.rstrip().endswith(f"exit code: {code}"), "no exit-code line")
        for entry in _conditions(report["results"]):
            line = f"{entry['condition']}: {entry['verdict'].upper()}"
            _require(line in out, f"human output lacks {line!r}")
    return check


def float_report(command: str):
    def check(code: int, out: str) -> None:
        report = _report(code, out, command)
        if command not in ("ssd", "theorem41"):
            _check_exit(report)
    return check


def ex31_second_order(code: int, out: str) -> None:
    """Example 3.1: the classical condition holds, the curvature sign fails."""
    report = _report(code, out, "second-order")
    _require(code == 1, "ex31 second-order exits 1")
    for entry in report["results"]["directions"]:
        _require(entry["classical"]["verdict"] == "holds", "ex31: classical should hold")
        _require(entry["c2_at_direction"]["verdict"] == "fails", "ex31: curvature sign should fail")


def ex41_ssd(directions, candidates):
    """Example 4.1: the membership interval at v >= 0 is [-v, 0]."""
    def check(code: int, out: str) -> None:
        res = _report(code, out, "ssd")["results"]
        intervals = [(e["direction"], e["interval"]) for e in res["closed_form_intervals"]]
        _require(intervals == [(v, [str(-Fraction(v)), "0"]) for v in directions],
                 "closed-form interval is not [-v, 0]")
        any_out = False
        for entry in res["memberships"]:
            v, z = entry["direction"], entry["candidate"]
            inside = -v < z < 0
            any_out |= not inside
            _require(entry["verdict"] == ("Member" if inside else "NotMember"),
                     f"ssd oracle verdict at v={v}, z={z} disagrees with [-v, 0]")
        _require(code == (1 if any_out else 0), "ssd exit code")
    return check


def theorem41_status(expected: str):
    def check(code: int, out: str) -> None:
        res = _report(code, out, "theorem41")["results"]
        for entry in res["directions"]:
            _require(entry["status"] == expected, f"theorem41 status {entry['status']!r}")
    return check
