"""Command dispatch: run one analysis over a problem file and build the
machine-readable report document.

The report echoes the validated problem, the effective configuration, and
per-condition entries with witnesses and certificates, and is deterministic
byte for byte apart from its timestamp.  :func:`revalidate_report` re-ingests
a report, reproduces it from the echoed problem, and substitutes every
recorded witness back into its defining inequality.
"""

from __future__ import annotations

import datetime
import decimal
import functools
from fractions import Fraction

from ._version import __version__ as _version
from .dd import GeneratorSet
from .errors import AnalysisError
from .geometry import PolyhedralCone
from .linalg import RationalMatrix, RationalVector
from .objectives import DEFAULT_FLOAT_TOL, AffineRegion, QuadraticObjective, SmoothObjective, TangentRegion, _dot
from .optimality import (
    ConditionReport,
    CopositivityResult,
    LagrangeCertificate,
    Verdict,
    _as_rational_vector,
    check_qp,
    critical_cone,
    first_order_check,
    theorem33_check,
)
from .problem import ProblemFile, parse_problem_dict
from .ssd import MembershipVerdict, _contains, estimate_calmness, ssd_interval, theorem41_check

COMMANDS = ("cones", "first-order", "second-order", "qp", "ssd", "theorem41")

EXIT_ALL_HOLD = 0
EXIT_SOME_FAIL = 1
EXIT_ERROR = 3


# ---------------------------------------------------------------------------
# JSON building blocks
# ---------------------------------------------------------------------------


def _value_json(value):
    if value is None:
        return None
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (float, int)):
        return value
    raise TypeError(f"cannot serialize {value!r}")


def _vector_json(vec):
    if vec is None:
        return None
    if isinstance(vec, RationalVector):
        ints, scale = vec.integer_form
        return list(map(str, ints if scale == 1 else vec))
    return [float(a) for a in vec]


def _one_or_all(items: list):
    """How an ``ssd`` report writes a vector: a 1-D one as its one entry."""
    return items[0] if len(items) == 1 else items


def _h_json(cone: PolyhedralCone) -> dict:
    """A cone by its H-form alone: no double description runs."""
    return {
        "dimension": cone.dim,
        "equalities": [_vector_json(r) for r in cone.eq_rows.rows],
        "inequalities": [_vector_json(r) for r in cone.ineq_rows.rows],
        "row_origins": list(cone.ineq_origins),
    }


def _cone_json(cone: PolyhedralCone) -> dict:
    gens = cone.generators()
    return {
        **_h_json(cone),
        "rays": [_vector_json(r) for r in gens.rays],
        "lineality": [_vector_json(r) for r in gens.lineality],
    }


def _region_json(region: AffineRegion) -> dict:
    return {
        "kind": region.kind.value,
        "normal": _vector_json(region.normal),
        "offset": region.offset,
        "normalized_offset": region.normalized_offset(),
    }


def _certificate_json(cert) -> dict | None:
    if cert is None:
        return None
    if isinstance(cert, LagrangeCertificate):
        return {
            "type": "lagrange",
            "inequality_multipliers": [
                {"position": pos, "origin_row": origin, "value": str(lam)}
                for pos, origin, lam in cert.inequality_multipliers
            ],
            "equality_multipliers": _vector_json(cert.equality_multipliers),
        }
    if isinstance(cert, CopositivityResult):
        return {
            "type": "copositivity",
            "status": cert.status.value,
            "cells_certified": cert.cells_certified,
            "method": cert.method,
        }
    raise TypeError(f"cannot serialize certificate {cert!r}")


def _condition_json(report: ConditionReport) -> dict:
    return {
        "condition": report.condition.value,
        "verdict": report.verdict.value,
        "witness": _vector_json(report.witness),
        "margin": _value_json(report.margin) if report.margin != float("-inf") else "-inf",
        "boundary": report.boundary,
        "certificate": _certificate_json(report.certificate),
        "notes": report.notes,
    }


def _flags_json(direction) -> dict:
    return {
        "in_tangent_cone": direction.in_tangent_cone,
        "negation_in_tangent_cone": direction.negation_in_tangent_cone,
        "gradient_orthogonal": direction.gradient_orthogonal,
        "critical": direction.is_critical,
        "bidirectionally_critical": direction.is_bidirectional,
    }


def _detail(value) -> str:
    """A number to 6 significant digits for a check's detail: its float's
    ``.6g``, or past the float range the same digits in exact decimal
    arithmetic."""
    try:
        return f"{float(value):.6g}"
    except OverflowError:
        with decimal.localcontext(prec=6):
            return f"{(decimal.Decimal(value.numerator) / value.denominator).normalize():.6g}"


def _details(values) -> str:
    """A query entry for a check's detail by :func:`_detail`: a 1-D one as
    its number, else the tuple."""
    details = _one_or_all([_detail(a) for a in values])
    return details if isinstance(details, str) else "(" + ", ".join(details) + ")"


def _exit_of(verdicts: list[Verdict]) -> int:
    return EXIT_SOME_FAIL if Verdict.FAILS in verdicts else EXIT_ALL_HOLD


# ---------------------------------------------------------------------------
# Analysis context
# ---------------------------------------------------------------------------


class _Context:
    """One run's decisions, each made once and read by every handler and by
    :class:`_Revalidator`: the arithmetic (``objective``, ``gradient``) and
    the constraint view (``tangent``; T2(x, v) is its ``tangent_cone_at``).

    The float regime computes on tuples of Python floats, and a float
    overflow or invalid value raises ``FloatingPointError`` where evaluator
    outputs, pairings and Hessian actions enter (:mod:`.objectives`)."""

    def __init__(self, problem: ProblemFile, tolerance: float | None):
        self.problem = problem
        self.tolerance_override = tolerance
        self.regime = problem.query.regime
        self.exact = self.regime == "exact"
        self.tolerance = 0.0 if self.exact else (
            tolerance if tolerance is not None else problem.query.tolerance
        )
        self.polyhedron = problem.polyhedron
        self.mode = "smooth" if self.polyhedron is None else "polyhedral"

    def require_directions(self, command: str) -> tuple[tuple, ...]:
        dirs = self.problem.query.directions
        if not dirs:
            raise AnalysisError(
                f"command {command!r} needs at least one direction",
                hint="add query.directions to the problem file",
            )
        return dirs

    def smooth_objective(self) -> SmoothObjective:
        """The float evaluators, with the objective's exact slopes: of the
        quadratic data, or of the fixture."""
        obj = self.problem.smooth_objective()
        if obj is None:
            raise AnalysisError(
                "this command needs an objective",
                hint="add an objective block (quadratic data or a fixture name)",
            )
        return obj

    @functools.cached_property
    def objective(self) -> QuadraticObjective | SmoothObjective:
        """The quadratic data in the exact regime, else the float evaluators."""
        if self.exact and self.problem.quadratic is not None:
            return self.problem.quadratic
        return self.smooth_objective()

    @property
    def membership_tolerance(self) -> float:
        """How far a candidate may lie off an ``ssd`` set: 0 in the exact
        regime, where the set is decided exactly."""
        return 0.0 if self.exact else max(self.tolerance, DEFAULT_FLOAT_TOL)

    def entry_json(self, values):
        """A query's direction or candidate as an ``ssd`` report writes it:
        exact strings in the exact regime, numbers in the float regime."""
        return _one_or_all([str(a) if self.exact else float(a) for a in values])

    @functools.cached_property
    def gradient(self):
        """The objective's gradient at the point: exact M x + q, or float."""
        return self.objective.gradient_at(self.problem.query.point)

    @functools.cached_property
    def tangent(self) -> PolyhedralCone | TangentRegion:
        """T(x) of the polyhedron, or of the fixture's smooth level set, which
        tolerance 0 cannot decide: its value at a boundary point rounds off
        zero."""
        if self.polyhedron is not None:
            return self.polyhedron.tangent_cone(self.problem.query.point_rational())
        if self.tolerance == 0:
            raise AnalysisError(
                f"fixture {self.problem.fixture.name!r} is a smooth level set, "
                "which needs a positive tolerance",
                hint="set query.regime = 'float' and leave --tolerance positive",
            )
        return self.problem.fixture.constraint.tangent_cone(self.problem.query.point_floats(), self.tolerance)


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------


def _set_json(tangent_set, region_key: str, cone_key: str, cone_json=_h_json) -> dict:
    """T(x) or T2(x, v) under the key of its type: an affine region, or a cone
    (the whole space, at a direction into a level set) by ``cone_json``, its
    H-form unless the report lists generators."""
    if isinstance(tangent_set, AffineRegion):
        return {region_key: _region_json(tangent_set)}
    return {cone_key: cone_json(tangent_set)}


def _run_cones(ctx: _Context) -> tuple[dict, int]:
    tangent = ctx.tangent
    tangent_json = _set_json(tangent, "tangent_region", "tangent_cone", _cone_json)
    if ctx.mode == "smooth":
        entries = [
            {"direction": _vector_json(v), **_set_json(tangent.tangent_cone_at(v), "region", "cone", _cone_json)}
            for v in ctx.problem.query.directions
        ]
        return {"mode": "smooth", **tangent_json, "second_order_tangent_regions": entries}, EXIT_ALL_HOLD
    entries = []
    for v in ctx.problem.query.directions:
        direction = _as_rational_vector(v)
        cone2 = tangent.tangent_cone_at(direction)
        entries.append(
            {
                "direction": _vector_json(direction),
                "binding_rows": list(cone2.ineq_origins),
                "cone": _cone_json(cone2),
            }
        )
    results = {
        "mode": "polyhedral",
        "active_rows": list(tangent.ineq_origins),
        **tangent_json,
        "normal_cone": _cone_json(tangent.polar()),
        "second_order_tangent_sets": entries,
    }
    return results, EXIT_ALL_HOLD


def _run_first_order(ctx: _Context) -> tuple[dict, int]:
    gradient = ctx.gradient  # before T(x), so its errors come first
    report = first_order_check(gradient, ctx.tangent, ctx.tolerance)
    results = {
        "mode": ctx.mode,
        "gradient": _vector_json(gradient),
        "condition": _condition_json(report),
        **_set_json(ctx.tangent, "tangent_region", "tangent_cone"),
    }
    return results, _exit_of([report.verdict])


def _run_second_order(ctx: _Context) -> tuple[dict, int]:
    directions = ctx.require_directions("second-order")
    objective = ctx.objective
    if not isinstance(objective, QuadraticObjective) and objective.hessian is None:
        raise AnalysisError(
            "second-order analysis needs a Hessian",
            hint="use a quadratic objective or a fixture with second derivatives",
        )
    verdicts: list[Verdict] = []
    entries = []
    bundles = theorem33_check(objective, ctx.tangent, ctx.problem.query.point, directions, ctx.tolerance)
    for bundle in bundles:
        verdicts += [
            bundle.strengthened_gradient.verdict,
            bundle.curvature_at_direction.verdict,
            bundle.classical.verdict,
        ]
        entries.append({
            "direction": _vector_json(bundle.direction.vector),
            "critical_flags": _flags_json(bundle.direction),
            "c1": _condition_json(bundle.strengthened_gradient),
            "c2_at_direction": _condition_json(bundle.curvature_at_direction),
            "classical": _condition_json(bundle.classical),
            **_set_json(bundle.second_order_set, "second_order_region", "second_order_set"),
        })
    return {"mode": ctx.mode, "directions": entries}, _exit_of(verdicts)


def _run_qp(ctx: _Context) -> tuple[dict, int]:
    if ctx.problem.quadratic is None:
        raise AnalysisError(
            "the qp command needs explicit quadratic objective data",
            hint="provide objective.type = 'quadratic' with rational entries",
        )
    if ctx.polyhedron is None:
        raise AnalysisError(
            "the qp command needs a polyhedral constraint set",
            hint="use constraint.type = 'polyhedron'",
        )
    if not ctx.exact:
        raise AnalysisError(
            "the qp command runs in exact arithmetic only",
            hint="set query.regime = 'exact' and use rational entries",
        )
    conditions = check_qp(ctx.objective, ctx.tangent, ctx.problem.query.point)
    results = {
        "c0": _condition_json(conditions.stationarity),
        "c1_prime": {
            **_condition_json(conditions.strengthened_gradient),
            "witness_direction": _vector_json(conditions.witness_direction),
        },
        "c2_prime": _condition_json(conditions.curvature_on_critical_cone),
        "checked_directions": [_vector_json(v) for v in conditions.checked_directions],
        "tangent_cone": _h_json(ctx.tangent),
        "critical_cone": _h_json(conditions.critical_cone),
    }
    verdicts = [
        conditions.stationarity.verdict,
        conditions.strengthened_gradient.verdict,
        conditions.curvature_on_critical_cone.verdict,
    ]
    return results, _exit_of(verdicts)


def _run_ssd(ctx: _Context) -> tuple[dict, int]:
    objective = ctx.smooth_objective()
    directions = ctx.require_directions("ssd")
    candidates = ctx.problem.query.z_candidates
    if not candidates:
        raise AnalysisError(
            "the ssd command needs candidate z values",
            hint="add query.z_candidates to the problem file",
        )
    point = ctx.problem.query.point
    queries, intervals = [], []
    exit_code = EXIT_ALL_HOLD
    for v in directions:
        interval, direction = ssd_interval(objective, point, v), ctx.entry_json(v)
        if interval is not None:
            ends = [_one_or_all(list(map(str, end))) for end in interval]
            intervals.append({"direction": direction, "interval": ends})
        for z in candidates:
            verdict = MembershipVerdict(_contains(interval, z, ctx.membership_tolerance))
            queries.append({"direction": direction, "candidate": ctx.entry_json(z), "verdict": verdict.verdict})
            if not verdict.member:
                exit_code = EXIT_SOME_FAIL
    results = {"memberships": queries, "closed_form_intervals": intervals}
    if objective.dimension == 1:
        results["calmness"] = {"modulus": _value_json(estimate_calmness(objective, point))}
    return results, exit_code


def _run_theorem41(ctx: _Context) -> tuple[dict, int]:
    if ctx.polyhedron is None:
        raise AnalysisError(
            "this command needs a polyhedral constraint set",
            hint="use constraint.type = 'polyhedron' or the ex41 fixture",
        )
    objective = ctx.objective
    directions = ctx.require_directions("theorem41")
    entries = []
    exit_code = EXIT_ALL_HOLD
    reports = theorem41_check(
        objective,
        ctx.tangent,
        ctx.problem.query.point,
        directions,
        ctx.problem.query.z_candidates,
        ctx.tolerance,
    )
    for report in reports:
        entries.append(
            {
                "direction": _vector_json(report.direction.vector),
                "critical_flags": _flags_json(report.direction),
                "status": report.status,
                "gradient_condition": report.gradient_condition and _condition_json(report.gradient_condition),
                "pairings": [
                    {"candidate": _vector_json(e.candidate), "pairing": _value_json(e.pairing), "holds": e.holds}
                    for e in report.pairings
                ],
            }
        )
        if report.status != "Holds":
            exit_code = EXIT_SOME_FAIL
    return {"directions": entries}, exit_code


_HANDLERS = {
    "cones": _run_cones,
    "first-order": _run_first_order,
    "second-order": _run_second_order,
    "qp": _run_qp,
    "ssd": _run_ssd,
    "theorem41": _run_theorem41,
}


def _report(ctx: _Context, command: str) -> dict:
    """Run one command on a context and return the report document."""
    if command not in _HANDLERS:
        raise AnalysisError(
            f"unknown command {command!r}", hint=f"one of: {', '.join(COMMANDS)}"
        )
    results, exit_code = _HANDLERS[command](ctx)
    return {
        "tool": {"name": "cone-audit", "version": _version},
        "command": command,
        "configuration": {
            "regime": ctx.regime,
            "tolerance": ctx.tolerance,
            "tolerance_override": ctx.tolerance_override,
        },
        "problem": ctx.problem.source,
        "results": results,
        "exit_code": exit_code,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def run_analysis(
    problem: ProblemFile,
    command: str,
    *,
    tolerance: float | None = None,
) -> dict:
    """Run one command over a validated problem and return the report
    document.  A float overflow or invalid value raises ``FloatingPointError``."""
    return _report(_Context(problem, tolerance), command)


# ---------------------------------------------------------------------------
# Report revalidation (the `verify` subcommand)
# ---------------------------------------------------------------------------


class _Revalidator:
    """Re-runs a report and substitutes its witnesses back, both on one
    :class:`_Context` built from the echoed problem and configuration."""

    def __init__(self, report: dict):
        self.report = report
        self.checks: list[dict] = []
        config = report.get("configuration", {})
        self.ctx = _Context(parse_problem_dict(report["problem"]), config.get("tolerance_override"))

    def add(self, label: str, ok: bool, detail: str = "") -> None:
        self.checks.append({"check": label, "ok": bool(ok), "detail": detail})

    def run(self) -> list[dict]:
        command = self.report.get("command")
        rerun = _report(self.ctx, command)
        old = {k: v for k, v in self.report.items() if k != "timestamp"}
        new = {k: v for k, v in rerun.items() if k != "timestamp"}
        self.add(
            "deterministic reproduction",
            old == new,
            "re-running the echoed problem reproduces the report" if old == new
            else "re-run produced a different report",
        )
        handler = getattr(self, "_verify_" + command.replace("-", "_"), None)
        if handler is not None:
            handler(self.report.get("results", {}))
        return self.checks

    # -- helpers ---------------------------------------------------------

    @functools.cached_property
    def gradient(self) -> RationalVector:
        return _as_rational_vector(self.ctx.gradient)

    def _holds_witness(self, region, entry: dict) -> tuple[RationalVector, bool]:
        """The entry's witness, exact, and whether ``region`` holds it: a cone
        contains it; a half-space or hyperplane contains it within the
        tolerance, or, for a margin of -inf, has it as a recession direction,
        one its normal does not oppose."""
        witness = _as_rational_vector(entry["witness"])
        if isinstance(region, PolyhedralCone):
            return witness, region.contains(witness)
        if entry.get("margin") == "-inf":
            region = AffineRegion(region.kind, region.normal, 0.0)
        return witness, region.contains(witness.as_floats(), self.ctx.tolerance)

    def _check_linear_condition(self, label: str, entry: dict, cone) -> None:
        """Substitute a Fails witness / verify a Holds Lagrange certificate."""
        if entry is None:
            return
        verdict = entry.get("verdict")
        if verdict == "fails" and entry.get("witness") is not None:
            witness, inside = self._holds_witness(cone, entry)
            pairing = self.gradient.dot(witness)
            sup = max(abs(a) for a in witness.entries)
            # the zero vector violates nothing
            violated = sup != 0 and pairing / sup < -self.ctx.tolerance
            self.add(
                label + ": witness violates the inequality",
                inside and violated,
                f"<grad, w> = {_detail(pairing)}",
            )
        if verdict == "holds" and entry.get("certificate") and entry["certificate"].get("type") == "lagrange":
            cert = entry["certificate"]
            items = cert["inequality_multipliers"]
            values = _as_rational_vector([item["value"] for item in items]).entries
            certificate = LagrangeCertificate(
                tuple((item["position"], item.get("origin_row"), lam) for item, lam in zip(items, values)),
                _as_rational_vector(cert["equality_multipliers"]),
            )
            self.add(
                label + ": Lagrange certificate identity",
                certificate.verify(self.gradient, cone),
                "-grad = sum(lambda_i row_i) + A^T mu re-verified exactly",
            )

    # -- per-command verifiers --------------------------------------------

    def _verify_cones(self, results: dict) -> None:
        for name in ("tangent_cone", "normal_cone"):
            cone = results.get(name)
            if cone is None:
                continue
            self.add(
                f"{name}: generators satisfy the H-representation",
                _generators_match(cone),
            )
        for entry in results.get("second_order_tangent_sets", []) + results.get("second_order_tangent_regions", []):
            if "cone" in entry:
                self.add(
                    "second-order set: generators satisfy the H-representation",
                    _generators_match(entry["cone"]),
                )

    def _verify_first_order(self, results: dict) -> None:
        self._check_linear_condition("first-order", results.get("condition"), self.ctx.tangent)

    def _verify_second_order(self, results: dict) -> None:
        # the echoed directions, which the reproduction check ties to the report's
        for v, entry in zip(self.ctx.problem.query.directions, results.get("directions", [])):
            direction = _as_rational_vector(v)
            second = self.ctx.tangent.tangent_cone_at(direction)
            self._check_linear_condition("c1", entry.get("c1"), second)
            self._check_classical(entry.get("classical"), second, direction)
            c2 = entry.get("c2_at_direction")
            if c2 and c2.get("verdict") == "fails":
                curvature = self._curvature(direction)
                self.add(
                    "c2: negative curvature reproduces",
                    curvature < 0,
                    f"<Mv, v> = {_detail(curvature)}",
                )

    def _curvature(self, direction: RationalVector) -> Fraction:
        """<Mv, v> in the run's arithmetic, as the objective's
        ``curvature_at`` gives it, made exact."""
        return Fraction(self.ctx.objective.curvature_at(self.ctx.problem.query.point, direction))

    def _check_classical(self, entry, second, direction: RationalVector) -> None:
        """Substitute a failing classical-condition witness.

        A finite-margin failure provides the minimizing point, so the full
        inequality (pairing plus curvature) must come out negative there; an
        unbounded failure provides a recession direction, which must stay
        inside the (translated) set and pair negatively with the gradient.
        """
        if not entry or entry.get("verdict") != "fails" or entry.get("witness") is None:
            return
        witness, inside = self._holds_witness(second, entry)
        pairing = self.gradient.dot(witness)
        unbounded = entry.get("margin") == "-inf"
        violation = pairing if unbounded else pairing + self._curvature(direction)
        quantity = "<grad, ray>" if unbounded and isinstance(second, AffineRegion) else "violation"
        self.add(
            "classical: witness reproduces the violation",
            inside and violation < 0,
            f"{quantity} = {_detail(violation)}",
        )

    def _verify_qp(self, results: dict) -> None:
        tangent = self.ctx.tangent
        self._check_linear_condition("c0", results.get("c0"), tangent)
        # the report gives C by its H-form: its generators, the checked
        # directions, are substituted into C rebuilt from the echoed problem
        crit = critical_cone(self.gradient, tangent)
        directions = [_as_rational_vector(v) for v in results.get("checked_directions") or []]
        # (c1') is checked on T2(x, v) at its witness direction, else at the
        # first checked direction, else at 0 (T2(x, 0) = T(x)); a direction
        # off C fails
        c1p = results.get("c1_prime") or {}
        at = c1p.get("witness_direction")
        direction = (directions or [RationalVector.zero(tangent.dim)])[0] if at is None else _as_rational_vector(at)
        if crit.contains(direction):
            self._check_linear_condition("c1'", c1p, tangent.tangent_cone_at(direction))
        else:
            self.add("c1': its direction lies in the critical cone", False, f"v = {direction}")
        self.add(
            "checked directions: each lies in the critical cone",
            all(map(crit.contains, directions)),
            f"{len(directions)} directions substituted",
        )
        c2p = results.get("c2_prime")
        if c2p and c2p.get("verdict") == "fails" and c2p.get("witness"):
            witness = _as_rational_vector(c2p["witness"])
            value = self._curvature(witness)
            self.add(
                "c2': witness is a critical direction with negative form",
                crit.contains(witness) and value < 0,
                f"<Mv, v> = {_detail(value)}",
            )

    def _verify_theorem41(self, results: dict) -> None:
        # exact quadratic data pair the echoed rational z and v exactly
        exact = isinstance(self.ctx.objective, QuadraticObjective)
        candidates = self.ctx.problem.query.z_candidates
        for v, entry in zip(self.ctx.problem.query.directions, results.get("directions", [])):
            condition = entry.get("gradient_condition")
            if condition is not None:
                second = self.ctx.tangent.tangent_cone_at(_as_rational_vector(v))
                self._check_linear_condition("gradient condition", condition, second)
            for z, pairing in zip(candidates, entry.get("pairings", [])):
                if exact:
                    value = _as_rational_vector(z).dot(_as_rational_vector(v))
                    same = _value_json(value) == pairing["pairing"]
                else:
                    value = _dot(map(float, pairing["candidate"]), map(float, entry["direction"]))
                    same = abs(value - pairing["pairing"]) <= 1e-12
                self.add(
                    "pairing <z, v> reproduces",
                    same and (value >= -self.ctx.tolerance) == pairing["holds"],
                    f"<z, v> = {_detail(value)}",
                )

    def _verify_ssd(self, results: dict) -> None:
        # each membership against the set the report wrote for its
        # direction, exactly; a direction with none written has an empty set
        written = results.get("closed_form_intervals", [])
        memberships = iter(results.get("memberships", []))
        query = self.ctx.problem.query
        for v in query.directions:
            direction = self.ctx.entry_json(v)
            ends = next((e["interval"] for e in written if e["direction"] == direction), None)
            if ends is not None:
                ends = [_as_rational_vector(end if isinstance(end, list) else [end]).entries for end in ends]
            for z, entry in zip(query.z_candidates, memberships):
                member = _contains(ends, z, self.ctx.membership_tolerance)
                self.add(
                    "ssd: verdict matches the written interval",
                    entry["verdict"] == ("Member" if member else "NotMember"),
                    f"z = {_details(z)}, v = {_details(v)}",
                )


def _generators_match(cone_json: dict) -> bool:
    dim = cone_json["dimension"]
    eq, ineq, rays, lineality = (
        tuple(_as_rational_vector(r) for r in cone_json[key])
        for key in ("equalities", "inequalities", "rays", "lineality")
    )
    cone = PolyhedralCone(dim, RationalMatrix(eq, dim), RationalMatrix(ineq, dim))
    return all(map(cone.contains, GeneratorSet(dim, rays, lineality).spanning_vectors()))


def revalidate_report(report: dict) -> tuple[bool, list[dict]]:
    """Re-ingest a report: reproduce it from the echoed problem and substitute
    every witness back into its defining inequality.

    Returns (all checks passed, the list of individual check results).
    """
    checks = _Revalidator(report).run()
    return all(c["ok"] for c in checks), checks
