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
import functools
from fractions import Fraction

import numpy as np

from ._version import __version__ as _version
from .dd import GeneratorSet
from .errors import AnalysisError
from .geometry import PolyhedralCone
from .linalg import RationalMatrix, RationalVector
from .objectives import DEFAULT_FLOAT_TOL, AffineRegion, QuadraticObjective, SmoothObjective
from .optimality import (
    ConditionReport,
    CopositivityResult,
    LagrangeCertificate,
    Verdict,
    _as_rational_vector,
    _qp_conditions,
    critical_cone,
    first_order_check,
    theorem33_check,
)
from .problem import ProblemFile, parse_problem_dict
from .ssd import (
    DEFAULT_MEMBERSHIP_TOL,
    LogMesh,
    SSDQuery,
    _membership_quotient,
    estimate_calmness,
    ssd_hessian_closed_form,
    ssd_membership,
    theorem41_check,
)

COMMANDS = ("cones", "first-order", "second-order", "qp", "ssd", "theorem41")

CALMNESS_RADIUS = 0.5
CALMNESS_SAMPLES = 512

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
    return [float(a) for a in np.asarray(vec, dtype=float).reshape(-1)]


def _cone_json(cone: PolyhedralCone) -> dict:
    gens = cone.generators()
    return {
        "dimension": cone.dim,
        "equalities": [_vector_json(r) for r in cone.eq_rows.rows],
        "inequalities": [_vector_json(r) for r in cone.ineq_rows.rows],
        "row_origins": list(cone.ineq_origins),
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
            "witness": _vector_json(cert.witness),
            "witness_value": _value_json(cert.witness_value),
            "cells_certified": cert.cells_certified,
            "method": cert.method,
        }
    raise TypeError(f"cannot serialize certificate {cert!r}")


def _condition_json(report: ConditionReport) -> dict:
    return {
        "condition": report.condition.value,
        "verdict": report.verdict.value,
        "witness": _vector_json(report.witness),
        "witness_direction": _vector_json(report.witness_direction),
        "margin": _value_json(report.margin) if report.margin != float("-inf") else "-inf",
        "boundary": report.boundary,
        "checked_directions": (
            None
            if report.checked_directions is None
            else [_vector_json(v) for v in report.checked_directions]
        ),
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


def _exit_of(verdicts: list[Verdict]) -> int:
    return EXIT_SOME_FAIL if Verdict.FAILS in verdicts else EXIT_ALL_HOLD


# ---------------------------------------------------------------------------
# Analysis context
# ---------------------------------------------------------------------------


class _Context:
    """One run's decisions, each made once and read by every handler and by
    :class:`_Revalidator`: the arithmetic (``objective``, ``gradient``) and
    the constraint view (``tangent``, ``second_order_set``)."""

    def __init__(self, problem: ProblemFile, tolerance: float | None, mesh: LogMesh | None):
        self.problem = problem
        self.tolerance_override = tolerance
        self.regime = problem.query.regime
        self.exact = self.regime == "exact"
        self.tolerance = 0.0 if self.exact else (
            tolerance if tolerance is not None else problem.query.tolerance
        )
        self.ssd_tolerance = tolerance if tolerance is not None else DEFAULT_MEMBERSHIP_TOL
        self.mesh = mesh or LogMesh()
        self.polyhedron = problem.constraint_polyhedron()
        self.mode = "smooth" if self.polyhedron is None else "polyhedral"

    # one direction list used by every command; fixture default as fallback
    def directions(self) -> list[tuple]:
        if self.problem.query.directions:
            return list(self.problem.query.directions)
        if self.problem.fixture is not None:
            default = self.problem.fixture.default_direction
            if self.exact:
                return [tuple(Fraction(a) for a in default)]
            return [default]
        return []

    def require_directions(self, command: str) -> list[tuple]:
        dirs = self.directions()
        if not dirs:
            raise AnalysisError(
                f"command {command!r} needs at least one direction",
                hint="add query.directions to the problem file",
            )
        return dirs

    def point_rational(self) -> RationalVector:
        return self.problem.query.point_rational()

    def point_floats(self) -> tuple[float, ...]:
        return self.problem.query.point_floats()

    def smooth_objective(self) -> SmoothObjective:
        """The float evaluators: of the quadratic data, or of the fixture."""
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

    @functools.cached_property
    def gradient(self):
        """The objective's gradient at the point: exact M x + q, or float."""
        if isinstance(self.objective, QuadraticObjective):
            return self.objective.gradient(self.point_rational())
        return self.objective.gradient_at(self.point_floats())

    @property
    def level_set(self):
        """The fixture's smooth constraint, which tolerance 0 cannot decide:
        its value at a boundary point rounds off zero."""
        if self.tolerance == 0:
            raise AnalysisError(
                f"fixture {self.problem.fixture.name!r} is a smooth level set, "
                "which needs a positive tolerance",
                hint="set query.regime = 'float' and leave --tolerance positive",
            )
        return self.problem.fixture.constraint

    @functools.cached_property
    def tangent(self) -> PolyhedralCone | AffineRegion:
        """T(x) of the polyhedron, or the level set's tangent region."""
        if self.polyhedron is not None:
            return self.polyhedron.tangent_cone(self.point_rational())
        return self.level_set.tangent_cone(self.point_floats(), self.tolerance)

    def second_order_set(self, v) -> PolyhedralCone | AffineRegion:
        """T2(x, v): read off T(x) at the exact v, or the level set's region."""
        if self.polyhedron is not None:
            return self.tangent.tangent_cone_at(v)
        return self.level_set.second_order_tangent_set(self.point_floats(), v, self.tolerance)


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------


def _tangent_json(ctx: _Context) -> dict:
    if ctx.mode == "polyhedral":
        return {"tangent_cone": _cone_json(ctx.tangent)}
    return {"tangent_region": _region_json(ctx.tangent)}


def _run_cones(ctx: _Context) -> tuple[dict, int]:
    tangent = ctx.tangent
    if ctx.mode == "smooth":
        entries = [
            {"direction": _vector_json(v), "region": _region_json(ctx.second_order_set(v))}
            for v in ctx.directions()
        ]
        return {"mode": "smooth", **_tangent_json(ctx), "second_order_tangent_regions": entries}, EXIT_ALL_HOLD
    entries = []
    for v in ctx.directions():
        direction = _as_rational_vector(v)
        cone2 = ctx.second_order_set(direction)
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
        **_tangent_json(ctx),
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
        **_tangent_json(ctx),
    }
    return results, _exit_of([report.verdict])


def _run_second_order(ctx: _Context) -> tuple[dict, int]:
    directions = ctx.require_directions("second-order")
    objective = ctx.objective
    if isinstance(objective, QuadraticObjective):
        directions = [_as_rational_vector(v) for v in directions]
    elif objective.hessian is None:
        raise AnalysisError(
            "second-order analysis needs a Hessian",
            hint="use a quadratic objective or a fixture with second derivatives",
        )
    constraint = ctx.tangent if ctx.mode == "polyhedral" else ctx.level_set
    verdicts: list[Verdict] = []
    entries = []
    bundles = theorem33_check(objective, constraint, ctx.problem.query.point, directions, ctx.tolerance)
    for v, bundle in zip(directions, bundles):
        verdicts += [
            bundle.strengthened_gradient.verdict,
            bundle.curvature_at_direction.verdict,
            bundle.classical.verdict,
        ]
        entry = {
            "direction": _vector_json(v),
            "critical_flags": _flags_json(bundle.direction),
            "c1": _condition_json(bundle.strengthened_gradient),
            "c2_at_direction": _condition_json(bundle.curvature_at_direction),
            "classical": _condition_json(bundle.classical),
        }
        if ctx.mode == "smooth":
            entry["second_order_region"] = _region_json(bundle.second_order_set)
        else:
            entry["second_order_set"] = _cone_json(bundle.second_order_set)
        entries.append(entry)
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
    conditions = _qp_conditions(ctx.objective.matrix, ctx.tangent, ctx.gradient)
    results = {
        "c0": _condition_json(conditions.stationarity),
        "c1_prime": _condition_json(conditions.strengthened_gradient),
        "c2_prime": _condition_json(conditions.curvature_on_critical_cone),
        "checked_directions": [_vector_json(v) for v in conditions.checked_directions],
        "tangent_cone": _cone_json(conditions.tangent_cone),
        "critical_cone": _cone_json(conditions.critical_cone),
    }
    verdicts = [
        conditions.stationarity.verdict,
        conditions.strengthened_gradient.verdict,
        conditions.curvature_on_critical_cone.verdict,
    ]
    return results, _exit_of(verdicts)


def _run_ssd(ctx: _Context) -> tuple[dict, int]:
    objective = ctx.smooth_objective()
    point = ctx.point_floats()
    results: dict = {}
    exit_code = EXIT_ALL_HOLD
    if objective.dimension == 1:
        directions = ctx.require_directions("ssd")
        candidates = ctx.problem.query.z_candidates
        if not candidates:
            raise AnalysisError(
                "the ssd command needs candidate z values",
                hint="add query.z_candidates to the problem file",
            )
        queries = []
        for v in directions:
            for z in candidates:
                verdict = ssd_membership(
                    SSDQuery(
                        objective,
                        float(point[0]),
                        float(v[0]),
                        float(z[0]),
                    ),
                    ctx.mesh,
                    ctx.ssd_tolerance,
                )
                queries.append(
                    {
                        "direction": float(v[0]),
                        "candidate": float(z[0]),
                        "verdict": verdict.verdict,
                        "worst_quotient": verdict.worst_quotient,
                        "attaining_sample": verdict.attaining_sample,
                    }
                )
                if not verdict.member:
                    exit_code = EXIT_SOME_FAIL
        results["memberships"] = queries
        if ctx.problem.fixture is not None and ctx.problem.fixture.name == "ex41":
            # ex41's second-order subdifferential at 0 is [-v, 0] for v >= 0;
            # it is empty at v < 0, which the memberships above report
            results["closed_form_intervals"] = [
                {"direction": v, "interval": [str(-Fraction(v)), "0"]}
                for v in (float(direction[0]) for direction in directions)
                if v >= 0
            ]
        calmness = estimate_calmness(objective, point, CALMNESS_RADIUS, CALMNESS_SAMPLES)
        results["calmness"] = {
            "modulus": calmness.modulus,
            "radius": calmness.radius,
            "sample_count": calmness.sample_count,
        }
        return results, exit_code

    if objective.hessian is None:
        raise AnalysisError(
            "ssd membership in dimension > 1 needs a Hessian (closed form)",
            hint="only 1-D objectives support the mesh oracle",
        )
    directions = ctx.require_directions("ssd")
    actions = []
    for v in directions:
        action = ssd_hessian_closed_form(objective, point, v)
        entry = {"direction": _vector_json(v), "action": _vector_json(action)}
        if ctx.problem.query.z_candidates:
            comparisons = []
            for z in ctx.problem.query.z_candidates:
                z_arr = np.asarray([float(a) for a in z])
                member = bool(
                    np.max(np.abs(z_arr - action)) <= max(ctx.tolerance, DEFAULT_FLOAT_TOL)
                )
                comparisons.append(
                    {"candidate": _vector_json(z), "member": member}
                )
                if not member:
                    exit_code = EXIT_SOME_FAIL
            entry["candidates"] = comparisons
        actions.append(entry)
    results["hessian_actions"] = actions
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
    for v, report in zip(directions, reports):
        entries.append(
            {
                "direction": _vector_json(v),
                "flags": _flags_json(report.direction),
                "status": report.status,
                "gradient_condition": (
                    None
                    if report.gradient_condition is None
                    else _condition_json(report.gradient_condition)
                ),
                "pairings": [
                    {
                        "candidate": list(e.candidate),
                        "pairing": e.pairing,
                        "holds": e.holds,
                    }
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
    """Run one command on a context and return the report document.  A
    float overflow or invalid value raises ``FloatingPointError``."""
    if command not in _HANDLERS:
        raise AnalysisError(
            f"unknown command {command!r}", hint=f"one of: {', '.join(COMMANDS)}"
        )
    with np.errstate(over="raise", invalid="raise"):
        results, exit_code = _HANDLERS[command](ctx)
    return {
        "tool": {"name": "cone-audit", "version": _version},
        "command": command,
        "configuration": {
            "regime": ctx.regime,
            "tolerance": ctx.tolerance,
            "ssd_tolerance": ctx.ssd_tolerance,
            "tolerance_override": ctx.tolerance_override,
            "mesh": f"{ctx.mesh.exponent_start}:{ctx.mesh.exponent_stop}:{ctx.mesh.exponent_step}",
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
    mesh: LogMesh | None = None,
) -> dict:
    """Run one command over a validated problem and return the report document."""
    return _report(_Context(problem, tolerance, mesh), command)


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
        self.ctx = _Context(
            parse_problem_dict(report["problem"]),
            config.get("tolerance_override"),
            LogMesh.parse(config.get("mesh", "1.0:8.0:0.5")),
        )

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
        results = self.report.get("results", {})
        handler = getattr(self, "_verify_" + command.replace("-", "_"), None)
        if handler is not None:
            with np.errstate(over="raise", invalid="raise"):
                handler(results)
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
                f"<grad, w> = {float(pairing):.6g}",
            )
        if verdict == "holds" and entry.get("certificate") and entry["certificate"].get("type") == "lagrange":
            cert = entry["certificate"]
            certificate = LagrangeCertificate(
                inequality_multipliers=tuple(
                    (item["position"], item.get("origin_row"), Fraction(item["value"]))
                    for item in cert["inequality_multipliers"]
                ),
                equality_multipliers=_as_rational_vector(cert["equality_multipliers"]),
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
        for entry in results.get("second_order_tangent_sets", []):
            self.add(
                "second-order set: generators satisfy the H-representation",
                _generators_match(entry["cone"]),
            )

    def _verify_first_order(self, results: dict) -> None:
        self._check_linear_condition("first-order", results.get("condition"), self.ctx.tangent)

    def _verify_second_order(self, results: dict) -> None:
        for entry in results.get("directions", []):
            direction = _as_rational_vector(entry["direction"])
            second = self.ctx.second_order_set(direction)
            self._check_linear_condition("c1", entry.get("c1"), second)
            self._check_classical(entry.get("classical"), second, direction)
            c2 = entry.get("c2_at_direction")
            if c2 and c2.get("verdict") == "fails":
                curvature = self._curvature(direction)
                self.add(
                    "c2: negative curvature reproduces",
                    curvature < 0,
                    f"<Mv, v> = {float(curvature):.6g}",
                )

    def _curvature(self, direction: RationalVector) -> Fraction:
        """<Mv, v> in the run's arithmetic: exact for exact quadratic data,
        else off the float Hessian the run used."""
        objective = self.ctx.objective
        if isinstance(objective, QuadraticObjective):
            return objective.quadratic_form(direction)
        vec = np.asarray(direction.as_floats())
        return Fraction(float(vec @ objective.hessian_at(self.ctx.point_floats()) @ vec))

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
            f"{quantity} = {float(violation):.6g}",
        )

    def _verify_qp(self, results: dict) -> None:
        tangent = self.ctx.tangent
        self._check_linear_condition("c0", results.get("c0"), tangent)
        # (c1') is checked on T2(x, v) at its witness direction, else at the
        # first checked direction
        c1p = results.get("c1_prime") or {}
        fails = c1p.get("verdict") == "fails"
        if fails or c1p.get("checked_directions"):
            direction = c1p["witness_direction"] if fails else c1p["checked_directions"][0]
            self._check_linear_condition(
                "c1'", c1p, tangent.tangent_cone_at(_as_rational_vector(direction))
            )
        c2p = results.get("c2_prime")
        if c2p and c2p.get("verdict") == "fails" and c2p.get("witness"):
            witness = _as_rational_vector(c2p["witness"])
            crit = critical_cone(self.gradient, tangent)
            value = self.ctx.objective.quadratic_form(witness)
            self.add(
                "c2': witness is a critical direction with negative form",
                crit.contains(witness) and value < 0,
                f"<Mv, v> = {float(value):.6g}",
            )

    def _verify_theorem41(self, results: dict) -> None:
        # exact quadratic data pair the echoed rational z and v exactly
        exact = isinstance(self.ctx.objective, QuadraticObjective)
        candidates = self.ctx.problem.query.z_candidates
        for v, entry in zip(self.ctx.directions(), results.get("directions", [])):
            condition = entry.get("gradient_condition")
            if condition is not None:
                second = self.ctx.second_order_set(_as_rational_vector(v))
                self._check_linear_condition("gradient condition", condition, second)
            direction = np.asarray(entry["direction"], dtype=float)
            for z, pairing in zip(candidates, entry.get("pairings", [])):
                if exact:
                    value = _as_rational_vector(z).dot(_as_rational_vector(v))
                else:
                    value = float(np.asarray(pairing["candidate"], dtype=float) @ direction)
                consistent = abs(float(value) - pairing["pairing"]) <= 1e-12 and (
                    (value >= -self.ctx.tolerance) == pairing["holds"]
                )
                self.add(
                    "pairing <z, v> reproduces",
                    consistent,
                    f"<z, v> = {float(value):.6g}",
                )

    def _verify_ssd(self, results: dict) -> None:
        objective = self.ctx.smooth_objective()
        for entry in results.get("memberships", []):
            base = self.ctx.point_floats()[0]
            query = SSDQuery(objective, base, entry["direction"], entry["candidate"])
            grad_base = float(objective.gradient_at([base])[0])
            quotient = _membership_quotient(query, entry["attaining_sample"], base, grad_base)
            self.add(
                "ssd: attaining sample reproduces the worst quotient",
                quotient is not None and abs(quotient - entry["worst_quotient"]) <= 1e-12,
                "zero denominator" if quotient is None else f"quotient = {quotient:.6g}",
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
