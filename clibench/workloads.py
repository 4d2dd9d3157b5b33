"""Seeded problem sets, one per workload.

Every workload is a fixed list of slots.  A slot's combinatorial type (its
dimension, its template rows, the kind of objective) is drawn once from a
constant structure seed, so every run does the same kind of work.  The run's
``--seed`` draws everything else: positive row scalings, the base point,
the inactive rows, the objective weights, the directions and, for
``cones_dd`` and ``cli_mix``, a signed permutation of the coordinates.  None
of these changes the combinatorics of a slot (its double-description ray
counts, its critical-cone generators and so its LP count, the signs its
copositivity partition looks at), so the work of a pass moves little from
seed to seed while the inputs differ.  ``qp_exact`` keeps the template's
coordinates: a permutation reorders the simplex's columns, Bland's rule then
takes another pivot path (``command_p50_ms`` spread 13 % over ten seeds
with it, 4 % without).

Each builder writes its files and returns a list of :class:`Op`; the
checks live in ``checks.py`` and see only the problem data kept here.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import checks
from exact import dot, primitive

PROBLEMS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "problems")


@dataclass
class Op:
    """One CLI command of a pass: its argv and how to check what it printed."""

    label: str
    argv: list[str]
    check: Callable[[int, str], None]
    save_to: str | None = None   # write stdout here, for a following `verify`
    known_fault: bool = False    # expected to hit the named verify fault


def _s(x) -> str:
    return str(Fraction(x))


def _fraction(rng: random.Random, span: int = 3, dens=(1, 1, 2, 3)) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.choice(dens))


def _int_row(rng: random.Random, dim: int, span: int = 3) -> list[Fraction]:
    while True:
        row = [Fraction(rng.randint(-span, span)) for _ in range(dim)]
        if any(row):
            return row


class CoordinateChange:
    """x = U y for a seeded signed permutation U, so U^-1 = U^T.

    It relabels and reflects coordinates: every exact step of the program
    sees the same numbers up to order and sign, so a slot costs the same on
    every seed."""

    def __init__(self, rng: random.Random, dim: int):
        order = list(range(dim))
        rng.shuffle(order)
        self.order = order
        self.signs = [rng.choice((1, -1)) for _ in range(dim)]

    def row(self, c) -> list[Fraction]:
        """A template row c on x becomes U^T c on y."""
        return [self.signs[i] * Fraction(c[self.order[i]]) for i in range(len(c))]

    def point(self, t) -> list[Fraction]:
        """A template direction t in x becomes U^-1 t = U^T t in y."""
        return self.row(t)


def _polyhedron_block(dim, rows, bounds, eq_rows=(), eq_rhs=()):
    block = {
        "type": "polyhedron",
        "dimension": dim,
        "inequalities": {"rows": [[_s(a) for a in r] for r in rows],
                         "bounds": [_s(b) for b in bounds]},
    }
    if eq_rows:
        block["equalities"] = {"matrix": [[_s(a) for a in r] for r in eq_rows],
                               "rhs": [_s(b) for b in eq_rhs]}
    return block


def _quadratic_block(m, q):
    return {"type": "quadratic", "matrix": [[_s(a) for a in r] for r in m],
            "linear": [_s(a) for a in q], "constant": "0"}


def _write(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1)


@dataclass
class PolyProblem:
    """The exact data of a generated polyhedral problem, for the checks."""

    dim: int
    rows: list[list[Fraction]]
    bounds: list[Fraction]
    point: list[Fraction]
    matrix: list[list[Fraction]] | None = None
    linear: list[Fraction] | None = None
    directions: list[list[Fraction]] = field(default_factory=list)
    eq_rows: list[list[Fraction]] = field(default_factory=list)
    eq_rhs: list[Fraction] = field(default_factory=list)
    expect: dict = field(default_factory=dict)

    def document(self, description: str) -> dict:
        doc = {
            "version": "1",
            "description": description,
            "constraint": _polyhedron_block(self.dim, self.rows, self.bounds,
                                            self.eq_rows, self.eq_rhs),
            "query": {"point": [_s(a) for a in self.point], "regime": "exact"},
        }
        if self.matrix is not None:
            doc["objective"] = _quadratic_block(self.matrix, self.linear)
        if self.directions:
            doc["query"]["directions"] = [[_s(a) for a in d] for d in self.directions]
        return doc

    def gradient(self) -> list[Fraction]:
        return [dot(r, self.point) + q for r, q in zip(self.matrix, self.linear)]

    def active(self) -> list[int]:
        return [k for k, (r, b) in enumerate(zip(self.rows, self.bounds))
                if dot(r, self.point) == b]


def _embed(rng: random.Random, dim: int, template_rows, n_inactive: int,
           point_dens=(1, 1, 2, 3)) -> tuple[list, list, list, list]:
    """Template rows, positively scaled, made active at a seeded base point,
    plus random inactive rows inserted at seeded places; the active rows
    keep their template order."""
    point = [_fraction(rng, 3, point_dens) for _ in range(dim)]
    active = []
    for c in template_rows:
        scale = rng.choice((1, 1, 2, 3))
        active.append([scale * a for a in primitive(c)])
    rows, bounds = [], []
    for r in active:
        rows.append(r)
        bounds.append(dot(r, point))
    for _ in range(n_inactive):
        r = _int_row(rng, dim)
        position = rng.randrange(len(rows) + 1)
        slack = Fraction(rng.randint(1, 4), rng.choice((1, 2)))
        rows.insert(position, r)
        bounds.insert(position, dot(r, point) + slack)
    return active, rows, bounds, point


def _shipped_tail(ops: list[Op], workdir: str) -> None:
    """End each pass with the shipped orthant QP (and its `verify`) and the
    shipped theorem41 problem: a few milliseconds that give every layer a
    little work on every workload, so that no per-layer figure is a constant
    zero."""
    path = os.path.join(PROBLEMS, "orthant_qp.json")
    report = os.path.join(workdir, "tail_orthant_qp.report.json")
    ops.append(Op("tail/orthant_qp", ["qp", "--input", path, "--format", "json"],
                       checks.float_report("qp"), save_to=report))
    ops.append(Op("tail/orthant_qp/verify", ["verify", "--input", report, "--format", "json"],
                       checks.verify_passes))
    ops.append(Op("tail/ex41_theorem41",
                       ["theorem41", "--input", os.path.join(PROBLEMS, "ex41_theorem41.json"),
                        "--format", "json"],
                       checks.theorem41_status("HypothesisViolated")))


# ---------------------------------------------------------------------------
# qp_exact
# ---------------------------------------------------------------------------

# (structure key, dimension, active rows, inactive rows, objective kind)
#   psd     M = sum_k w_k a_k a_k^T over the active rows: every pair of
#           tangent directions pairs nonnegatively, so (c2') holds at depth 0
#   neg     that M minus (sum_k w_k |a_k|^2 + 1) I: every nonzero direction
#           has negative form, so (c2') fails at depth 0
#   outward as psd, but the gradient points out of the set: (c0) fails
QP_SLOTS = (
    (0, 6, 9, 4, "psd"), (1, 6, 10, 3, "neg"), (2, 6, 9, 4, "outward"),
    (3, 7, 10, 4, "psd"), (5, 7, 9, 3, "outward"),
    (6, 8, 10, 4, "psd"), (8, 9, 10, 4, "psd"), (9, 9, 10, 3, "neg"),
)


def _qp_template(key: int, dim: int, n_active: int):
    """Template rows through an interior point, so the tangent cone is
    full-dimensional; the stationary row is the first one."""
    rng = random.Random(f"qp_exact/{key}")
    p = [Fraction(rng.randint(-3, 3)) for _ in range(dim)]
    rows = []
    while len(rows) < n_active:
        c = _int_row(rng, dim)
        if dot(c, p) > 0:
            c = [-a for a in c]
        if dot(c, p) < 0:
            rows.append(c)
    return rows


def qp_problem(seed: int, slot: int) -> PolyProblem:
    key, dim, n_active, n_inactive, kind = QP_SLOTS[slot]
    template = _qp_template(key, dim, n_active)
    rng = random.Random(f"qp_exact/{seed}/{slot}")
    active, rows, bounds, point = _embed(rng, dim, template, n_inactive)
    weights = [rng.choice((1, 2)) for _ in active]
    m = [[sum((w * a[i] * a[j] for w, a in zip(weights, active)), Fraction(0))
          for j in range(dim)] for i in range(dim)]
    if kind == "neg":
        shift = sum(w * dot(a, a) for w, a in zip(weights, active)) + 1
        for i in range(dim):
            m[i][i] -= shift
    lam = rng.choice((Fraction(1), Fraction(2), Fraction(1, 2)))
    sign = 1 if kind == "outward" else -1
    target = [sign * lam * a for a in active[0]]  # the gradient at the point
    mx = [dot(r, point) for r in m]
    linear = [t - v for t, v in zip(target, mx)]
    expect = {"c0": "fails" if kind == "outward" else "holds",
              "c2": "fails" if kind == "neg" else "holds"}
    return PolyProblem(dim, rows, bounds, point, m, linear, expect=expect)


def build_qp_exact(seed: int, workdir: str) -> list[Op]:
    ops: list[Op] = []
    for slot in range(len(QP_SLOTS)):
        problem = qp_problem(seed, slot)
        path = os.path.join(workdir, f"qp_exact_{slot}.json")
        _write(path, problem.document(f"qp_exact slot {slot}, seed {seed}"))
        ops.append(Op(f"qp_exact/{slot}", ["qp", "--input", path, "--format", "json"],
                           checks.qp_exact(problem)))
    _shipped_tail(ops, workdir)
    return ops


# ---------------------------------------------------------------------------
# cones_dd
# ---------------------------------------------------------------------------

# (dimension, active rows, tangent directions)
CONES_SLOTS = (
    (8, 12, 2), (8, 13, 2), (9, 12, 2), (9, 13, 2), (10, 12, 2), (10, 13, 1),
)


def _cones_template(slot: int, dim: int, n_active: int, n_dirs: int):
    """Template rows through an interior point p, each tight on one of the
    template directions (or on none), so every direction is tangent and
    each second-order set keeps several rows."""
    rng = random.Random(f"cones_dd/{slot}")
    p = [Fraction(rng.randint(-3, 3)) for _ in range(dim)]
    dirs = [_int_row(rng, dim) for _ in range(n_dirs)]
    rows = []
    while len(rows) < n_active:
        c = _int_row(rng, dim)
        j = len(rows) % (n_dirs + 1)
        if j < n_dirs:
            t = dirs[j]
            c = list(primitive([dot(t, t) * a - dot(c, t) * b for a, b in zip(c, t)]))
            if not any(c):
                continue
        if dot(c, p) > 0:
            c = [-a for a in c]
        if dot(c, p) < 0 and all(dot(c, t) <= 0 for t in dirs):
            rows.append(c)
    return rows, dirs


def cones_problem(seed: int, slot: int) -> PolyProblem:
    dim, n_active, n_dirs = CONES_SLOTS[slot]
    template, template_dirs = _cones_template(slot, dim, n_active, n_dirs)
    rng = random.Random(f"cones_dd/{seed}/{slot}")
    change = CoordinateChange(rng, dim)
    _, rows, bounds, point = _embed(rng, dim, [change.row(c) for c in template], 3)
    directions = []
    for t in template_dirs:
        scale = rng.choice((1, 2))
        directions.append([scale * a for a in change.point(t)])
    return PolyProblem(dim, rows, bounds, point, directions=directions)


def build_cones_dd(seed: int, workdir: str) -> list[Op]:
    ops: list[Op] = []
    for slot in range(len(CONES_SLOTS)):
        problem = cones_problem(seed, slot)
        path = os.path.join(workdir, f"cones_dd_{slot}.json")
        _write(path, problem.document(f"cones_dd slot {slot}, seed {seed}"))
        ops.append(Op(f"cones_dd/{slot}", ["cones", "--input", path, "--format", "json"],
                           checks.cones(problem)))
    _shipped_tail(ops, workdir)
    return ops


# ---------------------------------------------------------------------------
# copositivity_cells
# ---------------------------------------------------------------------------

# each cone as (H-rows, generators); the generators feed the checks only
_ORTHANT = "orthant"
_SQUARE = (((1, 0, -1), (-1, 0, -1), (0, 1, -1), (0, -1, -1)),
           tuple((a, b, 1) for a in (1, -1) for b in (1, -1)))
_OCTAHEDRON = (tuple((a, b, c, -1) for a in (1, -1) for b in (1, -1) for c in (1, -1)),
               tuple(tuple(s * int(i == j) for j in range(3)) + (1,)
                     for i in range(3) for s in (1, -1)))


def _unit_diagonal(n: int, upper: str) -> list[list[Fraction]]:
    """Unit-diagonal symmetric matrix from its upper triangle, row by row."""
    entries = iter(Fraction(a) for a in upper.split())
    m = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = next(entries)
    return m


def _symmetric(rows: str) -> list[list[Fraction]]:
    return [[Fraction(a) for a in r.split()] for r in rows.split(",")]


# (cone, matrix, what the partition does with it at the default depth 12)
COPOSITIVITY_SLOTS = (
    (_ORTHANT, _unit_diagonal(4, "-1/4 1 -3/4 -1/4 0 -1"), "refuted at depth 11"),
    (_ORTHANT, _unit_diagonal(4, "-1 -3/4 1/2 0 -1/2 1"), "refuted at depth 9"),
    (_ORTHANT, _unit_diagonal(4, "-1/4 1/2 -1/4 -3/4 -1 1/2"), "refuted at depth 6"),
    (_ORTHANT, _unit_diagonal(3, "-3/4 -1/4 -1/2"), "refuted at depth 5"),
    (_ORTHANT, _unit_diagonal(5, "-3/4 -1 1/2 -3/4 -1/4 -1/2 -3/4 1 1 -1/4"), "refuted at depth 7"),
    (_ORTHANT, _unit_diagonal(5, "1/2 -1/2 -1 -1/2 -1/2 1 -1/2 -1/4 1/2 -1/2"), "refuted at depth 5"),
    (_ORTHANT, _unit_diagonal(4, "-3/4 -1/4 0 1 -3/4 0"), "refuted by the sphere falsifier"),
    (_ORTHANT, _unit_diagonal(3, "1 1 -1"), "copositive, not PSD, certified at depth 1"),
    (_ORTHANT, _unit_diagonal(3, "0 1 -1"), "copositive, not PSD, certified at depth 1"),
    (_ORTHANT, _unit_diagonal(3, "1 -1/4 -1/2"), "inconclusive after the falsifier"),
    (_ORTHANT, _symmetric("1 -3 0, -3 9 1, 0 1 0"), "inconclusive after the falsifier"),
    (_SQUARE, _symmetric("-1 0 0, 0 -1 0, 0 0 2"), "copositive, not PSD, certified at depth 0"),
    (_SQUARE, _symmetric("1 0 0, 0 1 0, 0 0 -3/2"), "refuted at depth 1, off the generators"),
    (_OCTAHEDRON, _symmetric("-1 0 0 0, 0 -1 0 0, 0 0 -1 0, 0 0 0 1"),
     "copositive, not PSD, certified at depth 0"),
)


def copositivity_problem(seed: int, slot: int) -> PolyProblem:
    """The slot's cone as the tangent cone at a seeded point, with the
    gradient zero there, so the critical cone is the whole tangent cone.

    The seed moves the point and scales each row by a positive integer;
    neither changes a number the partition looks at."""
    cone, m, _ = COPOSITIVITY_SLOTS[slot]
    dim = len(m)
    rng = random.Random(f"copositivity_cells/{seed}/{slot}")
    if cone == _ORTHANT:
        units = tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))
        cone = (tuple(tuple(-a for a in u) for u in units), units)
    h_rows, generators = cone
    point = [_fraction(rng) for _ in range(dim)]
    rows = []
    for r in h_rows:
        row_scale = rng.choice((1, 2, 3))
        rows.append([row_scale * Fraction(a) for a in r])
    bounds = [dot(r, point) for r in rows]
    linear = [-dot(r, point) for r in m]
    expect = {"generators": [[Fraction(a) for a in g] for g in generators]}
    return PolyProblem(dim, rows, bounds, point, m, linear, expect=expect)


def build_copositivity_cells(seed: int, workdir: str) -> list[Op]:
    ops: list[Op] = []
    for slot in range(len(COPOSITIVITY_SLOTS)):
        problem = copositivity_problem(seed, slot)
        path = os.path.join(workdir, f"copositivity_cells_{slot}.json")
        _write(path, problem.document(
            f"copositivity_cells slot {slot}, seed {seed}: {COPOSITIVITY_SLOTS[slot][2]}"))
        ops.append(Op(f"copositivity_cells/{slot}",
                           ["qp", "--input", path, "--format", "json"],
                           checks.copositivity(problem)))
    _shipped_tail(ops, workdir)
    return ops


# ---------------------------------------------------------------------------
# cli_mix
# ---------------------------------------------------------------------------

EXACT_COMMANDS = ("cones", "first-order", "second-order", "qp")
# fixture -> commands it supports; qp needs explicit quadratic data, theorem41
# a polyhedral set and second-order a Hessian, so the CLI refuses the rest
FIXTURE_COMMANDS = {
    "ex31": ("cones", "first-order", "second-order", "ssd"),
    "ex32": ("cones", "first-order", "second-order", "ssd"),
    "ex41": ("cones", "first-order", "ssd", "theorem41"),
}
# dimension and equality rows of the seeded exact problems
MIX_SLOTS = ((2, 0), (3, 0), (3, 1), (4, 1))


def _mix_template(slot: int, dim: int, n_eq: int):
    """Active rows through an interior point p of the equality subspace, and
    up to two tangent directions found by rejection."""
    rng = random.Random(f"cli_mix/{slot}")
    eq_rows = [_int_row(rng, dim) for _ in range(n_eq)]
    while True:
        p = [Fraction(rng.randint(-3, 3)) for _ in range(dim)]
        for e in eq_rows:
            p = [dot(e, e) * x - dot(p, e) * y for x, y in zip(p, e)]
        if any(p):
            break
    rows = []
    while len(rows) < dim:
        c = _int_row(rng, dim)
        if dot(c, p) > 0:
            c = [-x for x in c]
        if dot(c, p) < 0:
            rows.append(c)
    directions = []
    for _ in range(400):
        v = _int_row(rng, dim, 2)
        for e in eq_rows:
            v = [dot(e, e) * x - dot(v, e) * y for x, y in zip(v, e)]
        if any(v) and all(dot(r, v) <= 0 for r in rows) and v not in directions:
            directions.append(v)
            if len(directions) == 2:
                break
    return rows, eq_rows, directions


def mix_problem(seed: int, slot: int) -> PolyProblem:
    """A small exact QP at a dyadic base point: stationary along an active row
    with M copositive on the tangent cone (slots 0, 2), pointing out of the
    set (slot 1), or with M negative definite (slot 3)."""
    dim, n_eq = MIX_SLOTS[slot]
    template, template_eq, template_dirs = _mix_template(slot, dim, n_eq)
    rng = random.Random(f"cli_mix/{seed}/{slot}")
    change = CoordinateChange(rng, dim)
    active, rows, bounds, point = _embed(rng, dim, [change.row(c) for c in template], 2, (1, 2, 4))
    eq_rows = [list(primitive(change.row(e))) for e in template_eq]
    eq_rhs = [dot(e, point) for e in eq_rows]
    m = [[sum((a[i] * a[j] for a in active), Fraction(0)) for j in range(dim)]
         for i in range(dim)]
    if slot == 3:
        shift = sum(dot(a, a) for a in active) + 1
        for i in range(dim):
            m[i][i] -= shift
    sign = 1 if slot == 1 else -1
    mx = [dot(r, point) for r in m]
    linear = [sign * a - v for a, v in zip(active[0], mx)]
    directions = [change.point(t) for t in template_dirs]
    return PolyProblem(dim, rows, bounds, point, m, linear, directions,
                       eq_rows=eq_rows, eq_rhs=eq_rhs)


# Reports at a non-dyadic point, which `verify` cannot re-read (see README).
# They do not depend on the seed, so they fail the same way in every run.
NON_DYADIC = (
    ("qp", PolyProblem(2, [[Fraction(-3), Fraction(0)], [Fraction(3), Fraction(0)],
                           [Fraction(0), Fraction(-1)]],
                       [Fraction(-1), Fraction(1), Fraction(0)],
                       [Fraction(1, 3), Fraction(0)],
                       [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]],
                       [Fraction(-1, 3), Fraction(0)])),
    ("first-order", PolyProblem(3, [[Fraction(0), Fraction(-5), Fraction(0)],
                                    [Fraction(0), Fraction(5), Fraction(0)],
                                    [Fraction(0), Fraction(0), Fraction(-1)]],
                                [Fraction(-2), Fraction(2), Fraction(0)],
                                [Fraction(1), Fraction(2, 5), Fraction(0)],
                                [[Fraction(1), Fraction(0), Fraction(0)],
                                 [Fraction(0), Fraction(1), Fraction(0)],
                                 [Fraction(0), Fraction(0), Fraction(1)]],
                                [Fraction(-1), Fraction(-2, 5), Fraction(1)])),
)


def _json_and_verify(ops: list[Op], label: str, command: str, path: str, check,
                     workdir: str, known_fault: bool = False) -> str:
    report = os.path.join(workdir, label.replace("/", "_") + ".report.json")
    ops.append(Op(label, [command, "--input", path, "--format", "json"], check,
                       save_to=report))
    ops.append(Op(label + "/verify", ["verify", "--input", report, "--format", "json"],
                       checks.verify_passes, known_fault=known_fault))
    return report


def build_cli_mix(seed: int, workdir: str) -> list[Op]:
    ops: list[Op] = []
    shipped = (
        ("orthant_qp.json", "qp", checks.float_report("qp")),
        ("ex31_second_order.json", "second-order", checks.ex31_second_order),
        ("ex41_theorem41.json", "theorem41", checks.theorem41_status("HypothesisViolated")),
    )
    for name, command, check in shipped:
        path = os.path.join(PROBLEMS, name)
        report = _json_and_verify(ops, f"problems/{name}", command, path, check, workdir)
        ops.append(Op(f"problems/{name}/human", [command, "--input", path],
                           checks.human_matches(report)))

    rng = random.Random(f"cli_mix/{seed}/fixtures")
    for name, commands in FIXTURE_COMMANDS.items():
        query = {"regime": "float", "tolerance": 1e-9}
        if name == "ex41":
            directions = sorted(rng.sample((0.5, 1.0, 2.0), 2))
            candidates = [rng.choice((-0.75, -0.25)) * directions[0],
                          rng.choice((0.25, 0.5)), rng.choice((-3.0, -4.0))]
            query["directions"] = [[v] for v in directions]
            query["z_candidates"] = [[z] for z in candidates]
        else:
            query["z_candidates"] = [[rng.choice((-1.0, 0.5, 2.0)), rng.choice((-0.5, 1.0))]]
        path = os.path.join(workdir, f"fixture_{name}.json")
        _write(path, {"version": "1", "description": f"fixture {name}",
                      "constraint": {"type": "fixture", "name": name}, "query": query})
        for command in commands:
            check = checks.float_report(command)
            if (name, command) == ("ex31", "second-order"):
                check = checks.ex31_second_order
            elif (name, command) == ("ex41", "ssd"):
                check = checks.ex41_ssd(directions, candidates)
            _json_and_verify(ops, f"fixture/{name}/{command}", command, path, check, workdir)

    for slot in range(len(MIX_SLOTS)):
        problem = mix_problem(seed, slot)
        path = os.path.join(workdir, f"cli_mix_{slot}.json")
        _write(path, problem.document(f"cli_mix slot {slot}, seed {seed}"))
        for command in EXACT_COMMANDS:
            label = f"cli_mix/{slot}/{command}"
            report = _json_and_verify(ops, label, command, path,
                                      checks.exact_command(problem, command), workdir)
            ops.append(Op(label + "/human", [command, "--input", path],
                               checks.human_matches(report)))

    for k, (command, problem) in enumerate(NON_DYADIC):
        path = os.path.join(workdir, f"non_dyadic_{k}.json")
        _write(path, problem.document("exact report at a non-dyadic point"))
        _json_and_verify(ops, f"non_dyadic/{k}/{command}", command, path,
                         checks.exact_command(problem, command), workdir, known_fault=True)
    return ops


BUILDERS = {
    "qp_exact": build_qp_exact,
    "cones_dd": build_cones_dd,
    "copositivity_cells": build_copositivity_cells,
    "cli_mix": build_cli_mix,
}
