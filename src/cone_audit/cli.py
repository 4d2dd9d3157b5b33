"""Command-line front end.

    cone-audit <command> --input FILE [--format human|json]
                         [--tolerance T] [--mesh SPEC]

Commands: cones, first-order, second-order, qp, ssd, theorem41, verify.
Exit codes: 0 all checked conditions hold, 1 some condition fails, 3 on
input or usage errors and on a failed internal self-check.  Every check is
decided, so no command exits 2.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .analysis import COMMANDS, EXIT_ERROR, revalidate_report, run_analysis
from .errors import ConeAuditError, ProblemFormatError
from .problem import parse_problem
from .ssd import LogMesh


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # usage errors exit 3, as input errors do, not argparse's 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise _UsageError(message)


def _tolerance(text: str) -> float:
    value = float(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite nonnegative number, got {text!r}")
    return value


# built once per process; parse_args leaves the parser unchanged
_PARSER = _Parser(
    prog="cone-audit",
    description=(
        "Exact tangent/normal cone computations for polyhedral constraint "
        "sets and verification of first- and second-order necessary "
        "optimality conditions at candidate points."
    ),
)
_PARSER.add_argument(
    "command",
    choices=COMMANDS + ("verify",),
    help="analysis to run; 'verify' re-validates a previously produced report",
)
_PARSER.add_argument("--input", required=True, help="problem file (JSON); for 'verify', a report file")
_PARSER.add_argument("--format", choices=("human", "json"), default="human")
_PARSER.add_argument("--tolerance", type=_tolerance, default=None,
                     help="override the verdict tolerance (float regime / ssd oracle)")
_PARSER.add_argument("--mesh", default=None,
                     help="ssd probe mesh as start:stop:step exponents (default 1:8:0.5)")


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except _UsageError:
        return EXIT_ERROR
    try:
        with open(args.input, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_ERROR

    try:
        if args.command == "verify":
            return _run_verify(text, args)
        problem = parse_problem(text)
        mesh = LogMesh.parse(args.mesh) if args.mesh else None
        report = run_analysis(
            problem,
            args.command,
            tolerance=args.tolerance,
            mesh=mesh,
        )
    except ProblemFormatError as exc:
        for line in exc.errors:
            print(f"schema error: {line}", file=sys.stderr)
        return EXIT_ERROR
    except (ConeAuditError, ValueError, FloatingPointError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except RuntimeError as exc:  # an in-solver self-check failed
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    if args.format == "json":
        print(_render_json(report))
    else:
        print(_render_human(report))
    return report["exit_code"]


def _run_verify(text: str, args) -> int:
    try:
        report = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, or an int too long
        print(f"report is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_ERROR
    try:
        ok, checks = revalidate_report(report)
    except (ConeAuditError, KeyError, TypeError, ValueError, AttributeError,
            FloatingPointError, OverflowError) as exc:
        print(f"not a usable report document: {exc!r}", file=sys.stderr)
        return EXIT_ERROR
    if args.format == "json":
        print(_render_json({"verified": ok, "checks": checks}))
    else:
        for check in checks:
            mark = "ok " if check["ok"] else "FAIL"
            detail = f"  ({check['detail']})" if check["detail"] else ""
            print(f"[{mark}] {check['check']}{detail}")
        print(f"verification {'passed' if ok else 'FAILED'}: {len(checks)} checks")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Report rendering: JSON, and human-readable text
# ---------------------------------------------------------------------------

_encode_str = json.encoder.encode_basestring_ascii
_CONSTANTS = {None: "null", True: "true", False: "false"}


def _plain(strings) -> bool:
    """Whether every item is a string that JSON writes unescaped: printable ASCII, no quote or backslash."""
    try:
        text = "".join(strings)
    except TypeError:  # some item is not a string
        return False
    return text.isascii() and text.isprintable() and '"' not in text and "\\" not in text


def _render_json(obj, indent: str = "\n") -> str:
    """What ``json.dumps`` writes with ``sort_keys=True`` and an indent of 2, byte for byte.

    ``json`` indents only in its pure-Python encoder, a generator per nesting
    level; this returns strings, and a list of plain strings (a vector) is
    one ``join``.  ``indent`` is the line break and indentation that precede
    ``obj``'s closing bracket.  Dict keys must be ``str``, as every report's
    are: any other key raises ``TypeError``, as does a value that ``json``
    cannot encode."""
    if type(obj) is str:
        return _encode_str(obj)
    if obj is None or obj is True or obj is False:
        return _CONSTANTS[obj]
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [_encode_str(key) + ": " + _render_json(value, inner) for key, value in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if not isinstance(obj, (list, tuple)):
        return json.dumps(obj)  # a float as json spells it (NaN, Infinity), a str subclass; else TypeError
    if not obj:
        return "[]"
    if type(obj[0]) is str and _plain(obj):
        return "[" + inner + '"' + ('",' + inner + '"').join(obj) + '"' + indent + "]"
    return "[" + inner + ("," + inner).join([_render_json(a, inner) for a in obj]) + indent + "]"


def _fmt_vec(values) -> str:
    if values is None:
        return "-"
    return "(" + ", ".join(str(v) for v in values) + ")"


def _fmt_condition(entry: dict, indent: str = "  ") -> str:
    lines = [f"{indent}{entry['condition']}: {entry['verdict'].upper()}"]
    if entry.get("margin") is not None:
        lines.append(f"{indent}  margin: {entry['margin']}")
    if entry.get("boundary"):
        lines.append(f"{indent}  (boundary case: within tolerance of zero)")
    if entry.get("witness") is not None:
        lines.append(f"{indent}  witness: {_fmt_vec(entry['witness'])}")
    if entry.get("witness_direction") is not None:
        lines.append(f"{indent}  at critical direction: {_fmt_vec(entry['witness_direction'])}")
    cert = entry.get("certificate")
    if cert is not None:
        if cert["type"] == "lagrange":
            multipliers = ", ".join(
                f"row {m['origin_row'] or m['position'] + 1}: {m['value']}"
                for m in cert["inequality_multipliers"]
            )
            lines.append(f"{indent}  multipliers: {multipliers or 'none'}")
            if cert["equality_multipliers"]:
                lines.append(f"{indent}  equality multipliers: {_fmt_vec(cert['equality_multipliers'])}")
        elif cert["type"] == "copositivity":
            lines.append(
                f"{indent}  copositivity: {cert['status']} via {cert['method']}"
                f" (certified cells {cert['cells_certified']})"
            )
    if entry.get("notes"):
        lines.append(f"{indent}  note: {entry['notes']}")
    return "\n".join(lines)


def _fmt_cone(cone: dict, indent: str = "  ") -> str:
    lines = []
    for row, origin in zip(cone["inequalities"], cone["row_origins"]):
        tag = f" (row {origin})" if origin else ""
        lines.append(f"{indent}<{_fmt_vec(row)}, v> <= 0{tag}")
    for row in cone["equalities"]:
        lines.append(f"{indent}<{_fmt_vec(row)}, v> = 0")
    if not lines:
        lines.append(f"{indent}(no constraints: the whole space)")
    lines.append(f"{indent}rays: " + (", ".join(_fmt_vec(r) for r in cone["rays"]) or "none"))
    lines.append(f"{indent}lineality: " + (", ".join(_fmt_vec(r) for r in cone["lineality"]) or "none"))
    return "\n".join(lines)


def _fmt_region(region: dict, indent: str = "  ") -> str:
    relation = "<=" if region["kind"] == "half-space" else "="
    return (
        f"{indent}<{_fmt_vec(region['normal'])}, w> {relation} {region['offset']}"
        f"   (normalized offset {region['normalized_offset']:.12g})"
    )


def _render_human(report: dict) -> str:
    lines = [
        f"cone-audit {report['tool']['version']} - {report['command']}",
        f"regime: {report['configuration']['regime']}, tolerance: {report['configuration']['tolerance']}",
    ]
    results = report["results"]
    command = report["command"]
    if command == "cones":
        if results["mode"] == "polyhedral":
            lines.append(f"active inequality rows: {results['active_rows']}")
            lines.append("tangent cone:")
            lines.append(_fmt_cone(results["tangent_cone"]))
            lines.append("normal cone:")
            lines.append(_fmt_cone(results["normal_cone"]))
            for entry in results["second_order_tangent_sets"]:
                lines.append(
                    f"second-order tangent set at v = {_fmt_vec(entry['direction'])} "
                    f"(binding rows {entry['binding_rows']}):"
                )
                lines.append(_fmt_cone(entry["cone"]))
        else:
            lines.append("tangent region:")
            lines.append(_fmt_region(results["tangent_region"]))
            for entry in results["second_order_tangent_regions"]:
                lines.append(f"second-order region at v = {_fmt_vec(entry['direction'])}:")
                lines.append(_fmt_region(entry["region"]))
    elif command == "first-order":
        lines.append(f"gradient: {_fmt_vec(results['gradient'])}")
        lines.append(_fmt_condition(results["condition"]))
    elif command == "second-order":
        for entry in results["directions"]:
            lines.append(f"direction v = {_fmt_vec(entry['direction'])}:")
            flags = entry["critical_flags"]
            lines.append(
                "  critical: {critical} (tangent: {in_tangent_cone}, "
                "-v tangent: {negation_in_tangent_cone}, "
                "gradient-orthogonal: {gradient_orthogonal})".format(**flags)
            )
            lines.append(_fmt_condition(entry["c1"]))
            lines.append(_fmt_condition(entry["c2_at_direction"]))
            lines.append(_fmt_condition(entry["classical"]))
    elif command == "qp":
        for key in ("c0", "c1_prime", "c2_prime"):
            lines.append(_fmt_condition(results[key]))
        lines.append(
            "checked critical directions: "
            + (", ".join(_fmt_vec(v) for v in results["checked_directions"]) or "none")
        )
    elif command == "ssd":
        for entry in results.get("memberships", []):
            lines.append(
                f"z = {entry['candidate']}, v = {entry['direction']}: {entry['verdict']}"
                f" (worst quotient {entry['worst_quotient']:.3e}"
                f" at x = {entry['attaining_sample']:.3e})"
            )
        for entry in results.get("closed_form_intervals", []):
            lines.append(
                f"closed-form membership interval at v = {entry['direction']}: "
                f"[{entry['interval'][0]}, {entry['interval'][1]}]"
            )
        if "calmness" in results:
            calm = results["calmness"]
            lines.append(
                f"calmness estimate: {calm['modulus']:.6g} "
                f"(radius {calm['radius']}, {calm['sample_count']} samples)"
            )
        for entry in results.get("hessian_actions", []):
            lines.append(
                f"second-order action at v = {_fmt_vec(entry['direction'])}: "
                f"{_fmt_vec(entry['action'])}"
            )
            for cand in entry.get("candidates", []):
                member = "Member" if cand["member"] else "NotMember"
                lines.append(f"  z = {_fmt_vec(cand['candidate'])}: {member}")
    elif command == "theorem41":
        for entry in results["directions"]:
            lines.append(f"direction v = {_fmt_vec(entry['direction'])}: {entry['status']}")
            flags = entry["flags"]
            lines.append(
                "  hypothesis: v tangent {in_tangent_cone}, -v tangent "
                "{negation_in_tangent_cone}, gradient-orthogonal "
                "{gradient_orthogonal}".format(**flags)
            )
            if entry["gradient_condition"] is not None:
                lines.append(_fmt_condition(entry["gradient_condition"]))
            for pairing in entry["pairings"]:
                verdict = "holds" if pairing["holds"] else "FAILS"
                lines.append(
                    f"  <z, v> for z = {_fmt_vec(pairing['candidate'])}: "
                    f"{pairing['pairing']} -> {verdict}"
                )
    lines.append(f"exit code: {report['exit_code']}")
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())
