"""Byte identity of the CLI's output over a fixed corpus.

Every command runs in both formats, with the file's own tolerance and with
``--tolerance 1e-6``, and ``verify`` runs on each JSON report it prints.  A
run's stdout (the JSON timestamp line dropped), stderr and exit code are
hashed and compared with ``tests/data/report_digests.json``.  The corpus is
the shipped ``problems/*.json``, seeded polyhedral QPs in the exact and the
float regime, and fixture problems at points on their constraint sets.

A change meant to alter some report regenerates the digests with

    PYTHONPATH=src python tests/test_report_bytes.py

which prints the label of every run whose digest changed against the
recorded file before it overwrites that file, and then the number of
changed runs per command, format and override, such as ``first-order json:
35`` or ``qp json --tolerance 1e-6 verify: 13``.
"""

import contextlib
import glob
import hashlib
import io
import itertools
import json
import math
import os
import random
import sys
from collections import Counter

from cone_audit.cli import main
from cone_audit.linalg import RationalVector

from conftest import random_feasible_polyhedron, random_vector, small_fraction

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "data", "report_digests.json")
COMMANDS = ("cones", "first-order", "second-order", "qp", "ssd", "theorem41")
OVERRIDES = ((), ("--tolerance", "1e-6"))


def _strings(values) -> list[str]:
    return [str(a) for a in values]


def _seeded_qp(seed: int, regime: str) -> dict | None:
    """A QP over a random polyhedron at its known point, with directions in
    its tangent cone, stationary for even seeds; None in the float regime
    when the point is not dyadic, so binary64 would move it off the set."""
    rng = random.Random(seed)
    dim = rng.randint(1, 4)
    num_eq = rng.randint(0, 1) if dim > 1 else 0
    polyhedron, base = random_feasible_polyhedron(rng, dim, rng.randint(1, 2 * dim), num_eq, 0.7)
    if regime == "float" and any(a.denominator & (a.denominator - 1) for a in base):
        return None
    entries = {(i, j): small_fraction(rng) for i in range(dim) for j in range(i, dim)}
    matrix = [[entries[min(i, j), max(i, j)] for j in range(dim)] for i in range(dim)]
    if seed % 2 == 0:
        linear = [-sum(m * b for m, b in zip(row, base)) for row in matrix]
    else:
        linear = random_vector(rng, dim)
    spanning = polyhedron.tangent_cone(base).generators().spanning_vectors()
    directions = []
    for _ in range(2):
        direction = RationalVector.zero(dim)
        for g in spanning:
            direction = direction + g.scale(rng.randint(0, 2))
        directions.append(direction)
    number = (lambda xs: [float(a) for a in xs]) if regime == "float" else _strings
    constraint = {
        "type": "polyhedron",
        "dimension": dim,
        "inequalities": {
            "rows": [_strings(r) for r in polyhedron.ineq_matrix.rows],
            "bounds": _strings(polyhedron.ineq_rhs),
        },
    }
    if num_eq:
        constraint["equalities"] = {
            "matrix": [_strings(r) for r in polyhedron.eq_matrix.rows],
            "rhs": _strings(polyhedron.eq_rhs),
        }
    return {
        "version": "1",
        "constraint": constraint,
        "objective": {"type": "quadratic", "matrix": [_strings(r) for r in matrix], "linear": _strings(linear)},
        "query": {
            "point": number(base),
            "directions": [number(d) for d in directions],
            "z_candidates": [number(random_vector(rng, dim))],
            "regime": regime,
        },
    }


def _fixture_problems() -> dict[str, dict]:
    """ex31 and ex32 at two boundary points each, along the boundary tangent
    both ways, and at one of them across the boundary; ex41 at its minimum
    and inside the half-line."""
    queries = {}
    for t in (0.0, 2.0):
        point31 = [math.sqrt(3.0) * math.cos(t), math.sqrt(2.0) * math.sin(t)]
        point32 = [math.cos(t), math.sin(t) / math.sqrt(2.0)]
        for name, point, normal in (
            ("ex31", point31, [4 * point31[0], 6 * point31[1]]),
            ("ex32", point32, [2 * point32[0], 4 * point32[1]]),
        ):
            query = {"point": point, "z_candidates": [[-1.0, 0.5]]}
            queries[f"{name}_t{t}"] = (name, {**query, "directions": [[-normal[1], normal[0]], [normal[1], -normal[0]]]})
            if t == 0.0:
                queries[f"{name}_across"] = (name, {**query, "directions": [[-normal[0], -normal[1]]]})
    for point in (0.0, 0.5):
        queries[f"ex41_x{point}"] = ("ex41", {
            "point": [point],
            "directions": [[1.0], [-1.0]],
            "z_candidates": [[-1.0], [0.5]],
        })
    return {
        key: {
            "version": "1",
            "constraint": {"type": "fixture", "name": name},
            "query": {**query, "regime": "float", "tolerance": 1e-9},
        }
        for key, (name, query) in queries.items()
    }


def _corpus(workdir: str) -> dict[str, str]:
    """Input name -> path, the generated files written into ``workdir``."""
    paths = {
        "problems/" + os.path.basename(p): p
        for p in sorted(glob.glob(os.path.join(HERE, "..", "problems", "*.json")))
    }
    documents = {}
    for regime in ("exact", "float"):
        qps = filter(None, (_seeded_qp(seed, regime) for seed in itertools.count()))
        documents.update((f"qp_{regime}_{i}", qp) for i, qp in enumerate(itertools.islice(qps, 12)))
    documents.update(_fixture_problems())
    for name, document in documents.items():
        paths[name] = os.path.join(workdir, name + ".json")
        with open(paths[name], "w", encoding="utf-8") as handle:
            json.dump(document, handle)
    return paths


def _run(argv: list[str]) -> tuple[str, str, int]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return out.getvalue(), err.getvalue(), code


def _digest(stdout: str, stderr: str, code: int) -> str:
    kept = "\n".join(line for line in stdout.splitlines() if '"timestamp":' not in line)
    return hashlib.sha256(json.dumps([kept, stderr, code]).encode()).hexdigest()


def report_digests(workdir: str) -> dict[str, str]:
    """Run label -> digest of every run over the corpus."""
    digests = {}
    report = os.path.join(workdir, "report.json")
    for name, path in _corpus(workdir).items():
        for command in COMMANDS:
            for override in OVERRIDES:
                for fmt in ("json", "human"):
                    label = " ".join([name, command, fmt, *override])
                    stdout, stderr, code = _run([command, "--input", path, "--format", fmt, *override])
                    digests[label] = _digest(stdout, stderr, code)
                    if fmt == "json" and not stderr:
                        with open(report, "w", encoding="utf-8") as handle:
                            handle.write(stdout)
                        digests[label + " verify"] = _digest(*_run(["verify", "--input", report, "--format", "json"]))
    return digests


def changed_labels(actual: dict[str, str]) -> list[str]:
    """The labels whose digest differs from, or is missing in, the recorded
    file (all of them when there is none)."""
    expected = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS, encoding="utf-8") as handle:
            expected = json.load(handle)
    return sorted(label for label in expected.keys() | actual.keys() if expected.get(label) != actual.get(label))


def test_reports_are_byte_identical_to_the_recorded_digests(tmp_path):
    changed = changed_labels(report_digests(str(tmp_path)))
    assert not changed, f"{len(changed)} runs differ from the recorded digests, e.g. {changed[:10]}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        digests = report_digests(workdir)
    changed = changed_labels(digests)
    for label in changed:
        print(f"changed: {label}", file=sys.stderr)
    # a label less its input name: command, format, override, verify
    for key, count in sorted(Counter(label.split(" ", 1)[1] for label in changed).items()):
        print(f"{key}: {count}", file=sys.stderr)
    os.makedirs(os.path.dirname(DIGESTS), exist_ok=True)
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"{len(digests)} digests written to {DIGESTS}, {len(changed)} changed", file=sys.stderr)
