"""Mutation fuzzing of every command and of ``verify``.

The documents are the report-digest corpus (the shipped problems, seeded
polyhedral QPs in both regimes and fixture problems at points on their
sets, :func:`test_report_bytes._corpus`), each bare fixture, and the JSON
report of every command on each of them.  A mutant replaces one to three
leaves of a document, each with a value of :data:`VOCABULARY` or with
another leaf of the same document; a problem mutant runs under a random
command, a report mutant under ``verify``.  Every run returns an exit code
0-3 without raising, within :data:`RUN_SECONDS`, and every unmutated report
that exits 0, 1 or 2 verifies.

The mutants are drawn from ``random.Random(SEED)``; raise :data:`MUTANTS`
or change :data:`SEED` to fuzz further than tier-1 does.
"""

import contextlib
import copy
import io
import json
import math
import random
import time

import pytest

from cone_audit.cli import main
from cone_audit.objectives import FIXTURE_NAMES

from test_report_bytes import COMMANDS, _corpus

SEED = 1
MUTANTS = 3000
# far above any run seen: the slowest unmutated command or verify takes about 5 ms
RUN_SECONDS = 3.0
VOCABULARY = (
    None, True, False, "1/0", "0/0", "NaN", 1e308, math.inf, 10**50, 2**64,
    "", [], {}, [[]], "7" * 300 + "/" + "3" * 299,
    # off the exact grammar, though int() or Fraction() would read them
    " 1", "1\n", "\uff11", "\u0661", "1.0", "1e0",
)


def _run(*argv) -> tuple[int, str]:
    """``main(argv)`` in-process: its exit code, 0-3 and within
    :data:`RUN_SECONDS`, and its stdout."""
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    elapsed = time.perf_counter() - start
    assert code in (0, 1, 2, 3) and elapsed < RUN_SECONDS, (argv, code, elapsed)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def problems(tmp_path_factory) -> dict[str, str]:
    """Name -> path of the corpus and of the bare fixtures."""
    workdir = tmp_path_factory.mktemp("fuzz")
    paths = _corpus(str(workdir))
    for name in FIXTURE_NAMES:
        paths[name] = str(workdir / f"bare_{name}.json")
        with open(paths[name], "w", encoding="utf-8") as handle:
            json.dump({"version": "1", "constraint": {"type": "fixture", "name": name},
                       "query": {"regime": "float", "z_candidates": [[-1.0] * (1 if name == "ex41" else 2)]}}, handle)
    return paths


@pytest.fixture(scope="module")
def reports(problems) -> list[tuple[str, str, str]]:
    """(name, command, JSON report) of every command on every problem that
    exits 0, 1 or 2."""
    runs = ((name, command, _run(command, "--input", path, "--format", "json")) for name, path in sorted(problems.items())
            for command in COMMANDS)
    return [(name, command, out) for name, command, (code, out) in runs if code != 3]


def _leaves(node, path=()):
    """(path, value) of every scalar and every empty list or dict."""
    if isinstance(node, (dict, list)) and node:
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _leaves(value, path + (key,))
    else:
        yield path, node


def _mutant(document: dict, rng: random.Random) -> dict:
    """Up to three leaves replaced, each drawn from a field drawn uniformly,
    a field being a path with its list indices left out: the few entries of
    a certificate are hit as often as the many of a matrix."""
    mutant = copy.deepcopy(document)
    leaves, fields = list(_leaves(document)), {}
    for path, _ in leaves:
        fields.setdefault(tuple(key for key in path if isinstance(key, str)), []).append(path)
    for field in rng.sample(list(fields), min(len(fields), rng.randint(1, 3))):
        path = rng.choice(fields[field])
        holder = mutant
        for key in path[:-1]:
            holder = holder[key]
        holder[path[-1]] = copy.deepcopy(rng.choice((*VOCABULARY, rng.choice(leaves)[1])))
    return mutant


def test_unmutated_reports_verify(reports, tmp_path):
    path = tmp_path / "report.json"
    for name, command, out in reports:
        path.write_text(out)
        assert _run("verify", "--input", str(path))[0] == 0, (name, command)
    assert len(reports) > 150


def test_mutants_exit_zero_to_three(problems, reports, tmp_path):
    """A problem mutant runs under a random command and a report mutant
    under ``verify``, in either format."""
    documents = []
    for path in problems.values():
        with open(path, encoding="utf-8") as handle:
            problem = json.load(handle)
        documents += [(command, problem) for command in COMMANDS]
    documents += [("verify", json.loads(out)) for _, _, out in reports]
    rng = random.Random(SEED)
    path = str(tmp_path / "mutant.json")
    for _ in range(MUTANTS):
        command, document = rng.choice(documents)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(_mutant(document, rng), handle)
        _run(command, "--input", path, *rng.choice(((), ("--format", "json"))))
