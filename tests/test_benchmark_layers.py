"""The benchmark's traced pass wraps ``cone_audit`` functions by name and
reads attributes off their results; every name it lists and every attribute
it reads must still exist, or a removal in ``src/`` breaks the trace.  Its
fixture operations check the reports they get, so those checks run here
too.  ``clibench/`` is imported read-only."""

import contextlib
import importlib
import io
import os
import sys

import pytest

from cone_audit.cli import main
from cone_audit.geometry import PolyhedralCone
from cone_audit.linalg import matrix
from cone_audit.optimality import check_c2_copositivity

from conftest import orthant_cone

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "clibench"))

import workloads  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402


def _resolve(target: str):
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    for part in qualname.split("."):
        owner = getattr(owner, part, None)
    return owner


def test_traced_layer_targets_resolve():
    targets = [target for targets in LAYERS.values() for target in targets]
    missing = [target for target in targets if not callable(_resolve(target))]
    assert targets and not missing, missing


def test_tracer_counts_every_copositivity_method():
    """The traced pass reads ``cells_certified``, ``depth_reached``,
    ``method`` and ``status.value`` off each result; a renamed attribute
    fails here instead of as failed benchmark operations."""
    orthant = orthant_cone(2)
    results = [
        check_c2_copositivity(matrix([[-1]]), PolyhedralCone(1, eq_rows=matrix([[1]]))),
        check_c2_copositivity(matrix([[-1, 0], [0, 1]]), PolyhedralCone(2, eq_rows=matrix([[1, 0]]))),
        check_c2_copositivity(matrix([[1, 0], [0, -1]]), orthant),
        check_c2_copositivity(
            matrix([[1, 1, 1], [1, 1, -1], [1, -1, 1]]), orthant_cone(3)
        ),
    ]
    assert [r.method for r in results] == [
        "trivial", "subspace-factorization", "generators", "cottle-habetler-lemke",
    ]
    tracer = Tracer()
    for result in results:
        tracer._count("check_c2_copositivity", result)
    assert tracer.counts == {
        "dd.generators": 0,
        "copositivity.cells_certified": 1,
        "copositivity.max_depth": 0,
        "copositivity.falsifier_runs": 0,
    }


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cli_mix_fixture_ops_pass_their_checks(seed, tmp_path):
    """The benchmark's ``fixture/*`` operations (cones, first-order,
    second-order, ssd and theorem41 on ex31, ex32 and ex41, each JSON report
    verified), run in order as its runner runs them: none exits 3, and each
    passes its own check, so a report change that would fail the benchmark
    fails here first."""
    ops = [op for op in workloads.build_cli_mix(seed, str(tmp_path)) if op.label.startswith("fixture/")]
    assert any(op.label == "fixture/ex41/ssd" for op in ops)
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(op.argv)
        if op.save_to:
            with open(op.save_to, "w", encoding="utf-8") as handle:
                handle.write(out.getvalue())
        assert code != 3, (op.label, err.getvalue())
        op.check(code, out.getvalue())
