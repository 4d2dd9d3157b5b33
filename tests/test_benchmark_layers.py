"""The benchmark's traced pass wraps ``cone_audit`` functions by name and
reads attributes off their results; every name it lists and every attribute
it reads must still exist, or a removal in ``src/`` breaks the trace."""

import importlib
import os
import sys

from cone_audit.geometry import PolyhedralCone
from cone_audit.linalg import matrix
from cone_audit.optimality import check_c2_copositivity

from conftest import orthant_cone

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "clibench"))

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
