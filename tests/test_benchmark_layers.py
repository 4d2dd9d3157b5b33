"""The benchmark's traced pass wraps ``cone_audit`` functions by name; every
name it lists must still exist, or a removal in ``src/`` breaks the trace."""

import importlib
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "clibench"))

from tracing import LAYERS  # noqa: E402


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
