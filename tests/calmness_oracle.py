"""Reference calmness estimator for the differential test of
``cone_audit.ssd.estimate_calmness``.

This is the Halton-ball estimator ``estimate_calmness`` ran before it became
one-dimensional, restricted to its one-coordinate case: the offset is the
base-2 van der Corput point mapped to [-1, 1), kept when its Euclidean norm
lies in (0, 1], and distances and gradient differences are numpy norms of
one-element arrays.  The one-dimensional estimator must return the same
modulus, bit for bit.
"""

from __future__ import annotations

import numpy as np

from cone_audit.objectives import SmoothObjective


def _van_der_corput(index: int, base: int) -> float:
    value, denom = 0.0, 1.0
    while index:
        index, digit = divmod(index, base)
        denom *= base
        value += digit / denom
    return value


def reference_calmness(objective: SmoothObjective, point, radius: float, samples: int) -> float:
    base_point = np.asarray(point, dtype=float).reshape(1)
    grad_base = objective.gradient_at(base_point)
    best = 0.0
    accepted = 0
    index = 1
    while accepted < samples:
        offset = np.array([2.0 * _van_der_corput(index, 2) - 1.0])
        index += 1
        norm = float(np.linalg.norm(offset))
        if norm == 0.0 or norm > 1.0:
            continue
        probe = base_point + radius * offset
        distance = float(np.linalg.norm(probe - base_point))
        if distance == 0.0:
            continue
        accepted += 1
        quotient = float(np.linalg.norm(np.asarray(objective.gradient_at(probe)) - np.asarray(grad_base))) / distance
        best = max(best, quotient)
    return best
