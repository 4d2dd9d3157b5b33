"""Reference copositivity partition on `Fraction` vectors, for differential tests.

This is the bisection partition `optimality.check_c2_copositivity` ran before
the Cottle-Habetler-Lemke test replaced it: every cell recomputes its k x k
pairings with a fresh `matvec`, the longest edge is measured on the vectors
themselves, and a seeded falsifier draws and screens one sample at a time.
It returns None where the partition ended Inconclusive.  The package may
decide those cases but must agree with every verdict the partition reached.
Pure subspaces are factorized by `fraction_psd_witness`, the `Fraction`
Schur elimination the package's integer `_psd_witness` replaced.
"""

import random
from fractions import Fraction
from typing import Sequence

import numpy as np

from cone_audit.linalg import RationalMatrix, RationalVector
from cone_audit.optimality import CopositivityResult, CopositivityStatus


def oracle_copositivity(
    matrix: RationalMatrix, cone, max_depth: int, falsifier_samples: int
) -> CopositivityResult | None:
    gens = cone.generators()
    if gens.is_origin():
        return CopositivityResult(status=CopositivityStatus.COPOSITIVE, method="trivial")

    if not gens.rays:
        basis = list(gens.lineality)
        restricted = [[_pairing(matrix, a, b) for b in basis] for a in basis]
        witness_coords = fraction_psd_witness(restricted, len(restricted), None)
        if witness_coords is None:
            return CopositivityResult(
                status=CopositivityStatus.COPOSITIVE, method="subspace-factorization"
            )
        witness = RationalVector.zero(cone.dim)
        for coord, vec in zip(witness_coords, basis):
            witness = witness + vec.scale(coord)
        witness = witness.primitive()
        return CopositivityResult(
            status=CopositivityStatus.NOT_COPOSITIVE,
            witness=witness,
            witness_value=matrix.matvec(witness).dot(witness),
            method="subspace-factorization",
        )

    generators = list(gens.spanning_vectors())
    queue = [(tuple(generators), 0)]
    cells_certified = 0
    depth_reached = 0
    inconclusive = False
    while queue:
        cell, depth = queue.pop(0)
        depth_reached = max(depth_reached, depth)
        products = [[_pairing(matrix, a, b) for b in cell] for a in cell]
        negative_vertex = next((i for i in range(len(cell)) if products[i][i] < 0), None)
        if negative_vertex is not None:
            return CopositivityResult(
                status=CopositivityStatus.NOT_COPOSITIVE,
                witness=cell[negative_vertex],
                witness_value=products[negative_vertex][negative_vertex],
                depth_reached=depth_reached,
                cells_certified=cells_certified,
                method="simplicial-partition",
            )
        if all(
            products[i][j] >= 0 for i in range(len(cell)) for j in range(i, len(cell))
        ):
            cells_certified += 1
            continue
        if depth >= max_depth:
            inconclusive = True
            continue
        split = _longest_edge(cell)
        if split is None:
            inconclusive = True
            continue
        i, j = split
        midpoint = (cell[i] + cell[j]).primitive()
        left = tuple(midpoint if k == i else v for k, v in enumerate(cell))
        right = tuple(midpoint if k == j else v for k, v in enumerate(cell))
        queue.append((left, depth + 1))
        queue.append((right, depth + 1))

    if not inconclusive:
        return CopositivityResult(
            status=CopositivityStatus.COPOSITIVE,
            depth_reached=depth_reached,
            cells_certified=cells_certified,
            method="simplicial-partition",
        )

    sampled = _sphere_sampling_falsifier(matrix, generators, falsifier_samples)
    if sampled is not None:
        witness, value = sampled
        return CopositivityResult(
            status=CopositivityStatus.NOT_COPOSITIVE,
            witness=witness,
            witness_value=value,
            depth_reached=depth_reached,
            cells_certified=cells_certified,
            method="sphere-sampling",
        )
    return None


def fraction_psd_witness(q: list[list[Fraction]], free: int, rest) -> list[Fraction] | None:
    """None if the symmetric rational matrix is PSD on its first ``free``
    coordinates and the orthant of the others, else u with u'Qu < 0 there;
    ``rest`` decides the matrix left on the others (None when none is left).

    A negative pivot is a witness, a zero pivot with a nonzero off-diagonal
    entry an indefinite 2x2 one, and a positive pivot is eliminated by its
    Schur complement in `Fraction`s.
    """
    k = len(q)
    if free == 0:
        return None if rest is None else rest(q)
    head = q[0][0]
    if head < 0:
        return [Fraction(1)] + [Fraction(0)] * (k - 1)
    if head == 0:
        j = next((c for c in range(1, k) if q[0][c] != 0), None)
        if j is not None:
            u = [Fraction(0)] * k
            # value of t*e0 + ej is 2 t q0j + qjj; pick t so it equals -1
            u[0] = -(q[j][j] + 1) / (2 * q[0][j])
            u[j] = Fraction(1)
            return u
        sub = [[q[i][c] for c in range(1, k)] for i in range(1, k)]
        tail = fraction_psd_witness(sub, free - 1, rest)
        return None if tail is None else [Fraction(0)] + tail
    schur = [
        [q[i][c] - q[0][i] * q[0][c] / head for c in range(1, k)]
        for i in range(1, k)
    ]
    tail = fraction_psd_witness(schur, free - 1, rest)
    if tail is None:
        return None
    cross = sum((q[0][i + 1] * tail[i] for i in range(k - 1)), Fraction(0))
    return [-cross / head] + tail


def _pairing(matrix: RationalMatrix, a: RationalVector, b: RationalVector) -> Fraction:
    return matrix.matvec(b).dot(a)


def _longest_edge(cell: Sequence[RationalVector]) -> tuple[int, int] | None:
    best = None
    best_len = Fraction(0)
    for i in range(len(cell)):
        for j in range(i + 1, len(cell)):
            diff = cell[i] - cell[j]
            length = diff.dot(diff)
            if length > best_len:
                best, best_len = (i, j), length
    return best


def _sphere_sampling_falsifier(matrix, generators, samples):
    rng = random.Random(1789)
    float_gens = np.array([g.as_floats() for g in generators], dtype=float)
    float_matrix = np.array(matrix.as_float_rows(), dtype=float)
    for _ in range(samples):
        coeffs = np.array([rng.random() for _ in generators])
        candidate = coeffs @ float_gens
        norm = float(np.linalg.norm(candidate))
        if norm < 1e-12:
            continue
        candidate /= norm
        if float(candidate @ float_matrix @ candidate) < -1e-9:
            exact = RationalVector.zero(len(candidate))
            for c, g in zip(coeffs, generators):
                exact = exact + g.scale(Fraction(float(c)))
            exact = exact.primitive()
            value = matrix.matvec(exact).dot(exact)
            if value < 0:
                return exact, value
    return None
