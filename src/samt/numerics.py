"""The matrix type, the step-size broadcast rule and seeded randomness.

Every numeric value in the package is a 2-D float64 array (vectors are
n x 1), row-major except the step-size model's output layer, which is
column-major (see `etamodel`).  `expand` materializes a step under the
restricted broadcast rule (shapes (1,1), (m,n), (m,1) or (1,n) against
an (m,n) matrix).
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError

# A "matrix" everywhere in this package is a 2-D float64 ndarray.
Matrix = np.ndarray


def make_rng(seed) -> np.random.Generator:
    """Seeded PCG64 generator; same seed gives the same draw sequence."""
    return np.random.default_rng(seed)


def spawn_rngs(seed: int | tuple[int, ...], n: int) -> list[np.random.Generator]:
    """Derive `n` independent deterministic streams from one seed, an int
    or a tuple of ints such as `(seed, p)` (whatever `SeedSequence` takes)."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


def _broadcastable(step_shape: tuple[int, int], g_shape: tuple[int, int]) -> bool:
    m, n = g_shape
    return step_shape in ((1, 1), (m, n), (m, 1), (1, n))


def expand(step: Matrix, target_shape: tuple[int, int]) -> Matrix:
    """Materialize the broadcast of `step` to `target_shape`."""
    if not _broadcastable(step.shape, tuple(target_shape)):
        raise ShapeError(f"cannot expand shape {step.shape} to {tuple(target_shape)}")
    return np.broadcast_to(step, target_shape).copy()
