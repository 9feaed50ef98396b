"""The matrix type and seeded randomness.

A `Matrix` is a 2-D float64 array (vectors are n x 1), row-major except
the step-size model's joint output array, column-major and float32 in a
run, as is its pending v (see `etamodel`; its heads buffer is float64).
Not every array is one: class labels are (N,) int64 and glyph corpora
(n, side, side) uint8.  The step-size broadcast rule lives in `stepsize`.
"""

from __future__ import annotations

import numpy as np

Matrix = np.ndarray


def make_rng(seed) -> np.random.Generator:
    """Seeded PCG64 generator; same seed gives the same draw sequence."""
    return np.random.default_rng(seed)


def spawn_rngs(seed: int | tuple[int, ...], n: int) -> list[np.random.Generator]:
    """Derive `n` independent deterministic streams from one seed, an int
    or a tuple of ints such as `(seed, p)` (whatever `SeedSequence` takes)."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]
