"""Trainable step sizes: kinds, gradient features, projections, updates.

A step size is a small matrix of values in the open interval (0,1) that
multiplies a layer gradient through broadcasting.  Four kinds are
shipped: one value for the whole layer (scalar), one per entry
(element), one per output row (row) and one per input column (column).
The step-size model reads a gradient as a (5, 1) column of summary
statistics, and its two heads are composed into a step per ablation
arm; the candidate update w - step * g lives here too.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .errors import ShapeError
from .numerics import Matrix, _broadcastable, expand

# Projections are clipped to this open interval so saturation can never
# emit exactly 0.0 or 1.0 in float64.
OPEN_EPS = 1e-12

TANH = "tanh"
SIGMOID = "sigmoid"
PROJECTION_STYLES = (TANH, SIGMOID)


class StepSizeKind(enum.Enum):
    SCALAR = "scalar"
    ELEMENT = "element"
    ROW = "row"
    COLUMN = "column"

    def shape_for(self, layer_shape: tuple[int, int]) -> tuple[int, int]:
        m, n = layer_shape
        return {
            StepSizeKind.SCALAR: (1, 1),
            StepSizeKind.ELEMENT: (m, n),
            StepSizeKind.ROW: (m, 1),
            StepSizeKind.COLUMN: (1, n),
        }[self]


@dataclass(frozen=True)
class StepSize:
    """Current and initial step values for one block, shaped per kind."""

    values: Matrix
    init_values: Matrix

    def __post_init__(self):
        if self.values.shape != self.init_values.shape:
            raise ShapeError(
                f"values {self.values.shape} and init_values {self.init_values.shape} differ"
            )
        for name, v in (("values", self.values), ("init_values", self.init_values)):
            if not ((v > 0.0) & (v < 1.0)).all():
                raise ValueError(f"step {name} must lie strictly in (0,1)")

    @staticmethod
    def initial(kind: StepSizeKind, layer_shape: tuple[int, int], eta0: float) -> "StepSize":
        if not 0.0 < eta0 < 1.0:
            raise ValueError(f"initial step must be in (0,1), got {eta0}")
        v = np.full(kind.shape_for(layer_shape), eta0)
        return StepSize(values=v, init_values=v.copy())

    def with_values(self, values: Matrix) -> "StepSize":
        return replace(self, values=values)


def grad_features(g: Matrix) -> Matrix:
    """The step-size model's input: a (5, 1) column of statistics of `g`.

    Rows in order: mean, population variance, max, min, Frobenius norm.
    """
    if g.size == 0:
        raise ShapeError("gradient must be non-empty")
    flat = g.ravel()
    mean = np.add.reduce(flat) / flat.size
    dev = flat - mean  # np.var's deviations, from this same mean
    var = np.add.reduce(np.square(dev, out=dev)) / flat.size
    norm = np.sqrt(np.add.reduce(flat * flat))
    return np.array([[mean], [var], [np.maximum.reduce(flat)], [np.minimum.reduce(flat)], [norm]])


def squash(u: Matrix, style: str) -> Matrix:
    """tanh(u) (tanh style) or 1 / (1 + exp(-u)) (sigmoid style): `project_unit`'s core."""
    if style == TANH:
        return np.tanh(u)
    if style == SIGMOID:
        # exp on the negative side only, so large |u| cannot overflow
        return np.where(u >= 0, 1.0 / (1.0 + np.exp(-np.abs(u))),
                        np.exp(-np.abs(u)) / (1.0 + np.exp(-np.abs(u))))
    raise ValueError(f"projection style must be one of {PROJECTION_STYLES}, got {style!r}")


def project_unit(u: Matrix, style: str, core: Matrix | None = None) -> Matrix:
    """Squash raw values into the open interval (0,1).

    tanh style: 0.5 * (tanh(u) + 1); sigmoid style: 1 / (1 + exp(-u)).
    Outputs are clipped away from the endpoints by OPEN_EPS.  `core`, if
    given, is `squash(u, style)`, which is then not recomputed.
    """
    core = squash(u, style) if core is None else core
    out = 0.5 * (core + 1.0) if style == TANH else core
    return np.clip(out, OPEN_EPS, 1.0 - OPEN_EPS)


def project_unit_derivative(core: Matrix, style: str) -> Matrix:
    """Analytic derivative of project_unit (ignoring the endpoint clip) at
    u, from `core = squash(u, style)`."""
    if style == TANH:
        return 0.5 * (1.0 - core * core)
    p = np.clip(core, OPEN_EPS, 1.0 - OPEN_EPS)  # sigmoid style: project_unit(u)
    return p * (1.0 - p)


def step_update(beta: Matrix, eta0: Matrix, eta_hat: Matrix) -> Matrix:
    """Convex combination beta * eta0 + (1 - beta) * eta_hat.

    Hadamard product with scalar (1,1) broadcasting.  With beta and
    eta_hat in [0,1] and eta0 in (0,1) the result stays inside the
    elementwise interval spanned by eta0 and eta_hat.
    """
    try:
        target = np.broadcast_shapes(beta.shape, eta0.shape, eta_hat.shape)
    except ValueError:
        raise ShapeError(
            f"step_update shapes do not conform: beta {beta.shape}, "
            f"eta0 {eta0.shape}, eta_hat {eta_hat.shape}"
        ) from None
    for name, a in (("beta", beta), ("eta0", eta0), ("eta_hat", eta_hat)):
        if not _broadcastable(a.shape, target):
            raise ShapeError(f"{name} shape {a.shape} does not conform to {target}")
    for name, a in (("beta", beta), ("eta_hat", eta_hat)):
        if not ((a >= 0.0) & (a <= 1.0)).all():
            raise ValueError(f"{name} entries must lie in [0,1]")
    return beta * eta0 + (1.0 - beta) * eta_hat


def candidate_weights(block, weights, grads, step: Matrix) -> dict[int, Matrix]:
    """The candidate update w' = w - step (*) g for every layer of a block.

    `block`, `weights` and `grads` align; the step multiplies each
    gradient by broadcasting, so it must conform to every layer's shape.
    """
    updates = {}
    for l, w, g in zip(block, weights, grads):
        if w.shape != g.shape or not _broadcastable(step.shape, w.shape):
            raise ShapeError(
                f"step {step.shape} does not conform to weight {w.shape} and gradient {g.shape}"
            )
        updates[l] = w - step * g
    return updates


def reduce_to_kind(full_grad: Matrix, kind: StepSizeKind) -> Matrix:
    """Adjoint of broadcasting: sum over every axis the kind broadcasts along.

    Guarantees <expand(s, shape), G> == <s, reduce_to_kind(G, kind)> for
    any step s of the kind's shape.  The element kind returns G itself.
    """
    if kind is StepSizeKind.SCALAR:
        return np.array([[full_grad.sum()]])
    if kind is StepSizeKind.ROW:
        return full_grad.sum(axis=1, keepdims=True)
    if kind is StepSizeKind.COLUMN:
        return full_grad.sum(axis=0, keepdims=True)
    return full_grad


# Ablation arms: which parts of the convex combination drive the step.
ARM_FULL = "full"
ARM_BASELINE = "baseline"
ARM_LEFT = "left_only"
ARM_RIGHT = "right_only"
ABLATION_ARMS = (ARM_FULL, ARM_BASELINE, ARM_LEFT, ARM_RIGHT)


def compose_step(arm: str, beta: Matrix, eta0: Matrix, eta_hat: Matrix):
    """Step composition for one ablation arm.

    Returns (value, d_value/d_beta, d_value/d_eta_hat); the derivatives
    give the meta-gradient chain the same shape as `value`.
    """
    shape = np.broadcast_shapes(beta.shape, eta0.shape, eta_hat.shape)
    if arm == ARM_FULL:
        return step_update(beta, eta0, eta_hat), eta0 - eta_hat, 1.0 - beta
    if arm == ARM_BASELINE:
        zeros = np.zeros(shape)
        return expand(eta0, shape) if eta0.shape != shape else eta0.copy(), zeros, zeros.copy()
    if arm == ARM_LEFT:
        return beta * eta0, np.broadcast_to(eta0, shape).copy(), np.zeros(shape)
    if arm == ARM_RIGHT:
        return (1.0 - beta) * eta_hat, -np.broadcast_to(eta_hat, shape).copy(), 1.0 - beta
    raise ValueError(f"ablation arm must be one of {ABLATION_ARMS}, got {arm!r}")
