"""Trainable step sizes: kinds, gradient features, projections, updates.

A step size is a small matrix of values in the open interval (0,1) that
multiplies a layer gradient through broadcasting.  Four kinds are
shipped: one value for the whole layer (scalar), one per entry
(element), one per output row (row) and one per input column (column);
`StepSizeKind.shape_for` is the one statement of their shapes;
`reduce_to_kind` sums a gradient back to one.  The step-size model
reads a gradient as a (5, 1) column of summary statistics, and
`compose_step` turns its two heads into a step per ablation arm.
`candidate_weights` is every engine's w - step * g and the one check
that a step conforms to a layer.  The adaptive engine rebinds
`StepSize.values` to each step `check_open_unit` passes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .numerics import Matrix

# Projections are clipped to this open interval so saturation can never
# emit exactly 0.0 or 1.0 in float64.
OPEN_EPS = 1e-12

TANH = "tanh"
SIGMOID = "sigmoid"
PROJECTION_SCALES = {TANH: 1.0, SIGMOID: 0.5}  # each style's input scale c in tanh(c * u)
PROJECTION_STYLES = tuple(PROJECTION_SCALES)


class StepSizeKind(enum.Enum):
    SCALAR = "scalar"
    ELEMENT = "element"
    ROW = "row"
    COLUMN = "column"

    def shape_for(self, layer_shape: tuple[int, int]) -> tuple[int, int]:
        m, n = layer_shape
        return (
            (1, 1) if self is StepSizeKind.SCALAR
            else (m, n) if self is StepSizeKind.ELEMENT
            else (m, 1) if self is StepSizeKind.ROW
            else (1, n)  # COLUMN
        )


def check_open_unit(name: str, v: Matrix) -> None:
    """Raise ValueError unless every entry of `v` lies strictly in (0,1); NaN fails."""
    if not (0.0 < np.min(v) and np.max(v) < 1.0):  # min and max propagate NaN
        raise ValueError(f"{name} must lie strictly in (0,1)")


@dataclass(slots=True)
class StepSize:
    """One block's current step values, shaped per kind, and the number
    eta0, the initial step that `compose_step` mixes each new step from."""

    values: Matrix
    eta0: float

    def __post_init__(self):
        for name, v in (("eta0", np.asarray(self.eta0)), ("values", self.values)):
            check_open_unit(f"step {name}", v)

    @staticmethod
    def initial(kind: StepSizeKind, layer_shape: tuple[int, int], eta0: float) -> "StepSize":
        return StepSize(values=np.full(kind.shape_for(layer_shape), eta0), eta0=eta0)


def grad_features(g: Matrix) -> Matrix:
    """The step-size model's input: a (5, 1) column of statistics of `g`.

    Rows in order: mean, population variance, max, min, Frobenius norm.
    """
    flat = g.ravel()
    mean = np.add.reduce(flat) / flat.size
    dev = flat - mean  # np.var's deviations, from this same mean
    var = np.add.reduce(np.square(dev, out=dev)) / flat.size
    norm = np.sqrt(np.add.reduce(flat * flat))
    return np.array([[mean], [var], [np.maximum.reduce(flat)], [np.minimum.reduce(flat)], [norm]])


def project_unit(u: Matrix, style: str, out: Matrix | None = None) -> tuple[Matrix, Matrix]:
    """Raw values u squashed into the open interval (0,1), and the slope there.

    Every style is 0.5 * (tanh(c * u) + 1), slope 0.5 * c * (1 - tanh(c * u)^2), at its
    scale c in PROJECTION_SCALES (sigmoid's 1 / (1 + exp(-u)) is tanh's at c = 1/2), clipped
    away from the endpoints by OPEN_EPS; the slope ignores the clip.  The slope is written
    to `out` when it is given, which may be u itself.
    """
    if (c := PROJECTION_SCALES.get(style)) is None:
        raise ValueError(f"projection style must be one of {PROJECTION_STYLES}, got {style!r}")
    t = np.tanh(u if c == 1.0 else np.multiply(u, c, out=out), out=out)  # in place: two head-sized arrays
    v = t + 1.0
    v *= 0.5
    slope = np.multiply(np.subtract(1.0, np.square(t, out=t), out=t), 0.5 * c, out=t)
    return np.clip(v, OPEN_EPS, 1.0 - OPEN_EPS, out=v), slope


def candidate_weights(net, block, grads, step: Matrix | float) -> dict[int, Matrix]:
    """The candidate update w' = w - step (*) g for every layer of a block.

    `grads` maps each layer of `block` to its gradient, as
    `model.block_loss_and_gradients` returns it.  The step multiplies
    each gradient by broadcasting, so it must be 2-D with each dimension
    1 or the layer's, the shapes `StepSizeKind.shape_for` gives; a 0-d
    float counts as (1, 1).
    """
    step_shape = np.shape(step) or (1, 1)
    updates = {}
    for l in block:
        w, g = net.layer_weights[l], grads[l]
        if w.shape != g.shape or len(step_shape) != 2 or not (
            step_shape[0] in (1, w.shape[0]) and step_shape[1] in (1, w.shape[1])
        ):
            raise ShapeError(
                f"step {step_shape} does not conform to weight {w.shape} and gradient {g.shape}"
            )
        d = step * g
        updates[l] = np.subtract(w, d, out=d)
    return updates


def reduce_to_kind(full_grad: Matrix, kind: StepSizeKind) -> Matrix:
    """Adjoint of broadcasting: sum over every axis the kind broadcasts along.

    Guarantees <broadcast_to(s, G.shape), G> == <s, reduce_to_kind(G, kind)>
    for any step s of the kind's shape.  The element kind returns G itself.
    """
    shape = full_grad.shape
    axes = tuple(a for a, d in enumerate(kind.shape_for(shape)) if d != shape[a])
    return full_grad.sum(axis=axes, keepdims=True) if axes else full_grad


# Ablation arms: which parts of the convex combination drive the step.
ARM_FULL = "full"
ARM_BASELINE = "baseline"
ARM_LEFT = "left_only"
ARM_RIGHT = "right_only"
ABLATION_ARMS = (ARM_FULL, ARM_BASELINE, ARM_LEFT, ARM_RIGHT)


def compose_step(arm: str, beta: Matrix, eta0: Matrix | float, eta_hat: Matrix):
    """Step composition for one ablation arm.

    The full arm is the convex combination beta * eta0 + (1 - beta) *
    eta_hat; with beta and eta_hat in [0,1] and eta0 in (0,1) it stays
    inside the elementwise interval spanned by eta0 and eta_hat.  eta0
    is a float or any array that broadcasts with the heads.  Every
    arm raises `ShapeError` unless the three shapes broadcast together,
    and `ValueError` unless beta and eta_hat lie in [0,1] (NaN fails).
    Returns (value, d_value/d_beta, d_value/d_eta_hat); the derivatives
    give the meta-gradient chain the same shape as `value`.  All three
    are new arrays, which the caller may write to.
    """
    try:
        shape = np.broadcast_shapes(beta.shape, np.shape(eta0), eta_hat.shape)
    except ValueError:
        raise ShapeError(
            f"step shapes do not conform: beta {beta.shape}, "
            f"eta0 {np.shape(eta0)}, eta_hat {eta_hat.shape}"
        ) from None
    for name, a in (("beta", beta), ("eta_hat", eta_hat)):
        if not (0.0 <= a.min() and a.max() <= 1.0):  # min and max propagate NaN
            raise ValueError(f"{name} entries must lie in [0,1]")
    if arm == ARM_FULL:
        one_minus_beta = 1.0 - beta
        return beta * eta0 + one_minus_beta * eta_hat, eta0 - eta_hat, one_minus_beta
    if arm == ARM_BASELINE:
        zeros = np.zeros(shape)
        return np.broadcast_to(eta0, shape).copy(), zeros, zeros.copy()
    if arm == ARM_LEFT:
        return beta * eta0, np.broadcast_to(eta0, shape).copy(), np.zeros(shape)
    if arm == ARM_RIGHT:
        one_minus_beta = 1.0 - beta
        return one_minus_beta * eta_hat, -np.broadcast_to(eta_hat, shape).copy(), one_minus_beta
    raise ValueError(f"ablation arm must be one of {ABLATION_ARMS}, got {arm!r}")
