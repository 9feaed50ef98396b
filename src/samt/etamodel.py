"""The step-size model: a small MLP that maps gradient statistics to
a scale factor and a candidate step.

For a block whose step size has k entries, the model is a three-layer
MLP (5 -> hidden -> hidden -> 2k) that reads the (5, 1) feature column
of `stepsize.grad_features`.  The first k outputs become the scale
factor beta, the last k the candidate step; both heads pass through a
unit-interval projection and are reshaped to the step-size kind's
shape.  `meta_gradients` composes the heads into a step
(`stepsize.compose_step`) and takes the candidate weights from
`stepsize.candidate_weights` and the block's gradient dict.  The model
is trained in place (`psi_step`) by plain gradient descent on the loss
those weights achieve on a held-aside mini-batch, its output layer's
updates deferred and folded in PSI_PENDING at a time, stored in float32
in a run and in float64 for the gradient checks; the heads stay float64.
The model carries the step-size kind; a `psi_bypass` run builds none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .model import (
    DEFAULT_ACTIVATION_SLOPE, NetworkModel, block_loss_and_gradients, glorot_init, leaky_relu, leaky_relu_backward
)
from .numerics import Matrix
from .stepsize import (
    ARM_FULL,
    PROJECTION_STYLES,
    TANH,
    StepSizeKind,
    candidate_weights,
    compose_step,
    project_unit,
    reduce_to_kind,
)

NUM_FEATURES = 5
DEFAULT_HIDDEN = 64
DEFAULT_META_LEARNING_RATE = 1e-3
# Rank-1 output-layer updates `psi_step` gathers before folding them in.
PSI_PENDING = 8
# A tile of that fold is whole rows, an eighth of w3's but at least PSI_TILE_MIN_ROWS
# and at most PSI_CHUNK_ENTRIES entries (4,096 rows of a 64-wide matrix, 2 MiB).
PSI_TILE_MIN_ROWS = 512
PSI_CHUNK_ENTRIES = 4096 * 64
# B is drawn in pieces of this many float64 entries (512 KiB).
PSI_DRAW_ENTRIES = 2**16


@dataclass
class _Pending:
    """Updates not yet folded into w3: psi's output layer is w3 - u[:, :n] @ v[:, :n].T,
    and [w3 | u[:, :n]] = joint[:, : hidden + n], so each psi matvec is one BLAS call.
    joint and v have psi's storage dtype (float32 in a run); `heads` is float64."""

    joint: Matrix  # 2k x (hidden + PSI_PENDING), column-major; allocated with psi, as are v and heads
    v: Matrix  # hidden x PSI_PENDING, meta learning rate folded in
    heads: Matrix  # 2k x 1: each psi_forward's raw heads, then their slope, then meta_gradients' du3
    n: int = 0

    @property
    def u(self) -> Matrix:
        return self.joint[:, self.v.shape[0] :]


@dataclass
class EtaModel:
    """Three weight matrices, the output layer's pending updates (see
    `_Pending`) and the head bookkeeping for one block.

    The weight arrays and pending updates are owned by the one adaptive
    engine that holds the model and are mutated in place by `psi_step`,
    and every `psi_forward` call writes `pending.heads`.  A
    `dataclasses.replace` copy shares every array it does not replace,
    the pending updates included.
    """

    w1: Matrix  # hidden x 5
    w2: Matrix  # hidden x hidden
    kind: StepSizeKind
    head_shape: tuple[int, int]  # shape both heads are reshaped to
    activation_slope: float
    projection_style: str
    meta_learning_rate: float
    pending: _Pending

    def __post_init__(self):
        if not 0.0 < self.activation_slope < 1.0:
            raise ValueError(f"activation_slope must be in (0,1), got {self.activation_slope}")
        if (style := self.projection_style) not in PROJECTION_STYLES:
            raise ValueError(f"projection_style must be one of {', '.join(PROJECTION_STYLES)}, got {style!r}")
        if (rows := self.w3.shape[0]) != 2 * self.entry_count:
            raise ShapeError(
                f"output layer has {rows} rows, head shape {self.head_shape} needs {2 * self.entry_count}"
            )

    @property
    def entry_count(self) -> int:
        return self.head_shape[0] * self.head_shape[1]

    @property
    def w3(self) -> Matrix:
        """The 2k x hidden base B of the output layer: the leading columns of pending.joint."""
        return self.pending.joint[:, : self.pending.v.shape[0]]

    @property
    def weights(self) -> tuple[Matrix, Matrix, Matrix]:
        return (self.w1, self.w2, self.w3)


def init_eta_model(
    kind: StepSizeKind,
    layer_shape: tuple[int, int],
    rng: np.random.Generator,
    hidden: int = DEFAULT_HIDDEN,
    activation_slope: float = DEFAULT_ACTIVATION_SLOPE,
    projection_style: str = TANH,
    meta_learning_rate: float = DEFAULT_META_LEARNING_RATE,
    dtype=np.float64,
) -> EtaModel:
    head_shape = kind.shape_for(layer_shape)
    k = head_shape[0] * head_shape[1]
    w1, w2 = glorot_init((hidden, NUM_FEATURES), rng), glorot_init((hidden, hidden), rng)
    joint = np.empty((2 * k, hidden + PSI_PENDING), dtype, order="F")
    b = joint[:, :hidden].T.reshape(-1)  # a view: B in the row-major order of a (hidden, 2k) init
    for s in range(0, b.size, PSI_DRAW_ENTRIES):
        b[s : s + PSI_DRAW_ENTRIES] = glorot_init((hidden, 2 * k), rng, size=min(PSI_DRAW_ENTRIES, b.size - s))
    return EtaModel(
        w1, w2, kind, head_shape, activation_slope, projection_style, meta_learning_rate,
        pending=_Pending(joint, np.empty((hidden, PSI_PENDING), dtype), np.empty((2 * k, 1))),
    )


def psi_forward(psi: EtaModel, d_col: Matrix) -> tuple[Matrix, Matrix, Matrix, Matrix]:
    """Scale factor beta and candidate step eta_hat, in the step's shape, and the
    hidden outputs h1, h2 for one (5, 1) feature column.  Every call writes the
    raw heads, then their slope, into `pending.heads`; the matvec reads h2 cast
    to the storage dtype.  Non-finite features or raw heads raise `FloatingPointError`."""
    if not np.isfinite(d_col).all():
        values = ", ".join(f"{v:.3g}" for v in d_col.ravel())
        raise FloatingPointError(f"psi input is not finite: [{values}]")
    h1 = leaky_relu(psi.w1 @ d_col, psi.activation_slope)
    h2 = leaky_relu(psi.w2 @ h1, psi.activation_slope)
    p = psi.pending
    x = h2.astype(p.joint.dtype, copy=False)  # cast the vector: a float64 one would copy the array
    np.matmul(p.joint[:, : x.shape[0] + p.n], np.concatenate((x, -(p.v[:, : p.n].T @ x))), out=p.heads)
    if not np.isfinite(p.heads).all():
        raise FloatingPointError("psi raw heads are not finite")
    k = psi.entry_count
    unit, _ = project_unit(p.heads, psi.projection_style, out=p.heads)
    beta, eta_hat = (h.reshape(psi.head_shape) for h in (unit[:k], unit[k:]))
    return beta, eta_hat, h1, h2


@dataclass
class MetaStep:
    """Everything one meta-gradient evaluation produces.

    The model's input is one feature column, so each of its weight
    gradients is an outer product: `psi_grads` holds one factor pair
    (u, v) per layer, whose gradient is u @ v.T.  The (2k x hidden)
    output-layer gradient is never built; its u is `pending.heads`, which `psi_step`
    copies into the next pending column; any `psi_forward` call before that rewrites it.
    """

    psi_grads: tuple[tuple[Matrix, Matrix], ...]
    beta: Matrix
    eta_hat: Matrix
    step_candidate: Matrix
    w_prime: dict[int, Matrix]
    meta_loss: float


def meta_gradients(
    psi: EtaModel,
    d_col: Matrix,
    block,
    grads: dict[int, Matrix],
    eta0: Matrix | float,
    meta_batch,
    net: NetworkModel,
    arm: str = ARM_FULL,
) -> MetaStep:
    """Gradients of the held-aside loss with respect to the model's weights.

    The chain: the current outputs (beta, eta_hat) compose a candidate
    step; the candidate weights w' = w - step (*) g are substituted into
    the network; the loss on `meta_batch` is differentiated back through
    the substitution, the composition, the unit projection and the MLP.
    Its `psi_forward` call writes psi's `pending.heads`; du3 is built there.

    Args:
        d_col: the (5, 1) feature column of the block's gradient.
        block: layer indices the step size serves.
        grads: each block layer's main-batch gradient, keyed by layer.
        eta0: the initial step, a float or any array that broadcasts
            with the heads.
    """
    block = tuple(block)
    k, p = psi.entry_count, psi.pending
    beta, eta_hat, h1, h2 = psi_forward(psi, d_col)
    du3 = p.heads
    step_cand, dstep_dbeta, dstep_deta = compose_step(arm, beta, eta0, eta_hat)

    w_prime = candidate_weights(net, block, grads, step_cand)
    meta_loss, dW = block_loss_and_gradients(net.with_layers(w_prime), meta_batch, block)

    dstep = 0.0  # x + 0.0 turns -0 into +0, as zeros + x did
    for l in block:  # built in each popped dW: -(dW * g) is -dW * g exactly
        d = dW.pop(l)
        d = reduce_to_kind(np.negative(np.multiply(d, grads[l], out=d), out=d), psi.kind)
        dstep = np.add(d, dstep, out=d)

    for head, dstep_dhead in ((du3[:k], dstep_dbeta), (du3[k:], dstep_deta)):
        head *= np.multiply(dstep_dhead, dstep, out=dstep_dhead).reshape(k, 1)

    hidden = h2.shape[0]
    dh2 = p.joint[:, : hidden + p.n].T @ du3.astype(p.joint.dtype, copy=False)
    dh2 = dh2[:hidden].astype(np.float64, copy=False) - p.v[:, : p.n] @ dh2[hidden:]
    du2 = leaky_relu_backward(h2, dh2, psi.activation_slope)
    du1 = leaky_relu_backward(h1, psi.w2.T @ du2, psi.activation_slope)

    psi_grads = ((du1, d_col), (du2, h1), (du3, h2))
    return MetaStep(psi_grads, beta, eta_hat, step_cand, w_prime, meta_loss)


def psi_step(psi: EtaModel, grads) -> None:
    """One plain gradient-descent step on the model's three matrices.

    `grads` holds one factor pair (u, v) per matrix, as in
    `MetaStep.psi_grads`.  The hidden layers become w - lr * (u @ v.T).
    The output layer's pair joins the pending updates as (u, lr * v);
    the PSI_PENDING-th folds them into w3, one matmul per tile of whole
    rows (an eighth of them, at least PSI_TILE_MIN_ROWS, at most
    PSI_CHUNK_ENTRIES entries and at least one row), so each tile reads
    its rows of u once, in the storage dtype.  The model's arrays are mutated in place.
    """
    for (u, v), w in zip(grads, psi.weights, strict=True):
        if u.shape != (w.shape[0], 1) or v.shape != (w.shape[1], 1):
            raise ShapeError(
                f"gradient factors {u.shape} x {v.shape} do not match weight {w.shape}"
            )
    lr = psi.meta_learning_rate
    for (u, v), w in zip(grads[:2], psi.weights):
        w -= lr * (u @ v.T)
    (u3, h2), w3, p = grads[2], psi.w3, psi.pending
    p.u[:, p.n : p.n + 1] = u3
    p.v[:, p.n] = lr * h2[:, 0]
    p.n += 1
    if p.n == PSI_PENDING:
        rows, cols = w3.shape
        height = max(1, min(rows, max(PSI_TILE_MIN_ROWS, rows // 8), PSI_CHUNK_ENTRIES // cols))
        buf = np.empty((height, cols), w3.dtype, order="F")
        for s in range(0, rows, height):
            w3[s : s + height] -= np.matmul(p.u[s : s + height], p.v.T, out=buf[: min(height, rows - s)])
        p.n = 0
