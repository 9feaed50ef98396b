"""The step-size model: a small MLP that maps gradient statistics to
a scale factor and a candidate step.

For a block whose step size has k entries, the model is a three-layer
MLP (5 -> hidden -> hidden -> 2k) that reads the (5, 1) feature column
of `stepsize.grad_features`.  The first k outputs become the scale
factor beta, the last k the candidate step; both heads pass through a
unit-interval projection and are reshaped to the step-size kind's
shape.  The model is trained by plain gradient descent on the loss a
candidate weight update achieves on a held-aside mini-batch, its output
layer's updates deferred and folded in PSI_PENDING at a time.  The
model carries the step-size kind; a `psi_bypass` run builds none.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError
from .model import NetworkModel, block_loss_and_gradients, glorot_init, leaky_relu, leaky_relu_backward
from .numerics import Matrix
from .stepsize import (
    ARM_FULL,
    StepSizeKind,
    candidate_weights,
    compose_step,
    project_unit,
    project_unit_derivative,
    reduce_to_kind,
    squash,
)

NUM_FEATURES = 5
DEFAULT_HIDDEN = 64
# Rank-1 output-layer updates `psi_step` gathers before folding them in.
PSI_PENDING = 4
# Scratch entries of one pass of that fold (512 rows of a 64-wide
# matrix); a pass updates as many whole columns as fit, at least one.
PSI_CHUNK_ENTRIES = 512 * 64


@dataclass
class _Pending:
    """Updates not yet folded into w3: psi's output layer is w3 - u[:, :n] @ v[:, :n].T."""

    u: Matrix | None = None  # 2k x PSI_PENDING, column-major; allocated on first use
    v: Matrix | None = None  # hidden x PSI_PENDING, meta learning rate folded in
    n: int = 0

    def column(self, rows: int, cols: int) -> Matrix:
        """u's (rows, 1) column for the next update; allocates u and v on first use."""
        if self.u is None:
            self.u, self.v = np.empty((rows, PSI_PENDING), order="F"), np.empty((cols, PSI_PENDING))
        return self.u[:, self.n : self.n + 1]


@dataclass(frozen=True)
class EtaModel:
    """Three weight matrices, the output layer's pending updates (see
    `_Pending`) and the head bookkeeping for one block.

    The weight arrays are owned by the one training loop that holds the
    model and are mutated in place by `psi_step`; `frozen` freezes only
    the attribute bindings, not the arrays behind them.  A
    `dataclasses.replace` copy shares the weight arrays but gets its own
    copy of the pending updates.
    """

    w1: Matrix  # hidden x 5
    w2: Matrix  # hidden x hidden
    w3: Matrix  # 2k x hidden base B, column-major: each column is contiguous
    kind: StepSizeKind
    head_shape: tuple[int, int]  # shape both heads are reshaped to
    activation_slope: float = 0.01
    projection_style: str = "tanh"
    meta_learning_rate: float = 1e-3
    pending: _Pending = field(default_factory=_Pending)

    def __post_init__(self):
        if not 0.0 < self.activation_slope < 1.0:
            raise ValueError(f"activation_slope must be in (0,1), got {self.activation_slope}")
        if (rows := self.w3.shape[0]) != 2 * self.entry_count:
            raise ShapeError(
                f"output layer has {rows} rows, head shape {self.head_shape} needs {2 * self.entry_count}"
            )
        p = self.pending
        object.__setattr__(self, "pending", _Pending(*(a if a is None else a.copy() for a in (p.u, p.v)), p.n))

    @property
    def entry_count(self) -> int:
        return self.head_shape[0] * self.head_shape[1]

    @property
    def weights(self) -> tuple[Matrix, Matrix, Matrix]:
        return (self.w1, self.w2, self.w3)


def init_eta_model(
    kind: StepSizeKind,
    layer_shape: tuple[int, int],
    rng: np.random.Generator,
    hidden: int = DEFAULT_HIDDEN,
    activation_slope: float = 0.01,
    projection_style: str = "tanh",
    meta_learning_rate: float = 1e-3,
) -> EtaModel:
    head_shape = kind.shape_for(layer_shape)
    k = head_shape[0] * head_shape[1]
    return EtaModel(
        w1=glorot_init((hidden, NUM_FEATURES), rng),
        w2=glorot_init((hidden, hidden), rng),
        # drawn as its transpose: a column-major view, no copy
        w3=glorot_init((hidden, 2 * k), rng).T,
        kind=kind,
        head_shape=head_shape,
        activation_slope=activation_slope,
        projection_style=projection_style,
        meta_learning_rate=meta_learning_rate,
    )


@dataclass
class _PsiCache:
    d_col: Matrix
    h1: Matrix  # hidden layer outputs; the backward pass masks on them
    h2: Matrix
    core: Matrix  # squash(u3): the (2k, 1) raw heads through tanh or sigmoid


def psi_forward(psi: EtaModel, d_col: Matrix) -> tuple[Matrix, Matrix, _PsiCache]:
    """Scale factor beta, candidate step eta_hat and the backward cache
    for one (5, 1) feature column; both heads have the step's shape.
    Non-finite features or raw heads raise `FloatingPointError`."""
    if not np.isfinite(d_col).all():
        values = ", ".join(f"{v:.3g}" for v in d_col.ravel())
        raise FloatingPointError(f"psi input is not finite: [{values}]")
    h1 = leaky_relu(psi.w1 @ d_col, psi.activation_slope)
    h2 = leaky_relu(psi.w2 @ h1, psi.activation_slope)
    u3 = psi.w3 @ h2
    if (p := psi.pending).n:
        u3 -= p.u[:, : p.n] @ (p.v[:, : p.n].T @ h2)
    if not np.isfinite(u3).all():
        raise FloatingPointError("psi raw heads are not finite")
    k, style = psi.entry_count, psi.projection_style
    core = squash(u3, style)
    beta = project_unit(u3[:k], style, core[:k]).reshape(psi.head_shape)
    eta_hat = project_unit(u3[k:], style, core[k:]).reshape(psi.head_shape)
    cache = _PsiCache(d_col, h1, h2, core)
    return beta, eta_hat, cache


@dataclass
class MetaStep:
    """Everything one meta-gradient evaluation produces.

    The model's input is one feature column, so each of its weight
    gradients is an outer product: `psi_grads` holds one factor pair
    (u, v) per layer, whose gradient is u @ v.T.  The (2k x hidden)
    output-layer gradient is never built; its u is psi's next pending
    column, where `psi_step` keeps it and a later call may overwrite it.
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
    weights,
    grads,
    eta0: Matrix,
    meta_batch,
    net: NetworkModel,
    arm: str = ARM_FULL,
) -> MetaStep:
    """Gradients of the held-aside loss with respect to the model's weights.

    The chain: the current outputs (beta, eta_hat) compose a candidate
    step; the candidate weights w' = w - step (*) g are substituted into
    the network; the loss on `meta_batch` is differentiated back through
    the substitution, the composition, the unit projection and the MLP.

    Args:
        d_col: the (5, 1) feature column of the block's gradient.
        block: layer indices the step size serves (weights/grads align).
        weights, grads: per-layer current weights and main-batch gradients.
        eta0: initial step values, shaped like the step size.
    """
    block = tuple(block)
    beta, eta_hat, cache = psi_forward(psi, d_col)
    step_cand, dstep_dbeta, dstep_deta = compose_step(arm, beta, eta0, eta_hat)

    w_prime = candidate_weights(block, weights, grads, step_cand)
    meta_loss, dW = block_loss_and_gradients(net.with_layers(w_prime), meta_batch, block)

    dstep = np.zeros(psi.head_shape)
    for l, g in zip(block, grads):
        dstep += reduce_to_kind(-dW.pop(l) * g, psi.kind)  # frees dW before the head chain

    k = psi.entry_count
    du3 = psi.pending.column(*psi.w3.shape)
    for head, dstep_dhead, core in (
        (du3[:k], dstep_dbeta, cache.core[:k]),
        (du3[k:], dstep_deta, cache.core[k:]),
    ):
        np.multiply(dstep.reshape(k, 1), dstep_dhead.reshape(k, 1), out=head)
        head *= project_unit_derivative(core, psi.projection_style)

    dh2 = psi.w3.T @ du3
    if (p := psi.pending).n:
        dh2 -= p.v[:, : p.n] @ (p.u[:, : p.n].T @ du3)
    du2 = leaky_relu_backward(cache.h2, dh2, psi.activation_slope)
    du1 = leaky_relu_backward(cache.h1, psi.w2.T @ du2, psi.activation_slope)

    psi_grads = ((du1, d_col), (du2, cache.h1), (du3, cache.h2))
    return MetaStep(psi_grads, beta, eta_hat, step_cand, w_prime, meta_loss)


def psi_step(psi: EtaModel, grads) -> EtaModel:
    """One plain gradient-descent step on the model's three matrices.

    `grads` holds one factor pair (u, v) per matrix, as in
    `MetaStep.psi_grads`.  The hidden layers become w - lr * (u @ v.T).
    The output layer's pair joins the pending updates as (u, lr * v);
    the PSI_PENDING-th folds them into w3, one matmul per block of whole
    columns (at most PSI_CHUNK_ENTRIES entries, at least one), in any
    layout.  The weight arrays are owned by the one training loop that
    holds the model and are mutated in place; the returned object is
    that same model.
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
    p.column(*w3.shape)[...] = u3  # numpy skips the copy when meta_gradients wrote u3 there
    p.v[:, p.n] = lr * h2[:, 0]
    p.n += 1
    if p.n == PSI_PENDING:
        rows, cols = w3.shape
        width = max(1, min(cols, PSI_CHUNK_ENTRIES // rows))
        buf = np.empty((rows, width), order="F")
        for s in range(0, cols, width):
            e = min(s + width, cols)
            chunk = buf[:, : e - s]
            np.matmul(p.u, p.v[s:e].T, out=chunk)
            w3[:, s:e] -= chunk
        p.n = 0
    return psi
