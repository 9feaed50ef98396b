"""The step-size model: a small MLP that maps gradient statistics to
a scale factor and a candidate step.

For a block whose step size has k entries, the model is a three-layer
MLP (5 -> hidden -> hidden -> 2k).  The first k outputs become the
scale factor beta, the last k the candidate step; both heads pass
through a unit-interval projection and are reshaped to the step-size
kind's shape.  The model is trained by plain gradient descent on the
loss a candidate weight update achieves on a held-aside mini-batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .model import NetworkModel, block_loss_and_gradients, glorot_init, leaky_relu
from .numerics import Matrix
from .stepsize import (
    ARM_FULL,
    GradFeatures,
    StepSizeKind,
    candidate_weights,
    compose_step,
    project_unit,
    project_unit_derivative,
    reduce_to_kind,
)

NUM_FEATURES = 5
DEFAULT_HIDDEN = 64
# Rows of a psi weight matrix updated per pass of `psi_step`; the
# scratch buffer is PSI_CHUNK_ROWS x hidden.
PSI_CHUNK_ROWS = 512


@dataclass(frozen=True)
class EtaModel:
    """Three weight matrices plus the head bookkeeping for one block.

    The weight arrays are owned by the one training loop that holds the
    model and are mutated in place by `psi_step`; `frozen` freezes only
    the attribute bindings, not the arrays behind them.
    """

    w1: Matrix  # hidden x 5
    w2: Matrix  # hidden x hidden
    w3: Matrix  # 2k x hidden
    kind: StepSizeKind
    head_shape: tuple[int, int]  # shape both heads are reshaped to
    activation_slope: float = 0.01
    projection_style: str = "tanh"
    meta_learning_rate: float = 1e-3
    bypass: bool = False

    def __post_init__(self):
        k = self.head_shape[0] * self.head_shape[1]
        if self.w3.shape[0] != 2 * k:
            raise ShapeError(
                f"output layer has {self.w3.shape[0]} rows, head shape {self.head_shape} needs {2 * k}"
            )

    @property
    def entry_count(self) -> int:
        return self.head_shape[0] * self.head_shape[1]

    @property
    def weights(self) -> tuple[Matrix, Matrix, Matrix]:
        return (self.w1, self.w2, self.w3)


@dataclass(frozen=True)
class EtaOutputs:
    beta: Matrix
    eta_hat: Matrix


def init_eta_model(
    kind: StepSizeKind,
    layer_shape: tuple[int, int],
    rng: np.random.Generator,
    hidden: int = DEFAULT_HIDDEN,
    activation_slope: float = 0.01,
    projection_style: str = "tanh",
    meta_learning_rate: float = 1e-3,
    bypass: bool = False,
) -> EtaModel:
    head_shape = kind.shape_for(layer_shape)
    k = head_shape[0] * head_shape[1]
    return EtaModel(
        w1=glorot_init((hidden, NUM_FEATURES), rng),
        w2=glorot_init((hidden, hidden), rng),
        w3=glorot_init((2 * k, hidden), rng),
        kind=kind,
        head_shape=head_shape,
        activation_slope=activation_slope,
        projection_style=projection_style,
        meta_learning_rate=meta_learning_rate,
        bypass=bypass,
    )


@dataclass
class _PsiCache:
    d_col: Matrix
    u1: Matrix
    h1: Matrix
    u2: Matrix
    h2: Matrix
    raw_beta: Matrix
    raw_eta: Matrix


def _psi_forward_cached(psi: EtaModel, d_col: Matrix) -> tuple[Matrix, Matrix, _PsiCache]:
    u1 = psi.w1 @ d_col
    h1, _ = leaky_relu(u1, psi.activation_slope)
    u2 = psi.w2 @ h1
    h2, _ = leaky_relu(u2, psi.activation_slope)
    u3 = psi.w3 @ h2
    k = psi.entry_count
    raw_beta, raw_eta = u3[:k], u3[k:]
    beta = project_unit(raw_beta, psi.projection_style).reshape(psi.head_shape)
    eta_hat = project_unit(raw_eta, psi.projection_style).reshape(psi.head_shape)
    cache = _PsiCache(d_col, u1, h1, u2, h2, raw_beta, raw_eta)
    return beta, eta_hat, cache


def psi_forward(psi: EtaModel, d: GradFeatures) -> EtaOutputs:
    """Scale factor and candidate step for one gradient's statistics.

    In bypass mode the outputs are pinned to beta = 1 (so the composed
    step stays at its initial value forever) and eta_hat = 0.5.
    """
    if psi.bypass:
        return EtaOutputs(
            beta=np.ones(psi.head_shape), eta_hat=np.full(psi.head_shape, 0.5)
        )
    beta, eta_hat, _ = _psi_forward_cached(psi, d.as_column())
    return EtaOutputs(beta=beta, eta_hat=eta_hat)


@dataclass
class MetaStep:
    """Everything one meta-gradient evaluation produces.

    The model's input is one feature column, so each of its weight
    gradients is an outer product: `psi_grads` holds one factor pair
    (u, v) per layer, whose gradient is u @ v.T.  The (2k x hidden)
    output-layer gradient is never built.
    """

    psi_grads: tuple[tuple[Matrix, Matrix], ...]
    beta: Matrix
    eta_hat: Matrix
    step_candidate: Matrix
    w_prime: dict[int, Matrix]
    meta_loss: float


def meta_gradients(
    psi: EtaModel,
    d: GradFeatures,
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
    A bypassed model has no meta step: the adaptive engine skips this
    pass for it.

    Args:
        block: layer indices the step size serves (weights/grads align).
        weights, grads: per-layer current weights and main-batch gradients.
        eta0: initial step values, shaped like the step size.
    """
    block = tuple(block)
    d_col = d.as_column()
    beta, eta_hat, cache = _psi_forward_cached(psi, d_col)
    step_cand, dstep_dbeta, dstep_deta = compose_step(arm, beta, eta0, eta_hat)

    w_prime = candidate_weights(block, weights, grads, step_cand)
    meta_loss, dW = block_loss_and_gradients(net.with_layers(w_prime), meta_batch, block)

    dstep = np.zeros(psi.head_shape)
    for l, g in zip(block, grads):
        dstep += reduce_to_kind(-dW[l] * g, psi.kind)

    k = psi.entry_count
    du3 = np.empty((2 * k, 1))
    for head, dstep_dhead, raw in (
        (du3[:k], dstep_dbeta, cache.raw_beta),
        (du3[k:], dstep_deta, cache.raw_eta),
    ):
        np.multiply(dstep.reshape(k, 1), dstep_dhead.reshape(k, 1), out=head)
        head *= project_unit_derivative(raw, psi.projection_style)

    dh2 = psi.w3.T @ du3
    _, a2 = leaky_relu(cache.u2, psi.activation_slope)
    du2 = dh2 * a2
    dh1 = psi.w2.T @ du2
    _, a1 = leaky_relu(cache.u1, psi.activation_slope)
    du1 = dh1 * a1

    psi_grads = ((du1, d_col), (du2, cache.h1), (du3, cache.h2))
    return MetaStep(psi_grads, beta, eta_hat, step_cand, w_prime, meta_loss)


def psi_step(psi: EtaModel, grads) -> EtaModel:
    """One plain gradient-descent step on the model's three matrices.

    `grads` holds one factor pair (u, v) per matrix, as in
    `MetaStep.psi_grads`.  Each matrix w becomes w - lr * (u @ v.T),
    rounded exactly as that expression rounds, computed PSI_CHUNK_ROWS
    rows at a time so that no full-size temporary exists.  The weight
    arrays are owned by the one training loop that holds the model and
    are mutated in place; the returned object is that same model.
    """
    for (u, v), w in zip(grads, psi.weights, strict=True):
        if u.shape != (w.shape[0], 1) or v.shape != (w.shape[1], 1):
            raise ShapeError(
                f"gradient factors {u.shape} x {v.shape} do not match weight {w.shape}"
            )
    lr = psi.meta_learning_rate
    for (u, v), w in zip(grads, psi.weights):
        rows = min(PSI_CHUNK_ROWS, w.shape[0])
        buf = np.empty((rows, w.shape[1]))
        for s in range(0, w.shape[0], rows):
            e = min(s + rows, w.shape[0])
            chunk = buf[: e - s]
            # a K=1 matmul rounds one product per entry; then scale, subtract
            np.multiply(u[s:e], v.T, out=chunk)
            chunk *= lr
            w[s:e] -= chunk
    return psi
