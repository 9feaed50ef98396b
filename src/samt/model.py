"""Bias-free multilayer perceptron: forward pass, losses, per-block gradients.

The prediction function is a chain of linear layers with LeakyReLU after
every layer except the last.  Batches are column-per-sample: an input
batch has shape (in_features, batch).  Layer l stores its weight as an
(out_l, in_l) matrix, so adjacent layers must chain:
W[l+1].shape[1] == W[l].shape[0].  A pass builds only the arrays it reads:
no activation derivatives, only the labelled log-probabilities, and no
pre-activations: the backward pass masks on the layer outputs it keeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LabelError, ShapeError
from .numerics import Matrix

MSE = "mse"
SOFTMAX_CE = "softmax_ce"
LOSS_KINDS = (MSE, SOFTMAX_CE)
DEFAULT_ACTIVATION_SLOPE = 0.01


@dataclass(frozen=True)
class NetworkModel:
    """Weights plus the two knobs that define the prediction function."""

    layer_weights: tuple[Matrix, ...]
    activation_slope: float = DEFAULT_ACTIVATION_SLOPE
    loss_kind: str = SOFTMAX_CE

    def __post_init__(self):
        if not self.layer_weights:
            raise ShapeError("network needs at least one layer")
        if not 0.0 < self.activation_slope < 1.0:
            raise ValueError(f"activation_slope must be in (0,1), got {self.activation_slope}")
        if self.loss_kind not in LOSS_KINDS:
            raise ValueError(f"loss_kind must be one of {LOSS_KINDS}, got {self.loss_kind!r}")
        for l in range(len(self.layer_weights) - 1):
            out_l = self.layer_weights[l].shape[0]
            in_next = self.layer_weights[l + 1].shape[1]
            if out_l != in_next:
                raise ShapeError(
                    f"layer {l} outputs {out_l} features but layer {l + 1} expects {in_next}"
                )

    @property
    def num_layers(self) -> int:
        return len(self.layer_weights)

    def with_layers(self, updates: dict[int, Matrix]) -> "NetworkModel":
        """Copy of the network with some layer weights replaced."""
        new = list(self.layer_weights)
        for l, w in updates.items():
            if w.shape != new[l].shape:
                raise ShapeError(
                    f"replacement for layer {l} has shape {w.shape}, expected {new[l].shape}"
                )
            new[l] = w
        return NetworkModel(tuple(new), self.activation_slope, self.loss_kind)


def glorot_init(shape: tuple[int, int], rng: np.random.Generator, size: int | None = None) -> Matrix:
    """Uniform init in +-sqrt(6 / (fan_in + fan_out)), rng.uniform's draws and bytes; with `size`,
    only the next `size` draws of that init, flat, so consecutive calls draw it piece by piece."""
    limit = np.sqrt(6.0 / sum(shape))
    w = rng.random(size=shape if size is None else size)
    w *= 2.0 * limit
    w -= limit
    return w


def init_network(widths, rng, activation_slope=DEFAULT_ACTIVATION_SLOPE, loss_kind=SOFTMAX_CE) -> NetworkModel:
    """Build a network from a width chain like (784, 100, 10)."""
    if len(widths) < 2:
        raise ShapeError(f"need at least two widths, got {widths}")
    weights = tuple(
        glorot_init((widths[i + 1], widths[i]), rng) for i in range(len(widths) - 1)
    )
    return NetworkModel(weights, activation_slope=activation_slope, loss_kind=loss_kind)


def leaky_relu(x: Matrix, slope: float, out: Matrix | None = None) -> Matrix:
    """x where x > 0, else slope * x: for 0 < slope < 1 that is bitwise
    max(x, slope * x), signed zeros, infinities and NaN included.  With
    `out=x` it overwrites x, holding one temporary instead of two."""
    return np.maximum(x, slope * x, out=out)


def leaky_relu_backward(x: Matrix, upstream: Matrix, slope: float) -> Matrix:
    """`upstream` times leaky_relu's derivative at x, bitwise; the
    derivative is 1 where x > 0 and `slope` elsewhere, at exactly 0 too.
    `x` may be leaky_relu's output instead: for 0 < slope < 1 that is
    > 0 at exactly the same entries."""
    return np.where(x > 0, upstream, slope * upstream)


def layer_outputs(net: NetworkModel, batch_x: Matrix):
    """Yield a (in_features, batch) input, then each layer's output in
    turn; the last is the network's (out_features, batch) output."""
    a = np.asarray(batch_x, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"batch must be 2-D, got shape {a.shape}")
    yield a
    for l, w in enumerate(net.layer_weights):
        if w.shape[1] != a.shape[0]:
            raise ShapeError(f"layer {l} expects {w.shape[1]} input features, got {a.shape[0]}")
        a = w @ a
        if l < net.num_layers - 1:
            leaky_relu(a, net.activation_slope, out=a)  # a is fresh: overwrite it
        yield a


def forward(net: NetworkModel, batch_x: Matrix) -> Matrix:
    """The network's output on a (in_features, batch) input; only the
    current layer's output is held."""
    for a in layer_outputs(net, batch_x):
        pass
    return a


def mse_loss(pred: Matrix, target: Matrix) -> tuple[float, Matrix]:
    """Mean (over batch columns) squared error, summed over output rows.

    Returns the scalar loss and d(loss)/d(pred) = (2/b)(pred - target).
    """
    if pred.shape != target.shape:
        raise ShapeError(f"mse_loss shape mismatch: {pred.shape} vs {target.shape}")
    b = pred.shape[1]
    diff = pred - target
    loss = float(np.sum(diff * diff) / b)
    return loss, (2.0 / b) * diff


def softmax_ce_loss(logits: Matrix, labels) -> tuple[float, Matrix]:
    """Softmax cross-entropy over batch columns, log-sum-exp stabilized.

    `labels` are integer class indices (one per column).  Returns the
    mean negative log-likelihood and d(loss)/d(logits).
    """
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != logits.shape[1]:
        raise ShapeError(
            f"need one label per column: {labels.shape} labels for logits {logits.shape}"
        )
    k, b = logits.shape
    if labels.size and (np.minimum.reduce(labels) < 0 or np.maximum.reduce(labels) >= k):
        bad = labels[(labels < 0) | (labels >= k)][0]
        raise LabelError(f"label {bad} outside [0, {k})")
    cols = np.arange(b)
    shifted = logits - np.maximum.reduce(logits, axis=0, keepdims=True)
    dlogits = np.exp(shifted)  # turned into d(loss)/d(logits) in place below
    total = np.add.reduce(dlogits, axis=0, keepdims=True)
    log_probs = shifted[labels, cols] - np.log(total[0])  # the labelled ones only
    loss = -float(np.add.reduce(log_probs) / b)
    dlogits /= total
    dlogits[labels, cols] -= 1.0
    dlogits /= b
    return loss, dlogits


def output_loss(net: NetworkModel, out: Matrix, targets) -> tuple[float, Matrix]:
    """(loss, d(loss)/d(out)) of the network's output `out` under its own loss kind."""
    return (mse_loss if net.loss_kind == MSE else softmax_ce_loss)(out, targets)


def batch_loss(net: NetworkModel, batch) -> float:
    """Loss of the network on (x, y) under its own loss kind."""
    x, y = batch
    return output_loss(net, forward(net, x), y)[0]


def block_loss_and_gradients(net: NetworkModel, batch, block) -> tuple[float, dict[int, Matrix]]:
    """Batch loss plus d(loss)/dW_l for each layer l in `block`.

    Gradients are the ordinary backpropagation partials with every other
    layer held at its current value; layers outside the block are not
    returned.
    """
    block = tuple(block)
    if not block:
        raise ValueError("block must contain at least one layer index")
    for l in block:
        if not 0 <= l < net.num_layers:
            raise ValueError(f"layer index {l} outside [0, {net.num_layers})")
    x, y = batch
    outputs = list(layer_outputs(net, x))  # input first
    loss, delta = output_loss(net, outputs[-1], y)

    wanted = set(block)
    lowest = min(wanted)
    grads: dict[int, Matrix] = {}
    for l in range(net.num_layers - 1, lowest - 1, -1):
        if l in wanted:
            grads[l] = delta @ outputs[l].T
        if l > lowest:
            upstream = net.layer_weights[l].T @ delta
            delta = leaky_relu_backward(outputs[l], upstream, net.activation_slope)
    return loss, grads
