"""The outer training loop: block sweeps, inner steps, evaluation.

Each outer iteration sweeps the blocks in ascending order and runs K
inner engine steps per block, drawing a fresh main mini-batch (and, for
adaptive engines, a fresh held-aside mini-batch from the dataset's
`data.meta_subset`) for every inner step.
Later blocks see earlier blocks' already-updated weights within the
same sweep.  The run's engines are built once and update their own
state in place; each step rebinds the run's network.  `train_epoch`
alone reads the engines' `StepEvent`s: it checks each loss, traces and
summarises the step sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, meta_subset, sample_minibatch
from .errors import DivergenceError, PlanError
from .model import SOFTMAX_CE, NetworkModel, batch_loss, forward, output_loss


@dataclass(frozen=True)
class BlockPlan:
    """Ordered disjoint cover of the layer indices, plus inner step count."""

    blocks: tuple[tuple[int, ...], ...]
    inner_steps: int = 1

    def __post_init__(self):
        if self.inner_steps < 1:
            raise PlanError(f"inner_steps must be >= 1, got {self.inner_steps}")


def block_partition(layer_count: int, grouping=None, inner_steps: int = 1) -> BlockPlan:
    """One block per layer by default; otherwise the given groups.

    Groups must disjointly cover all layer indices; blocks are ordered
    ascending by their smallest index.
    """
    if layer_count < 1:
        raise PlanError(f"layer_count must be >= 1, got {layer_count}")
    if grouping is None:
        blocks = tuple((l,) for l in range(layer_count))
        return BlockPlan(blocks, inner_steps)
    seen: set[int] = set()
    blocks = []
    for group in grouping:
        group = tuple(sorted(int(i) for i in group))
        if not group:
            raise PlanError("empty block in grouping")
        for i in group:
            if i < 0 or i >= layer_count:
                raise PlanError(f"layer index {i} outside [0, {layer_count})")
            if i in seen:
                raise PlanError(f"layer index {i} appears in more than one block")
            seen.add(i)
        blocks.append(group)
    if len(seen) != layer_count:
        missing = sorted(set(range(layer_count)) - seen)
        raise PlanError(f"grouping does not cover layers {missing}")
    blocks.sort(key=lambda b: b[0])
    return BlockPlan(tuple(blocks), inner_steps)


@dataclass
class TrainRunState:
    """Everything one training run mutates between epochs."""

    net: NetworkModel
    plan: BlockPlan
    engines: list  # one per block, aligned with plan.blocks
    rng_main: np.random.Generator
    rng_meta: np.random.Generator
    epoch: int = 0

    def __post_init__(self):
        if len(self.engines) != len(self.plan.blocks):
            raise PlanError(
                f"{len(self.engines)} engine states for {len(self.plan.blocks)} blocks"
            )


def train_epoch(state: TrainRunState, dataset: Dataset, batch_size: int, trace=None):
    """Run ceil(N / batch_size) outer iterations; returns (state, stats).

    stats holds the mean pre-update mini-batch loss, the mean, min and max
    of each block's last step, and the step count.  Each `StepEvent` is
    stamped (1-based epoch and iteration, block, engine class name, both
    mini-batches) and passed to `trace` if given, else stripped of beta
    and eta_hat once its loss is checked.  A step whose loss is not
    finite, or that raises `FloatingPointError`, raises `DivergenceError`;
    so does the epoch's last step when its batch's loss after the update is not.
    """
    if not 1 <= batch_size <= dataset.num_samples:
        raise ValueError(f"batch size must be >= 1 and <= the {dataset.num_samples} samples, got {batch_size}")
    meta_source = meta_subset(dataset)
    iterations = math.ceil(dataset.num_samples / batch_size)
    losses = []
    last = [None] * len(state.plan.blocks)  # each block's last event this epoch
    for it in range(iterations):
        for bi, block in enumerate(state.plan.blocks):
            engine = state.engines[bi]
            for _ in range(state.plan.inner_steps):
                main_batch = sample_minibatch(dataset, batch_size, state.rng_main)
                meta_batch = None
                if engine.needs_meta_batch:
                    meta_batch = sample_minibatch(meta_source, batch_size, state.rng_meta)
                try:
                    state.net, event = engine.step(state.net, block, main_batch, meta_batch)
                    last[bi] = event
                    if not math.isfinite(event.loss):
                        raise FloatingPointError(f"loss is {event.loss}")
                except FloatingPointError as e:
                    raise DivergenceError(
                        state.epoch + 1, it + 1, block, type(engine).__name__, str(e), last[bi]
                    ) from None
                if trace is not None:
                    event.epoch, event.iteration = state.epoch + 1, it + 1
                    event.block, event.engine = block, type(engine).__name__
                    event.main_batch, event.meta_batch = main_batch, meta_batch
                    trace(event)
                else:  # only `last` holds it: free the heads before the block's next step
                    event.beta = event.eta_hat = None
                losses.append(event.loss)
    if not math.isfinite(loss := batch_loss(state.net, main_batch)):  # no later step checks the last update
        raise DivergenceError(state.epoch + 1, iterations, block, type(engine).__name__,
                              f"the loss after the epoch's last update is {loss}", last[-1])
    state.epoch += 1
    eta = np.concatenate([np.ravel(e.step) for e in last])
    scale = 2.0 ** math.ceil(math.log2(eta.size))  # a power of two: eta / scale is exact, its sum cannot overflow
    stats = {
        "mean_step_loss": float(np.mean(losses)),
        "eta_mean": float(np.mean(eta / scale) * scale),
        "eta_min": float(eta.min()),
        "eta_max": float(eta.max()),
        "steps": len(losses),
    }
    return state, stats


def evaluate(net: NetworkModel, dataset: Dataset, batch_size: int):
    """Full-pass (loss, metric) over the set in eval batches, under the
    net's own loss; the metric is the accuracy for softmax-CE, else the loss."""
    if batch_size < 1:
        raise ValueError(f"batch size must be >= 1, got {batch_size}")
    n = dataset.num_samples
    total_loss = 0.0
    total_metric = 0.0
    for start in range(0, n, batch_size):
        batch = dataset.take(slice(start, start + batch_size))
        out = forward(net, batch.features)
        loss, _ = output_loss(net, out, batch.targets)
        b = batch.num_samples
        total_loss += loss * b
        total_metric += float((out.argmax(axis=0) == batch.targets).sum()) if net.loss_kind == SOFTMAX_CE else loss * b
    return total_loss / n, total_metric / n
