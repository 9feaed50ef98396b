"""The outer training loop: block sweeps, inner steps, evaluation.

Each outer iteration sweeps the blocks in ascending order and runs K
inner engine steps per block, drawing a fresh main mini-batch (and, for
adaptive engines, a fresh held-aside mini-batch) for every inner step.
Later blocks see earlier blocks' already-updated weights within the
same sweep.  `train_epoch` alone reads the engines' `StepEvent`s: it
checks each loss, traces and summarises the step sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import CLASSIFICATION, Dataset, MetaSubset, sample_minibatch
from .errors import DivergenceError, PlanError
from .model import NetworkModel, forward, mse_loss, softmax_ce_loss


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
    meta_source: MetaSubset | None = None
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
    finite, or that raises `FloatingPointError`, raises `DivergenceError`.
    """
    if dataset.num_samples == 0:
        raise ValueError("dataset is empty")
    if batch_size > dataset.num_samples:
        raise ValueError(
            f"batch size {batch_size} exceeds dataset size {dataset.num_samples}"
        )
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
                    if state.meta_source is None:
                        raise ValueError("adaptive engine needs a meta_source subset")
                    meta_batch = sample_minibatch(state.meta_source, batch_size, state.rng_meta)
                try:
                    state.net, engine, event = engine.step(state.net, block, main_batch, meta_batch)
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
            state.engines[bi] = engine
    state.epoch += 1
    eta = np.concatenate([np.ravel(e.step) for e in last])
    stats = {
        "mean_step_loss": float(np.mean(losses)),
        "eta_mean": float(eta.mean()),
        "eta_min": float(eta.min()),
        "eta_max": float(eta.max()),
        "steps": len(losses),
    }
    return state, stats


def evaluate(net: NetworkModel, dataset: Dataset, batch_size: int = 1000):
    """Full-pass (loss, accuracy-or-mse) over the set in eval batches."""
    n = dataset.num_samples
    total_loss = 0.0
    total_metric = 0.0
    for start in range(0, n, batch_size):
        stop = min(start + batch_size, n)
        x = dataset.features[:, start:stop]
        out = forward(net, x)
        b = stop - start
        if dataset.kind == CLASSIFICATION:
            y = dataset.targets[start:stop]
            loss, _ = softmax_ce_loss(out, y)
            total_loss += loss * b
            total_metric += float((out.argmax(axis=0) == y).sum())
        else:
            y = dataset.targets[:, start:stop]
            loss, _ = mse_loss(out, y)
            total_loss += loss * b
            total_metric += loss * b
    return total_loss / n, total_metric / n
