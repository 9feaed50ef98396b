"""Per-block update engines.

Every engine takes `step(net, block, main_batch, meta_batch)` and
returns the new network, the engine for the next step and the step's
`StepEvent`; the trainer alone checks and traces events.  The baselines
(plain SGD, Adam and a hypergradient rate adapter) are immutable: a step
builds a new engine.  The adaptive engine carries a trainable step size
and its step model psi, which it owns and mutates: `psi_step` updates
psi's weight arrays in place.  The engine raises `FloatingPointError`
when psi's input, raw heads or meta loss are not finite, before psi's
weights are touched.  A `psi_bypass` run has no adaptive engine: with
psi unconsulted and beta pinned to 1, each arm it may run steps at
eta0, so `harness.build_state` gives it `SgdEngine(eta0)`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .etamodel import EtaModel, meta_gradients, psi_step
from .model import block_loss_and_gradients
from .numerics import Matrix
from .stepsize import (
    ARM_FULL,
    StepSize,
    StepSizeKind,
    candidate_weights,
    compose_step,  # not called here; perfbench's tracer patches optim.compose_step
    grad_features,
)


@dataclass(slots=True)
class StepEvent:
    """What one engine step did.  Arrays are the step's own, not copies,
    and nothing writes to them later.  `step` is SGD's eta, Adam's rate,
    the rate HD just used, or the adaptive engine's composed step (which
    it keeps, and applies unless `meta_lag` is 1).  The trainer stamps
    the fields from `epoch` on when it traces."""

    loss: float
    step: Matrix | float
    meta_loss: float | None = None
    beta: Matrix | None = None
    eta_hat: Matrix | None = None
    epoch: int = 0
    iteration: int = 0
    block: tuple[int, ...] = ()
    engine: str = ""
    main_batch: tuple | None = None
    meta_batch: tuple | None = None


@dataclass(frozen=True)
class OagdState:
    """Joint state of one adaptive block: its step size and the step
    model psi, which records the step-size kind."""

    step: StepSize
    psi: EtaModel
    meta_lag: int = 0
    arm: str = ARM_FULL

    def __post_init__(self):
        if self.meta_lag not in (0, 1):
            raise ValueError(f"meta_lag must be 0 or 1, got {self.meta_lag}")


@dataclass(frozen=True)
class SgdEngine:
    """Plain SGD with a fixed positive rate."""

    eta: float

    needs_meta_batch = False

    def __post_init__(self):
        if not self.eta > 0:
            raise ValueError(f"step size must be positive, got {self.eta}")

    def step(self, net, block, main_batch, meta_batch=None):
        loss, grads = block_loss_and_gradients(net, main_batch, block)
        updates = {l: net.layer_weights[l] - self.eta * grads[l] for l in block}
        return net.with_layers(updates), self, StepEvent(loss, self.eta)


@dataclass(frozen=True)
class AdamEngine:
    """Bias-corrected Adam; the moments align with the block's layer order."""

    m: tuple[Matrix, ...]
    v: tuple[Matrix, ...]
    rate: float = 1e-3
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    needs_meta_batch = False

    @staticmethod
    def fresh(net, block, rate: float) -> "AdamEngine":
        zeros = tuple(np.zeros_like(net.layer_weights[l]) for l in block)
        return AdamEngine(zeros, zeros, rate)

    def step(self, net, block, main_batch, meta_batch=None):
        loss, grads = block_loss_and_gradients(net, main_batch, block)
        t = self.t + 1
        b1, b2 = self.beta1, self.beta2
        updates, ms, vs = {}, [], []
        for l, m, v in zip(block, self.m, self.v):
            g = grads[l]
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * (g * g)
            m_hat = m / (1 - b1 ** t)
            v_hat = v / (1 - b2 ** t)
            updates[l] = net.layer_weights[l] - self.rate * m_hat / (np.sqrt(v_hat) + self.eps)
            ms.append(m)
            vs.append(v)
        new = replace(self, m=tuple(ms), v=tuple(vs), t=t)
        return net.with_layers(updates), new, StepEvent(loss, self.rate)


@dataclass(frozen=True)
class HdEngine:
    """One rate per block, adapted by the inner product of consecutive gradients."""

    g_prev: tuple[Matrix, ...]
    rate: float
    hyper_rate: float = 1e-4
    rate_floor: float = 1e-8

    needs_meta_batch = False

    @staticmethod
    def fresh(net, block, rate: float, hyper_rate: float = 1e-4) -> "HdEngine":
        return HdEngine(
            tuple(np.zeros_like(net.layer_weights[l]) for l in block),
            rate=rate,
            hyper_rate=hyper_rate,
        )

    def step(self, net, block, main_batch, meta_batch=None):
        loss, grads = block_loss_and_gradients(net, main_batch, block)
        inner = sum(float(np.vdot(grads[l], gp)) for l, gp in zip(block, self.g_prev))
        rate = max(self.rate_floor, self.rate + self.hyper_rate * inner)
        updates = {l: net.layer_weights[l] - rate * grads[l] for l in block}
        new = replace(self, g_prev=tuple(grads[l] for l in block), rate=rate)
        return net.with_layers(updates), new, StepEvent(loss, rate)


@dataclass(frozen=True)
class OagdEngine:
    """Adaptive engine: one trainable step size and its step model psi."""

    state: OagdState

    needs_meta_batch = True

    def step(self, net, block, main_batch, meta_batch):
        state = self.state
        if state.psi.kind is not StepSizeKind.SCALAR and len(block) != 1:
            raise ValueError("non-scalar step sizes serve single-layer blocks only")
        loss, grads = block_loss_and_gradients(net, main_batch, block)
        g_list = [grads[l] for l in block]
        w_list = [net.layer_weights[l] for l in block]
        # psi reads the statistics of all the block's gradients at once
        g_all = g_list[0] if len(g_list) == 1 else np.concatenate([g.ravel() for g in g_list])
        meta = meta_gradients(
            state.psi, grad_features(g_all), block, w_list, g_list, state.step.init_values,
            meta_batch, net, arm=state.arm,
        )
        if not math.isfinite(meta.meta_loss):
            raise FloatingPointError(f"meta loss is {meta.meta_loss}")
        psi_step(state.psi, meta.psi_grads)
        if state.meta_lag == 0:
            updates = meta.w_prime
        else:
            updates = candidate_weights(block, w_list, g_list, state.step.values)
        new = OagdEngine(replace(state, step=state.step.with_values(meta.step_candidate)))
        event = StepEvent(loss, meta.step_candidate, meta.meta_loss, meta.beta, meta.eta_hat)
        return net.with_layers(updates), new, event
