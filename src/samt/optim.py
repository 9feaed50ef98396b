"""Per-block update engines.

`harness.build_state` builds each block's engine once.  `step(net,
block, main_batch, meta_batch)` returns the new network and the step's
`StepEvent`; the trainer alone checks and traces events.  Engines keep
their state by rebinding fields to each step's new arrays, never by
writing into old ones, which events may hold; only Adam writes in
place, into its own moments, which no event holds (`AdamEngine.fresh`
gives m and v zeros of their own).  SGD, HD and the adaptive engine form their weight
updates with `stepsize.candidate_weights`; only Adam's differs.  SGD has
no state.  The adaptive engine rebinds its step size's values, and
`psi_step` updates psi in place; it raises `FloatingPointError` when
psi's input, raw heads or meta loss are not finite, and `ValueError`
when the composed step leaves (0,1), both before psi is touched.  A
`psi_bypass` run has no adaptive engine: with psi unconsulted and beta
pinned to 1, each arm it may run steps at eta0, so `build_state` gives
it `SgdEngine(eta0)`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .etamodel import EtaModel, meta_gradients, psi_step
from .model import block_loss_and_gradients
from .numerics import Matrix
from .stepsize import (
    ARM_FULL,
    StepSize,
    StepSizeKind,
    candidate_weights,
    check_open_unit,
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


@dataclass(slots=True)
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
        updates = candidate_weights(net, block, grads, self.eta)
        return net.with_layers(updates), StepEvent(loss, self.eta)


# Adam's moment decays and denominator guard (Kingma & Ba's defaults)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
HD_RATE_FLOOR = 1e-8  # negative inner products cannot drive HD's rate to 0 or below


@dataclass(slots=True)
class AdamEngine:
    """Bias-corrected Adam; the moments align with the block's layer order."""

    m: tuple[Matrix, ...]
    v: tuple[Matrix, ...]
    rate: float
    t: int = 0

    needs_meta_batch = False

    @staticmethod
    def fresh(net, block, rate: float) -> "AdamEngine":
        m, v = (tuple(np.zeros_like(net.layer_weights[l]) for l in block) for _ in range(2))
        return AdamEngine(m, v, rate)

    def step(self, net, block, main_batch, meta_batch=None):
        loss, grads = block_loss_and_gradients(net, main_batch, block)
        self.t = t = self.t + 1
        updates = {}
        for l, m, v in zip(block, self.m, self.v):  # each moment in place: beta * m + (1 - beta) * g
            g = grads[l]
            m *= ADAM_BETA1
            m += (1 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1 - ADAM_BETA2) * (g * g)
            m_hat = m / (1 - ADAM_BETA1 ** t)
            v_hat = v / (1 - ADAM_BETA2 ** t)
            updates[l] = net.layer_weights[l] - self.rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        return net.with_layers(updates), StepEvent(loss, self.rate)


@dataclass(slots=True)
class HdEngine:
    """One rate per block, adapted by the inner product of consecutive gradients."""

    g_prev: tuple[Matrix, ...]
    rate: float
    hyper_rate: float

    needs_meta_batch = False

    @staticmethod
    def fresh(net, block, rate: float, hyper_rate: float) -> "HdEngine":
        return HdEngine(
            tuple(np.zeros_like(net.layer_weights[l]) for l in block),
            rate=rate,
            hyper_rate=hyper_rate,
        )

    def step(self, net, block, main_batch, meta_batch=None):
        loss, grads = block_loss_and_gradients(net, main_batch, block)
        inner = sum(float(np.vdot(grads[l], gp)) for l, gp in zip(block, self.g_prev))
        self.rate = rate = max(HD_RATE_FLOOR, self.rate + self.hyper_rate * inner)
        updates = candidate_weights(net, block, grads, rate)
        self.g_prev = tuple(grads[l] for l in block)
        return net.with_layers(updates), StepEvent(loss, rate)


@dataclass(slots=True)
class OagdEngine:
    """Adaptive engine: one trainable step size and its step model psi."""

    state: OagdState

    needs_meta_batch = True

    def step(self, net, block, main_batch, meta_batch):
        state = self.state
        if state.psi.kind is not StepSizeKind.SCALAR and len(block) != 1:
            raise ValueError("non-scalar step sizes serve single-layer blocks only")
        loss, grads = block_loss_and_gradients(net, main_batch, block)
        g_all = grads[block[0]]
        if len(block) > 1:  # psi reads the statistics of all the block's gradients at once
            g_all = np.concatenate([grads[l].ravel() for l in block])
        meta = meta_gradients(
            state.psi, grad_features(g_all), block, grads, state.step.eta0, meta_batch, net,
            arm=state.arm,
        )
        if not math.isfinite(meta.meta_loss):
            raise FloatingPointError(f"meta loss is {meta.meta_loss}")
        check_open_unit("step values", meta.step_candidate)
        psi_step(state.psi, meta.psi_grads)
        if state.meta_lag == 0:
            updates = meta.w_prime
        else:
            updates = candidate_weights(net, block, grads, state.step.values)
        state.step.values = meta.step_candidate
        event = StepEvent(loss, meta.step_candidate, meta.meta_loss, meta.beta, meta.eta_hat)
        return net.with_layers(updates), event
