"""Per-block update engines.

Every engine takes `step(net, block, main_batch, meta_batch, trace)` and
returns the new network, the engine for the next step and the pre-update
mini-batch loss.  The fixed-recipe baselines (plain SGD, Adam and a
hypergradient rate adapter) are immutable: a step builds a new engine.
The adaptive engine carries a trainable step size and its step model
psi; psi is state the engine owns and mutates, because `psi_step`
updates psi's weight arrays in place.  The adaptive engine raises
`FloatingPointError` when its meta loss is not finite, before psi's
weights are touched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .etamodel import EtaModel, meta_gradients, psi_forward, psi_step
from .model import block_loss_and_gradients
from .numerics import Matrix
from .stepsize import (
    ARM_FULL,
    StepSize,
    StepSizeKind,
    candidate_weights,
    compose_step,
    grad_features,
)


@dataclass(frozen=True)
class OagdState:
    """Joint state of one adaptive block: its step size and step model."""

    step: StepSize
    psi: EtaModel
    meta_lag: int = 0
    arm: str = ARM_FULL

    def __post_init__(self):
        if self.meta_lag not in (0, 1):
            raise ValueError(f"meta_lag must be 0 or 1, got {self.meta_lag}")
        if self.psi.kind is not self.step.kind:
            raise ValueError(
                f"step kind {self.step.kind} does not match model kind {self.psi.kind}"
            )


def _block_features(grads_in_order):
    if len(grads_in_order) == 1:
        return grad_features(grads_in_order[0])
    stacked = np.concatenate([g.ravel() for g in grads_in_order]).reshape(-1, 1)
    return grad_features(stacked)


@dataclass(frozen=True)
class SgdEngine:
    """Plain SGD with a fixed positive rate."""

    eta: float

    needs_meta_batch = False

    def __post_init__(self):
        if not self.eta > 0:
            raise ValueError(f"step size must be positive, got {self.eta}")

    def step(self, net, block, main_batch, meta_batch=None, trace=None):
        loss, grads = block_loss_and_gradients(net, main_batch, block)
        if trace is not None:
            trace({"event": "sgd_step", "block": tuple(block), "loss": loss,
                   "weight_sums": tuple(float(w.sum()) for w in net.layer_weights)})
        updates = {l: net.layer_weights[l] - self.eta * grads[l] for l in block}
        return net.with_layers(updates), self, loss

    def eta_snapshot(self) -> np.ndarray:
        return np.array([self.eta])


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

    def step(self, net, block, main_batch, meta_batch=None, trace=None):
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
        return net.with_layers(updates), new, loss

    def eta_snapshot(self) -> np.ndarray:
        return np.array([self.rate])


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

    def step(self, net, block, main_batch, meta_batch=None, trace=None):
        loss, grads = block_loss_and_gradients(net, main_batch, block)
        inner = sum(float(np.vdot(grads[l], gp)) for l, gp in zip(block, self.g_prev))
        rate = max(self.rate_floor, self.rate + self.hyper_rate * inner)
        updates = {l: net.layer_weights[l] - rate * grads[l] for l in block}
        new = replace(self, g_prev=tuple(grads[l].copy() for l in block), rate=rate)
        return net.with_layers(updates), new, loss

    def eta_snapshot(self) -> np.ndarray:
        return np.array([self.rate])


@dataclass(frozen=True)
class OagdEngine:
    """Adaptive engine: one trainable step size and its step model psi."""

    state: OagdState

    needs_meta_batch = True

    def step(self, net, block, main_batch, meta_batch, trace=None):
        state = self.state
        block = tuple(block)
        if state.step.kind is not StepSizeKind.SCALAR and len(block) != 1:
            raise ValueError("non-scalar step sizes serve single-layer blocks only")
        loss, grads = block_loss_and_gradients(net, main_batch, block)
        g_list = [grads[l] for l in block]
        w_list = [net.layer_weights[l] for l in block]
        feats = _block_features(g_list)
        eta0 = state.step.init_values

        updates = None
        if state.psi.bypass:
            outs = psi_forward(state.psi, feats)
            step_cand, _, _ = compose_step(state.arm, outs.beta, eta0, outs.eta_hat)
            beta, eta_hat = outs.beta, outs.eta_hat
        else:
            meta = meta_gradients(
                state.psi, feats, block, w_list, g_list, eta0, meta_batch, net, arm=state.arm
            )
            if not math.isfinite(meta.meta_loss):
                raise FloatingPointError(f"meta loss is {meta.meta_loss}")
            psi_step(state.psi, meta.psi_grads)
            step_cand, beta, eta_hat = meta.step_candidate, meta.beta, meta.eta_hat
            if state.meta_lag == 0:
                updates = meta.w_prime
        if updates is None:
            commit = step_cand if state.meta_lag == 0 else state.step.values
            updates = candidate_weights(block, w_list, g_list, commit)
        if trace is not None:
            trace(
                {
                    "event": "oagd_step",
                    "block": block,
                    "arm": state.arm,
                    "loss": loss,
                    "batch_sum": float(main_batch[0].sum()),
                    "meta_batch_sum": float(meta_batch[0].sum()),
                    "beta": beta.copy(),
                    "eta_hat": eta_hat.copy(),
                    "step": step_cand.copy(),
                    "weight_sums": tuple(float(w.sum()) for w in net.layer_weights),
                }
            )
        new = OagdEngine(replace(state, step=state.step.with_values(step_cand)))
        return net.with_layers(updates), new, loss

    def eta_snapshot(self) -> np.ndarray:
        return self.state.step.values.ravel().copy()
