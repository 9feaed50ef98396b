"""Exception types shared across the package."""

import numpy as np


class ShapeError(ValueError):
    """Operands have incompatible or unsupported shapes."""


class LabelError(ValueError):
    """A class label is outside the valid range."""


class DataFormatError(ValueError):
    """A data file is malformed (bad magic, truncation, bad cell, ...)."""


class PlanError(ValueError):
    """A block partition is overlapping or incomplete."""


class ConfigError(ValueError):
    """A configuration key or value is invalid."""


class DivergenceError(ArithmeticError):
    """A training step's loss, meta loss, or psi's input or heads were not finite.

    Carries where it happened: the 1-based epoch and outer iteration
    within it, the block's layer indices and the engine's class name.
    `event` is the failing step's `StepEvent`, else the block's last one
    in the epoch (in an untraced run, without beta and eta_hat), else
    None; the message ends with its step's min and max.
    """

    def __init__(self, epoch: int, iteration: int, block: tuple[int, ...], engine: str, detail: str,
                 event=None):
        if event is not None:
            detail += f" (step min {np.min(event.step):.6g}, max {np.max(event.step):.6g})"
        super().__init__(
            f"training diverged at epoch {epoch}, iteration {iteration}, "
            f"block {block}, engine {engine}: {detail}"
        )
        self.epoch = epoch
        self.iteration = iteration
        self.block = block
        self.engine = engine
        self.event = event
