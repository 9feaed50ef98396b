"""Exception types shared across the package."""


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
    """A training step produced a non-finite loss or meta loss.

    Carries where it happened: the 1-based epoch and outer iteration
    within it, the block's layer indices and the engine's class name.
    """

    def __init__(self, epoch: int, iteration: int, block: tuple[int, ...], engine: str, detail: str):
        super().__init__(
            f"training diverged at epoch {epoch}, iteration {iteration}, "
            f"block {block}, engine {engine}: {detail}"
        )
        self.epoch = epoch
        self.iteration = iteration
        self.block = block
        self.engine = engine
