"""Output checks made apart from samt.

Each check returns a list of problems (empty when the output is right).  The
recounts use plain numpy written here, never samt's own forward pass or loss,
and the properties are ones the method must have whatever today's output is.
"""

from __future__ import annotations

import numpy as np

LOSS_RTOL = 1e-9
BYPASS_ATOL = 1e-12


def _forward(weights, slope: float, x: np.ndarray) -> np.ndarray:
    a = x
    for i, w in enumerate(weights):
        z = w @ a
        a = z if i == len(weights) - 1 else np.maximum(z, slope * z)
    return a


def _close(got: float, want: float, rtol: float) -> bool:
    return bool(abs(got - want) <= rtol * max(1.0, abs(want)))


def check_classification(weights, slope, x, labels, loss, accuracy) -> list[str]:
    """Recount softmax cross-entropy and accuracy from the final weights."""
    logits = _forward(weights, slope, x)
    top = logits.max(axis=0)
    lse = top + np.log(np.exp(logits - top).sum(axis=0))
    n = logits.shape[1]
    want_loss = float(np.mean(lse - logits[labels, np.arange(n)]))
    want_correct = int(np.count_nonzero(logits.argmax(axis=0) == labels))
    problems = []
    if not _close(loss, want_loss, LOSS_RTOL):
        problems.append(f"test loss {loss!r} != recount {want_loss!r}")
    if not _close(accuracy, want_correct / n, 1e-12):
        problems.append(f"test accuracy {accuracy!r} != recount {want_correct}/{n}")
    return problems


def check_regression(weights, slope, x, targets, loss, mse) -> list[str]:
    """Recount the test MSE (summed over outputs, mean over samples)."""
    pred = _forward(weights, slope, x)
    want = float(np.sum((pred - targets) ** 2) / targets.shape[1])
    problems = []
    for name, got in (("loss", loss), ("mse", mse)):
        if not _close(got, want, LOSS_RTOL):
            problems.append(f"test {name} {got!r} != recount {want!r}")
    return problems


def check_finite(label: str, values) -> list[str]:
    arr = np.asarray(values, dtype=np.float64)
    if not np.isfinite(arr).all():
        return [f"{label} has non-finite values"]
    return []


def check_open_unit(label: str, values) -> list[str]:
    """Every value strictly inside (0,1); NaN fails."""
    arr = np.asarray(values, dtype=np.float64)
    if not ((arr > 0.0) & (arr < 1.0)).all():
        return [f"{label} leaves the open interval (0,1)"]
    return []


def check_accuracy_floor(accuracy: float, floor: float) -> list[str]:
    if not accuracy >= floor:
        return [f"test accuracy {accuracy!r} below the floor {floor}"]
    return []


def check_mse_below_variance(mse: float, targets) -> list[str]:
    var = float(np.var(targets))
    if not mse < var:
        return [f"test mse {mse!r} not below the test targets' variance {var!r}"]
    return []


def check_same_weights(label: str, got, want, atol: float = BYPASS_ATOL) -> list[str]:
    worst = max(float(np.max(np.abs(g - w))) for g, w in zip(got, want))
    if not worst <= atol:
        return [f"{label}: final weights differ by {worst!r} (allowed {atol})"]
    return []
