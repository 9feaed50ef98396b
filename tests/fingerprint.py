"""Trajectory fingerprint: one line of hashes per small training run.

Run as ``python tests/fingerprint.py``.  Each line names a run and gives
two sha256 prefixes and the run's status (``ok``, or the class name of
the exception that ended it):

- ``trajectory`` covers both evaluations at every epoch, the final
  weights, and the weights of every psi the run consults, with their
  pending output-layer columns;
- ``events`` covers every step event's loss, step, meta loss, beta and
  eta_hat, with ``None`` hashed as a marker.

Diffing the output of two trees shows which runs' floats moved.  The
hashes hold for one numpy/BLAS build and OpenBLAS thread count, so none
are kept; ``test_fingerprint.py`` checks that two processes agree.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from samt.harness import (  # noqa: E402
    OPTIMIZERS,
    TrainConfig,
    build_state,
    load_datasets,
    validate_config,
)
from samt.stepsize import PROJECTION_STYLES  # noqa: E402
from samt.trainer import evaluate, train_epoch  # noqa: E402

SEED, N_TRAIN, N_TEST, EPOCHS = 3, 256, 64, 2
CSV_FEATURES = 5

BASE = TrainConfig(
    n_train=N_TRAIN, n_test=N_TEST, epochs=EPOCHS, seed=SEED, train_batch=32, eval_batch=64
)
DATASETS = {
    "synthetic": dict(dataset="synthetic", widths=(6, 12, 8, 1), synth_d=6),
    "synthetic_images": dict(
        dataset="synthetic_images", widths=(49, 12, 8, 4), img_side=7, img_classes=4
    ),
    "csv": dict(dataset="csv", widths=(CSV_FEATURES, 12, 8, 1), csv_target="y"),
}
VARIANTS = {
    "samt_s/bypass": dict(optimizer="samt_s", psi_bypass=True),
    "samt_e/bypass": dict(optimizer="samt_e", psi_bypass=True),
    "samt_e/meta_lag=1": dict(optimizer="samt_e", meta_lag=1),
    "samt_r/left_only": dict(optimizer="samt_r", ablation="left_only"),
    "samt_c/right_only": dict(optimizer="samt_c", ablation="right_only"),
    "samt_s/baseline,inner_steps=2": dict(optimizer="samt_s", ablation="baseline", inner_steps=2),
    "samt_s/grouped": dict(optimizer="samt_s", grouping=((0, 1), (2,))),
}


def write_csv(path: Path) -> None:
    """N_TRAIN + N_TEST rows of a noisy linear target; the test split is the tail."""
    rng = np.random.default_rng(SEED)
    x = rng.standard_normal((N_TRAIN + N_TEST, CSV_FEATURES))
    y = 0.7 * (x @ rng.standard_normal(CSV_FEATURES)) + 0.1 * rng.standard_normal(len(x))
    header = [f"x{i}" for i in range(CSV_FEATURES)] + ["y"]
    rows = (",".join(map(repr, [*map(float, r), float(t)])) for r, t in zip(x, y))
    path.write_text("\n".join([",".join(header), *rows]) + "\n", encoding="utf-8")


class Digest:
    def __init__(self):
        self.sha = hashlib.sha256()

    def add(self, value) -> None:
        if value is None:
            self.sha.update(b"None;")
            return
        a = np.ascontiguousarray(value, dtype=np.float64)
        self.sha.update(repr(a.shape).encode() + a.tobytes())

    def hex(self) -> str:
        return self.sha.hexdigest()[:16]


def fingerprint(config: TrainConfig) -> tuple[str, str, str]:
    """(trajectory hash, events hash, status) of one run."""
    trajectory, events = Digest(), Digest()

    def trace(event) -> None:
        for value in (event.loss, event.step, event.meta_loss, event.beta, event.eta_hat):
            events.add(value)

    state, status = None, "ok"
    try:
        validate_config(config)
        train, test = load_datasets(config)
        state = build_state(config, train)
        for _ in range(config.epochs):
            state, _ = train_epoch(state, train, config.train_batch, trace=trace)
            for ds in (train, test):
                trajectory.add(evaluate(state.net, ds, config.eval_batch))
    except Exception as e:  # the status names it; the hashes cover the run up to it
        status = type(e).__name__
    if state is not None:
        for w in state.net.layer_weights:
            trajectory.add(w)
        for engine in state.engines:
            adaptive = getattr(engine, "state", None)
            # a bypassed adaptive engine, where one exists, never consults its psi
            if adaptive is None or getattr(adaptive, "bypass", False):
                continue
            for w in adaptive.psi.weights:
                trajectory.add(w)
            p = adaptive.psi.pending
            if p.n:
                trajectory.add(p.u[:, : p.n])
                trajectory.add(p.v[:, : p.n])
    return trajectory.hex(), events.hex(), status


def runs(csv_path: Path):
    """(name, config) for every optimizer x projection x dataset, then the variants."""
    data = {k: replace(BASE, **v) for k, v in DATASETS.items()}
    data["csv"] = replace(data["csv"], csv_path=str(csv_path))
    for ds, config in data.items():
        for optimizer in OPTIMIZERS:
            for style in PROJECTION_STYLES:
                run = replace(config, optimizer=optimizer, projection_style=style)
                yield f"{ds}/{optimizer}/{style}", run
    for name, overrides in VARIANTS.items():
        yield f"synthetic_images/{name}", replace(data["synthetic_images"], **overrides)


def main() -> None:
    # two csv runs diverge; their hashes cover the run up to the divergence
    with tempfile.TemporaryDirectory() as tmp, np.errstate(over="ignore", invalid="ignore"):
        csv_path = Path(tmp) / "regression.csv"
        write_csv(csv_path)
        for name, config in runs(csv_path):
            traj, events, status = fingerprint(config)
            print(f"{name:<46} trajectory={traj} events={events} {status}", flush=True)


if __name__ == "__main__":
    main()
