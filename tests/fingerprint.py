"""Trajectory fingerprint: one line of hashes per small training run.

Run as ``python tests/fingerprint.py``.  Each line names a run and gives
two sha256 prefixes and the run's status (``ok``, or the class name of
the exception that ended it):

- ``trajectory`` covers both evaluations at every epoch, the final
  weights, and the weights of every psi the run consults, with their
  pending output-layer columns;
- ``events`` covers every step event's loss, step, meta loss, beta and
  eta_hat, with ``None`` hashed as a marker.

A line hashes the bytes of a 1,000-glyph synthetic corpus (``images=``
and ``labels=``), so a change to the generator shows too.  The last line
hashes a small theory run: the rows, ratio and noise term of a noisy
and a noise-free recursion check with the plateau halving factor
(``recursion=``), and one contractivity check's slacks and violations
(``contractivity=``).  A gradcheck line hashes the unrounded worst
relative errors of ``samt gradcheck --seed 0``, which prints them to
three digits only: the layer checks (``layers=``) and the meta checks
(``meta=``), as ``repr`` floats.  The data line hashes the dtype, shape
and bytes of the features (``features=``) and targets (``targets=``) of
both splits that ``load_datasets`` returns for the synthetic, glyph and
CSV sources, and for an IDX pair written from the 1,000-glyph corpus.

Diffing the output of two trees shows which runs' floats moved.  The
hashes hold for one numpy/BLAS build and OpenBLAS thread count, so none
are kept; ``test_fingerprint.py`` checks that two processes agree.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from samt import harness, theory  # noqa: E402
from samt.data import synth_classification, write_idx  # noqa: E402
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
    "samt_s/grouped,meta_lag=1": dict(optimizer="samt_s", grouping=((0, 1), (2,)), meta_lag=1),
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
            if adaptive is None:
                continue
            for w in adaptive.psi.weights:
                trajectory.add(w)
            p = adaptive.psi.pending
            if p.n:
                trajectory.add(p.u[:, : p.n])
                trajectory.add(p.v[:, : p.n])
    return trajectory.hex(), events.hex(), status


def theory_fingerprint() -> tuple[str, str]:
    """(recursion hash, contractivity hash) of a reduced `run_theory_suite`."""
    recursion, contractivity = Digest(), Digest()
    noisy = theory.isotropic_problem(0, (6, 6), coupling=0.1, noise_sd=0.05)
    for problem in (noisy, theory.isotropic_problem(0, (6, 6), coupling=0.1, noise_sd=0.0)):
        report = theory.recursion_check(problem, 0.1, mc_runs=4, steps=60, seed=0)
        for value in (report.rows, report.ratio, report.noise_term, len(report.violations)):
            recursion.add(value)
    eta = theory.plateau_quartering_step(noisy)
    recursion.add(theory.plateau_halving_factor(noisy, eta, mc_runs=4, steps=60, seed=0))
    problem = theory.random_problem((0, 1), dims=(3, 4), coupling=0.15)
    eta = 2.0 / (problem.mus[0] + problem.lambdas[0])
    report = theory.contractivity_check(problem, 0, eta, trials=20, rng=np.random.default_rng(0))
    for value in (
        report.worst_squared_slack,
        report.worst_cross_slack,
        report.worst_unsquared_slack,
        report.worst_literal_cross_slack,
        [v[1:] for v in report.violations],
    ):
        contractivity.add(value)
    return recursion.hex(), contractivity.hex()


def gradcheck_fingerprint() -> tuple[str, str]:
    """(layers hash, meta hash) of the worst errors `run_gradcheck(0)` finds."""
    worst = {"fd_layer_gradients": [], "fd_meta_gradients": []}

    def recording(name, check):
        def wrapped(*args, **kwargs):
            worst[name].append(check(*args, **kwargs))
            return worst[name][-1]
        return wrapped

    originals = {name: getattr(harness, name) for name in worst}
    try:
        for name, check in originals.items():
            setattr(harness, name, recording(name, check))
        with contextlib.redirect_stdout(io.StringIO()):
            harness.run_gradcheck(0)
    finally:
        for name, check in originals.items():
            setattr(harness, name, check)
    return tuple(hashlib.sha256(",".join(map(repr, v)).encode()).hexdigest()[:16] for v in worst.values())


def data_fingerprint(csv_path: Path, images, labels) -> tuple[str, str]:
    """(features hash, targets hash) of both splits of every source, the
    IDX pair written beside `csv_path` from `images` and `labels`."""
    features, targets = hashlib.sha256(), hashlib.sha256()
    idx = [str(csv_path.with_name(f"{split}-{part}.idx"))
           for split in ("train", "test") for part in ("images", "labels")]
    write_idx(idx[0], idx[1], images[:800], labels[:800])
    write_idx(idx[2], idx[3], images[800:], labels[800:])
    configs = [replace(BASE, **v) for v in DATASETS.values()]
    configs[-1] = replace(configs[-1], csv_path=str(csv_path))
    configs.append(replace(BASE, dataset="idx", idx_train_images=idx[0], idx_train_labels=idx[1],
                           idx_test_images=idx[2], idx_test_labels=idx[3]))
    for config in configs:
        for ds in load_datasets(config):
            for sha, a in ((features, ds.features), (targets, ds.targets)):
                sha.update(repr((a.dtype.str, a.shape)).encode() + np.ascontiguousarray(a).tobytes())
    return features.hexdigest()[:16], targets.hexdigest()[:16]


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
        corpus = synth_classification(0, 1000)
        features, targets = data_fingerprint(csv_path, *corpus)
    images, labels = (hashlib.sha256(a.tobytes()).hexdigest()[:16] for a in corpus)
    print(f"{'data/synth_classification(0,1000)':<46} images={images} labels={labels} ok")
    recursion, contractivity = theory_fingerprint()
    print(f"{'theory/recursion,plateau,contractivity':<46} recursion={recursion} contractivity={contractivity} ok")
    layers, meta = gradcheck_fingerprint()
    print(f"{'gradcheck/worst_rel_err(seed=0)':<46} layers={layers} meta={meta} ok")
    print(f"{'data/load_datasets(synthetic,images,csv,idx)':<46} features={features} targets={targets} ok")


if __name__ == "__main__":
    main()
