"""Configuration, experiment orchestration, and metrics emission.

Config files are UTF-8 ``key = value`` lines with ``#`` comments and
optional ``[section]`` headers (sections are cosmetic; keys are global).
Command-line overrides take precedence over file values.  Each value's
text is converted by the type of its `TrainConfig` field alone;
`validate_config` is the one statement of every key's legal values.
Every run writes one CSV row per epoch and split with the exact header
``epoch,split,loss,metric,wall_ms,eta_mean,eta_min,eta_max``.
"""

from __future__ import annotations

import math
import sys
import time
import typing
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import theory
from .data import (
    CLASSIFICATION,
    Dataset,
    load_csv,
    load_idx,
    pixel_dataset,
    standardize,
    synth_classification,
    synth_regression,
)
from .errors import ConfigError, PlanError
from .etamodel import DEFAULT_HIDDEN, DEFAULT_META_LEARNING_RATE, init_eta_model, meta_gradients, psi_forward
from .model import (
    DEFAULT_ACTIVATION_SLOPE,
    MSE,
    SOFTMAX_CE,
    NetworkModel,
    batch_loss,
    block_loss_and_gradients,
    init_network,
)
from .numerics import Matrix, make_rng, spawn_rngs
from .optim import AdamEngine, HdEngine, OagdEngine, OagdState, SgdEngine
from .stepsize import (
    ABLATION_ARMS,
    ARM_RIGHT,
    PROJECTION_STYLES,
    TANH,
    StepSize,
    StepSizeKind,
    candidate_weights,
    compose_step,
    grad_features,
)
from .trainer import block_partition, evaluate, train_epoch, TrainRunState

OPTIMIZERS = ("samt_s", "samt_e", "samt_r", "samt_c", "sgd", "adam", "hd")
DATASETS = ("synthetic", "synthetic_images", "idx", "csv")

_SAMT_KINDS = {
    "samt_s": StepSizeKind.SCALAR,
    "samt_e": StepSizeKind.ELEMENT,
    "samt_r": StepSizeKind.ROW,
    "samt_c": StepSizeKind.COLUMN,
}


@dataclass(frozen=True)
class TrainConfig:
    dataset: str = "synthetic"
    widths: tuple[int, ...] = (10, 1)
    optimizer: str = "samt_s"
    eta0: float = 0.1
    projection_style: str = TANH
    ablation: str = "full"
    inner_steps: int = 1
    meta_lag: int = 0
    meta_learning_rate: float = DEFAULT_META_LEARNING_RATE
    psi_hidden: int = DEFAULT_HIDDEN
    psi_bypass: bool = False
    activation_slope: float = DEFAULT_ACTIVATION_SLOPE
    train_batch: int = 64
    eval_batch: int = 1000
    epochs: int = 5
    seed: int = 0
    grouping: tuple[tuple[int, ...], ...] | None = None
    sgd_rate: float | None = None  # defaults to eta0
    adam_rate: float = 1e-3
    hd_hyper_rate: float = 1e-4
    n_train: int | None = None
    n_test: int | None = None
    synth_d: int = 10
    synth_noise_sd: float = 0.1
    img_side: int = 28
    img_classes: int = 10
    img_noise_sd: float = 0.5
    idx_train_images: str | None = None
    idx_train_labels: str | None = None
    idx_test_images: str | None = None
    idx_test_labels: str | None = None
    csv_path: str | None = None
    csv_target: str | None = None
    csv_standardize: bool = True
    csv_test_fraction: float = 0.2
    out_csv: str = "metrics.csv"


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {s!r}")


def _parse_ints(s: str) -> tuple[int, ...]:
    return tuple(int(p) for p in s.split(","))


def _optional(convert):
    def inner(s: str):
        return None if s.strip().lower() in ("", "none") else convert(s)

    return inner


_TYPE_CONVERTERS = {
    int: int, float: float, bool: _parse_bool, str: str,
    tuple[int, ...]: _parse_ints,  # "10,32,1"
    tuple[tuple[int, ...], ...]: lambda s: tuple(_parse_ints(g) for g in s.split(";")),  # "0,1;2"
}


def _converter(hint):
    # `X | None` parses "none" (or an empty value) to None
    args = typing.get_args(hint)
    if type(None) in args:
        return _optional(_TYPE_CONVERTERS[args[0]])
    return _TYPE_CONVERTERS[hint]


_CONVERTERS = {key: _converter(hint) for key, hint in typing.get_type_hints(TrainConfig).items()}


def _read_config_file(path) -> dict[str, str]:
    pairs: dict[str, str] = {}
    text = Path(path).read_text(encoding="utf-8-sig")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            continue  # section headers organize, keys stay global
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        pairs[key.strip()] = value.strip()
    return pairs


def parse_config(path=None, overrides=()) -> TrainConfig:
    """Build a validated TrainConfig from a file and/or override pairs.

    `overrides` is an iterable of "key=value" strings; they win over
    file values.  Unknown keys, text that does not parse as its field's
    type and values `validate_config` rejects raise ConfigError.
    """
    pairs: dict[str, str] = {}
    if path is not None:
        pairs.update(_read_config_file(path))
    for item in overrides:
        key, sep, value = item.lstrip("-").partition("=")
        if not sep:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        pairs[key.strip()] = value.strip()

    kwargs = {}
    for key, raw in pairs.items():
        if key not in _CONVERTERS:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            kwargs[key] = _CONVERTERS[key](raw)
        except ConfigError as e:
            raise ConfigError(f"config key {key!r}: {e}") from None
        except ValueError:
            raise ConfigError(f"config key {key!r}: cannot parse {raw!r}") from None
    config = TrainConfig(**kwargs)
    validate_config(config)
    return config


_CHOICES = {
    "dataset": DATASETS,
    "optimizer": OPTIMIZERS,
    "projection_style": PROJECTION_STYLES,
    "ablation": ABLATION_ARMS,
}


def validate_config(config: TrainConfig) -> None:
    """Raise ConfigError naming the first key whose value is not legal;
    a TrainConfig built in code and one parsed from text get the same checks."""
    for key, choices in _CHOICES.items():
        if (value := getattr(config, key)) not in choices:
            raise ConfigError(f"{key} must be one of {', '.join(choices)}, got {value!r}")
    if len(config.widths) < 2 or min(config.widths) < 1:
        raise ConfigError(f"widths needs at least two widths, each >= 1, got {config.widths}")
    try:
        block_partition(len(config.widths) - 1, config.grouping)
    except PlanError as e:
        raise ConfigError(f"grouping: {e}") from None
    # NaN fails too; eta0 exceeds the smallest normal float, so that beta * eta0 cannot round to 0
    for key, lo in (("eta0", sys.float_info.min), ("activation_slope", 0.0), ("csv_test_fraction", 0.0)):
        if not lo < (value := getattr(config, key)) < 1.0:
            raise ConfigError(f"{key} must be in ({lo:g},1), got {value}")
    if config.meta_lag not in (0, 1):
        raise ConfigError(f"meta_lag must be 0 or 1, got {config.meta_lag}")
    if config.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {config.seed}")
    # written as `not 0 <= x < hi` so that NaN fails too; a glyph noise sd of 1e6 saturates
    # every pixel already, and near the float limit `noise_sd * noise` overflows
    for key, hi in (("meta_learning_rate", math.inf), ("hd_hyper_rate", math.inf), ("synth_noise_sd", math.inf),
                    ("img_noise_sd", 1e6)):
        if not 0.0 <= (value := getattr(config, key)) < hi:
            raise ConfigError(f"{key} must be >= 0 and < {hi:g}, got {value}")
    for key in ("adam_rate", "sgd_rate"):  # sgd_rate may be None: it defaults to eta0
        if (value := getattr(config, key)) is not None and not 0.0 < value < math.inf:
            raise ConfigError(f"{key} must be finite and > 0, got {value}")
    for key in ("train_batch", "eval_batch", "inner_steps", "epochs", "psi_hidden", "synth_d",
                "img_classes", "n_train", "n_test"):
        if (value := getattr(config, key)) is not None and value < 1:
            raise ConfigError(f"{key} must be >= 1, got {value}")
    if config.img_side < 2:  # a 1-pixel glyph has no ink to scale
        raise ConfigError(f"img_side must be >= 2, got {config.img_side}")
    if config.img_classes > 256:  # glyph labels are uint8, as in IDX files
        raise ConfigError(f"img_classes must be <= 256, got {config.img_classes}")
    if config.dataset == "idx":
        missing = [
            k
            for k in ("idx_train_images", "idx_train_labels", "idx_test_images", "idx_test_labels")
            if getattr(config, k) is None
        ]
        if missing:
            raise ConfigError(f"dataset=idx needs keys: {', '.join(missing)}")
    if config.dataset == "csv" and (config.csv_path is None or config.csv_target is None):
        raise ConfigError("dataset=csv needs csv_path and csv_target")
    kind = _SAMT_KINDS.get(config.optimizer)
    if kind is not None and kind is not StepSizeKind.SCALAR and config.grouping is not None:
        if any(len(g) > 1 for g in config.grouping):
            raise ConfigError("grouping: non-scalar step sizes support single-layer blocks only")
    if kind is not None and config.psi_bypass and config.ablation == ARM_RIGHT:
        raise ConfigError("psi_bypass=true pins beta = 1, so ablation=right_only's step is 0")


# ---------------------------------------------------------------------------
# Dataset assembly
# ---------------------------------------------------------------------------


def load_datasets(config: TrainConfig) -> tuple[Dataset, Dataset]:
    """(train, test) pair for the configured source."""
    if config.dataset == "synthetic":
        n_train = 2000 if config.n_train is None else config.n_train
        n_test = 1000 if config.n_test is None else config.n_test
        full, _ = synth_regression(
            config.seed, n_train + n_test, config.synth_d, config.synth_noise_sd
        )
        return full.take(slice(0, n_train)), full.take(slice(n_train, None))
    if config.dataset == "synthetic_images":
        n_train = 10000 if config.n_train is None else config.n_train
        n_test = 2000 if config.n_test is None else config.n_test
        images, labels = synth_classification(
            config.seed,
            n_train + n_test,
            side=config.img_side,
            num_classes=config.img_classes,
            noise_sd=config.img_noise_sd,
        )
        full = pixel_dataset(images.reshape(-1, config.img_side**2), labels)
        return full.take(slice(0, n_train)), full.take(slice(n_train, None))
    if config.dataset == "idx":
        train = load_idx(config.idx_train_images, config.idx_train_labels, limit=config.n_train)
        test = load_idx(config.idx_test_images, config.idx_test_labels, limit=config.n_test)
        keys = ("idx_train_images", "idx_test_images")
    else:  # csv: the tail is the test split
        full = load_csv(config.csv_path, config.csv_target)
        n = full.num_samples
        n_test = max(1, int(n * config.csv_test_fraction))
        train, test = full.take(slice(0, n - n_test)), full.take(slice(n - n_test, None))
        keys = ("csv_path", "csv_path")
    for key, split, ds in zip(keys, ("training", "test"), (train, test)):
        if ds.num_samples == 0:
            raise ConfigError(f"{key} {getattr(config, key)} leaves the {split} split empty")
    if config.dataset == "csv" and config.csv_standardize:
        train, test = standardize(train, test)
    return train, test


# ---------------------------------------------------------------------------
# Run assembly
# ---------------------------------------------------------------------------


def build_state(config: TrainConfig, train_ds: Dataset) -> TrainRunState:
    """Network, block plan, engines and rng streams for one run."""
    init_rng, main_rng, meta_rng, psi_rng = spawn_rngs(config.seed, 4)
    loss_kind = SOFTMAX_CE if train_ds.kind == CLASSIFICATION else MSE
    if config.widths[0] != train_ds.features.shape[0]:
        raise ConfigError(
            f"widths: first width {config.widths[0]} != feature dimension {train_ds.features.shape[0]}"
        )
    if config.train_batch > train_ds.num_samples:
        raise ConfigError(
            f"train_batch {config.train_batch} exceeds the {train_ds.num_samples} training samples"
        )
    last, targets = config.widths[-1], train_ds.targets
    if train_ds.kind == CLASSIFICATION and last <= targets.max():
        raise ConfigError(f"widths: last width {last} cannot score training label {targets.max()}")
    if train_ds.kind != CLASSIFICATION and last != targets.shape[0]:
        raise ConfigError(f"widths: last width {last} != {targets.shape[0]} target rows")
    net = init_network(
        config.widths, init_rng, activation_slope=config.activation_slope, loss_kind=loss_kind
    )
    plan = block_partition(net.num_layers, config.grouping, config.inner_steps)

    kind = _SAMT_KINDS.get(config.optimizer)
    engines = []
    for block in plan.blocks:
        if config.optimizer == "sgd":
            engines.append(SgdEngine(config.sgd_rate if config.sgd_rate is not None else config.eta0))
        elif config.optimizer == "adam":
            engines.append(AdamEngine.fresh(net, block, config.adam_rate))
        elif config.optimizer == "hd":
            engines.append(HdEngine.fresh(net, block, config.eta0, config.hd_hyper_rate))
        elif config.psi_bypass:
            # psi unconsulted and beta = 1: every arm validate_config allows steps at eta0
            engines.append(SgdEngine(config.eta0))
        else:
            layer_shape = net.layer_weights[block[0]].shape
            psi = init_eta_model(
                kind,
                layer_shape,
                psi_rng,
                hidden=config.psi_hidden,
                activation_slope=config.activation_slope,
                projection_style=config.projection_style,
                meta_learning_rate=config.meta_learning_rate,
                dtype=np.float32,
            )
            step = StepSize.initial(kind, layer_shape, config.eta0)
            state = OagdState(step, psi, meta_lag=config.meta_lag, arm=config.ablation)
            engines.append(OagdEngine(state))
    return TrainRunState(
        net=net,
        plan=plan,
        engines=engines,
        rng_main=main_rng,
        rng_meta=meta_rng,
    )


@dataclass(frozen=True)
class MetricsRow:
    epoch: int
    split: str
    loss: float
    metric: float
    wall_ms: float
    eta_mean: float
    eta_min: float
    eta_max: float


CSV_HEADER = "epoch,split,loss,metric,wall_ms,eta_mean,eta_min,eta_max"


def run_experiment(config: TrainConfig):
    """Train per the config, stream the metrics CSV, print a summary line.

    `out_csv` is opened before the first epoch, so an unwritable path fails
    first; each epoch's rows are appended once both splits are evaluated, so
    a run that stops for any reason keeps its completed epochs' rows.
    Returns (rows, csv_path).
    """
    train_ds, test_ds = load_datasets(config)
    state = build_state(config, train_ds)
    rows: list[MetricsRow] = []
    with open(config.out_csv, "w", encoding="utf-8", newline="\n") as f:
        f.write(CSV_HEADER + "\n")
        for _ in range(config.epochs):
            t0 = time.perf_counter()
            state, stats = train_epoch(state, train_ds, config.train_batch)
            wall_ms = (time.perf_counter() - t0) * 1000.0
            scores = [evaluate(state.net, ds, config.eval_batch) for ds in (train_ds, test_ds)]
            for split, (loss, metric) in zip(("train", "test"), scores):
                r = MetricsRow(
                    epoch=state.epoch,
                    split=split,
                    loss=loss,
                    metric=metric,
                    wall_ms=wall_ms,
                    eta_mean=stats["eta_mean"],
                    eta_min=stats["eta_min"],
                    eta_max=stats["eta_max"],
                )
                rows.append(r)
                f.write(
                    f"{r.epoch},{r.split},{r.loss:.10g},{r.metric:.10g},"
                    f"{r.wall_ms:.3f},{r.eta_mean:.10g},{r.eta_min:.10g},{r.eta_max:.10g}\n"
                )
            f.flush()  # a killed run keeps the epochs it completed
    final = rows[-1]
    metric_name = "acc" if state.net.loss_kind == SOFTMAX_CE else "mse"
    print(
        f"{config.optimizer} on {config.dataset}: epoch {final.epoch} "
        f"test loss {final.loss:.6g} {metric_name} {final.metric:.6g} -> {config.out_csv}"
    )
    return rows, config.out_csv


# each `samt matrix --vary` family: the config key it varies and that key's values
MATRIX_FAMILIES = {"ablation": ("ablation", ABLATION_ARMS), "projection": ("projection_style", PROJECTION_STYLES)}


def run_matrix(config: TrainConfig, vary: str, out_dir="."):
    """One invocation producing the full CSV matrix for the experiment
    family `vary` names in MATRIX_FAMILIES.  Returns {label: rows}."""
    out_dir = Path(out_dir)
    if vary not in MATRIX_FAMILIES:
        raise ConfigError(f"vary must be one of {', '.join(MATRIX_FAMILIES)}, got {vary!r}")
    key, values = MATRIX_FAMILIES[vary]
    configs = {
        value: replace(config, **{key: value, "out_csv": str(out_dir / f"metrics_{vary}_{value}.csv")})
        for value in values
    }
    for cfg in configs.values():
        validate_config(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    return {value: run_experiment(cfg)[0] for value, cfg in configs.items()}


# ---------------------------------------------------------------------------
# Theory suite
# ---------------------------------------------------------------------------

THEORY_SUITES = ("contractivity", "recursion", "all")


def run_theory_suite(suite: str = "all", out_dir=".", seed: int = 0, inject_bug: bool = False) -> int:
    """Run the inequality suites; write reports; return a process exit code.

    Returns 0 when every asserted inequality holds, 2 otherwise.  An
    unknown suite or a negative seed raises ValueError before anything
    is written.
    """
    if suite not in THEORY_SUITES:
        raise ValueError(f"suite must be one of {', '.join(THEORY_SUITES)}, got {suite!r}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ok = True
    lines = []

    if suite in ("contractivity", "all"):
        rng = make_rng(seed)
        n_problems = 100
        for p in range(n_problems):
            dims = tuple(int(rng.integers(2, 9)) for _ in range(int(rng.integers(2, 4))))
            if sum(dims) > 16:
                dims = dims[:2]
            problem = theory.random_problem(seed=(seed, p), dims=dims, coupling=0.15)
            for d in range(problem.num_blocks):
                eta = 2.0 / (problem.mus[d] + problem.lambdas[d])
                if inject_bug:
                    eta *= 1.25
                report = theory.contractivity_check(problem, d, eta, trials=100, rng=rng)
                ok &= report.ok
                if not report.ok or p < 3:
                    lines.append(f"problem {p} " + report.summary())
        lines.append(f"contractivity: {n_problems} problems checked, ok={ok}")

    if suite in ("recursion", "all"):
        problem = theory.isotropic_problem(seed=seed, dims=(6, 6), coupling=0.1, noise_sd=0.05)
        eta = 0.1 if not inject_bug else 1.0 / (problem.gamma * (problem.num_blocks - 1)) * 1.5
        try:
            report = theory.recursion_check(problem, eta, mc_runs=30, steps=500, seed=seed)
        except ValueError as e:
            lines.append(f"recursion: precondition violated: {e}")
            ok = False
            report = None
        if report is not None:
            ok &= report.ok
            lines.append("recursion: " + report.summary())
            with open(out_dir / "recursion_report.csv", "w", encoding="utf-8", newline="\n") as f:
                f.write("t,mean_err,bound_rhs,slack\n")
                for t, mean_err, rhs, slack in report.rows:
                    f.write(f"{t},{mean_err:.10g},{rhs:.10g},{slack:.10g}\n")

        noise_free = theory.isotropic_problem(seed=seed, dims=(6, 6), coupling=0.1, noise_sd=0.0)
        det = theory.recursion_check(noise_free, 0.1, steps=300, seed=seed)
        ok &= det.ok
        lines.append("recursion (deterministic): " + det.summary())

        factor, hi, lo = theory.plateau_halving_factor(
            problem, eta=theory.plateau_quartering_step(problem), mc_runs=30, steps=500, seed=seed
        )
        lines.append(
            f"plateau halving: factor={factor:.3f} (plateau {hi:.3e} -> {lo:.3e}), expect [2.5, 6]"
        )
        ok &= 2.5 <= factor <= 6.0

    text = "\n".join(lines) + "\n"
    (out_dir / "theory_report.txt").write_text(text, encoding="utf-8")
    print(text, end="")
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# Finite-difference checks shared by the CLI and the acceptance tests
# ---------------------------------------------------------------------------

FD_STEP = 1e-5  # central-difference step


def _fd_worst(analytic: Matrix, w: Matrix, loss) -> float:
    """Worst relative error between `analytic` and central differences of
    `loss()`, which reads `w`, over every entry of `w`.  Each entry is bumped
    in place and restored bitwise, also when `loss` raises, so `w` must be writable."""
    worst = 0.0
    for ij in np.ndindex(w.shape):
        entry = w[ij]
        try:
            w[ij] = entry + FD_STEP
            up = loss()
            w[ij] = entry - FD_STEP
            down = loss()
        finally:
            w[ij] = entry
        numeric = (up - down) / (2 * FD_STEP)
        exact = float(analytic[ij])
        worst = max(worst, abs(exact - numeric) / (1.0 + abs(exact)))
    return worst


def fd_layer_gradients(net: NetworkModel, batch) -> float:
    """Worst relative error between backprop and central differences, bumping each layer weight."""
    block = tuple(range(net.num_layers))
    _, grads = block_loss_and_gradients(net, batch, block)
    return max(_fd_worst(grads[l], net.layer_weights[l], lambda: batch_loss(net, batch)) for l in block)


def fd_meta_gradients(psi, feats, block, grads, eta0, meta_batch, net, arm="full") -> float:
    """Worst relative error between the meta chain and central differences, bumping psi's weights."""
    meta = meta_gradients(psi, feats, block, grads, eta0, meta_batch, net, arm=arm)
    analytic = [u @ v.T for u, v in meta.psi_grads]  # before psi_forward below overwrites du3

    def meta_loss() -> float:
        beta, eta_hat, _, _ = psi_forward(psi, feats)
        value, _, _ = compose_step(arm, beta, eta0, eta_hat)
        return batch_loss(net.with_layers(candidate_weights(net, block, grads, value)), meta_batch)

    return max(_fd_worst(g, w, meta_loss) for g, w in zip(analytic, psi.weights))


def run_gradcheck(seed: int = 0) -> int:
    """Layer and meta gradient checks on small random nets; exit-code style."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = make_rng(seed)
    ok = True
    for loss_kind, trial in ((SOFTMAX_CE, 0), (MSE, 1)):
        widths = (5, 7, 4, 3)
        net = init_network(widths, rng, loss_kind=loss_kind)
        x = rng.standard_normal((widths[0], 3))
        y = rng.integers(0, widths[-1], 3) if loss_kind == SOFTMAX_CE else rng.standard_normal((widths[-1], 3))
        worst = fd_layer_gradients(net, (x, y))
        status = "pass" if worst <= 1e-6 else "FAIL"
        ok &= worst <= 1e-6
        print(f"gradcheck layers {loss_kind}: worst rel err {worst:.3e} [{status}]")

    for kind in StepSizeKind:
        net = init_network((4, 5, 3), rng, loss_kind=SOFTMAX_CE)
        block, shape = (1,), net.layer_weights[1].shape
        x = rng.standard_normal((4, 3))
        y = rng.integers(0, 3, 3)
        grads = block_loss_and_gradients(net, (x, y), block)[1]
        feats = grad_features(grads[1])
        psi = init_eta_model(kind, shape, rng, hidden=6)
        mx = rng.standard_normal((4, 3))
        my = rng.integers(0, 3, 3)
        worst = fd_meta_gradients(psi, feats, block, grads, 0.1, (mx, my), net)
        status = "pass" if worst <= 1e-5 else "FAIL"
        ok &= worst <= 1e-5
        print(f"gradcheck meta {kind.value}: worst rel err {worst:.3e} [{status}]")
    return 0 if ok else 2
