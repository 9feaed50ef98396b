"""Configuration, experiment orchestration, and metrics emission.

Config files are UTF-8 ``key = value`` lines with ``#`` comments and
optional ``[section]`` headers (sections are cosmetic; keys are global).
Command-line overrides take precedence over file values.  Every run
writes one CSV row per epoch and split with the exact header
``epoch,split,loss,metric,wall_ms,eta_mean,eta_min,eta_max``.
"""

from __future__ import annotations

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
    meta_subset,
    synth_classification,
    synth_regression,
)
from .errors import ConfigError, DivergenceError
from .etamodel import init_eta_model, meta_gradients, psi_forward
from .model import (
    MSE,
    SOFTMAX_CE,
    NetworkModel,
    batch_loss,
    block_loss_and_gradients,
    init_network,
)
from .numerics import make_rng, spawn_rngs
from .optim import AdamEngine, HdEngine, OagdEngine, OagdState, SgdEngine
from .stepsize import (
    ABLATION_ARMS,
    ARM_RIGHT,
    PROJECTION_STYLES,
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
    projection_style: str = "tanh"
    ablation: str = "full"
    inner_steps: int = 1
    meta_lag: int = 0
    meta_learning_rate: float = 1e-3
    psi_hidden: int = 64
    psi_bypass: bool = False
    activation_slope: float = 0.01
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


def _parse_widths(s: str) -> tuple[int, ...]:
    try:
        widths = tuple(int(p) for p in s.split(",") if p.strip())
    except ValueError:
        raise ConfigError(f"widths must be comma-separated ints, got {s!r}") from None
    if len(widths) < 2:
        raise ConfigError(f"need at least two widths, got {s!r}")
    if min(widths) < 1:
        raise ConfigError(f"every width must be >= 1, got {s!r}")
    return widths


def _parse_grouping(s: str):
    s = s.strip()
    if not s or s.lower() == "none":
        return None
    try:
        return tuple(
            tuple(int(i) for i in part.split(",") if i.strip()) for part in s.split(";")
        )
    except ValueError:
        raise ConfigError(f"grouping must look like '0,1;2', got {s!r}") from None


def _enum(choices):
    def convert(s: str) -> str:
        if s not in choices:
            raise ConfigError(f"invalid value {s!r}; choices are {', '.join(choices)}")
        return s

    return convert


def _optional(convert):
    def inner(s: str):
        return None if s.strip().lower() in ("", "none") else convert(s)

    return inner


# Keys whose values are not plain int, float, bool or str; every other key
# is parsed by the type of its TrainConfig field.
_SPECIAL_CONVERTERS = {
    "dataset": _enum(DATASETS),
    "widths": _parse_widths,
    "optimizer": _enum(OPTIMIZERS),
    "projection_style": _enum(PROJECTION_STYLES),
    "ablation": _enum(ABLATION_ARMS),
    "grouping": _parse_grouping,
}
_TYPE_CONVERTERS = {int: int, float: float, bool: _parse_bool, str: str}


def _converter(hint):
    # `X | None` parses "none" (or an empty value) to None
    args = [a for a in typing.get_args(hint) if a is not type(None)]
    if args:
        return _optional(_TYPE_CONVERTERS[args[0]])
    return _TYPE_CONVERTERS[hint]


_CONVERTERS = {
    key: _SPECIAL_CONVERTERS.get(key) or _converter(hint)
    for key, hint in typing.get_type_hints(TrainConfig).items()
}


def _read_config_file(path) -> dict[str, str]:
    pairs: dict[str, str] = {}
    text = Path(path).read_text(encoding="utf-8")
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

    `overrides` is an iterable of "key=value" strings (or a mapping);
    they win over file values.  Unknown keys and invalid enum values
    raise ConfigError.
    """
    pairs: dict[str, str] = {}
    if path is not None:
        pairs.update(_read_config_file(path))
    if isinstance(overrides, dict):
        pairs.update({k: str(v) for k, v in overrides.items()})
    else:
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


def validate_config(config: TrainConfig) -> None:
    if not 0.0 < config.eta0 < 1.0:
        raise ConfigError(f"eta0 must be in (0,1), got {config.eta0}")
    if config.train_batch < 1 or config.eval_batch < 1:
        raise ConfigError("batch sizes must be >= 1")
    if config.inner_steps < 1:
        raise ConfigError(f"inner_steps must be >= 1, got {config.inner_steps}")
    if config.meta_lag not in (0, 1):
        raise ConfigError(f"meta_lag must be 0 or 1, got {config.meta_lag}")
    if config.epochs < 1:
        raise ConfigError(f"epochs must be >= 1, got {config.epochs}")
    # written as `not x >= 0` so that NaN fails too
    for key in ("meta_learning_rate", "hd_hyper_rate", "synth_noise_sd", "img_noise_sd"):
        if not getattr(config, key) >= 0.0:
            raise ConfigError(f"{key} must be >= 0, got {getattr(config, key)}")
    if not config.adam_rate > 0.0:
        raise ConfigError(f"adam_rate must be > 0, got {config.adam_rate}")
    if config.psi_hidden < 1:
        raise ConfigError(f"psi_hidden must be >= 1, got {config.psi_hidden}")
    for key in ("n_train", "n_test"):
        value = getattr(config, key)
        if value is not None and value < 1:
            raise ConfigError(f"{key} must be >= 1, got {value}")
    if not 0.0 < config.csv_test_fraction < 1.0:
        raise ConfigError(f"csv_test_fraction must be in (0,1), got {config.csv_test_fraction}")
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
            raise ConfigError("non-scalar step sizes support single-layer blocks only")
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
        idx = np.arange(full.num_samples)
        return full.take(idx[:n_train]), full.take(idx[n_train:])
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
        d = config.img_side**2
        feats = images.reshape(-1, d).T / 255.0
        full = Dataset(feats.astype(np.float64), labels.astype(np.int64), CLASSIFICATION)
        idx = np.arange(full.num_samples)
        return full.take(idx[:n_train]), full.take(idx[n_train:])
    if config.dataset == "idx":
        train = load_idx(config.idx_train_images, config.idx_train_labels, limit=config.n_train)
        test = load_idx(config.idx_test_images, config.idx_test_labels, limit=config.n_test)
        return train, test
    # csv: split the tail off as the test set, standardize with train stats
    full = load_csv(config.csv_path, config.csv_target)
    n = full.num_samples
    n_test = max(1, int(n * config.csv_test_fraction))
    idx = np.arange(n)
    train, test = full.take(idx[: n - n_test]), full.take(idx[n - n_test :])
    if config.csv_standardize:
        train = train.standardized()
        test = test.standardized(train.normalization)
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
            f"first width {config.widths[0]} != feature dimension {train_ds.features.shape[0]}"
        )
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
            )
            step = StepSize.initial(kind, layer_shape, config.eta0)
            state = OagdState(step, psi, meta_lag=config.meta_lag, arm=config.ablation)
            engines.append(OagdEngine(state))
    meta_source = meta_subset(train_ds) if any(e.needs_meta_batch for e in engines) else None
    return TrainRunState(
        net=net,
        plan=plan,
        engines=engines,
        rng_main=main_rng,
        rng_meta=meta_rng,
        meta_source=meta_source,
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


def write_metrics_csv(path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(CSV_HEADER + "\n")
        for r in rows:
            f.write(
                f"{r.epoch},{r.split},{r.loss:.10g},{r.metric:.10g},"
                f"{r.wall_ms:.3f},{r.eta_mean:.10g},{r.eta_min:.10g},{r.eta_max:.10g}\n"
            )


def run_experiment(config: TrainConfig):
    """Train per the config, write the metrics CSV, print a summary line.

    Returns (rows, csv_path).  When a step diverges, the CSV gets the
    rows of the epochs completed before it and `DivergenceError` is
    re-raised.
    """
    train_ds, test_ds = load_datasets(config)
    state = build_state(config, train_ds)
    rows: list[MetricsRow] = []
    try:
        for _ in range(config.epochs):
            t0 = time.perf_counter()
            state, stats = train_epoch(state, train_ds, config.train_batch)
            wall_ms = (time.perf_counter() - t0) * 1000.0
            for split, ds in (("train", train_ds), ("test", test_ds)):
                loss, metric = evaluate(state.net, ds, config.eval_batch)
                rows.append(
                    MetricsRow(
                        epoch=state.epoch,
                        split=split,
                        loss=loss,
                        metric=metric,
                        wall_ms=wall_ms,
                        eta_mean=stats["eta_mean"],
                        eta_min=stats["eta_min"],
                        eta_max=stats["eta_max"],
                    )
                )
    except DivergenceError:
        write_metrics_csv(config.out_csv, rows)
        raise
    write_metrics_csv(config.out_csv, rows)
    final = rows[-1]
    metric_name = "acc" if train_ds.kind == CLASSIFICATION else "mse"
    print(
        f"{config.optimizer} on {config.dataset}: epoch {final.epoch} "
        f"test loss {final.loss:.6g} {metric_name} {final.metric:.6g} -> {config.out_csv}"
    )
    return rows, config.out_csv


def run_matrix(config: TrainConfig, vary: str, out_dir="."):
    """One invocation producing the full CSV matrix for an experiment family.

    vary="ablation" runs the four step-composition arms; vary="projection"
    runs both unit-interval projections.  Returns {label: rows}.
    """
    out_dir = Path(out_dir)
    if vary == "ablation":
        variants = [("ablation", arm) for arm in ABLATION_ARMS]
    elif vary == "projection":
        variants = [("projection_style", style) for style in PROJECTION_STYLES]
    else:
        raise ConfigError(f"vary must be 'ablation' or 'projection', got {vary!r}")
    configs = {
        value: replace(config, **{key: value, "out_csv": str(out_dir / f"metrics_{vary}_{value}.csv")})
        for key, value in variants
    }
    for cfg in configs.values():
        validate_config(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    return {value: run_experiment(cfg)[0] for value, cfg in configs.items()}


# ---------------------------------------------------------------------------
# Theory suite
# ---------------------------------------------------------------------------


def run_theory_suite(suite: str = "all", out_dir=".", seed: int = 0, inject_bug: bool = False) -> int:
    """Run the inequality suites; write reports; return a process exit code.

    Returns 0 when every asserted inequality holds, 2 otherwise.
    """
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


def _rel_err(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / (1.0 + abs(analytic))


def fd_layer_gradients(net: NetworkModel, batch, h: float = 1e-5) -> float:
    """Worst relative error between backprop and central differences."""
    worst = 0.0
    block = tuple(range(net.num_layers))
    _, grads = block_loss_and_gradients(net, batch, block)
    for l in block:
        w = net.layer_weights[l]
        for i in range(w.shape[0]):
            for j in range(w.shape[1]):
                bumped = w.copy()
                bumped[i, j] = w[i, j] + h
                up = batch_loss(net.with_layers({l: bumped}), batch)
                bumped[i, j] = w[i, j] - h
                down = batch_loss(net.with_layers({l: bumped}), batch)
                numeric = (up - down) / (2 * h)
                worst = max(worst, _rel_err(float(grads[l][i, j]), numeric))
    return worst


def fd_meta_gradients(psi, feats, block, weights, grads, eta0, meta_batch, net, arm="full", h: float = 1e-5) -> float:
    """Worst relative error between the meta chain and central differences."""
    meta = meta_gradients(psi, feats, block, weights, grads, eta0, meta_batch, net, arm=arm)

    def meta_loss_with(psi_variant) -> float:
        beta, eta_hat, _ = psi_forward(psi_variant, feats)
        value, _, _ = compose_step(arm, beta, eta0, eta_hat)
        return batch_loss(net.with_layers(candidate_weights(block, weights, grads, value)), meta_batch)

    worst = 0.0
    for name, (u, v) in zip(("w1", "w2", "w3"), meta.psi_grads):
        analytic = u @ v.T
        w = getattr(psi, name)
        for i in range(w.shape[0]):
            for j in range(w.shape[1]):
                bumped = w.copy()
                bumped[i, j] = w[i, j] + h
                up = meta_loss_with(replace(psi, **{name: bumped}))
                bumped[i, j] = w[i, j] - h
                down = meta_loss_with(replace(psi, **{name: bumped}))
                numeric = (up - down) / (2 * h)
                worst = max(worst, _rel_err(float(analytic[i, j]), numeric))
    return worst


def run_gradcheck(seed: int = 0) -> int:
    """Layer and meta gradient checks on small random nets; exit-code style."""
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
        block = (1,)
        weights = [net.layer_weights[1]]
        x = rng.standard_normal((4, 3))
        y = rng.integers(0, 3, 3)
        grads = [block_loss_and_gradients(net, (x, y), block)[1][1]]
        feats = grad_features(grads[0])
        psi = init_eta_model(kind, weights[0].shape, rng, hidden=6)
        eta0 = StepSize.initial(kind, weights[0].shape, 0.1).init_values
        mx = rng.standard_normal((4, 3))
        my = rng.integers(0, 3, 3)
        worst = fd_meta_gradients(psi, feats, block, weights, grads, eta0, (mx, my), net)
        status = "pass" if worst <= 1e-5 else "FAIL"
        ok &= worst <= 1e-5
        print(f"gradcheck meta {kind.value}: worst rel err {worst:.3e} [{status}]")
    return 0 if ok else 2
