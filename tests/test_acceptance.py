"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one pass/fail
line per criterion.  The classification criteria use real MNIST IDX
files when the MNIST_DIR environment variable points at a directory
containing the standard four files; otherwise they run on the bundled
synthetic glyph corpus written to (and loaded back from) real IDX
files, at the same thresholds.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from samt.data import synth_classification, write_idx
from samt.etamodel import init_eta_model
from samt.harness import (
    TrainConfig,
    build_state,
    fd_layer_gradients,
    fd_meta_gradients,
    load_datasets,
    run_experiment,
    run_matrix,
)
from samt.model import MSE, SOFTMAX_CE, block_loss_and_gradients, init_network
from samt.numerics import make_rng
from samt.stepsize import StepSizeKind, grad_features
from samt.theory import (
    contractivity_check,
    isotropic_problem,
    plateau_halving_factor,
    plateau_quartering_step,
    random_problem,
    recursion_check,
)
from samt.trainer import train_epoch


def report(criterion: int, name: str, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion} ({name}): PASS - {detail}")


# ---------------------------------------------------------------------------
# Desk-scale classification data (shared by criteria 1, 5, 6)
# ---------------------------------------------------------------------------

MNIST_FILES = (
    "train-images-idx3-ubyte",
    "train-labels-idx1-ubyte",
    "t10k-images-idx3-ubyte",
    "t10k-labels-idx1-ubyte",
)


@pytest.fixture(scope="module")
def desk_data(tmp_path_factory):
    mnist_dir = os.environ.get("MNIST_DIR")
    if mnist_dir:
        paths = [Path(mnist_dir) / n for n in MNIST_FILES]
        if all(p.exists() for p in paths):
            return {"source": "MNIST", "paths": [str(p) for p in paths]}
    root = tmp_path_factory.mktemp("glyphs")
    images, labels = synth_classification(0, 12000)
    paths = [
        root / "train-images.idx",
        root / "train-labels.idx",
        root / "test-images.idx",
        root / "test-labels.idx",
    ]
    write_idx(paths[0], paths[1], images[:10000], labels[:10000])
    write_idx(paths[2], paths[3], images[10000:], labels[10000:])
    return {"source": "synthetic glyph corpus", "paths": [str(p) for p in paths]}


def desk_config(desk_data, tmp_path, optimizer, **kw):
    base = dict(
        dataset="idx",
        idx_train_images=desk_data["paths"][0],
        idx_train_labels=desk_data["paths"][1],
        idx_test_images=desk_data["paths"][2],
        idx_test_labels=desk_data["paths"][3],
        widths=(784, 100, 10),
        n_train=10000,
        n_test=2000,
        epochs=5,
        train_batch=64,
        eval_batch=1000,
        seed=0,
        optimizer=optimizer,
        out_csv=str(tmp_path / f"desk_{optimizer}_{kw.get('ablation', 'full')}.csv"),
    )
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def desk_runs(desk_data, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("desk_runs")
    t0 = time.perf_counter()
    rows = {}
    for opt in ("samt_s", "samt_e", "adam"):
        rows[opt] = run_experiment(desk_config(desk_data, tmp, opt))[0]
    elapsed = time.perf_counter() - t0
    return {"rows": rows, "elapsed": elapsed, "source": desk_data["source"]}


# ---------------------------------------------------------------------------
# Criterion 1: adaptive engine with the step model bypassed == plain SGD
# ---------------------------------------------------------------------------


def test_criterion_1_oracle_equivalence(desk_data):
    t0 = time.perf_counter()
    # 200 outer iterations on a 784-32-10 net: 6400 samples, batch 64,
    # 100 iterations per epoch, 2 epochs
    nets = {}
    for opt, extra in (("samt_s", {"psi_bypass": True}), ("sgd", {})):
        cfg = TrainConfig(
            dataset="idx",
            idx_train_images=desk_data["paths"][0],
            idx_train_labels=desk_data["paths"][1],
            idx_test_images=desk_data["paths"][2],
            idx_test_labels=desk_data["paths"][3],
            widths=(784, 32, 10),
            n_train=6400,
            n_test=64,
            epochs=2,
            train_batch=64,
            seed=0,
            optimizer=opt,
            **extra,
        )
        train_ds, _ = load_datasets(cfg)
        state = build_state(cfg, train_ds)
        for _ in range(cfg.epochs):
            state, _ = train_epoch(state, train_ds, cfg.train_batch)
        nets[opt] = state.net
    worst = max(
        float(np.max(np.abs(a - b)))
        for a, b in zip(nets["samt_s"].layer_weights, nets["sgd"].layer_weights)
    )
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    assert elapsed < 10.0
    report(1, "oracle equivalence", f"max |delta|={worst:.1e} over 200 iterations in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 2: analytic gradients vs central finite differences
# ---------------------------------------------------------------------------


def test_criterion_2_gradient_suite():
    t0 = time.perf_counter()
    worst_layer = 0.0
    rng = make_rng(2024)
    for loss_kind in (SOFTMAX_CE, MSE):
        for _ in range(3):
            widths = tuple(int(rng.integers(2, 9)) for _ in range(int(rng.integers(2, 5))))
            net = init_network(widths, rng, loss_kind=loss_kind)
            x = rng.standard_normal((widths[0], 4))
            y = (
                rng.integers(0, widths[-1], 4)
                if loss_kind == SOFTMAX_CE
                else rng.standard_normal((widths[-1], 4))
            )
            worst_layer = max(worst_layer, fd_layer_gradients(net, (x, y)))
    assert worst_layer <= 1e-6

    worst_meta = 0.0
    for ki, kind in enumerate(StepSizeKind):
        for seed in (0, 1):
            rng = make_rng((ki, seed))
            widths = (5, 6, 4)
            net = init_network(widths, rng)
            block = (1,)
            x = rng.standard_normal((5, 3))
            y = rng.integers(0, 4, 3)
            grads = block_loss_and_gradients(net, (x, y), block)[1]
            shape = net.layer_weights[1].shape
            feats = grad_features(grads[1])
            psi = init_eta_model(kind, shape, rng, hidden=8)
            eta0 = 0.1
            mx = rng.standard_normal((5, 3))
            my = rng.integers(0, 4, 3)
            worst_meta = max(
                worst_meta,
                fd_meta_gradients(psi, feats, block, grads, eta0, (mx, my), net),
            )
    elapsed = time.perf_counter() - t0
    assert worst_meta <= 1e-5
    assert elapsed < 60.0
    report(
        2,
        "gradient suite",
        f"layer rel err {worst_layer:.2e} (tol 1e-6), meta rel err {worst_meta:.2e} "
        f"(tol 1e-5) across 4 step kinds in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 3: contractivity on 100 random quadratics
# ---------------------------------------------------------------------------


def test_criterion_3_contractivity():
    t0 = time.perf_counter()
    rng = make_rng(1234)
    violations = 0
    checks = 0
    worst_slack = float("inf")
    for p in range(100):
        n_blocks = int(rng.integers(2, 4))
        dims = tuple(int(rng.integers(2, 9)) for _ in range(n_blocks))
        while sum(dims) > 16:
            dims = dims[:-1]
        problem = random_problem((77, p), dims=dims, coupling=0.15)
        for d in range(problem.num_blocks):
            eta = 2.0 / (problem.mus[d] + problem.lambdas[d])
            rep = contractivity_check(problem, d, eta, trials=100, rng=rng)
            violations += len(rep.violations)
            worst_slack = min(worst_slack, rep.worst_squared_slack, rep.worst_cross_slack)
            checks += 1
    elapsed = time.perf_counter() - t0
    assert violations == 0
    assert elapsed < 30.0
    report(
        3,
        "contractivity",
        f"100 problems / {checks} block checks / 100 points each, 0 violations, "
        f"min slack {worst_slack:.2e}, in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 4: stochastic error recursion and noise plateau scaling
# ---------------------------------------------------------------------------


def test_criterion_4_error_recursion():
    t0 = time.perf_counter()
    problem = isotropic_problem(seed=0, dims=(6, 6), coupling=0.1, noise_sd=0.05)
    big_l = problem.num_blocks
    assert problem.gamma < 2 * problem.xi / (3 * (big_l - 1))

    rep = recursion_check(problem, eta=0.1, mc_runs=30, steps=500, seed=5)
    assert rep.ok, f"violations at t={rep.violations[:5]}"

    eta = plateau_quartering_step(problem)
    factor, hi, lo = plateau_halving_factor(problem, eta=eta, mc_runs=30, steps=500, seed=7)
    elapsed = time.perf_counter() - t0
    assert 2.5 <= factor <= 6.0
    assert elapsed < 120.0
    report(
        4,
        "error recursion",
        f"per-step bound held at all 500 steps over 30 seeds (ratio {rep.ratio:.3f}); "
        f"halving eta={eta:.3f} shrank the plateau {factor:.2f}x (window [2.5, 6]) in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 5: logged step sizes stay inside (0,1); baseline arm is pinned
# ---------------------------------------------------------------------------


def test_criterion_5_step_boxing(desk_data, desk_runs, tmp_path):
    for opt in ("samt_s", "samt_e"):
        for r in desk_runs["rows"][opt]:
            assert 0.0 < r.eta_min <= r.eta_mean <= r.eta_max < 1.0
    rows, _ = run_experiment(desk_config(desk_data, tmp_path, "samt_s", ablation="baseline"))
    for r in rows:
        assert r.eta_mean == 0.1 and r.eta_min == 0.1 and r.eta_max == 0.1
    report(
        5,
        "step-size boxing",
        f"every logged step statistic in (0,1) over the {desk_runs['source']} desk runs; "
        "baseline arm pinned at 0.1 exactly",
    )


# ---------------------------------------------------------------------------
# Criterion 6: desk-scale classification
# ---------------------------------------------------------------------------


def test_criterion_6_desk_classification(desk_runs):
    final = {
        opt: [r for r in rows if r.split == "test"][-1].metric
        for opt, rows in desk_runs["rows"].items()
    }
    for opt, acc in final.items():
        assert acc >= 0.92, f"{opt} reached only {acc:.4f}"
    for opt in ("samt_s", "samt_e"):
        assert abs(final[opt] - final["adam"]) <= 0.015, (
            f"{opt}={final[opt]:.4f} vs adam={final['adam']:.4f}"
        )
    assert desk_runs["elapsed"] < 300.0
    report(
        6,
        "desk classification",
        f"{desk_runs['source']}: samt_s={final['samt_s']:.4f}, samt_e={final['samt_e']:.4f}, "
        f"adam={final['adam']:.4f} (all >= 0.92, within 1.5 points) in {desk_runs['elapsed']:.0f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 7: regression reaches the noise floor
# ---------------------------------------------------------------------------


def test_criterion_7_regression(tmp_path):
    t0 = time.perf_counter()
    cfg = TrainConfig(
        dataset="synthetic",
        widths=(10, 1),
        synth_d=10,
        synth_noise_sd=0.1,
        n_train=2000,
        n_test=1000,
        epochs=30,
        train_batch=64,
        optimizer="samt_e",
        seed=0,
        out_csv=str(tmp_path / "reg.csv"),
    )
    rows, _ = run_experiment(cfg)
    best_test_mse = min(r.metric for r in rows if r.split == "test")
    final_test_mse = [r for r in rows if r.split == "test"][-1].metric
    elapsed = time.perf_counter() - t0
    assert final_test_mse <= 1.2 * cfg.synth_noise_sd**2
    assert elapsed < 60.0
    report(
        7,
        "regression",
        f"samt_e test mse {final_test_mse:.5f} <= 1.2 x noise floor {cfg.synth_noise_sd**2:.3f} "
        f"within 30 epochs (best {best_test_mse:.5f}) in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 8: protocol matrices from one invocation; arms share all code
# but the step composition
# ---------------------------------------------------------------------------


def smoke_config(tmp_path, **kw):
    base = dict(
        dataset="synthetic_images",
        widths=(784, 16, 10),
        n_train=640,
        n_test=128,
        epochs=1,
        train_batch=64,
        optimizer="samt_e",
        seed=3,
        out_csv=str(tmp_path / "smoke.csv"),
    )
    base.update(kw)
    return TrainConfig(**base)


def test_criterion_8_protocol_matrices(tmp_path):
    ablation = run_matrix(smoke_config(tmp_path), "ablation", out_dir=tmp_path / "ablation")
    assert set(ablation) == {"full", "baseline", "left_only", "right_only"}
    projection = run_matrix(smoke_config(tmp_path), "projection", out_dir=tmp_path / "projection")
    assert set(projection) == {"tanh", "sigmoid"}
    for arm in ablation:
        assert (tmp_path / "ablation" / f"metrics_ablation_{arm}.csv").exists()
    for style in projection:
        assert (tmp_path / "projection" / f"metrics_projection_{style}.csv").exists()

    # instrumented smoke run: the arms see bitwise-identical batches and
    # step-model outputs; only the composed step differs
    traces = {}
    for arm in ("full", "baseline", "left_only", "right_only"):
        events = []
        cfg = smoke_config(tmp_path, ablation=arm)
        train_ds, _ = load_datasets(cfg)
        state = build_state(cfg, train_ds)
        train_epoch(state, train_ds, cfg.train_batch, trace=events.append)
        traces[arm] = events
    full = traces["full"]
    for arm, events in traces.items():
        assert len(events) == len(full)
        for e_arm, e_full in zip(events, full):
            assert float(e_arm.main_batch[0].sum()) == float(e_full.main_batch[0].sum())
            assert float(e_arm.meta_batch[0].sum()) == float(e_full.meta_batch[0].sum())
        assert np.array_equal(events[0].beta, full[0].beta)
        assert np.array_equal(events[0].eta_hat, full[0].eta_hat)
        assert events[0].loss == full[0].loss
    first_steps = {arm: traces[arm][0].step for arm in traces}
    assert (first_steps["baseline"] == 0.1).all()
    assert not np.array_equal(first_steps["full"], first_steps["right_only"])
    report(
        8,
        "protocol matrices",
        "ablation (4 arms) and projection (2 styles) CSV matrices from one invocation "
        "each; instrumented arms identical except the composed step",
    )
