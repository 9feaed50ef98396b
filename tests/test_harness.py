import dataclasses
import os
import subprocess
import sys
import types
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest

from samt.cli import main as cli_main
from samt.data import CLASSIFICATION, Dataset, load_csv, synth_classification, synth_regression, write_idx
from samt import harness
from samt.errors import ConfigError, DivergenceError
from samt.etamodel import PSI_PENDING, EtaModel, init_eta_model, meta_gradients, psi_step
from samt.optim import OagdEngine, SgdEngine
from samt.trainer import train_epoch
from samt.model import block_loss_and_gradients, init_network
from samt.numerics import make_rng
from samt.stepsize import StepSizeKind, grad_features
from samt.harness import (
    CSV_HEADER,
    TrainConfig,
    build_state,
    load_datasets,
    parse_config,
    run_experiment,
    run_matrix,
    run_theory_suite,
)

SRC = Path(harness.__file__).resolve().parents[1]


class TestParseConfig:
    def test_minimal_file_gets_defaults(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("optimizer = samt_s\nepochs = 1\ndataset = synthetic\n", encoding="utf-8")
        cfg = parse_config(p)
        assert cfg.optimizer == "samt_s"
        assert cfg.epochs == 1
        assert cfg.eta0 == 0.1
        assert cfg.projection_style == "tanh"
        assert cfg.inner_steps == 1
        assert cfg.seed == 0

    def test_unknown_key_named(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("optimizzer = sgd\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="optimizzer"):
            parse_config(p)

    def test_invalid_enum_lists_choices(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("optimizer = adamm\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="sgd, adam, hd"):
            parse_config(p)

    def test_override_beats_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("seed = 3\noptimizer = sgd\n", encoding="utf-8")
        cfg = parse_config(p, ["--seed=7"])
        assert cfg.seed == 7 and cfg.optimizer == "sgd"

    def test_sections_and_comments_ignored(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(
            "# top comment\n[data]\ndataset = synthetic\n[train]\nepochs = 2  # trailing\n",
            encoding="utf-8",
        )
        cfg = parse_config(p)
        assert cfg.dataset == "synthetic" and cfg.epochs == 2

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # a BOM is legal UTF-8; it read as part of the first key
        p = tmp_path / "run.cfg"
        p.write_bytes(b"\xef\xbb\xbfdataset = synthetic\nseed = 3\n")
        cfg = parse_config(p)
        assert cfg.dataset == "synthetic" and cfg.seed == 3

    def test_file_line_without_equals_names_file_and_line(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("seed = 3\noptimizer sgd\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="expected 'key = value'") as info:
            parse_config(p)
        assert str(info.value).startswith(f"{p}:2: ")

    def test_grouping_syntax(self):
        cfg = parse_config(overrides=["grouping=0,1;2", "widths=4,3,3,2"])
        assert cfg.grouping == ((0, 1), (2,))

    def test_nonscalar_with_grouped_block_rejected(self):
        with pytest.raises(ConfigError, match="single-layer"):
            parse_config(overrides=["optimizer=samt_e", "grouping=0,1", "widths=4,3,2"])

    def test_idx_requires_paths(self):
        with pytest.raises(ConfigError, match="idx_train_images"):
            parse_config(overrides=["dataset=idx"])

    def test_every_default_parses_back_from_its_text(self):
        def text(value):
            if isinstance(value, tuple):
                return ",".join(map(str, value))
            return "none" if value is None else str(value)

        defaults = TrainConfig()
        pairs = {f.name: text(getattr(defaults, f.name)) for f in dataclasses.fields(TrainConfig)}
        assert len(pairs) == 36
        assert parse_config(overrides=[f"{k}={v}" for k, v in pairs.items()]) == defaults

    @pytest.mark.parametrize(
        "bad",
        [
            {"optimizer": "bogus"},
            {"projection_style": "relu"},
            {"ablation": "nope"},
            {"dataset": "x"},
            {"widths": (10,)},
            {"widths": (10, 0, 1)},
            {"activation_slope": 1.5},
        ],
    )
    def test_config_built_in_code_is_validated_like_text(self, bad):
        # perfbench, the fingerprint and run_matrix build TrainConfigs without the parser
        (key,) = bad
        with pytest.raises(ConfigError, match=key):
            harness.validate_config(dataclasses.replace(TrainConfig(), **bad))

    @pytest.mark.parametrize(
        "key",
        [
            name
            for name, hint in typing.get_type_hints(TrainConfig).items()
            if isinstance(hint, types.UnionType) and type(None) in typing.get_args(hint)
        ],
    )
    def test_optional_key_parses_none(self, key):
        assert getattr(parse_config(overrides=[f"{key}=none"]), key) is None


def quick_config(**kw):
    base = dict(
        dataset="synthetic",
        widths=(6, 1),
        synth_d=6,
        n_train=64,
        n_test=32,
        epochs=2,
        train_batch=16,
        eval_batch=32,
        optimizer="samt_s",
        seed=1,
    )
    base.update(kw)
    return TrainConfig(**base)


class TestLoadDatasets:
    def test_csv_splits_standardized_with_train_statistics(self, tmp_path):
        rng = make_rng(5)
        table = rng.normal(3.0, 2.0, (10, 4))
        table[:, 2] = 7.0  # a constant column meets the variance floor
        p = tmp_path / "d.csv"
        p.write_text("a,b,c,y\n" + "".join(",".join(repr(float(v)) for v in r) + "\n" for r in table))
        cfg = TrainConfig(dataset="csv", csv_path=str(p), csv_target="y", csv_test_fraction=0.2)
        train, test = load_datasets(cfg)

        raw = load_csv(p, "y").features
        x_train, x_test = raw[:, np.arange(8)], raw[:, np.arange(8, 10)]
        mean = x_train.mean(axis=1)
        scale = np.sqrt(np.maximum(x_train.var(axis=1), 1e-12))
        assert train.features.tobytes() == ((x_train - mean[:, None]) / scale[:, None]).tobytes()
        assert test.features.tobytes() == ((x_test - mean[:, None]) / scale[:, None]).tobytes()


    @pytest.mark.parametrize("dataset", ["synthetic", "synthetic_images", "csv"])
    def test_splits_are_views_equal_to_index_copies(self, dataset, tmp_path):
        p = tmp_path / "d.csv"
        table = make_rng(6).normal(0.0, 1.0, (20, 3))
        p.write_text("a,b,y\n" + "".join(",".join(repr(float(v)) for v in r) + "\n" for r in table))
        cfg = TrainConfig(
            dataset=dataset, seed=3, n_train=15, n_test=5, synth_d=3, img_side=4, img_classes=3,
            csv_path=str(p), csv_target="y", csv_standardize=False, csv_test_fraction=0.25,
        )
        if dataset == "synthetic":
            full = synth_regression(3, 20, 3, cfg.synth_noise_sd)[0]
        elif dataset == "synthetic_images":
            images, labels = synth_classification(3, 20, side=4, num_classes=3, noise_sd=cfg.img_noise_sd)
            full = Dataset((images.reshape(-1, 16).T / 255.0).astype(np.float64), labels.astype(np.int64),
                           CLASSIFICATION)
        else:
            full = load_csv(p, "y")
        train, test = load_datasets(cfg)
        idx = np.arange(20)
        for split, rows in ((train, idx[:15]), (test, idx[15:])):
            copy = full.take(rows)
            for got, want in ((split.features, copy.features), (split.targets, copy.targets)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
        assert train.features.base is test.features.base is not None
        assert train.targets.base is test.targets.base is not None


class TestBuildState:
    def test_bypassed_samt_is_sgd_at_eta0_and_builds_no_psi(self, monkeypatch):
        base = quick_config(widths=(6, 5, 4, 1), eta0=0.05)
        train, _ = load_datasets(base)

        def trained(config):
            state = build_state(config, train)
            for _ in range(config.epochs):
                state, _ = train_epoch(state, train, config.train_batch)
            return state

        def no_psi(self):
            raise AssertionError("a bypassed run built an EtaModel")

        grouped = ((0, 1), (2,))
        sgd = {
            g: trained(dataclasses.replace(base, optimizer="sgd", grouping=g)).net
            for g in (None, grouped)
        }
        monkeypatch.setattr(EtaModel, "__post_init__", no_psi)
        variants = [
            dict(optimizer=optimizer, ablation=arm, meta_lag=lag)
            for optimizer in ("samt_s", "samt_e", "samt_r", "samt_c")
            for arm in ("full", "baseline", "left_only")
            for lag in (0, 1)
        ] + [dict(optimizer="samt_s", grouping=grouped)]
        for variant in variants:
            state = trained(dataclasses.replace(base, psi_bypass=True, **variant))
            assert all(type(e) is SgdEngine and e.eta == base.eta0 for e in state.engines), variant
            want = sgd[variant.get("grouping")].layer_weights
            assert [w.tobytes() for w in state.net.layer_weights] == [w.tobytes() for w in want], variant

    @pytest.mark.parametrize(
        "variant",
        [dict(optimizer=o) for o in ("samt_s", "samt_e", "samt_r", "samt_c")]
        + [
            dict(optimizer="samt_e", meta_lag=1),
            dict(optimizer="samt_r", inner_steps=2),
            dict(optimizer="samt_c", projection_style="sigmoid"),
            dict(optimizer="samt_s", grouping=((0, 1),)),
        ],
    )
    def test_baseline_arm_consults_psi_and_trains_like_sgd(self, variant):
        # baseline steps at eta0 exactly, so the adaptive engine must reproduce sgd bit for bit
        base = TrainConfig(
            dataset="synthetic_images", img_side=8, img_classes=4, n_train=256, n_test=32,
            widths=(64, 16, 4), epochs=2, train_batch=32, seed=3,
        )
        train, _ = load_datasets(base)

        def trained(config):
            state = build_state(config, train)
            for _ in range(config.epochs):
                state, _ = train_epoch(state, train, config.train_batch)
            return state

        want = trained(dataclasses.replace(base, **{**variant, "optimizer": "sgd"}))
        weights = {}
        for arm in ("baseline", "full"):
            state = trained(dataclasses.replace(base, ablation=arm, **variant))
            assert all(type(e) is OagdEngine for e in state.engines)
            weights[arm] = [w.tobytes() for w in state.net.layer_weights]
        assert weights["baseline"] == [w.tobytes() for w in want.net.layer_weights]
        assert weights["full"] != weights["baseline"]


class TestRunExperiment:
    def test_row_count_and_header(self, tmp_path):
        cfg = quick_config(optimizer="sgd", out_csv=str(tmp_path / "m.csv"))
        rows, path = run_experiment(cfg)
        assert len(rows) == 2 * 2  # train + test per epoch
        lines = (tmp_path / "m.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 5

    def test_deterministic_given_seed_except_wall_ms(self, tmp_path):
        a = run_experiment(quick_config(out_csv=str(tmp_path / "a.csv")))[0]
        b = run_experiment(quick_config(out_csv=str(tmp_path / "b.csv")))[0]
        for ra, rb in zip(a, b):
            assert (ra.epoch, ra.split, ra.loss, ra.metric) == (rb.epoch, rb.split, rb.loss, rb.metric)
            assert (ra.eta_mean, ra.eta_min, ra.eta_max) == (rb.eta_mean, rb.eta_min, rb.eta_max)

    def test_baseline_arm_pins_eta_stats(self, tmp_path):
        cfg = quick_config(ablation="baseline", out_csv=str(tmp_path / "m.csv"))
        rows, _ = run_experiment(cfg)
        for r in rows:
            assert r.eta_mean == 0.1 and r.eta_min == 0.1 and r.eta_max == 0.1

    def test_samt_eta_stats_stay_open(self, tmp_path):
        cfg = quick_config(optimizer="samt_e", widths=(6, 1), out_csv=str(tmp_path / "m.csv"))
        rows, _ = run_experiment(cfg)
        for r in rows:
            assert 0.0 < r.eta_min <= r.eta_mean <= r.eta_max < 1.0

    @pytest.mark.parametrize("optimizer", ["sgd", "adam", "hd", "samt_s", "samt_e", "samt_r", "samt_c"])
    def test_every_optimizer_runs(self, optimizer, tmp_path):
        cfg = quick_config(optimizer=optimizer, epochs=1, out_csv=str(tmp_path / "m.csv"))
        rows, _ = run_experiment(cfg)
        assert all(np.isfinite([r.loss, r.metric]).all() for r in rows)

    def test_width_mismatch_rejected(self, tmp_path):
        cfg = quick_config(widths=(5, 1))
        with pytest.raises(ConfigError, match="feature dimension"):
            run_experiment(cfg)

    def test_divergence_keeps_completed_epochs(self, tmp_path, monkeypatch):
        real_train_epoch = harness.train_epoch

        def diverge_in_epoch_two(state, *args):
            if state.epoch == 1:
                raise DivergenceError(2, 1, (0,), "OagdEngine", "loss is nan")
            return real_train_epoch(state, *args)

        monkeypatch.setattr(harness, "train_epoch", diverge_in_epoch_two)
        path = tmp_path / "m.csv"
        with pytest.raises(DivergenceError, match="epoch 2"):
            run_experiment(quick_config(epochs=3, out_csv=str(path)))
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert [line.split(",")[:2] for line in lines[1:]] == [["1", "train"], ["1", "test"]]

    @pytest.mark.parametrize("stop", [ValueError("boom"), KeyboardInterrupt()])
    @pytest.mark.parametrize("k", [1, 3])
    def test_any_stop_at_epoch_k_keeps_the_completed_epochs(self, stop, k, tmp_path, monkeypatch):
        def columns_but_wall_ms(path):
            return [line.split(",")[:4] + line.split(",")[5:] for line in path.read_text().splitlines()]

        whole = tmp_path / "whole.csv"
        run_experiment(quick_config(optimizer="sgd", epochs=4, out_csv=str(whole)))
        real_train_epoch = harness.train_epoch

        def stop_in_epoch_k(state, *args):
            if state.epoch == k - 1:
                raise stop
            return real_train_epoch(state, *args)

        monkeypatch.setattr(harness, "train_epoch", stop_in_epoch_k)
        path = tmp_path / "m.csv"
        with pytest.raises(type(stop)):
            run_experiment(quick_config(optimizer="sgd", epochs=4, out_csv=str(path)))
        assert columns_but_wall_ms(path) == columns_but_wall_ms(whole)[: 1 + 2 * (k - 1)]


class TestRunMatrix:
    def test_ablation_matrix_from_one_invocation(self, tmp_path):
        cfg = quick_config()
        results = run_matrix(cfg, "ablation", out_dir=tmp_path)
        assert set(results) == {"full", "baseline", "left_only", "right_only"}
        for arm in results:
            assert (tmp_path / f"metrics_ablation_{arm}.csv").exists()

    def test_projection_matrix(self, tmp_path):
        cfg = quick_config()
        results = run_matrix(cfg, "projection", out_dir=tmp_path)
        assert set(results) == {"tanh", "sigmoid"}

    def test_unknown_family_raises_before_writing(self, tmp_path):
        with pytest.raises(ConfigError, match="vary must be one of ablation, projection, got 'bogus'"):
            run_matrix(quick_config(), "bogus", out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_arms_share_everything_but_composition(self, tmp_path):
        # instrumented smoke run: identical batch streams and identical
        # step-model outputs at the first step; only the composed step differs
        traces = {}
        for arm in ("full", "baseline", "left_only", "right_only"):
            events = []
            cfg = quick_config(ablation=arm, epochs=1, out_csv=str(tmp_path / f"{arm}.csv"))
            train_ds, _ = load_datasets(cfg)
            state = build_state(cfg, train_ds)
            from samt.trainer import train_epoch

            train_epoch(state, train_ds, cfg.train_batch, trace=events.append)
            traces[arm] = events
            assert all(engine.state.arm == arm for engine in state.engines)
        lengths = {len(v) for v in traces.values()}
        assert len(lengths) == 1
        full = traces["full"]
        for arm, events in traces.items():
            for e_full, e_arm in zip(full, events):
                assert float(e_arm.main_batch[0].sum()) == float(e_full.main_batch[0].sum())
                assert float(e_arm.meta_batch[0].sum()) == float(e_full.meta_batch[0].sum())
            # before any divergence the model outputs are bitwise equal
            first = events[0]
            assert np.array_equal(first.beta, full[0].beta)
            assert np.array_equal(first.eta_hat, full[0].eta_hat)
            assert first.loss == full[0].loss
        steps = {arm: traces[arm][0].step[0, 0] for arm in traces}
        assert steps["baseline"] == 0.1
        assert len({round(v, 15) for v in steps.values()}) >= 3


class TestCli:
    def test_train_exit_zero(self, tmp_path, capsys):
        code = cli_main(
            [
                "train",
                "dataset=synthetic",
                "widths=6,1",
                "synth_d=6",
                "n_train=32",
                "n_test=16",
                "epochs=1",
                "train_batch=8",
                "optimizer=sgd",
                f"out_csv={tmp_path / 'm.csv'}",
            ]
        )
        assert code == 0
        assert "sgd on synthetic" in capsys.readouterr().out

    def test_bad_key_exit_one(self, capsys):
        assert cli_main(["train", "bogus=1"]) == 1
        assert "bogus" in capsys.readouterr().err

    def test_dashed_override_accepted(self, tmp_path):
        code = cli_main(
            [
                "train",
                "--config=/dev/null",
                "dataset=synthetic",
                "widths=6,1",
                "synth_d=6",
                "n_train=32",
                "n_test=16",
                "epochs=1",
                "train_batch=8",
                "optimizer=sgd",
                "--seed=5",
                f"out_csv={tmp_path / 'm.csv'}",
            ]
        )
        assert code == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "args,engine",
        [
            (["widths=10,50,1", "optimizer=sgd", "sgd_rate=5"], "SgdEngine"),
            # a bypassed samt run is plain SGD at eta0
            (["widths=10,50,1", "optimizer=samt_s", "psi_bypass=true", "eta0=0.9"], "SgdEngine"),
            (["widths=10,32,32,1", "optimizer=samt_e", "seed=0"], "OagdEngine"),
            # the gradient's statistics overflow while the loss is still finite
            (["widths=10,32,32,1", "optimizer=samt_r"], "OagdEngine"),
            (["widths=10,32,32,1", "optimizer=samt_e", "seed=1"], "OagdEngine"),
        ],
    )
    def test_diverging_run_exits_three_without_nan_rows(self, args, engine, tmp_path, capsys):
        path = tmp_path / "m.csv"
        code = cli_main(["train", "dataset=synthetic", *args, "epochs=2", f"out_csv={path}"])
        assert code == 3
        err = capsys.readouterr().err
        assert "diverged at epoch 1" in err and engine in err and "(step min " in err
        text = path.read_text()
        assert text.startswith(CSV_HEADER) and "nan" not in text.lower()

    def test_an_overflow_left_by_the_last_step_exits_three(self, tmp_path, capsys):
        # each step's loss checks the updates before it, so only the epoch's last update needs its own check
        path = tmp_path / "m.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = cli_main(
                ["train", "dataset=synthetic", "optimizer=hd", "eta0=0.8125", "activation_slope=0.00390625",
                 "hd_hyper_rate=0.1", "inner_steps=2", "epochs=1", "seed=6048", "n_train=19", "n_test=7",
                 "train_batch=11", "synth_d=4", "synth_noise_sd=0", "widths=4,6,4,1", f"out_csv={path}"]
            )
        assert path.read_text() == CSV_HEADER + "\n"  # no inf rows
        err = capsys.readouterr().err
        assert code == 3 and "diverged at epoch 1, iteration 2, block (2,), engine HdEngine" in err

    @pytest.mark.parametrize(
        "args,key",
        [
            (["optimizer=samt_e", "eta0=nan"], "eta0"),
            (["optimizer=samt_e", "activation_slope=nan"], "activation_slope"),
            (["optimizer=samt_e", "meta_learning_rate=nan"], "meta_learning_rate"),
            (["optimizer=samt_e", "meta_learning_rate=-1"], "meta_learning_rate"),
            (["optimizer=adam", "adam_rate=nan"], "adam_rate"),
            (["optimizer=adam", "adam_rate=0"], "adam_rate"),
            (["optimizer=hd", "hd_hyper_rate=nan"], "hd_hyper_rate"),
            (["optimizer=hd", "hd_hyper_rate=-1"], "hd_hyper_rate"),
            (["optimizer=samt_e", "psi_hidden=0"], "psi_hidden"),
            (["optimizer=sgd", "n_train=0"], "n_train"),
            (["optimizer=sgd", "n_train=-5", "n_test=20"], "n_train"),
            (["optimizer=sgd", "n_test=0"], "n_test"),
            (["optimizer=sgd", "csv_test_fraction=1.5"], "csv_test_fraction"),
            (["optimizer=sgd", "csv_test_fraction=-0.5"], "csv_test_fraction"),
            (["optimizer=sgd", "csv_test_fraction=nan"], "csv_test_fraction"),
            (["optimizer=sgd", "csv_test_fraction=0"], "csv_test_fraction"),
            (["optimizer=sgd", "csv_test_fraction=1"], "csv_test_fraction"),
            (["optimizer=samt_s", "psi_bypass=true", "ablation=right_only"], "psi_bypass"),
            (["optimizer=sgd", "synth_noise_sd=nan"], "synth_noise_sd"),
            (["optimizer=sgd", "synth_noise_sd=-1"], "synth_noise_sd"),
            (["optimizer=sgd", "img_noise_sd=nan"], "img_noise_sd"),
            (["optimizer=sgd", "widths=10,0,1"], "widths"),
            (["optimizer=sgd", "n_train=64", "train_batch=100"], "train_batch"),
            (["optimizer=sgd", "widths=10,2"], "widths"),
            (["optimizer=sgd", "dataset=synthetic_images", "img_side=8", "widths=64,16,5"], "widths"),
            (["optimizer=sgd", "sgd_rate=nan"], "sgd_rate"),
            (["optimizer=sgd", "sgd_rate=-1"], "sgd_rate"),
            (["optimizer=sgd", "sgd_rate=inf"], "sgd_rate"),
            (["optimizer=adam", "adam_rate=inf"], "adam_rate"),
            (["optimizer=hd", "hd_hyper_rate=inf"], "hd_hyper_rate"),
            (["optimizer=samt_s", "meta_learning_rate=inf"], "meta_learning_rate"),
            (["optimizer=sgd", "synth_noise_sd=inf"], "synth_noise_sd"),
            (["optimizer=sgd", "img_noise_sd=inf"], "img_noise_sd"),
            (["optimizer=sgd", "synth_d=0"], "synth_d"),
            (["optimizer=sgd", "dataset=synthetic_images", "widths=784,10", "img_side=0"], "img_side"),
            (["optimizer=sgd", "dataset=synthetic_images", "widths=784,10", "img_classes=0"], "img_classes"),
            (["optimizer=sgd", "seed=-1"], "seed"),
            (["optimizer=sgd", "seed=abc"], "seed"),
            (["optimizer=sgd", "seed"], "seed"),  # an override without '='
            (["optimizer=samt_s", "psi_bypass=maybe"], "psi_bypass"),
            (["optimizer=sgd", "dataset=csv"], "csv_path"),
            (["optimizer=sgd", "train_batch=0"], "train_batch"),
            (["optimizer=sgd", "eval_batch=0"], "eval_batch"),
            (["optimizer=sgd", "widths=10,3,2,1", "grouping=0;0"], "grouping"),
            (["optimizer=sgd", "widths=10,3,1", "grouping=0"], "grouping"),
            (["optimizer=sgd", "dataset=synthetic_images", "widths=1,10", "img_side=1"], "img_side"),
            # a subnormal eta0's left-only step beta * eta0 rounds to 0
            (["optimizer=samt_s", "ablation=left_only", "eta0=5e-324"], "eta0"),
            (["optimizer=samt_e", "widths=10,3,1", "grouping=0,1"], "grouping"),
            (["optimizer=sgd", "widths=5,1"], "widths"),
            # a glyph noise sd near the float limit overflowed noise_sd * noise, at exit 0
            (["optimizer=sgd", "dataset=synthetic_images", "img_side=4", "widths=16,10", "n_train=20",
              "n_test=10", "train_batch=10", "img_noise_sd=1.7976931348623157e308"], "img_noise_sd"),
            (["optimizer=sgd", "img_noise_sd=1e6"], "img_noise_sd"),
            # uint8 glyph labels wrapped above 255, at exit 0
            (["optimizer=sgd", "dataset=synthetic_images", "img_side=4", "img_classes=300", "widths=16,8,300",
              "n_train=256", "n_test=64", "epochs=1"], "img_classes"),
            # empty list entries were dropped: widths=10,,1 trained a 10-1 net at exit 0
            (["optimizer=sgd", "widths=10,,1"], "widths"),
            (["optimizer=sgd", "widths=10,1,"], "widths"),
            (["optimizer=sgd", "widths=10,3,2,1", "grouping=0,,1;2"], "grouping"),
        ],
    )
    def test_bad_rate_or_width_exits_one_naming_the_key(self, args, key, tmp_path, capsys):
        path = tmp_path / "m.csv"
        code = cli_main(
            ["train", "dataset=synthetic", "widths=10,1", "epochs=2", *args, f"out_csv={path}"]
        )
        assert code == 1
        assert key in capsys.readouterr().err
        assert not path.exists()

    def test_bad_matrix_arm_fails_before_the_first_run(self, tmp_path, capsys):
        # the right_only arm cannot run bypassed; no arm may run before that shows
        code = cli_main(
            ["matrix", "--vary", "ablation", "--out-dir", str(tmp_path / "out"),
             "dataset=synthetic", "widths=10,1", "optimizer=samt_s", "psi_bypass=true"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "psi_bypass" in err and "ablation" in err
        assert not (tmp_path / "out").exists()

    def test_matrix_exit_zero_writes_a_csv_per_family_member(self, tmp_path, capsys):
        code = cli_main(
            ["matrix", "--vary", "projection", "--out-dir", str(tmp_path), "dataset=synthetic", "widths=6,1",
             "synth_d=6", "n_train=32", "n_test=16", "epochs=1", "train_batch=8", "optimizer=samt_s"]
        )
        assert code == 0
        assert capsys.readouterr().out.count("samt_s on synthetic") == 2
        for style in ("tanh", "sigmoid"):
            assert (tmp_path / f"metrics_projection_{style}.csv").read_text().startswith(CSV_HEADER)

    @pytest.mark.parametrize(
        "argv,named",
        [
            (["theory", "--suite", "bogus"], "bogus"),
            (["matrix"], "--vary"),
            ([], "command"),
            (["theory", "--seed", "x"], "'x'"),
            (["train", "--config"], "--config"),
            # theory and gradcheck take no overrides: a leftover is a misspelt flag
            (["gradcheck", "--sed", "1"], "--sed 1"),
            (["theory", "--suite", "contractivity", "--inject-bgu"], "--inject-bgu"),
        ],
    )
    def test_usage_error_exits_one_naming_the_argument(self, argv, named, tmp_path, monkeypatch, capsys):
        # exit 2 is the verification suites' "a violated inequality"
        monkeypatch.chdir(tmp_path)
        assert cli_main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "usage: samt" in captured.err and named in captured.err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [["--help"], ["theory", "--help"]])
    def test_help_exits_zero(self, argv, capsys):
        assert cli_main(argv) == 0
        assert capsys.readouterr().out.startswith("usage: samt")

    def test_gradcheck_passes(self, capsys):
        assert cli_main(["gradcheck", "--seed=1"]) == 0
        out = capsys.readouterr().out
        assert "pass" in out and "FAIL" not in out

    def test_negative_seed_exits_one_naming_the_flag(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        for argv in (["theory", "--seed", "-1", "--out-dir", str(out_dir)], ["gradcheck", "--seed", "-1"]):
            assert cli_main(argv) == 1
            captured = capsys.readouterr()
            assert "seed" in captured.err and captured.out == ""
        assert not out_dir.exists()

    def test_unwritable_out_csv_exits_one_before_the_first_epoch(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(harness, "train_epoch", lambda *a, **k: pytest.fail("an epoch ran"))
        path = tmp_path / "missing" / "m.csv"
        code = cli_main(["train", "dataset=synthetic", "widths=10,1", "optimizer=sgd", f"out_csv={path}"])
        assert code == 1
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("empty", ["idx_train_images", "idx_test_images"])
    def test_empty_idx_split_exits_one_naming_the_key(self, empty, tmp_path, monkeypatch, capsys):
        images, labels = synth_classification(0, 200, side=8, num_classes=4)
        keys = ("idx_train_images", "idx_train_labels", "idx_test_images", "idx_test_labels")
        paths = [str(tmp_path / name) for name in ("tr_img", "tr_lab", "te_img", "te_lab")]
        for i in (0, 2):
            n = 0 if keys[i] == empty else len(images)
            write_idx(*paths[i : i + 2], images[:n], labels[:n])
        monkeypatch.setattr(harness, "build_state", lambda *a, **k: pytest.fail("the run was built"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli_main(
                ["train", "dataset=idx", "widths=64,4", "optimizer=sgd", f"out_csv={tmp_path / 'm.csv'}"]
                + [f"{k}={p}" for k, p in zip(keys, paths)]
            )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and empty in err and "train_batch" not in err
        assert "Traceback" not in err and not (tmp_path / "m.csv").exists()

    def test_one_row_csv_exits_one_naming_csv_path(self, tmp_path, monkeypatch, capsys):
        # the test split takes at least one row, so a one-row file leaves no training row
        p = tmp_path / "d.csv"
        p.write_text("a,b,y\n1,2,3\n", encoding="utf-8")
        monkeypatch.setattr(harness, "standardize", lambda *a: pytest.fail("a split was standardised"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli_main(
                ["train", "dataset=csv", f"csv_path={p}", "csv_target=y", "widths=2,1", "optimizer=sgd", "train_batch=1", f"out_csv={tmp_path / 'm.csv'}"]
            )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "csv_path" in err and "train_batch" not in err
        assert "Traceback" not in err and not (tmp_path / "m.csv").exists()

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_csv_cell_exits_one_naming_row_and_column(self, cell, tmp_path, capsys):
        # float() parses these; the run would train on them and write nan rows at exit 0
        p = tmp_path / "d.csv"
        p.write_text(f"a,b,y\n1,2,3\n4,{cell},6\n7,8,9\n1,1,1\n", encoding="utf-8")
        path = tmp_path / "m.csv"
        code = cli_main(
            ["train", "dataset=csv", f"csv_path={p}", "csv_target=y", "widths=2,1", "optimizer=sgd",
             "train_batch=1", "epochs=1", f"out_csv={path}"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"cell {cell!r} at row 3, column b" in err and not path.exists()

    @pytest.mark.parametrize("csv_standardize", ["true", "false"])
    @pytest.mark.parametrize("row", [3, 9])  # in the training split, in the test split
    def test_oversized_csv_cell_exits_one_naming_row_and_column(self, row, csv_standardize, tmp_path, capsys):
        # a 1e300 cell overflowed the standardising variance, the training
        # loss or the test rows, with RuntimeWarnings, mostly at exit 0
        lines = ["a,b,y"] + [f"{i % 3},{(i * 7) % 5},{i % 4}" for i in range(8)]
        lines[row - 1] = "1,1e300,2"
        p = tmp_path / "d.csv"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        path = tmp_path / "m.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli_main(
                ["train", "dataset=csv", f"csv_path={p}", "csv_target=y", "widths=2,3,1", "optimizer=sgd",
                 "train_batch=2", "epochs=2", f"csv_standardize={csv_standardize}", f"out_csv={path}"]
            )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"cell '1e300' at row {row}, column b" in err and not path.exists()

    def test_allocation_that_cannot_succeed_exits_one_without_traceback(self, tmp_path, capsys):
        # psi's first layer alone would take 10**13 x 5 x 8 bytes, past any
        # 64-bit user address space, so the allocation fails at once under
        # every overcommit policy
        code = cli_main(
            ["train", "dataset=synthetic", "widths=10,1", "optimizer=samt_s", "psi_hidden=10000000000000",
             "n_train=16", "n_test=8", "train_batch=8", f"out_csv={tmp_path / 'm.csv'}"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


class TestTheorySuite:
    def test_full_suite_exit_zero_and_reports(self, tmp_path, capsys):
        code = cli_main(["theory", "--suite", "all", "--out-dir", str(tmp_path), "--seed", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "contractivity" in out and "recursion" in out and "plateau" in out
        report_csv = (tmp_path / "recursion_report.csv").read_text().splitlines()
        assert report_csv[0] == "t,mean_err,bound_rhs,slack"
        assert len(report_csv) > 100
        assert (tmp_path / "theory_report.txt").exists()

    def test_injected_bug_fails_loudly(self, tmp_path, capsys):
        code = cli_main(
            ["theory", "--suite", "contractivity", "--out-dir", str(tmp_path), "--inject-bug"]
        )
        assert code == 2
        assert "FAIL" in capsys.readouterr().out

    def test_injected_bug_violates_the_recursion_precondition(self, tmp_path, capsys):
        code = cli_main(["theory", "--suite", "recursion", "--out-dir", str(tmp_path), "--inject-bug"])
        assert code == 2
        assert "recursion: precondition violated: eta" in capsys.readouterr().out
        assert (tmp_path / "theory_report.txt").exists()
        assert not (tmp_path / "recursion_report.csv").exists()

    def test_unknown_suite_raises_before_writing(self, tmp_path):
        # a misspelled suite must not pass by checking nothing
        out_dir = tmp_path / "out"
        with pytest.raises(ValueError, match="contractivty") as info:
            run_theory_suite("contractivty", out_dir)
        assert all(name in str(info.value) for name in ("contractivity", "recursion", "all"))
        assert not out_dir.exists()


def test_grouped_scalar_blocks_train(tmp_path):
    # two layers in one block plus a solo layer, scalar adaptive steps
    cfg = quick_config(
        optimizer="samt_s",
        widths=(6, 5, 4, 1),
        grouping=((0, 1), (2,)),
        epochs=3,
        out_csv=str(tmp_path / "g.csv"),
    )
    rows, _ = run_experiment(cfg)
    losses = [r.loss for r in rows if r.split == "train"]
    assert losses[-1] < losses[0]
    for r in rows:
        assert 0.0 < r.eta_min <= r.eta_max < 1.0


class TestFiniteDifferenceChecks:
    """The gradient checks bump each weight entry in place and restore it."""

    @staticmethod
    def build(kind, pending):
        """A 4-5-3 net, its block-(1,) gradients and a psi holding `pending` output-layer terms."""
        rng = make_rng(41)
        net = init_network((4, 5, 3), rng)
        batch, meta_batch = ((rng.standard_normal((4, 3)), rng.integers(0, 3, 3)) for _ in range(2))
        grads = block_loss_and_gradients(net, batch, (1,))[1]
        feats = grad_features(grads[1])
        psi = dataclasses.replace(init_eta_model(kind, (3, 5), rng, hidden=6), meta_learning_rate=0.5)
        for _ in range(pending):
            psi_step(psi, meta_gradients(psi, feats, (1,), grads, 0.1, meta_batch, net).psi_grads)
        assert psi.pending.n == pending
        return net, batch, psi, (psi, feats, (1,), grads, 0.1, meta_batch, net)

    @staticmethod
    def weight_bytes(net, psi):
        return [w.tobytes() for w in (*net.layer_weights, *psi.weights)]

    def test_layer_check_restores_every_layer_weight(self):
        net, batch, psi, _ = self.build(StepSizeKind.SCALAR, 0)
        before = self.weight_bytes(net, psi)
        assert harness.fd_layer_gradients(net, batch) <= 1e-6
        assert self.weight_bytes(net, psi) == before

    @pytest.mark.parametrize("pending", [0, PSI_PENDING - 1])
    @pytest.mark.parametrize("kind", list(StepSizeKind))
    def test_meta_check_restores_psi_and_the_net(self, kind, pending):
        net, _, psi, args = self.build(kind, pending)
        before = self.weight_bytes(net, psi)
        assert harness.fd_meta_gradients(*args) <= 1e-5
        assert self.weight_bytes(net, psi) == before

    @pytest.mark.parametrize("calls", [1, 2, 7])
    @pytest.mark.parametrize("check", ["layers", "meta"])
    def test_a_loss_that_raises_leaves_the_bumped_entry_restored(self, monkeypatch, check, calls):
        # the calls-th loss evaluation raises: up, down, or the up of a later entry
        net, batch, psi, args = self.build(StepSizeKind.ELEMENT, PSI_PENDING - 1)
        before = self.weight_bytes(net, psi)
        count, batch_loss = [0], harness.batch_loss

        def failing(*a):
            count[0] += 1
            if count[0] == calls:
                raise RuntimeError("loss failed")
            return batch_loss(*a)

        monkeypatch.setattr(harness, "batch_loss", failing)
        with pytest.raises(RuntimeError, match="loss failed"):
            harness.fd_layer_gradients(net, batch) if check == "layers" else harness.fd_meta_gradients(*args)
        assert count[0] == calls
        assert self.weight_bytes(net, psi) == before


def test_importing_a_submodule_loads_no_harness():
    # the package's __init__ imports nothing, so a submodule brings only its own imports
    code = "import sys, samt.data; print(*sorted(m for m in sys.modules if m.startswith('samt')))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert not {"samt.harness", "samt.theory", "samt.optim"} & set(loaded.stdout.split())
    assert "samt.data" in loaded.stdout.split()
