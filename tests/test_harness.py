import dataclasses
import types
import typing

import numpy as np
import pytest

from samt.cli import main as cli_main
from samt.data import load_csv
from samt import harness
from samt.errors import ConfigError, DivergenceError
from samt.etamodel import EtaModel
from samt.optim import SgdEngine
from samt.trainer import train_epoch
from samt.numerics import make_rng
from samt.harness import (
    CSV_HEADER,
    TrainConfig,
    build_state,
    load_datasets,
    parse_config,
    run_experiment,
    run_matrix,
)


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
        assert parse_config(overrides=pairs) == defaults

    @pytest.mark.parametrize(
        "key",
        [
            name
            for name, hint in typing.get_type_hints(TrainConfig).items()
            if isinstance(hint, types.UnionType) and type(None) in typing.get_args(hint)
        ],
    )
    def test_optional_key_parses_none(self, key):
        assert getattr(parse_config(overrides={key: "none"}), key) is None


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
        for stats in (train.normalization, test.normalization):
            assert stats[0].tobytes() == mean.tobytes() and stats[1].tobytes() == scale.tobytes()


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

    @pytest.mark.parametrize(
        "args,key",
        [
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

    def test_gradcheck_passes(self, capsys):
        assert cli_main(["gradcheck", "--seed=1"]) == 0
        out = capsys.readouterr().out
        assert "pass" in out and "FAIL" not in out


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
