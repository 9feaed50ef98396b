import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from samt.data import CLASSIFICATION, REGRESSION, Dataset, meta_subset, sample_minibatch
from samt.errors import DivergenceError, PlanError
from samt.etamodel import init_eta_model
from samt.harness import OPTIMIZERS, TrainConfig, build_state
from samt.model import MSE, NetworkModel, block_loss_and_gradients, forward, init_network, output_loss
from samt.numerics import make_rng
from samt.optim import OagdEngine, OagdState, SgdEngine
from samt.stepsize import PROJECTION_STYLES, StepSize, StepSizeKind
from samt.trainer import TrainRunState, block_partition, evaluate, train_epoch


class TestBlockPartition:
    def test_default_one_block_per_layer(self):
        plan = block_partition(3)
        assert plan.blocks == ((0,), (1,), (2,))

    def test_grouped_blocks(self):
        plan = block_partition(3, grouping=[(0, 1), (2,)])
        assert plan.blocks == ((0, 1), (2,))

    def test_single_layer_degenerates(self):
        assert block_partition(1).blocks == ((0,),)

    def test_overlap_rejected(self):
        with pytest.raises(PlanError, match="more than one"):
            block_partition(3, grouping=[(0, 1), (1, 2)])

    def test_incomplete_cover_rejected(self):
        with pytest.raises(PlanError, match="2"):
            block_partition(3, grouping=[(0, 1)])

    def test_blocks_ordered_by_smallest_index(self):
        plan = block_partition(4, grouping=[(2, 3), (0, 1)])
        assert plan.blocks == ((0, 1), (2, 3))

    def test_bad_inner_steps(self):
        with pytest.raises(PlanError):
            block_partition(2, inner_steps=0)

    @pytest.mark.parametrize("grouping", [None, [()]])
    def test_no_layers_rejected(self, grouping):
        with pytest.raises(PlanError, match="layer_count must be >= 1, got 0"):
            block_partition(0, grouping=grouping)

    def test_empty_block_rejected(self):
        with pytest.raises(PlanError, match="empty block"):
            block_partition(2, grouping=[(0, 1), ()])

    @pytest.mark.parametrize("index", [-1, 3])
    def test_index_outside_the_layers_rejected(self, index):
        with pytest.raises(PlanError, match=rf"layer index {index} outside \[0, 3\)"):
            block_partition(3, grouping=[(0, 1), (2, index)])

    @pytest.mark.parametrize("count", [0, 2])
    def test_one_engine_per_block(self, count):
        net = init_network((6, 2), make_rng(0))
        with pytest.raises(PlanError, match=f"{count} engine states for 1 blocks"):
            TrainRunState(net, block_partition(1), [SgdEngine(0.1)] * count, make_rng(1), make_rng(2))


def class_dataset(seed, n, d=6, classes=3):
    rng = make_rng(seed)
    return Dataset(
        rng.standard_normal((d, n)), rng.integers(0, classes, n), CLASSIFICATION
    )


def bypassed_samt_engines(widths, grouping=None, eta0=0.1):
    """The engines `build_state` gives a psi_bypass=true samt_s run (step pinned at eta0)."""
    config = TrainConfig(
        widths=widths, optimizer="samt_s", eta0=eta0, psi_bypass=True, grouping=grouping,
        train_batch=2,
    )
    engines = build_state(config, class_dataset(0, n=2, d=widths[0], classes=widths[-1])).engines
    assert all(type(e) is SgdEngine and e.eta == eta0 for e in engines)
    return engines


class TestTrainEpoch:
    def test_single_block_bypass_equals_plain_sgd(self):
        # K=1, one block covering all layers, pinned step: must match a
        # standard mini-batch SGD loop on the whole net, same rng stream.
        ds = class_dataset(0, n=64, d=5, classes=3)
        net = init_network((5, 4, 3), make_rng(1))
        state = TrainRunState(
            net=net,
            plan=block_partition(2, grouping=[(0, 1)]),
            engines=bypassed_samt_engines((5, 4, 3), grouping=((0, 1),)),
            rng_main=make_rng(77),
            rng_meta=make_rng(78),
        )
        state, _ = train_epoch(state, ds, batch_size=8)

        reference = net
        rng = make_rng(77)
        for _ in range(math.ceil(64 / 8)):
            batch = sample_minibatch(ds, 8, rng)
            grads = block_loss_and_gradients(reference, batch, (0, 1))[1]
            reference = reference.with_layers(
                {l: reference.layer_weights[l] - 0.1 * g for l, g in grads.items()}
            )
        worst = max(
            np.max(np.abs(a - b))
            for a, b in zip(state.net.layer_weights, reference.layer_weights)
        )
        assert worst <= 1e-12
        assert all(a.tobytes() == b.tobytes() for a, b in zip(state.net.layer_weights, reference.layer_weights))

    def test_fixed_seed_gives_identical_epochs(self):
        def run():
            ds = class_dataset(3, n=40, d=4, classes=2)
            net = init_network((4, 3, 2), make_rng(4))
            state = TrainRunState(
                net=net,
                plan=block_partition(2),
                engines=bypassed_samt_engines((4, 3, 2)),
                rng_main=make_rng(6),
                rng_meta=make_rng(7),
            )
            state, stats = train_epoch(state, ds, batch_size=10)
            return state, stats

        (state_a, stats_a), (state_b, stats_b) = run(), run()
        assert stats_a == stats_b
        for wa, wb in zip(state_a.net.layer_weights, state_b.net.layer_weights):
            assert np.array_equal(wa, wb)

    def test_gauss_seidel_order_via_trace(self):
        # block 1's gradient must be taken at block 0's updated weights
        class Recording(SgdEngine):
            seen = []  # (layer-0 array received, layer-0 array returned) per step

            def step(self, net, block, main_batch, meta_batch=None):
                out = super().step(net, block, main_batch, meta_batch)
                Recording.seen.append((net.layer_weights[0], out[0].layer_weights[0]))
                return out

        ds = class_dataset(8, n=16, d=4, classes=2)
        net = init_network((4, 3, 2), make_rng(9))
        state = TrainRunState(
            net=net,
            plan=block_partition(2),
            engines=[Recording(0.1), Recording(0.1)],
            rng_main=make_rng(10),
            rng_meta=make_rng(11),
        )
        events = []
        train_epoch(state, ds, batch_size=16, trace=events.append)
        assert [e.block for e in events[:2]] == [(0,), (1,)]
        (_, layer0_after_block0), (layer0_at_block1, _) = Recording.seen[:2]
        assert layer0_at_block1 is layer0_after_block0
        initial_sum = float(net.layer_weights[0].sum())
        assert float(layer0_at_block1.sum()) != pytest.approx(initial_sum)

    def test_sweep_order_is_ascending_every_iteration(self):
        ds = class_dataset(12, n=30, d=4, classes=2)
        net = init_network((4, 4, 4, 2), make_rng(13))
        state = TrainRunState(
            net=net,
            plan=block_partition(3),
            engines=[SgdEngine(0.05)] * 3,
            rng_main=make_rng(14),
            rng_meta=make_rng(15),
        )
        events = []
        train_epoch(state, ds, batch_size=10, trace=events.append)
        order = [e.block for e in events]
        per_iter = len(state.plan.blocks)
        for i in range(0, len(order), per_iter):
            assert order[i : i + per_iter] == [(0,), (1,), (2,)]

    def test_update_count_per_iteration(self):
        ds = class_dataset(16, n=20, d=4, classes=2)
        net = init_network((4, 3, 2), make_rng(17))
        plan = block_partition(2, inner_steps=3)
        state = TrainRunState(
            net=net,
            plan=plan,
            engines=[SgdEngine(0.05)] * 2,
            rng_main=make_rng(18),
            rng_meta=make_rng(19),
        )
        events = []
        _, stats = train_epoch(state, ds, batch_size=10, trace=events.append)
        iterations = math.ceil(20 / 10)
        assert stats["steps"] == iterations * len(plan.blocks) * plan.inner_steps
        assert len(events) == stats["steps"]

    def test_non_finite_loss_raises_divergence_error(self):
        class NanAtStep(SgdEngine):
            calls = 0

            def step(self, net, block, main_batch, meta_batch=None):
                NanAtStep.calls += 1
                net, event = super().step(net, block, main_batch, meta_batch)
                if NanAtStep.calls == 6:
                    event.loss = float("nan")
                return net, event

        ds = class_dataset(24, n=20, d=4, classes=2)
        state = TrainRunState(
            net=init_network((4, 3, 2), make_rng(25)),
            plan=block_partition(2),
            engines=[NanAtStep(0.05), NanAtStep(0.05)],
            rng_main=make_rng(26),
            rng_meta=make_rng(27),
        )
        train_epoch(state, ds, batch_size=10)  # steps 1-4, all finite
        with pytest.raises(DivergenceError) as info:
            train_epoch(state, ds, batch_size=10)
        e = info.value
        assert (e.epoch, e.iteration, e.block, e.engine) == (2, 1, (1,), "NanAtStep")
        assert isinstance(e, ArithmeticError) and not isinstance(e, ValueError)
        # the failing step's own event, whose step shows in the message
        assert math.isnan(e.event.loss) and e.event.step == 0.05
        assert str(e).endswith("(step min 0.05, max 0.05)")

    def test_raising_engine_carries_the_blocks_last_event(self):
        class RaiseAtStep(SgdEngine):
            calls = 0

            def step(self, net, block, main_batch, meta_batch=None):
                RaiseAtStep.calls += 1
                if RaiseAtStep.calls in (2, 6):
                    raise FloatingPointError("meta loss is inf")
                return super().step(net, block, main_batch, meta_batch)

        ds = class_dataset(24, n=20, d=4, classes=2)
        state = TrainRunState(
            net=init_network((4, 3, 2), make_rng(25)),
            plan=block_partition(2),
            engines=[RaiseAtStep(0.05), RaiseAtStep(0.07)],
            rng_main=make_rng(26),
            rng_meta=make_rng(27),
        )
        # step 2 is block 1's first of the epoch: no event to carry
        with pytest.raises(DivergenceError) as info:
            train_epoch(state, ds, batch_size=10)
        assert info.value.event is None and "step min" not in str(info.value)
        events = []
        # steps 3, 4, 5 and then block 1 fails again at step 6
        with pytest.raises(DivergenceError) as info:
            train_epoch(state, ds, batch_size=10, trace=events.append)
        e = info.value
        assert (e.iteration, e.block) == (2, (1,))
        assert e.event is events[1] and e.event.block == (1,)
        assert "meta loss is inf (step min 0.07, max 0.07)" in str(e)

    def test_traced_event_arrays_stay_untouched(self):
        # events hold references to the step's arrays, so nothing may write
        # to them later: neither the engine's next steps nor the trainer
        ds = class_dataset(40, n=200, d=4, classes=3)
        net = init_network((4, 3), make_rng(41))
        shape = net.layer_weights[0].shape
        psi = init_eta_model(StepSizeKind.ELEMENT, shape, make_rng(42), hidden=4)
        state = TrainRunState(
            net=net,
            plan=block_partition(1),
            engines=[OagdEngine(OagdState(StepSize.initial(StepSizeKind.ELEMENT, shape, 0.1), psi))],
            rng_main=make_rng(43),
            rng_meta=make_rng(44),
        )
        seen = []

        def record(event):
            copies = [a.copy() for a in (event.beta, event.eta_hat, event.step)]
            seen.append((event, copies))

        train_epoch(state, ds, batch_size=10, trace=record)
        assert len(seen) == 20
        for event, copies in seen:
            for array, copy in zip((event.beta, event.eta_hat, event.step), copies):
                assert array.tobytes() == copy.tobytes()
        assert seen[-1][0].step is state.engines[0].state.step.values

    def test_untraced_events_drop_their_heads(self):
        # without a trace only the trainer holds an event: it keeps the loss
        # and the step for the eta columns and a later DivergenceError, and
        # lets beta and eta_hat go before the block's next step
        ds = class_dataset(40, n=200, d=4, classes=3)
        net = init_network((4, 3), make_rng(41))
        shape = net.layer_weights[0].shape
        psi = init_eta_model(StepSizeKind.ELEMENT, shape, make_rng(42), hidden=4)
        returned = []

        class Recording(OagdEngine):
            def step(self, *args):
                net, event = super().step(*args)
                returned.append(event)
                return net, event

        step = StepSize.initial(StepSizeKind.ELEMENT, shape, 0.1)
        state = TrainRunState(
            net=net,
            plan=block_partition(1),
            engines=[Recording(OagdState(step, psi))],
            rng_main=make_rng(43),
            rng_meta=make_rng(44),
        )
        _, stats = train_epoch(state, ds, batch_size=10)
        assert len(returned) == 20
        assert all(e.beta is None and e.eta_hat is None and e.meta_loss is not None for e in returned)
        assert returned[-1].step is state.engines[0].state.step.values
        assert stats["eta_min"] == returned[-1].step.min()

    def test_batch_larger_than_dataset_rejected(self):
        ds = class_dataset(20, n=5)
        net = init_network((6, 2), make_rng(21))
        state = TrainRunState(
            net=net,
            plan=block_partition(1),
            engines=[SgdEngine(0.1)],
            rng_main=make_rng(22),
            rng_meta=make_rng(23),
        )
        with pytest.raises(ValueError):
            train_epoch(state, ds, batch_size=6)

    def test_meta_batches_are_draws_from_the_datasets_meta_subset(self):
        # the trainer derives the held-aside set from the dataset it is handed
        ds = class_dataset(50, n=30, d=4, classes=3)
        config = TrainConfig(widths=(4, 3, 3), optimizer="samt_s", train_batch=4, inner_steps=2, seed=5)
        state = build_state(config, ds)
        state.rng_meta = make_rng(51)
        events = []
        train_epoch(state, ds, config.train_batch, trace=events.append)
        assert len(events) == math.ceil(30 / 4) * 2 * 2
        replay = make_rng(51)
        for event in events:
            x, y = sample_minibatch(meta_subset(ds), config.train_batch, replay)
            assert event.meta_batch[0].tobytes() == x.tobytes() and event.meta_batch[1].tobytes() == y.tobytes()

    def test_mean_of_steps_near_the_float_limit_is_finite(self):
        # a one-class net's gradients are 0, so adam's rate in each of its three
        # blocks leaves the weights as they are; the sum of those rates overflowed
        ds = class_dataset(0, n=8, d=3, classes=1)
        config = TrainConfig(widths=(3, 2, 2, 1), optimizer="adam", adam_rate=1.7e308, train_batch=4)
        _, stats = train_epoch(build_state(config, ds), ds, config.train_batch)
        assert stats["eta_max"] == 1.7e308 and stats["eta_mean"] == pytest.approx(1.7e308, rel=1e-15)


class TestEvaluate:
    def test_perfect_predictor(self):
        # identity logits: feature d == class count, one-hot features
        net = NetworkModel((np.eye(3),))
        ds = Dataset(np.eye(3)[:, [0, 1]], np.array([0, 1]), CLASSIFICATION)
        _, acc = evaluate(net, ds, batch_size=2)
        assert acc == 1.0

    def test_uniform_logits_on_balanced_classes(self):
        rng = make_rng(30)
        n = 1000
        ds = Dataset(rng.standard_normal((4, n)), rng.integers(0, 10, n), CLASSIFICATION)
        net = NetworkModel((np.zeros((10, 4)),))
        _, acc = evaluate(net, ds, batch_size=256)
        assert acc == pytest.approx(0.1, abs=0.03)

    def test_evaluate_never_mutates_net(self):
        net = init_network((4, 3, 2), make_rng(31))
        before = [w.copy() for w in net.layer_weights]
        ds = class_dataset(32, n=50, d=4, classes=2)
        evaluate(net, ds, batch_size=7)
        for w0, w1 in zip(before, net.layer_weights):
            assert np.array_equal(w0, w1)

    def test_desk_net_evaluation_holds_two_hidden_activations(self):
        # the hidden layer's pre-activation is overwritten by its
        # activation, so its peak is that array and slope * it; an
        # out-of-place activation holds a third
        rng = make_rng(33)
        net = init_network((784, 100, 10), rng)
        ds = Dataset(rng.random((784, 1000)), rng.integers(0, 10, 1000), CLASSIFICATION)
        evaluate(net, ds, batch_size=1000)  # warm numpy's caches outside the trace
        tracemalloc.start()
        try:
            evaluate(net, ds, batch_size=1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * (100 * 1000 * 8)

    @pytest.mark.parametrize("kind", [CLASSIFICATION, REGRESSION])
    def test_equals_a_hand_loop_over_the_slices_bitwise(self, kind):
        # 10 samples in batches of 3: the last batch holds one
        rng = make_rng(34)
        x = rng.standard_normal((4, 10))
        if kind == CLASSIFICATION:
            net, y = init_network((4, 5, 3), rng), rng.integers(0, 3, 10)
        else:
            net, y = init_network((4, 5, 2), rng, loss_kind=MSE), rng.standard_normal((2, 10))
        total_loss = total_metric = 0.0
        for start in range(0, 10, 3):
            xb, yb = x[:, start : start + 3], y[..., start : start + 3]
            out = forward(net, xb)
            loss, _ = output_loss(net, out, yb)
            total_loss += loss * xb.shape[1]
            total_metric += float((out.argmax(axis=0) == yb).sum()) if kind == CLASSIFICATION else loss * xb.shape[1]
        assert evaluate(net, Dataset(x, y, kind), batch_size=3) == (total_loss / 10, total_metric / 10)

    def test_regression_metric_is_mse(self):
        net = NetworkModel((np.array([[2.0]]),), loss_kind=MSE)
        x = np.array([[1.0, 2.0]])
        y = np.array([[2.0, 5.0]])  # second prediction off by 1
        ds = Dataset(x, y, "regression")
        loss, metric = evaluate(net, ds, batch_size=10)
        assert loss == pytest.approx(0.5)
        assert metric == pytest.approx(0.5)


@pytest.mark.parametrize("batch_size", [0, -1])
@pytest.mark.parametrize("call", ["train_epoch", "evaluate"])
def test_batch_size_below_one_raises_value_error(call, batch_size):
    # 0 divided by zero in train_epoch and -1 left its batch unbound; evaluate returned (0.0, 0.0) at -1
    ds = class_dataset(20, n=5)
    net = init_network((6, 2), make_rng(21))
    state = TrainRunState(
        net=net,
        plan=block_partition(1),
        engines=[SgdEngine(0.1)],
        rng_main=make_rng(22),
        rng_meta=make_rng(23),
    )
    with pytest.raises(ValueError, match="batch size"):
        train_epoch(state, ds, batch_size) if call == "train_epoch" else evaluate(net, ds, batch_size)


@st.composite
def one_epoch_runs(draw):
    """(config, training set) of a 2-3-layer net with widths <= 8, on
    classification or regression data, with rates drawn up to where runs
    diverge; the engine is one of the seven optimizers' or bypassed samt_s's."""
    optimizer = draw(st.sampled_from(OPTIMIZERS))
    rate = st.one_of(st.floats(-3.0, 1.0), st.floats(1.0, 308.0)).map(lambda e: 10.0**e)
    widths = tuple(draw(st.lists(st.integers(1, 8), min_size=3, max_size=4)))
    whole = optimizer in ("sgd", "adam", "hd", "samt_s") and draw(st.booleans())  # one block of every layer
    config = TrainConfig(
        widths=widths, optimizer=optimizer, psi_bypass=optimizer == "samt_s" and draw(st.booleans()),
        grouping=(tuple(range(len(widths) - 1)),) if whole else None, inner_steps=draw(st.integers(1, 2)),
        meta_lag=draw(st.integers(0, 1)),
        eta0=draw(st.floats(1e-3, 0.99)), sgd_rate=draw(rate), adam_rate=draw(rate),
        hd_hyper_rate=draw(rate), meta_learning_rate=draw(rate), psi_hidden=draw(st.integers(1, 6)),
        projection_style=draw(st.sampled_from(PROJECTION_STYLES)), train_batch=draw(st.integers(1, 8)),
        seed=draw(st.integers(0, 2**16)),
    )
    rng, n = make_rng(config.seed), draw(st.integers(8, 24))
    x = 10.0 ** draw(st.floats(-3.0, 3.0)) * rng.standard_normal((widths[0], n))
    if draw(st.booleans()):
        return config, Dataset(x, rng.integers(0, widths[-1], n), CLASSIFICATION)
    return config, Dataset(x, rng.standard_normal((widths[-1], n)), REGRESSION)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(run=one_epoch_runs())
def test_an_epoch_stays_finite_or_raises_divergence_naming_where(run):
    """Every engine, on any shape and rate: one `train_epoch` leaves the
    weights, the stats and every samt step finite, the steps inside (0,1),
    or raises `DivergenceError` naming the epoch, iteration and block."""
    config, train = run
    state = build_state(config, train)
    iterations = math.ceil(train.num_samples / config.train_batch)
    with np.errstate(all="ignore"):
        try:
            state, stats = train_epoch(state, train, config.train_batch)
        except DivergenceError as e:
            assert e.epoch == 1 and 1 <= e.iteration <= iterations and e.block in state.plan.blocks
            assert f"epoch 1, iteration {e.iteration}, block {e.block}" in str(e)
            return
    assert all(np.isfinite(w).all() for w in state.net.layer_weights)
    assert all(math.isfinite(v) for v in stats.values())
    for engine in state.engines:
        if isinstance(engine, OagdEngine):
            step = engine.state.step.values
            assert np.isfinite(step).all() and (step > 0).all() and (step < 1).all()
