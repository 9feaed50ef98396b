import math

import numpy as np
import pytest

from samt.data import CLASSIFICATION, Dataset, meta_subset, sample_minibatch
from samt.errors import DivergenceError, PlanError
from samt.etamodel import init_eta_model
from samt.harness import TrainConfig, build_state
from samt.model import MSE, NetworkModel, block_loss_and_gradients, init_network
from samt.numerics import make_rng
from samt.optim import OagdEngine, OagdState, SgdEngine
from samt.stepsize import StepSize, StepSizeKind
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


def class_dataset(seed, n, d=6, classes=3):
    rng = make_rng(seed)
    return Dataset(
        rng.standard_normal((d, n)), rng.integers(0, classes, n), CLASSIFICATION
    )


def bypassed_samt_engines(widths, grouping=None, eta0=0.1):
    """The engines `build_state` gives a psi_bypass=true samt_s run (step pinned at eta0)."""
    config = TrainConfig(
        widths=widths, optimizer="samt_s", eta0=eta0, psi_bypass=True, grouping=grouping
    )
    engines = build_state(config, class_dataset(0, n=2, d=widths[0])).engines
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
            meta_source=meta_subset(ds),
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
                meta_source=meta_subset(ds),
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
                net, engine, event = super().step(net, block, main_batch, meta_batch)
                if NanAtStep.calls == 6:
                    event.loss = float("nan")
                return net, engine, event

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
            meta_source=meta_subset(ds),
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
                net, engine, event = super().step(*args)
                returned.append(event)
                return net, Recording(engine.state), event

        step = StepSize.initial(StepSizeKind.ELEMENT, shape, 0.1)
        state = TrainRunState(
            net=net,
            plan=block_partition(1),
            engines=[Recording(OagdState(step, psi))],
            rng_main=make_rng(43),
            rng_meta=make_rng(44),
            meta_source=meta_subset(ds),
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

    def test_regression_metric_is_mse(self):
        net = NetworkModel((np.array([[2.0]]),), loss_kind=MSE)
        x = np.array([[1.0, 2.0]])
        y = np.array([[2.0, 5.0]])  # second prediction off by 1
        ds = Dataset(x, y, "regression")
        loss, metric = evaluate(net, ds, batch_size=10)
        assert loss == pytest.approx(0.5)
        assert metric == pytest.approx(0.5)
