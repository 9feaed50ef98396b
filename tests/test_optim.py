import math

import numpy as np
import pytest
from dataclasses import replace

from samt.data import CLASSIFICATION, Dataset
from samt.etamodel import init_eta_model
from samt.harness import TrainConfig, build_state
from samt.model import MSE, NetworkModel, batch_loss, block_loss_and_gradients, init_network
from samt.numerics import make_rng
from samt.optim import AdamEngine, HdEngine, OagdEngine, OagdState, SgdEngine, StepEvent
from samt.stepsize import StepSize, StepSizeKind


def scalar_net(w):
    """A one-layer linear MSE net: one sample (x, y) has gradient 2 (w x - y) x^T."""
    return NetworkModel((np.array(w),), loss_kind=MSE)


def grad_of(net, batch):
    return block_loss_and_gradients(net, batch, (0,))[1][0]


class TestSgdStep:
    def test_zero_gradient_fixed_point(self):
        net = scalar_net([[1.0, 2.0]])
        batch = (np.zeros((2, 1)), np.zeros((1, 1)))
        net_new, _, _ = SgdEngine(0.5).step(net, (0,), batch)
        assert np.array_equal(net_new.layer_weights[0], net.layer_weights[0])

    def test_hand_value(self):
        # w=1, x=1, y=0: gradient 2, so 1 - 0.1 * 2
        batch = (np.array([[1.0]]), np.array([[0.0]]))
        net_new, _, _ = SgdEngine(0.1).step(scalar_net([[1.0]]), (0,), batch)
        assert net_new.layer_weights[0][0, 0] == pytest.approx(0.8)

    def test_step_is_linear_in_rate(self):
        # from the same point, twice the rate moves the weights twice as far
        net = scalar_net([[1.0, -2.0]])
        batch = (np.array([[0.3, -1.0], [0.7, 0.4]]), np.array([[0.5, -0.2]]))
        w = net.layer_weights[0]
        half = SgdEngine(0.05).step(net, (0,), batch)[0].layer_weights[0]
        full = SgdEngine(0.1).step(net, (0,), batch)[0].layer_weights[0]
        assert np.allclose(w - full, 2.0 * (w - half), atol=1e-15)

    def test_rejects_nonpositive_rate(self):
        for eta in (0.0, -0.1, float("nan")):
            with pytest.raises(ValueError):
                SgdEngine(eta)


class TestAdamStep:
    def test_first_step_magnitude(self):
        # w=0, x=1, y=-0.5: gradient exactly 1
        rate = 0.25
        engine = AdamEngine.fresh(scalar_net([[0.0]]), (0,), rate)
        batch = (np.array([[1.0]]), np.array([[-0.5]]))
        net_new, engine_new, _ = engine.step(scalar_net([[0.0]]), (0,), batch)
        assert net_new.layer_weights[0][0, 0] == pytest.approx(-rate / (1 + engine.eps), rel=1e-12)
        assert engine_new.t == 1

    def test_zero_gradients_never_move(self):
        net = scalar_net([[3.0, -1.0]])
        engine = AdamEngine.fresh(net, (0,), 1e-3)
        batch = (np.zeros((2, 1)), np.zeros((1, 1)))
        for _ in range(10):
            net, engine, _ = engine.step(net, (0,), batch)
        assert np.array_equal(net.layer_weights[0], [[3.0, -1.0]])

    def test_update_opposes_constant_gradient(self):
        # a fixed batch and a small rate keep the gradient's signs fixed
        rng = make_rng(0)
        net = NetworkModel((rng.standard_normal((3, 3)),), loss_kind=MSE)
        batch = (rng.standard_normal((3, 4)), rng.standard_normal((3, 4)))
        engine = AdamEngine.fresh(net, (0,), 1e-3)
        for _ in range(5):
            g = grad_of(net, batch)
            net_new, engine, _ = engine.step(net, (0,), batch)
            moved = net_new.layer_weights[0] - net.layer_weights[0]
            big = np.abs(g) > 0.1
            assert big.any()
            assert (np.sign(moved[big]) == -np.sign(g[big])).all()
            net = net_new


class TestHdStep:
    def test_zero_hyper_rate_is_plain_sgd(self):
        rng = make_rng(1)
        net_hd = net_sgd = NetworkModel((rng.standard_normal((2, 2)),), loss_kind=MSE)
        hd = HdEngine.fresh(net_hd, (0,), rate=0.1, hyper_rate=0.0)
        sgd = SgdEngine(0.1)
        for seed in range(5):
            r = make_rng(seed)
            batch = (r.standard_normal((2, 3)), r.standard_normal((2, 3)))
            net_hd, hd, _ = hd.step(net_hd, (0,), batch)
            net_sgd, sgd, _ = sgd.step(net_sgd, (0,), batch)
        assert np.allclose(net_hd.layer_weights[0], net_sgd.layer_weights[0], atol=1e-15)
        assert hd.rate == 0.1

    def test_aligned_gradients_raise_rate(self):
        # w=0, x=1, y=-1: gradients 2 then 1.6, same sign
        net = scalar_net([[0.0]])
        engine = HdEngine.fresh(net, (0,), rate=0.1, hyper_rate=1e-2)
        batch = (np.array([[1.0]]), np.array([[-1.0]]))
        net, engine, _ = engine.step(net, (0,), batch)
        _, engine2, _ = engine.step(net, (0,), batch)
        assert engine2.rate > engine.rate

    def test_first_step_keeps_rate(self):
        net = scalar_net([[0.0]])
        engine = HdEngine.fresh(net, (0,), rate=0.07)
        _, engine_new, _ = engine.step(net, (0,), (np.array([[1.0]]), np.array([[-2.5]])))
        assert engine_new.rate == 0.07

    def test_rate_floor(self):
        # previous gradient 1e6, current gradient -1 (w=0, x=1, y=0.5)
        engine = HdEngine(g_prev=(np.array([[1e6]]),), rate=1e-8, hyper_rate=1.0)
        _, engine_new, _ = engine.step(scalar_net([[0.0]]), (0,), (np.array([[1.0]]), np.array([[0.5]])))
        assert engine_new.rate == engine.rate_floor


def make_oagd(kind, layer_shape, seed=0, eta0=0.1, **kwargs):
    psi = init_eta_model(kind, layer_shape, make_rng(seed), hidden=6)
    step = StepSize.initial(kind, layer_shape, eta0)
    return OagdState(step, psi, **kwargs)


def bypassed_engines(optimizer, widths, eta0=0.1):
    """The engines `build_state` gives a psi_bypass=true samt run on a classification net."""
    config = TrainConfig(widths=widths, optimizer=optimizer, eta0=eta0, psi_bypass=True)
    ds = Dataset(np.zeros((widths[0], 2)), np.zeros(2, dtype=np.int64), CLASSIFICATION)
    return build_state(config, ds).engines


def oagd_step(state, net, block, main_batch, meta_batch):
    """One OagdEngine step, returning (net, state, event)."""
    net_new, engine, event = OagdEngine(state).step(net, block, main_batch, meta_batch)
    return net_new, engine.state, event


def classification_batches(widths, count, seed):
    rng = make_rng(seed)
    batches = []
    for _ in range(count):
        x = rng.standard_normal((widths[0], 4))
        y = rng.integers(0, widths[-1], 4)
        batches.append((x, y))
    return batches


class TestOagdScalar:
    def test_bypass_equals_plain_sgd_200_steps(self):
        widths = (6, 4, 3)
        net_a = init_network(widths, make_rng(42))
        net_b = net_a
        engines = bypassed_engines("samt_s", widths)
        assert all(type(e) is SgdEngine and e.eta == 0.1 for e in engines)
        batches = classification_batches(widths, 200 * 2, seed=3)
        it = iter(batches)
        for _ in range(200):
            for bi, block in enumerate(((0,), (1,))):
                batch = next(it)
                net_a, engines[bi], _ = engines[bi].step(net_a, block, batch, batch)
                updates = {
                    l: net_b.layer_weights[l] - 0.1 * g
                    for l, g in block_loss_and_gradients(net_b, batch, block)[1].items()
                }
                net_b = net_b.with_layers(updates)
        worst = max(
            np.max(np.abs(a - b)) for a, b in zip(net_a.layer_weights, net_b.layer_weights)
        )
        assert worst <= 1e-12
        assert all(a.tobytes() == b.tobytes() for a, b in zip(net_a.layer_weights, net_b.layer_weights))

    def test_zero_gradient_updates_step_but_not_weights(self):
        net = NetworkModel((np.array([[1.5]]),), loss_kind=MSE)
        state = make_oagd(StepSizeKind.SCALAR, (1, 1), seed=5)
        batch = (np.array([[0.0]]), np.array([[0.0]]))
        net_new, state_new, event = oagd_step(state, net, (0,), batch, batch)
        assert event.loss == 0.0
        assert np.array_equal(net_new.layer_weights[0], net.layer_weights[0])
        assert not np.array_equal(state_new.step.values, state.step.values)

    def test_hand_computed_full_chain_on_1x1_net(self):
        # independent pure-python oracle for every quantity in one step
        w0, x, y = 2.0, 1.5, 0.5
        mx, my = -0.8, 0.3
        slope, eta0, meta_lr = 0.01, 0.1, 1e-3
        net = NetworkModel((np.array([[w0]]),), activation_slope=slope, loss_kind=MSE)
        state = make_oagd(StepSizeKind.SCALAR, (1, 1), seed=9)
        psi = replace(state.psi, meta_learning_rate=meta_lr, activation_slope=slope)
        state = replace(state, psi=psi)

        pred = w0 * x
        loss = (y - pred) ** 2
        g = 2.0 * (pred - y) * x
        feats = [g, 0.0, g, g, abs(g)]

        def lrelu(v):
            return v if v > 0 else slope * v

        def dlrelu(v):
            return 1.0 if v > 0 else slope

        # copies: the engine updates the step model's arrays in place
        w1, w2, w3 = state.psi.w1.copy(), state.psi.w2.copy(), state.psi.w3.copy()
        u1 = [sum(w1[i, j] * feats[j] for j in range(5)) for i in range(w1.shape[0])]
        h1 = [lrelu(v) for v in u1]
        u2 = [sum(w2[i, j] * h1[j] for j in range(len(h1))) for i in range(w2.shape[0])]
        h2 = [lrelu(v) for v in u2]
        u3 = [sum(w3[i, j] * h2[j] for j in range(len(h2))) for i in range(2)]
        beta = 0.5 * (math.tanh(u3[0]) + 1.0)
        eta_hat = 0.5 * (math.tanh(u3[1]) + 1.0)
        eta_cand = beta * eta0 + (1.0 - beta) * eta_hat
        w_prime = w0 - eta_cand * g

        meta_pred = w_prime * mx
        dldw = 2.0 * (meta_pred - my) * mx
        dlde = -dldw * g
        dbeta = dlde * (eta0 - eta_hat)
        deta = dlde * (1.0 - beta)
        draw = [
            dbeta * 0.5 * (1.0 - math.tanh(u3[0]) ** 2),
            deta * 0.5 * (1.0 - math.tanh(u3[1]) ** 2),
        ]
        dw3 = [[draw[i] * h2[j] for j in range(len(h2))] for i in range(2)]
        dh2 = [sum(w3[i, j] * draw[i] for i in range(2)) for j in range(len(h2))]
        du2 = [dh2[i] * dlrelu(u2[i]) for i in range(len(u2))]
        dw2 = [[du2[i] * h1[j] for j in range(len(h1))] for i in range(len(du2))]
        dh1 = [sum(w2[i, j] * du2[i] for i in range(len(du2))) for j in range(len(h1))]
        du1 = [dh1[i] * dlrelu(u1[i]) for i in range(len(u1))]
        dw1 = [[du1[i] * feats[j] for j in range(5)] for i in range(len(du1))]

        net_new, state_new, event = oagd_step(
            state, net, (0,), (np.array([[x]]), np.array([[y]])), (np.array([[mx]]), np.array([[my]]))
        )
        assert event.loss == pytest.approx(loss, rel=1e-12)
        assert state_new.step.values[0, 0] == pytest.approx(eta_cand, rel=1e-12)
        assert net_new.layer_weights[0][0, 0] == pytest.approx(w_prime, rel=1e-12)
        # the output layer's update is pending: compare its effective matrix
        pending = state_new.psi.pending
        w3_new = state_new.psi.w3 - pending.u[:, : pending.n] @ pending.v[:, : pending.n].T
        assert np.allclose(w3_new, w3 - meta_lr * np.array(dw3), atol=1e-15)
        assert np.allclose(state_new.psi.w2, w2 - meta_lr * np.array(dw2), atol=1e-15)
        assert np.allclose(state_new.psi.w1, w1 - meta_lr * np.array(dw1), atol=1e-15)


class TestOagdNonScalar:
    def test_uniform_element_bypass_matches_scalar_bypass(self):
        widths = (4, 3)
        net = init_network(widths, make_rng(7))
        (elem,), (scal,) = bypassed_engines("samt_e", widths), bypassed_engines("samt_s", widths)
        batch = classification_batches(widths, 1, seed=8)[0]
        net_e, _, _ = elem.step(net, (0,), batch, batch)
        net_s, _, _ = scal.step(net, (0,), batch, batch)
        assert np.array_equal(net_e.layer_weights[0], net_s.layer_weights[0])

    def test_element_bypass_keeps_step_and_psi_for_200_steps(self):
        widths = (5, 4, 3)
        net = init_network(widths, make_rng(13))
        shape = net.layer_weights[1].shape
        eta0 = StepSize.initial(StepSizeKind.ELEMENT, shape, 0.1).init_values
        # the bypassed block is plain SGD at eta0: no psi to keep, no heads to report
        engine = bypassed_engines("samt_e", widths)[1]
        assert not hasattr(engine, "state")
        events = []
        for main, meta in zip(*[iter(classification_batches(widths, 400, seed=15))] * 2):
            net, engine_new, event = engine.step(net, (1,), main, meta)
            events.append(event)
            assert engine_new is engine
            assert np.full(shape, event.step).tobytes() == eta0.tobytes()
        assert len(events) == 200
        assert all(e.beta is None and e.eta_hat is None and e.meta_loss is None for e in events)

    def test_row_step_matches_expand_then_multiply(self):
        from samt.numerics import expand

        net = init_network((2, 2), make_rng(11), loss_kind=MSE)
        state = make_oagd(StepSizeKind.ROW, (2, 2), seed=12, meta_lag=1)
        x = np.array([[1.0, -0.5], [0.3, 2.0]])
        y = np.array([[0.2, 0.1], [0.0, -1.0]])
        g = block_loss_and_gradients(net, (x, y), (0,))[1][0]
        expected = net.layer_weights[0] - expand(state.step.values, (2, 2)) * g
        net_new, _, _ = oagd_step(state, net, (0,), (x, y), (x, y))
        assert np.allclose(net_new.layer_weights[0], expected, atol=1e-15)

    def test_rejects_grouped_blocks(self):
        net = init_network((3, 3, 2), make_rng(1))
        for kind in (StepSizeKind.ELEMENT, StepSizeKind.ROW, StepSizeKind.COLUMN):
            with pytest.raises(ValueError, match="single-layer"):
                oagd_step(make_oagd(kind, (3, 3)), net, (0, 1), None, None)

    def test_step_entries_stay_open_over_1000_steps(self):
        widths = (3, 2)
        net = init_network(widths, make_rng(13))
        state = make_oagd(StepSizeKind.ELEMENT, net.layer_weights[0].shape, seed=14)
        rng = make_rng(15)
        for _ in range(1000):
            x = rng.standard_normal((3, 4))
            y = rng.integers(0, 2, 4)
            net, state, _ = oagd_step(state, net, (0,), (x, y), (x, y))
            v = state.step.values
            assert (v > 0.0).all() and (v < 1.0).all()


class TestEngineContracts:
    def test_deterministic_given_seed(self):
        def run():
            widths = (5, 4, 3)
            net = init_network(widths, make_rng(21))
            states = [
                make_oagd(StepSizeKind.ELEMENT, net.layer_weights[0].shape, seed=22),
                make_oagd(StepSizeKind.ELEMENT, net.layer_weights[1].shape, seed=23),
            ]
            for batch in classification_batches(widths, 50, seed=24):
                for bi, block in enumerate(((0,), (1,))):
                    net, states[bi], _ = oagd_step(states[bi], net, block, batch, batch)
            return net

        a, b = run(), run()
        for wa, wb in zip(a.layer_weights, b.layer_weights):
            assert np.array_equal(wa, wb)

    def test_reported_loss_is_pre_update_loss(self):
        # one protocol for every engine: (network, same engine class, StepEvent)
        widths = (4, 3)
        net = init_network(widths, make_rng(31))
        shape = net.layer_weights[0].shape
        main, meta = classification_batches(widths, 2, seed=33)
        w, g = net.layer_weights[0], grad_of(net, main)
        engines = {
            "sgd": SgdEngine(0.1),
            "adam": AdamEngine.fresh(net, (0,), 0.01),
            # the previous gradient equals this one, so the rate grows before it is used
            "hd": HdEngine((g.copy(),), rate=0.1, hyper_rate=1e-2),
            "samt_s": OagdEngine(make_oagd(StepSizeKind.SCALAR, shape, seed=32)),
            "samt_e": OagdEngine(make_oagd(StepSizeKind.ELEMENT, shape, seed=32)),
            "samt_e_bypass": bypassed_engines("samt_e", widths)[0],
        }
        for name, engine in engines.items():
            net_new, engine_new, event = engine.step(net, (0,), main, meta)
            assert isinstance(net_new, NetworkModel) and type(engine_new) is type(engine), name
            assert isinstance(event, StepEvent), name
            assert event.loss == pytest.approx(batch_loss(net, main), rel=1e-12), name
            if name == "adam":
                m_hat = engine_new.m[0] / (1 - engine.beta1)
                v_hat = engine_new.v[0] / (1 - engine.beta2)
                direction = m_hat / (np.sqrt(v_hat) + engine.eps)
                assert np.array_equal(np.ravel(event.step), [0.01])
            else:
                direction = g
            if name == "hd":
                assert np.array_equal(np.ravel(event.step), [engine_new.rate])
                assert engine_new.rate > engine.rate
            if isinstance(engine, OagdEngine):
                assert np.array_equal(np.ravel(event.step), np.ravel(engine_new.state.step.values)), name
            if name == "samt_e_bypass":
                assert event.step == 0.1
            # the reported step is the one the update applied, bit for bit
            assert np.array_equal(net_new.layer_weights[0], w - event.step * direction), name

    def test_meta_lag_commits_previous_step(self):
        net = init_network((3, 2), make_rng(41), loss_kind=MSE)
        shape = net.layer_weights[0].shape
        state = make_oagd(StepSizeKind.SCALAR, shape, seed=42, meta_lag=1)
        rng = make_rng(43)
        x, y = rng.standard_normal((3, 2)), rng.standard_normal((2, 2))
        g = block_loss_and_gradients(net, (x, y), (0,))[1][0]
        net_new, state_new, _ = oagd_step(state, net, (0,), (x, y), (x, y))
        # the committed update used the stored 0.1, not the fresh candidate
        assert np.allclose(net_new.layer_weights[0], net.layer_weights[0] - 0.1 * g, atol=1e-15)
        assert state_new.step.values[0, 0] != pytest.approx(0.1)
