import math

import numpy as np
import pytest
from dataclasses import replace

from samt.etamodel import init_eta_model
from samt.model import MSE, NetworkModel, batch_loss, block_gradient, init_network
from samt.numerics import make_rng, matrix
from samt.optim import AdamEngine, HdEngine, OagdEngine, OagdState, SgdEngine
from samt.stepsize import StepSize, StepSizeKind


def scalar_net(w):
    """A one-layer linear MSE net: one sample (x, y) has gradient 2 (w x - y) x^T."""
    return NetworkModel((matrix(w),), loss_kind=MSE)


def grad_of(net, batch):
    return block_gradient(net, batch, (0,))[0]


class TestSgdStep:
    def test_zero_gradient_fixed_point(self):
        net = scalar_net([[1.0, 2.0]])
        batch = (np.zeros((2, 1)), np.zeros((1, 1)))
        net_new, _, _ = SgdEngine(0.5).step(net, (0,), batch)
        assert np.array_equal(net_new.layer_weights[0], net.layer_weights[0])

    def test_hand_value(self):
        # w=1, x=1, y=0: gradient 2, so 1 - 0.1 * 2
        batch = (matrix([[1.0]]), matrix([[0.0]]))
        net_new, _, _ = SgdEngine(0.1).step(scalar_net([[1.0]]), (0,), batch)
        assert net_new.layer_weights[0][0, 0] == pytest.approx(0.8)

    def test_step_is_linear_in_rate(self):
        # from the same point, twice the rate moves the weights twice as far
        net = scalar_net([[1.0, -2.0]])
        batch = (matrix([[0.3, -1.0], [0.7, 0.4]]), matrix([[0.5, -0.2]]))
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
        batch = (matrix([[1.0]]), matrix([[-0.5]]))
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
        batch = (matrix([[1.0]]), matrix([[-1.0]]))
        net, engine, _ = engine.step(net, (0,), batch)
        _, engine2, _ = engine.step(net, (0,), batch)
        assert engine2.rate > engine.rate

    def test_first_step_keeps_rate(self):
        net = scalar_net([[0.0]])
        engine = HdEngine.fresh(net, (0,), rate=0.07)
        _, engine_new, _ = engine.step(net, (0,), (matrix([[1.0]]), matrix([[-2.5]])))
        assert engine_new.rate == 0.07

    def test_rate_floor(self):
        # previous gradient 1e6, current gradient -1 (w=0, x=1, y=0.5)
        engine = HdEngine(g_prev=(matrix([[1e6]]),), rate=1e-8, hyper_rate=1.0)
        _, engine_new, _ = engine.step(scalar_net([[0.0]]), (0,), (matrix([[1.0]]), matrix([[0.5]])))
        assert engine_new.rate == engine.rate_floor


def make_oagd(kind, layer_shape, seed=0, bypass=False, eta0=0.1, **kwargs):
    psi = init_eta_model(kind, layer_shape, make_rng(seed), hidden=6, bypass=bypass)
    step = StepSize.initial(kind, layer_shape, eta0)
    return OagdState(step, psi, **kwargs)


def oagd_step(state, net, block, main_batch, meta_batch):
    """One OagdEngine step, returning (net, state, loss)."""
    net_new, engine, loss = OagdEngine(state).step(net, block, main_batch, meta_batch)
    return net_new, engine.state, loss


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
        state = make_oagd(StepSizeKind.SCALAR, net_a.layer_weights[0].shape, bypass=True)
        states = [state, make_oagd(StepSizeKind.SCALAR, net_a.layer_weights[1].shape, bypass=True)]
        batches = classification_batches(widths, 200 * 2, seed=3)
        it = iter(batches)
        for _ in range(200):
            for bi, block in enumerate(((0,), (1,))):
                batch = next(it)
                net_a, states[bi], _ = oagd_step(states[bi], net_a, block, batch, batch)
                updates = {
                    l: net_b.layer_weights[l] - 0.1 * g
                    for l, g in block_gradient(net_b, batch, block).items()
                }
                net_b = net_b.with_layers(updates)
        worst = max(
            np.max(np.abs(a - b)) for a, b in zip(net_a.layer_weights, net_b.layer_weights)
        )
        assert worst <= 1e-12

    def test_zero_gradient_updates_step_but_not_weights(self):
        net = NetworkModel((matrix([[1.5]]),), loss_kind=MSE)
        state = make_oagd(StepSizeKind.SCALAR, (1, 1), seed=5)
        batch = (matrix([[0.0]]), matrix([[0.0]]))
        net_new, state_new, loss = oagd_step(state, net, (0,), batch, batch)
        assert loss == 0.0
        assert np.array_equal(net_new.layer_weights[0], net.layer_weights[0])
        assert not np.array_equal(state_new.step.values, state.step.values)

    def test_hand_computed_full_chain_on_1x1_net(self):
        # independent pure-python oracle for every quantity in one step
        w0, x, y = 2.0, 1.5, 0.5
        mx, my = -0.8, 0.3
        slope, eta0, meta_lr = 0.01, 0.1, 1e-3
        net = NetworkModel((matrix([[w0]]),), activation_slope=slope, loss_kind=MSE)
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

        net_new, state_new, loss_out = oagd_step(
            state, net, (0,), (matrix([[x]]), matrix([[y]])), (matrix([[mx]]), matrix([[my]]))
        )
        assert loss_out == pytest.approx(loss, rel=1e-12)
        assert state_new.step.values[0, 0] == pytest.approx(eta_cand, rel=1e-12)
        assert net_new.layer_weights[0][0, 0] == pytest.approx(w_prime, rel=1e-12)
        assert np.allclose(state_new.psi.w3, w3 - meta_lr * np.array(dw3), atol=1e-15)
        assert np.allclose(state_new.psi.w2, w2 - meta_lr * np.array(dw2), atol=1e-15)
        assert np.allclose(state_new.psi.w1, w1 - meta_lr * np.array(dw1), atol=1e-15)


class TestOagdNonScalar:
    def test_uniform_element_bypass_matches_scalar_bypass(self):
        widths = (4, 3)
        net = init_network(widths, make_rng(7))
        shape = net.layer_weights[0].shape
        elem = make_oagd(StepSizeKind.ELEMENT, shape, bypass=True)
        scal = make_oagd(StepSizeKind.SCALAR, shape, bypass=True)
        batch = classification_batches(widths, 1, seed=8)[0]
        net_e, _, _ = oagd_step(elem, net, (0,), batch, batch)
        net_s, _, _ = oagd_step(scal, net, (0,), batch, batch)
        assert np.array_equal(net_e.layer_weights[0], net_s.layer_weights[0])

    def test_row_step_matches_expand_then_multiply(self):
        from samt.numerics import expand

        net = init_network((2, 2), make_rng(11), loss_kind=MSE)
        state = make_oagd(StepSizeKind.ROW, (2, 2), seed=12, meta_lag=1)
        x = matrix([[1.0, -0.5], [0.3, 2.0]])
        y = matrix([[0.2, 0.1], [0.0, -1.0]])
        g = block_gradient(net, (x, y), (0,))[0]
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
    def test_state_rejects_mismatched_psi_kind(self):
        psi = init_eta_model(StepSizeKind.SCALAR, (2, 2), make_rng(0), hidden=4)
        with pytest.raises(ValueError, match="does not match"):
            OagdState(StepSize.initial(StepSizeKind.ELEMENT, (2, 2), 0.1), psi)

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
        widths = (4, 3)
        net = init_network(widths, make_rng(31))
        state = make_oagd(StepSizeKind.SCALAR, net.layer_weights[0].shape, seed=32)
        batch = classification_batches(widths, 1, seed=33)[0]
        _, _, loss = oagd_step(state, net, (0,), batch, batch)
        assert loss == pytest.approx(batch_loss(net, batch), rel=1e-12)

    def test_meta_lag_commits_previous_step(self):
        net = init_network((3, 2), make_rng(41), loss_kind=MSE)
        shape = net.layer_weights[0].shape
        state = make_oagd(StepSizeKind.SCALAR, shape, seed=42, meta_lag=1)
        rng = make_rng(43)
        x, y = rng.standard_normal((3, 2)), rng.standard_normal((2, 2))
        g = block_gradient(net, (x, y), (0,))[0]
        net_new, state_new, _ = oagd_step(state, net, (0,), (x, y), (x, y))
        # the committed update used the stored 0.1, not the fresh candidate
        assert np.allclose(net_new.layer_weights[0], net.layer_weights[0] - 0.1 * g, atol=1e-15)
        assert state_new.step.values[0, 0] != pytest.approx(0.1)
