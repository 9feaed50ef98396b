import tracemalloc

import numpy as np
import pytest
from dataclasses import replace

from samt.errors import ShapeError
from samt.etamodel import (
    PSI_CHUNK_ROWS,
    init_eta_model,
    meta_gradients,
    psi_forward,
    psi_step,
)
from samt.harness import fd_meta_gradients
from samt.model import batch_loss, block_loss_and_gradients, init_network
from samt.numerics import make_rng
from samt.stepsize import StepSize, StepSizeKind, grad_features, reduce_to_kind


def make_setup(kind, seed=0, widths=(4, 5, 3), block=(1,), hidden=6):
    """Small net + model + one main-batch gradient for meta tests."""
    rng = make_rng(seed)
    net = init_network(widths, rng)
    x = rng.standard_normal((widths[0], 3))
    y = rng.integers(0, widths[-1], 3)
    _, grads = block_loss_and_gradients(net, (x, y), block)
    weights = [net.layer_weights[l] for l in block]
    g_list = [grads[l] for l in block]
    feats = grad_features(g_list[0])
    layer_shape = weights[0].shape
    psi = init_eta_model(kind, layer_shape, rng, hidden=hidden)
    eta0 = StepSize.initial(kind, layer_shape, 0.1).init_values
    mx = rng.standard_normal((widths[0], 3))
    my = rng.integers(0, widths[-1], 3)
    return net, psi, feats, block, weights, g_list, eta0, (mx, my)


class TestPsiForward:
    def test_zero_weights_give_half(self):
        psi = init_eta_model(StepSizeKind.ELEMENT, (2, 3), make_rng(0), hidden=4)
        psi = replace(psi, w1=np.zeros_like(psi.w1), w2=np.zeros_like(psi.w2), w3=np.zeros_like(psi.w3))
        out = psi_forward(psi, grad_features(np.ones((2, 3))))
        assert np.allclose(out.beta, 0.5) and np.allclose(out.eta_hat, 0.5)

    def test_outputs_always_in_open_interval(self):
        rng = make_rng(1)
        for trial in range(1000):
            kind = [StepSizeKind.SCALAR, StepSizeKind.ELEMENT][trial % 2]
            psi = init_eta_model(kind, (2, 2), rng, hidden=3)
            g = 10.0 ** rng.uniform(-3, 3) * rng.standard_normal((2, 2))
            out = psi_forward(psi, grad_features(g))
            for head in (out.beta, out.eta_hat):
                assert (head > 0.0).all() and (head < 1.0).all()

    def test_scalar_kind_shapes(self):
        psi = init_eta_model(StepSizeKind.SCALAR, (7, 9), make_rng(2))
        out = psi_forward(psi, grad_features(np.ones((7, 9))))
        assert out.beta.shape == (1, 1) and out.eta_hat.shape == (1, 1)

    @pytest.mark.parametrize(
        "kind,shape",
        [
            (StepSizeKind.ELEMENT, (3, 4)),
            (StepSizeKind.ROW, (3, 1)),
            (StepSizeKind.COLUMN, (1, 4)),
        ],
    )
    def test_head_shapes_per_kind(self, kind, shape):
        psi = init_eta_model(kind, (3, 4), make_rng(3), hidden=4)
        out = psi_forward(psi, grad_features(np.ones((3, 4))))
        assert out.beta.shape == shape and out.eta_hat.shape == shape

    def test_bypass_pins_beta_to_one(self):
        psi = init_eta_model(StepSizeKind.SCALAR, (2, 2), make_rng(4), bypass=True)
        out = psi_forward(psi, grad_features(np.ones((2, 2))))
        assert (out.beta == 1.0).all() and (out.eta_hat == 0.5).all()


class TestMetaGradients:
    def test_zero_gradient_kills_sensitivity(self):
        net, psi, feats, block, weights, _, eta0, meta_batch = make_setup(StepSizeKind.ELEMENT)
        zero_g = [np.zeros_like(w) for w in weights]
        meta = meta_gradients(psi, grad_features(zero_g[0]), block, weights, zero_g, eta0, meta_batch, net)
        for u, v in meta.psi_grads:
            assert not (u @ v.T).any()
        assert np.array_equal(meta.w_prime[block[0]], weights[0])

    def test_scalar_chain_hand_value(self):
        # dL/d(step) for a scalar step is sum(-dLdW * g)
        dldw = np.array([[1.0, 1.0]])
        g = np.array([[2.0, 3.0]])
        assert reduce_to_kind(-dldw * g, StepSizeKind.SCALAR)[0, 0] == pytest.approx(-5.0)

    @pytest.mark.parametrize("kind", list(StepSizeKind))
    def test_matches_finite_differences(self, kind):
        net, psi, feats, block, weights, g_list, eta0, meta_batch = make_setup(kind, seed=7)
        worst = fd_meta_gradients(psi, feats, block, weights, g_list, eta0, meta_batch, net)
        assert worst <= 1e-5

    @pytest.mark.parametrize("arm", ["full", "left_only", "right_only", "baseline"])
    def test_arm_chains_match_finite_differences(self, arm):
        net, psi, feats, block, weights, g_list, eta0, meta_batch = make_setup(
            StepSizeKind.ELEMENT, seed=11
        )
        worst = fd_meta_gradients(psi, feats, block, weights, g_list, eta0, meta_batch, net, arm=arm)
        assert worst <= 1e-5

    def test_meta_loss_matches_direct_evaluation(self):
        net, psi, feats, block, weights, g_list, eta0, meta_batch = make_setup(
            StepSizeKind.ROW, seed=3
        )
        meta = meta_gradients(psi, feats, block, weights, g_list, eta0, meta_batch, net)
        direct = batch_loss(net.with_layers(meta.w_prime), meta_batch)
        assert meta.meta_loss == pytest.approx(direct)


def factors_like(psi, fill):
    """One (u, v) pair per psi matrix, every entry equal to `fill`."""
    return tuple(
        (np.full((w.shape[0], 1), fill), np.full((w.shape[1], 1), fill)) for w in psi.weights
    )


class TestPsiStep:
    def test_zero_grads_fixed_point(self):
        psi = init_eta_model(StepSizeKind.SCALAR, (2, 2), make_rng(0), hidden=4)
        before = [w.copy() for w in psi.weights]
        updated = psi_step(psi, factors_like(psi, 0.0))
        for a, b in zip(before, updated.weights):
            assert np.array_equal(a, b)

    def test_zero_rate_fixed_point(self):
        psi = init_eta_model(StepSizeKind.SCALAR, (2, 2), make_rng(1), hidden=4, meta_learning_rate=0.0)
        before = [w.copy() for w in psi.weights]
        updated = psi_step(psi, factors_like(psi, 1.0))
        for a, b in zip(before, updated.weights):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "rows",
        [PSI_CHUNK_ROWS - 2, PSI_CHUNK_ROWS, 2 * PSI_CHUNK_ROWS, 2 * PSI_CHUNK_ROWS + 6],
    )
    def test_in_place_update_is_bitwise_the_dense_update(self, rows):
        # w3 has `rows` rows: below, equal to and above the chunk size,
        # the last not a multiple of it
        rng = make_rng(rows)
        psi = init_eta_model(
            StepSizeKind.ELEMENT, (rows // 2, 1), rng, hidden=7, meta_learning_rate=0.37
        )
        assert psi.w3.shape == (rows, 7)
        grads = tuple(
            (
                rng.standard_normal((w.shape[0], 1)) * 10.0 ** rng.uniform(-3, 3, (w.shape[0], 1)),
                rng.standard_normal((w.shape[1], 1)) * 10.0 ** rng.uniform(-3, 3, (w.shape[1], 1)),
            )
            for w in psi.weights
        )
        expected = [w - 0.37 * (u @ v.T) for w, (u, v) in zip(psi.weights, grads)]
        ids = [id(w) for w in psi.weights]
        updated = psi_step(psi, grads)
        assert [id(w) for w in updated.weights] == ids
        for got, want in zip(updated.weights, expected):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "bad",
        [
            lambda u, v: (v, u),  # factors swapped
            lambda u, v: (u.T, v.T),  # rows instead of columns
            lambda u, v: (u[:-1], v),  # one entry short
            lambda u, v: (u @ v.T, v),  # a dense gradient
        ],
    )
    def test_mismatched_factors_raise(self, bad):
        psi = init_eta_model(StepSizeKind.ROW, (3, 4), make_rng(2), hidden=5)
        before = [w.copy() for w in psi.weights]
        grads = list(factors_like(psi, 1.0))
        grads[2] = bad(*grads[2])
        with pytest.raises(ShapeError):
            psi_step(psi, tuple(grads))
        for a, b in zip(before, psi.weights):
            assert np.array_equal(a, b)

    def test_meta_and_psi_step_never_hold_a_dense_output_gradient(self):
        # w3 of an element head on a 100x784 layer is 156,800 x hidden;
        # a dense gradient or a full-size temporary would put the peak
        # above w3.nbytes.  The head's own arrays (beta, eta_hat, the
        # step, w', du3 and their temporaries) are about a dozen
        # 78,400-entry arrays whatever `hidden` is, so hidden=24 keeps
        # them below half of w3.
        rng = make_rng(40)
        net = init_network((784, 100, 10), rng)
        w = net.layer_weights[0]
        x = rng.standard_normal((784, 8))
        y = rng.integers(0, 10, 8)
        _, grads = block_loss_and_gradients(net, (x, y), (0,))
        psi = init_eta_model(StepSizeKind.ELEMENT, w.shape, rng, hidden=24)
        eta0 = StepSize.initial(StepSizeKind.ELEMENT, w.shape, 0.1).init_values
        feats = grad_features(grads[0])
        meta_batch = (rng.standard_normal((784, 8)), rng.integers(0, 10, 8))
        tracemalloc.start()
        try:
            meta = meta_gradients(psi, feats, (0,), [w], [grads[0]], eta0, meta_batch, net)
            psi_step(psi, meta.psi_grads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert psi.w3.shape == (156_800, 24)
        assert peak < psi.w3.nbytes / 2

    def test_one_step_reduces_meta_loss(self):
        net, psi, feats, block, weights, g_list, eta0, meta_batch = make_setup(
            StepSizeKind.SCALAR, seed=5
        )
        psi = replace(psi, meta_learning_rate=1e-3)
        meta = meta_gradients(psi, feats, block, weights, g_list, eta0, meta_batch, net)
        updated = psi_step(psi, meta.psi_grads)
        after = meta_gradients(updated, feats, block, weights, g_list, eta0, meta_batch, net)
        assert after.meta_loss <= meta.meta_loss

    def test_many_random_steps_stay_finite(self):
        rng = make_rng(6)
        net = init_network((3, 4, 2), rng)
        psi = init_eta_model(StepSizeKind.ELEMENT, net.layer_weights[1].shape, rng, hidden=5)
        eta0 = StepSize.initial(StepSizeKind.ELEMENT, net.layer_weights[1].shape, 0.1).init_values
        for _ in range(10_000):
            x = rng.standard_normal((3, 2))
            y = rng.integers(0, 2, 2)
            _, grads = block_loss_and_gradients(net, (x, y), (1,))
            feats = grad_features(grads[1])
            meta = meta_gradients(
                psi, feats, (1,), [net.layer_weights[1]], [grads[1]], eta0, (x, y), net
            )
            psi = psi_step(psi, meta.psi_grads)
        for w in psi.weights:
            assert np.isfinite(w).all()


def test_bypass_keeps_step_at_initial_forever():
    from samt.stepsize import step_update

    psi = init_eta_model(StepSizeKind.ELEMENT, (2, 2), make_rng(8), bypass=True)
    eta0 = np.full((2, 2), 0.1)
    values = eta0.copy()
    for _ in range(200):
        out = psi_forward(psi, grad_features(np.random.default_rng(0).standard_normal((2, 2))))
        values = step_update(out.beta, eta0, out.eta_hat)
    assert np.array_equal(values, eta0)


def test_meta_gradients_over_multi_layer_scalar_block():
    # one scalar step serving a two-layer group: the step sensitivity sums
    # over both layers; verified against central differences
    rng = make_rng(33)
    net = init_network((4, 5, 3), rng)
    block = (0, 1)
    x = rng.standard_normal((4, 3))
    y = rng.integers(0, 3, 3)
    _, grads_map = block_loss_and_gradients(net, (x, y), block)
    weights = [net.layer_weights[l] for l in block]
    g_list = [grads_map[l] for l in block]
    stacked = np.concatenate([g.ravel() for g in g_list]).reshape(-1, 1)
    feats = grad_features(stacked)
    psi = init_eta_model(StepSizeKind.SCALAR, weights[0].shape, rng, hidden=6)
    eta0 = StepSize.initial(StepSizeKind.SCALAR, weights[0].shape, 0.1).init_values
    mx = rng.standard_normal((4, 3))
    my = rng.integers(0, 3, 3)

    from samt.harness import fd_meta_gradients

    worst = fd_meta_gradients(psi, feats, block, weights, g_list, eta0, (mx, my), net)
    assert worst <= 1e-5
