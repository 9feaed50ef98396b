import tracemalloc

import numpy as np
import pytest
from dataclasses import replace

from samt.errors import ShapeError
from samt.etamodel import (
    NUM_FEATURES,
    PSI_CHUNK_ENTRIES,
    PSI_PENDING,
    init_eta_model,
    meta_gradients,
    psi_forward,
    psi_step,
)
from samt.harness import fd_meta_gradients
from samt.model import batch_loss, block_loss_and_gradients, glorot_init, init_network
from samt.numerics import make_rng
from samt.stepsize import StepSize, StepSizeKind, grad_features, reduce_to_kind


def effective_w3(psi):
    """The output layer psi computes with: its base minus the pending terms."""
    p = psi.pending
    return psi.w3 - p.u[:, : p.n] @ p.v[:, : p.n].T if p.n else psi.w3.copy()


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
        beta, eta_hat, _ = psi_forward(psi, grad_features(np.ones((2, 3))))
        assert np.allclose(beta, 0.5) and np.allclose(eta_hat, 0.5)

    def test_outputs_always_in_open_interval(self):
        rng = make_rng(1)
        for trial in range(1000):
            kind = [StepSizeKind.SCALAR, StepSizeKind.ELEMENT][trial % 2]
            psi = init_eta_model(kind, (2, 2), rng, hidden=3)
            g = 10.0 ** rng.uniform(-3, 3) * rng.standard_normal((2, 2))
            for head in psi_forward(psi, grad_features(g))[:2]:
                assert (head > 0.0).all() and (head < 1.0).all()

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_input_or_head_raises_floating_point_error(self, bad):
        psi = init_eta_model(StepSizeKind.ELEMENT, (2, 3), make_rng(5), hidden=4)
        feats = grad_features(np.ones((2, 3)))
        feats[1, 0] = bad
        with pytest.raises(FloatingPointError, match="psi input"):
            psi_forward(psi, feats)
        psi.w3[4, 2] = bad
        with pytest.raises(FloatingPointError, match="psi raw heads"):
            psi_forward(psi, grad_features(np.ones((2, 3))))

    def test_scalar_kind_shapes(self):
        psi = init_eta_model(StepSizeKind.SCALAR, (7, 9), make_rng(2))
        beta, eta_hat, _ = psi_forward(psi, grad_features(np.ones((7, 9))))
        assert beta.shape == (1, 1) and eta_hat.shape == (1, 1)

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
        beta, eta_hat, _ = psi_forward(psi, grad_features(np.ones((3, 4))))
        assert beta.shape == shape and eta_hat.shape == shape

    def test_bypass_pins_beta_to_one(self):
        # psi is never run when bypassed: beta = 1 composes eta0 bitwise on
        # every arm a bypassed run may take, whatever eta_hat is, so the
        # run is plain SGD at eta0
        from samt.stepsize import ARM_BASELINE, ARM_FULL, ARM_LEFT, compose_step

        for kind in StepSizeKind:
            eta0 = StepSize.initial(kind, (2, 3), 0.1).init_values
            for arm in (ARM_FULL, ARM_BASELINE, ARM_LEFT):
                beta, eta_hat = np.ones(eta0.shape), np.full(eta0.shape, 0.5)
                value, _, _ = compose_step(arm, beta, eta0, eta_hat)
                assert value.tobytes() == eta0.tobytes(), (kind, arm)


class TestInitEtaModel:
    def test_output_layer_is_column_major(self):
        psi = init_eta_model(StepSizeKind.ELEMENT, (3, 4), make_rng(0), hidden=5)
        assert psi.w3.shape == (24, 5)
        assert psi.w3.flags.f_contiguous and not psi.w3.flags.c_contiguous

    def test_consumes_the_draws_of_a_row_major_init(self):
        # later psis and the network in build_state draw from the same rng
        k, hidden = 12, 5
        rng = make_rng(1)
        init_eta_model(StepSizeKind.ELEMENT, (3, 4), rng, hidden=hidden)
        reference = make_rng(1)
        glorot_init((hidden, NUM_FEATURES), reference)
        glorot_init((hidden, hidden), reference)
        glorot_init((2 * k, hidden), reference)
        assert rng.random() == reference.random()

    @pytest.mark.parametrize("slope", [0.0, 1.0, -0.01, 1.5, np.nan])
    def test_activation_slope_outside_open_unit_interval_raises(self, slope):
        # leaky_relu's max(x, slope * x) form is the activation only inside (0,1)
        with pytest.raises(ValueError, match="activation_slope"):
            init_eta_model(StepSizeKind.SCALAR, (3, 4), make_rng(0), hidden=5, activation_slope=slope)

    def test_desk_element_head_allocates_no_transient_copy(self):
        # w3 of an element head on a 100x784 layer is 156,800 x 64 (80 MB)
        tracemalloc.start()
        try:
            psi = init_eta_model(StepSizeKind.ELEMENT, (100, 784), make_rng(2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert psi.w3.shape == (156_800, 64)
        assert peak <= psi.w3.nbytes + 2**20


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

    @pytest.mark.parametrize("rows", [510, 512, 1024, 1030, 10_000, 40_000])
    def test_in_place_update_is_bitwise_the_dense_update(self, rows):
        # w1 and w2 update at once, bitwise as the dense expression; w3's
        # update is pending, so its effective matrix is checked instead:
        # it rounds u * (lr * v), not lr * (u * v)

        def fresh():
            return init_eta_model(
                StepSizeKind.ELEMENT, (rows // 2, 1), make_rng(rows), hidden=7, meta_learning_rate=0.37
            )

        column_major, psi = fresh(), fresh()
        row_major = replace(psi, w3=np.ascontiguousarray(psi.w3))
        assert column_major.w3.shape == (rows, 7)
        rng = make_rng(rows + 1)
        grads = tuple(
            (
                rng.standard_normal((w.shape[0], 1)) * 10.0 ** rng.uniform(-3, 3, (w.shape[0], 1)),
                rng.standard_normal((w.shape[1], 1)) * 10.0 ** rng.uniform(-3, 3, (w.shape[1], 1)),
            )
            for w in column_major.weights
        )
        for psi, layout in ((column_major, "F_CONTIGUOUS"), (row_major, "C_CONTIGUOUS")):
            assert psi.w3.flags[layout]
            expected = [w - 0.37 * (u @ v.T) for w, (u, v) in zip(psi.weights, grads)]
            ids = [id(w) for w in psi.weights]
            (u, v), w3 = grads[2], psi.w3.copy()
            updated = psi_step(psi, grads)
            assert updated is psi and [id(w) for w in updated.weights] == ids
            for got, want in zip(updated.weights[:2], expected[:2]):
                assert got.tobytes() == want.tobytes()
            # two roundings of the product and one of the difference apart
            bound = 4 * np.finfo(float).eps * (np.abs(w3) + 0.37 * np.abs(u @ v.T))
            assert (np.abs(effective_w3(updated) - expected[2]) <= bound).all()

    @pytest.mark.parametrize("rows", [510, 1030, 10_000, 40_000])
    def test_fold_every_pending_steps_matches_the_dense_updates(self, rows):
        # the fold takes PSI_CHUNK_ENTRIES // rows whole columns a pass: up
        # to 1,030 rows all seven in one pass, 10,000 rows 3 + 3 + 1
        # columns, 40,000 rows one column per pass
        assert PSI_CHUNK_ENTRIES // 1030 >= 7
        assert PSI_CHUNK_ENTRIES // 10_000 == 3 and PSI_CHUNK_ENTRIES // 40_000 == 0
        psi = init_eta_model(
            StepSizeKind.ELEMENT, (rows // 2, 1), make_rng(rows), hidden=7, meta_learning_rate=0.37
        )
        base, dense = psi.w3.copy(), psi.w3.copy()
        rng = make_rng(rows + 2)
        for step in range(1, 2 * PSI_PENDING + 1):
            grads = tuple(
                (rng.standard_normal((w.shape[0], 1)), rng.standard_normal((w.shape[1], 1)))
                for w in psi.weights
            )
            dense -= 0.37 * (grads[2][0] @ grads[2][1].T)
            psi_step(psi, grads)
            assert psi.pending.n == step % PSI_PENDING
            if psi.pending.n:
                # nothing folded since the last fold
                assert psi.w3.tobytes() == base.tobytes()
            else:
                # r products of unit-scale normals and a 0.37 rate
                assert np.abs(psi.w3 - dense).max() <= 1e-14
                base = psi.w3.copy()
            assert np.abs(effective_w3(psi) - dense).max() <= 1e-14

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

    def test_pending_steps_never_hold_a_dense_output_gradient(self):
        # PSI_PENDING + 1 steps: the pending terms are allocated, fill, fold
        # into w3 and refill; their 2k x PSI_PENDING factor and the fold's
        # scratch column add to the dozen head-sized arrays, and the peak
        # still stays below half of w3
        rng = make_rng(41)
        net = init_network((784, 100, 10), rng)
        w = net.layer_weights[0]
        psi = init_eta_model(StepSizeKind.ELEMENT, w.shape, rng, hidden=24)
        eta0 = StepSize.initial(StepSizeKind.ELEMENT, w.shape, 0.1).init_values
        batches = [
            ((rng.standard_normal((784, 8)), rng.integers(0, 10, 8)),) * 2
            for _ in range(PSI_PENDING + 1)
        ]
        tracemalloc.start()
        try:
            for main_batch, meta_batch in batches:
                _, grads = block_loss_and_gradients(net, main_batch, (0,))
                feats = grad_features(grads[0])
                meta = meta_gradients(psi, feats, (0,), [w], [grads[0]], eta0, meta_batch, net)
                psi_step(psi, meta.psi_grads)
                del meta, grads
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert psi.pending.n == 1
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


class TestPendingUpdates:
    @staticmethod
    def stepped(kind, steps, seed=21):
        """make_setup's psi after `steps` psi_steps with large random factors."""
        setup = make_setup(kind, seed=seed)
        psi = replace(setup[1], meta_learning_rate=0.5)
        rng = make_rng(seed + 1)
        for _ in range(steps):
            psi_step(psi, tuple(
                (0.3 * rng.standard_normal((w.shape[0], 1)), 0.3 * rng.standard_normal((w.shape[1], 1)))
                for w in psi.weights
            ))
        return psi, setup

    @pytest.mark.parametrize("steps", [1, 2, 3])
    @pytest.mark.parametrize("kind", list(StepSizeKind))
    def test_pending_chain_matches_finite_differences(self, kind, steps):
        psi, (net, _, feats, block, weights, g_list, eta0, meta_batch) = self.stepped(kind, steps)
        assert psi.pending.n == steps
        worst = fd_meta_gradients(psi, feats, block, weights, g_list, eta0, meta_batch, net)
        assert worst <= 1e-5

    @pytest.mark.parametrize("steps", [1, 2, 3])
    @pytest.mark.parametrize("kind", list(StepSizeKind))
    def test_heads_equal_those_of_the_materialised_output_layer(self, kind, steps):
        psi, setup = self.stepped(kind, steps)
        feats = setup[2]
        effective = effective_w3(psi)
        # the pending terms move the raw heads by far more than rounding
        assert np.abs(effective - psi.w3).max() > 1e-3
        materialised = replace(psi, w3=effective, pending=replace(psi.pending, n=0))
        cached = psi_forward(psi, feats)[2].core
        for got, want in zip(psi_forward(psi, feats)[:2], psi_forward(materialised, feats)[:2]):
            assert np.abs(got - want).max() <= 1e-15
        assert np.abs(cached - psi_forward(materialised, feats)[2].core).max() <= 1e-15

    def test_replaced_copy_keeps_its_own_pending_terms(self):
        psi, setup = self.stepped(StepSizeKind.ROW, 1)
        copy = replace(psi, meta_learning_rate=0.1)
        before = effective_w3(psi)
        factors = tuple((np.ones((w.shape[0], 1)), np.ones((w.shape[1], 1))) for w in psi.weights)
        psi_step(copy, factors)
        assert psi.pending.n == 1 and copy.pending.n == 2
        assert effective_w3(psi).tobytes() == before.tobytes()
        assert np.allclose(effective_w3(copy), before - 0.1 * (factors[2][0] @ factors[2][1].T), atol=1e-15)


def test_bypass_keeps_step_at_initial_forever():
    from samt.data import CLASSIFICATION, Dataset
    from samt.harness import TrainConfig, build_state
    from samt.optim import SgdEngine
    from samt.stepsize import step_update

    net = init_network((2, 2), make_rng(8))
    eta0 = StepSize.initial(StepSizeKind.ELEMENT, (2, 2), 0.1).init_values
    config = TrainConfig(widths=(2, 2), optimizer="samt_e", eta0=0.1, psi_bypass=True)
    ds = Dataset(np.zeros((2, 2)), np.zeros(2, dtype=np.int64), CLASSIFICATION)
    (engine,) = build_state(config, ds).engines
    assert type(engine) is SgdEngine
    rng = np.random.default_rng(0)
    for _ in range(200):
        batch = (rng.standard_normal((2, 3)), rng.integers(0, 2, 3))
        net, engine, event = engine.step(net, (0,), batch, batch)
    values = step_update(np.ones(eta0.shape), eta0, np.full(eta0.shape, 0.5))
    assert np.array_equal(values, eta0)
    assert np.array_equal(np.full(eta0.shape, engine.eta), eta0)
    assert event.step == engine.eta


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
