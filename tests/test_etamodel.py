import tracemalloc
import warnings

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
from samt.model import batch_loss, block_loss_and_gradients, glorot_init, init_network, leaky_relu
from samt.numerics import make_rng
from samt.stepsize import PROJECTION_STYLES, StepSizeKind, grad_features, project_unit, reduce_to_kind


def effective_w3(psi):
    """The output layer psi computes with: its base minus the pending terms."""
    p = psi.pending
    return psi.w3 - p.u[:, : p.n] @ p.v[:, : p.n].T if p.n else psi.w3.copy()


def materialised(psi):
    """A copy of psi whose output-layer base is psi's effective output layer
    and that holds no pending terms, in a copy of psi's joint array and with
    a heads buffer of its own."""
    joint, hidden = psi.pending.joint.copy(order="F"), psi.w3.shape[1]
    joint[:, :hidden] = effective_w3(psi)
    return replace(psi, pending=replace(psi.pending, joint=joint, heads=psi.pending.heads.copy(), n=0))


def make_setup(kind, seed=0, widths=(4, 5, 3), block=(1,), hidden=6):
    """Small net + model + one main-batch gradient for meta tests."""
    rng = make_rng(seed)
    net = init_network(widths, rng)
    x = rng.standard_normal((widths[0], 3))
    y = rng.integers(0, widths[-1], 3)
    _, grads = block_loss_and_gradients(net, (x, y), block)
    feats = grad_features(grads[block[0]])
    layer_shape = net.layer_weights[block[0]].shape
    psi = init_eta_model(kind, layer_shape, rng, hidden=hidden)
    eta0 = 0.1
    mx = rng.standard_normal((widths[0], 3))
    my = rng.integers(0, widths[-1], 3)
    return net, psi, feats, block, grads, eta0, (mx, my)


class TestPsiForward:
    def test_zero_weights_give_half(self):
        psi = init_eta_model(StepSizeKind.ELEMENT, (2, 3), make_rng(0), hidden=4)
        psi = replace(psi, w1=np.zeros_like(psi.w1), w2=np.zeros_like(psi.w2))
        psi.w3[...] = 0.0
        beta, eta_hat, *_ = psi_forward(psi, grad_features(np.ones((2, 3))))
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

    def test_h2_past_float32s_range_raises_naming_the_cast_without_a_warning(self):
        psi = init_eta_model(StepSizeKind.ELEMENT, (2, 3), make_rng(5), hidden=4, dtype=np.float32)
        psi.w2 *= 1e300  # h2 stays finite in float64, far past float32's largest value
        feats = grad_features(np.ones((2, 3)))
        h1 = leaky_relu(psi.w1 @ feats, psi.activation_slope)
        assert np.isfinite(psi.w2 @ h1).all() and np.abs(psi.w2 @ h1).max() > np.finfo(np.float32).max
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="psi hidden output h2 overflows its float32 cast"):
                psi_forward(psi, feats)

    @pytest.mark.parametrize("style", PROJECTION_STYLES)
    def test_leaves_the_slope_at_the_raw_heads_in_the_heads_buffer(self, style):
        hidden = 5
        psi = replace(init_eta_model(StepSizeKind.ROW, (3, 4), make_rng(6), hidden=hidden), projection_style=style)
        psi_step(psi, factors_like(psi, 0.1))  # one pending term
        p, before = psi.pending, psi.pending.joint.copy(order="F")
        beta, eta_hat, _, h2 = psi_forward(psi, grad_features(make_rng(7).standard_normal((3, 4))))
        raw = p.joint[:, : hidden + 1] @ np.concatenate((h2, -(p.v[:, :1].T @ h2)))
        heads, slope = project_unit(raw, style)
        assert p.n == 1 and p.heads.tobytes() == slope.tobytes()
        assert np.concatenate((beta, eta_hat)).tobytes() == heads.tobytes()
        assert p.joint.tobytes() == before.tobytes()  # the joint array is only read

    def test_desk_element_forward_holds_three_head_sized_arrays(self):
        # at most 3 x 1.20 MiB on a 100x784 element head; the tanh heads
        # hold 1, as the raw heads and their slope go to psi's heads
        # buffer (six temporaries in project_unit took it to 5.98 MiB)
        psi = init_eta_model(StepSizeKind.ELEMENT, (100, 784), make_rng(4), hidden=8)
        feats = grad_features(make_rng(5).standard_normal((100, 784)))
        psi_forward(psi, feats)
        tracemalloc.start()
        try:
            psi_forward(psi, feats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * psi.w3.shape[0] * 8 + 2**16

    def test_scalar_kind_shapes(self):
        psi = init_eta_model(StepSizeKind.SCALAR, (7, 9), make_rng(2))
        beta, eta_hat, *_ = psi_forward(psi, grad_features(np.ones((7, 9))))
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
        beta, eta_hat, *_ = psi_forward(psi, grad_features(np.ones((3, 4))))
        assert beta.shape == shape and eta_hat.shape == shape

    def test_bypass_pins_beta_to_one(self):
        # psi is never run when bypassed: beta = 1 composes eta0 bitwise on
        # every arm a bypassed run may take, whatever eta_hat is, so the
        # run is plain SGD at eta0
        from samt.stepsize import ARM_BASELINE, ARM_FULL, ARM_LEFT, compose_step

        for kind in StepSizeKind:
            shape = kind.shape_for((2, 3))
            for arm in (ARM_FULL, ARM_BASELINE, ARM_LEFT):
                beta, eta_hat = np.ones(shape), np.full(shape, 0.5)
                value, _, _ = compose_step(arm, beta, 0.1, eta_hat)
                assert value.tobytes() == np.full(shape, 0.1).tobytes(), (kind, arm)


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

    @pytest.mark.parametrize(
        "kind,layer_shape,hidden",
        [
            (StepSizeKind.ROW, (30, 4), 1),
            (StepSizeKind.ROW, (30, 4), 5),
            (StepSizeKind.ROW, (30, 4), 64),
            # 1,254,400 entries: 19 whole pieces of PSI_DRAW_ENTRIES and a part
            (StepSizeKind.ELEMENT, (100, 784), 8),
        ],
    )
    def test_output_layer_holds_the_bytes_of_a_row_major_init(self, kind, layer_shape, hidden):
        psi = init_eta_model(kind, layer_shape, make_rng(hidden), hidden=hidden)
        reference = make_rng(hidden)
        glorot_init((hidden, NUM_FEATURES), reference)
        glorot_init((hidden, hidden), reference)
        rows = psi.w3.shape[0]
        assert psi.w3.tobytes(order="F") == glorot_init((hidden, rows), reference).tobytes()
        assert psi.pending.joint.dtype == psi.pending.v.dtype == np.float64
        assert psi.pending.heads.shape == (rows, 1) and psi.pending.heads.dtype == np.float64

    @pytest.mark.parametrize(
        "kind,layer_shape,hidden", [(StepSizeKind.ROW, (30, 4), 5), (StepSizeKind.ELEMENT, (100, 784), 8)]
    )
    def test_float32_output_layer_is_the_float64_one_rounded(self, kind, layer_shape, hidden):
        # the same draws, rounded once; psi's later draws and the network's
        # come from the same rng, so the stream must not depend on the dtype
        rng64, rng32 = make_rng(9), make_rng(9)
        psi64 = init_eta_model(kind, layer_shape, rng64, hidden=hidden)
        psi32 = init_eta_model(kind, layer_shape, rng32, hidden=hidden, dtype=np.float32)
        assert psi32.pending.joint.dtype == psi32.pending.v.dtype == np.float32
        assert psi32.pending.heads.dtype == np.float64
        assert psi32.w3.flags.f_contiguous
        assert psi32.w3.tobytes() == psi64.w3.astype(np.float32).tobytes()
        for a, b in zip(psi32.weights[:2], psi64.weights[:2]):
            assert a.dtype == np.float64 and a.tobytes() == b.tobytes()
        assert rng32.random() == rng64.random()

    def test_output_layer_is_the_joint_arrays_leading_columns_and_cannot_be_replaced(self):
        # a separate w3 would be read with the pending columns of another array
        psi = init_eta_model(StepSizeKind.ELEMENT, (3, 4), make_rng(0), hidden=5)
        joint = psi.pending.joint
        assert psi.w3.base is joint and psi.w3.__array_interface__ == joint[:, :5].__array_interface__
        with pytest.raises(TypeError, match="w3"):
            replace(psi, w3=psi.w3.copy(order="F"))

    def test_head_shape_needing_other_rows_raises(self):
        # an element head on a 3x4 layer has 2 * 12 output rows; a 1x1 head would read 2 of them
        psi = init_eta_model(StepSizeKind.ELEMENT, (3, 4), make_rng(0), hidden=5)
        with pytest.raises(ShapeError, match=r"24 rows, head shape \(1, 1\) needs 2"):
            replace(psi, head_shape=(1, 1))

    @pytest.mark.parametrize("slope", [0.0, 1.0, -0.01, 1.5, np.nan])
    def test_activation_slope_outside_open_unit_interval_raises(self, slope):
        # leaky_relu's max(x, slope * x) form is the activation only inside (0,1)
        with pytest.raises(ValueError, match="activation_slope"):
            init_eta_model(StepSizeKind.SCALAR, (3, 4), make_rng(0), hidden=5, activation_slope=slope)

    def test_unknown_projection_style_raises(self):
        # else the model is built and fails only inside project_unit at its first forward pass
        with pytest.raises(ValueError, match="projection_style"):
            init_eta_model(StepSizeKind.SCALAR, (3, 4), make_rng(0), hidden=5, projection_style="relu")

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_desk_element_head_allocates_no_transient_copy(self, dtype):
        # w3 of an element head on a 100x784 layer is 156,800 x 64 (80 MB in
        # float64); B is drawn in 512 KiB pieces, so the peak is psi's own arrays
        tracemalloc.start()
        try:
            psi = init_eta_model(StepSizeKind.ELEMENT, (100, 784), make_rng(2), dtype=dtype)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        p = psi.pending
        assert psi.w3.shape == (156_800, 64)
        assert peak <= psi.w3.nbytes + p.u.nbytes + p.v.nbytes + p.heads.nbytes + 2**20


class TestMetaGradients:
    def test_zero_gradient_kills_sensitivity(self):
        net, psi, feats, block, _, eta0, meta_batch = make_setup(StepSizeKind.ELEMENT)
        zero_g = {l: np.zeros_like(net.layer_weights[l]) for l in block}
        meta = meta_gradients(psi, grad_features(zero_g[block[0]]), block, zero_g, eta0, meta_batch, net)
        for u, v in meta.psi_grads:
            assert not (u @ v.T).any()
        assert np.array_equal(meta.w_prime[block[0]], net.layer_weights[block[0]])

    def test_scalar_chain_hand_value(self):
        # dL/d(step) for a scalar step is sum(-dLdW * g)
        dldw = np.array([[1.0, 1.0]])
        g = np.array([[2.0, 3.0]])
        assert reduce_to_kind(-dldw * g, StepSizeKind.SCALAR)[0, 0] == pytest.approx(-5.0)

    @pytest.mark.parametrize("kind", list(StepSizeKind))
    def test_matches_finite_differences(self, kind):
        net, psi, feats, block, grads, eta0, meta_batch = make_setup(kind, seed=7)
        worst = fd_meta_gradients(psi, feats, block, grads, eta0, meta_batch, net)
        assert worst <= 1e-5

    @pytest.mark.parametrize("arm", ["full", "left_only", "right_only", "baseline"])
    def test_arm_chains_match_finite_differences(self, arm):
        net, psi, feats, block, grads, eta0, meta_batch = make_setup(StepSizeKind.ELEMENT, seed=11)
        worst = fd_meta_gradients(psi, feats, block, grads, eta0, meta_batch, net, arm=arm)
        assert worst <= 1e-5

    def test_meta_loss_matches_direct_evaluation(self):
        net, psi, feats, block, grads, eta0, meta_batch = make_setup(StepSizeKind.ROW, seed=3)
        meta = meta_gradients(psi, feats, block, grads, eta0, meta_batch, net)
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
        psi_step(psi, factors_like(psi, 0.0))
        for a, b in zip(before, psi.weights):
            assert np.array_equal(a, b)

    def test_zero_rate_fixed_point(self):
        psi = init_eta_model(StepSizeKind.SCALAR, (2, 2), make_rng(1), hidden=4, meta_learning_rate=0.0)
        before = [w.copy() for w in psi.weights]
        psi_step(psi, factors_like(psi, 1.0))
        for a, b in zip(before, psi.weights):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("rows", [510, 512, 1024, 1030, 10_000, 40_000])
    def test_in_place_update_is_bitwise_the_dense_update(self, rows):
        # w1 and w2 update at once, bitwise as the dense expression; w3's
        # update is pending, so its effective matrix is checked instead:
        # it rounds u * (lr * v), not lr * (u * v).  w3 is always the
        # column-major head of psi's joint array, so that is the one layout
        psi = init_eta_model(
            StepSizeKind.ELEMENT, (rows // 2, 1), make_rng(rows), hidden=7, meta_learning_rate=0.37
        )
        assert psi.w3.shape == (rows, 7) and psi.w3.flags.f_contiguous
        rng = make_rng(rows + 1)
        grads = tuple(
            (
                rng.standard_normal((w.shape[0], 1)) * 10.0 ** rng.uniform(-3, 3, (w.shape[0], 1)),
                rng.standard_normal((w.shape[1], 1)) * 10.0 ** rng.uniform(-3, 3, (w.shape[1], 1)),
            )
            for w in psi.weights
        )
        expected = [w - 0.37 * (u @ v.T) for w, (u, v) in zip(psi.weights, grads)]
        # w3 is a fresh view on each read, so the arrays are followed by their data pointers
        ids = [w.__array_interface__["data"] for w in psi.weights]
        (u, v), w3 = grads[2], psi.w3.copy()
        assert psi_step(psi, grads) is None
        assert [w.__array_interface__["data"] for w in psi.weights] == ids
        for got, want in zip(psi.weights[:2], expected[:2]):
            assert got.tobytes() == want.tobytes()
        # two roundings of the product and one of the difference apart
        bound = 4 * np.finfo(float).eps * (np.abs(w3) + 0.37 * np.abs(u @ v.T))
        assert (np.abs(effective_w3(psi) - expected[2]) <= bound).all()

    @pytest.mark.parametrize("rows", [510, 1030, 10_000, 40_000, 74_898, 300_000])
    def test_fold_every_pending_steps_matches_the_dense_updates(self, rows):
        # a tile is an eighth of the rows, at least 512 and at most
        # PSI_CHUNK_ENTRIES // 7 of them: 510 rows fold in one tile, 1,030
        # in two 512-row tiles and a tail, 10,000 and 40,000 in eight
        # eighths, 74,898 in eight eighths and a 2-row tail, and 300,000 in
        # eight tiles at the ceiling and a tail
        ceiling = PSI_CHUNK_ENTRIES // 7
        assert 74_898 // 8 < ceiling < 300_000 // 8
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
        # step, w', the meta pass's gradient and the temporaries) are at
        # most about seven 78,400-entry arrays whatever `hidden` is, so
        # hidden=24 keeps them below half of w3.
        rng = make_rng(40)
        net = init_network((784, 100, 10), rng)
        w = net.layer_weights[0]
        x = rng.standard_normal((784, 8))
        y = rng.integers(0, 10, 8)
        _, grads = block_loss_and_gradients(net, (x, y), (0,))
        psi = init_eta_model(StepSizeKind.ELEMENT, w.shape, rng, hidden=24)
        eta0 = 0.1
        feats = grad_features(grads[0])
        meta_batch = (rng.standard_normal((784, 8)), rng.integers(0, 10, 8))
        peaks = []
        tracemalloc.start()
        try:
            for _ in range(2):  # neither step folds
                start = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                meta = meta_gradients(psi, feats, (0,), grads, eta0, meta_batch, net)
                psi_step(psi, meta.psi_grads)
                del meta
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            tracemalloc.stop()
        assert psi.w3.shape == (156_800, 24)
        assert peaks[0] < psi.w3.nbytes / 2
        # psi owns its pending terms from birth, so its first step
        # allocates no more than the next one
        assert peaks[0] <= peaks[1] + 2**20

    def test_pending_steps_never_hold_a_dense_output_gradient(self):
        # PSI_PENDING + 1 steps: the pending terms, allocated with psi,
        # fill, fold into w3 and refill; the fold's scratch tile adds to
        # the head-sized arrays, and the peak still stays below half of w3
        rng = make_rng(41)
        net = init_network((784, 100, 10), rng)
        w = net.layer_weights[0]
        psi = init_eta_model(StepSizeKind.ELEMENT, w.shape, rng, hidden=24)
        eta0 = 0.1
        batches = [
            ((rng.standard_normal((784, 8)), rng.integers(0, 10, 8)),) * 2
            for _ in range(PSI_PENDING + 1)
        ]
        tracemalloc.start()
        try:
            for main_batch, meta_batch in batches:
                _, grads = block_loss_and_gradients(net, main_batch, (0,))
                feats = grad_features(grads[0])
                meta = meta_gradients(psi, feats, (0,), grads, eta0, meta_batch, net)
                psi_step(psi, meta.psi_grads)
                del meta, grads
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert psi.pending.n == 1
        assert peak < psi.w3.nbytes / 2

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_desk_element_head_peaks_at_most_5_mib_over_a_fold(self, dtype):
        # the desk net's layer-0 element head at the default hidden 64: a
        # step allocates the heads, the composed step, w' and the meta
        # pass's gradient, and the fold adds its scratch tile
        rng = make_rng(42)
        net = init_network((784, 100, 10), rng)
        psi = init_eta_model(StepSizeKind.ELEMENT, net.layer_weights[0].shape, rng, dtype=dtype)
        batches = [
            ((rng.standard_normal((784, 64)), rng.integers(0, 10, 64)),) * 2 for _ in range(PSI_PENDING + 1)
        ]
        peaks = []
        for main_batch, meta_batch in batches:
            _, grads = block_loss_and_gradients(net, main_batch, (0,))
            feats = grad_features(grads[0])
            tracemalloc.start()
            try:
                meta = meta_gradients(psi, feats, (0,), grads, 0.1, meta_batch, net)
                psi_step(psi, meta.psi_grads)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            del meta, grads
        assert psi.w3.shape == (156_800, 64) and psi.pending.n == 1
        assert max(peaks) <= 5 * 2**20

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("layer_shape,tile_rows", [((32, 64), 512), ((16, 32), 512), ((100, 784), 4096)])
    def test_fold_scratch_is_one_tile_of_an_eighth_of_the_rows_within_bounds(self, layer_shape, tile_rows, dtype):
        # 4,096 rows (tiny_mix's layer-0 head) fold in eighths, 1,024 rows
        # at the 512-row floor and the desk head's 156,800 rows at the
        # 4,096-row ceiling.  Besides the scratch tile, in the storage
        # dtype, the fold's peak holds only the iteration buffers (about
        # 129 KiB) numpy's in-place subtraction allocates for a strided
        # tile of rows
        psi = init_eta_model(StepSizeKind.ELEMENT, layer_shape, make_rng(3), dtype=dtype)
        rows, cols = psi.w3.shape
        grads = factors_like(psi, 1.0)
        for _ in range(PSI_PENDING - 1):
            psi_step(psi, grads)
        tracemalloc.start()
        try:
            psi_step(psi, grads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert psi.pending.n == 0
        scratch = tile_rows * cols * np.dtype(dtype).itemsize
        assert scratch <= peak <= scratch + 2**18
        if rows == 4096 and dtype is np.float64:
            assert scratch == 2**18  # 256 KiB

    def test_one_step_reduces_meta_loss(self):
        net, psi, feats, block, grads, eta0, meta_batch = make_setup(StepSizeKind.SCALAR, seed=5)
        psi = replace(psi, meta_learning_rate=1e-3)
        meta = meta_gradients(psi, feats, block, grads, eta0, meta_batch, net)
        psi_step(psi, meta.psi_grads)
        after = meta_gradients(psi, feats, block, grads, eta0, meta_batch, net)
        assert after.meta_loss <= meta.meta_loss

    def test_many_random_steps_stay_finite(self):
        rng = make_rng(6)
        net = init_network((3, 4, 2), rng)
        psi = init_eta_model(StepSizeKind.ELEMENT, net.layer_weights[1].shape, rng, hidden=5)
        eta0 = 0.1
        for _ in range(10_000):
            x = rng.standard_normal((3, 2))
            y = rng.integers(0, 2, 2)
            _, grads = block_loss_and_gradients(net, (x, y), (1,))
            feats = grad_features(grads[1])
            meta = meta_gradients(psi, feats, (1,), grads, eta0, (x, y), net)
            psi_step(psi, meta.psi_grads)
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

    @pytest.mark.parametrize("steps", [1, 2, 3, PSI_PENDING - 1])
    @pytest.mark.parametrize("kind", list(StepSizeKind))
    def test_pending_chain_matches_finite_differences(self, kind, steps):
        psi, (net, _, feats, block, grads, eta0, meta_batch) = self.stepped(kind, steps)
        assert psi.pending.n == steps
        worst = fd_meta_gradients(psi, feats, block, grads, eta0, meta_batch, net)
        assert worst <= 1e-5

    @pytest.mark.parametrize("steps", [1, 2, 3, PSI_PENDING - 1])
    @pytest.mark.parametrize("kind", list(StepSizeKind))
    def test_heads_equal_those_of_the_materialised_output_layer(self, kind, steps):
        psi, setup = self.stepped(kind, steps)
        feats = setup[2]
        effective = effective_w3(psi)
        # the pending terms move the raw heads by far more than rounding
        assert np.abs(effective - psi.w3).max() > 1e-3
        dense = materialised(psi)
        for got, want in zip(psi_forward(psi, feats)[:2], psi_forward(dense, feats)[:2]):
            assert np.abs(got - want).max() <= 1e-15
        # each call left its slope in its own psi's heads buffer
        slope, want = (q.pending.heads for q in (psi, dense))
        assert slope is not want and np.abs(slope - want).max() <= 1e-15

    def test_replaced_copy_shares_the_pending_terms(self):
        psi, _ = self.stepped(StepSizeKind.ROW, 1)
        copy = replace(psi, meta_learning_rate=0.1)
        factors = tuple((np.ones((w.shape[0], 1)), np.ones((w.shape[1], 1))) for w in psi.weights)
        psi_step(copy, factors)
        assert copy.pending is psi.pending and psi.pending.n == 2


def test_bypass_keeps_step_at_initial_forever():
    from samt.data import CLASSIFICATION, Dataset
    from samt.harness import TrainConfig, build_state
    from samt.optim import SgdEngine
    from samt.stepsize import ARM_FULL, compose_step

    net = init_network((2, 2), make_rng(8))
    eta0 = np.full((2, 2), 0.1)
    config = TrainConfig(widths=(2, 2), optimizer="samt_e", eta0=0.1, psi_bypass=True, train_batch=2)
    ds = Dataset(np.zeros((2, 2)), np.zeros(2, dtype=np.int64), CLASSIFICATION)
    (engine,) = build_state(config, ds).engines
    assert type(engine) is SgdEngine
    rng = np.random.default_rng(0)
    for _ in range(200):
        batch = (rng.standard_normal((2, 3)), rng.integers(0, 2, 3))
        net, event = engine.step(net, (0,), batch, batch)
    values, _, _ = compose_step(ARM_FULL, np.ones(eta0.shape), eta0, np.full(eta0.shape, 0.5))
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
    _, grads = block_loss_and_gradients(net, (x, y), block)
    stacked = np.concatenate([grads[l].ravel() for l in block]).reshape(-1, 1)
    feats = grad_features(stacked)
    shape = net.layer_weights[0].shape
    psi = init_eta_model(StepSizeKind.SCALAR, shape, rng, hidden=6)
    eta0 = 0.1
    mx = rng.standard_normal((4, 3))
    my = rng.integers(0, 3, 3)

    from samt.harness import fd_meta_gradients

    worst = fd_meta_gradients(psi, feats, block, grads, eta0, (mx, my), net)
    assert worst <= 1e-5


def desk_element_step(seed=50):
    """The desk net, one layer-0 main-batch gradient and a meta batch, each of 64 samples."""
    rng = make_rng(seed)
    net = init_network((784, 100, 10), rng)
    main_batch, meta_batch = ((rng.standard_normal((784, 64)), rng.integers(0, 10, 64)) for _ in range(2))
    _, grads = block_loss_and_gradients(net, main_batch, (0,))
    return net, grads, meta_batch


class TestFloat32Storage:
    def test_desk_element_chain_stays_within_float32_rounding_of_the_float64_chain(self):
        # Both psis draw the same weights; the float32 one rounds its joint
        # array once (u = eps32 / 2 per entry).  The only float32 arithmetic
        # is the two matvecs; everything head-sized is float64 in both.
        #   raw heads: each is a dot product of n = hidden terms of B and h2,
        #     both rounded to float32 and summed in float32.  Rounding the
        #     inputs costs 2u |B| |h2| and the sum gamma_n |B| |h2| with
        #     gamma_n = n u / (1 - n u) < (n + 1) u, so |d raw| is below
        #     (n + 3) u |B| |h2| = (n + 3) eps32 / 2 |B| |h2|; the bound below
        #     takes eps32 for u, twice that, which also covers float64's own rounding.
        #   beta, eta_hat: 0.5 (tanh(raw) + 1) is 1/2-Lipschitz, and the clip 1-Lipschitz.
        #   step = beta eta0 + (1 - beta) eta_hat moves by
        #     d_beta (eta0 - eta_hat) + (1 - beta) d_eta_hat - d_beta d_eta_hat,
        #     plus a few eps64 of float64 rounding on either side.
        #   d_col, h1, h2: w1 and w2 are float64 in both, so they are bitwise equal.
        #   du3 = slope * d step / d head * d loss / d step: each factor is a
        #     smooth float64 function of the heads, so to first order du3
        #     inherits their relative error; the bound is (n + 3) eps32 of its
        #     largest entry.
        #   du2: dh2 = B^T du3 sums 2k terms in float32, so |d dh2| is below
        #     |B|^T |d du3| + (2k + 3) eps32 |B|^T |du3|, and du2 masks dh2 as
        #     h2 does, with h2 equal in both.  du1 = mask(w2^T du2) in float64
        #     moves by at most |w2|^T |d du2|; float64's own rounding of both
        #     chains' B^T du3 and w2^T du2 is far inside the eps32 terms.
        net, grads, meta_batch = desk_element_step()
        feats, eta0 = grad_features(grads[0]), 0.1
        steps = []
        for dtype in (np.float64, np.float32):
            psi = init_eta_model(StepSizeKind.ELEMENT, (100, 784), make_rng(51), dtype=dtype)
            g = {0: grads[0].copy()}  # meta_gradients consumes nothing of grads, but keep them apart
            steps.append((psi, meta_gradients(psi, feats, (0,), g, eta0, meta_batch, net)))
        (psi64, a), (psi32, b) = steps
        assert psi32.w3.tobytes() == psi64.w3.astype(np.float32).tobytes()
        eps32, eps64 = np.finfo(np.float32).eps, np.finfo(np.float64).eps
        (du1, d_col), (du2, h1), (du3, h2) = a.psi_grads
        hidden, rows = h2.shape[0], du3.shape[0]
        abs_b = np.abs(psi64.w3)

        d_head = 0.5 * (hidden + 3) * eps32 * (abs_b @ np.abs(h2)).reshape(2, *a.beta.shape) + 4 * eps64
        d_beta, d_eta = d_head
        assert (np.abs(b.beta - a.beta) <= d_beta).all()
        assert (np.abs(b.eta_hat - a.eta_hat) <= d_eta).all()
        d_step = d_beta * np.abs(eta0 - a.eta_hat) + (1 - a.beta) * d_eta + d_beta * d_eta + 8 * eps64
        assert (np.abs(b.step_candidate - a.step_candidate) <= d_step).all()

        (du1_32, d_col_32), (du2_32, h1_32), (du3_32, h2_32) = b.psi_grads
        for got, want in ((d_col_32, d_col), (h1_32, h1), (h2_32, h2)):
            assert got.tobytes() == want.tobytes()
        assert all(f.dtype == np.float64 for pair in b.psi_grads for f in pair)
        assert np.abs(du3_32 - du3).max() <= (hidden + 3) * eps32 * np.abs(du3).max()
        d_dh2 = abs_b.T @ np.abs(du3_32 - du3) + (rows + 3) * eps32 * (abs_b.T @ np.abs(du3))
        assert (np.abs(du2_32 - du2) <= d_dh2).all()
        d_du1 = np.abs(psi64.w2).T @ d_dh2
        assert (np.abs(du1_32 - du1) <= d_du1).all()
        # the bounds are loose, but each quantity did move
        assert (du3_32 != du3).any() and (b.step_candidate != a.step_candidate).any()

    def test_a_run_stores_psi_in_float32_and_gradcheck_in_float64(self, capsys):
        # with float32 weights the element and row meta checks read 8.7e-5
        # and 2.9e-5 against their 1e-5 bound: central differences at
        # FD_STEP = 1e-5 cannot resolve them, so a passing gradcheck is float64's
        from samt.data import CLASSIFICATION, Dataset
        from samt.harness import TrainConfig, build_state, run_gradcheck

        config = TrainConfig(widths=(4, 3, 2), optimizer="samt_e", train_batch=2)
        ds = Dataset(np.zeros((4, 2)), np.zeros(2, dtype=np.int64), CLASSIFICATION)
        for engine in build_state(config, ds).engines:
            p = engine.state.psi.pending
            assert (p.joint.dtype, p.v.dtype, p.heads.dtype) == (np.float32, np.float32, np.float64)
        assert run_gradcheck(0) == 0 and "FAIL" not in capsys.readouterr().out

    @pytest.mark.parametrize("phase", ["psi_forward", "meta_gradients", "psi_step", "fold"])
    def test_desk_element_head_never_copies_the_joint_array(self, phase):
        # a float64 operand in either matvec or the fold would make numpy
        # copy the float32 joint array to float64 (90 MB); the peak must
        # stay below one float32 copy of it (45 MB)
        net, grads, meta_batch = desk_element_step(52)
        psi = init_eta_model(StepSizeKind.ELEMENT, (100, 784), make_rng(53), dtype=np.float32)
        feats = grad_features(grads[0])
        for _ in range(PSI_PENDING - 1 if phase == "fold" else 1):
            psi_step(psi, meta_gradients(psi, feats, (0,), grads, 0.1, meta_batch, net).psi_grads)
        meta = meta_gradients(psi, feats, (0,), grads, 0.1, meta_batch, net)
        call = {
            "psi_forward": lambda: psi_forward(psi, feats),
            "meta_gradients": lambda: meta_gradients(psi, feats, (0,), grads, 0.1, meta_batch, net),
            "psi_step": lambda: psi_step(psi, meta.psi_grads),
            "fold": lambda: psi_step(psi, meta.psi_grads),
        }[phase]
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert psi.pending.n == {"psi_forward": 1, "meta_gradients": 1, "psi_step": 2, "fold": 0}[phase]
        assert peak < psi.pending.joint.nbytes / 8
