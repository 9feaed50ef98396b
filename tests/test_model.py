import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from samt.errors import LabelError, ShapeError
from samt.model import (
    MSE,
    SOFTMAX_CE,
    NetworkModel,
    batch_loss,
    block_loss_and_gradients,
    forward,
    init_network,
    layer_outputs,
    leaky_relu,
    leaky_relu_backward,
    mse_loss,
    softmax_ce_loss,
)
from samt.numerics import make_rng


def tiny_net(*weights, loss_kind=MSE, slope=0.01):
    return NetworkModel(tuple(np.array(w) for w in weights), activation_slope=slope, loss_kind=loss_kind)


def bits(a):
    """The raw float64 bit patterns of `a`, so that NaN and -0.0 compare exactly."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


# finite floats of every magnitude, with signed zeros, infinities and NaN mixed in
SPECIAL = (0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan)
any_float = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(SPECIAL))
SUBNORMAL = (5e-324, -5e-324, 2.225073858507201e-308, -2.225073858507201e-308)
any_or_subnormal = st.one_of(any_float, st.sampled_from(SUBNORMAL))
open_slope = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
small_shape = hnp.array_shapes(min_dims=2, max_dims=2, max_side=6)


def value_and_derivative(x, slope):
    """leaky_relu at x and its derivative: the backward factor on a unit upstream."""
    x = np.array([[x]])
    return leaky_relu(x, slope)[0, 0], leaky_relu_backward(x, np.ones_like(x), slope)[0, 0]


class TestLeakyRelu:
    def test_positive_passthrough(self):
        v, d = value_and_derivative(3.0, 0.01)
        assert v == 3.0 and d == 1.0

    def test_negative_scaled(self):
        v, d = value_and_derivative(-2.0, 0.01)
        assert v == pytest.approx(-0.02) and d == 0.01

    def test_zero_uses_slope(self):
        v, d = value_and_derivative(0.0, 0.3)
        assert v == 0.0 and d == 0.3

    @settings(max_examples=200)
    @given(st.data(), small_shape, open_slope)
    def test_value_is_bitwise_the_where_form(self, data, shape, slope):
        x = data.draw(hnp.arrays(np.float64, shape, elements=any_float))
        with np.errstate(all="ignore"):
            reference = np.where(x > 0, x, slope * x)
            assert np.array_equal(bits(leaky_relu(x, slope)), bits(reference))

    @settings(max_examples=200)
    @given(st.data(), small_shape, open_slope)
    def test_backward_is_bitwise_upstream_times_derivative(self, data, shape, slope):
        x = data.draw(hnp.arrays(np.float64, shape, elements=any_float))
        t = data.draw(hnp.arrays(np.float64, shape, elements=any_float))
        with np.errstate(all="ignore"):
            reference = t * np.where(x > 0, 1.0, slope)
            assert np.array_equal(bits(leaky_relu_backward(x, t, slope)), bits(reference))

    @settings(max_examples=200)
    @given(st.data(), small_shape, open_slope)
    def test_backward_masks_the_same_on_output_as_on_input(self, data, shape, slope):
        # the backward pass masks on layer outputs: leaky_relu(x) > 0 exactly where x > 0
        x = data.draw(hnp.arrays(np.float64, shape, elements=any_or_subnormal))
        t = data.draw(hnp.arrays(np.float64, shape, elements=any_float))
        with np.errstate(all="ignore"):
            on_output = leaky_relu_backward(leaky_relu(x, slope), t, slope)
            assert np.array_equal(bits(on_output), bits(leaky_relu_backward(x, t, slope)))

    @given(small_shape, open_slope)
    def test_derivative_at_exactly_zero_is_the_slope(self, shape, slope):
        x = np.zeros(shape)
        x.flat[::2] = -0.0
        assert (leaky_relu_backward(x, np.ones(shape), slope) == slope).all()


class TestForward:
    def test_single_layer_product(self):
        out = forward(tiny_net([[2.0]]), np.array([[3.0]]))
        assert out[0, 0] == 6.0

    def test_zero_weights_give_zero_output(self):
        net = tiny_net(np.zeros((3, 4)), np.zeros((2, 3)))
        out = forward(net, np.ones((4, 5)))
        assert np.array_equal(out, np.zeros((2, 5)))

    def test_bias_free_maps_zero_to_zero(self):
        net = init_network((4, 6, 2), make_rng(0))
        out = forward(net, np.zeros((4, 3)))
        assert np.array_equal(out, np.zeros((2, 3)))

    def test_shape_error_names_layer(self):
        net = tiny_net(np.ones((3, 4)), np.ones((2, 3)))
        with pytest.raises(ShapeError, match="layer 0"):
            forward(net, np.ones((5, 1)))

    def test_layer_outputs_start_with_input_and_end_with_forward(self):
        net = init_network((3, 5, 2), make_rng(1))
        x = make_rng(2).standard_normal((3, 4))
        outputs = list(layer_outputs(net, x))
        assert len(outputs) == net.num_layers + 1
        assert outputs[0] is x
        assert outputs[-1].tobytes() == forward(net, x).tobytes()
        assert outputs[1].tobytes() == leaky_relu(net.layer_weights[0] @ x, net.activation_slope).tobytes()

    def test_layer_chain_validated_at_construction(self):
        with pytest.raises(ShapeError, match="layer 0"):
            tiny_net(np.ones((3, 4)), np.ones((2, 5)))


class TestMseLoss:
    def test_perfect_prediction(self):
        loss, dpred = mse_loss(np.array([[1.0], [2.0]]), np.array([[1.0], [2.0]]))
        assert loss == 0.0 and np.array_equal(dpred, np.zeros((2, 1)))

    def test_hand_values(self):
        loss, dpred = mse_loss(np.array([[1.0], [2.0]]), np.array([[0.0], [0.0]]))
        assert loss == pytest.approx(5.0)
        assert np.allclose(dpred, [[2.0], [4.0]])

    def test_duplicated_columns_keep_loss(self):
        pred, target = np.array([[1.0, 3.0]]), np.array([[0.0, 1.0]])
        base = mse_loss(pred, target)[0]
        doubled = mse_loss(np.hstack([pred, pred]), np.hstack([target, target]))[0]
        assert doubled == pytest.approx(base)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mse_loss(np.ones((2, 2)), np.ones((2, 3)))


class TestSoftmaxCeLoss:
    def test_symmetric_logits(self):
        loss, dlogits = softmax_ce_loss(np.array([[0.0], [0.0]]), [0])
        assert loss == pytest.approx(np.log(2.0))
        assert np.allclose(dlogits, [[-0.5], [0.5]])

    def test_saturated_logits_no_overflow(self):
        loss, dlogits = softmax_ce_loss(np.array([[1000.0], [0.0]]), [0])
        assert loss == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(dlogits, 0.0, atol=1e-12)

    def test_shift_invariance(self):
        logits = make_rng(3).standard_normal((4, 5))
        labels = np.array([0, 1, 2, 3, 1])
        base_loss, base_grad = softmax_ce_loss(logits, labels)
        shifted_loss, shifted_grad = softmax_ce_loss(logits + 123.0, labels)
        assert shifted_loss == pytest.approx(base_loss)
        assert np.allclose(shifted_grad, base_grad, atol=1e-12)

    def test_out_of_range_label(self):
        with pytest.raises(LabelError, match="7"):
            softmax_ce_loss(np.zeros((3, 1)), [7])

    @settings(max_examples=200)
    @given(st.data(), small_shape)
    def test_bitwise_the_full_log_prob_reference(self, data, shape):
        logits = data.draw(hnp.arrays(np.float64, shape, elements=any_float))
        k, b = shape
        labels = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=b, max_size=b)))
        with np.errstate(all="ignore"):
            shifted = logits - logits.max(axis=0, keepdims=True)
            exp = np.exp(shifted)
            total = exp.sum(axis=0, keepdims=True)
            log_probs = shifted - np.log(total)
            ref_loss = float(-log_probs[labels, np.arange(b)].mean())
            ref_dlogits = exp / total
            ref_dlogits[labels, np.arange(b)] -= 1.0
            ref_dlogits = ref_dlogits / b
            loss, dlogits = softmax_ce_loss(logits, labels)
        assert bits(loss) == bits(ref_loss)
        assert np.array_equal(bits(dlogits), bits(ref_dlogits))

    @settings(max_examples=30)
    @given(st.integers(0, 2**32 - 1))
    def test_softmax_columns_sum_to_one(self, seed):
        # dlogits * batch is the softmax minus the one-hot labels
        logits = make_rng(seed).uniform(-30, 30, (5, 4))
        labels = np.array([0, 1, 4, 2])
        _, dlogits = softmax_ce_loss(logits, labels)
        probs = dlogits * 4
        probs[labels, np.arange(4)] += 1.0
        assert np.max(np.abs(probs.sum(axis=0) - 1.0)) <= 1e-12


def central_difference_gradients(net, batch, block, h=1e-5):
    """Independent oracle: central finite differences on each weight."""
    grads = {}
    for l in block:
        w = net.layer_weights[l]
        g = np.zeros_like(w)
        for i in range(w.shape[0]):
            for j in range(w.shape[1]):
                bumped = w.copy()
                bumped[i, j] = w[i, j] + h
                up = batch_loss(net.with_layers({l: bumped}), batch)
                bumped[i, j] = w[i, j] - h
                down = batch_loss(net.with_layers({l: bumped}), batch)
                g[i, j] = (up - down) / (2 * h)
        grads[l] = g
    return grads


class TestBlockGradient:
    def test_hand_chain_rule(self):
        # single 1x1 layer, x=1, y=0, W=2: loss = (0-2)^2, dL/dW = 2*(2)*1 = 4
        net = tiny_net([[2.0]], loss_kind=MSE)
        grads = block_loss_and_gradients(net, (np.array([[1.0]]), np.array([[0.0]])), (0,))[1]
        assert grads[0][0, 0] == pytest.approx(4.0)

    def test_stationary_point(self):
        # identity fit: predictions equal targets, so the gradient vanishes
        net = tiny_net([[1.0]], loss_kind=MSE)
        x = np.array([[1.0, -1.0]])
        grads = block_loss_and_gradients(net, (x, x), (0,))[1]
        assert np.linalg.norm(grads[0]) <= 1e-10

    def test_empty_block_rejected(self):
        net = tiny_net([[1.0]])
        with pytest.raises(ValueError):
            block_loss_and_gradients(net, (np.array([[1.0]]), [0]), ())

    def test_only_block_layers_returned(self):
        net = init_network((3, 4, 2), make_rng(5))
        x = make_rng(6).standard_normal((3, 2))
        grads = block_loss_and_gradients(net, (x, np.array([0, 1])), (1,))[1]
        assert set(grads) == {1}

    @pytest.mark.parametrize("loss_kind", [MSE, SOFTMAX_CE])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_finite_differences(self, loss_kind, seed):
        rng = make_rng(seed)
        widths = (4, 6, 5, 3)
        net = init_network(widths, rng, loss_kind=loss_kind)
        x = rng.standard_normal((4, 4))
        y = (
            rng.integers(0, 3, 4)
            if loss_kind == SOFTMAX_CE
            else rng.standard_normal((3, 4))
        )
        block = (0, 1, 2)
        _, analytic = block_loss_and_gradients(net, (x, y), block)
        numeric = central_difference_gradients(net, (x, y), block)
        for l in block:
            rel = np.abs(analytic[l] - numeric[l]) / (1.0 + np.abs(analytic[l]))
            assert rel.max() <= 1e-6

    def test_gauss_seidel_gradient_equals_full_backprop_slice(self):
        # the per-block partial is the ordinary backprop partial
        rng = make_rng(9)
        net = init_network((3, 4, 2), rng, loss_kind=SOFTMAX_CE)
        x = rng.standard_normal((3, 5))
        y = rng.integers(0, 2, 5)
        whole = block_loss_and_gradients(net, (x, y), (0, 1))[1]
        only_first = block_loss_and_gradients(net, (x, y), (0,))[1]
        assert np.array_equal(whole[0], only_first[0])


def test_forward_is_pure():
    net = init_network((3, 4, 2), make_rng(10))
    x = make_rng(11).standard_normal((3, 2))
    before = [w.copy() for w in net.layer_weights]
    forward(net, x)
    for w0, w1 in zip(before, net.layer_weights):
        assert np.array_equal(w0, w1)
