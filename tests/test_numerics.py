import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from samt.errors import ShapeError
from samt.model import NetworkModel
from samt.numerics import make_rng
from samt.stepsize import StepSizeKind, candidate_weights


def candidate(w, g, step):
    """The candidate update w - step (*) g of one single-layer block."""
    return candidate_weights(NetworkModel((w,)), (0,), {0: g}, step)[0]


class TestHadamardBroadcast:
    """The step (*) gradient product inside the candidate update."""

    def test_scalar_step(self):
        out = candidate(np.zeros((2, 2)), np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[2.0]]))
        assert np.array_equal(out, [[-2.0, -4.0], [-6.0, -8.0]])

    def test_row_step(self):
        out = candidate(np.zeros((2, 2)), np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[0.1], [0.2]]))
        assert np.allclose(out, [[-0.1, -0.2], [-0.6, -0.8]], atol=1e-15)

    def test_column_step(self):
        out = candidate(np.zeros((1, 2)), np.array([[5.0, 7.0]]), np.array([[1.0, 0.0]]))
        assert np.array_equal(out, [[-5.0, 0.0]])

    def test_rejects_other_shapes(self):
        with pytest.raises(ShapeError):
            candidate(np.ones((3, 3)), np.ones((3, 3)), np.ones((2, 2)))
        with pytest.raises(ShapeError):
            candidate(np.ones((2, 2)), np.ones((2, 2)), np.ones((2, 3)))
        with pytest.raises(ShapeError):  # 1-D, of the layer's width
            candidate(np.ones((2, 3)), np.ones((2, 3)), np.ones(3))
        with pytest.raises(ShapeError):
            candidate(np.ones((2, 3)), np.ones((2, 3)), np.ones((1, 1, 1)))

    @settings(max_examples=60)
    @given(
        st.integers(1, 5),
        st.integers(1, 5),
        st.sampled_from([*StepSizeKind, float]),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_materialized_broadcast(self, m, n, kind, seed):
        # `float` stands for SGD's and HD's rate: a 0-d step of the scalar shape
        rng = make_rng(seed)
        w = rng.uniform(-2, 2, (m, n))
        g = rng.uniform(-2, 2, (m, n))
        step = rng.uniform(0, 1) if kind is float else rng.uniform(0, 1, kind.shape_for((m, n)))
        out = candidate(w, g, step)
        assert out.tobytes() == (w - np.broadcast_to(step, (m, n)) * g).tobytes()
        with pytest.raises(ShapeError):
            candidate(w, g, np.full((m + 1, n), 0.5))


class TestScaleAdd:
    """The candidate update as a scale-add: w - step * g."""

    def test_zero_coefficient(self):
        w, g = np.array([[1.0, 2.0]]), np.array([[9.0, 9.0]])
        assert np.array_equal(candidate(w, g, np.array([[0.0]])), w)

    def test_cancellation(self):
        assert np.array_equal(candidate(np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]])), [[0.0]])

    def test_hand_sum(self):
        out = candidate(np.array([[1.0, 2.0]]), np.array([[-4.0, -6.0]]), np.array([[0.5]]))
        assert np.array_equal(out, [[3.0, 5.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            candidate(np.ones((2, 2)), np.ones((2, 3)), np.array([[0.5]]))


def test_operations_are_pure():
    rng = make_rng(7)
    w, g, step = rng.uniform(-1, 1, (3, 3)), rng.uniform(-1, 1, (3, 3)), rng.uniform(0, 1, (3, 1))
    before = (w.copy(), g.copy(), step.copy())
    assert np.array_equal(candidate(w, g, step), candidate(w, g, step))
    for a, b in zip((w, g, step), before):
        assert np.array_equal(a, b)


def test_rng_determinism():
    first = make_rng(123).standard_normal(10)
    second = make_rng(123).standard_normal(10)
    assert np.array_equal(first, second)
    assert not np.array_equal(first, make_rng(124).standard_normal(10))
