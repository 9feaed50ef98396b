import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from samt.errors import ShapeError
from samt.numerics import make_rng
from samt.stepsize import (
    ARM_BASELINE,
    ARM_FULL,
    ARM_LEFT,
    ARM_RIGHT,
    OPEN_EPS,
    StepSize,
    StepSizeKind,
    compose_step,
    grad_features,
    project_unit,
    reduce_to_kind,
)


class TestGradFeatures:
    # rows of the feature column: mean, variance, max, min, norm

    def test_zero_gradient(self):
        f = grad_features(np.zeros((3, 2)))
        assert np.array_equal(f, np.zeros((5, 1)))

    def test_hand_statistics(self):
        mean, variance, hi, lo, norm = grad_features(np.array([[3.0, -1.0], [0.0, 2.0]]))[:, 0]
        assert mean == pytest.approx(1.0)
        assert variance == pytest.approx(2.5)  # population variance
        assert hi == 3.0 and lo == -1.0
        assert norm == pytest.approx(np.sqrt(14.0))

    def test_constant_matrix(self):
        c = -0.7
        mean, variance, hi, lo, norm = grad_features(np.full((2, 2), c))[:, 0]
        assert mean == pytest.approx(c)
        assert variance == pytest.approx(0.0, abs=1e-15)
        assert hi == c and lo == c
        assert norm == pytest.approx(2 * abs(c))

    @settings(max_examples=40)
    @given(st.integers(0, 2**32 - 1))
    def test_permutation_invariant(self, seed):
        rng = make_rng(seed)
        g = rng.standard_normal((3, 4))
        shuffled = rng.permutation(g.ravel()).reshape(4, 3)
        a, b = grad_features(g)[:, 0], grad_features(shuffled)[:, 0]
        assert (a[2], a[3]) == (b[2], b[3])
        assert a[0] == pytest.approx(b[0], abs=1e-14)
        assert a[1:] == pytest.approx(b[1:], rel=1e-12)

    @settings(max_examples=100)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1), st.floats(-30, 30))
    def test_bitwise_the_ndarray_statistics(self, m, n, seed, log_scale):
        g = make_rng(seed).standard_normal((m, n)) * 2.0**log_scale
        flat = g.ravel()
        reference = [flat.mean(), flat.var(), flat.max(), flat.min(), np.sqrt(np.sum(flat * flat))]
        assert grad_features(g)[:, 0].tobytes() == np.array(reference).tobytes()

    def test_feature_order_in_column(self):
        g = np.array([[1.0, 2.0], [3.0, 6.0]])
        col = grad_features(g)
        assert col.shape == (5, 1) and col.dtype == np.float64
        assert np.array_equal(col, [[g.mean()], [g.var()], [g.max()], [g.min()], [np.sqrt(50.0)]])

    def test_empty_gradient_raises(self):
        # the mean and variance are 0/0; the max has no identity to start from
        with np.errstate(invalid="ignore"), pytest.raises(ValueError):
            grad_features(np.zeros((0, 3)))


class TestProjectUnit:
    @pytest.mark.parametrize("style", ["tanh", "sigmoid"])
    def test_zero_maps_to_half(self, style):
        assert project_unit(np.array([[0.0]]), style)[0][0, 0] == pytest.approx(0.5)

    def test_tanh_saturation_stays_below_one(self):
        out = project_unit(np.array([[20.0]]), "tanh")[0][0, 0]
        assert 1.0 - 1e-9 < out < 1.0

    @pytest.mark.parametrize("style", ["tanh", "sigmoid"])
    def test_extreme_inputs_stay_open(self, style):
        u = np.array([[-1e6, -5.0, 0.0, 5.0, 1e6]])
        out, _ = project_unit(u, style)
        assert (out > 0.0).all() and (out < 1.0).all()

    @pytest.mark.parametrize("style", ["tanh", "sigmoid"])
    def test_monotone(self, style):
        u = np.linspace(-8, 8, 101).reshape(1, -1)
        out, _ = project_unit(u, style)
        assert (np.diff(out.ravel()) > 0).all()

    @pytest.mark.parametrize("style", ["tanh", "sigmoid"])
    def test_derivative_matches_finite_differences(self, style):
        u = np.linspace(-3, 3, 25).reshape(5, 5)
        h = 1e-6
        (up, _), (down, _) = (project_unit(u + s, style) for s in (h, -h))
        numeric = (up - down) / (2 * h)
        assert np.allclose(project_unit(u, style)[1], numeric, atol=1e-9)

    @pytest.mark.parametrize("style", ["tanh", "sigmoid"])
    def test_slope_written_over_the_input_has_the_bytes_of_a_new_one(self, style):
        u = np.random.default_rng(3).standard_normal((50, 1)) * 10.0
        values, slope = project_unit(u, style)
        raw = u.copy()
        got_values, got_slope = project_unit(raw, style, out=raw)
        assert got_slope is raw
        assert got_values.tobytes() == values.tobytes() and got_slope.tobytes() == slope.tobytes()

    def test_sigmoid_style_is_the_logistic_function(self):
        u = np.concatenate((np.linspace(-40.0, 40.0, 8001), [-1e6, -745.0, 745.0, 1e6])).reshape(-1, 1)
        e = np.exp(-np.abs(u))  # exp on the negative side only, so large |u| cannot overflow
        p = np.clip(np.where(u >= 0, 1.0 / (1.0 + e), e / (1.0 + e)), OPEN_EPS, 1.0 - OPEN_EPS)
        values, slope = project_unit(u, "sigmoid")
        assert np.abs(values - p).max() <= 2.3e-16
        # the slope ignores the clip, so it differs from p (1 - p) by up to OPEN_EPS there
        slope_error, inside = np.abs(slope - p * (1.0 - p)), (OPEN_EPS < p) & (p < 1.0 - OPEN_EPS)
        assert slope_error.max() <= 1e-12 and slope_error[inside].max() <= 1e-15 and not inside.all()

    def test_unknown_style(self):
        with pytest.raises(ValueError, match="tanh"):
            project_unit(np.array([[0.0]]), "relu")


def full_step(beta, eta0, eta_hat):
    """The full arm's composed step, beta * eta0 + (1 - beta) * eta_hat."""
    return compose_step(ARM_FULL, beta, eta0, eta_hat)[0]


ARMS = (ARM_FULL, ARM_BASELINE, ARM_LEFT, ARM_RIGHT)


class TestFullStep:
    def test_beta_one_returns_initial(self):
        eta0 = np.array([[0.1, 0.2]])
        out = full_step(np.ones((1, 2)), eta0, np.array([[0.9, 0.9]]))
        assert np.array_equal(out, eta0)

    def test_midpoint(self):
        out = full_step(np.array([[0.5]]), np.array([[0.1]]), np.array([[0.3]]))
        assert out[0, 0] == pytest.approx(0.2)

    def test_hand_vector_case(self):
        out = full_step(np.array([[0.2], [0.8]]), np.array([[0.1]]), np.array([[0.5], [0.25]]))
        assert np.allclose(out, [[0.42], [0.13]])

    @pytest.mark.parametrize("arm", ARMS)
    def test_shape_mismatch(self, arm):
        with pytest.raises(ShapeError):
            compose_step(arm, np.full((2, 3), 0.5), np.full((2, 2), 0.1), np.full((2, 2), 0.5))

    @pytest.mark.parametrize("arm", ARMS)
    def test_nan_rejected(self, arm):
        with pytest.raises(ValueError, match="beta"):
            compose_step(arm, np.array([[0.5, np.nan]]), np.array([[0.1]]), np.full((1, 2), 0.5))
        with pytest.raises(ValueError, match="eta_hat"):
            compose_step(arm, np.full((1, 2), 0.5), np.array([[0.1]]), np.array([[np.nan, 0.5]]))

    @settings(max_examples=60)
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_result_between_endpoints(self, m, n, seed):
        rng = make_rng(seed)
        beta = rng.uniform(1e-9, 1 - 1e-9, (m, n))
        eta0 = rng.uniform(1e-9, 1 - 1e-9, (m, n))
        eta_hat = rng.uniform(1e-9, 1 - 1e-9, (m, n))
        out = full_step(beta, eta0, eta_hat)
        lo, hi = np.minimum(eta0, eta_hat), np.maximum(eta0, eta_hat)
        assert (out >= lo).all() and (out <= hi).all()
        assert (out > 0).all() and (out < 1).all()


class TestReduceToKind:
    def test_element_is_identity(self):
        g = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(reduce_to_kind(g, StepSizeKind.ELEMENT), g)

    def test_scalar_total_sum(self):
        out = reduce_to_kind(np.array([[1.0, 2.0], [3.0, 4.0]]), StepSizeKind.SCALAR)
        assert np.array_equal(out, [[10.0]])

    def test_row_sums(self):
        out = reduce_to_kind(np.array([[1.0, 2.0], [3.0, 4.0]]), StepSizeKind.ROW)
        assert np.array_equal(out, [[3.0], [7.0]])

    def test_column_sums(self):
        out = reduce_to_kind(np.array([[1.0, 2.0], [3.0, 4.0]]), StepSizeKind.COLUMN)
        assert np.array_equal(out, [[4.0, 6.0]])

    @settings(max_examples=60)
    @given(
        st.sampled_from(list(StepSizeKind)),
        st.integers(1, 5),
        st.integers(1, 5),
        st.integers(0, 2**32 - 1),
    )
    def test_adjoint_of_broadcast(self, kind, m, n, seed):
        rng = make_rng(seed)
        g = rng.standard_normal((m, n))
        s = rng.standard_normal(kind.shape_for((m, n)))
        lhs = float(np.vdot(np.broadcast_to(s, (m, n)), g))
        rhs = float(np.vdot(s, reduce_to_kind(g, kind)))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    @settings(max_examples=200)
    @given(
        st.sampled_from(list(StepSizeKind)),
        st.one_of(st.just(1), st.integers(1, 300)),
        st.one_of(st.just(1), st.integers(1, 300)),
        st.integers(0, 2**32 - 1),
    )
    def test_bitwise_the_per_kind_sums(self, kind, m, n, seed):
        # 1-row and 1-column layers included: there some kinds coincide
        g = make_rng(seed).standard_normal((m, n))
        want = {
            StepSizeKind.SCALAR: np.array([[g.sum()]]),
            StepSizeKind.ROW: g.sum(axis=1, keepdims=True),
            StepSizeKind.COLUMN: g.sum(axis=0, keepdims=True),
            StepSizeKind.ELEMENT: g,
        }[kind]
        out = reduce_to_kind(g, kind)
        assert out.shape == want.shape and out.tobytes() == want.tobytes()
        assert (out is g) == (kind is StepSizeKind.ELEMENT or want.shape == g.shape)


class TestStepSizeType:
    def test_shapes_per_kind(self):
        assert StepSizeKind.SCALAR.shape_for((3, 4)) == (1, 1)
        assert StepSizeKind.ELEMENT.shape_for((3, 4)) == (3, 4)
        assert StepSizeKind.ROW.shape_for((3, 4)) == (3, 1)
        assert StepSizeKind.COLUMN.shape_for((3, 4)) == (1, 4)

    def test_initial_values(self):
        s = StepSize.initial(StepSizeKind.ROW, (3, 4), 0.1)
        assert s.values.shape == (3, 1)
        assert (s.values == 0.1).all() and s.eta0 == 0.1

    def test_open_interval_enforced(self):
        with pytest.raises(ValueError):
            StepSize.initial(StepSizeKind.SCALAR, (1, 1), 1.0)
        with pytest.raises(ValueError):
            StepSize(np.array([[0.0]]), 0.1)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            StepSize(np.array([[np.nan]]), 0.1)
        with pytest.raises(ValueError):
            StepSize(np.array([[0.1], [0.2]]), np.nan)


class TestComposeArms:
    def setup_method(self):
        rng = make_rng(42)
        self.beta = rng.uniform(0.1, 0.9, (2, 2))
        self.eta0 = np.full((2, 2), 0.1)
        self.eta_hat = rng.uniform(0.1, 0.9, (2, 2))

    def test_full_is_the_convex_combination(self):
        value, dbeta, deta = compose_step(ARM_FULL, self.beta, self.eta0, self.eta_hat)
        expected = self.beta * self.eta0 + (1.0 - self.beta) * self.eta_hat
        assert value.tobytes() == expected.tobytes()
        assert np.allclose(dbeta, self.eta0 - self.eta_hat)
        assert np.allclose(deta, 1.0 - self.beta)

    def test_baseline_pins_initial(self):
        value, dbeta, deta = compose_step(ARM_BASELINE, self.beta, self.eta0, self.eta_hat)
        assert np.array_equal(value, self.eta0)
        assert not dbeta.any() and not deta.any()

    def test_left_only(self):
        value, dbeta, deta = compose_step(ARM_LEFT, self.beta, self.eta0, self.eta_hat)
        assert np.allclose(value, self.beta * self.eta0)
        assert np.allclose(dbeta, self.eta0)
        assert not deta.any()

    def test_right_only(self):
        value, dbeta, deta = compose_step(ARM_RIGHT, self.beta, self.eta0, self.eta_hat)
        assert np.allclose(value, (1 - self.beta) * self.eta_hat)
        assert np.allclose(dbeta, -self.eta_hat)
        assert np.allclose(deta, 1.0 - self.beta)

    def test_unknown_arm(self):
        with pytest.raises(ValueError, match="full"):
            compose_step("both", self.beta, self.eta0, self.eta_hat)
