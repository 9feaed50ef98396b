import numpy as np
import pytest

from samt.numerics import make_rng
from samt.theory import (
    BallConstraint,
    am_operator,
    ball_project,
    contractivity_check,
    default_balls,
    eig_extremes,
    full_gradient,
    isotropic_problem,
    make_problem,
    noise_second_moment_bound,
    operator_norm,
    plateau_halving_factor,
    plateau_quartering_step,
    power_eigmax,
    random_problem,
    recursion_check,
    recursion_ratio,
    sample_gradient,
    stochastic_am_run,
)


def diag_quadratic(noise_sd=0.0, radius=2.0):
    """Single block, covariance diag(1, 2): lambda=1, mu=2."""
    factor = np.diag([1.0, np.sqrt(2.0)])
    return make_problem(factor, (2,), [np.zeros((2, 1))], noise_sd, [radius])


class TestSpectralConstants:
    @pytest.mark.parametrize("seed", range(8))
    def test_power_iteration_matches_dense_oracle(self, seed):
        problem = random_problem(seed, dims=(5, 4, 7), coupling=0.2)
        cov = problem.cov
        for d in range(problem.num_blocks):
            sl = problem.block_slice(d)
            dense = np.linalg.eigvalsh(cov[sl, sl])
            assert problem.lambdas[d] == pytest.approx(dense.min(), abs=1e-8)
            assert problem.mus[d] == pytest.approx(dense.max(), abs=1e-8)
            worst = 0.0
            for i in range(problem.num_blocks):
                if i != d:
                    si = problem.block_slice(i)
                    worst = max(worst, np.linalg.svd(cov[sl, si], compute_uv=False)[0])
            assert problem.gammas[d] == pytest.approx(worst, abs=1e-8)

    def test_eig_extremes_on_known_matrix(self):
        lo, hi = eig_extremes(np.diag([0.5, 3.0, 1.0]))
        assert lo == pytest.approx(0.5, abs=1e-10)
        assert hi == pytest.approx(3.0, abs=1e-10)

    def test_operator_norm_rank_one(self):
        u = np.array([[3.0], [4.0]])
        assert operator_norm(u @ u.T / 5.0) == pytest.approx(5.0, abs=1e-10)

    def test_zero_matrix(self):
        assert power_eigmax(np.zeros((3, 3))) == 0.0


class TestBallProject:
    def test_interior_point_unchanged(self):
        c = BallConstraint(np.zeros((2, 1)), 1.0)
        z = np.array([[0.3], [0.4]])
        assert np.array_equal(ball_project(z, c), z)

    def test_hand_projection(self):
        c = BallConstraint(np.zeros((2, 1)), 1.0)
        out = ball_project(np.array([[3.0], [4.0]]), c)
        assert np.allclose(out, [[0.6], [0.8]])

    @pytest.mark.parametrize("seed", range(5))
    def test_feasibility(self, seed):
        rng = make_rng(seed)
        c = BallConstraint(rng.standard_normal((4, 1)), 0.7)
        z = 10 * rng.standard_normal((4, 1))
        assert np.linalg.norm(ball_project(z, c) - c.center) <= 0.7 + 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_nonexpansive_toward_in_ball_points(self, seed):
        rng = make_rng(100 + seed)
        c = BallConstraint(rng.standard_normal((3, 1)), 1.0)
        z = 5 * rng.standard_normal((3, 1))
        inside = c.center + 0.9 * rng.uniform(-1, 1, (3, 1)) / 3
        assert np.linalg.norm(inside - c.center) <= 1.0
        assert np.linalg.norm(ball_project(z, c) - inside) <= np.linalg.norm(z - inside) + 1e-12


class TestAmOperator:
    def test_exact_one_step_solve_isotropic(self):
        problem = make_problem(np.eye(2) * 2.0, (2,), [np.ones((2, 1))], 0.0, [2.0])
        # covariance is 4*I: eta = 1/4 solves in one step
        w = [np.array([[3.0], [-1.0]])]
        out = am_operator(problem, w, 0, eta=0.25)
        assert np.allclose(out, problem.w_star[0], atol=1e-12)

    def test_fixed_point_at_optimum(self):
        problem = random_problem(3, dims=(3, 3), coupling=0.2)
        blocks = [w.copy() for w in problem.w_star]
        for d in range(2):
            assert np.allclose(am_operator(problem, blocks, d, 0.5), problem.w_star[d], atol=1e-12)

    def test_diagonal_quadratic_per_coordinate_factors(self):
        problem = diag_quadratic()
        w = [np.array([[1.0], [1.0]])]
        out = am_operator(problem, w, 0, eta=2.0 / 3.0)
        # coordinates scale by 1 - eta*lambda_i: 1/3 and -1/3
        assert np.allclose(out, [[1.0 / 3.0], [-1.0 / 3.0]], atol=1e-12)


class TestStochasticRun:
    def test_deterministic_contraction_to_zero(self):
        problem = isotropic_problem(0, dims=(4, 4), coupling=0.1, noise_sd=0.0)
        rng = make_rng(1)
        trace = stochastic_am_run(
            problem, default_balls(problem, rng), 0.1, 300, rng, exact_gradients=True
        )
        assert (np.diff(trace.errors) <= 1e-15).all()
        assert trace.errors[-1] < 1e-12

    def test_start_at_optimum_zero_noise(self):
        problem = isotropic_problem(2, dims=(3, 3), coupling=0.1, noise_sd=0.0)
        balls = [BallConstraint(w.copy(), 1.0) for w in problem.w_star]
        rng = make_rng(3)
        trace = stochastic_am_run(problem, balls, 0.1, 50, rng)
        assert np.array_equal(trace.errors, np.zeros(51))

    def test_noise_gives_positive_plateau(self):
        problem = isotropic_problem(4, dims=(4, 4), coupling=0.1, noise_sd=0.1)
        plateaus = []
        for seed in range(30):
            rng = make_rng((5, seed))
            trace = stochastic_am_run(problem, default_balls(problem, rng), 0.2, 300, rng)
            plateaus.append(trace.plateau())
        assert np.mean(plateaus) > 0.0
        assert min(plateaus) > 0.0


class TestContractivity:
    def test_isotropic_at_exact_step_contracts_to_zero(self):
        problem = make_problem(np.eye(3), (3,), [np.zeros((3, 1))], 0.0, [1.0])
        report = contractivity_check(problem, 0, eta=1.0, trials=50, rng=make_rng(6))
        assert report.ok
        # left side collapses to roundoff, so slack is the right side minus dust
        assert report.worst_squared_slack >= -1e-12

    def test_diag_quadratic_squared_form_holds(self):
        problem = diag_quadratic()
        report = contractivity_check(problem, 0, eta=2.0 / 3.0, trials=100, rng=make_rng(7))
        assert report.ok, report.violations[:3]

    @pytest.mark.parametrize("seed", range(10))
    def test_random_problems_zero_violations(self, seed):
        problem = random_problem((8, seed), dims=(5, 6), coupling=0.15)
        rng = make_rng((9, seed))
        for d in range(problem.num_blocks):
            eta = 2.0 / (problem.mus[d] + problem.lambdas[d])
            report = contractivity_check(problem, d, eta, trials=100, rng=rng)
            assert report.ok, report.violations[:3]

    def test_decoupled_reduces_to_single_block_form(self):
        problem = random_problem(10, dims=(4, 4), coupling=0.0)
        assert problem.gamma == pytest.approx(0.0, abs=1e-12)
        for d in range(2):
            eta = 2.0 / (problem.mus[d] + problem.lambdas[d])
            report = contractivity_check(problem, d, eta, trials=100, rng=make_rng(11))
            assert report.ok

    def test_literal_unsquared_factor_fails_on_anisotropic_blocks(self):
        # the unrooted factor applied to unsquared norms fails on
        # anisotropic blocks: on diag(1,2) at eta=2/3 the true ratio is
        # 1/3, the factor 1/9
        problem = diag_quadratic()
        report = contractivity_check(problem, 0, eta=2.0 / 3.0, trials=200, rng=make_rng(12))
        assert report.worst_literal_cross_slack < 0.0
        assert report.ok  # while every asserted form still holds

    def test_oversized_step_fails_loudly(self):
        problem = diag_quadratic()
        eta = 2.5 / (problem.mus[0] + problem.lambdas[0])
        report = contractivity_check(problem, 0, eta, trials=100, rng=make_rng(13))
        assert not report.ok
        kind, trial, block, lhs, rhs = report.violations[0]
        assert lhs > rhs


class TestRecursion:
    def test_noise_free_geometric_decay(self):
        problem = isotropic_problem(14, dims=(5, 5), coupling=0.1, noise_sd=0.0)
        report = recursion_check(problem, eta=0.1, steps=200, seed=15)
        assert report.ok, report.violations[:5]
        assert 0.0 < report.ratio < 1.0

    def test_noisy_per_step_inequality(self):
        problem = isotropic_problem(16, dims=(5, 5), coupling=0.1, noise_sd=0.05)
        report = recursion_check(problem, eta=0.1, mc_runs=20, steps=200, seed=17)
        assert report.ok, report.violations[:5]

    def test_coupling_condition_enforced(self):
        problem = isotropic_problem(18, dims=(4, 4), coupling=0.8, noise_sd=0.05)
        with pytest.raises(ValueError, match="coupling"):
            recursion_check(problem, eta=0.1)

    def test_step_bound_enforced(self):
        problem = isotropic_problem(19, dims=(4, 4), coupling=0.1, noise_sd=0.05)
        with pytest.raises(ValueError, match="1/\\(gamma"):
            recursion_ratio(problem, eta=20.0)

    def test_halving_step_shrinks_plateau(self):
        problem = isotropic_problem(20, dims=(6, 6), coupling=0.1, noise_sd=0.05)
        eta = plateau_quartering_step(problem)
        factor, hi, lo = plateau_halving_factor(problem, eta=eta, mc_runs=12, steps=300, seed=21)
        assert hi > lo > 0.0
        assert 2.5 <= factor <= 6.0

    def test_report_rows_have_expected_columns(self):
        problem = isotropic_problem(22, dims=(3, 3), coupling=0.1, noise_sd=0.05)
        report = recursion_check(problem, eta=0.1, mc_runs=5, steps=50, seed=23)
        t, mean_err, rhs, slack = report.rows[0]
        assert t == 0 and mean_err > 0 and rhs > 0


class TestNoiseBound:
    @pytest.mark.parametrize("seed", range(3))
    def test_bound_dominates_measured_second_moment(self, seed):
        problem = isotropic_problem((24, seed), dims=(4, 4), coupling=0.1, noise_sd=0.1)
        bound = noise_second_moment_bound(problem)
        rng = make_rng((25, seed))
        worst = 0.0
        for _ in range(20):
            point = [
                w + r * (v := rng.standard_normal(w.shape)) / np.linalg.norm(v)
                for w, r in zip(problem.w_star, problem.radii)
            ]
            total = 0.0
            for d in range(problem.num_blocks):
                draws = [sample_gradient(problem, point, d, rng) for _ in range(400)]
                total += float(np.mean([np.sum(g * g) for g in draws]))
            worst = max(worst, total)
        assert worst <= bound

    def test_mean_of_sample_gradient_is_population_gradient(self):
        problem = isotropic_problem(26, dims=(3, 3), coupling=0.2, noise_sd=0.1)
        rng = make_rng(27)
        point = [w + 0.5 for w in problem.w_star]
        draws = np.mean(
            [sample_gradient(problem, point, 0, rng) for _ in range(40_000)], axis=0
        )
        exact = full_gradient(problem, point, 0)
        assert np.allclose(draws, exact, atol=0.05)


def test_decoupled_gauss_seidel_equals_jacobi_sweep():
    # with zero coupling each block's gradient ignores the others, so one
    # alternating sweep equals the simultaneous update exactly
    problem = random_problem(28, dims=(4, 3), coupling=0.0)
    rng = make_rng(29)
    start = [w + rng.standard_normal(w.shape) for w in problem.w_star]
    gs = [w.copy() for w in start]
    for d in range(problem.num_blocks):
        gs[d] = am_operator(problem, gs, d, 0.2)
    jacobi = [am_operator(problem, start, d, 0.2) for d in range(problem.num_blocks)]
    for a, b in zip(gs, jacobi):
        assert np.array_equal(a, b)


def test_exact_gradient_run_contracts_to_a_plateau_below_the_start():
    problem = isotropic_problem(30, dims=(4, 4), coupling=0.05, noise_sd=0.0)
    rng = make_rng(31)
    trace = stochastic_am_run(
        problem, default_balls(problem, rng), 0.1, 120, rng, exact_gradients=True
    )
    observed = -np.log(trace.errors[60] / trace.errors[50]) / 10.0
    assert observed >= -np.log(recursion_ratio(problem, 0.1))
    assert trace.plateau() < trace.errors[0]
