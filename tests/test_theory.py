import numpy as np
import pytest

from samt.numerics import make_rng, spawn_rngs
from samt.theory import (
    am_operator,
    ball_project,
    contractivity_check,
    default_balls,
    full_gradient,
    isotropic_problem,
    make_problem,
    noise_second_moment_bound,
    plateau,
    plateau_halving_factor,
    plateau_quartering_step,
    random_problem,
    recursion_check,
    recursion_ratio,
    sample_gradient,
    stochastic_am_run,
)


def diag_quadratic():
    """Single noise-free block, covariance diag(1, 2): lambda=1, mu=2."""
    factor = np.diag([1.0, np.sqrt(2.0)])
    return make_problem(factor, (2,), [np.zeros((2, 1))], 0.0, 2.0)


class TestSpectralConstants:
    @pytest.mark.parametrize("seed", range(8))
    def test_constants_match_dense_oracle(self, seed):
        problem = random_problem(seed, dims=(5, 4, 7), coupling=0.2)
        cov = problem.cov
        for d, sl in enumerate(problem.slices):
            dense = np.linalg.eigvalsh(cov[sl, sl])
            assert problem.lambdas[d] == pytest.approx(dense.min(), abs=1e-8)
            assert problem.mus[d] == pytest.approx(dense.max(), abs=1e-8)
            worst = 0.0
            for i in range(problem.num_blocks):
                if i != d:
                    si = problem.slices[i]
                    worst = max(worst, np.linalg.svd(cov[sl, si], compute_uv=False)[0])
            assert problem.gammas[d] == pytest.approx(worst, abs=1e-8)

    def test_diagonal_block_gives_its_extremes(self):
        factor = np.diag(np.sqrt([0.5, 3.0, 1.0]))
        problem = make_problem(factor, (3,), [np.zeros((3, 1))], 0.0, 1.0)
        assert problem.lambdas[0] == pytest.approx(0.5, abs=1e-12)
        assert problem.mus[0] == pytest.approx(3.0, abs=1e-12)

    @pytest.mark.parametrize("dims", [(6, 6), (3, 4, 5)])
    def test_isotropic_gammas_equal_the_coupling(self, dims):
        problem = isotropic_problem(0, dims, coupling=0.1)
        assert problem.gammas == pytest.approx((0.1,) * len(dims), abs=1e-12)

    def test_uncoupled_blocks_have_zero_gamma(self):
        problem = random_problem(2, dims=(3, 4), coupling=0.0)
        assert problem.gammas == (0.0, 0.0)

    def test_singular_diagonal_block_rejected(self):
        # zero rows of the factor give block 0 a zero covariance, so lambda_0 = 0
        factor = np.eye(4)
        factor[:2] = 0.0
        with pytest.raises(ValueError, match="positive definite"):
            make_problem(factor, (2, 2), [np.zeros((2, 1))] * 2, 0.0, 1.0)

    def test_isotropic_coupling_past_one_rejected(self):
        # a cross block of norm 1.5 between identity blocks gives cov the eigenvalue 1 - 1.5
        with pytest.raises(ValueError, match="coupling 1.5 too large"):
            isotropic_problem(0, (3, 3), coupling=1.5)


class TestBallProject:
    def test_interior_point_unchanged(self):
        z = np.array([[0.3], [0.4]])
        assert np.array_equal(ball_project(z, np.zeros((2, 1)), 1.0), z)

    def test_hand_projection(self):
        out = ball_project(np.array([[3.0], [4.0]]), np.zeros((2, 1)), 1.0)
        assert np.allclose(out, [[0.6], [0.8]])

    @pytest.mark.parametrize("seed", range(5))
    def test_feasibility(self, seed):
        rng = make_rng(seed)
        center = rng.standard_normal((4, 1))
        z = 10 * rng.standard_normal((4, 1))
        assert np.linalg.norm(ball_project(z, center, 0.7) - center) <= 0.7 + 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_nonexpansive_toward_in_ball_points(self, seed):
        rng = make_rng(100 + seed)
        center = rng.standard_normal((3, 1))
        z = 5 * rng.standard_normal((3, 1))
        inside = center + 0.9 * rng.uniform(-1, 1, (3, 1)) / 3
        assert np.linalg.norm(inside - center) <= 1.0
        assert np.linalg.norm(ball_project(z, center, 1.0) - inside) <= np.linalg.norm(z - inside) + 1e-12

    def test_columns_project_independently(self):
        # one column inside its ball, one outside: each as if alone
        z = np.array([[0.3, 3.0], [0.4, 4.0]])
        centers = np.zeros((2, 2))
        out = ball_project(z, centers, 1.0)
        for j in range(2):
            assert np.array_equal(out[:, [j]], ball_project(z[:, [j]], centers[:, [j]], 1.0))
        assert np.array_equal(out[:, 0], z[:, 0])
        assert np.allclose(out[:, 1], [0.6, 0.8])

    @pytest.mark.parametrize("radius", [0.0, -1.0, np.nan])
    def test_radius_must_be_positive(self, radius):
        with pytest.raises(ValueError, match="radius must be positive"):
            ball_project(np.ones((2, 1)), np.zeros((2, 1)), radius)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"shape mismatch: \(2, 1\) vs \(2, 2\)"):
            ball_project(np.ones((2, 1)), np.zeros((2, 2)), 1.0)


class TestAmOperator:
    def test_exact_one_step_solve_isotropic(self):
        problem = make_problem(np.eye(2) * 2.0, (2,), [np.ones((2, 1))], 0.0, 2.0)
        # covariance is 4*I: eta = 1/4 solves in one step
        w = np.array([[3.0], [-1.0]])
        out = am_operator(problem, w, 0, eta=0.25)
        assert np.allclose(out, problem.w_star, atol=1e-12)

    def test_fixed_point_at_optimum(self):
        problem = random_problem(3, dims=(3, 3), coupling=0.2)
        x = problem.w_star.copy()
        for d, sl in enumerate(problem.slices):
            assert np.allclose(am_operator(problem, x, d, 0.5), problem.w_star[sl], atol=1e-12)

    def test_diagonal_quadratic_per_coordinate_factors(self):
        problem = diag_quadratic()
        w = np.array([[1.0], [1.0]])
        out = am_operator(problem, w, 0, eta=2.0 / 3.0)
        # coordinates scale by 1 - eta*lambda_i: 1/3 and -1/3
        assert np.allclose(out, [[1.0 / 3.0], [-1.0 / 3.0]], atol=1e-12)


class TestStochasticRun:
    def test_deterministic_contraction_to_zero(self):
        problem = isotropic_problem(0, dims=(4, 4), coupling=0.1, noise_sd=0.0)
        errors = stochastic_am_run(problem, default_balls(problem, [make_rng(1)]), 0.1, 300)[:, 0]
        assert (np.diff(errors) <= 1e-15).all()
        assert errors[-1] < 1e-12

    def test_start_at_optimum_zero_noise(self):
        # balls of radius r/2 = 1 centered at the optimum
        problem = isotropic_problem(2, dims=(3, 3), coupling=0.1, noise_sd=0.0)
        errors = stochastic_am_run(problem, problem.w_star, 0.1, 50, [make_rng(3)])
        assert np.array_equal(errors, np.zeros((51, 1)))

    def test_noise_gives_positive_plateau(self):
        problem = isotropic_problem(4, dims=(4, 4), coupling=0.1, noise_sd=0.1)
        rngs = [make_rng((5, seed)) for seed in range(30)]
        plateaus = plateau(stochastic_am_run(problem, default_balls(problem, rngs), 0.2, 300, rngs))
        assert plateaus.shape == (30,)
        assert np.mean(plateaus) > 0.0
        assert min(plateaus) > 0.0

    @pytest.mark.parametrize("seed", range(3))
    def test_replicas_do_not_interact(self, seed):
        problem = isotropic_problem((40, seed), dims=(4, 3), coupling=0.1, noise_sd=0.1)
        rngs = spawn_rngs(seed, 5)
        together = stochastic_am_run(problem, default_balls(problem, rngs), 0.2, 200, rngs)
        for j in range(5):
            alone = [spawn_rngs(seed, 5)[j]]
            column = stochastic_am_run(problem, default_balls(problem, alone), 0.2, 200, alone)
            np.testing.assert_allclose(together[:, j], column[:, 0], rtol=1e-12, atol=0.0)

    def test_predrawn_normals_match_interleaved_draws(self):
        # a replica's one (steps, L, m + 1) draw is the stream of one (m, 1)
        # draw for z and one scalar draw for eps per block update
        steps, big_l, m = 50, 3, 7
        block = make_rng(41).standard_normal((steps, big_l, m + 1))
        rng = make_rng(41)
        for t in range(steps):
            for d in range(big_l):
                z = rng.standard_normal((m, 1))
                eps = rng.standard_normal()
                assert np.array_equal(block[t, d, :m], z[:, 0])
                assert block[t, d, m] == eps

    def test_run_reads_each_stream_as_interleaved_draws(self):
        # one replica against a sweep loop that draws z and eps per update
        problem = isotropic_problem(47, dims=(3, 4), coupling=0.1, noise_sd=0.1)
        steps, m = 30, problem.w_star.shape[0]
        run_rng, ref_rng = make_rng(48), make_rng(48)
        centers = default_balls(problem, [run_rng])
        x = default_balls(problem, [ref_rng])
        expected = [np.sum((x - problem.w_star) ** 2)]
        for _ in range(steps):
            for d, sl in enumerate(problem.slices):
                z = ref_rng.standard_normal((m, 1))
                normals = np.vstack([z, [[ref_rng.standard_normal()]]])
                g = sample_gradient(problem, x, d, normals)
                x[sl] = ball_project(x[sl] - 0.2 * g, centers[sl], 0.5 * problem.radius)
            expected.append(np.sum((x - problem.w_star) ** 2))
        errors = stochastic_am_run(problem, centers, 0.2, steps, [run_rng])
        assert np.array_equal(errors[:, 0], expected)

    def test_generator_count_must_match_replicas(self):
        problem = isotropic_problem(42, dims=(2, 2), noise_sd=0.1)
        rngs = spawn_rngs(0, 3)
        with pytest.raises(ValueError, match="2 generators for 3 replicas"):
            stochastic_am_run(problem, default_balls(problem, rngs), 0.1, 5, rngs[:2])


class TestContractivity:
    def test_isotropic_at_exact_step_contracts_to_zero(self):
        problem = make_problem(np.eye(3), (3,), [np.zeros((3, 1))], 0.0, 1.0)
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

    def test_noise_free_ratio_approaches_the_exact_sweep_rate_below_the_bound(self):
        # one noise-free Gauss-Seidel sweep maps the error e to prod_d (I - eta E_d C) e, with
        # E_d block d's coordinate projector; its spectral radius rho sets the per-sweep rate
        problem = isotropic_problem(0, dims=(6, 6), coupling=0.1, noise_sd=0.0)
        eta, m = 0.1, problem.cov.shape[0]
        sweep = np.eye(m)
        for sl in problem.slices:
            projector = np.zeros((m, m))
            projector[sl, sl] = np.eye(sl.stop - sl.start)
            sweep = (np.eye(m) - eta * projector @ problem.cov) @ sweep
        rho_sq = float(np.max(np.abs(np.linalg.eigvals(sweep)))) ** 2
        bound = recursion_ratio(problem, eta)
        assert rho_sq <= bound < rho_sq * 1.002  # the bound is within 0.2% of the exact rate

        errs = np.array([row[1] for row in recursion_check(problem, eta, steps=300, seed=0).rows])
        gap = rho_sq - errs[1:] / errs[:-1]  # gap[t - 1]: report row t's error over row t - 1's
        assert np.all(gap >= 0.0)  # from below
        assert gap[0] > 5e-3 and gap[49] < 3e-3 and np.all(gap[199:] < 1e-3)

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
        m = problem.w_star.shape[0]
        worst = 0.0
        for _ in range(20):
            point = problem.w_star.copy()
            for sl in problem.slices:
                v = rng.standard_normal((sl.stop - sl.start, 1))
                point[sl] += problem.radius * v / np.linalg.norm(v)
            total = 0.0
            for d in range(problem.num_blocks):
                # 400 samples as columns, each row of the draw one (z, eps)
                draws = sample_gradient(problem, point, d, rng.standard_normal((400, m + 1)).T)
                total += float(np.mean(np.sum(draws * draws, axis=0)))
            worst = max(worst, total)
        assert worst <= bound

    def test_mean_of_sample_gradient_is_population_gradient(self):
        problem = isotropic_problem(26, dims=(3, 3), coupling=0.2, noise_sd=0.1)
        rng = make_rng(27)
        point = problem.w_star + 0.5
        normals = rng.standard_normal((40_000, problem.w_star.shape[0] + 1)).T
        draws = np.mean(sample_gradient(problem, point, 0, normals), axis=1, keepdims=True)
        exact = full_gradient(problem, point, 0)
        assert np.allclose(draws, exact, atol=0.05)


def test_decoupled_gauss_seidel_equals_jacobi_sweep():
    # with zero coupling each block's gradient ignores the others, so one
    # alternating sweep equals the simultaneous update exactly
    problem = random_problem(28, dims=(4, 3), coupling=0.0)
    rng = make_rng(29)
    start = problem.w_star + rng.standard_normal(problem.w_star.shape)
    gs = start.copy()
    for d, sl in enumerate(problem.slices):
        gs[sl] = am_operator(problem, gs, d, 0.2)
    jacobi = np.vstack([am_operator(problem, start, d, 0.2) for d in range(problem.num_blocks)])
    assert np.array_equal(gs, jacobi)


def test_exact_gradient_run_contracts_to_a_plateau_below_the_start():
    problem = isotropic_problem(30, dims=(4, 4), coupling=0.05, noise_sd=0.0)
    errors = stochastic_am_run(problem, default_balls(problem, [make_rng(31)]), 0.1, 120)[:, 0]
    observed = -np.log(errors[60] / errors[50]) / 10.0
    assert observed >= -np.log(recursion_ratio(problem, 0.1))
    assert plateau(errors) < errors[0]


BAD_STEPS = [float("nan"), 0.0, -0.1]


@pytest.mark.parametrize("eta", BAD_STEPS)
class TestStepGuards:
    """A NaN, zero or negative step raises instead of passing vacuously."""

    def test_am_operator(self, eta):
        problem = diag_quadratic()
        with pytest.raises(ValueError, match="step must be positive"):
            am_operator(problem, problem.w_star, 0, eta)

    def test_contractivity_check(self, eta):
        with pytest.raises(ValueError, match="eta must be positive"):
            contractivity_check(diag_quadratic(), 0, eta, trials=10, rng=make_rng(43))

    def test_recursion_ratio(self, eta):
        problem = isotropic_problem(44, dims=(3, 3), coupling=0.1, noise_sd=0.05)
        with pytest.raises(ValueError, match="step must be positive"):
            recursion_ratio(problem, eta)

    @pytest.mark.parametrize("noise_sd", [0.05, 0.0])
    def test_recursion_check(self, eta, noise_sd):
        problem = isotropic_problem(45, dims=(3, 3), coupling=0.1, noise_sd=noise_sd)
        with pytest.raises(ValueError, match="step must be positive"):
            recursion_check(problem, eta, mc_runs=3, steps=5)

    def test_plateau_halving_factor(self, eta):
        problem = isotropic_problem(46, dims=(3, 3), coupling=0.1, noise_sd=0.05)
        with pytest.raises(ValueError, match="step must be positive"):
            plateau_halving_factor(problem, eta, mc_runs=3, steps=5)
