"""Verification harness for block-coordinate descent on synthetic quadratics.

The test bed is multi-block least squares with a known optimum: a joint
feature vector is Gaussian with a block-structured covariance C, the
response is linear in the optimum plus noise, so the population
objective is an exactly known coupled quadratic.  Per block d,
lambda_d / mu_d are the extreme eigenvalues of the diagonal covariance
block and gamma_d is the largest cross-block operator norm: together
they determine the contraction and coupling constants the inequality
checks use.  All of them come from LAPACK (`np.linalg.eigvalsh` and
`np.linalg.norm(., 2)`).

An iterate is one stacked (m, R) matrix: block d is the row slice
`problem.slices[d]` and each of the R columns is an independent point
(a contractivity trial) or replica (a Monte Carlo trajectory, drawing
from its own generator).  Every map below acts on all columns at once.

Two families of checks live here:

* contractivity_check - the one-step gradient map, when the other
  blocks sit at their optima, contracts squared distance by
  (1 - 2*eta*mu*lambda/(mu+lambda)); with the other blocks perturbed, the
  per-step distance obeys a sqrt-of-that contraction plus a
  gamma-weighted sum of the other blocks' distances.  The same factor
  applied to unsquared norms does not hold in general (the
  max(|1-eta*lambda|, |1-eta*mu|) form does); both readings are reported.

* recursion_check - over full Gauss-Seidel sweeps with single-sample
  gradients and ball projection, the summed squared error obeys
      E[err(t+1)] <= A * E[err(t)] + eta^2 * sigma^2 / (1 - eta*gamma*(L-1)),
      A = (1 - 2*eta*xi + 2*eta*gamma*(L-1)) / (1 - eta*gamma*(L-1)),
  with xi = min_d 2*mu_d*lambda_d/(mu_d+lambda_d), gamma = max_d gamma_d,
  and sigma^2 an upper bound on the single-sample gradient second
  moment over the constraint balls, which share one radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import Matrix, spawn_rngs


# ---------------------------------------------------------------------------
# The synthetic problem
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadraticProblem:
    """Coupled multi-block least squares with a known optimum.

    A sample is (a, y): a = S z with z standard normal (so cov(a) = S S^T),
    y = a^T w* + eps.  Blocks are contiguous row slices of a.
    """

    factor: Matrix  # S, (m x m)
    cov: Matrix  # S S^T
    w_star: Matrix  # (m, 1), the stacked optimum
    slices: tuple[slice, ...]  # rows of block d
    noise_sd: float
    radius: float  # r: every block's iterates stay within r of its optimum
    lambdas: tuple[float, ...]
    mus: tuple[float, ...]
    gammas: tuple[float, ...]

    @property
    def num_blocks(self) -> int:
        return len(self.slices)

    @property
    def xi(self) -> float:
        return min(
            2.0 * m * l / (m + l) for l, m in zip(self.lambdas, self.mus)
        )

    @property
    def gamma(self) -> float:
        return max(self.gammas)


def _slices(dims) -> tuple[slice, ...]:
    starts = np.cumsum((0,) + tuple(dims)).tolist()
    return tuple(slice(a, b) for a, b in zip(starts[:-1], starts[1:]))


def make_problem(factor: Matrix, dims, w_star, noise_sd: float, radius: float) -> QuadraticProblem:
    """Problem with covariance factor S, block sizes `dims` and the optimum
    given per block; the spectral constants are measured here, once."""
    slices = _slices(int(d) for d in dims)
    cov = factor @ factor.T
    spectra = [np.linalg.eigvalsh(cov[sl, sl]) for sl in slices]  # ascending
    lambdas = tuple(float(eigs[0]) for eigs in spectra)
    if min(lambdas) <= 0:
        raise ValueError(f"every diagonal block must be positive definite, got lambdas {lambdas}")
    gammas = tuple(
        max((float(np.linalg.norm(cov[sl, si], 2)) for i, si in enumerate(slices) if i != d), default=0.0)
        for d, sl in enumerate(slices)
    )
    return QuadraticProblem(
        factor=factor,
        cov=cov,
        w_star=np.vstack([np.asarray(w, dtype=np.float64).reshape(-1, 1) for w in w_star]),
        slices=slices,
        noise_sd=float(noise_sd),
        radius=float(radius),
        lambdas=lambdas,
        mus=tuple(float(eigs[-1]) for eigs in spectra),
        gammas=gammas,
    )


PROBLEM_RADIUS = 2.0  # the constraint radius of the problems generated below


def random_problem(seed, dims, coupling: float = 0.1):
    """Random well-conditioned, noise-free problem; coupling scales the cross blocks."""
    rng = np.random.default_rng(seed)
    m = sum(dims)
    w_star = [rng.standard_normal((n, 1)) for n in dims]
    factor = np.eye(m) + 0.3 * rng.standard_normal((m, m)) / math.sqrt(m)
    for sl in _slices(dims):
        mask = np.ones(m, dtype=bool)
        mask[sl] = False
        factor[sl, mask] *= coupling
    return make_problem(factor, dims, w_star, 0.0, PROBLEM_RADIUS)


def isotropic_problem(seed, dims, coupling: float = 0.1, noise_sd: float = 0.05):
    """Identity diagonal covariance blocks plus an exactly sized coupling.

    cov = [[I, B], [B^T, I], ...] with every cross block of operator norm
    `coupling`; each block then has lambda = mu = 1, which is the regime
    where the error-recursion ratio is tight.
    """
    rng = np.random.default_rng(seed)
    slices = _slices(dims)
    cov = np.eye(sum(dims))
    for d, sd in enumerate(slices):
        for si in slices[d + 1:]:
            b = rng.standard_normal((sd.stop - sd.start, si.stop - si.start))
            b *= coupling / np.linalg.norm(b, 2)
            cov[sd, si] = b
            cov[si, sd] = b.T
    # PSD factor via symmetric eigendecomposition
    vals, vecs = np.linalg.eigh(cov)
    if vals.min() <= 0:
        raise ValueError(f"coupling {coupling} too large for PSD covariance")
    factor = vecs @ np.diag(np.sqrt(vals)) @ vecs.T
    w_star = [rng.standard_normal((n, 1)) for n in dims]
    return make_problem(factor, dims, w_star, noise_sd, PROBLEM_RADIUS)


# ---------------------------------------------------------------------------
# Maps on stacked (m, R) iterates
# ---------------------------------------------------------------------------


def full_gradient(problem: QuadraticProblem, x: Matrix, d: int) -> Matrix:
    """Population gradient of block d at every column of x: (n_d, R)."""
    return problem.cov[problem.slices[d]] @ (x - problem.w_star)


def sample_gradient(problem: QuadraticProblem, x: Matrix, d: int, normals: Matrix) -> Matrix:
    """Single-sample stochastic gradient of block d, one sample per column.

    Column j of `normals` ((m + 1, R)) holds the m standard normals of z
    and then the one of eps; x has R columns, or one that every sample uses.
    """
    a = problem.factor @ normals[:-1]
    residual = np.sum(a * (x - problem.w_star), axis=0) - problem.noise_sd * normals[-1]
    return a[problem.slices[d]] * residual


def am_operator(problem: QuadraticProblem, x: Matrix, d: int, eta: float) -> Matrix:
    """One-step gradient map on block d at every column of x: (n_d, R)."""
    if not eta > 0:
        raise ValueError(f"step must be positive, got {eta}")
    return x[problem.slices[d]] - eta * full_gradient(problem, x, d)


def ball_project(z: Matrix, center: Matrix, radius: float) -> Matrix:
    """Euclidean projection of each column of z onto the ball around the
    matching column of center; columns already inside are returned as is."""
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if z.shape != center.shape:
        raise ValueError(f"shape mismatch: {z.shape} vs {center.shape}")
    offset = z - center
    norm = np.linalg.norm(offset, axis=0)
    out = z.copy()
    outside = norm > radius
    out[:, outside] = center[:, outside] + (radius / norm[outside]) * offset[:, outside]
    return out


def default_balls(problem: QuadraticProblem, rngs) -> Matrix:
    """Centers (m, R), one column per generator, of constraint balls of
    radius r/2 that lie r/2 away from each block's optimum in a random
    direction, so iterates stay within r of it."""
    centers = np.repeat(problem.w_star, len(rngs), axis=1)
    for j, rng in enumerate(rngs):
        for sl in problem.slices:
            direction = rng.standard_normal(sl.stop - sl.start)
            direction /= np.linalg.norm(direction)
            centers[sl, j] = problem.w_star[sl, 0] + 0.5 * problem.radius * direction
    return centers


def stochastic_am_run(problem: QuadraticProblem, centers: Matrix, eta: float, steps: int, rngs=None) -> np.ndarray:
    """Gauss-Seidel sweeps of projected gradient steps, one replica per column.

    Each replica starts at its column of `centers` and is projected onto
    the ball of radius r/2 around it.  With `rngs` (one generator per
    column) each block update takes one fresh data sample at the earlier
    blocks' already updated values; a replica's samples come from one
    (steps, L, m + 1) draw of its own generator, the same stream as one
    (m, 1) and one scalar draw per update.  Without `rngs` every update
    takes the population gradient.  Returns the (steps + 1, R) summed
    squared distances to the optimum; row 0 is the start.
    """
    x = centers.copy()
    if rngs is not None:
        if len(rngs) != x.shape[1]:
            raise ValueError(f"{len(rngs)} generators for {x.shape[1]} replicas")
        shape = (steps, problem.num_blocks, x.shape[0] + 1)
        normals = np.stack([rng.standard_normal(shape) for rng in rngs], axis=-1)
    errors = np.empty((steps + 1, x.shape[1]))
    errors[0] = np.sum((x - problem.w_star) ** 2, axis=0)
    for t in range(steps):
        for d, sl in enumerate(problem.slices):
            if rngs is None:
                g = full_gradient(problem, x, d)
            else:
                g = sample_gradient(problem, x, d, normals[t, d])
            x[sl] = ball_project(x[sl] - eta * g, centers[sl], 0.5 * problem.radius)
        errors[t + 1] = np.sum((x - problem.w_star) ** 2, axis=0)
    return errors


def plateau(errors: np.ndarray) -> np.ndarray:
    """Mean error over the last fifth of the sweeps, per replica."""
    tail = max(1, int(len(errors) * 0.2))
    return np.mean(errors[-tail:], axis=0)


# ---------------------------------------------------------------------------
# Inequality checks
# ---------------------------------------------------------------------------

_REL_TOL = 1e-9
_ABS_TOL = 1e-12


@dataclass
class ContractivityReport:
    block: int
    eta: float
    trials: int
    worst_squared_slack: float
    worst_cross_slack: float
    worst_unsquared_slack: float
    worst_literal_cross_slack: float  # reported only, not asserted
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "pass" if self.ok else f"FAIL ({len(self.violations)} violations)"
        return (
            f"block {self.block} eta={self.eta:.6g} trials={self.trials}: {status}; "
            f"min slack squared={self.worst_squared_slack:.3e} "
            f"cross={self.worst_cross_slack:.3e} "
            f"unsquared={self.worst_unsquared_slack:.3e} "
            f"literal-cross={self.worst_literal_cross_slack:.3e}"
        )


def contractivity_check(problem: QuadraticProblem, d: int, eta: float, trials: int, rng) -> ContractivityReport:
    """Sample points in the constraint balls and test the one-step bounds.

    Asserted forms: the squared single-block contraction with factor
    (1 - 2*eta*mu*lambda/(mu+lambda)); the unsquared single-block
    contraction with factor max(|1-eta*lambda|, |1-eta*mu|); and the
    cross-block bound with per-step factor sqrt(1 - eta*xi) plus
    eta*gamma times the other blocks' distances.  The same cross-block
    bound with the unrooted factor (1 - eta*xi) is measured and reported
    but not asserted; it fails for anisotropic blocks.
    """
    lam, mu = problem.lambdas[d], problem.mus[d]
    if not eta > 0:
        raise ValueError(f"eta must be positive, got {eta}")
    # The bounds are only guaranteed for eta <= 2/(mu_d + lambda_d); a larger
    # step is allowed through so misconfiguration shows up as violations.
    xi, gamma = problem.xi, problem.gamma
    sq_factor = 1.0 - 2.0 * eta * mu * lam / (mu + lam)
    unsq_factor = max(abs(1.0 - eta * lam), abs(1.0 - eta * mu))
    cross_factor = math.sqrt(max(0.0, 1.0 - eta * xi))

    # trial points, one per column, each uniform in every block's radius-r ball
    w_star, sl = problem.w_star, problem.slices[d]
    points = np.repeat(w_star, trials, axis=1)
    for j in range(trials):
        for si in problem.slices:
            direction = rng.standard_normal(si.stop - si.start)
            scale = problem.radius * rng.uniform(0.0, 1.0) ** (1.0 / direction.size)
            points[si, j] += (scale / np.linalg.norm(direction)) * direction
    dists = np.stack([np.linalg.norm(points[si] - w_star[si], axis=0) for si in problem.slices])
    dist_d = dists[d]
    others = np.delete(dists, d, axis=0).sum(axis=0)

    # single-block forms: other blocks pinned at the optimum
    at_opt = np.repeat(w_star, trials, axis=1)
    at_opt[sl] = points[sl]
    lhs_sq = np.sum((am_operator(problem, at_opt, d, eta) - w_star[sl]) ** 2, axis=0)
    rhs_sq = sq_factor * dist_d**2
    lhs_un = np.sqrt(lhs_sq)
    rhs_un = unsq_factor * dist_d
    # cross-block form: other blocks at the sampled point
    lhs = np.linalg.norm(am_operator(problem, points, d, eta) - w_star[sl], axis=0)
    rhs = cross_factor * dist_d + eta * gamma * others

    forms = (("squared", lhs_sq, rhs_sq), ("unsquared", lhs_un, rhs_un), ("cross", lhs, rhs))
    violations = sorted(
        ((kind, int(j), d, float(l[j]), float(r[j]))
         for kind, l, r in forms
         for j in np.flatnonzero(l > r * (1 + _REL_TOL) + _ABS_TOL)),
        key=lambda v: v[1],
    )  # trial order, then the forms' order
    worst_sq, worst_unsq, worst_cross = (float(np.min(r - l, initial=np.inf)) for _, l, r in forms)
    literal = (1.0 - eta * xi) * dist_d + eta * gamma * others - lhs
    return ContractivityReport(
        block=d, eta=eta, trials=trials,
        worst_squared_slack=worst_sq, worst_cross_slack=worst_cross, worst_unsquared_slack=worst_unsq,
        worst_literal_cross_slack=float(np.min(literal, initial=np.inf)), violations=violations,
    )


def noise_second_moment_bound(problem: QuadraticProblem) -> float:
    """Upper bound on sum_d sup E ||single-sample gradient_d||^2 over the
    constraint balls (Gaussian fourth moments via Isserlis)."""
    cov = problem.cov
    r_sq = problem.num_blocks * problem.radius * problem.radius
    cov_norm = np.linalg.norm(cov, 2)
    total = 0.0
    for sl in problem.slices:
        trace_d = float(np.trace(cov[sl, sl]))
        row_norm = np.linalg.norm(cov[sl, :], 2)
        total += trace_d * (cov_norm * r_sq + problem.noise_sd**2) + 2.0 * row_norm**2 * r_sq
    return total


def recursion_ratio(problem: QuadraticProblem, eta: float) -> float:
    if not eta > 0:
        raise ValueError(f"step must be positive, got {eta}")
    big_l = problem.num_blocks
    xi, gamma = problem.xi, problem.gamma
    denom = 1.0 - eta * gamma * (big_l - 1)
    if denom <= 0:
        raise ValueError(f"eta {eta} is not below 1/(gamma*(L-1)) = {1.0 / (gamma * (big_l - 1)):.6g}")
    return (1.0 - 2.0 * eta * xi + 2.0 * eta * gamma * (big_l - 1)) / denom


@dataclass
class RecursionReport:
    eta: float
    ratio: float
    noise_term: float
    rows: list  # (t, mean_err, bound_rhs, slack)
    violations: list  # t indices

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "pass" if self.ok else f"FAIL at t={self.violations[:5]}"
        min_slack = min(r[3] for r in self.rows)
        return (
            f"eta={self.eta:.6g} ratio={self.ratio:.6g} noise_term={self.noise_term:.6g} "
            f"steps={len(self.rows)}: {status}; min slack={min_slack:.3e}"
        )


def recursion_check(
    problem: QuadraticProblem,
    eta: float,
    mc_runs: int = 30,
    steps: int = 500,
    seed: int = 0,
) -> RecursionReport:
    """Assert the one-step error recursion at every sweep.

    Runs `mc_runs` independently seeded replicas, then checks
        mean err(t+1) <= ratio * mean err(t) + noise_term
    within 3 standard errors of the per-run slack.  The coupling must
    satisfy gamma < 2*xi/(3*(L-1)) so the ratio is below one; the step
    must satisfy eta < 1/(gamma*(L-1)).

    With noise_sd == 0 the check is deterministic: one exact-gradient
    trajectory must decay at least geometrically with the ratio.
    """
    big_l = problem.num_blocks
    xi, gamma = problem.xi, problem.gamma
    if big_l > 1 and not gamma < 2.0 * xi / (3.0 * (big_l - 1)):
        raise ValueError(
            f"coupling too strong: gamma={gamma:.6g} must be below 2*xi/(3*(L-1))={2 * xi / (3 * (big_l - 1)):.6g}"
        )
    ratio = recursion_ratio(problem, eta)
    denom = 1.0 - eta * gamma * (big_l - 1)
    noise_term = eta**2 * noise_second_moment_bound(problem) / denom

    if problem.noise_sd == 0.0:
        errs = stochastic_am_run(problem, default_balls(problem, [np.random.default_rng(seed)]), eta, steps)
        mean_err = errs[1:, 0]
        rhs = errs[0, 0] * ratio ** np.arange(1.0, steps + 1)  # ratio^(t+1) * err0
        slack = rhs * (1 + _REL_TOL) + _ABS_TOL - mean_err
        floor = 0.0
    else:
        rngs = spawn_rngs(seed, mc_runs)
        errs = stochastic_am_run(problem, default_balls(problem, rngs), eta, steps, rngs)
        per_run_slack = ratio * errs[:-1] + noise_term - errs[1:]  # (steps, runs)
        mean_err = errs[1:].mean(axis=1)
        rhs = ratio * errs[:-1].mean(axis=1) + noise_term
        slack = per_run_slack.mean(axis=1)
        se = per_run_slack.std(axis=1, ddof=1) / math.sqrt(mc_runs) if mc_runs > 1 else 0.0
        floor = -3.0 * se - _ABS_TOL
    rows = list(zip(range(steps), mean_err.tolist(), rhs.tolist(), slack.tolist()))
    return RecursionReport(eta, ratio, noise_term, rows, np.flatnonzero(slack < floor).tolist())


def plateau_quartering_step(problem: QuadraticProblem) -> float:
    """A base step for which halving should shrink the noise plateau ~4x.

    Single-sample gradients carry multiplicative noise whose strength
    scales with the covariance trace, so the stationary error behaves
    like eta / (2 - c*eta) with c ~ 2 + trace(cov); halving eta then
    multiplies the plateau by (4 - c*eta)/(2 - c*eta), which equals 4 at
    c*eta = 4/3.
    """
    c = 2.0 + float(np.trace(problem.cov))
    return 4.0 / (3.0 * c)


def plateau_halving_factor(
    problem: QuadraticProblem,
    eta: float,
    mc_runs: int = 30,
    steps: int = 500,
    seed: int = 0,
) -> tuple[float, float, float]:
    """Measured plateau at eta and eta/2; returns (factor, plateau, plateau_half)."""
    if not eta > 0:
        raise ValueError(f"step must be positive, got {eta}")
    plateaus = []
    for step_size in (eta, eta / 2.0):
        rngs = spawn_rngs((seed, int(step_size * 1e9)), mc_runs)
        errs = stochastic_am_run(problem, default_balls(problem, rngs), step_size, steps, rngs)
        plateaus.append(float(np.mean(plateau(errs))))
    return plateaus[0] / plateaus[1], plateaus[0], plateaus[1]
