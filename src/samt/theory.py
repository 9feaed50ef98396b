"""Verification harness for block-coordinate descent on synthetic quadratics.

The test bed is multi-block least squares with a known optimum: a joint
feature vector is Gaussian with a block-structured covariance C, the
response is linear in the optimum plus noise, so the population
objective is an exactly known coupled quadratic.  Per block d,
lambda_d / mu_d are the extreme eigenvalues of the diagonal covariance
block and gamma_d is the largest cross-block operator norm: together
they determine the contraction and coupling constants the inequality
checks use.

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
  moment over the constraint balls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import Matrix, spawn_rngs


# ---------------------------------------------------------------------------
# Spectral constants by power iteration (dense decompositions stay in tests
# as the independent oracle).
# ---------------------------------------------------------------------------


def power_eigmax(sym: Matrix, tol: float = 1e-12, max_iter: int = 100_000) -> float:
    """Largest eigenvalue of a symmetric PSD matrix by power iteration."""
    n = sym.shape[0]
    if not np.any(sym):
        return 0.0
    v = np.full(n, 1.0 / math.sqrt(n))
    v += 1e-4 * np.sin(np.arange(n) + 1.0)  # deterministic de-symmetrizing nudge
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iter):
        w = sym @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
        lam = float(v @ (sym @ v))
        if np.linalg.norm(sym @ v - lam * v) <= tol * max(1.0, abs(lam)):
            break
    return lam


def eig_extremes(sym: Matrix, tol: float = 1e-12) -> tuple[float, float]:
    """(smallest, largest) eigenvalue of a symmetric PSD matrix."""
    hi = power_eigmax(sym, tol)
    shifted = hi * np.eye(sym.shape[0]) - sym
    lo = hi - power_eigmax(shifted, tol)
    return lo, hi


def operator_norm(a: Matrix, tol: float = 1e-12) -> float:
    """Spectral norm via power iteration on a^T a."""
    return math.sqrt(max(0.0, power_eigmax(a.T @ a, tol)))


# ---------------------------------------------------------------------------
# The synthetic problem
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadraticProblem:
    """Coupled multi-block least squares with a known optimum.

    A sample is (a, y): a = S z with z standard normal (so cov(a) = S S^T),
    y = a^T w* + eps.  Blocks are contiguous coordinate ranges of a.
    """

    factor: Matrix  # S, (m x m); rows partitioned into blocks
    dims: tuple[int, ...]
    w_star: tuple[Matrix, ...]  # (n_d, 1) per block
    noise_sd: float
    radii: tuple[float, ...]  # constraint-ball radius r_d per block
    # derived spectral constants
    lambdas: tuple[float, ...] = field(default=())
    mus: tuple[float, ...] = field(default=())
    gammas: tuple[float, ...] = field(default=())

    @property
    def num_blocks(self) -> int:
        return len(self.dims)

    @property
    def cov(self) -> Matrix:
        return self.factor @ self.factor.T

    def block_slice(self, d: int) -> slice:
        start = sum(self.dims[:d])
        return slice(start, start + self.dims[d])

    @property
    def xi(self) -> float:
        return min(
            2.0 * m * l / (m + l) for l, m in zip(self.lambdas, self.mus)
        )

    @property
    def gamma(self) -> float:
        return max(self.gammas)

    def stacked_optimum(self) -> Matrix:
        return np.vstack(self.w_star)


def _derive_constants(factor, dims):
    cov = factor @ factor.T
    starts = np.cumsum((0,) + tuple(dims))
    lambdas, mus, gammas = [], [], []
    for d in range(len(dims)):
        sl = slice(starts[d], starts[d + 1])
        lo, hi = eig_extremes(cov[sl, sl])
        lambdas.append(lo)
        mus.append(hi)
        worst = 0.0
        for i in range(len(dims)):
            if i == d:
                continue
            si = slice(starts[i], starts[i + 1])
            worst = max(worst, operator_norm(cov[sl, si]))
        gammas.append(worst)
    return tuple(lambdas), tuple(mus), tuple(gammas)


def make_problem(factor: Matrix, dims, w_star, noise_sd: float, radii) -> QuadraticProblem:
    dims = tuple(int(d) for d in dims)
    lambdas, mus, gammas = _derive_constants(factor, dims)
    if min(lambdas) <= 0:
        raise ValueError(f"every diagonal block must be positive definite, got lambdas {lambdas}")
    return QuadraticProblem(
        factor=factor,
        dims=dims,
        w_star=tuple(np.asarray(w, dtype=np.float64).reshape(-1, 1) for w in w_star),
        noise_sd=float(noise_sd),
        radii=tuple(float(r) for r in radii),
        lambdas=lambdas,
        mus=mus,
        gammas=gammas,
    )


def random_problem(seed, dims, coupling: float = 0.1, noise_sd: float = 0.0, radius: float = 2.0):
    """Random well-conditioned problem; coupling scales the cross blocks."""
    rng = np.random.default_rng(seed)
    m = sum(dims)
    starts = np.cumsum((0,) + tuple(dims))
    w_star = [rng.standard_normal((n, 1)) for n in dims]
    while True:  # redraw until every diagonal block is positive definite
        factor = np.eye(m) + 0.3 * rng.standard_normal((m, m)) / math.sqrt(m)
        for d in range(len(dims)):
            sl = slice(starts[d], starts[d + 1])
            mask = np.ones(m, dtype=bool)
            mask[sl] = False
            factor[sl, mask] *= coupling
        try:
            return make_problem(factor, dims, w_star, noise_sd, [radius] * len(dims))
        except ValueError:
            continue


def isotropic_problem(seed, dims, coupling: float = 0.1, noise_sd: float = 0.05, radius: float = 2.0):
    """Identity diagonal covariance blocks plus an exactly sized coupling.

    cov = [[I, B], [B^T, I], ...] with every cross block of operator norm
    `coupling`; each block then has lambda = mu = 1, which is the regime
    where the error-recursion ratio is tight.
    """
    rng = np.random.default_rng(seed)
    m = sum(dims)
    starts = np.cumsum((0,) + tuple(dims))
    cov = np.eye(m)
    for d in range(len(dims)):
        for i in range(d + 1, len(dims)):
            sd, si = slice(starts[d], starts[d + 1]), slice(starts[i], starts[i + 1])
            b = rng.standard_normal((sd.stop - sd.start, si.stop - si.start))
            b *= coupling / operator_norm(b)
            cov[sd, si] = b
            cov[si, sd] = b.T
    # PSD factor via symmetric eigendecomposition
    vals, vecs = np.linalg.eigh(cov)
    if vals.min() <= 0:
        raise ValueError(f"coupling {coupling} too large for PSD covariance")
    factor = vecs @ np.diag(np.sqrt(vals)) @ vecs.T
    w_star = [rng.standard_normal((n, 1)) for n in dims]
    return make_problem(factor, dims, w_star, noise_sd, [radius] * len(dims))


def full_gradient(problem: QuadraticProblem, blocks, d: int) -> Matrix:
    """Population gradient of the objective for block d."""
    delta = np.vstack(blocks) - problem.stacked_optimum()
    return problem.cov[problem.block_slice(d), :] @ delta


def sample_gradient(problem: QuadraticProblem, blocks, d: int, rng) -> Matrix:
    """Single-sample stochastic gradient (one fresh data draw)."""
    z = rng.standard_normal((problem.factor.shape[1], 1))
    a = problem.factor @ z
    eps = problem.noise_sd * rng.standard_normal()
    delta = np.vstack(blocks) - problem.stacked_optimum()
    residual = float(np.vdot(a, delta)) - eps
    return a[problem.block_slice(d)] * residual


def am_operator(problem: QuadraticProblem, blocks, d: int, eta: float) -> Matrix:
    """One-step gradient map on block d at the supplied block values."""
    if eta <= 0:
        raise ValueError(f"step must be positive, got {eta}")
    return blocks[d] - eta * full_gradient(problem, blocks, d)


@dataclass(frozen=True)
class BallConstraint:
    center: Matrix
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError(f"radius must be positive, got {self.radius}")


def ball_project(z: Matrix, c: BallConstraint) -> Matrix:
    """Euclidean projection onto the ball."""
    if z.shape != c.center.shape:
        raise ValueError(f"shape mismatch: {z.shape} vs {c.center.shape}")
    offset = z - c.center
    norm = float(np.linalg.norm(offset))
    if norm <= c.radius:
        return z.copy()
    return c.center + (c.radius / norm) * offset


def default_balls(problem: QuadraticProblem, rng) -> list[BallConstraint]:
    """Constraint balls of radius r_d/2 centered at a start point that is
    itself r_d/2 away from the optimum, so iterates stay within r_d of it."""
    balls = []
    for d, (w, r) in enumerate(zip(problem.w_star, problem.radii)):
        direction = rng.standard_normal(w.shape)
        direction /= np.linalg.norm(direction)
        balls.append(BallConstraint(center=w + 0.5 * r * direction, radius=0.5 * r))
    return balls


@dataclass
class ErrorTrace:
    """Per-sweep summed squared distance to the optimum."""

    errors: np.ndarray  # length steps + 1, errors[0] is the initial error

    def plateau(self, fraction: float = 0.2) -> float:
        tail = max(1, int(len(self.errors) * fraction))
        return float(np.mean(self.errors[-tail:]))


def stochastic_am_run(
    problem: QuadraticProblem,
    balls,
    eta: float,
    steps: int,
    rng,
    exact_gradients: bool = False,
) -> ErrorTrace:
    """Gauss-Seidel sweeps of projected gradient steps from the ball centers.

    Each block update draws one fresh data sample (or uses the population
    gradient when exact_gradients is set) at the earlier blocks' already
    updated values.
    """
    blocks = [b.center.copy() for b in balls]
    w_star = problem.w_star
    errors = np.empty(steps + 1)
    errors[0] = sum(float(np.sum((w - s) ** 2)) for w, s in zip(blocks, w_star))
    for t in range(steps):
        for d in range(problem.num_blocks):
            if exact_gradients:
                g = full_gradient(problem, blocks, d)
            else:
                g = sample_gradient(problem, blocks, d, rng)
            blocks[d] = ball_project(blocks[d] - eta * g, balls[d])
        errors[t + 1] = sum(float(np.sum((w - s) ** 2)) for w, s in zip(blocks, w_star))
    return ErrorTrace(errors=errors)


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


def _sample_in_ball(center: Matrix, radius: float, rng) -> Matrix:
    direction = rng.standard_normal(center.shape)
    norm = float(np.linalg.norm(direction))
    scale = radius * rng.uniform(0.0, 1.0) ** (1.0 / center.size)
    return center + (scale / norm) * direction


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
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    # The bounds are only guaranteed for eta <= 2/(mu_d + lambda_d); a larger
    # step is allowed through so misconfiguration shows up as violations.
    xi, gamma = problem.xi, problem.gamma
    sq_factor = 1.0 - 2.0 * eta * mu * lam / (mu + lam)
    unsq_factor = max(abs(1.0 - eta * lam), abs(1.0 - eta * mu))
    cross_factor = math.sqrt(max(0.0, 1.0 - eta * xi))

    worst_sq = worst_cross = worst_unsq = worst_lit = float("inf")
    violations = []
    for trial in range(trials):
        point = [
            _sample_in_ball(w, r, rng) for w, r in zip(problem.w_star, problem.radii)
        ]
        dist_d = float(np.linalg.norm(point[d] - problem.w_star[d]))

        # single-block forms: other blocks pinned at the optimum
        at_opt = [w.copy() for w in problem.w_star]
        at_opt[d] = point[d]
        q = am_operator(problem, at_opt, d, eta)
        lhs_sq = float(np.sum((q - problem.w_star[d]) ** 2))
        rhs_sq = sq_factor * dist_d**2
        slack = rhs_sq - lhs_sq
        worst_sq = min(worst_sq, slack)
        if lhs_sq > rhs_sq * (1 + _REL_TOL) + _ABS_TOL:
            violations.append(("squared", trial, d, lhs_sq, rhs_sq))

        lhs_un = math.sqrt(lhs_sq)
        rhs_un = unsq_factor * dist_d
        worst_unsq = min(worst_unsq, rhs_un - lhs_un)
        if lhs_un > rhs_un * (1 + _REL_TOL) + _ABS_TOL:
            violations.append(("unsquared", trial, d, lhs_un, rhs_un))

        # cross-block form: other blocks at the sampled point
        q = am_operator(problem, point, d, eta)
        lhs = float(np.linalg.norm(q - problem.w_star[d]))
        others = sum(
            float(np.linalg.norm(point[i] - problem.w_star[i]))
            for i in range(problem.num_blocks)
            if i != d
        )
        rhs = cross_factor * dist_d + eta * gamma * others
        worst_cross = min(worst_cross, rhs - lhs)
        if lhs > rhs * (1 + _REL_TOL) + _ABS_TOL:
            violations.append(("cross", trial, d, lhs, rhs))
        worst_lit = min(worst_lit, (1.0 - eta * xi) * dist_d + eta * gamma * others - lhs)
    return ContractivityReport(
        block=d,
        eta=eta,
        trials=trials,
        worst_squared_slack=worst_sq,
        worst_cross_slack=worst_cross,
        worst_unsquared_slack=worst_unsq,
        worst_literal_cross_slack=worst_lit,
        violations=violations,
    )


def noise_second_moment_bound(problem: QuadraticProblem) -> float:
    """Upper bound on sum_d sup E ||single-sample gradient_d||^2 over the
    constraint balls (Gaussian fourth moments via Isserlis)."""
    cov = problem.cov
    r_sq = sum(r * r for r in problem.radii)
    cov_norm = power_eigmax(cov)
    total = 0.0
    for d in range(problem.num_blocks):
        sl = problem.block_slice(d)
        trace_d = float(np.trace(cov[sl, sl]))
        row_norm = operator_norm(cov[sl, :])
        total += trace_d * (cov_norm * r_sq + problem.noise_sd**2) + 2.0 * row_norm**2 * r_sq
    return total


def recursion_ratio(problem: QuadraticProblem, eta: float) -> float:
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

    Runs `mc_runs` independently seeded trajectories, then checks
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
        rng = np.random.default_rng(seed)
        trace = stochastic_am_run(problem, default_balls(problem, rng), eta, steps, rng, exact_gradients=True)
        rows, violations = [], []
        bound = trace.errors[0]
        for t in range(steps):
            bound = ratio * bound  # ratio^t * err0
            slack = bound * (1 + _REL_TOL) + _ABS_TOL - trace.errors[t + 1]
            rows.append((t, float(trace.errors[t + 1]), float(bound), float(slack)))
            if slack < 0:
                violations.append(t)
        return RecursionReport(eta, ratio, noise_term, rows, violations)

    errs = np.stack(
        [
            stochastic_am_run(problem, default_balls(problem, rng), eta, steps, rng).errors
            for rng in spawn_rngs(seed, mc_runs)
        ]
    )  # (runs, steps+1)
    rows, violations = [], []
    n_runs = errs.shape[0]
    for t in range(errs.shape[1] - 1):
        per_run_slack = ratio * errs[:, t] + noise_term - errs[:, t + 1]
        mean_slack = float(per_run_slack.mean())
        se = float(per_run_slack.std(ddof=1) / math.sqrt(n_runs)) if n_runs > 1 else 0.0
        rhs = ratio * float(errs[:, t].mean()) + noise_term
        rows.append((t, float(errs[:, t + 1].mean()), rhs, mean_slack))
        if mean_slack < -3.0 * se - _ABS_TOL:
            violations.append(t)
    return RecursionReport(eta, ratio, noise_term, rows, violations)


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
    plateaus = []
    for step_size in (eta, eta / 2.0):
        vals = []
        for rng in spawn_rngs((seed, int(step_size * 1e9)), mc_runs):
            trace = stochastic_am_run(problem, default_balls(problem, rng), step_size, steps, rng)
            vals.append(trace.plateau())
        plateaus.append(float(np.mean(vals)))
    return plateaus[0] / plateaus[1], plateaus[0], plateaus[1]
