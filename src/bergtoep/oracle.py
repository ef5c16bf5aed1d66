"""Ground-truth inner products by direct integration.

The oracle never looks at the gamma formulas: it integrates the symbol
pointwise against monomials, either on a deterministic polar tensor grid
(n <= 2) or by seeded Monte Carlo under the exact probability measure of
the space.  Formula values are tested against these numbers.

Work is shared across the alpha of one table through a memo dict.  A memo
belongs to one (symbol, partition, space) table, and `oracle-compare`
passes one memo to every alpha of its command; a call without a memo makes
its own, so a single call does what it always did.

Polar grid.  With e = (alpha + beta)/2 the inner product is a radial rule
for the weight x^e (1 - sum x)^a0 summed against the radial profile
g(rho) = q_theta^-n sum_theta psi(rho e^{i theta}) e^{-i (beta-alpha).theta},
the DFT coefficient of psi at the one frequency beta - alpha.  The rule
carries only the fractional parts of e and a0 (each 0 or 1/2; the ball's
lambda stays in it whole) and the integer remainder
x^floor(e) (1 - sum x)^floor(a0) joins the integrand.  The fractional parts
depend on beta - alpha alone, so one rule and one profile serve every alpha
of a table, whose shift is fixed, and no FFT over other frequencies is
needed.  A q_r-point Gauss-Jacobi axis integrates degree <= 2 q_r - 1
exactly; the remainder's degree is at most ceil(sum e) + floor(a0), which
is m on P^n and is reached at the even alpha of an even shift.  A grid too
coarse for that bound is refused with DomainError: the shared rule would
otherwise be silently inexact where a rule carrying the whole weight is not.

Theta grid.  q_theta (the CLI's grid) caps the theta grid; below the cap
the grid is measured, not assumed.  The profile is taken on the coprime
grids q and q + 1 for q = 4, 8, 16, ..., and the (q + 1) profile is kept
once the two agree to 1e-13 times max |psi| over the points evaluated.  A
frequency beta - alpha + v aliases onto beta - alpha on both grids only if
every entry of v is a multiple of q (q + 1), so agreement means that both
resolve the coefficient unless psi has a component that far out and none
nearer.  The pairs spend at most one q_theta^n grid of points; if none
agrees, the q_theta grid decides, so a table costs at most twice the full
grid.  samples_or_points stays the nominal q_r^n q_theta^n.  psi is
evaluated in chunks of at most _CHUNK_POINTS points.

Monte Carlo.  Both spaces draw from their own measures, through
mc_integrate, which hands over the points as their moduli R and angles
theta: the ball from its weight-lambda probability measure, P^n from the
weight-M one, with the importance weight w of weight m against M.  Every
alpha with the same measure, samples and seed reads the same draw (on the
ball, the whole table; on P^n, each M), so the memo takes it once and
evaluates psi w on it once, in chunks (bitwise: psi does not depend on the
batch, and w is elementwise).  psi is evaluated, phase and all, at every
drawn point, so the estimate still checks the evaluator's t^p.  The
estimator is in the factored form z^alpha conj(z^beta) =
R^(alpha+beta) e^{-i (beta-alpha).theta}: a draw holds R, theta, psi w and
per shift beta - alpha the product c = psi w e^{-i (beta-alpha).theta},
taken in real arithmetic from the cos and sin of one angle, (16 n + 32)
bytes a sample with one shift, so each alpha costs one real monomial
prod R_i^(alpha_i+beta_i) and one mean in one more real and complex array,
and its estimate is bitwise that of a separate call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .indexing import (
    DomainError,
    Partition,
    gammaln,
    monomial_norm_sq_ball,
    monomial_norm_sq_projective,
)
from .quadrature import mc_integrate, simplex_rule
from .symbols import SymbolSpec, evaluate_symbol_batch

DEFAULT_GRID = 64
DEFAULT_SAMPLES = 10**6
_CHUNK_POINTS = 2**18
_MC_CHUNK_POINTS = 2**14
_FIRST_THETA_GRID = 4
_AGREEMENT = 1e-13  # relative to max |psi| over the points evaluated


@dataclass(frozen=True)
class OracleResult:
    value: complex
    stderr: float  # 0 for the deterministic path
    method: str  # "polar-grid" | "monte-carlo"
    samples_or_points: int


def _theta_grid(n: int, q: int) -> np.ndarray:
    axes = [2 * np.pi * np.arange(q) / q] * n
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)  # (q^n, n)


def _projective_rho(X):
    return np.sqrt(X / (1.0 - X.sum(axis=-1, keepdims=True)))


def _dft_profile(psi, k, rho, diff, q):
    """q^-n sum_theta psi(rho e^{i theta}) e^{-i diff.theta} at every radial
    node rho on the q^n theta grid, and max |psi| over its points.

    psi is evaluated in chunks of at most _CHUNK_POINTS points."""
    n = rho.shape[1]
    thetas = _theta_grid(n, q)
    # conjugated monomial phases exp(-i (beta - alpha) . theta)
    phase = np.exp(-1j * thetas @ diff)
    rows = max(1, _CHUNK_POINTS // len(thetas))
    cols = min(len(thetas), _CHUNK_POINTS)
    profile = np.zeros(len(rho), dtype=complex)
    peak = 0.0
    for r0 in range(0, len(rho), rows):
        for t0 in range(0, len(thetas), cols):
            values = evaluate_symbol_batch(psi, rho[r0:r0 + rows, None, :],
                                           thetas[None, t0:t0 + cols, :], k)
            peak = max(peak, float(np.abs(values).max()))
            profile[r0:r0 + rows] += values @ phase[t0:t0 + cols]
    return profile / len(thetas), peak


def _radial_profile(psi, k, frac_e, a0_rule, diff, to_rho, q_r, q_theta):
    """The rule for x^frac_e (1 - sum x)^a0_rule and the radial profile of
    psi at frequency diff on its nodes, from the first pair of coprime theta
    grids (q, q + 1), q = 4, 8, 16, ..., that agree, else from the q_theta
    grid."""
    n = len(frac_e)
    X, W = simplex_rule(n, frac_e, a0_rule, q_r)
    rho = to_rho(X)
    diff = np.asarray(diff, dtype=float)
    # the pairs spend at most one q_theta grid (which also keeps q + 1
    # below the cap), so a table that never agrees costs at most twice the
    # q_theta grid alone
    spent, peak, q = 0, 0.0, _FIRST_THETA_GRID
    while spent + q**n + (q + 1)**n <= q_theta**n:
        coarse, peak_coarse = _dft_profile(psi, k, rho, diff, q)
        fine, peak_fine = _dft_profile(psi, k, rho, diff, q + 1)
        spent += q**n + (q + 1)**n
        peak = max(peak, peak_coarse, peak_fine)
        if np.max(np.abs(fine - coarse)) <= _AGREEMENT * peak:
            return X, W, fine
        q *= 2
    return X, W, _dft_profile(psi, k, rho, diff, q_theta)[0]


def _polar_inner(psi, k, alpha, beta, a0_rule, a0_int, to_rho, q_r, q_theta,
                 memo, logpref):
    """exp(logpref) times the polar-grid sum of psi z^alpha conj(z^beta)
    against the weight x^e (1 - sum x)^(a0_rule + a0_int),
    e = (alpha + beta)/2, with the radii rho = to_rho(x)."""
    n = len(alpha)
    if n > 2:
        raise DomainError("deterministic oracle supports n <= 2 only")
    e = [(a + b) / 2 for a, b in zip(alpha, beta)]
    e_int = [math.floor(x) for x in e]
    degree = math.ceil(sum(e)) + a0_int
    if degree > 2 * q_r - 1:
        raise DomainError(
            f"polar grid {q_r} is too coarse for a weight of degree {degree}: "
            f"its shared radial rule is exact to degree {2 * q_r - 1}; use "
            f"grid >= {degree // 2 + 1}")
    # beta - alpha fixes the fractional parts of e and a0 (the latter on
    # P^n; on the ball a0 is the table's lambda), so it keys rule and profile
    diff = tuple(b - a for a, b in zip(alpha, beta))
    key = ("polar", diff, q_r, q_theta)
    if key not in memo:
        frac_e = tuple(x - i for x, i in zip(e, e_int))
        memo[key] = _radial_profile(psi, k, frac_e, a0_rule, diff, to_rho,
                                    q_r, q_theta)
    X, W, profile = memo[key]
    W = W * np.prod(X ** np.asarray(e_int), axis=-1) \
        * (1.0 - X.sum(axis=-1)) ** a0_int
    value = complex(np.sum(W * profile))
    return OracleResult(complex(np.exp(logpref) * value), 0.0, "polar-grid",
                        len(W) * q_theta**n)


def _mc_draw(psi, k, domain, m, samples, seed):
    """One seeded draw from domain, in the factored form: the moduli R and
    angles theta of its points, each (samples, n), psi w at every point,
    and an empty map from shift to c.  w is the importance weight of the
    weight-m measure against the drawn weight M on P^n, taken from R, and 1
    on the ball.  psi w is filled _MC_CHUNK_POINTS points at a time."""
    kept = []
    if domain[0] == "nu_m":
        n, M = domain[1:]
        log_c = lambda x: gammaln(n + x + 1) - gammaln(x + 1)

    def psi_w_at(R, theta):
        psi_w = np.empty(len(R), dtype=complex)
        for lo in range(0, len(R), _MC_CHUNK_POINTS):
            s = slice(lo, lo + _MC_CHUNK_POINTS)
            psi_w[s] = evaluate_symbol_batch(psi, R[s], theta[s], k)
            if domain[0] == "nu_m":
                psi_w[s] *= np.exp(log_c(m) - log_c(M) + (M - m) * np.log1p(
                    np.sum(R[s] ** 2, axis=1)))
        kept.append((R, theta, psi_w))
        return psi_w

    # the one place that draws; its estimate of E[psi w] is not needed
    mc_integrate(psi_w_at, domain, samples, seed)
    return (*kept.pop(), {})


def _mc_shifted(psi_w, theta, diff):
    """c = psi w e^{-i diff.theta} at every point of the draw: the cos and
    sin of the one angle -diff.theta, summed in coordinate order, times
    psi w in real arithmetic."""
    if not any(diff):
        return psi_w
    angle = sum(-d * theta[:, j] for j, d in enumerate(diff) if d)
    cos, sin = np.cos(angle), np.sin(angle, out=angle)
    c = np.empty_like(psi_w)
    c.real = psi_w.real * cos - psi_w.imag * sin
    c.imag = psi_w.real * sin + psi_w.imag * cos
    return c


def _mc_inner(psi, k, alpha, beta, domain, m, samples, seed, memo):
    """Estimate of E[psi z^alpha conj(z^beta) w] on the seeded draw from
    domain (a measure of mc_integrate), with the importance weight w of the
    weight-m measure against the drawn weight M on P^n, and w = 1 on the
    ball.

    z^alpha conj(z^beta) = |z|^(alpha+beta) e^{-i (beta-alpha).theta}: the
    draw keeps c = psi w e^{-i (beta-alpha).theta} once per shift, and each
    alpha costs the real monomial prod R_i^(alpha_i+beta_i).  The memo keeps
    the latest draw only: a table meets its alpha grade by grade, so M
    changes monotonically and an earlier draw is not asked for again, and
    one draw of the default 10^6 samples already holds tens of MB.
    """
    key = (domain, m, samples, seed)
    if memo.get("monte-carlo", (None,))[0] != key:
        memo.pop("monte-carlo", None)  # free the earlier draw first
        memo["monte-carlo"] = (key, _mc_draw(psi, k, domain, m, samples,
                                             seed))
    R, theta, psi_w, shifts = memo["monte-carlo"][1]
    diff = tuple(b - a for a, b in zip(alpha, beta))
    if diff not in shifts:
        shifts[diff] = _mc_shifted(psi_w, theta, diff)
    mono = None
    for r, e in zip(R.T, (a + b for a, b in zip(alpha, beta))):
        if e:
            mono = r**e if mono is None else np.multiply(mono, r**e, out=mono)
    # mc_mean(c * mono), residual over c mono, |residual|^2 over mono
    c = shifts[diff]
    vals = c.copy() if mono is None else c * mono
    est = np.sum(vals) / samples
    vals -= est
    sq = np.abs(vals, out=mono)
    sq **= 2
    stderr = float(np.sqrt(np.sum(sq) / (samples - 1) / samples))
    return OracleResult(complex(est), stderr, "monte-carlo", samples)


def inner_product_projective(psi: SymbolSpec, alpha, beta, m: int, n: int,
                             k: Partition, method: str = "polar-grid",
                             q_r: int = DEFAULT_GRID,
                             q_theta: int = DEFAULT_GRID,
                             samples: int = DEFAULT_SAMPLES,
                             seed: int = 0,
                             memo: dict | None = None) -> OracleResult:
    """<psi z^alpha, z^beta> at weight m, by direct integration.

    memo shares the work across the alpha of one (psi, k, space) table."""
    alpha = tuple(int(x) for x in alpha)
    beta = tuple(int(x) for x in beta)
    if sum(alpha) > m or sum(beta) > m:
        raise DomainError("monomials outside the weight-m space")
    memo = {} if memo is None else memo
    if method == "polar-grid":
        a0 = m - (sum(alpha) + sum(beta)) / 2
        a0_int = math.floor(a0)
        return _polar_inner(psi, k, alpha, beta, a0 - a0_int, a0_int,
                            _projective_rho, q_r, q_theta, memo,
                            gammaln(n + m + 1) - gammaln(m + 1))
    if method != "monte-carlo":
        raise DomainError(f"unknown oracle method {method!r}")

    # Importance-sample from the heavier-tailed weight-M measure so the
    # estimator keeps finite variance: the integrand grows like |z|^D with
    # D = |alpha|+|beta|, and the second moment under weight M is finite
    # exactly when M <= 2m - D.
    D = sum(alpha) + sum(beta)
    M = m if D <= m else 2 * m - D
    return _mc_inner(psi, k, alpha, beta, ("nu_m", n, M), m, samples, seed,
                     memo)


def inner_product_ball(psi: SymbolSpec, alpha, beta, lam: float, n: int,
                       k: Partition, method: str = "polar-grid",
                       q_r: int = DEFAULT_GRID, q_theta: int = DEFAULT_GRID,
                       samples: int = DEFAULT_SAMPLES,
                       seed: int = 0,
                       memo: dict | None = None) -> OracleResult:
    """<psi z^alpha, z^beta> on the weight-lambda ball space.

    memo shares the work across the alpha of one table."""
    if lam <= -1:
        raise DomainError(f"need lambda > -1, got {lam}")
    alpha = tuple(int(x) for x in alpha)
    beta = tuple(int(x) for x in beta)
    memo = {} if memo is None else memo
    if method == "polar-grid":
        return _polar_inner(psi, k, alpha, beta, float(lam), 0, np.sqrt, q_r,
                            q_theta, memo,
                            gammaln(n + lam + 1) - gammaln(lam + 1))
    if method != "monte-carlo":
        raise DomainError(f"unknown oracle method {method!r}")
    return _mc_inner(psi, k, alpha, beta, ("ball", n, float(lam)), None,
                     samples, seed, memo)


def gamma_from_oracle(psi: SymbolSpec, alpha, p, m: int, n: int,
                      k: Partition, method: str = "polar-grid",
                      **kwargs) -> OracleResult:
    """gamma(alpha) = <psi z^alpha, z^(alpha+p)> / ||z^(alpha+p)||^2.

    kwargs (q_r, q_theta, samples, seed, memo) go to
    inner_product_projective; one memo serves the alpha of one table."""
    beta = tuple(a + q for a, q in zip(alpha, p))
    if any(b < 0 for b in beta):
        raise DomainError(f"shifted index {beta} has a negative entry")
    res = inner_product_projective(psi, alpha, beta, m, n, k, method, **kwargs)
    nsq = float(monomial_norm_sq_projective(beta, m))
    return OracleResult(res.value / nsq, res.stderr / nsq, res.method,
                        res.samples_or_points)


def gamma_from_oracle_ball(psi: SymbolSpec, alpha, p, lam: float, n: int,
                           k: Partition, method: str = "polar-grid",
                           **kwargs) -> OracleResult:
    """gamma(alpha) on the ball; kwargs as for inner_product_ball."""
    beta = tuple(a + q for a, q in zip(alpha, p))
    if any(b < 0 for b in beta):
        raise DomainError(f"shifted index {beta} has a negative entry")
    res = inner_product_ball(psi, alpha, beta, lam, n, k, method, **kwargs)
    nsq = monomial_norm_sq_ball(beta, lam, n)
    return OracleResult(res.value / nsq, res.stderr / nsq, res.method,
                        res.samples_or_points)
