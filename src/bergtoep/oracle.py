"""Ground-truth inner products by direct integration.

The oracle never looks at the gamma formulas: it integrates the symbol
pointwise against monomials, either on a deterministic polar tensor grid
(n <= 2) or by seeded Monte Carlo under the exact probability measure of
the space.  Formula values are tested against these numbers.

Every function takes one pair of indices, or a table's stacks of them in
one call, which shares the work across the rows; a one-pair call is a
one-row table.

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

Monte Carlo.  A table takes one draw through mc_integrate, which hands
over the points as their moduli R and angles theta, and whose f yields
every row's integrand chunk by chunk.  The ball draws from its
weight-lambda probability measure, P^n from its weight-0 one whatever m:
under the moment map x_i = R_i^2 x_0, x_0 = 1/(1 + |R|^2), that is the
uniform measure on the simplex, and the weight-m measure is it times the
density w = C(n+m, n) x_0^m.  As |alpha|, |beta| <= m,
|z^alpha conj(z^beta)| w = w prod_i (x_i/x_0)^((alpha_i+beta_i)/2) is at
most C(n+m, n), the dimension, so every row's integrand is bounded by
dim max |psi| at every degree and every m.  psi is evaluated, phase and
all, at every drawn point, so the estimate still checks the evaluator's
t^p.  The estimator is in the factored form z^alpha conj(z^beta) =
R^(alpha+beta) e^{-i (beta-alpha).theta}: a chunk takes psi once, per
shift beta - alpha the product c = psi e^{-i (beta-alpha).theta}, in real
arithmetic from the cos and sin of one angle, and per row one exp of
log w + sum_i (alpha_i+beta_i) log R_i, which cannot overflow where
R^(alpha+beta) alone would.  The draw holds R for the whole sample, 8n
bytes a sample, and one chunk; a row's estimate is bitwise that of a
one-pair call.
"""

from __future__ import annotations

import math

import numpy as np

from .indexing import (
    DomainError,
    Partition,
    Record,
    gammaln,
    monomial_norm_sq_ball,
    monomial_norm_sq_projective,
)
from .quadrature import mc_integrate, simplex_rule
from .symbols import SymbolSpec, evaluate_symbol_batch, row_sum

DEFAULT_GRID = 64
DEFAULT_SAMPLES = 10**6
_CHUNK_POINTS = 2**18
_FIRST_THETA_GRID = 4
_AGREEMENT = 1e-13  # relative to max |psi| over the points evaluated


class OracleResult(Record):
    value: complex  # value and stderr are arrays for a table's stack
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


def _polar_rows(psi, k, pairs, measure, q_r, q_theta):
    """(value, 0) of the polar-grid sum of psi z^alpha conj(z^beta) for
    every pair, against the weight x^e (1 - sum x)^a0, e = (alpha + beta)/2,
    one rule and profile per shift beta - alpha."""
    kind, n, weight = measure
    if n > 2:
        raise DomainError("deterministic oracle supports n <= 2 only")
    to_rho = np.sqrt if kind == "ball" else _projective_rho
    logpref = gammaln(n + weight + 1) - gammaln(weight + 1)
    rows, profiles = [], {}
    for alpha, beta in pairs:
        e = [(a + b) / 2 for a, b in zip(alpha, beta)]
        e_int = [math.floor(x) for x in e]
        a0_rule, a0_int = weight, 0  # the ball's lambda stays in the rule
        if kind == "nu_m":
            a0 = weight - (sum(alpha) + sum(beta)) / 2
            a0_int = math.floor(a0)
            a0_rule = a0 - a0_int
        degree = math.ceil(sum(e)) + a0_int
        if degree > 2 * q_r - 1:
            raise DomainError(
                f"polar grid {q_r} is too coarse for a weight of degree "
                f"{degree}: its shared radial rule is exact to degree "
                f"{2 * q_r - 1}; use grid >= {degree // 2 + 1}")
        # beta - alpha fixes the fractional parts of e and a0 (the latter on
        # P^n), so it keys rule and profile
        diff = tuple(b - a for a, b in zip(alpha, beta))
        if diff not in profiles:
            frac_e = tuple(x - i for x, i in zip(e, e_int))
            profiles[diff] = _radial_profile(psi, k, frac_e, a0_rule, diff,
                                             to_rho, q_r, q_theta)
        X, W, profile = profiles[diff]
        W = W * np.prod(X ** np.asarray(e_int), axis=-1) \
            * (1.0 - X.sum(axis=-1)) ** a0_int
        value = complex(np.sum(W * profile))
        rows.append((complex(np.exp(logpref) * value), 0.0))
    return rows, (q_r * q_theta)**n


def _mc_shifted(values, theta, diff):
    """c = values e^{-i diff.theta} at every point of a chunk: the cos and
    sin of the one angle -diff.theta, summed in coordinate order, times
    values in real arithmetic."""
    if not any(diff):
        return values
    angle = sum(-d * theta[:, j] for j, d in enumerate(diff) if d)
    cos, sin = np.cos(angle), np.sin(angle, out=angle)
    c = np.empty_like(values)
    c.real = values.real * cos - values.imag * sin
    c.imag = values.real * sin + values.imag * cos
    return c


def _mc_integrands(psi, k, pairs, measure):
    """The f of mc_integrate for the pairs: on a chunk of points
    (R, theta), psi z^alpha conj(z^beta) w of each pair in turn, with w the
    density C(n+m, n) (1 + |R|^2)^-m of P^n's weight-m measure against the
    drawn weight-0 one, and w = 1 on the ball.  psi is evaluated once a
    chunk, c = psi e^{-i (beta-alpha).theta} once a shift, and each pair
    costs one exp of log w + sum_i (alpha_i+beta_i) log R_i."""
    kind, n, m = measure
    diffs = [tuple(b - a for a, b in zip(*pair)) for pair in pairs]

    def f(R, theta):
        values = evaluate_symbol_batch(psi, R, theta, k)
        # every shift's c at once, so that psi's values are freed
        shifts = {d: _mc_shifted(values, theta, d)
                  for d in dict.fromkeys(diffs)}
        del values
        log_w = np.zeros(len(R)) if kind == "ball" else (
            math.log(math.comb(n + m, n)) - m * np.log1p(row_sum(R**2)))
        log_R = np.log(R)
        for (alpha, beta), diff in zip(pairs, diffs):
            log_f = log_w.copy()
            for j, e in enumerate(a + b for a, b in zip(alpha, beta)):
                if e:
                    log_f += e * log_R[:, j]
            yield shifts[diff] * np.exp(log_f, out=log_f)

    return f


def _mc_rows(psi, k, pairs, measure, samples, seed):
    """(estimate, stderr) of E[psi z^alpha conj(z^beta) w] for every pair,
    from one mc_integrate draw: the ball's own measure, or the weight-0
    measure of P^n whatever the weight m."""
    if not pairs:
        return [], samples
    kind, n, _ = measure
    domain = measure if kind == "ball" else ("nu_m", n, 0)
    return mc_integrate(_mc_integrands(psi, k, pairs, measure), domain,
                        samples, seed), samples


def _oracle(psi, k, alpha, beta, measure, method, norm_sq=None,
            q_r=DEFAULT_GRID, q_theta=DEFAULT_GRID, samples=DEFAULT_SAMPLES,
            seed=0):
    """The OracleResult of the pair (alpha, beta), or of each pair of
    equal-length stacks of them, under measure: ("nu_m", n, m) for P^n at
    weight m, or ("ball", n, lambda).  With norm_sq, beta is the shift p,
    each pair is (alpha, alpha + p), and its value and stderr are divided
    by norm_sq(alpha + p)."""
    one = np.ndim(alpha) == 1
    alphas = [tuple(int(x) for x in a) for a in ([alpha] if one else alpha)]
    if norm_sq is None:
        betas = [tuple(int(x) for x in b) for b in ([beta] if one else beta)]
    else:
        betas = [tuple(a + q for a, q in zip(x, beta)) for x in alphas]
        for b in betas:
            if any(x < 0 for x in b):
                raise DomainError(f"shifted index {b} has a negative entry")
    kind, n, weight = measure
    pairs = list(zip(alphas, betas))
    if kind == "ball" and weight <= -1:
        raise DomainError(f"need lambda > -1, got {weight}")
    if kind == "nu_m" and any(max(sum(a), sum(b)) > weight for a, b in pairs):
        raise DomainError("monomials outside the weight-m space")
    if method == "polar-grid":
        rows, points = _polar_rows(psi, k, pairs, measure, q_r, q_theta)
    elif method == "monte-carlo":
        rows, points = _mc_rows(psi, k, pairs, measure, samples, seed)
    else:
        raise DomainError(f"unknown oracle method {method!r}")
    if norm_sq is not None:
        rows = [(v / s, e / s) for (v, e), s in zip(rows, map(norm_sq, betas))]
    if one:
        return OracleResult(*rows[0], method, points)
    return OracleResult(np.array([v for v, _ in rows], dtype=complex),
                        np.array([e for _, e in rows]), method, points)


def inner_product_projective(psi: SymbolSpec, alpha, beta, m: int, n: int,
                             k: Partition, method: str = "polar-grid",
                             **kwargs) -> OracleResult:
    """<psi z^alpha, z^beta> at weight m, by direct integration.

    alpha and beta are one pair of indices, or equal-length stacks of them,
    a table's pairs, taken in one call: then value and stderr are arrays,
    row for row the values of one-pair calls.  kwargs are q_r and q_theta
    (the polar grid, default DEFAULT_GRID) or samples (DEFAULT_SAMPLES) and
    seed (0) for Monte Carlo."""
    return _oracle(psi, k, alpha, beta, ("nu_m", n, m), method, **kwargs)


def inner_product_ball(psi: SymbolSpec, alpha, beta, lam: float, n: int,
                       k: Partition, method: str = "polar-grid",
                       **kwargs) -> OracleResult:
    """<psi z^alpha, z^beta> on the weight-lambda ball space; alpha, beta
    and kwargs as for inner_product_projective."""
    return _oracle(psi, k, alpha, beta, ("ball", n, float(lam)), method,
                   **kwargs)


def gamma_from_oracle(psi: SymbolSpec, alpha, p, m: int, n: int,
                      k: Partition, method: str = "polar-grid",
                      **kwargs) -> OracleResult:
    """gamma(alpha) = <psi z^alpha, z^(alpha+p)> / ||z^(alpha+p)||^2, for
    one alpha or a table's stack of them; kwargs as for
    inner_product_projective."""
    return _oracle(psi, k, alpha, p, ("nu_m", n, m), method,
                   lambda beta: float(monomial_norm_sq_projective(beta, m)),
                   **kwargs)


def gamma_from_oracle_ball(psi: SymbolSpec, alpha, p, lam: float, n: int,
                           k: Partition, method: str = "polar-grid",
                           **kwargs) -> OracleResult:
    """gamma(alpha) on the ball, as gamma_from_oracle does on P^n."""
    return _oracle(psi, k, alpha, p, ("ball", n, float(lam)), method,
                   lambda beta: monomial_norm_sq_ball(beta, lam, n), **kwargs)
