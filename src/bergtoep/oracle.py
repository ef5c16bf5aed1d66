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

Monte Carlo.  On P^n every alpha with the same importance weight M, samples
and seed reads the same draw, so the memo takes it once (through
mc_integrate) and evaluates psi on it once; each alpha then costs its
monomial, and its estimate is bitwise that of a separate call.
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
from .quadrature import mc_integrate, mc_mean, simplex_rule
from .symbols import SymbolSpec, evaluate_symbol_batch

DEFAULT_GRID = 64
DEFAULT_SAMPLES = 10**6
_THETA_CHUNK = 256


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


def _radial_profile(psi, k, frac_e, a0_rule, diff, to_rho, q_r, q_theta):
    """The rule for x^frac_e (1 - sum x)^a0_rule and the radial profile of
    psi at frequency diff on its nodes."""
    n = len(frac_e)
    X, W = simplex_rule(n, frac_e, a0_rule, q_r)
    rho = to_rho(X)
    thetas = _theta_grid(n, q_theta)
    diff = np.asarray(diff, dtype=float)
    profile = np.zeros(len(W), dtype=complex)
    for start in range(0, thetas.shape[0], _THETA_CHUNK):
        th = thetas[start:start + _THETA_CHUNK]  # (T, n)
        Z = rho[:, None, :] * np.exp(1j * th)[None, :, :]  # (Nr, T, n)
        # conjugated monomial phases exp(-i (beta - alpha) . theta)
        profile += evaluate_symbol_batch(psi, Z, k) @ np.exp(-1j * th @ diff)
    return X, W, profile / q_theta**n


def _polar_inner(psi, k, alpha, beta, a0_rule, a0_int, to_rho, q_r, q_theta,
                 memo):
    """Polar-grid sum of psi z^alpha conj(z^beta) against the weight
    x^e (1 - sum x)^(a0_rule + a0_int), e = (alpha + beta)/2, with the radii
    rho = to_rho(x); returns (value, points)."""
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
    return complex(np.sum(W * profile)), len(W) * q_theta**n


def _nu_m_draw(psi, k, n, m, M, samples, seed, memo):
    """Points of the seeded weight-M draw, psi at them, and the importance
    weight of the weight-m measure against weight M.

    The memo keeps the latest draw only: a table meets its alpha grade by
    grade, so M changes monotonically and an earlier draw is not asked for
    again, and one draw of the default 10^6 samples already holds tens of MB.
    """
    key = (M, samples, seed)
    if memo.get("monte-carlo", (None,))[0] != key:
        memo.pop("monte-carlo", None)  # free the earlier draw first
        kept = []

        def psi_at(Z):
            kept.append((Z, evaluate_symbol_batch(psi, Z, k)))
            return kept[0][1]

        # mc_integrate is the one place that draws; its estimate of E[psi]
        # is not needed
        mc_integrate(psi_at, ("nu_m", n, M), samples, seed)
        Z, psi_z = kept[0]
        log_c = lambda w: gammaln(n + w + 1) - gammaln(w + 1)
        logw0 = log_c(m) - log_c(M)
        w = np.exp(logw0 + (M - m) * np.log1p(
            np.sum(np.abs(Z) ** 2, axis=-1)))
        memo["monte-carlo"] = (key, (Z, psi_z, w))
    return memo["monte-carlo"][1]


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
        value, npoints = _polar_inner(psi, k, alpha, beta, a0 - a0_int,
                                      a0_int, _projective_rho, q_r, q_theta,
                                      memo)
        logpref = gammaln(n + m + 1) - gammaln(m + 1)
        return OracleResult(complex(np.exp(logpref) * value), 0.0,
                            "polar-grid", npoints)
    if method != "monte-carlo":
        raise DomainError(f"unknown oracle method {method!r}")

    # Importance-sample from the heavier-tailed weight-M measure so the
    # estimator keeps finite variance: the integrand grows like |z|^D with
    # D = |alpha|+|beta|, and the second moment under weight M is finite
    # exactly when M <= 2m - D.
    D = sum(alpha) + sum(beta)
    M = m if D <= m else 2 * m - D
    Z, psi_z, w = _nu_m_draw(psi, k, n, m, M, samples, seed, memo)
    mono = np.prod(Z ** np.asarray(alpha), axis=-1)
    mono = mono * np.prod(np.conj(Z) ** np.asarray(beta), axis=-1)
    est, stderr = mc_mean(psi_z * mono * w)
    return OracleResult(complex(est), stderr, "monte-carlo", samples)


def inner_product_ball(psi: SymbolSpec, alpha, beta, lam: float, n: int,
                       k: Partition, method: str = "polar-grid",
                       q_r: int = DEFAULT_GRID, q_theta: int = DEFAULT_GRID,
                       samples: int = DEFAULT_SAMPLES,
                       seed: int = 0,
                       memo: dict | None = None) -> OracleResult:
    """<psi z^alpha, z^beta> on the weight-lambda ball space.

    memo shares the polar work across the alpha of one table."""
    if lam <= -1:
        raise DomainError(f"need lambda > -1, got {lam}")
    alpha = tuple(int(x) for x in alpha)
    beta = tuple(int(x) for x in beta)
    if method == "polar-grid":
        value, npoints = _polar_inner(psi, k, alpha, beta, float(lam), 0,
                                      np.sqrt, q_r, q_theta,
                                      {} if memo is None else memo)
        logpref = gammaln(n + lam + 1) - gammaln(lam + 1)
        return OracleResult(complex(np.exp(logpref) * value), 0.0,
                            "polar-grid", npoints)
    if method != "monte-carlo":
        raise DomainError(f"unknown oracle method {method!r}")

    c_norm = float(np.exp(gammaln(n + lam + 1) - gammaln(lam + 1))) / np.pi**n

    def f(Z):
        inside = np.sum(np.abs(Z) ** 2, axis=-1) < 1.0
        weight = np.where(inside, (1.0 - np.sum(np.abs(Z) ** 2, axis=-1))
                          ** lam, 0.0)
        mono = np.prod(Z ** np.asarray(alpha), axis=-1)
        mono = mono * np.prod(np.conj(Z) ** np.asarray(beta), axis=-1)
        return evaluate_symbol_batch(psi, Z, k) * mono * weight * c_norm

    est, stderr = mc_integrate(f, ("polydisk", n), samples, seed)
    return OracleResult(complex(est), stderr, "monte-carlo", samples)


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
