"""Deterministic quadrature kernels and a seeded Monte Carlo fallback.

Two deterministic kernels cover every coefficient integral in the package:
an integral over the standard simplex with monomial weights (possibly
half-integer exponents), and a rational-weight integral over the positive
orthant which is mapped onto the simplex by r = u/(1-sum u).  The simplex
rule is a tensor Gauss-Jacobi rule under the Duffy (collapsed-cube) map;
the monomial weights are absorbed into the Jacobi weights so endpoint
algebraic behavior costs no accuracy.

Each one-dimensional Gauss-Jacobi rule is built by the Golub-Welsch method
in NumPy: the nodes are the eigenvalues of the symmetric tridiagonal Jacobi
matrix, and the weights are the Christoffel numbers 1/sum_k p_k(x)^2 of the
orthonormal recurrence, scaled to the exact mass B(a+1, b+1).  Christoffel
numbers keep tiny endpoint weights to relative accuracy, where squared
eigenvector components would not.  A mass below the normal double range
raises DomainError instead of returning a rule without accurate digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .indexing import DomainError, gammaln

DEFAULT_ORDER = 40
MAX_TENSOR_DIM = 8


@dataclass(frozen=True)
class QuadratureSpec:
    method: str = "gauss-jacobi-tensor"  # or "monte-carlo"
    order: int = DEFAULT_ORDER  # points per axis (gauss) or samples (mc)
    seed: int = 0

    def __post_init__(self):
        if self.method not in ("gauss-jacobi-tensor", "monte-carlo"):
            raise DomainError(f"unknown quadrature method {self.method!r}")
        if self.order < 1:
            raise DomainError("order must be >= 1")


def _golub_welsch(a: float, b: float, q: int):
    """Gauss nodes on [-1, 1] for the weight (1-x)^b (1+x)^a, with weights
    normalised to sum to one."""
    # recurrence of the orthonormal Jacobi polynomials: diagonal and
    # off-diagonal of the symmetric tridiagonal Jacobi matrix
    s = a + b
    k = np.arange(1.0, q)
    t = 2 * k + s
    diag = np.empty(q)
    diag[0] = (a - b) / (s + 2)
    diag[1:] = (a * a - b * b) / (t * (t + 2))
    off = 2 / t * np.sqrt((k + a) * (k + b) / (t + 1))
    off[1:] *= np.sqrt(k[1:] * (k[1:] + s) / (t[1:] - 1))
    J = np.diag(diag)
    J[range(q - 1), range(1, q)] = off
    x = np.linalg.eigvalsh(J, UPLO="U")
    # Christoffel numbers 1/sum_k p_k(x)^2, evaluated at all nodes at once
    P = np.empty((q, q))
    P[0] = 1.0
    tmp = np.empty(q)
    diag, off = diag.tolist(), off.tolist()
    for j in range(q - 1):
        row = P[j + 1]
        np.subtract(x, diag[j], out=row)
        row *= P[j]
        if j:
            row -= np.multiply(P[j - 1], off[j - 1], out=tmp)
        row /= off[j]
    w = 1.0 / np.einsum("ij,ij->j", P, P)
    return x, w / np.sum(w)


@lru_cache(maxsize=4096)
def jacobi_rule_01(a: float, b: float, q: int):
    """Nodes/weights for int_0^1 u^a (1-u)^b f(u) du."""
    if a <= -1 or b <= -1:
        raise DomainError(f"Jacobi exponents must exceed -1, got ({a}, {b})")
    # the mass B(a+1, b+1); below the normal range the weights would lose
    # their relative accuracy without a warning.  Single zero weights
    # (underflow at the endpoints) are legitimate.
    mu0 = math.exp(gammaln(a + 1) + gammaln(b + 1) - gammaln(a + b + 2))
    if mu0 >= np.finfo(float).tiny:
        x, w = _golub_welsch(a, b, q)
        w = w * mu0
        if np.all(np.isfinite(w)):
            return 0.5 * (x + 1.0), w
    raise DomainError(
        f"Jacobi rule for exponents ({a}, {b}) is not representable in "
        "double precision")


def simplex_rule(d: int, a: tuple, a0: float, q: int):
    """Tensor rule for int_{Delta_d} f(x) prod x_l^{a_l} (1-sum x)^{a0} dx.

    Returns (nodes, weights): nodes of shape (q^d, d), the monomial weight
    already folded into weights.
    """
    if len(a) != d:
        raise DomainError(f"got {len(a)} exponents for dimension {d}")
    if d == 0:
        return np.zeros((1, 0)), np.ones(1)
    if d > MAX_TENSOR_DIM:
        raise DomainError(
            f"tensor rule unsupported for dimension {d} > {MAX_TENSOR_DIM}; use Monte Carlo"
        )
    # Duffy map x_i = u_i * prod_{j<i}(1 - u_j), built on broadcast 1-D axes
    # rather than on full meshgrid copies
    X = np.empty((q,) * d + (d,))
    W = rem = 1.0
    for i in range(d):
        bi = a0 + (d - 1 - i) + sum(a[i + 1:])
        u, w = jacobi_rule_01(float(a[i]), float(bi), q)
        axis = (1,) * i + (q,) + (1,) * (d - 1 - i)
        u, w = u.reshape(axis), w.reshape(axis)
        X[..., i] = u * rem
        rem = rem * (1.0 - u)
        W = W * w
    return X.reshape(-1, d), W.reshape(-1)


def dirichlet_closed_form(a, a0: float) -> float:
    """prod Gamma(a_l+1) * Gamma(a0+1) / Gamma(d+1+sum a+a0)."""
    a = tuple(float(x) for x in a)
    logv = sum(gammaln(x + 1) for x in a) + gammaln(a0 + 1)
    logv -= gammaln(len(a) + 1 + sum(a) + a0)
    return float(np.exp(logv))


def simplex_integrate(f, d: int, a, a0: float, spec: QuadratureSpec) -> float:
    """int_{Delta_d} f(x) prod x_l^{a_l} (1-sum x)^{a0} dx.

    f is a vectorized evaluator taking an (N, d) array and returning (N,);
    pass None for f == 1.  Exponents may be half-integers but must exceed -1.
    """
    a = tuple(float(x) for x in a)
    if any(x <= -1 for x in a) or a0 <= -1:
        raise DomainError(f"exponents must exceed -1, got a={a}, a0={a0}")
    if spec.method == "monte-carlo":
        est, _ = mc_integrate(
            lambda X: (np.ones(X.shape[0]) if f is None else f(X))
            * np.prod(X ** np.asarray(a), axis=-1)
            * (1.0 - X.sum(axis=-1)) ** a0,
            ("simplex", d), spec.order, spec.seed)
        return float(np.real(est))
    X, W = simplex_rule(d, a, float(a0), spec.order)
    vals = np.ones(X.shape[0]) if f is None else np.asarray(f(X))
    return float(np.sum(W * vals))


def radial_integrate_projective(g, ell: int, e, N: float,
                                spec: QuadratureSpec) -> float:
    """int_{R_+^ell} g(sqrt(r)) prod r_j^{e_j} (1+sum r)^{-N} dr.

    g takes the componentwise square roots of r (the block radii).  The
    unbounded domain is mapped to the simplex by r = u/(1-sum u).
    """
    e = tuple(float(x) for x in e)
    if any(x <= -1 for x in e):
        raise DomainError(f"exponents must exceed -1, got {e}")
    a0 = N - ell - 1 - sum(e)
    if a0 <= -1:
        raise DomainError(
            f"integrability violated: need N > ell + sum(e), got N={N}, e={e}"
        )

    if g is None:
        f = None
    else:
        def f(U):
            rem = 1.0 - U.sum(axis=-1, keepdims=True)
            return g(np.sqrt(U / rem))

    return simplex_integrate(f, ell, e, a0, spec)


def _dirichlet(rng, alphas, size):
    return rng.dirichlet(alphas, size=size)


def mc_integrate(f, domain, N: int, seed: int):
    """Unbiased Monte Carlo estimate with sample standard error.

    domain is one of
      ("simplex", d)          -- int_{Delta_d} f(x) dx
      ("dirichlet", factors)  -- int over a product of simplices of
                                 f(u_0, u_1, ...) prod_i x^a_i (1-sum x)^a0_i
                                 for factors [(a_i, a0_i), ...]; u_i is
                                 drawn from Dirichlet(a_i+1, a0_i+1) and
                                 holds all d_i+1 coordinates
      ("orthant", ell, Npow)  -- int_{R_+^ell} f(r) (1+sum r)^{-Npow} dr
      ("polydisk", n)         -- int over the unit polydisk of f(z) dV
      ("nu_m", n, m)          -- E[f(z)] under the weight-m probability
                                 measure on C^n (Dirichlet moduli with
                                 independent uniform phases)
    Deterministic for a fixed seed.  Returns (estimate, stderr).
    """
    if N < 100:
        raise DomainError("need at least 100 samples")
    rng = np.random.default_rng(seed)
    kind = domain[0]
    if kind == "simplex":
        d = domain[1]
        u = _dirichlet(rng, np.ones(d + 1), N)[:, :d]
        vals = np.asarray(f(u)) * dirichlet_closed_form((0.0,) * d, 0.0)
    elif kind == "dirichlet":
        factors = domain[1]
        draws = [_dirichlet(rng, np.append(np.asarray(a, dtype=float), a0)
                            + 1.0, N) for a, a0 in factors]
        scale = np.prod([dirichlet_closed_form(a, a0) for a, a0 in factors])
        vals = np.asarray(f(*draws)) * scale
    elif kind == "orthant":
        ell, Npow = domain[1], float(domain[2])
        if Npow <= ell:
            raise DomainError("need Npow > ell for integrability")
        u = _dirichlet(rng, np.concatenate([np.ones(ell), [Npow - ell]]), N)
        rem = u[:, -1:]
        r = u[:, :ell] / rem
        scale = float(np.exp(gammaln(Npow - ell) - gammaln(Npow)))
        vals = np.asarray(f(r)) * scale
    elif kind == "polydisk":
        n = domain[1]
        rho = np.sqrt(rng.random((N, n)))
        theta = rng.random((N, n)) * 2 * np.pi
        z = rho * np.exp(1j * theta)
        vals = np.asarray(f(z)) * np.pi**n
    elif kind == "nu_m":
        n, m = domain[1], domain[2]
        y = _dirichlet(rng, np.concatenate([np.ones(n), [m + 1.0]]), N)
        rho = np.sqrt(y[:, :n] / y[:, n:])
        theta = rng.random((N, n)) * 2 * np.pi
        z = rho * np.exp(1j * theta)
        vals = np.asarray(f(z))
    else:
        raise DomainError(f"unknown MC domain {kind!r}")
    return mc_mean(vals)


def mc_mean(vals):
    """Sample mean of vals and its standard error: (estimate, stderr)."""
    N = len(vals)
    est = np.sum(vals) / N
    resid = vals - est
    stderr = float(np.sqrt(np.sum(np.abs(resid) ** 2) / (N - 1) / N))
    if np.iscomplexobj(vals):
        return complex(est), stderr
    return float(np.real(est)), stderr
