"""Deterministic quadrature kernels and a seeded Monte Carlo fallback.

Two deterministic kernels cover every coefficient integral in the package:
an integral over the standard simplex with monomial weights (possibly
half-integer exponents), and a rational-weight integral over the positive
orthant which is mapped onto the simplex by r = u/(1-sum u).  The simplex
rule is a tensor Gauss-Jacobi rule under the Duffy (collapsed-cube) map;
the monomial weights are absorbed into the Jacobi weights so endpoint
algebraic behavior costs no accuracy.

The kernels keep a tensor rule as its per-axis factors: the cube
coordinates u_i lie on broadcast 1-D axes, the integrand's variables are
derived on those axes (x_i = u_i prod_{j<i}(1-u_j), 1 - sum x =
prod_j (1-u_j), and on the orthant r_i^2 = u_i / prod_{j>=i}(1-u_j)), the
integrand is evaluated by broadcasting, and `contract` sums it against the
1-D weights one axis at a time.  No node or weight array of the full grid
is built; only `simplex_rule` materializes one, from the same axes.

Each one-dimensional Gauss-Jacobi rule is built by the Golub-Welsch method
in NumPy: the nodes are the eigenvalues of the symmetric tridiagonal Jacobi
matrix, and the weights are the Christoffel numbers 1/sum_k p_k(x)^2 of the
orthonormal recurrence, scaled to the exact mass B(a+1, b+1).  Christoffel
numbers keep tiny endpoint weights to relative accuracy, where squared
eigenvector components would not.  A mass below the normal double range
raises DomainError instead of returning a rule without accurate digits,
and so does a rule over the node budget, before anything is allocated.
Rules live in a bounded cache; `build_jacobi_rules` fills it with many
rules of one order in a single vectorized build, bitwise equal to building
each alone.

The Monte Carlo estimator draws every point from the Dirichlet weight it
integrates; the deterministic kernels refuse a Monte Carlo spec, whose
order counts samples rather than Gauss points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .indexing import DomainError, gammaln

DEFAULT_ORDER = 40
MAX_TENSOR_DIM = 8
# largest q^d of a tensor rule, and q^2 of each axis's Jacobi matrix
MAX_NODES = 2**22
# largest Monte Carlo draw, in points: a point costs several (d+1)- or
# n-vectors where a rule node costs one, so the budget is a quarter of
# MAX_NODES; it admits the oracle's default 10^6 samples
MAX_SAMPLES = 2**20
# the most Jacobi rules kept at once, least recently used dropped first
RULE_CACHE_SIZE = 4096
# doubles per array of one vectorized Golub-Welsch build (2 MB)
_BATCH_DOUBLES = 2**18

_rules: dict = {}  # (a, b, q) -> (nodes, weights), in order of last use


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


def _golub_welsch(a, b, q: int):
    """Gauss nodes on [-1, 1] for the weight (1-x)^b (1+x)^a, with weights
    normalised to sum to one; a and b may be equal-shaped arrays, and every
    rule of the stack comes out bitwise as it would alone."""
    a = np.asarray(a, dtype=float)[..., None]
    b = np.asarray(b, dtype=float)[..., None]
    # recurrence of the orthonormal Jacobi polynomials: diagonal and
    # off-diagonal of the symmetric tridiagonal Jacobi matrix
    s = a + b
    k = np.arange(1.0, q)
    t = 2 * k + s
    diag = np.empty(s.shape[:-1] + (q,))
    diag[..., :1] = (a - b) / (s + 2)
    diag[..., 1:] = (a * a - b * b) / (t * (t + 2))
    off = 2 / t * np.sqrt((k + a) * (k + b) / (t + 1))
    off[..., 1:] *= np.sqrt(k[1:] * (k[1:] + s) / (t[..., 1:] - 1))
    J = np.zeros(diag.shape + (q,))
    i = np.arange(q)
    J[..., i, i] = diag
    J[..., i[:-1], i[1:]] = off
    x = np.linalg.eigvalsh(J, UPLO="U")
    # Christoffel numbers 1/sum_k p_k(x)^2, evaluated at all nodes at once
    P = np.empty(J.shape)
    P[..., 0, :] = 1.0
    tmp = np.empty(x.shape)
    for j in range(q - 1):
        row = P[..., j + 1, :]
        np.subtract(x, diag[..., j:j + 1], out=row)
        row *= P[..., j, :]
        if j:
            row -= np.multiply(P[..., j - 1, :], off[..., j - 1:j], out=tmp)
        row /= off[..., j:j + 1]
    w = 1.0 / np.einsum("...ij,...ij->...j", P, P)
    return x, w / np.sum(w, axis=-1, keepdims=True)


def _mass(a: float, b: float) -> float:
    """B(a+1, b+1), the mass of the weight u^a (1-u)^b on [0, 1]."""
    return math.exp(gammaln(a + 1) + gammaln(b + 1) - gammaln(a + b + 2))


def build_jacobi_rules(pairs, q: int) -> None:
    """Build jacobi_rule_01(a, b, q) for every (a, b) in pairs that the
    cache lacks, in one Golub-Welsch build vectorized over the stack (in
    chunks of a few MB), and keep them in the cache.  A pair jacobi_rule_01
    would refuse is left out, so that it still raises there; at most
    RULE_CACHE_SIZE rules are built."""
    keys, masses = [], []
    for a, b in dict.fromkeys((float(a), float(b)) for a, b in pairs):
        if (a, b, q) in _rules or a <= -1 or b <= -1:
            continue
        # below the normal range the weights would lose their relative
        # accuracy without a warning
        mu0 = _mass(a, b)
        if mu0 >= np.finfo(float).tiny:
            keys.append((a, b, q))
            masses.append(mu0)
    keys, masses = keys[:RULE_CACHE_SIZE], masses[:RULE_CACHE_SIZE]
    chunk = max(1, _BATCH_DOUBLES // (q * q))
    for lo in range(0, len(keys), chunk):
        batch = keys[lo:lo + chunk]
        x, w = _golub_welsch([key[0] for key in batch],
                             [key[1] for key in batch], q)
        u, w = 0.5 * (x + 1.0), w * np.array(masses[lo:lo + chunk])[:, None]
        u.flags.writeable = w.flags.writeable = False
        for key, u_i, w_i in zip(batch, u, w):
            # single zero weights (underflow at the endpoints) are
            # legitimate
            if np.all(np.isfinite(w_i)):
                _rules[key] = u_i, w_i
    while len(_rules) > RULE_CACHE_SIZE:
        del _rules[next(iter(_rules))]


def jacobi_rule_01(a: float, b: float, q: int):
    """Nodes/weights for int_0^1 u^a (1-u)^b f(u) du, from the cache."""
    if a <= -1 or b <= -1:
        raise DomainError(f"Jacobi exponents must exceed -1, got ({a}, {b})")
    key = (float(a), float(b), q)
    if key not in _rules:
        build_jacobi_rules([key[:2]], q)
        if key not in _rules:
            raise DomainError(
                f"Jacobi rule for exponents ({a}, {b}) is not representable "
                "in double precision")
    _rules[key] = rule = _rules.pop(key)  # now the most recently used
    return rule


def check_tensor_size(d: int, q: int, copies: int = 1) -> None:
    """Refuse a d-dimensional order-q tensor rule before anything is
    allocated: it holds q^d nodes, an integrand on it copies times that
    many values, and each axis a q x q Jacobi matrix."""
    if d > MAX_TENSOR_DIM:
        raise DomainError(
            f"tensor rule unsupported for dimension {d} > {MAX_TENSOR_DIM}; use Monte Carlo"
        )
    if copies * q ** d > MAX_NODES or q ** 2 > MAX_NODES:
        times = f" times {copies} integrands" if copies > 1 else ""
        raise DomainError(
            f"a {d}-dimensional rule of order {q}{times} exceeds the budget "
            f"of {MAX_NODES} nodes; lower the order or use Monte Carlo")


def simplex_pairs(a, a0: float, q: int) -> list[tuple[float, float]]:
    """The Jacobi exponents (a_i, b_i) of the Duffy axes of the order-q
    rule for the weight prod x_l^{a_l} (1-sum x)^{a0}, after the budget
    check: axis i carries u^{a_i} (1-u)^{b_i}."""
    d = len(a)
    if d == 0:
        return []
    check_tensor_size(d, q)
    return [(float(a[i]), float(a0 + (d - 1 - i) + sum(a[i + 1:])))
            for i in range(d)]


def simplex_axes(d: int, a: tuple, a0: float, q: int):
    """The tensor rule of `simplex_rule` kept as per-axis factors: the cube
    coordinates u_i, each broadcast along axis i of d, and the 1-D
    weights w_i, the monomial weight folded in."""
    if len(a) != d:
        raise DomainError(f"got {len(a)} exponents for dimension {d}")
    us, ws = [], []
    for i, (ai, bi) in enumerate(simplex_pairs(a, a0, q)):
        u, w = jacobi_rule_01(ai, bi, q)
        us.append(u.reshape((1,) * i + (q,) + (1,) * (d - 1 - i)))
        ws.append(w)
    return us, ws


def barycentric(us) -> list:
    """The d+1 coordinates of the Duffy map on the broadcast axes us:
    x_i = u_i prod_{j<i}(1-u_j), and last 1 - sum x = prod_j (1-u_j)."""
    x, rem = [], 1.0
    for u in us:
        x.append(u * rem)
        rem = rem * (1.0 - u)
    return x + [rem]


def projective_radii(us) -> list:
    """The orthant point r = x/(1-sum x) of the Duffy map, as its square
    roots: sqrt(r_i) = sqrt(u_i / prod_{j>=i}(1-u_j)), on the axes us."""
    radii, tail = [], 1.0
    for u in reversed(us):
        tail = tail * (1.0 - u)
        radii.append(np.sqrt(u / tail))
    return radii[::-1]


def contract(F, ws):
    """Sum of F times prod_i w_i over the last len(ws) axes of F, one axis
    at a time; an axis along which F is constant (length 1, or absent)
    takes the sum of its weights."""
    F = np.asarray(F)
    for w in reversed(ws):
        if F.ndim and F.shape[-1] > 1:
            F = np.dot(F, w)
        else:
            F = (F[..., 0] if F.ndim else F) * np.sum(w)
    return F


def simplex_rule(d: int, a: tuple, a0: float, q: int):
    """Tensor rule for int_{Delta_d} f(x) prod x_l^{a_l} (1-sum x)^{a0} dx.

    Returns (nodes, weights): nodes of shape (q^d, d), the monomial weight
    already folded into weights.
    """
    us, ws = simplex_axes(d, a, a0, q)
    if d == 0:
        return np.zeros((1, 0)), np.ones(1)
    X = np.empty((q,) * d + (d,))
    W = 1.0
    for i, (x, w) in enumerate(zip(barycentric(us), ws)):
        X[..., i] = x
        W = W * w.reshape(us[i].shape)
    return X.reshape(-1, d), W.reshape(-1)


def dirichlet_closed_form(a, a0: float) -> float:
    """prod Gamma(a_l+1) * Gamma(a0+1) / Gamma(d+1+sum a+a0)."""
    a = tuple(float(x) for x in a)
    logv = sum(gammaln(x + 1) for x in a) + gammaln(a0 + 1)
    logv -= gammaln(len(a) + 1 + sum(a) + a0)
    return float(np.exp(logv))


def _tensor_integral(integrand, d: int, a: tuple, a0: float,
                     spec: QuadratureSpec):
    """Sum of integrand(us) over the Duffy rule of the weight x^a
    (1-sum x)^a0 on the d-simplex, us the rule's broadcast cube
    coordinates; axes of the values before the rule's d are kept."""
    if any(x <= -1 for x in a) or a0 <= -1:
        raise DomainError(f"exponents must exceed -1, got a={a}, a0={a0}")
    if spec.method == "monte-carlo":
        # a Monte Carlo order counts samples, not Gauss points
        raise DomainError("the tensor kernels are deterministic; draw from "
                          "the weight with mc_integrate(('dirichlet', ...))")
    us, ws = simplex_axes(d, a, float(a0), spec.order)
    return contract(1.0 if integrand is None else integrand(us), ws)


def simplex_integrate(f, d: int, a, a0: float, spec: QuadratureSpec):
    """int_{Delta_d} f(x) prod x_l^{a_l} (1-sum x)^{a0} dx.

    f takes the d+1 coordinates x_1, ..., x_d, 1 - sum x, each an array
    broadcast on the rule's d axes, and returns values that broadcast
    against them; pass None for f == 1.  Values with d + 1 axes or more
    hold several integrands, one per index of the leading axes, and give
    an array of their integrals.  Exponents may be half-integers but must
    exceed -1.
    """
    return _tensor_integral(
        None if f is None else lambda us: f(barycentric(us)), d,
        tuple(float(x) for x in a), a0, spec)


def radial_integrate_projective(g, ell: int, e, N: float,
                                spec: QuadratureSpec):
    """int_{R_+^ell} g(sqrt(r)) prod r_j^{e_j} (1+sum r)^{-N} dr.

    g takes the componentwise square roots of r (the block radii), each an
    array broadcast on the rule's ell axes, and may give leading axes as f
    does in simplex_integrate.  The unbounded domain is mapped to the
    simplex by r = u/(1-sum u).
    """
    e = tuple(float(x) for x in e)
    if any(x <= -1 for x in e):
        raise DomainError(f"exponents must exceed -1, got {e}")
    a0 = N - ell - 1 - sum(e)
    if a0 <= -1:
        raise DomainError(
            f"integrability violated: need N > ell + sum(e), got N={N}, e={e}"
        )
    return _tensor_integral(
        None if g is None else lambda us: g(projective_radii(us)), ell, e,
        a0, spec)


def mc_integrate(f, domain, N: int, seed: int):
    """Unbiased Monte Carlo estimate with sample standard error.

    Every point is drawn from the Dirichlet weight it integrates.  domain is
    one of
      ("dirichlet", factors)  -- int over a product of simplices of
                                 f(u_0, u_1, ...) prod_i x^a_i (1-sum x)^a0_i
                                 for factors [(a_i, a0_i), ...]; u_i is
                                 drawn from Dirichlet(a_i+1, a0_i+1) and
                                 holds all d_i+1 coordinates
      ("nu_m", n, m)          -- E[f(z)] under the weight-m probability
                                 measure on C^n
      ("ball", n, lam)        -- E[f(z)] under the weight-lambda probability
                                 measure on the unit ball of C^n
    Both measures draw |z|^2 from Dirichlet(1, ..., 1, w+1) with
    independent uniform phases: rho^2 = y/y_last on C^n (w = m), rho^2 = y
    on the ball (w = lambda).
    Deterministic for a fixed seed.  Returns (estimate, stderr).  A count
    of N below 100 or above MAX_SAMPLES is refused before anything is
    drawn.
    """
    if N < 100:
        raise DomainError("need at least 100 samples")
    if N > MAX_SAMPLES:
        raise DomainError(f"{N} samples exceed the budget of {MAX_SAMPLES} "
                          "points; lower the sample count")
    rng = np.random.default_rng(seed)
    kind = domain[0]
    if kind == "dirichlet":
        factors = domain[1]
        draws = [rng.dirichlet(np.append(np.asarray(a, dtype=float), a0)
                               + 1.0, size=N) for a, a0 in factors]
        scale = np.prod([dirichlet_closed_form(a, a0) for a, a0 in factors])
        vals = np.asarray(f(*draws)) * scale
    elif kind in ("nu_m", "ball"):
        vals = np.asarray(f(_space_points(rng, kind, domain[1], domain[2],
                                          N)))
    else:
        raise DomainError(f"unknown MC domain {kind!r}")
    return mc_mean(vals)


def _space_points(rng, kind: str, n: int, w: float, N: int):
    """N points z = rho e^{i theta} of the ("nu_m" or "ball") measure of
    weight w, drawn from rng as mc_integrate documents.  The draw's
    Dirichlet, rho and theta arrays die on return, before the integrand
    runs; every step is the floating-point operation of the one-line
    rho * np.exp(1j * theta), so the points are bitwise those."""
    y = rng.dirichlet(np.concatenate([np.ones(n), [w + 1.0]]), size=N)
    rho = np.sqrt(y[:, :n] / y[:, n:] if kind == "nu_m" else y[:, :n])
    del y
    Z = 1j * (rng.random((N, n)) * 2 * np.pi)
    np.exp(Z, out=Z)
    Z *= rho
    return Z


def mc_mean(vals):
    """Sample mean of vals and its standard error: (estimate, stderr)."""
    N = len(vals)
    est = np.sum(vals) / N
    resid = vals - est
    stderr = float(np.sqrt(np.sum(np.abs(resid) ** 2) / (N - 1) / N))
    if np.iscomplexobj(vals):
        return complex(est), stderr
    return float(np.real(est)), stderr
