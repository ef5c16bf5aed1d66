"""Deterministic quadrature kernels and a seeded Monte Carlo fallback.

Every kernel returns a probability mean; the masses, ratios of Gamma values,
are the caller's, in log space.  One grid kernel, `simplex_integrate`, takes
a mean under a monomial weight on the standard simplex (possibly
half-integer exponents) on a tensor Gauss-Jacobi rule under the Duffy
(collapsed-cube) map; the monomial weights are absorbed into the Jacobi
weights so endpoint algebraic behavior costs no accuracy.  The engine reads
the radii off the simplex point through the space's `radial_roots`, r_j^2 =
x_j on the ball and x_j/x_0 on P^n (x_0 = 1 - sum x).  `monomial_means`
takes a monomial's mean on no grid, one Duffy axis at a time.

The kernel keeps a tensor rule as its per-axis factors: the cube
coordinates u_i lie on broadcast 1-D axes, the integrand's variables are
derived on those axes (x_i = u_i prod_{j<i}(1-u_j), 1 - sum x =
prod_j (1-u_j)), the integrand is evaluated by broadcasting, and `contract`
sums it against the 1-D weights one axis at a time.  No node or weight
array of the full grid is built; only `simplex_rule` materializes one,
times the Dirichlet mass.

Each one-dimensional Gauss-Jacobi rule is a probability rule, built by the
Golub-Welsch method in NumPy: the nodes are the eigenvalues of the
symmetric tridiagonal Jacobi matrix, and the weights are the Christoffel
numbers 1/sum_k p_k(x)^2 of the orthonormal recurrence, normalized to sum
to one.  Christoffel numbers keep tiny endpoint weights to relative
accuracy, where squared eigenvector components would not.  A rule or grid
over the node budget raises DomainError before it is allocated.  Rules live in
a bounded cache; `build_jacobi_rules` fills it with many rules of one order
in a single vectorized build, bitwise equal to building each alone.

The Monte Carlo estimator draws every point from the probability measure
whose mean it estimates; the deterministic kernels refuse a Monte Carlo
spec, whose order counts samples rather than Gauss points.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .indexing import DomainError, Record, gammaln

DEFAULT_ORDER = 40
MAX_TENSOR_DIM = 8
# largest q^d of a tensor rule, and q^2 of each axis's Jacobi matrix
MAX_NODES = 2**22
# largest Monte Carlo draw, in points: a point costs several (d+1)- or
# n-vectors where a rule node costs one, so the budget is a quarter of
# MAX_NODES; it admits the oracle's default 10^6 samples
MAX_SAMPLES = 2**20
# points per chunk of a streamed Monte Carlo draw
_MC_CHUNK_POINTS = 2**13
# the most Jacobi rules kept at once, least recently used dropped first
RULE_CACHE_SIZE = 4096
# doubles per array of one vectorized Golub-Welsch build (2 MB)
_BATCH_DOUBLES = 2**18

_rules: dict = {}  # (a, b, q) -> (nodes, weights), in order of last use


class QuadratureSpec(Record):
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


def build_jacobi_rules(pairs, q: int) -> None:
    """Build jacobi_rule_01(a, b, q) for every (a, b) in pairs that the
    cache lacks, in one Golub-Welsch build vectorized over the stack (in
    chunks of a few MB), and keep them in the cache.  A pair jacobi_rule_01
    would refuse is left out, so that it still raises there; at most
    RULE_CACHE_SIZE rules are built.  An order whose q x q Jacobi matrix
    exceeds the node budget raises DomainError before anything is built."""
    pairs = dict.fromkeys((float(a), float(b)) for a, b in pairs)
    keys = [(a, b, q) for a, b in pairs
            if (a, b, q) not in _rules and a > -1 and b > -1][:RULE_CACHE_SIZE]
    if keys and q * q > MAX_NODES:
        raise DomainError(f"an order-{q} rule's Jacobi matrix exceeds the "
                          f"budget of {MAX_NODES} nodes; lower the order")
    chunk = max(1, _BATCH_DOUBLES // (q * q))
    for lo in range(0, len(keys), chunk):
        batch = keys[lo:lo + chunk]
        x, w = _golub_welsch([key[0] for key in batch],
                             [key[1] for key in batch], q)
        u = 0.5 * (x + 1.0)
        u.flags.writeable = w.flags.writeable = False
        for key, u_i, w_i in zip(batch, u, w):
            # single zero weights (underflow at the endpoints) are
            # legitimate
            if np.all(np.isfinite(w_i)):
                _rules[key] = u_i, w_i
    while len(_rules) > RULE_CACHE_SIZE:
        del _rules[next(iter(_rules))]


def jacobi_rule_01(a: float, b: float, q: int):
    """Nodes and probability weights for the Beta(a+1, b+1) mean of f,
    int_0^1 u^a (1-u)^b f(u) du / B(a+1, b+1), from the cache."""
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
    """Refuse a d-dimensional order-q tensor grid, of q^d nodes, before
    anything is allocated: an integrand on it holds copies times q^d."""
    if d > MAX_TENSOR_DIM:
        raise DomainError(f"tensor rule unsupported for dimension {d} > "
                          f"{MAX_TENSOR_DIM}; use Monte Carlo")
    if copies * q ** d > MAX_NODES:
        times = f" times {copies} integrands" if copies > 1 else ""
        raise DomainError(
            f"a {d}-dimensional rule of order {q}{times} exceeds the budget "
            f"of {MAX_NODES} nodes; lower the order or use Monte Carlo")


def simplex_pairs(x):
    """The Jacobi exponents (a, b), each (..., d), of the Duffy axes for the
    Dirichlet weight prod_i y_i^x_i, x of shape (..., d+1): axis i carries
    u^a_i (1-u)^b_i, a_i = x_i and b_i = x_(i+1) + ... + x_d + d-1-i."""
    x = np.asarray(x, dtype=float)
    d = x.shape[-1] - 1
    tails = np.cumsum(x[..., :0:-1], axis=-1)[..., ::-1]
    return x[..., :d], tails + np.arange(d - 1, -1, -1)


def monomial_means(c, x, q: int) -> np.ndarray:
    """The mean of prod_i y_i^c_i, c real, under the normalized Dirichlet
    weight prod_i y_i^x_i of each row of x, Duffy axis by axis: axis i
    carries u^s (1-u)^t, s = c_i and t = c_(i+1) + ... + c_d, under
    Beta(a_i+1, b_i+1) (`simplex_pairs`).  Where the order-q rule is exact,
    s, t integers >= 0 with s + t <= 2q - 1, it takes the Beta moment, a
    running product of ratios (a+1+k)/(a+b+2+k), then (b+1+k)/(a+b+2+s+k),
    each at most 1, and builds no rule; any other axis sums its rule, all
    rows' rules built in one batch.  A row whose integral diverges
    (`diverges`) gets its rules' sum, the tensor grid's, for the caller to
    refuse or keep; an overflow gives inf or nan, and no warning."""
    a, b = simplex_pairs(x)
    axes = [(float(c[i]), float(sum(c[i + 1:]))) for i in range(len(c) - 1)]
    exact = np.array([min(s, t) >= 0 and s % 1 == t % 1 == 0
                      and s + t < 2 * q for s, t in axes], dtype=bool)
    build_jacobi_rules(zip(a[:, ~exact].ravel().tolist(),
                           b[:, ~exact].ravel().tolist()), q)
    mean = np.ones(len(a))
    with np.errstate(all="ignore"):
        for i, (s, t) in enumerate(axes):
            if exact[i]:
                n = a[:, i] + b[:, i] + 2
                for k in range(int(s + t)):
                    top = a[:, i] + 1 + k if k < s else b[:, i] + 1 + (k - s)
                    mean = mean * (top / (n + k))
            else:
                rules = map(jacobi_rule_01, a[:, i].tolist(),
                            b[:, i].tolist(), [q] * len(a))
                mean = mean * [float(np.dot(u ** s * (1.0 - u) ** t, w))
                               for u, w in rules]
    return mean


def diverges(c, x) -> np.ndarray:
    """Whether each row of `monomial_means` diverges: a + s <= -1 or
    b + t <= -1 on some axis."""
    a, b = simplex_pairs(x)
    low = -1 - np.array([(c[i], sum(c[i + 1:])) for i in range(len(c) - 1)],
                        dtype=float).reshape(-1, 2)
    return np.any((a <= low[:, 0]) | (b <= low[:, 1]), axis=1)


def simplex_axes(d: int, a: tuple, a0: float, q: int):
    """The tensor rule of `simplex_integrate` kept as per-axis factors: the
    cube coordinates u_i, each broadcast along axis i of d, and the 1-D
    probability weights w_i, the monomial weight folded in."""
    if len(a) != d:
        raise DomainError(f"got {len(a)} exponents for dimension {d}")
    check_tensor_size(d, q)
    us, ws = [], []
    for i, pair in enumerate(np.column_stack(simplex_pairs((*a, a0)))):
        u, w = jacobi_rule_01(*pair.tolist(), q)
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
    already folded into weights, which sum to its mass.  A mass below the
    normal double range, where they would lose their relative accuracy,
    raises DomainError.
    """
    us, ws = simplex_axes(d, a, a0, q)
    W = dirichlet_closed_form(a, a0)
    if W < np.finfo(float).tiny:
        raise DomainError(f"the mass {W} of the weight of exponents {a}, "
                          f"{a0} is below the normal double range")
    if d == 0:
        return np.zeros((1, 0)), np.ones(1)
    X = np.empty((q,) * d + (d,))
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


def simplex_integrate(f, d: int, a, a0: float, spec: QuadratureSpec):
    """The mean of f under the normalized Dirichlet weight
    prod x_l^{a_l} (1-sum x)^{a0} on the d-simplex.

    f takes the d+1 coordinates x_1, ..., x_d, 1 - sum x, each an array
    broadcast on the rule's d axes, and returns values that broadcast
    against them; pass None for f == 1.  A list of such values holds
    several integrands, each contracted on its own axes, and gives an
    array of their means.  Exponents may be half-integers but must
    exceed -1.
    """
    a = tuple(float(x) for x in a)
    if any(x <= -1 for x in a) or a0 <= -1:
        raise DomainError(f"exponents must exceed -1, got a={a}, a0={a0}")
    if spec.method == "monte-carlo":
        # a Monte Carlo order counts samples, not Gauss points
        raise DomainError("the tensor kernels are deterministic; draw from "
                          "the weight with mc_integrate(('dirichlet', ...))")
    us, ws = simplex_axes(d, a, float(a0), spec.order)
    values = 1.0 if f is None else f(barycentric(us))
    if isinstance(values, list):
        # with a leading axis, np.dot sums a full-grid one as in a stack
        return np.array([contract(np.asarray(v)[None], ws).reshape(())
                         for v in values])
    return contract(values, ws)


def radial_integrate_projective(g, ell: int, e, N: float,
                                spec: QuadratureSpec):
    """The mean of g(sqrt(r)) under the normalized weight
    prod r_j^{e_j} (1+sum r)^{-N} on R_+^ell.

    g takes the componentwise square roots of r (the block radii), each an
    array broadcast on the rule's ell axes, and may give a list as f does
    in simplex_integrate.  It is `simplex_integrate` at r = x/x_0, x_0 =
    1 - sum x, with a0 = N - ell - 1 - sum(e).  The gamma engine takes
    that call itself, on the space's roots; this form of it stays as the
    reference of the radial tests and as a span of the benchmark tracer.
    """
    a0 = N - ell - 1 - sum(e)
    if a0 <= -1:
        raise DomainError(
            f"integrability violated: need N > ell + sum(e), got N={N}, e={e}"
        )
    return simplex_integrate(
        None if g is None else lambda x: g([np.sqrt(v / x[-1])
                                            for v in x[:-1]]), ell, e, a0,
        spec)


def mc_integrate(f, domain, N: int, seed: int):
    """Unbiased Monte Carlo estimate of a mean, with sample standard error.

    Every point is drawn from the probability measure of the mean.  domain
    is one of
      ("dirichlet", factors)  -- E[f(u_0, u_1, ...)] under the product of
                                 the normalized weights prod_i x^a_i
                                 (1-sum x)^a0_i for factors
                                 [(a_i, a0_i), ...]; u_i is drawn from
                                 Dirichlet(a_i+1, a0_i+1) and holds all
                                 d_i+1 coordinates
      ("nu_m", n, m)          -- E[f(R, theta)] under the weight-m
                                 probability measure on C^n
      ("ball", n, lam)        -- E[f(R, theta)] under the weight-lambda
                                 probability measure on the unit ball of C^n
    The two measures hand f the points z_i = R_i e^{i theta_i} in polar
    form: the moduli R and the angles theta, each of shape (chunk, n).  Both
    draw R^2 from Dirichlet(1, ..., 1, w+1) and theta uniform on
    [0, 2 pi)^n: R^2 = y/y_last on C^n (w = m), R^2 = y on the ball
    (w = lambda).  They stream: the moduli of all N points come first, the
    Dirichlet rows _MC_CHUNK_POINTS at a time, then theta and f one chunk of
    _MC_CHUNK_POINTS points at a time, so a draw holds R (8n bytes a
    sample) and one chunk; the points are bitwise those of one whole draw.
    f returns one integrand's values, or an iterator over several
    integrands' values (a generator, say), taken one at a time, so memory
    does not grow with their number.  Each chunk keeps the sum and centred
    square sum of each integrand, merged at the end.
    Deterministic for a fixed seed.  Returns (estimate, stderr), or a list
    of them, one per integrand, where f gives an iterator.  A count of N
    below 100 or above MAX_SAMPLES is refused before anything is drawn.
    """
    if N < 100:
        raise DomainError("need at least 100 samples")
    if N > MAX_SAMPLES:
        raise DomainError(f"{N} samples exceed the budget of {MAX_SAMPLES} "
                          "points; lower the sample count")
    rng = np.random.default_rng(seed)
    kind = domain[0]
    if kind == "dirichlet":
        chunks = [f(*[rng.dirichlet(np.append(np.asarray(a, dtype=float), a0)
                                    + 1.0, size=N) for a, a0 in domain[1]])]
    elif kind in ("nu_m", "ball"):
        chunks = _space_chunks(f, rng, kind, domain[1], domain[2], N)
    else:
        raise DomainError(f"unknown MC domain {kind!r}")
    stats = {}  # per integrand, per chunk: (sum, centred square sum, size)
    for out in chunks:
        several = isinstance(out, Iterator)
        for j, vals in enumerate(out if several else [out]):
            total = np.sum(vals)
            stats.setdefault(j, []).append((total, np.sum(np.abs(
                vals - total / len(vals)) ** 2), len(vals)))
    means = [_merged(chunk_stats, N) for chunk_stats in stats.values()]
    return means if several else means[0]


def _space_chunks(f, rng, kind: str, n: int, w: float, N: int):
    """f at N points of the ("nu_m" or "ball") measure of weight w, one
    chunk at a time: the moduli of every point are drawn first, then each
    chunk's angles, from rng as mc_integrate documents."""
    R, shape = np.empty((N, n)), np.concatenate([np.ones(n), [w + 1.0]])
    for lo in range(0, N, _MC_CHUNK_POINTS):
        y = rng.dirichlet(shape, size=min(_MC_CHUNK_POINTS, N - lo))
        R[lo:lo + len(y)] = np.sqrt(y[:, :n] / y[:, n:] if kind == "nu_m"
                                    else y[:, :n])
    for lo in range(0, N, _MC_CHUNK_POINTS):
        hi = min(lo + _MC_CHUNK_POINTS, N)
        yield f(R[lo:hi], rng.random((hi - lo, n)) * 2 * np.pi)


def _merged(chunk_stats, N: int):
    """(estimate, stderr) of N values from their chunks' (sum, centred
    square sum, size): M2 = sum_c [M2_c + n_c |mean_c - estimate|^2]."""
    est = np.sum([total for total, _, _ in chunk_stats]) / N
    m2 = sum(sq + size * abs(total / size - est) ** 2
             for total, sq, size in chunk_stats)
    stderr = float(np.sqrt(m2 / (N - 1) / N))
    if np.iscomplexobj(est):
        return complex(est), stderr
    return float(np.real(est)), stderr
