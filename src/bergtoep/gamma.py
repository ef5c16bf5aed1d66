"""Coefficient functions gamma(alpha) for every covered symbol family.

T(z^alpha) = gamma(alpha) z^(alpha+p).  One engine (`_values`) serves P^n and
the ball: a log Gamma-prefactor times the integral of a(rho) prod_j B_j(rho)
against a Dirichlet weight of exponents e_j = |alpha_(j)| + |p_(j)|/2 + k_j - 1
and a0 (m-|alpha| on P^n, lambda on the ball), B_j integrating b_j against the
monomial weight (exps, a0_j) of (alpha_(j), p_(j)).  It takes a whole basis:
the bookkeeping is arrays with a row per alpha, and each distinct radial key
(e, a0) and block key (j, exps, a0_j) is integrated once, in order of first
appearance, after one batched build of all their Jacobi rules.  A b_j that
reads radii is split into terms c_t R_t(r) S_t(s), and gamma = sum_t c_t
radial(a R_t) block(S_t), unless a term reads radii and cosines in one factor
or the terms outnumber the q^(k_j - 1) nodes per radial node of the coupled
grid, the block's rule contracted at every radial node.  A lone single-sphere
factor on P^n has its own theorem; Monte Carlo draws once per distinct key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial, reduce
from itertools import product
from operator import mul

import numpy as np

from . import quadrature
from .expr import Expr, evaluate, monomial, split_terms, variables
from .indexing import DomainError, Partition, enumerate_basis, gammaln
from .quadrature import (QuadratureSpec, build_jacobi_rules,
                         dirichlet_closed_form, mc_integrate,
                         radial_integrate_projective, simplex_integrate,
                         simplex_pairs)
from .symbols import (ExtendedFactor, MultiSphereFactor, PhaseMonomial,
                      QuasiRadial, SingleSphereFactor, SymbolSpec,
                      ValidationError, flatten, total_shift,
                      validate_product)

_EXTENDED = (ExtendedFactor, MultiSphereFactor)


class UnsupportedCaseError(DomainError):
    """A case the closed-form theorems do not cover."""


@dataclass(frozen=True)
class ProjectiveSpace:
    n: int
    m: int


@dataclass(frozen=True)
class BallSpace:
    n: int
    lam: float
    cap: int  # basis degree cap |alpha| <= cap


@dataclass(frozen=True)
class GammaTable:
    space: ProjectiveSpace | BallSpace
    partition: Partition
    shift: tuple[int, ...]
    entries: dict
    annotation: str

    def __getitem__(self, alpha):
        return self.entries[tuple(alpha)]


def _evaluate(e: Expr | None, env: dict):
    """e at env, by broadcasting; 1 for an absent factor."""
    return 1.0 if e is None else evaluate(e, env)


def _cosines_env(x, kj: int, name: str = "s") -> dict:
    """Cosines s1..s_kj (or sig1..) at the block's squared cosines x."""
    return {f"{name}{l + 1}": np.sqrt(x[l]) for l in range(kj)}


def _split_product(psi: SymbolSpec, k: Partition, allowed):
    """Collect (a_expr, {block: b_expr}, total shift) from a product."""
    validate_product(psi, k)
    a_expr, blocks = None, {}
    for f in flatten(psi):
        if isinstance(f, QuasiRadial):
            a_expr = f.a
        elif isinstance(f, allowed):
            blocks[f.j] = f.b
        elif not isinstance(f, PhaseMonomial):
            raise ValidationError(
                f"factor {type(f).__name__} is outside this symbol family")
    return a_expr, blocks, total_shift(psi, k)


def _block_terms(b: Expr | None, limit: int):
    """b as terms (c, R, S), R reading only radii, S no radii, None for 1;
    None when a factor reads both or there are more than limit terms."""
    reads = set() if b is None else {v[0] == "r" for v in variables(b)}
    if reads != {True, False}:
        return [(1.0, b, None) if True in reads else (1.0, None, b)]
    if len(split := split_terms(b)) > limit:
        return None
    terms = []
    for c, factors in split:
        parts = {True: [], False: []}  # reads radii: radial, else angular
        for atom, power in factors:
            reads = {v[0] == "r" for v in variables(atom)}
            if len(reads) > 1:
                return None
            parts[True in reads].append((atom, power))
        terms.append((c, monomial(parts[True]), monomial(parts[False])))
    return terms


def _scaled(log_scale: float, value: float) -> float:
    """exp(log_scale) * value, combined in log space: a prefactor past the
    float range times a tiny integral is still a finite coefficient."""
    if value == 0:
        return 0.0
    try:
        return math.copysign(math.exp(log_scale + math.log(abs(value))),
                             value)
    except OverflowError:
        raise DomainError("coefficient is not representable in double "
                          "precision") from None


def _gammaln_sum(x, y=None):
    """The sum over the columns of x of gammaln(x) (minus gammaln(y)),
    added left to right as Python's sum adds them."""
    return sum(gammaln(x[:, i]) - (0.0 if y is None else gammaln(y[:, i]))
               for i in range(x.shape[1]))


def _distinct(keys):
    """Distinct rows of keys by first appearance; each row's index there."""
    rows = list(map(tuple, keys.tolist()))
    index = {row: i for i, row in enumerate(dict.fromkeys(rows))}
    return (np.array(list(index), dtype=float).reshape(-1, keys.shape[1]),
            np.array([index[row] for row in rows], dtype=np.intp))


def _values(space, a_expr, blocks: dict, k: Partition, p, alphas,
            spec: QuadratureSpec) -> np.ndarray:
    """gamma at every alpha of alphas, 0 at the hard zeros.  Its exponent
    bookkeeping has a row per alpha that is no hard zero: the log Gamma-
    prefactor, the log of the blocks' Gamma ratios, e, a0 and the weight
    (exps, a0_j) of every block with a factor."""
    A = np.array(alphas, dtype=int).reshape(-1, k.n)
    d = A.sum(axis=1)
    if isinstance(space, ProjectiveSpace):
        if np.any(d > space.m):
            raise DomainError(f"|alpha|={d.max()} exceeds m={space.m}")
        prefactor = gammaln(k.n + space.m + 1) - gammaln(space.m - d + 1)
        a0 = (space.m - d).astype(float)
    elif space.lam <= -1:
        raise DomainError(f"need lambda > -1, got {space.lam}")
    else:
        prefactor = gammaln(k.n + d + space.lam + 1) - gammaln(space.lam + 1)
        a0 = np.full(len(d), float(space.lam))
    out, live = np.zeros(len(A)), np.flatnonzero(np.all(A + p >= 0, axis=1))
    if not len(live):
        return out
    A, prefactor, a0 = A[live], prefactor[live], a0[live]
    shifted, half = A + p, A + np.asarray(p) / 2
    log_value, e, weights = np.zeros(len(A)), np.empty((len(A), 0)), {}
    for j, kj in enumerate(k.parts):
        h, s = half[:, k.block_slice(j)], shifted[:, k.block_slice(j)]
        e = np.column_stack([e, h.sum(axis=1) + kj - 1])
        if j in blocks:
            # the block's Gamma(k_j + sum h) cancels against the prefactor's
            log_value = log_value - _gammaln_sum(s + 1)
            weights[j] = h
        else:
            # the Dirichlet closed form of the block over its prefactor,
            # term by term, so that a zero block shift cancels exactly
            log_value = log_value + (_gammaln_sum(h + 1, s + 1)
                                     - gammaln(kj + h.sum(axis=1)))
    scale = prefactor + log_value
    if spec.method == "monte-carlo":
        keys, key_of = _distinct(np.column_stack([e, a0, *weights.values()]))
        value = np.array([_mc_value(space, a_expr, blocks, k, key, spec)
                          for key in keys])[key_of]
    else:
        value, closed = _quadrature(space, a_expr, blocks, k, e, a0, weights,
                                    spec)
        if closed:
            # the radial Dirichlet closed form cancels the prefactor up to
            # prod Gamma(e_j + 1), in log space so as never to overflow
            scale = log_value + _gammaln_sum(e + 1)
    out[live] = [_scaled(s, v) for s, v in zip(scale.tolist(),
                                               value.tolist())]
    return out


def _quadrature(space, a_expr, blocks: dict, k: Partition, e, a0,
                weights: dict, spec):
    """The integrals of gamma by quadrature, one value per row of e, and
    whether the radial integral was left to its closed form."""
    ell, q = k.num_blocks, spec.order
    # each term takes the radial grid; a coupled grid is q^(k_j-1) times it
    terms = {j: _block_terms(blocks[j], q ** (k.parts[j] - 1))
             for j in weights}
    coupled = [j for j, t in terms.items() if t is None]
    split = {j: t for j, t in terms.items() if t is not None}
    closed = a_expr is None and not coupled and all(
        R is None for t in split.values() for _, R, _ in t)
    keys = {j: _distinct(h) for j, h in weights.items()}
    pairs = [pair for j, (rows, _) in keys.items()
             if j in coupled or any(S is not None for *_, S in split[j])
             for w in rows for pair in simplex_pairs(w[:-1], w[-1], q)]
    if not closed:
        # radial times coupled nodes, once per product of split terms
        quadrature.check_tensor_size(
            ell + sum(k.parts[j] - 1 for j in coupled), q,
            math.prod(map(len, split.values())))
        radial_keys, radial_of = _distinct(np.column_stack(
            [e, a0, *(keys[j][1] for j in coupled)]))
        pairs += [pair for row in radial_keys
                  for pair in simplex_pairs(row[:ell], row[ell], q)]
    build_jacobi_rules(pairs, q)
    # each block's terms c_t block(S_t) per distinct block key, gathered
    integrals = {j: np.array([[
        c * _integral(S, partial(_cosines_env, kj=k.parts[j]),
                      k.parts[j] - 1, tuple(w[:-1]), w[-1], spec)
        for c, _, S in t] for w in keys[j][0]]).reshape(-1, len(t))[keys[j][1]]
        for j, t in split.items()}
    radial = np.ones((len(e), 1))  # closed: the prefactor takes it
    if not closed:
        rules = {j: [_block_rule(k.parts[j], tuple(w[:-1]), w[-1], spec)
                     for w in keys[j][0]] for j in coupled}
        radial = np.array([_radial_value(
            space, a_expr, [(blocks[j], *rules[j][int(u)])
                            for j, u in zip(coupled, row[ell + 1:])],
            [[R for _, R, _ in t] for t in split.values()],
            tuple(row[:ell]), row[ell], spec)
            for row in radial_keys])[radial_of]
    choices = product(*(range(len(t)) for t in split.values()))
    return sum(reduce(mul, (integrals[j][:, t] for j, t in zip(split, ts)),
                      np.ones(len(e))) * radial[:, combo]
               for combo, ts in enumerate(choices)), closed


def _radial_value(space, a_expr, coupled: list, split: list, e, a0,
                  spec) -> np.ndarray:
    """Radial integrals of a(rho) prod B(rho) times each product of one
    term R per split block (split lists each block's R, None for 1), in
    itertools.product order; each coupled block integral B (b, cosines and
    weights on the block's axes) is contracted at every radial node."""

    def g(radii):
        env = {f"r{j + 1}": r for j, r in enumerate(radii)}
        vals = _evaluate(a_expr, env)
        for b_expr, cosines, ws in coupled:
            pad = (...,) + (None,) * len(ws)  # block axes after radial ones
            h = evaluate(b_expr, {**{v: r[pad] for v, r in env.items()},
                                  **cosines})
            vals = vals * quadrature.contract(h, ws)
        # one integrand per product on a leading axis, each on all ell axes
        combos = [reduce(mul, Rs, vals) for Rs in product(
            *([_evaluate(R, env) for R in Rs] for Rs in split))]
        return np.stack(np.broadcast_arrays(*combos, *radii)[:len(combos)])

    if isinstance(space, ProjectiveSpace):
        return radial_integrate_projective(g, len(e), e,
                                           space.n + space.m + 1, spec)
    return simplex_integrate(lambda x: g([np.sqrt(v) for v in x[:-1]]),
                             len(e), e, a0, spec)


def _integral(expr, env, d: int, exps, a0, spec) -> float:
    """Integral of expr, at the variables env(x), against x^exps (1-sum x)^a0
    over the d-simplex; the Dirichlet closed form when expr is None.  x
    holds all d+1 coordinates, the last 1 - sum x."""
    if expr is None:
        return dirichlet_closed_form(exps, a0)
    if spec.method == "monte-carlo":
        # a Dirichlet draw holds one point per row
        return mc_integrate(
            lambda X: np.broadcast_to(evaluate(expr, env(X.T)), len(X)),
            ("dirichlet", [(exps, a0)]), spec.order, spec.seed)[0]
    return float(simplex_integrate(lambda x: evaluate(expr, env(x)), d,
                                   exps, a0, spec))


def _block_rule(kj: int, exps, a0, spec):
    """The block rule's cosines on the block's own axes, and its weights."""
    us, ws = quadrature.simplex_axes(kj - 1, exps, float(a0), spec.order)
    return _cosines_env(quadrature.barycentric(us), kj), ws


def _mc_value(space, a_expr, blocks: dict, k: Partition, key, spec):
    """Monte Carlo estimate at a key row (e, a0, then each block's exps and
    a0_j); each point is drawn from its Dirichlet weight."""
    ell, order = k.num_blocks, sorted(blocks)
    e, a0, *ws, _ = np.split(key, np.cumsum([ell, 1, *(k.parts[j]
                                                       for j in order)]))

    def f(u, *S):
        rest = u[:, ell:] if isinstance(space, ProjectiveSpace) else 1.0
        env = {f"r{j + 1}": r
               for j, r in enumerate(np.sqrt(u[:, :ell] / rest).T)}
        vals = _evaluate(a_expr, env)
        for j, Sj in zip(order, S):
            cosines = _cosines_env(Sj.T, k.parts[j])
            vals = vals * _evaluate(blocks[j], {**env, **cosines})
        return np.broadcast_to(vals, len(u))

    factors = [(e, a0[0]), *((w[:-1], w[-1]) for w in ws)]
    return mc_integrate(f, ("dirichlet", factors), spec.order, spec.seed)[0]


def _sphere_values(b: Expr | None, k: Partition, j: int, p_j, n: int,
                   alphas, spec: QuadratureSpec) -> np.ndarray:
    """Single-sphere gamma at every alpha of alphas (0 at hard zeros): a log
    prefactor times one k_j-simplex integral per distinct (exps, a0)."""
    kj = k.parts[j]
    if kj >= n:
        raise UnsupportedCaseError(
            "single-sphere factor with k_j = n is not covered; "
            "use the one-block multi-sphere form instead")
    A = np.array(alphas, dtype=int).reshape(-1, n)
    live = np.flatnonzero(np.all(A[:, k.block_slice(j)] + p_j >= 0, axis=1))
    d, a_j = A[live].sum(axis=1), A[live, k.block_slice(j)]
    a0 = d - a_j.sum(axis=1) + n - kj - 1
    logpref = gammaln(d + n) - gammaln(a0 + 1) - _gammaln_sum(a_j + p_j + 1)
    weights, weight_of = _distinct(np.column_stack(
        [a_j + np.asarray(p_j) / 2, a0]))
    if b is not None and spec.method != "monte-carlo":
        build_jacobi_rules([pair for w in weights for pair in simplex_pairs(
            w[:-1], w[-1], spec.order)], spec.order)
    integrals = [_integral(b, partial(_cosines_env, kj=kj, name="sig"), kj,
                           tuple(w[:-1]), w[-1], spec) for w in weights]
    out = np.zeros(len(A))
    out[live] = [_scaled(s, integrals[u]) for s, u in zip(logpref.tolist(),
                                                          weight_of)]
    return out


def _one(space, psi: SymbolSpec, k: Partition, alpha, spec,
         allowed=_EXTENDED) -> float:
    """gamma(alpha) of psi on space: a one-row call into the engine."""
    a_expr, blocks, p = _split_product(psi, k, allowed)
    return float(_values(space, a_expr, blocks, k, p, [alpha], spec)[0])


def gamma_quasi_radial(a: Expr, k: Partition, m: int, alpha,
                       spec: QuadratureSpec) -> float:
    """Diagonal coefficient of a quasi-radial symbol at weight m."""
    return _one(ProjectiveSpace(k.n, m), QuasiRadial(a), k, alpha, spec)


def gamma_multisphere_factor(b: Expr | None, k: Partition, j: int, p_j,
                             alpha, spec: QuadratureSpec) -> float:
    """Weight-independent per-block coefficient for b_j(s_(j)) t_(j)^p_(j)
    with a blockwise-zero shift: its gamma alone on the block's P^(k_j)."""
    validate_product(MultiSphereFactor(j, b, p_j), k)
    a_j, kj = k.block(alpha, j), k.parts[j]
    return _one(ProjectiveSpace(kj, sum(a_j)), MultiSphereFactor(0, b, p_j),
                Partition((kj,)), a_j, spec)


def gamma_multisphere(psi: SymbolSpec, k: Partition, m: int, alpha,
                      spec: QuadratureSpec) -> float:
    """Coefficient of a quasi-radial multi-sphere pseudo-homogeneous
    product with total shift summing to zero (the general theorem; the
    per-block shifts need not vanish individually)."""
    return _one(ProjectiveSpace(k.n, m), psi, k, alpha, spec,
                (MultiSphereFactor,))


def gamma_single_sphere(b: Expr | None, k: Partition, j: int, p_j, n: int,
                        alpha, spec: QuadratureSpec) -> float:
    """Coefficient of a single-sphere factor b_j(sigma_(j)) t_(j)^p_j.

    Independent of the weight; depends on alpha only through alpha_(j) and
    |alpha|.  k_j = n is outside the theorem (the leftover simplex factor
    degenerates) and raises."""
    validate_product(SingleSphereFactor(j, b, p_j), k)
    return float(_sphere_values(b, k, j, p_j, n, [alpha], spec)[0])


def gamma_extended_projective(psi: SymbolSpec, k: Partition, m: int, alpha,
                              spec: QuadratureSpec) -> float:
    """Coefficient of an extended symbol a(r) prod b_j(r, s_(j)) t^p on the
    weight-m projective space."""
    return _one(ProjectiveSpace(k.n, m), psi, k, alpha, spec)


def gamma_extended_ball(psi: SymbolSpec, k: Partition, lam: float, alpha,
                        spec: QuadratureSpec) -> float:
    """Coefficient of an extended symbol on the weight-lambda ball space."""
    return _one(BallSpace(k.n, lam, sum(alpha)), psi, k, alpha, spec)


def build_gamma_table(psi: SymbolSpec, space, k: Partition,
                      spec: QuadratureSpec) -> GammaTable:
    """Evaluate gamma over the whole basis, recording hard zeros.  A lone
    single-sphere factor on P^n takes its own theorem; every other product
    the extended one, which rejects single-sphere factors.  A non-finite
    entry raises DomainError naming the first such alpha."""
    factors = flatten(psi)
    single = (isinstance(space, ProjectiveSpace) and len(factors) == 1
              and isinstance(factors[0], SingleSphereFactor))
    a_expr, blocks, p = _split_product(
        psi, k, SingleSphereFactor if single else _EXTENDED)
    degree = space.m if isinstance(space, ProjectiveSpace) else space.cap
    extended = any(isinstance(f, ExtendedFactor) for f in factors)
    theorem = ("extended-ball" if isinstance(space, BallSpace)
               else "single-sphere" if single
               else "extended-projective" if extended
               else "quasi-radial-pseudo-homogeneous")
    basis = enumerate_basis(space.n, degree)
    # a non-finite entry raises below, in place of NumPy's warnings
    with np.errstate(all="ignore"):
        if single:
            (j, b), = blocks.items()
            values = _sphere_values(b, k, j, k.block(p, j), space.n, basis,
                                    spec)
        else:
            values = _values(space, a_expr, blocks, k, p, basis, spec)
    for alpha, value in zip(basis, values.tolist()):
        if not math.isfinite(value):
            raise DomainError(f"gamma{alpha} = {value} is not finite")
    entries = dict(zip(basis, map(complex, values.tolist())))
    return GammaTable(space, k, p, entries, theorem)
