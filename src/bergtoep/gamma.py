"""Coefficient functions gamma(alpha) for every covered symbol family.

T(z^alpha) = gamma(alpha) z^(alpha+p).  One evaluator (`_gamma`) serves P^n
and the ball: a log Gamma-prefactor times the integral of a(rho) prod_j
B_j(rho) against a Dirichlet weight of exponents e_j = |alpha_(j)| +
|p_(j)|/2 + k_j - 1, B_j integrating b_j against the monomial weight of
(alpha_(j), p_(j)).  The space supplies the prefactor and the radial rule:
on P^n the orthant mapped by r = u/(1-sum u) with a0 = m-|alpha|, on the
ball the simplex with a0 = lambda and rho = sqrt(u).  Blocks whose factor
mentions no radius r* factor out as weight-free integrals (closed forms
when absent); the others are summed at every radial node.  Every rule is
kept as per-axis factors: a coupled block's axes follow the radial axes,
its factor is evaluated by broadcasting and contracted back onto them.

A table build first works out each alpha's exponents (`_terms`, memoized
for the evaluation that follows) and builds every Jacobi rule the table
will ask for in one batch; it memoizes radial values by e and block
values or rules by (j, exps, a0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import quadrature
from .expr import Expr, evaluate, variables
from .indexing import DomainError, Partition, enumerate_basis, gammaln
from .quadrature import (QuadratureSpec, dirichlet_closed_form, mc_integrate,
                         radial_integrate_projective, simplex_integrate)
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


def _memoized(memo: dict, key, compute):
    if key not in memo:
        memo[key] = compute()
    return memo[key]


def _evaluate(e: Expr | None, env: dict):
    """e at env, by broadcasting; 1 for an absent factor."""
    return 1.0 if e is None else evaluate(e, env)


def _radii_env(radii) -> dict:
    """Expression variables r1..rl bound to the block radii."""
    return {f"r{j + 1}": r for j, r in enumerate(radii)}


def _cosines_env(x, kj: int) -> dict:
    """Cosines s1..s_kj from the block simplex's k_j coordinates x, the
    squared cosines."""
    return {f"s{l + 1}": np.sqrt(x[l]) for l in range(kj)}


def _reads_radii(e: Expr) -> bool:
    return any(v.startswith("r") for v in variables(e))


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


def _space_terms(space, n: int, d: int):
    """The log Gamma-prefactor and the last radial exponent a0."""
    if isinstance(space, ProjectiveSpace):
        if d > space.m:
            raise DomainError(f"|alpha|={d} exceeds m={space.m}")
        return gammaln(n + space.m + 1) - gammaln(space.m - d + 1), space.m - d
    if space.lam <= -1:
        raise DomainError(f"need lambda > -1, got {space.lam}")
    return gammaln(n + d + space.lam + 1) - gammaln(space.lam + 1), space.lam


def _terms(space, blocks: dict, k: Partition, alpha, p):
    """The exponent bookkeeping of gamma(alpha), None at a hard zero: the
    log Gamma-prefactor, the log of the blocks' Gamma ratios, the radial
    exponents e and a0, and (exps, a0_j) of every block with a factor."""
    prefactor, a0 = _space_terms(space, k.n, sum(alpha))
    shifted = [x + q for x, q in zip(alpha, p)]
    if min(shifted) < 0:
        return None
    half = [x + q / 2 for x, q in zip(alpha, p)]
    log_value, e, weights = 0.0, (), {}
    for j, kj in enumerate(k.parts):
        h, s = k.block(half, j), k.block(shifted, j)
        e += (sum(h) + kj - 1,)
        if j in blocks:
            # the block's Gamma(k_j + sum h) cancels against the prefactor's
            log_value -= sum(gammaln(y + 1) for y in s)
            weights[j] = h[:-1], h[-1]
        else:
            # the Dirichlet closed form of the block over its prefactor,
            # term by term, so that a zero block shift cancels exactly
            log_value += sum(gammaln(x + 1) - gammaln(y + 1)
                             for x, y in zip(h, s)) - gammaln(kj + sum(h))
    return prefactor, log_value, e, a0, weights


def _gamma(space, a_expr, blocks: dict, k: Partition, alpha, p,
           spec: QuadratureSpec, memo: dict | None = None) -> float:
    """gamma(alpha) = prefactor * radial x block integrals on either space."""
    memo = {} if memo is None else memo
    alpha = tuple(int(x) for x in alpha)
    terms = _memoized(memo, ("terms", alpha),
                      partial(_terms, space, blocks, k, alpha, p))
    if terms is None:
        return 0.0
    prefactor, log_value, e, a0, weights = terms
    if spec.method == "monte-carlo":
        return _scaled(prefactor + log_value, _mc_value(
            space, a_expr, blocks, k, e, a0, weights, spec))
    value, coupled = 1.0, []
    for j, (exps, a0_j) in weights.items():
        kj, b_expr, key = k.parts[j], blocks[j], ("block", j, exps, a0_j)
        if _reads_radii(b_expr):
            coupled.append((b_expr, *_memoized(memo, key, partial(
                _block_rule, kj, exps, a0_j, spec))))
        else:
            value *= _memoized(memo, key, partial(
                _integral, b_expr, partial(_cosines_env, kj=kj), kj - 1,
                exps, a0_j, spec))
    if a_expr is None and not coupled:
        # the radial Dirichlet closed form cancels the prefactor up to
        # prod Gamma(e_j + 1); kept in log space, neither under- nor
        # overflows at large weights
        return _scaled(log_value + sum(gammaln(x + 1) for x in e), value)
    radial = partial(_radial_value, space, a_expr, coupled, e, a0, spec)
    value *= radial() if coupled else _memoized(memo, ("radial", e), radial)
    return _scaled(prefactor + log_value, value)


def _radial_value(space, a_expr, coupled: list, e, a0, spec) -> float:
    """Radial integral of a(rho) prod B(rho), each coupled block integral B
    (given as b, cosines and weights on the block's own axes) contracted
    at every radial node."""
    # the coupled grid: radial nodes times every coupled block's nodes
    quadrature.check_tensor_size(
        len(e) + sum(len(ws) for *_, ws in coupled), spec.order)

    def g(radii):
        env = _radii_env(radii)
        vals = _evaluate(a_expr, env)
        for b_expr, cosines, ws in coupled:
            # the block's axes follow the radial ones
            pad = (...,) + (None,) * len(ws)
            h = evaluate(b_expr, {**{v: r[pad] for v, r in env.items()},
                                  **cosines})
            vals = vals * quadrature.contract(h, ws)
        return vals

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
    return simplex_integrate(lambda x: evaluate(expr, env(x)), d, exps, a0,
                             spec)


def _block_rule(kj: int, exps, a0, spec):
    """Cosines of the block rule on the block's own axes, and its per-axis
    weights."""
    us, ws = quadrature.simplex_axes(kj - 1, exps, float(a0), spec.order)
    return _cosines_env(quadrature.barycentric(us), kj), ws


def _mc_value(space, a_expr, blocks: dict, k: Partition, e, a0, weights,
              spec) -> float:
    """Monte Carlo estimate; each point is drawn from its Dirichlet weight."""
    ell = k.num_blocks

    def f(u, *S):
        rest = u[:, ell:] if isinstance(space, ProjectiveSpace) else 1.0
        env = _radii_env(np.sqrt(u[:, :ell] / rest).T)
        vals = _evaluate(a_expr, env)
        for j, Sj in zip(weights, S):
            cosines = _cosines_env(Sj.T, k.parts[j])
            vals = vals * evaluate(blocks[j], {**env, **cosines})
        return np.broadcast_to(vals, len(u))

    factors = [(e, a0), *weights.values()]
    return mc_integrate(f, ("dirichlet", factors), spec.order, spec.seed)[0]


def gamma_quasi_radial(a: Expr, k: Partition, m: int, alpha,
                       spec: QuadratureSpec) -> float:
    """Diagonal coefficient of a quasi-radial symbol at weight m."""
    return _gamma(ProjectiveSpace(k.n, m), a, {}, k, alpha, (0,) * k.n, spec)


def gamma_multisphere_factor(b: Expr | None, k: Partition, j: int, p_j,
                             alpha, spec: QuadratureSpec) -> float:
    """Weight-independent per-block coefficient for b_j(s_(j)) t_(j)^p_(j)
    with a blockwise-zero shift."""
    p_j = tuple(int(x) for x in p_j)
    kj = k.parts[j]
    if len(p_j) != kj or sum(p_j) != 0:
        raise ValidationError(f"shift {p_j} is not blockwise-zero on block {j}")
    a_j = k.block(alpha, j)
    shifted = tuple(a + q for a, q in zip(a_j, p_j))
    if any(x < 0 for x in shifted):
        return 0.0
    half = tuple(a + q / 2 for a, q in zip(a_j, p_j))
    logpref = gammaln(kj + sum(a_j)) - sum(gammaln(x + 1) for x in shifted)
    return _scaled(logpref, _integral(
        b, partial(_cosines_env, kj=kj), kj - 1, half[:-1], half[-1], spec))


def gamma_multisphere(psi: SymbolSpec, k: Partition, m: int, alpha,
                      spec: QuadratureSpec) -> float:
    """Coefficient of a quasi-radial multi-sphere pseudo-homogeneous
    product with total shift summing to zero (the general theorem; the
    per-block shifts need not vanish individually)."""
    a_expr, blocks, p = _split_product(psi, k, (MultiSphereFactor,))
    return _gamma(ProjectiveSpace(k.n, m), a_expr, blocks, k, alpha, p, spec)


def _sphere_terms(k: Partition, j: int, p_j, n: int, alpha):
    """The exponent bookkeeping of a single-sphere gamma(alpha), None at a
    hard zero: the log prefactor and the weight (exps, a0) of its integral
    over the k_j-simplex."""
    kj = k.parts[j]
    if kj >= n:
        raise UnsupportedCaseError(
            "single-sphere factor with k_j = n is not covered; "
            "use the one-block multi-sphere form instead")
    p_j = tuple(int(x) for x in p_j)
    if len(p_j) != kj or sum(p_j) != 0:
        raise ValidationError(f"shift {p_j} is not blockwise-zero on block {j}")
    a_j = k.block(alpha, j)
    shifted = tuple(a + q for a, q in zip(a_j, p_j))
    if any(x < 0 for x in shifted):
        return None
    d = sum(alpha)
    a0 = d - sum(a_j) + n - kj - 1
    exps = tuple(a_j[l] + p_j[l] / 2 for l in range(kj))
    logpref = gammaln(d + n) - gammaln(a0 + 1)
    logpref -= sum(gammaln(x + 1) for x in shifted)
    return logpref, exps, a0


def gamma_single_sphere(b: Expr | None, k: Partition, j: int, p_j, n: int,
                        alpha, spec: QuadratureSpec,
                        memo: dict | None = None) -> float:
    """Coefficient of a single-sphere factor b_j(sigma_(j)) t_(j)^p_j.

    Independent of the weight; depends on alpha only through alpha_(j) and
    |alpha|.  The case k_j = n is outside the theorem (the leftover simplex
    factor degenerates) and raises.  memo keeps integrals by (j, exps, a0).
    """
    memo = {} if memo is None else memo
    alpha = tuple(int(x) for x in alpha)
    terms = _memoized(memo, ("terms", alpha),
                      partial(_sphere_terms, k, j, p_j, n, alpha))
    if terms is None:
        return 0.0
    logpref, exps, a0 = terms
    kj = k.parts[j]
    integral = _memoized(memo, ("block", j, exps, a0),
                         lambda: _integral(b, lambda x: {
                             f"sig{l + 1}": np.sqrt(x[l]) for l in range(kj)
                         }, kj, exps, a0, spec))
    return _scaled(logpref, integral)


def gamma_extended_projective(psi: SymbolSpec, k: Partition, m: int, alpha,
                              spec: QuadratureSpec) -> float:
    """Coefficient of an extended symbol a(r) prod b_j(r, s_(j)) t^p on the
    weight-m projective space."""
    a_expr, blocks, p = _split_product(psi, k, _EXTENDED)
    return _gamma(ProjectiveSpace(k.n, m), a_expr, blocks, k, alpha, p, spec)


def gamma_extended_ball(psi: SymbolSpec, k: Partition, lam: float, alpha,
                        spec: QuadratureSpec) -> float:
    """Coefficient of an extended symbol on the weight-lambda ball space."""
    a_expr, blocks, p = _split_product(psi, k, _EXTENDED)
    return _gamma(BallSpace(k.n, lam, sum(alpha)), a_expr, blocks, k, alpha,
                  p, spec)


def build_gamma_table(psi: SymbolSpec, space, k: Partition,
                      spec: QuadratureSpec) -> GammaTable:
    """Evaluate gamma over the whole basis, recording hard zeros.  A lone
    single-sphere factor on P^n takes its own theorem; every other product
    the extended one, which rejects single-sphere factors."""
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
    memo: dict = {}
    if single:
        (j, b), = blocks.items()
        p_j = k.block(p, j)
        gamma = partial(gamma_single_sphere, b, k, j, p_j, space.n,
                        spec=spec, memo=memo)

        def rule_weights(alpha):
            terms = _memoized(memo, ("terms", alpha), partial(
                _sphere_terms, k, j, p_j, space.n, alpha))
            return [] if terms is None else [terms[1:]]
    else:
        gamma = partial(_gamma, space, a_expr, blocks, k, p=p, spec=spec,
                        memo=memo)
        rule_weights = partial(_rule_weights, space, a_expr, blocks, k, p,
                               spec.order, memo)
    if spec.method != "monte-carlo":
        _build_rules(rule_weights, basis, spec.order)
    entries = {alpha: complex(gamma(alpha=alpha)) for alpha in basis}
    return GammaTable(space, k, p, entries, theorem)


def _rule_weights(space, a_expr, blocks: dict, k: Partition, p, q: int,
                  memo: dict, alpha) -> list:
    """The simplex weights (a, a0) whose order-q rules the deterministic
    _gamma builds for alpha, after the same coupled-grid budget check;
    alpha's exponents are kept in memo for _gamma."""
    terms = _memoized(memo, ("terms", alpha),
                      partial(_terms, space, blocks, k, alpha, p))
    if terms is None:
        return []
    *_, e, a0, weights = terms
    coupled = [len(exps) for j, (exps, _) in weights.items()
               if _reads_radii(blocks[j])]
    if a_expr is None and not coupled:
        return list(weights.values())
    quadrature.check_tensor_size(len(e) + sum(coupled), q)
    return [*weights.values(), (e, a0)]


def _build_rules(rule_weights, basis, q: int) -> None:
    """Build the Jacobi rules of every alpha in basis in one batch, up to
    the first alpha whose checks refuse it: its gamma raises the same
    error in turn, after the alpha before it are computed."""
    pairs: dict = {}
    for alpha in basis:
        try:
            for a, a0 in rule_weights(alpha):
                pairs.update(dict.fromkeys(quadrature.simplex_pairs(a, a0, q)))
        except (DomainError, ValidationError):
            break
    quadrature.build_jacobi_rules(pairs, q)
