"""Coefficient functions gamma(alpha) for every covered symbol family.

T(z^alpha) = gamma(alpha) z^(alpha+p).  One engine (`_values`) serves P^n and
the ball, for every family:

    gamma(alpha) = prod_i Gamma(h_i + 1) / Gamma(alpha_i + p_i + 1)
                   * E[a(rho) prod_j B_j(rho)],    h = alpha + p/2,

E the mean under the probability Dirichlet weight (e, a0), e_j =
|h_(j)| + k_j - 1, and B_j the mean of b_j under the block's weight h_(j).
The space is all the engine knows of P^n or the ball: a0 (m - |alpha|, or
lambda) and the radii's roots on the radial simplex (r_j^2 = x_j / x_0, or
x_j), so every radial integral is one `simplex_integrate` call on those roots.
A single-sphere block's b(sigma) reads the global cosines, so its weight
carries the coordinates outside the block as one leftover coordinate,
|alpha| - |alpha_(j)| + n - k_j - 1; the radial mean of that lone block is 1.
The Gamma ratio is one log scale, a sum of `indexing.gammaln_ratio` terms that
is accurate to ulps at any weight, and every integral a probability mean, so
no Dirichlet mass is formed.  It takes a whole basis: the bookkeeping is arrays
with a row per alpha, and each distinct radial key (e, a0) and block key
(j, exps, a0_j) is integrated once, in order of first appearance, after one
batched build of all their Jacobi rules.  A b_j that reads radii is split into
terms c_t R_t(r) S_t(s), and the mean is sum_t c_t radial(a R_t) block(S_t),
unless a term reads radii and cosines in one factor or, under quadrature, the
terms outnumber the q^(k_j - 1) nodes per radial node of the coupled grid, the
block's rule contracted at every radial node.  Monte Carlo draws once per
distinct key, and only the weights its integrand reads.

Which rows diverge is decided once, on that split, before either method runs
(`_split`), per family of means: each split block's angular means S_t, and,
unless a block is coupled, the radial means a R_t.  The families are
integrals over independent weights, so a rest can cancel a divergent
monomial (as in (1 - exp(-y))/y) only in its own family: a family with no
rest refuses a row, gamma inf, where one of its monomials diverges.  Terms
that are monomials c prod x^c_i in the barycentric coordinates of their
integral (`expr.dirichlet_form`) take their means at all distinct keys at
once, axis by Duffy axis (`quadrature.monomial_means`): a Beta moment where
the order-q rule is exact, else a 1-D rule sum.  Only the rests integrate on
a grid, and only a grid is held to the budget.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Mapping
from functools import partial, reduce
from itertools import product
from operator import mul

import numpy as np

from . import quadrature
from .expr import (Expr, Num, dirichlet_form, evaluate, monomial,
                   split_terms, variables)
from .indexing import (DomainError, Partition, Record, basis_rank,
                       enumerate_basis, gammaln_ratio)
from .quadrature import (QuadratureSpec, build_jacobi_rules, mc_integrate,
                         simplex_integrate, simplex_pairs)
from .symbols import (ExtendedFactor, MultiSphereFactor, PhaseMonomial,
                      QuasiRadial, SingleSphereFactor, SymbolSpec,
                      ValidationError, flatten, total_shift,
                      validate_product)

_EXTENDED = (ExtendedFactor, MultiSphereFactor)


class UnsupportedCaseError(DomainError):
    """A case the closed-form theorems do not cover."""


class ProjectiveSpace(Record):
    """P^n of weight m.  A space is all the engine knows of its kind: the
    radial weight's leftover exponent a0 at the degrees |alpha|, here
    m - |alpha|, and the radii r1.. as roots of the radial simplex's
    coordinates x, x_0 the last, here r_j^2 = x_j / x_0: `radial_roots`
    gives them as exponent vectors over x, and `_at` reads them at x."""

    n: int
    m: int
    degree = property(lambda self: self.m)  # the basis is |alpha| <= degree
    weight = property(lambda self: self.m)
    radial_roots = staticmethod(lambda ell: _roots("r", ell, ell + 1, ell))

    def a0(self, d) -> np.ndarray:
        if np.any(d > self.m):
            raise DomainError(f"|alpha|={d.max()} exceeds m={self.m}")
        return (self.m - d).astype(float)


class BallSpace(Record):
    """The unit ball of C^n of weight lambda, as ProjectiveSpace with
    a0 = lambda and r_j^2 = x_j."""

    n: int
    lam: float
    cap: int  # basis degree cap |alpha| <= cap
    degree = property(lambda self: self.cap)
    weight = property(lambda self: self.lam)
    radial_roots = staticmethod(lambda ell: _roots("r", ell, ell + 1))

    def a0(self, d) -> np.ndarray:
        if self.lam <= -1:
            raise DomainError(f"need lambda > -1, got {self.lam}")
        return np.full(len(d), float(self.lam))


def space_basis(space) -> np.ndarray:
    """The space's basis, |alpha| <= m on P^n and <= cap on the ball."""
    return enumerate_basis(space.n, space.degree)


def value_eq(a, b):
    """Record equality with np.array_equal on the array fields."""
    pairs = ((getattr(a, f), getattr(b, f)) for f in a._fields)
    return type(a) is type(b) and all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
        for x, y in pairs)


class _Entries(Mapping):
    """gamma by alpha, read-only: any int sequence of length n is a key,
    looked up by its rank; iteration is in basis order."""

    def __init__(self, table):
        self._table = table

    def __getitem__(self, alpha):
        key, space = np.asarray(alpha), self._table.space
        rank = (int(basis_rank(key, space.degree)) if key.shape == (space.n,)
                and key.dtype.kind in "iu" else -1)
        if rank < 0:
            raise KeyError(alpha)
        return complex(self._table.values[rank])

    def __iter__(self):
        return map(tuple, space_basis(self._table.space).tolist())

    def __len__(self):
        return len(self._table.values)

    def items(self):  # in basis order, with no lookup per key
        return list(zip(self, self.values()))

    def values(self):  # in basis order, with no lookup per key
        return self._table.values.tolist()


class GammaTable(Record):
    """gamma(alpha) at every alpha of the space's basis: `values[i]` at
    row i of `space_basis(space)`, 0 at the hard zeros."""

    space: ProjectiveSpace | BallSpace
    partition: Partition
    shift: tuple[int, ...]
    values: np.ndarray  # complex, read-only
    annotation: str
    __eq__ = value_eq

    @property
    def entries(self) -> Mapping:
        return _Entries(self)

    def __getitem__(self, alpha):
        return self.entries[alpha]


def _split_product(psi: SymbolSpec, k: Partition, allowed):
    """Collect (a_expr, {block: (cosine name, b_expr)}, total shift) from a
    product: a single-sphere factor reads sig1.., every other factor s1.."""
    validate_product(psi, k)
    a_expr, blocks = None, {}
    for f in flatten(psi):
        if isinstance(f, QuasiRadial):
            a_expr = f.a
        elif isinstance(f, allowed):
            single = isinstance(f, SingleSphereFactor)
            if single and k.parts[f.j] >= k.n:
                raise UnsupportedCaseError(
                    "single-sphere factor with k_j = n is not covered; "
                    "use the one-block multi-sphere form instead")
            blocks[f.j] = ("sig" if single else "s", f.b)
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
    """exp(log_scale) * value: the product of the two floats when both and
    the product are normal, so that gamma is rounded at its own scale, else
    in log space, so that a scale past the float range times a tiny
    integral is still a finite coefficient."""
    if value == 0:
        return 0.0
    scale = math.exp(log_scale) if log_scale < 709 else math.inf
    if all(sys.float_info.min <= abs(x) < math.inf
           for x in (scale, value, scale * value)):
        return scale * value
    try:
        return math.copysign(math.exp(log_scale + math.log(abs(value))),
                             value)
    except OverflowError:
        raise DomainError("coefficient is not representable in double "
                          "precision") from None


def _distinct(keys):
    """Distinct rows of keys by first appearance; each row's index there."""
    rows = list(map(tuple, keys.tolist()))
    index = {row: i for i, row in enumerate(dict.fromkeys(rows))}
    return (np.array(list(index), dtype=float).reshape(-1, keys.shape[1]),
            np.array([index[row] for row in rows], dtype=np.intp))


def _values(space, a_expr, blocks: dict, k: Partition, p, alphas,
            spec: QuadratureSpec) -> np.ndarray:
    """gamma at every alpha of alphas, 0 at the hard zeros, from a row per
    alpha that is no hard zero: log Gamma ratio, e, a0 and factors' h_(j)."""
    A = np.array(alphas, dtype=int).reshape(-1, k.n)
    a0 = space.a0(A.sum(axis=1))
    out, live = np.zeros(len(A)), np.flatnonzero(np.all(A + p >= 0, axis=1))
    if not len(live):
        return out
    A, a0 = A[live], a0[live]
    h = A + np.asarray(p) / 2
    # log prod Gamma(h_i + 1) / Gamma(alpha_i + p_i + 1), 0 where p_i = 0
    scale = gammaln_ratio(A + p + 1, -np.asarray(p) / 2).sum(axis=1)
    e = np.column_stack([h[:, k.block_slice(j)].sum(axis=1) + kj - 1
                         for j, kj in enumerate(k.parts)])
    weights = {j: h[:, k.block_slice(j)] for j in sorted(blocks)}
    for j in weights:
        if blocks[j][0] == "sig":  # the coordinates outside block j as one
            outside = np.delete(A, k.block_slice(j), axis=1).sum(axis=1)
            weights[j] = np.column_stack(
                [weights[j], outside + k.n - k.parts[j] - 1])
    mc = spec.method == "monte-carlo"
    split, bad = _split(space, a_expr, blocks, k, e, a0, weights,
                        None if mc else spec.order)
    value, ok = np.full(len(A), np.inf), ~bad
    if mc:
        # draw a block's weight only when its b reads a cosine, and the
        # radial weight only when a radius is read or no block is drawn
        reads = {j: {v[0] for v in variables(b)} if b is not None else set()
                 for j, (_, b) in blocks.items()}
        drawn = {j: weights[j] for j in weights if "s" in reads[j]}
        if (a_expr is not None or not drawn
                or any("r" in v for v in reads.values())):
            drawn = {None: np.column_stack([e, a0]), **drawn}
        keys, key_of = _distinct(np.column_stack(list(drawn.values()))[ok])
        cuts = np.cumsum([w.shape[1] for w in drawn.values()])[:-1]
        value[ok] = np.array([_mc_value(
            space, a_expr, blocks, k, dict(zip(drawn, (
                (w[:-1], w[-1]) for w in np.split(key, cuts)))), spec)
            for key in keys])[key_of]
    elif ok.any():
        value[ok] = _quadrature(space, blocks, k, e[ok], a0[ok], {
            j: w[ok] for j, w in weights.items()}, spec, *split)
    out[live] = [_scaled(s, v) for s, v in zip(scale.tolist(),
                                               value.tolist())]
    return out


def _split(space, a_expr, blocks: dict, k: Partition, e, a0,
           weights: dict, q: int | None):
    """The split of the mean that both methods read: each block's
    `_block_terms`, coupled past q^(k_j-1) (no grid under Monte Carlo, q
    None, couples none), the `dirichlet_form` of each S on its cosines, and
    the radial forms of a times each product of one R per split block, all
    rest beside a coupled block.  And the rows refused: where a family of
    forms with no rest has a monomial that diverges (module docstring)."""
    terms = {j: _block_terms(blocks[j][1], math.inf if q is None
                             else q ** (k.parts[j] - 1)) for j in weights}
    coupled = [j for j, t in terms.items() if t is None]
    split = {j: t for j, t in terms.items() if t is not None}
    roots = {j: _roots(blocks[j][0], k.parts[j], weights[j].shape[1])
             for j in split}
    forms = {j: [dirichlet_form(S or Num(1.0), roots[j]) for *_, S in t]
             for j, t in split.items()}
    radial_roots = space.radial_roots(k.num_blocks)
    products = (monomial([(f, 1) for f in (a_expr, *Rs) if f is not None])
                or Num(1.0) for Rs in product(*([R for _, R, _ in t]
                                                 for t in split.values())))
    radial_forms = [([], x) if coupled else dirichlet_form(x, radial_roots)
                    for x in products]
    bad = np.zeros(len(e), dtype=bool)
    for fs, rows in [*((forms[j], weights[j]) for j in split),
                     (radial_forms, np.column_stack([e, a0]))]:
        if all(rest is None for _, rest in fs):
            for monomials, _ in fs:
                for _, exps in monomials:
                    bad |= quadrature.diverges(exps, rows)
    return (split, coupled, roots, forms, radial_forms), bad


def _quadrature(space, blocks: dict, k: Partition, e, a0, weights: dict,
                spec, split, coupled, roots, forms, radial_forms):
    """The means of gamma by quadrature, one value per row of e, on the
    `_split` of the mean."""
    ell, q = k.num_blocks, spec.order
    rests = [rest for _, rest in radial_forms]
    gridded = any(rest is not None for rest in rests)
    if gridded:
        # radial times coupled nodes, once per product
        quadrature.check_tensor_size(
            ell + sum(k.parts[j] - 1 for j in coupled), q, len(rests))
    keys = {j: _distinct(h) for j, h in weights.items()}
    radial_keys, radial_of = _distinct(np.column_stack(
        [e, a0, *(keys[j][1] for j in coupled)]))
    radial_rows = radial_keys[:, :ell + 1]
    # the rules of every grid in one batch; monomials build their own
    grids = [radial_rows] * gridded + [keys[j][0] for j in coupled] + [
        keys[j][0] for j, fs in forms.items()
        if any(rest is not None for _, rest in fs)]
    build_jacobi_rules([pair for rows in grids for pair in np.column_stack(
        [x.ravel() for x in simplex_pairs(rows)]).tolist()], q)
    # each block's terms c_t block(S_t) per distinct block key, gathered
    integrals = {}
    for j, t in split.items():
        rows, of = keys[j]
        env = partial(_at, roots[j])

        def grid(f, w, env=env):
            return float(simplex_integrate(lambda x: evaluate(f, env(x)),
                                           len(w) - 1, w[:-1], w[-1], spec))

        integrals[j] = np.column_stack([c * _means(f, rows, q, grid) for
                                        (c, *_), f in zip(t, forms[j])])[of]
    # the rests take one radial grid below, beside the coupled blocks
    radial = np.column_stack([_means((m, None), radial_rows, q, None)
                              for m, _ in radial_forms])
    if gridded:
        rules = {j: [_block_rule(k.parts[j], tuple(w[:-1]), w[-1], spec)
                     for w in keys[j][0]] for j in coupled}
        radial += np.array([_radial_value(
            space, rests, [(blocks[j][1], *rules[j][int(u)])
                           for j, u in zip(coupled, row[ell + 1:])],
            tuple(row[:ell]), row[ell], spec) for row in radial_keys])
    radial = radial[radial_of]
    choices = product(*(range(len(t)) for t in split.values()))
    return sum(reduce(mul, (integrals[j][:, t] for j, t in zip(split, ts)),
                      np.ones(len(e))) * radial[:, combo]
               for combo, ts in enumerate(choices))


def _means(form, rows, q: int, grid) -> np.ndarray:
    """The mean of a `dirichlet_form` at each row of rows, the Dirichlet
    weights of its integral: each monomial (c, exps) axis by axis, and the
    rest as grid(rest, row)."""
    monomials, rest = form
    total = np.zeros(len(rows)) if rest is None else np.array(
        [grid(rest, w) for w in rows])
    for c, exps in monomials:
        total = total + c * quadrature.monomial_means(exps, rows, q)
    return total


def _radial_value(space, rests: list, coupled: list, e, a0,
                  spec) -> np.ndarray:
    """Radial means of each rest (an expression in the radii, None for 0)
    times prod B(rho), one per rest; each coupled block mean B (b, cosines
    and weights on the block's axes) is contracted at every radial node."""

    def g(x):
        env = _at(space.radial_roots(len(e)), x)
        # one integrand per rest, each contracted on its own axes
        vals = [0.0 if rest is None else evaluate(rest, env)
                for rest in rests]
        for b_expr, cosines, ws in coupled:
            pad = (...,) + (None,) * len(ws)  # block axes after radial ones
            h = evaluate(b_expr, {**{v: r[pad] for v, r in env.items()},
                                  **cosines})
            B = quadrature.contract(h, ws)
            vals = [v * B for v in vals]
        return vals

    return simplex_integrate(g, len(e), e, a0, spec)


def _roots(name: str, count: int, size: int, over: int | None = None):
    """Variables name1..name<count> as exponent vectors over size
    barycentric coordinates x: name_l^2 = x_l, or x_l / x_over."""
    half = np.eye(size) / 2
    return {f"{name}{l + 1}": half[l] - (0 if over is None else half[over])
            for l in range(count)}


def _at(roots: dict, x) -> dict:
    """The variables of `_roots` at the coordinates x."""
    return {v: np.sqrt(x[e.argmax()] / (x[e.argmin()] if e.min() < 0
                                        else 1.0)) for v, e in roots.items()}


def _block_rule(kj: int, exps, a0, spec):
    """The block rule's cosines on the block's own axes, and its weights."""
    us, ws = quadrature.simplex_axes(kj - 1, exps, float(a0), spec.order)
    return _at(_roots("s", kj, kj), quadrature.barycentric(us)), ws


def _mc_value(space, a_expr, blocks: dict, k: Partition, drawn: dict,
              spec):
    """Monte Carlo estimate at one key: drawn maps the radial factor (None)
    and each block it samples to the Dirichlet weight (exps, a0) its points
    are drawn from, in drawing order; a block not drawn reads no cosine."""

    def f(*draws):
        u = dict(zip(drawn, draws))
        env = (_at(space.radial_roots(k.num_blocks), u[None].T)
               if None in u else {})  # the radial draw
        vals = evaluate(a_expr or Num(1.0), env)
        for j, (name, b) in sorted(blocks.items()):
            cosines = _at(_roots(name, k.parts[j], u[j].shape[1]),
                          u[j].T) if j in u else {}
            vals = vals * evaluate(b or Num(1.0), {**env, **cosines})
        return np.broadcast_to(vals, len(draws[0]))

    return mc_integrate(f, ("dirichlet", list(drawn.values())), spec.order,
                        spec.seed)[0]


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


def build_gamma_table(psi: SymbolSpec, space, k: Partition,
                      spec: QuadratureSpec) -> GammaTable:
    """Evaluate gamma over the whole basis, recording hard zeros.  A lone
    single-sphere factor is its own theorem, on P^n and the ball alike;
    every other product is the extended one, which rejects single-sphere
    factors.  A non-finite entry raises DomainError naming the first such
    alpha."""
    factors = flatten(psi)
    single = len(factors) == 1 and isinstance(factors[0], SingleSphereFactor)
    a_expr, blocks, p = _split_product(
        psi, k, SingleSphereFactor if single else _EXTENDED)
    extended = any(isinstance(f, ExtendedFactor) for f in factors)
    theorem = ("single-sphere" if single
               else "extended-ball" if isinstance(space, BallSpace)
               else "extended-projective" if extended
               else "quasi-radial-pseudo-homogeneous")
    basis = space_basis(space)
    # a non-finite entry raises below, in place of NumPy's warnings
    with np.errstate(all="ignore"):
        values = _values(space, a_expr, blocks, k, p, basis, spec)
    bad = np.flatnonzero(~np.isfinite(values))
    if len(bad):
        raise DomainError(f"gamma{tuple(basis[bad[0]].tolist())} = "
                          f"{values[bad[0]].item()} is not finite")
    values = values.astype(complex)
    values.flags.writeable = False
    return GammaTable(space, k, p, values, theorem)
