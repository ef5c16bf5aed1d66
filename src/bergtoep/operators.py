"""Toeplitz operators over the monomial basis and operator-algebra checks.

Every covered operator is a weighted shift T z^alpha = w(alpha) z^(alpha+p)
with a zero-sum shift p: it keeps each grade |alpha| and has at most one
nonzero per column and per row.  Rows and columns are the ranks of the
space's basis, `space_basis(space)`, the (dim, n) int array of
`indexing.enumerate_basis` in graded-lex order; the space fixes it.  A
ToeplitzMatrix stores per column alpha its weight and its row(alpha+p),
`basis_rank(alpha+p)`, or -1 (weight 0) where alpha+p leaves the basis or
gamma(alpha) = 0.  The algebra runs as O(dim) gathers over these
two arrays; `data` builds the dense matrix on request.  Weights are in the
orthonormal basis, where the conjugate symbol gives the conjugate
transpose.
"""
from __future__ import annotations

from functools import reduce
from itertools import combinations

import numpy as np

from . import expr as exprmod
from .gamma import (BallSpace, GammaTable, ProjectiveSpace, build_gamma_table,
                    space_basis, value_eq)
from .indexing import (DomainError, Partition, Record, basis_rank,
                       gammaln_ratio)
from .quadrature import QuadratureSpec
from .symbols import (
    ExtendedFactor,
    Product,
    QuasiRadial,
    SingleSphereFactor,
    SymbolSpec,
    flatten,
)


def shift_targets(space, shift) -> np.ndarray:
    """Row of alpha+shift for every column alpha, -1 outside the basis."""
    return basis_rank(space_basis(space) + np.asarray(shift, dtype=int),
                      space.degree)


class ToeplitzMatrix(Record):
    weights: np.ndarray  # complex, weight of column alpha; 0 without target
    target: np.ndarray  # intp, row of column alpha, -1 for no entry
    shift: tuple[int, ...]
    space: ProjectiveSpace | BallSpace
    __eq__ = value_eq

    @property
    def dim(self) -> int:
        return len(self.weights)

    @property
    def data(self) -> np.ndarray:
        """Read-only dense (dim, dim) view, built on every access."""
        cols = np.flatnonzero(self.target >= 0)
        M = np.zeros((self.dim, self.dim), dtype=complex)
        M[self.target[cols], cols] = self.weights[cols]
        M.flags.writeable = False
        return M

    def entries(self):
        """(rows, cols, values) of the nonzero entries in row order."""
        cols = np.flatnonzero((self.target >= 0) & (self.weights != 0))
        cols = cols[np.argsort(self.target[cols])]  # rows are distinct
        return self.target[cols], cols, self.weights[cols]


def assemble(table: GammaTable) -> ToeplitzMatrix:
    """Materialize a gamma table as a weighted shift in the orthonormal
    basis, in the frozen basis order.

    Since |alpha+p| = |alpha|, the squared-norm ratio of z^(alpha+p) to
    z^alpha is prod (alpha+p)_i! / alpha_i! on P^n and on the ball alike.
    """
    # gamma(alpha) and the target row of every column alpha
    target = shift_targets(table.space, table.shift)
    g = table.values.copy()
    target[g == 0] = -1
    g[target < 0] = 0
    kept = target >= 0
    alpha = space_basis(table.space)[kept]
    g[kept] *= np.exp(0.5 * gammaln_ratio(alpha + 1, table.shift).sum(1))
    return ToeplitzMatrix(g, target, table.shift, table.space)


def compose(m1: ToeplitzMatrix, m2: ToeplitzMatrix) -> ToeplitzMatrix:
    """m1 m2: column alpha goes to m1's target of m2's target."""
    if m1.space != m2.space:
        raise DomainError("operands assembled over different spaces")
    shift = tuple(a + b for a, b in zip(m1.shift, m2.shift))
    mid = m2.target
    target = np.where(mid >= 0, m1.target[mid], -1)
    weights = np.where(mid >= 0, m1.weights[mid] * m2.weights, 0)
    return ToeplitzMatrix(weights, target, shift, m1.space)


def commutator(m1: ToeplitzMatrix, m2: ToeplitzMatrix) -> ToeplitzMatrix:
    """m1 m2 - m2 m1.  Both products send column alpha to row(alpha+p1+p2)
    or, near the edge of the basis, only one of them does."""
    a, b = compose(m1, m2), compose(m2, m1)
    return ToeplitzMatrix(a.weights - b.weights,
                          np.where(a.target >= 0, a.target, b.target),
                          a.shift, a.space)


def frobenius_norm(m) -> float:
    data = m.weights if isinstance(m, ToeplitzMatrix) else np.asarray(m)
    return float(np.sqrt(np.sum(np.abs(data) ** 2)))


def audit_shift_structure(m: ToeplitzMatrix) -> bool:
    """Every column has at most one nonzero, in the row of alpha + p.  This
    reads the dense matrix and the basis rows only, not `basis_rank`."""
    rows, cols = np.nonzero(m.data)
    basis = space_basis(m.space)
    return (len(np.unique(cols)) == len(cols)
            and np.array_equal(basis[rows], basis[cols] + m.shift))


def single_sphere_to_extended(f: SingleSphereFactor,
                              k: Partition) -> ExtendedFactor:
    """Rewrite b(sigma_(j)) in extended form: sigma_u = r_j s_u / |r|."""
    ell = k.num_blocks
    norm_src = "sqrt(" + " + ".join(f"r{v + 1}^2" for v in range(ell)) + ")"
    mapping = {
        f"sig{l + 1}": exprmod.parse(f"r{f.j + 1}*s{l + 1}/{norm_src}")
        for l in range(k.parts[f.j])
    }
    return ExtendedFactor(f.j, exprmod.subst(f.b, mapping), f.p)


def product_table(factors: list[SymbolSpec], space, k: Partition,
                  spec: QuadratureSpec) -> GammaTable:
    """Gamma table of the pointwise product of the given factors.

    Single-sphere factors are rewritten in extended form whenever they are
    combined with anything else, so the coupled-integral theorem covers
    the product.
    """
    flat = flatten(Product(tuple(factors)))
    if len(flat) > 1 and any(isinstance(f, SingleSphereFactor) for f in flat):
        flat = [single_sphere_to_extended(f, k)
                if isinstance(f, SingleSphereFactor) else f for f in flat]
    return build_gamma_table(Product(tuple(flat)), space, k, spec)


def fusion_defect(a: SymbolSpec | None, factors: list[SymbolSpec], space,
                  k: Partition, spec: QuadratureSpec) -> tuple[float, float]:
    """Frobenius distance between T of the product symbol and the product
    of the factor operators, plus the product-symbol scale."""
    all_factors = ([a] if a is not None else []) + list(factors)
    prod_matrix = assemble(product_table(all_factors, space, k, spec))
    acc = reduce(compose, (assemble(build_gamma_table(f, space, k, spec))
                           for f in all_factors))
    # both operators send column alpha to row(alpha+p) or nowhere (weight 0)
    defect = frobenius_norm(prod_matrix.weights - acc.weights)
    scale = frobenius_norm(prod_matrix)
    return defect, scale


def commutation_suite(symbols: list[SymbolSpec], space, k: Partition,
                      spec: QuadratureSpec) -> float:
    """Max pairwise relative commutator Frobenius norm over the suite."""
    mats = [assemble(build_gamma_table(s, space, k, spec)) for s in symbols]
    worst = 0.0
    for a, b in combinations(mats, 2):
        na, nb = frobenius_norm(a), frobenius_norm(b)
        if na and nb:
            worst = max(worst, frobenius_norm(commutator(a, b)) / (na * nb))
    return worst


def export_matrix(m: ToeplitzMatrix, fh) -> None:
    """Coordinate-list text format, one entry per line: row col re im."""
    space = m.space
    shift = ",".join(str(x) for x in m.shift)
    fh.write(f"# {space.n} {space.weight} {m.dim} shift={shift}\n")
    for r, c, v in zip(*m.entries()):
        fh.write(f"{r} {c} {float(v.real)!r} {float(v.imag)!r}\n")
